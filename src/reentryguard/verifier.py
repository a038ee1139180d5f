"""Independent trace auditor.

Everything here is reconstructed from the serialized trace text: agent
contamination, carrier ownership, the run's enforcement. No simulator
or policy-engine state is consulted; the parser's model.Event and
model.Carrier are the only records shared with the simulator, and the rules
here are written out apart from the enforcing ones. A report is thus
reproducible from the trace file alone and disagreements between auditor and
enforcement surface as test failures instead of being defined away.

The central check is the temporal pattern: an effective untrusted write to a
carrier, followed by an effective exposed read of that carrier, followed by an
effective high-risk action by the reader, with no context reset and no
effective declassification by the reader between read and action. (The
simulator's declassification clears a carrier, not an agent; the two rules
do not yet agree.) A trace is safe when no such chain completes.

audit runs every pass in one forward scan, reading each event once. The
chain rule has two parts. During the scan, each carrier keeps its effective
untrusted writes and, once it has one, its effective untrusted exposed reads;
each read takes its reader's next effective high-risk action, unless a
context reset or an effective declassification by the reader comes first.
After the scan, one index-ordered merge per carrier gives each write its
witness: the first read after it that took an action, with that action. So
each offending write gets one minimal witness, the earliest qualifying read
after it with that read's earliest action. Whether a write is an action, by
its carrier's class, autoload and scope, is decided per carrier when a
write by an agent with an open read first needs it.

The entry points are build_report, which parses a trace and audits it, and
find_chains, which returns the chain witnesses alone. chains_in,
rtw_violations_in, infections_in and zero_click_in are views of one audit.

"Effective" means the decision is one that takes effect under the header's
guard mode (``model.EFFECTIVE``): an allow, or a guard under approve-mode
guards. Denied events never count: a blocked write taints nothing, a
blocked action harms nothing.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from .model import (
    EFFECTFUL_KINDS,
    EFFECTIVE,
    REASON_LAYER,
    Carrier,
    CarrierClass,
    CarrierScope,
    Event,
    EventKind,
    GuardMode,
    Reason,
    ReentryGuardError,
    TaintLabel,
    Verdict,
)
from .tracelog import TraceMeta, parse_trace


class VerificationError(ReentryGuardError):
    """The trace is structurally unusable for auditing."""


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainWitness:
    """Minimal completed write-read-act chain, by event index."""

    carrier_id: int
    writer: str
    write_index: int
    write_tick: int
    reader: str
    read_index: int
    read_tick: int
    action_index: int
    action_tick: int
    action: str


@dataclass(frozen=True)
class RtwViolation:
    carrier_id: int
    write_index: int
    read_index: int
    reader: str


@dataclass
class Report:
    event_count: int
    safe: bool
    chains: list[ChainWitness]
    hops: int
    infected: list[str]
    infection_ticks: list[int]
    zero_click: bool
    persistence: bool
    re_entry: bool
    propagation: bool
    privilege_escalation: bool
    exfiltration: bool
    rtw_violations: list[RtwViolation]
    intervention_reasons: dict[str, int]
    layer_denials: dict[str, int]
    meta: TraceMeta = field(repr=False)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def is_effective(ev: Event, meta: TraceMeta) -> bool:
    return ev.decision in EFFECTIVE[meta.enforcement.guard_mode]


# kinds whose carrier_id column names a carrier; promote's holds a candidate id
_CARRIER_KINDS = frozenset(
    {EventKind.WRITE, EventKind.EXPOSED_READ, EventKind.OPAQUE_READ, EventKind.DECLASSIFY}
)
# kinds the passes judge by their label
_LABELLED = frozenset({EventKind.WRITE, EventKind.EXPOSED_READ, EventKind.PROMOTE})


# a write to a carrier that feeds future contexts or crosses agents is a
# high-risk action; ordinary on-demand local files are below the bar
def _risky(c: Carrier) -> bool:
    return (
        c.cls in (CarrierClass.STATIC_CONFIG, CarrierClass.TRUSTED_MEMORY)
        or c.autoloaded
        or c.scope is CarrierScope.SHARED_CROSS_AGENT
    )


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------


def audit(meta: TraceMeta, events: Iterable[Event]) -> Report:
    """Every audit pass in one forward scan; events are read once, in order.

    Refuses what no pass may skip over: an effectful event without a
    decision, a decision on an event nothing mediates (it would count as an
    intervention), a write, exposed read or promotion without a label (the
    passes judge it by its label), and an event on a carrier the header
    does not declare (its owner and class, which hops and high-risk writes
    are judged by, would be unknown). Zero-click, hops and propagation are
    judged by who acts, so it also refuses an actor the header does not
    declare: an attacker that is also a declared agent, a carrier owner
    that is not one, an event agent or msg_recv sender that is neither one
    nor the attacker, and an inject by anyone but the attacker; a message
    on a channel its agent's # agent line does not list, and an inject on
    one no agent lists (no run of the header carries either); and an event
    past the # ticks the record reports."""
    effective = EFFECTIVE[meta.enforcement.guard_mode]
    attacker = meta.attacker
    # contamination excuses an RTW violation only where attenuation denies actions
    attenuation_denies = meta.enforcement.attenuation and meta.enforcement.guard_mode is GuardMode.DENY_ALL
    agents = {a.id: a.channels for a in meta.agents}  # agent -> the channels it lists
    listed = {ch for a in meta.agents for ch in a.channels}
    if attacker in agents:
        raise VerificationError(f"the attacker {attacker} is also a declared agent")
    carriers = {c.id: c for c in meta.carriers}
    for c in meta.carriers:
        if c.owner is not None and c.owner not in agents:
            raise VerificationError(f"carrier {c.id} is owned by {c.owner}, which the header does not declare")
    risky: dict[int, bool] = {}  # carrier id -> _risky(its carrier), once a write asks
    # members as locals: looking one up on its Enum class costs more than the test
    allow, clean = Verdict.ALLOW, TaintLabel.CLEAN
    write, exposed_read, high_risk, msg_send, msg_recv = (
        EventKind.WRITE, EventKind.EXPOSED_READ, EventKind.HIGH_RISK, EventKind.MSG_SEND, EventKind.MSG_RECV,
    )
    inject, promote, declassify, reset = (
        EventKind.INJECT, EventKind.PROMOTE, EventKind.DECLASSIFY, EventKind.CONTEXT_RESET,
    )

    denied: dict[Reason, int] = {}  # reason -> non-allow decisions, in first-seen order
    injects = 0
    attacker_acts = persistence = re_entry = propagation = escalation = exfiltration = False
    infections: dict[str, int] = {}  # agent -> tick of its first infecting write
    # RTW: agents with an effective untrusted exposed read since their last
    # reset, and each carrier's first untrusted write since its declassification
    contaminated: set[str] = set()
    last_write: dict[int, int] = {}
    violations: list[RtwViolation] = []
    # chains: each carrier's effective untrusted writes and, once it has one,
    # its effective untrusted exposed reads. A read is [index, event, None]
    # until its reader's next effective high-risk action sets its last item
    # to (action index, action event); one its reader resets or declassifies
    # before then, or that is still open at the end, stays dead.
    writes: dict[int, list[tuple[int, Event]]] = {}
    reads: dict[int, list[list[Any]]] = {}
    opened: dict[str, list[list[Any]]] = {}
    chains: list[ChainWitness] = []

    i = -1
    for i, ev in enumerate(events):
        kind, agent, cid, decision = ev.kind, ev.agent, ev.carrier_id, ev.decision
        if decision is None:
            if kind in EFFECTFUL_KINDS:
                raise VerificationError(f"event {i}: effectful kind {kind.value} carries no decision")
            live = False
        else:
            if kind not in EFFECTFUL_KINDS:
                raise VerificationError(f"event {i}: {kind.value} is not mediated, yet carries a decision")
            if decision.verdict is not allow:
                denied[decision.reason] = denied.get(decision.reason, 0) + 1
            live = decision in effective
        if kind in _CARRIER_KINDS and cid not in carriers:
            raise VerificationError(
                f"event {i}: {kind.value} of carrier {cid}, which the header does not declare"
            )
        if kind is inject:
            if agent != attacker:
                raise VerificationError(f"event {i}: inject by {agent}, not the attacker {attacker}")
            if ev.channel not in listed:
                raise VerificationError(f"event {i}: inject on {ev.channel}, which no # agent line lists")
            injects += 1
            continue
        if agent not in agents:
            if agent != attacker:
                raise VerificationError(f"event {i}: {kind.value} by {agent}, which the header does not declare")
            attacker_acts = True
        if (kind is msg_send or kind is msg_recv) and ev.channel not in agents.get(agent, ()):
            raise VerificationError(
                f"event {i}: {kind.value} by {agent} on {ev.channel}, which its # agent line does not list"
            )
        if ev.label is None and kind in _LABELLED:
            raise VerificationError(f"event {i}: {kind.value} carries no label")
        if kind is write:
            if not live:
                continue
            if ev.label is not clean:
                persistence = persistence or ev.facets.persist
                if carriers[cid].owner == agent and agent not in infections:
                    infections[agent] = ev.tick
                if cid not in last_write:
                    last_write[cid] = i
                writes.setdefault(cid, []).append((i, ev))
            if agent in opened:
                if cid not in risky:
                    risky[cid] = _risky(carriers[cid])
                if risky[cid]:
                    for read in opened.pop(agent):
                        read[2] = (i, ev)
        elif kind is exposed_read:
            if not live or ev.label is clean:
                continue
            re_entry = re_entry or cid in writes
            w = last_write.get(cid)
            if w is not None and not (attenuation_denies and agent in contaminated):
                violations.append(RtwViolation(carrier_id=cid, write_index=w, read_index=i, reader=agent))
            contaminated.add(agent)
            if cid in writes:
                read = [i, ev, None]
                reads.setdefault(cid, []).append(read)
                opened.setdefault(agent, []).append(read)
        elif kind is msg_send or kind is high_risk:
            if not live:
                continue
            if kind is high_risk:
                escalation = True
            else:
                exfiltration = exfiltration or ev.exfil
            if agent in opened:
                for read in opened.pop(agent):
                    read[2] = (i, ev)
        elif kind is msg_recv:
            sender = ev.sender
            if sender not in agents:
                if sender != attacker:
                    raise VerificationError(f"event {i}: msg_recv from {sender}, which the header does not declare")
            elif not propagation and ev.facets.any:
                propagation = True
        elif kind is promote:
            if live and ev.label is not clean and ev.facets.persist:
                persistence = True
        elif kind is declassify:
            if live:
                last_write.pop(cid, None)
                opened.pop(agent, None)
        elif kind is reset:
            contaminated.discard(agent)
            opened.pop(agent, None)
    # ticks never decrease, so the last event has the highest
    if i >= 0 and ev.tick > meta.ticks:
        raise VerificationError(f"event {i}: tick {ev.tick} is past the header's # ticks {meta.ticks}")
    # each write's witness is the first read after it that took an action:
    # writes and reads are in index order, so one merge per carrier
    for cid, carrier_writes in writes.items():
        carrier_reads = reads.get(cid, [])
        k = 0
        for w, wev in carrier_writes:
            while k < len(carrier_reads) and (carrier_reads[k][0] < w or carrier_reads[k][2] is None):
                k += 1
            if k == len(carrier_reads):
                break
            j, rev, (a, aev) = carrier_reads[k]
            chains.append(
                ChainWitness(
                    carrier_id=cid,
                    writer=wev.agent,
                    write_index=w,
                    write_tick=wev.tick,
                    reader=rev.agent,
                    read_index=j,
                    read_tick=rev.tick,
                    action_index=a,
                    action_tick=aev.tick,
                    action=aev.action.value if aev.action else aev.kind.value,
                )
            )
    chains.sort(key=lambda w: w.write_index)

    reasons: dict[str, int] = {}
    layers: dict[str, int] = {}
    for reason, n in denied.items():
        reasons[reason.value] = n
        layer = REASON_LAYER[reason].value
        layers[layer] = layers.get(layer, 0) + n
    return Report(
        event_count=i + 1,
        safe=not chains,
        chains=chains,
        hops=len(infections),
        infected=list(infections),
        infection_ticks=list(infections.values()),
        zero_click=injects == 1 and not attacker_acts,
        persistence=persistence,
        re_entry=re_entry,
        propagation=propagation,
        privilege_escalation=escalation,
        exfiltration=exfiltration,
        rtw_violations=violations,
        intervention_reasons=reasons,
        layer_denials=layers,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def build_report(text: str) -> Report:
    return audit(*parse_trace(text))


def find_chains(trace: str) -> list[ChainWitness]:
    """Every completed write-read-act chain in a serialized trace, one
    minimal witness per offending write. Empty certifies the run."""
    return build_report(trace).chains


def chains_in(events: list[Event], meta: TraceMeta) -> list[ChainWitness]:
    return audit(meta, events).chains


def rtw_violations_in(events: list[Event], meta: TraceMeta) -> list[RtwViolation]:
    """Effective untrusted writes later exposure-read, effectively, by a
    reader still holding high capability: one not yet contaminated when the
    attenuation layer is on under deny-mode guards (under approve-mode guards
    an attenuated action takes effect, so no reader is excused). An effective
    declassification of the carrier clears its pending writes."""
    return audit(meta, events).rtw_violations


def infections_in(events: list[Event], meta: TraceMeta) -> tuple[list[str], list[int]]:
    """Agents that performed an effective untrusted write into a carrier they
    own, in first-infection order, with the tick of each first write."""
    return (report := audit(meta, events)).infected, report.infection_ticks


def zero_click_in(events: list[Event], meta: TraceMeta) -> bool:
    """One injection did all the work: exactly one inject line and no other
    attacker-attributed activity anywhere in the trace. Zero injections is
    a vacuous run and flagged false, not passed."""
    return audit(meta, events).zero_click
