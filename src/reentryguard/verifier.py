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
pattern is past-time, so chains are decided online, from state kept per
agent and carrier. Each carrier keeps its effective untrusted writes still
waiting for a witness, and a FIFO of the effective untrusted exposed reads
made while writes wait; each agent keeps the reads it has opened. The
agent's next effective high-risk action settles its open reads as qualified
with that action; a context reset, an effective declassification by the
agent or the end of the trace settles them as dead. A settled read at the
head of its carrier's queue leaves it: a qualified one is the witness for
every waiting write before it, a dead one is dropped. So each offending
write gets one minimal witness, the earliest qualifying read after it with
that read's earliest action.

The entry points are build_report, which parses a trace and audits it, and
find_chains, which returns the chain witnesses alone. chains_in,
rtw_violations_in, infections_in and zero_click_in are views of one audit.

"Effective" means the decision is one that takes effect under the header's
guard mode (``model.EFFECTIVE``): an allow, or a guard under approve-mode
guards. Denied events never count: a blocked write taints nothing, a
blocked action harms nothing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from .model import (
    EFFECTFUL_KINDS,
    EFFECTIVE,
    REASON_LAYER,
    ActionKind,
    CarrierClass,
    CarrierScope,
    Event,
    EventKind,
    Reason,
    ReentryGuardError,
    TaintLabel,
    Verdict,
)
from .tracelog import TraceMeta, missing_tags, parse_trace


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


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------


def audit(meta: TraceMeta, events: Iterable[Event]) -> Report:
    """Every audit pass in one forward scan; events are read once, in order.

    Refuses what no pass may skip over: a header that lacks a single tag (a
    header-less fragment parses, but the passes read the enforcement and
    the attacker, and the report the rest), an effectful event without a
    decision, and an event on a carrier the header does not declare (its
    owner and class, which hops and high-risk writes are judged by, would be
    unknown)."""
    missing = missing_tags(meta)
    if missing:
        raise VerificationError(f"the header has no {', '.join('# ' + tag for tag in missing)} line")
    effective = EFFECTIVE[meta.enforcement.guard_mode]
    attacker = meta.attacker
    attenuation_on = meta.enforcement.attenuation
    owners = {c.id: c.owner for c in meta.carriers}
    # carriers a write to which is a high-risk action: those that feed future
    # contexts or cross agents; ordinary on-demand local files are below the bar
    risky = {
        c.id
        for c in meta.carriers
        if c.cls in (CarrierClass.STATIC_CONFIG, CarrierClass.TRUSTED_MEMORY)
        or c.autoloaded
        or c.scope is CarrierScope.SHARED_CROSS_AGENT
    }
    # members as locals: looking one up on its Enum class costs more than the test
    allow, clean = Verdict.ALLOW, TaintLabel.CLEAN
    write, exposed_read, high_risk, msg_send, msg_recv = (
        EventKind.WRITE, EventKind.EXPOSED_READ, EventKind.HIGH_RISK, EventKind.MSG_SEND, EventKind.MSG_RECV,
    )
    inject, promote, declassify, reset = (
        EventKind.INJECT, EventKind.PROMOTE, EventKind.DECLASSIFY, EventKind.CONTEXT_RESET,
    )
    escalating = (ActionKind.INVOKE_SHELL, ActionKind.INVOKE_NETWORK)

    denied: dict[Reason, int] = {}  # reason -> non-allow decisions, in first-seen order
    injects = 0
    attacker_acts = persistence = re_entry = propagation = escalation = exfiltration = False
    infections: dict[str, int] = {}  # agent -> tick of its first infecting write
    # RTW: agents with an effective untrusted exposed read since their last
    # reset, and each carrier's first untrusted write since its declassification
    contaminated: set[str] = set()
    last_write: dict[int, int] = {}
    violations: list[RtwViolation] = []
    # chains: each carrier ever written untrusted has a list of its writes
    # that await a witness. An open read is [index, event, None]; settling
    # sets its last item to (action index, action event) when the read
    # qualifies, to False when it dies.
    waiting: dict[int, list[tuple[int, Event]]] = {}
    queued: dict[int, deque[list[Any]]] = {cid: deque() for cid in owners}
    opened: dict[str, list[list[Any]]] = {}
    chains: list[ChainWitness] = []

    def settle(reads: list[list[Any]], outcome: Any) -> None:
        for read in reads:
            read[2] = outcome
        for read in reads:
            cid = read[1].carrier_id
            queue = queued[cid]
            while queue and queue[0][2] is not None:
                j, rev, act = queue.popleft()
                if not act:
                    continue
                a, aev = act
                pending = waiting[cid]
                k = 0
                while k < len(pending) and pending[k][0] < j:
                    w, wev = pending[k]
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
                    k += 1
                del pending[:k]

    i = -1
    for i, ev in enumerate(events):
        kind, agent, cid, decision = ev.kind, ev.agent, ev.carrier_id, ev.decision
        if decision is None:
            if kind in EFFECTFUL_KINDS:
                raise VerificationError(f"event {i}: effectful kind {kind.value} carries no decision")
            live = False
        else:
            if decision.verdict is not allow:
                denied[decision.reason] = denied.get(decision.reason, 0) + 1
            live = decision in effective
        if kind in _CARRIER_KINDS and cid not in owners:
            raise VerificationError(
                f"event {i}: {kind.value} of carrier {cid}, which the header does not declare"
            )
        if kind is inject:
            injects += 1
            continue
        if agent == attacker:
            attacker_acts = True
        if kind is write:
            if not live:
                continue
            if ev.label is not None and ev.label is not clean:
                persistence = persistence or ev.facets.persist
                if owners[cid] == agent and agent not in infections:
                    infections[agent] = ev.tick
                if cid not in last_write:
                    last_write[cid] = i
                waiting.setdefault(cid, []).append((i, ev))
            if cid in risky and agent in opened:
                settle(opened.pop(agent), (i, ev))
        elif kind is exposed_read:
            if not live or ev.label is None or ev.label is clean:
                continue
            re_entry = re_entry or cid in waiting
            w = last_write.get(cid)
            if w is not None and not (attenuation_on and agent in contaminated):
                violations.append(RtwViolation(carrier_id=cid, write_index=w, read_index=i, reader=agent))
            contaminated.add(agent)
            if waiting.get(cid):
                read = [i, ev, None]
                queued[cid].append(read)
                opened.setdefault(agent, []).append(read)
        elif kind is msg_send or kind is high_risk:
            if not live:
                continue
            if kind is high_risk:
                escalation = escalation or ev.action in escalating
            else:
                exfiltration = exfiltration or ev.exfil
            if agent in opened:
                settle(opened.pop(agent), (i, ev))
        elif kind is msg_recv:
            if not propagation and ev.sender != attacker and ev.facets.any:
                propagation = True
        elif kind is promote:
            if live and ev.label is not None and ev.label is not clean and ev.facets.persist:
                persistence = True
        elif kind is declassify:
            if live:
                last_write.pop(cid, None)
                if agent in opened:
                    settle(opened.pop(agent), False)
        elif kind is reset:
            contaminated.discard(agent)
            if agent in opened:
                settle(opened.pop(agent), False)
    for reads in opened.values():
        settle(reads, False)
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
    attenuation layer is on. An effective declassification of the carrier
    clears its pending writes."""
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
