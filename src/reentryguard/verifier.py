"""Independent trace auditor.

Everything here is reconstructed from the serialized trace text: agent
contamination, carrier ownership, guard mode, enforcement flags. No simulator
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
do not yet agree.) A trace is safe when no such chain completes. chains_in
finds one minimal witness per offending write, the earliest qualifying read
that has a qualifying action and the earliest such action, in one backward
scan over the events with one pending action per agent and one pending read
per carrier.

The entry points are build_report, which parses a trace and runs every pass,
and find_chains, which returns the chain witnesses alone.

"Effective" means the decision column says allow, or says guard while the
header says approve-mode guards. Denied events never count: a blocked write
taints nothing, a blocked action harms nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .model import (
    EFFECTFUL_KINDS,
    ActionKind,
    CarrierClass,
    CarrierScope,
    Event,
    EventKind,
    ReentryGuardError,
    Verdict,
)
from .tracelog import TraceMeta, missing_tags, parse_trace

APPROVE = "approve"


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
    scenario: str
    guard: str
    flags: dict[str, bool]
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
    if ev.decision is None:
        return False
    verdict = ev.decision.verdict
    return verdict is Verdict.ALLOW or (verdict is Verdict.GUARD and meta.guard == APPROVE)


def _untrusted(ev: Event) -> bool:
    return ev.label is not None and ev.label.untrusted


def _high_risk_carriers(meta: TraceMeta) -> frozenset[int]:
    """Carriers a write to which is a high-risk action: those that feed future
    contexts or cross agents; ordinary on-demand local files are below the
    bar."""
    return frozenset(
        c.id
        for c in meta.carriers
        if c.cls in (CarrierClass.STATIC_CONFIG, CarrierClass.TRUSTED_MEMORY)
        or c.autoloaded
        or c.scope is CarrierScope.SHARED_CROSS_AGENT
    )


def is_high_risk_action(ev: Event, risky: frozenset[int]) -> bool:
    if ev.kind is EventKind.HIGH_RISK or ev.kind is EventKind.MSG_SEND:
        return True
    return ev.kind is EventKind.WRITE and ev.carrier_id in risky


# kinds whose carrier_id column names a carrier; promote's holds a candidate id
_CARRIER_KINDS = frozenset(
    {EventKind.WRITE, EventKind.EXPOSED_READ, EventKind.OPAQUE_READ, EventKind.DECLASSIFY}
)


def _validate(events: list[Event], meta: TraceMeta) -> None:
    """Refuse what no pass may skip over: a header that lacks a single tag
    (a header-less fragment parses, but the passes read the guard mode,
    flags and attacker, and the report the rest), an effectful event
    without a decision, and an event on a carrier the header does not
    declare (its owner and class, which hops and high-risk writes are judged
    by, would be unknown)."""
    missing = missing_tags(meta)
    if missing:
        raise VerificationError(f"the header has no {', '.join('# ' + tag for tag in missing)} line")
    declared = {c.id for c in meta.carriers}
    for i, ev in enumerate(events):
        if ev.kind in EFFECTFUL_KINDS and ev.decision is None:
            raise VerificationError(
                f"event {i}: effectful kind {ev.kind.value} carries no decision"
            )
        if ev.kind in _CARRIER_KINDS and ev.carrier_id not in declared:
            raise VerificationError(
                f"event {i}: {ev.kind.value} of carrier {ev.carrier_id}, which the header does not declare"
            )


# ---------------------------------------------------------------------------
# chain detection
# ---------------------------------------------------------------------------


def chains_in(events: list[Event], meta: TraceMeta) -> list[ChainWitness]:
    """One minimal witness per offending write, found in one backward scan.

    next_action[agent] holds the agent's next effective high-risk action, or
    None when a reset or effective declassification of the agent comes
    first. first_read[carrier] holds the earliest later effective untrusted
    read of the carrier whose reader has a next action, with that action. An
    effective untrusted write takes its carrier's first_read as its witness."""
    risky = _high_risk_carriers(meta)
    next_action: dict[str, int | None] = {}
    first_read: dict[int, tuple[int, int]] = {}
    found: list[tuple[int, int, int]] = []
    for i in range(len(events) - 1, -1, -1):
        ev = events[i]
        if ev.kind is EventKind.CONTEXT_RESET:
            next_action[ev.agent] = None
        elif not is_effective(ev, meta):
            continue
        elif ev.kind is EventKind.DECLASSIFY:
            next_action[ev.agent] = None
        elif ev.kind is EventKind.EXPOSED_READ:
            action = next_action.get(ev.agent)
            if action is not None and ev.carrier_id is not None and _untrusted(ev):
                first_read[ev.carrier_id] = (i, action)
        else:
            if ev.kind is EventKind.WRITE and ev.carrier_id in first_read and _untrusted(ev):
                found.append((i, *first_read[ev.carrier_id]))
            if is_high_risk_action(ev, risky):
                next_action[ev.agent] = i
    witnesses: list[ChainWitness] = []
    for i, j, a in reversed(found):
        write, read, act = events[i], events[j], events[a]
        witnesses.append(
            ChainWitness(
                carrier_id=write.carrier_id,
                writer=write.agent,
                write_index=i,
                write_tick=write.tick,
                reader=read.agent,
                read_index=j,
                read_tick=read.tick,
                action_index=a,
                action_tick=act.tick,
                action=act.action.value if act.action else act.kind.value,
            )
        )
    return witnesses


# ---------------------------------------------------------------------------
# infection accounting
# ---------------------------------------------------------------------------


def infections_in(events: list[Event], meta: TraceMeta) -> tuple[list[str], list[int]]:
    """Agents that performed an effective untrusted write into a carrier they
    own, in first-infection order, with the tick of each first write."""
    owners = {c.id: c.owner for c in meta.carriers}
    infected: list[str] = []
    ticks: list[int] = []
    seen: set[str] = set()
    for ev in events:
        if ev.kind is not EventKind.WRITE or ev.carrier_id is None:
            continue
        if not (is_effective(ev, meta) and _untrusted(ev)):
            continue
        if owners.get(ev.carrier_id) != ev.agent or ev.agent in seen:
            continue
        seen.add(ev.agent)
        infected.append(ev.agent)
        ticks.append(ev.tick)
    return infected, ticks


def zero_click_in(events: list[Event], meta: TraceMeta) -> bool:
    """One injection did all the work: exactly one inject line and no other
    attacker-attributed activity anywhere in the trace. Zero injections is
    a vacuous run and flagged false, not passed."""
    injects = 0
    for ev in events:
        if ev.kind is EventKind.INJECT:
            injects += 1
        elif ev.agent == meta.attacker:
            return False
    return injects == 1


# ---------------------------------------------------------------------------
# projection audit
# ---------------------------------------------------------------------------


def rtw_violations_in(events: list[Event], meta: TraceMeta) -> list[RtwViolation]:
    """Per-carrier check of the forbidden write-then-exposure shape: an
    effective untrusted write later exposure-read, effectively, by a reader
    still holding high capability at read time. Readers attenuated by
    contamination (when the attenuation layer is on) are not high-capability:
    exposure in a context that cannot act is outside the pattern. An
    effective declassification of the carrier clears its pending writes."""
    attenuation_on = bool(meta.flags.get("attenuation"))
    # agents with an effective untrusted exposed read since their last reset
    contaminated: set[str] = set()
    last_write: dict[int, int] = {}
    violations: list[RtwViolation] = []
    for i, ev in enumerate(events):
        if ev.kind is EventKind.CONTEXT_RESET:
            contaminated.discard(ev.agent)
        elif ev.carrier_id is None or not is_effective(ev, meta):
            continue
        elif ev.kind is EventKind.WRITE and _untrusted(ev):
            last_write.setdefault(ev.carrier_id, i)
        elif ev.kind is EventKind.DECLASSIFY:
            last_write.pop(ev.carrier_id, None)
        elif ev.kind is EventKind.EXPOSED_READ and _untrusted(ev):
            w = last_write.get(ev.carrier_id)
            if w is not None and not (attenuation_on and ev.agent in contaminated):
                violations.append(
                    RtwViolation(carrier_id=ev.carrier_id, write_index=w, read_index=i, reader=ev.agent)
                )
            contaminated.add(ev.agent)
    return violations


# ---------------------------------------------------------------------------
# outcome booleans
# ---------------------------------------------------------------------------


def _outcomes(events: list[Event], meta: TraceMeta) -> dict[str, bool]:
    persistence = False
    re_entry = False
    propagation = False
    escalation = False
    exfiltration = False
    written: set[int] = set()
    for ev in events:
        if ev.kind is EventKind.MSG_RECV and ev.sender != meta.attacker and ev.facets.any:
            propagation = True
        if not is_effective(ev, meta):
            continue
        if ev.kind in (EventKind.WRITE, EventKind.PROMOTE) and _untrusted(ev) and ev.facets.persist:
            persistence = True
        if ev.kind is EventKind.WRITE and _untrusted(ev) and ev.carrier_id is not None:
            written.add(ev.carrier_id)
        if ev.kind is EventKind.EXPOSED_READ and _untrusted(ev) and ev.carrier_id in written:
            re_entry = True
        if ev.kind is EventKind.HIGH_RISK and ev.action in (
            ActionKind.INVOKE_SHELL,
            ActionKind.INVOKE_NETWORK,
        ):
            escalation = True
        if ev.kind is EventKind.MSG_SEND and ev.exfil:
            exfiltration = True
    return {
        "persistence": persistence,
        "re_entry": re_entry,
        "propagation": propagation,
        "privilege_escalation": escalation,
        "exfiltration": exfiltration,
    }


def _interventions(events: list[Event]) -> tuple[dict[str, int], dict[str, int]]:
    by_reason: Counter[str] = Counter()
    by_layer: Counter[str] = Counter()
    for ev in events:
        if ev.decision is not None and ev.decision.verdict is not Verdict.ALLOW:
            by_reason[ev.decision.reason.value] += 1
            by_layer[ev.decision.layer.value] += 1
    return dict(by_reason), dict(by_layer)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def build_report(text: str) -> Report:
    meta, events = parse_trace(text)
    _validate(events, meta)
    chains = chains_in(events, meta)
    infected, ticks = infections_in(events, meta)
    outcome = _outcomes(events, meta)
    reasons, layers = _interventions(events)
    return Report(
        scenario=meta.scenario,
        guard=meta.guard,
        flags=dict(meta.flags),
        event_count=len(events),
        safe=not chains,
        chains=chains,
        hops=len(infected),
        infected=infected,
        infection_ticks=ticks,
        zero_click=zero_click_in(events, meta),
        rtw_violations=rtw_violations_in(events, meta),
        intervention_reasons=reasons,
        layer_denials=layers,
        meta=meta,
        **outcome,
    )


def find_chains(trace: str) -> list[ChainWitness]:
    """Every completed write-read-act chain in a serialized trace, one
    minimal witness per offending write. Empty certifies the run."""
    meta, events = parse_trace(trace)
    _validate(events, meta)
    return chains_in(events, meta)
