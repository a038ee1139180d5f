"""Policy engine: complete mediation through one entry point.

Every effectful event a simulated agent proposes goes through mediate()
before it takes effect. The carrier class fixes where its enforcement cut
sits; the four layers are independently toggleable, and a disabled layer
passes its events through untouched, which is exactly what makes single
layer ablation runs meaningful.

Layer ownership of denial reasons:

    seal        sealed-config         writes to static config
    rtw         rtw-re-entry          exposed reads of untrusted workspace
                                      and shared-log carriers
    memgate     lease-expired         task-local writes outside a lease
                promotion-rejected    gate bypass or failed promotion
    attenuation attenuated-highrisk   high-risk actions from a contaminated
                                      context: tool invocations, sends, and
                                      writes that high_risk_write names

mediate() raising on an event kind it does not know is a feature: an
unmediated effectful kind is an incomplete-mediation bug, and failing loud
beats silently allowing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .memgate import MemoryCandidate, check_lease_write, promote
from .model import (
    Carrier,
    CarrierClass,
    CarrierScope,
    Decision,
    EnforcementConfig,
    Event,
    EventKind,
    GuardMode,
    ReentryGuardError,
)
from .rtw import enforce_exposed_read
from .taint import AgentDecisionState


class MediationError(ReentryGuardError):
    """An effectful event kind reached mediate() without a dispatch rule."""


# ---------------------------------------------------------------------------
# attenuation
# ---------------------------------------------------------------------------

# the shared decisions the rules return, and the enum members they test,
# bound once
_ALLOW = Decision.ALLOW
_DENY_SEALED = Decision.DENY_SEALED
_DENY_LEASE = Decision.DENY_LEASE
_DENY_PROMOTION = Decision.DENY_PROMOTION
_DENY_ATTENUATED = Decision.DENY_ATTENUATED
_GUARD_ATTENUATED = Decision.GUARD_ATTENUATED
_NOT_MEDIATED = Decision.NOT_MEDIATED
_APPROVE_ALL = GuardMode.APPROVE_ALL
_STATIC_CONFIG = CarrierClass.STATIC_CONFIG
_TASK_LOCAL_STATE = CarrierClass.TASK_LOCAL_STATE
_TRUSTED_MEMORY = CarrierClass.TRUSTED_MEMORY
_RTW_CLASSES = (CarrierClass.WORKSPACE_FILE, CarrierClass.SHARED_CHANNEL_LOG)


def high_risk_write(carrier: Carrier) -> bool:
    """Whether a write to the carrier is a high-risk action: one into config,
    trusted memory, an autoloaded carrier or a carrier shared across agents.
    Ordinary output writes stay allowed for usability and are only labeled."""
    return (
        carrier.cls is _STATIC_CONFIG
        or carrier.cls is _TRUSTED_MEMORY
        or carrier.autoloaded
        or carrier.scope is CarrierScope.SHARED_CROSS_AGENT
    )


def attenuated(state: AgentDecisionState, config: EnforcementConfig) -> bool:
    """The attenuation rule: contamination attenuates the context's
    high-risk actions until a context reset."""
    return config.attenuation and state.contaminated


def attenuate(state: AgentDecisionState, config: EnforcementConfig) -> Decision:
    """Post-contamination gate on high-risk actions. With the layer enabled,
    a contaminated context gets deny (or a guard escalation, depending on
    guard mode) for every high-risk action, whatever capabilities its
    deployment grants."""
    if attenuated(state, config):
        if config.guard_mode is _APPROVE_ALL:
            return _GUARD_ATTENUATED
        return _DENY_ATTENUATED
    return _ALLOW


# ---------------------------------------------------------------------------
# mediation
# ---------------------------------------------------------------------------


@dataclass
class MediationContext:
    """Lookups mediate() needs. The simulator owns the mutable state and
    hands in views; mediate only reads."""

    carriers: dict[int, Carrier]
    states: dict[str, AgentDecisionState]
    candidates: dict[str, dict[int, MemoryCandidate]]  # agent -> id -> submitted candidate
    # task carrier id -> its lease window (t0, t1): the scenario's
    # task_leases entry for the carrier's owner, validated there
    leases: dict[int, tuple[int, int]]


def _mediate_write(event: Event, ctx: MediationContext, config: EnforcementConfig) -> Decision:
    carrier = ctx.carriers[event.carrier_id]
    writer = ctx.states[event.agent]

    if carrier.cls is _STATIC_CONFIG and config.seal:
        # sealed runtime constant: write weight zero while the session runs
        return _DENY_SEALED
    if carrier.cls is _TASK_LOCAL_STATE and config.memgate:
        if not check_lease_write(carrier.id, event.tick, ctx.leases):
            return _DENY_LEASE
    if carrier.cls is _TRUSTED_MEMORY and config.memgate:
        # trusted memory only grows through promotion; a direct write is a
        # gate bypass no matter who asks
        return _DENY_PROMOTION

    if high_risk_write(carrier):
        return attenuate(writer, config)
    return _ALLOW


def _mediate_exposed_read(event: Event, ctx: MediationContext, config: EnforcementConfig) -> Decision:
    reader = ctx.states[event.agent]

    if ctx.carriers[event.carrier_id].cls in _RTW_CLASSES and config.rtw:
        # the reader holds a high-risk capability when its deployment grants
        # one and attenuation does not deny its actions (under approve-mode
        # guards an attenuated action is guarded and still takes effect);
        # the simulator labels every exposed read with what the carrier holds
        capable = reader.capable and attenuate(reader, config) is not _DENY_ATTENUATED
        return enforce_exposed_read(event.label, capable)
    # external sources are unavoidable reads: cut sits after the read, on
    # the reader's actions; trusted memory, task state and config are gated
    # when they are written or promoted into
    return _ALLOW


def _mediate_promote(event: Event, ctx: MediationContext, config: EnforcementConfig) -> Decision:
    if not config.memgate:
        return _ALLOW
    if promote(ctx.candidates[event.agent][event.carrier_id]):
        return _ALLOW
    return _DENY_PROMOTION


def _mediate_action(event: Event, ctx: MediationContext, config: EnforcementConfig) -> Decision:
    return attenuate(ctx.states[event.agent], config)


# event kind -> its rule. Each rule is a function of this module and calls
# the layer checks through this module's names, so wrapping one of those
# names (as bench/run.py does to count gate calls) sees every call.
_RULES: dict[EventKind, Callable[[Event, MediationContext, EnforcementConfig], Decision]] = {
    EventKind.WRITE: _mediate_write,
    EventKind.EXPOSED_READ: _mediate_exposed_read,
    # opaque reads move bytes, not meaning: allowed whatever the label, and
    # the simulator surfaces no facets and marks no contamination after one
    EventKind.OPAQUE_READ: lambda event, ctx, config: _NOT_MEDIATED,
    EventKind.PROMOTE: _mediate_promote,
    EventKind.HIGH_RISK: _mediate_action,
    EventKind.MSG_SEND: _mediate_action,
    # declassification is runtime-initiated: mediation lets it through, and
    # the simulator then clears the carrier's label and content
    EventKind.DECLASSIFY: lambda event, ctx, config: _ALLOW,
}


def mediate(event: Event, ctx: MediationContext, config: EnforcementConfig) -> Decision:
    """Single mediation entry point. Dispatch is by event kind through
    _RULES; carrier classes select the layer inside each rule. Raises
    MediationError for kinds outside the table so a missed call site cannot
    slip through as an implicit allow."""
    rule = _RULES.get(event.kind)
    if rule is None:
        raise MediationError(f"event kind {event.kind.value} has no mediation rule")
    return rule(event, ctx, config)
