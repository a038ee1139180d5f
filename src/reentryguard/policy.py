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
    attenuation attenuated-highrisk   high-risk actions (including high-risk
                                      writes) from a contaminated context

mediate() raising on an event kind it does not know is a feature: an
unmediated effectful kind is an incomplete-mediation bug, and failing loud
beats silently allowing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .memgate import Lease, MemoryCandidate, check_lease_write, promote
from .model import (
    ActionKind,
    Carrier,
    CarrierClass,
    CarrierScope,
    Decision,
    EnforcementConfig,
    Event,
    EventKind,
    GuardMode,
    Reason,
    ReentryGuardError,
)
from .rtw import enforce_exposed_read, enforce_opaque_read
from .taint import AgentDecisionState


class MediationError(ReentryGuardError):
    """An effectful event kind reached mediate() without a dispatch rule."""


# ---------------------------------------------------------------------------
# attenuation
# ---------------------------------------------------------------------------

# the shared decisions the rules return, and the enum members they test,
# bound once
_ALLOW = Decision.allow()
_DENY_SEALED = Decision.deny(Reason.SEALED_CONFIG)
_DENY_LEASE = Decision.deny(Reason.LEASE_EXPIRED)
_DENY_PROMOTION = Decision.deny(Reason.PROMOTION_REJECTED)
_DENY_ATTENUATED = Decision.deny(Reason.ATTENUATED_HIGHRISK)
_GUARD_ATTENUATED = Decision.guard(Reason.ATTENUATED_HIGHRISK)
_APPROVE_ALL = GuardMode.APPROVE_ALL
_STATIC_CONFIG = CarrierClass.STATIC_CONFIG
_TASK_LOCAL_STATE = CarrierClass.TASK_LOCAL_STATE
_TRUSTED_MEMORY = CarrierClass.TRUSTED_MEMORY
_RTW_CLASSES = (CarrierClass.WORKSPACE_FILE, CarrierClass.SHARED_CHANNEL_LOG)


def classify_write(carrier: Carrier) -> ActionKind | None:
    """High-risk classification for a write, or None for an ordinary output
    write. Ordinary writes stay allowed for usability and are only labeled."""
    if carrier.cls is _STATIC_CONFIG:
        return ActionKind.WRITE_CONFIG
    if carrier.cls is _TRUSTED_MEMORY:
        return ActionKind.WRITE_TRUSTED_MEMORY
    if carrier.autoloaded:
        return ActionKind.WRITE_AUTOLOADED
    if carrier.scope is CarrierScope.SHARED_CROSS_AGENT:
        return ActionKind.COMMIT_CROSS_SESSION
    return None


def attenuated(state: AgentDecisionState, config: EnforcementConfig) -> bool:
    """The attenuation rule: contamination takes away the context's
    high-risk capabilities until a context reset."""
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
    leases: list[Lease]


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

    if classify_write(carrier) is not None:
        return attenuate(writer, config)
    return _ALLOW


def _mediate_exposed_read(event: Event, ctx: MediationContext, config: EnforcementConfig) -> Decision:
    carrier = ctx.carriers[event.carrier_id]
    reader = ctx.states[event.agent]
    label = event.label if event.label is not None else carrier.label

    if carrier.cls in _RTW_CLASSES and config.rtw:
        # the reader holds a high-risk capability when its deployment grants
        # one and attenuation has not taken it away
        return enforce_exposed_read(label, reader.capable and not attenuated(reader, config))
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
    EventKind.OPAQUE_READ: lambda event, ctx, config: enforce_opaque_read(),
    EventKind.PROMOTE: _mediate_promote,
    EventKind.HIGH_RISK: _mediate_action,
    EventKind.MSG_SEND: _mediate_action,
    # declassification is runtime-initiated: mediation lets it through, and
    # the simulator then clears the carrier
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
