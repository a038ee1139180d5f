"""Core vocabulary: labels, carriers, payload facets, events, decisions, enforcement.

Invariants that the rest of the package leans on:

* Labels attach to carrier ids, never to names or paths. Renaming a carrier
  must not change its trust state, so nothing in this module keys on `name`.
* Trust only decreases through ordinary operation. The only transitions back
  to CLEAN are explicit declassification or context reset, both of which are
  external to the writing/reading agent (see taint module).
* Event ticks are non-decreasing within a trace. Verification depends on
  trace order: the simulator emits ticks in order, and parse_trace refuses
  a regression instead of sorting.
* Decision is an Enum of the monitor's 8 outcomes. Lookup by value
  (Decision((verdict, reason))), copy and pickle return the member, and any
  other (verdict, reason) pair raises. So a decision takes effect exactly
  when it is a member of an EFFECTIVE set, however the event holding it
  was made.
* Facets compare by identity too. The 16 FACET_VALUES objects are the only
  facets: constructing a PayloadFacets by any path returns one of them.
* Header records are values. A Carrier holds what the trace header declares
  (class, autoload, position, scope and label0, its label at session start)
  and is frozen, like the tracelog's AgentMeta. What a run changes per
  carrier, its label and content, is the simulator's own state, so the
  simulator, the header and the parser can share one record.
* Parsed events are values too. The parser yields FrozenEvent, a read-only
  Event, one object per distinct trace line for the whole process while
  its bounded memo has room. An Event equals any other Event, plain or
  frozen, with the same fields. The simulator's own events stay mutable,
  since it sets their decision, but for a kept message turn's: replays
  share those, and run_scenario freezes them once the trace is rendered.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import Any


ATTACKER = "attacker"


class ReentryGuardError(Exception):
    """Base class for errors raised by this package."""


class CarrierInvariantError(ReentryGuardError):
    """A carrier was constructed with an inconsistent class/autoload combo."""


# ---------------------------------------------------------------------------
# labels and carrier classification
# ---------------------------------------------------------------------------


class TaintLabel(str, Enum):
    CLEAN = "clean"
    EXTERNAL = "external"
    TAINTED = "tainted"
    TAINTED_DERIVED = "tainted_derived"

    @property
    def untrusted(self) -> bool:
        return self is not _CLEAN


# enum members read on every event or carrier, bound once: a module name
# costs a tenth of a class attribute lookup
_CLEAN = TaintLabel.CLEAN


class CarrierClass(str, Enum):
    STATIC_CONFIG = "static_config"
    TASK_LOCAL_STATE = "task_local_state"
    TRUSTED_MEMORY = "trusted_memory"
    WORKSPACE_FILE = "workspace_file"
    SHARED_CHANNEL_LOG = "shared_channel_log"
    EXTERNAL_SOURCE = "external_source"


class InjectionPosition(str, Enum):
    SYSTEM_PROMPT = "system_prompt"
    USER_PROMPT = "user_prompt"


class AutoloadPolicy(str, Enum):
    SESSION_START = "session_start"
    HEARTBEAT = "heartbeat"
    ON_DEMAND = "on_demand"
    NEVER = "never"


_STATIC_CONFIG = CarrierClass.STATIC_CONFIG
_SESSION_START = AutoloadPolicy.SESSION_START
_AUTOLOADED = (_SESSION_START, AutoloadPolicy.HEARTBEAT)


class CarrierScope(str, Enum):
    AGENT_LOCAL = "agent_local"
    SHARED_CROSS_AGENT = "shared_cross_agent"


class Privilege(str, Enum):
    LOW = "low"
    HIGH = "high"


class ActionKind(str, Enum):
    """The tool a high_risk event invokes: only the shell. Writes and sends
    are high-risk too, but they are events of their own kinds."""

    INVOKE_SHELL = "invoke_shell"


class DeclassProcedure(str, Enum):
    DETERMINISTIC_VALIDATION = "deterministic_validation"


# memory gate vocabulary lives here because promote attempts are events and
# the event record carries the candidate schema


class SchemaKind(str, Enum):
    TYPED_PREFERENCE = "typed_preference"
    TYPED_FACT = "typed_fact"
    TYPED_TASK_NOTE = "typed_task_note"
    FREE_FORM_INSTRUCTION = "free_form_instruction"
    TOOL_PERMISSION = "tool_permission"
    POLICY_UPDATE = "policy_update"
    CROSS_USER_RULE = "cross_user_rule"
    EXECUTABLE_COMMAND = "executable_command"
    EXTERNAL_COMM_RULE = "external_comm_rule"


class CandidateSource(str, Enum):
    USER_DIRECT = "user_direct"
    AGENT_SUMMARY = "agent_summary"
    TOOL_OUTPUT = "tool_output"
    EXTERNAL_CONTENT = "external_content"


class CandidateScope(str, Enum):
    SELF_SESSION = "self_session"
    SELF_PERSISTENT = "self_persistent"
    CROSS_AGENT = "cross_agent"


# ---------------------------------------------------------------------------
# payload facets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class PayloadFacets:
    """What a payload can still do after zero or more lossy hops.

    persist   : can direct its own write into a persistent carrier
    propagate : can direct transmission toward other agents
    harm      : can direct a high-risk side effect
    verbatim  : survives copying byte-for-byte (first thing paraphrase kills)

    Facets compare and hash by identity, like Decision: every construction
    (a call, dataclasses.replace, union) returns one of the 16 FACET_VALUES
    objects, so two equal facets are one object. A flag is read by its
    truth value. A value is named by its token, FACET_VALUES[token]
    (NO_FACETS for "0000"); nothing else decodes a token.
    """

    persist: bool = False
    propagate: bool = False
    harm: bool = False
    verbatim: bool = False

    def __new__(
        cls, persist: bool = False, propagate: bool = False, harm: bool = False, verbatim: bool = False
    ) -> "PayloadFacets":
        # no __init__: a shared value's fields are never written again
        return _BY_BITS[8 * bool(persist) + 4 * bool(propagate) + 2 * bool(harm) + bool(verbatim)]

    def __reduce__(self) -> tuple[type, tuple[bool, ...]]:  # copy and pickle construct, so share too
        return PayloadFacets, (self.persist, self.propagate, self.harm, self.verbatim)

    @property
    def any(self) -> bool:
        return self is not NO_FACETS

    def union(self, other: "PayloadFacets") -> "PayloadFacets":
        """The facets of either: an operand itself when it already holds
        the other's."""
        return _UNIONS[self][other]

    def token(self) -> str:
        """Four-char bit string, order: persist, propagate, harm, verbatim."""
        bits = (self.persist, self.propagate, self.harm, self.verbatim)
        return "".join("1" if b else "0" for b in bits)


def _interned(cls: type, *values: object) -> Any:
    """A cls object holding values in field order, built without calling
    cls: its constructor hands out the shared values, so cannot make them."""
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(obj, f.name, value)
    return obj


# The 16 facet values by token, built once and in bit order: the only
# PayloadFacets objects there are.
FACET_VALUES: dict[str, PayloadFacets] = {
    token: _interned(PayloadFacets, *(bit == "1" for bit in token))
    for token in (format(i, "04b") for i in range(16))
}
_BY_BITS = tuple(FACET_VALUES.values())
NO_FACETS = FACET_VALUES["0000"]
# facets -> facets -> the facets of either: the value whose bits are the or
_UNIONS = {a: {b: _BY_BITS[i | j] for j, b in enumerate(_BY_BITS)} for i, a in enumerate(_BY_BITS)}

# per-hop transformation drops facets cheapest-to-lose first: paraphrase kills
# byte fidelity before intent, and persistence directives survive the longest
FACET_DROP_ORDER = ("verbatim", "harm", "propagate", "persist")
PERSIST_DROP_STRENGTH = len(FACET_DROP_ORDER)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    ALLOW = "allow"
    DENY = "deny"
    GUARD = "guard"


class Reason(str, Enum):
    OK = "ok"
    SEALED_CONFIG = "sealed-config"
    RTW_RE_ENTRY = "rtw-re-entry"
    LEASE_EXPIRED = "lease-expired"
    PROMOTION_REJECTED = "promotion-rejected"
    ATTENUATED_HIGHRISK = "attenuated-highrisk"
    NOT_MEDIATED_LOWRISK = "not-mediated-lowrisk"


# the enforcement layers in record order, then the layer an allow blames
class Layer(str, Enum):
    RTW = "rtw"
    SEAL = "seal"
    MEMGATE = "memgate"
    ATTENUATION = "attenuation"
    NONE = "none"


# each deny/guard reason is owned by exactly one layer; Decision.layer is
# derived from the reason, so the trace line does not need a layer column
REASON_LAYER: dict[Reason, Layer] = {
    Reason.OK: Layer.NONE,
    Reason.SEALED_CONFIG: Layer.SEAL,
    Reason.RTW_RE_ENTRY: Layer.RTW,
    Reason.LEASE_EXPIRED: Layer.MEMGATE,
    Reason.PROMOTION_REJECTED: Layer.MEMGATE,
    Reason.ATTENUATED_HIGHRISK: Layer.ATTENUATION,
    Reason.NOT_MEDIATED_LOWRISK: Layer.NONE,
}


class GuardMode(str, Enum):
    DENY_ALL = "deny"
    APPROVE_ALL = "approve"


class Decision(Enum):
    """A mediation outcome: one of the 8 the monitor makes, each valued
    (verdict, reason). Allow goes with the reasons no layer owns, deny with
    each layer's reason, and guard only with attenuated-highrisk."""

    ALLOW = (Verdict.ALLOW, Reason.OK)
    NOT_MEDIATED = (Verdict.ALLOW, Reason.NOT_MEDIATED_LOWRISK)
    DENY_SEALED = (Verdict.DENY, Reason.SEALED_CONFIG)
    DENY_RE_ENTRY = (Verdict.DENY, Reason.RTW_RE_ENTRY)
    DENY_LEASE = (Verdict.DENY, Reason.LEASE_EXPIRED)
    DENY_PROMOTION = (Verdict.DENY, Reason.PROMOTION_REJECTED)
    DENY_ATTENUATED = (Verdict.DENY, Reason.ATTENUATED_HIGHRISK)
    GUARD_ATTENUATED = (Verdict.GUARD, Reason.ATTENUATED_HIGHRISK)

    # every mediated event hashes its decision (the effective-set test, the
    # audit, the render memo key), and Enum's own hash is a Python call
    __hash__ = object.__hash__

    def __init__(self, verdict: Verdict, reason: Reason) -> None:
        self.verdict = verdict
        self.reason = reason
        self.layer = REASON_LAYER[reason]


# guard mode -> the decisions under which a mediated event takes effect: an
# allow always, a guard only under approve-mode guards, which give the
# approval it asks for. The simulator and the auditor both test membership.
EFFECTIVE: dict[GuardMode, frozenset[Decision]] = {
    GuardMode.DENY_ALL: frozenset(d for d in Decision if d.verdict is Verdict.ALLOW),
    GuardMode.APPROVE_ALL: frozenset(d for d in Decision if d.verdict is not Verdict.DENY),
}


# ---------------------------------------------------------------------------
# enforcement
# ---------------------------------------------------------------------------

# the four enforcement layers, in record order
LAYER_NAMES = tuple(layer.value for layer in Layer if layer is not Layer.NONE)


@dataclass(frozen=True)
class EnforcementConfig:
    """A run's enforcement: which layers are on, and how a guard verdict is
    disposed of. The scenario, the trace header and the record all hold it."""

    rtw: bool = False
    seal: bool = False
    memgate: bool = False
    attenuation: bool = False
    guard_mode: GuardMode = GuardMode.DENY_ALL

    @classmethod
    def all_enabled(cls, guard_mode: GuardMode = GuardMode.DENY_ALL) -> "EnforcementConfig":
        return cls(rtw=True, seal=True, memgate=True, attenuation=True, guard_mode=guard_mode)

    @classmethod
    def none(cls) -> "EnforcementConfig":
        return cls()

    @classmethod
    def from_names(cls, spec: str, guard_mode: GuardMode = GuardMode.DENY_ALL) -> "EnforcementConfig":
        """Parse a comma list of layer names; 'all' and 'none' are shorthands."""
        spec = spec.strip().lower()
        if spec == "all":
            return cls.all_enabled(guard_mode)
        names = [] if spec in ("none", "") else [name.strip() for name in spec.split(",")]
        for name in names:
            if name not in LAYER_NAMES:
                raise ValueError(f"unknown enforcement layer {name!r}; valid: {', '.join(LAYER_NAMES)}, all, none")
        return cls(guard_mode=guard_mode, **dict.fromkeys(names, True))

    def names(self) -> str:
        """The spec from_names reads back as these layers: all, none, or the
        enabled layers comma-joined in LAYER_NAMES order."""
        on = [name for name in LAYER_NAMES if getattr(self, name)]
        return "all" if len(on) == len(LAYER_NAMES) else ",".join(on) or "none"


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Carrier:
    id: int
    name: str
    cls: CarrierClass
    owner: str | None
    injection: InjectionPosition
    autoload: AutoloadPolicy
    scope: CarrierScope
    label0: TaintLabel = TaintLabel.CLEAN

    def __post_init__(self) -> None:
        if self.cls is _STATIC_CONFIG and self.autoload is not _SESSION_START:
            raise CarrierInvariantError(f"carrier {self.id}: static config must autoload at session start")

    @property
    def autoloaded(self) -> bool:
        return self.autoload in _AUTOLOADED


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


class EventKind(str, Enum):
    WRITE = "write"
    EXPOSED_READ = "exposed_read"
    OPAQUE_READ = "opaque_read"
    HIGH_RISK = "high_risk"
    MSG_SEND = "msg_send"
    MSG_RECV = "msg_recv"
    PROMOTE = "promote"
    DECLASSIFY = "declassify"
    CONTEXT_RESET = "context_reset"
    HEARTBEAT = "heartbeat"
    INJECT = "inject"


# kinds that mutate shared state and therefore must carry a mediation decision
EFFECTFUL_KINDS = frozenset(
    {
        EventKind.WRITE,
        EventKind.EXPOSED_READ,
        EventKind.OPAQUE_READ,
        EventKind.HIGH_RISK,
        EventKind.MSG_SEND,
        EventKind.PROMOTE,
        EventKind.DECLASSIFY,
    }
)


@dataclass(slots=True)
class Event:
    tick: int
    agent: str
    kind: EventKind
    carrier_id: int | None = None
    label: TaintLabel | None = None
    facets: PayloadFacets | None = None
    channel: str | None = None
    action: ActionKind | None = None
    schema: SchemaKind | None = None
    procedure: DeclassProcedure | None = None
    sender: str | None = None
    exfil: bool = False
    decision: Decision | None = None

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError("event tick must be non-negative")

    def __eq__(self, other: object) -> bool:
        # field for field across both classes, so a parsed event equals the
        # simulator's; an event stays unhashable
        if isinstance(other, Event):
            return _event_values(self) == _event_values(other)
        return NotImplemented


_event_values = attrgetter(*(f.name for f in fields(Event)))


class FrozenEvent(Event):
    """A read-only event, as the parser yields: one object per distinct
    trace line, shared by every parse that meets the line. Assignment and
    deletion raise; a call, copy, pickle and dataclasses.replace each build
    a new FrozenEvent. The simulator's events stay plain, since it sets
    ``event.decision`` after mediation, but for a kept message turn's, which
    its replays share and run_scenario freezes once it has rendered them."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "FrozenEvent":
        event = Event(*args, **kwargs)
        event.__class__ = cls
        return event

    def __init__(self, *args: Any, **kwargs: Any) -> None:  # __new__ set the fields
        pass

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return FrozenEvent, _event_values(self)
