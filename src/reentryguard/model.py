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
* Decisions compare by identity. The 12 DECISIONS objects are the only
  decisions: mediation returns them, parse_trace yields them, and a
  Decision built outside the table either raises or equals none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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
    CANDIDATE_MEMORY = "candidate_memory"
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
_CANDIDATE_MEMORY = CarrierClass.CANDIDATE_MEMORY
_SESSION_START = AutoloadPolicy.SESSION_START
_NEVER = AutoloadPolicy.NEVER
_AUTOLOADED = (_SESSION_START, AutoloadPolicy.HEARTBEAT)


class CarrierScope(str, Enum):
    AGENT_LOCAL = "agent_local"
    SHARED_CROSS_AGENT = "shared_cross_agent"


class Privilege(str, Enum):
    LOW = "low"
    HIGH = "high"


class ActionKind(str, Enum):
    """High-risk action classification. Every variant is high-risk; low-risk
    operations (plain reads, formatting, local computation) never appear here
    and are never mediated as actions."""

    WRITE_AUTOLOADED = "write_autoloaded"
    WRITE_TRUSTED_MEMORY = "write_trusted_memory"
    WRITE_CONFIG = "write_config"
    SEND_MESSAGE = "send_message"
    INVOKE_SHELL = "invoke_shell"
    INVOKE_NETWORK = "invoke_network"
    COMMIT_CROSS_SESSION = "commit_cross_session"


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


@dataclass(frozen=True)
class PayloadFacets:
    """What a payload can still do after zero or more lossy hops.

    persist   : can direct its own write into a persistent carrier
    propagate : can direct transmission toward other agents
    harm      : can direct a high-risk side effect
    verbatim  : survives copying byte-for-byte (first thing paraphrase kills)
    """

    persist: bool = False
    propagate: bool = False
    harm: bool = False
    verbatim: bool = False

    @classmethod
    def none(cls) -> "PayloadFacets":
        return NO_FACETS

    @classmethod
    def full(cls) -> "PayloadFacets":
        return FACET_VALUES["1111"]

    @property
    def any(self) -> bool:
        return self.persist or self.propagate or self.harm or self.verbatim

    def union(self, other: "PayloadFacets") -> "PayloadFacets":
        """The facets of either; an operand itself when it already holds
        the other's."""
        if other.issubset(self):
            return self
        if self.issubset(other):
            return other
        return PayloadFacets(
            self.persist or other.persist,
            self.propagate or other.propagate,
            self.harm or other.harm,
            self.verbatim or other.verbatim,
        )

    def issubset(self, other: "PayloadFacets") -> bool:
        return (
            (not self.persist or other.persist)
            and (not self.propagate or other.propagate)
            and (not self.harm or other.harm)
            and (not self.verbatim or other.verbatim)
        )

    def token(self) -> str:
        """Four-char bit string, order: persist, propagate, harm, verbatim."""
        bits = (self.persist, self.propagate, self.harm, self.verbatim)
        return "".join("1" if b else "0" for b in bits)

    @classmethod
    def from_token(cls, token: str) -> "PayloadFacets":
        """The shared value a token() names."""
        facets = FACET_VALUES.get(token)
        if facets is None:
            raise ValueError(f"bad facet token: {token!r}")
        return facets


# The 16 facet values by token, built once. from_token, none(), full() and
# sim.transform_payload hand these out, and union returns an operand when it
# can, so most facets in a run are shared objects.
FACET_VALUES: dict[str, PayloadFacets] = {
    token: PayloadFacets(*(bit == "1" for bit in token)) for token in (format(i, "04b") for i in range(16))
}
NO_FACETS = FACET_VALUES["0000"]

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


@dataclass(frozen=True, eq=False)
class Decision:
    """A mediation outcome. Decisions compare and hash by identity:
    allow(), deny() and guard() hand out the 12 DECISIONS objects below, so
    two equal outcomes are one object."""

    verdict: Verdict
    reason: Reason

    def __post_init__(self) -> None:
        if not Decision.admits(self.verdict, self.reason):
            raise ValueError(f"a {self.verdict.value} decision cannot give reason {self.reason.value}")

    @staticmethod
    def admits(verdict: Verdict, reason: Reason) -> bool:
        """A decision is allow exactly when its reason belongs to no layer:
        deny and guard must blame a layer, allow must not."""
        return (verdict is Verdict.ALLOW) == (REASON_LAYER[reason] is Layer.NONE)

    @property
    def layer(self) -> Layer:
        return REASON_LAYER[self.reason]

    @staticmethod
    def allow(reason: Reason = Reason.OK) -> "Decision":
        return _shared(Verdict.ALLOW, reason)

    @staticmethod
    def deny(reason: Reason) -> "Decision":
        return _shared(Verdict.DENY, reason)

    @staticmethod
    def guard(reason: Reason) -> "Decision":
        return _shared(Verdict.GUARD, reason)


# Every admitted (verdict, reason) pair, built once: the 12 decisions. Every
# mediation and every parsed trace line shares these objects.
DECISIONS: dict[tuple[Verdict, Reason], Decision] = {
    (v, r): Decision(v, r) for v in Verdict for r in Reason if Decision.admits(v, r)
}


def _shared(verdict: Verdict, reason: Reason) -> Decision:
    decision = DECISIONS.get((verdict, reason))
    # a pair outside the table is not admitted: constructing it raises
    return decision if decision is not None else Decision(verdict, reason)


# guard mode -> the decisions under which a mediated event takes effect: an
# allow always, a guard only under approve-mode guards, which give the
# approval it asks for. The simulator and the auditor both test membership.
EFFECTIVE: dict[GuardMode, frozenset[Decision]] = {
    GuardMode.DENY_ALL: frozenset(d for d in DECISIONS.values() if d.verdict is Verdict.ALLOW),
    GuardMode.APPROVE_ALL: frozenset(d for d in DECISIONS.values() if d.verdict is not Verdict.DENY),
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


@dataclass
class Carrier:
    id: int
    name: str
    cls: CarrierClass
    owner: str | None
    injection: InjectionPosition
    autoload: AutoloadPolicy
    scope: CarrierScope
    label: TaintLabel = TaintLabel.CLEAN
    content: PayloadFacets | None = None

    def __post_init__(self) -> None:
        if self.cls is _STATIC_CONFIG and self.autoload is not _SESSION_START:
            raise CarrierInvariantError(f"carrier {self.id}: static config must autoload at session start")
        if self.cls is _CANDIDATE_MEMORY and self.autoload is not _NEVER:
            raise CarrierInvariantError(f"carrier {self.id}: candidate memory is never autoloaded")

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

