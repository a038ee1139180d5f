"""Memory gate: candidate store, typed promotion, leases, safe rendering.

Long-lived memory is split into a candidate store anything may write and a
trusted store that only the promotion rule can extend. Promotion is a pure
five-way conjunction over schema, source, scope, authority, and ttl; there
is no other path into the trusted store, and rendering projects trusted
entries to (schema, scope, authority, value) tuples. The rendered type has
no facet field at all, so payload capabilities cannot ride a promoted entry
back into a prompt even if every predicate were misconfigured.

Schemas that grant standing instructions or permissions are structurally
non-promotable: a policy listing one of them is rejected at construction,
not at promotion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    CandidateScope,
    CandidateSource,
    PayloadFacets,
    ReentryGuardError,
    SchemaKind,
)

# standing-instruction and permission-granting schemas: never promotable,
# regardless of configuration
FORBIDDEN_SCHEMAS = frozenset(
    {
        SchemaKind.FREE_FORM_INSTRUCTION,
        SchemaKind.TOOL_PERMISSION,
        SchemaKind.POLICY_UPDATE,
        SchemaKind.CROSS_USER_RULE,
        SchemaKind.EXECUTABLE_COMMAND,
        SchemaKind.EXTERNAL_COMM_RULE,
    }
)

DEFAULT_AUTHORITY_MAX = 2
DEFAULT_TTL_MAX = 90


class PolicyConfigError(ReentryGuardError):
    """A promotion policy tried to allow a forbidden schema or used bad bounds."""


@dataclass(frozen=True)
class MemoryCandidate:
    id: int
    schema: SchemaKind
    source: CandidateSource
    scope: CandidateScope
    authority: int
    ttl: int
    value: str = ""
    content: PayloadFacets | None = None  # facet payload riding the candidate, if any

    def __post_init__(self) -> None:
        if self.authority < 0:
            raise ValueError("authority is a small non-negative integer")
        if self.ttl < 0:
            raise ValueError("ttl is a non-negative tick count")


@dataclass(frozen=True)
class PromotionPolicy:
    allowed_schemas: frozenset[SchemaKind]
    allowed_sources: frozenset[CandidateSource]
    allowed_scopes: frozenset[CandidateScope]
    authority_max: int = DEFAULT_AUTHORITY_MAX
    ttl_max: int = DEFAULT_TTL_MAX

    def __post_init__(self) -> None:
        banned = self.allowed_schemas & FORBIDDEN_SCHEMAS
        if banned:
            names = ", ".join(sorted(s.value for s in banned))
            raise PolicyConfigError(f"schemas can never be promotable: {names}")
        if self.authority_max < 0 or self.ttl_max < 0:
            raise PolicyConfigError("authority_max and ttl_max must be non-negative")


def default_policy() -> PromotionPolicy:
    return PromotionPolicy(
        allowed_schemas=frozenset(
            {SchemaKind.TYPED_PREFERENCE, SchemaKind.TYPED_FACT, SchemaKind.TYPED_TASK_NOTE}
        ),
        allowed_sources=frozenset({CandidateSource.USER_DIRECT, CandidateSource.TOOL_OUTPUT}),
        allowed_scopes=frozenset({CandidateScope.SELF_SESSION, CandidateScope.SELF_PERSISTENT}),
        authority_max=DEFAULT_AUTHORITY_MAX,
        ttl_max=DEFAULT_TTL_MAX,
    )


def promotion_checks(candidate: MemoryCandidate, policy: PromotionPolicy) -> dict[str, bool]:
    return {
        "schema": candidate.schema in policy.allowed_schemas,
        "source": candidate.source in policy.allowed_sources,
        "scope": candidate.scope in policy.allowed_scopes,
        "authority": candidate.authority <= policy.authority_max,
        "ttl": candidate.ttl <= policy.ttl_max,
    }


def promote(candidate: MemoryCandidate, policy: PromotionPolicy) -> bool:
    """The promotion biconditional: admitted iff all five predicates hold."""
    return all(promotion_checks(candidate, policy).values())


# ---------------------------------------------------------------------------
# stores and rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenderedEntry:
    """What a trusted entry looks like inside a prompt. Intentionally has no
    facet or free-text field; `value` is an opaque typed payload."""

    schema: SchemaKind
    scope: CandidateScope
    authority: int
    value: str


@dataclass
class PromotedEntry:
    candidate: MemoryCandidate
    promoted_tick: int

    @property
    def expires_tick(self) -> int:
        return self.promoted_tick + self.candidate.ttl


@dataclass
class MemoryStores:
    """Candidate and trusted stores for one agent."""

    candidates: dict[int, MemoryCandidate] = field(default_factory=dict)
    trusted: list[PromotedEntry] = field(default_factory=list)
    _next_id: int = 1

    def submit_candidate(self, candidate: MemoryCandidate) -> int:
        """Unconditional: anything may enter the candidate store."""
        self.candidates[candidate.id] = candidate
        return candidate.id

    def new_candidate_id(self) -> int:
        cid = self._next_id
        self._next_id += 1
        return cid

    def admit(self, candidate_id: int, tick: int) -> PromotedEntry:
        """Move a candidate into the trusted store. The caller is the policy
        engine, after (and only after) the promote predicate allowed it, or
        with the gate disabled entirely."""
        candidate = self.candidates.pop(candidate_id)
        entry = PromotedEntry(candidate=candidate, promoted_tick=tick)
        self.trusted.append(entry)
        return entry

    def render_projection(self, tick: int) -> list[RenderedEntry]:
        """Gated render: typed tuples only, expired entries evicted first."""
        # ttl is enforced lazily: expired entries fall out the next time the
        # store is rendered, not on a timer
        self.trusted = [e for e in self.trusted if e.expires_tick >= tick]
        return [
            RenderedEntry(
                schema=e.candidate.schema,
                scope=e.candidate.scope,
                authority=e.candidate.authority,
                value=e.candidate.value,
            )
            for e in self.trusted
        ]

    def raw_render(self) -> list[MemoryCandidate]:
        """Ungated render used when the gate layer is disabled: full entries,
        facets included, no ttl discipline. This is the vulnerable baseline
        behavior, kept only so the difference is measurable."""
        return [e.candidate for e in self.trusted]


# ---------------------------------------------------------------------------
# leases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lease:
    """Bounded write grant for one task-local carrier over [t0, t1]."""

    carrier_id: int
    t0: int
    t1: int

    def __post_init__(self) -> None:
        if self.t0 < 0 or self.t1 < self.t0:
            raise ValueError(f"lease interval [{self.t0}, {self.t1}] is invalid")

    def active(self, tick: int) -> bool:
        return self.t0 <= tick <= self.t1


def check_lease_write(carrier_id: int, tick: int, leases: list[Lease]) -> bool:
    """A task-local write is covered iff some lease for that carrier spans
    the tick. Expiry is automatic: there is no renewal side channel here."""
    return any(l.carrier_id == carrier_id and l.active(tick) for l in leases)
