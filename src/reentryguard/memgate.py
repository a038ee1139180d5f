"""Memory gate: typed promotion and task-state leases.

Long-lived memory only grows through the promotion rule. Promotion is a pure
five-way conjunction over schema, source, scope, authority, and ttl, checked
against one fixed table; there is no other path into trusted memory.

Schemas that grant standing instructions or permissions are never
promotable: the table lists none of them, and a test keeps it so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import CandidateScope, CandidateSource, SchemaKind

# standing-instruction and permission-granting schemas: never promotable
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

# the promotion table
ALLOWED_SCHEMAS = frozenset({SchemaKind.TYPED_PREFERENCE, SchemaKind.TYPED_FACT, SchemaKind.TYPED_TASK_NOTE})
ALLOWED_SOURCES = frozenset({CandidateSource.USER_DIRECT, CandidateSource.TOOL_OUTPUT})
ALLOWED_SCOPES = frozenset({CandidateScope.SELF_SESSION, CandidateScope.SELF_PERSISTENT})
AUTHORITY_MAX = 2
TTL_MAX = 90


@dataclass(frozen=True)
class MemoryCandidate:
    id: int
    schema: SchemaKind
    source: CandidateSource
    scope: CandidateScope
    authority: int
    ttl: int

    def __post_init__(self) -> None:
        if self.authority < 0:
            raise ValueError("authority is a small non-negative integer")
        if self.ttl < 0:
            raise ValueError("ttl is a non-negative tick count")


def promotion_checks(candidate: MemoryCandidate) -> dict[str, bool]:
    return {
        "schema": candidate.schema in ALLOWED_SCHEMAS,
        "source": candidate.source in ALLOWED_SOURCES,
        "scope": candidate.scope in ALLOWED_SCOPES,
        "authority": candidate.authority <= AUTHORITY_MAX,
        "ttl": candidate.ttl <= TTL_MAX,
    }


def promote(candidate: MemoryCandidate) -> bool:
    """The promotion biconditional: admitted iff all five predicates hold."""
    return all(promotion_checks(candidate).values())


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
