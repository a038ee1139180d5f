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


def check_lease_write(carrier_id: int, tick: int, leases: dict[int, tuple[int, int]]) -> bool:
    """A task-local write is covered iff the carrier's lease window (t0, t1)
    spans the tick, both ends included. leases maps a task carrier id to the
    window the scenario's task_leases gives its owner, which the scenario
    checks (0 <= t0 <= t1). Expiry is automatic: there is no renewal side
    channel here."""
    window = leases.get(carrier_id)
    return window is not None and window[0] <= tick <= window[1]
