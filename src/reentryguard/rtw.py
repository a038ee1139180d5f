"""RTW monitor: per-carrier reads-then-writes discipline.

A carrier's life is safe when every exposed read precedes every write, i.e.
its projection over the alphabet {R, W} matches R* W*. The moment a write
precedes an exposed read, content an agent produced earlier can re-enter a
decision context later, which is the re-entry step every persistence-based
worm needs. The scan is a single left-to-right pass: once any write is seen,
any subsequent exposed read is a violation.

Enforcement keys on the carrier's label at read time rather than on a trace
lookback: an untrusted label is exactly the evidence that a tainting write
(or untrusted provenance) precedes this read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Decision, Reason, TaintLabel

WRITE_SYM = "W"
READ_SYM = "R"

# the shared decisions the read rules return
_ALLOW = Decision.allow()
_DENY_RE_ENTRY = Decision.deny(Reason.RTW_RE_ENTRY)
_NOT_MEDIATED = Decision.allow(Reason.NOT_MEDIATED_LOWRISK)


@dataclass(frozen=True)
class RtwVerdict:
    safe: bool
    first_violation: tuple[int, int] | None = None  # (write index, read index)


def is_rtw_safe(word: Iterable[str]) -> RtwVerdict:
    """O(n) scan of a {W, R} word for a write-before-read pair."""
    first_write: int | None = None
    for idx, sym in enumerate(word):
        if sym == WRITE_SYM:
            if first_write is None:
                first_write = idx
        elif sym == READ_SYM:
            if first_write is not None:
                return RtwVerdict(safe=False, first_violation=(first_write, idx))
        else:
            raise ValueError(f"alphabet is {{W, R}}, got {sym!r} at index {idx}")
    return RtwVerdict(safe=True)


def enforce_exposed_read(carrier_label: TaintLabel, high_cap: bool) -> Decision:
    """Dynamic re-entry rule for one exposed read.

    Deny when the carrier is untrusted and the reading context still holds
    any high-risk capability. A fully attenuated context may read tainted
    content: it cannot act on it, and the contamination marking downstream
    keeps it that way.
    """
    if carrier_label.untrusted and high_cap:
        return _DENY_RE_ENTRY
    return _ALLOW


def enforce_opaque_read() -> Decision:
    """Opaque reads move bytes, not meaning: always allowed, any label.
    The caller must not surface facets or mark contamination afterwards."""
    return _NOT_MEDIATED
