"""RTW monitor: static word predicate and dynamic read rule."""

from itertools import product

import pytest

from reentryguard.model import (
    EventKind,
    Reason,
    TaintLabel,
    Verdict,
)
from reentryguard.rtw import (
    READ_SYM,
    WRITE_SYM,
    enforce_exposed_read,
    is_rtw_safe,
)


def brute_force_safe(word: str) -> tuple[bool, tuple[int, int] | None]:
    """Quadratic reference scan: any W strictly before any R is a violation.
    Reports the pair with the earliest read, then the earliest write."""
    best = None
    for j, sym_j in enumerate(word):
        if sym_j != READ_SYM:
            continue
        for i in range(j):
            if word[i] == WRITE_SYM:
                best = (i, j)
                break
        if best is not None:
            break
    return best is None, best


class TestIsRtwSafe:
    def test_empty_word_safe(self):
        assert is_rtw_safe("").safe

    def test_reads_then_writes_safe(self):
        verdict = is_rtw_safe("RRWW")
        assert verdict.safe
        assert verdict.first_violation is None

    def test_minimal_violation(self):
        verdict = is_rtw_safe("WR")
        assert not verdict.safe
        assert verdict.first_violation == (0, 1)

    def test_witness_is_first_write_then_first_offending_read(self):
        verdict = is_rtw_safe("RWWR")
        assert verdict.first_violation == (1, 3)

    def test_foreign_symbol_rejected(self):
        with pytest.raises(ValueError):
            is_rtw_safe("RXW")

    def test_exhaustive_words_up_to_length_12(self):
        """Every binary word of length <= 12 against the quadratic oracle."""
        for n in range(13):
            for bits in product("RW", repeat=n):
                word = "".join(bits)
                verdict = is_rtw_safe(word)
                safe, witness = brute_force_safe(word)
                assert verdict.safe == safe, word
                assert verdict.first_violation == witness, word


class TestEnforceExposedRead:
    def test_tainted_high_cap_denied(self):
        decision = enforce_exposed_read(TaintLabel.TAINTED, high_cap=True)
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.RTW_RE_ENTRY

    def test_clean_high_cap_allowed(self):
        assert enforce_exposed_read(TaintLabel.CLEAN, high_cap=True).verdict is Verdict.ALLOW

    def test_tainted_attenuated_allowed(self):
        # a context that cannot act may read; contamination marking downstream
        # keeps it harmless
        assert enforce_exposed_read(TaintLabel.TAINTED, high_cap=False).verdict is Verdict.ALLOW

    def test_every_untrusted_label_triggers(self):
        for label in (TaintLabel.EXTERNAL, TaintLabel.TAINTED, TaintLabel.TAINTED_DERIVED):
            assert enforce_exposed_read(label, high_cap=True).verdict is Verdict.DENY


class TestEnforceOpaqueRead:
    def test_opaque_neutrality_in_traces(self, bundled, contamination):
        """No opaque read of untrusted content flips its reader's contamination:
        the reader must already act contaminated or stay clean past the read."""
        from reentryguard.tracelog import parse_trace

        meta, events = parse_trace(bundled("fwA").trace_text)
        contaminated = contamination(events, meta)
        for i, event in enumerate(events):
            if event.kind is not EventKind.OPAQUE_READ:
                continue
            if event.label is None or not event.label.untrusted:
                continue
            # find this agent's next event; its contamination must be unchanged
            for j in range(i + 1, len(events)):
                if events[j].agent == event.agent:
                    assert contaminated[j] == contaminated[i]
                    break


class TestEnforcedRunSafety:
    def test_no_untrusted_write_then_highcap_read_when_rtw_on(self, bundled):
        """The runtime rule implies the audit passes on every rtw-enabled run."""
        from reentryguard.verifier import build_report

        for name in ("fwA", "fwB", "fwC", "cross_framework"):
            assert not build_report(bundled(name, enforce="rtw").trace_text).rtw_violations
            assert not build_report(bundled(name, enforce="all").trace_text).rtw_violations
