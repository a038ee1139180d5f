"""Trace auditor against brute-force oracles and hand-built fixtures.

The auditor consumes only serialized text. Every fixture here is rendered to
the line format and fed back through the public string-taking entry points,
so these tests double as format-contract tests.
"""

import ast
import copy
import pickle
import random
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import reentryguard
from reentryguard.cli import main
from reentryguard.model import (
    FACET_VALUES,
    NO_FACETS,
    ActionKind,
    AutoloadPolicy,
    Carrier,
    CarrierClass,
    CarrierScope,
    Decision,
    DeclassProcedure,
    Event,
    EventKind,
    GuardMode,
    InjectionPosition,
    Privilege,
    SchemaKind,
    TaintLabel,
)
from reentryguard.policy import EnforcementConfig
from reentryguard.rtw import is_rtw_safe
from reentryguard.scenarios import bundled_names, random_scenario
from reentryguard.sim import Ecosystem, run_scenario
from reentryguard.tracelog import AgentMeta, TraceFormatError, TraceMeta, parse_trace, render_trace
from reentryguard.verifier import (
    RtwViolation,
    VerificationError,
    audit,
    build_report,
    find_chains,
    is_effective,
    rtw_violations_in,
)

ALLOW = Decision.ALLOW
DENY = Decision.DENY_ATTENUATED


def toy_meta(carrier_owner: str = "a1", enforcement: EnforcementConfig | None = None) -> TraceMeta:
    """Three agents; carrier 1 is heartbeat-autoloaded, so a write to it is a
    high-risk action, and a2's carrier 2 is an on-demand local file below
    that bar."""
    return TraceMeta(
        scenario="toy",
        seed=0,
        ticks=12,  # every fixture's events fall within it
        enforcement=enforcement or EnforcementConfig.none(),
        attacker="attacker",
        agents=[AgentMeta(agent, Privilege.HIGH, 1, ("c0",)) for agent in ("a1", "a2", "a3")],
        carriers=[
            Carrier(
                id=1,
                name="f1",
                owner=carrier_owner,
                cls=CarrierClass.WORKSPACE_FILE,
                autoload=AutoloadPolicy.HEARTBEAT,
                injection=InjectionPosition.USER_PROMPT,
                scope=CarrierScope.AGENT_LOCAL,
                label0=TaintLabel.CLEAN,
            ),
            Carrier(
                id=2,
                name="f2",
                owner="a2",
                cls=CarrierClass.WORKSPACE_FILE,
                autoload=AutoloadPolicy.ON_DEMAND,
                injection=InjectionPosition.USER_PROMPT,
                scope=CarrierScope.AGENT_LOCAL,
                label0=TaintLabel.CLEAN,
            ),
        ],
    )


def render(events: list[Event], meta: TraceMeta | None = None) -> str:
    return render_trace(events, meta or toy_meta())


def W(tick, agent="a1", label=TaintLabel.TAINTED, decision=ALLOW, cid=1):
    return Event(tick=tick, agent=agent, kind=EventKind.WRITE, carrier_id=cid,
                 label=label, facets=FACET_VALUES["1111"], decision=decision)


def R(tick, agent="a2", label=TaintLabel.TAINTED, decision=ALLOW, cid=1):
    return Event(tick=tick, agent=agent, kind=EventKind.EXPOSED_READ, carrier_id=cid,
                 label=label, decision=decision)


def A(tick, agent="a2", decision=ALLOW):
    return Event(tick=tick, agent=agent, kind=EventKind.HIGH_RISK,
                 action=ActionKind.INVOKE_SHELL, decision=decision)


def RESET(tick, agent="a2"):
    return Event(tick=tick, agent=agent, kind=EventKind.CONTEXT_RESET)


def DECL(tick, agent="a2", cid=1):
    return Event(tick=tick, agent=agent, kind=EventKind.DECLASSIFY, carrier_id=cid,
                 procedure=DeclassProcedure.DETERMINISTIC_VALIDATION, decision=ALLOW)


def INJECT(tick, channel="c0"):
    return Event(tick=tick, agent="attacker", kind=EventKind.INJECT, channel=channel,
                 facets=FACET_VALUES["1111"])


class TestFindChainsFixtures:
    def test_empty_trace(self):
        assert find_chains(render([])) == []

    def test_minimal_chain(self):
        witnesses = find_chains(render([W(1), R(2), A(3)]))
        assert len(witnesses) == 1
        w = witnesses[0]
        assert (w.writer, w.reader, w.action) == ("a1", "a2", "invoke_shell")
        assert (w.write_tick, w.read_tick, w.action_tick) == (1, 2, 3)

    def test_denied_write_taints_nothing(self):
        assert find_chains(render([W(1, decision=DENY), R(2), A(3)])) == []

    def test_denied_read_breaks_chain(self):
        assert find_chains(render([W(1), R(2, decision=DENY), A(3)])) == []

    def test_denied_action_harms_nothing(self):
        assert find_chains(render([W(1), R(2), A(3, decision=DENY)])) == []

    def test_clean_read_is_not_re_entry(self):
        assert find_chains(render([W(1), R(2, label=TaintLabel.CLEAN), A(3)])) == []

    def test_reset_between_read_and_action_breaks_chain(self):
        assert find_chains(render([W(1), R(2), RESET(2), A(3)])) == []

    def test_reset_of_other_agent_changes_nothing(self):
        assert len(find_chains(render([W(1), R(2), RESET(2, agent="a1"), A(3)]))) == 1

    def test_declassify_of_reader_breaks_chain(self):
        assert find_chains(render([W(1), R(2), DECL(2), A(3)])) == []

    def test_write_is_an_action_only_on_a_risky_carrier(self):
        """A reader's write to an autoloaded carrier feeds future contexts and
        completes the chain; the same write to an on-demand local file does not."""
        assert find_chains(render([W(1), R(2), W(3, agent="a2", cid=2)])) == []
        (w,) = find_chains(render([W(1), R(2), W(3, agent="a2", cid=1)]))
        assert (w.write_index, w.read_index, w.action_index, w.action) == (0, 1, 2, "write")

    def test_action_before_read_does_not_count(self):
        assert find_chains(render([W(1), A(2), R(3)])) == []

    def test_guard_effective_only_under_approve(self):
        guarded = Decision.GUARD_ATTENUATED
        events = [W(1), R(2), A(3, decision=guarded)]
        assert find_chains(render(events)) == []
        approve_meta = toy_meta(enforcement=EnforcementConfig(guard_mode=GuardMode.APPROVE_ALL))
        assert len(find_chains(render(events, approve_meta))) == 1

    def test_one_witness_per_offending_write(self):
        events = [W(1), W(2), R(3), A(4)]
        witnesses = find_chains(render(events))
        assert len(witnesses) == 2
        assert {w.write_tick for w in witnesses} == {1, 2}

    def test_witness_uses_earliest_qualifying_read_and_action(self):
        events = [W(1), R(2), R(3), A(4), A(5)]
        (w,) = find_chains(render(events))
        assert w.read_tick == 2
        assert w.action_tick == 4

    @pytest.mark.parametrize(
        "events,read_tick,action_tick",
        [
            ([W(1), R(2, agent="a2"), R(3, agent="a3"), A(4, agent="a3"), A(5, agent="a2")], 2, 5),
            ([W(1), R(2, agent="a2"), R(3, agent="a3"), A(4, agent="a3"), RESET(5, agent="a2")], 3, 4),
        ],
        ids=["later-reader-acts-first", "earlier-read-dies-after-later-qualifies"],
    )
    def test_witness_waits_for_earlier_reads_to_settle(self, events, read_tick, action_tick):
        """Reads settle out of order: a later reader can act or an earlier
        one die first. The witness is still the earliest read that qualifies."""
        meta = toy_meta()
        (w,) = find_chains(render(events, meta))
        assert (w.read_tick, w.action_tick) == (read_tick, action_tick)
        assert_matches_oracle([w], naive_chains(events, meta, guard="deny"))

    def test_decisionless_effectful_event_rejected(self):
        bad = Event(tick=1, agent="a1", kind=EventKind.WRITE, carrier_id=1,
                    label=TaintLabel.TAINTED, facets=FACET_VALUES["1111"])
        with pytest.raises(VerificationError):
            find_chains(render([bad]))

    @pytest.mark.parametrize(
        "event",
        [
            Event(tick=1, agent="a1", kind=EventKind.HEARTBEAT),
            Event(tick=1, agent="a2", kind=EventKind.MSG_RECV, channel="c0",
                  facets=FACET_VALUES["1111"], sender="a1"),
            INJECT(1),
            RESET(1),
        ],
        ids=lambda ev: ev.kind.value,
    )
    def test_decision_on_unmediated_event_rejected(self, event):
        """Nothing mediates these kinds, so a decision on one is refused, not
        counted as an intervention."""
        bad = replace(event, decision=Decision.DENY_SEALED)
        match = f"^event 1: {event.kind.value} is not mediated, yet carries a decision$"
        with pytest.raises(VerificationError, match=match):
            build_report(render([W(0), bad]))

    @pytest.mark.parametrize(
        "event",
        [
            W(1, cid=999),
            R(1, cid=999),
            Event(tick=1, agent="a1", kind=EventKind.OPAQUE_READ, carrier_id=999,
                  label=TaintLabel.CLEAN, decision=Decision.NOT_MEDIATED),
            DECL(1, cid=999),
            R(1, cid=None),
        ],
        ids=["write", "exposed_read", "opaque_read", "declassify", "exposed_read-no-id"],
    )
    def test_undeclared_carrier_rejected(self, event):
        with pytest.raises(VerificationError, match=r"^event 1: .*header does not declare"):
            build_report(render([W(1), event]))

    def test_promote_column_holds_a_candidate_id(self):
        promote = Event(tick=1, agent="a1", kind=EventKind.PROMOTE, carrier_id=999,
                        label=TaintLabel.TAINTED, schema=SchemaKind.FREE_FORM_INSTRUCTION,
                        facets=FACET_VALUES["1111"], decision=ALLOW)
        assert build_report(render([promote])).event_count == 1

    def test_trace_without_carrier_lines_rejected(self, bundled, tmp_path):
        text = "".join(
            line for line in bundled("fwA").trace_text.splitlines(keepends=True)
            if not line.startswith("# carrier ")
        )
        with pytest.raises(VerificationError, match="header does not declare"):
            build_report(text)
        path = tmp_path / "no-carriers.trace"
        path.write_text(text)
        assert main(["--verify-trace", str(path)]) == 2

    def test_trace_without_enforcement_line_rejected(self, bundled, tmp_path):
        text = "".join(
            line for line in bundled("fwA", enforce="all").trace_text.splitlines(keepends=True)
            if not line.startswith("# enforcement ")
        )
        with pytest.raises(TraceFormatError, match=r"^line 5: expected # enforcement, got '# attacker "):
            build_report(text)
        path = tmp_path / "no-enforcement.trace"
        path.write_text(text)
        assert main(["--verify-trace", str(path)]) == 2


def naive_chains(events: list[Event], meta: TraceMeta, guard: str) -> set[tuple[int, int, int]]:
    """Triple nested loop over the pre-serialization Event objects, written
    from the temporal pattern definition with no shared scaffolding: every
    (write, read, action) index triple where all three take effect, the write
    is untrusted, the read exposes that carrier untrusted, the action is
    high-risk by the reading agent, and no reset or effective declassify of
    the reader sits strictly between read and action. Comparing this against
    chains_in also crosses the render/parse boundary."""

    def effective(ev: Event) -> bool:
        if ev.decision is None:
            return False
        if ev.decision.verdict.value == "allow":
            return True
        return ev.decision.verdict.value == "guard" and guard == "approve"

    risky_carriers = {
        c.id
        for c in meta.carriers
        if c.cls in ("static_config", "trusted_memory")
        or c.autoload in ("session_start", "heartbeat")
        or c.scope == "shared_cross_agent"
    }

    def is_action(ev: Event) -> bool:
        if ev.kind in (EventKind.HIGH_RISK, EventKind.MSG_SEND):
            return True
        return ev.kind is EventKind.WRITE and ev.carrier_id in risky_carriers

    triples = set()
    n = len(events)
    for i in range(n):
        wi = events[i]
        if wi.kind is not EventKind.WRITE or not effective(wi):
            continue
        if wi.label is None or not wi.label.untrusted:
            continue
        for j in range(i + 1, n):
            rj = events[j]
            if rj.kind is not EventKind.EXPOSED_READ or not effective(rj):
                continue
            if rj.carrier_id != wi.carrier_id:
                continue
            if rj.label is None or not rj.label.untrusted:
                continue
            for k in range(j + 1, n):
                ak = events[k]
                if ak.agent != rj.agent:
                    continue
                if not is_action(ak) or not effective(ak):
                    continue
                broken = any(
                    events[m].agent == rj.agent
                    and (
                        events[m].kind is EventKind.CONTEXT_RESET
                        or (events[m].kind is EventKind.DECLASSIFY and effective(events[m]))
                    )
                    for m in range(j + 1, k)
                )
                if not broken:
                    triples.add((i, j, k))
    return triples


def assert_matches_oracle(witnesses: list, oracle: set[tuple[int, int, int]]) -> None:
    # emptiness agreement
    assert bool(witnesses) == bool(oracle)
    # one witness per offending write, at the minimal read/action pair
    assert {w.write_index for w in witnesses} == {i for i, _, _ in oracle}
    for w in witnesses:
        candidate_pairs = sorted((j, k) for i, j, k in oracle if i == w.write_index)
        assert (w.read_index, w.action_index) == candidate_pairs[0]


class TestRiskyCarrierRule:
    """A tripwire that counts: audit decides whether a write to a carrier is
    an action only when a write by an agent with an open read asks, and then
    once per carrier."""

    @pytest.fixture
    def asked(self, monkeypatch):
        """The ids of the carriers whose Carrier.autoloaded is read, in order."""
        ids = []
        autoloaded = Carrier.autoloaded.fget
        monkeypatch.setattr(Carrier, "autoloaded", property(lambda c: ids.append(c.id) or autoloaded(c)))
        return ids

    def test_an_audit_with_no_open_read_asks_nothing(self, asked):
        # a read before any write keeps no read open; writes by a reader with none ask nothing
        report = audit(toy_meta(), [R(1), W(2), W(3, cid=2), W(4, agent="a2", cid=2), A(5)])
        assert report.safe and report.infected == ["a1", "a2"]
        assert asked == []

    def test_enforced_fuzz_audits_ask_nothing(self, asked):
        """Enforced fuzz runs keep no read open, so their audits read no
        carrier's autoload policy, however many carriers their headers hold."""
        scenarios = [random_scenario(seed, EnforcementConfig.all_enabled()) for seed in range(30)]
        traces = [parse_trace(run_scenario(scenario).trace_text) for scenario in scenarios]
        asked.clear()
        assert sum(len(meta.carriers) for meta, _ in traces) > 0
        for meta, events in traces:
            audit(meta, events)
        assert asked == []

    def test_each_carrier_is_asked_once(self, asked):
        events = [W(1), R(2), W(3, agent="a2", cid=2), W(4, agent="a2", cid=2), W(5, agent="a2"), W(6, agent="a2")]
        (w,) = audit(toy_meta(), events).chains
        assert (w.read_index, w.action_index, w.action) == (1, 4, "write")
        assert asked == [2, 1]


class TestFindChainsAgainstNaiveScan:
    """Exhaustive toy-run enumeration: one carrier, two agents, every sequence
    of up to five template events, plus a random sample of longer runs over a
    wider template pool (denied events, clean writes, self-reading writers,
    declassifications, a reader's write to a carrier below the high-risk bar)."""

    CORE = [
        lambda t: W(t, agent="a1"),
        lambda t: W(t, agent="a1", decision=DENY),
        lambda t: R(t, agent="a2"),
        lambda t: R(t, agent="a2", label=TaintLabel.CLEAN),
        lambda t: A(t, agent="a2"),
        lambda t: RESET(t, agent="a2"),
    ]
    EXTENDED = CORE + [
        lambda t: W(t, agent="a2"),
        lambda t: W(t, agent="a2", label=TaintLabel.CLEAN),
        lambda t: R(t, agent="a1"),
        lambda t: DECL(t, agent="a2"),
        lambda t: W(t, agent="a2", cid=2),
    ]

    def _check(self, events: list[Event]) -> None:
        meta = toy_meta()
        assert_matches_oracle(find_chains(render(events, meta)), naive_chains(events, meta, guard="deny"))

    def test_exhaustive_up_to_five_events(self):
        for length in range(6):
            for combo in product(range(len(self.CORE)), repeat=length):
                events = [self.CORE[idx](t) for t, idx in enumerate(combo)]
                self._check(events)

    def test_random_six_event_runs(self):
        rng = random.Random(7)
        for _ in range(3000):
            combo = [rng.randrange(len(self.EXTENDED)) for _ in range(6)]
            events = [self.EXTENDED[idx](t) for t, idx in enumerate(combo)]
            self._check(events)


class TestFindChainsOnSimulatorTraces:
    """The oracle comparison on whole simulator runs: the reads, actions and
    resets of several agents interleave in one event stream, and a high-risk
    write can be both an offending write and another chain's action."""

    def test_bundled_undefended_runs(self, bundled):
        for name in bundled_names():
            run = bundled(name)
            meta, _ = parse_trace(run.trace_text)
            witnesses = find_chains(run.trace_text)
            assert witnesses, name
            assert_matches_oracle(witnesses, naive_chains(run.trace, meta, meta.enforcement.guard_mode.value))

    @staticmethod
    def _fuzz_runs(enforce: str) -> tuple[int, int]:
        """Compare on random_scenario seeds 0-49 capped at 5 ticks. Returns
        the witnesses found and the runs that schedule a reset."""
        found = with_resets = 0
        for seed in range(50):
            scenario = random_scenario(seed, EnforcementConfig.from_names(enforce))
            scenario = replace(scenario, max_ticks=min(scenario.max_ticks, 5))
            with_resets += bool(scenario.resets)
            eco = Ecosystem(scenario)
            meta = eco.meta
            trace = eco.run()
            witnesses = find_chains(render_trace(trace, meta))
            assert_matches_oracle(witnesses, naive_chains(trace, meta, meta.enforcement.guard_mode.value))
            found += len(witnesses)
        return found, with_resets

    def test_undefended_fuzz_runs(self):
        assert self._fuzz_runs("none")[1]

    def test_ablated_fuzz_runs(self):
        """Partly enforced runs deny some of each chain's steps, so the
        witnesses left are not the undefended run's."""
        assert sum(self._fuzz_runs(enforce)[0] for enforce in ("rtw", "attenuation", "rtw,seal,memgate"))


def test_audit_reads_each_event_once_in_order(bundled):
    """audit never indexes or re-reads the events: over a one-shot iterator
    it returns the same report as over the list."""
    texts = [bundled("fwA").trace_text]
    for seed in range(20):
        scenario = random_scenario(seed, EnforcementConfig.from_names("none"))
        eco = Ecosystem(replace(scenario, max_ticks=min(scenario.max_ticks, 5)))
        meta = eco.meta
        texts.append(render_trace(eco.run(), meta))
    for text in texts:
        meta, events = parse_trace(text)
        assert audit(meta, iter(events)) == audit(meta, events)


class TestCountHops:
    def test_no_infection_is_zero(self):
        assert build_report(render([R(1, label=TaintLabel.CLEAN)])).hops == 0

    def test_own_carrier_write_counts_once(self):
        events = [W(1, agent="a1"), W(2, agent="a1")]
        assert build_report(render(events)).hops == 1

    def test_foreign_carrier_write_does_not_count(self):
        assert build_report(render([W(1, agent="a2")])).hops == 0

    def test_denied_write_does_not_count(self):
        assert build_report(render([W(1, decision=DENY)])).hops == 0

    def test_clean_write_does_not_count(self):
        assert build_report(render([W(1, label=TaintLabel.CLEAN)])).hops == 0

    def test_undefended_three_agent_chain(self, bundled):
        assert build_report(bundled("fwA").trace_text).hops == 3

    def test_cross_framework_chain(self, bundled):
        assert build_report(bundled("cross_framework").trace_text).hops == 3


class TestZeroClick:
    def test_single_injection_no_other_attacker_events(self):
        assert build_report(render([INJECT(0), W(1)])).zero_click

    def test_two_injections(self):
        assert not build_report(render([INJECT(0), INJECT(1)])).zero_click

    def test_zero_injections_flagged_not_passed(self):
        assert not build_report(render([W(1)])).zero_click

    def test_bundled_runs_are_zero_click(self, bundled):
        for name in ("fwA", "fwB", "fwC", "cross_framework"):
            assert build_report(bundled(name).trace_text).zero_click


class TestAuditRtw:
    def test_enforced_run_passes(self, bundled):
        assert not build_report(bundled("fwA", enforce="all").trace_text).rtw_violations

    def test_planted_violation_fails(self):
        assert build_report(render([W(1), R(2)])).rtw_violations

    def test_declassify_clears_pending_write(self):
        # read after the declassification is untrusted again (re-tainted),
        # but the pre-declassification write no longer pairs with it
        events = [W(1), DECL(2, agent="a3"), R(3)]
        assert not build_report(render(events)).rtw_violations

    def test_attenuated_reader_is_not_high_cap(self):
        """With attenuation on, a reader already contaminated at read time has
        no live capability, so the exposure is outside the pattern."""
        meta = toy_meta(enforcement=self.ATTENUATED)
        events = [R(1, agent="a2"), W(2, agent="a1"), R(3, agent="a2")]
        assert not build_report(render(events, meta)).rtw_violations
        # same trace, attenuation off: the read is a violation
        assert build_report(render(events)).rtw_violations

    ATTENUATED = EnforcementConfig(attenuation=True)
    POOL = [
        lambda t: W(t, agent="a1"),
        lambda t: W(t, agent="a2"),
        lambda t: W(t, agent="a1", decision=DENY),
        lambda t: R(t, agent="a2"),
        lambda t: R(t, agent="a2", label=TaintLabel.CLEAN),
        lambda t: R(t, agent="a2", decision=DENY),
        lambda t: R(t, agent="a1"),
        lambda t: RESET(t, agent="a2"),
        lambda t: RESET(t, agent="a1"),
        lambda t: DECL(t),
        lambda t: A(t),
    ]

    @staticmethod
    def _oracle(events, meta, contaminated) -> tuple[list[RtwViolation], int]:
        """The violations, from the per-event contamination list, and how
        many pending-write reads contamination excused: only attenuation
        under deny-mode guards, which denies the reader's actions, excuses."""
        violations: list[RtwViolation] = []
        excused = 0
        last_write: dict[int, int] = {}
        for i, ev in enumerate(events):
            if ev.carrier_id is None or not is_effective(ev, meta):
                continue
            untrusted = ev.label is not None and ev.label.untrusted
            if ev.kind is EventKind.WRITE and untrusted:
                last_write.setdefault(ev.carrier_id, i)
            elif ev.kind is EventKind.DECLASSIFY:
                last_write.pop(ev.carrier_id, None)
            elif ev.kind is EventKind.EXPOSED_READ and untrusted and ev.carrier_id in last_write:
                denies = meta.enforcement.attenuation and meta.enforcement.guard_mode is GuardMode.DENY_ALL
                if denies and contaminated[i]:
                    excused += 1
                else:
                    violations.append(RtwViolation(ev.carrier_id, last_write[ev.carrier_id], i, ev.agent))
        return violations, excused

    def test_random_runs_agree_with_contamination_oracle(self, contamination):
        """rtw_violations_in tracks contamination as it walks; recomputing
        its violations from the per-event contamination oracle gives the
        same list, with attenuation on and off."""
        rng = random.Random(11)
        found = excused = 0
        for enforcement in (self.ATTENUATED, None):
            meta = toy_meta(enforcement=enforcement)
            for _ in range(3000):
                events = [rng.choice(self.POOL)(t) for t in range(rng.randint(0, 8))]
                expected, skipped = self._oracle(events, meta, contamination(events, meta))
                assert rtw_violations_in(events, meta) == expected
                found += len(expected)
                excused += skipped
        assert found and excused

    @pytest.mark.parametrize("guard", [GuardMode.DENY_ALL, GuardMode.APPROVE_ALL])
    def test_whole_runs_agree_with_contamination_oracle(self, guard, bundled, contamination):
        """The same on simulator runs with attenuation on, under both guard
        modes."""
        texts = [
            bundled(name, enforce, guard).trace_text
            for name in bundled_names()
            for enforce in ("attenuation", "all")
        ]
        for seed in range(50):
            scenario = random_scenario(seed, EnforcementConfig.from_names("attenuation", guard))
            eco = Ecosystem(replace(scenario, max_ticks=min(scenario.max_ticks, 7)))
            meta = eco.meta
            texts.append(render_trace(eco.run(), meta))
        excused = by_contaminated = 0
        for text in texts:
            meta, events = parse_trace(text)
            contaminated = contamination(events, meta)
            expected, skipped = self._oracle(events, meta, contaminated)
            assert rtw_violations_in(events, meta) == expected
            excused += skipped
            by_contaminated += sum(contaminated[v.read_index] for v in expected)
        # under approve-mode guards a contaminated reader's read of a carrier
        # with a pending write is a violation, not excused
        assert guard is GuardMode.DENY_ALL or (not excused and by_contaminated)

    def test_fuzzed_traces_agree_with_word_scanner(self):
        """Random small traces of untrusted writes and high-cap reads must make
        the report's RTW violations coincide with the per-carrier
        regular-language check."""
        rng = random.Random(41)
        for _ in range(10_000):
            events = []
            words: dict[int, list[str]] = {1: [], 2: []}
            for t in range(rng.randint(0, 12)):
                cid = rng.choice([1, 2])
                if rng.random() < 0.5:
                    events.append(W(t, agent="a1", cid=cid))
                    words[cid].append("W")
                else:
                    events.append(R(t, agent="a2", cid=cid))
                    words[cid].append("R")
            meta = toy_meta()
            expected = all(is_rtw_safe("".join(words[cid])).safe for cid in (1, 2))
            assert (not build_report(render(events, meta)).rtw_violations) == expected


class TestReportOutcomes:
    def test_persistence_requires_persist_facet(self):
        no_persist = Event(
            tick=1, agent="a1", kind=EventKind.WRITE, carrier_id=1,
            label=TaintLabel.TAINTED, facets=FACET_VALUES["0111"],
            decision=ALLOW,
        )
        report = build_report(render([no_persist]))
        assert not report.persistence
        report = build_report(render([W(1)]))
        assert report.persistence

    def test_re_entry_needs_prior_write(self):
        assert not build_report(render([R(1)])).re_entry
        assert build_report(render([W(1), R(2)])).re_entry

    def test_propagation_is_agent_to_agent_delivery(self):
        recv = Event(tick=2, agent="a2", kind=EventKind.MSG_RECV, channel="c0",
                     facets=FACET_VALUES["1111"], sender="a1")
        assert build_report(render([recv])).propagation
        from_attacker = Event(tick=2, agent="a1", kind=EventKind.MSG_RECV, channel="c0",
                              facets=FACET_VALUES["1111"], sender="attacker")
        assert not build_report(render([from_attacker])).propagation

    def test_escalation_is_an_effective_shell_action(self):
        assert build_report(render([A(1)])).privilege_escalation
        assert not build_report(render([A(1, decision=DENY)])).privilege_escalation

    def test_exfiltration_is_effective_exfil_send(self):
        send = Event(tick=1, agent="a1", kind=EventKind.MSG_SEND, channel="c0",
                     facets=NO_FACETS, exfil=True, decision=ALLOW)
        assert build_report(render([send])).exfiltration
        blocked = Event(tick=1, agent="a1", kind=EventKind.MSG_SEND, channel="c0",
                        facets=NO_FACETS, exfil=True, decision=DENY)
        assert not build_report(render([blocked])).exfiltration

    def test_intervention_counts_by_reason_and_layer(self, bundled):
        report = bundled("fwA", enforce="all").report
        assert set(report.intervention_reasons) <= {
            "sealed-config", "rtw-re-entry", "lease-expired",
            "promotion-rejected", "attenuated-highrisk",
        }
        assert sum(report.layer_denials.values()) == sum(report.intervention_reasons.values())

    def test_monotone_enforcement_on_fwA(self, bundled):
        """Adding a layer never adds chains."""
        pairs = [
            ("none", "rtw"),
            ("none", "seal"),
            ("none", "memgate"),
            ("none", "attenuation"),
            ("rtw", "rtw,seal"),
            ("rtw,seal", "rtw,seal,memgate"),
            ("rtw,seal,memgate", "all"),
        ]
        for weaker, stronger in pairs:
            weak = len(bundled("fwA", enforce=weaker).report.chains)
            strong = len(bundled("fwA", enforce=stronger).report.chains)
            assert strong <= weak


def _swap(old: str, new: str):
    """An edit replacing the first old of a trace with new."""
    def edit(text: str) -> str:
        assert old in text
        return text.replace(old, new, 1)
    return edit


class TestActorRefusals:
    """Edits of bundled undefended fwA's trace that name an actor, a channel
    or a tick the header does not declare. Each would change who the report blames
    (zero-click, hops, propagation) or what it covers, so each is refused."""

    @pytest.mark.parametrize(
        "edit, match",
        [
            (_swap("# attacker attacker\n", "# attacker a1\n"), "attacker a1 is also a declared agent"),
            (
                _swap("\n# carrier ", "\n# agent attacker privilege=low period=2 channels=c0\n# carrier "),
                "attacker attacker is also a declared agent",
            ),
            (_swap("name=a1.identity owner=a1 ", "name=a1.identity owner=a9 "), "carrier 1 is owned by a9"),
            (_swap("name=a1.identity owner=a1 ", "name=a1.identity owner=attacker "), "carrier 1 is owned by attacker"),
            (lambda text: text + "8|a9|heartbeat|-|-|-|-\n", "heartbeat by a9, which the header does not declare"),
            (_swap(":from=a1|", ":from=a9|"), "msg_recv from a9, which the header does not declare"),
            (_swap("|attacker|inject:", "|a2|inject:"), "inject by a2, not the attacker"),
            (_swap("# ticks 8\n", "# ticks 2\n"), "tick 8 is past the header's # ticks 2"),
            (
                lambda text: re.sub(r"\|(msg_send|msg_recv|inject):[^:|]+:", r"|\1:zz:", text),
                r"^event \d+: inject on zz, which no # agent line lists",
            ),
            (_swap("|a3|msg_recv:c2:", "|a3|msg_recv:c0:"), "msg_recv by a3 on c0, which its # agent line does not list"),
            (_swap("|a1|msg_send:c1:", "|a1|msg_send:c2:"), "msg_send by a1 on c2, which its # agent line does not list"),
        ],
        ids=[
            "attacker-is-agent", "agent-named-attacker", "undeclared-owner", "attacker-owner",
            "undeclared-actor", "undeclared-sender", "inject-by-agent", "events-past-ticks",
            "unlisted-channels", "recv-off-channel", "send-off-channel",
        ],
    )
    def test_undeclared_actor_or_tick_refused(self, edit, match, bundled, tmp_path):
        text = edit(bundled("fwA").trace_text)
        with pytest.raises(VerificationError, match=match):
            build_report(text)
        path = tmp_path / "edited.trace"
        path.write_text(text)
        assert main(["--verify-trace", str(path)]) == 2



def _unlabel(kind: str):
    """An edit setting the label column of every kind line to -."""
    def edit(text: str) -> str:
        lines = []
        for line in text.splitlines(keepends=True):
            cols = line.split("|")
            if not line.startswith("#") and len(cols) == 7 and cols[2].split(":")[0] == kind:
                cols[4] = "-"
            lines.append("|".join(cols))
        return "".join(lines)
    return edit


@pytest.mark.parametrize("kind", ["write", "exposed_read", "promote"])
def test_unlabelled_event_refused(kind, bundled, tmp_path):
    """The passes judge a write, exposed read or promotion by its label, so
    one without a label is refused, not read as clean: undefended fwA, with
    its labels gone, would otherwise certify safe."""
    text = _unlabel(kind)(bundled("fwA").trace_text)
    assert text != bundled("fwA").trace_text
    with pytest.raises(VerificationError, match=f"^event \\d+: {kind} carries no label"):
        build_report(text)
    path = tmp_path / "unlabelled.trace"
    path.write_text(text)
    assert main(["--verify-trace", str(path)]) == 2


@pytest.mark.parametrize("enforce", ["none", "all"])
@pytest.mark.parametrize("name", bundled_names())
def test_copied_events_audit_as_the_originals(name, enforce, bundled):
    """Copied or unpickled events hold the shared decisions, so they take
    effect as the originals do and the report is the same, field for field."""
    meta, events = parse_trace(bundled(name, enforce).trace_text)
    report = audit(meta, events)
    assert audit(meta, pickle.loads(pickle.dumps(events))) == report
    assert audit(meta, copy.deepcopy(events)) == report

class TestIndependence:
    """The auditor, the header codec it parses with and the scenario schema
    import nothing that enforces: the rules they judge by are written apart
    from the ones under audit, and share only the model's vocabulary."""

    ENFORCING = {"policy", "sim", "memgate", "rtw", "taint"}

    @staticmethod
    def imported(module: str) -> set[str]:
        """Every package module name in the module's imports, at any depth."""
        tree = ast.parse((Path(reentryguard.__file__).parent / f"{module}.py").read_text())
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                if node.module in (None, "reentryguard"):
                    # from . import x: x is a module
                    names.update(alias.name for alias in node.names)
        return names

    @pytest.mark.parametrize("module", ["tracelog", "verifier", "scenarios"])
    def test_imports_no_enforcing_module(self, module):
        assert "model" in self.imported(module)
        assert not self.imported(module) & self.ENFORCING
