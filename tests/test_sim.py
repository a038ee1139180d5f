"""Simulator semantics: transformation, scheduling, compliance, determinism."""

from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reentryguard.model import (
    DECISIONS,
    FACET_VALUES,
    EventKind,
    GuardMode,
    PayloadFacets,
    Privilege,
    TaintLabel,
    Verdict,
)
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import (
    NEVER,
    AgentProfile,
    Injection,
    Scenario,
    ScenarioError,
    bernoulli,
    bundled_names,
    random_scenario,
)
from reentryguard.sim import (
    FACET_DROP_ORDER,
    PERSIST_DROP_STRENGTH,
    Ecosystem,
    run_scenario,
    transform_payload,
)
from reentryguard.model import InjectionPosition
from reentryguard.tracelog import parse_trace, render_trace


def tiny_scenario(**kw) -> Scenario:
    defaults = dict(
        name="tiny",
        seed=3,
        max_ticks=4,
        enforcement=EnforcementConfig.none(),
        agents=[
            AgentProfile(id="a1", framework="A", privilege=Privilege.LOW,
                         heartbeat_period=2, channels=("c0",)),
        ],
        channels=["c0"],
        injection=Injection(channel="c0", tick=0, facets=PayloadFacets.full()),
    )
    defaults.update(kw)
    scenario = Scenario(**defaults)
    scenario.validate()
    return scenario


facet_strategy = st.builds(
    PayloadFacets,
    persist=st.booleans(),
    propagate=st.booleans(),
    harm=st.booleans(),
    verbatim=st.booleans(),
)


class TestTransformPayload:
    def test_strength_zero_is_identity(self):
        facets = PayloadFacets.full()
        assert transform_payload(facets, 0) == facets

    def test_strength_one_drops_verbatim_only(self):
        out = transform_payload(PayloadFacets.full(), 1)
        assert out.token() == "1110"

    def test_drop_order_is_verbatim_harm_propagate_persist(self):
        assert FACET_DROP_ORDER == ("verbatim", "harm", "propagate", "persist")
        # token char order is persist,propagate,harm,verbatim
        tokens = [transform_payload(PayloadFacets.full(), k).token() for k in range(5)]
        assert tokens == ["1111", "1110", "1100", "1000", "0000"]

    def test_persist_threshold_kills_everything(self):
        assert not transform_payload(PayloadFacets.full(), PERSIST_DROP_STRENGTH).any

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            transform_payload(PayloadFacets.full(), -1)

    @given(facet_strategy, st.integers(min_value=0, max_value=6))
    def test_output_is_subset_of_input(self, facets, strength):
        assert transform_payload(facets, strength).issubset(facets)

    @given(facet_strategy, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_monotone_in_strength_and_composable(self, facets, s1, s2):
        weaker = transform_payload(facets, max(s1, s2))
        stronger_first = transform_payload(transform_payload(facets, s1), s2)
        # sequential hops of s1 then s2 lose exactly the union of both drops
        assert stronger_first == weaker

    @pytest.mark.parametrize("strength", range(PERSIST_DROP_STRENGTH + 2))
    def test_table_is_the_field_rule_over_shared_values(self, strength):
        dropped = FACET_DROP_ORDER[: min(strength, PERSIST_DROP_STRENGTH)]
        for facets in FACET_VALUES.values():
            out = transform_payload(facets, strength)
            assert out == replace(facets, **{name: False for name in dropped})
            assert transform_payload(facets, strength) is out
            assert out is FACET_VALUES[out.token()]


class TestSharedDecisions:
    def test_decisions_are_the_shared_objects(self, bundled):
        """The simulator and the parser give every event one of the 12
        DECISIONS objects; Decision compares by identity."""
        shared = {id(d) for d in DECISIONS.values()}
        seen = set()
        results = [
            bundled(name, enforce, guard)
            for name in bundled_names()
            for enforce in ("none", "all", "rtw,seal,memgate")
            for guard in GuardMode
        ]
        results += [run_scenario(random_scenario(seed, EnforcementConfig.all_enabled(guard)))
                    for seed in range(20) for guard in GuardMode]
        for result in results:
            _, parsed = parse_trace(result.trace_text)
            for ev in result.trace + parsed:
                if ev.decision is not None:
                    assert id(ev.decision) in shared, ev
                    seen.add(ev.decision)
        assert {d.verdict for d in seen} == set(Verdict)


class TestScenarioValidation:
    def test_duplicate_agent_ids(self):
        base = tiny_scenario()
        bad = replace(base, agents=base.agents + base.agents)
        with pytest.raises(ScenarioError):
            bad.validate()

    def test_unknown_injection_channel(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(injection=Injection(channel="nope", tick=0, facets=PayloadFacets.full()))

    def test_unknown_agent_channel(self):
        agents = [
            AgentProfile(id="a1", framework="A", privilege=Privilege.LOW,
                         heartbeat_period=2, channels=("ghost",)),
        ]
        with pytest.raises(ScenarioError):
            tiny_scenario(agents=agents)

    def test_reserved_attacker_id(self):
        agents = [
            AgentProfile(id="attacker", framework="A", privilege=Privilege.LOW,
                         heartbeat_period=2, channels=("c0",)),
        ]
        with pytest.raises(ScenarioError):
            tiny_scenario(agents=agents)

    def test_transform_strength_range(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(transform_default=9)


class TestScheduling:
    def test_heartbeats_fire_on_period_multiples(self):
        """Period 2 over 4 ticks fires at ticks 2 and 4, not 0."""
        result = run_scenario(tiny_scenario(injection=None))
        beats = [
            ev.tick for ev in result.trace
            if ev.kind is EventKind.HEARTBEAT and ev.agent == "a1"
        ]
        assert beats == [2, 4]

    def test_session_start_reads_happen_at_tick_zero(self):
        result = run_scenario(tiny_scenario(injection=None))
        tick0 = [ev for ev in result.trace if ev.tick == 0]
        assert any(ev.kind is EventKind.EXPOSED_READ for ev in tick0)

    def test_period_one_fires_every_tick(self):
        agents = [
            AgentProfile(id="a1", framework="A", privilege=Privilege.LOW,
                         heartbeat_period=1, channels=("c0",)),
        ]
        result = run_scenario(tiny_scenario(agents=agents, injection=None))
        beats = [ev.tick for ev in result.trace if ev.kind is EventKind.HEARTBEAT]
        assert beats == [1, 2, 3, 4]

    def test_injection_recorded_at_its_tick(self):
        result = run_scenario(tiny_scenario())
        (inject,) = [ev for ev in result.trace if ev.kind is EventKind.INJECT]
        assert inject.tick == 0
        assert inject.agent == "attacker"

    def test_events_are_emitted_in_tick_order(self, bundled):
        """The simulator appends to a plain list, so tick order holds only
        because run() walks the ticks in order; the parser refuses a trace
        that breaks it. Bundled runs both ways, and fuzz seeds 0-49 fully
        enforced and undefended (capped at the storm's 8 ticks)."""
        results = [bundled(name, enforce) for name in bundled_names() for enforce in ("none", "all")]
        for seed in range(50):
            results.append(run_scenario(random_scenario(seed, EnforcementConfig.all_enabled())))
            storm = random_scenario(seed)
            results.append(run_scenario(replace(storm, max_ticks=min(storm.max_ticks, 8))))
        for result in results:
            ticks = [ev.tick for ev in result.trace]
            assert ticks == sorted(ticks), result.report.meta.scenario


class TestCompliance:
    def test_never_comply_agent_proposes_nothing(self):
        """Contamination is not a choice, but acting on the payload is: a
        non-compliant agent gets marked yet never writes, sends, promotes, or
        invokes anything driven by the payload."""
        agents = [
            AgentProfile(
                id="a1", framework="A", privilege=Privilege.HIGH, heartbeat_period=1,
                channels=("c0",),
                compliance={InjectionPosition.USER_PROMPT: NEVER, InjectionPosition.SYSTEM_PROMPT: NEVER},
            ),
        ]
        result = run_scenario(tiny_scenario(agents=agents, max_ticks=6))
        payload_kinds = {EventKind.MSG_SEND, EventKind.HIGH_RISK, EventKind.PROMOTE}
        assert not [ev for ev in result.trace if ev.kind in payload_kinds]
        # facet-bearing writes would be the worm's persistence step
        facet_writes = [
            ev for ev in result.trace
            if ev.kind is EventKind.WRITE and ev.facets is not None and ev.facets.any
        ]
        assert not facet_writes

    def test_always_comply_agent_acts(self):
        result = run_scenario(tiny_scenario(max_ticks=6))
        sends = [ev for ev in result.trace if ev.kind is EventKind.MSG_SEND]
        assert sends, "a compliant contaminated agent propagates"

    def test_bernoulli_compliance_is_seed_deterministic(self):
        def run(seed: int) -> str:
            agents = [
                AgentProfile(
                    id="a1", framework="A", privilege=Privilege.LOW, heartbeat_period=1,
                    channels=("c0",),
                    compliance={
                        InjectionPosition.USER_PROMPT: bernoulli(0.5),
                        InjectionPosition.SYSTEM_PROMPT: NEVER,
                    },
                ),
            ]
            return run_scenario(tiny_scenario(agents=agents, seed=seed, max_ticks=8)).trace_text

        assert run(1) == run(1)
        texts = {run(s) for s in range(8)}
        assert len(texts) > 1, "p=0.5 must land on both sides across seeds"


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        from reentryguard import load_bundled

        first = run_scenario(load_bundled("fwA")).trace_text
        second = run_scenario(load_bundled("fwA")).trace_text
        assert first == second

    def test_different_seeds_may_differ_only_via_rng(self):
        """fwA uses deterministic compliance, so even a different seed yields
        the same event sequence apart from the header seed line."""
        from reentryguard import load_bundled

        base = load_bundled("fwA")
        other = replace(base, seed=99)
        first = [l for l in run_scenario(base).trace_text.splitlines() if not l.startswith("# seed")]
        second = [l for l in run_scenario(other).trace_text.splitlines() if not l.startswith("# seed")]
        assert first == second


    def test_header_snapshot_is_taken_at_construction(self):
        """The header holds the labels of session start: run() relabels
        carriers on undefended fwA but leaves eco.meta as it was built."""
        from reentryguard import load_bundled

        scenario = load_bundled("fwA")
        eco = Ecosystem(scenario)
        built = deepcopy(eco.meta)
        trace = eco.run()
        assert eco.meta == built
        assert any(eco.carriers[c.id].label is not c.label for c in built.carriers)
        assert render_trace(trace, eco.meta) == run_scenario(scenario).trace_text


class TestMediationSoundness:
    def test_denied_writes_leave_no_trace_effect(self, bundled):
        """Under seal, config carriers stay clean forever: every later opaque
        read of a config carrier still observes the baseline label."""
        meta, events = parse_trace(bundled("fwA", enforce="seal").trace_text)
        config_ids = {c.id for c in meta.carriers if c.cls == "static_config"}
        denied = 0
        for ev in events:
            if ev.carrier_id not in config_ids:
                continue
            if ev.kind is EventKind.WRITE:
                assert ev.decision.verdict is Verdict.DENY
                denied += 1
            elif ev.kind is EventKind.OPAQUE_READ:
                assert ev.label == TaintLabel.CLEAN
        assert denied > 0

    def test_every_effectful_event_carries_decision(self, bundled):
        from reentryguard.model import EFFECTFUL_KINDS

        for name in ("fwA", "fwB", "fwC", "cross_framework"):
            _, events = parse_trace(bundled(name).trace_text)
            for ev in events:
                if ev.kind in EFFECTFUL_KINDS:
                    assert ev.decision is not None

    def test_attacker_has_no_events_after_injection(self, bundled):
        for name in ("fwA", "fwB", "fwC", "cross_framework"):
            meta, events = parse_trace(bundled(name).trace_text)
            attacker_events = [ev for ev in events if ev.agent == meta.attacker]
            assert len(attacker_events) == 1
            assert attacker_events[0].kind is EventKind.INJECT


class TestPropagationShape:
    def test_heartbeat_bound_on_hop_latency(self, bundled):
        """Undefended, each next hop lands within one receiver heartbeat period
        of the previous infection."""
        for name in ("fwA", "fwB", "fwC"):
            result = bundled(name)
            report = result.report
            meta, _ = parse_trace(result.trace_text)
            periods = {a.id: a.period for a in meta.agents}
            ticks = report.infection_ticks
            agents = report.infected
            for prev, (agent, tick) in zip(ticks, list(zip(agents, ticks))[1:]):
                assert tick - prev <= periods[agent] + 1

    def test_degradation_strength_four_contains_worm(self):
        from reentryguard import load_bundled

        base = load_bundled("fwA")
        degraded = replace(base, transform_default=PERSIST_DROP_STRENGTH)
        report = run_scenario(degraded).report
        assert report.infected == ["a1"]

    def test_exfiltration_blocked_by_attenuation(self, bundled):
        assert bundled("exfiltration").report.exfiltration
        assert not bundled("exfiltration", enforce="attenuation").report.exfiltration

    def test_declassified_carrier_reads_clean_until_rewritten(self):
        """Runtime declassification resets the carrier label: the next exposed
        read observes clean unless an untrusted write lands in between."""
        from reentryguard import load_bundled

        base = load_bundled("fwA")
        cured = replace(base, declassify_carrier_of=[("a1", 2)], resets=[("a1", 2)])
        _, events = parse_trace(run_scenario(cured).trace_text)
        declassified = [ev for ev in events if ev.kind is EventKind.DECLASSIFY]
        assert declassified
        assert any(ev.kind is EventKind.CONTEXT_RESET for ev in events)
        target = declassified[0].carrier_id
        start = events.index(declassified[0])
        for ev in events[start + 1 :]:
            if ev.carrier_id != target:
                continue
            if ev.kind is EventKind.WRITE and ev.label is not None and ev.label.untrusted:
                break
            if ev.kind is EventKind.EXPOSED_READ:
                assert ev.label == TaintLabel.CLEAN
                break
