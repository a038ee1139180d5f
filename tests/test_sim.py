"""Simulator semantics: transformation, scheduling, compliance, determinism."""

from collections import Counter
from copy import deepcopy
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reentryguard import cli, sim, tracelog
from reentryguard.model import (
    Carrier,
    Decision,
    FACET_VALUES,
    EventKind,
    FrozenEvent,
    GuardMode,
    PayloadFacets,
    Privilege,
    TaintLabel,
    Verdict,
)
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import (
    CAPABILITY_PRESETS,
    FRAMEWORKS,
    NEVER,
    SEEDED_SLOTS,
    AgentProfile,
    Injection,
    Scenario,
    ScenarioError,
    SeededCarrier,
    bernoulli,
    bundled_names,
    load_bundled,
    random_scenario,
    with_capabilities,
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
        agents=(
            AgentProfile(id="a1", framework="A", privilege=Privilege.LOW,
                         period=2, channels=("c0",)),
        ),
        channels=("c0",),
        injection=Injection(channel="c0", tick=0, facets=FACET_VALUES["1111"]),
    )
    defaults.update(kw)
    return Scenario(**defaults)


facet_strategy = st.builds(
    PayloadFacets,
    persist=st.booleans(),
    propagate=st.booleans(),
    harm=st.booleans(),
    verbatim=st.booleans(),
)


class TestAgentLayout:
    def test_framework_counts_place_every_carrier(self):
        """An agent's own header carriers, in id order, are its framework's
        system_carriers system-prompt ones, then its user_carriers
        user-prompt ones."""
        seen = set()
        for seed in range(40):
            eco = Ecosystem(random_scenario(seed))
            meta, _ = parse_trace(render_trace([], eco.meta))
            for agent in eco.agents.values():
                fw = FRAMEWORKS[agent.framework]
                positions = [c.injection for c in meta.carriers if c.owner == agent.id]
                system = [InjectionPosition.SYSTEM_PROMPT] * fw.system_carriers
                assert positions == system + [InjectionPosition.USER_PROMPT] * fw.user_carriers
                seen.add(agent.framework)
        assert seen == set(FRAMEWORKS)

    def test_seeded_slots_in_draw_order(self):
        # random_scenario draws from this tuple, and the lock pins its seeds
        assert SEEDED_SLOTS == ("heartbeat", "task", "ondemand")

    @pytest.mark.parametrize(
        "slot, name", [("heartbeat", "a1.taskfile"), ("task", "a1.taskstate"), ("ondemand", "a1.notes0")]
    )
    def test_seeded_slot_seeds_its_layout_row(self, slot, name):
        eco = Ecosystem(tiny_scenario(seeded=[SeededCarrier("a1", slot, FACET_VALUES["1111"])]))
        external = [c.name for c in eco.carriers.values() if c.owner == "a1" and c.label0 is TaintLabel.EXTERNAL]
        assert external == [name]


class TestTransformPayload:
    def test_strength_zero_is_identity(self):
        facets = FACET_VALUES["1111"]
        assert transform_payload(facets, 0) == facets

    def test_strength_one_drops_verbatim_only(self):
        out = transform_payload(FACET_VALUES["1111"], 1)
        assert out.token() == "1110"

    def test_drop_order_is_verbatim_harm_propagate_persist(self):
        assert FACET_DROP_ORDER == ("verbatim", "harm", "propagate", "persist")
        # token char order is persist,propagate,harm,verbatim
        tokens = [transform_payload(FACET_VALUES["1111"], k).token() for k in range(5)]
        assert tokens == ["1111", "1110", "1100", "1000", "0000"]

    def test_persist_threshold_kills_everything(self):
        assert not transform_payload(FACET_VALUES["1111"], PERSIST_DROP_STRENGTH).any

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            transform_payload(FACET_VALUES["1111"], -1)

    @given(facet_strategy, st.integers(min_value=0, max_value=6))
    def test_output_is_subset_of_input(self, facets, strength):
        assert transform_payload(facets, strength).union(facets) is facets

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
        """The simulator and the parser give every event one of the 8
        Decision members; a decision compares by identity."""
        shared = {id(d) for d in Decision}
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
        with pytest.raises(ScenarioError):
            replace(base, agents=base.agents + base.agents)

    def test_unknown_injection_channel(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(injection=Injection(channel="nope", tick=0, facets=FACET_VALUES["1111"]))

    def test_unknown_agent_channel(self):
        agents = [
            AgentProfile(id="a1", framework="A", privilege=Privilege.LOW,
                         period=2, channels=("ghost",)),
        ]
        with pytest.raises(ScenarioError):
            tiny_scenario(agents=agents)

    def test_reserved_attacker_id(self):
        agents = [
            AgentProfile(id="attacker", framework="A", privilege=Privilege.LOW,
                         period=2, channels=("c0",)),
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
                         period=1, channels=("c0",)),
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
                id="a1", framework="A", privilege=Privilege.HIGH, period=1,
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
                    id="a1", framework="A", privilege=Privilege.LOW, period=1,
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

    @pytest.mark.parametrize("token, draws", [("0000", False), ("1000", True)])
    def test_a_read_that_surfaces_no_facets_draws_nothing(self, token, draws, monkeypatch):
        """A heartbeat draws compliance only for an effective read that
        surfaces facets: the seeded task file read at each turn draws
        nothing when it holds 0000, and the counter sees the draws of 1000."""
        calls = []
        complies = AgentProfile.complies

        def counted(profile, position, rng):
            calls.append(position)
            return complies(profile, position, rng)

        monkeypatch.setattr(AgentProfile, "complies", counted)
        agent = replace(tiny_scenario().agents[0], period=1, compliance={InjectionPosition.USER_PROMPT: bernoulli(0.5)})
        scenario = tiny_scenario(
            agents=(agent,), injection=None, seeded=(SeededCarrier("a1", "heartbeat", FACET_VALUES[token]),)
        )
        result = run_scenario(scenario)
        taskfile = next(c.id for c in Ecosystem(scenario).carriers.values() if c.name == "a1.taskfile")
        reads = [ev for ev in result.trace if ev.kind is EventKind.EXPOSED_READ and ev.carrier_id == taskfile]
        assert len(reads) == scenario.max_ticks and all(ev.decision is Decision.ALLOW for ev in reads)
        assert bool(calls) is draws


class TestPayloadTurn:
    def test_only_a_contaminated_agent_acts_on_a_payload(self, monkeypatch):
        """The payload turn proposes everything as tainted content and checks
        no contamination, because facets only ever arrive from an untrusted
        carrier or message: the read that surfaced them contaminated the
        agent. Every call that carries facets comes from a contaminated
        agent, over the bundled scenarios under each capability preset and
        fuzz seeds 0-99 capped at 6 ticks, in both guard modes. A clean agent
        holding facet-bearing content would break this, and with it every
        label the turn writes: a seeded carrier labelled clean, say, or a
        typed promotion that admits facets into trusted memory."""
        calls, clean = 0, []
        act = Ecosystem._act_on_payload

        def checked(eco, tick, agent, was_clean, facets, *rest):
            nonlocal calls
            if facets.any:
                calls += 1
                if not eco.states[agent].contaminated:
                    clean.append((eco.scenario.name, eco.config.names(), tick, agent))
            return act(eco, tick, agent, was_clean, facets, *rest)

        monkeypatch.setattr(Ecosystem, "_act_on_payload", checked)
        runs = [
            (with_capabilities(load_bundled(name), preset), enforce)
            for name in bundled_names()
            for preset in CAPABILITY_PRESETS
            for enforce in ("none", "all")
        ]
        fuzz = [replace(s, max_ticks=min(s.max_ticks, 6)) for s in map(random_scenario, range(100))]
        runs += [(s, enforce) for s in fuzz for enforce in ("none", "all", "rtw,seal")]
        for scenario, enforce in runs:
            for guard in GuardMode:
                Ecosystem(replace(scenario, enforcement=EnforcementConfig.from_names(enforce, guard))).run()
        assert calls > len(runs)
        assert not clean, f"{len(clean)} calls from a clean agent, first {clean[:3]}"


class TestMessageTurnReplay:
    """A message turn that repeats a kept fixed-point turn of its tick is
    replayed (sim's module docstring); the lock pins that the trace bytes
    are the live turn's."""

    def test_replay_draws_compliance_like_a_live_turn(self, monkeypatch):
        """Each message turn draws compliance once, after an effective feed
        read, whether it runs live or is replayed: over undefended fuzz
        seeds 0-99 that have a Bernoulli receiver, at the storm benchmark's
        8 ticks, the draws inside _message_turn equal the effective
        exposed_reads that directly follow a msg_recv, and some of those
        receivers' turns are replayed."""
        inside, draws, replays = [False], [0], [0]
        complies, turn, replay = AgentProfile.complies, Ecosystem._message_turn, Ecosystem._replay

        def lossy(profile):
            return profile.compliance[InjectionPosition.USER_PROMPT].kind == "bernoulli"

        def counted(profile, position, rng):
            draws[0] += inside[0]
            return complies(profile, position, rng)

        def in_turn(eco, *args):
            inside[0] = True
            try:
                turn(eco, *args)
            finally:
                inside[0] = False

        def counted_replay(eco, events):
            # a kept turn's first events are its msg_recv and feed read
            replays[0] += bool(events) and events[0].kind is EventKind.MSG_RECV and lossy(eco.agents[events[0].agent])
            replay(eco, events)

        monkeypatch.setattr(AgentProfile, "complies", counted)
        monkeypatch.setattr(Ecosystem, "_message_turn", in_turn)
        monkeypatch.setattr(Ecosystem, "_replay", counted_replay)
        scenarios = [replace(random_scenario(seed), max_ticks=8) for seed in range(100)]
        scenarios = [s for s in scenarios if any(map(lossy, s.agents))]
        assert len(scenarios) > 20
        for scenario in scenarios:
            draws[0] = 0
            eco = Ecosystem(scenario)
            trace = eco.run()
            reads = sum(
                ev.kind is EventKind.EXPOSED_READ and prev.kind is EventKind.MSG_RECV and ev.decision in eco.effective
                for prev, ev in zip(trace, trace[1:])
            )
            assert draws[0] == reads, scenario.name
        assert replays[0] > 0

    def test_replayed_events_are_shared_and_read_only(self):
        """A replay puts the kept turn's event objects at more than one
        trace position, so in run_scenario's trace each shared event is a
        FrozenEvent."""
        trace = run_scenario(replace(random_scenario(21, EnforcementConfig.from_names("rtw")), max_ticks=8)).trace
        positions = Counter(map(id, trace))
        shared = [ev for ev in trace if positions[id(ev)] > 1]
        assert shared
        assert all(type(ev) is FrozenEvent for ev in shared)
        with pytest.raises(FrozenInstanceError):
            shared[0].decision = None
        with pytest.raises(FrozenInstanceError):
            shared[-1].label = TaintLabel.CLEAN

    def test_replay_mediates_each_decision_and_refuses_a_change(self, monkeypatch):
        """Replay calls mediate() for every decision-carrying event it emits
        and raises when the decision is not the kept one, rather than emit
        the kept line. A live event is mediated before it holds a decision,
        so the patch below changes only replays."""
        mediate = sim.mediate

        def denying_replays(event, ctx, config):
            decided = mediate(event, ctx, config)
            return Decision.DENY_RE_ENTRY if event.decision is not None else decided

        monkeypatch.setattr(sim, "mediate", denying_replays)
        with pytest.raises(RuntimeError, match="mediate\\(\\) decided DENY_RE_ENTRY, the kept turn ALLOW"):
            Ecosystem(replace(random_scenario(21), max_ticks=8)).run()


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
        """The header holds the simulator's own carrier records and their
        labels of session start: run() relabels carriers on undefended fwA
        but leaves eco.meta as it was built."""
        from reentryguard import load_bundled

        scenario = load_bundled("fwA")
        eco = Ecosystem(scenario)
        assert all(c is eco.carriers[c.id] for c in eco.meta.carriers)
        assert eco.labels == {c.id: c.label0 for c in eco.meta.carriers}
        built = deepcopy(eco.meta)
        trace = eco.run()
        assert eco.meta == built
        assert any(eco.labels[c.id] is not c.label0 for c in built.carriers)
        assert render_trace(trace, eco.meta) == run_scenario(scenario).trace_text


def _plan_corpus() -> list[Scenario]:
    """The bundled scenarios, undefended and fully enforced, and fuzz seeds 0-29."""
    from reentryguard import load_bundled

    bundled = [
        replace(load_bundled(name), enforcement=EnforcementConfig.from_names(enforce))
        for name in bundled_names()
        for enforce in ("none", "all")
    ]
    return bundled + [random_scenario(seed, EnforcementConfig.all_enabled()) for seed in range(30)]


def _outputs(scenarios: list[Scenario]) -> list[tuple[str, str]]:
    """Each run's trace text and machine record."""
    results = [run_scenario(scenario) for scenario in scenarios]
    return [(r.trace_text, cli.render_machine("report", cli.report_record(r.report))) for r in results]


class TestAgentPlans:
    """Carrier blocks are built once per process and shared across runs;
    each run fills in only its own labels, contents and agent plans."""

    def test_cold_equals_warm(self):
        corpus = _plan_corpus()
        sim._BLOCKS.clear()
        cold = _outputs(corpus)
        assert sim._BLOCKS
        assert _outputs(corpus) == cold

    def test_small_bound_holds_and_changes_nothing(self, monkeypatch):
        corpus = _plan_corpus()
        sim._BLOCKS.clear()
        expected = _outputs(corpus)
        monkeypatch.setattr(tracelog, "_MEMO_BOUND", 2)
        sim._BLOCKS.clear()
        for _ in range(2):
            for scenario, output in zip(corpus, expected):
                assert _outputs([scenario]) == [output]
                assert 0 < len(sim._BLOCKS) <= 2

    def test_nothing_leaks_between_runs(self):
        from reentryguard import load_bundled

        scenario = load_bundled("fwA")
        run_scenario(scenario)
        eco = Ecosystem(scenario)
        assert all(eco.labels[c.id] is c.label0 for c in eco.carriers.values())
        assert not eco.contents
        cset = eco.carrier_sets["a1"]
        with pytest.raises(FrozenInstanceError):
            cset.can_write = False
        with pytest.raises(FrozenInstanceError):
            cset.heartbeat_reads = ()
        # no run's heartbeat logs or labels reached a shared block
        for (make, key), block in sim._BLOCKS.items():
            assert block == make(*key)

    def test_second_build_constructs_no_carrier(self, monkeypatch):
        """A tripwire that counts: once a run has built a block, another
        build of the same scenario makes no Carrier at all."""
        scenarios = [random_scenario(seed, EnforcementConfig.all_enabled()) for seed in range(30)]
        sim._BLOCKS.clear()
        for scenario in scenarios:
            Ecosystem(scenario)
        made = []
        post_init = Carrier.__post_init__

        def counted(carrier):
            made.append(carrier.id)
            post_init(carrier)

        monkeypatch.setattr(Carrier, "__post_init__", counted)
        Ecosystem(tiny_scenario(name="fresh", agents=(replace(tiny_scenario().agents[0], id="fresh"),)))
        assert made, "the counter sees a construction"
        made.clear()
        for scenario in scenarios:
            Ecosystem(scenario)
        assert made == []


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
        cured = replace(base, declassify=[("a1", 2)], resets=[("a1", 2)])
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
