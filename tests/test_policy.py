"""Policy engine: mediation dispatch, attenuation, layer ownership."""

from dataclasses import replace
from itertools import combinations, product

import pytest

from reentryguard.model import (
    EFFECTFUL_KINDS,
    LAYER_NAMES,
    ActionKind,
    AutoloadPolicy,
    CarrierClass,
    CarrierScope,
    Event,
    EventKind,
    GuardMode,
    Layer,
    Reason,
    TaintLabel,
    Verdict,
)
from reentryguard.policy import (
    _RULES,
    EnforcementConfig,
    MediationContext,
    MediationError,
    attenuate,
    high_risk_write,
    mediate,
)
from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
from reentryguard.sim import run_scenario
from reentryguard.taint import AgentDecisionState, mark_contamination
from tests.test_model import make_carrier

# a context whose deployment grants high-risk actions
CAPABLE = AgentDecisionState(capable=True)


def ctx_with(carriers: dict, states: dict, leases=None, candidates=None) -> MediationContext:
    return MediationContext(
        carriers=carriers,
        states=states,
        candidates=candidates or {},
        leases=leases or {},
    )


def write_event(carrier_id: int, agent: str = "a1", tick: int = 1) -> Event:
    return Event(tick=tick, agent=agent, kind=EventKind.WRITE, carrier_id=carrier_id)


class TestClassifyWrite:
    def test_config_write_is_high_risk(self):
        c = make_carrier(cls=CarrierClass.STATIC_CONFIG, autoload=AutoloadPolicy.SESSION_START)
        assert high_risk_write(c) is True

    def test_trusted_memory_write(self):
        c = make_carrier(cls=CarrierClass.TRUSTED_MEMORY)
        assert high_risk_write(c) is True

    def test_autoloaded_carrier_write(self):
        c = make_carrier(autoload=AutoloadPolicy.HEARTBEAT)
        assert high_risk_write(c) is True

    def test_shared_scope_write(self):
        c = make_carrier(scope=CarrierScope.SHARED_CROSS_AGENT)
        assert high_risk_write(c) is True

    def test_plain_workspace_write_is_low_risk(self):
        c = make_carrier(autoload=AutoloadPolicy.ON_DEMAND)
        assert high_risk_write(c) is False


class TestAttenuate:
    def test_contaminated_deny_all(self):
        state = mark_contamination(CAPABLE)
        decision = attenuate(state, EnforcementConfig.all_enabled())
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.ATTENUATED_HIGHRISK

    def test_contaminated_approve_all_guards(self):
        state = mark_contamination(CAPABLE)
        config = EnforcementConfig.all_enabled(GuardMode.APPROVE_ALL)
        decision = attenuate(state, config)
        assert decision.verdict is Verdict.GUARD

    def test_clean_agent_allowed(self):
        state = CAPABLE
        assert attenuate(state, EnforcementConfig.all_enabled()).verdict is Verdict.ALLOW

    def test_contaminated_context_without_capabilities_denied(self):
        # the gate reads contamination, not what the deployment grants
        state = mark_contamination(AgentDecisionState(capable=False))
        assert attenuate(state, EnforcementConfig.all_enabled()).verdict is Verdict.DENY

    def test_layer_disabled_allows(self):
        state = mark_contamination(CAPABLE)
        assert attenuate(state, EnforcementConfig.none()).verdict is Verdict.ALLOW


class TestMediateWrite:
    def test_sealed_config_denied(self):
        config_carrier = make_carrier(
            cid=1, cls=CarrierClass.STATIC_CONFIG, autoload=AutoloadPolicy.SESSION_START
        )
        ctx = ctx_with({1: config_carrier}, {"a1": CAPABLE})
        decision = mediate(write_event(1), ctx, EnforcementConfig.from_names("seal"))
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.SEALED_CONFIG
        assert decision.layer is Layer.SEAL

    def test_sealed_config_passes_with_seal_off(self):
        config_carrier = make_carrier(
            cid=1, cls=CarrierClass.STATIC_CONFIG, autoload=AutoloadPolicy.SESSION_START
        )
        ctx = ctx_with({1: config_carrier}, {"a1": CAPABLE})
        assert mediate(write_event(1), ctx, EnforcementConfig.none()).verdict is Verdict.ALLOW

    def test_task_local_write_needs_live_lease(self):
        task = make_carrier(cid=1, cls=CarrierClass.TASK_LOCAL_STATE)
        ctx = ctx_with(
            {1: task},
            {"a1": CAPABLE},
            leases={1: (0, 4)},
        )
        config = EnforcementConfig.from_names("memgate")
        assert mediate(write_event(1, tick=4), ctx, config).verdict is Verdict.ALLOW
        late = mediate(write_event(1, tick=5), ctx, config)
        assert late.verdict is Verdict.DENY
        assert late.reason is Reason.LEASE_EXPIRED

    def test_trusted_memory_direct_write_is_gate_bypass(self):
        memory = make_carrier(cid=1, cls=CarrierClass.TRUSTED_MEMORY)
        ctx = ctx_with({1: memory}, {"a1": CAPABLE})
        decision = mediate(write_event(1), ctx, EnforcementConfig.from_names("memgate"))
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.PROMOTION_REJECTED

    def test_contaminated_high_risk_write_attenuated(self):
        heartbeat = make_carrier(cid=1, autoload=AutoloadPolicy.HEARTBEAT)
        state = mark_contamination(CAPABLE)
        ctx = ctx_with({1: heartbeat}, {"a1": state})
        decision = mediate(write_event(1), ctx, EnforcementConfig.from_names("attenuation"))
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.ATTENUATED_HIGHRISK

    def test_ordinary_write_by_contaminated_agent_allowed(self):
        # on-demand local files are below the high-risk bar even for a
        # contaminated writer; labels carry the consequence instead
        notes = make_carrier(cid=1, autoload=AutoloadPolicy.ON_DEMAND)
        state = mark_contamination(CAPABLE)
        ctx = ctx_with({1: notes}, {"a1": state})
        assert mediate(write_event(1), ctx, EnforcementConfig.all_enabled()).verdict is Verdict.ALLOW


class TestMediateRead:
    def test_tainted_workspace_read_by_high_cap_denied(self):
        f = make_carrier(cid=1, label0=TaintLabel.TAINTED)
        ctx = ctx_with({1: f}, {"a1": CAPABLE})
        event = Event(tick=1, agent="a1", kind=EventKind.EXPOSED_READ, carrier_id=1, label=TaintLabel.TAINTED)
        decision = mediate(event, ctx, EnforcementConfig.from_names("rtw"))
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.RTW_RE_ENTRY

    def test_gate_reads_the_derived_capability(self):
        """Deny iff rtw is on, the label is untrusted and the reader holds a
        high-risk capability: its deployment grants one and it is not a
        contaminated context under attenuation with deny-mode guards. Under
        approve-mode guards its attenuated actions still take effect."""
        f = make_carrier(cid=1)
        for rtw, attenuation, capable, contaminated, label, guard in product(
            (False, True), (False, True), (False, True), (False, True), TaintLabel, GuardMode
        ):
            config = EnforcementConfig(rtw=rtw, attenuation=attenuation, guard_mode=guard)
            state = AgentDecisionState(capable=capable, contaminated=contaminated)
            ctx = ctx_with({1: f}, {"a1": state})
            event = Event(tick=1, agent="a1", kind=EventKind.EXPOSED_READ, carrier_id=1, label=label)
            holds = capable and not (attenuation and contaminated and guard is GuardMode.DENY_ALL)
            expected = Verdict.DENY if rtw and label.untrusted and holds else Verdict.ALLOW
            assert mediate(event, ctx, config).verdict is expected, (config, state, label)

    def test_external_source_read_not_rtw_gated(self):
        # unavoidable input: its cut sits after the read, on the actions
        src = make_carrier(cid=1, cls=CarrierClass.EXTERNAL_SOURCE, label0=TaintLabel.EXTERNAL)
        ctx = ctx_with({1: src}, {"a1": CAPABLE})
        event = Event(tick=1, agent="a1", kind=EventKind.EXPOSED_READ, carrier_id=1, label=TaintLabel.EXTERNAL)
        assert mediate(event, ctx, EnforcementConfig.all_enabled()).verdict is Verdict.ALLOW

    def test_opaque_read_always_allowed(self):
        f = make_carrier(cid=1, label0=TaintLabel.TAINTED)
        ctx = ctx_with({1: f}, {"a1": CAPABLE})
        event = Event(tick=1, agent="a1", kind=EventKind.OPAQUE_READ, carrier_id=1)
        decision = mediate(event, ctx, EnforcementConfig.all_enabled())
        assert decision.verdict is Verdict.ALLOW
        assert decision.reason is Reason.NOT_MEDIATED_LOWRISK


class TestMediatePromote:
    def _ctx(self) -> MediationContext:
        from reentryguard.model import SchemaKind
        from tests.test_memgate import candidate

        submitted = {1: candidate(cid=1), 2: candidate(cid=2, schema=SchemaKind.FREE_FORM_INSTRUCTION)}
        return ctx_with({}, {"a1": CAPABLE}, candidates={"a1": submitted})

    def test_conforming_promotion_allowed(self):
        event = Event(tick=1, agent="a1", kind=EventKind.PROMOTE, carrier_id=1)
        assert mediate(event, self._ctx(), EnforcementConfig.from_names("memgate")).verdict is Verdict.ALLOW

    def test_forbidden_schema_rejected(self):
        event = Event(tick=1, agent="a1", kind=EventKind.PROMOTE, carrier_id=2)
        decision = mediate(event, self._ctx(), EnforcementConfig.from_names("memgate"))
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.PROMOTION_REJECTED

    def test_gate_off_promotes_anything(self):
        event = Event(tick=1, agent="a1", kind=EventKind.PROMOTE, carrier_id=2)
        assert mediate(event, self._ctx(), EnforcementConfig.none()).verdict is Verdict.ALLOW


class TestMediationTotality:
    def test_rules_cover_exactly_the_effectful_kinds(self):
        """The auditor refuses a decision-less line of an effectful kind, and
        mediate() raises for a kind without a rule: the two sets must agree."""
        assert set(_RULES) == EFFECTFUL_KINDS

    def test_unknown_kind_raises(self):
        ctx = ctx_with({}, {"a1": CAPABLE})
        event = Event(tick=1, agent="a1", kind=EventKind.HEARTBEAT)
        with pytest.raises(MediationError):
            mediate(event, ctx, EnforcementConfig.all_enabled())

    def test_all_layers_disabled_is_undefended(self):
        config_carrier = make_carrier(
            cid=1, cls=CarrierClass.STATIC_CONFIG, autoload=AutoloadPolicy.SESSION_START
        )
        state = mark_contamination(CAPABLE)
        ctx = ctx_with({1: config_carrier}, {"a1": state})
        for event in (
            write_event(1),
            Event(tick=1, agent="a1", kind=EventKind.HIGH_RISK, action=ActionKind.INVOKE_SHELL),
            Event(tick=1, agent="a1", kind=EventKind.MSG_SEND, channel="c0"),
        ):
            assert mediate(event, ctx, EnforcementConfig.none()).verdict is Verdict.ALLOW


class TestEnforcementConfig:
    def test_from_names_parses_layers(self):
        config = EnforcementConfig.from_names("rtw,seal")
        assert config.rtw and config.seal
        assert not config.memgate and not config.attenuation

    def test_all_and_none_shorthands(self):
        assert EnforcementConfig.from_names("all") == EnforcementConfig.all_enabled()
        assert EnforcementConfig.from_names("none") == EnforcementConfig.none()

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            EnforcementConfig.from_names("rtw,sparkles")


class TestLayerProperties:
    LAYER_REASONS = {
        "rtw": {Reason.RTW_RE_ENTRY.value},
        "seal": {Reason.SEALED_CONFIG.value},
        "memgate": {Reason.LEASE_EXPIRED.value, Reason.PROMOTION_REJECTED.value},
        "attenuation": {Reason.ATTENUATED_HIGHRISK.value},
    }

    def test_single_layer_produces_only_its_own_reasons(self, bundled):
        for layer, owned in self.LAYER_REASONS.items():
            report = bundled("fwA", enforce=layer).report
            assert set(report.intervention_reasons) <= owned
            assert report.intervention_reasons, f"layer {layer} never fired on fwA"

    def test_first_divergence_from_undefended_names_the_enabled_layer(self, bundled):
        """Determinism makes runs comparable line by line: the first divergence
        between the undefended trace and a single-layer trace is that layer's
        first denial."""
        base_lines = bundled("fwA").trace_text.splitlines()
        for layer, owned in self.LAYER_REASONS.items():
            lines = bundled("fwA", enforce=layer).trace_text.splitlines()
            diverged = None
            for base, enforced in zip(base_lines, lines):
                if base != enforced:
                    diverged = enforced
                    break
            assert diverged is not None
            # headers differ first on the enforcement flag line
            if diverged.startswith("#"):
                assert "enforcement" in diverged
                offset = next(
                    i for i, (b, e) in enumerate(zip(base_lines, lines)) if b != e
                )
                diverged = next(
                    e for b, e in zip(base_lines[offset + 1 :], lines[offset + 1 :]) if b != e
                )
            reason = diverged.rsplit("|", 1)[-1]
            assert reason in owned, f"{layer}: first divergent line {diverged!r}"

    def test_guard_deny_never_worse_than_approve(self, bundled):
        """DenyAll is the conservative end: ApproveAll lets guarded actions
        through, so its chain count bounds DenyAll's from above."""
        for name in ("fwA", "fwB", "cross_framework"):
            deny_chains = len(bundled(name, enforce="all").report.chains)
            approve_chains = len(
                bundled(name, enforce="all", guard=GuardMode.APPROVE_ALL).report.chains
            )
            assert deny_chains <= approve_chains

    def test_adding_a_layer_never_makes_a_run_unsafe(self):
        """Monotonicity: a run safe under a layer subset S is safe under every
        superset T, in both guard modes, over the bundled scenarios and fuzz
        seeds 0-39 capped at 6 ticks (1,472 runs). Every one of them is safe
        under all four layers."""
        bases = [load_bundled(name) for name in bundled_names()]
        bases += [replace(s, max_ticks=min(s.max_ticks, 6)) for s in map(random_scenario, range(40))]
        subsets = [frozenset(c) for k in range(len(LAYER_NAMES) + 1) for c in combinations(LAYER_NAMES, k)]
        breaks, unsafe = [], []
        for guard, base in product(GuardMode, bases):
            safe = {
                layers: run_scenario(
                    replace(base, enforcement=EnforcementConfig(guard_mode=guard, **dict.fromkeys(layers, True)))
                ).report.safe
                for layers in subsets
            }
            breaks += [
                (base.name, guard.value, sorted(s), sorted(t))
                for s in subsets
                for t in subsets
                if s < t and safe[s] and not safe[t]
            ]
            if not safe[subsets[-1]]:
                unsafe.append((base.name, guard.value))
        assert not breaks, f"{len(breaks)} breaks, first {breaks[:3]}"
        assert not unsafe
