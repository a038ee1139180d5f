"""Taint engine: initial labels, write propagation, contamination, declassification."""

from dataclasses import replace
from itertools import combinations

import pytest

from reentryguard import load_bundled
from reentryguard.model import (
    FACET_VALUES,
    CarrierClass,
    EventKind,
    Privilege,
    TaintLabel,
)
from reentryguard.policy import EnforcementConfig, attenuated
from reentryguard.scenarios import Capability, scenario_from_dict
from reentryguard.sim import Ecosystem
from reentryguard.taint import (
    AgentDecisionState,
    content_label,
    context_reset,
    mark_contamination,
    propagate_on_write,
)


def clean_state() -> AgentDecisionState:
    return AgentDecisionState(capable=True)


def dirty_state() -> AgentDecisionState:
    return mark_contamination(clean_state())


def ecosystem(**extra) -> Ecosystem:
    """A low- and a high-privilege agent sharing one channel, built but not run."""
    data = {
        "channels": ["c0"],
        "agents": [
            {"id": "lo", "framework": "A", "privilege": "low", "period": 1, "channels": ["c0"]},
            {"id": "hi", "framework": "A", "privilege": "high", "period": 1, "channels": ["c0"]},
        ],
    }
    return Ecosystem(scenario_from_dict(data | extra))


class TestInitialLabel:
    def test_signed_baseline_is_clean(self):
        # only the channel feeds start untrusted in an unseeded ecosystem
        eco = ecosystem()
        for carrier in eco.carriers.values():
            external = carrier.cls is CarrierClass.EXTERNAL_SOURCE
            assert carrier.label0 is eco.labels[carrier.id] is (TaintLabel.EXTERNAL if external else TaintLabel.CLEAN)

    def test_seeded_slot_starts_external(self):
        eco = ecosystem(seeded=[{"agent": "lo", "slot": "task", "facets": "1110"}])
        task = eco.carrier_sets["lo"].task
        assert task.label0 is eco.labels[task.id] is TaintLabel.EXTERNAL
        assert eco.contents == {task.id: FACET_VALUES["1110"]}

    def test_agent_written_tracks_writer_state(self):
        assert content_label(clean_state(), TaintLabel.CLEAN) is TaintLabel.CLEAN
        assert content_label(dirty_state(), TaintLabel.CLEAN) is TaintLabel.TAINTED_DERIVED


class TestPropagateOnWrite:
    # rule table: contaminated writer always emits tainted_derived; a clean
    # writer relaying untrusted content emits tainted; clean-on-clean leaves
    # the target label alone (overwrite never cleanses)
    def _expected(self, contaminated: bool, origin: TaintLabel, target_label: TaintLabel) -> TaintLabel:
        if contaminated:
            return TaintLabel.TAINTED_DERIVED
        if origin is not TaintLabel.CLEAN:
            return TaintLabel.TAINTED
        return target_label

    def test_clean_writer_clean_content_keeps_target_label(self):
        assert propagate_on_write(clean_state(), TaintLabel.CLEAN, TaintLabel.CLEAN) is TaintLabel.CLEAN

    def test_contaminated_writer_always_tainted_derived(self):
        for origin in TaintLabel:
            assert propagate_on_write(dirty_state(), TaintLabel.CLEAN, origin) is TaintLabel.TAINTED_DERIVED

    def test_clean_writer_relaying_external_taints(self):
        assert propagate_on_write(clean_state(), TaintLabel.CLEAN, TaintLabel.EXTERNAL) is TaintLabel.TAINTED

    def test_overwrite_is_not_declassification(self):
        assert propagate_on_write(clean_state(), TaintLabel.TAINTED, TaintLabel.CLEAN) is TaintLabel.TAINTED

    def test_full_writer_origin_target_matrix(self):
        """Exhaustive 2 x 4 x 4 sweep against the independently stated rule."""
        for contaminated in (False, True):
            writer = dirty_state() if contaminated else clean_state()
            for origin in TaintLabel:
                for target_label in TaintLabel:
                    got = propagate_on_write(writer, target_label, origin)
                    assert got is self._expected(contaminated, origin, target_label)


class TestContamination:
    def test_clean_source_does_not_contaminate(self):
        # the caller marks only on untrusted reads; this checks no implicit flip
        state = clean_state()
        assert not state.contaminated

    def test_mark_contamination_sets_flag(self):
        assert mark_contamination(clean_state()).contaminated

    def test_no_self_clearing(self):
        state = dirty_state()
        again = mark_contamination(state)
        assert again.contaminated

    def test_context_reset_clears_contamination_and_restores_caps(self):
        assert dirty_state().capable
        assert context_reset(dirty_state()) == clean_state()
        bare = AgentDecisionState(capable=False)
        assert context_reset(mark_contamination(bare)) == bare

    def test_attenuation_lasts_until_reset(self):
        """Attenuation takes the capability from a contaminated context only
        while its layer is on, and a reset gives it back."""
        on, off = EnforcementConfig.from_names("attenuation"), EnforcementConfig.none()
        assert not attenuated(clean_state(), on)
        assert attenuated(dirty_state(), on)
        assert not attenuated(dirty_state(), off)
        assert not attenuated(context_reset(dirty_state()), on)


class TestCapabilities:
    # capability -> the privileges at which it grants a high-risk action:
    # file writes reach config, memory, autoloaded and shared carriers and
    # messages leave the agent at any privilege; shell and network need high
    GRANTED_AT = {
        Capability.FILE_WRITE: {Privilege.LOW, Privilege.HIGH},
        Capability.MESSAGING: {Privilege.LOW, Privilege.HIGH},
        Capability.SHELL: {Privilege.HIGH},
        Capability.NETWORK: {Privilege.HIGH},
    }

    @pytest.mark.parametrize("privilege", Privilege, ids=lambda p: p.value)
    def test_capable_truth_table(self, privilege):
        """capable over every subset of Capability.ALL, built by the simulator
        from the agent's privilege and capability list."""
        for n in range(len(Capability.ALL) + 1):
            for caps in combinations(sorted(Capability.ALL), n):
                agent = {"id": "a1", "privilege": privilege.value, "capabilities": list(caps)}
                eco = Ecosystem(scenario_from_dict({"channels": ["c0"], "agents": [agent]}))
                expected = any(privilege in self.GRANTED_AT[cap] for cap in caps)
                assert eco.states["a1"] == AgentDecisionState(capable=expected), caps


class TestDeclassify:
    @pytest.mark.parametrize("tick", [2, 5, 8])
    def test_effective_declassification_clears_label_and_content(self, tick):
        """On undefended fwA, a1 writes the worm into its heartbeat carrier
        at tick 1. Right after a declassification of it takes effect, before
        any later write of the tick can land, the simulator holds the carrier
        clean and without content."""
        eco = Ecosystem(replace(load_bundled("fwA"), declassify=[("a1", tick)]))
        cid = eco.carrier_sets["a1"].heartbeat.id
        maintain = eco._scheduled_maintenance
        observed = []

        def maintenance(t: int) -> None:
            before = eco.labels[cid], eco.contents.get(cid)
            maintain(t)
            if t == tick:
                observed.append((before, eco.labels[cid], cid in eco.contents))

        eco._scheduled_maintenance = maintenance
        trace = eco.run()
        [declassify] = [ev for ev in trace if ev.kind is EventKind.DECLASSIFY]
        assert declassify.carrier_id == cid and declassify.decision in eco.effective
        [((label_before, content_before), label, held)] = observed
        assert label_before.untrusted and content_before is not None
        assert label is TaintLabel.CLEAN and not held


class TestTraceLevelProperties:
    def test_derived_taint_closure(self, bundled, contamination):
        """Every effective write by a contaminated agent lands as tainted_derived."""
        from reentryguard.model import EventKind, Verdict
        from reentryguard.tracelog import parse_trace

        for name in ("fwA", "fwB", "fwC", "cross_framework"):
            meta, events = parse_trace(bundled(name).trace_text)
            contaminated = contamination(events, meta)
            seen = 0
            for i, ev in enumerate(events):
                if ev.kind is EventKind.WRITE and ev.decision.verdict is Verdict.ALLOW and contaminated[i]:
                    assert ev.label is TaintLabel.TAINTED_DERIVED
                    seen += 1
            assert seen > 0

    def test_trust_monotonicity(self, bundled):
        """Read events record the carrier label at read time. Once a carrier is
        observed untrusted, later reads never observe clean again unless the
        carrier was declassified in between."""
        from reentryguard.model import EventKind, Verdict
        from reentryguard.tracelog import parse_trace

        reads = (EventKind.EXPOSED_READ, EventKind.OPAQUE_READ)
        for name in ("fwA", "fwB", "cross_framework"):
            meta, events = parse_trace(bundled(name).trace_text)
            dirty: set[int] = set()
            for ev in events:
                if ev.carrier_id is None:
                    continue
                if ev.kind is EventKind.DECLASSIFY and ev.decision.verdict is Verdict.ALLOW:
                    dirty.discard(ev.carrier_id)
                    continue
                if ev.kind not in reads or ev.label is None:
                    continue
                if ev.carrier_id in dirty:
                    assert ev.label.untrusted, f"{name}: carrier {ev.carrier_id} self-cleansed"
                if ev.label.untrusted:
                    dirty.add(ev.carrier_id)
