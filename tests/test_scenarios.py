"""Scenario loading, bundled ecosystems, suites, and the fuzz sampler."""

import pytest

from reentryguard.model import GuardMode, InjectionPosition, PayloadFacets, Privilege
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import (
    bundled_names,
    load_bundled,
    load_scenario,
    load_suite,
    random_scenario,
    resolve_scenario,
    scenario_from_dict,
    suite_from_dict,
    suite_names,
    with_capabilities,
    with_enforcement,
)
from reentryguard.sim import CAPABILITY_PRESETS, Capability, ScenarioError, SeededCarrier, run_scenario

BUNDLED = ["cross_framework", "exfiltration", "fwA", "fwB", "fwC", "privilege_escalation"]


def minimal() -> dict:
    return {
        "channels": ["c0"],
        "agents": [{"id": "a1", "framework": "A", "period": 1, "channels": ["c0"]}],
    }


class TestDictParsing:
    def test_minimal_config_loads(self):
        sc = scenario_from_dict(minimal(), default_name="mini")
        assert sc.name == "mini"
        assert [a.id for a in sc.agents] == ["a1"]
        assert sc.enforcement == EnforcementConfig.none()

    def test_unknown_top_level_key_rejected(self):
        data = minimal() | {"agnets": []}
        with pytest.raises(ScenarioError, match="agnets"):
            scenario_from_dict(data)

    def test_unknown_agent_key_rejected(self):
        data = minimal()
        data["agents"][0]["perid"] = 3
        with pytest.raises(ScenarioError, match="perid"):
            scenario_from_dict(data)

    def test_channels_and_agents_required(self):
        with pytest.raises(ScenarioError, match="required"):
            scenario_from_dict({"channels": ["c0"]})
        with pytest.raises(ScenarioError, match="required"):
            scenario_from_dict({"agents": []})

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(["not", "a", "mapping"])

    def test_unknown_guard_mode(self):
        with pytest.raises(ScenarioError, match="guard"):
            scenario_from_dict(minimal() | {"guard": "maybe"})

    def test_unknown_enforcement_layer(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(minimal() | {"enforcement": "rtw,sealant"})

    def test_injection_stray_key_rejected(self):
        data = minimal() | {"injection": {"channel": "c0", "tick": 0, "payload": "1111"}}
        with pytest.raises(ScenarioError, match="injection"):
            scenario_from_dict(data)

    def test_bad_facet_token(self):
        for bad in ("111", "11111", "11a1", 1111):
            data = minimal() | {"injection": {"channel": "c0", "facets": bad}}
            with pytest.raises(ScenarioError):
                scenario_from_dict(data)

    def test_injection_into_unknown_channel(self):
        data = minimal() | {"injection": {"channel": "nope", "facets": "1111"}}
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_compliance_parsing(self):
        data = minimal()
        data["agents"][0]["compliance"] = {
            "user_prompt": {"bernoulli": 0.5},
            "system_prompt": "always",
        }
        sc = scenario_from_dict(data)
        comp = sc.agents[0].compliance
        assert comp[InjectionPosition.USER_PROMPT].kind == "bernoulli"
        assert comp[InjectionPosition.USER_PROMPT].p == 0.5
        assert comp[InjectionPosition.SYSTEM_PROMPT].kind == "always"

    def test_compliance_defaults(self):
        sc = scenario_from_dict(minimal())
        comp = sc.agents[0].compliance
        assert comp[InjectionPosition.USER_PROMPT].kind == "always"
        assert comp[InjectionPosition.SYSTEM_PROMPT].kind == "never"

    def test_bad_compliance_rejected(self):
        for bad in ({"user_prompt": "sometimes"}, {"stdin": "always"}, "always"):
            data = minimal()
            data["agents"][0]["compliance"] = bad
            with pytest.raises(ScenarioError):
                scenario_from_dict(data)

    def test_capability_preset_by_name(self):
        data = minimal()
        data["agents"][0]["capabilities"] = "minimal"
        sc = scenario_from_dict(data)
        assert sc.agents[0].capabilities == CAPABILITY_PRESETS["minimal"]

    def test_capability_list(self):
        data = minimal()
        data["agents"][0]["capabilities"] = ["file_write"]
        sc = scenario_from_dict(data)
        assert sc.agents[0].capabilities == frozenset({"file_write"})

    def test_bad_capabilities_rejected(self):
        for bad in ("turbo", ["fly"], 7):
            data = minimal()
            data["agents"][0]["capabilities"] = bad
            with pytest.raises(ScenarioError):
                scenario_from_dict(data)

    def test_unknown_framework(self):
        data = minimal()
        data["agents"][0]["framework"] = "Z"
        with pytest.raises(ScenarioError, match="framework"):
            scenario_from_dict(data)

    def test_bad_privilege(self):
        data = minimal()
        data["agents"][0]["privilege"] = "root"
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_bad_lease_window(self):
        with pytest.raises(ScenarioError, match="task_leases"):
            scenario_from_dict(minimal() | {"task_leases": {"a1": [0, 1, 2]}})

    def test_bad_reset_pair(self):
        with pytest.raises(ScenarioError, match="resets"):
            scenario_from_dict(minimal() | {"resets": [["a1"]]})

    def test_seeded_needs_agent_and_slot(self):
        with pytest.raises(ScenarioError, match="seeded"):
            scenario_from_dict(minimal() | {"seeded": [{"agent": "a1"}]})

    def test_seeded_bad_provenance(self):
        data = minimal() | {
            "seeded": [{"agent": "a1", "slot": "task", "provenance": "divine"}]
        }
        with pytest.raises(ScenarioError, match="seeded"):
            scenario_from_dict(data)

    def test_seeded_unknown_key_rejected(self):
        data = minimal() | {"seeded": [{"agent": "a1", "slot": "task", "facts": "0001"}]}
        with pytest.raises(ScenarioError, match="facts"):
            scenario_from_dict(data)

    def test_seeded_unknown_slot_rejected(self):
        data = minimal() | {"seeded": [{"agent": "a1", "slot": "hearbeat"}]}
        with pytest.raises(ScenarioError, match="hearbeat"):
            scenario_from_dict(data)
        # a scenario built in code is held to the same rule
        scenario = scenario_from_dict(minimal())
        scenario.seeded_carriers.append(SeededCarrier("a1", "hearbeat", PayloadFacets.full()))
        with pytest.raises(ScenarioError, match="hearbeat"):
            scenario.validate()

    def test_declassify_for_unknown_agent_rejected(self):
        with pytest.raises(ScenarioError, match="ghost"):
            scenario_from_dict(minimal() | {"declassify": [["ghost", 1]]})

    def test_task_lease_for_unknown_agent_rejected(self):
        with pytest.raises(ScenarioError, match="ghost"):
            scenario_from_dict(minimal() | {"task_leases": {"ghost": [0, 1]}})

    def test_reset_before_tick_one_rejected(self):
        with pytest.raises(ScenarioError, match="tick 0"):
            scenario_from_dict(minimal() | {"resets": [["a1", 0]]})

    def test_declassify_before_tick_one_rejected(self):
        with pytest.raises(ScenarioError, match="tick -4"):
            scenario_from_dict(minimal() | {"declassify": [["a1", -4]]})

    def test_scheduled_step_past_the_budget_still_loads(self):
        # shortening a run (--ticks, a tick cap) must not invalidate it
        data = minimal() | {"max_ticks": 3, "resets": [["a1", 99]], "declassify": [["a1", 99]]}
        assert scenario_from_dict(data).resets == [("a1", 99)]

    def test_reserved_agent_id(self):
        data = minimal()
        data["agents"][0]["id"] = "attacker"
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_duplicate_agent_ids(self):
        data = minimal()
        data["agents"].append(dict(data["agents"][0]))
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_agent_channel_not_declared(self):
        data = minimal()
        data["agents"][0]["channels"] = ["ghost"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_transform_strength_range(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(minimal() | {"transform_strength": {"c0": 9}})
        sc = scenario_from_dict(minimal() | {"transform_strength": {"c0": 4}})
        assert sc.transform_strength == {"c0": 4}


class TestFileLoading:
    def test_load_from_path_uses_stem_as_default_name(self, tmp_path):
        p = tmp_path / "sidecar.yaml"
        p.write_text("channels: [c0]\nagents:\n  - id: a1\n    channels: [c0]\n")
        sc = load_scenario(p)
        assert sc.name == "sidecar"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("channels: [c0\nagents: {{{")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            load_scenario(p)


class TestBundled:
    def test_names(self):
        assert bundled_names() == BUNDLED

    def test_all_bundled_load_and_validate(self):
        for name in BUNDLED:
            sc = load_bundled(name)
            assert sc.name == name
            assert sc.agents and sc.channels

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="available"):
            load_bundled("fwZ")

    def test_resolve_prefers_bundled_name(self):
        assert resolve_scenario("fwA").name == load_bundled("fwA").name

    def test_resolve_falls_back_to_path(self, tmp_path):
        p = tmp_path / "local.yaml"
        p.write_text("channels: [c0]\nagents:\n  - id: a1\n    channels: [c0]\n")
        assert resolve_scenario(str(p)).name == "local"

    def test_resolve_unknown_ref(self):
        with pytest.raises(ScenarioError):
            resolve_scenario("no_such_scenario_anywhere")


class TestSuites:
    def test_names(self):
        assert suite_names() == ["ablation", "tables"]

    def test_bundled_suites_load(self):
        for name in suite_names():
            spec = load_suite(name)
            assert spec.entries

    def test_entries_resolve_upfront(self):
        data = {"entries": [{"scenario": "fwA"}, {"scenario": "ghost_town"}]}
        with pytest.raises(ScenarioError):
            suite_from_dict(data)

    def test_entry_stray_key_rejected(self):
        data = {"entries": [{"scenario": "fwA", "enforced": "all"}]}
        with pytest.raises(ScenarioError, match="enforced"):
            suite_from_dict(data)

    def test_entries_required(self):
        with pytest.raises(ScenarioError, match="entries"):
            suite_from_dict({"name": "empty"})

    def test_missing_suite_ref(self):
        with pytest.raises(ScenarioError):
            load_suite("no_such_suite")


class TestDerivedScenarios:
    def test_with_enforcement_swaps_config_only(self):
        base = load_bundled("fwA")
        cfg = EnforcementConfig.all_enabled()
        derived = with_enforcement(base, cfg)
        assert derived.enforcement == cfg
        assert derived.name == base.name
        assert derived.agents == base.agents

    def test_with_capabilities_renames_and_applies(self):
        derived = with_capabilities(load_bundled("fwA"), "messaging_disabled")
        assert derived.name == "fwA+messaging_disabled"
        for agent in derived.agents:
            assert Capability.MESSAGING not in agent.capabilities

    def test_with_capabilities_unknown_preset(self):
        with pytest.raises(ScenarioError, match="preset"):
            with_capabilities(load_bundled("fwA"), "godmode")


class TestRandomScenario:
    def test_same_seed_same_scenario(self):
        for seed in range(40):
            assert random_scenario(seed) == random_scenario(seed)

    def test_seeds_vary_the_population(self):
        shapes = {
            (len(sc.agents), sc.max_ticks, sc.injection.tick)
            for sc in (random_scenario(s) for s in range(40))
        }
        assert len(shapes) > 10

    def test_sampled_scenarios_are_valid(self):
        # validate() runs inside; construction not raising is the assertion
        for seed in range(200):
            sc = random_scenario(seed)
            assert 2 <= len(sc.agents) <= 5
            assert sc.injection is not None and sc.injection.channel == "ch0"
            assert any(a.privilege is Privilege.HIGH for a in sc.agents)

    def test_enforcement_override(self):
        cfg = EnforcementConfig.all_enabled()
        assert random_scenario(3, cfg).enforcement == cfg
        assert random_scenario(3).enforcement == EnforcementConfig.none()

    def test_runs_are_reproducible(self):
        for seed in (1, 17):
            sc = random_scenario(seed)
            assert run_scenario(sc).trace_text == run_scenario(sc).trace_text


class TestGuardModeParsing:
    def test_guard_approve_reaches_enforcement(self):
        sc = scenario_from_dict(minimal() | {"guard": "approve", "enforcement": "all"})
        assert sc.enforcement.guard_mode is GuardMode.APPROVE_ALL
