"""Scenario loading, bundled ecosystems, suites, and the fuzz sampler."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from reentryguard import cli
from reentryguard.model import GuardMode, InjectionPosition, PayloadFacets, Privilege
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import (
    AGENT_KEYS,
    CAPABILITY_PRESETS,
    INJECTION_KEYS,
    SCENARIO_KEYS,
    SEEDED_KEYS,
    SUITE_ENTRY_KEYS,
    SUITE_KEYS,
    Capability,
    ScenarioError,
    SeededCarrier,
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
)
from reentryguard.sim import Ecosystem, run_scenario

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

    def test_seeded_provenance_key_refused(self):
        # a seeded slot always starts labeled external; no key says otherwise
        data = minimal() | {
            "seeded": [{"agent": "a1", "slot": "task", "provenance": "external_sync"}]
        }
        with pytest.raises(ScenarioError, match="provenance"):
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


# id -> (the key the error names, top-level keys, keys of the first agent)
MALFORMED = {
    "channels-as-a-string": ("channels", {"channels": "ab"}, {"channels": ["a"]}),
    "bernoulli-above-one": ("compliance", {}, {"compliance": {"user_prompt": {"bernoulli": 2.0}}}),
    "bernoulli-below-zero": ("compliance", {}, {"compliance": {"user_prompt": {"bernoulli": -1}}}),
    "fractional-period": ("period", {}, {"period": 1.7}),
    "boolean-max-ticks": ("max_ticks", {"max_ticks": True}, {}),
    "slot-seeded-twice": (
        "seeded",
        {"seeded": [{"agent": "a1", "slot": "task"}, {"agent": "a1", "slot": "task", "facets": "0001"}]},
        {},
    ),
    "lease-ends-before-it-starts": ("task_leases", {"task_leases": {"a1": [5, 1]}}, {}),
    "injection-without-channel": ("injection", {"injection": {"tick": 0}}, {}),
    "leases-as-a-list": ("task_leases", {"task_leases": [1, 2]}, {}),
    "strengths-as-a-list": ("transform_strength", {"transform_strength": [1]}, {}),
    "nested-capability-list": ("capabilities", {}, {"capabilities": [["shell"]]}),
    "agent-channel-repeated": ("channels", {"channels": ["c0", "c1"]}, {"channels": ["c0", "c1", "c1"]}),
    "resets-repeated": ("resets", {"resets": [["a1", 2], ["a1", 2]]}, {}),
    "declassify-repeated": ("declassify", {"declassify": [["a1", 2], ["a1", 2]]}, {}),
    # names the trace or the machine record cannot carry: "-" reads back as a
    # missing value (an owner of "-" is no owner, so hops drop), "|" splits
    # the event columns and the record's fields, ":" the kind token, "," an
    # agent line's channel list and the record's infected= list, "@" an
    # infected= item, whitespace the header tokens, and a line break the
    # scenario's header line
    **{
        f"agent-id-{label}": ("id", {}, {"id": bad})
        for label, bad in {
            "dash": "-", "empty": "", "pipe": "a|b", "space": "a b", "tab": "a\tb", "colon": "a:b",
            "comma": "a,b", "at": "x@1",
        }.items()
    },
    **{
        f"channel-{label}": ("channels", {"channels": [bad]}, {"channels": [bad]})
        for label, bad in {
            "dash": "-", "empty": "", "pipe": "c|1", "colon": "c:1", "space": "c 1", "comma": "c,1", "nbsp": "c\xa01",
        }.items()
    },
    **{
        f"name-{label}": ("name", {"name": bad}, {})
        for label, bad in {
            "empty": "", "newline": "a\nb", "return": "a\rb", "line-separator": "a\u2028b", "pipe": "a|b",
        }.items()
    },
}


class TestMalformedInputs:
    @pytest.mark.parametrize("key,top,agent", MALFORMED.values(), ids=MALFORMED.keys())
    def test_refused_naming_the_key(self, key, top, agent, tmp_path, capsys):
        data = minimal() | top
        data["agents"][0] |= agent
        with pytest.raises(ScenarioError, match=rf"\b{key}: "):
            scenario_from_dict(data)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["--scenario", str(path)]) == 2
        assert f"{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["", "a\tb"], ids=["empty", "tab"])
    def test_agent_error_quotes_the_id(self, bad):
        data = minimal()
        data["agents"][0]["id"] = bad
        with pytest.raises(ScenarioError) as refused:
            scenario_from_dict(data)
        assert str(refused.value).startswith(f"agents: {bad!r}: id: ")
        assert "\t" not in str(refused.value)

    @pytest.mark.parametrize(
        "agent,channel,name",
        [("#a", "#c", " two words "), ("a=b", "c.1", "-"), ("a.b", "c=1", "a,b@c=d")],
    )
    def test_unusual_names_the_trace_carries_load_and_read_back(self, agent, channel, name):
        """Names a trace can carry still load, and audit as their plain twin."""

        def scenario(agent, channel, name):
            return scenario_from_dict(
                {
                    "name": name,
                    "max_ticks": 4,
                    "channels": [channel],
                    "agents": [{"id": agent, "channels": [channel], "privilege": "high"}, {"id": "z", "channels": [channel]}],
                    "injection": {"channel": channel, "tick": 1},
                }
            )

        odd, plain = scenario(agent, channel, name), scenario("a", "c", "plain")
        report, twin = run_scenario(odd).report, run_scenario(plain).report
        assert vars(report.meta) == vars(Ecosystem(odd).meta)
        assert (report.hops, len(report.chains), report.event_count) == (twin.hops, len(twin.chains), twin.event_count)
        assert report.hops == 2

    def test_scenarios_import_without_the_simulator(self):
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, reentryguard.scenarios; print(sorted(m for m in sys.modules if m.startswith('reentryguard')))"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        assert "reentryguard.scenarios" in out
        assert "reentryguard.sim" not in out


class TestReadme:
    """The README's YAML blocks name exactly the keys of the schema tables."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def _block(self, title: str):
        text = self.README.read_text()
        after = text.split(title, 1)[1]
        return yaml.safe_load(after.split("```yaml\n", 1)[1].split("```", 1)[0])

    def test_scenario_block_names_the_table_keys(self):
        doc = self._block("Scenario YAML keys")
        assert set(doc) == {k.name for k in SCENARIO_KEYS}
        assert set(doc["agents"][0]) == {k.name for k in AGENT_KEYS}
        assert set(doc["injection"]) == {k.name for k in INJECTION_KEYS}
        assert set(doc["seeded"][0]) == {k.name for k in SEEDED_KEYS}
        assert scenario_from_dict(doc).name == "demo"

    def test_suite_block_names_the_table_keys(self):
        doc = self._block("Suite YAML keys")
        assert set(doc) == {k.name for k in SUITE_KEYS}
        assert set(doc["entries"][0]) == {k.name for k in SUITE_ENTRY_KEYS}
        assert suite_from_dict(doc).name == "demo"


class TestReadmeRecord:
    """The README's machine-record list names exactly cli.RECORD's fields."""

    def test_machine_records_section_names_the_record_fields(self):
        section = TestReadme.README.read_text().split("### Machine records", 1)[1].split("\n## ", 1)[0]
        listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("- `")]
        assert listed == [f.name for f in cli.RECORD]


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

    def test_bad_lease_scenario_fails_before_the_first_run(self, tmp_path, monkeypatch):
        bad = tmp_path / "late.yaml"
        bad.write_text(yaml.safe_dump(minimal() | {"task_leases": {"a1": [5, 1]}}))
        suite = tmp_path / "suite.yaml"
        suite.write_text(yaml.safe_dump({"entries": [{"scenario": "fwA"}, {"scenario": str(bad)}]}))
        with pytest.raises(ScenarioError, match="task_leases"):
            load_suite(str(suite))
        runs = []
        monkeypatch.setattr(cli, "run_scenario", runs.append)
        assert cli.main(["--suite", str(suite)]) == 2
        assert runs == []

    def test_missing_suite_ref(self):
        with pytest.raises(ScenarioError):
            load_suite("no_such_suite")


class TestDerivedScenarios:
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
