"""Scenario loading, bundled ecosystems, suites, and the fuzz sampler."""

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
import yaml

from reentryguard import cli
from reentryguard.model import FACET_VALUES, GuardMode, InjectionPosition, Privilege
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import (
    AGENT_KEYS,
    ALWAYS,
    CAPABILITY_PRESETS,
    INJECTION_KEYS,
    SCENARIO_KEYS,
    SEEDED_KEYS,
    SUITE_ENTRY_KEYS,
    SUITE_KEYS,
    AgentProfile,
    Capability,
    CompliancePolicy,
    Scenario,
    ScenarioError,
    SeededCarrier,
    bernoulli,
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

    def test_injection_into_a_channel_no_agent_is_on(self):
        """The auditor refuses such an inject, so the run could not be audited."""
        data = minimal() | {"channels": ["c0", "c9"], "injection": {"channel": "c9", "facets": "1111"}}
        with pytest.raises(ScenarioError, match="injection: channel: no agent is on channel 'c9'"):
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

    def test_a_position_left_out_keeps_its_default_in_code_too(self):
        """A profile built in code that names only the system prompt equals
        its YAML twin, and both keep the user prompt's default: they comply
        with a user-prompt payload."""
        data = minimal()
        data["agents"][0]["compliance"] = {"system_prompt": "always"}
        loaded = scenario_from_dict(data).agents[0]
        built = AgentProfile(
            id="a1", framework="A", privilege=Privilege.LOW, period=1, channels=("c0",),
            compliance={InjectionPosition.SYSTEM_PROMPT: ALWAYS},
        )
        assert built == loaded
        assert built.complies(InjectionPosition.USER_PROMPT, random.Random(0))
        assert built.complies(InjectionPosition.SYSTEM_PROMPT, random.Random(0))

    def test_bad_policy_refused_when_made(self):
        with pytest.raises(ValueError, match=r"^bernoulli p=1\.5 is not always, never or bernoulli"):
            bernoulli(1.5)
        with pytest.raises(ValueError, match="^sometimes p=0.0 is not"):
            CompliancePolicy("sometimes")

    def test_a_stray_position_built_in_code_is_refused(self):
        """A compliance key that is no injection position is refused in code
        as in YAML, naming compliance:, instead of being silently unread."""
        sc = load_bundled("fwA")
        agent = replace(sc.agents[0], compliance={"stdin": ALWAYS})
        with pytest.raises(ScenarioError, match=r"compliance: 'stdin' is not one of system_prompt, user_prompt"):
            replace(sc, agents=(agent, *sc.agents[1:]))

    def test_a_policy_built_in_code_must_be_a_policy(self):
        """A compliance value that is no CompliancePolicy is refused when the
        scenario is made, naming compliance:, not when the run reaches it."""
        sc = load_bundled("fwA")
        agent = replace(sc.agents[0], compliance={InjectionPosition.USER_PROMPT: "always"})
        with pytest.raises(ScenarioError, match=r"compliance: user_prompt: 'always' is not a CompliancePolicy"):
            replace(sc, agents=(agent, *sc.agents[1:]))

    def test_injection_facets_built_in_code_must_be_facets(self):
        """An injection's facets given as a token in code is refused when the
        scenario is made, naming injection: facets:, not when the run reads it."""
        sc = load_bundled("fwA")
        with pytest.raises(ScenarioError, match=r"^injection: facets: '1111' is not a PayloadFacets"):
            replace(sc, injection=replace(sc.injection, facets="1111"))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda sc: replace(sc, injection=replace(sc.injection, facets=None)), "injection: facets"),
            (lambda sc: replace(sc, injection=replace(sc.injection, channel=None)), "injection: channel"),
            (lambda sc: replace(sc, seed=None), "seed"),
        ],
        ids=["facets", "channel", "seed"],
    )
    def test_none_for_a_key_with_a_default_is_refused(self, edit, match):
        """None stands for an absent optional key only: built in code for a
        required key or one with a default, it is refused when the scenario
        is made, whether or not the key has a check of its own."""
        with pytest.raises(ScenarioError, match=rf"^{match}: required, got None"):
            edit(load_bundled("fwA"))

    def test_seeded_facets_built_in_code_must_be_facets(self):
        sc = load_bundled("fwA")
        with pytest.raises(ScenarioError, match=r"^seeded: facets: '1110' is not a PayloadFacets"):
            replace(sc, seeded=(SeededCarrier("a1", "task", "1110"),))

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
        with pytest.raises(ScenarioError, match="hearbeat"):
            replace(scenario, seeded=(SeededCarrier("a1", "hearbeat", FACET_VALUES["1111"]),))

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
        assert scenario_from_dict(data).resets == (("a1", 99),)

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
    "bernoulli-nan": ("compliance", {}, {"compliance": {"user_prompt": {"bernoulli": float("nan")}}}),
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
    "heartbeat-log-repeated": ("heartbeat_logs", {"heartbeat_logs": ["c0", "c0"]}, {}),
    # a key path and the start of the message: the facet decoder says why
    "injection-facet-token": ("injection: facets: bad facet token", {"injection": {"channel": "c0", "facets": "11"}}, {}),
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

    def test_yaml_is_imported_only_when_a_file_is_read(self, tmp_path):
        """A run, a fuzz draw, an audit and the listing read no YAML, so they
        never import PyYAML; the first scenario file read does."""
        src = Path(cli.__file__).resolve().parents[1]
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            import reentryguard.cli as cli
            from reentryguard.policy import EnforcementConfig
            from reentryguard.scenarios import load_bundled, random_scenario
            from reentryguard.sim import run_scenario

            trace = sys.argv[1]
            with open(trace, "w") as f:
                f.write(run_scenario(random_scenario(3, EnforcementConfig.all_enabled())).trace_text)
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["--verify-trace", trace, "--report", "machine"]), cli.main(["--list-scenarios"])]
            print(codes, "yaml" in sys.modules, end=" ")
            load_bundled("fwA")
            print("yaml" in sys.modules)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = [sys.executable, "-c", code, str(tmp_path / "fuzz3.trace")]
        out = subprocess.run(run, env=env, capture_output=True, text=True, check=True).stdout
        assert out == "[0, 0] False True\n"


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


SEQUENCE_FIELDS = ("agents", "channels", "resets", "declassify", "seeded", "heartbeat_logs")


class TestScenarioIsAValue:
    """A Scenario is checked when it is made, by any path, and never changes."""

    def test_replace_refuses_what_the_loader_refuses(self):
        valid = scenario_from_dict(minimal())
        with pytest.raises(ScenarioError, match="^max_ticks: must be at least 1, got 0$"):
            replace(valid, max_ticks=0)
        with pytest.raises(ScenarioError, match="^declassify: unknown agent 'ghost'$"):
            replace(valid, declassify=(("ghost", 1),))
        with pytest.raises(ScenarioError, match="^declassify: unknown agent 'ghost'$"):
            scenario_from_dict(minimal() | {"declassify": [["ghost", 1]]})

    def test_fields_cannot_be_assigned(self):
        scenario = load_bundled("fwA")
        with pytest.raises(FrozenInstanceError):
            scenario.max_ticks = 0
        assert scenario.max_ticks == load_bundled("fwA").max_ticks

    def test_mappings_are_read_only(self):
        scenario, fuzz = load_bundled("fwA"), random_scenario(3)
        writes = [
            (scenario.transform_strength, "c0", 9),
            (scenario.task_leases, "a1", (5, 1)),
            (scenario.agents[0].compliance, InjectionPosition.SYSTEM_PROMPT, ALWAYS),
            (fuzz.transform_strength, "ch1", 9),
            (replace(fuzz.agents[0]).compliance, InjectionPosition.USER_PROMPT, ALWAYS),
        ]
        for mapping, key, value in writes:
            with pytest.raises(TypeError):
                mapping[key] = value
            with pytest.raises(TypeError):
                del mapping[key]
        assert scenario == load_bundled("fwA")

    def test_a_mapping_given_in_code_is_copied(self):
        strengths, leases = {"c0": 4}, {"a1": (0, 2)}
        scenario = replace(scenario_from_dict(minimal()), transform_strength=strengths, task_leases=leases)
        strengths["c0"], leases["a1"] = 9, (5, 1)
        assert (scenario.transform_strength, scenario.task_leases) == ({"c0": 4}, {"a1": (0, 2)})

    def test_a_sequence_given_in_code_is_a_tuple(self):
        base = load_bundled("fwA")
        agent = replace(base.agents[0], channels=list(base.agents[0].channels))
        fields = {name: list(getattr(base, name)) for name in SEQUENCE_FIELDS}
        scenario = replace(base, **fields | {"agents": [agent, *base.agents[1:]], "heartbeat_logs": ["c0"]})
        assert type(agent.channels) is tuple
        for name in SEQUENCE_FIELDS:
            assert type(getattr(scenario, name)) is tuple, name
        with pytest.raises(AttributeError):
            scenario.heartbeat_logs.append("ghost")
        with pytest.raises(AttributeError):
            scenario.agents[0].channels.append("ghost")
        assert scenario.heartbeat_logs == ("c0",)

    @pytest.mark.parametrize("name", ["resets", "declassify"])
    def test_a_step_pair_given_as_a_list_is_a_tuple(self, name):
        base = load_bundled("fwA")
        listed, paired = replace(base, **{name: [["a1", 2]]}), replace(base, **{name: (("a1", 2),)})
        assert getattr(listed, name) == (("a1", 2),)
        assert listed == paired

    def test_replace_and_the_loader_give_equal_scenarios(self):
        data = minimal() | {"transform_strength": {"c0": 4}, "task_leases": {"a1": [0, 3]}}
        data["agents"][0]["compliance"] = {"user_prompt": {"bernoulli": 0.5}}
        scenarios = [load_bundled(n) for n in BUNDLED] + [scenario_from_dict(data)] + [random_scenario(s) for s in range(20)]
        for scenario in scenarios:
            assert replace(scenario) == scenario
            assert replace(scenario, agents=tuple(replace(a) for a in scenario.agents)) == scenario
        assert scenario_from_dict(data) == scenarios[len(BUNDLED)]
        assert scenarios[len(BUNDLED)].task_leases == {"a1": (0, 3)}

    def test_sequences_are_tuples(self):
        steps = {"resets": [["a1", 2]], "declassify": [["a1", 3]], "heartbeat_logs": ["c0"]}
        loaded = scenario_from_dict(minimal() | steps | {"seeded": [{"agent": "a1", "slot": "task"}]})
        scenarios = [load_bundled(n) for n in BUNDLED] + [loaded] + [random_scenario(s) for s in range(60)]
        for scenario in scenarios:
            for name in SEQUENCE_FIELDS:
                assert type(getattr(scenario, name)) is tuple, (scenario.name, name)
            assert all(type(step) is tuple for step in scenario.resets + scenario.declassify)

    def test_a_run_checks_its_scenario_once(self, monkeypatch):
        calls = []
        check = Scenario.validate
        monkeypatch.setattr(Scenario, "validate", lambda self: calls.append(self.name) or check(self))
        run_scenario(load_bundled("fwA"))
        run_scenario(random_scenario(3, EnforcementConfig.all_enabled()))
        assert calls == ["fwA", "fuzz3"]

    def test_cli_override_is_refused_with_the_same_text(self, capsys):
        assert cli.main(["--scenario", "fwA", "--ticks", "0"]) == 2
        assert capsys.readouterr().err == "reentryguard: max_ticks: must be at least 1, got 0\n"


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
