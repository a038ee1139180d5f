"""The benchmark's per-layer split wraps names the pipeline looks up at call
time. A hook whose name the package no longer has is reported as absent and
its metrics read zero, so a rename must fail here instead. So must a rename
of any other name the bench reads off the package.

bench/run.py is read as source, not imported: importing it changes
process-wide bytecode settings.
"""

import ast
import importlib
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

import reentryguard
from reentryguard import load_bundled
from reentryguard.model import LAYER_NAMES, Decision
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import SuiteEntry, random_scenario

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _hooks() -> list[tuple[str, str]]:
    tree = ast.parse(RUN_PY.read_text(), filename=str(RUN_PY))
    return [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Hook"
    ]


HOOKS = _hooks()


def _package_reads() -> list[str]:
    """Every dotted name bench/run.py reads off the package it imports as
    rg (rg.<module>.<name>...), longest chains only."""
    tree = ast.parse(RUN_PY.read_text(), filename=str(RUN_PY))
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    inner = {node.value for node in attributes}
    chains = (ast.unparse(node) for node in attributes if node not in inner)
    return sorted({chain.removeprefix("rg.") for chain in chains if re.fullmatch(r"rg(\.\w+)+", chain)})


PACKAGE_READS = _package_reads()


def test_run_py_declares_hooks():
    assert ("sim", "mediate") in HOOKS
    assert ("verifier", "parse_trace") in HOOKS


@pytest.mark.parametrize("owner,attr", HOOKS, ids=[f"{o}.{a}" for o, a in HOOKS])
def test_hook_names_an_attribute_of_the_package(owner, attr):
    # resolved from the package, as the bench's tracer does
    importlib.import_module(f"reentryguard.{owner.split('.')[0]}")
    obj = reentryguard
    for part in owner.split("."):
        obj = getattr(obj, part)
    assert hasattr(obj, attr), f"{owner}.{attr} is gone: the bench would report it absent"


def test_run_py_reads_the_package():
    assert {"sim.run_scenario", "verifier.build_report", "cli.report_record", "model.GuardMode"} <= set(PACKAGE_READS)
    assert "policy.EnforcementConfig.all_enabled" in PACKAGE_READS


@pytest.mark.parametrize("chain", PACKAGE_READS)
def test_package_read_resolves(chain):
    """A name the bench reads off the package outside its hooks (a scenario
    builder, an entry point, a config constructor): a rename would fail the
    bench's set-up rather than zero a metric, so it must fail here first."""
    module, *rest = chain.split(".")
    obj = importlib.import_module(f"reentryguard.{module}")
    for part in rest:
        assert hasattr(obj, part), f"rg.{chain} is gone: bench/run.py reads it"
        obj = getattr(obj, part)


def test_duck_typed_reads_resolve():
    """What bench/run.py reads off values the scan cannot follow: the layer
    name of every non-allow decision, which names a policy.denials.* count,
    and the fields of a suite entry."""
    for decision in Decision:
        if decision.verdict != "allow":
            assert decision.layer.value in LAYER_NAMES
    assert {"scenario", "enforce", "guard", "seeds"} <= {f.name for f in fields(SuiteEntry)}


def test_build_report_parses_once_through_the_module_global(monkeypatch, bundled):
    """The bench times verifier.parse_trace as the parse and the rest of
    build_report as the audit, and counts the events in the list it returns;
    a second parse or a lazy one would move time between the two."""
    from reentryguard import verifier

    text = bundled("fwA").trace_text  # the run itself builds a report
    parse, calls = verifier.parse_trace, []

    def counting_parse(text):
        calls.append(parse(text))
        return calls[-1]

    monkeypatch.setattr(verifier, "parse_trace", counting_parse)
    report = verifier.build_report(text)
    assert len(calls) == 1
    _, events = calls[0]
    assert isinstance(events, list) and len(events) == report.event_count


def test_counted_rules_call_through_the_module_globals(monkeypatch, contamination):
    """The bench counts gate calls by wrapping these names. A rule that bound
    the function object itself (a dispatch table entry, a default argument)
    would make its count read 0 with no warning, so each counter must see
    one call per event that reaches its rule."""
    from reentryguard import policy, sim
    from reentryguard.model import CarrierClass, EventKind
    from reentryguard.tracelog import parse_trace
    from reentryguard.verifier import is_effective

    calls = {}
    for module, name in ((policy, "enforce_exposed_read"), (policy, "promote"),
                         (policy, "check_lease_write"), (sim, "mark_contamination")):
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)

    expected = dict.fromkeys(("enforce_exposed_read", "promote", "check_lease_write", "mark_contamination"), 0)
    gated = (CarrierClass.WORKSPACE_FILE, CarrierClass.SHARED_CHANNEL_LOG)
    for scenario in [replace(load_bundled("fwA"), enforcement=EnforcementConfig.all_enabled())] + [
        random_scenario(seed, EnforcementConfig.all_enabled()) for seed in range(5)
    ]:
        meta, events = parse_trace(sim.run_scenario(scenario).trace_text)
        cls = {c.id: c.cls for c in meta.carriers}
        before = contamination(events, meta)
        for i, ev in enumerate(events):
            if ev.kind is EventKind.EXPOSED_READ:
                expected["enforce_exposed_read"] += cls[ev.carrier_id] in gated
                untrusted = ev.label is not None and ev.label.untrusted
                expected["mark_contamination"] += untrusted and is_effective(ev, meta) and not before[i]
            elif ev.kind is EventKind.PROMOTE:
                expected["promote"] += 1
            elif ev.kind is EventKind.WRITE:
                expected["check_lease_write"] += cls[ev.carrier_id] is CarrierClass.TASK_LOCAL_STATE
    assert all(expected.values()), expected
    assert calls == expected


def test_every_decision_is_one_mediate_call(monkeypatch):
    """Complete mediation, counted: the bench reads policy.mediate_calls off
    sim.mediate, and a proposal that took a shortcut around it (an allow
    built in the simulator under `none`, say) would still carry a decision.
    So each run must call sim.mediate once per decision-bearing event, and
    only effectful kinds may carry one. Bundled runs both ways, and fuzz
    seeds 0-49 fully enforced and undefended (capped at the storm's 8
    ticks)."""
    from reentryguard import sim
    from reentryguard.model import EFFECTFUL_KINDS
    from reentryguard.scenarios import bundled_names

    mediate, calls = sim.mediate, [0]

    def counting_mediate(*args):
        calls[0] += 1
        return mediate(*args)

    monkeypatch.setattr(sim, "mediate", counting_mediate)
    scenarios = [
        replace(load_bundled(name), enforcement=EnforcementConfig.from_names(enforce))
        for name in bundled_names()
        for enforce in ("none", "all")
    ]
    for seed in range(50):
        scenarios.append(random_scenario(seed, EnforcementConfig.all_enabled()))
        storm = random_scenario(seed)
        scenarios.append(replace(storm, max_ticks=min(storm.max_ticks, 8)))
    for scenario in scenarios:
        calls[0] = 0
        trace = sim.run_scenario(scenario).trace
        decided = [ev for ev in trace if ev.decision is not None]
        assert calls[0] == len(decided) > 0, scenario.name
        assert {ev.kind for ev in decided} <= EFFECTFUL_KINDS, scenario.name
