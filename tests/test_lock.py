"""Behaviour lock: machine records, trace bytes and reports pinned against a data file.

Pins the ``--suite tables`` and ``--suite ablation`` machine records, and for
every run in six groups two SHA-256 digests: of its trace text, and of its
machine record line followed by each chain witness's write, read and action
indices (so a moved witness moves a pin even where the counts stay). The
groups:

* the bundled scenarios, each undefended and fully enforced;
* fuzz seeds 0-199 fully enforced;
* fuzz seeds 0-99 undefended, capped at 6 ticks (uncapped undefended runs
  grow too fast to replay in a test);
* fuzz seeds 0-39 capped at 6 ticks under each single layer and each "all
  but one", in both guard modes, so every layer's rule is pinned both alone
  and with the others (the RTW gate reads the capability state only with
  ``rtw`` on, and guard mode matters only where something is denied);
* the bundled scenarios under each capability preset, each of the 16
  subsets of the layers and each guard mode, so a deployment that grants
  less than ``full`` is pinned wherever its rule can matter;
* the message storm: fuzz seeds 0-199 undefended and seeds 0-39 under each
  single layer in both guard modes, all at the storm benchmark's 8-tick cap,
  and fuzz seed 21 under ``rtw`` at 12 ticks (11,733 events). Within a tick
  of these runs most message turns repeat an earlier one, which 6 ticks
  rarely reach.

The fuzz seeds matter because no bundled scenario uses seeded carriers,
resets or heartbeat logs. A refactor must leave every pin unchanged. After an
intended change of behaviour, regenerate the data file with

    PYTHONPATH=src python -m tests.test_lock

which prints, before it writes, each group's moved trace and report pins,
counted per run prefix (a key up to its last ``:``, such as
``rtw,seal:approve``), and each suite's changed lines; say in CHANGES.md
which pins moved and why.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from collections.abc import Iterator
from contextlib import redirect_stdout
from dataclasses import replace
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

from reentryguard.cli import main, render_machine, report_record
from reentryguard.model import LAYER_NAMES, GuardMode
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import (
    CAPABILITY_PRESETS,
    Scenario,
    bundled_names,
    load_bundled,
    random_scenario,
    with_capabilities,
)
from reentryguard.sim import run_scenario

LOCK_FILE = Path(__file__).parent / "data" / "behaviour_lock.json"
SUITES = ("tables", "ablation")
FUZZ_ENFORCED_SEEDS = range(200)
FUZZ_UNDEFENDED_SEEDS = range(100)
FUZZ_UNDEFENDED_TICKS = 6
FUZZ_ABLATED_SEEDS = range(40)
STORM_TICKS = 8  # bench/run.py's STORM_TICK_CAP; random_scenario draws 8 or more
STORM_SEEDS = range(200)
STORM_LAYER_SEEDS = range(40)
# each layer alone, then every layer but one
ABLATIONS = LAYER_NAMES + tuple(",".join(n for n in LAYER_NAMES if n != out) for out in LAYER_NAMES)
# every subset of the layers, as the spec EnforcementConfig.from_names reads
LAYER_SUBSETS = tuple(",".join(c) or "none" for k in range(len(LAYER_NAMES) + 1) for c in combinations(LAYER_NAMES, k))
SHOWN_KEYS = 20  # moved keys printed per group when the lock is regenerated


def suite_records(name: str) -> list[str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--suite", name, "--report", "machine"])
    assert code == 0
    return out.getvalue().splitlines()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pins(scenario: Scenario) -> tuple[str, str]:
    """One run's trace pin and report pin: the SHA-256 of its trace text, and
    of its machine record line followed by each chain witness's write, read
    and action indices."""
    result = run_scenario(scenario)
    report = result.report
    witnesses = " ".join(f"{c.write_index},{c.read_index},{c.action_index}" for c in report.chains)
    return _sha(result.trace_text), _sha(render_machine("report", report_record(report)) + "\n" + witnesses)


def _bundled() -> Iterator[tuple[str, Scenario]]:
    for name in bundled_names():
        for enforce in ("none", "all"):
            yield f"{name}:{enforce}", replace(load_bundled(name), enforcement=EnforcementConfig.from_names(enforce))


def _fuzz_enforced() -> Iterator[tuple[str, Scenario]]:
    for seed in FUZZ_ENFORCED_SEEDS:
        yield str(seed), random_scenario(seed, EnforcementConfig.all_enabled())


def _fuzz_undefended() -> Iterator[tuple[str, Scenario]]:
    for seed in FUZZ_UNDEFENDED_SEEDS:
        yield str(seed), replace(random_scenario(seed, EnforcementConfig.none()), max_ticks=FUZZ_UNDEFENDED_TICKS)


def _fuzz_ablated() -> Iterator[tuple[str, Scenario]]:
    for spec in ABLATIONS:
        for guard in GuardMode:
            for seed in FUZZ_ABLATED_SEEDS:
                scenario = random_scenario(seed, EnforcementConfig.from_names(spec, guard))
                yield f"{spec}:{guard.value}:{seed}", replace(scenario, max_ticks=FUZZ_UNDEFENDED_TICKS)


def _capabilities() -> Iterator[tuple[str, Scenario]]:
    for preset in CAPABILITY_PRESETS:
        for spec in LAYER_SUBSETS:
            for guard in GuardMode:
                for name in bundled_names():
                    scenario = with_capabilities(load_bundled(name), preset)
                    yield f"{preset}:{spec}:{guard.value}:{name}", replace(
                        scenario, enforcement=EnforcementConfig.from_names(spec, guard)
                    )


def _storm() -> Iterator[tuple[str, Scenario]]:
    for seed in STORM_SEEDS:
        yield f"none:{seed}", replace(random_scenario(seed, EnforcementConfig.none()), max_ticks=STORM_TICKS)
    for layer in LAYER_NAMES:
        for guard in GuardMode:
            for seed in STORM_LAYER_SEEDS:
                scenario = random_scenario(seed, EnforcementConfig.from_names(layer, guard))
                yield f"{layer}:{guard.value}:{seed}", replace(scenario, max_ticks=STORM_TICKS)
    yield "rtw:12-ticks:21", replace(random_scenario(21, EnforcementConfig.from_names("rtw")), max_ticks=12)


GROUPS = {
    "bundled": _bundled,
    "fuzz_enforced": _fuzz_enforced,
    "fuzz_undefended": _fuzz_undefended,
    "fuzz_ablated": _fuzz_ablated,
    "capabilities": _capabilities,
    "storm": _storm,
}
PINS = ("traces", "reports")


@cache
def group_pins(group: str) -> dict[str, dict[str, str]]:
    """The group's trace pins and report pins, by run key, from one run each."""
    pins: dict[str, dict[str, str]] = {kind: {} for kind in PINS}
    for key, scenario in GROUPS[group]():
        pins["traces"][key], pins["reports"][key] = _pins(scenario)
    return pins


def current_lock() -> dict:
    return {
        "suites": {name: suite_records(name) for name in SUITES},
        **{kind: {group: group_pins(group)[kind] for group in GROUPS} for kind in PINS},
    }


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The keys whose pin differs, or that only one side holds, sorted."""
    return sorted(key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))


def lock_changes(old: dict, new: dict) -> list[str]:
    """Per trace group, the count of moved trace pins, that count per run
    prefix where the keys have one, and the first SHOWN_KEYS keys; then the
    same for report pins; then each suite's removed (-) and added (+) record
    lines."""
    lines = []
    for kind in PINS:
        for group, actual in new[kind].items():
            keys = moved(old.get(kind, {}).get(group, {}), actual)
            runs = Counter(key.rpartition(":")[0] for key in keys)
            per_run = f" [{', '.join(f'{run}={n}' for run, n in sorted(runs.items()))}]" if any(runs) else ""
            more = f" (+{len(keys) - SHOWN_KEYS} more)" if len(keys) > SHOWN_KEYS else ""
            lines.append(f"{kind} {group}: {len(keys)} moved{per_run} {' '.join(keys[:SHOWN_KEYS])}{more}".rstrip())
    for name, after in new["suites"].items():
        before = old.get("suites", {}).get(name, [])
        lines += [f"suite {name}: - {line}" for line in before if line not in after]
        lines += [f"suite {name}: + {line}" for line in after if line not in before]
    return lines


def test_lock_changes_names_moved_pins_and_suite_lines():
    old = {
        "suites": {"s": ["a", "b"]},
        "traces": {"g": {str(i): "x" for i in range(25)}, "h": {"k": "x"}},
        "reports": {"g": {"k": "x"}, "p": {"a,b:deny:1": "x", "a,b:deny:2": "x", "a:approve:1": "x"}},
    }
    new = {
        "suites": {"s": ["a", "c"]},
        "traces": {"g": {str(i): "y" for i in range(25)}, "h": {"k": "x"}},
        "reports": {"g": {"k": "y"}, "h": {"k": "x"}, "p": {"a,b:deny:1": "y", "a,b:deny:2": "y", "a:approve:1": "y"}},
    }
    first = " ".join(sorted(map(str, range(25)))[:20])
    assert lock_changes(old, new) == [
        f"traces g: 25 moved {first} (+5 more)",
        "traces h: 0 moved",
        "reports g: 1 moved k",
        "reports h: 1 moved k",
        "reports p: 3 moved [a,b:deny=2, a:approve=1] a,b:deny:1 a,b:deny:2 a:approve:1",
        "suite s: - b",
        "suite s: + c",
    ]


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(LOCK_FILE.read_text())


@pytest.mark.parametrize("name", SUITES)
def test_suite_records(pinned, name):
    assert suite_records(name) == pinned["suites"][name]


@pytest.mark.parametrize("group", GROUPS)
def test_trace_digests(pinned, group):
    changed = moved(pinned["traces"][group], group_pins(group)["traces"])
    assert not changed, f"{group}: trace bytes changed for {changed}"


@pytest.mark.parametrize("group", GROUPS)
def test_report_digests(pinned, group):
    changed = moved(pinned["reports"][group], group_pins(group)["reports"])
    assert not changed, f"{group}: report or witnesses changed for {changed}"


if __name__ == "__main__":
    lock = current_lock()
    print("\n".join(lock_changes(json.loads(LOCK_FILE.read_text()) if LOCK_FILE.exists() else {}, lock)))
    LOCK_FILE.parent.mkdir(exist_ok=True)
    LOCK_FILE.write_text(json.dumps(lock, indent=1, sort_keys=True) + "\n")
    print(f"wrote {LOCK_FILE}")
