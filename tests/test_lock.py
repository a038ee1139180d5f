"""Behaviour lock: machine records and trace bytes pinned against a data file.

Pins the ``--suite tables`` and ``--suite ablation`` machine records, and the
SHA-256 of the trace text of every run in three groups:

* the bundled scenarios, each undefended and fully enforced;
* fuzz seeds 0-199 fully enforced;
* fuzz seeds 0-99 undefended, capped at 6 ticks (uncapped undefended runs
  grow too fast to replay in a test);
* fuzz seeds 0-39 capped at 6 ticks under each single layer and each "all
  but one", in both guard modes, so every layer's rule is pinned both alone
  and with the others (the RTW gate reads the capability state only with
  ``rtw`` on, and guard mode matters only where something is denied).

The fuzz seeds matter because no bundled scenario uses seeded carriers,
resets or heartbeat logs. A refactor must leave every pin unchanged. After an
intended change of behaviour, regenerate the data file with

    PYTHONPATH=src python -m tests.test_lock

which prints, before it writes, each group's moved pins and each suite's
changed lines; say in CHANGES.md which pins moved and why.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from reentryguard.cli import main
from reentryguard.model import LAYER_NAMES, GuardMode
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
from reentryguard.sim import run_scenario

LOCK_FILE = Path(__file__).parent / "data" / "behaviour_lock.json"
SUITES = ("tables", "ablation")
FUZZ_ENFORCED_SEEDS = range(200)
FUZZ_UNDEFENDED_SEEDS = range(100)
FUZZ_UNDEFENDED_TICKS = 6
FUZZ_ABLATED_SEEDS = range(40)
# each layer alone, then every layer but one
ABLATIONS = LAYER_NAMES + tuple(",".join(n for n in LAYER_NAMES if n != out) for out in LAYER_NAMES)
SHOWN_KEYS = 20  # moved keys printed per group when the lock is regenerated


def suite_records(name: str) -> list[str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--suite", name, "--report", "machine"])
    assert code == 0
    return out.getvalue().splitlines()


def _digest(scenario) -> str:
    return hashlib.sha256(run_scenario(scenario).trace_text.encode()).hexdigest()


def _bundled_digests() -> dict[str, str]:
    return {
        f"{name}:{enforce}": _digest(
            replace(load_bundled(name), enforcement=EnforcementConfig.from_names(enforce))
        )
        for name in bundled_names()
        for enforce in ("none", "all")
    }


def _fuzz_enforced_digests() -> dict[str, str]:
    return {
        str(seed): _digest(random_scenario(seed, EnforcementConfig.all_enabled()))
        for seed in FUZZ_ENFORCED_SEEDS
    }


def _fuzz_undefended_digests() -> dict[str, str]:
    return {
        str(seed): _digest(
            replace(random_scenario(seed, EnforcementConfig.none()), max_ticks=FUZZ_UNDEFENDED_TICKS)
        )
        for seed in FUZZ_UNDEFENDED_SEEDS
    }


def _fuzz_ablated_digests() -> dict[str, str]:
    return {
        f"{spec}:{guard.value}:{seed}": _digest(
            replace(
                random_scenario(seed, EnforcementConfig.from_names(spec, guard)),
                max_ticks=FUZZ_UNDEFENDED_TICKS,
            )
        )
        for spec in ABLATIONS
        for guard in GuardMode
        for seed in FUZZ_ABLATED_SEEDS
    }


TRACE_GROUPS = {
    "bundled": _bundled_digests,
    "fuzz_enforced": _fuzz_enforced_digests,
    "fuzz_undefended": _fuzz_undefended_digests,
    "fuzz_ablated": _fuzz_ablated_digests,
}


def current_lock() -> dict:
    return {
        "suites": {name: suite_records(name) for name in SUITES},
        "traces": {group: digests() for group, digests in TRACE_GROUPS.items()},
    }


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The keys whose pin differs, or that only one side holds, sorted."""
    return sorted(key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))


def lock_changes(old: dict, new: dict) -> list[str]:
    """Per trace group, the count of moved pins and the first SHOWN_KEYS
    keys; then each suite's removed (-) and added (+) record lines."""
    lines = []
    for group, actual in new["traces"].items():
        keys = moved(old.get("traces", {}).get(group, {}), actual)
        more = f" (+{len(keys) - SHOWN_KEYS} more)" if len(keys) > SHOWN_KEYS else ""
        lines.append(f"{group}: {len(keys)} moved {' '.join(keys[:SHOWN_KEYS])}{more}".rstrip())
    for name, after in new["suites"].items():
        before = old.get("suites", {}).get(name, [])
        lines += [f"suite {name}: - {line}" for line in before if line not in after]
        lines += [f"suite {name}: + {line}" for line in after if line not in before]
    return lines


def test_lock_changes_names_moved_pins_and_suite_lines():
    old = {"suites": {"s": ["a", "b"]}, "traces": {"g": {str(i): "x" for i in range(25)}, "h": {"k": "x"}}}
    new = {"suites": {"s": ["a", "c"]}, "traces": {"g": {str(i): "y" for i in range(25)}, "h": {"k": "x"}}}
    first = " ".join(sorted(map(str, range(25)))[:20])
    assert lock_changes(old, new) == [f"g: 25 moved {first} (+5 more)", "h: 0 moved", "suite s: - b", "suite s: + c"]


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(LOCK_FILE.read_text())


@pytest.mark.parametrize("name", SUITES)
def test_suite_records(pinned, name):
    assert suite_records(name) == pinned["suites"][name]


@pytest.mark.parametrize("group", TRACE_GROUPS)
def test_trace_digests(pinned, group):
    expected = pinned["traces"][group]
    actual = TRACE_GROUPS[group]()
    changed = moved(expected, actual)
    assert not changed, f"{group}: trace bytes changed for {changed}"


if __name__ == "__main__":
    lock = current_lock()
    print("\n".join(lock_changes(json.loads(LOCK_FILE.read_text()) if LOCK_FILE.exists() else {}, lock)))
    LOCK_FILE.parent.mkdir(exist_ok=True)
    LOCK_FILE.write_text(json.dumps(lock, indent=1, sort_keys=True) + "\n")
    print(f"wrote {LOCK_FILE}")
