"""Shared fixtures.

Runs are pure functions of (scenario, enforcement, guard), so each distinct
configuration executes once per test session and every test that needs it
reuses the cached result.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from reentryguard import load_bundled
from reentryguard.model import GuardMode
from reentryguard.policy import EnforcementConfig
from reentryguard.sim import RunResult, run_scenario

_cache: dict[tuple[str, str, GuardMode], RunResult] = {}


def run_bundled(
    name: str,
    enforce: str = "none",
    guard: GuardMode = GuardMode.DENY_ALL,
) -> RunResult:
    key = (name, enforce, guard)
    if key not in _cache:
        scenario = replace(
            load_bundled(name), enforcement=EnforcementConfig.from_names(enforce, guard)
        )
        _cache[key] = run_scenario(scenario)
    return _cache[key]


@pytest.fixture(scope="session")
def bundled():
    """Callable (name, enforce, guard) -> RunResult, cached."""
    return run_bundled
