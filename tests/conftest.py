"""Shared fixtures.

Runs are pure functions of (scenario, enforcement, guard), so each distinct
configuration executes once per test session and every test that needs it
reuses the cached result.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from reentryguard import load_bundled, tracelog
from reentryguard.model import EventKind, GuardMode
from reentryguard.policy import EnforcementConfig
from reentryguard.sim import RunResult, run_scenario
from reentryguard.verifier import is_effective

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


@pytest.fixture(autouse=True)
def empty_trace_memos():
    """Each test starts with the trace codecs' process-wide memos empty, so a
    test of a line's first, strict parse exercises it whatever ran before."""
    for memo in tracelog._MEMOS:
        memo.clear()


@pytest.fixture(scope="session")
def bundled():
    """Callable (name, enforce, guard) -> RunResult, cached."""
    return run_bundled


def contaminated_before(events, meta) -> list[bool]:
    """Per event: was its agent contaminated when the event was decided.
    Contamination starts at an effective exposed read of untrusted content
    and ends at the agent's context reset."""
    current: dict[str, bool] = {}
    out: list[bool] = []
    for ev in events:
        out.append(current.get(ev.agent, False))
        if ev.kind is EventKind.EXPOSED_READ and is_effective(ev, meta) and ev.label is not None and ev.label.untrusted:
            current[ev.agent] = True
        elif ev.kind is EventKind.CONTEXT_RESET:
            current[ev.agent] = False
    return out


@pytest.fixture(scope="session")
def contamination():
    """Callable (events, meta) -> per-event contamination, as contaminated_before."""
    return contaminated_before
