"""Decision coverage: the monitor's cells that a fixed run set reaches.

A cell is (event kind, carrier class, verdict, reason) of a mediated event,
with "-" as the class of an event that names no carrier. A promote counts by
its decision alone: its carrier column holds a candidate id. The run set is
the bundled scenarios and fuzz seeds 0-59 capped at 6 ticks, each under
every subset of the four layers in both guard modes (2,112 runs).

tests/data/decision_coverage.json holds the cells reached. The test fails
when the reached set differs from it in either direction: a cell that
becomes unreached is a monitor path the runs no longer exercise, and a new
one is a behaviour change to explain. After an intended change, rewrite the
table with

    PYTHONPATH=src python -m tests.test_coverage

which prints the cells gained and lost before it writes; say in CHANGES.md
which cells moved and why.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import combinations
from pathlib import Path

from reentryguard.model import LAYER_NAMES, EventKind, GuardMode
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
from reentryguard.sim import Ecosystem

TABLE = Path(__file__).parent / "data" / "decision_coverage.json"
FUZZ_SEEDS = range(60)
FUZZ_TICKS = 6
RUNS = (len(bundled_names()) + len(FUZZ_SEEDS)) * 2 ** len(LAYER_NAMES) * len(GuardMode)

Cell = tuple[str, str, str, str]


def reached_cells() -> set[Cell]:
    """The cells the run set reaches."""
    bases = [load_bundled(name) for name in bundled_names()]
    bases += [replace(s, max_ticks=min(s.max_ticks, FUZZ_TICKS)) for s in map(random_scenario, FUZZ_SEEDS)]
    subsets = [c for k in range(len(LAYER_NAMES) + 1) for c in combinations(LAYER_NAMES, k)]
    cells: set[Cell] = set()
    for base in bases:
        for layers in subsets:
            for guard in GuardMode:
                enforcement = EnforcementConfig(guard_mode=guard, **dict.fromkeys(layers, True))
                eco = Ecosystem(replace(base, enforcement=enforcement))
                for ev in eco.run():
                    decision = ev.decision
                    if decision is None:
                        continue
                    cid = None if ev.kind is EventKind.PROMOTE else ev.carrier_id
                    cls = "-" if cid is None else eco.carriers[cid].cls.value
                    cells.add((ev.kind.value, cls, decision.verdict.value, decision.reason.value))
    return cells


def table_cells() -> set[Cell]:
    return {tuple(cell) for cell in json.loads(TABLE.read_text())["cells"]}


def test_reached_cells_equal_the_table():
    reached, table = reached_cells(), table_cells()
    assert not table - reached, f"no longer reached: {sorted(table - reached)}"
    assert not reached - table, f"newly reached: {sorted(reached - table)}"


if __name__ == "__main__":
    reached, table = reached_cells(), table_cells() if TABLE.exists() else set()
    for sign, cells in (("-", table - reached), ("+", reached - table)):
        for cell in sorted(cells):
            print(sign, *cell)
    rows = ",\n  ".join(json.dumps(cell) for cell in sorted(reached))
    TABLE.write_text(f'{{\n "runs": {RUNS},\n "cells": [\n  {rows}\n ]\n}}\n')
    print(f"{len(reached)} cells over {RUNS} runs written to {TABLE}")
