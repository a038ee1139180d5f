"""Forgery census: how many single-line forgeries of unsafe traces the
auditor accepts with fewer chains, or certifies safe.

The corpus is every trace with at least one chain among the bundled
scenarios and fuzz seeds 0-49 capped at 6 ticks, all undefended. Each trace
gets up to k event-line positions, drawn by random.Random(scenario name),
and each position gets every edit of six classes:

    truncate   keep only the lines before it
    delete     drop it
    duplicate  repeat it
    relabel    give it each other label (a line with a label)
    redecide   give it each other of the 8 decisions (a decided line)
    swap       exchange it with the next line when that line has its tick

An edit the auditor refuses (it raises) is caught; one it accepts counts as
"fewer" when the report has fewer chains than the original trace's, and as
"safe" when the report certifies safe=1. The auditor is the trust anchor,
so both counts measure how far it fails open.

tests/data/forgery_census.json holds, per class, [edits, fewer, safe] for
the tier-1 draw (k=8) and the full draw (k=40). The test runs the tier-1
draw: the edits must equal the table (so the 45 traces and their draws are
the same), and fewer and safe must stay at or below it. A change that lowers a count lowers the table with it; never
edit the table upward to pass. Rewrite it, both draws, with

    PYTHONPATH=src python -m tests.test_census

which prints each count that moved before it writes; say in CHANGES.md
which counts moved and why.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from reentryguard.model import Decision, EnforcementConfig, ReentryGuardError, TaintLabel
from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
from reentryguard.sim import run_scenario
from reentryguard.tracelog import COLUMN_ROW
from reentryguard.verifier import build_report

TABLE = Path(__file__).parent / "data" / "forgery_census.json"
FUZZ_SEEDS = range(50)
FUZZ_TICKS = 6
DRAWS = {"tier1": 8, "full": 40}
CLASSES = ("truncate", "delete", "duplicate", "relabel", "redecide", "swap")
LABELS = [label.value for label in TaintLabel]
DECISION_COLUMNS = [[d.verdict.value, d.reason.value] for d in Decision]

Counts = dict[str, list[int]]


def corpus() -> list[tuple[str, str, int]]:
    """(name, trace text, chains) of each undefended trace with a chain."""
    none = EnforcementConfig.none()
    scenarios = [replace(load_bundled(name), enforcement=none) for name in bundled_names()]
    scenarios += [
        replace(s, max_ticks=min(s.max_ticks, FUZZ_TICKS)) for s in (random_scenario(seed, none) for seed in FUZZ_SEEDS)
    ]
    traces = []
    for scenario in scenarios:
        text = run_scenario(scenario).trace_text
        chains = len(build_report(text).chains)
        if chains:
            traces.append((scenario.name, text, chains))
    return traces


def edits(lines: list[str], at: int) -> Iterator[tuple[str, list[str]]]:
    """(class, edited lines) of every single edit at event line at."""
    line = lines[at]
    before, after = lines[:at], lines[at + 1:]
    cols = line.split("|")
    yield "truncate", before
    yield "delete", before + after
    yield "duplicate", before + [line, line] + after
    if cols[4] in LABELS:
        for label in LABELS:
            if label != cols[4]:
                yield "relabel", before + ["|".join(cols[:4] + [label] + cols[5:])] + after
    if cols[5:] in DECISION_COLUMNS:
        for decision in DECISION_COLUMNS:
            if decision != cols[5:]:
                yield "redecide", before + ["|".join(cols[:5] + decision)] + after
    if after and after[0].split("|", 1)[0] == cols[0]:
        yield "swap", before + [after[0], line] + after[1:]


def census(k: int) -> Counts:
    """class -> [edits, fewer, safe] over the corpus, k positions a trace."""
    counts = {name: [0, 0, 0] for name in CLASSES}
    for name, text, chains in corpus():
        lines = text.splitlines()
        first = lines.index(COLUMN_ROW) + 1
        positions = range(first, len(lines))
        for at in sorted(random.Random(name).sample(positions, min(k, len(positions)))):
            for cls, edited in edits(lines, at):
                tally = counts[cls]
                tally[0] += 1
                try:
                    report = build_report("\n".join(edited) + "\n")
                except ReentryGuardError:
                    continue
                tally[1] += len(report.chains) < chains
                tally[2] += report.safe
    return counts


def table() -> dict[str, Counts]:
    return json.loads(TABLE.read_text())


def test_no_forgery_count_rises():
    held, now = table()["tier1"], census(DRAWS["tier1"])
    for cls in CLASSES:
        (edits_held, *fails_held), (edits_now, *fails_now) = held[cls], now[cls]
        assert edits_now == edits_held, f"{cls}: {edits_now} edits, the table has {edits_held}"
        for what, count, bound in zip(("fewer", "safe"), fails_now, fails_held):
            assert count <= bound, f"{cls}: {count} accepted with {what}, the table allows {bound}"


if __name__ == "__main__":
    old = table() if TABLE.exists() else {}
    new = {draw: census(k) for draw, k in DRAWS.items()}
    for draw, counts in new.items():
        for cls in CLASSES:
            if old.get(draw, {}).get(cls) != counts[cls]:
                print(draw, cls, old.get(draw, {}).get(cls), "->", counts[cls])
    blocks = [
        f' "{draw}": {{\n' + ",\n".join(f'  "{cls}": {json.dumps(counts[cls])}' for cls in CLASSES) + "\n }"
        for draw, counts in new.items()
    ]
    TABLE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {TABLE}")
