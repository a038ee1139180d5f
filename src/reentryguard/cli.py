"""Command-line scenario runner and report emitter.

One mode per invocation: run a scenario, run a suite, emit the capability
matrix, verify an existing trace file, or list what ships in the package.
Reports come in two renderings: ``machine`` is line-delimited pipe-separated
records (diffable, field superset), ``table`` is the human layout derived
from the same record, never from extra state.

Exit codes: 0 ok, 1 usage error, 2 configuration error, 3 internal
mediation gap (an event kind reached the policy engine without a rule;
a bug, never a user error).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .model import LAYER_NAMES, EnforcementConfig, GuardMode, ReentryGuardError
from .policy import MediationError
from .scenarios import (
    CAPABILITY_PRESETS,
    Scenario,
    bundled_names,
    load_suite,
    resolve_scenario,
    suite_names,
    with_capabilities,
)
from .sim import run_scenario
from .tracelog import MISSING
from .verifier import Report, build_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

MATRIX_ORDER = tuple(CAPABILITY_PRESETS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; usage errors are exit 1 here
    def error(self, message: str):  # type: ignore[override]
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="reentryguard",
        description="Run worm-propagation scenarios under configurable "
        "enforcement and audit the resulting traces.",
    )
    p.add_argument("--scenario", metavar="NAME|FILE", help="bundled scenario name or config file path")
    p.add_argument(
        "--enforce",
        metavar="LAYERS",
        help=f"comma list of {','.join(LAYER_NAMES)}, or all/none (overrides the scenario)",
    )
    p.add_argument("--guard", choices=[m.value for m in GuardMode], help="guarded-action disposition")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--ticks", type=int, help="override the tick budget")
    p.add_argument("--trace-out", metavar="FILE", help="write the serialized trace here")
    p.add_argument("--report", choices=["table", "machine"], default="table")
    p.add_argument(
        "--capability-matrix",
        action="store_true",
        help="run the permission-preset matrix over the base scenario (default fwA)",
    )
    p.add_argument("--suite", metavar="NAME|FILE", help="run every entry of a suite file")
    p.add_argument("--verify-trace", metavar="FILE", help="audit an existing trace file")
    p.add_argument("--list-scenarios", action="store_true", help="list bundled scenarios and suites")
    return p


# ---------------------------------------------------------------------------
# the record: RECORD names each machine field once, and the table, the column
# marks and the matrix rows are renderings of the record it builds
# ---------------------------------------------------------------------------


def _infected(report: Report) -> str:
    pairs = zip(report.infected, report.infection_ticks)
    return ",".join(f"{agent}@{tick}" for agent, tick in pairs) or MISSING


class _Field(NamedTuple):
    name: str
    label: str | None  # the table row's label; None: the field is machine-only
    flag: bool  # a boolean: 1/0 in the record, a mark in the table
    read: Callable[[Report], Any]
    before: str | None = None  # the field whose table row this row precedes

    def value(self, report: Report) -> str:
        value = self.read(report)
        return ("1" if value else "0") if self.flag else str(value)


# The machine fields, in record order. A record line splits on "|" into
# fields, each field on its first "=", and infected= on "," and "@": the
# scenario schema and the trace parser refuse a scenario name holding "|" and
# an agent id holding any of "|,@" (tracelog.scenario_name, tracelog.agent_id).
RECORD = (
    _Field("scenario", "scenario", False, lambda r: r.meta.scenario),
    _Field("enforce", "enforcement", False, lambda r: r.meta.enforcement.names()),
    _Field("guard", "guard", False, lambda r: r.meta.enforcement.guard_mode.value),
    _Field("seed", "seed", False, lambda r: r.meta.seed),
    _Field("ticks", "ticks", False, lambda r: r.meta.ticks),
    _Field("events", "events", False, attrgetter("event_count")),
    _Field("persistence", "persistence", True, attrgetter("persistence")),
    _Field("re_entry", "re-entry", True, attrgetter("re_entry")),
    _Field("propagation", "propagation", True, attrgetter("propagation")),
    _Field("privilege_escalation", "privilege-escalation", True, attrgetter("privilege_escalation")),
    _Field("exfiltration", "exfiltration", True, attrgetter("exfiltration")),
    _Field("hops", "hops", False, attrgetter("hops")),
    _Field("infected", "infected", False, _infected),
    _Field("zero_click", "zero-click", True, attrgetter("zero_click")),
    _Field("chains", "chain-witnesses", False, lambda r: len(r.chains)),
    _Field("safe", "safe", True, attrgetter("safe")),
    _Field("rtw_ok", "rtw-audit-clean", True, lambda r: not r.rtw_violations, before="safe"),
    _Field("rtw_violations", None, False, lambda r: len(r.rtw_violations)),
    *(
        _Field(f"denials_{layer}", None, False, lambda r, layer=layer: r.layer_denials.get(layer, 0))
        for layer in LAYER_NAMES
    ),
)

_FLAGS = frozenset(f.name for f in RECORD if f.flag)
_INDEX = {f.name: i for i, f in enumerate(RECORD)}
# the labelled fields in record order, a row naming a field placed just before it
_TABLE_ROWS = sorted(
    (f for f in RECORD if f.label),
    key=lambda f: (_INDEX[f.before or f.name], f.before is None),
)


def report_record(report: Report) -> dict[str, str]:
    return {f.name: f.value(report) for f in RECORD}


def render_machine(kind: str, record: dict[str, str]) -> str:
    return "|".join([kind] + [f"{k}={v}" for k, v in record.items()])


def _mark(field: str, value: str) -> str:
    if field in _FLAGS:
        return "✓" if value == "1" else "✗"
    return value


def render_table(record: dict[str, str]) -> str:
    width = max(len(f.label) for f in _TABLE_ROWS)
    lines = [f"{f.label:<{width}}  {_mark(f.name, record[f.name])}" for f in _TABLE_ROWS]
    denials = [f"{layer}={n}" for layer in LAYER_NAMES if (n := record[f"denials_{layer}"]) != "0"]
    lines.append(f"{'denials':<{width}}  {' '.join(denials) or MISSING}")
    return "\n".join(lines)


_SUITE_COLUMNS = (
    "scenario",
    "enforce",
    "persistence",
    "re_entry",
    "propagation",
    "privilege_escalation",
    "exfiltration",
    "hops",
    "chains",
    "safe",
)


_MATRIX_COLUMNS = ("config", "persistence", "propagation")


def render_columns(records: list[dict[str, str]], columns: tuple[str, ...]) -> str:
    """Left-aligned column table: a header row, then one row per record."""
    rows = [{c: c for c in columns}] + [{c: _mark(c, r[c]) for c in columns} for r in records]
    widths = {c: max(len(row[c]) for row in rows) for c in columns}
    return "\n".join("  ".join(f"{row[c]:<{widths[c]}}" for c in columns).rstrip() for row in rows)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    updated = scenario
    if args.enforce is not None or args.guard is not None:
        guard = GuardMode(args.guard) if args.guard else scenario.enforcement.guard_mode
        if args.enforce is not None:
            enforcement = EnforcementConfig.from_names(args.enforce, guard)
        else:
            enforcement = replace(scenario.enforcement, guard_mode=guard)
        updated = replace(updated, enforcement=enforcement)
    if args.seed is not None:
        updated = replace(updated, seed=args.seed)
    if args.ticks is not None:
        updated = replace(updated, max_ticks=args.ticks)
    updated.validate()
    return updated


def _emit(
    args: argparse.Namespace, out, records: list[dict[str, str]], kind: str = "report", columns: tuple[str, ...] = ()
) -> int:
    """Print the records as machine lines, or as a table: one column row per
    record when columns are given, else the rows of each record."""
    if args.report == "machine":
        lines = [render_machine(kind, record) for record in records]
    elif columns:
        lines = [render_columns(records, columns)]
    else:
        lines = [render_table(record) for record in records]
    for line in lines:
        print(line, file=out)
    return EXIT_OK


def _mode_run(args: argparse.Namespace, out) -> int:
    result = run_scenario(_apply_overrides(resolve_scenario(args.scenario), args))
    if args.trace_out:
        Path(args.trace_out).write_text(result.trace_text)
    return _emit(args, out, [report_record(result.report)])


def emit_capability_matrix(base: Scenario) -> list[dict[str, str]]:
    """Re-run the base scenario under each permission preset and report the
    verifier's (persistence, propagation) pair per row."""
    records = []
    for preset in MATRIX_ORDER:
        record = report_record(run_scenario(with_capabilities(base, preset)).report)
        records.append({"config": preset} | {c: record[c] for c in _MATRIX_COLUMNS[1:]})
    return records


def _mode_matrix(args: argparse.Namespace, out) -> int:
    base = _apply_overrides(resolve_scenario(args.scenario or "fwA"), args)
    return _emit(args, out, emit_capability_matrix(base), "matrix", _MATRIX_COLUMNS)


def _mode_suite(args: argparse.Namespace, out) -> int:
    records = []
    for entry in load_suite(args.suite).entries:
        base = resolve_scenario(entry.scenario)
        enforcement = EnforcementConfig.from_names(entry.enforce, entry.guard)
        for seed in entry.seeds or (base.seed,):
            scenario = replace(base, enforcement=enforcement, seed=seed)
            scenario.validate()
            records.append(report_record(run_scenario(scenario).report))
    return _emit(args, out, records, columns=_SUITE_COLUMNS)


def _mode_verify(args: argparse.Namespace, out) -> int:
    return _emit(args, out, [report_record(build_report(Path(args.verify_trace).read_text()))])


def _mode_list(out) -> int:
    print("scenarios:", ", ".join(bundled_names()), file=out)
    print("suites:", ", ".join(suite_names()), file=out)
    print("capability presets:", ", ".join(MATRIX_ORDER), file=out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # --scenario alone is a mode, and with --capability-matrix names its base
    modes = [args.list_scenarios, args.suite, args.verify_trace, args.capability_matrix or args.scenario]
    if not any(modes):
        parser.error("one of --scenario, --suite, --capability-matrix, --verify-trace, --list-scenarios is required")
    if sum(map(bool, modes)) > 1:
        parser.error("choose exactly one mode")

    try:
        if args.list_scenarios:
            return _mode_list(sys.stdout)
        if args.verify_trace:
            return _mode_verify(args, sys.stdout)
        if args.suite:
            return _mode_suite(args, sys.stdout)
        if args.capability_matrix:
            return _mode_matrix(args, sys.stdout)
        return _mode_run(args, sys.stdout)
    except MediationError as exc:
        print(f"reentryguard: internal mediation gap: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, ReentryGuardError, OSError) as exc:
        print(f"reentryguard: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
