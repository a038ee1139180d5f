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
from pathlib import Path

from .model import GuardMode, ReentryGuardError
from .policy import LAYER_NAMES, EnforcementConfig, MediationError
from .scenarios import (
    Scenario,
    bundled_names,
    load_suite,
    resolve_scenario,
    suite_names,
    with_capabilities,
)
from .sim import RunResult, run_scenario
from .verifier import Report, build_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

MATRIX_ORDER = ("full", "messaging_disabled", "file_write_disabled", "minimal")


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
# record construction: machine fields are the superset, the table is a pure
# rendering of the record
# ---------------------------------------------------------------------------


def _enforce_label(flags: dict[str, bool]) -> str:
    on = [name for name in LAYER_NAMES if flags.get(name)]
    if len(on) == len(LAYER_NAMES):
        return "all"
    return ",".join(on) if on else "none"


def _bool(v: bool) -> str:
    return "1" if v else "0"


def report_record(report: Report) -> dict[str, str]:
    infected = ",".join(
        f"{agent}@{tick}" for agent, tick in zip(report.infected, report.infection_ticks)
    )
    record = {
        "scenario": report.scenario,
        "enforce": _enforce_label(report.flags),
        "guard": report.guard,
        "seed": str(report.meta.seed),
        "ticks": str(report.meta.ticks),
        "events": str(report.event_count),
        "persistence": _bool(report.persistence),
        "re_entry": _bool(report.re_entry),
        "propagation": _bool(report.propagation),
        "privilege_escalation": _bool(report.privilege_escalation),
        "exfiltration": _bool(report.exfiltration),
        "hops": str(report.hops),
        "infected": infected or "-",
        "zero_click": _bool(report.zero_click),
        "chains": str(len(report.chains)),
        "safe": _bool(report.safe),
        "rtw_ok": _bool(not report.rtw_violations),
        "rtw_violations": str(len(report.rtw_violations)),
    }
    for layer in (*LAYER_NAMES, "none"):
        record[f"denials_{layer}"] = str(report.layer_denials.get(layer, 0))
    return record


def render_machine(kind: str, record: dict[str, str]) -> str:
    return "|".join([kind] + [f"{k}={v}" for k, v in record.items()])


_TABLE_ROWS = (
    ("scenario", "scenario"),
    ("enforcement", "enforce"),
    ("guard", "guard"),
    ("seed", "seed"),
    ("ticks", "ticks"),
    ("events", "events"),
    ("persistence", "persistence"),
    ("re-entry", "re_entry"),
    ("propagation", "propagation"),
    ("privilege-escalation", "privilege_escalation"),
    ("exfiltration", "exfiltration"),
    ("hops", "hops"),
    ("infected", "infected"),
    ("zero-click", "zero_click"),
    ("chain-witnesses", "chains"),
    ("rtw-audit-clean", "rtw_ok"),
    ("safe", "safe"),
)

_CHECKED_FIELDS = {
    "persistence",
    "re_entry",
    "propagation",
    "privilege_escalation",
    "exfiltration",
    "zero_click",
    "rtw_ok",
    "safe",
}


def _mark(field: str, value: str) -> str:
    if field in _CHECKED_FIELDS:
        return "✓" if value == "1" else "✗"
    return value


def render_table(record: dict[str, str]) -> str:
    width = max(len(label) for label, _ in _TABLE_ROWS)
    lines = [f"{label:<{width}}  {_mark(field, record[field])}" for label, field in _TABLE_ROWS]
    denials = {
        layer: record[f"denials_{layer}"]
        for layer in (*LAYER_NAMES, "none")
        if record[f"denials_{layer}"] != "0"
    }
    shown = " ".join(f"{k}={v}" for k, v in denials.items()) if denials else "-"
    lines.append(f"{'denials':<{width}}  {shown}")
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


def _execute(scenario: Scenario, trace_out: str | None) -> RunResult:
    result = run_scenario(scenario)
    if trace_out:
        Path(trace_out).write_text(result.trace_text)
    return result


def _mode_run(args: argparse.Namespace, out) -> int:
    scenario = _apply_overrides(resolve_scenario(args.scenario), args)
    result = _execute(scenario, args.trace_out)
    record = report_record(result.report)
    if args.report == "machine":
        print(render_machine("report", record), file=out)
    else:
        print(render_table(record), file=out)
    return EXIT_OK


def emit_capability_matrix(base: Scenario, presets: tuple[str, ...] = MATRIX_ORDER) -> list[dict[str, str]]:
    """Re-run the base scenario under each permission preset and report the
    verifier's (persistence, propagation) pair per row."""
    records = []
    for preset in presets:
        result = run_scenario(with_capabilities(base, preset))
        records.append(
            {
                "config": preset,
                "persistence": _bool(result.report.persistence),
                "propagation": _bool(result.report.propagation),
            }
        )
    return records


def _mode_matrix(args: argparse.Namespace, out) -> int:
    base = _apply_overrides(resolve_scenario(args.scenario or "fwA"), args)
    records = emit_capability_matrix(base)
    if args.report == "machine":
        for record in records:
            print(render_machine("matrix", record), file=out)
    else:
        print(render_columns(records, _MATRIX_COLUMNS), file=out)
    return EXIT_OK


def _mode_suite(args: argparse.Namespace, out) -> int:
    spec = load_suite(args.suite)
    records = []
    for entry in spec.entries:
        base = resolve_scenario(entry.scenario)
        guard = GuardMode(entry.guard)
        enforcement = EnforcementConfig.from_names(entry.enforce, guard)
        seeds = entry.seeds or (base.seed,)
        for seed in seeds:
            scenario = replace(base, enforcement=enforcement, seed=seed)
            scenario.validate()
            records.append(report_record(run_scenario(scenario).report))
    if args.report == "machine":
        for record in records:
            print(render_machine("report", record), file=out)
    else:
        print(render_columns(records, _SUITE_COLUMNS), file=out)
    return EXIT_OK


def _mode_verify(args: argparse.Namespace, out) -> int:
    record = report_record(build_report(Path(args.verify_trace).read_text()))
    if args.report == "machine":
        print(render_machine("report", record), file=out)
    else:
        print(render_table(record), file=out)
    return EXIT_OK


def _mode_list(out) -> int:
    print("scenarios:", ", ".join(bundled_names()), file=out)
    print("suites:", ", ".join(suite_names()), file=out)
    print("capability presets:", ", ".join(MATRIX_ORDER), file=out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    modes = [
        bool(args.list_scenarios),
        bool(args.suite),
        bool(args.verify_trace),
        bool(args.capability_matrix),
        bool(args.scenario and not args.capability_matrix),
    ]
    if sum(modes) == 0:
        parser.error("one of --scenario, --suite, --capability-matrix, --verify-trace, --list-scenarios is required")
    if sum(modes) > 1:
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
    except (ValueError, ReentryGuardError) as exc:
        print(f"reentryguard: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"reentryguard: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
