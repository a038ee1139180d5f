"""Closed-loop benchmark of the reentryguard pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fuzz_enforced --seed 0 --seconds 30 --trace 0

One caller, one process, no threads: the next op starts when the previous
one returns. An op is one pipeline run (``sim.run_scenario`` then
``cli.report_record`` + ``cli.render_machine``, the ``--scenario ... --report
machine`` path) or one trace audit (``verifier.build_report`` then the same
record step, the ``--verify-trace`` path without the file read). The window
of inputs is fixed by ``--seed``; the timed phase runs whole passes over it
until ``--seconds`` have gone by, and at least MIN_PASSES.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split, measured by
wrapping the names the pipeline looks up (see ``HOOKS``); the program is
not modified. Every op's output is checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_FILE = BENCH_DIR / "pins.json"
STRATA_FILE = BENCH_DIR / "strata.json"
SPANS_DIR = ROOT / ".bench_out"

# Every import compiles from source, whatever __pycache__ directories a test
# run or an install left behind, so setup_s does not depend on the state of
# the checkout. Bytecode is looked up only under this prefix, which nothing
# creates: no bytecode is written while dont_write_bytecode is set.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(SPANS_DIR / "no-bytecode")

sys.path.insert(0, str(BENCH_DIR))
from tracer import Hook, Tracer  # noqa: E402

WORKLOADS = ("fuzz_enforced", "storm_undefended", "verify_corpus")
DEFAULT_SEED = 0
FUZZ_WINDOW = 300
STORM_WINDOW = 150
# undefended runs grow ~1.4x per tick; the README says why the cap is 8, not 10
STORM_TICK_CAP = 8
RING_AGENTS = 500
RING_TICKS = 40
# Set-ups per block, two blocks a run. A fixed count, not a fixed time,
# keeps the allocation history behind peak_rss_mb the same on every run.
SETUP_REPEATS = {"fuzz_enforced": 10, "storm_undefended": 10, "verify_corpus": 3}
MIN_PASSES = 3

PINNED_FIELDS = (
    "persistence",
    "re_entry",
    "propagation",
    "privilege_escalation",
    "exfiltration",
    "hops",
    "infected",
    "zero_click",
    "chains",
    "safe",
    "rtw_ok",
)


# ---------------------------------------------------------------------------
# hooks: the names the pipeline looks up at call time
# ---------------------------------------------------------------------------


def _count_denials(tracer: Tracer, decision: Any) -> None:
    if decision.verdict != "allow":
        tracer.counts[f"policy.denials.{decision.layer.value}"] += 1


def _count_parsed(tracer: Tracer, parsed: Any) -> None:
    tracer.counts["tracelog.parsed_events"] += len(parsed[1])


HOOKS = (
    Hook("sim", "run_scenario", "sim.build"),
    Hook("sim.Ecosystem", "run", "sim.run"),
    Hook("sim", "mediate", "policy.mediate", observe=_count_denials),
    Hook("sim", "render_trace", "tracelog.render"),
    Hook("verifier", "build_report", "verifier.other"),
    Hook("verifier", "parse_trace", "tracelog.parse", observe=_count_parsed),
    Hook("verifier", "chains_in", "verifier.chains_in"),
    Hook("verifier", "rtw_violations_in", "verifier.rtw_violations_in"),
    Hook("verifier", "infections_in", "verifier.infections_in"),
    Hook("verifier", "zero_click_in", "verifier.zero_click_in"),
    Hook("cli", "report_record", "cli.record"),
    Hook("cli", "render_machine", "cli.record"),
    Hook("policy", "enforce_exposed_read", "rtw.gate_calls", span=False),
    Hook("policy", "promote", "memgate.promote_calls", span=False),
    Hook("policy", "check_lease_write", "memgate.lease_checks", span=False),
    Hook("sim", "mark_contamination", "taint.contaminations", span=False),
)

SETUP_HOOKS = (
    Hook("scenarios", "random_scenario", "scenarios.load"),
    Hook("scenarios", "load_suite", "scenarios.load"),
    Hook("scenarios", "resolve_scenario", "scenarios.load"),
    Hook("scenarios", "scenario_from_dict", "scenarios.load"),
)


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as declared
    in BENCHMARK.json; bench/README.md says what each should move."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One unit of closed-loop work. Sim ops carry a scenario; audit ops
    carry the trace text and the record the producing run printed."""

    name: str
    enforced: bool
    scenario: Any = None
    text: str | None = None
    record: str | None = None


def import_package() -> Any:
    """Fresh import of the program (and its YAML dependency), so each set-up
    repetition pays the same import cost."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("reentryguard", "yaml")]:
        del sys.modules[name]
    rg = importlib.import_module("reentryguard")
    for sub in ("cli", "policy", "scenarios", "sim", "verifier"):
        importlib.import_module(f"reentryguard.{sub}")
    return rg


def sampled_scenario(rg: Any, workload: str, s: int) -> Any:
    """Fuzz scenario ``s`` as the workload runs it: fully enforced, or
    undefended with the tick budget capped."""
    if workload == "fuzz_enforced":
        return rg.scenarios.random_scenario(s, rg.policy.EnforcementConfig.all_enabled())
    scenario = rg.scenarios.random_scenario(s, rg.policy.EnforcementConfig.none())
    return replace(scenario, max_ticks=min(scenario.max_ticks, STORM_TICK_CAP))


def window_ops(rg: Any, workload: str, seed: int, window: int) -> list[Op]:
    """One scenario drawn from each stratum of the workload's pool in
    bench/strata.json (strata.py says why); a smaller ``window`` keeps an
    evenly spread subset of those draws."""
    pools = json.loads(STRATA_FILE.read_text())
    if pools["tick_cap"] != STORM_TICK_CAP:
        raise SystemExit(f"bench: {STRATA_FILE.name} was built for tick cap {pools['tick_cap']}, rerun strata.py")
    rng = random.Random(seed)
    drawn = [rng.choice(stratum) for stratum in pools[workload]]
    picked = sorted(drawn[i * len(drawn) // window] for i in range(window))
    prefix = workload.split("_")[0]
    enforced = workload == "fuzz_enforced"
    return [Op(f"{prefix}/{s}", enforced, sampled_scenario(rg, workload, s)) for s in picked]


def table_ops(rg: Any) -> list[Op]:
    """The ``--suite tables`` rows, built the way the CLI's suite mode does."""
    ops = []
    for entry in rg.scenarios.load_suite("tables").entries:
        base = rg.scenarios.resolve_scenario(entry.scenario)
        enforcement = rg.policy.EnforcementConfig.from_names(entry.enforce, rg.model.GuardMode(entry.guard))
        for seed in entry.seeds or (base.seed,):
            scenario = replace(base, enforcement=enforcement, seed=seed)
            scenario.validate()
            ops.append(Op(f"tables/{entry.scenario}:{entry.enforce}:{seed}", entry.enforce == "all", scenario))
    return ops


def ring_config(n: int, ticks: int) -> dict:
    """The wide ring: header parsing and carrier tables dominate."""
    return {
        "name": f"ring{n}",
        "seed": 1,
        "max_ticks": ticks,
        "enforcement": "all",
        "channels": [f"c{i}" for i in range(n)],
        "agents": [
            {
                "id": f"a{i:04d}",
                "framework": "ABC"[i % 3],
                "privilege": "high" if i % 5 == 0 else "low",
                "period": 1 + i % 3,
                "channels": [f"c{i}", f"c{(i + 1) % n}"],
            }
            for i in range(n)
        ],
        "injection": {"channel": "c0", "tick": 0, "facets": "1111"},
        "heartbeat_logs": ["c0", "c1", "c2"],
    }


def audit_ops(rg: Any, sim_ops: list[Op]) -> list[Op]:
    """Run each scenario once through the producing path and keep its trace
    and machine record: the corpus the audit ops re-verify."""
    ops = []
    for op in sim_ops:
        text, record, _ = run_op(rg, op)
        ops.append(Op(op.name, op.enforced, text=text, record=record))
    return ops


def build_ops(rg: Any, workload: str, seed: int) -> list[Op]:
    if workload == "fuzz_enforced":
        return window_ops(rg, workload, seed, FUZZ_WINDOW)
    if workload == "storm_undefended":
        return window_ops(rg, workload, seed, STORM_WINDOW)
    ring = rg.scenarios.scenario_from_dict(ring_config(RING_AGENTS, RING_TICKS))
    producers = (
        window_ops(rg, "fuzz_enforced", seed, FUZZ_WINDOW)
        + window_ops(rg, "storm_undefended", seed, STORM_WINDOW)
        + table_ops(rg)
        + [Op(f"ring/{RING_AGENTS}x{RING_TICKS}", True, ring)]
    )
    return audit_ops(rg, producers)


@dataclass
class Setup:
    rg: Any
    ops: list[Op]
    seconds: list[float]
    load_ms: float


def setup(
    workload: str,
    seed: int,
    trace: bool = False,
    repeats: int | None = None,
) -> Setup:
    """Import the program and build the inputs ``repeats`` times, by default
    the workload's SETUP_REPEATS; the last repetition's modules and inputs
    are used."""
    seconds: list[float] = []
    load_ms = 0.0
    for _ in range(SETUP_REPEATS[workload] if repeats is None else repeats):
        t0 = time.perf_counter()
        rg = import_package()
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(rg, SETUP_HOOKS)
        try:
            ops = build_ops(rg, workload, seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        seconds.append(time.perf_counter() - t0)
        if tracer is not None:
            total, _, _ = tracer.totals()
            load_ms = total.get("scenarios.load", 0.0) * 1e3
    return Setup(rg, ops, seconds, load_ms)


# ---------------------------------------------------------------------------
# one op and its checks
# ---------------------------------------------------------------------------


def run_op(rg: Any, op: Op) -> tuple[str, str, Any]:
    """The timed unit: (trace text, machine record line, report)."""
    if op.text is None:
        result = rg.sim.run_scenario(op.scenario)
        text, report = result.trace_text, result.report
    else:
        text, report = op.text, rg.verifier.build_report(op.text)
    line = rg.cli.render_machine("report", rg.cli.report_record(report))
    return text, line, report


def record_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split("|")[1:])


def pinned_value(fields: dict[str, str]) -> str:
    return "|".join(fields.get(k, "?") for k in PINNED_FIELDS)


def load_pins(seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINS_FILE.read_text())


@dataclass
class TextStats:
    events: int = 0
    msg_events: int = 0
    max_events_per_tick: int = 0
    decision_lines: int = 0
    header_lines: int = 0
    trace_bytes: int = 0


def text_stats(text: str) -> TextStats:
    """Counts read off the serialized trace, independent of the program's
    parser."""
    st = TextStats(trace_bytes=len(text.encode()))
    per_tick: Counter[str] = Counter()
    for line in text.splitlines():
        if line.startswith("#"):
            st.header_lines += 1
            continue
        cols = line.split("|")
        if len(cols) < 6 or cols[0] == "tick":
            continue
        st.events += 1
        per_tick[cols[0]] += 1
        if cols[2].startswith(("msg_send", "msg_recv")):
            st.msg_events += 1
        if cols[5] != "-":
            st.decision_lines += 1
    st.max_events_per_tick = max(per_tick.values(), default=0)
    return st


@dataclass
class Checker:
    """Output checks on every op; failures are counted, never raised."""

    pins: dict[str, str] | None
    digests: dict[int, bytes] = field(default_factory=dict)
    failures: Counter[str] = field(default_factory=Counter)
    first_failure: dict[str, str] = field(default_factory=dict)

    def fail(self, why: str, op: Op) -> None:
        self.failures[why] += 1
        self.first_failure.setdefault(why, op.name)

    def check(self, index: int, op: Op, text: str, line: str) -> bool:
        fields = record_fields(line)
        ok = True
        if op.text is None:
            digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
            if self.digests.setdefault(index, digest) != digest:
                self.fail("trace bytes differ between repetitions", op)
                ok = False
        elif line != op.record:
            self.fail("audit record differs from the producing run's", op)
            ok = False
        if op.enforced and (fields.get("safe") != "1" or fields.get("chains") != "0"):
            self.fail("enforced run not safe=1 chains=0", op)
            ok = False
        if self.pins is not None and self.pins.get(op.name) != pinned_value(fields):
            self.fail("outcome differs from the pinned value", op)
            ok = False
        return ok


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """Per-op wall times of one pass; traced passes also keep their span
    totals, hook counts and, on the first traced pass, per-op text counts
    and records."""

    op_seconds: list[float]
    traced: bool = False
    total: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    calls: Counter[str] = field(default_factory=Counter)
    counts: Counter[str] = field(default_factory=Counter)
    stats: list[TextStats] = field(default_factory=list)
    records: list[dict[str, str]] = field(default_factory=list)


@dataclass
class Measurement:
    passes: list[Pass]
    attempted: int
    failed: int
    checker: Checker
    tracer: Tracer | None
    peak_rss_mb: float


def run_pass(rg: Any, ops: list[Op], checker: Checker, tracer: Tracer | None, keep: bool) -> tuple[Pass, int]:
    """One closed-loop pass over the window. Only run_op is timed; checks
    and text counting happen between ops."""
    p = Pass([], traced=tracer is not None)
    failed = 0
    root = tracer.label_id("op") if tracer is not None else -1
    perf = time.perf_counter
    for i, op in enumerate(ops):
        idx = tracer.open(root) if tracer is not None else -1
        t0 = perf()
        try:
            text, line, _ = run_op(rg, op)
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            text = line = None
            checker.fail(f"raised {type(exc).__name__}: {exc}", op)
        p.op_seconds.append(perf() - t0)
        if tracer is not None:
            tracer.close(idx)
        if line is None or not checker.check(i, op, text, line):
            failed += 1
        if keep:
            p.stats.append(text_stats(text) if text is not None else TextStats())
            p.records.append(record_fields(line) if line is not None else {})
    return p, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(rg: Any, ops: list[Op], seconds: float, trace: bool, pins: dict[str, str] | None) -> Measurement:
    """Whole passes until ``seconds`` have elapsed, at least MIN_PASSES.
    With tracing, passes alternate untraced/traced and end on a traced one.
    Peak RSS is read after the first MIN_PASSES passes: a high-water mark
    read after a fixed amount of work does not grow with the number of
    passes a fast host fits in."""
    checker = Checker(pins)
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    attempted = failed = 0
    rss = 0.0
    start = time.perf_counter()
    while len(passes) < (2 * MIN_PASSES if trace else MIN_PASSES) or time.perf_counter() - start < seconds or (
        trace and len(passes) % 2
    ):
        traced = trace and len(passes) % 2 == 1
        if not traced:
            p, f = run_pass(rg, ops, checker, None, keep=False)
        else:
            mark, before = tracer.mark(), Counter(tracer.counts)
            tracer.install(rg, HOOKS)
            try:
                p, f = run_pass(rg, ops, checker, tracer, keep=len(passes) == 1)
            finally:
                tracer.uninstall()
            p.total, p.self_time, p.calls = tracer.totals(mark)
            p.counts = tracer.counts - before
        passes.append(p)
        attempted += len(ops)
        failed += f
        if len(passes) == MIN_PASSES:
            rss = peak_rss_mb()
    return Measurement(passes, attempted, failed, checker, tracer, rss)


def per_op_best(passes: list[Pass]) -> list[float]:
    """Each op's fastest wall time over the passes. Other tenants' load on a
    shared host only ever adds time and drifts by tens of percent over half
    an hour; the fastest of repetitions spread over the run follows the
    program, not the load (bench/README.md gives the measurements)."""
    return [min(ts) for ts in zip(*(p.op_seconds for p in passes))]


def op_stats(passes: list[Pass]) -> tuple[float, float, float]:
    """(runs per second, p50 ms, p90 ms) over each op's fastest time: the
    window's op count over the sum of those times, and their quantiles."""
    best = per_op_best(passes)
    ms = [t * 1e3 for t in best]
    return len(best) / sum(best), statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def end_to_end(m: Measurement, st: Setup, workload: str, seed: int) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count). setup_s is the median of the set-ups
    made before the timed phase and of a second block made after it: host
    load drifts over a run, and set-ups from both ends of it are steadier
    than one block."""
    rate, p50, p90 = op_stats(m.passes)
    setups = st.seconds + setup(workload, seed).seconds
    samples = len(st.ops)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "runs_per_s": (rate, samples),
        "run_ms.p50": (p50, samples),
        "run_ms.p90": (p90, samples),
        "peak_rss_mb": (m.peak_rss_mb, 1),
    }


def per_layer(m: Measurement, st: Setup) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics for one pass over the window, plus any self-check
    that failed. Times are each label's fastest traced pass; counts come
    from the first traced pass and must repeat on the others."""
    traced = [p for p in m.passes if p.traced]
    plain = [p for p in m.passes if not p.traced]
    first = traced[0]
    problems = []

    for name in sorted(set().union(*(p.counts for p in traced), *(p.calls for p in traced))):
        seen = {p.counts.get(name, p.calls.get(name, 0)) for p in traced}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")

    def self_ms(label: str) -> float:
        return min(p.self_time.get(label, 0.0) for p in traced) * 1e3

    stats, records = first.stats, first.records
    events = sum(s.events for s in stats)
    mediate_calls = first.calls.get("policy.mediate", 0)
    parsed = first.counts.get("tracelog.parsed_events", 0)
    decisions = sum(s.decision_lines for s, op in zip(stats, st.ops) if op.text is None)
    if parsed != events:
        problems.append(f"parse saw {parsed} events, the traces hold {events}")
    if mediate_calls != decisions:
        problems.append(f"mediate ran {mediate_calls} times, the traces hold {decisions} decisions")

    mediate_ms = self_ms("policy.mediate")
    parse_ms = self_ms("tracelog.parse")
    hops = sum(max(int(r.get("hops", 0)), 1) for r in records)
    plain_s = sum(per_op_best(plain))
    traced_s = sum(per_op_best(traced))
    covered = statistics.median(
        sum(v for k, v in p.self_time.items() if k != "op") / sum(p.op_seconds) for p in traced
    )
    metrics = {
        "scenarios.load_ms": st.load_ms,
        "sim.build_ms": self_ms("sim.build"),
        "sim.run_self_ms": self_ms("sim.run"),
        "sim.events": events,
        "sim.max_events_per_tick": max((s.max_events_per_tick for s in stats), default=0),
        "sim.msg_events": sum(s.msg_events for s in stats),
        "sim.events_per_infection": events / hops,
        "policy.mediate_calls": mediate_calls,
        "policy.mediate_ms": mediate_ms,
        "policy.mediate_us_per_call": mediate_ms * 1e3 / mediate_calls if mediate_calls else 0.0,
        "tracelog.render_ms": self_ms("tracelog.render"),
        "tracelog.parse_ms": parse_ms,
        "tracelog.parse_us_per_event": parse_ms * 1e3 / parsed if parsed else 0.0,
        "tracelog.trace_bytes": sum(s.trace_bytes for s in stats),
        "tracelog.header_lines": sum(s.header_lines for s in stats),
        "verifier.audit_ms": min(
            p.total.get("verifier.other", 0.0) - p.total.get("tracelog.parse", 0.0) for p in traced
        ) * 1e3,
        "verifier.chains_in_ms": self_ms("verifier.chains_in"),
        "verifier.rtw_violations_in_ms": self_ms("verifier.rtw_violations_in"),
        "verifier.infections_in_ms": self_ms("verifier.infections_in"),
        "verifier.zero_click_in_ms": self_ms("verifier.zero_click_in"),
        "verifier.other_ms": self_ms("verifier.other"),
        "verifier.chains": sum(int(r.get("chains", 0)) for r in records),
        "verifier.rtw_violations": sum(int(r.get("rtw_violations", 0)) for r in records),
        "cli.record_ms": self_ms("cli.record"),
        "trace.overhead_pct": (traced_s / plain_s - 1.0) * 100,
        "trace.span_coverage_pct": covered * 100,
    }
    for layer in ("rtw", "seal", "memgate", "attenuation"):
        metrics[f"policy.denials.{layer}"] = first.counts.get(f"policy.denials.{layer}", 0)
    for name in ("rtw.gate_calls", "memgate.promote_calls", "memgate.lease_checks", "taint.contaminations"):
        metrics[name] = first.counts.get(name, 0)
    return metrics, problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Closed-loop benchmark of the reentryguard pipeline.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="selects the input window")
    p.add_argument("--seconds", type=float, default=10.0, help="minimum measured wall time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer split instead of end-to-end")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "reentryguard" / "__init__.py").is_file():
        print(f"bench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    st = setup(args.workload, args.seed, trace=bool(args.trace))
    m = measure(st.rg, st.ops, args.seconds, bool(args.trace), load_pins(args.seed))
    out = sys.stdout
    print(f"workload {args.workload} seed {args.seed}: {len(st.ops)} ops per pass, "
          f"{len(m.passes)} passes, closed loop, one caller", file=out)

    problems: list[str] = []
    if args.trace:
        values, problems = per_layer(m, st)
        samples = {}
        units = metric_units("per_layer")
    else:
        e2e = end_to_end(m, st, args.workload, args.seed)
        values = {name: value for name, (value, _) in e2e.items()}
        samples = {name: n for name, (_, n) in e2e.items()}
        units = metric_units("end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"bench: measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, unit in units.items():
        count = f" n={samples[name]}" if name in samples else ""
        print(f"  {name:<32} {values[name]:>14.4f} {unit}{count}", file=out)
    if args.trace:
        for label, traced in (("untraced", False), ("traced", True)):
            passes = [p for p in m.passes if p.traced == traced]
            rate, p50, p90 = op_stats(passes)
            print(f"  {label:<9} runs_per_s {rate:.4f} run_ms.p50 {p50:.4f} run_ms.p90 {p90:.4f} "
                  f"n={len(st.ops)} over {len(passes)} passes", file=out)
        for where in m.tracer.absent:
            print(f"  absent hook: {where} (its metrics read 0)", file=out)
        m.tracer.write(SPANS_DIR / f"spans_{args.workload}.tsv")
    for why, count in sorted(m.checker.failures.items()):
        print(f"  FAILED {count} ops: {why} (first: {m.checker.first_failure[why]})", file=out)
    for problem in problems:
        print(f"  SELF-CHECK: {problem}", file=out)
    print(f"  attempted {m.attempted} failed {m.failed}", file=out)
    result = {
        "correct": m.failed == 0 and not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
