"""Self-checks of the benchmark: the tracer's counts agree with the traces,
missing hooks degrade to "absent", exact counts repeat, and the output
checks fail ops that are wrong.

    python3 -m pytest -q bench

Windows are shrunk so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import os
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

HELD_OUT_SEED = 1


@pytest.fixture(scope="module", autouse=True)
def small_windows():
    """Fuzz and storm windows of 24 and 12 ops for these tests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "FUZZ_WINDOW", 24)
        mp.setattr(run, "STORM_WINDOW", 12)
        yield


def traced(workload: str, seed: int = HELD_OUT_SEED, patch=None):
    st = run.setup(workload, seed, trace=True, repeats=1)
    if patch is not None:
        patch(st.rg)
    m = run.measure(st.rg, st.ops, 0.0, True, run.load_pins(seed))
    layer, problems = run.per_layer(m, st)
    return st, m, layer, problems


@pytest.fixture(scope="module", params=["fuzz_enforced", "storm_undefended"])
def sim_run(request):
    return traced(request.param)


def test_mediate_calls_equal_decision_lines(sim_run):
    st, m, layer, problems = sim_run
    texts = [run.run_op(st.rg, op)[0] for op in st.ops]
    decisions = sum(run.text_stats(text).decision_lines for text in texts)
    assert layer["policy.mediate_calls"] == decisions > 0
    assert problems == []


def test_parse_sees_every_event(sim_run):
    _, m, layer, problems = sim_run
    traced_pass = next(p for p in m.passes if p.traced)
    assert traced_pass.counts["tracelog.parsed_events"] == layer["sim.events"] > 0
    assert problems == []


def test_every_layer_metric_is_reported(sim_run):
    _, m, layer, _ = sim_run
    assert set(layer) == set(run.metric_units("per_layer"))
    assert m.tracer.absent == []
    assert layer["sim.run_self_ms"] > 0 and layer["tracelog.parse_ms"] > 0


def test_audit_only_workload_spends_nothing_in_sim_or_policy():
    _, m, layer, problems = traced("verify_corpus")
    assert m.failed == 0 and problems == []
    for name in ("sim.build_ms", "sim.run_self_ms", "policy.mediate_ms", "tracelog.render_ms"):
        assert layer[name] == 0
    assert layer["policy.mediate_calls"] == 0
    assert layer["tracelog.parse_ms"] > 0


def test_removed_hook_is_reported_absent():
    """A later one-pass auditor folds chains_in into build_report; the run
    must keep going and say the hook is gone."""

    def fold_chains_in(rg):
        verifier = rg.verifier
        chains_in, build_report = verifier.chains_in, verifier.build_report
        del verifier.chains_in

        def one_pass_build_report(text):
            verifier.chains_in = chains_in
            try:
                return build_report(text)
            finally:
                del verifier.chains_in

        verifier.build_report = one_pass_build_report

    _, m, layer, problems = traced("fuzz_enforced", patch=fold_chains_in)
    assert m.tracer.absent == ["verifier.chains_in"]
    assert layer["verifier.chains_in_ms"] == 0
    assert m.failed == 0 and problems == []


def test_exact_counts_repeat_on_held_out_seed():
    exact = (
        "sim.events",
        "policy.mediate_calls",
        "policy.denials.rtw",
        "policy.denials.seal",
        "policy.denials.memgate",
        "policy.denials.attenuation",
        "tracelog.trace_bytes",
        "verifier.chains",
    )
    for workload in ("fuzz_enforced", "storm_undefended"):
        runs = [traced(workload) for _ in range(2)]
        for _, m, _, problems in runs:
            assert m.failed == 0 and problems == []
        first, second = (layer for _, _, layer, _ in runs)
        assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_changed_outcome_fails_against_pins():
    st = run.setup("fuzz_enforced", run.DEFAULT_SEED, repeats=1)
    pins = run.load_pins(run.DEFAULT_SEED)
    assert all(op.name in pins for op in st.ops)
    pins[st.ops[0].name] = pins[st.ops[0].name].replace("|1|0|1|1", "|1|1|0|1")
    m = run.measure(st.rg, st.ops, 0.0, False, pins)
    assert m.failed == run.MIN_PASSES
    assert list(m.checker.failures) == ["outcome differs from the pinned value"]


def test_nondeterministic_trace_fails_ops():
    st = run.setup("storm_undefended", HELD_OUT_SEED, repeats=1)
    render = st.rg.sim.render_trace
    calls = iter(range(10**9))
    st.rg.sim.render_trace = lambda trace, meta: render(trace, meta) + f"# nonce {next(calls)}\n"
    m = run.measure(st.rg, st.ops, 0.0, False, None)
    assert m.checker.failures["trace bytes differ between repetitions"] == len(st.ops) * (run.MIN_PASSES - 1)


def test_audit_record_must_match_producer():
    st = run.setup("verify_corpus", HELD_OUT_SEED, repeats=1)
    st.ops[0].record = st.ops[0].record.replace("|hops=", "|hops=9")
    m = run.measure(st.rg, st.ops, 0.0, False, None)
    assert m.checker.failures == {"audit record differs from the producing run's": run.MIN_PASSES}


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [*spec["command"], "--workload", "fuzz_enforced", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_stale_bytecode_is_never_read(tmp_path):
    """setup_s times cold imports however the checkout was left: a
    __pycache__ that a test run wrote next to the sources must not be read.
    The planted bytecode marks the package, so reading it shows directly
    instead of as a timing difference."""
    src = tmp_path / "src"
    shutil.copytree(run.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    init = src / "reentryguard" / "__init__.py"
    stale = tmp_path / "stale.py"
    stale.write_text(init.read_text() + "\nSTALE_BYTECODE = True\n")
    py_compile.compile(
        str(stale),
        cfile=str(init.parent / "__pycache__" / f"__init__.{sys.implementation.cache_tag}.pyc"),
        doraise=True,
        invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH,
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}

    def marked(code: str) -> str:
        out = subprocess.run(
            [sys.executable, "-B", "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {code}"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    assert marked("import reentryguard as rg; print(hasattr(rg, 'STALE_BYTECODE'))") == "True"
    bench = f"sys.path.insert(0, {str(run.BENCH_DIR)!r}); import run; rg = run.import_package()"
    assert marked(f"{bench}; print(hasattr(rg, 'STALE_BYTECODE'))") == "False"
