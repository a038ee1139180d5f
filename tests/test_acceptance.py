"""Acceptance gate: ten release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the [PASS]/[FAIL]
lines; each criterion is a single test so the pytest verdict per test is the
criterion verdict. Timed criteria measure fresh runs, never fixture caches.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

from reentryguard.cli import emit_capability_matrix
from reentryguard.memgate import AUTHORITY_MAX, TTL_MAX, promote
from reentryguard.model import (
    CandidateScope,
    CandidateSource,
    EventKind,
    SchemaKind,
    TaintLabel,
)
from reentryguard.policy import EnforcementConfig
from reentryguard.rtw import is_rtw_safe
from reentryguard.scenarios import load_bundled, random_scenario
from reentryguard.sim import run_scenario
from reentryguard.tracelog import parse_trace
from reentryguard.verifier import find_chains, is_effective
from tests.test_memgate import candidate, oracle_promote
from tests.test_rtw import brute_force_safe
from tests.test_verifier import naive_chains, render, toy_meta
from tests.test_verifier import TestFindChainsAgainstNaiveScan as ChainToy


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {label}", flush=True)
        raise
    print(f"[PASS] criterion {num:02d}: {label}", flush=True)


LAYER_REASONS = {
    "rtw": {"rtw-re-entry"},
    "seal": {"sealed-config"},
    "memgate": {"lease-expired", "promotion-rejected"},
    "attenuation": {"attenuated-highrisk"},
}

RISKY_CLASSES = {"static_config", "trusted_memory"}
RISKY_AUTOLOADS = {"session_start", "heartbeat"}


def _risky_carrier_ids(meta) -> set[int]:
    return {
        c.id
        for c in meta.carriers
        if c.cls in RISKY_CLASSES
        or c.autoload in RISKY_AUTOLOADS
        or c.scope == "shared_cross_agent"
    }


def test_criterion_01_attack_reproduction():
    with criterion(1, "undefended runs show all four worm outcomes in under 1s each"):
        for name in ("fwA", "fwB", "fwC"):
            start = time.perf_counter()
            report = run_scenario(load_bundled(name)).report
            elapsed = time.perf_counter() - start
            assert report.persistence, name
            assert report.re_entry, name
            assert report.propagation, name
            assert report.privilege_escalation, name
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def test_criterion_02_propagation_efficiency(bundled):
    with criterion(2, "exactly 3 zero-click hops within 3 heartbeat periods per hop"):
        for name in ("fwA", "fwB", "fwC", "cross_framework"):
            scenario = load_bundled(name)
            report = bundled(name).report
            assert report.hops == 3, f"{name}: hops={report.hops}"
            assert report.zero_click, name
            periods = {a.id: a.heartbeat_period for a in scenario.agents}
            previous = scenario.injection.tick
            for agent, tick in zip(report.infected, report.infection_ticks):
                assert tick - previous <= 3 * periods[agent], (
                    f"{name}: {agent} infected at {tick}, previous at {previous}"
                )
                previous = tick


def test_criterion_03_no_chains_under_full_enforcement():
    with criterion(3, "zero chain witnesses under all four layers, bundled + 1000 fuzz"):
        start = time.perf_counter()
        cfg = EnforcementConfig.all_enabled()
        for name in ("fwA", "fwB", "fwC", "cross_framework",
                     "privilege_escalation", "exfiltration"):
            result = run_scenario(replace(load_bundled(name), enforcement=cfg))
            assert find_chains(result.trace_text) == [], name
        for seed in range(1000):
            result = run_scenario(random_scenario(seed, cfg))
            assert find_chains(result.trace_text) == [], f"fuzz seed {seed}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_layer_ablation(bundled, contamination):
    with criterion(4, "each single layer denies only its own reasons and cuts its link"):
        for layer, owned in LAYER_REASONS.items():
            report = bundled("fwA", enforce=layer).report
            reasons = set(report.intervention_reasons)
            assert reasons, f"{layer}: layer never fired"
            assert reasons <= owned, f"{layer}: foreign reasons {reasons - owned}"

        meta, events = parse_trace(bundled("fwA", enforce="seal").trace_text)
        config_ids = {c.id for c in meta.carriers if c.cls == "static_config"}
        effective_config_writes = [
            ev for ev in events
            if ev.kind is EventKind.WRITE
            and ev.carrier_id in config_ids
            and is_effective(ev, meta)
        ]
        assert not effective_config_writes

        meta, events = parse_trace(bundled("fwA", enforce="rtw").trace_text)
        gated_ids = {
            c.id for c in meta.carriers
            if c.cls in ("workspace_file", "shared_channel_log")
        }
        effective_tainted_reads = [
            ev for ev in events
            if ev.kind is EventKind.EXPOSED_READ
            and ev.carrier_id in gated_ids
            and ev.label is not None
            and ev.label.untrusted
            and is_effective(ev, meta)
        ]
        assert not effective_tainted_reads

        meta, events = parse_trace(bundled("fwA", enforce="memgate").trace_text)
        effective_freeform_promotes = [
            ev for ev in events
            if ev.kind is EventKind.PROMOTE
            and ev.schema is SchemaKind.FREE_FORM_INSTRUCTION
            and is_effective(ev, meta)
        ]
        assert not effective_freeform_promotes
        denied_promotes = [
            ev for ev in events
            if ev.kind is EventKind.PROMOTE and not is_effective(ev, meta)
        ]
        assert denied_promotes

        meta, events = parse_trace(bundled("fwA", enforce="attenuation").trace_text)
        contaminated = contamination(events, meta)
        risky = _risky_carrier_ids(meta)
        effective_contaminated_actions = [
            ev for i, ev in enumerate(events)
            if contaminated[i]
            and is_effective(ev, meta)
            and (
                ev.kind in (EventKind.HIGH_RISK, EventKind.MSG_SEND)
                or (ev.kind is EventKind.WRITE and ev.carrier_id in risky)
            )
        ]
        assert not effective_contaminated_actions


def test_criterion_05_rtw_scanner_equals_brute_force():
    with criterion(5, "regular-language scan matches brute force on all words <= 12"):
        start = time.perf_counter()
        checked = 0
        for n in range(13):
            for bits in range(1 << n):
                word = "".join("W" if bits & (1 << i) else "R" for i in range(n))
                verdict = is_rtw_safe(word)
                safe, witness = brute_force_safe(word)
                assert verdict.safe == safe, word
                assert verdict.first_violation == witness, word
                checked += 1
        assert checked == 2**13 - 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_06_promotion_gate_exhaustive():
    with criterion(6, "promotion gate equals the 5-predicate oracle over the full product"):
        authorities = (AUTHORITY_MAX - 1, AUTHORITY_MAX, AUTHORITY_MAX + 1)
        ttls = (TTL_MAX - 1, TTL_MAX, TTL_MAX + 1)
        admitted = 0
        total = 0
        for schema, source, scope, authority, ttl in product(
            SchemaKind, CandidateSource, CandidateScope, authorities, ttls
        ):
            c = candidate(schema=schema, source=source, scope=scope,
                          authority=authority, ttl=ttl)
            got = promote(c)
            assert got == oracle_promote(c), c
            total += 1
            admitted += got
        assert total == len(SchemaKind) * len(CandidateSource) * len(CandidateScope) * 9
        assert 0 < admitted < total


def test_criterion_07_capability_matrix():
    with criterion(7, "permission matrix reproduces the four-quadrant pattern"):
        records = emit_capability_matrix(load_bundled("fwA"))
        got = [(r["config"], r["persistence"], r["propagation"]) for r in records]
        assert got == [
            ("full", "1", "1"),
            ("messaging_disabled", "1", "0"),
            ("file_write_disabled", "0", "1"),
            ("minimal", "0", "0"),
        ]


def test_criterion_08_verifier_matches_naive_scan():
    with criterion(8, "chain finder matches the triple-loop scan on all toy traces <= 6"):
        templates = ChainToy.CORE
        meta = toy_meta()
        for length in range(7):
            for combo in product(range(len(templates)), repeat=length):
                events = [templates[idx](t) for t, idx in enumerate(combo)]
                witnesses = find_chains(render(events, meta))
                oracle = naive_chains(events, meta, guard="deny")
                assert bool(witnesses) == bool(oracle), combo
                assert {w.write_index for w in witnesses} == {i for i, _, _ in oracle}, combo
                for w in witnesses:
                    pairs = sorted((j, k) for i, j, k in oracle if i == w.write_index)
                    assert (w.read_index, w.action_index) == pairs[0], combo


def test_criterion_09_byte_identical_replay():
    with criterion(9, "every (scenario, seed, enforcement) replay is byte-identical"):
        runs = [
            load_bundled("fwA"),
            replace(load_bundled("fwA"), enforcement=EnforcementConfig.all_enabled()),
            replace(load_bundled("fwB"), enforcement=EnforcementConfig.from_names("rtw,seal")),
            replace(load_bundled("exfiltration"),
                    enforcement=EnforcementConfig.from_names("attenuation")),
            random_scenario(11, EnforcementConfig.all_enabled()),
            replace(load_bundled("fwC"), seed=123),
        ]
        for scenario in runs:
            first = run_scenario(scenario).trace_text
            second = run_scenario(scenario).trace_text
            assert first == second, scenario.name


def test_criterion_10_degradation_threshold():
    with criterion(10, "persist-dropping hop strength confines infection to patient zero"):
        base = load_bundled("fwA")
        lossy = replace(base, transform_default=4, transform_strength={})
        report = run_scenario(lossy).report
        assert report.infected == ["a1"], report.infected
        assert report.hops == 1

        meta, events = parse_trace(run_scenario(lossy).trace_text)
        downstream_facet_writes = [
            ev for ev in events
            if ev.kind is EventKind.WRITE
            and ev.agent != "a1"
            and ev.facets.any
            and is_effective(ev, meta)
        ]
        assert not downstream_facet_writes

        lossless = replace(base, transform_default=0, transform_strength={})
        assert run_scenario(lossless).report.hops == 3
