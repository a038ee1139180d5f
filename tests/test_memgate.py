"""Memory gate: the promotion table and conjunction, leases, and what trusted memory renders."""

from dataclasses import replace
from itertools import product

import pytest

from reentryguard.memgate import (
    ALLOWED_SCHEMAS,
    ALLOWED_SCOPES,
    ALLOWED_SOURCES,
    AUTHORITY_MAX,
    FORBIDDEN_SCHEMAS,
    TTL_MAX,
    Lease,
    MemoryCandidate,
    check_lease_write,
    promote,
    promotion_checks,
)
from reentryguard.model import (
    CandidateScope,
    CandidateSource,
    SchemaKind,
)


def candidate(
    schema=SchemaKind.TYPED_PREFERENCE,
    source=CandidateSource.USER_DIRECT,
    scope=CandidateScope.SELF_SESSION,
    authority=1,
    ttl=30,
    cid=1,
) -> MemoryCandidate:
    return MemoryCandidate(id=cid, schema=schema, source=source, scope=scope, authority=authority, ttl=ttl)


def oracle_promote(c: MemoryCandidate) -> bool:
    """Independent statement of the rule: all five predicates, spelled out."""
    return (
        c.schema in ALLOWED_SCHEMAS
        and c.source in ALLOWED_SOURCES
        and c.scope in ALLOWED_SCOPES
        and c.authority <= AUTHORITY_MAX
        and c.ttl <= TTL_MAX
    )


def test_promotion_table_is_well_formed():
    """The one table lists no forbidden schema, and its bounds are
    non-negative."""
    assert not ALLOWED_SCHEMAS & FORBIDDEN_SCHEMAS
    assert AUTHORITY_MAX == 2 and TTL_MAX == 90
    assert AUTHORITY_MAX >= 0 and TTL_MAX >= 0


def test_every_schema_is_allowed_or_forbidden():
    """No schema falls between the table and the forbidden set: adding a
    schema to the model forces a decision on whether it may be promoted."""
    assert ALLOWED_SCHEMAS | FORBIDDEN_SCHEMAS == set(SchemaKind)


class TestCandidate:
    def test_negative_authority_rejected(self):
        with pytest.raises(ValueError):
            candidate(authority=-1)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            candidate(ttl=-1)


class TestPromote:
    def test_conforming_candidate_promotes(self):
        assert promote(candidate())

    def test_free_form_instruction_never_promotes(self):
        c = candidate(schema=SchemaKind.FREE_FORM_INSTRUCTION, authority=0, ttl=1)
        assert not promote(c)

    def test_authority_boundary(self):
        assert promote(candidate(authority=2))
        assert not promote(candidate(authority=3))

    def test_ttl_boundary(self):
        assert promote(candidate(ttl=90))
        assert not promote(candidate(ttl=91))

    @pytest.mark.parametrize(
        "predicate, field, value",
        [
            ("schema", "schema", SchemaKind.TOOL_PERMISSION),
            ("source", "source", CandidateSource.AGENT_SUMMARY),
            ("scope", "scope", CandidateScope.CROSS_AGENT),
            ("authority", "authority", AUTHORITY_MAX + 1),
            ("ttl", "ttl", TTL_MAX + 1),
        ],
    )
    def test_one_failing_predicate_denies(self, predicate, field, value):
        """A candidate out of bounds on exactly one predicate is refused, and
        the checks blame that predicate alone."""
        c = candidate(**{field: value})
        assert not promote(c)
        assert [name for name, ok in promotion_checks(c).items() if not ok] == [predicate]

    def test_checks_name_each_predicate(self):
        checks = promotion_checks(candidate(authority=3))
        assert checks["authority"] is False
        assert checks["schema"] is True

    def test_exhaustive_product_against_conjunction_oracle(self):
        """Full schema x source x scope product, with authority and ttl swept
        across both sides of each bound."""
        authorities = (AUTHORITY_MAX - 1, AUTHORITY_MAX, AUTHORITY_MAX + 1)
        ttls = (TTL_MAX - 1, TTL_MAX, TTL_MAX + 1)
        total = 0
        admitted = 0
        for schema, source, scope, authority, ttl in product(
            SchemaKind, CandidateSource, CandidateScope, authorities, ttls
        ):
            c = candidate(schema=schema, source=source, scope=scope, authority=authority, ttl=ttl)
            got = promote(c)
            assert got == oracle_promote(c)
            total += 1
            admitted += got
        assert total == len(SchemaKind) * len(CandidateSource) * len(CandidateScope) * 9
        # both outcomes must occur or the sweep proves nothing
        assert 0 < admitted < total


class TestLeases:
    def test_interior_tick_allowed(self):
        assert check_lease_write(1, 5, [Lease(carrier_id=1, t0=3, t1=7)])

    def test_boundaries_inclusive(self):
        leases = [Lease(carrier_id=1, t0=3, t1=7)]
        assert check_lease_write(1, 3, leases)
        assert check_lease_write(1, 7, leases)

    def test_expired_denied(self):
        assert not check_lease_write(1, 8, [Lease(carrier_id=1, t0=3, t1=7)])

    def test_no_lease_denied(self):
        assert not check_lease_write(1, 5, [])

    def test_other_carrier_lease_grants_nothing(self):
        assert not check_lease_write(1, 5, [Lease(carrier_id=2, t0=0, t1=9)])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Lease(carrier_id=1, t0=5, t1=2)


class TestGateCompleteness:
    def test_no_bypass_into_rendered_context(self, bundled):
        """Everything rendered passed the gate: with memgate on, every promote
        event that took effect satisfies the promotion conjunction, and every
        rejected one does not appear as an extra trusted read."""
        from reentryguard.model import EventKind, Verdict
        from reentryguard.tracelog import parse_trace

        meta, events = parse_trace(bundled("fwA", enforce="memgate").trace_text)
        promotes = [ev for ev in events if ev.kind is EventKind.PROMOTE]
        allowed = [ev for ev in promotes if ev.decision.verdict is Verdict.ALLOW]
        denied = [ev for ev in promotes if ev.decision.verdict is Verdict.DENY]
        # the worm proposes a forbidden-schema promotion on every infected agent
        assert denied, "expected rejected promotions in the undefended-invariant run"
        for ev in denied:
            assert ev.schema in FORBIDDEN_SCHEMAS
        for ev in allowed:
            assert ev.schema not in FORBIDDEN_SCHEMAS

    def test_simulator_candidate_fails_every_predicate(self):
        """The one candidate a contaminated agent submits is out of bounds on
        every predicate, so no single relaxed bound would admit it."""
        from reentryguard.sim import _CANDIDATE

        assert not any(promotion_checks(_CANDIDATE).values())

    @staticmethod
    def _run_fwA(config):
        from reentryguard.scenarios import load_bundled
        from reentryguard.sim import Ecosystem

        eco = Ecosystem(replace(load_bundled("fwA"), enforcement=config))
        return eco, eco.run()

    def test_ungated_promotion_keeps_the_promoted_facets(self):
        """With the gate off, each agent's effective promotion leaves one
        promoted entry holding exactly the facets it proposed."""
        from reentryguard.model import EnforcementConfig, EventKind, Verdict

        eco, trace = self._run_fwA(EnforcementConfig.none())
        effective = {ev.agent: ev.facets for ev in trace
                     if ev.kind is EventKind.PROMOTE and ev.decision.verdict is Verdict.ALLOW}
        assert effective
        assert eco.promoted == effective

    def test_gated_promotion_submits_but_keeps_nothing(self):
        """With the gate on, every proposing agent's candidate is recorded as
        submitted, and none reaches the promoted store."""
        from reentryguard.model import EnforcementConfig, EventKind

        eco, trace = self._run_fwA(EnforcementConfig.from_names("memgate"))
        proposers = {ev.agent for ev in trace if ev.kind is EventKind.PROMOTE}
        assert proposers
        assert set(eco.candidates) == proposers
        assert eco.promoted == {}

    def test_memgate_runs_never_expose_trusted_memory(self):
        """With the gate on, the one candidate a contaminated agent submits
        is never promoted, so no heartbeat reads trusted memory: bundled
        runs and fuzz seeds 0-49 (capped at 8 ticks), under every layer set
        that includes memgate and both guard modes."""
        from reentryguard.model import CarrierClass, EnforcementConfig, EventKind, GuardMode
        from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
        from reentryguard.sim import run_scenario
        from reentryguard.tracelog import parse_trace

        scenarios = [load_bundled(name) for name in bundled_names()]
        for seed in range(50):
            drawn = random_scenario(seed)
            scenarios.append(replace(drawn, max_ticks=min(drawn.max_ticks, 8)))
        promotes = 0
        for base, rtw, seal, attenuation, guard in product(
            scenarios, (False, True), (False, True), (False, True), GuardMode
        ):
            config = EnforcementConfig(rtw, seal, True, attenuation, guard)
            meta, events = parse_trace(run_scenario(replace(base, enforcement=config)).trace_text)
            memory = {c.id for c in meta.carriers if c.cls is CarrierClass.TRUSTED_MEMORY}
            assert not [ev for ev in events if ev.kind is EventKind.EXPOSED_READ and ev.carrier_id in memory]
            promotes += sum(ev.kind is EventKind.PROMOTE for ev in events)
        # the worm must have tried, or the sweep proves nothing
        assert promotes

    def test_promoted_memory_reenters_on_next_heartbeat(self):
        """With the gate off, an agent's first heartbeat after its effective
        promotion reads its trusted memory, labeled as the promotion was."""
        from reentryguard.model import CarrierClass, EnforcementConfig, EventKind
        from reentryguard.scenarios import load_bundled
        from reentryguard.sim import run_scenario
        from reentryguard.tracelog import parse_trace
        from reentryguard.verifier import is_effective

        scenario = replace(load_bundled("fwA"), enforcement=EnforcementConfig.none())
        meta, events = parse_trace(run_scenario(scenario).trace_text)
        memory = {c.owner: c.id for c in meta.carriers if c.cls is CarrierClass.TRUSTED_MEMORY}
        checked = 0
        for i, promoted in enumerate(events):
            if promoted.kind is not EventKind.PROMOTE or not is_effective(promoted, meta):
                continue
            agent = promoted.agent
            beat = next(j for j in range(i + 1, len(events))
                        if events[j].kind is EventKind.HEARTBEAT and events[j].agent == agent)
            end = next((j for j in range(beat + 1, len(events)) if events[j].kind is EventKind.HEARTBEAT), len(events))
            reads = [ev for ev in events[beat:end]
                     if ev.kind is EventKind.EXPOSED_READ and ev.agent == agent and ev.carrier_id == memory[agent]]
            assert [ev.label for ev in reads] == [promoted.label], agent
            checked += 1
        assert checked
