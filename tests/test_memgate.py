"""Memory gate: candidate store, promotion conjunction, leases, rendering."""

import random
from dataclasses import replace
from itertools import product

import pytest

from reentryguard.memgate import (
    FORBIDDEN_SCHEMAS,
    Lease,
    MemoryCandidate,
    MemoryStores,
    PolicyConfigError,
    PromotionPolicy,
    check_lease_write,
    default_policy,
    promote,
    promotion_checks,
)
from reentryguard.model import (
    CandidateScope,
    CandidateSource,
    PayloadFacets,
    SchemaKind,
)


def candidate(
    schema=SchemaKind.TYPED_PREFERENCE,
    source=CandidateSource.USER_DIRECT,
    scope=CandidateScope.SELF_SESSION,
    authority=1,
    ttl=30,
    cid=1,
    **kw,
) -> MemoryCandidate:
    return MemoryCandidate(
        id=cid, schema=schema, source=source, scope=scope, authority=authority, ttl=ttl, **kw
    )


def oracle_promote(c: MemoryCandidate, p: PromotionPolicy) -> bool:
    """Independent statement of the rule: all five predicates, spelled out."""
    return (
        c.schema in p.allowed_schemas
        and c.source in p.allowed_sources
        and c.scope in p.allowed_scopes
        and c.authority <= p.authority_max
        and c.ttl <= p.ttl_max
    )


class TestPromotionPolicy:
    def test_default_policy_is_well_formed(self):
        policy = default_policy()
        assert policy.authority_max == 2
        assert policy.ttl_max == 90
        assert not policy.allowed_schemas & FORBIDDEN_SCHEMAS

    def test_forbidden_schema_rejected_at_construction(self):
        for schema in FORBIDDEN_SCHEMAS:
            with pytest.raises(PolicyConfigError):
                PromotionPolicy(
                    allowed_schemas=frozenset({schema}),
                    allowed_sources=frozenset({CandidateSource.USER_DIRECT}),
                    allowed_scopes=frozenset({CandidateScope.SELF_SESSION}),
                )

    def test_negative_bounds_rejected(self):
        with pytest.raises(PolicyConfigError):
            PromotionPolicy(
                allowed_schemas=frozenset({SchemaKind.TYPED_FACT}),
                allowed_sources=frozenset({CandidateSource.USER_DIRECT}),
                allowed_scopes=frozenset({CandidateScope.SELF_SESSION}),
                authority_max=-1,
            )


class TestPromote:
    def test_conforming_candidate_promotes(self):
        assert promote(candidate(), default_policy())

    def test_free_form_instruction_never_promotes(self):
        c = candidate(schema=SchemaKind.FREE_FORM_INSTRUCTION, authority=0, ttl=1)
        assert not promote(c, default_policy())

    def test_authority_boundary(self):
        policy = default_policy()
        assert promote(candidate(authority=2), policy)
        assert not promote(candidate(authority=3), policy)

    def test_ttl_boundary(self):
        policy = default_policy()
        assert promote(candidate(ttl=90), policy)
        assert not promote(candidate(ttl=91), policy)

    def test_checks_name_each_predicate(self):
        checks = promotion_checks(candidate(authority=3), default_policy())
        assert checks["authority"] is False
        assert checks["schema"] is True

    def test_exhaustive_product_against_conjunction_oracle(self):
        """Full schema x source x scope product, with authority and ttl swept
        across both sides of each bound."""
        policy = default_policy()
        authorities = (policy.authority_max - 1, policy.authority_max, policy.authority_max + 1)
        ttls = (policy.ttl_max - 1, policy.ttl_max, policy.ttl_max + 1)
        total = 0
        admitted = 0
        for schema, source, scope, authority, ttl in product(
            SchemaKind, CandidateSource, CandidateScope, authorities, ttls
        ):
            c = candidate(schema=schema, source=source, scope=scope, authority=authority, ttl=ttl)
            got = promote(c, policy)
            assert got == oracle_promote(c, policy)
            total += 1
            admitted += got
        assert total == len(SchemaKind) * len(CandidateSource) * len(CandidateScope) * 9
        # both outcomes must occur or the sweep proves nothing
        assert 0 < admitted < total


class TestStores:
    def test_any_candidate_enters_store(self):
        stores = MemoryStores()
        free_form = candidate(schema=SchemaKind.FREE_FORM_INSTRUCTION, cid=1)
        typed = candidate(schema=SchemaKind.TYPED_FACT, cid=2)
        stores.submit_candidate(free_form)
        stores.submit_candidate(typed)
        assert set(stores.candidates) == {1, 2}

    def test_candidates_never_render(self):
        """Submission alone leaves the projection untouched, whatever comes in."""
        stores = MemoryStores()
        rng = random.Random(11)
        for i in range(1000):
            stores.submit_candidate(
                candidate(
                    schema=rng.choice(list(SchemaKind)),
                    source=rng.choice(list(CandidateSource)),
                    scope=rng.choice(list(CandidateScope)),
                    authority=rng.randint(0, 5),
                    ttl=rng.randint(0, 200),
                    cid=i,
                )
            )
        assert len(stores.candidates) == 1000
        assert stores.render_projection(tick=0) == []

    def test_admit_moves_candidate_to_trusted(self):
        stores = MemoryStores()
        stores.submit_candidate(candidate(cid=5))
        stores.admit(5, tick=2)
        assert 5 not in stores.candidates
        assert len(stores.render_projection(tick=2)) == 1

    def test_projection_counts_trusted_only(self):
        stores = MemoryStores()
        for i in range(1, 6):
            stores.submit_candidate(candidate(cid=i))
        stores.admit(1, tick=0)
        stores.admit(2, tick=0)
        assert len(stores.render_projection(tick=0)) == 2
        assert len(stores.candidates) == 3

    def test_rendered_entries_carry_no_facets(self):
        """RenderedEntry has no facet field by construction; a facet-bearing
        candidate admitted anyway surfaces only its typed tuple."""
        stores = MemoryStores()
        loaded = candidate(cid=1, content=PayloadFacets.full())
        stores.submit_candidate(loaded)
        stores.admit(1, tick=0)
        (entry,) = stores.render_projection(tick=0)
        assert not hasattr(entry, "content")
        assert not hasattr(entry, "facets")
        assert entry.schema is SchemaKind.TYPED_PREFERENCE

    def test_ttl_eviction_is_lazy_but_effective(self):
        stores = MemoryStores()
        stores.submit_candidate(candidate(cid=1, ttl=3))
        stores.admit(1, tick=0)
        assert len(stores.render_projection(tick=3)) == 1
        assert stores.render_projection(tick=4) == []

    def test_raw_render_is_the_ungated_baseline(self):
        stores = MemoryStores()
        stores.submit_candidate(candidate(cid=1, content=PayloadFacets.full()))
        stores.admit(1, tick=0)
        (raw,) = stores.raw_render()
        assert raw.content == PayloadFacets.full()


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

    def test_simulator_reads_memory_through_the_projection(self, monkeypatch):
        """The gated heartbeat read renders the store with render_projection,
        the typed projection the tests above check."""
        from reentryguard.policy import EnforcementConfig
        from reentryguard.scenarios import load_bundled
        from reentryguard.sim import run_scenario

        ticks = []
        render = MemoryStores.render_projection
        monkeypatch.setattr(
            MemoryStores, "render_projection", lambda store, tick: ticks.append(tick) or render(store, tick)
        )
        run_scenario(replace(load_bundled("fwA"), enforcement=EnforcementConfig.from_names("memgate")))
        assert ticks
