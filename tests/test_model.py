"""Core vocabulary: labels, facets, decisions, carriers, events."""

import pytest

from reentryguard.model import (
    DECISIONS,
    EFFECTIVE,
    FACET_VALUES,
    NO_FACETS,
    REASON_LAYER,
    AutoloadPolicy,
    Carrier,
    CarrierClass,
    CarrierInvariantError,
    CarrierScope,
    Decision,
    Event,
    EventKind,
    GuardMode,
    InjectionPosition,
    Layer,
    PayloadFacets,
    Reason,
    TaintLabel,
    Verdict,
)


def make_carrier(cid: int = 1, cls: CarrierClass = CarrierClass.WORKSPACE_FILE, **kw) -> Carrier:
    defaults = dict(
        id=cid,
        name=f"c{cid}",
        cls=cls,
        owner="a1",
        injection=InjectionPosition.USER_PROMPT,
        autoload=AutoloadPolicy.ON_DEMAND,
        scope=CarrierScope.AGENT_LOCAL,
    )
    defaults.update(kw)
    return Carrier(**defaults)


class TestTaintLabel:
    def test_clean_is_trusted(self):
        assert not TaintLabel.CLEAN.untrusted

    def test_all_other_labels_untrusted(self):
        for label in (TaintLabel.EXTERNAL, TaintLabel.TAINTED, TaintLabel.TAINTED_DERIVED):
            assert label.untrusted


class TestPayloadFacets:
    def test_token_round_trip_all_sixteen(self):
        for bits in range(16):
            token = format(bits, "04b")
            assert PayloadFacets.from_token(token).token() == token

    def test_none_and_full(self):
        assert not PayloadFacets.none().any
        assert PayloadFacets.full().token() == "1111"

    def test_union(self):
        a = PayloadFacets.from_token("1010")
        b = PayloadFacets.from_token("0110")
        assert a.union(b).token() == "1110"

    def test_issubset(self):
        small = PayloadFacets.from_token("0010")
        big = PayloadFacets.from_token("1010")
        assert small.issubset(big)
        assert not big.issubset(small)

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            PayloadFacets.from_token("11")
        with pytest.raises(ValueError):
            PayloadFacets.from_token("10x1")

    def test_shared_values(self):
        """none(), full() and from_token hand out the 16 FACET_VALUES."""
        assert PayloadFacets.none() is PayloadFacets.none() is NO_FACETS
        assert PayloadFacets.full() is FACET_VALUES["1111"]
        assert len(FACET_VALUES) == 16
        for token, facets in FACET_VALUES.items():
            assert PayloadFacets.from_token(token) is facets
            assert facets.token() == token

    def test_union_returns_an_operand_it_equals(self):
        for a in FACET_VALUES.values():
            for b in FACET_VALUES.values():
                union = a.union(b)
                assert union.token() == "".join(max(x, y) for x, y in zip(a.token(), b.token()))
                if union == a:
                    assert union is a
                elif union == b:
                    assert union is b


class TestDecision:
    def test_deny_requires_non_ok_reason(self):
        with pytest.raises(ValueError):
            Decision(Verdict.DENY, Reason.OK)

    def test_guard_requires_non_ok_reason(self):
        with pytest.raises(ValueError):
            Decision(Verdict.GUARD, Reason.OK)

    def test_allow_blames_no_layer(self):
        for reason in Reason:
            if REASON_LAYER[reason] is Layer.NONE:
                assert Decision(Verdict.ALLOW, reason).layer is Layer.NONE
            else:
                with pytest.raises(ValueError):
                    Decision(Verdict.ALLOW, reason)

    def test_constructors_pick_owning_layer(self):
        assert Decision.deny(Reason.RTW_RE_ENTRY).layer is Layer.RTW
        assert Decision.deny(Reason.SEALED_CONFIG).layer is Layer.SEAL
        assert Decision.deny(Reason.LEASE_EXPIRED).layer is Layer.MEMGATE
        assert Decision.deny(Reason.PROMOTION_REJECTED).layer is Layer.MEMGATE
        assert Decision.guard(Reason.ATTENUATED_HIGHRISK).layer is Layer.ATTENUATION

    def test_every_reason_has_exactly_one_layer(self):
        assert set(REASON_LAYER) == set(Reason)

    def test_constructors_share_one_object_per_pair(self):
        assert Decision.allow() is Decision.allow()
        assert Decision.allow() is DECISIONS[Verdict.ALLOW, Reason.OK]
        assert Decision.deny(Reason.RTW_RE_ENTRY) is Decision.deny(Reason.RTW_RE_ENTRY)
        assert Decision.guard(Reason.ATTENUATED_HIGHRISK) is DECISIONS[Verdict.GUARD, Reason.ATTENUATED_HIGHRISK]
        assert set(DECISIONS) == {(v, r) for v in Verdict for r in Reason if Decision.admits(v, r)}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Decision.allow(Reason.RTW_RE_ENTRY),
            lambda: Decision.deny(Reason.OK),
            lambda: Decision.guard(Reason.NOT_MEDIATED_LOWRISK),
        ],
        ids=["allow-layer-reason", "deny-ok", "guard-lowrisk"],
    )
    def test_constructors_refuse_inadmissible_pairs(self, make):
        with pytest.raises(ValueError):
            make()

    def test_decisions_compare_by_identity(self):
        """Decision has no value equality: the 12 shared objects are the
        decisions, so one built outside the table equals none of them."""
        assert len(DECISIONS) == 12
        assert len(set(DECISIONS.values())) == 12
        assert Decision(Verdict.ALLOW, Reason.OK) != Decision.allow()

    def test_effective_under_guard_modes(self):
        allow = Decision.allow()
        deny = Decision.deny(Reason.SEALED_CONFIG)
        guard = Decision.guard(Reason.ATTENUATED_HIGHRISK)
        assert allow in EFFECTIVE[GuardMode.DENY_ALL]
        assert allow in EFFECTIVE[GuardMode.APPROVE_ALL]
        assert deny not in EFFECTIVE[GuardMode.APPROVE_ALL]
        assert guard not in EFFECTIVE[GuardMode.DENY_ALL]
        assert guard in EFFECTIVE[GuardMode.APPROVE_ALL]


class TestCarrierInvariants:
    def test_static_config_must_autoload_at_session_start(self):
        with pytest.raises(CarrierInvariantError):
            make_carrier(cls=CarrierClass.STATIC_CONFIG, autoload=AutoloadPolicy.HEARTBEAT)

    def test_candidate_memory_never_autoloads(self):
        with pytest.raises(CarrierInvariantError):
            make_carrier(cls=CarrierClass.CANDIDATE_MEMORY, autoload=AutoloadPolicy.HEARTBEAT)

    def test_autoloaded_property(self):
        assert make_carrier(autoload=AutoloadPolicy.HEARTBEAT).autoloaded
        assert make_carrier(autoload=AutoloadPolicy.SESSION_START).autoloaded
        assert not make_carrier(autoload=AutoloadPolicy.ON_DEMAND).autoloaded


def ev(tick: int, kind: EventKind, carrier_id: int | None = None, agent: str = "a1") -> Event:
    return Event(tick=tick, agent=agent, kind=kind, carrier_id=carrier_id)


class TestTrace:
    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            ev(-1, EventKind.HEARTBEAT)
