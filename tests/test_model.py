"""Core vocabulary: labels, facets, decisions, carriers, events."""

import copy
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reentryguard.model import (
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
            assert FACET_VALUES[token].token() == token

    def test_none_and_full(self):
        assert not NO_FACETS.any
        assert FACET_VALUES["1111"].token() == "1111"

    def test_union(self):
        a = FACET_VALUES["1010"]
        b = FACET_VALUES["0110"]
        assert a.union(b).token() == "1110"

    def test_issubset(self):
        small = FACET_VALUES["0010"]
        big = FACET_VALUES["1010"]
        # union returns an operand that holds the other
        assert small.union(big) is big
        assert big.union(small) is not small

    def test_shared_values(self):
        """NO_FACETS is the "0000" value, and each of the 16 FACET_VALUES is
        keyed by its own token."""
        assert NO_FACETS is FACET_VALUES["0000"]
        assert len(FACET_VALUES) == 16
        for token, facets in FACET_VALUES.items():
            assert facets.token() == token

    def test_union_returns_an_operand_it_equals(self):
        for a in FACET_VALUES.values():
            for b in FACET_VALUES.values():
                union = a.union(b)
                assert union.token() == "".join(max(x, y) for x, y in zip(a.token(), b.token()))
                assert union is FACET_VALUES[union.token()]
                if union == a:
                    assert union is a
                elif union == b:
                    assert union is b


FACET_FLAGS = tuple(f.name for f in fields(PayloadFacets))
shared_facets = st.sampled_from(list(FACET_VALUES.values()))
# a flag is read by its truth value, so truthy ints construct too
flag_values = st.booleans() | st.integers(min_value=0, max_value=2)


def _shared_value_of(flags: dict) -> PayloadFacets:
    return FACET_VALUES["".join("1" if flags.get(name) else "0" for name in FACET_FLAGS)]


class TestFacetsAreShared:
    """Every construction path returns one of the 16 FACET_VALUES, so facets
    compare and hash by identity, like decisions."""

    @given(shared_facets, shared_facets)
    def test_union_is_a_shared_value(self, a, b):
        union = a.union(b)
        assert union is _shared_value_of({n: getattr(a, n) or getattr(b, n) for n in FACET_FLAGS})
        assert a.union(union) is union and b.union(union) is union

    @given(shared_facets, st.dictionaries(st.sampled_from(FACET_FLAGS), flag_values))
    def test_replace_is_a_shared_value(self, facets, changes):
        assert replace(facets, **changes) is _shared_value_of({**vars(facets), **changes})

    @given(st.builds(PayloadFacets, **dict.fromkeys(FACET_FLAGS, flag_values)))
    def test_builds_is_a_shared_value(self, facets):
        assert facets is FACET_VALUES[facets.token()]

    def test_construction_leaves_the_shared_fields_alone(self):
        assert PayloadFacets() is NO_FACETS
        assert PayloadFacets(persist=1) is FACET_VALUES["1000"]
        assert PayloadFacets(1, 0, 2, 0) is FACET_VALUES["1010"]
        for token, facets in FACET_VALUES.items():
            assert [getattr(facets, n) for n in FACET_FLAGS] == [bit == "1" for bit in token]
            assert all(type(getattr(facets, n)) is bool for n in FACET_FLAGS)

    def test_copies_are_the_shared_value(self):
        for facets in FACET_VALUES.values():
            assert copy.copy(facets) is facets
            assert copy.deepcopy(facets) is facets
            assert pickle.loads(pickle.dumps(facets)) is facets

    def test_facets_hash_by_identity(self):
        assert len(set(FACET_VALUES.values())) == 16
        for facets in FACET_VALUES.values():
            assert hash(facets) == object.__hash__(facets)


class TestDecision:
    def test_deny_requires_non_ok_reason(self):
        with pytest.raises(ValueError):
            Decision((Verdict.DENY, Reason.OK))

    def test_guard_requires_non_ok_reason(self):
        with pytest.raises(ValueError):
            Decision((Verdict.GUARD, Reason.OK))

    def test_allow_blames_no_layer(self):
        for reason in Reason:
            if REASON_LAYER[reason] is Layer.NONE:
                assert Decision((Verdict.ALLOW, reason)).layer is Layer.NONE
            else:
                with pytest.raises(ValueError):
                    Decision((Verdict.ALLOW, reason))

    def test_constructors_pick_owning_layer(self):
        assert Decision.DENY_RE_ENTRY.layer is Layer.RTW
        assert Decision.DENY_SEALED.layer is Layer.SEAL
        assert Decision.DENY_LEASE.layer is Layer.MEMGATE
        assert Decision.DENY_PROMOTION.layer is Layer.MEMGATE
        assert Decision.GUARD_ATTENUATED.layer is Layer.ATTENUATION

    def test_every_reason_has_exactly_one_layer(self):
        assert set(REASON_LAYER) == set(Reason)

    def test_constructors_share_one_object_per_pair(self):
        assert Decision((Verdict.ALLOW, Reason.OK)) is Decision.ALLOW
        assert Decision((Verdict.DENY, Reason.RTW_RE_ENTRY)) is Decision.DENY_RE_ENTRY
        assert Decision((Verdict.GUARD, Reason.ATTENUATED_HIGHRISK)) is Decision.GUARD_ATTENUATED
        assert {f"{d.verdict.value}|{d.reason.value}" for d in Decision} == {
            "allow|ok", "allow|not-mediated-lowrisk", "deny|sealed-config", "deny|rtw-re-entry",
            "deny|lease-expired", "deny|promotion-rejected", "deny|attenuated-highrisk",
            "guard|attenuated-highrisk",
        }

    def test_members_are_the_pairs_the_rule_admits(self):
        """Allow exactly when the reason has no layer, and guard only with
        attenuated-highrisk: the members are all the pairs this admits."""
        admitted = {
            (v, r)
            for v in Verdict
            for r in Reason
            if (v is Verdict.ALLOW) == (REASON_LAYER[r] is Layer.NONE)
            and (v is not Verdict.GUARD or r is Reason.ATTENUATED_HIGHRISK)
        }
        assert {(d.verdict, d.reason) for d in Decision} == admitted
        for decision in Decision:
            assert decision.value == (decision.verdict, decision.reason)
            assert decision.layer is REASON_LAYER[decision.reason]

    def test_decisions_compare_by_identity(self):
        """Decision has no value equality: the 8 members are the decisions,
        so looking one up returns the member."""
        assert len(Decision) == 8
        assert len(set(Decision)) == 8
        assert Decision((Verdict.ALLOW, Reason.OK)) is Decision.ALLOW

    def test_decisions_hash_by_identity(self):
        for decision in Decision:
            assert hash(decision) == object.__hash__(decision)

    def test_effective_under_guard_modes(self):
        allow = Decision.ALLOW
        deny = Decision.DENY_SEALED
        guard = Decision.GUARD_ATTENUATED
        assert allow in EFFECTIVE[GuardMode.DENY_ALL]
        assert allow in EFFECTIVE[GuardMode.APPROVE_ALL]
        assert deny not in EFFECTIVE[GuardMode.APPROVE_ALL]
        assert guard not in EFFECTIVE[GuardMode.DENY_ALL]
        assert guard in EFFECTIVE[GuardMode.APPROVE_ALL]


_PAIRS = [d.value for d in Decision]
_INADMISSIBLE = [(v, r) for v in Verdict for r in Reason if (v, r) not in _PAIRS]


def _pair_id(pair: tuple[Verdict, Reason]) -> str:
    return f"{pair[0].value}-{pair[1].value}"


class TestDecisionsAreShared:
    """Every lookup, copy and pickle returns one of the 8 members, so
    whether a decision takes effect (membership in an EFFECTIVE set) does
    not depend on how the event holding it was made or copied."""

    @pytest.mark.parametrize("pair", _PAIRS, ids=_pair_id)
    def test_every_construction_is_the_shared_decision(self, pair):
        shared = Decision(pair)
        assert shared.value == pair
        assert copy.copy(shared) is shared
        assert copy.deepcopy(shared) is shared
        assert pickle.loads(pickle.dumps(shared)) is shared

    @pytest.mark.parametrize("pair", _INADMISSIBLE, ids=_pair_id)
    def test_inadmissible_pair_raises(self, pair):
        with pytest.raises(ValueError, match="is not a valid Decision"):
            Decision(pair)


class TestCarrierInvariants:
    def test_static_config_must_autoload_at_session_start(self):
        with pytest.raises(CarrierInvariantError):
            make_carrier(cls=CarrierClass.STATIC_CONFIG, autoload=AutoloadPolicy.HEARTBEAT)

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
