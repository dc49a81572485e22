from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given

from genutil import Label, partial_bijections_st, relations_st
from sincov import EMPTY, Atlas, CoinjectivityViolated, Relation, SincovSystem


def brute_compose(rho, sigma):
    # Straight from the definition: (a, b) with some c linking both.
    out = set()
    for c1, b in rho.pairs:
        for a, c2 in sigma.pairs:
            if c1 == c2:
                out.add((a, b))
    return Relation(out)


class TestCompose:
    def test_single_chain(self):
        assert Relation([(1, 2)]).compose(Relation([(0, 1)])) == Relation([(0, 2)])

    def test_empty_rho(self):
        assert EMPTY.compose(Relation([(0, 1)])) == EMPTY

    def test_fanout(self):
        rho = Relation([(1, 2), (1, 3)])
        sigma = Relation([(0, 1), (5, 1)])
        expected = Relation([(0, 2), (0, 3), (5, 2), (5, 3)])
        assert rho.compose(sigma) == expected
        assert brute_compose(rho, sigma) == expected

    @given(relations_st, relations_st)
    def test_matches_brute_force(self, rho, sigma):
        assert rho.compose(sigma) == brute_compose(rho, sigma)

    @given(relations_st, relations_st, relations_st)
    def test_associativity(self, rho, sigma, tau):
        assert rho.compose(sigma.compose(tau)) == rho.compose(sigma).compose(tau)


class TestInverse:
    def test_single(self):
        assert Relation([(1, 2)]).inverse() == Relation([(2, 1)])

    def test_empty(self):
        assert EMPTY.inverse() == EMPTY

    def test_pairwise(self):
        assert Relation([(0, 1), (1, 1)]).inverse() == Relation([(1, 0), (1, 1)])

    @given(relations_st)
    def test_involution(self, rho):
        assert rho.inverse().inverse() == rho

    @given(relations_st, relations_st)
    def test_antidistributes_over_compose(self, rho, sigma):
        assert rho.compose(sigma).inverse() == sigma.inverse().compose(rho.inverse())


class TestDomainRange:
    def test_fanout(self):
        rho = Relation([(1, 2), (1, 3)])
        assert rho.domain == {"1"}
        assert rho.range == {"2", "3"}

    def test_empty(self):
        assert EMPTY.domain == set()
        assert EMPTY.range == set()

    def test_loop(self):
        rho = Relation([(0, 0)])
        assert rho.domain == {"0"}
        assert rho.range == {"0"}

    @given(relations_st)
    def test_contained_in_product(self, rho):
        for b, a in rho.pairs:
            assert b in rho.domain and a in rho.range


class TestIdentityOn:
    def test_two_points(self):
        assert Relation.identity_on({1, 2}) == Relation([(1, 1), (2, 2)])

    def test_empty(self):
        assert Relation.identity_on(set()) == EMPTY

    def test_singleton(self):
        assert Relation.identity_on({7}) == Relation([(7, 7)])


class TestPredicates:
    def test_injective_disjoint(self):
        assert Relation([(1, 2), (3, 4)]).is_injective()

    def test_injective_shared_output(self):
        assert not Relation([(1, 2), (3, 2)]).is_injective()

    def test_injective_empty(self):
        assert EMPTY.is_injective()

    def test_coinjective_fanout(self):
        assert not Relation([(1, 2), (1, 3)]).is_coinjective()

    def test_coinjective_disjoint(self):
        assert Relation([(1, 2), (3, 4)]).is_coinjective()

    def test_coinjective_loop(self):
        assert Relation([(0, 0)]).is_coinjective()

    @given(relations_st)
    def test_coinjective_is_inverse_injectivity(self, rho):
        assert rho.is_coinjective() == rho.inverse().is_injective()

    @given(relations_st)
    def test_injectivity_criterion(self, rho):
        identity = Relation.identity_on(rho.domain)
        assert rho.is_injective() == (rho.inverse().compose(rho) == identity)

    @given(relations_st)
    def test_coinjectivity_criterion(self, rho):
        identity = Relation.identity_on(rho.range)
        assert rho.is_coinjective() == (rho.compose(rho.inverse()) == identity)

    @given(partial_bijections_st, partial_bijections_st)
    def test_subalgebra_closure(self, rho, sigma):
        composed = rho.compose(sigma)
        assert composed.is_injective() and composed.is_coinjective()
        inverted = rho.inverse()
        assert inverted.is_injective() and inverted.is_coinjective()


class TestSubrelation:
    def test_empty_below_everything(self):
        assert EMPTY.is_subrelation(Relation([(1, 2)]))

    def test_member(self):
        assert Relation([(1, 2)]).is_subrelation(Relation([(1, 2), (3, 4)]))

    def test_non_member(self):
        assert not Relation([(1, 2)]).is_subrelation(Relation([(2, 1)]))

    def test_le_operator(self):
        assert Relation([(1, 2)]) <= Relation([(1, 2), (3, 4)])


class TestApply:
    def test_hit(self):
        assert Relation([(1, 5)]).apply(1) == "5"

    def test_miss(self):
        assert Relation([(1, 5)]).apply(2) is None

    def test_fanout_rejected(self):
        with pytest.raises(CoinjectivityViolated):
            Relation([(1, 5), (1, 6)]).apply(1)


class TestContainer:
    def test_duplicates_collapse(self):
        assert len(Relation([(1, 2), (1, 2), ("1", "2")])) == 1

    def test_contains_coerces(self):
        assert (1, 2) in Relation([("1", "2")])

    def test_iter_sorted(self):
        assert list(Relation([(3, 1), (0, 9)])) == [("0", "9"), ("3", "1")]

    def test_bool(self):
        assert Relation([(0, 0)])
        assert not EMPTY

    def test_hashable(self):
        assert len({Relation([(0, 1)]), Relation([("0", "1")])}) == 1


class TestNormalization:
    # The constructors and lookups pass identifiers through str.
    def test_non_strings_are_stringified(self):
        assert Relation([(1, Fraction(1, 2))]) == Relation([("1", "1/2")])

    def test_system_and_atlas_key_by_string(self):
        system = SincovSystem([0], {(0, 0): Relation([(1, 1)])})
        assert system.indices == {"0"}
        assert set(system.relations) == {("0", "0")}
        assert system.get(0, 0) == Relation([("1", "1")])
        atlas = Atlas({0: Relation([("z", 1)])})
        assert list(atlas.charts) == ["0"]
        assert atlas.chart(0) is atlas.charts["0"]

    def test_str_subclass_is_stored_as_its_plain_string(self):
        rel = Relation([(Label("a"), Label("b"))])
        assert rel == Relation([("a", "b")])
        assert hash(rel) == hash(Relation([("a", "b")]))
        assert [type(x) for pair in rel.pairs for x in pair] == [str, str]
        assert (Label("a"), "b") in rel
        assert rel.apply(Label("a")) == "b"

    def test_str_subclass_overriding_str_is_stored_as_that_text(self):
        # str(x), not the value: a (str, Enum) member becomes "K.A".
        class K(str, Enum):
            A = "a"

        assert str(K.A) == "K.A"
        rel = Relation([(K.A, "b")])
        assert rel == Relation([("K.A", "b")])
        assert rel != Relation([("a", "b")])
        assert rel.apply(K.A) == "b"
        assert list(Atlas({K.A: rel}).charts) == ["K.A"]
        assert SincovSystem([K.A], {}).indices == {"K.A"}
