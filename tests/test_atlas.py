import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import (
    atlases_st,
    mutate_atlas,
    oracle_at_axioms,
    random_atlas,
    random_carrier_bijection,
    raw_atlases_st,
    rename_carrier,
)
from sincov import (
    EMPTY,
    Atlas,
    IndexMismatch,
    Isomorphism,
    NotIsomorphic,
    Relation,
    UnknownIndex,
    carrier,
    check_at_axioms,
    find_isomorphism,
    reconstruct,
    solve_atlas,
    transition,
    validate_atlas,
    verify_isomorphism,
)
from sincov.atlas import _transitions
from test_systems import pair_system, swap_system, two_class_system


def witness_checks_out(exc, a1, a2):
    """A NotIsomorphic witness must separate the two reconstructions."""
    s1, s2 = reconstruct(a1), reconstruct(a2)
    inside, outside = (s1, s2) if exc.present_in == 1 else (s2, s1)
    alpha, beta = exc.indices
    return exc.pair in inside.get(alpha, beta) and exc.pair not in outside.get(alpha, beta)


class TestValidateAtlas:
    def test_valid_singleton(self):
        assert validate_atlas(Atlas({"a": Relation([("z", "0")])})) == []

    def test_coinjectivity_failure(self):
        violations = validate_atlas(Atlas({"a": Relation([("z", "0"), ("z", "1")])}))
        assert [(v.index, v.predicate) for v in violations] == [("a", "co-injectivity")]
        assert violations[0].pair in {("z", "0"), ("z", "1")}

    def test_injectivity_failure(self):
        violations = validate_atlas(Atlas({"a": Relation([("z0", "0"), ("z1", "0")])}))
        assert [(v.index, v.predicate) for v in violations] == [("a", "injectivity")]

    def test_chart_lookup(self):
        atlas = Atlas({"a": Relation([("z", "0")])})
        assert atlas.chart("a") == Relation([("z", "0")])
        with pytest.raises(UnknownIndex):
            atlas.chart("b")


class TestTransition:
    def test_self_transition_is_identity_on_image(self):
        atlas = Atlas({"a": Relation([("z", "3")])})
        assert transition(atlas, "a", "a") == Relation([("3", "3")])

    def test_disjoint_charts(self):
        atlas = Atlas({"a": Relation([("z", "0")]), "b": Relation([("w", "1")])})
        assert transition(atlas, "a", "b") == Relation()

    def test_pair_system_transition(self):
        atlas = solve_atlas(pair_system())
        assert transition(atlas, "a", "b") == Relation([("1", "0")])

    def test_unknown_index(self):
        with pytest.raises(UnknownIndex):
            transition(Atlas({"a": Relation()}), "a", "q")

    @given(atlases_st())
    @settings(max_examples=60)
    def test_triple_containment(self, atlas):
        indices = sorted(atlas.indices)
        for alpha in indices:
            for beta in indices:
                for gamma in indices:
                    left = transition(atlas, alpha, beta).compose(
                        transition(atlas, beta, gamma)
                    )
                    assert left <= transition(atlas, alpha, gamma)

    @given(st.one_of(atlases_st(), raw_atlases_st()))
    @settings(max_examples=100)
    def test_one_pass_transitions_match_each_pair(self, atlas):
        transitions = _transitions(atlas)
        for alpha in atlas.indices:
            for beta in atlas.indices:
                assert transitions.get((alpha, beta), EMPTY) == transition(atlas, alpha, beta)
        assert all(transitions.values())


class TestCarrier:
    def test_union_of_domains(self):
        atlas = Atlas(
            {"a": Relation([("z", "0")]), "b": Relation([("z", "1"), ("w", "2")])}
        )
        assert carrier(atlas) == {"z", "w"}

    def test_empty(self):
        assert carrier(Atlas({})) == set()

    def test_two_class_atlas(self):
        assert carrier(solve_atlas(two_class_system())) == {"cls:a:0", "cls:a:1"}


class TestFindIsomorphism:
    def test_identity_on_self(self):
        atlas = solve_atlas(pair_system())
        iso = find_isomorphism(atlas, atlas)
        assert iso.omega == Relation.identity_on(carrier(atlas))
        assert verify_isomorphism(atlas, atlas, iso)

    def test_class_rename(self):
        a1 = Atlas({"a": Relation([("z", "0")]), "b": Relation([("z", "1")])})
        a2 = Atlas({"a": Relation([("w", "0")]), "b": Relation([("w", "1")])})
        iso = find_isomorphism(a1, a2)
        assert iso.omega == Relation([("z", "w")])
        assert verify_isomorphism(a1, a2, iso)

    def test_group_case_agreement_on_swap(self):
        system = swap_system()
        from sincov import solve_via_fixed_index

        fixed = solve_via_fixed_index(system, "a")
        quotient = solve_atlas(system)
        iso = find_isomorphism(fixed, quotient)
        assert verify_isomorphism(fixed, quotient, iso)
        for alpha in fixed.indices:
            assert quotient.chart(alpha).compose(iso.omega) == fixed.chart(alpha)

    def test_index_mismatch(self):
        a1 = Atlas({"a": Relation()})
        a2 = Atlas({"b": Relation()})
        with pytest.raises(IndexMismatch) as excinfo:
            find_isomorphism(a1, a2)
        assert excinfo.value.only_in_first == frozenset({"a"})
        assert excinfo.value.only_in_second == frozenset({"b"})

    def test_missing_counterpart_witness(self):
        a1 = Atlas({"a": Relation([("z", "0")])})
        a2 = Atlas({"a": Relation()})
        with pytest.raises(NotIsomorphic) as excinfo:
            find_isomorphism(a1, a2)
        exc = excinfo.value
        assert exc.reason == "missing_counterpart"
        assert (exc.indices, exc.pair, exc.present_in) == (("a", "a"), ("0", "0"), 1)
        assert witness_checks_out(exc, a1, a2)

    def test_conflict_witness(self):
        # One shared class on the left, two separate classes on the right.
        a1 = Atlas({"a": Relation([("z", "0")]), "b": Relation([("z", "1")])})
        a2 = Atlas({"a": Relation([("u", "0")]), "b": Relation([("v", "1")])})
        with pytest.raises(NotIsomorphic) as excinfo:
            find_isomorphism(a1, a2)
        exc = excinfo.value
        assert exc.reason == "conflict"
        assert (exc.indices, exc.pair, exc.present_in) == (("a", "b"), ("1", "0"), 1)
        assert witness_checks_out(exc, a1, a2)

    def test_coverage_witness(self):
        a1 = Atlas({"a": Relation([("z", "0")])})
        a2 = Atlas({"a": Relation([("u", "0"), ("w", "5")])})
        with pytest.raises(NotIsomorphic) as excinfo:
            find_isomorphism(a1, a2)
        exc = excinfo.value
        assert exc.reason == "coverage"
        assert (exc.indices, exc.pair, exc.present_in) == (("a", "a"), ("5", "5"), 2)
        assert witness_checks_out(exc, a1, a2)

    def test_random_renames_recovered(self):
        rng = random.Random(23)
        for _ in range(50):
            a1 = random_atlas(rng)
            omega = random_carrier_bijection(rng, carrier(a1))
            a2 = rename_carrier(a1, omega)
            assert reconstruct(a2) == reconstruct(a1)
            iso = find_isomorphism(a1, a2)
            assert iso.omega == omega
            assert verify_isomorphism(a1, a2, iso)

    def test_random_mutations_detected(self):
        rng = random.Random(29)
        for _ in range(50):
            a1 = random_atlas(rng)
            a2 = mutate_atlas(rng, a1)
            assert reconstruct(a2) != reconstruct(a1)
            with pytest.raises(NotIsomorphic) as excinfo:
                find_isomorphism(a1, a2)
            assert witness_checks_out(excinfo.value, a1, a2)


class TestVerifyIsomorphism:
    def test_identity(self):
        atlas = solve_atlas(pair_system())
        identity = Isomorphism(Relation.identity_on(carrier(atlas)))
        assert verify_isomorphism(atlas, atlas, identity)

    def test_missing_carrier_point(self):
        atlas = solve_atlas(two_class_system())
        partial = Isomorphism(Relation([("cls:a:0", "cls:a:0")]))
        assert not verify_isomorphism(atlas, atlas, partial)

    def test_wrong_assignment(self):
        atlas = solve_atlas(two_class_system())
        crossed = Isomorphism(
            Relation([("cls:a:0", "cls:a:1"), ("cls:a:1", "cls:a:0")])
        )
        assert not verify_isomorphism(atlas, atlas, crossed)

    def test_non_bijective_omega(self):
        atlas = solve_atlas(two_class_system())
        squash = Isomorphism(
            Relation([("cls:a:0", "cls:a:0"), ("cls:a:1", "cls:a:0")])
        )
        assert not verify_isomorphism(atlas, atlas, squash)


class TestAtAxioms:
    def test_solver_output_passes(self):
        report = check_at_axioms(solve_atlas(pair_system()))
        assert all(section["pass"] for section in report.values())
        assert all(section["witnesses"] == [] for section in report.values())

    def test_non_bijective_chart_fails_at2(self):
        atlas = Atlas({"a": Relation([("z", "0"), ("z", "1")])})
        report = check_at_axioms(atlas)
        assert not report["at2"]["pass"]
        assert report["at2"]["witnesses"] == [
            {"index": "a", "predicate": "co-injectivity", "pair": ["z", "0"]}
        ]

    def test_empty_atlas_vacuous(self):
        report = check_at_axioms(Atlas({}))
        assert all(section["pass"] for section in report.values())

    @given(atlases_st())
    @settings(max_examples=60)
    def test_valid_atlases_pass(self, atlas):
        report = check_at_axioms(atlas)
        assert all(section["pass"] for section in report.values())

    def test_non_bijective_chart_fails_at3(self):
        atlas = Atlas({"a": Relation([("z", "0"), ("z", "1")]), "b": Relation([("z", "5")])})
        assert check_at_axioms(atlas)["at3"] == {
            "pass": False,
            "witnesses": [
                {"alpha": "a", "beta": "a", "failed": ["injectivity", "co-injectivity"]},
                {"alpha": "a", "beta": "b", "failed": ["co-injectivity"]},
                {"alpha": "b", "beta": "a", "failed": ["injectivity"]},
            ],
        }

    @given(atlases_st())
    @settings(max_examples=60)
    def test_matches_oracle_on_valid_atlases(self, atlas):
        assert check_at_axioms(atlas) == oracle_at_axioms(atlas)

    @given(raw_atlases_st())
    @settings(max_examples=200)
    def test_matches_oracle_on_non_bijective_atlases(self, atlas):
        assert check_at_axioms(atlas) == oracle_at_axioms(atlas)
