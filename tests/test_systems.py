import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import (
    mutated_systems_st,
    oracle_strict_triple,
    oracle_violations,
    random_valid_system,
    relabel_system,
    valid_systems_st,
)
from sincov import (
    ALL_LAWS,
    Atlas,
    EqualityCaseViolated,
    InvalidAtlas,
    Law,
    PreconditionViolated,
    Relation,
    SincovSystem,
    UnknownIndex,
    ViolationReport,
    check_sincov,
    reconstruct,
    solve_atlas,
    solve_via_fixed_index,
)


def pair_system():
    # Two indices joined by a single shared trajectory point.
    return SincovSystem(
        ["a", "b"],
        {
            ("a", "a"): Relation([("0", "0")]),
            ("b", "b"): Relation([("1", "1")]),
            ("a", "b"): Relation([("1", "0")]),
            ("b", "a"): Relation([("0", "1")]),
        },
    )


def two_class_system():
    # One index carrying two fixed points, the other index empty.
    return SincovSystem(
        ["a", "b"],
        {("a", "a"): Relation([("0", "0"), ("1", "1")])},
    )


def swap_system():
    swap = Relation([("0", "1"), ("1", "0")])
    identity = Relation.identity_on(["0", "1"])
    return SincovSystem(
        ["a", "b"],
        {
            ("a", "a"): identity,
            ("b", "b"): identity,
            ("a", "b"): swap,
            ("b", "a"): swap,
        },
    )


class TestSystemModel:
    def test_unknown_index_key_rejected(self):
        with pytest.raises(UnknownIndex):
            SincovSystem(["a"], {("a", "b"): Relation([("0", "0")])})

    def test_missing_entries_are_empty(self):
        system = SincovSystem(["a", "b"])
        assert system.get("a", "b") == Relation()

    def test_empty_entries_normalized_away(self):
        assert SincovSystem(["a"], {("a", "a"): Relation()}) == SincovSystem(["a"])


class TestCheckSincov:
    def test_identity_loop_passes(self):
        system = SincovSystem(["a"], {("a", "a"): Relation([("0", "0")])})
        assert check_sincov(system) == []

    def test_identity_violation(self):
        # The non-loop pair also breaks symmetry ({(1,0)} is not contained
        # in {(0,1)}), so two reports come back, identity first.
        system = SincovSystem(["a"], {("a", "a"): Relation([("0", "1")])})
        reports = check_sincov(system)
        assert [(r.law, r.indices, r.pair) for r in reports] == [
            (Law.IDENTITY, ("a",), ("0", "1")),
            (Law.SYMMETRY, ("a", "a"), ("1", "0")),
        ]
        assert check_sincov(system, [Law.IDENTITY]) == [reports[0]]

    def test_symmetry_violation(self):
        system = SincovSystem(["a", "b"], {("a", "b"): Relation([("1", "0")])})
        reports = check_sincov(system)
        assert [(r.law, r.indices, r.pair) for r in reports] == [
            (Law.SYMMETRY, ("a", "b"), ("0", "1"))
        ]

    def test_transitivity_violation(self):
        # Chain a->b->c present but the composite pair missing from (a,c).
        system = SincovSystem(
            ["a", "b", "c"],
            {
                ("a", "b"): Relation([("1", "0")]),
                ("b", "a"): Relation([("0", "1")]),
                ("b", "c"): Relation([("2", "1")]),
                ("c", "b"): Relation([("1", "2")]),
                ("a", "a"): Relation([("0", "0")]),
                ("b", "b"): Relation([("1", "1")]),
                ("c", "c"): Relation([("2", "2")]),
            },
        )
        reports = check_sincov(system)
        assert reports, "missing (a,c) entry must break transitivity"
        assert any(
            r.law is Law.TRANSITIVITY and r.indices == ("a", "b", "c") and r.pair == ("2", "0")
            for r in reports
        )

    def test_shared_transitivity_report_listed_once(self):
        # Both middle elements 1 and 2 at b carry 0 at c to 3 at a, and
        # Phi[a,c] is empty: two paths, one report.
        system = SincovSystem(
            ["a", "b", "c"],
            {
                ("b", "c"): Relation([("0", "1"), ("0", "2")]),
                ("a", "b"): Relation([("1", "3"), ("2", "3")]),
            },
        )
        assert check_sincov(system, [Law.TRANSITIVITY]) == [
            ViolationReport(Law.TRANSITIVITY, ("a", "b", "c"), ("0", "3"))
        ]

    def test_laws_filter(self):
        system = SincovSystem(["a", "b"], {("a", "b"): Relation([("1", "0")])})
        assert check_sincov(system, [Law.IDENTITY]) == []
        assert check_sincov(system, [Law.TRANSITIVITY]) == []
        assert len(check_sincov(system, [Law.SYMMETRY])) == 1

    def test_reports_sorted(self):
        system = SincovSystem(
            ["a", "b"],
            {
                ("a", "a"): Relation([("0", "1"), ("2", "3")]),
                ("b", "a"): Relation([("5", "4")]),
            },
        )
        reports = check_sincov(system)
        assert [r.sort_key() for r in reports] == sorted(r.sort_key() for r in reports)

    def test_relabeling_equivariance(self):
        rng = random.Random(7)
        index_map = {i: f"I{i}" for i in "abcdef"}
        element_map = {str(i): f"m{i}" for i in range(12)}
        for _ in range(25):
            system = random_valid_system(rng, thin=True)
            relabeled = relabel_system(system, index_map, element_map)
            assert check_sincov(relabeled) == []

    def test_relabeling_preserves_violations(self):
        system = SincovSystem(["a", "b"], {("a", "b"): Relation([("1", "0")])})
        relabeled = relabel_system(system, {"a": "x", "b": "y"}, {"0": "p", "1": "q"})
        reports = check_sincov(relabeled)
        assert [(r.law, r.indices, r.pair) for r in reports] == [
            (Law.SYMMETRY, ("x", "y"), ("p", "q"))
        ]


def connected_components(system):
    """Independent oracle for the quotient: BFS over the node graph."""
    adjacency = {}
    for (alpha, beta), rel in system.relations.items():
        for b, a in rel.pairs:
            u, v = (alpha, a), (beta, b)
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    seen = set()
    components = set()
    for start in adjacency:
        if start in seen:
            continue
        queue, component = [start], set()
        while queue:
            node = queue.pop()
            if node in component:
                continue
            component.add(node)
            queue.extend(adjacency[node] - component)
        seen |= component
        components.add(frozenset(component))
    return components


def atlas_partition(atlas):
    """Carrier point -> the nodes (index, element) the charts send it to."""
    classes = {}
    for alpha, rel in atlas.charts.items():
        for z, a in rel.pairs:
            classes.setdefault(z, set()).add((alpha, a))
    return {z: frozenset(members) for z, members in classes.items()}


class TestSolveAtlas:
    def test_single_class(self):
        atlas = solve_atlas(pair_system())
        assert atlas.charts == {
            "a": Relation([("cls:a:0", "0")]),
            "b": Relation([("cls:a:0", "1")]),
        }

    def test_all_empty(self):
        atlas = solve_atlas(SincovSystem(["a"]))
        assert atlas.charts == {"a": Relation()}

    def test_two_classes(self):
        atlas = solve_atlas(two_class_system())
        assert atlas.charts == {
            "a": Relation([("cls:a:0", "0"), ("cls:a:1", "1")]),
            "b": Relation(),
        }

    def test_precondition_guard(self):
        bad = SincovSystem(["a"], {("a", "a"): Relation([("0", "1")])})
        with pytest.raises(PreconditionViolated) as excinfo:
            solve_atlas(bad)
        report = excinfo.value.report
        assert (report.law, report.indices, report.pair) == (Law.IDENTITY, ("a",), ("0", "1"))
        assert excinfo.value.reports == check_sincov(bad)
        assert str(excinfo.value) == (
            "system violates identity at indices ('a',) with pair ('0', '1')"
        )

    def test_classes_match_component_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            system = random_valid_system(rng, thin=True)
            atlas = solve_atlas(system)
            # Each class is named after its least node.
            assert atlas_partition(atlas) == {
                "cls:{}:{}".format(*min(c)): c for c in connected_components(system)
            }

    @given(valid_systems_st)
    @settings(max_examples=60)
    def test_charts_are_partial_bijections(self, system):
        for rel in solve_atlas(system).charts.values():
            assert rel.is_injective() and rel.is_coinjective()


class TestReconstruct:
    def test_round_trip_of_pair_system(self):
        system = pair_system()
        assert reconstruct(solve_atlas(system)) == system

    def test_all_empty(self):
        atlas = Atlas({"a": Relation(), "b": Relation()})
        assert reconstruct(atlas) == SincovSystem(["a", "b"])

    def test_single_chart_identity(self):
        system = reconstruct(Atlas({"a": Relation([("z", "5")])}))
        assert system == SincovSystem(["a"], {("a", "a"): Relation([("5", "5")])})

    def test_invalid_chart_rejected(self):
        with pytest.raises(InvalidAtlas) as excinfo:
            reconstruct(Atlas({"a": Relation([("z", "0"), ("z", "1")])}))
        assert excinfo.value.index == "a"
        assert excinfo.value.predicate == "co-injectivity"

    @given(valid_systems_st)
    @settings(max_examples=100)
    def test_round_trip_property(self, system):
        assert reconstruct(solve_atlas(system)) == system

    @given(valid_systems_st)
    @settings(max_examples=100)
    def test_converse_property(self, system):
        # valid_systems_st is reconstruct of a random atlas already.
        assert check_sincov(system) == []

    @given(valid_systems_st)
    @settings(max_examples=60)
    def test_entries_are_partial_bijections(self, system):
        for rel in system.relations.values():
            assert rel.is_injective() and rel.is_coinjective()


class TestSolveViaFixedIndex:
    def test_swap_system_gamma_a(self):
        system = swap_system()
        atlas = solve_via_fixed_index(system, "a")
        assert atlas.charts == {
            "a": Relation.identity_on(["0", "1"]),
            "b": Relation([("0", "1"), ("1", "0")]),
        }
        assert reconstruct(atlas) == system

    def test_swap_system_gamma_b(self):
        system = swap_system()
        atlas = solve_via_fixed_index(system, "b")
        assert atlas.charts["a"] == Relation([("0", "1"), ("1", "0")])
        assert reconstruct(atlas) == system

    def test_single_index(self):
        system = SincovSystem(["a"], {("a", "a"): Relation([("0", "0")])})
        atlas = solve_via_fixed_index(system, "a")
        assert atlas.charts == {"a": Relation([("0", "0")])}

    def test_strict_containment_rejected(self):
        with pytest.raises(EqualityCaseViolated) as excinfo:
            solve_via_fixed_index(two_class_system(), "b")
        assert excinfo.value.witness == ("a", "b", "a")

    def test_unknown_gamma(self):
        with pytest.raises(UnknownIndex):
            solve_via_fixed_index(pair_system(), "zz")

    def test_precondition_guard(self):
        bad = SincovSystem(["a", "b"], {("a", "b"): Relation([("1", "0")])})
        with pytest.raises(PreconditionViolated):
            solve_via_fixed_index(bad, "a")

    def test_pair_system_is_equality_case(self):
        # Every containment of the pair system is an equality, so the
        # fixed-index route agrees with the quotient route up to renaming.
        system = pair_system()
        atlas = solve_via_fixed_index(system, "a")
        assert reconstruct(atlas) == reconstruct(solve_atlas(system))


laws_st = st.one_of(st.none(), st.sets(st.sampled_from(ALL_LAWS), min_size=1))


class TestQuotientAgainstOracle:
    """The quotient certificate must reproduce the definitional loops."""

    @given(st.one_of(valid_systems_st, mutated_systems_st()), laws_st)
    @settings(max_examples=300)
    def test_check_sincov(self, system, laws):
        assert check_sincov(system, laws) == oracle_violations(system, laws)

    @given(valid_systems_st)
    @settings(max_examples=150)
    def test_fixed_index_witness(self, system):
        strict = oracle_strict_triple(system)
        for gamma in sorted(system.indices):
            if strict is None:
                assert reconstruct(solve_via_fixed_index(system, gamma)) == system
            else:
                with pytest.raises(EqualityCaseViolated) as excinfo:
                    solve_via_fixed_index(system, gamma)
                assert excinfo.value.witness == strict

    @given(mutated_systems_st())
    @settings(max_examples=150)
    def test_precondition_reports(self, system):
        reports = oracle_violations(system)
        if not reports:
            assert reconstruct(solve_atlas(system)) == system
            return
        gamma = min(system.indices)
        for solve in (solve_atlas, lambda s: solve_via_fixed_index(s, gamma)):
            with pytest.raises(PreconditionViolated) as excinfo:
                solve(system)
            assert excinfo.value.reports == check_sincov(system) == reports
            assert excinfo.value.report == reports[0]
