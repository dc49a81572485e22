import contextlib
import random
import tracemalloc
from collections import Counter
from itertools import compress, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import generated
from genutil import (
    ELEMENT_POOL,
    INDEX_POOL,
    dense_faulty_systems_st,
    mutated_systems_st,
    oracle_strict_triple,
    oracle_violations,
    random_valid_system,
    relabel_system,
    system_of,
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
    validate_atlas,
)
import sincov.systems
from sincov.jsonio import system_from_obj, system_to_obj
from sincov.systems import _quotient


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

    @pytest.mark.parametrize("laws", [["identity"], ("identity",), {"identity", Law.IDENTITY}])
    def test_laws_by_name(self, laws):
        system = SincovSystem(["a"], {("a", "a"): Relation([("0", "1")])})
        assert check_sincov(system, laws) == check_sincov(system, [Law.IDENTITY]) != []

    @pytest.mark.parametrize("laws", [["nope"], [Law.SYMMETRY, "Identity"], [None], "identity"])
    def test_unknown_law_raises(self, laws):
        # A bare string is an iterable of one-letter names, none a law.
        system = SincovSystem(["a"], {("a", "a"): Relation([("0", "1")])})
        with pytest.raises(ValueError):
            check_sincov(system, laws)

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

    @given(st.one_of(valid_systems_st, mutated_systems_st()), st.data())
    @settings(max_examples=150)
    def test_relabeling_equivariance(self, system, data):
        # Injective relabelings onto fresh ids, in any order: the reports
        # map onto the relabeled system's, and lawful systems round-trip.
        fresh = st.text(alphabet="xyz89", min_size=1, max_size=3)
        targets = data.draw(st.lists(fresh, min_size=18, max_size=18, unique=True))
        index_map = dict(zip(INDEX_POOL, targets))
        element_map = dict(zip(ELEMENT_POOL, targets[len(INDEX_POOL):]))
        relabeled = relabel_system(system, index_map, element_map)

        def relabel_report(r):
            indices = tuple(index_map[i] for i in r.indices)
            return (r.law, indices, tuple(element_map[e] for e in r.pair))

        reports = check_sincov(system)
        assert {relabel_report(r) for r in reports} == {
            (r.law, r.indices, r.pair) for r in check_sincov(relabeled)
        }
        if not reports:
            assert reconstruct(solve_atlas(relabeled)) == relabeled

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


def faulty_components(system):
    """The components that fail the definitional count: fewer than |C|^2
    edges, or two nodes at one index."""
    components = connected_components(system)
    component_of = {node: c for c in components for node in c}
    edges = Counter(
        component_of[(beta, b)] for (_, beta), rel in system.relations.items() for b, _ in rel.pairs
    )
    return {
        c for c in components if edges[c] < len(c) ** 2 or len({i for i, _ in c}) < len(c)
    }


def faulty_successors(system):
    """Each faulty node (beta, b) -> every (alpha, a) with (b, a) in
    Phi[alpha, beta]."""
    successors = {node: set() for c in faulty_components(system) for node in c}
    for (alpha, beta), rel in system.relations.items():
        for b, a in rel.pairs:
            if (beta, b) in successors:
                successors[(beta, b)].add((alpha, a))
    return successors


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

    def test_charts_in_sorted_index_order(self):
        # Every point in every chart: a group-case system, so both solvers apply.
        indices = [f"t{i}" for i in range(10)]
        atlas = Atlas({alpha: Relation([("z0", "0"), ("z1", "1")]) for alpha in indices})
        system = reconstruct(atlas)
        assert list(solve_atlas(system).charts) == indices
        assert list(solve_via_fixed_index(system, "t3").charts) == indices

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

    def test_invalid_atlas_carries_every_violation(self):
        atlas = Atlas(
            {
                "b": Relation([("z", "0"), ("w", "0")]),
                "a": Relation([("z", "0"), ("z", "1")]),
            }
        )
        with pytest.raises(InvalidAtlas) as excinfo:
            reconstruct(atlas)
        assert str(excinfo.value) == "chart 'a' fails co-injectivity at pair ('z', '0')"
        assert excinfo.value.violations == validate_atlas(atlas)
        assert [v.index for v in excinfo.value.violations] == ["a", "b"]

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


def document_twin(system):
    """The system read back from its document: ``_quotient`` reads its
    columns, and its ``Relation``s are built only when ``relations`` is."""
    return system_from_obj(system_to_obj(system))


# The properties below run each call on the constructed system and on a
# fresh document twin, which meets the function under test unread.
BUILDS = (lambda system: system, document_twin)

# Four classes: z0 meets a and c, z1 meets a and b, z2 only b, z3 only c.
# The classes through a miss b and c, and the least index some class
# through a misses is b; over all partial classes every index falls short.
PARTIAL_THROUGH_ALPHA = system_of(
    generated(
        {
            "a": [("z0", "0"), ("z1", "1")],
            "b": [("z1", "2"), ("z2", "3")],
            "c": [("z0", "4"), ("z3", "5")],
        }
    )
)


class CountedPairs(frozenset):
    """A relation's pairs that count how often each set is iterated."""

    reads = Counter()

    def __iter__(self):
        CountedPairs.reads[id(self)] += 1
        return frozenset.__iter__(self)


class CountedHash(str):
    """An element that counts how often it is hashed: one count per set or
    dict operation on it or on a node holding it."""

    calls = 0

    def __hash__(self):
        CountedHash.calls += 1
        return str.__hash__(self)


def cycle_closing_system():
    # Phi[b, a] joins (a, 0) and (a, 4) first, so the chain in Phi[a, a]
    # closes a cycle: in whatever order its pairs are read, labels change
    # between them, and the last one finds both ends in one class.
    chain_pairs = [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4")]
    return SincovSystem(
        ["a", "b"],
        {
            ("b", "a"): Relation([("0", "0"), ("4", "0")]),
            ("a", "a"): Relation(chain_pairs),
        },
    )


class TestQuotientAgainstOracle:
    """The quotient certificate must reproduce the definitional loops."""

    @given(st.one_of(valid_systems_st, mutated_systems_st(), dense_faulty_systems_st()))
    @example(cycle_closing_system())
    # Element "0" at two indices, named first as a source, then as a target.
    @example(SincovSystem(["a", "b"], {("a", "b"): Relation([("0", "0")])}))
    @settings(max_examples=300)
    def test_classes_are_the_components(self, system):
        # Sorted member lists, so a class holding a node twice shows too.
        classes, faulty, successors = _quotient(system)
        assert sorted(map(sorted, classes)) == sorted(map(sorted, connected_components(system)))
        assert sorted(map(sorted, faulty)) == sorted(map(sorted, faulty_components(system)))
        assert successors == faulty_successors(system)

    def test_relabels_inside_one_relation(self):
        system = cycle_closing_system()
        classes, faulty, _ = _quotient(system)
        nodes = sorted({("a", str(k)) for k in range(5)} | {("b", "0")})
        assert list(map(sorted, classes)) == list(map(sorted, faulty)) == [nodes]

    def test_relabels_the_smaller_class(self):
        # A star: each pair joins a lone node to the hub's growing class.
        # Relabeling the smaller class costs one write per merge; relabeling
        # the larger would cost the hub's whole class, n^2 / 2 in all.
        n = 400
        hub = CountedHash("0")
        star = Relation._of(frozenset((CountedHash(f"x{k}"), hub) for k in range(n)))
        system = SincovSystem(["a", "b"], {("a", "b"): star})
        CountedHash.calls = 0
        classes, faulty, _ = _quotient(system)
        assert len(classes) == len(faulty) == 1 and len(classes[0]) == n + 1
        assert CountedHash.calls < 30 * n

    def test_peak_memory_per_pair(self):
        # 40 charts of the same 6 points: 1 600 relations, 9 600 pairs.  Nodes
        # are numbered as each relation is read, so no relation's unzipped
        # columns outlive its step: about 30 bytes a pair, mostly int edges.
        charts = {f"c{k:02d}": [(f"z{n}", f"e{n}") for n in range(6)] for k in range(40)}
        system = system_of(generated(charts))
        pairs = sum(len(rel.pairs) for rel in system.relations.values())
        assert (len(system.relations), pairs) == (1600, 9600)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _quotient(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * pairs

    @pytest.mark.parametrize("lawful", [True, False])
    def test_reads_each_relation_once(self, lawful):
        system = random_valid_system(random.Random(5), max_points=8)
        relations = dict(system.relations)
        if not lawful:  # a fresh element joins a class without its self-loop
            key = min(relations)
            relations[key] = Relation(relations[key].pairs | {(min(relations[key].pairs)[0], "x")})
        counted = SincovSystem(
            system.indices,
            {key: Relation._of(CountedPairs(rel.pairs)) for key, rel in relations.items()},
        )
        once = Counter({id(rel.pairs): 1 for rel in counted.relations.values()})
        assert len(once) > 10 and (check_sincov(counted) == []) == lawful
        for run in (check_sincov, solve_atlas):
            CountedPairs.reads.clear()
            with contextlib.suppress(PreconditionViolated):
                run(counted)
            assert CountedPairs.reads == once

    def test_selected_laws_build_only_their_reports(self, monkeypatch):
        # Phi[a, a] breaks identity, and the chain a -> b -> c has no
        # Phi[a, c]: asked for identity alone, no other report is built.
        system = SincovSystem(
            ["a", "b", "c"],
            {
                ("a", "a"): Relation([("0", "0"), ("0", "9"), ("9", "0"), ("9", "9")]),
                ("a", "b"): Relation([("1", "0")]),
                ("b", "a"): Relation([("0", "1")]),
                ("b", "c"): Relation([("2", "1")]),
                ("c", "b"): Relation([("1", "2")]),
                ("b", "b"): Relation([("1", "1")]),
                ("c", "c"): Relation([("2", "2")]),
            },
        )
        reports = check_sincov(system)
        assert {r.law for r in reports} == {Law.IDENTITY, Law.TRANSITIVITY}
        built = Counter()

        class CountedReport(ViolationReport):
            __slots__ = ()

            def __new__(cls, law, indices, pair):
                built[law] += 1
                return super().__new__(cls, law, indices, pair)

        monkeypatch.setattr(sincov.systems, "ViolationReport", CountedReport)
        identity = [r for r in reports if r.law is Law.IDENTITY]
        assert check_sincov(system, [Law.IDENTITY]) == identity
        assert set(built) == {Law.IDENTITY}

    @pytest.mark.parametrize("lawful", [True, False])
    def test_successors_are_read_only_when_faulty(self, monkeypatch, lawful):
        # The merge loop is one compress over the edges; the faulty
        # successors' pass is a second, which a lawful system skips.
        calls = []

        def counted(*args):
            calls.append(args)
            return compress(*args)

        monkeypatch.setattr(sincov.systems, "compress", counted)
        unlawful = SincovSystem(["a"], {("a", "a"): Relation([("0", "1")])})
        system = pair_system() if lawful else unlawful
        assert (check_sincov(system) == []) == lawful
        assert len(calls) == (1 if lawful else 2)

    @given(st.one_of(valid_systems_st, mutated_systems_st(), dense_faulty_systems_st()), laws_st)
    @settings(max_examples=300)
    def test_check_sincov(self, system, laws):
        reports = oracle_violations(system, laws)
        for build in BUILDS:
            assert check_sincov(build(system), laws) == reports

    @given(valid_systems_st)
    @example(PARTIAL_THROUGH_ALPHA)
    @settings(max_examples=150)
    def test_fixed_index_witness(self, system):
        strict = oracle_strict_triple(system)
        if system == PARTIAL_THROUGH_ALPHA:
            assert strict == ("a", "b", "a")
        for gamma, build in product(sorted(system.indices), BUILDS):
            if strict is None:
                assert reconstruct(solve_via_fixed_index(build(system), gamma)) == system
            else:
                with pytest.raises(EqualityCaseViolated) as excinfo:
                    solve_via_fixed_index(build(system), gamma)
                assert excinfo.value.witness == strict

    @given(mutated_systems_st())
    @settings(max_examples=150)
    def test_precondition_reports(self, system):
        reports = oracle_violations(system)
        for build in BUILDS:
            if not reports:
                assert reconstruct(solve_atlas(build(system))) == system
                continue
            gamma = min(system.indices)
            for solve in (solve_atlas, lambda s: solve_via_fixed_index(s, gamma)):
                with pytest.raises(PreconditionViolated) as excinfo:
                    solve(build(system))
                assert excinfo.value.reports == check_sincov(build(system)) == reports
                assert excinfo.value.report == reports[0]
