import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genutil import (
    Label,
    atlases_st,
    corrupted_atlases_st,
    mutate_atlas,
    oracle_at_axioms,
    oracle_find_isomorphism,
    oracle_match_charts,
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
import sincov.atlas
from sincov import jsonio
from sincov.atlas import _match_charts
from test_systems import CountedPairs, pair_system, swap_system, two_class_system


def witness_checks_out(exc, a1, a2):
    """A NotIsomorphic witness must separate the two reconstructions."""
    s1, s2 = reconstruct(a1), reconstruct(a2)
    inside, outside = (s1, s2) if exc.present_in == 1 else (s2, s1)
    alpha, beta = exc.indices
    return exc.pair in inside.get(alpha, beta) and exc.pair not in outside.get(alpha, beta)


def renamed_partner(a1, rng):
    """(a1, a2) with a2 a carrier-renamed a1, mutated 30 % of the time: a
    pair dropped or grafted (missing, coverage) or one chart's point split
    off (a conflict one way, a collapse the other); either side may be the
    mutated one."""
    a2 = rename_carrier(a1, random_carrier_bijection(rng, carrier(a1)))
    if rng.random() < 0.3:
        nonempty = sorted(alpha for alpha, rel in a2.charts.items() if rel.pairs)
        if nonempty and rng.random() < 0.5:
            alpha = rng.choice(nonempty)
            chart = a2.charts[alpha].pairs
            z, a = rng.choice(sorted(chart))
            a2 = Atlas({**a2.charts, alpha: Relation(chart - {(z, a)} | {(z + "~", a)})})
        else:
            a2 = mutate_atlas(rng, a2)
        if rng.random() < 0.5:
            a1, a2 = a2, a1
    return a1, a2


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

    def test_transition_reads_any_atlas(self):
        # A chart that sends a point to two elements: reconstruct's charts
        # must be partial bijections, transition's need not be.
        atlas = Atlas({"a": Relation([("z0", "0"), ("z0", "1")])})
        expected = Relation([(b, a) for b in "01" for a in "01"])
        assert transition(atlas, "a", "a") == expected

    @given(atlases_st())
    @settings(max_examples=100)
    def test_one_pass_transitions_match_each_pair(self, atlas):
        transitions = reconstruct(atlas).relations
        for alpha in atlas.indices:
            for beta in atlas.indices:
                assert transitions.get((alpha, beta), EMPTY) == transition(atlas, alpha, beta)
        assert all(transitions.values())

    @given(atlases_st())
    @example(Atlas({"a": Relation([(Label("z"), Label("0")), (1, 2)]), 3: Relation([("z", 4)])}))
    @settings(max_examples=100)
    def test_transitions_hold_exact_strings(self, atlas):
        # The chart constructors normalize, so the pairs read off them are exact.
        for rel in reconstruct(atlas).relations.values():
            assert all(type(pair) is tuple and len(pair) == 2 for pair in rel.pairs)
            assert all(type(x) is str for pair in rel.pairs for x in pair)
            assert rel == Relation(rel.pairs)

    @given(atlases_st())
    @example(Atlas({"a": Relation([(Label("z"), Label("0")), (1, 2)]), 3: Relation([("z", 4)])}))
    @example(Atlas({f"i{k}": Relation([(f"z{k}", str(k % 3))]) for k in range(12)}))
    @example(Atlas({k: Relation([("hub", k), (f"own{k}", "0"), (k, "1")]) for k in "abcde"}))
    @example(Atlas({"a": Relation([("z", "0"), ("w", "1")]), "b": Relation([("v", "0")])}))
    # Ids that are prefixes of one another: by plain name "t" < "t!" < "t/1"
    # < "t0", but the keys sort "t!|" < "t/1|" < "t0|" < "t|".
    @example(Atlas({k: Relation([("z", "0")]) for k in ("t", "t!", "t0", "t/1")}))
    @example(
        Atlas(
            {
                "t": Relation([("z", "0"), ("w", "1")]),
                "t!": Relation([("w", "2")]),
                "t0": Relation([("z", "3")]),
                "t/1": Relation([("z", "4"), ("w", "5")]),
            }
        )
    )
    @settings(max_examples=100)
    def test_emitted_rows_are_the_sorted_transitions(self, atlas):
        indices = atlas.indices
        pairs = {f"{a}|{b}": transition(atlas, a, b).pairs for a in indices for b in indices}
        for dumps in (jsonio.canonical_dumps, jsonio.pretty_dumps):
            written = json.loads(dumps(jsonio.GeneratedSystem(atlas)))
            assert written["indices"] == sorted(indices)
            rows = written["relations"]
            assert list(rows) == sorted(rows)  # the keys are written in the encoder's order
            assert set(rows) == {key for key, found in pairs.items() if found}
            for key, row in rows.items():
                assert row == sorted(map(list, pairs[key]))  # so sorted and repeat-free

    @pytest.mark.parametrize(
        "charts, point, rows, mib, per_text",
        [(3000, "z{}", 3000, 8, 0), (30000, "z{}", 30000, 40, 0), (300, "z", 90000, 0, 6)],
        ids=["3000-8", "30000-40", "300-shared"],
    )
    def test_emission_memory_follows_the_rows(self, charts, point, rows, mib, per_text):
        # Disjoint one-point charts each meet only themselves: one row per
        # chart, written without a slot per chart and carrier point.  An
        # index as wide as the chart count per point (int masks: charts^2/16
        # bytes, 56 MB at 30 000) fails the larger case.  Charts that share
        # their one point make charts^2 rows, which are joined as they come:
        # keeping every row and its key for one sort peaks above 10x the text.
        atlas = Atlas({f"i{k}": Relation([(point.format(k), f"e{k}")]) for k in range(charts)})
        tracemalloc.start()
        try:
            text = jsonio.canonical_dumps(jsonio.GeneratedSystem(atlas))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("|") == rows
        assert peak < mib * 2**20 + per_text * len(text)


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

    def test_collapse_witness(self):
        # Two points on the left, one on the right: the forward map is not
        # injective, so the reverse pass runs and names the collapse.
        a1 = Atlas({"a": Relation([("z", "0")]), "b": Relation([("w", "1")])})
        a2 = Atlas({"a": Relation([("u", "0")]), "b": Relation([("u", "1")])})
        with pytest.raises(NotIsomorphic) as excinfo:
            find_isomorphism(a1, a2)
        exc = excinfo.value
        assert exc.reason == "conflict"
        assert (exc.indices, exc.pair, exc.present_in) == (("a", "b"), ("1", "0"), 2)
        assert witness_checks_out(exc, a1, a2)

    @given(atlases_st(), st.randoms(use_true_random=False))
    @example(  # one point on the left, split in two on the right
        Atlas({"a": Relation([("z", "0")]), "b": Relation([("z", "1")])}), random.Random(0)
    )
    @settings(max_examples=200)
    def test_matching_equals_the_loop(self, a1, rng):
        a1, a2 = renamed_partner(a1, rng)

        def outcome(match, src, dst, present_in, reason):
            try:
                return match(src, dst, present_in, reason)
            except NotIsomorphic as exc:
                return (exc.reason, exc.indices, exc.pair, exc.present_in)

        for args in ((a1, a2, 1, "missing_counterpart"), (a2, a1, 2, "coverage")):
            assert outcome(_match_charts, *args) == outcome(oracle_match_charts, *args)

    @given(atlases_st(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_result_equals_the_two_pass_oracle(self, a1, rng):
        # find_isomorphism skips the reverse pass only where it cannot fail.
        a1, a2 = renamed_partner(a1, rng)

        def outcome(find):
            try:
                return find(a1, a2)
            except NotIsomorphic as exc:
                return (exc.reason, exc.indices, exc.pair, exc.present_in)

        assert outcome(find_isomorphism) == outcome(oracle_find_isomorphism)


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

    @given(st.one_of(raw_atlases_st(), corrupted_atlases_st()))
    @settings(max_examples=300)
    def test_matches_oracle_on_non_bijective_atlases(self, atlas):
        # at3 is read off at2: partial bijections are closed under compose
        # and inverse, so every failing transition touches a chart at2 names,
        # and a transition's domain and range always match the chart images.
        report = check_at_axioms(atlas)
        oracle = oracle_at_axioms(atlas)
        assert report == oracle
        bad = {w["index"] for w in report["at2"]["witnesses"]}
        assert all(w["alpha"] in bad or w["beta"] in bad for w in report["at3"]["witnesses"])
        assert not any({"domain", "range"} & set(w["failed"]) for w in oracle["at3"]["witnesses"])


def big_atlas(rng, bad=None):
    """24 charts over 200 points, each a random partial bijection onto its
    own elements; chart `bad` also sends two of its points to one element."""
    points = [f"z{i}" for i in range(200)]
    charts = {}
    for k in range(24):
        alpha = f"i{k:02d}"
        domain = rng.sample(points, 80)
        pairs = {(z, f"{alpha}.{n}") for n, z in enumerate(domain)}
        if alpha == bad:
            pairs.add((next(z for z in points if z not in domain), f"{alpha}.0"))
        charts[alpha] = Relation(pairs)
    return Atlas(charts)


def count_calls(monkeypatch, calls, owner, *names):
    """Patch each owner.name to append name to calls before running."""
    for name in names:

        def wrapper(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)


def big_bad_chart(n):
    """Chart "big" over n points, which also sends z0 to a second element,
    beside a one-point chart on each of its points."""
    charts = {f"p{k:05d}": Relation([(f"z{k}", f"p.{k}")]) for k in range(n)}
    charts["big"] = Relation([(f"z{k}", f"big.{k}") for k in range(n)] + [("z0", "big.x")])
    return Atlas(charts)


def touching(atlas, bad):
    """The pairs of every non-empty transition to or from a chart in bad,
    in sorted (alpha, beta) order, by the definition."""
    rows = [
        transition(atlas, alpha, beta).pairs
        for alpha in sorted(atlas.indices)
        for beta in sorted(atlas.indices)
        if alpha in bad or beta in bad
    ]
    return [pairs for pairs in rows if pairs]


def examined_by_check_at_axioms(monkeypatch, atlas):
    """(report, the transition and compose calls made, the pairs of every
    relation other than a chart whose bijectivity is examined)."""
    charts = list(atlas.charts.values())
    calls, examined = [], []

    def recorded(fn):
        def wrapper(self):
            if not any(self is chart for chart in charts):
                examined.append(self.pairs)
            return fn(self)

        return wrapper

    count_calls(monkeypatch, calls, sincov.atlas, "_rows", "transition")
    count_calls(monkeypatch, calls, Relation, "compose")
    monkeypatch.setattr(Relation, "is_injective", recorded(Relation.is_injective))
    monkeypatch.setattr(Relation, "is_coinjective", recorded(Relation.is_coinjective))
    report = check_at_axioms(atlas)
    monkeypatch.undo()
    return report, calls, examined


class TestAtAxiomsWork:
    """at3's work is pinned by counts: no transition is composed, each chart
    is read a bounded number of times, and exactly the non-empty transitions
    touching a bad chart are examined, each once."""

    def test_valid_atlas_builds_no_transition(self, monkeypatch):
        calls = []
        count_calls(monkeypatch, calls, sincov.atlas, "_rows", "transition")
        count_calls(monkeypatch, calls, Relation, "compose")
        report = check_at_axioms(big_atlas(random.Random(41)))
        assert all(section["pass"] for section in report.values())
        assert calls == []

    def test_bad_chart_row_and_column_are_read_without_compose(self, monkeypatch):
        atlas = big_atlas(random.Random(43), bad="i07")
        report, calls, examined = examined_by_check_at_axioms(monkeypatch, atlas)
        assert calls == []
        rows = touching(atlas, {"i07"})
        assert len(rows) == 2 * 24 - 1
        assert examined == [pairs for pairs in rows for _ in range(2)]
        assert report == oracle_at_axioms(atlas)
        assert report["at3"]["witnesses"]

    def test_disjoint_bad_charts_examine_one_transition_each(self, monkeypatch):
        # A transition between charts that share no point is empty, so each
        # bad chart is read only against itself: n transitions, not n².
        n = 30
        atlas = Atlas({f"c{k:02d}": Relation([(f"z{k}", "0"), (f"w{k}", "0")]) for k in range(n)})
        report, calls, examined = examined_by_check_at_axioms(monkeypatch, atlas)
        assert calls == []
        rows = touching(atlas, set(atlas.charts))
        assert len(rows) == n
        assert examined == [pairs for pairs in rows for _ in range(2)]
        assert report == oracle_at_axioms(atlas)
        assert len(report["at2"]["witnesses"]) == n

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_one_big_bad_chart_reads_each_chart_a_bounded_number_of_times(self, monkeypatch, n):
        # validate_atlas reads each chart twice, and twice more to name a
        # bad chart's least conflicting pair; listing the points of the bad
        # chart and their holders reads the bad chart twice, the others once.
        atlas = big_bad_chart(n)
        counted = Atlas({i: Relation._of(CountedPairs(c.pairs)) for i, c in atlas.charts.items()})
        CountedPairs.reads.clear()
        report, calls, examined = examined_by_check_at_axioms(monkeypatch, counted)
        assert len(CountedPairs.reads) == n + 1 and max(CountedPairs.reads.values()) <= 6
        assert calls == []
        assert len(examined) == 2 * (2 * n + 1)
        assert len(report["at3"]["witnesses"]) == 3
        if n <= 100:
            assert examined == [pairs for pairs in touching(atlas, {"big"}) for _ in range(2)]
            assert report == oracle_at_axioms(atlas)
