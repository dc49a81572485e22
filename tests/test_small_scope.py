"""Exhaustive checks of the atlas layer at small scope.

Every chart over 2 carrier points x 2 elements is one of the 16 subsets of
the 4 cells, so every atlas of this scope can be enumerated and each
verdict compared with its definition, not only sampled.  The outcome
counts are pinned as data, so a change that loses or gains a witness kind
shows here.
"""

from collections import Counter
from itertools import chain, combinations, permutations, product

from genutil import atlas_of, oracle_at_axioms, oracle_find_isomorphism
from sincov import NotIsomorphic, check_at_axioms, find_isomorphism, reconstruct

CELLS = list(product(["z0", "z1"], ["0", "1"]))
CHARTS = [list(c) for c in chain.from_iterable(combinations(CELLS, k) for k in range(5))]


def is_partial_bijection(chart):
    return all(len({pair[side] for pair in chart}) == len(chart) for side in (0, 1))


VALID_CHARTS = [chart for chart in CHARTS if is_partial_bijection(chart)]


def test_at_axioms_equal_the_definition_on_every_three_index_atlas():
    failing_at3 = 0
    for charts in product(CHARTS, repeat=3):
        atlas = atlas_of(dict(zip("abc", charts)))
        report = check_at_axioms(atlas)
        assert report == oracle_at_axioms(atlas)
        assert report["at2"]["pass"] == all(map(is_partial_bijection, charts))
        failing_at3 += not report["at3"]["pass"]
    assert (len(CHARTS), len(VALID_CHARTS), failing_at3) == (16, 7, 3535)


def brute_force_omegas(charts1, charts2):
    """Every carrier bijection omega with chart2 o omega == chart1 at each
    index, found by trying them all."""
    left = sorted({z for chart in charts1.values() for z, _ in chart})
    right = sorted({z for chart in charts2.values() for z, _ in chart})
    found = []
    for image in permutations(right) if len(left) == len(right) else ():
        omega = dict(zip(left, image))
        if all(
            {(z, a) for z in left for c, a in charts2[alpha] if c == omega[z]} == set(chart)
            for alpha, chart in charts1.items()
        ):
            found.append(omega)
    return found


def test_isomorphism_equals_the_two_pass_loop_and_brute_force_on_every_pair():
    def outcome(find, a1, a2):
        try:
            return dict(find(a1, a2).omega.pairs)
        except NotIsomorphic as exc:
            return (exc.reason, exc.indices, exc.pair, exc.present_in)

    atlases = [{"a": c1, "b": c2} for c1, c2 in product(VALID_CHARTS, repeat=2)]
    built = [(charts, atlas_of(charts)) for charts in atlases]
    built = [(charts, atlas, reconstruct(atlas)) for charts, atlas in built]
    kinds = Counter()
    for (charts1, a1, system1), (charts2, a2, system2) in product(built, repeat=2):
        result = outcome(find_isomorphism, a1, a2)
        assert result == outcome(oracle_find_isomorphism, a1, a2)
        isomorphic = isinstance(result, dict)
        assert brute_force_omegas(charts1, charts2) == ([result] if isomorphic else [])
        # The theorem's second half: an isomorphism exists iff the two
        # atlases generate the same transition family.
        assert isomorphic == (system1 == system2)
        kinds["isomorphic" if isomorphic else result[0]] += 1
    assert len(atlases) == 49
    assert kinds == {
        "isomorphic": 97,
        "missing_counterpart": 1648,
        "coverage": 472,
        "conflict": 184,
    }
