"""Shared generators and oracles for the test suite.

Two flavors live here side by side: `random.Random`-driven generators for
the big seeded acceptance loops, and hypothesis strategies for the law
tests.  Valid systems are always produced by reconstructing a random
atlas (optionally thinned), which is the one construction guaranteed to
satisfy all three laws.  The definitional loops live here too, as the
oracles that the library's quotient certificate, its one-pass atlas
transitions and its flow sampling are checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from sincov import (
    ALL_LAWS,
    EMPTY,
    Atlas,
    FlowKind,
    FormatError,
    Isomorphism,
    Law,
    NotIsomorphic,
    Relation,
    SincovSystem,
    ViolationReport,
    carrier,
    reconstruct,
    transition,
    validate_atlas,
)
from sincov.atlas import chart_violation_to_obj

INDEX_POOL = ["a", "b", "c", "d", "e", "f"]
ELEMENT_POOL = [str(i) for i in range(12)]


# ----------------------------------------------------------- random.Random


def random_atlas(rng: random.Random, max_indices=6, max_points=6, max_elements=12):
    indices = INDEX_POOL[: rng.randint(1, max_indices)]
    points = [f"z{i}" for i in range(rng.randint(0, max_points))]
    elements = ELEMENT_POOL[:max_elements]
    charts = {}
    for alpha in indices:
        size = rng.randint(0, min(len(points), len(elements)))
        charts[alpha] = Relation(
            zip(rng.sample(points, size), rng.sample(elements, size))
        )
    return Atlas(charts)


def thin_atlas(rng: random.Random, atlas: Atlas, keep=0.75) -> Atlas:
    """Drop random chart pairs.  Sub-atlases stay valid, and reconstructing
    one deletes system pairs in a law-consistent way.  The pairs are drawn
    in sorted order, so a seeded rng thins alike under every hash seed."""
    return Atlas(
        {
            alpha: Relation(p for p in sorted(rel.pairs) if rng.random() < keep)
            for alpha, rel in atlas.charts.items()
        }
    )


def random_valid_system(rng: random.Random, thin=False, **kwargs) -> SincovSystem:
    atlas = random_atlas(rng, **kwargs)
    if thin:
        atlas = thin_atlas(rng, atlas)
    return reconstruct(atlas)


def random_relation(rng: random.Random, max_pairs=30, universe=10) -> Relation:
    count = rng.randint(0, max_pairs)
    return Relation(
        (str(rng.randrange(universe)), str(rng.randrange(universe)))
        for _ in range(count)
    )


def random_partial_bijection(rng: random.Random, max_pairs=8, universe=12) -> Relation:
    size = rng.randint(0, min(max_pairs, universe))
    pool = [str(i) for i in range(universe)]
    return Relation(zip(rng.sample(pool, size), rng.sample(pool, size)))


def random_carrier_bijection(rng: random.Random, points) -> Relation:
    """A bijection from the given carrier points onto fresh labels."""
    points = sorted(points)
    targets = [f"w{i}" for i in range(len(points))]
    rng.shuffle(targets)
    return Relation(zip(points, targets))


def rename_carrier(atlas: Atlas, omega: Relation) -> Atlas:
    """Replace every carrier point z by omega(z); charts become
    chart o omega^-1, so reconstruct is unchanged and omega is the unique
    isomorphism from `atlas` to the result."""
    inverse = omega.inverse()
    return Atlas({alpha: rel.compose(inverse) for alpha, rel in atlas.charts.items()})


def mutate_atlas(rng: random.Random, atlas: Atlas) -> Atlas:
    """A valid atlas over the same indices whose reconstruction differs.

    Either deletes one chart pair (its element's identity pair leaves
    Phi[alpha, alpha]) or grafts a fresh (class, element) pair onto one
    chart (a new identity pair appears); both change the reconstruction.
    """
    charts = dict(atlas.charts)
    nonempty = [alpha for alpha, rel in charts.items() if rel.pairs]
    if nonempty and rng.random() < 0.5:
        alpha = rng.choice(nonempty)
        dropped = rng.choice(sorted(charts[alpha].pairs))
        charts[alpha] = Relation(charts[alpha].pairs - {dropped})
    else:
        alpha = rng.choice(sorted(charts))
        rel = charts[alpha]
        point = f"zx{rng.randrange(10**6)}"
        while point in rel.domain:
            point += "x"
        element = "extra"
        while element in rel.range:
            element += "x"
        charts[alpha] = Relation(rel.pairs | {(point, element)})
    return Atlas(charts)


def relabel_system(system: SincovSystem, index_map, element_map) -> SincovSystem:
    return SincovSystem(
        (index_map[i] for i in system.indices),
        {
            (index_map[alpha], index_map[beta]): Relation(
                (element_map[b], element_map[a]) for b, a in rel.pairs
            )
            for (alpha, beta), rel in system.relations.items()
        },
    )


# ------------------------------------------------------------- hypothesis


ids_st = st.text(alphabet="abc012", min_size=1, max_size=2)
pairs_st = st.tuples(ids_st, ids_st)
relations_st = st.builds(Relation, st.frozensets(pairs_st, max_size=10))


class Label(str):
    """A plain str subclass: jsonio accepts it where a string is due."""


class Pair(list):
    """A plain list subclass: jsonio accepts it where an array is due."""


_scalars_st = st.none() | st.booleans() | st.integers(-2, 2) | ids_st
_good_entry_st = st.lists(ids_st, min_size=2, max_size=2)
_entries_st = st.one_of(
    _good_entry_st,
    _good_entry_st.map(lambda entry: [Label(x) for x in entry]),
    _good_entry_st.map(Pair),
    st.lists(ids_st, max_size=3),  # wrong length, or right
    st.lists(_scalars_st | st.lists(ids_st, max_size=1), min_size=2, max_size=2),
    _scalars_st | st.dictionaries(ids_st, ids_st, max_size=1),  # not an array
)
relation_objs_st = st.lists(_entries_st, max_size=6) | _scalars_st
"""Relation documents as ``json.loads`` or a caller might hand them over:
good pairs mixed with wrong-length arrays, non-strings, non-arrays and
``str``/``list`` subclasses."""


@st.composite
def atlases_st(draw):
    indices = draw(
        st.lists(st.sampled_from(INDEX_POOL), min_size=1, max_size=4, unique=True)
    )
    point_count = draw(st.integers(min_value=0, max_value=6))
    points = [f"z{i}" for i in range(point_count)]
    charts = {}
    for alpha in indices:
        if points:
            pairs = draw(
                st.lists(
                    st.tuples(st.sampled_from(points), st.sampled_from(ELEMENT_POOL)),
                    unique_by=(lambda p: p[0], lambda p: p[1]),
                    max_size=len(points),
                )
            )
        else:
            pairs = []
        charts[alpha] = Relation(pairs)
    return Atlas(charts)


@st.composite
def raw_atlases_st(draw):
    """Atlases whose charts are arbitrary relations, so mostly not partial
    bijections: few points and elements make shared ones likely."""
    indices = draw(
        st.lists(st.sampled_from(INDEX_POOL), min_size=1, max_size=4, unique=True)
    )
    pairs = st.tuples(st.sampled_from(["z0", "z1", "z2"]), st.sampled_from(ELEMENT_POOL[:4]))
    return Atlas({alpha: Relation(draw(st.lists(pairs, max_size=5))) for alpha in indices})


@st.composite
def corrupted_atlases_st(draw):
    """A valid atlas with one or two charts made non-bijective: each gets
    one point sent to two elements, or two points sent to one element.  The
    untouched charts keep their (often non-empty) transitions beside the
    corrupted charts' rows and columns."""
    charts = dict(draw(atlases_st()).charts)
    points = st.sampled_from([f"z{i}" for i in range(6)])
    elements = st.sampled_from(ELEMENT_POOL)
    corrupted = st.lists(st.sampled_from(sorted(charts)), min_size=1, max_size=2, unique=True)
    for alpha in draw(corrupted):
        if draw(st.booleans()):
            z = draw(points)
            extra = {(z, a) for a in draw(st.lists(elements, min_size=2, max_size=2, unique=True))}
        else:
            a = draw(elements)
            extra = {(z, a) for z in draw(st.lists(points, min_size=2, max_size=2, unique=True))}
        charts[alpha] = Relation(charts[alpha].pairs | extra)
    return Atlas(charts)


valid_systems_st = atlases_st().map(reconstruct)


@st.composite
def mutated_systems_st(draw):
    """A valid system with one to three pairs dropped or added; mostly
    unlawful, sometimes (a redundant addition, a lone loop dropped) not.
    Edits far apart leave several faulty classes beside lawful ones."""
    system = draw(valid_systems_st)
    relations = dict(system.relations)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pairs = sorted((key, pair) for key, rel in relations.items() for pair in rel.pairs)
        if pairs and draw(st.booleans()):
            key, pair = draw(st.sampled_from(pairs))
            relations[key] = Relation(relations[key].pairs - {pair})
        else:
            index = st.sampled_from(sorted(system.indices))
            element = st.sampled_from(ELEMENT_POOL)
            key = draw(st.tuples(index, index))
            pair = draw(st.tuples(element, element))
            relations[key] = Relation(relations.get(key, Relation()).pairs | {pair})
    return SincovSystem(system.indices, relations)


@st.composite
def dense_faulty_systems_st(draw):
    """Every Phi[alpha, beta] the full k x k relation over a small universe,
    then up to eight pairs dropped or added: one class that meets each index
    k times, so it fails identity, and after the edits fails transitivity
    and symmetry in many places at once."""
    indices = draw(st.lists(st.sampled_from(INDEX_POOL), min_size=2, max_size=5, unique=True))
    universe = ELEMENT_POOL[: draw(st.integers(min_value=1, max_value=4))]
    relations = {key: set(product(universe, repeat=2)) for key in product(indices, repeat=2)}
    keys, elements = st.sampled_from(sorted(relations)), st.sampled_from(ELEMENT_POOL[:5])
    for key, pair in draw(st.lists(st.tuples(keys, st.tuples(elements, elements)), max_size=8)):
        relations[key] ^= {pair}
    return SincovSystem(indices, {key: Relation(pairs) for key, pairs in relations.items()})


# ------------------------------------------------------------------ oracles


def oracle_violations(system: SincovSystem, laws=None) -> list:
    """Every failing containment, found by the definitional loops over all
    index pairs and triples, in canonical report order."""
    selected = set(ALL_LAWS if laws is None else laws)
    reports = []
    indices = sorted(system.indices)

    if Law.IDENTITY in selected:
        for alpha in indices:
            for b, a in system.get(alpha, alpha).pairs:
                if b != a:
                    reports.append(ViolationReport(Law.IDENTITY, (alpha,), (b, a)))

    if Law.SYMMETRY in selected:
        for alpha in indices:
            for beta in indices:
                back = system.get(beta, alpha)
                for pair in system.get(alpha, beta).inverse().pairs:
                    if pair not in back.pairs:
                        reports.append(ViolationReport(Law.SYMMETRY, (alpha, beta), pair))

    if Law.TRANSITIVITY in selected:
        for alpha in indices:
            for beta in indices:
                for gamma in indices:
                    left = system.get(alpha, beta).compose(system.get(beta, gamma))
                    right = system.get(alpha, gamma)
                    for pair in left.pairs:
                        if pair not in right.pairs:
                            reports.append(
                                ViolationReport(Law.TRANSITIVITY, (alpha, beta, gamma), pair)
                            )

    reports.sort(key=ViolationReport.sort_key)
    return reports


def oracle_relation_from_obj(obj) -> Relation:
    """``jsonio.relation_from_obj`` by its definitional per-entry loop: the
    first bad entry, in document order, names the error."""
    if not isinstance(obj, list):
        raise FormatError("relation must be an array of pairs")
    pairs = []
    for entry in obj:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise FormatError("relation entries must be 2-element arrays")
        for value in entry:
            if not isinstance(value, str):
                raise FormatError("relation pair entries must be strings")
        pairs.append((entry[0], entry[1]))
    return Relation(pairs)


def oracle_match_charts(src: Atlas, dst: Atlas, present_in: int, missing_reason: str) -> dict:
    """``atlas._match_charts`` by its per-pair loop alone: charts in index
    order, pairs in sorted order, and the first missing value or point
    forced two ways names the witness."""
    assignment = {}
    for alpha in sorted(src.charts):
        by_value = {a: z for z, a in dst.charts.get(alpha, EMPTY).pairs}
        for z, a in sorted(src.charts[alpha].pairs):
            zbar = by_value.get(a)
            if zbar is None:
                raise NotIsomorphic(missing_reason, (alpha, alpha), (a, a), present_in)
            prev = assignment.get(z)
            if prev is None:
                assignment[z] = (zbar, alpha, a)
            elif prev[0] != zbar:
                raise NotIsomorphic("conflict", (prev[1], alpha), (a, prev[2]), present_in)
    return {z: forced[0] for z, forced in assignment.items()}


def oracle_find_isomorphism(a1: Atlas, a2: Atlas) -> Isomorphism:
    """``atlas.find_isomorphism`` on two valid atlases over the same
    indices, with both matching passes always run, by the per-pair loop."""
    assert a1.indices == a2.indices and not validate_atlas(a1) and not validate_atlas(a2)
    forward = oracle_match_charts(a1, a2, 1, "missing_counterpart")
    oracle_match_charts(a2, a1, 2, "coverage")
    return Isomorphism(Relation(forward.items()))


def oracle_strict_triple(system: SincovSystem):
    """The first index triple, in sorted order, at which Phi[a,b] o Phi[b,c]
    differs from Phi[a,c]; None when every containment is an equality."""
    indices = sorted(system.indices)
    for alpha in indices:
        for beta in indices:
            for third in indices:
                composed = system.get(alpha, beta).compose(system.get(beta, third))
                if composed != system.get(alpha, third):
                    return (alpha, beta, third)
    return None


def oracle_at_axioms(atlas: Atlas) -> dict:
    """The set-level atlas axiom report by the definitional loop: at3 takes
    ``transition`` (one compose, one inverse) for every index pair."""
    charts = atlas.charts
    uncovered = sorted(carrier(atlas).difference(*(rel.domain for rel in charts.values())))

    chart_violations = [chart_violation_to_obj(v) for v in validate_atlas(atlas)]

    transition_failures = []
    for alpha in sorted(charts):
        for beta in sorted(charts):
            t = transition(atlas, alpha, beta)
            shared_a = charts[alpha].domain
            shared_b = charts[beta].domain
            source_image = {a for z, a in charts[beta].pairs if z in shared_a}
            target_image = {a for z, a in charts[alpha].pairs if z in shared_b}
            failed = []
            if t.domain != source_image:
                failed.append("domain")
            if t.range != target_image:
                failed.append("range")
            if not t.is_injective():
                failed.append("injectivity")
            if not t.is_coinjective():
                failed.append("co-injectivity")
            if failed:
                transition_failures.append(
                    {"alpha": alpha, "beta": beta, "failed": failed}
                )

    return {
        "at1": {"pass": not uncovered, "witnesses": uncovered},
        "at2": {"pass": not chart_violations, "witnesses": chart_violations},
        "at3": {"pass": not transition_failures, "witnesses": transition_failures},
    }


def oracle_flow(spec, tau, alpha, a):
    """F(tau, alpha, a) by definition, None outside the domain: the closed
    forms for the continuous kinds and doubling, and for permutation the
    table g applied tau - alpha times (its inverse when that is negative).
    Shares no code with ``flows``, whose evaluator it checks."""
    steps = Fraction(tau) - Fraction(alpha)
    if spec.kind is FlowKind.TRANSLATION:
        return Fraction(a) + steps
    if spec.kind is FlowKind.BLOWUP:
        a = Fraction(a)
        return a / (1 - a * steps) if 1 - a * steps > 0 else None
    assert steps.denominator == 1
    if spec.kind is FlowKind.DOUBLING:
        return Fraction(a) * 2**steps if steps >= 0 else Fraction(a) / 2**-steps
    g = dict(spec.permutation)
    if steps < 0:
        g = {image: x for x, image in g.items()}
    a = str(a)
    if a not in g:
        return None
    for _ in range(abs(int(steps))):
        a = g[a]
    return a


def oracle_build_system(spec, time_grid, seeds) -> SincovSystem:
    """``build_system`` on valid input by the definitional comprehension:
    for every trajectory and every ordered grid pair (t_out, t_in) at which
    it is defined, Phi[t_out, t_in] gains (value at t_in, value at t_out)."""
    grid = sorted({Fraction(t) for t in time_grid})
    trajectories = [[oracle_flow(spec, t, seed.time, seed.value) for t in grid] for seed in seeds]
    return SincovSystem(
        grid,
        {
            (t_out, t_in): Relation(
                (traj[j], traj[i])
                for traj in trajectories
                if traj[i] is not None and traj[j] is not None
            )
            for i, t_out in enumerate(grid)
            for j, t_in in enumerate(grid)
        },
    )
