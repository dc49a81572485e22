"""Shared generators and oracles for the test suite.

Two flavors live here side by side: `random.Random`-driven generators for
the big seeded acceptance loops, and hypothesis strategies for the law
tests.  Valid systems are always produced by reconstructing a random
atlas (optionally thinned), which is the one construction guaranteed to
satisfy all three laws.  The definitional loops live here too, as the
oracles that the library's quotient certificate and its one-pass atlas
transitions are checked against.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from sincov import (
    ALL_LAWS,
    Atlas,
    Law,
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
    one deletes system pairs in a law-consistent way."""
    return Atlas(
        {
            alpha: Relation(p for p in rel.pairs if rng.random() < keep)
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
partial_bijections_st = st.lists(
    pairs_st, unique_by=(lambda p: p[0], lambda p: p[1]), max_size=8
).map(Relation)


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
