"""Indexed families of transition relations and their solvers.

A system assigns to every ordered index pair (alpha, beta) a finite
relation Phi[alpha, beta]; missing entries are empty.  The three laws
under test are the Sincov-type inequalities

    transitivity:  Phi[a,b] o Phi[b,c]  is contained in  Phi[a,c]
    symmetry:      Phi[a,b]^-1          is contained in  Phi[b,a]
    identity:      Phi[a,a]             is contained in  the identity

A system obeys them iff an atlas of partial bijections generates it.
``_quotient`` is the one mechanism behind that.  It labels every node
(index, element) with its class and reads the relations a whole relation
at a time; a pair whose two ends carry different labels merges their
classes by relabeling the smaller one.  The classes are the carrier
points, ``check_sincov`` reads every violation off the faulty ones, and
``solve_atlas`` and ``solve_via_fixed_index`` (the group case, where all
containments are equalities) need there to be none; ``reconstruct`` is
the inverse.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict, namedtuple
from itertools import chain, compress, repeat, starmap, tee
from operator import itemgetter, ne

from .atlas import Atlas, _raise_invalid, _rows, validate_atlas
from .errors import (
    EqualityCaseViolated,
    PreconditionViolated,
    UnknownIndex,
)
from .relations import EMPTY, Relation


class Law(enum.Enum):
    TRANSITIVITY = "transitivity"
    SYMMETRY = "symmetry"
    IDENTITY = "identity"


ALL_LAWS = (Law.TRANSITIVITY, Law.SYMMETRY, Law.IDENTITY)


class ViolationReport(namedtuple("ViolationReport", "law indices pair")):
    """One failing containment: the law, the indices instantiating it, and a
    pair belonging to the left side but not the right.  A named tuple:
    immutable, compared and hashed by its fields, and a tuple."""

    __slots__ = ()

    def sort_key(self):
        return (self.law.value, self.indices, self.pair)


class SincovSystem:
    """Finite index set plus a normalized map (alpha, beta) -> Relation.

    Empty relations are never stored, so equality of systems is equality of
    index sets plus entry-wise set equality of the non-empty relations.
    """

    def __init__(self, indices, relations=None):
        self.indices = frozenset(map(str, indices))
        normalized = {}
        for key, rel in dict(relations or {}).items():
            alpha, beta = key
            alpha, beta = str(alpha), str(beta)
            for index in (alpha, beta):
                if index not in self.indices:
                    raise UnknownIndex(index)
            if rel.pairs:
                normalized[(alpha, beta)] = rel
        self.relations = normalized

    def get(self, alpha, beta) -> Relation:
        return self.relations.get((str(alpha), str(beta)), EMPTY)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SincovSystem)
            and self.indices == other.indices
            and self.relations == other.relations
        )

    def __repr__(self) -> str:
        return f"SincovSystem(indices={sorted(self.indices)}, relations={self.relations!r})"


def _quotient(system: SincovSystem):
    """Labeled classes of the nodes (index, element), and the faulty ones.

    A pair (b, a) in Phi[alpha, beta] is the edge (beta, b) -> (alpha, a)
    inside one class.  ``label[index][element]`` names a node's class by
    one of its nodes.  The labels at both ends of every pair are read at C
    speed, each only once every earlier merge is done, so just the pairs
    that join two classes reach Python; each relabels the smaller class,
    so N nodes take at most N log N relabels.  A class is faulty iff it has
    fewer than |C|^2 edges or two nodes at one index; every law holds inside
    the other classes, so the system is lawful iff none is faulty, and then
    the classes are the carrier points of a generating atlas.  A lone node
    is never faulty: its one edge is its self-loop.
    """
    label, elements = defaultdict(dict), defaultdict(set)
    heads, tails = [], []  # per relation: (label lookup, elements) at beta, at alpha
    for (alpha, beta), rel in system.relations.items():
        firsts, seconds = zip(*rel.pairs)
        elements[beta].update(firsts)
        elements[alpha].update(seconds)
        heads.append((label[beta].__getitem__, firsts))
        tails.append((label[alpha].__getitem__, seconds))
    for index, column in elements.items():
        label[index].update(zip(column, zip(repeat(index), column)))

    def read(ends):  # each label is read when it is pulled, after every earlier merge
        return chain.from_iterable(starmap(map, ends))

    merged = {}  # class label -> its nodes, for classes of two or more
    (keeps, keeps_again), (drops, drops_again) = tee(read(heads)), tee(read(tails))
    for keep, drop in compress(zip(keeps, drops), map(ne, keeps_again, drops_again)):
        kept, dropped = merged.pop(keep, [keep]), merged.pop(drop, [drop])
        if len(kept) < len(dropped):
            keep, kept, dropped = drop, dropped, kept
        for index, element in dropped:
            label[index][element] = keep
        kept += dropped
        merged[keep] = kept

    edges = Counter(read(heads))
    faulty = [
        c
        for top, c in merged.items()
        if edges[top] < len(c) ** 2 or len(set(map(itemgetter(0), c))) < len(c)
    ]
    singles = set(chain.from_iterable(map(dict.values, label.values()))).difference(merged)
    return [*merged.values(), *zip(singles)], faulty


def _violations(system: SincovSystem, faulty, laws) -> list:
    """The reports of ``laws`` read off the edges among the faulty nodes."""
    successors = {node: set() for c in faulty for node in c}
    for (alpha, beta), rel in system.relations.items():
        for b, a in rel.pairs:
            if (beta, b) in successors:
                successors[(beta, b)].add((alpha, a))

    reports = set()  # a transitivity report recurs for each middle element
    for u, targets in successors.items():
        for v in targets:
            if u[0] == v[0] and u != v:
                reports.add(ViolationReport(Law.IDENTITY, (u[0],), (u[1], v[1])))
            if u not in successors[v]:
                reports.add(ViolationReport(Law.SYMMETRY, (v[0], u[0]), (v[1], u[1])))
            reports.update(
                ViolationReport(Law.TRANSITIVITY, (w[0], v[0], u[0]), (u[1], w[1]))
                for w in successors[v] - targets
            )
    return sorted((r for r in reports if r.law in laws), key=ViolationReport.sort_key)


def check_sincov(system: SincovSystem, laws=None) -> list:
    """All law violations, one report per (law, indices, witness pair).

    They are read off the edges u -> v of ``_quotient``'s faulty classes:
    identity fails at an edge within one index, symmetry at an edge without
    its reverse, transitivity at a path u -> v -> w without the edge u -> w.
    The list is sorted by the reports' canonical serialization, so it is
    deterministic.  An empty list means the system solves the inequalities.
    """
    return _violations(system, _quotient(system)[1], set(ALL_LAWS if laws is None else laws))


def _lawful_classes(system: SincovSystem) -> list:
    """The solvers' guard: raises PreconditionViolated with every report."""
    classes, faulty = _quotient(system)
    if faulty:
        raise PreconditionViolated(_violations(system, faulty, ALL_LAWS))
    return classes


def solve_atlas(system: SincovSystem) -> Atlas:
    """A generating atlas for a system that passes ``check_sincov``.

    Each class of ``_quotient`` becomes one carrier point, named after its
    least node ("cls:<index>:<element>") so that outputs are reproducible;
    chart alpha collects (class, element) for every node (alpha, element).
    The certificate guarantees these charts are partial bijections that
    generate the system exactly.

    Raises PreconditionViolated (carrying the ``check_sincov`` reports)
    when the laws fail, since then the charts need not be partial
    bijections.
    """
    charts = {index: set() for index in sorted(system.indices)}
    for members in _lawful_classes(system):
        class_id = "cls:{}:{}".format(*min(members))
        for index, element in members:
            charts[index].add((class_id, element))

    return Atlas({index: Relation(pairs) for index, pairs in charts.items()})


def reconstruct(atlas: Atlas) -> SincovSystem:
    """The transition-relation system generated by an atlas.

    Phi[alpha, beta] = chart_alpha o chart_beta^-1, each non-empty one
    read off the charts by ``atlas._rows`` as (b, a) 1-tuple sums.  The
    result always passes ``check_sincov``.  Raises InvalidAtlas naming the
    first chart that is not a partial bijection (its ``violations`` lists
    them all).
    """
    violations = validate_atlas(atlas)
    if violations:
        _raise_invalid(violations)

    def single(x):
        return (x,)

    return SincovSystem(
        atlas.charts.keys(),
        {  # exact pairs already: they are read off normalized charts
            (alpha, beta): Relation._of(frozenset(pairs))
            for alpha, beta, pairs in _rows(atlas, single, single)
        },
    )


def solve_via_fixed_index(system: SincovSystem, gamma) -> Atlas:
    """Group-case solver: charts are the system's own column at ``gamma``.

    Needs every transitivity containment to hold with equality (the
    symmetry containments are then equalities automatically, both
    directions being checked).  Under that hypothesis chart_alpha =
    Phi[alpha, gamma] reconstructs the system exactly.

    On a lawful system Phi[a,b] o Phi[b,c] is strictly below Phi[a,c] iff
    some ``_quotient`` class meets a and c but misses b, so equality holds
    iff every class meets every index.  The first strict triple in index
    order is then (a, b, a): a is the least index of any class missing an
    index, and b the least index missed by a class containing a.

    Raises UnknownIndex for a gamma outside the system,
    PreconditionViolated when the containments themselves fail, and
    EqualityCaseViolated with the first strict triple otherwise.
    """
    gamma = str(gamma)
    if gamma not in system.indices:
        raise UnknownIndex(gamma)

    classes = _lawful_classes(system)
    partial = [{index for index, _ in c} for c in classes if len(c) < len(system.indices)]
    if partial:
        alpha = min(min(met) for met in partial)
        beta = min(min(system.indices - met) for met in partial if alpha in met)
        raise EqualityCaseViolated((alpha, beta, alpha))

    return Atlas({alpha: system.get(alpha, gamma) for alpha in sorted(system.indices)})
