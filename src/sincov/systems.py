"""Indexed families of transition relations and their solvers.

A system assigns to every ordered index pair (alpha, beta) a finite
relation Phi[alpha, beta]; missing entries are empty.  The three laws
under test are the Sincov-type inequalities

    transitivity:  Phi[a,b] o Phi[b,c]  is contained in  Phi[a,c]
    symmetry:      Phi[a,b]^-1          is contained in  Phi[b,a]
    identity:      Phi[a,a]             is contained in  the identity

A system obeys them iff an atlas of partial bijections generates it.
``_quotient`` is the one mechanism behind that.  It reads each relation's
pairs once into int edges, numbering a node (index, element) when a
relation first names it, and labels every node with its class; an edge
whose two ends carry different labels merges their classes by relabeling
the smaller one.  The classes are the carrier points, ``check_sincov``
reads every violation off the faulty ones' successors, and ``solve_atlas``
and ``solve_via_fixed_index`` (the group case, where all containments are
equalities) need there to be none and read their charts off the classes;
``reconstruct`` is the inverse.  A system that ``jsonio`` reads or
``reconstruct`` makes holds columns, and makes its ``Relation``s when
``relations`` is first read.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from importlib import import_module
from itertools import chain, compress, count
from operator import ne

from .errors import EqualityCaseViolated, PreconditionViolated, UnknownIndex


def __getattr__(name):  # PEP 562: ``atlas``'s, once imported here, loaded on first read
    if name != "validate_atlas":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".atlas", __package__), name)


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

    @classmethod
    def _of(cls, indices, entries) -> "SincovSystem":
        """Exact ids and (alpha, beta, exact (b, a) pairs) per relation, as columns."""
        columns = []
        for alpha, beta, pairs in entries:
            if pairs:
                firsts, seconds = zip(*pairs)
                if len(set(firsts)) < len(firsts):  # only then can a pair repeat
                    firsts, seconds = zip(*set(zip(firsts, seconds)))
                columns.append((alpha, beta, firsts, seconds))
        system = cls.__new__(cls)
        system.indices, system._columns = frozenset(indices), columns
        return system

    @cached_property  # set by __init__, else built from _of's columns on first read
    def relations(self) -> dict:
        from .relations import Relation

        return {(a, b): Relation._of(frozenset(zip(*p))) for a, b, *p in vars(self).pop("_columns")}

    def get(self, alpha, beta) -> Relation:
        from .relations import EMPTY

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
    """The classes of the nodes, the faulty ones, and the faulty nodes' successors.

    Each pair (b, a) in Phi[alpha, beta] is read once, into the int edge
    (beta, b) -> (alpha, a) of ``sources`` and ``targets``; ``nodes[k]``
    is numbered k when a relation first names it.  ``label[k]``
    names node k's class by one of its nodes.  Both ends' labels are read
    at C speed, each after every earlier merge, so just the edges that join
    two classes reach Python, and each relabels the smaller class: N nodes
    take at most N log N relabels.  A class is faulty iff it has fewer than
    |C|^2 edges or two nodes at one index (a lone node has its self-loop);
    every law holds inside the other classes, so the system is lawful iff
    none is faulty, and then the classes are the carrier points of a
    generating atlas.  Edges leaving faulty classes, if any, reach Python again.
    """
    fresh = count().__next__
    number = defaultdict(lambda: defaultdict(fresh))
    sources, targets = [], []
    state = vars(system)  # an ``_of`` system's columns, until its relations are built
    unzipped = ((a, b, *zip(*rel.pairs)) for (a, b), rel in state.get("relations", {}).items())
    for alpha, beta, firsts, seconds in unzipped if "relations" in state else state["_columns"]:
        sources += map(number[beta].__getitem__, firsts)
        targets += map(number[alpha].__getitem__, seconds)
    nodes = [None] * fresh()
    for index, column in number.items():
        for element, k in column.items():
            nodes[k] = (index, element)
    label = list(range(len(nodes)))
    merged = {}  # class label -> its node numbers, for classes of two or more
    joins = map(ne, map(label.__getitem__, sources), map(label.__getitem__, targets))
    for u, v in compress(zip(sources, targets), joins):  # labels read when pulled
        keep, drop = label[u], label[v]
        kept, dropped = merged.pop(keep, [keep]), merged.pop(drop, [drop])
        if len(kept) < len(dropped):
            keep, kept, dropped = drop, dropped, kept
        for k in dropped:
            label[k] = keep
        kept += dropped
        merged[keep] = kept

    tops = list(map(label.__getitem__, sources))
    edges = Counter(tops)
    classes = {top: list(map(nodes.__getitem__, c)) for top, c in merged.items()}
    faulty = {t: c for t, c in classes.items() if edges[t] < len(c) ** 2 or len(dict(c)) < len(c)}
    successors = {node: set() for c in faulty.values() for node in c}
    if faulty:
        for u, v in compress(zip(sources, targets), map(faulty.__contains__, tops)):
            successors[nodes[u]].add(nodes[v])
    singles = zip(map(nodes.__getitem__, set(label).difference(merged)))
    return [*classes.values(), *singles], list(faulty.values()), successors


def _violations(successors, laws) -> list:
    """The reports of ``laws`` read off ``_quotient``'s faulty successors."""
    transitivity, symmetry, identity = (law in laws for law in ALL_LAWS)
    reports = set()  # a transitivity report recurs for each middle element
    for u, targets in successors.items():
        for v in targets:
            if identity and u[0] == v[0] and u != v:
                reports.add(ViolationReport(Law.IDENTITY, (u[0],), (u[1], v[1])))
            if symmetry and u not in successors[v]:
                reports.add(ViolationReport(Law.SYMMETRY, (v[0], u[0]), (v[1], u[1])))
            for w in successors[v] - targets if transitivity else ():
                reports.add(ViolationReport(Law.TRANSITIVITY, (w[0], v[0], u[0]), (u[1], w[1])))
    return sorted(reports, key=ViolationReport.sort_key)


def check_sincov(system: SincovSystem, laws=None) -> list:
    """All law violations, one report per (law, indices, witness pair).

    They are read off the edges u -> v of ``_quotient``'s faulty classes:
    identity fails at an edge within one index, symmetry at an edge without
    its reverse, transitivity at a path u -> v -> w without the edge u -> w.
    The list is sorted by the reports' canonical serialization, so it is
    deterministic.  An empty list means the system solves the inequalities.
    ``laws`` (default all) is an iterable of ``Law`` members or their names;
    an unknown name, or a bare string, raises ValueError.
    """
    selected = set(ALL_LAWS if laws is None else map(Law, laws))
    return _violations(_quotient(system)[2], selected)


def _lawful_classes(system: SincovSystem) -> list:
    """The solvers' guard: raises PreconditionViolated with every report."""
    classes, faulty, successors = _quotient(system)
    if faulty:
        raise PreconditionViolated(_violations(successors, ALL_LAWS))
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
    classes = _lawful_classes(system)
    return _charts(system, ("cls:{}:{}".format(*min(members)) for members in classes), classes)


def _charts(system, points, classes) -> Atlas:
    """Chart alpha holds (point, element) per class node (alpha, element)."""
    from .atlas import Atlas
    from .relations import Relation

    charts = {index: set() for index in sorted(system.indices)}
    for point, members in zip(points, classes):
        for index, element in members:
            charts[index].add((point, element))
    return Atlas({index: Relation(pairs) for index, pairs in charts.items()})


def reconstruct(atlas: Atlas) -> SincovSystem:
    """The transition-relation system generated by an atlas.

    Phi[alpha, beta] = chart_alpha o chart_beta^-1, each non-empty one
    read off the charts by ``atlas._rows`` as (b, a) 1-tuple sums.  The
    result always passes ``check_sincov``.  Raises InvalidAtlas naming the
    first chart that is not a partial bijection (its ``violations`` lists
    them all).
    """
    from .atlas import _raise_invalid, _rows, validate_atlas

    violations = validate_atlas(atlas)
    if violations:
        _raise_invalid(violations)

    def single(x):
        return (x,)

    # Exact pairs already, as a read document's are: they come off normalized charts.
    return SincovSystem._of(atlas.charts.keys(), _rows(atlas, single, single))


def solve_via_fixed_index(system: SincovSystem, gamma) -> Atlas:
    """Group-case solver: charts are the system's own column at ``gamma``.

    Needs every transitivity containment to hold with equality (the
    symmetry containments are then equalities automatically, both
    directions being checked).  Under that hypothesis chart_alpha =
    Phi[alpha, gamma] reconstructs the system exactly: a ``_quotient``
    class's (element at gamma, element at alpha), over the classes.

    On a lawful system Phi[a,b] o Phi[b,c] is strictly below Phi[a,c] iff
    some ``_quotient`` class meets a and c but misses b, so equality holds
    iff every class meets every index.  The first strict triple in index
    order is then (a, b, a): a is the least index of any class missing an
    index, and b the least index met by fewer than all classes containing a.

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
        meets = Counter(chain.from_iterable(met for met in partial if alpha in met))
        beta = min(index for index in system.indices if meets[index] < meets[alpha])
        raise EqualityCaseViolated((alpha, beta, alpha))

    return _charts(system, (dict(c)[gamma] for c in classes), classes)
