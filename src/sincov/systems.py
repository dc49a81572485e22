"""Indexed families of transition relations and their solvers.

A system assigns to every ordered index pair (alpha, beta) a finite
relation Phi[alpha, beta]; missing entries are empty.  The three laws
under test are the Sincov-type inequalities

    transitivity:  Phi[a,b] o Phi[b,c]  is contained in  Phi[a,c]
    symmetry:      Phi[a,b]^-1          is contained in  Phi[b,a]
    identity:      Phi[a,a]             is contained in  the identity

A system obeys them iff an atlas of partial bijections generates it.
``_quotient`` is the one mechanism behind that: the union-find classes of
the nodes (index, element) plus a certificate that they generate the
system.  ``check_sincov``, ``solve_atlas`` (one carrier point per class)
and ``solve_via_fixed_index`` (the group case, where all containments are
equalities) all rest on it; ``reconstruct`` is the inverse direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .atlas import Atlas, _raise_invalid, validate_atlas
from .errors import (
    EqualityCaseViolated,
    PreconditionViolated,
    UnknownIndex,
)
from .relations import EMPTY, Relation, ident


class Law(enum.Enum):
    TRANSITIVITY = "transitivity"
    SYMMETRY = "symmetry"
    IDENTITY = "identity"


ALL_LAWS = (Law.TRANSITIVITY, Law.SYMMETRY, Law.IDENTITY)


@dataclass(frozen=True)
class ViolationReport:
    """One failing containment: the law, the indices instantiating it, and a
    pair belonging to the left side but not the right."""

    law: Law
    indices: tuple
    pair: tuple

    def sort_key(self):
        return (self.law.value, self.indices, self.pair)


class SincovSystem:
    """Finite index set plus a normalized map (alpha, beta) -> Relation.

    Empty relations are never stored, so equality of systems is equality of
    index sets plus entry-wise set equality of the non-empty relations.
    """

    def __init__(self, indices, relations=None):
        self.indices = frozenset(ident(i) for i in indices)
        normalized = {}
        for key, rel in dict(relations or {}).items():
            alpha, beta = key
            alpha, beta = ident(alpha), ident(beta)
            for index in (alpha, beta):
                if index not in self.indices:
                    raise UnknownIndex(index)
            if rel.pairs:
                normalized[(alpha, beta)] = rel
        self.relations = normalized

    def get(self, alpha, beta) -> Relation:
        return self.relations.get((ident(alpha), ident(beta)), EMPTY)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SincovSystem)
            and self.indices == other.indices
            and self.relations == other.relations
        )

    def __repr__(self) -> str:
        return f"SincovSystem(indices={sorted(self.indices)}, relations={self.relations!r})"


def _quotient(system: SincovSystem):
    """Union-find classes of the nodes (index, element), and the laws' verdict.

    A pair (b, a) in Phi[alpha, beta] is the ordered node pair ((alpha, a),
    (beta, b)) inside one class, so P <= sum |C|^2, with equality iff every
    class's full square is present.  The system is lawful iff that holds and
    no class has two nodes at one index (the identity law).
    """
    parent = {}

    def find(node):
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = parent[node]
        return node

    for (alpha, beta), rel in system.relations.items():
        for b, a in rel.pairs:
            parent[find((alpha, a))] = find((beta, b))

    classes = {}
    for node in parent:
        classes.setdefault(find(node), []).append(node)
    classes = list(classes.values())
    pair_count = sum(len(rel.pairs) for rel in system.relations.values())
    lawful = sum(len(c) ** 2 for c in classes) == pair_count and all(
        len({index for index, _ in c}) == len(c) for c in classes
    )
    return classes, lawful


def check_sincov(system: SincovSystem, laws=None) -> list:
    """All law violations, one report per (law, indices, witness pair).

    A system that ``_quotient`` certifies lawful has none under any
    ``laws``; only unlawful input runs the definitional loops that list
    them.  The list is sorted by the reports' canonical serialization, so
    it is deterministic.  An empty list means the system solves the
    inequalities.
    """
    if _quotient(system)[1]:
        return []
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
    classes, lawful = _quotient(system)
    if not lawful:
        raise PreconditionViolated(check_sincov(system))

    charts = {index: set() for index in system.indices}
    for members in classes:
        least = min(members)
        class_id = f"cls:{least[0]}:{least[1]}"
        for index, element in members:
            charts[index].add((class_id, element))

    return Atlas({index: Relation(pairs) for index, pairs in charts.items()})


def reconstruct(atlas: Atlas) -> SincovSystem:
    """The transition-relation system generated by an atlas.

    Phi[alpha, beta] = chart_alpha o chart_beta^-1 for every index pair;
    the result always passes ``check_sincov``.  Raises InvalidAtlas naming
    the first chart that is not a partial bijection.
    """
    violations = validate_atlas(atlas)
    if violations:
        _raise_invalid(violations)

    relations = {}
    for alpha, chart_a in atlas.charts.items():
        for beta, chart_b in atlas.charts.items():
            rel = chart_a.compose(chart_b.inverse())
            if rel.pairs:
                relations[(alpha, beta)] = rel
    return SincovSystem(atlas.charts.keys(), relations)


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
    gamma = ident(gamma)
    if gamma not in system.indices:
        raise UnknownIndex(gamma)

    classes, lawful = _quotient(system)
    if not lawful:
        raise PreconditionViolated(check_sincov(system))

    partial = [{index for index, _ in c} for c in classes if len(c) < len(system.indices)]
    if partial:
        alpha = min(min(met) for met in partial)
        beta = min(min(system.indices - met) for met in partial if alpha in met)
        raise EqualityCaseViolated((alpha, beta, alpha))

    return Atlas({alpha: system.get(alpha, gamma) for alpha in system.indices})
