"""Atlases of partial bijections and the operations on them.

An atlas assigns to every index a chart: an injective co-injective relation
from carrier points (quotient-class ids) to element ids.  An atlas generates
a family of transition relations ``Phi[alpha, beta] = chart_alpha o
chart_beta^-1``; two atlases generating the same family differ exactly by a
carrier bijection, which ``find_isomorphism`` computes and
``verify_isomorphism`` checks.

A whole transition family is read off the charts of a valid atlas by one
reader, ``_rows``, which visits only the chart pairs that share a point.
``systems.reconstruct`` hands its rows to ``SincovSystem._of`` as columns,
and ``jsonio._generated_text`` makes the wire text that ``sincov reconstruct``
and ``sincov flow-gen`` write without building a system.  ``transition``
reads one pair of charts of any atlas.

``check_at_axioms`` verifies the set-level fragment of the classical atlas
axioms: carrier coverage, chart bijectivity, and transition injectivity and
co-injectivity (coverage, domain and range hold by definition).  By closure,
only transitions touching a bad chart can fail at3, and they are read off the
bad charts' points.  Differentiability and openness have no finite-data
counterpart and are deliberately not claimed; the report is "set-level" only.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import compress
from operator import add, itemgetter

from .errors import IndexMismatch, InvalidAtlas, NotIsomorphic, UnknownIndex
from .relations import EMPTY, Relation


class Atlas:
    """Charts keyed by index id.  Empty charts are kept: an index with no
    carrier support still participates in reconstruction."""

    def __init__(self, charts):
        self.charts = {str(i): rel for i, rel in dict(charts).items()}

    @property
    def indices(self) -> frozenset:
        return frozenset(self.charts)

    def chart(self, alpha) -> Relation:
        alpha = str(alpha)
        if alpha not in self.charts:
            raise UnknownIndex(alpha)
        return self.charts[alpha]

    def __eq__(self, other) -> bool:
        return isinstance(other, Atlas) and self.charts == other.charts

    def __repr__(self) -> str:
        return f"Atlas({self.charts!r})"


class Isomorphism(namedtuple("Isomorphism", "omega")):
    """A carrier bijection omega with chart2.compose(omega) == chart1 for
    every index (atlas 1's charts factor through atlas 2's).  A named tuple:
    immutable, compared and hashed by its field, and a tuple."""

    __slots__ = ()


class ChartViolation(namedtuple("ChartViolation", "index predicate pair")):
    """A chart that is not a partial bijection: its index, the failed
    predicate ("injectivity" | "co-injectivity") and the least conflicting
    pair.  A named tuple: immutable, compared and hashed by its fields, and
    a tuple whose ``index`` field shadows ``tuple.index``."""

    __slots__ = ()


def chart_violation_to_obj(violation) -> dict:
    """Wire format of a ChartViolation, or of the InvalidAtlas naming one."""
    return {
        "index": violation.index,
        "predicate": violation.predicate,
        "pair": list(violation.pair),
    }


def _least_conflicting_pair(rel: Relation, component: int) -> tuple:
    # Smallest pair whose component another pair shares; deterministic.
    counts = Counter(map(itemgetter(component), rel.pairs))
    return min(pair for pair in rel.pairs if counts[pair[component]] > 1)


def validate_atlas(atlas: Atlas) -> list:
    """Chart-level violations, empty iff every chart is a partial bijection."""
    out = []
    for alpha in sorted(atlas.charts):
        rel = atlas.charts[alpha]
        if not rel.is_injective():
            out.append(ChartViolation(alpha, "injectivity", _least_conflicting_pair(rel, 1)))
        if not rel.is_coinjective():
            out.append(ChartViolation(alpha, "co-injectivity", _least_conflicting_pair(rel, 0)))
    return out


def carrier(atlas: Atlas) -> set:
    """Union of the chart domains: the set the atlas lives on."""
    points = set()
    for rel in atlas.charts.values():
        points |= rel.domain
    return points


def transition(atlas: Atlas, alpha, beta) -> Relation:
    """chart_alpha o chart_beta^-1; a partial bijection for valid atlases."""
    return atlas.chart(alpha).compose(atlas.chart(beta).inverse())


def _rows(atlas: Atlas, head, tail):
    """Every non-empty transition of a valid atlas (every chart a partial
    bijection), as (alpha, beta, items): for each point that chart beta
    sends to b and chart alpha to a, in b's element order, the item
    head(b) + tail(a).  Tails must be truthy.  The alphas come in the
    charts' order, each with its betas in sorted order.

    The carrier points are numbered once, and each chart's heads and tails
    are made once.  One buffer, indexed by point number, holds chart
    alpha's tails while its row is read.  Its last slot stays None, so
    ``itemgetter(*numbers, -1)`` over chart beta's point numbers always
    returns a tuple, and ``compress`` and ``filter`` keep the points both
    charts hold, at C speed.  Only the charts that hold one of alpha's
    points are visited (each point lists the charts holding it), so finding
    them costs the pair count P in all, and reading a row costs |chart beta|.
    """
    numbers, holders = {}, {}  # by point: its number; by number: the charts holding it
    rows = []  # (alpha, its point numbers, its tails), by element
    columns = {}  # beta -> (a picker of its points' buffer slots, its heads), by element
    for index, chart in atlas.charts.items():
        if chart.pairs:
            points, elements = zip(*sorted(chart.pairs, key=itemgetter(1)))
            at = [numbers.setdefault(z, len(numbers)) for z in points]
            for number in at:
                holders.setdefault(number, []).append(index)
            rows.append((index, at, list(map(tail, elements))))
            columns[index] = (itemgetter(*at, -1), list(map(head, elements)))
    buffer = [None] * (len(numbers) + 1)
    for alpha, at, tails in rows:
        for number, item in zip(at, tails):
            buffer[number] = item
        for beta in sorted(set().union(*map(holders.__getitem__, at))):
            pick, heads = columns[beta]
            picked = pick(buffer)
            yield alpha, beta, map(add, compress(heads, picked), filter(None, picked))
        for number in at:
            buffer[number] = None


def _require_valid(atlas: Atlas) -> None:
    """Raise InvalidAtlas naming the first chart that is not a partial
    bijection; its ``violations`` lists every one."""
    violations = validate_atlas(atlas)
    if violations:
        exc = InvalidAtlas(*violations[0])  # (index, predicate, pair)
        exc.violations = violations
        raise exc


def _match_charts(src: Atlas, dst: Atlas, present_in: int, missing_reason: str) -> dict:
    """Carrier map src -> dst forced by matching chart values.

    For every chart pair (z, a) of src, z must go to the unique dst carrier
    point that the same chart sends to a.  Charts are read in index order
    and their pairs in sorted order.  The first value a that dst's chart
    lacks raises ``missing_reason``; the first point forced two ways proves
    the transition relations differ, and the raised witness pair is a
    member of src's transition relation that dst cannot realize.
    """
    assignment = {}  # z -> (zbar, chart index, element) that forced it
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
                # (a, prev element) sits in src's transition relation from
                # prev chart to this one, via the shared carrier point z.
                raise NotIsomorphic("conflict", (prev[1], alpha), (a, prev[2]), present_in)
    return {z: forced[0] for z, forced in assignment.items()}


def find_isomorphism(a1: Atlas, a2: Atlas) -> Isomorphism:
    """The carrier bijection omega with chart2.compose(omega) == chart1.

    Exists iff the two atlases generate identical transition relations.
    Raises IndexMismatch for different index sets, InvalidAtlas for charts
    that are not partial bijections, and NotIsomorphic (with a checkable
    witness) when no such omega exists.
    """
    if a1.indices != a2.indices:
        raise IndexMismatch(a1.indices - a2.indices, a2.indices - a1.indices)
    _require_valid(a1)
    _require_valid(a2)
    forward = _match_charts(a1, a2, present_in=1, missing_reason="missing_counterpart")
    # The reverse pass certifies bijectivity: it surfaces carrier points of
    # a2 with no counterpart (coverage) and two-to-one collapses (conflict).
    # It cannot fail when the forward map is injective and every chart of
    # a1 is as large as its a2 counterpart: the images (omega(z), a) of a
    # chart's pairs are then distinct and fill the a2 chart.
    if len(set(forward.values())) < len(forward) or any(
        len(chart.pairs) != len(a2.charts[alpha].pairs) for alpha, chart in a1.charts.items()
    ):
        _match_charts(a2, a1, present_in=2, missing_reason="coverage")
    return Isomorphism(Relation(forward.items()))


def verify_isomorphism(a1: Atlas, a2: Atlas, iso: Isomorphism) -> bool:
    """True iff omega is a carrier bijection and every chart factors through it."""
    omega = iso.omega
    if not (omega.is_injective() and omega.is_coinjective()):
        return False
    if omega.domain != carrier(a1) or omega.range != carrier(a2):
        return False
    for alpha in sorted(a1.indices | a2.indices):
        c1 = a1.charts.get(alpha, EMPTY)
        c2 = a2.charts.get(alpha, EMPTY)
        if c2.compose(omega) != c1:
            return False
    return True


def check_at_axioms(atlas: Atlas) -> dict:
    """Set-level atlas axiom report.

    at1: every carrier point lies in some chart domain.  The carrier is the
         union of the chart domains, so at1 holds for every atlas and is
         reported as passing with no witnesses.
    at2: every chart is a bijection of its domain onto its image.
    at3: every transition is injective and co-injective (its domain and range
         are the charts' images of the shared domain by definition).  Only
         transitions touching a chart at2 names can fail (by closure): each
         bad holder of a point, paired both ways with every holder, gives
         one of their pairs.

    Failures are reported, never raised.
    """
    charts = atlas.charts
    violations = validate_atlas(atlas)
    chart_violations = [chart_violation_to_obj(v) for v in violations]

    bad = {v.index for v in violations}
    held = {z: [] for alpha in bad for z, _ in charts[alpha].pairs}  # point -> (chart, element)s
    for index, chart in charts.items() if held else ():
        for z, a in chart.pairs:
            if z in held:
                held[z].append((index, a))
    rows = defaultdict(set)  # (alpha, beta) -> Phi[alpha, beta]'s pairs, if it touches a bad chart
    for holding in held.values():
        for alpha, a in holding:
            for beta, b in holding if alpha in bad else ():
                rows[alpha, beta].add((b, a))
                rows[beta, alpha].add((a, b))
    transition_failures = []
    for (alpha, beta), pairs in sorted(rows.items()):
        t = Relation._of(frozenset(pairs))
        checks = (("injectivity", t.is_injective()), ("co-injectivity", t.is_coinjective()))
        failed = [predicate for predicate, holds in checks if not holds]
        if failed:
            transition_failures.append({"alpha": alpha, "beta": beta, "failed": failed})

    return {
        "at1": {"pass": True, "witnesses": []},
        "at2": {"pass": not chart_violations, "witnesses": chart_violations},
        "at3": {"pass": not transition_failures, "witnesses": transition_failures},
    }
