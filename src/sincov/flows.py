"""Exactly-solvable flows over rationals, for generating transition systems.

Each flow kind is a closed-form solution map F(tau, alpha, a): the value at
time tau of the solution passing through (alpha, a), with a decidable
domain predicate.  Everything is exact `fractions.Fraction` arithmetic; no
law-checked path touches floating point, because a single rounding error
falsifies a set containment.

Kinds:

* translation  F = a + (tau - alpha), total (solves x' = 1).
* blowup       F = a / (1 - a*(tau - alpha)), defined iff
               1 - a*(tau - alpha) > 0 (solves x' = x^2 on its maximal
               interval; the single inequality covers a of any sign:
               positive a escapes forward, negative a backward, zero never).
* doubling     F = 2^(tau - alpha) * a with integer times, total.
* permutation  F = g^(tau - alpha)(a) with integer times, g a finite
               bijection table, total on g's carrier.

An exponential flow (x' = x) is deliberately absent: its flow map is
irrational on rational grids; ``doubling`` plays the analogous total,
invertible role in the discrete setting.

``build_system`` samples whole trajectories on a time grid, never single
applications of F.  Each trajectory is one carrier point, whose element in
the chart at grid time t is its value there.  That trajectory atlas is
valid (seeds on one trajectory merge into one point), and ``build_system``
is ``reconstruct`` of it: it satisfies all three transition-relation laws
exactly, with partiality (from blow-up) appearing as genuinely strict
containments.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from .atlas import Atlas
from .errors import DomainExceeded, KindMismatch
from .relations import Relation


class FlowKind(enum.Enum):
    TRANSLATION = "translation"
    BLOWUP = "blowup"
    DOUBLING = "doubling"
    PERMUTATION = "permutation"


CONTINUOUS_KINDS = frozenset({FlowKind.TRANSLATION, FlowKind.BLOWUP})
DISCRETE_KINDS = frozenset({FlowKind.DOUBLING, FlowKind.PERMUTATION})


class FlowSpec(namedtuple("FlowSpec", "kind permutation", defaults=(None,))):
    """A flow kind and, for the permutation kind only, the sorted (element,
    image) items of its table.  A named tuple: immutable, compared and
    hashed by its fields, and a tuple."""

    __slots__ = ()

    @classmethod
    def translation(cls):
        return cls(FlowKind.TRANSLATION)

    @classmethod
    def blowup(cls):
        return cls(FlowKind.BLOWUP)

    @classmethod
    def doubling(cls):
        return cls(FlowKind.DOUBLING)

    @classmethod
    def of_permutation(cls, mapping):
        table = {str(k): str(v) for k, v in dict(mapping).items()}
        if set(table) != set(table.values()):
            raise ValueError("permutation table must be a bijection of its carrier")
        return cls(FlowKind.PERMUTATION, tuple(sorted(table.items())))

    @property
    def mapping(self) -> dict:
        return dict(self.permutation or ())


class Seed(namedtuple("Seed", "time value")):
    """A Cauchy datum: the trajectory through ``value`` (a Fraction, or a
    carrier label for permutation) at time ``time``.  A named tuple:
    immutable, compared and hashed by its fields, and a tuple."""

    __slots__ = ()


def _require_integer_times(*times):
    for t in times:
        if t.denominator != 1:
            raise KindMismatch(f"discrete flow needs integer times, got {t}")


def _trajectory(spec: FlowSpec, times, alpha, a, mapping) -> list:
    """F(tau, alpha, a) at every tau of ``times`` (None where undefined),
    converting and checking each input once, in the order tau, alpha, a, and
    walking a permutation orbit once in ``mapping``, the caller's read of
    ``spec.mapping``."""
    times, alpha = [Fraction(tau) for tau in times], Fraction(alpha)
    if spec.kind in DISCRETE_KINDS:
        _require_integer_times(*times, alpha)

    if spec.kind is FlowKind.PERMUTATION:
        a = str(a)
        if a not in mapping:
            return [None] * len(times)
        orbit, current = [a], mapping[a]
        while current != a:
            orbit.append(current)
            current = mapping[current]
        return [orbit[int(tau - alpha) % len(orbit)] for tau in times]

    a = Fraction(a)
    if spec.kind is FlowKind.TRANSLATION:
        return [a + (tau - alpha) for tau in times]
    if spec.kind is FlowKind.BLOWUP:
        return [a / d if (d := 1 - a * (tau - alpha)) > 0 else None for tau in times]
    return [a * Fraction(2) ** int(tau - alpha) for tau in times]


def flow_eval(spec: FlowSpec, tau, alpha, a):
    """F(tau, alpha, a), or None when outside the flow's domain."""
    return _trajectory(spec, (tau,), alpha, a, spec.mapping)[0]


def _trajectory_atlas(spec: FlowSpec, time_grid, seeds) -> Atlas:
    """The seeds' trajectory atlas on a grid: a chart per grid time, and a
    carrier point per trajectory, sent to its value wherever it is defined.

    Seeds on a common trajectory give one value tuple, which is kept once.
    Two trajectories that share a value at one grid time are one solution,
    so they agree at every grid time; the charts are therefore partial
    bijections, and the atlas is valid.
    """
    grid = sorted({Fraction(t) for t in time_grid})
    if spec.kind in DISCRETE_KINDS:
        _require_integer_times(*grid)
    grid_set = set(grid)
    mapping = spec.mapping  # a copy of the table: read once for every seed

    for seed in seeds:
        if Fraction(seed.time) not in grid_set:
            raise ValueError(f"seed time {seed.time} is not on the time grid")
        if spec.kind is FlowKind.PERMUTATION and str(seed.value) not in mapping:
            raise ValueError(f"seed value {seed.value!r} is not in the permutation carrier")

    # Values by grid position, None where undefined.  The charts stringify
    # each value once; str is injective on reduced fractions, so nothing
    # merges that Fraction equality keeps apart.
    trajectories = dict.fromkeys(tuple(_trajectory(spec, grid, *seed, mapping)) for seed in seeds)
    return Atlas(
        {
            t: Relation((z, traj[i]) for z, traj in enumerate(trajectories) if traj[i] is not None)
            for i, t in enumerate(grid)
        }
    )


def build_system(spec: FlowSpec, time_grid, seeds) -> SincovSystem:
    """The system that the seeds' trajectory atlas generates on a grid:
    ``reconstruct`` of ``_trajectory_atlas``.

    Indices are the grid times; each trajectory is a carrier point, in the
    chart at time t wherever it is defined there, with its value at t.  Seeds
    on a common trajectory merge; trajectories cut short by blow-up leave
    the corresponding entries strictly partial.  The output always passes
    ``check_sincov``.
    """
    from .systems import reconstruct

    return reconstruct(_trajectory_atlas(spec, time_grid, seeds))


def vector_field_residual(spec: FlowSpec, tau, x, h) -> Fraction:
    """Gap between the forward difference quotient of F and the flow's
    right-hand side at (tau, x), exactly.

    |(F(tau+h, tau, x) - x)/h - f(tau, x)| with f = 1 for translation and
    f = x^2 for blowup.  Shrinks linearly in h for blowup (the suite checks
    the exact bound |x|^3 |h| / (1 - |x h|)) and is identically zero for
    translation.
    """
    if spec.kind not in CONTINUOUS_KINDS:
        raise KindMismatch("difference-quotient residuals need a continuous flow kind")
    tau, x, h = Fraction(tau), Fraction(x), Fraction(h)
    if h == 0:
        raise ValueError("step h must be nonzero")

    stepped = flow_eval(spec, tau + h, tau, x)
    if stepped is None:
        raise DomainExceeded(f"flow undefined at time {tau + h} from ({tau}, {x})")

    field = Fraction(1) if spec.kind is FlowKind.TRANSLATION else x * x
    return abs((stepped - x) / h - field)
