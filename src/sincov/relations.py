"""Exact algebra of finite binary relations.

A relation is a finite set of ordered pairs of opaque string identifiers,
with strict set semantics: no duplicates, no iteration-order effects, and
equality decided by byte-identical serialized identifiers.  The pair
convention is (input, output): when a relation encodes a partial map,
``(b, a)`` reads "b is sent to a".  Composition therefore matches map
composition: ``rho.compose(sigma)`` applies ``sigma`` first, then ``rho``.

The two predicates at the heart of the package:

* injective -- ``(b1, a)`` and ``(b2, a)`` force ``b1 == b2``;
* co-injective -- the inverse is injective, i.e. first components are
  unique, so the relation is a partial map.

A relation that is both is a partial bijection.  These are closed under
composition and inverse, which the test suite exercises as a law.

The ``Relation``, ``SincovSystem`` and ``Atlas`` constructors, and
``system_from_obj`` for its ids, normalize identifiers: they pass every
element, index and carrier point through ``str``, so callers need not
convert first.  ``str`` returns an exact string unchanged, and any other
value ``x`` is stored as ``str(x)``.  For a ``str`` subclass that keeps
``str.__str__`` that is the plain string of the same value and hash; a
subclass that overrides ``__str__`` is stored as that text, so a
``(str, Enum)`` member ``K.A`` with value ``"a"`` becomes ``"K.A"``, not
``"a"``.  Pass ``K.A.value`` to key by the value.

Internal sites that hold exact pairs already skip that pass through the
private ``Relation._of``: jsonio's atlas reader, once C-level checks have
found two-element lists of exact ``str`` (all JSON parses to), and
``SincovSystem.relations`` of a system built by ``SincovSystem._of``.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import CoinjectivityViolated


class Relation:
    """An immutable finite set of ordered identifier pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        self.pairs = frozenset((str(b), str(a)) for b, a in pairs)

    @classmethod
    def _of(cls, pairs: frozenset) -> "Relation":
        """``pairs``, a frozenset of exact (str, str) tuples, stored as given."""
        rel = cls.__new__(cls)
        rel.pairs = pairs
        return rel

    @classmethod
    def identity_on(cls, elements) -> "Relation":
        return cls((x, x) for x in elements)

    def compose(self, other: "Relation") -> "Relation":
        """self o other: all (a, b) with (c, b) in self and (a, c) in other."""
        by_first = {}
        for c, b in self.pairs:
            by_first.setdefault(c, []).append(b)
        out = set()
        for a, c in other.pairs:
            for b in by_first.get(c, ()):
                out.add((a, b))
        return Relation(out)

    def inverse(self) -> "Relation":
        return Relation((a, b) for b, a in self.pairs)

    @property
    def domain(self) -> set:
        return {b for b, _ in self.pairs}

    @property
    def range(self) -> set:
        return {a for _, a in self.pairs}

    def is_injective(self) -> bool:
        return len(set(map(itemgetter(1), self.pairs))) == len(self.pairs)

    def is_coinjective(self) -> bool:
        return len(set(map(itemgetter(0), self.pairs))) == len(self.pairs)

    def is_subrelation(self, other: "Relation") -> bool:
        return self.pairs <= other.pairs

    def apply(self, b):
        """Value of the relation-as-map at ``b``; None outside the domain.

        Only co-injective relations are maps; calling this on anything else
        raises CoinjectivityViolated to flag the misuse.
        """
        if not self.is_coinjective():
            raise CoinjectivityViolated(
                "apply() needs unique first components; relation has duplicates"
            )
        b = str(b)
        for first, second in self.pairs:
            if first == b:
                return second
        return None

    def __contains__(self, pair) -> bool:
        b, a = pair
        return (str(b), str(a)) in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __le__(self, other: "Relation") -> bool:
        return self.is_subrelation(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Relation) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Relation({sorted(self.pairs)})"


EMPTY = Relation()
