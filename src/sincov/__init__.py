"""Exact solver and verifier for Sincov-type systems of transition relations.

The package turns three containment laws over an indexed family of finite
binary relations -- transitivity, symmetry, and identity containment --
into executable algebra:

* :mod:`sincov.relations` -- finite relations with composition, inverse,
  and the injectivity / co-injectivity predicates.
* :mod:`sincov.systems` -- indexed systems, the law checker, the atlas
  solver by a class-label quotient, exact reconstruction, and the
  group-case fixed-index solver.
* :mod:`sincov.atlas` -- atlas validation, transition relations, carrier
  isomorphisms, and set-level atlas axioms.
* :mod:`sincov.flows` -- exactly-solvable rational flows that generate
  law-abiding systems, with difference-quotient residuals.
* :mod:`sincov.jsonio` / :mod:`sincov.cli` -- canonical JSON wire formats
  and the command-line front end.

``import sincov`` loads no submodule.  Every name in ``__all__`` and every
submodule loads on first use (PEP 562), and ``atlas`` and ``relations``
only where an atlas or a ``Relation`` is made: a system read from a
document makes its ``Relation``s when ``relations`` is first read, and
both solvers read their charts off the quotient's classes.  So ``check``,
and ``solve`` on unlawful input, load ``cli``, ``jsonio``, ``systems`` and
``errors``; a lawful ``solve`` adds ``atlas`` and ``relations``;
``reconstruct``, ``axioms`` and ``iso`` load no ``systems``, ``flows`` or
``fractions``; ``flow-gen`` no ``systems``.  ``from sincov import *`` and
``dir(sincov)`` still see every public name.
"""

from importlib import import_module

__version__ = "0.1.0"

# The submodule that defines each public name.
_HOMES = {
    "atlas": (
        "Atlas",
        "ChartViolation",
        "Isomorphism",
        "carrier",
        "check_at_axioms",
        "find_isomorphism",
        "transition",
        "validate_atlas",
        "verify_isomorphism",
    ),
    "errors": (
        "CoinjectivityViolated",
        "DomainExceeded",
        "EqualityCaseViolated",
        "FormatError",
        "IndexMismatch",
        "InvalidAtlas",
        "KindMismatch",
        "NotIsomorphic",
        "PreconditionViolated",
        "SincovError",
        "UnknownIndex",
    ),
    "flows": ("FlowKind", "FlowSpec", "Seed", "build_system", "flow_eval", "vector_field_residual"),
    "relations": ("EMPTY", "Relation"),
    "systems": (
        "ALL_LAWS",
        "Law",
        "SincovSystem",
        "ViolationReport",
        "check_sincov",
        "reconstruct",
        "solve_atlas",
        "solve_via_fixed_index",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)
_SUBMODULES = frozenset(_HOMES) | {"cli", "jsonio"}


def __getattr__(name):
    """A public name or a submodule, imported on its first read; a public
    name is then bound here, so later reads skip this hook."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
