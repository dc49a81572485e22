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
"""

from .atlas import (
    Atlas,
    ChartViolation,
    Isomorphism,
    carrier,
    check_at_axioms,
    find_isomorphism,
    transition,
    validate_atlas,
    verify_isomorphism,
)
from .errors import (
    CoinjectivityViolated,
    DomainExceeded,
    EqualityCaseViolated,
    FormatError,
    IndexMismatch,
    InvalidAtlas,
    KindMismatch,
    NotIsomorphic,
    PreconditionViolated,
    SincovError,
    UnknownIndex,
)
from .flows import (
    FlowKind,
    FlowSpec,
    Seed,
    build_system,
    flow_eval,
    vector_field_residual,
)
from .relations import EMPTY, Relation
from .systems import (
    ALL_LAWS,
    Law,
    SincovSystem,
    ViolationReport,
    check_sincov,
    reconstruct,
    solve_atlas,
    solve_via_fixed_index,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_LAWS",
    "Atlas",
    "ChartViolation",
    "CoinjectivityViolated",
    "DomainExceeded",
    "EMPTY",
    "EqualityCaseViolated",
    "FlowKind",
    "FlowSpec",
    "FormatError",
    "IndexMismatch",
    "InvalidAtlas",
    "Isomorphism",
    "KindMismatch",
    "Law",
    "NotIsomorphic",
    "PreconditionViolated",
    "Relation",
    "Seed",
    "SincovError",
    "SincovSystem",
    "UnknownIndex",
    "ViolationReport",
    "build_system",
    "carrier",
    "check_at_axioms",
    "check_sincov",
    "find_isomorphism",
    "flow_eval",
    "reconstruct",
    "solve_atlas",
    "solve_via_fixed_index",
    "transition",
    "validate_atlas",
    "vector_field_residual",
    "verify_isomorphism",
]
