"""Exception types shared across the package."""


class SincovError(Exception):
    """Base class for every error raised by this library."""


class FormatError(SincovError):
    """A JSON document does not match the documented wire format."""


class CoinjectivityViolated(SincovError):
    """A relation was applied as a map although its first components repeat."""


class UnknownIndex(SincovError):
    def __init__(self, index):
        super().__init__(f"unknown index: {index!r}")
        self.index = index


class PreconditionViolated(SincovError):
    """A solver was handed a system that breaks the transition-relation laws.

    Built from the violation reports in canonical order: ``reports`` holds
    them all, ``report`` the first, which the message names.
    """

    def __init__(self, reports):
        report = reports[0]
        super().__init__(
            f"system violates {report.law.value} at indices {report.indices} "
            f"with pair {report.pair}"
        )
        self.report = report
        self.reports = list(reports)


class InvalidAtlas(SincovError):
    """An atlas chart is not a partial bijection."""

    def __init__(self, index, predicate, pair):
        super().__init__(f"chart {index!r} fails {predicate} at pair {pair}")
        self.index = index
        self.predicate = predicate
        self.pair = pair


class EqualityCaseViolated(SincovError):
    """The group-case solver needs composition equalities, not containments.

    ``witness`` is an index triple (alpha, beta, gamma) at which
    ``Phi[alpha,beta] o Phi[beta,gamma]`` is strictly below ``Phi[alpha,gamma]``.
    """

    def __init__(self, witness):
        super().__init__(f"strict containment at index triple {witness}")
        self.witness = witness


class NotIsomorphic(SincovError):
    """Two atlases do not generate the same transition relations.

    The witness is machine-checkable: ``pair`` belongs to the transition
    relation of atlas ``present_in`` (1 or 2) at ``indices`` but not to the
    other atlas's transition relation there.  ``reason`` is one of
    ``"conflict"``, ``"missing_counterpart"``, ``"coverage"``.
    """

    def __init__(self, reason, indices, pair, present_in):
        super().__init__(
            f"{reason}: pair {pair} at indices {indices} occurs only in "
            f"atlas {present_in}"
        )
        self.reason = reason
        self.indices = indices
        self.pair = pair
        self.present_in = present_in


class IndexMismatch(SincovError):
    """Two atlases are indexed by different sets."""

    def __init__(self, only_in_first, only_in_second):
        super().__init__(
            f"index sets differ (only in first: {sorted(only_in_first)}, "
            f"only in second: {sorted(only_in_second)})"
        )
        self.only_in_first = frozenset(only_in_first)
        self.only_in_second = frozenset(only_in_second)


class KindMismatch(SincovError):
    """A discrete-time flow was given non-integer times, or a discrete-only
    operation was asked of a continuous flow (and vice versa)."""


class DomainExceeded(SincovError):
    """A flow evaluation left the flow's domain."""
