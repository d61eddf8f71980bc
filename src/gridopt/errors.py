"""Exception hierarchy shared across the package."""


class GridOptError(Exception):
    """Base class for all package-specific errors."""


class AxisTooShort(GridOptError):
    """A breakpoint axis has fewer than two entries."""


class NotStrictlyIncreasing(GridOptError):
    """Breakpoints on an axis are unsorted or duplicated."""


class OutOfHull(GridOptError):
    """A query point lies outside the convex hull of the breakpoints."""


class DanglingVariable(GridOptError):
    """A constraint or interpolant references an undeclared variable."""


class DimensionMismatch(GridOptError):
    """Interpolant input count does not match its grid dimension."""


class BoundsOutsideHull(GridOptError):
    """An interpolant input's bounds exceed the breakpoint hull."""


class NumericalFailure(GridOptError):
    """LP solve did not converge after refactorization retries."""


class ProblemTooLarge(GridOptError):
    """Dense LP exceeds the supported size."""


class EnumerationTooLarge(GridOptError):
    """Cell/binary enumeration exceeds the configured limit."""


class InvalidScenario(GridOptError):
    """Oil-production scenario specification is malformed."""
