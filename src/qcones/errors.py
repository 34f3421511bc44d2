"""Exception taxonomy shared across the package."""


class QConesError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QConesError, ValueError):
    """Invalid sizes or parameter combinations (bad k, l, n, q, s, ...)."""


class UnsupportedGraphError(QConesError, ValueError):
    """Operation defined for simple graphs received a multigraph."""


class FormatError(QConesError, ValueError):
    """Malformed graph6 text or other serialization problems."""


class ContractViolationError(QConesError, ValueError):
    """Numeric input violates a documented contract (e.g. non-symmetric matrix)."""


class ComparisonError(QConesError, ValueError):
    """Spectra of different sizes cannot be compared."""


class FamilyError(QConesError, ValueError):
    """Spec lies outside the structured family an operation requires."""


class InapplicableError(QConesError, ValueError):
    """A mate construction's structural preconditions are not met."""


class ScaleError(QConesError, ValueError):
    """Input exceeds the documented scale cap of an operation."""


class ConstructionError(QConesError, ArithmeticError):
    """An internally built object failed its own residual check; a bug, not bad input."""


class EigensolverError(QConesError, ArithmeticError):
    """LAPACK's symmetric eigensolver failed; an internal error, not bad input."""
