"""Exception taxonomy shared across the package; `cli` names every class."""


class QConesError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QConesError, ValueError):
    """Invalid sizes or parameter combinations (bad k, l, n, q, s, ...), a
    multigraph or digon spec where counting needs a simple graph, a matrix
    that is not symmetric, or spectra of different sizes."""


class FormatError(QConesError, ValueError):
    """Malformed graph6 text or other serialization problems."""


class InapplicableError(QConesError, ValueError):
    """A mate construction's structural preconditions are not met."""


class ScaleError(QConesError, ValueError):
    """Input exceeds the documented scale cap of an operation."""


class ConstructionError(QConesError, ArithmeticError):
    """An internally built object failed its own residual check; a bug, not bad input."""


class EigensolverError(QConesError, ArithmeticError):
    """LAPACK's symmetric eigensolver failed, or a degree-plus-adjacency
    spectrum had a negative value; an internal error, not bad input."""
