"""Dense symmetric eigenvalues and plain spectra.

Every spectrum in the package comes from LAPACK's symmetric eigensolver
(`np.linalg.eigvalsh`, behind `_eigvalsh`), through two entry points:
`sym_eigenvalues` for one symmetric matrix (the adjacency spectrum), and
`_q_rows`, the one checked path for every Q spectrum: the rows of
same-order batches, `q_spectrum`'s single row, and the main-part quotient
behind each closed-form cone spectrum (`cones.closed_spectrum`).  The
inputs are small integer positive-semidefinite matrices, where the solver
agrees with an independent plane-rotation solver to within 1e-13.  There
is no root finder.  A LAPACK failure, or a negative value in a Q spectrum,
raises `EigensolverError`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import EigensolverError, ParameterError
from .graphs import MultiGraph, _array

GROUP_TOL = 1e-9
# Q = D + A is PSD: a value below -_PSD_TOL is a bug, whatever the grouping
_PSD_TOL = 1e-9
# a batched eigensolve stacks at most this many float64 entries (1 MiB)
CHUNK_ENTRIES = 1 << 17


def q_matrix(g: MultiGraph) -> np.ndarray:
    """Degree-plus-adjacency matrix as float64; multiplicities count in both."""
    m = g.mult.astype(np.float64)
    m.flat[::g.n + 1] = g.degrees()
    return m


class Group(NamedTuple):
    value: float
    multiplicity: int
    sources: tuple[str, ...]


class QSpectrum:
    """Eigenvalue multiset, sorted non-increasing and read-only, with an
    optional source tag per value (keyword-only) that follows it in the sort."""

    __slots__ = ("values", "sources")

    def __init__(self, values, *, sources=None) -> None:
        message = "spectrum must be a non-empty list of finite values (real numbers)"
        arr = _array(values, "biuf", message).astype(np.float64, copy=False)
        if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
            raise ParameterError(message)
        order = np.argsort(-arr, kind="stable")
        arr = arr[order]
        arr.setflags(write=False)
        self.values = arr
        if sources is not None and len(sources) != arr.size:
            raise ParameterError("one source tag per value required")
        self.sources = None if sources is None else tuple(sources[i] for i in order)

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        groups = _groups(self.values, GROUP_TOL)
        parts = ", ".join(f"{g.value:.6g}^{g.multiplicity}" for g in groups)
        return f"QSpectrum({parts})"


def _groups(values: np.ndarray, tol: float, sources=None) -> tuple[Group, ...]:
    """The printed groups: non-increasing `values` (with their `sources`)
    split at every gap above `tol`, found at once.

    A group's value is its members' `sum() / size`, bitwise `mean()`
    without numpy's Python-level wrapper.  For a single member that is the
    value plus 0.0 (-0.0 becomes 0.0), so singletons skip numpy.  Its tags
    are its members' distinct tags, sorted.
    """
    cuts = np.flatnonzero(values[:-1] - values[1:] > tol) + 1
    bounds = [0, *cuts.tolist(), values.size]
    singles = (values + 0.0).tolist()
    groups = []
    for a, b in zip(bounds, bounds[1:]):
        value = singles[a] if b - a == 1 else float(values[a:b].sum() / (b - a))
        tags = () if sources is None else tuple(sorted(set(sources[a:b])))
        groups.append(Group(value, b - a, tags))
    return tuple(groups)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one symmetric matrix or a stack of them."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigensolver failed: {exc}") from None


def _symmetric(a: np.ndarray) -> np.ndarray:
    """The matrix (or stack) itself when exactly symmetric; otherwise its
    symmetric part, when each matrix is symmetric within 1e-12 (relative)."""
    at = np.swapaxes(a, -1, -2)
    if np.array_equal(a, at):
        return a
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    if (np.abs(a - at).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale).any():
        raise ParameterError("matrix is not symmetric within 1e-12 (relative)")
    return 0.5 * (a + at)


def sym_eigenvalues(matrix) -> QSpectrum:
    """Spectrum of a square matrix that is symmetric within 1e-12 (relative)."""
    message = "matrix must be square, with finite entries (real numbers)"
    a = _array(matrix, "biuf", message).astype(np.float64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.isfinite(a).all():
        raise ParameterError(message)
    return QSpectrum(_eigvalsh(_symmetric(a)))


def q_spectrum(g: MultiGraph) -> QSpectrum:
    """Numeric signless-Laplacian spectrum: the one row of `_q_rows`."""
    return QSpectrum(next(_q_rows((q_matrix(g),))))


def _q_rows(matrices: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Ascending eigenvalues of same-order Q matrices, one row per matrix,
    solved in chunks of at most CHUNK_ENTRIES stacked entries (one matrix
    at least).

    Each matrix must be symmetric within 1e-12 (relative); a value below
    -1e-9 raises `EigensolverError`, as Q = D + A is semidefinite.  Matrices
    are read only as chunks need them, so a caller that stops early solves
    no further chunk.  A lone float64 matrix is solved from a view, with no
    copy; a full chunk from a generator peaks at about twice CHUNK_ENTRIES
    entries (about 2 MiB) while it is copied into the float64 stack.
    """
    it = iter(matrices)
    for first in it:
        rest = list(itertools.islice(it, max(1, CHUNK_ENTRIES // first.size) - 1))
        stack = (np.array([first, *rest], dtype=np.float64) if rest
                 else np.asarray(first, dtype=np.float64)[None])
        rows = _eigvalsh(_symmetric(stack))
        lowest = rows[:, 0].min()
        if lowest < -_PSD_TOL:
            raise EigensolverError(
                f"negative value {float(lowest)!r} in a degree-plus-adjacency spectrum"
            )
        yield from rows


def spectrum_compare(a: QSpectrum, b: QSpectrum) -> float:
    """L-infinity distance between two `QSpectrum`s of equal size, value by
    value in their non-increasing order."""
    if len(a) != len(b):
        raise ParameterError(f"spectra sizes differ: {len(a)} vs {len(b)}")
    return float(np.abs(a.values - b.values).max())
