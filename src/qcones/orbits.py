"""Small labelled graphs as edge bitmasks: relabelling orbits, isomorphism
classes, and the moments of one-vertex extensions.

Bit e of a mask is the e-th pair of `graph6._pair_index(n)`, the graph6
column order (0, 1), (0, 2), (1, 2), (0, 3), ... of the graph's vertices.
Summing a graph's edge rows of `_image_bits(n)` gives its n! relabellings;
the lowest names its class (McKay, "Isomorph-free exhaustive generation",
1998), and `_class_reps` lists the distinct classes of many masks by that
mask, from one sorted orbit per class.  `_classes(n)` holds that mask for
every class on n <= 8 vertices, built from the one-vertex extensions of
the classes of one order less; `_extension_moments(n)` packs the edge
count, degree-square sum and tr(Q^3) of each of those extensions in one
integer, so the exhaustive search matches a target's moments by one
comparison.  The tables are built on first use and kept.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .graph6 import _pair_index


def _q_stack(masks: np.ndarray, n: int) -> np.ndarray:
    """(len(masks), n, n) integer Q = D + A of the masks' graphs on n vertices."""
    rows, cols = _pair_index(n)
    q = np.zeros((masks.size, n, n), dtype=np.int64)
    q[:, rows, cols] = q[:, cols, rows] = (masks[:, None] >> np.arange(rows.size)) & 1
    idx = np.arange(n)
    q[:, idx, idx] = q.sum(axis=2)
    return q


@lru_cache(maxsize=None)
def _image_bits(n: int) -> np.ndarray:
    """(k, n!) table: entry (e, p) is 2^(position of the image of the e-th
    `_pair_index` edge under the p-th permutation of range(n)); int32 holds
    every mask below 2^28.  4.5 MB at n = 8."""
    rows, cols = _pair_index(n)
    pos = np.zeros((n, n), dtype=np.uint8)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    # uint8 permutations and one edge row at a time: small temporaries
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(flat, dtype=np.uint8, count=math.factorial(n) * n).reshape(-1, n)
    bits = np.empty((rows.size, perms.shape[0]), dtype=np.int32)
    for e, (u, v) in enumerate(zip(rows.tolist(), cols.tolist())):
        np.left_shift(1, pos[perms[:, u], perms[:, v]], out=bits[e], dtype=np.int32)
    return bits


def _orbit(mask: int, n: int) -> np.ndarray:
    """The masks of all n! relabellings of one graph, with repeats, as int32;
    added row by row in place, with no popcount x n! temporary."""
    bits = _image_bits(n)
    orbit = np.zeros(bits.shape[1], dtype=np.int32)
    for e in range(bits.shape[0]):
        if mask >> e & 1:
            orbit += bits[e]
    return orbit


def _orbit_members(mask: int, n: int, masks: np.ndarray) -> tuple[int, np.ndarray]:
    """The lowest mask of `mask`'s class, and which of the int32 `masks`
    lie in its orbit: one n! sort, then a log n! binary search per mask."""
    orbit = np.sort(_orbit(mask, n))
    return int(orbit[0]), orbit.take(np.searchsorted(orbit, masks), mode="clip") == masks


def _class_reps(masks: np.ndarray, n: int) -> np.ndarray:
    """The lowest mask of each class among the masks, ascending and each
    once, from one orbit per class.

    The first mask left gives its sorted orbit, whose minimum names its
    class; every mask found in it is dropped, and the rest go round again
    (`_orbit_members`).  So the cost is one orbit and one n! sort per class
    plus a log n! search per mask.
    """
    lows = []
    left = masks.astype(np.int32)  # every mask fits, as in the orbits
    while left.size:
        low, found = _orbit_members(int(left[0]), n, left)
        lows.append(low)
        left = left[~found]
    return np.array(sorted(lows), dtype=np.int64)


def _extensions(n: int, idx: np.ndarray) -> np.ndarray:
    """Masks of the extensions with row-major indices `idx`: class
    idx >> (n - 1) of `_classes(n - 1)` with vertex n - 1, whose edges are
    the last n - 1 `_pair_index` bits, joined to the set idx & (2^(n-1) - 1)."""
    low = (n - 1) * (n - 2) // 2
    return _classes(n - 1)[idx >> (n - 1)] | (idx & (1 << (n - 1)) - 1) << low


@lru_cache(maxsize=None)
def _classes(n: int) -> np.ndarray:
    """Lowest mask of every isomorphism class of graphs on n vertices, ascending.

    Deleting vertex n - 1 leaves a graph isomorphic to some class of order
    n - 1, so the extensions of those classes meet every class.  Each
    extension not yet seen adds its orbit's lowest mask and marks the
    orbit seen in a table over all 2^(n choose 2) masks.
    """
    if n <= 1:
        return np.zeros(1, dtype=np.int64)
    seen = np.zeros(1 << (n * (n - 1) // 2), dtype=bool)
    reps = []
    for mask in _extensions(n, np.arange(_classes(n - 1).size << (n - 1))).tolist():
        if not seen[mask]:
            orbit = _orbit(mask, n)
            seen[orbit] = True
            reps.append(orbit.min())
    return np.sort(np.array(reps, dtype=np.int64))


# widths of the packed key's fields m, sum d^2 and tr(Q^3); at n = 8 they
# reach 28, 392 and 4 256 (K8)
_KEY_BITS = (5, 9, 13)


def _pack(m, d2, t3):
    low, mid, _ = _KEY_BITS
    return m + (d2 << low) + (t3 << low + mid)


@lru_cache(maxsize=None)
def _extension_moments(n: int) -> np.ndarray:
    """`_pack(m, sum d^2, tr(Q^3))` of every extension of `_classes(n - 1)`,
    in row-major (class, S) order.

    Joining vertex n - 1 to the set S, with 0/1 vector s and c = |S|, turns
    a class's Q = D + A with degrees d into Q' = [[Q + diag(s), s], [s^T, c]].
    So m' = m + c, sum d'^2 = sum d^2 + 2 d.s + c + c^2, and
    tr(Q'^3) = tr(Q^3) + 3 (diag(Q^2).s + d.s + s^T Q s) + c^3 + 3 c^2 + 4 c.
    """
    q = _q_stack(_classes(n - 1), n - 1)
    q2 = q @ q
    d = q.diagonal(axis1=1, axis2=2)
    s = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    c = s.sum(axis=1)
    ds = d @ s.T
    m = d.sum(axis=1)[:, None] // 2 + c
    d2 = (d * d).sum(axis=1)[:, None] + 2 * ds + c + c * c
    t3 = np.einsum("raa,sa->rs", q2, s) + ds + np.einsum("sa,rab,sb->rs", s, q, s)
    t3 = (q2 * q).sum(axis=(1, 2))[:, None] + 3 * t3 + c ** 3 + 3 * c * c + 4 * c
    return _pack(m, d2, t3).astype(np.int32).ravel()


def _moment_matches(n: int, m: int, d2: int, t3: int) -> np.ndarray:
    """Masks of the extensions of `_classes(n - 1)` with edge count m,
    degree-square sum d2 and tr(Q^3) t3, in row-major (class, S) order.
    Values outside their key fields match nothing and build no table."""
    if not all(0 <= v < 1 << bits for v, bits in zip((m, d2, t3), _KEY_BITS)):
        return np.zeros(0, dtype=np.int64)
    return _extensions(n, np.flatnonzero(_extension_moments(n) == _pack(m, d2, t3)))
