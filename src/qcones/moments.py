"""Spectral moments of the signless Laplacian: of any simple graph from
subgraph counts, of a spectrum from its power sums, and of a cone from its
blocks' walk sums.

T_r = tr Q^r counts closed semi-edge walks (Cvetković, Rowlinson and Simić,
LAA 423, 2007); S4 = tr A^4.  With a cone's apex last, Q = [[M, 1], [1ᵀ, N]]
as in `qcones.cones`, and the matrix determinant lemma gives det(I - xQ) =
det(I - xM)·g(x), g = 1 - Nx - x²·Σ_j b_j x^j.  So T_r = a_r + h_{r-1} with
h = -g'/g, a_j = Σ_B tr M_B^j and b_j = Σ_B 1ᵀM_B^j 1 over the base blocks
B; M = A_H and 0 at the apex give tr A^r.  A block's sums of order <= R
are affine in its length from max(2, R - 1) path and R + 1 cycle vertices
on, so these moments see a cone only through its degree profile and its
numbers of shorter blocks, its order-R signature (at R = 4 its C3, C4 and
K2 counts; see `qcones.family`).  So splitting a cycle into two both
longer than R keeps T1..T_R: no finite prefix sees every block, which is
why the family search eigensolves the cones that match its target's
T1..T4.  Digons fit.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import NamedTuple

import numpy as np

from .eigen import QSpectrum
from .graphs import (
    ConeSpec, MultiGraph, _blocks, count_subgraphs, realize, t_bar_f_bar,
)


class MomentVector(NamedTuple):
    t1: float
    t2: float
    t3: float
    t4: float
    s4: float | None


def moments_from_counts(g: MultiGraph) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of a simple graph (n <= 64),
    from its degree power sums and common-neighbour counts, with
    P3 = sum C(d, 2) = (sum d^2 - 2m) / 2."""
    t_term, f_term = t_bar_f_bar(g)
    d = g.degrees()
    d2, d3, d4 = (int((d ** r).sum()) for r in (2, 3, 4))
    m = g.num_edges
    c3, c4 = count_subgraphs(g, "C3"), count_subgraphs(g, "C4")
    p3 = (d2 - 2 * m) // 2
    s4 = 2 * m + 4 * p3 + 8 * c4
    t4 = s4 + t_term + f_term + d4 + 4 * d3
    return MomentVector(2 * m, d2 + 2 * m, 6 * c3 + d3 + 3 * d2, t4, s4)


def moments_from_spectrum(
    q_spec: QSpectrum, adjacency_spec: QSpectrum | None = None
) -> MomentVector:
    """Power sums of a `QSpectrum`; S4 comes from a separately supplied
    adjacency `QSpectrum` and is None when that is omitted."""
    sums = [float((q_spec.values ** r).sum()) for r in (1, 2, 3, 4)]
    s4 = None if adjacency_spec is None else float((adjacency_spec.values ** 4).sum())
    return MomentVector(*sums, s4)


@lru_cache(maxsize=1024)
def _walk_sums(kind: str, size: int, order: int) -> tuple[int, ...]:
    """tr M^j (j = 1..order), then 1ᵀM^j 1 (j < order), for M = Q_B + I and
    A_B of a base block B, a kind of `graphs._blocks`.  They are affine in
    the length from max(2, order - 1) path and order + 1 cycle vertices on:
    blocks past order + 3 continue the run, shorter take exact powers."""
    far = order + 2
    if size > far + 1:
        near, step = _walk_sums(kind, far, order), _walk_sums(kind, far + 1, order)
        return tuple(x + (size - far) * (y - x) for x, y in zip(near, step))
    block = {"claw": {"stars13": 1}, "cycle": {"cycles": (size,)}}.get(kind, {"paths": (size,)})
    adj = realize(ConeSpec(**block)).mult[:-1, :-1].astype(object)  # apex cut off
    sums: list[int] = []
    for m in (adj + np.diag(adj.sum(axis=1) + 1), adj):
        powers = list(accumulate([m] * order, np.matmul, initial=np.identity(size, dtype=object)))
        sums += [int(p.trace()) for p in powers[1:]] + [int(p.sum()) for p in powers[:-1]]
    return tuple(sums)


def _cone_traces(blocks, order: int) -> tuple[tuple[int, ...], ...]:
    """(tr Q^r, tr A^r), r = 1..order, of the cone over `blocks`: counts by
    (kind, size), negative ones combining blocks linearly.  With c_1 the apex
    entry, c_k = b_(k-2) and g = 1 - Σ c_k x^k, h_(k-1) = k c_k + Σ c_i h_(k-1-i)."""
    sums = [0] * (4 * order)
    for block, count in blocks.items():
        if count:
            sums = [x + count * y for x, y in zip(sums, _walk_sums(*block, order))]
    traces = []
    for side, apex in ((sums[:2 * order], sums[order]), (sums[2 * order:], 0)):
        c, h = [0, apex, *side[order:]], []
        for k in range(1, order + 1):  # h·g = -g', term by term
            v = k * c[k]
            for i in range(1, k):
                v += c[i] * h[k - 1 - i]
            h.append(v)
        traces.append(tuple(map(add, side, h)))
    return tuple(traces)


def moments_closed_form(spec: ConeSpec) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of a cone spec from its
    blocks' walk sums: tr Q^r and tr A^4 of realize(spec), digons included,
    so moments_from_counts(realize(spec)) on a simple spec."""
    q, a = _cone_traces(Counter((kind, size) for kind, _, size in _blocks(spec)), 4)
    return MomentVector(*q, a[3])
