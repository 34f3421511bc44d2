"""Spectral moments of the signless Laplacian: of any simple graph from
subgraph counts, of a cone from its blocks' walk sums; and the degree-count
linear system.

T_r = tr Q^r counts closed semi-edge walks (Cvetković, Rowlinson and Simić,
LAA 423, 2007); S4 = tr A^4.  With a cone's apex last, Q = [[M, 1], [1ᵀ, N]]
as in `qcones.cones`, and the matrix determinant lemma gives det(I - xQ) =
det(I - xM)·g(x), g = 1 - Nx - x²·Σ_j b_j x^j.  So T_r = a_r + h_{r-1} with
h = -g'/g, a_j = Σ_B tr M_B^j and b_j = Σ_B 1ᵀM_B^j 1 over the base blocks
B; M = A_H and 0 at the apex give tr A^r.  Past 2R + 2 vertices a block's
sums of order <= R are affine in its length, so these moments see a cone
only through its degree profile and its numbers of shorter blocks, its
order-R signature (at R = 4: its numbers of C3, C4 and K2 blocks).  Digons
fit the identity, yet `moments_closed_form` raises ParameterError on one.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import NamedTuple

import numpy as np

from .eigen import QSpectrum
from .errors import ParameterError
from .graphs import (
    ConeSpec, MultiGraph, _blocks, _path_blocks, count_subgraphs, realize, t_bar_f_bar,
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
    A_B of a base block B, a kind of `graphs._blocks`.  Past 2·order + 2
    vertices no walk of length <= order sees both ends of a path or wraps a
    cycle: longer blocks continue the affine run, shorter take exact powers."""
    far = 2 * order + 2
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


def signature_moments(
    profile: tuple[int, int, int, int], k3: int, k4: int, nk2: int
) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of every simple cone whose
    base has degree profile `profile` and k3 C3, k4 C4 and nk2 K2 blocks.
    To order 4 paths from P3 on are affine in their order, and C_k (k >= 5)
    is k steps P4 - P3: so take a P3 per other path and a step per vertex.
    A profile that no such cone has (see `graphs._path_blocks`) raises
    ParameterError."""
    p = _path_blocks(profile)
    if p is None:
        raise ParameterError(f"no cone over cycles, paths and claws has profile {profile}")
    n1, _, n3, n4 = profile
    longer = p - nk2
    steps = n3 - 3 * k3 - 4 * k4 - longer
    q, a = _cone_traces({("path", 1): n1, ("claw", 4): n4, ("cycle", 3): k3, ("cycle", 4): k4,
                         ("path", 2): nk2, ("path", 3): longer - steps, ("path", 4): steps}, 4)
    return MomentVector(*q, a[3])


def moments_closed_form(spec: ConeSpec) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of a simple cone spec from
    its blocks' walk sums, equal to moments_from_counts(realize(spec))."""
    if spec.has_digon():
        raise ParameterError("closed-form moments need a simple cone (no C2 block)")
    q, a = _cone_traces(Counter((kind, size) for kind, _, size in _blocks(spec)), 4)
    return MomentVector(*q, a[3])


@lru_cache(maxsize=1)
def _signature_shifts() -> list[tuple[int, ...]]:
    """T1..T4 shift of one more C3, C4 and K2 block, at the profile of
    K1 v P6 + P4.  These blocks keep every base degree, so b_0..b_2 and
    h_0..h_3 stay put: the a_r alone move, alike at every profile."""
    base = signature_moments((0, 4, 6, 0), 0, 0, 0)[:4]
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [tuple(map(sub, signature_moments((0, 4, 6, 0), *st)[:4], base)) for st in steps]


def signatures_with_moments(
    profile: tuple[int, int, int, int], moments
) -> list[tuple[int, int, int]]:
    """Every (k3, k4, nk2) whose signature moments with this profile have
    T1..T4 equal to moments[:4]: those of (0, 0, 0) plus 6 on T3 and 72 on
    T4 per C3, 8 on T4 per C4 and 4 per K2.  So T3 fixes k3, and each k4
    fixes nk2, within the profile's `_path_blocks` paths of order >= 2; a
    profile that it rejects has no signature."""
    p = _path_blocks(profile)
    if p is None:
        return []
    n3 = profile[2]
    t1, t2, t3, t4 = moments[:4]
    (_, _, c3_t3, c3_t4), (*_, c4_t4), (*_, k2_t4) = _signature_shifts()
    base = signature_moments(profile, 0, 0, 0)
    k3, rem = divmod(t3 - base.t3, c3_t3)
    if (t1, t2) != base[:2] or rem or k3 < 0:
        return []
    found = []
    for k4 in range((n3 - 3 * k3) // 4 + 1):
        nk2, rem = divmod(t4 - base.t4 - c3_t4 * k3 - c4_t4 * k4, k2_t4)
        if not rem and 0 <= nk2 <= p:
            found.append((k3, k4, nk2))
    return found


def solve_degree_system(
    t1: int, t2: int, t3: int, n: int, d1: int, n4: int
) -> tuple[int, int, int] | None:
    """Degree counts (n1, n2, n3) of the non-maximum vertices, assuming
    degrees in {1,2,3,4} besides one vertex of degree d1 and n4 of degree 4.
    They solve the linear system of the vertex count and the first two
    moments less d1's share.  None unless they are non-negative integers and
    the implied triangle count (T3 less the degree terms, over 6) is one too:
    infeasibility is a meaningful outcome for contradiction arguments."""
    for name, v in (("t1", t1), ("t2", t2), ("t3", t3), ("n", n), ("d1", d1), ("n4", n4)):
        # NaN and ±inf first: int() of them raises a ValueError or OverflowError
        if v != v or v in (np.inf, -np.inf) or int(v) != v:
            raise ParameterError(f"{name} must be an integer, got {v!r}")
    t1, t2, t3, n, d1, n4 = int(t1), int(t2), int(t3), int(n), int(d1), int(n4)
    if n < 1 or n4 < 0:
        raise ParameterError("need n >= 1 and n4 >= 0")
    c0 = n - 1
    s1 = t1 - d1          # sum of the remaining degrees
    s2 = (t2 - t1) - d1 * d1  # sum of their squares
    num = s2 - 3 * s1 + 2 * c0
    if num % 2:
        return None
    n3 = num // 2 - 3 * n4
    n2 = (s1 - c0 - 3 * n4) - 2 * n3
    n1 = c0 - n4 - n2 - n3
    if n1 < 0 or n2 < 0 or n3 < 0:
        return None
    d3_sum = d1 ** 3 + n1 + 8 * n2 + 27 * n3 + 64 * n4
    d2_sum = d1 ** 2 + n1 + 4 * n2 + 9 * n3 + 16 * n4
    six_c3 = t3 - d3_sum - 3 * d2_sum
    if six_c3 < 0 or six_c3 % 6:
        return None
    return n1, n2, n3
