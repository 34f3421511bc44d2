"""Spectral moments of the signless Laplacian, exact count bookkeeping, and
the degree-count linear system.

T_i is the i-th power sum of the Q-spectrum; S4 is the fourth power sum of
the adjacency spectrum.  For simple graphs every T_i and S4 is an integer
expressible in subgraph counts, which is what makes the moment method bite.
The moment shift of a rewiring between two cones is the difference of their
`moments_closed_form` vectors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .eigen import QSpectrum
from .errors import ParameterError
from .graphs import (
    ConeSpec,
    MultiGraph,
    count_subgraphs,
    degree_profile,
    t_bar_f_bar,
)


class MomentVector(NamedTuple):
    t1: float
    t2: float
    t3: float
    t4: float
    s4: float | None


class CountVector(NamedTuple):
    """Subgraph counts and degree power sums entering the moment formulas."""

    p3: int
    c3: int
    c4: int
    t_term: int
    f_term: int
    d2: int
    d3: int
    d4: int


def _moments(m: int, counts: CountVector) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) from m edges and the counts."""
    t1 = 2 * m
    t2 = counts.d2 + 2 * m
    t3 = 6 * counts.c3 + counts.d3 + 3 * counts.d2
    s4 = 2 * m + 4 * counts.p3 + 8 * counts.c4
    t4 = s4 + counts.t_term + counts.f_term + counts.d4 + 4 * counts.d3
    return MomentVector(t1, t2, t3, t4, s4)


def moments_from_counts(g: MultiGraph) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of a simple graph (n <= 64),
    from its degree power sums and common-neighbour counts, with
    P3 = sum C(d, 2) = (sum d^2 - 2m) / 2."""
    t_term, f_term = t_bar_f_bar(g)
    d = g.degrees()
    d2, d3, d4 = (int((d ** r).sum()) for r in (2, 3, 4))
    m = g.num_edges
    c3, c4 = count_subgraphs(g, "C3"), count_subgraphs(g, "C4")
    return _moments(m, CountVector((d2 - 2 * m) // 2, c3, c4, t_term, f_term, d2, d3, d4))


def moments_from_spectrum(
    q_spec: QSpectrum, adjacency_spec: QSpectrum | None = None
) -> MomentVector:
    """Power sums of a `QSpectrum`; S4 comes from a separately supplied
    adjacency `QSpectrum` and is None when that is omitted."""
    sums = [float((q_spec.values ** r).sum()) for r in (1, 2, 3, 4)]
    s4 = None if adjacency_spec is None else float((adjacency_spec.values ** 4).sum())
    return MomentVector(*sums, s4)


def _cone_counts(
    profile: tuple[int, int, int, int], k3: int, k4: int, nk2: int
) -> tuple[int, CountVector]:
    """(edge count, counts) of a simple cone from its signature: the base
    degree profile (n1, n2, n3, n4) and the numbers of C3, C4 and K2 blocks.

    A base vertex of base degree h has cone degree h + 1; the apex has
    degree N = n - 1 and is joined to every base vertex.
    """
    n1, n2, n3, n4 = profile
    big_n = n1 + n2 + n3 + n4
    # paths of order >= 2: two base-degree-1 endpoints each, besides claw leaves
    q = (n2 - 3 * n4) // 2
    # a cycle has as many edges as vertices, a path of order >= 2 one more
    # than its interior vertices, a claw three
    m_h = n3 + q + 3 * n4
    # sum over base edges of d(u) d(v): a cycle of length k gives 3*3 k; a
    # path of order l >= 3 two end edges 2*3 and l - 3 inner 3*3, which is
    # 9 (l - 2) + 3; a K2 2*2 = 3 + 1; a claw 3 * 2*4
    edge_dd = 9 * n3 + 3 * q + nk2 + 24 * n4
    d1, d2, d3, d4 = (
        big_n ** r + n1 + n2 * 2 ** r + n3 * 3 ** r + n4 * 4 ** r for r in (1, 2, 3, 4)
    )
    m = m_h + big_n
    counts = CountVector(
        p3=(d2 - 2 * m) // 2,
        # a triangle is a base edge plus the apex, or a C3 block
        c3=m_h + k3,
        # a 4-cycle is a base 2-path closed through the apex, or a C4 block
        c4=k4 + n3 + 3 * n4,
        # triangles at the apex: m_H; at a base vertex: its base degree, plus
        # one on a C3 block (whose three vertices have cone degree 3)
        t_term=8 * (m_h * big_n + 2 * n2 + 6 * n3 + 12 * n4 + 9 * k3),
        # edges at the apex, then base edges
        f_term=4 * (big_n * (d1 - big_n) + edge_dd),
        d2=d2,
        d3=d3,
        d4=d4,
    )
    return m, counts


def _signature(spec: ConeSpec) -> tuple[tuple[int, int, int, int], int, int, int]:
    if spec.has_digon():
        raise ParameterError("closed-form counts need a simple cone (no C2 block)")
    return (
        degree_profile(spec), spec.cycles.count(3), spec.cycles.count(4), spec.paths.count(2),
    )


def signature_moments(
    profile: tuple[int, int, int, int], k3: int, k4: int, nk2: int
) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of every simple cone whose
    base has degree profile `profile` (see degree_profile) and k3 C3, k4 C4
    and nk2 K2 blocks: the moments see a spec only through this signature."""
    return _moments(*_cone_counts(profile, k3, k4, nk2))


def moments_closed_form(spec: ConeSpec) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of a simple cone spec,
    equal to moments_from_counts(realize(spec)) with no graph built."""
    return signature_moments(*_signature(spec))


def signatures_with_moments(
    profile: tuple[int, int, int, int], moments
) -> list[tuple[int, int, int]]:
    """Every (k3, k4, nk2) whose signature moments with this profile have
    T1..T4 equal to moments[:4].

    T3 grows by 6 per C3 block and fixes k3; T4 grows by 72 per C3, 8 per
    C4 and 4 per K2 block, so each k4 fixes nk2, which must lie within the
    profile's (n2 - 3 n4) / 2 paths of order >= 2.  Each solution is checked
    against signature_moments.
    """
    _, n2, n3, n4 = profile
    q = (n2 - 3 * n4) // 2
    t = tuple(moments[:4])
    base = signature_moments(profile, 0, 0, 0)
    k3, rem = divmod(t[2] - base.t3, 6)
    if rem or k3 < 0:
        return []
    found = []
    for k4 in range((n3 - 3 * k3) // 4 + 1):
        nk2, rem = divmod(t[3] - base.t4 - 72 * k3 - 8 * k4, 4)
        if (
            not rem
            and 0 <= nk2 <= q
            and signature_moments(profile, k3, k4, nk2)[:4] == t
        ):
            found.append((k3, k4, nk2))
    return found


def solve_degree_system(
    t1: int, t2: int, t3: int, n: int, d1: int, n4: int
) -> tuple[int, int, int] | None:
    """Degree counts (n1, n2, n3) of the non-maximum vertices, assuming
    degrees in {1,2,3,4} besides one vertex of degree d1 and n4 vertices of
    degree 4.

    Solves the linear system from the vertex count and the first two moments
    minus d1's contribution, then gates feasibility: counts must be
    non-negative integers and the implied triangle count (T3 minus the degree
    terms, divided by 6) a non-negative integer.  Returns None when any gate
    fails; infeasibility is a meaningful outcome for contradiction arguments.
    """
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
