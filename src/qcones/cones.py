"""Closed-form spectra of cone families, their explicit eigenvectors, and
the cospectral-mate constructions.

The recurring quartic factor depends only on (n, q, s): order, number of K2
blocks, number of isolated base vertices.  Its four roots are bracketed by
(n, n+2), (4, 5), (2, 3) and (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import (
    GROUP_TOL,
    QSpectrum,
    QuarticData,
    q_matrix,
    quartic_roots,
)
from .errors import (
    ConstructionError,
    FamilyError,
    InapplicableError,
    ParameterError,
)
from .graphs import ConeSpec, realize
from .moments import delta_moments

RESIDUAL_TOL = 1e-8


def _check_nqs(n: int, q: int, s: int) -> None:
    if q < 1 or s < 1:
        raise ParameterError("need q >= 1 and s >= 1")
    if n - 1 - 2 * q - s < 2:
        raise ParameterError(
            "order leaves no room for a cycle or digon block (need n-1-2q-s >= 2)"
        )


def quartic_coeffs(n: int, q: int, s: int) -> QuarticData:
    """The shared degree-4 factor of the cone families at parameters (n, q, s).

    Validates the four root brackets by sign change; failure means the
    parameter combination is invalid.
    """
    _check_nqs(n, q, s)
    coeffs = (
        1.0,
        -float(n + 8),
        float(8 * n + 15),
        float(4 * q + 4 * s - 19 * n + 4),
        float(12 * n - 4 * q - 12 * s - 12),
    )
    data = QuarticData(
        coeffs=coeffs,
        brackets=((float(n), float(n + 2)), (4.0, 5.0), (2.0, 3.0), (0.0, 1.0)),
    )
    for lo, hi in data.brackets:
        if not data(lo) * data(hi) < 0.0:
            raise ParameterError(
                f"invalid parameters (n={n}, q={q}, s={s}): no sign change on ({lo}, {hi})"
            )
    return data


def quotient_matrix(n: int, q: int, s: int) -> np.ndarray:
    """Equitable quotient over the parts (apex, cycle/digon vertices, K2
    vertices, isolated vertices); its characteristic polynomial is the
    shared quartic and its largest eigenvalue matches the cone's."""
    _check_nqs(n, q, s)
    return np.array(
        [
            [n - 1, n - 1 - 2 * q - s, 2 * q, s],
            [1, 5, 0, 0],
            [1, 0, 3, 0],
            [1, 0, 0, 1],
        ],
        dtype=np.float64,
    )


def _cycle_tag(j: int, k: int) -> str:
    num = 2 * j
    den = k
    g = math.gcd(num, den)
    num //= g
    den //= g
    pi = "π" if num == 1 else f"{num}π"
    frac = pi if den == 1 else f"{pi}/{den}"
    return f"3+2cos({frac})"


def _cycle_values(k: int) -> list[tuple[float, str]]:
    return [
        (3.0 + 2.0 * math.cos(2.0 * math.pi * j / k), _cycle_tag(j, k))
        for j in range(1, k)
    ]


_QUARTIC_TAGS = ("quartic-1", "quartic-2", "quartic-3", "quartic-4")


def _closed_spectrum(
    spec: ConeSpec, s: int, t: int, extra: list[tuple[float, str]], group_tol: float
) -> QSpectrum:
    """Quartic roots at (n, q, s), the constants 1^(s+q-1), 3^(q-1), 5^(t-1)
    and `extra`, then k-1 lift values per cycle.  Constants come before
    lifts, so where a lift equals a constant exactly the constant's tag is
    listed first."""
    q = spec.q
    roots = quartic_roots(quartic_coeffs(spec.n, q, s))
    tagged: list[tuple[float, str]] = list(zip(roots, _QUARTIC_TAGS))
    tagged += [(1.0, "1")] * (s + q - 1) + extra
    tagged += [(3.0, "3")] * (q - 1) + [(5.0, "5")] * (t - 1)
    for k in spec.cycles:
        tagged += _cycle_values(k)
    assert len(tagged) == spec.n
    values, sources = zip(*tagged)
    return QSpectrum(values, group_tol=group_tol, sources=sources)


def closed_spectrum_G(spec: ConeSpec, group_tol: float = GROUP_TOL) -> QSpectrum:
    """Exact spectrum of a cycles+K2+K1 cone: four quartic roots, the
    constants 5^(t-1), 3^(q-1), 1^(s+q-1), and k-1 lift values per cycle."""
    if not spec.is_g_family():
        raise FamilyError("closed form needs cycles (>= 3) plus K2 and K1 blocks")
    return _closed_spectrum(spec, spec.s, spec.t, [], group_tol)


def closed_spectrum_F(spec: ConeSpec, group_tol: float = GROUP_TOL) -> QSpectrum:
    """Exact spectrum of the one-star mate family.

    With derived parameters s = (#isolated)+1 and t = (#cycles)+1 it shares
    the quartic of the source family and swaps one cycle's lift values for
    the pair {2, 2}.
    """
    if not spec.is_f_family():
        raise FamilyError("closed form needs exactly one star block, K2s, cycles >= 3")
    return _closed_spectrum(spec, spec.s + 1, spec.t + 1, [(2.0, "2")] * 2, group_tol)


def largest_q_eigenvalue(spec: ConeSpec) -> float:
    """Largest signless-Laplacian eigenvalue of a cycles/digons+K2+K1 cone.

    Valid for cycle lengths down to 2 (digons); the value depends only on
    (n, q, s), so redistributing vertices among cycle and digon blocks
    cannot change it.
    """
    if spec.stars13 or any(l > 2 for l in spec.paths):
        raise FamilyError("closed form needs cycle/digon blocks plus K2 and K1 only")
    if spec.t < 1 or spec.q < 1 or spec.s < 1:
        raise FamilyError("need at least one cycle or digon, one K2 and one K1")
    return quartic_roots(quartic_coeffs(spec.n, spec.q, spec.s))[0]


# ---------------------------------------------------------------------------
# explicit eigenvectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenFamily:
    """One constructed eigenvector: family label, eigenvalue, vector, and the
    relative residual of Q v - lambda v."""

    label: str
    eigenvalue: float
    vector: np.ndarray
    residual: float


def _residual(qm: np.ndarray, value: float, vec: np.ndarray) -> float:
    err = qm @ vec - value * vec
    return float(np.abs(err).max() / max(1.0, np.abs(vec).max()))


def eigenvector_families(spec: ConeSpec) -> list[EigenFamily]:
    """Full explicit eigenbasis for a family spec.

    Labels and counts: 'eig-1' pendant/K2 difference vectors (s+q-1 of them),
    'eig-3' consecutive-K2 vectors (q-1), 'eig-5' cycle-pair vectors (t-1),
    'cycle-lift' zero-sum cycle vectors (k-1 per cycle), 'eig-2' star-leaf
    differences (2, one-star family only), and 'quartic' (4).  Any residual
    above RESIDUAL_TOL signals a construction bug and raises.
    """
    if not (spec.is_g_family() or spec.is_f_family()):
        raise FamilyError("eigenvector construction needs a family spec")
    lay = spec.layout()
    qm = q_matrix(realize(spec))
    n = spec.n
    out: list[EigenFamily] = []

    def add(label: str, value: float, vec: np.ndarray) -> None:
        res = _residual(qm, value, vec)
        if res > RESIDUAL_TOL:
            raise ConstructionError(
                f"{label} vector for {value} has residual {res:.3e}"
            )
        out.append(EigenFamily(label, value, vec, res))

    iso = lay.isolated
    for j in range(len(iso) - 1):
        vec = np.zeros(n)
        vec[iso[j]] = 1.0
        vec[iso[j + 1]] = -1.0
        add("eig-1", 1.0, vec)
    for u, w in lay.k2_pairs:
        vec = np.zeros(n)
        vec[u] = 1.0
        vec[w] = -1.0
        add("eig-1", 1.0, vec)
    for j in range(len(lay.k2_pairs) - 1):
        vec = np.zeros(n)
        u1, w1 = lay.k2_pairs[j]
        u2, w2 = lay.k2_pairs[j + 1]
        vec[[u1, w1]] = 1.0
        vec[[u2, w2]] = -1.0
        add("eig-3", 3.0, vec)
    for block, k in zip(lay.cycles, spec.cycles):
        for j in range(1, k):
            vec = np.zeros(n)
            offsets = np.arange(k)
            if j <= k // 2:
                vec[list(block)] = np.cos(2.0 * math.pi * j * offsets / k)
            else:
                vec[list(block)] = np.sin(2.0 * math.pi * (k - j) * offsets / k)
            add("cycle-lift", 3.0 + 2.0 * math.cos(2.0 * math.pi * j / k), vec)
    for j in range(1, spec.t):
        vec = np.zeros(n)
        vec[list(lay.cycles[0])] = -float(spec.cycles[j])
        vec[list(lay.cycles[j])] = float(spec.cycles[0])
        add("eig-5", 5.0, vec)

    for leaves, center in lay.stars:
        if iso:
            # the one eigenvalue-1 vector that couples a pendant to the star
            vec = np.zeros(n)
            vec[iso[0]] = 2.0
            vec[list(leaves)] = -1.0
            vec[center] = 1.0
            add("eig-1", 1.0, vec)
        for other in (leaves[1], leaves[2]):
            vec = np.zeros(n)
            vec[leaves[0]] = -1.0
            vec[other] = 1.0
            add("eig-2", 2.0, vec)
        if spec.cycles:
            vec = np.zeros(n)
            vec[list(lay.cycles[0])] = -6.0 / spec.cycles[0]
            vec[list(leaves)] = 1.0
            vec[center] = 3.0
            add("eig-5", 5.0, vec)
    # the star family shares the quartic of its source, whose s is one larger
    roots = quartic_roots(quartic_coeffs(n, spec.q, spec.s + spec.stars13))
    for rho in roots:
        vec = np.empty(n)
        vec[list(iso)] = 1.0 / (rho - 1.0)
        for u, w in lay.k2_pairs:
            vec[[u, w]] = 1.0 / (rho - 3.0)
        for block in lay.cycles:
            vec[list(block)] = 1.0 / (rho - 5.0)
        for leaves, center in lay.stars:
            vec[list(leaves)] = (rho - 3.0) / ((rho - 1.0) * (rho - 5.0))
            vec[center] = (rho + 1.0) / ((rho - 1.0) * (rho - 5.0))
        vec[lay.apex] = 1.0
        add("quartic", rho, vec)
    return out


# ---------------------------------------------------------------------------
# mates
# ---------------------------------------------------------------------------

def triangle_star_mate(spec: ConeSpec) -> ConeSpec:
    """Swap one triangle block for a star block, dropping one isolated vertex.

    The mate has the same order and size, an identical Q-spectrum, and is
    never isomorphic to the source (it gains a degree-4 base vertex).
    """
    if not spec.is_g_family():
        raise InapplicableError("mate construction starts from a cycles+K2+K1 cone")
    if 3 not in spec.cycles:
        raise InapplicableError("no triangle block to replace")
    if spec.s < 1:
        raise InapplicableError("no isolated vertex to absorb")
    cycles = list(spec.cycles)
    cycles.remove(3)
    paths = list(spec.paths)
    paths.remove(1)
    return ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=1)


def even_cycle_split_candidate(spec: ConeSpec) -> tuple[ConeSpec, int, int]:
    """Candidate mate for a single even cycle: C4 plus two path blocks paid
    for by two K2s, with its (S4, T4) moment shifts.  Shares order, size,
    degree sequence, triangle count and the first four spectral moments
    (a nonzero T4 shift raises ConstructionError); cospectrality is NOT
    asserted, callers measure the spectral distance themselves.
    """
    if not spec.is_g_family():
        raise InapplicableError("candidate construction starts from a cycles+K2+K1 cone")
    if spec.t != 1:
        raise InapplicableError("needs exactly one cycle block")
    k = spec.cycles[0]
    if k % 2 or k < 6:
        raise InapplicableError("needs an even cycle of length >= 6")
    if spec.q < 2:
        raise InapplicableError("needs at least two K2 blocks to fund the paths")
    candidate = ConeSpec(
        cycles=(4,),
        paths=(k - 3, 3) + (2,) * (spec.q - 2) + (1,) * spec.s,
    )
    ds4, dt4 = delta_moments(spec, candidate)
    if dt4 != 0:
        raise ConstructionError(f"candidate moment shift {dt4} should be zero")
    return candidate, ds4, dt4
