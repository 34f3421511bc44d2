"""Closed-form spectra of cones and the cospectral-mate constructions on specs.

With the apex last, a cone over the blocks B has Q = [[Q_H + I, 1],
[1^T, n - 1]], where Q_H + I is block diagonal.  An eigenvalue of a
block's Q_B + I whose eigenvector is orthogonal to the all-ones vector
(non-main) is an eigenvalue of the cone as it is.  A main value p shared
by c blocks leaves c - 1 copies of p.  The remaining values are those of
the main-part quotient [[n - 1, sqrt(w)^T], [sqrt(w), diag(p)]], one row
per distinct main value p, where w_p sums (1^T v)^2 over its unit
eigenvectors: the bordered (arrowhead) eigenproblem of Golub, SIAM Rev.
1973.  Block data, as values of Q_B + I:

- C_k (k >= 2, 2 a digon): 3 + 2cos(2jπ/k) for j = 1..k-1; main 5, weight k.
- P_l: 3 - 2cos(jπ/l) for j = 0..l-1, main exactly when j + l is odd, with
  weight 1/l at j = 0 and 2 / (l cos^2(jπ/2l)) otherwise.
- K13: 2, 2; main 5 (weight 3) and 1 (weight 1).

On the G and F families the quotient is 4 x 4 and diagonally similar to
the paper's equitable quotient over (apex, cycle or claw, K2, isolated
vertices), whose characteristic polynomial is the paper's quartic.

Source tags: `3+2cos(2jπ/k)` for cycle values and `3-2cos(jπ/l)` for path
values, fractions in lowest terms, except that path values with cosine 1 or
0 are the constants "1" and "3"; "2" for the claw pair; the spare copies of
a shared main value carry its tag ("5" for cycles and claws); the quotient's
values, largest first, are `quartic-i` when it is 4 x 4 and `quotient-i`
otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import GROUP_TOL, QSpectrum, _q_rows
from .errors import ConstructionError, InapplicableError, ScaleError
from .graphs import MAX_VERTICES, ConeSpec
from .moments import moments_closed_form


def _cos_tag(prefix: str, num: int, den: int) -> str:
    g = math.gcd(num, den)
    num //= g
    den //= g
    pi = "π" if num == 1 else f"{num}π"
    return f"{prefix}cos({pi if den == 1 else f'{pi}/{den}'})"


def _cycle_values(k: int) -> list[tuple[float, str]]:
    return [
        (3.0 + 2.0 * math.cos(2.0 * math.pi * j / k), _cos_tag("3+2", 2 * j, k))
        for j in range(1, k)
    ]


def _path_value(j: int, l: int) -> tuple[float, str]:
    """3 - 2cos(jπ/l), computed from j/l in lowest terms so that equal
    values of different paths are bitwise equal."""
    g = math.gcd(j, l)
    j //= g
    l //= g
    tag = "1" if j == 0 else "3" if 2 * j == l else _cos_tag("3-2", j, l)
    return 3.0 - 2.0 * math.cos(math.pi * j / l), tag


def _main_values(spec: ConeSpec) -> dict:
    """The blocks' main values as {value: [total weight, number of blocks,
    tag]}, accumulated over paths, claws, then cycles; O(1) per cycle.
    Raises ScaleError as soon as the quotient passes the order cap, so a
    spec of long paths costs O(MAX_VERTICES) before the error."""
    main: dict = {}

    def add(value: float, tag: str, weight: float) -> None:
        entry = main.setdefault(value, [0.0, 0, tag])
        entry[0] += weight
        entry[1] += 1
        if len(main) >= MAX_VERTICES:
            raise ScaleError(
                f"main-part quotient of order at least {MAX_VERTICES + 1} exceeds {MAX_VERTICES}"
            )

    for l in spec.paths:
        for j in range((l + 1) % 2, l, 2):  # j + l odd
            if j == 0:
                weight = 1.0 / l
            else:
                # cos(jπ/2l) as the sine of its complement, which keeps its
                # relative accuracy as j nears l
                weight = 2.0 / (l * math.sin(math.pi * (l - j) / (2 * l)) ** 2)
            add(*_path_value(j, l), weight)
    for _ in range(spec.stars13):
        add(5.0, "5", 3.0)
        add(1.0, "1", 1.0)
    for k in spec.cycles:
        add(5.0, "5", float(k))
    return main


def _plain_values(spec: ConeSpec) -> list[tuple[float, str]]:
    """The blocks' non-main values with their tags: paths, claws, then cycles."""
    plain = [_path_value(j, l) for l in spec.paths for j in range(l % 2, l, 2)]
    plain += [(2.0, "2")] * (2 * spec.stars13)
    for k in spec.cycles:
        plain += _cycle_values(k)
    return plain


def _quotient_values(n: int, main: dict) -> list[float]:
    """Eigenvalues of the main-part quotient, largest first, from the
    checked Q solve; `_main_values` holds its order under the cap of every
    matrix the package builds."""
    m = np.diag([n - 1.0, *main])
    m[0, 1:] = m[1:, 0] = np.sqrt([w for w, _, _ in main.values()])
    (rows,) = _q_rows((m,))
    return rows[0, ::-1].tolist()


def closed_spectrum(spec: ConeSpec, group_tol: float = GROUP_TOL) -> QSpectrum:
    """Spectrum of any cone spec from its blocks' explicit values and one
    eigensolve of the main-part quotient, with a source tag per value."""
    main = _main_values(spec)
    roots = _quotient_values(spec.n, main)
    kind = "quartic" if len(roots) == 4 else "quotient"
    tagged = [(r, f"{kind}-{i}") for i, r in enumerate(roots, start=1)]
    for value, (_, copies, tag) in main.items():
        tagged += [(value, tag)] * (copies - 1)
    # spare copies, path and claw values come before cycle values, so where
    # a constant equals a cycle value the constant's tag is listed first
    values, sources = zip(*tagged, *_plain_values(spec))
    return QSpectrum(values, group_tol=group_tol, sources=sources)


def largest_q_eigenvalue(spec: ConeSpec) -> float:
    """Largest signless-Laplacian eigenvalue of any cone spec: the top root
    of its main-part quotient.

    On cycles/digons + K2 + K1 cones it depends only on (n, q, s), so
    redistributing vertices among cycle and digon blocks cannot change it.
    """
    return _quotient_values(spec.n, _main_values(spec))[0]


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
    for by two K2s, with its closed-form (S4, T4) shifts.  Shares order, size,
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
    mt, mc = moments_closed_form(spec), moments_closed_form(candidate)
    ds4, dt4 = mc.s4 - mt.s4, mc.t4 - mt.t4
    if dt4 != 0:
        raise ConstructionError(f"candidate moment shift {dt4} should be zero")
    return candidate, ds4, dt4
