"""Shared test utilities: random graphs and independent oracles.

The graph builders (`from_edges`, `path_graph`, `cycle_graph`, `digon`,
`complete_graph`, `star_graph`, `disjoint_union`, `cone`) and
`g_family_spec` assemble cones block by block, independently of `realize`.
`eigenvector_families` builds the paper's explicit eigenbasis of the G and
F families, which the tests check by its residuals against Q.

The counters here are deliberately written in the dumbest possible way
(subset enumeration) so they share no code path with the package's
`count_subgraphs` and `t_bar_f_bar`.  `exact_traces` takes matrix powers
in Python integers, the reference for `moments_from_counts` and for the
cone moments of every order that `moments._cone_traces` reads off block
walk sums.  The
cyclic plane-rotation (Jacobi) eigensolver and the principal-minor
characteristic polynomial are independent checks on LAPACK and on the
quotient quartic.  The paper's quartic, with its coefficients, root
brackets and bisection, is the oracle for the four quotient values of the
closed G and F spectra.  The brute-path family search realizes and brute-counts
every candidate of the partition-loop enumeration, the reference for the
closed-form moment filter and for the union of the signature slices.  The
brute exhaustive search sweeps every labelled mask and dedupes pairwise
with the backtracking `isomorphic`, the reference for the class-extension
scan and the orbit dedupe.  The filter-by-filter scan over int64 Q stacks
is the reference for the packed moment-key lookup.  Relabelled masks
gathered from `itertools.permutations` are the reference for the
relabelling table, and their `np.isin` dedupe for the one-orbit class
split.  The bit-by-bit graph6 loops are the reference for the array codec.
`edge_deleted` and `vertex_deleted` build a deletion subgraph through the
checked constructor, the reference for the probes' edits of Q.
`eager_groups` splits a sorted list in a Python loop and takes numpy's
`mean`, the reference for the groups the command line prints.
"""

import string
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from qcones import (
    ConeSpec,
    FormatError,
    MultiGraph,
    ParameterError,
    QSpectrum,
    ScaleError,
    SearchHit,
    SearchReport,
    moments_from_counts,
    q_spectrum,
    realize,
    spectrum_compare,
)
from qcones import eigen
from qcones.eigen import GROUP_TOL, Group
from qcones.cones import _main_values, _quotient_values
from qcones.family import _family_with_signature, _partitions, _path_blocks, _profile
from qcones.graph6 import MAX_GRAPH6_VERTICES
from qcones.graphs import _blocks
from qcones.moments import _cone_traces
from qcones.orbits import _classes, _q_stack
from qcones.search import _spectra

# matrices per chunk of the batched eigensolve in the chunk-invariance
# tests; None keeps the default CHUNK_ENTRIES
CHUNK_SIZES = (1, 3, None)


def set_chunk(monkeypatch, matrices, order: int) -> None:
    """Make each chunk of order-`order` Q matrices hold `matrices` of them."""
    if matrices is not None:
        monkeypatch.setattr(eigen, "CHUNK_ENTRIES", matrices * order * order)


OFF_DIAGONAL_FACTOR = 1e-13
_MAX_SWEEPS = 64
MAX_ISO_VERTICES = 16


def random_graph(rng, n: int, p: float) -> MultiGraph:
    """Erdos-Renyi simple graph on n vertices with edge probability p."""
    arr = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arr[u, v] = arr[v, u] = 1
    return MultiGraph(arr)


def random_cone_spec(rng, max_path: int) -> ConeSpec:
    """Cycles of length 2..9 (2 a digon), paths of order 1..max_path and 0-2
    claws, at least one block."""
    while True:
        cycles = [rng.randint(2, 9) for _ in range(rng.randint(0, 3))]
        paths = [rng.randint(1, max_path) for _ in range(rng.randint(0, 5))]
        stars = rng.randint(0, 2)
        if cycles or paths or stars:
            return ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=stars)


def from_edges(n: int, edges) -> MultiGraph:
    """Build from an edge list; repeated pairs accumulate multiplicity."""
    if n < 1:
        raise ParameterError("need at least one vertex")
    arr = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ParameterError(f"bad edge ({u}, {v}) for n={n}")
        arr[u, v] += 1
        arr[v, u] += 1
    return MultiGraph(arr)


def edge_deleted(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """g less one parallel copy of the edge uv."""
    arr = g.mult.copy()
    arr[u, v] -= 1
    arr[v, u] -= 1
    return MultiGraph(arr)


def vertex_deleted(g: MultiGraph, v: int) -> MultiGraph:
    """The subgraph induced on every vertex but v, in their order."""
    keep = [u for u in range(g.n) if u != v]
    return MultiGraph(g.mult[np.ix_(keep, keep)])


def path_graph(length: int) -> MultiGraph:
    """Path on `length` vertices, labeled 0..length-1 along the chain."""
    if length < 1:
        raise ParameterError("path needs length >= 1")
    return from_edges(length, [(i, i + 1) for i in range(length - 1)])


def cycle_graph(k: int) -> MultiGraph:
    """Simple cycle 0-1-...-(k-1)-0; use digon() for the length-2 multigraph cycle."""
    if k < 3:
        raise ParameterError("simple cycle needs k >= 3")
    return from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def digon() -> MultiGraph:
    """Two vertices joined by two parallel edges."""
    return MultiGraph([[0, 2], [2, 0]])


def complete_graph(n: int) -> MultiGraph:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    return from_edges(n, combinations(range(n), 2))


def star_graph(n: int) -> MultiGraph:
    """Star on n vertices: leaves 0..n-2, center n-1 (center last)."""
    if n < 2:
        raise ParameterError("star needs n >= 2")
    return from_edges(n, [(i, n - 1) for i in range(n - 1)])


def disjoint_union(graphs) -> MultiGraph:
    graphs = list(graphs)
    if not graphs:
        raise ParameterError("union of no graphs")
    n = sum(g.n for g in graphs)
    arr = np.zeros((n, n), dtype=np.int64)
    offset = 0
    for g in graphs:
        arr[offset:offset + g.n, offset:offset + g.n] = g.mult
        offset += g.n
    return MultiGraph(arr)


def cone(base: MultiGraph) -> MultiGraph:
    """Join a new apex to every vertex of `base`; the apex gets the last label."""
    n = base.n
    arr = np.zeros((n + 1, n + 1), dtype=np.int64)
    arr[:n, :n] = base.mult
    arr[n, :n] = 1
    arr[:n, n] = 1
    return MultiGraph(arr)


def g_family_spec(cycles, q: int, s: int) -> ConeSpec:
    """Cycles + q K2 blocks + s isolated vertices."""
    if q < 0 or s < 0:
        raise ParameterError("q and s must be >= 0")
    return ConeSpec(cycles=tuple(cycles), paths=(2,) * q + (1,) * s)


def is_f_family(spec: ConeSpec) -> bool:
    """One star block plus cycles (>= 3), K2s and isolated vertices."""
    return (
        spec.stars13 == 1
        and spec.q >= 1
        and all(k >= 3 for k in spec.cycles)
        and all(l <= 2 for l in spec.paths)
    )


def power_sum(spec: QSpectrum, r: int) -> float:
    """The r-th power sum of a spectrum's values."""
    return float((spec.values ** r).sum())


def eager_groups(values, tol, sources=None) -> tuple[Group, ...]:
    """Consecutive descending values split where they gap by more than tol."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    vals = [values[i] for i in order]
    tags = [sources[i] for i in order] if sources is not None else None
    groups, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i - 1] - vals[i] > tol:
            members = tuple(sorted(set(tags[start:i]))) if tags is not None else ()
            groups.append(Group(float(np.mean(vals[start:i])), i - start, members))
            start = i
    return tuple(groups)


def multiplicity_at(spec: QSpectrum, x: float, tol: float = 1e-7) -> int:
    """Total size of the groups at GROUP_TOL, the command line's default,
    whose value lies within tol of x."""
    groups = eager_groups(spec.values.tolist(), GROUP_TOL)
    return sum(g.multiplicity for g in groups if abs(g.value - x) <= tol)


def cone_from_builders(spec: ConeSpec) -> MultiGraph:
    """The cone of a spec from the named builders, in the documented vertex
    order: isolated vertices, K2s, longer paths (descending), cycles
    (descending), claws (center last), apex last."""
    short = sorted(l for l in spec.paths if l <= 2)
    long = sorted((l for l in spec.paths if l >= 3), reverse=True)
    blocks = [path_graph(l) for l in short + long]
    blocks += [digon() if k == 2 else cycle_graph(k) for k in sorted(spec.cycles, reverse=True)]
    blocks += [star_graph(4)] * spec.stars13
    return cone(disjoint_union(blocks))


def _adj(g: MultiGraph):
    m = g.mult
    return lambda u, v: m[u, v] > 0


def naive_c3(g: MultiGraph) -> int:
    adj = _adj(g)
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if adj(a, b) and adj(b, c) and adj(a, c)
    )


def naive_c4(g: MultiGraph) -> int:
    adj = _adj(g)
    total = 0
    for quad in combinations(range(g.n), 4):
        for perm in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
            cyc = [quad[i] for i in perm]
            if all(adj(cyc[i], cyc[(i + 1) % 4]) for i in range(4)):
                total += 1
    return total


def naive_triangles_at(g: MultiGraph, v: int) -> int:
    adj = _adj(g)
    return sum(
        1
        for a, b in combinations(range(g.n), 2)
        if v not in (a, b) and adj(v, a) and adj(v, b) and adj(a, b)
    )


def naive_t_bar(g: MultiGraph) -> int:
    d = g.degrees()
    return 8 * sum(naive_triangles_at(g, v) * int(d[v]) for v in range(g.n))


def naive_f_bar(g: MultiGraph) -> int:
    adj = _adj(g)
    d = g.degrees()
    return 4 * sum(
        int(d[u]) * int(d[v])
        for u, v in combinations(range(g.n), 2)
        if adj(u, v)
    )


def exact_traces(matrix, order: int) -> tuple[int, ...]:
    """tr X^r for r = 1..order of a symmetric integer matrix, in Python
    integers: tr X^(i + j) = sum(X^i * X^j), from X^1..X^ceil(order / 2)."""
    x = np.asarray(matrix).astype(object)
    powers = [np.identity(len(x), dtype=object), x]
    while len(powers) <= (order + 1) // 2:
        powers.append(powers[-1] @ x)
    return tuple(int((powers[r // 2] * powers[r - r // 2]).sum()) for r in range(1, order + 1))


def exact_q_and_a_traces(g: MultiGraph, order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(tr Q^r, tr A^r) for r = 1..order of a graph, by `exact_traces`."""
    return exact_traces(np.diag(g.degrees()) + g.mult, order), exact_traces(g.mult, order)


def cone_traces(spec: ConeSpec, order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`moments._cone_traces` of a spec's blocks."""
    return _cone_traces(Counter((kind, size) for kind, _, size in _blocks(spec)), order)


def degree_profile(spec: ConeSpec) -> tuple[int, int, int, int]:
    """Base-vertex counts (n1, n2, n3, n4) by degree inside the cone, read
    off the spec's block sizes: n1 isolated vertices, n2 path endpoints and
    star leaves, n3 cycle and path-interior vertices, n4 star centers."""
    n3 = sum(spec.cycles) + sum(l - 2 for l in spec.paths if l >= 2)
    return spec.s, 2 * spec.q + 3 * spec.stars13, n3, spec.stars13


def signature(spec: ConeSpec) -> tuple[tuple[int, int, int, int], int, int, int]:
    """A spec's order-4 signature, the arguments of `family._signature_moments`:
    its degree profile and its numbers of C3, C4 and K2 blocks."""
    return degree_profile(spec), spec.cycles.count(3), spec.cycles.count(4), spec.paths.count(2)


# ---------------------------------------------------------------------------
# eigenvalue oracles
# ---------------------------------------------------------------------------

def _rotate(a: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    app = a[p, p]
    aqq = a[q, q]
    diff = aqq - app
    if abs(diff) > 1e150 * abs(apq):
        # tau or tau*tau would overflow; the angle degenerates to apq/diff
        t = apq / diff
    else:
        tau = diff / (2.0 * apq)
        if tau >= 0.0:
            t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
        else:
            t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    # explicit two-sided updates are more accurate than the matrix products
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = 0.0
    a[q, p] = 0.0


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending.

    Cyclic-by-row plane rotations run until the off-diagonal Frobenius norm
    is at most 1e-13 of the full norm.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("matrix must be square")
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-12 * scale:
        raise ParameterError("matrix is not symmetric within 1e-12 (relative)")
    a = 0.5 * (a + a.T)
    if n == 1:
        return a.diagonal().copy()
    norm = float(np.linalg.norm(a))
    target = OFF_DIAGONAL_FACTOR * norm
    for _ in range(_MAX_SWEEPS):
        off = float(np.linalg.norm(a - np.diag(a.diagonal())))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] != 0.0:
                    _rotate(a, p, q)
    else:
        raise ArithmeticError("plane rotations failed to converge")
    return np.sort(a.diagonal())[::-1].copy()


def _det3(sub: np.ndarray) -> float:
    return float(
        sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
        - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
        + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
    )


def char_poly_4x4(matrix) -> tuple[float, float, float, float, float]:
    """Monic characteristic polynomial coefficients of a 4x4 matrix.

    Principal-minor expansion; exact in float64 for the small integer
    matrices the tests feed it.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (4, 4):
        raise ParameterError("expected a 4x4 matrix")

    def principal(idx: tuple[int, ...]) -> float:
        sub = m[np.ix_(idx, idx)]
        if len(idx) == 2:
            return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
        return _det3(sub)

    e1 = float(m.trace())
    e2 = sum(principal(idx) for idx in combinations(range(4), 2))
    e3 = sum(principal(idx) for idx in combinations(range(4), 3))
    e4 = sum(
        (-1) ** j * m[0, j] * _det3(np.delete(np.delete(m, 0, axis=0), j, axis=1))
        for j in range(4)
    )
    return (1.0, -e1, float(e2), -float(e3), float(e4))


# ---------------------------------------------------------------------------
# the paper's quotient quartic, bisected
# ---------------------------------------------------------------------------

class BracketError(ArithmeticError):
    """A root bracket shows no sign change; the parameters are invalid."""


@dataclass(frozen=True)
class QuarticData:
    """Monic quartic coefficients plus one isolating bracket per root,
    stored with brackets in descending root order."""

    coeffs: tuple[float, float, float, float, float]
    brackets: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 5 or self.coeffs[0] != 1.0:
            raise ParameterError("need five coefficients with leading 1")
        if len(self.brackets) != 4:
            raise ParameterError("need four root brackets")

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def derivative(self, x: float) -> float:
        c4, c3, c2, c1, _ = self.coeffs
        return ((4.0 * c4 * x + 3.0 * c3) * x + 2.0 * c2) * x + c1


def quartic_roots(data: QuarticData) -> tuple[float, float, float, float]:
    """Bisect each bracket to width 1e-13 or to adjacent floats, then polish once.

    Raises if a bracket shows no sign change or a polished root r fails the
    root-error bound |p(r) / p'(r)| <= 1e-12 * max(1, |r|).
    """
    roots = []
    for lo, hi in data.brackets:
        flo = data(lo)
        fhi = data(hi)
        if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
            raise BracketError(f"no sign change on bracket ({lo}, {hi})")
        neg_left = flo < 0.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            # above 512 adjacent floats lie more than 1e-13 apart
            if mid == lo or mid == hi:
                break
            fmid = data(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid < 0.0) == neg_left:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        slope = data.derivative(root)
        if slope != 0.0:
            root -= data(root) / slope
        if abs(data(root)) > 1e-12 * max(1.0, abs(root)) * abs(data.derivative(root)):
            raise BracketError(f"polished root {root} fails the root-error bound")
        roots.append(root)
    if not all(a > b for a, b in zip(roots, roots[1:])):
        raise BracketError("brackets must isolate roots in descending order")
    return tuple(roots)


def _check_nqs(n: int, q: int, s: int) -> None:
    if q < 1 or s < 1:
        raise ParameterError("need q >= 1 and s >= 1")
    if n - 1 - 2 * q - s < 2:
        raise ParameterError(
            "order leaves no room for a cycle or digon block (need n-1-2q-s >= 2)"
        )


def quartic_coeffs(n: int, q: int, s: int) -> QuarticData:
    """The shared degree-4 factor of the cone families at parameters (n, q, s).

    Its roots are bracketed by (n, n+2), (4, 5), (2, 3) and (0, 1); a
    bracket without a sign change means the parameters are invalid.
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


# ---------------------------------------------------------------------------
# explicit eigenbasis of the G and F families
# ---------------------------------------------------------------------------

RESIDUAL_TOL = 1e-8


def residual(qm: np.ndarray, value: float, vec: np.ndarray) -> float:
    """Relative residual of Q v - value v."""
    err = qm @ vec - value * vec
    return float(np.abs(err).max() / max(1.0, np.abs(vec).max()))


def eigenvector_families(spec: ConeSpec) -> list[tuple[str, float, np.ndarray]]:
    """The paper's explicit eigenbasis of a family spec, as (label,
    eigenvalue, vector) triples.

    Labels and counts: 'eig-1' pendant/K2 difference vectors (s+q-1 of them),
    'eig-3' consecutive-K2 vectors (q-1), 'eig-5' cycle-pair vectors (t-1),
    'cycle-lift' zero-sum cycle vectors (k-1 per cycle), 'eig-2' star-leaf
    differences (2, one-star family only), and 'quartic' (4).
    """
    if not (spec.is_g_family() or is_f_family(spec)):
        raise ParameterError("eigenvector construction needs a family spec")
    walk = [(kind, list(range(first, first + size))) for kind, first, size in _blocks(spec)]
    iso = [b[0] for kind, b in walk if kind == "path" and len(b) == 1]
    k2 = [b for kind, b in walk if kind == "path" and len(b) == 2]
    cycles = [b for kind, b in walk if kind == "cycle"]
    claws = [(b[:3], b[3]) for kind, b in walk if kind == "claw"]
    n = spec.n
    out = []

    def add(label: str, value: float, entries) -> None:
        vec = np.zeros(n)
        for where, x in entries:
            vec[where] = x
        out.append((label, value, vec))

    for a, b in zip(iso, iso[1:]):
        add("eig-1", 1.0, [(a, 1.0), (b, -1.0)])
    for u, w in k2:
        add("eig-1", 1.0, [(u, 1.0), (w, -1.0)])
    for a, b in zip(k2, k2[1:]):
        add("eig-3", 3.0, [(a, 1.0), (b, -1.0)])
    for block, k in zip(cycles, spec.cycles):
        offsets = np.arange(k)
        for j in range(1, k):
            if j <= k // 2:
                lift = np.cos(2.0 * np.pi * j * offsets / k)
            else:
                lift = np.sin(2.0 * np.pi * (k - j) * offsets / k)
            add("cycle-lift", 3.0 + 2.0 * np.cos(2.0 * np.pi * j / k), [(block, lift)])
    for j in range(1, spec.t):
        add("eig-5", 5.0, [(cycles[0], -float(spec.cycles[j])), (cycles[j], float(spec.cycles[0]))])
    for leaves, center in claws:
        if iso:
            # the one eigenvalue-1 vector that couples a pendant to the star
            add("eig-1", 1.0, [(iso[0], 2.0), (leaves, -1.0), (center, 1.0)])
        for other in (leaves[1], leaves[2]):
            add("eig-2", 2.0, [(leaves[0], -1.0), (other, 1.0)])
        if spec.cycles:
            add("eig-5", 5.0, [(cycles[0], -6.0 / spec.cycles[0]), (leaves, 1.0), (center, 3.0)])
    for rho in _quotient_values(n, _main_values(spec)):
        entries = [(iso, 1.0 / (rho - 1.0)), (n - 1, 1.0)]
        entries += [(pair, 1.0 / (rho - 3.0)) for pair in k2]
        entries += [(block, 1.0 / (rho - 5.0)) for block in cycles]
        for leaves, center in claws:
            entries += [
                (leaves, (rho - 3.0) / ((rho - 1.0) * (rho - 5.0))),
                (center, (rho + 1.0) / ((rho - 1.0) * (rho - 5.0))),
            ]
        add("quartic", rho, entries)
    return out


# ---------------------------------------------------------------------------
# family search reference
# ---------------------------------------------------------------------------

def enumerate_family_by_partitions(profile) -> list[ConeSpec]:
    """The cone family of a profile from one loop over the partitions of the
    cycle and path-interior vertices, sorted: the reference for the union
    of the signature slices."""
    profile = tuple(int(x) for x in profile)
    p = _path_blocks(profile)
    if p is None:
        return []
    n1, _, n3, n4 = profile
    found: set[ConeSpec] = set()
    for csum in range(n3 + 1):
        interior = n3 - csum
        if p == 0 and interior:
            continue
        for cycles in _partitions(csum, min_part=3):
            for interiors in _partitions(interior, min_part=1, max_parts=p):
                pad = p - len(interiors)
                paths = tuple(i + 2 for i in interiors) + (2,) * pad + (1,) * n1
                if not cycles and not paths and not n4:
                    continue
                found.add(ConeSpec(cycles=cycles, paths=paths, stars13=n4))
    return sorted(found, key=lambda c: (c.stars13, c.cycles, c.paths))


def slices_union(profile) -> list[ConeSpec]:
    """The union of `_family_with_signature(profile, k3, k4, nk2)` over
    every (k3, k4, nk2), sorted like `enumerate_family_by_partitions`.
    Asserts that each spec has its slice's numbers of C3, C4 and K2 blocks
    and that no spec comes twice."""
    n3, q = profile[2], max(profile[1] - 3 * profile[3], 0) // 2
    built = []
    for k3 in range(n3 // 3 + 1):
        for k4 in range(n3 // 4 + 1):
            for nk2 in range(q + 1):
                for spec in _family_with_signature(profile, k3, k4, nk2):
                    assert spec.cycles.count(3) == k3
                    assert spec.cycles.count(4) == k4
                    assert spec.paths.count(2) == nk2
                    built.append(spec)
    assert len(built) == len(set(built))
    return sorted(built, key=lambda c: (c.stars13, c.cycles, c.paths))


@lru_cache(maxsize=None)
def _brute_moments(cand):
    # targets of one order and degree profile share their candidates
    return tuple(moments_from_counts(realize(cand))[:4])


def claw_level(profile, n4: int) -> tuple[int, ...]:
    """The profile n4 C3 + K1 -> K13 swaps away from the claw-free
    `profile` of `family._profile`: shifted by n4 times (-1, 3, -3, 1)."""
    return tuple(p + n4 * d for p, d in zip(profile, (-1, 3, -3, 1)))


def family_claw_counts(target: ConeSpec) -> range:
    """The claw counts n4 of the profiles the family search covers, read
    off the target: 0..#C3 + #claws for a simple target, since each claw
    swaps back for a C3 and a K1 and T3 fixes their sum.  A digon target
    has no such count, so it is the C3 count of the claw-free members whose
    brute-counted T1..T4 equal the target's (they share one), or 0 when no
    member matches."""
    if not target.has_digon():
        return range(target.cycles.count(3) + target.stars13 + 1)
    t = exact_q_and_a_traces(realize(target), 4)[0]
    profile = _profile(*t[:3], target.n)
    members = [] if profile is None else enumerate_family_by_partitions(profile)
    (k3,) = {c.cycles.count(3) for c in members if _brute_moments(c) == t} or {0}
    return range(k3 + 1)


def brute_search_family(target, tol: float = 1e-8) -> SearchReport:
    """search_family with the moment filter on realized, brute-counted
    members of the `claw_level`s of the target's `family._profile` at the
    claw counts of `family_claw_counts` (n <= 64)."""
    tspec = q_spectrum(realize(target))
    n = target.n
    t1, t2, t3, t4 = (round(power_sum(tspec, r)) for r in (1, 2, 3, 4))
    candidates, profile = {target}, _profile(t1, t2, t3, n)
    for n4 in family_claw_counts(target) if profile is not None else ():
        # a level with a negative entry enumerates nothing
        candidates.update(enumerate_family_by_partitions(claw_level(profile, n4)))
    hits = []
    for cand in candidates:
        if cand == target:
            hits.append(SearchHit(cand, 0.0, True))
            continue
        if _brute_moments(cand) != (t1, t2, t3, t4):
            continue
        dist = spectrum_compare(tspec, q_spectrum(realize(cand)))
        if dist <= tol:
            hits.append(SearchHit(cand, dist, False))
    hits.sort(key=lambda h: (
        h.distance, h.candidate.stars13, h.candidate.cycles, h.candidate.paths,
    ))
    return SearchReport(target, float(tol), tuple(hits), False, len(candidates))


# ---------------------------------------------------------------------------
# isomorphism oracle
# ---------------------------------------------------------------------------

def _refine(ag: np.ndarray, ah: np.ndarray):
    """Joint color refinement; None when the color histograms diverge."""
    n = ag.shape[0]
    cg = [int(x) for x in ag.sum(axis=1)]
    ch = [int(x) for x in ah.sum(axis=1)]
    while True:
        if sorted(cg) != sorted(ch):
            return None
        palette: dict = {}

        def recolor(a, colors):
            fresh = []
            for v in range(n):
                nbr = tuple(sorted(colors[u] for u in range(n) if a[v, u]))
                fresh.append(palette.setdefault((colors[v], nbr), len(palette)))
            return fresh

        ng, nh = recolor(ag, cg), recolor(ah, ch)
        if len(set(ng)) == len(set(cg)):
            return ng, nh
        cg, ch = ng, nh


def isomorphic(g: MultiGraph, h: MultiGraph) -> bool:
    """Exact isomorphism for simple graphs of order <= 16.

    Color refinement narrows the candidate images, then backtracking
    completes the decision.  Symmetric and invariant under relabeling.
    """
    if not (g.is_simple() and h.is_simple()):
        raise ParameterError("isomorphism testing covers simple graphs only")
    if g.n > MAX_ISO_VERTICES or h.n > MAX_ISO_VERTICES:
        raise ScaleError(f"isomorphism testing caps at {MAX_ISO_VERTICES} vertices")
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    ag, ah = g.mult, h.mult
    refined = _refine(ag, ah)
    if refined is None:
        return False
    cg, ch = refined
    n = g.n
    order = sorted(range(n), key=lambda v: (cg.count(cg[v]), cg[v], v))
    buckets: dict[int, list[int]] = {}
    for w in range(n):
        buckets.setdefault(ch[w], []).append(w)
    image = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in buckets.get(cg[v], ()):
            if used[w]:
                continue
            if all(ag[v, u] == ah[w, image[u]] for u in order[:i]):
                image[v] = w
                used[w] = True
                if place(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return place(0)


# ---------------------------------------------------------------------------
# exhaustive search reference
# ---------------------------------------------------------------------------

def _sweep(n: int, pairs, m: int, d2: int, t3: int, tvals, tol: float):
    """(mask, distance) of every labelled mask, in mask order, that passes
    the edge count, degree-square sum, third moment and eigenvalue filters."""
    k = len(pairs)
    masks = np.arange(1 << k, dtype=np.uint32).astype("<u4")
    bits = np.unpackbits(
        masks.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little"
    )[:, :k]
    keep = bits.sum(axis=1, dtype=np.int64) == m
    masks, bits = masks[keep], bits[keep].astype(np.int64)
    inc = np.zeros((k, n), dtype=np.int64)
    for e, (u, v) in enumerate(pairs):
        inc[e, u] = inc[e, v] = 1
    deg = bits @ inc
    keep = (deg * deg).sum(axis=1) == d2
    masks, bits, deg = masks[keep], bits[keep], deg[keep]
    iu = np.array([u for u, _ in pairs], dtype=np.intp)
    iv = np.array([v for _, v in pairs], dtype=np.intp)
    adj = np.zeros((masks.size, n, n), dtype=np.int64)
    adj[:, iu, iv] = bits
    adj[:, iv, iu] = bits
    tri6 = np.einsum("kij,kjl,kli->k", adj, adj, adj)
    keep = tri6 + (deg ** 3).sum(axis=1) + 3 * d2 == t3
    masks, adj, deg = masks[keep], adj[keep], deg[keep]
    if not masks.size:
        return []
    qm = adj.astype(np.float64)
    qm[:, np.arange(n), np.arange(n)] = deg
    dist = np.abs(np.linalg.eigvalsh(qm) - np.asarray(tvals)).max(axis=1)
    keep = dist <= tol
    return [(int(m), float(d)) for m, d in zip(masks[keep], dist[keep])]


def brute_search_exhaustive(target, tol: float = 1e-8) -> SearchReport:
    """search_exhaustive by sweeping all 2^(n choose 2) masks and deduping
    the survivors in mask order with pairwise `isomorphic`; n <= 7 keeps
    the sweep in memory.  Like the search, it keeps only the masks with the
    target's key (m, sum d^2, tr Q^3) at every tol."""
    tgraph = realize(target) if isinstance(target, ConeSpec) else target
    tspec = q_spectrum(tgraph)
    n = len(tspec)
    pairs = pair_order(n)
    t1, t2, t3 = (round(power_sum(tspec, r)) for r in (1, 2, 3))
    tvals = np.sort(tspec.values)
    compare = tgraph if tgraph.is_simple() else None
    hits = []
    for mask, dist in _sweep(n, pairs, t1 // 2, t2 - t1, t3, tvals, tol):
        arr = np.zeros((n, n), dtype=np.int64)
        for e, (u, v) in enumerate(pairs):
            if mask >> e & 1:
                arr[u, v] = arr[v, u] = 1
        g = MultiGraph(arr)
        if any(isomorphic(g, h.candidate) for h in hits):
            continue
        iso = compare is not None and isomorphic(g, compare)
        hits.append(SearchHit(g, 0.0 if iso else dist, iso))
    return SearchReport(target, float(tol), tuple(hits), True, 1 << len(pairs))


def extension_masks(n: int) -> np.ndarray:
    """rep | (S << C(n-1, 2)) for every class rep of order n - 1 and every
    S < 2^(n-1), row-major in (rep, S): the exhaustive scan's candidates."""
    low = (n - 1) * (n - 2) // 2
    reps = _classes(n - 1)
    return (reps[:, None] | (np.arange(1 << (n - 1), dtype=np.int64) << low)).ravel()


def qstack_scan(n: int, m: int, d2_t: int, t3_t: int, tvals, tol: float) -> list[int]:
    """The exhaustive scan filter by filter: edge count, then degree-square
    sum from the class degree rows, then tr(Q^3) of the int64 Q stack, then
    the batched eigensolve at `tol`; survivors in (rep, S) order."""
    reps = _classes(n - 1)
    rdeg = _q_stack(reps, n - 1).diagonal(axis1=1, axis2=2)
    sbits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    spop = sbits.sum(axis=1)
    ri, si = np.nonzero(rdeg.sum(axis=1)[:, None] // 2 + spop == m)
    # vertex n - 1 adds one to each neighbour's degree and has degree |S|
    d2 = ((rdeg[ri] + 2 * sbits[si]) * rdeg[ri]).sum(axis=1) + spop[si] * (spop[si] + 1)
    masks = extension_masks(n).reshape(reps.size, -1)[ri, si][d2 == d2_t]
    q = _q_stack(masks, n)
    keep = (q @ q * q).sum(axis=(1, 2)) == t3_t
    if not keep.any():
        return []
    return masks[keep][np.abs(_spectra(q[keep]) - tvals).max(axis=1) <= tol].tolist()


def mask_graph(mask: int, n: int) -> MultiGraph:
    """The simple graph on n vertices whose `pair_order` edges are the set
    bits of `mask`, one pair at a time."""
    arr = np.zeros((n, n), dtype=np.int64)
    for e, (u, v) in enumerate(pair_order(n)):
        if mask >> e & 1:
            arr[u, v] = arr[v, u] = 1
    return MultiGraph(arr)


@lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)


@lru_cache(maxsize=None)
def permutation_bits(n: int) -> np.ndarray:
    """(k, n!) table of 2^(position of the image of edge e under the p-th
    `itertools.permutations` of range(n)); positions from the closed
    `pair_order` index v (v - 1) / 2 + u of a pair u < v.  Kept, read-only."""
    perms = _permutations(n)
    rows = []
    for u, v in pair_order(n):
        a, b = perms[:, u], perms[:, v]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        rows.append(np.left_shift(1, hi * (hi - 1) // 2 + lo))
    bits = np.array(rows, dtype=np.int64).reshape(-1, perms.shape[0])
    bits.setflags(write=False)
    return bits


def permutation_orbit(mask: int, n: int) -> np.ndarray:
    """The masks of the n! relabellings of one graph, in
    `itertools.permutations` order, repeats included."""
    bits = permutation_bits(n)
    return bits[[e for e in range(bits.shape[0]) if mask >> e & 1]].sum(axis=0)


def isin_orbit_classes(masks: np.ndarray, n: int):
    """(first member, orbit) per isomorphism class among sorted masks, each
    orbit built from the permutations and dropped from the rest by
    `np.isin`."""
    while masks.size:
        first = int(masks[0])
        orbit = permutation_orbit(first, n)
        masks = masks[~np.isin(masks, orbit)]
        yield first, orbit


# ---------------------------------------------------------------------------
# bit-by-bit graph6 codec (reference for the array codec)
# ---------------------------------------------------------------------------

_HEADER = ">>graph6<<"


def pair_order(n: int) -> list[tuple[int, int]]:
    """The column-major upper-triangle pairs (0, 1), (0, 2), (1, 2), (0, 3),
    ... as a list: the reference for `graph6._pair_index`."""
    return [(u, v) for v in range(1, n) for u in range(v)]


def encode_graph6_bitwise(g: MultiGraph) -> str:
    if not g.is_simple():
        raise FormatError("graph6 encodes simple graphs only")
    n = g.n
    if n > MAX_GRAPH6_VERTICES:
        raise FormatError(f"graph6 short form capped at n <= {MAX_GRAPH6_VERTICES}")
    out = [chr(n + 63)]
    group = 0
    filled = 0
    for u, v in pair_order(n):
        group = (group << 1) | int(g.mult[u, v])
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = 0
            filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(group + 63))
    return "".join(out)


def decode_graph6_bitwise(text: str) -> MultiGraph:
    """The old decoder; it still reads a non-ASCII character as "?"."""
    s = text.strip(string.whitespace)
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise FormatError("empty graph6 string")
    data = s.encode("ascii", errors="replace")
    if any(b < 63 or b > 126 for b in data):
        raise FormatError("graph6 byte out of printable range")
    if data[0] == 126:
        raise FormatError("long-form graph6 sizes are not supported")
    n = data[0] - 63
    if n > MAX_GRAPH6_VERTICES:
        raise FormatError(f"graph6 short form capped at n <= {MAX_GRAPH6_VERTICES}")
    if n < 1:
        raise FormatError("graph needs at least one vertex")
    npairs = n * (n - 1) // 2
    expected = 1 + (npairs + 5) // 6
    if len(data) != expected:
        raise FormatError(f"graph6 body has {len(data)} bytes, expected {expected}")
    bits = []
    for b in data[1:]:
        group = b - 63
        bits.extend((group >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[npairs:]):
        raise FormatError("non-zero padding bits")
    arr = np.zeros((n, n), dtype=np.int64)
    for bit, (u, v) in zip(bits, pair_order(n)):
        arr[u, v] = arr[v, u] = bit
    return MultiGraph(arr)
