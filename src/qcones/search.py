"""Cospectral-mate search, exhaustive small-order scans, and structural probes.

The family search enumerates cones over disjoint cycles, paths and at most
one 4-vertex star that share the target's order and moment data.  The
exhaustive search covers every labeled simple graph at desk scale, visiting
only those with the target's edge count and keeping one per isomorphism
class.  Probes re-check interlacing, nullity and largest-eigenvalue facts numerically.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

import numpy as np

from .errors import ParameterError, ScaleError, UnsupportedGraphError
from .graphs import ConeSpec, MultiGraph, components_and_bipartiteness, realize
from .graph6 import pair_order
from .eigen import QSpectrum, _eigvalsh, q_spectrum, spectrum_compare
from .moments import moments_closed_form, solve_degree_system

COSPECTRAL_TOL = 1e-8
PROBE_TOL = 1e-8
# strict inequalities pass only with this much clearance
STRICT_MARGIN = 1e-9

MAX_EXHAUSTIVE_VERTICES = 8
# the candidate count grows like the partitions of the base order
MAX_FAMILY_VERTICES = 64
MAX_ISO_VERTICES = 16

# masks paired per exhaustive scan block
_BLOCK = 1 << 20


@dataclass(frozen=True)
class SearchHit:
    """One candidate within tolerance of the target spectrum."""

    candidate: Union[ConeSpec, MultiGraph]
    distance: float
    isomorphic: bool


@dataclass(frozen=True)
class SearchReport:
    """Search outcome: deduplicated hits plus the space that was scanned."""

    target: object
    tolerance: float
    hits: tuple[SearchHit, ...]
    exhaustive: bool
    cardinality: int


# ---------------------------------------------------------------------------
# family enumeration
# ---------------------------------------------------------------------------

def _partitions(
    total: int,
    min_part: int = 1,
    max_part: int | None = None,
    max_parts: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` as non-increasing tuples of parts >= min_part."""
    if total == 0:
        yield ()
        return
    if max_parts is not None and max_parts <= 0:
        return
    hi = total if max_part is None else min(max_part, total)
    sub_parts = None if max_parts is None else max_parts - 1
    for first in range(hi, min_part - 1, -1):
        for rest in _partitions(total - first, min_part, first, sub_parts):
            yield (first,) + rest


def enumerate_family(n: int, profile: tuple[int, int, int, int]) -> list[ConeSpec]:
    """All cone specs of order n whose base realizes the degree profile.

    An inconsistent or infeasible profile yields an empty list rather than
    an error; infeasibility is a meaningful outcome for the callers.  Cycle
    lengths start at 3 (the candidate sets are simple), path orders at 1,
    and at most one star block is allowed.  The result is duplicate-free
    and sorted.
    """
    n1, n2, n3, n4 = (int(x) for x in profile)
    if min(n1, n2, n3, n4) < 0 or n1 + n2 + n3 + n4 != n - 1:
        return []
    if n4 > 1:
        return []
    endpoints = n2 - 3 * n4
    if endpoints < 0 or endpoints % 2:
        return []
    p = endpoints // 2
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


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------

def search_family(target: ConeSpec, tol: float = COSPECTRAL_TOL) -> SearchReport:
    """Scan all family candidates sharing the target's order and moments.

    Candidate degree profiles are recovered from the first three spectral
    moments (with and without a star block), enumerated, filtered on their
    closed-form integer moments, and only the survivors are realized and
    compared spectrally.  The target is always its own hit at distance zero.
    Targets above MAX_FAMILY_VERTICES raise ScaleError before enumeration.
    """
    if not isinstance(target, ConeSpec):
        raise ParameterError("family search expects a cone spec target")
    if target.n > MAX_FAMILY_VERTICES:
        raise ScaleError(
            f"family search supports n <= {MAX_FAMILY_VERTICES}, got n={target.n}"
        )
    tspec = q_spectrum(realize(target))
    n = target.n
    t1, t2, t3, t4 = (round(tspec.power_sum(r)) for r in (1, 2, 3, 4))
    candidates: set[ConeSpec] = {target}
    for n4 in (0, 1):
        counts = solve_degree_system(t1, t2, t3, n, n - 1, n4)
        if counts is None:
            continue
        n1c, n2c, n3c = counts
        candidates.update(enumerate_family(n, (n1c, n2c, n3c, n4)))
    hits = []
    for cand in candidates:
        if cand == target:
            hits.append(SearchHit(cand, 0.0, True))
            continue
        if moments_closed_form(cand)[:4] != (t1, t2, t3, t4):
            continue
        dist = spectrum_compare(tspec, q_spectrum(realize(cand)))
        if dist <= tol:
            hits.append(SearchHit(cand, dist, False))
    hits.sort(key=lambda h: (
        h.distance, h.candidate.stars13, h.candidate.cycles, h.candidate.paths,
    ))
    return SearchReport(
        target=target,
        tolerance=float(tol),
        hits=tuple(hits),
        exhaustive=False,
        cardinality=len(candidates),
    )


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def _mask_graph(mask: int, n: int, pairs) -> MultiGraph:
    arr = np.zeros((n, n), dtype=np.int64)
    for e, (u, v) in enumerate(pairs):
        if mask >> e & 1:
            arr[u, v] = arr[v, u] = 1
    return MultiGraph(arr)


@lru_cache(maxsize=None)
def _half_tables(n: int):
    """Split-half tables over the `pair_order` edge bits.

    The low half holds bits [0, k // 2), the high half the rest.  For each
    half and each popcount p, the entry is (masks, degrees, degree-square
    sums) of every sub-mask of that half with p edges, masks in ascending
    order and shifted to their place in the full mask.
    """
    pairs = pair_order(n)
    k = len(pairs)
    halves = []
    for lo, hi in ((0, k // 2), (k // 2, k)):
        width = hi - lo
        sub = np.arange(1 << width, dtype=np.int64)
        bits = (sub[:, None] >> np.arange(width)) & 1
        inc = np.zeros((width, n), dtype=np.int64)
        for e, (u, v) in enumerate(pairs[lo:hi]):
            inc[e, u] = inc[e, v] = 1
        deg = bits @ inc
        pop = bits.sum(axis=1)
        sq = (deg * deg).sum(axis=1).astype(np.float64)
        halves.append([
            (sub[pop == p] << lo, deg[pop == p].astype(np.uint8), sq[pop == p])
            for p in range(width + 1)
        ])
    return halves


@lru_cache(maxsize=None)
def _triangle_masks(n: int) -> np.ndarray:
    """The three-edge mask of every vertex triple."""
    pos = {pair: e for e, pair in enumerate(pair_order(n))}
    return np.array(
        [(1 << pos[u, v]) | (1 << pos[u, w]) | (1 << pos[v, w])
         for u, v, w in itertools.combinations(range(n), 3)],
        dtype=np.int64,
    )


def _blocks(n: int, m: int):
    """(a, b, r0, r1) for every split a + b = m of the edges between the
    halves, rows cut so that each block pairs at most _BLOCK masks."""
    low, high = _half_tables(n)
    for a in range(max(0, m - len(high) + 1), min(len(low) - 1, m) + 1):
        rows, cols = low[a][0].size, high[m - a][0].size
        step = max(1, _BLOCK // cols)
        for r0 in range(0, rows, step):
            yield a, m - a, r0, min(r0 + step, rows)


def _scan_block(args) -> list[tuple[int, float]]:
    """Scan the masks of one low x high block for graphs cospectral with the target.

    The block pairs rows [r0, r1) of the low half-masks with `a` edges with
    every high half-mask with `b` edges, so every mask has the target's edge
    count.  Filters in order: degree-square sum and third moment as exact
    integers, then a batched dense eigensolve at `tol`.  Returns (mask,
    spectral distance) for every mask that passes all three.
    """
    n, a, b, r0, r1, d2_t, t3_t, tvals, tol = args
    low, high = _half_tables(n)
    lmask, ldeg, lsq = (x[r0:r1] for x in low[a])
    hmask, hdeg, hsq = high[b]
    # sum over the vertices of (dl + dh)^2, exact in float64 at these sizes
    d2 = 2 * (ldeg.astype(np.float64) @ hdeg.T.astype(np.float64))
    d2 += lsq[:, None]
    d2 += hsq
    li, hi = np.nonzero(d2 == d2_t)
    if not li.size:
        return []
    masks = lmask[li] | hmask[hi]
    deg = ldeg[li].astype(np.int64) + hdeg[hi]
    tri = _triangle_masks(n)
    tri6 = 6 * ((masks[:, None] & tri) == tri).sum(axis=1)
    keep = tri6 + (deg ** 3).sum(axis=1) + 3 * d2_t == t3_t
    masks, deg = masks[keep], deg[keep]
    if not masks.size:
        return []
    pairs = pair_order(n)
    iu = np.array([u for u, _ in pairs], dtype=np.intp)
    iv = np.array([v for _, v in pairs], dtype=np.intp)
    bits = ((masks[:, None] >> np.arange(len(pairs))) & 1).astype(np.float64)
    qm = np.zeros((masks.size, n, n))
    qm[:, iu, iv] = bits
    qm[:, iv, iu] = bits
    idx = np.arange(n)
    qm[:, idx, idx] = deg
    dist = np.abs(_eigvalsh(qm) - np.asarray(tvals)).max(axis=1)
    keep = dist <= tol
    return [(int(m), float(d)) for m, d in zip(masks[keep], dist[keep])]


@lru_cache(maxsize=None)
def _edge_images(n: int) -> np.ndarray:
    """(n!, k) table: row p holds, for each `pair_order` edge, the position
    of its image under the p-th permutation of range(n)."""
    pairs = pair_order(n)
    pos = np.zeros((n, n), dtype=np.int64)
    for e, (u, v) in enumerate(pairs):
        pos[u, v] = pos[v, u] = e
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    return pos[perms[:, us], perms[:, vs]].astype(np.uint8)


def _orbit_classes(masks: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(representative, orbit) per isomorphism class among sorted masks.

    The representative is the lowest mask of its class; its orbit, the
    masks of all n! relabellings (with repeats), is exactly the set of
    labelled graphs isomorphic to it and is dropped from the rest.
    """
    img = _edge_images(n)
    while masks.size:
        rep = int(masks[0])
        cols = [e for e in range(img.shape[1]) if rep >> e & 1]
        orbit = (np.int64(1) << img[:, cols].astype(np.int64)).sum(axis=1)
        masks = masks[~np.isin(masks, orbit)]
        yield rep, orbit


def search_exhaustive(
    target, tol: float = COSPECTRAL_TOL, jobs: int = 1
) -> SearchReport:
    """Search every labeled simple graph on n vertices for cospectral mates.

    `target` may be a graph, a cone spec, or a spectrum; the order comes
    from the spectrum size and is capped at 8.  The first three moments fix
    the edge count m, the degree-square sum and the third moment as exact
    integers.  Stages:

    1. scan: split the `pair_order` edge bits into two halves and pair the
       low half-masks with a edges with the high half-masks with m - a
       edges, so only the C(k, m) masks with m edges are visited, in blocks
       of at most _BLOCK (`jobs` worker processes share the blocks, at
       most one per block and per CPU);
    2. filter each block on the degree-square sum (from the summed degree
       rows of the halves), then on the third moment (triangles counted by
       bit-mask);
    3. eigensolve the survivors in one batched call and keep those within
       `tol` of the target spectrum;
    4. dedupe by permutation orbits: the lowest remaining survivor is the
       next hit, and the masks of all its n! relabellings, exactly its
       isomorphism class, leave the survivor list.

    Hits are therefore class representatives in lowest-bitmask order.  A
    hit is isomorphic to the target when the target's own mask lies in its
    orbit; isomorphic hits report distance zero: equal graphs have equal
    spectra, solver noise aside.  `cardinality` is the whole space,
    2^(n choose 2).
    """
    tgraph: MultiGraph | None = None
    if isinstance(target, ConeSpec):
        tgraph = realize(target)
    elif isinstance(target, MultiGraph):
        tgraph = target
    if tgraph is not None:
        tspec = q_spectrum(tgraph)
    elif isinstance(target, QSpectrum):
        tspec = target
    else:
        tspec = QSpectrum(target)
    n = len(tspec)
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise ScaleError(
            f"exhaustive search supports n <= {MAX_EXHAUSTIVE_VERTICES}, got n={n}"
        )
    jobs = int(jobs)
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    pairs = pair_order(n)
    total = 1 << len(pairs)
    moments = [tspec.power_sum(r) for r in (1, 2, 3)]
    ints = [round(v) for v in moments]
    # non-integral moments cannot come from a graph; parity likewise
    if any(abs(v - i) > 0.4 for v, i in zip(moments, ints)) or ints[0] % 2:
        return SearchReport(target, float(tol), (), True, total)
    t1, t2, t3 = ints
    tvals = tuple(float(v) for v in np.sort(tspec.values))
    blocks = [
        (n, a, b, r0, r1, t2 - t1, t3, tvals, float(tol))
        for a, b, r0, r1 in _blocks(n, t1 // 2)
    ]
    # a forked pool starts all its workers at once
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        survivor_lists = [_scan_block(blk) for blk in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            survivor_lists = list(pool.map(_scan_block, blocks))
    survivors = sorted(itertools.chain.from_iterable(survivor_lists))
    distance = dict(survivors)
    tmask = None
    if tgraph is not None and tgraph.is_simple():
        tmask = sum(1 << e for e, (u, v) in enumerate(pairs) if tgraph.mult[u, v])
    hits: list[SearchHit] = []
    masks = np.array([m for m, _ in survivors], dtype=np.int64)
    for mask, orbit in _orbit_classes(masks, n):
        iso = tmask is not None and bool((orbit == tmask).any())
        hits.append(SearchHit(_mask_graph(mask, n, pairs), 0.0 if iso else distance[mask], iso))
    return SearchReport(target, float(tol), tuple(hits), True, total)


# ---------------------------------------------------------------------------
# isomorphism
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
        raise UnsupportedGraphError("isomorphism testing covers simple graphs only")
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
# cone recognition
# ---------------------------------------------------------------------------

def _classify_component(base: MultiGraph, comp: list[int]):
    sub = base.subgraph(comp).mult
    k = len(comp)
    if k == 1:
        return "path", 1
    if k == 2:
        m = int(sub[0, 1])
        if m == 1:
            return "path", 2
        if m == 2:
            return "cycle", 2
        return None
    if (sub > 1).any():
        return None
    deg = sub.sum(axis=1)
    edges = int(sub.sum()) // 2
    if edges == k and (deg == 2).all():
        return "cycle", k
    ordered = np.sort(deg)
    if edges == k - 1 and ordered[0] == 1 and ordered[1] == 1 and (ordered[2:] == 2).all():
        return "path", k
    if k == 4 and edges == 3 and list(ordered) == [1, 1, 1, 3]:
        return "star", 4
    return None


def _classify_base(base: MultiGraph) -> ConeSpec | None:
    mult = base.mult
    seen = [False] * base.n
    cycles: list[int] = []
    paths: list[int] = []
    stars = 0
    for start in range(base.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        head = 0
        while head < len(comp):
            v = comp[head]
            head += 1
            for u in np.nonzero(mult[v])[0]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(int(u))
        block = _classify_component(base, comp)
        if block is None:
            return None
        kind, size = block
        if kind == "cycle":
            cycles.append(size)
        elif kind == "path":
            paths.append(size)
        else:
            stars += 1
    return ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=stars)


def recognize_cone(g: MultiGraph) -> ConeSpec | None:
    """Recover the block structure of a cone over cycles, paths and stars.

    Looks for an apex joined simply to every other vertex whose removal
    leaves only cycles (digons included), paths, isolated vertices and
    4-vertex stars.  Returns None when no apex choice works.
    """
    if g.n < 2:
        return None
    mult = g.mult
    for apex in range(g.n):
        row = np.delete(mult[apex], apex)
        if not (row == 1).all():
            continue
        spec = _classify_base(g.without_vertex(apex))
        if spec is not None:
            return spec
    return None


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one structural probe: status plus a failure witness."""

    probe: str
    status: str
    witness: dict | None
    message: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _probe_edge_deletion(g: MultiGraph) -> ProbeResult:
    vals = q_spectrum(g).values
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.mult[u, v]
    ]
    if not edges:
        return ProbeResult("2.2", "skipped", None, "no edges to delete")
    for u, v in edges:
        sub = q_spectrum(g.without_edge(u, v)).values
        bad = np.nonzero(vals < sub - PROBE_TOL)[0]
        if bad.size:
            i = int(bad[0])
            return ProbeResult(
                "2.2",
                "fail",
                {
                    "edge": [u, v],
                    "index": i + 1,
                    "value": float(vals[i]),
                    "deleted_value": float(sub[i]),
                },
                f"eigenvalue {i + 1} rose after deleting edge ({u}, {v})",
            )
    return ProbeResult(
        "2.2", "pass", None, f"all {len(edges)} single-edge deletions interlace"
    )


def _probe_dominating_vertex(g: MultiGraph) -> ProbeResult:
    n = g.n
    doms = [
        v
        for v in range(n)
        if n >= 2 and all(g.mult[v, u] == 1 for u in range(n) if u != v)
    ]
    if not doms:
        return ProbeResult(
            "2.3", "skipped", None, "no vertex joined simply to all others"
        )
    vals = q_spectrum(g).values
    for v in doms:
        sub = q_spectrum(g.without_vertex(v)).values
        for i in range(n - 1):
            hi, lo = vals[i] - 1, vals[i + 1] - 1
            if sub[i] > hi + PROBE_TOL or sub[i] < lo - PROBE_TOL:
                return ProbeResult(
                    "2.3",
                    "fail",
                    {
                        "vertex": v,
                        "index": i + 1,
                        "value": float(sub[i]),
                        "upper": float(hi),
                        "lower": float(lo),
                    },
                    f"shifted interlacing fails at position {i + 1} "
                    f"after removing vertex {v}",
                )
    return ProbeResult(
        "2.3",
        "pass",
        None,
        f"shifted interlacing holds for {len(doms)} dominating vertex choices",
    )


def _probe_zero_multiplicity(g: MultiGraph) -> ProbeResult:
    mz = q_spectrum(g).multiplicity_at(0.0)
    _, bip = components_and_bipartiteness(g)
    if mz == bip:
        return ProbeResult(
            "2.4",
            "pass",
            None,
            f"zero multiplicity {mz} matches the bipartite component count",
        )
    return ProbeResult(
        "2.4",
        "fail",
        {"zero_multiplicity": mz, "bipartite_components": bip},
        "zero multiplicity disagrees with the bipartite component count",
    )


def _probe_degree_bound(g: MultiGraph) -> ProbeResult:
    comps, _ = components_and_bipartiteness(g)
    if g.n < 2 or comps != 1:
        return ProbeResult(
            "2.10", "skipped", None, "needs a connected graph on >= 2 vertices"
        )
    deg = np.sort(g.degrees())[::-1]
    d1, d2, dn = int(deg[0]), int(deg[1]), int(deg[-1])
    if d2 > 4 or not ((d1 >= 11 and dn == 1) or (d1 >= 8 and dn >= 2)):
        return ProbeResult(
            "2.10",
            "skipped",
            None,
            "degree hypotheses not met (needs second degree <= 4 and a "
            "large enough top degree)",
        )
    chi1 = float(q_spectrum(g).values[0])
    if chi1 <= d1 + 3 + PROBE_TOL:
        return ProbeResult(
            "2.10", "pass", None, f"largest eigenvalue {chi1:.6f} within {d1} + 3"
        )
    return ProbeResult(
        "2.10",
        "fail",
        {"chi1": chi1, "d1": d1},
        "largest eigenvalue exceeds the top degree by more than 3",
    )


def _probe_path_vs_cycle(g: MultiGraph) -> ProbeResult:
    spec = recognize_cone(g)
    if spec is None:
        return ProbeResult(
            "5.1", "skipped", None, "not a cone over recognizable blocks"
        )
    lengths = sorted({l for l in spec.paths if l >= 4})
    if not lengths:
        return ProbeResult("5.1", "skipped", None, "no path block of order >= 4")
    chi1 = float(q_spectrum(g).values[0])
    checked = 0
    for l in lengths:
        rest = list(spec.paths)
        rest.remove(l)
        if l == 4:
            swaps = [(2, 2)]
        else:
            swaps = [(r, l - r) for r in range(3, l - 1)]
        for cyc, tail in swaps:
            alt = ConeSpec(
                cycles=spec.cycles + (cyc,),
                paths=tuple(rest) + (tail,),
                stars13=spec.stars13,
            )
            rhs = float(q_spectrum(realize(alt)).values[0])
            checked += 1
            if chi1 >= rhs - STRICT_MARGIN:
                return ProbeResult(
                    "5.1",
                    "fail",
                    {"path": l, "cycle": cyc, "tail": tail, "lhs": chi1, "rhs": rhs},
                    "largest eigenvalue not strictly below the cycle rewiring",
                )
    return ProbeResult(
        "5.1",
        "pass",
        None,
        f"largest eigenvalue strictly below all {checked} cycle rewirings",
    )


_PROBES = {
    "2.2": _probe_edge_deletion,
    "2.3": _probe_dominating_vertex,
    "2.4": _probe_zero_multiplicity,
    "2.10": _probe_degree_bound,
    "5.1": _probe_path_vs_cycle,
}

PROBE_IDS = tuple(_PROBES)


def run_probe(g: MultiGraph, probe_id: str) -> ProbeResult:
    """Check one interface-numbered structural fact on a graph.

    Known ids: "2.2" edge-deletion interlacing, "2.3" dominating-vertex
    interlacing, "2.4" zero-eigenvalue multiplicity against bipartite
    components, "2.10" largest-eigenvalue degree bound, "5.1" strict
    path-versus-cycle comparisons.  Graphs outside a probe's hypotheses
    report "skipped", never "fail".
    """
    runner = _PROBES.get(str(probe_id))
    if runner is None:
        raise ParameterError(
            f"unknown probe id {probe_id!r}; expected one of {', '.join(PROBE_IDS)}"
        )
    return runner(g)
