"""Cospectral-mate search, exhaustive small-order scans, and structural probes.

The family search eigensolves only the candidates of `family._candidates`,
the family cones whose block signature gives the target's exact moments
T1..T4; it counts the others.  The exhaustive search covers every simple
graph on up to 8 vertices as the extensions of the isomorphism classes of
one order less (`qcones.orbits`): one key lookup on (m, sum d^2, tr Q^3),
the target's own orbit, a tr(Q^4) band, one batched eigensolve behind the
target, and a class split.  Cone recognition reads the blocks off each
component's sorted degrees.  Probes re-check interlacing, nullity and
largest-eigenvalue facts numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError, ScaleError
from .graphs import (
    ConeSpec,
    MultiGraph,
    _components,
    _dominating_vertices,
    components_and_bipartiteness,
    realize,
)
from .cones import largest_q_eigenvalue
from .graph6 import _pair_index
from .eigen import GROUP_TOL, _groups, _q_rows, q_matrix, q_spectrum
from .family import _candidates
from .orbits import _class_reps, _moment_matches, _orbit_members, _q_stack

COSPECTRAL_TOL = 1e-8
PROBE_TOL = 1e-8
# strict inequalities pass only with this much clearance
STRICT_MARGIN = 1e-9
# probe 2.2 eigensolves once per edge; edges * n^3 of 1e10 is a few seconds
EDGE_PROBE_BUDGET = 1e10

MAX_EXHAUSTIVE_VERTICES = 8
_SOLVER_ERROR = 1e-9  # per eigenvalue, allowed for in the exhaustive search's T4 band
# the candidate count grows like the partitions of the base order
MAX_FAMILY_VERTICES = 64


@dataclass(frozen=True)
class SearchHit:
    """One candidate within tolerance of the target spectrum."""

    candidate: Union[ConeSpec, MultiGraph]
    distance: float
    isomorphic: bool


@dataclass(frozen=True)
class SearchReport:
    """Search outcome: deduplicated hits plus the space that was scanned."""

    target: Union[ConeSpec, MultiGraph]
    tolerance: float
    hits: tuple[SearchHit, ...]
    exhaustive: bool
    cardinality: int


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------

def search_family(target: ConeSpec, tol: float = COSPECTRAL_TOL) -> SearchReport:
    """Scan all family candidates sharing the target's order and moments.

    `family._candidates`, the one home of the candidate rule, reads the
    target's exact moments T1..T4 off its blocks and gives the candidates,
    with any number of claws, and the `cardinality`.
    Their Q matrices follow the target's own Q through one chunked, batched
    eigensolve, and only the hits are kept, so memory does not grow with
    the number of matches.  The target is always its own hit at distance
    zero.  A `tol` that is negative or not finite raises ParameterError,
    and a target above MAX_FAMILY_VERTICES ScaleError, before enumeration.
    A candidate off T1..T4 is never reported, at any `tol`; a moment gap
    puts it 1 / (4 n M^3) away at least, M = 2 (n - 1) (2.0e-9 at n = 64,
    below the default tol from n = 43).
    """
    if not isinstance(target, ConeSpec):
        raise ParameterError("family search expects a cone spec target")
    if not 0.0 <= tol < np.inf:  # NaN too
        raise ParameterError(f"tol must be finite and >= 0, got {tol!r}")
    if target.n > MAX_FAMILY_VERTICES:
        raise ScaleError(
            f"family search supports n <= {MAX_FAMILY_VERTICES}, got n={target.n}"
        )
    cardinality, cands = _candidates(target)
    cands, feed = itertools.tee(cands)
    # the target's Q is row 0 of the candidates' batch
    rows = _q_rows(q_matrix(realize(c)) for c in itertools.chain((target,), feed))
    tvals = next(rows)
    hits = [SearchHit(target, 0.0, True)]
    for cand, row in zip(cands, rows):
        dist = np.abs(row - tvals).max()
        if dist <= tol:
            hits.append(SearchHit(cand, float(dist), False))
    hits.sort(key=lambda h: (
        h.distance, h.candidate.stars13, h.candidate.cycles, h.candidate.paths,
    ))
    return SearchReport(target, float(tol), tuple(hits), False, cardinality)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def _power_traces(q: np.ndarray) -> tuple[int, int, int, int]:
    """tr Q^r, r = 1..4, of a float64 Q = D + A (the exhaustive key and T4
    band), exact for a graph on n <= 8 vertices whose edge count fits the
    exhaustive key (its multiplicities then fit too)."""
    q2 = q @ q
    return tuple(int(v) for v in (q.trace(), (q * q).sum(), (q2 * q).sum(), (q2 * q2).sum()))


def _spectra(q: np.ndarray) -> np.ndarray:
    """Ascending spectra of a Q stack, one row each; (0, n) for an empty stack."""
    return np.array(list(_q_rows(q))).reshape(-1, q.shape[-1])


def search_exhaustive(target, tol: float = COSPECTRAL_TOL) -> SearchReport:
    """Search every labeled simple graph on n vertices for cospectral mates.

    `target` is a graph or a cone spec (anything else raises
    ParameterError, as does a `tol` that is negative or not finite); the
    order is capped at 8.  The key (m, sum d^2, tr Q^3) comes from exact
    integer traces of the target's Q, and only its matches are reported,
    at any `tol`: a T3 gap of 1 puts a graph 1 / (3 n M^2) away at least
    (M of stage 3; 2.1e-4 at n = 8).

    1. lookup: every graph is isomorphic to an extension of a class of
       order n - 1 by vertex n - 1.  `_extension_moments(n)`, built on the
       first search of order n, packs the key of each extension of
       `_classes(n - 1)` (9 984 at n = 7, 133 632 at n = 8) in one integer,
       and one comparison picks the extensions with the target's key;
    2. own orbit: a simple target's sorted relabelling orbit drops every
       match in it (`orbits._orbit_members`).  Its class is a hit at
       distance zero, never solved: equal graphs have equal spectra,
       solver noise aside;
    3. T4 band: only the matches whose exact tr(Q^4) lies within 4 n M^3
       (tol + 1e-9) of the target's go on, M = 2 max(n - 1, max degree);
       under 1 (tol below 1.14e-5 at n = 8), that is the target's T4 alone;
    4. eigensolve the matches left in one batch, with the target's Q as
       row 0, and keep the ones within `tol` of the target spectrum; with
       no match left nothing is solved;
    5. split the survivors into classes (`orbits._class_reps`: one sorted
       orbit per class, found by binary search), and report each class
       whose representative, its lowest mask, is within `tol` too, from
       one more batch.

    Hits are therefore class representatives in lowest-bitmask order, the
    target's own among them when it is simple; that one is the only hit
    isomorphic to the target.  A multigraph target has no orbit, so stage 2
    drops nothing.  `cardinality` is the whole space, 2^(n choose 2).
    """
    if not isinstance(target, (ConeSpec, MultiGraph)):
        raise ParameterError("exhaustive search expects a graph or cone spec target")
    if not 0.0 <= tol < np.inf:  # NaN too
        raise ParameterError(f"tol must be finite and >= 0, got {tol!r}")
    n = target.n
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise ScaleError(
            f"exhaustive search supports n <= {MAX_EXHAUSTIVE_VERTICES}, got n={n}"
        )
    # realized only under the cap
    tgraph = realize(target) if isinstance(target, ConeSpec) else target
    q = q_matrix(tgraph)
    t1, t2, t3, t4 = _power_traces(q)
    masks = _moment_matches(n, t1 // 2, t2 - t1, t3)
    own, hits = None, {}
    if tgraph.is_simple():  # its own class is a hit at 0.0: no member is solved
        bits = tgraph.mult[_pair_index(n)]
        own, found = _orbit_members(
            int(bits @ np.left_shift(1, np.arange(bits.size))), n, masks.astype(np.int32)
        )
        masks = masks[~found]
        hits[own] = 0.0
    if masks.size:
        stack = _q_stack(masks, n)
        # Q eigenvalues of both lie in [0, M], M = 2 max(n - 1, max degree), so |T4 - T4'|
        # <= 4 n M^3 x distance: a match outside this band lies beyond tol + solver error
        band = (tol + _SOLVER_ERROR) * 4 * n * (2 * max(n - 1, q.diagonal().max())) ** 3
        near = np.abs(np.square(stack @ stack).sum(axis=(1, 2)) - t4) <= band
        masks, stack = masks[near], stack[near]
    if masks.size:  # with no match left there is no other class to solve
        rows = _spectra(np.concatenate([q[None], stack]))
        survivors = masks[np.abs(rows[1:] - rows[0]).max(axis=1) <= tol]
        reps = _class_reps(survivors, n)
        dists = np.abs(_spectra(_q_stack(reps, n)) - rows[0]).max(axis=1)
        hits.update((r, d) for r, d in zip(reps.tolist(), dists.tolist()) if d <= tol)
    keep = sorted(hits)
    adj = _q_stack(np.array(keep, dtype=np.int64), n)
    adj[:, np.arange(n), np.arange(n)] = 0  # the representatives' adjacency
    return SearchReport(
        target, float(tol),
        tuple(SearchHit(MultiGraph._wrap(a), hits[k], k == own) for k, a in zip(keep, adj)),
        True, 1 << n * (n - 1) // 2,
    )


# ---------------------------------------------------------------------------
# cone recognition
# ---------------------------------------------------------------------------

def _base_spec(g: MultiGraph, deg: list[int], apex: int) -> ConeSpec | None:
    """The blocks of the cone base left by deleting `apex`, read off each
    component's sorted base degrees `deg` (multiplicities counted); None if
    some component is no block."""
    cycles: list[int] = []
    paths: list[int] = []
    stars = 0
    for comp, _ in _components(g, apex):
        d = sorted(deg[v] for v in comp)
        k = len(d)
        if d == [2] * k:
            cycles.append(k)
        elif d == [0] or d == [1, 1] + [2] * (k - 2):
            paths.append(k)
        elif d == [1, 1, 1, 3]:
            stars += 1
        else:
            return None
    return ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=stars)


def recognize_cone(g: MultiGraph) -> ConeSpec | None:
    """Recover the block structure of a cone over cycles, paths and stars.

    Tries each apex joined simply to every other vertex, lowest first, and
    classifies the components of the rest by their sorted degrees: [0] is
    P1, [1, 1, 2, ..., 2] is P_k, [2, ..., 2] is C_k ([2, 2] the digon) and
    [1, 1, 1, 3] is K13; anything else is no cone base.  The degrees are
    enough: a connected simple graph with these degrees is a path, a cycle
    or a claw; a multiple edge inside a component of three or more vertices
    gives one of its ends degree >= 3, and [1, 1, 1, 3] has no second vertex
    of degree >= 2 for its other end; on two vertices the degree is the
    multiplicity.  The base is read off the cone's own degrees and
    neighbour lists.  Returns None when no apex choice works.
    """
    if g.n < 2:
        return None
    deg = (g.degrees() - 1).tolist()  # less each vertex's edge to the apex
    for apex in _dominating_vertices(g).tolist():
        spec = _base_spec(g, deg, apex)
        if spec is not None:
            return spec
    return None


# ---------------------------------------------------------------------------
# probes: each runner returns (status, witness, message)
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


def _probe_edge_deletion(g: MultiGraph):
    us, vs = np.nonzero(np.triu(g.mult, 1))
    edges = list(zip(us.tolist(), vs.tolist()))
    if not edges:
        return "skipped", None, "no edges to delete"
    if len(edges) * g.n ** 3 > EDGE_PROBE_BUDGET:
        raise ScaleError(
            f"edge-deletion probe needs {len(edges)} eigensolves at n={g.n}; "
            f"edges * n^3 must stay <= {EDGE_PROBE_BUDGET:g}"
        )
    # g's own Q is row 0; deleting uv (one copy of a digon) takes off b b^T
    q = q_matrix(g)
    bs = (np.bincount((u, v), minlength=g.n) for u, v in edges)  # b = e_u + e_v
    rows = _q_rows(itertools.chain((q,), (q - np.outer(b, b) for b in bs)))
    vals = next(rows)[::-1]
    # Q(g) = Q(g - uv) + b b^T: lambda_i(g) >= lambda_i(g - uv) >= lambda_{i+1}(g), or 0
    lo = np.append(vals[1:], 0.0)
    for (u, v), row in zip(edges, rows):
        sub = row[::-1]
        bad = np.nonzero((vals < sub - PROBE_TOL) | (sub < lo - PROBE_TOL))[0]
        if bad.size:
            i = int(bad[0])
            moved = "rose" if vals[i] < sub[i] - PROBE_TOL else "fell below its lower bound"
            return (
                "fail",
                {
                    "edge": [u, v],
                    "index": i + 1,
                    "value": float(vals[i]),
                    "deleted_value": float(sub[i]),
                },
                f"eigenvalue {i + 1} {moved} after deleting edge ({u}, {v})",
            )
    return "pass", None, f"all {len(edges)} single-edge deletions interlace"


def _probe_dominating_vertex(g: MultiGraph):
    doms = _dominating_vertices(g).tolist() if g.n >= 2 else []
    if not doms:
        return "skipped", None, "no vertex joined simply to all others"
    # g's Q is solved on its own: the deletions have order n - 1
    q, eye = q_matrix(g), np.eye(g.n - 1)
    vals = next(_q_rows((q,)))[::-1]
    hi, lo = vals[:-1] - 1, vals[1:] - 1
    # v has a simple edge to each other vertex: its deletion lowers each degree
    subs = _q_rows(np.delete(np.delete(q, v, 0), v, 1) - eye for v in doms)
    for v, row in zip(doms, subs):
        sub = row[::-1]
        bad = np.nonzero((sub > hi + PROBE_TOL) | (sub < lo - PROBE_TOL))[0]
        if bad.size:
            i = int(bad[0])
            return (
                "fail",
                {
                    "vertex": v,
                    "index": i + 1,
                    "value": float(sub[i]),
                    "upper": float(hi[i]),
                    "lower": float(lo[i]),
                },
                f"shifted interlacing fails at position {i + 1} "
                f"after removing vertex {v}",
            )
    return "pass", None, f"shifted interlacing holds for {len(doms)} dominating vertex choices"


def _probe_zero_multiplicity(g: MultiGraph):
    groups = _groups(q_spectrum(g).values, GROUP_TOL)
    mz = sum(m for value, m, _ in groups if abs(value) <= 1e-7)
    _, bip = components_and_bipartiteness(g)
    if mz == bip:
        return "pass", None, f"zero multiplicity {mz} matches the bipartite component count"
    return (
        "fail",
        {"zero_multiplicity": mz, "bipartite_components": bip},
        "zero multiplicity disagrees with the bipartite component count",
    )


def _probe_degree_bound(g: MultiGraph):
    comps, _ = components_and_bipartiteness(g)
    if g.n < 2 or comps != 1:
        return "skipped", None, "needs a connected graph on >= 2 vertices"
    deg = np.sort(g.degrees())[::-1]
    d1, d2, dn = int(deg[0]), int(deg[1]), int(deg[-1])
    if d2 > 4 or not ((d1 >= 11 and dn == 1) or (d1 >= 8 and dn >= 2)):
        return "skipped", None, (
            "degree hypotheses not met (needs second degree <= 4 and a "
            "large enough top degree)"
        )
    chi1 = float(q_spectrum(g).values[0])
    if chi1 <= d1 + 3 + PROBE_TOL:
        return "pass", None, f"largest eigenvalue {chi1:.6f} within {d1} + 3"
    return (
        "fail",
        {"chi1": chi1, "d1": d1},
        "largest eigenvalue exceeds the top degree by more than 3",
    )


def _probe_path_vs_cycle(g: MultiGraph):
    spec = recognize_cone(g)
    if spec is None:
        return "skipped", None, "not a cone over recognizable blocks"
    lengths = sorted({l for l in spec.paths if l >= 4})
    if not lengths:
        return "skipped", None, "no path block of order >= 4"
    # each value reads the spec alone, so g's labelling cannot change it
    chi1 = largest_q_eigenvalue(spec)
    rewirings = [(l, c) for l in lengths for c in ([2] if l == 4 else range(3, l - 1))]
    for l, cyc in rewirings:
        rest = list(spec.paths)
        rest.remove(l)
        tail = l - cyc
        rhs = largest_q_eigenvalue(ConeSpec(spec.cycles + (cyc,), (*rest, tail), spec.stars13))
        if chi1 > rhs + STRICT_MARGIN:
            return (
                "fail",
                {"path": l, "cycle": cyc, "tail": tail, "lhs": chi1, "rhs": rhs},
                "largest eigenvalue not strictly below the cycle rewiring",
            )
        if chi1 >= rhs - STRICT_MARGIN:
            # a gap this small cannot be told from zero in float64 (on
            # K1 v Pl + K2 + K1 it sinks under resolution from l = 14)
            return "skipped", None, (
                f"rewiring P{l} into C{cyc} + P{tail} is unresolved: its gap "
                f"{rhs - chi1:.3g} lies within +-{STRICT_MARGIN:g}"
            )
    return "pass", None, f"largest eigenvalue strictly below all {len(rewirings)} cycle rewirings"


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
    report "skipped", never "fail"; so does a 5.1 rewiring whose gap lies
    within STRICT_MARGIN.  "2.2" solves Q - b b^T, b = e_u + e_v, per edge
    uv and "2.3" Q less a row and column, less I, per dominating vertex.
    "5.1" reads the top roots of the recognized spec's and its rewirings'
    main-part quotients, so g's labelling cannot change its result.  "2.2"
    raises ScaleError when edges * n^3 exceeds EDGE_PROBE_BUDGET.
    """
    runner = _PROBES.get(str(probe_id))
    if runner is None:
        raise ParameterError(
            f"unknown probe id {probe_id!r}; expected one of {', '.join(PROBE_IDS)}"
        )
    return ProbeResult(str(probe_id), *runner(g))
