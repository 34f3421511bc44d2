"""Multigraph carrier, common-neighbour structure counts, cone specs and
their realization, and the cone spec text grammar.

Vertices are always 0..n-1.  Edge multiplicities live in a symmetric integer
matrix with zero diagonal; a digon (one vertex pair joined by two parallel
edges) is stored as multiplicity 2.  Simple graphs are exactly those with all
multiplicities <= 1.

`realize` numbers a cone spec's vertices block by block: isolated vertices,
K2s, longer paths in descending order, cycles in descending order, claws
(three leaves, then the center), and the apex last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import FormatError, ParameterError, ScaleError

MAX_VERTICES = 4096

# Order cap of the common-neighbour counts (ScaleError, exit 5, above it).
# Not a precision bound: every count stays exact in float64 up to MAX_VERTICES.
MAX_COUNT_VERTICES = 64


class MultiGraph:
    """Undirected multigraph backed by an immutable multiplicity matrix."""

    __slots__ = ("_mult",)

    def __init__(self, mult) -> None:
        arr = np.array(mult, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ParameterError("multiplicity matrix must be square")
        n = arr.shape[0]
        if not 1 <= n <= MAX_VERTICES:
            raise ParameterError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if (arr < 0).any():
            raise ParameterError("multiplicities must be non-negative")
        if np.diagonal(arr).any():
            raise ParameterError("loops are not supported (diagonal must be zero)")
        if not np.array_equal(arr, arr.T):
            raise ParameterError("multiplicity matrix must be symmetric")
        arr.setflags(write=False)
        self._mult = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "MultiGraph":
        """A multigraph on `arr` itself, made read-only, with none of the
        constructor's copy and checks: only for int64 matrices valid by
        construction (square, order 1..MAX_VERTICES, non-negative entries,
        zero diagonal, symmetric)."""
        g = cls.__new__(cls)
        arr.setflags(write=False)
        g._mult = arr
        return g

    @property
    def n(self) -> int:
        return self._mult.shape[0]

    @property
    def mult(self) -> np.ndarray:
        """Read-only multiplicity matrix."""
        return self._mult

    def degrees(self) -> np.ndarray:
        return self._mult.sum(axis=1)

    @property
    def num_edges(self) -> int:
        """Edge count with multiplicity."""
        return int(self._mult.sum()) // 2

    def is_simple(self) -> bool:
        return bool((self._mult <= 1).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._mult, other._mult)

    def __hash__(self) -> int:
        return hash((self.n, self._mult.tobytes()))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.num_edges})"


def _components(g: MultiGraph, skip: int = -1) -> list[tuple[list[int], bool]]:
    """Each component's vertices (in breadth-first order) and whether it is
    bipartite, from one 2-coloring walk; vertex `skip`, if any, is left out
    as if deleted.

    Parallel edges do not affect 2-colorability: a digon joins the two color
    classes like a single edge, so a bare digon component is bipartite.
    """
    rows, cols = np.nonzero(g.mult)  # row-major: each row's columns in a run
    bounds = np.searchsorted(rows, np.arange(g.n + 1)).tolist()
    cols = cols.tolist()
    nbrs = [cols[a:b] for a, b in zip(bounds, bounds[1:])]
    # 2 marks `skip`: never a start, never equal to a 0/1 neighbour
    color = [2 if v == skip else -1 for v in range(g.n)]
    comps = []
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        comp = [start]
        bipartite = True
        for u in comp:  # comp grows while it is walked: a queue
            for v in nbrs[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    comp.append(v)
                elif color[v] == color[u]:
                    bipartite = False
        comps.append((comp, bipartite))
    return comps


def components_and_bipartiteness(g: MultiGraph) -> tuple[int, int]:
    """(number of components, number of bipartite components)."""
    comps = _components(g)
    return len(comps), sum(bipartite for _, bipartite in comps)


def _dominating_vertices(g: MultiGraph) -> np.ndarray:
    """Vertices joined by a simple edge to every other vertex, ascending."""
    return np.flatnonzero((g.mult == 1).sum(axis=1) == g.n - 1)


# ---------------------------------------------------------------------------
# structure counts from common neighbours (checks the closed formulas)
# ---------------------------------------------------------------------------

def _require_count_order(n: int) -> None:
    if n > MAX_COUNT_VERTICES:
        raise ScaleError(f"common-neighbour counting capped at n <= {MAX_COUNT_VERTICES}")


def _require_countable(g: MultiGraph) -> None:
    if not g.is_simple():
        raise ParameterError("subgraph counting is defined for simple graphs")
    _require_count_order(g.n)


def count_subgraphs(g: MultiGraph, pattern: str) -> int:
    """Count C3 or C4 subgraphs from common neighbours.

    With c = A @ A the common-neighbour counts, C3 = sum(c * A) / 6 and
    C4 = sum_{u<v} C(c_uv, 2) / 2 (each 4-cycle has two diagonal pairs, each
    closed by its two common neighbours).  No trace identity enters, so the
    result can still check tr(A^4) against the spectrum.  A is float64 for
    BLAS: every entry and sum is an integer below 2^53 up to MAX_VERTICES.
    """
    _require_countable(g)
    adj = (g.mult > 0).astype(np.float64)
    common = adj @ adj
    if pattern == "C3":
        return int((common * adj).sum()) // 6
    if pattern == "C4":
        x = common * (common - 1)
        return (int(x.sum()) - int(x.trace())) // 8
    raise ParameterError(f"unknown pattern {pattern!r}; expected C3 or C4")


def t_bar_f_bar(g: MultiGraph) -> tuple[int, int]:
    """(8 * sum_v t(v) d(v), 4 * sum_{uv in E} d(u) d(v)) as exact integers.

    t(v) counts triangles through v via common neighbors; both sums feed the
    fourth spectral moment.  Exact in float64 as in `count_subgraphs`.
    """
    _require_countable(g)
    adj = (g.mult > 0).astype(np.float64)
    d = g.degrees()
    tri_at = ((adj @ adj) * adj).sum(axis=1) // 2
    t_term = 8 * int((tri_at * d).sum())
    f_term = 2 * int(d @ adj @ d)
    return t_term, f_term


# ---------------------------------------------------------------------------
# cone specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeSpec:
    """Structured description of a cone: apex joined to cycles, paths and stars.

    `cycles` holds cycle lengths (>= 2, where 2 means a digon), `paths` path
    orders (>= 1, where 1 is an isolated base vertex and 2 a K2), `stars13`
    the number of 4-vertex star blocks.  Both tuples are normalized to
    descending order, so equal specs compare equal.
    """

    cycles: tuple[int, ...] = ()
    paths: tuple[int, ...] = ()
    stars13: int = 0

    def __post_init__(self) -> None:
        cycles = tuple(sorted((int(k) for k in self.cycles), reverse=True))
        paths = tuple(sorted((int(l) for l in self.paths), reverse=True))
        if any(k < 2 for k in cycles):
            raise ParameterError("cycle lengths must be >= 2 (2 = digon)")
        if any(l < 1 for l in paths):
            raise ParameterError("path orders must be >= 1")
        if self.stars13 < 0:
            raise ParameterError("star count must be >= 0")
        if not cycles and not paths and not self.stars13:
            raise ParameterError("spec needs at least one block")
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "stars13", int(self.stars13))

    @property
    def n(self) -> int:
        """Order of the realized cone, apex included."""
        return 1 + sum(self.cycles) + sum(self.paths) + 4 * self.stars13

    @property
    def t(self) -> int:
        return len(self.cycles)

    @property
    def q(self) -> int:
        return sum(1 for l in self.paths if l >= 2)

    @property
    def s(self) -> int:
        return sum(1 for l in self.paths if l == 1)

    def has_digon(self) -> bool:
        return any(k == 2 for k in self.cycles)

    def is_g_family(self) -> bool:
        """Cycles (>= 3) plus K2s plus isolated vertices, at least one of each."""
        return (
            self.stars13 == 0
            and self.t >= 1
            and self.q >= 1
            and self.s >= 1
            and all(k >= 3 for k in self.cycles)
            and all(l <= 2 for l in self.paths)
        )


def _check_order(spec: ConeSpec) -> ConeSpec:
    if spec.n > MAX_VERTICES:
        raise ScaleError(f"cone order {spec.n} exceeds {MAX_VERTICES} vertices")
    return spec


def _blocks(spec: ConeSpec) -> Iterator[tuple[str, int, int]]:
    """Each base block of a spec as (kind, first vertex, size), kind "path",
    "cycle" or "claw", in the vertex order of `realize`."""
    paths = [l for l in spec.paths if l <= 2][::-1] + [l for l in spec.paths if l >= 3]
    blocks = [("path", l) for l in paths] + [("cycle", k) for k in spec.cycles]
    first = 0
    for kind, size in blocks + [("claw", 4)] * spec.stars13:
        yield kind, first, size
        first += size


def realize(spec: ConeSpec) -> MultiGraph:
    """Cone graph of a spec, vertices in the module docstring's order: isolated
    vertices, K2s, longer paths, cycles, claws (center last), then the apex.

    One count of flat indices u * n + v writes the multiplicities: each block
    edge both ways (a digon's pair twice), then the apex row and column."""
    n = _check_order(spec).n
    a, d = n - 1, n + 1  # the apex, and the stride along a diagonal
    idx: list[int] = []
    for kind, first, size in _blocks(spec):
        last = first + size - 1
        if kind == "claw":  # each leaf to the center
            idx += range(first * n + last, last * n, n)
            idx += range(last * n + first, last * n + last)
        else:  # each vertex to the next
            idx += range(first * d + 1, last * d, d)
            idx += range(first * d + n, last * d, d)
            if kind == "cycle":  # on a digon the closing edge doubles the one above
                idx += (first * n + last, last * n + first)
    idx += range(a * n, a * n + a)
    idx += range(a, a * n, n)
    return MultiGraph._wrap(np.bincount(idx, minlength=n * n).reshape(n, n))


def degree_profile(spec: ConeSpec) -> tuple[int, int, int, int]:
    """Base-vertex counts (n1, n2, n3, n4) by degree inside the cone.

    n1 isolated vertices, n2 path endpoints and star leaves, n3 cycle and
    path-interior vertices, n4 star centers.
    """
    n3 = sum(spec.cycles) + sum(l - 2 for l in spec.paths if l >= 2)
    return spec.s, 2 * spec.q + 3 * spec.stars13, n3, spec.stars13


def _path_blocks(profile: tuple[int, int, int, int]) -> int | None:
    """Number of paths of order >= 2 in every cone over cycles (length
    >= 3), paths and claws with this base degree profile, whose n4 claws
    take 3 of its n2 degree-2 vertices each; None when no such cone has it
    (it is negative or leaves a negative or odd number of path endpoints)."""
    endpoints = profile[1] - 3 * profile[3]
    if min(profile) < 0 or endpoints < 0 or endpoints % 2:
        return None
    return endpoints // 2


# ---------------------------------------------------------------------------
# spec text grammar
# ---------------------------------------------------------------------------

# string.whitespace: space, tab, newline, return, vertical tab, form feed;
# the separators \x1c-\x1f, non-ASCII spaces and non-ASCII digits are no
# part of the grammar
_SPACE = " \t\n\r\x0b\x0c"
_S = f"[{re.escape(_SPACE)}]"
_PREFIX = re.compile(rf"{_S}*K1{_S}+[vV]({_S}+|{_S}*$)")
# one alternative per term: K13, Ck, Pl, then qK2 and sK1 with their block
_TERM = re.compile(r"(K13)|C(\d+)|P(\d+)|(\d*)K([12])", re.ASCII)


def parse_spec_text(text: str) -> ConeSpec:
    """Parse the compact cone grammar, e.g. "K1 v C3 + C5 + 2K2 + 1K1".

    The leading "K1 v" is optional.  Terms are '+'-separated: Ck (cycle,
    2 = digon), Pl (path), qK2, sK1 and K13.  Digits and spaces are ASCII.
    Errors carry the 1-based character position of the offending term.  A
    cone of more than MAX_VERTICES vertices raises ScaleError, as realize
    would.
    """
    m = _PREFIX.match(text)
    offset = m.end() if m else 0
    body = text[offset:]
    if not body.strip(_SPACE):
        raise FormatError(f"empty cone description at position {offset + 1}")
    cycles: list[int] = []
    paths: list[int] = []
    stars = 0
    pos = offset
    for chunk in body.split("+"):
        term = chunk.strip(_SPACE)
        term_pos = pos + (len(chunk) - len(chunk.lstrip(_SPACE))) + 1
        pos += len(chunk) + 1
        if not term:
            raise FormatError(f"empty term at position {term_pos}")
        m = _TERM.fullmatch(term)
        if not m:
            raise FormatError(f"unknown term {term!r} at position {term_pos}")
        star, cycle, path, count, block = m.groups()
        if star:
            stars += 1
            continue
        raw = cycle or path or count
        # int() refuses very long digit strings (leading zeros count too);
        # any value that long is over the cap
        digits = raw.lstrip("0")
        if len(digits) > len(str(MAX_VERTICES)):
            raise ScaleError(
                f"{len(digits)}-digit number at position {term_pos} exceeds {MAX_VERTICES}"
            )
        value = int(digits or "0") if raw else 1
        if cycle:
            if value < 2:
                raise FormatError(f"cycle length must be >= 2 in {term!r} at position {term_pos}")
            cycles.append(value)
        elif path:
            if value < 1:
                raise FormatError(f"path order must be >= 1 in {term!r} at position {term_pos}")
            paths.append(value)
        else:
            if value < 1:
                raise FormatError(f"count must be >= 1 in {term!r} at position {term_pos}")
            if value > MAX_VERTICES:  # the count expands block by block
                raise ScaleError(f"count {value} in {term!r} exceeds {MAX_VERTICES} vertices")
            paths += [int(block)] * value
    return _check_order(ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=stars))


def format_spec_text(spec: ConeSpec) -> str:
    """Canonical text for a spec: stars, cycles, long paths, then qK2 + sK1."""
    terms = ["K13"] * spec.stars13
    terms += [f"C{k}" for k in spec.cycles]
    terms += [f"P{l}" for l in spec.paths if l >= 3]
    k2 = sum(1 for l in spec.paths if l == 2)
    if k2:
        terms.append(f"{k2}K2")
    if spec.s:
        terms.append(f"{spec.s}K1")
    return "K1 v " + " + ".join(terms)
