"""Cone specs, adjacency matrices and graph6 text, written for the benchmark.

Nothing here imports qcones: the workload generators and the output checks
build their own inputs and oracles, so a defect in the package cannot hide
behind shared code.

A spec is a normalized triple ``(cycles, paths, stars)``: cycle lengths
(2 is a digon), path orders (1 is an isolated vertex, 2 a K2) and the number
of K1,3 claws, both tuples sorted in descending order.
"""

from __future__ import annotations

import re

import numpy as np

Spec = tuple  # (tuple[int, ...], tuple[int, ...], int)

_TERM = re.compile(r"^(?:C(\d+)|P(\d+)|(\d*)K2|(\d*)K1|(K13))$")


def make_spec(cycles=(), paths=(), stars: int = 0) -> Spec:
    return (
        tuple(sorted(cycles, reverse=True)),
        tuple(sorted(paths, reverse=True)),
        int(stars),
    )


def spec_order(spec: Spec) -> int:
    cycles, paths, stars = spec
    return 1 + sum(cycles) + sum(paths) + 4 * stars


def spec_text(spec: Spec) -> str:
    """Cone text in the CLI grammar, e.g. ``K1 v C3 + 2K2 + K1``."""
    cycles, paths, stars = spec
    terms = ["K13"] * stars + [f"C{k}" for k in cycles]
    terms += [f"P{l}" for l in paths if l >= 3]
    for order, name in ((2, "K2"), (1, "K1")):
        count = paths.count(order)
        if count:
            terms.append(name if count == 1 else f"{count}{name}")
    return "K1 v " + " + ".join(terms)


def parse_spec(text: str) -> Spec:
    """Inverse of :func:`spec_text`; also reads the CLI's canonical output."""
    body = text.strip()
    if not body.startswith("K1 v "):
        raise ValueError(f"not a cone expression: {text!r}")
    cycles, paths, stars = [], [], 0
    for term in body[len("K1 v "):].split("+"):
        m = _TERM.match(term.strip())
        if m is None:
            raise ValueError(f"bad term {term!r} in {text!r}")
        cyc, path, k2, k1, claw = m.groups()
        if cyc:
            cycles.append(int(cyc))
        elif path:
            paths.append(int(path))
        elif claw:
            stars += 1
        elif k1 is not None:
            paths += [1] * int(k1 or 1)
        else:
            paths += [2] * int(k2 or 1)
    return make_spec(cycles, paths, stars)


def adjacency(spec: Spec) -> np.ndarray:
    """Integer adjacency of the cone, apex first; a digon has entry 2."""
    cycles, paths, stars = spec
    n = spec_order(spec)
    a = np.zeros((n, n), dtype=np.int64)
    a[0, 1:] = a[1:, 0] = 1
    v = 1
    for k in cycles:
        block = list(range(v, v + k))
        if k == 2:
            a[v, v + 1] = a[v + 1, v] = 2
        else:
            for x, y in zip(block, block[1:] + block[:1]):
                a[x, y] = a[y, x] = 1
        v += k
    for l in paths:
        for x in range(v, v + l - 1):
            a[x, x + 1] = a[x + 1, x] = 1
        v += l
    for _ in range(stars):
        for leaf in range(v + 1, v + 4):
            a[v, leaf] = a[leaf, v] = 1
        v += 4
    return a


def q_matrix(a: np.ndarray) -> np.ndarray:
    """Signless Laplacian D + A of an integer adjacency (multiplicities count)."""
    return np.diag(a.sum(axis=1)) + a


def relabel(a: np.ndarray, perm) -> np.ndarray:
    """Adjacency after sending vertex i to perm[i]."""
    p = np.argsort(perm)
    return a[np.ix_(p, p)]


def encode_graph6(a: np.ndarray) -> str:
    """graph6 text of a simple graph on at most 62 vertices."""
    n = a.shape[0]
    bits = [int(a[u, v]) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
        for i in range(0, len(bits), 6)
    ]
    return chr(63 + n) + "".join(body)


def decode_graph6(text: str) -> np.ndarray:
    data = text.strip().encode("ascii")
    n = data[0] - 63
    bits = [(b - 63) >> s & 1 for b in data[1:] for s in range(5, -1, -1)]
    a = np.zeros((n, n), dtype=np.int64)
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for bit, (u, v) in zip(bits, pairs):
        a[u, v] = a[v, u] = bit
    return a


def star_mate(spec: Spec) -> Spec:
    """Theorem 13 rewiring: one triangle and one K1 become a claw."""
    cycles, paths, stars = spec
    cycles, paths = list(cycles), list(paths)
    cycles.remove(3)
    paths.remove(1)
    return make_spec(cycles, paths, stars + 1)
