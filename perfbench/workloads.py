"""Seeded operation generators for the three workloads.

A workload produces rounds.  Round ``i`` of seed ``s`` is a fixed list of
operations (CLI argument vectors plus what the checks need to know); the
same ``(seed, i)`` always gives the same round.  Each round has the same
composition — the same commands, order bands, lemma mix and target
classes — and the seed draws the rest: the order within each band, block
structures, which inputs go as graph6, vertex labellings and, except in
``exhaustive_n7``, the order of operations.  Fixing the composition keeps the work per round nearly
constant across seeds, so runs of different seeds can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from specs import (
    Spec,
    adjacency,
    decode_graph6,
    encode_graph6,
    make_spec,
    relabel,
    spec_text,
)

WORKLOADS = ("cone_queries", "family_search", "exhaustive_n7")

CONE_QUERY_ORDERS = range(7, 49)
FAMILY_ORDERS = range(14, 25)
GRAPH6_SHARE = 0.25
LEMMAS = ("2.2", "2.3", "2.4", "2.10", "5.1")
# Cone classes of the spectrum queries, band by band of three orders, and
# of the moments queries, band by band of seven.
SPECTRUM_KINDS = ("G", "F", "general", "G", "F", "general", "digon")
MOMENTS_KINDS = ("G", "F", "general")
MAX_CYCLE = 8
MAX_PATH = 6

# Exhaustive targets: a fixed panel of n = 7 classes that the seed only
# relabels.  A search re-verifies one labelled survivor per labelling of each
# cospectral class, so its time follows the automorphism groups, and a free
# draw of classes would make one run's work differ from the next.
EXHAUSTIVE_CONES = (
    make_spec((3,), (2, 1)),
    make_spec((4,), (2,)),
    make_spec((6,)),
    make_spec((), (2, 2, 2)),
    make_spec((3, 3)),
)
# one G(7, 1/2) draw (8 edges, 4 automorphisms) that is not a cone
EXHAUSTIVE_RANDOM = ("F@Foo",)


@dataclass
class Op:
    """One CLI call and the facts its output check needs."""

    kind: str                 # spectrum, moments, mate11, mate13, probe, family, exhaustive
    argv: list
    n: int
    adjacency: np.ndarray = field(repr=False)
    spec: Spec | None = None  # None for graphs that are not cones
    graph6: bool = False
    lemma: str | None = None


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


def _fill(rng, room: int, cycles: bool, long_paths: bool) -> tuple[list, list]:
    """Random blocks covering ``room`` base vertices."""
    cyc, paths = [], []
    while room:
        choices = ["K1"] + (["K2"] if room >= 2 else [])
        if cycles and room >= 3:
            choices.append("C")
        if long_paths and room >= 3:
            choices.append("P")
        pick = choices[rng.integers(len(choices))]
        if pick in ("K1", "K2"):
            size = 1 if pick == "K1" else 2
        else:
            size = int(rng.integers(3, min(MAX_CYCLE if pick == "C" else MAX_PATH, room) + 1))
        (cyc if pick == "C" else paths).append(size)
        room -= size
    return cyc, paths


def _g_family(rng, n: int, triangle: bool = False) -> Spec:
    """Cycles (>= 3), K2s and K1s, at least one of each; ``triangle`` fixes a C3."""
    k = 3 if triangle else int(rng.integers(3, min(MAX_CYCLE, n - 4) + 1))
    cyc, paths = _fill(rng, n - 4 - k, cycles=True, long_paths=False)
    return make_spec(cyc + [k], paths + [2, 1])


def _random_cone(rng, n: int, kind: str, long_path: int = 0) -> Spec:
    """A cone of order n: ``G`` or ``F`` family, a ``general`` simple cone,
    one with a ``digon``, or with a path block of order ``long_path`` and
    no other path of order >= 3."""
    if kind == "G":
        return _g_family(rng, n)
    if kind == "F":
        cyc, paths = _fill(rng, n - 7, cycles=True, long_paths=False)
        return make_spec(cyc, paths + [2], 1)
    stars = int(n >= 9 and rng.random() < 0.25)
    room = n - 1 - 4 * stars
    if long_path:
        cyc, paths = _fill(rng, room - long_path, cycles=True, long_paths=False)
        return make_spec(cyc, paths + [long_path], stars)
    digon = kind == "digon"
    cyc, paths = _fill(rng, room - 2 * digon, cycles=True, long_paths=True)
    return make_spec(cyc + [2] * digon, paths, stars)


def _as_input(rng, spec: Spec, graph6_share: float) -> tuple[str, np.ndarray, bool]:
    """Spec text, or with probability ``graph6_share`` a relabelled graph6 string."""
    a = adjacency(spec)
    if rng.random() < graph6_share:
        a = relabel(a, rng.permutation(a.shape[0]))
        return encode_graph6(a), a, True
    return spec_text(spec), a, False


def _spec_op(rng, kind: str, command: list, spec: Spec, graph6_share=GRAPH6_SHARE, **extra) -> Op:
    """``command`` is the subcommand and its flags; the input goes after the subcommand."""
    text, a, g6 = _as_input(rng, spec, graph6_share)
    return Op(kind, [command[0], text, *command[1:]], a.shape[0], a, spec, g6, **extra)


def _theorem11_target(rng, n: int) -> Spec:
    """One even cycle (>= 6), at least two K2s and a K1: n >= 12."""
    k = 2 * int(rng.integers(3, (n - 6) // 2 + 1))
    room = n - 1 - k
    q = int(rng.integers(2, (room - 1) // 2 + 1))
    return make_spec((k,), (2,) * q + (1,) * (room - 2 * q))


def _bins(width: int):
    lo, hi = CONE_QUERY_ORDERS.start, CONE_QUERY_ORDERS.stop
    return [range(a, min(a + width, hi)) for a in range(lo, hi, width)]


def cone_queries(rng) -> list[Op]:
    """51 operations on a fixed grid of orders in 7..48.  Per band of three
    orders: one spectrum, on a cone class fixed by band.  Per band of seven: one moments, one mate, and one
    probe of each of the lemmas 2.3, 2.4, 2.10 and 5.1.  Lemma 2.2 deletes
    every edge in turn, so it runs once, at n <= 12.  The grid is the same
    in every round, because the work of an operation grows as n^3 to n^4
    and drawing the orders or classes would make one round's work differ
    from the next; the seed draws the cones of those orders and classes."""
    ops = []
    for b, band in enumerate(_bins(3)):
        n = band[b % len(band)]
        kind = SPECTRUM_KINDS[b % len(SPECTRUM_KINDS)]
        spec = _random_cone(rng, n, kind)
        mode = "--both" if kind in ("G", "F") else "--numeric"
        share = 0.0 if kind == "digon" else GRAPH6_SHARE
        ops.append(_spec_op(rng, "spectrum", ["spectrum", mode], spec, share))
    for b, band in enumerate(_bins(7)):
        n = band[b % len(band)]
        spec = _random_cone(rng, n, MOMENTS_KINDS[b % len(MOMENTS_KINDS)])
        ops.append(_spec_op(rng, "moments", ["moments", "--from", "both"], spec))

        # theorem 11 needs n >= 12, which every odd band satisfies
        n = band[(b + 3) % len(band)]
        if b % 2:
            ops.append(_spec_op(rng, "mate11", ["mate", "--theorem", "11"], _theorem11_target(rng, n)))
        else:
            spec = _g_family(rng, n, triangle=True)
            ops.append(_spec_op(rng, "mate13", ["mate", "--theorem", "13"], spec))

        for j, lemma in enumerate(LEMMAS[1:] if b else LEMMAS):
            orders = band[:6] if lemma == "2.2" else band
            n = orders[(b + 2 * j + 1) % len(orders)]
            # 5.1 compares a path block of order l >= 4 with its max(1, l - 4)
            # cycle rewirings; one block of order 4, 5 or 6 by band fixes that work
            path = 4 + b % 3 if lemma == "5.1" else 0
            spec = _random_cone(rng, n, "general", long_path=path)
            ops.append(_spec_op(rng, "probe", ["probe", "--lemma", lemma], spec, lemma=lemma))
    return [ops[i] for i in rng.permutation(len(ops))]


def _family_target(rng, n: int) -> Spec:
    """A C3 plus further cycles drawn by the seed, on 6 + (n - 14) // 2 cycle
    vertices in all; K2s and K1s fill the rest.  The block counts fix the
    degree profile, hence the candidate set, so the work at each order does
    not depend on the seed."""
    room = 6 + (n - 14) // 2
    q = (n - 2 - room) // 2
    s = n - 1 - room - 2 * q
    cycles = [3]
    room -= 3
    while room:
        # never leave 1 or 2 vertices, which no cycle can take
        k = int(rng.choice([k for k in range(3, room + 1) if room - k not in (1, 2)]))
        cycles.append(k)
        room -= k
    return make_spec(cycles, (2,) * q + (1,) * s)


def family_search(rng) -> list[Op]:
    """One G-family target with a triangle and a K1 at every order 14..24."""
    ops = [
        _spec_op(rng, "family", ["search", "--family"], _family_target(rng, n), 0.0)
        for n in FAMILY_ORDERS
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def exhaustive_n7(rng) -> list[Op]:
    """The fixed n = 7 target panel, each under a fresh random labelling.

    The panel runs in a fixed order: the heap that glibc keeps from one
    search to the next depends on which searches came before, and a seeded
    order moved the round's peak RSS by up to a fifth."""
    targets = [(adjacency(s), s) for s in EXHAUSTIVE_CONES]
    targets += [(decode_graph6(g), None) for g in EXHAUSTIVE_RANDOM]
    ops = []
    for a, spec in targets:
        a = relabel(a, rng.permutation(7))
        argv = ["search", encode_graph6(a), "--exhaustive", "--jobs", "1"]
        ops.append(Op("exhaustive", argv, 7, a, spec, True))
    return ops


_GENERATORS = {
    "cone_queries": cone_queries,
    "family_search": family_search,
    "exhaustive_n7": exhaustive_n7,
}


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """Round ``index`` of ``workload`` under ``seed``; deterministic."""
    return _GENERATORS[workload](_rng(workload, seed, index))
