"""Multigraph container, builders, cone specs, and subgraph counting."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qcones import (
    ConeSpec,
    MultiGraph,
    ParameterError,
    ScaleError,
    components_and_bipartiteness,
    count_subgraphs,
    realize,
    t_bar_f_bar,
)
from qcones import graphs as graphs_module

from helpers import (
    complete_graph,
    cone,
    cone_from_builders,
    cycle_graph,
    digon,
    disjoint_union,
    g_family_spec,
    from_edges,
    is_f_family,
    isomorphic,
    naive_c3,
    naive_c4,
    naive_f_bar,
    naive_t_bar,
    path_graph,
    random_cone_spec,
    random_graph,
    star_graph,
)


class TestMultiGraph:
    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            MultiGraph([[0, 1, 0], [1, 0, 0]])

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(ParameterError):
            MultiGraph([[0, -1], [-1, 0]])

    def test_rejects_loops(self):
        with pytest.raises(ParameterError):
            MultiGraph([[1, 0], [0, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            MultiGraph([[0, 1], [0, 0]])

    @pytest.mark.parametrize("mult", [
        [[0, 0.5], [0.5, 0]], [[0, np.nan], [np.nan, 0]], [[0, 1.0], [1.0, 0]],
        [["0", "1"], ["1", "0"]], np.array([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]),
        [[0, 1j], [1j, 0]],
    ], ids=["half", "nan", "whole-float", "text", "fraction", "complex"])
    def test_rejects_non_integer_multiplicities(self, mult):
        # a cast to int64 would read 0.5 as no edge and "1" as one
        with pytest.raises(ParameterError, match="multiplicities must be integers"):
            MultiGraph(mult)

    def test_accepts_numpy_integers_and_bools(self):
        want = MultiGraph([[0, 1], [1, 0]])
        assert MultiGraph(np.eye(2, dtype=bool)[::-1]) == want
        assert MultiGraph(np.array([[0, 1], [1, 0]], dtype=np.uint8)) == want
        assert MultiGraph(want.mult).mult.dtype == np.int64

    def test_from_edges_accumulates(self):
        g = from_edges(2, [(0, 1), (0, 1)])
        assert g.mult[0, 1] == 2
        assert not g.is_simple()

    def test_degree_counts_multiplicity(self):
        g = digon()
        assert g.degrees()[0] == 2
        assert g.num_edges == 2

    def test_equality_and_hash(self):
        assert cycle_graph(3) == complete_graph(3)
        assert hash(cycle_graph(3)) == hash(complete_graph(3))
        assert cycle_graph(4) != cycle_graph(3)


class TestBuilders:
    def test_cycle(self):
        g = cycle_graph(3)
        assert g.n == 3
        assert g.num_edges == 3
        assert all(g.degrees()[v] == 2 for v in range(3))

    def test_cycle_too_short(self):
        with pytest.raises(ParameterError):
            cycle_graph(2)

    def test_path_orders(self):
        assert path_graph(1).num_edges == 0
        assert path_graph(2).num_edges == 1
        assert sorted(path_graph(5).degrees()) == [1, 1, 2, 2, 2]

    def test_star(self):
        g = star_graph(4)
        assert g.degrees()[3] == 3
        assert g.num_edges == 3

    def test_digon(self):
        g = digon()
        assert g.mult[0, 1] == 2
        assert tuple(g.degrees()) == (2, 2)


class TestUnionAndCone:
    def test_union_of_two_k2(self):
        g = disjoint_union([path_graph(2), path_graph(2)])
        assert g.n == 4
        assert g.num_edges == 2
        assert all(d == 1 for d in g.degrees())

    def test_union_three_blocks(self):
        g = disjoint_union([cycle_graph(3), path_graph(2), path_graph(1)])
        assert (g.n, g.num_edges) == (6, 4)

    def test_union_c4_p3(self):
        g = disjoint_union([cycle_graph(4), path_graph(3)])
        assert (g.n, g.num_edges) == (7, 6)

    def test_cone_over_empty_graph_is_star(self):
        base = disjoint_union([path_graph(1)] * 3)
        assert isomorphic(cone(base), star_graph(4))

    def test_cone_apex_is_last_vertex(self):
        g = cone(cycle_graph(3))
        assert g.degrees()[3] == 3

    def test_flagship_cone(self):
        base = disjoint_union([cycle_graph(3), path_graph(2), path_graph(1)])
        g = cone(base)
        assert g.n == 7
        assert g.num_edges == 10
        assert sorted(g.degrees(), reverse=True) == [6, 3, 3, 3, 2, 2, 1]

    def test_cone_over_digon(self):
        g = cone(digon())
        assert g.degrees()[2] == 2
        assert sorted(g.degrees()) == [2, 3, 3]

    def test_cone_size_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            base = random_graph(rng, rng.randrange(1, 9), 0.4)
            assert cone(base).num_edges == base.num_edges + base.n

    def test_handshake(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 10), 0.5)
            assert int(g.degrees().sum()) == 2 * g.num_edges


class TestComponents:
    def test_mixed_union(self):
        g = disjoint_union(
            [cycle_graph(4), cycle_graph(3), path_graph(1), path_graph(1)]
        )
        assert components_and_bipartiteness(g) == (4, 3)

    def test_path_decomposition_base(self):
        # C4 u P3 u P3 u K2 u 2K1: six components, all bipartite.
        g = disjoint_union(
            [cycle_graph(4), path_graph(3), path_graph(3), path_graph(2)]
            + [path_graph(1)] * 2
        )
        assert components_and_bipartiteness(g) == (6, 6)

    def test_single_vertex(self):
        assert components_and_bipartiteness(path_graph(1)) == (1, 1)

    def test_digon_is_bipartite(self):
        assert components_and_bipartiteness(digon()) == (1, 1)

    def test_union_additivity(self):
        rng = random.Random(9)
        for _ in range(10):
            a = random_graph(rng, rng.randrange(1, 7), 0.4)
            b = random_graph(rng, rng.randrange(1, 7), 0.4)
            ca, ba = components_and_bipartiteness(a)
            cb, bb = components_and_bipartiteness(b)
            assert components_and_bipartiteness(disjoint_union([a, b])) == (
                ca + cb,
                ba + bb,
            )


class TestCounts:
    def test_flagship_counts(self):
        g = realize(g_family_spec([3], 1, 1))
        assert count_subgraphs(g, "C3") == 5
        assert count_subgraphs(g, "C4") == 3

    def test_c4_alone(self):
        g = cycle_graph(4)
        assert count_subgraphs(g, "C3") == 0
        assert count_subgraphs(g, "C4") == 1

    def test_trivial_graph(self):
        g = path_graph(1)
        assert all(count_subgraphs(g, p) == 0 for p in ("C3", "C4"))

    def test_complete_graphs(self):
        k4 = complete_graph(4)
        assert count_subgraphs(k4, "C3") == 4
        assert count_subgraphs(k4, "C4") == 3
        k5 = complete_graph(5)
        assert count_subgraphs(k5, "C3") == 10
        assert count_subgraphs(k5, "C4") == 15

    def test_against_naive_oracles(self):
        rng = random.Random(11)
        for _ in range(12):
            g = random_graph(rng, rng.randrange(3, 9), 0.5)
            assert count_subgraphs(g, "C3") == naive_c3(g)
            assert count_subgraphs(g, "C4") == naive_c4(g)

    def test_at_the_order_cap(self):
        k64 = complete_graph(64)
        assert count_subgraphs(k64, "C3") == 41_664
        assert count_subgraphs(k64, "C4") == 1_906_128
        k32_32 = from_edges(
            64, [(u, v) for u in range(32) for v in range(32, 64)]
        )
        assert count_subgraphs(k32_32, "C3") == 0
        assert count_subgraphs(k32_32, "C4") == 246_016

    @staticmethod
    def _int64_counts(g):
        """C3, C4, t-bar and f-bar from exact int64 matrix products."""
        adj = (g.mult > 0).astype(np.int64)
        common, d = adj @ adj, g.degrees()
        x = common * (common - 1)
        tri_at = (common * adj).sum(axis=1) // 2
        return (
            int((common * adj).sum()) // 6, (int(x.sum()) - int(x.trace())) // 8,
            8 * int((tri_at * d).sum()), 2 * int(d @ adj @ d),
        )

    def test_float64_products_equal_int64_ones(self, monkeypatch):
        # the counts multiply float64 0/1 matrices through BLAS; seeded
        # graphs up to the cap, and one dense graph far above it
        rng = np.random.default_rng(64)
        graphs = []
        for n in (2, 5, 9, 17, 33, 48, 64, 64):
            a = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.95), 1).astype(np.int64)
            graphs.append(MultiGraph(a + a.T))
        a = np.triu(rng.random((512, 512)) < 0.9, 1).astype(np.int64)
        graphs.append(MultiGraph(a + a.T))
        graphs.append(complete_graph(64))
        monkeypatch.setattr(graphs_module, "MAX_COUNT_VERTICES", 512)
        for g in graphs:
            got = (count_subgraphs(g, "C3"), count_subgraphs(g, "C4"), *t_bar_f_bar(g))
            assert all(type(v) is int for v in got)
            assert got == self._int64_counts(g), g.n

    def test_above_the_order_cap(self):
        for pattern in ("C3", "C4"):
            with pytest.raises(ScaleError, match="capped at n <= 64"):
                count_subgraphs(complete_graph(65), pattern)

    def test_unknown_pattern(self):
        # P3 is the degree binomial sum, read in moments_from_counts
        for pattern in ("C5", "P3"):
            with pytest.raises(ParameterError, match="expected C3 or C4"):
                count_subgraphs(cycle_graph(4), pattern)

    def test_multigraph_rejected(self):
        with pytest.raises(ParameterError, match="subgraph counting is defined for simple graphs"):
            count_subgraphs(digon(), "C3")


class TestTbarFbar:
    def test_flagship(self):
        g = realize(g_family_spec([3], 1, 1))
        assert t_bar_f_bar(g) == (440, 460)

    def test_k2(self):
        assert t_bar_f_bar(path_graph(2)) == (0, 4)

    def test_triangle_free(self):
        t, _ = t_bar_f_bar(cycle_graph(6))
        assert t == 0

    def test_against_naive(self):
        rng = random.Random(12)
        for _ in range(12):
            g = random_graph(rng, rng.randrange(2, 9), 0.5)
            assert t_bar_f_bar(g) == (naive_t_bar(g), naive_f_bar(g))

    def test_multigraph_rejected(self):
        with pytest.raises(ParameterError, match="subgraph counting is defined for simple graphs"):
            t_bar_f_bar(digon())


class TestConeSpec:
    def test_normalization(self):
        spec = ConeSpec(cycles=(3, 5, 4), paths=(1, 2))
        assert spec.cycles == (5, 4, 3)
        assert spec.paths == (2, 1)

    def test_parameters(self):
        spec = g_family_spec([3, 5], 2, 3)
        assert (spec.n, spec.t, spec.q, spec.s) == (16, 2, 2, 3)
        assert not spec.has_digon()

    def test_validation(self):
        with pytest.raises(ParameterError):
            ConeSpec(cycles=(1,))
        with pytest.raises(ParameterError):
            ConeSpec(paths=(0,))
        with pytest.raises(ParameterError):
            ConeSpec(stars13=-1)
        with pytest.raises(ParameterError):
            ConeSpec()

    @pytest.mark.parametrize("blocks", [
        {"cycles": (3.5,)}, {"paths": (2, 1.0)}, {"stars13": 1.5}, {"stars13": "1"},
        {"cycles": ("3",)}, {"cycles": (np.float64(3),)}, {"cycles": (3 + 0j,)},
        {"stars13": None},
        *({field: value if field == "stars13" else (value,)}
          for field in ("cycles", "paths", "stars13")
          for value in (math.nan, math.inf, -math.inf)),
    ], ids=str)
    def test_rejects_non_integer_blocks(self, blocks):
        # int() would take 3.5 for a C3 and 1.5 for one claw, and raise
        # ValueError or OverflowError on NaN and infinities
        with pytest.raises(ParameterError, match="must be integers"):
            ConeSpec(**blocks)

    def test_numpy_integers_are_integers(self):
        spec = ConeSpec(cycles=np.array([3, 5]), paths=(np.int32(2),), stars13=np.int64(1))
        assert spec == ConeSpec(cycles=(5, 3), paths=(2,), stars13=1)
        assert all(type(v) is int for v in (*spec.cycles, *spec.paths, spec.stars13))

    def test_family_predicates(self):
        assert g_family_spec([3], 1, 1).is_g_family()
        assert not is_f_family(g_family_spec([3], 1, 1))
        f = ConeSpec(cycles=(5,), paths=(2, 1), stars13=1)
        assert is_f_family(f)
        assert not f.is_g_family()
        # Digons, long paths, and missing blocks all leave the G-family.
        assert not ConeSpec(cycles=(2, 3), paths=(2, 1)).is_g_family()
        assert not ConeSpec(cycles=(3,), paths=(3, 2, 1)).is_g_family()
        assert not ConeSpec(cycles=(3,), paths=(1,)).is_g_family()
        assert not ConeSpec(cycles=(3,), paths=(2,)).is_g_family()

    def test_realize_follows_the_documented_vertex_order(self):
        # digons, 0-2 claws and paths up to order 9, against the named builders
        rng = random.Random(20261018)
        for _ in range(2000):
            spec = random_cone_spec(rng, max_path=9)
            built = cone_from_builders(spec).mult
            assert realize(spec).mult.tobytes() == built.tobytes(), spec

    def test_realized_graph_equals_the_checked_constructor(self):
        # realize wraps its matrix without the constructor's copy and checks
        rng = random.Random(20261019)
        for _ in range(300):
            g = realize(random_cone_spec(rng, max_path=9))
            checked = MultiGraph(g.mult)
            assert g == checked and g.mult.dtype == checked.mult.dtype
            assert not g.mult.flags.writeable

    def test_realize_flagship_degrees(self):
        g = realize(g_family_spec([3], 1, 1))
        assert g.degrees()[g.n - 1] == 6
        assert sorted(g.degrees(), reverse=True) == [6, 3, 3, 3, 2, 2, 1]

    def test_realize_star_block(self):
        g = realize(ConeSpec(stars13=1))
        # Cone over K_{1,3}: center picks up degree 4.
        assert sorted(g.degrees()) == [2, 2, 2, 4, 4]

    def test_realize_digon_multiplicity(self):
        g = realize(ConeSpec(cycles=(2,), paths=(2, 1)))
        assert not g.is_simple()
        assert g.mult.max() == 2
        # Apex sees each block vertex through a single edge.
        assert g.mult[g.n - 1].max() == 1

    def test_g_family_spec_rejects_negative(self):
        with pytest.raises(ParameterError):
            g_family_spec([3], -1, 1)
        with pytest.raises(ParameterError):
            g_family_spec([3], 1, -1)


def cone_by_edges(spec: ConeSpec) -> np.ndarray:
    """Multiplicity matrix of a spec's cone from one store per edge, blocks
    in the documented vertex order, with no block matrix built."""
    n = spec.n
    arr = np.zeros((n, n), dtype=np.int64)

    def join(u, v):
        arr[u, v] += 1
        arr[v, u] += 1

    first = 0
    short = sorted(l for l in spec.paths if l <= 2)
    long = sorted((l for l in spec.paths if l >= 3), reverse=True)
    for l in short + long:
        for i in range(l - 1):
            join(first + i, first + i + 1)
        first += l
    for k in sorted(spec.cycles, reverse=True):
        for i in range(k):  # on a digon both edges join the same pair
            join(first + i, first + (i + 1) % k)
        first += k
    for _ in range(spec.stars13):
        for leaf in range(3):
            join(first + leaf, first + 3)
        first += 4
    for v in range(n - 1):
        join(v, n - 1)
    return arr


class TestRealizeAtTheOrderCap:
    """`realize` counts flat indices of the block walk; long blocks and many
    blocks at the order cap against one store per edge."""

    @pytest.mark.parametrize("spec", [
        ConeSpec(cycles=(4000,), paths=(2,) * 40 + (1,) * 15),
        ConeSpec(paths=(4095,)),
        ConeSpec(cycles=(2,) * 2000 + (3,), paths=(9, 2, 1), stars13=20),
    ], ids=["cycle", "path", "digons-and-claws"])
    def test_matches_one_store_per_edge(self, spec):
        assert spec.n == 4096
        assert np.array_equal(realize(spec).mult, cone_by_edges(spec)), spec

    def test_order_cap(self):
        with pytest.raises(ScaleError):
            realize(ConeSpec(paths=(4096,)))


def test_realized_cone_matches_manual_construction():
    spec = g_family_spec([3], 1, 1)
    manual = cone(
        disjoint_union([path_graph(1), path_graph(2), cycle_graph(3)])
    )
    assert realize(spec) == manual


def test_realize_respects_spectrum_under_block_order():
    a = realize(ConeSpec(cycles=(3, 4), paths=(2, 1)))
    b = realize(ConeSpec(cycles=(4, 3), paths=(1, 2)))
    assert a == b
