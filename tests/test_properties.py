"""Property tests: round-trips of spec text and graph6, moments against exact
traces, and independence from the vertex labelling (exhaustive-search hits,
counted moments, cone recognition)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcones import (  # noqa: E402
    ConeSpec,
    MultiGraph,
    decode_graph6,
    encode_graph6,
    format_spec_text,
    moments_from_counts,
    parse_spec_text,
    realize,
    recognize_cone,
    search_exhaustive,
)
from qcones.graph6 import pair_order  # noqa: E402
from qcones.search import _mask_graph  # noqa: E402


def relabel(g: MultiGraph, perm) -> MultiGraph:
    """The graph with vertex v renamed perm[v]."""
    arr = g.mult.copy()
    arr[list(perm)] = g.mult
    arr[:, list(perm)] = arr.copy()
    return MultiGraph(arr)


@st.composite
def graph_and_relabelling(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(range(n)))
    return _mask_graph(mask, n, pair_order(n)), perm


# digons (C2), long paths and up to two claws (K13), at least one block
cone_specs = st.tuples(
    st.lists(st.integers(min_value=2, max_value=9), max_size=3),
    st.lists(st.integers(min_value=1, max_value=14), max_size=5),
    st.integers(min_value=0, max_value=2),
).filter(any).map(
    lambda t: ConeSpec(cycles=tuple(t[0]), paths=tuple(t[1]), stars13=t[2])
)


@settings(max_examples=40, deadline=2000)
@given(graph_and_relabelling())
def test_relabelling_keeps_the_hits(case):
    g, perm = case
    h = relabel(g, perm)
    a, b = search_exhaustive(g), search_exhaustive(h)
    key = lambda r: [(encode_graph6(x.candidate), x.isomorphic) for x in r.hits]
    assert key(a) == key(b)
    assert sum(x.isomorphic for x in a.hits) == 1
    for x, y in zip(a.hits, b.hits):
        assert abs(x.distance - y.distance) <= 1e-12


@settings(max_examples=200, deadline=2000)
@given(cone_specs)
def test_spec_text_round_trip(spec):
    assert parse_spec_text(format_spec_text(spec)) == spec


@st.composite
def simple_graphs(draw, max_n=62):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << k) - 1))
    return _mask_graph(mask, n, pair_order(n))


@settings(max_examples=100, deadline=2000)
@given(simple_graphs())
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=100, deadline=2000)
@given(simple_graphs(max_n=20), st.randoms(use_true_random=False))
def test_counted_moments_are_exact_traces_in_any_labelling(g, rnd):
    adj = g.mult.astype(np.int64)
    q = np.diag(adj.sum(axis=1)) + adj
    traces = [int(np.trace(np.linalg.matrix_power(q, r))) for r in (1, 2, 3, 4)]
    traces.append(int(np.trace(np.linalg.matrix_power(adj, 4))))
    moments = moments_from_counts(g)
    assert list(moments) == traces
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert moments_from_counts(relabel(g, perm)) == moments


@settings(max_examples=100, deadline=2000)
@given(cone_specs, st.randoms(use_true_random=False))
def test_recognition_ignores_the_labelling(spec, rnd):
    g = realize(spec)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert recognize_cone(relabel(g, perm)) == spec
