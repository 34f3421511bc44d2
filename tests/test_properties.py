"""Property tests: exhaustive search does not depend on the target's labelling."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcones import MultiGraph, encode_graph6, search_exhaustive  # noqa: E402
from qcones.graph6 import pair_order  # noqa: E402
from qcones.search import _mask_graph  # noqa: E402


@st.composite
def graph_and_relabelling(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(range(n)))
    return _mask_graph(mask, n, pair_order(n)), perm


@settings(max_examples=40, deadline=2000)
@given(graph_and_relabelling())
def test_relabelling_keeps_the_hits(case):
    g, perm = case
    arr = g.mult.copy()
    arr[list(perm)] = g.mult
    arr[:, list(perm)] = arr.copy()
    h = MultiGraph(arr)
    a, b = search_exhaustive(g), search_exhaustive(h)
    key = lambda r: [(encode_graph6(x.candidate), x.isomorphic) for x in r.hits]
    assert key(a) == key(b)
    assert sum(x.isomorphic for x in a.hits) == 1
    for x, y in zip(a.hits, b.hits):
        assert abs(x.distance - y.distance) <= 1e-12
