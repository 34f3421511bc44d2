"""Property tests: round-trips of spec text and graph6, moments against exact
traces, closed cone spectra against numeric ones, independence from the
vertex labelling (exhaustive-search hits, counted moments, cone recognition,
spectra and components), the CLI's output contract on fuzzed input, and the
CLI's JSON writer against `json.dumps(indent=2)`."""

import ast
import contextlib
import io
import json
import re
import string

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcones import (  # noqa: E402
    ConeSpec,
    FormatError,
    MultiGraph,
    ScaleError,
    closed_spectrum,
    components_and_bipartiteness,
    decode_graph6,
    encode_graph6,
    format_spec_text,
    moments_from_counts,
    parse_spec_text,
    q_spectrum,
    realize,
    recognize_cone,
    search_exhaustive,
)
from qcones.cli import _json, main  # noqa: E402
from qcones.orbits import _orbit  # noqa: E402
from qcones.eigen import q_matrix  # noqa: E402
from qcones.search import _power_traces  # noqa: E402

from helpers import mask_graph, permutation_bits, power_sum  # noqa: E402


def relabel(g: MultiGraph, perm) -> MultiGraph:
    """The graph with vertex v renamed perm[v]."""
    arr = g.mult.copy()
    arr[list(perm)] = g.mult
    arr[:, list(perm)] = arr.copy()
    return MultiGraph(arr)


@st.composite
def graph_and_relabelling(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(range(n)))
    return mask_graph(mask, n), perm


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


@st.composite
def small_multigraphs(draw):
    """Graphs on up to 8 vertices with multiplicities 0..2 (digons), some
    of them simple."""
    n = draw(st.integers(min_value=1, max_value=8))
    top = draw(st.sampled_from((1, 2)))
    arr = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        for u in range(v):
            arr[u, v] = arr[v, u] = draw(st.integers(min_value=0, max_value=top))
    return MultiGraph(arr)


@settings(max_examples=150, deadline=2000)
@given(small_multigraphs())
def test_power_traces_are_the_rounded_power_sums(g):
    # the exhaustive key (m, sum d^2, tr Q^3) is (t1 // 2, t2 - t1, t3)
    spec = q_spectrum(g)
    assert _power_traces(q_matrix(g)) == tuple(round(power_sum(spec, r)) for r in (1, 2, 3, 4))


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_row_sums_are_all_relabellings(n):
    """Every mask on n <= 6 vertices: its orbit, column by column, is the
    mask's bits times the permutation-gathered image table."""
    k = n * (n - 1) // 2
    table = permutation_bits(n)
    for lo in range(0, 1 << k, 2048):
        masks = np.arange(lo, min(lo + 2048, 1 << k))
        bits = (masks[:, None] >> np.arange(k)) & 1
        got = np.array([_orbit(int(m), n) for m in masks])
        assert np.array_equal(got, bits @ table)


@settings(max_examples=200, deadline=2000)
@given(cone_specs)
def test_spec_text_round_trip(spec):
    assert parse_spec_text(format_spec_text(spec)) == spec


_NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.sampled_from(("", "00", "007", "4096", "4097", "0000000001", "12345")),
)
_TERMS = st.one_of(
    st.just("K13"),
    st.tuples(st.sampled_from(("C", "P")), _NUMBERS).map("".join),
    st.tuples(_NUMBERS, st.sampled_from(("K1", "K2"))).map("".join),
    st.sampled_from(("", "K3", "K14", "v", "C-1", "2K13")),
)
_SPACES = st.text(string.whitespace, max_size=2)


@st.composite
def grammar_texts(draw):
    """'+'-joined terms from the grammar's atoms, with ASCII spaces around
    each and an optional prefix; some terms are empty, unknown or out of
    range."""
    terms = draw(st.lists(st.tuples(_SPACES, _TERMS, _SPACES).map("".join),
                          min_size=1, max_size=5))
    prefix = draw(st.sampled_from(("", "K1 v ", "K1 V", " K1\tv\n", "K1 v")))
    return prefix + "+".join(terms)


@settings(max_examples=500, deadline=2000)
@given(grammar_texts())
def test_spec_text_parses_or_points_at_its_term(text):
    """A text parses and round-trips, or raises FormatError or ScaleError
    whose "at position p" is where the term it names (if any) starts."""
    try:
        spec = parse_spec_text(text)
    except (FormatError, ScaleError) as exc:
        at = re.search(r"at position (\d+)", str(exc))
        named = re.search(r"('[^']*') at position", str(exc))
        if named:
            p = int(at.group(1))
            assert text[p - 1:].startswith(ast.literal_eval(named.group(1))), (text, str(exc))
        elif at:
            assert 1 <= int(at.group(1)) <= len(text) + 1, (text, str(exc))
        return
    assert parse_spec_text(format_spec_text(spec)) == spec


@st.composite
def simple_graphs(draw, max_n=62):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << k) - 1))
    return mask_graph(mask, n)


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


@settings(max_examples=100, deadline=2000)
@given(simple_graphs(max_n=12), st.randoms(use_true_random=False))
def test_spectra_and_components_ignore_the_labelling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert np.abs(q_spectrum(g).values - q_spectrum(h).values).max() <= 1e-12
    assert components_and_bipartiteness(h) == components_and_bipartiteness(g)


# cycles 2..11 (digons too), paths 1..14 and 0..2 claws, order <= 40
closed_specs = st.tuples(
    st.lists(st.integers(min_value=2, max_value=11), max_size=4),
    st.lists(st.integers(min_value=1, max_value=14), max_size=5),
    st.integers(min_value=0, max_value=2),
).filter(lambda t: any(t) and 1 + sum(t[0]) + sum(t[1]) + 4 * t[2] <= 40).map(
    lambda t: ConeSpec(cycles=tuple(t[0]), paths=tuple(t[1]), stars13=t[2])
)


@settings(max_examples=200, deadline=2000)
@given(closed_specs)
def test_closed_spectrum_matches_the_numeric_one(spec):
    closed = closed_spectrum(spec)
    assert len(closed.sources) == spec.n
    assert np.abs(closed.values - q_spectrum(realize(spec)).values).max() <= 1e-12


@st.composite
def spec_texts(draw):
    """Spec text from the grammar's terms with base order <= 39; cycle and
    path sizes start at 0, so some terms are out of range."""
    terms = []
    room = 39
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(("C", "P", "K2", "K1", "K13")))
        size = draw(st.integers(min_value=0, max_value=max(room // 2, 1)))
        count = max(size, 1)
        cost = {"C": size, "P": size, "K2": 2 * count, "K1": count, "K13": 4}[kind]
        if cost > room:
            break
        room -= cost
        if kind in ("C", "P"):
            terms.append(f"{kind}{size}")
        else:
            terms.append(kind if kind == "K13" or size < 2 else f"{size}{kind}")
    prefix = draw(st.sampled_from(("K1 v ", "K1 V ", "")))
    return prefix + " + ".join(terms)


cli_inputs = st.one_of(
    spec_texts(),
    st.text(string.printable, max_size=24),
    st.text(st.characters(min_codepoint=63, max_codepoint=126), min_size=1, max_size=8),
)
CLI_CALLS = (
    ["spectrum", "--numeric"],
    ["spectrum", "--closed"],
    ["spectrum", "--both"],
    ["moments", "--from", "counts"],
    ["moments", "--from", "spectrum"],
    ["moments", "--from", "both"],
    ["mate", "--theorem", "11"],
    ["mate", "--theorem", "13"],
    ["search", "--family"],
    ["search", "--exhaustive"],
    ["probe", "--lemma", "2.2"],
    ["probe", "--lemma", "2.3"],
    ["probe", "--lemma", "2.4"],
    ["probe", "--lemma", "2.10"],
    ["probe", "--lemma", "5.1"],
)


@settings(max_examples=300, deadline=5000)
@given(cli_inputs, st.sampled_from(CLI_CALLS))
def test_cli_answers_every_input_with_one_json_document(text, call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([call[0], text, *call[1:]])
        except SystemExit as exc:
            # argparse reads an input that begins with "-" as an option
            assert exc.code == 2 and text.startswith("-"), err.getvalue()
            return
    assert code in (0, 2, 3, 4, 5), out.getvalue()
    doc = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    assert doc["command"] == call[0] and doc["input"] == text
    assert (doc["result"] is None) == (code not in (0, 3))


def dumps(doc) -> str:
    """The CLI writer on a whole document, as `_emit` calls it."""
    return _json(doc, "\n")


json_strings = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\té\u2028\U0001f600\ud800'), max_size=8),
)
json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e22, 1.7e308, -1.7e308, 0.1]),
)
json_leaves = st.one_of(
    json_strings,
    st.integers(),
    st.integers(min_value=2 ** 63 - 2, max_value=2 ** 70),
    st.integers(max_value=-(2 ** 63) + 2, min_value=-(2 ** 70)),
    st.booleans(),
    st.none(),
    json_floats,
    json_floats.map(np.float64),
)
json_docs = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        # flat float lists take the writer's one-join path; 1.7e308 twice
        # overflows the sum it checks, which sends them the long way
        st.lists(json_floats, max_size=6),
        st.dictionaries(json_strings, kids, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(json_docs)
def test_json_writer_matches_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "doc",
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"), [1.0, float("nan")],
     [1e308, float("inf")], {"a": [1, {"b": -float("inf")}]}, (0.5, float("nan"))],
)
def test_json_writer_rejects_non_finite_floats(doc):
    with pytest.raises(ValueError):
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [np.int64(3), {1, 2}, [1.0, np.int64(2)], {"a": set()}, np.bool_(True), {(1, 2): 3},
     frozenset(), {"a": [object()]}],
)
def test_json_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
def test_json_writer_takes_only_string_keys(key):
    with pytest.raises(TypeError):
        dumps({"a": {key: 1}})
