"""graph6 text round-trips, malformed-input rejection, and the array codec
against the bit-by-bit reference."""

import random

import numpy as np
import pytest

from qcones import (
    FormatError,
    MultiGraph,
    decode_graph6,
    encode_graph6,
)

from helpers import (
    complete_graph,
    decode_graph6_bitwise,
    digon,
    encode_graph6_bitwise,
    from_edges,
    pair_order,
    path_graph,
    random_graph,
)


def test_pair_order_is_column_major():
    assert pair_order(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_k3_encodes_to_bw():
    assert encode_graph6(complete_graph(3)) == "Bw"


def test_p3_encodes_to_bg():
    assert encode_graph6(path_graph(3)) == "Bg"


def test_decode_k3():
    assert decode_graph6("Bw") == complete_graph(3)


def test_header_is_stripped():
    assert decode_graph6(">>graph6<<Bw") == complete_graph(3)


def test_roundtrip_random():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 21), rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_single_vertex():
    g = path_graph(1)
    assert decode_graph6(encode_graph6(g)) == g


def test_encode_rejects_multigraph():
    with pytest.raises(FormatError, match="graph6 encodes simple graphs only"):
        encode_graph6(digon())


def test_encode_rejects_large_order():
    g = from_edges(63, [(0, 1)])
    with pytest.raises(FormatError):
        encode_graph6(g)


def test_decode_rejects_empty():
    with pytest.raises(FormatError):
        decode_graph6("")


def test_decode_rejects_out_of_range_bytes():
    with pytest.raises(FormatError):
        decode_graph6("B\x1f")


def test_decode_rejects_long_form():
    with pytest.raises(FormatError):
        decode_graph6(chr(126) + "Bw")


def test_decode_rejects_truncation():
    full = encode_graph6(complete_graph(8))
    with pytest.raises(FormatError):
        decode_graph6(full[:-1])


def test_decode_rejects_trailing_garbage():
    with pytest.raises(FormatError):
        decode_graph6(encode_graph6(complete_graph(3)) + "w")


def test_decode_rejects_nonzero_padding():
    # n=2 uses one data byte with 1 payload bit; set a padding bit.
    sample = encode_graph6(path_graph(2))
    broken = sample[0] + chr(((ord(sample[1]) - 63) | 1) + 63)
    with pytest.raises(FormatError):
        decode_graph6(broken)


def test_decode_rejects_non_ascii():
    # "é" once read as "?", six zero bits: "Bé" decoded to three isolated vertices
    for text in ("Bé", "B\u00e9", "Bw\u00e9", "\u00c2w", "B\udcff"):
        with pytest.raises(FormatError, match="graph6 byte out of printable range"):
            decode_graph6(text)


def test_codec_matches_bitwise_reference_at_every_order():
    rng = random.Random(62)
    for n in range(1, 63):
        for p in (0.0, rng.random(), 1.0):
            g = random_graph(rng, n, p)
            text = encode_graph6(g)
            assert text == encode_graph6_bitwise(g)
            for framed in (text, f">>graph6<<{text}", f"  \t{text}\n", f"\n>>graph6<<{text} "):
                got = decode_graph6(framed).mult
                want = decode_graph6_bitwise(framed).mult
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_decoded_graph_equals_the_checked_constructor():
    # the decoder wraps its matrix without the constructor's copy and checks
    rng = random.Random(6)
    for n in range(1, 63):
        g = decode_graph6(encode_graph6(random_graph(rng, n, rng.random())))
        checked = MultiGraph(g.mult)
        assert g == checked and g.mult.dtype == checked.mult.dtype
        assert not g.mult.flags.writeable


def _outcome(fn, arg):
    try:
        fn(arg)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "text",
    ["", "   ", ">>graph6<<", ">>graph6<< \n", "~Bw", "~", "B\x1f", "\x1cBw", "B\x7f",
     " B}\x7f", "Bww", "B", "A@", "Bx", "?", "??", "}"],
    ids=["empty", "blank", "header-only", "header-blank", "long-form", "long-form-alone",
         "below-range", "below-range-first", "above-range", "above-range-late", "too-long",
         "too-short", "padding-n2", "padding-n3", "n0", "n0-with-body", "n62-no-body"],
)
def test_decode_rejections_match_bitwise_reference(text):
    want = _outcome(decode_graph6_bitwise, text)
    assert want is not None
    assert _outcome(decode_graph6, text) == want


@pytest.mark.parametrize(
    "g",
    [from_edges(63, [(0, 1)]), digon()],
    ids=["n63", "multigraph"],
)
def test_encode_rejections_match_bitwise_reference(g):
    want = _outcome(encode_graph6_bitwise, g)
    assert want is not None
    assert _outcome(encode_graph6, g) == want
