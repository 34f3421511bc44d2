"""Bit-exact graph6 codec for simple graphs on at most 62 vertices.

Only the short form (single size byte) is handled.  Upper-triangle adjacency
bits are taken in column order (0,1), (0,2), (1,2), (0,3), ... and packed six
per byte, most significant bit first, zero-padded, each six-bit group offset
by 63 into printable ASCII.  Input is ASCII only: any other character is a
byte out of the printable range.

Both directions work on whole numpy arrays: the bytes are checked on one
view, the six-bit groups are unpacked or packed at once, and the bits go
through the pairs' index arrays, built once per order on first use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import FormatError
from .graphs import _SPACE, MultiGraph

_HEADER = ">>graph6<<"
MAX_GRAPH6_VERTICES = 62


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the upper-triangle pairs in the codec's column
    order (at most one entry per order up to MAX_GRAPH6_VERTICES)."""
    cols, rows = np.tril_indices(n, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def encode_graph6(g: MultiGraph) -> str:
    if not g.is_simple():
        raise FormatError("graph6 encodes simple graphs only")
    n = g.n
    if n > MAX_GRAPH6_VERTICES:
        raise FormatError(f"graph6 short form capped at n <= {MAX_GRAPH6_VERTICES}")
    npairs = n * (n - 1) // 2
    bits = np.zeros(6 * ((npairs + 5) // 6), dtype=np.uint8)
    bits[:npairs] = g.mult[_pair_index(n)]
    # packbits fills eight bits from the top, so each six-bit group sits two up
    body = (np.packbits(bits.reshape(-1, 6), axis=1).ravel() >> 2) + 63
    return chr(n + 63) + body.tobytes().decode("ascii")


def decode_graph6(text: str) -> MultiGraph:
    s = text.strip(_SPACE)  # \x1c-\x1f or a non-ASCII space stays, out of range
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise FormatError("empty graph6 string")
    # UTF-8 turns every non-ASCII character (a lone surrogate too) into
    # bytes >= 128; uint8 wraps bytes below 63 round to >= 193
    six = np.frombuffer(s.encode("utf-8", errors="surrogatepass"), dtype=np.uint8) - 63
    if (six > 63).any():
        raise FormatError("graph6 byte out of printable range")
    n = int(six[0])  # at most 63, and 63 ("~") opens the long form
    if n == 63:
        raise FormatError("long-form graph6 sizes are not supported")
    if n < 1:
        raise FormatError("graph needs at least one vertex")
    npairs = n * (n - 1) // 2
    expected = 1 + (npairs + 5) // 6
    if six.size != expected:
        raise FormatError(f"graph6 body has {six.size} bytes, expected {expected}")
    # eight bits per byte, most significant first; the top two are zero
    bits = np.unpackbits(six[1:, None], axis=1)[:, 2:].ravel()
    if bits[npairs:].any():
        raise FormatError("non-zero padding bits")
    rows, cols = _pair_index(n)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[rows, cols] = bits[:npairs]
    arr[cols, rows] = bits[:npairs]
    return MultiGraph._wrap(arr)
