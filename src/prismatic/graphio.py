"""graph6 codec.

graph6 is the standard printable-ASCII encoding: a size prefix N(n) followed
by the upper triangle of the adjacency matrix in column-major order, packed
6 bits per character with offset 63.  We support n < 2^18 (one- and
four-byte size prefixes).
"""

from __future__ import annotations

import binascii

from .graphs import Graph, bits

_MAX_N = 1 << 18
_G6_ALPHABET = bytes(range(63, 127))
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_ALPHABET)
_G6_TO_B64 = bytes.maketrans(_G6_ALPHABET, _B64_ALPHABET)


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n < _MAX_N:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError("graph6 size %d out of supported range" % n)


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise ValueError("empty graph6 string")
    b = data[0]
    if b == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graph6 sizes >= 2^18 are not supported")
        if len(data) < 4:
            raise ValueError("truncated graph6 size prefix")
        vals = []
        for c in data[1:4]:
            if not 63 <= c <= 126:
                raise ValueError("non-printable byte %d in graph6 size" % c)
            vals.append(c - 63)
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    if not 63 <= b <= 125:
        raise ValueError("invalid graph6 leading byte %d" % b)
    return b - 63, 1


def write_graph6(g: Graph) -> str:
    # By symmetry, column c of the upper triangle is the low c bits of row c,
    # emitted from row 0 up.  base64 packs a bit stream into 6-bit groups,
    # high bit first, exactly as graph6 does; only the alphabet differs.  The
    # prefix comes first, so an unsupported size fails before the stream.
    prefix = _encode_size(g.n)
    stream = "".join(
        format(row & ((1 << c) - 1), "0%db" % c)[::-1] for c, row in enumerate(g.adj) if c
    )
    nchars = (len(stream) + 5) // 6
    stream += "0" * (-len(stream) % 24)
    packed = int(stream or "0", 2).to_bytes(len(stream) // 8, "big")
    body = binascii.b2a_base64(packed, newline=False).translate(_B64_TO_G6)[:nchars]
    return (prefix + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    data = text.strip().encode("ascii")
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<") :]
    n, pos = _decode_size(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise ValueError(
            "graph6 body has %d bytes, expected %d for n=%d" % (len(body), nbytes, n)
        )
    bad = body.translate(None, _G6_ALPHABET)
    if bad:
        raise ValueError("non-printable byte %d in graph6 body" % bad[0])
    # padding bits must be zero
    if nbits % 6:
        byte = body[-1] - 63
        if byte & ((1 << (6 - nbits % 6)) - 1):
            raise ValueError("nonzero padding bits in graph6 body")
    padded = body.translate(_G6_TO_B64) + b"A" * (-len(body) % 4)
    stream = format(int.from_bytes(binascii.a2b_base64(padded), "big"), "0%db" % (6 * len(padded)))
    # Column c gives the neighbours of c below c; mirror each edge into its row.
    adj = [0] * n
    start = 0
    for c in range(1, n):
        column = int(stream[start : start + c][::-1], 2)
        start += c
        adj[c] = column
        for r in bits(column):
            adj[r] |= 1 << c
    return Graph._trusted(n, adj)
