import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from prismatic.families import exa1_graph, figure_f9
from prismatic.graphio import (
    _decode_size,
    _encode_size,
    parse_graph6,
    write_graph6,
)
from prismatic.graphs import Graph, build_graph, complete_graph, cycle_graph, empty_graph


# -- reference codec: one adjacency bit at a time ------------------------------


def reference_write_graph6(g):
    out = bytearray(_encode_size(g.n))
    acc = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            acc = (acc << 1) | ((g.adj[row] >> col) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def reference_parse_graph6(text):
    data = text.strip().encode("ascii")
    n, pos = _decode_size(data)
    nbits = n * (n - 1) // 2
    body = data[pos:]
    if len(body) != (nbits + 5) // 6:
        raise ValueError("wrong body length")
    for c in body:
        if not 63 <= c <= 126:
            raise ValueError("non-printable byte")
    adj = [0] * n
    k = 0
    for col in range(1, n):
        for row in range(col):
            if ((body[k // 6] - 63) >> (5 - (k % 6))) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            k += 1
    if nbits % 6 and (body[-1] - 63) & ((1 << (6 - nbits % 6)) - 1):
        raise ValueError("nonzero padding bits")
    return Graph(n, adj)


def _outcome(parse, text):
    try:
        return parse(text).adj
    except ValueError:
        return ValueError


# n = 0, 1, the last one-byte size (62), the first four-byte one (63), and
# sizes past it whose bit counts leave every padding width 0..5
G6_SIZES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 5, 62, 63, 64, 65, 66, 67, 100, 129]), st.integers(0, 90)
)


@st.composite
def random_graphs(draw):
    n = draw(G6_SIZES)
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = itertools.combinations(range(n), 2)
    return build_graph(n, [p for p in pairs if rng.random() < density])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_graphs())
def test_graph6_codec_matches_per_bit_reference(g):
    text = write_graph6(g)
    assert text == reference_write_graph6(g)
    assert parse_graph6(text).adj == reference_parse_graph6(text).adj == g.adj
    nbits = g.n * (g.n - 1) // 2
    for pad_bit in range(6 - nbits % 6 if nbits % 6 else 0):
        bad = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | (1 << pad_bit)))
        assert _outcome(parse_graph6, bad) is _outcome(reference_parse_graph6, bad) is ValueError


@settings(max_examples=150, deadline=None, derandomize=True)
@given(G6_SIZES, st.data())
def test_graph6_decoder_matches_per_bit_reference_on_any_body(n, data):
    # arbitrary printable bodies, nonzero padding included, and stray bytes
    nchars = (n * (n - 1) // 2 + 5) // 6
    alphabet = st.one_of(st.integers(63, 126), st.integers(0, 62), st.just(127))
    body = data.draw(st.lists(st.integers(63, 126), min_size=nchars, max_size=nchars))
    if body and data.draw(st.booleans()):
        body[data.draw(st.integers(0, len(body) - 1))] = data.draw(alphabet)
    text = (_encode_size(n) + bytes(body)).decode("ascii")
    assert _outcome(parse_graph6, text) == _outcome(reference_parse_graph6, text)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_graph6_known_strings():
    # encodings checked against the format definition by hand
    assert write_graph6(complete_graph(2)) == "A_"
    assert write_graph6(empty_graph(2)) == "A?"
    assert write_graph6(cycle_graph(5)) == "Dhc"
    # nauty's canonically-labelled C5 decodes to a 5-cycle too
    g = parse_graph6("DqK")
    assert g.n == 5 and g.degrees() == [2] * 5 and g.is_connected()


def test_graph6_round_trip_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            assert parse_graph6(write_graph6(g)).adj == g.adj


def test_graph6_round_trip_large_n():
    # n > 62 exercises the long-form size prefix
    g = cycle_graph(70)
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s).adj == g.adj


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("A")  # truncated bit data
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(20))  # byte below printable range
    with pytest.raises(ValueError, match="not supported"):
        parse_graph6("~~??????")  # the eight-byte size form
    with pytest.raises(ValueError, match="truncated"):
        parse_graph6("~??")
    with pytest.raises(ValueError, match="non-printable byte 20 in graph6 size"):
        parse_graph6("~?" + chr(20) + "?")


def test_graph6_ignores_optional_header():
    s = write_graph6(cycle_graph(4))
    assert parse_graph6(">>graph6<<" + s).adj == cycle_graph(4).adj


def test_fixture_loading():
    f9 = ["H{dQXgj", "H{dX`TF", "H{db?{]", "H|ogqKV"]
    for i, text in enumerate(f9, start=1):
        g = figure_f9(i)
        assert g.n == 9 and g.degrees() == [4] * 9
        assert write_graph6(g) == text
    f10 = exa1_graph()
    assert f10.n == 13 and f10.degrees() == [6] * 13
    assert write_graph6(f10) == "L~}CBLeF_{?n?~"
