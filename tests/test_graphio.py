"""graph6 codec: frozen bytes, error taxonomy, oracle cross-checks."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from snfcensus.gen import graph6_file_stream
from snfcensus.graphio import (
    Graph,
    Graph6ByteError,
    Graph6LengthError,
    Graph6SizeError,
    graph_from_edges,
    parse_graph6,
    write_graph6,
)

K3 = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
P2 = graph_from_edges(2, [(0, 1)])


def random_graph(n, density, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return graph_from_edges(n, edges)


class TestFrozenRecords:
    def test_k3_is_Bw(self):
        assert write_graph6(K3) == b"Bw"
        assert parse_graph6(b"Bw") == K3

    def test_p2_is_A_(self):
        assert write_graph6(P2) == b"A_"

    def test_single_vertex(self):
        g = parse_graph6(b"@")
        assert g.n == 1 and g.adj == (0,)

    def test_DQc_round_trip(self):
        g = parse_graph6(b"DQc")
        assert g.n == 5
        assert write_graph6(g) == b"DQc"

    def test_trailing_newline_tolerated(self):
        assert parse_graph6(b"Bw\n") == K3
        assert parse_graph6("Bw\r\n") == K3


class TestErrors:
    def test_empty(self):
        with pytest.raises(Graph6SizeError):
            parse_graph6(b"")

    def test_long_form_rejected(self):
        with pytest.raises(Graph6SizeError):
            parse_graph6(b"~??")

    def test_size_byte_below_range(self):
        with pytest.raises(Graph6SizeError):
            parse_graph6(b"\x3a")

    def test_truncated(self):
        with pytest.raises(Graph6LengthError):
            parse_graph6(b"D")  # n=5 needs 2 data bytes

    def test_trailing_garbage(self):
        with pytest.raises(Graph6LengthError):
            parse_graph6(b"Bww")

    def test_bad_data_byte(self):
        with pytest.raises(Graph6ByteError):
            parse_graph6(b"B\x20")

    def test_write_rejects_large(self):
        g = Graph(63, tuple(0 for _ in range(63)))
        with pytest.raises(Graph6SizeError):
            write_graph6(g)

    def test_every_wrong_length_rejected(self):
        # spec property: reject any record whose length is off by one
        for n in (2, 3, 5, 8, 13):
            g = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
            rec = write_graph6(g)
            with pytest.raises(Graph6LengthError):
                parse_graph6(rec + b"?")
            if len(rec) > 1:
                with pytest.raises(Graph6LengthError):
                    parse_graph6(rec[:-1])


class TestPadding:
    def test_nonzero_padding_counted(self, tmp_path):
        # K3 data byte 'w' = 111000 + 63; flip a padding bit: 111001 -> 'x'
        assert parse_graph6(b"Bx") == K3
        p = tmp_path / "dirty.g6"
        p.write_bytes(b"Bw\nBx\nBw\n")
        s = graph6_file_stream(str(p))
        assert s.padding_warnings == 0
        assert list(s) == [K3] * 3
        assert s.padding_warnings == 1
        assert len(list(s)) == 3 and s.padding_warnings == 1  # per pass

    def test_output_padding_is_zero(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 15)
            g = random_graph(n, 0.4, rng)
            rec = write_graph6(g)
            bits = n * (n - 1) // 2
            if bits % 6:
                pad = 6 - bits % 6
                assert (rec[-1] - 63) & ((1 << pad) - 1) == 0


class TestRoundTrip:
    def test_random_graphs_round_trip(self):
        rng = random.Random(20250819)
        for _ in range(300):
            n = rng.randrange(1, 30)
            g = random_graph(n, rng.random(), rng)
            assert parse_graph6(write_graph6(g)) == g

    def test_matches_naive_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(1, 20)
            g = random_graph(n, 0.5, rng)
            edge_set = set(oracles.edges(g))
            assert write_graph6(g) == oracles.naive_graph6_encode(n, edge_set)
            back_n, back_edges = oracles.naive_graph6_decode(write_graph6(g))
            assert back_n == n and back_edges == edge_set

    @given(st.integers(1, 16), st.integers(0, 2**120 - 1))
    def test_round_trip_property(self, n, mask):
        edges = []
        k = 0
        for j in range(1, n):
            for i in range(j):
                if (mask >> k) & 1:
                    edges.append((i, j))
                k += 1
        g = graph_from_edges(n, edges)
        assert parse_graph6(write_graph6(g)) == g


class TestGraphType:
    def test_symmetry_and_no_loops(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_graph(rng.randrange(2, 12), 0.5, rng)
            for v in range(g.n):
                assert not g.adj[v] >> v & 1
                for u in range(g.n):
                    assert g.adj[u] >> v & 1 == g.adj[v] >> u & 1

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(0, 3)])

    def test_degrees_and_edges(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degrees() == (1, 2, 2, 1)
        assert g.adj == (0b10, 0b101, 0b1010, 0b100)
        assert g.edge_count() == 3
