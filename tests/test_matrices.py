"""Matrix builders: frozen examples, identities, oracle cross-checks."""

import random

import networkx as nx
import pytest

import oracles
from snfcensus.graphio import graph_from_edges
from snfcensus.matrices import (
    DisconnectedGraphError,
    MatrixKind,
    adjacency_matrix,
    build_matrix,
    distance_matrix,
)

P3 = graph_from_edges(3, [(0, 1), (1, 2)])
K4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def complete(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected(n, rng):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        g = graph_from_edges(n, edges)
        if oracles.is_connected(g):
            return g


def test_p3_distances():
    assert distance_matrix(P3) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_complete_distances_are_J_minus_I():
    for n in (2, 3, 4, 7):
        d = distance_matrix(complete(n))
        assert d == [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def test_c5_rows_sum_to_six():
    d = distance_matrix(C5)
    for i, row in enumerate(d):
        assert sum(row) == 6
        for j, x in enumerate(row):
            assert (x == 0) == (i == j)
            if i != j:
                assert x in (1, 2)


def transmissions(g):
    return [sum(row) for row in distance_matrix(g)]


def shifted_distances(g, d):
    """diag(d) + D(G)."""
    m = distance_matrix(g)
    for i, x in enumerate(d):
        m[i][i] += x
    return m


def test_distance_matches_floyd_warshall():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected(rng.randrange(2, 10), rng)
        assert distance_matrix(g) == oracles.floyd_warshall(g)


def test_raises_exactly_on_disconnected_7_vertex_graphs():
    atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes() == 7]
    assert len(atlas) == 1044
    disconnected = 0
    for a in atlas:
        g = graph_from_edges(7, a.edges())
        want = oracles.floyd_warshall(g)
        if any(x >= 10**9 for row in want for x in row):
            disconnected += 1
            with pytest.raises(DisconnectedGraphError):
                distance_matrix(g)
        else:
            assert distance_matrix(g) == want
    assert disconnected == 191


def test_disconnected_raises():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        distance_matrix(g)
    with pytest.raises(DisconnectedGraphError):
        build_matrix(g, MatrixKind.DL)


def test_k4_dq_example():
    m = build_matrix(K4, MatrixKind.DQ)
    assert m == [[3 if i == j else 1 for j in range(4)] for i in range(4)]


def test_p3_dl_example():
    assert build_matrix(P3, MatrixKind.DL) == [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]


def test_transmission_p3():
    assert transmissions(P3) == [3, 2, 3]
    dl = build_matrix(P3, MatrixKind.DL)
    assert [dl[i][i] for i in range(3)] == [3, 2, 3]


def test_kind_parse():
    assert MatrixKind.parse("dl") is MatrixKind.DL
    assert MatrixKind.parse(" Q ") is MatrixKind.Q
    with pytest.raises(ValueError):
        MatrixKind.parse("X")


def test_generalized_matrix_relations():
    # diag(d) + D is DQ at d = tr and -DL at d = -tr
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected(rng.randrange(2, 8), rng)
        tr = transmissions(g)
        assert shifted_distances(g, tr) == build_matrix(g, MatrixKind.DQ)
        neg = shifted_distances(g, [-t for t in tr])
        dl = build_matrix(g, MatrixKind.DL)
        assert [[-x for x in row] for row in neg] == dl


def test_matrix_identities():
    rng = random.Random(17)
    for _ in range(30):
        g = random_connected(rng.randrange(2, 9), rng)
        n = g.n
        a = adjacency_matrix(g)
        lap = build_matrix(g, MatrixKind.L)
        q = build_matrix(g, MatrixKind.Q)
        deg = g.degrees()
        # L + Q = 2 diag(deg); Q - L = 2A; L rows sum to zero
        for i in range(n):
            assert sum(lap[i]) == 0
            for j in range(n):
                assert lap[i][j] + q[i][j] == (2 * deg[i] if i == j else 0)
                assert q[i][j] - lap[i][j] == 2 * a[i][j]
        dl = build_matrix(g, MatrixKind.DL)
        dq = build_matrix(g, MatrixKind.DQ)
        dist = distance_matrix(g)
        tr = transmissions(g)
        for i in range(n):
            assert sum(dl[i]) == 0
            for j in range(n):
                assert dq[i][j] - dist[i][j] == (tr[i] if i == j else 0)
        # transmissions: at least n-1 each, even total
        assert all(t >= n - 1 for t in tr)
        assert sum(tr) % 2 == 0


def test_diameter_one_collapses_kinds():
    for n in (2, 3, 5, 8):
        g = complete(n)
        assert build_matrix(g, MatrixKind.D) == build_matrix(g, MatrixKind.A)
        assert build_matrix(g, MatrixKind.DL) == build_matrix(g, MatrixKind.L)
        assert build_matrix(g, MatrixKind.DQ) == build_matrix(g, MatrixKind.Q)
