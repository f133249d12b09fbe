"""Generators: class counts, canonical-form laws, stream behavior."""

import hashlib
import itertools
import random
import time
from collections import Counter

import networkx as nx
import pytest

import oracles
from snfcensus import gen
from snfcensus.gen import (
    GraphStream,
    build_connected_catalog,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    enumerate_connected,
    enumerate_trees,
    graph6_file_stream,
)
from snfcensus.graphio import Graph6Error, graph_from_edges, parse_graph6, write_graph6

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# SHA-1 of the newline-joined graph6 records of enumerate_connected(n),
# pinning both the classes and their order
CONNECTED_SHA1 = {
    1: "9a78211436f6d425ec38f5c4e02270801f3524f8",
    2: "1c4bad6d491e4c8e21e7304e7b9a8d38a740b19a",
    3: "135cd47644a8eee4721431fc0485032981b785cd",
    4: "ca0db74664cecc07cb5e8dace6c1c1460021f93d",
    5: "4a5be38de06dd1dc41f9121e1007ab8bfc54086e",
    6: "093e2b7c4eed4743d88e4575de475533932309a2",
    7: "170cc7a29c98b11874ce73067faf51a61dca1426",
    8: "55745dc80e7a11b7ae2d9d53cfeea1dd98d3cb58",
}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


def random_graph(n, rng, density=None):
    d = rng.random() if density is None else density
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < d]
    return graph_from_edges(n, edges)


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in oracles.edges(g)])


def cycle_edges(k, offset=0):
    return [(offset + i, offset + (i + 1) % k) for i in range(k)]


def clique_edges(k, offset=0):
    return [(offset + i, offset + j) for i in range(k) for j in range(i + 1, k)]


def twin_graph(n, rng):
    """A random base graph blown up to n vertices: each base vertex
    becomes a class of true twins (a clique) or of false twins (an
    independent set), all with that vertex's outside neighbours."""
    base = random_graph(rng.randrange(4, n), rng)
    owner = list(range(base.n)) + [rng.randrange(base.n) for _ in range(n - base.n)]
    rng.shuffle(owner)
    clique = [rng.random() < 0.5 for _ in range(base.n)]
    return graph_from_edges(n, [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if (owner[u] == owner[v] and clique[owner[u]])
        or base.adj[owner[u]] >> owner[v] & 1])


def has_twins(g, adjacent):
    return any(not (g.adj[u] ^ g.adj[v]) & ~(1 << u | 1 << v)
               and g.adj[u] >> v & 1 == adjacent
               for u in range(g.n) for v in range(u + 1, g.n))


# canonical forms computed by the earlier depth-first search; the
# symmetric ones are its worst cases (K_{1,9} took over a second)
PINNED_FORMS = {
    "K_{1,9}": (complete_bipartite_graph(1, 9), b"I??????~w"),
    "K_{2,8}": (complete_bipartite_graph(2, 8), b"I????B~~o"),
    "K_{5,5}": (complete_bipartite_graph(5, 5), b"I?B~vrw}?"),
    "petersen": (graph_from_edges(10, cycle_edges(5) + [(i, i + 5) for i in range(5)]
                                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
                 b"I?LRCecq?"),
    "C_10": (graph_from_edges(10, cycle_edges(10)), b"I??XQa_o?"),
    "5-prism": (graph_from_edges(10, cycle_edges(5) + cycle_edges(5, 5)
                                 + [(i, i + 5) for i in range(5)]),
                b"I?CilROw?"),
    "K_5xK_2": (graph_from_edges(10, clique_edges(5) + clique_edges(5, 5)
                                 + [(i, i + 5) for i in range(5)]),
                b"IJ]KlNF}?"),
}
# SHA-1 of the newline-joined canonical forms of pin_graphs(), computed
# by the earlier depth-first search
PIN_GRAPHS_SHA1 = "c82d63737a7c05cf884df0d89f6dcc22a4559f41"


def pin_graphs():
    """2,400 seeded graphs on 9 and 10 vertices, half with twin classes."""
    rng = random.Random(7)
    return [twin_graph(9 + i % 2, rng) if i % 4 >= 2 else random_graph(9 + i % 2, rng)
            for i in range(2400)]


class TestCanonicalForm:
    def test_relabeling_invariance_p3(self):
        a = graph_from_edges(3, [(0, 1), (1, 2)])
        b = graph_from_edges(3, [(1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_relabeling_invariance_random(self):
        rng = random.Random(6021)
        for _ in range(500):
            n = rng.randrange(1, 10)
            g = random_graph(n, rng)
            assert canonical_form(g) == canonical_form(relabel(g, rng))

    @pytest.mark.parametrize("name", sorted(PINNED_FORMS))
    def test_pinned_forms(self, name):
        g, want = PINNED_FORMS[name]
        rng = random.Random(name)
        assert canonical_form(g) == want
        for _ in range(3):
            assert canonical_form(relabel(g, rng)) == want

    def test_output_digest_on_twin_heavy_graphs(self):
        graphs = pin_graphs()
        assert sum(has_twins(g, 1) for g in graphs) > 1000
        assert sum(has_twins(g, 0) for g in graphs) > 1000
        data = b"\n".join(canonical_form(g) for g in graphs)
        assert hashlib.sha1(data).hexdigest() == PIN_GRAPHS_SHA1

    @pytest.mark.parametrize("name", ["K_{1,9}", "K_{5,5}"])
    def test_twin_classes_are_not_permuted(self, name):
        # each twin class is placed in index order only; trying all its
        # orders took about 0.07 s on K_{5,5} and over 1 s on K_{1,9}
        g, _ = PINNED_FORMS[name]
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            canonical_form(g)
            best = min(best, time.perf_counter() - t)
        assert best < 0.05

    def test_labeled_graphs_on_4_vertices_give_11_classes(self):
        forms = set()
        for mask in range(64):
            edges = []
            k = 0
            for j in range(1, 4):
                for i in range(j):
                    if (mask >> k) & 1:
                        edges.append((i, j))
                    k += 1
            forms.add(canonical_form(graph_from_edges(4, edges)))
        assert len(forms) == 11

    def test_agrees_with_brute_force_classes(self):
        # same partition into classes as the all-permutations oracle
        rng = random.Random(40)
        graphs = [random_graph(5, rng) for _ in range(60)]
        for g, h in itertools.combinations(graphs, 2):
            same = canonical_form(g) == canonical_form(h)
            assert same == oracles.are_isomorphic(g, h)

    def test_output_is_valid_graph6_of_isomorphic_graph(self):
        rng = random.Random(41)
        for _ in range(100):
            g = random_graph(rng.randrange(1, 8), rng)
            back = parse_graph6(canonical_form(g))
            assert back.n == g.n
            assert sorted(back.degrees()) == sorted(g.degrees())
            if g.n <= 6:
                assert oracles.are_isomorphic(back, g)

    def test_idempotent(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_graph(rng.randrange(1, 9), rng)
            cf = canonical_form(g)
            assert canonical_form(parse_graph6(cf)) == cf

    def test_too_large_rejected(self):
        g = graph_from_edges(11, [(i, i + 1) for i in range(10)])
        with pytest.raises(ValueError):
            canonical_form(g)


class TestEnumerateConnected:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected(n)) == count

    @pytest.mark.parametrize("n,digest", sorted(CONNECTED_SHA1.items()))
    def test_output_digest(self, n, digest):
        data = b"\n".join(write_graph6(g) for g in enumerate_connected(n))
        assert hashlib.sha1(data).hexdigest() == digest

    def test_counts_match_group_theory_oracle(self):
        for n in range(1, 8):
            assert CONNECTED_COUNTS[n] == oracles.connected_graph_count(n)

    def test_atlas_agreement(self):
        # graph atlas: all graphs with up to 7 vertices, independently curated
        atlas = nx.graph_atlas_g()[1:]
        for n in range(1, 8):
            expect = sum(
                1 for a in atlas
                if a.number_of_nodes() == n and nx.is_connected(a)
            )
            assert sum(1 for _ in enumerate_connected(n)) == expect

    def test_all_connected_and_distinct(self):
        for n in (5, 6):
            forms = []
            for g in enumerate_connected(n):
                assert g.n == n
                assert oracles.is_connected(g)
                forms.append(canonical_form(g))
            assert len(set(forms)) == len(forms)

    def test_lexicographic_order(self):
        recs = [write_graph6(g) for g in enumerate_connected(6)]
        assert recs == sorted(recs)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_connected(0)
        with pytest.raises(ValueError):
            enumerate_connected(9)


class TestEnumerateTrees:
    @pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_trees(n)) == count

    def test_every_emission_is_a_tree(self):
        for n in (2, 5, 8):
            forms = set()
            for g in enumerate_trees(n):
                assert g.n == n
                assert g.edge_count() == n - 1
                assert oracles.is_connected(g)
                forms.add(canonical_form(g))
            assert len(forms) == TREE_COUNTS[n]

    def test_against_prufer_oracle(self):
        # labeled trees from all Prufer sequences, deduplicated by class
        for n in (5, 6, 7):
            classes = set()
            for seq in itertools.product(range(n), repeat=n - 2):
                classes.add(canonical_form(oracles.prufer_to_graph(seq, n)))
            assert len(classes) == TREE_COUNTS[n]
            mine = {canonical_form(g) for g in enumerate_trees(n)}
            assert mine == classes

    def test_deterministic_order(self):
        a = [write_graph6(g) for g in enumerate_trees(9)]
        b = [write_graph6(g) for g in enumerate_trees(9)]
        assert a == b

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)
        with pytest.raises(ValueError):
            enumerate_trees(21)


class TestStreams:
    def test_restart(self):
        # restartable: a second full pass sees the same stream
        s = enumerate_connected(5)
        first = [write_graph6(g) for g in s]
        second = [write_graph6(g) for g in s]
        assert len(first) == 21 and first == second

    def test_partial_consumption(self):
        # a new iteration starts over, whatever an earlier one left unread
        s = enumerate_trees(7)
        it = iter(s)
        head = [next(it), next(it)]
        again = list(s)
        assert len(again) == 11 and again[:2] == head

    def test_file_stream(self, tmp_path):
        p = tmp_path / "six.g6"
        recs = [write_graph6(g) for g in enumerate_connected(5)]
        p.write_bytes(b"\n".join(recs) + b"\n")
        s = graph6_file_stream(str(p))
        assert s.n == 5
        got = [write_graph6(g) for g in s]
        assert got == recs
        assert [write_graph6(g) for g in s] == recs  # restartable

    def test_file_stream_header_and_blank_lines(self, tmp_path):
        p = tmp_path / "h.g6"
        p.write_bytes(b">>graph6<<Bw\n\nBW\n")
        got = list(graph6_file_stream(str(p)))
        assert len(got) == 2 and all(g.n == 3 for g in got)

    def test_file_stream_bad_record_reports_number(self, tmp_path):
        p = tmp_path / "bad.g6"
        p.write_bytes(b"Bw\nBw~~~\nBw\n")
        with pytest.raises(Graph6Error, match="record 2"):
            list(graph6_file_stream(str(p)))

    def test_file_stream_mixed_sizes_rejected(self, tmp_path):
        p = tmp_path / "mix.g6"
        p.write_bytes(b"Bw\nA_\n")
        with pytest.raises(Graph6Error, match="record 2"):
            list(graph6_file_stream(str(p)))


class TestConstructors:
    def test_shapes(self):
        assert complete_graph(4).edge_count() == 6
        k23 = complete_bipartite_graph(2, 3)
        assert sorted(k23.degrees()) == [2, 2, 2, 3, 3]
        assert k23.edge_count() == 6

    def test_star_is_bipartite_case(self):
        star = complete_bipartite_graph(1, 4)
        assert sorted(star.degrees()) == [1, 1, 1, 1, 4]


class TestCatalogBuild:
    def test_writes_sorted_connected_classes(self, tmp_path):
        for n in range(2, 8):
            path = tmp_path / f"connected{n}.g6"
            assert build_connected_catalog(n, str(path)) == CONNECTED_COUNTS[n]
            want = sorted(write_graph6(g) for g in enumerate_connected(n))
            assert path.read_bytes().split() == want
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == [f"connected{n}.g6" for n in range(2, 8)]

    def test_failed_build_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "connected5.g6"
        path.write_bytes(b"old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(gen.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            build_connected_catalog(5, str(path))
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["connected5.g6"]
