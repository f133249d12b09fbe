"""Census semantics: keys, bucket counts, reports, stream handling."""

import json
import multiprocessing
import os
import random
import tempfile
from collections import Counter

import pytest

from snfcensus import census
from snfcensus.census import (
    CHUNK,
    WINDOW_PER_JOB,
    CensusError,
    CensusReport,
    InvariantSpec,
    InvariantType,
    SpecResult,
    _iter_spec_keys,
    emit_report,
    parse_spec,
    part_key,
    run_census,
)
from snfcensus.exact import char_poly, snf
from snfcensus.gen import GraphStream, enumerate_connected, graph6_file_stream
from snfcensus.graphio import graph_from_edges, write_graph6
from snfcensus.matrices import DisconnectedGraphError, MatrixKind, build_matrix

K3 = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])


def spec_key(g, spec):
    """The census key of ``g``: its part keys joined in spec order."""
    return b"".join(part_key(g, p) for p in spec.parts)


def list_stream(graphs, n):
    return GraphStream("list", n, lambda: iter(graphs))


class TestSpecParsing:
    def test_single(self):
        s = parse_spec("A:sp")
        assert s.parts == ((MatrixKind.A, InvariantType.SP),)
        assert s.label == "A:sp"

    def test_multi_and_whitespace(self):
        s = parse_spec(" dl:SP , dq:in ")
        assert s.parts == ((MatrixKind.DL, InvariantType.SP),
                           (MatrixKind.DQ, InvariantType.IN))
        assert s.label == "DL:sp,DQ:in"

    def test_bad_specs(self):
        for bad in ("", "A", "A:xx", "Z:sp", "A:sp,,D:in", "A:sp,"):
            with pytest.raises(ValueError):
                parse_spec(bad)

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            InvariantSpec(())


class TestKeys:
    def test_isomorphism_invariance(self):
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        b = graph_from_edges(3, [(2, 1), (2, 0), (1, 0)])
        for spec in ("A:sp", "D:in", "DL:sp,DQ:in"):
            assert spec_key(a, parse_spec(spec)) == spec_key(b, parse_spec(spec))

    def test_key_reflects_invariant_values(self):
        g = K3
        spec = parse_spec("A:sp")
        key = spec_key(g, spec)
        # a graph with a different spectrum gets a different key
        h = graph_from_edges(3, [(0, 1), (1, 2)])
        assert key != spec_key(h, spec)

    def test_part_tags_disambiguate(self):
        # same matrix, different invariant type: keys must differ
        assert part_key(K3, (MatrixKind.A, InvariantType.SP)) \
            != part_key(K3, (MatrixKind.A, InvariantType.IN))
        # same invariant type, different matrix
        assert part_key(K3, (MatrixKind.L, InvariantType.IN)) \
            != part_key(K3, (MatrixKind.Q, InvariantType.IN))

    def test_encoding_is_injective_on_value_lists(self):
        # (1, 14) vs (11, 4) style confusions must not collide
        a = graph_from_edges(2, [(0, 1)])
        spec = parse_spec("A:sp")
        k = spec_key(a, spec)
        assert k == b"a-1,0,1"  # x^2 - 1, coefficients ascending
        assert census._encode_ints([1, 14]) != census._encode_ints([11, 4])
        assert census._encode_ints([1, 2]) != census._encode_ints([12])

    def test_duplicated_part_same_buckets(self):
        graphs = list(enumerate_connected(5))
        once = Counter(spec_key(g, parse_spec("A:sp")) for g in graphs)
        twice = Counter(spec_key(g, parse_spec("A:sp,A:sp")) for g in graphs)
        assert sorted(once.values()) == sorted(twice.values())


class TestRunCensus:
    def test_table_values_n5(self):
        rep = run_census(enumerate_connected(5),
                         ["A:sp", "L:sp", "Q:sp", "D:sp",
                          "A:in", "L:in", "Q:in", "D:in",
                          "DL:sp", "DQ:sp", "DL:in", "DQ:in"])
        got = {r.spec: r.mates_count for r in rep.results}
        assert rep.universe == 21
        assert got == {"A:sp": 0, "L:sp": 0, "Q:sp": 2, "D:sp": 0,
                       "A:in": 20, "L:in": 8, "Q:in": 11, "D:in": 15,
                       "DL:sp": 0, "DQ:sp": 2, "DL:in": 0, "DQ:in": 2}

    def test_table_values_n6(self):
        rep = run_census(enumerate_connected(6),
                         ["A:sp", "L:sp", "Q:sp", "D:sp",
                          "A:in", "L:in", "Q:in", "D:in",
                          "DQ:sp", "DQ:in", "DQ:sp,DQ:in"])
        got = {r.spec: r.mates_count for r in rep.results}
        assert rep.universe == 112
        assert got == {"A:sp": 2, "L:sp": 4, "Q:sp": 10, "D:sp": 0,
                       "A:in": 112, "L:in": 57, "Q:in": 78, "D:in": 102,
                       "DQ:sp": 6, "DQ:in": 4, "DQ:sp,DQ:in": 4}

    def test_table_values_n4(self):
        rep = run_census(enumerate_connected(4),
                         ["A:in", "L:in", "Q:in", "D:in"])
        got = {r.spec: r.mates_count for r in rep.results}
        assert rep.universe == 6
        assert got == {"A:in": 4, "L:in": 2, "Q:in": 2, "D:in": 2}

    def test_unique_q_cospectral_pair_on_5(self):
        graphs = list(enumerate_connected(5))
        counter = Counter(spec_key(g, parse_spec("Q:sp")) for g in graphs)
        sizes = sorted(counter.values(), reverse=True)
        assert sizes[0] == 2 and sizes[1] == 1  # exactly one mate bucket

    def test_brute_force_cross_check(self):
        # quadratic all-pairs comparison of raw invariants
        for n in (4, 5, 6):
            graphs = list(enumerate_connected(n))
            for spec_text, inv in [
                ("A:sp", lambda g: char_poly(build_matrix(g, MatrixKind.A)).coeffs),
                ("D:in", lambda g: snf(build_matrix(g, MatrixKind.D))),
            ]:
                vals = [inv(g) for g in graphs]
                expect = sum(
                    1 for i, v in enumerate(vals)
                    if any(i != j and v == w for j, w in enumerate(vals))
                )
                rep = run_census(enumerate_connected(n), [spec_text])
                assert rep.results[0].mates_count == expect

    def test_order_invariance(self):
        graphs = list(enumerate_connected(6))
        base = run_census(list_stream(graphs, 6), ["L:sp", "D:in"])
        rng = random.Random(31)
        for _ in range(3):
            shuffled = graphs[:]
            rng.shuffle(shuffled)
            rep = run_census(list_stream(shuffled, 6), ["L:sp", "D:in"])
            assert [r.mates_count for r in rep.results] \
                == [r.mates_count for r in base.results]
            assert [r.histogram for r in rep.results] \
                == [r.histogram for r in base.results]

    def test_merge_associativity(self):
        # partition-then-merge equals single-pass counting
        graphs = list(enumerate_connected(6))
        spec = parse_spec("Q:sp")
        whole = Counter(spec_key(g, spec) for g in graphs)
        merged = Counter()
        for lo in range(0, len(graphs), 17):
            merged.update(Counter(spec_key(g, spec) for g in graphs[lo:lo + 17]))
        assert merged == whole

    def test_refinement_monotonicity(self):
        base = run_census(enumerate_connected(6), ["Q:sp"]).results[0].mates_count
        refined = run_census(enumerate_connected(6), ["Q:sp,D:in"]).results[0].mates_count
        assert refined <= base

    def test_histogram_total_is_universe(self):
        rep = run_census(enumerate_connected(6), ["A:sp", "DQ:in"])
        for r in rep.results:
            assert sum(size * cnt for size, cnt in r.histogram.items()) == rep.universe

    def test_coinvariant_pairs_share_abs_det(self):
        graphs = list(enumerate_connected(6))
        for kind in MatrixKind:
            buckets: dict[bytes, list] = {}
            for g in graphs:
                res = snf(build_matrix(g, kind))
                buckets.setdefault(spec_key(g, parse_spec(f"{kind.value}:in")), []).append(res)
            for group in buckets.values():
                if len(group) >= 2:
                    first = group[0]
                    for other in group[1:]:
                        assert other == first  # equal SNF => equal |det|

    def test_two_pass_matches_one_pass(self):
        for n in (5, 6, 7):
            # DL:sp,DQ:in is joint, and no two graphs share its key here,
            # so its hot set is empty
            specs = ["A:sp", "D:in", "DL:sp,DQ:in"]
            one = run_census(enumerate_connected(n), specs)
            two = run_census(enumerate_connected(n), specs, two_pass=True)
            assert one == two
            assert one.results[2].mates_count == 0
            both = run_census(enumerate_connected(n), specs, two_pass=True, jobs=2)
            assert both == one
            for fmt in ("tsv", "json"):
                assert (emit_report(one, fmt) == emit_report(two, fmt)
                        == emit_report(both, fmt))

    def test_jobs_match_serial(self):
        specs = ["Q:sp", "D:in"]
        serial = run_census(enumerate_connected(6), specs)
        parallel = run_census(enumerate_connected(6), specs, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("jobs, workers", [(1, 1), (2, 2), (3, 3), (100_000, 3)])
    @pytest.mark.parametrize("two_pass", [False, True])
    def test_jobs_capped_at_usable_cpus(self, fake_pool_on_3_cpus, jobs, workers,
                                        two_pass):
        specs = ["A:sp", "D:in"]
        report = run_census(enumerate_connected(5), specs, jobs=jobs,
                            two_pass=two_pass)
        assert report.workers == workers
        # a serial census makes no pool; two_pass makes one per pass
        assert fake_pool_on_3_cpus == [workers] * (workers > 1) * (1 + two_pass)
        assert report == run_census(enumerate_connected(5), specs)

    def test_jobs_capped_at_real_affinity(self, fake_pool):
        report = run_census(enumerate_connected(4), ["A:sp"], jobs=100_000)
        assert report.workers == len(os.sched_getaffinity(0))
        assert fake_pool == [report.workers] * (report.workers > 1)

    def test_jobs_keep_a_bounded_window(self):
        pulled = 0

        def source():
            nonlocal pulled
            for _ in range(12 * CHUNK):
                pulled += 1
                yield K3

        keys = _iter_spec_keys(GraphStream("counted", 3, source),
                               [parse_spec("A:sp")], jobs=2)
        try:
            next(keys)
            assert pulled <= WINDOW_PER_JOB * 2 * CHUNK
        finally:
            keys.close()

    def test_two_pass_catches_changed_stream(self):
        graphs = list(enumerate_connected(7))
        spec = parse_spec("DL:sp")
        sizes = Counter(spec_key(g, spec) for g in graphs)
        hot = next(g for g in graphs if sizes[spec_key(g, spec)] >= 2)
        passes = iter([graphs, [hot] * len(graphs)])
        stream = GraphStream("changing", 7, lambda: iter(next(passes)))
        with pytest.raises(CensusError, match="changed between passes"):
            run_census(stream, ["DL:sp"], two_pass=True)

    @pytest.mark.parametrize("change, record", [
        (lambda gs: gs[:39] + gs[40:41] + gs[40:], 40),  # record 40 swapped
        (lambda gs: gs[:-1], 112),  # one record fewer
        (lambda gs: gs + gs[:1], 113),  # one record more
    ], ids=["swapped", "fewer", "more"])
    def test_two_pass_names_changed_record(self, change, record):
        graphs = list(enumerate_connected(6))
        passes = iter([graphs, change(graphs)])
        stream = GraphStream("changing", 6, lambda: iter(next(passes)))
        with pytest.raises(CensusError,
                           match=f"^record {record}: stream changed between passes$"):
            run_census(stream, ["A:sp"], two_pass=True)

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched module"))])
    def test_two_pass_keeps_record_numbers(self, monkeypatch, tmp_path, jobs):
        graphs = list(enumerate_connected(7))
        spec = parse_spec("DL:sp")
        sizes = Counter(spec_key(g, spec) for g in graphs)
        # the last hot record: pass 2 feeds it at a smaller position
        k = max(i for i, g in enumerate(graphs, 1) if sizes[spec_key(g, spec)] >= 2)
        seen = tmp_path / "seen"  # a file, so that --jobs workers share it
        real = census._part_keys

        def fail_on_second_sight(g, kinds):
            if g == graphs[k - 1]:
                if seen.exists():
                    raise DisconnectedGraphError("injected")
                seen.touch()
            return real(g, kinds)

        monkeypatch.setattr(census, "_part_keys", fail_on_second_sight)
        with pytest.raises(CensusError, match=f"^record {k}: disconnected"):
            run_census(list_stream(graphs, 7), ["DL:sp"], two_pass=True, jobs=jobs)
        assert seen.exists()

    def test_two_pass_catches_changed_keys(self, monkeypatch):
        graphs = list(enumerate_connected(6))
        sizes = Counter(spec_key(g, parse_spec("A:sp")) for g in graphs)
        k = next(i for i, g in enumerate(graphs, 1)
                 if sizes[spec_key(g, parse_spec("A:sp"))] >= 2)
        seen = 0
        real = census.part_key

        def differs_on_second_sight(g, part, m=None):
            nonlocal seen
            if g == graphs[k - 1]:
                seen += 1
                if seen == 2:
                    return b"?"
            return real(g, part, m)

        monkeypatch.setattr(census, "part_key", differs_on_second_sight)
        with pytest.raises(CensusError, match=f"^record {k}: keys changed"):
            run_census(list_stream(graphs, 6), ["A:sp"], two_pass=True)

    def test_two_pass_recomputes_only_hot_records(self, monkeypatch):
        specs = [parse_spec("A:sp"), parse_spec("DL:in")]
        graphs = list(enumerate_connected(7))
        sizes = [Counter(spec_key(g, s) for g in graphs) for s in specs]
        hot = sum(any(c[spec_key(g, s)] >= 2 for c, s in zip(sizes, specs))
                  for g in graphs)
        calls = 0
        real = census.part_key

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(census, "part_key", counted)
        rep = run_census(enumerate_connected(7), specs, two_pass=True)
        parts = 2
        assert 0 < hot < rep.universe == len(graphs)
        assert calls == rep.universe * parts + hot * parts
        assert calls < 2 * rep.universe * parts

    def test_two_pass_leaves_no_spill(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        graphs = list(enumerate_connected(6))
        run_census(list_stream(graphs, 6), ["A:sp", "D:in"], two_pass=True)
        assert list(tmp_path.iterdir()) == []
        passes = iter([graphs, graphs[:-1]])
        stream = GraphStream("changing", 6, lambda: iter(next(passes)))
        with pytest.raises(CensusError):
            run_census(stream, ["A:sp", "D:in"], two_pass=True)
        assert list(tmp_path.iterdir()) == []

    def test_disconnected_stream_aborts_with_record(self, tmp_path):
        recs = [write_graph6(g) for g in enumerate_connected(4)]
        disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
        recs.insert(2, write_graph6(disconnected))
        p = tmp_path / "bad.g6"
        p.write_bytes(b"\n".join(recs) + b"\n")
        with pytest.raises(CensusError, match="record 3"):
            run_census(graph6_file_stream(str(p)), ["D:sp"])

    def test_adjacency_kinds_tolerate_disconnected(self, tmp_path):
        disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
        rep = run_census(list_stream([disconnected], 4), ["A:sp", "L:in"])
        assert rep.universe == 1


class TestEmitReport:
    def test_tsv_ratio_precision(self):
        rep = run_census(enumerate_connected(6), ["Q:sp"])
        out = emit_report(rep, "tsv").decode()
        assert "0.0892857142857143" in out  # 10/112 at 15 significant digits
        assert out.startswith("n\tuniverse\tspec\tmates\tratio\n")

    def test_json_round_trips(self):
        rep = run_census(enumerate_connected(5), ["Q:sp", "D:in"])
        doc = json.loads(emit_report(rep, "json"))
        assert doc["n"] == 5 and doc["universe"] == 21
        assert doc["results"][0]["spec"] == "Q:sp"
        assert doc["results"][0]["mates"] == 2
        hist = doc["results"][0]["histogram"]
        assert sum(int(k) * v for k, v in hist.items()) == 21

    def test_empty_spec_list_gives_header_only(self):
        rep = run_census(enumerate_connected(4), [])
        assert emit_report(rep, "tsv") == b"n\tuniverse\tspec\tmates\tratio\n"

    def test_deterministic_bytes(self):
        rep1 = run_census(enumerate_connected(5), ["A:sp", "DQ:in"])
        rep2 = run_census(enumerate_connected(5), ["A:sp", "DQ:in"])
        for fmt in ("tsv", "json"):
            assert emit_report(rep1, fmt) == emit_report(rep2, fmt)

    def test_unknown_format(self):
        rep = CensusReport(3, 1, (SpecResult("A:sp", 0, 0.0, {1: 1}),))
        with pytest.raises(ValueError):
            emit_report(rep, "xml")
