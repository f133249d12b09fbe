"""Acceptance gate: one test per numbered criterion, in order.

Run ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criteria 5-7 need the n = 9 connected-graph catalog; it is
built once into tests/.cache/ (about 40 seconds) and reused after
that.  Criterion 9 has an optional long-run part (trees through n = 20,
budgeted under two hours) enabled by setting SNFCENSUS_LONGRUN=1.
"""
import hashlib
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from oracles import bareiss_det, snf_by_minor_gcds
from snfcensus.census import emit_report, run_census
from snfcensus.exact import char_poly, snf
from snfcensus.gen import (
    GraphStream,
    build_connected_catalog,
    complete_graph,
    enumerate_connected,
    enumerate_trees,
    graph6_file_stream,
)
from snfcensus.matrices import MatrixKind, build_matrix, distance_matrix
from snfcensus.theorems import (
    EXPECTED_D_COSPECTRAL_PAIRS,
    expected_complete_snf,
    expected_tree_distance_snf,
    verify_dq_characterization,
    verify_tree_coinvariance,
)

CACHE = Path(__file__).parent / ".cache"
CATALOG9 = CACHE / "connected9.g6"
N9_UNIVERSE = 261080
LONGRUN = os.environ.get("SNFCENSUS_LONGRUN") == "1"

ALL_KINDS = (MatrixKind.A, MatrixKind.L, MatrixKind.Q,
             MatrixKind.D, MatrixKind.DL, MatrixKind.DQ)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num:02d}: {desc}{tail}")
    assert ok, f"criterion {num:02d}: {desc}{tail}"


def _mates(stream, specs) -> tuple[int, ...]:
    report = run_census(stream, specs)
    return tuple(r.mates_count for r in report.results)


def _record_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


@pytest.fixture(scope="module")
def catalog9() -> Path:
    # a catalog left short by a killed build is rebuilt, not reused
    if not CATALOG9.exists() or _record_count(CATALOG9) != N9_UNIVERSE:
        CACHE.mkdir(exist_ok=True)
        count = build_connected_catalog(9, str(CATALOG9))
        assert count == N9_UNIVERSE
    return CATALOG9


N9_SPECS = (
    "DL:sp,DQ:sp", "DL:in,DQ:in", "D:in,DL:in", "D:in,DQ:in",
    "D:sp,DL:sp", "D:in,DL:in,DQ:in",                     # pair censuses
    "A:sp,DL:in", "D:sp,DL:in", "A:sp,DQ:in", "D:sp,DQ:in",
    "A:sp,D:sp,DL:in",                                    # mixed sp/in
)


@pytest.fixture(scope="module")
def n9_report(catalog9):
    stream = graph6_file_stream(str(catalog9), expect_n=9)
    return run_census(stream, list(N9_SPECS))


def test_criterion_01_universe_counts():
    t0 = time.perf_counter()
    got = {n: sum(1 for _ in enumerate_connected(n)) for n in range(5, 9)}
    elapsed = time.perf_counter() - t0
    want = {5: 21, 6: 112, 7: 853, 8: 11117}
    ok = got == want and elapsed < 60
    _report(1, "connected-graph universe counts for n = 5..8",
            ok, f"{got}, {elapsed:.1f}s")


def test_criterion_02_cospectral_counts():
    t0 = time.perf_counter()
    specs = ["A:sp", "L:sp", "Q:sp", "D:sp"]
    want = {7: (63, 115, 80, 22), 8: (1353, 1611, 1047, 658)}
    got = {n: _mates(enumerate_connected(n), specs) for n in (7, 8)}
    elapsed = time.perf_counter() - t0
    ok = got == want and elapsed < 300
    _report(2, "cospectral mates under A, L, Q, D at n = 7, 8",
            ok, f"{got}, {elapsed:.1f}s")


def test_criterion_03_coinvariant_counts():
    t0 = time.perf_counter()
    specs = ["A:in", "L:in", "Q:in", "D:in"]
    want = {7: (853, 526, 620, 835), 8: (11117, 8027, 7962, 11080)}
    got = {n: _mates(enumerate_connected(n), specs) for n in (7, 8)}
    elapsed = time.perf_counter() - t0
    ok = got == want and elapsed < 300
    _report(3, "coinvariant mates under A, L, Q, D at n = 7, 8",
            ok, f"{got}, {elapsed:.1f}s")


def test_criterion_04_distance_laplacian_counts():
    t0 = time.perf_counter()
    specs = ["DL:sp", "DL:in", "DL:sp,DL:in", "DQ:sp", "DQ:in", "DQ:sp,DQ:in"]
    want = {7: (43, 18, 14, 38, 20, 20), 8: (745, 455, 435, 453, 259, 243)}
    got = {n: _mates(enumerate_connected(n), specs) for n in (7, 8)}
    elapsed = time.perf_counter() - t0
    ok = got == want and elapsed < 300
    _report(4, "DL and DQ sp / in / joint sp-in mates at n = 7, 8",
            ok, f"{got}, {elapsed:.1f}s")


def test_criterion_05_n9_distance_laplacian_spectra(catalog9):
    t0 = time.perf_counter()
    report = run_census(graph6_file_stream(str(catalog9), expect_n=9), ["DL:sp"])
    elapsed = time.perf_counter() - t0
    got = report.results[0].mates_count
    ok = got == 20455 and report.universe == N9_UNIVERSE and elapsed < 1800
    _report(5, "DL-cospectral mates over the 261,080 graphs on 9 vertices",
            ok, f"mates={got}, {elapsed:.1f}s")


def test_criterion_06_pair_censuses(n9_report):
    specs8 = ["DL:sp,DQ:sp", "DL:in,DQ:in", "D:in,DL:in",
              "D:in,DQ:in", "D:sp,DL:sp", "D:in,DL:in,DQ:in"]
    got8 = _mates(enumerate_connected(8), specs8)
    got9 = tuple(r.mates_count for r in n9_report.results[:6])
    want8 = (90, 44, 32, 20, 0, 0)
    want9 = (1965, 1447, 1770, 432, 32, 138)
    ok = got8 == want8 and got9 == want9
    _report(6, "simultaneous pair/triple mates at n = 8, 9",
            ok, f"n8={got8}, n9={got9}")


def test_criterion_07_mixed_invariant_censuses(n9_report):
    got = tuple(r.mates_count for r in n9_report.results[6:])
    want = (32, 32, 2, 0, 32)
    ok = got == want
    _report(7, "mixed spectrum/SNF mates at n = 9", ok, f"{got}")


def test_criterion_08_closed_forms():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 13):
        g = complete_graph(n)
        for kind in (MatrixKind.D, MatrixKind.DL, MatrixKind.DQ):
            if snf(build_matrix(g, kind)) != expected_complete_snf(n, kind):
                bad.append(f"K_{n}:{kind.name}")
    for v in range(2, 15):
        want = expected_tree_distance_snf(v - 1)
        for tree in enumerate_trees(v):
            if snf(build_matrix(tree, MatrixKind.D)) != want:
                bad.append(f"tree order {v}")
                break
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    _report(8, "closed-form SNFs: K_n (n = 2..12) and tree distance matrices"
               " (orders 2..14)", ok, bad or f"{elapsed:.1f}s")


def _derived_distance_matrices(g):
    """D, DL, DQ of a graph from a single distance computation."""
    d = distance_matrix(g)
    tr = [sum(row) for row in d]
    dl = [[-x for x in row] for row in d]
    dq = [row[:] for row in d]
    for i, t in enumerate(tr):
        dl[i][i] = t
        dq[i][i] = t
    return d, dl, dq


def _digest(s) -> bytes:
    return hashlib.blake2b(str(s).encode(), digest_size=12).digest()


def _tree_long_run():
    """One pass per order 17..20: tree count, DL/DQ coinvariance, and a
    distance-cospectrality prefilter (det(73*I - D); equal polynomials
    evaluate equally, so only repeated values need exact verification).
    """
    counts: dict[int, int] = {}
    mates = {MatrixKind.DL: 0, MatrixKind.DQ: 0}
    pairs: dict[int, int] = {}
    x0 = 73
    for n in range(17, 21):
        dl_seen: set = set()
        dq_seen: set = set()
        dl_dups: Counter = Counter()
        dq_dups: Counter = Counter()
        evals: list[int] = []
        count = 0
        for g in enumerate_trees(n):
            count += 1
            d, dl, dq = _derived_distance_matrices(g)
            k = _digest(snf(dl))
            if k in dl_seen:
                dl_dups[k] += 1
            else:
                dl_seen.add(k)
            k = _digest(snf(dq))
            if k in dq_seen:
                dq_dups[k] += 1
            else:
                dq_seen.add(k)
            if n >= 18:
                shifted = [[(x0 if i == j else 0) - x
                            for j, x in enumerate(row)]
                           for i, row in enumerate(d)]
                evals.append(bareiss_det(shifted))
        counts[n] = count
        # a duplicated digest means >= 2 trees share that SNF
        mates[MatrixKind.DL] += sum(c + 1 for c in dl_dups.values())
        mates[MatrixKind.DQ] += sum(c + 1 for c in dq_dups.values())
        if n >= 18:
            hot = {v for v, c in Counter(evals).items() if c >= 2}
            buckets: Counter = Counter()
            for i, g in enumerate(enumerate_trees(n)):
                if evals[i] in hot:
                    d = distance_matrix(g)
                    buckets[(evals[i], char_poly(d).coeffs)] += 1
            pairs[n] = sum(c * (c - 1) // 2 for c in buckets.values())
    return counts, mates, pairs


def test_criterion_09_tree_censuses():
    t0 = time.perf_counter()
    bad = []
    for kind in (MatrixKind.DL, MatrixKind.DQ):
        sweep = verify_tree_coinvariance(16, kind)
        if not sweep.ok:
            bad.append(f"{kind.name} mates below 17")
    want_counts = {18: 123867, 19: 317955, 20: 823065}
    if LONGRUN:
        counts, mates, pairs = _tree_long_run()
        counts = {n: counts[n] for n in want_counts}
        if any(mates[k] for k in mates):
            bad.append(f"coinvariant tree mates through 20: {mates}")
        if pairs != EXPECTED_D_COSPECTRAL_PAIRS:
            bad.append(f"D-cospectral pairs {pairs}")
        scope = "orders 17..20 swept"
    else:
        counts = {n: sum(1 for _ in enumerate_trees(n))
                  for n in want_counts}
        scope = "long-run parts skipped (set SNFCENSUS_LONGRUN=1)"
    if counts != want_counts:
        bad.append(f"tree counts {counts}")
    elapsed = time.perf_counter() - t0
    if LONGRUN and elapsed >= 7200:
        bad.append(f"over the two-hour budget: {elapsed:.0f}s")
    _report(9, "tree counts, coinvariance, and D-cospectral pairs",
            not bad, "; ".join(bad) or f"{scope}, {elapsed:.0f}s")


def test_criterion_10_dq_characterization():
    report = verify_dq_characterization(8)
    detail = ", ".join(
        f"n={r.n}: {r.low_unit_count} low-unit"
        for r in report.rows if r.asserted)
    _report(10, "complete graphs alone have <= 1 unit factor in SNF(DQ),"
                " n <= 8", report.ok, detail)


def _random_unimodular(n: int, rng: random.Random) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return u
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            for k in range(n):
                u[i][k] += c * u[j][k]
        else:
            for k in range(n):
                u[k][i] += c * u[k][j]
    return u


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_criterion_11_property_suites():
    rng = random.Random(0xACCE97)
    bad = []
    chains = []

    # unimodular invariance, 1,000 rounds
    for _ in range(1000):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        u = _random_unimodular(n, rng)
        v = _random_unimodular(n, rng)
        base = snf(m)
        if snf(_matmul(u, _matmul(m, v))) != base:
            bad.append("unimodular invariance")
            break
        chains.append(base)

    # product of invariant factors vs the minor-gcd oracle, n <= 5
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for kind in ALL_KINDS:
                m = build_matrix(g, kind)
                got = snf(m)
                chains.append(got)
                if (got.factors, got.zeros) != snf_by_minor_gcds(m):
                    bad.append(f"minor gcds at n={n} {kind.name}")

    # characteristic polynomial coefficient identities
    for g in enumerate_connected(5):
        for kind in ALL_KINDS:
            m = build_matrix(g, kind)
            c = char_poly(m).coeffs
            n = len(m)
            if c[-1] != 1 or c[-2] != -sum(m[i][i] for i in range(n)):
                bad.append("charpoly trace")
            if c[0] != (-1) ** n * bareiss_det(m):
                bad.append("charpoly determinant")

    # every SNF computed above satisfies the divisibility chain
    for s in chains:
        if any(a == 0 or b % a for a, b in zip(s.factors, s.factors[1:])):
            bad.append("divisibility chain")
            break

    # census order-invariance
    graphs = list(enumerate_connected(6))
    specs = ["A:sp", "D:in", "DL:sp,DL:in"]
    baseline = emit_report(
        run_census(GraphStream("list", 6, lambda: iter(graphs)), specs))
    for seed in (1, 2):
        shuffled = graphs[:]
        random.Random(seed).shuffle(shuffled)
        got = emit_report(
            run_census(GraphStream("list", 6, lambda: iter(shuffled)), specs))
        if got != baseline:
            bad.append("census order-invariance")

    _report(11, "property suites (unimodular, minor gcds, charpoly"
                " identities, chains, order-invariance)",
            not bad, "; ".join(sorted(set(bad))) or f"{len(chains)} SNFs checked")


def test_criterion_12_two_pass_mode():
    specs = ["A:sp", "DL:in"]
    one = run_census(enumerate_connected(7), specs)
    two = run_census(enumerate_connected(7), specs, two_pass=True)
    readme = Path(__file__).parent.parent / "README.md"
    documented = readme.exists() and "multi-hour" in readme.read_text()
    ok = emit_report(one) == emit_report(two) and documented
    _report(12, "two-pass censuses match single-pass; n = 10 runtime"
                " documented", ok,
            "two-pass verified at n = 7; full n = 10 is not a desk-scale gate")
