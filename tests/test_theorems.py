"""Closed-form SNF oracles and the verification sweeps built on them."""

import math
import random

import pytest

import oracles
from snfcensus.exact import SnfResult, snf
from snfcensus.gen import (
    complete_bipartite_graph,
    complete_graph,
    enumerate_trees,
)
from snfcensus.graphio import graph_from_edges
from snfcensus.matrices import MatrixKind, build_matrix, distance_matrix
from snfcensus.theorems import (
    EXPECTED_D_COSPECTRAL_PAIRS,
    expected_complete_snf,
    expected_tree_distance_snf,
    second_factor_is_unit,
    verify_dq_characterization,
    verify_tree_coinvariance,
    verify_tree_d_cospectral,
)


class TestTreeDistanceForm:
    def test_frozen_small_cases(self):
        assert expected_tree_distance_snf(1) == SnfResult((1, 1), 0)
        assert expected_tree_distance_snf(2) == SnfResult((1, 1, 4), 0)
        assert expected_tree_distance_snf(4) == SnfResult((1, 1, 2, 2, 8), 0)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            expected_tree_distance_snf(0)

    def test_matches_computation_on_all_trees(self):
        for v in range(2, 11):
            want = expected_tree_distance_snf(v - 1)
            for t in enumerate_trees(v):
                assert snf(build_matrix(t, MatrixKind.D)) == want

    def test_determinant_formula(self):
        # |det D(T)| = n * 2^(n-1) for a tree on n + 1 vertices
        for v in range(2, 10):
            n = v - 1
            want = n * 2 ** (n - 1)
            for t in enumerate_trees(v):
                assert abs(oracles.bareiss_det(build_matrix(t, MatrixKind.D))) == want
            factors = expected_tree_distance_snf(n).factors
            assert math.prod(factors) == want


class TestCompleteForms:
    def test_frozen_examples(self):
        assert expected_complete_snf(5, MatrixKind.D) == SnfResult((1, 1, 1, 1, 4), 0)
        assert expected_complete_snf(5, MatrixKind.DL) == SnfResult((1, 5, 5, 5), 1)
        assert expected_complete_snf(5, MatrixKind.DQ) == SnfResult((1, 3, 3, 3, 24), 0)
        assert expected_complete_snf(2, MatrixKind.DQ) == SnfResult((1,), 1)
        assert expected_complete_snf(3, MatrixKind.DQ) == SnfResult((1, 1, 4), 0)

    @pytest.mark.parametrize("kind", [MatrixKind.D, MatrixKind.DL, MatrixKind.DQ])
    def test_matches_computation(self, kind):
        for n in range(2, 9):
            got = snf(build_matrix(complete_graph(n), kind))
            assert got == expected_complete_snf(n, kind)

    def test_rejects_non_distance_kinds(self):
        for kind in (MatrixKind.A, MatrixKind.L, MatrixKind.Q):
            with pytest.raises(ValueError):
                expected_complete_snf(5, kind)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            expected_complete_snf(1, MatrixKind.D)


class TestGeneralizedEvaluation:
    def test_factor_products_equal_minor_gcds(self):
        # for any integer diagonal d, the product of the first k
        # invariant factors of diag(d) + D equals the gcd of k x k minors
        rng = random.Random(7)
        trees = [t for v in (4, 5) for t in enumerate_trees(v)]
        for t in trees:
            for _ in range(3):
                m = distance_matrix(t)
                for i in range(t.n):
                    m[i][i] += rng.randint(-6, 6)
                res = snf(m)
                prod = 1
                for k, f in enumerate(res.factors, start=1):
                    prod *= f
                    assert prod == oracles.minor_gcd(m, k)


class TestTreeSweeps:
    def test_d_single_bucket_per_order(self):
        rep = verify_tree_coinvariance(9, MatrixKind.D)
        assert rep.ok
        for row in rep.rows:
            assert row.distinct == 1
            assert row.mates == (row.universe if row.universe >= 2 else 0)

    @pytest.mark.parametrize("kind", [MatrixKind.DL, MatrixKind.DQ])
    def test_no_mates_under_distance_laplacians(self, kind):
        rep = verify_tree_coinvariance(10, kind)
        assert rep.ok
        assert all(row.mates == 0 for row in rep.rows)
        assert all(row.distinct == row.universe for row in rep.rows)

    def test_rejects_adjacency_kind(self):
        with pytest.raises(ValueError):
            verify_tree_coinvariance(5, MatrixKind.A)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_tree_coinvariance(21, MatrixKind.D)

    def test_no_cospectral_pairs_at_small_orders(self):
        assert verify_tree_d_cospectral(10) == 0
        assert verify_tree_d_cospectral(12) == 0

    def test_expected_pair_table(self):
        assert EXPECTED_D_COSPECTRAL_PAIRS == {18: 2, 19: 6, 20: 14}

    def test_cospectral_range_check(self):
        with pytest.raises(ValueError):
            verify_tree_d_cospectral(21)


class TestDqCharacterization:
    def test_scan_up_to_seven(self):
        rep = verify_dq_characterization(7)
        assert rep.ok
        by_n = {r.n: r for r in rep.rows}
        # order 3 is the anomaly: both graphs have two unit factors
        assert by_n[3].low_unit_count == 0
        assert not by_n[3].asserted
        for n in range(4, 8):
            assert by_n[n].asserted
            assert by_n[n].kn_bucket_size == 1
            assert by_n[n].low_unit_count == 1
            assert by_n[n].low_unit_all_complete

    def test_k7_frozen_form(self):
        got = snf(build_matrix(complete_graph(7), MatrixKind.DQ))
        assert got == SnfResult((1, 5, 5, 5, 5, 5, 60), 0)
        assert got == expected_complete_snf(7, MatrixKind.DQ)

    def test_large_order_needs_source(self):
        with pytest.raises(ValueError):
            verify_dq_characterization(9)

    def test_source_override(self):
        rep = verify_dq_characterization(4, source=lambda n: [complete_graph(n)])
        # a source containing only K_n trivially satisfies both scans
        assert rep.ok

    def test_range_check(self):
        with pytest.raises(ValueError):
            verify_dq_characterization(11)

    def test_bipartite_second_factor_both_routes(self):
        # direct normal forms and the coprimality identities must agree
        for m in range(2, 9):
            assert second_factor_is_unit(m, 1)
            assert math.gcd(2 * m - 3, 2 * m - 1) == 1
        for m in range(2, 7):
            for n in range(2, 7):
                assert second_factor_is_unit(m, n)
                assert math.gcd(2 * m + n - 4, m + 2 * n - 4, 3) == 1

    def test_star_form_second_factor(self):
        # K_{2,1} is the 3-vertex path: SNF(D^Q) = (1, 1, 8)
        star = complete_bipartite_graph(2, 1)
        res = snf(build_matrix(star, MatrixKind.DQ))
        assert res == SnfResult((1, 1, 8), 0)
        path = graph_from_edges(3, [(0, 1), (1, 2)])
        assert snf(build_matrix(path, MatrixKind.DQ)) == res
