"""Exact linear algebra: frozen values, oracle agreement, properties."""

import hashlib
import math
import random

import pytest

import oracles
from snfcensus import exact
from snfcensus.exact import CharPoly, SnfResult, char_poly, snf
from snfcensus.gen import enumerate_connected
from snfcensus.matrices import MatrixKind, build_matrix

A_K3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
D_P3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
DL_K4 = [[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]]
DQ_K4 = [[3, 1, 1, 1], [1, 3, 1, 1], [1, 1, 3, 1], [1, 1, 1, 3]]
D_K5 = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
# SHA-1 of the lines "KIND SNF" for every connected graph on n vertices
# (enumerate_connected order) under every matrix kind
GRAPH_SNF_SHA1 = {
    1: "43f5ad705ced2c2a5ea9ccca27fcee6ddd519604",
    2: "1e9aa0d0f96fb60608723f623c192e6229eef745",
    3: "11be4c5d2d4330eb815b184b5e912b25313dc9e2",
    4: "c2cabd4bf02aee84cda71d524c94878d8be6aae5",
    5: "76c4cb080e160d77f4a886e278983986607dcda6",
    6: "b3b4b5e2d491421aa8242c59a8359b1709e9f4a1",
    7: "90c9c54c1cf452c0289134e34d590d972b12bcab",
}


def random_matrix(n, rng, bound=9, symmetric=False):
    m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
    return m


class TestCharPoly:
    def test_k3_adjacency(self):
        # x^3 - 3x - 2
        assert char_poly(A_K3).coeffs == (-2, -3, 0, 1)

    def test_zero_matrix(self):
        assert char_poly([[0] * 4 for _ in range(4)]).coeffs == (0, 0, 0, 0, 1)

    def test_p3_distance(self):
        # x^3 - 6x - 4
        assert char_poly(D_P3).coeffs == (-4, -6, 0, 1)

    def test_empty_and_single(self):
        assert char_poly([]).coeffs == (1,)
        assert char_poly([[7]]).coeffs == (-7, 1)

    def test_against_interpolation_oracle(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randrange(1, 7)
            m = random_matrix(n, rng)
            assert list(char_poly(m).coeffs) == oracles.charpoly_by_interpolation(m)

    def test_trace_and_det_identities(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(1, 7)
            m = random_matrix(n, rng, bound=20)
            c = char_poly(m).coeffs
            assert c[-1] == 1
            assert c[-2] == -sum(m[i][i] for i in range(n))
            assert c[0] == (-1) ** n * oracles.bareiss_det(m)

    def test_large_entries_stay_exact(self):
        rng = random.Random(8)
        m = random_matrix(5, rng, bound=10**12)
        assert list(char_poly(m).coeffs) == oracles.charpoly_by_interpolation(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2, 3], [4, 5, 6]])

    def test_against_berkowitz_on_connected_7(self):
        for g in enumerate_connected(7):
            for kind in MatrixKind:
                m = build_matrix(g, kind)
                assert list(char_poly(m).coeffs) == oracles.berkowitz_charpoly(m)

    def test_against_berkowitz_oracle(self):
        rng = random.Random(12)
        cases = [random_matrix(rng.randrange(1, 13), rng, bound=10**12)
                 for _ in range(60)]
        cases += [random_matrix(n, rng, bound=1) for n in range(1, 13)]
        # zero matrices (rho = 0), and -rho*I, whose coefficients
        # C(n, k) rho^(n-k) sum to exactly the (1 + rho)^n bound
        cases += [[[0] * n for _ in range(n)] for n in range(13)]
        cases += [[[-r if i == j else 0 for j in range(n)] for i in range(n)]
                  for n in (1, 6, 12) for r in (1, 7, 10**12)]
        for m in cases:
            assert list(char_poly(m).coeffs) == oracles.berkowitz_charpoly(m)


class TestSnf:
    def test_frozen_examples(self):
        assert snf(D_P3) == SnfResult((1, 1, 4), 0)
        assert snf(DL_K4) == SnfResult((1, 4, 4), 1)
        assert snf(DQ_K4) == SnfResult((1, 2, 2, 12), 0)
        assert snf(D_K5) == SnfResult((1, 1, 1, 1, 4), 0)
        assert snf(A_K3) == SnfResult((1, 1, 2), 0)

    def test_zero_and_identity(self):
        assert snf([[0, 0], [0, 0]]) == SnfResult((), 2)
        assert snf([[1 if i == j else 0 for j in range(5)] for i in range(5)]) \
            == SnfResult((1,) * 5, 0)

    def test_textbook_case(self):
        # diag(2, 3) is unimodularly equivalent to diag(1, 6)
        assert snf([[2, 0], [0, 3]]) == SnfResult((1, 6), 0)

    def test_divisibility_chain_always(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randrange(1, 7)
            res = snf(random_matrix(n, rng))
            for a, b in zip(res.factors, res.factors[1:]):
                assert b % a == 0
            assert all(f > 0 for f in res.factors)
            assert len(res.factors) + res.zeros == n

    def test_product_is_abs_det_when_full_rank(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 6)
            m = random_matrix(n, rng)
            res = snf(m)
            d = oracles.bareiss_det(m)
            if res.zeros == 0:
                assert math.prod(res.factors) == abs(d)
            else:
                assert d == 0

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(55)
        for _ in range(120):
            n = rng.randrange(1, 6)
            m = random_matrix(n, rng, bound=6)
            assert snf(m) == SnfResult(*oracles.snf_by_minor_gcds(m))

    def test_unimodular_invariance(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randrange(2, 6)
            m = random_matrix(n, rng)
            ref = snf(m)
            w = [row[:] for row in m]
            for _ in range(8):
                op = rng.randrange(4)
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                if op == 0:
                    for col in range(n):
                        w[i][col] += c * w[j][col]
                elif op == 1:
                    for row in w:
                        row[i] += c * row[j]
                elif op == 2:
                    w[i], w[j] = w[j], w[i]
                else:
                    for row in w:
                        row[i], row[j] = row[j], row[i]
            assert snf(w) == ref

    @pytest.mark.parametrize("n,digest", sorted(GRAPH_SNF_SHA1.items()))
    def test_graph_matrix_digest(self, n, digest):
        lines = [f"{kind.value} {snf(build_matrix(g, kind))}"
                 for g in enumerate_connected(n) for kind in MatrixKind]
        assert hashlib.sha1("\n".join(lines).encode()).hexdigest() == digest

    def test_bad_padding_raises(self, monkeypatch):
        monkeypatch.setattr(exact, "_diagonalize_mod",
                            lambda a, d: [1] * len(a))
        with pytest.raises(ArithmeticError, match=r"diagonal \[1, 1, 1, 1\]"):
            snf(DL_K4)

    def test_rank_matches_rational_rank(self):
        # rank deficiency shows up as zeros
        m = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
        res = snf(m)
        assert res.zeros == 1 and res.rank == 2


class TestMinors:
    def test_p3_distance_deltas(self):
        assert oracles.minor_gcd(D_P3, 1) == 1
        assert oracles.minor_gcd(D_P3, 2) == 1
        assert oracles.minor_gcd(D_P3, 3) == 4

    def test_factor_products_equal_minor_gcds(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = random_matrix(n, rng, bound=5)
            res = snf(m)
            prod = 1
            for k in range(1, res.rank + 1):
                prod *= res.factors[k - 1]
                assert oracles.minor_gcd(m, k) == prod

    def test_determinant_matches_oracle(self):
        # the shared elimination kernel: rank, and the determinant
        # (sign included) when the rank is full
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randrange(1, 7)
            m = random_matrix(n, rng, bound=30)
            r, d = exact._bareiss([row[:] for row in m])
            assert (d if r == n else 0) == oracles.bareiss_det(m)
