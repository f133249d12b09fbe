"""Independent reference implementations used only by the test suite.

Everything here is written from first principles -- string-of-bits
codecs, permutation brute force, interpolation, minor expansions --
so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx

from snfcensus.graphio import Graph, graph_from_edges

# ---------------------------------------------------------------- graph6


def naive_graph6_encode(n: int, edge_set: set[tuple[int, int]]) -> bytes:
    """Encode via an explicit bit string, independent of the package codec."""
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if (i, j) in edge_set or (j, i) in edge_set else "0"
    while len(bits) % 6:
        bits += "0"
    out = [n + 63]
    for k in range(0, len(bits), 6):
        out.append(int(bits[k : k + 6], 2) + 63)
    return bytes(out)


def naive_graph6_decode(record: bytes) -> tuple[int, set[tuple[int, int]]]:
    n = record[0] - 63
    bits = "".join(format(b - 63, "06b") for b in record[1:])
    edges = set()
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos] == "1":
                edges.add((i, j))
            pos += 1
    return n, edges


# ------------------------------------------------------- isomorphism

def edges(g: Graph) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v, ordered by u then v, one bit test each."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.adj[u] >> v & 1]


def graph_key(g: Graph) -> tuple:
    return (g.n, g.adj)


def brute_force_min_relabel(g: Graph) -> tuple:
    """Minimum adjacency encoding over all n! relabelings (n <= 7)."""
    n = g.n
    best = None
    for perm in permutations(range(n)):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if g.adj[u] >> v & 1:
                    pu, pv = perm[u], perm[v]
                    rows[pu] |= 1 << pv
                    rows[pv] |= 1 << pu
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return (n, best)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return brute_force_min_relabel(g) == brute_force_min_relabel(h)


# ------------------------------------------------------- linear algebra

def bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant (Bareiss), exact over the integers."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def berkowitz_charpoly(m: list[list[int]]) -> list[int]:
    """Coefficients c_0..c_n of det(xI - M) by Berkowitz's division-free
    algorithm.

    Builds the polynomial of each leading principal submatrix in turn:
    the k-th step multiplies the previous coefficient vector by a
    Toeplitz matrix whose first column is
    1, -m[k][k], -R.C, -R.M'C, -R.M'^2 C, ...
    for the bordering row R, column C and leading block M'.
    """
    n = len(m)
    poly = [1]  # descending coefficients, leading first
    for k in range(1, n + 1):
        row = m[k - 1]
        toep = [1, -row[k - 1]]
        if k > 1:
            r = row[:k - 1]
            v = [m[i][k - 1] for i in range(k - 1)]
            block = m[: k - 1]
            for step in range(k - 1):
                toep.append(-sum(r[i] * v[i] for i in range(k - 1)))
                if step < k - 2:
                    v = [sum(block[i][j] * v[j] for j in range(k - 1))
                         for i in range(k - 1)]
        new = [0] * (k + 1)
        for j, pj in enumerate(poly):
            for i in range(j, k + 1):
                new[i] += toep[i - j] * pj
        poly = new
    poly.reverse()
    return poly


def charpoly_by_interpolation(mat: list[list[int]]) -> list[int]:
    """Coefficients c_0..c_n of det(xI - M) via n+1 point evaluations.

    Uses exact rational Vandermonde solving; the result must come out
    integral, which is asserted.
    """
    n = len(mat)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)]
        ys.append(bareiss_det(shifted))
    # solve sum_k c_k x^k = y for the c_k
    coeffs = [Fraction(0)] * (n + 1)
    # Lagrange: p(x) = sum_i y_i prod_{j != i} (x - x_j)/(x_i - x_j)
    for i, xi in enumerate(xs):
        denom = 1
        for j, xj in enumerate(xs):
            if j != i:
                denom *= xi - xj
        # numerator polynomial prod (x - x_j)
        poly = [Fraction(1)]
        for j, xj in enumerate(xs):
            if j == i:
                continue
            poly = [Fraction(0)] + poly
            for k in range(len(poly) - 1):
                poly[k] -= xj * poly[k + 1]
        scale = Fraction(ys[i], denom)
        for k in range(len(poly)):
            coeffs[k] += scale * poly[k]
    out = []
    for c in coeffs:
        assert c.denominator == 1, "interpolated charpoly not integral"
        out.append(int(c))
    return out


def minor_gcd(mat: list[list[int]], k: int) -> int:
    """Delta_k: the gcd of all k x k minors (0 if every one vanishes)."""
    n = len(mat)
    g = 0
    for rows in combinations(range(n), k):
        for cols in combinations(range(n), k):
            sub = [[mat[r][c] for c in cols] for r in rows]
            g = math.gcd(g, bareiss_det(sub))
    return g


def snf_by_minor_gcds(mat: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors via Delta_k ratios; practical only for n <= 6."""
    n = len(mat)
    deltas = [1]
    for k in range(1, n + 1):
        g = minor_gcd(mat, k)
        if g == 0:
            break
        deltas.append(g)
    factors = tuple(deltas[k] // deltas[k - 1] for k in range(1, len(deltas)))
    return factors, n - len(factors)


def is_connected(g: Graph) -> bool:
    """Connectivity by networkx, isolated vertices included."""
    h = nx.empty_graph(g.n)
    h.add_edges_from(edges(g))
    return nx.is_connected(h)


def floyd_warshall(g: Graph) -> list[list[int]]:
    big = 10**9
    n = g.n
    d = [[0 if i == j else (1 if g.adj[i] >> j & 1 else big) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == big:
                continue
            for j in range(n):
                alt = dik + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return d


# ------------------------------------------------- counting by group theory

def _partitions(n: int, largest: int | None = None):
    if largest is None:
        largest = n
    if n == 0:
        yield []
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def unlabeled_graph_count(n: int) -> int:
    """Number of graphs on n unlabeled vertices, by Burnside's lemma.

    Sums 2^(edge orbits) over the cycle types of S_n.  Completely
    independent of any generation code.
    """
    total = 0
    for part in _partitions(n):
        mult: dict[int, int] = {}
        for p in part:
            mult[p] = mult.get(p, 0) + 1
        size = math.factorial(n)
        for length, m in mult.items():
            size //= length**m * math.factorial(m)
        orbits = 0
        for p in part:
            orbits += p // 2
        for a, b in combinations(range(len(part)), 2):
            orbits += math.gcd(part[a], part[b])
        total += size * 2**orbits
    q, r = divmod(total, math.factorial(n))
    assert r == 0
    return q


def connected_graph_count(n: int) -> int:
    """Connected unlabeled graph count via the inverse Euler transform."""
    a = [unlabeled_graph_count(k) for k in range(1, n + 1)]
    # b_n = n*a_n - sum_{k<n} b_k a_{n-k};  c_n = (1/n) sum_{d|n} mu(n/d) b_d
    b = []
    for i in range(1, n + 1):
        s = i * a[i - 1]
        for k in range(1, i):
            s -= b[k - 1] * a[i - k - 1]
        b.append(s)

    def mobius(m: int) -> int:
        result = 1
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                result = -result
            d += 1
        if m > 1:
            result = -result
        return result

    s = 0
    for d in range(1, n + 1):
        if n % d == 0:
            s += mobius(n // d) * b[d - 1]
    q, r = divmod(s, n)
    assert r == 0
    return q


# ------------------------------------------------------------ trees

def prufer_to_graph(seq: tuple[int, ...], n: int) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq_list = list(seq)
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq_list:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return graph_from_edges(n, edges)
