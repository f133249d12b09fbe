"""Exact integer linear algebra: characteristic polynomials and Smith
normal form.

Matrices are plain ``list[list[int]]`` with arbitrary-precision
entries; nothing in this module touches floating point.  Two graphs
are cospectral exactly when these integer characteristic polynomials
are equal, and coinvariant exactly when the invariant-factor lists
agree, so both routines must be exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Matrix = list[list[int]]


@dataclass(frozen=True, slots=True)
class CharPoly:
    """Coefficients c_0..c_n (ascending) of the monic det(xI - M)."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coeffs)


@dataclass(frozen=True, slots=True)
class SnfResult:
    """Positive invariant factors f_1 | f_2 | ... plus zero count."""

    factors: tuple[int, ...]
    zeros: int

    @property
    def rank(self) -> int:
        return len(self.factors)

    def diagonal(self) -> tuple[int, ...]:
        return self.factors + (0,) * self.zeros

    def __str__(self) -> str:
        return " ".join(str(d) for d in self.diagonal())


def _check_square(m: Matrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def _bareiss(a: Matrix) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of ``a`` in place.

    Step t takes as pivot the first nonzero entry of the trailing block
    in row-major order and swaps it to (t, t); every intermediate entry
    is itself a minor of the input, so growth stays polynomial and each
    division is exact.  Stops when the trailing block is zero.  Returns
    the rank r and the last pivot, which is the determinant of an
    r x r submatrix, signed so that it is the determinant of the input
    when r = n.
    """
    n = len(a)
    prev = sign = 1
    r = 0
    for t in range(n):
        pr = pc = -1
        for i in range(t, n):
            ai = a[i]
            for j in range(t, n):
                if ai[j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        if pr != t:
            a[t], a[pr] = a[pr], a[t]
            sign = -sign
        if pc != t:
            for rowv in a:
                rowv[t], rowv[pc] = rowv[pc], rowv[t]
            sign = -sign
        at = a[t]
        p = at[t]
        rest = range(t + 1, n)
        for i in rest:
            ai = a[i]
            x = ai[t]
            if x:
                for j in rest:
                    ai[j] = (p * ai[j] - x * at[j]) // prev
            else:  # common in sparse rows: skip the zero products
                for j in rest:
                    ai[j] = p * ai[j] // prev
            ai[t] = 0
        prev = p
        r += 1
    return r, sign * prev


def char_poly(m: Matrix) -> CharPoly:
    """Characteristic polynomial by Kronecker substitution.

    c_(n-k) is +-(the sum of the C(n, k) principal k x k minors), and
    each such minor is at most rho^k in absolute value, rho being the
    largest absolute row sum; so sum |c_k| <= (1 + rho)^n.  Hence for
    2^(B-1) > (1 + rho)^n the value det(2^B I - M) = sum c_k 2^(Bk)
    holds each c_k as one balanced base-2^B digit.  2^B I - M is
    strictly diagonally dominant, so its leading minors are nonzero and
    the elimination never pivots: O(n^3) big-integer operations.
    """
    n = _check_square(m)
    rho = max((sum(map(abs, row)) for row in m), default=0)
    bits = ((1 + rho) ** n).bit_length() + 1
    base = 1 << bits
    a = [[-x for x in row] for row in m]
    for i in range(n):
        a[i][i] += base
    _, value = _bareiss(a)
    half = base >> 1
    mask = base - 1
    coeffs = []
    for _ in range(n):
        digit = value & mask
        if digit >= half:
            digit -= base
        coeffs.append(digit)
        value = (value - digit) >> bits
    if value != 1:
        raise ArithmeticError(f"charpoly decoding left leading digit {value}, not 1")
    coeffs.append(1)
    return CharPoly(tuple(coeffs))


def _divisibility_fixup(diag: list[int]) -> list[int]:
    """Turn a positive diagonal into a divisibility chain.

    Repeatedly replaces adjacent pairs by (gcd, lcm); each pass either
    fixes the chain or strictly migrates prime powers toward the tail,
    so the loop terminates.
    """
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i] = g
                diag[i + 1] = a // g * b
                changed = True
    return diag


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _diagonalize_mod(a: list[list[int]], d: int) -> list[int]:
    """Diagonalize working modulo d; the implicit lattice is
    rowspan + d*Z^n, so reducing any entry by d is a free row
    operation and nothing ever outgrows d."""
    n = len(a)
    for row in a:
        for j in range(n):
            row[j] %= d
    half = d >> 1
    diag: list[int] = []
    for t in range(n):
        # minimal symmetric-magnitude nonzero pivot in the trailing block
        pr = pc = -1
        best = d
        for i in range(t, n):
            ai = a[i]
            for j in range(t, n):
                x = ai[j]
                if x:
                    if x > half:
                        x = d - x
                    if x < best:
                        best = x
                        pr, pc = i, j
                        if x == 1:
                            break
            if best == 1:
                break
        if pr < 0:
            break  # trailing block vanished mod d
        if pr != t:
            a[t], a[pr] = a[pr], a[t]
        if pc != t:
            for rowv in a:
                rowv[t], rowv[pc] = rowv[pc], rowv[t]
        while True:
            at = a[t]
            p = at[t]
            dirty = False
            for i in range(t + 1, n):  # clear column t with row ops
                ai = a[i]
                x = ai[t]
                if not x:
                    continue
                if x % p == 0:
                    q = x // p
                    for j in range(t, n):
                        ai[j] = (ai[j] - q * at[j]) % d
                else:
                    g, u, v = _xgcd(p, x)
                    pg = p // g
                    xg = x // g
                    for j in range(t, n):
                        s, w = at[j], ai[j]
                        at[j] = (u * s + v * w) % d
                        ai[j] = (pg * w - xg * s) % d
                    p = g
            for j in range(t + 1, n):  # clear row t with column ops
                x = at[j]
                if not x:
                    continue
                if x % p == 0:
                    q = x // p
                    for i in range(t, n):
                        ai = a[i]
                        ai[j] = (ai[j] - q * ai[t]) % d
                else:
                    g, u, v = _xgcd(p, x)
                    pg = p // g
                    xg = x // g
                    for i in range(t, n):
                        ai = a[i]
                        s, w = ai[t], ai[j]
                        ai[t] = (u * s + v * w) % d
                        ai[j] = (pg * w - xg * s) % d
                    p = g
                    dirty = True  # the column ops can refill column t
            if not dirty:
                break
        diag.append(a[t][t])
    while len(diag) < n:
        diag.append(0)
    return diag


def snf(m: Matrix) -> SnfResult:
    """Smith normal form over the integers.

    First pass: fraction-free elimination finds the rank r and one
    nonzero r x r minor d.  Since every invariant factor divides d,
    the lattice spanned by the rows together with d*Z^n has invariant
    factors (f_1, ..., f_r, d, ..., d); the second pass diagonalizes
    with all arithmetic modulo d -- minimal-magnitude pivots, row and
    column combinations -- so entries never exceed d.  A final gcd/lcm
    pass over adjacent pairs enforces f_i | f_{i+1} regardless of
    pivot order.  Factors are reported positive; zero diagonal entries
    live in ``zeros``.
    """
    n = _check_square(m)
    r, d = _bareiss([list(row) for row in m])
    d = abs(d)
    if r == 0:
        return SnfResult((), n)
    if d == 1:
        return SnfResult((1,) * r, n - r)
    raw = [math.gcd(e, d) for e in _diagonalize_mod([list(row) for row in m], d)]
    _divisibility_fixup(raw)
    if any(x != d for x in raw[r:]):
        raise ArithmeticError(
            f"SNF padding entries must equal the minor {d}; diagonal {raw}")
    return SnfResult(tuple(raw[:r]), n - r)
