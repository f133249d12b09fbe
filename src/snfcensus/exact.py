"""Exact integer linear algebra: characteristic polynomials and Smith
normal form.

Matrices are plain ``list[list[int]]`` with arbitrary-precision
entries; nothing in this module touches floating point.  Two graphs
are cospectral exactly when these integer characteristic polynomials
are equal, and coinvariant exactly when the invariant-factor lists
agree, so both routines must be exact rather than approximate.
Both eliminations -- fraction-free Bareiss for ranks, minors and
determinants, and ``snf``'s pass modulo a minor -- choose pivots by
one rule, ``_pivot_to``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Matrix = list[list[int]]


@dataclass(frozen=True, slots=True)
class CharPoly:
    """Coefficients c_0..c_n (ascending) of the monic det(xI - M)."""

    coeffs: tuple[int, ...]

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


def _pivot_to(a: Matrix, t: int) -> int:
    """Swap the first nonzero entry of the trailing block a[t:][t:], in
    row-major order, to (t, t).  Returns the sign of the permutation,
    or 0 when the block is zero."""
    n = len(a)
    for i in range(t, n):
        ai = a[i]
        for j in range(t, n):
            if ai[j]:
                sign = 1
                if i != t:
                    a[t], a[i] = ai, a[t]
                    sign = -sign
                if j != t:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    sign = -sign
                return sign
    return 0


def _bareiss(a: Matrix) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of ``a`` in place.

    Step t keeps a nonzero (t, t) as its pivot and otherwise calls
    ``_pivot_to``; either way the pivot is the first nonzero entry of
    the trailing block in row-major order.  Every intermediate entry is
    itself a minor of the input, so growth stays polynomial and each
    division is exact.  Stops when the trailing block is zero.  Returns
    the rank r and the last pivot, which is the determinant of an
    r x r submatrix, signed so that it is the determinant of the input
    when r = n.
    """
    n = len(a)
    prev = sign = 1
    r = 0
    for t in range(n):
        if not a[t][t]:
            s = _pivot_to(a, t)
            if not s:
                break
            sign *= s
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


def _diagonalize_mod(a: Matrix, d: int) -> list[int]:
    """Diagonalize ``a`` in place modulo d and return the diagonal.

    The implicit lattice is rowspan + d*Z^n, so reducing an entry by d
    is a free row operation and nothing outgrows d.  Row operations
    clear column t, taking an extended gcd with row t where the pivot p
    does not divide.  Column t is then zero below p, so a column
    operation by a multiple of column t would change only row t:
    entries of row t that p divides can be dropped as they are.  If
    one is not divisible, the trailing block is transposed, which keeps
    its invariant factors, and column t is cleared again; the gcd with
    that entry makes p strictly smaller, so the rounds end.
    """
    n = len(a)
    for row in a:
        for j in range(n):
            row[j] %= d
    diag: list[int] = []
    for t in range(n):
        if not a[t][t] and not _pivot_to(a, t):
            return diag + [0] * (n - t)  # trailing block vanished mod d
        while True:
            at = a[t]
            p = at[t]
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
            if all(at[j] % p == 0 for j in range(t + 1, n)):
                break
            for i in range(t, n):  # transpose the trailing block
                ai = a[i]
                for j in range(i + 1, n):
                    ai[j], a[j][i] = a[j][i], ai[j]
        diag.append(p)
    return diag


def snf(m: Matrix) -> SnfResult:
    """Smith normal form over the integers.

    First pass: ``_bareiss`` finds the rank r and one nonzero r x r
    minor d.  Since every invariant factor divides d, the lattice
    spanned by the rows together with d*Z^n has invariant factors
    (f_1, ..., f_r, d, ..., d); the second pass, ``_diagonalize_mod``,
    works modulo d, so entries never exceed d.  Its diagonal need not
    be a divisibility chain, so a final gcd/lcm pass over adjacent
    pairs enforces f_i | f_{i+1}.  Factors are reported positive; zero
    diagonal entries live in ``zeros``.
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
