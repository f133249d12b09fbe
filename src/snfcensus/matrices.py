"""The six graph matrices: A, L, Q, D, DL, DQ, plus diag(d) + D.

All entries are plain Python ints from construction onward so the
exact linear algebra downstream never meets floating point or fixed
width.  Distance-based kinds require connected input.
"""

from __future__ import annotations

import enum

from snfcensus.graphio import Graph


class DisconnectedGraphError(ValueError):
    """A distance-based matrix was requested for a disconnected graph."""


class MatrixKind(enum.Enum):
    A = "A"    # adjacency
    L = "L"    # Laplacian: diag(deg) - A
    Q = "Q"    # signless Laplacian: diag(deg) + A
    D = "D"    # shortest-path distances
    DL = "DL"  # distance Laplacian: diag(tr) - D
    DQ = "DQ"  # signless distance Laplacian: diag(tr) + D

    @classmethod
    def parse(cls, tag: str) -> "MatrixKind":
        try:
            return cls[tag.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown matrix kind {tag!r}; expected one of "
                             f"{', '.join(k.name for k in cls)}") from None


DISTANCE_KINDS = frozenset({MatrixKind.D, MatrixKind.DL, MatrixKind.DQ})


def adjacency_matrix(g: Graph) -> list[list[int]]:
    return [[(g.adj[i] >> j) & 1 for j in range(g.n)] for i in range(g.n)]


def distance_matrix(g: Graph) -> list[list[int]]:
    """All-pairs shortest paths by one BFS per source over the bitsets."""
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    out = []
    for src in range(n):
        row = [0] * n
        seen = 1 << src
        frontier = seen
        dist = 0
        while frontier:
            dist += 1
            nxt = 0
            f = frontier
            v = 0
            while f:
                if f & 1:
                    nxt |= adj[v]
                f >>= 1
                v += 1
            frontier = nxt & ~seen
            seen |= frontier
            f = frontier
            v = 0
            while f:
                if f & 1:
                    row[v] = dist
                f >>= 1
                v += 1
        if seen != full:
            missing = next(v for v in range(n) if not (seen >> v) & 1)
            raise DisconnectedGraphError(
                f"vertex {missing} unreachable from vertex {src}")
        out.append(row)
    return out


def transmission_vector(g: Graph) -> tuple[int, ...]:
    """tr(u) = sum of distances from u to every vertex."""
    return tuple(sum(row) for row in distance_matrix(g))


def generalized_distance_matrix(g: Graph, d) -> list[list[int]]:
    """diag(d) + D(G): recovers D at d = 0 and DQ at d = tr(G)."""
    dvec = list(d)
    if len(dvec) != g.n:
        raise ValueError(f"diagonal vector has length {len(dvec)}, need {g.n}")
    mat = distance_matrix(g)
    for i, x in enumerate(dvec):
        mat[i][i] += x
    return mat


def build_matrix(g: Graph, kind: MatrixKind,
                 dist: list[list[int]] | None = None) -> list[list[int]]:
    """The ``kind`` matrix of ``g``.

    ``dist``, if given, must be ``distance_matrix(g)``; a caller that
    needs several distance-based kinds of one graph passes it so that
    the BFS runs once.  For kind D the result is ``dist`` itself.
    """
    n = g.n
    if kind is MatrixKind.A:
        return adjacency_matrix(g)
    if kind is MatrixKind.L or kind is MatrixKind.Q:
        a = adjacency_matrix(g)
        deg = g.degrees()
        if kind is MatrixKind.L:
            return [[deg[i] if i == j else -a[i][j] for j in range(n)] for i in range(n)]
        return [[deg[i] if i == j else a[i][j] for j in range(n)] for i in range(n)]
    if dist is None:
        dist = distance_matrix(g)
    if kind is MatrixKind.D:
        return dist
    tr = [sum(row) for row in dist]
    if kind is MatrixKind.DL:
        return [[tr[i] if i == j else -dist[i][j] for j in range(n)] for i in range(n)]
    if kind is MatrixKind.DQ:
        return [[tr[i] if i == j else dist[i][j] for j in range(n)] for i in range(n)]
    raise ValueError(f"unhandled kind {kind}")
