"""The six graph matrices: A, L, Q, D, DL, DQ.

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
    """All-pairs shortest paths by one BFS per source over the bitsets.

    One walk over the set bits of each frontier writes their distance
    and gathers the next frontier from their neighbourhoods."""
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    out = []
    for src in range(n):
        row = [0] * n
        seen = frontier = 1 << src
        dist = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                row[v] = dist
                nxt |= adj[v]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
            dist += 1
        if seen != full:
            unreached = full & ~seen
            missing = (unreached & -unreached).bit_length() - 1
            raise DisconnectedGraphError(
                f"vertex {missing} unreachable from vertex {src}")
        out.append(row)
    return out


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
