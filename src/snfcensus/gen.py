"""Isomorph-free generation of connected graphs and free trees.

One vertex-extension loop, ``_extend``, makes every connected class on
n vertices: it joins a new vertex to every nonempty vertex set of each
connected class on n-1 vertices, keeps a child only if the new vertex
has the highest degree among the child's non-cut vertices (ties are
kept), and deduplicates the kept children through ``canonical_form``.
Every child is connected, because the new vertex has a neighbour in a
connected parent.  The loop is complete: every connected graph G on
n >= 2 vertices has a vertex that is not a cut vertex -- any leaf of a
spanning tree -- so it has a non-cut vertex v of highest degree among
its non-cut vertices.  G - v is connected, so it is isomorphic to some
parent, and G is that parent's child by v's neighbourhood, with the
new vertex in v's place.  Degrees and cut vertices are kept by
isomorphism, so that child passes the filter.  The filter needs no
search per child: vertex u is a non-cut vertex of the child exactly
when the new vertex's other neighbours meet every component of
parent - u, and those components are found once per parent.

``canonical_form`` takes the least adjacency bit string over the vertex
orderings that follow a colour refinement, twin classes in index order.

Free trees come from the level-sequence successor generator
(Wright/Richmond/Odlyzko/McKay) as implemented by networkx, which
emits exactly one representative per class in sequence order.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from functools import lru_cache
from typing import Callable, Iterator

import networkx as nx

from snfcensus.graphio import (
    Graph,
    Graph6Error,
    _graph6_records,
    _nonzero_padding,
    graph_from_edges,
    parse_graph6,
    write_graph6,
)

CANONICAL_MAX_N = 10
ENUM_MAX_N = 8
TREE_MAX_N = 20


# --------------------------------------------------------- canonical form

def _refine(adj: tuple[int, ...], n: int) -> list[list[int]]:
    """Iterated neighbor-color refinement; returns cells of the stable
    ordered partition.  Round one is the ordered degree partition, and
    every later round refines by the sorted multiset of neighbor
    colors, so cell order is isomorphism-invariant throughout."""
    colors = [row.bit_count() for row in adj]
    ncolors = len(set(colors))
    while True:
        names = []
        for v in range(n):
            nb = []
            r = adj[v]
            while r:
                low = r & -r
                nb.append(colors[low.bit_length() - 1])
                r ^= low
            nb.sort()
            names.append((colors[v], tuple(nb)))
        rank = {nm: i for i, nm in enumerate(sorted(set(names)))}
        colors = [rank[nm] for nm in names]
        if len(rank) == ncolors:
            break
        ncolors = len(rank)
    cells: list[list[int]] = [[] for _ in range(ncolors)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 bytes: equal iff the graphs are isomorphic.

    Returns ``g`` relabelled by the least of the vertex orderings that
    follow the refined cells, compared by packed upper triangle.  The
    search fills one position at a time: it extends every tied prefix
    by each candidate vertex of that position's cell and keeps the
    extensions whose new row is least.  Every prefix extends to a whole
    ordering, so this level-by-level minimum is the lexicographic one.
    Twins (neighbourhoods equal apart from each other) share a cell,
    and swapping two is an automorphism, so a vertex is a candidate only
    once its nearest lower-index twin is placed: twin classes go in
    index order, and the minimum is unchanged.
    """
    n = g.n
    if n > CANONICAL_MAX_N:
        raise ValueError(f"canonical_form supports n <= {CANONICAL_MAX_N}, got {n}")
    if n <= 1:
        return write_graph6(g)
    adj = g.adj
    deg_total = sum(row.bit_count() for row in adj)
    if deg_total == 0 or deg_total == n * (n - 1):
        return write_graph6(g)  # empty or complete: every ordering agrees

    cells = _refine(adj, n)
    twin_before = [0] * n  # bit of v's nearest lower-index twin, or 0
    for cell in cells:
        for k, v in enumerate(cell):
            for u in cell[:k]:
                if not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):
                    twin_before[v] = 1 << u

    frontier = [((), 0)]  # tied prefixes: (vertices in order, their bitset)
    rows = []  # row j: adjacency of position j to positions 0..j-1, 0 first
    for cell in cells:
        for _ in cell:
            nxt = []
            for prefix, placed in frontier:
                for v in cell:
                    if placed >> v & 1 or twin_before[v] & ~placed:
                        continue
                    av = adj[v]
                    r = 0
                    for u in prefix:
                        r = r << 1 | av >> u & 1
                    if not nxt or r < least:
                        least, nxt = r, []
                    if r == least:
                        nxt.append((prefix + (v,), placed | 1 << v))
            frontier = nxt
            rows.append(least)
    out = [0] * n
    for j, rj in enumerate(rows):
        for i in range(j):
            if rj >> (j - 1 - i) & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return write_graph6(Graph(n, tuple(out)))


# ------------------------------------------------------------- streams

class GraphStream:
    """Restartable stream of graphs, one per isomorphism class.

    ``padding_warnings`` counts the graph6 records of the most recent
    (or ongoing) iteration whose padding bits were not zero; iterating
    again restarts the source.
    """

    def __init__(self, source: str, n: int, factory: Callable[[], Iterator[Graph]]):
        self.source = source
        self.n = n
        self.padding_warnings = 0
        self._factory = factory

    def __iter__(self) -> Iterator[Graph]:
        self.padding_warnings = 0
        yield from self._factory()

    def __repr__(self) -> str:
        return f"GraphStream({self.source!r}, n={self.n})"


def _components_without(adj: tuple[int, ...], u: int) -> list[int]:
    """Vertex bitsets of the components of the graph minus vertex u."""
    rest = ((1 << len(adj)) - 1) & ~(1 << u)
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & rest & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        rest &= ~comp
    return comps


def _extend(n: int) -> list[bytes]:
    """Sorted canonical graph6 bytes of every connected class on n
    vertices, made by joining vertex n-1 to each nonempty vertex set of
    each connected class on n-1 vertices, keeping only the children in
    which vertex n-1 has the highest degree among non-cut vertices."""
    if n == 1:
        return [write_graph6(Graph(1, (0,)))]
    found: set[bytes] = set()
    hi = 1 << (n - 1)
    for parent in _catalog(n - 1):
        base = parent.adj
        # rivals[k]: the parent vertices u that may outrank a new vertex
        # of degree k, as (bit of u, components of parent - u, whether
        # u outranks it even when u is outside the mask)
        rivals: list[list[tuple[int, list[int], bool]]] = [[] for _ in range(n)]
        for u, row in enumerate(base):
            deg = row.bit_count()
            comps = _components_without(base, u)
            for k in range(1, deg + 1):
                rivals[k].append((1 << u, comps, deg > k))
        for mask in range(1, hi):
            for bit, comps, higher in rivals[mask.bit_count()]:
                if higher or mask & bit:
                    # u outranks the new vertex; it is a non-cut vertex
                    # of the child iff the new vertex's other neighbours
                    # m meet every component of parent - u
                    m = mask & ~bit
                    if all(m & c for c in comps):
                        break
            else:
                rows = [row | hi if mask >> u & 1 else row
                        for u, row in enumerate(base)]
                rows.append(mask)
                found.add(canonical_form(Graph(n, tuple(rows))))
    return sorted(found)


@lru_cache(maxsize=None)
def _catalog(n: int) -> tuple[Graph, ...]:
    """``_extend(n)`` parsed, kept for the life of the process."""
    return tuple(parse_graph6(rec) for rec in _extend(n))


def enumerate_connected(n: int) -> GraphStream:
    """All connected graphs on n vertices, one per class, in
    lexicographic canonical-bytes order.  Built-in range is 1..8;
    larger universes must be ingested from graph6 files."""
    if not 1 <= n <= ENUM_MAX_N:
        raise ValueError(
            f"built-in enumeration covers 1 <= n <= {ENUM_MAX_N}; "
            f"use a graph6 file for n = {n}")
    return GraphStream(f"connected(n={n})", n,
                       lambda: iter(_catalog(n)))


def enumerate_trees(n: int) -> GraphStream:
    """All free trees on n vertices in level-sequence order."""
    if not 1 <= n <= TREE_MAX_N:
        raise ValueError(f"tree enumeration covers 1 <= n <= {TREE_MAX_N}, got {n}")

    def factory() -> Iterator[Graph]:
        if n == 1:
            yield Graph(1, (0,))
            return
        for t in nx.nonisomorphic_trees(n):
            yield graph_from_edges(n, t.edges())

    return GraphStream(f"trees(n={n})", n, factory)


def graph6_file_stream(path: str, expect_n: int | None = None,
                       label: str | None = None) -> GraphStream:
    """Stream a graph6 file (one record per line, optional format
    header).  All records must share one vertex count; errors carry
    the 1-based record number.  `label` names the source in error
    messages when it differs from the path (e.g. spooled stdin)."""
    name = path if label is None else label

    def records() -> Iterator[tuple[int, bytes, Graph]]:
        with open(path, "rb") as fh:
            for recno, line in _graph6_records(fh):
                try:
                    g = parse_graph6(line)
                except Graph6Error as e:
                    raise type(e)(f"{name} record {recno}: {e}") from None
                yield recno, line, g

    want = expect_n
    if want is None:
        first = next(records(), None)
        if first is None:
            raise Graph6Error(f"{name}: no graph6 records found")
        want = first[2].n

    def factory() -> Iterator[Graph]:
        for recno, line, g in records():
            if g.n != want:
                raise Graph6Error(
                    f"{name} record {recno}: n = {g.n}, expected {want}")
            if _nonzero_padding(line):
                stream.padding_warnings += 1
            yield g

    stream = GraphStream(name, want, factory)
    return stream


# ----------------------------------------------------- catalog building

def build_connected_catalog(n: int, path: str) -> int:
    """Write every connected n-vertex class to ``path`` as sorted
    graph6 lines; returns the class count.  Intended for n = 9, one
    step past the in-memory enumerator.
    """
    if not 2 <= n <= CANONICAL_MAX_N - 1:
        raise ValueError(f"catalog building supported for 2 <= n <= {CANONICAL_MAX_N - 1}")
    found = _extend(n)
    # write beside the target and rename, so a killed build never
    # leaves a truncated catalog under the final name
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=".catalog-",
                               dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            for rec in found:
                fh.write(rec + b"\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return len(found)


# --------------------------------------------------------- constructors

def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n}: vertices 0..m-1 on one side, m..m+n-1 on the other."""
    return graph_from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])
