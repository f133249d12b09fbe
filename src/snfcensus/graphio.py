"""graph6 parsing and emission, plus the core Graph type.

The graph6 format stores a simple undirected graph as one ASCII line:
a size byte ``n + 63`` (short form, so n <= 62) followed by the upper
triangle of the adjacency matrix.  The triangle is read column by
column -- bit x(i, j) for j = 1..n-1, i = 0..j-1 -- and packed
big-endian into 6-bit groups, each emitted as one byte with 63 added.
Unused padding bits in the final group must be zero in canonical
output; nonzero padding on input is tolerated, file streams count the
records that carry it, and the per-record commands warn on each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Iterator


class Graph6Error(ValueError):
    """Base class for graph6 decoding problems."""


class Graph6SizeError(Graph6Error):
    """Size byte missing, out of range, or long-form (n > 62)."""


class Graph6LengthError(Graph6Error):
    """Record length disagrees with ceil(n(n-1)/2 / 6) + 1."""


class Graph6ByteError(Graph6Error):
    """A data byte falls outside the printable range 63..126."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is an integer bitset: bit u is set iff uv is an edge.
    Rows are symmetric and loop-free by construction.
    """

    n: int
    adj: tuple[int, ...]

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def graph_from_edges(n: int, edges) -> Graph:
    """Build a Graph from an edge list; loops are rejected."""
    if not 1 <= n <= 64:
        raise ValueError(f"vertex count {n} outside 1..64")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _data_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


def parse_graph6(line: bytes | str) -> Graph:
    """Decode one graph6 record (trailing newline tolerated)."""
    if isinstance(line, str):
        line = line.encode("ascii")
    line = line.rstrip(b"\r\n")
    if not line:
        raise Graph6SizeError("empty record")
    size = line[0]
    if size == 126:
        raise Graph6SizeError("long-form size byte (n > 62) not supported")
    if not 63 <= size <= 125:
        raise Graph6SizeError(f"size byte {size} outside 63..125")
    n = size - 63
    if n < 1:
        raise Graph6SizeError("graphs need at least one vertex")
    data = line[1:]
    want = _data_len(n)
    if len(data) < want:
        raise Graph6LengthError(f"truncated: {len(data)} data bytes, need {want}")
    if len(data) > want:
        raise Graph6LengthError(f"trailing garbage: {len(data)} data bytes, need {want}")
    for b in data:
        if not 63 <= b <= 126:
            raise Graph6ByteError(f"data byte {b} outside 63..126")

    rows = [0] * n
    bitpos = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[bitpos // 6] - 63
            if (byte >> (5 - bitpos % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bitpos += 1
    return Graph(n, tuple(rows))


def _nonzero_padding(record: bytes) -> bool:
    """Whether a valid record sets padding bits beyond the triangle:
    it decodes, but is not canonical graph6."""
    n = record[0] - 63
    pad = -(n * (n - 1) // 2) % 6
    return bool((record[-1] - 63) & ((1 << pad) - 1))


def _graph6_records(fh: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """(1-based record number, record) for each graph6 line of ``fh``;
    blank lines and a ``>>graph6<<`` header prefix are skipped."""
    recno = 0
    for raw in fh:
        line = raw.strip()
        if line.startswith(b">>graph6<<"):
            line = line[len(b">>graph6<<"):]
        if line:
            recno += 1
            yield recno, line


def write_graph6(g: Graph) -> bytes:
    """Canonical graph6 encoding (no trailing newline)."""
    if g.n > 62:
        raise Graph6SizeError(f"cannot encode n = {g.n} > 62 in short form")
    out = bytearray([g.n + 63])
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)
