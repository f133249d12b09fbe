"""Invariant-key censuses: bucket graphs by exact invariants and count
the ones sharing a bucket with at least one other graph.

A spec is an ordered list of (matrix kind, invariant type) parts,
written ``"A:sp"`` or ``"DL:sp,DQ:in"``.  The key of a graph under a
spec is the concatenation of canonical byte encodings of each part --
the full integer characteristic polynomial for ``sp``, the invariant
factors plus zero count for ``in`` -- so two graphs share a bucket
exactly when they agree on every listed invariant simultaneously.
"""

from __future__ import annotations

import enum
import hashlib
import json
import tempfile
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice

from snfcensus.exact import Matrix, char_poly, snf
from snfcensus.gen import GraphStream
from snfcensus.graphio import Graph
from snfcensus.matrices import (
    DISTANCE_KINDS,
    DisconnectedGraphError,
    MatrixKind,
    build_matrix,
    distance_matrix,
)


class CensusError(ValueError):
    """Input stream violated census preconditions (record context included)."""


class InvariantType(enum.Enum):
    SP = "sp"  # spectrum: characteristic polynomial
    IN = "in"  # invariant factors: Smith normal form


Part = tuple[MatrixKind, InvariantType]

# one tag byte per part; lowercase for spectra, uppercase for SNFs
_TAGS: dict[Part, bytes] = {}
for _k, _sp_tag in zip(MatrixKind, b"alqdef"):
    _TAGS[(_k, InvariantType.SP)] = bytes([_sp_tag])
    _TAGS[(_k, InvariantType.IN)] = bytes([_sp_tag]).upper()


@dataclass(frozen=True)
class InvariantSpec:
    parts: tuple[Part, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("spec needs at least one part")

    @property
    def label(self) -> str:
        return ",".join(f"{k.value}:{t.value}" for k, t in self.parts)

    def __str__(self) -> str:
        return self.label


def parse_spec(text: str) -> InvariantSpec:
    """Parse ``"KIND:sp|in[,KIND:sp|in...]"`` into an InvariantSpec."""
    parts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty part in spec {text!r}")
        kind_s, sep, type_s = chunk.partition(":")
        if not sep:
            raise ValueError(f"part {chunk!r} lacks ':' (want KIND:sp or KIND:in)")
        kind = MatrixKind.parse(kind_s)
        type_s = type_s.strip().lower()
        try:
            itype = InvariantType(type_s)
        except ValueError:
            raise ValueError(f"invariant type {type_s!r} must be 'sp' or 'in'") from None
        parts.append((kind, itype))
    return InvariantSpec(tuple(parts))


def _encode_ints(values) -> bytes:
    """Length-prefixed decimal encoding; self-delimiting, so injective."""
    return b"".join(b"%d:%d" % (len(str(v)), v) for v in values)


def part_key(g: Graph, part: Part, m: Matrix | None = None) -> bytes:
    """Encoded invariant of one part; ``m``, if given, must be
    ``build_matrix(g, part[0])``."""
    kind, itype = part
    if m is None:
        m = build_matrix(g, kind)
    if itype is InvariantType.SP:
        return _TAGS[part] + _encode_ints(char_poly(m).coeffs)
    res = snf(m)
    return _TAGS[part] + _encode_ints(list(res.factors) + [res.zeros])


def _group_by_kind(parts) -> list[tuple[MatrixKind, list[Part]]]:
    """Distinct parts grouped by matrix kind, in first-seen order."""
    kinds: dict[MatrixKind, list[Part]] = {}
    for p in parts:
        same = kinds.setdefault(p[0], [])
        if p not in same:
            same.append(p)
    return list(kinds.items())


def _part_keys(g: Graph, kinds: list[tuple[MatrixKind, list[Part]]]) -> dict[Part, bytes]:
    """Every part key of ``g``, with one BFS and one build per kind."""
    dist = (distance_matrix(g)
            if any(k in DISTANCE_KINDS for k, _ in kinds) else None)
    keys = {}
    for kind, parts in kinds:
        m = build_matrix(g, kind, dist)
        for p in parts:
            keys[p] = part_key(g, p, m)
    return keys


@dataclass(frozen=True)
class SpecResult:
    spec: str
    mates_count: int
    ratio: float
    histogram: dict[int, int]  # bucket size -> number of buckets


@dataclass(frozen=True)
class CensusReport:
    n: int
    universe: int
    results: tuple[SpecResult, ...]


def _mates_and_histogram(counter: Counter) -> tuple[int, dict[int, int]]:
    mates = 0
    hist: Counter = Counter()
    for c in counter.values():
        hist[c] += 1
        if c >= 2:
            mates += c
    return mates, dict(sorted(hist.items()))


# Records per task: enough to amortise a task's pickling under --jobs
# (64 to 2048 run the n = 9 census equally fast at --jobs 2), few
# enough that the serial path, which runs the same tasks, keeps the
# peak RSS of a one-record-at-a-time loop (2048 added 2.6 MiB at n = 8).
CHUNK = 64
# tasks in flight per worker process under --jobs
WINDOW_PER_JOB = 2


def _keys_for_chunk(args) -> list[list[bytes]]:
    records, kinds, part_lists = args
    out = []
    for number, g in records:
        try:
            keys = _part_keys(g, kinds)
        except DisconnectedGraphError as e:
            raise CensusError(
                f"record {number}: disconnected graph in stream ({e})"
            ) from None
        out.append([b"".join(keys[p] for p in plist) for plist in part_lists])
    return out


def _bounded_map(pool: ProcessPoolExecutor, fn, tasks, window: int):
    """``map(fn, tasks)`` on the pool, in order, with at most ``window``
    tasks submitted and not yet consumed, so memory does not grow with
    the number of tasks."""
    pending: deque = deque()
    for task in tasks:
        pending.append(pool.submit(fn, task))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _iter_record_keys(records, specs: list[InvariantSpec], jobs: int):
    """Yield, in order, the spec keys of each (record number, graph)
    pair of ``records``, sharing part computations; errors name the
    record by its number."""
    kinds = _group_by_kind(p for s in specs for p in s.parts)
    part_lists = [s.parts for s in specs]
    records = iter(records)

    def tasks():
        while chunk := list(islice(records, CHUNK)):
            yield chunk, kinds, part_lists

    if jobs <= 1:
        for block in map(_keys_for_chunk, tasks()):
            yield from block
        return
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        for block in _bounded_map(pool, _keys_for_chunk, tasks(),
                                  WINDOW_PER_JOB * jobs):
            yield from block
    finally:
        pool.shutdown(cancel_futures=True)


def _iter_spec_keys(stream: GraphStream, specs: list[InvariantSpec], jobs: int):
    """Yield per-graph lists of spec keys, numbering records from 1."""
    return _iter_record_keys(enumerate(stream, 1), specs, jobs)


DIGEST_SIZE = 16


def _digest(key: bytes) -> bytes:
    return hashlib.blake2b(key, digest_size=DIGEST_SIZE).digest()


def _graph_digest(g: Graph) -> bytes:
    return _digest(repr(g.adj).encode())


def _changed(number: int) -> CensusError:
    return CensusError(f"record {number}: stream changed between passes")


def _two_pass_counts(stream: GraphStream, specs: list[InvariantSpec],
                     jobs: int) -> tuple[int, list[Counter]]:
    """The universe, and per spec the exact-key counts of the records
    in hot (size >= 2) digest buckets.

    Pass 1 spills one fixed-size row per record to an anonymous
    temporary file: the graph's digest, then its key digest under each
    spec.  Pass 2 reads the stream beside the spill, checks each graph
    against its row, and recomputes keys only for records that sit in a
    hot bucket of some spec.
    """
    width = DIGEST_SIZE * (len(specs) + 1)
    offsets = range(DIGEST_SIZE, width, DIGEST_SIZE)
    with tempfile.TemporaryFile() as spill:
        # graph digests of the records in flight in the key loop
        graph_digests: deque = deque()

        def first_pass():
            for number, g in enumerate(stream, 1):
                graph_digests.append(_graph_digest(g))
                yield number, g

        hashed: list[Counter] = [Counter() for _ in specs]
        universe = 0
        for keys in _iter_record_keys(first_pass(), specs, jobs):
            universe += 1
            row = [graph_digests.popleft()]
            for c, k in zip(hashed, keys):
                d = _digest(k)
                c[d] += 1
                row.append(d)
            spill.write(b"".join(row))
        hot = [frozenset(d for d, c in counter.items() if c >= 2)
               for counter in hashed]
        del hashed  # pass 2 never holds the digest counts and hot sets at once
        spill.seek(0)

        # (record number, spilled row) of the hot records in flight
        pending: deque = deque()

        def second_pass():
            number = 0
            for number, g in enumerate(stream, 1):
                row = spill.read(width)
                if row[:DIGEST_SIZE] != _graph_digest(g):
                    raise _changed(number)
                if any(row[o:o + DIGEST_SIZE] in h for o, h in zip(offsets, hot)):
                    pending.append((number, row))
                    yield number, g
            if number != universe:
                raise _changed(number + 1)

        exact: list[Counter] = [Counter() for _ in specs]
        for keys in _iter_record_keys(second_pass(), specs, jobs):
            number, row = pending.popleft()
            for c, h, o, k in zip(exact, hot, offsets, keys):
                d = _digest(k)
                if d != row[o:o + DIGEST_SIZE]:
                    raise CensusError(f"record {number}: keys changed between passes")
                if d in h:
                    c[k] += 1
    return universe, exact


def run_census(stream: GraphStream, specs, *, two_pass: bool = False,
               jobs: int = 1) -> CensusReport:
    """Count, for every spec, the graphs whose key bucket has size >= 2.

    One representative per isomorphism class must arrive on the
    stream.  ``two_pass`` buckets 128-bit key digests on a first pass
    and spills each record's graph and key digests to a temporary file,
    16 * (specs + 1) bytes per record.  The second pass checks each
    graph against the spill and recomputes exact keys only for records
    in a hot digest bucket, so the working set is the digest counts
    plus the hot records' exact keys (meant for the n = 10 universe);
    both modes produce identical reports.
    """
    specs = [parse_spec(s) if isinstance(s, str) else s for s in specs]
    if not two_pass:
        exact: list[Counter] = [Counter() for _ in specs]
        universe = 0
        for keys in _iter_spec_keys(stream, specs, jobs):
            universe += 1
            for c, k in zip(exact, keys):
                c[k] += 1
    else:
        universe, exact = _two_pass_counts(stream, specs, jobs)

    results = []
    for s, counter in zip(specs, exact):
        mates, hist = _mates_and_histogram(counter)
        if two_pass:
            # graphs outside hot digest buckets are exact singletons
            # (equal keys always share a digest), so restore them here
            leftovers = universe - sum(counter.values())
            if leftovers:
                hist[1] = hist.get(1, 0) + leftovers
        ratio = mates / universe if universe else 0.0
        results.append(SpecResult(s.label, mates, ratio, hist))
    return CensusReport(stream.n, universe, tuple(results))


def emit_report(report: CensusReport, format: str = "tsv") -> bytes:
    """Render a report deterministically as TSV or JSON.

    Ratios carry 15 significant digits; all counts are exact decimals.
    """
    fmt = format.lower()
    if fmt == "tsv":
        lines = ["n\tuniverse\tspec\tmates\tratio"]
        for r in report.results:
            lines.append(f"{report.n}\t{report.universe}\t{r.spec}\t"
                         f"{r.mates_count}\t{r.ratio:.15g}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        doc = {
            "n": report.n,
            "universe": report.universe,
            "results": [
                {
                    "spec": r.spec,
                    "mates": r.mates_count,
                    "ratio": float(f"{r.ratio:.15g}"),
                    "histogram": {str(k): v for k, v in sorted(r.histogram.items())},
                }
                for r in report.results
            ],
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    raise ValueError(f"unknown format {format!r} (want tsv or json)")
