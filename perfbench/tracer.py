"""Per-layer spans for the traced census run, recorded from outside the program.

`Tracer.install` replaces each function of `LAYERS` at every attribute of a
loaded `snfcensus` module that refers to it, which is where the census looks
it up, and wraps iteration of `GraphStream` so that producing each graph is a
span of the `gen` layer.  Every call becomes one span (name, start, end,
parent) held in flat arrays; `summary` turns them into per-layer call counts
and self times, a span's self time being its duration minus that of its
child spans.  The census must run in this one process (`--jobs 1`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# metric prefix, defining module, function
LAYERS = (
    ("graphio.parse_graph6", "snfcensus.graphio", "parse_graph6"),
    ("gen.canonical_form", "snfcensus.gen", "canonical_form"),
    ("matrices.distance_matrix", "snfcensus.matrices", "distance_matrix"),
    ("matrices.build_matrix", "snfcensus.matrices", "build_matrix"),
    ("exact.char_poly", "snfcensus.exact", "char_poly"),
    ("exact.snf", "snfcensus.exact", "snf"),
    ("census.part_key", "snfcensus.census", "part_key"),
    ("census.run_census", "snfcensus.census", "run_census"),
)
STREAM = "gen.stream"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.stream_passes = 0
        self.first_graph_ns = 0  # summed over passes: iteration start to first graph
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records one span named `name`."""
        nid = self._name_id(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module, attr in LAYERS:
            original = getattr(importlib.import_module(module), attr)
            traced = self.span(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "snfcensus" or mod_name.startswith("snfcensus."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, traced)
        from snfcensus.gen import GraphStream
        self._replace(GraphStream, "__iter__", self._traced_iter(GraphStream.__iter__))

    def _traced_iter(self, original_iter):
        tracer = self
        next_graph = self.span(STREAM, next)

        def traced_iter(stream):
            tracer.stream_passes += 1
            started = time.perf_counter_ns()
            graphs = original_iter(stream)
            first = True
            while True:
                try:
                    g = next_graph(graphs)
                except StopIteration:
                    return
                if first:
                    tracer.first_graph_ns += time.perf_counter_ns() - started
                    first = False
                yield g

        return traced_iter

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self time in ns)."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = name_of[i]
            calls[k] += 1
            self_ns[k] += end[i] - start[i] - child_ns[i]
        return {name: (calls[k], self_ns[k]) for k, name in enumerate(self.names)}
