"""Workloads of the census benchmark and the values their outputs must equal.

Universe sizes are computed here, apart from the program: Burnside's lemma
over the cycle types of vertex permutations counts all graphs on n vertices,
and the inverse Euler transform turns those into connected-graph counts.
Mate counts are the ones published in "Enumeration of cospectral and
coinvariant graphs" (arXiv:2008.05786).  Nothing in this module imports the
program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _edge_cycles(cycle_type: tuple[int, ...]) -> int:
    """Cycles that a vertex permutation of this cycle type induces on the
    unordered vertex pairs."""
    count = sum(k // 2 for k in cycle_type)
    for i, a in enumerate(cycle_type):
        for b in cycle_type[i + 1:]:
            count += gcd(a, b)
    return count


def graph_count(n: int) -> int:
    """Isomorphism classes of simple graphs on n vertices (Burnside)."""
    total = Fraction(0)
    for cycle_type in _partitions(n):
        centraliser = 1
        for k in set(cycle_type):
            m = cycle_type.count(k)
            centraliser *= k ** m * factorial(m)
        total += Fraction(2 ** _edge_cycles(cycle_type), centraliser)
    if total.denominator != 1:
        raise ArithmeticError(f"Burnside sum for n = {n} is not whole: {total}")
    return int(total)


def connected_count(n: int) -> int:
    """Isomorphism classes of connected graphs on n vertices.

    Every graph is a multiset of connected ones, so the graph counts are
    the Euler transform of the connected counts; this inverts it.
    """
    g = [graph_count(k) for k in range(n + 1)]
    e = [0] * (n + 1)  # e[k] = sum over d | k of d * connected(d)
    for k in range(1, n + 1):
        e[k] = k * g[k] - sum(e[j] * g[k - j] for j in range(1, k))
    c = [0] * (n + 1)
    for k in range(1, n + 1):
        c[k] = (e[k] - sum(d * c[d] for d in range(1, k) if k % d == 0)) // k
    return c[n]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    input: str | None  # file name in the input cache; None generates in-process
    mates: dict[str, int]  # spec -> published mate count, in report order
    jobs: int = 1
    two_pass: bool = False

    def argv(self, input_path: str | None, jobs: int | None = None) -> list[str]:
        """Arguments of the `snfcensus` command for one census of this
        workload; `jobs` overrides the workload's process count."""
        args = ["census", "--n", str(self.n), "--format", "json"]
        args += ["--generate"] if input_path is None else ["--input", input_path]
        for spec in self.mates:
            args += ["--spec", spec]
        if self.two_pass:
            args.append("--two-pass")
        return args + ["--jobs", str(self.jobs if jobs is None else jobs)]

    def kinds(self, invariant: str) -> set[str]:
        """Matrix kinds that some spec asks for under `invariant`."""
        return {part.split(":")[0] for spec in self.mates
                for part in spec.split(",") if part.endswith(":" + invariant)}

    @property
    def operations(self) -> int:
        """Checked outputs per census: the universe and each mate count."""
        return 1 + len(self.mates)


# Table 1 of the paper (n = 8), mate counts under A, L, Q, D, then DL, DQ.
_N8_ALL_KINDS = {
    "A:sp": 1353, "L:sp": 1611, "Q:sp": 1047, "D:sp": 658,
    "A:in": 11117, "L:in": 8027, "Q:in": 7962, "D:in": 11080,
    "DL:sp": 745, "DL:in": 455, "DQ:sp": 453, "DQ:in": 259,
    "DL:sp,DL:in": 435, "DQ:sp,DQ:in": 243,
}

WORKLOADS = {w.name: w for w in (
    Workload("gen8-all-kinds", 8, None, _N8_ALL_KINDS),
    Workload("file9-dl-spectrum-jobs2", 9, "connected9.g6",
             {"DL:sp": 20455}, jobs=2),
    Workload("file8-distance-snf-two-pass", 8, "connected8.g6",
             {"DL:in": 455, "DQ:in": 259, "DL:in,DQ:in": 44,
              "D:in,DL:in": 32, "D:in,DQ:in": 20, "D:in,DL:in,DQ:in": 0},
             two_pass=True),
)}

INPUTS = {w.input: w.n for w in WORKLOADS.values() if w.input}


def check(workload: Workload, report: dict) -> tuple[int, list[str]]:
    """Compare a `--format json` census report with the references.

    Returns the number of failed operations and one message per failure.
    An operation is the universe count or one spec's mate count; a spec
    missing from the report fails like a wrong count.
    """
    problems = []
    want = connected_count(workload.n)
    if report.get("universe") != want:
        problems.append(f"universe {report.get('universe')} != {want}")
    got = {r["spec"]: r["mates"] for r in report.get("results", ())}
    for spec, mates in workload.mates.items():
        if got.get(spec) != mates:
            problems.append(f"{spec}: {got.get(spec)} mates != {mates}")
    return len(problems), problems
