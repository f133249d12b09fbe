"""Census benchmark: whole-universe workloads checked against published counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  The first run builds the graph6 inputs (see prepare.py).  Each
round runs one census of the workload in a fresh process
(census_round.py); rounds repeat until `--seconds` have passed, and every
end-to-end metric is the median over rounds.  Inputs are whole universes,
so `--seed` selects nothing: it is accepted for the calling convention.

With `--trace 1` the run instead makes one traced census at `--jobs 1` and,
at the same time in a second process, the same census untraced, and
reports per-layer counts and self times.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import INPUTS, WORKLOADS, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s", "graphs_per_s": "graphs/s", "cpu_s": "s",
    "peak_rss_mb": "MiB", "setup_s": "s",
}


def _child_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _start_round(workload: Workload, jobs: int, trace: bool):
    """Start census_round.py; returns the process and its start time."""
    input_path = str(HERE / ".cache" / workload.input) if workload.input else "-"
    cmd = [sys.executable, str(HERE / "census_round.py"), workload.name,
           input_path, str(jobs), "1" if trace else "0"]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    return proc, started


def _finish_round(proc, started: float) -> dict:
    try:
        out, _ = proc.communicate(
            timeout=max(0.0, started + ROUND_TIMEOUT_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"census round exceeded {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"census round exited {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _prepare_inputs() -> None:
    if all((HERE / ".cache" / name).exists() for name in INPUTS):
        return
    subprocess.run([sys.executable, str(HERE / "prepare.py")],
                   env=_child_env(), cwd=ROOT, check=True)


def timed_run(workload: Workload, seconds: float) -> tuple[dict, list[dict]]:
    rounds = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        rounds.append(_finish_round(*_start_round(workload, workload.jobs, False)))
    med = {key: statistics.median(r[key] for r in rounds)
           for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    med["graphs_per_s"] = statistics.median(
        r["report"]["universe"] / r["wall_s"] for r in rounds)
    metrics = {name: {"value": med[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, rounds


def _share_cpus(procs) -> None:
    """Wait for the processes to end, swapping two of our CPUs between them
    every quarter second.  Left alone, each keeps the CPU it started on, and
    on a shared host two CPUs can differ in speed by a quarter for as long
    as a census takes."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    deadline = time.monotonic() + ROUND_TIMEOUT_S
    flip = 0
    while any(p.poll() is None for p in procs) and time.monotonic() < deadline:
        if len(cpus) == 2:
            for k, p in enumerate(procs):
                with contextlib.suppress(ProcessLookupError):
                    os.sched_setaffinity(p.pid, {cpus[(k + flip) % 2]})
            flip ^= 1
        time.sleep(0.25)


def traced_run(workload: Workload) -> tuple[dict, list[dict], list[str]]:
    """Traced and untraced census at --jobs 1, side by side, sharing two CPUs.

    Returns the per-layer metrics, both rounds, and every bound that the
    method imposes on the counts and that the trace breaks.
    """
    rounds = [_start_round(workload, 1, trace=False)]
    try:
        rounds.append(_start_round(workload, 1, trace=True))
        _share_cpus([proc for proc, _ in rounds])
        plain, traced = (_finish_round(*r) for r in rounds)
    finally:
        for proc, _ in rounds:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    spans = {name: (calls, ns / 1e9) for name, (calls, ns) in traced["spans"].items()}

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    universe = traced["report"]["universe"]
    values = {
        "gen.catalog_s": (traced["first_graph_s"], "s"),
        "gen.stream.self_s": (self_s("gen.stream"), "s"),
        "census.keys_per_graph": (calls("census.part_key") / universe, "keys/graph"),
        "census.stream_passes": (traced["stream_passes"], "count"),
        "census.self_s": (self_s("census.run_census") + self_s("census.part_key"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
    }
    for name in ("gen.canonical_form", "graphio.parse_graph6",
                 "matrices.distance_matrix", "matrices.build_matrix",
                 "exact.char_poly", "exact.snf", "census.part_key"):
        values[f"{name}.calls"] = (calls(name), "count")
        if name != "census.part_key":
            values[f"{name}.self_s"] = (self_s(name), "s")

    broken = []
    floors = [("exact.char_poly", universe * len(workload.kinds("sp"))),
              ("exact.snf", universe * len(workload.kinds("in")))]
    if workload.input:
        floors.append(("graphio.parse_graph6", universe))
    for name, floor in floors:
        if calls(name) < floor:
            broken.append(f"{name}: {calls(name)} calls, at least {floor} expected")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(values.items())}
    return metrics, [traced, plain], broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "snfcensus" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'snfcensus'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    _prepare_inputs()

    broken = []
    if args.trace:
        metrics, rounds, broken = traced_run(workload)
    else:
        metrics, rounds = timed_run(workload, args.seconds)
    failed = 0
    for r in rounds:
        bad, problems = check(workload, r["report"])
        failed += bad
        for p in problems:
            print(f"failed: {workload.name}: {p}", file=sys.stderr)
    for b in broken:
        print(f"trace bound broken: {b}", file=sys.stderr)

    for name, m in metrics.items():
        print(f"{workload.name}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(json.dumps({
        "correct": not broken,
        "attempted": workload.operations * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
