"""One census of a workload in a fresh process.

    python3 perfbench/census_round.py WORKLOAD INPUT_PATH|- JOBS TRACE

Set-up is the interpreter start, the import of the program and the check of
the input's record count against the independent universe count.  Then the
`snfcensus census` command runs once, through `snfcensus.cli.main`, with its
report captured.  With TRACE = 1 the call runs under `tracer.Tracer`.  The
last line of standard output is one JSON object for run.py.
"""

import contextlib
import io
import json
import resource
import sys
import time

import snfcensus.cli

from prepare import count_records
from reference import WORKLOADS, connected_count


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest
    # worker that has been waited for
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def main(name: str, input_path: str, jobs: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    if input_path != "-":
        got, want = count_records(input_path), connected_count(workload.n)
        if got != want:
            raise SystemExit(f"{input_path}: {got} records, want {want}")
    ready = time.monotonic()
    argv = workload.argv(None if input_path == "-" else input_path, jobs)
    call = snfcensus.cli.main
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        call = tracer.span("cli.main", call)
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = call(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    if status != 0:
        raise SystemExit(f"census exited {status}: {err.getvalue()}")
    out.flush()
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "report": json.loads(out.buffer.getvalue()),
    }
    if trace:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["stream_passes"] = tracer.stream_passes
        result["first_graph_s"] = tracer.first_graph_ns / 1e9
    return result


if __name__ == "__main__":
    name, input_path, jobs, trace = sys.argv[1:]
    print(json.dumps(main(name, input_path, int(jobs), trace == "1")))
