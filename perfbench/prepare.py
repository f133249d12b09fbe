"""Build the benchmark's graph6 inputs with the program's own generator.

    python3 perfbench/prepare.py

writes every missing file of `reference.INPUTS` into perfbench/.cache/
(not committed).  Each file is written under a temporary name, its record
count is checked against the independent universe count, and only then is
it renamed into place, so a killed preparation is never reused.  Delete the
directory to rebuild everything.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from reference import INPUTS, connected_count

CACHE = Path(__file__).resolve().parent / ".cache"


def count_records(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _write_connected(n: int, path: Path) -> None:
    from snfcensus.gen import ENUM_MAX_N, build_connected_catalog, enumerate_connected
    from snfcensus.graphio import write_graph6

    if n > ENUM_MAX_N:
        build_connected_catalog(n, str(path))
        return
    with open(path, "wb") as fh:
        for g in enumerate_connected(n):
            fh.write(write_graph6(g) + b"\n")


def prepare() -> None:
    CACHE.mkdir(exist_ok=True)
    for name, n in sorted(INPUTS.items(), key=lambda item: item[1]):
        path = CACHE / name
        if path.exists():
            continue
        tmp = path.with_name(f".{name}.{os.getpid()}.tmp")
        try:
            _write_connected(n, tmp)
            with open(tmp, "rb") as fh:
                os.fsync(fh.fileno())
            got, want = count_records(tmp), connected_count(n)
            if got != want:
                raise RuntimeError(f"{name}: generator wrote {got} records, want {want}")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        print(f"prepared {path.name}: {want} records", file=sys.stderr)


if __name__ == "__main__":
    prepare()
