"""Command-line front end.

Subcommands: ``census`` (bucket counting over a generated or file-backed
universe, with a JSON run manifest on stderr), ``verify`` (exhaustive
checks of the closed-form theorems), ``matrix`` / ``snf`` / ``charpoly``
(per-record computations on graph6 input), and ``enumerate`` (emit
catalogs as graph6 lines).

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 I/O or
parse error (with the offending record identified on stderr).
"""

import argparse
import contextlib
import datetime
import json
import sys
import tempfile
import time

from .census import CensusError, emit_report, parse_spec, run_census
from .exact import char_poly, snf
from .gen import (
    ENUM_MAX_N,
    TREE_MAX_N,
    complete_graph,
    enumerate_connected,
    enumerate_trees,
    graph6_file_stream,
)
from .graphio import (
    Graph6Error,
    _graph6_records,
    _nonzero_padding,
    parse_graph6,
    write_graph6,
)
from .matrices import DisconnectedGraphError, MatrixKind, build_matrix
from .theorems import (
    EXPECTED_D_COSPECTRAL_PAIRS,
    expected_complete_snf,
    expected_tree_distance_snf,
    verify_dq_characterization,
    verify_tree_coinvariance,
    verify_tree_d_cospectral,
)

TREE_CHECKS = ("d-snf", "dl-mates", "dq-mates", "d-cospectral")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snfcensus",
        description="Exact spectral and Smith-normal-form census of graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    cen = sub.add_parser("census", help="count invariant mates over a universe")
    cen.add_argument("--n", type=int, required=True,
                     help="vertex count (validates file input)")
    src = cen.add_mutually_exclusive_group(required=True)
    src.add_argument("--generate", action="store_true",
                     help=f"enumerate connected graphs (n <= {ENUM_MAX_N})")
    src.add_argument("--input", metavar="FILE",
                     help="graph6 file, one record per line ('-' for stdin)")
    cen.add_argument("--spec", action="append", required=True, metavar="SPEC",
                     help='invariant spec such as "A:sp" or "DL:sp,DQ:in"'
                          " (repeatable)")
    cen.add_argument("--format", choices=("tsv", "json"), default="tsv")
    cen.add_argument("--two-pass", action="store_true",
                     help="count key digests first, then recompute exact keys"
                          " only for graphs that share a digest")
    cen.add_argument("--jobs", type=int, default=1)
    cen.add_argument("--manifest", metavar="FILE",
                     help="also write the JSON run manifest to FILE")

    ver = sub.add_parser("verify", help="check closed-form theorems")
    versub = ver.add_subparsers(dest="target", required=True)
    vt = versub.add_parser("trees", help="tree SNF and spectrum sweeps")
    vt.add_argument("--max-n", type=int, default=16)
    vt.add_argument("--checks", default=",".join(TREE_CHECKS),
                    help="comma-separated subset of: " + ", ".join(TREE_CHECKS))
    vc = versub.add_parser("complete", help="complete-graph closed forms")
    vc.add_argument("--max-n", type=int, default=12)
    vq = versub.add_parser("dq-characterization",
                           help="unit-factor dichotomy scan")
    vq.add_argument("--max-n", type=int, default=8)
    vq.add_argument("--input", metavar="FILE", action="append", default=[],
                    help="graph6 catalog of one order, read from its first"
                         " record (repeatable; needed for each order above"
                         f" {ENUM_MAX_N})")

    for name, what in (("matrix", "print the matrix, one row per line"),
                       ("snf", "print the Smith normal form diagonal"),
                       ("charpoly", "print characteristic polynomial"
                                    " coefficients, constant term first")):
        p = sub.add_parser(name, help=what)
        p.add_argument("--kind", required=True,
                       type=MatrixKind.parse, metavar="KIND",
                       help="one of A, L, Q, D, DL, DQ")
        p.add_argument("record",
                       help="a graph6 record, or '-' to read records"
                            " from stdin")

    enu = sub.add_parser("enumerate", help="emit a catalog as graph6 lines")
    enu.add_argument("--n", type=int, required=True)
    what = enu.add_mutually_exclusive_group(required=True)
    what.add_argument("--trees", action="store_true")
    what.add_argument("--connected", action="store_true")

    return parser


@contextlib.contextmanager
def _census_stream(args, parser):
    """The census input; stdin is spooled to a temporary file, removed on
    exit, because a two-pass census reads its stream twice."""
    if args.generate:
        if not 1 <= args.n <= ENUM_MAX_N:
            parser.error(f"--generate supports 1 <= n <= {ENUM_MAX_N}")
        yield enumerate_connected(args.n)
    elif args.input == "-":
        with tempfile.NamedTemporaryFile(suffix=".g6") as spool:
            spool.write(sys.stdin.buffer.read())
            spool.flush()
            yield graph6_file_stream(spool.name, expect_n=args.n,
                                     label="<stdin>")
    else:
        yield graph6_file_stream(args.input, expect_n=args.n)


def _cmd_census(args, parser) -> int:
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    with _census_stream(args, parser) as stream:
        started = time.monotonic()
        report = run_census(stream, args.spec,
                            two_pass=args.two_pass, jobs=args.jobs)
        elapsed = time.monotonic() - started
    sys.stdout.buffer.write(emit_report(report, args.format))
    manifest = {
        "command": "census",
        "n": report.n,
        "universe": report.universe,
        "input": "generated" if args.generate else args.input,
        "specs": [r.spec for r in report.results],
        "mates": {r.spec: r.mates_count for r in report.results},
        "format": args.format,
        "two_pass": args.two_pass,
        "jobs": args.jobs,
        "padding_warnings": stream.padding_warnings,
        "wall_time_s": round(elapsed, 3),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    doc = json.dumps(manifest, sort_keys=True)
    print(doc, file=sys.stderr)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            fh.write(doc + "\n")
    return 0


def _check_line(label: str, ok: bool) -> bool:
    print(f"{'ok' if ok else 'FAIL'}  {label}")
    return ok


def _cmd_verify_trees(args, parser) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    bad = [c for c in checks if c not in TREE_CHECKS]
    if bad or not checks:
        parser.error(f"unknown checks: {', '.join(bad) or '(none given)'}")
    if not 1 <= args.max_n <= TREE_MAX_N:
        parser.error(f"--max-n must be in 1..{TREE_MAX_N}")
    ok = True
    if "d-snf" in checks:
        rep = verify_tree_coinvariance(args.max_n, MatrixKind.D)
        good = rep.ok
        for n in range(2, args.max_n + 1):
            # anchor the single bucket to the actual closed form
            t = next(iter(enumerate_trees(n)))
            good &= snf(build_matrix(t, MatrixKind.D)) \
                == expected_tree_distance_snf(n - 1)
        ok &= _check_line(
            f"d-snf: all trees per order share the closed form"
            f" (n <= {args.max_n})", good)
    for check, kind in (("dl-mates", MatrixKind.DL), ("dq-mates", MatrixKind.DQ)):
        if check in checks:
            rep = verify_tree_coinvariance(args.max_n, kind)
            total = sum(r.mates for r in rep.rows)
            ok &= _check_line(
                f"{check}: {total} trees with a coinvariant mate"
                f" (n <= {args.max_n}, expected 0)", rep.ok)
    if "d-cospectral" in checks:
        for n in range(1, args.max_n + 1):
            pairs = verify_tree_d_cospectral(n)
            want = EXPECTED_D_COSPECTRAL_PAIRS.get(n, 0)
            ok &= _check_line(
                f"d-cospectral: n={n} pairs={pairs} expected={want}",
                pairs == want)
    return 0 if ok else 1


def _cmd_verify_complete(args, parser) -> int:
    if args.max_n < 2:
        parser.error("--max-n must be at least 2")
    ok = True
    for n in range(2, args.max_n + 1):
        g = complete_graph(n)
        good = all(
            snf(build_matrix(g, kind)) == expected_complete_snf(n, kind)
            for kind in (MatrixKind.D, MatrixKind.DL, MatrixKind.DQ))
        ok &= _check_line(f"complete: n={n} D/DL/DQ closed forms", good)
    return 0 if ok else 1


def _cmd_verify_dq(args, parser) -> int:
    files = {}
    for path in args.input:
        stream = graph6_file_stream(path)
        if stream.n in files:
            parser.error(f"--input {files[stream.n].source} and {path}"
                         f" both hold order {stream.n}")
        if not 2 <= stream.n <= args.max_n:
            parser.error(f"--input {path} holds order {stream.n},"
                         f" outside 2..{args.max_n}")
        files[stream.n] = stream
    missing = [n for n in range(ENUM_MAX_N + 1, args.max_n + 1)
               if n not in files]
    if missing:
        parser.error("--input needs a file for each order above"
                     f" {ENUM_MAX_N}; none for {missing}")
    rep = verify_dq_characterization(
        args.max_n,
        source=lambda n: files[n] if n in files else enumerate_connected(n))
    for stream in files.values():
        print(f"{stream.source}: {stream.padding_warnings} records with"
              " nonzero graph6 padding bits", file=sys.stderr)
    ok = True
    for row in rep.rows:
        note = "" if row.asserted else "  (informational)"
        ok &= _check_line(
            f"dq: n={row.n} universe={row.universe}"
            f" kn-bucket={row.kn_bucket_size}"
            f" low-unit={row.low_unit_count}{note}", row.ok)
    ok &= _check_line("dq: bipartite second invariant factors are 1",
                      rep.bipartite_second_factor_ok)
    ok &= _check_line("dq: bipartite coprimality identities",
                      rep.bipartite_gcd_ok)
    return 0 if ok else 1


def _cmd_per_record(args) -> int:
    stdin = args.record == "-"
    first = True
    for recno, record in _graph6_records(
            sys.stdin.buffer if stdin else [args.record.encode()]):
        try:
            g = parse_graph6(record)
            m = build_matrix(g, args.kind)
        except (Graph6Error, DisconnectedGraphError) as exc:
            raise type(exc)(f"record {recno}: {exc}") from None
        if _nonzero_padding(record):
            print(f"warning: record {recno}: nonzero graph6 padding bits",
                  file=sys.stderr)
        if args.command == "matrix":
            if not first:
                print()
            for row in m:
                print(" ".join(str(x) for x in row))
        elif args.command == "snf":
            print(snf(m))
        else:
            print(char_poly(m))
        first = False
    if first and not stdin:
        raise Graph6Error("record 1: empty record")
    return 0


def _cmd_enumerate(args, parser) -> int:
    if args.trees:
        if not 1 <= args.n <= TREE_MAX_N:
            parser.error(f"--trees supports 1 <= n <= {TREE_MAX_N}")
        graphs = enumerate_trees(args.n)
    else:
        if not 1 <= args.n <= ENUM_MAX_N:
            parser.error(f"--connected supports 1 <= n <= {ENUM_MAX_N}")
        graphs = enumerate_connected(args.n)
    out = sys.stdout.buffer
    for g in graphs:
        out.write(write_graph6(g))
        out.write(b"\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "census":
            return _cmd_census(args, parser)
        if args.command == "verify":
            if args.target == "trees":
                return _cmd_verify_trees(args, parser)
            if args.target == "complete":
                return _cmd_verify_complete(args, parser)
            return _cmd_verify_dq(args, parser)
        if args.command in ("matrix", "snf", "charpoly"):
            return _cmd_per_record(args)
        return _cmd_enumerate(args, parser)
    except (Graph6Error, CensusError, DisconnectedGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
