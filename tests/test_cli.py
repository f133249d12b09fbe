"""End-to-end command-line behaviour: output, exit codes, manifests."""

import io
import json
import sys
import tempfile

import pytest

from snfcensus import census, cli
from snfcensus.cli import main
from snfcensus.gen import enumerate_connected
from snfcensus.graphio import write_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensusCommand:
    def test_generate_table_value(self, capsys):
        code, out, err = run(capsys, "census", "--n", "7",
                             "--generate", "--spec", "D:sp")
        assert code == 0
        assert "\t22\t" in out
        assert out.startswith("n\tuniverse\tspec\tmates\tratio\n")
        manifest = json.loads(err)
        assert manifest["universe"] == 853
        assert manifest["mates"] == {"D:sp": 22}
        assert manifest["input"] == "generated"
        assert "wall_time_s" in manifest and "timestamp" in manifest

    def test_repeatable_spec_and_json(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "5", "--generate",
                           "--spec", "Q:sp", "--spec", "DQ:in",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["spec"] for r in doc["results"]] == ["Q:sp", "DQ:in"]
        assert [r["mates"] for r in doc["results"]] == [2, 2]

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_bytes(b"".join(write_graph6(g) + b"\n"
                               for g in enumerate_connected(5)))
        code, out, _ = run(capsys, "census", "--n", "5", "--input", str(p),
                           "--spec", "A:in")
        assert code == 0
        assert "\t20\t" in out

    def test_two_pass_same_output(self, capsys):
        _, one, _ = run(capsys, "census", "--n", "6", "--generate",
                        "--spec", "L:sp")
        _, two, _ = run(capsys, "census", "--n", "6", "--generate",
                        "--spec", "L:sp", "--two-pass")
        assert one == two

    def test_manifest_records_capped_workers(self, capsys, fake_pool_on_3_cpus):
        made = fake_pool_on_3_cpus
        argv = ("census", "--n", "5", "--generate", "--spec", "A:sp")
        _, serial, err = run(capsys, *argv)
        assert json.loads(err)["workers"] == 1
        code, out, err = run(capsys, *argv, "--jobs", "100000")
        assert code == 0 and out == serial
        manifest = json.loads(err)
        assert manifest["jobs"] == 100000
        assert manifest["workers"] == 3
        assert made == [3]

    def test_manifest_file(self, capsys, tmp_path):
        mf = tmp_path / "run.json"
        code, _, err = run(capsys, "census", "--n", "4", "--generate",
                           "--spec", "D:in", "--manifest", str(mf))
        assert code == 0
        assert json.loads(mf.read_text()) == json.loads(err)

    def test_reruns_byte_identical(self, capsys):
        argv = ("census", "--n", "6", "--generate", "--spec", "Q:sp")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert "0.0892857142857143" in out1

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, "census", "--n", "5",
                           "--input", "/no/such/file.g6", "--spec", "A:sp")
        assert code == 3
        assert "error:" in err

    def test_parse_error_has_record_context(self, capsys, tmp_path):
        p = tmp_path / "bad.g6"
        p.write_bytes(b"Bw\nBw\n!!!\n")
        code, _, err = run(capsys, "census", "--n", "3",
                           "--input", str(p), "--spec", "A:sp")
        assert code == 3
        assert "record 3" in err

    def test_stdin_spool_is_removed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        good = b"".join(write_graph6(g) + b"\n" for g in enumerate_connected(5))
        for data, want in ((good, 0), (good, 0), (b"Dhc\n!!!\n", 3)):
            monkeypatch.setattr(sys, "stdin",
                                io.TextIOWrapper(io.BytesIO(data)))
            code, _, _ = run(capsys, "census", "--n", "5", "--input", "-",
                             "--spec", "A:in", "--two-pass")
            assert code == want
        assert not list(tmp_path.glob("*.g6"))

    @pytest.mark.parametrize("two_pass", [False, True])
    def test_manifest_counts_dirty_padding(self, capsys, tmp_path, two_pass):
        # 'Bx' is K3 with a padding bit set; 'Bg' is a clean P3
        p = tmp_path / "dirty.g6"
        p.write_bytes(b"Bg\nBx\n")
        argv = ["census", "--n", "3", "--input", str(p), "--spec", "A:sp"]
        code, out, err = run(capsys, *argv, *(["--two-pass"] * two_pass))
        assert code == 0 and "\t2\t" in out
        assert json.loads(err)["padding_warnings"] == 1

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(census, "ProcessPoolExecutor", no_pool)
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "5", "--generate", "--spec", "A:sp",
                  "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_generate_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "9", "--generate", "--spec", "A:sp"])
        assert exc.value.code == 2

    def test_bad_spec_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "5", "--generate", "--spec", "A:bogus"])
        assert exc.value.code == 2

    def test_source_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "5", "--spec", "A:sp"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_complete_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "complete", "--max-n", "8")
        assert code == 0
        assert out.count("ok  ") == 7  # one line per order 2..8

    def test_trees_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "trees", "--max-n", "8",
                           "--checks", "d-snf,dl-mates,dq-mates")
        assert code == 0
        assert "d-snf" in out and "dl-mates" in out and "dq-mates" in out

    def test_trees_cospectral(self, capsys):
        code, out, _ = run(capsys, "verify", "trees", "--max-n", "9",
                           "--checks", "d-cospectral")
        assert code == 0
        assert "n=9 pairs=0 expected=0" in out

    def test_dq_characterization(self, capsys):
        code, out, _ = run(capsys, "verify", "dq-characterization",
                           "--max-n", "6")
        assert code == 0
        assert "(informational)" in out
        assert "bipartite" in out

    def test_dq_input_reports_dirty_padding(self, capsys, monkeypatch,
                                            tmp_path):
        # read order 5 from the file; its last data byte has two padding bits
        monkeypatch.setattr(cli, "ENUM_MAX_N", 4)
        recs = [write_graph6(g) for g in enumerate_connected(5)]
        recs[3] = recs[3][:-1] + bytes([recs[3][-1] + 1])
        p = tmp_path / "c5.g6"
        p.write_bytes(b"\n".join(recs) + b"\n")
        code, out, err = run(capsys, "verify", "dq-characterization",
                             "--max-n", "5", "--input", str(p))
        assert code == 0 and "n=5 universe=21" in out
        assert err == f"{p}: 1 records with nonzero graph6 padding bits\n"

    def test_dq_input_bad_first_record_is_named(self, capsys, tmp_path):
        # the first record is read to learn the file's order
        p = tmp_path / "bad.g6"
        p.write_bytes(b"Zbad\n")
        code, _, err = run(capsys, "verify", "dq-characterization",
                           "--max-n", "5", "--input", str(p))
        assert code == 3
        assert err == f"error: {p} record 1: truncated: 3 data bytes, need 59\n"

    @staticmethod
    def _catalog_files(tmp_path, orders):
        paths = []
        for k, n in enumerate(orders):
            p = tmp_path / f"c{n}-{k}.g6"
            p.write_bytes(b"".join(write_graph6(g) + b"\n"
                                   for g in enumerate_connected(n)))
            paths.append(str(p))
        return paths

    def test_dq_input_one_file_per_order(self, capsys, monkeypatch,
                                         tmp_path):
        # each file's order comes from its first record, not its position
        monkeypatch.setattr(cli, "ENUM_MAX_N", 4)
        paths = self._catalog_files(tmp_path, (6, 5))
        code, out, err = run(capsys, "verify", "dq-characterization",
                             "--max-n", "6", "--input", paths[0],
                             "--input", paths[1])
        assert code == 0
        assert "n=5 universe=21" in out and "n=6 universe=112" in out
        assert err == "".join(f"{p}: 0 records with nonzero graph6 padding"
                              " bits\n" for p in paths)

    @pytest.mark.parametrize("orders", [(5,), (5, 6, 5), (5, 6, 7)],
                             ids=["missing", "duplicate", "above-max-n"])
    def test_dq_input_usage_errors(self, monkeypatch, tmp_path, orders):
        monkeypatch.setattr(cli, "ENUM_MAX_N", 4)

        def no_scan(*args, **kwargs):
            raise AssertionError("scan started")

        monkeypatch.setattr(cli, "verify_dq_characterization", no_scan)
        argv = ["verify", "dq-characterization", "--max-n", "6"]
        for p in self._catalog_files(tmp_path, orders):
            argv += ["--input", p]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "trees", "--checks", "nonsense"])
        assert exc.value.code == 2


class TestPerRecordCommands:
    def test_matrix(self, capsys):
        code, out, _ = run(capsys, "matrix", "--kind", "D", "Bg")
        assert code == 0
        assert out == "0 1 2\n1 0 1\n2 1 0\n"

    def test_snf(self, capsys):
        code, out, _ = run(capsys, "snf", "--kind", "DL", "C~")
        assert code == 0
        assert out == "1 4 4 0\n"

    def test_charpoly(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--kind", "A", "C~")
        assert code == 0
        assert out == "-3 -8 -6 0 1\n"

    def test_kind_case_insensitive(self, capsys):
        _, lo, _ = run(capsys, "snf", "--kind", "dq", "C~")
        _, hi, _ = run(capsys, "snf", "--kind", "DQ", "C~")
        assert lo == hi

    def test_disconnected_distance_exits_3(self, capsys):
        code, _, err = run(capsys, "snf", "--kind", "D", "B_")
        assert code == 3
        assert "unreachable" in err

    def test_stdin_header_prefix(self, capsys, monkeypatch):
        # the header may share a line with the first record, as in files
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(b">>graph6<<Bw\nBg\n")))
        code, out, _ = run(capsys, "snf", "--kind", "A", "-")
        assert code == 0
        assert out == "1 1 2\n1 1 0\n"

    def test_argument_read_like_stdin(self, capsys):
        # header prefix as on stdin; an argument with no record is an error
        code, out, _ = run(capsys, "snf", "--kind", "A", ">>graph6<<Bw")
        assert code == 0 and out == "1 1 2\n"
        code, out, err = run(capsys, "snf", "--kind", "A", "")
        assert code == 3 and out == ""
        assert err == "error: record 1: empty record\n"

    @pytest.mark.parametrize("command,want", [
        ("matrix", "0 1 1\n1 0 1\n1 1 0\n"),
        ("snf", "1 1 2\n"),
        ("charpoly", "-2 -3 0 1\n"),
    ])
    def test_dirty_padding_warns(self, capsys, command, want):
        # 'Bx' is K3 with a padding bit set
        code, out, err = run(capsys, command, "--kind", "A", "Bx")
        assert code == 0 and out == want
        assert err == "warning: record 1: nonzero graph6 padding bits\n"

    def test_stdin_dirty_padding_warns_per_record(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(b"Bx\nBw\n")))
        code, out, err = run(capsys, "snf", "--kind", "A", "-")
        assert code == 0
        assert out == "1 1 2\n1 1 2\n"
        assert err == "warning: record 1: nonzero graph6 padding bits\n"

    def test_bad_record_exits_3(self, capsys):
        code, _, err = run(capsys, "charpoly", "--kind", "A", "!!!")
        assert code == 3
        assert "record 1" in err


class TestEnumerateCommand:
    def test_trees_line_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--trees")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_connected_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--connected")
        assert code == 0
        want = {write_graph6(g).decode() for g in enumerate_connected(5)}
        assert set(out.splitlines()) == want

    def test_range_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "21", "--trees"])
        assert exc.value.code == 2
