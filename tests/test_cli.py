import argparse
import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import permprob
from permprob import MAX_GRID, Family, cli, probability, usage, validation
from permprob.cli import main
from permprob.usage import build_parser

from oracles import parse_artifact


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """Keep output files inside a scratch directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDist:
    def test_csv_reproduces_triangle(self, capsys):
        code, out, _ = run(capsys, "dist", "--family", "C", "--n", "6")
        assert code == 0
        doc = parse_artifact(out)
        assert doc.header == ["n", "m", "count"]
        rows = {(int(r[0]), int(r[1])): int(r[2]) for r in doc.rows}
        assert rows[(6, 0)] == 1
        assert rows[(6, 2)] == 15
        assert rows[(6, 5)] == 264
        assert rows[(6, 6)] == 265
        assert rows[(5, 4)] == 45

    def test_b_triangle_row8(self, capsys):
        code, out, _ = run(capsys, "dist", "--family", "B", "--n", "8")
        assert code == 0
        rows = {(int(r[0]), int(r[1])): int(r[2]) for r in parse_artifact(out).rows}
        assert rows[(8, 7)] == 14833
        assert rows[(8, 8)] == 16687

    def test_a_triangle_single_nonzero_row(self, capsys):
        code, out, _ = run(capsys, "dist", "--family", "A", "--n", "4")
        assert code == 0
        nonzero = [r for r in parse_artifact(out).rows if r[2] != "0"]
        assert nonzero == [["1", "1", "1"], ["2", "2", "2"], ["3", "3", "6"],
                           ["4", "4", "24"]]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "dist", "--family", "C", "--n", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "C"
        assert {"n": 2, "m": 2, "count": 1} in doc["rows"]

    def test_missing_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dist", "--n", "3")
        assert code == 2
        assert "family" in err

    def test_svg_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, "dist", "--family", "C", "--format", "svg")
        assert code == 2

    def test_guard_violation_exit_code(self, capsys):
        code, _, err = run(capsys, "dist", "--family", "C", "--n", "201")
        assert code == 3
        assert "--force" in err

    def test_output_file_and_roundtrip(self, capsys, isolated_cwd):
        out_path = isolated_cwd / "w.csv"
        code, _, _ = run(capsys, "dist", "--family", "C", "--n", "4",
                         "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.endswith("\n") and "\r" not in text
        assert parse_artifact(text).render() == text


class TestExact:
    def test_csv_counts_and_polynomial_comment(self, capsys):
        code, out, _ = run(capsys, "exact", "--family", "A", "--n", "3")
        assert code == 0
        doc = parse_artifact(out)
        assert "78r^3(1-r)^6" in doc.polynomial
        counts = [int(r[1]) for r in doc.rows]
        assert counts == [1, 9, 36, 78, 90, 45, 6, 0, 0, 0]

    def test_c2_counts(self, capsys):
        code, out, _ = run(capsys, "exact", "--family", "C", "--n", "2")
        assert code == 0
        assert [int(r[1]) for r in parse_artifact(out).rows] == [1, 2, 0]

    def test_b1_counts(self, capsys):
        code, out, _ = run(capsys, "exact", "--family", "B", "--n", "1")
        assert code == 0
        doc = parse_artifact(out)
        assert [int(r[1]) for r in doc.rows] == [1, 0]
        assert doc.polynomial == "(1-r)"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "exact", "--family", "B", "--n", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == [1, 6, 13, 10, 2, 0, 0, 0]
        assert doc["variables"] == 7
        assert doc["polynomial"].startswith("(1-r)^7")

    def test_guard_violation(self, capsys):
        assert run(capsys, "exact", "--family", "A", "--n", "17") == (
            3, "", "guard violation: exact n 17 exceeds its ceiling of 16; "
                   "pass --force to accept the runtime\n")

    def test_guard_is_on_n_not_on_k(self, capsys):
        # A at n=16 has K = 256 variable entries and counts in well under a second
        code, out, _ = run(capsys, "exact", "--family", "A", "--n", "16")
        assert code == 0
        assert parse_artifact(out).meta["variables"] == "256"

    def test_unwritable_out_is_an_io_error(self, capsys, isolated_cwd):
        path = isolated_cwd / "missing" / "x.csv"
        code, out, err = run(capsys, "exact", "--family", "C", "--n", "3", "--out", str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("i/o error: ")
        assert not path.parent.exists()


class TestCompare:
    def test_all_families_header(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "2", "--grid", "11")
        assert code == 0
        doc = parse_artifact(out)
        assert doc.header == ["r", "Q_A", "P_A", "Q_B", "P_B", "Q_C", "P_C"]
        assert len(doc.rows) == 11
        # independence is exact at n=2, so the paired columns coincide
        for row in doc.rows:
            assert row[1] == row[2] and row[3] == row[4] and row[5] == row[6]

    def test_family_subset(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "2", "--grid", "5",
                           "--family", "A", "--family", "C")
        assert code == 0
        assert parse_artifact(out).header == ["r", "Q_A", "P_A", "Q_C", "P_C"]

    def test_csv_roundtrip_byte_identical(self, capsys, isolated_cwd):
        out_path = isolated_cwd / "cmp.csv"
        code, _, _ = run(capsys, "compare", "--n", "3", "--grid", "21",
                         "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert parse_artifact(text).render() == text

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "2", "--grid", "3",
                           "--family", "B", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0] == {"r": 0.0, "Q_B": 1.0, "P_B": 1.0}

    def test_svg_deterministic_and_self_contained(self, capsys):
        code, first, _ = run(capsys, "compare", "--n", "2", "--grid", "21",
                             "--format", "svg")
        assert code == 0
        code, second, _ = run(capsys, "compare", "--n", "2", "--grid", "21",
                              "--format", "svg")
        assert first == second
        assert first.startswith("<svg")
        assert first.count("<polyline") == 6
        assert "href" not in first and "url(" not in first
        # legend names every curve
        for label in ("Q (A)", "P (A)", "Q (B)", "P (B)", "Q (C)", "P (C)"):
            assert label in first

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_repeated_family_computed_once(self, capsys, monkeypatch, fmt):
        # the families are a set in the order first named: a repeat changes nothing
        compare_grid = probability.compare_grid
        calls = []

        def counted(family, *args, **kwargs):
            calls.append(family)
            return compare_grid(family, *args, **kwargs)

        monkeypatch.setattr(probability, "compare_grid", counted)
        argv = ["compare", "--n", "3", "--grid", "5", "--format", fmt]
        code, out, _ = run(capsys, *argv, "--family", "C", "--family", "A",
                           "--family", "C")
        assert code == 0
        assert calls == [Family.C, Family.A]
        assert run(capsys, *argv, "--family", "C", "--family", "A") == (0, out, "")
        if fmt == "csv":
            assert out.splitlines()[:2] == ["# permprob compare n=3 grid=5 families=C,A",
                                            "r,Q_C,P_C,Q_A,P_A"]

    def test_bad_grid_usage_error(self, capsys):
        code, _, _ = run(capsys, "compare", "--n", "2", "--grid", "1")
        assert code == 2

    def test_n_guard(self, capsys):
        assert run(capsys, "compare", "--n", "13") == (
            3, "", "guard violation: compare n 13 exceeds its ceiling of 12; "
                   "pass --force to accept the runtime\n")

    def test_grid_guard(self, capsys):
        code, _, err = run(capsys, "compare", "--n", "2", "--grid", str(MAX_GRID + 1))
        assert code == 3
        assert "grid point count" in err
        code, out, _ = run(capsys, "compare", "--n", "2", "--family", "C",
                           "--grid", str(MAX_GRID + 1), "--force")
        assert code == 0
        assert len(parse_artifact(out).rows) == MAX_GRID + 1

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_thirteen_flags_name_one_family(self, capsys, fmt):
        # no count of --family flags is refused: thirteen name one family
        argv = ["compare", "--n", "2", "--grid", "3", "--format", fmt]
        code, out, err = run(capsys, *argv, *["--family", "A"] * 13)
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--family", "A") == (0, out, "")
        if fmt == "csv":
            assert parse_artifact(out).header == ["r", "Q_A", "P_A"]
        else:
            assert out.count("<polyline") == 2


class TestValidate:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--n", "5")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_artifact_verification_and_tampering(self, capsys, isolated_cwd):
        path = isolated_cwd / "dist.csv"
        assert run(capsys, "dist", "--family", "C", "--n", "4",
                   "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "validate", "--n", "2", str(path))
        assert code == 0
        assert f"artifact:{path}" in out

        tampered = path.read_text().replace("3,3,2", "3,3,7")
        path.write_text(tampered)
        code, out, _ = run(capsys, "validate", "--n", "2", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_exact_artifact_verification(self, capsys, isolated_cwd):
        path = isolated_cwd / "exact.csv"
        assert run(capsys, "exact", "--family", "B", "--n", "3",
                   "--out", str(path))[0] == 0
        assert run(capsys, "validate", "--n", "2", str(path))[0] == 0

    def test_artifact_of_comment_lines_only_is_a_failed_check(self, capsys, isolated_cwd):
        path = isolated_cwd / "comments.csv"
        path.write_text("# permprob dist family=C n=2\n")
        code, out, err = run(capsys, "validate", "--n", "2", str(path))
        # test_validation's TestCsvDoc::test_parse_requires_header pins the detail
        assert (code, err) == (1, "")
        assert f"\nFAIL  artifact:{path}  (" in out
        assert out.endswith("12/13 checks passed\n")

    def test_artifact_beyond_guard_is_a_failed_check(self, capsys, isolated_cwd):
        path = isolated_cwd / "big.csv"
        path.write_text("# permprob compare n=2 grid=5000000 families=A\nr,Q_A,P_A\n")
        code, out, _ = run(capsys, "validate", "--n", "2", str(path))
        assert code == 1
        assert (f"FAIL  artifact:{path}  (guard violation: compare grid point count "
                "5000000 exceeds its ceiling of 20001, which no --force lifts)") in out

    def test_forced_header_past_its_ceiling_is_a_failed_check(self, isolated_cwd):
        # A fresh interpreter under a timeout, so that unbounded work fails the
        # test instead of hanging the suite.
        path = isolated_cwd / "big20.csv"
        path.write_text("# permprob dist family=C n=99999999999999999999\nn,m,count\n")
        argv = ["validate", "--n", "2", str(path)]
        start = time.perf_counter()
        proc = run_fresh(f"import sys, permprob.cli as cli; sys.exit(cli.main({argv!r}))",
                         timeout=20)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 1
        assert (f"FAIL  artifact:{path}  (guard violation: dist n "
                "99999999999999999999 exceeds its ceiling of 200, which no --force "
                "lifts)") in proc.stdout

    def test_n_past_walk_ceiling_is_usage_error(self, capsys, monkeypatch):
        def no_walk(iterable, r=None):
            raise AssertionError("the walk started")

        monkeypatch.setattr(validation, "itertools", SimpleNamespace(permutations=no_walk))
        assert run(capsys, "validate", "--n", "13") == (
            3, "", "guard violation: dimension for factorial-time enumeration 13 "
                   "exceeds its ceiling of 12, which no --force lifts\n")
        code, out, err = run(capsys, "validate", "--n", "128", "--force")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --force\n")

    def test_walk_to_n11_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--n", "11")
        assert (code, err) == (0, "")
        assert "PASS  e-table-vs-bruteforce  (all families, n<=11)" in out.splitlines()

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_dist_artifact_dimension_below_one_fails(self, capsys, isolated_cwd, n):
        path = isolated_cwd / "dist.csv"
        path.write_text(f"# permprob dist family=C n={n}\nn,m,count\n")
        code, out, _ = run(capsys, "validate", "--n", "2", str(path))
        assert code == 1
        assert (f"FAIL  artifact:{path}  "
                f"(malformed artifact: dimension must be >= 1, got {n})") in out

    @pytest.mark.parametrize("header", [
        "# permprob dist family=C n=" + "9" * 5000,
        "# permprob compare n=2 grid=" + "9" * 5000 + " families=C",
    ], ids=["dist-n", "compare-grid"])
    def test_artifact_integer_of_5000_digits_fails(self, capsys, isolated_cwd, header):
        path = isolated_cwd / "huge.csv"
        path.write_text(header + "\nn,m,count\n")
        code, out, err = run(capsys, "validate", "--n", "2", str(path))
        assert (code, err) == (1, "")
        assert (f"FAIL  artifact:{path}  (malformed artifact: an integer may have "
                "at most 20 characters, got 5000)") in out

    def test_endless_artifact_is_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(validation, "MAX_ARTIFACT_CHARS", 1024)
        code, out, err = run(capsys, "validate", "--n", "2", "/dev/zero")
        assert (code, err) == (1, "")
        assert ("FAIL  artifact:/dev/zero  (guard violation: artifact longer than its "
                "ceiling of 1024 characters, which no --force lifts)") in out

    def test_undecodable_artifact_is_a_failed_check(self, capsys, isolated_cwd):
        path = isolated_cwd / "bad.csv"
        path.write_bytes(b"\xff\xfe# permprob dist family=C n=2\n")
        code, out, err = run(capsys, "validate", "--n", "2", str(path))
        assert code == 1
        assert f"FAIL  artifact:{path}  (cannot read: " in out
        assert "Traceback" not in err

    def test_oeis_settings_are_not_read(self, capsys, monkeypatch):
        # the lookups are seq's: validate reads no oeis variable
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", "abc")
        code, out, err = run(capsys, "validate", "--n", "3")
        assert (code, err) == (0, "")
        assert "OEIS" not in out


class TestSeq:
    def test_offline_report(self, capsys):
        code, out, _ = run(capsys, "seq")
        assert code == 0
        assert "A000166" in out and "A000255" in out
        assert "FAIL" not in out

    def test_oeis_flag_with_unreachable_endpoint(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMPROB_OEIS_URL", "http://127.0.0.1:9")
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", "0.5")
        code, out, _ = run(capsys, "seq", "--oeis")
        assert code == 0
        assert "skipped" in out


# Each line set here once changed a run's output or made it a usage error,
# when cli still read a permprob.conf; now none is read, so none may.
_IGNORED_CONFIGS = [
    pytest.param("family=C\nn=2\n", ("dist",), id="family-and-n"),
    pytest.param("family=C\nn=6\n", ("dist", "--family", "C", "--n", "1"),
                 id="flags-beside-keys"),
    pytest.param("family=Z\n", ("dist",), id="bad-family"),
    pytest.param("format=json\n", ("validate", "--n", "2"), id="format-validate"),
    pytest.param("format=json\n", ("seq",), id="format-seq"),
    pytest.param("format=svg\n", ("dist", "--family", "C", "--n", "2"), id="format-svg"),
    pytest.param("format=\n", ("exact", "--family", "C", "--n", "2"), id="format-empty"),
    pytest.param("grid=1\n", ("dist", "--family", "C", "--n", "2"), id="grid1-dist"),
    pytest.param("grid=1\n", ("compare", "--n", "2"), id="grid1-compare"),
    pytest.param("grid=+" + "0" * 20 + "\n", ("compare", "--n", "2"), id="grid-21-chars"),
    pytest.param("n=abc\n", ("exact", "--family", "C"), id="n-abc"),
    pytest.param("n=" + "9" * 5000 + "\n", ("exact", "--family", "C"), id="n-5000-digits"),
    pytest.param("n=" + "0" * 19 + "2\n", ("exact", "--family", "C"), id="n-max-length"),
    pytest.param("force=yes\nout=x.csv\n", ("dist", "--family", "C", "--n", "2"),
                 id="force-and-out"),
    pytest.param("oeis=yes\n", ("seq",), id="oeis"),
    *(pytest.param(f"oeis_timeout={value}\n", ("seq",), id=f"oeis-timeout-{value}")
      for value in ["abc", "0", "-1", "nan", "inf", "2.5"]),
    pytest.param(b"\xff\xfefamily=C\n", ("seq",), id="not-utf8-seq"),
    pytest.param(b"\xff\xfefamily=C\n", ("exact", "--family", "C", "--n", "2"),
                 id="not-utf8-exact"),
    pytest.param(None, ("dist", "--family", "C", "--n", "2"), id="directory"),
]


def _write_config(path, content):
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


class TestConfigFile:
    """A ``permprob.conf`` in the working directory, or the path that
    ``PERMPROB_CONFIG`` names, leaves every run as its argv alone makes it."""

    @pytest.fixture(autouse=True)
    def offline(self, monkeypatch):
        # a key that switched the lookups on would reach no host
        monkeypatch.setenv("PERMPROB_OEIS_URL", "http://127.0.0.1:9")
        monkeypatch.delenv("PERMPROB_OEIS_TIMEOUT", raising=False)

    def test_defaults_need_no_config(self, capsys):
        code, _, _ = run(capsys, "compare", "--n", "2", "--grid", "3")
        assert code == 0

    @pytest.mark.parametrize("content, argv", _IGNORED_CONFIGS)
    def test_config_file_is_not_read(self, capsys, isolated_cwd, content, argv):
        bare = run(capsys, *argv)
        _write_config(isolated_cwd / "permprob.conf", content)
        assert run(capsys, *argv) == bare
        assert not (isolated_cwd / "x.csv").exists()

    @pytest.mark.parametrize("content", [
        "family=B\nn=1\n", b"\xff\xfefamily=C\n", None, "/dev/null", "missing",
    ], ids=["keys", "not-utf8", "directory", "empty-device", "missing-file"])
    def test_config_variable_is_not_read(self, capsys, isolated_cwd, monkeypatch, content):
        if content in ("/dev/null", "missing"):
            path = content if content == "/dev/null" else isolated_cwd / content
        else:
            path = isolated_cwd / "alt.conf"
            _write_config(path, content)
        argv = ("exact", "--family", "C", "--n", "2")
        bare = run(capsys, *argv)
        assert bare[0] == 0
        monkeypatch.setenv("PERMPROB_CONFIG", str(path))
        assert run(capsys, *argv) == bare
        assert run(capsys, "dist")[0] == 2

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=st.sampled_from([
        ("dist", "--family", "B", "--n", "3"), ("exact", "--family", "A", "--n", "2"),
        ("compare", "--n", "2", "--grid", "3"), ("seq",), ("validate", "--n", "2"),
    ]), content=st.one_of(
        st.binary(max_size=64),
        st.lists(st.tuples(
            st.sampled_from(["family", "n", "grid", "format", "force", "out", "oeis",
                             "oeis_url", "oeis_timeout", ""]),
            st.text(max_size=12),
        ).map("=".join), max_size=6).map("\n".join),
    ))
    def test_any_config_text_leaves_output_unchanged(self, capsys, isolated_cwd, argv,
                                                     content):
        conf = isolated_cwd / "permprob.conf"
        conf.unlink(missing_ok=True)
        bare = run(capsys, *argv)
        _write_config(conf, content)
        assert run(capsys, *argv) == bare
        event(f"exit {bare[0]}")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_family_value(self, capsys):
        assert run(capsys, "dist", "--family", "D")[0] == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [("seq",), ("seq", "--oeis")])
    def test_bad_env_oeis_timeout(self, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("PERMPROB_OEIS_URL", "http://127.0.0.1:9")
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "PERMPROB_OEIS_TIMEOUT" in err

    def test_config_oeis_timeout_does_not_mask_env(self, capsys, isolated_cwd,
                                                   monkeypatch):
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", "abc")
        (isolated_cwd / "permprob.conf").write_text("oeis_timeout=2.5\n")
        code, out, err = run(capsys, "seq")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "PERMPROB_OEIS_TIMEOUT" in err

    @pytest.mark.parametrize("argv", [
        ("seq", "--n", "5"),
        ("seq", "--force"),
        ("validate", "--grid", "3"),
        ("validate", "--out", "x"),
        ("validate", "--family", "C"),
        ("exact", "--family", "C", "--grid", "5"),
        ("dist", "--family", "C", "--oeis"),
        ("compare", "--oeis"),
        ("validate", "--force"),
        ("validate", "--oeis"),
    ])
    def test_flag_a_subcommand_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_flag_count(self):
        flags = {name: sorted(f"--{option}" for option in spec.options)
                 for name, spec in cli._SUBCOMMANDS.items()}
        assert flags == {
            "dist": ["--family", "--force", "--format", "--n", "--out"],
            "compare": ["--family", "--force", "--format", "--grid", "--n", "--out"],
            "exact": ["--family", "--force", "--format", "--n", "--out"],
            "validate": ["--n"],
            "seq": ["--oeis"],
        }
        assert sum(map(len, flags.values())) == 18
        assert set(cli._FLAGS) == set().union(*(spec.options
                                                for spec in cli._SUBCOMMANDS.values()))


def _argparse_reads(*argv):
    """What this Python's argparse makes of ``argv`` on a parser of the flags
    ``--format {csv,json}``, ``--force`` and ``--x``: the values it reads, or
    its exit code and the last line it prints."""
    probe = argparse.ArgumentParser()
    probe.add_argument("--format", choices=["csv", "json"])
    probe.add_argument("--force", action="store_true")
    probe.add_argument("--x")
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            return probe.parse_args(argv)
        except SystemExit as exc:
            return exc.code, (out.getvalue() + err.getvalue()).splitlines()[-1]


# argparse releases differ in three readings that the pinned usage errors
# show.  The release number does not tell them apart (3.12.1 and 3.12.10
# differ in all three), so the parser is asked.  An older argparse strips --
# from an explicit argument, reading --x=-- as [], which usage.parse refuses;
# it quotes the choices it lists; and it reports an ambiguous --fo=x before
# it prints the help that an earlier -h asks for.
_STRIPS_DASHES = _argparse_reads("--x=--").x == []
_QUOTES_CHOICES = "'csv'" in _argparse_reads("--format", "svg")[1]
_HELP_FIRST = _argparse_reads("-h", "--fo=x")[0] == 0
_N_EQUALS_DASHES = ("argument --n: expected one argument" if _STRIPS_DASHES
                    else "argument --n: invalid int value: '--'")


def _choose_from(*choices: str) -> str:
    return ", ".join(map(repr if _QUOTES_CHOICES else str, choices))


class TestHelpAndUsageErrors:
    def test_top_level_help_names_every_subcommand(self, capsys):
        for flag in ("-h", "--help", "--he"):
            code, out, err = run(capsys, flag)
            assert (code, err) == (0, "")
            assert out.startswith("usage: permprob [-h] {dist,compare,exact,validate,seq} ...")
            for name, spec in cli._SUBCOMMANDS.items():
                assert f"  {name}  " in out and spec.help in out

    @pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
    def test_subcommand_help_names_every_flag(self, capsys, name):
        for argv in ((name, "-h"), (name, "--help"), (name, "--h"), (name, "--n", "3", "-h")):
            if "--n" in argv and "n" not in cli._SUBCOMMANDS[name].options:
                continue
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: permprob {name} [-h]")
            assert cli._SUBCOMMANDS[name].help in out
            for option in cli._SUBCOMMANDS[name].options:
                assert f"--{option}" in out.splitlines()[0]
                assert f"  --{option}" in out and cli._FLAGS[option][1] in out

    def test_validate_n_help_names_the_walk(self, capsys):
        # validate's --n bounds the S_n walk; the artifact commands' --n is the dimension
        helps = {name: run(capsys, name, "-h")[1].splitlines()
                 for name in ("validate", "dist", "exact", "compare")}
        assert ("  --n N       largest matrix dimension whose S_n is walked "
                "(default: 8, at most 12)") in helps.pop("validate")
        # the help writes the walk's limit out
        assert validation.BRUTEFORCE_MAX_N == 12
        for name, lines in helps.items():
            assert [line.split(None, 2) for line in lines if line.startswith("  --n ")] == [
                ["--n", "N", "matrix dimension"]], name

    @pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
    def test_help_is_the_argparse_help_of_the_same_table(self, capsys, name):
        # the usage line is never wrapped, however long it is
        usage = {
            "dist": "[-h] [--family {A,B,C}] [--n N] [--format {csv,json}] [--out OUT] [--force]",
            "compare": "[-h] [--family {A,B,C}] [--n N] [--format {csv,json,svg}] [--out OUT] "
                       "[--force] [--grid GRID]",
            "exact": "[-h] [--family {A,B,C}] [--n N] [--format {csv,json}] [--out OUT] [--force]",
            "validate": "[-h] [--n N] [paths ...]",
            "seq": "[-h] [--oeis]",
        }[name]
        code, out, err = run(capsys, name, "-h")
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == [f"usage: permprob {name} {usage}", "",
                                        cli._SUBCOMMANDS[name].help]

    @pytest.mark.parametrize("argv, prog, message", [
        ((), "permprob", "the following arguments are required: command"),
        (("bogus",), "permprob", "argument command: invalid choice: 'bogus' (choose from "
         f"{_choose_from('dist', 'compare', 'exact', 'validate', 'seq')})"),
        (("exact", "--n", "x"), "permprob exact", "argument --n: invalid int value: 'x'"),
        (("exact", "--family", "D"), "permprob exact",
         f"argument --family: invalid choice: 'D' (choose from {_choose_from('A', 'B', 'C')})"),
        (("exact", "--f", "C"), "permprob exact",
         "ambiguous option: --f could match --family, --format, --force"),
        (("exact", "--force=1"), "permprob exact",
         "argument --force: ignored explicit argument '1'"),
        (("dist", "--format", "svg"), "permprob dist",
         f"argument --format: invalid choice: 'svg' (choose from {_choose_from('csv', 'json')})"),
        (("validate", "--out", "x"), "permprob validate", "unrecognized arguments: --out"),
        (("exact", "--n"), "permprob exact", "argument --n: expected one argument"),
        (("exact", "--n=--"), "permprob exact", _N_EQUALS_DASHES),
        (("exact", "--out", "--force"), "permprob exact", "argument --out: expected one argument"),
        (("validate", "--n", "--", "x"), "permprob validate",
         "argument --n: expected one argument"),
        (("validate", "-1."), "permprob validate", "unrecognized arguments: -1."),
        (("exact", "-h", "--fo=x"), "permprob exact",
         None if _HELP_FIRST else "ambiguous option: --fo=x could match --format, --force"),
        (("exact", "--n", "x", "-h"), "permprob exact", "argument --n: invalid int value: 'x'"),
        (("seq", "x", "--", "y"), "permprob seq", "unrecognized arguments: x -- y"),
        (("validate", "a", "--n", "2", "b"), "permprob validate", "unrecognized arguments: b"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_usage_line_then_error_line(self, capsys, argv, prog, message):
        code, out, err = run(capsys, *argv)
        if message is None:  # this argparse prints the help before it sees the error
            assert (code, err) == (0, "") and out.startswith(f"usage: {prog} [-h] ")
            return
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: {prog} [-h] ")
        assert error == f"{prog}: error: {message}"

    def test_out_equals_dashes_off_the_fast_path(self, capsys, isolated_cwd):
        # argparse reads a line with a flag prefix, so its Python decides what --out=-- is
        code, out, err = run(capsys, "exact", "--fam", "C", "--n", "2", "--out=--")
        if _STRIPS_DASHES:
            assert (code, out) == (2, "")
            assert err.splitlines()[1] == ("permprob exact: error: "
                                           "argument --out: expected one argument")
            assert not (isolated_cwd / "--").exists()
        else:
            assert (code, out, err) == (0, "P(r) = (1-r)^2+2r(1-r)\n", "")
            assert (isolated_cwd / "--").read_text().startswith("# permprob exact family=C n=2 ")

    def test_out_equals_dashes_is_the_path_dashes(self, capsys, isolated_cwd):
        # the fast path reads --out=--, so every Python writes the same file
        code, out, err = run(capsys, "exact", "--family", "C", "--n", "2", "--out=--")
        assert (code, out, err) == (0, "P(r) = (1-r)^2+2r(1-r)\n", "")
        assert (isolated_cwd / "--").read_text().startswith("# permprob exact family=C n=2 ")

    def test_double_dash_makes_a_dash_path_positional(self, capsys, isolated_cwd):
        code, out, err = run(capsys, "validate", "--n", "2", "--", "-odd.csv")
        assert (code, err) == (1, "")
        assert "FAIL  artifact:-odd.csv  (cannot read: " in out
        assert out.endswith("12/13 checks passed\n")

    @pytest.mark.parametrize("argv, values", [
        (("exact", "--fam=C", "--n=-3", "--form", "json", "--out", "-"),
         {"family": ["C"], "n": -3, "format": "json", "out": "-", "force": None}),
        (("compare", "--family", "A", "--fa", "C", "--grid", "+5", "--forc"),
         {"family": ["A", "C"], "grid": 5, "force": True}),
        (("validate", "--n", "2", "-5", "-.5", "--", "--force"),
         {"paths": ["-5", "-.5", "--force"], "n": 2}),
    ])
    def test_flag_forms(self, argv, values):
        spec, args = cli._parse(list(argv))
        assert spec is cli._SUBCOMMANDS[argv[0]]
        assert {key: getattr(args, key) for key in values} == values


# Tokens for argv drawn against the argparse oracle: every flag, prefixes of
# flags (unique and ambiguous), values good and bad, negative numbers, -h,
# -- and stray positionals.  No token holds a space, and no --opt= is
# followed by --: argparse reads those differently from one version to the
# next.
_FLAG_WORDS = sorted({f"--{flag}"[:cut] for flag in [*cli._FLAGS, "help"]
                      for cut in range(3, len(flag) + 3)})
_VALUES = ["A", "B", "C", "D", "a", "csv", "json", "svg", "xml", "0", "3", "-3", "+4",
           "12", "-0", "x", "1.5", "-1.5", "-.5", "-1.", "", "٣", "9" * 30, "out.csv"]
_TOKENS = st.one_of(
    st.sampled_from(_FLAG_WORDS),
    st.sampled_from(_VALUES),
    st.builds("{}={}".format, st.sampled_from(_FLAG_WORDS + ["--", "--bogus"]),
              st.sampled_from(_VALUES)),
    st.sampled_from(["-h", "--", "-", "-x", "--bogus", "a.csv"] + list(cli._SUBCOMMANDS)),
)
# a flag with a value it takes, so that more examples parse
_GOOD_VALUES = {"family": ["A", "C"], "format": ["csv", "json"], "n": ["3", "-3"],
                "grid": ["5", "0"], "out": ["o.csv", "-"]}
_GOOD_PAIRS = st.sampled_from(sorted(_GOOD_VALUES)).flatmap(
    lambda flag: st.sampled_from(_GOOD_VALUES[flag]).map(lambda v: [f"--{flag}", v]))
_GROUPS = st.one_of(_GOOD_PAIRS, _GOOD_PAIRS, st.sampled_from([["--force"], ["--oeis"]]),
                    _TOKENS.map(lambda token: [token]))


def _whole(flag):
    """A whole flag in either form, with a value it takes, or a switch given a value."""
    if flag not in _GOOD_VALUES:
        return st.sampled_from([[f"--{flag}"], [f"--{flag}=1"]])
    return st.sampled_from(_GOOD_VALUES[flag]).flatmap(
        lambda value: st.sampled_from([[f"--{flag}", value], [f"--{flag}={value}"]]))


# the subcommand's own flags and paths: the lines the fast path may read
_WHOLE_LINES = st.sampled_from(list(cli._SUBCOMMANDS)).flatmap(lambda name: st.lists(
    st.one_of(st.sampled_from(cli._SUBCOMMANDS[name].options).flatmap(_whole),
              st.just(["a.csv"])), max_size=4).map(
    lambda groups: [name, *itertools.chain(*groups)]))
_ARGV = st.one_of(
    st.builds(lambda name, groups: [name, *itertools.chain(*groups)],
              st.sampled_from(list(cli._SUBCOMMANDS)), st.lists(_GROUPS, max_size=5)),
    _WHOLE_LINES,
    st.lists(st.sampled_from(["-h", "--help", "--he", "bogus", "x", *cli._SUBCOMMANDS]),
             max_size=2),
)


def _outcome(parse, argv):
    """(exit code, subcommand and option values) of one parse; values are None
    unless the parse went through."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            name, args = parse(argv)
        except SystemExit as exc:
            return exc.code, None
    spec = cli._SUBCOMMANDS[name]
    values = {option: getattr(args, option) for option in spec.options}
    if spec.paths:
        values["paths"] = args.paths
    return 0, (name, values)


def _parse_new(argv):
    _, args = cli._parse(argv)
    return argv[0], args


def _parse_oracle(argv):
    args = build_parser().parse_args(argv)
    return args.command, args


class TestParserMatchesArgparse:
    @settings(max_examples=300, deadline=None)
    @given(argv=_ARGV)
    def test_same_exit_code_and_values(self, argv):
        # a line the fast path declines goes to usage.parse, which reads it
        # with the oracle's own parser; the line the fast path reads is the test
        with mock.patch.object(usage, "parse", wraps=usage.parse) as fallback:
            outcome = _outcome(_parse_new, argv)
        expected = _outcome(_parse_oracle, argv)
        assert outcome == expected
        event(("argparse" if fallback.called else "fast path") + f", exit {expected[0]}")

    @pytest.mark.parametrize("argv", [
        ("dist", "--family", "C", "--n", "30"),
        ("dist", "--family", "C", "--n", "30", "--format", "json"),
        ("dist", "--family", "C", "--n", "30", "--out", "f"),
        ("exact", "--family", "A", "--n", "5"),
        ("exact", "--family", "A", "--n", "5", "--out", "f"),
        ("compare", "--n", "5"),
        ("compare", "--n", "5", "--format", "svg"),
        ("compare", "--n", "5", "--out", "f"),
        ("seq",),
        ("validate", "--n", "9", "a.csv", "b.csv", "c.csv"),
    ], ids=" ".join)
    def test_workload_line_takes_the_fast_path(self, monkeypatch, argv):
        # each shape of the benchmark workloads' command lines
        expected = _outcome(_parse_oracle, list(argv))
        assert expected[0] == 0
        monkeypatch.setitem(sys.modules, "permprob.usage", None)  # any import fails
        assert _outcome(_parse_new, list(argv)) == expected


class TestPinnedOptions:
    """Exit code, stdout and the full stderr line of each option error path."""

    @pytest.mark.parametrize("env, argv, message", [
        (None, ("dist", "--n", "3"), "dist needs exactly one --family (A, B, or C)"),
        (None, ("compare", "--n", "0"), "n must be >= 1, got 0"),
        (None, ("compare", "--grid", "1"), "grid must be >= 2, got 1"),
        ("inf", ("seq", "--oeis"),
         "PERMPROB_OEIS_TIMEOUT must be a positive number of seconds, got inf"),
    ], ids=["dist-no-family", "compare-n0", "compare-grid1", "env-timeout-inf"])
    def test_error_line(self, capsys, monkeypatch, env, argv, message):
        if env is not None:
            monkeypatch.setenv("PERMPROB_OEIS_URL", "http://127.0.0.1:9")
            monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", env)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, digest", [
        ("dist", "ba35d229beb309882799a8775ae10d1bd15acc9ff739068bf575f86c93f6d296"),
        ("exact", "1672622fbaa37aa1e75996c9ef9701676c1b4522c4f3d70bc9941f64edd45266"),
        ("compare", "fa91688434b53c7e939b754b6b87d9c76e5d4f222567d447e46d3846df852b6f"),
    ])
    @pytest.mark.parametrize("via_env", [False, True])
    def test_config_file_leaves_output_unchanged(self, capsys, isolated_cwd, monkeypatch,
                                                 command, digest, via_env):
        # No permprob.conf is read, in the working directory or from
        # PERMPROB_CONFIG: each of its keys would change the bare command's
        # output, which is a usage error for dist and exact.
        bare = run(capsys, command)
        conf = isolated_cwd / ("alt.conf" if via_env else "permprob.conf")
        conf.write_text("family=A\nn=4\nformat=svg\ngrid=3\nforce=yes\n")
        if via_env:
            monkeypatch.setenv("PERMPROB_CONFIG", str(conf))
        assert run(capsys, command) == bare
        flags = ["--family", "C", "--n", "2", "--format", "json", "--force"]
        if command == "compare":
            flags += ["--grid", "7"]
        code, out, err = run(capsys, command, *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_SEQ_LINES = [
    "PASS  A000166  W_n(n)    n=1..12",
    "PASS  A000217  W_n(2)    n=2..12",
    "PASS  A007290  W_n(3)    n=3..12",
    "PASS  A060008  W_n(4)    n=4..12",
    "PASS  A060836  W_n(5)    n=5..12",
    "PASS  A000255  V_n(n)    n=1..12",
    "PASS  A045943  V_n(3)    n=3..12",
]
_VALIDATE_LINES = [
    "PASS  w-triangle-reference  (n=1..6)",
    "PASS  v-triangle-reference  (n=1..8)",
    "PASS  w-closed-vs-recurrence-vs-cycles  (n<=12)",
    "PASS  v-closed-vs-identity  (n<=12)",
    "PASS  e-table-vs-bruteforce  (all families, n<=3)",
    "PASS  term-count-totals  (n<=12)",
    "PASS  w-diagonal-vs-permanent  (n<=12)",
    "PASS  v-diagonal-vs-permanent  (n<=12)",
    "PASS  exact-counts-n3-reference  (A/B/C, all methods)",
    "PASS  n2-exactness  (max |Q-P| = 1.11e-16)",
    "PASS  probability-endpoints-n3",
    "PASS  sequence-references  (7 slices)",
]
_SKIPPED = ("lookup skipped (fetch failed: <urlopen error [Errno 111] Connection refused>)"
            " at <stamp>")
_OEIS_LINES = [
    f"OEIS  {oeis_id} [{slice_name}] {_SKIPPED}"
    for oeis_id, slice_name in (
        ("A000166", "W_n(n)"), ("A000217", "W_n(2)"), ("A007290", "W_n(3)"),
        ("A060008", "W_n(4)"), ("A060836", "W_n(5)"), ("A000255", "V_n(n)"),
        ("A045943", "V_n(3)"),
    )
] + [f"OEIS  V_n(4) column {_SKIPPED}"]


class TestPinnedReports:
    """The full stdout of ``seq``, with and without ``--oeis``, and of ``validate --n 3``.

    The lookups go to a closed loopback port, so each is skipped; the UTC
    stamp of an OEIS line is masked.
    """

    @pytest.mark.parametrize("oeis, argv, lines, summary", [
        (False, ("seq",), _SEQ_LINES, "7/7 sequence checks passed"),
        (False, ("validate", "--n", "3"), _VALIDATE_LINES, "12/12 checks passed"),
        (True, ("seq",), _SEQ_LINES, "7/7 sequence checks passed"),
    ], ids=["offline-seq", "offline-validate", "oeis-seq"])
    def test_stdout(self, capsys, monkeypatch, argv, lines, summary, oeis):
        monkeypatch.setenv("PERMPROB_OEIS_URL", "http://127.0.0.1:9")
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", "0.5")
        code, out, err = run(capsys, *argv, *(["--oeis"] if oeis else []))
        assert (code, err) == (0, "")
        out = re.sub(r" at \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00$", " at <stamp>", out,
                     flags=re.MULTILINE)
        assert out.splitlines() == lines + (_OEIS_LINES if oeis else []) + [summary]


def run_fresh(script, *options, timeout=120, cwd=None, env=None):
    """Run ``script`` in a fresh interpreter that imports permprob from this tree.

    ``options`` go to the interpreter, before ``-c``; ``env`` adds variables.
    """
    src = os.path.dirname(os.path.dirname(permprob.__file__))
    env = dict(os.environ, PYTHONPATH=src, **(env or {}))
    return subprocess.run([sys.executable, *options, "-c", script], capture_output=True,
                          text=True, env=env, timeout=timeout, cwd=cwd)


# Standard-library modules that no command loads, but for a row's exceptions.
_UNLOADED = ("argparse", "gettext", "locale", "typing", "re", "__future__", "dataclasses",
             "inspect", "json", "requests", "urllib.request", "http.client", "ssl",
             "importlib.resources", "zipfile")
_JSON = "json re"
_ARGPARSE = "argparse gettext locale re"
_DIST = "output termdist"
_EXACT = "output probability termdist"

# One row per command line: its exit code, the permprob modules it loads
# besides permprob, cli, families and guards, the syntax-tree nodes that all
# its permprob modules hold at most, and the modules of _UNLOADED it may load.
# Without bytecode a command compiles every module it loads, at about 2.4 us
# per syntax-tree node on two cores.  The help, the usage errors and a flag
# prefix are read by argparse in usage.
_LOADS = [
    pytest.param(("dist", "--family", "C", "--n", "5"), 0, _DIST, 3404, "", id="dist"),
    pytest.param(("dist", "--family", "C", "--n", "5", "--format", "json"), 0, _DIST, 3404,
                 _JSON, id="dist-json"),
    pytest.param(("exact", "--family", "A", "--n", "3"), 0, _EXACT, 5226, "", id="exact"),
    pytest.param(("exact", "--family", "A", "--n", "3", "--format", "json"), 0, _EXACT,
                 5226, _JSON, id="exact-json"),
    pytest.param(("compare", "--n", "3"), 0, _EXACT, 5226, "", id="compare"),
    pytest.param(("compare", "--n", "3", "--format", "json"), 0, _EXACT, 5226, _JSON,
                 id="compare-json"),
    pytest.param(("compare", "--n", "3", "--format", "svg"), 0,
                 "probability svgplot termdist", 5130, "", id="compare-svg"),
    pytest.param(("seq",), 0, "sequences termdist", 3224, "", id="seq"),
    pytest.param(("seq", "--oeis"), 0, "oeis sequences termdist", 4049,
                 "re locale urllib.request http.client ssl", id="seq-oeis"),
    pytest.param(("validate", "--n", "3"), 0,
                 "output probability sequences termdist validation", 10201, "", id="validate"),
    pytest.param(("-h",), 0, "usage", 2359, _ARGPARSE, id="help"),
    pytest.param(("exact", "-h"), 0, "usage", 2359, _ARGPARSE, id="exact-help"),
    pytest.param(("bogus",), 2, "usage", 2359, _ARGPARSE, id="bogus"),
    pytest.param(("exact", "--fam", "C", "--n", "3"), 0, _EXACT + " usage", 5629, _ARGPARSE,
                 id="exact-prefix"),
]


_ARGV = {row.id: row.values[0] for row in _LOADS}
_TABLE = pytest.mark.parametrize("argv, code, modules, most, allowed", _LOADS)


@pytest.fixture(scope="module")
def command_loads(tmp_path_factory):
    """Run each command line once and give what it loaded."""
    runs = {}

    def load(argv):
        if argv not in runs:
            runs[argv] = _load_run(argv, tmp_path_factory.mktemp("empty"))
        return runs[argv]
    return load


def _load_run(argv, cwd):
    # A fresh interpreter in an empty directory, under -S: site may import
    # typing, re or importlib.resources on its own and so hide an import
    # that a command makes.  None in sys.modules makes any import of numpy
    # raise ImportError, and the lookups of --oeis go to a closed port.
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        sys.modules["numpy"] = None
        import permprob.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({list(argv)!r})
        print(code)
        print(" ".join(m for m in {_UNLOADED!r} if m in sys.modules))
        for name, module in sorted(sys.modules.items()):
            if name.partition(".")[0] == "permprob":
                print(name, module.__file__)
    """)
    proc = run_fresh(script, "-S", cwd=cwd, env={
        "PERMPROB_OEIS_URL": "http://127.0.0.1:9", "PERMPROB_OEIS_TIMEOUT": "0.5"})
    assert proc.returncode == 0, proc.stderr
    exit_code, unexpected, *loaded = proc.stdout.splitlines()
    names, paths = zip(*(line.split(" ", 1) for line in loaded))
    nodes = sum(
        sum(1 for _ in ast.walk(ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))))
        for path in paths
    )
    return SimpleNamespace(code=int(exit_code), unexpected=set(unexpected.split()),
                           modules={n.removeprefix("permprob.") for n in names}, nodes=nodes)


class TestImportDiet:
    @_TABLE
    def test_command_loads(self, command_loads, argv, code, modules, most, allowed):
        run = command_loads(argv)
        assert run.code == code
        assert run.unexpected <= set(allowed.split())
        assert run.modules == {"permprob", "cli", "families", "guards", *modules.split()}

    @_TABLE
    def test_command_compiles_few_nodes(self, command_loads, argv, code, modules, most,
                                        allowed):
        assert command_loads(argv).nodes <= most

    # The three rules below each hold for a row's module set; they keep a
    # careless edit of the table from hiding a load that the design forbids.
    def test_seq_loads_no_probability_module(self, command_loads):
        loaded = command_loads(_ARGV["seq"]).modules
        assert loaded.isdisjoint({"probability", "output", "validation"})

    def test_compare_svg_loads_no_output(self, command_loads):
        # the SVG route takes its grids from probability, not from the CSV/JSON module
        loaded = command_loads(_ARGV["compare-svg"]).modules
        assert "output" not in loaded
        assert {"probability", "svgplot"} <= loaded

    def test_dist_loads_no_probability_module(self, command_loads):
        for row in ("dist", "dist-json"):
            loaded = command_loads(_ARGV[row]).modules
            assert loaded.isdisjoint({"probability", "svgplot", "validation"}), row

    @pytest.mark.parametrize(
        "module", ["probability", "output", "termdist", "sequences", "svgplot", "oeis"]
    )
    def test_command_path_module_imports_no_oracle(self, module):
        # Every import statement counts, a lazy one inside a function too, so
        # this sees the paths that no row of _LOADS runs.
        oracles = {"validation"}
        path = pathlib.Path(permprob.__file__).parent / f"{module}.py"
        imported = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").removeprefix("permprob").lstrip(".")
                imported += [source] if source else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [a.name.removeprefix("permprob.") for a in node.names]
        assert oracles.isdisjoint(imported), imported

    def test_family_is_one_object(self):
        from permprob import families

        assert permprob.Family is validation.Family is families.Family

    def test_cli_module_stays_small(self):
        # Every command compiles cli.py from source when bytecode is not
        # written, at about 0.23 ms per 100 syntax-tree nodes on two cores.
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        assert sum(1 for _ in ast.walk(tree)) <= 1329
