import argparse
import contextlib
import errno
import fractions
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import kalmandeg
from kalmandeg import asympt, cli, genfun, isotropic
from kalmandeg.degrees import CodimVec, TensorFormat, extract_degree
from kalmandeg.genfun import InputError
from edges import CLI_EDGES, EDGE, flag
from test_genfun import REFUSAL
from test_readme import EXAMPLES as README_EXAMPLES


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class ClosedAfter:
    """A stdout whose reader goes away after ``lines`` lines: the next write raises BrokenPipeError."""

    def __init__(self, lines):
        self.lines, self.text = lines, ""

    def write(self, text):
        if self.text.count("\n") >= self.lines:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.text += text
        return len(text)

    def flush(self):
        pass


def test_degree_text(capsys):
    code, out, err = run(capsys, "degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1", "--deg-z", "3,2")
    assert code == 0 and err == ""
    assert out == "degree_factor = 20\nkalman_degree = 120\n"


def test_degree_plain(capsys):
    code, out, _ = run(capsys, "degree", "--n", "2,2", "--delta", "0,0", "--omega", "1,1")
    assert code == 0
    assert out == "degree_factor = 2\n"


def test_degree_validation_exit_code(capsys):
    code, out, err = run(capsys, "degree", "--n", "2,2", "--delta", "2,0", "--omega", "1,1")
    assert code == 2
    assert out == ""
    assert "delta_1 = 2 exceeds n_1 - 1 = 1" in err


def test_degree_json_roundtrip(capsys):
    code, out, _ = run(capsys, "degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1",
                       "--deg-z", "3,2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["result"] == "120"
    assert record["degree_factor"] == "20"
    # re-running from the echoed inputs reproduces the result
    inputs = record["inputs"]
    args = ["degree",
            "--n", ",".join(map(str, inputs["n"])),
            "--delta", ",".join(map(str, inputs["delta"])),
            "--omega", ",".join(map(str, inputs["omega"])),
            "--deg-z", ",".join(map(str, inputs["deg_z"])),
            "--format", "json"]
    code, out2, _ = run(capsys, *args)
    assert code == 0 and json.loads(out2)["result"] == record["result"]


def test_genfun_stream(capsys):
    code, out, _ = run(capsys, "genfun", "--omega", "1,1", "--caps", "3,3", "--y-cap", "2")
    assert code == 0
    lines = out.splitlines()
    assert "n=2,2 delta=1 d=2" in lines
    assert "n=3,2 delta=2 d=3" in lines
    assert lines == sorted(lines, key=lambda s: s)  # already lexicographic by exponents


def test_genfun_stream_json(capsys):
    code, out, _ = run(capsys, "genfun", "--omega", "2,1", "--caps", "2,2", "--y-cap", "1",
                       "--format", "json")
    assert code == 0
    header, *rows = [json.loads(line) for line in out.splitlines()]
    assert header["command"] == "genfun"
    assert {"coefficient", "delta", "n"} <= set(rows[0])
    assert all(int(r["coefficient"]) != 0 for r in rows)


def test_genfun_empty_caps(capsys):
    code, out, _ = run(capsys, "genfun", "--omega", "1,1", "--caps", "0,0", "--y-cap", "0")
    assert code == 0 and out == ""


def test_genfun_show_h(capsys):
    code, out, _ = run(capsys, "genfun", "--omega", "1,1", "--show-h")
    assert code == 0
    assert out == "H = 1 - x1*y - x1*x2 - x1*x2*y\nH_via_det = 1 - x1*y - x1*x2 - x1*x2*y\n"


def test_genfun_show_h_mismatch_exits_three(capsys, monkeypatch):
    # The determinant route returns H of other weights: both lines still print, then exit 3.
    build_H = cli.genfun.build_H
    monkeypatch.setattr(cli.genfun, "build_H_via_determinant", lambda omega: build_H((2, 1)))
    code, out, err = run(capsys, "genfun", "--omega", "1,1", "--show-h")
    assert code == 3
    assert out == f"H = {build_H((1, 1))}\nH_via_det = {build_H((2, 1))}\n"
    assert err.startswith("internal assertion failed: ArithmeticError")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_genfun_show_h_writes_h_once_when_the_routes_agree(capsys, monkeypatch, fmt):
    calls = []
    to_text = cli.genfun.TPoly.__str__
    monkeypatch.setattr(cli.genfun.TPoly, "__str__", lambda poly: calls.append(poly) or to_text(poly))
    code, out, _ = run(capsys, "genfun", "--omega", "1,1,1,1,2", "--show-h", "--format", fmt)
    assert (code, len(calls)) == (0, 1)
    h = to_text(cli.genfun.build_H((1, 1, 1, 1, 2)))
    assert out.count(h) == 2


# Every record shape the CLI emits: nested inputs, null, true, finite floats,
# digit strings past 4300 digits, int lists, and the three table kinds' rows.
JSON_SHAPES = [
    ("degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1", "--deg-z", "3,2"),
    ("genfun", "--omega", "2,1,3", "--show-h"),
    ("genfun", "--omega", "1,1", "--caps", "2,2", "--y-cap", "1"),
    ("isotropic", "--n", "3,3", "--omega", "1,2"),
    ("isotropic", "--n", "46", "--omega", "1" + "0" * 100),
    ("codim", "--n", "3", "--k", "2"),
    ("codim", "--n", "2", "--k", "3", "--parts", "2"),
    ("asympt", "--k", "3", "--omega", "1", "--verify"),
    ("asympt", "--k", "3", "--omega", "1", "--delta", "1", "--constants"),
    ("asympt", "--k", "3", "--omega", "1", "--n", "10", "--compare"),
    ("asympt", "--k", "3", "--omega", "1", "--n", "1000"),
    ("table", "--kind", "matrix-ed", "--max-n", "2"),
    ("table", "--kind", "hypercubical-compare", "--n-max", "3"),
    ("table", "--kind", "isotropic-sym", "--max-n", "3", "--max-omega", "2"),
]


@pytest.fixture(params=["c", "python"])
def json_path(request, monkeypatch):
    """The encoder on the C accelerator, or on the plain fallback where it is absent."""
    if request.param == "python":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    build = cli._json_encoder
    build.cache_clear()
    yield request.param
    build.cache_clear()  # later tests build the default encoder again


def test_json_lines_equal_sorted_dumps(capsys, monkeypatch, json_path):
    encode = cli._json_encoder()
    assert (encode.__name__ == "encode") == (json_path == "python")
    records = []
    monkeypatch.setattr(cli, "_json_encoder", lambda: lambda record: records.append(record) or encode(record))
    for argv in JSON_SHAPES:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
    lines = out.splitlines()  # the last table's rows
    assert len(lines) == 4 and records[-4:] == [json.loads(line) for line in lines]
    records.append({"inputs": {"n": [3, 2], "deg_z": None, "verify": True}, "x": -1.5e-300, "s": "7" * 5000, "t": False})
    seen = {type(v) for record in records for v in chain(record.values(), record.get("inputs", {}).values())}
    assert {dict, list, int, str, float, bool, type(None)} <= seen
    assert max(len(v) for record in records for v in record.values() if isinstance(v, str)) > 4300
    for record in records:
        assert encode(record) == json.dumps(record, sort_keys=True)


@pytest.mark.parametrize("argv, message", [
    (("genfun", "--omega", "1,1", "--caps", "100000,100000"), "lower the caps"),
    (("genfun", "--omega", ",".join(["1"] * 15), "--show-h"), "subsets of 16 variables takes about"),
    (EDGE["verify-k"].refused, "critical-point constants of up to about 2023969 bits"),
])
def test_work_budgets_exit_two(capsys, argv, message):
    # refused before the work starts; the first series box would be ~10^10 cells
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_isotropic_text(capsys):
    code, out, _ = run(capsys, "isotropic", "--n", "3", "--omega", "2")
    assert code == 0
    assert out == "degree = 6\ncomponents = 1\n"


def test_isotropic_result_beyond_int_str_digit_limit(capsys):
    from kalmandeg.isotropic import isotropic_degree_symmetric

    omega = "1" + "0" * 100
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "isotropic", "--n", "46", "--omega", omega)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # restored after the command
    code, out_json, err = run(capsys, "isotropic", "--n", "46", "--omega", omega, "--format", "json")
    assert (code, err) == (0, "")
    sys.set_int_max_str_digits(0)
    try:
        expected = str(isotropic_degree_symmetric(46, 10**100))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 4402
    assert out == f"degree = {expected}\ncomponents = 1\n"
    assert json.loads(out_json)["degree"] == expected


def test_isotropic_over_budget_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "isotropic", "--n", "200000", "--omega", "3")
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "") and "over the limit of 1000000000" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_genfun_box_with_a_zero_cap_prints_only_the_header(capsys, fmt):
    # No coefficient has some n_i = 0, so the box holds none; text output has no header line.
    code, out, err = run(capsys, "genfun", "--omega", "1,1", "--caps", "0,1000000", "--format", fmt)
    assert (code, err) == (0, "")
    header = {
        "command": "genfun",
        "inputs": {"omega": [1, 1], "caps": [0, 1000000], "y_cap": 0},
        "provenance": "capped series expansion of the reciprocal generating polynomial",
    }
    assert out.splitlines() == ([] if fmt == "text" else [json.dumps(header, sort_keys=True)])


def test_genfun_decimal_budget_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "genfun", "--omega", "1" + "0" * 10000, "--caps", "18", "--y-cap", "0")
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (2, "") and "in decimal" in err and "lower the caps" in err


@pytest.mark.parametrize("argv", [
    ("degree", "--n", "3000,3000", "--delta", "0,0", "--omega", "1,1"),
    ("degree", "--n", "60,60,60", "--delta", "0,0,0", "--omega", "1,1,1"),
    ("asympt", "--k", "2", "--omega", "2", "--n", "3000", "--compare"),
    ("asympt", "--k", "2", "--omega", "2", "--n", "1000000000000", "--compare"),
    ("table", "--kind", "hypercubical-compare", "--k", "3", "--n-max", "80"),
    EDGE["matrix-ed-max-n"].refused,
])
def test_extraction_over_budget_exits_two_at_once(capsys, argv):
    # Without the budget the extractions ran from 4.7 s to minutes; the hypercubical table sums
    # its cells' estimates first.  The matrix-ed table is one series box under the same limit.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (2, "") and "over the limit of 1000000000" in err


def test_isotropic_rejects_small_n(capsys):
    code, _, err = run(capsys, "isotropic", "--n", "1,3", "--omega", "1,1")
    assert code == 2 and "n_i" in err


def test_codim(capsys):
    code, out, _ = run(capsys, "codim", "--n", "3", "--k", "2")
    assert code == 0 and out == "codim = 2\n"
    code, out, _ = run(capsys, "codim", "--n", "2", "--k", "3", "--parts", "2")
    assert code == 0 and out == "codim = 1\n"


def test_asympt_estimate_and_compare(capsys):
    code, out, _ = run(capsys, "asympt", "--k", "3", "--omega", "1", "--delta", "0",
                       "--n", "10", "--compare", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["exact"] == "30553116"
    assert 1.0 < record["ratio"] < 1.5


def test_asympt_verify(capsys):
    code, out, _ = run(capsys, "asympt", "--k", "3", "--omega", "1", "--verify")
    assert code == 0
    assert "verify = ok" in out


def test_asympt_constants(capsys):
    code, out, _ = run(capsys, "asympt", "--k", "3", "--omega", "1", "--delta", "0", "--constants")
    assert code == 0
    assert "c = 1/2" in out and "l0 = 4/3" in out


def test_asympt_rejects_degenerate(capsys):
    code, _, err = run(capsys, "asympt", "--k", "2", "--omega", "1", "--n", "5")
    assert code == 2 and "omega" in err


def test_internal_assertion_exit_code(capsys, monkeypatch):
    from kalmandeg.asympt import CriticalPointReport
    from fractions import Fraction

    def broken(k, omega):
        return CriticalPointReport(k, omega, Fraction(1), Fraction(0), Fraction(1), False)

    monkeypatch.setattr(cli.asympt, "verify_critical_point", broken)
    code, out, err = run(capsys, "asympt", "--k", "3", "--omega", "1", "--verify")
    assert code == 3
    assert "internal assertion" in err
    assert "verify = mismatch" in out  # the report prints before the failure exit


def test_verify_reads_the_public_constants(capsys, monkeypatch):
    # --verify compares against critical_constants itself, the function --constants prints.
    real = cli.asympt.critical_constants

    def off_by_one(k, omega, delta):
        cc = real(k, omega, delta)
        return cc._replace(minus_ck_dk=cc.minus_ck_dk + 1)

    monkeypatch.setattr(cli.asympt, "critical_constants", off_by_one)
    assert cli.asympt.verify_critical_point(3, 1).ok is False
    code, out, err = run(capsys, "asympt", "--k", "3", "--omega", "1", "--verify")
    assert code == 3 and "verify = mismatch" in out
    assert err.startswith("internal assertion failed: ArithmeticError")


def test_verify_mismatch_prints_the_expected_value(capsys, monkeypatch):
    # The off-by-one expected slope of the test above prints as its own text, then exit 3.
    real = cli.asympt.critical_constants

    def off_by_one(k, omega, delta):
        cc = real(k, omega, delta)
        return cc._replace(minus_ck_dk=cc.minus_ck_dk + 1)

    monkeypatch.setattr(cli.asympt, "critical_constants", off_by_one)
    slope = real(3, 1, 0).minus_ck_dk
    code, out, _ = run(capsys, "asympt", "--k", "3", "--omega", "1", "--verify")
    assert code == 3
    assert f"-c_k*dF_D(c) = {slope} (expected {slope + 1})\n" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_writes_the_slope_once_when_it_matches(capsys, monkeypatch, fmt):
    # Three fractions print, and the expected slope reuses the slope's text: only F_D(c) and the slope are written.
    calls = []
    to_text = fractions.Fraction.__str__
    monkeypatch.setattr(fractions.Fraction, "__str__", lambda value: calls.append(value) or to_text(value))
    code, out, _ = run(capsys, "asympt", "--k", "5", "--omega", "2", "--verify", "--format", fmt)
    assert (code, len(calls)) == (0, 2)
    assert out.count(to_text(cli.asympt.critical_constants(5, 2, 0).minus_ck_dk)) == 2


def test_table_matrix_ed_csv(capsys):
    code, out, _ = run(capsys, "table", "--kind", "matrix-ed", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n1,n2,degree"
    assert "2,3,2" in lines and "3,3,3" in lines
    assert len(lines) == 10


def _matrix_ed_cells(out, fmt):
    """{(n1, n2): degree} in output order from a matrix-ed table."""
    if fmt == "json":
        return {(r["n1"], r["n2"]): int(r["degree"]) for r in map(json.loads, out.splitlines())}
    header, *rows = out.splitlines()
    assert header == "n1,n2,degree"
    return {(n1, n2): d for n1, n2, d in (map(int, row.split(",")) for row in rows)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_matrix_ed_matches_extraction(capsys, fmt):
    # The table is read off one series box; extraction computes each cell on its own.
    for max_n in range(1, 7):
        code, out, _ = run(capsys, "table", "--kind", "matrix-ed", "--max-n", str(max_n), "--format", fmt)
        assert code == 0
        cells = _matrix_ed_cells(out, fmt)
        sizes = range(1, max_n + 1)
        assert list(cells) == [(n1, n2) for n1 in sizes for n2 in sizes]
        for (n1, n2), degree in cells.items():
            assert degree == extract_degree(TensorFormat((n1, n2), (1, 1)), CodimVec((0, 0))), (n1, n2)


def test_table_matrix_ed_is_eckart_young(capsys):
    # An n1 x n2 matrix has ED degree min(n1, n2) (Eckart-Young).  Summing per-cell extraction
    # estimates refused --max-n 60; as one series box it is well within the limit.
    code, out, err = run(capsys, "table", "--kind", "matrix-ed", "--max-n", "60")
    assert (code, err) == (0, "")
    cells = _matrix_ed_cells(out, "csv")
    assert len(cells) == 60**2
    assert all(degree == min(n) for n, degree in cells.items())


def test_table_deterministic_and_parallel(capsys):
    runs = []
    for _ in range(3):
        code, out, _ = run(capsys, "table", "--kind", "matrix-ed", "--max-n", "4")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def test_table_hypercubical_compare(capsys):
    code, out, _ = run(capsys, "table", "--kind", "hypercubical-compare", "--k", "3",
                       "--omega", "1", "--delta", "0", "--n-min", "2", "--n-max", "5",
                       "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == [2, 3, 4, 5]
    assert rows[0]["exact"] == "6"


def test_table_isotropic_sym(capsys):
    code, out, _ = run(capsys, "table", "--kind", "isotropic-sym", "--max-n", "3", "--max-omega", "2")
    assert code == 0
    assert out.splitlines() == ["n,omega,degree", "2,1,2", "2,2,2", "3,1,2", "3,2,6"]


@pytest.mark.parametrize("fmt, printed", [
    ("csv", "n,omega,degree\n2,1,2\n2,2,2\n"),
    ("json", '{"degree": "2", "n": 2, "omega": 1}\n{"degree": "2", "n": 2, "omega": 2}\n'),
], ids=["csv", "json"])
def test_table_failure_after_the_first_row_keeps_the_printed_rows(capsys, monkeypatch, fmt, printed):
    # Rows print as they are made, so a failure in the third cell leaves the first two on
    # stdout, and the exit code is still 3.
    real, calls = isotropic._symmetric_degree, []

    def third_call_fails(n, omega):
        calls.append((n, omega))
        if len(calls) == 3:
            raise ArithmeticError("third cell")
        return real(n, omega)

    monkeypatch.setattr(isotropic, "_symmetric_degree", third_call_fails)
    code, out, err = run(capsys, "table", "--kind", "isotropic-sym", "--max-n", "3", "--max-omega", "2", "--format", fmt)
    assert code == 3 and err.startswith("internal assertion failed: ArithmeticError")
    assert out == printed


@pytest.mark.parametrize("fmt, printed", [
    ("csv", "n,omega,degree\n2,1,2\n"),
    ("json", '{"degree": "2", "n": 2, "omega": 1}\n{"degree": "2", "n": 2, "omega": 2}\n'),
], ids=["csv", "json"])
def test_closed_stdout_stops_quietly_with_exit_one(capsys, monkeypatch, fmt, printed):
    # The reader goes away after two lines: the third write fails, the command stops
    # with exit 1 and writes nothing to stderr.  This stdout has no file descriptor,
    # so none is redirected.
    stdout = ClosedAfter(2)
    monkeypatch.setattr(sys, "stdout", stdout)
    code, _, err = run(capsys, "table", "--kind", "isotropic-sym", "--max-n", "3", "--max-omega", "2", "--format", fmt)
    assert (code, err) == (1, "")
    assert stdout.text == printed


def test_closed_pipe_points_stdout_at_devnull(capsys, monkeypatch):
    # A line-buffered stdout on a pipe whose reader is already gone: the first line
    # fails.  Its descriptor then points at os.devnull, so that what is still
    # buffered, flushed at exit, cannot fail a second time.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=1) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code, _, err = run(capsys, "table", "--kind", "matrix-ed", "--max-n", "5")
        assert (code, err) == (1, "")
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        stdout.write("still buffered\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_one_with_empty_stderr(unbuffered):
    # kalmandeg table ... | head -1: the reader takes one line and closes the pipe.
    # The table prints about 1 MB, far more than a pipe holds, so a write fails
    # long before its end, and the interpreter's own flush at exit does not fail.
    argv = ["table", "--kind", "isotropic-sym", "--max-n", "100000", "--max-omega", "1"]
    src = os.path.dirname(os.path.dirname(kalmandeg.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "kalmandeg", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"n,omega,degree\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_keeps_no_copy_of_its_rows(fmt):
    # Each row is made, printed and dropped, so the traced peak does not grow with the table:
    # 19,999 rows, kept as a list, would hold a few MB.
    argv = ["table", "--kind", "isotropic-sym", "--max-n", "20000", "--max-omega", "1", "--format", fmt]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 500_000, peak


@pytest.mark.parametrize("argv", [
    ("--kind", "matrix-ed", "--max-n", "-1"),
    ("--kind", "matrix-ed", "--max-n", "0"),
    ("--kind", "isotropic-sym", "--max-n", "1", "--max-omega", "0"),
    ("--kind", "isotropic-sym", "--max-n", "1"),
    ("--kind", "isotropic-sym", "--max-omega", "0"),
    ("--kind", "hypercubical-compare", "--n-min", "5", "--n-max", "2"),
], ids=" ".join)
def test_table_rejects_empty_ranges(capsys, argv):
    # each range would leave only the CSV header
    code, out, err = run(capsys, "table", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_table_smallest_ranges(capsys):
    for argv, body in (
        (("--kind", "matrix-ed", "--max-n", "1"), ["1,1,1"]),
        (("--kind", "isotropic-sym", "--max-n", "2", "--max-omega", "1"), ["2,1,2"]),
        (("--kind", "hypercubical-compare", "--n-min", "2", "--n-max", "2"), ["2,6,1.070469473929922,1.9602805170552606"]),
    ):
        code, out, _ = run(capsys, "table", *argv)
        assert code == 0
        assert out.splitlines()[1:] == body, argv


@pytest.mark.parametrize(
    "argv", [("--n", "1" + "0" * 400), ("--delta", "1" + "0" * 400, "--n", "1" + "0" * 399 + "1")], ids=("n", "delta")
)
def test_asympt_estimate_beyond_float_range_exits_two(capsys, argv):
    code, out, err = run(capsys, "asympt", "--k", "3", "--omega", "1", *argv)
    assert code == 2 and out == ""
    assert "beyond float range" in err


def test_asympt_delta_beyond_n_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "asympt", "--k", "3", "--omega", "1", "--delta", "1000000", "--n", "5")
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (2, "", "error: delta_1 = 1000000 exceeds n_1 - 1 = 4\n")


def test_bad_flags_exit_two(capsys):
    # The parser is built once per process; a failed parse must not change it.
    valid = ("degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1", "--deg-z", "3,2", "--format", "json")
    first = run(capsys, *valid)
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--kind", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["degree", "--n", "x,y", "--delta", "0,0", "--omega", "1,1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *valid) == first


def test_degree_extracts_once(capsys, monkeypatch):
    calls = []
    real = cli.degrees.extract_degree
    monkeypatch.setattr(cli.degrees, "extract_degree", lambda fmt, d: calls.append(fmt) or real(fmt, d))
    code, out, _ = run(capsys, "degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1", "--deg-z", "3,2")
    assert (code, out, len(calls)) == (0, "degree_factor = 20\nkalman_degree = 120\n", 1)
    # A bad delta is still reported before a bad deg_z.
    code, out, err = run(capsys, "degree", "--n", "2,2", "--delta", "2,0", "--omega", "1,1", "--deg-z", "0")
    assert (code, out, err) == (2, "", "error: delta_1 = 2 exceeds n_1 - 1 = 1\n")


GOLDEN = [
    (("degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1", "--format", "json"),
     '{"command": "degree", "degree_factor": "20", "inputs": {"delta": [2, 1], "n": [4, 4], "omega": [1, 1]}, '
     '"provenance": "coefficient extraction from the capped geometric-factor product", "result": "20"}\n'),
    (("genfun", "--omega", "2,1", "--show-h", "--format", "json"),
     '{"command": "genfun", "h_via_determinant": "1 - x1 - x1*y - 2*x1*x2 - x1*x2*y", "inputs": {"omega": [2, 1]}, '
     '"provenance": "closed-form generating polynomial and its bordered-determinant twin", '
     '"result": "1 - x1 - x1*y - 2*x1*x2 - x1*x2*y"}\n'),
    (("genfun", "--omega", "1,1", "--caps", "2,1", "--y-cap", "1", "--format", "json"),
     '{"command": "genfun", "inputs": {"caps": [2, 1], "omega": [1, 1], "y_cap": 1}, '
     '"provenance": "capped series expansion of the reciprocal generating polynomial"}\n'
     '{"coefficient": "1", "delta": 0, "n": [1, 1]}\n'
     '{"coefficient": "1", "delta": 0, "n": [2, 1]}\n'
     '{"coefficient": "1", "delta": 1, "n": [2, 1]}\n'),
    (("isotropic", "--n", "3,3", "--omega", "1,2", "--format", "json"),
     '{"ambient_dim": 2, "command": "isotropic", "components": 1, "degree": "28", '
     '"inputs": {"n": [3, 3], "omega": [1, 2]}, '
     '"provenance": "alternating polar-class sum over bounded compositions, exact rationals", "result": "28"}\n'),
    (("codim", "--n", "3", "--k", "2", "--format", "json"),
     '{"command": "codim", "inputs": {"k": 2, "n": 3, "parts": null}, '
     '"provenance": "fully repeated singular tuple: (k-1)(n-1)", "result": "2"}\n'),
    (("codim", "--n", "2", "--k", "3", "--parts", "2", "--format", "json"),
     '{"command": "codim", "inputs": {"k": 3, "n": 2, "parts": 2}, '
     '"provenance": "tuple repeated along a t-part partition: (k-t)(n-1)", "result": "1"}\n'),
    (("asympt", "--k", "3", "--omega", "1", "--verify", "--format", "json"),
     '{"command": "asympt", "expected_slope_product": "3/32", "f_d_at_c": "0", '
     '"inputs": {"k": 3, "omega": 1, "verify": true}, '
     '"provenance": "exact rational evaluation of the reduced denominator at the critical point", '
     '"result": "ok", "slope_product": "3/32"}\n'),
    (("asympt", "--k", "3", "--omega", "1", "--delta", "1", "--constants", "--format", "json"),
     '{"c": "1/2", "command": "asympt", "det_hessian": "1/3", '
     '"inputs": {"constants": true, "delta": 1, "k": 3, "omega": 1}, "l0": "2", "minus_ck_dk": "3/32", '
     '"provenance": "closed-form critical-point constants, exact rationals", "result": "2"}\n'),
    (("asympt", "--k", "3", "--omega", "1", "--n", "10"),
     "log10_estimate = 7.596219365529452\nestimate = 39465659.58627332\n"),
    (("asympt", "--k", "3", "--omega", "1", "--n", "10", "--compare"),
     "log10_estimate = 7.596219365529452\nestimate = 39465659.58627332\n"
     "exact = 30553116\nratio = 1.291706534491387\n"),
    (("table", "--kind", "hypercubical-compare", "--k", "3", "--omega", "1", "--n-min", "2", "--n-max", "4"),
     "n,exact,log10_estimate,ratio\n"
     "2,6,1.070469473929922,1.9602805170552606\n"
     "3,37,1.7974682018661847,1.6953777444802265\n"
     "4,240,2.575619452249828,1.5682244136442083\n"),
    (("table", "--kind", "matrix-ed", "--max-n", "2", "--format", "json"),
     '{"degree": "1", "n1": 1, "n2": 1}\n{"degree": "1", "n1": 1, "n2": 2}\n'
     '{"degree": "1", "n1": 2, "n2": 1}\n{"degree": "2", "n1": 2, "n2": 2}\n'),
    (("table", "--kind", "isotropic-sym", "--max-n", "3", "--max-omega", "2", "--format", "json"),
     '{"degree": "2", "n": 2, "omega": 1}\n{"degree": "2", "n": 2, "omega": 2}\n'
     '{"degree": "2", "n": 3, "omega": 1}\n{"degree": "6", "n": 3, "omega": 2}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden_stdout(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def _argv_id(argv):
    """A case's test id: its argv joined by spaces, with each run of more than 60 digits cut to
    its first 60 and its length, so ids stay short and distinct and keep their leading characters."""
    return re.sub(r"\d{61,}", lambda run: f"{run[0][:60]}...<{len(run[0])} digits>", " ".join(argv))


def _refused(message, *argv):
    return argv, 2, message


BIG = "1" + "0" * 400
# One argv per budget, then user numbers beyond index range that a budget refuses.
BUDGET_REFUSED = [
    _refused("visiting the 2^16 subsets of 16 variables", "genfun", "--omega", ",".join(["1"] * 15), "--show-h"),
    _refused("cells with padding", "genfun", "--omega", "1,1", "--caps", "100000,100000"),
    _refused("in decimal takes about", "genfun", "--omega", "1" + "0" * 10000, "--caps", "18"),
    _refused("the polar-class sum takes about", "isotropic", "--n", "200000", "--omega", "3"),
    _refused("coefficient extraction takes about", "degree", "--n", "3000,3000", "--delta", "0,0", "--omega", "1,1"),
    _refused(f"extracting with k = {flag(EDGE['compare-k'].refused, '--k')} factors", *EDGE["compare-k"].refused),
    _refused("principal minors of a 9 x 9 matrix", "genfun", "--omega", ",".join(["1" + "0" * 3000] * 8), "--show-h"),
    _refused("single-factor isotropic degrees", "table", "--kind", "isotropic-sym", "--max-n", "1000000"),
    _refused("single-factor isotropic degrees", "table", "--kind", "isotropic-sym", "--max-n", "2", "--max-omega", BIG),
    _refused("critical-point constants", "asympt", "--k", "100000000000000000000", "--omega", "1", "--constants"),
    _refused("critical-point constants", "asympt", "--k", "3", "--omega", "1", "--delta", "1" + "0" * 20, "--constants"),
    _refused("critical-point constants of up to about 2176422 bits", "asympt", "--k", "14", "--omega", "1" + "0" * 5000, "--verify"),
    _refused("constants of up to about 60300000000000000000137 bits", "asympt", "--k", "100000000000000000000", "--omega", "1", "--verify"),
    _refused("extracting with k = 1000", "asympt", "--k", "100000000000000000000", "--omega", "1", "--n", "5", "--compare"),
]
EXIT_CODES = [
    *[(argv, 0, "") for argv, _ in GOLDEN],
    # the reader of stdout goes away after the first line
    (("table", "--kind", "matrix-ed", "--max-n", "6"), 1, ""),
    (("genfun", "--omega", "1,1", "--caps", "3,3", "--format", "json"), 1, ""),
    *[(tuple(shlex.split(command)[1:]), 0, "") for command, _ in README_EXAMPLES],
    # one argv per validation message
    _refused("n and omega must have the same length", "degree", "--n", "2,2", "--delta", "0,0", "--omega", "1"),
    _refused("at least one factor is required", "degree", "--n", "", "--delta", "", "--omega", ""),
    _refused("all dimensions n_i must be >= 1", "degree", "--n", "0,2", "--delta", "0,0", "--omega", "1,1"),
    _refused("all weights omega_i must be >= 1", "degree", "--n", "2,2", "--delta", "0,0", "--omega", "0,1"),
    _refused("at least one entry is required", "degree", "--n", "2", "--delta", "", "--omega", "1"),
    _refused("codimensions must be nonnegative", "degree", "--n", "2", "--delta", "-1", "--omega", "1"),
    _refused("codimension vector length does not match", "degree", "--n", "2,2", "--delta", "0", "--omega", "1,1"),
    _refused("delta_1 = 2 exceeds n_1 - 1 = 1", "degree", "--n", "2,2", "--delta", "2,0", "--omega", "1,1"),
    _refused("deg_z length does not match", "degree", "--n", "2,2", "--delta", "0,0", "--omega", "1,1", "--deg-z", "1"),
    _refused("all deg_z entries must be >= 1", "degree", "--n", "2", "--delta", "0", "--omega", "1", "--deg-z", "0"),
    _refused("--caps is required", "genfun", "--omega", "1,1"),
    _refused("caps length does not match the number of factors", "genfun", "--omega", "1,1", "--caps", "2"),
    _refused("caps must be nonnegative", "genfun", "--omega", "1", "--caps", "2", "--y-cap", "-1"),
    _refused("all weights omega_i must be >= 1", "genfun", "--omega", "0", "--show-h"),
    _refused("at least one factor is required", "genfun", "--omega", "", "--caps", ""),
    _refused("all dimensions n_i must be >= 2", "isotropic", "--n", "1,3", "--omega", "1,1"),
    _refused("n must be >= 2", "codim", "--n", "1", "--k", "2"),
    _refused("k must be >= 1", "codim", "--n", "3", "--k", "0"),
    _refused("the number of parts t must satisfy 1 <= t <= k", "codim", "--n", "3", "--k", "2", "--parts", "3"),
    _refused("n must be >= 1", "codim", "--n", "0", "--k", "2", "--parts", "1"),
    _refused("need k >= 2 and omega >= 1", "asympt", "--k", "1", "--omega", "1", "--n", "5"),
    _refused("need k >= 3, or k = 2 with omega >= 2", "asympt", "--k", "2", "--omega", "1", "--verify"),
    _refused("delta must be >= 0", "asympt", "--k", "3", "--omega", "1", "--delta", "-1", "--constants"),
    _refused("n must be >= 1", "asympt", "--k", "3", "--omega", "1", "--n", "0"),
    _refused("delta_1 = 5 exceeds n_1 - 1 = 4", "asympt", "--k", "3", "--omega", "1", "--delta", "5", "--n", "5"),
    _refused("--n is required", "asympt", "--k", "3", "--omega", "1"),
    _refused("--max-n must be >= 1 for matrix-ed", "table", "--kind", "matrix-ed", "--max-n", "0"),
    _refused("need 1 <= --n-min <= --n-max", "table", "--kind", "hypercubical-compare", "--n-min", "0"),
    _refused("need --max-n >= 2 and --max-omega >= 1", "table", "--kind", "isotropic-sym", "--max-n", "1"),
    # invalid input is refused before the budgeted work: an extraction of about 1 s, or one over the limit
    _refused("all deg_z entries must be >= 1", *EDGE["degree-n"].accepted, "--deg-z", "0"),
    _refused("need k >= 3, or k = 2 with omega >= 2", "table", "--kind", "hypercubical-compare", "--k", "2",
             "--omega", "1", "--n-min", "250", "--n-max", "250"),
    _refused("need k >= 2 and omega >= 1", "table", "--kind", "hypercubical-compare", "--k", "1",
             "--n-min", "40000", "--n-max", "40000"),
    (("isotropic", "--n", "20000", "--omega", "3"), 0, ""),  # far below the budget: about 0.2 s
    *BUDGET_REFUSED,
    # user numbers beyond float range
    _refused("beyond float range", "asympt", "--k", BIG, "--omega", "1", "--n", "5"),
]


@pytest.mark.parametrize("argv, code, message", EXIT_CODES, ids=[_argv_id(argv) for argv, _, _ in EXIT_CODES])
def test_exit_code_contract(capsys, monkeypatch, argv, code, message):
    # Exit 0 answers, exit 1 stops quietly once the reader of stdout has gone away after
    # one line, exit 2 (InputError, and only it) refuses at once with "error:", nothing on stdout.
    if code == 1:
        monkeypatch.setattr(sys, "stdout", ClosedAfter(1))
    start = time.perf_counter()
    result = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    if code in (0, 1):
        assert result[0] == code and result[2] == "", argv
        assert code == 0 or sys.stdout.text.count("\n") == 1
    else:
        assert result[:2] == (2, "") and result[2].startswith("error: ") and message in result[2], result
        assert elapsed < 0.1


@pytest.mark.parametrize("exc", [ValueError("boom"), TypeError("boom"), ArithmeticError("boom"), ZeroDivisionError("boom")])
def test_internal_failures_exit_three(capsys, monkeypatch, exc):
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli.degrees, "extract_degree", broken)
    code, out, err = run(capsys, "degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1")
    assert (code, out) == (3, "")
    assert err == f"internal assertion failed: {type(exc).__name__}: boom\n"
    assert issubclass(InputError, ValueError) and not isinstance(exc, InputError)


# The first input each budget refuses, the last one it accepts and the fixed words of that
# budget's message, its family, for every CLI row of the edge table.
FIRST_REFUSED = [(edge.refused, edge.accepted, edge.family) for edge in CLI_EDGES]
FIRST_REFUSED_ARGVS = [refused for refused, _, _ in FIRST_REFUSED]
# The table's extraction check runs once per cell, on the running sum, so its first pass
# proves nothing; its last accepted input runs whole (about 0.05 s).
RUN_WHOLE = {"hypercubical-compare"}


@pytest.mark.parametrize("argv, family", [pytest.param(r, f, id=_argv_id(r)) for r, _, f in FIRST_REFUSED])
def test_first_refused_inputs_exit_two_at_once(capsys, argv, family):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (2, "") and "over the limit" in err and family in err


class _Accepted(BaseException):
    """Raised in place of the work once a budget check has passed.  cli.main reports any
    Exception as an internal failure, so this one derives from BaseException."""


@pytest.mark.parametrize("refused, accepted, family", [pytest.param(*row, id=_argv_id(row[1])) for row in FIRST_REFUSED])
def test_last_accepted_inputs_pass_their_budget(capsys, monkeypatch, refused, accepted, family):
    # One argument apart from the first refused input (test_edges), it reaches its family's
    # check and passes it; there the call stops, so no edge's work runs.
    check, passed = genfun._refuse_over, []

    def check_then_stop(work, what, *args):
        check(work, what, *args)
        passed.append(what)
        if family in what and not RUN_WHOLE.intersection(accepted):
            raise _Accepted

    for module in (genfun, asympt):
        monkeypatch.setattr(module, "_refuse_over", check_then_stop)
    try:
        code = cli.main(list(accepted))
    except _Accepted:
        code = 0
    assert code == 0, capsys.readouterr().err
    assert any(family in what for what in passed)


BUDGET_ARGVS = list(dict.fromkeys(FIRST_REFUSED_ARGVS + [argv for argv, _, _ in BUDGET_REFUSED]))


@pytest.mark.parametrize("argv", BUDGET_ARGVS, ids=_argv_id)
def test_budget_refusals_share_one_shape(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and err.endswith("\n")
    refusal = REFUSAL.fullmatch(err[len("error: ") : -1])
    assert refusal and refusal[3] == "1000000000", err


def test_argv_ids_are_distinct():
    # Two cases with one id would be told apart only by list position.
    for argvs in ([argv for argv, _, _ in EXIT_CODES], FIRST_REFUSED_ARGVS, BUDGET_ARGVS):
        ids = list(map(_argv_id, argvs))
        assert len(set(ids)) == len(ids), [i for i in ids if ids.count(i) > 1]


def test_asympt_compare_at_the_largest_accepted_k(capsys):
    # The last k the budget accepts builds 2k bases over k + 1 variables and must stay quick.
    start = time.perf_counter()
    code, out, err = run(capsys, *EDGE["compare-k"].accepted)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "") and "\nexact = 1\n" in out


def test_isotropic_at_the_largest_accepted_n(capsys):
    # n = 4659, the largest n an earlier budget accepted, takes its one factor by Horner's
    # rule and must stay quick as a CLI call.  test_isotropic checks the largest accepted n
    # (the edge table's isotropic-n row) in process against the closed form.
    from kalmandeg.isotropic import isotropic_degree_symmetric

    start = time.perf_counter()
    code, out, err = run(capsys, "isotropic", "--n", "4659", "--omega", "3")
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    assert out == f"degree = {isotropic_degree_symmetric(4659, 3)}\ncomponents = 1\n"


def _decimal(n):
    """str(n) for any n: the interpreter writes at most 4300 digits by default."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


# Small numbers, three draws in four, reach the computations; numbers of up to 5001 digits reach the budgets.
_NUMBER = st.one_of(*[st.integers(-2, 5)] * 3, st.integers(-2, 10**5000)).map(_decimal)
# Per subcommand: each flag, the kind of value it takes (None for a switch), and the flags always given.
_FLAGS = {
    "degree": ({"--n": list, "--delta": list, "--omega": list, "--deg-z": list}, {"--n", "--delta", "--omega"}),
    "genfun": ({"--omega": list, "--caps": list, "--y-cap": int, "--show-h": None}, {"--omega"}),
    "isotropic": ({"--n": list, "--omega": list}, {"--n", "--omega"}),
    "codim": ({"--n": int, "--k": int, "--parts": int}, {"--n", "--k"}),
    "asympt": (
        {"--k": int, "--omega": int, "--delta": int, "--n": int, "--compare": None, "--verify": None, "--constants": None},
        {"--k", "--omega"},
    ),
    "table": (
        {"--kind": str, **dict.fromkeys(("--max-n", "--max-omega", "--k", "--omega", "--delta", "--n-min", "--n-max"), int)},
        {"--kind"},
    ),
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags, required = _FLAGS[command]
    size = draw(st.integers(0, 3))  # one length for every list, so that lists of factors can match
    values = {
        int: _NUMBER,
        list: st.lists(_NUMBER, min_size=size, max_size=size).map(",".join),
        str: st.sampled_from(("matrix-ed", "hypercubical-compare", "isotropic-sym")),
    }
    argv = [command]
    for flag, kind in flags.items():
        if flag in required or draw(st.booleans()):
            argv += [flag] if kind is None else [flag, draw(values[kind])]
    formats = ("csv", "json", "text") if command == "table" else ("text", "json", "csv")
    return argv + ["--format", draw(st.sampled_from(formats[:2] * 3 + formats[2:]))]  # one in seven invalid


def _seeded_with(argvs):
    def seed(test):
        for argv in argvs:
            test = example(list(argv))(test)
        return test

    return seed


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_cli_argv())
@_seeded_with(FIRST_REFUSED_ARGVS)
def test_exit_codes_fuzz(argv):
    # Any argv is answered (0) or refused (2, argparse's SystemExit(2) included), never an internal failure (3).
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    shown = [arg[:40] for arg in argv]
    assert code in (0, 2), (shown, err.getvalue()[:300])
    assert code == 0 or out.getvalue() == "", shown


# Calls the direct match must leave to argparse, or answer exactly as argparse does: usage and
# help texts, an unknown subcommand, a stray argument left over, a bad value, a missing flag or
# value, the forms only argparse reads (--opt=value, an abbreviation, a repeated option, a value
# starting with "-", an empty value) and a switch followed by a value.
PARSE_EDGES = [
    [],
    ["-h"],
    ["degree", "-h"],
    ["nope"],
    ["codim", "--n", "3", "--k", "2", "stray"],
    ["degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1", "--", "stray"],
    ["degree", "--n", "4,x", "--delta", "2,1", "--omega", "1,1"],
    ["degree", "--n", "4,4", "--omega", "1,1"],
    ["table", "--kind", "matrix-ed", "--format", "text"],
    ["table", "--kind", "nope"],
    ["codim", "--n", "3", "--k"],
    ["asympt", "--k", "3", "--omega=1"],
    ["asympt", "--k", "3", "--om", "1"],
    ["codim", "--n", "3", "--k", "2", "--n", "4"],
    ["asympt", "--k", "3", "--omega", "1", "--delta", "-1", "--constants"],
    ["genfun", "--omega", "1", "--show-h", "--show-h"],
    ["degree", "--n", "", "--delta", "", "--omega", ""],
    ["asympt", "--k", "3", "--omega", "1", "--verify", "1"],
]


def _parse_outcome(parse, argv):
    """vars() of the namespace ``parse`` returns for ``argv``, else its exit code; then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.main does before it parses
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parse(argv))
            except SystemExit as exc:
                result = exc.code
    finally:
        sys.set_int_max_str_digits(limit)
    return result, out.getvalue(), err.getvalue()


def test_plain_calls_skip_argparse():
    # Every golden and README call is read off the option table; argparse parses none of them.
    argvs = [list(argv) for argv, _ in GOLDEN] + [shlex.split(command)[1:] for command, _ in README_EXAMPLES]
    expected = [cli.build_parser().parse_args(argv) for argv in argvs]
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", side_effect=AssertionError("argparse ran")):
        assert [cli._parse(argv) for argv in argvs] == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_cli_argv())
@_seeded_with(PARSE_EDGES)
def test_parse_fast_path_matches_full_parser(argv):
    expected = _parse_outcome(cli.build_parser().parse_args, argv)
    assert _parse_outcome(cli._parse, argv) == expected
    with mock.patch.object(sys, "argv", ["kalmandeg", *argv]):  # the console script passes no argv
        assert _parse_outcome(cli._parse, None) == expected


# Help and usage texts as argparse writes them at 80 columns (CPython 3.11), so that a help
# string, a default or the order of options lost on the way to the parser shows here.
_DEGREE_USAGE = """\
usage: kalmandeg degree [-h] --n N --delta DELTA --omega OMEGA [--deg-z DEG_Z]
                        [--format {text,json}]
"""
HELP = {
    "-h": """\
usage: kalmandeg [-h] {degree,genfun,isotropic,codim,asympt,table} ...

Exact degrees, generating functions and asymptotics for Kalman varieties of
partially symmetric tensors.

positional arguments:
  {degree,genfun,isotropic,codim,asympt,table}
    degree              degree factor by coefficient extraction
    genfun              series coefficients of the generating function
    isotropic           degree of the totally isotropic variety
    codim               codimension of repeated-singular-tuple varieties
    asympt              hypercubical asymptotic estimate and critical-point
                        checks
    table               sweep tables (CSV or JSON lines)

options:
  -h, --help            show this help message and exit
""",
    "degree -h": _DEGREE_USAGE + """
options:
  -h, --help            show this help message and exit
  --n N                 dimensions n_1,..,n_k
  --delta DELTA         codimensions delta_1,..,delta_k
  --omega OMEGA         weights omega_1,..,omega_k
  --deg-z DEG_Z         degrees of the constraint varieties
  --format {text,json}
""",
    "genfun -h": """\
usage: kalmandeg genfun [-h] --omega OMEGA [--caps CAPS] [--y-cap Y_CAP]
                        [--show-h] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --omega OMEGA
  --caps CAPS           per-variable bounds on n
  --y-cap Y_CAP         bound on delta
  --show-h              print the generating polynomial both ways and exit
  --format {text,json}
""",
    "isotropic -h": """\
usage: kalmandeg isotropic [-h] --n N --omega OMEGA [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --n N
  --omega OMEGA
  --format {text,json}
""",
    "codim -h": """\
usage: kalmandeg codim [-h] --n N --k K [--parts PARTS] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --n N
  --k K
  --parts PARTS         number of parts of the repetition partition
  --format {text,json}
""",
    "asympt -h": """\
usage: kalmandeg asympt [-h] --k K --omega OMEGA [--delta DELTA] [--n N]
                        [--compare] [--verify] [--constants]
                        [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --k K
  --omega OMEGA
  --delta DELTA
  --n N
  --compare             also compute the exact value and the ratio
  --verify              check the critical-point identities exactly
  --constants           print the closed-form constants
  --format {text,json}
""",
    "table -h": """\
usage: kalmandeg table [-h] --kind
                       {matrix-ed,hypercubical-compare,isotropic-sym}
                       [--max-n MAX_N] [--max-omega MAX_OMEGA] [--k K]
                       [--omega OMEGA] [--delta DELTA] [--n-min N_MIN]
                       [--n-max N_MAX] [--format {csv,json}]

options:
  -h, --help            show this help message and exit
  --kind {matrix-ed,hypercubical-compare,isotropic-sym}
  --max-n MAX_N
  --max-omega MAX_OMEGA
  --k K
  --omega OMEGA
  --delta DELTA
  --n-min N_MIN
  --n-max N_MAX
  --format {csv,json}
""",
}


@pytest.mark.parametrize("command", HELP)
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split())
    assert (exc.value.code, capsys.readouterr()) == (0, (HELP[command], ""))


def test_usage_error_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["degree", "--n", "4,4", "--omega", "1,1"])
    error = "kalmandeg degree: error: the following arguments are required: --delta\n"
    assert (exc.value.code, capsys.readouterr()) == (2, ("", _DEGREE_USAGE + error))
