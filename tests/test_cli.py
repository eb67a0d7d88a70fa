import argparse
import ast
import json
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from murmurations import classnum, cli, nu, qexp, trace
from murmurations.cli import main
from murmurations.classnum import load_class_numbers, sieve_class_numbers, save_class_numbers


def test_sieve_command_and_format(tmp_path):
    out = tmp_path / "cls.bin"
    assert main(["sieve", "--dmax", "4000", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw[:8] == b"MRMCLS02"
    count = sum(1 for n in range(3, 4001) if n % 4 in (0, 3))
    assert len(raw) == 16 + 4 * count + 32
    table = load_class_numbers(out)
    assert table.class_number(-23) == 3


def test_sieve_roundtrip_identity(tmp_path):
    out = tmp_path / "cls.bin"
    table = sieve_class_numbers(2000)
    save_class_numbers(table, out)
    again = tmp_path / "cls2.bin"
    save_class_numbers(load_class_numbers(out), again)
    assert out.read_bytes() == again.read_bytes()


def test_corrupted_cache_rejected(tmp_path):
    out = tmp_path / "cls.bin"
    main(["sieve", "--dmax", "400", "--out", str(out)])
    raw = bytearray(out.read_bytes())
    raw[:8] = b"XXXXXXXX"
    out.write_bytes(bytes(raw))
    code = main(["trace", "--k", "12", "--nmax", "5", "--cache", str(out)])
    assert code == 1  # surfaced as a value error


def _flip_payload_byte(raw):
    raw[16 + 40] ^= 0x01
    return raw


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_flip_payload_byte, "checksum mismatch"),
        (lambda raw: raw[:-1], "truncated"),
        (lambda raw: b"MRMCLS01" + raw[8:], "re-run `murmur sieve`"),
        (lambda raw: raw + b"\x00", "trailing bytes"),
    ],
    ids=["flipped-payload-byte", "truncated", "old-format", "appended-byte"],
)
def test_bad_cache_exits_1(corrupt, message, tmp_path, capsys):
    out = tmp_path / "cls.bin"
    assert main(["sieve", "--dmax", "400", "--out", str(out)]) == 0
    out.write_bytes(bytes(corrupt(bytearray(out.read_bytes()))))
    assert main(["trace", "--k", "12", "--nmax", "5", "--cache", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_trace_command(tmp_path):
    out = tmp_path / "trace.tsv"
    assert main(["trace", "--k", "12", "--nmax", "6", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().strip().splitlines()]
    assert [int(r[1]) for r in rows] == [1, -24, 252, -1472, 4830, -6048]
    norm = float(rows[1][2])
    assert abs(norm - (-24) * 2 ** (-5.5)) < 1e-12


def test_trace_verify_flag(tmp_path):
    out = tmp_path / "trace.tsv"
    assert main(["trace", "--k", "16", "--nmax", "30", "--verify", "--out", str(out)]) == 0


def test_trace_at_large_weight_is_finite(tmp_path):
    # at k = 1000 the traces pass the float range from n = 5 on
    out = tmp_path / "trace.tsv"
    assert main(["trace", "--k", "1000", "--nmax", "120", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().strip().splitlines()]
    assert [int(r[0]) for r in rows] == list(range(1, 121))
    dim = 1000 // 12
    for n, tr, norm in rows:
        n, tr, norm = int(n), int(tr), float(norm)
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert math.isfinite(norm) and abs(norm) <= dim * divisors * (1 + 1e-12), n
        assert norm == 0 if tr == 0 else (norm < 0) == (tr < 0), n
    assert abs(int(rows[0][1])) == dim


def test_trace_verify_mismatch_keeps_the_checked_rows(tmp_path, capsys, monkeypatch):
    # rows are written as they are made: a mismatch at n exits 4 and leaves
    # the rows 1 .. n - 1, each of them checked
    real_oracle = cli.oracle_trace
    monkeypatch.setattr(cli, "oracle_trace", lambda k, n: real_oracle(k, n) + (n == 7))
    out = tmp_path / "trace.tsv"
    assert main(["trace", "--k", "12", "--nmax", "20", "--verify", "--out", str(out)]) == 4
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(n, real_oracle(12, n)) for n in range(1, 7)]
    assert capsys.readouterr().err.startswith("error: oracle mismatch at n=7: ")


@pytest.mark.parametrize(
    "k, name, code, message",
    [
        (12, "nodir/t.tsv", 2, "cannot write"),
        (13, "t.tsv", 1, "--k must be an even integer, at least 2"),
        (0, "t.tsv", 1, "--k must be an even integer, at least 2"),
        (-2, "t.tsv", 1, "--k must be an even integer, at least 2"),
    ],
    ids=["unwritable-out", "odd-weight", "zero-weight", "negative-weight"],
)
def test_trace_refuses_before_any_trace(k, name, code, message, tmp_path, capsys, monkeypatch):
    # rows are written as they are made, so every refusal comes before a
    # trace is computed or the output is opened
    def no_trace(*args):
        raise AssertionError("a trace was computed before the refusal")

    monkeypatch.setattr(cli, "trace_hecke", no_trace)
    out = tmp_path / name
    assert main(["trace", f"--k={k}", "--nmax", "5", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
    assert not out.exists()


def test_trace_past_the_int_to_str_limit(tmp_path):
    # at k = 10^4 the traces have up to 7 387 digits, past the interpreter's
    # default limit of 4 300 for int-to-str; that limit stays as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    out = tmp_path / "trace.tsv"
    assert main(["trace", "--k", "10000", "--nmax", "30", "--out", str(out)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert [int(r[0]) for r in rows] == list(range(1, 31))
    assert all(re.fullmatch(r"-?[0-9]+", r[1]) and math.isfinite(float(r[2])) for r in rows)
    assert max(len(r[1]) for r in rows) > 4300
    assert rows[0][1] == str(10000 // 12)  # dim S_k(1), as k = 4 mod 12


@pytest.mark.parametrize("k, nmax", [(24, 5000), (12, 10**4 + 1)])
def test_trace_verify_past_the_oracle_refuses_up_front(k, nmax, tmp_path, capsys, monkeypatch):
    def no_trace(*args):
        raise AssertionError("a trace was computed before the refusal")

    monkeypatch.setattr(cli, "trace_hecke", no_trace)
    out = tmp_path / "trace.tsv"
    argv = ["trace", "--k", str(k), "--nmax", str(nmax), "--verify", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: precision must be in [1, 10^4]"]
    assert not out.exists()


@pytest.mark.parametrize("k, nmax", [(30, 3), (28, 1), (13, 5), (1000, 0)])
def test_trace_verify_beyond_the_oracle_weights_refuses_up_front(
    k, nmax, tmp_path, capsys, monkeypatch
):
    # the oracle covers S_k(1) of dimension <= 1 and k = 24; past that
    # nothing could be checked, so nothing is traced or written
    def no_trace(*args):
        raise AssertionError("a trace was computed before the refusal")

    monkeypatch.setattr(cli, "trace_hecke", no_trace)
    out = tmp_path / "trace.tsv"
    argv = ["trace", "--k", str(k), "--nmax", str(nmax), "--verify", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: weight {k} not supported by the q-expansion oracle"]
    assert not out.exists()


def test_trace_verify_at_weight_two(tmp_path, capsys, monkeypatch):
    # S_2(1) = 0: every trace is checked against the oracle's zero
    asked, real_oracle = [], cli.oracle_trace

    def oracle(k, n):
        asked.append(n)
        return real_oracle(k, n)

    monkeypatch.setattr(cli, "oracle_trace", oracle)
    out = tmp_path / "trace.tsv"
    assert main(["trace", "--k", "2", "--nmax", "400", "--verify", "--out", str(out)]) == 0
    assert set(asked) == set(range(1, 401))
    rows = [line.split("\t") for line in out.read_text().strip().splitlines()]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(n, 0) for n in range(1, 401)]
    assert capsys.readouterr().err == "verified against q-expansion oracle for k=2\n"


def test_murmur_smoke_and_compare(tmp_path):
    cache = tmp_path / "cls.bin"
    csv = tmp_path / "m.csv"
    summary = tmp_path / "m.json"
    nu_csv = tmp_path / "nu.csv"
    report = tmp_path / "cmp.json"
    assert main(["sieve", "--dmax", "20000", "--out", str(cache)]) == 0
    code = main(
        [
            "murmur", "--K", "230", "--H", "30", "--delta", "0", "--E", "0:2",
            "--cache", str(cache), "--out", str(csv), "--summary", str(summary),
        ]
    )
    assert code == 0
    header = csv.read_text().splitlines()[0]
    assert header == "p,p_over_N,numerator_term,denominator_term,cumulative_r"
    info = json.loads(summary.read_text())
    assert info["points"] > 20
    assert info["den_total"] > 0
    assert main(["nu", "--grid", "0:2:50", "--qmax", "500", "--out", str(nu_csv)]) == 0
    code = main(
        [
            "compare", "--murmur-csv", str(csv), "--nu-csv", str(nu_csv),
            "--delta", "0", "--out", str(report),
        ]
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert 0 < rep["pearson_correlation"] <= 1.0
    assert rep["max_abs_deviation"] < 10


def _write_curves(tmp_path, nu):
    """A murmuration CSV of sin(t) and a nu CSV of nu(t), t = 1/20 .. 39/20."""
    csv = tmp_path / "a.csv"
    lines = ["p,p_over_N,numerator_term,denominator_term,cumulative_r"]
    for i in range(1, 40):
        t = i / 20
        lines.append(f"{i},{t},{1.0},{2.0},{math.sin(t)}")
    csv.write_text("\n".join(lines) + "\n")
    nu_csv = tmp_path / "b.csv"
    rows = ["t,nu_cumulative_rational,nu_cumulative_fourier_if_available"]
    for i in range(1, 40):
        t = i / 20
        rows.append(f"{t},{nu(t)},")
    nu_csv.write_text("\n".join(rows) + "\n")
    return ["compare", "--murmur-csv", str(csv), "--nu-csv", str(nu_csv)]


def test_compare_identical_inputs(tmp_path):
    report = tmp_path / "r.json"
    assert main(_write_curves(tmp_path, math.sin) + ["--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["max_abs_deviation"] < 1e-12
    assert abs(rep["pearson_correlation"] - 1.0) < 1e-12


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the row
@pytest.mark.parametrize(
    "nu, extra, code, message, pearson",
    [
        (math.sin, ["--grid-points", "1"], 1, "--grid-points must be at least 2", None),
        (math.sin, ["--grid-points", "0"], 1, "--grid-points must be at least 2", None),
        (lambda t: 0.5, [], 0, "", None),
        (math.sin, ["--grid-points", "2"], 0, "", 1.0),
    ],
    ids=["one-grid-point", "zero-grid-points", "flat-nu-curve", "two-grid-points"],
)
def test_compare_degenerate_grids(nu, extra, code, message, pearson, tmp_path, capsys):
    assert main(_write_curves(tmp_path, nu) + extra) == code
    out, err = capsys.readouterr()
    assert message in err and "Traceback" not in err
    if code == 0:
        rep = json.loads(out, parse_constant=_reject_constant)
        got = rep["pearson_correlation"]
        assert got is None if pearson is None else got == pytest.approx(pearson)
    else:
        assert out == "" and len(err.strip().splitlines()) == 1


def test_murmur_insufficient_cache(tmp_path):
    cache = tmp_path / "small.bin"
    main(["sieve", "--dmax", "400", "--out", str(cache)])
    csv = tmp_path / "m.csv"
    code = main(
        [
            "murmur", "--K", "230", "--H", "30", "--delta", "0", "--E", "0:2",
            "--cache", str(cache), "--out", str(csv),
        ]
    )
    assert code == 3


def test_nu_single_evaluation(tmp_path):
    out = tmp_path / "nu.json"
    code = main(
        ["nu", "--E", "1/4:4", "--qmax", "1000", "--tmax", "1000", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["abs_difference"] < 1e-3
    assert {"a": 2, "q": 1, "side": "lo"} in rep["endpoint_atoms"]
    assert rep["rational_tail_bound"] > 0


def test_nu_grid_to_stdout(capsys):
    assert main(["nu", "--grid", "0:2:5", "--qmax", "200"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,nu_cumulative_rational,nu_cumulative_fourier_if_available"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.5, 1.0, 1.5, 2.0]


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_nu_unbounded_tail_is_valid_json(capsys):
    assert main(["nu", "--E", "1/2:1", "--tmax", "0", "--qmax", "200"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rep["fourier_tail_bound"] is None and rep["fourier_tail_unbounded"] is True
    assert rep["fourier_form_value"] == 0.25
    assert main(["nu", "--E", "1/2:1", "--tmax", "100", "--qmax", "200"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rep["fourier_tail_bound"] > 0 and rep["fourier_tail_unbounded"] is False
    assert main(["nu", "--E", "1/2:inf", "--qmax", "200"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rep["rational_tail_bound"] is None and rep["rational_tail_unbounded"] is True


def test_nu_quartic_weight(tmp_path):
    out = tmp_path / "nu.json"
    assert main(
        ["nu", "--E", "9/10:11/10", "--qmax", "200", "--weight", "quartic", "--out", str(out)]
    ) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["rational_form_value"] - 6 / math.pi**2) < 0.02


def test_propcircle_report(tmp_path):
    out = tmp_path / "pc.json"
    code = main(
        ["propcircle", "--a", "1", "--q", "4", "--x", "50", "--tmult", "60", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["main_term"] == 0.0
    assert abs(rep["lhs"]) < 50 * 4 / 50


def test_window_selftest():
    assert main(["window-selftest"]) == 0


def test_window_selftest_failure_is_a_verification_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "poisson_weight_sum", lambda *args: 1.0)
    assert main(["window-selftest"]) == 4
    out, err = capsys.readouterr()
    assert "FAIL  Poisson identity" in out
    assert err == "error: window self-test failed: Poisson identity\n"


def test_propcircle_reads_a_mod_q(tmp_path):
    # a enters only through a mod q, however large it is
    reports = []
    for a in ("1", str(1 + 10**15 * 7), "99999999999999999999"):
        out = tmp_path / f"pc{a}.json"
        argv = ["propcircle", "--a", a, "--q", "7", "--x", "100", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report.pop("a") == int(a)
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_propcircle_q_beyond_t_max(capsys):
    # t_max = 1200 < q: the tables must reach q as well
    assert main(["propcircle", "--a", "1", "--q", "2003", "--x", "10"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rep["q"] == 2003 and rep["t_max"] == 1200 and math.isfinite(rep["lhs"])


def test_usage_errors():
    assert main(["murmur", "--K", "100"]) == 1
    assert main(["nu"]) == 1
    assert main([]) == 1
    assert main(["murmur", "--K", "100", "--H", "200", "--delta", "0", "--E", "0:2",
                 "--out", "/dev/null"]) == 1  # H >= K rejected


def test_out_of_memory_is_a_capacity_error(tmp_path, capsys, monkeypatch):
    def refuse(bound):
        raise MemoryError(f"cannot allocate {bound} entries")

    monkeypatch.setattr(cli, "sieve_class_numbers", refuse)
    assert main(["sieve", "--dmax", "400", "--out", str(tmp_path / "x.bin")]) == 3
    err = capsys.readouterr().err
    assert "out of memory" in err and "Traceback" not in err


def test_io_error_paths(tmp_path):
    assert main(["sieve", "--dmax", "400", "--out", str(tmp_path / "nodir" / "x.bin")]) == 2


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["murmur", "--K", "230", "--H", "30", "--delta", "0", "--E", "0:inf",
          "--out", "{tmp}/m.csv"], 1, "E must be bounded"),
        (["nu", "--E", "1/2:inf", "--tmax", "100", "--qmax", "200"], 0, ""),
        (["trace", "--k", "12", "--nmax", "5", "--out", "{tmp}/nodir/t.tsv"], 2, "cannot write"),
        (["trace", "--k", "12", "--nmax", "5", "--verify"], 4, "oracle mismatch at n=1"),
        (["trace", "--k", "24", "--nmax", "0", "--verify"], 1, "--nmax must be at least 1"),
        (["trace", "--k", "24", "--nmax", "-1"], 1, "--nmax must be at least 1"),
        # refused from the size estimate, before any table is allocated
        (["murmur", "--K", "1e6", "--H", "10", "--delta", "0", "--E", "0:2",
          "--out", "{tmp}/x.csv"], 3, "bytes of physical memory"),
        (["sieve", "--dmax", "1000000000000", "--out", "{tmp}/x.bin"], 3,
         "bytes of physical memory"),
        (["propcircle", "--a", "1", "--q", "1", "--x", "10", "--tmult", "0"], 1,
         "t_mult * x must be at least 1"),
        (["propcircle", "--a", "1", "--q", "1", "--x", "10", "--tmult", "-1"], 1,
         "t_mult * x must be at least 1"),
        (["nu", "--grid", "0:2:0"], 1, "--grid count must be positive"),
        (["nu", "--E", "0:4", "--tmax", "-5"], 1, "--tmax must be at least 0"),
        (["nu", "--grid", "1:2"], 1, "--grid must look like 'start:end:count'"),
        (["murmur", "--K", "inf", "--H", "10", "--delta", "0", "--E", "0:2",
          "--out", "{tmp}/m.csv"], 1, "argument --K: expected a finite number"),
        (["murmur", "--K", "1e308", "--H", "10", "--delta", "0", "--E", "0:2",
          "--out", "{tmp}/m.csv"], 1, "not a finite float"),
        (["propcircle", "--a", "1", "--q", "1", "--x", "inf"], 1,
         "argument --x: expected a finite number"),
        (["propcircle", "--a", "1", "--q", "1", "--x", "10", "--theta", "nan"], 1,
         "argument --theta: expected a finite number"),
        (["propcircle", "--a", "1", "--q", "1", "--x", "1e308", "--tmult=-1e308"], 1,
         "t_mult * x must be at least 1 and finite"),
        (["nu", "--E", "1/0:2"], 1, "zero denominator"),
        pytest.param(["nu", "--grid", "0:1e400:3"], 1, "--grid ends must be finite",
                     marks=pytest.mark.filterwarnings("error")),
        (["compare", "--murmur-csv", "{tmp}/bare.csv", "--nu-csv", "{tmp}/bare.csv"], 1,
         "bare.csv has no column 'p_over_N'"),
        (["nu", "--E", "0:2", "--grid", "0:2:3"], 1, "not allowed with argument"),
        (["compare", "--murmur-csv", "{tmp}/abc.csv", "--nu-csv", "{tmp}/good.csv"], 1,
         "abc.csv line 3, column 'cumulative_r': expected a finite number, got 'abc'"),
        (["compare", "--murmur-csv", "{tmp}/nan.csv", "--nu-csv", "{tmp}/good.csv"], 1,
         "nan.csv line 2, column 'cumulative_r': expected a finite number, got 'nan'"),
        # refused from the size estimate: build_factor_sieve would refuse these
        # with 1 (beyond 32 bits), so a missing estimate fails the row at once
        (["propcircle", "--a", "1", "--q", "3000000000", "--x", "10"], 3,
         "bytes of physical memory"),
        (["nu", "--E", "1/4:4", "--qmax", "3000000000"], 3, "bytes of physical memory"),
        # the FFT grid of W-hat has about 250 x samples, whatever --tmult is
        (["propcircle", "--a", "1", "--q", "1", "--x", "1e300", "--tmult", "1e-300"], 3,
         "bytes of physical memory"),
    ],
    ids=[
        "murmur-unbounded-E", "nu-unbounded-E", "trace-unwritable-out",
        "trace-verify-mismatch", "trace-verify-zero-nmax", "trace-negative-nmax",
        "murmur-beyond-memory", "sieve-beyond-memory",
        "propcircle-zero-tmult", "propcircle-negative-tmult", "nu-grid-zero-count",
        "nu-negative-tmax",
        "nu-grid-malformed", "murmur-infinite-K", "murmur-K-without-float-N",
        "propcircle-infinite-x", "propcircle-nan-theta", "propcircle-t-span-minus-inf",
        "nu-zero-denominator", "nu-grid-infinite-end", "compare-missing-column",
        "nu-E-and-grid", "compare-non-numeric-cell", "compare-nan-cell",
        "propcircle-q-beyond-memory", "nu-qmax-beyond-memory",
        "propcircle-grid-beyond-memory",
    ],
)
def test_failure_exit_codes(argv, code, message, tmp_path, capsys, monkeypatch):
    # only --verify consults the oracle; this one disagrees at every n
    monkeypatch.setattr(cli, "oracle_trace", lambda k, n: -1)
    # a fixed 16 GiB, so the capacity rows do not depend on the host
    monkeypatch.setattr(cli, "_physical_memory", lambda: 16 << 30)
    (tmp_path / "bare.csv").write_text("x,y\n1,2\n")
    header = "p_over_N,cumulative_r,t,nu_cumulative_rational\n"
    (tmp_path / "good.csv").write_text(header + "0.1,0.5,0.1,0.5\n0.2,0.6,0.2,0.6\n")
    (tmp_path / "abc.csv").write_text(header + "0.1,0.5,0.1,0.5\n0.2,abc,0.2,0.6\n")
    (tmp_path / "nan.csv").write_text(header + "0.1,nan,0.1,0.5\n0.2,0.6,0.2,0.6\n")
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    out, err = capsys.readouterr()
    assert message in err and "Traceback" not in err
    if code == 0:
        rep = json.loads(out, parse_constant=_reject_constant)
        assert rep["fourier_form_value"] is None and rep["rational_form_value"] > 0
    else:
        # one error line; argparse's own usage errors print the usage first
        assert len(err.splitlines()) == 1 or err.startswith("usage:")


def _functions(tree):
    """(qualified name, node) of each function and method of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _exits(node):
    """A ``raise SystemExit`` or a call of ``sys.exit``."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "SystemExit"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) == ("sys", "exit")
    )


def test_one_failure_path():
    # main alone reports failures: only it and argparse's hook write an
    # "error:" line, only the hook raises SystemExit, and commands return nothing
    tree = ast.parse(Path(cli.__file__).read_text())
    printers, exiters, returners = set(), set(), set()
    for name, func in _functions(tree):
        for node in ast.walk(func):
            if isinstance(node, ast.Constant) and str(node.value).startswith("error:"):
                printers.add(name)
            if _exits(node):
                exiters.add(name)
            if isinstance(node, ast.Return) and node.value is not None:
                returners.add(name)
    assert printers == {"main", "_Parser.error"}
    assert exiters == {"_Parser.error"}
    assert not {name for name in returners if name.startswith("cmd_")}


# each subcommand with float options: a valid call, and those options
_FLOAT_OPTIONS = {
    "murmur": (["murmur", "--K", "230", "--H", "30", "--delta", "0", "--E", "0:2",
                "--out", "{tmp}/m.csv"], ["--K", "--H"]),
    "propcircle": (["propcircle", "--a", "1", "--q", "4", "--x", "50", "--tmult", "60"],
                   ["--theta", "--x", "--tmult"]),
}


def test_float_sweep_covers_every_float_option():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            assert action.type is not float, (command, action.option_strings)
            if action.type is cli._finite_float:
                found.setdefault(command, []).append(action.option_strings[0])
    assert found == {command: options for command, (_, options) in _FLOAT_OPTIONS.items()}


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the row
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "0", "-1"])
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_, options) in _FLOAT_OPTIONS.items() for option in options],
    ids=lambda arg: arg.lstrip("-"),
)
def test_float_option_sweep(command, option, value, tmp_path, capsys, monkeypatch):
    # 64 MiB: no row may allocate large tables
    monkeypatch.setattr(cli, "_physical_memory", lambda: 64 << 20)
    base, _ = _FLOAT_OPTIONS[command]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in base] + [f"{option}={value}"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in {0, 1, 2, 3, 4} and "Traceback" not in err
    assert code == 0 or "error: " in err


# interval endpoints at and past the float range, below its normal range,
# NaN, infinite and with a zero denominator
_INTERVALS = ["0:1e308", "1e300:1e308", "0:1" + "0" * 400, "1e-320:1e-310", "nan:1", "0:inf",
              "1/0:2"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the row
@pytest.mark.parametrize(
    "value", _INTERVALS,
    ids=["0:1e308", "1e300:1e308", "0:1e400-exact", "1e-320:1e-310", "nan:1", "0:inf", "1/0:2"],
)
@pytest.mark.parametrize(
    "base, option",
    [
        (["murmur", "--K", "230", "--H", "30", "--delta", "0", "--out", "{tmp}/m.csv"], "--E={}"),
        (["nu", "--qmax", "200", "--tmax", "100"], "--E={}"),
        (["nu", "--qmax", "200", "--tmax", "100", "--weight", "quartic"], "--E={}"),
        (["nu", "--qmax", "200"], "--grid={}:3"),
    ],
    ids=["murmur-E", "nu-E", "nu-quartic-E", "nu-grid"],
)
def test_interval_option_sweep(base, option, value, tmp_path, capsys, monkeypatch):
    # 64 MiB: no row may allocate large tables
    monkeypatch.setattr(cli, "_physical_memory", lambda: 64 << 20)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in base] + [option.format(value)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in {0, 1, 2, 3, 4} and "Traceback" not in err
    assert code == 0 or "error: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["nu", "--E", "1/4:4", "--qmax", "30000"],
        ["nu", "--E", "1/4:4", "--qmax", "100000"],
        ["nu", "--E", "1/4:4", "--qmax", "16", "--tmax", "250000"],
        ["nu", "--E", "1/4:4", "--qmax", "16", "--tmax", "1000000"],
        ["propcircle", "--a", "1", "--q", "1", "--x", "1000"],
        ["propcircle", "--a", "1", "--q", "1", "--x", "10000"],
        ["propcircle", "--a", "1", "--q", "1", "--x", "1", "--tmult", "4000"],
        ["sieve", "--dmax", "1000000", "--out", "{tmp}/cls.bin"],
        ["trace", "--k", "12", "--nmax", "500"],
        ["trace", "--k", "1000", "--nmax", "300"],
        ["murmur", "--K", "3850", "--H", "100", "--delta", "0", "--E", "0:2",
         "--out", "{tmp}/r.csv"],
        ["murmur", "--K", "1500", "--H", "100", "--delta", "0", "--E", "0:2",
         "--domain", "integers", "--out", "{tmp}/r.csv"],
        # the class sieve's head batch dominates a small sieve
        ["sieve", "--dmax", "80000", "--out", "{tmp}/cls.bin"],
        # rows written as they are made: tables, one n and the head batch,
        # which a sieve to 48 000 fills near its 2^16 terms while the tables
        # stay small (k = 2 keeps the traced loop short)
        ["trace", "--k", "2", "--nmax", "12000", "--out", "{tmp}/t.tsv"],
        ["trace", "--k", "1000", "--nmax", "600", "--out", "{tmp}/t.tsv"],
        # the per-point arrays dominate, now that the CSV is not held
        ["murmur", "--K", "3000", "--H", "100", "--delta", "0", "--E", "0:2",
         "--domain", "integers", "--out", "{tmp}/r.csv"],
        # the oracle's series, 5 002 coefficients at k = 24
        ["trace", "--k", "24", "--nmax", "2500", "--verify", "--out", "{tmp}/t.tsv"],
    ],
    ids=["nu-q-3e4", "nu-q-1e5", "nu-t-2.5e5", "nu-t-1e6", "propcircle-x-1e3",
         "propcircle-x-1e4", "propcircle-tmult-4e3", "sieve-1e6", "trace-k12",
         "trace-k1000", "murmur-3850", "murmur-integers-1500", "sieve-8e4",
         "trace-k2-1.2e4", "trace-k1000-600", "murmur-integers-3000", "trace-verify-k24"],
)
def test_memory_estimate_covers_the_peak(argv, monkeypatch, capsys, tmp_path):
    # the estimate the command checks, against the peak of its own run; the
    # 16 MiB block allowance dominates the smaller size of each pair, so the
    # larger one pins the per-entry bytes
    needs = []
    monkeypatch.setattr(cli, "_require_bytes", lambda need, what: needs.append(need))
    # tracemalloc sees this process only, so the elliptic kernel runs all its
    # passes here, and the estimate, then of one pass, meets the whole peak
    monkeypatch.setattr(trace, "_WORKER_TERMS", 1 << 62)
    nu._squarefree_table.cache_clear()
    nu._taper.cache_clear()
    qexp._SERIES.clear()
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs[0]


_MURMUR_600 = ["murmur", "--K", "600", "--H", "60", "--delta", "0", "--E", "0:2", "--out"]


def test_memory_estimate_charges_a_pass_per_worker(monkeypatch, capsys, tmp_path):
    # three usable CPUs and a call large enough for three processes
    needs = []
    monkeypatch.setattr(cli, "_require_bytes", lambda need, what: needs.append(need))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for terms in (1 << 62, 1):
        monkeypatch.setattr(trace, "_WORKER_TERMS", terms)
        assert main(_MURMUR_600 + [str(tmp_path / "r.csv")]) == 0
    # each run checks its estimate before and after it sizes the tables
    assert len(needs) == 4 and needs[2] - needs[0] == 2 * cli._PASS_BYTES


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--dmax", "800000", "--out", "cls.bin"],
        ["trace", "--k", "12", "--nmax", "200000"],
        ["murmur", "--K", "3850", "--H", "100", "--delta", "0", "--E", "0:2", "--out", "r.csv"],
    ],
    ids=["sieve", "trace", "murmur"],
)
def test_memory_estimate_charges_the_sieve_child(argv, monkeypatch, tmp_path):
    # a bound from the sieve's threshold on is charged the forked child's
    # halves, 2 bytes per |D|, beside the same bound when it may not fork;
    # the first estimate refuses, so nothing is built
    needs = []

    def refuse(need, what):
        needs.append((need, float(what.split()[-1])))
        raise cli._Refusal(cli.EXIT_CAPACITY, what)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_require_bytes", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for fork_bound in (1 << 62, classnum._FORK_BOUND):
        monkeypatch.setattr(classnum, "_FORK_BOUND", fork_bound)
        assert main(argv) == cli.EXIT_CAPACITY
    (serial, bound), (forked, same) = needs
    assert same == bound >= classnum._FORK_BOUND
    assert cli._SIEVE_FORK_BYTES == 2
    assert forked - serial == pytest.approx(2 * (bound + 1), rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--k", "12", "--nmax", "200000"],
        ["murmur", "--K", "3850", "--H", "100", "--delta", "0", "--E", "0:2", "--out", "r.csv"],
    ],
    ids=["trace", "murmur"],
)
def test_memory_estimate_of_a_cache_run_charges_no_sieve(argv, monkeypatch, tmp_path):
    # a run from a class cache sieves nothing: its estimate is the same
    # whether or not the sieve would fork from its bound, and lacks the
    # sieve's head batch; the first estimate refuses, so nothing is read
    needs = []

    def refuse(need, what):
        needs.append(need)
        raise cli._Refusal(cli.EXIT_CAPACITY, what)

    cache = tmp_path / "cls.bin"
    save_class_numbers(sieve_class_numbers(800_008), cache)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_require_bytes", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for fork_bound in (classnum._FORK_BOUND, 1 << 62):
        monkeypatch.setattr(classnum, "_FORK_BOUND", fork_bound)
        assert main(argv + ["--cache", str(cache)]) == cli.EXIT_CAPACITY
    assert main(argv) == cli.EXIT_CAPACITY
    forked, serial, sieved = needs
    assert forked == serial
    assert sieved - serial == cli._HEAD_BYTES


def test_murmur_stdout_once_with_workers(monkeypatch, capfd, tmp_path):
    # a forked worker ends without flushing this process's stdio buffers,
    # so text buffered before the kernel runs and the summary print once
    monkeypatch.setattr(trace, "_WORKER_TERMS", 1 << 62)
    assert main(_MURMUR_600 + [str(tmp_path / "serial.csv")]) == 0
    summary = capfd.readouterr().out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(trace, "_WORKER_TERMS", 1)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    out = tmp_path / "stdout"
    with open(out, "w") as stream:  # block-buffered, as stdout into a pipe
        monkeypatch.setattr(sys, "stdout", stream)
        stream.write("buffered before the kernel;")
        assert main(_MURMUR_600 + [str(tmp_path / "forked.csv")]) == 0
    assert len(forks) == 2
    assert out.read_text() == "buffered before the kernel;" + summary
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
