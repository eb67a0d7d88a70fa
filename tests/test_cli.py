import argparse
import ast
import json
import math
from pathlib import Path

import pytest

from murmurations import cli
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
        "trace-verify-mismatch", "murmur-beyond-memory", "sieve-beyond-memory",
        "propcircle-zero-tmult", "propcircle-negative-tmult", "nu-grid-zero-count",
        "nu-grid-malformed", "murmur-infinite-K", "murmur-K-without-float-N",
        "propcircle-infinite-x", "propcircle-nan-theta", "propcircle-t-span-minus-inf",
        "nu-zero-denominator", "nu-grid-infinite-end", "compare-missing-column",
        "nu-E-and-grid", "propcircle-q-beyond-memory", "nu-qmax-beyond-memory",
        "propcircle-grid-beyond-memory",
    ],
)
def test_failure_exit_codes(argv, code, message, tmp_path, capsys, monkeypatch):
    # only --verify consults the oracle; this one disagrees at every n
    monkeypatch.setattr(cli, "oracle_trace", lambda k, n: -1)
    # a fixed 16 GiB, so the capacity rows do not depend on the host
    monkeypatch.setattr(cli, "_physical_memory", lambda: 16 << 30)
    (tmp_path / "bare.csv").write_text("x,y\n1,2\n")
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
