"""Command-line front end: sieving and caching class numbers, trace tables,
statistic runs, measure evaluations, and curve comparisons as CSV/JSON."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .arith import analytic_conductor, build_factor_sieve
from .classnum import load_class_numbers, save_class_numbers, sieve_class_numbers
from .murmur import MurmurationRequest, compute_series
from .nu import Interval, evaluate_nu, nu_rational, prop_circle_check
from .qexp import dimension_supported, oracle_trace
from .trace import TableBoundError, TraceContext, trace_hecke
from .window import cosine_progression_sum, make_window, poisson_weight_sum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Refusal(Exception):
    """A failure the command line names itself, with its exit code; ``main``
    prints the message and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    """argparse type of the float options: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _emit(text: str, path) -> None:
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise _Refusal(EXIT_IO, f"cannot write {path}: {exc}") from None


def _emit_json(payload: dict, path) -> None:
    # allow_nan=False: a NaN or infinity is an error, never invalid JSON
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", path)


# bytes per table entry:
# - sieve: the int32 reduced-form counts of each |D|;
# - trace, murmur: those counts, the int32 6H table, the float64 L(1) table
#   and the int32 factor sieve of n <= |D| / 4, one byte per |D| (no run path
#   reads the class numbers h, which are derived only on demand);
# - nu, propcircle: the int32 factor sieve of each q or t and its int8 mu,
#   float64 coefficient and float64 f tables;
# - propcircle's FFT grid of W-hat: each float64 sample, and the complex rfft
#   of half as many entries
_SIEVE_BYTES = 4
_CONTEXT_BYTES = 4 + 4 + 8 + 1
_MEASURE_BYTES = 4 + 1 + 8 + 8
_GRID_BYTES = 8 + 8


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(bound: float, bytes_per_entry: int) -> None:
    """Refuse with the capacity exit code, before allocating, when tables
    indexed 0..bound cannot fit in physical memory.  The bound may be a
    float, even an infinite one, so that it is checked before ``int()``."""
    need = bytes_per_entry * (bound + 1)
    have = _physical_memory()
    if need > have:
        raise _Refusal(
            EXIT_CAPACITY,
            f"tables up to {bound} need {need} bytes, "
            f"more than the {have} bytes of physical memory",
        )


def _load_context(args, required_bound: int) -> TraceContext:
    _require_memory(required_bound, _CONTEXT_BYTES)
    if getattr(args, "cache", None):
        try:
            table = load_class_numbers(args.cache)
        except OSError as exc:
            raise _Refusal(EXIT_IO, f"cannot read cache: {exc}") from None
        if table.bound < required_bound:
            raise _Refusal(
                EXIT_CAPACITY, f"cache bound {table.bound} below required {required_bound}"
            )
        _require_memory(table.bound, _CONTEXT_BYTES)
    else:
        table = sieve_class_numbers(max(required_bound, 16))
    # only the n of T_n are factored, and the table reaches 4n
    sieve = build_factor_sieve(max(table.bound // 4, 16))
    return TraceContext(table=table, sieve=sieve)


def cmd_sieve(args) -> None:
    _require_memory(args.dmax, _SIEVE_BYTES)
    table = sieve_class_numbers(args.dmax)
    try:
        save_class_numbers(table, args.out)
    except OSError as exc:
        raise _Refusal(EXIT_IO, f"cannot write {args.out}: {exc}") from None
    print(f"wrote class numbers for |D| <= {args.dmax} to {args.out}")


def cmd_trace(args) -> None:
    ctx = _load_context(args, 4 * args.nmax)
    rows = []
    for n in range(1, args.nmax + 1):
        tr = trace_hecke(ctx, args.k, n)
        norm = tr * math.exp(0.5 * (1 - args.k) * math.log(n)) if n > 1 else float(tr)
        if args.verify and dimension_supported(args.k):
            want = oracle_trace(args.k, n)
            if want != tr:
                raise _Refusal(EXIT_VERIFY, f"oracle mismatch at n={n}: {tr} != {want}")
        rows.append(f"{n}\t{tr}\t{_fmt(norm)}\n")
    _emit("".join(rows), args.out)
    if args.verify:
        print(f"verified against q-expansion oracle for k={args.k}", file=sys.stderr)


def _series_csv(series) -> str:
    rows = ["p,p_over_N,numerator_term,denominator_term,cumulative_r\n"]
    for n, x, num, den, r in zip(
        series.n, series.x, series.numerator, series.denominator, series.cumulative
    ):
        rows.append(f"{n},{_fmt(x)},{_fmt(num)},{_fmt(den)},{_fmt(r)}\n")
    return "".join(rows)


def cmd_murmur(args) -> None:
    interval = Interval.parse(args.E)
    req = MurmurationRequest(
        delta=args.delta,
        K=args.K,
        H=args.H,
        E=interval,
        weighting=args.weighting,
        summand_domain=args.domain,
    )
    reach = float(interval.hi) * analytic_conductor(args.K).N
    _require_memory(4 * reach, _CONTEXT_BYTES)
    series = compute_series(req, _load_context(args, 4 * int(reach) + 4))
    _emit(_series_csv(series), args.out)
    summary = {
        "N": series.N,
        "K": args.K,
        "H": args.H,
        "delta": args.delta,
        "weighting": args.weighting,
        "domain": args.domain,
        "points": int(series.n.size),
        "num_total": series.num_total,
        "den_total": series.den_total,
        "den_total_over_sqrtN": series.den_total / math.sqrt(series.N),
        "r_endpoints": {
            "lo": float(series.cumulative[0]) if series.n.size else 0.0,
            "hi": float(series.cumulative[-1]) if series.n.size else 0.0,
        },
    }
    _emit_json(summary, args.summary)


def _parse_grid(text: str) -> np.ndarray:
    """The points of a --grid start:end:count argument."""
    usage = f"--grid must look like 'start:end:count', got {text!r}"
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(usage)
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(usage) from None
    if count < 1:
        raise ValueError(f"--grid count must be positive, got {count}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"--grid ends must be finite, got {text!r}")
    return np.linspace(start, end, count)


def cmd_nu(args) -> None:
    grid = _parse_grid(args.grid) if args.grid else None
    size = max(args.qmax, args.tmax or 1, 16)
    _require_memory(size, _MEASURE_BYTES)
    sieve = build_factor_sieve(size)
    rows = []
    if grid is not None:
        for t in grid:
            if t <= 0:
                rows.append((t, 0.0, ""))
                continue
            part = nu_rational(Interval(Fraction(0), float(t)), args.qmax, sieve, weight=args.weight)
            rows.append((t, part.value, ""))
        lines = ["t,nu_cumulative_rational,nu_cumulative_fourier_if_available"]
        lines += [f"{_fmt(t)},{_fmt(v)},{other}" for t, v, other in rows]
        _emit("\n".join(lines) + "\n", args.out)
        return
    interval = Interval.parse(args.E)
    ev = evaluate_nu(interval, args.qmax, args.tmax, sieve, weight=args.weight)
    report = {
        "E": [str(interval.lo), str(interval.hi)],
        "weight": args.weight,
        "q_max": ev.q_max,
        "t_max": ev.t_max,
        "rational_form_value": ev.rational_form_value,
        "fourier_form_value": ev.fourier_form_value,
        "rational_tail_bound": ev.rational_tail_bound,
        "fourier_tail_bound": ev.fourier_tail_bound,
        "abs_difference": None
        if ev.fourier_form_value is None
        else abs(ev.rational_form_value - ev.fourier_form_value),
        "endpoint_atoms": [
            {"a": a, "q": q, "side": side} for a, q, side in ev.endpoint_terms
        ],
    }
    for kind in ("rational", "fourier"):
        # an infinite bound (t_max = 0, E up to inf) is written as null plus a flag
        unbounded = report[f"{kind}_tail_bound"] == math.inf
        report[f"{kind}_tail_unbounded"] = unbounded
        if unbounded:
            report[f"{kind}_tail_bound"] = None
    _emit_json(report, args.out)


def _read_csv(path, xcol, ycol):
    xs, ys = [], []
    with open(path) as f:
        header = f.readline().strip().split(",")
        for col in (xcol, ycol):
            if col not in header:
                raise ValueError(f"{path} has no column {col!r}")
        xi, yi = header.index(xcol), header.index(ycol)
        for line in f:
            parts = line.strip().split(",")
            if len(parts) <= max(xi, yi) or not parts[yi]:
                continue
            xs.append(float(parts[xi]))
            ys.append(float(parts[yi]))
    return np.asarray(xs), np.asarray(ys)


def _step_sample(xs, ys, grid):
    """The step curve through (xs, ys) at each grid point: the y of the last
    x <= the point, 0 left of the first x."""
    idx = np.searchsorted(xs, grid, side="right") - 1
    return np.where(idx >= 0, ys[idx], 0.0)


def cmd_compare(args) -> None:
    if args.grid_points < 2:
        raise _Refusal(EXIT_USAGE, "--grid-points must be at least 2")
    mx, mr = _read_csv(args.murmur_csv, "p_over_N", "cumulative_r")
    nx, nv = _read_csv(args.nu_csv, "t", "nu_cumulative_rational")
    if mx.size == 0 or nx.size == 0:
        raise _Refusal(EXIT_USAGE, "empty input curves")
    lo = max(mx.min(), nx.min())
    hi = min(mx.max(), nx.max())
    if not lo < hi:
        raise _Refusal(EXIT_USAGE, "curve ranges do not overlap")
    sign = -1.0 if args.delta else 1.0
    n = args.grid_points
    # the grid, then x = 2 when both curves reach it
    points = np.linspace(lo, hi, n)
    if lo <= 2.0 <= hi:
        points = np.append(points, 2.0)
    r = _step_sample(mx, mr, points)
    nu_vals = sign * _step_sample(nx, nv, points)
    dev = np.abs(r - nu_vals)
    # a flat curve has no correlation: null, where corrcoef would give NaN
    pearson = None
    if np.ptp(r[:n]) > 0 and np.ptp(nu_vals[:n]) > 0:
        pearson = float(np.corrcoef(r[:n], nu_vals[:n])[0, 1])
    report = {
        "grid_points": n,
        "range": [float(lo), float(hi)],
        "max_abs_deviation": float(dev[:n].max()),
        "deviation_at_2": float(dev[n]) if dev.size > n else None,
        "pearson_correlation": pearson,
    }
    _emit_json(report, args.out)


def cmd_propcircle(args) -> None:
    # the t-sum runs to tmult * x and reads the tables at q too; the grid has
    # about tmult * x + max(tmult, 250) * x samples (``WindowFunction.hat_grid``)
    t_span = args.tmult * args.x
    _require_memory(max(t_span, args.q), _MEASURE_BYTES)
    _require_memory(t_span + max(t_span, 250 * args.x), _GRID_BYTES)
    sieve = build_factor_sieve(max(int(max(t_span, 0)) + 1, args.q, 16))
    window = make_window()
    chk = prop_circle_check(args.a, args.q, args.theta, args.x, window, sieve, t_mult=args.tmult)
    report = {
        "a": chk.a,
        "q": chk.q,
        "theta": chk.theta,
        "x": chk.x,
        "t_max": chk.t_max,
        "lhs": chk.lhs,
        "main_term": chk.main_term,
        "residual": chk.residual,
        "hat_error": chk.hat_error,
    }
    _emit_json(report, args.out)


def cmd_window_selftest(args) -> None:
    w = make_window()
    checks = []
    checks.append(("W(0) = 1", abs(w.value(0.0) - 1.0) < 1e-10))
    checks.append(("W(1/2) = 1/2", abs(w.value(0.5) - 0.5) < 1e-10))
    checks.append(("W(1) = 0", w.value(1.0) == 0.0))
    checks.append(
        ("partition W(x) + W(1-x) = 1", abs(w.value(0.25) + w.value(0.75) - 1.0) < 1e-10)
    )
    checks.append(("hat(0) = 1", abs(w.hat(0.0) - 1.0) < 1e-10))
    checks.append(("hat evenness", abs(w.hat(1.7) - w.hat(-1.7)) < 1e-12))
    direct = cosine_progression_sum(w, 40, 16.0, 0.0)
    checks.append(("lattice sum at phi = 0 equals h", abs(direct - 16.0) < 1e-9))
    lhs = cosine_progression_sum(w, 38, 12.0, 0.31)
    rhs = poisson_weight_sum(w, 38, 12.0, 0.31)
    checks.append(("Poisson identity", abs(lhs - rhs) < 1e-7))
    for x in (1.5, 250.0):
        # the FFT grid the circle check uses, against the panel quadrature
        t = np.linspace(0, int(120 * x), 2001).astype(np.int64)
        grid = w.hat_grid(x, int(t[-1]))[t]
        gap = float(np.max(np.abs(grid - w.hat_many(t / x))))
        checks.append((f"FFT grid = quadrature at x = {x:g}", gap < 1e-13))
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    failed = [name for name, passed in checks if not passed]
    if failed:
        raise _Refusal(EXIT_VERIFY, f"window self-test failed: {'; '.join(failed)}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="murmur", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="sieve class numbers and write the binary cache")
    p.add_argument("--dmax", type=int, required=True, help="largest |D| to cover")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("trace", help="exact Hecke traces as TSV (n, trace, normalized)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--cache")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true", help="check against the q-expansion oracle")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("murmur", help="statistic run: per-prime CSV plus JSON summary")
    p.add_argument("--K", type=_finite_float, required=True)
    p.add_argument("--H", type=_finite_float, required=True)
    p.add_argument("--delta", type=int, choices=(0, 1), required=True)
    p.add_argument("--E", required=True, help="interval lo:hi, exact rationals allowed (1/4:4)")
    p.add_argument("--weighting", choices=("unit", "sqrt_p"), default="unit")
    p.add_argument("--domain", choices=("primes", "integers"), default="primes")
    p.add_argument("--cache")
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    p.set_defaults(func=cmd_murmur)

    p = sub.add_parser("nu", help="limit-measure evaluation or cumulative curve CSV")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--E", help="interval lo:hi")
    mode.add_argument("--grid", help="cumulative grid start:end:count")
    p.add_argument("--qmax", type=int, default=5000)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--weight", choices=("cubic", "quartic"), default="cubic")
    p.add_argument("--out")
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("compare", help="deviation/correlation report between the two curves")
    p.add_argument("--murmur-csv", required=True)
    p.add_argument("--nu-csv", required=True)
    p.add_argument("--delta", type=int, choices=(0, 1), default=0)
    p.add_argument("--grid-points", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("propcircle", help="main-term check of the exponential sum")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta", type=_finite_float, default=0.0)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--tmult", type=_finite_float, default=120.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_propcircle)

    p = sub.add_parser("window-selftest", help="identity checks for the smooth window")
    p.set_defaults(func=cmd_window_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # the one failure path: every error leaves here as one line and a code
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except SystemExit as exc:  # argparse, after _Parser.error or --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _Refusal as exc:
        code, message = exc.code, str(exc)
    except TableBoundError as exc:  # a ValueError, so before ValueError
        code, message = EXIT_CAPACITY, str(exc)
    except MemoryError as exc:
        code, message = EXIT_CAPACITY, f"out of memory: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, str(exc)
    except ValueError as exc:
        code, message = EXIT_USAGE, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
