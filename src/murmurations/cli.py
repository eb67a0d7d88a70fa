"""Command-line front end: sieving and caching class numbers, trace tables,
statistic runs, measure evaluations, and curve comparisons as CSV/JSON."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .arith import analytic_conductor, build_factor_sieve
from .classnum import load_class_numbers, save_class_numbers, sieve_class_numbers
from .murmur import MurmurationRequest, compute_series
from .nu import Interval, evaluate_nu, nu_rational, prop_circle_check
from .qexp import oracle_trace
from .trace import TableBoundError, TraceContext, _workers, trace_hecke
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


def _emit(lines, path) -> None:
    """Write each line as it is made, to path, opened once, or to stdout when
    no path is given.  A failure while the lines are made leaves those
    written before it."""
    if not path:
        sys.stdout.writelines(lines)
        return
    try:
        f = open(path, "w")
    except OSError as exc:
        raise _Refusal(EXIT_IO, f"cannot write {path}: {exc}") from None
    with f:
        f.writelines(lines)


def _emit_json(payload: dict, path) -> None:
    # allow_nan=False: a NaN or infinity is an error, never invalid JSON
    _emit([json.dumps(payload, indent=2, allow_nan=False) + "\n"], path)


# bytes per table entry:
# - sieve: the two int32 halves of the reduced-form counts, which hold only
#   the |D| = 0, 3 mod 4, so 2 bytes per |D|, and the u32 cache payload
#   interleaved from them, 2 more (4.3 and 4.1 bytes per |D| measured at
#   10^6 and 4*10^6, with the command's own allocations);
# - trace, murmur: the halves of those counts and of 6H (2 + 2), the float64
#   L(1) table of every |D| (divided in place in blocks, with no
#   table-sized temporary) and the int32 factor sieve of n <= |D| / 4, one
#   byte per |D| (no run path reads the class numbers h, which are derived
#   only on demand); trace, which writes each row as it is made, adds the
#   integers of one n, 2 sqrt(n_max) + _TRACE_VALUES values of at most
#   (k - 1)/2 log2(4 n_max) bits: the Lucas values of every t, the powers
#   of n, the products and the text of the row (6 to 10 values past
#   2 sqrt(n) measured at k = 10^3 to 10^5; at small k the objects' own
#   overhead, 27 kB at k = 12, n = 20 000, is inside the command's
#   allowance); trace --verify adds the oracle's build, _SERIES_COPIES
#   times the bytes of its coefficients (21-30 measured from an empty
#   store, 5.44 MB at k = 24 and n_max = 4 999, whose series holds 10^4
#   coefficients, the oracle's limit); murmur adds the kernel's arrays of
#   one pass per worker process (2.6 MB measured with 16 384 points; a
#   child allocates only its passes and its rows) and, per summation
#   point, the two elliptic rows and the series arrays (about 95 bytes
#   measured, 170 while the CSV was joined before it was written);
# - sieve, trace, murmur: and the command's own allocations, the parser and
#   the lazy imports (0.2-0.3 MB measured), and one batch of the class
#   sieve's heads, about 2^16 terms (1.23 MB measured);
# - nu, propcircle: the int32 factor sieve of each q or t, its int64 primes
#   (under one byte per entry) and its int8 mu, float64 coefficient and
#   float64 f tables, which stay; the walk builds them in blocks of 2^16 q,
#   whose 5 MB the block allowance covers, so it peaks at the tables (26.2
#   and 22.7 bytes per q measured with the sieve at 10^6 and 4*10^6);
# - nu's atom sum, per q: its own sieve and walk, the exact a-bounds and
#   about 0.29 ln q + 0.85 divisor pairs with their zeta tails (220, 243
#   and 275 bytes measured at q = 10^4, 10^5, 10^6);
# - nu's Fourier sum, per t: taper, coefficients and integrals (43-50);
# - propcircle, per t: the t and phase arrays and the products with the
#   grid; per FFT grid sample: the float64 sample and the complex rfft of
#   half as many, on a length next_fast_len rounds up; per node of the
#   panel quadrature at the 33 probes (nu._HAT_PROBES): the nodes, their
#   weights and the window values with their temporaries (49.5 bytes
#   measured); and scipy.fft, which the FFT grid imports (14.5 MB);
# - and an allowance for the blocks of the walk, the window's blocks of
#   4096 rows (about 10 MiB) and hat_many's cosine blocks (1 MiB).
_SIEVE_BYTES = 2 + 2
_CONTEXT_BYTES = 2 + 2 + 8 + 1
_TRACE_VALUES = 16
_SERIES_COPIES = 32
_PASS_BYTES = 3 << 20
_POINT_BYTES = 128
_RUN_BYTES = 1 << 19
_HEAD_BYTES = 3 << 19
_MEASURE_BYTES = 4 + 1 + 1 + 8 + 8
_ATOM_BYTES, _ATOM_LOG_BYTES = 120, 13
_FOURIER_BYTES = 48
_CHECK_BYTES = 32
_GRID_BYTES = 18
_PROBE_BYTES = 56
_FFT_IMPORT_BYTES = 16 << 20
_BLOCK_BYTES = 16 << 20


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_bytes(need: float, what: str) -> None:
    """Refuse with the capacity exit code, before allocating, unless an
    estimate of need bytes is shown to fit in physical memory.  The estimate
    may be a float, even an infinite or NaN one, so that it is checked
    before ``int()``."""
    have = _physical_memory()
    if not need <= have:
        raise _Refusal(
            EXIT_CAPACITY,
            f"{what} need {need:.0f} bytes, more than the {have} bytes of physical memory",
        )


def _require_memory(bound: float, bytes_per_entry: int, extra: float = 0) -> None:
    """Refuse when tables indexed 0..bound, the command's own allocations,
    one head batch of the class sieve and extra bytes cannot fit in
    physical memory."""
    need = bytes_per_entry * (bound + 1) + _RUN_BYTES + _HEAD_BYTES + extra
    _require_bytes(need, f"tables up to {bound}")


def _measure_bytes(size: float, q_max: float = 0, t_max: float = 0, extra: float = 0) -> float:
    """Peak bytes of the nu and propcircle tables: the factor sieve and the
    kept tables to size, plus the atom sum to q_max, the Fourier sum to
    t_max and extra bytes."""
    atoms = q_max * (_ATOM_BYTES + _ATOM_LOG_BYTES * math.log(max(q_max, 1)))
    return _BLOCK_BYTES + _MEASURE_BYTES * size + atoms + _FOURIER_BYTES * t_max + extra


def _load_context(args, required_bound: int, extra: float) -> TraceContext:
    _require_memory(required_bound, _CONTEXT_BYTES, extra)
    if getattr(args, "cache", None):
        try:
            table = load_class_numbers(args.cache)
        except OSError as exc:
            raise _Refusal(EXIT_IO, f"cannot read cache: {exc}") from None
        if table.bound < required_bound:
            raise _Refusal(
                EXIT_CAPACITY, f"cache bound {table.bound} below required {required_bound}"
            )
        _require_memory(table.bound, _CONTEXT_BYTES, extra)
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
    _emit([f"wrote class numbers for |D| <= {args.dmax} to {args.out}\n"], None)


def _normalized(tr: int, k: int, n: int) -> float:
    """tr / n^((k-1)/2); a trace beyond the float range goes through log|tr|."""
    scale = 0.5 * (1 - k) * math.log(n)
    try:
        return tr * math.exp(scale)
    except OverflowError:
        norm = math.exp(math.log(abs(tr)) + scale)
        return -norm if tr < 0 else norm


def _trace_rows(ctx: TraceContext, k: int, n_max: int, verify: bool):
    """The TSV row of each n, computed, verified and formatted one at a time."""
    for n in range(1, n_max + 1):
        tr = trace_hecke(ctx, k, n)
        if verify and tr != (want := oracle_trace(k, n)):
            raise _Refusal(EXIT_VERIFY, f"oracle mismatch at n={n}: {tr} != {want}")
        # Decimal prints every digit of tr: str() stops at the interpreter's
        # limit on int-to-str conversion (4300 digits by default)
        yield f"{n}\t{Decimal(tr)}\t{_fmt(_normalized(tr, k, n))}\n"


def cmd_trace(args) -> None:
    # every refusal comes before a table is built or the output is opened
    if args.verify:
        # refuses a weight or an n beyond the oracle's reach before any trace
        # is computed, and builds the whole series in one go
        oracle_trace(args.k, max(args.nmax, 1))
    if args.nmax < 1:
        raise _Refusal(EXIT_USAGE, "--nmax must be at least 1")
    if args.k < 2 or args.k % 2:
        raise _Refusal(EXIT_USAGE, "--k must be an even integer, at least 2")
    bits = (args.k - 1) / 2 * math.log2(4 * args.nmax)
    extra = (2 * math.sqrt(args.nmax) + _TRACE_VALUES) * bits / 8
    if args.verify:
        # the oracle's series, 2 n_max + 2 coefficients at k = 24 (fewer at
        # the other weights), and the products that build them
        extra += _SERIES_COPIES * (2 * args.nmax + 2) * bits / 8
    ctx = _load_context(args, 4 * args.nmax, extra)
    _emit(_trace_rows(ctx, args.k, args.nmax, args.verify), args.out)
    if args.verify:
        print(f"verified against q-expansion oracle for k={args.k}", file=sys.stderr)


def _series_csv(series):
    yield "p,p_over_N,numerator_term,denominator_term,cumulative_r\n"
    for n, x, num, den, r in zip(
        series.n, series.x, series.numerator, series.denominator, series.cumulative
    ):
        yield f"{n},{_fmt(x)},{_fmt(num)},{_fmt(den)},{_fmt(r)}\n"


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
    points = reach
    if args.domain == "primes" and reach >= 3:
        points = 1.26 * reach / math.log(reach)  # pi(x) < 1.26 x / ln x (Rosser-Schoenfeld)
    # one kernel pass per worker process; a point has at most 2 sqrt(reach) terms
    terms = 2 * points * math.sqrt(reach)
    workers = _workers(int(terms)) if math.isfinite(terms) else 1
    extra = _PASS_BYTES * workers + _POINT_BYTES * points
    _require_memory(4 * reach, _CONTEXT_BYTES, extra)
    series = compute_series(req, _load_context(args, 4 * int(reach) + 4, extra))
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


def _grid_rows(grid, q_max: int, sieve, weight: str):
    """The cumulative curve nu([0, t]) at each grid point, one CSV row at a
    time; the Fourier column is left empty."""
    yield "t,nu_cumulative_rational,nu_cumulative_fourier_if_available\n"
    for t in grid:
        v = 0.0
        if t > 0:
            v = nu_rational(Interval(Fraction(0), float(t)), q_max, sieve, weight=weight).value
        yield f"{_fmt(t)},{_fmt(v)},\n"


def cmd_nu(args) -> None:
    if args.tmax is not None and args.tmax < 0:
        raise _Refusal(EXIT_USAGE, "--tmax must be at least 0")
    grid = _parse_grid(args.grid) if args.grid else None
    size = max(args.qmax, args.tmax or 1, 16)
    _require_bytes(_measure_bytes(size, args.qmax, args.tmax or 0), f"tables up to {size}")
    sieve = build_factor_sieve(size)
    if grid is not None:
        _emit(_grid_rows(grid, args.qmax, sieve, args.weight), args.out)
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
        # an infinite bound (t_max = 0; E.hi = inf, or E.hi^(w/2) past the
        # float range) is written as null plus a flag
        unbounded = report[f"{kind}_tail_bound"] == math.inf
        report[f"{kind}_tail_unbounded"] = unbounded
        if unbounded:
            report[f"{kind}_tail_bound"] = None
    _emit_json(report, args.out)


def _read_csv(path, xcol, ycol):
    """Two columns as float arrays, skipping rows without a y; a cell that
    is not a finite number is a usage error that names its place."""
    xs, ys = [], []
    with open(path) as f:
        header = f.readline().strip().split(",")
        for col in (xcol, ycol):
            if col not in header:
                raise ValueError(f"{path} has no column {col!r}")
        xi, yi = header.index(xcol), header.index(ycol)
        for line_no, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if len(parts) <= max(xi, yi) or not parts[yi]:
                continue
            for col, i, values in ((xcol, xi, xs), (ycol, yi, ys)):
                try:
                    values.append(_finite_float(parts[i]))
                except argparse.ArgumentTypeError as exc:
                    raise ValueError(f"{path} line {line_no}, column {col!r}: {exc}") from None
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
    # at most (tmult + max(tmult, 250)) (x + 3) samples and the probes at
    # most 16 (tmult + 5) nodes, 16 per panel (``WindowFunction.hat_grid``,
    # ``hat_many``)
    t_span = args.tmult * args.x
    size = max(t_span + 1, args.q, 16)
    grid = (args.tmult + max(args.tmult, 250)) * (args.x + 3)
    nodes = 16 * max(16, args.tmult + 5)
    extra = _CHECK_BYTES * t_span + _GRID_BYTES * grid + _PROBE_BYTES * nodes + _FFT_IMPORT_BYTES
    _require_bytes(_measure_bytes(size, extra=extra), f"tables up to {size:.0f}")
    sieve = build_factor_sieve(int(size))
    window = make_window()
    chk = prop_circle_check(args.a, args.q, args.theta, args.x, window, sieve, t_mult=args.tmult)
    _emit_json(dataclasses.asdict(chk), args.out)


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
    _emit((f"{'PASS' if passed else 'FAIL'}  {name}\n" for name, passed in checks), None)
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
