import math
import os
from fractions import Fraction

import numpy as np
import pytest

from murmurations.murmur import (
    MurmurationRequest,
    _hyperbolic_terms,
    compute_series,
    cumulative_curve,
    dimension_S_k,
)
from murmurations import murmur, trace
from murmurations.arith import analytic_conductor
from murmurations.classnum import sieve_class_numbers
from murmurations.nu import Interval, integer_murmuration_nu
from murmurations.qexp import oracle_trace
from murmurations.trace import TableBoundError, progression_weights, trace_hecke


def test_dimension_formula(ctx_small):
    assert dimension_S_k(12) == 1
    assert dimension_S_k(14) == 0
    assert dimension_S_k(24) == 2
    assert dimension_S_k(2) == 0 and dimension_S_k(0) == 0
    for k in range(4, 62, 2):
        assert dimension_S_k(k) == trace_hecke(ctx_small, k, 1)
    with pytest.raises(ValueError):
        dimension_S_k(13)


def test_request_validation():
    E = Interval(0.5, 2.0)
    with pytest.raises(ValueError):
        MurmurationRequest(delta=2, K=60.0, H=20.0, E=E)
    with pytest.raises(ValueError):
        MurmurationRequest(delta=0, K=60.0, H=70.0, E=E)
    with pytest.raises(ValueError):
        MurmurationRequest(delta=0, K=60.0, H=20.0, E=E, weighting="cube")


def test_exchange_of_summation_vs_naive(ctx_small):
    """Optimized numerator (k-sum inside the t-sum) against the direct
    (p, k) double loop through exact traces."""
    req = MurmurationRequest(delta=0, K=60.0, H=20.0, E=Interval(0.5, 2.0))
    series = compute_series(req, ctx_small)
    k_min, m = progression_weights(60.0, 20.0, 0)
    ks = [k_min + 4 * j for j in range(m)]
    for i, p in enumerate(series.n):
        p = int(p)
        naive = math.log(p) * math.fsum(
            trace_hecke(ctx_small, k, p) * math.exp(0.5 * (1 - k) * math.log(p))
            for k in ks
        )
        assert abs(series.numerator[i] - naive) <= 1e-6 * max(1e-12, abs(naive))


def test_single_prime_window_matches_oracle(ctx_small):
    # K = 16, H = 4 window holds k in {12, 16, 20}; E isolates p = 5
    req = MurmurationRequest(delta=0, K=16.0, H=4.0, E=Interval(3.0, 4.0))
    series = compute_series(req, ctx_small)
    assert list(series.n) == [5]
    want = math.log(5) * math.fsum(
        oracle_trace(k, 5) * 5.0 ** (0.5 * (1 - k)) for k in (12, 16, 20)
    )
    assert abs(series.numerator[0] - want) <= 1e-9 * abs(want)
    assert series.denominator[0] == math.log(5) * 3  # three 1-dim spaces


def test_integers_domain_vs_naive(ctx_small):
    """Full trace formula path (square and divisor pieces) against exact
    traces for every integer in the window."""
    req = MurmurationRequest(
        delta=1, K=40.0, H=12.0, E=Interval(1.0, 4.0), summand_domain="integers"
    )
    series = compute_series(req, ctx_small)
    assert series.n.size > 20
    k_min, m = progression_weights(40.0, 12.0, 1)
    ks = [k_min + 4 * j for j in range(m)]
    for i, n in enumerate(series.n):
        n = int(n)
        naive = math.log(n) * math.fsum(
            trace_hecke(ctx_small, k, n) * math.exp(0.5 * (1 - k) * math.log(n))
            for k in ks
        )
        assert abs(series.numerator[i] - naive) <= 1e-9 * max(1.0, abs(naive)), n


def test_delta_sign_flip(smoke_context):
    E = Interval(Fraction(1, 2), Fraction(3, 2))
    r_end = {}
    for delta in (0, 1):
        req = MurmurationRequest(delta=delta, K=600.0, H=60.0, E=E)
        series = compute_series(req, smoke_context)
        r_end[delta] = cumulative_curve(series, [1.5])[0][1]
    assert r_end[0] > 0 > r_end[1]
    # flipping delta nearly negates the curve
    assert abs(r_end[0] + r_end[1]) < abs(r_end[0])


def test_scale_covariance(smoke_context):
    req = MurmurationRequest(delta=0, K=600.0, H=60.0, E=Interval(Fraction(0), Fraction(1)))
    series = compute_series(req, smoke_context)
    doubled = type(series)(
        N=series.N,
        delta=series.delta,
        weighting=series.weighting,
        summand_domain=series.summand_domain,
        n=series.n,
        x=series.x,
        numerator=2.0 * series.numerator,
        denominator=2.0 * series.denominator,
        cumulative=series.cumulative,
    )
    grid = [0.25, 0.5, 0.75, 1.0]
    orig = cumulative_curve(series, grid)
    scaled = cumulative_curve(doubled, grid)
    for (t1, r1), (t2, r2) in zip(orig, scaled):
        assert t1 == t2 and abs(r1 - r2) < 1e-13 * max(1.0, abs(r1))


def test_split_invariance(smoke_context, monkeypatch):
    # each n's elliptic sum is the same sequence of operations on its own
    # values, so pieces, subsets, single n and short passes reproduce the
    # whole bitwise, and so does each row of the call with both windows
    l1 = smoke_context.l1_array()
    primes = smoke_context.sieve.primes
    ns = primes[primes <= 2 * analytic_conductor(600).N]
    rng = np.random.default_rng(8)
    windows = [progression_weights(600.0, 60.0, delta) for delta in (0, 1)]
    both = trace.elliptic_sums(ns, windows, l1)
    assert both.shape == (2, ns.size)
    for delta, window in enumerate(windows):
        whole = trace.elliptic_sums(ns, [window], l1)[0]
        assert np.array_equal(both[delta], whole)
        cuts = [0, 1, 2, 3, 97, 98, 311, ns.size - 1, ns.size]
        for sums in (
            lambda part: trace.elliptic_sums(part, [window], l1)[0],
            lambda part: trace.elliptic_sums(part, windows, l1)[delta],
        ):
            pieces = [sums(ns[a:b]) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(pieces), whole)
            subset = np.sort(rng.choice(ns.size, size=ns.size // 3, replace=False))
            assert np.array_equal(sums(ns[subset]), whole[subset])
            for i in [*range(0, ns.size, 10), ns.size - 1]:
                assert np.array_equal(sums(ns[i : i + 1]), whole[i : i + 1])
            with monkeypatch.context() as patch:
                patch.setattr(trace, "_PASS_POINTS", 7)
                assert np.array_equal(sums(ns), whole)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_invariance(smoke_context, monkeypatch, workers):
    # each worker process sums its share of the n alone, so the rows of any
    # worker count are those of one process, bitwise
    l1 = smoke_context.l1_array()
    primes = smoke_context.sieve.primes
    ns = primes[primes <= 2 * analytic_conductor(600).N]
    windows = [progression_weights(600.0, 60.0, delta) for delta in (0, 1)]
    whole = trace._passes(ns, windows, l1)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(trace, "_WORKER_TERMS", 1)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert np.array_equal(trace.elliptic_sums(ns, windows, l1), whole)
    assert len(forks) == workers - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # no descriptor left open either
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_empty_class_raises_beside_a_working_one(smoke_context):
    # K = 600, H = 1 holds the weight 600 of class 0 and no weight of class 1
    assert progression_weights(600.0, 1.0, 1) == (602, 0)
    E = Interval(Fraction(0), Fraction(2))
    series = compute_series(MurmurationRequest(delta=0, K=600.0, H=1.0, E=E), smoke_context)
    assert series.n.size > 0 and np.all(np.isfinite(series.numerator))
    with pytest.raises(ValueError, match="no admissible weights"):
        compute_series(MurmurationRequest(delta=1, K=600.0, H=1.0, E=E), smoke_context)


def test_elliptic_rows_shared_within_a_context(smoke_context, monkeypatch):
    # one kernel call serves both classes and both weightings of one
    # (K, H, E, domain); every series is what a fresh context computes
    E = Interval(Fraction(0), Fraction(2))
    reqs = [
        MurmurationRequest(delta=0, K=600.0, H=60.0, E=E),
        MurmurationRequest(delta=1, K=600.0, H=60.0, E=E),
        MurmurationRequest(delta=0, K=600.0, H=60.0, E=E, weighting="sqrt_p"),
    ]

    def fresh():
        return trace.TraceContext(table=smoke_context.table, sieve=smoke_context.sieve)

    calls = []

    def counted(*args):
        calls.append(args)
        return trace.elliptic_sums(*args)

    alone = [compute_series(req, fresh()) for req in reqs]
    for order in ([0, 1, 2], [1, 2, 0]):
        ctx = fresh()
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(murmur, "elliptic_sums", counted)
            shared = {i: compute_series(reqs[i], ctx) for i in order}
        assert len(calls) == 1
        for i, series in shared.items():
            for name in ("n", "numerator", "denominator", "cumulative"):
                assert np.array_equal(getattr(series, name), getattr(alone[i], name)), (i, name)


def test_series_never_derives_class_numbers(smoke_context):
    # a figure-style solve reads only 6H, so the Moebius pass behind h never runs
    table = sieve_class_numbers(smoke_context.table.bound)
    ctx = trace.TraceContext(table=table, sieve=smoke_context.sieve)
    E = Interval(Fraction(0), Fraction(2))
    for delta in (0, 1):
        compute_series(MurmurationRequest(delta=delta, K=600.0, H=60.0, E=E), ctx)
    assert "h" not in table.__dict__


def test_sqrt_p_weighting(smoke_context):
    E = Interval(Fraction(0), Fraction(1))
    base = compute_series(
        MurmurationRequest(delta=0, K=600.0, H=60.0, E=E), smoke_context
    )
    boosted = compute_series(
        MurmurationRequest(delta=0, K=600.0, H=60.0, E=E, weighting="sqrt_p"),
        smoke_context,
    )
    assert np.allclose(boosted.numerator, base.numerator * np.sqrt(base.n), rtol=1e-12)
    assert np.array_equal(boosted.denominator, base.denominator)


def test_cumulative_curve_empty_range(smoke_context):
    req = MurmurationRequest(delta=0, K=600.0, H=60.0, E=Interval(Fraction(0), Fraction(2)))
    series = compute_series(req, smoke_context)
    curve = cumulative_curve(series, [1e-6, 1.0])
    assert curve[0][1] == 0.0  # left of the first prime
    assert curve[1][1] != 0.0
    with pytest.raises(ValueError):
        cumulative_curve(series, [0.5, 0.5])
    with pytest.raises(ValueError):
        cumulative_curve(series, [-1.0, 0.5])


def test_cumulative_curve_matches_point_loop(smoke_context):
    # the per-point loop, same operation order: the values are bitwise equal
    req = MurmurationRequest(delta=1, K=600.0, H=60.0, E=Interval(Fraction(0), Fraction(2)))
    series = compute_series(req, smoke_context)
    grid = np.concatenate(([1e-6], np.linspace(0.01, 3.0, 301)))
    cn, cd = np.cumsum(series.numerator), np.cumsum(series.denominator)
    want = []
    for t, i in zip(grid, np.searchsorted(series.x, grid, side="right") - 1):
        r = 0.0 if i < 0 or cd[i] == 0 else float(t * math.sqrt(series.N) * cn[i] / cd[i])
        want.append((float(t), r))
    assert cumulative_curve(series, grid) == want


def test_table_bound_error(ctx_small):
    req = MurmurationRequest(delta=0, K=900.0, H=60.0, E=Interval(Fraction(0), Fraction(2)))
    with pytest.raises(TableBoundError) as info:
        compute_series(req, ctx_small)
    assert info.value.required > ctx_small.table.bound


def test_integer_murmuration_nu_examples():
    assert integer_murmuration_nu(Interval(Fraction(1, 4), Fraction(4))) == 1.0625
    assert integer_murmuration_nu(Interval(Fraction(2), Fraction(3))) == 0.0
    assert integer_murmuration_nu(Interval(Fraction(9, 10), Fraction(11, 10))) == 1.0


def test_integer_domain_approaches_integer_nu(ctx_small):
    # Remark-9 shape: the integer statistic drifts toward the a^-3 atom sum
    E = Interval(Fraction(1, 4), Fraction(4))
    req = MurmurationRequest(
        delta=0, K=120.0, H=30.0, E=E, summand_domain="integers"
    )
    series = compute_series(req, ctx_small)
    r = cumulative_curve(series, [4.0])[0][1]
    assert abs(r - integer_murmuration_nu(E)) < 0.05


def _hyperbolic_loop(ns, k_min, m):
    # the per-n divisor loop: sum over d | n, d <= sqrt(n), term by term
    weights = [k_min + 4 * j for j in range(m)]
    out = []
    for n in ns.tolist():
        root = math.isqrt(n)
        val = 0.0
        for d in range(1, root + 1):
            if n % d:
                continue
            if d * d == n:
                val += sum(k - 1 for k in weights) / (12.0 * d) - 0.5 * m
            else:
                r = d / math.sqrt(n)
                val -= sum(r ** (k - 1) for k in weights)
        out.append(val)
    return np.array(out)


@pytest.mark.parametrize(
    "lo, hi", [(1, 1), (1, 3000), (2, 50), (1599, 2600), (2401, 2500), (12000, 12640)]
)
@pytest.mark.parametrize("k_min, m", [(4, 1), (12, 5), (942, 30)])
def test_hyperbolic_terms_match_divisor_loop(lo, hi, k_min, m):
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    got = _hyperbolic_terms(ns, k_min, m)
    want = _hyperbolic_loop(ns, k_min, m)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1e-300))
