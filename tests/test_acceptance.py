"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured quantities and asserting the stated tolerance and runtime."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from murmurations.arith import euler_constant_C
from murmurations.classnum import psi_D, psi_bar_bruteforce, sieve_class_numbers
from murmurations.cli import main
from murmurations.murmur import MurmurationRequest, compute_series, cumulative_curve
from murmurations.nu import (
    Interval,
    nu_fourier,
    nu_rational,
    prop_circle_check,
    s_alpha_fourier,
    s_alpha_jump,
)
from murmurations.qexp import oracle_trace
from murmurations.trace import TraceContext, eigenvalue_sum_prime, trace_hecke


@pytest.fixture(scope="module")
def figure_runs(sieve_1m):
    """Shared desk-scale run for criteria 8 and 9: K = 3850, H = 100, both
    root-number classes, plus the limit-measure curve on the same grid."""
    t0 = time.perf_counter()
    from murmurations.arith import analytic_conductor

    n_conductor = analytic_conductor(3850).N
    bound = 4 * int(2 * n_conductor) + 8
    table = sieve_class_numbers(bound)
    ctx = TraceContext(table=table, sieve=sieve_1m)
    grid = np.linspace(0.02, 2.0, 100)
    nu_curve = np.array(
        [nu_rational(Interval(Fraction(0), float(t)), 2000, sieve_1m).value for t in grid]
    )
    runs = {}
    for delta in (0, 1):
        req = MurmurationRequest(
            delta=delta, K=3850.0, H=100.0, E=Interval(Fraction(0), Fraction(2))
        )
        series = compute_series(req, ctx)
        r = np.array([v for _, v in cumulative_curve(series, grid)])
        runs[delta] = (series, r)
    elapsed = time.perf_counter() - t0
    return {"grid": grid, "nu": nu_curve, "runs": runs, "elapsed": elapsed, "N": n_conductor}


def test_criterion_1_trace_oracle_equivalence(ctx_small):
    t0 = time.perf_counter()
    checked = 0
    for k in (4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26):
        for n in range(1, 101):
            assert trace_hecke(ctx_small, k, n) == oracle_trace(k, n), (k, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: {checked} exact trace identities in {elapsed:.1f}s")


def test_criterion_2_spectral_cosine_equivalence(ctx_small):
    t0 = time.perf_counter()
    primes = [int(p) for p in ctx_small.sieve.primes if p <= 1000]
    worst = 0.0
    for k in range(4, 61, 2):
        for p in primes:
            spectral = eigenvalue_sum_prime(ctx_small, k, p)
            exact = trace_hecke(ctx_small, k, p) * math.exp(0.5 * (1 - k) * math.log(p))
            err = abs(spectral - exact) / max(1.0, abs(exact))
            worst = max(worst, err)
            assert err <= 1e-9, (k, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 2: worst relative deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_euler_constant():
    t0 = time.perf_counter()
    c = euler_constant_C(10**6)
    err = abs(c - 0.6151326573181718)
    elapsed = time.perf_counter() - t0
    assert err < 1e-12
    assert elapsed < 5.0
    print(f"PASS criterion 3: C = {c!r}, deviation {err:.2e} in {elapsed:.1f}s")


def test_criterion_4_local_average_laws(sieve_1m, disc_table):
    t0 = time.perf_counter()
    # periodicity mod (2m)^2
    rng = random.Random(41)
    for _ in range(200):
        m = rng.randint(1, 30)
        d1 = -4 * rng.randint(1, 10**4) + rng.choice((0, 1))
        d2 = d1 - ((2 * m) ** 2) * rng.randint(1, 10)
        assert psi_D(d1, m, sieve_1m) == psi_D(d2, m, sieve_1m)
    # multiplicativity over every coprime pair below 20
    cache = {}

    def pb(t, m):
        if (t, m) not in cache:
            cache[t, m] = psi_bar_bruteforce(t, m, sieve_1m, disc_table)
        return cache[t, m]

    pairs = [
        (m1, m2)
        for m1 in range(2, 21)
        for m2 in range(m1 + 1, 21)
        if math.gcd(m1, m2) == 1
    ]
    for m1, m2 in pairs:
        for t in range(-10, 11):
            assert pb(t, m1 * m2) == pb(t, m1) * pb(t, m2)
    # Euler factors at odd prime powers away from 2t
    def phi_pp(p, j):
        return 1 if j == 0 else (p - 1) * p ** (j - 1)

    for p in (3, 5, 7):
        for e in (1, 2, 3):
            lhs = pb(1, p**e) * phi_pp(p, 2 * e)
            rhs = -(p ** (2 * e - 1)) + sum(phi_pp(p, 4 * k) for k in range(e // 2 + 1))
            assert lhs == rhs
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 4: periodicity x200, multiplicativity x{len(pairs) * 21}, "
        f"Euler factors exact in {elapsed:.1f}s"
    )


def test_criterion_5_two_formula_equality(sieve_1m):
    t0 = time.perf_counter()
    rng = random.Random(20240917)
    worst = 0.0
    for _ in range(10):
        u = rng.uniform(0.2, 4.5)
        v = rng.uniform(u + 0.1, 5.0)
        e = Interval(u, v)
        rat = nu_rational(e, 5000, sieve_1m).value
        four = nu_fourier(e, 5000, sieve_1m).value
        worst = max(worst, abs(rat - four))
        assert abs(rat - four) <= 5e-4, (u, v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 5: worst two-formula gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_6_fourier_jump_convergence(sieve_1m):
    t0 = time.perf_counter()
    gaps = []
    for alpha in (Fraction(1, 2), Fraction(1, 3), math.sqrt(2) - 1):
        series = s_alpha_fourier(alpha, 10**5, sieve_1m)
        jump = s_alpha_jump(alpha, 10**4, sieve_1m, star=True)
        gaps.append(abs(series - jump))
        assert gaps[-1] <= 2e-3, alpha
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "PASS criterion 6: gaps at 1/2, 1/3, sqrt2-1 = "
        + ", ".join(f"{g:.2e}" for g in gaps)
        + f" in {elapsed:.1f}s"
    )


def test_criterion_7_circle_main_term_shape(sieve_1m, window):
    t0 = time.perf_counter()
    xs = [250.0, 500.0, 1000.0, 2000.0, 4000.0]
    residuals = []
    for x in xs:
        chk = prop_circle_check(1, 1, 0.0, x, window, sieve_1m)
        residuals.append(abs(chk.residual))
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    slope = float(np.polyfit(np.log(xs), np.log(residuals), 1)[0])
    assert slope <= -0.9
    for x in (250.0, 1000.0, 4000.0):
        chk = prop_circle_check(1, 4, 0.0, x, window, sieve_1m)
        assert chk.main_term == 0.0
        assert abs(chk.lhs) <= 50.0 * 4 / x
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"PASS criterion 7: residual slope {slope:.3f}, q=4 main term exactly 0 "
        f"in {elapsed:.1f}s"
    )


def test_criterion_8_figure_reproduction(figure_runs):
    grid = figure_runs["grid"]
    nu_curve = figure_runs["nu"]
    for delta in (0, 1):
        _, r = figure_runs["runs"][delta]
        sign = 1.0 if delta == 0 else -1.0
        assert math.copysign(1.0, r[-1]) == sign
        assert 0.1 <= abs(r[-1]) <= 10.0  # statistic is Theta(1) after scaling
        dev = abs(r[-1] - sign * nu_curve[-1])
        assert dev <= 0.10
        corr = float(np.corrcoef(r, sign * nu_curve)[0, 1])
        assert corr >= 0.95
        print(
            f"PASS criterion 8 (delta={delta}): sign ok, |r(2) - (-1)^d nu([0,2])| = "
            f"{dev:.4f}, correlation {corr:.4f}"
        )
    assert figure_runs["elapsed"] < 900.0
    print(f"PASS criterion 8: full desk run in {figure_runs['elapsed']:.1f}s")


def test_criterion_9_denominator_asymptotic(figure_runs):
    for delta in (0, 1):
        series, _ = figure_runs["runs"][delta]
        target = 100.0 * 3850.0**2 / (96.0 * math.pi) * 2.0
        got = series.den_total / math.sqrt(series.N)
        rel = abs(got - target) / target
        assert rel <= 0.05
        print(
            f"PASS criterion 9 (delta={delta}): denominator/sqrt(N) = {got:.4e} "
            f"vs HK^2|E|/(96 pi) = {target:.4e} ({rel:.2%})"
        )


def test_criterion_10_ci_smoke(tmp_path):
    t0 = time.perf_counter()
    cache = tmp_path / "cls.bin"
    from murmurations.arith import analytic_conductor

    bound = 4 * int(2 * analytic_conductor(600).N) + 8
    assert main(["sieve", "--dmax", str(bound), "--out", str(cache)]) == 0
    signs = {}
    for delta in (0, 1):
        csv = tmp_path / f"m{delta}.csv"
        summary = tmp_path / f"m{delta}.json"
        code = main(
            [
                "murmur", "--K", "600", "--H", "60", "--delta", str(delta),
                "--E", "0:2", "--cache", str(cache), "--out", str(csv),
                "--summary", str(summary),
            ]
        )
        assert code == 0
        signs[delta] = json.loads(summary.read_text())["r_endpoints"]["hi"]
    nu_csv = tmp_path / "nu.csv"
    assert main(["nu", "--grid", "0:2:60", "--qmax", "1000", "--out", str(nu_csv)]) == 0
    report = tmp_path / "cmp.json"
    assert main(
        [
            "compare", "--murmur-csv", str(tmp_path / "m0.csv"),
            "--nu-csv", str(nu_csv), "--delta", "0", "--out", str(report),
        ]
    ) == 0
    elapsed = time.perf_counter() - t0
    assert signs[0] > 0 > signs[1]
    assert elapsed < 60.0
    corr = json.loads(report.read_text())["pearson_correlation"]
    print(
        f"PASS criterion 10: smoke pipeline in {elapsed:.1f}s, "
        f"r_hi(delta=0) = {signs[0]:+.3f}, r_hi(delta=1) = {signs[1]:+.3f}, "
        f"correlation {corr:.3f}"
    )
