import math
import random
import tracemalloc

import numpy as np
from scipy.special import kv

from murmurations.window import cosine_progression_sum, poisson_weight_sum


def _adaptive_simpson(f, a, b, tol):
    # independent quadrature oracle for the bump integral
    def simpson(lo, hi):
        mid = (lo + hi) / 2
        return (hi - lo) / 6 * (f(lo) + 4 * f(mid) + f(hi)), mid

    def recurse(lo, hi, whole, tol, depth):
        mid = (lo + hi) / 2
        left, _ = simpson(lo, mid)
        right, _ = simpson(mid, hi)
        if depth > 48 or abs(left + right - whole) < 15 * tol:
            return left + right + (left + right - whole) / 15
        return recurse(lo, mid, left, tol / 2, depth + 1) + recurse(
            mid, hi, right, tol / 2, depth + 1
        )

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, tol, 0)


def _bump(t):
    return math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1 else 0.0


def test_normalization_constant_vs_adaptive_simpson(window):
    ref = _adaptive_simpson(_bump, -1.0, 1.0, 1e-14)
    assert abs(1.0 / window.c - ref) < 1e-12 * ref


def test_normalization_constant_vs_bessel(window):
    # 1/c = e^(-1/2) (K1(1/2) - K0(1/2))
    assert abs(window.c * (kv(1, 0.5) - kv(0, 0.5)) * math.exp(-0.5) - 1.0) < 1e-8


def test_window_pointwise(window):
    assert window.value(0.0) == 1.0 or abs(window.value(0.0) - 1.0) < 1e-12
    assert abs(window.value(0.5) - 0.5) < 1e-12
    assert window.value(1.0) == 0.0
    assert window.value(-1.0) == 0.0
    assert window.value(1.7) == 0.0


def test_partition_of_unity(window):
    for x in np.linspace(0.0, 1.0, 101):
        assert abs(window.value(x) + window.value(1.0 - x) - 1.0) < 1e-10


def test_window_range_and_symmetry(window):
    xs = np.linspace(-1.2, 1.2, 241)
    vals = window.value_many(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 5e-13)
    assert np.array_equal(vals, window.value_many(-xs))


def test_unit_mass(window):
    # integral of W over [-1, 1] by midpoint-free quadrature: reuse hat(0)
    assert abs(window.hat(0.0) - 1.0) < 1e-10


def test_hat_even(window):
    for xi in (0.3, 1.7, 9.2):
        assert window.hat(xi) == window.hat(-xi)


def test_hat_decay_point(window):
    assert abs(window.hat(20.0)) <= 1e-6


def test_hat_decay_proxy(window):
    xs = np.linspace(-50.0, 50.0, 10**4)
    vals = window.hat_many(xs)
    assert np.max(np.abs(vals) * (1.0 + np.abs(xs)) ** 4) <= 1e3


def test_lattice_sum_at_zero_phase(window):
    # at phi = 0 the transform side collapses to h (integer h: exact zeros)
    for h in (2.0, 4.0, 16.0):
        assert abs(cosine_progression_sum(window, 40, h, 0.0) - h) < 1e-9


def test_lattice_shift_reindexing(window):
    # shifting k0 by 4 while recentring the window sums the same lattice
    h = 9.0
    for phi in (0.1, 0.9):
        direct = cosine_progression_sum(window, 36, h, phi)
        mmax = math.ceil(h)
        m = np.arange(-mmax - 1, mmax + 1)
        shifted = float(
            np.dot(
                np.cos((40 - 1 + 4 * m) * phi),
                window.value_many((m + 1) / h),
            )
        )
        assert abs(direct - shifted) < 1e-12


def test_poisson_identity_random(window):
    rng = random.Random(42)
    for _ in range(100):
        k0 = rng.randint(-50, 4000)
        h = rng.uniform(1.0, 64.0)
        phi = rng.uniform(-0.999 * math.pi / 2, 0.999 * math.pi / 2)
        lhs = cosine_progression_sum(window, k0, h, phi)
        rhs = poisson_weight_sum(window, k0, h, phi)
        assert abs(lhs - rhs) < 1e-7, (k0, h, phi)


def test_poisson_identity_large_h(window):
    # dominant term h cos((k0-1) phi) hat(2 h phi / pi)
    k0, h, phi = 100, 48.0, math.pi / 4
    lhs = cosine_progression_sum(window, k0, h, phi)
    rhs = poisson_weight_sum(window, k0, h, phi)
    assert abs(lhs - rhs) < 1e-8


def test_hat_grid_matches_quadrature(window):
    # t_mult = 400 makes M follow 2 t_max/x rather than the 250 floor
    for x, t_mult in ((1.0, 120), (1.5, 120), (2.0, 120), (333.7, 120), (1000.0, 120), (1.5, 400)):
        t_max = int(t_mult * x)
        grid = window.hat_grid(x, t_max)
        assert grid.shape == (t_max + 1,)
        t = np.unique(np.linspace(0, t_max, 4001).astype(np.int64))
        assert np.max(np.abs(grid[t] - window.hat_many(t / x))) <= 1e-13, x


def test_hat_small_xi_resolved(window):
    # a batch of small |xi| alone against the same xi on 500 panels, which
    # the far frequency 496 forces
    xs = [0.3, 1.4, 1.7, 2.5]
    ref = window.hat_many(xs + [496.0])[: len(xs)]
    for x, want in zip(xs, ref):
        assert abs(window.hat(x) - want) <= 1e-14, x


def test_hat_many_blocks_by_entries(window):
    # 33 frequencies to 4000 have 64 064 nodes: the cosine matrix comes in
    # blocks of at most 2^16 entries (here one row), so the peak is the
    # nodes' arrays and the window's 4096-row value blocks, not 33 rows of
    # cosines and their arguments (34 MB)
    t = np.arange(0, 4001, 125)
    tracemalloc.start()
    try:
        got = window.hat_many(t / 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert np.max(np.abs(got - window.hat_grid(1.0, 4000)[t])) <= 1e-13
