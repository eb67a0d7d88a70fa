import hashlib
import math
import os
import random
import signal
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from murmurations import classnum
from murmurations.arith import build_factor_sieve, default_euler_constant, kronecker
from murmurations.classnum import (
    ClassNumberTable,
    DiscriminantTable,
    L1_psi_D,
    L1_psi_bar,
    decompose_discriminant,
    hurwitz6,
    is_fundamental,
    load_class_numbers,
    psi_D,
    psi_bar,
    psi_bar_bruteforce,
    psi_bar_prime_power,
    save_class_numbers,
    sieve_class_numbers,
    unit_count,
)

ZETA2 = math.pi**2 / 6


def test_known_class_numbers(class_table_20k):
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -47: 5, -71: 7}
    for d, h in known.items():
        assert class_table_20k.class_number(d) == h


def _brute_force_form_counts(bound, primitive=True):
    # direct loop over every reduced triple with both signs of b written out
    h = np.zeros(bound + 1, dtype=np.int64)
    amax = math.isqrt(bound)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            c = a
            while True:
                disc = 4 * a * c - b * b
                if disc > bound:
                    break
                content = math.gcd(math.gcd(a, abs(b)), c)
                if disc > 0 and (content == 1 or not primitive):
                    reduced = (abs(b) <= a <= c) and not (
                        b < 0 and (abs(b) == a or a == c)
                    )
                    if reduced:
                        h[disc] += 1
                c += 1
    return h


def test_form_sieve_vs_bruteforce():
    bound = 10**4
    table = sieve_class_numbers(bound)
    brute = _brute_force_form_counts(bound)
    assert np.array_equal(table.h[: bound + 1].astype(np.int64), brute)
    assert int(table.h.sum()) == int(brute.sum())


def _brute_force_hurwitz6(h):
    # 6 H(n) = sum over f^2 | n of 6 h(-n/f^2) / (w/2), straight from the definition
    h6 = np.zeros(h.size, dtype=np.int64)
    for n in range(3, h.size):
        for f in range(1, math.isqrt(n) + 1):
            if n % (f * f) == 0:
                m = n // (f * f)
                h6[n] += 6 * int(h[m]) // (3 if m == 3 else 2 if m == 4 else 1)
    return h6


def test_form_sieve_small_bounds():
    # every bound from the smallest: progressions that start past the bound,
    # primes p with p^2 near the bound in the Moebius step, and the last
    # n = 3 f^2 and n = 4 f^2 at or below the bound in hurwitz6
    for bound in range(4, 301):
        table = sieve_class_numbers(bound)
        assert table.forms.dtype == np.int32 and table.h.dtype == np.int32
        assert np.array_equal(table.forms, _brute_force_form_counts(bound, primitive=False)), bound
        h = _brute_force_form_counts(bound)
        assert np.array_equal(table.h, h), bound
        assert all(half.dtype == np.int32 for half in hurwitz6(table))
        assert np.array_equal(table.expand(hurwitz6(table)), _brute_force_hurwitz6(h)), bound


def test_halves_small_bounds():
    # the halves themselves at every bound, so at each residue of the bound
    # mod 4 and both lengths of each half: T0[i] = A(4i), T3[i] = A(4i + 3)
    for bound in range(4, 500):
        table = sieve_class_numbers(bound)
        forms = _brute_force_form_counts(bound, primitive=False)
        t0, t3 = table.halves
        assert t0.size == bound // 4 + 1 and t3.size == (bound + 1) // 4, bound
        assert np.array_equal(t0, forms[0::4]) and np.array_equal(t3, forms[3::4]), bound
        assert np.array_equal(table.expand(table.halves), forms), bound
        h6 = _brute_force_hurwitz6(_brute_force_form_counts(bound))
        h0, h3 = hurwitz6(table)
        assert np.array_equal(h0, h6[0::4]) and np.array_equal(h3, h6[3::4]), bound
        assert np.array_equal(table.expand((h0, h3)), h6), bound


def test_figure_bound_table_digests(desk_table):
    # the figure-scale table, pinned by digest: it crosses the seam between
    # each a's head and its periodic body for every a <= 500
    table = desk_table
    assert table.bound == 750_532
    assert hashlib.sha256(table.h.tobytes()).hexdigest() == (
        "0d06f2f199bb7f6f6e6f7d318f09f6e82b70369919b5ff8e852c5cfcbfd2773f"
    )
    assert hashlib.sha256(table.forms.tobytes()).hexdigest() == (
        "0a68ce3c99c74318afb159e873706e7303a21364d658d2a4a38a24fee23f4df5"
    )


def _sieve_fork_forced(monkeypatch, cut):
    # two usable CPUs, a fork at every bound, and the child's share from
    # a = cut(a_max) on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(classnum, "_FORK_BOUND", 0)
    monkeypatch.setattr(classnum, "_sieve_cut", lambda bound, a_max: cut(a_max))


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _assert_no_child_left(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _one_process(bound):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classnum, "_FORK_BOUND", 1 << 62)
        return sieve_class_numbers(bound).halves


@pytest.mark.parametrize("bound", [4, 7, 11, 12, 47, 100, 299, 300, 10**4, 750_532])
def test_sieve_worker_invariance(bound, monkeypatch):
    # the halves with the child's share cut anywhere, from a = 1 (the
    # parent runs no a) to a_max and past it (the child runs none), are
    # bitwise those of one process
    whole = _one_process(bound)
    a_max = math.isqrt(bound // 3)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    fds = _open_fds()
    for cut in sorted({1, 2, a_max // 3, a_max // 2, a_max, a_max + 1, a_max + 2} - {0}):
        _sieve_fork_forced(monkeypatch, lambda a_max: cut)
        halves = sieve_class_numbers(bound).halves
        assert all(half.dtype == np.int32 for half in halves)
        assert all(np.array_equal(h, w) for h, w in zip(halves, whole)), (bound, cut)
    assert forks
    _assert_no_child_left(fds)


def test_sieve_child_writes_only_its_tail():
    # a share from a = A writes no index below (3 A^2) // 4, its first
    # head, so the parent adds only the tail from there
    bound = 10**4
    a_max = math.isqrt(bound // 3)
    for cut in (1, 2, 10, 30, a_max):
        halves = np.zeros(bound // 4 + 1, dtype=np.int32), np.zeros((bound + 1) // 4, dtype=np.int32)
        classnum._sieve_range(halves, cut, a_max + 1, bound)
        lo = 3 * cut * cut // 4
        assert not any(half[:lo].any() for half in halves), cut
        assert any(half[lo] for half in halves), cut


def _sieve_in_child(parent, action):
    """A stand-in for classnum._sieve_range that runs action in a child and
    the real range in the parent."""
    sieve_range = classnum._sieve_range

    def patched(halves, a_lo, a_hi, bound):
        if os.getpid() != parent:
            return action(sieve_range, halves, a_lo, a_hi, bound)
        return sieve_range(halves, a_lo, a_hi, bound)

    return patched


def _raises_half_written(sieve_range, halves, a_lo, a_hi, bound):
    sieve_range(halves, a_lo, (a_lo + a_hi) // 2, bound)
    raise MemoryError


def _bad_exit(sieve_range, halves, a_lo, a_hi, bound):
    # every count written, then a non-zero exit status
    sieve_range(halves, a_lo, a_hi, bound)
    exit_ = os._exit
    os._exit = lambda code: exit_(3)


def _killed(sieve_range, halves, a_lo, a_hi, bound):
    # death by a signal rather than an exit status, after some counts
    sieve_range(halves, a_lo, a_lo + 1, bound)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "action", [_raises_half_written, _bad_exit, _killed], ids=["raises", "status", "signal"]
)
def test_failed_sieve_child_recomputed(monkeypatch, action):
    # a child that raises, exits non-zero or dies by a signal, after it
    # wrote some or all of its counts, has its share recomputed here from
    # zero: the halves stay those of one process
    bound = 10**4
    whole = _one_process(bound)
    _sieve_fork_forced(monkeypatch, lambda a_max: a_max // 2)
    monkeypatch.setattr(classnum, "_sieve_range", _sieve_in_child(os.getpid(), action))
    fds = _open_fds()
    halves = sieve_class_numbers(bound).halves
    assert all(np.array_equal(h, w) for h, w in zip(halves, whole))
    _assert_no_child_left(fds)


def test_interrupt_kills_and_reaps_the_sieve_child(monkeypatch):
    # an interrupt in the parent's share kills and reaps the child before
    # it propagates
    parent = os.getpid()
    sieve_range = classnum._sieve_range

    def interrupted(halves, a_lo, a_hi, bound):
        if os.getpid() != parent:
            time.sleep(60)
            return sieve_range(halves, a_lo, a_hi, bound)
        raise KeyboardInterrupt

    _sieve_fork_forced(monkeypatch, lambda a_max: a_max // 2)
    monkeypatch.setattr(classnum, "_sieve_range", interrupted)
    fds = _open_fds()
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sieve_class_numbers(10**4)
    assert time.monotonic() - start < 30
    _assert_no_child_left(fds)


def test_sieve_below_the_threshold_never_forks(monkeypatch):
    # below _FORK_BOUND, and on one usable CPU at any bound, the sieve runs
    # in one process: the oracle's 50 564 among them
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for bound in (4, 50_564, classnum._FORK_BOUND - 1):
        sieve_class_numbers(bound)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sieve_class_numbers(classnum._FORK_BOUND)


def test_form_sieve_peak_memory():
    # the sieve's working arrays stay small beside the table: no bound-sized temporary
    tracemalloc.start()
    try:
        table = sieve_class_numbers(750_532)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.forms.nbytes


def test_all_forms_are_class_numbers_over_squares():
    # every reduced form is g times a primitive one of discriminant D / g^2
    bound = 2000
    h = sieve_class_numbers(bound).h
    every = _brute_force_form_counts(bound, primitive=False)
    for n in range(1, bound + 1):
        squares = [g * g for g in range(1, math.isqrt(n) + 1) if n % (g * g) == 0]
        assert every[n] == sum(int(h[n // s]) for s in squares), n


def test_class_number_vs_dirichlet_formula(class_table_20k, sieve_1m):
    """h(d) must equal w(d) sqrt|d| L(1, chi_d) / (2 pi) with L summed directly."""
    m_terms = 10**6
    inv_m = 1.0 / np.arange(1, m_terms + 1, dtype=np.float64)
    d_max = 10**4
    fundamental = [
        d for d in range(-3, -d_max - 1, -1) if d % 4 in (0, 1) and is_fundamental(d, sieve_1m)
    ]
    assert len(fundamental) > 3000
    # chi_d(r) is completely multiplicative in r: r = p s with p = spf(r),
    # filled in layers of equal Omega(r) so that each layer reads set values
    spf = sieve_1m.spf[: d_max + 1].astype(np.int64)
    omega = np.zeros(d_max + 1, dtype=np.int64)
    for r in range(2, d_max + 1):
        omega[r] = omega[r // spf[r]] + 1
    layers = [np.flatnonzero(omega == j) for j in range(2, int(omega.max()) + 1)]
    # at odd primes, chi_d(p) = (d mod p / p), read from one flat table of
    # Legendre symbols built from the squares mod p
    odd = sieve_1m.primes[(sieve_1m.primes > 2) & (sieve_1m.primes <= d_max)]
    offsets = np.cumsum(odd) - odd
    legendre = np.full(int(odd.sum()), -1.0)
    for p, off in zip(odd.tolist(), offsets.tolist()):
        legendre[off + np.arange(1, p) ** 2 % p] = 1.0
        legendre[off] = 0.0
    for d in fundamental:
        period = abs(d)
        chi = np.zeros(period + 1)  # chi[r] = kronecker(d, r) for r >= 1
        chi[1] = 1.0
        chi[2] = kronecker(d, 2)
        p = odd[: np.searchsorted(odd, period, side="right")]
        chi[p] = legendre[offsets[: p.size] + d % p]
        for layer in layers:
            r = layer[: np.searchsorted(layer, period, side="right")]
            chi[r] = chi[spf[r]] * chi[r // spf[r]]
        chi = chi[1:]
        reps = m_terms // period
        ltrunc = 0.0
        if reps:
            ltrunc += float(
                inv_m[: reps * period].reshape(reps, period).sum(axis=0) @ chi
            )
        rem = m_terms - reps * period
        if rem:
            ltrunc += float(inv_m[reps * period :] @ chi[:rem])
        w = 6 if d == -3 else 4 if d == -4 else 2
        estimate = w * math.sqrt(period) * ltrunc / (2 * math.pi)
        assert round(estimate) == class_table_20k.class_number(d), d


def test_unit_count(sieve_1m):
    assert unit_count(-3, sieve_1m) == 6
    assert unit_count(-4, sieve_1m) == 4
    assert unit_count(-7, sieve_1m) == 2
    with pytest.raises(ValueError):
        unit_count(-12, sieve_1m)  # not fundamental
    with pytest.raises(ValueError):
        unit_count(5, sieve_1m)


def _squarefree_kernel(n):
    # trial division, no sieve: (s, ell) with n = s ell^2 and s squarefree
    s, ell = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                s *= d
            ell *= d ** (e // 2)
        d += 1
    return s * n, ell


def _is_fundamental_reference(d):
    if d == 0 or d % 4 not in (0, 1):
        return False
    m = d if d % 4 == 1 else d // 4
    if d % 4 == 0 and m % 4 not in (2, 3):
        return False
    return _squarefree_kernel(abs(m))[0] == abs(m)


def test_is_fundamental_matches_trial_division(sieve_1m):
    for d in range(-(10**4), 10**4 + 1):
        assert is_fundamental(d, sieve_1m) == _is_fundamental_reference(d), d


def test_decompose_examples(sieve_1m):
    f = decompose_discriminant(-12, sieve_1m)
    assert (f.d, f.ell) == (-3, 2)
    f = decompose_discriminant(-4, sieve_1m)
    assert (f.d, f.ell) == (-4, 1)
    f = decompose_discriminant(-108, sieve_1m)
    assert (f.d, f.ell) == (-3, 6)
    with pytest.raises(ValueError):
        decompose_discriminant(-14, sieve_1m)


def test_decompose_reconstruction(sieve_1m):
    rng = random.Random(17)
    for _ in range(500):
        D = rng.randint(-10**5, 10**5)
        if D == 0 or D % 4 not in (0, 1):
            continue
        f = decompose_discriminant(D, sieve_1m)
        assert f.d * f.ell**2 == D
        assert f.d == 1 or is_fundamental(f.d, sieve_1m)


def test_discriminant_table_matches_decompose(sieve_1m):
    bound = 20000
    table = DiscriminantTable(bound, sieve_1m)
    for arr in (table.d_neg, table.ell_neg, table.d_pos, table.ell_pos):
        assert arr.dtype == np.int32 and arr.shape == (bound + 1,)
    for n in range(bound + 1):
        for D in (-n, n):
            if D == 0 or D % 4 not in (0, 1):
                assert table.split(D) == (0, 1), D  # the invalid-residue markers
            else:
                fac = decompose_discriminant(D, sieve_1m)
                assert table.split(D) == (fac.d, fac.ell), D


def test_psi_examples(sieve_1m):
    assert psi_D(0, 7, sieve_1m) == 1
    assert psi_D(-12, 2, sieve_1m) == 1
    assert psi_D(-23, 3, sieve_1m) == 1
    # square discriminants carry the trivial character
    assert all(psi_D(16, m, sieve_1m) == 1 for m in range(1, 30))


def test_psi_periodicity_mod_4m2(sieve_1m, disc_table):
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 30)
        step = (2 * m) ** 2
        D1 = -4 * rng.randint(1, 10**4)
        D1 += rng.choice((0, 1))
        D2 = D1 - step * rng.randint(1, 10)
        assert psi_D(D1, m, sieve_1m) == psi_D(D2, m, sieve_1m)


def test_psi_bar_examples(sieve_1m):
    assert psi_bar_bruteforce(1, 2, sieve_1m) == Fraction(-1)
    assert psi_bar_bruteforce(9, 1, sieve_1m) == Fraction(1)
    direct = Fraction(sum(kronecker(-4 * n, 3) for n in (1, 2, 4, 5, 7, 8)), 6)
    assert psi_bar_bruteforce(0, 3, sieve_1m) == direct


def test_psi_bar_multiplicative(sieve_1m, disc_table):
    pairs = [
        (m1, m2)
        for m1 in range(2, 21)
        for m2 in range(m1 + 1, 21)
        if math.gcd(m1, m2) == 1
    ]
    cache = {}

    def pb(t, m):
        if (t, m) not in cache:
            cache[t, m] = psi_bar_bruteforce(t, m, sieve_1m, disc_table)
        return cache[t, m]

    for m1, m2 in pairs:
        for t in range(-10, 11):
            assert pb(t, m1 * m2) == pb(t, m1) * pb(t, m2), (m1, m2, t)


def test_psi_bar_euler_factors(sieve_1m, disc_table):
    # p odd, p not dividing 2t: phi(p^2e) psi_bar = -p^(2e-1) + sum phi(p^4k)
    def phi_pp(p, j):
        return 1 if j == 0 else (p - 1) * p ** (j - 1)

    for p in (3, 5, 7):
        for e in (1, 2, 3):
            for t in (1, 2):
                if t % p == 0:
                    continue
                lhs = psi_bar_bruteforce(t, p**e, sieve_1m, disc_table) * phi_pp(p, 2 * e)
                rhs = -(p ** (2 * e - 1)) + sum(phi_pp(p, 4 * k) for k in range(e // 2 + 1))
                assert lhs == rhs, (p, e, t)


def test_psi_bar_closed_form_matches_bruteforce(sieve_1m, disc_table):
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3):
            for t in (0, 1, 2, 3, 4, 6, 12):
                assert psi_bar_prime_power(t, p, e) == psi_bar_bruteforce(
                    t, p**e, sieve_1m, disc_table
                ), (p, e, t)


def test_psi_bar_table_path_matches_loop(sieve_1m, disc_table):
    # the array evaluation against one psi_D call per residue
    for m in list(range(2, 25)) + [27, 32, 45]:
        for t in (-7, -2, 0, 1, 3, 6, 10):
            assert psi_bar_bruteforce(t, m, sieve_1m, disc_table) == psi_bar_bruteforce(
                t, m, sieve_1m
            ), (t, m)


def test_hurwitz6_matches_class_number_formula(class_table_20k, sieve_1m):
    # 6 H(|D|) = 12 L(1, psi_D) sqrt|D| / 2 pi at every discriminant
    h6 = class_table_20k.expand(hurwitz6(class_table_20k))
    for n in range(3, class_table_20k.bound + 1):
        if n % 4 in (0, 3):
            want = L1_psi_D(-n, class_table_20k, sieve_1m) * math.sqrt(n) * 12 / (2 * math.pi)
            assert h6[n] == round(want), n
        else:
            assert h6[n] == 0, n
    assert h6[3] == 2 and h6[4] == 3 and h6[12] == 8 and h6[0] == 0


def test_hurwitz6_matches_three_squares(class_table_20k):
    """Whole-table oracle from Gauss's three-square theorem, sharing no code
    with the form sieve: r_3(n) = 24 H(n) for n = 3 mod 8 and 12 H(4n) for
    n = 1, 2 mod 4, and H(4n) = (3 - (-n/2)) H(n) - 2 H(n/4) for n = 0, 3
    mod 4 ties the other classes to them.  n = 7 mod 8 has r_3 = 0, so it is
    anchored here only through that relation; the class number formula test
    covers it directly."""
    bound = class_table_20k.bound
    h6 = class_table_20k.expand(hurwitz6(class_table_20k))
    # theta^2 from the outer sum of the squares k^2, k in Z, then theta^3 by
    # one shifted add of theta^2 per k, in exact integers
    k = np.arange(-math.isqrt(bound), math.isqrt(bound) + 1)
    pairs = np.add.outer(k * k, k * k).ravel()
    r2 = np.bincount(pairs[pairs <= bound], minlength=bound + 1)
    r3 = np.zeros(bound + 1, dtype=np.int64)
    for s in (k * k).tolist():
        r3[s:] += r2[: bound + 1 - s]
    n = np.arange(bound + 1)
    odd = n[n % 8 == 3]
    assert odd.size == 2500 and np.array_equal(r3[odd], 4 * h6[odd])
    even = n[((n % 4 == 1) | (n % 4 == 2)) & (4 * n <= bound)]
    assert even.size == 2500 and np.array_equal(r3[even], 2 * h6[4 * even])
    for m in range(3, bound // 4 + 1):
        if m % 4 in (0, 3):
            quarter = int(h6[m // 4]) if m % 4 == 0 else 0
            assert h6[4 * m] == (3 - kronecker(-m, 2)) * h6[m] - 2 * quarter, m


def test_kronecker_hurwitz_relation(class_table_20k, sieve_1m):
    # sum over t^2 <= 4n of H(4n - t^2) = 2 sigma(n) - sum_{d | n} min(d, n/d),
    # with H(0) = -1/12; in twelfths, 12 H = 2 h6 away from 0
    h6 = class_table_20k.expand(hurwitz6(class_table_20k))
    for n in range(1, 3001):
        t = np.arange(-math.isqrt(4 * n), math.isqrt(4 * n) + 1)
        disc = 4 * n - t * t
        lhs = 2 * int(h6[disc].sum()) - int(np.count_nonzero(disc == 0))
        divisors = sieve_1m.divisors(n)
        rhs = 24 * sieve_1m.sigma(n) - 12 * sum(min(d, n // d) for d in divisors)
        assert lhs == rhs, n


def test_dirichlet_series_consistency(sieve_1m):
    """Partial sums of psi_bar_t(m)/m approach C f(t).

    The squarefull-supported part of psi_bar has no sign cancellation, so the
    tail behaves like 1/sqrt(M) (not the 1/M one might hope for); 2/sqrt(M)
    covers every |t| <= 20 comfortably.
    """
    m_max = 10**4
    for t in range(-20, 21):
        vals = [float(psi_bar(t, m, sieve_1m)) for m in range(1, m_max + 1)]
        partial = math.fsum(v / m for m, v in zip(range(1, m_max + 1), vals))
        assert abs(partial - L1_psi_bar(t, sieve_1m)) <= 2.0 / math.sqrt(m_max), t


def test_l1_psi_d_values(class_table_20k, sieve_1m):
    assert abs(L1_psi_D(-4, class_table_20k, sieve_1m) - math.pi / 4) < 1e-14
    assert abs(L1_psi_D(-3, class_table_20k, sieve_1m) - math.pi / (3 * math.sqrt(3))) < 1e-14
    series = sum(psi_D(-12, m, sieve_1m) / m for m in range(1, 10**5))
    assert abs(L1_psi_D(-12, class_table_20k, sieve_1m) - series) < 1e-4
    with pytest.raises(ValueError):
        L1_psi_D(-(2 * 10**4) - 4, class_table_20k, sieve_1m)


def test_l1_psi_bar_values(sieve_1m):
    c = default_euler_constant()
    assert abs(L1_psi_bar(0, sieve_1m) - ZETA2) < 5e-7  # prime-tail limited
    assert L1_psi_bar(1, sieve_1m) == c
    assert abs(L1_psi_bar(2, sieve_1m) - 2 * c) < 1e-15
    assert L1_psi_bar(-15, sieve_1m) == L1_psi_bar(15, sieve_1m)
    with pytest.raises(ValueError):
        L1_psi_bar(10**6 + 1, sieve_1m)


def test_l1_psi_bar_factorizes_without_tables():
    # the per-t product is bitwise the table walk's f(t), and builds no table
    sieve = build_factor_sieve(10**6)
    ts = list(range(1, 3000)) + [2**19, 3**12, 510510, 720720, 999983, 10**6 - 1, 10**6]
    got = [L1_psi_bar(t, sieve) for t in ts]
    assert sieve._tables is None
    f = sieve.multiplicative_tables(10**6)[2]
    assert got == [default_euler_constant() * f[t] for t in ts]


def test_cache_roundtrip(tmp_path, class_table_20k):
    path = tmp_path / "cls.bin"
    save_class_numbers(class_table_20k, path)
    # magic, u64 bound, u32 form counts, sha256 trailer
    expected = 8 + 8 + 4 * sum(1 for n in range(3, 2 * 10**4 + 1) if n % 4 in (0, 3)) + 32
    assert path.stat().st_size == expected
    loaded = load_class_numbers(path)
    assert loaded.bound == class_table_20k.bound
    assert np.array_equal(loaded.forms, class_table_20k.forms)
    assert np.array_equal(loaded.h, class_table_20k.h)


def test_cache_bytes_pinned(tmp_path, class_table_20k):
    # the file of the n-indexed table, before the halves: the same bytes
    path = tmp_path / "cls.bin"
    save_class_numbers(class_table_20k, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "19ebbf19fa32cc4c03653cbd01c5cc10d14e89f224d625f6f1264acf509072e3"
    )


def test_cache_order_is_ascending_discriminants(tmp_path):
    # the interleave of the halves at every bound residue: halves that hold
    # their own n write the ascending n = 0, 3 mod 4 from 3 on
    path = tmp_path / "cls.bin"
    for bound in range(300):
        want = [n for n in range(1, bound + 1) if n % 4 in (0, 3)]
        n0 = 4 * np.arange(bound // 4 + 1, dtype=np.int32)
        n3 = 4 * np.arange((bound + 1) // 4, dtype=np.int32) + 3
        save_class_numbers(ClassNumberTable(bound=bound, halves=(n0, n3)), path)
        payload = np.frombuffer(path.read_bytes()[16:-32], dtype="<u4")
        assert payload.tolist() == want, bound
        t0, t3 = load_class_numbers(path).halves
        assert np.array_equal(t0, n0) and np.array_equal(t3, n3), bound


def test_cache_rejects_bad_magic(tmp_path, class_table_20k):
    path = tmp_path / "cls.bin"
    save_class_numbers(class_table_20k, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_class_numbers(path)


def test_cache_rejects_truncation(tmp_path, class_table_20k):
    path = tmp_path / "cls.bin"
    save_class_numbers(class_table_20k, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 12])
    with pytest.raises(ValueError, match="truncated"):
        load_class_numbers(path)
