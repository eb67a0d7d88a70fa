import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from murmurations.arith import build_factor_sieve, default_euler_constant, kronecker
from murmurations.classnum import (
    DiscriminantTable,
    L1_psi_D,
    L1_psi_bar,
    _discriminants,
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
        assert hurwitz6(table).dtype == np.int32
        assert np.array_equal(hurwitz6(table), _brute_force_hurwitz6(h)), bound


def test_figure_bound_table_digests(desk_context):
    # the figure-scale table, pinned by digest: it crosses the seam between
    # each a's head and its periodic body for every a <= 500
    table = desk_context.table
    assert table.bound == 750_532
    assert hashlib.sha256(table.h.tobytes()).hexdigest() == (
        "0d06f2f199bb7f6f6e6f7d318f09f6e82b70369919b5ff8e852c5cfcbfd2773f"
    )
    assert hashlib.sha256(table.forms.tobytes()).hexdigest() == (
        "0a68ce3c99c74318afb159e873706e7303a21364d658d2a4a38a24fee23f4df5"
    )


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
    h6 = hurwitz6(class_table_20k)
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
    h6 = hurwitz6(class_table_20k)
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
    h6 = hurwitz6(class_table_20k)
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


def test_cache_order_is_ascending_discriminants():
    # the interleave of n = 3 and n = 0 mod 4 at every bound residue
    for bound in range(300):
        want = [n for n in range(1, bound + 1) if n % 4 in (0, 3)]
        assert _discriminants(bound).tolist() == want, bound


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
