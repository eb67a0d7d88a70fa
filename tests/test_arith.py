import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from murmurations.arith import (
    analytic_conductor,
    build_factor_sieve,
    digamma,
    euler_constant_C,
    kronecker,
)

EULER_GAMMA = 0.5772156649015329


def test_sieve_small_primes():
    s = build_factor_sieve(10)
    assert list(s.primes) == [2, 3, 5, 7]
    assert s.spf[0] == 0 and s.spf[1] == 0  # below the sieve domain


def test_smallest_prime_factors():
    s = build_factor_sieve(100)
    assert s.spf[12] == 2
    assert s.spf[9] == 3
    assert s.spf[97] == 97
    assert s.is_prime(97) and not s.is_prime(91)


def test_sieve_bound_validation():
    with pytest.raises(ValueError):
        build_factor_sieve(1)


def _least_prime_factor(n):
    # independent oracle: the first divisor found by trial division
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


_LPF = [0, 0] + [_least_prime_factor(n) for n in range(2, 2 * 10**4 + 1)]


def test_spf_matches_trial_division():
    s = build_factor_sieve(2 * 10**4)
    assert s.spf.dtype == np.int32 and s.primes.dtype == np.int64
    assert s.spf.tolist() == _LPF


def test_sieve_every_small_bound():
    # crosses bound < 4 and every p^2 - 1, p^2 of the primes that write
    for bound in range(2, 301):
        s = build_factor_sieve(bound)
        assert s.spf.dtype == np.int32 and s.primes.dtype == np.int64
        assert s.spf.tolist() == _LPF[: bound + 1], bound
        assert s.primes.tolist() == [n for n in range(2, bound + 1) if _LPF[n] == n], bound


def test_sieve_digests_at_one_million(sieve_1m):
    assert hashlib.sha256(sieve_1m.spf.tobytes()).hexdigest() == (
        "b623183698c02a675f4e93f24392556c714c21e53da874b4dfee487ebc1ef97d"
    )
    assert hashlib.sha256(sieve_1m.primes.tobytes()).hexdigest() == (
        "9a175956bcc0270ceaaf56af1b9f8fa19762597a1286b5124ca6d86284f60b40"
    )


def test_factor_sieve_peak_memory():
    # the int32 table and its int64 primes, with no bound-sized int64 or
    # full-size index array beside them
    bound = 10**6
    tracemalloc.start()
    try:
        build_factor_sieve(bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (bound + 1)


def _trial_division_primes(limit, small_primes):
    # independent oracle: no sieve logic, plain divisibility tests
    n = np.arange(2, limit + 1, dtype=np.int64)
    composite = np.zeros(n.size, dtype=bool)
    for p in small_primes:
        composite |= (n % p == 0) & (n != p)
    return int(np.count_nonzero(~composite))


def test_prime_count_to_one_million(sieve_1m):
    small = [d for d in range(2, 1001) if all(d % e for e in range(2, d))]
    assert _trial_division_primes(10**6, small) == 78498
    assert len(sieve_1m.primes) == 78498


def test_factorize_roundtrip(sieve_1m):
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 10**6)
        fac = sieve_1m.factorize(n)
        prod = 1
        for p, e in fac:
            assert sieve_1m.is_prime(p)
            prod *= p**e
        assert prod == n
    assert sieve_1m.factorize(1) == []


def test_kronecker_examples():
    assert kronecker(-3, 5) == -1
    assert all(kronecker(d, 1) == 1 for d in (-7, -3, 0, 1, 5, 12))
    assert kronecker(-4, 2) == 0
    assert kronecker(1, 0) == 1 and kronecker(-1, 0) == 1 and kronecker(5, 0) == 0


def test_kronecker_equals_legendre_for_odd_primes():
    for p in (3, 5, 7, 11, 13, 37):
        squares = {(x * x) % p for x in range(1, p)}
        for d in range(-20, 21):
            if d % p == 0:
                assert kronecker(d, p) == 0
            else:
                assert kronecker(d, p) == (1 if d % p in squares else -1)


def test_kronecker_periodicity_fundamental():
    for d in (-3, -4, -7, -8, -11, -15, -20, 5, 8, 13):
        for m in range(1, 1001):
            assert kronecker(d, m) == kronecker(d, m + abs(d))


def test_kronecker_completely_multiplicative():
    rng = random.Random(5)
    for _ in range(500):
        d = rng.randint(-50, 50)
        # (d / m1 m2) = (d / m1)(d / m2) fails at m1 = 0: (-1 / 0) = 1, (-1 / 3) = -1
        m1 = rng.randint(1, 300)
        m2 = rng.randint(1, 300)
        assert kronecker(d, m1 * m2) == kronecker(d, m1) * kronecker(d, m2)


_top = st.integers(-(10**6), 10**6)
_bottom = st.integers(-(10**4), 10**4)


@given(_top, _bottom.filter(bool), _bottom.filter(bool))
def test_kronecker_multiplicative_in_the_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


@given(_top, _top, _bottom)
def test_kronecker_multiplicative_in_the_top(a, b, n):
    # (0 / -1) = 1 while (-1 / -1) = -1, so a zero top needs n >= 0
    assume(n >= 0 or a * b != 0)
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_multiplicative_function_values(sieve_1m):
    s = sieve_1m
    assert s.mobius(6) == 1 and s.euler_phi(6) == 2 and s.sigma(6) == 12
    assert s.mobius(4) == 0
    assert sum(s.euler_phi(d) for d in s.divisors(12)) == 12


def test_multiplicativity_on_coprime_pairs(sieve_1m):
    # pairs with product inside the sieve range
    rng = random.Random(2024)
    done = 0
    while done < 10**4:
        m = rng.randint(2, 316)
        n = rng.randint(2, 10**5 // m)
        if math.gcd(m, n) != 1:
            continue
        s = sieve_1m
        assert s.mobius(m * n) == s.mobius(m) * s.mobius(n)
        assert s.euler_phi(m * n) == s.euler_phi(m) * s.euler_phi(n)
        assert s.sigma(m * n) == s.sigma(m) * s.sigma(n)
        done += 1


def test_range_validation(sieve_1m):
    with pytest.raises(ValueError):
        sieve_1m.mobius(10**6 + 1)
    with pytest.raises(ValueError):
        sieve_1m.factorize(0)


def test_f_multiplicative(sieve_1m):
    f = sieve_1m.multiplicative_tables(30)[2]
    assert f[1] == 1.0
    assert f[2] == 2.0
    assert f[12] == f[6]  # depends only on the radical


def _multiplicative_reference(sieve, q):
    """mu(q), mu(q)^2/(phi(q)^2 sigma(q)) and f(q) from one factorisation,
    products taken over ascending p as the table takes them."""
    fac = sieve.factorize(q)
    den, f = 1.0, 1.0
    for p, _ in fac:
        den *= float(p - 1) ** 2 * (p + 1)
        f *= 1.0 + 1.0 / (p * p - p - 1)
    if any(e > 1 for _, e in fac):
        return 0, 0.0, f
    return (-1) ** len(fac), 1.0 / den, f


def test_multiplicative_tables_match_factorize(sieve_1m):
    n = 5000
    mu, coeff, f = sieve_1m.multiplicative_tables(n)
    assert mu.dtype == np.int8 and coeff.dtype == f.dtype == np.float64
    assert mu.shape == coeff.shape == f.shape == (n + 1,)
    assert (mu[0], coeff[0], f[0]) == (0, 0.0, 0.0)
    for q in range(1, n + 1):
        want_mu, want_coeff, want_f = _multiplicative_reference(sieve_1m, q)
        assert mu[q] == want_mu, q
        # bitwise: the same factors multiplied in the same order
        assert coeff[q] == want_coeff and f[q] == want_f, q
    # a table shorter than the sieve agrees with the longer one
    small = sieve_1m.multiplicative_tables(97)
    for got, full in zip(small, (mu, coeff, f)):
        assert got.tobytes() == full[:98].tobytes()
    tiny = build_factor_sieve(2)
    assert [a.tolist() for a in tiny.multiplicative_tables(1)] == [[0, 1], [0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ValueError):
        sieve_1m.multiplicative_tables(0)
    with pytest.raises(ValueError):
        tiny.multiplicative_tables(3)


def test_multiplicative_tables_block_edges(sieve_1m):
    # the walk runs q in blocks of 2^16 from q = 2: the q on either side of
    # each edge against the one-q references, bitwise (phi^2 sigma < q^3 is
    # an exact float here)
    n = 3 * 2**16 + 4
    mu, coeff, f = sieve_1m.multiplicative_tables(n)
    for edge in (2 + 2**16, 2 + 2 * 2**16, 2 + 3 * 2**16):
        for q in range(edge - 2, edge + 2):
            want_mu = sieve_1m.mobius(q)
            assert mu[q] == want_mu, q
            assert coeff[q] == want_mu**2 / (sieve_1m.euler_phi(q) ** 2 * sieve_1m.sigma(q)), q
            assert f[q] == _multiplicative_reference(sieve_1m, q)[2], q


def test_multiplicative_tables_memo():
    # one sieve serves growing and shrinking requests from its kept tables;
    # each answer is bitwise the walk a fresh sieve makes for that n alone
    sieve = build_factor_sieve(20000)
    for n in (97, 10**4, 5000, 2 * 10**4):
        got = sieve.multiplicative_tables(n)
        want = build_factor_sieve(20000).multiplicative_tables(n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n
        for a in got:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[1] = 0
    assert sieve.f_zero() == sieve.f_zero()


def test_f_zero_euler_identity(sieve_1m):
    # with matching prime truncations, C * f(0) collapses to the partial
    # Euler product of zeta(2) exactly
    c = euler_constant_C(10**6)
    f0 = sieve_1m.f_zero()
    p = sieve_1m.primes.astype(np.float64)
    zeta2_partial = math.exp(-math.fsum(np.log1p(-1.0 / (p * p))))
    assert abs(c * f0 - zeta2_partial) < 1e-10 * zeta2_partial
    # against the closed constant the gap is exactly the prime tail, which
    # for this bound sits near 1.2e-7; the sieve's own bound must cover it
    gap = abs(c * f0 - math.pi**2 / 6)
    assert gap < (math.pi**2 / 6) * sieve_1m.f_zero_tail_bound()
    assert gap < 5e-7


def test_euler_constant_edge_and_monotone():
    assert abs(euler_constant_C(2) - 2.0 / 3.0) < 1e-15
    vals = [euler_constant_C(b) for b in (10, 100, 1000, 10**4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_euler_constant_reference_value():
    assert abs(euler_constant_C(10**6) - 0.6151326573181718) < 1e-12


def test_digamma_classical_value():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-12
    with pytest.raises(ValueError):
        digamma(0.0)


def test_analytic_conductor_vs_stirling():
    for k in (12, 100, 3850):
        n = analytic_conductor(k).N
        assert abs(n - ((k - 1) / (4 * math.pi)) ** 2) < 0.5
    for k in range(10, 500, 2):
        n = analytic_conductor(k).N
        assert abs(n - ((k - 1) / (4 * math.pi)) ** 2) < 1.0


def test_analytic_conductor_3850_scale():
    assert 93000 < analytic_conductor(3850).N < 95000
    with pytest.raises(ValueError):
        analytic_conductor(2)


@pytest.mark.parametrize("k", [math.inf, math.nan, 1e156, 1e308])
def test_analytic_conductor_refuses_a_non_finite_N(k):
    # N grows like (k / 4 pi)^2, past the largest float beyond k ~ 1.68e155
    with pytest.raises(ValueError, match="not a finite float"):
        analytic_conductor(k)
    assert math.isfinite(analytic_conductor(1.6e155).N)
