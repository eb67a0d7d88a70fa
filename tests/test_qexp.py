import random

import pytest
from hypothesis import given, strategies as st

from murmurations.qexp import (
    IntegerPowerSeries,
    eisenstein,
    eta_power_24,
    newform_qexp,
    oracle_trace,
)
from murmurations.trace import trace_hecke


def _naive_eta24(prec):
    # direct polynomial arithmetic, no pentagonal or Jacobi shortcut
    poly = [1] + [0] * prec
    for m in range(1, prec + 1):
        out = list(poly)
        for i in range(0, prec + 1 - m):
            out[i + m] -= poly[i]
        poly = out
    prod = [1] + [0] * prec
    for _ in range(24):
        out = [0] * (prec + 1)
        for i, a in enumerate(prod):
            if a == 0:
                continue
            for j, b in enumerate(poly):
                if i + j > prec:
                    break
                out[i + j] += a * b
        prod = out
    return [0] + prod[:prec]


def sigma_power(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_eta24_low_coefficients():
    d = eta_power_24(10)
    assert d[1] == 1 and d[2] == -24 and d[3] == 252
    assert d[5] == 4830


def test_eta24_vs_naive_product():
    for prec in (6, 40):
        d = eta_power_24(prec)
        naive = _naive_eta24(prec)
        assert [d[i] for i in range(prec + 1)] == naive[: prec + 1], prec


def test_eta24_ramanujan_congruence():
    d = eta_power_24(100)
    for n in range(1, 101):
        assert (d[n] - sigma_power(n, 11)) % 691 == 0


def test_eisenstein_values():
    e4 = eisenstein(4, 601)
    e6 = eisenstein(6, 601)
    assert e4.prec == e6.prec == 602
    assert e4[0] == e6[0] == 1
    assert e6[2] == -504 * 33 == -16632
    for n in range(1, 602):
        assert e4[n] == 240 * sigma_power(n, 3), n
        assert e6[n] == -504 * sigma_power(n, 5), n
    with pytest.raises(ValueError):
        eisenstein(8, 5)


def test_discriminant_identity():
    prec = 50
    e4_cubed = eisenstein(4, prec).pow(3).coeffs
    e6_squared = eisenstein(6, prec).pow(2).coeffs
    assert len(e4_cubed) == len(e6_squared) == prec + 1
    lhs = [a - b for a, b in zip(e4_cubed, e6_squared)]
    assert lhs == [1728 * c for c in eta_power_24(prec).coeffs]


def test_newform_normalization_and_values():
    for k in (12, 16, 18, 20, 22, 26):
        assert newform_qexp(k, 3)[1] == 1
    assert newform_qexp(16, 3)[2] == 216
    assert [newform_qexp(12, 6)[i] for i in range(1, 7)] == [
        eta_power_24(6)[i] for i in range(1, 7)
    ]
    with pytest.raises(ValueError):
        newform_qexp(14, 3)


def test_hecke_coefficient_multiplicativity():
    f = newform_qexp(12, 450)
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            assert f[p] * f[q] == f[p * q]


def test_oracle_trace_values():
    assert oracle_trace(12, 7) == -16744
    assert all(oracle_trace(8, n) == 0 for n in range(1, 30))
    assert oracle_trace(24, 1) == 2
    # S_2(1) = 0, as the trace formula says
    assert all(oracle_trace(2, n) == 0 for n in range(1, 30))
    with pytest.raises(ValueError):
        oracle_trace(28, 2)
    with pytest.raises(ValueError):
        oracle_trace(24, 0)
    # both refusals come before any series is built: a far n would hit the cap
    with pytest.raises(ValueError, match="weight 28 not supported"):
        oracle_trace(28, 10**6)
    for k in (12, 24, 26):
        with pytest.raises(ValueError, match="n must be positive"):
            oracle_trace(k, 0)


def _sweep(top, high, seed):
    # descending, then shuffled, then ascending well past what the first two needed
    shuffled = list(range(1, top + 1))
    random.Random(seed).shuffle(shuffled)
    return list(range(top, 0, -1)) + shuffled + list(range(1, high + 1))


@pytest.mark.parametrize("k", [12, 16, 18, 20, 22, 26])
def test_oracle_trace_in_any_order_reads_the_newform(k):
    for n in _sweep(40, 200, k):
        assert oracle_trace(k, n) == newform_qexp(k, n)[n], (k, n)


def test_oracle_trace_24_in_any_order_matches_the_trace_formula(ctx_small):
    for n in _sweep(60, 600, 24):
        assert oracle_trace(24, n) == trace_hecke(ctx_small, 24, n), n


def test_oracle_trace_refuses_past_the_precision_cap():
    # k = 24 reads q^(2n): n = 5000 needs precision 10 001
    with pytest.raises(ValueError, match="precision must be in"):
        oracle_trace(24, 5000)
    assert oracle_trace(12, 300) == newform_qexp(12, 300)[300]
    # a stored series far below the cap still refuses, and is not cut short
    with pytest.raises(ValueError, match="precision must be in"):
        oracle_trace(12, 10**4 + 1)
    assert oracle_trace(24, 3) == 339480
    assert oracle_trace(12, 10**4) == newform_qexp(12, 10**4)[10**4]


def test_series_multiplication_consistency():
    a = IntegerPowerSeries([1, 2, 3, 4])
    b = IntegerPowerSeries([0, 1, 1])
    assert a.mul(b).coeffs == b.mul(a).coeffs == [0, 1, 3]


def _schoolbook_mul(a, b):
    # the direct O(n^2) truncated product, as the definition of mul
    n = min(a.prec, b.prec)
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return IntegerPowerSeries(out)


def _schoolbook_pow(a, e):
    result = IntegerPowerSeries([1] + [0] * (a.prec - 1))
    for _ in range(e):
        result = _schoolbook_mul(result, a)
    return result


_signed = st.integers(-(10**40), 10**40)
_series = st.builds(
    IntegerPowerSeries,
    st.one_of(
        st.lists(_signed, min_size=1, max_size=80),
        st.integers(1, 80).map(lambda n: [0] * n),
    ),
)


@given(_series, _series)
def test_mul_matches_schoolbook(a, b):
    assert a.mul(b).coeffs == _schoolbook_mul(a, b).coeffs


@given(_series)
def test_square_matches_schoolbook(a):
    assert a.mul(a).coeffs == _schoolbook_mul(a, a).coeffs


@given(_series, st.integers(0, 6))
def test_pow_matches_repeated_product(a, e):
    assert a.pow(e).coeffs == _schoolbook_pow(a, e).coeffs


@pytest.mark.parametrize("length", [1, 2, 3, 17, 80])
def test_mul_at_the_digit_width_limit(length):
    # all coefficients +-(2^b - 1): the top product digit is as large as the
    # bound allows, for every residue of the bit count mod 8
    for bits in range(1, 80):
        big = (1 << bits) - 1
        for signs in ((1, 1), (1, -1), (-1, -1)):
            a = IntegerPowerSeries([signs[0] * big] * length)
            b = IntegerPowerSeries([signs[1] * big] * length)
            assert a.mul(b).coeffs == _schoolbook_mul(a, b).coeffs, (bits, signs)
            assert a.mul(a).coeffs == _schoolbook_mul(a, a).coeffs, bits
