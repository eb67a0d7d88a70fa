import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from murmurations.murmur import dimension_S_k
from murmurations.qexp import oracle_trace
from murmurations.trace import (
    TableBoundError,
    _lucas_u,
    eigenvalue_sum_prime,
    elliptic_sums,
    progression_cosine_sum,
    progression_weights,
    trace_hecke,
)


def test_weight_12_is_tau(ctx_small):
    tau = {2: -24, 3: 252, 4: -1472, 5: 4830, 7: -16744}
    for n, want in tau.items():
        assert trace_hecke(ctx_small, 12, n) == want


def test_tau_hecke_relation(ctx_small):
    # tau(4) = tau(2)^2 - 2^11 tau(1)
    t1 = trace_hecke(ctx_small, 12, 1)
    t2 = trace_hecke(ctx_small, 12, 2)
    assert trace_hecke(ctx_small, 12, 4) == t2 * t2 - 2**11 * t1


def test_trace_at_one_is_dimension(ctx_small):
    dims = {4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 24: 2, 36: 3}
    for k, d in dims.items():
        assert trace_hecke(ctx_small, k, 1) == d


def test_lucas_ladder_vs_recurrence():
    # U_m(t, n) by the doubling ladder against U_{m+1} = t U_m - n U_{m-1}
    for t in range(-20, 21):
        for n in range(1, 31):
            prev, cur = 0, 1
            for m in range(1, 66):
                assert _lucas_u(t, n, m) == cur, (t, n, m)
                prev, cur = cur, t * cur - n * prev
            assert _lucas_u(t, n, 0) == 0


def test_trace_oracle_sample(ctx_small):
    for k in (12, 16, 18, 20, 22, 24, 26):
        for n in range(1, 40):
            assert trace_hecke(ctx_small, k, n) == oracle_trace(k, n)


@given(st.integers(1, 60).map(lambda j: 2 * j), st.integers(1, 5000))
def test_trace_is_an_integer_within_deligne(ctx_small, k, n):
    tr = trace_hecke(ctx_small, k, n)
    assert type(tr) is int
    # |tr T_n| <= dim d(n) n^((k-1)/2), squared to stay in integers
    bound = dimension_S_k(k) * len(ctx_small.sieve.divisors(n))
    assert tr * tr <= bound * bound * n ** (k - 1)


@given(st.sampled_from([12, 16, 18, 20, 22, 26]), st.integers(1, 60))
def test_trace_matches_oracle_in_one_dimensional_weights(ctx_small, k, n):
    assert trace_hecke(ctx_small, k, n) == oracle_trace(k, n)


def test_weight_two_vanishes(ctx_small):
    # S_2(1) is trivial, so the four pieces cancel exactly
    for n in range(1, 60):
        assert trace_hecke(ctx_small, 2, n) == 0


def test_trace_validation(ctx_small):
    with pytest.raises(ValueError):
        trace_hecke(ctx_small, 13, 2)
    with pytest.raises(ValueError):
        trace_hecke(ctx_small, 12, 0)
    with pytest.raises(TableBoundError):
        trace_hecke(ctx_small, 12, ctx_small.table.bound)


def test_eigenvalue_sum_weight12_value(ctx_small):
    # tau(2) / 2^(11/2)
    want = -24.0 / 2**5.5
    assert abs(eigenvalue_sum_prime(ctx_small, 12, 2) - want) < 1e-12
    assert abs(want + 0.5303300858899106) < 1e-15


def test_eigenvalue_sum_matches_exact_path(ctx_small):
    for k in (12, 16, 24, 40):
        for p in (2, 3, 5, 97, 997):
            spectral = eigenvalue_sum_prime(ctx_small, k, p)
            exact = trace_hecke(ctx_small, k, p) * math.exp(0.5 * (1 - k) * math.log(p))
            assert abs(spectral - exact) <= 1e-9 * max(1.0, abs(exact))


def test_eigenvalue_sum_zero_dimensional(ctx_small):
    # k = 4: both sides of the equivalence vanish to rounding
    assert abs(eigenvalue_sum_prime(ctx_small, 4, 5)) < 1e-12
    for k in (4, 6, 8, 10, 14):
        assert abs(eigenvalue_sum_prime(ctx_small, k, 101)) < 1e-10


def test_eigenvalue_sum_deligne_scale(ctx_small):
    # soft diagnostic: |sum| <= 2 dim + slack
    for k in (12, 24, 36, 60):
        dim = trace_hecke(ctx_small, k, 1)
        for p in (2, 13, 101):
            assert abs(eigenvalue_sum_prime(ctx_small, k, p)) <= 2 * dim + 1e-6


def test_eigenvalue_sum_validation(ctx_small):
    with pytest.raises(ValueError):
        eigenvalue_sum_prime(ctx_small, 12, 6)


def test_hecke_multiplicativity_one_dimensional(ctx_small):
    for k in (12, 16, 18, 20, 22, 26):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            lam_p2 = trace_hecke(ctx_small, k, p * p) * float(p) ** (1 - k)
            lam_p = trace_hecke(ctx_small, k, p) * float(p) ** ((1 - k) / 2)
            assert abs(lam_p2 - (lam_p * lam_p - 1.0)) < 1e-9


def test_progression_weights():
    assert progression_weights(3850.0, 100.0, 0) == (3752, 50)
    assert progression_weights(3850.0, 100.0, 1) == (3750, 51)
    # the k >= 4 floor
    assert progression_weights(16.0, 14.0, 0)[0] >= 4
    assert progression_weights(10.0, 2.0, 1) == (10, 1)


def test_progression_cosine_sum_zero_phase():
    k_min, m = progression_weights(600.0, 60.0, 0)
    assert progression_cosine_sum(600.0, 60.0, 0, 0.0) == float(m)


def test_progression_cosine_sum_vs_direct():
    k_min, m = progression_weights(3850.0, 100.0, 0)
    ks = [k_min + 4 * j for j in range(m)]
    assert m == 50
    for phi in (0.3, -1.1, math.pi / 2, 1e-9, 0.7853):
        direct = math.fsum(math.cos((k - 1) * phi) for k in ks)
        assert abs(progression_cosine_sum(3850.0, 100.0, 0, phi) - direct) < 1e-10


def _elliptic_sum_reference(n, k_min, m, l1):
    """elliptic_sums at one n, term by term: phi = atan2(t, sqrt(4n - t^2)) is
    well conditioned at every t, and every sum is a ``math.fsum``."""
    ks = [k_min + 4 * j for j in range(m)]
    terms = [m * l1[4 * n]]
    for t in range(1, math.isqrt(4 * n - 1) + 1):
        phi = math.atan2(t, math.sqrt(4 * n - t * t))
        terms.append(2.0 * math.fsum(math.cos((k - 1) * phi) for k in ks) * l1[4 * n - t * t])
    return math.fsum(terms)


def test_elliptic_sums_error_bound(desk_context):
    # the n of the figure run where an arcsin angle loses most (about 1e-8)
    ns = [92419, 122503, 178931]
    l1 = desk_context.l1_array()
    windows = [progression_weights(3850.0, 100.0, delta) for delta in (0, 1)]
    rows = elliptic_sums(ns, windows, l1)
    for delta, (k_min, m) in enumerate(windows):
        for n, value in zip(ns, rows[delta]):
            assert abs(value - _elliptic_sum_reference(n, k_min, m, l1)) <= 2e-9, (delta, n)


def test_elliptic_sums_input_contract():
    l1 = np.ones(41)
    with pytest.raises(ValueError, match="positive"):
        elliptic_sums([0, 3], [(12, 2)], l1)
    with pytest.raises(ValueError, match="ascending"):
        elliptic_sums([5, 3], [(12, 2)], l1)
    with pytest.raises(ValueError, match="nonnegative"):
        elliptic_sums([3, 5], [(12, -1)], l1)
    assert elliptic_sums([], [(12, 2), (10, 3)], l1).shape == (2, 0)
    # an empty window is a row of exact zeros beside the others
    rows = elliptic_sums([3, 5], [(12, 0), (10, 3)], l1)
    assert not rows[0].any() and np.array_equal(rows[1], elliptic_sums([3, 5], [(10, 3)], l1)[0])


def test_elliptic_sums_vs_direct_cosine_sum(sieve_1m):
    # p = 187 631, the largest prime of the K = 3850 figure; one unit L(1)
    # value isolates the (p, t) term, which enters for t and -t
    p = 187631
    assert sieve_1m.is_prime(p)
    k_min, m = progression_weights(3850.0, 100.0, 0)
    ks = [k_min + 4 * j for j in range(m)]
    for t in (1, math.isqrt(4 * p - 1)):
        l1 = np.zeros(4 * p + 1)
        l1[4 * p - t * t] = 1.0
        phi = math.atan2(t, math.sqrt(4 * p - t * t))
        direct = math.fsum(math.cos((k - 1) * phi) for k in ks)
        got = elliptic_sums([p], [(k_min, m)], l1)[0, 0] / 2.0
        assert abs(got - direct) <= 1e-9, t
