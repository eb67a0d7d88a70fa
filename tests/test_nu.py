import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from murmurations.arith import build_factor_sieve, default_euler_constant
from murmurations.nu import (
    Interval,
    _a_bound,
    _a_bound_int64,
    _a_bound_object,
    _squarefree_table,
    evaluate_nu,
    nu_fourier,
    nu_rational,
    prop_circle_check,
    s_alpha_fourier,
    s_alpha_jump,
)

ZETA2 = math.pi**2 / 6


def test_interval_parsing():
    e = Interval.parse("1/4:4")
    assert e.lo == Fraction(1, 4) and isinstance(e.lo, Fraction)
    assert e.hi == Fraction(4) and isinstance(e.hi, Fraction)
    e = Interval.parse("0.25:4")
    assert isinstance(e.lo, float)
    with pytest.raises(ValueError):
        Interval.parse("4:1")
    with pytest.raises(ValueError):
        Interval.parse("1")
    with pytest.raises(ValueError):
        Interval(-0.5, 1.0)


_exact = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)
_exact_width = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)
_float = st.floats(min_value=0, max_value=1e6)


@given(_exact, _exact_width)
def test_interval_parse_roundtrip_exact(lo, width):
    hi = lo + width
    e = Interval.parse(f"{lo}:{hi}")
    assert (e.lo, e.hi) == (lo, hi)
    assert isinstance(e.lo, Fraction) and isinstance(e.hi, Fraction)
    assert Interval.parse(f"{e.lo}:{e.hi}") == e


@given(_float, st.floats(min_value=1e-3, max_value=1e6))
def test_interval_parse_roundtrip_float(lo, width):
    hi = lo + width
    e = Interval.parse(f"{lo!r}:{hi!r}")
    assert (e.lo, e.hi) == (lo, hi)
    assert isinstance(e.lo, float) and isinstance(e.hi, float)


def _brute_nu(E_lo, E_hi, q_max, sieve, w=3, a_cap=4000):
    total = 0.0
    for q in range(1, q_max + 1):
        if q > 1 and sieve.mobius(q) == 0:
            continue
        coeff = 1.0 / (sieve.euler_phi(q) ** 2 * sieve.sigma(q))
        for a in range(1, a_cap):
            if math.gcd(a, q) != 1:
                continue
            y = Fraction(q * q, a * a)
            if E_lo < y < E_hi:
                weight = 1.0
            elif y == E_lo or y == E_hi:
                weight = 0.5
            else:
                continue
            total += coeff * weight * (q / a) ** w
    return total / ZETA2


def test_nu_rational_vs_bruteforce(sieve_1m):
    E = Interval(Fraction(1, 4), Fraction(4))
    for q_max in (10, 50, 200):
        got = nu_rational(E, q_max, sieve_1m).value
        want = _brute_nu(Fraction(1, 4), Fraction(4), q_max, sieve_1m)
        assert abs(got - want) < 1e-12
    atoms = nu_rational(E, 50, sieve_1m).endpoint_atoms
    assert (2, 1, "lo") in atoms and (1, 2, "hi") in atoms


def _exact_atom_sum(lo, hi, q_max, sieve, w):
    """The atom sum over squarefree q <= q_max and coprime a in exact
    rationals, for 1/144 <= lo (so q/a >= 1/12), and the atoms on an endpoint
    in nu_rational's order."""
    total, atoms = Fraction(0), []
    for q in range(1, q_max + 1):
        if sieve.mobius(q) == 0:
            continue
        coeff = Fraction(1, sieve.euler_phi(q) ** 2 * sieve.sigma(q))
        for a in range(1, 12 * q + 1):
            y = Fraction(q * q, a * a)
            if math.gcd(a, q) != 1 or not lo <= y <= hi:
                continue
            if y in (lo, hi):
                total += coeff * Fraction(q, a) ** w / 2
                atoms.append((a, q, "lo" if y == lo else "hi"))
            else:
                total += coeff * Fraction(q, a) ** w
    return total, sorted(atoms, key=lambda atom: (atom[1], atom[2] == "hi"))


# exact endpoints: atoms (q/a)^2 or plain fractions, in [1/144, 144]
_atom_y = st.builds(lambda q, a: Fraction(q, a) ** 2, st.integers(1, 12), st.integers(1, 12))
_plain_y = st.fractions(min_value=Fraction(1, 144), max_value=144, max_denominator=1000)


@given(
    st.lists(_atom_y | _plain_y, min_size=2, max_size=2, unique=True),
    st.integers(1, 30),
    st.sampled_from([3, 4]),
)
def test_nu_rational_exact_endpoints_vs_fraction_sum(sieve_1m, ends, q_max, w):
    lo, hi = sorted(ends)
    got = nu_rational(Interval(lo, hi), q_max, sieve_1m, weight={3: "cubic", 4: "quartic"}[w])
    total, atoms = _exact_atom_sum(lo, hi, q_max, sieve_1m, w)
    assert abs(got.value - float(total) / ZETA2) < 1e-12
    assert got.endpoint_atoms == atoms


def test_nu_rational_float_endpoints_vs_bruteforce(sieve_1m):
    rng = random.Random(7)
    for _ in range(6):
        u = rng.uniform(0.2, 4.0)
        v = rng.uniform(u + 0.05, 6.0)
        a_cap = math.ceil(150 / math.sqrt(u)) + 2  # every a with (q/a)^2 >= u
        for w in (3, 4):
            got = nu_rational(Interval(u, v), 150, sieve_1m, weight={3: "cubic", 4: "quartic"}[w])
            want = _brute_nu(u, v, 150, sieve_1m, w=w, a_cap=a_cap)
            assert abs(got.value - want) < 1e-12 * max(1.0, want)
            assert got.endpoint_atoms == []
    # a-bounds near q 1e20 pass 2^63: clipped, and the mass there is ~1e-40
    tiny = nu_rational(Interval(Fraction(0), 1e-40), 10**4, sieve_1m).value
    assert 0.0 <= tiny < 1e-30


def test_nu_rational_large_denominator_endpoints(sieve_1m):
    # exact endpoints next to the atoms at y = 1/4 and y = 4, one with a
    # 1/4 endpoint written in large terms so the atom still sits on it
    lo = Fraction(10**20, 4 * 10**20 + 1)
    hi = Fraction(4 * 10**20 - 1, 10**20)
    got = nu_rational(Interval(lo, hi), 100, sieve_1m)
    assert abs(got.value - _brute_nu(lo, hi, 100, sieve_1m)) < 1e-12
    assert got.endpoint_atoms == []
    big = Fraction(3 * 10**20, 12 * 10**20)
    got = nu_rational(Interval(big, Fraction(4)), 100, sieve_1m)
    assert abs(got.value - _brute_nu(big, Fraction(4), 100, sieve_1m)) < 1e-12
    assert (2, 1, "lo") in got.endpoint_atoms and (1, 2, "hi") in got.endpoint_atoms


def test_a_bound_int64_path_matches_object_path():
    # both exact paths of nu._a_bound on seeded fractions, on q up to 10^4
    # and on q near the int64 path's limit q^2 y_den < 2^62
    rng = random.Random(23)
    small = np.arange(1, 10**4 + 1, dtype=np.int64)
    ys = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(30)]
    # squares (b/a)^2 put atoms on the endpoint at every q divisible by b
    ys += [Fraction(b * b, a * a) for a, b in ((1, 2), (2, 1), (5, 3), (7, 11), (1, 1))]
    atoms_near_limit = 0
    for y in ys:
        top = math.isqrt(((1 << 62) - 1) // y.denominator)
        big = np.array(sorted({top, top - 1, *(rng.randint(top // 2, top) for _ in range(200))}))
        for q in (small, big, big - big % math.isqrt(y.numerator)):
            for upper in (True, False):
                a, on = _a_bound_int64(q, y, upper)
                a_obj, on_obj = _a_bound_object(q, y, upper)
                assert a.dtype == np.int64 and np.array_equal(a, a_obj), (y, upper)
                assert np.array_equal(on, on_obj), (y, upper)
                got = _a_bound(q, y, upper)
                assert np.array_equal(got[0], a) and np.array_equal(got[1], on)
                atoms_near_limit += int(on.sum()) if q is not small else 0
    assert atoms_near_limit > 0
    a, on = _a_bound_int64(small, Fraction(9, 25), upper=True)
    assert on.sum() == 10**4 // 3 and np.array_equal(a[on] * 3, small[on] * 5)


def test_squarefree_table_vs_factorization(sieve_1m):
    table = _squarefree_table(2000)
    for q in range(1, 2001):
        want = 1.0 / (sieve_1m.euler_phi(q) ** 2 * sieve_1m.sigma(q)) if sieve_1m.mobius(q) else 0.0
        assert table.coeff[q] == want, q
    assert table.q.tolist() == [q for q in range(1, 2001) if sieve_1m.mobius(q)]
    pairs = sorted(zip(table.q[table.owner].tolist(), table.d.tolist(), table.mu_d.tolist()))
    want = sorted(
        (q, d, sieve_1m.mobius(d)) for q in table.q.tolist() for d in sieve_1m.divisors(q)
    )
    assert pairs == want


def test_caches_hold_no_sieve(window):
    # the nu caches are keyed on sizes; one keyed on the caller's sieve would
    # keep every sieve a caller builds alive
    sieve = build_factor_sieve(4000)
    before = sys.getrefcount(sieve)
    E = Interval(Fraction(1, 4), Fraction(4))
    nu_rational(E, 1500, sieve)
    s_alpha_jump(Fraction(1, 3), 1500, sieve)
    evaluate_nu(E, 1500, 1500, sieve)
    evaluate_nu(E, 1500, 800, sieve)
    s_alpha_fourier(Fraction(1, 3), 1500, sieve)
    prop_circle_check(1, 3, 0.0, 20.0, window, sieve)
    assert sys.getrefcount(sieve) == before


def test_nu_rational_near_one(sieve_1m):
    # [0.9, 1.1] is dominated by the a = q = 1 atom of mass 1/zeta(2)
    val = nu_rational(Interval(Fraction(9, 10), Fraction(11, 10)), 1000, sieve_1m).value
    assert abs(val - 1.0 / ZETA2) < 0.02
    assert val > 1.0 / ZETA2  # higher-q atoms only add mass


def test_quartic_weight_fixed_point(sieve_1m):
    # at q/a = 1 the cubic and quartic atoms coincide
    E = Interval(Fraction(9, 10), Fraction(11, 10))
    cubic = nu_rational(E, 1, sieve_1m).value
    quartic = nu_rational(E, 1, sieve_1m, weight="quartic").value
    assert cubic == quartic == 1.0 / ZETA2


def test_nu_monotone(sieve_1m):
    rng = random.Random(3)
    for _ in range(10):
        u = rng.uniform(0.2, 3.0)
        v = rng.uniform(u + 0.05, 5.0)
        pad = rng.uniform(0.01, 0.15)
        inner = nu_rational(Interval(u, v), 800, sieve_1m).value
        outer = nu_rational(Interval(max(1e-3, u - pad), v + pad), 800, sieve_1m).value
        assert inner <= outer + 1e-15
        assert inner >= 0.0


def test_nu_additivity_with_atom_halving(sieve_1m):
    # y = 4 carries the (a, q) = (1, 2) atom; the halves must recombine
    left = nu_rational(Interval(Fraction(2), Fraction(4)), 2000, sieve_1m).value
    right = nu_rational(Interval(Fraction(4), Fraction(7)), 2000, sieve_1m).value
    full = nu_rational(Interval(Fraction(2), Fraction(7)), 2000, sieve_1m).value
    assert abs(left + right - full) < 1e-12
    # irrational split point: no atom, plain additivity
    v = 3.3141592653589793
    left = nu_rational(Interval(Fraction(2), v), 2000, sieve_1m).value
    right = nu_rational(Interval(v, Fraction(7)), 2000, sieve_1m).value
    assert abs(left + right - full) < 1e-12


def test_rational_tail_bound_is_honest(sieve_1m):
    for E in (Interval(Fraction(1, 4), Fraction(4)), Interval(0.7, 3.1)):
        for q_max in (100, 400, 1600):
            part = nu_rational(E, q_max, sieve_1m)
            refined = nu_rational(E, 4 * q_max, sieve_1m)
            assert abs(refined.value - part.value) <= part.tail_bound


def test_nu_fourier_t_zero_term(sieve_1m):
    E = Interval(Fraction(1, 4), Fraction(4))
    assert nu_fourier(E, 0, sieve_1m).value == 0.5 * (4.0 - 0.25)
    with pytest.raises(ValueError):
        nu_fourier(Interval(Fraction(0), Fraction(2)), 100, sieve_1m)


def test_two_formula_agreement_quarter_four(sieve_1m):
    E = Interval(Fraction(1, 4), Fraction(4))
    rat = nu_rational(E, 2000, sieve_1m).value
    four = nu_fourier(E, 2000, sieve_1m).value
    assert abs(rat - four) < 5e-4
    rat = nu_rational(E, 5000, sieve_1m).value
    four = nu_fourier(E, 5000, sieve_1m).value
    assert abs(rat - four) < 3e-4


def test_two_formula_agreement_quartic(sieve_1m):
    E = Interval(Fraction(1, 2), Fraction(3))
    rat = nu_rational(E, 4000, sieve_1m, weight="quartic").value
    four = nu_fourier(E, 4000, sieve_1m, weight="quartic").value
    assert abs(rat - four) < 5e-4


def test_evaluation_invariants(sieve_1m):
    rng = random.Random(12)
    for _ in range(5):
        u = rng.uniform(0.25, 3.0)
        v = rng.uniform(u + 0.2, 5.0)
        ev = evaluate_nu(Interval(u, v), 3000, 3000, sieve_1m)
        assert ev.rational_form_value >= 0
        combined = ev.rational_tail_bound + ev.fourier_tail_bound
        assert abs(ev.rational_form_value - ev.fourier_form_value) <= combined


def test_f_array_matches_factorized_values(sieve_1m):
    f = sieve_1m.multiplicative_tables(5000)[2]
    for t in (1, 2, 6, 12, 30, 4999):
        want = math.prod(1.0 + 1.0 / (p * p - p - 1) for p, _ in sieve_1m.factorize(t))
        assert abs(f[t] - want) < 1e-12


def test_product_identity_bridge(sieve_1m):
    """prod over p <= 1e6 not dividing t of (p^2-p-1)/(p^2-p) against
    C f(t) / zeta(2): exact when zeta(2) is truncated at the same primes,
    and within the prime tail (~1.3e-7) against the closed constant."""
    p = sieve_1m.primes.astype(np.float64)
    log_all = math.fsum(np.log1p(-1.0 / (p * p - p)))
    log_zeta2_partial = -math.fsum(np.log1p(-1.0 / (p * p)))
    c = default_euler_constant()
    for t in range(1, 101):
        drop = math.fsum(
            math.log1p(-1.0 / (q * q - q)) for q, _ in sieve_1m.factorize(t)
        )
        lhs = math.exp(log_all - drop)
        ft = math.prod(1.0 + 1.0 / (q * q - q - 1) for q, _ in sieve_1m.factorize(t))
        assert abs(lhs - c * ft / math.exp(log_zeta2_partial)) < 1e-10
        assert abs(lhs - c * ft / ZETA2) < 5e-7


def test_s_alpha_periodicity(sieve_1m):
    for alpha in (0.3, 0.7, 1.9):
        d = s_alpha_jump(alpha + 1.0, 2000, sieve_1m) - s_alpha_jump(alpha, 2000, sieve_1m)
        # periodic up to the q > q_max truncation of one extra unit of atoms
        assert abs(d) < 1e-3


def test_s_alpha_endpoint_weights(sieve_1m):
    full = s_alpha_jump(Fraction(1), 10**4, sieve_1m)
    halved = s_alpha_jump(Fraction(1), 10**4, sieve_1m, star=True)
    assert abs((full - halved) - 0.5) < 1e-12  # the a/q = 1 atom has mass 1
    # S*(1/2) vanishes by odd symmetry
    assert abs(s_alpha_jump(Fraction(1, 2), 10**4, sieve_1m, star=True)) < 1e-3


def test_s_alpha_mean_value(sieve_1m):
    """Midpoint sampling of the jump function over one period."""
    n = 20000
    alphas = (np.arange(n) + 0.5) / n
    total = 0.5 - ZETA2 * alphas
    for q in range(1, 1001):
        if q > 1 and sieve_1m.mobius(q) == 0:
            continue
        coeff = 1.0 / (sieve_1m.euler_phi(q) ** 2 * sieve_1m.sigma(q))
        count = np.zeros(n)
        for divisor, mu in _mu_divisor_pairs(sieve_1m, q):
            if mu:
                count += mu * np.floor(alphas * q / divisor)
        total += coeff * count
    assert abs(total.mean()) < 1e-3


def test_s_alpha_jump_large_numerator(sieve_1m):
    # alpha q / d overflows 64-bit integers, and alpha sits 1e-30 from 1/3,
    # closer than a float resolves; the floors must be exact
    third = s_alpha_jump(Fraction(1, 3), 300, sieve_1m)
    for offset in (1, -1):
        alpha = Fraction(10**30 + offset, 3 * 10**30)
        want = 0.5 - ZETA2 * float(alpha)
        for q in range(1, 301):
            if sieve_1m.mobius(q) == 0:
                continue
            count = sum(
                mu * (alpha.numerator * q // (alpha.denominator * d))
                for d, mu in _mu_divisor_pairs(sieve_1m, q)
            )
            want += count / (sieve_1m.euler_phi(q) ** 2 * sieve_1m.sigma(q))
        got = s_alpha_jump(alpha, 300, sieve_1m, star=True)
        assert abs(got - want) < 1e-12
        # above 1/3 its atom (mass 1/16) counts in full, below not at all
        assert abs(got - (third if offset > 0 else third - 1 / 16)) < 1e-12


def _mu_divisor_pairs(sieve, q):
    out = [(1, 1)]
    for p, _ in sieve.factorize(q):
        out += [(d * p, -mu) for d, mu in out]
    return out


def test_s_alpha_fourier_odd_symmetry(sieve_1m):
    for alpha in (0.21, 0.35, 0.47):
        a = s_alpha_fourier(alpha, 2000, sieve_1m)
        b = s_alpha_fourier(1.0 - alpha, 2000, sieve_1m)
        assert abs(a + b) < 1e-9


def test_s_alpha_fourier_vs_jump(sieve_1m):
    for alpha in (Fraction(1, 2), Fraction(1, 3), math.sqrt(2) - 1):
        series = s_alpha_fourier(alpha, 10**5, sieve_1m)
        jump = s_alpha_jump(alpha, 10**4, sieve_1m, star=True)
        assert abs(series - jump) <= 2e-3, alpha


def test_s_alpha_fourier_exact_alpha_has_period_one(sieve_1m):
    # t * numerator passes int64 here; the residues t a mod q must stay exact
    t_max = 10**5
    alpha = Fraction(2**50 + 3, 2**51 + 1)
    got = s_alpha_fourier(alpha, t_max, sieve_1m)
    assert got == s_alpha_fourier(alpha + 7, t_max, sieve_1m)
    assert got == s_alpha_fourier(alpha - 3, t_max, sieve_1m)
    q, a = alpha.denominator, alpha.numerator
    residues = np.array([t * a % q for t in range(1, t_max + 1)], dtype=np.float64)
    t = np.arange(1, t_max + 1, dtype=np.float64)
    f = sieve_1m.multiplicative_tables(t_max)[2][1 : t_max + 1]
    want = default_euler_constant() * np.dot(f / (math.pi * t), np.sin(2 * math.pi * residues / q))
    assert abs(got - want) <= 1e-15
    # where the products fit, alpha and alpha + 7 take the same int64 path
    assert s_alpha_fourier(Fraction(1, 3), t_max, sieve_1m) == s_alpha_fourier(
        Fraction(22, 3), t_max, sieve_1m
    )


def test_prop_circle_reads_a_mod_q(window, sieve_1m):
    # a * t passes int64 at a = 1 + 10^15 q, and a = 1 + 10^30 q is no int64
    for q, theta in ((7, 0.0), (10, 0.003)):
        base = prop_circle_check(3, q, theta, 100.0, window, sieve_1m)
        for a in (3 + 10**15 * q, 3 + 10**30 * q, 3 - 10**15 * q):
            chk = prop_circle_check(a, q, theta, 100.0, window, sieve_1m)
            assert dataclasses.replace(chk, a=3) == base, (q, a)


def test_prop_circle_main_term(window, sieve_1m):
    chk = prop_circle_check(1, 1, 0.0, 500.0, window, sieve_1m)
    assert abs(chk.main_term - 500.0) < 1e-9
    assert abs(chk.residual) <= 0.5
    assert 0.0 <= chk.hat_error <= 1e-13


def test_prop_circle_non_squarefree(window, sieve_1m):
    chk = prop_circle_check(1, 4, 0.0, 250.0, window, sieve_1m)
    assert chk.main_term == 0.0
    assert abs(chk.lhs) <= 50.0 * 4 / 250.0


def test_prop_circle_support_endpoint(window, sieve_1m):
    # theta = 1/x puts the main term at W(1) = 0
    chk = prop_circle_check(1, 2, 1.0 / 250.0, 250.0, window, sieve_1m)
    assert chk.main_term == 0.0
    assert abs(chk.lhs) <= 50.0 * 2 / 250.0


def test_prop_circle_validation(window, sieve_1m):
    with pytest.raises(ValueError):
        prop_circle_check(2, 4, 0.0, 100.0, window, sieve_1m)
