"""The limiting measure on conductor-normalized primes: rational-atom and
Fourier-series evaluations, the associated jump function on frequencies, and
the numeric main-term check for the exponential sum near rationals."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import FactorSieve, build_factor_sieve, default_euler_constant
from .window import WindowFunction, blockwise, make_window

__all__ = [
    "Interval",
    "NuPart",
    "NuEvaluation",
    "nu_rational",
    "integer_murmuration_nu",
    "nu_fourier",
    "evaluate_nu",
    "s_alpha_jump",
    "s_alpha_fourier",
    "CircleCheck",
    "prop_circle_check",
]

ZETA2 = math.pi**2 / 6.0
_EULER_GAMMA_EXP = 1.7810724179901979  # e^gamma, Rosser-Schoenfeld phi bound

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


@dataclass(frozen=True)
class Interval:
    """Interval [lo, hi] in the normalized-prime variable y = p/N.

    An atom (q/a)^2 on a ``Fraction`` endpoint is found in exact integers
    and counts half.  A float endpoint places the atoms by q/sqrt(y) in
    floats: an atom it hits, or comes within rounding of, counts in full or
    not at all (0.25 holds 1/4 = (1/2)^2 in full as a lower endpoint), never
    half.  Write the endpoint as a fraction to place its atoms exactly.
    """

    lo: Fraction | float
    hi: Fraction | float

    def __post_init__(self):
        if float(self.lo) < 0:
            raise ValueError("interval must sit in y >= 0")
        if not float(self.lo) < float(self.hi):
            raise ValueError("interval needs lo < hi")

    @staticmethod
    def _parse_endpoint(text: str) -> Fraction | float:
        text = text.strip()
        if _RATIONAL_RE.match(text):
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"interval endpoint {text!r} has a zero denominator") from None
        return float(text)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"interval must look like 'lo:hi', got {text!r}")
        return cls(cls._parse_endpoint(parts[0]), cls._parse_endpoint(parts[1]))


@dataclass
class NuPart:
    """One evaluation route: value plus an upper bound for what was cut off."""

    value: float
    tail_bound: float
    endpoint_atoms: list = field(default_factory=list)


@dataclass
class NuEvaluation:
    """Both routes to the measure of an interval, with truncation metadata."""

    E: Interval
    rational_form_value: float
    fourier_form_value: float | None
    rational_tail_bound: float
    fourier_tail_bound: float | None
    q_max: int
    t_max: int | None
    endpoint_terms: list


_TAIL_CUT = 4096
# a-bounds are clipped here to stay in int64 arithmetic; the atoms past the
# clip weigh under 2^-124 per q, far below any tail bound
_A_CAP = 2**62


def _em_tail(w: int, x):
    # Euler-Maclaurin for sum_{b >= x} b^-w; next omitted term is O(x^-w-3)
    return x ** (1 - w) / (w - 1) + 0.5 * x ** (-w) + w / 12.0 * x ** (-w - 1)


@lru_cache(maxsize=8)
def _tail_table(w: int) -> np.ndarray:
    """sum_{b >= B} b^-w for B = 1.._TAIL_CUT."""
    b = np.arange(1, _TAIL_CUT + 1, dtype=np.float64)
    vals = b ** (-float(w))
    return np.cumsum(vals[::-1])[::-1] + _em_tail(w, float(_TAIL_CUT + 1))


def _zeta_tails(w: int, B: np.ndarray) -> np.ndarray:
    """sum_{b >= B} b^-w for w in {3, 4}, elementwise over integers B >= 1."""
    out = np.empty(B.shape)
    small = B <= _TAIL_CUT
    out[small] = _tail_table(w)[B[small] - 1]
    out[~small] = _em_tail(w, B[~small].astype(np.float64))
    return out


@dataclass(frozen=True)
class _SquarefreeTable:
    """The squarefree q <= q_max, their atom coefficients, and every pair
    (q, d) with d | q, flattened, for the Moebius sums over divisors."""

    coeff: np.ndarray  # mu(q)^2/(phi(q)^2 sigma(q)) for q = 0..q_max
    q: np.ndarray  # the squarefree q, ascending
    owner: np.ndarray  # per pair: index of its q in ``q``
    d: np.ndarray  # per pair: the divisor d
    mu_d: np.ndarray  # per pair: mu(d)


@lru_cache(maxsize=8)
def _squarefree_table(q_max: int) -> _SquarefreeTable:
    # a sieve of its own: a cache keyed on the caller's sieve would keep it alive
    mu, coeff, _ = build_factor_sieve(max(q_max, 2)).multiplicative_tables(q_max)
    q = np.flatnonzero(mu)
    # each squarefree d against its multiples k d <= q_max; a squarefree
    # multiple has squarefree divisors only, so this lists every pair once
    reps = q_max // q
    d = np.repeat(q, reps)
    multiple = d * (np.arange(d.size) - np.repeat(np.cumsum(reps) - reps, reps) + 1)
    keep = mu[multiple] != 0
    d = d[keep]
    index = np.zeros(q_max + 1, dtype=np.int64)
    index[q] = np.arange(q.size)
    table = _SquarefreeTable(coeff=coeff, q=q, owner=index[multiple[keep]], d=d, mu_d=mu[d])
    # cached and shared between callers
    for arr in (table.coeff, table.q, table.owner, table.d, table.mu_d):
        arr.flags.writeable = False
    return table


def _rational_tail_bound(E: Interval, w: int, q_max: int) -> float:
    """Documented bound for the atoms dropped beyond q_max.

    Each squarefree q contributes at most v^{w/2} (1 + q L) q^w/(phi^2 sigma)
    atoms mass, with L the a/q-range length (or 1/((w-1) sqrt(v)) when the
    range is one-sided).  With phi sigma >= q^2/zeta(2) and the explicit
    phi(q) > q / (e^gamma lnln q + 2.51/lnln q) bound, summing q > Q gives
    tail <= v^{w/2} G(Q) (L + 1/Q) / Q, G(Q) = e^gamma (lnln Q + 1) + 2.51.
    """
    v = float(E.hi)
    u = float(E.lo)
    if u > 0:
        L = u ** (-0.5) - v ** (-0.5)
    else:
        L = 1.0 / ((w - 1) * math.sqrt(v))
    Q = max(q_max, 16)
    G = _EULER_GAMMA_EXP * (math.log(math.log(Q)) + 1.0) + 2.51
    return v ** (w / 2.0) * G * (L + 1.0 / Q) / Q


_ISQRT = np.frompyfunc(math.isqrt, 1, 1)
# exact a-bounds run in int64 while q_max^2 y_den and y_num stay below this
_INT64_EXACT = 1 << 62


def _a_bound(q: np.ndarray, y: Fraction | float, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per q, the a-bound set by the endpoint y: the greatest a with
    (q/a)^2 >= y > 0 if ``upper``, else the least a >= 1 with (q/a)^2 <= y;
    and whether (q/a)^2 = y there.  An exact y is handled in integers, by
    comparing a^2 y_num with q^2 y_den."""
    if isinstance(y, Fraction):
        q_max = int(q.max(initial=0))
        if q_max * q_max * y.denominator < _INT64_EXACT and y.numerator < _INT64_EXACT:
            return _a_bound_int64(q, y, upper)
        return _a_bound_object(q, y, upper)
    a = q / math.sqrt(y)
    a = np.floor(a) if upper else np.maximum(np.ceil(a), 1.0)
    return np.minimum(a, _A_CAP).astype(np.int64), np.zeros(q.size, dtype=bool)


def _a_bound_object(q: np.ndarray, y: Fraction, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """_a_bound at an exact y in Python integers, for any size."""
    target = q.astype(object) ** 2 * y.denominator
    if upper:
        a = _ISQRT(target // y.numerator)
    else:
        a = _ISQRT(-(-target // y.numerator) - 1) + 1
    on = (a * a * y.numerator == target).astype(bool)
    return np.minimum(a, _A_CAP).astype(np.int64), on


def _a_bound_int64(q: np.ndarray, y: Fraction, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """_a_bound at an exact y in int64, when q^2 y_den and y_num are below
    2^62: the same integer square roots isqrt(s), from the float sqrt and
    one exact step down.  Rounding is monotone and a correctly rounded
    sqrt(fl(r^2)) is r, so r^2 <= s < (r + 1)^2 gives a float floor of r or
    r + 1, never r - 1."""
    target = q.astype(np.int64) ** 2 * y.denominator
    s = target // y.numerator if upper else -(-target // y.numerator) - 1
    a = np.floor(np.sqrt(s.astype(np.float64))).astype(np.int64)
    a -= a * a > s
    if not upper:
        a += 1
    on = (target % y.numerator == 0) & (a * a == target // y.numerator)
    return a, on


def _atom_sum(E: Interval, q_max: int, w: int) -> tuple[float, list]:
    """sum over coprime a, q <= q_max with (q/a)^2 in E of
    mu(q)^2/(phi(q)^2 sigma(q)) (q/a)^w, halving the atoms that ``_a_bound``
    puts on an endpoint, and those atoms as (a, q, side).

    For each squarefree q the a-range [a_lo, a_hi] is summed over a coprime
    to q as sum over d | q of mu(d) d^-w times two zeta tails, all q and d
    at once from the flattened divisor pairs.
    """
    table = _squarefree_table(q_max)
    q, d, owner = table.q, table.d, table.owner
    a_lo, on_hi = _a_bound(q, E.hi, upper=False)
    tails = _zeta_tails(w, -(-a_lo[owner] // d))
    if float(E.lo) == 0:
        # a unbounded above
        a_hi, on_lo = None, np.zeros(q.size, dtype=bool)
        nonempty = np.ones(q.size, dtype=bool)
    else:
        a_hi, on_lo = _a_bound(q, E.lo, upper=True)
        tails -= _zeta_tails(w, a_hi[owner] // d + 1)
        nonempty = a_hi >= a_lo
    per_q = np.bincount(owner, weights=table.mu_d * d ** (-float(w)) * tails, minlength=q.size)
    inner = np.where(nonempty, q.astype(np.float64) ** w * per_q, 0.0)
    atoms = []
    for side, a_edge, on in (("lo", a_hi, on_lo), ("hi", a_lo, on_hi)):
        hit = np.flatnonzero(on & nonempty)
        if not hit.size:
            # a_hi is None when a is unbounded above
            continue
        for i in hit[np.gcd(a_edge[hit], q[hit]) == 1]:
            a, qi = int(a_edge[i]), int(q[i])
            inner[i] -= 0.5 * (qi / a) ** w
            atoms.append((a, qi, side))
    atoms.sort(key=lambda atom: (atom[1], atom[2] == "hi"))
    return float(np.dot(table.coeff[q], inner)), atoms


def nu_rational(
    E: Interval, q_max: int, sieve: FactorSieve, weight: str = "cubic"
) -> NuPart:
    """Atom-sum form: (1/zeta(2)) sum over coprime a, q with (a/q)^-2 in E of
    mu(q)^2/(phi(q)^2 sigma(q)) (q/a)^w, w = 3 (or 4 for the sqrt-weighted
    variant); atoms exactly on an exact endpoint count half."""
    if q_max < 1:
        raise ValueError("q_max must be positive")
    if q_max > sieve.bound:
        raise ValueError("q_max exceeds sieve bound")
    w = {"cubic": 3, "quartic": 4}[weight]
    total, atoms = _atom_sum(E, q_max, w)
    return NuPart(
        value=total / ZETA2,
        tail_bound=_rational_tail_bound(E, w, q_max),
        endpoint_atoms=atoms,
    )


def integer_murmuration_nu(E: Interval) -> float:
    """Integer-summation analogue of the limit measure: sum over a >= 1 with
    a^-2 in E of a^-3, an atom on an exact endpoint counting half.  It is the
    q = 1 term of ``nu_rational``'s atom sum, times zeta(2), so the sum over
    a is two exact zeta tails."""
    return _atom_sum(E, 1, 3)[0]


_SI_ASYMPTOTIC_SWITCH = 40.0


def _si_minus_half_pi(x: np.ndarray) -> np.ndarray:
    """Si(x) - pi/2 for x > 0, accurate in relative terms.

    The shifted value decays like cos(x)/x; the library Si is only
    absolutely accurate near its pi/2 limit, which is fatal once multiplied
    by the t^3 prefactor of the quartic antiderivative.  Past the switch the
    auxiliary asymptotic expansion Si = pi/2 - f cos - g sin is summed to its
    optimal truncation (error ~ e^-x).
    """
    # imported here so that runs without the Fourier form do not load scipy.special
    from scipy.special import sici

    out = np.empty_like(x)
    small = x < _SI_ASYMPTOTIC_SWITCH
    if small.any():
        si, _ = sici(x[small])
        out[small] = si - 0.5 * math.pi
    big = ~small
    if big.any():
        xb = x[big]
        inv2 = 1.0 / (xb * xb)
        f = np.zeros_like(xb)
        g = np.zeros_like(xb)
        term_f = 1.0 / xb
        term_g = inv2.copy()
        sign = 1.0
        for k in range(18):
            f += sign * term_f
            g += sign * term_g
            term_f *= (2 * k + 1) * (2 * k + 2) * inv2
            term_g *= (2 * k + 2) * (2 * k + 3) * inv2
            sign = -sign
        out[big] = -f * np.cos(xb) - g * np.sin(xb)
    return out


def _cubic_antiderivative(a: np.ndarray, s: float) -> np.ndarray:
    # antiderivative in s of cos(a s) / s^3, a vectorized
    # imported here so that runs without the Fourier form do not load scipy.special
    from scipy.special import sici

    x = a * s
    _, ci = sici(x)
    return -np.cos(x) / (2 * s * s) + a * np.sin(x) / (2 * s) - 0.5 * a * a * ci


def _quartic_antiderivative(a: np.ndarray, s: float) -> np.ndarray:
    # antiderivative in s of cos(a s) / s^4, shifted by the constant
    # a^3 pi / 12 (constants cancel in endpoint differences)
    x = a * s
    return (
        -np.cos(x) / (3 * s**3)
        + a * np.sin(x) / (6 * s * s)
        + a * a * np.cos(x) / (6 * s)
        + a**3 * _si_minus_half_pi(x) / 6.0
    )


def _oscillatory_integrals(E: Interval, tmax: int, w: int) -> np.ndarray:
    """integral over E of cos(2 pi t / sqrt(y)) (sqrt(y) if w = 4) dy for
    t = 1..tmax, via the substitution y = s^-2 and exact antiderivatives."""
    u, v = float(E.lo), float(E.hi)
    s1, s2 = 1.0 / math.sqrt(v), 1.0 / math.sqrt(u)
    a = 2.0 * math.pi * np.arange(1, tmax + 1, dtype=np.float64)
    anti = _cubic_antiderivative if w == 3 else _quartic_antiderivative
    return blockwise(lambda ab: 2.0 * (anti(ab, s2) - anti(ab, s1)), a)


# floor of the reported quadrature error of nu_fourier
_QUAD_TOL = 1e-9


def nu_fourier(
    E: Interval,
    t_max: int,
    sieve: FactorSieve,
    weight: str = "cubic",
) -> NuPart:
    """Fourier form: (1/2) sum over t of prod_{p not dividing t}
    (p^2-p-1)/(p^2-p) * integral over E of cos(2 pi t / sqrt(y)) dy.

    The t = 0 coefficient is exactly 1 (empty product); |t| >= 1 pairs are
    folded and their infinite products evaluated as C f(t) / zeta(2).  The
    y-integrals are done in closed form (sine/cosine integrals), so the
    quadrature error is at rounding level; _QUAD_TOL is kept as a floor for
    the reported bound.

    The series converges only conditionally (its tail is a Fourier series
    with jumps), so a plain cutoff at t_max would leave an O(1/t_max)
    oscillatory remainder with a large constant whenever an endpoint of the
    s = y^(-1/2) interval sits near a small-denominator rational.  Term t is
    therefore tapered by the smooth window, weight W(t/t_max): it falls from
    1 at t = 0 through 0.877 at t_max/4 and 1/2 at t_max/2 to 0 at t_max.
    The smoothed remainder is governed only by atoms within ~1/t_max of the
    endpoints.
    """
    if float(E.lo) <= 0:
        raise ValueError("Fourier form needs a strictly positive lower endpoint")
    if not math.isfinite(float(E.hi)):
        raise ValueError("Fourier form needs a finite upper endpoint")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    w = {"cubic": 3, "quartic": 4}[weight]
    u, v = float(E.lo), float(E.hi)
    if w == 3:
        base = 0.5 * (v - u)
    else:
        base = (v**1.5 - u**1.5) / 3.0
    if t_max == 0:
        return NuPart(value=base, tail_bound=math.inf)
    coeff = default_euler_constant() / ZETA2 * sieve.multiplicative_tables(t_max)[2][1:]
    taper = _taper(t_max)
    integrals = _oscillatory_integrals(E, t_max, w)
    value = base + float(np.dot(coeff * taper, integrals))
    tail = 4.0 * v ** ((w - 1) / 2.0) * (1.0 + math.log(t_max)) / t_max
    quad_err = max(_QUAD_TOL, 3e-15 * math.sqrt(v) * t_max**1.5)
    return NuPart(value=value, tail_bound=tail + quad_err)


@lru_cache(maxsize=1)
def _taper(t_max: int) -> np.ndarray:
    """The Fourier taper W(t/t_max) for t = 1..t_max, read-only (cached)."""
    taper = make_window().value_many(np.arange(1, t_max + 1) / float(t_max))
    taper.flags.writeable = False
    return taper


def evaluate_nu(
    E: Interval,
    q_max: int,
    t_max: int | None,
    sieve: FactorSieve,
    weight: str = "cubic",
) -> NuEvaluation:
    rat = nu_rational(E, q_max, sieve, weight=weight)
    four = None
    # the Fourier form needs 0 < lo and hi < inf; otherwise only the rational one
    if t_max is not None and float(E.lo) > 0 and math.isfinite(float(E.hi)):
        four = nu_fourier(E, t_max, sieve, weight=weight)
    return NuEvaluation(
        E=E,
        rational_form_value=rat.value,
        fourier_form_value=None if four is None else four.value,
        rational_tail_bound=rat.tail_bound,
        fourier_tail_bound=None if four is None else four.tail_bound,
        q_max=q_max,
        t_max=t_max,
        endpoint_terms=rat.endpoint_atoms,
    )


def s_alpha_jump(
    alpha: Fraction | float,
    q_max: int,
    sieve: FactorSieve,
    star: bool = False,
) -> float:
    """Jump function 1/2 - zeta(2) alpha + sum over fractions a/q <= alpha of
    mu(q)^2/(phi(q)^2 sigma(q)), truncated at q_max.

    The a/q <= alpha in lowest terms number sum over d | q of
    mu(d) floor(alpha q/d); floor(alpha e) is taken once per e = q/d, in
    exact integers for a ``Fraction`` alpha.  ``star`` switches to the
    symmetrized variant that halves the atom at a rational alpha (the one
    the Fourier series converges to).
    """
    if float(alpha) <= 0:
        raise ValueError("alpha must be positive")
    if q_max > sieve.bound:
        raise ValueError("q_max exceeds sieve bound")
    exact = isinstance(alpha, Fraction)
    table = _squarefree_table(q_max)
    e = np.arange(q_max + 1)
    if exact:
        floors = (e.astype(object) * alpha.numerator // alpha.denominator).astype(np.float64)
    else:
        floors = np.floor(float(alpha) * e)
    counts = np.bincount(
        table.owner,
        weights=table.mu_d * floors[table.q[table.owner] // table.d],
        minlength=table.q.size,
    )
    value = 0.5 - ZETA2 * float(alpha) + float(np.dot(table.coeff[table.q], counts))
    if star and exact and alpha.denominator <= q_max:
        value -= 0.5 * table.coeff[alpha.denominator]
    return value


def s_alpha_fourier(alpha: Fraction | float, t_max: int, sieve: FactorSieve) -> float:
    """Partial Fourier series sum_{t <= t_max} L(1, psi_bar_t)/(pi t) sin(2 pi alpha t)."""
    if t_max < 1:
        raise ValueError("t_max must be positive")
    t = np.arange(1, t_max + 1, dtype=np.float64)
    if isinstance(alpha, Fraction):
        q, a = alpha.denominator, alpha.numerator % alpha.denominator
        if t_max * q < 2**63:
            residues = (np.arange(1, t_max + 1, dtype=np.int64) * a) % q
        else:
            # t a would wrap in int64: the residues in Python integers
            residues = np.array([t * a % q for t in range(1, t_max + 1)], dtype=np.float64)
        phase = 2.0 * math.pi * residues / q
    else:
        phase = 2.0 * math.pi * float(alpha) * t
    f = sieve.multiplicative_tables(t_max)[2][1:]
    c = default_euler_constant()
    return float(np.dot(c * f / (math.pi * t), np.sin(phase)))


# grid points at which the circle check probes its W-hat against hat_many
_HAT_PROBES = 33


@dataclass
class CircleCheck:
    """Exponential-sum main-term comparison at alpha = a/q + theta."""

    a: int
    q: int
    theta: float
    x: float
    t_max: int
    lhs: float
    main_term: float
    # largest |FFT grid - panel quadrature| of W-hat over the probed t/x
    hat_error: float

    @property
    def residual(self) -> float:
        return self.lhs - self.main_term


def prop_circle_check(
    a: int,
    q: int,
    theta: float,
    x: float,
    window: WindowFunction,
    sieve: FactorSieve,
    t_mult: float = 120.0,
) -> CircleCheck:
    """Compare sum_t L(1, psi_bar_t) cos(2 pi alpha t) W-hat(t/x) against the
    main term mu(q)^2/(phi(q)^2 sigma(q)) x W(x theta).

    The t-sum runs to t_mult * x; past |xi| = 120 the window transform is
    below 1e-12, so the omitted tail is far below the residuals being
    measured.  W-hat(t/x) comes from the window's FFT grid; ``hat_error``
    reports its deviation from the panel quadrature at a few probed t.
    """
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError("need q >= 1 and gcd(a, q) = 1")
    if q > sieve.bound:
        raise ValueError("q exceeds sieve bound")
    if x < 1:
        raise ValueError("x must be at least 1")
    if not 1 <= t_mult * x < math.inf:
        raise ValueError(
            f"t_mult * x must be at least 1 and finite, got t_mult = {t_mult:g}, x = {x:g}"
        )
    t_max = int(t_mult * x)
    if not math.isfinite(theta * t_max):
        raise ValueError(f"theta * t_max must be finite, got theta = {theta:g}, t_max = {t_max}")
    _, coeff, f = sieve.multiplicative_tables(max(t_max, q))
    c = default_euler_constant()
    t = np.arange(1, t_max + 1, dtype=np.int64)
    # reduce the rational part of alpha exactly; only theta t needs floats
    phase = 2.0 * math.pi * ((((a % q) * t) % q) / float(q) + theta * t)
    what = window.hat_grid(x, t_max)
    lhs = c * (
        sieve.f_zero() + 2.0 * float(np.dot(f[1 : t_max + 1] * np.cos(phase), what[1:]))
    )
    main = x * window.value(x * theta) * coeff[q]
    probe = np.linspace(0, t_max, _HAT_PROBES).astype(np.int64)
    hat_error = float(np.max(np.abs(what[probe] - window.hat_many(probe / float(x)))))
    return CircleCheck(
        a=a, q=q, theta=theta, x=x, t_max=t_max, lhs=lhs, main_term=main, hat_error=hat_error
    )
