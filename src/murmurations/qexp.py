"""Independent ground truth for Hecke traces on level-1 cusp forms: integer
q-expansions built from the eta product and Eisenstein series.

Deliberately self-contained (its own divisor sums, no sieve machinery) so it
can validate the trace-formula module without shared code paths.

`oracle_trace` reads its coefficients from one series per weight kept for the
life of the process: the newform, or at k = 24 the basis pair (Delta E4^3,
Delta E6^2).  A call that needs more than the stored precision rebuilds it at
max(need, min(2 * built, 10^4)), so an ascending sweep to n costs about
log2(n) builds; past 10^4 the builders refuse as before.  The builders
themselves cache nothing, and no cached series leaves the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "IntegerPowerSeries",
    "eta_power_24",
    "eisenstein",
    "newform_qexp",
    "oracle_trace",
    "hecke_coefficient",
    "dimension_supported",
]

# weights with dim S_k(1) = 1 and the (a, b) in Delta * E4^a * E6^b
_NEWFORM_FACTORS = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}
_ZERO_DIM_WEIGHTS = {4, 6, 8, 10, 14}
_MAX_PRECISION = 10**4
# weight -> the series oracle_trace reads: (newform,), or (Delta E4^3, Delta E6^2) at 24
_SERIES: dict[int, tuple[IntegerPowerSeries, ...]] = {}


@dataclass
class IntegerPowerSeries:
    """Truncated integer power series; coeffs[i] is the q^i coefficient.

    Exponents 0..prec-1 are known; offset records the first structurally
    nonzero exponent.  Python integers keep every coefficient exact.
    """

    coeffs: list[int]
    offset: int = 0

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        if n >= self.prec:
            raise IndexError(f"coefficient q^{n} beyond precision {self.prec}")
        return self.coeffs[n] if n >= 0 else 0

    def mul(self, other: "IntegerPowerSeries") -> "IntegerPowerSeries":
        """Truncated product by Kronecker substitution: each series becomes
        one integer, its digits in base X = 2^(8w), and one big-integer
        product gives every coefficient.  Coefficients below an offset are
        structurally zero and are not read."""
        n = min(self.prec + other.offset, other.prec + self.offset)
        offset = self.offset + other.offset
        length = n - offset
        if length <= 0:
            return IntegerPowerSeries([0] * n, offset)
        a = self.coeffs[self.offset : self.offset + length]
        b = other.coeffs[other.offset : other.offset + length]
        bits_a = max(map(abs, a)).bit_length()
        bits_b = bits_a if other is self else max(map(abs, b)).bit_length()
        # every product digit, a sum of at most `length` terms, stays below X/2
        w = (bits_a + bits_b + length.bit_length() + 2 + 7) // 8
        half = 1 << (8 * w - 1)
        bias = int.from_bytes(half.to_bytes(w, "little") * length, "little")
        x = _pack(a, w, half) - bias
        y = x if other is self else _pack(b, w, half) - bias
        # digits above the truncation may be negative; the mask drops them
        packed = ((x * y + bias) & ((1 << (8 * w * length)) - 1)).to_bytes(w * length, "little")
        digits = [
            int.from_bytes(packed[i : i + w], "little") - half for i in range(0, w * length, w)
        ]
        return IntegerPowerSeries([0] * offset + digits, offset)

    def pow(self, e: int) -> "IntegerPowerSeries":
        if e == 0:
            return IntegerPowerSeries([1] + [0] * (self.prec - 1), 0)
        result = None
        base = self
        while True:
            if e & 1:
                result = _structural(base) if result is None else result.mul(base)
            e >>= 1
            if not e:
                return result
            base = base.mul(base)

    def scale(self, k: int) -> "IntegerPowerSeries":
        return IntegerPowerSeries([k * a for a in self.coeffs], self.offset)

    def sub(self, other: "IntegerPowerSeries") -> "IntegerPowerSeries":
        n = min(self.prec, other.prec)
        return IntegerPowerSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n)],
            min(self.offset, other.offset),
        )


def _pack(coeffs: list[int], w: int, half: int) -> int:
    """sum (c_i + half) X^i, X = 2^(8w): each offset digit is w unsigned bytes."""
    return int.from_bytes(b"".join([(c + half).to_bytes(w, "little") for c in coeffs]), "little")


def _structural(series: IntegerPowerSeries) -> IntegerPowerSeries:
    """A copy with the coefficients below the offset zeroed, as a product has them."""
    o = series.offset
    return IntegerPowerSeries([0] * min(o, series.prec) + series.coeffs[o:], o)


def _sigma_powers(precision: int, k: int) -> list[int]:
    """sigma_k(n) for n = 0..precision (0 at n = 0): d^k added to every multiple of d."""
    sigma = [0] * (precision + 1)
    for d in range(1, precision + 1):
        dk = d**k
        for m in range(d, precision + 1, d):
            sigma[m] += dk
    return sigma


def eta_power_24(precision: int) -> IntegerPowerSeries:
    """q * prod (1 - q^m)^24 with coefficients through q^precision, as q J^8
    with Jacobi's prod (1 - q^m)^3 = J = sum_{j >= 0} (-1)^j (2j + 1)
    q^(j(j+1)/2): three squarings."""
    if not 1 <= precision <= _MAX_PRECISION:
        raise ValueError("precision must be in [1, 10^4]")
    coeffs = [0] * precision
    j = 0
    while j * (j + 1) // 2 < precision:
        coeffs[j * (j + 1) // 2] = -(2 * j + 1) if j % 2 else 2 * j + 1
        j += 1
    j8 = IntegerPowerSeries(coeffs, 0).pow(8)
    return IntegerPowerSeries([0] + j8.coeffs, 1)


def eisenstein(k: int, precision: int) -> IntegerPowerSeries:
    if k == 4:
        mult, power = 240, 3
    elif k == 6:
        mult, power = -504, 5
    else:
        raise ValueError("only Eisenstein weights 4 and 6 are provided")
    coeffs = [1] + [mult * s for s in _sigma_powers(precision, power)[1:]]
    return IntegerPowerSeries(coeffs, 0)


def newform_qexp(k: int, precision: int) -> IntegerPowerSeries:
    """The normalized eigenform of one-dimensional S_k(1), coefficients
    lambda_f(n) n^((k-1)/2) through q^precision."""
    if k not in _NEWFORM_FACTORS:
        raise ValueError(f"weight {k} does not have a one-dimensional cusp space")
    a, b = _NEWFORM_FACTORS[k]
    series = eta_power_24(precision)
    if a:
        series = series.mul(eisenstein(4, precision).pow(a))
    if b:
        series = series.mul(eisenstein(6, precision).pow(b))
    return IntegerPowerSeries(series.coeffs[: precision + 1], 1)


def hecke_coefficient(series: IntegerPowerSeries, n: int, k: int, m: int) -> int:
    """q^m coefficient of T_n applied to the series (weight k action)."""
    g = math.gcd(n, m)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += d ** (k - 1) * series[n * m // (d * d)]
    return total


def dimension_supported(k: int) -> bool:
    return k in _ZERO_DIM_WEIGHTS or k in _NEWFORM_FACTORS or k == 24


def _series(k: int, need: int) -> tuple[IntegerPowerSeries, ...]:
    """The stored series of weight k, rebuilt through at least q^need when short."""
    stored = _SERIES.get(k)
    built = stored[0].prec - 1 if stored else 0
    if built >= need:
        return stored
    precision = max(need, min(2 * built, _MAX_PRECISION))
    if k == 24:
        delta = eta_power_24(precision)
        stored = (
            delta.mul(eisenstein(4, precision).pow(3)),
            delta.mul(eisenstein(6, precision).pow(2)),
        )
    else:
        stored = (newform_qexp(k, precision),)
    _SERIES[k] = stored
    return stored


def oracle_trace(k: int, n: int) -> int:
    """Exact trace of T_n on S_k(1) from q-expansions.

    Zero-dimensional weights give 0; one-dimensional weights read the
    newform coefficient; k = 24 takes the matrix trace of T_n on the basis
    {Delta E4^3, Delta E6^2} computed coefficient-wise.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k in _ZERO_DIM_WEIGHTS:
        return 0
    if k in _NEWFORM_FACTORS:
        return _series(k, n)[0][n]
    if k != 24:
        raise ValueError(f"weight {k} not supported by the q-expansion oracle")
    g1, g2 = _series(24, 2 * n + 1)
    a2, b2 = g1[2], g2[2]
    # T_n g_i = alpha g1 + beta g2 is determined by the q^1, q^2 coefficients
    trace = Fraction(0)
    for g in (g1, g2):
        c1 = hecke_coefficient(g, n, 24, 1)
        c2 = hecke_coefficient(g, n, 24, 2)
        if g is g1:
            trace += Fraction(c2 - c1 * b2, a2 - b2)
        else:
            trace += Fraction(c1 * a2 - c2, a2 - b2)
    if trace.denominator != 1:
        raise ArithmeticError(f"non-integral trace {trace} for k=24, n={n}")
    return int(trace)
