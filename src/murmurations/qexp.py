"""Independent ground truth for Hecke traces on level-1 cusp forms: integer
q-expansions built from the eta product and Eisenstein series.

Deliberately self-contained (its own divisor sums, no sieve machinery) so it
can validate the trace-formula module without shared code paths.

`oracle_trace` reads its coefficients from one series per weight kept for the
life of the process: the newform, or at k = 24 the pair (Delta E4^3,
Delta^2).  A call that needs more than the stored precision rebuilds it at
max(need, min(2 * built, 10^4)), so an ascending sweep to n costs about
log2(n) builds; past 10^4 the builders refuse as before.  The builders
themselves cache nothing, and no cached series leaves the module.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "IntegerPowerSeries",
    "eta_power_24",
    "eisenstein",
    "newform_qexp",
    "oracle_trace",
]

# weights with dim S_k(1) = 1 and the (a, b) in Delta * E4^a * E6^b
_NEWFORM_FACTORS = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}
_ZERO_DIM_WEIGHTS = {2, 4, 6, 8, 10, 14}
_MAX_PRECISION = 10**4
# weight -> the series oracle_trace reads: (newform,), or (Delta E4^3, Delta^2) at 24
_SERIES: dict[int, tuple[IntegerPowerSeries, ...]] = {}


@dataclass
class IntegerPowerSeries:
    """Truncated integer power series; coeffs[i] is the q^i coefficient for
    the known exponents 0..prec-1.  Python integers keep every coefficient
    exact.
    """

    coeffs: list[int]

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
        product gives every coefficient through the lower precision."""
        length = min(self.prec, other.prec)
        a = self.coeffs[:length]
        b = other.coeffs[:length]
        bits_a = max(map(abs, a), default=0).bit_length()
        bits_b = bits_a if other is self else max(map(abs, b), default=0).bit_length()
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
        return IntegerPowerSeries(digits)

    def pow(self, e: int) -> "IntegerPowerSeries":
        if e == 0:
            return IntegerPowerSeries([1] + [0] * (self.prec - 1))
        result = None
        base = self
        while True:
            if e & 1:
                result = IntegerPowerSeries(base.coeffs[:]) if result is None else result.mul(base)
            e >>= 1
            if not e:
                return result
            base = base.mul(base)


def _pack(coeffs: list[int], w: int, half: int) -> int:
    """sum (c_i + half) X^i, X = 2^(8w): each shifted digit is w unsigned bytes."""
    return int.from_bytes(b"".join([(c + half).to_bytes(w, "little") for c in coeffs]), "little")


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
    return IntegerPowerSeries([0] + IntegerPowerSeries(coeffs).pow(8).coeffs)


def eisenstein(k: int, precision: int) -> IntegerPowerSeries:
    if k == 4:
        mult, power = 240, 3
    elif k == 6:
        mult, power = -504, 5
    else:
        raise ValueError("only Eisenstein weights 4 and 6 are provided")
    coeffs = [1] + [mult * s for s in _sigma_powers(precision, power)[1:]]
    return IntegerPowerSeries(coeffs)


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
    return series


def _series(k: int, need: int) -> tuple[IntegerPowerSeries, ...]:
    """The stored series of weight k, rebuilt through at least q^need when short."""
    stored = _SERIES.get(k)
    built = stored[0].prec - 1 if stored else 0
    if built >= need:
        return stored
    precision = max(need, min(2 * built, _MAX_PRECISION))
    if k == 24:
        delta = eta_power_24(precision)
        stored = (delta.mul(eisenstein(4, precision).pow(3)), delta.mul(delta))
    else:
        stored = (newform_qexp(k, precision),)
    _SERIES[k] = stored
    return stored


def oracle_trace(k: int, n: int) -> int:
    """Exact trace of T_n on S_k(1) from q-expansions.

    Zero-dimensional weights give 0; one-dimensional weights read the
    newform coefficient.  At k = 24, g1 = Delta E4^3 and Delta^2 give the
    echelon basis h1 = g1 - g1[2] Delta^2 = q + O(q^3), h2 = Delta^2 =
    q^2 + O(q^3), and tr T_n = a_1(T_n h1) + a_2(T_n h2), where
    a_m(T_n f) = sum_{d | (n, m)} d^23 f[nm/d^2].
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k in _ZERO_DIM_WEIGHTS:
        return 0
    if k in _NEWFORM_FACTORS:
        return _series(k, n)[0][n]
    if k != 24:
        raise ValueError(f"weight {k} not supported by the q-expansion oracle")
    g1, d2 = _series(24, 2 * n + 1)
    trace = g1[n] - g1[2] * d2[n] + d2[2 * n]
    if n % 2 == 0:
        trace += 2**23 * d2[n // 2]
    return trace
