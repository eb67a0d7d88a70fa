"""Exact integer number theory: smallest-prime-factor sieve, multiplicative
functions, the Kronecker symbol, and the analytic-conductor scale for even
weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FactorSieve",
    "build_factor_sieve",
    "kronecker",
    "euler_constant_C",
    "default_euler_constant",
    "digamma",
    "AnalyticConductor",
    "analytic_conductor",
]


class FactorSieve:
    """Smallest-prime-factor table for 2..bound.

    ``spf[n]`` is the least prime dividing n, so any n <= bound factors by
    repeated division.  The sieve itself never changes after construction.

    The multiplicative tables are kept on first use and handed out as
    read-only views.  The largest table requested lives as long as the
    sieve: 17 bytes per entry, so about 17 MB after
    ``multiplicative_tables(10**6)``.  ``L1_psi_bar`` factors its one t and
    builds no table.
    Safe to share between threads: two threads racing for a table may both
    walk, but each publishes only a finished table, so neither sees a
    partial one.
    """

    __slots__ = ("bound", "spf", "primes", "_tables")

    def __init__(self, bound: int, spf: np.ndarray, primes: np.ndarray):
        self.bound = bound
        self.spf = spf
        self.primes = primes
        self._tables = None

    def is_prime(self, n: int) -> bool:
        if not 2 <= n <= self.bound:
            raise ValueError(f"{n} outside sieve range [2, {self.bound}]")
        return int(self.spf[n]) == n

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as (p, exponent) pairs, p ascending."""
        if not 1 <= n <= self.bound:
            raise ValueError(f"{n} outside sieve range [1, {self.bound}]")
        spf = self.spf
        out = []
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def mobius(self, n: int) -> int:
        fac = self.factorize(n)
        if any(e > 1 for _, e in fac):
            return 0
        return -1 if len(fac) % 2 else 1

    def euler_phi(self, n: int) -> int:
        phi = 1
        for p, e in self.factorize(n):
            phi *= (p - 1) * p ** (e - 1)
        return phi

    def sigma(self, n: int) -> int:
        s = 1
        for p, e in self.factorize(n):
            s *= (p ** (e + 1) - 1) // (p - 1)
        return s

    def divisors(self, n: int) -> list[int]:
        divs = [1]
        for p, e in self.factorize(n):
            divs = [d * p**j for d in divs for j in range(e + 1)]
        return sorted(divs)

    def multiplicative_tables(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mu(q), the atom coefficient mu(q)^2/(phi(q)^2 sigma(q)) and
        f(q) = prod_{p | q} (1 + 1/(p^2-p-1)) for q = 0..n, each 0 at q = 0,
        as read-only views.

        The tables of the largest n walked so far are kept, and any smaller n
        is served as their prefix: each q's entries depend on q alone, so the
        prefix is bitwise the shorter walk.  A larger n walks again, after
        the old tables are dropped.
        """
        if not 1 <= n <= self.bound:
            raise ValueError(f"{n} outside sieve range [1, {self.bound}]")
        tables = self._tables
        if tables is None or tables[0].size <= n:
            # drop the old tables first, so the old and new never coexist here
            tables = self._tables = None
            tables = self._tables = self._walk(n)
        return tuple(table[: n + 1] for table in tables)

    def _walk(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The multiplicative tables for q = 0..n, read-only.

        Every q >= 2 walks down its smallest-prime-factor chain at once, one
        prime per pass, so the primes of q arrive in ascending order: a prime
        equal to the previous one zeroes mu, a new one flips mu and multiplies
        the denominator phi^2 sigma by (p-1)^2 (p+1) and f by its factor.
        """
        mu = np.ones(n + 1, dtype=np.int8)
        den = np.ones(n + 1)
        f = np.ones(n + 1)
        q = np.arange(2, n + 1, dtype=np.int32)
        rest = q.copy()
        prev = np.zeros_like(q)
        while q.size:
            p = self.spf[rest]
            rest //= p
            repeat = p == prev
            mu[q[repeat]] = 0
            fresh = q[~repeat]
            p64 = p[~repeat].astype(np.int64)  # p * p overflows int32
            mu[fresh] *= -1
            den[fresh] *= (p64 - 1.0) ** 2 * (p64 + 1.0)
            f[fresh] *= 1.0 + 1.0 / (p64 * p64 - p64 - 1.0)
            live = rest > 1
            q, rest, prev = q[live], rest[live], p[live]
        mu[0] = 0
        f[0] = 0.0
        tables = (mu, np.where(mu != 0, 1.0 / den, 0.0), f)
        for table in tables:
            table.flags.writeable = False
        return tables

    def f_zero(self) -> float:
        """f at t = 0: the product of (1 + 1/(p^2-p-1)) over every sieve prime
        (the limit of divisibility by all primes); see ``f_zero_tail_bound``
        for the size of the omitted tail."""
        p = self.primes.astype(np.float64)
        return math.exp(math.fsum(np.log1p(1.0 / (p * p - p - 1.0))))

    def f_zero_tail_bound(self) -> float:
        """Upper bound for the relative tail omitted by f_zero().

        The omitted factor is prod_{p > bound} (1 + 1/(p^2-p-1)) which is at
        most exp(sum_{n > bound} 2/n^2) <= exp(2/bound).
        """
        return math.expm1(2.0 / self.bound)


def build_factor_sieve(bound: int) -> FactorSieve:
    """Sieve smallest prime factors for 2..bound (4 bytes per entry)."""
    if bound < 2:
        raise ValueError("sieve bound must be at least 2")
    if bound >= 2**31:
        raise ValueError("sieve bound must fit in 32 bits")
    spf = np.zeros(bound + 1, dtype=np.int32)
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    # untouched entries are prime
    idx = np.arange(2, bound + 1, dtype=np.int32)
    unmarked = spf[2:] == 0
    spf[2:][unmarked] = idx[unmarked]
    primes = idx[spf[2:] == idx].astype(np.int64)
    return FactorSieve(bound, spf, primes)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), fully extended (n may be 0 or negative)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # n is now odd and positive; run the Jacobi reciprocity loop
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def euler_constant_C(prime_bound: int) -> float:
    """Truncated Euler product prod_{p <= bound} (1 - 1/((p-1)^2 (p+1))).

    Accumulated in log space over ascending primes; the result is monotone
    decreasing in prime_bound and converges like sum_{p > bound} p^-3.
    """
    if prime_bound < 2:
        raise ValueError("prime_bound must be at least 2")
    p = build_factor_sieve(prime_bound).primes.astype(np.float64)
    logs = np.log1p(-1.0 / ((p - 1.0) ** 2 * (p + 1.0)))
    return math.exp(math.fsum(logs))


@lru_cache(maxsize=1)
def default_euler_constant() -> float:
    """euler_constant_C at the standard working bound 10^6."""
    return euler_constant_C(10**6)


# B_{2n}/(2n) for 2n = 2, 4, ..., 12; the asymptotic series is applied only
# for arguments >= 16 where the first omitted term is below 1e-18.
_DIGAMMA_COEFFS = (
    1.0 / 12,
    -1.0 / 120,
    1.0 / 252,
    -1.0 / 240,
    1.0 / 132,
    -691.0 / 32760,
)


def digamma(x: float) -> float:
    """Digamma via upward recurrence onto the asymptotic-series region."""
    if x <= 0:
        raise ValueError("digamma requires a positive argument")
    acc = 0.0
    while x < 16.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = math.log(x) - 0.5 / x
    power = inv2
    for c in _DIGAMMA_COEFFS:
        s -= c * power
        power *= inv2
    return s + acc


@dataclass(frozen=True)
class AnalyticConductor:
    """Size parameter N = (exp(digamma(k/2)) / 2 pi)^2 of an even weight k."""

    k: float
    N: float


def analytic_conductor(k: float) -> AnalyticConductor:
    if k < 4:
        raise ValueError("weight must be at least 4")
    try:
        n = (math.exp(digamma(k / 2.0)) / (2.0 * math.pi)) ** 2
    except OverflowError:
        n = math.inf
    # an infinite or NaN k, or one past about 1.1e155, has no float N
    if not math.isfinite(n):
        raise ValueError(f"the analytic conductor of weight {k} is not a finite float")
    return AnalyticConductor(k=k, N=n)
