"""Class numbers of imaginary quadratic orders via reduced binary quadratic
forms, exact Dirichlet values L(1, psi_D), and the local averages psi_bar_t
of the discriminant characters together with L(1, psi_bar_t) = C f(t)."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import FactorSieve, build_factor_sieve, default_euler_constant, kronecker

__all__ = [
    "DiscriminantFactorization",
    "ClassNumberTable",
    "sieve_class_numbers",
    "hurwitz6",
    "unit_count",
    "is_fundamental",
    "decompose_discriminant",
    "psi_D",
    "L1_psi_D",
    "psi_bar_bruteforce",
    "psi_bar_prime_power",
    "psi_bar",
    "L1_psi_bar",
    "save_class_numbers",
    "load_class_numbers",
    "DiscriminantTable",
]

CACHE_MAGIC = b"MRMCLS02"


@dataclass(frozen=True)
class DiscriminantFactorization:
    """A discriminant split as D = d * ell^2 with d fundamental (or d = 1)."""

    D: int
    d: int
    ell: int


@dataclass
class ClassNumberTable:
    """Reduced-form counts for every discriminant -bound <= D < 0, and the
    primitive class numbers h(D) derived from them.

    ``forms[n]`` counts every reduced form of discriminant -n, primitive or
    not: A(n) = sum over g^2 | n of h(-n / g^2).  ``h[n]`` holds h(-n),
    recovered from A by Moebius inversion on first read.  Entries at
    n = 1, 2 mod 4 and at n = 0 are 0 in both.  Immutable after the sieve;
    queries are pure.
    """

    bound: int
    forms: np.ndarray

    @cached_property
    def h(self) -> np.ndarray:
        """h(-n) for n = 0..bound, read-only int32.  A form g (a', b', c')
        has discriminant g^2 D', so inverting A over g^2 | n, one prime p at
        a time, leaves h exactly."""
        h = self.forms.copy()
        # in place: numpy buffers the overlapping read, so it sees the old values
        for p in build_factor_sieve(math.isqrt(self.bound)).primes.tolist():
            top = self.bound // (p * p)
            h[p * p : top * p * p + 1 : p * p] -= h[1 : top + 1]
        h.flags.writeable = False
        return h

    def class_number(self, D: int) -> int:
        if D >= 0 or D % 4 not in (0, 1):
            raise ValueError(f"{D} is not a negative discriminant")
        if -D > self.bound:
            raise ValueError(f"|D|={-D} exceeds table bound {self.bound}")
        return int(self.h[-D])


def sieve_class_numbers(bound: int) -> ClassNumberTable:
    """Count every reduced form (a, b, c), primitive or not, per discriminant
    b^2 - 4ac.

    Reduction: |b| <= a <= c with b >= 0 when |b| = a or a = c; forms with
    0 < b < a < c count twice for the +-b pair, so 0 <= b <= a carries the
    weight w_b = 1 at b in {0, a} and 2 otherwise, except that the c = a
    form always weighs 1.  For fixed (a, b) the values 4ac - b^2, c >= a,
    run through a progression of step 4a that starts at 4a^2 - b^2.

    One pass per a fills ``forms`` in two parts; h is derived on demand.
    - Body: from n = 4a^2 on every progression has started and is past its
      c = a term (b = 0 starts there with weight w_0 = 1), so the counts of
      this a repeat with period 4a: p_a[r] = sum of w_b over -b^2 = r
      (mod 4a).  One broadcast adds p_a to ``forms[4a^2:]``.
    - Head: below 4a^2 lie the terms 4a^2 - b^2 + 4aj with 0 <= 4aj < b^2,
      weight 1 at j = 0 (c = a) and w_b after; one ``np.add.at`` adds them.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    forms = np.zeros(bound + 1, dtype=np.int32)
    for a in range(1, math.isqrt(bound // 3) + 1):
        step = 4 * a
        b = np.arange(a + 1)
        w = np.full(a + 1, 2, dtype=np.int32)
        w[0] = w[a] = 1
        pattern = np.zeros(step, dtype=np.int32)
        np.add.at(pattern, -(b * b) % step, w)
        body = forms[step * a :]
        rows = body.size // step
        block = body[: rows * step].reshape(rows, step)  # a view: adds in place
        block += pattern
        body[rows * step :] += pattern[: body.size - rows * step]
        # head: ceil(b^2 / 4a) terms for each b, j counting up from 0 within each
        counts = (b * b + step - 1) // step
        bb = np.repeat(b, counts)
        j = np.arange(bb.size) - np.repeat(np.cumsum(counts) - counts, counts)
        n = step * (a + j) - bb * bb
        keep = n <= bound
        np.add.at(forms, n[keep], np.where(j == 0, 1, w[bb])[keep])
    return ClassNumberTable(bound=bound, forms=forms)


def hurwitz6(table: ClassNumberTable) -> np.ndarray:
    """6 H(n) for n = 0..bound as exact integers, H the Hurwitz class number.

    H(n) = sum over f^2 | n of h(-n/f^2) / (w(-n/f^2)/2), the forms of every
    order containing Z[sqrt(-n)], so 6 H = 6 A except where a form has extra
    units: f (1, 1, 1) at n = 3 f^2 (w/2 = 3, weight 2 instead of 6) and
    f (1, 0, 1) at n = 4 f^2 (w/2 = 2, weight 3).  Entries at n = 1, 2 mod 4,
    and at n = 0, are 0.

    int32 holds every value the factor sieve can serve (n <= 4 (2^31 - 1)):
    h(D) <= (sqrt|D| / pi)(2 + log|D|) for D < -4, so
    A(n) <= (sqrt n / pi)(2 + log n)(1 + log sqrt n), summing 1/g over
    g^2 | n, and 6 H <= 6 A < 5.5e7 < 2^31.  The largest 6 H is 9 648 at
    bound 750 532 and 26 988 at 5 065 052.
    """
    h6 = 6 * table.forms
    h6[3 * np.arange(1, math.isqrt(table.bound // 3) + 1) ** 2] -= 4
    h6[4 * np.arange(1, math.isqrt(table.bound // 4) + 1) ** 2] -= 3
    return h6


def decompose_discriminant(D: int, sieve: FactorSieve) -> DiscriminantFactorization:
    """Split a nonzero discriminant as D = d ell^2, d fundamental or d = 1."""
    if D == 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant (needs D = 0, 1 mod 4)")
    n = abs(D)
    if n > sieve.bound:
        raise ValueError(f"|D|={n} exceeds sieve bound {sieve.bound}")
    ell = 1
    s = 1
    for p, e in sieve.factorize(n):
        ell *= p ** (e // 2)
        if e % 2:
            s *= p
    m = s if D > 0 else -s
    if m % 4 == 1:
        return DiscriminantFactorization(D=D, d=m, ell=ell)
    # m = 2, 3 mod 4 forces ell even because D = m ell^2 = 0, 1 mod 4
    return DiscriminantFactorization(D=D, d=4 * m, ell=ell // 2)


def is_fundamental(d: int, sieve: FactorSieve) -> bool:
    """Whether d is a fundamental discriminant (d = 1 included): a
    discriminant whose d ell^2 split has ell = 1."""
    return d != 0 and d % 4 in (0, 1) and decompose_discriminant(d, sieve).ell == 1


def unit_count(d: int, sieve: FactorSieve) -> int:
    """Number of units in the order of fundamental discriminant d < 0."""
    if d >= 0 or not is_fundamental(d, sieve):
        raise ValueError(f"{d} is not a negative fundamental discriminant")
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


class DiscriminantTable:
    """Precomputed (d, ell) splits for |D| <= bound, both signs of D.

    Speeds up bulk psi_D evaluation; entries for invalid residues are 0.
    """

    __slots__ = ("bound", "d_neg", "ell_neg", "d_pos", "ell_pos")

    def __init__(self, bound: int, sieve: FactorSieve):
        if bound > sieve.bound:
            raise ValueError("decomposition bound exceeds sieve bound")
        self.bound = bound
        # ell(n), the largest f with f^2 | n: the last (largest) f to write wins
        ell = np.ones(bound + 1, dtype=np.int32)
        for f in range(2, math.isqrt(bound) + 1):
            ell[f * f :: f * f] = f
        s = np.arange(bound + 1, dtype=np.int32)
        s //= ell * ell  # the squarefree part, n = s ell^2
        residue = np.arange(bound + 1, dtype=np.int32) & 3
        # D = -s ell^2 keeps (d, ell) = (-s, ell) when -s = 1 mod 4; otherwise
        # d = -4s and ell is even, so it halves.  |D| = 1, 2 mod 4 gives d = 0.
        wide = (s & 3) != 3
        self.d_neg = -s
        self.d_neg[wide] *= 4
        self.d_neg[(residue == 1) | (residue == 2)] = 0
        self.ell_neg = ell.copy()
        self.ell_neg[wide] >>= 1
        # D = s ell^2 likewise with s = 1 mod 4; |D| = 2, 3 mod 4 gives d = 0
        wide = (s & 3) != 1
        self.d_pos = s
        self.d_pos[wide] *= 4
        self.d_pos[residue >= 2] = 0
        self.ell_pos = ell
        self.ell_pos[wide] >>= 1
        # keep ell = 0 markers out of gcd paths
        self.ell_neg[self.d_neg == 0] = 1
        self.ell_pos[self.d_pos == 0] = 1

    def split(self, D: int) -> tuple[int, int]:
        n = abs(D)
        if D < 0:
            return int(self.d_neg[n]), int(self.ell_neg[n])
        return int(self.d_pos[n]), int(self.ell_pos[n])


def psi_D(D: int, m: int, sieve: FactorSieve) -> int:
    """Quadratic character (d / (m / gcd(m, ell))) of D = d ell^2; psi_0 = 1."""
    if m < 1:
        raise ValueError("m must be positive")
    if D == 0:
        return 1
    fac = decompose_discriminant(D, sieve)
    return kronecker(fac.d, m // math.gcd(m, fac.ell))


def L1_psi_D(D: int, table: ClassNumberTable, sieve: FactorSieve) -> float:
    """Dirichlet value L(1, psi_D) for D < 0 via the class number formula.

    L(1, psi_D) = 2 pi h(d) / (w(d) sqrt|D|) * prod_{p | ell} (p^ord_p(ell)
    + (1 - (d/p)) (p^ord_p(ell) - 1)/(p - 1)).
    """
    if D >= 0:
        raise ValueError("L1_psi_D requires a negative discriminant")
    if -D > table.bound:
        raise ValueError(f"|D|={-D} exceeds class table bound {table.bound}")
    fac = decompose_discriminant(D, sieve)
    hd = int(table.h[-fac.d])
    w = unit_count(fac.d, sieve)
    prod = 1
    for p, e in sieve.factorize(fac.ell):
        pe = p**e
        prod *= pe + (1 - kronecker(fac.d, p)) * (pe - 1) // (p - 1)
    return 2.0 * math.pi * hd * prod / (w * math.sqrt(-D))


def psi_bar_bruteforce(
    t: int, m: int, sieve: FactorSieve, disc_table: DiscriminantTable | None = None
) -> Fraction:
    """Average of psi_{t^2 - 4n}(m) over invertible residues n mod m^2, exact.

    Discriminants t^2 - 4n cover negative, positive, square, and zero values;
    all go through the same d ell^2 split (square D gives d = 1, the trivial
    character).  With a ``DiscriminantTable`` all residues are evaluated as
    arrays; without one, by one ``psi_D`` call each.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return Fraction(1)
    m2 = m * m
    t2 = t * t
    if disc_table is None:
        residues = [n for n in range(1, m2 + 1) if math.gcd(n, m) == 1]
        total = sum(psi_D(t2 - 4 * n, m, sieve) for n in residues)
        return Fraction(total, len(residues))
    n = np.arange(1, m2 + 1, dtype=np.int64)
    n = n[np.gcd(n, m) == 1]
    D = t2 - 4 * n
    absd = np.abs(D)
    if int(absd.max()) > disc_table.bound:
        raise ValueError(f"|D|={int(absd.max())} exceeds discriminant table bound")
    neg = D < 0
    d = np.where(neg, disc_table.d_neg[absd], disc_table.d_pos[absd]).astype(np.int64)
    ell = np.where(neg, disc_table.ell_neg[absd], disc_table.ell_pos[absd])
    g = np.gcd(ell.astype(np.int64), m)
    # (d / (m/g)) = prod over p^e || m of (d/p)^(e - v_p(g)); (d/p) depends
    # on d mod p for odd p and on d mod 8 at p = 2
    chi = np.ones(n.size, dtype=np.int64)
    for p, e in sieve.factorize(m):
        period = 8 if p == 2 else p
        symbol = np.array([kronecker(r, p) for r in range(period)], dtype=np.int64)
        power = np.full(n.size, e, dtype=np.int64)
        for j in range(1, e + 1):
            power -= g % p**j == 0
        chi *= symbol[d % period] ** power
    chi[D == 0] = 1  # psi_0 is trivial
    return Fraction(int(chi.sum()), n.size)


def _phi_pp(p: int, j: int) -> int:
    return 1 if j == 0 else (p - 1) * p ** (j - 1)


def psi_bar_prime_power(t: int, p: int, e: int) -> Fraction:
    """Closed-form local average psi_bar_t(p^e), exact rational.

    Cases: p odd not dividing t; p odd dividing t; p = 2 with t odd,
    2 || t, or 4 | t.  Each is the evaluated residue average.
    """
    if e == 0:
        return Fraction(1)
    if p == 2:
        if t % 2 != 0:
            return Fraction((-1) ** e)
        if t % 4 == 0:
            return Fraction(1, 2) if e % 2 else Fraction(0)
        # 2 || t
        return Fraction(1 + (16 ** (e // 2) - 1) // 15, 2 ** (2 * e - 1))
    if t % p == 0:
        return Fraction(1) if e % 2 == 0 else Fraction(0)
    num = -(p ** (2 * e - 1)) + sum(_phi_pp(p, 4 * k) for k in range(e // 2 + 1))
    return Fraction(num, _phi_pp(p, 2 * e))


def psi_bar(t: int, m: int, sieve: FactorSieve) -> Fraction:
    """psi_bar_t(m) assembled multiplicatively from prime-power values."""
    val = Fraction(1)
    for p, e in sieve.factorize(m):
        val *= psi_bar_prime_power(t, p, e)
        if val == 0:
            return val
    return val


def L1_psi_bar(t: int, sieve: FactorSieve) -> float:
    """L(1, psi_bar_t) = C * f(t) with C the working Euler-product constant.

    f(t) is the product of 1 + 1/(p^2 - p - 1) over the primes p | t,
    ascending, as the table walk of ``FactorSieve.multiplicative_tables``
    multiplies it, so the value is bitwise the table's without building one.
    """
    t = abs(t)
    if t == 0:
        return default_euler_constant() * sieve.f_zero()
    f = 1.0
    for p, _ in sieve.factorize(t):
        f *= 1.0 + 1.0 / (p * p - p - 1.0)
    return default_euler_constant() * f


def _discriminants(bound: int) -> np.ndarray:
    """|D| = n <= bound with n = 0, 3 mod 4, ascending: the cache's order."""
    # the n = 3 mod 4 outnumber the n = 0 mod 4 by at most one, so they
    # take the even places and the n = 0 mod 4 the odd ones
    ds = np.empty(bound // 4 + (bound + 1) // 4, dtype=np.int64)
    ds[0::2] = np.arange(3, bound + 1, 4)
    ds[1::2] = np.arange(4, bound + 1, 4)
    return ds


def save_class_numbers(table: ClassNumberTable, path) -> None:
    """Binary cache: magic, little-endian u64 bound, u32 form counts A
    ascending |D|, then the sha256 of everything before it."""
    header = CACHE_MAGIC + struct.pack("<Q", table.bound)
    payload = table.forms[_discriminants(table.bound)].astype("<u4").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
        f.write(hashlib.sha256(header + payload).digest())


def load_class_numbers(path) -> ClassNumberTable:
    """Read a cache written by ``save_class_numbers``.  A wrong magic, a
    length that does not match the bound, or a checksum mismatch raises
    ValueError before any count is used."""
    with open(path, "rb") as f:
        raw = f.read()
    magic = raw[:8]
    if magic == b"MRMCLS01":
        raise ValueError(
            "class-number cache is in the old MRMCLS01 format (class numbers, "
            "no checksum); re-run `murmur sieve`"
        )
    if magic != CACHE_MAGIC:
        raise ValueError(f"bad class-number cache magic {magic!r}")
    if len(raw) < 16:
        raise ValueError(f"class-number cache truncated: {len(raw)} bytes")
    (bound,) = struct.unpack("<Q", raw[8:16])
    count = bound // 4 + (bound + 1) // 4  # n <= bound with n = 0, 3 mod 4
    expected = 16 + 4 * count + 32
    if len(raw) != expected:
        fault = "truncated" if len(raw) < expected else "has trailing bytes"
        raise ValueError(f"class-number cache {fault}: {len(raw)} bytes, expected {expected}")
    if hashlib.sha256(raw[:-32]).digest() != raw[-32:]:
        raise ValueError("class-number cache checksum mismatch: the file is corrupted")
    forms = np.zeros(bound + 1, dtype=np.int32)
    forms[_discriminants(bound)] = np.frombuffer(raw, dtype="<u4", count=count, offset=16)
    return ClassNumberTable(bound=bound, forms=forms)
