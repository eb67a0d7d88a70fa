"""Class numbers of imaginary quadratic orders via reduced binary quadratic
forms, exact Dirichlet values L(1, psi_D), and the local averages psi_bar_t
of the discriminant characters together with L(1, psi_bar_t) = C f(t)."""

from __future__ import annotations

import hashlib
import math
import mmap
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .arith import FactorSieve, build_factor_sieve, default_euler_constant, kronecker
from .workers import run_forked, usable_cpus

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

    A discriminant -n has n = 0 or 3 mod 4, so the counts are kept as two
    int32 halves, ``halves = (T0, T3)`` with T0[i] = A(4i) and
    T3[i] = A(4i + 3): A(n) = sum over g^2 | n of h(-n / g^2) counts every
    reduced form of discriminant -n, primitive or not.  ``forms[n]`` and
    ``h[n]``, the class numbers h(-n) recovered from A by Moebius inversion,
    are the full n-indexed views, built on first read; both are 0 at
    n = 1, 2 mod 4 and at n = 0.  Immutable after the sieve; queries are pure.
    """

    bound: int
    halves: tuple[np.ndarray, np.ndarray]

    def expand(self, halves: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The n-indexed table for n = 0..bound of a pair of halves (T0, T3),
        0 at n = 1, 2 mod 4; read-only."""
        t0, t3 = halves
        full = np.zeros(self.bound + 1, dtype=t0.dtype)
        full[0::4] = t0
        full[3::4] = t3
        full.flags.writeable = False
        return full

    @cached_property
    def forms(self) -> np.ndarray:
        """A(n) for n = 0..bound, read-only int32."""
        return self.expand(self.halves)

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


# entries per row of the body's broadcast: the period-a slices of the
# pattern are tiled to at least this many, so short periods do not cost one
# numpy inner loop per a entries.  On a 2-vCPU Xeon (medians of 9, four
# alternating sweeps, with one head batch per a) the sieve to 750 532 took
# 0.084-0.093, 0.089-0.096, 0.079-0.086 and 0.076-0.083 s with tiles of
# 256, 1 024, 4 096 and 16 384 entries, and the sieve to 5 065 052
# 1.03-1.08 s with 1 024 and 0.88-0.94 s with 4 096; a tile of 4 096 int32
# takes 16 KiB, within the L1 data cache
_TILE = 1 << 12

# head terms per batch of _add_heads, about a^2 / 12 per a: the heads of
# the small a go in together, so a small sieve does not pay some twenty
# numpy calls per a and parity for them.  On a 2-vCPU Xeon (medians, three
# alternating sweeps) batches of 2^14, 2^15, 2^16 and 2^17 terms took the
# sieve to 750 532 65-70, 57-58, 52 and 62-67 ms, peaking at 0.71, 0.81,
# 0.92 and 1.29 times the full int32 table, and the sieve to 50 564
# 4.1-5.2, 3.4-3.8, 3.4-3.9 and 3.1-4.1 ms, against 8.1-11.6 ms with one
# batch per a
_HEAD_TERMS = 1 << 16


def _add_heads(halves, a_lo: int, a_hi: int, bound: int) -> None:
    """Add the head terms of every a in [a_lo, a_hi) to the halves: for each
    1 <= b <= a the n = 4a (a + j) - b^2 < 4a^2, j >= 0, of weight 1 at
    j = 0 (c = a) and w_b after.  Even b give n = 0 mod 4 and odd b
    n = 3 mod 4, so each parity of b goes to its half at n >> 2."""
    a_s = np.arange(a_lo, a_hi)
    for parity, half in enumerate(halves):
        # the pairs (a, b) with b = 2 - parity, 4 - parity, ... <= a
        nb = (a_s + parity) // 2
        a_p = np.repeat(a_s, nb)
        b_p = 2 * (np.arange(nb.sum()) - np.repeat(np.cumsum(nb) - nb, nb)) + 2 - parity
        # ceil(b^2 / 4a) terms per pair, the j-th at place starts + j
        step = 4 * a_p
        counts = (b_p * b_p + step - 1) // step
        starts = np.cumsum(counts) - counts
        offsets = step * (a_p - starts) - b_p * b_p
        n = np.repeat(step, counts) * np.arange(counts.sum()) + np.repeat(offsets, counts)
        weights = np.repeat((2 - (b_p == a_p)).astype(np.int32), counts)
        weights[starts] = 1  # the c = a form
        if 4 * (a_hi - 1) ** 2 > bound:  # some n may pass the bound
            keep = n <= bound
            n, weights = n[keep], weights[keep]
        np.add.at(half, n >> 2, weights)


# the class sieve's cost model, in streamed int32 adds of the body: per a,
# 2 (bound/4 - a^2) body adds, _HEAD_COST per head term (a^2 / 12 of them)
# and _A_COST for the pattern, the tiles and the numpy calls; a forked
# child's share pays _CHILD_COST more.  On a 2-vCPU Xeon, eight ranges of a
# timed alone at each of 750 532, 5 065 052 and 20 262 216 (5, 3 and 1
# runs) fit 0.192 ns per body add, 5.99 ns per head term and 5.9 us per a,
# within 15 % on 22 of the 24 ranges.  Forked with the child from a fixed
# fraction of a_max, parent and child ended together at 0.56-0.65 of a_max
# at 750 532 (medians of 9 and 21 in two series), 0.52 at 5 065 052 (3)
# and 0.56 at 20 262 216 (2), where the model without _CHILD_COST cuts at
# 0.54 at every bound; 5.8 ms of child overhead moves it to 0.61 at
# 750 532, and to 0.55 at 5 065 052 and beyond
_HEAD_COST = 31.0
_A_COST = 3.1e4
_CHILD_COST = 3.0e7

# entries per block of the forked sieve's tail add: the parent's resident
# set counts each page of the child's halves that it reads until it drops
# it, so it drops them once each block is added.  At 750 532 the tail read
# whole held 936 KiB of shared pages at the close (1 468 KiB for the whole
# halves), and read by blocks at most 64 KiB
_ADD_BLOCK = 1 << 14

# bounds from which sieve_class_numbers forks a child for its large a.  On
# the same host (medians of 21 alternating calls, two series in one
# process), the fork took 1.48 / 1.19, 1.37 / 0.97, 1.31 / 0.83,
# 0.85 / 0.81 and 0.66 / 0.83 times the time of one process at 2, 3, 4, 5
# and 6 * 10^5, and 0.79 / 0.66 at 750 532; the oracle's 50 564 took
# 0.015 s with a fork against 0.006 s without
_FORK_BOUND = 500_000


def _sieve_range(halves, a_lo: int, a_hi: int, bound: int) -> None:
    """Add the reduced forms of every a in [a_lo, a_hi) to the halves (see
    sieve_class_numbers).  No index below (3 a_lo^2) // 4 is written."""
    first, terms = a_lo, 0  # the run of a whose heads are not added yet
    for a in range(a_lo, a_hi):
        step = 4 * a
        b = np.arange(a + 1)
        w = np.full(a + 1, 2, dtype=np.int32)
        w[0] = w[a] = 1
        pattern = np.zeros(step, dtype=np.int32)
        np.add.at(pattern, -(b * b) % step, w)
        tile = np.empty((-(-_TILE // a), a), dtype=np.int32)
        for parity, half in enumerate(halves):
            # p_a[0::4] or p_a[3::4] from i = a^2 on, in rows of the tile
            tile[...] = pattern[3 * parity :: 4]
            row = tile.reshape(-1)
            body = half[a * a :]
            rows = body.size // row.size
            block = body[: rows * row.size].reshape(rows, row.size)  # a view: adds in place
            block += row
            body[rows * row.size :] += row[: body.size - rows * row.size]
        terms += a * a // 12
        if terms >= _HEAD_TERMS or a == a_hi - 1:
            _add_heads(halves, first, a + 1, bound)
            first, terms = a + 1, 0


def _sieve_forks(bound: float) -> bool:
    """Whether sieve_class_numbers(bound) runs its large a in a forked child."""
    return bound >= _FORK_BOUND and usable_cpus() >= 2


def _sieve_cut(bound: int, a_max: int) -> int:
    """The first a of the child's share: the a in [1, a_max] are cut where
    this process's modelled cost equals the child's with its overhead."""
    a = np.arange(1, a_max + 1, dtype=np.float64)
    cost = np.cumsum(2.0 * (bound / 4 - a * a) + _HEAD_COST * a * a / 12 + _A_COST)
    return 1 + int(np.searchsorted(cost, (cost[-1] + _CHILD_COST) / 2))


def sieve_class_numbers(bound: int) -> ClassNumberTable:
    """Count every reduced form (a, b, c), primitive or not, per discriminant
    b^2 - 4ac.

    Reduction: |b| <= a <= c with b >= 0 when |b| = a or a = c; forms with
    0 < b < a < c count twice for the +-b pair, so 0 <= b <= a carries the
    weight w_b = 1 at b in {0, a} and 2 otherwise, except that the c = a
    form always weighs 1.  For fixed (a, b) the values n = 4ac - b^2, c >= a,
    run through a progression of step 4a that starts at 4a^2 - b^2; n is
    0 mod 4 for even b and 3 mod 4 for odd b, and goes to T0 or T3 at n >> 2.

    Each a fills both halves in two parts; h is derived on demand.
    - Body: from n = 4a^2 on every progression has started and is past its
      c = a term (b = 0 starts there with weight w_0 = 1), so the counts of
      this a repeat with period 4a: p_a[r] = sum of w_b over -b^2 = r
      (mod 4a).  In the halves, from i = a^2 on, that is period a:
      p_a[0::4] in T0 and p_a[3::4] in T3, each added by one broadcast.
    - Head: below 4a^2 lie the terms 4a^2 - b^2 + 4aj with 0 <= 4aj < b^2;
      ``_add_heads`` adds those of a run of a at once.

    From bound _FORK_BOUND on, with two usable CPUs, the a are cut in two
    shares of equal modelled cost (``_sieve_cut``): this process adds the
    a below the cut A to its halves while one child forked by
    ``workers.run_forked`` adds the rest to halves in a shared mapping.
    The child writes no index below i = (3 A^2) // 4, the first head of
    a = A, so after the reap only that tail of its halves is read and
    added here, by blocks whose shared pages leave this process's resident
    set once added (``_ADD_BLOCK``), and the mapping is closed.  int32
    adds are exact and commute, so the halves are bitwise those of one
    process.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    halves = np.zeros(bound // 4 + 1, dtype=np.int32), np.zeros((bound + 1) // 4, dtype=np.int32)
    a_max = math.isqrt(bound // 3)
    if not _sieve_forks(bound):
        _sieve_range(halves, 1, a_max + 1, bound)
        return ClassNumberTable(bound=bound, halves=halves)
    cut = _sieve_cut(bound, a_max)
    lo = 3 * cut * cut // 4
    mapping = mmap.mmap(-1, 4 * (halves[0].size + halves[1].size))
    flat = np.frombuffer(mapping, dtype=np.int32)
    other = flat[: halves[0].size], flat[halves[0].size :]

    def child_share():
        for half in other:  # a run after a failed child starts from zero
            half[lo:] = 0
        _sieve_range(other, cut, a_max + 1, bound)

    run_forked([partial(_sieve_range, halves, 1, cut, bound), child_share])
    for half, tail, offset in zip(halves, other, (0, 4 * halves[0].size)):
        for i in range(lo, half.size, _ADD_BLOCK):
            j = min(i + _ADD_BLOCK, half.size)
            half[i:j] += tail[i:j]
            # every page read so far leaves this process's resident set (a
            # read faults in its neighbours too); the data stays in the
            # mapping, and a page read again faults back
            mapping.madvise(mmap.MADV_DONTNEED, 0, offset + 4 * j)
    del flat, other, tail
    mapping.close()
    return ClassNumberTable(bound=bound, halves=halves)


def hurwitz6(table: ClassNumberTable) -> tuple[np.ndarray, np.ndarray]:
    """6 H(n) as exact integers, H the Hurwitz class number, in the halves of
    ``table``: 6 H(4i) and 6 H(4i + 3); ``table.expand`` gives the
    n-indexed view, 0 at n = 1, 2 mod 4 and at n = 0.

    H(n) = sum over f^2 | n of h(-n/f^2) / (w(-n/f^2)/2), the forms of every
    order containing Z[sqrt(-n)], so 6 H = 6 A except where a form has extra
    units: f (1, 1, 1) at n = 3 f^2 (w/2 = 3, weight 2 instead of 6), in T3
    for odd f and in T0 for even f, and f (1, 0, 1) at n = 4 f^2 (w/2 = 2,
    weight 3), in T0.

    int32 holds every value the factor sieve can serve (n <= 4 (2^31 - 1)):
    h(D) <= (sqrt|D| / pi)(2 + log|D|) for D < -4, so
    A(n) <= (sqrt n / pi)(2 + log n)(1 + log sqrt n), summing 1/g over
    g^2 | n, and 6 H <= 6 A < 5.5e7 < 2^31.  The largest 6 H is 9 648 at
    bound 750 532 and 26 988 at 5 065 052.
    """
    h0, h3 = (6 * half for half in table.halves)
    f = np.arange(1, math.isqrt(table.bound // 3) + 1)
    h3[(3 * f[0::2] ** 2) >> 2] -= 4
    h0[(3 * f[1::2] ** 2) >> 2] -= 4
    h0[np.arange(1, math.isqrt(table.bound // 4) + 1) ** 2] -= 3
    return h0, h3


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


def save_class_numbers(table: ClassNumberTable, path) -> None:
    """Binary cache: magic, little-endian u64 bound, u32 form counts A
    ascending |D|, then the sha256 of everything before it.  The ascending
    |D| interleave the halves, n = 3, 4, 7, 8, ...: the n = 3 mod 4 outnumber
    the nonzero n = 0 mod 4 by at most one, so T3 takes the even places and
    T0 without n = 0 the odd ones.  The payload is built once and hashed and
    written as it is."""
    t0, t3 = table.halves
    header = CACHE_MAGIC + struct.pack("<Q", table.bound)
    payload = np.empty(t0.size - 1 + t3.size, dtype="<u4")
    payload[0::2] = t3
    payload[1::2] = t0[1:]
    digest = hashlib.sha256(header)
    digest.update(payload)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
        f.write(digest.digest())


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
    if hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]:
        raise ValueError("class-number cache checksum mismatch: the file is corrupted")
    payload = np.frombuffer(raw, dtype="<u4", count=count, offset=16)
    t0 = np.zeros(bound // 4 + 1, dtype=np.int32)
    t0[1:] = payload[1::2]
    return ClassNumberTable(bound=bound, halves=(t0, payload[0::2].astype(np.int32)))
