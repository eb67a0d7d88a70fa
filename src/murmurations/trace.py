"""Eichler-Selberg trace formula for level 1: exact Hecke traces, the
normalized eigenvalue sum at primes in cosine form, and the elliptic sums
over weight progressions."""

from __future__ import annotations

import math
import mmap
from dataclasses import InitVar, dataclass, field
from functools import partial

import numpy as np

from .arith import FactorSieve
from .classnum import ClassNumberTable, hurwitz6
from .workers import run_forked, usable_cpus

__all__ = [
    "TableBoundError",
    "TraceContext",
    "trace_hecke",
    "elliptic_sums",
    "eigenvalue_sum_prime",
    "progression_weights",
]


class TableBoundError(ValueError):
    """A query needs a table beyond its bound: the class numbers, indexed by
    |D| (``table="class"``), or the factor sieve, indexed by n
    (``table="sieve"``)."""

    _COVERS = {"class": "class-number table covers |D|", "sieve": "factor sieve covers n"}

    def __init__(self, required: int, available: int, table: str = "class"):
        self.required = required
        self.available = available
        self.table = table
        super().__init__(f"{self._COVERS[table]} <= {available}, need {required}")


# entries of a half per block of TraceContext.l1_array: the square roots of
# a block take 512 KiB, where one array over the whole table took 6 MB at
# K = 3850
_L1_BLOCK = 1 << 16


@dataclass
class TraceContext:
    """Shared state for trace evaluations.

    The context holds ``bound``, the class numbers' bound, ``h6``, the
    factor sieve and the stored rows.  The reduced-form counts of ``table``
    are read once, at construction, and no reference to the table is kept.
    ``h6 = (H0, H3)`` holds 6 H(n) as int32, the Hurwitz class numbers of
    every n <= bound, in the halves of the class table: H0[i] = 6 H(4i) and
    H3[i] = 6 H(4i + 3).  6 H(4n - t^2) is then
    ``h6[t & 1][n - (t * t + 3) // 4]``, which both ``trace_hecke`` and the
    elliptic kernel read.  ``l1_array`` builds L(1, psi_D) from it on each
    call, a reference view that no run path reads.  The factor sieve has to
    reach only the n of T_n.  ``elliptic_rows`` keeps, for the life of the
    context, the read-only elliptic sums of both root-number classes that
    ``murmur.compute_series`` computed for each (K, H, E, summand domain),
    one float per summation point and class, so the second class and the
    other weightings of a run read them instead of running the kernel again.
    Queries are pure: a stored row is what a fresh context computes.
    """

    table: InitVar[ClassNumberTable]
    sieve: FactorSieve
    bound: int = field(init=False)
    h6: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    elliptic_rows: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, table: ClassNumberTable):
        self.bound, self.h6 = table.bound, hurwitz6(table)

    def require(self, n: int) -> None:
        """Check that the tables serve T_n: the class numbers reach
        |D| = 4n and the factor sieve reaches n, the only number factored."""
        if 4 * n > self.bound:
            raise TableBoundError(4 * n, self.bound)
        if n > self.sieve.bound:
            raise TableBoundError(n, self.sieve.bound, table="sieve")

    def l1_array(self) -> np.ndarray:
        """L(1, psi_D) indexed by |D| for every D = 0, 1 mod 4, -bound <= D < 0.

        L(1, psi_D) = pi H(|D|) / sqrt|D| (Zagier), so one division of 6 H:
        each half goes to its places |D| = 4i and 4i + 3 and is divided
        there in place, in blocks of _L1_BLOCK entries, by the square roots
        of its own |D|, the operations by which the elliptic kernel weights
        each term.  Entries at |D| = 0 and at non-discriminants are 0.  The
        table is built anew on each call: no run path reads it, and it stays
        as the reference that tests check the kernel's weights against.
        """
        l1 = np.zeros(self.bound + 1)
        for r, half in zip((0, 3), self.h6):
            view = l1[r::4]
            np.multiply(2.0 * math.pi / 12.0, half, out=view)
            for lo in range(0, view.size, _L1_BLOCK):
                hi = min(lo + _L1_BLOCK, view.size)
                root = np.arange(4 * lo + r, 4 * hi + r, 4, dtype=np.float64)
                if lo == r == 0:
                    root[0] = 1.0
                view[lo:hi] /= np.sqrt(root, out=root)
        return l1


def _lucas_u(ts, n: int, m: int) -> list[int]:
    """[U_m(t, n) for t in ts], U_m = (rho^m - conj^m) / (rho - conj) for the
    roots of X^2 - t X + n, so U_0 = 0, U_1 = 1, U_{j+1} = t U_j - n U_{j-1}.

    A ladder over the bits of j = m // 2 on (V_i, V_{i+1}), V_i = rho^i +
    conj^i, two full-size products per bit: V_2i = V_i^2 - 2 n^i,
    V_2i+1 = V_i V_{i+1} - t n^i and V_2i+2 = V_{i+1}^2 - 2 n^(i+1).  The
    powers n^i depend on n and m only and are shared by every t.  With
    D = t^2 - 4n, one last product gives U_2j = V_j (2 V_{j+1} - t V_j) / D
    and U_2j+1 = V_j (t V_{j+1} - 2n V_j) / D - n^j, each division exact and
    by a small integer.  Needs m >= 1 and D != 0, as trace_hecke's t^2 < 4n
    guarantees.
    """
    j = m // 2
    # per bit of j: the bit, n^i and 2 n^i (bit 0) or 2 n^(i+1) (bit 1)
    steps, q = [], 1
    for bit in bin(j)[2:]:
        if bit == "1":
            steps.append((True, q, 2 * q * n))
            q = q * q * n
        else:
            steps.append((False, q, 2 * q))
            q = q * q
    out = []
    for t in ts:
        disc = t * t - 4 * n
        v0, v1 = 2, t
        for odd, qi, two_q in steps:
            mid = v0 * v1 - t * qi
            v0, v1 = (mid, v1 * v1 - two_q) if odd else (v0 * v0 - two_q, mid)
        if m % 2:
            out.append(v0 * ((t * v1 - 2 * n * v0) // disc) - q)
        else:
            out.append(v0 * ((2 * v1 - t * v0) // disc))
    return out


def trace_hecke(ctx: TraceContext, k: int, n: int) -> int:
    """Exact integer trace of T_n on S_k(1), k even >= 2.

    All four pieces are accumulated in twelfths so the elliptic weights
    6 H(4n - t^2) stay integral; the total is exactly divisible by 12.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer >= 2")
    if n < 1:
        raise ValueError("n must be positive")
    ctx.require(n)
    twelfths = 0
    root = math.isqrt(n)
    if root * root == n:
        twelfths += n ** (k // 2 - 1) * (k - 1)
    # elliptic terms over t^2 < 4n, symmetric in t for even k
    tmax = math.isqrt(4 * n - 1)
    # 6 H(4n - t^2) from the half of the parity of t, one gather per half
    place = n - (np.arange(tmax + 1) ** 2 + 3) // 4
    h6 = [0] * (tmax + 1)
    h6[0::2] = ctx.h6[0][place[0::2]].tolist()
    h6[1::2] = ctx.h6[1][place[1::2]].tolist()
    for t, (u, h) in enumerate(zip(_lucas_u(range(tmax + 1), n, k - 1), h6)):
        twelfths -= u * h if t == 0 else 2 * u * h
    # hyperbolic: (1/2) sum over d | n of min(d, n/d)^(k-1)
    hyp = sum(min(d, n // d) ** (k - 1) for d in ctx.sieve.divisors(n))
    twelfths -= 6 * hyp
    if k == 2:
        twelfths += 12 * ctx.sieve.sigma(n)
    if twelfths % 12:
        raise ArithmeticError(f"non-integral trace for k={k}, n={n}")
    return twelfths // 12


# summation points per pass of elliptic_sums: the arrays of one t (z, its
# powers and the float temporaries) then stay in a 2 MiB L2 cache.  On a
# 2-vCPU Xeon at K = 10^4 (97 634 primes, both classes in one call), one
# pass took 11.2-12.0 s and passes of at most 16 384 points 7.4-7.5 s;
# each n is summed alone, so the result does not depend on the size
_PASS_POINTS = 1 << 14

# (n, t) terms per worker process of elliptic_sums: a call runs in one
# process per _WORKER_TERMS terms, up to one per usable CPU.  On a 2-vCPU
# Xeon (medians of 9 alternating calls, both classes at K = 3850), two
# processes took 1.33, 1.15, 0.97 and 0.59 times the time of one over the
# primes to 2*10^4, 8*10^4, 1.6*10^5 and 3*10^5 (1.6*10^5, 1.1*10^6,
# 2.8*10^6 and 9.5*10^6 terms), and 1.63, 0.99, 0.64 and 0.53 times over
# the integers to 1 250, 2 500, 10^4 and 3.75*10^4 (5.9*10^4, 1.7*10^5,
# 1.3*10^6 and 9.7*10^6 terms): a fork, a reap and the faults after them
# cost about 3 ms, and sparse points pay more calls per term.  So a call
# of fewer than 2^21 terms stays in one process; the figure's 9.5*10^6
# terms take two
_WORKER_TERMS = 1 << 20


def elliptic_sums(ns, windows, h6: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """For each weight window (k_min, m) and each n: sum over t^2 < 4n of
    L(1, psi_{t^2-4n}) times the cosine sum of cos((k-1) phi_{t,n}) over
    the m weights k = k_min + 4j.  Returns one row per window.

    h6 holds 6 H as ``TraceContext.h6`` does, in the halves of |D| = 0 and
    3 mod 4, and L(1, psi_D) = (2 pi / 12) 6 H(|D|) / sqrt|D| is taken of
    each gathered value by the operations of ``TraceContext.l1_array``.
    ns must be ascending.  The t = 0 term is m L(1, psi_{-4n}) exactly; the
    t and -t terms are equal.  The loop runs over t >= 1, where the n with
    4n > t^2 are a suffix of ns.  The angle enters only through
    z = e^(i phi) = (sqrt(4n - t^2) + i t) / (2 sqrt n), built from integers,
    so the weight sum sin(2 m phi) / sin(2 phi) * cos(c phi),
    c = k_min - 1 + 2(m - 1), is Im(z^(2m)) Re(z^c) / (2 Re z Im z), with
    every power from one run of complex squarings and no trigonometric call.
    For t >= 1, sin(2 phi) >= 1/sqrt(n) stays away from 0.

    All windows share z, the squarings, the 6H gather and the weight
    L(1) / (Re z Im z) of each t; a window with m = 0 gives a row of exact
    zeros and takes no part in the ladder.  Each power is built by the same
    multiplies whatever other exponents the call needs, and each n adds its
    t terms in order of t, by the same operations on its own values, so a
    row is bitwise the same whatever other windows and other n share the
    call: the result on a range is the concatenation of the results on its
    pieces.  At K = 3850, H = 100 (the figure scale) each row is within
    2e-9 absolute of the sum with phi = atan2(t, sqrt(4n - t^2)) and each
    weight sum by ``math.fsum`` (tests/test_trace.py).

    A large call runs in worker processes (``_workers``): the n are cut
    into contiguous shares of equal sum of sqrt(n), about equal numbers of
    terms, and each share past the first goes to a child forked by the
    package's one fork helper, ``workers.run_forked``, which the class
    sieve shares; the child writes its columns in place into rows that live
    in a shared mapping.  By the above, the rows are the same for every
    number of workers.  A call with no windows runs in one process.
    """
    windows = [(int(k_min), int(m)) for k_min, m in windows]
    if any(m < 0 for _, m in windows):
        raise ValueError("window sizes must be nonnegative")
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return np.zeros((len(windows), 0))
    if np.any(ns[1:] < ns[:-1]):
        raise ValueError("ns must be ascending")
    if ns[0] < 1:
        raise ValueError("n must be positive")
    # a point's t-terms, isqrt(4n - 1) of them, grow like sqrt(n)
    weight = np.cumsum(np.sqrt(ns))
    workers = _workers(int(2 * weight[-1]))
    # a call with no windows has no rows to map (a mapping of 0 bytes is
    # invalid)
    if workers == 1 or not windows:
        return _passes(ns, windows, h6)
    cuts = np.searchsorted(weight, weight[-1] * np.arange(1, workers) / workers)
    return _forked(ns, [0, *cuts, ns.size], windows, h6)


def _workers(terms: int) -> int:
    """The processes elliptic_sums runs a call of terms (n, t) terms in: one
    per _WORKER_TERMS terms, at least one and at most one per usable CPU."""
    return max(1, min(usable_cpus(), terms // _WORKER_TERMS))


def _passes(ns, windows, h6: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """elliptic_sums on a nonempty ascending run of positive ns, in one process."""
    passes = np.array_split(ns, -(-ns.size // _PASS_POINTS))
    return np.concatenate([_elliptic_pass(part, windows, h6) for part in passes], axis=1)


def _forked(ns, bounds, windows, h6: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """_passes on ns, cut into shares at bounds (ascending, from 0 to
    ns.size; an empty share is skipped): the first share here, each other
    in a child forked for it by ``workers.run_forked``, which writes its
    columns of the rows in place into a shared mapping."""
    rows = np.frombuffer(mmap.mmap(-1, 8 * len(windows) * ns.size)).reshape(len(windows), -1)

    def write(share):
        rows[:, share] = _passes(ns[share], windows, h6)

    shares = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    run_forked([partial(write, share) for share in shares])
    return rows


def _elliptic_pass(ns, windows, h6: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """elliptic_sums on a nonempty ascending run of positive ns."""
    ns4 = 4 * ns
    out = np.zeros((len(windows), ns.size))
    active = [(row, 2 * m, k_min - 1 + 2 * (m - 1)) for row, (k_min, m) in enumerate(windows) if m]
    if not active:
        return out
    l1_t0 = np.multiply(2.0 * math.pi / 12.0, h6[0][ns], dtype=np.float64) / np.sqrt(ns4)
    for row, _, _ in active:
        out[row] = windows[row][1] * l1_t0
    exps = sorted({e for _, a, c in active for e in (a, c)})
    inv_2rn = 0.5 / np.sqrt(ns)
    for t in range(1, math.isqrt(int(ns4[-1]) - 1) + 1):
        j = int(np.searchsorted(ns, t * t // 4, side="right"))
        disc = ns4[j:] - t * t
        sq = np.sqrt(disc)
        re = sq * inv_2rn[j:]
        im = t * inv_2rn[j:]
        # L(1, psi_{-disc}) / (Re z Im z), from 6 H(disc) in the half of t's parity
        h = h6[t & 1][ns[j:] - (t * t + 3) // 4]
        w = np.multiply(2.0 * math.pi / 12.0, h, dtype=np.float64) / sq / (re * im)
        z = np.empty(re.size, dtype=np.complex128)
        z.real = re
        z.imag = im
        powers = {}
        for i in range(exps[-1].bit_length()):
            if i:
                z = z * z
            for e in exps:
                if e >> i & 1:
                    powers[e] = powers[e] * z if e in powers else z
        for row, a, c in active:
            out[row, j:] += powers[a].imag * powers[c].real * w
    return out


def eigenvalue_sum_prime(ctx: TraceContext, k: int, p: int) -> float:
    """sum over f in H_k(1) of lambda_f(p) for prime p, by the cosine form:

    -p^((1-k)/2) + ((-1)^(k/2) / pi) * sum_{t^2 < 4p} cos((k-1) phi_{t,p})
    L(1, psi_{t^2 - 4p}).
    """
    if k < 4 or k % 2:
        raise ValueError("weight must be an even integer >= 4")
    ctx.require(p)
    if not ctx.sieve.is_prime(p):
        raise ValueError(f"{p} is not prime")
    inner = float(elliptic_sums([p], [(k, 1)], ctx.h6)[0, 0])
    sign = 1.0 if k % 4 == 0 else -1.0
    return -math.exp(0.5 * (1 - k) * math.log(p)) + sign * inner / math.pi


def progression_weights(K: float, H: float, delta: int) -> tuple[int, int]:
    """(k_min, count) of even weights k = 2 delta mod 4 in [K-H, K+H], k >= 4."""
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    if H < 0:
        raise ValueError("H must be nonnegative")
    residue = 2 * delta if delta else 4
    lo = max(4.0, K - H)
    k_min = residue + 4 * math.ceil((lo - residue) / 4.0)
    k_max = residue + 4 * math.floor((K + H - residue) / 4.0)
    if k_max < k_min:
        return k_min, 0
    return k_min, (k_max - k_min) // 4 + 1
