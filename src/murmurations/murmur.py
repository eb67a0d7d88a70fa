"""The averaged-eigenvalue statistic over weight windows: per-prime numerator
and denominator terms, and the cumulative scaled curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import analytic_conductor
from .nu import Interval
from .trace import TableBoundError, TraceContext, elliptic_sums, progression_weights

__all__ = [
    "MurmurationRequest",
    "MurmurationSeries",
    "dimension_S_k",
    "compute_series",
    "cumulative_curve",
]


def dimension_S_k(k: int) -> int:
    """dim S_k(1) for even k >= 0 (0 for k in {0, 2})."""
    if k % 2 or k < 0:
        raise ValueError("weight must be an even nonnegative integer")
    if k < 4:
        return 0
    return k // 12 - (1 if k % 12 == 2 else 0)


@dataclass(frozen=True)
class MurmurationRequest:
    """Parameters of one statistic run.

    delta selects the root-number class k = 2 delta mod 4; weights range over
    |k - K| <= H (k >= 4); E is the window in y = n / N.  weighting 'sqrt_p'
    averages lambda_f(p) sqrt(p) instead; summand_domain 'integers' sums over
    all n with the full trace formula rather than primes only.
    """

    delta: int
    K: float
    H: float
    E: Interval
    weighting: str = "unit"
    summand_domain: str = "primes"

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        if not 0 < self.H < self.K:
            raise ValueError("need 0 < H < K (weights stay >= 4)")
        if not math.isfinite(float(self.E.hi)):
            raise ValueError("E must be bounded: the sum runs over n <= E.hi N")
        if self.weighting not in ("unit", "sqrt_p"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.summand_domain not in ("primes", "integers"):
            raise ValueError(f"unknown summand domain {self.summand_domain!r}")


@dataclass
class MurmurationSeries:
    """Per-summand numerator/denominator values and the running scaled ratio.

    n holds the summation points (primes, or all integers), x = n / N,
    numerator[i] = log(n) * (weighted eigenvalue sum over the k-window),
    denominator[i] = log(n) * (count of forms in the window), and
    cumulative[i] = x[i] sqrt(N) * (partial numerator sum / partial
    denominator sum).
    """

    N: float
    delta: int
    weighting: str
    summand_domain: str
    n: np.ndarray
    x: np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    cumulative: np.ndarray

    @property
    def num_total(self) -> float:
        return float(math.fsum(self.numerator))

    @property
    def den_total(self) -> float:
        return float(math.fsum(self.denominator))


def _geometric_progression_sum(r, k_min: int, m: int):
    """sum_{j=0}^{m-1} r^(k_min - 1 + 4j) for 0 <= r < 1, elementwise."""
    r4 = r**4
    return r ** (k_min - 1) * (1.0 - r4**m) / (1.0 - r4)


def _hyperbolic_terms(ns, k_min: int, m: int) -> np.ndarray:
    """The square and hyperbolic (divisor) terms of the trace formula at each
    n, normalized by n^((1-k)/2) and summed over the weight window; k >= 4,
    so the sigma term of k = 2 never enters.

    ns is a run of consecutive integers, so for each d <= sqrt(n) the n with
    d | n and d^2 < n are one strided slice, and each gets -G(d / sqrt(n)).
    """
    out = np.zeros(len(ns))
    if not len(ns):
        return out
    lo, hi = int(ns[0]), int(ns[-1])
    rn = np.sqrt(ns)
    ksum1 = m * (k_min - 1 + 2 * (m - 1))  # sum of (k - 1) over the window
    for d in range(1, math.isqrt(hi) + 1):
        if d * d >= lo:
            out[d * d - lo] += ksum1 / (12.0 * d) - 0.5 * m
        first = max(d * d + d, -(-lo // d) * d)
        if first <= hi:
            part = slice(first - lo, None, d)
            out[part] -= _geometric_progression_sum(d / rn[part], k_min, m)
    return out


def compute_series(req: MurmurationRequest, ctx: TraceContext) -> MurmurationSeries:
    """Evaluate the statistic for every summation point with n/N in E.

    The elliptic sums of all points and of both root-number classes come
    from one call of ``trace.elliptic_sums``, which the context keeps under
    (K, H, E, summand domain): the other class and the other weighting of
    the same run read the stored rows.  The kernel sums each point's terms
    by the same operations whatever other points and windows share the
    call, so the value at a point does not depend on the range it is
    computed in, nor on which class is asked first; at K = 3850, H = 100
    they are within 2e-9 absolute of a term-by-term reference.
    """
    N = analytic_conductor(req.K).N
    lo = float(req.E.lo) * N
    hi = float(req.E.hi) * N
    n_max = math.floor(hi)
    if n_max < 2:
        ns = np.zeros(0, dtype=np.int64)
    elif req.summand_domain == "primes":
        if n_max > ctx.sieve.bound:
            raise TableBoundError(n_max, ctx.sieve.bound, table="sieve")
        primes = ctx.sieve.primes
        ns = primes[(primes >= lo) & (primes <= hi)]
    else:
        ns = np.arange(max(1, math.ceil(lo)), n_max + 1, dtype=np.int64)
    if ns.size and 4 * int(ns[-1]) > ctx.table.bound:
        raise TableBoundError(4 * int(ns[-1]), ctx.table.bound)
    k_min, m = progression_weights(req.K, req.H, req.delta)
    if m == 0:
        raise ValueError("no admissible weights in [K-H, K+H]")
    d_prog = sum(dimension_S_k(k_min + 4 * j) for j in range(m))

    key = (req.K, req.H, req.E, req.summand_domain)
    rows = ctx.elliptic_rows.get(key)
    if rows is None:
        windows = [progression_weights(req.K, req.H, delta) for delta in (0, 1)]
        rows = elliptic_sums(ns, windows, ctx.l1_array())
        rows.flags.writeable = False
        ctx.elliptic_rows[key] = rows
    sign = 1.0 if req.delta == 0 else -1.0
    val = sign / math.pi * rows[req.delta]
    if req.summand_domain == "primes":
        val = -_geometric_progression_sum(ns**-0.5, k_min, m) + val
    else:
        val += _hyperbolic_terms(ns, k_min, m)
    if req.weighting == "sqrt_p":
        val *= np.sqrt(ns)
    logn = np.log(ns)
    num = logn * val
    den = logn * d_prog
    x = ns / N
    cum_num = np.cumsum(num)
    cum_den = np.cumsum(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        cumulative = np.where(cum_den > 0, x * math.sqrt(N) * cum_num / cum_den, 0.0)
    return MurmurationSeries(
        N=N,
        delta=req.delta,
        weighting=req.weighting,
        summand_domain=req.summand_domain,
        n=ns,
        x=x,
        numerator=num,
        denominator=den,
        cumulative=cumulative,
    )


def cumulative_curve(series: MurmurationSeries, grid) -> list[tuple[float, float]]:
    """r(t) = t sqrt(N) * (numerator / denominator over points with x <= t).

    Grid values left of the first summation point report 0 (empty range).
    """
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(np.diff(grid) <= 0) or np.any(grid <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    # prefix sums with a leading 0, the sums over no point
    cn = np.concatenate(([0.0], np.cumsum(series.numerator)))
    cd = np.concatenate(([0.0], np.cumsum(series.denominator)))
    idx = np.searchsorted(series.x, grid, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(cd[idx] != 0, grid * math.sqrt(series.N) * cn[idx] / cd[idx], 0.0)
    return list(zip(grid.tolist(), r.tolist()))
