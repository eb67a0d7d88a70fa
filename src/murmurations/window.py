"""Smooth partition-of-unity window on [-1, 1], its Fourier transform (by
panel quadrature at any frequencies, by one real FFT on a grid t/x), and the
Poisson-summation identity for cosine sums over weights in a fixed residue
class mod 4."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "WindowFunction",
    "make_window",
    "cosine_progression_sum",
    "poisson_weight_sum",
]

_NODES64, _WEIGHTS64 = np.polynomial.legendre.leggauss(64)
# cubic change of variable s = (3u - u^3)/2 flattens the integrand's
# non-analytic endpoints; order-64 Gauss-Legendre then reaches ~1e-13
_SUB = (3.0 * _NODES64 - _NODES64**3) / 2.0
_SUB_W = _WEIGHTS64 * 1.5 * (1.0 - _NODES64**2)

_NODES16, _WEIGHTS16 = np.polynomial.legendre.leggauss(16)

# |W-hat(xi)| < 3e-17 for xi >= 250.  W-hat(xi) = c sin(pi xi)/(pi xi) *
# integral of exp(-1/(1-t^2)) cos(pi xi t) over [-1, 1]; that envelope,
# evaluated to 40 digits, is 2.0e-16 at xi = 220 and 3.0e-17 at xi = 250.
_HAT_NEGLIGIBLE_FREQ = 250.0

# rows per block of a (points x nodes) matrix: at 64 nodes the temporaries of
# a block are about 10 MiB, whatever the number of points
_BLOCK = 4096
# entries per block of hat_many's (frequencies x nodes) cosine matrix, 512 KiB
# of float64; the circle check's 33 probes at t/x <= 120 (1 984 nodes) fit in
# one block
_HAT_ENTRIES = 1 << 16


def blockwise(f, x, rows: int = _BLOCK) -> np.ndarray:
    """f over the points x in blocks of ``rows``, written into one float array
    of x's shape; f maps a 1-d block of points to one value per point."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    flat, res = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, rows):
        res[i : i + rows] = f(flat[i : i + rows])
    return out


def _bump_integral(b: np.ndarray) -> np.ndarray:
    """integral of exp(-1/(1-t^2)) over [-1, b] for each entry of a 1-d b;
    it builds a (len(b) x 64) matrix, so callers go through ``blockwise``."""
    mid = (b - 1.0) / 2.0
    half = (b + 1.0) / 2.0
    t = mid[:, None] + half[:, None] * _SUB
    v = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    v[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return half * (v @ _SUB_W)


class WindowFunction:
    """Even bump W supported on [-1, 1] with W(x) + W(1-x) = 1 on [0, 1].

    W(x) = c * integral of exp(-1/(1-t^2)) over [-1, 1-2|x|]; the same
    normalization makes the integer translates of W a partition of unity,
    so the transform vanishes at nonzero integers and has unit mass at 0.
    Instances are immutable; evaluations are pure.
    """

    __slots__ = ("c",)

    def __init__(self, c: float):
        self.c = c

    def value_many(self, x) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=np.float64))
        out = np.zeros_like(x)
        inside = x < 1.0
        out[inside] = self.c * blockwise(_bump_integral, 1.0 - 2.0 * x[inside])
        return out

    def value(self, x: float) -> float:
        return float(self.value_many(np.asarray([x]))[0])

    def hat_many(self, xi) -> np.ndarray:
        """W-hat on an array of frequencies by composite panel quadrature.

        Panels are sized for the largest |xi| so one node grid (and one set
        of window values) is shared across the whole batch; at least 16, so
        that a batch of small |xi| is resolved to about 1e-15.  This is the
        reference evaluation; whole t/x grids come from ``hat_grid``.
        """
        xi = np.asarray(xi, dtype=np.float64)
        n = max(16, int(math.ceil(np.abs(xi).max(initial=0.0))) + 4)
        edges = np.linspace(0.0, 1.0, n + 1)
        half = 0.5 / n
        u = ((edges[:-1] + edges[1:]) / 2.0)[:, None] + half * _NODES16[None, :]
        u = u.ravel()
        wq = np.tile(_WEIGHTS16 * half, n) * self.value_many(u)
        rows = max(1, _HAT_ENTRIES // u.size)
        return blockwise(lambda seg: 2.0 * (np.cos(2.0 * np.pi * seg[:, None] * u) @ wq), xi, rows)

    def hat(self, xi: float) -> float:
        return float(self.hat_many(np.asarray([xi]))[0])

    def hat_grid(self, x: float, t_max: int) -> np.ndarray:
        """W-hat(t/x) for t = 0..t_max from one real FFT.

        W is sampled at spacing 1/M over a period P = r x, L = M P samples.
        By Poisson summation bin r t of the scaled DFT is the sum over m of
        W-hat(t/x + m M), so the trapezoid rule is exact up to the aliases
        m != 0.  M >= t_max/x + 250 puts every alias past the frequency where
        W-hat drops below 1e-16, and M >= 2 t_max/x keeps bin r t_max in the
        half spectrum rfft returns.  The padding factor r makes P >= 2 + 1/M,
        so the samples of the support [-1, 1] do not overlap.
        """
        # imported here so that runs without a grid do not load scipy.fft
        from scipy.fft import next_fast_len

        if x <= 0 or t_max < 0:
            raise ValueError("need x > 0 and t_max >= 0")
        xi_max = t_max / x
        m_min = xi_max + max(xi_max, _HAT_NEGLIGIBLE_FREQ)
        r = math.ceil((2.0 + 1.0 / m_min) / x)
        length = next_fast_len(math.ceil(m_min * r * x), real=True)
        m = length / (r * x)
        j_max = math.floor(m)
        w = self.value_many(np.arange(j_max + 1) / m)
        samples = np.zeros(length)
        samples[: j_max + 1] = w
        samples[length - j_max :] = w[:0:-1]
        return np.fft.rfft(samples).real[: r * t_max + 1 : r] / m


def make_window() -> WindowFunction:
    c = 1.0 / float(blockwise(_bump_integral, 1.0))
    return WindowFunction(c=c)


def cosine_progression_sum(w: WindowFunction, k0: int, h: float, phi: float) -> float:
    """Direct sum of cos((k-1) phi) W((k-k0)/(4h)) over k in k0 + 4Z.

    The window support truncates the lattice to |k - k0| < 4h, at most
    2*ceil(h)+1 nonzero terms.
    """
    if h < 1:
        raise ValueError("window width h must be at least 1")
    mmax = math.ceil(h)
    m = np.arange(-mmax, mmax + 1)
    weights = w.value_many(m / h)
    return float(np.dot(np.cos((k0 - 1 + 4 * m) * phi), weights))


def poisson_weight_sum(w: WindowFunction, k0: int, h: float, phi: float) -> float:
    """Dual side of the identity: h cos((k0-1) phi) sum_l W-hat(h l + 2 h phi / pi).

    The l-sum runs over every l with |h l + shift| <= _HAT_NEGLIGIBLE_FREQ +
    |shift|, shift = 2 h phi / pi, which holds every l whose transform value
    is above 3e-17; the transform takes one ``hat_many`` call.
    """
    if h <= 0:
        raise ValueError("window width h must be positive")
    shift = 2.0 * h * phi / math.pi
    reach = _HAT_NEGLIGIBLE_FREQ + abs(shift)
    ells = np.arange(math.ceil((-reach - shift) / h), math.floor((reach - shift) / h) + 1)
    total = float(w.hat_many(h * ells + shift).sum())
    return h * math.cos((k0 - 1) * phi) * total
