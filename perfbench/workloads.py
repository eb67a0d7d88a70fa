"""The benchmark workloads: figure, measure and oracle.

Each workload has a set-up, which builds the tables a user builds once per
process, and a solve, which runs from tables ready to checked outputs.
Every call into the package goes through a public function inside a layer
span named after its module, so a traced run can attribute the solve to
the layers.  The seed is the only source of inputs; the program receives
only the generated values and runs with its own defaults (no thread count
is set).  Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from murmurations import arith, classnum, murmur, nu, qexp, trace, window

# relative agreement required with the stored seed-commit outputs
REFERENCE_RTOL = 1e-9
# two-formula gap of nu and Fourier-jump gap, as in acceptance criteria 5, 6
NU_GAP_TOL = 5e-4
JUMP_GAP_TOL = 2e-3
# factor sieve of every workload, the size the program's own runs use
SIEVE_BOUND = 10**6
# weights of the traces checked against the q-expansion oracle
ORACLE_WEIGHTS = (12, 16, 26)


@dataclass
class Outcome:
    """Named pass/fail checks of one solve plus unchecked diagnostics."""

    checks: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))

    @property
    def failed(self) -> list:
        return [name for name, ok in self.checks if not ok]


def relative_deviation(got, want) -> float:
    """Largest |got - want| / |want| over two equal-length sequences; a zero
    reference value must be matched exactly, a length mismatch is inf."""
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    if got.shape != want.shape:
        return math.inf
    diff = np.abs(got - want)
    nonzero = want != 0
    dev = np.where(nonzero, diff / np.where(nonzero, np.abs(want), 1.0), 0.0)
    if np.any(diff[~nonzero] != 0) or not np.all(np.isfinite(got)):
        return math.inf
    return float(dev.max()) if dev.size else 0.0


def _series(rec, req, ctx):
    with rec.layer("murmur.series") as c:
        series = murmur.compute_series(req, ctx)
    n = series.n.astype(np.float64)
    c["points"] = int(series.n.size)
    # t-terms of the elliptic sum per point: 0 <= t <= isqrt(4n - 1)
    c["elliptic_terms"] = int(np.sum(np.floor(np.sqrt(4.0 * n - 1.0)) + 1.0))
    return series


def _factor_sieve(rec):
    with rec.layer("arith.factor_sieve"):
        return arith.build_factor_sieve(SIEVE_BOUND)


def _class_table(rec, K: float):
    bound = 4 * int(2 * arith.analytic_conductor(K).N) + 8
    with rec.layer("classnum.sieve") as c:
        table = classnum.sieve_class_numbers(bound)
    c["sieve_bound"] = bound
    return table


class TimedWindow:
    """Stands in for a WindowFunction, timing each hat_many call as a
    window.hat span; every other attribute is the wrapped window's."""

    def __init__(self, w, rec):
        self._window = w
        self.hat_many = rec.wrap(w.hat_many, "window.hat", _hat_counts)

    def __getattr__(self, name):
        return getattr(self._window, name)


def _hat_counts(result, arguments) -> dict:
    xi = np.asarray(arguments["xi"], dtype=np.float64)
    # computed, not measured: the panel quadrature's 16 nodes per panel,
    # with panels sized for the largest |xi|
    panels = max(6, int(math.ceil(np.abs(xi).max())) + 4)
    return {"hat_points": int(xi.size), "hat_cos_evals": int(xi.size) * 16 * panels}


@dataclass
class Figure:
    """The figure-scale run: K = 3850, H = 100, both root-number classes,
    E = [0, 2], against the nu curve on a 100-point grid.  Fixed inputs."""

    seed: int = 0
    K: float = 3850.0
    H: float = 100.0
    grid_points: int = 100
    q_max: int = 2000
    reference: dict | None = None
    setup_reps: int = 1

    def setup(self, rec, workdir):
        sieve = _factor_sieve(rec)
        return sieve, _class_table(rec, self.K)

    def solve(self, state, rec) -> Outcome:
        sieve, table = state
        ctx = trace.TraceContext(table=table, sieve=sieve)
        with rec.layer("trace.l1_array") as c:
            c["l1_entries"] = int(ctx.l1_array().size)
        grid = np.linspace(0.02, 2.0, self.grid_points)
        E = nu.Interval(Fraction(0), Fraction(2))
        r, den, root_n = {}, {}, 1.0
        for delta in (0, 1):
            req = murmur.MurmurationRequest(delta=delta, K=self.K, H=self.H, E=E)
            series = _series(rec, req, ctx)
            with rec.layer("murmur.curve"):
                curve = murmur.cumulative_curve(series, grid)
            r[delta] = np.array([v for _, v in curve])
            den[delta] = series.den_total
            root_n = math.sqrt(series.N)
        nu_curve = np.empty(grid.size)
        for i, t in enumerate(grid):
            with rec.layer("nu.rational") as c:
                part = nu.nu_rational(nu.Interval(Fraction(0), float(t)), self.q_max, sieve)
            c["rational_q"] = self.q_max
            nu_curve[i] = part.value

        out = Outcome()
        for delta in (0, 1):
            # acceptance criterion 8: sign, size, endpoint and shape
            sign = 1.0 if delta == 0 else -1.0
            end = r[delta][-1]
            out.check(f"crit8.sign.d{delta}", math.copysign(1.0, end) == sign)
            out.check(f"crit8.size.d{delta}", 0.1 <= abs(end) <= 10.0)
            out.check(f"crit8.endpoint.d{delta}", abs(end - sign * nu_curve[-1]) <= 0.10)
            corr = float(np.corrcoef(r[delta], sign * nu_curve)[0, 1])
            out.check(f"crit8.corr.d{delta}", corr >= 0.95)
            # acceptance criterion 9: denominator against H K^2 |E| / (96 pi)
            target = self.H * self.K**2 * 2.0 / (96.0 * math.pi)
            out.check(f"crit9.den.d{delta}", abs(den[delta] / root_n - target) <= 0.05 * target)
        if self.reference is not None:
            ref = self.reference
            pairs = {
                "r0": (r[0], ref["r"]["0"]),
                "r1": (r[1], ref["r"]["1"]),
                "nu": (nu_curve, ref["nu"]),
                "den0": ([den[0]], [ref["den_total"]["0"]]),
                "den1": ([den[1]], [ref["den_total"]["1"]]),
            }
            devs = {k: relative_deviation(got, want) for k, (got, want) in pairs.items()}
            for key, dev in devs.items():
                out.check(f"reference.{key}", dev <= REFERENCE_RTOL)
            out.diagnostics["ref_dev_max"] = max(devs.values())
        out.diagnostics["outputs"] = {
            "r": {"0": r[0].tolist(), "1": r[1].tolist()},
            "nu": nu_curve.tolist(),
            "den_total": {"0": den[0], "1": den[1]},
        }
        return out


def _away_from_small_rationals(rng: random.Random) -> float:
    """A seeded alpha in (0.05, 0.95) at least 0.02/q^2 from every a/q with
    q <= 50, so the partial Fourier series is out of every large jump's
    Gibbs zone at the truncation used."""
    while True:
        alpha = rng.uniform(0.05, 0.95)
        if all(
            abs(alpha - round(alpha * q) / q) >= 0.02 / (q * q) for q in range(1, 51)
        ):
            return alpha


def _squarefree_phi_sigma(q: int):
    """(phi(q), sigma(q)) for squarefree q, None otherwise (trial division)."""
    phi = sigma = 1
    p, rest = 2, q
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return None
            phi, sigma = phi * (p - 1), sigma * (p + 1)
        p += 1
    if rest > 1:
        phi, sigma = phi * (rest - 1), sigma * (rest + 1)
    return phi, sigma


# nu has an atom of mass (q/a)^w / (zeta(2) phi(q)^2 sigma(q)) at y = (q/a)^2
# for squarefree q and gcd(a, q) = 1.  The tapered Fourier form resolves
# s = y^(-1/2) only to a few 1/t_max, so an endpoint that close to an atom
# takes part of it, and the two forms then differ by up to half that atom
# whatever the code does.  Endpoints keep clear of every atom of mass
# m > 1e-4 by 4 + 2 log10(m / 1e-3) units of 1/t_max, a margin fitted to the
# measured leakage of the atom at y = 4 (m = 3.2).
_ZETA2 = math.pi**2 / 6.0


def _clear_of_atoms(y: float, t_max: int, q_max: int = 60) -> bool:
    """No atom of the quartic-weight measure too close to y (see above)."""
    s = y**-0.5
    for q in range(1, q_max + 1):
        ps = _squarefree_phi_sigma(q)
        if ps is None:
            continue
        for a in {math.floor(s * q), math.ceil(s * q)}:
            if a < 1 or math.gcd(a, q) != 1:
                continue
            mass = (q / a) ** 4 / (_ZETA2 * ps[0] ** 2 * ps[1])
            if mass > 1e-4 and abs(s - a / q) * t_max < 4 + 2 * math.log10(mass / 1e-3):
                return False
    return True


def _endpoint(rng: random.Random, lo: float, hi: float, t_max: int) -> float:
    while True:
        y = rng.uniform(lo, hi)
        if _clear_of_atoms(y, t_max):
            return y


@dataclass
class Measure:
    """The limiting-measure side: nu by both formulas on seeded intervals,
    the Fourier series of the jump function, and the circle-method check."""

    seed: int = 0
    intervals: int = 10
    nu_terms: int = 5000
    fourier_terms: int = 10**5
    jump_q_max: int = 10**4
    circle_x: float = 1000.0
    setup_reps: int = 40

    def __post_init__(self):
        rng = random.Random(self.seed)
        self.E = []
        for _ in range(self.intervals):
            # the ranges of acceptance criterion 5, endpoints clear of atoms
            u = _endpoint(rng, 0.2, 4.5, self.nu_terms)
            self.E.append(nu.Interval(u, _endpoint(rng, u + 0.1, 5.0, self.nu_terms)))
        self.alphas = [Fraction(1, 2), Fraction(1, 3), _away_from_small_rationals(rng)]

    def setup(self, rec, workdir):
        sieve = _factor_sieve(rec)
        with rec.layer("window.make"):
            w = window.make_window()
        return sieve, w

    def solve(self, state, rec) -> Outcome:
        sieve, w = state
        out = Outcome()
        gaps = []
        with rec.patched(
            nu, "nu_rational", "nu.rational", lambda r, a: {"rational_q": a["q_max"]}
        ), rec.patched(
            nu, "nu_fourier", "nu.fourier", lambda r, a: {"fourier_terms": a["t_max"]}
        ):
            for i, E in enumerate(self.E):
                for weight in ("cubic", "quartic"):
                    ev = nu.evaluate_nu(E, self.nu_terms, self.nu_terms, sieve, weight=weight)
                    rec.mark()
                    gap = abs(ev.rational_form_value - ev.fourier_form_value)
                    gaps.append(gap)
                    out.check(f"nu_gap.{i}.{weight}", gap <= NU_GAP_TOL)
                    budget = ev.rational_tail_bound + ev.fourier_tail_bound
                    out.check(f"nu_gap_in_budget.{i}.{weight}", gap <= budget)
        for alpha in self.alphas:
            with rec.layer("nu.fourier") as c:
                series = nu.s_alpha_fourier(alpha, self.fourier_terms, sieve)
            c["fourier_terms"] = self.fourier_terms
            with rec.layer("nu.jump"):
                jump = nu.s_alpha_jump(alpha, self.jump_q_max, sieve, star=True)
            out.check(f"jump_gap.{float(alpha):.6f}", abs(series - jump) <= JUMP_GAP_TOL)
        hat = TimedWindow(w, rec) if rec.tracing else w
        for q in (1, 4):
            with rec.layer("nu.circle") as c:
                chk = nu.prop_circle_check(1, q, 0.0, self.circle_x, hat, sieve)
            c["circle_terms"] = chk.t_max
            if q == 1:
                out.check("circle.q1.finite", math.isfinite(chk.lhs) and chk.main_term > 0)
            else:
                # acceptance criterion 7: no main term at q = 4, small sum
                out.check("circle.q4.main_zero", chk.main_term == 0.0)
                out.check("circle.q4.lhs_small", abs(chk.lhs) <= 50.0 * 4 / self.circle_x)
        out.diagnostics["nu_gap_max"] = max(gaps)
        return out


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One seeded draw from each of count equal strata of [lo, hi], so the
    work of a draw does not depend much on the seed."""
    edges = np.linspace(lo, hi + 1, count + 1)
    return [rng.randrange(int(a), max(int(a) + 1, int(b))) for a, b in zip(edges, edges[1:])]


def _divisor_count(n: int) -> int:
    return sum(1 + (d * d != n) for d in range(1, math.isqrt(n) + 1) if n % d == 0)


@dataclass
class Oracle:
    """The exact ground-truth paths: traces against the q-expansion oracle,
    big-weight traces, brute-force local averages against the closed form,
    and the statistic summed over all integers, at K = 1000."""

    seed: int = 0
    K: float = 1000.0
    H: float = 60.0
    oracle_n_max: int = 200
    oracle_samples: int = 100
    big_k: int = 1000
    big_n_max: int = 300
    psi_m_max: int = 180
    psi_samples: int = 24
    setup_reps: int = 12

    def __post_init__(self):
        rng = random.Random(self.seed)
        self.trace_points = [
            (k, n)
            for k in ORACLE_WEIGHTS
            for n in _stratified(rng, 1, self.oracle_n_max, self.oracle_samples)
        ]
        self.psi_points = [
            (rng.randint(-10, 10), m)
            for m in _stratified(rng, 2, self.psi_m_max, self.psi_samples)
        ]

    def setup(self, rec, workdir):
        sieve = _factor_sieve(rec)
        table = _class_table(rec, self.K)
        path = workdir / "classnum.bin"
        with rec.layer("classnum.cache_write") as c:
            classnum.save_class_numbers(table, path)
        c["cache_bytes"] = path.stat().st_size
        return sieve, table, path

    def solve(self, state, rec) -> Outcome:
        sieve, table, path = state
        out = Outcome()
        with rec.layer("classnum.cache_read"):
            loaded = classnum.load_class_numbers(path)
        out.check("cache.roundtrip", loaded.bound == table.bound and np.array_equal(loaded.h, table.h))
        ctx = trace.TraceContext(table=loaded, sieve=sieve)

        for k, n in self.trace_points:
            with rec.layer("trace.trace_hecke") as c:
                got = trace.trace_hecke(ctx, k, n)
            c["traces"] = 1
            with rec.layer("qexp.oracle") as c:
                want = qexp.oracle_trace(k, n)
            c["oracle_calls"] = 1
            out.check(f"trace.k{k}.n{n}", got == want)

        k = self.big_k
        dim = k // 12 - (1 if k % 12 == 2 else 0)
        for n in range(1, self.big_n_max + 1):
            with rec.layer("trace.trace_hecke") as c:
                tr = trace.trace_hecke(ctx, k, n)
            c["traces"] = 1
            if n == 1:
                out.check(f"trace.k{k}.n1_is_dim", tr == dim)
            else:
                # Deligne: |tr T_n| <= dim d(n) n^((k-1)/2), squared to stay in integers
                bound = dim * _divisor_count(n)
                out.check(f"trace.k{k}.n{n}.deligne", tr * tr <= bound * bound * n ** (k - 1))

        t_max = max(abs(t) for t, _ in self.psi_points)
        with rec.layer("classnum.disc_table"):
            disc = classnum.DiscriminantTable(4 * self.psi_m_max**2 + t_max**2, sieve)
        for t, m in self.psi_points:
            with rec.layer("classnum.psi_bar") as c:
                brute = classnum.psi_bar_bruteforce(t, m, sieve, disc)
            c["psi_bar_residues"] = m * m
            with rec.layer("classnum.psi_bar_closed"):
                closed = classnum.psi_bar(t, m, sieve)
            out.check(f"psi_bar.t{t}.m{m}", brute == closed)

        E = nu.Interval(Fraction(0), Fraction(2))
        for delta, weighting in ((0, "unit"), (1, "unit"), (0, "sqrt_p")):
            req = murmur.MurmurationRequest(
                delta=delta, K=self.K, H=self.H, E=E, weighting=weighting,
                summand_domain="integers",
            )
            every = _series(rec, req, ctx)
            primes = _series(rec, replace(req, summand_domain="primes"), ctx)
            # at a prime the full trace formula reduces to the prime-only sum
            at_primes = every.numerator[np.isin(every.n, primes.n)]
            scale = float(np.abs(primes.numerator).max()) if primes.n.size else 0.0
            out.check(
                f"series.d{delta}.{weighting}.primes_agree",
                at_primes.shape == primes.numerator.shape
                and np.all(np.abs(at_primes - primes.numerator) <= REFERENCE_RTOL * scale),
            )
        return out


WORKLOADS = {"figure": Figure, "measure": Measure, "oracle": Oracle}
