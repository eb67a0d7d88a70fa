import hashlib
import math
import os
import signal
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from murmurations import trace
from murmurations.arith import build_factor_sieve
from murmurations.classnum import sieve_class_numbers
from murmurations.murmur import MurmurationRequest, compute_series, dimension_S_k
from murmurations.nu import Interval
from murmurations.qexp import oracle_trace
from murmurations.trace import (
    TableBoundError,
    TraceContext,
    _lucas_u,
    eigenvalue_sum_prime,
    elliptic_sums,
    progression_weights,
    trace_hecke,
)


def test_weight_12_is_tau(ctx_small):
    tau = {2: -24, 3: 252, 4: -1472, 5: 4830, 7: -16744}
    for n, want in tau.items():
        assert trace_hecke(ctx_small, 12, n) == want


def test_tau_hecke_relation(ctx_small):
    # tau(4) = tau(2)^2 - 2^11 tau(1)
    t1 = trace_hecke(ctx_small, 12, 1)
    t2 = trace_hecke(ctx_small, 12, 2)
    assert trace_hecke(ctx_small, 12, 4) == t2 * t2 - 2**11 * t1


def test_trace_at_one_is_dimension(ctx_small):
    dims = {4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 24: 2, 36: 3}
    for k, d in dims.items():
        assert trace_hecke(ctx_small, k, 1) == d


def test_lucas_ladder_vs_recurrence():
    # U_m(t, n) by the V half ladder against U_{m+1} = t U_m - n U_{m-1}, for
    # m >= 1 and D = t^2 - 4n != 0, the only arguments trace_hecke passes
    for t in range(-20, 21):
        for n in range(1, 31):
            if t * t == 4 * n:
                continue
            prev, cur = 0, 1
            for m in range(1, 66):
                assert _lucas_u([t], n, m) == [cur], (t, n, m)
                prev, cur = cur, t * cur - n * prev
    # both parities of m near the oracle's k - 1 = 999, up to its largest n;
    # each n has t with D > 0 and D < 0
    for t in range(-40, 41):
        for n in (1, 2, 299, 300):
            if t * t == 4 * n:
                continue
            prev, cur = 0, 1
            for m in range(1, 1003):
                if m >= 998:
                    assert _lucas_u([t], n, m) == [cur], (t, n, m)
                prev, cur = cur, t * cur - n * prev


def test_trace_oracle_sample(ctx_small):
    for k in (12, 16, 18, 20, 22, 24, 26):
        for n in range(1, 40):
            assert trace_hecke(ctx_small, k, n) == oracle_trace(k, n)


@given(st.integers(1, 60).map(lambda j: 2 * j), st.integers(1, 5000))
def test_trace_is_an_integer_within_deligne(ctx_small, k, n):
    tr = trace_hecke(ctx_small, k, n)
    assert type(tr) is int
    # |tr T_n| <= dim d(n) n^((k-1)/2), squared to stay in integers
    bound = dimension_S_k(k) * len(ctx_small.sieve.divisors(n))
    assert tr * tr <= bound * bound * n ** (k - 1)


@given(st.sampled_from([12, 16, 18, 20, 22, 26]), st.integers(1, 60))
def test_trace_matches_oracle_in_one_dimensional_weights(ctx_small, k, n):
    assert trace_hecke(ctx_small, k, n) == oracle_trace(k, n)


def test_weight_two_vanishes(ctx_small):
    # S_2(1) is trivial, so the four pieces cancel exactly
    for n in range(1, 60):
        assert trace_hecke(ctx_small, 2, n) == 0


def test_trace_validation(ctx_small):
    with pytest.raises(ValueError):
        trace_hecke(ctx_small, 13, 2)
    with pytest.raises(ValueError):
        trace_hecke(ctx_small, 12, 0)
    with pytest.raises(TableBoundError):
        trace_hecke(ctx_small, 12, ctx_small.table.bound)


def test_eigenvalue_sum_weight12_value(ctx_small):
    # tau(2) / 2^(11/2)
    want = -24.0 / 2**5.5
    assert abs(eigenvalue_sum_prime(ctx_small, 12, 2) - want) < 1e-12
    assert abs(want + 0.5303300858899106) < 1e-15


def test_eigenvalue_sum_matches_exact_path(ctx_small):
    for k in (12, 16, 24, 40):
        for p in (2, 3, 5, 97, 997):
            spectral = eigenvalue_sum_prime(ctx_small, k, p)
            exact = trace_hecke(ctx_small, k, p) * math.exp(0.5 * (1 - k) * math.log(p))
            assert abs(spectral - exact) <= 1e-9 * max(1.0, abs(exact))


def test_eigenvalue_sum_zero_dimensional(ctx_small):
    # k = 4: both sides of the equivalence vanish to rounding
    assert abs(eigenvalue_sum_prime(ctx_small, 4, 5)) < 1e-12
    for k in (4, 6, 8, 10, 14):
        assert abs(eigenvalue_sum_prime(ctx_small, k, 101)) < 1e-10


def test_eigenvalue_sum_deligne_scale(ctx_small):
    # soft diagnostic: |sum| <= 2 dim + slack
    for k in (12, 24, 36, 60):
        dim = trace_hecke(ctx_small, k, 1)
        for p in (2, 13, 101):
            assert abs(eigenvalue_sum_prime(ctx_small, k, p)) <= 2 * dim + 1e-6


def test_eigenvalue_sum_validation(ctx_small):
    with pytest.raises(ValueError):
        eigenvalue_sum_prime(ctx_small, 12, 6)


def test_hecke_multiplicativity_one_dimensional(ctx_small):
    for k in (12, 16, 18, 20, 22, 26):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            lam_p2 = trace_hecke(ctx_small, k, p * p) * float(p) ** (1 - k)
            lam_p = trace_hecke(ctx_small, k, p) * float(p) ** ((1 - k) / 2)
            assert abs(lam_p2 - (lam_p * lam_p - 1.0)) < 1e-9


def test_progression_weights():
    assert progression_weights(3850.0, 100.0, 0) == (3752, 50)
    assert progression_weights(3850.0, 100.0, 1) == (3750, 51)
    # the k >= 4 floor
    assert progression_weights(16.0, 14.0, 0)[0] >= 4
    assert progression_weights(10.0, 2.0, 1) == (10, 1)


def _elliptic_sum_reference(n, k_min, m, l1):
    """elliptic_sums at one n, term by term: phi = atan2(t, sqrt(4n - t^2)) is
    well conditioned at every t, and every sum is a ``math.fsum``."""
    ks = [k_min + 4 * j for j in range(m)]
    terms = [m * l1[4 * n]]
    for t in range(1, math.isqrt(4 * n - 1) + 1):
        phi = math.atan2(t, math.sqrt(4 * n - t * t))
        terms.append(2.0 * math.fsum(math.cos((k - 1) * phi) for k in ks) * l1[4 * n - t * t])
    return math.fsum(terms)


def test_elliptic_sums_error_bound(desk_context):
    # the n of the figure run where an arcsin angle loses most (about 1e-8)
    ns = [92419, 122503, 178931]
    l1 = desk_context.l1_array()
    windows = [progression_weights(3850.0, 100.0, delta) for delta in (0, 1)]
    rows = elliptic_sums(ns, windows, l1)
    for delta, (k_min, m) in enumerate(windows):
        for n, value in zip(ns, rows[delta]):
            assert abs(value - _elliptic_sum_reference(n, k_min, m, l1)) <= 2e-9, (delta, n)


def test_elliptic_sums_input_contract():
    l1 = np.ones(41)
    with pytest.raises(ValueError, match="positive"):
        elliptic_sums([0, 3], [(12, 2)], l1)
    with pytest.raises(ValueError, match="ascending"):
        elliptic_sums([5, 3], [(12, 2)], l1)
    with pytest.raises(ValueError, match="nonnegative"):
        elliptic_sums([3, 5], [(12, -1)], l1)
    assert elliptic_sums([], [(12, 2), (10, 3)], l1).shape == (2, 0)
    # an empty window is a row of exact zeros beside the others
    rows = elliptic_sums([3, 5], [(12, 0), (10, 3)], l1)
    assert not rows[0].any() and np.array_equal(rows[1], elliptic_sums([3, 5], [(10, 3)], l1)[0])


def _forced_workers(monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(trace, "_WORKER_TERMS", 1)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _in_child(parent, action):
    """A stand-in for trace._passes that runs action in a child and the
    real passes in the parent."""
    passes = trace._passes

    def patched(ns, windows, l1):
        if os.getpid() != parent:
            return action(ns, windows, l1)
        return passes(ns, windows, l1)

    return patched


def _failing(ns, windows, l1):
    raise MemoryError


def _short(ns, windows, l1):
    return np.zeros((len(windows), ns.size - 1))


def _bad_exit(ns, windows, l1):
    # every byte written, then a non-zero exit status
    exit_ = os._exit
    os._exit = lambda code: exit_(3)
    return np.zeros((len(windows), ns.size))


def _killed(ns, windows, l1):
    # death by a signal rather than an exit status
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "action", [_failing, _short, _bad_exit, _killed], ids=["raises", "short", "status", "signal"]
)
def test_failed_worker_share_recomputed(ctx_small, monkeypatch, action):
    # a child that exits non-zero, returns too few columns or dies by a
    # signal has its share recomputed by the parent: the rows stay those
    # of one process
    ns = ctx_small.sieve.primes[:600]
    windows = [(12, 3), (14, 2)]
    l1 = ctx_small.l1_array()
    whole = elliptic_sums(ns, windows, l1)
    _forced_workers(monkeypatch, 3)
    monkeypatch.setattr(trace, "_passes", _in_child(os.getpid(), action))
    fds = _open_fds()
    assert np.array_equal(elliptic_sums(ns, windows, l1), whole)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def test_worker_error_raised_in_the_parent(monkeypatch):
    # a table too short for the later shares fails in the children and
    # again in the parent, which raises it with its own type
    l1 = np.ones(4 * 3000)
    _forced_workers(monkeypatch, 3)
    fds = _open_fds()
    with pytest.raises(IndexError):
        elliptic_sums(np.arange(1, 4000), [(12, 3)], l1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def test_forked_call_edge_cases(monkeypatch):
    # a call with no windows has no rows and runs in one process; windows
    # that all have m = 0 give exact zeros from the workers; a point fewer
    # than the workers leaves empty shares, which start no child
    ns = np.arange(1, 3000)
    l1 = np.ones(4 * 3000 + 1)
    one = elliptic_sums([2999], [(12, 3)], l1)
    _forced_workers(monkeypatch, 3)
    fds = _open_fds()
    assert elliptic_sums(ns, [], l1).shape == (0, ns.size)
    rows = elliptic_sums(ns, [(12, 0), (14, 0)], l1)
    assert rows.shape == (2, ns.size) and not rows.any()
    assert np.array_equal(elliptic_sums([2999], [(12, 3)], l1), one)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def test_interrupt_kills_and_reaps_the_workers(ctx_small, monkeypatch):
    # an interrupt in the parent while the children run kills and reaps
    # them before it propagates
    parent = os.getpid()
    passes = trace._passes

    def interrupted(ns, windows, l1):
        if os.getpid() != parent:
            time.sleep(60)
            return passes(ns, windows, l1)
        raise KeyboardInterrupt

    def interrupted_while_waiting(ns, windows, l1):
        # the parent's share done, an interrupt arrives while it waits
        rows = passes(ns, windows, l1)
        if os.getpid() != parent:
            time.sleep(60)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
        return rows

    def alarm(signum, frame):
        raise KeyboardInterrupt

    _forced_workers(monkeypatch, 3)
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for stand_in in (interrupted, interrupted_while_waiting):
            monkeypatch.setattr(trace, "_passes", stand_in)
            fds = _open_fds()
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                elliptic_sums(ctx_small.sieve.primes[:600], [(12, 3)], ctx_small.l1_array())
            assert time.monotonic() - start < 30
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert _open_fds() == fds
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_sieve_covers_n_only(ctx_small, class_table_20k):
    # T_n factors only n, so a factor sieve up to n_max serves every n the
    # class table (|D| <= 4 n_max) does, with the same values
    n_max = class_table_20k.bound // 4
    lean = TraceContext(table=class_table_20k, sieve=build_factor_sieve(n_max))
    for n in (1, 2, 97, 360, 4096, 4999, n_max):
        assert trace_hecke(lean, 12, n) == trace_hecke(ctx_small, 12, n), n
    for k, p in ((12, 2), (24, 997), (40, 4999)):
        assert eigenvalue_sum_prime(lean, k, p) == eigenvalue_sum_prime(ctx_small, k, p)
    # K = 600: 2N = 4544 <= n_max
    for domain in ("primes", "integers"):
        for delta in (0, 1):
            req = MurmurationRequest(delta=delta, K=600.0, H=60.0,
                                     E=Interval(Fraction(0), Fraction(2)),
                                     summand_domain=domain)
            got, want = compute_series(req, lean), compute_series(req, ctx_small)
            assert np.array_equal(got.n, want.n) and got.n.size
            assert np.array_equal(got.numerator, want.numerator), (domain, delta)
            assert np.array_equal(got.cumulative, want.cumulative), (domain, delta)
    # a sieve below n is still refused
    short = TraceContext(table=class_table_20k, sieve=build_factor_sieve(4998))
    with pytest.raises(TableBoundError):
        trace_hecke(short, 12, 4999)
    with pytest.raises(TableBoundError):
        eigenvalue_sum_prime(short, 12, 4999)


def test_table_bound_error_names_the_short_table(class_table_20k, sieve_1m):
    # the message names the table that is short and what it is indexed by:
    # the factor sieve by n, the class numbers by |D| = 4n
    short_sieve = TraceContext(table=class_table_20k, sieve=build_factor_sieve(4000))
    short_class = TraceContext(table=class_table_20k, sieve=sieve_1m)
    k600 = MurmurationRequest(delta=0, K=600.0, H=60.0, E=Interval(Fraction(0), Fraction(2)))
    k900 = MurmurationRequest(delta=0, K=900.0, H=60.0, E=Interval(Fraction(0), Fraction(2)))
    sieve_msg = "factor sieve covers n <= 4000, need "
    class_msg = "class-number table covers |D| <= 20000, need "
    for call, table, message in (
        (lambda: trace_hecke(short_sieve, 12, 4500), "sieve", sieve_msg + "4500"),
        (lambda: compute_series(k600, short_sieve), "sieve", sieve_msg + "4544"),
        (lambda: trace_hecke(short_sieve, 12, 5001), "class", class_msg + "20004"),
        # 10 223 is the largest prime <= 2 N(900)
        (lambda: compute_series(k900, short_class), "class", class_msg + str(4 * 10223)),
    ):
        with pytest.raises(TableBoundError) as info:
            call()
        assert (info.value.table, str(info.value)) == (table, message)


def _l1_one_shot(ctx):
    # the expression with an int64 6H and a separate quotient, in one piece
    absd = np.arange(ctx.table.bound + 1, dtype=np.float64)
    absd[0] = 1.0
    return (2.0 * math.pi / 12.0) * ctx.table.expand(ctx.h6).astype(np.int64) / np.sqrt(absd)


def test_l1_array_is_one_division_of_6h(desk_context):
    # bitwise, over the 12 blocks of the desk table
    assert np.array_equal(desk_context.l1_array(), _l1_one_shot(desk_context))


def test_l1_array_figure_digest(desk_context):
    # the figure-scale table, pinned from the n-indexed 6H it was built from
    # before the halves
    assert hashlib.sha256(desk_context.l1_array().tobytes()).hexdigest() == (
        "60092250f3f7481b7043ec2d58a142ab5e03193a03a3d7570a9cd412cedf1bc2"
    )


@pytest.mark.parametrize(
    "bound", [1000, 2**16 - 1, 2**16, 2**16 + 1, 2**18 - 5, 2**18 - 1, 2**18, 2**18 + 3, 2**18 + 7]
)
def test_l1_array_block_edges(bound, sieve_1m):
    # the blocks run over each half, 2^16 entries of T0 or T3: from
    # 2^18 - 5 on, both halves are one entry short of a block, exactly one
    # block, T0 one into the next, both one into it, and both two into it
    ctx = TraceContext(table=sieve_class_numbers(bound), sieve=sieve_1m)
    assert ctx.l1_array().size == bound + 1
    assert np.array_equal(ctx.l1_array(), _l1_one_shot(ctx))


def test_elliptic_sums_t0_term():
    # a table that is zero except at 4n leaves only t = 0: m L(1, psi_{-4n})
    k_min, m = progression_weights(600.0, 60.0, 0)
    for n in (1, 7, 1009):
        l1 = np.zeros(4 * n + 1)
        l1[4 * n] = 0.7
        assert elliptic_sums([n], [(k_min, m)], l1)[0, 0] == m * 0.7, n


def test_progression_cosine_sum_vs_direct(sieve_1m):
    # the progression cosine sum of the K = 3850 window, read off the one
    # remaining kernel: a unit L(1) value at 4p - t^2 isolates the (p, t)
    # term, which enters for t and -t.  These t put phi near 0.3, pi/4, 1.1
    p = 187631
    k_min, m = progression_weights(3850.0, 100.0, 0)
    ks = [k_min + 4 * j for j in range(m)]
    assert m == 50
    for t in (256, 613, 772):
        l1 = np.zeros(4 * p + 1)
        l1[4 * p - t * t] = 1.0
        phi = math.atan2(t, math.sqrt(4 * p - t * t))
        direct = math.fsum(math.cos((k - 1) * phi) for k in ks)
        got = elliptic_sums([p], [(k_min, m)], l1)[0, 0] / 2.0
        assert abs(got - direct) < 1e-10, t


def test_elliptic_sums_vs_direct_cosine_sum(sieve_1m):
    # p = 187 631, the largest prime of the K = 3850 figure; one unit L(1)
    # value isolates the (p, t) term, which enters for t and -t.  The two
    # ends of the t range put phi near 0 and near pi/2
    p = 187631
    assert sieve_1m.is_prime(p)
    k_min, m = progression_weights(3850.0, 100.0, 0)
    ks = [k_min + 4 * j for j in range(m)]
    for t in (1, math.isqrt(4 * p - 1)):
        l1 = np.zeros(4 * p + 1)
        l1[4 * p - t * t] = 1.0
        phi = math.atan2(t, math.sqrt(4 * p - t * t))
        direct = math.fsum(math.cos((k - 1) * phi) for k in ks)
        got = elliptic_sums([p], [(k_min, m)], l1)[0, 0] / 2.0
        assert abs(got - direct) <= 1e-9, t
