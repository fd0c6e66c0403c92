"""Tests for the scalar cost solve, prices, charges, and the count rule."""

import contextlib
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scpm import (
    MarketConfig,
    Order,
    charge,
    cost,
    make_utility,
    new_market,
    prices,
    quote,
    settle,
    solve_t,
)
from scpm import analysis, oracle, utilities
from scpm.cost import (MAX_EXPAND, MAX_ITER, PRICE_SUM_OK, SolverError, bracketed_root,
                       expand_bracket, whole)
from scpm.market import converge
from scpm.utilities import KINDS, SMALL_N, QuadSCPM, Utility, _lse_level, _newton

from linear_utility import LinearUtility


def random_q(rng, n, scale=4.0):
    return rng.uniform(0.0, scale, size=n)


def no_level(u):
    """The same utility without its level, so that solve_t takes the root path."""
    generic = type(type(u).__name__, (type(u),), {"_level": None, "_kernel": Utility._kernel})
    return generic(b=u.b, n_outcomes=u.n, theta=u.theta)


class FixedPrices(Utility):
    """A monotone utility whose kernel hands solve_t the same prices at every q."""

    kind = "FixedPrices"

    def __init__(self, p):
        self.p = np.array(p, dtype=float)
        super().__init__(n_outcomes=self.p.size)

    def _kernel(self, q):
        return 0.0, 0.0, self.p.copy(), "flat", 0


class TestSolveT:
    def test_shape_mismatch_rejected(self):
        u = make_utility("LMSR", n_outcomes=3)
        with pytest.raises(ValueError, match="shape"):
            solve_t(u, np.zeros(2))

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonfinite_q_rejected(self, kind):
        # Without the check nan and inf ran through the kernels to nan
        # prices, or to a cost of -inf, with no error.
        u = make_utility(kind, n_outcomes=3)
        for bad in (math.nan, math.inf, -math.inf):
            q = np.array([bad, 0.0, 0.0])
            for solve in (solve_t, cost, prices):
                with pytest.raises(ValueError, match="finite"):
                    solve(u, q)

    @pytest.mark.parametrize("n", [2, 3, SMALL_N - 1, SMALL_N])
    @pytest.mark.parametrize("kind", KINDS)
    def test_nonfinite_entry_rejected_at_every_index(self, kind, n):
        # Both forms of the checks: lists below SMALL_N states, where min and
        # max pass over a nan that is not first, and arrays from it on.
        u = make_utility(kind, n_outcomes=n)
        cases = []
        for i in range(n):
            for bad in (math.nan, math.inf, -math.inf):
                q = np.linspace(0.0, 1.0, n)
                q[i] = bad
                cases.append(q)
        # a nan after a finite maximum, and a nan with an inf elsewhere
        cases.append(np.array([0.0] * (n - 2) + [2.0, math.nan]))
        for inf in (math.inf, -math.inf):
            cases.append(np.array([inf] + [0.0] * (n - 2) + [math.nan]))
            cases.append(np.array([math.nan] + [0.0] * (n - 2) + [inf]))
        for q in cases:
            for solve in (solve_t, cost, prices):
                with pytest.raises(ValueError, match="finite"):
                    solve(u, q)

    @pytest.mark.parametrize("kind", KINDS)
    def test_overflowing_spread_rejected(self, kind):
        # Finite, but q - max(q) overflows: the kernel would see -inf.
        u = make_utility(kind, n_outcomes=2)
        q = np.array([1.7e308, -1.7e308])
        for solve in (solve_t, cost, prices):
            with pytest.raises(ValueError, match="finite"):
                solve(u, q)

    def test_tiny_negative_price_clamped_to_plus_zero(self):
        p = solve_t(FixedPrices([0.5 + 1e-12, 0.5, -1e-12]), np.zeros(3)).prices
        assert p.tolist() == [0.5 + 1e-12, 0.5, 0.0]
        assert not np.signbit(p).any()

    def test_negative_price_from_monotone_kernel_rejected(self):
        with pytest.raises(SolverError, match="negative price"):
            solve_t(FixedPrices([0.5 + 1e-6, 0.5, -1e-6]), np.zeros(3))

    @pytest.mark.parametrize("kind", ["QuadraticScore"])
    @pytest.mark.parametrize("n", [3, 8])
    def test_non_finite_solve_is_a_solver_error(self, kind, n):
        # q = [1e308, 0, ...] is finite with a finite spread, but the
        # kernel's sums leave the float range, to a C or prices that are not
        # finite: QuadraticScore read C = nan with every price inf, and the
        # price-sum check passed it (inf > 1e-8 inf is false).  Below SMALL_N
        # states the kernel's floats overflow without numpy's warning; the
        # array form at N = 8 warns, so it runs with the warnings off.
        u = make_utility(kind, n_outcomes=n)
        q = np.zeros(n)
        q[0] = 1e308
        quiet = np.errstate(all="ignore") if n >= SMALL_N else contextlib.nullcontext()
        with quiet, pytest.raises(SolverError, match="not finite"):
            solve_t(u, q)

    @pytest.mark.parametrize("n", [3, SMALL_N])
    def test_quad_level_reads_its_active_prefix(self, n):
        # At q = [1e308, 0, ...] the shifted c is [2b theta_1, -1e308, ...]:
        # the running sum past c_1 overflows to -inf, and a count over every
        # c_k > t_k took the later -inf level's entry as active, for a wrong
        # level and C = inf (numpy's overflow warning in the array form).  The
        # active set is the prefix c_1, whose level prices state 0 alone.
        u = make_utility("QuadSCPM", n_outcomes=n)
        q = np.zeros(n)
        q[0] = 1e308
        r = solve_t(u, q)
        assert r.t_star == r.cost == 1e308
        assert r.prices.tolist() == [1.0] + [0.0] * (n - 1)

    @pytest.mark.parametrize("n", [3, SMALL_N])
    def test_quad_level_keeps_c1_below_its_rounding(self, n):
        # At a total T whose 2bT is lost in c_1 - 2bT, t_1 rounds to c_1 and
        # c_1 > t_1 fails; c_1 is active all the same, and the level is c_1.
        # A count of every c_k > t_k read 0 there and took the last t_k.
        # The list form at N = 3, the array form at N = SMALL_N.
        u = make_utility("QuadSCPM", n_outcomes=n)
        q = -0.5 * np.arange(n)
        assert u._level(*u._entries(q), 1e-20) == 2.0 / n

    def test_minus_zero_prior_gives_no_minus_zero_price(self):
        # solve_t clamps only when a price is negative, so no kernel may
        # hand it -0.0; QuadSCPM's price at a -0.0 weight on its level was.
        u = make_utility("QuadSCPM", n_outcomes=2, theta=[1.0, -0.0])
        p = solve_t(u, np.zeros(2)).prices
        assert p.tolist() == [1.0, 0.0]
        assert not np.signbit(p).any()

    def test_flat_objective_flagged(self):
        for kind in ("LMSR", "MinSCPM", "QuadraticScore"):
            u = make_utility(kind, n_outcomes=2)
            res = solve_t(u, np.array([1.0, 0.5]))
            assert res.flat_objective
            assert res.t_star == 1.0

    def test_flat_objective_cost_is_level_independent(self):
        # for a flat objective any level gives the same cost; probe a few
        u = make_utility("LMSR", b=1.5, n_outcomes=3)
        q = np.array([0.3, 1.2, 0.8])
        ref = cost(u, q)
        for t in [2.0, 5.0, 11.0]:
            assert t - u.value(t - q) == pytest.approx(ref, rel=1e-12)

    def test_log_solver_satisfies_stationarity(self):
        u = make_utility("LogSCPM", n_outcomes=3, theta=[1.0, 2.0, 0.5])
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = random_q(rng, 3)
            res = solve_t(u, q)
            assert abs(1.0 - u.grad_sum(res.t_star - q)) < 1e-8
            assert res.t_star > q.max()

    @pytest.mark.parametrize("kind", ["ExponentialSCPM", "QuadSCPM", "LogSCPM"])
    def test_closed_form_matches_bisection(self, kind):
        u = make_utility(kind, b=1.7, n_outcomes=4)
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = random_q(rng, 4)
            fast = solve_t(u, q)
            slow = solve_t(no_level(u), q)
            assert fast.cost == pytest.approx(slow.cost, abs=1e-9)
            np.testing.assert_allclose(fast.prices, slow.prices, atol=1e-8)

    def test_log_solve_width_is_relative_to_q(self):
        # An absolute 1e-12 width on t is below the float spacing at t ~ 1e7:
        # a search held to it runs out its iteration cap.  Run on the level
        # and on the root path.
        u = make_utility("LogSCPM", n_outcomes=3)
        q = 1e7 * np.array([1.0, 0.5, 0.0])
        for v in (u, no_level(u)):
            res = solve_t(v, q)
            assert res.iterations < MAX_ITER // 4
            shifted = solve_t(v, q - q.max()).cost + q.max()
            assert res.cost == pytest.approx(shifted, rel=1e-12)

    def test_log_solve_at_large_uniform_q(self):
        # At this scale max(q) + FLOOR_PAD rounds back onto max(q) itself.
        u = make_utility("LogSCPM", n_outcomes=3)
        for v in (u, no_level(u)):
            res = solve_t(v, np.full(3, 1e8))
            np.testing.assert_allclose(res.prices, np.full(3, 1.0 / 3.0), rtol=1e-12)

    def test_log_level_over_wide_theta(self):
        # theta over eight decades puts the root near the level of the
        # largest q_j alone, where a level held to an absolute width leaves
        # the prices off the simplex.  The level must never raise, keep
        # translation invariance and agree with the root path.
        rng = np.random.default_rng(31)
        for k in range(1000):
            n = int(rng.choice([2, 3, 10, 50]))
            theta = 10.0 ** rng.uniform(-4.0, 4.0, size=n)
            if k % 4 == 0:
                theta = np.full(n, theta[0])
            q = 10.0 ** rng.uniform(-3.0, 12.0) * rng.uniform(0.0, 1.0, size=n)
            u = make_utility("LogSCPM", n_outcomes=n, theta=theta)
            res = solve_t(u, q)
            ref = solve_t(no_level(u), q)
            scale = max(1.0, abs(ref.cost))
            assert abs(solve_t(u, q + 7.0).cost - res.cost - 7.0) <= 1e-9 * scale
            assert abs(res.cost - ref.cost) <= 1e-12 * scale
            np.testing.assert_allclose(res.prices, ref.prices, rtol=0.0, atol=1e-9)

    def test_wrong_level_fails_price_check(self):
        # A level's prices are grad(u) at the level, so the price-sum check
        # is its certificate: a level 0.5 too high lowers each of QuadSCPM's
        # prices at b = 1 by 0.25, to a sum of 0.4 here, and must raise.
        class Shifted(QuadSCPM):
            def _level(self, q, w, total):
                return super()._level(q, w, total) + 0.5

        u = Shifted(n_outcomes=3)
        with pytest.raises(SolverError, match="off the simplex"):
            solve_t(u, np.array([0.3, 1.2, 0.8]))

    @pytest.mark.parametrize("kind", ["ExponentialSCPM", "QuadSCPM"])
    def test_closed_form_at_large_q(self, kind):
        # Unshifted, the float spacing of a level near 1e9 (1.2e-7) alone
        # breaks the 1e-8 certificate on e' grad(u).
        u = make_utility(kind, n_outcomes=3)
        q = 1e9 * np.array([1.0, 0.5, 0.0])
        res = solve_t(u, q)
        ref = solve_t(u, q - q.max())
        assert res.path == "closed"
        np.testing.assert_array_equal(res.prices, ref.prices)
        assert res.cost == ref.cost + q.max()
        assert res.t_star == ref.t_star + q.max()

    def test_quadratic_score_price_sum_at_large_q(self):
        # Prices near +-2.5e8 sum to 1 only up to their own rounding (3e-8),
        # so the simplex check must scale with sum |p_i|.
        u = make_utility("QuadraticScore", b=1.0, n_outcomes=3)
        q = 1e9 * np.array([1.0, 0.5, 0.0])
        res = solve_t(u, q)
        np.testing.assert_allclose(res.prices, 1.0 / 3.0 + (q - q.mean()) / 2.0, rtol=1e-12)

    def test_flat_user_utility_takes_flat_path(self):
        # A subclass that does not declare price_level_invariant still has
        # a flat objective when its gradient sums to 1: the root path
        # detects it and returns the level max(q) with cost c'q.
        c = np.array([0.5, 0.3, 0.2])
        q = np.array([1.0, 4.0, 2.5])
        res = solve_t(LinearUtility(c), q)
        assert res.path == "flat"
        assert res.t_star == 4.0
        np.testing.assert_array_equal(res.prices, c)
        assert res.cost == pytest.approx(c @ q, rel=1e-15)

    def test_flat_objective_found_at_large_n(self):
        # 1 - e' grad(u) carries rounding of about N eps max|p_i|, about 5e-12
        # here, so the flat test scales with sum |p_i|; the same q and b
        # still take the root path for a kind whose objective is sloped.
        rng = np.random.default_rng(5)
        n = 1024
        for _ in range(20):
            q = rng.uniform(0.0, 4.0, size=n)
            b = 10.0 ** rng.uniform(-2.0, 2.0)
            q = b * q
            q -= q.max()
            flat = no_level(make_utility("QuadraticScore", b=b, n_outcomes=n))
            assert Utility._kernel(flat, q)[3] == "flat"
            sloped = no_level(make_utility("ExponentialSCPM", b=b, n_outcomes=n))
            assert Utility._kernel(sloped, q)[3] == "root"

    def test_solve_path_recorded(self):
        q = np.array([0.3, 1.2, 0.8])
        paths = {kind: solve_t(make_utility(kind, n_outcomes=3), q).path for kind in KINDS}
        assert paths == {"LMSR": "flat", "QuadraticScore": "flat", "MinSCPM": "flat",
                         "ExponentialSCPM": "closed", "QuadSCPM": "closed", "LogSCPM": "closed"}
        assert solve_t(no_level(make_utility("LogSCPM", n_outcomes=3)), q).path == "root"

    @pytest.mark.parametrize("n", [2, 3, 1024])
    def test_lmsr_agrees_with_analysis_closed_forms(self, n):
        from scpm.analysis import _lmsr_closed_forms

        b = 1.3
        costf, pricef = _lmsr_closed_forms(b, n)
        u = make_utility("LMSR", b=b, n_outcomes=n)
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 30.0):
            q = rng.uniform(0.0, scale, size=n)
            res = solve_t(u, q)
            assert res.cost == pytest.approx(costf(q), rel=1e-12)
            np.testing.assert_allclose(res.prices, pricef(q), rtol=0.0, atol=1e-12)

    def test_log_example(self):
        # theta = (1,1), q = 0: stationarity 2/t = 1 gives t = 2
        u = make_utility("LogSCPM", n_outcomes=2)
        res = solve_t(u, np.zeros(2))
        assert res.t_star == pytest.approx(2.0, abs=1e-9)
        assert res.cost == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-9)


class TestKernels:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 1024])
    def test_kernel_is_value_and_grad_at_the_level(self, kind, n):
        # Each kind's kernel computes C and the prices in one pass; they must
        # be the bytes of t - u(t - q) and grad(u)(t - q) at its level, and
        # the level that of the generic kernel (the kind's withdrawal, or
        # the root path's 0 where the objective is flat).  ExponentialSCPM's
        # kernel is LMSR's market, not its own u: its level is C, where u
        # is 0 up to the rounding of C, and its prices are the bytes of
        # LMSR's with theta = e.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(n)
        u0 = make_utility(kind, n_outcomes=n)
        thetas = [None]
        if u0.takes_theta:
            theta = rng.uniform(0.2, 2.0, size=n)
            thetas.append(theta / theta.sum() if kind == "QuadSCPM" else theta)
        for theta in thetas:
            for _ in range(10):
                b = 10.0 ** rng.uniform(-2.0, 2.0)
                u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
                q = b * rng.uniform(0.0, 4.0, size=n)
                q -= q.max()
                t, c, p, path, iterations = u._kernel(q)
                s = t - q
                gt, gc, gp, gpath, _ = Utility._kernel(u, q)
                if kind == "ExponentialSCPM":
                    assert c == t
                    assert abs(u.value(s)) <= 4.0 * b * eps
                    lmsr = make_utility("LMSR", b=b, n_outcomes=n)
                    np.testing.assert_array_equal(p, lmsr._kernel(q)[2])
                    assert path == gpath
                    assert t == pytest.approx(gt, rel=1e-12, abs=1e-12 * b)
                else:
                    assert c == t - u.value(s)
                    np.testing.assert_array_equal(p, u.grad(s))
                    if path != "flat":
                        assert (t, path) == (gt, gpath)
                assert c == pytest.approx(gc, rel=1e-12, abs=1e-12 * b)
                np.testing.assert_allclose(p, gp, rtol=0.0, atol=1e-12)
                # The root path, without the kind's level, finds the same C,
                # and finds a flat objective flat.
                _, rc, rp, rpath, _ = Utility._kernel(no_level(u), q)
                assert rpath == ("flat" if path == "flat" else "root")
                assert rc == pytest.approx(c, rel=1e-9, abs=1e-9 * b)
                np.testing.assert_allclose(rp, p, rtol=0.0, atol=1e-8)

    def test_log_level_newton_ends_on_the_root(self):
        # LogSCPM's level is Newton from below the root.  Over theta across
        # twelve decades, spreads of q up to 1e12, totals down to 1e-12, N up
        # to 1024 and random S it takes a few passes and ends on the root: no
        # float neighbour does better beyond the residual's own rounding
        # (within 2 eps * total per evaluation), and with max_S q = 0 one
        # float step moves the residual by at most about eps * total.  S's
        # entries go in as Utility hands them, lists below SMALL_N states.
        rng = np.random.default_rng(80001)
        eps = np.finfo(float).eps
        for _ in range(200):
            n = int(rng.choice([2, 3, 10, 100, 1024]))
            theta = 10.0 ** rng.uniform(-6.0, 6.0, n)
            q = -10.0 ** rng.uniform(-3.0, 12.0) * rng.uniform(0.0, 1.0, n)
            total = 10.0 ** rng.uniform(-12.0, 0.0)
            inside = rng.uniform(size=n) < 0.5 if rng.uniform() < 0.5 else np.ones(n, bool)
            inside[rng.integers(n)] = True
            q -= q[inside].max()
            entries = q[inside], theta[inside]
            if n < SMALL_N:
                entries = [x.tolist() for x in entries]
            tau, passes = _newton(*entries, total)
            assert 1 <= passes <= 16

            def residual(t):
                return abs(math.fsum((theta[inside] / (t - q[inside])).tolist()) - total)

            neighbours = (np.nextafter(tau, -np.inf), np.nextafter(tau, np.inf))
            assert residual(tau) <= min(map(residual, neighbours)) + 4.0 * eps * total
            assert residual(tau) <= 8.0 * eps * total

    def test_log_newton_in_python_floats_matches_numpy_scalars(self):
        # _newton runs tau and its step in Python floats, and its sums too
        # over lists.  The loop it replaced, on numpy scalars and arrays, is
        # kept here as the reference: the same IEEE operations in the same
        # order give the same tau and passes.  The array form is checked on
        # every draw, the list form where S has fewer than eight entries,
        # which np.add.reduce adds left to right as the list sums do.
        def forms(u, q, inside, total):
            q, theta = q[inside], u.theta[inside]
            arrays = _newton(q, theta, total)
            if q.size >= SMALL_N:
                return arrays, arrays
            return arrays, _newton(q.tolist(), theta.tolist(), total)

        def numpy_scalar_level(u, q, inside, total):
            q, theta = q[inside], u.theta[inside]
            j = int(np.argmax(q))
            tau = max(q[j] + theta[j] / total, math.nextafter(q[j], math.inf))
            for passes in range(1, MAX_ITER + 1):
                d = tau - q
                r = theta / d
                s1 = r.sum()
                step = s1 * (s1 - total) / (total * (r / d).sum())
                if not tau + step > tau:
                    break
                tau += step
            return float(tau), passes

        rng = np.random.default_rng(80002)
        for _ in range(3000):
            n = int(rng.choice([2, 3, 5, 7, 10, 100, 1024]))
            u = make_utility("LogSCPM", n_outcomes=n, theta=10.0 ** rng.uniform(-6.0, 6.0, n))
            q = -10.0 ** rng.uniform(-3.0, 12.0) * rng.uniform(0.0, 1.0, n)
            total = 10.0 ** rng.uniform(-12.0, 0.0)
            inside = rng.uniform(size=n) < 0.5 if rng.uniform() < 0.5 else np.ones(n, bool)
            inside[rng.integers(n)] = True
            q -= q[inside].max()
            reference = numpy_scalar_level(u, q, inside, total)
            for tau, passes in forms(u, q, inside, total):
                assert type(tau) is float
                assert (tau, passes) == reference
        # Where a numpy scalar overflows or divides by zero, the Python floats
        # reach the same inf: a start past the float range, and a sum of
        # theta/d^2 that underflows to 0 below the root (one step to inf).
        corners = [([1e300, 1.0], [0.0, -1.0], [True, False], 1e-16, (math.inf, 1)),
                   ([1.0, 1.0], [0.0, -1.0], [True, True], 1e-110, (math.inf, 2))]
        for theta, q, inside, total, expected in corners:
            u = make_utility("LogSCPM", n_outcomes=2, theta=theta)
            args = (np.array(q), np.array(inside), total)
            with np.errstate(all="ignore"):
                assert numpy_scalar_level(u, *args) == expected
                assert forms(u, *args) == (expected, expected)

    def test_small_sums_add_left_to_right_below_eight(self):
        # _newton's Python sums stand in for np.add.reduce below eight
        # entries because numpy adds so few left to right from 0.0; from
        # eight on it adds in blocks, and the two part on some draws.  A numpy
        # that changes its small-sum order fails here, not in a digest.
        def left_to_right(x):
            total = 0.0
            for v in x.tolist():
                total += v
            return total

        rng = np.random.default_rng(82112)
        for n in range(2, 9):
            same = [left_to_right(x) == float(np.add.reduce(x))
                    for x in 10.0 ** rng.uniform(-6.0, 6.0, (2000, n))]
            assert all(same) if n < 8 else not all(same), n


def reduce_calls(fn, *args):
    """fn(*args) and the number of ufunc reduce calls it made, as a profile
    hook sees them: q.max() and q.sum() call one each, np.add.reduce one,
    and q.argmax() and p.dot(w) none."""
    calls = []

    def hook(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "reduce":
            calls.append(arg)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(previous)
    return out, len(calls)


class TestReduceCalls:
    # The order path reads extremes by argmin/argmax, not by a ufunc
    # reduction, and makes only the sums that set output bits.  The counts
    # are exact, so a reduction back on the path shows.
    def test_hook_counts_reductions(self):
        q = np.array([1.0, 3.0, 2.0])
        assert reduce_calls(lambda: (q.max(), q.sum(), np.add.reduce(q)))[1] == 3
        assert reduce_calls(lambda: (q[q.argmax()], q.dot(q)))[1] == 0

    def test_solve_t_checks_and_order_make_none(self):
        u = FixedPrices([0.5, 0.25, 0.25])
        assert reduce_calls(solve_t, u, np.array([3.0, -1.0, 2.0]))[1] == 0
        assert reduce_calls(solve_t, FixedPrices([0.5, 0.5, -1e-12]), np.zeros(3))[1] == 0
        config, n = reduce_calls(MarketConfig, u, "integral", [1.0, 0.0, 2.0])
        assert n == 0
        assert reduce_calls(Order, "t", 0.5, 1.0, np.array([1.0, 0.0, 1.0]))[1] == 0
        assert reduce_calls(quote, new_market(config), np.array([1.0, 0.0, 1.0])) == (0.75, 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kernel_reductions_at_n3(self, kind):
        # The sums of C and the prices: two for LMSR and for ExponentialSCPM,
        # whose kernel is LMSR's (the price sum, and the expm1 sum of the
        # log1p form that this q takes; a plain log reads the price sum
        # alone), none for MinSCPM, none for QuadraticScore and QuadSCPM,
        # whose kernels add in Python floats below SMALL_N states, and for
        # LogSCPM its kernel's sum alone: at N = 3 the Newton level adds its
        # sums in Python floats, and _as_alloc reads s > 0 at argmin.
        u = make_utility(kind, n_outcomes=3)
        n = reduce_calls(solve_t, u, np.array([0.3, 1.2, 0.8]))[1]
        expected = {"LMSR": 2, "ExponentialSCPM": 2, "QuadraticScore": 0, "QuadSCPM": 0,
                    "MinSCPM": 0, "LogSCPM": 1}
        assert n == expected[kind]

    def test_lse_level_is_logsumexp_of_one_row(self):
        # The reference: logsumexp shifted by a maximum taken by a reduction.
        def logsumexp(z):
            m = z.max(axis=-1)
            return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))

        rng = np.random.default_rng(81740)
        for _ in range(200):
            n = int(rng.choice([2, 3, 10, 1024]))
            b = 10.0 ** rng.uniform(-3.0, 3.0)
            z = rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.uniform(-6.0, 0.0)
            total = 10.0 ** rng.uniform(-12.0, 0.0)
            assert _lse_level(b, z, total) == float(b * (logsumexp(z) - math.log(total)))


def small_draws(kind, seed, count):
    """Seeded markets below SMALL_N states for the small forms: N from 2 to
    7, b in {1e-3, 1, 1e3}, the default prior or, for QuadSCPM and LogSCPM,
    a random one (for QuadSCPM one with a zero weight too, for LogSCPM one
    spread over four decades), and q on a half-b grid (ties, with -0.0
    for some zeros) or spread over 8b, wide enough that QuadSCPM clamps
    states.  Yields the generator too, for each test's own draws."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, SMALL_N))
        b = float(rng.choice([1e-3, 1.0, 1e3]))
        theta, draw = None, rng.uniform()
        if kind == "QuadSCPM" and draw < 2.0 / 3.0:
            theta = rng.dirichlet(np.ones(n))
            if draw < 1.0 / 3.0:
                theta[rng.integers(n)] = 0.0
                theta /= theta.sum()
        elif kind == "LogSCPM" and draw < 0.5:
            theta = 10.0 ** rng.uniform(-2.0, 2.0, n)
        u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
        if rng.uniform() < 0.5:
            q = b * rng.integers(-4, 1, n) / 2.0
            q[(q == 0.0) & (rng.uniform(size=n) < 0.5)] = -0.0
        else:
            q = b * rng.uniform(-8.0, 0.0, n)
        yield rng, u, q


def bits(*xs):
    return [np.asarray(x, dtype=float).tobytes() for x in xs]


class TestSmallForms:
    # Below SMALL_N states the levels, QuadSCPM's and QuadraticScore's
    # kernels and the base fill hook run over Python floats.  Each must give
    # the bytes of its array form at the same N, which runs with SMALL_N at
    # 0, or which a level takes from arrays of the same entries.
    @staticmethod
    def both_forms(monkeypatch, fn):
        small = fn()
        with monkeypatch.context() as m:
            m.setattr(utilities, "SMALL_N", 0)
            return small, fn()

    @staticmethod
    def both_levels(u, q, inside, total):
        """u._level over S's entries of q and _w, as lists and as arrays."""
        q, w = q[inside], u._w[inside]
        return u._level(q.tolist(), w.tolist(), total), u._level(q, w, total)

    def test_quad_level_is_the_array_level(self):
        for rng, u, q in small_draws("QuadSCPM", 82397, 1500):
            inside = rng.uniform(size=u.n) < 0.5
            inside[rng.integers(u.n)] = True
            inside = slice(None) if rng.uniform() < 0.3 else inside
            total = 1.0 if rng.uniform() < 0.3 else 10.0 ** rng.uniform(-6.0, 0.0)
            small, array = self.both_levels(u, q, inside, total)
            assert type(small) is float
            assert bits(small) == bits(array)

    def test_log_array_level_on_a_small_set_is_the_list_level(self):
        # From SMALL_N states LogSCPM's level takes arrays whatever |S|;
        # below eight entries np.add.reduce adds them left to right, as the
        # list sums do, so a set of fewer than SMALL_N states gives the list
        # level's bits (and passes).
        rng = np.random.default_rng(82451)
        for _ in range(1500):
            theta = 10.0 ** rng.uniform(-2.0, 2.0, SMALL_N) if rng.uniform() < 0.5 else None
            u = make_utility("LogSCPM", n_outcomes=SMALL_N, theta=theta)
            if rng.uniform() < 0.5:
                q = rng.integers(-4, 1, SMALL_N) / 2.0
            else:
                q = -10.0 ** rng.uniform(-3.0, 6.0) * rng.uniform(0.0, 1.0, SMALL_N)
            q = q - q[q.argmax()]
            inside = rng.permutation(SMALL_N) < rng.integers(1, SMALL_N)
            total = 1.0 if rng.uniform() < 0.3 else 10.0 ** rng.uniform(-6.0, 0.0)
            small, array = self.both_levels(u, q, inside, total)
            assert type(small) is type(array) is float
            assert bits(small) == bits(array)
            lists = (q[inside].tolist(), u._w[inside].tolist())
            assert _newton(*lists, total) == _newton(q[inside], u._w[inside], total)

    @pytest.mark.parametrize("kind", ["LMSR", "ExponentialSCPM"])
    def test_lmsr_fallback_level_over_lists_is_the_array_level(self, monkeypatch, kind):
        # Where p_A or p_B underflows, the LMSR family's hook falls back on
        # the base's levels, which take lists below SMALL_N states; the
        # level computes in numpy all the same.  q spreads over 300 b to 1e4
        # b, past exp's underflow at -745 b, so the hook's fallback runs too.
        rng = np.random.default_rng(82452)
        fallbacks = 0
        for _ in range(1500):
            n = int(rng.integers(2, SMALL_N))
            b = float(rng.choice([1e-3, 1.0, 1e3]))
            theta = 10.0 ** rng.uniform(-2.0, 2.0, n) if kind == "LMSR" and rng.uniform() < 0.5 else None
            u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
            q = -b * 10.0 ** rng.uniform(2.5, 4.0) * rng.uniform(0.0, 1.0, n)
            q = q - q[q.argmax()]
            a = (rng.uniform(size=n) < 0.5).astype(float)
            a[rng.integers(n)] = 1.0
            total = 10.0 ** rng.uniform(-6.0, 0.0)
            for inside in (a == 1.0, a == 0.0, slice(None)):
                if np.any(q[inside] == q[inside]):
                    small, array = self.both_levels(u, q, inside, total)
                    assert type(small) is type(array) is float
                    assert bits(small) == bits(array)
            before = solve_t(u, q)
            p_a = float(before.prices.dot(a))
            if a.all() or not p_a < 0.5:
                continue
            fallbacks += 0.5 * p_a < utilities._MIN_NORMAL
            small, array = self.both_forms(
                monkeypatch, lambda: u.solve_fill(q, a, 0.5, before, p_a))
            assert bits(small) == bits(array)
        assert fallbacks >= 100, fallbacks

    @pytest.mark.parametrize("kind, seed", [("QuadSCPM", 82398), ("QuadraticScore", 82399)])
    def test_kernel_is_the_array_kernel(self, monkeypatch, kind, seed):
        for _, u, q in small_draws(kind, seed, 1500):
            q = q - q[q.argmax()]
            small, array = self.both_forms(monkeypatch, lambda: u._kernel(q))
            assert type(small[2]) is np.ndarray
            assert bits(*small[:3]) == bits(*array[:3])
            assert small[3:] == array[3:]

    @pytest.mark.parametrize("kind, seed", [("QuadSCPM", 82400), ("LogSCPM", 82439),
                                            ("MinSCPM", 82440)])
    def test_hook_is_the_array_hook(self, monkeypatch, kind, seed):
        # The base hook's one split over lists and the kind's list level
        # against _split and the array levels, on 0/1 bundles, on a bundle
        # with a 1/2 entry and at pi = 1 (both None).
        ends = 0
        for rng, u, q in small_draws(kind, seed, 1500):
            q = q + u.b * rng.uniform(0.0, 3.0)
            a = (rng.uniform(size=u.n) < 0.5).astype(float)
            a[rng.integers(u.n)] = 1.0
            if rng.uniform() < 0.05:
                a[rng.integers(u.n)] = 0.5
            before = solve_t(u, q)
            p_a = float(before.prices.dot(a))
            pi = 1.0 if rng.uniform() < 0.05 else p_a + rng.uniform(0.01, 0.99) * (1.0 - p_a)
            small, array = self.both_forms(
                monkeypatch, lambda: u.solve_fill(q, a, pi, before, p_a))
            if small is None:
                assert array is None
                continue
            assert type(small) is float
            assert bits(small) == bits(array)
            ends += 1
        assert ends >= 500, ends

    @pytest.mark.parametrize("kind", ["QuadraticScore", "QuadSCPM"])
    def test_forms_switch_at_eight_states(self, monkeypatch, kind):
        # N = 7 runs the list forms, whose sums are no ufunc reductions, and
        # N = 8 the array forms' two sums; likewise QuadSCPM's level, which
        # takes lists at N = 7 and arrays at N = 8, in the withdrawal and on
        # each side of the hook.
        forms = []
        level = QuadSCPM._level
        monkeypatch.setattr(QuadSCPM, "_level", lambda self, q, *args: forms.append(
            (self.n, type(q))) or level(self, q, *args))
        for n, sums in ((SMALL_N - 1, 0), (SMALL_N, 2)):
            u = make_utility(kind, n_outcomes=n)
            q = np.linspace(0.0, 1.0, n)
            before, count = reduce_calls(solve_t, u, q)
            assert count == sums
            a = np.zeros(n)
            a[0] = 1.0
            u.solve_fill(q, a, 0.5, before, float(before.prices[0]))
        expected = [(SMALL_N - 1, list)] * 3 + [(SMALL_N, np.ndarray)] * 3
        assert forms == (expected if kind == "QuadSCPM" else [])


def lse_reference(b, weights, divisor, q):
    """b log(sum_i w_i exp(q_i/b) / divisor) to 50 digits, the float
    weights, b and q taken as given."""
    with mpmath.workdps(50):
        b = mpmath.mpf(b)
        total = mpmath.fsum(mpmath.mpf(w) * mpmath.exp(mpmath.mpf(x) / b)
                            for w, x in zip(weights.tolist(), q.tolist()))
        return b * mpmath.log(total / divisor)


def shifted_lse_cost(b, theta, q):
    """LMSR's cost as its kernel took it before the log1p form: b (m + log
    sum exp(z - m)) at z = (q - max q)/b + log theta, m = max z."""
    z = (q - q.max()) / b + np.log(theta)
    m = z.max()
    return float(b * (m + np.log(np.exp(z - m).sum())) + q.max())


class TestLogSumExpAccuracy:
    def test_cost_within_ulps_of_mpmath(self):
        # LMSR and ExponentialSCPM take C from one log-sum-exp in log1p form
        # near q = 0, so C keeps its digits where |q| << b: within 8 ulps of
        # max(|C|, max|q|), where a shifted LSE cancels to an absolute
        # rounding of about b eps.  A prior spread over eight decades is
        # checked against that shifted LSE: no less accurate than it.
        rng = np.random.default_rng(82011)
        errors = {"spread": [], "shifted": []}
        for n in (3, 50, 1024):
            ones = np.ones(n)
            for b in (1.0, 1e3, 5e5):
                spread = 10.0 ** rng.uniform(-4.0, 4.0, n)
                cases = [("ExponentialSCPM", None, ones, n), ("LMSR", None, ones, 1),
                         ("LMSR", ones / n, ones / n, 1), ("LMSR", spread, spread, 1)]
                for kind, theta, weights, divisor in cases:
                    u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
                    for k in range(4 if n == 1024 else 12):
                        if k % 2:
                            q = 30.0 * b * 10.0 ** rng.uniform(-3.0, 0.0) * rng.uniform(-1, 1, n)
                        else:
                            q = 1e-3 * rng.uniform(-1.0, 1.0, n)
                        ref = lse_reference(b, weights, divisor, q)
                        ulp = np.spacing(max(abs(float(ref)), np.abs(q).max()))
                        error = float(abs(cost(u, q) - ref)) / ulp
                        assert error <= 8.0, (kind, theta is not None, n, b, k, error)
                        if theta is spread:
                            errors["spread"].append(error)
                            errors["shifted"].append(
                                float(abs(shifted_lse_cost(b, theta, q) - ref)) / ulp)
        assert max(errors["spread"]) <= max(errors["shifted"])


@st.composite
def chords(draw):
    # A chord q - d, q, q + d: b over twelve decades, N up to 50, and q and
    # the direction d each of any length up to 1e12 and any sign pattern.
    n = draw(st.sampled_from([2, 3, 10, 50]))
    b = 10.0 ** draw(st.floats(-6.0, 6.0))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    q = 10.0 ** draw(st.floats(-6.0, 12.0)) * draw(unit)
    d = 10.0 ** draw(st.floats(-6.0, 12.0)) * draw(unit)
    return b, n, q, d


class TestCostProperties:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(chords())
    def test_cost_is_convex_along_chords(self, kind, case):
        # C at the midpoint is at most the mean of C at the ends, within the
        # rounding of the three solves: 8 ulps of the largest |C| or |q|.
        b, n, q, d = case
        u = make_utility(kind, b=b, n_outcomes=n)
        lo, mid, hi = (cost(u, v) for v in (q - d, q, q + d))
        scale = max(abs(lo), abs(mid), abs(hi), np.abs(q).max() + np.abs(d).max())
        assert mid <= 0.5 * (lo + hi) + 8.0 * np.spacing(scale), (kind, b, q, d)

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "QuadraticScore"])
    def test_cost_monotone_in_q(self, kind):
        u = make_utility(kind, b=1.0, n_outcomes=3)
        rng = np.random.default_rng(9)
        for _ in range(50):
            q = random_q(rng, 3)
            dq = rng.uniform(0.0, 1.0, size=3)
            assert cost(u, q + dq) >= cost(u, q) - 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_prices_are_cost_gradient(self, kind):
        from scpm.oracle import finite_diff_gradient

        u = make_utility(kind, b=1.0, n_outcomes=3)
        rng = np.random.default_rng(13)
        for _ in range(10):
            q = random_q(rng, 3) + np.arange(3) * 0.37  # stay off Min kinks
            p = prices(u, q)
            p_fd = finite_diff_gradient(lambda v: cost(u, v), q, h=1e-6)
            np.testing.assert_allclose(p, p_fd, atol=1e-5)

    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exponential_is_uniform_lmsr_up_to_constant(self, n, b):
        # b(1 - mean exp(-s/b)) withdraws at b log mean exp(q/b): LMSR's
        # cost less b log N, with the same softmax prices, byte for byte.
        ex = make_utility("ExponentialSCPM", b=b, n_outcomes=n)
        lmsr = make_utility("LMSR", b=b, n_outcomes=n)
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 30.0):
            for _ in range(10):
                q = b * rng.uniform(-scale, scale, size=n)
                got, ref = solve_t(ex, q), solve_t(lmsr, q)
                assert got.prices.tobytes() == ref.prices.tobytes()
                assert abs(got.cost - (ref.cost - b * math.log(n))) <= 1e-12 * max(
                    1.0, np.abs(q).max())

    def test_lmsr_cost_at_origin(self):
        u = make_utility("LMSR", b=1.0, n_outcomes=2)
        assert cost(u, np.zeros(2)) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_min_cost_is_max_component(self):
        u = make_utility("MinSCPM", n_outcomes=3)
        rng = np.random.default_rng(17)
        for _ in range(50):
            q = random_q(rng, 3)
            assert cost(u, q) == pytest.approx(q.max(), abs=1e-12)

    def test_quadratic_prices_can_leave_unit_box(self):
        u = make_utility("QuadraticScore", b=1.0, n_outcomes=2)
        assert not u.monotone
        q = np.array([10.0, 0.0])
        p = prices(u, q)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.min() < 0.0
        # Not monotone: solve_t neither rejects nor clamps the kernel's prices.
        assert p.tobytes() == u._kernel(q - q.max())[2].tobytes()


@st.composite
def large_markets(draw):
    # N = 50, b over twelve decades, and q below 1e12 spread over any
    # decade up to its own size: wide spreads put every price but one near
    # 0, narrow ones at large q leave differences of a few float spacings.
    kind = draw(st.sampled_from([k for k in KINDS if k != "QuadraticScore"]))
    b = 10.0 ** draw(st.floats(-6.0, 6.0))
    top = draw(st.floats(-6.0, 12.0))
    spread = 10.0 ** draw(st.floats(-6.0, top))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return make_utility(kind, b=b, n_outcomes=50), 10.0 ** top - spread * rng.uniform(size=50)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(large_markets())
def test_prices_on_simplex_at_large_n(case):
    u, q = case
    p = solve_t(u, q).prices
    assert abs(p.sum() - 1.0) <= PRICE_SUM_OK * max(1.0, float(np.abs(p).sum()))
    assert np.all((0.0 <= p) & (p <= 1.0))


@st.composite
def uniform_shifts(draw):
    # b over twelve decades, N up to 50, and q and c each of any length up
    # to 1e12.  Both are then rounded to the float spacing u of twice their
    # largest magnitude: every q_i + c is then a multiple of u below
    # 2^53 u, so the shift is exact and any difference is the engine's.
    n = draw(st.sampled_from([2, 3, 10, 50]))
    b = 10.0 ** draw(st.floats(-6.0, 6.0))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    q = 10.0 ** draw(st.floats(-6.0, 12.0)) * draw(unit)
    c = 10.0 ** draw(st.floats(-6.0, 12.0)) * draw(st.floats(-1.0, 1.0))
    u = np.spacing(2.0 * max(np.abs(q).max(), abs(c)))
    return b, np.rint(q / u) * u, float(np.rint(c / u) * u)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(uniform_shifts())
def test_translation_invariance(kind, case):
    # C(q + c e) = C(q) + c and p(q + c e) = p(q).  The solve shifts q to
    # max 0, which an exact shift leaves bit for bit: the prices agree
    # exactly, and C within the rounding of adding max(q) back, 4 ulps of
    # the largest |C|, |c| or |q|.
    b, q, c = case
    u = make_utility(kind, b=b, n_outcomes=q.size)
    at, shifted = solve_t(u, q), solve_t(u, q + c)
    scale = max(abs(at.cost), abs(c), np.abs(q).max())
    assert abs(shifted.cost - (at.cost + c)) <= 4.0 * np.spacing(scale), (kind, b, q, c)
    np.testing.assert_array_equal(shifted.prices, at.prices)


class TestCharge:
    def test_zero_fill_costs_nothing(self):
        u = make_utility("LMSR", n_outcomes=2)
        assert charge(u, np.zeros(2), np.array([1.0, 0.0]), 0.0) == 0.0

    def test_negative_fill_rejected(self):
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError, match="nonnegative"):
            charge(u, np.zeros(2), np.array([1.0, 0.0]), -1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
    def test_non_finite_fill_rejected(self, x):
        # An infinite x made q + a x nan where a_i = 0, with numpy's
        # "invalid value" warning first; a nan x passed the sign test.
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError, match="fill quantity must be nonnegative and finite"):
            charge(u, np.zeros(2), np.array([1.0, 0.0]), x)

    def test_bad_bundle_rejected(self):
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError, match="bundle"):
            charge(u, np.zeros(2), np.array([-1.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="bundle"):
            charge(u, np.zeros(2), np.zeros(2), 1.0)

    def test_charge_additive_along_path(self):
        u = make_utility("ExponentialSCPM", b=1.0, n_outcomes=3)
        q = np.array([0.2, 0.9, 0.1])
        a = np.array([1.0, 0.0, 1.0])
        whole = charge(u, q, a, 2.0)
        split = charge(u, q, a, 0.75) + charge(u, q + 0.75 * a, a, 1.25)
        assert whole == pytest.approx(split, abs=1e-10)

    def test_full_bundle_charges_face_value(self):
        # buying the all-ones bundle moves every utility's cost by exactly x
        a = np.ones(3)
        rng = np.random.default_rng(23)
        for kind in KINDS:
            u = make_utility(kind, b=1.0, n_outcomes=3)
            q = random_q(rng, 3)
            assert charge(u, q, a, 1.5) == pytest.approx(1.5, abs=1e-8)


class TestBracketedRoot:
    def test_affine_root_closes_in_two_probes(self):
        # False position lands on the root of an affine f; the tol/2 guard
        # then closes the bracket with one more probe instead of stalling.
        root = 0.3
        lo, probes = bracketed_root(lambda x: x - root, 0.0, 1.0, -root, 1.0 - root, 1e-9)
        assert lo <= root < lo + 1e-9
        assert probes <= 2

    @pytest.mark.parametrize("step", [0.0, 1e-3, 0.37, 1.0 - 1e-6])
    def test_step_function_returns_low_end(self, step):
        def f(x):
            return -0.25 if x <= step else 0.75

        tol = 1e-9
        lo, probes = bracketed_root(f, 0.0, 1.0, f(0.0), 0.75, tol)
        assert f(lo) <= 0.0 < f(lo + tol)
        assert probes <= 4 * math.ceil(math.log2(1.0 / tol))

    def test_infinite_end_value_bisects(self):
        # An overflowed end value gives no secant (false position would
        # probe NaN); bisection steps run until both ends are finite.
        def f(x):
            return -math.inf if x < 0.1 else x - 0.3

        lo, _ = bracketed_root(f, 0.0, 1.0, -math.inf, 0.7, 1e-12)
        assert lo == pytest.approx(0.3, abs=1e-12)


    def test_one_step_bracket_takes_no_probe(self):
        # A bracket made by one float step of tol from either end is as
        # narrow as tol, though hi - lo may round to more than tol.
        def f(x):
            raise AssertionError(f"probed {x}")

        rng = np.random.default_rng(82261)
        for x in rng.uniform(1.0, 50.0, 2000).tolist():
            tol = 1e-9 * x
            assert bracketed_root(f, x, x + tol, -1.0, 1.0, tol) == (x, 0)
            assert bracketed_root(f, x - tol, x, -1.0, 1.0, tol) == (x - tol, 0)


class TestExpandBracket:
    def test_end_left_behind_becomes_other_end(self):
        probes = []

        def f(x):
            probes.append(x)
            return x - 10.5

        # hi moves by 1, 2, 4, 8 from 1: 2, 4, 8, 16; lo follows it.
        assert expand_bracket(f, 0.0, 1.0, f(0.0), f(1.0)) == (8.0, 16.0, -2.5, 5.5)
        assert probes == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
        # lo moves down from -1 to -2, -4, -8, -16 and hi follows it.
        assert expand_bracket(lambda x: x + 10.5, -1.0, 0.0, 9.5, 10.5) == (-16.0, -8.0, -5.5, 2.5)

    def test_bracket_already_valid_is_returned(self):
        assert expand_bracket(lambda x: 1 / 0, -1.0, 1.0, -1.0, 1.0) == (-1.0, 1.0, -1.0, 1.0)

    def test_stops_at_floor(self):
        probes = []

        def f(x):
            probes.append(x)
            return 1.0

        assert expand_bracket(f, 0.5, 1.0, 1.0, 1.0, floor=-2.0) is None
        # 0.5 - 1 = -0.5, -0.5 - 2 = -2.5 is clamped to the floor, then no
        # step is left below it
        assert probes == [-0.5, -2.0]

    def test_stops_at_ceiling(self):
        probes = []

        def f(x):
            probes.append(x)
            return x - 10.5

        # hi doubles from 1 to 2, 4, 8, then is clamped to the ceiling 12,
        # which closes the bracket; with the ceiling below the root no step
        # is left above it.
        assert expand_bracket(f, 0.0, 1.0, -10.5, -9.5, ceiling=12.0) == (8.0, 12.0, -2.5, 1.5)
        assert probes == [2.0, 4.0, 8.0, 12.0]
        assert expand_bracket(f, 0.0, 1.0, -10.5, -9.5, ceiling=6.0) is None
        assert probes[4:] == [2.0, 4.0, 6.0]

    def test_first_step_then_doubling_from_one(self):
        probes = []

        def f(x):
            probes.append(x)
            return x - 10.5

        # From the point [0.25, 0.25]: a first step of 0.25, then 1, 2, 4, 8.
        assert expand_bracket(f, 0.25, 0.25, -10.25, -10.25, step=0.25) == (7.5, 15.5, -3.0, 5.0)
        assert probes == [0.5, 1.5, 3.5, 7.5, 15.5]
        # A first step past 1 doubles from itself; lo steps down to the floor.
        assert expand_bracket(lambda x: x - 0.5, 12.0, 12.0, 11.5, 11.5, floor=0.0,
                              step=3.0) == (0.0, 3.0, -0.5, 2.5)

    def test_stops_at_cap(self):
        probes = []

        def f(x):
            probes.append(x)
            return -1.0

        # The cap below a finite ceiling is its binary exponent + 2: 24 =
        # 0.75 * 2**5 caps the steps at 7, which from -1000 stay below it.
        assert expand_bracket(f, -1e3, -1e3, -1.0, -1.0, ceiling=24.0) is None
        assert probes == [-999.0, -997.0, -993.0, -985.0, -969.0, -937.0, -873.0]
        # Below an infinite ceiling, MAX_EXPAND steps.
        probes.clear()
        assert expand_bracket(f, 0.0, 1.0, -1.0, -1.0) is None
        assert probes == [2.0 ** k for k in range(1, MAX_EXPAND + 1)]


class TestWhole:
    """One count rule (cost.whole) at every public entry point that takes a
    count or an index."""

    @pytest.mark.parametrize("x", [3, 3.0, np.int64(3), np.float64(3.0), np.int32(3)])
    def test_integral_values_pass_as_int(self, x):
        n = whole(x, "k", 0)
        assert n == 3 and type(n) is int
        assert whole(x, "k", 3, 4) == 3

    def test_range_is_named(self):
        with pytest.raises(ValueError, match=r"^k must be an integer >= 3, got 2$"):
            whole(2, "k", 3)
        with pytest.raises(ValueError, match=r"^k must be an integer in \[0, 4\), got 4$"):
            whole(4, "k", 0, 4)

    @staticmethod
    def entry_points():
        """(name the error gives, call with the count) for each entry point."""
        u = make_utility("LMSR", n_outcomes=3)
        state = new_market(MarketConfig(utility=u))
        a = np.array([1.0, 0.0, 1.0])
        return {
            "make_utility": ("n_outcomes", lambda x: make_utility("LMSR", n_outcomes=x)),
            "settle": ("outcome index", lambda x: settle(state, x)),
            "simplex_grid-n": ("n", lambda x: analysis.simplex_grid(x, 4)),
            "simplex_grid-resolution": ("resolution", lambda x: analysis.simplex_grid(3, x)),
            "check_properness": ("n_samples", lambda x: analysis.check_properness(u, x)),
            "identify_penalty_family": ("resolution",
                                        lambda x: analysis.identify_penalty_family(u, x)),
            "risk_dual_check": ("grid_resolution",
                                lambda x: analysis.risk_dual_check(u, np.zeros(3), x)),
            "converge": ("rounds", lambda x: converge(state, [0.2, 0.3, 0.5], rounds=x)),
            "msr_equivalence_check": ("n_orders",
                                      lambda x: analysis.msr_equivalence_check("LMSR", n_orders=x)),
            "quadrature_charge": ("panels",
                                  lambda x: oracle.quadrature_charge(u, np.zeros(3), a, 1.0, x)),
        }

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -1, True, "3", None, [3]],
                             ids=["2.5", "nan", "inf", "-1", "True", "str", "None", "list"])
    @pytest.mark.parametrize("entry", ["make_utility", "settle", "simplex_grid-n",
                                       "simplex_grid-resolution", "check_properness",
                                       "identify_penalty_family", "risk_dual_check", "converge",
                                       "msr_equivalence_check", "quadrature_charge"])
    def test_a_non_count_is_a_value_error_that_names_it(self, entry, bad):
        # Some raised TypeError, and some answered: quadrature_charge with
        # no panel, msr_equivalence_check with -3 orders, simplex_grid at
        # k/7.5.  No warning comes first.
        name, call = self.entry_points()[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                call(bad)
