"""Tests for the scalar cost solve, prices, and charges."""

import math

import numpy as np
import pytest

from scpm import charge, cost, make_utility, prices, solve_t
from scpm.cost import MAX_ITER, SolverError, bracketed_root, expand_bracket
from scpm.utilities import KINDS, ExponentialSCPM

from linear_utility import LinearUtility


def random_q(rng, n, scale=4.0):
    return rng.uniform(0.0, scale, size=n)


def no_level(u):
    """The same utility without its level, so that solve_t takes the root path."""
    generic = type(type(u).__name__, (type(u),), {"_level": None})
    return generic(b=u.b, n_outcomes=u.n, theta=u.theta)


class TestSolveT:
    def test_shape_mismatch_rejected(self):
        u = make_utility("LMSR", n_outcomes=3)
        with pytest.raises(ValueError, match="shape"):
            solve_t(u, np.zeros(2))

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
        # and on the root path; the level path reads 0 iterations.
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
        # theta over eight decades puts the root near the low end of the
        # level's bracket [q_j + theta_j, q_j + sum theta]: a width relative
        # to the far end leaves the prices off the simplex.  The level must
        # never raise, keep translation invariance and agree with the root
        # path.
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
        # is its certificate: a level 0.5 too high prices the simplex at
        # exp(-0.5) and must raise.
        class Shifted(ExponentialSCPM):
            def _level(self, q, inside, total):
                return super()._level(q, inside, total) + 0.5

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


class TestCostProperties:
    @pytest.mark.parametrize("kind", KINDS)
    def test_cost_is_convex_along_chords(self, kind):
        u = make_utility(kind, b=1.0, n_outcomes=3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            q1 = random_q(rng, 3)
            q2 = random_q(rng, 3)
            lam = rng.uniform()
            mid = cost(u, lam * q1 + (1 - lam) * q2)
            assert mid <= lam * cost(u, q1) + (1 - lam) * cost(u, q2) + 1e-9

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
        # cost less b log N, with the same softmax prices.
        ex = make_utility("ExponentialSCPM", b=b, n_outcomes=n)
        lmsr = make_utility("LMSR", b=b, n_outcomes=n)
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 30.0):
            for _ in range(10):
                q = b * rng.uniform(-scale, scale, size=n)
                got, ref = solve_t(ex, q), solve_t(lmsr, q)
                np.testing.assert_allclose(got.prices, ref.prices, rtol=0.0, atol=1e-12)
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
        with pytest.warns(UserWarning, match="negative prices"):
            p = prices(u, np.array([10.0, 0.0]))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.min() < 0.0


class TestCharge:
    def test_zero_fill_costs_nothing(self):
        u = make_utility("LMSR", n_outcomes=2)
        assert charge(u, np.zeros(2), np.array([1.0, 0.0]), 0.0) == 0.0

    def test_negative_fill_rejected(self):
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError, match="nonnegative"):
            charge(u, np.zeros(2), np.array([1.0, 0.0]), -1.0)

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

    def test_ftol_stops_early(self):
        x, probes = bracketed_root(lambda x: x * x * x - 0.125, 0.0, 1.0, -0.125, 0.875,
                                   1e-12, ftol=1e-6)
        assert abs(x ** 3 - 0.125) <= 1e-6
        assert probes < 20

    def test_infinite_end_value_bisects(self):
        # An overflowed end value gives no secant (false position would
        # probe NaN); bisection steps run until both ends are finite.
        def f(x):
            return -math.inf if x < 0.1 else x - 0.3

        lo, _ = bracketed_root(f, 0.0, 1.0, -math.inf, 0.7, 1e-12)
        assert lo == pytest.approx(0.3, abs=1e-12)


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

    def test_stops_at_cap(self):
        probes = []

        def f(x):
            probes.append(x)
            return -1.0

        assert expand_bracket(f, 0.0, 1.0, -1.0, -1.0, max_steps=5) is None
        assert probes == [2.0, 4.0, 8.0, 16.0, 32.0]
