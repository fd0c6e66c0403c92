"""Tests for the scalar cost solve, prices, and charges."""

import math

import numpy as np
import pytest

from scpm import charge, cost, make_utility, prices, solve_t
from scpm.cost import MAX_ITER, bracketed_root
from scpm.utilities import KINDS


def random_q(rng, n, scale=4.0):
    return rng.uniform(0.0, scale, size=n)


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

    @pytest.mark.parametrize("kind", ["ExponentialSCPM", "QuadSCPM"])
    def test_closed_form_matches_bisection(self, kind):
        u = make_utility(kind, b=1.7, n_outcomes=4)
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = random_q(rng, 4)
            fast = solve_t(u, q)
            slow = solve_t(u, q, method="bisect")
            assert fast.cost == pytest.approx(slow.cost, abs=1e-9)
            np.testing.assert_allclose(fast.prices, slow.prices, atol=1e-8)

    def test_log_solve_width_is_relative_to_q(self):
        # An absolute 1e-12 width on t is below the float spacing at t ~ 1e7:
        # a search held to it runs out its iteration cap.
        u = make_utility("LogSCPM", n_outcomes=3)
        q = 1e7 * np.array([1.0, 0.5, 0.0])
        res = solve_t(u, q)
        assert res.iterations < MAX_ITER // 4
        shifted = solve_t(u, q - q.max()).cost + q.max()
        assert res.cost == pytest.approx(shifted, rel=1e-12)

    def test_log_solve_at_large_uniform_q(self):
        # At this scale max(q) + FLOOR_PAD rounds back onto max(q) itself.
        u = make_utility("LogSCPM", n_outcomes=3)
        res = solve_t(u, np.full(3, 1e8))
        np.testing.assert_allclose(res.prices, np.full(3, 1.0 / 3.0), rtol=1e-12)

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

    def test_solve_path_recorded(self):
        q = np.array([0.3, 1.2, 0.8])
        paths = {kind: solve_t(make_utility(kind, n_outcomes=3), q).path for kind in KINDS}
        assert paths == {"LMSR": "flat", "QuadraticScore": "flat", "MinSCPM": "flat",
                         "ExponentialSCPM": "closed", "QuadSCPM": "closed", "LogSCPM": "root"}
        assert solve_t(make_utility("QuadSCPM", n_outcomes=3), q, method="bisect").path == "root"

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
