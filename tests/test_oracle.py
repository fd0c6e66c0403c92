"""Sanity checks of the cross-check oracles against known closed forms."""

import math

import numpy as np
import pytest

from scpm import MarketConfig, Order, charge, make_utility, new_market, oracle
from scpm.oracle import (
    brute_force_fill,
    cross_check,
    finite_diff_gradient,
    grid_min_t,
    quadrature_charge,
    simplex_grid,
)
from scpm.utilities import KINDS


class TestGridMinT:
    def test_matches_log_closed_form(self):
        # theta = (1,1), q = 0: minimizer t = 2, value 2 - 2 log 2
        u = make_utility("LogSCPM", n_outcomes=2)
        t, val = grid_min_t(u, np.zeros(2))
        assert t == pytest.approx(2.0, abs=1e-3)
        assert val == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-8)

    def test_flat_objective_value(self):
        u = make_utility("LMSR", b=1.0, n_outcomes=2)
        _, val = grid_min_t(u, np.zeros(2))
        assert val == pytest.approx(math.log(2.0), abs=1e-10)

    def test_empty_bracket_rejected(self):
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError, match="bracket"):
            grid_min_t(u, np.zeros(2), bracket=(1.0, 1.0))


class TestFiniteDiff:
    def test_on_polynomial(self):
        g = finite_diff_gradient(lambda x: x[0] ** 2 + 3.0 * x[1], np.array([2.0, 1.0]))
        np.testing.assert_allclose(g, [4.0, 3.0], atol=1e-7)

    def test_shrinks_step_near_boundary(self):
        u = make_utility("LogSCPM", n_outcomes=2)
        s = np.array([1e-4, 1.0])
        g = finite_diff_gradient(u.value, s, h=1e-3)  # h larger than s[0]
        np.testing.assert_allclose(g, u.grad(s), rtol=1e-2)


class TestQuadratureCharge:
    def test_matches_cost_difference(self):
        u = make_utility("LMSR", b=1.0, n_outcomes=2)
        q = np.array([0.5, 0.0])
        a = np.array([1.0, 0.0])
        quad = quadrature_charge(u, q, a, 1.2)
        assert quad == pytest.approx(charge(u, q, a, 1.2), abs=1e-6)

    def test_zero_fill(self):
        u = make_utility("LMSR", n_outcomes=2)
        assert quadrature_charge(u, np.zeros(2), np.array([1.0, 0.0]), 0.0) == 0.0

    def test_negative_fill_rejected(self):
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError):
            quadrature_charge(u, np.zeros(2), np.array([1.0, 0.0]), -1.0)


class TestBruteForceFill:
    def test_agrees_with_lmsr_inverse(self):
        # for LMSR the fill that lands price on pi has a logit closed form
        b = 1.0
        u = make_utility("LMSR", b=b, n_outcomes=2)
        state = new_market(MarketConfig(utility=u))
        pi = 0.7
        order = Order("t", pi, 10.0, np.array([1.0, 0.0]))
        expected = b * math.log(pi / (1.0 - pi))  # from p = sigmoid(x/b)
        step = 1e-4
        assert brute_force_fill(state, order, step=step) == pytest.approx(
            expected, abs=2.0 * step
        )

    def test_limit_binds(self):
        u = make_utility("LMSR", n_outcomes=2)
        state = new_market(MarketConfig(utility=u))
        order = Order("t", 0.99, 0.5, np.array([1.0, 0.0]))
        assert brute_force_fill(state, order, step=1e-3) == 0.5

    def test_rejects_at_current_price(self):
        u = make_utility("LMSR", n_outcomes=2)
        state = new_market(MarketConfig(utility=u))
        order = Order("t", 0.5, 1.0, np.array([1.0, 0.0]))
        assert brute_force_fill(state, order) == 0.0


class TestSimplexGrid:
    def test_two_outcomes(self):
        grid = simplex_grid(2, 10)
        assert grid.shape == (11, 2)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0)

    def test_three_outcomes(self):
        grid = simplex_grid(3, 8)
        assert grid.shape == (45, 3)  # (res+1)(res+2)/2 lattice points
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        assert grid.min() >= 0.0

    def test_contains_vertices(self):
        grid = simplex_grid(3, 5)
        for v in np.eye(3):
            assert np.any(np.all(np.isclose(grid, v), axis=1))

    def test_large_n_sampled(self):
        grid = simplex_grid(5, 10)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            simplex_grid(1, 10)
        with pytest.raises(ValueError):
            simplex_grid(3, 1)


class TestCrossCheck:
    def test_draws_do_not_depend_on_scope(self, monkeypatch):
        # Only the records and the draw order are under test, so the slow
        # quadrature is replaced by the engine charge.
        monkeypatch.setattr(oracle, "quadrature_charge", charge)
        rng = np.random.default_rng(8)
        checks = cross_check(rng, "charge")
        assert [(c.name, c.gap, c.tol) for c in checks] == [
            (f"charge {kind} quadrature-vs-engine", 0.0, 1e-3 if kind == "MinSCPM" else 1e-4)
            for kind in KINDS]
        ref = np.random.default_rng(8)
        ref.uniform(size=len(KINDS) * (8 * 3 + 3))  # 8 cost and 1 charge q per kind
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="unknown scope"):
            cross_check(np.random.default_rng(0), "price")
