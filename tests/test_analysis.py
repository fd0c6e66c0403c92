"""Tests for loss bounds, properness, MSR equivalence, and the risk view."""

import math

import numpy as np
import pytest

from scpm import (
    check_properness,
    identify_penalty_family,
    implicit_scoring_rule,
    make_utility,
    msr_equivalence_check,
    risk_dual_check,
    risk_measure,
    worst_case_loss,
)
from scpm.analysis import _solve_conjugate_point
from scpm.utilities import KINDS

from linear_utility import LinearUtility

MONOTONE_KINDS = [k for k in KINDS if k != "QuadraticScore"]


class TestWorstCaseLoss:
    def test_analytic_reads_catalog(self):
        lb = worst_case_loss(make_utility("LMSR", b=2.0, n_outcomes=3))
        assert lb.analytic
        assert lb.total == pytest.approx(2.0 * math.log(3.0), rel=1e-14)

    def test_numeric_matches_analytic_small_case(self):
        u = make_utility("ExponentialSCPM", b=1.0, n_outcomes=2)
        num = worst_case_loss(u, method="numeric")
        ana = worst_case_loss(u)
        assert num.total == pytest.approx(ana.total, rel=1e-6)

    def test_numeric_declares_log_unbounded(self):
        u = make_utility("LogSCPM", n_outcomes=2)
        assert math.isinf(worst_case_loss(u, method="numeric").total)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            worst_case_loss(make_utility("LMSR"), method="exact")


class TestProperness:
    def test_min_is_proper_not_strict(self):
        rep = check_properness(make_utility("MinSCPM", n_outcomes=3), n_samples=20)
        assert rep.proper
        assert not rep.strictly_proper
        assert rep.multiplicity_detected

    def test_linear_is_improper(self):
        rep = check_properness(LinearUtility([0.6, 0.4]), n_samples=20)
        assert not rep.proper
        assert rep.max_gradient_residual > 1e-3

    @pytest.mark.parametrize("kind", ["LMSR", "LogSCPM", "ExponentialSCPM", "QuadSCPM"])
    def test_strictly_proper_kinds(self, kind):
        rep = check_properness(make_utility(kind, n_outcomes=3), n_samples=30)
        assert rep.strictly_proper
        assert rep.max_gradient_residual <= 1e-6

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            check_properness(make_utility("LMSR"), n_samples=0)


# Mean grad calls per conjugate point: coupled kinds move every partial
# derivative with each coordinate, separable kinds settle in one sweep.
GRAD_BUDGET = {"LMSR": 300, "QuadraticScore": 300, "LogSCPM": 100,
               "ExponentialSCPM": 100, "QuadSCPM": 100}


class TestConjugatePoint:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", sorted(GRAD_BUDGET))
    def test_stationary_within_grad_budget(self, kind, n):
        u = make_utility(kind, n_outcomes=n)
        grad = u.grad
        calls = []

        def counting(s):
            calls.append(1)
            return grad(s)

        u.grad = counting
        rng = np.random.default_rng(11)
        n_points = 20
        for _ in range(n_points):
            r = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
            s = _solve_conjugate_point(u, r)
            assert np.max(np.abs(grad(s) - r)) <= 1e-9
        assert len(calls) / n_points <= GRAD_BUDGET[kind]


class TestImplicitScoringRule:
    def test_lmsr_scores_are_log_scores_up_to_constant(self):
        b = 1.0
        u = make_utility("LMSR", b=b, n_outcomes=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.uniform(0.0, 3.0, size=2)
            from scpm import prices

            p = prices(u, q)
            view = implicit_scoring_rule(u, q)
            # S_i - S_j should match b(log p_i - log p_j)
            diff = view.scores[0] - view.scores[1]
            assert diff == pytest.approx(b * (math.log(p[0]) - math.log(p[1])), abs=1e-8)


class TestMSREquivalence:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="closed-form"):
            msr_equivalence_check("MinSCPM")

    @pytest.mark.parametrize("rule", ["LMSR", "QuadraticScore"])
    def test_engine_matches_direct_market(self, rule):
        rep = msr_equivalence_check(rule, b=1.0, n_outcomes=2, n_orders=30, seed=5)
        assert rep.max_x_diff <= 1e-8
        assert rep.max_charge_diff <= 1e-8


class TestRiskMeasure:
    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="risk-measure"):
            risk_measure(make_utility("QuadraticScore"), np.zeros(2))

    def test_min_risk_is_worst_case(self):
        u = make_utility("MinSCPM", n_outcomes=3)
        Z = np.array([1.0, -2.0, 0.5])
        assert risk_measure(u, Z).rho == pytest.approx(2.0, abs=1e-12)

    def test_certain_payoff(self):
        # rho of a sure amount c is -c for every normalized monotone utility
        for kind in ("LMSR", "MinSCPM", "ExponentialSCPM", "QuadSCPM"):
            u = make_utility(kind, b=1.0, n_outcomes=2)
            base = risk_measure(u, np.zeros(2)).rho
            shifted = risk_measure(u, np.full(2, 1.5)).rho
            assert shifted == pytest.approx(base - 1.5, abs=1e-9)

    def test_dual_identity_small_grid(self):
        u = make_utility("ExponentialSCPM", b=1.0, n_outcomes=2)
        ev = risk_dual_check(u, np.array([0.4, -0.3]), grid_resolution=2000)
        assert ev.dual_gap <= 1e-5


class TestPenaltyFamily:
    def test_labels_recovered(self):
        expected = {
            "LMSR": "b*KL(p || theta/sum(theta))",
            "MinSCPM": "0",
            "ExponentialSCPM": "b*KL(p || uniform)",
            "QuadSCPM": "b*||p - theta||^2",
            "LogSCPM": "negative log-likelihood",
        }
        for kind, label in expected.items():
            u = make_utility(kind, b=1.0, n_outcomes=2)
            got, dev = identify_penalty_family(u)
            assert got == label, f"{kind}: fit {got} (dev {dev})"
            assert dev <= 1e-5

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="penalty"):
            identify_penalty_family(make_utility("QuadraticScore"))
