"""Tests for loss bounds, properness, MSR equivalence, and the risk view."""

import math
import warnings

import numpy as np
import pytest

from scpm import (
    MarketConfig,
    check_properness,
    identify_penalty_family,
    implicit_scoring_rule,
    make_utility,
    msr_equivalence_check,
    new_market,
    risk_dual_check,
    risk_measure,
    settle,
    solve_t,
    table1,
    worst_case_loss,
)
from scpm import analysis, oracle
from scpm.analysis import (PENALTY_LABELS, _families, _grid, _lattice_min, _offsets,
                           simplex_grid)
from scpm.utilities import CATALOG, KINDS, LMSR, Utility, _rows

from linear_utility import LinearUtility

MONOTONE_KINDS = [k for k in KINDS if k != "QuadraticScore"]


class ValueGradOnly(Utility):
    """ExponentialSCPM's u at b = 1 and nothing else: no loss_bound_terms."""

    kind = "ValueGradOnly"

    def _value(self, s):
        return 1.0 - np.exp(-s).mean(axis=-1)

    def _grad(self, s):
        return np.exp(-s) / self.n


class TestKindContract:
    def test_value_and_grad_are_the_base_class_own(self):
        # A kind writes its formulas, _value and _grad; the public value and
        # grad, which coerce the input, are the base class's alone.
        for cls in [*CATALOG.values(), LinearUtility, ValueGradOnly]:
            assert cls.value is Utility.value and cls.grad is Utility.grad, cls

    def test_formulas_only_kind_solves_by_root(self):
        # No level and no kernel: the base kernel's root search, then C
        # from _value at its level.
        u = ValueGradOnly(n_outcomes=3)
        q = np.array([0.4, -0.2, 1.1])
        res = solve_t(u, q)
        assert res.path == "root"
        assert res.cost == pytest.approx(oracle.grid_min_t(u, q)[1], abs=1e-6)


class TestWorstCaseLoss:
    def test_kind_without_loss_terms_is_named(self):
        # The analytic loss and settlement's bound read loss_bound_terms: a
        # kind without it gets the error naming it, as _conjugate does.
        u = ValueGradOnly(n_outcomes=3)
        message = "ValueGradOnly has no worst-case loss terms"
        with pytest.raises(NotImplementedError, match=message):
            worst_case_loss(u)
        with pytest.raises(NotImplementedError, match=message):
            settle(new_market(MarketConfig(u, "integral")), 0)

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

    @pytest.mark.parametrize("kind", ["LMSR", "QuadSCPM", "LogSCPM",
                                      "ExponentialSCPM", "QuadraticScore", "MinSCPM"])
    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0, 1e-3, 1e3])
    def test_numeric_with_prior(self, kind, b):
        # a non-uniform theta makes the search maximize over every index i;
        # the kinds without one search index 0 at N = 2, 3, 5 and 10
        if CATALOG[kind].takes_theta:
            us = [make_utility(kind, b=b, n_outcomes=3, theta=[0.2, 0.3, 0.5]),
                  make_utility(kind, b=b, n_outcomes=10, theta=np.arange(1.0, 11.0) / 55.0)]
        else:
            us = [make_utility(kind, b=b, n_outcomes=n) for n in (2, 3, 5, 10)]
        for u in us:
            num = worst_case_loss(u, method="numeric").total
            b_term, c0 = u.loss_bound_terms()
            if math.isinf(b_term):
                assert math.isinf(num)
            else:
                assert num == pytest.approx(b_term + c0, rel=1e-9)

    @pytest.mark.parametrize("kind, theta", [
        ("LMSR", [1.0, 1.0, 1.0 - 5e-6]),
        ("QuadSCPM", [1.0 / 3.0 + 5e-7, 1.0 / 3.0 + 5e-7, 1.0 / 3.0 - 1e-6]),
    ])
    def test_numeric_with_nearly_uniform_prior(self, kind, theta):
        # A prior within np.allclose of uniform still has its own B: the
        # search must climb the ray of the smallest weight.
        u = make_utility(kind, n_outcomes=3, theta=theta)
        num = worst_case_loss(u, method="numeric").total
        assert abs(num - worst_case_loss(u).total) <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            worst_case_loss(make_utility("LMSR"), method="exact")

    def test_numeric_climbs_in_few_grad_calls(self):
        # One cost solve per decade of x along each searched ray, plus the
        # root of p_i = 1 where QuadraticScore's value peaks.
        for kind, cls in CATALOG.items():
            for theta in ([None, [0.2, 0.3, 0.5]] if cls.takes_theta else [None]):
                u = make_utility(kind, n_outcomes=3, theta=theta)
                grad = u.grad
                calls = []

                def counting(s):
                    calls.append(1)
                    return grad(s)

                u.grad = counting
                worst_case_loss(u, "numeric")
                assert len(calls) <= 16 * (1 if theta is None else 3), (kind, theta)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_numeric_quadratic_score_peak(self, n):
        # The ray's value peaks inside it, at p_i = 1; the probes past the
        # peak price the other outcomes below 0 without a warning.
        for b in (1e-3, 2.5):
            u = make_utility("QuadraticScore", b=b, n_outcomes=n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                total = worst_case_loss(u, "numeric").total
            assert caught == []
            assert total == pytest.approx(b * (n - 1) / n, rel=1e-12, abs=0.0)


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

    def test_lmsr_spread_prior_small_b_strictly_proper(self):
        # A prior spread 100-fold at b = 1e-3, where a damped Newton search
        # for the conjugate points stalls on a few rows (residual 0.59) and
        # calls LMSR improper; the closed form reaches every row.
        u = make_utility("LMSR", b=1e-3, n_outcomes=3, theta=[0.1, 1.0, 10.0])
        rep = check_properness(u, n_samples=50)
        assert rep.strictly_proper
        assert rep.max_gradient_residual <= 1e-12

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            check_properness(make_utility("LMSR"), n_samples=0)


def counting_grad(u):
    """Count u's grad calls; returns the uncounted grad and the call list."""
    grad = u.grad
    calls = []

    def counting(s):
        calls.append(1)
        return grad(s)

    u.grad = counting
    return grad, calls


def beliefs(rng, m, n):
    return 0.9 * rng.dirichlet(np.ones(n), size=m) + 0.1 / n


class NoConjugate(LMSR):
    """LMSR with the base class's conjugate point: no hook."""

    kind = "NoConjugate"
    _conjugate = Utility._conjugate


class TestConjugatePoint:
    # Each catalog kind inverts its gradient in closed form with no grad
    # call, and the studies read their points from nothing else.
    @pytest.mark.parametrize("n", [2, 3, 5, 1024])
    @pytest.mark.parametrize("kind", [k for k in sorted(KINDS) if k != "MinSCPM"])
    def test_stationary_within_grad_budget(self, kind, n):
        thetas = [None]
        if CATALOG[kind].takes_theta:
            theta = np.arange(1.0, n + 1.0)
            thetas.append(theta / theta.sum() if kind == "QuadSCPM" else theta)
        for theta in thetas:
            for b in (1e-3, 1.0, 1e3):
                u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
                grad, calls = counting_grad(u)
                R = beliefs(np.random.default_rng(11), 20, n)
                S = u._conjugate(R)
                assert np.max(np.abs(grad(S) - R)) <= 1e-12, (theta, b)
                assert len(calls) == 0, (theta, b)

    @pytest.mark.parametrize("kind, theta", [("LMSR", None), ("LMSR", [1.0, 2.0, 4.0]),
                                             ("MinSCPM", None)])
    def test_stationary_start_returned_after_one_grad_call(self, kind, theta):
        # r in the (sub)differential at s = 0: LMSR at r = theta/sum(theta),
        # MinSCPM at any r, since every diagonal point is a maximizer.  The
        # closed form gives +0.0 points there with no grad call.
        u = make_utility(kind, n_outcomes=3, theta=theta)
        _, calls = counting_grad(u)
        if kind == "MinSCPM":
            R = beliefs(np.random.default_rng(3), 20, 3)
        else:
            R = np.tile(u.theta / u.theta.sum(), (5, 1))
        S = u._conjugate(R)
        np.testing.assert_array_equal(S, np.zeros_like(R))
        assert not np.signbit(S).any()
        assert len(calls) == 0

    def test_stationary_rows_unmoved_among_live_rows(self):
        # Rows at the prior's mean stay at +0.0 beside rows that move.
        u = make_utility("LMSR", n_outcomes=3, theta=[1.0, 2.0, 4.0])
        R = beliefs(np.random.default_rng(5), 6, 3)
        R[::2] = u.theta / u.theta.sum()
        S = u._conjugate(R)
        np.testing.assert_array_equal(S[::2], 0.0)
        assert np.all(np.any(S[1::2] != 0.0, axis=-1))
        assert np.max(np.abs(u.grad(S) - R)) <= 1e-12

    def test_linear_rows_end_unmoved(self):
        # A constant gradient has no conjugate point: LinearUtility returns
        # the origin, and each row is as far from r as its residual |c - r|.
        u = LinearUtility([0.6, 0.4])
        _, calls = counting_grad(u)
        p0 = np.linspace(0.05, 0.45, 9)
        R = np.column_stack([p0, 1.0 - p0])
        S = u._conjugate(R)
        assert len(calls) == 0
        np.testing.assert_array_equal(S, 0.0)
        assert np.min(u.properness_residual(S, R)) >= 0.1

    def test_kind_without_hook_is_named(self):
        # The studies take their points from _conjugate alone: a kind
        # without it gets a typed error naming it, not a search.
        u = NoConjugate(n_outcomes=3)
        for study in (check_properness, identify_penalty_family):
            with pytest.raises(NotImplementedError, match="NoConjugate"):
                study(u)

    @pytest.mark.parametrize("kind", [*KINDS, "Linear"])
    def test_batched_residual_matches_rows(self, kind):
        rng = np.random.default_rng(7)
        if kind == "Linear":
            u = LinearUtility([0.6, 0.1, 0.2, 0.1])
        else:
            u = make_utility(kind, n_outcomes=4)
        S = rng.uniform(0.5, 3.0, size=(12, 4))
        S[::3, 1] = S[::3, 0] = S[::3].min(axis=-1)  # ties for MinSCPM's argmin
        R = beliefs(rng, 12, 4)
        rows = [u.properness_residual(s, r) for s, r in zip(S, R)]
        assert all(isinstance(v, float) for v in rows)
        np.testing.assert_array_equal(u.properness_residual(S, R), rows)


class TestStudyGradCalls:
    # Each catalog kind reads its conjugate points in closed form, so the
    # counts are exact: check_properness makes the residual's grad call
    # (none for MinSCPM, whose residual reads the argmin set) and the jump
    # probe's, and identify_penalty_family none.  A return to a search
    # (tens of calls per study) or to per-point sweeps shows.
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_at_most_50_grad_calls_per_study(self, kind, n):
        u = make_utility(kind, n_outcomes=n)
        _, calls = counting_grad(u)
        check_properness(u, n_samples=50)
        assert len(calls) == (1 if kind == "MinSCPM" else 2)
        if u.monotone:
            calls.clear()
            identify_penalty_family(u)
            assert len(calls) == 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_table1_labels(self, n):
        for row in table1(1.0, n):
            assert row.properness == ("proper" if row.kind == "MinSCPM" else "strictly proper")
            if row.kind == "QuadraticScore":
                assert row.penalty is None
            else:
                assert row.penalty == PENALTY_LABELS[row.kind], row


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


def shift_penalty(u, delta):
    """Offset u's raw penalty by the constant delta on this instance only."""
    penalty = u._penalty
    u._penalty = lambda p: penalty(p) + delta
    return u


def recording_penalty(u):
    """Record every array u's raw penalty prices; returns the record."""
    penalty = u._penalty
    seen = []

    def recording(p):
        seen.append(p)
        return penalty(p)

    u._penalty = recording
    return seen


class TestRiskDualCertificate:
    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_gap_closes_far_from_zero(self, kind, n, b):
        # |Z| up to 10 b puts p(-Z) near a face of the simplex, where a
        # uniform lattice of spacing 1/400 leaves gaps of 1e-5 to 1e-3.
        u = make_utility(kind, b=b, n_outcomes=n)
        rng = np.random.default_rng(16)
        for scale in (0.1, 1.0, 10.0):
            for _ in range(3):
                Z = scale * b * rng.uniform(-1.0, 1.0, size=n)
                ev = risk_dual_check(u, Z, 400 if n == 3 else 4000)
                assert ev.dual_gap <= 1e-8, (Z, ev)
                assert ev.rho == risk_measure(u, Z).rho

    @pytest.mark.parametrize("delta", [1e-3, -1e-3])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_shifted_penalty_shows(self, kind, n, delta):
        # Too high a penalty loses the witness, too low a one lets a
        # lattice point undercut rho.  A constant, as MinSCPM's L is 0.
        u = shift_penalty(make_utility(kind, n_outcomes=n), delta)
        rng = np.random.default_rng(17)
        for _ in range(3):
            Z = rng.uniform(-2.0, 2.0, size=n)
            assert risk_dual_check(u, Z, 400).dual_gap >= 5e-4

    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_witness_closes_sampled_dual(self, kind):
        # Above N = 3 the lattice is a Dirichlet sample; the witness is exact.
        u = make_utility(kind, n_outcomes=5)
        Z = np.random.default_rng(18).uniform(-3.0, 3.0, size=5)
        assert risk_dual_check(u, Z, 20).dual_gap <= 1e-8

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="risk-measure"):
            risk_dual_check(make_utility("QuadraticScore", n_outcomes=3), np.zeros(3), 400)

    @pytest.mark.parametrize("res", [0, -5, 1, 2.5, math.inf, math.nan])
    def test_grid_resolution_must_be_an_integer_from_2(self, res):
        # Each returned a result without a word, as simplex_grid would not.
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError, match="^grid_resolution must be an integer >= 2"):
            risk_dual_check(u, np.array([0.4, -0.3]), res)

    def test_integral_grid_resolution_taken(self):
        u = make_utility("LMSR", n_outcomes=2)
        Z = np.array([0.4, -0.3])
        assert risk_dual_check(u, Z, 2).dual_gap >= 0.0
        assert risk_dual_check(u, Z, 400.0) == risk_dual_check(u, Z, np.int64(400))


class TestDualWork:
    # A coarse lattice refined around its best point prices a few hundred
    # rows per round: a return to the full res-400 grid (80 601 rows) shows.
    @pytest.mark.parametrize("res", [50, 400, 4000])
    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_rows_priced_and_spacing_reached(self, kind, res):
        u = make_utility(kind, n_outcomes=3)
        seen = recording_penalty(u)
        risk_dual_check(u, np.array([0.3, -0.2, 0.1]), res)
        assert sum(len(np.atleast_2d(p)) for p in seen) <= 2000
        spacing = min(np.diff(np.unique(P[:, :-1])).min()
                      for P in seen if np.ndim(P) == 2)
        assert spacing <= (1.0 + 1e-9) / res

    def test_lattices_built_once_and_read_only(self, monkeypatch):
        # The constant lattices of the dual and of the penalty fit are built
        # on their first call and shared after it, so none may be written.
        grid = simplex_grid(3, 12)
        interior = grid[np.all(grid > 1e-9, axis=1)]
        steps = np.arange(-8, 9)
        for build, want in [(lambda: _grid(3, 20), simplex_grid(3, 20)),
                            (lambda: _grid(2, 12), simplex_grid(2, 12)),
                            (lambda: _grid(3, 12, interior=True), interior),
                            (lambda: _offsets(1), steps[:, None]),
                            (lambda: _offsets(2), np.stack(np.meshgrid(steps, steps, indexing="ij"),
                                                           -1).reshape(-1, 2))]:
            lattice = build()
            assert build() is lattice
            assert lattice.tobytes() == want.tobytes() and lattice.shape == want.shape
            with pytest.raises(ValueError, match="read-only"):
                lattice[0, 0] = 0.5
        u = make_utility("LMSR", n_outcomes=3)
        before = _grid(3, 12, interior=True)
        identify_penalty_family(u)
        risk_dual_check(u, np.array([0.3, -0.2, 0.1]), 400)
        assert _grid(3, 12, interior=True) is before
        # The catalog families of the fit: one table per (b, N, resolution)
        # for every kind, so a table1 pass at one N builds each family once.
        real_make_utility = analysis.util_mod.make_utility
        builds = []

        def counting(kind, *args, **kwargs):
            builds.append(kind)
            return real_make_utility(kind, *args, **kwargs)

        _families.cache_clear()
        monkeypatch.setattr(analysis.util_mod, "make_utility", counting)
        for n in (2, 3):
            us = [make_utility(kind, n_outcomes=n) for kind in MONOTONE_KINDS]
            for first in (True, False):
                del builds[:]
                for u in us:
                    identify_penalty_family(u)
                assert len(builds) <= (len(PENALTY_LABELS) if first else 0), builds
        monkeypatch.undo()
        for n in (2, 3):
            grid = _grid(n, 12, interior=True)
            families = _families(1.0, n, 12)
            assert families is _families(1.0, n, 12)
            assert list(families) == list(PENALTY_LABELS)
            with pytest.raises(TypeError):
                families["LMSR"] = families["MinSCPM"]
            for kind, vals in families.items():
                raw = make_utility(kind, n_outcomes=n).penalty_raw(grid)
                want = raw - raw.min()
                assert vals.tobytes() == want.tobytes() and vals.shape == want.shape
                with pytest.raises(ValueError, match="read-only"):
                    vals[0] = 0.5

    @staticmethod
    def column_stack_lattice_min(u, Z, resolution):
        """_lattice_min with each round's two filters and column_stack, as it
        was before the round kept its points with one filter."""
        res = analysis.DUAL_START
        P = _grid(u.n, res)
        vals = P @ Z + u.penalty_raw(P)
        low = float(vals.min())
        while res < resolution:
            K = np.rint(P[np.argmin(vals), :-1] * res) * analysis.DUAL_CUT + _offsets(u.n - 1)
            res *= analysis.DUAL_CUT
            total = _rows(np.add, K)
            keep = _rows(np.logical_and, K >= 0) & (total <= res)
            K, total = K[keep], total[keep]
            P = np.column_stack([K, res - total]) / res
            vals = P @ Z + u.penalty_raw(P)
            low = min(low, float(vals.min()))
        return low

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_one_filter_rounds_match_column_stack(self, kind, n):
        # Every round prices the same points in the same bytes as the two
        # filters and column_stack did, also where |Z| up to 1e4 pushes the
        # patch against a face and the filter drops rows.
        rng = np.random.default_rng(82645)
        u = make_utility(kind, n_outcomes=n)
        for scale in (0.5, 1e2, 1e4):
            Z = scale * rng.uniform(-1.0, 1.0, size=n)
            for res in (50, 400, 4000):
                seen = recording_penalty(u)
                want = self.column_stack_lattice_min(u, Z, res)
                reference = list(seen)
                del seen[:]
                got = _lattice_min(u, Z, res)
                del u._penalty
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                assert len(seen) == len(reference) > 1
                assert all(p.shape == r.shape and p.tobytes() == r.tobytes()
                           for p, r in zip(seen, reference))
                if scale == 1e4 and res == 4000:
                    assert min(len(p) for p in seen[1:]) < len(_offsets(n - 1))


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

    @pytest.mark.parametrize("n", [4, 5])
    def test_labels_recovered_above_lattice(self, n):
        # above N = 3 the fit runs on a seeded sample no larger than the
        # N = 3 lattice, not on 100 000 Dirichlet draws
        for kind in MONOTONE_KINDS:
            thetas = [None]
            if CATALOG[kind].takes_theta:
                theta = np.arange(1.0, n + 1.0)
                thetas.append(theta / theta.sum() if kind == "QuadSCPM" else theta)
            for theta in thetas:
                u = make_utility(kind, b=1.0, n_outcomes=n, theta=theta)
                got, dev = identify_penalty_family(u)
                assert got == PENALTY_LABELS[kind], f"{kind} theta={theta}: fit {got}"
                assert dev <= 1e-9

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="penalty"):
            identify_penalty_family(make_utility("QuadraticScore"))

    @staticmethod
    def fresh_candidates_fit(u, resolution=12):
        """identify_penalty_family as it was before the families were kept:
        a fresh catalog utility per candidate, and u itself for its kind."""
        grid = _grid(u.n, resolution, interior=True)
        S = u._conjugate(grid)
        numeric = u.value(S) - _rows(np.add, grid * S)
        numeric -= numeric.min()
        fits = []
        for kind, label in PENALTY_LABELS.items():
            candidate = u if kind == u.kind else make_utility(kind, b=u.b, n_outcomes=u.n)
            vals = candidate.penalty_raw(grid)
            vals = vals - vals.min()
            fits.append((kind, label, float(np.max(np.abs(vals - numeric)))))
        best_dev = min(dev for _, _, dev in fits)
        _, label, dev = min(fits, key=lambda f: (f[0] != u.kind or f[2] > best_dev + 1e-9, f[2]))
        return label, dev

    @pytest.mark.parametrize("b", [1.0, 1e3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_fit_matches_fresh_candidates(self, kind, n, b):
        # The kept families fit as freshly built candidates did, bit for
        # bit; a skewed prior keeps fitting with u's own penalty, not with
        # the table's default-prior vector of its kind.
        thetas = [None]
        if CATALOG[kind].takes_theta:
            theta = np.arange(1.0, n + 1.0) ** 2
            thetas.append(theta / theta.sum() if kind == "QuadSCPM" else theta)
        for theta in thetas:
            u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
            label, dev = identify_penalty_family(u)
            want_label, want_dev = self.fresh_candidates_fit(u)
            assert label == want_label == PENALTY_LABELS[kind]
            assert np.float64(dev).tobytes() == np.float64(want_dev).tobytes()
            assert dev <= 1e-9 * b
