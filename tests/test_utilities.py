"""Unit tests for the concave utility catalog."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scpm import (
    DomainError,
    ExponentialSCPM,
    MinSCPM,
    PenaltyUnsupportedError,
    QuadraticScore,
    cost,
    make_utility,
    utility_from_dict,
)
import scpm
from scpm.utilities import CATALOG, KINDS

from linear_utility import LinearUtility


def random_alloc(rng, n, kind):
    s = rng.uniform(-3.0, 3.0, size=n)
    if kind == "LogSCPM":
        s = np.abs(s) + 0.1
    return s


class TestConstruction:
    def test_catalog_kinds(self):
        assert set(KINDS) == {
            "LMSR", "QuadraticScore", "LogSCPM", "MinSCPM",
            "ExponentialSCPM", "QuadSCPM",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown utility kind"):
            make_utility("BrierSCPM")

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_nonpositive_b_rejected(self, b):
        with pytest.raises(ValueError, match="b must be positive"):
            make_utility("LMSR", b=b)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_nonfinite_b_rejected(self, kind, b):
        with pytest.raises(ValueError, match="b must be positive and finite"):
            make_utility(kind, b=b)

    @pytest.mark.parametrize("kind", ["LMSR", "LogSCPM", "QuadSCPM"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_theta_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="theta components must be finite"):
            make_utility(kind, n_outcomes=2, theta=[bad, 1.0])

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n_outcomes"):
            make_utility("LMSR", n_outcomes=1)

    @pytest.mark.parametrize("kind", ["QuadraticScore", "MinSCPM", "ExponentialSCPM"])
    def test_theta_rejected_where_unused(self, kind):
        with pytest.raises(ValueError, match="takes no theta"):
            make_utility(kind, n_outcomes=2, theta=[1.0, 1.0])

    @pytest.mark.parametrize("cls", [QuadraticScore, MinSCPM, ExponentialSCPM])
    def test_constructor_rejects_unused_theta(self, cls):
        # Enforced by the class itself, so a utility built directly never
        # writes a theta into to_dict() that utility_from_dict refuses.
        with pytest.raises(ValueError, match="takes no theta"):
            cls(n_outcomes=2, theta=[0.5, 0.5])

    def test_theta_length_checked(self):
        with pytest.raises(ValueError, match="length 3"):
            make_utility("LMSR", n_outcomes=3, theta=[1.0, 2.0])

    def test_lmsr_theta_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            make_utility("LMSR", n_outcomes=2, theta=[1.0, 0.0])

    def test_quadscpm_theta_must_be_simplex(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_utility("QuadSCPM", n_outcomes=2, theta=[0.6, 0.6])

    def test_roundtrip_serialization(self):
        for kind in KINDS:
            theta = [0.25, 0.75] if kind in ("LMSR", "LogSCPM", "QuadSCPM") else None
            u = make_utility(kind, b=2.5, n_outcomes=2, theta=theta)
            v = utility_from_dict(u.to_dict())
            assert v.kind == u.kind
            assert v.b == u.b
            assert v.n == u.n
            if u.theta is not None:
                np.testing.assert_allclose(v.theta, u.theta)


class TestValuesAndGradients:
    """Analytic gradients must agree with central differences."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 4])
    def test_gradient_matches_finite_differences(self, kind, n):
        from scpm.oracle import finite_diff_gradient

        u = make_utility(kind, b=1.3, n_outcomes=n)
        rng = np.random.default_rng(42)
        for _ in range(20):
            s = random_alloc(rng, n, kind)
            if kind in ("MinSCPM", "QuadSCPM"):
                # keep away from kinks where the subgradient is set-valued
                s += np.arange(n) * 0.3
            g = u.grad(s)
            g_fd = finite_diff_gradient(u.value, s, h=1e-6)
            np.testing.assert_allclose(g, g_fd, atol=5e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_value_batching_matches_scalar(self, kind):
        u = make_utility(kind, b=0.7, n_outcomes=3)
        rng = np.random.default_rng(3)
        S = np.abs(rng.normal(size=(50, 3))) + 0.1
        batched = u.value(S)
        singles = np.array([u.value(s) for s in S])
        np.testing.assert_allclose(batched, singles, rtol=1e-14)
        assert type(u.value(S[0])) is float
        # The same contract for the other batched methods: a float for one
        # row, and each row of a batch bit for bit as its own call.
        R = rng.dirichlet(np.ones(3), size=50)
        methods = [u.properness_residual]
        if u.monotone:
            methods.append(lambda s, p: u.penalty_raw(p))
        for method in methods:
            rows = [method(s, r) for s, r in zip(S, R)]
            assert all(type(v) is float for v in rows)
            np.testing.assert_array_equal(method(S, R), rows)

    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_batching_matches_rows(self, kind):
        u = make_utility(kind, b=0.7, n_outcomes=3)
        rng = np.random.default_rng(4)
        S = np.vstack([[0.5, 1.0, 2.0], [5.0, 3.0, 4.0],
                       np.abs(rng.normal(size=(20, 3))) + 0.1])
        batched = u.grad(S)
        rows = np.array([u.grad(s) for s in S])
        np.testing.assert_allclose(batched, rows, rtol=1e-14, atol=0.0)

    def test_min_grad_batched_argmin_per_row(self):
        u = make_utility("MinSCPM", n_outcomes=3)
        g = u.grad(np.array([[0.0, 1.0, 2.0], [5.0, 3.0, 4.0]]))
        np.testing.assert_array_equal(g, [[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("kind", KINDS)
    def test_concavity_along_random_chords(self, kind):
        u = make_utility(kind, b=1.0, n_outcomes=3)
        rng = np.random.default_rng(11)
        for _ in range(100):
            s1 = random_alloc(rng, 3, kind)
            s2 = random_alloc(rng, 3, kind)
            lam = rng.uniform()
            mid = u.value(lam * s1 + (1 - lam) * s2)
            chord = lam * u.value(s1) + (1 - lam) * u.value(s2)
            assert mid >= chord - 1e-10

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "QuadraticScore"])
    def test_monotone_kinds_have_nonnegative_gradient(self, kind):
        u = make_utility(kind, b=1.0, n_outcomes=3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_alloc(rng, 3, kind)
            assert np.all(np.asarray(u.grad(s)) >= 0.0)

    def test_quadratic_score_gradient_can_be_negative(self):
        u = make_utility("QuadraticScore", b=1.0, n_outcomes=2)
        assert not u.monotone
        g = u.grad(np.array([5.0, 0.0]))
        assert g.min() < 0.0

    def test_lmsr_value_closed_form(self):
        u = make_utility("LMSR", b=2.0, n_outcomes=3)
        s = np.array([1.0, -0.5, 0.3])
        expected = -2.0 * math.log(np.sum(np.exp(-s / 2.0)))
        assert u.value(s) == pytest.approx(expected, rel=1e-14)

    def test_quadratic_score_value_at_large_near_uniform_s(self):
        # s's - N sbar^2 cancels to 1e8 + 1.0 here; the sum about the mean does not
        u = make_utility("QuadraticScore", b=1.0, n_outcomes=3)
        s = 1e8 + np.array([0.0, 1.0, 2.0])
        assert u.value(s) == 1e8 + 0.5
        for c in (3.0, -1e8):
            assert u.value(s + c) == u.value(s) + c

    def test_min_value_and_subgradient(self):
        u = make_utility("MinSCPM", n_outcomes=3)
        assert u.value(np.array([3.0, 1.0, 2.0])) == 1.0
        np.testing.assert_allclose(u.grad(np.array([3.0, 1.0, 2.0])), [0, 1, 0])
        # tied argmin splits the canonical subgradient evenly
        np.testing.assert_allclose(u.grad(np.array([1.0, 1.0, 2.0])), [0.5, 0.5, 0])

    def test_quadscpm_clamp(self):
        # above the clamp 2*b*theta the utility stops increasing
        u = make_utility("QuadSCPM", b=1.0, n_outcomes=2)
        high = u.value(np.array([10.0, 10.0]))
        higher = u.value(np.array([50.0, 50.0]))
        assert high == pytest.approx(higher, abs=1e-15)
        np.testing.assert_allclose(u.grad(np.array([10.0, 10.0])), [0.0, 0.0])

    def test_log_domain_error(self):
        u = make_utility("LogSCPM", n_outcomes=2)
        with pytest.raises(DomainError):
            u.value(np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            u.grad(np.array([0.0, 1.0]))
        # one row out of the domain fails the whole batch
        batch = np.array([[1.0, 2.0], [0.5, 0.0], [3.0, 1.0]])
        for method in (u.value, u.grad, lambda s: u.properness_residual(s, [0.5, 0.5])):
            with pytest.raises(DomainError):
                method(batch)


class TestPenalty:
    def test_quadratic_score_has_no_penalty(self):
        u = make_utility("QuadraticScore")
        with pytest.raises(PenaltyUnsupportedError):
            u.conjugate_penalty(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_conjugate_penalty_takes_a_batch(self, kind):
        # (M, N) rows give (M,) raw and normalized arrays, each row bit for
        # bit as its own call; one vector gives floats.
        rng = np.random.default_rng(31)
        for n in (2, 3, 5):
            P = np.vstack([rng.dirichlet(np.ones(n), size=20), np.eye(n)])
            thetas = [None]
            if CATALOG[kind].takes_theta:
                theta = rng.uniform(0.1, 5.0, n)
                thetas.append(theta / theta.sum() if kind == "QuadSCPM" else theta)
            for theta in thetas:
                u = make_utility(kind, b=0.8, n_outcomes=n, theta=theta)
                if not u.monotone:
                    with pytest.raises(PenaltyUnsupportedError):
                        u.conjugate_penalty(P)
                    continue
                batch = u.conjugate_penalty(P)
                rows = [u.conjugate_penalty(p) for p in P]
                assert all(type(v.raw) is float and type(v.normalized) is float for v in rows)
                np.testing.assert_array_equal(batch.raw, [v.raw for v in rows])
                np.testing.assert_array_equal(batch.normalized, [v.normalized for v in rows])

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "QuadraticScore"])
    def test_normalized_penalty_is_nonnegative(self, kind):
        u = make_utility(kind, b=1.0, n_outcomes=3)
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.dirichlet(np.ones(3))
            assert u.conjugate_penalty(p).normalized >= -1e-12

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "QuadraticScore"])
    def test_penalty_is_conjugate_supremum(self, kind):
        """Raw L(p) must dominate u(s) - p's everywhere and touch it."""
        u = make_utility(kind, b=1.0, n_outcomes=2)
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = 0.9 * rng.dirichlet(np.ones(2)) + 0.05
            raw = u.conjugate_penalty(p).raw
            best = -np.inf
            for _ in range(400):
                s = random_alloc(rng, 2, kind)
                best = max(best, u.value(s) - p @ s)
            assert raw >= best - 1e-9

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "QuadraticScore"])
    def test_normalization_is_cost_at_zero(self, kind):
        # Duality: min_p L(p) = -C(0), so the shift is the engine's C(0).
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 10):
            thetas = [None]
            if CATALOG[kind].takes_theta:
                theta = rng.uniform(0.1, 5.0, n)
                thetas.append(theta / theta.sum() if kind == "QuadSCPM" else theta)
            for theta in thetas:
                u = make_utility(kind, b=2.0, n_outcomes=n, theta=theta)
                pv = u.conjugate_penalty(rng.dirichlet(np.ones(n)))
                assert abs(pv.normalized - pv.raw - cost(u, np.zeros(n))) <= 1e-12

    def test_min_penalty_vanishes(self):
        u = make_utility("MinSCPM", n_outcomes=4)
        p = np.full(4, 0.25)
        assert u.conjugate_penalty(p).raw == 0.0

    def test_log_penalty_infinite_on_boundary(self):
        u = make_utility("LogSCPM", n_outcomes=2)
        assert math.isinf(u.conjugate_penalty(np.array([1.0, 0.0])).raw)

    @pytest.mark.parametrize("kind, with_theta", [("LMSR", False), ("LMSR", True),
                                                  ("ExponentialSCPM", False),
                                                  ("LogSCPM", True)])
    def test_entropy_penalties_match_xlogy_reference(self, kind, with_theta):
        # The closed forms written with scipy's xlogy, 0 log 0 = 0.
        from scipy.special import xlogy

        def reference(u, p):
            if kind == "LMSR":
                alpha = u.theta.sum()
                kl = np.sum(xlogy(p, p) - xlogy(p, u.theta / alpha), axis=-1)
                return u.b * kl - u.b * math.log(alpha)
            if kind == "ExponentialSCPM":
                return u.b * (np.sum(xlogy(p, p), axis=-1) + math.log(u.n))
            const = float(np.sum(xlogy(u.theta, u.theta) - u.theta))
            with np.errstate(divide="ignore"):
                logp = np.log(p)
            return np.where(np.any((p == 0) & (u.theta > 0), axis=-1), np.inf,
                            -np.sum(u.theta * np.where(p > 0, logp, 0.0), axis=-1) + const)

        for n in (2, 3, 5, 50):
            rng = np.random.default_rng(n)
            faces = rng.dirichlet(np.ones(n), size=n)
            faces[np.arange(n), np.arange(n)] = 0.0
            faces /= faces.sum(axis=-1, keepdims=True)
            P = np.concatenate([rng.dirichlet(np.ones(n), size=20), faces, np.eye(n)])
            theta = rng.uniform(0.1, 5.0, n) if with_theta else None
            for b in (1e-3, 1.0, 1e3):
                u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
                got, want = u.penalty_raw(P), reference(u, P)
                np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
                finite = np.isfinite(want)
                got, want = got[finite], want[finite]
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_simplex_validation(self):
        u = make_utility("LMSR", n_outcomes=2)
        with pytest.raises(ValueError, match="sum to 1"):
            u.conjugate_penalty(np.array([0.9, 0.3]))
        with pytest.raises(ValueError, match="negative"):
            u.conjugate_penalty(np.array([1.2, -0.2]))


class TestLossBoundTerms:
    def test_lmsr_uniform(self):
        b_term, c0 = make_utility("LMSR", b=3.0, n_outcomes=4).loss_bound_terms()
        assert b_term + c0 == pytest.approx(3.0 * math.log(4), rel=1e-14)

    def test_exponential(self):
        b_term, c0 = make_utility("ExponentialSCPM", b=2.0, n_outcomes=5).loss_bound_terms()
        assert b_term == pytest.approx(2.0 * math.log(5), rel=1e-14)
        assert c0 == 0.0

    def test_quadratic_family(self):
        for kind in ("QuadraticScore", "QuadSCPM"):
            b_term, c0 = make_utility(kind, b=2.0, n_outcomes=4).loss_bound_terms()
            assert b_term + c0 == pytest.approx(2.0 * 3.0 / 4.0, rel=1e-14)

    def test_min_is_lossless(self):
        assert make_utility("MinSCPM", n_outcomes=3).loss_bound_terms() == (0.0, 0.0)

    def test_log_is_unbounded(self):
        b_term, _ = make_utility("LogSCPM", n_outcomes=3).loss_bound_terms()
        assert math.isinf(b_term)


class TestQuadSCPMWithdrawal:
    @pytest.mark.parametrize("n", [3, 1024])
    def test_matches_active_set_loop(self, n):
        rng = np.random.default_rng(n)
        u = make_utility("QuadSCPM", b=0.8, n_outcomes=n)
        cases = [np.full(n, 3.7)] + [rng.uniform(0.0, scale, size=n)
                                     for scale in (1e-3, 0.1, 1.0, 10.0) for _ in range(25)]
        for q in cases:
            # Reference: the first active-set size k whose level fits.
            c = np.sort(q + 2.0 * u.b * u.theta)[::-1]
            csum = np.cumsum(c)
            for k in range(1, n + 1):
                t = (csum[k - 1] - 2.0 * u.b) / k
                if (c[k] if k < n else -math.inf) <= t <= c[k - 1]:
                    break
            assert u.solve_withdrawal(q) == t


class TestLinearUtility:
    def test_gradient_is_constant(self):
        u = LinearUtility([0.6, 0.4])
        rng = np.random.default_rng(0)
        for _ in range(10):
            np.testing.assert_allclose(u.grad(rng.normal(size=2)), [0.6, 0.4])
        # batched: one gradient row per allocation row
        np.testing.assert_array_equal(u.grad(np.zeros((3, 2))), np.tile([0.6, 0.4], (3, 1)))


def test_market_path_leaves_scipy_special_unloaded():
    # scipy.special serves only the independent LMSR reference of
    # msr_equivalence_check; loading it doubles the resident memory of a
    # process that trades or analyses the catalog.
    code = """
import math, sys
import numpy as np
import scpm
from scpm import analysis
for kind in scpm.utilities.KINDS:
    u = scpm.make_utility(kind, n_outcomes=3)
    state = scpm.new_market(scpm.MarketConfig(utility=u))
    scpm.fill(state, scpm.Order("t", 0.6, math.inf, np.array([1.0, 0.0, 0.0])))
    scpm.quote(state, np.array([0.0, 1.0, 1.0]))
for kind in scpm.utilities.KINDS:
    for n in (2, 3):
        u = scpm.make_utility(kind, n_outcomes=n)
        if u.monotone:
            analysis.worst_case_loss(u, "numeric", 1)
            analysis.check_properness(u, 50, 1)
            analysis.identify_penalty_family(u)
            analysis.risk_dual_check(u, np.linspace(-0.5, 0.5, n), 400)
assert "scipy.special" not in sys.modules
"""
    src = str(Path(scpm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
