"""Tests for market state, fills, settlement, and the stream formats."""

import importlib
import json
import math

import numpy as np
import pytest

from scpm import (
    MarketConfig,
    MarketState,
    Order,
    StaleFillError,
    UnboundedFillError,
    apply_fill,
    fill,
    implicit_scoring_rule,
    make_utility,
    new_market,
    prices,
    quote,
    run_orders,
    settle,
    solve_t,
)
from scpm.market import FillResult, converge, parse_bundle, read_orders_csv, trace_record
from scpm.utilities import KINDS


def lmsr_market(b=1.0, n=2, mode="integral", q0=None):
    u = make_utility("LMSR", b=b, n_outcomes=n)
    return new_market(MarketConfig(utility=u, charging_mode=mode, initial_q=q0))


class TestConfigAndOrder:
    def test_bad_charging_mode(self):
        u = make_utility("LMSR")
        with pytest.raises(ValueError, match="charging_mode"):
            MarketConfig(utility=u, charging_mode="upfront")

    def test_negative_initial_q(self):
        u = make_utility("LMSR")
        with pytest.raises(ValueError, match="nonnegative"):
            MarketConfig(utility=u, initial_q=[-1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_initial_q(self, bad):
        u = make_utility("LMSR")
        with pytest.raises(ValueError, match="initial_q must be finite"):
            MarketConfig(utility=u, initial_q=[bad, 0.0])

    def test_initial_q_length(self):
        u = make_utility("LMSR", n_outcomes=3)
        with pytest.raises(ValueError, match="length 3"):
            MarketConfig(utility=u, initial_q=[0.0, 0.0])

    @pytest.mark.parametrize("q0", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0],
                                    [-1.0, math.inf], [-1.0, math.nan]])
    def test_nonfinite_initial_q_reported_before_sign(self, q0):
        with pytest.raises(ValueError, match="^initial_q must be finite$"):
            MarketConfig(utility=make_utility("LMSR"), initial_q=q0)

    @pytest.mark.parametrize("bundle", [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0], [],
                                        [[1.0, 0.0]], [2.0, math.nan], 1.0],
                             ids=["nan", "inf", "-inf", "empty", "2-D", "nan-last", "0-D"])
    def test_order_rejects_bad_bundle_with_one_message(self, bundle):
        with pytest.raises(ValueError, match="^bundle must be finite, nonnegative and nonzero$"):
            Order("t", 0.5, 1.0, np.array(bundle, dtype=float))

    def test_order_keeps_its_bundle_max(self):
        order = Order("t", 0.5, 1.0, [0.5, 2.0, 0.0])
        assert order.bundle_max == 2.0 and type(order.bundle_max) is float
        assert "bundle_max" not in repr(order)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="limit price"):
            Order("t", -0.1, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="limit quantity"):
            Order("t", 0.5, 0.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="bundle"):
            Order("t", 0.5, 1.0, np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="bundle"):
            Order("t", 0.5, 1.0, np.array([1.0, -1.0]))

    def test_initial_q_is_a_read_only_copy(self):
        # The caller's array stays its own, and -0.0 is stored as +0.0.
        arr = np.array([-0.0, 1.0])
        cfg = MarketConfig(utility=make_utility("LMSR"), initial_q=arr)
        assert arr.flags.writeable
        assert cfg.initial_q is not arr
        assert not cfg.initial_q.flags.writeable
        assert cfg.initial_q.tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_order_keeps_its_own_bundle(self):
        # The caller may reuse its array for the next order.
        arr = np.array([1.0, 0.0])
        first = Order("t", 0.5, 1.0, arr)
        assert first.bundle is not arr
        assert not first.bundle.flags.writeable
        arr[:] = [0.0, 1.0]
        second = Order("t", 0.5, 1.0, arr)
        np.testing.assert_array_equal(first.bundle, [1.0, 0.0])
        np.testing.assert_array_equal(second.bundle, [0.0, 1.0])


class TestShareVector:
    """A market state owns one read-only q; a fill reads it, and only a fill
    that sells shares makes apply replace it."""

    @pytest.mark.parametrize("pi", [0.7, 0.3], ids=["sold", "rejected"])
    def test_fill_reads_the_state_q(self, pi):
        state = lmsr_market(n=3)
        f = fill(state, Order("t", pi, 1.0, np.array([1.0, 0.0, 0.0])))
        assert f.q_before is state.q
        assert not f.q_before.flags.writeable

    def test_state_q_is_read_only(self):
        state = lmsr_market(n=3)
        with pytest.raises(ValueError, match="read-only"):
            state.q[0] = 1.0
        apply_fill(state, fill(state, Order("t", 0.7, 1.0, np.array([1.0, 0.0, 0.0]))))
        assert state.q[0] > 0.0
        with pytest.raises(ValueError, match="read-only"):
            state.q[0] = 0.0

    def test_apply_without_sale_keeps_q(self):
        state = lmsr_market(n=3)
        q = state.q
        f = fill(state, Order("t", 0.3, 1.0, np.array([1.0, 0.0, 0.0])))
        assert f.x_bar == 0.0
        apply_fill(state, f)
        assert state.q is q
        assert state.journal == [f]

    @pytest.mark.parametrize("kind", KINDS)
    def test_apply_installs_the_fills_end_point(self, kind):
        # A price at or above pi rejects on the solve at q alone, and ends
        # there; a sale ends on the point it solved last, q + a x_bar bit
        # for bit and read only, which apply installs as it is.
        u = make_utility(kind, n_outcomes=3)
        state = new_market(MarketConfig(utility=u, initial_q=np.array([0.3, 0.0, 0.1])))
        rejected = fill(state, Order("t", 0.01, 1.0, np.array([1.0, 1.0, 0.0])))
        assert (rejected.x_bar, rejected.path, rejected.solves) == (0.0, "rejected", 1)
        assert rejected.q_after is rejected.q_before is state.q
        assert rejected.prices_after is rejected.prices_before
        f = fill(state, Order("t", 0.9, 5.0, np.array([0.0, 1.0, 0.5])))
        assert f.x_bar > 0.0 and not f.q_after.flags.writeable
        assert f.q_after.tobytes() == (f.q_before + f.order.bundle * f.x_bar).tobytes()
        apply_fill(state, f)
        assert state.q is f.q_after

    def test_fill_snapshots_an_assigned_writable_q(self):
        state = lmsr_market(n=3)
        state.q = np.array([-0.0, 1.0, 0.0])
        f = fill(state, Order("t", 0.7, 1.0, np.array([1.0, 0.0, 0.0])))
        assert f.q_before is not state.q
        assert not f.q_before.flags.writeable
        assert f.q_before.tobytes() == np.array([0.0, 1.0, 0.0]).tobytes()
        apply_fill(state, f)
        assert not state.q.flags.writeable

    @pytest.mark.parametrize("pi", [0.7, 0.3], ids=["sold", "rejected"])
    def test_stale_fill_after_in_place_edit_of_assigned_q(self, pi):
        state = lmsr_market(n=3)
        state.q = np.zeros(3)
        f = fill(state, Order("t", pi, 1.0, np.array([1.0, 0.0, 0.0])))
        state.q[1] = 1e-300
        with pytest.raises(StaleFillError):
            apply_fill(state, f)


class TestFill:
    def test_quote_at_origin_is_uniform(self):
        state = lmsr_market(n=4)
        assert quote(state, np.array([1.0, 0, 0, 0])) == pytest.approx(0.25)

    @pytest.mark.parametrize("bundle", [[[1.0], [0.0], [0.0]], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                        1.0, []], ids=["3x1", "short", "long", "scalar", "empty"])
    def test_quote_rejects_bundle_of_wrong_shape(self, bundle):
        # The message fill gives for the same bundle.
        with pytest.raises(ValueError, match="^bundle must have length 3$"):
            quote(lmsr_market(n=3), np.array(bundle))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_quote_rejects_nonfinite_bundle(self, bad):
        # Every kind, at q = 0 and, for every kind but LogSCPM, on a state
        # priced 0 exactly, where inf * 0 makes a nan that numpy warns about.
        for kind in KINDS:
            u = make_utility(kind, n_outcomes=2)
            far = new_market(MarketConfig(utility=u, initial_q=[2.0 if kind == "QuadraticScore"
                                                                else 1e3, 0.0]))
            assert (quote(far, np.array([0.0, 1.0])) == 0.0) == (kind != "LogSCPM")
            for state in (new_market(MarketConfig(utility=u)), far):
                with pytest.raises(ValueError, match="^bundle must be finite$"):
                    quote(state, np.array([1.0, bad]))

    def test_fill_is_pure(self):
        state = lmsr_market()
        order = Order("t", 0.6, 1.0, np.array([1.0, 0.0]))
        f = fill(state, order)
        assert f.x_bar > 0
        np.testing.assert_array_equal(state.q, np.zeros(2))
        assert state.collected == 0.0

    def test_fill_stops_at_limit_price(self):
        state = lmsr_market()
        order = Order("t", 0.6, 10.0, np.array([1.0, 0.0]))
        f = fill(state, order)
        apply_fill(state, f)
        assert quote(state, order.bundle) == pytest.approx(0.6, abs=1e-7)

    def test_fill_stops_at_quantity_limit(self):
        state = lmsr_market()
        order = Order("t", 0.99, 0.25, np.array([1.0, 0.0]))
        f = fill(state, order)
        assert f.x_bar == pytest.approx(0.25, abs=1e-9)

    def test_tie_at_current_price_fills_nothing(self):
        state = lmsr_market()
        order = Order("t", 0.5, 1.0, np.array([1.0, 0.0]))
        f = fill(state, order)
        assert f.x_bar == 0.0
        assert f.charge == 0.0

    def test_infinite_limit_bounded_by_price(self):
        state = lmsr_market()
        order = Order("t", 0.8, math.inf, np.array([1.0, 0.0]))
        f = fill(state, order)
        assert math.isfinite(f.x_bar)
        apply_fill(state, f)
        assert quote(state, order.bundle) == pytest.approx(0.8, abs=1e-6)

    def test_infinite_limit_unreachable_price_raises(self):
        state = lmsr_market()
        order = Order("t", 1.0, math.inf, np.array([1.0, 0.0]))
        with pytest.raises(UnboundedFillError):
            fill(state, order)

    def test_infinite_limit_growth_cap(self, monkeypatch):
        # At b = 1e20 the price of e_0 stays below 0.75 for every x up to
        # the cap: x doubles from 1 to 2**60 (62 solves with x = 0), then
        # the fill gives up with a typed error.
        import importlib

        cost_mod = importlib.import_module("scpm.cost")
        points = []
        solve = cost_mod.solve_t

        def counting(u, q):
            points.append(float(q[0]))
            return solve(u, q)

        monkeypatch.setattr(cost_mod, "solve_t", counting)
        order = Order("t", 0.75, math.inf, np.array([1.0, 0.0]))
        with pytest.raises(UnboundedFillError, match="growth cap"):
            fill(lmsr_market(b=1e20), order)
        assert points == [0.0] + [2.0 ** k for k in range(61)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_limit_past_the_float_range_is_no_limit(self, kind):
        # q + a limit overflows, so the order fills as one with no limit.
        # Its end lies within the search's resolution of 0 (LMSR's near
        # x = 1.6e-9, against one float spacing of q + a x at x = 1,
        # 1.9e-6): four kinds end at 0, and QuadraticScore's candidate
        # closes at 9e-10.  LogSCPM's end at q_0 = 1e100 lies near 1e90,
        # past the growth cap of 2**60, so that fillable order raises
        # there: a known gap of the cap, not of the limit.
        u = make_utility(kind, b=1.0, n_outcomes=3)
        q0 = [1e100, 0.0, 0.0] if kind == "LogSCPM" else [40.0, 0.0, 0.0]
        a = np.array([0.0, 1e10, 0.0])
        ends = []
        for limit in (1e308, math.inf):
            state = new_market(MarketConfig(utility=u, initial_q=q0))
            if kind == "LogSCPM":
                with pytest.raises(UnboundedFillError, match="growth cap"):
                    fill(state, Order("t", 0.5, limit, a))
                continue
            f = fill(state, Order("t", 0.5, limit, a))
            assert 0.0 <= f.x_bar <= limit
            assert f.path == ("closed" if kind == "QuadraticScore" else "rejected")
            assert math.isfinite(f.charge)
            assert float(f.prices_after @ a) <= 0.5
            ends.append((f.x_bar, f.charge, f.path, f.solves))
        assert ends[:1] == ends[1:]

    @pytest.mark.parametrize("kind, pi", [("LMSR", 0.9), ("LMSR", 1.0),
                                          ("ExponentialSCPM", 0.9), ("ExponentialSCPM", 1.0),
                                          ("MinSCPM", 0.9), ("MinSCPM", 1.0),
                                          ("LogSCPM", 0.9), ("LogSCPM", 1.0)])
    def test_limit_with_a_finite_point_holds(self, kind, pi):
        # q_0 + a_1 limit is past the largest float, but the point is
        # q + a limit = [1e308, 1e308, 0], where p_1 = 1/2 <= pi: the fill
        # ends at its limit.  LogSCPM's hook at pi = 0.9 takes a Newton step
        # whose den is 0 (numpy's quotient, with no warning) and returns x
        # one float below the limit: the search solves there, then at the
        # limit, a third solve.
        u = make_utility(kind, b=1.0, n_outcomes=3)
        state = new_market(MarketConfig(utility=u, initial_q=[1e308, 0.0, 0.0]))
        f = fill(state, Order("t", pi, 1e308, np.array([0.0, 1.0, 0.0])))
        solves = 3 if (kind, pi) == ("LogSCPM", 0.9) else 2
        assert (f.x_bar, f.path, f.solves) == (1e308, "limit", solves)

    @pytest.mark.parametrize("kind", ["LMSR", "ExponentialSCPM", "LogSCPM", "MinSCPM"])
    def test_finite_point_past_2_970_keeps_its_limit(self, kind):
        # a_1 limit = 1e308 and q_0 = 1.5e308 sit in different states: the
        # point [1.5e308, 1e308, 0] is finite, so the limit of 1e9 holds
        # though p_1 stays near 0 up to x = 1.5e9.  The LMSR family's hook
        # tests the 0/1 bundle without a product a (1 - a), which overflows
        # at a_1 = 1e299.
        u = make_utility(kind, b=1.0, n_outcomes=3)
        state = new_market(MarketConfig(utility=u, initial_q=[1.5e308, 0.0, 0.0]))
        f = fill(state, Order("t", 0.5, 1e9, np.array([0.0, 1e299, 0.0])))
        assert f.x_bar <= 1e9
        assert (f.x_bar, f.path) == (1e9, "limit")

    def test_limit_past_the_float_range_on_a_finite_reach(self):
        # a limit is a float, but q_0 + a_0 limit is not: no limit, so the
        # bracket stops at the growth cap, short of an end past 1e308.
        u = make_utility("LMSR", b=1.0, n_outcomes=3)
        for limit in (1.5e308, math.inf):
            with pytest.raises(UnboundedFillError, match="growth cap"):
                fill(new_market(MarketConfig(utility=u, initial_q=[1e308, 0.0, 0.0])),
                     Order("t", 0.9, limit, np.array([0.8, 1.0, 0.0])))

    def test_infinite_limit_non_monotone_fill_is_finite(self):
        # QuadraticScore prices are unbounded above, so pi >= max(a) is
        # reached: p_0(q + x e_0) = 1/3 + x/3 = 1.2 at x = 2.6.
        u = make_utility("QuadraticScore", b=1.0, n_outcomes=3)
        state = new_market(MarketConfig(utility=u))
        f = fill(state, Order("t", 1.2, math.inf, np.array([1.0, 0.0, 0.0])))
        assert f.x_bar == pytest.approx(2.6, abs=1e-8)
        assert float(f.prices_after[0]) <= 1.2

    def test_fill_solves_each_point_once(self, monkeypatch):
        import importlib

        cost_mod = importlib.import_module("scpm.cost")
        points = []
        solve = cost_mod.solve_t

        def counting(u, q):
            points.append(tuple(q))
            return solve(u, q)

        monkeypatch.setattr(cost_mod, "solve_t", counting)
        f = fill(lmsr_market(n=3), Order("t", 0.6, 2.0, np.array([1.0, 0.0, 0.0])))
        assert 0.0 < f.x_bar < 2.0
        assert f.solves == len(points) == len(set(points))
        assert f.solves <= 4

    def test_far_limit_matches_infinite_limit(self):
        # No closed form for this bundle: the search grows its bracket from 1
        # for a finite limit too, so a far limit does not widen x_bar's error.
        q0 = np.array([0.3, 1.2, 0.7])
        a = np.array([2.0, 0.5, 0.0])
        for pi in (0.9, 1.5, 1.99):
            far, unbounded = (fill(lmsr_market(n=3, q0=q0), Order("t", pi, limit, a))
                              for limit in (1e9, math.inf))
            assert far.path == unbounded.path == "bracket"
            assert abs(far.x_bar - unbounded.x_bar) <= 1e-6 * max(1.0, unbounded.x_bar)

    def test_path_names_how_the_fill_ended(self):
        a = np.array([1.0, 0.0])
        assert fill(lmsr_market(), Order("t", 0.5, 1.0, a)).path == "rejected"
        assert fill(lmsr_market(), Order("t", 0.9, 0.5, a)).path == "limit"
        assert fill(lmsr_market(), Order("t", 0.6, 5.0, a)).path == "closed"
        assert fill(lmsr_market(), Order("t", 0.6, math.inf, a)).path == "closed"
        # A bundle price of 4e-44, far below pi, still has its closed form.
        f = fill(lmsr_market(b=0.01, q0=[0.0, 1.0]), Order("t", 0.5, math.inf, a))
        assert f.path == "closed"
        assert f.x_bar == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_search_that_ends_at_zero_is_rejected(self, kind):
        # pi a hair above p_a, on a bundle with no closed form for most
        # kinds: an end at 0 sells nothing, however the fill reached it.
        u = make_utility(kind, b=1.0, n_outcomes=3)
        state = new_market(MarketConfig(utility=u, initial_q=[0.3, 1.2, 0.7]))
        a = np.array([2.0, 0.5, 0.0])
        f = fill(state, Order("t", quote(state, a) + 1e-12, 10.0, a))
        assert (f.path == "rejected") == (f.x_bar == 0.0)

    def test_fill_below_float_spacing_of_q_is_rejected(self):
        # At q = 1e12 one float spacing, 1.2e-4, is 122 b: b log 1.5 of the
        # bundle, or a limit of 1e-5, leaves q where it was, so nothing is sold.
        a = np.array([1.0, 0.0])
        for order in (Order("t", 0.6, math.inf, a), Order("t", 0.6, 1e-5, a)):
            state = lmsr_market(b=1e-6, q0=[1e12, 1e12])
            f = fill(state, order)
            assert (f.x_bar, f.charge, f.path) == (0.0, 0.0, "rejected")
            assert f.solves <= 4

    def test_end_within_one_step_of_zero_is_rejected(self):
        # x_hat lies below one float spacing of q and prices the bundle above
        # pi: the search's first step from x_hat reaches 0, whose solve the
        # fill holds, and [0, x_hat] ends it (a search from [0, 1] took 13).
        u = make_utility("ExponentialSCPM", b=1.2885754831187525e-06, n_outcomes=3)
        q0 = [17225514652.90035, 17225514652.90035, 17225514652.900345]
        state = new_market(MarketConfig(utility=u, initial_q=q0))
        f = fill(state, Order("t", 0.9408506832356209, math.inf, np.array([0.0, 1.0, 1.0])))
        assert (f.x_bar, f.charge, f.path) == (0.0, 0.0, "rejected")
        assert f.solves <= 3

    def test_certificate_steps_one_float_spacing_of_q(self):
        # At q = 1e8 the spacing, 1.5e-8, is wider than FILL_RTOL: the
        # certificate steps one spacing, and the closed form ends the fill.
        state = lmsr_market(q0=[1e8, 1e8])
        f = fill(state, Order("t", 0.6, math.inf, np.array([1.0, 0.0])))
        assert f.path == "closed"
        assert f.x_bar == pytest.approx(math.log(1.5), abs=2e-8)
        apply_fill(state, f)
        assert state.q[0] > 1e8

    @pytest.mark.parametrize("kind", ["LMSR", "ExponentialSCPM"])
    def test_closed_form_with_underflowed_bundle_price(self, kind):
        # At b = 1e-3 the bundle's price exp(-1000) underflows to 0; the
        # level of each side, a log-sum-exp over q, does not.
        u = make_utility(kind, b=1e-3, n_outcomes=2)
        state = new_market(MarketConfig(utility=u, initial_q=[0.0, 1.0]))
        f = fill(state, Order("t", 0.5, math.inf, np.array([1.0, 0.0])))
        assert f.path == "closed"
        assert f.solves == 3
        assert f.x_bar == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("x_hat", [None, math.nan, math.inf, -1.0, 0.0, 0.3, 0.5, 3.0])
    def test_hook_is_checked_by_the_engine(self, monkeypatch, x_hat):
        # Whatever the hook returns, the fill ends at the root of the engine's
        # own bundle price, b logit(0.6) = log 1.5 for LMSR at q = 0.
        monkeypatch.setattr(type(make_utility("LMSR")), "solve_fill",
                            lambda self, q, a, pi, before, p_a: x_hat)
        for limit in (5.0, math.inf):
            f = fill(lmsr_market(), Order("t", 0.6, limit, np.array([1.0, 0.0])))
            assert f.path == "bracket"
            assert f.x_bar == pytest.approx(math.log(1.5), abs=2e-9)
            # A wrong candidate costs about what no candidate does.
            assert f.solves <= 10

    @pytest.mark.parametrize("kind", ["LMSR", "QuadraticScore", "LogSCPM", "MinSCPM",
                                      "ExponentialSCPM", "QuadSCPM"])
    def test_closed_form_matches_search(self, monkeypatch, kind):
        from scpm.market import FILL_RTOL

        u = make_utility(kind, b=0.7, n_outcomes=4)
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(40):
            q0 = rng.uniform(0.0, 3.0, 4)
            a = np.zeros(4)
            a[rng.choice(4, size=int(rng.integers(1, 4)), replace=False)] = 1.0
            pi = float(rng.uniform(0.05, 0.95))
            limit = float(rng.choice([rng.exponential(5.0), math.inf]))
            cases.append((q0, Order("t", pi, limit, a)))
        closed = [fill(new_market(MarketConfig(utility=u, initial_q=q0)), o) for q0, o in cases]
        monkeypatch.setattr(type(u), "solve_fill", lambda self, q, a, pi, before, p_a: None)
        for (q0, o), c in zip(cases, closed):
            s = fill(new_market(MarketConfig(utility=u, initial_q=q0)), o)
            assert s.path == {"closed": "bracket"}.get(c.path, c.path)
            assert abs(c.x_bar - s.x_bar) <= 2.0 * FILL_RTOL * max(1.0, 2.0 * s.x_bar)
        assert sum(c.path == "closed" for c in closed) >= 10

    def test_minscpm_fills_step_in_few_solves(self):
        # MinSCPM's bundle price is a step; its closed form sits on the
        # step, and its hook goes before the limit where it lies below.  A
        # fill that ends at 0 takes the solves at 0 and one past 0, and is
        # "rejected" whether or not the hook certified it; one that ends
        # past 0, those at its end and one step past it.
        u = make_utility("MinSCPM", b=1.0, n_outcomes=3)
        rng = np.random.default_rng(23)
        state = new_market(MarketConfig(utility=u, initial_q=rng.uniform(0.0, 2.0, 3)))
        paths = []
        for _ in range(300):
            a = np.zeros(3)
            a[rng.choice(3, size=int(rng.integers(1, 3)), replace=False)] = 1.0
            order = Order("t", float(rng.uniform(0.05, 0.95)), float(rng.exponential(20.0)), a)
            f = fill(state, order)
            apply_fill(state, f)
            assert f.solves <= (2 if f.x_bar == 0.0 else 3)
            assert (f.path == "rejected") == (f.x_bar == 0.0)
            # a certified end: past 0, or at 0 one step short of a solved f > 0
            certified = f.path == "closed" or (f.path == "rejected" and f.solves == 2)
            paths.append("certified" if certified else f.path)
        assert "bracket" not in paths
        assert paths.count("certified") >= 100

    @pytest.mark.parametrize("kind", KINDS)
    def test_price_bound_fill_skips_the_limit(self, kind):
        # The hook's candidate lies before the limit, so it and its
        # certificate go first, and the limit is never solved: the solves
        # at 0, at x_hat and one step from it.
        u = make_utility(kind, b=1.0, n_outcomes=3)
        state = new_market(MarketConfig(utility=u, initial_q=[0.0, 1.0, 0.5]))
        f = fill(state, Order("t", 0.75, 50.0, np.array([1.0, 0.0, 0.0])))
        assert (f.path, f.solves) == ("closed", 3)
        assert 0.0 < f.x_bar < 50.0

    def test_any_bundle_hook_goes_before_the_limit(self):
        # QuadraticScore's hook covers every bundle: for a = [2, 2, 0] its
        # end, 2b gap / (a'a - (e'a)^2/N) = 0.375, lies before the limit,
        # so the fill takes the three solves of a certified end, and none
        # at the limit.
        u = make_utility("QuadraticScore", b=1.0, n_outcomes=3)
        state = new_market(MarketConfig(utility=u))
        a = np.array([2.0, 2.0, 0.0])
        f = fill(state, Order("t", quote(state, a) + 0.5, 50.0, a))
        assert (f.x_bar, f.path, f.solves) == (0.37499999999999994, "closed", 3)

    def test_minscpm_fill_on_its_step_takes_two_solves(self):
        # At a tie of the bundle's state with the top state, x_hat = 0 prices
        # the bundle at 1/2 <= pi, and one step past 0 at 1: the fill ends
        # at 0 on the solves at 0 and one step past it, with no limit probe.
        # It sells nothing, so it is "rejected", as every other end at 0.
        u = make_utility("MinSCPM", b=1.0, n_outcomes=3)
        state = new_market(MarketConfig(utility=u, initial_q=[1.0, 1.0, 0.0]))
        f = fill(state, Order("t", 0.75, 50.0, np.array([1.0, 0.0, 0.0])))
        assert (f.x_bar, f.path, f.solves) == (0.0, "rejected", 2)

    @pytest.mark.parametrize("kind, q0", [("LMSR", [0.0, 1.0]), ("ExponentialSCPM", [0.0, 1.0]),
                                          ("QuadSCPM", [0.0, 1.0])])
    def test_underflowed_bundle_price_certifies_before_the_limit(self, kind, q0):
        # p_a underflows to 0 (LMSR, ExponentialSCPM at b = 1e-3), or the
        # clamp holds it at 0 (QuadSCPM): the held prices give no end, and
        # the hook takes it from the levels.  It lies before the limit, so
        # the certificate ends the fill with no solve at the limit.
        u = make_utility(kind, b=1e-3, n_outcomes=2)
        state = new_market(MarketConfig(utility=u, initial_q=q0))
        a = np.array([1.0, 0.0])
        assert quote(state, a) == 0.0
        f = fill(state, Order("t", 0.5, 5.0, a))
        assert (f.path, f.solves) == ("closed", 3)
        assert f.x_bar == pytest.approx(1.0, abs=1e-9)

    def test_probe_order_moves_only_the_solve_count(self, monkeypatch):
        # Limit first or hook first, every fill ends with the same bits; only
        # the solve count moves.  The engine asks the hook first; the limit
        # first order probes a finite limit before anything else.  The
        # limits include x_hat itself and points within one width above it,
        # where a fill whose limit prices the bundle at or below pi ends at
        # "limit".
        from scpm import market

        cases = []
        rng = np.random.default_rng(2101)
        for kind in KINDS:
            for n in (2, 3, 4):
                u = make_utility(kind, b=float(rng.choice([0.05, 1.0, 20.0])), n_outcomes=n)
                for _ in range(8):
                    q0 = u.b * rng.uniform(0.0, 3.0, n)
                    a = np.zeros(n)
                    a[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1.0
                    pi = float(rng.uniform(0.05, 0.95))
                    x_ref = fill(new_market(MarketConfig(utility=u, initial_q=q0)),
                                 Order("t", pi, math.inf, a)).x_bar
                    w = market.FILL_RTOL * max(1.0, x_ref)
                    near = [x_ref, math.nextafter(x_ref, math.inf), x_ref + 0.25 * w,
                            x_ref + 0.5 * w, x_ref + w, x_ref + 2.0 * w] if x_ref > 0.0 else []
                    limits = [float(rng.exponential(3.0 * u.b)), 2.0 * x_ref + u.b, 0.5 * x_ref]
                    cases += [(u, q0, Order("t\"\u00e9", pi, limit, a), limit in near)
                              for limit in limits + near if limit > 0.0]

        def run():
            out = []
            for u, q0, order, _ in cases:
                state = new_market(MarketConfig(utility=u, initial_q=q0))
                f = fill(state, order)
                apply_fill(state, f)
                out.append((f.x_bar, f.charge, f.prices_before.tobytes(),
                            f.prices_after.tobytes(), f.path, trace_record(f, state.collected)))
            return out

        hook_first = run()
        price_bound_end = market._price_bound_end

        def limit_first(u, q, order, before, p_a, excess, width):
            # excess keeps its solves, so the engine's own order reads this
            # probe again without a solve.
            if math.isfinite(order.limit) and excess(order.limit) <= 0.0:
                return order.limit, "limit"
            return price_bound_end(u, q, order, before, p_a, excess, width)

        monkeypatch.setattr(market, "_price_bound_end", limit_first)
        assert run() == hook_first
        # The limit ends a fill exactly where it prices the bundle at or below pi.
        near_limit = 0
        for (u, q0, order, near), (*_, path, _) in zip(cases, hook_first):
            q_limit = np.asarray(q0) + order.bundle * order.limit
            below = quote(new_market(MarketConfig(utility=u, initial_q=q_limit)),
                          order.bundle) <= order.pi
            if quote(new_market(MarketConfig(utility=u, initial_q=q0)), order.bundle) < order.pi:
                assert (path == "limit") == below
                near_limit += below and near
        assert near_limit >= 100

    @pytest.mark.parametrize("a2", [1e-6, 1e-10, 1e-13, 2.9e-35])
    def test_minscpm_small_bundle_ends_at_zero(self, a2):
        # From q = 0 any x > 0 makes state 1 the one argmax of q and prices
        # the bundle at a2 > pi: the fill ends at 0, however small a2 is.
        u = make_utility("MinSCPM", b=1.0, n_outcomes=2)
        f = fill(new_market(MarketConfig(utility=u)),
                 Order("t", 0.75 * a2, math.inf, np.array([0.0, a2])))
        assert f.x_bar == 0.0
        assert f.charge == 0.0

    def test_integral_charge_equals_cost_difference(self):
        from scpm import cost

        state = lmsr_market()
        order = Order("t", 0.7, 2.0, np.array([1.0, 0.0]))
        f = fill(state, order)
        u = state.config.utility
        expected = cost(u, order.bundle * f.x_bar) - cost(u, np.zeros(2))
        assert f.charge == pytest.approx(expected, rel=1e-12)

    def test_final_mode_charges_final_price(self):
        state = lmsr_market(mode="final")
        order = Order("t", 0.7, 2.0, np.array([1.0, 0.0]))
        f = fill(state, order)
        assert f.charge == pytest.approx(f.x_bar * f.prices_after[0], rel=1e-12)

    def test_final_mode_charges_more_when_buying_up(self):
        # charging everything at the worst (final) price exceeds the integral
        for_integral = fill(lmsr_market(), Order("t", 0.7, 2.0, np.array([1.0, 0.0])))
        for_final = fill(lmsr_market(mode="final"), Order("t", 0.7, 2.0, np.array([1.0, 0.0])))
        assert for_final.charge > for_integral.charge

    def test_stale_fill_rejected(self):
        state = lmsr_market()
        order = Order("t", 0.7, 1.0, np.array([1.0, 0.0]))
        f = fill(state, order)
        apply_fill(state, f)
        with pytest.raises(StaleFillError):
            apply_fill(state, f)

    @pytest.mark.parametrize("edited", [[0.0, 1e-300, 0.0], [math.nan, 0.0, 0.0], [0.0, 0.0],
                                        [0.0], [0.0] * 4],
                             ids=["value", "nan", "shorter", "one", "longer"])
    def test_stale_fill_after_q_edit(self, edited):
        # A length-1 q would broadcast against the fill's q_before.
        state = lmsr_market(n=3)
        f = fill(state, Order("t", 0.7, 1.0, np.array([1.0, 0.0, 0.0])))
        state.q = np.array(edited)
        with pytest.raises(StaleFillError):
            apply_fill(state, f)
        state.q = np.zeros(3)
        apply_fill(state, f)
        assert state.journal == [f]

    @pytest.mark.parametrize(
        "kind", ["LMSR", "LogSCPM", "MinSCPM", "ExponentialSCPM", "QuadSCPM"]
    )
    def test_post_fill_price_never_exceeds_pi(self, kind):
        u = make_utility(kind, b=1.0, n_outcomes=3)
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = new_market(MarketConfig(utility=u, initial_q=rng.uniform(0, 1, 3)))
            a = np.eye(3)[rng.integers(3)]
            order = Order("t", float(rng.uniform(0.1, 0.95)), 2.0, a)
            f = fill(state, order)
            if 0.0 < f.x_bar < order.limit:
                assert float(f.prices_after @ a) <= order.pi + 1e-6


class TestSettlement:
    def test_settle_pays_outstanding_shares(self):
        state = lmsr_market()
        run_orders(state, [Order("t", 0.7, 1.0, np.array([1.0, 0.0]))])
        rep = settle(state, 0)
        assert rep.payout == pytest.approx(state.q[0])
        assert rep.profit == pytest.approx(state.collected - state.q[0])

    def test_settle_bounds_checked(self):
        state = lmsr_market()
        with pytest.raises(ValueError, match="outcome index"):
            settle(state, 2)

    @pytest.mark.parametrize("outcome", [1.5, 2.0, -1.0, math.nan, math.inf, True, np.True_],
                             ids=["1.5", "2.0", "-1.0", "nan", "inf", "True", "np.True_"])
    def test_settle_rejects_a_non_index(self, outcome):
        state = lmsr_market()
        with pytest.raises(ValueError, match="outcome index"):
            settle(state, outcome)

    @pytest.mark.parametrize("outcome", [1.0, np.int64(1), np.float64(1.0)],
                             ids=["1.0", "np.int64", "np.float64"])
    def test_settle_takes_an_integral_outcome(self, outcome):
        state = lmsr_market()
        run_orders(state, [Order("t", 0.7, 1.0, np.array([0.0, 1.0]))])
        rep = settle(state, outcome)
        assert rep == settle(state, 1) and type(rep.outcome) is int

    def test_loss_bound_flag(self):
        state = lmsr_market(b=1.0, n=2)
        run_orders(state, [Order("t", 0.9, 5.0, np.array([1.0, 0.0]))])
        for i in range(2):
            assert settle(state, i).bound_ok


    def test_loss_bound_slack_is_relative(self):
        # At b = 1e-6 the bound b log 2 is 6.9e-7: a shortfall 4e-7 beyond it
        # is no rounding, though it is below an absolute slack of 1e-6.
        state = lmsr_market(b=1e-6, n=2)
        run_orders(state, [Order("t", 0.9, 5.0, np.array([1.0, 0.0]))])
        assert all(settle(state, i).bound_ok for i in range(2))
        rep = settle(state, 0)
        state.collected = state.q[0] - rep.loss_bound - 4e-7
        assert not settle(state, 0).bound_ok

    def test_loss_bound_from_the_initial_shares(self):
        # The initial shares are owed from the start, and no charge paid for
        # them: the bound is B + C(q0), here log(e^5 + 2), not C(0) = log 3.
        state = lmsr_market(b=1.0, n=3, q0=[5.0, 0.0, 0.0])
        reports = [settle(state, i) for i in range(3)]
        assert reports[0].profit == -5.0
        for rep in reports:
            assert rep.loss_bound == pytest.approx(math.log(math.exp(5.0) + 2.0), rel=1e-15)
            assert rep.bound_ok

    @pytest.mark.parametrize("kind", ["LMSR", "ExponentialSCPM", "QuadSCPM", "QuadraticScore"])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_adversary_comes_within_delta_of_the_bound(self, kind, seeded):
        # B + C(q0) is the worst case, not only a bound.  An adversary evens
        # the shares of the outcomes other than i, then buys i until p_i >=
        # 1 - 1e-6; settled on i, the loss comes within delta = 1.1e-6 b of
        # B + C(q0), for every i (the priors are uniform, so every outcome
        # is the worst).  The gap left is -b log p_i <= 1.0000005e-6 b for
        # LMSR and ExponentialSCPM, and b |p - e_i|^2 or less, about b 1e-12,
        # for the quadratic kinds.  Evening matters to QuadraticScore alone:
        # from uneven shares its price reaches e_i along no single outcome.
        b, n = 1.5, 3
        u = make_utility(kind, b=b, n_outcomes=n)
        q0 = b * np.random.default_rng(82184).uniform(0.0, 3.0, n) if seeded else np.zeros(n)
        for i in range(n):
            state = new_market(MarketConfig(utility=u, initial_q=q0))
            others = [j for j in range(n) if j != i]
            top = max(q0[others])
            for j in others:
                if q0[j] < top:
                    apply_fill(state, fill(state, Order("even", 10.0, top - q0[j], np.eye(n)[j])))
            apply_fill(state, fill(state, Order("buy", 1.0 - 0.5e-6, math.inf, np.eye(n)[i])))
            assert prices(u, state.q)[i] >= 1.0 - 1e-6
            rep = settle(state, i)
            assert rep.bound_ok
            assert -rep.profit >= rep.loss_bound - 1.1e-6 * b

    def test_fresh_market_bound_makes_no_solve(self, monkeypatch):
        # At q0 = 0 the bound is the catalog's B + C(0), with no cost solve.
        state = lmsr_market(b=1.0, n=3)
        engine = importlib.import_module("scpm.cost")
        monkeypatch.setattr(engine, "solve_t", lambda u, q: pytest.fail("solved"))
        assert settle(state, 0).loss_bound == math.log(3.0)


class TestRecords:
    @staticmethod
    def records():
        """Two builds of each record that holds an array, with equal fields
        but arrays of their own."""
        u = make_utility("LMSR", n_outcomes=3)
        config = MarketConfig(utility=u)
        state = new_market(config)
        order = Order("t", 0.6, 1.0, [0.5, 2.0, 0.0])
        return {
            "Order": lambda: Order("t", 0.5, 1.0, [0.5, 2.0, 0.0]),
            "MarketConfig": lambda: MarketConfig(utility=u),
            "FillResult": lambda: fill(state, order),
            "MarketState": lambda: MarketState(config=config, q=np.zeros(3)),
            "CostSolveResult": lambda: solve_t(u, np.zeros(3)),
            "ScoringRuleView": lambda: implicit_scoring_rule(u, np.zeros(3)),
        }

    @pytest.mark.parametrize("name", ["Order", "MarketConfig", "FillResult", "MarketState",
                                      "CostSolveResult", "ScoringRuleView"])
    def test_array_records_compare_by_identity(self, name):
        # An == of their arrays raised ValueError, and hash raised TypeError.
        make = self.records()[name]
        first, second = make(), make()
        assert type(first).__name__ == name
        assert not first == second and first != second
        assert first == first
        assert len({first, second, first}) == 2

    def test_float_records_compare_by_value(self):
        state = lmsr_market()
        assert settle(state, 0) == settle(state, 0)
        u = make_utility("LMSR", n_outcomes=2)
        assert u.conjugate_penalty([0.5, 0.5]) == u.conjugate_penalty([0.5, 0.5])


class TestConverge:
    @pytest.mark.parametrize("belief", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_belief_rejected(self, belief):
        # No comparison holds for nan: a nan belief fails the simplex test
        # before any sweep, where it used to trade.
        state = lmsr_market()
        with pytest.raises(ValueError, match="simplex"):
            converge(state, belief)
        assert not state.journal and state.q.tolist() == [0.0, 0.0]


class TestStreamFormats:
    def test_read_orders_csv_limit_reads_as_float(self, tmp_path):
        path = tmp_path / "orders.csv"
        limits = ["inf", " INF ", "2.5", "Infinity"]
        path.write_text("trader_id,pi,limit,bundle\n"
                        + "".join(f"t,0.6,{limit},1;0\n" for limit in limits))
        assert [o.limit for o in read_orders_csv(path, 2)] == [math.inf, math.inf, 2.5, math.inf]

    def test_parse_bundle_length(self):
        with pytest.raises(ValueError, match="components"):
            parse_bundle("1;0", 3)

    def test_read_orders_csv(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text(
            "trader_id,pi,limit,bundle\n"
            "alice,0.6,1.5,1;0\n"
            "bob,0.3,inf,0;1\n"
        )
        orders = read_orders_csv(path, 2)
        assert len(orders) == 2
        assert orders[0].trader_id == "alice"
        assert orders[1].limit == math.inf
        np.testing.assert_array_equal(orders[1].bundle, [0.0, 1.0])

    def test_read_orders_csv_bad_header(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("who,price,qty,what\n")
        with pytest.raises(ValueError, match="expected header"):
            read_orders_csv(path, 2)

    def test_read_orders_csv_reports_line(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("trader_id,pi,limit,bundle\nalice,0.6,1.5,1;0\nbob,x,1,0;1\n")
        with pytest.raises(ValueError, match=":3:"):
            read_orders_csv(path, 2)

    def test_trace_record_round_trips(self):
        state = lmsr_market()
        order = Order("t1", 0.7, 1.0, np.array([1.0, 0.0]))
        f = fill(state, order)
        apply_fill(state, f)
        rec = json.loads(trace_record(f, state.collected))
        assert sorted(rec) == ["charge", "collected_after", "order", "prices_after",
                               "prices_before", "x_bar"]
        assert rec["order"]["trader_id"] == "t1"
        assert rec["x_bar"] == f.x_bar
        assert rec["charge"] == f.charge
        assert rec["collected_after"] == state.collected

    def test_trace_record_inf_limit_serializes(self):
        state = lmsr_market()
        order = Order("t1", 0.7, math.inf, np.array([1.0, 0.0]))
        f = fill(state, order)
        line = trace_record(f, 0.0)
        assert json.loads(line)["order"]["limit"] == "inf"

    def test_trace_record_bytes_pinned(self):
        # The exact line: keys sorted, ", " and ": " separators, non-ASCII
        # escaped, floats by repr, an infinite limit as "inf".
        order = Order('q"b\\\u00e9', 0.25, math.inf, np.array([1.0, 0.0, 0.5]))
        f = FillResult(x_bar=0.1, charge=1 / 3, prices_before=np.array([0.5, 0.25, 0.25]),
                       prices_after=np.array([2 / 3, 1e-17, 1 / 3]), order=order,
                       q_before=np.zeros(3), q_after=np.zeros(3), solves=3,
                       path="closed")
        assert trace_record(f, 1e21) == (
            '{"charge": 0.3333333333333333, "collected_after": 1e+21, "order": {"bundle": '
            '[1.0, 0.0, 0.5], "limit": "inf", "pi": 0.25, "trader_id": "q\\"b\\\\\\u00e9"}, '
            '"prices_after": [0.6666666666666666, 1e-17, 0.3333333333333333], '
            '"prices_before": [0.5, 0.25, 0.25], "x_bar": 0.1}'
        )

    # The first eight ids name each row by its first six values, as pytest
    # would; each later row sends exactly one field through the encoder and
    # formats every other directly.
    @pytest.mark.parametrize("trader_id, pi, limit, charge, collected, before, after", [
        pytest.param('q"b\\\u00e9\u2603', 0.25, 2.5, 1 / 3, 1e21, [0.5, 0.25, 0.25],
                     [2 / 3, 1e-17, 1 / 3],
                     id='q"b\\\u00e9\u2603-0.25-2.5-0.3333333333333333-1e+21-before0'),
        pytest.param("t", 1, 2.5, 0.1, 2.0, [0.5, 0.25, 0.25], [2 / 3, 1e-17, 1 / 3],
                     id="t-1-2.5-0.1-2.0-before1"),
        pytest.param("t", 0.25, 3, 0.1, 2, [0.5, 0.25, 0.25], [2 / 3, 1e-17, 1 / 3],
                     id="t-0.25-3-0.1-2-before2"),
        pytest.param("t", np.float64(0.25), math.inf, np.float64(0.1), 0.5, [0.5, 0.25, 0.25],
                     [2 / 3, 1e-17, 1 / 3], id="t-0.25-inf-0.1-0.5-before3"),
        pytest.param("t", 0.25, math.inf, math.nan, math.inf, [0.5, 0.25, 0.25],
                     [2 / 3, 1e-17, 1 / 3], id="t-0.25-inf-nan-inf-before4"),
        pytest.param("t", 0.25, 2.5, -math.inf, 0.0, [0.5, math.nan, 0.25],
                     [2 / 3, 1e-17, 1 / 3], id="t-0.25-2.5--inf-0.0-before5"),
        pytest.param("t", 0.25, 2.5, True, -0.0, np.array([1, 0, 0]), np.array([0, 1, 0]),
                     id="t-0.25-2.5-True--0.0-before6"),
        pytest.param(7, 0.25, 2.5, 0.1, 0.0, np.array([True, False, False]),
                     [2 / 3, 1e-17, 1 / 3], id="7-0.25-2.5-0.1-0.0-before7"),
        pytest.param(7, 0.25, 2.5, 0.1, 2.0, [0.5, 0.25, 0.25], [2 / 3, 1e-17, 1 / 3],
                     id="int-trader-id-alone"),
        pytest.param("t", np.float64(0.25), 2.5, 0.1, 2.0, [0.5, 0.25, 0.25],
                     [2 / 3, 1e-17, 1 / 3], id="float64-pi-alone"),
        pytest.param("t", 0.25, 3, 0.1, 2.0, [0.5, 0.25, 0.25], [2 / 3, 1e-17, 1 / 3],
                     id="int-limit-alone"),
        pytest.param("t", 0.25, 2.5, 0.1, 2.0, [0.5, 0.25, 0.25], [2 / 3, math.nan, 1 / 3],
                     id="nan-in-prices-after-alone"),
        pytest.param("t", 0.25, 2.5, 0.1, 2.0, [0.5, 0.25, math.nan], [2 / 3, 1e-17, 1 / 3],
                     id="nan-in-prices-before-alone"),
    ])
    def test_trace_record_is_json_dumps(self, trader_id, pi, limit, charge, collected, before,
                                        after):
        # Formatted directly or through the encoder, the line is json.dumps'.
        order = Order(trader_id, pi, limit, np.array([1.0, 0.0, 2.5]))
        f = FillResult(x_bar=0.1, charge=charge, prices_before=np.array(before),
                       prices_after=np.array(after), order=order,
                       q_before=np.zeros(3), q_after=np.zeros(3), solves=3,
                       path="closed")
        rec = {"order": {"trader_id": trader_id, "pi": pi,
                         "limit": "inf" if math.isinf(limit) else limit,
                         "bundle": order.bundle.tolist()},
               "x_bar": 0.1, "charge": charge, "prices_before": f.prices_before.tolist(),
               "prices_after": f.prices_after.tolist(), "collected_after": collected}
        assert trace_record(f, collected) == json.dumps(rec, sort_keys=True)

    def test_run_orders_collects_trace(self):
        state = lmsr_market()
        orders = [
            Order("a", 0.6, 0.5, np.array([1.0, 0.0])),
            Order("b", 0.4, 0.5, np.array([0.0, 1.0])),
        ]
        trace = []
        run_orders(state, orders, trace=trace)
        assert len(trace) == 2
        assert state.collected == pytest.approx(sum(json.loads(t)["charge"] for t in trace))
