"""Tests for market state, fills, settlement, and the stream formats."""

import json
import math

import numpy as np
import pytest

from scpm import (
    MarketConfig,
    Order,
    StaleFillError,
    UnboundedFillError,
    apply_fill,
    fill,
    make_utility,
    new_market,
    quote,
    run_orders,
    settle,
)
from scpm.market import parse_bundle, parse_limit, read_orders_csv, trace_record


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

    def test_order_validation(self):
        with pytest.raises(ValueError, match="limit price"):
            Order("t", -0.1, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="limit quantity"):
            Order("t", 0.5, 0.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="bundle"):
            Order("t", 0.5, 1.0, np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="bundle"):
            Order("t", 0.5, 1.0, np.array([1.0, -1.0]))


class TestFill:
    def test_quote_at_origin_is_uniform(self):
        state = lmsr_market(n=4)
        assert quote(state, np.array([1.0, 0, 0, 0])) == pytest.approx(0.25)

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
                            lambda self, q, a, pi, p_a: x_hat)
        for limit in (5.0, math.inf):
            f = fill(lmsr_market(), Order("t", 0.6, limit, np.array([1.0, 0.0])))
            assert f.path == "bracket"
            assert f.x_bar == pytest.approx(math.log(1.5), abs=2e-9)

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
        monkeypatch.setattr(type(u), "solve_fill", lambda self, q, a, pi, p_a: None)
        for (q0, o), c in zip(cases, closed):
            s = fill(new_market(MarketConfig(utility=u, initial_q=q0)), o)
            assert s.path == {"closed": "bracket"}.get(c.path, c.path)
            assert abs(c.x_bar - s.x_bar) <= 2.0 * FILL_RTOL * max(1.0, 2.0 * s.x_bar)
        assert sum(c.path == "closed" for c in closed) >= 10

    def test_minscpm_fills_step_in_few_solves(self):
        # MinSCPM's bundle price is a step; its closed form sits on the
        # step.  A fill that ends at 0 takes the solves at 0, at the limit
        # and one past 0; a price-bound one the two of the certificate.
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
            assert f.solves <= (3 if f.x_bar == 0.0 else 4)
            paths.append(f.path)
        assert "bracket" not in paths
        assert paths.count("closed") >= 100

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

    def test_loss_bound_flag(self):
        state = lmsr_market(b=1.0, n=2)
        run_orders(state, [Order("t", 0.9, 5.0, np.array([1.0, 0.0]))])
        for i in range(2):
            assert settle(state, i).bound_ok


class TestStreamFormats:
    def test_parse_limit_inf(self):
        assert parse_limit("inf") == math.inf
        assert parse_limit(" INF ") == math.inf
        assert parse_limit("2.5") == 2.5

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
