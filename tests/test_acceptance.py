"""Acceptance gate: one test per headline claim, each printing a PASS/FAIL line.

Expected values are recomputed in-test from independent closed forms or
from the dumb oracles in scpm.oracle, never copied from the engine.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from scpm import (
    MarketConfig,
    Order,
    apply_fill,
    check_properness,
    converge,
    fill,
    make_utility,
    msr_equivalence_check,
    new_market,
    risk_measure,
    risk_dual_check,
    solve_t,
    worst_case_loss,
)
from scpm.cost import cost, prices
from scpm.oracle import cross_check
from scpm.utilities import KINDS

from linear_utility import LinearUtility

BOUNDED_KINDS = [k for k in KINDS if k != "LogSCPM"]
MONOTONE_KINDS = [k for k in KINDS if k != "QuadraticScore"]
GRID_COMBOS = [(b, n) for b in (1.0, 10.0) for n in (2, 5, 10)]


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_loss_table():
    """Numeric worst-case loss reproduces the analytic mechanism table."""
    start = time.monotonic()
    worst_rel = 0.0
    for b, n in GRID_COMBOS:
        expected = {
            "LMSR": b * math.log(n),
            "ExponentialSCPM": b * math.log(n),
            "QuadraticScore": b * (n - 1) / n,
            "QuadSCPM": b * (n - 1) / n,  # uniform prior
            "MinSCPM": 0.0,
            "LogSCPM": math.inf,
        }
        for kind in KINDS:
            u = make_utility(kind, b=b, n_outcomes=n)
            num = worst_case_loss(u, method="numeric").total
            ana = expected[kind]
            assert worst_case_loss(u).total == pytest.approx(ana, abs=1e-12) or (
                math.isinf(ana) and math.isinf(worst_case_loss(u).total)
            )
            if math.isinf(ana):
                assert math.isinf(num), f"{kind} b={b} n={n}: numeric {num}, expected inf"
            else:
                rel = abs(num - ana) / max(1.0, abs(ana))
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-6, f"{kind} b={b} n={n}: numeric {num} vs {ana}"
    elapsed = time.monotonic() - start
    verdict(1, "numeric loss matches analytic table",
            worst_rel <= 1e-6 and elapsed < 10.0,
            f"max rel err {worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_02_lmsr_closed_form():
    """Engine cost/prices equal the log-sum-exp / softmax closed forms."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for b, n in GRID_COMBOS:
        u = make_utility("LMSR", b=b, n_outcomes=n)
        for _ in range(1000):
            q = rng.uniform(0.0, 5.0 * b, size=n)
            res = solve_t(u, q)
            worst = max(worst, abs(res.cost - b * logsumexp(q / b)))
            worst = max(worst, float(np.max(np.abs(res.prices - softmax(q / b)))))
    elapsed = time.monotonic() - start
    verdict(2, "LMSR matches closed-form cost and prices",
            worst <= 1e-8 and elapsed < 5.0,
            f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_simplex_and_translation():
    """Prices sum to one and the cost translates by d along the all-ones ray."""
    rng = np.random.default_rng(3)
    worst_sum = 0.0
    worst_shift = 0.0
    for kind in KINDS:
        u = make_utility(kind, b=1.0, n_outcomes=3)
        for _ in range(1000):
            q = rng.uniform(0.0, 4.0, size=3)
            d = rng.uniform(0.0, 2.0)
            res = solve_t(u, q)
            worst_sum = max(worst_sum, abs(float(res.prices.sum()) - 1.0))
            shifted = cost(u, q + d)
            worst_shift = max(worst_shift, abs(shifted - res.cost - d))
    verdict(3, "prices on the simplex, cost translation-equivariant",
            worst_sum <= 1e-8 and worst_shift <= 1e-8,
            f"sum err {worst_sum:.2e}, shift err {worst_shift:.2e}")


def _profit_grid(u, q0, gamma, limit, a, mode):
    grid = np.linspace(0.0, 1.0, 101)
    profit = np.empty(grid.size)
    for k, pi in enumerate(grid):
        state = new_market(MarketConfig(utility=u, charging_mode=mode, initial_q=q0))
        f = fill(state, Order("t", float(pi), limit, a))
        profit[k] = gamma * f.x_bar - f.charge
    return grid, profit


def test_criterion_04_truthfulness():
    """Integral charging makes reporting the true valuation optimal;
    final-price charging does not."""
    rng = np.random.default_rng(44)
    pool = ["LMSR", "LogSCPM", "ExponentialSCPM", "QuadSCPM", "QuadraticScore"]
    step = 0.01
    worst_gap = 0.0
    cases = 0
    while cases < 20:
        kind = pool[rng.integers(len(pool))]
        n = int(rng.integers(2, 4))
        u = make_utility(kind, b=1.0, n_outcomes=n)
        q0 = rng.uniform(0.0, 1.0, size=n)
        i = int(rng.integers(n))
        a = np.eye(n)[i]
        p0 = float(prices(u, q0) @ a)
        gamma = float(rng.uniform(0.1, 0.9))
        if gamma < p0 + 0.05 or gamma > 0.92:
            continue
        cases += 1
        grid, profit = _profit_grid(u, q0, gamma, 50.0, a, "integral")
        best_pi = grid[int(np.argmax(profit))]
        worst_gap = max(worst_gap, abs(best_pi - gamma))
        assert abs(best_pi - gamma) <= step + 1e-9, (
            f"{kind} n={n} gamma={gamma:.3f}: argmax pi {best_pi:.3f}"
        )

    # non-truthfulness witness under final-price charging
    u = make_utility("LMSR", b=1.0, n_outcomes=2)
    gamma = 0.8
    grid, profit = _profit_grid(u, np.zeros(2), gamma, 3.0, np.eye(2)[0], "final")
    k_best = int(np.argmax(profit))
    k_true = int(np.argmin(np.abs(grid - gamma)))
    witness = grid[k_best] != grid[k_true] and profit[k_best] > profit[k_true] + 1e-6
    verdict(4, "integral charging is truthful; final-price is not",
            worst_gap <= step + 1e-9 and witness,
            f"max |argmax-gamma| {worst_gap:.3f}, witness pi {grid[k_best]:.2f} vs {gamma}")


def test_criterion_05_msr_equivalence():
    """Engine fills equal a direct scoring-rule cost-difference market."""
    worst = 0.0
    for rule in ("LMSR", "QuadraticScore"):
        rep = msr_equivalence_check(rule, b=1.0, n_outcomes=2, n_orders=100, seed=17)
        worst = max(worst, rep.max_x_diff, rep.max_charge_diff)
    verdict(5, "market-scoring-rule equivalence on shared order streams",
            worst <= 1e-8, f"max diff {worst:.2e}")


def test_criterion_06_properness():
    """Gradient-residual properness across the catalog plus counterexamples."""
    ok = True
    worst = 0.0
    for kind in ("LMSR", "LogSCPM", "ExponentialSCPM", "QuadSCPM", "QuadraticScore"):
        rep = check_properness(make_utility(kind, n_outcomes=3), n_samples=200)
        worst = max(worst, rep.max_gradient_residual)
        ok = ok and rep.proper and rep.strictly_proper
        assert rep.max_gradient_residual <= 1e-6, f"{kind}: {rep}"
    rep_min = check_properness(make_utility("MinSCPM", n_outcomes=3), n_samples=200)
    ok = ok and rep_min.proper and not rep_min.strictly_proper
    rep_lin = check_properness(LinearUtility([0.5, 0.3, 0.2]), n_samples=200)
    ok = ok and not rep_lin.proper
    verdict(6, "properness verdicts (strict / proper-only / improper)",
            ok, f"max residual {worst:.2e}")


def test_criterion_07_risk_measure():
    """Convexity, monotonicity, translation, and the conjugate dual identity."""
    rng = np.random.default_rng(7)
    worst_axiom = 0.0
    for kind in MONOTONE_KINDS:
        u = make_utility(kind, b=1.0, n_outcomes=3)
        for _ in range(500):
            z1 = rng.uniform(-2.0, 2.0, size=3)
            z2 = rng.uniform(-2.0, 2.0, size=3)
            lam = float(rng.uniform())
            c = float(rng.uniform(-1.0, 1.0))
            r1 = risk_measure(u, z1).rho
            r2 = risk_measure(u, z2).rho
            rmix = risk_measure(u, lam * z1 + (1 - lam) * z2).rho
            worst_axiom = max(worst_axiom, rmix - (lam * r1 + (1 - lam) * r2))
            rup = risk_measure(u, z1 + rng.uniform(0.0, 1.0, size=3)).rho
            worst_axiom = max(worst_axiom, rup - r1)
            rshift = risk_measure(u, z1 + c).rho
            worst_axiom = max(worst_axiom, abs(rshift - (r1 - c)))
    assert worst_axiom <= 1e-9

    worst_gap = 0.0
    for kind in ("MinSCPM", "LMSR", "ExponentialSCPM", "QuadSCPM"):
        for n, res in ((2, 4000), (3, 400)):
            u = make_utility(kind, b=1.0, n_outcomes=n)
            for _ in range(5):
                Z = rng.uniform(-0.5, 0.5, size=n)
                worst_gap = max(worst_gap, risk_dual_check(u, Z, grid_resolution=res).dual_gap)
    verdict(7, "risk axioms and penalty-dual identity",
            worst_axiom <= 1e-9 and worst_gap <= 1e-4,
            f"axiom err {worst_axiom:.2e}, dual gap {worst_gap:.2e}")


def test_criterion_08_oracle_cross_checks():
    """Engine vs dense-scan / quadrature / step-scan oracles."""
    start = time.monotonic()
    worst_cost = worst_charge = worst_fill = 0.0
    for c in cross_check(np.random.default_rng(8)):
        scope, kind = c.name.split()[:2]
        if scope == "cost":
            worst_cost = max(worst_cost, c.gap)
        elif scope == "charge":
            worst_charge = max(worst_charge, c.gap - (1e-3 if kind == "MinSCPM" else 1e-4))
        else:
            worst_fill = max(worst_fill, c.gap)
    elapsed = time.monotonic() - start
    verdict(8, "cost/charge/fill agree with independent oracles",
            worst_cost <= 1e-6 and worst_charge <= 0.0
            and worst_fill <= 2e-4 and elapsed < 60.0,
            f"cost {worst_cost:.2e}, fill {worst_fill:.2e}, {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore:QuadraticScore produced negative prices")
def test_criterion_09_loss_bound_in_simulation():
    """Worst-outcome P&L never dips below -(B + C(0)) on random streams."""
    rng = np.random.default_rng(9)
    worst_margin = math.inf
    for kind in BOUNDED_KINDS:
        u = make_utility(kind, b=1.0, n_outcomes=3)
        b_term, c0 = u.loss_bound_terms()
        bound = b_term + c0
        for _ in range(100):
            state = new_market(MarketConfig(utility=u))
            for k in range(50):
                bundle = rng.integers(0, 2, size=3).astype(float)
                if not bundle.any() or bundle.all():
                    bundle = np.eye(3)[k % 3]
                order = Order(
                    f"t{k}",
                    pi=float(rng.uniform(0.05, 0.95)),
                    limit=float(rng.uniform(0.1, 2.0)),
                    bundle=bundle,
                )
                apply_fill(state, fill(state, order))
            pnl = state.collected - float(state.q.max())
            margin = pnl + bound
            worst_margin = min(worst_margin, margin)
            assert pnl >= -bound - 1e-6, f"{kind}: pnl {pnl}, bound {bound}"
    verdict(9, "simulated losses respect the analytic bound",
            worst_margin >= -1e-6, f"worst margin above bound {worst_margin:.2e}")


def test_criterion_10_belief_convergence():
    """A single truthful limit-order agent drags prices to its belief."""
    u = make_utility("LMSR", b=1.0, n_outcomes=2)
    belief = np.array([0.7, 0.3])
    state = new_market(MarketConfig(utility=u))
    sweeps = converge(state, belief)
    gap = float(np.max(np.abs(prices(u, state.q) - belief)))
    verdict(10, "prices converge to the agent's belief",
            gap <= 1e-3 and sweeps <= 100, f"gap {gap:.2e} after {sweeps} sweeps")


def test_criterion_11_deterministic_traces(tmp_path):
    """Identical config + order stream produce byte-identical JSONL traces."""
    from scpm.cli import main

    config = tmp_path / "market.json"
    config.write_text(json.dumps({
        "utility": {"kind": "LMSR", "b": 1.0, "n_outcomes": 3},
        "charging_mode": "integral",
    }))
    orders = tmp_path / "orders.csv"
    rng = np.random.default_rng(11)
    rows = ["trader_id,pi,limit,bundle"]
    for k in range(40):
        bundle = ";".join(str(x) for x in rng.integers(0, 2, size=3))
        if bundle == "0;0;0":
            bundle = "1;0;0"
        rows.append(f"t{k},{rng.uniform(0.05, 0.95):.6f},{rng.uniform(0.1, 2.0):.6f},{bundle}")
    orders.write_text("\n".join(rows) + "\n")

    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        code = main(["simulate", "--config", str(config), "--orders", str(orders),
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    verdict(11, "replayed traces are byte-identical",
            outs[0] == outs[1] and len(outs[0]) > 0,
            f"{len(outs[0])} bytes")
