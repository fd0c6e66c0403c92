"""Deliberately dumb cross-check oracles: dense scans, central differences,
trapezoid quadrature, and step-scan fills.

The oracles share no solver code with cost.py/market.py, so agreement
between the two routes is evidence rather than tautology.  They are slow
by design.  cross_check runs the engine against them on a fixed set of
cases; the `verify` CLI command and the acceptance tests both call it.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from . import market as market_mod
from .analysis import simplex_grid  # noqa: F401  (a public name of this module too)
from .cost import prices as compute_prices
from .utilities import KINDS, make_utility

# cross_check looks the engine up at call time, so a patched engine is what
# it checks.  (The package re-exports the function cost under this name.)
_engine = importlib.import_module(".cost", __package__)


def default_bracket(u, q):
    q = np.asarray(q, dtype=float)
    width = 50.0 * (1.0 + u.b)
    hi = float(q.max()) + width
    floor = u.domain_floor(q)
    lo = floor + 1e-9 * max(1.0, abs(floor)) if math.isfinite(floor) else float(q.max()) - width
    return lo, hi


def grid_min_t(u, q, bracket=None, grid_points=100_000):
    """Dense scan of t - u(te - q) over the bracket, refined once."""
    q = np.asarray(q, dtype=float)
    if bracket is None:
        bracket = default_bracket(u, q)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"empty bracket ({lo}, {hi})")

    def scan(a, b):
        t = np.linspace(a, b, grid_points)
        phi = t - u.value(t[:, None] - q[None, :])
        k = int(np.argmin(phi))
        return t, phi, k

    t, phi, k = scan(lo, hi)
    spacing = (hi - lo) / (grid_points - 1)
    a = max(lo, t[k] - 2.0 * spacing)
    b = min(hi, t[k] + 2.0 * spacing)
    t, phi, k = scan(a, b)
    return float(t[k]), float(phi[k])


def finite_diff_gradient(f, x, h=1e-6):
    """Central differences; shrinks h near domain boundaries, down to 1e-10."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        step = h
        while True:
            try:
                xp = x.copy()
                xm = x.copy()
                xp[i] += step
                xm[i] -= step
                g[i] = (f(xp) - f(xm)) / (2.0 * step)
                break
            except Exception:
                step /= 10.0
                if step < 1e-10:
                    raise
    return g


def quadrature_charge(u, q, a, x_bar, panels=10_000):
    """Trapezoid rule for the integral of the instantaneous bundle price."""
    if x_bar < 0:
        raise ValueError("x_bar must be nonnegative")
    if x_bar == 0:
        return 0.0
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    eps = np.linspace(0.0, x_bar, panels + 1)
    vals = np.array([compute_prices(u, q + a * e) @ a for e in eps])
    return float(np.trapezoid(vals, eps))


def brute_force_fill(state, order, step=1e-4):
    """Scan eps = 0, step, 2*step, ... while the bundle price stays <= pi."""
    if step <= 0:
        raise ValueError("step must be positive")
    u = state.config.utility
    q = state.q
    a = order.bundle
    if float(compute_prices(u, q) @ a) >= order.pi:
        return 0.0
    eps = 0.0
    while True:
        nxt = eps + step
        if nxt > order.limit:
            return float(order.limit)
        if float(compute_prices(u, q + a * nxt) @ a) > order.pi:
            return eps
        eps = nxt


@dataclass(frozen=True)
class CrossCheck:
    name: str  # "<scope> <kind> <oracle>-vs-engine"
    gap: float  # |oracle - engine|
    tol: float

    @property
    def ok(self):
        return self.gap <= self.tol


def cross_check(rng, scope="all"):
    """Engine against oracle for every catalog kind at b = 1, N = 3.

    Per kind: 8 costs at q ~ U(0, 4)^3 (tolerance 1e-6), one charge of
    x = 1.5 units of [1, 0, 1] at q ~ U(0, 2)^3 (1e-4, 1e-3 for MinSCPM's
    kinked prices), and one fill of (pi 0.6, limit 2, e_0) from q = 0
    against a 1e-4 step scan (2 steps; a kind that is not monotone is
    skipped, its prices can leave [0, 1]).  Every q is drawn whatever the
    scope, so the sample points do not depend on it.
    """
    if scope not in ("all", "cost", "charge", "fill"):
        raise ValueError(f"unknown scope {scope!r}")
    checks = []
    for kind in KINDS:
        u = make_utility(kind, b=1.0, n_outcomes=3)
        for q in rng.uniform(0.0, 4.0, size=(8, 3)):
            if scope in ("cost", "all"):
                gap = abs(grid_min_t(u, q)[1] - _engine.cost(u, q))
                checks.append(CrossCheck(f"cost {kind} grid-vs-engine", gap, 1e-6))
        q, a = rng.uniform(0.0, 2.0, size=3), np.array([1.0, 0.0, 1.0])
        if scope in ("charge", "all"):
            gap = abs(quadrature_charge(u, q, a, 1.5) - _engine.charge(u, q, a, 1.5))
            tol = 1e-3 if kind == "MinSCPM" else 1e-4
            checks.append(CrossCheck(f"charge {kind} quadrature-vs-engine", gap, tol))
        if scope in ("fill", "all") and u.monotone:
            state = market_mod.new_market(market_mod.MarketConfig(utility=u))
            order = market_mod.Order("v", 0.6, 2.0, np.array([1.0, 0.0, 0.0]))
            x_bar = market_mod.fill(state, order).x_bar
            gap = abs(brute_force_fill(state, order, step=1e-4) - x_bar)
            checks.append(CrossCheck(f"fill {kind} scan-vs-engine", gap, 2e-4))
    return checks
