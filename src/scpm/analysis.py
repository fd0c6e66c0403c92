"""Mechanism analysis: worst-case loss, properness, implicit scoring rules,
scoring-rule equivalence, the convex-risk-measure view, and the
mechanism table that puts them side by side.

Conventions pinned here:

* the scoring-rule constant K is fixed to 0 (score differences are all
  that is ever compared);
* the risk dual is rho(Z) = -min_p { E_p[Z] + raw L(p) } over the simplex,
  using the raw (non-normalized) conjugate so additive constants line up;
* numeric worst-case-loss search cannot prove unboundedness, so the
  analytic catalog answer is authoritative and the search is a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import bracketed_root, cost as compute_cost, solve_t
from . import market as market_mod
from . import utilities as util_mod
from .oracle import simplex_grid

UNBOUNDED_THRESHOLD = 1e6
BOX_START = 100.0
BOX_MAX = 1e8


@dataclass
class LossBound:
    B: float
    C0: float
    total: float
    analytic: bool


@dataclass
class PropernessReport:
    proper: bool
    strictly_proper: bool
    max_gradient_residual: float
    multiplicity_detected: bool


@dataclass
class ScoringRuleView:
    scores: np.ndarray
    constant_convention: float = 0.0


@dataclass
class MSREquivalenceReport:
    rule: str
    n_orders: int
    max_x_diff: float
    max_charge_diff: float


@dataclass
class RiskEvaluation:
    rho: float
    t_star: float
    dual_value: float = math.nan
    dual_gap: float = math.nan


@dataclass
class Table1Row:
    kind: str
    loss: float  # analytic B + C(0)
    loss_numeric: float
    properness: str  # "strictly proper", "proper" or "improper"
    penalty: str | None  # None when u is not monotone (no risk reading)
    penalty_dev: float | None


# -- worst-case loss --------------------------------------------------------


def _golden_sweep(func, S, j, lo, hi, xatol):
    """Vectorized golden-section maximization of coordinate j across the
    rows of S (in place)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    m = S.shape[0]
    a = np.full(m, lo)
    b = np.full(m, hi)
    iters = max(1, int(math.ceil(math.log((hi - lo) / xatol) / -math.log(invphi))))
    for _ in range(iters):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc = func(S, j, c)
        fd = func(S, j, d)
        go_right = fc < fd
        a = np.where(go_right, c, a)
        b = np.where(go_right, b, d)
    S[:, j] = 0.5 * (a + b)


def _coordinate_ascent_max(u, objective, starts, lo, hi, max_sweeps=30, xatol=1e-5):
    """Maximize objective over the box [lo, hi]^N from several starts at
    once; returns the best value found."""

    def col_value(S, j, x):
        V = S.copy()
        V[:, j] = x
        return objective(V)

    S = starts.copy()
    best = float(np.max(objective(S)))
    for _ in range(max_sweeps):
        for j in range(u.n):
            _golden_sweep(col_value, S, j, lo, hi, xatol)
        new_best = float(np.max(objective(S)))
        if new_best - best < 1e-12 * max(1.0, abs(new_best)):
            best = max(best, new_best)
            break
        best = max(best, new_best)
    return best


def _numeric_B(u, seed=0, starts=10):
    """Search max_i max_s u(s) - s_i by coordinate ascent over escalating
    boxes; returns +inf if the running max escapes past the threshold."""
    rng = np.random.default_rng(seed)
    theta = u.theta
    symmetric = theta is None or np.allclose(theta, theta[0])
    indices = [0] if symmetric else range(u.n)
    log_domain = math.isfinite(u.domain_floor(np.zeros(u.n)))

    best = -math.inf
    box = BOX_START
    while True:
        lo = 1e-9 if log_domain else -box
        level_best = -math.inf
        for i in indices:
            def objective(S, i=i):
                return u.value(S) - S[:, i]

            S0 = rng.uniform(lo, box, size=(starts, u.n))
            level_best = max(
                level_best, _coordinate_ascent_max(u, objective, S0, lo, box)
            )
        improvement = level_best - best
        best = max(best, level_best)
        if best > UNBOUNDED_THRESHOLD:
            return math.inf
        if box >= 1e3 and improvement < 1e-9:
            return best
        if box >= BOX_MAX:
            # Still improving at the largest box: the loss keeps growing
            # (possibly only logarithmically), so report unbounded.
            return math.inf if improvement > 1e-6 else best
        box *= 10.0


def worst_case_loss(u, method="analytic", seed=0):
    """Worst-case organizer loss B + C(0).

    method="analytic" reads the catalog closed forms; method="numeric"
    runs the box-escalation search for B and the cost engine for C(0).
    """
    if method == "analytic":
        b_term, c0 = u.loss_bound_terms()
    elif method == "numeric":
        b_term = _numeric_B(u, seed=seed)
        c0 = compute_cost(u, np.zeros(u.n))
    else:
        raise ValueError(f"unknown method {method!r}")
    return LossBound(B=b_term, C0=c0, total=b_term + c0, analytic=method == "analytic")


# -- properness -------------------------------------------------------------


def _solve_conjugate_point(u, r, max_sweeps=40):
    """Numerically maximize u(s) - r's by Gauss-Seidel sweeps, each
    coordinate solving its partial derivative = r_j with bracketed_root;
    returns the point found (possibly non-stationary for improper
    utilities)."""
    if u.kind == "MinSCPM":
        # Maximizers are the diagonal; any of them will do.
        return np.zeros(u.n)
    floor = math.isfinite(u.domain_floor(np.zeros(u.n)))
    s = np.full(u.n, 1.0) if floor else np.zeros(u.n)
    for _ in range(max_sweeps):
        moved = 0.0
        for j in range(u.n):
            new = _coordinate_root(u, s, j, r[j], positive=floor)
            if new is not None:
                moved = max(moved, abs(new - s[j]))
                s[j] = new
        if moved < 1e-11:
            break
    return s


def _coordinate_root(u, s, j, target, positive):
    """Solve grad(u)(s)_j = target in s_j; the partial derivative is
    nonincreasing in s_j, so the bracket is narrowed on its negative.
    Returns None when no sign change exists."""

    def g(x):
        v = s.copy()
        v[j] = x
        return float(u.grad(v)[j]) - target

    lo = hi = s[j]
    glo = ghi = g(s[j])
    step = 1.0
    for _ in range(80):
        if glo > 0.0 > ghi:
            break
        if glo <= 0.0:
            lo = max(lo - step, 1e-12) if positive else lo - step
            glo = g(lo)
        if ghi >= 0.0:
            hi += step
            ghi = g(hi)
        step *= 2.0
    else:
        return None
    if glo <= 0.0 or ghi >= 0.0:
        return None
    tol = 1e-13 * max(1.0, abs(lo), abs(hi))
    return bracketed_root(lambda x: -g(x), lo, hi, -glo, -ghi, tol)[0]


def _gradient_jump(u, s_star, rng, eps=1e-6, n_probes=16):
    """Probe gradient continuity at the optimum; a jump signals a
    non-singleton subdifferential / multiple optimal prices."""
    g0 = np.asarray(u.grad(s_star), dtype=float)
    d = rng.standard_normal((n_probes, u.n))
    S = s_star + eps * d / np.linalg.norm(d, axis=-1, keepdims=True)
    if math.isfinite(u.domain_floor(np.zeros(u.n))):
        S = np.maximum(S, 1e-9)
    return bool(np.any(np.max(np.abs(np.asarray(u.grad(S)) - g0), axis=-1) > 1e-2))


def check_properness(u, n_samples=200, seed=0):
    """Sample interior beliefs r and check that the conjugate maximizer's
    (sub)gradient reproduces r; probes gradient continuity for strictness."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    multiplicity = False
    for _ in range(n_samples):
        r = rng.dirichlet(np.ones(u.n))
        r = 0.9 * r + 0.1 / u.n  # keep away from the boundary
        s_star = _solve_conjugate_point(u, r)
        worst = max(worst, u.properness_residual(s_star, r))
        if not multiplicity:
            multiplicity = _gradient_jump(u, s_star, rng)
    proper = worst <= 1e-6
    return PropernessReport(
        proper=proper,
        strictly_proper=proper and not multiplicity,
        max_gradient_residual=worst,
        multiplicity_detected=multiplicity,
    )


# -- implicit scoring rule --------------------------------------------------


def implicit_scoring_rule(u, q):
    """Implicit scores S_i = q_i - C(q) (constant K fixed to 0)."""
    q = np.asarray(q, dtype=float)
    return ScoringRuleView(scores=q - compute_cost(u, q))


# -- MSR equivalence --------------------------------------------------------


def _lmsr_closed_forms(b, n):
    from scipy.special import logsumexp, softmax

    def costf(q):
        return float(b * logsumexp(q / b))

    def pricef(q):
        return softmax(q / b)

    return costf, pricef


def _quadratic_closed_forms(b, n):
    def costf(q):
        qbar = q.mean()
        return float(qbar + (np.dot(q, q) - n * qbar * qbar) / (4.0 * b))

    def pricef(q):
        return 1.0 / n + (q - q.mean()) / (2.0 * b)

    return costf, pricef


def _direct_msr_fill(costf, pricef, q, order):
    """Fill against a closed-form scoring-rule cost function; a separate
    code path from market.fill on purpose."""
    a = order.bundle

    def price(x):
        return float(pricef(q + a * x) @ a)

    if price(0.0) >= order.pi:
        return 0.0, 0.0
    lo, hi = 0.0, order.limit
    if price(order.limit) <= order.pi:
        lo = order.limit
    tol = 1e-9 * max(1.0, order.limit)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if price(mid) <= order.pi:
            lo = mid
        else:
            hi = mid
    return lo, costf(q + a * lo) - costf(q)


def msr_equivalence_check(rule, b=1.0, n_outcomes=2, n_orders=100, seed=0):
    """Run the same order stream through the utility-driven engine and a
    direct scoring-rule cost-difference market; report max discrepancies."""
    if rule == "LMSR":
        u = util_mod.LMSR(b=b, n_outcomes=n_outcomes)
        costf, pricef = _lmsr_closed_forms(b, n_outcomes)
    elif rule == "QuadraticScore":
        u = util_mod.QuadraticScore(b=b, n_outcomes=n_outcomes)
        costf, pricef = _quadratic_closed_forms(b, n_outcomes)
    else:
        raise ValueError(f"no closed-form scoring rule for {rule!r}")

    rng = np.random.default_rng(seed)
    state = market_mod.new_market(market_mod.MarketConfig(utility=u))
    q_direct = np.zeros(n_outcomes)
    max_x = 0.0
    max_charge = 0.0
    for k in range(n_orders):
        bundle = rng.integers(0, 2, size=n_outcomes).astype(float)
        if not bundle.any() or bundle.all():
            bundle = np.eye(n_outcomes)[k % n_outcomes]
        order = market_mod.Order(
            trader_id=f"t{k}",
            pi=float(rng.uniform(0.05, 0.95)),
            limit=float(rng.uniform(0.1, 3.0)),
            bundle=bundle,
        )
        f = market_mod.fill(state, order)
        market_mod.apply(state, f)
        x_d, charge_d = _direct_msr_fill(costf, pricef, q_direct, order)
        q_direct = q_direct + order.bundle * x_d
        max_x = max(max_x, abs(f.x_bar - x_d))
        max_charge = max(max_charge, abs(f.charge - charge_d))
    return MSREquivalenceReport(
        rule=rule, n_orders=n_orders, max_x_diff=max_x, max_charge_diff=max_charge
    )


# -- risk measure -----------------------------------------------------------


def risk_measure(u, Z):
    """rho(Z) = min_t t - u(Z + te), evaluated as C(-Z)."""
    if not u.monotone:
        raise ValueError(
            f"{u.kind} is not non-decreasing and has no risk-measure representation"
        )
    Z = np.asarray(Z, dtype=float)
    res = solve_t(u, -Z)
    return RiskEvaluation(rho=res.cost, t_star=res.t_star)


def risk_dual_check(u, Z, grid_resolution=1000):
    """Compare rho(Z) against -min_p { E_p[Z] + raw L(p) } on a simplex grid."""
    ev = risk_measure(u, Z)
    Z = np.asarray(Z, dtype=float)
    P = simplex_grid(u.n, grid_resolution)
    vals = P @ Z + u.penalty_raw(P)
    dual = -float(np.min(vals[np.isfinite(vals)]))
    return RiskEvaluation(
        rho=ev.rho, t_star=ev.t_star, dual_value=dual, dual_gap=abs(ev.rho - dual)
    )


# -- penalty family identification ------------------------------------------

PENALTY_LABELS = {
    "LMSR": "b*KL(p || theta/sum(theta))",
    "LogSCPM": "negative log-likelihood",
    "MinSCPM": "0",
    "ExponentialSCPM": "b*KL(p || uniform)",
    "QuadSCPM": "b*||p - theta||^2",
}


def identify_penalty_family(u, resolution=12):
    """Fit numerically-evaluated L(p) against the catalog closed forms on an
    interior simplex grid; returns (best label, max deviation)."""
    if not u.monotone:
        raise ValueError(f"{u.kind} has no penalty function")
    grid = simplex_grid(u.n, resolution)
    grid = grid[np.all(grid > 1e-9, axis=1)]
    numeric = np.empty(len(grid))
    for k, p in enumerate(grid):
        s_star = _solve_conjugate_point(u, p)
        numeric[k] = u.value(s_star) - p @ s_star
    numeric -= numeric.min()
    fits = []
    for kind, label in PENALTY_LABELS.items():
        theta = u.theta if kind == u.kind else None
        candidate = util_mod.make_utility(kind, b=u.b, n_outcomes=u.n, theta=theta)
        vals = candidate.penalty_raw(grid)
        vals = vals - vals.min()
        fits.append((kind, label, float(np.max(np.abs(vals - numeric)))))
    best_dev = min(dev for _, _, dev in fits)
    # Families can coincide exactly (uniform-prior KL fits both the LMSR and
    # the exponential catalog entries); break ties toward the utility's own.
    for kind, label, dev in fits:
        if kind == u.kind and dev <= best_dev + 1e-9:
            return label, dev
    for kind, label, dev in fits:
        if dev == best_dev:
            return label, dev


# -- mechanism table ---------------------------------------------------------


def table1(b, n, theta=None):
    """One row per catalog kind: worst-case loss (analytic and numeric),
    properness verdict, and the identified penalty family with its fit
    deviation.  theta applies to the kinds that take a prior."""
    rows = []
    for kind in util_mod.KINDS:
        use_theta = theta if kind in ("LMSR", "LogSCPM", "QuadSCPM") else None
        u = util_mod.make_utility(kind, b=b, n_outcomes=n, theta=use_theta)
        rep = check_properness(u, n_samples=50)
        properness = ("strictly proper" if rep.strictly_proper
                      else "proper" if rep.proper else "improper")
        penalty, dev = identify_penalty_family(u) if u.monotone else (None, None)
        rows.append(Table1Row(kind, worst_case_loss(u).total,
                              worst_case_loss(u, method="numeric").total,
                              properness, penalty, dev))
    return rows
