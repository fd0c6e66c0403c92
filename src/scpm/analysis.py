"""Mechanism analysis: worst-case loss, properness, implicit scoring rules,
scoring-rule equivalence, the convex-risk-measure view, and the
mechanism table that puts them side by side.

Conventions pinned here:

* the scoring-rule constant K is fixed to 0 (score differences are all
  that is ever compared);
* the risk dual is rho(Z) = -min_p { E_p[Z] + raw L(p) } over the simplex,
  using the raw (non-normalized) conjugate so additive constants line up;
  its check takes the minimum over two sides: the engine's prices p(-Z),
  where Fenchel-Young attains it exactly, and a coarse lattice refined
  around its best point, which no belief may undercut;
* numeric worst-case-loss search cannot prove unboundedness, so the
  analytic catalog answer is authoritative and the search is a cross-check.

The worst-case loss climbs the engine's own market: the loss when outcome
i happens after x of its shares were sold is concave in x, so its search
is a climb along x with one cost solve per decade.  The properness and
penalty checks read the conjugate point, the maximizer of the concave
u(s) - r's, where grad(u)(s) = r.  They read all of a study's points from
one call to the kind's inverse gradient, Utility._conjugate, with no grad
call; a kind without it raises NotImplementedError there.  The studies
themselves check those points, properness through grad and the penalty
fit against every catalog family.  Their constant lattices, simplex_grid's
points (all of them, or the interior ones of the penalty fit) and the
dual's patch offsets, are built once per (N, resolution), read-only, and
kept in a cache of LATTICES_KEPT each.  So are the catalog families the
fit compares against: every kind's penalty on the fit's grid is built
once per (b, N, resolution), one table for all kinds, and only u's own
kind, whose prior may differ, is evaluated on each call.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .cost import bracketed_root, cost as compute_cost, solve_t, whole
from . import market as market_mod
from . import utilities as util_mod
from .utilities import _rows

UNBOUNDED_THRESHOLD = 1e6
RAY_START = 100.0
RAY_MAX = 1e8
# The directions probed for a gradient jump.
N_PROBES = 16
# The risk dual's lattice: its starting resolution, the factor each round
# cuts the spacing by, and the steps a round's patch reaches each way.
DUAL_START = 20
DUAL_CUT = 4
DUAL_REACH = 8
# How many lattices of each kind stay built: the studies use a few.
LATTICES_KEPT = 8


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


@dataclass(eq=False)
class ScoringRuleView:
    scores: np.ndarray


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


def _ray(u, i, x):
    """The cost solve at -x (e - e_i).  Minus its cost is x - C(x e_i): the
    organizer's loss, less C(0), when outcome i happens after x of its
    shares were sold from q = 0."""
    q = np.full(u.n, -x)
    q[i] = 0.0
    return solve_t(u, q)


def _ray_peak(u, i, lo, hi, at_lo, at_hi):
    """The solve where p_i, 1 minus the ray value's slope, crosses 1 in [lo, hi]."""
    solved = {lo: at_lo, hi: at_hi}

    def excess(x):
        if x not in solved:
            solved[x] = _ray(u, i, x)
        return float(solved[x].prices[i]) - 1.0

    x, _ = bracketed_root(excess, lo, hi, excess(lo), excess(hi), 1e-13 * hi)
    return solved[x]


def _numeric_B(u, start):
    """Search max_i sup_x -C(-x (e - e_i)), concave in x, over tenfold growing
    x from start, the solve at q = 0; +inf if the running max escapes past
    the threshold.  A non-monotone kind peaks inside the ray, which ends
    that index's climb.  The ray reaches B = sup_s u(s) - s_i when C is
    nondecreasing (every monotone kind) or symmetric in the outcomes other
    than i (QuadraticScore, by concavity); for any other utility it is a
    lower bound, and no caller passes one.
    """
    theta = u.theta
    # Exact: a prior off symmetry by one ulp has its own, larger B.
    symmetric = theta is None or (theta == theta[0]).all()
    ends = {i: start for i in ([0] if symmetric else range(u.n))}
    peaked = set()
    best, lo, x = -start.cost, 0.0, RAY_START
    while True:
        for i in ends.keys() - peaked:
            res = _ray(u, i, x)
            # a monotone kind's p_i <= 1 holds exactly, whatever its rounding
            if not u.monotone and res.prices[i] > 1.0:
                res = _ray_peak(u, i, lo, x, ends[i], res)
                peaked.add(i)
            ends[i] = res
        level = -min(res.cost for res in ends.values())
        improvement = level - best
        best = max(best, level)
        if best > UNBOUNDED_THRESHOLD:
            return math.inf
        if x >= 1e3 and improvement < 1e-9:
            return best
        if x >= RAY_MAX:
            # Still improving at the far end: the loss keeps growing
            # (possibly only logarithmically), so report unbounded.
            return math.inf if improvement > 1e-6 else best
        lo, x = x, 10.0 * x


def worst_case_loss(u, method="analytic", seed=0):
    """Worst-case organizer loss B + C(0).

    method="analytic" reads the catalog closed forms; method="numeric"
    climbs the engine's own market along each ray -x (e - e_i), the loss
    settle bounds, from the solve at q = 0 that also gives C(0).  The climb
    is deterministic: seed is accepted for callers that pass it and unused.
    """
    if method == "analytic":
        b_term, c0 = u.loss_bound_terms()
    elif method == "numeric":
        start = solve_t(u, np.zeros(u.n))
        b_term = _numeric_B(u, start)
        c0 = start.cost
    else:
        raise ValueError(f"unknown method {method!r}")
    return LossBound(B=b_term, C0=c0, total=b_term + c0, analytic=method == "analytic")


# -- properness -------------------------------------------------------------


def _gradient_jump(u, S, D):
    """Probe gradient continuity 1e-6 away from every row of S along the
    directions D, (M, n_probes, N); a jump signals a non-singleton
    subdifferential / multiple optimal prices."""
    # np.linalg.norm(D, axis=-1, keepdims=True), byte for byte
    P = S[:, None] + 1e-6 * D / np.sqrt(_rows(np.add, D * D, keepdims=True))
    if math.isfinite(u.domain_floor(np.zeros(u.n))):
        P = np.maximum(P, 1e-9)
    G = u.grad(np.concatenate([S[:, None], P], axis=1))
    return bool(np.any(_rows(np.maximum, np.abs(G[:, 1:] - G[:, :1])) > 1e-2))


def check_properness(u, n_samples=200, seed=0):
    """Sample interior beliefs r and check that the conjugate maximizer's
    (sub)gradient reproduces r; probes gradient continuity for strictness."""
    n_samples = whole(n_samples, "n_samples", 1)
    rng = np.random.default_rng(seed)
    R = 0.9 * rng.dirichlet(np.ones(u.n), size=n_samples) + 0.1 / u.n  # off the boundary
    D = rng.standard_normal((n_samples, N_PROBES, u.n))
    S = u._conjugate(R)
    worst = float(np.max(u.properness_residual(S, R)))
    multiplicity = _gradient_jump(u, S, D)
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
    n_orders = whole(n_orders, "n_orders", 0)
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


def _risk_solve(u, Z):
    """The cost solve at -Z, which gives rho(Z) and the dual's witness p(-Z)."""
    if not u.monotone:
        raise ValueError(
            f"{u.kind} is not non-decreasing and has no risk-measure representation"
        )
    return solve_t(u, -np.asarray(Z, dtype=float))


def risk_measure(u, Z):
    """rho(Z) = min_t t - u(Z + te), evaluated as C(-Z)."""
    res = _risk_solve(u, Z)
    return RiskEvaluation(rho=res.cost, t_star=res.t_star)


def _read_only(a):
    a.setflags(write=False)
    return a


def simplex_grid(n, resolution):
    """All lattice simplex points with components k/resolution (n <= 3);
    for larger n, as many seeded Dirichlet samples as the n = 3 lattice
    has points, up to 100 000."""
    n, resolution = whole(n, "n", 2), whole(resolution, "resolution", 2)
    if n == 2:
        k = np.arange(resolution + 1)
        p0 = k / resolution
        return np.column_stack([p0, 1.0 - p0])
    if n == 3:
        # k1 = 0..resolution, each with k2 = 0..resolution - k1
        counts = np.arange(resolution + 1, 0, -1)
        k1 = np.repeat(np.arange(resolution + 1), counts)
        k2 = np.arange(k1.size) - np.repeat(np.cumsum(counts) - counts, counts)
        grid = np.empty((k1.size, 3))
        grid[:, 0] = k1 / resolution
        grid[:, 1] = k2 / resolution
        grid[:, 2] = 1.0 - grid[:, 0] - grid[:, 1]
        return np.clip(grid, 0.0, 1.0, out=grid)
    rng = np.random.default_rng(0)
    return rng.dirichlet(np.ones(n), size=min((resolution + 1) * (resolution + 2) // 2, 100_000))


@functools.lru_cache(maxsize=LATTICES_KEPT)
def _grid(n, resolution, interior=False):
    """simplex_grid(n, resolution), or its points with every component
    above 1e-9, built once and read-only."""
    grid = simplex_grid(n, resolution)
    return _read_only(grid[_rows(np.logical_and, grid > 1e-9)] if interior else grid)


@functools.lru_cache(maxsize=LATTICES_KEPT)
def _offsets(d):
    """Every integer step of -DUAL_REACH..DUAL_REACH in d coordinates,
    (steps^d, d), built once and read-only."""
    steps = np.arange(-DUAL_REACH, DUAL_REACH + 1)
    return _read_only(np.stack(np.meshgrid(*[steps] * d, indexing="ij"), -1).reshape(-1, d))


def _lattice_min(u, Z, resolution):
    """min of p'Z + raw L(p) over a res-DUAL_START lattice (N <= 3) refined
    around its best point, DUAL_CUT times finer per round, on a patch of
    DUAL_REACH steps each way, until the spacing is at most 1/resolution;
    above N = 3, over simplex_grid's sample at that resolution."""
    if u.n > 3:
        P = _grid(u.n, resolution)
        return float(np.min(P @ Z + u.penalty_raw(P)))
    res = DUAL_START
    P = _grid(u.n, res)
    vals = P @ Z + u.penalty_raw(P)
    low = float(vals.min())
    while res < resolution:
        # integer lattice coordinates of all but the last component
        K = np.rint(P[np.argmin(vals), :-1] * res) * DUAL_CUT + _offsets(u.n - 1)
        res *= DUAL_CUT
        # the full point; its last component is >= 0 exactly when the sum
        # of the others is <= res, so one filter keeps the simplex's points
        L = np.concatenate([K, res - _rows(np.add, K, keepdims=True)], axis=1)
        P = L[_rows(np.minimum, L) >= 0] / res
        vals = P @ Z + u.penalty_raw(P)
        low = min(low, float(vals.min()))
    return low


def risk_dual_check(u, Z, grid_resolution=1000):
    """Compare rho(Z) against -min_p { E_p[Z] + raw L(p) }.

    The minimum is taken over the engine's own prices p(-Z), where
    Fenchel-Young makes p'Z + L(p) = -rho(Z) exactly, and over a simplex
    lattice refined to a spacing of at most 1/grid_resolution, which no
    point may undercut (weak duality).  A penalty too high at the witness
    or too low anywhere near the minimum opens the gap.  Raises ValueError
    unless grid_resolution is an integer >= 2, as simplex_grid does.
    """
    grid_resolution = whole(grid_resolution, "grid_resolution", 2)
    res = _risk_solve(u, Z)
    Z = np.asarray(Z, dtype=float)
    witness = float(res.prices @ Z) + u.penalty_raw(res.prices)
    dual = -min(witness, _lattice_min(u, Z, grid_resolution))
    return RiskEvaluation(
        rho=res.cost, t_star=res.t_star, dual_value=dual, dual_gap=abs(res.cost - dual)
    )


# -- penalty family identification ------------------------------------------

PENALTY_LABELS = {
    "LMSR": "b*KL(p || theta/sum(theta))",
    "LogSCPM": "negative log-likelihood",
    "MinSCPM": "0",
    "ExponentialSCPM": "b*KL(p || uniform)",
    "QuadSCPM": "b*||p - theta||^2",
}


@functools.lru_cache(maxsize=LATTICES_KEPT)
def _families(b, n, resolution):
    """Every catalog family's penalty at (b, n) with its default prior, less
    its minimum, on the penalty fit's interior grid: a read-only vector per
    PENALTY_LABELS kind, built once."""
    grid = _grid(n, resolution, interior=True)
    table = {}
    for kind in PENALTY_LABELS:
        vals = util_mod.make_utility(kind, b=b, n_outcomes=n).penalty_raw(grid)
        table[kind] = _read_only(vals - vals.min())
    return types.MappingProxyType(table)


def identify_penalty_family(u, resolution=12):
    """Fit numerically-evaluated L(p) against the catalog closed forms on an
    interior simplex grid; returns (best label, max deviation)."""
    if not u.monotone:
        raise ValueError(f"{u.kind} has no penalty function")
    resolution = whole(resolution, "resolution", 2)  # before a cache hashes it
    grid = _grid(u.n, resolution, interior=True)
    S = u._conjugate(grid)
    numeric = u.value(S) - _rows(np.add, grid * S)
    numeric -= numeric.min()
    families = _families(u.b, u.n, resolution)
    fits = []
    for kind, label in PENALTY_LABELS.items():
        if kind == u.kind:  # u's own, which may carry its own theta
            vals = u.penalty_raw(grid)
            vals = vals - vals.min()
        else:
            vals = families[kind]
        fits.append((kind, label, float(np.max(np.abs(vals - numeric)))))
    best_dev = min(dev for _, _, dev in fits)
    # Families can coincide exactly (uniform-prior KL fits both the LMSR and
    # the exponential catalog entries); break ties toward the utility's own,
    # and otherwise take the first best fit.
    _, label, dev = min(fits, key=lambda f: (f[0] != u.kind or f[2] > best_dev + 1e-9, f[2]))
    return label, dev


# -- mechanism table ---------------------------------------------------------


def table1(b, n, theta=None):
    """One row per catalog kind: worst-case loss (analytic and numeric),
    properness verdict, and the identified penalty family with its fit
    deviation.  theta applies to the kinds that take a prior."""
    rows = []
    for kind, cls in util_mod.CATALOG.items():
        u = cls(b=b, n_outcomes=n, theta=theta if cls.takes_theta else None)
        rep = check_properness(u, n_samples=50)
        properness = ("strictly proper" if rep.strictly_proper
                      else "proper" if rep.proper else "improper")
        penalty, dev = identify_penalty_family(u) if u.monotone else (None, None)
        rows.append(Table1Row(kind, worst_case_loss(u).total,
                              worst_case_loss(u, method="numeric").total,
                              properness, penalty, dev))
    return rows
