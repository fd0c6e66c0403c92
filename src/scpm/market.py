"""Market state, limit-order fills, charging, and settlement.

fill() is pure: it computes the accepted quantity and charge without
touching the state; apply() commits a fill.  The quantity comes from
cost.bracketed_root on the bundle price p(q + a x)'a - pi, and every point
it probes is solved once: the prices before and after and the charge are
read from those solves.  Two charging modes exist:

* "integral" -- the truthful scheme, charge = C(q + a x) - C(q), equal to
  the integral of instantaneous bundle prices over the fill;
* "final" -- charge x * p(x)'a at the final price (not truthful; kept so
  the difference is demonstrable).

Order streams are CSV (trader_id,pi,limit,bundle with the bundle as
semicolon-separated reals, limit accepts "inf"); traces are JSON lines.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

# perfbench/tracing.py wraps both names where this module binds them.
from .cost import charge as compute_charge, prices as compute_prices

# The package re-exports the function cost under the submodule's name.
_cost = importlib.import_module(".cost", __package__)

CHARGING_MODES = ("integral", "final")

# Relative tolerance of the fill-quantity search.
FILL_RTOL = 1e-9
# Doubling cap when searching for an upper fill bracket with limit = inf.
MAX_BRACKET = 2.0 ** 60


class UnboundedFillError(RuntimeError):
    """Order with infinite limit that would fill without bound."""


class StaleFillError(ValueError):
    """Fill was produced from a different market state."""


@dataclass(frozen=True)
class MarketConfig:
    utility: object
    charging_mode: str = "integral"
    initial_q: np.ndarray | None = None

    def __post_init__(self):
        if self.charging_mode not in CHARGING_MODES:
            raise ValueError(
                f"charging_mode must be one of {CHARGING_MODES}, got {self.charging_mode!r}"
            )
        q = np.zeros(self.n_outcomes) if self.initial_q is None \
            else np.asarray(self.initial_q, dtype=float)
        if q.shape != (self.n_outcomes,):
            raise ValueError(f"initial_q must have length {self.n_outcomes}")
        if np.any(q < 0):
            raise ValueError("initial_q must be nonnegative")
        q.setflags(write=False)
        object.__setattr__(self, "initial_q", q)

    @property
    def n_outcomes(self):
        return self.utility.n


@dataclass(frozen=True)
class Order:
    trader_id: str
    pi: float
    limit: float
    bundle: np.ndarray

    def __post_init__(self):
        if not self.pi >= 0:
            raise ValueError(f"limit price must be >= 0, got {self.pi}")
        if not self.limit > 0:
            raise ValueError(f"limit quantity must be positive, got {self.limit}")
        a = np.asarray(self.bundle, dtype=float)
        if a.ndim != 1 or not np.all(np.isfinite(a)) or np.any(a < 0) or not np.any(a > 0):
            raise ValueError("bundle must be finite, nonnegative and nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "bundle", a)


@dataclass
class FillResult:
    x_bar: float
    charge: float
    prices_before: np.ndarray
    prices_after: np.ndarray
    mode: str
    order: Order
    q_before: np.ndarray
    solves: int  # cost solves made, one per distinct point


@dataclass
class SettlementReport:
    outcome: int
    payout: float
    collected: float
    profit: float
    loss_bound: float
    bound_ok: bool


@dataclass
class MarketState:
    config: MarketConfig
    q: np.ndarray
    collected: float = 0.0
    journal: list = field(default_factory=list)


def new_market(config):
    return MarketState(config=config, q=config.initial_q.copy())


def quote(state, bundle):
    """Instantaneous price of a bundle: p(q)'a."""
    a = np.asarray(bundle, dtype=float)
    return float(compute_prices(state.config.utility, state.q) @ a)


def fill(state, order):
    """Largest x in [0, limit] with p(q + a x)'a <= pi, plus the charge.

    Does not mutate the state.  A rejected order (x=0, charge 0) is a
    normal result.
    """
    u = state.config.utility
    q = state.q
    a = order.bundle
    if a.shape != (u.n,):
        raise ValueError(f"bundle must have length {u.n}")

    solved = {}

    def excess(x):
        # Looked up at call time, so a wrapped cost.solve_t sees every solve.
        res = solved[x] = _cost.solve_t(u, q + a * x)
        return float(res.prices @ a) - order.pi

    x_bar = 0.0
    f_lo = excess(0.0)
    if f_lo < 0.0:
        if math.isfinite(order.limit):
            lo, hi = 0.0, order.limit
            f_hi = excess(hi)
            tol = FILL_RTOL * max(1.0, hi)
        else:
            # Prices of a monotone utility concentrate on max-weight states
            # as x grows, so the achievable bundle price is bounded by max(a).
            if u.monotone and order.pi >= float(a.max()):
                raise UnboundedFillError(
                    f"limit price {order.pi} can never be reached; order would fill without bound"
                )
            lo, hi = 0.0, 1.0
            f_hi = excess(hi)
            while f_hi <= 0.0:
                lo, f_lo = hi, f_hi
                hi *= 2.0
                if hi > MAX_BRACKET:
                    raise UnboundedFillError("fill bracket exceeded the growth cap")
                f_hi = excess(hi)
            tol = FILL_RTOL * max(1.0, hi)
        if f_hi <= 0.0:
            x_bar = hi
        else:
            x_bar, _ = _cost.bracketed_root(excess, lo, hi, f_lo, f_hi, tol)

    before, after = solved[0.0], solved[x_bar]
    if x_bar == 0.0:
        paid = 0.0
    elif state.config.charging_mode == "integral":
        paid = after.cost - before.cost
    else:
        paid = x_bar * float(after.prices @ a)
    return FillResult(
        x_bar=float(x_bar),
        charge=float(paid),
        prices_before=before.prices,
        prices_after=after.prices,
        mode=state.config.charging_mode,
        order=order,
        q_before=q.copy(),
        solves=len(solved),
    )


def apply(state, fill_result):
    """Commit a fill: update shares, money collected, and the journal."""
    if not np.array_equal(fill_result.q_before, state.q):
        raise StaleFillError("fill was computed against different outstanding shares")
    state.q = state.q + fill_result.order.bundle * fill_result.x_bar
    state.collected += fill_result.charge
    state.journal.append(fill_result)
    return state


def converge(state, belief, rounds=100, cap=1.0):
    """Trade as one truthful agent with the given belief until prices agree.

    Each sweep bids pi = belief_i, up to cap units, on every outcome priced
    below the belief; the run stops after a sweep with no trade or after
    `rounds` sweeps.  Mutates the state and returns the number of sweeps.
    """
    n = state.config.n_outcomes
    belief = np.asarray(belief, dtype=float)
    if belief.shape != (n,) or abs(belief.sum() - 1.0) > 1e-10 or np.any(belief < 0):
        raise ValueError("belief must lie on the probability simplex")
    sweeps = 0
    for _ in range(rounds):
        p = compute_prices(state.config.utility, state.q)
        traded = False
        for i in range(n):
            if belief[i] > p[i]:
                f = fill(state, Order("agent", float(belief[i]), cap, np.eye(n)[i]))
                if f.x_bar > 0:
                    apply(state, f)
                    traded = True
        sweeps += 1
        if not traded:
            break
    return sweeps


def settle(state, outcome):
    """Pay $1 per outstanding share on the realized outcome."""
    n = state.config.n_outcomes
    if not 0 <= outcome < n:
        raise ValueError(f"outcome index must be in [0, {n}), got {outcome}")
    u = state.config.utility
    b_term, c0 = u.loss_bound_terms()
    bound = b_term + c0
    payout = float(state.q[outcome])
    profit = state.collected - payout
    ok = True if math.isinf(bound) else profit >= -bound - 1e-6
    return SettlementReport(
        outcome=outcome,
        payout=payout,
        collected=state.collected,
        profit=profit,
        loss_bound=bound,
        bound_ok=ok,
    )


# -- order stream / trace formats ------------------------------------------


def parse_bundle(text, n):
    parts = text.split(";")
    if len(parts) != n:
        raise ValueError(f"bundle must have {n} components, got {len(parts)}")
    return np.array([float(p) for p in parts])


def parse_limit(text):
    text = text.strip().lower()
    return math.inf if text == "inf" else float(text)


def read_orders_csv(path, n):
    """Parse an order-stream CSV; raises ValueError with the line number on
    a malformed row."""
    orders = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["trader_id", "pi", "limit", "bundle"]:
            raise ValueError(f"{path}: expected header trader_id,pi,limit,bundle")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 fields, got {len(row)}")
                orders.append(Order(
                    trader_id=row[0],
                    pi=float(row[1]),
                    limit=parse_limit(row[2]),
                    bundle=parse_bundle(row[3], n),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad order row: {exc}") from exc
    return orders


def trace_record(fill_result, collected_after):
    """One JSONL trace line per fill; float repr keeps replays byte-identical."""
    o = fill_result.order
    rec = {
        "order": {
            "trader_id": o.trader_id,
            "pi": o.pi,
            "limit": "inf" if math.isinf(o.limit) else o.limit,
            "bundle": list(o.bundle),
        },
        "x_bar": fill_result.x_bar,
        "charge": fill_result.charge,
        "prices_before": list(fill_result.prices_before),
        "prices_after": list(fill_result.prices_after),
        "collected_after": collected_after,
    }
    return json.dumps(rec, sort_keys=True)


def run_orders(state, orders, trace=None):
    """Fill and apply a sequence of orders; optionally collect trace lines."""
    for order in orders:
        f = fill(state, order)
        apply(state, f)
        if trace is not None:
            trace.append(trace_record(f, state.collected))
    return state
