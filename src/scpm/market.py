"""Market state, limit-order fills, charging, and settlement.

fill() is pure: it computes the accepted quantity and charge without
touching the state; apply() commits a fill.  The quantity is the largest
x in [0, limit] with f(x) = p(q + a x)'a - pi <= 0.  After the solve at 0,
a fill with f(0) < 0 asks the utility's solve_fill hook for a closed-form
candidate x_hat, handing it that solve, from which most kinds read their
end (utilities.py); the hook alone orders the probes.  Where it gives no
candidate, or x_hat lies at or past a finite limit, the limit is probed
first, and a fill that ends there takes those two solves.  Otherwise x_hat
and its certificate (below) go first; a certified end whose upper point
lies at or below the limit ends the fill with no probe, since f is
nondecreasing, and any other end probes the limit next.  Either order
ends the fill at the same x_bar with the same charge and prices; only
FillResult.solves differs.  With tol = FILL_RTOL * max(1, x_hat), or one
float spacing of q + a x_hat where that is wider, the candidate is
accepted only on a certificate from cost solves: f(x_bar) <= 0 <
f(x_bar + tol), with x_bar = x_hat, or x_hat - tol when f(x_hat) > 0.
That is the bracket the search would give.  Where x_hat < tol and
f(x_hat) > 0, the solve at 0 closes [0, x_hat]: the fill ends at 0,
"rejected", as does any certified end at 0.  Otherwise (no form for the
bundle, a candidate out of reach, a failed certificate) the search runs:
cost.expand_bracket grows a bracket from [0, min(1, limit)], up to the
limit or to 2**60, and cost.bracketed_root narrows it to the same width at
hi, so x_bar is accurate relative to itself.  An x_bar that leaves some
bought state's q_i unchanged is not sold: the fill ends at 0, "rejected".
Every point is solved and priced once: the prices before and after and the
charge are read from those solves.  Two charging modes exist:

* "integral" -- the truthful scheme, charge = C(q + a x) - C(q), equal to
  the integral of instantaneous bundle prices over the fill;
* "final" -- charge x * p(x)'a at the final price (not truthful; kept so
  the difference is demonstrable).

A state owns one read-only share vector, state.q: assign a new vector to
change it.  The point at 0 of a fill is state.q itself, and the fill's
q_before is that vector; apply replaces it only when x_bar > 0.  A q that
the caller assigned writable is read through a read-only snapshot.

Order streams are CSV (trader_id,pi,limit,bundle with the bundle as
semicolon-separated reals, limit accepts "inf"); traces are JSON lines.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

# perfbench/tracing.py wraps both names where this module binds them.
from .cost import charge as compute_charge, prices as compute_prices

# The package re-exports the function cost under the submodule's name.
_cost = importlib.import_module(".cost", __package__)

CHARGING_MODES = ("integral", "final")

# What json.dumps(rec, sort_keys=True) builds on every call; encode keeps no state.
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True)

# A trace record as _TRACE_ENCODER writes it, its keys in sorted order.
_TRACE_LINE = ('{"charge": %s, "collected_after": %s, "order": {"bundle": [%s], "limit": %s, '
               '"pi": %s, "trader_id": %s}, "prices_after": [%s], "prices_before": [%s], '
               '"x_bar": %s}')

# Relative tolerance of the fill quantity.
FILL_RTOL = 1e-9

# Doublings of an infinite-limit fill's bracket, from 1 up to 2**60.
GROWTH_STEPS = 60

# Rounding a settlement may show beyond the loss bound, relative to the
# largest of the bound, the money collected and the payout.
SETTLE_RTOL = 1e-9


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
        # Extremes by index: argmin stops at a nan, and an inf makes an extreme infinite.
        lo, hi = q[q.argmin()], q[q.argmax()]
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError("initial_q must be finite")
        if lo < 0:
            raise ValueError("initial_q must be nonnegative")
        # The config's own vector, with -0.0 stored as +0.0 as a sum stores it.
        q = q + 0.0
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
        # The order's own copy: the caller may reuse its array for the next order.
        a = np.array(self.bundle, dtype=float)
        # The extremes by index, not by a ufunc reduction: argmin and argmax
        # stop at a nan, and no comparison holds for it.
        if a.ndim != 1 or not a.size or not (a[a.argmin()] >= 0.0
                                             and 0.0 < a[a.argmax()] < math.inf):
            raise ValueError("bundle must be finite, nonnegative and nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "bundle", a)


@dataclass
class FillResult:
    x_bar: float
    charge: float
    prices_before: np.ndarray
    prices_after: np.ndarray
    order: Order
    q_before: np.ndarray
    solves: int  # cost solves made, one per distinct point
    path: str  # "rejected", "limit", "closed" or "bracket"


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
    return MarketState(config=config, q=config.initial_q)


def quote(state, bundle):
    """Instantaneous price of a bundle: p(q)'a.

    Raises ValueError for a bundle not of length N or with a nan or
    infinite entry, before it is priced, and for a price that is not finite.
    """
    u = state.config.utility
    a = np.asarray(bundle, dtype=float)
    if a.shape != (u.n,):
        raise ValueError(f"bundle must have length {u.n}")
    # Checked before the product, where an infinite entry on a zero price
    # would make a nan; the extremes by index, as Order reads them.
    if not -math.inf < a[a.argmin()] <= a[a.argmax()] < math.inf:
        raise ValueError("bundle must be finite")
    # ndarray.dot: the bits of @ for two vectors, without the ufunc's overhead.
    price = float(compute_prices(u, state.q).dot(a))
    if not math.isfinite(price):
        raise ValueError("bundle price must be finite")
    return price


def fill(state, order):
    """Largest x in [0, limit] with p(q + a x)'a <= pi, plus the charge.

    Does not mutate the state.  A rejected order (x=0, charge 0) is a
    normal result.  q_before is the state's own read-only q, or a read-only
    snapshot of a q that the caller assigned writable.
    """
    u = state.config.utility
    q = state.q
    a = order.bundle
    if a.shape != (u.n,):
        raise ValueError(f"bundle must have length {u.n}")
    if q.flags.writeable:
        # A snapshot the caller cannot edit; + 0.0 stores -0.0 as +0.0, as apply's sum would.
        q = q + 0.0
        q.setflags(write=False)

    # One record per point: the point, its solve and its bundle price.
    # Looked up at call time, so a wrapped cost.solve_t sees every solve.
    # ndarray.dot: the bits of @ for two vectors, without the ufunc's overhead.
    before = _cost.solve_t(u, q)
    p_a = float(before.prices.dot(a))
    points = {0.0: (q, before, p_a)}

    def excess(x):
        if x not in points:
            point = q + a * x
            solved = _cost.solve_t(u, point)
            points[x] = (point, solved, float(solved.prices.dot(a)))
        return points[x][2] - order.pi

    def width(x):
        # No bracket is narrower than one float spacing of the point excess(x)
        # solved: points of the order that close are one market state.
        point = points[x][0]
        return max(FILL_RTOL * max(1.0, x), math.ulp(point.item(point.argmax())))

    x_bar, path = 0.0, "rejected"
    if p_a - order.pi < 0.0:
        # p_a itself: excess(0) + pi loses a price far below pi.
        x_bar, path = _price_bound_end(u, q, order, before, p_a, excess, width)
        # Units that some bought state's q_i + a_i x_bar cannot record are not sold.
        if x_bar > 0.0 and np.count_nonzero(points[x_bar][0] != q) < np.count_nonzero(a):
            x_bar, path = 0.0, "rejected"

    _, after, after_p_a = points[x_bar]
    if x_bar == 0.0:
        paid = 0.0
    elif state.config.charging_mode == "integral":
        paid = after.cost - before.cost
    else:
        paid = x_bar * after_p_a
    return FillResult(
        x_bar=float(x_bar),
        charge=float(paid),
        prices_before=before.prices,
        prices_after=after.prices,
        order=order,
        q_before=q,
        solves=len(points),
        path=path,
    )


def _price_bound_end(u, q, order, before, p_a, excess, width):
    """The end of a fill with excess(0) = p_a - pi < 0, from the solve at 0,
    before: the limit where excess(limit) <= 0, else the root of excess in
    (0, limit), the hook's candidate if the engine certifies it, else the
    search's, to the width(x) of a bracket ending at x.  The hook is asked
    before any probe.  A finite limit is probed first only where the hook
    gives no candidate below it; otherwise a certificate whose upper point
    lies at or below the limit ends the fill unprobed, since excess is
    nondecreasing and the probe would have failed, and any other end probes
    it next."""
    a, limit = order.bundle, order.limit
    finite = math.isfinite(limit)
    if not finite:
        # Prices of a monotone utility concentrate on max-weight states
        # as x grows, so the achievable bundle price is bounded by max(a).
        if u.monotone and order.pi >= a.item(a.argmax()):
            raise UnboundedFillError(
                f"limit price {order.pi} can never be reached; order would fill without bound"
            )
        reach, steps = 2.0 ** GROWTH_STEPS, GROWTH_STEPS
    else:
        # Doubling from 1 passes a finite limit within its binary exponent.
        reach, steps = limit, math.frexp(limit)[1]

    x_hat = u.solve_fill(q, a, order.pi, before, p_a)
    if finite and not (x_hat is not None and x_hat < limit) and excess(limit) <= 0.0:
        return limit, "limit"
    end = None
    if x_hat is not None and 0.0 <= x_hat <= reach:
        end = _certified_end(x_hat, excess, width)
    # A limit probed above reads its excess again without a solve.
    if finite and (end is None or end[2] > limit) and excess(limit) <= 0.0:
        return limit, "limit"
    if end is not None:
        return end[:2]

    hi = min(1.0, limit)
    bracket = _cost.expand_bracket(excess, 0.0, hi, excess(0.0), excess(hi), ceiling=limit,
                                   max_steps=steps)
    if bracket is None:
        raise UnboundedFillError("fill bracket exceeded the growth cap")
    lo, hi, f_lo, f_hi = bracket
    x_bar, _ = _cost.bracketed_root(excess, lo, hi, f_lo, f_hi, width(hi))
    return x_bar, "bracket"


def _certified_end(x_hat, excess, width):
    """(x_bar, path, upper) where cost solves certify the hook's x_hat as
    the bracket the search would give, f(x_bar) <= 0 < f(x_bar + tol) with
    x_bar = x_hat or one tol below it, upper being the solved point with
    f > 0, and path "closed", or "rejected" where x_bar is 0; None where
    they do not."""
    below = excess(x_hat) <= 0.0
    tol = width(x_hat)
    if below:
        if not excess(x_hat + tol) > 0.0:
            return None
        x_bar, upper = x_hat, x_hat + tol
    elif x_hat < tol:
        # f(0) < 0 < f(x_hat): the end lies within one step of 0, closer
        # than the fill resolves, so the order buys nothing.
        x_bar, upper = 0.0, x_hat
    elif excess(x_hat - tol) <= 0.0:
        x_bar, upper = x_hat - tol, x_hat
    else:
        return None
    # An end at 0 sells nothing, whichever branch certified it.
    return x_bar, "closed" if x_bar > 0.0 else "rejected", upper


def apply(state, fill_result):
    """Commit a fill: update shares, money collected, and the journal.

    state.q becomes a new read-only vector only when the fill sold shares;
    otherwise it is the fill's q_before, the state's own vector.
    """
    q = fill_result.q_before
    if q is not state.q and (q.shape != state.q.shape or not (q == state.q).all()):
        raise StaleFillError("fill was computed against different outstanding shares")
    if fill_result.x_bar > 0.0:
        q = q + fill_result.order.bundle * fill_result.x_bar
        q.setflags(write=False)
    state.q = q
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
    """Pay $1 per outstanding share on the realized outcome, and check the
    loss against B + C(initial_q)."""
    n = state.config.n_outcomes
    if not 0 <= outcome < n:
        raise ValueError(f"outcome index must be in [0, {n}), got {outcome}")
    u = state.config.utility
    b_term, c0 = u.loss_bound_terms()
    # The initial shares are owed from the start and no charge paid for
    # them, so the bound is B + C(q0): the catalog's C(0) at a fresh start
    # (q0 >= 0, so its largest entry tells) or under an infinite B, and one
    # solve elsewhere.
    q0 = state.config.initial_q
    if q0[q0.argmax()] > 0 and b_term < math.inf:
        c0 = _cost.cost(u, q0)
    bound = b_term + c0
    payout = float(state.q[outcome])
    profit = state.collected - payout
    slack = SETTLE_RTOL * max(bound, state.collected, payout)
    ok = True if math.isinf(bound) else profit >= -bound - slack
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


def _json_number(x):
    """x as json.dumps writes it where that is its repr: an exact float or
    int, finite.  None for anything else."""
    if type(x) is float or type(x) is int:
        text = repr(x)
        # A finite repr has no "n": json writes inf and nan its own way.
        if "n" not in text:
            return text
    return None


def _json_floats(values):
    """', '-joined reprs of a list of floats, or None where json.dumps would
    write some entry otherwise: an int or bool raises TypeError here."""
    try:
        text = ", ".join(map(float.__repr__, values))
    except TypeError:
        return None
    return None if "n" in text else text


def trace_record(fill_result, collected_after):
    """One JSONL trace line per fill: the bytes of json.dumps(rec,
    sort_keys=True), floats by repr, so replays stay byte-identical.  The
    line is formatted directly when every number is a finite float or int
    and the trader id a string; anything else goes through the encoder."""
    o = fill_result.order
    limit = "inf" if math.isinf(o.limit) else o.limit
    bundle = o.bundle.tolist()
    before, after = fill_result.prices_before.tolist(), fill_result.prices_after.tolist()
    fields = (_json_number(fill_result.charge), _json_number(collected_after),
              _json_floats(bundle), '"inf"' if limit == "inf" else _json_number(limit),
              _json_number(o.pi),
              encode_basestring_ascii(o.trader_id) if type(o.trader_id) is str else None,
              _json_floats(after), _json_floats(before), _json_number(fill_result.x_bar))
    if None not in fields:
        return _TRACE_LINE % fields
    rec = {
        "order": {
            "trader_id": o.trader_id,
            "pi": o.pi,
            "limit": limit,
            "bundle": bundle,
        },
        "x_bar": fill_result.x_bar,
        "charge": fill_result.charge,
        "prices_before": before,
        "prices_after": after,
        "collected_after": collected_after,
    }
    return _TRACE_ENCODER.encode(rec)


def run_orders(state, orders, trace=None):
    """Fill and apply a sequence of orders; optionally collect trace lines."""
    for order in orders:
        f = fill(state, order)
        apply(state, f)
        if trace is not None:
            trace.append(trace_record(f, state.collected))
    return state
