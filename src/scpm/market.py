"""Market state, limit-order fills, charging, and settlement.

fill() is pure: it computes the accepted quantity and charge without
touching the state; apply() commits a fill.  The quantity is the largest
x in [0, limit] with f(x) = p(q + a x)'a - pi <= 0.  A fill with f(0) >= 0
ends on the solve at 0 alone, "rejected".  Otherwise the fill asks the
utility's solve_fill hook for a closed-form candidate x_hat, handing it
that solve, from which most kinds read their end (utilities.py).  One
search ends the fill: cost.expand_bracket grows a bracket up to the
limit, or to 2**60 for none, and cost.bracketed_root narrows it to the
same width at its upper end hi, FILL_RTOL * max(1, hi) or one float
spacing of q + a hi where that is wider, so x_bar is accurate relative
to itself.  The bracket grows from [x_hat, x_hat], its first step that
width at x_hat, where 0 <= x_hat < limit (or 2**60); a right candidate
then ends on its solve and one a step from it, "closed".  Otherwise a
finite limit is probed first, and the bracket grows from [0, min(1, limit)].
A limit where f <= 0 ends the fill there, "limit"; a limit where some
q_i + a_i limit leaves the floats is no limit, and the bracket grows to
2**60 or to the limit, whichever is lower.  An end at 0, or an x_bar that
leaves some bought state's q_i unchanged, sells nothing: "rejected".
Every point is solved and priced once: the prices before and after and the
charge are read from those solves, and the fill keeps its end point, read
only, as q_after.  Two charging modes exist:

* "integral" -- the truthful scheme, charge = C(q + a x) - C(q), equal to
  the integral of instantaneous bundle prices over the fill;
* "final" -- charge x * p(x)'a at the final price (not truthful; kept so
  the difference is demonstrable).

A state owns one read-only share vector, state.q: assign a new vector to
change it.  The point at 0 of a fill is state.q itself, and the fill's
q_before is that vector.  apply installs the fill's end point q_after,
which is a new vector only when x_bar > 0.  A q that the caller assigned
writable is read through a read-only snapshot.

Order streams are CSV (trader_id,pi,limit,bundle with the bundle as
semicolon-separated reals, and the limit as float() reads it, so "inf"
is no limit); traces are JSON lines.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

# perfbench/tracing.py wraps both names where this module binds them.
from .cost import charge as compute_charge, prices as compute_prices, whole

# The package re-exports the function cost under the submodule's name.
_cost = importlib.import_module(".cost", __package__)

CHARGING_MODES = ("integral", "final")

# What json.dumps(rec, sort_keys=True) builds on every call; encode keeps no state.
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True)

# A trace record as _TRACE_ENCODER writes it, its keys in sorted order.
_TRACE_LINE = ('{"charge": %s, "collected_after": %s, "order": {"bundle": %s, "limit": %s, '
               '"pi": %s, "trader_id": %s}, "prices_after": %s, "prices_before": %s, '
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


# Records that hold arrays compare by identity: an == of arrays could only raise.
@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Order:
    trader_id: str
    pi: float
    limit: float
    bundle: np.ndarray
    # max(bundle), read once here for the fill's float-range test.
    bundle_max: float = field(init=False, repr=False)

    def __post_init__(self):
        if not self.pi >= 0:
            raise ValueError(f"limit price must be >= 0, got {self.pi}")
        if not self.limit > 0:
            raise ValueError(f"limit quantity must be positive, got {self.limit}")
        # The order's own copy: the caller may reuse its array for the next order.
        a = np.array(self.bundle, dtype=float)
        # The extremes by index, not by a ufunc reduction: argmin and argmax
        # stop at a nan, and no comparison holds for it.
        a_max = a.item(a.argmax()) if a.ndim == 1 and a.size else math.nan
        if not (0.0 < a_max < math.inf and a.item(a.argmin()) >= 0.0):
            raise ValueError("bundle must be finite, nonnegative and nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "bundle", a)
        object.__setattr__(self, "bundle_max", a_max)


@dataclass(slots=True, eq=False)
class FillResult:
    x_bar: float
    charge: float
    prices_before: np.ndarray
    prices_after: np.ndarray
    order: Order
    q_before: np.ndarray
    q_after: np.ndarray  # the read-only end point q + a x_bar, q_before if x_bar = 0
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


@dataclass(eq=False)
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

    # Looked up at call time, so a wrapped cost.solve_t sees every solve.
    # ndarray.dot: the bits of @ for two vectors, without the ufunc's overhead.
    before = _cost.solve_t(u, q)
    p_a = float(before.prices.dot(a))
    # A bundle price at or above pi rejects the order on this one solve.
    if not p_a - order.pi < 0.0:
        return FillResult(x_bar=0.0, charge=0.0, prices_before=before.prices,
                          prices_after=before.prices, order=order, q_before=q, q_after=q,
                          solves=1, path="rejected")

    # One record per point: the point, its solve and its bundle price.
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

    # p_a itself: excess(0) + pi loses a price far below pi.
    x_bar, path = _price_bound_end(u, q, order, before, p_a, excess, width)
    end, after, after_p_a = points[x_bar]
    # An end at 0 sells nothing, nor does one that a bought state's q_i cannot record.
    if x_bar == 0.0 or np.count_nonzero(end != q) < np.count_nonzero(a):
        x_bar, path, end, after, paid = 0.0, "rejected", q, before, 0.0
    elif state.config.charging_mode == "integral":
        paid = after.cost - before.cost
    else:
        paid = x_bar * after_p_a
    end.setflags(write=False)
    return FillResult(
        x_bar=float(x_bar),
        charge=float(paid),
        prices_before=before.prices,
        prices_after=after.prices,
        order=order,
        q_before=q,
        q_after=end,
        solves=len(points),
        path=path,
    )


def _price_bound_end(u, q, order, before, p_a, excess, width):
    """The end of a fill with excess(0) = p_a - pi < 0, from the solve at 0,
    before, and its path ("limit", "closed" or "bracket"; fill renames an
    end at 0): one bracket search on excess, narrowed to width(hi) at its
    upper end hi.  It grows from the hook's x_hat, its first step
    width(x_hat), where x_hat lies in [0, ceiling); otherwise a finite limit
    is probed first, and it grows from [0, min(1, ceiling)].  The ceiling is
    the limit, or 2**GROWTH_STEPS (and no more than the limit) where
    q + a limit leaves the floats; the steps always reach it, and a search
    that ends there with excess <= 0 ends at a finite limit, or raises."""
    a, limit, a_max = order.bundle, order.limit, order.bundle_max
    # Below 2**970, half a spacing of the largest float, a limit keeps q + a limit finite.
    finite = a_max * limit < 2.0 ** 970 or all(
        math.isfinite(x + y * limit) for x, y in zip(q.tolist(), a.tolist()))
    # A monotone utility's prices concentrate on max-weight states as x grows.
    if not finite and u.monotone and order.pi >= a_max:
        raise UnboundedFillError(f"limit price {order.pi} can never be reached; "
                                 "order would fill without bound")
    ceiling = limit if finite else min(limit, 2.0 ** GROWTH_STEPS)

    x_hat = u.solve_fill(q, a, order.pi, before, p_a)
    from_hat = x_hat is not None and 0.0 <= x_hat < ceiling
    if from_hat:
        f_lo = f_hi = excess(x_hat)
        lo, hi, step = x_hat, x_hat, width(x_hat)
    elif finite and excess(limit) <= 0.0:
        return limit, "limit"
    else:
        lo, hi, step = 0.0, min(1.0, ceiling), 1.0
        f_lo, f_hi = excess(lo), excess(hi)
    bracket = _cost.expand_bracket(excess, lo, hi, f_lo, f_hi, floor=0.0, ceiling=ceiling,
                                   step=step)
    if bracket is None and finite:
        return limit, "limit"
    if bracket is None:
        raise UnboundedFillError("fill bracket exceeded the growth cap")
    lo, hi, f_lo, f_hi = bracket
    # The point's float spacing is read only where FILL_RTOL * max(1, hi)
    # leaves the bracket open: a wider tolerance closes a closed one too.
    tol = FILL_RTOL * max(1.0, hi)
    if lo + tol < hi and hi - tol > lo:
        tol = width(hi)
    x_bar, probes = _cost.bracketed_root(excess, lo, hi, f_lo, f_hi, tol)
    return x_bar, "closed" if from_hat and not probes else "bracket"


def apply(state, fill_result):
    """Commit a fill: update shares, money collected, and the journal.

    state.q becomes the fill's end point q_after, the read-only vector that
    fill solved last: a new one only when the fill sold shares, otherwise
    the fill's q_before, the state's own vector.
    """
    q = fill_result.q_before
    if q is not state.q and (q.shape != state.q.shape or not (q == state.q).all()):
        raise StaleFillError("fill was computed against different outstanding shares")
    state.q = fill_result.q_after
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
    # Negated, so a nan sum fails the test as well.
    if belief.shape != (n,) or not abs(belief.sum() - 1.0) <= 1e-10 or np.any(belief < 0):
        raise ValueError("belief must lie on the probability simplex")
    rounds = whole(rounds, "rounds", 0)
    units = np.eye(n)  # one per call: each Order copies its row
    sweeps = 0
    for _ in range(rounds):
        p = compute_prices(state.config.utility, state.q)
        traded = False
        for i in range(n):
            if belief[i] > p[i]:
                f = fill(state, Order("agent", float(belief[i]), cap, units[i]))
                if f.x_bar > 0:
                    apply(state, f)
                    traded = True
        sweeps += 1
        if not traded:
            break
    return sweeps


def settle(state, outcome):
    """Pay $1 per outstanding share on the realized outcome, an index in
    [0, N) (cost.whole), and check the loss against B + C(initial_q)."""
    outcome = whole(outcome, "outcome index", 0, state.config.n_outcomes)
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
                    limit=float(row[2]),
                    bundle=parse_bundle(row[3], n),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad order row: {exc}") from exc
    return orders


def _json(x):
    """x as _TRACE_ENCODER writes it: a finite float by its repr, anything
    else through the encoder alone (which escapes a str at once)."""
    text = repr(x) if type(x) is float else "n"
    # A finite repr has no "n": json writes inf and nan its own way.
    return text if "n" not in text else _TRACE_ENCODER.encode(x)


def _json_floats(values):
    """A list as _TRACE_ENCODER writes it: finite floats by their reprs,
    joined directly; any other list through the encoder (an int or bool
    entry raises TypeError here)."""
    try:
        text = ", ".join(map(float.__repr__, values))
    except TypeError:
        text = "n"
    return _TRACE_ENCODER.encode(values) if "n" in text else f"[{text}]"


def trace_record(fill_result, collected_after):
    """One JSONL trace line per fill: the bytes of json.dumps(rec,
    sort_keys=True), floats by repr, so replays stay byte-identical.  Each
    field is written into _TRACE_LINE on its own: directly where it is a
    finite float, a list of them or a str id, else by the encoder."""
    o = fill_result.order
    return _TRACE_LINE % (
        _json(fill_result.charge), _json(collected_after), _json_floats(o.bundle.tolist()),
        _json("inf" if math.isinf(o.limit) else o.limit), _json(o.pi), _json(o.trader_id),
        _json_floats(fill_result.prices_after.tolist()),
        _json_floats(fill_result.prices_before.tolist()), _json(fill_result.x_bar))


def run_orders(state, orders, trace=None):
    """Fill and apply a sequence of orders; optionally collect trace lines."""
    for order in orders:
        f = fill(state, order)
        apply(state, f)
        if trace is not None:
            trace.append(trace_record(f, state.collected))
    return state
