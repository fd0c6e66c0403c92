"""Property tests of the limit-order fill and of the streams it makes, over
every catalog kind.

Quantities are drawn in units of the liquidity b, the scale on which
prices move, with b itself spanning six decades.  The closed-form level
property draws q and b apart, so that bundle prices underflow.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scpm import (MarketConfig, Order, UnboundedFillError, apply_fill, cost, fill, make_utility,
                  new_market, prices, settle)
from scpm.market import FILL_RTOL
from scpm.utilities import KINDS

N = 3


@st.composite
def fill_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    b = 10.0 ** draw(st.floats(-3.0, 3.0))
    q = b * np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=N, max_size=N)))
    a = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=N, max_size=N)
                      .filter(lambda v: 0.0 < sum(v) < N)))
    pi = draw(st.floats(0.01, 0.99))
    limit = draw(st.one_of(st.just(math.inf), st.floats(-2.0, 2.0).map(lambda e: b * 10.0 ** e)))
    return make_utility(kind, b=b, n_outcomes=N), q, a, pi, limit


def bundle_price(u, q, a):
    return float(prices(u, q) @ a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fill_cases())
def test_fill_properties(case):
    u, q, a, pi, limit = case
    f = fill(new_market(MarketConfig(utility=u, initial_q=q)), Order("h", pi, limit, a))
    x = f.x_bar
    assert 0.0 <= x <= limit
    # The integral charge is the cost difference, solved at the same points.
    assert f.charge == cost(u, q + a * x) - cost(u, q)
    if bundle_price(u, q, a) >= pi:
        assert x == 0.0
        return
    # Never ends above pi ...
    assert bundle_price(u, q + a * x, a) <= pi
    # ... on a bundle price that never falls along the fill ...
    p0, p1, p2 = (prices(u, q + a * y) for y in (0.0, x / 2.0, x))
    assert all(lo @ a <= hi @ a + 1e-12 * max(1.0, float(np.abs(hi).sum()))
               for lo, hi in ((p0, p1), (p1, p2)))
    # ... and is above pi past the bracket that ends the fill: a certified
    # closed form's is FILL_RTOL * max(1, x_hat) wide with x_hat <= x_bar +
    # tol, the search's FILL_RTOL * max(1, hi) with hi <= 2 x_bar once it
    # has grown past 1.  Twice that tolerance leaves room for rounding.
    if x < limit:
        tol = FILL_RTOL * max(1.0, 2.0 * x)
        assert bundle_price(u, q + a * (x + 2.0 * tol), a) > pi
    if 0.0 < x and math.isfinite(limit) and u.kind == "QuadraticScore":
        # Affine bundle price: after the solves at 0 and at the limit, one
        # false-position probe lands on the root and one more closes the
        # bracket.
        assert f.solves <= 4


# The kinds whose 0/1-bundle fill is tau_B(1 - pi) - tau_A(pi).
LEVEL_KINDS = ("LMSR", "LogSCPM", "MinSCPM", "ExponentialSCPM", "QuadSCPM")


LOG_FLAT_CASE = (make_utility("LogSCPM", b=1.0, n_outcomes=3),
                 np.array([3.5040089870893563, 0.0, 3.5040089870893563]),
                 np.array([1.0, 0.0, 1.0]), 0.9)


@st.composite
def level_cases(draw):
    kind = draw(st.sampled_from(LEVEL_KINDS))
    n = draw(st.sampled_from([2, 3, 10, 50]))
    b = 10.0 ** draw(st.floats(-6.0, 6.0))
    scale = 10.0 ** draw(st.floats(-3.0, 12.0))
    q = scale * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)
                      .filter(lambda v: 0.0 < sum(v) < n)))
    towards = draw(st.floats(0.01, 0.99))
    return make_utility(kind, b=b, n_outcomes=n), q, a, towards


@settings(max_examples=300, deadline=None, derandomize=True)
@given(level_cases())
# A tie at 1e8, where FILL_RTOL * x_hat is below the float spacing of q: the
# certificate steps one spacing instead.
@example((make_utility("LMSR", b=1.0, n_outcomes=2), np.array([1e8, 1e8]),
          np.array([0.0, 1.0]), 0.5))
# At 1e12 the fill's end, b log 1.5 at b = 1e-6, is below one spacing of q.
@example((make_utility("LMSR", b=1e-6, n_outcomes=2), np.array([1e12, 1e12]),
          np.array([1.0, 0.0]), 0.2))
# LogSCPM prices flat near pi: a solve residual of 1e-10 moves them more
# than the certificate's step does (test_log_fills_on_flat_prices_end_closed).
@example(LOG_FLAT_CASE)
# MinSCPM prices an in-set one ulp above the out-set as a tie; the levels'
# difference, -1.1e-16, is clamped to the fill's end at 0.
@example((make_utility("MinSCPM", b=1.0, n_outcomes=2), np.array([1.0, 1.0 - 2.0 ** -53]),
          np.array([1.0, 0.0]), 0.5))
def test_level_fills_end_closed(case):
    # The levels are log-sum-exps, maxima and roots over q, never over the
    # bundle's price, so a price that underflows to 0 keeps its closed form.
    u, q, a, towards = case
    p_a = bundle_price(u, q, a)
    pi = min(0.99, p_a + towards * (1.0 - p_a))
    f = fill(market_at(u, q), Order("h", pi, math.inf, a))
    if p_a >= pi:
        assert f.path == "rejected"
    elif f.path != "closed":
        # Rejected only where the candidate lies within two of the
        # certificate's steps of 0, at least one float spacing of q each:
        # q cannot record a sale that small.
        x_hat = u.solve_fill(q, a, pi, p_a)
        assert f.path == "rejected"
        assert x_hat <= 2.0 * max(FILL_RTOL * max(1.0, x_hat),
                                  np.spacing(float((q + a * x_hat).max())))


def test_log_fills_on_flat_prices_end_closed():
    # solve_t prices LogSCPM at its level, to a residual far below the
    # certificate's price step, so no correct candidate is refused: neither
    # the pinned example nor any of 200 seeded price-bound fills.
    u, q, a, towards = LOG_FLAT_CASE
    p_a = bundle_price(u, q, a)
    assert fill(market_at(u, q), Order("h", p_a + towards * (1.0 - p_a), math.inf,
                                       a)).path == "closed"
    rng = np.random.default_rng(5)
    paths = []
    while len(paths) < 200:
        q = rng.uniform(0.0, 5.0, size=N)
        a = rng.integers(0, 2, size=N).astype(float)
        if not 0.0 < a.sum() < N:
            continue
        p_a = bundle_price(u, q, a)
        if p_a < 0.99:
            pi = p_a + rng.uniform(0.01, 0.99) * (0.99 - p_a)
            paths.append(fill(market_at(u, q), Order("h", pi, math.inf, a)).path)
    assert paths.count("closed") == len(paths)


def test_mean_solves_per_accepted_fill():
    # Informed traders on fresh N = 3 sessions of 50 orders each: pi is the
    # trader's belief about the bundle plus noise, and limits run to 60 b.
    # Every kind has a closed form for these 0/1 bundles: a price-bound fill
    # takes the solves at 0, at the limit and the two of the certificate.
    rng = np.random.default_rng(12)
    bundles = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]], float)
    for kind in KINDS:
        u = make_utility(kind, b=1.0, n_outcomes=N)
        solves, paths = [], []
        for _ in range(6):
            state = new_market(MarketConfig(utility=u))
            belief = rng.dirichlet(np.full(N, 3.0))
            for _ in range(50):
                a = bundles[rng.integers(len(bundles))]
                pi = float(np.clip(belief @ a + abs(rng.normal(0.0, 0.05)), 0.02, 0.98))
                f = fill(state, Order("t", pi, float(rng.exponential(20.0)), a))
                apply_fill(state, f)
                if f.x_bar > 0.0:
                    solves.append(f.solves)
                    paths.append(f.path)
        # MinSCPM starts on a three-way tie: any x > 0 prices the bundle at
        # 1, so every fill ends at 0.
        if kind != "MinSCPM":
            assert np.mean(solves) <= 4, kind
            assert paths.count("bracket") <= 0.03 * len(paths), kind


def market_at(u, q):
    return new_market(MarketConfig(utility=u, initial_q=q))


@st.composite
def split_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.sampled_from([2, 3, 10]))
    b = 10.0 ** draw(st.floats(-2.0, 2.0))
    q = b * np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
    values = draw(st.sampled_from([[0.0, 1.0], [0.0, 0.5, 1.0, 2.0]]))
    # A bundle c e costs c at every q: its orders would all sit on a tie.
    a = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)
                      .filter(lambda v: any(v) and len(set(v)) > 1)))
    # pi lies this far from the bundle's price towards max(a), the most a
    # monotone kind's bundle price approaches.
    towards = draw(st.floats(0.01, 0.99))
    limit = b * 10.0 ** draw(st.floats(-2.0, 12.0))
    return make_utility(kind, b=b, n_outcomes=n), q, a, towards, limit


@settings(max_examples=200, deadline=None, derandomize=True)
@given(split_cases())
def test_split_order_fills_the_same(case):
    # Four orders with a quarter of the limit each end where the one order
    # does: x_bar is accurate relative to itself, whatever the limit.
    u, q, a, towards, limit = case
    p_a = bundle_price(u, q, a)
    pi = max(0.0, p_a + towards * (float(a.max()) - p_a))
    one = fill(market_at(u, q), Order("h", pi, limit, a)).x_bar
    state = market_at(u, q)
    split = 0.0
    for _ in range(4):
        f = fill(state, Order("h", pi, limit / 4.0, a))
        apply_fill(state, f)
        split += f.x_bar
    assert abs(split - one) <= 1e-6 * max(1.0, one)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 10]).flatmap(lambda n: st.tuples(
    st.floats(-2.0, 2.0),
    st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < n),
    st.floats(0.01, 0.99))))
def test_lmsr_far_limit_matches_closed_form(case):
    # The largest x with p(q + a x)'a <= pi is b log(pi S_out / ((1 - pi) S_in))
    # with S = sum exp(q_i / b) over the bundle's states and the others.
    log_b, q, a, pi = case
    b = 10.0 ** log_b
    q, a = b * np.array(q), np.array(a)
    u = make_utility("LMSR", b=b, n_outcomes=a.size)
    f = fill(market_at(u, q), Order("h", pi, 1e9, a))
    w = np.exp(q / b)
    exact = max(0.0, b * math.log(pi * w[a == 0].sum() / ((1.0 - pi) * w[a == 1].sum())))
    assert abs(f.x_bar - exact) <= 1e-8 * max(1.0, exact)


@st.composite
def streams(draw):
    n = draw(st.sampled_from([2, 3, 10]))
    b = 10.0 ** draw(st.floats(-3.0, 3.0))
    entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0))
    orders = []
    for _ in range(draw(st.integers(1, 6))):
        a = np.array(draw(st.lists(entry, min_size=n, max_size=n).filter(any)))
        limit = draw(st.one_of(st.just(math.inf),
                               st.floats(-2.0, 3.0).map(lambda e: b * 10.0 ** e)))
        # pi lies this far from the bundle's price towards max(a), the most a
        # monotone kind's bundle price approaches: below it when no limit
        # ends the fill.
        towards = draw(st.floats(0.01, 0.99 if limit == math.inf else 1.5))
        orders.append((a, towards, limit))
    return n, b, orders


@pytest.mark.filterwarnings("ignore:QuadraticScore produced negative prices")
@pytest.mark.parametrize("kind", [k for k in KINDS if k != "LogSCPM"])  # finite B + C(0)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(streams())
def test_settlement_within_loss_bound(kind, case):
    # Whichever outcome occurs, the organizer loses at most B + C(0).
    n, b, orders = case
    u = make_utility(kind, b=b, n_outcomes=n)
    state = new_market(MarketConfig(utility=u))
    for k, (a, towards, limit) in enumerate(orders):
        p_a = bundle_price(u, state.q, a)
        pi = max(0.0, p_a + towards * (float(a.max()) - p_a))
        try:
            apply_fill(state, fill(state, Order(f"t{k}", pi, limit, a)))
        except UnboundedFillError:
            # A refused order: entries far below b move prices only past
            # the fill's growth cap (or, for MinSCPM, past its tie tolerance).
            continue
    assert all(settle(state, i).bound_ok for i in range(n))
