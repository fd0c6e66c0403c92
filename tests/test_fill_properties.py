"""Property tests of the limit-order fill, over every catalog kind.

Quantities are drawn in units of the liquidity b, the scale on which
prices move, with b itself spanning six decades.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from scpm import MarketConfig, Order, apply_fill, cost, fill, make_utility, new_market, prices
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
    # ... and is above pi past the bracket the search closed: its width is
    # at most FILL_RTOL * max(1, hi) with hi = limit, or hi <= 2 x_bar for
    # an infinite limit.  Twice that tolerance leaves room for rounding.
    if x < limit:
        tol = FILL_RTOL * max(1.0, limit if math.isfinite(limit) else 2.0 * x)
        assert bundle_price(u, q + a * (x + 2.0 * tol), a) > pi
    if 0.0 < x and math.isfinite(limit) and u.kind == "QuadraticScore":
        # Affine bundle price: after the solves at 0 and at the limit, one
        # false-position probe lands on the root and one more closes the
        # bracket.
        assert f.solves <= 4


def test_mean_solves_per_accepted_fill():
    # Informed traders on fresh N = 3 sessions of 50 orders each: pi is the
    # trader's belief about the bundle plus noise, and limits run to 60 b.
    rng = np.random.default_rng(12)
    bundles = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]], float)
    for kind in KINDS:
        u = make_utility(kind, b=1.0, n_outcomes=N)
        solves = []
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
        if kind == "QuadraticScore":
            assert np.mean(solves) <= 5
        elif kind != "MinSCPM":
            assert np.mean(solves) <= 12, kind
