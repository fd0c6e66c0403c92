"""Show prices converging to a trader's belief, and why charging at the
final price breaks truthfulness.

Part 1: a single agent with belief (0.7, 0.3) trades whenever prices
disagree with it; under integral charging the prices pin to the belief.

Part 2: sweep the declared limit price pi for a trader who truly values
outcome 0 at 0.8.  With integral charging the best declaration is the
truth; with final-price charging it pays to shade the bid.

Run:  python3 demos/belief_convergence.py
"""

import numpy as np

from scpm import MarketConfig, Order, converge, fill, make_utility, new_market, prices

u = make_utility("LMSR", b=1.0, n_outcomes=2)
belief = np.array([0.7, 0.3])

state = new_market(MarketConfig(utility=u))
print(f"Agent belief: {belief}")
sweeps = converge(state, belief)
print(f"After {sweeps} sweep(s): prices = {np.round(prices(u, state.q), 6)}")

print("\nDeclared-price sweep, true valuation gamma = 0.8:")
gamma = 0.8
print(f"{'pi':>6} {'integral profit':>16} {'final-price profit':>19}")
for pi in [0.60, 0.70, 0.75, 0.80, 0.85, 0.90]:
    row = [pi]
    for mode in ("integral", "final"):
        s = new_market(MarketConfig(utility=u, charging_mode=mode))
        f = fill(s, Order("t", pi, 3.0, np.eye(2)[0]))
        row.append(gamma * f.x_bar - f.charge)
    print(f"{row[0]:>6.2f} {row[1]:>16.4f} {row[2]:>19.4f}")

print("\nIntegral charging peaks at pi = gamma; final-price charging rewards"
      "\nunderstating the bid, so it is not incentive compatible.")
