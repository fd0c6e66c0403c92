"""Compare the six catalog mechanisms side by side.

For each utility: worst-case loss (analytic and the independent numeric
search), properness verdict, whether the risk-measure view applies, and
the identified conjugate-penalty family.

Run:  python3 demos/mechanism_comparison.py
"""

import math

from scpm import table1

B, N = 1.0, 2

print(f"Mechanism comparison at b = {B}, N = {N}\n")
header = f"{'mechanism':<16} {'loss':>10} {'loss (search)':>14}  {'properness':<16} {'penalty family'}"
print(header)
print("-" * len(header))

for row in table1(B, N):
    loss = "unbounded" if math.isinf(row.loss) else f"{row.loss:.6f}"
    loss_num = "unbounded" if math.isinf(row.loss_numeric) else f"{row.loss_numeric:.6f}"
    if row.penalty is None:
        penalty = "- (not monotone)"
    else:
        penalty = f"{row.penalty}  (fit dev {row.penalty_dev:.1e})"
    print(f"{row.kind:<16} {loss:>10} {loss_num:>14}  {row.properness:<16} {penalty}")

print("""
Notes:
* LMSR and ExponentialSCPM both risk b log N; their penalties coincide
  for a uniform prior.
* MinSCPM risks nothing but is only weakly proper: many beliefs map to
  the same prices, so prices need not converge to a trader's belief.
* LogSCPM elicits beliefs exactly (log score) at the price of an
  unbounded worst-case loss.
* QuadraticScore is not monotone, so it has no risk-measure reading and
  its prices can leave [0, 1].
""")
