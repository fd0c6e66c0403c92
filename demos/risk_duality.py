"""The market maker as a convex risk measure.

Every monotone catalog utility induces rho(Z) = C(-Z): the capital the
organizer must hold against an uncertain liability -Z.  The conjugate
dual writes the same number as a worst-case expected loss over beliefs,
penalized by how implausible each belief is:

    rho(Z) = -min_p { E_p[Z] + L(p) }

This demo evaluates both sides (the dual at the engine's own prices and
on a refined simplex lattice) and prints the penalty family that makes
each mechanism tick.

Run:  python3 demos/risk_duality.py
"""

import numpy as np

from scpm import make_utility, risk_dual_check, risk_measure

Z = np.array([1.0, -0.5])  # win 1 in state 0, lose 0.5 in state 1
print(f"Position Z = {Z}\n")
print(f"{'mechanism':<16} {'rho(Z)':>9} {'dual':>9} {'gap':>9}   penalty")

PENALTIES = {
    "MinSCPM": "none (worst case)",
    "LMSR": "b*KL(p || prior)",
    "ExponentialSCPM": "b*KL(p || uniform)",
    "QuadSCPM": "b*||p - theta||^2",
    "LogSCPM": "neg. log-likelihood",
}

for kind, family in PENALTIES.items():
    u = make_utility(kind, b=1.0, n_outcomes=2)
    ev = risk_dual_check(u, Z, grid_resolution=4000)
    print(f"{kind:<16} {ev.rho:>9.5f} {ev.dual_value:>9.5f} {ev.dual_gap:>9.2e}   {family}")

print("""
Reading the table:
* MinSCPM has zero penalty: it prices against the most adversarial
  belief outright, so rho(Z) = -min_i Z_i.
* KL and quadratic penalties discount implausible beliefs, giving less
  conservative capital requirements.
* Adding sure cash c shifts rho by exactly -c (translation equivariance):
""")

u = make_utility("LMSR", b=1.0, n_outcomes=2)
for c in (0.0, 0.5, 1.0):
    print(f"  rho(Z + {c:.1f}) = {risk_measure(u, Z + c).rho:+.5f}")
