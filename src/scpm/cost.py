"""Cost function C(q) = min_t t - u(te - q), state prices, and order charges.

The scalar minimization runs on the nondecreasing derivative
g(t) = 1 - e' grad(u)(te - q):

* utilities whose gradient sums to 1 identically (LMSR, MinSCPM,
  QuadraticScore) make the objective flat in t; the canonical
  t = max_i q_i is returned with path "flat";
* ExponentialSCPM and QuadSCPM expose exact closed-form withdrawal
  levels, checked against the |g| <= tolerance certificate (path "closed");
* everything else (LogSCPM) is bracketed and handed to bracketed_root
  (path "root").

bracketed_root is the one 1-D search of the engine: market.fill uses it
too, on the bundle price along the order.

Tolerances are fixed so that traces and acceptance values are bit-stable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

GRAD_TOL = 1e-10
WIDTH_TOL = 1e-12
MAX_ITER = 200
MAX_EXPAND = 128
FLAT_TOL = 1e-12
FLOOR_PAD = 1e-9

# |sum(prices) - 1| below PRICE_SUM_OK is accepted as-is, up to
# PRICE_SUM_FIX is renormalized, beyond that the solve has failed.
PRICE_SUM_OK = 1e-10
PRICE_SUM_FIX = 1e-8


class SolverError(RuntimeError):
    """The scalar cost solve failed (bracket expansion or simplex check)."""


@dataclass
class CostSolveResult:
    t_star: float
    cost: float
    prices: np.ndarray
    flat_objective: bool
    iterations: int
    path: str  # "flat", "closed" or "root"


def bracketed_root(f, lo, hi, flo, fhi, tol, ftol=None):
    """Narrow a bracket of a nondecreasing f, f(lo) <= 0 < f(hi), to width tol.

    Anderson-Bjorck false position: when the same end of the bracket is
    kept twice, its value is scaled by 1 - f(x)/f(end replaced), and by at
    least the Illinois 1/2.  Safeguarded as in Brent (1973): no probe lands
    closer than tol/2 to an end, so a probe on the root still closes the
    bracket on the next step, and three probes that together fail to halve
    the bracket are followed by a bisection step.  Returns the low end and
    the number of probes, or the first probe x with |f(x)| <= ftol.
    """
    side = 0
    widths = [hi - lo]
    while widths[-1] > tol and len(widths) <= MAX_ITER:
        width = widths[-1]
        if len(widths) > 3 and width > 0.5 * widths[-4]:
            x = lo + 0.5 * width
        else:
            x = lo - flo * width / (fhi - flo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        fx = f(x)
        if ftol is not None and abs(fx) <= ftol:
            return x, len(widths)
        if fx <= 0.0:
            if side < 0:
                fhi *= 1.0 - fx / flo if fx > 0.5 * flo else 0.5
            lo, flo, side = x, fx, -1
        else:
            if side > 0:
                flo *= 1.0 - fx / fhi if fx < 0.5 * fhi else 0.5
            hi, fhi, side = x, fx, 1
        widths.append(hi - lo)
    return lo, len(widths) - 1


def _root_t(u, q, qmax):
    # g is translation invariant, so search the level above max(q) on
    # q - max(q): the bracket and its width then have the scale of that
    # level, not of max(q).
    q = q - qmax
    floor = u.domain_floor(q)

    def g(t):
        return 1.0 - u.grad_sum(t - q)

    lo = -1.0
    hi = 1.0
    if math.isfinite(floor):
        lo = max(lo, floor + FLOOR_PAD)
        if hi <= lo:
            hi = lo + 1.0
    glo = g(lo)
    ghi = g(hi)
    if abs(glo) <= FLAT_TOL and abs(ghi) <= FLAT_TOL:
        return qmax, "flat", 0

    # Expand outwards; each end left behind becomes the other end.
    step = 1.0
    expansions = 0
    while glo > 0.0:
        if expansions >= MAX_EXPAND:
            raise SolverError("bracket expansion failed (derivative has no sign change)")
        new_lo = lo - step
        if math.isfinite(floor):
            new_lo = max(new_lo, floor + FLOOR_PAD)
            if new_lo == lo:
                raise SolverError("derivative positive down to the domain floor")
        hi, ghi = lo, glo
        lo = new_lo
        glo = g(lo)
        step *= 2.0
        expansions += 1
    step = 1.0
    while ghi < 0.0:
        if expansions >= MAX_EXPAND:
            raise SolverError("bracket expansion failed (derivative has no sign change)")
        lo, glo = hi, ghi
        hi += step
        ghi = g(hi)
        step *= 2.0
        expansions += 1

    tol = WIDTH_TOL * max(1.0, abs(lo), abs(hi))
    t, iterations = bracketed_root(g, lo, hi, glo, ghi, tol, GRAD_TOL)
    return qmax + t, "root", iterations


def solve_t(u, q, method="auto"):
    """Minimize t - u(te - q); returns level, cost, prices and diagnostics.

    method="bisect" forces the generic bracketing path (used by tests to
    cross-check the closed-form fast paths).
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (u.n,):
        raise ValueError(f"q must have shape ({u.n},), got {q.shape}")
    qmax = float(q.max())

    iterations = 0
    if method == "auto" and u.price_level_invariant:
        t, path = qmax, "flat"
    else:
        t = u.solve_withdrawal(q) if method == "auto" else None
        if t is not None:
            path = "closed"
            if abs(1.0 - u.grad_sum(t - q)) > 1e-8:
                raise SolverError(f"closed-form withdrawal failed certificate for {u.kind}")
        else:
            t, path, iterations = _root_t(u, q, qmax)

    s = t - q
    c = t - u.value(s)
    p = np.asarray(u.grad(s), dtype=float)
    gap = abs(p.sum() - 1.0)
    if gap > PRICE_SUM_FIX:
        raise SolverError(f"price vector off the simplex by {gap:.3e}")
    if gap > PRICE_SUM_OK:
        p = p / p.sum()
    if u.monotone:
        if np.any(p < -1e-10):
            raise SolverError("negative price from a non-decreasing utility")
        p = np.clip(p, 0.0, None)
    elif np.any(p < 0):
        warnings.warn(f"{u.kind} produced negative prices", stacklevel=2)
    return CostSolveResult(float(t), float(c), p, path == "flat", iterations, path)


def cost(u, q, method="auto"):
    """C(q), the money collected when the outstanding shares are q."""
    return solve_t(u, q, method=method).cost


def prices(u, q, method="auto"):
    """State price vector p(q) = grad C(q); sums to 1."""
    return solve_t(u, q, method=method).prices


def charge(u, q, a, x):
    """Integral charge C(q + a x) - C(q) for filling x units of bundle a."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    if x < 0:
        raise ValueError(f"fill quantity must be nonnegative, got {x}")
    if a.shape != (u.n,) or np.any(a < 0) or not np.any(a > 0):
        raise ValueError("bundle must be nonnegative, nonzero, of market length")
    if x == 0:
        return 0.0
    return cost(u, q + a * x) - cost(u, q)
