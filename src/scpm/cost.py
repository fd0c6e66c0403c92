"""Cost function C(q) = min_t t - u(te - q), state prices, and order charges.

The minimizing t solves e' grad(u)(te - q) = 1.  solve_t has three
paths, each owned by one thing:

* "flat", owned by the kind's price_level_invariant flag: a gradient that
  sums to 1 identically (LMSR, MinSCPM, QuadraticScore) makes the
  objective flat in t, and the canonical t = max_i q_i is returned;
* "closed", owned by the kind's level (utilities.py): solve_withdrawal is
  _level at S = all, T = 1 (ExponentialSCPM, QuadSCPM, LogSCPM).  Its
  prices are grad(u) at that level, so the price-sum check below bounds
  the same |1 - e' grad(u)| a certificate would;
* "root", owned by _root_t: a Utility with no level (none in the
  catalog) is bracketed on g(t) = 1 - e' grad(u)(te - q) with
  expand_bracket and handed to bracketed_root.

Every path solves at q - max(q) and adds max(q) back: C(q + ce) = C(q) + c
and prices are unchanged, so the level and the price check then work at
the scale of the spread of q, not of its size.

expand_bracket and bracketed_root are the one 1-D search of the package.
market.fill falls back on them, on the bundle price along the order, when
a utility's closed-form fill is missing or fails its certificate; the
bracket grows from 1 up to the limit.  LogSCPM's level tau_S(T), for its
withdrawal and each side of a fill, narrows one bracket.  analysis uses
them on a partial derivative of u: the conjugate-point coordinate solve
grows and narrows a bracket, and the worst-case-loss box ascent narrows
one between the box ends.

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
# PRICE_SUM_FIX is renormalized, beyond that the solve has failed.  Past
# PRICE_SUM_OK both bounds scale with max(1, sum |p_i|): QuadraticScore's
# prices leave [0, 1] and their sum carries rounding of their own size.
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
    the bracket are followed by a bisection step, as is an infinite end
    value, which gives no secant.  Returns the low end and the number of
    probes, or the first probe x with |f(x)| <= ftol.
    """
    side = 0
    widths = [hi - lo]
    while widths[-1] > tol and len(widths) <= MAX_ITER:
        width = widths[-1]
        if len(widths) > 3 and width > 0.5 * widths[-4] or math.isinf(fhi - flo):
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


def expand_bracket(f, lo, hi, flo, fhi, floor=-math.inf, ceiling=math.inf,
                   max_steps=MAX_EXPAND):
    """Widen [lo, hi] by doubling steps until f(lo) <= 0 < f(hi), f nondecreasing.

    Each step moves the end on the wrong side of the root by 1, 2, 4, ...
    and the end it leaves behind becomes the other end, so the bracket
    stays as narrow as the probes allow.  No end passes floor or ceiling.
    Returns (lo, hi, flo, fhi), or None when an end would pass floor or
    ceiling or max_steps steps find no sign change.
    """
    step = 1.0
    for _ in range(max_steps):
        if flo > 0.0:
            new_lo = max(lo - step, floor)
            if new_lo == lo:
                return None
            hi, fhi, lo = lo, flo, new_lo
            flo = f(lo)
        elif fhi <= 0.0:
            if hi >= ceiling:
                return None
            lo, flo = hi, fhi
            hi = hi + step if hi + step < ceiling else ceiling
            fhi = f(hi)
        else:
            return lo, hi, flo, fhi
        step *= 2.0
    return (lo, hi, flo, fhi) if flo <= 0.0 < fhi else None


def _root_t(u, q):
    # q arrives shifted to max(q) = 0, so the bracket and its width have
    # the scale of the level above max(q), not of max(q).
    floor = u.domain_floor(q) + FLOOR_PAD

    def g(t):
        return 1.0 - u.grad_sum(t - q)

    lo = max(-1.0, floor)
    hi = 1.0 if lo < 1.0 else lo + 1.0
    glo = g(lo)
    ghi = g(hi)
    if abs(glo) <= FLAT_TOL and abs(ghi) <= FLAT_TOL:
        return 0.0, "flat", 0

    bracket = expand_bracket(g, lo, hi, glo, ghi, floor)
    if bracket is None:
        raise SolverError("bracket expansion failed (derivative has no sign change "
                          "above the domain floor)")
    lo, hi, glo, ghi = bracket
    tol = WIDTH_TOL * max(1.0, abs(lo), abs(hi))
    t, iterations = bracketed_root(g, lo, hi, glo, ghi, tol, GRAD_TOL)
    return t, "root", iterations


def solve_t(u, q):
    """Minimize t - u(te - q); returns level, cost, prices and diagnostics."""
    q = np.asarray(q, dtype=float)
    if q.shape != (u.n,):
        raise ValueError(f"q must have shape ({u.n},), got {q.shape}")
    qmax = float(q.max())
    q = q - qmax

    iterations = 0
    if u.price_level_invariant:
        t, path = 0.0, "flat"
    elif (t := u.solve_withdrawal(q)) is not None:
        path = "closed"
    else:
        t, path, iterations = _root_t(u, q)

    s = t - q
    c = t - u.value(s)
    p = np.asarray(u.grad(s), dtype=float)
    gap = abs(p.sum() - 1.0)
    if gap > PRICE_SUM_OK:
        scale = max(1.0, float(np.abs(p).sum()))
        if gap > PRICE_SUM_FIX * scale:
            raise SolverError(f"price vector off the simplex by {gap:.3e}")
        if gap > PRICE_SUM_OK * scale:
            p = p / p.sum()
    if u.monotone:
        if p.min() < -1e-10:
            raise SolverError("negative price from a non-decreasing utility")
        p = np.maximum(p, 0.0)
    elif p.min() < 0:
        warnings.warn(f"{u.kind} produced negative prices", stacklevel=2)
    return CostSolveResult(float(t + qmax), float(c + qmax), p, path == "flat", iterations, path)


def cost(u, q):
    """C(q), the money collected when the outstanding shares are q."""
    return solve_t(u, q).cost


def prices(u, q):
    """State price vector p(q) = grad C(q); sums to 1."""
    return solve_t(u, q).prices


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
