"""Cost function C(q) = min_t t - u(te - q), state prices, and order charges.

The minimizing t solves e' grad(u)(te - q) = 1, and then C(q) = t -
u(te - q) and the prices are grad(u)(te - q).  solve_t has one path: the
utility's kernel (utilities.py) returns the level t, C and the prices
together, with the solve's path name and iteration count:

* "flat": a gradient that sums to 1 identically (LMSR, MinSCPM,
  QuadraticScore) makes the objective flat in t, and the kernel reads C
  and the prices at t = max_i q_i straight from q;
* "closed": the kind's level at S = all, T = 1 (QuadSCPM, LogSCPM), its
  _level of the whole q and _w, with C and the prices from one s = t - q.
  The prices are grad(u) at that level, so the price-sum check below
  bounds the same |1 - e' grad(u)| a certificate would.  LogSCPM's level
  is a Newton iteration, and its passes are the iterations.
  ExponentialSCPM's level is its cost: it reads C and the prices from
  LMSR's log-sum-exp, with weights e and C(0) = 0, and returns t = C;
* "root", the base kernel without a level (none in the catalog): _root_t
  brackets g(t) = 1 - e' grad(u)(te - q) with expand_bracket and hands it
  to bracketed_root, or returns "flat" where g is 0 at both ends up to the
  rounding of the price sum.

The kernel works at q - max(q), and solve_t adds max(q) back: C(q + ce) =
C(q) + c and prices are unchanged, so the level and the price check then
work at the scale of the spread of q, not of its size.  solve_t accepts a
q only if it is finite and its spread max(q) - min(q) is too, so that the
shift cannot overflow; both read off the entries of q at argmin and
argmax, min(q) and max(q) without a ufunc reduction (of -0.0 and +0.0
tied, the first; C, the prices and t come out the same).
The price-sum check reads p'e, and a renormalisation divides by p.sum();
a t, C or price that is not finite (a gap of inf or nan) is a SolverError.
For a monotone kind it rejects a price below -1e-10 and clamps the ones in
[-1e-10, 0) to +0.0, and it runs the clamp only when some price is
negative, read off the entry at argmin(p): a kernel hands it no -0.0.

expand_bracket and bracketed_root are the one 1-D search of the package,
and it stops on the width of its bracket alone.  market.fill ends every
price-bound fill on them, on the bundle price along the order: the bracket
grows from the utility's closed-form candidate, or from [0, 1] without
one, up to the limit.  analysis uses bracketed_root on the price p_i where
a non-monotone kind's worst-case loss peaks.

Tolerances are fixed so that traces and acceptance values are bit-stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

WIDTH_TOL = 1e-12
MAX_ITER = 200
MAX_EXPAND = 128
# g = 1 - e' grad(u) within FLAT_TOL max(1, sum |p_i|) at both ends of the
# first bracket is flat: the sum carries rounding of the prices' own size.
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
    iterations: int
    path: str  # "flat", "closed" or "root", named by the kernel

    @property
    def flat_objective(self):
        return self.path == "flat"


def bracketed_root(f, lo, hi, flo, fhi, tol):
    """Narrow a bracket of a nondecreasing f, f(lo) <= 0 < f(hi), to width tol.

    The bracket is narrow once lo + tol reaches hi or hi - tol reaches lo,
    so one made by a single step of tol from either end takes no probe.

    Anderson-Bjorck false position: when the same end of the bracket is
    kept twice, its value is scaled by 1 - f(x)/f(end replaced), and by at
    least the Illinois 1/2.  Safeguarded as in Brent (1973): no probe lands
    closer than tol/2 to an end, so a probe on the root still closes the
    bracket on the next step, and three probes that together fail to halve
    the bracket are followed by a bisection step, as is an infinite end
    value, which gives no secant.  Returns the low end and the number of
    probes.
    """
    side = 0
    widths = [hi - lo]
    while lo + tol < hi and hi - tol > lo and len(widths) <= MAX_ITER:
        width = widths[-1]
        if len(widths) > 3 and width > 0.5 * widths[-4] or math.isinf(fhi - flo):
            x = lo + 0.5 * width
        else:
            x = lo - flo * width / (fhi - flo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        fx = f(x)
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


def expand_bracket(f, lo, hi, flo, fhi, floor=-math.inf, ceiling=math.inf, step=1.0):
    """Widen [lo, hi] by doubling steps until f(lo) <= 0 < f(hi), f nondecreasing.

    Each step moves the end on the wrong side of the root, first by step,
    then by max(2 step, 1) and doubling from there: 1, 2, 4, ... from the
    default step.  The end it leaves behind becomes the other end, so the
    bracket stays as narrow as the probes allow; lo = hi is a bracket to
    grow.  No end passes floor or ceiling.  Returns (lo, hi, flo, fhi), or
    None when an end would pass floor or ceiling or the steps find no sign
    change: MAX_EXPAND of them below an infinite ceiling, and below a finite
    one its binary exponent + 2, enough for doubling steps from [0, 1] to
    reach it.
    """
    steps = MAX_EXPAND if ceiling == math.inf else max(math.frexp(ceiling)[1], 0) + 2
    for _ in range(steps):
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
        step = max(2.0 * step, 1.0)
    return (lo, hi, flo, fhi) if flo <= 0.0 < fhi else None


def _root_t(u, q):
    # q arrives shifted to max(q) = 0, so the bracket and its width have
    # the scale of the level above max(q), not of max(q).
    floor = u.domain_floor(q) + FLOOR_PAD

    def g(t):
        return 1.0 - u.grad_sum(t - q)

    def end(t):
        # g(t) and the scale of its rounding, sum |p_i|, for the flat test
        p = u.grad(t - q)
        return 1.0 - float(p.sum()), float(np.abs(p).sum())

    lo = max(-1.0, floor)
    hi = 1.0 if lo < 1.0 else lo + 1.0
    (glo, slo), (ghi, shi) = end(lo), end(hi)
    if max(abs(glo), abs(ghi)) <= FLAT_TOL * max(1.0, slo, shi):
        return 0.0, "flat", 0

    bracket = expand_bracket(g, lo, hi, glo, ghi, floor)
    if bracket is None:
        raise SolverError("bracket expansion failed (derivative has no sign change "
                          "above the domain floor)")
    lo, hi, glo, ghi = bracket
    tol = WIDTH_TOL * max(1.0, abs(lo), abs(hi))
    t, iterations = bracketed_root(g, lo, hi, glo, ghi, tol)
    return t, "root", iterations


@functools.lru_cache(maxsize=None)
def _ones(n):
    """A read-only vector of n ones, shared by every call: p.dot(_ones(n))
    sums p faster than a reduce."""
    ones = np.ones(n)
    ones.setflags(write=False)
    return ones


def solve_t(u, q):
    """Minimize t - u(te - q); returns level, cost, prices and diagnostics.

    Raises ValueError unless q has shape (N,), is finite and has a finite
    spread max(q) - min(q), and SolverError for a t, C or price that is not
    finite, prices off the simplex or, from a monotone kind, a price below
    -1e-10.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (u.n,):
        raise ValueError(f"q must have shape ({u.n},), got {q.shape}")
    # The extremes by index, not by a ufunc reduction: argmin and argmax
    # stop at the first nan, so a nan or an infinite entry, or a spread past
    # the float range, leaves qmin - qmax at -inf or nan.  The price sum is
    # only checked, so p'e serves; a renormalisation divides by p.sum().
    qmin, qmax = q.item(q.argmin()), q.item(q.argmax())
    if not -math.inf < qmin - qmax:
        raise ValueError("q must be finite, with a finite spread max(q) - min(q)")
    t, c, p, path, iterations = u._kernel(q - qmax)
    t, c, p = float(t + qmax), float(c + qmax), np.asarray(p, dtype=float)
    gap = abs(p.dot(_ones(p.size)) - 1.0)
    # A price that is not finite, or a price sum past the float range,
    # leaves the gap at inf or nan.
    if not (math.isfinite(t) and math.isfinite(c) and gap < math.inf):
        raise SolverError(f"cost solve not finite: t = {t}, C = {c}, price sum off by {gap}")
    if gap > PRICE_SUM_OK:
        scale = max(1.0, float(np.abs(p).sum()))
        if gap > PRICE_SUM_FIX * scale:
            raise SolverError(f"price vector off the simplex by {gap:.3e}")
        if gap > PRICE_SUM_OK * scale:
            p = p / p.sum()
    if u.monotone:
        pmin = p.item(p.argmin())
        if pmin < 0.0:
            if pmin < -1e-10:
                raise SolverError("negative price from a non-decreasing utility")
            p = np.maximum(p, 0.0)
    return CostSolveResult(t, c, p, iterations, path)


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
