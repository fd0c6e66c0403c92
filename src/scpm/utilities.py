"""Concave utility catalog for convex pari-mutuel market making.

Each utility u(s) is concave in the organizer's per-state surplus vector s
and induces a market maker through the cost function C(q) = min_t t - u(te - q)
(see cost.py).  The catalog covers six mechanisms:

    LMSR              u(s) = -b log sum_i theta_i exp(-s_i/b)   (theta = e classic)
    QuadraticScore    u(s) = e's/N - (1/4b) s'(I - ee'/N) s
    LogSCPM           u(s) = sum_i theta_i log s_i              (s > 0)
    MinSCPM           u(s) = min_i s_i
    ExponentialSCPM   u(s) = b (1 - (1/N) sum_i exp(-s_i/b))
    QuadSCPM          u(s) = max_{v <= s} theta'v - (1/4b) v'v

Every utility exposes exact evaluation (batched over the last axis),
an analytic (sub)gradient, the feasibility floor for t in te - q, the
concave-conjugate penalty L(p) = sup_s u(s) - p's in closed form, and
its analytic worst-case-loss terms (B, C(0)).

A kind writes only its formulas: _value(s) and _grad(s) on float arrays
(..., N) and loss_bound_terms() always, and _conjugate for the properness
and penalty studies; _level with its per-state weights _w, _penalty,
_kernel and _residual (for a set-valued subdifferential) where it has
them, a solve_fill of its own where the cost solve at q gives its fill's
end, and _default_theta and _check_theta if it takes a prior.
MinSCPM's subdifferential is the simplex over the argmin of s, so its
prices are uniform over the exact argmax of q: no tolerance decides a tie.
The base class owns the plumbing: value, grad, penalty_raw,
conjugate_penalty and properness_residual coerce their input (_as_alloc:
length N, and s > 0 for LogSCPM) and return a float for one row and the
array for a batch, each row bit for bit as its own call.  solve_withdrawal
and the base solve_fill come from _level; a kind without _penalty raises
PenaltyUnsupportedError.

solve_fill(q, a, pi, before, p_a) gives the end of a fill along a 0/1
bundle in closed form (market.fill certifies it).  The out-set B then
holds price 1 - pi at the unmoved level and the in-set A holds pi, so x =
max(0, tau_B(1 - pi) - tau_A(pi)).  The level tau_S(T) solves sum_{i in
S} du/ds_i(tau - q_i) = T; _level(q, w, T) takes S's entries of q - max q
and of the kind's weights _w:

    LMSR              b (LSE_S(q/b + w) - log T),  w = log theta_hat,
                      theta_hat = theta/sum(theta)
    MinSCPM           max_S q,                     w = 0 (unread)
    QuadSCPM          water-filling over S,        w = the clamp 2b theta
    LogSCPM           Newton on 1 / sum_S w_i / (tau - q_i), from below,
                                                   w = theta

At S = all, T = 1 it is the withdrawal of every non-flat kind.
QuadraticScore has no level; its bundle price is affine, and its own
solve_fill gives 2b (pi - p(q)'a) / (a'a - (e'a)^2/N), any bundle.

Small forms.  Below SMALL_N = 8 states these run over Python floats in
place of arrays, where numpy's per-call cost outweighs the work on a few
numbers: the levels, QuadSCPM's and QuadraticScore's _kernel.  Utility
alone picks a level's form, by N: lists below SMALL_N states, arrays from
it on, of the whole q and _w in solve_withdrawal and of each side of a
0/1 bundle in the base solve_fill.  Each level reads its form from q:
QuadSCPM's water-filling over q + w (sort, running sum, active prefix),
LogSCPM's Newton over _float_sums or _array_sums, MinSCPM's max.  A list
form makes the array form's float operations in the same order, so it
gives the same bits, -0.0 included: below eight terms np.add.reduce adds
left to right from 0.0, as the loops do (from eight on it adds in
blocks), and np.minimum and np.maximum give the second operand at a tie,
as the loops' tests do.  Python floats overflow without numpy's warning;
solve_t raises SolverError for a t, C or price that is not finite.  The
LMSR family's kernels and levels (the levels are its hook's fallback
where a price underflows; they take lists as arrays) and LogSCPM's kernel
tail stay in numpy: their exp and log are numpy's, whose SIMD loops
differ from math.exp and math.log in the last bit on some inputs, so a
list form would move their bits.  A batch's reductions over its last axis
(value, grad, the penalties, the residuals and analysis's studies) go
through _rows: below SMALL_N columns, where numpy would reduce row by row,
one ufunc call per column over every row, in the reduce's own order
(np.add from its identity, so a row of -0.0 adds to +0.0; np.minimum and
np.maximum from the first column), which gives ufunc.reduce's bytes.  A
1-D input, or a batch of SMALL_N columns or more, stays on ufunc.reduce.

market.fill hands the hook the cost solve at q it already holds, before,
with p_a = p'a for p = before.prices, so a kind whose end follows from
that solve reads it from there:

    LMSR              b (log(pi p_B) - log((1 - pi) p_A)), as p_A moves
                      along sigma(logit p_A + x/b); p_B = p'(e - a) is
                      summed, not taken as 1 - p_A.  The levels where a
                      product is not a normal float (p_A or p_B underflows)
    QuadSCPM          the levels
    LogSCPM           the levels
    MinSCPM           the levels: max_B q - max_A q
    QuadraticScore    its affine form above

_conjugate(R) gives, for interior beliefs R (M, N) on the simplex, a
maximizer S of u(s) - r's per row, where grad(u)(S) = R: the inverse
gradient, in closed form with no iteration.

    LMSR              b (log theta_hat - log r)
    LogSCPM           theta / r
    QuadSCPM          2b (theta - r)
    QuadraticScore    2b (e/N - r)
    MinSCPM           0: every diagonal point is a maximizer

analysis reads the properness and penalty studies' points from it alone
and checks them through grad; the base raises NotImplementedError, naming
the kind.

_kernel(q) is the whole cost solve of cost.solve_t at q with max(q) = 0:
the level t, C = t - u(t - q), the prices grad(u)(t - q), the path name
and the iterations.  The flat kinds read t = 0 and both values from q in
one pass.  The base kernel takes t from solve_withdrawal, or else from
cost._root_t, and reads C = t - _value(s) and the prices _grad(s) at one
s = t - q.  QuadSCPM's kernel is the base kernel from SMALL_N states on
and the same float operations over lists below them.  LogSCPM takes t
from its Newton level with its pass count and reads C and the prices as
the base does.

LMSR's value, grad and kernel read one log-sum-exp.  With alpha =
sum(theta), C(0) = b log alpha (from alpha - 1 summed exactly where alpha
is near 1, stored at construction) and theta_hat = theta/alpha, at max(q)
= 0 the prices are theta_i exp(q_i/b) over their sum and

    C = C(0) + b log S,    S = sum_i theta_hat_i exp(q_i/b),

with log S summed as log1p(sum_i theta_i expm1(q_i/b) / alpha) where S >=
1/2, so that C keeps its digits where |q| << b, and as a plain log below
that; one row evaluates only the branch it takes.  The penalty is
b KL(p || theta_hat) - C(0).

ExponentialSCPM is LMSR with weights e and C(0) = 0, so its market is
uniform LMSR's less b log N: it takes the prices, C, level, fill end,
conjugate points and penalty (the tables above list them under LMSR), and
keeps only its own u, its loss terms and a kernel whose level is C itself
(u(C e - q) = 0), on the path "closed".
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cost import MAX_ITER, SMALL_N, _root_t, whole

SIMPLEX_TOL = 1e-10

# The smallest normal float: a product below it has lost digits.
_MIN_NORMAL = sys.float_info.min


class DomainError(ValueError):
    """Allocation vector outside the domain of the utility."""


class PenaltyUnsupportedError(ValueError):
    """The utility has no conjugate-penalty / risk interpretation."""


def _scalar(out):
    """A float for one row, the array for a batch."""
    return float(out) if np.ndim(out) == 0 else out


@functools.cache
def _row_dtype(ufunc, dtype):
    # The dtype ufunc.reduce gives: np.add's reduce adds bool and small
    # integers in the platform integer.
    return ufunc.reduce(np.zeros((1, 1), dtype), axis=-1).dtype


def _rows(ufunc, x, keepdims=False):
    """ufunc.reduce(x, axis=-1), the same bytes, as a chain of column calls
    for a batch of fewer than SMALL_N columns (see the module docstring)."""
    if x.ndim < 2 or not 0 < x.shape[-1] < SMALL_N:
        # Positional, and keepdims only where set: the kernels' 1-D sums
        # then cost what a direct call does.
        return ufunc.reduce(x, -1, keepdims=True) if keepdims else ufunc.reduce(x, -1)
    n, first, dtype = x.shape[-1], x[..., 0], _row_dtype(ufunc, x.dtype)
    if ufunc.identity is None:  # np.minimum, np.maximum: from the first column
        out = first.astype(dtype)
    else:  # from the identity, so a row of -0.0 adds to +0.0
        out = ufunc(ufunc.identity, first).astype(dtype, copy=False)
    for j in range(1, n):
        ufunc(out, x[..., j], out=out)
    return out[..., None] if keepdims else out


def _xlogx(p):
    """sum_i p_i log p_i over the last axis, with 0 log 0 = 0."""
    return _rows(np.add, p * np.log(np.where(p > 0, p, 1.0)))


def _dot(p, w):
    """p'w over the last axis, each row of a batch bit for bit as its own
    call (p @ w rounds differently as a matrix and as a vector product)."""
    return np.einsum("...i,i->...", p, w)


def _split(a):
    """Out-set and in-set indices of a 0/1 bundle with an out-set, or None."""
    out, inside = np.flatnonzero(a == 0.0), np.flatnonzero(a == 1.0)
    if not out.size or out.size + inside.size < a.size:
        return None
    return out, inside


def _lse_level(b, z, total):
    # tau with sum_S exp(z_i - tau/b) = total, where z_i = q_i/b + log theta_i:
    # log sum exp of one row, shifted by its maximum, read by index.
    m = z[z.argmax()]
    return float(b * (m + np.log(np.add.reduce(np.exp(z - m))) - math.log(total)))


def _water_level(c, m):
    """QuadSCPM's level over a list c, as its array form: c sorted
    descending, t_k = (c_1 + ... + c_k - m) / k and t at the end of the
    active prefix, c_1 and then each c_k > t_k, with the same float
    operations in the same order."""
    c.sort(reverse=True)
    run = c[0]
    t = run - m
    for k, ck in enumerate(c[1:], 2):
        run += ck
        tk = (run - m) / k
        if not ck > tk:
            break
        t = tk
    return t


def _float_sums(tau, q, theta):
    """sum theta_i / d_i and sum theta_i / d_i^2 at d = tau - q, over lists,
    each added left to right from 0.0 (not by sum(), which compensates
    from Python 3.12 on)."""
    s1 = s2 = 0.0
    for qi, ti in zip(q, theta):
        d = tau - qi
        r = ti / d
        s1 += r
        s2 += r / d
    return s1, s2


def _array_sums(tau, q, theta):
    """The same two sums over arrays, each by np.add.reduce."""
    d = tau - q
    r = theta / d
    return float(np.add.reduce(r)), float(np.add.reduce(r / d))


def _newton(q, theta, total):
    """LogSCPM's level tau_S(total) over S's q and theta, lists (summed by
    _float_sums) or arrays (by _array_sums), and the passes it took.

    F(tau) = 1 / sum theta_i / (tau - q_i) is concave and increasing above
    q_j, the first maximum of q: Newton on F = 1 / total from the level of
    q_j alone (kept above q_j in floats) stays below the root and rises to
    it until a step no longer moves tau.  tau and its step run in Python
    floats.  A den of 0 (an underflowing sum, or tau at inf) divides as
    numpy does, to inf or nan without its warning, where a float division
    would raise.
    """
    if isinstance(q, list):
        j, sums = q.index(max(q)), _float_sums
    else:
        j, sums = q.argmax(), _array_sums
    qj = float(q[j])
    tau = max(qj + float(theta[j]) / total, math.nextafter(qj, math.inf))
    for passes in range(1, MAX_ITER + 1):
        s1, s2 = sums(tau, q, theta)
        num, den = s1 * (s1 - total), total * s2
        if den:
            step = num / den
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                step = float(np.divide(num, den))
        if not tau + step > tau:
            break
        tau += step
    return tau, passes


def _check_simplex(p, n):
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != n:
        raise ValueError(f"expected simplex vectors of length {n}, got shape {p.shape}")
    # Negated, so that a nan component or sum fails the tests as well.
    if not np.all(p >= -SIMPLEX_TOL):
        raise ValueError("simplex vector has a negative component")
    if not np.all(np.abs(_rows(np.add, p) - 1.0) <= SIMPLEX_TOL):
        raise ValueError("simplex vector does not sum to 1")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class PenaltyValue:
    """Conjugate penalty L(p), both raw and shifted so that min_p L(p) = 0.

    The raw value is the supremum sup_s u(s) - p's (may be +inf at the
    simplex boundary for LogSCPM); the normalized value drops the additive
    constant, matching the usual penalty-family tables.  Both are floats
    for one simplex vector and (M,) arrays for an (M, N) batch.
    """

    raw: float | np.ndarray
    normalized: float | np.ndarray


class Utility:
    """Base class: immutable after construction but for its cached lists
    (_w_list, QuadSCPM's _theta_list), which any thread builds the same,
    so safe to share across threads."""

    kind = None
    # False when the prices may leave [0, 1]; solve_t then leaves them as is.
    monotone = True
    # True when the utility takes prior weights theta; others reject one.
    takes_theta = False

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        b = float(b)
        if not 0 < b < math.inf:
            raise ValueError(f"b must be positive and finite, got {b}")
        self.b = b
        self.n = whole(n_outcomes, "n_outcomes", 2)
        self.theta = self._validate_theta(theta)

    def _validate_theta(self, theta):
        """The prior as a read-only copy: the kind's default when none is
        given, else finite, nonnegative, of length N and passing the kind's
        own rule.  None for a kind that takes no prior."""
        if not self.takes_theta:
            if theta is not None:
                raise ValueError(f"{self.kind} takes no theta parameter")
            return None
        if theta is None:
            theta = self._default_theta()
        else:
            # + 0.0 turns a -0.0 weight into +0.0, so no price is -0.0.
            theta = np.array(theta, dtype=float) + 0.0
            if theta.shape != (self.n,):
                raise ValueError(
                    f"theta must have length {self.n}, got shape {theta.shape}"
                )
            if not np.all(np.isfinite(theta)):
                raise ValueError("theta components must be finite")
            if np.any(theta < 0):
                raise ValueError("theta components must be nonnegative")
            self._check_theta(theta)
        theta.setflags(write=False)
        return theta

    def _default_theta(self):
        return np.ones(self.n)

    def _check_theta(self, theta):
        # The prior's weights enter through their logs (LMSR, LogSCPM).
        if np.any(theta <= 0):
            raise ValueError(f"{self.kind} theta components must be strictly positive")

    # -- evaluation ---------------------------------------------------------

    def _as_alloc(self, s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 0 or s.shape[-1] != self.n:
            raise ValueError(f"expected allocation of length {self.n}, got shape {s.shape}")
        return s

    def value(self, s):
        """u(s), batched over the last axis."""
        return _scalar(self._value(self._as_alloc(s)))

    def grad(self, s):
        """(Sub)gradient of u at s, batched over the last axis."""
        return self._grad(self._as_alloc(s))

    def grad_sum(self, s):
        """Sum of the (sub)gradient components, the derivative of cost._root_t."""
        return float(self.grad(s).sum())

    def domain_floor(self, q):
        """t_min such that te - q is in the domain for all t > t_min."""
        return -math.inf

    # -- conjugate penalty --------------------------------------------------

    def penalty_raw(self, p):
        """Raw L(p) = sup_s u(s) - p's, vectorized over the last axis."""
        return _scalar(self._penalty(np.asarray(p, dtype=float)))

    def _penalty(self, p):
        raise PenaltyUnsupportedError(
            f"{self.kind} has no conjugate-penalty representation"
        )

    def conjugate_penalty(self, p):
        """L(p) for one simplex vector, or per row of an (M, N) batch."""
        raw = self.penalty_raw(_check_simplex(p, self.n))
        # Duality: min_p L(p) = -C(0), and C(0) is a catalog loss term.
        return PenaltyValue(raw, raw + self.loss_bound_terms()[1])

    # -- analysis hooks -----------------------------------------------------

    def loss_bound_terms(self):
        """Analytic (B, C(0)): worst-case loss is B + C(0)."""
        raise NotImplementedError(f"{self.kind} has no worst-case loss terms (loss_bound_terms)")

    def _conjugate(self, R):
        """Beliefs R -> S with grad(u)(S) = R, see the module docstring."""
        raise NotImplementedError(f"{self.kind} has no conjugate point (_conjugate)")

    # (q, w, total) -> tau_S(T) over S's entries of q - max q and of the
    # kind's per-state weights _w, see the module docstring.
    _level = None

    @functools.cached_property
    def _w_list(self):
        """_w as a list of Python floats, for the levels below SMALL_N states."""
        return self._w.tolist()

    def _entries(self, q):
        """q and _w whole, as _level takes them."""
        if self.n < SMALL_N:
            return q.tolist(), self._w_list
        return q, self._w

    def solve_withdrawal(self, q):
        """Minimizer of t - u(te - q): the level tau_all(1), or None without a level."""
        if self._level is None:
            return None
        return self._level(*self._entries(np.asarray(q, dtype=float)), 1.0)

    def _kernel(self, q):
        """(t, C, prices, path, iterations) of the cost solve at q, max(q) = 0.

        The level t is the kind's withdrawal, or else cost._root_t's root
        (or 0 where it finds the objective flat); C = t - _value(s) and the
        prices are _grad(s) at s = t - q.  Kinds override it to compute
        both from one pass over q.
        """
        t = self.solve_withdrawal(q)
        if t is None:
            t, path, iterations = _root_t(self, q)
        else:
            path, iterations = "closed", 0
        s = t - q
        return t, t - float(self._value(s)), self._grad(s), path, iterations

    def solve_fill(self, q, a, pi, before, p_a):
        """Closed-form candidate for the largest x with p(q + a x)'a <= pi,
        given the cost solve at q, before, and the bundle price p_a =
        p(q)'a < pi, or None when unavailable.

        For a 0/1 bundle this is tau_B(1 - pi) - tau_A(pi) from _level,
        clamped at 0: p_a < pi puts the end at x >= 0, and only the
        rounding of the two levels makes the difference negative.  The
        bundle is split once, over Python lists below SMALL_N states and
        by _split's indices from it on.  A kind whose end follows from
        before overrides it (see the module docstring).  Makes no cost
        solve.  market.fill accepts the candidate only after cost solves
        bracket it, and otherwise searches.
        """
        if self._level is None or not 0.0 < pi < 1.0:
            return None
        if self.n >= SMALL_N:
            sets = _split(a)
            if sets is None:
                return None
            (q, w), (out, inside) = (q - q[q.argmax()], self._w), sets
            return max(0.0, self._level(q[out], w[out], 1.0 - pi)
                       - self._level(q[inside], w[inside], pi))
        q = q.tolist()
        top = max(q)
        out_q, out_w, in_q, in_w = [], [], [], []  # q - max q and w of each set
        for qi, ai, wi in zip(q, a.tolist(), self._w_list):
            if ai == 1.0:
                in_q.append(qi - top)
                in_w.append(wi)
            elif ai == 0.0:
                out_q.append(qi - top)
                out_w.append(wi)
            else:
                return None
        if not out_q:
            return None
        return max(0.0, self._level(out_q, out_w, 1.0 - pi) - self._level(in_q, in_w, pi))

    def properness_residual(self, s, r):
        """Distance from r to the (sub)differential of u at s, inf-norm,
        batched over the last axis."""
        return _scalar(self._residual(self._as_alloc(s), r))

    def _residual(self, s, r):
        return _rows(np.maximum, np.abs(self.grad(s) - r))

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "b": self.b, "n_outcomes": self.n}
        if self.theta is not None:
            d["theta"] = self.theta.tolist()
        return d

    def __repr__(self):
        theta = None if self.theta is None else self.theta.tolist()
        return f"{type(self).__name__}(b={self.b}, n_outcomes={self.n}, theta={theta})"


class LMSR(Utility):
    """Log market scoring rule utility, with optional prior weights theta.

    theta defaults to the all-ones vector, the classic b log N mechanism
    with a uniform prior; general theta > 0 shifts the prior to theta/sum(theta).
    """

    kind = "LMSR"
    takes_theta = True

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        super().__init__(b, n_outcomes, theta)
        if self.theta is None:
            # A subclass without a prior (ExponentialSCPM): weights e, C(0) = 0.
            weights, alpha, c0 = np.ones(self.n), float(self.n), 0.0
        else:
            weights, terms = self.theta, self.theta.tolist()
            try:
                alpha = math.fsum(terms)
            except OverflowError:
                raise ValueError(f"{self.kind} theta must have a finite sum") from None
            # C(0) = b log alpha, near alpha = 1 from alpha - 1 summed exactly.
            near = 0.5 < alpha < 2.0
            c0 = self.b * (math.log1p(math.fsum(terms + [-1.0])) if near else math.log(alpha))
        self._weights, self._alpha, self._c0 = weights, alpha, c0
        self._w = np.log(weights / alpha)  # log theta_hat

    def _terms(self, q):
        """q/b, theta_i exp(q_i/b) and their sum, at q with max(q) = 0 on
        each row: the prices are the terms over their sum."""
        y = q / self.b
        w = self._weights * np.exp(y)
        return y, w, _rows(np.add, w)

    def _lse(self, y, total):
        """C at q = b y from _terms, see the module docstring.  One row
        evaluates only the branch it takes; a batch takes log1p on the rows
        where S >= 1/2 and the plain log on the others."""
        near = total >= 0.5 * self._alpha
        if y.ndim == 1 and not near:
            return self._c0 + self.b * np.log(total / self._alpha)
        x = _rows(np.add, self._weights * np.expm1(y)) / self._alpha
        if y.ndim == 1:
            return self._c0 + self.b * np.log1p(x)
        return self._c0 + self.b * np.log1p(x, out=np.log(total / self._alpha), where=near)

    def _value(self, s):
        # u(s) = -C(-s), with C taken at m - s, max 0, for m = min(s).
        m = _rows(np.minimum, s, keepdims=True)
        y, _, total = self._terms(m - s)
        return m[..., 0] - self._lse(y, total)

    def _grad(self, s):
        _, w, total = self._terms(_rows(np.minimum, s, keepdims=True) - s)
        return w / total[..., None]

    def _kernel(self, q):
        # Flat in t: t = max(q) = 0, and C and the prices from one pass over q.
        y, w, total = self._terms(q)
        return 0.0, self._lse(y, total), w / total, "flat", 0

    def _conjugate(self, R):
        # theta_i exp(-s_i/b) = alpha r_i; at r = theta/alpha this is +0.0, not -0.0.
        return self.b * (self._w - np.log(R))

    def _level(self, q, w, total):
        # Its prices fix no level: take the one of sum_S theta_hat_i exp(-s_i/b).
        return _lse_level(self.b, np.divide(q, self.b) + w, total)

    def solve_fill(self, q, a, pi, before, p_a):
        # A 0/1 bundle has min(a, 1 - a) = 0 everywhere, a test that cannot
        # overflow as a (1 - a) does past a = 1.3e154; 1 - a is its out-set.
        # p_A(q + x a) = sigma(logit p_A + x/b), which reaches pi at
        # b log(pi p_B / ((1 - pi) p_A)), a log of each normal product.
        out = 1.0 - a
        if 0.0 < pi < 1.0 and not np.count_nonzero(np.minimum(a, out)):
            num, den = pi * float(before.prices.dot(out)), (1.0 - pi) * p_a
            if num >= _MIN_NORMAL and den >= _MIN_NORMAL:
                return max(0.0, self.b * (math.log(num) - math.log(den)))
        return super().solve_fill(q, a, pi, before, p_a)

    def _penalty(self, p):
        # b * KL(p || theta_hat) - C(0), with 0 log 0 = 0
        kl = p * (np.log(np.where(p > 0, p, 1.0)) - self._w)
        return self.b * _rows(np.add, kl) - self._c0

    def loss_bound_terms(self):
        # B attained as the price concentrates on the smallest-weight state.
        return -self.b * math.log(self.theta.min()), self._c0


class QuadraticScore(Utility):
    """Quadratic scoring rule utility; the one catalog entry that is not
    non-decreasing, so it admits no risk-measure/penalty interpretation."""

    kind = "QuadraticScore"
    monotone = False

    def _value(self, s):
        sbar = _rows(np.add, s) / self.n  # s.mean(axis=-1), byte for byte
        # s'(I - ee'/N)s about the mean: s's - N sbar^2 cancels at large, uniform s
        d = s - sbar[..., None]
        return sbar - _rows(np.add, d * d) / (4.0 * self.b)

    def _grad(self, s):
        sbar = _rows(np.add, s, keepdims=True) / self.n
        return 1.0 / self.n + (sbar - s) / (2.0 * self.b)

    def _kernel(self, q):
        # Flat in t: value and grad at s = -q, read from q about its mean
        # (the sum over N is q.mean(), byte for byte).  Below SMALL_N states
        # over Python floats, by the same operations in the same order: each
        # sum left to right from 0.0, as np.add.reduce adds so few (not by
        # sum(), which compensates from Python 3.12 on).
        if q.size < SMALL_N:
            q, total = q.tolist(), 0.0
            for x in q:
                total += x
            qbar = total / self.n
            base, half, dd, prices = 1.0 / self.n, 2.0 * self.b, 0.0, []
            for x in q:
                d = x - qbar
                dd += d * d
                prices.append(base + d / half)
            return 0.0, qbar + dd / (4.0 * self.b), np.array(prices), "flat", 0
        qbar = np.add.reduce(q) / self.n
        d = q - qbar
        cost = qbar + np.add.reduce(d * d) / (4.0 * self.b)
        return 0.0, cost, 1.0 / self.n + d / (2.0 * self.b), "flat", 0

    def _conjugate(self, R):
        # Mean 0 when r sums to 1, so grad = 1/N - s/2b = r.
        return 2.0 * self.b * (1.0 / self.n - R)

    def solve_fill(self, q, a, pi, before, p_a):
        # The bundle price is affine: p_a + x (a'a - (e'a)^2 / N) / 2b.
        slope = float(a.dot(a)) - float(np.add.reduce(a)) ** 2 / self.n
        if not slope > 0.0:
            return None
        return 2.0 * self.b * (pi - p_a) / slope

    def loss_bound_terms(self):
        return self.b * (1.0 - 1.0 / self.n), 0.0


class LogSCPM(Utility):
    """Logarithmic surplus utility sum_i theta_i log s_i (theta > 0, s > 0)."""

    kind = "LogSCPM"
    takes_theta = True

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        super().__init__(b, n_outcomes, theta)
        self._penalty_shift = _xlogx(self.theta) - self.theta.sum()
        self._w = self.theta

    def _as_alloc(self, s):
        s = super()._as_alloc(s)
        # The smallest entry by index, not by a reduction.  argmin stops at
        # a nan, which passes, so only then are the other entries read.
        if s.size:
            low = s.item(s.argmin())
            if low <= 0 or (low != low and (s <= 0).any()):
                raise DomainError("LogSCPM requires s > 0 componentwise")
        return s

    def _value(self, s):
        return _rows(np.add, self.theta * np.log(s))

    def _grad(self, s):
        return self.theta / s

    def domain_floor(self, q):
        return float(np.max(q))

    def _conjugate(self, R):
        return self.theta / R

    def _level(self, q, w, total):
        return _newton(q, w, total)[0]

    def _kernel(self, q):
        # Not through solve_withdrawal, whose float leaves out the passes.
        t, passes = _newton(*self._entries(q), 1.0)
        # Newton keeps t above max q, so s > 0 needs no check.
        s = t - q
        return t, t - float(self._value(s)), self._grad(s), "closed", passes

    def _penalty(self, p):
        # -sum theta log p + sum (theta log theta - theta); theta > 0 makes
        # it +inf where some p_i = 0
        with np.errstate(divide="ignore"):
            return self._penalty_shift - _dot(np.log(p), self.theta)

    def loss_bound_terms(self):
        alpha = self.theta.sum()
        return math.inf, float(alpha * (1.0 - math.log(alpha)))


class MinSCPM(Utility):
    """Worst-case surplus utility min_i s_i (maximally risk-averse organizer)."""

    kind = "MinSCPM"

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        super().__init__(b, n_outcomes, theta)
        self._w = np.zeros(self.n)  # its level reads q alone

    def _value(self, s):
        return _rows(np.minimum, s)

    def _grad(self, s):
        # Canonical subgradient: uniform over the exact argmin set.
        mask = s == _rows(np.minimum, s, keepdims=True)
        return mask / _rows(np.add, mask, keepdims=True)  # an integer count

    def _kernel(self, q):
        # Flat in t: C = max(q) = 0, prices uniform over the argmax, as grad(-q).
        top = q == 0.0
        return 0.0, 0.0, top / np.count_nonzero(top), "flat", 0

    @staticmethod
    def _level(q, w, total):
        # Prices sit on the largest q of S, whatever the total.
        return max(q) if isinstance(q, list) else q.item(q.argmax())

    def _conjugate(self, R):
        # Every diagonal point is a maximizer: its subdifferential is the simplex.
        return np.zeros(R.shape)

    def _penalty(self, p):
        return np.zeros(p.shape[:-1])

    def loss_bound_terms(self):
        return 0.0, 0.0

    def _residual(self, s, r):
        # Subdifferential at s is the simplex over the argmin set, so the
        # distance from r is the mass r places outside that set.
        outside = s > _rows(np.minimum, s, keepdims=True)
        # r >= 0, so 0 stands for the mass of an empty outside set.
        return _rows(np.maximum, np.where(outside, r, 0.0))


class ExponentialSCPM(LMSR):
    """Separable exponential utility b(1 - (1/N) sum_i exp(-s_i/b)): uniform
    LMSR's market less b log N, see the module docstring."""

    kind = "ExponentialSCPM"
    takes_theta = False

    def _value(self, s):
        # overflow for very negative s harmlessly saturates to -inf
        with np.errstate(over="ignore"):
            return self.b * (1.0 - _rows(np.add, np.exp(-s / self.b)) / self.n)

    def _grad(self, s):
        return np.exp(-s / self.b) / self.n

    def _kernel(self, q):
        # sum_i exp((q_i - t)/b) = N at t = C, so u(C e - q) = 0.
        _, c, p, _, _ = super()._kernel(q)
        return c, c, p, "closed", 0

    def loss_bound_terms(self):
        return self.b * math.log(self.n), 0.0


class QuadSCPM(Utility):
    """Monotone quadratic utility max_{v <= s} theta'v - (1/4b) v'v.

    The inner maximum is separable and solved by the clamp v_i = min(s_i,
    2 b theta_i), giving non-negative prices via water-filling.  theta must
    lie on the simplex (defaults to uniform).
    """

    kind = "QuadSCPM"
    takes_theta = True

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        super().__init__(b, n_outcomes, theta)
        # Built once, read-only: the clamp 2b theta and the active-set sizes 1..N.
        self._w = 2.0 * self.b * self.theta
        self._sizes = np.arange(1, self.n + 1)
        self._w.setflags(write=False)
        self._sizes.setflags(write=False)

    def _default_theta(self):
        return np.full(self.n, 1.0 / self.n)

    def _check_theta(self, theta):
        if abs(theta.sum() - 1.0) > 1e-12:
            raise ValueError(f"QuadSCPM theta must sum to 1, got sum {theta.sum()}")

    def _value(self, s):
        v = np.minimum(s, self._w)
        return _rows(np.add, self.theta * v) - _rows(np.add, v * v) / (4.0 * self.b)

    def _grad(self, s):
        return np.maximum(0.0, self.theta - s / (2.0 * self.b))

    def _kernel(self, q):
        if q.size >= SMALL_N:
            return super()._kernel(q)
        # The base kernel's C and prices over Python floats, by the array
        # form's operations in the same order.
        t = self.solve_withdrawal(q)
        half, tv, vv = 2.0 * self.b, 0.0, 0.0
        prices = []
        for qi, ti, ci in zip(q.tolist(), self._theta_list, self._w_list):
            si = t - qi
            # np.minimum and np.maximum: a nan s wins, a tie gives the second.
            vi = si if not si >= ci else ci
            tv += ti * vi
            vv += vi * vi
            p = ti - si / half
            prices.append(p if not p < 0.0 else 0.0)
        return t, t - (tv - vv / (4.0 * self.b)), np.array(prices), "closed", 0

    def _conjugate(self, R):
        # Below the clamp for r > 0: theta - s/2b = r.
        return 2.0 * self.b * (self.theta - R)

    def _level(self, q, w, total):
        # Water-filling on S: sum_S max(0, theta_i - (t - q_i) / 2b) = total
        # is sum_S max(0, c_i - t) = 2b total with c_i = q_i + w_i, w the
        # clamp 2b theta.  With c sorted descending, t_k is the level if the
        # k largest are active.  The active set is a prefix, c_1 (its own
        # level c_1 - 2b total lies below it) and then each c_k > t_k, so it
        # is read up to the first c_k <= t_k: the sums past it, which may
        # overflow where q spans the float range, count for nothing.
        if isinstance(q, list):
            return _water_level([qi + wi for qi, wi in zip(q, w)], 2.0 * self.b * total)
        c = q + w
        c.sort()
        c = c[::-1]
        # A running sum can overflow only where N c_N, c_N the least, nears
        # the float range; only there are numpy's overflow warnings off.
        wide = c.item(-1) * c.size < -0.5 * sys.float_info.max
        with np.errstate(over="ignore") if wide else contextlib.nullcontext():
            t = (c.cumsum() - 2.0 * self.b * total) / self._sizes[:c.size]
        stays = c > t
        stays[0] = True
        return float(t[stays.argmin() - 1])  # argmin 0: every c_k stays

    @functools.cached_property
    def _theta_list(self):
        """theta as a list of Python floats, for the kernel below SMALL_N states."""
        return self.theta.tolist()

    def _penalty(self, p):
        return self.b * _rows(np.add, (p - self.theta) ** 2)

    def loss_bound_terms(self):
        t = self.theta
        return self.b * (1.0 + float(np.dot(t, t)) - 2.0 * float(t.min())), 0.0


CATALOG = {u.kind: u for u in (LMSR, QuadraticScore, LogSCPM, MinSCPM,
                               ExponentialSCPM, QuadSCPM)}
KINDS = tuple(CATALOG)


def make_utility(kind, b=1.0, n_outcomes=2, theta=None):
    """Build and validate a catalog utility.

    theta defaults to all-ones (LMSR, LogSCPM) or uniform (QuadSCPM) when
    the kind takes a prior; other kinds reject a supplied theta.
    """
    if kind not in CATALOG:
        raise ValueError(f"unknown utility kind {kind!r}; expected one of {KINDS}")
    return CATALOG[kind](b=b, n_outcomes=n_outcomes, theta=theta)


def utility_from_dict(d):
    """Inverse of Utility.to_dict, used by the CLI config loader."""
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise ValueError("utility spec must be an object with a 'kind' field")
    return make_utility(
        kind,
        b=d.get("b", 1.0),
        n_outcomes=d.get("n_outcomes", 2),
        theta=d.get("theta"),
    )
