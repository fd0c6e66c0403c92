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
(..., N) and loss_bound_terms() always; _level, _penalty, _kernel and
_residual (for a set-valued subdifferential) where it has them.
The base class owns the plumbing: value, grad, penalty_raw,
conjugate_penalty and properness_residual coerce their input (_as_alloc:
length N, and s > 0 for LogSCPM) and return a float for one row and the
array for a batch, each row bit for bit as its own call.  solve_withdrawal
and solve_fill come from _level; a kind without _penalty raises
PenaltyUnsupportedError.

solve_fill gives the end of a fill along a 0/1 bundle in closed form
(market.fill certifies it).  The out-set B then holds price 1 - pi at the
unmoved level and the in-set A holds pi, so x = max(0, tau_B(1 - pi) -
tau_A(pi)), where _level(q, S, T) = tau_S(T) solves
sum_{i in S} du/ds_i(tau - q_i) = T:

    LMSR              b (LSE_S(q/b + log theta) - log T)
    ExponentialSCPM   the same with log theta = -log N
    MinSCPM           max_S q
    QuadSCPM          water-filling over S
    LogSCPM           a bracketed root, closed form when |S| = 1

At S = all, T = 1 it is the withdrawal of every non-flat kind.
QuadraticScore has no level; its bundle price is affine, and its own
solve_fill gives 2b (pi - p(q)'a) / (a'a - (e'a)^2/N), any bundle.

_kernel(q) is the whole cost solve of cost.solve_t at q with max(q) = 0:
the level t, C = t - u(t - q), the prices grad(u)(t - q), the path name
and the root probes.  The flat kinds read t = 0 and both values from q in
one pass (LMSR: one exp and one sum).  ExponentialSCPM and QuadSCPM take
t from solve_withdrawal, LogSCPM from its level search with its probe
count, and each computes C and the prices from one s = t - q.  The base
kernel is the generic path: the withdrawal or cost._root_t, then value
and grad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import WIDTH_TOL, _root_t, bracketed_root

# Relative tolerance for argmin membership in the MinSCPM subgradient.
ARGMIN_RTOL = 1e-12

SIMPLEX_TOL = 1e-10

# LogSCPM's level search stops at |T - sum_S du/ds_i| <= LEVEL_FTOL * T, far
# below the price steps a fill's certificate must tell apart.
LEVEL_FTOL = 1e-13


class DomainError(ValueError):
    """Allocation vector outside the domain of the utility."""


class PenaltyUnsupportedError(ValueError):
    """The utility has no conjugate-penalty / risk interpretation."""


def _scalar(out):
    """A float for one row, the array for a batch."""
    return float(out) if np.ndim(out) == 0 else out


def _logsumexp(z):
    """log sum exp over the last axis, shifted by the row maximum."""
    m = z.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


def _xlogx(p):
    """sum_i p_i log p_i over the last axis, with 0 log 0 = 0."""
    return np.sum(p * np.log(p, out=np.zeros_like(p), where=p > 0), axis=-1)


def _dot(p, w):
    """p'w over the last axis, each row of a batch bit for bit as its own
    call (p @ w rounds differently as a matrix and as a vector product)."""
    return np.einsum("...i,i->...", p, w)


def _in_set(a):
    """In-set mask of a 0/1 bundle whose out-set is not empty, or None."""
    inside = a == 1.0
    k = np.count_nonzero(inside)
    if k == a.size or k + np.count_nonzero(a == 0.0) < a.size:
        return None
    return inside


def _lse_level(b, z, total):
    # tau with sum_S exp(z_i - tau/b) = total, where z_i = q_i/b + log theta_i.
    return float(b * (_logsumexp(z) - math.log(total)))


def _check_simplex(p, n):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != n:
        raise ValueError(f"expected simplex vectors of length {n}, got shape {p.shape}")
    if np.any(p < -SIMPLEX_TOL):
        raise ValueError("simplex vector has a negative component")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > SIMPLEX_TOL):
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
    """Base class: immutable after construction, safe to share across threads."""

    kind = None
    monotone = True
    # True when the utility takes prior weights theta; others reject one.
    takes_theta = False

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        b = float(b)
        if not 0 < b < math.inf:
            raise ValueError(f"b must be positive and finite, got {b}")
        n = int(n_outcomes)
        if n < 2:
            raise ValueError(f"n_outcomes must be >= 2, got {n_outcomes}")
        self.b = b
        self.n = n
        self.theta = self._validate_theta(theta)

    def _validate_theta(self, theta):
        if theta is None:
            return None
        if not self.takes_theta:
            raise ValueError(f"{self.kind} takes no theta parameter")
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n,):
            raise ValueError(
                f"theta must have length {self.n}, got shape {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta components must be finite")
        if np.any(theta < 0):
            raise ValueError("theta components must be nonnegative")
        theta.setflags(write=False)
        return theta

    # -- evaluation ---------------------------------------------------------

    def _as_alloc(self, s):
        s = np.asarray(s, dtype=float)
        if s.shape[-1] != self.n:
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
        return float(np.sum(self.grad(s)))

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
        raise NotImplementedError

    _level = None  # (q, inside, total) -> tau_S(T), see the module docstring

    def solve_withdrawal(self, q):
        """Minimizer of t - u(te - q): the level tau_all(1), or None without a level."""
        if self._level is None:
            return None
        return self._level(np.asarray(q, dtype=float), slice(None), 1.0)

    def _kernel(self, q):
        """(t, C, prices, path, iterations) of the cost solve at q, max(q) = 0.

        The level t is the kind's withdrawal, or else cost._root_t's root
        (or 0 where it finds the objective flat); C = t - u(t - q) and the
        prices are grad(u) at t - q.  Kinds override it to compute both
        from one pass over q.
        """
        t = self.solve_withdrawal(q)
        if t is None:
            t, path, iterations = _root_t(self, q)
        else:
            path, iterations = "closed", 0
        s = t - q
        return t, t - self.value(s), self.grad(s), path, iterations

    def solve_fill(self, q, a, pi, p_a):
        """Closed-form candidate for the largest x with p(q + a x)'a <= pi,
        given the bundle price p_a = p(q)'a < pi, or None when unavailable.

        For a 0/1 bundle this is tau_B(1 - pi) - tau_A(pi) from _level,
        clamped at 0: p_a < pi puts the end at x >= 0, and only rounding
        (a near-tie of MinSCPM's maxima) makes the difference negative.
        Makes no cost solve.  market.fill accepts the candidate only after
        cost solves bracket it, and otherwise searches.
        """
        inside = _in_set(a)
        if self._level is None or inside is None or not 0.0 < pi < 1.0:
            return None
        q = q - q.max()
        return max(0.0, self._level(q, ~inside, 1.0 - pi) - self._level(q, inside, pi))

    def properness_residual(self, s, r):
        """Distance from r to the (sub)differential of u at s, inf-norm,
        batched over the last axis."""
        return _scalar(self._residual(self._as_alloc(s), r))

    def _residual(self, s, r):
        return np.max(np.abs(self.grad(s) - r), axis=-1)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "b": self.b, "n_outcomes": self.n}
        if self.theta is not None:
            d["theta"] = [float(x) for x in self.theta]
        return d

    def __repr__(self):
        theta = None if self.theta is None else list(self.theta)
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
            theta = np.ones(self.n)
            theta.setflags(write=False)
            self.theta = theta
        elif np.any(self.theta <= 0):
            raise ValueError("LMSR theta components must be strictly positive")
        self._log_theta = np.log(self.theta)

    def _value(self, s):
        z = -s / self.b + self._log_theta
        return -self.b * _logsumexp(z)

    def _grad(self, s):
        z = -s / self.b + self._log_theta
        w = np.exp(z - z.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def _kernel(self, q):
        # Flat in t: t = max(q) = 0, C = b LSE(q/b + log theta), one exp.
        z = q / self.b + self._log_theta
        m = z.max()
        w = np.exp(z - m)
        total = w.sum()
        return 0.0, self.b * (m + np.log(total)), w / total, "flat", 0

    def _level(self, q, inside, total):
        # Its prices fix no level: take ExponentialSCPM's, with weights theta.
        return _lse_level(self.b, q[inside] / self.b + self._log_theta[inside], total)

    def _penalty(self, p):
        # b * KL(p || theta/alpha) - b log alpha, alpha = sum(theta)
        alpha = self.theta.sum()
        return self.b * (_xlogx(p) - _dot(p, np.log(self.theta / alpha)) - math.log(alpha))

    def loss_bound_terms(self):
        # B attained as the price concentrates on the smallest-weight state.
        b_term = -self.b * math.log(self.theta.min())
        return b_term, self.b * math.log(self.theta.sum())


class QuadraticScore(Utility):
    """Quadratic scoring rule utility; the one catalog entry that is not
    non-decreasing, so it admits no risk-measure/penalty interpretation."""

    kind = "QuadraticScore"
    monotone = False

    def _value(self, s):
        sbar = s.mean(axis=-1)
        # s'(I - ee'/N)s about the mean: s's - N sbar^2 cancels at large, uniform s
        d = s - sbar[..., None]
        return sbar - np.sum(d * d, axis=-1) / (4.0 * self.b)

    def _grad(self, s):
        sbar = s.sum(axis=-1, keepdims=True) / self.n
        return 1.0 / self.n + (sbar - s) / (2.0 * self.b)

    def _kernel(self, q):
        # Flat in t: value and grad at s = -q, read from q about its mean.
        qbar = q.mean()
        d = q - qbar
        cost = qbar + np.sum(d * d) / (4.0 * self.b)
        return 0.0, cost, 1.0 / self.n + d / (2.0 * self.b), "flat", 0

    def solve_fill(self, q, a, pi, p_a):
        # The bundle price is affine: p_a + x (a'a - (e'a)^2 / N) / 2b.
        slope = float(a @ a) - float(a.sum()) ** 2 / self.n
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
        if self.theta is None:
            theta = np.ones(self.n)
            theta.setflags(write=False)
            self.theta = theta
        elif np.any(self.theta <= 0):
            raise ValueError("LogSCPM theta components must be strictly positive")

    def _as_alloc(self, s):
        s = super()._as_alloc(s)
        if np.any(s <= 0):
            raise DomainError("LogSCPM requires s > 0 componentwise")
        return s

    def _value(self, s):
        return np.sum(self.theta * np.log(s), axis=-1)

    def _grad(self, s):
        return self.theta / s

    def domain_floor(self, q):
        return float(np.max(q))

    def _level(self, q, inside, total):
        return self._level_search(q, inside, total)[0]

    def _level_search(self, q, inside, total):
        # tau with sum_S theta_i / (tau - q_i) = total lies between the level
        # of the largest q_j alone and the level of all of S's weight at q_j.
        # Returns tau and the probes of its search.
        q, theta = q[inside], self.theta[inside]
        j = int(np.argmax(q))
        lo = q[j] + theta[j] / total
        if q.size == 1:
            return float(lo), 0
        hi = q[j] + theta.sum() / total

        def g(tau):
            return total - float((theta / (tau - q)).sum())

        glo, ghi = g(lo), g(hi)
        if glo >= 0.0 or ghi <= 0.0:
            return float(lo if glo >= 0.0 else hi), 0
        # The root nears lo when one weight dominates: the width is relative
        # to lo, not to hi, and a residual stop ends the search at rounding.
        tau, probes = bracketed_root(g, lo, hi, glo, ghi, WIDTH_TOL * max(1.0, abs(lo)),
                                     LEVEL_FTOL * total)
        return float(tau), probes

    def _kernel(self, q):
        # Not through solve_withdrawal, whose float leaves out the probes.
        t, probes = self._level_search(q, slice(None), 1.0)
        s = self._as_alloc(t - q)
        return t, t - float(np.sum(self.theta * np.log(s))), self.theta / s, "closed", probes

    def _penalty(self, p):
        # -sum theta log p + sum (theta log theta - theta); theta > 0 makes
        # it +inf where some p_i = 0
        with np.errstate(divide="ignore"):
            return _xlogx(self.theta) - self.theta.sum() - _dot(np.log(p), self.theta)

    def loss_bound_terms(self):
        alpha = self.theta.sum()
        return math.inf, float(alpha * (1.0 - math.log(alpha)))


class MinSCPM(Utility):
    """Worst-case surplus utility min_i s_i (maximally risk-averse organizer)."""

    kind = "MinSCPM"

    def _value(self, s):
        return s.min(axis=-1)

    def _grad(self, s):
        # Canonical subgradient: uniform over the argmin set.
        m = s.min(axis=-1, keepdims=True)
        mask = s <= m + ARGMIN_RTOL * np.maximum(1.0, np.abs(m))
        return mask / mask.sum(axis=-1, keepdims=True)

    def _kernel(self, q):
        # Flat in t: C = max(q) = 0, prices uniform over the argmax, as grad(-q).
        top = q >= -ARGMIN_RTOL
        return 0.0, 0.0, top / np.count_nonzero(top), "flat", 0

    def _level(self, q, inside, total):
        # Prices sit on the largest q of S, whatever the total.
        return float(q[inside].max())

    def _penalty(self, p):
        return np.zeros(p.shape[:-1])

    def loss_bound_terms(self):
        return 0.0, 0.0

    def _residual(self, s, r):
        # Subdifferential at s is the simplex over the argmin set, so the
        # distance from r is the mass r places outside that set.
        m = s.min(axis=-1, keepdims=True)
        outside = s > m + ARGMIN_RTOL * np.maximum(1.0, np.abs(m))
        # r >= 0, so 0 stands for the mass of an empty outside set.
        return np.max(np.where(outside, r, 0.0), axis=-1)


class ExponentialSCPM(Utility):
    """Separable exponential utility b(1 - (1/N) sum_i exp(-s_i/b))."""

    kind = "ExponentialSCPM"

    def _value(self, s):
        # overflow for very negative s harmlessly saturates to -inf
        with np.errstate(over="ignore"):
            return self.b * (1.0 - np.mean(np.exp(-s / self.b), axis=-1))

    def _grad(self, s):
        return np.exp(-s / self.b) / self.n

    def _kernel(self, q):
        t = self.solve_withdrawal(q)
        w = np.exp(-(t - q) / self.b)
        return t, t - float(self.b * (1.0 - w.mean())), w / self.n, "closed", 0

    def _level(self, q, inside, total):
        # LMSR's level, log theta = -log N taken out of the sum.
        return _lse_level(self.b, q[inside] / self.b, self.n * total)

    def _penalty(self, p):
        # b * KL(p || uniform)
        return self.b * (_xlogx(p) + math.log(self.n))

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
        if self.theta is None:
            theta = np.full(self.n, 1.0 / self.n)
            theta.setflags(write=False)
            self.theta = theta
        elif abs(self.theta.sum() - 1.0) > 1e-12:
            raise ValueError(
                f"QuadSCPM theta must sum to 1, got sum {self.theta.sum()}"
            )

    def _value(self, s):
        v = np.minimum(s, 2.0 * self.b * self.theta)
        return np.sum(self.theta * v, axis=-1) - np.sum(v * v, axis=-1) / (4.0 * self.b)

    def _grad(self, s):
        return np.maximum(0.0, self.theta - s / (2.0 * self.b))

    def _kernel(self, q):
        t = self.solve_withdrawal(q)
        s = t - q
        v = np.minimum(s, 2.0 * self.b * self.theta)
        value = np.sum(self.theta * v) - np.sum(v * v) / (4.0 * self.b)
        return t, t - float(value), np.maximum(0.0, self.theta - s / (2.0 * self.b)), "closed", 0

    def _level(self, q, inside, total):
        # Water-filling on S: sum_S max(0, theta_i - (t - q_i) / 2b) = total
        # is sum_S max(0, c_i - t) = 2b total with c_i = q_i + 2b theta_i.
        # With c sorted descending, t_k is the level if the k largest are
        # active; the active set is every c_i above the level.
        c = np.sort(q[inside] + 2.0 * self.b * self.theta[inside])[::-1]
        t = (np.cumsum(c) - 2.0 * self.b * total) / np.arange(1, c.size + 1)
        return float(t[np.count_nonzero(c > t) - 1])

    def _penalty(self, p):
        return self.b * np.sum((p - self.theta) ** 2, axis=-1)

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
