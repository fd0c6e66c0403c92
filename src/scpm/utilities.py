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
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

KINDS = (
    "LMSR",
    "QuadraticScore",
    "LogSCPM",
    "MinSCPM",
    "ExponentialSCPM",
    "QuadSCPM",
)

# Relative tolerance for argmin membership in the MinSCPM subgradient.
ARGMIN_RTOL = 1e-12

SIMPLEX_TOL = 1e-10


class DomainError(ValueError):
    """Allocation vector outside the domain of the utility."""


class PenaltyUnsupportedError(ValueError):
    """The utility has no conjugate-penalty / risk interpretation."""


def _logsumexp(z):
    """log sum exp over the last axis, shifted by the row maximum."""
    m = z.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


def _check_simplex(p, n):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != n:
        raise ValueError(f"expected simplex vectors of length {n}, got shape {p.shape}")
    if np.any(p < -SIMPLEX_TOL):
        raise ValueError("simplex vector has a negative component")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > SIMPLEX_TOL):
        raise ValueError("simplex vector does not sum to 1")
    return np.clip(p, 0.0, None)


class PenaltyValue:
    """Conjugate penalty L(p), both raw and shifted so that min_p L(p) = 0.

    The raw value is the supremum sup_s u(s) - p's (may be +inf at the
    simplex boundary for LogSCPM); the normalized value drops the additive
    constant, matching the usual penalty-family tables.
    """

    __slots__ = ("raw", "normalized")

    def __init__(self, raw, normalized):
        self.raw = float(raw)
        self.normalized = float(normalized)

    def __repr__(self):
        return f"PenaltyValue(raw={self.raw!r}, normalized={self.normalized!r})"


class Utility:
    """Base class: immutable after construction, safe to share across threads."""

    kind = None
    monotone = True
    # True when e' grad(u) is identically 1, making t - u(te - q) constant in t.
    price_level_invariant = False

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        b = float(b)
        if not b > 0:
            raise ValueError(f"b must be positive, got {b}")
        n = int(n_outcomes)
        if n < 2:
            raise ValueError(f"n_outcomes must be >= 2, got {n_outcomes}")
        self.b = b
        self.n = n
        self.theta = self._validate_theta(theta)

    def _validate_theta(self, theta):
        if theta is None:
            return None
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n,):
            raise ValueError(
                f"theta must have length {self.n}, got shape {theta.shape}"
            )
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
        raise NotImplementedError

    def grad(self, s):
        raise NotImplementedError

    def grad_sum(self, s):
        """Sum of the (sub)gradient components; the cost solver's derivative."""
        return float(np.sum(self.grad(s)))

    def domain_floor(self, q):
        """t_min such that te - q is in the domain for all t > t_min."""
        return -math.inf

    # -- conjugate penalty --------------------------------------------------

    def penalty_raw(self, p):
        """Raw L(p) = sup_s u(s) - p's, vectorized over the last axis."""
        raise PenaltyUnsupportedError(
            f"{self.kind} has no conjugate-penalty representation"
        )

    def penalty_min(self):
        """min over the simplex of the raw penalty."""
        raise PenaltyUnsupportedError(
            f"{self.kind} has no conjugate-penalty representation"
        )

    def conjugate_penalty(self, p):
        p = _check_simplex(p, self.n)
        raw = self.penalty_raw(p)
        return PenaltyValue(raw, raw - self.penalty_min())

    # -- analysis hooks -----------------------------------------------------

    def loss_bound_terms(self):
        """Analytic (B, C(0)): worst-case loss is B + C(0)."""
        raise NotImplementedError

    def solve_withdrawal(self, q):
        """Closed-form minimizer of t - u(te - q), or None when unavailable."""
        return None

    def properness_residual(self, s, r):
        """Distance from r to the (sub)differential of u at s, inf-norm."""
        return float(np.max(np.abs(self.grad(s) - r)))

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
    price_level_invariant = True

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        super().__init__(b, n_outcomes, theta)
        if self.theta is None:
            theta = np.ones(self.n)
            theta.setflags(write=False)
            self.theta = theta
        elif np.any(self.theta <= 0):
            raise ValueError("LMSR theta components must be strictly positive")

    def value(self, s):
        s = self._as_alloc(s)
        z = -s / self.b + np.log(self.theta)
        out = -self.b * _logsumexp(z)
        return float(out) if out.ndim == 0 else out

    def grad(self, s):
        s = self._as_alloc(s)
        z = -s / self.b + np.log(self.theta)
        w = np.exp(z - z.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def grad_sum(self, s):
        return 1.0

    def penalty_raw(self, p):
        # b * KL(p || theta/alpha) - b log alpha, alpha = sum(theta)
        alpha = self.theta.sum()
        prior = self.theta / alpha
        kl = np.sum(xlogy(p, p) - xlogy(p, prior), axis=-1)
        out = self.b * kl - self.b * math.log(alpha)
        return float(out) if np.ndim(out) == 0 else out

    def penalty_min(self):
        return -self.b * math.log(self.theta.sum())

    def loss_bound_terms(self):
        # B attained as the price concentrates on the smallest-weight state.
        b_term = -self.b * math.log(self.theta.min())
        return b_term, self.b * math.log(self.theta.sum())


class QuadraticScore(Utility):
    """Quadratic scoring rule utility; the one catalog entry that is not
    non-decreasing, so it admits no risk-measure/penalty interpretation."""

    kind = "QuadraticScore"
    monotone = False
    price_level_invariant = True

    def value(self, s):
        s = self._as_alloc(s)
        sbar = s.mean(axis=-1)
        # s'(I - ee'/N)s = s's - N sbar^2
        quad = np.sum(s * s, axis=-1) - self.n * sbar * sbar
        out = sbar - quad / (4.0 * self.b)
        return float(out) if np.ndim(out) == 0 else out

    def grad(self, s):
        s = self._as_alloc(s)
        sbar = s.sum(axis=-1, keepdims=True) / self.n
        return 1.0 / self.n + (sbar - s) / (2.0 * self.b)

    def grad_sum(self, s):
        return 1.0

    def loss_bound_terms(self):
        return self.b * (1.0 - 1.0 / self.n), 0.0


class LogSCPM(Utility):
    """Logarithmic surplus utility sum_i theta_i log s_i (theta > 0, s > 0)."""

    kind = "LogSCPM"

    def __init__(self, b=1.0, n_outcomes=2, theta=None):
        super().__init__(b, n_outcomes, theta)
        if self.theta is None:
            theta = np.ones(self.n)
            theta.setflags(write=False)
            self.theta = theta
        elif np.any(self.theta <= 0):
            raise ValueError("LogSCPM theta components must be strictly positive")

    def _check_domain(self, s):
        if np.any(s <= 0):
            raise DomainError("LogSCPM requires s > 0 componentwise")

    def value(self, s):
        s = self._as_alloc(s)
        self._check_domain(s)
        out = np.sum(self.theta * np.log(s), axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def grad(self, s):
        s = self._as_alloc(s)
        self._check_domain(s)
        return self.theta / s

    def grad_sum(self, s):
        self._check_domain(s)
        return float(np.sum(self.theta / s))

    def domain_floor(self, q):
        return float(np.max(q))

    def penalty_raw(self, p):
        # -sum theta log p + sum (theta log theta - theta); +inf where p_i = 0
        p = np.asarray(p, dtype=float)
        const = float(np.sum(xlogy(self.theta, self.theta) - self.theta))
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        out = np.where(
            np.any((p == 0) & (self.theta > 0), axis=-1),
            np.inf,
            -np.sum(self.theta * np.where(p > 0, logp, 0.0), axis=-1) + const,
        )
        return float(out) if np.ndim(out) == 0 else out

    def penalty_min(self):
        alpha = self.theta.sum()
        return float(alpha * math.log(alpha) - alpha)

    def loss_bound_terms(self):
        alpha = self.theta.sum()
        return math.inf, float(alpha * (1.0 - math.log(alpha)))


class MinSCPM(Utility):
    """Worst-case surplus utility min_i s_i (maximally risk-averse organizer)."""

    kind = "MinSCPM"
    price_level_invariant = True

    def value(self, s):
        s = self._as_alloc(s)
        out = s.min(axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def grad(self, s):
        # Canonical subgradient: uniform over the argmin set.
        s = self._as_alloc(s)
        m = s.min(axis=-1, keepdims=True)
        mask = s <= m + ARGMIN_RTOL * np.maximum(1.0, np.abs(m))
        return mask / mask.sum(axis=-1, keepdims=True)

    def grad_sum(self, s):
        return 1.0

    def penalty_raw(self, p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1])
        return float(out) if np.ndim(out) == 0 else out

    def penalty_min(self):
        return 0.0

    def loss_bound_terms(self):
        return 0.0, 0.0

    def properness_residual(self, s, r):
        # Subdifferential at s is the simplex over the argmin set, so the
        # distance from r is the mass r places outside that set.
        s = self._as_alloc(s)
        m = s.min()
        tol = ARGMIN_RTOL * max(1.0, abs(m))
        outside = np.asarray(r)[s > m + tol]
        return float(outside.max()) if outside.size else 0.0


class ExponentialSCPM(Utility):
    """Separable exponential utility b(1 - (1/N) sum_i exp(-s_i/b))."""

    kind = "ExponentialSCPM"

    def value(self, s):
        s = self._as_alloc(s)
        # overflow for very negative s harmlessly saturates to -inf
        with np.errstate(over="ignore"):
            out = self.b * (1.0 - np.mean(np.exp(-s / self.b), axis=-1))
        return float(out) if np.ndim(out) == 0 else out

    def grad(self, s):
        s = self._as_alloc(s)
        return np.exp(-s / self.b) / self.n

    def grad_sum(self, s):
        return float(np.mean(np.exp(-s / self.b)))

    def solve_withdrawal(self, q):
        # 1 - (1/N) sum exp((q_i - t)/b) = 0  =>  t = b log((1/N) sum exp(q_i/b))
        q = np.asarray(q, dtype=float)
        return float(self.b * (_logsumexp(q / self.b) - math.log(self.n)))

    def penalty_raw(self, p):
        # b * KL(p || uniform)
        out = self.b * (np.sum(xlogy(p, p), axis=-1) + math.log(self.n))
        return float(out) if np.ndim(out) == 0 else out

    def penalty_min(self):
        return 0.0

    def loss_bound_terms(self):
        return self.b * math.log(self.n), 0.0


class QuadSCPM(Utility):
    """Monotone quadratic utility max_{v <= s} theta'v - (1/4b) v'v.

    The inner maximum is separable and solved by the clamp v_i = min(s_i,
    2 b theta_i), giving non-negative prices via water-filling.  theta must
    lie on the simplex (defaults to uniform).
    """

    kind = "QuadSCPM"

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

    def value(self, s):
        s = self._as_alloc(s)
        v = np.minimum(s, 2.0 * self.b * self.theta)
        out = np.sum(self.theta * v, axis=-1) - np.sum(v * v, axis=-1) / (4.0 * self.b)
        return float(out) if np.ndim(out) == 0 else out

    def grad(self, s):
        s = self._as_alloc(s)
        return np.maximum(0.0, self.theta - s / (2.0 * self.b))

    def grad_sum(self, s):
        return float(np.sum(np.maximum(0.0, self.theta - s / (2.0 * self.b))))

    def solve_withdrawal(self, q):
        # Water-filling: sum_i max(0, c_i - t) = 2b with c_i = q_i + 2b theta_i.
        q = np.asarray(q, dtype=float)
        # With c sorted descending, t_k is the level if the k largest are
        # active; the active set is every c_i above the level.
        c = np.sort(q + 2.0 * self.b * self.theta)[::-1]
        t = (np.cumsum(c) - 2.0 * self.b) / np.arange(1, self.n + 1)
        return float(t[np.count_nonzero(c > t) - 1])

    def penalty_raw(self, p):
        out = self.b * np.sum((p - self.theta) ** 2, axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def penalty_min(self):
        return 0.0

    def loss_bound_terms(self):
        t = self.theta
        return self.b * (1.0 + float(np.dot(t, t)) - 2.0 * float(t.min())), 0.0


_CATALOG = {u.kind: u for u in (LMSR, QuadraticScore, LogSCPM, MinSCPM,
                                ExponentialSCPM, QuadSCPM)}


def make_utility(kind, b=1.0, n_outcomes=2, theta=None):
    """Build and validate a catalog utility.

    theta defaults to all-ones (LMSR, LogSCPM) or uniform (QuadSCPM) when
    the kind uses a prior; other kinds reject a supplied theta.
    """
    if kind not in _CATALOG:
        raise ValueError(f"unknown utility kind {kind!r}; expected one of {KINDS}")
    cls = _CATALOG[kind]
    if theta is not None and kind in ("QuadraticScore", "MinSCPM", "ExponentialSCPM"):
        raise ValueError(f"{kind} takes no theta parameter")
    if theta is None:
        return cls(b=b, n_outcomes=n_outcomes)
    return cls(b=b, n_outcomes=n_outcomes, theta=theta)


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
