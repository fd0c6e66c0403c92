"""A deliberately improper mechanism for tests: linear utility c's, whose
constant gradient cannot span the simplex."""

import numpy as np

from scpm import Utility


class LinearUtility(Utility):
    kind = "Linear"

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        super().__init__(n_outcomes=self.c.size)

    def _value(self, s):
        return s @ self.c

    def _grad(self, s):
        return np.broadcast_to(self.c, s.shape).copy()

    def _conjugate(self, R):
        """The origin for every belief.  u(s) - r's = (c - r)'s has no
        maximizer unless r = c, and at any point the residual |c - r| of
        grad(u) = c shows that, so the point itself is arbitrary."""
        return np.zeros_like(R)
