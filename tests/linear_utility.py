"""A deliberately improper mechanism for tests: linear utility c's, whose
constant gradient cannot span the simplex."""

import numpy as np

from scpm import Utility


class LinearUtility(Utility):
    kind = "Linear"

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        super().__init__(n_outcomes=self.c.size)

    def value(self, s):
        return self._as_alloc(s) @ self.c

    def grad(self, s):
        return np.broadcast_to(self.c, self._as_alloc(s).shape).copy()
