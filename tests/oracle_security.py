"""Dense oracle for the attack analyzer: the walk's full transition matrix,
built from the same band the analyzer factors, for tests that cross-check the
banded solves against plain dense linear algebra."""

from __future__ import annotations

import numpy as np

from blockclique.security import ThreatModel, _band


class FitnessChain:
    """Explicit transition matrix over all states -F(E+1)..0 (both absorbing
    endpoints included as identity rows), a dense view of ``_band``. States
    are ordered from the failure barrier up to the success barrier."""

    def __init__(self, tm: ThreatModel):
        self.tm = tm
        m = tm.span
        band, hit, miss = _band(tm)
        e1 = len(hit)
        p = np.zeros((m + 1, m + 1))
        p[0, 0] = 1.0       # failure barrier
        p[m, m] = 1.0       # success barrier
        ks = np.arange(1, m)    # distance from success; state -k is row m-k
        for d, pr in enumerate(band, start=-e1):
            live = ks[(ks + d >= 1) & (ks + d < m)]
            p[m - live, m - live - d] = pr
        near = ks[ks <= e1]
        p[m - near, m] = np.take(hit, near - 1)
        far = ks[m - ks <= e1]
        p[m - far, 0] = np.take(miss, m - far - 1)
        self.matrix = p
        self.states = list(range(-m, 1))
