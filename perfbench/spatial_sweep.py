"""spatial-sweep: ``spatial.sweep`` at the paper's sizes, both densities.

One operation is one call of ``spatial.sweep`` (the call behind
``avr simulate``) over several alphas and radii, with 20,000 voters and
1,000 grid candidates. The whole sweep is the unit, so that work shared
across its cells shows. A round is the sweeps of SWEEPS; the seed draws
their sampler seeds, and every round repeats them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import reference as ref
from common import require, stable_seed

# (density, alphas in tenths, radii) of each sweep of a round: three small
# sweeps, seven of middle cost and three large ones of like cost, so the
# median falls among the seven and the p90 among the three, each over many
# operations of like cost. Alphas and radii are fixed: the cost of a cell
# depends on them, and drawing them from the seed moved the median by a
# quarter between seeds.
SWEEPS = (
    ("triangular", (2, 6), (0.1, 0.25)),
    ("triangular", (1, 5, 9), (0.25, 0.5)),
    ("gaussian", (3, 7), (0.1, 0.33)),
    ("triangular", (2, 4, 6, 8, 10), (0.1, 0.25, 0.33)),
    ("triangular", (1, 3, 5, 7, 9), (0.1, 0.33, 0.5)),
    ("gaussian", (2, 4, 6, 8), (0.25, 0.5)),
    ("gaussian", (1, 3, 5, 7), (0.1, 0.33)),
    ("gaussian", (3, 5, 7, 9), (0.1, 0.5)),
    ("gaussian", (2, 4, 6, 8), (0.1, 0.25)),
    ("gaussian", (1, 4, 7, 10), (0.33, 0.5)),
    ("gaussian", (2, 4, 6, 8, 10), (0.1, 0.25, 0.5)),
    ("gaussian", (1, 3, 5, 7, 9), (0.1, 0.33, 0.5)),
    ("gaussian", (2, 4, 6, 8, 10), (0.25, 0.33, 0.5)),
)
# candidate grid of each density, as the paper places it
INTERVAL = {"triangular": (-1.0, 1.0), "gaussian": (-2.0, 2.0)}


def central_argbest(grid, values) -> int:
    """Index of the largest value; ties go toward the centre, then toward
    the lower coordinate."""
    tied = np.flatnonzero(values == values.max())
    return int(min(tied, key=lambda i: (abs(grid[i]), grid[i])))


def recount_second(voters, grid, d: float, alpha: Fraction) -> float:
    """|position| of the second finalist, counted voter by voter: approval
    is distance strictly below d. One candidate at a time, so the recount
    holds no more than a few voter-sized arrays."""
    def within(center):
        return np.abs(voters - center) < d

    scores = np.array([np.count_nonzero(within(c)) for c in grid], dtype=np.int64)
    i1 = central_argbest(grid, scores)
    near_first = within(grid[i1])
    joint = np.array([np.count_nonzero(near_first & within(c)) for c in grid], dtype=np.int64)
    value = scores * alpha.denominator - alpha.numerator * joint
    value[i1] = np.iinfo(np.int64).min
    return abs(float(grid[central_argbest(grid, value)]))


class SpatialSweep:
    name = "spatial-sweep"

    def __init__(self, seed: int):
        from avrunoff import spatial

        self.spatial = spatial
        rng = random.Random(stable_seed(self.name, seed))
        self.sweeps = []
        for dist, tenths, radii in SWEEPS:
            config = spatial.SpatialConfig(distribution=dist, n_voters=20000,
                                           n_candidates=1000, seed=rng.randrange(2**31))
            alphas = [Fraction(a, 10) for a in tenths]
            # the cell recounted voter by voter
            probe = (rng.choice(radii), rng.choice(alphas))
            self.sweeps.append((config, alphas, radii, probe))
        self.first_rows = {}

    def round(self, k: int) -> list:
        return list(range(len(self.sweeps)))

    def run(self, i):
        config, alphas, radii, _ = self.sweeps[i]
        return self.spatial.sweep(config, alphas, radii)

    def check(self, i, rows) -> None:
        if i in self.first_rows:
            require(rows == self.first_rows[i], i, "sweep output changed between rounds")
            return
        config, alphas, radii, (d_probe, a_probe) = self.sweeps[i]
        cells = [(d, a) for d in radii for a in alphas]
        require([(r.d, r.alpha) for r in rows] == cells, i, "cells")
        require(all(r.seed == config.seed and r.distribution == config.distribution
                    for r in rows), i, "row labels")
        if config.distribution == "triangular":
            for r in rows:
                exact = ref.closed_form_x2_triangular(float(r.alpha), r.d)
                require(abs(r.analytic - exact) <= 1e-12, i, "analytic column", r)
                require(abs(r.empirical - exact) <= 0.05, i, "off the closed form", r)
        else:
            for d in radii:
                curve = [r.empirical for r in rows if r.d == d]
                require(all(hi >= lo - 1e-12 for lo, hi in zip(curve, curve[1:])),
                        i, "Gaussian curve decreases in alpha", d, curve)
        voters = self.spatial.sample_voters(config)
        grid = np.linspace(*INTERVAL[config.distribution], config.n_candidates)
        row = rows[cells.index((d_probe, a_probe))]
        got = recount_second(voters, grid, d_probe, a_probe)
        require(row.empirical == got, i, "recount", row, got)
        self.first_rows[i] = rows
