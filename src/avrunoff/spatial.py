"""One-dimensional Euclidean voter model.

Voters sit on a line, rank candidates by distance, and approve everyone
within radius d. For the triangular voter density on [-1, 1] the optimal
position of the second finalist under the sequential discounted rules has
a closed form; for the Gaussian density it is estimated by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from avrunoff.profiles import InputError, RankedBallot, RankedProfile, exact

GENERATOR_NAME = "numpy-pcg64"

TRIANGULAR = "triangular"
GAUSSIAN = "gaussian"
_DIST_CODE = {TRIANGULAR: 0, GAUSSIAN: 1}
GRID_INTERVAL = {TRIANGULAR: (-1.0, 1.0), GAUSSIAN: (-2.0, 2.0)}
GAUSSIAN_SIGMA = 0.5


@dataclass(frozen=True)
class SpatialConfig:
    distribution: str = TRIANGULAR
    d: float = 0.25
    n_voters: int = 20000
    n_candidates: int = 1000
    candidate_placement: str = "grid"  # or "sampled"
    seed: int = 7

    def __post_init__(self):
        if self.distribution not in _DIST_CODE:
            raise InputError(f"unknown distribution {self.distribution!r}")
        if self.d <= 0:
            raise InputError("approval radius d must be positive")
        if self.n_voters < 1 or self.n_candidates < 2:
            raise InputError("need at least one voter and two candidates")
        if self.candidate_placement not in ("grid", "sampled"):
            raise InputError(f"unknown candidate placement {self.candidate_placement!r}")


def triangular_pdf(x: float) -> float:
    """Triangular voter density (1 - |x|) / 2 on [-1, 1], zero outside.

    As written the apex is 0.5 and the total mass 1/2; every optimum below
    is invariant under scaling, and the voter sampler draws from the
    normalized shape 1 - |x|.
    """
    ax = abs(x)
    return (1.0 - ax) / 2.0 if ax <= 1.0 else 0.0


def optimal_x2_triangular(alpha: float, d: float) -> float:
    """Closed-form |position| of the optimal second finalist under the
    triangular density, with the first finalist at the center.

    Piecewise in alpha: alpha(1-d)/(2-alpha) while the optimum stays within
    d of the center, then 1+d-2d/alpha while the approval windows still
    overlap, saturating at 2d once they separate.
    """
    if not 0 <= alpha <= 1:
        raise InputError("alpha must lie in [0, 1]")
    if not 0 < d < 1:
        raise InputError("d must lie in (0, 1)")
    if alpha <= 2 * d:
        return alpha * (1 - d) / (2 - alpha)
    if alpha <= 2 * d / (1 - d):
        return 1 + d - 2 * d / alpha
    return 2 * d


def _rng(config: SpatialConfig) -> np.random.Generator:
    return np.random.default_rng([config.seed, _DIST_CODE[config.distribution]])


def _triangular_ppf(u: np.ndarray) -> np.ndarray:
    return np.where(u <= 0.5, np.sqrt(2.0 * u) - 1.0, 1.0 - np.sqrt(2.0 * (1.0 - u)))


def _normal_ppf(u: np.ndarray) -> np.ndarray:
    from statistics import NormalDist

    inv = NormalDist().inv_cdf
    return np.array([inv(x) for x in u])


def sample_voters(config: SpatialConfig) -> np.ndarray:
    """Voter positions, in ascending order; depend on seed and distribution only.

    Drawn by randomized stratified inversion: voter i sits at quantile
    (i + U_i) / n. This is a seeded Monte-Carlo sample whose interval counts
    have O(1) noise, keeping empirical argmax positions within grid
    resolution of the population optimum at the default sample sizes.
    """
    rng = _rng(config)
    n = config.n_voters
    u = (np.arange(n) + rng.random(n)) / n
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    if config.distribution == TRIANGULAR:
        return _triangular_ppf(u)
    return _normal_ppf(u) * GAUSSIAN_SIGMA


def candidate_positions(config: SpatialConfig) -> np.ndarray:
    lo, hi = GRID_INTERVAL[config.distribution]
    if config.candidate_placement == "grid":
        return np.linspace(lo, hi, config.n_candidates)
    rng = np.random.default_rng(
        [config.seed, _DIST_CODE[config.distribution], 1])
    if config.distribution == TRIANGULAR:
        pos = rng.triangular(-1.0, 0.0, 1.0, config.n_candidates)
    else:
        pos = rng.normal(0.0, GAUSSIAN_SIGMA, config.n_candidates)
    return np.sort(pos)


def sample_profile(config: SpatialConfig) -> RankedProfile:
    """Full ranked profile for the sampled electorate.

    Each voter ranks candidates by increasing distance (ties broken toward
    the lower coordinate) and approves those strictly within distance d.
    Intended for modest sizes; the sweep uses the equivalent interval
    arithmetic below instead of materializing ballots.
    """
    voters = sample_voters(config)
    grid = candidate_positions(config)
    m = len(grid)
    ballots = []
    for v in voters:
        dist = np.abs(grid - v)
        order = np.lexsort((grid, dist))
        threshold = int(np.count_nonzero(dist < config.d))
        ballots.append(RankedBallot.from_threshold([int(c) for c in order], threshold))
    labels = tuple(f"c{i}" for i in range(m))
    return RankedProfile(m, ballots, labels)


def _open_interval_counts(sorted_voters: np.ndarray, lo, hi) -> np.ndarray:
    """Voters strictly inside (lo, hi), vectorized over interval arrays."""
    left = np.searchsorted(sorted_voters, np.asarray(hi), side="left")
    right = np.searchsorted(sorted_voters, np.asarray(lo), side="right")
    return np.maximum(left - right, 0)


def approval_counts(sorted_voters: np.ndarray, grid: np.ndarray, d: float) -> np.ndarray:
    return _open_interval_counts(sorted_voters, grid - d, grid + d)


def joint_counts(sorted_voters: np.ndarray, grid: np.ndarray, d: float, x1: float) -> np.ndarray:
    lo = np.maximum(grid - d, x1 - d)
    hi = np.minimum(grid + d, x1 + d)
    return _open_interval_counts(sorted_voters, lo, np.maximum(hi, lo))


@dataclass(frozen=True)
class PositionReport:
    alpha: Fraction
    d: float
    first_position: float
    second_position: float
    candidate_positions: tuple[float, ...]
    second_stage_scores: tuple[Optional[Fraction], ...]

    @property
    def second_distance(self) -> float:
        return abs(self.second_position)


def _exact_alpha(alpha) -> Fraction:
    alpha = exact(alpha, "alpha")
    if not 0 <= alpha <= 1:
        raise InputError("alpha must lie in [0, 1]")
    return alpha


def _electorate(config: SpatialConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sorted voter positions and candidate positions of `config`."""
    return np.sort(sample_voters(config)), candidate_positions(config)


def _finalists(
    voters: np.ndarray, grid: np.ndarray, d: float, alphas: Sequence[Fraction]
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Approval counts S, the first finalist, the joint counts J with it,
    and the second finalist for each alpha, at approval radius d.

    Every argmax breaks ties toward the center, then toward the lower
    coordinate. The second finalist maximizes S(y) - alpha J(y), compared
    exactly as the integer S(y) den - num J(y): in int64 while
    max(S) den + num max(J) stays below 2**63, as Python ints otherwise.
    """
    central = np.lexsort((grid, np.abs(grid)))
    scores = approval_counts(voters, grid, d)
    i1 = int(central[np.argmax(scores[central])])
    joint = joint_counts(voters, grid, d, float(grid[i1]))
    top_s, top_j = int(scores.max()), int(joint.max())
    nums = [a.numerator for a in alphas]
    dens = [a.denominator for a in alphas]
    fits = max(top_s, 1) * max(dens) + max(nums) * top_j < 2**63
    dtype = np.int64 if fits else object
    num = np.array(nums, dtype=dtype)[:, None]
    den = np.array(dens, dtype=dtype)[:, None]
    value = scores.astype(dtype) * den - num * joint.astype(dtype)
    value[:, i1] = -num[:, 0] * top_j - 1  # below every other candidate
    seconds = central[np.argmax(value[:, central], axis=1)]
    return scores, i1, joint, seconds


def empirical_second_finalist(config: SpatialConfig, alpha) -> PositionReport:
    """Finalist positions under the sequential discounted rule on a sampled
    profile, computed by exact interval counting.

    Equivalent to running the sequential rule on `sample_profile(config)`
    (same integer scores), without materializing the ballots.
    """
    alpha = _exact_alpha(alpha)
    voters, grid = _electorate(config)
    scores, i1, joint, (i2,) = _finalists(voters, grid, config.d, [alpha])
    curve = tuple(
        None if i == i1 else Fraction(int(scores[i])) - alpha * int(joint[i])
        for i in range(len(grid))
    )
    return PositionReport(
        alpha=alpha,
        d=config.d,
        first_position=float(grid[i1]),
        second_position=float(grid[i2]),
        candidate_positions=tuple(float(x) for x in grid),
        second_stage_scores=curve,
    )


@dataclass(frozen=True)
class SweepRow:
    distribution: str
    d: float
    alpha: Fraction
    analytic: Optional[float]
    empirical: float
    seed: int
    generator: str = GENERATOR_NAME


def sweep(config: SpatialConfig, alphas: Sequence, ds: Sequence[float]) -> list[SweepRow]:
    """Second-finalist distance for every (d, alpha) cell; analytic column
    filled for the triangular density.

    The electorate is drawn once and counted once per radius; each alpha
    then costs one integer argmax. Inputs are checked cell by cell, radius
    first, so the first bad input raises as `empirical_second_finalist`
    per cell would.
    """
    rows = []
    electorate = None
    for d in map(float, ds):
        replace(config, d=d)  # SpatialConfig rejects a radius that is not positive
        cells = []
        for alpha in alphas:
            alpha = _exact_alpha(alpha)
            analytic = (
                optimal_x2_triangular(float(alpha), d)
                if config.distribution == TRIANGULAR
                else None
            )
            cells.append((alpha, analytic))
        if not cells:
            continue
        if electorate is None:
            electorate = _electorate(config)
        voters, grid = electorate
        *_, seconds = _finalists(voters, grid, d, [alpha for alpha, _ in cells])
        rows += [
            SweepRow(
                distribution=config.distribution,
                d=d,
                alpha=alpha,
                analytic=analytic,
                empirical=abs(float(grid[i])),
                seed=config.seed,
            )
            for (alpha, analytic), i in zip(cells, seconds)
        ]
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["distribution,d,alpha,analytic,empirical,seed,generator"]
    for r in rows:
        analytic = "" if r.analytic is None else repr(r.analytic)
        lines.append(
            f"{r.distribution},{r.d!r},{r.alpha},{analytic},{r.empirical!r},{r.seed},{r.generator}"
        )
    return "\n".join(lines) + "\n"
