"""One-dimensional Euclidean voter model.

Voters sit on a line, rank candidates by distance, and approve everyone
within radius d. For the triangular voter density on [-1, 1] the optimal
position of the second finalist under the sequential discounted rules has
a closed form; for the Gaussian density it is estimated by Monte Carlo.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from avrunoff.profiles import InputError, RankedBallot, RankedProfile, _Checked, exact

GENERATOR_NAME = "numpy-pcg64"

TRIANGULAR = "triangular"
GAUSSIAN = "gaussian"
_DIST_CODE = {TRIANGULAR: 0, GAUSSIAN: 1}
GRID_INTERVAL = {TRIANGULAR: (-1.0, 1.0), GAUSSIAN: (-2.0, 2.0)}
GAUSSIAN_SIGMA = 0.5


class SpatialConfig(_Checked, namedtuple(
        "SpatialConfig", "distribution d n_voters n_candidates candidate_placement seed")):
    __slots__ = ()

    def __new__(cls, distribution: str = TRIANGULAR, d: float = 0.25, n_voters: int = 20000,
                n_candidates: int = 1000, candidate_placement: str = "grid", seed: int = 7):
        if distribution not in _DIST_CODE:
            raise InputError(f"unknown distribution {distribution!r}")
        if not d > 0:  # NaN too
            raise InputError("approval radius d must be positive")
        if n_voters < 1 or n_candidates < 2:
            raise InputError("need at least one voter and two candidates")
        if candidate_placement not in ("grid", "sampled"):
            raise InputError(f"unknown candidate placement {candidate_placement!r}")
        if seed < 0:
            raise InputError(f"seed must be non-negative, got {seed}")
        return tuple.__new__(cls, (distribution, d, n_voters, n_candidates,
                                   candidate_placement, seed))


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
    """Quantiles of the density 1 - |x| at ascending u, each half of u
    taking only its own branch."""
    k = int(np.searchsorted(u, 0.5, side="right"))
    return np.concatenate((np.sqrt(2.0 * u[:k]) - 1.0, 1.0 - np.sqrt(2.0 * (1.0 - u[k:]))))


# Wichura's AS241 coefficients, highest power first, as `statistics` spells
# them: (numerator, denominator) for |q| <= 0.425, for r <= 5, for r > 5.
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
)


def _horner(coeffs, r: np.ndarray) -> np.ndarray:
    acc = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        acc *= r
        acc += c
    return acc


def _normal_ppf(u: np.ndarray) -> np.ndarray:
    """`NormalDist().inv_cdf` of each entry by its operations, at ascending u:
    then q = u - 0.5 ascends too, and each branch runs on its own slice."""
    (c_num, c_den), (n_num, n_den), (f_num, f_den) = _AS241
    q = u - 0.5
    x = np.empty_like(u)
    lo = int(np.searchsorted(q, -0.425, side="left"))
    hi = int(np.searchsorted(q, 0.425, side="right"))
    qc = q[lo:hi]
    r = 0.180625 - qc * qc
    num = _horner(c_num, r)
    num *= qc
    np.divide(num, _horner(c_den, r), out=x[lo:hi])
    # both tails in one pass: r = p below the center, 1 - p above it
    r = np.concatenate((u[:lo], 1.0 - u[hi:]))
    # libm's log: numpy's SIMD log differs from it in the last bit
    r = np.sqrt(-np.fromiter(map(math.log, r.tolist()), float, len(r)))
    rn = r - 1.6
    xt = _horner(n_num, rn) / _horner(n_den, rn)
    far = r > 5.0  # rarely any: u within about 1e-11 of 0 or 1
    if far.any():
        rf = r[far] - 5.0
        xt[far] = _horner(f_num, rf) / _horner(f_den, rf)
    x[:lo], x[hi:] = -xt[:lo], xt[lo:]
    x += 0.0  # NormalDist's mu + x * sigma: -0.0 becomes +0.0
    return x


def sample_voters(config: SpatialConfig) -> np.ndarray:
    """Voter positions, in ascending order; depend on seed and distribution only.

    Drawn by randomized stratified inversion: voter i sits at quantile
    (i + U_i) / n. This is a seeded Monte-Carlo sample whose interval counts
    have O(1) noise, keeping empirical argmax positions within grid
    resolution of the population optimum at the default sample sizes.
    The quantiles ascend by construction, and both quantile functions rely
    on it: each of their branches runs on one slice of them.
    Gaussian quantiles are Wichura's AS241 evaluated in numpy with the
    floating-point operations of `statistics.NormalDist.inv_cdf`, the tails
    taking their log from `math.log`, so each position equals the stdlib's
    bit for bit.
    """
    rng = _rng(config)
    n = config.n_voters
    u = rng.random(n)
    u += np.arange(n)
    u /= n
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
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


def approval_counts(sorted_voters: np.ndarray, grid: np.ndarray, d: float) -> tuple:
    """Approvals of each candidate, and where its approvers sit: the voters
    strictly within d of candidate i are sorted_voters[first[i]:end[i]]."""
    first = np.searchsorted(sorted_voters, grid - d, side="right")
    end = np.searchsorted(sorted_voters, grid + d, side="left")
    return np.maximum(end - first, 0), first, end


def joint_counts(first: np.ndarray, end: np.ndarray, i1: int) -> np.ndarray:
    """Voters who approve both candidate i1 and each candidate: the overlap
    of their slices from `approval_counts`. A search of the sorted voters is
    monotone in its key, so this is the count inside both open intervals."""
    return np.maximum(np.minimum(end, end[i1]) - np.maximum(first, first[i1]), 0)


class PositionReport(NamedTuple):
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


def _electorate(config: SpatialConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted voter positions, candidate positions, and the candidates in
    central order: toward the center, then toward the lower coordinate."""
    voters = sample_voters(config)
    if not (voters[:-1] <= voters[1:]).all():
        voters = np.sort(voters)
    grid = candidate_positions(config)
    return voters, grid, np.lexsort((grid, np.abs(grid)))


def _finalists(
    electorate: tuple[np.ndarray, ...], d: float, alphas: Sequence[Fraction]
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Approval counts S, the first finalist, the joint counts J with it,
    and the second finalist for each alpha, at approval radius d.

    Every argmax breaks ties toward the center, then toward the lower
    coordinate. The second finalist maximizes S(y) - alpha J(y), compared
    exactly as the integer S(y) den - num J(y): in int64 while
    max(S) den + num max(J) stays below 2**63, as Python ints otherwise.
    """
    voters, grid, central = electorate
    scores, first, end = approval_counts(voters, grid, d)
    i1 = int(central[np.argmax(scores[central])])
    joint = joint_counts(first, end, i1)
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
    _, grid, _ = electorate = _electorate(config)
    scores, i1, joint, (i2,) = _finalists(electorate, config.d, [alpha])
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


class SweepRow(NamedTuple):
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

    The electorate is drawn once and counted once per radius; each alpha is
    checked once and then costs one integer argmax per radius. Inputs are
    checked in cell order, radius first, so the first bad input raises as
    `empirical_second_finalist` per cell would.
    """
    rows, exact_alphas, electorate = [], [], None
    for d in map(float, ds):
        config._replace(d=d)  # SpatialConfig rejects a radius that is not positive
        analytic = []
        for i, alpha in enumerate(alphas):
            if i == len(exact_alphas):  # the first radius checks each alpha
                exact_alphas.append(_exact_alpha(alpha))
            analytic.append(optimal_x2_triangular(float(exact_alphas[i]), d)
                            if config.distribution == TRIANGULAR else None)
        if not exact_alphas:
            continue
        if electorate is None:
            electorate = _electorate(config)
        *_, seconds = _finalists(electorate, d, exact_alphas)
        rows += [
            SweepRow(
                distribution=config.distribution,
                d=d,
                alpha=alpha,
                analytic=a,
                empirical=abs(x),
                seed=config.seed,
            )
            for alpha, a, x in zip(exact_alphas, analytic, electorate[1][seconds].tolist())
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
