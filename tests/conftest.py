from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from avrunoff.fileio import parse_profile
from avrunoff.profiles import (
    ApprovalBallot,
    ApprovalProfile,
    RankedBallot,
    RankedProfile,
)


DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def spectrum() -> ApprovalProfile:
    return parse_profile((DATA / "spectrum.avr").read_text())


@pytest.fixture(scope="session")
def spectrum_ranked() -> RankedProfile:
    return parse_profile((DATA / "spectrum_ranked.avr").read_text())


def small_weights(fractional=False):
    if fractional:
        return st.builds(
            Fraction, st.integers(0, 6), st.integers(1, 4)
        )
    return st.integers(0, 4)


@st.composite
def approval_profiles(draw, max_m=5, max_n=6, fractional=False):
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    ballots = []
    for _ in range(n):
        approved = draw(st.sets(st.integers(0, m - 1), max_size=m))
        weight = draw(small_weights(fractional))
        ballots.append(ApprovalBallot(approved, weight))
    return ApprovalProfile(m, ballots)


@st.composite
def ranked_profiles(draw, max_m=5, max_n=6, unit_weights=False, fractional=False):
    """Prefix-consistent ballots, empty approvals among them; weights 1..3,
    or 1, or with `fractional` zero and fractional ones."""
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    ballots = []
    for _ in range(n):
        ranking = draw(st.permutations(range(m)))
        t = draw(st.integers(0, m))
        if fractional:
            weight = draw(small_weights(fractional=True))
        else:
            weight = 1 if unit_weights else draw(st.integers(1, 3))
        ballots.append(RankedBallot.from_threshold(ranking, t, weight))
    return RankedProfile(m, ballots)


@st.composite
def permutations_of(draw, m):
    return draw(st.permutations(range(m)))


def tally_values(tally):
    """What a tally counts, as Fractions: equal for equal profiles whatever
    the denominators the tally keeps them over."""
    return (
        Fraction(tally.total, tally.denom),
        [Fraction(s, tally.denom) for s in tally.scores],
        [[Fraction(j, tally.denom) for j in row] for row in tally.joint],
        [Fraction(s, tally.split_denom) for s in tally.split],
    )
