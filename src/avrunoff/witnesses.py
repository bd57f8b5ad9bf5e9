"""Stored counterexamples for the cells of the axiom grid.

Each rule/axiom cell that the paper does not claim (`axioms.GRID_EXPECTED`)
is refuted by one of the small profiles here, together with the recorded
transformation: a dominated pair, an improvement, a deviation or a cloning.
`stored_grid_counterexample` judges it with `axioms.replay`, the function
that `Violation.verify` replays it with, so every stored violation lies in
its axiom's search space and verifies. `scripts/axiom_grid.py` prints them;
the claims the witnesses certify are tests (`tests/test_witnesses.py`).
"""

from __future__ import annotations

from typing import Optional

from avrunoff import axioms
from avrunoff.axioms import Violation
from avrunoff.fileio import parse_profile
from avrunoff.profiles import RankedBallot, RankedProfile
from avrunoff.rules import RuleSpec
from avrunoff.runoff import avr


# Coverage-style rules let a dominated candidate through: b dominates c,
# yet c reaches the runoff and wins its pair.
PARETO_COVERAGE_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b c
    1 * a b c |
    1 * a b | c
    1 * a | b c
    4 * | b c a
    """
)

# The coverage rules pick {b, c} here; the first voter can switch their
# approvals to {a} and make a win instead.
COVERAGE_MANIPULATION_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b c
    1 * c a | b
    1 * c | a b
    1 * b | c a
    10 * a b c |
    """
)
COVERAGE_MANIPULATION_DEVIATION = (0, RankedBallot.from_threshold((0, 2, 1), 1))

# Raising a on the b-voter's ballot (and approving it) knocks a out for
# every discounted rule.
MONOTONICITY_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b c
    2 * a | b c
    1 * b | c a
    1 * c | b a
    10 * c a b |
    """
)
MONOTONICITY_IMPROVEMENT = (1, RankedBallot.from_threshold((1, 0, 2), 2))

# For the manipulation of the efficiency-friendly rules: voter 2 truly
# approves {c, b}; withdrawing b from the ballot swings the finalists.
MANIPULATION_BEFORE: RankedProfile = parse_profile(
    """
    candidates: a b c
    1 * a b | c
    1 * a | b c
    1 * c b | a
    10 * c a b |
    """
)
MANIPULATION_DEVIATION = (2, RankedBallot.from_threshold((2, 1, 0), 1))

# Two approval blocs and a clone: the original loses, the clone pair wins.
CLONE_TWO_BLOC_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b
    2 * a | b
    1 * b | a
    10 * b a |
    """
)

# High-multiplicity blocs push the quota rule into selecting the clone pair.
CLONE_QUOTA_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b
    1 * b | a
    20 * a | b
    20 * b a |
    """
)

# Cloning a candidate that loses every pairwise contest: with the clone just
# below it, the original beats its clone, so the all-pairs runoff suddenly
# elects it.
CLONE_TRIV_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b
    2 * b | a
    1 * a | b
    """
)


# each unchecked cell's transformation, (profile, candidate, partner, voter,
# ballot), by axiom: under the cell's rule if it has its own, else under None
_STORED = {
    axioms.PARETO: {None: (PARETO_COVERAGE_WITNESS, 2, 1, None, None)},
    axioms.MONOTONICITY: {None: (MONOTONICITY_WITNESS, 0, None, *MONOTONICITY_IMPROVEMENT)},
    axioms.STRATEGY_PROOFNESS: {
        None: (MANIPULATION_BEFORE, None, None, *MANIPULATION_DEVIATION),
        **dict.fromkeys(("ccav", "sccav"), (COVERAGE_MANIPULATION_WITNESS, None, None,
                                            *COVERAGE_MANIPULATION_DEVIATION)),
    },
    axioms.WEAK_CLONE_PROOFNESS: {
        None: (CLONE_TWO_BLOC_WITNESS, 0, None, None, None),
        "enephr": (CLONE_QUOTA_WITNESS, 0, None, None, None),
        "triv": (CLONE_TRIV_WITNESS, 0, None, None, None),
    },
}


def stored_grid_counterexample(rule_name: str, axiom: str) -> Optional[Violation]:
    """A verified violation for an unchecked grid cell, None for checked cells.

    A stored deviation is judged as a strong manipulation, then as a weak one.
    """
    if (rule_name, axiom) in axioms.GRID_EXPECTED or axiom not in _STORED:
        return None
    spec = RuleSpec.named(rule_name)
    profile, *transformation = _STORED[axiom].get(rule_name, _STORED[axiom][None])
    before = avr(profile, spec).winners
    for note in ("strong", "weak") if axiom == axioms.STRATEGY_PROOFNESS else ("",):
        found = axioms.replay(axiom, profile, spec, before, *transformation, note)
        if found is not None:
            return found
    return None
