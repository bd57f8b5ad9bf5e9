"""Approval elections with a majority runoff.

Voters cast approval ballots (optionally backed by full rankings); a
two-committee rule picks the finalist pairs; a pairwise majority vote
decides the winner(s). The package bundles the rule family, axiom
checkers with counterexample search, a one-dimensional spatial
simulator, and a small text-based profile pipeline.
"""

from avrunoff.profiles import (
    ApprovalBallot,
    ApprovalProfile,
    InputError,
    RankedBallot,
    RankedProfile,
)
from avrunoff.rules import CandidatePair, RuleOutcome, RuleSpec, evaluate
from avrunoff.runoff import RunoffResult, avr

__all__ = [
    "ApprovalBallot",
    "ApprovalProfile",
    "CandidatePair",
    "InputError",
    "RankedBallot",
    "RankedProfile",
    "RuleOutcome",
    "RuleSpec",
    "RunoffResult",
    "avr",
    "evaluate",
]
