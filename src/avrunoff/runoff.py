"""Composition of a two-committee rule with a pairwise majority runoff:
`avr(profile, spec)` runs the rule of `spec`, then majority-votes each
finalist pair (every pair, for `rules.TRIV`)."""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from avrunoff.profiles import InputError, RankedProfile, majority_outcome
from avrunoff.rules import CandidatePair, RuleOutcome, RuleSpec, evaluate


class RunoffResult(NamedTuple):
    """Majority outcome of every finalist pair, winners unioned.

    A tied pair contributes both of its members; no tie-break is invented.
    Its mappings are read-only: one result serves every caller that runs
    the same rule on the same profile.
    """

    winners: frozenset[int]
    finalist_pairs: RuleOutcome
    per_pair_majority: Mapping[CandidatePair, frozenset[int]]


def avr(profile: RankedProfile, spec: RuleSpec) -> RunoffResult:
    """Run `spec` on the approvals, then majority-vote each pair.

    Rankings are required; prefix consistency of the ballots is not (the
    axiom searches feed deviations that may break it). The result is
    cached on the profile per spec.
    """
    if not isinstance(profile, RankedProfile):
        raise InputError("runoff needs ranked ballots; approval-only profiles "
                         "cannot be majority-voted")

    def compute() -> RunoffResult:
        outcome = evaluate(profile, spec)
        margins, _ = profile._margins()
        winners, per_pair = runoff_winners(outcome.pairs, lambda x, y: margins[x][y])
        return RunoffResult(winners, outcome, MappingProxyType(per_pair))

    return profile._derived(("runoff", spec), compute)


def runoff_winners(pairs: Iterable[CandidatePair], margin: Callable[[int, int], int]
                   ) -> tuple[frozenset[int], dict[CandidatePair, frozenset[int]]]:
    """The runoff on the finalist `pairs`, given the majority margin(x, y)
    of x over y: the union of the pairs' winners, and each pair's."""
    per_pair = {p: majority_outcome(*p, margin(*p)) for p in pairs}
    return frozenset().union(*per_pair.values()), per_pair
