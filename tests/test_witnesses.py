"""The claims the stored counterexample profiles certify.

Each claim is one pytest case, named as in the paper's argument it backs;
acceptance criterion 4 replays the same list. The profiles that only these
claims and the axiom tests read live here; the grid's stored
counterexamples live in `avrunoff.witnesses`. Claims that another test
asserts word for word are left to that test:

- every stored grid counterexample verifies:
  `test_axioms.py::TestRegressionSuite::test_every_stored_witness_verifies`;
- which witnesses lie in the weak clone domain:
  `test_axioms.py::TestCloneSearch::test_weak_domain_detection`;
- plain approval and the all-pairs rule stay monotone on the monotonicity
  witness: `test_axioms.py::TestMonotonicitySearch::test_clean_for_plain_and_trivial`.
"""

import math
from fractions import Fraction

import pytest

from avrunoff import axioms, rules
from avrunoff.fileio import parse_profile
from avrunoff.profiles import ApprovalProfile, RankedProfile
from avrunoff.rules import CandidatePair, RuleSpec
from avrunoff.runoff import avr
from avrunoff.witnesses import (
    CLONE_TWO_BLOC_WITNESS,
    COVERAGE_MANIPULATION_WITNESS,
    MANIPULATION_BEFORE,
    MONOTONICITY_IMPROVEMENT,
    MONOTONICITY_WITNESS,
    PARETO_COVERAGE_WITNESS,
)

fs = frozenset

NONMONOTONE_RULES = ("pav", "ccav", "spav", "sccav", "enephr", "sphr", "sav")
CLONE_BREAKING_RULES = ("mav", "pav", "spav", "sphr", "sav")


def pareto_quota_witness(beta: Fraction) -> RankedProfile:
    """Variant with enough empty ballots that the quota reaches the top
    approval score, degrading the quota rule to the coverage rule."""
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    k = max(4, math.ceil(3 * (1 / beta - 1)))
    return parse_profile(
        f"""
        candidates: a b c
        1 * a b c |
        1 * a b | c
        1 * a | b c
        {k} * | b c a
        """
    )


# Domination chain used when separating efficiency from strategy-proofness.
DOMINATION_CHAIN = {
    "base": parse_profile(
        """
        candidates: a b c
        2 * a | b c
        1 * c | a b
        10 * a b c |
        """
    ),
    "swapped": parse_profile(
        """
        candidates: a b c
        2 * a | c b
        1 * c | a b
        10 * c b a |
        """
    ),
    "approved": parse_profile(
        """
        candidates: a b c
        1 * a b | c
        1 * a | b c
        1 * c | a b
        10 * a b c |
        """
    ),
    "rotated": parse_profile(
        """
        candidates: a b c
        2 * a | b c
        1 * c | a b
        10 * c a b |
        """
    ),
}

# Two candidates, one of them cloned; the majority between the clones
# resurrects a candidate the electorate rejected.
CLONE_TWO_CANDIDATE_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b
    1 * a | b
    2 * b a |
    """
)

# The cloned twin dominates b here.
CLONE_DOMINATION_PROFILE: RankedProfile = parse_profile(
    """
    candidates: a a' b
    1 * a a' | b
    2 * a' b a |
    """
)

# Every non-empty ballot approves everything: all discounted pair scores
# collapse to zero and even the alpha=2 rule admits the clone pair.
CLONE_DEGENERATE_PROFILE: RankedProfile = parse_profile(
    """
    candidates: a b c
    1 * b c a |
    1 * c b a |
    """
)

# Two half-overlapping blocs bury the approval winner under the coverage
# objective: the winning pair contains no approval winner.
FAVORITE_DROP_WITNESS: ApprovalProfile = parse_profile(
    """
    candidates: a b c
    2 * a b
    2 * a c
    1 * b
    1 * c
    """
)

# Chain for the monotonicity / clone-proofness incompatibility. "doubled"
# is "improved-again" over the hat profile's candidate ids, with b as the
# clone a' of a.
CLONE_CHAIN = {
    "base": parse_profile(
        """
        candidates: a b c
        1 * a | b c
        1 * b | c a
        1 * c | a b
        10 * c a b |
        """
    ),
    "improved": parse_profile(
        """
        candidates: a b c
        1 * a | b c
        1 * b a | c
        1 * c | a b
        10 * c a b |
        """
    ),
    "reranked": parse_profile(
        """
        candidates: a b c
        1 * a | b c
        1 * b a | c
        1 * c | a b
        10 * c b a |
        """
    ),
    "improved-again": parse_profile(
        """
        candidates: a b c
        1 * a b | c
        1 * a b | c
        1 * c | a b
        10 * c b a |
        """
    ),
    "hat": parse_profile(
        """
        candidates: a c
        2 * a | c
        1 * c | a
        10 * c a |
        """
    ),
    "doubled": parse_profile(
        """
        candidates: a c a'
        2 * a a' | c
        1 * c | a a'
        10 * c a' a |
        """
    ),
}


def _pairs(*pairs: tuple[int, int]) -> frozenset[CandidatePair]:
    return frozenset(CandidatePair.of(a, b) for a, b in pairs)


def _clone_breaks(profile: RankedProfile, spec: RuleSpec) -> bool:
    """Cloning candidate 0 breaks clone-proofness under `spec`."""
    before = avr(profile, spec).winners
    return axioms.cloning_violation(profile, spec, before, 0) is not None


P = PARETO_COVERAGE_WITNESS
PQ = pareto_quota_witness(Fraction(1, 3))
M = COVERAGE_MANIPULATION_WITNESS
D = DOMINATION_CHAIN
W = MONOTONICITY_WITNESS
C2 = CLONE_TWO_CANDIDATE_WITNESS
WB = CLONE_TWO_BLOC_WITNESS
CC = CLONE_CHAIN
F = FAVORITE_DROP_WITNESS

CLAIMS = [
    ("pareto/coverage finalists are the two a-pairs", lambda: all(
        avr(P, RuleSpec.named(r)).finalist_pairs.pair_set == _pairs((0, 1), (0, 2))
        for r in ("ccav", "sccav"))),
    ("pareto/coverage: b dominates c", lambda: P.dominates(1, 2)),
    ("pareto/coverage: c still wins under both coverage rules", lambda: all(
        2 in avr(P, RuleSpec.named(r)).winners for r in ("ccav", "sccav"))),
    ("pareto/coverage: violation reported for both coverage rules", lambda: all(
        any(v.candidate == 2 and v.partner == 1 for v in
            axioms.pareto_violations(P, RuleSpec.named(r)))
        for r in ("ccav", "sccav"))),
    ("pareto/efficient rules stay clean on the witness", lambda: all(
        not axioms.pareto_violations(P, RuleSpec.named(r))
        for r in ("mav", "pav", "spav", "sphr", "sav"))),
    ("pareto/quota witness matches the coverage outcome", lambda: (
        avr(PQ, RuleSpec.named("enephr")).finalist_pairs.pair_set
        == avr(PQ, RuleSpec.named("sccav")).finalist_pairs.pair_set)),
    ("pareto/quota rule violates on the padded witness", lambda: any(
        v.candidate == 2 for v in axioms.pareto_violations(PQ, RuleSpec.named("enephr")))),
    ("manipulation/coverage rules elect b at the base profile", lambda: all(
        avr(M, RuleSpec.named(r)).winners == fs({1}) for r in ("ccav", "sccav"))),
    ("manipulation/all-pairs rule is immune (exhaustive)", lambda: all(
        axioms.find_manipulation(prof, RuleSpec.named("triv"), mode).status == "none"
        for prof in (M, MANIPULATION_BEFORE)
        for mode in ("strong", "weak"))),
    ("domination chain: a dominates b at the base", lambda:
        D["base"].dominates(0, 1) and D["base"].majority_winners(1, 2) == fs({1})),
    ("domination chain: c dominates b after the swap", lambda:
        D["swapped"].dominates(2, 1) and D["swapped"].majority_winners(0, 1) == fs({1})),
    ("domination chain: projections of base and swap coincide", lambda:
        D["base"].as_approval().canonical() == D["swapped"].as_approval().canonical()),
    ("domination chain: a still dominates b with b approved", lambda:
        D["approved"].dominates(0, 1) and D["approved"].majority_winners(1, 2) == fs({1})),
    ("domination chain: rotated rankings send the a-c pair to c", lambda:
        D["rotated"].majority_winners(0, 2) == fs({2})),
    ("monotonicity/discounted rules pick both a-pairs then drop a", lambda: all(
        avr(W, RuleSpec.named(r)).finalist_pairs.pair_set == _pairs((0, 1), (0, 2))
        and avr(W, RuleSpec.named(r)).winners == fs({0, 2})
        and avr(W.replace_ballot(*MONOTONICITY_IMPROVEMENT), RuleSpec.named(r)).winners == fs({2})
        for r in NONMONOTONE_RULES)),
    ("cloning/two-candidate base elects b under every rule", lambda: all(
        avr(C2, spec).winners == fs({1}) for _, spec in axioms.GRID_RULES)),
    ("cloning/twin pair flips the winner to the original for mav", lambda:
        _clone_breaks(C2, RuleSpec.named("mav"))),
    ("cloning/coverage rules also admit the twin pair here", lambda: all(
        _clone_breaks(C2, RuleSpec.named(r)) for r in ("ccav", "sccav"))),
    ("cloning/the twin dominates b in the reranked extension", lambda:
        CLONE_DOMINATION_PROFILE.dominates(1, 2)),
    ("cloning/coverage rules survive exhaustive cloning of the witness", lambda: all(
        axioms.find_clone_violation(WB, RuleSpec.named(r), weak=True).status == "none"
        for r in ("ccav", "sccav"))),
    ("clone chain: improvement profile sends the a-c pair to c", lambda:
        CC["improved"].majority_winners(0, 2) == fs({2})),
    ("clone chain: improved and reranked share one approval profile", lambda:
        CC["improved"].as_approval().canonical() == CC["reranked"].as_approval().canonical()),
    ("clone chain: double improvement sends the b-c pair to c", lambda:
        CC["improved-again"].majority_winners(1, 2) == fs({2})),
    ("clone chain: the two-candidate hat profile elects c everywhere", lambda: all(
        avr(CC["hat"], spec).winners == fs({1}) for _, spec in axioms.GRID_RULES)),
    ("clone chain: the doubled profile is a cloning extension of the hat", lambda: any(
        ext.canonical() == CC["doubled"].canonical()
        for ext in axioms.cloning_extensions(CC["hat"], 0))),
    ("favorite/coverage rule drops the approval winner", lambda:
        axioms.check_favorite_consistency(F, RuleSpec.named("ccav")) is not None),
    ("favorite/sequential rules keep an approval winner", lambda: all(
        axioms.check_favorite_consistency(F, RuleSpec.named(r)) is None
        for r in ("spav", "sccav", "sphr", "enephr"))),
    ("degenerate/all-approve-everything profile admits a clone pair even at alpha=2",
     lambda: _clone_breaks(CLONE_DEGENERATE_PROFILE, rules.TWO_AV)),
]


@pytest.mark.parametrize("claim", [claim for _, claim in CLAIMS],
                         ids=[name for name, _ in CLAIMS])
def test_stored_claim(claim):
    assert claim()
