"""Stored counterexample profiles and the claims they certify.

Every profile here is small enough to re-check exhaustively; the
regression suite replays each transformation and asserts the recorded
majority facts, domination facts, finalist pairs, and winner sets. A stored
transformation is judged by the same function of `avrunoff.axioms` that
judges it in the searches (`improvement_violation`, `deviation_violation`,
`cloning_violation`), which builds every stored violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from avrunoff import axioms, rules
from avrunoff.axioms import Violation
from avrunoff.fileio import parse_profile
from avrunoff.profiles import ApprovalProfile, RankedBallot, RankedProfile
from avrunoff.rules import CandidatePair, RuleSpec
from avrunoff.runoff import avr

fs = frozenset


def _pairs(*pairs: tuple[int, int]) -> frozenset[CandidatePair]:
    return frozenset(CandidatePair.of(a, b) for a, b in pairs)


# A four-candidate election on which the rule spectrum disagrees: the plain
# approval pair, the lightly discounted pair and the fully discounted pair
# are three different committees.
SPECTRUM_PROFILE: ApprovalProfile = parse_profile(
    """
    candidates: a b c d
    2 * a
    6 * a b
    4 * a b c
    4 * c d
    1 * d
    """
)

# The same election with full rankings attached.
SPECTRUM_RANKED: RankedProfile = parse_profile(
    """
    candidates: a b c d
    2 * a | b c d
    3 * b a | d c
    3 * a b | d c
    4 * b a c | d
    2 * c d | b a
    2 * d c | b a
    1 * d | b a c
    """
)

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

NONMONOTONE_RULES = ("pav", "ccav", "spav", "sccav", "enephr", "sphr", "sav")

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
MANIPULABLE_EFFICIENT_RULES = ("mav", "pav", "spav", "sphr", "enephr", "sav")

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

# Two approval blocs and a clone: the original loses, the clone pair wins.
CLONE_TWO_BLOC_WITNESS: RankedProfile = parse_profile(
    """
    candidates: a b
    2 * a | b
    1 * b | a
    10 * b a |
    """
)
CLONE_BREAKING_RULES = ("mav", "pav", "spav", "sphr", "sav")

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

# Chain for the monotonicity / clone-proofness incompatibility.
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
}


def grid_rule(name: str) -> RuleSpec:
    return dict(axioms.GRID_RULES)[name]


def stored_grid_counterexample(rule_name: str, axiom: str) -> Optional[Violation]:
    """A verified violation for an unchecked grid cell, None for checked cells."""
    if (rule_name, axiom) in axioms.GRID_EXPECTED:
        return None
    spec = grid_rule(rule_name)
    if axiom == axioms.PARETO:
        found = axioms.pareto_violations(PARETO_COVERAGE_WITNESS, spec)
        return found[0] if found else None
    if axiom == axioms.MONOTONICITY:
        profile = MONOTONICITY_WITNESS
        voter, ballot = MONOTONICITY_IMPROVEMENT
        return axioms.improvement_violation(
            profile, spec, avr(profile, spec).winners, 0, voter, ballot
        )
    if axiom == axioms.STRATEGY_PROOFNESS:
        if rule_name in ("ccav", "sccav"):
            profile, (voter, ballot) = (
                COVERAGE_MANIPULATION_WITNESS,
                COVERAGE_MANIPULATION_DEVIATION,
            )
        else:
            profile, (voter, ballot) = MANIPULATION_BEFORE, MANIPULATION_DEVIATION
        before = avr(profile, spec).winners
        for mode in ("strong", "weak"):
            found = axioms.deviation_violation(profile, spec, before, voter, ballot, mode)
            if found is not None:
                return found
        return None
    if axiom == axioms.WEAK_CLONE_PROOFNESS:
        profile = {"enephr": CLONE_QUOTA_WITNESS, "triv": CLONE_TRIV_WITNESS}.get(
            rule_name, CLONE_TWO_BLOC_WITNESS
        )
        return axioms.cloning_violation(profile, spec, avr(profile, spec).winners, 0, weak=True)
    return None


def _clone_breaks(profile: RankedProfile, spec: RuleSpec) -> bool:
    """Cloning candidate 0 breaks clone-proofness under `spec`."""
    before = avr(profile, spec).winners
    return axioms.cloning_violation(profile, spec, before, 0) is not None


# ---------------------------------------------------------------------------
# regression suite


@dataclass(frozen=True)
class RegressionCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RegressionReport:
    checks: tuple[RegressionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[RegressionCheck]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [
            f"{'ok' if c.passed else 'FAIL':4} {c.name}"
            + (f" ({c.detail})" if c.detail and not c.passed else "")
            for c in self.checks
        ]
        lines.append(f"{len(self.checks) - len(self.failures)}/{len(self.checks)} passed")
        return "\n".join(lines)


def _winners(profile, rule_name) -> frozenset[int]:
    return avr(profile, grid_rule(rule_name)).winners


def regression_suite() -> RegressionReport:
    """Replay every stored witness and re-check its recorded claims."""
    checks: list[RegressionCheck] = []

    def check(name: str, fn: Callable[[], bool], detail: str = ""):
        try:
            ok = fn()
        except Exception as exc:  # a crashed claim is a failed claim
            checks.append(RegressionCheck(name, False, f"{type(exc).__name__}: {exc}"))
            return
        checks.append(RegressionCheck(name, bool(ok), detail))

    P = PARETO_COVERAGE_WITNESS
    check("pareto/coverage finalists are the two a-pairs", lambda: all(
        avr(P, grid_rule(r)).finalist_pairs.pair_set == _pairs((0, 1), (0, 2))
        for r in ("ccav", "sccav")))
    check("pareto/coverage: b dominates c", lambda: P.dominates(1, 2))
    check("pareto/coverage: c still wins under both coverage rules", lambda: all(
        2 in _winners(P, r) for r in ("ccav", "sccav")))
    check("pareto/coverage: violation reported for both coverage rules", lambda: all(
        any(v.candidate == 2 and v.partner == 1 for v in
            axioms.pareto_violations(P, grid_rule(r)))
        for r in ("ccav", "sccav")))
    check("pareto/efficient rules stay clean on the witness", lambda: all(
        not axioms.pareto_violations(P, grid_rule(r))
        for r in ("mav", "pav", "spav", "sphr", "sav")))

    PQ = pareto_quota_witness(Fraction(1, 3))
    check("pareto/quota witness matches the coverage outcome", lambda: (
        avr(PQ, grid_rule("enephr")).finalist_pairs.pair_set
        == avr(PQ, grid_rule("sccav")).finalist_pairs.pair_set
    ))
    check("pareto/quota rule violates on the padded witness", lambda: any(
        v.candidate == 2 for v in axioms.pareto_violations(PQ, grid_rule("enephr"))))

    M = COVERAGE_MANIPULATION_WITNESS
    check("manipulation/coverage rules elect b at the base profile", lambda: all(
        _winners(M, r) == fs({1}) for r in ("ccav", "sccav")))
    check("manipulation/coverage deviation promotes a", lambda: all(
        stored_grid_counterexample(r, axioms.STRATEGY_PROOFNESS).verify()
        for r in ("ccav", "sccav")))
    check("manipulation/all-pairs rule is immune (exhaustive)", lambda: all(
        axioms.find_manipulation(prof, grid_rule("triv"), mode).status == "none"
        for prof in (M, MANIPULATION_BEFORE)
        for mode in ("strong", "weak")))
    check("manipulation/efficient rules fall to the stored deviation", lambda: all(
        stored_grid_counterexample(r, axioms.STRATEGY_PROOFNESS).verify()
        for r in MANIPULABLE_EFFICIENT_RULES))

    D = DOMINATION_CHAIN
    check("domination chain: a dominates b at the base", lambda:
          D["base"].dominates(0, 1) and D["base"].majority_winners(1, 2) == fs({1}))
    check("domination chain: c dominates b after the swap", lambda:
          D["swapped"].dominates(2, 1) and D["swapped"].majority_winners(0, 1) == fs({1}))
    check("domination chain: projections of base and swap coincide", lambda:
          D["base"].as_approval().canonical() == D["swapped"].as_approval().canonical())
    check("domination chain: a still dominates b with b approved", lambda:
          D["approved"].dominates(0, 1) and D["approved"].majority_winners(1, 2) == fs({1}))
    check("domination chain: rotated rankings send the a-c pair to c", lambda:
          D["rotated"].majority_winners(0, 2) == fs({2}))

    W = MONOTONICITY_WITNESS
    check("monotonicity/discounted rules pick both a-pairs then drop a", lambda: all(
        avr(W, grid_rule(r)).finalist_pairs.pair_set == _pairs((0, 1), (0, 2))
        and _winners(W, r) == fs({0, 2})
        and _winners(W.replace_ballot(*MONOTONICITY_IMPROVEMENT), r) == fs({2})
        for r in NONMONOTONE_RULES))
    check("monotonicity/stored violation verifies for all seven rules", lambda: all(
        stored_grid_counterexample(r, axioms.MONOTONICITY).verify()
        for r in NONMONOTONE_RULES))
    check("monotonicity/plain approval and all-pairs stay clean (exhaustive)", lambda: all(
        axioms.find_monotonicity_violation(W, grid_rule(r)).status == "none"
        for r in ("mav", "triv")))

    C2 = CLONE_TWO_CANDIDATE_WITNESS
    check("cloning/two-candidate base elects b under every rule", lambda: all(
        _winners(C2, r) == fs({1}) for r, _ in axioms.GRID_RULES))
    check("cloning/twin pair flips the winner to the original for mav", lambda:
          _clone_breaks(C2, grid_rule("mav")))
    check("cloning/coverage rules also admit the twin pair here", lambda: all(
        _clone_breaks(C2, grid_rule(r)) for r in ("ccav", "sccav")))
    check("cloning/twin-pair profile lies outside the weak domain", lambda:
          not axioms.in_weak_clone_domain(C2))
    check("cloning/the twin dominates b in the reranked extension", lambda:
          CLONE_DOMINATION_PROFILE.dominates(1, 2))

    WB = CLONE_TWO_BLOC_WITNESS
    check("cloning/weak witness lies inside the weak domain", lambda:
          axioms.in_weak_clone_domain(WB))
    check("cloning/five rules break on the two-bloc witness", lambda: all(
        stored_grid_counterexample(r, axioms.WEAK_CLONE_PROOFNESS).verify()
        for r in CLONE_BREAKING_RULES))
    check("cloning/coverage rules survive exhaustive cloning of the witness", lambda: all(
        axioms.find_clone_violation(WB, range(WB.m), grid_rule(r), weak=True).status == "none"
        for r in ("ccav", "sccav")))
    check("cloning/quota rule breaks on the high-multiplicity witness", lambda:
          stored_grid_counterexample("enephr", axioms.WEAK_CLONE_PROOFNESS).verify())
    check("cloning/all-pairs runoff breaks by cloning the pairwise loser", lambda:
          stored_grid_counterexample("triv", axioms.WEAK_CLONE_PROOFNESS).verify())

    CC = CLONE_CHAIN
    check("clone chain: improvement profile sends the a-c pair to c", lambda:
          CC["improved"].majority_winners(0, 2) == fs({2}))
    check("clone chain: improved and reranked share one approval profile", lambda:
          CC["improved"].as_approval().canonical() == CC["reranked"].as_approval().canonical())
    check("clone chain: double improvement sends the b-c pair to c", lambda:
          CC["improved-again"].majority_winners(1, 2) == fs({2}))
    check("clone chain: the two-candidate hat profile elects c everywhere", lambda: all(
        _winners(CC["hat"], r) == fs({1}) for r, _ in axioms.GRID_RULES))
    check("clone chain: the doubled profile is a cloning extension of the hat", lambda: any(
        ext.canonical() == _expected_hat_extension().canonical()
        for ext in axioms.cloning_extensions(CC["hat"], 0)))

    F = FAVORITE_DROP_WITNESS
    check("favorite/coverage rule drops the approval winner", lambda:
          axioms.check_favorite_consistency(F, grid_rule("ccav")) is not None)
    check("favorite/sequential rules keep an approval winner", lambda: all(
        axioms.check_favorite_consistency(F, grid_rule(r)) is None
        for r in ("spav", "sccav", "sphr", "enephr")))

    check("degenerate/all-approve-everything profile admits a clone pair "
          "even at alpha=2", lambda: _clone_breaks(CLONE_DEGENERATE_PROFILE, rules.TWO_AV))
    check("degenerate/that profile lies outside the weak domain", lambda:
          not axioms.in_weak_clone_domain(CLONE_DEGENERATE_PROFILE))

    return RegressionReport(tuple(checks))


def _expected_hat_extension() -> RankedProfile:
    """The doubled profile, rebuilt over the hat profile's candidate ids."""
    hat = CLONE_CHAIN["hat"]
    a, c, clone = 0, 1, hat.m
    labels = hat.labels + (axioms.clone_label(hat.labels, a),)
    return RankedProfile(
        hat.m + 1,
        [
            RankedBallot((a, clone, c), {a, clone}, 2),
            RankedBallot((c, a, clone), {c}, 1),
            RankedBallot((c, clone, a), {c, clone, a}, 10),
        ],
        labels,
    )
