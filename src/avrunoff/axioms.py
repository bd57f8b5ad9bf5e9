"""Axiom checkers with exact counterexample search.

Each axiom is checked on a concrete profile. Monotonicity, strategy-proofness
and clone-proofness each judge a transformation of the profile: an
improvement, a deviation or a cloning. One judge runs the runoff on the
transformed profile and returns the `Violation` or None;
`improvement_violation`, `deviation_violation` and `cloning_violation` each
name a transformation and the condition it breaks, and the searches call
them. `replay` judges a recorded transformation (or a Pareto pair) the same
way, after checking that it lies in its axiom's search space;
`Violation.verify` and the stored witnesses of `avrunoff.witnesses` go
through it. Searches return the first hit of a fixed deterministic order,
the lexicographically smallest witness, and every search is exact at any
profile size: the monotonicity search enumerates its polynomial space and
screens only the improvements that change approvals, the manipulation
search evaluates the rule at most once per pair of a true and a deviating
approval set, and the clone search screens one extension per candidate.

A screen judges a transformation on the base profile's integer `Tally` and
margin matrix, and builds no profile: one voter moved from approval set A
to S is `Tally.moved(A, S)`, whose finalist pairs are cached on the profile
per (rule, A, S) and shared by every voter with true approvals A, both
manipulation modes and the monotonicity search; its margins are the base
margins with one ranking swapped for another. A cloning's tally is counted
from the profile's approval sets, the clone approved where its original
is, and its margins are read off the original's. The clone screen's runoff
is `runoff.runoff_winners`, as `avr`'s is; the monotonicity screen reads only
the moved pairs that contain its candidate `a`. Only a screen's hit reaches
the judge, which builds the transformed profile and the `Violation`.

The cells of a grid share their work on a profile, which keeps what is
derived from it (`_Profile._derived`) for as long as it lives, keyed by
what the value depends on: the tally, integer weights and margins; the
runoff per rule (`avr`), so each cell's base runoff runs once per
(profile, rule); the moved tally per (A, S) and its finalist pairs per
(rule, A, S); the clone screen per candidate; and the weak clone domain.
Pareto dominance is read off the margins and the tally in O(1). Nothing
outside the profile holds a cache of it.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from avrunoff.profiles import (
    ApprovalProfile,
    InputError,
    RankedBallot,
    RankedProfile,
    Tally,
    _unit_ballot,
    majority_outcome,
)
from avrunoff.rules import CandidatePair, RuleSpec, evaluate, tally_outcome
from avrunoff.runoff import avr, runoff_winners

PARETO = "pareto"
MONOTONICITY = "monotonicity"
STRATEGY_PROOFNESS = "strategy-proofness"
WEAK_CLONE_PROOFNESS = "weak-clone-proofness"
CLONE_PROOFNESS = "clone-proofness"
FAVORITE_CONSISTENCY = "favorite-consistency"


class Violation(NamedTuple):
    """A replayable counterexample: the profile, the transformation, and
    the winner sets observed on both sides. `ballot` is the improving or
    deviating ballot of `voter`."""

    axiom: str
    rule: RuleSpec
    profile: Union[RankedProfile, ApprovalProfile]
    winners_before: frozenset[int]
    transformed: Optional[RankedProfile] = None
    winners_after: Optional[frozenset[int]] = None
    candidate: Optional[int] = None
    partner: Optional[int] = None
    pair: Optional[CandidatePair] = None
    voter: Optional[int] = None
    ballot: Optional[RankedBallot] = None
    note: str = ""

    def verify(self) -> bool:
        """Recompute both sides and re-check the defining condition.

        Every witness but a favorite-consistency one verifies only if the
        runoff still gives its winners before and `replay` of its recorded
        transformation gives exactly this violation back.
        """
        if self.axiom == FAVORITE_CONSISTENCY:
            outcome = evaluate(self.profile, self.rule)
            return (
                self.pair in outcome.pairs
                and not (self.pair.members() & self.profile.tally().approval_winners())
            )
        return avr(self.profile, self.rule).winners == self.winners_before and replay(
            self.axiom, self.profile, self.rule, self.winners_before, self.candidate,
            self.partner, self.voter, self.ballot, self.note,
        ) == self


class SearchOutcome(NamedTuple):
    """A search's first witness, if any, and its position in the search's
    enumeration (or, with none, the enumeration's length)."""

    violation: Optional[Violation]
    searched: int = 0
    vacuous: bool = False
    exhausted = True  # every search is exact

    @property
    def status(self) -> str:
        if self.violation is not None:
            return "violation"
        return "vacuous" if self.vacuous else "none"


# ---------------------------------------------------------------------------
# favorite-consistency and Pareto (no search needed)


def check_favorite_consistency(profile, spec: RuleSpec) -> Optional[Violation]:
    """A winning pair containing no approval winner, if one exists."""
    outcome = evaluate(profile, spec)
    winners = profile.tally().approval_winners()
    for pair in outcome.pairs:
        if not (pair.members() & winners):
            return Violation(
                axiom=FAVORITE_CONSISTENCY,
                rule=spec,
                profile=profile,
                winners_before=winners,
                pair=pair,
                note="winning pair avoids every approval winner",
            )
    return None


def pareto_violations(profile: RankedProfile, spec: RuleSpec) -> list[Violation]:
    """One violation per dominated candidate that still wins the runoff."""
    winners = avr(profile, spec).winners
    found = (_dominance_violation(profile, spec, winners, b, a)
             for b in sorted(winners) for a in range(profile.m) if a != b)
    return [v for v in found if v is not None]


def _dominance_violation(profile, spec, winners_before, b, a) -> Optional[Violation]:
    """The Pareto violation of `b` winning although `a` dominates it."""
    if b not in winners_before or not profile.dominates(a, b):
        return None
    return Violation(PARETO, spec, profile, winners_before, candidate=b, partner=a,
                     note=f"{profile.labels[b]} wins although {profile.labels[a]} dominates it")


# ---------------------------------------------------------------------------
# transformation enumerators


def _move(ranking: tuple[int, ...], frm: int, to: int) -> tuple[int, ...]:
    items = list(ranking)
    c = items.pop(frm)
    items.insert(to, c)
    return tuple(items)


def a_improvements(profile: RankedProfile, a: int) -> Iterator[tuple[int, RankedBallot]]:
    """Single-voter changes that move `a` up and/or add it to the approvals.

    A ballot whose approvals are a ranking prefix keeps them a prefix; any
    other ballot may raise `a` and approve it at or above its place.
    """
    for i, b in enumerate(profile.ballots):
        if b.weight == 0:
            continue
        pos, t, prefix = b.position(a), b.threshold, b.is_consistent()
        for j in range(t if prefix and a not in b.approved else 0, pos):
            yield i, _unit_ballot(_move(b.ranking, pos, j), b.approved)
        if a not in b.approved:
            for j in range((t if prefix else pos) + 1):
                yield i, _unit_ballot(_move(b.ranking, pos, j), b.approved | {a})


def i_deviations(profile: RankedProfile, i: int) -> Iterator[RankedBallot]:
    """Every prefix-consistent ballot other than voter i's current one."""
    original = profile.ballots[i]
    for ranking in itertools.permutations(range(profile.m)):
        for t in range(profile.m + 1):
            if ranking == original.ranking and frozenset(ranking[:t]) == original.approved:
                continue
            yield RankedBallot.from_threshold(ranking, t, 1)


def clone_label(labels: Sequence[str], a: int) -> str:
    lab = labels[a] + "'"
    while lab in labels:
        lab += "'"
    return lab


def cloning_extensions(profile: RankedProfile, a: int) -> Iterator[RankedProfile]:
    """All extensions adding a clone of `a` adjacent to it in every ranking.

    The clone gets id m. Per ballot group of integer weight w, any split of
    the w voters between clone-above and clone-below is enumerated, giving
    prod(w_g + 1) extensions in deterministic order; the first puts the
    clone just below `a` on every ballot. Each group's two ballots are
    built once.
    """
    _require_voter_groups(profile)
    clone = profile.m
    labels = profile.labels + (clone_label(profile.labels, a),)
    variants = []
    for b in profile.ballots:
        pos = b.position(a)
        approved = b.approved | {clone} if a in b.approved else b.approved
        below = RankedBallot(b.ranking[: pos + 1] + (clone,) + b.ranking[pos + 1:],
                             approved, 1)
        above = RankedBallot(b.ranking[:pos] + (clone,) + b.ranking[pos:],
                             approved, 1)
        variants.append((int(b.weight), below, above))
    for counts in itertools.product(*(range(w + 1) for w, _, _ in variants)):
        ballots = []
        for (w, below, above), k in zip(variants, counts):
            if w - k:
                ballots.append(RankedBallot(below.ranking, below.approved, w - k))
            if k:
                ballots.append(RankedBallot(above.ranking, above.approved, k))
        yield RankedProfile(clone + 1, ballots, labels)


def _first_cloning(profile: RankedProfile, a: int) -> RankedProfile:
    """`next(cloning_extensions(profile, a))`, built in O(groups * m) time
    whatever the weights: the clone just below `a` on every ballot, each
    group keeping its weight, and the groups of weight 0 dropped."""
    _require_voter_groups(profile)
    clone = profile.m
    ballots = []
    for b in profile.ballots:
        if b.weight:
            pos = b.position(a) + 1
            approved = b.approved | {clone} if a in b.approved else b.approved
            ballots.append(RankedBallot(b.ranking[:pos] + (clone,) + b.ranking[pos:],
                                        approved, b.weight))
    return RankedProfile(clone + 1, ballots, profile.labels + (clone_label(profile.labels, a),))


# ---------------------------------------------------------------------------
# searches


def _judged(axiom, profile, spec, winners_before, transformed, broken, **fields):
    """The `axiom` violation of `profile` becoming `transformed`, if the
    runoff winners after it are `broken`; `fields` name the transformation."""
    after = avr(transformed, spec).winners
    if not broken(after):
        return None
    return Violation(axiom, spec, profile, winners_before, transformed, after, **fields)


def _moved_pairs(profile: RankedProfile, spec: RuleSpec, old: frozenset[int],
                 new: frozenset[int]) -> tuple[CandidatePair, ...]:
    """The finalist pairs of `profile` with one voter moved from approving
    `old` to approving `new`, evaluated on the moved tally. They are cached
    on the profile by (spec, old, new), so the voters that share a true
    approval set, both manipulation modes and the monotonicity search share
    each evaluation; the moved tally is cached by (old, new), so every rule
    shares it."""
    def pairs():
        moved = profile._derived(("moved", old, new), lambda: profile.tally().moved(old, new))
        return tally_outcome(moved, spec).pairs

    return profile._derived(("pairs", spec, old, new), pairs)


def _wins_after_move(profile: RankedProfile, spec: RuleSpec, voter: int,
                     ballot: RankedBallot, a: int) -> bool:
    """Whether `a` wins the runoff of `profile.replace_ballot(voter, ballot)`,
    without building it: iff it wins or ties a pair {a, b} of `_moved_pairs`,
    its margin the base one with the voter's old ranking swapped for the new."""
    margins, _ = profile._margins()  # whole voters: over denominator 1
    old = profile.ballots[voter]
    return any(margins[a][b] - _vote(old, a, b) + _vote(ballot, a, b) >= 0
               for pair in _moved_pairs(profile, spec, old.approved, ballot.approved)
               for x, b in (pair, pair[::-1]) if x == a)


def _vote(ballot: RankedBallot, x: int, y: int) -> int:
    """What one voter casting `ballot` adds to the margin of x over y."""
    return 1 if ballot.prefers(x, y) else -1


def _whole_voters(profile: RankedProfile) -> bool:
    """Each group stands for a whole number of voters (denominator 1)."""
    return profile._int_weights()[1] == 1


def _require_voter_groups(profile: RankedProfile) -> None:
    """Single-voter transformations need each group to stand for whole voters."""
    if not _whole_voters(profile):
        raise InputError(
            "transformation search needs integer group weights; "
            "fractional-weight profiles have no single voter to deviate"
        )


def find_monotonicity_violation(profile: RankedProfile, spec: RuleSpec) -> SearchOutcome:
    """A winner `a` and an a-improvement after which `a` no longer wins.

    The space, at most |winners| * n * (2m + 1) improvements, is enumerated
    in the order of `a_improvements`, and `searched` counts each one up to
    the witness. Only the improvements that add `a` to the voter's
    approvals are judged. One that keeps them cannot unseat `a`: the rule
    reads only the approval tally, which it leaves as it was, so the
    finalist pairs stay the same; and it moves only `a` up, so `a`'s
    majority margin against each rival rises or stays, and `a` still wins
    every pair it won.

    One that adds `a` is screened without building a profile
    (`_wins_after_move`): its finalist pairs are those of the tally with one
    voter moved from the approval set A to A ∪ {a}, cached per
    (A, A ∪ {a}), of which only those that contain `a` can make it a winner;
    each margin of `a` is the base one with the voter's ranking swapped. Only
    an improvement after which `a` wins no pair reaches
    `improvement_violation`, which builds the witness.
    """
    _require_voter_groups(profile)
    base = avr(profile, spec)
    searched = 0
    for a in sorted(base.winners):
        for i, ballot in a_improvements(profile, a):
            searched += 1
            if (ballot.approved == profile.ballots[i].approved
                    or _wins_after_move(profile, spec, i, ballot, a)):
                continue
            found = improvement_violation(profile, spec, base.winners, a, i, ballot)
            if found is not None:
                return SearchOutcome(found, searched)
    return SearchOutcome(None, searched)


def improvement_violation(profile: RankedProfile, spec: RuleSpec, winners_before: frozenset[int],
                          a: int, voter: int, ballot: RankedBallot) -> Optional[Violation]:
    """The monotonicity violation of giving `voter` the a-improving
    `ballot`: a won before and does not win after."""
    return _judged(
        MONOTONICITY, profile, spec, winners_before, profile.replace_ballot(voter, ballot),
        lambda after: a in winners_before and a not in after,
        candidate=a, voter=voter, ballot=ballot,
        note=f"raising {profile.labels[a]} on ballot {voter} removes it from the winners",
    )


def manipulation_goal(mode: str, true_ballot: RankedBallot, winners_before) -> frozenset[int]:
    """The candidates whose election makes a deviation succeed in `mode`.

    strong: those the true ballot ranks above every old winner.
    weak: the approved ones, or none when an old winner is approved.
    """
    if mode == "strong":
        return frozenset(x for x in true_ballot.ranking
                         if all(true_ballot.prefers(x, y) for y in winners_before))
    if mode == "weak":
        return frozenset() if winners_before & true_ballot.approved else true_ballot.approved
    raise InputError(f"unknown manipulation mode {mode!r}")


def manipulation_succeeds(mode, true_ballot, winners_before, winners_after) -> bool:
    return bool(winners_after & manipulation_goal(mode, true_ballot, winners_before))


def find_manipulation(
    profile: RankedProfile,
    spec: RuleSpec,
    mode: str = "strong",
) -> SearchOutcome:
    """A single-voter ballot deviation that improves the outcome for the
    deviator, judged by their original (true) ballot: the first in
    `i_deviations` order, voter by voter, found without enumerating it.
    A deviation succeeds exactly when a new winner lies in the voter's
    `manipulation_goal`; a voter with an empty goal is skipped.

    Why the first witness is the enumeration's: a deviation (r, t) approves
    S = r[:t], and the rule reads only approvals, so its finalist pairs F(S)
    are the pairs of the profile with the voter moved to S under any
    ranking. A pair (a, b) then has margin m0 + 1 if r ranks a above b and
    m0 - 1 otherwise, m0 being its margin without the voter's true ballot.
    So r succeeds iff, for some pair of F(S), the order r gives its members
    elects one of the goal. The rankings with prefix S that put a above b
    are none when b is in S and a is not; otherwise the smallest is the
    smallest ranking with prefix S, sorted(S) + sorted(rest), with b moved
    just behind a if it came first. The least of these over the successful
    (pair, order) choices is the smallest successful ranking for S, and
    (ranking, |S|) its deviation. The least deviation found is kept, and a
    set is skipped when (smallest ranking, |S|), a lower bound on its
    deviations, passes it: no set that could beat it is left out. The voter's
    own ballot never succeeds (it leaves the winners as they are), so the
    enumeration's skipping it only shifts positions: `searched` is the
    witness's position in the enumeration, counting every deviation of the
    voters before it, or the enumeration's length when there is none.

    F(S) is evaluated on the base tally with one voter moved from the true
    approval set A to S, and cached by (A, S) (see `_moved_pairs`), so the
    voters that share A and both modes evaluate the rule once per (A, S).
    Voters with equal true ballots have the same first deviation, which is
    found once. Only the witness is built as a profile, by
    `deviation_violation`.
    """
    _require_voter_groups(profile)
    base = avr(profile, spec).winners
    m = profile.m
    firsts: dict = {}
    searched = 0
    for i, true_ballot in enumerate(profile.ballots):
        if true_ballot.weight == 0:
            continue
        goal = manipulation_goal(mode, true_ballot, base)
        own = true_ballot.is_consistent()
        key = (true_ballot.ranking, true_ballot.approved)
        if key not in firsts:
            firsts[key] = _first_deviation(profile, spec, true_ballot, goal) if goal else None
        first = firsts[key]
        if first is None:
            searched += math.factorial(m) * (m + 1) - own
            continue
        ranking, t = first
        position = _lex_rank(ranking) * (m + 1) + t
        own_position = _lex_rank(true_ballot.ranking) * (m + 1) + true_ballot.threshold
        searched += position + 1 - (own and own_position < position)
        ballot = RankedBallot.from_threshold(ranking, t, 1)
        return SearchOutcome(deviation_violation(profile, spec, base, i, ballot, mode), searched)
    return SearchOutcome(None, searched)


def _first_deviation(profile, spec, true, goal) -> Optional[tuple[tuple[int, ...], int]]:
    """The smallest (ranking, t) by which a voter whose true ballot is
    `true` elects a candidate of `goal`, or None; see `find_manipulation`."""
    m = profile.m
    margins, _ = profile._margins()  # whole voters: over denominator 1
    best = None
    sets = ((top, t) for t in range(m + 1) for top in itertools.combinations(range(m), t))
    for top, t in sets:
        smallest = top + tuple(c for c in range(m) if c not in top)
        if best is not None and (smallest, t) > best:
            continue
        S = frozenset(top)
        for pair in _moved_pairs(profile, spec, true.approved, S):
            for a, b in (pair, pair[::-1]):
                if b in S and a not in S:
                    continue
                # m0, the margin of a over b without the true ballot, + 1
                margin = margins[a][b] - _vote(true, a, b) + 1
                if not goal & majority_outcome(a, b, margin):
                    continue
                ranking = list(smallest)
                if ranking.index(b) < ranking.index(a):
                    ranking.remove(b)
                    ranking.insert(ranking.index(a) + 1, b)
                if best is None or (tuple(ranking), t) < best:
                    best = (tuple(ranking), t)
    return best


def _lex_rank(ranking: Sequence[int]) -> int:
    """The index of `ranking` in `itertools.permutations(range(m))`."""
    rest = sorted(ranking)
    rank = 0
    for k, c in enumerate(ranking):
        rank += rest.index(c) * math.factorial(len(rest) - 1)
        rest.remove(c)
    return rank


def deviation_violation(profile: RankedProfile, spec: RuleSpec, winners_before: frozenset[int],
                        voter: int, ballot: RankedBallot, mode: str) -> Optional[Violation]:
    """The manipulation by `voter` casting `ballot`, if it succeeds in
    `mode` judged by the voter's true ballot in `profile`."""
    goal = manipulation_goal(mode, profile.ballots[voter], winners_before)
    return _judged(
        STRATEGY_PROOFNESS, profile, spec, winners_before, profile.replace_ballot(voter, ballot),
        lambda after: bool(after & goal),
        voter=voter, ballot=ballot, note=mode,
    )


def clone_conditions_hold(before, after, a, clone) -> bool:
    for c in before | after:
        if c in (a, clone):
            continue
        if (c in before) != (c in after):
            return False
    return (a in before) == bool(after & {a, clone})


def in_weak_clone_domain(profile: RankedProfile) -> bool:
    """No candidate is approved on every non-empty positive-weight ballot
    (cached on the profile)."""
    def compute() -> bool:
        live = [b for b in profile.ballots if b.weight > 0 and b.approved]
        return bool(live) and all(
            any(c not in b.approved for b in live) for c in range(profile.m))

    return profile._derived("weak clone domain", compute)


def find_clone_violation(
    profile: RankedProfile,
    spec: RuleSpec,
    weak: bool = False,
) -> SearchOutcome:
    """The first candidate whose cloning changes other candidates'
    fates or breaks the original/clone equivalence, each judged against one
    base runoff on one extension: for each candidate `a`, the first in
    `cloning_extensions` order.

    Every extension has one approval projection, since the clone is approved
    exactly where `a` is, so the finalist pairs do not depend on the split of
    the voters between clone-above and clone-below. margin(clone, c) =
    margin(a, c) for every other candidate c, since the clone sits next to
    `a`, so each pair (a, c) and (clone, c) returns the same candidates under
    every split; the pair (a, clone) returns `a` or the clone, and the
    conditions read a and the clone together. So the verdict does not depend
    on the split, and the first split (the clone just below `a` on every
    ballot) is the full enumeration's first witness.

    Each candidate is screened on that extension's tally and margins, read
    off the profile's own (see `_clone_screen`); only a candidate whose
    screen breaks the conditions reaches `cloning_violation`'s judge, which
    builds the extension and the witness.

    With weak=True the check applies only on profiles where no candidate is
    approved in every non-empty ballot; outside that domain the result is a
    flagged vacuous pass.
    """
    _require_voter_groups(profile)
    if weak and not in_weak_clone_domain(profile):
        return SearchOutcome(None, 0, vacuous=True)
    base = avr(profile, spec).winners
    for a in range(profile.m):
        tally, margin = _clone_screen(profile, a)
        after, _ = runoff_winners(tally_outcome(tally, spec).pairs, margin)
        if clone_conditions_hold(base, after, a, profile.m):
            continue
        found = _cloned(profile, spec, base, a, weak)
        if found is not None:
            return SearchOutcome(found, a + 1)
    return SearchOutcome(None, profile.m)


def _clone_screen(profile: RankedProfile, a: int) -> tuple[Tally, Callable[[int, int], int]]:
    """The tally and the majority margin(x, y) of
    `next(cloning_extensions(profile, a))`, the clone (id m) just below `a`
    on every ballot, without building it: the clone is approved where `a`
    is, margin(x, clone) = margin(x, a) for every other x, and `a` beats
    the clone by the total weight. Cached on the profile per `a`, so every
    rule shares it.
    """
    m = profile.m
    margins, _ = profile._margins()
    total = profile.tally().total

    def margin(x: int, y: int) -> int:
        if {x, y} == {a, m}:
            return total if x == a else -total
        return margins[a if x == m else x][a if y == m else y]

    def tally() -> Tally:
        ints, denom = profile._int_weights()
        approvals = (b.approved | {m} if a in b.approved else b.approved
                     for b in profile.ballots)
        return Tally.of(m + 1, zip(approvals, ints), denom)

    return profile._derived(("clone", a), lambda: (tally(), margin))


def cloning_violation(profile: RankedProfile, spec: RuleSpec, winners_before: frozenset[int],
                      a: int, weak: bool = False) -> Optional[Violation]:
    """The (weak) clone-proofness violation of cloning `a` just below itself
    on every ballot, judged by `clone_conditions_hold`; weak clone-proofness
    holds vacuously outside its domain."""
    if weak and not in_weak_clone_domain(profile):
        return None
    return _cloned(profile, spec, winners_before, a, weak)


def _cloned(profile, spec, winners_before, a, weak) -> Optional[Violation]:
    """`cloning_violation` on a profile already known to be in its domain."""
    return _judged(
        WEAK_CLONE_PROOFNESS if weak else CLONE_PROOFNESS, profile, spec, winners_before,
        _first_cloning(profile, a),
        lambda after: not clone_conditions_hold(winners_before, after, a, profile.m),
        candidate=a, note=f"cloning {profile.labels[a]} changes the winner set",
    )


def replay(axiom: str, profile: RankedProfile, spec: RuleSpec, winners_before: frozenset[int],
           candidate: Optional[int], partner: Optional[int], voter: Optional[int],
           ballot: Optional[RankedBallot], note: str) -> Optional[Violation]:
    """The violation a recorded transformation gives, judged as the
    searches judge it, or None when it breaks nothing or lies outside the
    axiom's search space: the improvements `a_improvements` yields for
    `candidate`, the ballots `i_deviations` yields for a voter of positive
    weight (`note` is the manipulation mode), the cloning of a candidate,
    or the domination of `candidate` by another candidate `partner`. A
    profile with a fractional group weight lies outside all but the last.
    """
    m = profile.m
    if axiom != PARETO and not _whole_voters(profile):
        return None
    if axiom == STRATEGY_PROOFNESS:
        if voter not in range(len(profile.ballots)) or ballot is None:
            return None
        true = profile.ballots[voter]
        if (true.weight == 0 or ballot.weight != 1 or not ballot.is_consistent()
                or sorted(ballot.ranking) != list(range(m))
                or (ballot.ranking, ballot.approved) == (true.ranking, true.approved)):
            return None
        return deviation_violation(profile, spec, winners_before, voter, ballot, note)
    if candidate not in range(m):
        return None
    if axiom == PARETO:
        if partner not in range(m) or partner == candidate:
            return None
        return _dominance_violation(profile, spec, winners_before, candidate, partner)
    if axiom == MONOTONICITY:
        if (voter, ballot) not in a_improvements(profile, candidate):
            return None
        return improvement_violation(profile, spec, winners_before, candidate, voter, ballot)
    if axiom in (CLONE_PROOFNESS, WEAK_CLONE_PROOFNESS):
        return cloning_violation(profile, spec, winners_before, candidate,
                                 axiom == WEAK_CLONE_PROOFNESS)
    raise InputError(f"unknown axiom {axiom!r}")


# ---------------------------------------------------------------------------
# random profiles and the axiom/rule grid


def random_ranked_profile(
    rng: random.Random, max_m: int = 5, max_n: int = 8, min_m: int = 2
) -> RankedProfile:
    """Unit-weight profile, one group per voter, uniform ranking and
    threshold."""
    m = rng.randint(min_m, max_m)
    n = rng.randint(1, max_n)
    ballots = []
    for _ in range(n):
        ranking = list(range(m))
        rng.shuffle(ranking)
        t = rng.randint(0, m)
        ballots.append(RankedBallot.from_threshold(ranking, t, 1))
    return RankedProfile(m, ballots)


GRID_AXIOMS = (PARETO, MONOTONICITY, STRATEGY_PROOFNESS, WEAK_CLONE_PROOFNESS)

GRID_RULES: tuple[tuple[str, RuleSpec], ...] = tuple(
    (name, RuleSpec.named(name))
    for name in ("mav", "spav", "sphr", "enephr", "sccav", "pav", "ccav", "sav", "triv")
)

# cells expected to hold on every admissible profile
GRID_EXPECTED: frozenset[tuple[str, str]] = frozenset(
    [(r, PARETO) for r in ("mav", "spav", "sphr", "enephr", "pav", "sav")]
    + [("mav", MONOTONICITY), ("triv", MONOTONICITY)]
    + [("triv", STRATEGY_PROOFNESS)]
    + [("ccav", WEAK_CLONE_PROOFNESS), ("sccav", WEAK_CLONE_PROOFNESS)]
)


def check_axiom(profile: RankedProfile, spec: RuleSpec, axiom: str) -> SearchOutcome:
    """Uniform entry point used by the grid, the CLI, and the scripts."""
    if axiom == PARETO:
        found = pareto_violations(profile, spec)
        return SearchOutcome(found[0] if found else None, 1)
    if axiom == MONOTONICITY:
        return find_monotonicity_violation(profile, spec)
    if axiom == STRATEGY_PROOFNESS:
        searched = 0
        for mode in ("strong", "weak"):
            out = find_manipulation(profile, spec, mode)
            searched += out.searched
            if out.violation is not None:
                break
        return out._replace(searched=searched)
    if axiom in (WEAK_CLONE_PROOFNESS, CLONE_PROOFNESS):
        return find_clone_violation(profile, spec, axiom == WEAK_CLONE_PROOFNESS)
    raise InputError(f"unknown axiom {axiom!r}")


def admissible_for_cell(profile: RankedProfile, rule_name: str, axiom: str) -> bool:
    """Domain restrictions under which a checked grid cell is claimed.

    Weak clone-proofness is only defined on profiles where nobody is
    approved on every non-empty ballot. The quota rule's efficiency holds
    in the regime where the approval winner clears the quota; below it the
    rule degenerates to the coverage rule, whose known counterexample is
    kept as a regression.
    """
    if axiom == WEAK_CLONE_PROOFNESS:
        return in_weak_clone_domain(profile)
    if axiom == PARETO and rule_name == "enephr":
        tally = profile.tally()
        return 3 * max(tally.scores) > tally.total
    return True


class GridCellReport(NamedTuple):
    rule: str
    axiom: str
    profiles_checked: int = 0
    violations: list = []

    @property
    def clean(self) -> bool:
        return not self.violations


def run_grid_cell(
    rule_name: str,
    spec: RuleSpec,
    axiom: str,
    n_profiles: int,
    seed: int,
) -> GridCellReport:
    """Check one rule/axiom cell on seeded random profiles."""
    rng = random.Random(seed)
    checked, violations = 0, []
    while checked < n_profiles:
        profile = random_ranked_profile(rng)
        if not admissible_for_cell(profile, rule_name, axiom):
            continue
        out = check_axiom(profile, spec, axiom)
        checked += 1
        if out.violation is not None:
            violations.append(out.violation)
            break
    return GridCellReport(rule_name, axiom, checked, violations)
