"""Axiom checker behavior: stored witnesses, search soundness, first witnesses."""

import dataclasses
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from avrunoff import axioms, rules, witnesses
from avrunoff.axioms import (
    MONOTONICITY,
    PARETO,
    WEAK_CLONE_PROOFNESS,
    a_improvements,
    check_axiom,
    check_favorite_consistency,
    cloning_extensions,
    cloning_violation,
    deviation_violation,
    find_clone_violation,
    find_manipulation,
    find_monotonicity_violation,
    i_deviations,
    improvement_violation,
    in_weak_clone_domain,
    pareto_violations,
    random_ranked_profile,
)
from avrunoff.profiles import InputError, RankedBallot, RankedProfile
from avrunoff.rules import CCAV, MAV, SCCAV, TRIV, RuleSpec, evaluate
from avrunoff.runoff import avr, runoff_winners
from conftest import tally_values
from test_witnesses import (
    CLONE_BREAKING_RULES,
    CLONE_DEGENERATE_PROFILE,
    CLONE_TWO_CANDIDATE_WITNESS,
    FAVORITE_DROP_WITNESS,
    NONMONOTONE_RULES,
)


class TestRegressionSuite:
    def test_every_stored_witness_verifies(self):
        for name, _ in axioms.GRID_RULES:
            for axiom in axioms.GRID_AXIOMS:
                violation = witnesses.stored_grid_counterexample(name, axiom)
                if (name, axiom) in axioms.GRID_EXPECTED:
                    assert violation is None
                else:
                    assert violation is not None, (name, axiom)
                    assert violation.verify(), (name, axiom)


class TestFavoriteConsistency:
    def test_sequential_rules_always_pass(self):
        rng = random.Random(11)
        seq_specs = [RuleSpec("alpha-seq", alpha=Fraction(1, 2)),
                     RuleSpec("alpha-seq", alpha=1), RuleSpec("seq-phragmen"),
                     RuleSpec("enestrom-phragmen", beta=Fraction(1, 3))]
        for _ in range(150):
            profile = random_ranked_profile(rng)
            for spec in seq_specs:
                assert check_favorite_consistency(profile, spec) is None

    def test_coverage_rule_keeps_winner_on_spectrum(self, spectrum):
        assert check_favorite_consistency(spectrum, CCAV) is None

    def test_stored_drop_witness(self):
        violation = check_favorite_consistency(FAVORITE_DROP_WITNESS, CCAV)
        assert violation is not None
        assert violation.pair.members() == {1, 2}
        assert violation.verify()

    def test_random_search_finds_a_coverage_drop(self):
        rng = random.Random(5)
        for _ in range(4000):
            profile = random_ranked_profile(rng)
            if check_favorite_consistency(profile, CCAV) is not None:
                return
        pytest.fail("no favorite-consistency violation found for the coverage rule")


class TestParetoChecker:
    def test_witness_violations(self):
        found = pareto_violations(witnesses.PARETO_COVERAGE_WITNESS, CCAV)
        assert [(v.partner, v.candidate) for v in found] == [(1, 2)]

    def test_plain_rule_clean_on_random_profiles(self):
        rng = random.Random(23)
        for _ in range(300):
            assert not pareto_violations(random_ranked_profile(rng), MAV)


def brute_improvements(profile, a):
    """Independent enumeration: all consistent ballots that weakly raise a."""
    out = []
    for i, b in enumerate(profile.ballots):
        for ranking in itertools.permutations(range(profile.m)):
            for t in range(profile.m + 1):
                new = RankedBallot.from_threshold(ranking, t, 1)
                if (new.ranking, new.approved) == (b.ranking, b.approved):
                    continue
                if new.approved not in (b.approved, b.approved | {a}):
                    continue
                # everyone except a keeps their relative order, a only rises
                ok = all(
                    new.position(x) < new.position(y)
                    for x in range(profile.m)
                    for y in range(profile.m)
                    if x != y and y != a and b.position(x) < b.position(y)
                )
                if ok:
                    out.append((i, new))
    return out


class TestMonotonicitySearch:
    def test_witness_found_for_discounted_rules(self):
        for name in NONMONOTONE_RULES:
            out = find_monotonicity_violation(
                witnesses.MONOTONICITY_WITNESS, RuleSpec.named(name)
            )
            assert out.status == "violation", name
            assert out.violation.verify()

    def test_clean_for_plain_and_trivial(self):
        for spec in (MAV, TRIV):
            out = find_monotonicity_violation(witnesses.MONOTONICITY_WITNESS, spec)
            assert out.status == "none"

    def test_enumeration_matches_brute_force(self):
        rng = random.Random(77)
        for _ in range(40):
            profile = random_ranked_profile(rng, max_m=3, max_n=3)
            for a in range(profile.m):
                ours = {
                    (i, b.ranking, b.approved)
                    for i, b in a_improvements(profile, a)
                }
                brute = {
                    (i, b.ranking, b.approved) for i, b in brute_improvements(profile, a)
                }
                assert ours == brute

    def test_search_agrees_with_brute_force_verdict(self):
        rng = random.Random(99)
        spec = RuleSpec.named("pav")
        disagreements = 0
        for _ in range(60):
            profile = random_ranked_profile(rng, max_m=3, max_n=4)
            out = find_monotonicity_violation(profile, spec)
            base = avr(profile, spec).winners
            brute_found = False
            for a in sorted(base):
                for i, ballot in brute_improvements(profile, a):
                    changed = profile.replace_ballot(i, ballot)
                    if a not in avr(changed, spec).winners:
                        brute_found = True
            if (out.status == "violation") != brute_found:
                disagreements += 1
        assert disagreements == 0

    def test_first_witness_is_the_full_loops(self):
        # the search runs the runoff only on the improvements that change the
        # voter's approvals; the oracle runs it on every improvement
        rng = random.Random(83)
        specs = TestFirstDeviation.SPECS
        seen = set()
        for m in (2, 3, 3, 4, 4, 5) * 6:
            profile = manipulation_profile(rng, m, rng.randint(2, 4))
            if not all(b.is_consistent() for b in profile.ballots):
                seen.add("not a prefix")
            if any(b.weight == 0 for b in profile.ballots):
                seen.add("zero weight")
            for spec in specs:
                expected, searched = enumerated_monotonicity(profile, spec)
                out = find_monotonicity_violation(profile, spec)
                seen.add(out.status)
                assert (out.violation, out.searched) == (expected, searched), (profile, spec)
        assert seen == {"not a prefix", "zero weight", "none", "violation"}, seen


def enumerated_monotonicity(profile, spec):
    """The monotonicity search as the loop that runs the runoff on every
    a-improvement of every winner, in order."""
    base = avr(profile, spec).winners
    searched = 0
    for a in sorted(base):
        for i, ballot in a_improvements(profile, a):
            searched += 1
            found = improvement_violation(profile, spec, base, a, i, ballot)
            if found is not None:
                return found, searched
    return None, searched


class TestManipulationSearch:
    def test_witness_manipulations_found(self):
        out = find_manipulation(witnesses.COVERAGE_MANIPULATION_WITNESS, CCAV, "strong")
        assert out.status == "violation"
        assert out.violation.verify()

    def test_trivial_rule_immune(self):
        rng = random.Random(13)
        for _ in range(60):
            profile = random_ranked_profile(rng, max_m=4, max_n=5)
            for mode in ("strong", "weak"):
                assert find_manipulation(profile, TRIV, mode).status == "none"

    def test_single_voter_cannot_strongly_manipulate(self):
        rng = random.Random(31)
        for _ in range(40):
            profile = random_ranked_profile(rng, max_m=3, max_n=1)
            for name, spec in axioms.GRID_RULES:
                assert find_manipulation(profile, spec, "strong").status == "none"

    def test_exhaustive_search_matches_brute_force(self):
        rng = random.Random(41)
        spec = CCAV
        for _ in range(25):
            profile = random_ranked_profile(rng, max_m=3, max_n=3)
            base = avr(profile, spec).winners
            brute_found = False
            for i, true_ballot in enumerate(profile.ballots):
                for ranking in itertools.permutations(range(profile.m)):
                    for t in range(profile.m + 1):
                        new = RankedBallot.from_threshold(ranking, t, 1)
                        if (new.ranking, new.approved) == (
                            true_ballot.ranking, true_ballot.approved,
                        ):
                            continue
                        after = avr(profile.replace_ballot(i, new), spec).winners
                        if axioms.manipulation_succeeds("strong", true_ballot, base, after):
                            brute_found = True
            ours = find_manipulation(profile, spec, "strong")
            assert (ours.status == "violation") == brute_found


def enumerated_manipulation(profile, spec, mode):
    """The manipulation search as the loop over `i_deviations` that it was:
    every deviation of every voter in order, each through
    `deviation_violation`, with no voter skipped before its deviations."""
    base = avr(profile, spec).winners
    searched = 0
    for i, true_ballot in enumerate(profile.ballots):
        if true_ballot.weight == 0:
            continue
        for ballot in i_deviations(profile, i):
            searched += 1
            found = deviation_violation(profile, spec, base, i, ballot, mode)
            if found is not None:
                return found, searched
    return None, searched


def manipulation_profile(rng, m, groups):
    """A unit voter, then groups of weight 0-4. Each ballot approves at most
    two candidates, so that one voter's approvals can move the finalists;
    one ballot in three approves a random set, most often not a prefix of
    its ranking."""
    ballots = []
    for k in range(groups):
        ranking = rng.sample(range(m), m)
        if rng.random() < 1 / 3:
            approved = rng.sample(range(m), rng.randint(0, 2))
        else:
            approved = ranking[:rng.randint(0, 2)]
        ballots.append(RankedBallot(ranking, approved, rng.randint(0, 4) if k else 1))
    return RankedProfile(m, ballots)


def rebuilt_first_deviation(profile, spec, i, goal):
    """The smallest (ranking, t) by which voter i elects a candidate of
    `goal`, with the rule evaluated once per approval set S on the profile
    rebuilt with the voter moved to S by `replace_ballot`."""
    m = profile.m
    margins, _ = profile._margins()
    true = profile.ballots[i]
    orders = sorted(
        (top + tuple(c for c in range(m) if c not in top), t)
        for t in range(m + 1)
        for top in itertools.combinations(range(m), t)
    )
    best = None
    for smallest, t in orders:
        if best is not None and (smallest, t) > best:
            break
        S = frozenset(smallest[:t])
        moved = profile.replace_ballot(i, RankedBallot(smallest, S, 1))
        for pair in evaluate(moved, spec).pairs:
            for a, b in (pair, pair[::-1]):
                if b in S and a not in S:
                    continue
                margin = margins[a][b] - (1 if true.prefers(a, b) else -1) + 1
                if not goal & ({a} if margin > 0 else {b} if margin < 0 else {a, b}):
                    continue
                ranking = list(smallest)
                if ranking.index(b) < ranking.index(a):
                    ranking.remove(b)
                    ranking.insert(ranking.index(a) + 1, b)
                if best is None or (tuple(ranking), t) < best:
                    best = (tuple(ranking), t)
    return best


def rebuilt_manipulation(profile, spec, mode):
    """The manipulation search voter by voter through
    `rebuilt_first_deviation`, with no memo and no cache: the witness and
    its position in the `i_deviations` enumeration."""
    base = avr(profile, spec).winners
    m = profile.m
    searched = 0
    for i, true_ballot in enumerate(profile.ballots):
        if true_ballot.weight == 0:
            continue
        goal = axioms.manipulation_goal(mode, true_ballot, base)
        own = true_ballot.is_consistent()
        first = rebuilt_first_deviation(profile, spec, i, goal) if goal else None
        if first is None:
            searched += math.factorial(m) * (m + 1) - own
            continue
        ranking, t = first
        position = axioms._lex_rank(ranking) * (m + 1) + t
        own_position = axioms._lex_rank(true_ballot.ranking) * (m + 1) + true_ballot.threshold
        searched += position + 1 - (own and own_position < position)
        ballot = RankedBallot.from_threshold(ranking, t, 1)
        return deviation_violation(profile, spec, base, i, ballot, mode), searched
    return None, searched


def election_profile(rng, m, groups, max_weight):
    """Election-shaped: most groups single-peaked (voters on [-1, 1] ranking
    evenly spaced candidates by distance, approving those within 0.4), the
    rest a random ranking and approval set; weights 0 to `max_weight`; one
    group in five repeated with a weight of its own."""
    pos = [-1 + 2 * c / (m - 1) for c in range(m)]
    ballots = []
    for _ in range(groups):
        if rng.random() < 0.8:
            x = rng.triangular(-1, 1, 0)
            ranking = sorted(range(m), key=lambda c: (abs(pos[c] - x), pos[c]))
            approved = [c for c in range(m) if abs(pos[c] - x) < 0.4]
        else:
            ranking = rng.sample(range(m), m)
            approved = rng.sample(range(m), rng.randint(0, 3))
        ballots.append(RankedBallot(ranking, approved, rng.randint(0, max_weight)))
        if rng.random() < 0.2:
            ballots.append(RankedBallot(ranking, approved, rng.randint(0, max_weight)))
    return RankedProfile(m, ballots)


class TestTallyScreens:
    """The searches judge each transformation on the base tally and build a
    profile only for the witness; each is compared here with a search that
    rebuilds and reruns every transformation it judges."""

    SPECS = [spec for _, spec in axioms.GRID_RULES] + [
        RuleSpec.named(name) for name in ("2av", "ccav+")]

    def test_election_shaped_profiles_get_the_rebuilt_searches_witnesses(self):
        # the rebuilt manipulation search costs O(groups²) per voter, so the
        # profile of 120 groups runs it under one rule
        rng = random.Random(97)
        cases = [(election_profile(rng, m, groups, max_weight), self.SPECS)
                 for m, groups, max_weight in ((6, 10, 2), (7, 8, 2), (8, 6, 2), (6, 12, 3),
                                               (7, 10, 1))]
        cases.append((election_profile(rng, 6, 120, 9), [MAV]))
        seen = set()
        for profile, manipulation_specs in cases:
            if any(b.weight == 0 for b in profile.ballots):
                seen.add("zero weight")
            if len({(b.ranking, b.approved) for b in profile.ballots}) < len(profile.ballots):
                seen.add("repeated ballot")
            for spec in self.SPECS:
                expected = enumerated_monotonicity(profile, spec)
                out = find_monotonicity_violation(profile, spec)
                assert (out.violation, out.searched) == expected, (profile, spec)
                seen.add(("monotonicity", out.status))
                for mode in ("strong", "weak") if spec in manipulation_specs else ():
                    expected = rebuilt_manipulation(profile, spec, mode)
                    out = find_manipulation(profile, spec, mode)
                    assert (out.violation, out.searched) == expected, (profile, spec, mode)
                    seen.add((mode, out.status))
                before = avr(profile, spec).winners
                hits = [(a + 1, v) for a in range(profile.m)
                        for v in [cloning_violation(profile, spec, before, a)] if v is not None]
                out = find_clone_violation(profile, spec)
                assert (out.searched, out.violation) == (hits[0] if hits else (profile.m, None))
                seen.add(("clone", out.status))
        assert seen >= {"zero weight", "repeated ballot", ("monotonicity", "none"),
                        ("monotonicity", "violation"), ("strong", "none"),
                        ("strong", "violation"), ("weak", "none"), ("weak", "violation"),
                        ("clone", "none"), ("clone", "violation")}, seen

    def test_one_voter_move_gets_the_rebuilt_profiles_winners(self):
        # the monotonicity screen's predicate holds for any one-voter move,
        # not only an improvement, and for every candidate
        rng = random.Random(101)
        for _ in range(60):
            m = rng.randint(2, 5)
            profile = manipulation_profile(rng, m, rng.randint(1, 4))
            for spec in self.SPECS:
                for i, old in enumerate(profile.ballots):
                    if old.weight == 0:
                        continue
                    ballot = RankedBallot(rng.sample(range(m), m),
                                          rng.sample(range(m), rng.randint(0, m)))
                    after = avr(profile.replace_ballot(i, ballot), spec).winners
                    assert [axioms._wins_after_move(profile, spec, i, ballot, c)
                            for c in range(m)] == [c in after for c in range(m)]

    def test_monotonicity_cell_runs_no_runoff_on_a_moved_profile(self, monkeypatch):
        # a screen reads the winner's own moved pairs and runs no runoff on
        # them; the base runoffs go through `avr`, which this does not count
        counted = []

        def runoff(pairs, margin):
            counted.append(pairs)
            return runoff_winners(pairs, margin)

        monkeypatch.setattr(axioms, "runoff_winners", runoff)
        profile = RankedProfile(4, [
            RankedBallot((0, 1, 2, 3), {0}, 3), RankedBallot((1, 2, 0, 3), {1}, 1),
            RankedBallot((2, 3, 1, 0), {2, 3}, 2), RankedBallot((3, 0, 2, 1), {3}, 1)])
        for _, spec in axioms.GRID_RULES:
            out = check_axiom(profile, spec, axioms.MONOTONICITY)
            assert out.status == "none" and out.searched > 0, spec
        assert counted == []

    @pytest.mark.parametrize("name", ["mav", "pav", "sav", "sphr"])
    def test_strategy_proofness_cell_evaluates_the_rule_once_per_approval_set(
            self, name, monkeypatch):
        # four voters share the true approval set {0}, each with a ranking of
        # their own; the others' goal is empty, as they rank the winner 3
        # first. A search per voter and mode would evaluate 4 * 2 * 2^4 times.
        evaluated = []

        def counted(tally, spec):
            evaluated.append(tally)
            return rules.tally_outcome(tally, spec)

        monkeypatch.setattr(axioms, "tally_outcome", counted)
        profile = RankedProfile(4, [
            *(RankedBallot(r, {0}, 1)
              for r in ((0, 1, 2, 3), (0, 2, 1, 3), (1, 0, 2, 3), (2, 0, 1, 3))),
            RankedBallot((3, 2, 1, 0), {3}, 5), RankedBallot((3, 1, 2, 0), {1, 3}, 1)])
        out = check_axiom(profile, RuleSpec.named(name), axioms.STRATEGY_PROOFNESS)
        assert out.status == "none"
        assert len(evaluated) == len(set(evaluated)) == 2 ** profile.m


class TestSharedCaches:
    """A profile keeps the work derived from it: its tally and preferences,
    one runoff per rule, the tally with one voter moved per (A, S), that
    tally's finalist pairs per (rule, A, S) and the clone screen per
    candidate. Each cell of the grid reads what the cells before it kept;
    here each is compared with the same cell on a copy of the profile whose
    caches are empty."""

    SPECS = list(axioms.GRID_RULES) + [(name, RuleSpec.named(name)) for name in ("2av", "ccav+")]

    @staticmethod
    def fresh(profile):
        return RankedProfile(profile.m, profile.ballots, profile.labels)

    def test_every_cell_on_a_shared_profile_is_the_cache_free_cell(self):
        rng = random.Random(181)
        profiles = [manipulation_profile(rng, m, rng.randint(2, 6))
                    for m in (2, 3, 3, 4, 4, 4, 5, 5, 5)]
        profiles += [election_profile(rng, m, groups, 2)
                     for m, groups in ((6, 10), (7, 8), (8, 6))]
        seen = set()
        for profile in profiles:
            if any(b.weight == 0 for b in profile.ballots):
                seen.add("zero weight")
            if not all(b.is_consistent() for b in profile.ballots):
                seen.add("no prefix")
            for name, spec in self.SPECS:
                for axiom in axioms.GRID_AXIOMS:
                    shared = check_axiom(profile, spec, axiom)
                    alone = check_axiom(self.fresh(profile), spec, axiom)
                    assert ((shared.status, shared.searched, repr(shared.violation))
                            == (alone.status, alone.searched, repr(alone.violation))), (
                        profile, name, axiom)
                    seen.add((axiom, shared.status))
                kept, alone = avr(profile, spec), avr(self.fresh(profile), spec)
                assert kept.winners == alone.winners
                assert kept.finalist_pairs.pairs == alone.finalist_pairs.pairs
                assert dict(kept.finalist_pairs.score_table) == dict(
                    alone.finalist_pairs.score_table)
        assert seen >= {"zero weight", "no prefix"} | {
            (axiom, status) for axiom in axioms.GRID_AXIOMS for status in ("none", "violation")
        } | {(WEAK_CLONE_PROOFNESS, "vacuous")}, seen

    def test_caches_die_with_their_profile(self):
        profile = election_profile(random.Random(5), 6, 8, 2)
        ref = weakref.ref(profile)
        for _, spec in self.SPECS:
            for axiom in axioms.GRID_AXIOMS:
                check_axiom(profile, spec, axiom)
        assert ref().__dict__["_cache"]
        del profile
        gc.collect()
        assert ref() is None


class TestFirstDeviation:
    SPECS = [spec for _, spec in axioms.GRID_RULES] + [
        RuleSpec.named(name) for name in ("2av", "ccav+", "alpha-seq:1/3")]

    def test_first_witness_is_the_enumerations(self):
        # the oracle runs up to 5,039 deviations per voter at m = 6, so the
        # two six-candidate profiles run under two rules each
        rng = random.Random(274)
        cases = [(manipulation_profile(rng, m, 3 if m < 5 else 2), self.SPECS)
                 for m in (2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5)]
        cases += [(manipulation_profile(rng, 6, 2), [RuleSpec.named(name) for name in pair])
                  for pair in (("mav", "ccav"), ("pav", "sav"))]
        seen = set()
        for profile, specs in cases:
            if not all(b.is_consistent() for b in profile.ballots):
                seen.add("not a prefix")
            if any(b.weight == 0 for b in profile.ballots):
                seen.add("zero weight")
            for spec in specs:
                for mode in ("strong", "weak"):
                    expected, searched = enumerated_manipulation(profile, spec, mode)
                    out = find_manipulation(profile, spec, mode)
                    got = out.violation
                    seen.add((mode, out.status))
                    assert out.searched == searched, (profile, spec, mode)
                    if expected is None:
                        assert got is None, (profile, spec, mode)
                        continue
                    seen.add(("violation at m", profile.m))
                    assert got is not None and got.verify(), (profile, spec, mode)
                    assert (got.voter, got.ballot, got.transformed, got.winners_after) == (
                        expected.voter, expected.ballot, expected.transformed,
                        expected.winners_after), (profile, spec, mode)
        assert seen >= {"not a prefix", "zero weight", ("strong", "violation"),
                        ("weak", "violation"), ("strong", "none"), ("weak", "none"),
                        ("violation at m", 5), ("violation at m", 6)}, seen

    def test_searched_counts_a_voter_whose_approvals_are_no_prefix(self):
        # voter 1's own ballot is not among its deviations: 23 + 24
        profile = RankedProfile(3, [RankedBallot((0, 1, 2), {0}, 2),
                                    RankedBallot((2, 1, 0), {0}, 1)])
        out = find_manipulation(profile, MAV, "weak")
        assert (out.status, out.searched) == ("none", 47)
        assert out.searched == sum(1 for i in range(2) for _ in i_deviations(profile, i))

    def test_seven_candidates_get_a_verdict(self):
        rng = random.Random(89)
        profile = RankedProfile(7, [
            RankedBallot.from_threshold(rng.sample(range(7), 7), rng.randint(1, 4), 1)
            for _ in range(13)
        ])
        statuses = set()
        for _, spec in axioms.GRID_RULES:
            out = check_axiom(profile, spec, axioms.STRATEGY_PROOFNESS)
            statuses.add(out.status)
            assert out.violation is None or out.violation.verify()
        assert statuses == {"none", "violation"}


class TestCloneSearch:
    def test_weak_domain_detection(self):
        assert in_weak_clone_domain(witnesses.CLONE_TWO_BLOC_WITNESS)
        assert not in_weak_clone_domain(CLONE_TWO_CANDIDATE_WITNESS)
        assert not in_weak_clone_domain(CLONE_DEGENERATE_PROFILE)

    def test_vacuous_pass_outside_domain(self):
        out = find_clone_violation(CLONE_TWO_CANDIDATE_WITNESS, CCAV, weak=True)
        assert out.status == "vacuous"

    def test_extension_count(self):
        profile = witnesses.CLONE_TWO_BLOC_WITNESS  # weights 2, 1, 10
        assert sum(1 for _ in cloning_extensions(profile, 0)) == 66

    def test_extensions_preserve_relative_orders(self):
        profile = witnesses.CLONE_TWO_BLOC_WITNESS
        a, clone = 0, profile.m
        for ext in cloning_extensions(profile, a):
            assert ext.total_weight == profile.total_weight
            for ballot in ext.ballots:
                assert (a in ballot.approved) == (clone in ballot.approved)
                others = [c for c in ballot.ranking if c not in (a, clone)]
                for x in others:
                    assert ballot.prefers(a, x) == ballot.prefers(clone, x)

    def test_coverage_rules_clean_on_random_weak_domain_profiles(self):
        rng = random.Random(59)
        checked = 0
        while checked < 40:
            profile = random_ranked_profile(rng, max_m=4, max_n=5)
            if not in_weak_clone_domain(profile):
                continue
            checked += 1
            for spec in (CCAV, SCCAV):
                before = avr(profile, spec).winners
                for a in range(profile.m):
                    assert cloning_violation(profile, spec, before, a, weak=True) is None

    def test_witnesses_break_the_other_rules(self):
        for name in CLONE_BREAKING_RULES:
            violation = witnesses.stored_grid_counterexample(name, WEAK_CLONE_PROOFNESS)
            assert violation is not None and violation.verify(), name

    def test_search_agrees_with_brute_force_verdict(self):
        # independent enumeration: insert the clone by hand for every
        # combination of per-voter placements
        rng = random.Random(67)
        spec = RuleSpec.named("mav")
        for _ in range(30):
            profile = random_ranked_profile(rng, max_m=3, max_n=3)
            base = avr(profile, spec).winners
            for a in range(profile.m):
                clone = profile.m
                brute_found = False
                for choices in itertools.product((0, 1), repeat=len(profile.ballots)):
                    ballots = []
                    for ballot, above in zip(profile.ballots, choices):
                        pos = ballot.position(a)
                        cut = pos if above else pos + 1
                        ranking = ballot.ranking[:cut] + (clone,) + ballot.ranking[cut:]
                        approved = (
                            ballot.approved | {clone}
                            if a in ballot.approved
                            else ballot.approved
                        )
                        ballots.append(RankedBallot(ranking, approved, ballot.weight))
                    labels = profile.labels + ("z'",)
                    after = avr(
                        RankedProfile(profile.m + 1, ballots, labels), spec
                    ).winners
                    if not axioms.clone_conditions_hold(base, after, a, clone):
                        brute_found = True
                ours = cloning_violation(profile, spec, base, a)
                assert (ours is not None) == brute_found

    def test_sign_class_search_matches_the_full_enumeration(self):
        # the first hit of a scan over every extension is the witness the
        # search must return; group weights 0-4 give both parities of W
        rng = random.Random(71)
        specs = [spec for _, spec in axioms.GRID_RULES] + [RuleSpec.named("2av")]
        seen = set()
        for _ in range(40):
            m = rng.randint(2, 4)
            profile = RankedProfile(m, [
                RankedBallot.from_threshold(rng.sample(range(m), m), rng.randint(0, m),
                                            rng.randint(0, 4))
                for _ in range(rng.randint(1, 3))
            ])
            seen.add(f"W % 2 == {profile.total_weight % 2}")
            if any(b.weight == 0 for b in profile.ballots):
                seen.add("zero-weight group")
            for spec in specs:
                base = avr(profile, spec).winners
                for a in range(m):
                    first_hit = (None, None)
                    for ext in cloning_extensions(profile, a):
                        after = avr(ext, spec).winners
                        if not axioms.clone_conditions_hold(base, after, a, m):
                            first_hit = (ext, after)
                            break
                    for weak in (False, True):
                        v = cloning_violation(profile, spec, base, a, weak)
                        if weak and not in_weak_clone_domain(profile):
                            seen.add("vacuous")
                            assert v is None
                        elif first_hit[0] is None:
                            seen.add("none")
                            assert v is None
                        else:
                            seen.add("violation")
                            assert (v.transformed, v.winners_after) == first_hit
        assert seen == {"W % 2 == 0", "W % 2 == 1", "zero-weight group",
                        "none", "violation", "vacuous"}


    def test_screen_is_the_first_extensions_tally_and_margins(self):
        rng = random.Random(79)
        for _ in range(40):
            m = rng.randint(2, 5)
            profile = RankedProfile(m, [
                RankedBallot(rng.sample(range(m), m), rng.sample(range(m), rng.randint(0, m)),
                             rng.randint(0, 3))
                for _ in range(rng.randint(1, 4))
            ])
            for a in range(m):
                tally, margin = axioms._clone_screen(profile, a)
                ext = next(cloning_extensions(profile, a))
                assert tally_values(tally) == tally_values(ext.tally())
                assert (tally.denom, tally.total, tally.scores, tally.joint) == (
                    ext.tally().denom, ext.tally().total, ext.tally().scores, ext.tally().joint)
                for x, y in itertools.permutations(range(m + 1), 2):
                    assert margin(x, y) == ext.majority_margin(x, y)


class TestVerify:
    @pytest.mark.parametrize("violation", [
        lambda: find_monotonicity_violation(witnesses.MONOTONICITY_WITNESS,
                                            RuleSpec.named("pav")).violation,
        lambda: find_manipulation(witnesses.COVERAGE_MANIPULATION_WITNESS, CCAV,
                                  "strong").violation,
        lambda: cloning_violation(witnesses.CLONE_TWO_BLOC_WITNESS, MAV,
                                  avr(witnesses.CLONE_TWO_BLOC_WITNESS, MAV).winners, 0,
                                  weak=True),
    ], ids=["monotonicity", "strategy-proofness", "clone"])
    def test_rejects_a_transformed_profile_that_is_not_the_recorded_change(self, violation):
        v = violation()
        assert v.verify()
        # twice the electorate: the same winners, but no single-voter change
        # or cloning of v.profile
        forged = dataclasses.replace(v, transformed=v.transformed.scaled(2))
        assert avr(forged.transformed, v.rule).winners == v.winners_after
        assert not forged.verify()

    @pytest.mark.parametrize("ballot", [
        RankedBallot((1, 0, 2), {0}, 1),  # approves a below the unapproved b
        RankedBallot((0, 2, 1), {0}, 2),  # two voters' weight
    ], ids=["not-a-prefix", "weight-2"])
    def test_rejects_a_deviation_outside_the_search_space(self, ballot):
        profile = witnesses.COVERAGE_MANIPULATION_WITNESS
        before = avr(profile, CCAV).winners
        v = deviation_violation(profile, CCAV, before, 0, ballot, "strong")
        assert v is not None  # the judge alone takes it for a manipulation
        assert not v.verify()

    @pytest.mark.parametrize("rule,axiom,change", [
        ("ccav", PARETO, {"candidate": 7}),
        ("pav", MONOTONICITY, {"candidate": 7}),
        ("ccav", axioms.STRATEGY_PROOFNESS, {"voter": 9}),
        ("ccav", axioms.STRATEGY_PROOFNESS, {"ballot": None}),
        ("mav", WEAK_CLONE_PROOFNESS, {"candidate": 7}),
    ], ids=["pareto", "monotonicity", "strategy-proofness", "no-ballot", "clone"])
    def test_rejects_a_stored_witness_moved_out_of_the_profile(self, rule, axiom, change):
        v = witnesses.stored_grid_counterexample(rule, axiom)
        assert v.verify()
        assert not dataclasses.replace(v, **change).verify()

    @pytest.mark.parametrize("rule,axiom,verifies", [
        ("ccav", PARETO, True),
        ("pav", MONOTONICITY, False),
        ("ccav", axioms.STRATEGY_PROOFNESS, False),
        ("mav", WEAK_CLONE_PROOFNESS, False),
    ], ids=["pareto", "monotonicity", "strategy-proofness", "clone"])
    def test_a_witness_with_half_voters(self, rule, axiom, verifies):
        # halved group weights keep the winners, but a group of half a voter
        # lies outside every transformation search: verify says False, not
        # raises; domination does not depend on the weights
        v = witnesses.stored_grid_counterexample(rule, axiom)
        assert v.verify()
        halved = dataclasses.replace(v, profile=v.profile.scaled(Fraction(1, 2)))
        assert avr(halved.profile, v.rule).winners == v.winners_before
        assert halved.verify() is verifies


class TestCheckAxiomEntryPoint:
    def test_statuses_on_witness_profile(self):
        profile = witnesses.MONOTONICITY_WITNESS
        assert check_axiom(profile, RuleSpec.named("pav"), MONOTONICITY).status == "violation"
        assert check_axiom(profile, MAV, MONOTONICITY).status == "none"
        assert check_axiom(profile, MAV, PARETO).status == "none"

    def test_clone_cell_is_the_per_candidate_searches(self):
        # one clone judge per candidate, in order: the cell's witness is the
        # first hit, and it searched the candidates judged up to it, or none
        # on a vacuous pass
        rng = random.Random(73)
        specs = [spec for _, spec in axioms.GRID_RULES] + [RuleSpec.named("2av")]
        seen = set()
        for _ in range(30):
            m = rng.randint(2, 4)
            profile = RankedProfile(m, [
                RankedBallot.from_threshold(rng.sample(range(m), m), rng.randint(0, m),
                                            rng.randint(0, 3))
                for _ in range(rng.randint(1, 4))
            ])
            for spec in specs:
                for axiom, weak in ((axioms.CLONE_PROOFNESS, False),
                                    (WEAK_CLONE_PROOFNESS, True)):
                    before = avr(profile, spec).winners
                    outs = []
                    for a in range(m):
                        outs.append(cloning_violation(profile, spec, before, a, weak))
                        if outs[-1] is not None:
                            break
                    vacuous = weak and not in_weak_clone_domain(profile)
                    cell = check_axiom(profile, spec, axiom)
                    seen.add(cell.status)
                    assert cell.violation == outs[-1]
                    assert cell.searched == (0 if vacuous else len(outs))
                    assert cell.vacuous == vacuous
                    assert cell.exhausted
        assert seen == {"none", "violation", "vacuous"}

    def test_clone_cell_runs_the_base_runoff_once(self, monkeypatch):
        calls = []

        def counted(profile, spec):
            calls.append(profile)
            return avr(profile, spec)

        monkeypatch.setattr(axioms, "avr", counted)
        profile = witnesses.CLONE_TWO_BLOC_WITNESS
        out = check_axiom(profile, CCAV, WEAK_CLONE_PROOFNESS)
        assert out.status == "none" and out.searched == profile.m
        # each candidate is screened on the extension's tally, so a clean
        # cell runs the base runoff and builds no extension
        assert calls == [profile]

    def test_violating_clone_cell_builds_one_extension(self, monkeypatch):
        calls = []

        def counted(profile, spec):
            calls.append(profile)
            return avr(profile, spec)

        monkeypatch.setattr(axioms, "avr", counted)
        profile = witnesses.CLONE_TWO_BLOC_WITNESS
        out = check_axiom(profile, MAV, WEAK_CLONE_PROOFNESS)
        assert out.status == "violation"
        # the base runoff, then the witness's extension alone
        assert calls == [profile, out.violation.transformed]

    def test_weak_clone_cell_checks_the_domain_once(self, monkeypatch):
        calls = []

        def counted(profile):
            calls.append(profile)
            return in_weak_clone_domain(profile)

        monkeypatch.setattr(axioms, "in_weak_clone_domain", counted)
        outside = RankedProfile(3, [RankedBallot.from_threshold((0, 1, 2), 1, 2)])
        for profile, spec, status in [
            (witnesses.CLONE_TWO_BLOC_WITNESS, CCAV, "none"),
            (witnesses.CLONE_TWO_BLOC_WITNESS, MAV, "violation"),
            (outside, CCAV, "vacuous"),
        ]:
            calls.clear()
            assert check_axiom(profile, spec, WEAK_CLONE_PROOFNESS).status == status
            assert calls == [profile]

    def test_unknown_axiom_rejected(self, spectrum_ranked):
        with pytest.raises(InputError):
            check_axiom(spectrum_ranked, MAV, "range-voting")


class TestDeterminism:
    def test_first_witness_is_stable(self):
        profile = witnesses.MONOTONICITY_WITNESS
        spec = RuleSpec.named("ccav")
        first = find_monotonicity_violation(profile, spec)
        second = find_monotonicity_violation(profile, spec)
        assert first.violation.transformed == second.violation.transformed
        assert first.searched == second.searched
