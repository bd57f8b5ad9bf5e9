import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrunoff.axioms import random_ranked_profile
from avrunoff.profiles import InputError, RankedBallot, RankedProfile
from avrunoff.rules import (
    CCAV,
    ENEPHR,
    MAV,
    PAV,
    RULES,
    SAV,
    SCCAV,
    SPAV,
    SPHR,
    TRIV,
    CandidatePair,
    RuleOutcome,
    RuleSpec,
    evaluate,
)
from avrunoff.runoff import avr
from conftest import ranked_profiles

A, B, C, D = 0, 1, 2, 3


class TestRunoffComposition:
    def test_spectrum_winners_by_rule(self, spectrum_ranked):
        expected = {
            MAV: {B},
            SAV: {B},
            PAV: {A},
            SPAV: {A},
            SPHR: {A},
            ENEPHR: {A},
            CCAV: {A},
            SCCAV: {A},
        }
        for spec, winners in expected.items():
            assert avr(spectrum_ranked, spec).winners == winners

    def test_winners_union_of_pair_majorities(self, spectrum_ranked):
        result = avr(spectrum_ranked, TRIV)
        union = frozenset(c for ws in result.per_pair_majority.values() for c in ws)
        assert result.winners == union
        for p, ws in result.per_pair_majority.items():
            assert ws <= p.members()

    def test_approval_only_profile_rejected(self, spectrum):
        with pytest.raises(InputError):
            avr(spectrum, MAV)

    @given(ranked_profiles())
    def test_every_winner_sits_in_some_finalist_pair(self, profile):
        for spec in (MAV, PAV, CCAV, SPHR, SAV, TRIV):
            result = avr(profile, spec)
            members = frozenset(c for p in result.finalist_pairs.pairs for c in p)
            assert result.winners <= members
            assert result.winners

    @given(ranked_profiles(), st.integers(1, 4))
    def test_homogeneity(self, profile, factor):
        scaled = profile.scaled(factor)
        for spec in (MAV, PAV, CCAV, SPHR, ENEPHR, SAV, TRIV):
            assert avr(profile, spec).winners == avr(scaled, spec).winners


class TestAllPairsRunoff:
    def test_ranked_spectrum_excludes_only_the_all_loser(self, spectrum_ranked):
        # c loses every pairwise contest (d beats it 9-8), so c alone is out
        assert avr(spectrum_ranked, TRIV).winners == {A, B, D}

    def test_no_loser_means_everyone_wins(self):
        profile = random_ranked_profile(random.Random(3), max_m=4, max_n=6)
        loser = profile.condorcet_loser()
        winners = avr(profile, TRIV).winners
        if loser is None:
            assert winners == frozenset(range(profile.m))

    @given(ranked_profiles(max_m=2))
    def test_two_candidates_reduce_to_majority(self, profile):
        assert avr(profile, TRIV).winners == profile.majority_winners(0, 1)

    @given(ranked_profiles())
    def test_all_pairs_runoff_complements_condorcet_loser(self, profile):
        loser = profile.condorcet_loser()
        expected = frozenset(range(profile.m)) - ({loser} if loser is not None else set())
        assert avr(profile, TRIV).winners == expected

    def test_thousand_random_profiles(self):
        rng = random.Random(20257)
        for _ in range(1000):
            profile = random_ranked_profile(rng)
            loser = profile.condorcet_loser()
            expected = frozenset(range(profile.m)) - (
                {loser} if loser is not None else set()
            )
            assert avr(profile, TRIV).winners == expected


# --- differential oracle: every rule and the runoff against the plain
# Fraction formulas, read off the ballots one by one ---

F = Fraction


@st.composite
def weighted_ranked_profiles(draw):
    """m 2..7; fractional and zero weights, empty and non-prefix approvals."""
    m = draw(st.integers(2, 7))
    ballots = [
        RankedBallot(
            draw(st.permutations(range(m))),
            draw(st.sets(st.integers(0, m - 1), max_size=m)),
            draw(st.builds(F, st.integers(0, 6), st.integers(1, 4))),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    return RankedProfile(m, ballots)


def _pairs(m):
    return [CandidatePair(x, y) for x, y in combinations(range(m), 2)]


def _argbest(table, sense=max):
    best = sense(table.values())
    return tuple(sorted(p for p, s in table.items() if s == best))


def oracle_outcome(profile, spec) -> RuleOutcome:
    ballots, m = profile.ballots, profile.m
    S = [sum((b.weight for b in ballots if c in b.approved), F(0)) for c in range(m)]

    def J(x, y):
        return sum((b.weight for b in ballots if {x, y} <= b.approved), F(0))

    def sequential(alpha_of):
        firsts = tuple(c for c in range(m) if S[c] == max(S))
        table, best = {}, set()
        for x1 in firsts:
            branch = {CandidatePair.of(x1, y): S[x1] + S[y] - alpha_of[x1] * J(x1, y)
                      for y in range(m) if y != x1}
            table.update(branch)
            best.update(_argbest(branch))
        return RuleOutcome(tuple(sorted(best)), table, first_stage=firsts,
                           branch_alphas=alpha_of)

    firsts = tuple(c for c in range(m) if S[c] == max(S))
    if spec.kind == "alpha-av":
        table = {p: S[p.lo] + S[p.hi] - spec.alpha * J(*p) for p in _pairs(m)}
        return RuleOutcome(_argbest(table), table)
    if spec.kind == "alpha-seq":
        return sequential({x1: spec.alpha for x1 in firsts})
    if spec.kind == "enestrom-phragmen":
        n = sum((b.weight for b in ballots), F(0))
        q = spec.quota if spec.beta is None else spec.beta * n
        return sequential({x1: F(1) if S[x1] == 0 else min(F(1), q / S[x1])
                           for x1 in firsts})
    if spec.kind == "seq-phragmen":
        if not any(S):
            return RuleOutcome(tuple(_pairs(m)), {p: F(0) for p in _pairs(m)},
                               objective_sense="min", first_stage=firsts)
        table, best = {}, set()
        for x1 in firsts:
            branch = {CandidatePair.of(x1, y): (1 + J(x1, y) / S[x1]) / S[y]
                      for y in range(m) if y != x1 and S[y]}
            table.update(branch)
            best.update(_argbest(branch, min) if branch else
                        (CandidatePair.of(x1, y) for y in range(m) if y != x1))
        return RuleOutcome(tuple(sorted(best)), table, objective_sense="min",
                           first_stage=firsts)
    if spec.kind == "sav":
        split = {c: sum((b.weight / len(b.approved) for b in ballots if c in b.approved),
                        F(0)) for c in range(m)}
        table = {p: split[p.lo] + split[p.hi] for p in _pairs(m)}
        return RuleOutcome(_argbest(table), table, candidate_scores=split)
    if spec.kind == "triv":
        return RuleOutcome(tuple(_pairs(m)), {p: F(0) for p in _pairs(m)})
    assert spec.kind == "ccav-plus"
    table = {p: (S[p.lo] + S[p.hi] - J(*p), S[p.lo] + S[p.hi]) for p in _pairs(m)}
    return RuleOutcome(_argbest(table), table)


def oracle_margin(profile, a, b):
    return sum((bal.weight if bal.prefers(a, b) else -bal.weight
                for bal in profile.ballots), F(0))


class TestTallyAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(weighted_ranked_profiles(), st.data())
    def test_rules_and_runoff_match_the_formulas(self, profile, data):
        n = profile.total_weight
        specs = [RuleSpec.named(rule.name) for rule in RULES] + [
            RuleSpec("alpha-av", alpha=data.draw(
                st.builds(F, st.integers(0, 12), st.integers(1, 4)))),
            RuleSpec("alpha-seq", alpha=data.draw(
                st.builds(F, st.integers(0, 4), st.integers(4, 7)))),
            RuleSpec("enestrom-phragmen",
                     quota=n * data.draw(st.builds(F, st.integers(0, 5), st.integers(5, 6)))),
        ]
        margins = {(a, b): oracle_margin(profile, a, b)
                   for a in range(profile.m) for b in range(profile.m) if a != b}
        for (a, b), margin in margins.items():
            assert profile.majority_margin(a, b) == margin
        for spec in specs:
            expected = oracle_outcome(profile, spec)
            assert evaluate(profile, spec) == expected
            assert evaluate(profile.as_approval(), spec) == expected
            winners = frozenset(
                c for p in expected.pairs
                for c in ((p.lo,) if margins[p] > 0 else (p.hi,) if margins[p] < 0 else p)
            )
            assert avr(profile, spec).winners == winners


class TestSharedResults:
    """A profile keeps one runoff per rule, so every caller reads the same
    result: none may write into it."""

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    def test_a_cached_runoff_is_read_only(self, spectrum_ranked, rule):
        spec = RuleSpec.named(rule.name)
        result = avr(spectrum_ranked, spec)
        assert avr(spectrum_ranked, spec) is result
        outcome = result.finalist_pairs
        mappings = [result.per_pair_majority, outcome.score_table,
                    outcome.branch_alphas, outcome.candidate_scores]
        for mapping in filter(None, mappings):
            key = next(iter(mapping))
            before = mapping[key]
            with pytest.raises(TypeError):
                mapping[key] = Fraction(-1)
            assert mapping[key] == before
