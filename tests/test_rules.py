import pickle
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avrunoff import rules
from avrunoff.fileio import parse_profile
from avrunoff.profiles import ApprovalBallot, ApprovalProfile, InputError
from avrunoff.rules import (
    CCAV,
    CCAV_PLUS,
    ENEPHR,
    MAV,
    PAV,
    SAV,
    SCCAV,
    SPAV,
    SPHR,
    TRIV,
    TWO_AV,
    CandidatePair,
    RuleSpec,
    evaluate,
)
from conftest import approval_profiles

A, B, C, D = 0, 1, 2, 3
F = Fraction


def pair(a, b):
    return CandidatePair.of(a, b)


def pairs(*ps):
    return frozenset(pair(a, b) for a, b in ps)


# --- independent oracles: recompute everything from the raw ballots ---

def brute_score(profile, c):
    return sum((b.weight for b in profile.ballots if c in b.approved), F(0))


def brute_joint(profile, group):
    group = set(group)
    return sum((b.weight for b in profile.ballots if group <= b.approved), F(0))


def oracle_alpha_av(profile, alpha):
    table = {
        pair(x, y): brute_score(profile, x) + brute_score(profile, y)
        - alpha * brute_joint(profile, {x, y})
        for x, y in combinations(range(profile.m), 2)
    }
    best = max(table.values())
    return frozenset(p for p, s in table.items() if s == best)


def oracle_winners(profile):
    scores = [brute_score(profile, c) for c in range(profile.m)]
    top = max(scores)
    return [c for c, s in enumerate(scores) if s == top]


def oracle_seq(profile, alpha_of_branch):
    chosen = set()
    for x1 in oracle_winners(profile):
        alpha = alpha_of_branch(x1)
        vals = {
            y: brute_score(profile, y) - alpha * brute_joint(profile, {x1, y})
            for y in range(profile.m)
            if y != x1
        }
        best = max(vals.values())
        chosen |= {pair(x1, y) for y, v in vals.items() if v == best}
    return frozenset(chosen)


def oracle_seq_phragmen(profile):
    scores = [brute_score(profile, c) for c in range(profile.m)]
    if all(s == 0 for s in scores):
        return frozenset(pair(x, y) for x, y in combinations(range(profile.m), 2))
    chosen = set()
    for x1 in oracle_winners(profile):
        loads = {
            y: (1 + brute_joint(profile, {x1, y}) / scores[x1]) / scores[y]
            for y in range(profile.m)
            if y != x1 and scores[y] > 0
        }
        if loads:
            best = min(loads.values())
            chosen |= {pair(x1, y) for y, v in loads.items() if v == best}
        else:
            chosen |= {pair(x1, y) for y in range(profile.m) if y != x1}
    return frozenset(chosen)


def oracle_sav(profile):
    split = [
        sum((b.weight / len(b.approved) for b in profile.ballots
             if c in b.approved and b.approved), F(0))
        for c in range(profile.m)
    ]
    table = {pair(x, y): split[x] + split[y]
             for x, y in combinations(range(profile.m), 2)}
    best = max(table.values())
    return frozenset(p for p, s in table.items() if s == best)


class TestPairScoreFamily:
    def test_plain_sum_on_spectrum(self, spectrum):
        out = rules.alpha_av(spectrum.tally(), 0)
        assert out.pair_set == pairs((A, B))
        assert out.score_table[pair(A, B)] == 22
        assert out.score_table[pair(A, C)] == 20
        assert out.score_table[pair(A, D)] == 17

    def test_half_discount_on_spectrum(self, spectrum):
        out = rules.alpha_av(spectrum.tally(), F(1, 2))
        assert out.pair_set == pairs((A, C))
        assert [out.score_table[pair(A, y)] for y in (B, C, D)] == [17, 18, 17]

    def test_full_discount_on_spectrum(self, spectrum):
        out = rules.alpha_av(spectrum.tally(), 1)
        assert out.pair_set == pairs((A, D))
        # the score of {a,b} is 12+10-10 = 12: every a-or-b approver counted once
        assert [out.score_table[pair(A, y)] for y in (B, C, D)] == [12, 16, 17]

    def test_double_discount_on_spectrum(self, spectrum):
        out = rules.alpha_av(spectrum.tally(), 2)
        assert out.pair_set == oracle_alpha_av(spectrum, F(2))
        assert out.score_table[pair(A, B)] == 2

    def test_table_covers_all_pairs(self, spectrum):
        assert len(rules.alpha_av(spectrum.tally(), 0).score_table) == 6

    def test_rejects_single_candidate(self):
        one = ApprovalProfile(1, [ApprovalBallot({0})])
        for rule in rules.RULES:
            with pytest.raises(InputError, match="at least two candidates"):
                evaluate(one, RuleSpec.named(rule.name))

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 8), st.integers(1, 4)))
    def test_matches_oracle(self, profile, alpha):
        assert rules.alpha_av(profile.tally(), alpha).pair_set == oracle_alpha_av(profile, alpha)


class TestSequentialFamily:
    def test_spectrum_matches_joint_versions(self, spectrum):
        # unique approval winner, so sequential equals joint here
        assert rules.alpha_seq_av(spectrum.tally(), F(1, 2)).pair_set == pairs((A, C))
        assert rules.alpha_seq_av(spectrum.tally(), 1).pair_set == pairs((A, D))
        assert rules.alpha_seq_av(spectrum.tally(), 0).pair_set == pairs((A, B))

    def test_table_carries_full_pair_scores(self, spectrum):
        out = rules.alpha_seq_av(spectrum.tally(), F(1, 2))
        assert out.score_table[pair(A, C)] == 18
        assert out.first_stage == (A,)

    def test_alpha_outside_unit_interval_rejected(self, spectrum):
        with pytest.raises(InputError):
            rules.alpha_seq_av(spectrum.tally(), 2)

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 4), st.integers(4, 4)))
    def test_matches_oracle(self, profile, alpha):
        out = rules.alpha_seq_av(profile.tally(), alpha)
        assert out.pair_set == oracle_seq(profile, lambda x1: alpha)

    @given(approval_profiles(fractional=True))
    def test_zero_discount_equals_plain_pair_rule(self, profile):
        assert (
            rules.alpha_seq_av(profile.tally(), 0).pair_set
            == rules.alpha_av(profile.tally(), 0).pair_set
        )

    @given(approval_profiles(fractional=True))
    def test_every_pair_contains_an_approval_winner(self, profile):
        winners = profile.tally().approval_winners()
        for spec in (SPAV, SCCAV, SPHR, ENEPHR):
            for p in evaluate(profile, spec).pairs:
                assert p.members() & winners


class TestQuotaRule:
    def test_droop_quota_on_spectrum(self, spectrum):
        out = rules.enestrom_phragmen(spectrum.tally(), beta=F(1, 3))
        assert out.pair_set == pairs((A, C))
        assert out.branch_alphas == {A: F(17, 36)}

    def test_hare_quota_on_spectrum(self, spectrum):
        out = rules.enestrom_phragmen(spectrum.tally(), beta=F(1, 2))
        assert out.pair_set == pairs((A, C))
        assert out.branch_alphas == {A: F(17, 24)}
        assert out.score_table[pair(A, C)] == F(103, 6)

    def test_zero_quota_means_no_discount(self, spectrum):
        assert (
            rules.enestrom_phragmen(spectrum.tally(), quota=0).pair_set
            == rules.alpha_seq_av(spectrum.tally(), 0).pair_set
        )

    def test_quota_above_total_rejected(self, spectrum):
        with pytest.raises(InputError):
            rules.enestrom_phragmen(spectrum.tally(), quota=18)

    @given(approval_profiles(fractional=True))
    def test_saturated_quota_equals_full_discount(self, profile):
        top = max(profile.score_vector())
        quota = min(top, profile.total_weight)
        out = rules.enestrom_phragmen(profile.tally(), quota=quota)
        assert out.pair_set == rules.alpha_seq_av(profile.tally(), 1).pair_set

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 3), st.integers(3, 3)))
    def test_matches_oracle(self, profile, beta):
        quota = beta * profile.total_weight
        out = rules.enestrom_phragmen(profile.tally(), beta=beta)
        scores = [brute_score(profile, c) for c in range(profile.m)]

        def branch_alpha(x1):
            return F(1) if scores[x1] == 0 else min(F(1), quota / scores[x1])

        assert out.pair_set == oracle_seq(profile, branch_alpha)


class TestLoadMinimizer:
    def test_spectrum_loads(self, spectrum):
        out = rules.seq_phragmen(spectrum.tally())
        assert out.pair_set == pairs((A, C))
        assert out.objective_sense == "min"
        assert out.score_table[pair(A, B)] == F(22, 120)
        assert out.score_table[pair(A, C)] == F(16, 96)
        assert out.score_table[pair(A, D)] == F(1, 5)

    def test_two_identical_ballots(self):
        profile = parse_profile("candidates: a b\n2 * a b\n")
        out = rules.seq_phragmen(profile.tally())
        assert set(out.score_table.values()) == {F(1)}

    def test_all_empty_profile_degenerates_to_all_pairs(self):
        profile = ApprovalProfile(3, [ApprovalBallot(set(), 2)])
        assert rules.seq_phragmen(profile.tally()).pair_set == frozenset(rules.all_pairs(profile.m))

    def test_zero_score_candidates_excluded(self):
        profile = parse_profile("candidates: a b c\n2 * a\n1 * a b\n")
        out = rules.seq_phragmen(profile.tally())
        assert out.pair_set == pairs((A, B))
        assert pair(A, C) not in out.score_table

    @given(approval_profiles(fractional=True))
    def test_matches_oracle(self, profile):
        assert rules.seq_phragmen(profile.tally()).pair_set == oracle_seq_phragmen(profile)


class TestSplitScores:
    def test_spectrum_split_values(self, spectrum):
        out = rules.sav(spectrum.tally())
        assert out.candidate_scores == {A: F(19, 3), B: F(13, 3), C: F(10, 3), D: F(3)}
        assert out.pair_set == pairs((A, B))
        assert out.score_table[pair(A, B)] == F(32, 3)
        assert out.score_table[pair(A, C)] == F(29, 3)
        assert out.score_table[pair(A, D)] == F(28, 3)

    def test_single_ballot(self):
        profile = parse_profile("candidates: a b\n1 * a b\n")
        out = rules.sav(profile.tally())
        assert out.candidate_scores == {0: F(1, 2), 1: F(1, 2)}
        assert out.pair_set == pairs((0, 1))

    @given(approval_profiles(fractional=True))
    def test_matches_oracle(self, profile):
        assert rules.sav(profile.tally()).pair_set == oracle_sav(profile)


class TestAllPairsRule:
    def test_pair_counts(self):
        four = ApprovalProfile(4, [ApprovalBallot({0})])
        two = ApprovalProfile(2, [ApprovalBallot({0})])
        assert len(rules.triv(four.tally()).pairs) == 6
        assert len(rules.triv(two.tally()).pairs) == 1

    @given(approval_profiles(), approval_profiles())
    def test_ignores_ballots(self, p1, p2):
        if p1.m == p2.m:
            assert rules.triv(p1.tally()).pair_set == rules.triv(p2.tally()).pair_set


class TestCoverageWithTieBreak:
    def test_unique_coverage_pair_unchanged(self, spectrum):
        assert (
            rules.ccav_plus(spectrum.tally()).pair_set
            == rules.alpha_av(spectrum.tally(), 1).pair_set
            == pairs((A, D))
        )

    def test_tie_broken_by_plain_sum(self):
        profile = parse_profile("candidates: a b c\n1 * a\n1 * b\n1 * c\n1 * a b\n")
        coverage = rules.alpha_av(profile.tally(), 1)
        assert coverage.pair_set == pairs((A, B), (A, C), (B, C))
        assert rules.ccav_plus(profile.tally()).pair_set == pairs((A, B))

    @given(approval_profiles(fractional=True))
    def test_refines_the_coverage_rule(self, profile):
        kept = rules.ccav_plus(profile.tally()).pair_set
        coverage = rules.alpha_av(profile.tally(), 1)
        assert kept <= coverage.pair_set
        plain = rules.alpha_av(profile.tally(), 0).score_table
        best = max(plain[p] for p in coverage.pair_set)
        assert kept == {p for p in coverage.pair_set if plain[p] == best}


class TestDispatch:
    def test_named_aliases(self, spectrum):
        for name, direct in [
            ("mav", rules.alpha_av(spectrum.tally(), 0)),
            ("pav", rules.alpha_av(spectrum.tally(), F(1, 2))),
            ("ccav", rules.alpha_av(spectrum.tally(), 1)),
            ("2av", rules.alpha_av(spectrum.tally(), 2)),
            ("spav", rules.alpha_seq_av(spectrum.tally(), F(1, 2))),
            ("sccav", rules.alpha_seq_av(spectrum.tally(), 1)),
            ("sphr", rules.seq_phragmen(spectrum.tally())),
            ("sav", rules.sav(spectrum.tally())),
            ("triv", rules.triv(spectrum.tally())),
            ("ccav+", rules.ccav_plus(spectrum.tally())),
        ]:
            via_spec = evaluate(spectrum, RuleSpec.named(name))
            assert via_spec.pair_set == direct.pair_set

    def test_parameterized_names(self, spectrum):
        assert (
            evaluate(spectrum, RuleSpec.named("alpha-av:1/2")).pair_set
            == rules.alpha_av(spectrum.tally(), F(1, 2)).pair_set
        )
        assert (
            evaluate(spectrum, RuleSpec.named("enephr")).pair_set == pairs((A, C))
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError):
            RuleSpec.named("borda")

    def test_spec_validation(self):
        with pytest.raises(InputError):
            RuleSpec("alpha-seq", alpha=F(3, 2))
        with pytest.raises(InputError):
            RuleSpec("enestrom-phragmen")
        with pytest.raises(InputError):
            RuleSpec("enestrom-phragmen", beta=F(3, 2))

    def test_direct_calls_check_their_parameters(self, spectrum):
        # a spec checks its parameters once; the rule functions called
        # without one still check theirs
        for call in (lambda t: rules.alpha_av(t, -1), lambda t: rules.alpha_seq_av(t, 2),
                     lambda t: rules.enestrom_phragmen(t, quota=1, beta=F(1, 3)),
                     lambda t: rules.enestrom_phragmen(t, beta=F(3, 2))):
            with pytest.raises(InputError):
                call(spectrum.tally())

    def test_a_copied_spec_hashes_as_a_new_one(self):
        # a spec is rebuilt when pickled: a string's hash is per process
        for name in ("mav", "alpha-seq:1/3", "enephr", "ccav+"):
            spec = RuleSpec.named(name)
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == spec and hash(copy) == hash(spec)
            assert {spec: name}[copy] == name


class TestRuleSymmetries:
    ALL_SPECS = (MAV, PAV, CCAV, TWO_AV, SPAV, SCCAV, SPHR, ENEPHR, SAV, TRIV, CCAV_PLUS)

    @given(approval_profiles(), st.integers(2, 5))
    def test_homogeneity_of_pair_sets(self, profile, k):
        scaled = profile.scaled(k)
        for spec in self.ALL_SPECS:
            assert evaluate(profile, spec).pair_set == evaluate(scaled, spec).pair_set

    @given(approval_profiles(fractional=True), st.data())
    def test_neutrality(self, profile, data):
        perm = data.draw(st.permutations(range(profile.m)))
        relabeled = profile.relabel(perm)
        inv = {perm[i]: i for i in range(profile.m)}
        for spec in self.ALL_SPECS:
            mapped = {
                CandidatePair.of(inv[p.lo], inv[p.hi])
                for p in evaluate(profile, spec).pairs
            }
            assert evaluate(relabeled, spec).pair_set == mapped

    @given(approval_profiles(fractional=True), st.data())
    def test_anonymity(self, profile, data):
        order = data.draw(st.permutations(range(len(profile.ballots))))
        shuffled = ApprovalProfile(
            profile.m, [profile.ballots[i] for i in order], profile.labels
        )
        for spec in self.ALL_SPECS:
            assert evaluate(profile, spec).pair_set == evaluate(shuffled, spec).pair_set


class TestBreakpoints:
    def test_spectrum_crossings_exact(self, spectrum):
        assert rules.alpha_av_breakpoints(spectrum.tally()) == [F(1, 3), F(3, 4)]

    def test_crossings_verified_on_both_sides(self, spectrum):
        eps = F(1, 1000)
        for bp in rules.alpha_av_breakpoints(spectrum.tally()):
            below = rules.alpha_av(spectrum.tally(), bp - eps).pair_set
            at = rules.alpha_av(spectrum.tally(), bp).pair_set
            above = rules.alpha_av(spectrum.tally(), bp + eps).pair_set
            assert below != above
            assert at == below | above

    @given(approval_profiles(fractional=True))
    def test_argmax_constant_between_crossings(self, profile):
        points = [F(0)] + rules.alpha_av_breakpoints(profile.tally()) + [F(1)]
        for lo, hi in zip(points, points[1:]):
            third = (hi - lo) / 3
            left = rules.alpha_av(profile.tally(), lo + third).pair_set
            right = rules.alpha_av(profile.tally(), hi - third).pair_set
            assert left == right

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 12), st.integers(12, 12)))
    def test_scores_affine_in_alpha(self, profile, alpha):
        at0 = rules.alpha_av(profile.tally(), 0).score_table
        at1 = rules.alpha_av(profile.tally(), 1).score_table
        now = rules.alpha_av(profile.tally(), alpha).score_table
        for p in now:
            assert now[p] == at0[p] + alpha * (at1[p] - at0[p])
