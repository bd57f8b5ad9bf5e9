import inspect
import pickle
import typing
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
    RuleOutcome,
    RuleSpec,
    evaluate,
    tally_outcome,
)
from conftest import approval_profiles

A, B, C, D = 0, 1, 2, 3
F = Fraction


def pair(a, b):
    return CandidatePair.of(a, b)


def pairs(*ps):
    return frozenset(pair(a, b) for a, b in ps)


def av(alpha):
    """The alpha-av rule at `alpha`."""
    return RuleSpec("alpha-av", alpha=alpha)


def seq(alpha):
    """The alpha-seq rule at `alpha`."""
    return RuleSpec("alpha-seq", alpha=alpha)


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
        out = tally_outcome(spectrum.tally(), MAV)
        assert out.pair_set == pairs((A, B))
        assert out.score_table[pair(A, B)] == 22
        assert out.score_table[pair(A, C)] == 20
        assert out.score_table[pair(A, D)] == 17

    def test_half_discount_on_spectrum(self, spectrum):
        out = tally_outcome(spectrum.tally(), PAV)
        assert out.pair_set == pairs((A, C))
        assert [out.score_table[pair(A, y)] for y in (B, C, D)] == [17, 18, 17]

    def test_full_discount_on_spectrum(self, spectrum):
        out = tally_outcome(spectrum.tally(), CCAV)
        assert out.pair_set == pairs((A, D))
        # the score of {a,b} is 12+10-10 = 12: every a-or-b approver counted once
        assert [out.score_table[pair(A, y)] for y in (B, C, D)] == [12, 16, 17]

    def test_double_discount_on_spectrum(self, spectrum):
        out = tally_outcome(spectrum.tally(), TWO_AV)
        assert out.pair_set == oracle_alpha_av(spectrum, F(2))
        assert out.score_table[pair(A, B)] == 2

    def test_table_covers_all_pairs(self, spectrum):
        assert len(tally_outcome(spectrum.tally(), MAV).score_table) == 6

    def test_rejects_single_candidate(self):
        one = ApprovalProfile(1, [ApprovalBallot({0})])
        for rule in rules.RULES:
            with pytest.raises(InputError, match="at least two candidates"):
                evaluate(one, RuleSpec.named(rule.name))
            # the one check is the tally entry's, for tallies no profile was built for
            with pytest.raises(InputError, match="^need at least two candidates$"):
                tally_outcome(one.tally(), RuleSpec.named(rule.name))

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 8), st.integers(1, 4)))
    def test_matches_oracle(self, profile, alpha):
        out = tally_outcome(profile.tally(), av(alpha))
        assert out.pair_set == oracle_alpha_av(profile, alpha)


class TestSequentialFamily:
    def test_spectrum_matches_joint_versions(self, spectrum):
        # unique approval winner, so sequential equals joint here
        assert tally_outcome(spectrum.tally(), SPAV).pair_set == pairs((A, C))
        assert tally_outcome(spectrum.tally(), SCCAV).pair_set == pairs((A, D))
        assert tally_outcome(spectrum.tally(), seq(0)).pair_set == pairs((A, B))

    def test_table_carries_full_pair_scores(self, spectrum):
        out = tally_outcome(spectrum.tally(), SPAV)
        assert out.score_table[pair(A, C)] == 18
        assert out.first_stage == (A,)

    def test_alpha_outside_unit_interval_rejected(self, spectrum):
        with pytest.raises(InputError):
            tally_outcome(spectrum.tally(), seq(2))

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 4), st.integers(4, 4)))
    def test_matches_oracle(self, profile, alpha):
        out = tally_outcome(profile.tally(), seq(alpha))
        assert out.pair_set == oracle_seq(profile, lambda x1: alpha)

    @given(approval_profiles(fractional=True))
    def test_zero_discount_equals_plain_pair_rule(self, profile):
        assert (
            tally_outcome(profile.tally(), seq(0)).pair_set
            == tally_outcome(profile.tally(), MAV).pair_set
        )

    @given(approval_profiles(fractional=True))
    def test_every_pair_contains_an_approval_winner(self, profile):
        winners = profile.tally().approval_winners()
        for spec in (SPAV, SCCAV, SPHR, ENEPHR):
            for p in evaluate(profile, spec).pairs:
                assert p.members() & winners


class TestQuotaRule:
    def test_droop_quota_on_spectrum(self, spectrum):
        out = tally_outcome(spectrum.tally(), ENEPHR)
        assert out.pair_set == pairs((A, C))
        assert out.branch_alphas == {A: F(17, 36)}

    def test_hare_quota_on_spectrum(self, spectrum):
        out = tally_outcome(spectrum.tally(), RuleSpec("enestrom-phragmen", beta=F(1, 2)))
        assert out.pair_set == pairs((A, C))
        assert out.branch_alphas == {A: F(17, 24)}
        assert out.score_table[pair(A, C)] == F(103, 6)

    def test_zero_quota_means_no_discount(self, spectrum):
        assert (
            tally_outcome(spectrum.tally(), RuleSpec("enestrom-phragmen", quota=0)).pair_set
            == tally_outcome(spectrum.tally(), seq(0)).pair_set
        )

    def test_quota_above_total_rejected(self, spectrum):
        with pytest.raises(InputError):
            tally_outcome(spectrum.tally(), RuleSpec("enestrom-phragmen", quota=18))

    @given(approval_profiles(fractional=True))
    def test_saturated_quota_equals_full_discount(self, profile):
        top = max(profile.score_vector())
        quota = min(top, profile.total_weight)
        out = tally_outcome(profile.tally(), RuleSpec("enestrom-phragmen", quota=quota))
        assert out.pair_set == tally_outcome(profile.tally(), SCCAV).pair_set

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 3), st.integers(3, 3)))
    def test_matches_oracle(self, profile, beta):
        quota = beta * profile.total_weight
        out = tally_outcome(profile.tally(), RuleSpec("enestrom-phragmen", beta=beta))
        scores = [brute_score(profile, c) for c in range(profile.m)]

        def branch_alpha(x1):
            return F(1) if scores[x1] == 0 else min(F(1), quota / scores[x1])

        assert out.pair_set == oracle_seq(profile, branch_alpha)


class TestLoadMinimizer:
    def test_spectrum_loads(self, spectrum):
        out = tally_outcome(spectrum.tally(), SPHR)
        assert out.pair_set == pairs((A, C))
        assert out.objective_sense == "min"
        assert out.score_table[pair(A, B)] == F(22, 120)
        assert out.score_table[pair(A, C)] == F(16, 96)
        assert out.score_table[pair(A, D)] == F(1, 5)

    def test_two_identical_ballots(self):
        profile = parse_profile("candidates: a b\n2 * a b\n")
        out = tally_outcome(profile.tally(), SPHR)
        assert set(out.score_table.values()) == {F(1)}

    def test_all_empty_profile_degenerates_to_all_pairs(self):
        profile = ApprovalProfile(3, [ApprovalBallot(set(), 2)])
        out = tally_outcome(profile.tally(), SPHR)
        assert out.pair_set == frozenset(rules.all_pairs(profile.m))

    def test_zero_score_candidates_excluded(self):
        profile = parse_profile("candidates: a b c\n2 * a\n1 * a b\n")
        out = tally_outcome(profile.tally(), SPHR)
        assert out.pair_set == pairs((A, B))
        assert pair(A, C) not in out.score_table

    @given(approval_profiles(fractional=True))
    def test_matches_oracle(self, profile):
        assert tally_outcome(profile.tally(), SPHR).pair_set == oracle_seq_phragmen(profile)


class TestSplitScores:
    def test_spectrum_split_values(self, spectrum):
        out = tally_outcome(spectrum.tally(), SAV)
        assert out.candidate_scores == {A: F(19, 3), B: F(13, 3), C: F(10, 3), D: F(3)}
        assert out.pair_set == pairs((A, B))
        assert out.score_table[pair(A, B)] == F(32, 3)
        assert out.score_table[pair(A, C)] == F(29, 3)
        assert out.score_table[pair(A, D)] == F(28, 3)

    def test_single_ballot(self):
        profile = parse_profile("candidates: a b\n1 * a b\n")
        out = tally_outcome(profile.tally(), SAV)
        assert out.candidate_scores == {0: F(1, 2), 1: F(1, 2)}
        assert out.pair_set == pairs((0, 1))

    @given(approval_profiles(fractional=True))
    def test_matches_oracle(self, profile):
        assert tally_outcome(profile.tally(), SAV).pair_set == oracle_sav(profile)


class TestAllPairsRule:
    def test_pair_counts(self):
        four = ApprovalProfile(4, [ApprovalBallot({0})])
        two = ApprovalProfile(2, [ApprovalBallot({0})])
        assert len(tally_outcome(four.tally(), TRIV).pairs) == 6
        assert len(tally_outcome(two.tally(), TRIV).pairs) == 1

    @given(approval_profiles(), approval_profiles())
    def test_ignores_ballots(self, p1, p2):
        if p1.m == p2.m:
            assert (tally_outcome(p1.tally(), TRIV).pair_set
                    == tally_outcome(p2.tally(), TRIV).pair_set)


class TestCoverageWithTieBreak:
    def test_unique_coverage_pair_unchanged(self, spectrum):
        assert (
            tally_outcome(spectrum.tally(), CCAV_PLUS).pair_set
            == tally_outcome(spectrum.tally(), CCAV).pair_set
            == pairs((A, D))
        )

    def test_tie_broken_by_plain_sum(self):
        profile = parse_profile("candidates: a b c\n1 * a\n1 * b\n1 * c\n1 * a b\n")
        coverage = tally_outcome(profile.tally(), CCAV)
        assert coverage.pair_set == pairs((A, B), (A, C), (B, C))
        assert tally_outcome(profile.tally(), CCAV_PLUS).pair_set == pairs((A, B))

    @given(approval_profiles(fractional=True))
    def test_refines_the_coverage_rule(self, profile):
        kept = tally_outcome(profile.tally(), CCAV_PLUS).pair_set
        coverage = tally_outcome(profile.tally(), CCAV)
        assert kept <= coverage.pair_set
        plain = tally_outcome(profile.tally(), MAV).score_table
        best = max(plain[p] for p in coverage.pair_set)
        assert kept == {p for p in coverage.pair_set if plain[p] == best}


class TestDispatch:
    def test_named_aliases(self, spectrum):
        for name, spec in [
            ("mav", av(0)),
            ("pav", av(F(1, 2))),
            ("ccav", av(1)),
            ("2av", av(2)),
            ("spav", seq(F(1, 2))),
            ("sccav", seq(1)),
            ("sphr", RuleSpec("seq-phragmen")),
            ("sav", RuleSpec("sav")),
            ("triv", RuleSpec("triv")),
            ("ccav+", RuleSpec("ccav-plus")),
        ]:
            via_name = evaluate(spectrum, RuleSpec.named(name))
            assert via_name.pair_set == tally_outcome(spectrum.tally(), spec).pair_set

    def test_parameterized_names(self, spectrum):
        assert (
            evaluate(spectrum, RuleSpec.named("alpha-av:1/2")).pair_set
            == tally_outcome(spectrum.tally(), av(F(1, 2))).pair_set
        )
        assert (
            evaluate(spectrum, RuleSpec.named("enephr")).pair_set == pairs((A, C))
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError):
            RuleSpec.named("borda")

    def test_spec_validation(self):
        # a spec checks its parameters once, when it is built
        for params in ({"kind": "alpha-seq", "alpha": F(3, 2)},
                       {"kind": "enestrom-phragmen"},
                       {"kind": "enestrom-phragmen", "beta": F(3, 2)}):
            with pytest.raises(InputError):
                RuleSpec(**params)

    def test_direct_calls_check_their_parameters(self, spectrum):
        # a rule runs on a tally only through tally_outcome and a spec, so a
        # bad parameter fails before the rule runs; a quota above the total
        # ballot weight can only be seen on the tally
        for call in (lambda t: tally_outcome(t, RuleSpec("alpha-av", alpha=-1)),
                     lambda t: tally_outcome(t, RuleSpec("alpha-seq", alpha=2)),
                     lambda t: tally_outcome(t, RuleSpec("enestrom-phragmen", quota=1,
                                                         beta=F(1, 3))),
                     lambda t: tally_outcome(t, RuleSpec("enestrom-phragmen",
                                                         beta=F(3, 2))),
                     lambda t: tally_outcome(t, RuleSpec("enestrom-phragmen",
                                                         quota=t.total + 1))):
            with pytest.raises(InputError):
                call(spectrum.tally())

    def test_a_rule_runs_only_through_its_spec(self):
        # the rule functions are private, and the one public callable that
        # runs a rule on a tally is tally_outcome (evaluate is it on a profile)
        assert all(rule.fn.__name__.startswith("_") for rule in rules.RULES)
        runners = {name for name, obj in vars(rules).items()
                   if not name.startswith("_") and inspect.isfunction(obj)
                   and typing.get_type_hints(obj).get("return") is RuleOutcome}
        assert runners == {"evaluate", "tally_outcome"}

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
            below = tally_outcome(spectrum.tally(), av(bp - eps)).pair_set
            at = tally_outcome(spectrum.tally(), av(bp)).pair_set
            above = tally_outcome(spectrum.tally(), av(bp + eps)).pair_set
            assert below != above
            assert at == below | above

    @given(approval_profiles(fractional=True))
    def test_argmax_constant_between_crossings(self, profile):
        points = [F(0)] + rules.alpha_av_breakpoints(profile.tally()) + [F(1)]
        for lo, hi in zip(points, points[1:]):
            third = (hi - lo) / 3
            left = tally_outcome(profile.tally(), av(lo + third)).pair_set
            right = tally_outcome(profile.tally(), av(hi - third)).pair_set
            assert left == right

    @given(approval_profiles(fractional=True),
           st.builds(F, st.integers(0, 12), st.integers(12, 12)))
    def test_scores_affine_in_alpha(self, profile, alpha):
        at0 = tally_outcome(profile.tally(), MAV).score_table
        at1 = tally_outcome(profile.tally(), CCAV).score_table
        now = tally_outcome(profile.tally(), av(alpha)).score_table
        for p in now:
            assert now[p] == at0[p] + alpha * (at1[p] - at0[p])
