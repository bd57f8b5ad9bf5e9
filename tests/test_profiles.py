import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avrunoff.fileio import DebiasSpec, debias, parse_document, parse_profile
from avrunoff.profiles import (
    ApprovalBallot,
    ApprovalProfile,
    InputError,
    RankedBallot,
    RankedProfile,
    Tally,
    _with_weight,
    exact,
)
from avrunoff.rules import MAV, PAV, RuleSpec, evaluate
from avrunoff.runoff import avr
from conftest import approval_profiles, ranked_profiles, tally_values

A, B, C, D = 0, 1, 2, 3


def brute_score(profile, c):
    return sum((b.weight for b in profile.ballots if c in b.approved), Fraction(0))


class TestApprovalScores:
    def test_scores_on_spectrum(self, spectrum):
        assert spectrum.approval_score(A) == 12
        assert spectrum.approval_score(D) == 5
        assert [spectrum.approval_score(c) for c in range(4)] == [12, 10, 8, 5]

    def test_unapproved_candidate_scores_zero(self):
        profile = ApprovalProfile(3, [ApprovalBallot({0}, 2), ApprovalBallot({1}, 1)])
        assert profile.approval_score(2) == 0

    def test_joint_scores(self, spectrum):
        assert spectrum.joint_score({A, B}) == 10
        assert spectrum.joint_score({A, D}) == 0
        assert spectrum.joint_score(set()) == spectrum.total_weight == 17

    def test_unknown_candidate_rejected(self, spectrum):
        with pytest.raises(InputError):
            spectrum.approval_score(9)
        with pytest.raises(InputError):
            spectrum.joint_score({0, 9})

    def test_approval_winners(self, spectrum):
        assert spectrum.tally().approval_winners() == {A}

    def test_symmetric_tie_gives_both_winners(self):
        profile = ApprovalProfile(2, [ApprovalBallot({0}), ApprovalBallot({1})])
        assert profile.tally().approval_winners() == {0, 1}

    def test_all_empty_ballots_tie_everyone(self):
        profile = ApprovalProfile(3, [ApprovalBallot(set(), 2)])
        assert profile.tally().approval_winners() == {0, 1, 2}

    @given(approval_profiles(fractional=True))
    def test_score_equals_singleton_joint(self, profile):
        for c in range(profile.m):
            assert profile.approval_score(c) == profile.joint_score({c})

    @given(approval_profiles(fractional=True), st.data())
    def test_joint_score_antitone(self, profile, data):
        small = data.draw(st.sets(st.integers(0, profile.m - 1), max_size=profile.m))
        extra = data.draw(st.sets(st.integers(0, profile.m - 1), max_size=profile.m))
        assert profile.joint_score(small) >= profile.joint_score(small | extra)

    @given(approval_profiles(fractional=True))
    def test_score_vector_matches_brute_force(self, profile):
        assert profile.score_vector() == [
            brute_score(profile, c) for c in range(profile.m)
        ]

    @given(approval_profiles(fractional=True))
    def test_joint_matrix_matches_pairwise_joint(self, profile):
        matrix = profile.joint_matrix()
        for x, y in combinations(range(profile.m), 2):
            assert matrix.get((x, y), Fraction(0)) == profile.joint_score({x, y})


class TestMajority:
    def test_pairwise_on_ranked_spectrum(self, spectrum_ranked):
        assert spectrum_ranked.majority_winners(A, B) == {B}
        assert spectrum_ranked.majority_winners(A, C) == {A}
        assert spectrum_ranked.majority_winners(A, D) == {A}

    def test_exact_tie_returns_both(self):
        profile = RankedProfile(2, [
            RankedBallot.from_threshold((0, 1), 1),
            RankedBallot.from_threshold((1, 0), 1),
        ])
        assert profile.majority_winners(0, 1) == {0, 1}

    def test_same_candidate_rejected(self, spectrum_ranked):
        with pytest.raises(InputError):
            spectrum_ranked.majority_winners(1, 1)

    @given(ranked_profiles(fractional=True))
    def test_margins_are_the_antisymmetric_ballot_sums(self, profile):
        margins, denom = profile._margins()
        for a, b in product(range(profile.m), repeat=2):
            assert margins[a][b] == -margins[b][a]
            expected = sum((bal.weight if bal.prefers(a, b) else -bal.weight
                            for bal in profile.ballots if a != b), Fraction(0))
            assert Fraction(margins[a][b], denom) == expected


def oracle_dominates(profile, a, b):
    """Pareto dominance by its definition, over the ballots: every
    positive-weight voter ranks a above b, and one approves a but not b."""
    live = [bal for bal in profile.ballots if bal.weight > 0]
    return all(bal.prefers(a, b) for bal in live) and any(
        a in bal.approved and b not in bal.approved for bal in live)


class TestDominates:
    def test_domination_with_empty_ballots(self):
        profile = parse_profile(
            "candidates: a b c\n1 * a b c |\n1 * a b | c\n1 * a | b c\n4 * | b c a\n"
        )
        assert profile.dominates(B, C)
        assert not profile.dominates(C, B)

    def test_opposed_rankings_block_domination(self):
        profile = parse_profile("candidates: a b\n1 * a b |\n1 * b a |\n")
        assert not profile.dominates(0, 1)

    @given(ranked_profiles())
    def test_domination_implies_majority_and_score(self, profile):
        V = profile.as_approval()
        for a, b in permutations(range(profile.m), 2):
            if profile.dominates(a, b):
                assert profile.majority_winners(a, b) == {a}
                assert V.approval_score(a) > V.approval_score(b)

    @given(ranked_profiles(fractional=True))
    def test_domination_matches_the_ballot_definition(self, profile):
        for a, b in permutations(range(profile.m), 2):
            assert profile.dominates(a, b) == oracle_dominates(profile, a, b)


def brute_condorcet_loser(profile):
    """Direct pairwise-matrix computation, independent of the library path."""
    m = profile.m
    wins = [[Fraction(0)] * m for _ in range(m)]
    for ballot in profile.ballots:
        for x, y in combinations(range(m), 2):
            if ballot.position(x) < ballot.position(y):
                wins[x][y] += ballot.weight
            else:
                wins[y][x] += ballot.weight
    for c in range(m):
        if all(wins[c][o] < wins[o][c] for o in range(m) if o != c):
            return c
    return None


class TestCondorcetLoser:
    def test_ranked_spectrum_loser_is_c(self, spectrum_ranked):
        # d beats c pairwise 9 to 8, so c (not d) loses to everyone
        assert spectrum_ranked.majority_winners(C, D) == {D}
        assert spectrum_ranked.condorcet_loser() == C
        assert brute_condorcet_loser(spectrum_ranked) == C

    def test_perfect_tie_has_no_loser(self):
        profile = RankedProfile(2, [
            RankedBallot.from_threshold((0, 1), 1),
            RankedBallot.from_threshold((1, 0), 1),
        ])
        assert profile.condorcet_loser() is None

    def test_single_ballot_last_place_loses(self):
        profile = RankedProfile(3, [RankedBallot.from_threshold((0, 1, 2), 1)])
        assert profile.condorcet_loser() == 2

    @given(ranked_profiles(max_m=4, max_n=5, unit_weights=True))
    def test_matches_brute_force(self, profile):
        assert profile.condorcet_loser() == brute_condorcet_loser(profile)

    def test_exhaustive_tiny_profiles(self):
        # every unit-weight profile with m=3, n<=2
        ballots = [
            RankedBallot.from_threshold(r, t)
            for r in permutations(range(3))
            for t in range(4)
        ]
        for one in ballots:
            profile = RankedProfile(3, [one])
            assert profile.condorcet_loser() == brute_condorcet_loser(profile)
        for pair in product(ballots[::3], ballots[::3]):
            profile = RankedProfile(3, list(pair))
            assert profile.condorcet_loser() == brute_condorcet_loser(profile)


class TestValidate:
    def test_consistent_profile_is_clean(self, spectrum_ranked):
        assert all(b.is_consistent() for b in spectrum_ranked.ballots)

    def test_duplicate_in_ranking_flagged(self):
        with pytest.raises(InputError, match="permutation"):
            RankedProfile(2, [RankedBallot((0, 0), {0}, 1)])

    def test_inconsistent_ballot_allowed_when_not_strict(self):
        ballot = RankedBallot((0, 1, 2), {1}, 1)  # approves the middle only
        profile = RankedProfile(3, [ballot])
        assert not profile.ballots[0].is_consistent()

    def test_ranking_must_cover_all_candidates(self):
        with pytest.raises(InputError, match="permutation"):
            RankedProfile(3, [RankedBallot((0, 1), {0}, 1)])

    @pytest.mark.parametrize("ranking", [(0, 0, 1), (0, 1, 3), (0, 1, 2, 3), (2, 1, -1)])
    def test_ranking_must_be_a_permutation(self, ranking):
        with pytest.raises(InputError, match="permutation"):
            RankedProfile(3, [RankedBallot((0, 1, 2), {0}), RankedBallot(ranking, {0})])

    def test_short_ranking_cannot_reach_a_majority_comparison(self):
        with pytest.raises(InputError):
            RankedProfile(3, [RankedBallot((0, 1), {0}, 1)]).majority_margin(0, 2)

    @pytest.mark.parametrize("approved", [{0, 5}, {-1}], ids=["above-m", "negative"])
    def test_out_of_range_approval_cannot_reach_a_rule(self, approved):
        with pytest.raises(InputError):
            evaluate(ApprovalProfile(2, [ApprovalBallot(approved, 1)]), MAV)



class TestReplaceBallot:
    BASE = RankedProfile(3, [RankedBallot((0, 1, 2), {0}, 2), RankedBallot((2, 1, 0), {2}, 1)])

    @pytest.mark.parametrize("new", [
        RankedBallot((0, 0, 1), {0}),
        RankedBallot((0, 1), {0}),
        RankedBallot((0, 1, 2), {3}),
    ], ids=["not-a-permutation", "short-ranking", "approved-id-above-m"])
    @pytest.mark.parametrize("index", [0, 1], ids=["split-group", "single-voter"])
    def test_deviating_ballot_must_fit(self, new, index):
        with pytest.raises(InputError):
            self.BASE.replace_ballot(index, new)

    @pytest.mark.parametrize("weight", [Fraction(3, 2), 0], ids=["fractional", "zero"])
    def test_group_must_hold_a_whole_voter(self, weight):
        profile = RankedProfile(3, [RankedBallot((0, 1, 2), {0}, weight)])
        with pytest.raises(InputError, match="integer group weights"):
            profile.replace_ballot(0, RankedBallot((1, 0, 2), {1}))

    def test_one_unit_moves_to_the_new_ballot(self):
        new = RankedBallot((1, 2, 0), {1, 2}, 5)
        assert self.BASE.replace_ballot(0, new) == RankedProfile(3, [
            RankedBallot((0, 1, 2), {0}, 1), RankedBallot((2, 1, 0), {2}, 1),
            RankedBallot((1, 2, 0), {1, 2}, 1)])
        assert self.BASE.replace_ballot(1, new) == RankedProfile(3, [
            RankedBallot((0, 1, 2), {0}, 2), RankedBallot((1, 2, 0), {1, 2}, 1)])


class TestMovedTally:
    # weights 3, 1, 2 and 0; approval sizes 1 and 2, so split is over 2
    BASE = RankedProfile(4, [
        RankedBallot((0, 1, 2, 3), {0}, 3),
        RankedBallot((1, 2, 0, 3), {1, 2}, 1),
        RankedBallot((3, 2, 1, 0), set(), 2),
        RankedBallot((2, 3, 1, 0), {2, 3}, 0),
    ])

    @pytest.mark.parametrize("index,approved,rescaled", [
        (0, {1, 2}, False),
        (0, set(), False),
        (2, {3}, False),
        (2, {0, 1}, False),
        (1, set(), False),
        (1, {1, 2}, False),
        (1, {0, 1, 2}, True),
        (0, {0, 1, 2, 3}, True),
    ], ids=["group-of-3-to-a-pair", "to-empty", "from-empty", "from-empty-to-a-pair",
            "last-voter-of-a-set-to-empty", "same-set", "new-size-3", "new-size-4"])
    def test_moved_is_the_tally_of_the_replaced_ballot(self, index, approved, rescaled):
        # split is rescaled only for a set size that does not divide its
        # denominator; every other count is the replaced profile's exactly
        old = self.BASE.ballots[index]
        base = self.BASE.tally()
        moved = base.moved(old.approved, frozenset(approved))
        expected = self.BASE.replace_ballot(index, RankedBallot((3, 1, 0, 2), approved)).tally()
        assert tally_values(moved) == tally_values(expected)
        assert (moved.denom, moved.total, moved.scores, moved.joint) == (
            expected.denom, expected.total, expected.scores, expected.joint)
        assert (moved.split_denom != base.split_denom) is rescaled

    @given(ranked_profiles(max_m=5, max_n=5), st.data())
    def test_any_move_of_one_voter(self, profile, data):
        i = data.draw(st.integers(0, len(profile.ballots) - 1))
        new = frozenset(data.draw(st.sets(st.integers(0, profile.m - 1))))
        ranking = data.draw(st.permutations(range(profile.m)))
        moved = profile.tally().moved(profile.ballots[i].approved, new)
        expected = profile.replace_ballot(i, RankedBallot(ranking, new)).tally()
        assert tally_values(moved) == tally_values(expected)


def oracle_int_weights(profile):
    """The group weights as integers over their least common denominator."""
    denom = math.lcm(*(b.weight.denominator for b in profile.ballots))
    return [b.weight.numerator * (denom // b.weight.denominator) for b in profile.ballots], denom


def oracle_margins(profile):
    """`_margins` counted pair by pair: one add per (distinct ranking, pair)."""
    ints, denom = oracle_int_weights(profile)
    merged = {}
    for b, w in zip(profile.ballots, ints):
        merged[b.ranking] = merged.get(b.ranking, 0) + w
    above = [[0] * profile.m for _ in range(profile.m)]
    for ranking, w in merged.items():
        for i, x in enumerate(ranking):
            row = above[x]
            for y in ranking[i + 1:]:
                row[y] += w
    return tuple(tuple(ab - ba for ab, ba in zip(row, col))
                 for row, col in zip(above, zip(*above))), denom


def oracle_tally(profile):
    """`tally()` counted pair by pair: one add per (distinct approval set, x, y)."""
    ints, denom = oracle_int_weights(profile)
    m = profile.m
    merged = {}
    for b, w in zip(profile.ballots, ints):
        merged[b.approved] = merged.get(b.approved, 0) + w
    joint = [[0] * m for _ in range(m)]
    split = [0] * m
    sizes = math.lcm(*(len(a) for a in merged if a))
    for approved, w in merged.items():
        if not (w and approved):
            continue
        for x in approved:
            for y in approved:
                joint[x][y] += w
            split[x] += w * (sizes // len(approved))
    return Tally(denom, sum(merged.values()), tuple(joint[c][c] for c in range(m)),
                 tuple(map(tuple, joint)), tuple(split), denom * sizes)


def random_ranked_profile(rng, m, n, weight):
    """n groups of random rankings over m candidates with random prefix
    approvals (empty ones among them), each weighted by `weight(rng)`."""
    ballots = []
    for _ in range(n):
        ranking = rng.sample(range(m), m)
        ballots.append(RankedBallot.from_threshold(ranking, rng.randint(0, m), weight(rng)))
    return RankedProfile(m, ballots)


class TestPackedCounting:
    """The packed margins and joint rows equal the pair-by-pair counts,
    tuple for tuple, denominators included."""

    @staticmethod
    def assert_counts(profile):
        assert profile._int_weights() == oracle_int_weights(profile)
        assert profile._margins() == oracle_margins(profile)
        assert profile.tally() == oracle_tally(profile)
        assert profile.as_approval().tally() == oracle_tally(profile)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_random_profiles(self, m):
        rng = random.Random(m)
        for n in (1, 2, 7, 40):
            self.assert_counts(random_ranked_profile(rng, m, n, lambda r: r.randint(1, 9)))

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_debiased_profiles_with_fractional_weights(self, m):
        rng = random.Random(100 + m)
        profile = random_ranked_profile(rng, m, 60, lambda r: r.randint(1, 9))
        reported = [b.ranking[0] if rng.random() < 0.8 else b.ranking[-1]
                    for b in profile.ballots]
        shares = {c: Fraction(rng.randint(1, 5)) for c in range(m)}
        total = sum(shares.values())
        targets = {c: s / total for c, s in shares.items()}
        debiased = debias(profile, DebiasSpec(tuple(reported), targets))
        assert oracle_int_weights(debiased)[1] > 1
        self.assert_counts(debiased)

    def test_zero_weights_and_empty_approval_sets(self):
        rng = random.Random(7)
        for m in (1, 3, 6):
            self.assert_counts(random_ranked_profile(rng, m, 30, lambda r: r.choice((0, 0, 1, 2))))
        empty = RankedProfile(3, [RankedBallot((2, 0, 1), (), 4), RankedBallot((0, 1, 2), (), 0)])
        self.assert_counts(empty)
        self.assert_counts(RankedProfile(2, [RankedBallot((1, 0), (1,), 0)]))

    def test_weights_past_machine_integers(self):
        rng = random.Random(11)
        for m in (2, 4, 8):
            self.assert_counts(random_ranked_profile(
                rng, m, 25, lambda r: r.randint(2 ** 80, 2 ** 90) * r.choice((1, Fraction(1, 3)))))

    def test_equal_weights_in_distinct_objects(self):
        # equal weights count once each, whether or not they share an object
        ballots = [RankedBallot((0, 1, 2), {0}, Fraction(2, 6)),
                   RankedBallot((1, 0, 2), {1}, "1/3"), RankedBallot((2, 1, 0), (), Fraction(1, 4))]
        self.assert_counts(RankedProfile(3, ballots + ballots[:1]))

    def test_approvals_off_the_ranking_prefix(self):
        # single-voter deviations that approve below an unapproved candidate
        rng = random.Random(5)
        for m in (3, 6, 10):
            profile = random_ranked_profile(rng, m, 12, lambda r: r.randint(1, 4))
            for _ in range(10):
                ranking = rng.sample(range(m), m)
                approved = rng.sample(range(m), rng.randint(0, m))
                profile = profile.replace_ballot(rng.randrange(len(profile.ballots)),
                                                 RankedBallot(ranking, approved))
            assert not all(b.is_consistent() for b in profile.ballots)
            self.assert_counts(profile)


class TestSymmetries:
    @given(ranked_profiles(), st.integers(1, 5), st.integers(1, 5))
    def test_homogeneity(self, profile, num, den):
        factor = Fraction(num, den)
        scaled = profile.scaled(factor)
        V, sV = profile.as_approval(), scaled.as_approval()
        for c in range(profile.m):
            assert sV.approval_score(c) == V.approval_score(c) * factor
        assert sV.tally().approval_winners() == V.tally().approval_winners()
        assert scaled.condorcet_loser() == profile.condorcet_loser()
        for a, b in combinations(range(profile.m), 2):
            assert scaled.majority_winners(a, b) == profile.majority_winners(a, b)
            assert scaled.dominates(a, b) == profile.dominates(a, b)

    @given(approval_profiles(fractional=True), st.data())
    def test_anonymity(self, profile, data):
        order = data.draw(st.permutations(range(len(profile.ballots))))
        shuffled = ApprovalProfile(
            profile.m, [profile.ballots[i] for i in order], profile.labels
        )
        assert shuffled.score_vector() == profile.score_vector()
        assert shuffled.tally().approval_winners() == profile.tally().approval_winners()

    @given(ranked_profiles(), st.data())
    def test_neutrality(self, profile, data):
        perm = data.draw(st.permutations(range(profile.m)))
        relabeled = profile.relabel(perm)
        inv = {perm[i]: i for i in range(profile.m)}
        for c in range(profile.m):
            assert (
                relabeled.as_approval().approval_score(inv[c])
                == profile.as_approval().approval_score(c)
            )
        loser = profile.condorcet_loser()
        expected = None if loser is None else inv[loser]
        assert relabeled.condorcet_loser() == expected


class TestReweighting:
    """`with_weights` and `scaled` reuse the checked rankings and check the
    new weights, as the public constructors do."""

    @pytest.mark.parametrize("bad", [-1, "-1/2", 0.5, "x", "1/0", "1.2.3"])
    @pytest.mark.parametrize("kind", ["approval", "ranked"])
    def test_with_weights_checks_every_weight(self, spectrum, spectrum_ranked, kind, bad):
        profile = spectrum if kind == "approval" else spectrum_ranked
        weights = [1] * (len(profile.ballots) - 1) + [bad]
        with pytest.raises(InputError):
            profile.with_weights(weights)

    @pytest.mark.parametrize("bad", [-1, "-1/2", 0.5, "x", "1/0"])
    def test_scaled_checks_its_factor(self, spectrum_ranked, bad):
        with pytest.raises(InputError):
            spectrum_ranked.scaled(bad)

    def test_exact_text_and_fractions_are_accepted(self, spectrum_ranked):
        n = len(spectrum_ranked.ballots)
        halved = spectrum_ranked.with_weights(["1/2"] * n)
        assert all(type(b.weight) is Fraction and b.weight == Fraction(1, 2)
                   for b in halved.ballots)
        assert halved == spectrum_ranked.with_weights([Fraction(1, 2)] * n)

    def test_cached_positions_survive_reweighting(self):
        ballot = RankedBallot((2, 0, 1), {2}, 1)
        assert ballot.prefers(0, 1)  # caches the positions
        profile = RankedProfile(3, [ballot, RankedBallot((1, 0, 2), {1}, 1)])
        reweighted = profile.with_weights(["3/2", 1])
        new = reweighted.ballots[0]
        assert (new.ranking, new.approved, new.weight) == ((2, 0, 1), {2}, Fraction(3, 2))
        assert new.prefers(2, 0) and new.prefers(0, 1) and not new.prefers(1, 2)
        assert [new.position(c) for c in range(3)] == [1, 2, 0]
        assert reweighted.majority_margin(2, 1) == Fraction(1, 2)
        assert reweighted.majority_margin(0, 1) == Fraction(1, 2)

    @given(ranked_profiles(), st.integers(0, 4), st.integers(1, 4))
    def test_reweighted_profile_counts_its_own_weights(self, profile, num, den):
        # read the source's counts first: they must not leak into the copy
        before, (margins, denom) = profile.tally(), profile._margins()
        factor = Fraction(num, den)
        scaled = profile.scaled(factor)
        rebuilt = RankedProfile(
            profile.m,
            [RankedBallot(b.ranking, b.approved, b.weight * factor) for b in profile.ballots],
            profile.labels,
        )
        assert scaled == rebuilt
        assert scaled.tally() == rebuilt.tally()
        assert scaled._margins() == rebuilt._margins()
        for x in range(profile.m):
            assert Fraction(scaled.tally().scores[x], scaled.tally().denom) == \
                Fraction(before.scores[x], before.denom) * factor
            for y in range(profile.m):
                assert Fraction(scaled._margins()[0][x][y], scaled._margins()[1]) == \
                    Fraction(margins[x][y], denom) * factor


class TestOneOfEach:
    """relabel and canonical are written once for both profile kinds."""

    @given(ranked_profiles(), st.data())
    def test_relabel_and_canonical_commute_with_the_projection(self, profile, data):
        perm = data.draw(st.permutations(range(profile.m)))
        V = profile.as_approval()
        assert type(V.relabel(perm)) is ApprovalProfile
        assert type(profile.relabel(perm)) is RankedProfile
        assert profile.relabel(perm).as_approval() == V.relabel(perm)
        assert profile.canonical().as_approval().canonical() == V.canonical()
        assert profile.relabel(range(profile.m)) == profile
        assert profile.relabel(perm).canonical() == profile.canonical().relabel(perm).canonical()

    def test_canonical_merges_sorts_and_drops_zero_groups(self):
        profile = RankedProfile(3, [
            RankedBallot((2, 0, 1), {2}, 1),
            RankedBallot((0, 1, 2), {0, 1}, 0),
            RankedBallot((0, 1, 2), {0}, 2),
            RankedBallot((2, 0, 1), {2}, "1/2"),
        ], ("x", "y", "z"))
        assert profile.canonical() == RankedProfile(3, [
            RankedBallot((0, 1, 2), {0}, 2),
            RankedBallot((2, 0, 1), {2}, "3/2"),
        ], ("x", "y", "z"))
        assert profile.as_approval().canonical() == ApprovalProfile(
            3, [ApprovalBallot({0}, 2), ApprovalBallot({2}, "3/2")], ("x", "y", "z"))

    def test_relabel_moves_labels_with_candidates(self):
        profile = ApprovalProfile(3, [ApprovalBallot({0, 2}, 1)], ("x", "y", "z"))
        relabeled = profile.relabel([2, 0, 1])
        assert relabeled.labels == ("z", "x", "y")
        assert relabeled.ballots == (ApprovalBallot({0, 1}, 1),)


class TestBallots:
    def test_weights_are_exact_rationals(self):
        ballot = ApprovalBallot({0}, "17/24")
        assert ballot.weight == Fraction(17, 24)

    def test_float_weights_rejected(self):
        with pytest.raises(InputError):
            ApprovalBallot({0}, 0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            ApprovalBallot({0}, -1)

    @pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "1e4300", "-1E-4300"])
    def test_exponent_past_the_digit_limit_is_rejected_unbuilt(self, text):
        # str prints no int of more than sys.get_int_max_str_digits() digits
        # (4300 by default), and 10**10_000_000 takes seconds to build
        with pytest.raises(InputError, match="bad weight"):
            exact(text, "weight")
        assert exact("-1e4299") == -10**4299 and exact("2.5E-3") == Fraction(1, 400)

    def test_threshold_constructor(self):
        ballot = RankedBallot.from_threshold((2, 0, 1), 2)
        assert ballot.approved == {2, 0}
        assert ballot.threshold == 2
        assert ballot.is_consistent()

    def test_zero_weight_groups_ignored_by_domination(self):
        profile = RankedProfile(2, [
            RankedBallot.from_threshold((0, 1), 1, 1),
            RankedBallot.from_threshold((1, 0), 2, 0),
        ])
        assert profile.dominates(0, 1)


BAD_WEIGHTS = [-1, "-1/2", 0.5, "x", "1/0", (1, 2)]
BALLOTS = [ApprovalBallot({0, 2}, "3/2"), RankedBallot((2, 0, 1), {2}, 4)]


class TestBallotDesign:
    """A ballot is an immutable tuple, and every way to make one checks it."""

    @pytest.mark.parametrize("ballot", BALLOTS, ids=["approval", "ranked"])
    def test_ballot_has_no_instance_dict(self, ballot):
        with pytest.raises(TypeError):
            vars(ballot)
        with pytest.raises(AttributeError):
            ballot.weight = Fraction(2)

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("ballot", BALLOTS, ids=["approval", "ranked"])
    def test_every_maker_rejects_a_bad_weight(self, ballot, bad):
        forged = _with_weight(ballot, bad)  # past the checks, as a corrupt stream would be
        makers = [lambda: ballot._replace(weight=bad),
                  lambda: type(ballot)._make((*ballot[:-1], bad)),
                  lambda: copy.copy(forged), lambda: copy.deepcopy(forged)]
        makers += [lambda p=p: pickle.loads(pickle.dumps(forged, p))
                   for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for make in makers:
            with pytest.raises(InputError):
                make()

    @pytest.mark.parametrize("ballot", BALLOTS, ids=["approval", "ranked"])
    def test_every_maker_keeps_a_valid_ballot(self, ballot):
        made = [type(ballot)._make(tuple(ballot)), copy.copy(ballot), copy.deepcopy(ballot)]
        made += [pickle.loads(pickle.dumps(ballot, p))
                 for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for b in made:
            assert type(b) is type(ballot) and b == ballot
        halved = ballot._replace(weight="1/2")
        assert type(halved) is type(ballot) and type(halved.weight) is Fraction
        assert halved == type(ballot)(*ballot[:-1], Fraction(1, 2))

    def test_repr_names_every_field(self):
        assert list(map(repr, BALLOTS)) == [
            "ApprovalBallot(approved=frozenset({0, 2}), weight=Fraction(3, 2))",
            "RankedBallot(ranking=(2, 0, 1), approved=frozenset({2}), weight=Fraction(4, 1))",
        ]

    @pytest.mark.parametrize("ballot", BALLOTS, ids=["approval", "ranked"])
    def test_hash_and_unpacking_are_the_tuples(self, ballot):
        assert hash(ballot) == hash(tuple(ballot))
        *_, weight = ballot
        assert weight == ballot.weight == ballot[-1]


RANKED = RankedProfile(3, [RankedBallot((0, 1, 2), {0}, 2),
                           RankedBallot((2, 1, 0), {2, 1}, Fraction(1, 2))])
APPROVAL = ApprovalProfile(2, [ApprovalBallot({0, 1}), ApprovalBallot((), 3)], ("x", "y"))


class TestRecordDesign:
    """Profiles and rule specs are plain immutable classes, and the records
    of the rules, the runoff and the parser are named tuples: each keeps the
    repr, equality, hash, immutability and pickling of a frozen dataclass."""

    def test_repr_strings(self):
        document = parse_document("candidates: a b\n2 * a | b @ a\n")
        assert list(map(repr, [RuleSpec.named("pav"), RuleSpec.named("enephr"), RANKED,
                               APPROVAL, evaluate(RANKED, PAV), avr(RANKED, MAV),
                               document])) == [
            "RuleSpec(kind='alpha-av', alpha=Fraction(1, 2), quota=None, beta=None)",
            "RuleSpec(kind='enestrom-phragmen', alpha=None, quota=None, beta=Fraction(1, 3))",
            "RankedProfile(m=3, ballots=(RankedBallot(ranking=(0, 1, 2), "
            "approved=frozenset({0}), weight=Fraction(2, 1)), RankedBallot(ranking=(2, 1, 0), "
            "approved=frozenset({1, 2}), weight=Fraction(1, 2))), labels=('a', 'b', 'c'))",
            "ApprovalProfile(m=2, ballots=(ApprovalBallot(approved=frozenset({0, 1}), "
            "weight=Fraction(1, 1)), ApprovalBallot(approved=frozenset(), "
            "weight=Fraction(3, 1))), labels=('x', 'y'))",
            "RuleOutcome(pairs=(CandidatePair(lo=0, hi=1), CandidatePair(lo=0, hi=2)), "
            "score_table={CandidatePair(lo=0, hi=1): Fraction(5, 2), CandidatePair(lo=0, hi=2): "
            "Fraction(5, 2), CandidatePair(lo=1, hi=2): Fraction(3, 4)}, objective_sense='max', "
            "first_stage=None, branch_alphas=None, candidate_scores=None)",
            "RunoffResult(winners=frozenset({0}), finalist_pairs=RuleOutcome(pairs=("
            "CandidatePair(lo=0, hi=1), CandidatePair(lo=0, hi=2)), score_table={"
            "CandidatePair(lo=0, hi=1): Fraction(5, 2), CandidatePair(lo=0, hi=2): "
            "Fraction(5, 2), CandidatePair(lo=1, hi=2): Fraction(1, 1)}, objective_sense='max', "
            "first_stage=None, branch_alphas=None, candidate_scores=None), "
            "per_pair_majority=mappingproxy({CandidatePair(lo=0, hi=1): frozenset({0}), "
            "CandidatePair(lo=0, hi=2): frozenset({0})}))",
            "ProfileDocument(profile=RankedProfile(m=2, ballots=(RankedBallot(ranking=(0, 1), "
            "approved=frozenset({0}), weight=Fraction(2, 1)),), labels=('a', 'b')), "
            "reported=(0,))",
        ]

    def test_equal_records_hash_equal(self):
        pairs = [(RuleSpec.named("pav"), RuleSpec("alpha-av", alpha="1/2")),
                 (RuleSpec.named("enephr"), RuleSpec("enestrom-phragmen", beta=Fraction(1, 3))),
                 (parse_profile("candidates: a b c\n2 * a | b c\n1/2 * c b | a\n"), RANKED)]
        for made, built in pairs:
            assert made == built and hash(made) == hash(built)
        # a record equals only one of its own class
        assert RANKED.as_approval() != RANKED != (RANKED.m, RANKED.ballots, RANKED.labels)
        assert RuleSpec.named("pav") != RuleSpec.named("mav")

    @pytest.mark.parametrize("record,field", [(RANKED, "m"), (APPROVAL, "labels"),
                                              (RuleSpec.named("pav"), "kind")])
    def test_a_field_cannot_be_set_or_deleted(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)

    @pytest.mark.parametrize("record", [RANKED, APPROVAL, RuleSpec.named("enephr")],
                             ids=["ranked", "approval", "spec"])
    def test_pickle_and_copy_rebuild_an_equal_record(self, record):
        avr(RANKED, MAV)  # fills the profile's cache, which is not copied
        made = [copy.copy(record), copy.deepcopy(record)]
        made += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for r in made:
            assert type(r) is type(record) and r == record and hash(r) == hash(record)
            assert "_cache" not in vars(r)
