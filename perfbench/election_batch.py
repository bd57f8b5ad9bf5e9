"""election-batch: parse, debias, then score and run off under every named rule.

One operation is one election given as profile text: ``fileio.parse_document``,
``fileio.debias`` when the groups carry reported votes, then ``runoff.avr``
under each named rule. A round is the fixed list SHAPES; the seed draws the
contents. Every round repeats the same elections, so each is checked against
the reference once and every later output must equal it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional

import reference as ref
from common import require, stable_seed

# approval radius of the spatial electorates: fixed, since the cost of the
# joint statistics grows with the square of the approval set sizes
RADIUS = 0.4
# how far the reported votes of the sample are off the population's. The
# targets are exact multiples of the sample shares: with independent random
# targets the debiased weights' common denominator, and with it the cost of
# the integer arithmetic, swung by half between seeds.
SKEWS = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
# (candidates, ballot groups, electorate, reported votes): few calls over
# many ballots, from a few hundred groups to 2,000. Three small elections,
# nine of middle size and three large ones: the median falls among the nine
# and the p90 among the three, so each is taken over many operations of
# like cost rather than on one election's, which moved with the seed.
SHAPES = (
    (4, 300, "spatial", True),
    (5, 400, "uniform", False),
    (6, 500, "spatial", True),
    (7, 1000, "spatial", True),
    (7, 1200, "uniform", True),
    (8, 900, "uniform", True),
    (8, 1000, "spatial", False),
    (8, 1100, "uniform", False),
    (8, 1200, "spatial", True),
    (9, 1000, "spatial", True),
    (9, 1100, "uniform", True),
    (9, 1200, "spatial", False),
    (10, 1500, "uniform", False),
    (10, 2000, "spatial", True),
    (10, 2000, "uniform", True),
)


class Election(NamedTuple):
    m: int
    groups: tuple  # (ranking, threshold, weight, reported or None)
    targets: Optional[dict]  # candidate -> target share, summing to 1
    text: str


def labels(m: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(m)]


def draw_groups(rng: random.Random, m: int, n: int, kind: str, reported: bool):
    """Single-peaked 1-D Euclidean voters around evenly spaced candidates,
    or uniformly random rankings with a uniform approval threshold."""
    pos = [-1 + 2 * i / (m - 1) for i in range(m)]
    groups = []
    for _ in range(n):
        if kind == "spatial":
            x = rng.triangular(-1, 1, 0)
            ranking = tuple(sorted(range(m), key=lambda c: (abs(pos[c] - x), pos[c])))
            t = sum(abs(p - x) < RADIUS for p in pos)
        else:
            ranking = tuple(rng.sample(range(m), m))
            t = rng.randint(0, m)
        # most groups report their favourite, some their second choice
        vote = (ranking[0] if rng.random() < 0.85 else ranking[1]) if reported else None
        groups.append((ranking, t, rng.randint(1, 9), vote))
    return tuple(groups)


def render(m: int, groups) -> str:
    lab = labels(m)
    lines = ["candidates: " + " ".join(lab)]
    for ranking, t, w, vote in groups:
        line = f"{w} * " + " ".join(lab[c] for c in ranking[:t]) + " | " + \
            " ".join(lab[c] for c in ranking[t:])
        lines.append(line + (f" @ {lab[vote]}" if vote is not None else ""))
    return "\n".join(lines) + "\n"


def draw_election(rng: random.Random, m: int, n: int, kind: str, reported: bool) -> Election:
    groups = draw_groups(rng, m, n, kind, reported)
    targets = None
    if reported:
        # the sample over- or under-represents each reported vote by a
        # factor from SKEWS; the targets undo it and sum to 1
        sample: dict[int, int] = {}
        for _, _, w, vote in groups:
            sample[vote] = sample.get(vote, 0) + w
        skew = {c: rng.choice(SKEWS) for c in sorted(sample)}
        mass = sum(sample[c] / skew[c] for c in sample)
        targets = {c: sample[c] / skew[c] / mass for c in sorted(sample)}
    return Election(m, groups, targets, render(m, groups))


class Expected(NamedTuple):
    weights: list
    total: Fraction
    rules: dict  # name -> (pairs, table, winners)


def expected(e: Election) -> Expected:
    weights = [Fraction(w) for _, _, w, _ in e.groups]
    total = sum(weights, ref.ZERO)
    if e.targets is not None:
        weights = ref.debias_weights(weights, [g[3] for g in e.groups], e.targets)
    ballots = [(r, frozenset(r[:t]), w) for (r, t, _, _), w in zip(e.groups, weights)]
    sc, maj = ref.Scores(e.m, ballots), ref.Majority(ballots)
    rules = {}
    for name in ref.RULES:
        pairs, table = ref.rule_outcome(sc, name)
        rules[name] = (pairs, table, frozenset(c for p in pairs for c in maj.winners(p)))
    return Expected(weights, total, rules)


class ElectionBatch:
    name = "election-batch"

    def __init__(self, seed: int):
        from avrunoff import fileio, rules, runoff

        self.fileio, self.runoff = fileio, runoff
        self.specs = {name: rules.RuleSpec.named(name) for name in ref.RULES}
        rng = random.Random(stable_seed(self.name, seed))
        self.elections = [draw_election(rng, *shape) for shape in SHAPES]
        self.expected = {}

    def round(self, k: int) -> list:
        return list(range(len(self.elections)))

    def run(self, i):
        e = self.elections[i]
        doc = self.fileio.parse_document(e.text)
        profile = doc.profile
        if e.targets is not None:
            profile = self.fileio.debias(profile, self.fileio.DebiasSpec(doc.reported, e.targets))
        return profile, {name: self.runoff.avr(profile, spec) for name, spec in self.specs.items()}

    def check(self, i, out) -> None:
        e = self.elections[i]
        if i not in self.expected:
            self.expected[i] = expected(e)
        exp = self.expected[i]
        profile, results = out
        require(profile.m == e.m and list(profile.labels) == labels(e.m), i, "candidates")
        require(len(profile.ballots) == len(e.groups), i, "group count")
        for b, (r, t, _, _), w in zip(profile.ballots, e.groups, exp.weights):
            require(b.ranking == r and b.approved == frozenset(r[:t]) and b.weight == w,
                    i, "ballot", r, t, w, b)
        if e.targets is not None:
            total = sum((b.weight for b in profile.ballots), ref.ZERO)
            require(total == exp.total, i, "debias changed the total weight")
            for c, share in e.targets.items():
                got = sum((b.weight for b, g in zip(profile.ballots, e.groups) if g[3] == c),
                          ref.ZERO) / total
                require(got == share, i, "reported share of", c, got, share)
        for name, (pairs, table, winners) in exp.rules.items():
            res = results[name]
            got_table = {(p.lo, p.hi): s for p, s in res.finalist_pairs.score_table.items()}
            require({(p.lo, p.hi) for p in res.finalist_pairs.pairs} == pairs, i, name, "pairs")
            require(got_table == table, i, name, "score table")
            require(res.winners == winners, i, name, "winners", res.winners, winners)
