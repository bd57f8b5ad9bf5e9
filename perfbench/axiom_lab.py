"""axiom-lab: ``check_axiom`` on every GRID_RULES x GRID_AXIOMS cell.

One operation is one exhaustive check of one cell on one profile. Each round
draws one fresh profile per shape in SHAPES, so every round has the same mix
of profile sizes and only their contents change with the seed. Profiles come
from ``random_ranked_profile`` and are redrawn until they have the shape and
are admissible for every cell, as the grid requires before it claims a cell.

Search cost grows steeply with the shape and, within a shape, with where the
first counterexample sits. With free sizes (m 3..5, n 1..8) the throughput
of one run moved by a fifth and the median latency by nearly half between
seeds, so the shapes stop at n = 6 (m = 5 only with two voters): many small
profiles per run average the contents out.
"""

from __future__ import annotations

import random

import reference as ref
from common import require, stable_seed

# (candidates, unit voters) of the profiles of one round
SHAPES = ((3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (5, 2))


def ref_ballots(profile):
    return [(b.ranking, b.approved, b.weight) for b in profile.ballots]


class AxiomLab:
    name = "axiom-lab"

    def __init__(self, seed: int):
        from avrunoff import axioms

        self.axioms = axioms
        self.seed = seed
        self.cells = [
            (name, spec, axiom)
            for name, spec in axioms.GRID_RULES
            for axiom in axioms.GRID_AXIOMS
        ]
        self.first_round = self._draw(0)

    def _profile(self, rng, m, n):
        ax = self.axioms
        while True:
            p = ax.random_ranked_profile(rng, max_m=m, max_n=8, min_m=m)
            if len(p.ballots) == n and all(
                ax.admissible_for_cell(p, name, axiom) for name, _, axiom in self.cells
            ):
                return p

    def round(self, k: int) -> list:
        """Fresh profile objects on every call, so no cached state carries
        over from an earlier pass."""
        if k == 0 and self.first_round:
            ops, self.first_round = self.first_round, None
            return ops
        return self._draw(k)

    def _draw(self, k: int) -> list:
        rng = random.Random(stable_seed(self.name, self.seed, k))
        ops = []
        for m, n in SHAPES:
            profile = self._profile(rng, m, n)
            ops += [(profile, name, spec, axiom) for name, spec, axiom in self.cells]
        return ops

    def run(self, op):
        profile, _, spec, axiom = op
        return self.axioms.check_axiom(profile, spec, axiom)

    def check(self, op, out) -> None:
        profile, name, _, axiom = op
        ax = self.axioms
        cell = (name, axiom)
        require(out.exhausted, cell, "search not exhausted")
        ballots = ref_ballots(profile)
        v = out.violation
        if v is None:
            require(out.status == "none", cell, out.status)
            if axiom == ax.PARETO:
                before = ref.runoff_winners(profile.m, ballots, name)
                require(not any(ref.dominates(ballots, a, b)
                                for b in before for a in range(profile.m) if a != b),
                        cell, "a dominated candidate wins")
            return
        require(cell not in ax.GRID_EXPECTED, cell, "violation in an expected cell")
        before = ref.runoff_winners(profile.m, ballots, name)
        require(v.winners_before == before, cell, "winners before", v.winners_before, before)
        if axiom == ax.PARETO:
            require(v.candidate in before and ref.dominates(ballots, v.partner, v.candidate),
                    cell, "not a Pareto violation")
            return
        after_ballots = ref_ballots(v.transformed)
        after = ref.runoff_winners(v.transformed.m, after_ballots, name)
        require(v.winners_after == after, cell, "winners after", v.winners_after, after)
        if axiom == ax.WEAK_CLONE_PROOFNESS:
            require(ref.in_weak_clone_domain(ballots), cell, "outside the weak domain")
            require(ref.is_clone_extension(profile.m, ballots, after_ballots, v.candidate),
                    cell, "not a cloning of", v.candidate)
            require(not ref.clone_conditions_hold(before, after, v.candidate, profile.m),
                    cell, "cloning changes no fate")
            return
        change = ref.unit_change(ballots, after_ballots)
        true = ballots[v.voter]
        require(change is not None and change[0] == true[:2], cell, "not a one-voter change")
        if axiom == ax.MONOTONICITY:
            require(ref.is_improvement(change[0], change[1], v.candidate), cell, "not an improvement")
            require(v.candidate in before and v.candidate not in after, cell, "winner kept")
            return
        require(axiom == ax.STRATEGY_PROOFNESS, cell, "unknown axiom")
        require(ref.manipulation_succeeds(v.note, true[0], true[1], before, after),
                cell, "deviation does not pay off")
