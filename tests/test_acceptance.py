"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Exact-arithmetic criteria admit no tolerance at all;
the Monte-Carlo criterion uses the stated 0.05 band.
"""

import random
import time
import zlib
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from avrunoff import axioms, fileio, rules, spatial, witnesses
from avrunoff.axioms import GRID_AXIOMS, GRID_EXPECTED, GRID_RULES, run_grid_cell
from avrunoff.rules import (
    CCAV,
    ENEPHR,
    MAV,
    PAV,
    SAV,
    SCCAV,
    SPAV,
    SPHR,
    TRIV,
    CandidatePair,
    RuleSpec,
)
from avrunoff.runoff import avr
from test_witnesses import CLAIMS

F = Fraction
A, B, C, D = 0, 1, 2, 3


def pair(a, b):
    return CandidatePair.of(a, b)


@contextmanager
def criterion(number, title, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"criterion {number:2d}: PASS  {title}  ({elapsed:.2f}s)")


def test_criterion_01_score_table_reproduction(spectrum):
    with criterion(1, "pair score table reproduced exactly", 1.0):
        mav = rules.tally_outcome(spectrum.tally(), MAV)
        pav = rules.tally_outcome(spectrum.tally(), PAV)
        ccav = rules.tally_outcome(spectrum.tally(), CCAV)
        sphr = rules.tally_outcome(spectrum.tally(), SPHR)
        sav = rules.tally_outcome(spectrum.tally(), SAV)
        rows = (B, C, D)
        assert [mav.score_table[pair(A, y)] for y in rows] == [22, 20, 17]
        assert [pav.score_table[pair(A, y)] for y in rows] == [17, 18, 17]
        # {a,b} under the coverage objective counts each a-or-b approver
        # once: 12 + 10 - 10 = 12
        assert [ccav.score_table[pair(A, y)] for y in rows] == [12, 16, 17]
        assert [sphr.score_table[pair(A, y)] for y in rows] == [
            F(22, 120), F(16, 96), F(1, 5),
        ]
        # split scores: 19/3 + 13/3, 19/3 + 10/3, 19/3 + 3
        assert [sav.score_table[pair(A, y)] for y in rows] == [
            F(32, 3), F(29, 3), F(28, 3),
        ]
        # the sequential variants coincide here (unique approval winner)
        assert rules.tally_outcome(spectrum.tally(), SPAV).score_table[pair(A, C)] == 18
        assert rules.tally_outcome(spectrum.tally(), SCCAV).score_table[pair(A, D)] == 17
        # optima: plain {a,b}, half {a,c}, full {a,d}, load {a,c}, split {a,b}
        assert mav.pair_set == {pair(A, B)}
        assert pav.pair_set == {pair(A, C)}
        assert ccav.pair_set == {pair(A, D)}
        assert sphr.pair_set == {pair(A, C)} and sphr.objective_sense == "min"
        assert sav.pair_set == {pair(A, B)}


def test_criterion_02_quota_rule_examples(spectrum):
    with criterion(2, "quota rule at Droop and Hare quotas", 1.0):
        droop = rules.tally_outcome(spectrum.tally(), ENEPHR)
        assert droop.branch_alphas == {A: F(17, 36)}
        assert droop.pair_set == {pair(A, C)}
        hare = rules.tally_outcome(spectrum.tally(), RuleSpec("enestrom-phragmen", beta=F(1, 2)))
        assert hare.branch_alphas == {A: F(17, 24)}
        assert hare.score_table[pair(A, C)] == F(103, 6)
        assert hare.pair_set == {pair(A, C)}


def test_criterion_03_runoff_row(spectrum_ranked):
    with criterion(3, "runoff winners per rule on the ranked election", 1.0):
        row = {
            "mav": {B}, "sav": {B},
            "pav": {A}, "spav": {A}, "sphr": {A}, "enephr": {A},
            "ccav": {A}, "sccav": {A},
        }
        for name, expected in row.items():
            got = avr(spectrum_ranked, RuleSpec.named(name)).winners
            assert got == expected, (name, got)


def test_criterion_04_proof_witness_regressions():
    with criterion(4, "stored proof-witness claims replay", 10.0):
        for name, claim in CLAIMS:
            assert claim(), name


def test_criterion_05_axiom_grid():
    with criterion(5, "axiom grid: clean cells on 500 profiles, counterexamples elsewhere", 300.0):
        for name, spec in GRID_RULES:
            for axiom in GRID_AXIOMS:
                if (name, axiom) in GRID_EXPECTED:
                    report = run_grid_cell(
                        name, spec, axiom, 500,
                        seed=91000 + 37 * GRID_AXIOMS.index(axiom) + zlib.crc32(name.encode()) % 101,
                    )
                    assert report.profiles_checked == 500
                    assert not report.violations, (name, axiom, report.violations[:1])
                else:
                    violation = witnesses.stored_grid_counterexample(name, axiom)
                    assert violation is not None and violation.verify(), (name, axiom)


def test_criterion_06_all_pairs_characterization():
    with criterion(6, "all-pairs runoff elects everyone but the pairwise loser", 30.0):
        rng = random.Random(92000)
        for _ in range(1000):
            profile = axioms.random_ranked_profile(rng)
            loser = profile.condorcet_loser()
            expected = frozenset(range(profile.m)) - (
                {loser} if loser is not None else frozenset()
            )
            assert avr(profile, TRIV).winners == expected


def test_criterion_07_closed_form_positions():
    with criterion(7, "closed-form second-finalist position", 1.0):
        spots = [(0.2, 0.25, 1 / 12), (0.5, 0.25, 0.25), (1.0, 0.5, 0.5), (1.0, 0.1, 0.2)]
        for alpha, d, expected in spots:
            assert abs(spatial.optimal_x2_triangular(alpha, d) - expected) <= 1e-9
        for d in (0.1, 0.25, 0.33, 0.5):
            at_inner = spatial.optimal_x2_triangular(2 * d, d)
            assert abs(at_inner - d) <= 1e-12
            outer = 2 * d / (1 - d)
            if outer <= 1:
                assert abs(spatial.optimal_x2_triangular(outer, d) - 2 * d) <= 1e-12


def test_criterion_08_monte_carlo_agreement():
    with criterion(8, "sampled electorates track the closed form", 300.0):
        alphas = [F(i, 10) for i in range(1, 11)]
        ds = [0.1, 0.25, 0.33, 0.5]
        tri = spatial.SpatialConfig(distribution=spatial.TRIANGULAR,
                                    n_voters=20000, n_candidates=1000, seed=7)
        for row in spatial.sweep(tri, alphas, ds):
            assert abs(row.empirical - row.analytic) <= 0.05, row
        gauss = spatial.SpatialConfig(distribution=spatial.GAUSSIAN,
                                      n_voters=20000, n_candidates=1000, seed=7)
        rows = spatial.sweep(gauss, alphas, ds)
        by_d = {}
        for row in rows:
            by_d.setdefault(row.d, []).append(row.empirical)
        for d, curve in by_d.items():
            assert len(curve) == len(alphas)
            for lo, hi in zip(curve, curve[1:]):
                assert hi >= lo - 1e-12, (d, curve)


def test_criterion_09_alpha_sweep_breakpoints(spectrum):
    with criterion(9, "exact alpha crossings, verified on both sides", 1.0):
        breakpoints = rules.alpha_av_breakpoints(spectrum.tally())
        # solving 22 - 10a = 20 - 4a and 20 - 4a = 17 on the affine rows
        assert breakpoints == [F(1, 3), F(3, 4)]
        eps = F(1, 10000)

        def argmax(alpha):
            spec = RuleSpec("alpha-av", alpha=alpha)
            return rules.tally_outcome(spectrum.tally(), spec).pair_set

        assert argmax(F(1, 3) - eps) == {pair(A, B)}
        assert argmax(F(1, 3) + eps) == {pair(A, C)}
        assert argmax(F(3, 4) - eps) == {pair(A, C)}
        assert argmax(F(3, 4) + eps) == {pair(A, D)}


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "debias ratios exact; outputs byte-stable", 60.0):
        # a reported share of 35% against a 19.6% target scales by 14/25
        doc = fileio.parse_document(
            "candidates: j x\n35 * j | x @ j\n65 * x j | @ x\n"
        )
        targets = {0: F("0.196"), 1: F("0.654")}
        sample_share = F(35, 100)
        assert targets[0] / sample_share == F(14, 25) == F("0.56")
        out = fileio.debias(doc.profile, fileio.DebiasSpec(doc.reported, targets))
        assert out.total_weight == 100

        # the bundled survey drives every pipeline stage deterministically
        data_dir = Path(__file__).resolve().parent.parent / "data"
        survey_text = (data_dir / "synthetic_survey.avr").read_text()
        targets_text = (data_dir / "synthetic_targets.json").read_text()

        def run_pipeline():
            document = fileio.parse_document(survey_text)
            shares = fileio.load_target_shares(targets_text, document.profile.labels)
            balanced = fileio.debias(
                document.profile, fileio.DebiasSpec(document.reported, shares)
            )
            V = balanced.as_approval()
            chunks = [fileio.serialize_document(
                fileio.ProfileDocument(balanced, document.reported))]
            for name in ("mav", "pav", "ccav", "spav", "sccav", "sphr",
                         "enephr", "sav", "triv", "ccav+", "2av"):
                outcome = rules.evaluate(V, RuleSpec.named(name))
                winners = avr(balanced, RuleSpec.named(name)).winners
                chunks.append(f"{name}:{sorted(outcome.pairs)}:{sorted(winners)}")
            graph = fileio.jaccard_affinity(V)
            chunks.append(fileio.export_network(graph, F(1, 10), "dot"))
            chunks.append(fileio.export_network(graph, F(1, 10), "json"))
            chunks.append(",".join(str(b) for b in rules.alpha_av_breakpoints(V.tally())))
            config = spatial.SpatialConfig(n_voters=2000, n_candidates=101, seed=11)
            chunks.append(spatial.sweep_csv(
                spatial.sweep(config, [F(1, 4), F(3, 4)], [0.2, 0.4])))
            return "\n".join(chunks)

        first = run_pipeline()
        second = run_pipeline()
        assert first == second
