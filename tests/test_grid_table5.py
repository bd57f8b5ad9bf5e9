"""Rule/axiom grid: checked cells hold on 500 seeded random profiles under
exhaustive transformation search; every other cell exhibits a verified
counterexample. Joint compatibility spot-checks run the compatible rule
pairs on shared profile batches."""

import importlib.util
import random
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from avrunoff import axioms, spatial, witnesses
from avrunoff.axioms import (
    GRID_AXIOMS,
    GRID_EXPECTED,
    GRID_RULES,
    MONOTONICITY,
    PARETO,
    STRATEGY_PROOFNESS,
    WEAK_CLONE_PROOFNESS,
    admissible_for_cell,
    check_axiom,
    random_ranked_profile,
    run_grid_cell,
)
from avrunoff.rules import CCAV_PLUS, TRIV, TWO_AV
from test_witnesses import CLONE_TWO_CANDIDATE_WITNESS, pareto_quota_witness

# the acceptance module runs the canonical 500-profile sweep; this file
# re-checks the same cells on fresh seeds at a lighter scale
N_PROFILES = 150
BASE_SEED = 20250


def _cell_seed(rule_name: str, axiom: str) -> int:
    return BASE_SEED + 1000 * GRID_AXIOMS.index(axiom) + zlib.crc32(rule_name.encode()) % 997


CHECKED = sorted(GRID_EXPECTED)
BLANK = sorted(
    (name, axiom)
    for name, _ in GRID_RULES
    for axiom in GRID_AXIOMS
    if (name, axiom) not in GRID_EXPECTED
)


@pytest.mark.parametrize("rule_name,axiom", CHECKED, ids=lambda v: str(v))
def test_checked_cell_clean_on_random_profiles(rule_name, axiom):
    spec = dict(GRID_RULES)[rule_name]
    report = run_grid_cell(
        rule_name, spec, axiom, N_PROFILES, seed=_cell_seed(rule_name, axiom)
    )
    assert report.profiles_checked == N_PROFILES
    assert not report.violations, report.violations[:1]


@pytest.mark.parametrize("rule_name,axiom", BLANK, ids=lambda v: str(v))
def test_blank_cell_has_verified_counterexample(rule_name, axiom):
    violation = witnesses.stored_grid_counterexample(rule_name, axiom)
    assert violation is not None
    assert violation.verify()
    assert violation.axiom == axiom


def test_grid_script_prints_the_expected_table():
    script = Path(__file__).resolve().parent.parent / "scripts" / "axiom_grid.py"
    result = subprocess.run([sys.executable, str(script), "--profiles", "50"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("rule "))
    table = {}
    for line in lines[header + 1:header + 1 + len(GRID_RULES)]:
        name, *marks = line.split()
        table.update(((name, axiom), mark) for axiom, mark in zip(GRID_AXIOMS, marks))
    assert table == {
        (name, axiom): "yes" if (name, axiom) in GRID_EXPECTED else "no"
        for name, _ in GRID_RULES for axiom in GRID_AXIOMS
    }


def test_election_grid_script_prints_every_cell_the_same_each_run(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "election_grid.py"
    loader = importlib.util.spec_from_file_location("election_grid", path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    # the script's profile, smaller
    config = script.PROFILE._replace(n_voters=40, n_candidates=6)
    runs = []
    for _ in range(2):
        script.run_grid(spatial.sample_profile(config))
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    cells = runs[0].out.splitlines()
    assert [line.split()[:3] for line in cells] == [
        [name, "/", axiom] for name, _ in GRID_RULES for axiom in GRID_AXIOMS]
    assert {line.split()[3] for line in cells} <= {"none", "violation", "vacuous"}
    times = runs[0].err.splitlines()
    assert len(times) == len(cells) + 1 and times[-1].startswith("grid ")


class TestJointCompatibility:
    """The four compatible pairs of properties, checked jointly per profile."""

    def _sweep(self, spec, axioms_to_check, n=250, seed=1, admissible=None):
        rng = random.Random(BASE_SEED + seed)
        checked = 0
        while checked < n:
            profile = random_ranked_profile(rng)
            if admissible and not admissible(profile):
                continue
            checked += 1
            for axiom in axioms_to_check:
                out = check_axiom(profile, spec, axiom)
                assert out.status in ("none", "vacuous"), (
                    axiom, profile, out.violation,
                )

    def test_plain_approval_is_efficient_and_monotone(self):
        self._sweep(dict(GRID_RULES)["mav"], (PARETO, MONOTONICITY), seed=2)

    def test_all_pairs_rule_is_strategyproof_and_monotone(self):
        self._sweep(TRIV, (STRATEGY_PROOFNESS, MONOTONICITY), seed=3)

    def test_coverage_with_tiebreak_is_efficient_and_weakly_cloneproof(self):
        self._sweep(
            CCAV_PLUS,
            (PARETO, WEAK_CLONE_PROOFNESS),
            seed=4,
            admissible=axioms.in_weak_clone_domain,
        )

    def test_double_discount_rule_is_cloneproof_both_ways(self):
        # outside the weak domain the zero-score degeneracy admits clone
        # pairs even here (see the stored degenerate profile), so both
        # checks share the weak-domain restriction
        self._sweep(
            TWO_AV,
            (axioms.CLONE_PROOFNESS, WEAK_CLONE_PROOFNESS),
            seed=5,
            admissible=axioms.in_weak_clone_domain,
        )


class TestAdmissibilityFilters:
    def test_quota_rule_efficiency_needs_the_quota_regime(self):
        # below the regime the quota rule degrades to the coverage rule and
        # the stored witness applies
        witness = pareto_quota_witness(Fraction(1, 3))
        assert not admissible_for_cell(witness, "enephr", PARETO)
        assert axioms.pareto_violations(witness, dict(GRID_RULES)["enephr"])

    def test_weak_clone_cells_need_the_weak_domain(self):
        assert not admissible_for_cell(
            CLONE_TWO_CANDIDATE_WITNESS, "ccav", WEAK_CLONE_PROOFNESS
        )
        assert admissible_for_cell(
            witnesses.CLONE_TWO_BLOC_WITNESS, "ccav", WEAK_CLONE_PROOFNESS
        )
