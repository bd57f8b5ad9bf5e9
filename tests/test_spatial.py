import importlib.util
import math
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avrunoff import spatial
from avrunoff.profiles import InputError
from avrunoff.rules import CandidatePair, RuleSpec, tally_outcome

F = Fraction

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy<2 fallback

ROOT = Path(__file__).resolve().parent.parent


def stdlib_normal_ppf(u: np.ndarray) -> np.ndarray:
    """The oracle of `spatial._normal_ppf`: one `NormalDist().inv_cdf` per entry."""
    inv = NormalDist().inv_cdf
    return np.array([inv(x) for x in u])


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
    differ = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, (differ.size, differ[:5])


class TestDensity:
    def test_apex_and_endpoints(self):
        assert spatial.triangular_pdf(0.0) == 0.5
        assert spatial.triangular_pdf(1.0) == 0.0
        assert spatial.triangular_pdf(-1.0) == 0.0
        assert spatial.triangular_pdf(2.0) == 0.0

    def test_total_mass_by_quadrature(self):
        # the declared shape carries mass 1/2; the normalized version the
        # sampler uses therefore integrates to 1
        xs = np.linspace(-1, 1, 200001)
        total = trapezoid([spatial.triangular_pdf(x) for x in xs], xs)
        assert abs(total - 0.5) < 1e-9
        assert abs(2 * total - 1.0) < 1e-9


class TestClosedForm:
    @pytest.mark.parametrize(
        "alpha,d,expected",
        [
            (0.2, 0.25, 1 / 12),
            (0.5, 0.25, 0.25),
            (1.0, 0.5, 0.5),
            (1.0, 0.1, 0.2),
            (0.0, 0.3, 0.0),
        ],
    )
    def test_known_values(self, alpha, d, expected):
        assert abs(spatial.optimal_x2_triangular(alpha, d) - expected) < 1e-9

    @pytest.mark.parametrize("d", [0.1, 0.25, 0.33, 0.45])
    def test_branch_boundaries_are_continuous(self, d):
        inner = 2 * d
        assert abs(spatial.optimal_x2_triangular(inner, d) - d) < 1e-12
        eps = 1e-13
        assert abs(
            spatial.optimal_x2_triangular(inner - eps, d)
            - spatial.optimal_x2_triangular(inner + eps, d)
        ) < 1e-9
        outer = 2 * d / (1 - d)
        if outer <= 1:
            assert abs(spatial.optimal_x2_triangular(outer, d) - 2 * d) < 1e-12

    @pytest.mark.parametrize("d", [0.1, 0.2, 0.3])
    def test_saturates_at_twice_the_radius(self, d):
        start = 2 * d / (1 - d)
        for alpha in np.linspace(start + 1e-9, 1, 7):
            assert spatial.optimal_x2_triangular(float(alpha), d) == 2 * d

    @given(st.floats(0.01, 0.99), st.floats(0, 1), st.floats(0, 1))
    def test_nondecreasing_in_alpha(self, d, a1, a2):
        lo, hi = sorted((a1, a2))
        assert (
            spatial.optimal_x2_triangular(lo, d)
            <= spatial.optimal_x2_triangular(hi, d) + 1e-12
        )

    def test_domain_validation(self):
        with pytest.raises(InputError):
            spatial.optimal_x2_triangular(1.5, 0.2)
        with pytest.raises(InputError):
            spatial.optimal_x2_triangular(0.5, 1.0)

    @pytest.mark.parametrize("alpha,d", [(0.2, 0.25), (0.6, 0.25), (0.9, 0.3), (0.4, 0.1)])
    def test_quadrature_oracle_argmax(self, alpha, d):
        # expected second-seat score at position x, by numerical integration
        # of the triangular density, written out here with numpy
        def density(xs):
            ax = np.abs(xs)
            return np.where(ax <= 1.0, (1.0 - ax) / 2.0, 0.0)

        def nodes(lo, hi, steps=4000):
            return np.linspace(lo, hi, steps) if hi > lo else None

        def integral(xs):
            return 0.0 if xs is None else float(trapezoid(density(xs), xs))

        def intervals(x):
            return nodes(x - d, x + d), nodes(max(x - d, -d), min(x + d, d))

        def expected_score(x):
            own, overlap = map(integral, intervals(x))
            return own - alpha * overlap

        grid = np.linspace(0, 1, 1001)
        # the vectorised density is the package's, bit for bit, at the nodes
        # of every 50th grid point's two integrals
        for x in grid[::50]:
            for xs in intervals(x):
                if xs is not None:
                    assert density(xs).tolist() == [spatial.triangular_pdf(t) for t in xs]
        scores = [expected_score(x) for x in grid]
        best = float(grid[int(np.argmax(scores))])
        assert abs(best - spatial.optimal_x2_triangular(alpha, d)) < 2e-3


class TestSampling:
    def test_fixed_seed_reproduces_profile(self):
        config = spatial.SpatialConfig(n_voters=40, n_candidates=9, seed=3)
        assert spatial.sample_profile(config) == spatial.sample_profile(config)

    def test_voter_sample_matches_density(self):
        config = spatial.SpatialConfig(n_voters=20000, seed=5)
        voters = spatial.sample_voters(config)
        assert abs(float(np.mean(voters))) < 0.01
        assert np.all(voters >= -1) and np.all(voters <= 1)
        # P(X <= 0) = 1/2, P(X <= -0.5) = 1/8 for the triangular density
        assert abs(np.mean(voters <= 0) - 0.5) < 0.01
        assert abs(np.mean(voters <= -0.5) - 0.125) < 0.01

    def test_huge_radius_approves_everyone(self):
        config = spatial.SpatialConfig(d=5.0, n_voters=10, n_candidates=5, seed=1)
        profile = spatial.sample_profile(config)
        assert all(len(b.approved) == 5 for b in profile.ballots)

    def test_tiny_radius_approves_nobody(self):
        config = spatial.SpatialConfig(d=1e-9, n_voters=10, n_candidates=5, seed=1)
        profile = spatial.sample_profile(config)
        assert all(not b.approved for b in profile.ballots)

    def test_rankings_sorted_by_distance(self):
        config = spatial.SpatialConfig(n_voters=25, n_candidates=7, seed=11)
        profile = spatial.sample_profile(config)
        voters = spatial.sample_voters(config)
        grid = spatial.candidate_positions(config)
        for ballot, v in zip(profile.ballots, voters):
            dists = [abs(grid[c] - v) for c in ballot.ranking]
            assert dists == sorted(dists)

    def test_profile_is_valid(self):
        config = spatial.SpatialConfig(n_voters=15, n_candidates=6, seed=2)
        assert all(b.is_consistent() for b in spatial.sample_profile(config).ballots)

    def test_sampled_candidate_placement(self):
        config = spatial.SpatialConfig(
            n_voters=50, n_candidates=12, seed=4, candidate_placement="sampled"
        )
        grid = spatial.candidate_positions(config)
        assert list(grid) == sorted(grid)
        assert np.all(np.abs(grid) <= 1)
        again = spatial.candidate_positions(config)
        assert np.array_equal(grid, again)
        report = spatial.empirical_second_finalist(config, F(1, 2))
        assert report.second_position in set(float(x) for x in grid)


class TestNormalQuantiles:
    @pytest.mark.parametrize("n", [1, 7, 1000, 20000])
    def test_gaussian_voters_equal_the_stdlib_loop(self, monkeypatch, n):
        for seed in (0, 1, 7, 12345):
            config = spatial.SpatialConfig(distribution=spatial.GAUSSIAN, n_voters=n,
                                           seed=seed)
            with monkeypatch.context() as m:
                m.setattr(spatial, "_normal_ppf", stdlib_normal_ppf)
                expected = spatial.sample_voters(config)
            assert_same_bits(spatial.sample_voters(config), expected)

    def test_every_branch_and_its_edges_equal_the_stdlib_loop(self):
        # |q| = 0.425 at 0.075 and 0.925, q = 0 at 0.5, the clip ends, and
        # r = sqrt(-log p) = 5 at p = exp(-25), about 1.39e-11
        picked = np.array([0.075, 0.925, 0.5, 1e-12, 1.0 - 1e-12, 1e-11, 1.0 - 1e-11,
                           float(np.exp(-25.0)), 1.0 - float(np.exp(-25.0))])
        u = np.concatenate([picked, np.nextafter(picked, 0.0), np.nextafter(picked, 1.0)])
        # a dense sweep of both tails, where the log enters; `_normal_ppf`
        # takes its quantiles in ascending order, as `sample_voters` draws them
        tail = np.geomspace(1e-12, 0.075, 200_000)
        u = np.sort(np.concatenate([u, tail, 1.0 - tail]))
        q = u - 0.5
        r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)))
        central = np.abs(q) <= 0.425
        assert central.any() and (~central & (r <= 5.0)).any() and (r > 5.0).any()
        assert_same_bits(spatial._normal_ppf(u), stdlib_normal_ppf(u))


class TestTriangularQuantiles:
    def test_both_branches_and_their_edge_equal_a_per_entry_loop(self):
        # the branch edge 0.5 and its neighbours, the clip ends, and a dense
        # ascending sweep; each half is computed on its own slice
        picked = [1e-12, 0.5, 1.0 - 1e-12]
        u = np.sort(np.concatenate([picked, np.nextafter(picked, 0.0),
                                    np.nextafter(picked, 1.0), np.linspace(0.0, 1.0, 10_001)]))
        expected = np.array([math.sqrt(2.0 * x) - 1.0 if x <= 0.5
                             else 1.0 - math.sqrt(2.0 * (1.0 - x)) for x in u])
        assert_same_bits(spatial._triangular_ppf(u), expected)


class TestElectorate:
    @pytest.mark.parametrize("dist", [spatial.TRIANGULAR, spatial.GAUSSIAN])
    @pytest.mark.parametrize("n", [1, 2, 7, 20000])
    def test_voters_are_the_sorted_sample(self, dist, n):
        # the sample is drawn ascending, so the electorate skips the sort
        for seed in (0, 1, 7, 12345):
            config = spatial.SpatialConfig(distribution=dist, n_voters=n, seed=seed)
            voters = spatial._electorate(config)[0]
            assert_same_bits(voters, np.sort(spatial.sample_voters(config)))

    @pytest.mark.parametrize("dist", [spatial.TRIANGULAR, spatial.GAUSSIAN])
    @pytest.mark.parametrize("placement", ["grid", "sampled"])
    def test_finalists_equal_a_voter_by_voter_recount(self, dist, placement):
        # radii: nobody approved, the grid spacing (where one candidate's
        # interval ends exactly at a neighbour's), most of the line, everyone
        alphas = [F(0), F(1, 3), F(1, 2), F(1)]
        for seed, n, m in [(1, 1, 5), (2, 40, 11), (3, 300, 41), (4, 2000, 101)]:
            config = spatial.SpatialConfig(distribution=dist, n_voters=n, n_candidates=m,
                                           candidate_placement=placement, seed=seed)
            electorate = spatial._electorate(config)
            v, grid, _ = electorate
            central = sorted(range(m), key=lambda i: (abs(grid[i]), grid[i]))
            spacing = float(np.linspace(*spatial.GRID_INTERVAL[dist], m)[1]
                            - spatial.GRID_INTERVAL[dist][0])
            for d in (1e-9, spacing, 0.99, 5.0):
                def count(lo, hi):
                    return np.count_nonzero((v > lo) & (v < hi))

                scores = [count(g - d, g + d) for g in grid]
                i1 = max(central, key=scores.__getitem__)
                x1 = grid[i1]
                joint = [count(max(g - d, x1 - d), min(g + d, x1 + d)) for g in grid]
                got_scores, got_i1, got_joint, seconds = spatial._finalists(electorate, d, alphas)
                assert got_scores.tolist() == scores and got_i1 == i1, (seed, d)
                assert got_joint.tolist() == joint, (seed, d)
                for a, i2 in zip(alphas, seconds.tolist()):
                    value = [s - a * j for s, j in zip(scores, joint)]
                    best = max((y for y in central if y != i1), key=value.__getitem__)
                    assert i2 == best, (seed, d, a)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("dist", [spatial.TRIANGULAR, spatial.GAUSSIAN])
    @pytest.mark.parametrize("alpha", [F(0), F(3, 10), F(1, 2), F(1)])
    def test_interval_counting_matches_the_rule(self, dist, alpha):
        config = spatial.SpatialConfig(
            distribution=dist, d=0.3, n_voters=180, n_candidates=41, seed=17
        )
        report = spatial.empirical_second_finalist(config, alpha)
        profile = spatial.sample_profile(config)
        outcome = tally_outcome(profile.as_approval().tally(), RuleSpec("alpha-seq", alpha=alpha))
        grid = spatial.candidate_positions(config)
        scores = profile.as_approval().score_vector()
        x1s = outcome.first_stage
        # the report's first finalist is the most central approval winner
        assert any(abs(grid[x1] - report.first_position) < 1e-12 for x1 in x1s)
        i1 = int(np.argmin(np.abs(grid - report.first_position)))
        # second-seat scores agree exactly with the rule's table
        for y in range(len(grid)):
            if y == i1:
                continue
            table_score = outcome.score_table.get(CandidatePair.of(i1, y))
            if table_score is not None:
                assert report.second_stage_scores[y] == table_score - scores[i1]
        # and the reported second seat attains the branch optimum
        branch_best = max(
            s for y, s in enumerate(report.second_stage_scores) if y != i1
        )
        i2 = int(np.argmin(np.abs(grid - report.second_position)))
        assert report.second_stage_scores[i2] == branch_best


class TestSweep:
    def test_rows_and_determinism(self):
        config = spatial.SpatialConfig(n_voters=500, n_candidates=51, seed=9)
        rows = spatial.sweep(config, [F(1, 4), F(1, 2)], [0.2, 0.4])
        assert len(rows) == 4
        again = spatial.sweep(config, [F(1, 4), F(1, 2)], [0.2, 0.4])
        assert spatial.sweep_csv(rows) == spatial.sweep_csv(again)
        header = spatial.sweep_csv(rows).splitlines()[0]
        assert header == "distribution,d,alpha,analytic,empirical,seed,generator"

    def test_empty_alpha_list(self):
        config = spatial.SpatialConfig(n_voters=100, n_candidates=11, seed=9)
        assert spatial.sweep(config, [], [0.2]) == []

    def test_analytic_column_only_for_triangular(self):
        config = spatial.SpatialConfig(
            distribution=spatial.GAUSSIAN, n_voters=200, n_candidates=21, seed=9
        )
        rows = spatial.sweep(config, [F(1, 2)], [0.2])
        assert rows[0].analytic is None

    def test_monte_carlo_tracks_closed_form_at_small_scale(self):
        config = spatial.SpatialConfig(n_voters=4000, n_candidates=301, seed=21)
        rows = spatial.sweep(config, [F(i, 10) for i in (2, 5, 8)], [0.25, 0.4])
        for r in rows:
            assert abs(r.empirical - r.analytic) <= 0.05

    @pytest.mark.parametrize("dist", [spatial.TRIANGULAR, spatial.GAUSSIAN])
    @pytest.mark.parametrize("placement", ["grid", "sampled"])
    def test_rows_equal_the_per_cell_reports(self, dist, placement):
        # tiny electorates give many tied counts; the oracle is one report
        # per cell, each drawing its own sample
        alphas = [F(0), F(1, 7), F(1, 2), F(9, 10), F(1), F(3, 10)]
        for seed, n, m, ds in [(1, 1, 5, [0.3]), (2, 3, 11, [0.05, 0.5]),
                               (3, 40, 17, [0.1, 0.25, 0.9]), (4, 300, 61, [0.2, 0.33])]:
            config = spatial.SpatialConfig(distribution=dist, n_voters=n, n_candidates=m,
                                           candidate_placement=placement, seed=seed)
            rows = spatial.sweep(config, alphas, ds)
            cells = [(d, a) for d in ds for a in alphas]
            assert len(rows) == len(cells)
            for row, (d, a) in zip(rows, cells):
                report = spatial.empirical_second_finalist(config._replace(d=d), a)
                assert (row.d, row.alpha) == (d, report.alpha)
                assert row.empirical == report.second_distance
                if dist == spatial.TRIANGULAR:
                    assert row.analytic == spatial.optimal_x2_triangular(float(report.alpha), d)
                else:
                    assert row.analytic is None

    @pytest.mark.parametrize("dist", [spatial.TRIANGULAR, spatial.GAUSSIAN])
    def test_rows_equal_an_exact_integer_argmax(self, dist):
        # denominators near and past 2**63 make S*den - num*J overflow int64
        alphas = [F(2**62 - 1, 2**62), F(1, 2**62), F(2**70 - 3, 2**70), F(1, 2**70),
                  F("0.99999999999999999"), F(1, 10**16), F(1, 3)]
        config = spatial.SpatialConfig(distribution=dist, n_voters=400, n_candidates=41,
                                       seed=13)
        voters = [float(v) for v in spatial.sample_voters(config)]
        grid = [float(x) for x in spatial.candidate_positions(config)]
        central = sorted(range(len(grid)), key=lambda i: (abs(grid[i]), grid[i]))

        def argbest(values):  # the first maximum in central order
            return max(central, key=values.__getitem__)

        ds = [0.1, 0.3]
        rows = iter(spatial.sweep(config, alphas, ds))
        for d in ds:
            near = [{v for v in voters if abs(v - x) < d} for x in grid]
            scores = [len(s) for s in near]
            i1 = argbest(scores)
            joint = [len(s & near[i1]) for s in near]
            for a in alphas:
                value = [s * a.denominator - a.numerator * j for s, j in zip(scores, joint)]
                value[i1] = min(value) - 1
                assert next(rows).empirical == abs(grid[argbest(value)]), (d, a)

    @pytest.mark.parametrize("dist", [spatial.TRIANGULAR, spatial.GAUSSIAN])
    def test_the_sweep_script_rebuilds_the_golden_csv(self, dist):
        # the grid of scripts/spatial_sweep.py, whose CSV files are copied
        # under tests/golden/
        spec = importlib.util.spec_from_file_location(
            "spatial_sweep_script", ROOT / "scripts" / "spatial_sweep.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        config = spatial.SpatialConfig(distribution=dist, seed=7)
        text = spatial.sweep_csv(spatial.sweep(config, script.ALPHAS, script.DS))
        golden = ROOT / "tests" / "golden" / f"second_finalist_{dist}.csv"
        assert text.encode() == golden.read_bytes()

    @pytest.mark.parametrize("alphas,ds,message", [
        ([F(1, 2)], [0, 0.2], "approval radius d must be positive"),
        ([F(3, 2)], [0, 0.2], "approval radius d must be positive"),
        ([F(1, 2), F(3, 2)], [0.2, -0.1], "alpha must lie in"),
        ([F(1, 2)], [0.2, -0.1], "approval radius d must be positive"),
        ([F(1, 2), F(3, 2)], [1.5], "d must lie in"),
        ([F(3, 2), F(1, 2)], [1.5], "alpha must lie in"),
        ([], [0.2, -0.1], "approval radius d must be positive"),
    ])
    def test_first_bad_input_is_reported_in_cell_order(self, alphas, ds, message):
        config = spatial.SpatialConfig(n_voters=20, n_candidates=5, seed=1)
        with pytest.raises(InputError, match=message):
            spatial.sweep(config, alphas, ds)

    @pytest.mark.parametrize("dist", [spatial.TRIANGULAR, spatial.GAUSSIAN])
    def test_a_nan_radius_is_rejected(self, dist):
        with pytest.raises(InputError, match="approval radius d must be positive"):
            spatial.SpatialConfig(distribution=dist, d=float("nan"))
        config = spatial.SpatialConfig(distribution=dist, n_voters=20, n_candidates=5, seed=1)
        with pytest.raises(InputError, match="approval radius d must be positive"):
            spatial.sweep(config, [F(1, 2)], [float("nan")])

    @pytest.mark.parametrize("alpha", [0.3, 1.0, "0.3.1", "1/0", "x"])
    def test_alpha_must_be_an_exact_rational(self, alpha):
        # one policy with the rest of the package: floats and bad text raise InputError
        config = spatial.SpatialConfig(n_voters=20, n_candidates=5, seed=1)
        with pytest.raises(InputError, match="alpha"):
            spatial.sweep(config, [F(1, 2), alpha], [0.2])
        with pytest.raises(InputError, match="alpha"):
            spatial.empirical_second_finalist(config, alpha)

    def test_alpha_text_is_read_exactly(self):
        config = spatial.SpatialConfig(n_voters=20, n_candidates=5, seed=1)
        (row,) = spatial.sweep(config, ["3/10"], [0.2])
        assert row.alpha == F(3, 10) and row == spatial.sweep(config, [F(3, 10)], [0.2])[0]

    @pytest.mark.parametrize("alphas,ds", [([], [0.2, 0.4]), ([F(1, 2)], []), ([], [])])
    def test_empty_lists_draw_no_voters(self, monkeypatch, alphas, ds):
        def refuse(config):
            raise AssertionError("sampled voters for an empty sweep")

        monkeypatch.setattr(spatial, "sample_voters", refuse)
        config = spatial.SpatialConfig(n_voters=20, n_candidates=5, seed=1)
        assert spatial.sweep(config, alphas, ds) == []
