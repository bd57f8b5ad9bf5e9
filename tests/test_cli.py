import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from avrunoff.axioms import GRID_RULES
from avrunoff.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
SPECTRUM = str(DATA / "spectrum.avr")
RANKED = str(DATA / "spectrum_ranked.avr")
SURVEY = str(DATA / "synthetic_survey.avr")
TARGETS = str(DATA / "synthetic_targets.json")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFinalists:
    def test_plain_approval_pair(self, capsys):
        code, out, _ = run(capsys, "finalists", "--profile", SPECTRUM, "--rule", "mav")
        assert code == 0
        assert out == "{a,b}\n"

    def test_half_discount_pair(self, capsys):
        code, out, _ = run(capsys, "finalists", "--profile", SPECTRUM, "--rule", "pav")
        assert (code, out) == (0, "{a,c}\n")

    def test_parameterized_alpha(self, capsys):
        code, out, _ = run(capsys, "finalists", "--profile", SPECTRUM,
                           "--rule", "alpha-av:1")
        assert (code, out) == (0, "{a,d}\n")


class TestWinner:
    @pytest.mark.parametrize("rule,expected", [
        ("mav", "b"), ("sav", "b"), ("pav", "a"), ("spav", "a"),
        ("sphr", "a"), ("enephr", "a"), ("ccav", "a"), ("sccav", "a"),
    ])
    def test_ranked_spectrum_row(self, capsys, rule, expected):
        code, out, _ = run(capsys, "winner", "--profile", RANKED, "--rule", rule)
        assert (code, out) == (0, expected + "\n")

    def test_approval_only_profile_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "winner", "--profile", SPECTRUM, "--rule", "mav")
        assert code == 1
        assert "error" in err


class TestScore:
    def test_exact_cells_in_csv(self, capsys):
        code, out, _ = run(capsys, "score", "--profile", SPECTRUM, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["pair", "mav", "pav", "ccav", "sphr", "sav"]
        table = {row[0]: row[1:] for row in rows[1:]}
        assert table["{a,b}"] == ["22*", "17", "12", "11/60", "32/3*"]
        assert table["{a,c}"] == ["20", "18*", "16", "1/6*", "29/3"]
        assert table["{a,d}"] == ["17", "17", "17*", "1/5", "28/3"]

    def test_text_format_marks_optima(self, capsys):
        code, out, _ = run(capsys, "score", "--profile", SPECTRUM)
        assert code == 0
        assert "optimal pairs" in out


class TestSweepAlpha:
    def test_breakpoints_exact(self, capsys):
        code, out, _ = run(capsys, "sweep-alpha", "--profile", SPECTRUM)
        assert code == 0
        assert out.splitlines()[0] == "argmax changes at: 1/3, 3/4"

    def test_json_grid(self, capsys):
        code, out, _ = run(capsys, "sweep-alpha", "--profile", SPECTRUM,
                           "--points", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["breakpoints"] == ["1/3", "3/4"]
        by_alpha = {g["alpha"]: g for g in payload["grid"]}
        assert by_alpha["0"]["av_pairs"] == ["{a,b}"]
        assert by_alpha["1"]["av_pairs"] == ["{a,d}"]
        assert by_alpha["1/3"]["av_pairs"] == ["{a,b}", "{a,c}"]
        assert by_alpha["1/2"]["seq_pairs"] == ["{a,c}"]

    def test_csv_contains_second_seat_curve(self, capsys):
        code, out, _ = run(capsys, "sweep-alpha", "--profile", SPECTRUM,
                           "--points", "3", "--format", "csv")
        assert code == 0
        header = next(csv.reader(io.StringIO(out)))
        assert header[:4] == ["alpha", "av_pairs", "seq_pairs", "seq:a"]


    def test_tied_first_stage_gives_one_curve_per_branch(self, capsys, tmp_path):
        # a, b and c tie at 2: seq_pairs unions the three branches, and each
        # branch's curve is printed, so that every listed pair is explained
        profile = tmp_path / "tied.avr"
        profile.write_text("candidates: a b c\n2 * a c\n2 * b\n")
        code, out, _ = run(capsys, "sweep-alpha", "--profile", str(profile),
                           "--points", "2", "--format", "json")
        assert code == 0
        grid = json.loads(out)["grid"]
        assert [(g["alpha"], g["first"]) for g in grid] == [
            ("0", "a"), ("0", "b"), ("0", "c"), ("1", "a"), ("1", "b"), ("1", "c")]
        at_one = {g["first"]: g for g in grid if g["alpha"] == "1"}
        assert at_one["a"]["seq_pairs"] == ["{a,b}", "{b,c}"]
        assert {first: g["second_seat_scores"] for first, g in at_one.items()} == {
            "a": {"b": "2", "c": "0"}, "b": {"a": "2", "c": "2"}, "c": {"a": "0", "b": "2"}}
        code, out, _ = run(capsys, "sweep-alpha", "--profile", str(profile),
                           "--points", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[4:] == ['1,"{a,b};{b,c}","{a,b};{b,c}",,2,0',
                                        '1,"{a,b};{b,c}","{a,b};{b,c}",2,,2',
                                        '1,"{a,b};{b,c}","{a,b};{b,c}",0,2,']
        code, out, _ = run(capsys, "sweep-alpha", "--profile", str(profile), "--points", "2")
        assert out.splitlines() == ["argmax changes at: never",
                                    "alpha=0  av={a,b} {a,c} {b,c}  seq={a,b} {a,c} {b,c}",
                                    "alpha=1  av={a,b} {b,c}  seq={a,b} {b,c}"]


class TestSimulate:
    def test_small_run_deterministic(self, capsys, tmp_path):
        args = ("simulate", "--d", "0.25", "--alphas", "0.2,0.5",
                "--n-voters", "400", "--n-candidates", "41", "--seed", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "distribution,d,alpha,analytic,empirical,seed,generator"
        assert len(out1.splitlines()) == 3

    def test_distribution_choices_are_the_simulator_densities(self, capsys):
        from avrunoff import spatial

        small = ("simulate", "--d", "0.2", "--alphas", "0.5",
                 "--n-voters", "50", "--n-candidates", "11")
        for extra, dist in [((), spatial.TRIANGULAR),
                            (("--distribution", spatial.TRIANGULAR), spatial.TRIANGULAR),
                            (("--distribution", spatial.GAUSSIAN), spatial.GAUSSIAN)]:
            code, out, _ = run(capsys, *small, *extra)
            assert code == 0
            assert out.splitlines()[1].startswith(dist + ",")

    def test_other_commands_do_not_import_numpy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        # nor the axiom searches, which only `axioms` runs, nor what no light
        # command needs: dataclasses (which loads inspect), traceback and csv
        lazy = ("numpy", "avrunoff.axioms", "dataclasses", "inspect", "traceback", "csv")
        code = f"import sys, avrunoff.cli; print([m for m in {lazy!r} if m in sys.modules])"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.stdout == "[]\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "simulate", "--d", "0.2", "--alphas", "0.5",
                           "--n-voters", "100", "--n-candidates", "11",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("distribution,")


class TestAxioms:
    def test_grid_on_witness_profile(self, capsys, tmp_path):
        profile = tmp_path / "witness.avr"
        profile.write_text(
            "candidates: a b c\n2 * a | b c\n1 * b | c a\n1 * c | b a\n10 * c a b |\n"
        )
        code, out, _ = run(capsys, "axioms", "--profile", str(profile),
                           "--axiom", "monotonicity")
        assert code == 0
        rows = {line.split()[0]: line for line in out.splitlines()[1:]}
        assert "VIOLATION" in rows["pav"]
        assert "ok" in rows["mav"]
        assert "ok" in rows["triv"]

    @pytest.mark.parametrize("profile,violated", [
        (SURVEY, {"triv"}),
        (RANKED, {"mav", "sav", "triv"}),
    ], ids=["survey", "ranked-sampled"])
    def test_clone_search_is_exact_at_any_size(self, capsys, profile, violated):
        code, out, _ = run(capsys, "axioms", "--profile", profile,
                           "--axiom", "weak-clone-proofness", "--format", "json")
        assert code == 0
        statuses = {key.split("/")[0]: cell["status"] for key, cell in json.loads(out).items()}
        assert statuses == {name: "violation" if name in violated else "none"
                            for name in ("mav", "spav", "sphr", "enephr", "sccav",
                                         "pav", "ccav", "sav", "triv")}

    def test_strategy_proofness_counts_both_modes(self, capsys):
        # the strong search is exhausted, so the weak one runs too: 833 each
        code, out, _ = run(capsys, "axioms", "--profile", RANKED, "--rule", "triv",
                           "--axiom", "strategy-proofness", "--format", "json")
        assert code == 0
        cell = json.loads(out)["triv/strategy-proofness"]
        assert (cell["status"], cell["searched"]) == ("none", 1666)

    def test_seven_candidates_and_thirteen_voters_get_a_verdict(self, capsys, tmp_path):
        # 13 * (7! * 8 - 1) = 524,147 deviations, each profile-sized search
        # is decided without enumerating them
        rng = random.Random(89)
        lines = ["candidates: a b c d e f g"]
        for _ in range(13):
            ranking = rng.sample("abcdefg", 7)
            t = rng.randint(1, 4)
            lines.append("1 * " + " ".join(ranking[:t]) + " | " + " ".join(ranking[t:]))
        profile = tmp_path / "seven.avr"
        profile.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "axioms", "--profile", str(profile),
                           "--axiom", "strategy-proofness", "--format", "json")
        assert code == 0
        statuses = {key.split("/")[0]: cell["status"] for key, cell in json.loads(out).items()}
        assert set(statuses) == {name for name, _ in GRID_RULES}
        assert set(statuses.values()) == {"none", "violation"}

    @pytest.mark.parametrize("option", [("--samples", "5"), ("--seed", "1")])
    def test_search_options_are_gone(self, capsys, option):
        code, out, _ = run(capsys, "axioms", "--profile", RANKED, "--rule", "mav",
                           "--axiom", "strategy-proofness", *option)
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("axiom", ["clone-proofness", "range-voting"])
    def test_axiom_outside_the_grid_is_an_input_error(self, capsys, axiom):
        code, out, err = run(capsys, "axioms", "--profile", RANKED, "--axiom", axiom)
        assert (code, out) == (1, "")
        assert "choose from pareto, monotonicity" in err

    def test_json_format(self, capsys, tmp_path):
        profile = tmp_path / "p.avr"
        profile.write_text("candidates: a b\n1 * a | b\n")
        code, out, _ = run(capsys, "axioms", "--profile", str(profile),
                           "--rule", "mav", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mav/pareto"]["status"] == "none"


@pytest.mark.parametrize("argv,golden", [
    (("axioms", "--profile", RANKED), "axioms_spectrum_ranked.txt"),
    (("axioms", "--profile", RANKED, "--format", "json"), "axioms_spectrum_ranked.json"),
    (("axioms", "--profile", SURVEY), "axioms_synthetic_survey.txt"),
    (("axioms", "--profile", SURVEY, "--format", "json"), "axioms_synthetic_survey.json"),
    (("score", "--profile", SPECTRUM, "--format", "json"), "score_spectrum.json"),
    (("score", "--profile", SURVEY), "score_synthetic_survey.txt"),
    (("score", "--profile", RANKED, "--format", "csv"), "score_spectrum_ranked.csv"),
    (("sweep-alpha", "--profile", SPECTRUM, "--format", "json"), "sweep_alpha_spectrum.json"),
    (("sweep-alpha", "--profile", SURVEY), "sweep_alpha_synthetic_survey.txt"),
    (("sweep-alpha", "--profile", SURVEY, "--format", "csv"), "sweep_alpha_synthetic_survey.csv"),
    (("finalists", "--profile", SURVEY, "--rule", "alpha-av:1/4"),
     "finalists_synthetic_survey_alpha_av_1_4.txt"),
    (("finalists", "--profile", SURVEY, "--rule", "alpha-seq:1/3"),
     "finalists_synthetic_survey_alpha_seq_1_3.txt"),
    (("winner", "--profile", SURVEY, "--rule", "alpha-av:1/4"),
     "winner_synthetic_survey_alpha_av_1_4.txt"),
    (("winner", "--profile", RANKED, "--rule", "alpha-seq:1/3"),
     "winner_spectrum_ranked_alpha_seq_1_3.txt"),
    (("score", "--profile", SPECTRUM, "--rule", "enephr", "--quota-beta", "1/4"),
     "score_spectrum_enephr_beta_1_4.txt"),
    (("finalists", "--profile", SURVEY, "--rule", "enephr", "--quota-beta", "1/4"),
     "finalists_synthetic_survey_enephr_beta_1_4.txt"),
    (("winner", "--profile", RANKED, "--rule", "enephr", "--quota-beta", "1/4"),
     "winner_spectrum_ranked_enephr_beta_1_4.txt"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_stdout_matches_the_golden_file(capsys, argv, golden):
    # every axiom cell's status, searched count and note, byte for byte
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


class TestNetwork:
    def test_dot_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "network", "--profile", SPECTRUM)
        code2, out2, _ = run(capsys, "network", "--profile", SPECTRUM)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("graph affinity {")
        assert '"a" -- "b"' in out1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "network", "--profile", SURVEY,
                           "--format", "json", "--threshold", "0.2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 6


class TestDebias:
    def test_round_trip_through_cli(self, capsys):
        code, out, _ = run(capsys, "debias", "--profile", SURVEY,
                           "--targets", TARGETS)
        assert code == 0
        assert out.startswith("candidates: a b c d e f")
        assert "@" in out

    def test_missing_targets_file(self, capsys):
        code, _, err = run(capsys, "debias", "--profile", SURVEY,
                           "--targets", "/nonexistent.json")
        assert code == 1 and "error" in err


class TestExitCodes:
    def test_missing_profile_file(self, capsys):
        code, _, err = run(capsys, "winner", "--profile", "/no/such.avr",
                           "--rule", "mav")
        assert code == 1

    def test_bad_rule_name(self, capsys):
        code, _, err = run(capsys, "winner", "--profile", RANKED, "--rule", "borda")
        assert code == 1

    def test_syntax_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.avr"
        bad.write_text("candidates: a b\n1 * a a | b\n")
        code, _, err = run(capsys, "finalists", "--profile", str(bad), "--rule", "mav")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("argv", [
        ("finalists", "--profile", SPECTRUM, "--rule", "pav", "--alpha", "3"),
        ("finalists", "--profile", SPECTRUM, "--rule", "alpha-av:1/2", "--alpha", "3"),
        ("finalists", "--profile", SPECTRUM, "--rule", "alpha-av"),
        ("winner", "--profile", RANKED, "--rule", "alpha-seq"),
    ])
    def test_alpha_without_a_bare_alpha_rule_or_the_reverse(self, capsys, argv):
        # --alpha is an unknown flag; a bare alpha-av or alpha-seq names no rule
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        if "--alpha" in argv:
            assert "unrecognized arguments: --alpha" in err
        else:
            assert err.startswith("error: unknown rule name")

    @pytest.mark.parametrize("text", [
        "candidates: a\n2 * a |\n",
        "candidates: a\n2 * a\n",
        "candidates: a\n",
    ], ids=["ranked", "approval", "header-only"])
    @pytest.mark.parametrize("command", [
        ("score",), ("finalists", "--rule", "mav"), ("winner", "--rule", "mav"),
        ("sweep-alpha",), ("axioms",), ("network",),
    ], ids=lambda c: c[0])
    def test_one_candidate_is_an_input_error(self, capsys, tmp_path, command, text):
        profile = tmp_path / "one.avr"
        profile.write_text(text)
        code, out, err = run(capsys, *command, "--profile", str(profile))
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_alpha_rule_name_is_normalised(self, capsys):
        code, out, _ = run(capsys, "finalists", "--profile", SPECTRUM,
                           "--rule", " ALPHA-AV:1")
        assert (code, out) == (0, "{a,d}\n")

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "winner", "--nope")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_sampled_search_with_only_zero_weight_groups(self, capsys, tmp_path):
        # no voter can deviate: a verdict, and the same one on every run
        profile = tmp_path / "nobody.avr"
        profile.write_text("candidates: a b\n0 * a | b\n")
        argv = ("axioms", "--profile", str(profile), "--rule", "mav",
                "--axiom", "strategy-proofness", "--format", "json")
        exhaustive = run(capsys, *argv)
        assert exhaustive[0] == 0
        assert run(capsys, *argv) == exhaustive

    @pytest.mark.parametrize("argv", [
        ("network", "--profile", SPECTRUM, "--threshold", "abc"),
        ("finalists", "--profile", SPECTRUM, "--rule", "alpha-av:abc"),
        ("finalists", "--profile", SPECTRUM, "--rule", "alpha-av:1/0"),
        ("simulate", "--d", "abc"),
        ("sweep-alpha", "--profile", SPECTRUM, "--points", "1"),
        ("simulate", "--d", "1e400"),
    ])
    def test_malformed_number_is_an_input_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,named", [
        (("simulate", "--seed", "-1"), "seed"),
        (("simulate", "--placement", "sampled", "--seed", "-5"), "seed"),
        (("simulate", "--d", "0.5,1e400"), "radius in '0.5,1e400'"),
        (("simulate", "--d", "1e-400"), "radius in '1e-400' is too small for a float"),
        (("simulate", "--alphas", ","), "--alphas ',' names no alpha"),
        (("simulate", "--d", " "), "--d ' ' names no radius"),
    ])
    def test_out_of_range_simulation_input_is_named(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("command", [
        ("score",), ("winner", "--rule", "mav"), ("axioms",),
        ("debias", "--targets", TARGETS),
    ], ids=lambda c: c[0])
    def test_profile_that_is_not_utf8_names_the_line(self, capsys, tmp_path, command):
        profile = tmp_path / "latin1.avr"
        profile.write_bytes(b"candidates: a b\n1 * a | b\n2 * b | a \xe9\n")
        code, out, err = run(capsys, *command, "--profile", str(profile))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "line 3" in err

    @pytest.mark.parametrize("command", [
        ("score",), ("network", "--format", "json"),
    ], ids=lambda c: c[0])
    def test_weight_too_long_to_print_names_the_line(self, capsys, tmp_path, command):
        # 10**5000 has more digits than str prints: rejected, not exit 2
        profile = tmp_path / "huge.avr"
        profile.write_text("candidates: a b c\n1e5000 * a | b c\n")
        code, out, err = run(capsys, *command, "--profile", str(profile))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 2: bad weight '1e5000'")

    def test_target_share_too_long_to_print_is_an_input_error(self, capsys, tmp_path):
        shares = json.loads(Path(TARGETS).read_text())
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({**shares, "a": "1e-5000"}))
        code, out, err = run(capsys, "debias", "--profile", SURVEY, "--targets", str(targets))
        assert (code, out) == (1, "")
        assert err == "error: bad target share '1e-5000'\n"

    def test_targets_that_are_not_utf8_name_the_line(self, capsys, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_bytes(b'{"a": "1/2"}\n\xff')
        code, out, err = run(capsys, "debias", "--profile", SURVEY, "--targets", str(targets))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "line 2" in err

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
    def test_targets_that_are_not_an_object(self, capsys, tmp_path, text):
        targets = tmp_path / "targets.json"
        targets.write_text(text)
        code, out, err = run(capsys, "debias", "--profile", SURVEY, "--targets", str(targets))
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,named", [
        (("finalists", "--profile", SPECTRUM, "--rule", "mav", "--quota-beta", "2"), "(mav)"),
        (("finalists", "--profile", SPECTRUM, "--rule", "alpha-av:1/4", "--quota-beta", "1/4"),
         "(alpha-av:1/4)"),
        (("winner", "--profile", RANKED, "--rule", "triv", "--quota-beta", "0"), "(triv)"),
        (("score", "--profile", SPECTRUM, "--quota-beta", "1/4"), "(mav, pav, ccav, sphr, sav)"),
        (("score", "--profile", SPECTRUM, "--rule", "sphr,sav", "--quota-beta", "1"),
         "(sphr, sav)"),
    ], ids=["finalists", "finalists-alpha", "winner", "score-default", "score-list"])
    def test_quota_beta_for_no_rule_with_a_beta(self, capsys, argv, named):
        # a --quota-beta that no named rule reads is rejected, not dropped
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: --quota-beta given, but no rule named {named} has a beta\n"

    def test_quota_beta_sets_the_beta_of_the_rules_with_one(self, capsys):
        code, out, _ = run(capsys, "score", "--profile", SPECTRUM, "--rule", "mav,enephr",
                           "--quota-beta", "1/4", "--format", "json")
        assert code == 0
        enephr = json.loads(out)["enephr"]
        assert enephr == json.loads(run(capsys, "score", "--profile", SPECTRUM, "--rule",
                                        "enephr", "--quota-beta", "1/4",
                                        "--format", "json")[1])["enephr"]

    @pytest.mark.parametrize("names", [",,", " , "])
    def test_score_naming_no_rule(self, capsys, names):
        code, out, err = run(capsys, "score", "--profile", SPECTRUM, "--rule", names)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
