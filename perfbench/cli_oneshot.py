"""cli-oneshot: one ``avr`` process per operation, light commands only.

Interpreter start and import cost show only here. The commands run on the
``data/`` fixtures and on one generated profile of moderate size; ``simulate``
and ``axioms`` are left out so that operation times stay uniform and the tail
stays steady. A round is the fixed list of commands; each command's output
in the first round is checked against the reference, and every later round
must print the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import reference as ref
from common import OUT, ROOT, SRC, require, stable_seed
from election_batch import draw_groups, labels, render

DATA = ROOT / "data"
GEN_SHAPE = (7, 250, "spatial", True)  # candidates, groups, electorate, reported votes
ALL_RULES = ",".join(ref.RULES)
SWEEP_POINTS = 21


def pair_text(pair, lab) -> str:
    return "{%s,%s}" % (lab[pair[0]], lab[pair[1]])


def score_value(text: str):
    parts = [Fraction(x) for x in text.split(";")]
    return parts[0] if len(parts) == 1 else tuple(parts)


class Profile:
    """The reference's view of one profile file."""

    def __init__(self, path, targets_path=None):
        self.labels, self.ballots, self.reported = ref.parse_bar_format(path.read_text())
        self.ids = {c: i for i, c in enumerate(self.labels)}
        self.m = len(self.labels)
        self.scores = ref.Scores(self.m, self.ballots)
        self.targets = None
        if targets_path is not None:
            raw = json.loads(targets_path.read_text())
            self.targets = {self.ids[c]: Fraction(str(v)) for c, v in raw.items()}

    def pairs(self, texts) -> set:
        out = set()
        for t in texts:
            a, b = (self.ids[c] for c in t.strip("{}").split(","))
            out.add((a, b))
        return out


class CliOneshot:
    name = "cli-oneshot"

    def __init__(self, seed: int):
        import avrunoff.cli

        self.cli = avrunoff.cli
        rng = random.Random(stable_seed(self.name, seed))
        m = GEN_SHAPE[0]
        groups = draw_groups(rng, *GEN_SHAPE)
        votes = sorted({g[3] for g in groups})
        ks = [rng.randint(1, 10) for _ in votes]
        scale = 1000 / sum(ks)
        # decimal shares summing to exactly 1, as a survey would publish them
        thousandths = [int(k * scale) for k in ks]
        thousandths[-1] += 1000 - sum(thousandths)
        OUT.mkdir(exist_ok=True)
        self.gen = OUT / f"cli-seed{seed}.avr"
        self.gen_targets = OUT / f"cli-seed{seed}-targets.json"
        self.gen.write_text(render(m, groups))
        lab = labels(m)
        self.gen_targets.write_text(json.dumps(
            {lab[c]: f"0.{t:03d}" for c, t in zip(votes, thousandths)}))
        spectrum, ranked, survey = (DATA / f for f in (
            "spectrum.avr", "spectrum_ranked.avr", "synthetic_survey.avr"))
        survey_targets = DATA / "synthetic_targets.json"
        self.commands = [
            ("score", spectrum, "--format", "json"),
            ("score", survey, "--format", "json"),
            ("score", self.gen, "--rule", ALL_RULES, "--format", "json"),
            ("finalists", spectrum, "--rule", "pav"),
            ("finalists", survey, "--rule", "enephr"),
            ("finalists", self.gen, "--rule", "sccav"),
            ("winner", ranked, "--rule", "ccav"),
            ("winner", survey, "--rule", "sphr"),
            ("winner", self.gen, "--rule", "spav"),
            ("sweep-alpha", spectrum, "--format", "json"),
            ("sweep-alpha", survey, "--points", str(SWEEP_POINTS), "--format", "json"),
            ("network", survey, "--threshold", "0.1", "--format", "json"),
            ("network", self.gen, "--threshold", "0.2", "--format", "json"),
            ("debias", survey, "--targets", survey_targets),
            ("debias", self.gen, "--targets", self.gen_targets),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.first_out = {}
        self.peak_kb = 0

    def argv(self, i) -> list[str]:
        cmd, profile, *rest = self.commands[i]
        return [cmd, "--profile", str(profile), *map(str, rest)]

    def round(self, k: int) -> list:
        return list(range(len(self.commands)))

    def run(self, i) -> str:
        """One ``avr`` process; its own peak RSS is read from wait4. A
        nonzero exit fails the operation."""
        with open(OUT / "cli-stdout", "w+b") as out, open(OUT / "cli-stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "avrunoff.cli", *self.argv(i)],
                                    stdout=out, stderr=err, cwd=ROOT, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return self.stdout_of(i, proc.returncode, out.read().decode(), err.read().decode())

    def run_in_process(self, i) -> str:
        """The same command through ``cli.main`` in this process (traced runs)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.argv(i))
            except SystemExit as exc:  # argparse errors
                code = exc.code
        return self.stdout_of(i, code, out.getvalue(), err.getvalue())

    def stdout_of(self, i, code, stdout, stderr) -> str:
        if code != 0:
            raise RuntimeError(f"{self.argv(i)} exited {code}: {stderr[-500:]}")
        return stdout

    def peak_rss_kb(self) -> int:
        return self.peak_kb

    def check(self, i, stdout) -> None:
        if i in self.first_out:
            require(stdout == self.first_out[i], self.argv(i), "output changed between rounds")
            return
        cmd, path, *rest = self.commands[i]
        targets = rest[1] if cmd == "debias" else None
        prof = Profile(path, targets)
        getattr(self, "check_" + cmd.replace("-", "_"))(prof, rest, stdout)
        self.first_out[i] = stdout

    def check_score(self, p: Profile, rest, stdout) -> None:
        names = rest[1].split(",") if rest[0] == "--rule" else self.cli.DEFAULT_SCORE_RULES.split(",")
        got = json.loads(stdout)
        require(sorted(got) == sorted(names), "score: rules", sorted(got))
        for name in names:
            pairs, table = ref.rule_outcome(p.scores, name)
            entry = got[name]
            require(p.pairs(entry["pairs"]) == pairs, "score", name, "pairs")
            require(entry["sense"] == ("min" if name == "sphr" else "max"), "score", name, "sense")
            require({pair_text(q, p.labels): s for q, s in table.items()}
                    == {k: score_value(v) for k, v in entry["scores"].items()},
                    "score", name, "table")

    def check_finalists(self, p: Profile, rest, stdout) -> None:
        pairs, _ = ref.rule_outcome(p.scores, rest[1])
        require(p.pairs(stdout.split()) == pairs, "finalists", rest[1], stdout)

    def check_winner(self, p: Profile, rest, stdout) -> None:
        winners = ref.runoff_winners(p.m, p.ballots, rest[1], sc=p.scores)
        require({p.ids[c] for c in stdout.split()} == winners, "winner", rest[1], stdout)

    def check_sweep_alpha(self, p: Profile, rest, stdout) -> None:
        points = int(rest[1]) if rest[0] == "--points" else 101
        got = json.loads(stdout)
        breaks = [Fraction(b) for b in got["breakpoints"]]
        grid = [Fraction(row["alpha"]) for row in got["grid"]]
        require(grid == sorted({Fraction(i, points - 1) for i in range(points)} | set(breaks)),
                "sweep-alpha: grid")
        sc, s = p.scores, p.scores.s
        x1 = min(sc.approval_winners())

        def av(a):
            return ref.kind_outcome(sc, "alpha-av", a)[0]

        eps = Fraction(1, 10**9)
        for b in breaks:
            require(av(b - eps) != av(b) or av(b) != av(b + eps), "sweep-alpha: no change at", b)
        for row, a in zip(got["grid"], grid):
            require(p.pairs(row["av_pairs"]) == av(a), "sweep-alpha: av pairs at", a)
            seq = ref.kind_outcome(sc, "alpha-seq", a)[0]
            require(p.pairs(row["seq_pairs"]) == seq, "sweep-alpha: seq pairs at", a)
            require(row["first"] == p.labels[x1], "sweep-alpha: first finalist at", a)
            curve = {p.labels[y]: s[y] - a * sc.joint(x1, y) for y in range(p.m) if y != x1}
            require({k: Fraction(v) for k, v in row["second_seat_scores"].items()} == curve,
                    "sweep-alpha: second-seat scores at", a)
        for lo, hi in zip(grid, grid[1:]):
            require(av(lo) == av(hi) or lo in breaks or hi in breaks,
                    "sweep-alpha: missed a change between", lo, hi)

    def check_network(self, p: Profile, rest, stdout) -> None:
        threshold = Fraction(rest[1])
        got = json.loads(stdout)
        sc = p.scores
        require([(n["id"], n["label"], Fraction(n["score"])) for n in got["nodes"]]
                == [(i, c, sc.s[i]) for i, c in enumerate(p.labels)], "network: nodes")
        edges = set()
        for (a, b), j in sc.j.items():
            union = sc.s[a] + sc.s[b] - j
            if union > 0 and j / union > threshold:
                edges.add((a, b, j / union))
        require({(e["source"], e["target"], Fraction(e["weight"])) for e in got["edges"]}
                == edges, "network: edges")

    def check_debias(self, p: Profile, rest, stdout) -> None:
        weights = ref.debias_weights([w for _, _, w in p.ballots], p.reported, p.targets)
        expected: dict = {}
        for (r, app, _), w, v in zip(p.ballots, weights, p.reported):
            expected[(r, app, v)] = expected.get((r, app, v), ref.ZERO) + w
        out_labels, out_ballots, out_reported = ref.parse_bar_format(stdout)
        require(out_labels == p.labels, "debias: labels")
        got: dict = {}
        for (r, app, w), v in zip(out_ballots, out_reported):
            got[(r, app, v)] = got.get((r, app, v), ref.ZERO) + w
        require(got == {k: w for k, w in expected.items() if w}, "debias: weights")
        n = ref.total_weight(p.ballots)
        require(sum(got.values(), ref.ZERO) == n, "debias: total weight changed")
        share_sum = sum((p.targets[c] for c in set(p.reported)), ref.ZERO)
        for c in set(p.reported):
            share = sum((w for (_, _, v), w in got.items() if v == c), ref.ZERO) / n
            require(share == p.targets[c] / share_sum, "debias: share of", p.labels[c])
