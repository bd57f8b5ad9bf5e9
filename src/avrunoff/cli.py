"""Command-line front end.

Subcommands: score, finalists, winner, sweep-alpha, simulate, axioms,
network, debias. Exit codes: 0 ok, 1 input error, 2 internal error.
A rule is named as `RuleSpec.named` reads it (mav, pav, alpha-av:<r>,
...), the same in every subcommand. Every axiom search is exact, so
`axioms` always reaches a verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from avrunoff import fileio, rules
from avrunoff.profiles import InputError, RankedProfile, exact
from avrunoff.rules import CandidatePair, RuleSpec
from avrunoff.runoff import avr

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

DEFAULT_SCORE_RULES = "mav,pav,ccav,sphr,sav"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_INPUT
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avr", description="approval-with-runoff elections toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("score", cmd_score, "pair score table for one or more rules")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", default=DEFAULT_SCORE_RULES,
                   help=f"comma-separated rule names (default {DEFAULT_SCORE_RULES})")
    p.add_argument("--quota-beta", default=None)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = add("finalists", cmd_finalists, "optimal finalist pairs of a rule")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", required=True,
                   help="one of: " + ", ".join(rules.RULE_NAMES))
    p.add_argument("--quota-beta", default=None)

    p = add("winner", cmd_winner, "runoff winners (rule + pairwise majority)")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--quota-beta", default=None)

    p = add("sweep-alpha", cmd_sweep_alpha,
            "alpha-av winning pairs and alpha-seq second-seat scores over [0,1]")
    p.add_argument("--profile", required=True)
    p.add_argument("--points", type=int, default=101, help="grid points (default 101)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = add("simulate", cmd_simulate, "spatial second-finalist sweep, CSV output")
    # spelled out, so that only `simulate` imports avrunoff.spatial and numpy
    p.add_argument("--distribution", choices=("triangular", "gaussian"),
                   default="triangular")
    p.add_argument("--d", default="0.1,0.25,0.33,0.5", help="comma-separated radii")
    p.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--n-voters", type=int, default=20000)
    p.add_argument("--n-candidates", type=int, default=1000)
    p.add_argument("--placement", choices=("grid", "sampled"), default="grid")
    p.add_argument("--seed", type=int, default=7)

    p = add("axioms", cmd_axioms, "axiom grid for a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", default=None, help="restrict to one rule")
    # checked by cmd_axioms, so that only `axioms` imports avrunoff.axioms
    p.add_argument("--axiom", default=None, help="restrict to one axiom of the grid")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("network", cmd_network, "candidate affinity network (ballot overlap)")
    p.add_argument("--profile", required=True)
    p.add_argument("--threshold", default="0.1")
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = add("debias", cmd_debias, "reweight groups to match reported-vote shares")
    p.add_argument("--profile", required=True)
    p.add_argument("--targets", required=True, help="JSON file {label: share}")

    return parser


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _read_text(path: str, what: str) -> str:
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{what} {path!r} is not UTF-8: line {line}") from None


def _load_document(path: str) -> fileio.ProfileDocument:
    return fileio.parse_document(_read_text(path, "profile"))


def _fmt_pair(pair: CandidatePair, labels) -> str:
    return "{%s,%s}" % (labels[pair.lo], labels[pair.hi])


def _fmt_score(score) -> str:
    if isinstance(score, tuple):
        return ";".join(str(s) for s in score)
    return str(score)


def _specs(names: list[str], quota_beta) -> list[RuleSpec]:
    """The spec of each rule name, `quota_beta` setting the beta of those
    with one; a `--quota-beta` that none of them reads is an input error."""
    specs = [RuleSpec.named(name, quota_beta=quota_beta) for name in names]
    if quota_beta is not None and all(spec.beta is None for spec in specs):
        raise InputError(f"--quota-beta given, but no rule named ({', '.join(names)}) "
                         "has a beta")
    return specs


def cmd_score(args) -> int:
    V = _load_document(args.profile).profile
    names = [n.strip() for n in args.rule.split(",") if n.strip()]
    if not names:
        raise InputError(f"--rule {args.rule!r} names no rule")
    outcomes = {name: rules.evaluate(V, spec)
                for name, spec in zip(names, _specs(names, args.quota_beta))}
    pairs = sorted({p for o in outcomes.values() for p in o.score_table})
    if args.format == "json":
        payload = {
            name: {
                "pairs": [_fmt_pair(p, V.labels) for p in o.pairs],
                "sense": o.objective_sense,
                "scores": {_fmt_pair(p, V.labels): _fmt_score(s)
                           for p, s in sorted(o.score_table.items())},
            }
            for name, o in outcomes.items()
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    rows = []
    for p in pairs:
        row = [_fmt_pair(p, V.labels)]
        for name in names:
            o = outcomes[name]
            cell = _fmt_score(o.score_table[p]) if p in o.score_table else ""
            if p in o.pair_set:
                cell += "*"
            row.append(cell)
        rows.append(row)
    header = ["pair"] + names
    if args.format == "csv":
        _emit(args, _csv_text([header] + rows))
        return EXIT_OK
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    _emit(args, "\n".join(lines) + "\n* marks the optimal pairs of each rule\n")
    return EXIT_OK


def cmd_finalists(args) -> int:
    V = _load_document(args.profile).profile
    outcome = rules.evaluate(V, *_specs([args.rule], args.quota_beta))
    _emit(args, "\n".join(_fmt_pair(p, V.labels) for p in outcome.pairs) + "\n")
    return EXIT_OK


def cmd_winner(args) -> int:
    profile = _load_document(args.profile).profile
    result = avr(profile, *_specs([args.rule], args.quota_beta))
    _emit(args, " ".join(profile.labels[c] for c in sorted(result.winners)) + "\n")
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    if args.points < 2:
        raise InputError("--points must be at least 2")
    V = _load_document(args.profile).profile
    tally = V.tally()
    breakpoints = rules.alpha_av_breakpoints(tally)
    points = sorted(
        {Fraction(i, args.points - 1) for i in range(args.points)} | set(breakpoints)
    )
    grid = []
    for a in points:
        av = rules.tally_outcome(tally, RuleSpec("alpha-av", alpha=a))
        seq = rules.tally_outcome(tally, RuleSpec("alpha-seq", alpha=a))
        # one second-seat curve per tied approval winner, since seq_pairs
        # unions their branches: one JSON entry and CSV row per branch
        for x1 in seq.first_stage:
            curve = {
                y: seq.score_table[CandidatePair.of(x1, y)]
                - Fraction(tally.scores[x1], tally.denom)
                for y in range(V.m)
                if y != x1
            }
            grid.append((a, av.pairs, seq.pairs, x1, curve))
    if args.format == "json":
        payload = {
            "breakpoints": [str(b) for b in breakpoints],
            "grid": [
                {
                    "alpha": str(a),
                    "av_pairs": [_fmt_pair(p, V.labels) for p in av_pairs],
                    "seq_pairs": [_fmt_pair(p, V.labels) for p in seq_pairs],
                    "first": V.labels[x1],
                    "second_seat_scores": {V.labels[y]: str(s) for y, s in curve.items()},
                }
                for a, av_pairs, seq_pairs, x1, curve in grid
            ],
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    curve_labels = [V.labels[y] for y in range(V.m)]
    if args.format == "csv":
        table = [["alpha", "av_pairs", "seq_pairs"] + [f"seq:{l}" for l in curve_labels]]
        for a, av_pairs, seq_pairs, x1, curve in grid:
            cells = [
                str(a),
                ";".join(_fmt_pair(p, V.labels) for p in av_pairs),
                ";".join(_fmt_pair(p, V.labels) for p in seq_pairs),
            ]
            cells += [str(curve.get(y, "")) for y in range(V.m)]
            table.append(cells)
        _emit(args, _csv_text(table))
        return EXIT_OK
    lines = ["argmax changes at: " + (", ".join(str(b) for b in breakpoints) or "never")]
    # one line per alpha, whatever its number of branches
    for a, (av_pairs, seq_pairs) in {a: (av, seq) for a, av, seq, _, _ in grid}.items():
        lines.append(
            f"alpha={a}  av={' '.join(_fmt_pair(p, V.labels) for p in av_pairs)}  "
            f"seq={' '.join(_fmt_pair(p, V.labels) for p in seq_pairs)}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from avrunoff import spatial

    config = spatial.SpatialConfig(
        distribution=args.distribution,
        n_voters=args.n_voters,
        n_candidates=args.n_candidates,
        candidate_placement=args.placement,
        seed=args.seed,
    )
    ds = []
    for text in filter(str.strip, args.d.split(",")):
        radius = exact(text, "radius")
        try:
            ds.append(float(radius))
        except OverflowError:
            raise InputError(f"a radius in {args.d!r} is too large for a float") from None
        if radius > 0 and ds[-1] == 0:
            raise InputError(f"a radius in {args.d!r} is too small for a float")
    if not ds:
        raise InputError(f"--d {args.d!r} names no radius")
    alphas = [exact(x, "alpha") for x in args.alphas.split(",") if x.strip()]
    if not alphas:
        raise InputError(f"--alphas {args.alphas!r} names no alpha")
    rows = spatial.sweep(config, alphas, ds)
    _emit(args, spatial.sweep_csv(rows))
    return EXIT_OK


def cmd_axioms(args) -> int:
    from avrunoff import axioms

    if args.axiom not in (None, *axioms.GRID_AXIOMS):
        raise InputError(f"unknown axiom {args.axiom!r}; choose from "
                         + ", ".join(axioms.GRID_AXIOMS))
    profile = _load_document(args.profile).profile
    if not isinstance(profile, RankedProfile):
        raise InputError("axiom checks need ranked ballots")
    rule_items = axioms.GRID_RULES
    if args.rule:
        rule_items = ((args.rule, RuleSpec.named(args.rule)),)
    axiom_names = axioms.GRID_AXIOMS if not args.axiom else (args.axiom,)
    cells = {
        (name, axiom): axioms.check_axiom(profile, spec, axiom)
        for name, spec in rule_items
        for axiom in axiom_names
    }
    if args.format == "json":
        payload = {
            f"{name}/{axiom}": {
                "rule": dict(rule_items)[name].describe(),
                "status": out.status,
                "searched": out.searched,
                "note": out.violation.note if out.violation else "",
            }
            for (name, axiom), out in cells.items()
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    names = [n for n, _ in rule_items]
    width = max(len(n) for n in names + ["rule"])
    cols = [a for a in axiom_names]
    lines = ["  ".join(["rule".ljust(width)] + [c.ljust(18) for c in cols])]
    marks = {"none": "ok", "violation": "VIOLATION", "vacuous": "vacuous-pass"}
    for name, _ in rule_items:
        row = [name.ljust(width)]
        for axiom in cols:
            row.append(marks[cells[(name, axiom)].status].ljust(18))
        lines.append("  ".join(row).rstrip())
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_network(args) -> int:
    graph = fileio.jaccard_affinity(_load_document(args.profile).profile)
    _emit(args, fileio.export_network(graph, args.threshold, args.format))
    return EXIT_OK


def cmd_debias(args) -> int:
    doc = _load_document(args.profile)
    shares = fileio.load_target_shares(_read_text(args.targets, "targets"), doc.profile.labels)
    spec = fileio.DebiasSpec(doc.reported, shares)
    debiased = fileio.debias(doc.profile, spec)
    _emit(args, fileio.serialize_document(fileio.ProfileDocument(debiased, doc.reported)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
