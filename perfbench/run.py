"""Benchmark of the avrunoff package: one workload per way it is used.

    python3 perfbench/run.py --workload axiom-lab --seed 1 --seconds 25 --trace 0

Workloads: axiom-lab, election-batch, spatial-sweep, cli-oneshot (see
README.md); ``--workload all`` runs each in turn. With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced pass. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is
false, and the exit code 1, when an output disagrees with the reference. The package is imported from ``src/`` of
the checkout this directory sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from common import OUT, ROOT, SRC, CheckError

# p90 needs at least ten operations beyond it
MIN_OPS = 100
# set-up runs in this many fresh processes; setup_s is their median
SETUP_REPEATS = 9


# workload -> (module, class); imported on demand, so that set-up timing
# includes the imports each workload needs
WORKLOADS = {
    "axiom-lab": ("axiom_lab", "AxiomLab"),
    "election-batch": ("election_batch", "ElectionBatch"),
    "spatial-sweep": ("spatial_sweep", "SpatialSweep"),
    "cli-oneshot": ("cli_oneshot", "CliOneshot"),
}


def workload_class(name):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(args) -> None:
    """Import the package and build the workload's inputs once; print the time."""
    t0 = time.perf_counter()
    workload_class(args.workload)(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def checked(wl, op, out) -> bool:
    """Check one output; a wrong one is reported and makes the run incorrect."""
    try:
        wl.check(op, out)
    except CheckError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return False
    return True


def timed_phase(wl, seconds: float):
    """Whole rounds until `seconds` have passed and MIN_OPS were attempted.
    Each operation is timed alone; its check runs outside that interval. An
    operation that raises counts as failed and has no latency."""
    latencies, attempted, failed, wrong = [], 0, 0, 0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds or attempted < MIN_OPS:
        for op in wl.round(k):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t0)
            wrong += not checked(wl, op, out)
        k += 1
    return latencies, attempted, failed, wrong, k


def end_to_end(args):
    setup_s = measure_setup(args)
    wl = workload_class(args.workload)(args.seed)
    latencies, attempted, failed, wrong, rounds = timed_phase(wl, args.seconds)
    peak_kb = wl.peak_rss_kb() if hasattr(wl, "peak_rss_kb") else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{attempted} operations attempted, {failed} failed", file=sys.stderr)
    if len(latencies) < 2:
        raise RuntimeError("fewer than two operations completed")
    ms = sorted(x * 1000 for x in latencies)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    metrics = {
        "setup_s": (setup_s, "s"),
        # completed operations over the time spent in them: the wall time of
        # the timed phase without the checks and the drawing of inputs
        "ops_per_s": (len(ms) / (sum(ms) / 1000), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return attempted, failed, wrong == 0, metrics


def traced(args):
    import tracer

    wl = workload_class(args.workload)(args.seed)
    # cli-oneshot runs its commands through cli.main in this process, where
    # the spans can see them
    run = getattr(wl, "run_in_process", wl.run)

    def one_pass():
        """The first round: its wall time, the outputs of the operations
        that did not raise, and how many did."""
        ops, done, failed = wl.round(0), [], 0
        t0 = time.perf_counter()
        for op in ops:
            try:
                done.append((op, run(op)))
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, len(ops), failed, done

    # the first round untraced twice (a warm-up, then the overhead base),
    # then traced
    one_pass()
    base = one_pass()[0]
    tr = tracer.Tracer()
    with tr.installed():
        traced_s, attempted, failed, done = one_pass()
    wrong = sum(not checked(wl, op, out) for op, out in done)
    OUT.mkdir(exist_ok=True)
    tr.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    metrics = tr.metrics()
    metrics.update(tracer.import_metrics(child_env()))
    metrics["trace.overhead_pct"] = ((traced_s / base - 1) * 100, "%")
    print(f"{args.workload}: traced {attempted} operations, {failed} failed, "
          f"{traced_s:.2f} s traced, {base:.2f} s untraced", file=sys.stderr)
    return attempted, failed, wrong == 0, metrics


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT,
        )
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "avrunoff" / "__init__.py").is_file():
        print(f"error: no avrunoff package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy's BLAS would start a thread per core on import; every workload,
    # and every process it starts, runs on one thread
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    attempted, failed, correct, metrics = (traced if args.trace else end_to_end)(args)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6f} {unit}")
    print(f"attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
