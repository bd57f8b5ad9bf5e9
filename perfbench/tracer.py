"""Spans around the calls into the package's public functions, from outside.

Each traced function is replaced, at every name it is bound to in the loaded
``avrunoff`` modules (``runoff.avr`` and ``axioms.avr`` alike), by a wrapper
that records a span: name, parent span, start and end. Spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of the traced spans directly inside it. Generator
functions get no span; their yielded items are counted instead.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import subprocess
import sys
import time
from collections import Counter

# (module, class or None, function): spans with self time and call counts
SPANNED = (
    ("profiles", "RankedProfile", "as_approval"),
    ("profiles", "ApprovalProfile", "score_vector"),
    ("profiles", "ApprovalProfile", "joint_matrix"),
    ("profiles", "RankedProfile", "majority_margin"),
    ("profiles", "RankedProfile", "replace_ballot"),
    ("rules", None, "evaluate"),
    ("runoff", None, "avr"),
    ("axioms", None, "find_clone_violation"),
    ("axioms", None, "find_manipulation"),
    ("axioms", None, "find_monotonicity_violation"),
    ("axioms", None, "pareto_violations"),
    ("fileio", None, "parse_document"),
    ("fileio", None, "debias"),
    ("spatial", None, "sample_voters"),
    ("spatial", None, "approval_counts"),
    ("spatial", None, "joint_counts"),
    ("spatial", None, "empirical_second_finalist"),
    ("spatial", None, "sweep"),
    ("cli", None, "main"),
)
# generator functions: items yielded
COUNTED = (
    ("axioms", "cloning_extensions"),
    ("axioms", "i_deviations"),
    ("axioms", "a_improvements"),
)

# per-layer metric -> (statistic, unit); statistic is (span, field) or (generator, "items")
METRICS = {
    "axioms.find_clone_violation.total_ms": ("total", "ms"),
    "axioms.find_clone_violation.self_ms": ("self", "ms"),
    "axioms.find_clone_violation.calls": ("calls", "count"),
    "axioms.cloning_extensions.items": ("items", "count"),
    "axioms.find_manipulation.total_ms": ("total", "ms"),
    "axioms.find_manipulation.self_ms": ("self", "ms"),
    "axioms.find_manipulation.calls": ("calls", "count"),
    "axioms.i_deviations.items": ("items", "count"),
    "axioms.find_monotonicity_violation.total_ms": ("total", "ms"),
    "axioms.find_monotonicity_violation.self_ms": ("self", "ms"),
    "axioms.a_improvements.items": ("items", "count"),
    "axioms.pareto_violations.self_ms": ("self", "ms"),
    "rules.evaluate.self_ms": ("self", "ms"),
    "rules.evaluate.calls": ("calls", "count"),
    "runoff.avr.self_ms": ("self", "ms"),
    "runoff.avr.calls": ("calls", "count"),
    **{
        f"profiles.{fn}.{field}": (field.split("_")[0], unit)
        for fn in ("as_approval", "score_vector", "joint_matrix", "majority_margin",
                   "replace_ballot")
        for field, unit in (("self_ms", "ms"), ("calls", "count"))
    },
    "fileio.parse_document.self_ms": ("self", "ms"),
    "fileio.parse_document.calls": ("calls", "count"),
    "fileio.debias.self_ms": ("self", "ms"),
    "spatial.sample_voters.self_ms": ("self", "ms"),
    "spatial.sample_voters.calls": ("calls", "count"),
    "spatial.approval_counts.self_ms": ("self", "ms"),
    "spatial.joint_counts.self_ms": ("self", "ms"),
    "spatial.joint_counts.calls": ("calls", "count"),
    "spatial.empirical_second_finalist.self_ms": ("self", "ms"),
    "spatial.empirical_second_finalist.calls": ("calls", "count"),
    "spatial.sweep.self_ms": ("self", "ms"),
    "cli.main.self_ms": ("self", "ms"),
}


def _projection_key(profile, spec):
    """What a cache of rule outcomes keyed on the approval projection would
    key on: the rule and the multiset of (approval set, weight) groups."""
    groups = Counter((tuple(sorted(b.approved)), b.weight) for b in profile.ballots)
    return spec, profile.m, tuple(sorted(groups.items()))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, parent span index or -1, start, end)
        self.stack: list = []  # [child time, span index] of the open spans
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.items: Counter = Counter()
        self.eval_keys: set = set()
        self._patches: list = []

    def _spanned(self, name, fn, key=None):
        nid = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, perf = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if key is not None:
                k0 = perf()
                self.eval_keys.add(key(*args, **kwargs))
                if parent is not None:
                    parent[0] += perf() - k0  # keep the key's cost out of the parent
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                spans[frame[1]] = (nid, parent[1] if parent else -1, t0, t1)

        return wrapper

    def _counted(self, name, fn):
        items = self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                items[name] += 1
                yield item

        return wrapper

    def _rebind(self, orig, wrapped) -> None:
        """Replace `orig` at every name it is bound to in the loaded modules."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("avrunoff"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    @contextlib.contextmanager
    def installed(self):
        for module, cls, fn in SPANNED:
            mod = sys.modules.get(f"avrunoff.{module}")
            if mod is None:
                continue  # the workload never imports this layer
            name = f"{module}.{fn}"
            if cls:
                owner = getattr(mod, cls)
                orig = owner.__dict__[fn]
                setattr(owner, fn, self._spanned(name, orig))
                self._patches.append((owner, fn, orig))
            else:
                orig = getattr(mod, fn)
                key = _projection_key if name == "rules.evaluate" else None
                self._rebind(orig, self._spanned(name, orig, key))
        for module, fn in COUNTED:
            mod = sys.modules.get(f"avrunoff.{module}")
            if mod is not None:
                orig = getattr(mod, fn)
                self._rebind(orig, self._counted(f"{module}.{fn}", orig))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def metrics(self) -> dict:
        out = {}
        for metric, (field, unit) in METRICS.items():
            name = metric.rsplit(".", 1)[0]
            if field == "items":
                value = self.items[name]
            else:
                calls, total, self_s = self.stats.get(name, [0, 0.0, 0.0])
                value = {"calls": calls, "total": total * 1000, "self": self_s * 1000}[field]
            out[metric] = (value, unit)
        calls = self.stats.get("rules.evaluate", [0])[0]
        out["rules.evaluate.distinct_ratio"] = (
            len(self.eval_keys) / calls if calls else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        t_base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("span\tparent\tname\tstart_us\tend_us\n")
            for i, (nid, parent, t0, t1) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{self.names[nid]}\t"
                        f"{(t0 - t_base) * 1e6:.1f}\t{(t1 - t_base) * 1e6:.1f}\n")


IMPORT_REPEATS = 3


def import_metrics(env) -> dict:
    """Cumulative import times of avrunoff.cli and of numpy under it, read
    from ``python -X importtime``; medians of a few fresh processes."""
    cli_us, numpy_us = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import avrunoff.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        cli_us.append(cumulative["avrunoff.cli"])
        numpy_us.append(cumulative.get("numpy", 0))
    return {
        "cli.import_ms": (statistics.median(cli_us) / 1000, "ms"),
        "cli.import.numpy_ms": (statistics.median(numpy_us) / 1000, "ms"),
    }
