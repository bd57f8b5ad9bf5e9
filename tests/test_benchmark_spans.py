"""The benchmark tracer's targets still exist in the package.

`perfbench/tracer.py` wraps the functions named in its `SPANNED` and
`COUNTED` tuples when run with `--trace 1`; a name that no longer resolves
breaks that run. The tuples are read from the file, not imported.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_tuple(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("module,cls,fn", tracer_tuple("SPANNED"),
                         ids=lambda v: str(v))
def test_spanned_function_resolves(module, cls, fn):
    mod = importlib.import_module(f"avrunoff.{module}")
    if cls:
        # the tracer reads the method from its class's own __dict__
        assert callable(vars(getattr(mod, cls)).get(fn))
    else:
        assert callable(getattr(mod, fn, None))


@pytest.mark.parametrize("module,fn", tracer_tuple("COUNTED"), ids=lambda v: str(v))
def test_counted_function_is_a_generator(module, fn):
    mod = importlib.import_module(f"avrunoff.{module}")
    assert inspect.isgeneratorfunction(getattr(mod, fn, None))


def test_traced_axiom_lab_counts_rule_evaluations():
    # the tracer counts the calls of the functions it wraps: a rule reached
    # by another path than `rules.evaluate` would go uncounted
    run = TRACER.parent / "run.py"
    result = subprocess.run(
        [sys.executable, str(run), "--workload", "axiom-lab", "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True
    for name in ("rules.evaluate.calls", "runoff.avr.calls"):
        assert report["metrics"][name]["value"] > 0


def test_traced_spatial_sweep_counts_the_counting_layer():
    # one draw per sweep of the round, and the joint counts under their own
    # name: counting inlined into another function would read 0 here
    run = TRACER.parent / "run.py"
    result = subprocess.run(
        [sys.executable, str(run), "--workload", "spatial-sweep", "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    metrics = report["metrics"]
    assert metrics["spatial.sample_voters.calls"]["value"] == 13
    assert metrics["spatial.joint_counts.calls"]["value"] > 0
