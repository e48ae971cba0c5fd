"""The benchmark's tracer wraps package functions by name.

``bench/tracer.py`` lists them in ``TARGETS``.  A renamed or deleted target,
or one whose role changes (a cache removed), does not stop a traced run: the
layer metrics that need it come out as null and the run still exits 0.
These tests read the list without importing or changing ``bench/``, and run
the traced benchmark on its tiny sizes, so they fail as soon as a refactor
breaks a name or a role the tracer relies on, or moves an output the
benchmark checks.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def tracer_targets():
    """(module, attribute, role) of each entry of TARGETS, from the source."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            entries = []
            for entry in node.value.elts:
                module, attr, _, role = (ast.literal_eval(e) if isinstance(e, ast.Constant)
                                         else None for e in entry.elts[:4])
                entries.append((module, attr, role))
            return entries
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_every_tracer_target_is_a_package_function():
    targets = tracer_targets()
    assert targets
    for module, attr, _ in targets:
        fn = getattr(importlib.import_module(f"consolidate.{module}"), attr, None)
        assert callable(fn), f"consolidate.{module}.{attr} is not a function"


def test_the_traced_table_cache_reports_its_hits():
    cached = [(module, attr) for module, attr, role in tracer_targets() if role == "table_cache"]
    assert ("metrics", "_policy_table") in cached
    for module, attr in cached:
        fn = getattr(importlib.import_module(f"consolidate.{module}"), attr)
        assert callable(getattr(fn, "cache_info", None)), f"{module}.{attr} has no cache_info"


def strict_json(line: str) -> dict:
    """The result line, parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(line, parse_constant=refuse)


def test_traced_tiny_runs_report_every_layer_metric():
    # the workloads whose layers wrap the evaluator and its table cache, and
    # the two whose layers wrap the simulator, whose checks hold the seeded
    # reports to the exact values: ~5 s and ~3 s each on 2 CPUs
    runs = {workload: subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--size", "tiny",
         "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for workload in ("optimize", "exact-large", "simulate-narrow", "simulate-wide-cap")}
    try:
        for workload, proc in runs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err[-2000:]
            result = strict_json(out.strip().splitlines()[-1])
            absent = sorted(name for name, metric in result["metrics"].items()
                            if metric["value"] is None)
            assert result["metrics"] and not absent, (workload, absent)
            # the seed-0 references: best points and costs of optimize,
            # outputs of exact-large; the simulated means within 4 SE
            assert result["correct"] and result["failed"] == 0, (workload, result["failed"])
    finally:
        for proc in runs.values():
            proc.kill()
            proc.wait()
