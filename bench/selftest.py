"""Tests of the benchmark harness itself, at tiny input sizes.

    python3 -m pytest -q bench/selftest.py

The repository's own test run collects tests/ only, so these do not slow it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from run import child_env  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def tiny(workload, trace=0, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def in_worker(code: str) -> str:
    """Run code in an interpreter set up like a worker; return its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=BENCH, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    proc, res = tiny(workload)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in res["metrics"].values())
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in proc.stdout.splitlines() if line.startswith("   "))
    assert "   failed_ratio 0 1" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_prints_with_its_unit(workload):
    _, res = tiny(workload, 1)
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    assert all(m["value"] is not None for m in res["metrics"].values())


def test_traced_optimize_sees_the_search_and_the_table_cache():
    _, res = tiny("optimize", 1)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["compare.probes"] == m["metrics.evals"] > 0
    assert m["metrics.table_cache_lookups"] > 0 and 0 <= m["metrics.table_cache_hit_ratio"] <= 1


def test_corrupted_reference_fails_operations():
    out = in_worker(
        "import json, worker, workloads\n"
        "refs = json.load(open('references.json'))\n"
        "refs['tiny']['exact-large']['0']['avg_cost'][0] *= 1.0 + 1e-6\n"
        "refs['tiny']['optimize']['0'][1]['best_cost'] *= 1.0 + 1e-9\n"
        "print(json.dumps({w: worker.measure(workloads.build(w, 0, 'tiny', refs), 2, False)\n"
        "                  for w in ('exact-large', 'optimize')}))\n")
    res = json.loads(out)
    large = res["exact-large"]
    assert large["failed"] == 2 and large["attempted"] == 16  # one system of eight, both passes
    assert large["failures"][0].startswith("system 0: avg_cost")
    opt = res["optimize"]
    assert opt["failed"] == 2 and opt["attempted"] == 4  # the time-policy problem, both passes
    assert "problem 1 (time): best_cost" in opt["failures"][0]


def test_stored_references_pass():
    _, res = tiny("exact-large", seed=0)
    assert res["correct"] and res["attempted"] == 16
    _, res = tiny("optimize", seed=0)
    assert res["correct"] and res["attempted"] == 4


@pytest.mark.parametrize("workload", ["simulate-narrow", "simulate-wide-cap"])
def test_same_seed_simulation_reports_are_bit_identical(workload):
    def digest(seed):
        out = in_worker("import workloads\n"
                        f"w = workloads.build({workload!r}, {seed}, 'tiny', None)\n"
                        "print(w.digest([op() for op in w.ops]))\n")
        return out.strip()

    first = digest(11)
    assert digest(11) == first
    assert digest(12) != first


def test_missing_wrap_targets_and_changed_signatures_are_reported_absent():
    out = in_worker(
        "import json, tracer, worker, workloads\n"
        "renamed = {('sim', '_generate'): '_make_cycles', ('metrics', '_policy_table'): '_table'}\n"
        "targets = [(m, renamed.get((m, a), a), *rest) for m, a, *rest in tracer.TARGETS]\n"
        "def changed_signature(counters, args, kwargs, result):\n"
        "    return args[5]\n"
        "targets = [(m, a, g, r, changed_signature if a == 'renewal_table' else o)\n"
        "           for m, a, g, r, o in targets]\n"
        "t = tracer.Tracer(targets)\n"
        "t.install()\n"
        "for name in ('simulate-narrow', 'exact-large'):\n"
        "    worker.run_pass(workloads.build(name, 1, 'tiny', None), [], t)\n"
        "print(json.dumps(t.layer_metrics()))\n")
    layers = json.loads(out)
    for name in ("sim.generate_calls", "sim.generated_draws", "sim.used_ratio",
                 "sim.regrowths", "metrics.table_cache_hit_ratio"):
        value, _, note = layers[name]
        assert value is None and note.startswith("absent:"), (name, note)
    assert "_make_cycles" in layers["sim.generate_busy_s"][2]
    assert "_table" in layers["metrics.table_cache_lookups"][2]
    assert layers["renewal.table_cells"][0] is None
    assert "cannot read the work count" in layers["renewal.table_cells"][2]
    assert layers["sim.split_self_s"][0] > 0
    assert layers["renewal.increments_built"][0] == 8


def test_recursion_mults_counts_the_renewal_loop():
    import tracer

    for q_up, smax in [(0, 3), (2, 3), (3, 3), (10, 3), (7, 1)]:
        assert tracer.recursion_mults(q_up, smax) == sum(min(i, smax) for i in range(1, q_up + 1))


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
