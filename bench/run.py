"""Benchmark of the consolidate package: whole workloads and the layers under them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...        # every workload in turn

Run from anywhere inside a checkout; the package is imported from the
checkout's own src/, never from an installed copy.  A run spawns five fresh
interpreters that only import the package (set-up time), then one
single-threaded worker (worker.py) with the BLAS thread cap set to the CPU
count, which drives the library in-process and closed-loop: a fixed number
of passes over the workload's operations (spec.py, in proportion to
--seconds), with every call's time scaled by a calibration and taken as its
median over the passes (see worker.py).  setup_s, unscaled, is the median
over the probes and the worker's own import.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of traced passes, which alternate with
untraced ones to give the tracing overhead.  The line before it is a report
with the machine facts, the workload's reason and size, sample counts, notes
on the per-layer metrics, and any failed checks.  The process exits
non-zero, without a result line, when the checkout has no src/consolidate or
the worker cannot run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spec import WORKLOADS, reps as spec_reps  # noqa: E402

SETUP_PROBES = 5
HARD_LIMIT_S = 175.0      # kill a worker still running at this point
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "eval_p50_ms": "ms", "eval_p95_ms": "ms",
              "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A worker could not run; the benchmark prints no result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = str(nproc())
    return env


class Runner:
    """Starts interpreters one at a time and keeps the run inside its time limit."""

    def __init__(self):
        self.started = time.monotonic()

    def spawn(self, args: list[str], flags: tuple = ()) -> tuple[dict, str, float]:
        timeout = self.started + HARD_LIMIT_S - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a worker could start")
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, *flags, str(BENCH_DIR / "worker.py"), *args],
                                  env=child_env(), cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker {args} ran past the time limit") from err
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr, started


def measure_setup(runner: Runner, trace: bool) -> tuple[list[float], list[dict]]:
    """Seconds from spawning an interpreter until ``import consolidate`` returns.

    The worker gives one more sample, since it imports the package first
    thing.  Both ends read CLOCK_MONOTONIC, which all processes share on
    Linux.  With tracing, the probes run under ``-X importtime`` and also
    give the split of import time by package (and so read higher).
    """
    samples, layers = [], []
    for _ in range(SETUP_PROBES):
        flags = ("-X", "importtime") if trace else ()
        out, err, started = runner.spawn(["--probe"], flags)
        samples.append(out["imported_at"] - started)
        if trace:
            layers.append(import_times(err))
    return samples, layers


def import_times(stderr: str) -> dict:
    """Split ``python -X importtime`` output into the set-up layers, in seconds.

    Each module's self time goes to ``scipy_stats`` when it was first imported
    under ``scipy.stats`` (so stdlib modules pulled in by scipy.stats count
    there), else to its own top-level package: numpy, other scipy, or
    consolidate.  Other modules (the standard library) are not reported.
    """
    rows = []
    prefix = "import time:"
    for line in stderr.splitlines():
        if not line.startswith(prefix) or line.endswith("imported package"):
            continue
        self_us, _cumulative, field = line[len(prefix):].split("|", 2)
        # field is one space, two spaces per nesting level, then the name
        depth = (len(field) - 1 - len(field.lstrip(" "))) // 2
        rows.append((int(self_us), depth, field.strip()))
    # importtime prints a module after its children; an ancestor is the next
    # line at a smaller depth, so walk backwards keeping the open ancestors.
    under_stats = [False] * len(rows)
    ancestors: list[tuple[int, str]] = []
    for i in range(len(rows) - 1, -1, -1):
        _, depth, name = rows[i]
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        under_stats[i] = any(n == "scipy.stats" for _, n in ancestors)
        ancestors.append((depth, name))
    out = {"scipy_stats_s": 0.0, "scipy_other_s": 0.0, "numpy_s": 0.0, "consolidate_self_s": 0.0}
    for (self_us, _, name), stats_child in zip(rows, under_stats):
        top = name.split(".")[0]
        if stats_child or name == "scipy.stats" or name.startswith("scipy.stats."):
            key = "scipy_stats_s"
        elif top == "scipy":
            key = "scipy_other_s"
        elif top == "numpy":
            key = "numpy_s"
        elif top == "consolidate":
            key = "consolidate_self_s"
        else:
            continue
        out[key] += self_us * 1e-6
    return out


def machine_facts(run: dict) -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    facts = dict(run["facts"])
    facts.update({"nproc": nproc(), "cpu_model": model,
                  "numba": "present" if importlib.util.find_spec("numba") else "absent"})
    return facts


def run_workload(workload: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    runner = Runner()
    setup, import_layers = measure_setup(runner, trace)
    reps = spec_reps(workload, size, seconds)
    args = ["--workload", workload, "--seed", str(seed), "--size", size, "--reps", str(reps),
            "--trace", str(int(trace))]
    run, _, started = runner.spawn(args)
    setup.append(run["imported_at"] - started)

    notes = {}
    if trace:
        metrics = {}
        for name, (value, unit, note) in run["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
            if note:
                notes[name] = note
        for key in ("scipy_stats_s", "scipy_other_s", "numpy_s", "consolidate_self_s"):
            metrics[f"setup.{key}"] = {"value": median([d[key] for d in import_layers]),
                                       "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": run["traced_wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": run["traced_wall_s"] - run["wall_s"],
                                       "unit": "s"}
        notes["trace.overhead_s"] = "traced wall_s minus untraced wall_s, same run"
    else:
        metrics = {
            "setup_s": median(setup),
            "wall_s": run["wall_s"],
            "eval_p50_ms": run["eval_p50_ms"],
            "eval_p95_ms": run["eval_p95_ms"],
            "peak_rss_mb": run["rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    spec = WORKLOADS[workload]
    report = {
        "workload": workload,
        "why": spec["why"],
        "size": {"name": size, **spec[size]},
        "seed": seed,
        "passes": run["passes"],
        "traced_passes": run.get("traced_passes", 0),
        "ops_per_pass": run["ops"],
        "eval_samples_per_pass": run["eval_n"],
        "checked_ops_per_pass": run["attempted"] // (run["passes"] + run.get("traced_passes", 0)),
        "raw_wall_s": run["raw_wall_s"],
        "pass_raw_wall_s": run["pass_raw_wall_s"],
        "calibration_ms": run["calibration_ms"],
        "setup_samples_s": setup,
        "failed_ratio": run["failed"] / run["attempted"],
        "notes": notes,
        "failures": run["failures"],
        "machine": machine_facts(run),
    }
    return {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics, "report": report}


def print_summary(res: dict) -> None:
    rep = res["report"]
    print(f"== {rep['workload']} (seed {rep['seed']}, size {rep['size']}, "
          f"{rep['passes']} passes, {rep['traced_passes']} traced)")
    print(f"   why: {rep['why']}")
    for name, m in res["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        note = rep["notes"].get(name, "")
        print(f"   {name} {value} {m['unit']}" + (f"  [{note}]" if note else ""))
    print(f"   failed_ratio {rep['failed_ratio']:.6g} 1  "
          f"[{res['failed']} of {res['attempted']} ops; eval samples per pass: "
          f"{rep['eval_samples_per_pass']}]")
    for failure in rep["failures"]:
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in a second or so, for tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**60:
        parser.error("--seed must be in [0, 2**60)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "consolidate" / "__init__.py").is_file():
        print(f"no consolidate package under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.size)
            print_summary(results[name])
            print(json.dumps({"report": results[name]["report"]}))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    runs = list(results.values())
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
