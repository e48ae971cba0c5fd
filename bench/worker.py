"""One benchmark run of a workload in a fresh interpreter; prints one JSON object.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --size full|tiny --reps R --trace 0|1

run.py starts this with PYTHONPATH set to the checkout's src/ and the BLAS
thread cap in the environment.  ``--probe`` only reports the moment
``import consolidate`` returned, for the set-up time.

A run makes R passes over the workload's operations and probes, the same
inputs each time, with every functools cache of the package cleared before
each operation and probe, so that every pass computes from scratch.

On a shared machine the same code runs at speeds up to 2x apart, in phases
that can last a whole run.  So every operation and probe is bracketed by a
short calibration of fixed work of the kinds the package does (a plain
Python loop, and small numpy calls from a Python loop), and its time is
scaled by REFERENCE_S over the mean of the two calibration times: the time
it would have taken at the speed where the calibration takes REFERENCE_S.
An operation's time is then the median of its scaled times over the passes.
``wall_s`` is the sum of these, and the latency percentiles are taken over
the per-probe medians; the raw times go into the report too.  Every pass
must give the same outputs, bit for bit.  With ``--trace 1``, untraced and
traced passes alternate; each traced pass has a fresh tracer, and its layer
metrics are medians over traced passes.
"""

import time

import consolidate

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

CALIBRATION_INTS = 10_000
CALIBRATION_DOTS = 300
REFERENCE_S = 8e-4    # the calibration's time at the reference speed


def cache_clearers() -> list:
    """The cache_clear of every functools cache bound in a consolidate module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "consolidate" or name.startswith("consolidate.")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


_CAL_A = np.arange(float(CALIBRATION_DOTS))
_CAL_B = np.ones(CALIBRATION_DOTS)


def calibrate() -> float:
    """Seconds of a fixed mix of the work the package does, plain interpreter
    work and small numpy calls from a Python loop: the machine's speed for
    that work right now."""
    start = time.perf_counter()
    count = 0
    for i in range(CALIBRATION_INTS):
        count += i
    total = 0.0
    for i in range(1, CALIBRATION_DOTS):
        total += float(_CAL_A[:i].dot(_CAL_B[:i]))
    return time.perf_counter() - start


def run_pass(workload, clearers, tracer=None, probes=True, checked=None):
    """One pass: (speed-scaled seconds per operation, raw seconds per operation,
    outputs, speed-scaled probe latencies in ms, calibration seconds).

    Each operation and probe is bracketed by calibrations, and its time is
    scaled by REFERENCE_S over their mean.  With a ``checked`` list, each
    operation's own check is appended to it.
    """
    import workloads

    latencies = workloads.EVAL_MS
    latencies.clear()
    scaled, raw, outputs = [], [], []
    calibrations = [calibrate()]

    def clear_caches():
        # before recording starts: cache_clear also resets the hit counts
        for clear in clearers:
            clear()

    def run(fn):
        first = len(latencies)
        start = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - start
        calibrations.append(calibrate())
        factor = 2.0 * REFERENCE_S / (calibrations[-2] + calibrations[-1])
        for k in range(first, len(latencies)):
            latencies[k] *= factor
        return out, seconds, seconds * factor

    for i, op in enumerate(workload.ops):
        clear_caches()
        with tracer.recording() if tracer else contextlib.nullcontext():
            out, seconds, seconds_scaled = run(op)
        raw.append(seconds)
        scaled.append(seconds_scaled)
        outputs.append(out)
        if checked is not None:
            checked.append(workload.check_op(i, out))
    if probes:
        for cfg in workload.probes(outputs):
            clear_caches()
            run(functools.partial(workloads.timed_eval, cfg))
    return scaled, raw, outputs, list(latencies), calibrations


def measure(workload, reps: int, trace: bool) -> dict:
    clearers = cache_clearers()
    plan = [False] * reps
    if trace:
        plan = [False, True] * max(1, reps // 3)
    plain, raw, traced, latencies, layers, digests, checked = [], [], [], [], [], [], []
    calibrations = []
    outputs0 = None
    for traced_pass in plan:
        tracer = None
        if traced_pass:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            times, raw_times, outputs, eval_ms, calib = run_pass(
                workload, clearers, tracer, not traced_pass, checked if outputs0 is None else None)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            traced.append(times)
            layers.append(tracer.layer_metrics())
        else:
            plain.append(times)
            raw.append(raw_times)
            latencies.append(eval_ms)
            calibrations += calib
        digests.append(workload.digest(outputs))
        if outputs0 is None:
            outputs0 = outputs

    problems = [found for found in checked if found is not None] + workload.check(outputs0)
    failures = [p for found in problems for p in found]
    n_failed = sum(1 for found in problems if found)
    failed = 0
    for i, digest in enumerate(digests):
        if digest == digests[0]:
            failed += n_failed
        else:
            failed += len(problems)
            failures.append(f"pass {i} outputs differ from pass 0 for the same seed")

    typical = np.median(np.asarray(plain), axis=0)
    lat = np.median(np.asarray(latencies), axis=0)
    out = {
        "wall_s": float(typical.sum()),
        "raw_wall_s": float(np.median(np.asarray(raw), axis=0).sum()),
        "pass_raw_wall_s": [float(sum(t)) for t in raw],
        "calibration_ms": {"reference": REFERENCE_S * 1e3,
                           "median": float(np.median(calibrations)) * 1e3,
                           "min": float(np.min(calibrations)) * 1e3},
        "ops": len(workload.ops),
        "passes": len(plain),
        "eval_n": int(lat.size),
        "eval_p50_ms": float(np.percentile(lat, 50)),
        "eval_p95_ms": float(np.percentile(lat, 95)),
        "attempted": len(problems) * len(plan),
        "failed": failed,
        "failures": failures[:20],
    }
    if trace:
        out["traced_passes"] = len(traced)
        out["traced_wall_s"] = float(np.median(np.asarray(traced), axis=0).sum())
        out["layers"] = {}
        for name, (_, unit, note) in layers[0].items():
            values = [pass_layers[name][0] for pass_layers in layers]
            value = None if None in values else median(values)
            out["layers"][name] = (value, unit, note)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    package = Path(consolidate.__file__).resolve()
    if SRC_DIR.resolve() not in package.parents:
        print(f"consolidate was imported from {package}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0

    import scipy

    import workloads

    refs = json.loads((BENCH_DIR / "references.json").read_text())
    workload = workloads.build(args.workload, args.seed, args.size, refs)
    out = measure(workload, args.reps, bool(args.trace))
    out["imported_at"] = IMPORTED_AT
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["facts"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "consolidate_file": str(package),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches_cleared": len(cache_clearers()),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
