"""Write bench/references.json: stored outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/make_references.py

Stores, for each size and the default seed, the best point and cost of every
optimize problem and the exact-large systems with their avg_cost.  Other
seeds fall back to the structural checks.  Regenerate only at a commit whose
outputs are known to be right.
"""

import json
from pathlib import Path

import workloads
from spec import WORKLOADS

DEFAULT_SEED = 0


def main() -> None:
    out = {}
    for size in ("full", "tiny"):
        spec = WORKLOADS["optimize"][size]
        opt = workloads.Optimize(DEFAULT_SEED, spec, None)
        best = [workloads.best_point(op()) for op in opt.ops]
        large = workloads.ExactLarge(DEFAULT_SEED, WORKLOADS["exact-large"][size], None)
        costs = [op()[1].avg_cost for op in large.ops]
        out[size] = {"optimize": {str(DEFAULT_SEED): best},
                     "exact-large": {str(DEFAULT_SEED): {"systems": large.systems,
                                                         "avg_cost": costs}}}
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
