"""The benchmark's workloads: why each was chosen and its input size.

Pure data, so that run.py can read it without importing the package.  A
pass runs every operation of a workload once; ``reps`` is the number of
passes one run makes at ``--seconds 20`` (scaled in proportion to
``--seconds``, never below two), fixed so that the pass count does not
depend on how fast the program is.
"""

DESIGN_SECONDS = 20

WORKLOADS = {
    "optimize": {
        "why": "many tiny exact evaluations in small optimize calls: per-call overhead in "
               "metrics and truncated_poisson dominate, renewal builds one small table per "
               "probe",
        # problems: seeded cost sets, each optimized as a hybrid and a time
        # policy within the bounds (q_max, order_up_to_max, period_max)
        "full": {"problems": 3, "hybrid": (2, 1, 20.0), "time": (1, 2, 20.0),
                 "probes": 200, "spread": 64, "reps": 15},
        "tiny": {"problems": 1, "hybrid": (1, 1, 5.0), "time": (1, 1, 5.0),
                 "probes": 8, "spread": 4, "reps": 2},
    },
    "exact-large": {
        "why": "distinct large systems (Q in [1000, 10000], wide load support): the renewal "
               "recursion and increment builders dominate, the table cache never hits",
        "full": {"systems": 200, "reps": 6},
        "tiny": {"systems": 8, "reps": 2},
    },
    "simulate-narrow": {
        "why": "README and acceptance systems at rate 1, load ~ q: the simulator's per-cycle "
               "split loop dominates and its generators waste nothing",
        # each system is simulated by `calls` seeded calls of `batches`
        # batches of `batch_size` cycles
        "full": {"calls": 4, "batches": 4, "batch_size": 2000, "probes": 100, "spread": 32,
                 "reps": 15},
        "tiny": {"calls": 2, "batches": 2, "batch_size": 100, "probes": 4, "spread": 2,
                 "reps": 2},
    },
    "simulate-wide-cap": {
        "why": "HP(q=200, T=5, Q=100), mean load ~5 far below q: the capped-cycle generator "
               "draws ~40x the orders and dominates time and memory",
        "full": {"calls": 5, "batches": 4, "batch_size": 200, "probes": 200, "spread": 128,
                 "reps": 15},
        "tiny": {"calls": 2, "batches": 2, "batch_size": 50, "probes": 8, "spread": 4,
                 "reps": 2},
    },
}


def reps(workload: str, size: str, seconds: int) -> int:
    """Passes of one run: the workload's count at DESIGN_SECONDS, in proportion."""
    return max(2, round(WORKLOADS[workload][size]["reps"] * seconds / DESIGN_SECONDS))
