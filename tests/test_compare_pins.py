"""Exact-equality pins of the optimizer, matched comparison and verification.

``tests/data/compare_pins.json`` holds the outputs of ``optimize``,
``compare_matched`` and ``verify_theorems`` on small inputs, as computed by a
reference version of ``compare.py``.  A rewrite of that module must reproduce
them bit for bit: every float is compared after a JSON round trip, which keeps
its exact value.  An optimizer trace is pinned by its length, its SHA-256 over
the ``repr`` of every (q, order_up_to, period, ac) entry, and its minimum.
The optimizer's period scan is a batched evaluation that may differ from the
scalar ``average_cost`` in the last bits, so each entry's ``ac`` is first
checked against that scalar oracle at relative 1e-13 and the oracle's value
is what gets pinned; the optimizer's result is compared exactly.

Every quantity-, time- and hybrid-policy value behind the pins, and the
seed-0 optimize references of ``bench/references.json``, are also checked
against the 40-digit oracle of ``tests/oracle.py``.  Regenerate the file only
from a version whose outputs are known to be right, after ``tests/oracle.py``
has reported each moved time- and hybrid-policy value's error against the
oracle before and after:

    PYTHONPATH=src python tests/oracle.py
    PYTHONPATH=src python tests/test_compare_pins.py
"""

import dataclasses
import hashlib
import importlib
import json
from pathlib import Path

import pytest

from consolidate import (
    CostParams,
    HybridPolicy,
    MatchSpec,
    QuantityPolicy,
    SearchBounds,
    SystemConfig,
    TimePolicy,
    VerifyGrid,
    average_cost,
    compare_matched,
    optimize,
    verify_theorems,
)
from consolidate.compare import REFERENCE_COSTS
from oracle import oracle_eval, relative_error

PINS = Path(__file__).resolve().parent / "data" / "compare_pins.json"
BENCH = Path(__file__).resolve().parents[1] / "bench"

MIXED = CostParams(replenish_fixed=5.0, holding=0.2, dispatch_fixed=10.0, wait_linear=2.0)
DISPATCH_HEAVY = CostParams(dispatch_fixed=100.0)
REPLENISH_HEAVY = CostParams(replenish_fixed=200.0, holding=0.01, dispatch_fixed=1.0,
                             wait_linear=2.0)

# (name, demand_rate, costs, kind, bounds): interior optima, optima on each
# bound, and all-zero costs, where every probe ties and the tie-break decides.
OPTIMIZE_CASES = (
    ("qp-reference", 1.0, REFERENCE_COSTS, "quantity", SearchBounds(4, 12, 6.0)),
    ("qp-dispatch-heavy", 1.0, DISPATCH_HEAVY, "quantity", SearchBounds(3, 6, 6.0)),
    ("qp-zero-costs", 1.0, CostParams(), "quantity", SearchBounds(3, 6, 3.0)),
    ("tp-reference", 1.5, REFERENCE_COSTS, "time", SearchBounds(2, 3, 6.0)),
    ("tp-mixed", 1.0, MIXED, "time", SearchBounds(2, 3, 6.0)),
    ("tp-replenish-heavy", 1.0, REPLENISH_HEAVY, "time", SearchBounds(2, 3, 6.0)),
    ("tp-zero-costs", 2.0, CostParams(), "time", SearchBounds(3, 0, 3.0)),
    ("hp-reference", 1.0, REFERENCE_COSTS, "hybrid", SearchBounds(3, 2, 8.0)),
    ("hp-mixed", 1.0, MIXED, "hybrid", SearchBounds(5, 2, 6.0)),
    ("hp-zero-costs", 1.0, CostParams(), "hybrid", SearchBounds(2, 1, 3.0)),
)

# (name, spec, qh_list, costs): without a replenishment target, with one and
# costs, with one and no costs, and with levels that need rounding.
COMPARE_CASES = (
    ("no-target", MatchSpec(1.0, 5.0), [5, 6, 50], None),
    ("target-costs", MatchSpec(1.0, 5.0, 20.0), [6, 8], REFERENCE_COSTS),
    ("target-no-costs", MatchSpec(1.0, 5.0, 20.0), [6, 8], None),
    ("rounded-levels", MatchSpec(2.0, 2.75, 9.3), [4, 6, 12], MIXED),
)

SMALL_GRID = dict(demand_rates=(0.5, 2.0), q_values=(2, 3, 7), qh_extra=(1, 4))
VERIFY_CASES = (
    ("reference-costs", VerifyGrid(replenish_multiples=(2, 8), **SMALL_GRID)),
    # replenishment- and holding-heavy costs, where the approximate HP and TP
    # costs tie: a match off its root by the 1e-9 mean tolerance once put HP
    # above TP by more than the cost slack at four points
    ("cost-violations", VerifyGrid(replenish_multiples=(1, 2, 8),
                                   costs=CostParams(replenish_fixed=50.0, holding=2.0),
                                   **SMALL_GRID)),
)


def _json(value):
    return json.loads(json.dumps(value))


POLICY = {
    "quantity": lambda t: QuantityPolicy(t["q"]),
    "time": lambda t: TimePolicy(t["period"]),
    "hybrid": lambda t: HybridPolicy(t["q"], t["period"]),
}
KIND = {"quantity": "QP", "time": "TP", "hybrid": "HP"}
FAMILY = {label: kind for kind, label in KIND.items()}


def oracle_ac(rate, costs, kind, entry) -> float:
    """The scalar average cost of a trace entry, checked against its ``ac``."""
    cfg = SystemConfig(rate, POLICY[kind](entry), entry["order_up_to"], costs)
    ac = average_cost(cfg).avg_cost
    assert entry["ac"] == pytest.approx(ac, rel=1e-13, abs=0.0), (entry, ac)
    return ac


def optimize_pin(rate, costs, kind, bounds) -> dict:
    result = optimize(rate, costs, kind, bounds)
    entries = [(t["q"], t["order_up_to"], t["period"], oracle_ac(rate, costs, kind, t))
               for t in result.trace]
    digest = hashlib.sha256("\n".join(map(repr, entries)).encode()).hexdigest()
    return _json({"result": result.to_dict(), "trace_len": len(entries),
                  "trace_sha256": digest, "trace_min": min(e[3] for e in entries)})


def compare_pin(spec, qh_list, costs) -> dict:
    return _json(compare_matched(spec, qh_list, costs).to_dict())


def verify_pin(grid) -> dict:
    return _json(verify_theorems(grid).to_dict())


def matched_systems(pins, kinds):
    """Yield (where, row, cfg) for every matched row of a policy kind in
    ``kinds`` ("QP", "TP", "HP") that has a level, with its system."""
    for name, spec, _, costs in COMPARE_CASES:
        for row in pins["compare_matched"][name]["rows"]:
            if row["kind"] in kinds and row["order_up_to"] is not None:
                policy = POLICY[FAMILY[row["kind"]]](row)
                yield (f"compare_matched {name} {row['kind']}", row,
                       SystemConfig(spec.demand_rate, policy, row["order_up_to"],
                                    costs or CostParams()))


def pin_values(pins, kinds):
    """Yield (where, value, exact) for every value behind the pins of a
    policy kind in ``kinds`` ("QP", "TP", "HP"): each optimize best cost, and
    each matched row's ``ac``, ``air_exact``, ``aod`` and ``aosd``, with its
    40-digit value from the oracle."""
    for name, rate, costs, kind, _ in OPTIMIZE_CASES:
        if KIND[kind] in kinds:
            result = pins["optimize"][name]["result"]
            best = result["best"]
            cfg = SystemConfig(rate, POLICY[kind](best), best["order_up_to"], costs)
            yield f"optimize {name} best_cost", result["best_cost"], oracle_eval(cfg)["ac"]
    for where, row, cfg in matched_systems(pins, kinds):
        exact = oracle_eval(cfg)
        for key, oracle in (("ac", "ac"), ("air_exact", "air"), ("aod", "aod"),
                            ("aosd", "aosd")):
            if row[key] is not None:
                yield f"{where} {key}", row[key], exact[oracle]


def compute_pins() -> dict:
    return {
        "optimize": {name: optimize_pin(*args) for name, *args in OPTIMIZE_CASES},
        "compare_matched": {name: compare_pin(*args) for name, *args in COMPARE_CASES},
        "verify_theorems": {name: verify_pin(grid) for name, grid in VERIFY_CASES},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name, rate, costs, kind, bounds", OPTIMIZE_CASES,
                         ids=[c[0] for c in OPTIMIZE_CASES])
def test_optimize_matches_pin(pins, name, rate, costs, kind, bounds):
    assert optimize_pin(rate, costs, kind, bounds) == pins["optimize"][name]


@pytest.mark.parametrize("name, spec, qh_list, costs", COMPARE_CASES,
                         ids=[c[0] for c in COMPARE_CASES])
def test_compare_matched_matches_pin(pins, name, spec, qh_list, costs):
    assert compare_pin(spec, qh_list, costs) == pins["compare_matched"][name]


# The largest relative error of a pinned time-policy value against the
# 40-digit oracle measured 4.2e-16 (the matched TP rows' air_exact).
TIME_PIN_TOL = 1e-15


def test_time_pins_match_the_40_digit_oracle(pins):
    values = list(pin_values(pins, ("TP",)))
    assert len(values) == 15
    for where, value, exact in values:
        assert relative_error(value, exact) <= TIME_PIN_TOL, (where, value, float(exact))


# The largest relative error of a pinned quantity- or hybrid-policy value
# against the 40-digit oracle measured 6.5e-16 (a matched HP row's aosd).
PIN_TOL = 1e-15


def test_quantity_and_hybrid_pins_match_the_40_digit_oracle(pins):
    values = list(pin_values(pins, ("QP", "HP")))
    assert len(values) == 35
    for where, value, exact in values:
        assert relative_error(value, exact) <= PIN_TOL, (where, value, float(exact))


def test_squared_delay_costs_match_the_40_digit_oracle(pins):
    # the systems behind the matched rows, each charged for its squared delay
    # (measured at most 4.2e-16)
    systems = list(matched_systems(pins, ("QP", "TP", "HP")))
    assert len(systems) == 11
    for where, _, cfg in systems:
        cfg = dataclasses.replace(cfg, costs=dataclasses.replace(cfg.costs, wait_squared=1.5))
        value = average_cost(cfg, delay="squared").avg_cost
        exact = oracle_eval(cfg, "squared")["ac"]
        assert relative_error(value, exact) <= PIN_TOL, (where, value, float(exact))


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workload module, imported from ``bench/`` unchanged."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


# The largest relative error of a stored optimize best cost against the
# 40-digit oracle measured 4.6e-15: the tiny TP(5) at Q = 0, stored when time
# loads were cut at a Poisson tail of 1e-12; the others, and what the code
# computes at each stored point, erred by at most 6.2e-16.
# The exact-large references are left out: their levels up to Q = 10 000
# take the 40-digit recursion minutes a system.
REFERENCE_TOL = 1e-14


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_bench_optimize_references_match_the_40_digit_oracle(bench_workloads, size):
    references = json.loads((BENCH / "references.json").read_text())[size]["optimize"]["0"]
    spec = importlib.import_module("spec").WORKLOADS["optimize"][size]
    problems = bench_workloads.Optimize(0, spec, None).problems
    assert len(references) == len(problems)
    for (kind, costs, _), ref in zip(problems, references):
        cfg = SystemConfig(1.0, POLICY[kind](ref), ref["order_up_to"], costs)
        exact = oracle_eval(cfg)["ac"]
        assert relative_error(ref["best_cost"], exact) <= REFERENCE_TOL, (ref, float(exact))
        assert relative_error(average_cost(cfg).avg_cost, exact) <= PIN_TOL, (ref, float(exact))


@pytest.mark.parametrize("name, grid", VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
def test_verify_theorems_matches_pin(pins, name, grid):
    assert verify_pin(grid) == pins["verify_theorems"][name]


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(compute_pins(), indent=1) + "\n")
