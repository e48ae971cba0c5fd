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

Regenerate the file only from a version whose outputs are known to be right:

    PYTHONPATH=src python tests/test_compare_pins.py
"""

import hashlib
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

PINS = Path(__file__).resolve().parent / "data" / "compare_pins.json"

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


@pytest.mark.parametrize("name, grid", VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
def test_verify_theorems_matches_pin(pins, name, grid):
    assert verify_pin(grid) == pins["verify_theorems"][name]


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(compute_pins(), indent=1) + "\n")
