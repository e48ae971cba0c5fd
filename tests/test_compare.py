"""Matched-frequency comparisons, ordering verification, and the optimizer."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from consolidate import (
    CostParams,
    MatchSpec,
    SearchBounds,
    TheoremReport,
    VerifyGrid,
    compare_matched,
    optimize,
    verify_theorems,
)
from consolidate import compare
from consolidate.compare import REFERENCE_COSTS
from consolidate.metrics import _period_costs
from consolidate.renewal import MAX_ORDER_UP_TO


def test_matched_rows_reference_example():
    spec = MatchSpec(demand_rate=1.0, target_cycle_length=5.0)
    result = compare_matched(spec, qh_list=[6])
    qp, tp, hp = result.rows
    assert qp.feasible and tp.feasible and hp.feasible
    # every row sits at the same expected consolidation cycle length
    assert qp.cycle_length == pytest.approx(5.0, abs=1e-9)
    assert tp.cycle_length == pytest.approx(5.0, abs=1e-9)
    assert hp.cycle_length == pytest.approx(5.0, abs=1e-9)
    # delay ordering: QP 2.0 < HP < TP 2.5
    assert qp.aod == pytest.approx(2.0)
    assert tp.aod == pytest.approx(2.5)
    assert qp.aod < hp.aod < tp.aod
    # squared delay: here the hybrid beats the quantity policy
    assert qp.aosd == pytest.approx(8.0)
    assert tp.aosd == pytest.approx(25.0 / 3.0)
    assert hp.aosd == pytest.approx(112.8573 / 15.0, abs=1e-3)
    assert hp.aosd < qp.aosd < tp.aosd
    assert result.verdicts["aod_qp_lt_hp"] is True
    assert result.verdicts["aod_hp_lt_tp"] is True
    assert result.verdicts["aosd_qp_vs_hp_signs"] == ["QP>HP"]


def test_matched_sign_flips_for_large_cap():
    spec = MatchSpec(demand_rate=1.0, target_cycle_length=5.0)
    result = compare_matched(spec, qh_list=[50])
    hp = result.rows[2]
    qp = result.rows[0]
    assert qp.aosd < hp.aosd  # ordering flips vs the q_H = 6 case
    assert result.verdicts["aosd_qp_vs_hp_signs"] == ["QP<HP"]


def test_hybrid_verdicts_count_a_tie_below_double_precision_as_not_above():
    # at q_H = 50 and mean load 5, HP differs from TP by P(X >= 50) ~ 1e-32
    result = compare_matched(MatchSpec(1.0, 5.0), qh_list=[6, 50])
    tp, hp = result.rows[1], result.rows[3]
    assert (hp.aod, hp.aosd) == (tp.aod, tp.aosd)
    assert result.verdicts["aod_hp_lt_tp"] is True
    assert result.verdicts["aosd_hp_lt_tp"] is True


@pytest.mark.parametrize("share, verdict", [(0.0, True), (0.5, True), (2.0, False)])
def test_hybrid_verdicts_tie_within_the_relative_slack(share, verdict):
    tp = compare.ComparisonRow("TP", None, None, True, aod=2.5, aosd=25.0 / 3.0)
    above = 1.0 + share * compare.TIE_SLACK
    hp = compare.ComparisonRow("HP", None, None, True, aod=2.5 * above, aosd=25.0 / 3.0 * above)
    qp = compare.ComparisonRow("QP", None, None, False)
    verdicts = compare._verdicts([qp, tp, hp])
    assert verdicts["aod_hp_lt_tp"] is verdict
    assert verdicts["aosd_hp_lt_tp"] is verdict


def test_matched_replenishment_levels():
    spec = MatchSpec(demand_rate=1.0, target_cycle_length=5.0, target_replenish_length=20.0)
    result = compare_matched(spec, qh_list=[6], costs=REFERENCE_COSTS)
    qp, tp, hp = result.rows
    assert qp.order_up_to == 15  # (n-1) q with n = 4
    assert tp.order_up_to == 19  # rate * E[L^R] - 1
    assert hp.order_up_to == 19
    assert qp.air_exact == pytest.approx(7.5)
    assert tp.air_approx == pytest.approx(19 * (2 * 5.0 + 20) / (2 * 20))
    assert hp.air_approx == pytest.approx(tp.air_approx, rel=1e-6)
    assert hp.air_approx >= qp.air_approx
    assert result.verdicts["air_hp_ge_qp"] is True
    assert result.verdicts["air_tp_hp_max_rel_gap"] < 0.05
    # costs supplied: every feasible row carries an exact-mode average cost
    assert qp.ac is not None and tp.ac is not None and hp.ac is not None


def test_qp_row_infeasible_when_target_not_integer():
    spec = MatchSpec(demand_rate=1.0, target_cycle_length=5.5)
    result = compare_matched(spec, qh_list=[8])
    qp = result.rows[0]
    assert not qp.feasible
    assert qp.notes  # reason recorded, row not dropped
    assert result.rows[1].feasible and result.rows[2].feasible


def test_hp_row_infeasible_when_cap_too_small():
    spec = MatchSpec(demand_rate=1.0, target_cycle_length=5.0)
    result = compare_matched(spec, qh_list=[5, 6])
    tight = result.rows[2]
    assert not tight.feasible and tight.notes
    assert result.rows[3].feasible


def test_match_spec_validation():
    with pytest.raises(ValueError):
        MatchSpec(0.0, 5.0)
    with pytest.raises(ValueError):
        MatchSpec(1.0, 5.0, target_replenish_length=4.0)


@pytest.mark.parametrize("args, message", [
    ((math.inf, 5.0), "demand_rate must be finite, got inf"),
    ((1.0, math.inf), "target_cycle_length must be finite, got inf"),
    ((1.0, 5.0, math.inf), "target_replenish_length must be finite, got inf"),
    ((1.0, 5.0, math.nan), "target_replenish_length must be finite, got nan"),
])
def test_match_spec_rejects_non_finite_values(args, message):
    with pytest.raises(ValueError) as err:
        MatchSpec(*args)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# theorem verification


def test_default_grid_fully_verifies():
    report = verify_theorems()
    assert report.points == 270
    assert report.aod_violations == []
    assert report.aosd_vs_tp_violations == []
    assert report.sq_delay_qp_worse > 0 and report.sq_delay_hp_worse > 0
    assert report.air_max_rel_gap <= 0.05
    assert report.air_order_violations == []
    assert report.cost_order_violations == []
    assert report.exact_ok and report.approx_ok


def test_small_grid_report_shape():
    grid = VerifyGrid(demand_rates=(1.0,), q_values=(3, 5), qh_extra=(1, 2),
                      replenish_multiples=(2,))
    report = verify_theorems(grid)
    assert report.points == 4
    assert report.air_points == 4
    d = report.to_dict()
    assert d["exact_ok"] is True
    assert set(d) >= {"points", "aod_violations", "cost_order_violations"}


@pytest.mark.parametrize("field, values, message", [
    ("demand_rates", (), "demand_rates must be nonempty"),
    ("replenish_multiples", [], "replenish_multiples must be nonempty"),
    ("demand_rates", (-1,), "demand_rates must be finite numbers > 0, got -1"),
    ("demand_rates", (math.inf,), "demand_rates must be finite numbers > 0, got inf"),
    ("demand_rates", (math.nan,), "demand_rates must be finite numbers > 0, got nan"),
    ("demand_rates", (True,), "demand_rates must be finite numbers > 0, got True"),
    ("demand_rates", ("1",), "demand_rates must be finite numbers > 0, got '1'"),
    ("q_values", ("a",), "q_values must be integers >= 1, got 'a'"),
    ("q_values", (2.5,), "q_values must be integers >= 1, got 2.5"),
    ("q_values", (True,), "q_values must be integers >= 1, got True"),
    ("qh_extra", (0,), "qh_extra must be integers >= 1, got 0"),
    ("replenish_multiples", (2, 0), "replenish_multiples must be integers >= 1, got 0"),
])
def test_verify_grid_validation(field, values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VerifyGrid(**{field: values})


def test_verify_grid_stores_tuples():
    grid = VerifyGrid(demand_rates=[1, 2.5], q_values=range(2, 4))
    assert grid.demand_rates == (1, 2.5)
    assert grid.q_values == (2, 3)


def test_report_tolerances_are_constants():
    with pytest.raises(TypeError):
        TheoremReport(air_rel_tol=0.5)
    d = TheoremReport().to_dict()
    assert (d["air_rel_tol"], d["cost_slack"]) == (0.05, 1e-9)


# ---------------------------------------------------------------------------
# optimizer


def test_optimizer_immediate_dispatch_when_waiting_dominates():
    costs = CostParams(replenish_fixed=1.0, holding=0.1, dispatch_fixed=0.0,
                       wait_linear=1e4)
    result = optimize(1.0, costs, "quantity", SearchBounds(q_max=6, order_up_to_max=12))
    assert result.best.policy.q == 1


def test_optimizer_scale_economies_drive_to_bounds():
    costs = CostParams(dispatch_fixed=100.0)
    bounds = SearchBounds(q_max=5, order_up_to_max=5, period_max=8.0)
    result = optimize(1.0, costs, "quantity", bounds)
    assert result.best.policy.q == bounds.q_max
    assert any("q bound" in w for w in result.warnings)
    result_tp = optimize(1.0, costs, "time", bounds)
    assert result_tp.best.policy.period == pytest.approx(8.0, abs=1e-4)
    assert any("period bound" in w for w in result_tp.warnings)


def test_optimizer_certificate_and_trace():
    costs = REFERENCE_COSTS
    bounds = SearchBounds(q_max=4, order_up_to_max=8, period_max=10.0)
    result = optimize(1.0, costs, "hybrid", bounds)
    assert result.evaluations == len(result.trace)
    assert result.best_cost == min(t["ac"] for t in result.trace)


@pytest.mark.parametrize("kind, calls", [("hybrid", 3), ("time", 1), ("quantity", 0)])
def test_optimizer_scans_once_per_cap(monkeypatch, kind, calls):
    levels = []

    def counting(demand_rate, costs, q, periods, order_up_to):
        levels.append(order_up_to)
        return _period_costs(demand_rate, costs, q, periods, order_up_to)

    monkeypatch.setattr(compare, "_period_costs", counting)
    bounds = SearchBounds(q_max=3, order_up_to_max=6, period_max=10.0)
    result = optimize(1.0, REFERENCE_COSTS, kind, bounds)
    assert levels == [bounds.order_up_to_max] * calls
    assert result.evaluations == len(result.trace)


def test_hybrid_family_beats_time_family():
    # matched-frequency cost ordering carries over to the optima
    costs = REFERENCE_COSTS
    bounds = SearchBounds(q_max=8, order_up_to_max=16, period_max=12.0)
    hp = optimize(1.0, costs, "hybrid", bounds)
    tp = optimize(1.0, costs, "time", bounds)
    assert hp.best_cost <= tp.best_cost + 1e-9


def test_optimizer_validation():
    with pytest.raises(ValueError):
        optimize(1.0, REFERENCE_COSTS, "other")
    with pytest.raises(ValueError):
        SearchBounds(q_max=0)


@pytest.mark.parametrize("field, value", [
    ("q_max", 2.5), ("q_max", True), ("q_max", "3"),
    ("order_up_to_max", 4.0), ("order_up_to_max", False),
])
def test_search_bounds_take_integer_levels(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        SearchBounds(**{field: value})
    bounds = SearchBounds(np.int64(3), np.int64(4))
    assert (type(bounds.q_max), type(bounds.order_up_to_max)) == (int, int)


def test_search_bounds_stop_at_the_capacity_limit():
    # every family: a quantity optimize at this bound once ran for over a minute
    with pytest.raises(ValueError, match="order_up_to_max 10000000 exceeds capacity limit 10000$"):
        SearchBounds(1, 10**7)
    assert SearchBounds(1, MAX_ORDER_UP_TO).order_up_to_max == MAX_ORDER_UP_TO


@pytest.mark.parametrize("kind", ["hybrid", "time"])
def test_optimizer_scan_raises_where_the_renewal_series_diverges(kind):
    # load means down to 2.5e-13: g(0) is within 1e-12 of 1
    with pytest.raises(ValueError, match="renewal series diverges"):
        optimize(0.5, REFERENCE_COSTS, kind, SearchBounds(1, 1, 1e-10))


def test_optimizer_scan_overflow_is_prompt():
    # T**3 overflows in the cycle metrics; nothing the size of rate*T is built
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            optimize(1.0, REFERENCE_COSTS, "time", SearchBounds(1, 1, 1e300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 2**20
