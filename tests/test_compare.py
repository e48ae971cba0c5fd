"""Matched-frequency comparisons, ordering verification, and the optimizer."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consolidate import (
    CostParams,
    HybridPolicy,
    MatchSpec,
    QuantityPolicy,
    SystemConfig,
    TimePolicy,
    average_cost,
    SearchBounds,
    TheoremReport,
    VerifyGrid,
    compare_matched,
    optimize,
    verify_theorems,
)
from consolidate import compare, metrics, renewal
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


@pytest.mark.parametrize("rate", [1.0, 0.1, 0.4])
def test_matched_rows_at_order_up_to_level_zero_report_no_air_gap(rate):
    # rate * E[L^R] - 1 rounds to level 0, where no policy holds inventory:
    # the TP~HP AIR gap is 0/0 and reads None, and the orderings still hold
    result = compare_matched(MatchSpec(rate, 1.0, 1.0), [2])
    tp, hp = result.rows[1:]
    assert tp.order_up_to == hp.order_up_to == 0
    assert tp.air_approx == hp.air_approx == 0.0
    assert result.verdicts["air_tp_hp_max_rel_gap"] is None
    assert result.verdicts["aod_hp_lt_tp"] and result.verdicts["aosd_hp_lt_tp"]
    assert result.verdicts.get("air_hp_ge_qp", True)
    # the note names the level used, not the -1 that rounding gave
    notes = [] if rate == 1.0 else [f"order-up-to level {rate - 1.0:g} rounded to 0"]
    assert tp.notes == hp.notes == notes


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


def test_verify_grid_at_order_up_to_level_zero_skips_the_air_gap():
    # n q - 1 = 0 at n = 1: every AIR is 0, so that point adds no gap, and its
    # orderings are still checked
    def report(multiples):
        return verify_theorems(VerifyGrid(demand_rates=(1.0,), q_values=(1, 2), qh_extra=(1,),
                                          replenish_multiples=multiples))

    both, above = report((1, 2)), report((2,))
    assert (both.points, both.air_points) == (2, 4)
    assert both.exact_ok and both.approx_ok
    assert both.air_max_rel_gap == above.air_max_rel_gap
    assert both.air_order_violations == both.cost_order_violations == []
    assert report((1,)).air_max_rel_gap == 0.0


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


def listed_trace(monkeypatch, kind, bounds):
    """``optimize``'s result and its trace as a list of dicts, built from the
    scan tables and the golden probes of the run: per point, q outermost,
    its scan then its probes."""
    tables, searches = [], []
    scan, search = compare._period_costs, compare._golden_searches

    def scanning(demand_rate, costs, q, periods, order_up_to):
        tables.append((q, scan(demand_rate, costs, q, periods, order_up_to)))
        return tables[-1][1]

    def searching(evaluate, lo, hi):
        found = search(evaluate, lo, hi)
        searches.append(found[0])
        return found

    monkeypatch.setattr(compare, "_period_costs", scanning)
    monkeypatch.setattr(compare, "_golden_searches", searching)
    result = optimize(1.0, REFERENCE_COSTS, kind, bounds)
    if kind == "quantity":
        return result, [{"q": q, "order_up_to": level, "period": None,
                         "ac": average_cost(SystemConfig(1.0, QuantityPolicy(q), level,
                                                         REFERENCE_COSTS)).avg_cost}
                        for q in range(1, bounds.q_max + 1)
                        for level in range(0, bounds.order_up_to_max + 1, q)]
    probes, = searches
    step = bounds.period_max / compare._SCAN_POINTS
    grid = [step * (i + 1) for i in range(compare._SCAN_POINTS)]
    trace = []
    for i, (q, table) in enumerate(tables):
        for level, costs in enumerate(table.tolist()):
            for steps in (zip(grid, costs), probes[i * len(table) + level]):
                trace += [{"q": q, "order_up_to": level, "period": t, "ac": ac} for t, ac in steps]
    return result, trace


@pytest.mark.parametrize("kind, bounds", [
    ("hybrid", SearchBounds(2, 3, 10.0)), ("time", SearchBounds(1, 3, 10.0)),
    ("quantity", SearchBounds(2, 4)),
])
def test_columnar_trace_is_the_list_of_its_entries(monkeypatch, kind, bounds):
    result, listed = listed_trace(monkeypatch, kind, bounds)
    trace = result.trace
    assert len(trace) == result.evaluations == len(listed)
    assert trace == listed and listed == trace and not trace != listed
    assert trace != listed[:-1] and trace != listed[::-1]
    assert list(trace) == listed == [trace[i] for i in range(len(trace))]
    assert [trace[-1], trace[-len(trace)]] == [listed[-1], listed[0]]
    # slices read as the list's: plain, negative, stepped and empty
    for cut in (slice(2), slice(-3, None), slice(1, -1, 7), slice(None, None, -5),
                slice(len(trace), None), slice(5, 2)):
        assert trace[cut] == listed[cut] and type(trace[cut]) is list
    # the same Python types and floats, bit for bit
    assert json.dumps(list(trace)) == json.dumps(listed)
    for index in (len(trace), -len(trace) - 1):
        with pytest.raises(IndexError):
            trace[index]
    # read-only, and an entry read is the caller's own dict
    with pytest.raises(TypeError):
        trace[0] = listed[0]
    trace[0]["ac"] = None
    assert trace[0] == listed[0]


def test_columnar_trace_memory_per_entry():
    # the scan table's row per point and two floats per golden probe
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = optimize(1.0, REFERENCE_COSTS, "time", SearchBounds(1, 300, 20.0))
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(result.trace) > 300 * compare._SCAN_POINTS
    assert held <= 40 * len(result.trace)


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "20", True, None])
def test_search_bounds_take_a_finite_real_period_max(value):
    # an infinite bound once failed deep inside the scan, at its load means
    with pytest.raises(ValueError, match=re.escape(f"period_max must be a finite real number, "
                                                   f"got {value!r}")):
        SearchBounds(1, 1, value)
    assert SearchBounds(1, 1, np.float64(2.5)).period_max == 2.5


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


# ---------------------------------------------------------------------------
# the lockstep golden searches against searches one point at a time


def scalar_golden_min(f, lo, hi, tol):
    """Golden-section minimum of f on [lo, hi] to width tol; returns (x, f(x))."""
    a, b = lo, hi
    c = b - compare._GOLDEN * (b - a)
    d = a + compare._GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - compare._GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + compare._GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def scalar_point(f, values, grid):
    """(period, cost) of one point's scalar search: the golden search of f
    around the best cell of its scan ``values`` on ``grid``, which wins a
    tie."""
    i = min(range(len(grid)), key=lambda k: (values[k], grid[k]))
    lo = grid[i - 1] if i > 0 else grid[0] * 0.05
    hi = grid[i + 1] if i + 1 < len(grid) else grid[-1]
    period, ac = scalar_golden_min(f, lo, hi, compare._PERIOD_TOL)
    return (grid[i], values[i]) if values[i] <= ac else (period, ac)


def scalar_optimize(demand_rate, costs, policy_kind, bounds):
    """The optimizer with one scalar ``average_cost`` per golden step, point
    after point: the oracle of the lockstep searches.  Returns the result's
    dict, its trace and its best cost."""
    trace = []

    def probe(policy, order_up_to):
        ac = average_cost(SystemConfig(demand_rate, policy, order_up_to, costs)).avg_cost
        trace.append({"q": getattr(policy, "q", None), "order_up_to": order_up_to,
                      "period": getattr(policy, "period", None), "ac": ac})
        return ac

    caps = [None] if policy_kind == "time" else range(1, bounds.q_max + 1)
    step = bounds.period_max / compare._SCAN_POINTS
    grid = [step * (i + 1) for i in range(compare._SCAN_POINTS)]
    best = None
    for q in caps:
        if policy_kind != "quantity":
            make = TimePolicy if q is None else (lambda t, q=q: HybridPolicy(q, t))
            table = _period_costs(demand_rate, costs, q, grid, bounds.order_up_to_max)
        for order_up_to in range(0, bounds.order_up_to_max + 1,
                                 q if policy_kind == "quantity" else 1):
            if policy_kind == "quantity":
                policy = QuantityPolicy(q)
                ac = probe(policy, order_up_to)
            else:
                values = table[order_up_to].tolist()
                trace.extend({"q": q, "order_up_to": order_up_to, "period": t, "ac": v}
                             for t, v in zip(grid, values))
                period, ac = scalar_point(lambda t: probe(make(t), order_up_to), values, grid)
                policy = make(period)
            key = (ac, order_up_to, getattr(policy, "q", None), getattr(policy, "period", None))
            if best is None or key < best[0]:
                best = (key, SystemConfig(demand_rate, policy, order_up_to, costs))
    (best_cost, order_up_to, q, period), cfg = best
    warnings = []
    if q == bounds.q_max:
        warnings.append(f"optimum at q bound {bounds.q_max}")
    if order_up_to == bounds.order_up_to_max:
        warnings.append(f"optimum at order-up-to bound {bounds.order_up_to_max}")
    if period is not None and period > bounds.period_max - step:
        warnings.append(f"optimum near period bound {bounds.period_max}")
    result = compare.OptimResult(policy_kind, cfg, best_cost, len(trace), trace, warnings, bounds)
    return result.to_dict(), trace, best_cost


COSTS = st.builds(CostParams, *[st.floats(0.0, 100.0)] * 7)


@given(rate=st.floats(0.25, 4.0), costs=COSTS, kind=st.sampled_from(["time", "hybrid"]),
       bounds=st.builds(SearchBounds, st.integers(1, 3), st.integers(0, 2),
                        st.floats(0.5, 30.0)))
@example(rate=1.0, costs=REFERENCE_COSTS, kind="hybrid", bounds=SearchBounds(2, 1, 20.0))
@example(rate=1.0, costs=REFERENCE_COSTS, kind="time", bounds=SearchBounds(1, 2, 20.0))
@example(rate=1.0, costs=CostParams(), kind="hybrid", bounds=SearchBounds(2, 1, 3.0))
# one point, the deepest rounds
@example(rate=1.0, costs=REFERENCE_COSTS, kind="hybrid", bounds=SearchBounds(1, 0, 20.0))
# 27 points run at depth 1 until 6 stop, then 21 at depth 2
@example(rate=0.5, costs=CostParams(0.0, 76.3, 0.0, 31.2, 84.9, 16.5, 0.0), kind="hybrid",
         bounds=SearchBounds(9, 2, 5.1))
# the point at level 1 has its best scan cell at 0 and stops a step early
@example(rate=0.77, costs=CostParams(98.3, 39.8, 0.0, 0.0, 17.8, 50.1, 0.0), kind="time",
         bounds=SearchBounds(2, 1, 20.9))
@settings(max_examples=25, deadline=None)
def test_lockstep_optimize_is_the_scalar_search_bit_for_bit_up_to_level_two(rate, costs, kind,
                                                                             bounds):
    expected, trace, best_cost = scalar_optimize(rate, costs, kind, bounds)
    result = optimize(rate, costs, kind, bounds)
    assert result.to_dict() == expected
    assert result.best_cost == best_cost
    assert result.trace == trace


@pytest.mark.parametrize("rate, kind, bounds", [
    (1.0, "hybrid", SearchBounds(4, 8, 10.0)),
    (0.7, "time", SearchBounds(1, 12, 30.0)),
    (2.5, "hybrid", SearchBounds(3, 6, 8.0)),
])
def test_lockstep_optimize_matches_the_scalar_search_above_level_two(rate, kind, bounds):
    # above level 2 a golden row may differ from the scalar cost in the last
    # bits, and a step between two costs that tie within them may turn the
    # other way: the points agree to the search's tolerance
    expected, trace, best_cost = scalar_optimize(rate, REFERENCE_COSTS, kind, bounds)
    result = optimize(rate, REFERENCE_COSTS, kind, bounds)
    got = result.to_dict()
    assert (got["best"]["q"], got["best"]["order_up_to"], got["warnings"]) == (
        expected["best"]["q"], expected["best"]["order_up_to"], expected["warnings"])
    assert got["best"]["period"] == pytest.approx(expected["best"]["period"],
                                                  abs=10 * compare._PERIOD_TOL)
    assert result.best_cost == pytest.approx(best_cost, rel=1e-12, abs=0.0)
    low = [t for t in trace if t["order_up_to"] <= 2]
    assert [t for t in result.trace if t["order_up_to"] <= 2] == low
    for t in result.trace:
        cfg = SystemConfig(rate, TimePolicy(t["period"]) if t["q"] is None
                           else HybridPolicy(t["q"], t["period"]), t["order_up_to"],
                           REFERENCE_COSTS)
        assert t["ac"] == pytest.approx(average_cost(cfg).avg_cost, rel=1e-13, abs=0.0)


def test_lockstep_rows_that_stop_match_the_scalar_search(monkeypatch):
    # levels past 2 * BLOCK, where the golden rows stop once their state
    # settles: every point's best period and cost against its scalar search.
    # Hybrid rows, as time rows take the levels past their head from the
    # poles and stop no solve there.
    rate, bounds = 1.0, SearchBounds(2, 300, 5.0)
    settled = renewal._settled
    stops = []

    def counted(m, b, width):
        value = settled(m, b, width)
        stops.append(value is not None)
        return value

    golden = compare._row_costs    # marks the end of the scan with a None
    monkeypatch.setattr(renewal, "_settled", counted)
    monkeypatch.setattr(compare, "_row_costs", lambda *args: (stops.append(None), golden(*args))[1])
    points, _ = compare._period_points(rate, REFERENCE_COSTS, "hybrid", bounds)
    assert any(stops[stops.index(None):])
    step = bounds.period_max / compare._SCAN_POINTS
    grid = [step * (i + 1) for i in range(compare._SCAN_POINTS)]
    tables = {q: _period_costs(rate, REFERENCE_COSTS, q, grid, bounds.order_up_to_max)
              for q in range(1, bounds.q_max + 1)}
    deep = [point for point in points if point[1] >= 2 * renewal.BLOCK]
    assert len(deep) == bounds.q_max * (bounds.order_up_to_max + 1 - 2 * renewal.BLOCK)
    for policy, level, ac in deep:
        period, cost = scalar_point(lambda t: average_cost(SystemConfig(
            rate, HybridPolicy(policy.q, t), level, REFERENCE_COSTS)).avg_cost,
            tables[policy.q][level].tolist(), grid)
        assert policy.period == pytest.approx(period, abs=10 * compare._PERIOD_TOL)
        assert ac == pytest.approx(cost, rel=1e-13, abs=0.0)


def raised(call):
    with pytest.raises((ValueError, ArithmeticError)) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("kind", ["time", "hybrid"])
def test_lockstep_optimize_raises_the_scalar_search_error_where_a_step_diverges(kind):
    # the scans start at load mean 1.1e-12; the first golden probe of a point
    # whose cost rises with the period is at ~0.8e-12, where the renewal
    # series diverges
    bounds = SearchBounds(2, 2, 2.2e-10)
    for q in [None] if kind == "time" else [1, 2]:
        _period_costs(1.0, CostParams(wait_linear=1.0), q, [1.1e-12 * (i + 1) for i in range(200)],
                      2)
    args = (1.0, CostParams(wait_linear=1.0), kind, bounds)
    error = raised(lambda: optimize(*args))
    assert error == raised(lambda: scalar_optimize(*args))
    assert "renewal series diverges" in error[1]


def test_lockstep_optimize_raises_at_the_first_failing_point_in_search_order(monkeypatch):
    # Lorden's bracket fails from level 2 on, for the golden rows and the
    # scalar path, while the scan goes unchecked: points 2 and 3 fail, and
    # point 2, searched first one point at a time, is raised
    bracket = metrics.renewal._lorden_bracket

    def failing(mean, overshoot, defect, order_up_to):
        lower, upper = bracket(mean, overshoot, defect, order_up_to)
        return lower, np.where(np.asarray(order_up_to) >= 2, -1.0, upper)

    monkeypatch.setattr(metrics.renewal, "_lorden_bracket", failing)
    monkeypatch.setattr(metrics.renewal, "_check_lorden", lambda *args: None)
    args = (1e5, REFERENCE_COSTS, "time", SearchBounds(1, 3, 20.0))  # load means >= 500
    error = raised(lambda: optimize(*args))
    assert error == raised(lambda: scalar_optimize(*args))
    assert error[1].endswith("at order-up-to level 2")


def golden_probes(trace):
    """{(q, Q): the periods its golden search probed, in order}."""
    entries = {}
    for t in trace:
        entries.setdefault((t["q"], t["order_up_to"]), []).append(t["period"])
    return {key: periods[compare._SCAN_POINTS:] for key, periods in entries.items()}


@pytest.mark.parametrize("kind, bounds", [
    ("hybrid", SearchBounds(3, 5, 10.0)), ("time", SearchBounds(1, 7, 10.0)),
    ("hybrid", SearchBounds(3, 30, 10.0)),
])
def test_lockstep_rounds_stay_within_the_row_budget(monkeypatch, kind, bounds):
    calls = []  # the (q, Q, period) of each row, per call

    def recording(demand_rate, costs, q, levels, periods):
        caps = [None] * len(levels) if q is None else q.tolist()
        calls.append(list(zip(caps, levels.tolist(), periods.tolist())))
        return metrics._row_costs(demand_rate, costs, q, levels, periods)

    monkeypatch.setattr(compare, "_row_costs", recording)
    result = optimize(1.0, REFERENCE_COSTS, kind, bounds)
    probes = golden_probes(result.trace)
    steps = max(len(periods) for periods in probes.values())
    budget = compare._ROW_BUDGET
    # the first two points of every search in one call
    assert len(calls[0]) == 2 * len(probes)
    assert sorted(calls[0]) == sorted((q, level, t) for (q, level), periods in probes.items()
                                      for t in periods[:2])
    running = [len({(q, level) for q, level, _ in call}) for call in calls]
    assert all(len(call) <= max(n, budget) for call, n in zip(calls[1:], running[1:]))
    if 3 * len(probes) > budget:
        # a family above the budget: one call per step, one point per search
        assert len(calls) == steps - 1
        assert [len(call) for call in calls[1:]] == running[1:]
    else:
        depth = max(d for d in range(1, 8) if len(probes) * (2**d - 1) <= budget)
        assert depth > 1
        assert len(calls) <= math.ceil(steps / depth) + 1
    evaluated = {row for call in calls for row in call}
    assert all((q, level, t) in evaluated for (q, level), periods in probes.items()
               for t in periods)


@pytest.mark.parametrize("kind, bounds", [
    ("hybrid", SearchBounds(2, 1, 20.0)), ("time", SearchBounds(1, 7, 10.0)),
    ("hybrid", SearchBounds(1, 0, 20.0)),
])
def test_speculative_points_leave_no_trace(monkeypatch, kind, bounds):
    # an error on every row a search does not probe changes nothing
    args = (1.0, REFERENCE_COSTS, kind, bounds)
    expected = optimize(*args)
    probed = {(t["q"], t["order_up_to"], t["period"]) for t in expected.trace}
    flagged = []

    def failing_off_the_path(demand_rate, costs, q, levels, periods):
        cost, errors = metrics._row_costs(demand_rate, costs, q, levels, periods)
        caps = [None] * len(levels) if q is None else q.tolist()
        for r, row in enumerate(zip(caps, levels.tolist(), periods.tolist())):
            if row not in probed:
                errors[r] = ValueError(f"speculative row {row} was read")
                flagged.append(row)
        return cost, errors

    monkeypatch.setattr(compare, "_row_costs", failing_off_the_path)
    result = optimize(*args)
    assert flagged
    assert result.to_dict() == expected.to_dict()
    assert result.best_cost == expected.best_cost
    assert result.trace == expected.trace


@pytest.mark.parametrize("kind, bounds", [
    ("time", SearchBounds(1, 7, 10.0)), ("hybrid", SearchBounds(3, 5, 10.0)),
])
def test_golden_rows_in_reverse_order_change_nothing(monkeypatch, kind, bounds):
    # every call prices its rows in reverse order and returns them in their
    # own order: no cost depends on the order of the rows
    args = (1.0, REFERENCE_COSTS, kind, bounds)
    expected = optimize(*args)

    def reversed_rows(demand_rate, costs, q, levels, periods):
        last = len(levels) - 1
        cost, errors = metrics._row_costs(demand_rate, costs, None if q is None else q[::-1],
                                          levels[::-1], periods[::-1])
        return cost[::-1], {last - r: err for r, err in errors.items()}

    monkeypatch.setattr(compare, "_row_costs", reversed_rows)
    result = optimize(*args)
    assert result.to_dict() == expected.to_dict()
    assert result.best_cost == expected.best_cost
    assert result.trace == expected.trace


def test_closed_form_time_rows_are_priced_in_lockstep_and_speculated(monkeypatch):
    # load means >= 500: every golden row takes the closed form, inside
    # ``_row_costs``, with the scalar path's bits, in rounds that look ahead
    args = (1e5, REFERENCE_COSTS, "time", SearchBounds(1, 3, 20.0))
    expected, trace, best_cost = scalar_optimize(*args)
    calls, scalar = [], []
    rows = metrics._row_costs

    def recording(demand_rate, costs, q, levels, periods):
        calls.append((len(set(levels.tolist())), len(levels)))
        return rows(demand_rate, costs, q, levels, periods)

    monkeypatch.setattr(compare, "_row_costs", recording)
    monkeypatch.setattr(metrics, "average_cost", lambda *a, **k: scalar.append(a))
    result = optimize(*args)
    assert not scalar
    assert result.to_dict() == expected
    assert result.best_cost == best_cost
    assert result.trace == trace
    # after the first call, a round of n running points puts more than n rows
    assert any(size > points for points, size in calls[1:])


def test_default_hybrid_optimize_memory_is_bounded(special_bound):
    # ~97 000 trace entries in a columnar trace; the searches add little
    tracemalloc.start()
    try:
        result = optimize(1.0, REFERENCE_COSTS, "hybrid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations == len(result.trace) == 96905
    assert peak < 32 * 2**20
