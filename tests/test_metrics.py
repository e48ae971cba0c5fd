"""Policy analytics: closed-form examples, limits, and internal consistency."""

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
    MatchInfeasibleError,
    QuantityPolicy,
    SystemConfig,
    TimePolicy,
    average_cost,
    cycle_metrics,
    match_consolidation_cycle,
    replenish_metrics,
    service_metrics,
    trunc_mean,
)
from consolidate import metrics, renewal
from consolidate.compare import _SCAN_POINTS
from consolidate.metrics import _period_costs
from consolidate.renewal import MAX_ORDER_UP_TO

REF_COSTS = CostParams(replenish_fixed=25.0, holding=0.4, dispatch_fixed=15.0, wait_linear=0.8)


def scan_grid(period_max: float) -> list:
    """The optimizer's period scan: _SCAN_POINTS equal steps up to period_max."""
    step = period_max / _SCAN_POINTS
    return [step * (i + 1) for i in range(_SCAN_POINTS)]


# ---------------------------------------------------------------------------
# consolidation-cycle expectations


def test_qp_cycle_closed_forms():
    cyc = cycle_metrics(1.0, QuantityPolicy(1))
    assert (cyc.delay, cyc.sq_delay) == (0.0, 0.0)
    cyc = cycle_metrics(2.0, QuantityPolicy(5))
    assert cyc.length == pytest.approx(2.5)
    assert cyc.orders == 5.0
    assert cyc.delay == pytest.approx(5 * 4 / 4.0)
    assert cyc.sq_delay == pytest.approx(120 / 12.0)


def test_tp_cycle_closed_forms():
    cyc = cycle_metrics(2.0, TimePolicy(1.5))
    assert cyc.length == 1.5
    assert cyc.orders == pytest.approx(3.0)
    assert cyc.delay == pytest.approx(2.25)
    assert cyc.sq_delay == pytest.approx(2.25)


def test_hp_cycle_reference_values():
    cyc = cycle_metrics(1.0, HybridPolicy(6, 5.9199))
    assert cyc.orders == pytest.approx(5.0000, abs=5e-5)
    assert 3.0 * cyc.sq_delay == pytest.approx(112.8573, abs=5e-4)


def test_hp_cycle_degenerate_cap():
    # q = 1: the single order per cycle never waits
    cyc = cycle_metrics(1.0, HybridPolicy(1, 2.0))
    assert cyc.delay == 0.0
    assert cyc.sq_delay == 0.0


@given(
    rate=st.floats(0.1, 10.0),
    policy=st.one_of(
        st.integers(1, 30).map(QuantityPolicy),
        st.floats(0.05, 20.0).map(TimePolicy),
        st.tuples(st.integers(1, 30), st.floats(0.05, 20.0)).map(lambda t: HybridPolicy(*t)),
    ),
)
@settings(max_examples=200, deadline=None)
def test_orders_equal_rate_times_length(rate, policy):
    cyc = cycle_metrics(rate, policy)
    assert cyc.orders == pytest.approx(rate * cyc.length, rel=1e-12)


def test_hp_reduces_to_qp_at_huge_period():
    rate = 1.0
    for q in (1, 2, 5, 9):
        hp = cycle_metrics(rate, HybridPolicy(q, 1e6 / rate))
        qp = cycle_metrics(rate, QuantityPolicy(q))
        for name in ("length", "orders", "delay", "sq_delay"):
            assert getattr(hp, name) == pytest.approx(getattr(qp, name), rel=1e-9, abs=1e-9)


def test_hp_reduces_to_tp_at_huge_cap():
    rate, period = 1.0, 2.0
    cap = math.ceil(rate * period + 12.0 * math.sqrt(rate * period))
    hp = cycle_metrics(rate, HybridPolicy(cap, period))
    tp = cycle_metrics(rate, TimePolicy(period))
    for name in ("length", "orders", "delay", "sq_delay"):
        assert getattr(hp, name) == pytest.approx(getattr(tp, name), rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# replenishment-cycle expectations


def test_qp_replenish_deterministic():
    cfg = SystemConfig.quantity(1.0, q=2, n_dispatches=3)
    rep = replenish_metrics(cfg)
    assert rep.cycles == 3.0
    assert rep.length == pytest.approx(6.0)
    assert rep.holding == pytest.approx(12.0)
    # mode is a no-op for the deterministic quantity policy
    approx = replenish_metrics(cfg, "approx")
    assert (approx.cycles, approx.length, approx.holding) == (
        rep.cycles, rep.length, rep.holding)


def test_hp_replenish_bracket():
    cfg = SystemConfig(1.0, HybridPolicy(6, 5.9199), 14)
    rep = replenish_metrics(cfg)
    assert 3.0 <= rep.cycles <= 3.8
    assert rep.length == pytest.approx(rep.cycles * cycle_metrics(1.0, cfg.policy).length,
                                       rel=1e-12)


def test_exact_and_approx_cycle_counts_share_the_bracket():
    # exact E[K] and the continuous-count approximation (Q+1)/e_n both lie in
    # [Q/e_n + 1/e_n, Q/e_n + 1]
    cfg = SystemConfig(1.0, HybridPolicy(6, 5.9199), 14)
    orders = cycle_metrics(1.0, cfg.policy).orders
    lo = 14 / orders + 1 / orders
    hi = 14 / orders + 1
    assert lo <= replenish_metrics(cfg, "exact").cycles <= hi
    assert lo <= replenish_metrics(cfg, "approx").cycles <= hi
    assert replenish_metrics(cfg, "approx").cycles == pytest.approx(15 / orders)


def test_approx_formulas():
    cfg = SystemConfig(1.0, TimePolicy(2.0), 9)
    rep = replenish_metrics(cfg, "approx")
    assert rep.length == pytest.approx(10.0)
    assert rep.cycles == pytest.approx(5.0)
    assert rep.holding == pytest.approx(2.0 * 9 + 9 * 10 / 2.0)


def test_transshipment_point():
    cfg = SystemConfig(1.0, TimePolicy(2.0), 0)
    for mode in ("exact", "approx"):
        rep = replenish_metrics(cfg, mode)
        assert rep.holding == 0.0
    assert replenish_metrics(cfg, "approx").cycles == pytest.approx(1 / 2.0)


def test_replenish_mode_validation():
    cfg = SystemConfig(1.0, TimePolicy(2.0), 5)
    with pytest.raises(ValueError):
        replenish_metrics(cfg, "wrong")


@pytest.mark.parametrize("build, message", [
    (lambda: CostParams(holding=math.nan), "cost coefficient holding must be finite, got nan"),
    (lambda: CostParams(wait_squared=math.inf),
     "cost coefficient wait_squared must be finite, got inf"),
    (lambda: SystemConfig(math.inf, TimePolicy(1.0), 0), "demand_rate must be finite, got inf"),
    (lambda: TimePolicy(math.inf), "period must be finite, got inf"),
    (lambda: HybridPolicy(3, math.inf), "period must be finite, got inf"),
    # the messages for values rejected before finiteness was checked are unchanged
    (lambda: CostParams(holding=-math.inf),
     "cost coefficient holding must be nonnegative, got -inf"),
    (lambda: SystemConfig(math.nan, TimePolicy(1.0), 0), "demand_rate must be positive, got nan"),
    (lambda: TimePolicy(math.nan), "period must be positive, got nan"),
    (lambda: HybridPolicy(3, -math.inf), "period must be positive, got -inf"),
], ids=["cost-nan", "cost-inf", "rate-inf", "tp-inf", "hp-inf", "cost--inf", "rate-nan",
        "tp-nan", "hp--inf"])
def test_non_finite_inputs_are_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# ---------------------------------------------------------------------------
# service metrics


def test_tp_service_values():
    cfg = SystemConfig(1.0, TimePolicy(3.0), 5)
    svc = service_metrics(cfg)
    assert svc.aod == pytest.approx(1.5)
    assert svc.aosd == pytest.approx(3.0)
    # ratio identity: AOSD/AOD = 2T/3 for the time policy
    assert svc.aosd / svc.aod == pytest.approx(2.0 * 3.0 / 3.0)


def test_qp_service_values():
    cfg = SystemConfig.quantity(1.0, q=5, n_dispatches=4)
    svc = service_metrics(cfg)
    assert svc.aod == pytest.approx(2.0)
    assert svc.aosd == pytest.approx(8.0)
    assert svc.air == pytest.approx(3 * 5 / 2.0)
    # quantity-policy inventory rate is exact in both modes
    assert service_metrics(cfg, "approx").air == pytest.approx(svc.air)


def test_hp_service_beats_qp_squared_delay_here():
    cfg = SystemConfig(1.0, HybridPolicy(6, 5.9199), 14)
    svc = service_metrics(cfg)
    assert svc.aosd == pytest.approx(112.8573 / 15.0, abs=1e-3)
    assert svc.aosd < 8.0  # QP(5) at the same cycle length


def test_air_approx_mode():
    cfg = SystemConfig(1.0, TimePolicy(2.0), 9)
    svc = service_metrics(cfg, "approx")
    assert svc.air == pytest.approx(9 * (2 * 2.0 + 10) / (2 * 10))


# ---------------------------------------------------------------------------
# average cost


def test_throughput_only_cost():
    costs = CostParams(replenish_unit=1.0, dispatch_unit=1.0)
    rate = 1.7
    for cfg in (
        SystemConfig.quantity(rate, 4, 3, costs),
        SystemConfig(rate, TimePolicy(2.0), 7, costs),
        SystemConfig(rate, HybridPolicy(5, 2.0), 7, costs),
    ):
        assert average_cost(cfg).avg_cost == pytest.approx(2.0 * rate, rel=1e-12)


def test_qp_cost_example():
    costs = CostParams(replenish_fixed=10.0, holding=1.0, dispatch_fixed=3.0, wait_linear=2.0)
    cfg = SystemConfig.quantity(1.0, q=2, n_dispatches=2, costs=costs)
    ev = average_cost(cfg)
    assert ev.components["replenish"] == pytest.approx(2.5)
    assert ev.components["dispatch"] == pytest.approx(1.5)
    assert ev.components["holding"] == pytest.approx(1.0)
    assert ev.components["waiting"] == pytest.approx(1.0)
    assert ev.avg_cost == pytest.approx(6.0)


@pytest.mark.parametrize("cfg", [
    SystemConfig(1.0, HybridPolicy(6, 5.9199), 14, REF_COSTS),
    SystemConfig(2.0, TimePolicy(1.5), 8, REF_COSTS),
    SystemConfig(0.5, HybridPolicy(4, 3.0), 6, REF_COSTS),
])
def test_cost_matches_per_cycle_ratio_assembly(cfg):
    # raw renewal-reward assembly: expected cycle cost / expected cycle length
    ev = average_cost(cfg)
    cyc = cycle_metrics(cfg.demand_rate, cfg.policy)
    rep = replenish_metrics(cfg)
    c = cfg.costs
    cycle_cost = (
        c.replenish_fixed + c.replenish_unit * rep.cycles * cyc.orders
        + c.holding * rep.holding
        + c.dispatch_fixed * rep.cycles + c.dispatch_unit * rep.cycles * cyc.orders
        + c.wait_linear * rep.cycles * cyc.delay
    )
    assert ev.avg_cost == pytest.approx(cycle_cost / rep.length, rel=1e-10)
    assert ev.avg_cost == pytest.approx(sum(ev.components.values()), abs=1e-10)


def test_squared_delay_cost_mode():
    costs = CostParams(wait_linear=2.0, wait_squared=3.0)
    cfg = SystemConfig(1.0, TimePolicy(3.0), 5, costs)
    linear = average_cost(cfg, delay="linear")
    squared = average_cost(cfg, delay="squared")
    assert linear.components["waiting"] == pytest.approx(2.0 * 1.0 * 1.5)
    assert squared.components["waiting"] == pytest.approx(3.0 * 1.0 * 3.0)
    with pytest.raises(ValueError):
        average_cost(cfg, delay="cubic")


def test_full_evaluation_hp_to_qp_limit():
    # huge period: every hybrid metric and cost matches the quantity policy
    costs = REF_COSTS
    hp = average_cost(SystemConfig(1.0, HybridPolicy(4, 1e6), 8, costs))
    qp = average_cost(SystemConfig.quantity(1.0, 4, 3, costs))
    for name in ("avg_cost", "aod", "aosd", "air"):
        assert getattr(hp, name) == pytest.approx(getattr(qp, name), rel=1e-9)
    for key in hp.components:
        assert hp.components[key] == pytest.approx(qp.components[key], rel=1e-9, abs=1e-12)


def test_full_evaluation_hp_to_tp_limit():
    rate, period = 1.0, 2.0
    cap = math.ceil(rate * period + 12.0 * math.sqrt(rate * period))
    hp = average_cost(SystemConfig(rate, HybridPolicy(cap, period), 9, REF_COSTS))
    tp = average_cost(SystemConfig(rate, TimePolicy(period), 9, REF_COSTS))
    for name in ("avg_cost", "aod", "aosd", "air"):
        assert getattr(hp, name) == pytest.approx(getattr(tp, name), rel=1e-8)


# ---------------------------------------------------------------------------
# matching


def test_match_reference_instance():
    period = match_consolidation_cycle(1.0, 5.0, 6)
    assert period == pytest.approx(5.9199, abs=5e-4)
    assert trunc_mean(period, 6) == pytest.approx(5.0, abs=1e-9)


def test_match_recheck_other_rate():
    period = match_consolidation_cycle(2.0, 1.5, 5)
    assert trunc_mean(2.0 * period, 5) == pytest.approx(3.0, abs=1e-9)


def test_match_infeasible():
    with pytest.raises(MatchInfeasibleError):
        match_consolidation_cycle(1.0, 1.0, 1)  # E[min(X,1)] < 1 always
    with pytest.raises(MatchInfeasibleError):
        match_consolidation_cycle(1.0, 6.0, 6)
    # just feasible: target close below the cap
    period = match_consolidation_cycle(1.0, 0.9999, 1)
    assert trunc_mean(period, 1) == pytest.approx(0.9999, abs=1e-9)


# ---------------------------------------------------------------------------
# validation


def test_policy_validation():
    with pytest.raises(ValueError):
        QuantityPolicy(0)
    with pytest.raises(ValueError):
        TimePolicy(0.0)
    with pytest.raises(ValueError):
        HybridPolicy(3, -1.0)


def test_system_validation():
    with pytest.raises(ValueError):
        SystemConfig(0.0, TimePolicy(1.0), 5)
    with pytest.raises(ValueError):
        SystemConfig(1.0, TimePolicy(1.0), -1)
    with pytest.raises(ValueError):
        SystemConfig(1.0, QuantityPolicy(3), 5)  # Q not a multiple of q
    with pytest.raises(ValueError):
        CostParams(holding=-0.1)
    with pytest.raises(TypeError):
        SystemConfig(1.0, TimePolicy(1.0), 5).n_dispatches


# ---------------------------------------------------------------------------
# batched period evaluation against the scalar average cost


@given(
    rate=st.floats(0.25, 4.0),
    costs=st.builds(CostParams, *[st.floats(0.0, 1e3)] * 7),
    q=st.one_of(st.none(), st.integers(1, 30)),
    order_up_to=st.integers(0, 200),
    # down to load means of 2.5e-10, where the Wald bracket is widened by the
    # rounding of 1 - g(0); below ~1e-12 both paths raise (tested below)
    periods=st.lists(st.floats(1e-9, 40.0), min_size=1, max_size=50),
)
@example(rate=1.0, costs=REF_COSTS, q=None, order_up_to=40, periods=scan_grid(20.0))
@example(rate=1.0, costs=REF_COSTS, q=10, order_up_to=40, periods=scan_grid(20.0))
@example(rate=0.5, costs=REF_COSTS, q=1, order_up_to=0, periods=scan_grid(8.0))
@settings(max_examples=100, deadline=None)
def test_period_costs_match_scalar_average_cost(rate, costs, q, order_up_to, periods):
    def scalar(period, level):
        policy = TimePolicy(period) if q is None else HybridPolicy(q, period)
        return average_cost(SystemConfig(rate, policy, level, costs)).avg_cost

    expected = [[scalar(t, level) for t in periods] for level in range(order_up_to + 1)]
    got = _period_costs(rate, costs, q, periods, order_up_to)
    assert got.shape == (order_up_to + 1, len(periods))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@given(
    rate=st.floats(0.25, 4.0),
    costs=st.builds(CostParams, *[st.floats(0.0, 1e3)] * 7),
    levels=st.tuples(st.integers(0, 1500), st.integers(0, 1500)).map(sorted),
    # rate * period from 1 to 2e4, across the closed-form threshold
    loads=st.lists(st.floats(0.0, math.log10(2e4)).map(lambda e: 10.0 ** e),
                   min_size=1, max_size=12),
)
@example(rate=1.0, costs=REF_COSTS, levels=[600, 1500],
         loads=[255.0, renewal.TP_CLOSED_FORM_MU, 257.0, 1e3, 2e4])
@settings(max_examples=30, deadline=None)
def test_time_scan_matches_scalar_across_the_closed_form_threshold(rate, costs, levels, loads):
    level, top = levels
    periods = [load / rate for load in loads]
    got = _period_costs(rate, costs, None, periods, top)
    for at in sorted({0, level, top}):
        expected = [average_cost(SystemConfig(rate, TimePolicy(t), at, costs)).avg_cost
                    for t in periods]
        np.testing.assert_allclose(got[at], expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(_period_costs(rate, costs, None, periods, level)[level], got[level])


@given(
    rate=st.floats(0.25, 4.0),
    q=st.one_of(st.none(), st.integers(1, 30)),
    levels=st.tuples(st.integers(0, 60), st.integers(0, 60)).map(sorted),
    periods=st.lists(st.floats(1e-6, 40.0), min_size=1, max_size=50),
)
# chunked by the support of a large load, the same chunks at both levels
@example(rate=1.0, q=None, levels=[7, 40], periods=scan_grid(2e4))
# one chunk at level 5, two at level 3000
@example(rate=1.0, q=None, levels=[5, 3000], periods=scan_grid(2.0))
@example(rate=1.0, q=4, levels=[5, 3000], periods=scan_grid(2.0))
# rows on both sides of the closed-form threshold, with windows below both levels
@example(rate=1.0, q=None, levels=[700, 1500], periods=scan_grid(2000.0))
@settings(max_examples=100, deadline=None)
def test_period_cost_rows_do_not_depend_on_the_top_level(rate, q, levels, periods):
    level, top = levels
    alone = _period_costs(rate, REF_COSTS, q, periods, level)[level]
    assert np.array_equal(_period_costs(rate, REF_COSTS, q, periods, top)[level], alone)
    assert np.array_equal(alone, one_level_scan(rate, REF_COSTS, q, periods, level))


def one_level_scan(rate, costs, q, periods, level):
    """The scan at one level by its own renewal masses to that level (the
    closed form for wide time-policy loads, else the recursion) and the
    reductions of the whole of it, all rows at once: the bits the table's
    rows must reproduce."""
    t = np.asarray(periods, dtype=float)
    mu = rate * t
    closed = mu >= renewal.TP_CLOSED_FORM_MU if q is None else np.zeros(mu.size, bool)
    m = np.empty((mu.size, level + 1))
    m[closed] = renewal._tp_renewal_rows(mu[closed], level)
    cut = mu[~closed]
    if cut.size:
        if q is None:
            g = renewal._tp_masses(cut, [renewal._tp_support_end(x) for x in cut.tolist()])
        else:
            g = renewal._hp_masses(cut, q)
        m[~closed] = renewal._renewal_rows(g, level)
    cyc = metrics._cycle_forms(rate, q, t)
    rep = metrics._renewal_record(cyc, m.sum(axis=1), m @ (level - np.arange(level + 1.0)))
    return sum(metrics._components(rate, costs, cyc, rep, metrics._service(cyc, rep),
                                   "linear").values())


def test_period_costs_raise_at_the_lowest_level_failing_the_wald_check(monkeypatch):
    solve = renewal._renewal_rows

    def corrupted(g, order_up_to):
        m = solve(g, order_up_to)
        m[3:, 5:] *= 100.0  # rows 3 on, from level 5 on
        return m

    monkeypatch.setattr(renewal, "_renewal_rows", corrupted)
    grid = scan_grid(20.0)
    for level in range(5):
        _period_costs(1.0, REF_COSTS, 3, grid, level)
    with pytest.raises(ArithmeticError) as alone:
        _period_costs(1.0, REF_COSTS, 3, grid, 5)
    with pytest.raises(ArithmeticError) as table:
        _period_costs(1.0, REF_COSTS, 3, grid, 40)
    assert str(alone.value).endswith("at order-up-to level 5")
    assert str(table.value) == str(alone.value)


def test_closed_form_scan_rows_outside_lordens_bracket_raise(monkeypatch):
    rows = renewal._tp_renewal_rows

    def corrupted(mu, order_up_to):
        m = rows(mu, order_up_to)
        m[:, 0] = 2.0  # E[K] >= 2 > (Q + mu + 1)/mu for every Q below mu - 1
        return m

    monkeypatch.setattr(renewal, "_tp_renewal_rows", corrupted)
    with pytest.raises(ArithmeticError, match="at order-up-to level 0$"):
        _period_costs(1.0, REF_COSTS, None, [10.0, 300.0, 400.0], 40)
    _period_costs(1.0, REF_COSTS, None, [10.0, 200.0], 40)  # no closed-form row


def test_period_costs_raise_where_the_scalar_path_raises():
    with pytest.raises(ValueError, match="exceeds capacity limit"):
        _period_costs(1.0, REF_COSTS, 3, [1.0, 2.0], MAX_ORDER_UP_TO + 1)
    with pytest.raises(ValueError, match="renewal series diverges"):
        _period_costs(1.0, REF_COSTS, None, [1.0, 1e-13], 3)
    with pytest.raises(ValueError, match="finite product"):
        _period_costs(1.0, REF_COSTS, 2, [1.0, math.inf], 3)
    with pytest.raises(ValueError, match="demand_rate must be positive"):
        _period_costs(0.0, REF_COSTS, 2, [1.0], 3)
    with pytest.raises(OverflowError):
        _period_costs(1.0, REF_COSTS, None, [1e300], 3)
    with pytest.raises(OverflowError):  # the scalar path returns inf here
        _period_costs(1.0, CostParams(dispatch_fixed=1e308), 2, [1e-3], 0)


def test_time_scan_memory_is_bounded_at_large_load():
    # rate * period up to 2e5: one row's support alone is ~2e5 masses, so the
    # 200 rows must not be built at once
    grid = scan_grid(2e5)
    tracemalloc.start()
    try:
        costs = _period_costs(1.0, REF_COSTS, None, grid, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    for i in (0, len(grid) - 1):
        cfg = SystemConfig(1.0, TimePolicy(grid[i]), 10, REF_COSTS)
        assert costs[10, i] == pytest.approx(average_cost(cfg).avg_cost, rel=1e-12)


@pytest.mark.parametrize("load", [1e7, 1e12])
@pytest.mark.parametrize("order_up_to", [10, MAX_ORDER_UP_TO])
def test_time_policy_cost_is_small_and_fast_at_huge_load(load, order_up_to):
    # the closed form never builds the rate * period wide load
    cfg = SystemConfig(1.0, TimePolicy(load), order_up_to, REF_COSTS)
    metrics._policy_table.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        ev = average_cost(cfg)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        metrics._policy_table.cache_clear()
    assert peak <= 8 * 2**20
    assert elapsed < 2.0
    assert math.isfinite(ev.avg_cost)
    assert replenish_metrics(cfg).cycles == 1.0  # no load fits under Q
