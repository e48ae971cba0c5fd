"""Policy analytics: closed-form examples, limits, and internal consistency."""

import ast
import inspect
import math
import re
import time
import tracemalloc
import warnings

import mpmath
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
from consolidate.truncated_poisson import _factorial_moment
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


def bisection_oracle(rate, target_length, q):
    """The matching bisection on the checked public ``trunc_mean``: the
    match's fallback, step for step."""
    target_mean = rate * target_length
    lo, hi = metrics.MATCH_BRACKET_FLOOR, 50.0 * max(1.0, target_mean)
    while trunc_mean(hi, q) < target_mean:
        hi *= 2.0
    mu = 0.5 * (lo + hi)
    for _ in range(metrics.MATCH_MAX_ITER):
        mean = trunc_mean(mu, q)
        if abs(mean - target_mean) <= metrics.MATCH_MEAN_TOL:
            return mu / rate
        if mean < target_mean:
            lo = mu
        else:
            hi = mu
        mu = 0.5 * (lo + hi)
    raise RuntimeError("no match")


def mpmath_root(rate, target_length, q):
    """The period T = mu / rate with E[min(Poisson(mu), q)] = rate * target_length
    (the product rounded as the match rounds it), to 40 digits."""
    with mpmath.workdps(40):
        target = mpmath.mpf(rate * target_length)

        def below(mu):  # P(X <= q - 1), the mean's derivative
            return mpmath.gammainc(q, mu, mpmath.inf, regularized=True)

        def mean(mu):
            return mu * below(mu) + q * mpmath.gammainc(q + 1, 0, mu, regularized=True)

        start = mpmath.mpf(bisection_oracle(rate, target_length, q) * rate)
        return mpmath.findroot(lambda mu: mean(mu) - target, start, solver="newton",
                               df=below) / rate


@given(rate=st.floats(0.05, 50.0), q=st.integers(1, 1000), share=st.floats(0.001, 0.999))
@example(rate=1.0, q=6, share=5.0 / 6.0)
@settings(max_examples=60, deadline=None)
def test_match_meets_the_mean_tolerance(rate, q, share):
    target_length = share * q / rate
    period = match_consolidation_cycle(rate, target_length, q)
    assert abs(trunc_mean(rate * period, q) - rate * target_length) <= metrics.MATCH_MEAN_TOL


@pytest.mark.parametrize("q", [1, 2, 6, 17, 100, 436, 1000])
def test_match_is_at_least_as_close_to_the_root_as_the_bisection(q):
    for share in (0.001, 0.05, 0.3, 0.5, 5.0 / 6.0, 0.95, 0.999):
        for rate in (0.05, 1.0, 3.7, 50.0):
            target_length = share * q / rate
            root = mpmath_root(rate, target_length, q)
            newton = abs(match_consolidation_cycle(rate, target_length, q) - root)
            assert newton <= abs(bisection_oracle(rate, target_length, q) - root), (share, rate)


def count_match_steps(monkeypatch):
    """Counters of the Newton steps (derivative calls) and bisection runs of
    the match."""
    steps = {"newton": 0, "bisection": 0}
    slope, bisection = metrics.trunc_factorial_moment_dmu, metrics._bisection_match

    def counted_slope(*args):
        steps["newton"] += 1
        return slope(*args)

    def counted_bisection(*args):
        steps["bisection"] += 1
        return bisection(*args)

    monkeypatch.setattr(metrics, "trunc_factorial_moment_dmu", counted_slope)
    monkeypatch.setattr(metrics, "_bisection_match", counted_bisection)
    return steps


@pytest.mark.parametrize("q", [1, 2, 6, 100, 1000, 10**5, 10**8])
def test_newton_match_steps_stay_bounded_up_to_the_cap(monkeypatch, q):
    steps = count_match_steps(monkeypatch)
    for share in (1e-3, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9):
        for rate in (0.05, 1.0, 50.0):
            before = steps["newton"]
            period = match_consolidation_cycle(rate, share * q / rate, q)
            assert steps["newton"] - before <= 30, (share, rate)
            assert abs(trunc_mean(rate * period, q) - share * q) <= metrics.MATCH_MEAN_TOL
    assert steps["bisection"] == 0


@pytest.mark.parametrize("fault", ["no steps", "steep slope"])
def test_match_falls_back_to_the_bisection(monkeypatch, fault):
    steps = count_match_steps(monkeypatch)
    if fault == "no steps":
        monkeypatch.setattr(metrics, "MATCH_NEWTON_ITER", 0)
    else:
        # steps 100 times too long overshoot the root, and the step back
        # leaves the bracket
        slope = metrics.trunc_factorial_moment_dmu
        monkeypatch.setattr(metrics, "trunc_factorial_moment_dmu",
                            lambda *args: slope(*args) / 100.0)
    for rate, target_length, q in ((1.0, 5.0, 6), (2.0, 1.5, 5), (0.5, 30.0, 20)):
        period = match_consolidation_cycle(rate, target_length, q)
        assert period == bisection_oracle(rate, target_length, q)
    assert steps["bisection"] == 3


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
    # down to load means of 2.5e-10, where the Lorden bracket is widened by the
    # rounding of 1 - g(0); below ~1e-12 both paths raise (tested below)
    periods=st.lists(st.floats(1e-9, 40.0), min_size=1, max_size=50),
)
@example(rate=1.0, costs=REF_COSTS, q=None, order_up_to=40, periods=scan_grid(20.0))
@example(rate=1.0, costs=REF_COSTS, q=10, order_up_to=40, periods=scan_grid(20.0))
@example(rate=0.5, costs=REF_COSTS, q=1, order_up_to=0, periods=scan_grid(8.0))
# a deep table: its levels reduce by running sums over 2 000 levels
@example(rate=1.0, costs=REF_COSTS, q=3, order_up_to=2000, periods=[0.1, 2.5, 20.0])
# hybrid windows that start above zero (load means from 8t/3 ~ 122.8 on), one
# of them with all its mass at the cap
@example(rate=1.0, costs=REF_COSTS, q=400, order_up_to=40, periods=[5.0, 150.0, 300.0])
@example(rate=2.0, costs=REF_COSTS, q=30, order_up_to=40, periods=[100.0])
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
# hybrid rows capped at floor(mu + r) < min(q, Q + 1) at both levels
@example(rate=1.0, q=60, levels=[50, 100], periods=scan_grid(2.0))
@settings(max_examples=100, deadline=None)
def test_period_cost_rows_do_not_depend_on_the_top_level(rate, q, levels, periods):
    level, top = levels
    alone = _period_costs(rate, REF_COSTS, q, periods, level)[level]
    assert np.array_equal(_period_costs(rate, REF_COSTS, q, periods, top)[level], alone)
    assert np.array_equal(alone, one_level_scan(rate, REF_COSTS, q, periods, level))


def one_level_scan(rate, costs, q, periods, level):
    """The scan at one level by its own renewal masses to that level (the
    closed form for wide time-policy loads, else the recursion, and the
    poles past the head of a time load on the pole route) and the scan's
    reductions at that level, all rows at once: E[K] = M(Q) and the holding
    factor sum_{j<Q} M(j), each a sequential sum.  These are the bits the
    table's rows must reproduce."""
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
            floors, caps = zip(*(renewal._hp_window(x, q, level) for x in cut.tolist()))
            g = renewal._hp_masses(cut, np.array(floors), np.array(caps))
        m[~closed] = level_rows(g, level)
    for r in np.flatnonzero(~closed).tolist() if q is None else []:
        head = renewal._pole_head(mu[r])
        if mu[r] >= renewal._POLE_MIN_MU and head <= level:
            m[r, head:] = renewal._pole_masses(float(mu[r]), head, level)
    cyc = metrics._cycle_rows(rate, None if q is None else np.full(t.size, q), t)
    sums = np.cumsum(m, axis=1)
    holding = np.cumsum(sums[:, :-1], axis=1)[:, -1] if level else np.zeros(mu.size)
    rep = metrics._renewal_record(cyc, sums[:, -1], holding)
    return sum(metrics._components(rate, costs, cyc, rep, metrics._service(cyc, rep),
                                   "linear").values())


def level_rows(g, level):
    """m(0..Q) of each row of masses g by ``renewal._renewal_levels``, one
    row per load."""
    m, stops = np.empty((g.shape[0], level + 1)), {}
    for i, (live, values) in enumerate(renewal._renewal_levels(g, np.full(g.shape[0], level),
                                                               stops)):
        m[live, i] = values
    for r, (b, value) in stops.items():
        m[r, b:] = value
    return m


@pytest.mark.parametrize("q", [None, 2])
def test_period_costs_keep_their_bits_in_any_cost_blocks(q, monkeypatch):
    # The holding factor is a cumsum per cost block carried from the block
    # below; one block over all levels is the full cumsum of the levels.
    grid = scan_grid(20.0)
    got = _period_costs(1.0, REF_COSTS, q, grid, 2000)
    for cells in (1 << 40, len(grid), 3 * len(grid) + 1):
        monkeypatch.setattr(metrics, "_COST_CELLS", cells)
        assert np.array_equal(_period_costs(1.0, REF_COSTS, q, grid, 2000), got)


@pytest.mark.parametrize("q", [None, 2])
def test_period_costs_memory_at_level_2000(q):
    # The E[K] and cost tables, 3.05 MiB each, and one cost block's
    # temporaries; no level-major holding table.
    grid = scan_grid(20.0)
    _period_costs(1.0, REF_COSTS, q, grid, 2000)  # binds the lazy imports
    tracemalloc.start()
    try:
        _period_costs(1.0, REF_COSTS, q, grid, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_period_costs_raise_at_the_lowest_level_failing_the_wald_check(monkeypatch):
    solve = renewal._renewal_levels

    def corrupted(g, levels, stops):
        for i, (live, m) in enumerate(solve(g, levels, stops)):
            if i >= 5:  # rows 3 on, from level 5 on
                m = m.copy()
                m[3:] *= 100.0
            yield live, m

    monkeypatch.setattr(renewal, "_renewal_levels", corrupted)
    grid = scan_grid(20.0)
    for level in range(5):
        _period_costs(1.0, REF_COSTS, 3, grid, level)
    with pytest.raises(ArithmeticError) as alone:
        _period_costs(1.0, REF_COSTS, 3, grid, 5)
    with pytest.raises(ArithmeticError) as table:
        _period_costs(1.0, REF_COSTS, 3, grid, 40)
    assert str(alone.value).endswith("at order-up-to level 5")
    assert str(table.value) == str(alone.value)


def test_scan_row_between_the_brackets_raises(monkeypatch):
    # HP(10, 8) to level 40, E[K] scaled to just inside the looser bracket
    # (Q + smax)/E[X] that the support end gives at every level: Lorden's
    # upper end (Q + E[X^2]/E[X])/E[X] is below it and fails
    order_up_to, q, period = 40, 10, 8.0
    g = renewal._hp_masses(np.array([period]), np.array([0]), np.array([q]))[0]
    support = np.arange(q + 1.0)
    mean = g @ support
    levels = np.arange(order_up_to + 1.0)
    cycles = np.cumsum(level_rows(g[None], order_up_to)[0])
    scale = ((levels + q) / mean / cycles).min() * (1.0 - 1e-9)
    first = int(np.argmax(scale * cycles > (levels + g @ support**2 / mean) / mean))
    assert scale * cycles[first] > (first + g @ support**2 / mean) / mean * (1.0 + 1e-6)
    solve = renewal._renewal_levels
    monkeypatch.setattr(renewal, "_renewal_levels",
                        lambda g, levels, stops: ((live, scale * m)
                                                  for live, m in solve(g, levels, stops)))
    with pytest.raises(ArithmeticError, match=f"Lorden bracket .* level {first}$"):
        _period_costs(1.0, REF_COSTS, q, [period], order_up_to)


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
    for bad in (0.0, -1.0, math.nan, 1e308):   # 1e308 overflows the product rate * T
        with pytest.raises(ValueError, match="finite product"):
            _period_costs(4.0, REF_COSTS, None, [1.0, bad], 3)
    with pytest.raises(ValueError, match="demand_rate must be positive"):
        _period_costs(0.0, REF_COSTS, 2, [1.0], 3)
    with pytest.raises(OverflowError):
        _period_costs(1.0, REF_COSTS, None, [1e300], 3)
    with pytest.raises(OverflowError):  # the scalar path returns inf here
        _period_costs(1.0, CostParams(dispatch_fixed=1e308), 2, [1e-3], 0)


@pytest.mark.parametrize("q, period, priced", [
    (2, 2e100, True), (2, 5.6e102, True), (2, 5.7e102, False),   # mu^3 overflows from ~5.64e102
    (1, 1e200, True),                                            # mu^2 of cap 1 is not used
    (None, 5.6e102, True), (None, 5.7e102, False),
])
def test_scan_raises_exactly_where_the_cubes_overflow(q, period, priced):
    policy = TimePolicy(period) if q is None else HybridPolicy(q, period)
    cfg = SystemConfig(1.0, policy, 0, CostParams(dispatch_fixed=3.0))
    if priced:
        cost = average_cost(cfg).avg_cost
        assert _period_costs(1.0, cfg.costs, q, [period], 0)[0, 0] == cost
        if q is not None:
            rows, errors = metrics._row_costs(1.0, cfg.costs, np.array([q]), np.array([0]),
                                              np.array([period]))
            assert (rows.tolist(), errors) == ([cost], {})
    else:
        with pytest.raises(OverflowError):
            average_cost(cfg)
        with pytest.raises(OverflowError, match="cycle metrics overflow"):
            _period_costs(1.0, cfg.costs, q, [period], 0)


CUBE_EDGE = 5.643803094122362e102   # about the largest float whose cube is finite


def python_powers(x: list, k: int) -> list:
    """v**k by Python's float power, inf where it raises OverflowError."""
    out = []
    for v in x:
        try:
            out.append(v**k)
        except OverflowError:
            out.append(math.inf)
    return out


@given(x=st.lists(st.floats(0.0, 1e160), min_size=1, max_size=40), k=st.sampled_from([2, 3]))
@example(x=[1e100], k=3)
@example(x=[CUBE_EDGE, math.nextafter(CUBE_EDGE, 0.0), math.nextafter(CUBE_EDGE, math.inf)], k=3)
@example(x=[CUBE_EDGE, math.nextafter(CUBE_EDGE, 0.0), math.nextafter(CUBE_EDGE, math.inf)], k=2)
@example(x=[5e-324, 1e-310, 2.2250738585072014e-308, 0.0], k=2)
@example(x=[5e-324, 1e-310, 2.2250738585072014e-308, 0.0], k=3)
@settings(max_examples=200, deadline=None)
def test_float_powers_are_pythons_bit_for_bit(x, k):
    # a SIMD power (np.power) differs from libm's pow in the last bit of some
    # cubes; the cycle rows must equal the float path's v**k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = metrics._float_powers(np.array(x), k)
    assert np.array(python_powers(x, k)).view(np.int64).tolist() == got.view(np.int64).tolist()


def test_cost_paths_call_no_simd_power():
    # np.power dispatches to SIMD code that does not match the scalar path's
    # libm pow bit for bit; metrics and renewal must not call it
    for module in (metrics, renewal):
        tree = ast.parse(inspect.getsource(module))
        read = {ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "power"}
        assert not read & {"np.power", "numpy.power"}, module.__name__


# ---------------------------------------------------------------------------
# the optimizer's golden-step rows against the scalar path


@given(rate=st.floats(0.05, 50.0), q=st.integers(1, 400),
       period=st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e))
@example(rate=1.0, q=1, period=3.3)
@example(rate=1.0, q=2, period=1e-4)
@settings(max_examples=100, deadline=None)
def test_hybrid_cycle_forms_are_the_factorial_moments_bit_for_bit(rate, q, period):
    mu = rate * period
    cyc = metrics._cycle_forms(rate, q, period)
    assert cyc.orders == _factorial_moment(mu, q, 1)
    assert cyc.length == _factorial_moment(mu, q, 1) / rate
    assert cyc.delay == _factorial_moment(mu, q, 2) / (2.0 * rate)
    assert cyc.sq_delay == _factorial_moment(mu, q + 1, 3) / (3.0 * rate**2)


@given(rate=st.floats(0.05, 50.0), hybrid=st.booleans(),
       rows=st.lists(st.tuples(st.integers(1, 400),
                               st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e)),
                     min_size=1, max_size=20))
@example(rate=1.0, hybrid=True, rows=[(1, 1 + 2.0**-27), (2, 1 + 2.0**-27), (3, 1e-300)])
@settings(max_examples=100, deadline=None)
def test_cycle_rows_are_the_float_path_bit_for_bit(rate, hybrid, rows):
    q = np.array([cap for cap, _ in rows]) if hybrid else None
    periods = np.array([t for _, t in rows])
    got = metrics._cycle_rows(rate, q, periods)
    for r, t in enumerate(periods.tolist()):
        one = metrics._cycle_forms(rate, None if q is None else int(q[r]), t)
        assert (got.length[r], got.orders[r], got.delay[r], got.sq_delay[r]) == (
            one.length, one.orders, one.delay, one.sq_delay)


@st.composite
def golden_rows(draw, top):
    """Rows of one family for ``_row_costs``, levels not increasing: time
    loads below and above the closed-form threshold, or hybrid loads whose
    windows are capped below q and floored above 0."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        q = None
        loads = st.one_of(st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
                          st.floats(math.log10(renewal.TP_CLOSED_FORM_MU), 4.0)
                          .map(lambda e: 10.0 ** e))
    else:
        q = np.array(draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 2000)),
                                   min_size=n, max_size=n)))
        loads = st.floats(-3.0, math.log10(3e3)).map(lambda e: 10.0 ** e)
    rate = draw(st.floats(0.25, 4.0))
    periods = np.array([load / rate for load in draw(st.lists(loads, min_size=n, max_size=n))])
    levels = np.array(sorted(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)),
                             reverse=True))
    return rate, q, levels, periods


def scalar_rows(rate, costs, q, levels, periods):
    return [average_cost(SystemConfig(rate, TimePolicy(t) if q is None
                                      else HybridPolicy(int(q[r]), t), int(levels[r]),
                                      costs)).avg_cost
            for r, t in enumerate(periods.tolist())]


@given(rows=golden_rows(2), costs=st.builds(CostParams, *[st.floats(0.0, 1e3)] * 7))
@example(rows=(1.0, np.array([1, 2, 1, 2]), np.array([1, 1, 0, 0]),
               np.array([3.3, 7.1, 2.2, 19.5])), costs=REF_COSTS)
@example(rows=(1.0, None, np.array([2, 1, 0]), np.array([0.005, 7.1, 300.0])), costs=REF_COSTS)
@example(rows=(1.0, np.array([500, 500]), np.array([2, 0]), np.array([400.0, 2e3])),
         costs=REF_COSTS)
@settings(max_examples=100, deadline=None)
def test_golden_rows_equal_average_cost_bit_for_bit_up_to_level_two(rows, costs):
    rate, q, levels, periods = rows
    cost, errors = metrics._row_costs(rate, costs, q, levels, periods)
    assert not errors
    assert cost.tolist() == scalar_rows(rate, costs, q, levels, periods)


@given(rows=golden_rows(300), costs=st.builds(CostParams, *[st.floats(0.0, 1e3)] * 7))
@settings(max_examples=60, deadline=None)
def test_golden_rows_match_average_cost_to_level_300(rows, costs):
    rate, q, levels, periods = rows
    cost, errors = metrics._row_costs(rate, costs, q, levels, periods)
    assert not errors
    np.testing.assert_allclose(cost, scalar_rows(rate, costs, q, levels, periods),
                               rtol=1e-13, atol=0.0)


@given(rows=golden_rows(60))
# rows that stop at 256 and later, down to one row per level from 300 on
@example(rows=(1.0, None, np.array([1500, 700, 300, 5]), np.array([0.5, 2.0, 7.0, 1.0])))
@example(rows=(1.0, np.array([3, 40, 2]), np.array([1200, 600, 256]), np.array([1.0, 5.0, 0.3])))
@settings(max_examples=30, deadline=None)
def test_golden_rows_do_not_depend_on_their_chunks(rows):
    rate, q, levels, periods = rows
    whole = metrics._row_costs(rate, REF_COSTS, q, levels, periods)[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(renewal, "_CHUNK_CELLS", 1)  # one row per chunk
        assert np.array_equal(metrics._row_costs(rate, REF_COSTS, q, levels, periods)[0], whole)


def scalar_error(rate, costs, policy, level):
    with pytest.raises((ValueError, ArithmeticError)) as err:
        average_cost(SystemConfig(rate, policy, level, costs))
    return err.value


@pytest.mark.parametrize("q, levels, periods, failing", [
    # the series diverges: 1 - g(0) = 1 - e^-mu within 1e-12 of 0
    (None, [3, 2, 0], [1.0, 1e-13, 2.0], [1]),
    (np.array([2, 1, 4]), [2, 2, 1], [1e-14, 1.0, 1e-13], [0, 2]),
    # mu^3 overflows in the cycle forms; mu^2 of cap 1 is not used
    (np.array([2, 1, 3]), [1, 1, 0], [1e103, 1e103, 2.0], [0]),
    (None, [1, 0], [2.0, 1e103], [1]),
])
def test_golden_rows_raise_where_average_cost_raises(q, levels, periods, failing):
    levels, periods = np.array(levels), np.array(periods)
    cost, errors = metrics._row_costs(1.0, REF_COSTS, q, levels, periods)
    assert sorted(errors) == failing
    for r, err in errors.items():
        policy = TimePolicy(periods[r]) if q is None else HybridPolicy(int(q[r]), periods[r])
        expected = scalar_error(1.0, REF_COSTS, policy, int(levels[r]))
        assert (type(err), str(err)) == (type(expected), str(expected))
    kept = [r for r in range(len(periods)) if r not in errors]
    assert cost[kept].tolist() == scalar_rows(1.0, REF_COSTS, None if q is None else q[kept],
                                              levels[kept], periods[kept])


def test_golden_rows_raise_where_lordens_check_fails(monkeypatch):
    # closed-form time tables certify E[K] on the scalar path; a check that
    # fails from level 2 on fails there and in the rows
    check = renewal._check_lorden_row

    def failing(mean, overshoot, defect, order_up_to, cycles):
        if order_up_to >= 2:
            raise renewal._lorden_error(cycles, 0.0, 0.0, order_up_to)
        check(mean, overshoot, defect, order_up_to, cycles)

    monkeypatch.setattr(renewal, "_check_lorden_row", failing)
    levels, periods = np.array([5, 2, 1, 0]), np.array([300.0, 400.0, 500.0, 2.0])
    cost, errors = metrics._row_costs(1.0, REF_COSTS, None, levels, periods)
    assert sorted(errors) == [0, 1]
    for r, err in errors.items():
        expected = scalar_error(1.0, REF_COSTS, TimePolicy(periods[r]), int(levels[r]))
        assert isinstance(err, ArithmeticError) and str(err) == str(expected)
    assert cost[2:].tolist() == scalar_rows(1.0, REF_COSTS, None, levels[2:], periods[2:])


def test_golden_rows_take_bounded_memory_at_the_level_limit(special_bound):
    # level-major windows of the last w + BLOCK levels, not rows x levels
    levels = np.full(40, MAX_ORDER_UP_TO)
    periods = np.linspace(0.5, 20.0, 40)
    tracemalloc.start()
    try:
        metrics._row_costs(1.0, REF_COSTS, np.full(40, 3), levels, periods)
        metrics._row_costs(1.0, REF_COSTS, None, levels, periods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("q", [None, 3])
def test_deep_scan_memory_is_bounded(special_bound, q):
    # the level-major E[K], holding and cost tables at Q = 2000 and 200
    # periods (3.05 MiB each) and one cost block, but no rows x levels table
    # of renewal masses: 11.02 MiB (time) and 10.94 MiB (q = 3), where such
    # a table took the peak to 14.07 and 13.99 MiB
    tracemalloc.start()
    try:
        _period_costs(1.0, REF_COSTS, q, scan_grid(20.0), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.25 * 2**20


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


@pytest.mark.parametrize("q", [3, None])
def test_scan_cost_blocks_bound_memory_and_keep_the_rows(q, monkeypatch, special_bound):
    # 2 001 levels x 200 periods: the cost phase works in blocks of levels
    # smaller than the mass chunks, each cell costed as in one block
    grid = scan_grid(20.0)
    tracemalloc.start()
    try:
        blocked = _period_costs(1.0, REF_COSTS, q, grid, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    monkeypatch.setattr(metrics, "_COST_CELLS", blocked.size)
    assert np.array_equal(blocked, _period_costs(1.0, REF_COSTS, q, grid, 2000))


@pytest.mark.parametrize("q", [10**7, 10**9])
@pytest.mark.parametrize("order_up_to", [10, MAX_ORDER_UP_TO])
def test_hybrid_cost_is_small_and_fast_at_huge_caps(q, order_up_to, special_bound):
    # the table's load is capped at min(Q + 1, mu + r), never at q
    metrics._policy_table.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for period in (5.0, 5e6):
            ev = average_cost(SystemConfig(1.0, HybridPolicy(q, period), order_up_to, REF_COSTS))
            assert math.isfinite(ev.avg_cost)
        elapsed = time.perf_counter() - start
        scan = _period_costs(1.0, REF_COSTS, q, [0.5, 5.0, 5e6], order_up_to)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        metrics._policy_table.cache_clear()
    assert peak <= 8 * 2**20
    assert elapsed < 2.0
    assert scan[-1, 1] == pytest.approx(
        average_cost(SystemConfig(1.0, HybridPolicy(q, 5.0), order_up_to, REF_COSTS)).avg_cost,
        rel=1e-12)


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


def test_the_table_cache_keeps_no_table(special_bound):
    # 16 distinct systems at the level limit: a table there holds m and M,
    # 160 kB, and none may outlive its evaluation
    average_cost(SystemConfig(1.0, TimePolicy(1.0), 10, REF_COSTS))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for period in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 300.0, 500.0):
            for policy in (TimePolicy(period), HybridPolicy(7, period)):
                average_cost(SystemConfig(1.0, policy, MAX_ORDER_UP_TO, REF_COSTS))
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 2**16
    assert metrics._policy_table.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the boundary between the cost paths and the renewal routes

RENEWAL_ENTRY_POINTS = {"load_sums", "_level_table", "_row_sums", "_check_lorden", "_load_mean",
                        "_check_order_up_to", "expected_k", "holding_sum", "RenewalTable"}


def test_metrics_reaches_renewal_only_through_its_entry_points():
    # every route choice for a load is renewal's: metrics asks for a table,
    # a level table or row sums, and names no builder, window or constant
    tree = ast.parse(inspect.getsource(metrics))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "renewal"}
    read |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "renewal"
             for alias in node.names}
    assert {"load_sums", "_level_table", "_row_sums"} <= read
    assert read <= RENEWAL_ENTRY_POINTS, sorted(read - RENEWAL_ENTRY_POINTS)


def test_renewal_keeps_its_kernel_gate_and_its_stop_schedule_in_one_place():
    # the matvec gate picks one solve's kernel and nothing else, and every
    # route tests its state on the one schedule: the solves reach ``_settled``
    # through ``_stop``, and the rows on ``_scheduled`` at blocks of one level
    tree = ast.parse(inspect.getsource(renewal))

    def readers(name):
        return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == name}

    assert readers("MATVEC_MIN_BLOCKS") == {"_blocked_solve"}
    assert readers("_settled") == {"_stop", "_renewal_levels"}
    assert readers("_scheduled") == {"_stop", "_renewal_levels"}
    assert readers("_stop") == {"_blocked_solve", "_explicit_solve"}
