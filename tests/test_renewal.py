"""Renewal tables and load distributions against independent oracles.

The library solves the lattice renewal equation a block of levels at a time.
Two oracles check it: the convolution-series oracle sums k-fold convolutions
of the increment masses outright until the remaining series contributes less
than 1e-14, an entirely separate route to the same numbers; the loop oracle
runs the recursion one level at a time, the way the blocked solve must
reproduce it at every level up to the capacity limit.  A third, the blocked
oracle, is the blocked solve without the skip of a load's zero head: it starts
every load at level 1, and on every load with g(1) > 0 the library must match
it bit for bit.  The load builders are checked against the per-element mass
functions and the quantile-seeded tail cut of ``scipy.stats``.  The
closed-form tables of wide time-policy loads are checked against 40-digit
``mpmath`` sums of their defining series and against the recursion on the
tail-cut load.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import consolidate
from consolidate import metrics, renewal
from consolidate import (
    IncrementDist,
    SystemConfig,
    TimePolicy,
    average_cost,
    build_increment_hp,
    build_increment_tp,
    cycle_metrics,
    expected_k,
    holding_sum,
    poisson_pmf,
    poisson_tail,
    renewal_table,
    replenish_metrics,
    trunc_pmf,
)
from consolidate.renewal import (
    BLOCK,
    DEFAULT_TAIL_EPS,
    MAX_ORDER_UP_TO,
    TP_CLOSED_FORM_MU,
    _check_wald,
    _hp_masses,
    _renewal_rows,
    _tp_masses,
    _tp_renewal_rows,
    _tp_support_end,
    _tp_table,
)


def series_oracle(masses, order_up_to, tol=1e-14):
    """m(i) = sum_k g^(k)(i) by explicit convolution, truncated at tiny tails."""
    m = np.zeros(order_up_to + 1)
    conv = np.zeros(order_up_to + 1)
    conv[0] = 1.0  # zero-fold convolution
    m += conv
    for _ in range(200_000):
        conv = np.convolve(conv, masses)[:order_up_to + 1]
        m += conv
        if conv.sum() < tol:
            return m, np.cumsum(m)
    raise RuntimeError("series did not converge")


def loop_oracle(masses, order_up_to):
    """m(0..Q) by the recursion, one level per step."""
    g = np.asarray(masses, dtype=float)
    scale = 1.0 / (1.0 - g[0])
    smax = g.size - 1
    m = np.empty(order_up_to + 1)
    m[0] = scale
    for i in range(1, order_up_to + 1):
        j = min(i, smax)
        stop = i - j - 1
        window = m[i - 1:stop if stop >= 0 else None:-1]
        m[i] = scale * float(g[1:j + 1] @ window)
    return m


def blocked_oracle(masses, order_up_to):
    """m(0..Q) by the blocked solve that starts every load at level 1."""
    g = np.asarray(masses, dtype=float)
    smax = g.size - 1
    m = np.empty(order_up_to + 1)
    m[0] = 1.0 / (1.0 - g[0])
    kernel = np.zeros(order_up_to)
    kernel[:min(smax, order_up_to)] = g[1:order_up_to + 1]
    b = 1
    while b <= order_up_to:
        n = min(b, BLOCK, order_up_to + 1 - b)
        lo = max(0, b - smax)
        known = np.correlate(kernel[:b - lo + n - 1], m[lo:b][::-1], "valid")
        m[b:b + n] = np.convolve(known, m[:n])[:n]
        b += n
    return m


def first_load(masses):
    """The first load above zero with positive mass."""
    return int(np.flatnonzero(masses[1:])[0]) + 1


def tail_cut_oracle(mu, tail_eps):
    """Support end of a tail-cut Poisson increment, seeded by the quantile."""
    end = int(poisson.isf(tail_eps, mu)) + 1
    while poisson_tail(mu, end + 1) >= tail_eps:
        end += 1
    while end > 1 and poisson_tail(mu, end) < tail_eps:
        end -= 1
    return end


def assert_table_matches_loop(inc, order_up_to):
    table = renewal_table(inc, order_up_to)
    ref = loop_oracle(inc.masses, order_up_to)
    big = ref > 1e-300
    assert np.abs(table.m[~big] - ref[~big]).max(initial=0.0) <= 1e-300
    rel = np.abs(table.m[big] - ref[big]) / ref[big]
    assert rel.max(initial=0.0) <= 1e-10
    assert expected_k(table) == pytest.approx(ref.sum(), rel=1e-11, abs=0.0)
    q_levels = order_up_to - np.arange(order_up_to + 1)
    assert holding_sum(table) == pytest.approx(float(q_levels @ ref), rel=1e-11, abs=0.0)


def test_unit_increment():
    table = renewal_table(IncrementDist([0.0, 1.0]), 4)
    assert np.allclose(table.m, np.ones(5))
    assert expected_k(table) == pytest.approx(5.0)
    assert holding_sum(table) == pytest.approx(4 + 3 + 2 + 1)


def test_lattice_increment_of_two():
    table = renewal_table(IncrementDist([0.0, 0.0, 1.0]), 4)
    assert np.allclose(table.m, [1, 0, 1, 0, 1])
    assert expected_k(table) == pytest.approx(3.0)


def test_holding_sum_examples():
    assert holding_sum(renewal_table(IncrementDist([0.0, 1.0]), 3)) == pytest.approx(6.0)
    assert holding_sum(renewal_table(IncrementDist([0.0, 1.0]), 0)) == 0.0


@pytest.mark.parametrize("rate,q,period", [
    (1.0, 3, 2.0),
    (1.0, 6, 5.9199),
    (2.0, 3, 1.0),
    (0.5, 8, 10.0),
    (1.0, 1, 0.7),
])
def test_recursion_matches_series_hp(rate, q, period):
    inc = build_increment_hp(rate, q, period)
    for order_up_to in (0, 1, 7, 25, 50):
        table = renewal_table(inc, order_up_to)
        m_ref, big_m_ref = series_oracle(inc.masses, order_up_to)
        assert np.max(np.abs(table.m - m_ref)) <= 1e-10
        assert np.max(np.abs(table.M - big_m_ref)) <= 1e-10


@pytest.mark.parametrize("rate,period", [(1.0, 2.0), (2.0, 1.5), (1.0, 0.25), (3.0, 1.0)])
def test_recursion_matches_series_tp(rate, period):
    inc = build_increment_tp(rate, period)
    for order_up_to in (0, 9, 30, 50):
        table = renewal_table(inc, order_up_to)
        m_ref, big_m_ref = series_oracle(inc.masses, order_up_to)
        assert np.max(np.abs(table.m - m_ref)) <= 1e-10
        assert np.max(np.abs(table.M - big_m_ref)) <= 1e-10


@pytest.mark.parametrize("inc,order_up_to", [
    (build_increment_hp(1.0, 6, 5.9199), 14),
    (build_increment_hp(1.0, 3, 2.0), 10),
    (build_increment_tp(1.0, 2.0), 9),
    (build_increment_tp(2.0, 1.5), 8),
    (build_increment_tp(1.0, 1.0), 9),
])
def test_expected_k_lower_bound(inc, order_up_to):
    # (Q+1)/E[inc] <= E[K] holds for every increment (the crossing sum is >= Q+1)
    mean = inc.mean()
    value = expected_k(renewal_table(inc, order_up_to))
    assert (order_up_to + 1.0) / mean <= value * (1.0 + 1e-12)


@pytest.mark.parametrize("inc", [
    build_increment_hp(1.0, 6, 5.9199),   # mean 5.0
    build_increment_hp(0.5, 8, 10.0),     # mean ~4.99
    build_increment_tp(2.0, 1.5),         # mean 3.0
    build_increment_tp(1.0, 3.0),         # mean 3.0
])
def test_expected_k_bracketing(inc):
    # Q/E[inc] + 1/E[inc] <= E[K] <= Q/E[inc] + 1.  The upper bound ignores the
    # size bias of the crossing increment and genuinely fails for small means
    # (at Q=0 it fails for any increment with mass at zero: M(0) = 1/(1-g(0)));
    # it is valid in the regime exercised here (means >= ~2.5, Q >= 1).
    mean = inc.mean()
    for order_up_to in range(1, 51):
        value = expected_k(renewal_table(inc, order_up_to))
        assert order_up_to / mean + 1.0 / mean <= value <= order_up_to / mean + 1.0


def test_expected_k_reference_bracket():
    inc = build_increment_hp(1.0, 6, 5.9199)
    value = expected_k(renewal_table(inc, 14))
    assert 3.0 <= value <= 3.8


def test_steady_state_probabilities():
    for inc in (build_increment_hp(1.0, 4, 3.0), build_increment_tp(1.5, 2.0)):
        table = renewal_table(inc, 20)
        pi = table.steady_state()
        assert np.all(pi >= 0.0)
        assert abs(pi.sum() - 1.0) <= 1e-10


def test_hp_increment_masses():
    inc = build_increment_hp(2.0, 3, 1.0)
    expected = [trunc_pmf(2.0, 3, i) for i in range(4)]
    assert np.allclose(inc.masses, expected, rtol=0, atol=1e-15)
    assert inc.support_end == 3


def test_hp_increment_saturates_at_large_period():
    inc = build_increment_hp(1.0, 1, 1e6)
    assert inc.masses[0] < 1e-300
    assert inc.masses[1] == pytest.approx(1.0)


def test_hp_increment_mean_at_reference_period():
    assert build_increment_hp(1.0, 6, 5.9199).mean() == pytest.approx(5.0, abs=5e-5)


def test_tp_increment_mean_and_support():
    inc = build_increment_tp(1.0, 2.0)
    assert inc.mean() == pytest.approx(2.0, abs=1e-9)
    long_inc = build_increment_tp(3.0, 1.0, tail_eps=1e-12)
    assert long_inc.support_end >= 20


def test_tp_increment_near_degenerate():
    inc = build_increment_tp(1.0, 1e-6)
    assert inc.masses[0] < 1.0
    assert inc.masses[0] == pytest.approx(1.0 - 1e-6, abs=1e-9)


def test_tp_tail_eps_validation():
    with pytest.raises(ValueError):
        build_increment_tp(1.0, 1.0, tail_eps=1e-6)
    with pytest.raises(ValueError):
        build_increment_tp(1.0, 1.0, tail_eps=0.0)


def test_increment_validation():
    with pytest.raises(ValueError):
        IncrementDist([1.0])  # all mass at zero
    with pytest.raises(ValueError):
        IncrementDist([0.5, 0.4])  # does not normalize
    with pytest.raises(ValueError):
        IncrementDist([-0.1, 1.1])


@pytest.mark.parametrize("masses, message", [
    ([math.nan, 1.0], "masses must be finite and nonnegative"),
    ([0.0, math.inf], "masses must be finite and nonnegative"),
    ([-math.inf, 1.0], "masses must be finite and nonnegative"),
    ([0.5, -0.25, 0.75], "masses must be finite and nonnegative"),
    # finite masses whose sum overflows fail the normalization, not finiteness
    ([0.0, 1e308, 1e308], f"masses must sum to 1 within 1e-10, got {np.float64(math.inf)!r}"),
    ([], "masses must be a nonempty 1-d vector"),
    ([[0.5, 0.5]], "masses must be a nonempty 1-d vector"),
    ([1.0], "increment must place positive mass above zero"),
])
def test_increment_rejection_messages(masses, message):
    with pytest.raises(ValueError) as err:
        IncrementDist(masses)
    assert str(err.value) == message


def test_divergence_error():
    inc = IncrementDist([1.0 - 1e-13, 1e-13])
    with pytest.raises(ValueError, match="diverges"):
        renewal_table(inc, 5)


def test_capacity_error():
    inc = IncrementDist([0.0, 1.0])
    with pytest.raises(ValueError, match="capacity"):
        renewal_table(inc, 10_001)
    with pytest.raises(ValueError):
        renewal_table(inc, -1)


def test_tables_are_immutable():
    table = renewal_table(IncrementDist([0.0, 1.0]), 3)
    with pytest.raises(ValueError):
        table.m[0] = 7.0


# ---------------------------------------------------------------------------
# blocked solve against the per-level loop


@st.composite
def increments(draw):
    """Random increments: dense or lattice, light or heavy zero mass, and
    support ends on both sides of the block size."""
    smax = draw(st.one_of(st.integers(1, BLOCK - 1), st.integers(BLOCK, 3 * BLOCK)))
    seed = draw(st.integers(0, 2**32 - 1))
    power = draw(st.floats(0.2, 8.0))
    stride = draw(st.integers(1, 3))
    zero_weight = draw(st.sampled_from([0.0, 0.1, 1.0, 20.0]))
    w = np.random.default_rng(seed).random(smax + 1) ** power
    w[np.arange(smax + 1) % stride != 0] = 0.0
    w[0] = zero_weight * w[1:].sum() / smax
    if not w[1:].any():
        w[smax] = 1.0
    return IncrementDist(w / w.sum())


@given(inc=increments(), order_up_to=st.integers(0, 8 * BLOCK + 5))
@settings(max_examples=60, deadline=None)
def test_blocked_solve_matches_loop(inc, order_up_to):
    assert_table_matches_loop(inc, order_up_to)


@given(mu=st.floats(0.01, 600.0), q=st.integers(1, 3 * BLOCK),
       order_up_to=st.integers(0, 8 * BLOCK + 5), time_policy=st.booleans())
@settings(max_examples=40, deadline=None)
def test_blocked_solve_matches_loop_on_policy_loads(mu, q, order_up_to, time_policy):
    inc = build_increment_tp(1.0, mu) if time_policy else build_increment_hp(1.0, q, mu)
    assert_table_matches_loop(inc, order_up_to)


@pytest.mark.parametrize("inc", [
    build_increment_hp(1.0, 6, 5.9199),      # smax far below the block size
    build_increment_hp(1.0, 200, 150.0),     # smax above it
    build_increment_tp(1.0, 3000.0),         # wide support, mass near zero tiny
    build_increment_tp(1.0, 0.05),           # mass at zero close to 1
])
def test_blocked_solve_matches_loop_at_capacity(inc):
    assert_table_matches_loop(inc, MAX_ORDER_UP_TO)


@given(mu=st.floats(0.01, 700.0), q=st.integers(1, 300),
       order_up_to=st.one_of(st.integers(0, 8 * BLOCK), st.integers(8 * BLOCK, 3000)),
       time_policy=st.booleans())
@example(mu=3.0, q=5, order_up_to=3000, time_policy=True)
@example(mu=50.0, q=300, order_up_to=3000, time_policy=False)
@settings(max_examples=40, deadline=None)
def test_blocked_solve_keeps_its_bits_when_g1_is_positive(mu, q, order_up_to, time_policy):
    inc = build_increment_tp(1.0, mu) if time_policy else build_increment_hp(1.0, q, mu)
    assert inc.masses[1] > 0.0
    table = renewal_table(inc, order_up_to)
    assert np.array_equal(table.m, blocked_oracle(inc.masses, order_up_to))


@st.composite
def zero_head_loads(draw):
    """Loads whose first positive mass above zero sits at some a > 1 (or at 1,
    near the TP underflow edge), with Q just below or above a, 2a or 3a: wide
    TP loads, HP loads at rate*T >> q (almost all mass at q) and lattices."""
    kind = draw(st.sampled_from(["tp", "hp", "lattice"]))
    if kind == "tp":
        inc = build_increment_tp(1.0, draw(st.floats(700.0, 2e4)))
    elif kind == "hp":
        q = draw(st.integers(2, 400))
        inc = build_increment_hp(1.0, q, draw(st.floats(1000.0, 2e4)))
    else:
        inc = IncrementDist(draw(st.sampled_from([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.3, 0.7]])))
    a = first_load(inc.masses)
    order_up_to = draw(st.integers(1, 3)) * a + draw(st.integers(-1, 1))
    return inc, min(max(order_up_to, 0), MAX_ORDER_UP_TO)


@given(case=zero_head_loads())
@example(case=(build_increment_tp(1.0, 1000.0), 70))
@example(case=(build_increment_tp(1.0, 1000.0), 142))
@example(case=(build_increment_hp(1.0, 50, 1000.0), 151))
@example(case=(IncrementDist([0.0, 0.0, 1.0]), 1))
@example(case=(build_increment_tp(1.0, 700.0), 0))
@settings(max_examples=40, deadline=None)
def test_blocked_solve_skips_the_zero_head(case):
    inc, order_up_to = case
    assert_table_matches_loop(inc, order_up_to)
    if order_up_to < first_load(inc.masses):
        # no load above zero fits under Q, and 1 - g(0) rounds to 1: one
        # cycle, holding Q
        table = renewal_table(inc, order_up_to)
        assert expected_k(table) == 1.0
        assert holding_sum(table) == order_up_to


def test_wide_time_load_at_large_level_stays_in_the_wald_bracket():
    inc = build_increment_tp(1.0, 5000.0)
    order_up_to = 8000
    assert first_load(inc.masses) > 1
    e_n = inc.mean()
    value = expected_k(renewal_table(inc, order_up_to))
    assert (order_up_to + 1) / e_n <= value <= (order_up_to + inc.support_end) / e_n


# ---------------------------------------------------------------------------
# closed-form tables of wide time-policy loads


def series_sums(mu, order_up_to):
    """E[K] = sum_k P(S_k <= Q) and the holding factor sum_k E[(Q - S_k)^+],
    S_k ~ Poisson(k mu), to 40 digits, with E[(Q - S)^+] = Q P(S <= Q) -
    lam P(S <= Q - 1) for S ~ Poisson(lam); summed until the terms past Q
    fall below 1e-45."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(mu)
        cycles, holding = mpmath.mpf(1), mpmath.mpf(order_up_to)
        lam = mu
        while True:
            head = mpmath.gammainc(order_up_to + 1, lam, regularized=True)
            below = mpmath.gammainc(order_up_to, lam, regularized=True) if order_up_to else 0
            cycles += head
            holding += order_up_to * head - lam * below
            if lam > order_up_to and head < mpmath.mpf(10) ** -45:
                return float(cycles), float(holding)
            lam += mu


wide_loads = st.floats(math.log(TP_CLOSED_FORM_MU), math.log(2e4)).map(math.exp)


@given(mu=wide_loads, order_up_to=st.integers(0, MAX_ORDER_UP_TO))
@example(mu=TP_CLOSED_FORM_MU, order_up_to=MAX_ORDER_UP_TO)
@example(mu=3394.2, order_up_to=9288)
@example(mu=1e4, order_up_to=MAX_ORDER_UP_TO)
@example(mu=2e4, order_up_to=MAX_ORDER_UP_TO)
@example(mu=300.0, order_up_to=0)
@settings(max_examples=30, deadline=None)
def test_closed_form_table_matches_the_series(mu, order_up_to):
    table = _tp_table(mu, order_up_to)
    cycles, holding = series_sums(mu, order_up_to)
    assert expected_k(table) == pytest.approx(cycles, rel=1e-13, abs=0.0)
    assert holding_sum(table) == pytest.approx(holding, rel=1e-13, abs=0.0)


@given(mu=wide_loads, order_up_to=st.integers(0, MAX_ORDER_UP_TO))
@example(mu=TP_CLOSED_FORM_MU, order_up_to=MAX_ORDER_UP_TO)
@example(mu=3394.2, order_up_to=9288)
@settings(max_examples=20, deadline=None)
def test_closed_form_table_matches_the_cut_recursion(mu, order_up_to):
    # the two differ by the recursion's tail cut of the load
    closed = _tp_table(mu, order_up_to)
    cut = renewal_table(build_increment_tp(1.0, mu), order_up_to)
    assert expected_k(closed) == pytest.approx(expected_k(cut), rel=1e-11, abs=0.0)
    assert holding_sum(closed) == pytest.approx(holding_sum(cut), rel=1e-11, abs=0.0)


@given(mu=st.lists(wide_loads, min_size=1, max_size=4),
       levels=st.tuples(st.integers(0, MAX_ORDER_UP_TO),
                        st.integers(0, MAX_ORDER_UP_TO)).map(sorted))
@example(mu=[TP_CLOSED_FORM_MU, 3394.2], levels=[5000, MAX_ORDER_UP_TO])
@settings(max_examples=20, deadline=None)
def test_closed_form_rows_do_not_depend_on_the_top_level(mu, levels):
    level, top = levels
    mu = np.array(mu)
    rows = _tp_renewal_rows(mu, top)
    assert np.array_equal(rows[:, :level + 1], _tp_renewal_rows(mu, level))
    for row, m in zip(rows, mu.tolist()):
        assert np.array_equal(row[:level + 1], _tp_table(m, level).m)


@pytest.mark.parametrize("rate", [1.0, 0.75, 3.0])
def test_time_policy_route_switches_at_the_closed_form_threshold(rate):
    at = TP_CLOSED_FORM_MU / rate
    below = np.nextafter(at, 0.0)
    while rate * below >= TP_CLOSED_FORM_MU:
        below = np.nextafter(below, 0.0)
    order_up_to = 3000
    records = []
    for period in (float(below), at):
        policy = TimePolicy(period)
        metrics._policy_table.cache_clear()
        got = replenish_metrics(SystemConfig(rate, policy, order_up_to))
        if period < at:  # the recursion on the tail-cut load, bit for bit
            table = renewal_table(build_increment_tp(rate, period), order_up_to)
        else:
            table = _tp_table(rate * period, order_up_to)
        assert got == metrics._renewal_record(cycle_metrics(rate, policy), expected_k(table),
                                              holding_sum(table))
        records.append(got)
    assert records[1].cycles == pytest.approx(records[0].cycles, rel=1e-11, abs=0.0)
    assert records[1].holding == pytest.approx(records[0].holding, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_closed_form_table_outside_lordens_bracket_raises(monkeypatch, scale):
    rows = renewal._tp_renewal_rows
    monkeypatch.setattr(renewal, "_tp_renewal_rows", lambda mu, q: rows(mu, q) * scale)
    metrics._policy_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="Wald bracket"):
            average_cost(SystemConfig(1.0, TimePolicy(300.0), 3000))
    finally:
        metrics._policy_table.cache_clear()


# ---------------------------------------------------------------------------
# load builders against per-element masses and the quantile-seeded cut


@given(mu=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e), q=st.integers(1, 2000))
@example(mu=1e4, q=2000)
@settings(max_examples=60, deadline=None)
def test_hp_masses_match_per_element(mu, q):
    masses = build_increment_hp(1.0, q, mu).masses
    ref = np.array([trunc_pmf(mu, q, i) for i in range(q + 1)])
    np.testing.assert_allclose(masses, ref, rtol=1e-9, atol=1e-300)


@given(mu=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e))
@example(mu=1e4)
@settings(max_examples=60, deadline=None)
def test_tp_masses_match_per_element(mu):
    masses = build_increment_tp(1.0, mu).masses
    ref = np.array([poisson_pmf(mu, i) for i in range(masses.size)])
    np.testing.assert_allclose(masses, ref / ref.sum(), rtol=1e-9, atol=1e-300)


@given(mu=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
       tail_eps=st.sampled_from([1e-10, DEFAULT_TAIL_EPS, 1e-15]))
@example(mu=1e-3, tail_eps=DEFAULT_TAIL_EPS)
@example(mu=1e4, tail_eps=DEFAULT_TAIL_EPS)
@settings(max_examples=100, deadline=None)
def test_tp_support_end_matches_quantile_seeded_search(mu, tail_eps):
    assert build_increment_tp(1.0, mu, tail_eps).support_end == tail_cut_oracle(mu, tail_eps)


def test_tp_support_end_far_below_default_tail_eps():
    # The seed guess is below the cut here; the upward walk must find it.
    for mu in (0.5, 40.0, 5000.0):
        end = build_increment_tp(1.0, mu, 1e-200).support_end
        assert poisson_tail(mu, end + 1) < 1e-200 <= poisson_tail(mu, end)


@given(mu=st.lists(st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e), min_size=1, max_size=30),
       q=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_batched_masses_do_not_depend_on_the_batch(mu, q):
    mu = np.array(mu)
    ends = [_tp_support_end(m) for m in mu.tolist()]
    hp = _hp_masses(mu, q)
    tp = _tp_masses(mu, ends)
    for r, m in enumerate(mu.tolist()):
        one = _hp_masses(mu[r:r + 1], q)[0]
        assert np.array_equal(hp[r], one)
        assert np.array_equal(one, build_increment_hp(1.0, q, m).masses)
        one = _tp_masses(mu[r:r + 1], ends[r:r + 1])[0]
        assert one.size == ends[r] + 1
        assert np.array_equal(tp[r, :one.size], one)
        assert not tp[r, one.size:].any()
        inc = build_increment_tp(1.0, m)
        assert inc.support_end == ends[r]
        assert np.array_equal(one, inc.masses)


@given(incs=st.lists(increments(), min_size=1, max_size=6),
       order_up_to=st.integers(0, 2 * BLOCK + 5))
@settings(max_examples=40, deadline=None)
def test_batched_recursion_matches_loop(incs, order_up_to):
    width = max(inc.masses.size for inc in incs)
    g = np.zeros((len(incs), width))
    for row, inc in zip(g, incs):
        row[:inc.masses.size] = inc.masses
    m = _renewal_rows(g, order_up_to)
    for row, inc in zip(m, incs):
        np.testing.assert_allclose(row, loop_oracle(inc.masses, order_up_to),
                                   rtol=1e-12, atol=0.0)


def test_wald_certificate():
    # rows with support end 2 and 3 (one zero-padded), one with mass at zero
    g = np.array([[0.25, 0.5, 0.25, 0.0], [0.5, 0.0, 0.0, 0.5]])
    ends = np.array([2, 3])
    for order_up_to in (0, 1, 6, 40):
        cycles = _renewal_rows(g, order_up_to).sum(axis=1)
        _check_wald(g, ends, order_up_to, cycles)
        mean = g @ np.arange(4.0)
        # a hand-built E[K] just outside each end of the bracket
        for bad in ((order_up_to + 1) / mean[1] * (1 - 1e-6),
                    (order_up_to + 3) / mean[1] * (1 + 1e-6), np.nan):
            with pytest.raises(ArithmeticError, match="Wald bracket"):
                _check_wald(g, ends, order_up_to, np.array([cycles[0], bad]))


def test_builders_reject_infinite_load_mean():
    with pytest.raises(ValueError):
        build_increment_tp(1e200, 1e200)
    with pytest.raises(ValueError):
        build_increment_hp(1.0, 3, math.inf)


def test_import_leaves_scipy_stats_out():
    package_root = str(Path(consolidate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = ("import sys, consolidate\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
