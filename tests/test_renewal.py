"""Renewal tables and load distributions against independent oracles.

The library solves the lattice renewal equation a block of levels at a time.
Two oracles check it: the convolution-series oracle sums k-fold convolutions
of the increment masses outright until the remaining series contributes less
than 1e-14, an entirely separate route to the same numbers; the loop oracle
runs the recursion one level at a time, the way the blocked solve must
reproduce it at every level up to the capacity limit.  Two more pin the
library's bits.  The convolution oracle solves every block by a correlation
and a convolution, from the first positive load; below the matvec gate the
library must match it bit for bit.  The blocked oracle starts every load at
level 1 and, above the gate, applies the library's jump matrix or block
inverse; on every load with g(1) > 0 the library must match it bit for bit.
The load builders are checked against the per-element mass functions, and
the public time builder's tail cut against the quantile-seeded search of
``scipy.stats``.  The closed-form tables of wide time-policy loads are
checked against 40-digit ``mpmath`` sums of their defining series and against
the recursion on the tail-cut load of ``build_increment_tp``.  The sums of
time-policy loads past their head, from the poles of Poisson(mu), are checked
against the same 40-digit sums, and below their head against the table's
bits; every route of a time load below the closed form against the 40-digit
recursion of ``tests/oracle.py``, and a time load's tables and sums against
the hybrid load's with a cap past its window, bit for bit.  The sums of a
system whose solve stops are checked against the table's E[K] bit for bit
and against the exact sum of its levels.  The tables of hybrid loads, built
on the capped load, are checked against the tables of the full load.
"""

import math
from fractions import Fraction
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from consolidate import metrics, renewal
from consolidate import (
    HybridPolicy,
    IncrementDist,
    SystemConfig,
    TimePolicy,
    average_cost,
    build_increment_hp,
    build_increment_tp,
    cycle_metrics,
    expected_k,
    holding_sum,
    poisson_cdf,
    poisson_pmf,
    poisson_tail,
    renewal_table,
    replenish_metrics,
    trunc_pmf,
)
from consolidate.renewal import (
    BLOCK,
    DEFAULT_TAIL_EPS,
    MATVEC_MIN_BLOCKS,
    MAX_ORDER_UP_TO,
    SETTLE_TOL,
    TP_CLOSED_FORM_MU,
    _check_lorden,
    _hp_masses,
    _renewal_levels,
    _tp_renewal_row,
    load_sums,
    load_table,
)
from consolidate.truncated_poisson import _poisson_masses
import oracle


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


def above_zero(masses, above=None):
    """The P(X > 0) that starts a load's solve, m(0) = 1/P(X > 0): ``above``,
    the -expm1(-mu) of a load of Poisson(mu) on the evaluation paths, or
    1 - g(0) of each row of masses g, as ``renewal_table`` takes it."""
    return 1.0 - np.asarray(masses, dtype=float)[..., 0] if above is None else above


def loop_oracle(masses, order_up_to, above=None):
    """m(0..Q) by the recursion, one level per step, from P(X > 0) =
    ``above_zero(masses, above)``."""
    g = np.asarray(masses, dtype=float)
    scale = 1.0 / above_zero(g, above)
    smax = g.size - 1
    m = np.empty(order_up_to + 1)
    m[0] = scale
    for i in range(1, order_up_to + 1):
        j = min(i, smax)
        stop = i - j - 1
        window = m[i - 1:stop if stop >= 0 else None:-1]
        m[i] = scale * float(g[1:j + 1] @ window)
    return m


def convolution_blocks(m, kernel, smax, stop):
    """Levels 1..stop-1 of m by one correlation and one convolution per
    block, block sizes doubling from 1 up to BLOCK: the solve of tables below
    the matvec gate."""
    b = 1
    while b < stop:
        n = min(b, BLOCK, stop - b)
        lo = max(0, b - smax)
        known = np.correlate(kernel[:b - lo + n - 1], m[lo:b][::-1], "valid")
        m[b:b + n] = np.convolve(known, m[:n])[:n]
        b += n


def start_table(masses, order_up_to, above=None):
    """m with m(0) set, and the correlation kernel g(1..Q) of the library."""
    g = np.asarray(masses, dtype=float)
    m = np.empty(order_up_to + 1)
    m[0] = 1.0 / above_zero(g, above)
    kernel = np.zeros(order_up_to)
    kernel[:min(g.size - 1, order_up_to)] = g[1:order_up_to + 1]
    return m, kernel


def explicit_oracle(masses, order_up_to, above=None):
    """m(0..Q) of a load whose first positive load a is at least BLOCK: the
    library's explicit blocks of a levels, one correlation of the window
    g(a..w) each over the levels zero-extended below 0, to Q."""
    g = np.asarray(masses, dtype=float)
    a = first_load(g, order_up_to)
    width = min(g.size - 1, order_up_to)
    ext = np.zeros(width + order_up_to + 1)
    ext[width] = 1.0 / above_zero(g, above)
    for b in range(a, order_up_to + 1, a):
        n = min(a, order_up_to + 1 - b)
        ext[width + b:width + b + n] = np.correlate(ext[b:b + n - a + width],
                                                    g[a:width + 1][::-1], "valid") * ext[width]
    return ext[width:]


def convolution_oracle(masses, order_up_to, above=None):
    """m(0..Q) by convolution blocks alone, from level 1, to Q; a load whose
    first positive load is at least BLOCK by ``explicit_oracle``."""
    if first_load(masses, order_up_to) >= BLOCK:
        return explicit_oracle(masses, order_up_to, above)
    m, kernel = start_table(masses, order_up_to, above)
    convolution_blocks(m, kernel, len(masses) - 1, order_up_to + 1)
    return m


def blocked_oracle(masses, order_up_to, above=None):
    """m(0..Q) by the blocked solve, to Q, from P(X > 0) =
    ``above_zero(masses, above)``: its convolution blocks, then above the
    gate the library's matvec kernels, the jump matrix of a narrow load
    (w <= BLOCK) from level 2 * BLOCK on, the block inverse of a wide one
    from BLOCK on; a load whose first positive load is at least BLOCK by
    ``explicit_oracle``."""
    if first_load(masses, order_up_to) >= BLOCK:
        return explicit_oracle(masses, order_up_to, above)
    m, kernel = start_table(masses, order_up_to, above)
    smax = len(masses) - 1
    if order_up_to // BLOCK < MATVEC_MIN_BLOCKS:
        convolution_blocks(m, kernel, smax, order_up_to + 1)
        return m
    start = 2 * BLOCK if smax <= BLOCK else BLOCK
    convolution_blocks(m, kernel, smax, start)
    if smax <= BLOCK:
        jump = renewal._jump_matrix(m, kernel, smax)
    else:
        lower = renewal._block_inverse(m, BLOCK)
    for b in range(start, order_up_to + 1, BLOCK):
        n = min(BLOCK, order_up_to + 1 - b)
        lo = max(0, b - smax)
        if smax <= BLOCK:
            m[b:b + n] = jump[:n] @ m[lo:b]
        else:
            m[b:b + n] = lower[:n, :n] @ np.correlate(kernel[:b - lo + n - 1], m[lo:b][::-1],
                                                      "valid")
    return m


def stop_level(masses, order_up_to, ref, above=None):
    """The level at which the library's solve stops, by its rule applied to
    the levels ``ref`` of the solve run to Q (the solve's own levels up to
    there), or None: the first block start b = 2^k >= 2 * BLOCK (for a load
    whose first positive load a is at least BLOCK, the first multiple of a at
    or past each 2^k) with b >= w whose state m(b-w..b-1) spans at most
    SETTLE_TOL of its largest level, on a load of defect at most SETTLE_TOL
    against P(X > 0) = ``above_zero(masses, above)``."""
    g = np.asarray(masses, dtype=float)
    smax = g.size - 1
    if renewal._lorden_row(g, above_zero(g, above))[2] > SETTLE_TOL:
        return None
    a = first_load(g, order_up_to)
    starts = range(a, order_up_to + 1, a) if a >= BLOCK else [
        2 ** k for k in range(8, 14) if 2 ** k <= order_up_to]
    check = 2 * BLOCK
    for b in starts:
        if b < check:
            continue
        while check <= b:
            check *= 2
        if b >= smax:
            state = ref[b - smax:b]
            if state.max() - state.min() <= SETTLE_TOL * state.max():
                return b
    return None


def assert_stopped_table_keeps_the_bits(table, masses, ref, above=None):
    """Levels below the stop equal ``ref`` bit for bit; from the stop on,
    every level is the midpoint of the state's range."""
    order_up_to = table.order_up_to
    b = stop_level(masses, order_up_to, ref, above)
    if b is None:
        assert np.array_equal(table.m, ref)
        return
    assert np.array_equal(table.m[:b], ref[:b])
    state = ref[b - (len(masses) - 1):b]
    assert (table.m[b:] == 0.5 * (state.min() + state.max())).all()


def stopped_sums(table, masses, above=None):
    """(E[K], holding factor) of a table as ``load_sums`` takes them from its
    solve: at a stop b (``stop_level`` on the table's own levels below it),
    the levels below b as the table sums them and the Q + 1 - b levels from
    b on, all m(b), in closed form; the table's sums if it did not stop."""
    order_up_to = table.order_up_to
    b = stop_level(masses, order_up_to, table.m, above)
    if b is None:
        return expected_k(table), holding_sum(table)
    value, rest = float(table.m[b]), order_up_to + 1 - b
    return (float(table.M[b - 1]) + value * rest,
            float((order_up_to - np.arange(b)) @ table.m[:b]) + value * (rest * (rest - 1) // 2))


def first_load(masses, order_up_to=None):
    """The first load above zero with positive mass; up to Q, or Q + 1 if no
    load in 1..Q has mass."""
    loads = np.flatnonzero(np.asarray(masses)[1:None if order_up_to is None else order_up_to + 1])
    return int(loads[0]) + 1 if loads.size else order_up_to + 1


def tail_cut_oracle(mu, tail_eps):
    """Support end of a tail-cut Poisson increment, seeded by the quantile."""
    end = int(poisson.isf(tail_eps, mu)) + 1
    while poisson_tail(mu, end + 1) >= tail_eps:
        end += 1
    while end > 1 and poisson_tail(mu, end) < tail_eps:
        end -= 1
    return end


def drift_free_oracle(masses, order_up_to):
    """m(0..Q) as a stopped table stands for them: ``loop_oracle`` up to the
    table's stop level b (``stop_level``), and from b on the recursion on the
    masses above zero rescaled to total 1 - g(0), the load the masses stand
    for, whose levels do not take the drift of the masses' rounded total."""
    g = np.array(masses, dtype=float)
    m = loop_oracle(g, order_up_to)
    b = stop_level(g, order_up_to, m)
    if b is not None:
        g[1:] *= (1.0 - g[0]) / g[1:].sum()
        scale, smax = 1.0 / (1.0 - g[0]), g.size - 1
        for i in range(b, order_up_to + 1):
            m[i] = scale * float(g[1:min(i, smax) + 1] @ m[i - 1::-1][:smax])
    return m


def assert_table_matches_loop(inc, order_up_to):
    table = renewal_table(inc, order_up_to)
    ref = drift_free_oracle(inc.masses, order_up_to)
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
       order_up_to=st.one_of(st.integers(0, 8 * BLOCK), st.integers(8 * BLOCK, MAX_ORDER_UP_TO)),
       time_policy=st.booleans())
@example(mu=3.0, q=5, order_up_to=3000, time_policy=True)
@example(mu=50.0, q=300, order_up_to=3000, time_policy=False)
@example(mu=3.0, q=5, order_up_to=MAX_ORDER_UP_TO, time_policy=True)
@example(mu=100.0, q=BLOCK, order_up_to=MATVEC_MIN_BLOCKS * BLOCK, time_policy=False)
@example(mu=50.0, q=300, order_up_to=MAX_ORDER_UP_TO, time_policy=False)
# zero heads: g(1) = 0, below and above the gate, narrow and wide
@example(mu=1000.0, q=5, order_up_to=MATVEC_MIN_BLOCKS * BLOCK - 1, time_policy=True)
@example(mu=1000.0, q=5, order_up_to=MAX_ORDER_UP_TO, time_policy=True)
@example(mu=5000.0, q=60, order_up_to=MATVEC_MIN_BLOCKS * BLOCK, time_policy=False)
@example(mu=5000.0, q=300, order_up_to=MAX_ORDER_UP_TO, time_policy=False)
@settings(max_examples=40, deadline=None)
def test_blocked_solve_keeps_its_bits_when_g1_is_positive(mu, q, order_up_to, time_policy):
    inc = build_increment_tp(1.0, mu) if time_policy else build_increment_hp(1.0, q, mu)
    table = renewal_table(inc, order_up_to)
    assert_stopped_table_keeps_the_bits(table, inc.masses, blocked_oracle(inc.masses, order_up_to))


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
def test_blocked_solve_matches_loop_on_zero_head_loads(case):
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
# matvec blocks at and above the gate

GATE = MATVEC_MIN_BLOCKS * BLOCK


@st.composite
def loads_across_routes(draw):
    """Random increments narrow and wide, policy loads, and loads with a zero
    head, narrow (HP at rate*T >> q) or wide (TP)."""
    kind = draw(st.sampled_from(["random", "hp", "tp", "zero_head"]))
    if kind == "random":
        return draw(increments())
    if kind == "hp":
        return build_increment_hp(1.0, draw(st.integers(1, 3 * BLOCK)), draw(st.floats(0.01, 600.0)))
    if kind == "tp":
        return build_increment_tp(1.0, draw(st.floats(0.01, TP_CLOSED_FORM_MU)))
    return draw(zero_head_loads())[0]


@given(inc=loads_across_routes(), order_up_to=st.integers(GATE - 2 * BLOCK, MAX_ORDER_UP_TO))
@example(inc=build_increment_hp(1.0, 2, 1.6), order_up_to=GATE - 1)
@example(inc=build_increment_hp(1.0, 2, 1.6), order_up_to=GATE)
@example(inc=build_increment_hp(1.0, BLOCK, 100.0), order_up_to=GATE)
@example(inc=build_increment_hp(1.0, BLOCK + 1, 100.0), order_up_to=GATE + BLOCK - 1)
@example(inc=build_increment_hp(1.0, 60, 5000.0), order_up_to=MAX_ORDER_UP_TO)
@example(inc=IncrementDist([0.0, 0.0, 0.0, 0.3, 0.7]), order_up_to=MAX_ORDER_UP_TO)
@example(inc=build_increment_tp(1.0, 5000.0), order_up_to=MAX_ORDER_UP_TO)
# defect 8.0e-15: the table stops, while the loop on these masses drifts by
# ~d Q / 2 to E[K] 1.4e-11 above it
@example(inc=IncrementDist([0.98834965, (1.0 - 0.98834965) * (1.0 + 8e-15)]),
         order_up_to=4027)
@settings(max_examples=40, deadline=None)
def test_matvec_solve_matches_loop(inc, order_up_to):
    assert_table_matches_loop(inc, order_up_to)


@given(inc=loads_across_routes(), order_up_to=st.integers(0, GATE - 1))
@example(inc=build_increment_hp(1.0, 2, 1.6), order_up_to=GATE - 1)
@example(inc=build_increment_hp(1.0, 863, 468.0), order_up_to=GATE - 1)
@example(inc=build_increment_hp(1.0, 60, 5000.0), order_up_to=GATE - 1)
@example(inc=build_increment_tp(1.0, 1000.0), order_up_to=GATE - 1)
@settings(max_examples=40, deadline=None)
def test_tables_below_the_gate_keep_the_convolution_bits(inc, order_up_to):
    table = renewal_table(inc, order_up_to)
    assert_stopped_table_keeps_the_bits(table, inc.masses,
                                        convolution_oracle(inc.masses, order_up_to))


@pytest.mark.parametrize("builder, inc", [
    ("_jump_matrix", build_increment_hp(1.0, 10, 8.0)),
    ("_block_inverse", build_increment_hp(1.0, 300, 250.0)),
])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_matvec_table_outside_walds_bracket_raises(monkeypatch, builder, inc, scale):
    build = getattr(renewal, builder)
    monkeypatch.setattr(renewal, builder, lambda *args: scale * build(*args))
    with pytest.raises(ArithmeticError, match="Lorden bracket"):
        renewal_table(inc, GATE)


def wald_upper(masses, order_up_to):
    """The looser upper end (Q + smax)/E[X] of E[K] that the support end gives."""
    masses = np.asarray(masses)
    return (order_up_to + masses.shape[-1] - 1) / (masses @ np.arange(masses.shape[-1]))


def lorden_upper(masses, order_up_to):
    """Lorden's upper end (Q + E[X^2]/E[X])/E[X] of E[K]."""
    masses = np.asarray(masses)
    support = np.arange(masses.shape[-1])
    mean = masses @ support
    return (order_up_to + masses @ support**2 / mean) / mean


# loads 2 and 4: periodic, so the solve never stops (every odd level is 0),
# and with a gap between Lorden's upper end and the support end's one
PERIODIC = IncrementDist([0.0, 0.0, 0.5, 0.0, 0.5])


@pytest.mark.parametrize("inc, order_up_to", [
    pytest.param(PERIODIC, 2 * BLOCK, id="periodic-256"),
    pytest.param(PERIODIC, 1000, id="periodic-1000"),
    pytest.param(PERIODIC, GATE - 1, id="periodic-gate-1"),
    pytest.param(PERIODIC, GATE, id="periodic-gate"),
    pytest.param(build_increment_hp(1.0, 10, 8.0), GATE, id="jump-gate"),
    pytest.param(build_increment_hp(1.0, 300, 250.0), GATE, id="inverse-gate"),
])
def test_table_between_the_brackets_raises(monkeypatch, inc, order_up_to):
    # every table to Q >= 2 * BLOCK is certified, stopped or not, on either
    # side of the matvec gate: E[K] scaled halfway from Lorden's upper end to
    # the support end's one, inside the loose bracket, must fail the check
    solved = renewal_table(inc, order_up_to)
    if inc is PERIODIC:
        assert not solved.m[1::2].any()    # no level was filled by a stop
    cycles = expected_k(solved)
    upper, loose = lorden_upper(inc.masses, order_up_to), wald_upper(inc.masses, order_up_to)
    assert upper * (1.0 + 1e-6) < loose
    scale = (upper + loose) / 2.0 / cycles
    table = renewal.RenewalTable
    monkeypatch.setattr(renewal, "RenewalTable", lambda m, M, order_up_to: table(
        m=scale * m, M=scale * M, order_up_to=order_up_to))
    with pytest.raises(ArithmeticError, match="Lorden bracket"):
        renewal_table(inc, order_up_to)


@pytest.mark.parametrize("inc, jumps", [
    pytest.param(build_increment_hp(1.0, 2, 1.6), 0, id="stops-at-256"),
    pytest.param(build_increment_tp(1.0, 5.0), 0, id="time-stops-at-256"),
    pytest.param(build_increment_hp(1.0, 10, 8.0), 1, id="stops-at-512"),
    pytest.param(PERIODIC, 1, id="periodic"),
    pytest.param(build_increment_hp(1.0, BLOCK, 100.0), 1, id="defect-above-tol"),
])
@pytest.mark.parametrize("order_up_to", [GATE, MAX_ORDER_UP_TO])
def test_a_narrow_table_builds_its_jump_matrix_past_its_first_stop_test(monkeypatch, inc, jumps,
                                                                        order_up_to):
    # past the gate a load of support end w <= BLOCK solves levels up to
    # 2 * BLOCK by convolution and builds its jump matrix only if the stop
    # test there fails, once; its bits are the blocked oracle's either way
    built = []
    jump = renewal._jump_matrix
    monkeypatch.setattr(renewal, "_jump_matrix", lambda *args: (built.append(1), jump(*args))[1])
    table = renewal_table(inc, order_up_to)
    assert len(built) == jumps
    assert_stopped_table_keeps_the_bits(table, inc.masses,
                                        blocked_oracle(inc.masses, order_up_to))


def test_a_wide_table_builds_its_block_inverse_at_block(monkeypatch):
    # support end w > BLOCK: one block inverse, applied from level BLOCK on
    inc = build_increment_hp(1.0, 300, 250.0)
    built = []
    for name in ("_block_inverse", "_jump_matrix"):
        monkeypatch.setattr(renewal, name, lambda *args, fn=getattr(renewal, name), name=name: (
            built.append(name), fn(*args))[1])
    table = renewal_table(inc, GATE)
    assert built == ["_block_inverse"]
    assert_stopped_table_keeps_the_bits(table, inc.masses, blocked_oracle(inc.masses, GATE))


@pytest.mark.parametrize("inc", [
    build_increment_hp(1.0, 2, 1.6),
    build_increment_hp(1.0, BLOCK, 100.0),
    build_increment_hp(1.0, MAX_ORDER_UP_TO, 5000.0),
])
def test_matvec_table_memory_stays_small(inc):
    tracemalloc.start()
    try:
        renewal_table(inc, MAX_ORDER_UP_TO)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# closed-form tables of wide time-policy loads


def series_sums(mu, order_up_to):
    """E[K] = sum_k P(S_k <= Q) and the holding factor sum_k E[(Q - S_k)^+],
    S_k ~ Poisson(k mu), to 40 digits, with E[(Q - S)^+] = Q P(S <= Q) -
    lam P(S <= Q - 1) for S ~ Poisson(lam); summed until the terms past Q
    fall below 1e-45.  A term past Q whose Chernoff bound
    exp(-lam + Q + Q log(lam/Q)) on P(S <= Q) is below 1e-60 ends the sum
    before it is evaluated: the terms from there on are decreasing and
    negligible, and mpmath's incomplete gamma does not converge on some of
    them (Q = 8192 at lam = e^9.75, where P(S <= Q) is about 1e-1266)."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(mu)
        cycles, holding = mpmath.mpf(1), mpmath.mpf(order_up_to)
        lam = mu
        while True:
            if lam > order_up_to:
                chernoff = -lam + order_up_to * (1 + mpmath.log(lam / order_up_to)) \
                    if order_up_to else -lam
                if chernoff < math.log(1e-60):
                    return float(cycles), float(holding)
            head = mpmath.gammainc(order_up_to + 1, lam, regularized=True)
            below = mpmath.gammainc(order_up_to, lam, regularized=True) if order_up_to else 0
            cycles += head
            holding += order_up_to * head - lam * below
            if lam > order_up_to and head < mpmath.mpf(10) ** -45:
                return float(cycles), float(holding)
            lam += mu


# exp(log(256)) rounds below 256, where ``load_table`` takes the window route
wide_loads = st.floats(math.log(TP_CLOSED_FORM_MU), math.log(2e4)).map(
    lambda e: max(math.exp(e), TP_CLOSED_FORM_MU))


@given(mu=wide_loads, order_up_to=st.integers(0, MAX_ORDER_UP_TO))
@example(mu=TP_CLOSED_FORM_MU, order_up_to=MAX_ORDER_UP_TO)
@example(mu=3394.2, order_up_to=9288)
@example(mu=1e4, order_up_to=MAX_ORDER_UP_TO)
@example(mu=2e4, order_up_to=MAX_ORDER_UP_TO)
@example(mu=300.0, order_up_to=0)
# the oracle's incomplete gamma does not converge on these loads' first term
@example(mu=math.exp(9.75), order_up_to=8192)
@example(mu=math.exp(9.797), order_up_to=8192)
@settings(max_examples=30, deadline=None)
def test_closed_form_table_matches_the_series(mu, order_up_to):
    table = load_table(mu, None, order_up_to)
    cycles, holding = series_sums(mu, order_up_to)
    assert expected_k(table) == pytest.approx(cycles, rel=1e-13, abs=0.0)
    assert holding_sum(table) == pytest.approx(holding, rel=1e-13, abs=0.0)


@given(mu=wide_loads, order_up_to=st.integers(0, MAX_ORDER_UP_TO))
@example(mu=TP_CLOSED_FORM_MU, order_up_to=MAX_ORDER_UP_TO)
@example(mu=3394.2, order_up_to=9288)
@settings(max_examples=20, deadline=None)
def test_closed_form_table_matches_the_cut_recursion(mu, order_up_to):
    # the two differ by the recursion's tail cut of the load
    closed = load_table(mu, None, order_up_to)
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
    for m in mu:
        row = _tp_renewal_row(m, top)
        assert np.array_equal(row[:level + 1], _tp_renewal_row(m, level))
        assert np.array_equal(row[:level + 1], load_table(m, None, level).m)


@pytest.mark.parametrize("rate", [1.0, 0.75, 3.0])
def test_time_policy_route_switches_at_the_closed_form_threshold(rate):
    # the sums take the poles on both sides, past the head i0 = ceil(2 mu)
    # below the threshold and the floor of the closed form's first window
    # from it on; from it on the table takes the closed form
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
        sums = load_sums(rate * period, None, order_up_to)
        assert got == metrics._renewal_record(cycle_metrics(rate, policy), *sums)
        records.append(got)
    table = load_table(rate * at, None, order_up_to)
    assert sums == pytest.approx((expected_k(table), holding_sum(table)), rel=1e-13, abs=0.0)
    assert records[1].cycles == pytest.approx(records[0].cycles, rel=1e-11, abs=0.0)
    assert records[1].holding == pytest.approx(records[0].holding, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_closed_form_table_outside_lordens_bracket_raises(monkeypatch, scale):
    # from the threshold on a table takes the closed form and its sums the
    # poles: each is certified
    row, tail = renewal._tp_renewal_row, renewal._pole_tail
    with monkeypatch.context() as patch:
        patch.setattr(renewal, "_tp_renewal_row", lambda mu, q: row(mu, q) * scale)
        with pytest.raises(ArithmeticError, match="Lorden bracket"):
            load_table(300.0, None, 3000)
    monkeypatch.setattr(renewal, "_pole_tail", lambda *args: tuple(scale * x for x in tail(*args)))
    metrics._policy_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="Lorden bracket"):
            average_cost(SystemConfig(1.0, TimePolicy(300.0), 3000))
    finally:
        metrics._policy_table.cache_clear()


# ---------------------------------------------------------------------------
# time-load sums past their head from the poles of Poisson(mu)


def route_sums(mu, order_up_to, q=None):
    """(E[K], holding factor) of the time load (q None) or cap-q hybrid load
    of mean mu at level Q by each route: the scalar sums, a golden row and a
    scan cell, whose holding factor is the scan's running sum
    sum_{j<Q} M(j)."""
    caps = None if q is None else np.array([q])
    cycles, holding, checked = renewal._row_sums(np.array([mu]), caps, np.array([order_up_to]))
    assert checked.all()
    scan, terms = renewal._level_table(np.array([mu]), q, order_up_to)
    held = np.cumsum(scan[:order_up_to, 0])[-1] if order_up_to else 0.0
    return {"scalar": load_sums(mu, q, order_up_to), "row": (cycles[0], holding[0]),
            "scan": (scan[order_up_to, 0], held)}


def pole_head(mu):
    """The head i0 of the time load of mean mu, by the route of ``renewal``:
    its first level from the poles, or MAX_ORDER_UP_TO + 1 if it takes none."""
    return renewal._route(mu, None)[1]


def bernstein_cap(mu):
    """floor(mu + r): a hybrid load of a cap above it is Poisson(mu) on every
    table, within less than 1e-20 of its mass."""
    return math.floor(mu + renewal._bernstein_radius(mu))


# series_sums takes ~1 ms a term, ~Q/mu terms: levels up to 800 mu, from i0
# (i0/mu <= 800 from mu = 0.04 on; smaller means by an example), or from
# Q = MAX_ORDER_UP_TO where i0 lies past it (mu above ~10 800); a time load
# or a hybrid load whose cap lies past its Bernstein cap
pole_points = st.floats(math.log(0.04), math.log(2e4)).map(math.exp).flatmap(
    lambda mu: st.tuples(
        st.just(mu),
        st.one_of(st.none(), st.integers(bernstein_cap(mu) + 1, bernstein_cap(mu) + 2000)),
        st.integers(min(pole_head(mu), MAX_ORDER_UP_TO),
                    max(min(pole_head(mu), MAX_ORDER_UP_TO),
                        min(MAX_ORDER_UP_TO, int(800 * mu))))))


@given(point=pole_points)
@example(point=(5.0, None, 3000))
@example(point=(70.0, None, MAX_ORDER_UP_TO))
@example(point=(2.0, None, 3000))
@example(point=(0.01, None, 32))       # the smallest mean at its head
@example(point=(255.9, None, MAX_ORDER_UP_TO))
@example(point=(255.9, None, 512))
@example(point=(math.exp(5.5), None, 611))     # the table's errors partly cancel
@example(point=(5.0, 200, 3000))
@example(point=(20.0, 100, 3000))
@example(point=(63.6, 736, 3000))
@example(point=(150.0, 400, 2000))
# from the threshold on: the head is m(0) and zeros, up to i0 - 1 = 86 at
# mu = 256, and 48-150 pole pairs
@example(point=(256.0, None, MAX_ORDER_UP_TO))
@example(point=(256.0, None, 86))
@example(point=(256.0, None, 87))
@example(point=(353.74, None, 8697))
@example(point=(353.74, 1000, 8697))
@example(point=(4999.0, None, MAX_ORDER_UP_TO))
@example(point=(4999.0, 6000, MAX_ORDER_UP_TO))
@example(point=(9000.0, None, MAX_ORDER_UP_TO))
@example(point=(9000.0, None, 8074))
@example(point=(9000.0, None, 8075))
@settings(max_examples=8, deadline=None)
def test_pole_sums_are_no_less_accurate_than_the_table(point):
    # Against the 40-digit series, each route errs by at most what the
    # table on the load's window (a time load's, with no cap) errs, or what
    # its head carries in, plus 1e-14: at mu = e^5.5, Q = 611 the routes err
    # by 6.8e-14, the table by 9.8e-14 and the head by 8.1e-14; at mu = 5,
    # Q = 3000 the routes by 1.9e-16 and the table by 2.3e-14.  A hybrid
    # load's routes are within 1e-13 (its window table errs by 4.3e-13 at
    # mu = 150, q = 400, Q = 2000).  From the threshold on, every route (the
    # poles, and the scan's closed form) is within 1e-13.
    mu, q, order_up_to = point
    exact = series_sums(mu, order_up_to)
    routes = route_sums(mu, order_up_to, q)
    if mu < TP_CLOSED_FORM_MU:
        head = pole_head(mu)
        n = order_up_to - head + 1
        below = series_sums(mu, head - 1)
        table, start = load_table(mu, q, order_up_to), load_table(mu, q, head - 1)
        table_error = (expected_k(table) - exact[0], holding_sum(table) - exact[1])
        carried = (expected_k(start) - below[0],
                   holding_sum(start) + n * expected_k(start) - below[1] - n * below[0])
        slack = [max(abs(a), abs(b)) + 1e-14 * ref
                 for a, b, ref in zip(table_error, carried, exact)]
        for route, sums in routes.items():
            for got, ref, bound in zip(sums, exact, slack):
                assert abs(got - ref) <= bound, (route, got, ref, bound)
    if q is not None or mu >= TP_CLOSED_FORM_MU:
        for route, sums in routes.items():
            for got, ref in zip(sums, exact):
                assert abs(got - ref) <= 1e-13 * ref, (route, got, ref)


@pytest.mark.parametrize("mu", [0.01, 0.05, 0.3, 1.0, 5.0, 10.0, 31.9, 64.0, 127.0, 200.0, 255.9])
def test_time_routes_match_the_40_digit_recursion(mu):
    # Every route of a time load below the closed form (the scalar sums, a
    # golden row, a scan cell) solves the load's window with no cap up to
    # its head and takes its poles past it: within 2e-13 of the 40-digit
    # recursion on the exact masses (measured at most 6.2e-14, from mu = 1
    # on; 7.3e-15 below, where the start 1/(1 - g(0)) erred by 8.6e-14 at
    # mu = 0.01, Q = 31).
    levels = [0, 2, 3, 18, 19, 31, 33, 100, 300, 600]
    exact = oracle.load_sums(mu, levels[-1])
    for order_up_to in levels:
        ref = [float(x[order_up_to]) for x in exact]
        for route, sums in route_sums(mu, order_up_to).items():
            for got, want in zip(sums, ref):
                assert abs(got - want) <= 2e-13 * want, (route, order_up_to, got, want)


@given(mu=st.floats(math.log(1e-6), math.log(TP_CLOSED_FORM_MU), exclude_max=True).map(math.exp),
       order_up_to=st.integers(0, MAX_ORDER_UP_TO))
@example(mu=1.2e-7, order_up_to=32)
@example(mu=5.0, order_up_to=19)
@example(mu=255.9, order_up_to=MAX_ORDER_UP_TO)
@settings(max_examples=30, deadline=None)
def test_a_time_load_is_the_hybrid_load_with_no_cap(mu, order_up_to):
    # below the closed form, a cap past floor(mu + r) builds the same window
    # and takes the same route as no cap, so every bit agrees
    for past in (1, 1000):
        q = bernstein_cap(mu) + past
        assert renewal._route(mu, q) == renewal._route(mu, None)
        time, hybrid = load_table(mu, None, order_up_to), load_table(mu, q, order_up_to)
        assert np.array_equal(time.m, hybrid.m) and np.array_equal(time.M, hybrid.M)
        assert load_sums(mu, None, order_up_to) == load_sums(mu, q, order_up_to)


@given(mu=st.floats(math.log(1e-8), math.log(TP_CLOSED_FORM_MU), exclude_max=True).map(math.exp),
       past=st.one_of(st.none(), st.integers(1, 2000)), data=st.data())
@example(mu=1e-8, past=None, data=None)
@example(mu=5.0, past=None, data=None)
@example(mu=255.9, past=None, data=None)
@example(mu=5.0, past=200 - bernstein_cap(5.0), data=None)
@example(mu=63.6, past=736 - bernstein_cap(63.6), data=None)
@example(mu=150.0, past=400 - bernstein_cap(150.0), data=None)
@settings(max_examples=25, deadline=None)
def test_pole_routes_keep_every_bit_below_the_head(mu, past, data):
    # below i0 every route sums the table's levels as without poles; a
    # hybrid load of cap q = floor(mu + r) + past keeps its window table's
    head = pole_head(mu)
    q = None if past is None else bernstein_cap(mu) + past
    levels = [0, 1, 2, head - 1] if data is None else [
        data.draw(st.integers(0, head - 1)) for _ in range(2)]
    got = {level: route_sums(mu, level, q) for level in levels}
    with pytest.MonkeyPatch.context() as patch:    # no load takes a Poisson route
        patch.setattr(renewal, "_route", lambda mu, q: None if isinstance(mu, np.ndarray)
                      else (False, MAX_ORDER_UP_TO + 1))
        without = {level: route_sums(mu, level, q) for level in levels}
    for level in levels:
        assert got[level] == without[level]
        table = load_table(mu, q, level)
        assert got[level]["scalar"] == (expected_k(table), holding_sum(table))


@pytest.mark.parametrize("mu, order_up_to", [(5.0, 3000), (63.6, 3000), (150.0, 2000),
                                             (300.0, 3000)])
def test_only_a_cap_past_the_bernstein_cap_takes_the_poisson_routes(monkeypatch, mu,
                                                                    order_up_to):
    # q = floor(mu + r) and q + 1 build the same window, but only the load of
    # cap q + 1 is Poisson(mu) on every table: the poles below
    # TP_CLOSED_FORM_MU, the closed form from it
    edge = bernstein_cap(mu)
    assert renewal._hp_window(mu, edge, order_up_to) == renewal._hp_window(mu, edge + 1,
                                                                           order_up_to)
    taken = []
    for name in ("_pole_tail", "_pole_cycles", "_tp_renewal_row"):
        monkeypatch.setattr(renewal, name, lambda *args, fn=getattr(renewal, name), name=name: (
            taken.append(name), fn(*args))[1])
    at = route_sums(mu, order_up_to, edge)
    assert taken == []
    table = load_table(mu, edge, order_up_to)
    assert at["scalar"] == stopped_sums(table, *renewal._load_masses(mu, edge, order_up_to))
    past = route_sums(mu, order_up_to, edge + 1)
    # from the threshold on the sums take the poles (past a head of the
    # closed form's m(0) and zeros), and the scan the closed form
    assert sorted(set(taken)) == (["_pole_tail", "_tp_renewal_row"] if mu >= TP_CLOSED_FORM_MU
                                  else ["_pole_cycles", "_pole_tail"])
    exact = series_sums(mu, order_up_to)
    for route, sums in past.items():
        for got, ref in zip(sums, exact):
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), route


def test_a_binding_cap_keeps_the_window_tables_bits():
    # HP(363, mu = 254.5) at Q = 8 490, an exact-large system: its cap binds
    mu, q, order_up_to = 254.5, 363, 8490
    floor, cap = renewal._hp_window(mu, q, order_up_to)
    assert cap == q <= bernstein_cap(mu)
    table = renewal._table(window_masses(mu, floor, cap), -math.expm1(-mu), order_up_to)
    assert load_sums(mu, q, order_up_to) == (expected_k(table), holding_sum(table))


@pytest.mark.parametrize("q", [None, 5])
@pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -1.0])
def test_load_entry_points_reject_a_mean_that_is_not_positive_and_finite(mu, q):
    for entry in (load_table, load_sums):
        with pytest.raises(ValueError, match="rate and period must be positive"):
            entry(mu, q, 10)


# 1.2e-7: the head of every mean below 16 is 32 levels; from the threshold
# on the head is the closed form's m(0), and zeros up to i0 - 1, which takes
# no table at all
@pytest.mark.parametrize("period", [1.2e-7, 1e-4, 0.02, 1.0, 5.0, 70.0, 255.9, 256.0, 600.0,
                                    9000.0])
def test_a_time_evaluation_at_the_capacity_solves_only_its_head(monkeypatch, period):
    solved = []
    for name in ("_solve", "_tp_renewal_row"):
        monkeypatch.setattr(renewal, name, lambda *args, fn=getattr(renewal, name): (
            solved.append(args[-1]), fn(*args))[1])
    monkeypatch.setattr(renewal, "_renewal_levels", None)
    metrics._policy_table.cache_clear()
    average_cost(SystemConfig(1.0, TimePolicy(period), MAX_ORDER_UP_TO))
    closed, head = renewal._route(period, None)
    assert solved == ([] if closed else [min(head - 1, MAX_ORDER_UP_TO)])


@pytest.mark.parametrize("mu, q, order_up_to", [
    (256.0, None, MAX_ORDER_UP_TO), (353.74, None, 8697), (353.74, 1000, 8697),
    (4999.0, None, MAX_ORDER_UP_TO), (9000.0, None, MAX_ORDER_UP_TO), (9000.0, None, 8075)])
def test_pole_sums_from_the_threshold_build_no_level_past_their_head(monkeypatch, mu, q,
                                                                     order_up_to):
    # below i0 the closed form is m(0) and zeros, so no table is built, not
    # even to level 0, and the K pairs are one pass: the memory is O(K), and
    # far below the 8 Q bytes of one row of levels
    closed, head = renewal._route(mu, q)
    assert closed
    pairs = renewal._pole_pairs(mu, head)
    assert head <= order_up_to and 40 <= pairs <= 160
    levels = []
    row = renewal._tp_renewal_row
    monkeypatch.setattr(renewal, "_tp_renewal_row", lambda mu, level: (levels.append(level),
                                                                      row(mu, level))[1])
    monkeypatch.setattr(renewal, "_solve", None)
    load_sums(mu, q, order_up_to)
    assert levels == []
    tracemalloc.start()
    try:
        load_sums(mu, q, order_up_to)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 256 * pairs + 4096 < 8 * order_up_to


# means from 1e-8 to just below the closed form
GRID_MUS = (1e-8, 1e-6, 1e-5, 9e-5, 2e-4, 1e-3, 0.0113, 0.05, 0.3, 1.0, 2.9, 5.25, 13.0, 40.0,
            100.0, 255.9)


def test_loads_of_every_mean_take_the_pole_route_within_the_40_digit_recursion():
    # Every load of Poisson(mu) starts its solve at m(0) = 1/-expm1(-mu),
    # which does not cancel, so the pole route serves every mean: a tiny mean
    # takes a head of 32 levels.  Time sums (the scalar sums, a golden row, a
    # scan cell) are within 1e-13 of the 40-digit recursion (measured at most
    # 4.2e-14, at mu = 1e-8, Q = 31; from 1/(1 - g(0)) they erred by up to
    # 3.2e-7 at mu = 1e-8, Q = 600).  Capped hybrid loads of mean up to 0.1
    # take the recursion from the same start, within 2e-12 (at most 8.1e-13,
    # at mu = 1e-8, q = 8, Q = 600; 3.2e-7 from 1/(1 - g(0))).
    for mu in (1e-8, 1.2e-7, 1e-6, 9.99e-5):
        assert renewal._route(mu, None) == (False, renewal._POLE_HEAD)
    levels = [0, 2, 18, 31, 33, 300, 600]
    for mu in GRID_MUS:
        for q, tol in [(None, 1e-13)] + [(q, 2e-12) for q in (1, 2, 3, 8, 20) if mu <= 0.1]:
            exact = oracle.load_sums(mu, levels[-1], q)
            for order_up_to in levels:
                ref = [float(x[order_up_to]) for x in exact]
                for route, sums in route_sums(mu, order_up_to, q).items():
                    for got, want in zip(sums, ref):
                        assert abs(got - want) <= tol * want, (route, mu, q, order_up_to, got)


def test_tiny_loads_at_the_capacity_solve_a_bounded_head(monkeypatch):
    # A time load of tiny mean solves its head of 32 levels and takes its
    # poles past it, and HP(8, 2e-4), whose masses' defect against
    # -expm1(-mu) is below SETTLE_TOL, stops at 256.  From 1/(1 - g(0)) the
    # defect was ~1e-16/mu: both solved all 10 001 levels, in ~10x the time.
    solves = []
    solve = renewal._solve

    def recorded(g, above, order_up_to):
        m, stop, terms = solve(g, above, order_up_to)
        solves.append((order_up_to, stop))
        return m, stop, terms

    monkeypatch.setattr(renewal, "_solve", recorded)
    for mu in (1e-6, 5e-5):
        solves.clear()
        load_sums(mu, None, MAX_ORDER_UP_TO)
        assert solves == [(renewal._POLE_HEAD - 1, renewal._POLE_HEAD)]
    solves.clear()
    load_sums(2e-4, 8, MAX_ORDER_UP_TO)
    assert solves == [(MAX_ORDER_UP_TO, 2 * BLOCK)]


def test_pole_pairs_stay_few_below_the_closed_form():
    mu = np.exp(np.linspace(math.log(1e-4), math.log(TP_CLOSED_FORM_MU), 4001))[:-1]
    closed, head = renewal._route(mu, None)
    assert not closed.any()
    pairs = renewal._pole_pairs(mu, head)
    assert pairs.max() == 18
    # the last pair's modulus at i0 + 1 is at most 1e-18, the one before above it
    t = 2.0 * np.pi * pairs / mu
    assert np.all(0.5 * (head + 1) * np.log1p(t * t) >= -math.log(1e-18))
    t = 2.0 * np.pi * (pairs - 1) / mu
    assert np.all(0.5 * (head + 1) * np.log1p(t * t) < -math.log(1e-18))


def around(x):
    """x and its two neighbouring floats."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def test_a_float_and_an_array_take_the_same_route():
    # at tiny means and the closed form's threshold, a cap at the Bernstein
    # cap and one past it, and caps up to r(0), which never reach past the
    # Bernstein cap: an array whose caps are all up to r(0) takes no Poisson
    # route at all
    mu = np.array([1e-8, 1.2e-7, 9.99e-5] + around(TP_CLOSED_FORM_MU) + [5.0, 1e4])
    small = [1, math.floor(renewal._HP_MIN_RADIUS)]
    for caps in ([None], [bernstein_cap(x) for x in mu.tolist()],
                 [bernstein_cap(x) + 1 for x in mu.tolist()], small):
        for cap in caps:
            q = None if cap is None else np.full(mu.size, cap)
            got = renewal._route(mu, q)
            floats = [renewal._route(x, None if cap is None else cap) for x in mu.tolist()]
            if cap is not None and cap <= renewal._HP_MIN_RADIUS:
                assert got is None
                assert floats == [(False, MAX_ORDER_UP_TO + 1)] * mu.size
                got = renewal._route(mu, np.append(q[:-1], 10**9))    # one cap reaches past
                floats[-1] = renewal._route(float(mu[-1]), 10**9)
            assert list(zip(got[0].tolist(), got[1].tolist())) == floats, cap
    assert renewal._route(1e-8, None) == (False, 32) and renewal._route(256.0, None)[0]
    assert not renewal._route(math.nextafter(256.0, 0.0), None)[0]


@pytest.mark.parametrize("q", [None, np.array([2, 40, 3])])
def test_golden_rows_of_no_positive_finite_mean_are_left_unchecked(q):
    # no row is left to route, whatever the caps
    cycles, holding, checked = renewal._row_sums(np.array([math.nan, -1.0, math.inf]), q,
                                                 np.array([1, 2, 3]))
    assert np.isnan(cycles).all() and np.isnan(holding).all() and not checked.any()


@pytest.mark.parametrize("kind", ["time", "hybrid"])
def test_a_golden_row_does_not_depend_on_its_batch(monkeypatch, kind):
    # tiny means and means on both sides of the closed form, rows that
    # carry 1 to ~160 pole pairs at levels on both sides of their heads, and
    # chunks of one row, the default, and one chunk past the 256 KiB from
    # which numpy computes a product in place on a temporary; hybrid rows
    # take caps past their Bernstein caps, and every fifth row below the
    # closed form a cap that binds
    sweep = np.exp(np.linspace(math.log(5e-5), math.log(2e4), 250)).tolist()
    mu = np.array(sorted([1e-8, 1.2e-7, 9.99e-5] + around(TP_CLOSED_FORM_MU) + sweep))
    levels = np.array([min(max(0, min(pole_head(x), MAX_ORDER_UP_TO) + (37 * r) % 600 - 100),
                           MAX_ORDER_UP_TO) for r, x in enumerate(mu.tolist())])
    q = None if kind == "time" else np.array([
        bernstein_cap(x) - 5 if r % 5 == 0 and x < TP_CLOSED_FORM_MU else bernstein_cap(x) + 1
        for r, x in enumerate(mu.tolist())])
    head = renewal._route(mu, q)[1]
    pairs = renewal._pole_pairs(mu, head)[head <= levels]
    assert pairs.min() == 1 and pairs.max() >= 140 and pairs.max() * mu.size > 2**14
    assert (head > levels).any()
    batch = renewal._row_sums(mu, q, levels)
    assert batch[2].all()
    for r in range(mu.size):
        one = renewal._row_sums(mu[[r]], None if q is None else q[[r]], levels[[r]])
        assert [x[0] for x in one] == [x[r] for x in batch], r
    for chunk in (1, 1 << 30):
        monkeypatch.setattr(renewal, "_CHUNK_CELLS", chunk)
        got = renewal._row_sums(mu, q, levels)
        assert all(np.array_equal(a, b) for a, b in zip(got, batch)), chunk


# ---------------------------------------------------------------------------
# hybrid tables on the capped load min(X, c), c = min(q, Q + 1, floor(mu + r))


def window_masses(mu, a, c):
    """The load min(max(X, a), c), X ~ Poisson(mu), 1 <= a <= c: masses on
    0..c, zero below a, with P(X <= a) at a and P(X >= c) at c, by the mass
    function of ``build_increment_hp``.  The floored rows of ``_hp_masses``
    must equal it element for element."""
    masses = np.zeros(c + 1)
    if a == c:
        masses[c] = 1.0
    else:
        masses[a + 1:c] = _poisson_masses(mu, c, start=a + 1)
        masses[a] = poisson_cdf(mu, a)
        masses[c] = poisson_tail(mu, c)
    return masses


@pytest.mark.parametrize("route, mu, q, order_up_to", [
    ("uncapped", 0.05, None, 40), ("uncapped", 6.0, None, MAX_ORDER_UP_TO),
    ("uncapped", 255.9, None, 3000),
    ("closed", 256.0, None, 3000), ("closed", 1e4, None, MAX_ORDER_UP_TO),
    ("window", 5.0, 200, 100), ("window", 5.3, 436, 7330), ("window", 60.0, 5, 300),
    ("closed", 700.0, 10**4, 6000), ("floor <= Q", 700.0, 800, 6000),
    ("floor <= Q", 400.0, 150, 3000),
    ("closed", 5e6, 10**7, MAX_ORDER_UP_TO), ("floor > Q", 5e6, 5 * 10**6, MAX_ORDER_UP_TO),
    ("closed", 2e4, 10**7, 50), ("floor > Q", 2e4, 20_100, 50),
])
def test_load_table_takes_the_table_of_its_route(route, mu, q, order_up_to):
    # a hybrid load whose cap lies past floor(mu + r) takes the time load's
    # table, and a time load below the threshold the table of its window
    # with no cap, solved from m(0) = 1/-expm1(-mu)
    table = load_table(mu, q, order_up_to)
    if mu >= TP_CLOSED_FORM_MU and (q is None or q > bernstein_cap(mu)):
        assert route == "closed"
        m = _tp_renewal_row(mu, order_up_to)
        expected = renewal.RenewalTable(m=m, M=np.cumsum(m), order_up_to=order_up_to)
    else:
        floor, cap = renewal._hp_window(mu, q, order_up_to)
        assert route == ("uncapped" if q is None else "window" if not floor
                         else "floor <= Q" if floor <= order_up_to else "floor > Q")
        masses = (window_masses(mu, floor, cap) if floor
                  else build_increment_hp(1.0, cap, mu).masses)
        expected = renewal._table(IncrementDist(masses).masses, -math.expm1(-mu), order_up_to)
    assert table.order_up_to == expected.order_up_to == order_up_to
    assert np.array_equal(table.m, expected.m) and np.array_equal(table.M, expected.M)


@given(mu=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       order_up_to=st.integers(0, GATE + 2 * BLOCK), extra=st.integers(1, 500))
@example(mu=5.0, order_up_to=100, extra=99)
@example(mu=2000.0, order_up_to=GATE, extra=1)
@settings(max_examples=40, deadline=None)
def test_hybrid_table_past_the_level_equals_the_table_capped_at_q_plus_one(mu, order_up_to,
                                                                           extra):
    # a table to level Q reads g(0..Q) only, where min(X, q) and min(X, Q + 1) agree
    q = order_up_to + 1 + extra
    full = renewal_table(build_increment_hp(1.0, q, mu), order_up_to)
    capped = renewal_table(build_increment_hp(1.0, order_up_to + 1, mu), order_up_to)
    assert np.array_equal(full.m, capped.m) and np.array_equal(full.M, capped.M)


@given(mu=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), q=st.integers(1, 1000),
       order_up_to=st.integers(0, MAX_ORDER_UP_TO))
@example(mu=5.3, q=436, order_up_to=7330)       # capped at 47, on the jump matrix
@example(mu=5.0, q=200, order_up_to=100)        # capped at 46
@example(mu=1e-3, q=1000, order_up_to=MAX_ORDER_UP_TO)
@example(mu=1e3, q=1000, order_up_to=MAX_ORDER_UP_TO)
@settings(max_examples=60, deadline=None)
def test_capped_hybrid_table_matches_the_table_of_the_full_load(mu, q, order_up_to):
    floor, cap = renewal._hp_window(mu, q, order_up_to)
    assert cap == min(q, order_up_to + 1, math.floor(mu + renewal._bernstein_radius(mu)))
    floors, caps = renewal._hp_window(np.array([mu, 2.0 * mu]), q, order_up_to)
    assert (floors[0], caps[0]) == (floor, cap)  # the scan's
    assert poisson_tail(mu, cap + 1) < 1e-20 or cap == min(q, order_up_to + 1)
    table = load_table(mu, q, order_up_to)
    assert table.m.size == order_up_to + 1
    masses = (window_masses(mu, floor, cap) if floor
              else build_increment_hp(1.0, cap, mu).masses)
    above = -math.expm1(-mu)
    capped = blocked_oracle(masses, order_up_to, above)
    if mu >= TP_CLOSED_FORM_MU and q > bernstein_cap(mu):    # the closed form
        assert np.array_equal(table.m, _tp_renewal_row(mu, order_up_to))
    else:
        assert_stopped_table_keeps_the_bits(table, masses, capped, above)
    # the capped and the full load, each solved to Q from the same start
    full = blocked_oracle(build_increment_hp(1.0, q, mu).masses, order_up_to, above)
    q_levels = order_up_to - np.arange(order_up_to + 1)
    assert capped.sum() == pytest.approx(full.sum(), rel=1e-13, abs=0.0)
    assert q_levels @ capped == pytest.approx(q_levels @ full, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# the settled stop and the Bernstein floor


def exact_sums(masses, order_up_to, bits=180):
    """E[K] = M(Q) and the holding factor sum_i (Q - i) m(i) of a load by
    the renewal recursion in fixed-point integers of 2^-bits (~54 digits),
    from masses given as mpmath numbers or Fractions; the rounding of a
    level is below 2^-bits, so the sums carry well over 40 digits."""
    scale = 1 << bits
    with mpmath.workprec(2 * bits):
        g = [x.numerator * scale // x.denominator if isinstance(x, Fraction)
             else int(mpmath.nint(x * scale)) for x in masses]
    above = scale - g[0]
    m = [scale * scale // above]
    for i in range(1, order_up_to + 1):
        m.append(sum(g[j] * m[i - j] for j in range(1, min(i, len(g) - 1) + 1)) // above)
    with mpmath.workdps(60):
        cycles = mpmath.mpf(sum(m)) / scale
        holding = mpmath.mpf(sum((order_up_to - i) * x for i, x in enumerate(m))) / scale
    return float(cycles), float(holding)


def exact_hp_masses(mu, q, order_up_to, floor=0):
    """The masses of min(max(X, floor), min(q, Q + 1)), X ~ Poisson(mu), to 60
    digits; masses past the mode below 1e-60 end the list (the mass they and
    the tail drop is below 1e-58)."""
    cap = min(q, order_up_to + 1)
    with mpmath.workdps(60):
        mu = mpmath.mpf(mu)
        p = [mpmath.exp(-mu)]
        for j in range(1, cap):
            p.append(p[-1] * mu / j)
            if j > mu and p[-1] < mpmath.mpf(10) ** -60:
                break
        else:
            p.append(1 - mpmath.fsum(p))
        if floor:
            p = [mpmath.mpf(0)] * floor + [mpmath.fsum(p[:floor + 1])] + p[floor + 1:]
        return p


def stopped_and_drifting(inc, order_up_to):
    """The table and the solve run to Q; asserts that the table stopped."""
    table = renewal_table(inc, order_up_to)
    ref = blocked_oracle(inc.masses, order_up_to)
    assert stop_level(inc.masses, order_up_to, ref) is not None
    assert_stopped_table_keeps_the_bits(table, inc.masses, ref)
    return table, ref


@given(mu=st.floats(math.log(1.0), math.log(6.0)).map(math.exp), q=st.integers(2, 300),
       order_up_to=st.integers(2 * BLOCK, MAX_ORDER_UP_TO))
@example(mu=5.3, q=436, order_up_to=7330)       # the drift of the parent's solve: 3.5e-13
@example(mu=2.0, q=2, order_up_to=2 * BLOCK)
@example(mu=6.0, q=2, order_up_to=MAX_ORDER_UP_TO)     # near-lattice: stops at 4096
@example(mu=4.0, q=60, order_up_to=MAX_ORDER_UP_TO)
@settings(max_examples=12, deadline=None)
def test_stopped_hybrid_tables_match_the_40_digit_recursion(mu, q, order_up_to):
    # The levels below the stop carry the drift of the masses' defect d, about
    # b d / E[X] at the stop level b; here d <= ~1.1e-15 (1 - g(0)), as the
    # cap's mass comes from the Poisson tail apart from the head masses
    # (test_hybrid_masses_sum_to_one_within_their_tail_rounding).  Where
    # d b / E[X] is larger (q = 1 at small mu, whose only jump has a rounded weight, or
    # mu ~ 10 with a late stop) a stopped table errs by up to ~1.3e-13, where
    # the full solve errs by 1.9e-13 to 1.2e-12.
    table = load_table(mu, q, order_up_to)
    masses = build_increment_hp(1.0, renewal._hp_window(mu, q, order_up_to)[1], mu).masses
    above = -math.expm1(-mu)
    assume(stop_level(masses, order_up_to, blocked_oracle(masses, order_up_to, above),
                      above) is not None)
    cycles, holding = exact_sums(exact_hp_masses(mu, q, order_up_to), order_up_to)
    assert expected_k(table) == pytest.approx(cycles, rel=1e-13, abs=0.0)
    assert holding_sum(table) == pytest.approx(holding, rel=1e-13, abs=0.0)


def test_hybrid_masses_sum_to_one_within_their_tail_rounding():
    # The exact sum of the float masses misses 1 by the rounding of the cap's
    # tail mass against the head's: up to ~1.1e-15 of 1 - g(0) over 3 000
    # random loads of the same range.
    rng = np.random.default_rng(2027)
    for _ in range(200):
        mu, q = float(rng.uniform(1.0, 6.0)), int(rng.integers(2, 301))
        masses = build_increment_hp(1.0, q, mu).masses.tolist()
        defect = abs(sum(map(Fraction, masses)) - 1)
        assert defect <= Fraction(2e-15) * (1 - Fraction(masses[0])), (mu, q)


@pytest.mark.xfail(strict=True, reason="m(0) = 1/(1 - g(0)) is rounded, and the blocked solve "
                   "carries that rounding into every level: E[K] is 1.0e-13 low")
def test_a_near_lattice_table_stopped_at_2048_matches_the_40_digit_recursion():
    # A known defect, in the domain of the test above: the near-lattice
    # HP(2, 5.2508) stops at 2048 and drifts by ~u/E[X] a level until then
    mu, q, order_up_to = 5.250798954463693, 2, 4266
    table = load_table(mu, q, order_up_to)
    cycles, _ = exact_sums(exact_hp_masses(mu, q, order_up_to), order_up_to)
    assert expected_k(table) == pytest.approx(cycles, rel=1e-13, abs=0.0)


@given(mu=st.floats(math.log(1.0), math.log(6.0)).map(math.exp),
       order_up_to=st.integers(2 * BLOCK, MAX_ORDER_UP_TO))
@example(mu=2.0, order_up_to=MAX_ORDER_UP_TO)
@example(mu=6.0, order_up_to=7330)
@settings(max_examples=8, deadline=None)
def test_stopped_time_tables_match_the_40_digit_recursion_on_their_load(mu, order_up_to):
    # The load is the tail-cut one, whose cut alone moves E[K] by 1e-12 to
    # 5e-12 at these means against ``series_sums``; the oracle is the exact
    # recursion on its masses, normalized to total 1.  As for hybrid loads,
    # the levels below the stop carry the drift of the masses' defect, which
    # reaches ~1.2e-13 at mu = 0.35 (stop at 256).
    inc = build_increment_tp(1.0, mu)
    table, drifting = stopped_and_drifting(inc, order_up_to)
    masses = [Fraction(float(x)) for x in inc.masses]
    total = sum(masses)
    cycles, holding = exact_sums([x / total for x in masses], order_up_to)
    assert expected_k(table) == pytest.approx(cycles, rel=1e-13, abs=0.0)
    assert holding_sum(table) == pytest.approx(holding, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("inc", [
    IncrementDist([0.0, 0.0, 0.5, 0.0, 0.5]),   # mass on even loads only
    IncrementDist([0.0, 0.0, 0.0, 1.0]),        # a lattice
    build_increment_hp(1.0, 5, 60.0),           # near-lattice: mu >> q
    build_increment_hp(1.0, 40, 400.0),
    # one load, defect d = 1e-12 > SETTLE_TOL > SETTLE_TOL / (Q + 2): the
    # state is one level, which never spreads, yet m(i) = m(0) (1 + d)^i
    IncrementDist([0.5, 0.5 * (1.0 + 1e-12)]),
])
# 2 * BLOCK and 4 * BLOCK: the first two levels the stop tests
@pytest.mark.parametrize("order_up_to", [2 * BLOCK, 4 * BLOCK, 3000, MAX_ORDER_UP_TO])
def test_stop_never_fires_on_loads_that_do_not_settle(inc, order_up_to):
    table = renewal_table(inc, order_up_to)
    ref = blocked_oracle(inc.masses, order_up_to)
    assert stop_level(inc.masses, order_up_to, ref) is None
    assert np.array_equal(table.m, ref)
    assert_row_never_stops(inc.masses, order_up_to)


def assert_row_never_stops(masses, order_up_to, above=None):
    """The load's row of ``_renewal_levels`` to Q equals its solve with the
    stop switched off, bit for bit."""
    g = np.asarray(masses)[None]
    row = level_rows(g, [order_up_to], above)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(renewal, "SETTLE_TOL", -1.0)
        assert np.array_equal(level_rows(g, [order_up_to], above), row)


def test_a_row_whose_state_keeps_spreading_never_stops():
    # HP(300, 10): the defect's drift across its window of 59 levels keeps
    # the state's spread at 1.2e-14 to 1.8e-14 at every test up to 10^4
    mu = np.array([10.0])
    assert_row_never_stops(_hp_masses(mu, *renewal._hp_window(mu, 300, MAX_ORDER_UP_TO))[0],
                           MAX_ORDER_UP_TO, np.array([-math.expm1(-10.0)]))


def test_stop_fires_on_a_settled_load_without_defect():
    table = renewal_table(IncrementDist([0.5, 0.5]), MAX_ORDER_UP_TO)
    assert (table.m == 2.0).all()


# time loads of mean below the threshold, and hybrid loads whose cap binds
# (q <= floor(mu + r)); a time load's sums take the poles past its head, so
# its solve's sums are taken as ``load_sums`` takes the others'
summed_loads = st.one_of(
    st.tuples(st.floats(math.log(1e-6), math.log(TP_CLOSED_FORM_MU), exclude_max=True).map(
        math.exp), st.none()),
    st.floats(math.log(0.5), math.log(2e4)).map(math.exp).flatmap(
        lambda mu: st.tuples(st.just(mu), st.integers(1, bernstein_cap(mu)))))


@given(load=summed_loads, order_up_to=st.integers(2 * BLOCK, MAX_ORDER_UP_TO))
@example(load=(5.9199, 6), order_up_to=405)          # stops at 256
@example(load=(5.3, 47), order_up_to=7330)           # on the jump matrix
@example(load=(6.0, 2), order_up_to=MAX_ORDER_UP_TO)     # near-lattice: stops at 4096
@example(load=(254.5, 363), order_up_to=8490)        # defect above SETTLE_TOL: no stop
@example(load=(700.0, 800), order_up_to=6000)        # floored, on the explicit route
@example(load=(10.496286259834529, 25), order_up_to=4739)   # the table's dot errs 1.1e-15
@example(load=(5.0, None), order_up_to=3000)
@example(load=(1e-5, None), order_up_to=5000)        # a tiny mean
@settings(max_examples=30, deadline=None)
def test_sums_take_the_tables_levels_to_its_stop(load, order_up_to):
    # E[K] is the table's bit for bit.  The holding factor sums the table's
    # levels to the stop and the rest in closed form: within 1e-15 of the
    # exact sum of the table's levels (the table's own dot product of all
    # Q + 1 levels errs by up to 1.1e-15), and the table's bit for bit if
    # the solve does not stop
    mu, q = load
    table = load_table(mu, q, order_up_to)
    masses, above = renewal._load_masses(mu, q, order_up_to)
    cycles, holding = (renewal._sums(masses, above, order_up_to) if q is None
                       else load_sums(mu, q, order_up_to))
    assert cycles == expected_k(table)
    exact = float(sum(Fraction(order_up_to - i) * Fraction(x)
                      for i, x in enumerate(table.m.tolist())))
    assert abs(holding - exact) <= 1e-15 * exact
    if stop_level(masses, order_up_to, table.m, above) is None:
        assert holding == holding_sum(table)
    assert (cycles, holding) == stopped_sums(table, masses, above)


@given(mu=st.floats(math.log(123.0), math.log(1e7)).map(math.exp),
       q=st.integers(1, 3 * MAX_ORDER_UP_TO), order_up_to=st.integers(0, MAX_ORDER_UP_TO))
@example(mu=700.0, q=10**4, order_up_to=6000)
@example(mu=700.0, q=800, order_up_to=6000)
@example(mu=5e6, q=10**7, order_up_to=MAX_ORDER_UP_TO)
@example(mu=5e6, q=20_000, order_up_to=MAX_ORDER_UP_TO)
@example(mu=9000.0, q=10**6, order_up_to=MAX_ORDER_UP_TO)
@example(mu=150.0, q=300, order_up_to=BLOCK)
@example(mu=400.0, q=150, order_up_to=3000)      # floor above q: all mass at the cap
@settings(max_examples=25, deadline=None)
def test_floored_tables_match_the_unfloored_ones(mu, q, order_up_to):
    floor, cap = renewal._hp_window(mu, q, order_up_to)
    assert 1 <= floor <= cap
    assert floor == min(math.ceil(mu - renewal._bernstein_radius(mu)), cap)
    assert floor == cap or poisson_cdf(mu, floor - 1) < 1e-20
    inc = IncrementDist(window_masses(mu, floor, cap))
    assert not inc.masses[:floor].any()
    table = load_table(mu, q, order_up_to)
    if mu >= TP_CLOSED_FORM_MU and q > bernstein_cap(mu):
        # Poisson(mu) on every table: the closed form, against its series
        m = _tp_renewal_row(mu, order_up_to)
        assert np.array_equal(table.m, m) and np.array_equal(table.M, np.cumsum(m))
        reference = series_sums(mu, order_up_to)
    else:    # from mu ~ 122.8 on, -expm1(-mu) is 1 - g(0) = 1
        assert_stopped_table_keeps_the_bits(table, inc.masses,
                                            blocked_oracle(inc.masses, order_up_to))
        unfloored = renewal_table(build_increment_hp(1.0, cap, mu), order_up_to)
        reference = expected_k(unfloored), holding_sum(unfloored)
    assert expected_k(table) == pytest.approx(reference[0], rel=1e-13, abs=0.0)
    assert holding_sum(table) == pytest.approx(reference[1], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu", [0.5, 50.0, 122.0, renewal._HP_FLOOR_MU])
def test_no_window_starts_above_zero_below_the_floor_mean(mu):
    assert renewal._hp_window(mu, 10**6, MAX_ORDER_UP_TO)[0] == 0
    assert renewal._hp_window(np.array([mu]), 10**6, MAX_ORDER_UP_TO)[0][0] == 0


# binding caps, and one load past its Bernstein cap, which takes the closed form
@pytest.mark.parametrize("mu, q", [(5e6, 5 * 10**6), (5e6, 20_000), (2e4, 20_100), (5000.0, 5100),
                                   (700.0, 800), (700.0, 10**4)])
def test_floored_solve_work_is_bounded(monkeypatch, mu, q):
    # multiply-adds of every correlation, convolution and matrix product
    calls = []

    def counted(name, fn, work):
        def wrapper(*args, **kwargs):
            calls.append((name, work(*args)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(np if hasattr(np, name) else renewal, name, wrapper)

    counted("correlate", np.correlate, lambda a, v, mode: (len(a) - len(v) + 1) * len(v))
    counted("convolve", np.convolve, lambda a, v: len(a) * len(v))
    counted("matmul", np.matmul, lambda a, b, **kw: a.size * b.shape[-1])
    counted("_jump_matrix", renewal._jump_matrix, lambda m, kernel, width: math.inf)
    counted("_block_inverse", renewal._block_inverse, lambda m, cols: math.inf)
    metrics._policy_table.cache_clear()
    average_cost(SystemConfig(1.0, HybridPolicy(q, mu), MAX_ORDER_UP_TO))
    if q > bernstein_cap(mu):
        assert calls == []
        return
    floor, cap = renewal._hp_window(mu, q, MAX_ORDER_UP_TO)
    blocks = max(0, math.ceil((MAX_ORDER_UP_TO + 1 - floor) / floor))
    assert all(name == "correlate" for name, _ in calls)
    assert len(calls) <= blocks
    assert sum(work for _, work in calls) <= max(0, MAX_ORDER_UP_TO + 1 - floor) * (cap - floor + 1)


def test_one_row_lorden_check_is_the_array_check():
    rng = np.random.default_rng(5)
    for width in (1, 2, 30, 400):
        g = rng.random(width + 1)
        g /= g.sum()
        row = renewal._lorden_row(g, 1.0 - float(g[0]))
        np.testing.assert_allclose(row, [t[0] for t in renewal._lorden_terms(g[None], 1.0 - g[:1])],
                                   rtol=1e-14, atol=1e-30)
        for order_up_to in (0, 300):
            cycles = float(np.cumsum(level_rows(g[None], [order_up_to])[0])[-1])
            renewal._check_lorden_row(*row, order_up_to, cycles)
            lower, upper = renewal._lorden_bracket(*row, order_up_to)
            for bad in (lower * (1 - 1e-6), upper * (1 + 1e-6), math.nan):
                with pytest.raises(ArithmeticError) as one:
                    renewal._check_lorden_row(*row, order_up_to, bad)
                with pytest.raises(ArithmeticError) as rows:
                    _check_lorden(*(np.array([t]) for t in row), order_up_to, np.array([bad]))
                assert str(one.value) == str(rows.value)


# ---------------------------------------------------------------------------
# load builders against per-element masses, and the public time builder's
# quantile-seeded cut


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


@given(rows=st.lists(st.tuples(st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
                                st.integers(1, 60)), min_size=1, max_size=30))
@example(rows=[(3.0, 5)])
# 40 rows on the caps 5, 20 and 60, in shuffled order
@example(rows=[((2.5, 6.0, 40.0)[i % 3] + 0.01 * (i * 7 % 13), (5, 20, 60)[i * 7 % 3])
               for i in range(40)])
# time loads: each row's window with no cap, floor(mu + r), 31 to 136
@example(rows=[(m, bernstein_cap(m)) for m in (0.15, 63.1, 0.1, 63.8, 0.2, 62.4, 0.05, 64.5)])
@settings(max_examples=40, deadline=None)
def test_batched_masses_do_not_depend_on_the_batch(rows):
    mu = np.array([m for m, _ in rows])
    caps = np.array([cap for _, cap in rows])
    floors = np.zeros(mu.size, int)
    hp = _hp_masses(mu, floors, caps)
    for r, m in enumerate(mu.tolist()):
        one = _hp_masses(mu[r:r + 1], floors[r:r + 1], caps[r:r + 1])[0]
        assert one.size == caps[r] + 1
        assert np.array_equal(hp[r, :one.size], one)
        assert not hp[r, one.size:].any()
        assert np.array_equal(one, build_increment_hp(1.0, int(caps[r]), m).masses)


@given(rows=st.lists(st.tuples(st.floats(math.log(50.0), math.log(1e6)).map(math.exp),
                                st.integers(1, 3000)), min_size=1, max_size=8),
       order_up_to=st.integers(0, 2000))
@example(rows=[(150.0, 3000), (400.0, 150), (5.0, 3000)], order_up_to=2000)
@settings(max_examples=30, deadline=None)
def test_floored_scan_rows_equal_the_window_increment(rows, order_up_to):
    mu = np.array([m for m, _ in rows])
    floors, caps = renewal._hp_window(mu, max(q for _, q in rows), order_up_to)
    g = _hp_masses(mu, floors, caps)
    for r, m in enumerate(mu.tolist()):
        floor, cap = int(floors[r]), int(caps[r])
        assert (floor, cap) == renewal._hp_window(m, max(q for _, q in rows), order_up_to)
        one = (window_masses(m, floor, cap) if floor
               else build_increment_hp(1.0, cap, m).masses)
        assert np.array_equal(g[r, :cap + 1], one)
        assert not g[r, cap + 1:].any()


@st.composite
def leveled_loads(draw, top, loads=st.floats(0.01, 60.0)):
    """Rows of TP or HP load masses, zero-padded, with levels in 0..top that
    do not increase along the rows, and each row's own increment."""
    incs = [build_increment_tp(1.0, draw(loads)) if draw(st.booleans())
            else build_increment_hp(1.0, draw(st.integers(1, 40)), draw(loads))
            for _ in range(draw(st.integers(1, 6)))]
    levels = sorted(draw(st.lists(st.integers(0, top), min_size=len(incs),
                                  max_size=len(incs))), reverse=True)
    return padded(incs), np.array(levels), incs


def padded(incs):
    """The increments' masses as rows, zero-padded to the widest."""
    g = np.zeros((len(incs), max(inc.masses.size for inc in incs)))
    for row, inc in zip(g, incs):
        row[:inc.masses.size] = inc.masses
    return g


def level_rows(g, levels, above=None):
    """m(0..levels[r]) of each row of masses g by ``_renewal_levels``, one
    row per load, NaN past its level, from P(X > 0) = ``above_zero(g, above)``."""
    m, stops = np.full((g.shape[0], max(levels, default=-1) + 1), np.nan), {}
    solve = _renewal_levels(g, above_zero(g, above), np.asarray(levels), stops)
    for i, (live, values) in enumerate(solve):
        m[live, i] = values
    for r, (b, value) in stops.items():
        m[r, b:levels[r] + 1] = value
    return m


@st.composite
def leveled_systems(draw, top):
    """Rows of one family for ``renewal._row_sums`` at rate 1: time loads
    (q None) or hybrid loads of caps q[r], means in 0.01..60, levels in
    0..top in any order."""
    n = draw(st.integers(1, 6))
    q = None if draw(st.booleans()) else np.array(draw(st.lists(st.integers(1, 40), min_size=n,
                                                                max_size=n)))
    mu = np.array(draw(st.lists(st.floats(0.01, 60.0), min_size=n, max_size=n)))
    levels = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return mu, q, np.array(levels)


def system_sums(mu, q, levels):
    """The scalar path's E[K] and holding factor of each row of
    ``leveled_systems``."""
    return [metrics._policy_table(1.0, TimePolicy(m) if q is None else HybridPolicy(int(q[r]), m),
                                  int(levels[r])) for r, m in enumerate(mu.tolist())]


@given(rows=leveled_systems(2))
@settings(max_examples=60, deadline=None)
def test_renewal_sums_keep_the_table_bits_up_to_level_two(rows):
    cycles, holding, checked = renewal._row_sums(*rows)
    assert checked.all()
    for sums, k, h in zip(system_sums(*rows), cycles.tolist(), holding.tolist()):
        assert (k, h) == sums


@given(rows=leveled_systems(300))
# levels past the window of BLOCK levels above the support end
@example(rows=(np.array([1.0, 0.7]), np.array([2, 1]), np.array([300, 7])))
@settings(max_examples=40, deadline=None)
def test_renewal_sums_match_the_table_to_level_300(rows):
    cycles, holding, checked = renewal._row_sums(*rows)
    assert checked.all()
    for (cycles_ref, holding_ref), k, h in zip(system_sums(*rows), cycles.tolist(),
                                                holding.tolist()):
        assert k == pytest.approx(cycles_ref, rel=1e-13, abs=0.0)
        assert h == pytest.approx(holding_ref, rel=1e-13, abs=1e-300)


def row_stop(row, level):
    """The level 2^k >= 2 * BLOCK from which a row of ``level_rows`` is one
    value, or None."""
    return next((b for b in (2 ** k for k in range(8, 14))
                 if b <= level and (row[b:level + 1] == row[b]).all()), None)


def stopped_rows(g, levels):
    """Which rows of ``level_rows`` stopped."""
    return [row_stop(row, level) is not None
            for row, level in zip(level_rows(g, levels), levels.tolist())]


@given(rows=leveled_loads(MAX_ORDER_UP_TO, st.floats(math.log(0.01), math.log(TP_CLOSED_FORM_MU),
                                                      exclude_max=True).map(math.exp)))
@example(rows=(padded(SETTLING := [build_increment_tp(1.0, 2.0), build_increment_hp(1.0, 40, 5.0),
                                   build_increment_tp(1.0, 0.3), build_increment_hp(1.0, 3, 1.0)]),
               np.array([MAX_ORDER_UP_TO, 5000, 2000, 2 * BLOCK]), SETTLING))
# the row stops at 2048 and the table at 256, and the row at 256 where the
# table does not stop: each keeps the drift of the masses' defect past the
# other's stop, 1.4e-12 and 1.1e-12 on E[K] at these levels
@example(rows=(padded(DRIFTING := [build_increment_hp(1.0, 13, 0.04539393592590817),
                                   build_increment_hp(1.0, 39, 0.13237108936574424)]),
               np.array([5903, 5903]), DRIFTING))
@settings(max_examples=15, deadline=None)
def test_stopped_rows_match_the_table(rows):
    # Each stopped row's E[K] and holding factor, summed exactly over its
    # levels, agree within 1e-13 with the table's where the table stops at
    # the same level b.  Every stopped row agrees within 1e-13 with the load
    # the masses stand for: the per-level loop below b, and from b on a
    # continuation that stays inside the range [lo, hi] of the loop's state.
    g, levels, incs = rows
    for inc, level, row in zip(incs, levels.tolist(), level_rows(g, levels)):
        b = row_stop(row, level)
        if b is None:
            continue
        m, weights = row[:level + 1], level - np.arange(level + 1.0)
        sums = math.fsum(m), math.fsum(weights * m)
        table = renewal_table(inc, level)
        if table.m[b - 1] != table.m[b] and row_stop(table.m, level) == b:
            assert sums[0] == pytest.approx(expected_k(table), rel=1e-13, abs=0.0)
            assert sums[1] == pytest.approx(holding_sum(table), rel=1e-13, abs=0.0)
        ref = loop_oracle(inc.masses, b - 1)
        state = ref[b - (inc.masses.size - 1):]
        for total, weight in zip(sums, (np.ones(level + 1), weights)):
            head = math.fsum(weight[:b] * ref)
            tail = weight[b:].sum()
            assert head + tail * state.min() <= total * (1.0 + 1e-13)
            assert total <= (head + tail * state.max()) * (1.0 + 1e-13)


def test_rows_stop_where_their_state_settles():
    incs = [*SETTLING, build_increment_hp(1.0, 5, 60.0)]    # near-lattice: does not settle
    levels = np.array([MAX_ORDER_UP_TO, 5000, 2000, 2 * BLOCK, 700])
    assert stopped_rows(padded(incs), levels) == [True, True, True, True, False]


@given(incs=st.lists(increments(), min_size=1, max_size=6),
       order_up_to=st.integers(0, 2 * BLOCK + 5))
@settings(max_examples=40, deadline=None)
def test_batched_recursion_matches_loop(incs, order_up_to):
    m = level_rows(padded(incs), [order_up_to] * len(incs))
    for row, inc in zip(m, incs):
        np.testing.assert_allclose(row, loop_oracle(inc.masses, order_up_to),
                                   rtol=1e-12, atol=0.0)


def test_wald_certificate():
    # rows with support end 2 and 3 (one zero-padded), one with mass at zero;
    # E[X^2]/E[X] is 1.5 and 3
    g = np.array([[0.25, 0.5, 0.25, 0.0], [0.5, 0.0, 0.0, 0.5]])
    terms = renewal._lorden_terms(g, 1.0 - g[:, 0])
    np.testing.assert_allclose(terms[0], [1.0, 1.5], rtol=1e-15)
    np.testing.assert_allclose(terms[1], [1.5, 3.0], rtol=1e-15)
    assert not terms[2].any()
    for order_up_to in (0, 1, 6, 40):
        cycles = level_rows(g, [order_up_to] * 2).sum(axis=1)
        _check_lorden(*terms, order_up_to, cycles)
        # a hand-built E[K] just outside each end of each row's bracket
        for row, bad in ((1, (order_up_to + 1) / 1.5 * (1 - 1e-6)),
                         (1, (order_up_to + 3) / 1.5 * (1 + 1e-6)),
                         (0, (order_up_to + 1.5) * (1 + 1e-6)), (1, np.nan)):
            values = cycles.copy()
            values[row] = bad
            with pytest.raises(ArithmeticError, match="Lorden bracket"):
                _check_lorden(*terms, order_up_to, values)


def test_builders_reject_infinite_load_mean():
    with pytest.raises(ValueError):
        build_increment_tp(1e200, 1e200)
    with pytest.raises(ValueError):
        build_increment_hp(1.0, 3, math.inf)


def test_import_loads_no_scipy_module(fresh_python):
    # scipy.special binds on the first Poisson tail or mass, scipy.integrate
    # in gamma_min_moment; the package imports neither
    proc = fresh_python("import sys, consolidate\n"
                        "print(sorted(m for m in sys.modules\n"
                        "             if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.stdout.strip() == "[]"
