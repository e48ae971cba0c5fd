"""Simulator correctness: delays, partition logic, determinism, and agreement
with the closed forms at Monte Carlo scale."""

import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consolidate import (
    CostParams,
    HybridPolicy,
    QuantityPolicy,
    SimConfig,
    SystemConfig,
    TimePolicy,
    average_cost,
    build_increment_hp,
    build_increment_tp,
    cycle_metrics,
    per_order_delays,
    replenish_metrics,
    service_metrics,
    simulate,
)
from consolidate.sim import (
    _GEN_CAP,
    _POISSON_LAM_MAX,
    TRACE_HEADER,
    _generate,
    _simulate_batch,
    _split,
)

REF_COSTS = CostParams(replenish_fixed=25.0, holding=0.4, dispatch_fixed=15.0, wait_linear=0.8)


def streams(seed):
    """The three generators (loads, lengths, order epochs) of a run."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


# ---------------------------------------------------------------------------
# per-order delays


def test_single_arrival():
    assert per_order_delays([1.0], 3.0) == (2.0, 4.0)


def test_two_arrivals():
    lin, sq = per_order_delays([0.5, 1.0], 1.0)
    assert lin == pytest.approx(0.5)
    assert sq == pytest.approx(0.25)


def test_empty_cycle():
    assert per_order_delays([], 2.0) == (0.0, 0.0)


def test_random_cycle_area_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dispatch = rng.uniform(0.5, 4.0)
        arrivals = rng.uniform(0.0, dispatch, size=rng.integers(0, 12))
        lin, sq = per_order_delays(arrivals, dispatch)
        assert lin >= 0.0 and sq >= 0.0
        assert lin == pytest.approx(float((dispatch - arrivals).sum()), rel=1e-12)


def test_arrival_validation():
    with pytest.raises(ValueError):
        per_order_delays([2.0], 1.0)
    with pytest.raises(ValueError):
        per_order_delays([-0.5], 1.0)


# ---------------------------------------------------------------------------
# partition against a plain reference implementation


def reference_partition(length, loads, delay, sq_delay, order_up_to, n_cycles):
    """Straightforward per-cycle loop over the same consolidation stream."""
    rows = []
    on_hand = order_up_to
    acc = [0.0, 0, 0.0, 0.0, 0.0, 0.0]  # length, k, load, delay, sq, holding
    for L, N, D, S in zip(length, loads, delay, sq_delay):
        acc[0] += L
        acc[1] += 1
        acc[2] += N
        acc[3] += D
        acc[4] += S
        acc[5] += on_hand * L  # inventory is flat within a consolidation cycle
        if on_hand < N:        # cannot serve from stock: replenish up to Q, dispatch
            rows.append(tuple(acc))
            acc = [0.0, 0, 0.0, 0.0, 0.0, 0.0]
            on_hand = order_up_to
            if len(rows) == n_cycles:
                return np.array(rows)
        else:
            on_hand -= N
    raise RuntimeError("stream too short")


def own_sum(x):
    """A cycle's sum over its own elements, in ``np.add.reduceat``'s order."""
    return np.add.reduceat(x, [0])[0]


def loop_split(length, loads, delay, sq_delay, order_up_to, need):
    """The per-replenishment-cycle loop ``_split`` replaced: one
    ``searchsorted`` per cycle, and each row summed over its own
    consolidation cycles."""
    n = len(length)
    out = np.empty((need, 6))
    emitted = 0
    cum_load = np.cumsum(loads, dtype=np.float64)
    start = 0
    base_load = 0.0
    while emitted < need:
        j = int(cum_load.searchsorted(base_load + order_up_to, side="right"))
        if j >= n:
            break
        own = slice(start, j + 1)
        on_hand = order_up_to - (cum_load[own] - loads[own] - base_load)
        out[emitted] = (
            own_sum(length[own]),
            j - start + 1,
            cum_load[j] - base_load,
            own_sum(delay[own]),
            own_sum(sq_delay[own]),
            own_sum(on_hand * length[own]),
        )
        emitted += 1
        start = j + 1
        base_load = cum_load[j]
    return out[:emitted], start


def split_in_chunks(split, chunks, order_up_to, need):
    """Run ``split`` as ``_simulate_batch`` does: when the stream runs out,
    keep its unconsumed tail, append the next chunk and split again."""
    stream = chunks[0]
    parts = []
    emitted = 0
    for more in chunks[1:] + [None]:
        rows, start = split(*stream, order_up_to, need - emitted)
        parts.append(rows)
        emitted += len(rows)
        if emitted == need or more is None:
            return np.concatenate(parts), start
        stream = [np.concatenate((old[start:], new)) for old, new in zip(stream, more)]


@st.composite
def cycle_streams(draw):
    """Consolidation-cycle streams cut into chunks, with zero loads, Q = 0
    and loads above Q among the draws, and ``need`` often beyond what the
    stream holds so the split runs out and regrows."""
    n = draw(st.integers(1, 80))
    loads = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=np.int64)
    positive = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
    columns = [np.array(draw(st.lists(positive, min_size=n, max_size=n))) for _ in range(3)]
    cuts = sorted(draw(st.lists(st.integers(1, n), max_size=3)))
    bounds = [0, *cuts, n]
    stream = (columns[0], loads, columns[1], columns[2])
    chunks = [[col[a:b] for col in stream] for a, b in zip(bounds, bounds[1:]) if b > a]
    return chunks, draw(st.integers(0, 10)), draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(cycle_streams())
@example(([[np.array([1.0, 2.0, 0.5]), np.array([0, 0, 3]), np.array([0.0, 0.0, 1.0]),
            np.array([0.0, 0.0, 0.5])]], 0, 5))
def test_vectorized_split_matches_loop(case):
    chunks, order_up_to, need = case
    rows, start = split_in_chunks(_split, chunks, order_up_to, need)
    ref_rows, ref_start = split_in_chunks(loop_split, chunks, order_up_to, need)
    assert np.array_equal(rows, ref_rows)
    assert start == ref_start


@pytest.mark.parametrize("system", [
    SystemConfig(1.0, HybridPolicy(6, 5.9199), 14),
    SystemConfig(1.0, HybridPolicy(3, 2.0), 8),
    SystemConfig(2.0, TimePolicy(1.5), 8),
    SystemConfig(1.0, QuantityPolicy(2), 4),
    SystemConfig(1.0, TimePolicy(2.0), 0),
])
def test_partition_matches_reference(system):
    n_cycles = 300
    seed = 20240
    cons_per_cycle = 4000 / (n_cycles * 1.2)
    # one block as long as the batch's first request; the stream does not
    # depend on how it is cut into blocks
    want = int(n_cycles * cons_per_cycle * 1.2) + 64
    rows = _simulate_batch(streams(seed), system, n_cycles, cons_per_cycle)[0]
    stream = _generate(streams(seed), system, want)
    ref = reference_partition(stream[0], stream[1], stream[2], stream[3],
                              system.order_up_to, n_cycles)
    assert rows.shape == ref.shape
    assert np.allclose(rows, ref, rtol=1e-9, atol=1e-9)
    # invariants: inventory within [0, Q] makes 0 <= holding <= Q * length
    assert np.all(rows[:, 5] >= -1e-9)
    assert np.all(rows[:, 5] <= system.order_up_to * rows[:, 0] + 1e-9)
    # the triggering load always exceeds what was on hand: per-cycle load > Q
    assert np.all(rows[:, 2] >= system.order_up_to + 1 - 1e-9)


# ---------------------------------------------------------------------------
# the cycle generator against the exact per-cycle laws

GEN_SYSTEMS = [
    SystemConfig(1.0, HybridPolicy(6, 5.9199), 14),  # about half the cycles fill to q
    SystemConfig(2.0, HybridPolicy(3, 2.0), 8),      # most cycles fill to q
    SystemConfig(1.0, HybridPolicy(200, 5.0), 100),  # q far above the load
    SystemConfig(2.0, TimePolicy(1.5), 8),
    SystemConfig(1.5, QuantityPolicy(4), 8),
]


@pytest.mark.parametrize("system", GEN_SYSTEMS, ids=lambda s: s.policy.label())
def test_generated_loads_follow_increment_masses(system):
    n = 200_000
    loads = _generate(streams(8), system, n)[1]
    policy = system.policy
    if isinstance(policy, QuantityPolicy):
        assert np.all(loads == policy.q)
        return
    if isinstance(policy, TimePolicy):
        p = build_increment_tp(system.demand_rate, policy.period).masses
    else:
        p = build_increment_hp(system.demand_rate, policy.q, policy.period).masses
    counts = np.bincount(loads, minlength=p.size)
    # Points with at least 5 expected hits one by one, the rest pooled.
    big = n * p >= 5.0
    se = np.sqrt(n * p[big] * (1.0 - p[big]))
    assert np.all(np.abs(counts[:p.size][big] - n * p[big]) <= 4.0 * se)
    rest = n - counts[:p.size][big].sum()
    expected_rest = n * (1.0 - p[big].sum())
    assert abs(rest - expected_rest) <= 4.0 * math.sqrt(max(expected_rest, 1.0))


@pytest.mark.parametrize("system", GEN_SYSTEMS, ids=lambda s: s.policy.label())
def test_generated_cycle_means_match_cycle_metrics(system):
    n = 200_000
    length, loads, delay, sq_delay, _ = _generate(streams(9), system, n)
    exact = cycle_metrics(system.demand_rate, system.policy)
    for sample, truth in ((length, exact.length), (loads, exact.orders),
                          (delay, exact.delay), (sq_delay, exact.sq_delay)):
        se = float(np.std(sample, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(sample)) - truth) <= 4.0 * se + 1e-12 * truth


def test_time_policy_report_is_unchanged():
    # Stored when each run took three seeded streams (loads, lengths, order
    # epochs) cut batch after batch.  A report does not depend on block
    # sizing (test_reports_do_not_depend_on_block_sizing), so it moves only
    # with the draws or with the sums taken over them.
    system = SystemConfig(2.0, TimePolicy(1.5), 8, REF_COSTS)
    report = simulate(SimConfig(system, 2000, seed=4))
    assert {k: (v["mean"], v["se"]) for k, v in report.to_dict().items()} == {
        "avg_cost": (17.7622560957944, 0.03828298537570461),
        "aod": (0.7538638747926286, 0.003249855027075089),
        "aosd": (0.7557600147277982, 0.004957770190536095),
        "air": (4.632182281347297, 0.019432503677293465),
        "cycle_length": (1.5, 0.0),
        "replenish_length": (5.2995, 0.032161170828981164),
        "cycles_per_replenish": (3.533, 0.021440780552654113),
        "orders_per_cycle": (2.964619303707897, 0.019319832953147178),
    }


INVARIANCE_SYSTEMS = [
    SystemConfig.quantity(1.0, 5, 3, REF_COSTS),
    SystemConfig(1.0, TimePolicy(5.0), 14, REF_COSTS),
    SystemConfig(1.0, HybridPolicy(6, 5.9199), 14, REF_COSTS),
    SystemConfig(1.0, HybridPolicy(200, 5.0), 100, REF_COSTS),
]


@pytest.mark.parametrize("system", INVARIANCE_SYSTEMS, ids=lambda s: s.policy.label())
def test_reports_do_not_depend_on_block_sizing(system, monkeypatch):
    # Each stream is consumed in cycle order and each row sums its own
    # draws, so the cap and the sizing rule move no bit of the report: here
    # blocks of a third or twice and a bit of what the batch asks for, under
    # caps down to tens of cycles.
    import consolidate.sim as sim_mod
    cfg = SimConfig(system, 4000, seed=12, batch_size=400)
    base = simulate(cfg)
    for scale in (lambda c: c // 3 + 1, lambda c: 2 * c + 7):
        monkeypatch.setattr(sim_mod, "_generate",
                            lambda rngs, system, count: _generate(rngs, system, scale(count)))
        assert simulate(cfg) == base
    monkeypatch.setattr(sim_mod, "_generate", _generate)
    for cap in (2**12, 300):
        monkeypatch.setattr(sim_mod, "_GEN_CAP", cap)
        assert simulate(cfg) == base


@pytest.mark.parametrize("system", INVARIANCE_SYSTEMS, ids=lambda s: s.policy.label())
def test_means_do_not_depend_on_batch_size(system):
    # The rows are the same stream at any batch size; only the order of the
    # grand sums changes.
    small = simulate(SimConfig(system, 4000, seed=6, batch_size=100))
    large = simulate(SimConfig(system, 4000, seed=6, batch_size=400))
    for name in ("avg_cost", "aod", "air"):
        assert getattr(small, name).mean == pytest.approx(getattr(large, name).mean,
                                                          rel=1e-12, abs=0.0)


@pytest.mark.parametrize("system", INVARIANCE_SYSTEMS[:3], ids=lambda s: s.policy.label())
def test_runs_consume_almost_every_generated_cycle(system, monkeypatch):
    # A batch starts with the cycles the previous one left, so only the run's
    # last block is drawn past its need.  Cutting a fresh stream per batch
    # consumed 79 % of the cycles on these systems.
    import consolidate.sim as sim_mod
    drawn = []

    def counting(rngs, system, count):
        drawn.append(count)
        return _generate(rngs, system, count)

    monkeypatch.setattr(sim_mod, "_generate", counting)
    report = simulate(SimConfig(system, 8000, seed=3, batch_size=2000))
    consumed = report.cycles_per_replenish.mean * 8000
    assert consumed >= 0.95 * sum(drawn)


@pytest.mark.parametrize("system, n_cycles, batch_size", [
    (SystemConfig(1.0, HybridPolicy(1000, 5.0), 100), 20_000, None),
    (SystemConfig(1.0, QuantityPolicy(10_000), 10_000), 200, 100),
], ids=["HP(1000,5)", "QP(10000)"])
def test_simulation_memory_is_bounded_for_large_q(system, n_cycles, batch_size):
    # Memory follows the load drawn, not q: a block holds at most ~8 MB of
    # order draws whatever q and Q are.
    tracemalloc.start()
    try:
        simulate(SimConfig(system, n_cycles, seed=3, batch_size=batch_size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_capped_blocks_are_not_padded_past_the_batch(monkeypatch):
    # QP(10 000) caps a block at 2**19 / 10**4 = 52 cycles.  A batch of two
    # replenishment cycles needs about four; a fixed 64-cycle pad would ask
    # for a full capped block per batch, 5 200 cycles over the 100 batches.
    import consolidate.sim as sim_mod
    asked = []

    def counting(rng, system, count):
        asked.append(count)
        return _generate(rng, system, count)

    monkeypatch.setattr(sim_mod, "_generate", counting)
    system = SystemConfig(1.0, QuantityPolicy(10_000), 10_000)
    simulate(SimConfig(system, 200, seed=1, batch_size=2))
    assert sum(asked) <= 1100


# ---------------------------------------------------------------------------
# end-to-end simulation


def test_partition_survives_buffer_regrowth(monkeypatch):
    # Cap block generation so every batch is forced through the
    # keep-tail-and-extend path; the resulting cycles must match a reference
    # partition over the same concatenated stream.
    import consolidate.sim as sim_mod
    # The cap counts expected order draws: the mean load of HP(3, 2) at rate 1
    # is taken as min(3, 2) = 2, so every generation request is 100 / 2 = 50
    # cycles.
    monkeypatch.setattr(sim_mod, "_GEN_CAP", 100)
    system = SystemConfig(1.0, HybridPolicy(3, 2.0), 8)
    n_cycles = 100
    seed = 777
    rows = _simulate_batch(streams(seed), system, n_cycles, 5.0)[0]
    ref_rngs = streams(seed)
    blocks = [_generate(ref_rngs, system, 50)[:4] for _ in range(30)]
    stream = [np.concatenate([b[i] for b in blocks]) for i in range(4)]
    ref = reference_partition(stream[0], stream[1], stream[2], stream[3],
                              system.order_up_to, n_cycles)
    assert np.allclose(rows, ref, rtol=1e-9, atol=1e-9)
    loop_rows, _ = split_in_chunks(loop_split, blocks, system.order_up_to, n_cycles)
    assert np.array_equal(rows, loop_rows)


def test_seed_determinism():
    cfg = SimConfig(SystemConfig(1.0, HybridPolicy(3, 2.0), 8, REF_COSTS), 2000, seed=99)
    assert simulate(cfg) == simulate(cfg)


def test_different_seeds_differ():
    system = SystemConfig(1.0, HybridPolicy(3, 2.0), 8, REF_COSTS)
    a = simulate(SimConfig(system, 2000, seed=1))
    b = simulate(SimConfig(system, 2000, seed=2))
    assert a.avg_cost.mean != b.avg_cost.mean


def test_immediate_dispatch_degenerate():
    costs = CostParams(dispatch_fixed=3.0)
    cfg = SimConfig(SystemConfig(1.0, QuantityPolicy(1), 0, costs), 20_000, seed=7)
    report = simulate(cfg)
    assert report.aod.mean == 0.0
    assert report.aosd.mean == 0.0
    assert report.orders_per_cycle.mean == 1.0
    assert report.orders_per_cycle.se == 0.0
    assert abs(report.avg_cost.mean - 3.0) <= 3.0 * report.avg_cost.se


def test_martingale_and_flow_conservation():
    rate = 2.0
    cfg = SimConfig(SystemConfig(rate, HybridPolicy(5, 2.0), 9, REF_COSTS), 20_000, seed=11)
    report = simulate(cfg)
    # orders per cycle / cycle length estimates the demand rate
    ratio = report.orders_per_cycle.mean / report.cycle_length.mean
    se = (report.orders_per_cycle.se
          + rate * report.cycle_length.se) / report.cycle_length.mean
    assert abs(ratio - rate) <= 4.0 * se
    # long-run dispatch rate equals demand rate: per cycle, dispatched == load
    per_time = (report.orders_per_cycle.mean * report.cycles_per_replenish.mean
                / report.replenish_length.mean)
    assert per_time == pytest.approx(rate, rel=0.02)


def test_hp_cycles_match_renewal_function():
    system = SystemConfig(1.0, HybridPolicy(6, 5.9199), 14, REF_COSTS)
    report = simulate(SimConfig(system, 40_000, seed=3))
    expected = replenish_metrics(system).cycles
    assert abs(report.cycles_per_replenish.mean - expected) <= 3.0 * report.cycles_per_replenish.se


def test_tp_air_matches_exact_formula():
    system = SystemConfig(2.0, TimePolicy(1.5), 8, REF_COSTS)
    report = simulate(SimConfig(system, 40_000, seed=17))
    exact = service_metrics(system).air
    assert abs(report.air.mean - exact) <= 3.0 * report.air.se


def test_squared_delay_cost_mode():
    costs = CostParams(wait_squared=1.0)
    system = SystemConfig(1.0, TimePolicy(2.0), 6, costs)
    report = simulate(SimConfig(system, 30_000, seed=23, delay="squared"))
    expected = average_cost(system, delay="squared").avg_cost
    assert abs(report.avg_cost.mean - expected) <= 3.0 * report.avg_cost.se


def test_trace_output():
    system = SystemConfig(1.0, HybridPolicy(3, 2.0), 4, REF_COSTS)
    buffer = io.StringIO()
    report = simulate(SimConfig(system, 500, seed=5, batch_size=50), trace=buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + 500
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[2]) >= 1
    # cost column reproduces the report's grand ratio
    cost = sum(float(parts.split(",")[3]) for parts in lines[1:])
    length = sum(float(parts.split(",")[1]) for parts in lines[1:])
    assert cost / length == pytest.approx(report.avg_cost.mean, rel=1e-12)


def test_config_validation():
    system = SystemConfig(1.0, TimePolicy(1.0), 3)
    with pytest.raises(ValueError):
        SimConfig(system, 99, seed=1)
    with pytest.raises(ValueError):
        SimConfig(system, 1000, seed=1, batch_size=999)
    with pytest.raises(ValueError):
        SimConfig(system, 1000, seed=1, batch_size=1000)  # single batch
    with pytest.raises(ValueError):
        SimConfig(system, 1000, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(system, 1000, seed=1, delay="other")
    assert SimConfig(system, 1000, seed=1).batch_size == 10


def test_config_rejects_mean_load_above_generator_cap():
    # Validation only: a simulation at these loads would build gigabytes.
    for policy, load in ((TimePolicy(1e6), "1e+06"), (QuantityPolicy(2**19 + 1), "524289")):
        message = f"load {load} exceeds the generator cap {_GEN_CAP}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SimConfig(SystemConfig(1.0, policy, 0), 1000, seed=1)
    assert SimConfig(SystemConfig(1.0, TimePolicy(2.0**19), 0), 1000, seed=1).n_batches == 100


def test_config_rejects_load_mean_above_numpy_poisson_limit():
    # Validation only: numpy refuses to draw Poisson variates at this mean.
    message = f"Poisson load mean rate*period 1e+20 exceeds numpy's limit {_POISSON_LAM_MAX:g}"
    with pytest.raises(ValueError) as err:
        SimConfig(SystemConfig(2.0, HybridPolicy(6, 5e19), 14), 200, seed=1)
    assert str(err.value) == message
    at_limit = SystemConfig(1.0, HybridPolicy(6, _POISSON_LAM_MAX), 14)
    assert SimConfig(at_limit, 200, seed=1).n_batches == 100


def test_simulate_raises_when_a_finite_cost_overflows():
    system = SystemConfig(1.0, HybridPolicy(6, 5.9199), 14, CostParams(dispatch_fixed=1e308))
    with pytest.raises(OverflowError, match="not finite"):
        simulate(SimConfig(system, 200, seed=0))
