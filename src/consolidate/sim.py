"""Discrete-event Monte Carlo oracle for the warehouse under any policy.

The inventory process regenerates at replenishment epochs, so every long-run
metric is a ratio of per-replenishment-cycle expectations and can be estimated
without warm-up from i.i.d. cycles (renewal-reward).  Standard errors come
from batch means: cycles are grouped into equal batches, each batch yields one
ratio, and the spread of batch ratios estimates the sampling error of the
grand ratio.

Consolidation cycles are themselves i.i.d. (exponential interarrivals are
memoryless across dispatch epochs).  ``_generate`` draws each cycle's length
and load, then its orders' epochs as uniforms on the cycle (Poisson order
statistics): its cost grows with the load, not with q.  ``_split`` cuts the
stream where the running load first exceeds its value at the previous cut
plus the order-up-to level, one integer table of the running load giving the
next cut from every cycle.  A run draws loads, lengths and order epochs from
three seeded generators, each consumed in cycle order, and a batch starts
with the cycles the previous one left: every row sums its own draws, so a
report does not depend on the sizes of the generated blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import HybridPolicy, QuantityPolicy, SystemConfig, TimePolicy

TRACE_HEADER = "cycle_index,length,k_cycles,cost,sum_delay,sum_sq_delay,inventory_integral"

# Upper bound on the expected order draws (rows x max(mean load, 1)) of one
# generated block.  The generator keeps two float64 arrays per draw, ~8 MB at
# the cap, whatever q, the period and the order-up-to level.
_GEN_CAP = 1 << 19

# The largest mean numpy's Generator.poisson accepts (numpy/random/_common.pyx).
_POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    ``batch_size`` defaults to ``n_cycles // 100`` (100 batches) and must
    divide ``n_cycles`` leaving at least two batches.  ``delay`` selects which
    waiting penalty enters the per-cycle cost.
    """

    system: SystemConfig
    n_cycles: int
    seed: int
    batch_size: int | None = None
    delay: str = "linear"

    def __post_init__(self):
        if self.n_cycles != int(self.n_cycles) or self.n_cycles < 100:
            raise ValueError(f"n_cycles must be an integer >= 100, got {self.n_cycles}")
        object.__setattr__(self, "n_cycles", int(self.n_cycles))
        if self.seed != int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer fitting in 64 bits, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.delay not in ("linear", "squared"):
            raise ValueError(f"delay must be 'linear' or 'squared', got {self.delay!r}")
        batch = self.n_cycles // 100 if self.batch_size is None else int(self.batch_size)
        if batch < 1 or self.n_cycles % batch:
            raise ValueError(
                f"batch_size {batch} must be positive and divide n_cycles {self.n_cycles}"
            )
        if self.n_cycles // batch < 2:
            raise ValueError("need at least two batches for a standard error")
        object.__setattr__(self, "batch_size", batch)
        load = _mean_load(self.system)
        if load > _GEN_CAP:
            raise ValueError(f"mean consolidation load {load:g} exceeds the generator cap "
                             f"{_GEN_CAP} order draws per block")
        mu = self.system.demand_rate * getattr(self.system.policy, "period", 0.0)
        if mu > _POISSON_LAM_MAX:
            raise ValueError(f"Poisson load mean rate*period {mu:g} "
                             f"exceeds numpy's limit {_POISSON_LAM_MAX:g}")

    @property
    def n_batches(self) -> int:
        return self.n_cycles // self.batch_size


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    se: float
    n: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "se": self.se, "n": self.n}


@dataclass(frozen=True)
class SimReport:
    """Point estimates with batch-means standard errors for each metric."""

    avg_cost: SimEstimate
    aod: SimEstimate
    aosd: SimEstimate
    air: SimEstimate
    cycle_length: SimEstimate
    replenish_length: SimEstimate
    cycles_per_replenish: SimEstimate
    orders_per_cycle: SimEstimate

    def to_dict(self) -> dict:
        return {name: getattr(self, name).to_dict() for name in (
            "avg_cost", "aod", "aosd", "air", "cycle_length",
            "replenish_length", "cycles_per_replenish", "orders_per_cycle")}


def per_order_delays(arrival_times, dispatch_time: float) -> tuple[float, float]:
    """Summed linear and squared delays of one consolidation cycle's orders.

    The linear sum is computed twice, per order and as the area under the
    arrival-count step function; a mismatch beyond 1e-12 signals a bug in the
    caller's cycle bookkeeping and raises ``AssertionError``.
    """
    dispatch_time = float(dispatch_time)
    if not dispatch_time >= 0.0:
        raise ValueError(f"dispatch epoch must be nonnegative, got {dispatch_time}")
    t = np.sort(np.asarray(arrival_times, dtype=float))
    if t.size == 0:
        return 0.0, 0.0
    if t[0] < 0.0 or t[-1] > dispatch_time:
        raise ValueError("arrival epochs must lie within [0, dispatch_time]")
    waits = dispatch_time - t
    linear = float(waits.sum())
    squared = float((waits * waits).sum())
    steps = np.diff(np.concatenate((t, [dispatch_time])))
    area = float(np.arange(1, t.size + 1) @ steps)
    if abs(area - linear) > 1e-12 * max(1.0, abs(linear)):
        raise AssertionError(
            f"per-order delay sum {linear!r} disagrees with area integral {area!r}"
        )
    return linear, squared


def _generate(rngs, system: SystemConfig, count: int):
    """Draw the next ``count`` consolidation cycles from the generators
    ``rngs`` of loads, lengths and order epochs: (length, load), then the
    orders as uniforms on [0, length], save one at the epoch if it set off the
    dispatch.

    * time policy: load ~ Poisson(rate T), length T;
    * quantity policy: length ~ Gamma(q, 1/rate), load q;
    * hybrid policy: N ~ Poisson(rate T); a cycle with N < q is
      time-triggered, otherwise length = T Beta(q, N - q + 1) and load q.

    A cycle's draws and sums do not depend on how cycles are grouped into
    calls.  Returns (length, load, delay sum, squared-delay sum) arrays and
    the first cycle's (arrival epochs, dispatch epoch) for the per-order audit.
    """
    load_rng, length_rng, epoch_rng = rngs
    policy = system.policy
    rate = system.demand_rate
    if isinstance(policy, QuantityPolicy):
        length = length_rng.gamma(policy.q, 1.0 / rate, size=count)
        loads = np.full(count, policy.q, dtype=np.int64)
        by_count = np.ones(count, dtype=bool)
    else:
        loads = load_rng.poisson(rate * policy.period, size=count)
        length = np.full(count, policy.period)
        by_count = np.zeros(count, dtype=bool)
        if isinstance(policy, HybridPolicy):
            np.greater_equal(loads, policy.q, out=by_count)
            length[by_count] = policy.period * length_rng.beta(policy.q,
                                                               loads[by_count] - policy.q + 1)
            loads[by_count] = policy.q
    spread = loads - by_count
    span = policy.period if isinstance(policy, TimePolicy) else np.repeat(length, spread)
    waits = epoch_rng.random(int(spread.sum()))
    waits *= span
    first = waits[:spread[0]]
    audit = (np.append(first, length[0]) if by_count[0] else first.copy(), float(length[0]))
    np.subtract(span, waits, out=waits)
    # Sums over each cycle's own orders: reduceat over the cycles that have any.
    delay, sq_delay = np.zeros(count), np.zeros(count)
    some = spread > 0
    starts = (np.cumsum(spread) - spread)[some]
    delay[some] = np.add.reduceat(waits, starts)
    waits *= waits
    sq_delay[some] = np.add.reduceat(waits, starts)
    return length, loads, delay, sq_delay, audit


def _mean_load(system: SystemConfig) -> float:
    """Mean consolidation load: exact for QP and TP, an upper bound for HP."""
    policy = system.policy
    return min(float(getattr(policy, "q", math.inf)),
               system.demand_rate * getattr(policy, "period", math.inf))


def _split(length, loads, delay, sq_delay, order_up_to: int, need: int):
    """Rows (length, k, load, delay, sq_delay, holding) of at most ``need``
    replenishment cycles cut from a consolidation-cycle stream, and the index
    of the first consolidation cycle they leave unconsumed.

    A cycle ends at the first consolidation cycle whose load exceeds what was
    on hand; each row sums its own consolidation cycles.
    """
    n = len(loads)
    cum = np.cumsum(loads)
    total = int(cum[-1]) if n else 0
    # at[v]: the first cycle whose running load exceeds v (n past the end).
    at = np.repeat(np.arange(n + 1), np.append(loads, 1))
    q = min(order_up_to, total)
    # The walk from each cut to the next; n, past the end, leads to itself.
    nxt = memoryview(at[np.minimum(np.append(cum, total) + q, total)])
    j = int(at[q])
    ends = np.array([j] + [j := nxt[j] for _ in range(min(need, n) - 1)], dtype=np.intp)
    hi = ends[:np.searchsorted(ends, n)] + 1
    k = np.diff(hi, prepend=0)
    lo, used = hi - k, hi.max(initial=0)
    before = cum[:used] - loads[:used]
    on_hand = float(order_up_to) - (before - np.repeat(before[lo], k))
    seg_len, seg_d, seg_s, holding = (np.add.reduceat(x[:used], lo) for x in (
        length, delay, sq_delay, on_hand * length[:used]))
    rows = np.column_stack((seg_len, k, cum[hi - 1] - before[lo], seg_d, seg_s, holding))
    return rows, int(used)


def _simulate_batch(rngs, system: SystemConfig, n_batch: int, cons_per_cycle: float,
                    stream=None):
    """Cut one batch of replenishment cycles from the run's streams, starting
    with the consolidation cycles ``stream`` that the previous batch left.

    Returns per-cycle arrays (length, k, load, delay, sq_delay, holding), the
    observed consolidation-cycles-per-replenishment-cycle ratio for block
    sizing of subsequent batches, and the unconsumed tail of the stream.
    """
    cap = max(1, int(_GEN_CAP / max(_mean_load(system), 1.0)))
    stream = stream or (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    parts = []
    emitted, grow = 0, 1
    while emitted < n_batch:
        # A block covers the estimated need past the tail, padded by 16
        # cycles or, within a small cap, an eighth of it: a fixed pad would
        # make a small batch draw a whole capped block.  A stream that runs
        # out mid-batch is extended and rescanned, each extension at least
        # twice the floor of the one before.
        want = int(((n_batch - emitted) * cons_per_cycle - len(stream[0])) * 1.02)
        block = _generate(rngs, system, min(max(want + min(16, cap // 8), grow), cap))
        grow *= 2
        lin, sq = per_order_delays(*block[4])
        if (abs(lin - block[2][0]) > 1e-9 * max(1.0, lin)
                or abs(sq - block[3][0]) > 1e-9 * max(1.0, sq)):
            raise AssertionError("vectorized cycle delays disagree with per-order recomputation")
        stream = [np.concatenate(pair) for pair in zip(stream, block[:4])]
        rows, start = _split(*stream, system.order_up_to, n_batch - emitted)
        parts.append(rows)
        emitted += len(rows)
        stream = [col[start:] for col in stream]
    out = np.concatenate(parts)
    return out, float(out[:, 1].sum()) / n_batch, stream


def _batch_cost(system: SystemConfig, delay_mode: str, rows: np.ndarray) -> np.ndarray:
    c = system.costs
    cost = (
        c.replenish_fixed
        + (c.replenish_unit + c.dispatch_unit) * rows[:, 2]
        + c.dispatch_fixed * rows[:, 1]
        + c.holding * rows[:, 5]
    )
    if delay_mode == "linear":
        cost += c.wait_linear * rows[:, 3]
    else:
        cost += c.wait_squared * rows[:, 4]
    return cost


def simulate(cfg: SimConfig, trace=None) -> SimReport:
    """Run the simulation and estimate every long-run metric.

    ``trace`` may be a path or writable text file; when given, one CSV record
    per replenishment cycle is written (see ``TRACE_HEADER``).
    """
    system = cfg.system
    n_batches = cfg.n_batches
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)]

    close_trace = False
    trace_file = None
    if trace is not None:
        if hasattr(trace, "write"):
            trace_file = trace
        else:
            trace_file = open(trace, "w", encoding="utf-8")
            close_trace = True
        trace_file.write(TRACE_HEADER + "\n")

    totals = np.zeros((n_batches, 7))  # length, k, load, delay, sq, hold, cost
    cons_per_cycle = system.order_up_to / max(_mean_load(system), 0.25) + 1.5
    cycle_index = 0
    stream = None
    try:
        for b in range(n_batches):
            rows, observed, stream = _simulate_batch(rngs, system, cfg.batch_size,
                                                     cons_per_cycle, stream)
            cons_per_cycle = max(observed, 1.0)
            # Overflow is detected from the totals, not from numpy's warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                cost = _batch_cost(system, cfg.delay, rows)
                totals[b, :6] = rows.sum(axis=0)
                totals[b, 6] = cost.sum()
            if not np.isfinite(totals[b]).all():
                raise OverflowError(f"simulated totals of batch {b} are not finite")
            if trace_file is not None:
                for r, c in zip(rows.tolist(), cost.tolist()):
                    trace_file.write(
                        f"{cycle_index},{r[0]!r},{int(r[1])},{c!r},{r[3]!r},{r[4]!r},{r[5]!r}\n"
                    )
                    cycle_index += 1
    finally:
        if close_trace:
            trace_file.close()

    grand = totals.sum(axis=0)
    n = cfg.n_cycles
    batch = cfg.batch_size

    def ratio(num_col: int, den_col: int) -> SimEstimate:
        stats = totals[:, num_col] / totals[:, den_col]
        return SimEstimate(
            mean=float(grand[num_col] / grand[den_col]),
            se=float(np.std(stats, ddof=1) / math.sqrt(n_batches)),
            n=n,
        )

    def per_cycle(col: int) -> SimEstimate:
        stats = totals[:, col] / batch
        return SimEstimate(
            mean=float(grand[col] / n),
            se=float(np.std(stats, ddof=1) / math.sqrt(n_batches)),
            n=n,
        )

    return SimReport(
        avg_cost=ratio(6, 0),
        aod=ratio(3, 2),
        aosd=ratio(4, 2),
        air=ratio(5, 0),
        cycle_length=ratio(0, 1),
        replenish_length=per_cycle(0),
        cycles_per_replenish=per_cycle(1),
        orders_per_cycle=ratio(2, 1),
    )
