"""Discrete-event Monte Carlo oracle for the warehouse under any policy.

The inventory process regenerates at replenishment epochs, so every long-run
metric is a ratio of per-replenishment-cycle expectations and can be estimated
without warm-up from i.i.d. cycles (renewal-reward).  Standard errors come
from batch means: cycles are grouped into equal batches, each batch yields one
ratio, and the spread of batch ratios estimates the sampling error of the
grand ratio.

Consolidation cycles are themselves i.i.d. (exponential interarrivals are
memoryless across dispatch epochs), which the implementation exploits: cycles
are generated in vectorized blocks of (length, load, delay-sum,
squared-delay-sum) tuples, and a scan over cumulative loads splits the block
into replenishment cycles wherever the running load first exceeds the
order-up-to level.  Each batch draws from its own seeded stream, so reports
are bit-identical for a given seed regardless of how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import HybridPolicy, QuantityPolicy, SystemConfig, TimePolicy

TRACE_HEADER = "cycle_index,length,k_cycles,cost,sum_delay,sum_sq_delay,inventory_integral"

# Upper bound on consolidation cycles generated per block, to bound memory.
_GEN_CAP = 2_000_000


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


def _count_capped_cycles(rng, rate, q, period, count):
    """Cycles for quantity/hybrid policies (period = inf gives pure quantity).

    One count x q buffer holds the arrival epochs, then the waits, then the
    squared waits, so the block needs a single large float array.
    """
    buf = rng.exponential(1.0 / rate, size=(count, q))
    np.cumsum(buf, axis=1, out=buf)
    hit = buf[:, -1]
    by_count = hit <= period
    length = np.where(by_count, hit, period)
    counted = buf < length[:, None]
    loads = np.where(by_count, q, counted.sum(axis=1)).astype(np.int64)
    first = buf[0].copy()
    audit = (first if by_count[0] else first[counted[0]], float(length[0]))
    # Orders after the dispatch epoch have a negative difference: clip to 0.
    np.subtract(length[:, None], buf, out=buf)
    np.maximum(buf, 0.0, out=buf)
    delay = buf.sum(axis=1)
    np.multiply(buf, buf, out=buf)
    sq_delay = buf.sum(axis=1)
    return length, loads, delay, sq_delay, audit


def _time_triggered_cycles(rng, rate, period, count):
    """Cycles for the time policy: Poisson loads, arrivals uniform on the cycle."""
    loads = rng.poisson(rate * period, size=count).astype(np.int64)
    total = int(loads.sum())
    arrivals = rng.random(total) * period
    waits = period - arrivals
    ends = np.cumsum(loads)
    starts = ends - loads
    cum_w = np.concatenate(([0.0], np.cumsum(waits)))
    cum_w2 = np.concatenate(([0.0], np.cumsum(waits * waits)))
    delay = cum_w[ends] - cum_w[starts]
    sq_delay = cum_w2[ends] - cum_w2[starts]
    length = np.full(count, float(period))
    audit = (arrivals[:loads[0]], float(period))
    return length, loads, delay, sq_delay, audit


def _generate(rng, system: SystemConfig, count: int):
    policy = system.policy
    if isinstance(policy, TimePolicy):
        return _time_triggered_cycles(rng, system.demand_rate, policy.period, count)
    period = policy.period if isinstance(policy, HybridPolicy) else math.inf
    return _count_capped_cycles(rng, system.demand_rate, policy.q, period, count)


def _expected_loads_hint(system: SystemConfig) -> float:
    policy = system.policy
    if isinstance(policy, QuantityPolicy):
        mean_load = float(policy.q)
    elif isinstance(policy, TimePolicy):
        mean_load = system.demand_rate * policy.period
    else:
        mean_load = min(float(policy.q), system.demand_rate * policy.period)
    return system.order_up_to / max(mean_load, 0.25) + 1.5


def _simulate_batch(rng, system: SystemConfig, n_batch: int, cons_per_cycle: float):
    """Simulate one batch of replenishment cycles.

    Returns per-cycle arrays (length, k, load, delay, sq_delay, holding) and
    the observed consolidation-cycles-per-replenishment-cycle ratio for block
    sizing of subsequent batches.
    """
    order_up_to = float(system.order_up_to)
    out = np.empty((n_batch, 6))
    want = min(int(n_batch * cons_per_cycle * 1.2) + 64, _GEN_CAP)
    length, loads, delay, sq_delay, audit = _generate(rng, system, want)
    lin, sq = per_order_delays(audit[0], audit[1])
    if abs(lin - delay[0]) > 1e-9 * max(1.0, lin) or abs(sq - sq_delay[0]) > 1e-9 * max(1.0, sq):
        raise AssertionError("vectorized cycle delays disagree with per-order recomputation")

    emitted = 0
    grow = 4096
    while emitted < n_batch:
        n = length.size
        cum_load = np.cumsum(loads, dtype=np.float64)
        load_before = np.concatenate(([0.0], cum_load[:-1]))
        cum_len = np.cumsum(length)
        cum_d = np.cumsum(delay)
        cum_s = np.cumsum(sq_delay)
        cum_lw = np.cumsum(length * load_before)
        start = 0
        base_load = base_len = base_d = base_s = base_lw = 0.0
        while emitted < n_batch:
            j = int(cum_load.searchsorted(base_load + order_up_to, side="right"))
            if j >= n:
                break
            seg_len = cum_len[j] - base_len
            holding = order_up_to * seg_len - (cum_lw[j] - base_lw - base_load * seg_len)
            out[emitted] = (
                seg_len,
                j - start + 1,
                cum_load[j] - base_load,
                cum_d[j] - base_d,
                cum_s[j] - base_s,
                holding,
            )
            emitted += 1
            start = j + 1
            base_load = cum_load[j]
            base_len = cum_len[j]
            base_d = cum_d[j]
            base_s = cum_s[j]
            base_lw = cum_lw[j]
        if emitted >= n_batch:
            break
        # Ran out of generated cycles mid-cycle: keep the unconsumed tail,
        # extend it, and rescan from the start of the partial cycle.
        remaining = n_batch - emitted
        extra = min(max(int(remaining * cons_per_cycle * 1.2) + 64, grow), _GEN_CAP)
        grow = min(grow * 2, _GEN_CAP)
        more = _generate(rng, system, extra)
        length = np.concatenate((length[start:], more[0]))
        loads = np.concatenate((loads[start:], more[1]))
        delay = np.concatenate((delay[start:], more[2]))
        sq_delay = np.concatenate((sq_delay[start:], more[3]))
    observed = float(out[:, 1].sum()) / n_batch
    return out, observed


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
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(n_batches)]

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
    cons_per_cycle = _expected_loads_hint(system)
    cycle_index = 0
    try:
        for b, rng in enumerate(streams):
            rows, observed = _simulate_batch(rng, system, cfg.batch_size, cons_per_cycle)
            cons_per_cycle = max(observed, 1.0)
            cost = _batch_cost(system, cfg.delay, rows)
            totals[b, :6] = rows.sum(axis=0)
            totals[b, 6] = cost.sum()
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
