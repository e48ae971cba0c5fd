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
plus the order-up-to level, one ``searchsorted`` giving the next cut from
every cycle.  Each batch draws from its own seeded stream, so reports are
bit-identical for a given seed regardless of how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import HybridPolicy, QuantityPolicy, SystemConfig

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


def _generate(rng, system: SystemConfig, count: int):
    """Draw ``count`` consolidation cycles: (length, load), then the orders
    as uniforms on [0, length], save one at the epoch if it set off the dispatch.

    * time policy: load ~ Poisson(rate T), length T;
    * quantity policy: length ~ Gamma(q, 1/rate), load q;
    * hybrid policy: N ~ Poisson(rate T); a cycle with N < q is
      time-triggered, otherwise length = T Beta(q, N - q + 1) and load q.

    Returns (length, load, delay sum, squared-delay sum) arrays and the first
    cycle's (arrival epochs, dispatch epoch) for the per-order audit.
    """
    policy = system.policy
    rate = system.demand_rate
    if isinstance(policy, QuantityPolicy):
        length = rng.gamma(policy.q, 1.0 / rate, size=count)
        loads = np.full(count, policy.q, dtype=np.int64)
        by_count = np.ones(count, dtype=bool)
    else:
        loads = rng.poisson(rate * policy.period, size=count).astype(np.int64)
        length = np.full(count, policy.period)
        by_count = np.zeros(count, dtype=bool)
        if isinstance(policy, HybridPolicy):
            np.greater_equal(loads, policy.q, out=by_count)
            length[by_count] = policy.period * rng.beta(policy.q, loads[by_count] - policy.q + 1)
            loads[by_count] = policy.q
    spread = loads - by_count
    ends = np.cumsum(spread)
    starts = ends - spread
    # w[0] = 0 pads the running sums, so a cycle's sum is w[end] - w[start].
    w = np.zeros(int(ends[-1]) + 1)
    span = np.repeat(length, spread)
    arrivals = w[1:]
    rng.random(out=arrivals)
    arrivals *= span
    first = arrivals[:spread[0]]
    audit = (np.append(first, length[0]) if by_count[0] else first.copy(), float(length[0]))
    np.subtract(span, arrivals, out=arrivals)
    np.multiply(arrivals, arrivals, out=span)
    np.cumsum(w, out=w)
    delay = w[ends] - w[starts]
    w[1:] = span
    np.cumsum(w, out=w)
    sq_delay = w[ends] - w[starts]
    return length, loads, delay, sq_delay, audit


def _mean_load(system: SystemConfig) -> float:
    """Mean consolidation load: exact for QP and TP, an upper bound for HP."""
    policy = system.policy
    return min(float(getattr(policy, "q", math.inf)),
               system.demand_rate * getattr(policy, "period", math.inf))


def _split(length, loads, delay, sq_delay, order_up_to: float, need: int):
    """Rows (length, k, load, delay, sq_delay, holding) of at most ``need``
    replenishment cycles cut from a consolidation-cycle stream, and the index
    of the first consolidation cycle they leave unconsumed.
    """
    cum_load = np.cumsum(loads, dtype=np.float64)
    nxt = cum_load.searchsorted(cum_load + order_up_to, side="right").tolist()
    n = len(nxt)
    ends = []
    j = int(cum_load.searchsorted(order_up_to, side="right"))
    while j < n and len(ends) < need:
        ends.append(j)
        j = nxt[j]
    # Running sums padded with a leading 0, read one past each cycle's end
    # (hi) and one past the previous cycle's end (lo).
    hi = np.array(ends, dtype=np.intp) + 1
    lo = np.concatenate(([0], hi))[:-1]
    pad_load = np.concatenate(([0.0], cum_load))
    pad_len, pad_d, pad_s, pad_lw = (
        np.concatenate(([0.0], np.cumsum(x)))
        for x in (length, delay, sq_delay, length * pad_load[:-1])
    )

    def seg(pad):
        return pad[hi] - pad[lo]

    seg_len = seg(pad_len)
    holding = order_up_to * seg_len - (seg(pad_lw) - pad_load[lo] * seg_len)
    rows = np.column_stack((seg_len, hi - lo, seg(pad_load), seg(pad_d), seg(pad_s), holding))
    return rows, int(hi[-1]) if ends else 0


def _simulate_batch(rng, system: SystemConfig, n_batch: int, cons_per_cycle: float):
    """Simulate one batch of replenishment cycles.

    Returns per-cycle arrays (length, k, load, delay, sq_delay, holding) and
    the observed consolidation-cycles-per-replenishment-cycle ratio for block
    sizing of subsequent batches.
    """
    order_up_to = float(system.order_up_to)
    cap = max(1, int(_GEN_CAP / max(_mean_load(system), 1.0)))
    stream = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    parts = []
    emitted = 0
    grow = 0
    while emitted < n_batch:
        # The first block is sized from the hint, padded by 64 cycles or, when
        # the cap is below 512 cycles (mean load above 1024), by an eighth of
        # it: a fixed pad would make a small batch draw a whole capped block.
        # A stream that runs out mid-cycle keeps its tail and is extended by a
        # block of at least 4096 cycles (within the cap), doubling each time,
        # then rescanned.
        want = max(int((n_batch - emitted) * cons_per_cycle * 1.2) + min(64, cap // 8), grow)
        grow = max(2 * grow, 4096)
        length, loads, delay, sq_delay, audit = _generate(rng, system, min(want, cap))
        lin, sq = per_order_delays(audit[0], audit[1])
        if (abs(lin - delay[0]) > 1e-9 * max(1.0, lin)
                or abs(sq - sq_delay[0]) > 1e-9 * max(1.0, sq)):
            raise AssertionError("vectorized cycle delays disagree with per-order recomputation")
        stream = [np.concatenate(pair) for pair in zip(stream, (length, loads, delay, sq_delay))]
        rows, start = _split(*stream, order_up_to, n_batch - emitted)
        parts.append(rows)
        emitted += len(rows)
        stream = [col[start:] for col in stream]
    out = np.concatenate(parts)
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
    cons_per_cycle = system.order_up_to / max(_mean_load(system), 0.25) + 1.5
    cycle_index = 0
    try:
        for b, rng in enumerate(streams):
            rows, observed = _simulate_batch(rng, system, cfg.batch_size, cons_per_cycle)
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
