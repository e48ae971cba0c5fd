"""Discrete-event Monte Carlo oracle for the warehouse under any policy.

The inventory process regenerates at replenishment epochs, so every long-run
metric is a ratio of per-replenishment-cycle expectations and can be estimated
without warm-up from i.i.d. cycles (renewal-reward).  Standard errors come
from batch means: cycles are grouped into equal batches, each batch yields one
ratio, and the spread of batch ratios estimates the sampling error of the
grand ratio.

Consolidation cycles are themselves i.i.d. (exponential interarrivals are
memoryless across dispatch epochs).  ``_generate`` draws each cycle the way
the policy runs it.  A quantity cycle lasts until its q-th arrival
S_q ~ Gamma(q, 1/rate) and a time cycle lasts T with a Poisson(mu) load,
mu = rate T.  A hybrid cycle dispatches at min(S_q, T), drawn by one of two
constructions of that law.  Arrival-first draws S_q and fills to q if
S_q <= T; otherwise the cycle lasts T and its load is Poisson(mu) given
N < q.  Load-first draws the load N(T) ~ Poisson(mu); a cycle with N < q
lasts T, and one with N >= q fills to q at S_q = T X / (X + Y), with
X ~ Gamma(q) and Y ~ Gamma(N - q + 1): the q-th of N uniform order
statistics on [0, T] (Devroye 1986, ch. V and IX).  Load-first spares the
Gamma(q) draw of every time-triggered cycle and pays two gammas a capped
one, so a call takes it when q > mu and the cap binds with probability
P(N >= q) below ``LOAD_FIRST_MAX_TAIL``, read from the call's own table:
0.2, below which load-first won at every mean of a measured grid of
per-block times (the constant's comment holds the grid).

Poisson loads are drawn by inversion (Devroye 1986, ch. III): one uniform
each through a CDF and a guide table, one table per call, over the window of
loads that holds all but 1e-20 of the law's mass: O(min(q, sqrt(mu)))
entries, under 1 MB.  A hybrid with q > mu builds the whole Poisson(mu)
table, reads its gate there, and cuts it at q - 1 if it goes arrival-first.
The masses are computed here from their log ratios, not taken from
``renewal`` or ``truncated_poisson``, so the simulator stays an independent
check of the exact path.  Then the orders' epochs are uniforms on the cycle
(Poisson order statistics): the cost grows with the load, not with q.

``_split`` cuts the stream where the running load first exceeds its value at
the previous cut plus the order-up-to level, one integer table of the running
load giving the next cut from every cycle.  A run draws loads, lengths and
order epochs from three seeded generators, each consumed in cycle order, and
a batch starts with the cycles the previous one left: every row sums its own
draws, so a report does not depend on the sizes of the generated blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import HybridPolicy, SystemConfig, TimePolicy

TRACE_HEADER = "cycle_index,length,k_cycles,cost,sum_delay,sum_sq_delay,inventory_integral"

# Upper bound on the expected order draws (rows x max(mean load, 1)) of one
# generated block.  The generator keeps two 8-byte arrays per draw (its cycle
# and its uniform), ~8 MB at the cap, whatever q, the period and the
# order-up-to level.
_GEN_CAP = 1 << 19

# -log of the load mass a Poisson inversion table may leave out: its window
# misses at most 4 e^-L = 1e-20 (at most e^-L in each tail, doubled by the
# conditioning on N < q).
_TAIL_LOG = math.log(4e20)

# A hybrid cycle draws its load first when its cap q exceeds the mean load
# mu = rate T and binds with probability P(N(T) >= q) below this
# (``_generate``).  Load-first against arrival-first, per-block time of
# 4 700-cycle blocks (medians of 60 alternated pairs, 2 CPUs): at mu = 5,
# -26 % at p = 0.0002, -17 % at 0.07, -14 % at 0.13, -4 % at 0.24, +12 % at
# 0.38; +26 % for HP(6, 5.9199), p = 0.54; at mu = 15, -3 % at p = 0.12,
# 0 % at 0.18, +4 % at 0.34.  Load-first won below 0.2 at every mean.
LOAD_FIRST_MAX_TAIL = 0.2


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
        if not math.isfinite(mu):
            raise ValueError(f"Poisson load mean rate*period {mu:g} is not finite")

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


def _load_table(mu: float, q: int | None = None):
    """Inversion table (first load, CDF, guide) of Poisson(mu), given N < q
    when a cap ``q`` is given, over a window of loads holding all but 1e-20
    of the law's mass.

    The window ends at the cap or at mu + r, where Bernstein's inequality
    gives P(N >= mu + r) <= e^-L.  Below, P(N <= mu - r) <= e^-L too, and as
    the Poisson CDF is log-concave the conditioned law's lower tail past
    r + 1 loads under its top is no heavier; a cap below the mean also makes
    the masses fall by at least hi / mu a load, which may end the window
    sooner.  So it holds O(min(q, sqrt(mu) + L)) loads.  The masses come
    from their log ratios log(mu / k), normalized at the largest, so no table
    holds a NaN when P(N < q) underflows.  A guide table speeds the
    inversion (``_guided``; Chen and Asau 1974; Devroye 1986, ch. III).
    """
    r = _TAIL_LOG / 3.0 + math.sqrt(_TAIL_LOG * _TAIL_LOG / 9.0 + 2.0 * _TAIL_LOG * mu)
    hi = math.floor(mu + r) if q is None else min(q - 1, math.floor(mu + r))
    lo = max(0, min(hi, math.ceil(mu)) - math.ceil(r) - 1)
    if hi < mu:
        step = math.log(mu / hi) if hi else math.inf
        if step > 0.0:
            lo = max(lo, hi - math.ceil((_TAIL_LOG + math.log(mu / (mu - hi))) / step))
    log_mass = np.empty(hi - lo + 1)
    log_mass[0] = 0.0
    with np.errstate(divide="ignore"):  # a mean that underflowed to 0
        np.log(mu / np.arange(lo + 1, hi + 1), out=log_mass[1:])
    np.cumsum(log_mass, out=log_mass)
    log_mass -= log_mass.max()
    cdf = np.cumsum(np.exp(log_mass, out=log_mass), out=log_mass)
    cdf /= cdf[-1]
    return _guided(lo, cdf)


def _guided(lo: int, cdf: np.ndarray):
    """The table (lo, cdf, guide) of the loads lo, lo + 1, ... with CDF
    ``cdf``: the guide holds, for each of 2n equal slices of [0, 1), the
    first load whose CDF passes the slice's start."""
    slices = 2 * cdf.size
    return lo, cdf, np.searchsorted(cdf, np.arange(slices) / slices, side="right")


def _hybrid_table(mu: float, q: int):
    """(table, load-first) of hybrid cycles with cap q and mean load mu.

    A cap above the mean gets the Poisson(mu) table, and its cycles draw
    their load first when the cap binds with probability P(N >= q), read
    from that table's CDF, below ``LOAD_FIRST_MAX_TAIL``; otherwise the
    table is cut at load q - 1 and renormalized to the law given N < q.  As
    P(N <= floor(mu)) > 1/e, the cut at most triples the lower tail the
    window leaves out.  A cap at or below the mean gets the table given
    N < q, whose window may end far below the mean.
    """
    if q <= mu:
        return _load_table(mu, q), False
    table = _load_table(mu)
    lo, cdf, _ = table
    top = q - 1 - lo
    if top >= cdf.size or 1.0 - cdf[top] < LOAD_FIRST_MAX_TAIL:
        return table, True
    return _guided(lo, cdf[:top + 1] / cdf[top]), False


def _poisson_loads(rng, table, count: int) -> np.ndarray:
    """``count`` loads from ``table`` by inversion, one uniform of ``rng`` each.

    The guide's load is the answer unless the uniform passes its CDF; those
    few are found by binary search.
    """
    lo, cdf, guide = table
    u = rng.random(count)
    k = guide[(u * guide.size).astype(np.intp)]
    miss = np.flatnonzero(cdf[k] <= u)
    k[miss] = np.searchsorted(cdf, u[miss], side="right")
    k += lo
    return k


def _generate(rngs, system: SystemConfig, count: int):
    """Draw the next ``count`` consolidation cycles from the generators
    ``rngs`` of loads, lengths and order epochs: (length, load), then the
    orders as uniforms on [0, length], save one at the epoch if it set off the
    dispatch.

    * time policy: load ~ Poisson(mu), mu = rate T, length T;
    * quantity policy: length ~ Gamma(q, 1/rate), the q-th arrival, load q;
    * hybrid policy, dispatched at min(S_q, T), by one of two constructions:

      - arrival-first: the q-th arrival S_q ~ Gamma(q, 1/rate); a cycle with
        S_q <= T fills to q at S_q, otherwise it is time-triggered, length T
        and load ~ Poisson(mu) given N < q ({S_q > T} = {N(T) < q});
      - load-first: N = N(T) ~ Poisson(mu); a cycle with N < q is
        time-triggered, length T and load N, otherwise it fills to q at
        S_q = T X / (X + Y), X ~ Gamma(q) and Y ~ Gamma(N - q + 1) drawn as
        one pair (S_q given N(T) = N is T times the q-th of N uniform order
        statistics, Beta(q, N - q + 1); Devroye 1986, ch. V and IX).

      Load-first spares the Gamma(q) draw of every time-triggered cycle and
      costs a pair of gammas a capped one; it is taken when q > mu and the
      capped share P(N >= q), read from the Poisson(mu) table the call
      builds, is below ``LOAD_FIRST_MAX_TAIL`` = 0.2: in a measured grid of
      per-block times at mu = 5 and 15, load-first won below it and lost
      from p ~ 0.3 on (``_hybrid_table``).

    Poisson loads take one uniform each through ``_load_table``, one table
    a call.  The gamma pairs are drawn in cycle order, like every other
    draw, so a cycle's draws and sums do not depend on how cycles are
    grouped into calls.  Returns (length, load, delay sum, squared-delay sum)
    arrays and the first cycle's (arrival epochs, dispatch epoch) for the
    per-order audit.
    """
    load_rng, length_rng, epoch_rng = rngs
    policy = system.policy
    rate = system.demand_rate
    if isinstance(policy, TimePolicy):
        length = np.full(count, policy.period)
        loads = _poisson_loads(load_rng, _load_table(rate * policy.period), count)
        by_count = np.zeros(count, dtype=bool)
    else:
        table, load_first = (_hybrid_table(rate * policy.period, policy.q)
                             if isinstance(policy, HybridPolicy) else (None, False))
        if load_first:
            length, loads, by_count = _load_first(length_rng, load_rng, table, policy, count)
        else:
            length = length_rng.gamma(policy.q, 1.0 / rate, size=count)
            loads = np.full(count, policy.q, dtype=np.int64)
            by_count = np.ones(count, dtype=bool)
            if table is not None:
                np.less_equal(length, policy.period, out=by_count)
                timed = np.flatnonzero(~by_count)
                length[timed] = policy.period
                loads[timed] = _poisson_loads(load_rng, table, timed.size)
    spread = loads - by_count
    cycle = np.repeat(np.arange(count), spread)
    # An order at epoch u * length waits (1 - u) * length: each cycle sums
    # its own 1 - u, in order, and scales the sum by its length.
    left = epoch_rng.random(cycle.size)
    first = left[:spread[0]] * length[0]
    audit = (np.append(first, length[0]) if by_count[0] else first, float(length[0]))
    np.subtract(1.0, left, out=left)
    delay = length * np.bincount(cycle, left, minlength=count)
    left *= left
    sq_delay = length * length * np.bincount(cycle, left, minlength=count)
    return length, loads, delay, sq_delay, audit


def _load_first(length_rng, load_rng, table, policy: HybridPolicy, count: int):
    """(length, load, capped) of ``count`` hybrid cycles that draw their load
    N(T) from ``table`` first.  A cycle with N(T) >= q fills to q at
    T X / (X + Y), from one gamma pair X ~ Gamma(q), Y ~ Gamma(N - q + 1) in
    cycle order."""
    q, period = policy.q, policy.period
    length = np.full(count, period)
    loads = _poisson_loads(load_rng, table, count)
    by_count = loads >= q
    capped = np.flatnonzero(by_count)
    if capped.size:
        shapes = np.empty((capped.size, 2))
        shapes[:, 0] = q
        np.subtract(loads[capped], q - 1, out=shapes[:, 1])
        x = length_rng.gamma(shapes)
        length[capped] = period * x[:, 0] / (x[:, 0] + x[:, 1])
        loads[capped] = q
    return length, loads, by_count


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
    # One batch statistic per metric: six ratios of two totals, then two
    # per-cycle means.  Each row is contiguous, so one std call gives each
    # row's own std bit for bit.
    num, den = [6, 3, 4, 5, 0, 2], [0, 2, 2, 0, 1, 1]
    stats = np.empty((8, n_batches))
    np.divide(totals[:, num].T, totals[:, den].T, out=stats[:6])
    np.divide(totals[:, :2].T, cfg.batch_size, out=stats[6:])
    se = np.std(stats, axis=1, ddof=1) / math.sqrt(n_batches)
    means = [grand[i] / grand[j] for i, j in zip(num, den)] + [grand[0] / n, grand[1] / n]
    names = ("avg_cost", "aod", "aosd", "air", "cycle_length", "orders_per_cycle",
             "replenish_length", "cycles_per_replenish")
    return SimReport(**{name: SimEstimate(mean=float(m), se=float(e), n=n)
                        for name, m, e in zip(names, means, se)})
