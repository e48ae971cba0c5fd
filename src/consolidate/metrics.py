"""Closed-form cycle, service, and cost analytics for the three policies.

Policies dispatch a consolidated load either at a target count q (quantity
policy), at a fixed period T (time policy), or at whichever of the two
triggers first (hybrid policy).  Inventory follows an order-up-to rule: when
on-hand cannot cover the load, the warehouse replenishes back to level Q and
dispatches, ending a replenishment cycle.

All long-run rates follow from renewal-reward ratios of per-cycle
expectations.  With e_n the expected load per consolidation cycle, e_k the
expected number of consolidation cycles per replenishment cycle, and e_lc,
e_lr the corresponding expected cycle lengths (e_lr = e_k * e_lc,
e_n = rate * e_lc):

    average cost  = rate*(c_R + c_D) + rate*A_R/(e_k*e_n) + rate*A_D/e_n
                    + h*AIR + w*rate*AOD            (linear-delay penalty)

where AIR is average on-hand inventory per time unit and AOD the average
delay per order.  Exact mode computes e_k and the holding factor from the
renewal masses of the load distribution.  One decision in ``renewal``
picks a load's route, on (mu, q) and never on Q.  The sums of a load of
Poisson(mu), mu = rate*T (a time load, or a hybrid load whose cap q lies
past floor(mu + r) below), take a head of levels and its poles past it from
mu = 1e-4 on, in one pass over the pole pairs added in pair order: the
recursion's head below ``renewal.TP_CLOSED_FORM_MU``, the closed form's
m(0) and zeros from that mean on, where the optimizer's scan takes the
closed-form table; other loads take the recursion on their masses.  A
hybrid load min(X, q) enters its table on the window min(max(X, a), c),
with the cap c = min(q, Q + 1, floor(mu + r)) and, from mu ~ 122.8 on, the
floor a = ceil(mu - r): each costs at most a Poisson tail of 1e-20, and
together they bound the table's memory by O(Q) and its work by
O(Q (c - a)) for any q; the cycle forms keep the real q.
Approximate mode treats the cycle count as continuous, giving
e_k ~ (Q+1)/e_n and the Table-style closed forms.

Matched comparisons need the hybrid period whose truncated mean load hits a
target (``match_consolidation_cycle``): Newton's method on the closed form,
with bisection as its fallback.

Each of these expressions is written once, in a function that takes floats or
arrays alike: the exact replenishment record (``_renewal_record``), the
per-order ratios and AIR (``_per_order``, ``_service``) and the four cost
components (``_components``); the cycle forms have a float route
(``_cycle_forms``) and an array route with its bits (``_cycle_rows``).  Every
renewal route is chosen in ``renewal``: a system's sums come from
``renewal.load_sums``, the optimizer's period scan ``_period_costs`` takes
its levels from ``renewal._level_table``, and its golden steps ``_row_costs``
their sums from ``renewal._row_sums``.  Those two own the cycle forms, the
per-level reductions, the costs and the order in which errors are raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from . import renewal
from .truncated_poisson import (_factorial_moment, _poisson_heads, _poisson_tails, poisson_cdf,
                               poisson_tail, trunc_factorial_moment_dmu)

MATCH_BRACKET_FLOOR = 1e-8
MATCH_MEAN_TOL = 1e-9
MATCH_MAX_ITER = 200
# Newton steps of the period match before it falls back to bisection.
MATCH_NEWTON_ITER = 40
# A Newton match within MATCH_MEAN_TOL stops at a step of at most this many ulps.
MATCH_POLISH_ULPS = 4

# (level, period) cells that one cost block of ``_period_costs`` holds at
# most.  Each block keeps about ten temporaries of its size alive, so the
# blocks are kept far smaller than the mass chunks of ``renewal._mass_rows``.
_COST_CELLS = 1 << 14


class MatchInfeasibleError(ValueError):
    """No finite hybrid period can reach the requested mean cycle length."""


@dataclass(frozen=True)
class QuantityPolicy:
    """Dispatch as soon as q orders have accumulated."""

    q: int

    def __post_init__(self):
        if self.q != int(self.q) or self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        object.__setattr__(self, "q", int(self.q))

    kind = "QP"

    def label(self) -> str:
        return f"QP(q={self.q})"


@dataclass(frozen=True)
class TimePolicy:
    """Dispatch every ``period`` time units regardless of accumulated load."""

    period: float

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if math.isinf(self.period):
            raise ValueError(f"period must be finite, got {self.period}")
        object.__setattr__(self, "period", float(self.period))

    kind = "TP"

    def label(self) -> str:
        return f"TP(T={self.period:g})"


@dataclass(frozen=True)
class HybridPolicy:
    """Dispatch at the q-th order or after ``period``, whichever comes first."""

    q: int
    period: float

    def __post_init__(self):
        if self.q != int(self.q) or self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        if not self.period > 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if math.isinf(self.period):
            raise ValueError(f"period must be finite, got {self.period}")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "period", float(self.period))

    kind = "HP"

    def label(self) -> str:
        return f"HP(q={self.q}, T={self.period:g})"


Policy = Union[QuantityPolicy, TimePolicy, HybridPolicy]


@dataclass(frozen=True)
class CostParams:
    """Cost coefficients; currency and time units are abstract but consistent."""

    replenish_fixed: float = 0.0   # per replenishment order
    replenish_unit: float = 0.0    # per unit replenished
    holding: float = 0.0           # per unit on hand per time unit
    dispatch_fixed: float = 0.0    # per outbound dispatch
    dispatch_unit: float = 0.0     # per unit dispatched
    wait_linear: float = 0.0       # per unit of order-delay
    wait_squared: float = 0.0      # per unit of squared order-delay

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = float(getattr(self, name))
            if value < 0.0:
                raise ValueError(f"cost coefficient {name} must be nonnegative, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"cost coefficient {name} must be finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SystemConfig:
    """A policy operating against Poisson demand with an order-up-to level."""

    demand_rate: float
    policy: Policy
    order_up_to: int
    costs: CostParams = field(default_factory=CostParams)

    def __post_init__(self):
        if not self.demand_rate > 0.0:
            raise ValueError(f"demand_rate must be positive, got {self.demand_rate}")
        if math.isinf(self.demand_rate):
            raise ValueError(f"demand_rate must be finite, got {self.demand_rate}")
        q_up = self.order_up_to
        if q_up != int(q_up) or q_up < 0:
            raise ValueError(f"order_up_to must be a nonnegative integer, got {q_up}")
        object.__setattr__(self, "order_up_to", int(q_up))
        object.__setattr__(self, "demand_rate", float(self.demand_rate))
        if isinstance(self.policy, QuantityPolicy) and self.order_up_to % self.policy.q:
            raise ValueError(
                f"quantity policy needs order_up_to divisible by q; "
                f"got Q={self.order_up_to}, q={self.policy.q}"
            )

    @classmethod
    def quantity(cls, demand_rate: float, q: int, n_dispatches: int,
                 costs: CostParams | None = None) -> "SystemConfig":
        """Quantity-policy system from the dispatch count n: Q = (n-1)*q."""
        if n_dispatches != int(n_dispatches) or n_dispatches < 1:
            raise ValueError(f"n_dispatches must be a positive integer, got {n_dispatches}")
        return cls(demand_rate, QuantityPolicy(q), (int(n_dispatches) - 1) * int(q),
                   costs if costs is not None else CostParams())

    @property
    def n_dispatches(self) -> int:
        """Deterministic dispatches per replenishment cycle (quantity policy only)."""
        if not isinstance(self.policy, QuantityPolicy):
            raise TypeError("n_dispatches is defined only for quantity policies")
        return self.order_up_to // self.policy.q + 1


@dataclass(frozen=True)
class CycleMetrics:
    """Expected values over one consolidation cycle."""

    length: float      # E[cycle length]
    orders: float      # E[orders per cycle]; equals rate * length
    delay: float       # E[summed per-order delay per cycle]
    sq_delay: float    # E[summed per-order squared delay per cycle]


@dataclass(frozen=True)
class ReplenishMetrics:
    """Expected values over one replenishment cycle."""

    cycles: float      # E[consolidation cycles per replenishment cycle]
    length: float      # E[replenishment cycle length]
    holding: float     # E[integral of on-hand inventory over the cycle]
    mode: str          # "exact" | "approx"


@dataclass(frozen=True)
class ServiceMetrics:
    aod: float     # average delay per order
    aosd: float    # average squared delay per order
    air: float     # average on-hand inventory per time unit


@dataclass(frozen=True)
class Evaluation:
    """Average cost rate with its component breakdown and service metrics."""

    avg_cost: float
    components: dict
    aod: float
    aosd: float
    air: float

    def to_dict(self) -> dict:
        return {
            "avg_cost": self.avg_cost,
            "components": dict(self.components),
            "aod": self.aod,
            "aosd": self.aosd,
            "air": self.air,
        }


def cycle_metrics(demand_rate: float, policy: Policy) -> CycleMetrics:
    """Per-consolidation-cycle expectations for any policy.

    Hybrid closed forms use truncated factorial moments of the load
    Y_q = min(Poisson(rate*T), q):

        length   = E[Y_q] / rate           delay    = E[Y_q^(2)] / (2 rate)
        orders   = E[Y_q]                  sq_delay = E[Y_{q+1}^(3)] / (3 rate^2)

    Quantity and time policies are the q -> infinity and T -> infinity
    reductions of the same formulas.
    """
    rate = float(demand_rate)
    if not rate > 0.0:
        raise ValueError(f"demand_rate must be positive, got {demand_rate}")
    if isinstance(policy, QuantityPolicy):
        q = policy.q
        return CycleMetrics(
            length=q / rate,
            orders=float(q),
            delay=q * (q - 1) / (2.0 * rate),
            sq_delay=(q**3 - q) / (3.0 * rate**2),
        )
    if isinstance(policy, (TimePolicy, HybridPolicy)):
        return _cycle_forms(rate, getattr(policy, "q", None), policy.period)
    raise TypeError(f"unknown policy type: {policy!r}")


def _cycle_forms(rate: float, q: int | None, period: float) -> CycleMetrics:
    """Time (q None) or hybrid cycle closed forms at a float period; arrays of
    periods take ``_cycle_rows``."""
    if q is None:
        return CycleMetrics(
            length=period,
            orders=rate * period,
            delay=rate * period * period / 2.0,
            sq_delay=rate * period**3 / 3.0,
        )
    mu = rate * period
    # ``_factorial_moment``'s expressions on four tails, not six:
    # P(X >= q+1) serves k = 1 and 2, P(X <= q-2) k = 2 and (q+1, 3).
    above = poisson_tail(mu, q + 1)
    orders = mu * poisson_cdf(mu, q - 1) + q * above
    if q < 2:
        pairs = triples = 0.0 * mu
    else:
        below = poisson_cdf(mu, q - 2)
        pairs = mu**2 * below + q * (q - 1) * above
        triples = mu**3 * below + (q + 1) * q * (q - 1) * poisson_tail(mu, q + 2)
    return CycleMetrics(
        length=orders / rate,
        orders=orders,
        delay=pairs / (2.0 * rate),
        sq_delay=triples / (3.0 * rate**2),
    )


def _cycle_rows(rate: float, q, period: np.ndarray) -> CycleMetrics:
    """``_cycle_forms`` at each float period of an array, bit for bit: the
    time forms when q is None, else the hybrid forms of cap q[r] at row r.

    These are the float path's expressions and tails, with its powers by the
    same libm ``pow`` (``_float_powers``).  At q = 1, P(X <= q-2) is 0, as
    are the falling factorials, and that row's powers are taken as 0, so its
    pairs and triples are the float path's k > q zeros even where a power
    overflows.
    """
    if q is None:
        return CycleMetrics(length=period, orders=rate * period,
                            delay=rate * period * period / 2.0,
                            sq_delay=rate * _float_powers(period, 3) / 3.0)
    mu = rate * period
    cap = q.astype(float)
    above = _poisson_tails(mu, cap + 1.0)
    orders = mu * _poisson_heads(mu, cap) + cap * above
    below = _poisson_heads(mu, cap - 1.0)
    caps = q.tolist()    # the falling factorials as the float path's integers
    pairs = np.fromiter((c * (c - 1) for c in caps), float, len(caps))
    triples = np.fromiter(((c + 1) * c * (c - 1) for c in caps), float, len(caps))
    square, cube = _float_powers(mu, 2), _float_powers(mu, 3)
    if min(caps, default=2) < 2:
        square[q < 2] = cube[q < 2] = 0.0
    return CycleMetrics(
        length=orders / rate,
        orders=orders,
        delay=(square * below + pairs * above) / (2.0 * rate),
        sq_delay=(cube * below + triples * _poisson_tails(mu, cap + 2.0)) / (3.0 * rate**2),
    )


def _float_powers(x: np.ndarray, k: int) -> np.ndarray:
    """x**k, k <= 3, per element of x >= 0 by the float paths' libm ``pow``,
    and inf where Python's float power raises OverflowError.

    ``np.float_power``'s float64 loop calls ``npy_pow``, the C library's
    ``pow`` that Python's float ``**`` calls too, so each element is Python's
    bit for bit.  ``np.power`` is not: on CPUs with AVX-512 it dispatches to a
    SIMD power that differs from ``pow`` in the last bit of some squares and
    cubes.
    """
    with np.errstate(over="ignore"):
        return np.float_power(x, float(k))


# A cache that holds nothing: no evaluation path asks twice for one system's
# sums.  The wrapper stays for its ``cache_info``, which the benchmark's
# tracer reads as its table-cache count.
@lru_cache(maxsize=0)
def _policy_table(demand_rate: float, policy: Policy, order_up_to: int) -> tuple[float, float]:
    """E[K] and the holding factor of one system (``renewal.load_sums``)."""
    return renewal.load_sums(renewal._load_mean(demand_rate, policy.period),
                             getattr(policy, "q", None), order_up_to)


def replenish_metrics(cfg: SystemConfig, mode: str = "exact") -> ReplenishMetrics:
    """Per-replenishment-cycle expectations.

    Exact mode resolves the random cycle count through the renewal table of
    the load distribution; the quantity policy is deterministic (the cycle
    count is exactly n = Q/q + 1) and therefore identical in both modes.
    Approximate mode treats the cycle count as continuous:

        cycles ~ (Q+1)/e_n,  length ~ (Q+1)/rate,
        holding ~ e_n*Q/rate + Q(Q+1)/(2*rate).
    """
    return _replenish(cfg, mode, cycle_metrics(cfg.demand_rate, cfg.policy))


def _replenish(cfg: SystemConfig, mode: str, cyc: CycleMetrics) -> ReplenishMetrics:
    if mode not in ("exact", "approx"):
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    rate = cfg.demand_rate
    q_up = cfg.order_up_to
    if isinstance(cfg.policy, QuantityPolicy):
        n = cfg.n_dispatches
        q = cfg.policy.q
        return ReplenishMetrics(cycles=float(n), length=n * q / rate,
                                holding=n * (n - 1) * q * q / (2.0 * rate), mode=mode)
    if mode == "approx":
        return ReplenishMetrics(
            cycles=(q_up + 1) / cyc.orders, length=(q_up + 1) / rate,
            holding=cyc.orders * q_up / rate + q_up * (q_up + 1) / (2.0 * rate), mode=mode)
    return _renewal_record(cyc, *_policy_table(rate, cfg.policy, q_up))


def _renewal_record(cyc: CycleMetrics, cycles, holding_sum) -> ReplenishMetrics:
    """Exact record from the renewal table's E[K] and sum_i m(i) (Q - i)."""
    return ReplenishMetrics(cycles=cycles, length=cycles * cyc.length,
                            holding=cyc.length * holding_sum, mode="exact")


def _per_order(cyc: CycleMetrics) -> tuple:
    """(AOD, AOSD): the cycle's summed delay and squared delay per order."""
    return cyc.delay / cyc.orders, cyc.sq_delay / cyc.orders


def _service(cyc: CycleMetrics, rep: ReplenishMetrics) -> ServiceMetrics:
    return ServiceMetrics(*_per_order(cyc), air=rep.holding / rep.length)


def _components(rate: float, costs: CostParams, cyc: CycleMetrics, rep: ReplenishMetrics,
                svc: ServiceMetrics, delay: str) -> dict:
    """The four cost rates; their sum in this order is the average cost."""
    return {
        "replenish": rate * (costs.replenish_fixed / (rep.cycles * cyc.orders)
                             + costs.replenish_unit),
        "holding": costs.holding * svc.air,
        "dispatch": rate * (costs.dispatch_fixed / cyc.orders + costs.dispatch_unit),
        "waiting": (costs.wait_linear * rate * svc.aod if delay == "linear"
                    else costs.wait_squared * rate * svc.aosd),
    }


def _assess(cfg: SystemConfig,
            mode: str) -> tuple[CycleMetrics, ReplenishMetrics, ServiceMetrics]:
    """Cycle, replenishment and service metrics, each computed once."""
    cyc = cycle_metrics(cfg.demand_rate, cfg.policy)
    rep = _replenish(cfg, mode, cyc)
    return cyc, rep, _service(cyc, rep)


def service_metrics(cfg: SystemConfig, mode: str = "exact") -> ServiceMetrics:
    """Average order delay, squared delay, and inventory rate.

    AOD and AOSD are per-order ratios of the cycle expectations and do not
    depend on the mode.  AIR is the ratio of expected cumulative inventory to
    expected replenishment cycle length; the quantity policy's (n-1)q/2 is
    exact and used in both modes.
    """
    return _assess(cfg, mode)[2]


def average_cost(cfg: SystemConfig, mode: str = "exact", delay: str = "linear") -> Evaluation:
    """Long-run average cost per time unit with its component breakdown.

    Components are per-cycle expectations divided by the expected
    replenishment cycle length; their sum is the renewal-reward cost rate.
    ``delay="squared"`` charges the squared-delay coefficient against AOSD in
    place of the linear penalty.
    """
    if delay not in ("linear", "squared"):
        raise ValueError(f"delay must be 'linear' or 'squared', got {delay!r}")
    cyc, rep, svc = _assess(cfg, mode)
    components = _components(cfg.demand_rate, cfg.costs, cyc, rep, svc, delay)
    return Evaluation(
        avg_cost=sum(components.values()),
        components=components,
        aod=svc.aod,
        aosd=svc.aosd,
        air=svc.air,
    )


def _period_costs(demand_rate: float, costs: CostParams, q: int | None, periods,
                  order_up_to: int) -> np.ndarray:
    """Exact linear-delay average cost of one family at many periods and every
    level up to ``order_up_to``.

    Element [Q, r] is ``average_cost(SystemConfig(demand_rate, policy, Q,
    costs)).avg_cost`` up to rounding, for the time policy of period
    ``periods[r]`` when q is None and the hybrid policy (q, periods[r])
    otherwise; row Q equals this function's result at level Q bit for bit.
    The cycle forms, records and cost components are the scalar path's,
    summed in its order; the table of E[K] at every level and the rows'
    Lorden terms are ``renewal._level_table``'s.  This function owns the
    input checks, Lorden's certificate of every (level, row) pair and the
    overflow checks: it raises where the scalar path raises, at the lowest
    failing level, and never returns inf or nan.

    Level Q reads E[K] = M(Q) and the holding factor
    sum_{i<=Q} (Q - i) m(i) = sum_{j<Q} M(j), a sequential cumsum of the
    table along the levels: O(rows * Q) in all, and row Q is the same at any
    top level.
    """
    rate = float(demand_rate)
    if not rate > 0.0:
        raise ValueError(f"demand_rate must be positive, got {demand_rate}")
    order_up_to = renewal._check_order_up_to(order_up_to)
    t = np.asarray(periods, dtype=float)
    # Overflow is detected from the results, not from numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        mu = rate * t    # the scalar path's products, bit for bit
        if not (np.all(t > 0.0) and np.isfinite(mu).all()):
            for period in t.tolist():    # raises at the first failing period
                renewal._load_mean(rate, period)
        cyc = _cycle_rows(rate, None if q is None else np.full(t.size, q), t)
        if not np.all(np.isfinite(cyc.delay) & np.isfinite(cyc.sq_delay)):
            raise OverflowError(f"cycle metrics overflow at a period up to {float(t.max())!r}")
        cycles, terms = renewal._level_table(mu, q, order_up_to)

        # The costs of blocks of levels, lowest first, at most _COST_CELLS
        # each; the lowest failing level raises, its Lorden violation first.
        # The holding factor sum_{j<Q} M(j) is the same sequential sum, taken
        # per block from the one the block below carries up in row 0.
        cost = np.empty_like(cycles)
        block = max(1, _COST_CELLS // mu.size)
        holding_sum = np.zeros((min(block, order_up_to + 1), mu.size))
        for lo in range(0, order_up_to + 1, block):
            at = slice(lo, lo + block)
            held = holding_sum[:len(cycles[at])]
            held[1:] = cycles[lo:lo + len(held) - 1]
            np.cumsum(held, axis=0, out=held)
            rep = _renewal_record(cyc, cycles[at], held)
            cost[at] = sum(_components(rate, costs, cyc, rep, _service(cyc, rep),
                                       "linear").values())
            failing = ~np.isfinite(cost[at]).all(axis=1)
            stop = lo + (int(np.argmax(failing)) + 1 if failing.any() else failing.size)
            renewal._check_lorden(*terms, np.arange(lo, stop)[:, None], cycles[lo:stop])
            if failing.any():
                raise OverflowError("average cost is not finite")
            holding_sum[0] = held[-1] + cycles[lo + len(held) - 1]
    return cost


def _row_costs(demand_rate: float, costs: CostParams, q, levels: np.ndarray,
               periods: np.ndarray) -> tuple[np.ndarray, dict]:
    """Exact linear-delay average cost of independent rows, each its own
    system: the optimizer's golden steps, every (q, Q) point of a family in
    one call.

    Row r is ``average_cost(SystemConfig(demand_rate, policy, levels[r],
    costs)).avg_cost`` for the time policy of period ``periods[r]`` when q is
    None, and the hybrid policy (q[r], periods[r]) otherwise, the rows in
    any order.  Each row takes the scalar path's cycle forms bit for bit
    (``_cycle_rows``), its sums on its load's route at its own level only
    (``renewal._row_sums``), and the scalar record, service and components.
    So a closed-form time row, whose sums are the scalar ones, and any row
    at a level up to 2 equal the scalar cost bit for bit, and higher levels
    agree within rounding.

    ``average_cost`` itself only raises the errors: a row whose mean is not
    positive and finite, or that fails a check (a cycle form or cost that is
    not finite, a series that diverges, Lorden's bracket), is priced by it,
    which raises where the scalar path raises.  Returns the costs and
    {row: the error its ``average_cost`` raised}.
    """
    rate = float(demand_rate)
    with np.errstate(all="ignore"):
        cyc = _cycle_rows(rate, q, periods)
        cycles, holding_sum, held = renewal._row_sums(rate * periods, q, levels)
        rep = _renewal_record(cyc, cycles, holding_sum)
        cost = sum(_components(rate, costs, cyc, rep, _service(cyc, rep), "linear").values())
        # finite iff all three are, or a false alarm where their sum overflows
        held &= np.isfinite(cost + cyc.delay + cyc.sq_delay)
    errors = {}
    for r in ([] if held.all() else np.flatnonzero(~held).tolist()):
        try:
            policy = (TimePolicy(periods[r]) if q is None
                      else HybridPolicy(int(q[r]), periods[r]))
            cost[r] = average_cost(SystemConfig(rate, policy, int(levels[r]), costs)).avg_cost
        except (ValueError, ArithmeticError) as err:
            errors[r] = err
    return cost, errors


def match_consolidation_cycle(demand_rate: float, target_length: float, q: int) -> float:
    """Hybrid period whose expected consolidation cycle length hits a target.

    Solves f(mu) = E[min(Poisson(mu), q)] = rate * target_length for
    mu = rate * T.  f is strictly increasing with supremum q, so a solution
    exists iff rate * target_length < q.  Newton's method finds it
    (``_newton_match``); bisection is the fallback.
    """
    rate = float(demand_rate)
    if not rate > 0.0 or not target_length > 0.0:
        raise ValueError("demand_rate and target_length must be positive")
    if q != int(q) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    q = int(q)
    target_mean = rate * target_length
    if target_mean >= q:
        raise MatchInfeasibleError(
            f"target mean load {target_mean:g} is not reachable below the cap q={q}"
        )
    mu = _newton_match(target_mean, q)
    if mu is None:
        mu = _bisection_match(target_mean, q)
    if mu is None:
        raise RuntimeError(
            f"bisection did not reach mean tolerance {MATCH_MEAN_TOL} "
            f"for rate={rate}, target_length={target_length}, q={q}"
        )
    return mu / rate


def _newton_match(target: float, q: int) -> float | None:
    """Root of f(mu) = E[min(Poisson(mu), q)] = target by Newton's method.

    f' = P(X <= q - 1) > 0 and f'' = -P(X = q - 1) < 0: f is concave, so its
    tangents lie above it, and f(mu) < mu.  From mu = target the iterates
    therefore rise monotonically to the root.  Once f is within
    MATCH_MEAN_TOL of the target, the steps go on until one is at most
    MATCH_POLISH_ULPS ulps of mu.  An iterate must stay strictly inside the
    bracket of the iterates on either side of the root so far; when one
    leaves it, or MATCH_NEWTON_ITER steps run out, the last iterate within
    tolerance is returned, or None if there is none.
    """
    lo, hi = 0.0, math.inf
    mu, found = target, None
    for _ in range(MATCH_NEWTON_ITER):
        # Positive finite iterates, where this is ``trunc_mean`` without its
        # argument checks.
        mean = _factorial_moment(mu, q, 1)
        if mean == target:
            return mu
        if abs(mean - target) <= MATCH_MEAN_TOL:
            found = mu
        if mean < target:
            lo = mu
        else:
            hi = mu
        slope = trunc_factorial_moment_dmu(mu, q, 1)
        if not slope > 0.0:
            break
        step = (target - mean) / slope
        if found is not None and abs(step) <= MATCH_POLISH_ULPS * math.ulp(mu):
            return mu
        mu += step
        if not lo < mu < hi:
            break
    return found


def _bisection_match(target: float, q: int) -> float | None:
    """The root of ``_newton_match`` by bisection on [MATCH_BRACKET_FLOOR, hi],
    hi doubled from 50 max(1, target) until f(hi) >= target; the first
    midpoint whose mean is within MATCH_MEAN_TOL, or None after
    MATCH_MAX_ITER steps."""
    lo = MATCH_BRACKET_FLOOR
    hi = 50.0 * max(1.0, target)
    while _factorial_moment(hi, q, 1) < target:
        hi *= 2.0
    mu = 0.5 * (lo + hi)
    for _ in range(MATCH_MAX_ITER):
        mean = _factorial_moment(mu, q, 1)
        if abs(mean - target) <= MATCH_MEAN_TOL:
            return mu
        if mean < target:
            lo = mu
        else:
            hi = mu
        mu = 0.5 * (lo + hi)
    return None
