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
renewal table of the load distribution: the recursion on the load's masses
for hybrid loads and narrow time-policy loads, the closed form of
``renewal._tp_renewal_rows`` for time-policy loads of mean rate*T at least
``renewal.TP_CLOSED_FORM_MU``.  Approximate mode treats the cycle count as
continuous, giving e_k ~ (Q+1)/e_n and the Table-style closed forms.

Each of these expressions is written once, in a function that takes floats or
arrays alike: the time and hybrid cycle forms (``_cycle_forms``), the exact
replenishment record (``_renewal_record``), the per-order ratios and AIR
(``_per_order``, ``_service``) and the four cost components (``_components``).
The optimizer's period scan ``_period_costs`` calls them on arrays of
(level, period) pairs; it owns only the mass rows, their batched renewal
recursion or closed form (by the same load-mean threshold as the scalar
path), the per-level reductions of its masses and its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from . import renewal
from .truncated_poisson import _factorial_moment, trunc_mean

MATCH_BRACKET_FLOOR = 1e-8
MATCH_MEAN_TOL = 1e-9
MATCH_MAX_ITER = 200

# Mass cells (rows x support) that one chunk of ``_period_costs`` holds at
# most, which bounds its memory when rate * period is large.
_CHUNK_CELLS = 1 << 19


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


def _cycle_forms(rate: float, q: int | None, period) -> CycleMetrics:
    """Time (q None) or hybrid cycle closed forms at a float period, or
    elementwise at an array of periods with the same expressions."""
    if q is None:
        return CycleMetrics(
            length=period,
            orders=rate * period,
            delay=rate * period * period / 2.0,
            sq_delay=rate * period**3 / 3.0,
        )
    mu = rate * period
    orders = _factorial_moment(mu, q, 1)
    return CycleMetrics(
        length=orders / rate,
        orders=orders,
        delay=_factorial_moment(mu, q, 2) / (2.0 * rate),
        sq_delay=_factorial_moment(mu, q + 1, 3) / (3.0 * rate**2),
    )


@lru_cache(maxsize=512)
def _policy_table(demand_rate: float, policy: Policy, order_up_to: int) -> renewal.RenewalTable:
    if isinstance(policy, TimePolicy):
        mu = renewal._load_mean(demand_rate, policy.period)
        if mu >= renewal.TP_CLOSED_FORM_MU:
            return renewal._tp_table(mu, order_up_to)
        inc = renewal.build_increment_tp(demand_rate, policy.period)
    else:
        inc = renewal.build_increment_hp(demand_rate, policy.q, policy.period)
    return renewal.renewal_table(inc, order_up_to)


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
    table = _policy_table(rate, cfg.policy, q_up)
    return _renewal_record(cyc, renewal.expected_k(table), renewal.holding_sum(table))


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
    summed in its order.  This function owns the input checks, the mass rows
    and their renewal recursion along the batch axis (in chunks of at most
    ``_CHUNK_CELLS`` mass cells), the closed-form rows of time-policy loads
    from ``renewal.TP_CLOSED_FORM_MU`` on, the Wald certificate of every
    (level, row) pair (Lorden's for closed-form rows) and the overflow
    checks: it raises where the scalar path raises, at the lowest failing
    level, and never returns inf or nan.

    The renewal masses m(0..Q) do not depend on the level they are computed
    to, so one table serves every level; each level's E[K] and holding
    factor reduce the prefix ``m[:, :Q+1]`` as the one-level scan does.
    """
    rate = float(demand_rate)
    if not rate > 0.0:
        raise ValueError(f"demand_rate must be positive, got {demand_rate}")
    order_up_to = renewal._check_order_up_to(order_up_to)
    t = np.asarray(periods, dtype=float)
    mu = np.array([renewal._load_mean(rate, period) for period in t.tolist()])
    # Overflow is detected from the results, not from numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        cyc = _cycle_forms(rate, q, t)
        if not np.all(np.isfinite(cyc.delay) & np.isfinite(cyc.sq_delay)):
            raise OverflowError(f"cycle metrics overflow at a period up to {float(t.max())!r}")

        # Rows of wide time-policy loads take the closed form and Lorden's
        # bracket; the others the recursion on their masses and Wald's.
        closed = mu >= renewal.TP_CLOSED_FORM_MU if q is None else np.zeros(mu.size, bool)
        cut = np.flatnonzero(~closed)
        mean, defect, ends = np.empty(mu.size), np.empty(mu.size), np.empty(mu.size)
        mean[closed], defect[closed], ends[closed] = renewal._lorden_terms(mu[closed])
        ends[cut] = [renewal._tp_support_end(m) for m in mu[cut].tolist()] if q is None else q
        rows = max(1, _CHUNK_CELLS // (max(int(ends[cut].max(initial=0)), order_up_to) + 1))
        shape = (order_up_to + 1, mu.size)
        cycles, holding_sum = np.empty(shape), np.empty(shape)
        steps = np.arange(order_up_to + 1.0)
        for part in (cut, np.flatnonzero(closed)):
            for start in range(0, part.size, rows):
                chunk = part[start:start + rows]
                if closed[chunk[0]]:
                    m = renewal._tp_renewal_rows(mu[chunk], order_up_to)
                else:
                    g = (renewal._tp_masses(mu[chunk], ends[chunk].astype(int).tolist())
                         if q is None else renewal._hp_masses(mu[chunk], q))
                    m = renewal._renewal_rows(g, order_up_to)
                    mean[chunk], defect[chunk] = renewal._wald_terms(g)
                for level in range(order_up_to + 1):
                    prefix = m[:, :level + 1]
                    cycles[level, chunk] = prefix.sum(axis=1)
                    holding_sum[level, chunk] = prefix @ (level - steps[:level + 1])

        # The costs of blocks of levels, lowest first, at most _CHUNK_CELLS
        # each; the lowest failing level raises, its Wald violation first.
        cost = np.empty(shape)
        block = max(1, _CHUNK_CELLS // mu.size)
        for lo in range(0, order_up_to + 1, block):
            at = slice(lo, lo + block)
            rep = _renewal_record(cyc, cycles[at], holding_sum[at])
            cost[at] = sum(_components(rate, costs, cyc, rep, _service(cyc, rep),
                                       "linear").values())
            failing = ~np.isfinite(cost[at]).all(axis=1)
            stop = lo + (int(np.argmax(failing)) + 1 if failing.any() else failing.size)
            renewal._check_wald_bracket(mean, defect, ends, np.arange(lo, stop)[:, None],
                                        cycles[lo:stop])
            if failing.any():
                raise OverflowError("average cost is not finite")
    return cost


def match_consolidation_cycle(demand_rate: float, target_length: float, q: int) -> float:
    """Hybrid period whose expected consolidation cycle length hits a target.

    Solves E[min(Poisson(rate*T), q)] = rate * target_length for T by
    bisection; the truncated mean is strictly increasing in T with supremum q,
    so a solution exists iff rate * target_length < q.
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
    lo = MATCH_BRACKET_FLOOR
    hi = 50.0 * max(1.0, target_mean)
    while trunc_mean(hi, q) < target_mean:
        hi *= 2.0
    mu = 0.5 * (lo + hi)
    for _ in range(MATCH_MAX_ITER):
        mean = trunc_mean(mu, q)
        if abs(mean - target_mean) <= MATCH_MEAN_TOL:
            return mu / rate
        if mean < target_mean:
            lo = mu
        else:
            hi = mu
        mu = 0.5 * (lo + hi)
    raise RuntimeError(
        f"bisection did not reach mean tolerance {MATCH_MEAN_TOL} "
        f"for rate={rate}, target_length={target_length}, q={q}"
    )
