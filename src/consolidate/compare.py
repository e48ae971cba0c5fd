"""Matched-frequency policy comparison, ordering verification, and optimization.

Policies are only comparable service-wise at equal dispatch frequency, so all
comparisons here first match the expected consolidation cycle length across
the quantity, time, and hybrid policies (and, when requested, the expected
replenishment cycle length as well).  Matching the consolidation cycle pins

    q = rate * E[L^C] = rate * T = E[min(Poisson(rate * T_H), q_H)],

which forces q to be an integer for the quantity policy and q_H > q for the
hybrid one; matching the replenishment cycle additionally identifies
Q + 1 ~ n*q through the continuous-cycle-count approximation, which may land
on non-integer values.  Rows record every such feasibility compromise instead
of silently dropping policies.

The verified orderings, all at matched frequencies:

  * delay per order:    QP < HP < TP, strictly (exact formulas);
  * squared delay:      QP < TP and HP < TP strictly, while QP vs HP flips
    sign depending on how tight the hybrid count cap is;
  * inventory rate:     TP ~ HP >= QP in the approximate-cycle-count regime;
  * average cost:       QP <~ HP <~ TP (linear delay, approximate regime).

Each system is evaluated once per mode: one ``average_cost`` call carries its
delay, squared delay, inventory rate and cost.  The optimizer enumerates the
integer points (q, Q) of a family; at each point the quantity family
evaluates once and the time and hybrid families search the period: a
200-period scan, then golden-section steps.  The scans of one cap are one
batched exact call (``metrics._period_costs``) at the order-up-to bound,
whose row Q is the scan at level Q.  The golden searches of all points of a
family run in lockstep rounds of one batched exact call
(``metrics._row_costs``).  A call costs about the same up to some 60 rows,
so a round evaluates, within a budget of 64 rows, every period the next
steps of each running search could probe; only the periods a search walks
are its probes.  Rows do not depend on their batch, so costs keep their
bits.  Every period scanned or probed is one entry of the trace, in the
order of a search one point at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .metrics import (
    CostParams,
    HybridPolicy,
    MatchInfeasibleError,
    Policy,
    QuantityPolicy,
    SystemConfig,
    TimePolicy,
    _per_order,
    _period_costs,
    _row_costs,
    average_cost,
    cycle_metrics,
    match_consolidation_cycle,
)
from .renewal import MAX_ORDER_UP_TO, TP_CLOSED_FORM_MU

INTEGER_TOL = 1e-9

# Relative slack within which a matched hybrid row's delay or squared delay
# counts as not above the time row's (``_verdicts``): HP tends to TP as q_H
# grows, and for caps far above the mean load the two differ below double
# precision.
TIE_SLACK = 1e-12

# Default cost vector for ordering verification; any nonnegative costs work,
# this one exercises every component.
REFERENCE_COSTS = CostParams(
    replenish_fixed=25.0, holding=0.4, dispatch_fixed=15.0, wait_linear=0.8,
)


@dataclass(frozen=True)
class MatchSpec:
    """Target frequencies to match across policies."""

    demand_rate: float
    target_cycle_length: float
    target_replenish_length: float | None = None

    def __post_init__(self):
        if not self.demand_rate > 0.0 or not self.target_cycle_length > 0.0:
            raise ValueError("demand_rate and target_cycle_length must be positive")
        if (self.target_replenish_length is not None
                and self.target_replenish_length < self.target_cycle_length):
            raise ValueError("target_replenish_length must be >= target_cycle_length")
        for name in ("demand_rate", "target_cycle_length", "target_replenish_length"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class ComparisonRow:
    label: str
    policy: Policy | None
    order_up_to: int | None
    feasible: bool
    notes: list = field(default_factory=list)
    aod: float | None = None
    aosd: float | None = None
    air_exact: float | None = None
    air_approx: float | None = None
    ac: float | None = None
    cycle_length: float | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": None if self.policy is None else self.policy.kind,
            "q": getattr(self.policy, "q", None),
            "period": getattr(self.policy, "period", None),
            "order_up_to": self.order_up_to,
            "feasible": self.feasible,
            "notes": list(self.notes),
            "aod": self.aod,
            "aosd": self.aosd,
            "air_exact": self.air_exact,
            "air_approx": self.air_approx,
            "ac": self.ac,
            "cycle_length": self.cycle_length,
        }


@dataclass
class CompareResult:
    rows: list
    verdicts: dict

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows], "verdicts": dict(self.verdicts)}


def _round_level(value: float, notes: list, what: str) -> int:
    level = round(value)
    if abs(value - level) > INTEGER_TOL:
        notes.append(f"{what} {value:g} rounded to {level}")
    return max(int(level), 0)


def _matched_row(label: str, rate: float, policy: Policy, order_up_to: int | None,
                 notes: list, costs: CostParams | None) -> ComparisonRow:
    """A feasible row; with a level it also carries AIR in both modes and, given
    costs, the exact AC."""
    cyc = cycle_metrics(rate, policy)
    aod, aosd = _per_order(cyc)
    row = ComparisonRow(label=label, policy=policy, order_up_to=order_up_to, feasible=True,
                        notes=notes, aod=aod, aosd=aosd, cycle_length=cyc.length)
    if order_up_to is not None:
        cfg = SystemConfig(rate, policy, order_up_to,
                           costs if costs is not None else CostParams())
        exact = average_cost(cfg, "exact")
        row.air_exact = exact.air
        row.air_approx = average_cost(cfg, "approx").air
        if costs is not None:
            row.ac = exact.avg_cost
    return row


def compare_matched(spec: MatchSpec, qh_list, costs: CostParams | None = None) -> CompareResult:
    """Build one matched row per policy and record ordering verdicts.

    The quantity row requires rate * target_cycle_length to be a positive
    integer and each hybrid cap must exceed it; violations mark the row
    infeasible rather than dropping it.  With a replenishment-length target,
    order-up-to levels are derived from Q + 1 ~ rate * E[L^R] (identically
    n*q), rounding noted per row.  Each system is evaluated once per mode.
    """
    rate = spec.demand_rate
    target_mean = rate * spec.target_cycle_length
    elr = spec.target_replenish_length

    # Quantity policy: q = rate * E[L^C] must be integral.
    q_int = round(target_mean)
    if abs(target_mean - q_int) > INTEGER_TOL or q_int < 1:
        rows = [ComparisonRow(
            label="QP", policy=None, order_up_to=None, feasible=False,
            notes=[f"rate*target_cycle_length = {target_mean:g} is not a positive integer"],
        )]
    else:
        notes: list = []
        order_up_to = None
        if elr is not None:
            n = max(_round_level(rate * elr / q_int, notes, "dispatch count n"), 1)
            order_up_to = (n - 1) * int(q_int)
        rows = [_matched_row("QP", rate, QuantityPolicy(int(q_int)), order_up_to, notes, costs)]

    # Time and hybrid policies share the level Q = rate * E[L^R] - 1.
    level_notes: list = []
    level = (None if elr is None
             else _round_level(rate * elr - 1.0, level_notes, "order-up-to level"))

    # Time policy: period equals the target directly.
    rows.append(_matched_row("TP", rate, TimePolicy(spec.target_cycle_length), level,
                             list(level_notes), costs))

    # Hybrid policies: match the period for each cap.
    for q_h in qh_list:
        label = f"HP(q={q_h})"
        try:
            period = match_consolidation_cycle(rate, spec.target_cycle_length, q_h)
        except MatchInfeasibleError as err:
            rows.append(ComparisonRow(label=label, policy=None, order_up_to=None,
                                      feasible=False, notes=[str(err)]))
            continue
        rows.append(_matched_row(label, rate, HybridPolicy(int(q_h), period), level,
                                 list(level_notes), costs))

    return CompareResult(rows=rows, verdicts=_verdicts(rows))


def _verdicts(rows) -> dict:
    """Ordering verdicts of matched rows.

    The HP-vs-TP verdicts ``aod_hp_lt_tp`` and ``aosd_hp_lt_tp`` hold when
    every feasible hybrid row's value is at most the time row's times
    (1 + TIE_SLACK): the paper's HP < TP, with a tie rule for caps at which
    the two differ by less than rounding (at q_H = 50 and mean load 5, by
    P(X >= 50) ~ 1e-32).  The other verdicts are strict.
    """
    qp = rows[0]
    tp = rows[1]
    hps = [r for r in rows[2:] if r.feasible]
    verdicts: dict = {"n_feasible_hp": len(hps)}
    if qp.feasible and hps:
        verdicts["aod_qp_lt_hp"] = all(qp.aod < r.aod for r in hps)
        verdicts["aosd_qp_vs_hp_signs"] = sorted(
            {"QP>HP" if qp.aosd > r.aosd else "QP<HP" for r in hps}
        )
    if hps:
        verdicts["aod_hp_lt_tp"] = all(r.aod <= tp.aod * (1.0 + TIE_SLACK) for r in hps)
        verdicts["aosd_hp_lt_tp"] = all(r.aosd <= tp.aosd * (1.0 + TIE_SLACK) for r in hps)
    if qp.feasible:
        verdicts["aosd_qp_lt_tp"] = qp.aosd < tp.aosd
    if tp.order_up_to is not None and hps:
        gaps = [abs(tp.air_approx - r.air_approx) / tp.air_approx for r in hps
                if r.air_approx is not None]
        verdicts["air_tp_hp_max_rel_gap"] = max(gaps) if gaps else None
        if qp.feasible and qp.air_approx is not None:
            verdicts["air_hp_ge_qp"] = all(
                r.air_approx >= qp.air_approx - INTEGER_TOL for r in hps
            )
    return verdicts


@dataclass(frozen=True)
class VerifyGrid:
    """Grid of matched comparisons for ordering verification."""

    demand_rates: tuple = (0.5, 1.0, 2.0)
    q_values: tuple = tuple(range(2, 11))
    qh_extra: tuple = tuple(range(1, 11))
    replenish_multiples: tuple = (2, 4, 8)
    costs: CostParams = REFERENCE_COSTS

    def __post_init__(self):
        for name in ("demand_rates", "q_values", "qh_extra", "replenish_multiples"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be nonempty")
            for v in values:
                if name == "demand_rates":
                    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                            or not 0.0 < v < math.inf):
                        raise ValueError(f"demand_rates must be finite numbers > 0, got {v!r}")
                elif isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                    raise ValueError(f"{name} must be integers >= 1, got {v!r}")
            object.__setattr__(self, name, values)


@dataclass
class TheoremReport:
    """Outcome of the ordering checks over a verification grid.

    Exact-formula orderings (delay and squared-delay vs the time policy) are
    provably strict, so any violation is a hard failure; the inventory-rate and
    average-cost orderings hold in the approximate regime and are checked
    against explicit tolerances.
    """

    points: int = 0
    air_points: int = 0
    aod_violations: list = field(default_factory=list)
    aosd_vs_tp_violations: list = field(default_factory=list)
    sq_delay_qp_worse: int = 0
    sq_delay_hp_worse: int = 0
    air_max_rel_gap: float = 0.0
    air_order_violations: list = field(default_factory=list)
    cost_order_violations: list = field(default_factory=list)
    air_rel_tol: ClassVar[float] = 0.05
    cost_slack: ClassVar[float] = 1e-9

    @property
    def both_squared_delay_signs(self) -> bool:
        return self.sq_delay_qp_worse > 0 and self.sq_delay_hp_worse > 0

    @property
    def exact_ok(self) -> bool:
        # sign coverage is a property of the default grid, not a violation
        return not self.aod_violations and not self.aosd_vs_tp_violations

    @property
    def approx_ok(self) -> bool:
        return (self.air_max_rel_gap <= self.air_rel_tol
                and not self.air_order_violations
                and not self.cost_order_violations)

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "air_points": self.air_points,
            "aod_violations": list(self.aod_violations),
            "aosd_vs_tp_violations": list(self.aosd_vs_tp_violations),
            "sq_delay_qp_worse": self.sq_delay_qp_worse,
            "sq_delay_hp_worse": self.sq_delay_hp_worse,
            "both_squared_delay_signs": self.both_squared_delay_signs,
            "air_max_rel_gap": self.air_max_rel_gap,
            "air_rel_tol": self.air_rel_tol,
            "air_order_violations": list(self.air_order_violations),
            "cost_order_violations": list(self.cost_order_violations),
            "cost_slack": self.cost_slack,
            "exact_ok": self.exact_ok,
            "approx_ok": self.approx_ok,
        }


def verify_theorems(grid: VerifyGrid | None = None) -> TheoremReport:
    """Check every proved ordering at every feasible grid point.

    For each (rate, q, q_H) the hybrid period is matched to the quantity
    policy's cycle length q/rate; the checks follow the summary in the module
    docstring.  The replenishment-length targets take E[L^R] = n * E[L^C] for
    each multiple n, identifying the time/hybrid order-up-to level nq - 1.
    Every system is evaluated once: the quantity and time systems of each
    (rate, q, n) serve all the caps q_H, and one evaluation gives both the
    inventory rate and the average cost.
    """
    grid = grid if grid is not None else VerifyGrid()
    report = TheoremReport()
    for rate in grid.demand_rates:
        for q in grid.q_values:
            elc = q / rate
            aod_qp, aosd_qp = _per_order(cycle_metrics(rate, QuantityPolicy(q)))
            aod_tp, aosd_tp = _per_order(cycle_metrics(rate, TimePolicy(elc)))
            fixed = [(n,
                      average_cost(SystemConfig.quantity(rate, q, n, grid.costs), "exact"),
                      average_cost(SystemConfig(rate, TimePolicy(elc), n * q - 1, grid.costs),
                                   "approx"))
                     for n in grid.replenish_multiples]
            for extra in grid.qh_extra:
                q_h = q + extra
                period = match_consolidation_cycle(rate, elc, q_h)
                hp = HybridPolicy(q_h, period)
                aod_hp, aosd_hp = _per_order(cycle_metrics(rate, hp))
                report.points += 1
                point = {"rate": rate, "q": q, "q_h": q_h}
                if not (aod_qp < aod_hp < aod_tp):
                    report.aod_violations.append(
                        {**point, "aod": (aod_qp, aod_hp, aod_tp)}
                    )
                if not (aosd_qp < aosd_tp and aosd_hp < aosd_tp):
                    report.aosd_vs_tp_violations.append(
                        {**point, "aosd": (aosd_qp, aosd_hp, aosd_tp)}
                    )
                if aosd_qp > aosd_hp:
                    report.sq_delay_qp_worse += 1
                elif aosd_qp < aosd_hp:
                    report.sq_delay_hp_worse += 1
                for n, qp_eval, tp_eval in fixed:
                    report.air_points += 1
                    hp_eval = average_cost(SystemConfig(rate, hp, n * q - 1, grid.costs),
                                           "approx")
                    air_qp, air_hp, air_tp = qp_eval.air, hp_eval.air, tp_eval.air
                    gap = abs(air_tp - air_hp) / air_tp
                    report.air_max_rel_gap = max(report.air_max_rel_gap, gap)
                    if air_hp < air_qp - INTEGER_TOL:
                        report.air_order_violations.append(
                            {**point, "n": n, "air": (air_qp, air_hp, air_tp)}
                        )
                    ac_qp, ac_hp, ac_tp = qp_eval.avg_cost, hp_eval.avg_cost, tp_eval.avg_cost
                    if (ac_qp > ac_hp + report.cost_slack
                            or ac_hp > ac_tp + report.cost_slack):
                        report.cost_order_violations.append(
                            {**point, "n": n, "ac": (ac_qp, ac_hp, ac_tp)}
                        )
    return report


@dataclass(frozen=True)
class SearchBounds:
    q_max: int = 10
    order_up_to_max: int = 40
    period_max: float = 20.0

    def __post_init__(self):
        for name in ("q_max", "order_up_to_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        period_max = self.period_max
        if (isinstance(period_max, bool) or not isinstance(period_max, numbers.Real)
                or not math.isfinite(period_max)):
            raise ValueError(f"period_max must be a finite real number, got {period_max!r}")
        if self.q_max < 1 or self.order_up_to_max < 0 or not self.period_max > 0.0:
            raise ValueError("bounds must satisfy q_max >= 1, order_up_to_max >= 0, period_max > 0")
        if self.order_up_to_max > MAX_ORDER_UP_TO:
            raise ValueError(f"order_up_to_max {self.order_up_to_max} exceeds capacity limit "
                             f"{MAX_ORDER_UP_TO}")


@dataclass
class OptimResult:
    policy_kind: str
    best: SystemConfig
    best_cost: float
    evaluations: int
    trace: list
    warnings: list
    bounds: "SearchBounds"

    def to_dict(self) -> dict:
        policy = self.best.policy
        return {
            "policy_kind": self.policy_kind,
            "best": {
                "label": policy.label(),
                "q": getattr(policy, "q", None),
                "period": getattr(policy, "period", None),
                "order_up_to": self.best.order_up_to,
            },
            "best_cost": self.best_cost,
            "evaluations": self.evaluations,
            "bounds": asdict(self.bounds),
            "warnings": list(self.warnings),
        }


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 200
_PERIOD_TOL = 1e-8
# Points per golden round: an evaluator call costs about the same from 3 to 60 rows.
_ROW_BUDGET = 64


def _golden_searches(evaluate, lo: list, hi: list, rank: list, budget: int = _ROW_BUDGET):
    """Golden-section searches of a minimum on [lo[r], hi[r]] to width
    _PERIOD_TOL, in lockstep rounds of one call ``evaluate(rows, points)``
    each, which returns the values and {index into points: error}.

    The first call takes the first two points of every row.  A row's next
    point is then known, and where it goes after that depends only on
    whether the pending value is at most the kept one.  So with n rows
    running, a row puts the points of its next depth steps, 2^depth - 1 at
    most, at the largest depth >= 1 with n * (2^depth - 1) <= budget.  The
    points are float for float those of one search at a time, only walked
    points are probes, and a row stops at its first walked error.

    Returns each row's probes [(x, f(x)), ...] in order, each row's minimum
    (x, f(x)), and the error of the failed row first in ``rank``, or None.
    """
    probes = [[] for _ in lo]
    best = [None] * len(lo)
    failed = {}  # row: its error
    rows, points, depth = [], [], 1

    def search(row, a, b):
        # one row's search: it yields for the values of the points it put
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        k = len(points)
        rows.extend((row, row))
        points.extend((c, d))
        yield
        fc, fd = values[k], values[k + 1]
        probes[row] += ((c, fc), (d, fd))
        k = k if k in errors else k + 1
        ahead = {}  # point: index in values, from the last put at depth > 1
        while k not in errors and b - a > _PERIOD_TOL:
            low = fc <= fd
            if low:
                b, d, fd = d, c, fc
                c = x = b - _GOLDEN * (b - a)
            else:
                a, c, fc = c, d, fd
                d = x = a + _GOLDEN * (b - a)
            if depth == 1 or x not in ahead:
                k = len(points)
                points.append(x)
                if depth == 1:
                    rows.append(row)
                else:
                    # the states after the next steps, level by level, each
                    # new at c or d (depth never falls: ahead is fresh)
                    level = [(a, b, c, d)]
                    while len(level) < 2 ** (depth - 1) and any(
                            b - a > _PERIOD_TOL for a, b, _, _ in level):
                        level = [node for a, b, c, d in level for node in (
                            (a, d, d - _GOLDEN * (d - a), c), (c, b, d, c + _GOLDEN * (b - c)))]
                        points.extend(node[2 + i % 2] for i, node in enumerate(level))
                    ahead = dict(zip(points[k:], range(k, len(points))))
                    rows.extend([row] * (len(points) - k))
                yield
            else:
                k = ahead[x]
            if low:
                fc = values[k]
            else:
                fd = values[k]
            probes[row].append((x, values[k]))
        if k in errors:
            failed[row] = errors[k]
        else:
            best[row] = (c, fc) if fc <= fd else (d, fd)

    running = [search(row, a, b) for row, (a, b) in enumerate(zip(lo, hi))]
    for walk in running:
        next(walk)
    while running:
        depth = max(1, (budget // len(running) + 1).bit_length() - 1)
        values, errors = evaluate(np.array(rows), np.array(points))
        values, rows, points = values.tolist(), [], []
        running = [walk for walk in running if next(walk, True) is None]
    first = min(failed, key=rank.__getitem__, default=None)
    return probes, best, failed.get(first)


def _period_points(demand_rate: float, costs: CostParams, policy_kind: str,
                   bounds: SearchBounds, trace: list) -> list:
    """(policy, level, cost) of the best period at each (q, Q) point of the
    time or hybrid family, q outermost, with every period evaluated appended
    to ``trace``: per point, its scan, then its golden probes.

    The scans of one cap are one batched call (``_period_costs``) at the
    order-up-to bound, whose row Q is the scan at level Q.  The best scan
    cell of each point brackets a golden search, which only polishes it,
    since the cost need not be unimodal in the period; the scan's cell wins
    a tie.  The searches of every point run in lockstep, highest levels
    first, each round one call of ``_row_costs``.  Errors are raised in the
    order of a search one point at a time: a scan that fails is raised after
    the searches of the caps before it.
    """
    caps = [None] if policy_kind == "time" else list(range(1, bounds.q_max + 1))
    step = bounds.period_max / _SCAN_POINTS
    grid = [step * (i + 1) for i in range(_SCAN_POINTS)]
    levels = bounds.order_up_to_max + 1
    tables, failure = [], None
    for q in caps:
        try:
            tables.append(_period_costs(demand_rate, costs, q, grid, bounds.order_up_to_max))
        except (ValueError, ArithmeticError) as err:
            failure = err
            break
    caps = caps[:len(tables)]
    values = np.concatenate(tables) if tables else np.empty((0, _SCAN_POINTS))
    cells = np.argmin(values, axis=1).tolist()
    # point r = (caps[r // levels], r % levels), searched highest level first
    order = sorted(range(len(cells)), key=lambda r: -(r % levels))
    row_caps = None if policy_kind == "time" else np.array([caps[r // levels] for r in order])
    row_levels = np.array([r % levels for r in order])

    def evaluate(rows, points):
        return _row_costs(demand_rate, costs, None if row_caps is None else row_caps[rows],
                          row_levels[rows], points)

    # rows of closed-form time tables are scalar evaluations: no speculation
    closed = policy_kind == "time" and demand_rate * bounds.period_max >= TP_CLOSED_FORM_MU
    probes, best, error = _golden_searches(
        evaluate, [grid[cells[r] - 1] if cells[r] else grid[0] * 0.05 for r in order],
        [grid[min(cells[r] + 1, _SCAN_POINTS - 1)] for r in order], order,
        0 if closed else _ROW_BUDGET)
    if error is not None:
        raise error
    if failure is not None:
        raise failure
    searched = dict(zip(order, zip(probes, best)))
    points = []
    for r, cell in enumerate(cells):
        q, order_up_to = caps[r // levels], r % levels
        scan = values[r].tolist()  # Python floats, as the trace records
        trace.extend({"q": q, "order_up_to": order_up_to, "period": period, "ac": ac}
                     for period, ac in zip(grid, scan))
        steps, (period, ac) = searched[r]
        trace.extend({"q": q, "order_up_to": order_up_to, "period": t, "ac": cost}
                     for t, cost in steps)
        if scan[cell] <= ac:
            period, ac = grid[cell], scan[cell]
        points.append((TimePolicy(period) if q is None else HybridPolicy(q, period),
                       order_up_to, ac))
    return points


def optimize(demand_rate: float, costs: CostParams, policy_kind: str,
             bounds: SearchBounds | None = None) -> OptimResult:
    """Minimize the exact average cost over a policy family within bounds.

    Integer dimensions (count cap q, order-up-to level Q) are enumerated
    exhaustively, q outermost; the continuous period of the time and hybrid
    families is searched per integer point (``_period_points``).  Every
    evaluation is recorded so the reported optimum can be certified against
    the trace.  Ties break toward smaller (Q, q, period).
    """
    if policy_kind not in ("quantity", "time", "hybrid"):
        raise ValueError(f"policy_kind must be quantity|time|hybrid, got {policy_kind!r}")
    bounds = bounds if bounds is not None else SearchBounds()
    trace: list = []
    if policy_kind == "quantity":
        # a quantity policy needs Q divisible by q
        points = []
        for q in range(1, bounds.q_max + 1):
            for order_up_to in range(0, bounds.order_up_to_max + 1, q):
                policy = QuantityPolicy(q)
                ac = average_cost(SystemConfig(demand_rate, policy, order_up_to, costs),
                                  "exact").avg_cost
                trace.append({"q": q, "order_up_to": order_up_to, "period": None, "ac": ac})
                points.append((policy, order_up_to, ac))
    else:
        points = _period_points(demand_rate, costs, policy_kind, bounds, trace)
    best = None  # (key, SystemConfig)
    for policy, order_up_to, ac in points:
        # Within one family q (or the period) is None at every point or at
        # none, so the key never orders None against a number.
        key = (ac, order_up_to, getattr(policy, "q", None), getattr(policy, "period", None))
        if best is None or key < best[0]:
            best = (key, SystemConfig(demand_rate, policy, order_up_to, costs))

    (best_cost, order_up_to, q, period), best_cfg = best
    warnings = []
    if q == bounds.q_max:
        warnings.append(f"optimum at q bound {bounds.q_max}")
    if order_up_to == bounds.order_up_to_max:
        warnings.append(f"optimum at order-up-to bound {bounds.order_up_to_max}")
    if period is not None and period > bounds.period_max - bounds.period_max / _SCAN_POINTS:
        warnings.append(f"optimum near period bound {bounds.period_max}")
    return OptimResult(
        policy_kind=policy_kind,
        best=best_cfg,
        best_cost=best_cost,
        evaluations=len(trace),
        trace=trace,
        warnings=warnings,
        bounds=bounds,
    )
