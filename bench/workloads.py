"""The benchmark's workloads: inputs from a seed, timed operations, output checks.

A workload is a list of operations (calls of the package with fixed inputs)
and a probe set of exact ``average_cost`` calls.  worker.py runs every
operation and probe once per pass, and the same inputs in every pass; checks
run outside the timed regions.  The probe sets span a wide range of costs:

* ``optimize``: points the optimizer probed, each at an order-up-to level of
  a quadratic ladder;
* ``exact-large``: none, the workload's own evaluations are timed instead;
* ``simulate-*``: the cost curve of each simulated time or hybrid policy over
  a quadratic ladder of order-up-to levels.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time

import numpy as np
from scipy import stats

import consolidate as cs
from spec import WORKLOADS

COSTS = dict(replenish_fixed=25.0, holding=0.4, dispatch_fixed=15.0, wait_linear=0.8)

REL_COST = 1e-12      # optimize best cost vs reference and vs its re-evaluation
REL_LARGE = 1e-9      # exact-large avg_cost vs reference
REL_SUM = 1e-12       # components must sum to avg_cost
SIM_SE = 4.0          # simulation estimate within this many standard errors

EVAL_MS: list[float] = []   # latencies of the timed average_cost calls of a pass


def costs():
    return cs.CostParams(**COSTS)


def timed_eval(cfg):
    start = time.perf_counter()
    ev = cs.average_cost(cfg)
    EVAL_MS.append((time.perf_counter() - start) * 1e3)
    return ev


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _ladder(n: int, spread: int) -> list[int]:
    """n distinct order-up-to levels i + i^2 // spread: costs from tiny to large."""
    return [i + i * i // spread for i in range(n)]


class Workload:
    """Operations to time, a probe set, and the checks of their outputs."""

    ops: list = []

    def probes(self, outputs: list) -> list:
        return []

    def check_op(self, i: int, output) -> list[str] | None:
        """Problems of operation i, checked right after it ran (its caches are
        still warm), or None when the operation is checked only in ``check``."""
        return None

    def check(self, outputs: list) -> list[list[str]]:
        """Problems of each checked operation not checked by ``check_op``."""
        return []

    def digest(self, outputs: list) -> str:
        raise NotImplementedError


# ---- optimize ------------------------------------------------------------

def best_point(run) -> dict:
    return {"q": getattr(run.best.policy, "q", None), "order_up_to": run.best.order_up_to,
            "period": run.best.policy.period, "best_cost": run.best_cost}


def _optimize(c, kind, bounds):
    # cs.optimize is looked up at call time, so a tracer's wrapper is seen
    return cs.optimize(1.0, c, kind, bounds)


class Optimize(Workload):
    """Seeded cost sets (each cost scaled by a factor in [1/2, 2]), each
    optimized as a hybrid and as a time policy; an operation is one call."""

    def __init__(self, seed, spec, refs):
        rng = np.random.default_rng(seed)
        self.seed, self.spec, self.refs = seed, spec, refs
        self.problems = []
        for _ in range(spec["problems"]):
            factors = 2.0 ** rng.uniform(-1.0, 1.0, size=len(COSTS))
            c = cs.CostParams(**{k: v * f for (k, v), f in zip(COSTS.items(), factors)})
            for kind in ("hybrid", "time"):
                self.problems.append((kind, c, cs.SearchBounds(*spec[kind])))
        self.ops = [functools.partial(_optimize, c, kind, bounds)
                    for kind, c, bounds in self.problems]

    def probes(self, outputs):
        points = [(kind, p) for (kind, _, _), run in zip(self.problems, outputs)
                  for p in run.trace]
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(points), size=self.spec["probes"])
        levels = rng.permutation(_ladder(self.spec["probes"], self.spec["spread"]))
        out = []
        for i, level in zip(picks, levels):
            kind, p = points[int(i)]
            policy = (cs.HybridPolicy(p["q"], p["period"]) if kind == "hybrid"
                      else cs.TimePolicy(p["period"]))
            out.append(cs.SystemConfig(1.0, policy, int(level), costs()))
        return out

    def check_op(self, i, run):
        kind = self.problems[i][0]
        found = []
        best = best_point(run)
        ref = self.refs[i] if self.refs else None
        if ref is not None:
            if (best["q"], best["order_up_to"]) != (ref["q"], ref["order_up_to"]) \
                    or not _rel_close(best["period"], ref["period"], REL_COST):
                found.append(f"best point {best} differs from reference {ref}")
            if not _rel_close(run.best_cost, ref["best_cost"], REL_COST):
                found.append(f"best_cost {run.best_cost!r} vs {ref['best_cost']!r}")
        acs = [p["ac"] for p in run.trace]
        if not acs or run.best_cost > min(acs):
            found.append("best_cost is not the minimum of its trace")
        again = cs.average_cost(run.best).avg_cost
        if not _rel_close(again, run.best_cost, REL_COST):
            found.append(f"best point re-evaluates to {again!r}, not {run.best_cost!r}")
        return [f"problem {i} ({kind}): {p}" for p in found]

    def digest(self, outputs):
        h = hashlib.sha256()
        for run in outputs:
            h.update(json.dumps([best_point(run), run.evaluations]).encode())
            h.update(np.asarray([p["ac"] for p in run.trace]).tobytes())
        return h.hexdigest()


# ---- exact-large -----------------------------------------------------------

def _kronecker(rng, n, dim):
    """n points of the R_d low-discrepancy sequence, shifted by a seeded
    random vector in [0, 1/(8n))^dim.

    The set covers the unit cube evenly, and the shift moves each point by a
    small part of the spacing of n points, so every seed gives distinct
    systems whose costs have nearly the same distribution: the work of a pass
    and its latency tail barely change from seed to seed.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1, dim + 1)
    return (rng.random(dim) / (8 * n) + np.arange(1, n + 1)[:, None] * alpha) % 1.0


def large_systems(seed: int, n: int) -> list[dict]:
    """Half time policies, half hybrid policies; rate log-uniform in [0.5, 10],
    Q uniform in [1000, 10000]; TP rate*T log-uniform in [1, 1e4]; HP q
    log-uniform in [2, 1000] with target mean load uniform in [1, 0.999 q].
    Shuffled, so that costly and cheap systems alternate in time."""
    rng = np.random.default_rng(seed)
    out = []
    n_tp = n // 2
    for u_rate, u_q, u_mu in _kronecker(rng, n_tp, 3):
        rate = 0.5 * 20.0 ** u_rate
        out.append({"kind": "TP", "rate": rate, "Q": 1000 + int(u_q * 9001),
                    "period": 10.0 ** (4.0 * u_mu) / rate})
    for u_rate, u_q, u_cap, u_load in _kronecker(rng, n - n_tp, 4):
        rate = 0.5 * 20.0 ** u_rate
        q = int(round(2.0 * 500.0 ** u_cap))
        out.append({"kind": "HP", "rate": rate, "Q": 1000 + int(u_q * 9001), "q": q,
                    "load": 1.0 + u_load * (0.999 * q - 1.0)})
    return [out[i] for i in rng.permutation(n)]


def large_config(s: dict):
    """The system of one exact-large input; a hybrid period is matched to its load."""
    if s["kind"] == "TP":
        policy = cs.TimePolicy(s["period"])
    else:
        period = cs.match_consolidation_cycle(s["rate"], s["load"] / s["rate"], s["q"])
        policy = cs.HybridPolicy(s["q"], period)
    return cs.SystemConfig(s["rate"], policy, s["Q"], costs())


def _large_op(s: dict):
    cfg = large_config(s)
    return cfg, timed_eval(cfg)


class ExactLarge(Workload):
    """An operation is one system: its period match (hybrid) and its evaluation."""

    def __init__(self, seed, spec, refs):
        self.systems = large_systems(seed, spec["systems"])
        if refs is not None and refs["systems"] != self.systems:
            refs = {"avg_cost": [math.nan] * len(self.systems)}
        self.refs = refs
        self.ops = [functools.partial(_large_op, s) for s in self.systems]

    def check_op(self, i, output):
        cfg, ev = output
        found = _check_large(cfg, ev)
        if self.refs is not None and not _rel_close(ev.avg_cost, self.refs["avg_cost"][i],
                                                    REL_LARGE):
            found.append(f"avg_cost {ev.avg_cost!r} vs reference {self.refs['avg_cost'][i]!r}")
        return [f"system {i}: {p}" for p in found]

    def digest(self, outputs):
        return hashlib.sha256(repr([ev.to_dict() for _, ev in outputs]).encode()).hexdigest()


def _check_large(cfg, ev) -> list[str]:
    problems = []
    values = [ev.avg_cost, ev.aod, ev.aosd, ev.air, *ev.components.values()]
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite output {ev.to_dict()}")
    if not _rel_close(sum(ev.components.values()), ev.avg_cost, REL_SUM):
        problems.append("components do not sum to avg_cost")
    policy = cfg.policy
    if isinstance(policy, cs.TimePolicy):
        inc = cs.build_increment_tp(cfg.demand_rate, policy.period)
    else:
        inc = cs.build_increment_hp(cfg.demand_rate, policy.q, policy.period)
    e_k = cs.replenish_metrics(cfg).cycles
    e_n = inc.mean()
    lo, hi = (cfg.order_up_to + 1) / e_n, (cfg.order_up_to + inc.support_end) / e_n
    if not lo * (1 - 1e-9) <= e_k <= hi * (1 + 1e-9):
        problems.append(f"E[K]={e_k!r} outside the Wald bracket [{lo!r}, {hi!r}]")
    return problems


# ---- simulation --------------------------------------------------------------

def sim_systems(workload: str):
    c = costs()
    if workload == "simulate-narrow":
        return [cs.SystemConfig.quantity(1.0, 5, 3, c),
                cs.SystemConfig(1.0, cs.TimePolicy(5.0), 14, c),
                cs.SystemConfig(1.0, cs.HybridPolicy(6, 5.9199), 14, c)]
    return [cs.SystemConfig(1.0, cs.HybridPolicy(200, 5.0), 100, c)]


def sim_seed(seed: int, system: int, call: int) -> int:
    return int(np.random.SeedSequence([seed, system, call]).generate_state(1, np.uint64)[0])


def _simulate(cfg):
    return cs.simulate(cfg)


class Simulate(Workload):
    """An operation is one seeded ``simulate`` call; each system gets the same
    number of calls, and a check is one (system, metric) pair."""

    def __init__(self, workload, seed, spec):
        self.seed, self.spec = seed, spec
        self.systems = sim_systems(workload)
        n_cycles = spec["batches"] * spec["batch_size"]
        self.ops = [functools.partial(_simulate, cs.SimConfig(
                        system, n_cycles, seed=sim_seed(seed, i, k),
                        batch_size=spec["batch_size"]))
                    for i, system in enumerate(self.systems) for k in range(spec["calls"])]

    def probes(self, outputs):
        # The quantity policy needs no renewal table and costs the same at
        # every level, so it is left out of the latency probes.
        out = [cs.SystemConfig(s.demand_rate, s.policy, level, s.costs)
               for s in self.systems if not isinstance(s.policy, cs.QuantityPolicy)
               for level in _ladder(self.spec["probes"], self.spec["spread"])]
        return [out[i] for i in np.random.default_rng(self.seed).permutation(len(out))]

    def check(self, outputs):
        calls = self.spec["calls"]
        # Each call's se comes from its own batches; pooled, the check has
        # calls * (batches - 1) degrees of freedom.  The bound is the Student
        # t quantile with the false-alarm rate of SIM_SE normal standard errors.
        dof = calls * (self.spec["batches"] - 1)
        limit = float(stats.t.isf(stats.norm.sf(SIM_SE), dof))
        problems = []
        for i, system in enumerate(self.systems):
            reports = outputs[i * calls:(i + 1) * calls]
            truth = cs.average_cost(system)
            for name in ("avg_cost", "aod", "air"):
                means = [getattr(r, name).mean for r in reports]
                mean = math.fsum(means) / calls
                se = math.sqrt(math.fsum(getattr(r, name).se ** 2 for r in reports)) / calls
                value = getattr(truth, name)
                ok = math.isfinite(mean) and abs(mean - value) <= limit * se + REL_COST * abs(value)
                problems.append([] if ok else [f"{system.policy.label()} {name}: {mean!r} "
                                               f"+/- {se!r} vs exact {value!r}"])
        return problems

    def digest(self, outputs):
        return hashlib.sha256(json.dumps([r.to_dict() for r in outputs],
                                         sort_keys=True).encode()).hexdigest()


def build(workload: str, seed: int, size: str, refs) -> Workload:
    spec = WORKLOADS[workload][size]
    refs = (refs or {}).get(size, {})
    if workload == "optimize":
        return Optimize(seed, spec, refs.get("optimize", {}).get(str(seed)))
    if workload == "exact-large":
        return ExactLarge(seed, spec, refs.get("exact-large", {}).get(str(seed)))
    return Simulate(workload, seed, spec)
