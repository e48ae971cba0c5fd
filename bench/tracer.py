"""Per-layer tracing for the benchmark, done from outside the program.

Functions of ``consolidate`` are wrapped by module attribute: every module of
the package that binds the same function object gets the wrapper, so calls
made through ``from .x import f`` bindings are seen too.  The program's own
source is not edited.

Each wrapped function belongs to a layer group.  A call records a span
(name, start, end, parent) when it enters its group from another group; a
call made inside its own group is only counted, because it is not a layer
boundary.  Spans are kept in flat arrays in memory and reduced to busy and
self times when the pass ends.  Recording happens only inside
``Tracer.recording()``, so checks made outside the timed region add nothing.

A wrap target that no longer exists (after a refactor renames it) does not
stop the run: every layer metric that needs it is reported as absent with the
reason, and the rest are still measured.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array

import numpy as np

TP = "truncated_poisson"
INCREMENT = "renewal.increment"
TABLE = "renewal.table"
EVAL = "metrics.eval"
MATCH = "metrics.match"
SEARCH = "compare.search"
SPLIT = "sim.split"
GENERATE = "sim.generate"
AUDIT = "sim.audit"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def recursion_mults(order_up_to: int, smax: int) -> int:
    """sum_{i=1..Q} min(i, smax): multiply-adds of the renewal recursion."""
    if order_up_to <= smax:
        return order_up_to * (order_up_to + 1) // 2
    return smax * (smax + 1) // 2 + (order_up_to - smax) * smax


def _observe_table(counters, args, kwargs, result):
    order_up_to = int(_arg(args, kwargs, 1, "order_up_to"))
    smax = int(_arg(args, kwargs, 0, "inc").support_end)
    counters["table_cells"] += order_up_to + 1
    counters["recursion_mults"] += recursion_mults(order_up_to, smax)


def _observe_generate(counters, args, kwargs, result):
    system = _arg(args, kwargs, 1, "system")
    count = int(_arg(args, kwargs, 2, "count"))
    counters["generated_cycles"] += count
    q = getattr(system.policy, "q", None)
    # Capped policies draw count x q exponential gaps; the time policy draws
    # one uniform arrival per unit of load.
    counters["generated_draws"] += count * q if q is not None else int(np.sum(result[1]))


def _observe_batch(counters, args, kwargs, result):
    counters["consumed_cycles"] += int(np.sum(result[0][:, 1]))


def _observe_optimize(counters, args, kwargs, result):
    counters["probes"] += int(result.evaluations)


# (module of consolidate, attribute, layer group, role, observer): the entry
# points into each layer.  The role names the function for the metrics that
# need it, so a refactor that renames the function changes only its attribute
# here.
TARGETS = (
    ("truncated_poisson", "poisson_pmf", TP, None, None),
    ("truncated_poisson", "poisson_tail", TP, None, None),
    ("truncated_poisson", "trunc_pmf", TP, None, None),
    ("truncated_poisson", "_factorial_moment", TP, None, None),
    ("truncated_poisson", "trunc_mean", TP, None, None),
    ("renewal", "build_increment_hp", INCREMENT, None, None),
    ("renewal", "build_increment_tp", INCREMENT, None, None),
    ("renewal", "renewal_table", TABLE, None, _observe_table),
    ("metrics", "average_cost", EVAL, "average_cost", None),
    ("metrics", "cycle_metrics", EVAL, "cycle_metrics", None),
    ("metrics", "replenish_metrics", EVAL, "replenish_metrics", None),
    ("metrics", "_policy_table", EVAL, "table_cache", None),
    ("metrics", "match_consolidation_cycle", MATCH, None, None),
    ("compare", "optimize", SEARCH, None, _observe_optimize),
    ("sim", "_simulate_batch", SPLIT, None, _observe_batch),
    ("sim", "_generate", GENERATE, None, _observe_generate),
    ("sim", "per_order_delays", AUDIT, None, None),
)


class Tracer:
    """Wraps the targets, records spans while recording, computes layer metrics."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.groups: list[str] = []
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[tuple[int, int]] = []
        self.active = False
        self.missing: dict[str, str] = {}
        self.broken: dict[str, str] = {}
        self.counters = {"table_cells": 0, "recursion_mults": 0, "generated_cycles": 0,
                         "generated_draws": 0, "consumed_cycles": 0, "probes": 0,
                         "cache_hits": 0, "cache_misses": 0}
        self._cache = None
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, group, role, observe in self.targets:
            key = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"consolidate.{module_name}")
            except ImportError as err:
                self.missing[key] = f"module consolidate.{module_name} not importable: {err}"
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing[key] = f"consolidate.{module_name} has no function {attr}"
                continue
            if role == "table_cache":
                self._cache = getattr(fn, "cache_info", None)
            wrapper = self._wrap(fn, key, group, observe)
            modules = [m for name, m in list(sys.modules.items()) if m is not None
                       and (name == "consolidate" or name.startswith("consolidate."))]
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, name, fn))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    def _wrap(self, fn, key, group, observe):
        if group not in self.groups:
            self.groups.append(group)
        group_id = self.groups.index(group)
        name_id = len(self.names)
        self.names.append(key)
        self.calls.append(0)
        tracer = self
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name_id] += 1
            stack = tracer.stack
            if stack and stack[-1][1] == group_id:
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                stack.append((idx, group_id))
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
            if observe is not None and key not in tracer.broken:
                try:
                    observe(tracer.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
                    tracer.broken[key] = f"cannot read the work count from {key}: {err!r}"
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def recording(self):
        before = self._cache() if self._cache is not None else None
        self.active = True
        try:
            yield
        finally:
            self.active = False
            if before is not None:
                after = self._cache()
                self.counters["cache_hits"] += after.hits - before.hits
                self.counters["cache_misses"] += after.misses - before.misses

    # ---- reduction -------------------------------------------------------

    def _group_times(self):
        """Busy and self seconds per group, from the recorded spans."""
        n_groups = len(self.groups)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        group_of_name = np.array([self.groups.index(g) for g in self._name_groups()],
                                 dtype=np.int64)
        span_group = group_of_name[names] if names.size else names.astype(np.int64)
        busy = np.bincount(span_group, weights=dur, minlength=n_groups)
        has_parent = parents >= 0
        child_time = np.bincount(span_group[parents[has_parent]], weights=dur[has_parent],
                                 minlength=n_groups)
        spans = np.bincount(span_group, minlength=n_groups)
        return ({g: float(busy[i]) for i, g in enumerate(self.groups)},
                {g: float(busy[i] - child_time[i]) for i, g in enumerate(self.groups)},
                {g: int(spans[i]) for i, g in enumerate(self.groups)})

    def _name_groups(self):
        by_key = {f"{m}.{a}": g for m, a, g, _, _ in self.targets}
        return [by_key[k] for k in self.names]

    def _keys(self, label: str) -> list[str]:
        """Wrap targets whose layer group or role is ``label``."""
        return [f"{m}.{a}" for m, a, g, r, _ in self.targets if label in (g, r)]

    def layer_metrics(self) -> dict:
        """Every layer metric as {name: (value or None, unit, note)}.

        ``note`` is "computed" for work counts derived from array sizes, the
        base of a ratio, or the reason a metric is absent.
        """
        busy, self_s, spans = self._group_times()
        by_key = dict(zip(self.names, self.calls))
        c = self.counters

        def calls(label):
            return sum(by_key.get(k, 0) for k in self._keys(label))

        def ratio(num, den):
            return (num / den if den else 0.0), f"base {den}"

        lookups = c["cache_hits"] + c["cache_misses"]
        # (name, unit, groups or roles it needs, value thunk returning (value, note))
        defs = [
            ("truncated_poisson.calls", "count", [TP],
             lambda: (spans[TP], "entries from other layers")),
            ("truncated_poisson.busy_s", "s", [TP], lambda: (busy[TP], "")),
            ("renewal.tables_built", "count", [TABLE], lambda: (calls(TABLE), "")),
            ("renewal.table_busy_s", "s", [TABLE], lambda: (busy[TABLE], "")),
            ("renewal.table_cells", "count", [TABLE],
             lambda: (c["table_cells"], "computed: sum of Q+1")),
            ("renewal.recursion_mults", "count", [TABLE],
             lambda: (c["recursion_mults"], "computed: sum of min(i, smax), i=1..Q")),
            ("renewal.increments_built", "count", [INCREMENT],
             lambda: (calls(INCREMENT), "")),
            ("renewal.increment_busy_s", "s", [INCREMENT], lambda: (busy[INCREMENT], "")),
            ("metrics.evals", "count", ["average_cost"], lambda: (calls("average_cost"), "")),
            ("metrics.eval_self_s", "s", [EVAL], lambda: (self_s[EVAL], "")),
            ("metrics.cycle_metrics_per_eval", "1", ["average_cost", "cycle_metrics"],
             lambda: ratio(calls("cycle_metrics"), calls("average_cost"))),
            ("metrics.replenish_metrics_per_eval", "1", ["average_cost", "replenish_metrics"],
             lambda: ratio(calls("replenish_metrics"), calls("average_cost"))),
            ("metrics.table_cache_hit_ratio", "1", ["table_cache"],
             lambda: ratio(c["cache_hits"], lookups)),
            ("metrics.table_cache_lookups", "count", ["table_cache"],
             lambda: (lookups, "hits + misses")),
            ("metrics.match_calls", "count", [MATCH], lambda: (calls(MATCH), "")),
            ("metrics.match_busy_s", "s", [MATCH], lambda: (busy[MATCH], "")),
            ("compare.probes", "count", [SEARCH], lambda: (c["probes"], "")),
            ("compare.search_self_s", "s", [SEARCH], lambda: (self_s[SEARCH], "")),
            ("sim.generate_calls", "count", [GENERATE], lambda: (calls(GENERATE), "")),
            ("sim.generate_busy_s", "s", [GENERATE], lambda: (busy[GENERATE], "")),
            ("sim.generated_cycles", "count", [GENERATE],
             lambda: (c["generated_cycles"], "")),
            ("sim.generated_draws", "count", [GENERATE],
             lambda: (c["generated_draws"], "computed: rows x q, or the load sum for TP")),
            ("sim.used_ratio", "1", [GENERATE, SPLIT],
             lambda: ratio(c["consumed_cycles"], c["generated_cycles"])),
            ("sim.regrowths", "count", [GENERATE, SPLIT],
             lambda: (calls(GENERATE) - calls(SPLIT), "")),
            ("sim.split_self_s", "s", [SPLIT], lambda: (self_s[SPLIT], "")),
            ("sim.audit_busy_s", "s", [AUDIT], lambda: (busy[AUDIT], "")),
        ]
        out = {}
        for name, unit, needs, thunk in defs:
            reasons = []
            for label in needs:
                keys = self._keys(label)
                if not keys:
                    reasons.append(f"no wrap target for {label}")
                reasons += [self.missing[k] for k in keys if k in self.missing]
                reasons += [self.broken[k] for k in keys if k in self.broken]
            if "table_cache" in needs and not reasons and self._cache is None:
                reasons.append("the table cache has no cache_info")
            if reasons:
                out[name] = (None, unit, "absent: " + "; ".join(reasons))
            else:
                value, note = thunk()
                out[name] = (value, unit, note)
        out["trace.spans"] = (len(self.span_start), "count", "")
        return out
