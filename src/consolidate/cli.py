"""Command-line front end: evaluate, simulate, optimize, compare, verify.

A single JSON config document describes the system; each command reads the
sections it needs and rejects unknown keys with a dotted-path diagnostic.
The policy, ``costs``, ``match``, ``optimize.bounds`` and ``verify`` sections
each build a library dataclass: its fields are the keys, its annotations the
value types, and its ``__post_init__`` checks the ranges.
Exit codes: 0 success, 2 config error, 3 ordering verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from contextlib import contextmanager

from . import compare as compare_mod
from . import metrics, sim


class ConfigError(Exception):
    """Invalid configuration; message carries the offending field path."""


@contextmanager
def _at(where: str):
    """Report a library's ValueError or OverflowError as a config error at ``where``."""
    try:
        yield
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    if key not in mapping:
        raise ConfigError(f"{where}.{key}: required key is missing")
    return mapping[key]


def _check_keys(mapping, allowed: set, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown key")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _nonempty_list(value, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a nonempty list")
    return tuple(value)


# Value parser by field annotation (a string: the library postpones annotations).
_PARSERS = {"int": _integer, "float": _number, "float | None": _number,
            "tuple": _nonempty_list}


def _section(spec, cls, where: str, **fixed):
    """``cls`` from the config object ``spec``, whose keys are the fields of ``cls``
    not in ``fixed``, each parsed by its annotation; ``cls`` checks the ranges."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    _check_keys(spec, {f.name for f in fields}, where)
    for f in fields:
        if f.name in spec:
            fixed[f.name] = _PARSERS[f.type](spec[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}.{f.name}: required key is missing")
    with _at(where):
        return cls(**fixed)


TOP_KEYS = {"demand_rate", "policy", "order_up_to", "n_dispatches", "costs",
            "simulate", "match", "optimize", "verify"}
POLICY_TYPES = {"quantity": metrics.QuantityPolicy, "time": metrics.TimePolicy,
                "hybrid": metrics.HybridPolicy}
SIM_KEYS = {"cycles", "seed", "batch_size", "delay"}
OPT_KEYS = {"policy_kind", "bounds"}


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: invalid JSON ({err.msg})") from err
    _check_keys(doc, TOP_KEYS, "config")
    return doc


def _parse_policy(doc: dict) -> metrics.Policy:
    spec = _require(doc, "policy", "config")
    kind = _require(spec, "type", "policy")
    if not isinstance(kind, str) or kind not in POLICY_TYPES:
        raise ConfigError(f"policy.type: must be quantity|time|hybrid, got {kind!r}")
    return _section({k: v for k, v in spec.items() if k != "type"}, POLICY_TYPES[kind], "policy")


def _parse_costs(doc: dict) -> metrics.CostParams:
    return _section(doc.get("costs", {}), metrics.CostParams, "costs")


def _parse_system(doc: dict) -> metrics.SystemConfig:
    rate = _number(_require(doc, "demand_rate", "config"), "demand_rate")
    policy = _parse_policy(doc)
    costs = _parse_costs(doc)
    with _at("config"):
        if "n_dispatches" in doc:
            if "order_up_to" in doc:
                raise ConfigError("config.order_up_to: give either order_up_to or n_dispatches")
            if not isinstance(policy, metrics.QuantityPolicy):
                raise ConfigError("config.n_dispatches: only valid with a quantity policy")
            return metrics.SystemConfig.quantity(
                rate, policy.q, _integer(doc["n_dispatches"], "n_dispatches"), costs)
        order_up_to = _integer(_require(doc, "order_up_to", "config"), "order_up_to")
        return metrics.SystemConfig(rate, policy, order_up_to, costs)


def _parse_sim(doc: dict, system: metrics.SystemConfig, args) -> sim.SimConfig:
    spec = doc.get("simulate", {})
    _check_keys(spec, SIM_KEYS, "simulate")
    cycles = args.cycles if args.cycles is not None else spec.get("cycles")
    seed = args.seed if args.seed is not None else spec.get("seed")
    if cycles is None:
        raise ConfigError("simulate.cycles: required (or pass --cycles)")
    if seed is None:
        raise ConfigError("simulate.seed: required (or pass --seed)")
    with _at("simulate"):
        return sim.SimConfig(
            system=system,
            n_cycles=_integer(cycles, "simulate.cycles"),
            seed=_integer(seed, "simulate.seed"),
            batch_size=(None if "batch_size" not in spec
                        else _integer(spec["batch_size"], "simulate.batch_size")),
            delay=spec.get("delay", "linear"),
        )


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _write_output(payload: dict, csv_rows, args) -> None:
    if args.out is None:
        return
    if args.format == "json":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        header, rows = csv_rows
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def cmd_evaluate(args) -> int:
    doc = load_config(args.config)
    system = _parse_system(doc)
    with _at("config"):
        result = metrics.average_cost(system, mode=args.mode, delay=args.delay)
    print(f"policy: {system.policy.label()}  order_up_to={system.order_up_to}  "
          f"demand_rate={_fmt(system.demand_rate)}")
    print(f"mode={args.mode} delay={args.delay}")
    print(f"AC    {_fmt(result.avg_cost)}")
    for name in ("replenish", "holding", "dispatch", "waiting"):
        print(f"  {name:<10} {_fmt(result.components[name])}")
    print(f"AOD   {_fmt(result.aod)}")
    print(f"AOSD  {_fmt(result.aosd)}")
    print(f"AIR   {_fmt(result.air)}")
    payload = {"config": args.config, "mode": args.mode, "delay": args.delay,
               **result.to_dict()}
    header = ["avg_cost", "replenish", "holding", "dispatch", "waiting", "aod", "aosd", "air"]
    row = [result.avg_cost, *(result.components[k] for k in
                              ("replenish", "holding", "dispatch", "waiting")),
           result.aod, result.aosd, result.air]
    _write_output(payload, (header, [[repr(v) for v in row]]), args)
    return 0


def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    system = _parse_system(doc)
    cfg = _parse_sim(doc, system, args)
    with _at("simulate"):
        report = sim.simulate(cfg, trace=args.trace)
    print(f"policy: {system.policy.label()}  order_up_to={system.order_up_to}  "
          f"cycles={cfg.n_cycles}  seed={cfg.seed}  batches={cfg.n_batches}")
    for name in ("avg_cost", "aod", "aosd", "air", "cycle_length",
                 "replenish_length", "cycles_per_replenish", "orders_per_cycle"):
        est = getattr(report, name)
        print(f"{name:<22} {_fmt(est.mean)} +/- {_fmt(est.se)} ({est.n})")
    payload = {"config": args.config, "seed": cfg.seed, "n_cycles": cfg.n_cycles,
               **report.to_dict()}
    rows = [[name, repr(est.mean), repr(est.se), est.n]
            for name, est in ((n, getattr(report, n)) for n in report.to_dict())]
    _write_output(payload, (["metric", "mean", "se", "n"], rows), args)
    return 0


def cmd_compare(args) -> int:
    doc = load_config(args.config)
    rate = _number(_require(doc, "demand_rate", "config"), "demand_rate")
    match = _require(doc, "match", "config")
    qh_list = _require(match, "qh_list", "match")
    if (not isinstance(qh_list, list) or not qh_list
            or any(isinstance(q, bool) or not isinstance(q, int) for q in qh_list)):
        raise ConfigError("match.qh_list: expected a nonempty list of integers")
    costs = _parse_costs(doc) if "costs" in doc else None
    spec = _section({k: v for k, v in match.items() if k != "qh_list"},
                    compare_mod.MatchSpec, "match", demand_rate=rate)
    with _at("match"):
        result = compare_mod.compare_matched(spec, qh_list, costs)
    cols = ["label", "feasible", "order_up_to", "cycle_length", "aod", "aosd",
            "air_exact", "air_approx", "ac", "notes"]
    payload = result.to_dict()
    print("  ".join(f"{c:<12}" for c in cols))
    for d in payload["rows"]:
        cells = [d["label"], str(d["feasible"]), str(d["order_up_to"])]
        cells += ["" if d[c] is None else _fmt(d[c]) for c in cols[3:-1]]
        cells.append("; ".join(d["notes"]))
        print("  ".join(f"{c:<12}" for c in cells))
    for key, value in result.verdicts.items():
        print(f"verdict {key}: {value}")
    csv_out = [[d["label"], d["feasible"], d["order_up_to"],
                *("" if d[c] is None else repr(d[c]) for c in cols[3:-1]),
                "; ".join(d["notes"])] for d in payload["rows"]]
    _write_output(payload, (cols, csv_out), args)
    return 0


def cmd_verify(args) -> int:
    doc = load_config(args.config) if args.config is not None else {}
    costs = _parse_costs(doc) if "costs" in doc else compare_mod.REFERENCE_COSTS
    grid = _section(doc.get("verify", {}), compare_mod.VerifyGrid, "verify", costs=costs)
    report = compare_mod.verify_theorems(grid)
    print(f"matched points checked: {report.points} "
          f"(plus {report.air_points} with replenishment-length matching)")
    print(f"delay ordering QP<HP<TP violations: {len(report.aod_violations)}")
    print(f"squared-delay vs TP violations: {len(report.aosd_vs_tp_violations)}")
    print(f"squared-delay QP-vs-HP signs: QP worse at {report.sq_delay_qp_worse}, "
          f"HP worse at {report.sq_delay_hp_worse}")
    print(f"inventory-rate TP~HP max relative gap: {_fmt(report.air_max_rel_gap)} "
          f"(tolerance {report.air_rel_tol})")
    print(f"inventory-rate HP>=QP violations: {len(report.air_order_violations)}")
    print(f"average-cost QP<=HP<=TP violations: {len(report.cost_order_violations)}")
    print(f"exact orderings: {'ok' if report.exact_ok else 'FAILED'}")
    print(f"approximate orderings: {'ok' if report.approx_ok else 'deviations (see report)'}")
    payload = report.to_dict()
    rows = [[key, json.dumps(value)] for key, value in payload.items()]
    _write_output(payload, (["check", "value"], rows), args)
    if not report.exact_ok:
        return 3
    return 0


def cmd_optimize(args) -> int:
    doc = load_config(args.config)
    rate = _number(_require(doc, "demand_rate", "config"), "demand_rate")
    costs = _parse_costs(doc)
    spec = _require(doc, "optimize", "config")
    _check_keys(spec, OPT_KEYS, "optimize")
    kind = _require(spec, "policy_kind", "optimize")
    bounds = _section(spec.get("bounds", {}), compare_mod.SearchBounds, "optimize.bounds")
    with _at("optimize"):
        result = compare_mod.optimize(rate, costs, kind, bounds)
    print(f"best: {result.best.policy.label()}  order_up_to={result.best.order_up_to}")
    print(f"best average cost: {_fmt(result.best_cost)}")
    print(f"evaluations: {result.evaluations}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    # streamed: the trace's rows are built only as the CSV writer takes them
    rows = ([("" if t["q"] is None else t["q"]), t["order_up_to"],
             ("" if t["period"] is None else repr(t["period"])), repr(t["ac"])]
            for t in result.trace)
    _write_output(result.to_dict(), (["q", "order_up_to", "period", "ac"], rows), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consolidate",
        description="Evaluate, simulate, optimize, and compare shipment-consolidation policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON configuration document")
        p.add_argument("--out", help="write machine-readable output to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("evaluate", help="closed-form metrics for one system")
    common(p)
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--delay", choices=("linear", "squared"), default="linear")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo estimates for one system")
    common(p)
    p.add_argument("--cycles", type=int, help="replenishment cycles to simulate")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--trace", help="write a per-cycle CSV trace to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="matched-frequency policy comparison")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="check the provable policy orderings over a grid")
    common(p, config_required=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="minimize average cost within bounds")
    common(p)
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
