"""Command-line interface: outputs, exit codes, determinism, round-trips."""

import copy
import csv
import json
import math
import subprocess
import sys

import pytest

from consolidate import CostParams, HybridPolicy, SystemConfig, average_cost
from consolidate.cli import main

HP_DOC = {
    "demand_rate": 1.0,
    "policy": {"type": "hybrid", "q": 6, "period": 5.9199},
    "order_up_to": 14,
    "costs": {"replenish_fixed": 25, "holding": 0.4, "dispatch_fixed": 15, "wait_linear": 0.8},
    "simulate": {"cycles": 2000, "seed": 7},
}


@pytest.fixture
def hp_config(tmp_path):
    path = tmp_path / "hp.json"
    path.write_text(json.dumps(HP_DOC))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_evaluate_prints_six_significant_digits(hp_config, capsys):
    code, out, _ = run_cli(["evaluate", "--config", hp_config], capsys)
    assert code == 0
    assert "AOSD  7.52375" in out
    assert "AC    9.44428" in out
    assert "AIR   8.08677" in out


def test_evaluate_deterministic_output(hp_config, capsys):
    _, first, _ = run_cli(["evaluate", "--config", hp_config], capsys)
    _, second, _ = run_cli(["evaluate", "--config", hp_config], capsys)
    assert first == second


def test_evaluate_json_roundtrip(hp_config, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(["evaluate", "--config", hp_config, "--out", str(out_path)], capsys)
    assert code == 0
    stored = json.loads(out_path.read_text())
    cfg = SystemConfig(1.0, HybridPolicy(6, 5.9199), 14,
                       CostParams(replenish_fixed=25, holding=0.4,
                                  dispatch_fixed=15, wait_linear=0.8))
    ev = average_cost(cfg)
    # bit-exact float round-trip through the emitted file
    assert stored["avg_cost"] == ev.avg_cost
    assert stored["aosd"] == ev.aosd
    assert stored["components"] == ev.components


def test_evaluate_approx_and_squared_flags(hp_config, capsys):
    code, out, _ = run_cli(["evaluate", "--config", hp_config,
                            "--mode", "approx", "--delay", "squared"], capsys)
    assert code == 0
    assert "mode=approx delay=squared" in out


def test_evaluate_zero_cost_quantity(tmp_path, capsys):
    doc = {"demand_rate": 1.0, "policy": {"type": "quantity", "q": 1}, "n_dispatches": 1}
    path = tmp_path / "qp.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["evaluate", "--config", str(path)], capsys)
    assert code == 0
    assert "AC    0" in out


def test_config_error_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**HP_DOC, "typo_key": 1}))
    code, _, err = run_cli(["evaluate", "--config", str(path)], capsys)
    assert code == 2
    assert "typo_key" in err


def test_config_error_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\n  \"demand_rate\": ,\n}")
    code, _, err = run_cli(["evaluate", "--config", str(path)], capsys)
    assert code == 2
    assert ":2:" in err


def test_config_error_bad_value(tmp_path, capsys):
    doc = dict(HP_DOC, demand_rate=-1.0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["evaluate", "--config", str(path)], capsys)
    assert code == 2
    assert "demand_rate" in err


def test_simulate_seeded_reproducibility(hp_config, capsys):
    args = ["simulate", "--config", hp_config, "--cycles", "2000", "--seed", "7"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    _, second, _ = run_cli(args, capsys)
    assert first == second
    assert "+/-" in first


def test_simulate_agrees_with_evaluate(hp_config, capsys, tmp_path):
    out_path = tmp_path / "sim.json"
    code, _, _ = run_cli(["simulate", "--config", hp_config, "--cycles", "20000",
                          "--seed", "11", "--out", str(out_path)], capsys)
    assert code == 0
    stored = json.loads(out_path.read_text())
    cfg = SystemConfig(1.0, HybridPolicy(6, 5.9199), 14,
                       CostParams(replenish_fixed=25, holding=0.4,
                                  dispatch_fixed=15, wait_linear=0.8))
    ev = average_cost(cfg)
    assert abs(stored["aod"]["mean"] - ev.aod) <= 3.0 * stored["aod"]["se"]


def test_simulate_refuses_too_few_cycles(hp_config, capsys):
    code, _, err = run_cli(["simulate", "--config", hp_config,
                            "--cycles", "99", "--seed", "1"], capsys)
    assert code == 2
    assert "99" in err


def test_simulate_refuses_load_above_generator_cap(tmp_path, capsys):
    doc = dict(HP_DOC, policy={"type": "time", "period": 1e6}, order_up_to=0)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
    assert code == 2
    assert "simulate:" in err and "1e+06" in err and "524288" in err


def test_simulate_trace_row_count(hp_config, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(["simulate", "--config", hp_config, "--cycles", "500",
                          "--seed", "3", "--trace", str(trace)], capsys)
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0].startswith("cycle_index,length,k_cycles,cost")
    assert len(lines) == 501


def test_compare_infeasible_qp_row(tmp_path, capsys):
    doc = {"demand_rate": 1.0,
           "match": {"target_cycle_length": 5.5, "qh_list": [8]}}
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["compare", "--config", str(path)], capsys)
    assert code == 0
    assert "False" in out  # the QP row is flagged, not dropped


def test_compare_csv_output(tmp_path, capsys):
    doc = {"demand_rate": 1.0,
           "costs": {"replenish_fixed": 25, "holding": 0.4,
                     "dispatch_fixed": 15, "wait_linear": 0.8},
           "match": {"target_cycle_length": 5.0, "target_replenish_length": 20.0,
                     "qh_list": [6, 8]}}
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "cmp.csv"
    code, _, _ = run_cli(["compare", "--config", str(path), "--out", str(out_path),
                          "--format", "csv"], capsys)
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "label"
    assert len(rows) == 1 + 4  # QP, TP, two HP rows


def test_compare_at_order_up_to_level_zero_exits_zero(tmp_path, capsys):
    doc = {"demand_rate": 1.0,
           "match": {"target_cycle_length": 1.0, "target_replenish_length": 1.0,
                     "qh_list": [2]}}
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "cmp_out.json"
    code, out, _ = run_cli(["compare", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 0
    assert "verdict air_tp_hp_max_rel_gap: None" in out
    assert '"air_tp_hp_max_rel_gap": null' in out_path.read_text()


def test_verify_small_grid_exit_zero(tmp_path, capsys):
    doc = {"verify": {"demand_rates": [1.0], "q_values": [3, 5],
                      "qh_extra": [1, 3], "replenish_multiples": [2]}}
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["verify", "--config", str(path)], capsys)
    assert code == 0
    assert "exact orderings: ok" in out


def test_optimize_trace_csv_rows_equal_evaluations(tmp_path, capsys):
    doc = {"demand_rate": 1.0,
           "costs": {"replenish_fixed": 25, "holding": 0.4,
                     "dispatch_fixed": 15, "wait_linear": 0.8},
           "optimize": {"policy_kind": "quantity",
                        "bounds": {"q_max": 5, "order_up_to_max": 10}}}
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(["optimize", "--config", str(path), "--out", str(out_path),
                            "--format", "csv"], capsys)
    assert code == 0
    evaluations = int(next(line for line in out.splitlines()
                           if line.startswith("evaluations:")).split(":")[1])
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == evaluations


@pytest.mark.parametrize("field, value, message", [
    ("q_max", 2.5, "optimize.bounds.q_max: expected an integer, got 2.5"),
    ("period_max", "x", "optimize.bounds.period_max: expected a number, got 'x'"),
])
def test_optimize_bounds_type_errors(tmp_path, capsys, field, value, message):
    doc = {"demand_rate": 1.0, "optimize": {"policy_kind": "time", "bounds": {field: value}}}
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["optimize", "--config", str(path)], capsys)
    assert code == 2
    assert err == f"config error: {message}\n"


# Every command's sections, small enough that a valid run is quick.
FULL_DOC = {
    **HP_DOC,
    "match": {"target_cycle_length": 5.0, "qh_list": [6]},
    "optimize": {"policy_kind": "time",
                 "bounds": {"q_max": 2, "order_up_to_max": 2, "period_max": 2.0}},
    "verify": {"demand_rates": [1.0], "q_values": [3], "qh_extra": [1],
               "replenish_multiples": [2]},
}
TIME_POLICY = {"type": "time", "period": 5.0}

INVALID_CONFIGS = [
    ("evaluate", {"demand_rate": "x"}, "demand_rate: expected a number, got 'x'"),
    ("evaluate", {"demand_rate": math.inf}, "config: demand_rate must be finite, got inf"),
    ("evaluate", {"order_up_to": -1},
     "config: order_up_to must be a nonnegative integer, got -1"),
    ("evaluate", {"policy.q": 2.5}, "policy.q: expected an integer, got 2.5"),
    ("evaluate", {"policy.q": 0}, "policy: q must be a positive integer, got 0"),
    ("evaluate", {"policy.period": math.inf}, "policy: period must be finite, got inf"),
    ("evaluate", {"policy": {**TIME_POLICY, "period": math.inf}},
     "policy: period must be finite, got inf"),
    ("evaluate", {"policy": {**TIME_POLICY, "q": 6}}, "policy.q: unknown key"),
    ("evaluate", {"costs.holding": "x"}, "costs.holding: expected a number, got 'x'"),
    ("evaluate", {"costs.holding": -1},
     "costs: cost coefficient holding must be nonnegative, got -1.0"),
    ("evaluate", {"costs.holding": math.nan},
     "costs: cost coefficient holding must be finite, got nan"),
    ("optimize", {"costs.wait_linear": math.inf},
     "costs: cost coefficient wait_linear must be finite, got inf"),
    ("simulate", {"simulate.seed": "x"}, "simulate.seed: expected an integer, got 'x'"),
    ("simulate", {"simulate.cycles": 99},
     "simulate: n_cycles must be an integer >= 100, got 99"),
    ("compare", {"match.target_cycle_length": "x"},
     "match.target_cycle_length: expected a number, got 'x'"),
    ("compare", {"match.target_replenish_length": 1.0},
     "match: target_replenish_length must be >= target_cycle_length"),
    ("compare", {"demand_rate": math.inf}, "match: demand_rate must be finite, got inf"),
    ("compare", {"match.target_cycle_length": math.inf},
     "match: target_cycle_length must be finite, got inf"),
    ("compare", {"match.target_replenish_length": math.inf},
     "match: target_replenish_length must be finite, got inf"),
    ("simulate", {"demand_rate": 1e200, "policy.period": 1e200},
     "simulate: Poisson load mean rate*period inf is not finite"),
    ("simulate", {"costs.dispatch_fixed": 1e308},
     "simulate: simulated totals of batch 0 are not finite"),
    ("optimize", {"optimize.bounds.q_max": True},
     "optimize.bounds.q_max: expected an integer, got True"),
    ("optimize", {"optimize.bounds.q_max": 0},
     "optimize.bounds: bounds must satisfy q_max >= 1, order_up_to_max >= 0, period_max > 0"),
    ("optimize", {"optimize.bounds.order_up_to_max": 10001},
     "optimize.bounds: order_up_to_max 10001 exceeds capacity limit 10000"),
    ("optimize", {"optimize.bounds.period_max": math.inf},
     "optimize.bounds: period_max must be a finite real number, got inf"),
    ("optimize", {"costs.dispatch_fixed": 1e308, "optimize.bounds": {"period_max": 0.2}},
     "optimize: average cost is not finite"),
    ("verify", {"verify.q_values": "x"}, "verify.q_values: expected a nonempty list"),
    ("verify", {"verify.q_values": ["a"]}, "verify: q_values must be integers >= 1, got 'a'"),
    ("verify", {"verify.q_values": [2.5]}, "verify: q_values must be integers >= 1, got 2.5"),
    ("verify", {"verify.qh_extra": [0]}, "verify: qh_extra must be integers >= 1, got 0"),
    ("verify", {"verify.replenish_multiples": [0]},
     "verify: replenish_multiples must be integers >= 1, got 0"),
    ("verify", {"verify.demand_rates": [-1]},
     "verify: demand_rates must be finite numbers > 0, got -1"),
    ("verify", {"verify.demand_rates": [True]},
     "verify: demand_rates must be finite numbers > 0, got True"),
]


@pytest.mark.parametrize(
    "command, edits, message", INVALID_CONFIGS,
    ids=[f"{c}-{','.join(f'{k}={v!r}' for k, v in e.items())}" for c, e, _ in INVALID_CONFIGS],
)
def test_invalid_config_exits_2_with_one_line(tmp_path, capsys, command, edits, message):
    doc = copy.deepcopy(FULL_DOC)
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


COLD_MAIN = """
import json, sys
from consolidate import truncated_poisson
from consolidate.cli import main

code = main(sys.argv[1:])
special = sys.modules.get("scipy.special")
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
                  special is not None and truncated_poisson.gammainc is special.gammainc]),
      file=sys.stderr)
"""


@pytest.mark.parametrize("policy, args, loads_special", [
    ({"type": "quantity", "q": 7}, ["evaluate"], False),
    (HP_DOC["policy"], ["simulate", "--cycles", "500", "--seed", "3"], False),
    ({"type": "time", "period": 4.5}, ["evaluate"], True),
])
def test_cold_start_loads_scipy_only_for_poisson_tails(policy, args, loads_special, tmp_path,
                                                       capsys, fresh_python):
    # the quantity policy and the simulator need no Poisson tail; a time or
    # hybrid evaluation binds scipy.special on its first one
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HP_DOC, policy=policy)))
    command = [args[0], "--config", str(path), *args[1:]]
    proc = fresh_python(COLD_MAIN, *command)
    code, loaded, bound = json.loads(proc.stderr.strip().splitlines()[-1])
    assert code == 0
    assert (bool(loaded), bound) == (loads_special, loads_special)
    assert proc.stdout == run_cli(command, capsys)[1]


def test_console_entry_point(hp_config):
    proc = subprocess.run(
        [sys.executable, "-m", "consolidate.cli", "evaluate", "--config", hp_config],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "AOSD" in proc.stdout
