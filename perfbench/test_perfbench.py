"""Fast test of the benchmark itself.

    python -m pytest perfbench/test_perfbench.py -q

Runs each workload at a tiny size, requires every output check to pass,
then corrupts one output at a time and requires the check that reads it
to fail (a negative control for each check).  Also covers the tracer's
install/uninstall, the harness's round loop, the verdict on a run whose
operations failed, and the refusal to run without the package's sources.
"""

import copy
import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import picontrol  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from picontrol import PIHyperParams  # noqa: E402

TINY_PI = PIHyperParams(lambda_=0.01, nu=1500.0, sigma=0.005, num_samples=4,
                        horizon=5, recurrences=3)
TINY_LINEAR = PIHyperParams(lambda_=0.01, nu=1500.0, sigma=0.2,
                            num_samples=4, horizon=6, recurrences=3)
TINY_CLI = {
    "dataset": {"n_traj_train": 1, "n_traj_test": 1, "duration": 0.5,
                "expert_horizon": 10},
    "evaluation": {"runs": 1, "duration": 0.3},
    "hyper": {"num_samples": 4, "recurrences": 2, "warm_recurrences": 2},
    "training": {"epochs": 1, "batch_size": 4,
                 "pretrain": {"epochs": 2, "batch_size": 64, "lr": 1e-3}},
}


def tiny(name, tmp_path):
    if name == "swingup_pi":
        return workloads.SwingupPI(TINY_PI, warm=2, duration=0.4)
    if name == "linear_train":
        return workloads.LinearTrain(TINY_LINEAR, n_train=2, n_test=1)
    return workloads.CliPendulum(TINY_CLI)


def run_tiny(workload, tmp_path, seed=3):
    inputs = workload.setup(seed, str(tmp_path / "work"))
    rnd = workload.run_round(inputs)
    assert rnd.failed == 0, rnd.errors
    outputs = dict(rnd.outputs)
    outputs.update(workload.probe(inputs))
    return inputs, rnd, outputs


def _edit_csv(blob, row, col, value):
    rows = list(csv.reader(io.StringIO(blob.decode())))
    rows[row][col] = value
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def _edit_json(blob, edit):
    tree = json.loads(blob)
    edit(tree)
    return json.dumps(tree).encode()


def _bump(value, by=1e-6):
    out = np.array(value, dtype=float, copy=True)
    out.flat[0] += by
    return out


# check name -> function producing a corrupted copy of the outputs
CORRUPTIONS = {
    "swingup_pi": {
        "plant_transitions": lambda o: {
            **o, "states": _bump_row(o["states"], 2)},
        "realized_cost": lambda o: {**o, "cost": o["cost"] + 1e-6},
        "applied_first_controls": lambda o: {
            **o, "plans": _bump(o["plans"], 1e-12)},
        "update_law": lambda o: {
            **o, "probe.update_law": _bump(o["probe.update_law"], 1e-8)},
    },
    "linear_train": {
        "demos_match_lq": lambda o: {
            **o, "demo.useq": _bump(o["demo.useq"], 1e-6)},
        "gradient_matches_fd": lambda o: {
            **o, "probe.grad_dir": o["probe.grad_dir"] * (1 + 1e-3)},
        "eval_matches_train_snapshot": lambda o: {
            **o, "eval.ctrl": np.nextafter(o["eval.ctrl"], np.inf)},
        "losses_finite": lambda o: {
            **o, "train.loss": np.append(o["train.loss"], np.nan)},
        "rmsprop_step": lambda o: {
            **o, "train.params": _bump(o["train.params"], 1e-9)},
    },
    "cli_pendulum": {
        "dataset_transitions": lambda o: {
            **o, "gen-data/train_data.csv": _edit_csv(
                o["gen-data/train_data.csv"], 1, 6, "0.123")},
        "expert_local_minimum": lambda o: {
            **o, "probe.expert_plan": _bump(o["probe.expert_plan"], 0.1)},
        "frozen_dynamics": lambda o: {
            **o, "eval/eval_report.json": _edit_json(
                o["eval/eval_report.json"],
                lambda t: t["mse"].update(train_dyn=t["mse"]["train_dyn"]
                                          * (1 + 1e-12)))},
        "parameter_count": lambda o: {
            **o, "train/train_report.json": _edit_json(
                o["train/train_report.json"],
                lambda t: t.update(parameter_count=t["parameter_count"] + 1))},
    },
}


def _bump_row(states, row):
    out = np.array(states, copy=True)
    out[row, 1] += 1e-6
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_and_reject_corrupted_outputs(name, tmp_path):
    workload = tiny(name, tmp_path)
    inputs, rnd, outputs = run_tiny(workload, tmp_path)
    verdict = workload.check(inputs, outputs)
    assert verdict and all(verdict.values()), verdict
    assert set(CORRUPTIONS[name]) == set(verdict)
    for check, corrupt in CORRUPTIONS[name].items():
        bad = corrupt(copy.copy(outputs))
        assert workloads.digest(bad) != workloads.digest(outputs)
        assert workload.check(inputs, bad)[check] is False, check


def test_rounds_repeat_bit_for_bit(tmp_path):
    workload = tiny("linear_train", tmp_path)
    inputs = workload.setup(4, str(tmp_path))
    first, second = workload.run_round(inputs), workload.run_round(inputs)
    assert workloads.digest(first.outputs) == workloads.digest(second.outputs)
    assert first.attempted == second.attempted == 2


def test_failed_operations_are_counted_and_fail_the_run(tmp_path):
    broken = copy.deepcopy(TINY_CLI)
    broken["training"]["batch_size"] = 0     # rejected by config validation
    workload = workloads.CliPendulum(broken)
    inputs = workload.setup(0, str(tmp_path))
    rounds = [(workload.run_round(inputs), 0.0, False) for _ in range(2)]
    assert rounds[0][0].attempted == rounds[0][0].failed == 3
    checks = run.check_outputs(workload, inputs, rounds)
    assert checks["rounds_reproduce_first"]
    assert checks["outputs_checked"] is False


def test_tracer_restores_package_and_accounts_for_round(tmp_path):
    workload = tiny("swingup_pi", tmp_path)
    inputs = workload.setup(1, str(tmp_path))
    forward = picontrol.training.pi_net_forward
    step = picontrol.envs.PendulumPlant.step
    tracer = tracing.Tracer(picontrol)
    rounds = run.run_rounds(workload, inputs, 0.0, tracer)
    assert [traced for *_, traced in rounds] == [False, True]
    assert picontrol.training.pi_net_forward is forward
    assert picontrol.envs.PendulumPlant.step is step
    metrics = run.layer_metrics(tracer, rounds)
    steps = round(workload.duration / 0.1)
    assert metrics["envs.plant_step.calls"]["value"] == steps
    assert metrics["controller.rollout_steps"]["value"] == (
        (TINY_PI.recurrences + (steps - 1) * 2)
        * TINY_PI.num_samples * TINY_PI.horizon)
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    path = tmp_path / "spans.npz"
    tracer.write(str(path))
    spans = np.load(path)
    assert len(spans["start"]) == tracer.span_count
    assert np.all(spans["end"] >= spans["start"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swingup_pi",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
