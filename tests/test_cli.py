import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from picontrol.cli import (ENVIRONMENTS, LEAST, NULLABLE, POSITIVE,
                           default_config, hyper_from_cfg, load_config, main,
                           models_from_json, write_checkpoint)
from picontrol.core import RngStream
from picontrol.envs import sample_linear_teacher
from picontrol.training import (OptimizerState, check_memory_budget,
                                sample_loss_and_grad, tape_bytes)


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_cfg(path, tree):
    with open(path, "w") as fh:
        json.dump(tree, fh)
    return str(path)


def merged(base, override):
    out = json.loads(json.dumps(base))
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = value
    return out


def config_leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from config_leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


def dir_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


# tiny-but-complete settings reused across the pipeline tests; horizon and
# demo length must agree, everything else is shrunk for speed
LINEAR_TINY = {
    "environment": "linear",
    "hyper": {"num_samples": 4, "horizon": 12, "recurrences": 2},
    "dataset": {"n_train": 4, "n_test": 2, "demo_horizon": 12},
    "training": {"epochs": 2, "batch_size": 2},
}

PENDULUM_TINY = {
    "dataset": {"n_traj_train": 1, "n_traj_test": 1, "duration": 1.0,
                "expert_horizon": 30},
    "evaluation": {"runs": 1, "duration": 1.0},
    "hyper": {"num_samples": 4, "recurrences": 2, "warm_recurrences": 2},
    "training": {"epochs": 1, "batch_size": 4,
                 "pretrain": {"epochs": 3, "batch_size": 4, "lr": 1e-3}},
    "gradcheck": {"instances": 2},
}


@pytest.fixture(scope="module")
def linear_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("lin_ds")
    cfg = write_cfg(root / "cfg.json", LINEAR_TINY)
    out = root / "data"
    assert run_cli("gen-data", "--config", cfg, "--out", out, "--seed", "7") == 0
    return out


@pytest.fixture(scope="module")
def pendulum_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("pen_ds")
    cfg = write_cfg(root / "cfg.json", PENDULUM_TINY)
    out = root / "data"
    assert run_cli("gen-data", "--config", cfg, "--out", out, "--seed", "7") == 0
    return out


@pytest.fixture(scope="module")
def linear_run(linear_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("lin_tr")
    tree = dict(LINEAR_TINY, paths={"dataset": str(linear_dataset)})
    cfg = write_cfg(root / "cfg.json", tree)
    out = root / "run"
    assert run_cli("train", "--config", cfg, "--out", out, "--seed", "7") == 0
    return out, tree


@pytest.fixture(scope="module")
def pendulum_run(pendulum_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("pen_tr")
    tree = dict(json.loads(json.dumps(PENDULUM_TINY)),
                paths={"dataset": str(pendulum_dataset)})
    cfg = write_cfg(root / "cfg.json", tree)
    out = root / "run"
    assert run_cli("train", "--config", cfg, "--out", out, "--seed", "7") == 0
    return out, tree


# ---------------------------------------------------------------- gen-data


def test_gen_data_writes_manifest_and_splits(linear_dataset):
    manifest = json.load(open(linear_dataset / "manifest.json"))
    assert manifest["environment"] == "linear"
    assert manifest["sizes"] == {"n_train": 4, "n_test": 2}
    assert manifest["seed"] == 7
    with open(linear_dataset / "train_data.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4
    assert rows[0][:2] == ["x0_0", "x0_1"]


def test_pendulum_dataset_numbers_trajectories_and_round_trips(tmp_path):
    from picontrol.cli import read_pendulum_dataset, write_pendulum_dataset
    from picontrol.training import MPCSample
    a, b, c = np.array([0.1, -0.0]), np.array([0.1 + 0.2, 5e-324]), \
        np.array([-2.5, 1e300])
    # a -> b -> c, then a new trajectory from a
    samples = [MPCSample(a, np.array([0.5]), b),
               MPCSample(b, np.array([-0.25]), c),
               MPCSample(a, np.array([1.0]), c)]
    path = tmp_path / "data.csv"
    write_pendulum_dataset(path, samples)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert [row[:2] for row in rows[1:]] == [["0", "0"], ["0", "1"],
                                             ["1", "0"]]
    for got, want in zip(read_pendulum_dataset(path), samples):
        for field in ("x", "u", "x_next"):
            assert getattr(got, field).tobytes() == \
                getattr(want, field).tobytes()


def test_gen_data_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", PENDULUM_TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen-data", "--config", cfg, "--out", a, "--seed", "3") == 0
    assert run_cli("gen-data", "--config", cfg, "--out", b, "--seed", "3") == 0
    assert dir_bytes(a) == dir_bytes(b)


def test_gen_data_seed_changes_data(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", LINEAR_TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen-data", "--config", cfg, "--out", a, "--seed", "3") == 0
    assert run_cli("gen-data", "--config", cfg, "--out", b, "--seed", "4") == 0
    assert dir_bytes(a)["train_data.csv"] != dir_bytes(b)["train_data.csv"]


def test_refuses_overwrite_without_force(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", LINEAR_TINY)
    out = tmp_path / "d"
    assert run_cli("gen-data", "--config", cfg, "--out", out, "--seed", "3") == 0
    assert run_cli("gen-data", "--config", cfg, "--out", out, "--seed", "3") == 1
    assert run_cli("gen-data", "--config", cfg, "--out", out, "--seed", "3",
                   "--force") == 0


def test_pendulum_gen_data_without_evaluation_exits_1(tmp_path, capsys):
    # the pendulum scores its expert under the evaluation protocol, so a
    # null protocol is an input error; the linear default of null works
    cfg = write_cfg(tmp_path / "cfg.json", dict(PENDULUM_TINY, evaluation=None))
    assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "p",
                   "--seed", "3") == 1
    assert "evaluation" in capsys.readouterr().err
    cfg = write_cfg(tmp_path / "lin.json", dict(LINEAR_TINY, evaluation=None))
    assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "l",
                   "--seed", "3") == 0


# ------------------------------------------------------------------- train


def test_train_writes_history_and_checkpoints(linear_run):
    out, _ = linear_run
    with open(out / "history.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "epoch"
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    report = json.load(open(out / "train_report.json"))
    assert report["epochs_run"] == 2
    assert report["final"]["test_ctrl"] <= report["initial"]["test_ctrl"]
    ck = json.load(open(out / "checkpoint_last.json"))
    assert ck["version"] == 1
    assert ck["epoch"] == 2
    assert set(ck["models"]) == {"dynamics", "cost", "control_weight"}


def test_train_resume_matches_straight_run(linear_dataset, tmp_path):
    tree = dict(LINEAR_TINY, paths={"dataset": str(linear_dataset)})
    one = json.loads(json.dumps(tree))
    one["training"]["epochs"] = 1
    resumed = json.loads(json.dumps(tree))
    resumed["training"]["resume"] = True
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", write_cfg(tmp_path / "c1.json", one),
                   "--out", a, "--seed", "7") == 0
    assert run_cli("train", "--config", write_cfg(tmp_path / "c2.json", resumed),
                   "--out", a, "--seed", "7", "--force") == 0
    assert run_cli("train", "--config", write_cfg(tmp_path / "c3.json", tree),
                   "--out", b, "--seed", "7") == 0
    assert dir_bytes(a)["checkpoint_last.json"] == dir_bytes(b)["checkpoint_last.json"]


def test_pendulum_resume_skips_pretraining_and_matches_straight_run(
        pendulum_dataset, tmp_path):
    tree = dict(json.loads(json.dumps(PENDULUM_TINY)),
                paths={"dataset": str(pendulum_dataset)})
    tree["training"]["epochs"] = 2
    one = json.loads(json.dumps(tree))
    one["training"]["epochs"] = 1
    resumed = json.loads(json.dumps(tree))
    resumed["training"]["resume"] = True
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", write_cfg(tmp_path / "c1.json", one),
                   "--out", a, "--seed", "7") == 0
    pretrained = dir_bytes(a)["pretrain_history.csv"]
    assert run_cli("train", "--config",
                   write_cfg(tmp_path / "c2.json", resumed),
                   "--out", a, "--seed", "7", "--force") == 0
    assert run_cli("train", "--config", write_cfg(tmp_path / "c3.json", tree),
                   "--out", b, "--seed", "7") == 0
    # the resumed checkpoint already holds the pretrained dynamics
    assert dir_bytes(a)["pretrain_history.csv"] == pretrained
    report = json.loads((a / "train_report.json").read_text())
    assert report["pretrain_final"] is None
    assert (report["epochs_run"], report["final_epoch"]) == (1, 2)
    assert (dir_bytes(a)["checkpoint_last.json"]
            == dir_bytes(b)["checkpoint_last.json"])


def test_resume_from_a_malformed_checkpoint_exits_1_before_training(
        linear_run, tmp_path, capsys, monkeypatch):
    # unchecked, an epoch of 1.7 resumes silently at epoch 1
    run_dir, tree = linear_run
    ck = tmp_path / "checkpoint_last.json"
    ck.write_text(edited((run_dir / "checkpoint_last.json").read_text(),
                         "epoch", 1.7))

    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr("picontrol.cli.train_pinet", no_training)
    cfg = write_cfg(tmp_path / "cfg.json", merged(tree, {
        "paths": {"checkpoint": str(ck)}, "training": {"resume": True}}))
    out = tmp_path / "o"
    assert run_cli("train", "--config", cfg, "--out", out, "--seed", "7") == 1
    err = capsys.readouterr().err
    assert f"{ck}: epoch must be an integer >= 0, got 1.7" in err
    assert os.listdir(out) == []


def test_train_memory_budget_refusal_exits_3(linear_dataset, tmp_path):
    tree = json.loads(json.dumps(LINEAR_TINY))
    tree["paths"] = {"dataset": str(linear_dataset)}
    tree["hyper"]["num_samples"] = 5000
    tree["hyper"]["recurrences"] = 5000
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "o",
                   "--seed", "7") == 3


def test_paper_scale_linear_tape_fits_the_default_budget():
    cfg = default_config("linear", "paper")
    hp = hyper_from_cfg(cfg["hyper"])
    state_dim, control_dim = sample_linear_teacher(RngStream(0)).G.shape
    # one 100 x 200 x 200 tape is ~0.21 GiB; the batch of 8 is never held
    assert tape_bytes(hp, state_dim, control_dim) == 225_280_000
    check_memory_budget(hp, state_dim, control_dim,
                        budget=cfg["memory_budget"])


def test_train_demo_length_must_match_horizon(linear_dataset, tmp_path):
    tree = json.loads(json.dumps(LINEAR_TINY))
    tree["paths"] = {"dataset": str(linear_dataset)}
    tree["hyper"]["horizon"] = 9
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "o",
                   "--seed", "7") == 1


def test_pendulum_train_runs_pretrain_and_closed_loop(pendulum_dataset, tmp_path):
    tree = json.loads(json.dumps(PENDULUM_TINY))
    tree["paths"] = {"dataset": str(pendulum_dataset)}
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out", out, "--seed", "7") == 0
    assert (out / "pretrain_history.csv").exists()
    report = json.load(open(out / "train_report.json"))
    assert report["pretrain_final"]["test_dyn"] is not None
    assert set(report["closed_loop"]) >= {"success_rate", "mean_cost"}
    assert report["parameter_segments"]["dynamics"] == 61


# -------------------------------------------------------------------- eval


def test_eval_round_trips_manifest_metrics(pendulum_dataset, tmp_path):
    # the closed-loop protocol is pinned by the dataset manifest, so an
    # expert evaluation must reproduce the manifest numbers bit for bit
    tree = {"paths": {"dataset": str(pendulum_dataset), "checkpoint": "expert"}}
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    out = tmp_path / "ev"
    assert run_cli("eval", "--config", cfg, "--out", out, "--seed", "7") == 0
    report = json.load(open(out / "eval_report.json"))
    manifest = json.load(open(pendulum_dataset / "manifest.json"))
    for key in ("success_rate", "mean_cost"):
        assert report["closed_loop"][key] == manifest["expert_metrics"][key]


def test_linear_expert_eval_round_trips_manifest_demo_cost(linear_dataset,
                                                           tmp_path):
    # the expert's demonstrations, scored on the manifest's teacher
    tree = dict(LINEAR_TINY, paths={"dataset": str(linear_dataset),
                                    "checkpoint": "expert"})
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    out = tmp_path / "ev"
    assert run_cli("eval", "--config", cfg, "--out", out, "--seed", "7") == 0
    report = json.loads((out / "eval_report.json").read_text())
    manifest = json.loads((linear_dataset / "manifest.json").read_text())
    assert report["checkpoint"] == "expert"
    assert report["demo_cost"] == manifest["expert_metrics"]
    assert report["mse"] is None and report["closed_loop"] is None


def test_eval_reports_mse_for_checkpoint(linear_run, linear_dataset, tmp_path,
                                        capsys):
    out, tree = linear_run
    ev_tree = json.loads(json.dumps(tree))
    ev_tree["paths"]["checkpoint"] = str(out / "checkpoint_best.json")
    cfg = write_cfg(tmp_path / "cfg.json", ev_tree)
    ev = tmp_path / "ev"
    assert run_cli("eval", "--config", cfg, "--out", ev, "--seed", "7") == 0
    report = json.load(open(ev / "eval_report.json"))
    assert report["mse"]["train_ctrl"] > 0.0
    assert report["mse"]["test_ctrl"] > 0.0
    assert report["dataset_sizes"] == {"train": 4, "test": 2}
    # the resolved config names its inputs by digest; the paths are printed
    inputs = {"checkpoint": out / "checkpoint_best.json",
              "dataset_manifest": linear_dataset / "manifest.json"}
    resolved = json.load(open(ev / "resolved_config.eval.json"))
    assert "paths" not in resolved
    assert resolved["inputs"] == {
        label: hashlib.sha256(path.read_bytes()).hexdigest()
        for label, path in inputs.items()}
    printed = capsys.readouterr().out
    assert all(str(path) in printed for path in inputs.values())


def test_read_json_digests_the_bytes_it_parses(tmp_path, monkeypatch):
    from picontrol import cli
    path = tmp_path / "in.json"
    path.write_bytes(b'{"a": [1, 2.5]}\n')
    opened = []
    real_open = open

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    tree, (source, digest) = cli.read_json(str(path))
    assert tree == {"a": [1, 2.5]}
    assert source == str(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    # one read: a file replaced between parse and digest cannot mismatch
    assert opened == [str(path)]


def test_eval_with_empty_test_split_reports_null(tmp_path):
    tree = json.loads(json.dumps(LINEAR_TINY))
    tree["dataset"]["n_test"] = 0
    data, run, ev = tmp_path / "d", tmp_path / "r", tmp_path / "e"
    cfg = write_cfg(tmp_path / "c1.json", tree)
    assert run_cli("gen-data", "--config", cfg, "--out", data, "--seed", "2") == 0
    tree["paths"] = {"dataset": str(data)}
    cfg = write_cfg(tmp_path / "c2.json", tree)
    assert run_cli("train", "--config", cfg, "--out", run, "--seed", "2") == 0
    # without a test split there is no best checkpoint, only the last one
    assert not (run / "checkpoint_best.json").exists()
    tree["paths"]["checkpoint"] = str(run / "checkpoint_last.json")
    cfg = write_cfg(tmp_path / "c3.json", tree)
    assert run_cli("eval", "--config", cfg, "--out", ev, "--seed", "2") == 0
    report = json.load(open(ev / "eval_report.json"))
    assert report["mse"]["test_ctrl"] is None
    assert report["mse"]["train_ctrl"] is not None


def test_eval_rejects_unsupported_checkpoint_version(linear_run, tmp_path):
    out, tree = linear_run
    ck = json.load(open(out / "checkpoint_last.json"))
    ck["version"] = 3
    bad = tmp_path / "bad.json"
    json.dump(ck, open(bad, "w"))
    ev_tree = json.loads(json.dumps(tree))
    ev_tree["paths"]["checkpoint"] = str(bad)
    cfg = write_cfg(tmp_path / "cfg.json", ev_tree)
    assert run_cli("eval", "--config", cfg, "--out", tmp_path / "ev",
                   "--seed", "7") == 1


# ---------------------------------------------------------------- simulate


def test_simulate_writes_trajectories(pendulum_dataset, tmp_path):
    tree = json.loads(json.dumps(PENDULUM_TINY))
    tree["simulate"] = {"runs": 2, "duration": 1.0, "controller": "pi_teacher"}
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg, "--out", out, "--seed", "5") == 0
    report = json.load(open(out / "simulate_report.json"))
    assert report["controller"] == "pi_teacher"
    assert len(report["metrics"]["per_run"]) == 2
    with open(out / "run_000.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "time"
    assert len(rows) == 1 + 11  # 10 steps of 0.1 s plus the final state


def test_simulate_rerun_is_byte_identical(tmp_path):
    tree = json.loads(json.dumps(PENDULUM_TINY))
    tree["simulate"] = {"runs": 1, "duration": 1.0, "controller": "pi_teacher"}
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", a, "--seed", "5") == 0
    assert run_cli("simulate", "--config", cfg, "--out", b, "--seed", "5") == 0
    assert dir_bytes(a) == dir_bytes(b)


SIMULATE_CASES = [("linear", "expert"), ("linear", "pi_teacher"),
                  ("linear", "checkpoint"), ("pendulum", "expert"),
                  ("pendulum", "checkpoint")]


@pytest.mark.parametrize("env,controller", SIMULATE_CASES)
def test_simulate_controllers_write_trajectories(env, controller, request,
                                                  tmp_path):
    run_dir, tree = request.getfixturevalue(f"{env}_run")
    tree = json.loads(json.dumps(tree))
    tree["paths"]["checkpoint"] = str(run_dir / "checkpoint_best.json")
    tree["simulate"] = {"runs": 2, "controller": controller,
                        **({"horizon": 12} if env == "linear"
                           else {"duration": 1.0})}
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg, "--out", out, "--seed", "5") == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["controller"] == controller
    assert len(report["metrics"]["per_run"]) == 2
    # linear plans 12 steps of 0.01 s, the pendulum runs 10 steps of 0.1 s
    steps, dt = (12, 0.01) if env == "linear" else (10, 0.1)
    for name in ("run_000.csv", "run_001.csv"):
        with open(out / name) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + steps + 1
        assert float(rows[-1][0]) == pytest.approx(steps * dt)
    # linear runs are scored on the dataset's system, so they read it
    resolved = json.loads(
        (out / "resolved_config.simulate.json").read_text())
    expected = set()
    if env == "linear":
        expected.add("dataset_manifest")
    if controller == "checkpoint":
        expected.add("checkpoint")
    assert set(resolved["inputs"]) == expected


def test_linear_simulate_scores_on_the_dataset_teacher(linear_dataset,
                                                      tmp_path):
    # a checkpoint holding the dataset's teacher models must plan and score
    # exactly as the teacher-model planner does
    tree = dict(json.loads(json.dumps(LINEAR_TINY)),
                paths={"dataset": str(linear_dataset)})
    tree["simulate"] = {"runs": 2, "horizon": 12}
    cfg = load_config(write_cfg(tmp_path / "base.json", tree), "desk", 5)
    manifest = json.loads((linear_dataset / "manifest.json").read_text())
    teacher = models_from_json(manifest["teacher"]["models"])
    ck = tmp_path / "teacher_checkpoint.json"
    write_checkpoint(str(ck), teacher, cfg["hyper"], "linear", 0,
                     OptimizerState(v=np.zeros(teacher.num_params)))
    tree["paths"]["checkpoint"] = str(ck)
    outs = {}
    for controller in ("pi_teacher", "checkpoint"):
        tree["simulate"]["controller"] = controller
        path = write_cfg(tmp_path / f"{controller}.json", tree)
        outs[controller] = tmp_path / controller
        assert run_cli("simulate", "--config", path, "--out", outs[controller],
                       "--seed", "5") == 0
    for name in ("run_000.csv", "run_001.csv"):
        assert ((outs["pi_teacher"] / name).read_bytes()
                == (outs["checkpoint"] / name).read_bytes())


def test_interrupted_write_keeps_the_previous_checkpoint(linear_run, tmp_path,
                                                         monkeypatch):
    from picontrol import cli
    out, _ = linear_run
    path = tmp_path / "checkpoint_last.json"
    before = (out / "checkpoint_last.json").read_bytes()
    path.write_bytes(before)
    ck = cli.load_checkpoint({"environment": "linear",
                              "paths": {"checkpoint": str(path)}},
                             None, None, {})

    def torn_dump(tree, fh, **kwargs):
        fh.write(json.dumps(tree)[:40])
        raise OSError("interrupted")

    monkeypatch.setattr("picontrol.cli.json.dump", torn_dump)
    with pytest.raises(OSError):
        cli.write_checkpoint(str(path), ck["models"], ck["hyper"], "linear",
                             ck["epoch"] + 1, ck["optimizer"])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint_last.json"]


# --------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_reports(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"gradcheck": {"instances": 2}})
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--config", cfg, "--out", out, "--seed", "0") == 0
    report = json.load(open(out / "gradcheck_report.json"))
    assert report["passed"] is True
    for segment in ("dynamics", "cost", "control_weight"):
        assert report["segments"][segment]["max_rel_err"] < 1e-4


def test_linear_gradcheck_checks_the_linear_models(tmp_path, monkeypatch):
    checked = []

    def recording(models, *args, **kwargs):
        checked.append(models)
        return sample_loss_and_grad(models, *args, **kwargs)

    monkeypatch.setattr("picontrol.cli.sample_loss_and_grad", recording)
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"environment": "linear", "gradcheck": {"instances": 2}})
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--config", cfg, "--out", out, "--seed", "0") == 0
    report = json.load(open(out / "gradcheck_report.json"))
    assert report["passed"] is True
    assert set(report["segments"]) == {"dynamics", "cost", "control_weight"}
    assert [(type(models.dynamics).__name__, type(models.cost).__name__,
             models.weight.dim) for models in checked] == [
        ("LinearDynamics", "QuadraticCost", 2)] * 2


@pytest.mark.parametrize("segment", ["dynamics", "cost", "control_weight"])
@pytest.mark.parametrize("environment", ["linear", "pendulum"])
def test_gradcheck_detects_corrupted_backward_pass(tmp_path, monkeypatch,
                                                   environment, segment):
    # negative control: a reverse pass off by 0.1% in one segment must fail
    def corrupted(*args, **kwargs):
        metrics, grad = sample_loss_and_grad(*args, **kwargs)
        grad.segment(segment)[:] *= 1.001
        return metrics, grad

    monkeypatch.setattr("picontrol.cli.sample_loss_and_grad", corrupted)
    cfg = write_cfg(tmp_path / "cfg.json", {"environment": environment,
                                            "gradcheck": {"instances": 1}})
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--config", cfg, "--out", out, "--seed", "0") == 2
    report = json.load(open(out / "gradcheck_report.json"))
    assert report["passed"] is False
    # the failed check is a finished run, so it records its config too
    assert (out / "resolved_config.gradcheck.json").exists()
    assert [name for name, entry in report["segments"].items()
            if entry["failed"]] == [segment]
    assert report["segments"][segment]["max_rel_err"] > 1e-4


def test_gradcheck_frozen_segment_has_exactly_zero_gradient(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"gradcheck": {"instances": 1, "freeze": ["dynamics"]}})
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--config", cfg, "--out", out, "--seed", "0") == 0
    report = json.load(open(out / "gradcheck_report.json"))
    assert report["frozen_max_abs_gradient"]["dynamics"] == 0.0


def test_gradcheck_measures_the_frozen_gradient(tmp_path, monkeypatch):
    # negative control: a training gradient that ignores freeze must show up
    def ignore_freeze(*args, freeze=(), **kwargs):
        return sample_loss_and_grad(*args, **kwargs)

    monkeypatch.setattr("picontrol.cli.sample_loss_and_grad", ignore_freeze)
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"gradcheck": {"instances": 1, "freeze": ["dynamics"]}})
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--config", cfg, "--out", out, "--seed", "0") == 0
    report = json.load(open(out / "gradcheck_report.json"))
    assert report["frozen_max_abs_gradient"]["dynamics"] > 0.0


# ----------------------------------------------------------- export-costmap


def test_costmap_grid_shape_and_exact_zeros(tmp_path):
    out = tmp_path / "cm"
    assert run_cli("export-costmap", "--out", out, "--seed", "0") == 0
    with open(out / "costmap.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "theta_dot", "cost"]
    assert len(rows) == 1 + 101 * 101
    zeros = [(float(r[0]), float(r[1])) for r in rows[1:] if float(r[2]) == 0.0]
    assert sorted(zeros) == [(-np.pi, 0.0), (np.pi, 0.0)]


def test_costmap_from_checkpoint_evaluates_its_cost_model(pendulum_run,
                                                          tmp_path):
    from picontrol.cli import models_from_json
    run_dir, _ = pendulum_run
    ck_path = run_dir / "checkpoint_best.json"
    cfg = write_cfg(tmp_path / "cfg.json", {
        "paths": {"checkpoint": str(ck_path)},
        "costmap": {"source": "checkpoint", "theta_cells": 5,
                    "theta_dot_cells": 3}})
    out = tmp_path / "cm"
    assert run_cli("export-costmap", "--config", cfg, "--out", out,
                   "--seed", "0") == 0
    with open(out / "costmap.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 5 * 3
    states = np.array([[float(r[0]), float(r[1])] for r in rows])
    cost = models_from_json(json.loads(ck_path.read_text())["models"]).cost
    assert [float(r[2]) for r in rows] == cost.running(states).tolist()
    resolved = json.loads(
        (out / "resolved_config.export-costmap.json").read_text())
    assert resolved["inputs"] == {
        "checkpoint": hashlib.sha256(ck_path.read_bytes()).hexdigest()}


def test_costmap_requires_pendulum(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"environment": "linear"})
    assert run_cli("export-costmap", "--config", cfg, "--out", tmp_path / "cm",
                   "--seed", "0") == 1


# --------------------------------------------------- config and exit codes


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cases = [("gen-data", {"trainig": {"epochs": 2}}, "trainig"),
             ("gradcheck", {"gradcheck": {"hyper": {"warm_recurrences": 2}}},
              "gradcheck.hyper.warm_recurrences"),
             # linear plans never warm-start
             ("gen-data", {"environment": "linear",
                           "hyper": {"warm_recurrences": 2}},
              "hyper.warm_recurrences"),
             # linear training never pretrains
             ("gen-data", {"environment": "linear",
                           "training": {"pretrain": None}},
              "training.pretrain"),
             # gradcheck builds the configured models, and its negative
             # control patches the reverse pass instead of a key
             ("gradcheck", {"gradcheck": {"hidden": 12}}, "gradcheck.hidden"),
             ("gradcheck", {"environment": "linear",
                            "gradcheck": {"hidden": 12}}, "gradcheck.hidden"),
             ("gradcheck", {"gradcheck": {"corrupt": "cost"}},
              "gradcheck.corrupt"),
             ("gradcheck", {"environment": "linear",
                            "gradcheck": {"corrupt": None}},
              "gradcheck.corrupt"),
             # the pendulum learner steps at the plant's time step
             ("gen-data", {"models": {"dt": 0.1}}, "models.dt"),
             # linear datasets have no goals to score a cost loss against
             ("gen-data", {"environment": "linear",
                           "training": {"loss_weights": {"cost": 0.0}}},
              "training.loss_weights.cost")]
    # cost maps are pendulum-only
    cases += [("gen-data", {"environment": "linear", "costmap": {leaf: value}},
               "costmap")
              for leaf, value in (("source", "teacher"), ("theta_cells", 5),
                                  ("theta_dot_cells", 5),
                                  ("theta_range", [-1.0, 1.0]),
                                  ("theta_dot_range", [-1.0, 1.0]))]
    for command, tree, key in cases:
        cfg = write_cfg(tmp_path / "cfg.json", tree)
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "o",
                       "--seed", "0") == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("warm", [0, -3])
def test_non_positive_warm_recurrences_is_rejected(tmp_path, capsys, warm):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"hyper": {"warm_recurrences": warm}})
    assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "o",
                   "--seed", "0") == 1
    assert "hyper.warm_recurrences" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("tree, key", [
    ({"hyper": {"recurrences": 2.9}}, "hyper.recurrences"),
    ({"hyper": {"num_samples": True}}, "hyper.num_samples"),
    ({"hyper": {"warm_recurrences": 1.5}}, "hyper.warm_recurrences"),
    ({"gradcheck": {"hyper": {"horizon": 3.0}}}, "gradcheck.hyper.horizon"),
    ({"training": {"epochs": "5"}}, "training.epochs"),
    ({"training": {"epochs": None}}, "training.epochs"),
    ({"training": {"batch_size": 2.5}}, "training.batch_size"),
    ({"memory_budget": None}, "memory_budget"),
    ({"gradcheck": {"instances": 2.0}}, "gradcheck.instances"),
    ({"costmap": {"theta_dot_cells": "5"}}, "costmap.theta_dot_cells"),
    ({"simulate": {"runs": 1.5}}, "simulate.runs"),
    ({"evaluation": {"runs": None}}, "evaluation.runs"),
])
def test_non_integer_counts_exit_1(tmp_path, capsys, tree, key):
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "o",
                   "--seed", "0") == 1
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("tree, key", [
    ({"hyper": {"lambda": None}}, "hyper.lambda"),
    ({"hyper": {"lambda": "0.5"}}, "hyper.lambda"),
    ({"evaluation": {"duration": None}}, "evaluation.duration"),
    ({"dataset": {"duration": None}}, "dataset.duration"),
    ({"dataset": {"n_traj_train": 2.5}}, "dataset.n_traj_train"),
    ({"training": {"pretrain": {"epochs": 2.5}}}, "training.pretrain.epochs"),
    ({"training": {"resume": "no"}}, "training.resume"),
    ({"training": {"lr": "0.001"}}, "training.lr"),
    ({"training": {"freeze": [["cost"]]}}, "training.freeze"),
    ({"seed": 2.7}, "seed"),
    ({"models": {"hidden": 2.5}}, "models.hidden"),
    ({"gradcheck": {"tolerance": None}}, "gradcheck.tolerance"),
    ({"gradcheck": {"freeze": [["cost"]]}}, "gradcheck.freeze"),
    ({"costmap": {"theta_range": [1]}}, "costmap.theta_range"),
    ({"costmap": {"theta_dot_range": ["a", 1]}}, "costmap.theta_dot_range"),
])
def test_mistyped_config_leaves_exit_1(tmp_path, capsys, tree, key):
    # unchecked, each of these crashes with a traceback or loads with a
    # meaning the key does not have (truncated, read as true, or parsed
    # from a string)
    cfg = write_cfg(tmp_path / "cfg.json", merged(PENDULUM_TINY, tree))
    assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("tree, key", [
    ({"dataset": {"expert_horizon": 0}}, "dataset.expert_horizon"),
    ({"simulate": {"duration": -1.0}}, "simulate.duration"),
    ({"gradcheck": {"instances": 0}}, "gradcheck.instances"),
    ({"models": {"hidden": 0}}, "models.hidden"),
    ({"environment": "linear", "dataset": {"demo_horizon": 0}},
     "dataset.demo_horizon"),
    ({"environment": "linear", "simulate": {"horizon": 0}},
     "simulate.horizon"),
    ({"seed": -1}, "seed"),
])
def test_out_of_range_config_leaves_exit_1(tmp_path, capsys, tree, key):
    # unchecked, each of these loads and then fails later in the command
    # that reads it (gen-data, simulate, gradcheck), with a message or a
    # traceback that does not name the key, or runs to a meaningless
    # result (a network with no hidden units)
    base = LINEAR_TINY if tree.get("environment") == "linear" \
        else PENDULUM_TINY
    cfg = write_cfg(tmp_path / "cfg.json", merged(base, tree))
    assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["gen-data", "export-costmap"])
def test_negative_seed_flag_exits_1(tmp_path, capsys, command):
    # unchecked, gen-data fails in the generator with a message that names
    # no key, and export-costmap records the seed
    assert run_cli(command, "--out", tmp_path / "o", "--seed", "-1") == 1
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bounds_name_config_leaves_that_every_default_meets():
    # defaults are never merged, so nothing else checks them against the
    # bounds; a bound whose name is no leaf would bound nothing
    seen = set()
    for environment in ENVIRONMENTS:
        for profile in ("desk", "paper"):
            tree = default_config(environment, profile)
            for name, value in config_leaves(tree):
                seen.add(name)
                if name in LEAST and value is not None:
                    assert value >= LEAST[name], name
                if name in POSITIVE:
                    assert value > 0, name
    assert set(LEAST) | set(POSITIVE) <= seen


DROP = object()


def edited(text, key, value):
    """JSON text with the dotted key set to value, or removed for DROP."""
    tree = json.loads(text)
    *parents, leaf = key.split(".")
    node = tree
    for part in parents:
        node = node[part]
    if value is DROP:
        del node[leaf]
    else:
        node[leaf] = value
    return json.dumps(tree)


# whole-file texts, by the name a case gives them
TEXTS = {"not json": "{not json", "a list": "[]"}
# (file, dotted key or None for a whole-file text, value, text the error
# must hold besides the file's path)
MALFORMED_INPUTS = [
    ("config", None, "not json", "not valid JSON"),
    ("config", None, "a list", "must hold a JSON object"),
    ("config", "environment", "cartpole", "environment"),
    ("config", "evaluation.runs", 1.9, "evaluation.runs"),
    ("manifest", None, "not json", "not valid JSON"),
    ("manifest", None, "a list", "must hold a JSON object"),
    ("manifest", "version", 2, "version"),
    ("manifest", "version", DROP, "version"),
    ("manifest", "version", True, "version"),
    ("manifest", "version", 1.0, "version"),
    ("manifest", "environment", "linear", "environment"),
    ("manifest", "environment", DROP, "environment"),
    ("manifest", "evaluation.runs", 1.9, "evaluation.runs"),
    ("manifest", "evaluation.runs", 0, "evaluation.runs"),
    ("manifest", "dataset.expert_horizon", DROP, "dataset"),
    ("checkpoint", None, "not json", "not valid JSON"),
    ("checkpoint", None, "a list", "must hold a JSON object"),
    ("checkpoint", "version", 2, "version"),
    ("checkpoint", "version", DROP, "version"),
    ("checkpoint", "version", True, "version"),
    ("checkpoint", "version", 1.0, "version"),
    ("checkpoint", "environment", "linear", "environment"),
    ("checkpoint", "environment", DROP, "environment"),
    ("checkpoint", "hyper.recurrences", 2.5, "hyper.recurrences"),
    ("checkpoint", "models.dynamics", 5, "models.dynamics"),
    ("checkpoint", "models.cost", DROP, "models.cost"),
    ("checkpoint", "models.cost.type", "mlp_costs", "models.cost.type"),
    ("checkpoint", "models.cost.type", [], "models.cost.type"),
    ("checkpoint", "models.cost.config.hidden", DROP, "models.cost.config"),
    ("checkpoint", "models.dynamics.config.hidden", "12",
     "models.dynamics.config"),
    ("checkpoint", "models.cost.params", [0.0], "models.cost.params"),
    ("checkpoint", "models.control_weight.params", ["0.0"],
     "models.control_weight.params"),
    ("manifest", "teacher.models.dynamics", 5, "teacher.models.dynamics"),
    ("manifest", "teacher.models.cost.config.gain", 0.5,
     "teacher.models.cost.config"),
    ("manifest", "teacher", DROP, "teacher"),
    ("linear-manifest", "teacher.dt", "abc", "teacher.dt"),
    ("linear-manifest", "teacher.dt", -1.0, "teacher.dt"),
    ("checkpoint", "epoch", 1.7, "epoch"),
    ("checkpoint", "epoch", -3, "epoch"),
    ("checkpoint", "epoch", DROP, "epoch"),
    ("checkpoint", "optimizer", DROP, "optimizer"),
    ("checkpoint", "optimizer.v", [0.0], "optimizer.v"),
    ("checkpoint", "optimizer.lr", -1.0, "optimizer.lr"),
    ("checkpoint", "optimizer.lr", float("inf"), "optimizer.lr"),
    ("checkpoint", "optimizer.epochs_since_improvement", 2.5,
     "optimizer.epochs_since_improvement"),
    ("checkpoint", "optimizer.best_loss", "x", "optimizer.best_loss"),
]


@pytest.mark.parametrize(
    "target, key, value, needle", MALFORMED_INPUTS,
    ids=[f"{target}-{value}" if key is None else
         f"{target}-{key}-{'drop' if value is DROP else value}"
         for target, key, value, _ in MALFORMED_INPUTS])
def test_malformed_inputs_exit_1_naming_the_file(request, tmp_path, capsys,
                                                 target, key, value, needle):
    # unchecked, these end in a traceback, in a message that names neither
    # the file nor the key, or in a run under the wrong protocol; the
    # pendulum run serves every case but the linear manifest's
    run_dir, tree = request.getfixturevalue(
        "linear_run" if target == "linear-manifest" else "pendulum_run")
    data, ck = tmp_path / "data", tmp_path / "checkpoint.json"
    shutil.copytree(tree["paths"]["dataset"], data)
    shutil.copy(run_dir / "checkpoint_best.json", ck)
    cfg = write_cfg(tmp_path / "cfg.json", merged(tree, {
        "paths": {"dataset": str(data), "checkpoint": str(ck)}}))
    path = {"config": tmp_path / "cfg.json", "checkpoint": ck,
            "manifest": data / "manifest.json",
            "linear-manifest": data / "manifest.json"}[target]
    path.write_text(TEXTS[value] if key is None
                    else edited(path.read_text(), key, value))
    assert run_cli("eval", "--config", cfg, "--out", tmp_path / "ev") == 1
    err = capsys.readouterr().err
    assert str(path) in err and needle in err and "Traceback" not in err
    assert not (tmp_path / "ev" / "eval_report.json").exists()


def test_an_integer_for_a_number_key_resolves_to_a_float(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "cfg.json",
                                {"evaluation": {"duration": 1}}), "desk", None)
    duration = cfg["evaluation"]["duration"]
    assert duration == 1.0 and type(duration) is float


def test_profiles_type_every_leaf_alike():
    # the type each key takes must not change with --profile
    for environment in ENVIRONMENTS:
        desk, paper = (dict(config_leaves(default_config(environment, p)))
                       for p in ("desk", "paper"))
        assert desk.keys() == paper.keys()
        for key, value in desk.items():
            if value is None or paper[key] is None:
                assert key in NULLABLE, key
            else:
                assert type(value) is type(paper[key]), key


def test_lock_file_blocks_concurrent_use(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / ".lock").touch()
    assert run_cli("export-costmap", "--out", out, "--seed", "0") == 1
    assert run_cli("export-costmap", "--out", out, "--seed", "0",
                   "--force") == 1


def test_argparse_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["gen-data", "--no-such-flag"])
    assert err.value.code == 1


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "simulate",
                                     "gradcheck", "export-costmap"])
def test_second_run_refuses_to_overwrite_the_resolved_config(
        linear_run, tmp_path, capsys, command):
    # the frame's resolved config is refused as each command's own
    # artifacts are, and a refused run leaves it as it was
    run_dir, trained = linear_run
    tree = {
        "gen-data": LINEAR_TINY,
        "train": trained,
        "eval": merged(trained, {"paths": {
            "checkpoint": str(run_dir / "checkpoint_best.json")}}),
        "simulate": merged(trained, {"simulate": {"horizon": 12}}),
        "gradcheck": {"environment": "linear",
                      "gradcheck": {"instances": 1}},
        "export-costmap": {"costmap": {"theta_cells": 3,
                                       "theta_dot_cells": 3}},
    }[command]
    cfg = write_cfg(tmp_path / "cfg.json", tree)
    out = tmp_path / "o"
    resolved = out / f"resolved_config.{command}.json"
    assert run_cli(command, "--config", cfg, "--out", out, "--seed", "7") == 0
    before = resolved.read_bytes()
    capsys.readouterr()
    assert run_cli(command, "--config", cfg, "--out", out, "--seed", "8") == 1
    err = capsys.readouterr().err
    assert "refusing to overwrite" in err and resolved.name in err
    assert resolved.read_bytes() == before


def test_resolved_config_is_always_written(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", LINEAR_TINY)
    out = tmp_path / "o"
    assert run_cli("gen-data", "--config", cfg, "--out", out, "--seed", "1") == 0
    resolved = json.load(open(out / "resolved_config.gen-data.json"))
    assert resolved["command"] == "gen-data"
    assert resolved["seed"] == 1
    assert resolved["dataset"]["n_train"] == 4


def test_profile_flag_changes_scale():
    desk = default_config("pendulum", "desk")
    paper = default_config("pendulum", "paper")
    assert desk["hyper"]["num_samples"] == 30
    assert desk["hyper"]["recurrences"] == 20
    assert paper["hyper"]["num_samples"] == 100
    assert paper["hyper"]["recurrences"] == 200


# ------------------------------------------------------------ determinism


def test_outputs_identical_across_thread_counts(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", PENDULUM_TINY)
    outs = {}
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"t{threads}"
        for verb in (("gen-data",), ("gradcheck",)):
            sub = str(out) + "_" + verb[0]
            proc = subprocess.run(
                [sys.executable, "-m", "picontrol.cli", *verb,
                 "--config", str(cfg), "--out", sub, "--seed", "11"],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.setdefault(verb[0], []).append(dir_bytes(sub))
    for verb, pair in outs.items():
        assert pair[0] == pair[1], f"{verb} differs across thread counts"
