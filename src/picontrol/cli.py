"""Command-line surface: reproducible experiment pipelines and artifacts.

Each command reads one JSON config (deep-merged over per-profile
defaults), derives every random draw from a single seed, takes an
exclusive lock on its output directory, and writes byte-stable
artifacts: CSV for datasets, trajectories and histories, JSON for
manifests, checkpoints and reports.  Wall-clock times are printed to
stdout but never written into artifacts, so reruns with the same config
and seed reproduce every output file exactly.

Verbs: gen-data, train, eval, simulate, gradcheck, export-costmap.
Exit codes: 0 success, 1 validation error, 2 numeric failure,
3 memory-budget refusal.
"""

import argparse
import contextlib
import copy
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .controller import ModelSet, PathIntegralPlanner, pi_net_forward
from .core import (ConsistencyError, MemoryBudgetError, NumericError,
                   ParameterError, PIHyperParams, RngStream, ShapeError,
                   atomic_open, read_csv, write_csv)
from .envs import (PENDULUM_EXPERT_HORIZON, benchmark_runs, pendulum_expert,
                   pendulum_teacher_models, sample_linear_teacher,
                   write_trajectory_csv)
from .experts import LQRPlanner, LQRProblem, sequence_cost
from .models import MODEL_TYPES, PendulumTeacherCost, model_type_name
from .training import (DEFAULT_MEMORY_BUDGET, MPCSample, OpenLoopSample,
                       OptimizerState, PENDULUM_GOALS, build_linear_dataset,
                       build_pendulum_dataset, check_memory_budget,
                       evaluate_losses, init_linear_models,
                       init_pendulum_models, loss_ctrl, loss_dyn,
                       pretrain_dynamics, sample_loss_and_grad, train_pinet,
                       write_history_csv)

ARTIFACT_VERSION = 1  # of manifests and checkpoints
SEGMENTS = ("dynamics", "cost", "control_weight")

# Sub-stream ids under the command seed; commands never share streams.
# Id 2 is retired (eval draws from STREAM_DATA); the others keep their
# values so every stream key, and every artifact, stays the same.
STREAM_DATA, STREAM_TRAIN, STREAM_SIM, STREAM_GRAD = 0, 1, 3, 4


# ------------------------------------------------------------- configuration


def default_config(environment, profile):
    """The fully defaulted config tree for one (environment, profile)."""
    return {
        "experiment_id": f"{environment}-{profile}",
        "environment": environment,
        "seed": 0,
        "memory_budget": DEFAULT_MEMORY_BUDGET,
        "paths": {"dataset": None, "checkpoint": None},
        "gradcheck": {
            "instances": 20, "tolerance": 1e-4, "floor": 1e-7, "freeze": [],
            # Gentle settings: a smooth trajectory softmax at tiny scale,
            # so central differences converge.
            "hyper": {"lambda": 0.5, "nu": 1500.0, "sigma": 0.3,
                      "num_samples": 4, "horizon": 3, "recurrences": 2},
        },
        **ENVIRONMENTS[environment].defaults(profile),
    }


# The type of each leaf whose default is null or that may be set to null;
# every other leaf takes the type of its default.
NULLABLE = {"paths.dataset": str, "paths.checkpoint": str,
            "hyper.warm_recurrences": int,
            "training.target_test_ctrl_ratio": float,
            "training.pretrain": dict, "evaluation": dict}
# The least value of each bounded number leaf, and the number leaves that
# must be above 0.
LEAST = {"seed": 0, "memory_budget": 1, "models.hidden": 1,
         "hyper.warm_recurrences": 1, "training.epochs": 0,
         "training.batch_size": 1, "training.pretrain.epochs": 0,
         "training.pretrain.batch_size": 1, "dataset.n_train": 0,
         "dataset.n_test": 0, "dataset.demo_horizon": 1,
         "dataset.n_traj_train": 0, "dataset.n_traj_test": 0,
         "dataset.duration": 0, "dataset.expert_horizon": 1,
         "gradcheck.instances": 1, "costmap.theta_cells": 2,
         "costmap.theta_dot_cells": 2, "simulate.runs": 1,
         "simulate.horizon": 1, "evaluation.runs": 1}
POSITIVE = ("gradcheck.tolerance", "gradcheck.floor", "simulate.duration",
            "evaluation.duration")
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string", list: "a list", dict: "an object"}


def _finite(value):
    """Whether value is a JSON number (not a bool) of finite size."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _typed(name, value, default):
    """value checked against the type of the default it overrides, then
    against the key's bound (LEAST, POSITIVE); a number key stores any
    finite number as a float.  Objects merge into their default, so an
    object key whose default is null takes only null."""
    kind = NULLABLE[name] if default is None else type(default)
    if kind is float and _finite(value):
        value = float(value)
    elif not (kind in (bool, int, str, list) and isinstance(value, kind)
              and not (kind is int and isinstance(value, bool))):
        expected = "null" if default is None and kind is dict else _KINDS[kind]
        raise ParameterError(f"{name} must be {expected}, got {value!r}")
    if name in LEAST and value < LEAST[name]:
        raise ParameterError(f"{name} must be {_KINDS[kind]} >= "
                             f"{LEAST[name]}, got {value!r}")
    if name in POSITIVE and value <= 0:
        raise ParameterError(f"{name} must be {_KINDS[kind]} > 0, "
                             f"got {value!r}")
    return value


def _deep_merge(base, override, prefix=""):
    """Merge override into base, typing and bounding each leaf (_typed)."""
    for key, value in override.items():
        name = prefix + key
        if key not in base:
            raise ParameterError(f"unknown config key {name!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _deep_merge(base[key], value, name + ".")
        elif value is None and name in NULLABLE:
            base[key] = None
        else:
            base[key] = _typed(name, value, base[key])


def _require(condition, message):
    if not condition:
        raise ParameterError(message)


@contextlib.contextmanager
def _prefixed(prefix):
    """Prefix the ParameterErrors raised inside: with the file they concern,
    or with a hyper block's key (PIHyperParams names only the field)."""
    try:
        yield
    except ParameterError as err:
        raise ParameterError(f"{prefix}{err}") from None


def _validate_hyper(tree, prefix):
    with _prefixed(prefix + "."):
        hyper_from_cfg(tree)


def _validate_segments(name, entries):
    # membership by ==, so an unhashable entry is refused, not a TypeError
    _require(all(entry in SEGMENTS for entry in entries),
             f"{name} entries must be among {SEGMENTS}, got {entries!r}")


def _validate(cfg):
    """The checks of a merged config that span more than one leaf, or that
    name allowed values; _deep_merge types and bounds each leaf."""
    gc, sim = cfg["gradcheck"], cfg["simulate"]
    _validate_hyper(cfg["hyper"], "hyper")
    _validate_hyper(gc["hyper"], "gradcheck.hyper")
    _validate_segments("training.freeze", cfg["training"]["freeze"])
    _validate_segments("gradcheck.freeze", gc["freeze"])
    if "costmap" in cfg:  # a pendulum block
        cm = cfg["costmap"]
        _require(cm["source"] in ("teacher", "checkpoint"),
                 "costmap.source must be teacher or checkpoint")
        for key in ("theta_range", "theta_dot_range"):
            _require(len(cm[key]) == 2 and all(map(_finite, cm[key])),
                     f"costmap.{key} must be two finite numbers, "
                     f"got {cm[key]}")
    _require(sim["controller"] in ("expert", "pi_teacher", "checkpoint"),
             "simulate.controller must be expert, pi_teacher or checkpoint")


def load_config(path, profile, seed):
    """Merge a config file over the profile defaults, then --seed, and
    validate it; an error in the file's content names the file."""
    overrides = {} if path is None else read_json(path)[0]
    with _prefixed(f"{path}: "):
        environment = overrides.get("environment", "pendulum")
        _require(isinstance(environment, str) and environment in ENVIRONMENTS,
                 f"environment must be {' or '.join(ENVIRONMENTS)}, "
                 f"got {environment!r}")
        cfg = default_config(environment, profile)
        _deep_merge(cfg, overrides)
        _validate(cfg)
    if seed is not None:
        _deep_merge(cfg, {"seed": seed})
    cfg["profile"] = profile
    return cfg


def hyper_from_cfg(tree):
    """PIHyperParams from a config or checkpoint hyper block."""
    return PIHyperParams(lambda_=tree["lambda"], nu=tree["nu"],
                         sigma=tree["sigma"],
                         num_samples=tree["num_samples"],
                         horizon=tree["horizon"],
                         recurrences=tree["recurrences"])


# ------------------------------------------------------------------ artifacts


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(value) for value in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def write_json(path, tree):
    # sort_keys + allow_nan=False keep the bytes stable and the values finite
    with atomic_open(path) as fh:
        json.dump(_plain(tree), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path):
    """The object a JSON input holds and its provenance entry (path, sha256
    of the bytes it was parsed from).  The one parser of JSON inputs:
    bytes that are not JSON, or that hold no object, raise ParameterError
    naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        tree = json.loads(data)
    except ValueError as err:
        raise ParameterError(f"{path} is not valid JSON: {err}") from None
    _require(isinstance(tree, dict),
             f"{path} must hold a JSON object, got {type(tree).__name__}")
    return tree, (path, hashlib.sha256(data).hexdigest())


def _read_artifact(path, environment, blocks):
    """read_json of a manifest or checkpoint whose version and environment
    match, with each config block it carries (blocks) merged over the
    environment's defaults, which have one set of keys and types in every
    profile: typed and bounded as a config is, and holding every key."""
    tree, source = read_json(path)
    with _prefixed(f"{path}: "):
        for key, want in (("version", ARTIFACT_VERSION),
                          ("environment", environment)):
            got = tree.get(key)
            # by type too, since true == 1.0 == 1
            _require(type(got) is type(want) and got == want,
                     f"{key} must be {want!r}, got {got!r}")
        defaults = default_config(environment, "desk")
        for key in blocks:
            value, default = tree.get(key), defaults[key]
            if isinstance(default, dict):
                _require(isinstance(value, dict)
                         and value.keys() == default.keys(),
                         f"{key} must be an object with the keys "
                         f"{', '.join(default)}, got {value!r}")
            _deep_merge(defaults, {key: value})
            tree[key] = defaults[key]
    return tree, source


@contextlib.contextmanager
def experiment_lock(out_dir):
    """Exclusive lock on an experiment directory via an O_EXCL lock file."""
    path = os.path.join(out_dir, ".lock")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ParameterError(
            f"{path} exists: another command is using this directory "
            "(delete the file if it is stale)")
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        os.unlink(path)


def refuse_existing(out_dir, names, force):
    existing = [name for name in names
                if os.path.exists(os.path.join(out_dir, name))]
    if existing and not force:
        raise ParameterError(
            "refusing to overwrite " + ", ".join(sorted(existing))
            + " (pass --force)")


def write_resolved_config(out_dir, command, cfg, inputs=None):
    """Write the merged config a command ran with.

    Input paths are machine-local, so the file records the sha256 of each
    input the command read (inputs maps a label to (path, sha256)) in place
    of the configured paths; the paths themselves go to stdout.
    """
    inputs = inputs or {}
    tree = copy.deepcopy(cfg)
    del tree["paths"]
    tree["command"] = command
    tree["inputs"] = {label: digest for label, (_, digest) in inputs.items()}
    write_json(os.path.join(out_dir, f"resolved_config.{command}.json"), tree)
    for label, (path, digest) in sorted(inputs.items()):
        print(f"input {label}: {path} (sha256 {digest})")


# ------------------------------------------------- model and checkpoint (de)io


def models_to_json(models: ModelSet):
    return {name: {"type": model_type_name(model),
                   "config": _plain(model.config()),
                   "params": model.get_params().tolist()}
            for name, model in models.items()}


def models_from_json(tree):
    """The ModelSet of a models block (models_to_json), each entry checked:
    a known type, the config keys that type writes, and as many finite
    params as the model holds.  Errors name the entry; callers run this
    under _prefixed(file)."""
    _require(isinstance(tree, dict), f"models must be an object, got {tree!r}")
    built = {}
    for name in SEGMENTS:
        key, entry = f"models.{name}", tree.get(name)
        _require(isinstance(entry, dict)
                 and entry.keys() == {"type", "config", "params"},
                 f"{key} must be an object with the keys type, config, "
                 f"params, got {entry!r}")
        kind, config, params = entry["type"], entry["config"], entry["params"]
        cls = MODEL_TYPES.get(kind) if isinstance(kind, str) else None
        _require(cls is not None, f"{key}.type must be one of "
                 f"{', '.join(MODEL_TYPES)}, got {kind!r}")
        try:
            model = cls.from_config(config)
        except (KeyError, MemoryError, TypeError, ValueError):
            model = None
        # the config the model writes back, compared as JSON: 12.0 is no 12
        _require(model is not None
                 and json.dumps(_plain(model.config()), sort_keys=True)
                 == json.dumps(config, sort_keys=True)
                 and all(map(_finite, config.values())),
                 f"{key}.config must be the config of a {kind} (the numbers "
                 f"{', '.join(cls.CONFIG) or 'none'}), got {config!r}")
        _require(isinstance(params, list) and all(map(_finite, params))
                 and len(params) == model.num_params,
                 f"{key}.params must be a list of {model.num_params} finite "
                 f"numbers")
        model.set_params(np.asarray(params, dtype=float))
        built[name] = model
    return ModelSet(built["dynamics"], built["cost"], built["control_weight"])


def optimizer_to_json(state: OptimizerState):
    best = state.best_loss
    return {"v": state.v.tolist(), "lr": float(state.lr),
            "epochs_since_improvement": int(state.epochs_since_improvement),
            "best_loss": None if math.isinf(best) else float(best)}


def optimizer_from_json(tree):
    best = tree["best_loss"]
    return OptimizerState(v=np.asarray(tree["v"], dtype=float),
                          lr=float(tree["lr"]),
                          epochs_since_improvement=int(
                              tree["epochs_since_improvement"]),
                          best_loss=math.inf if best is None else float(best))


def write_checkpoint(path, models, hyper_tree, environment, epoch, opt_state):
    write_json(path, {
        "version": ARTIFACT_VERSION,
        "environment": environment,
        "epoch": int(epoch),
        "hyper": copy.deepcopy(hyper_tree),
        "models": models_to_json(models),
        "optimizer": optimizer_to_json(opt_state),
    })


def _load_models(cfg, out_dir, default_name, inputs):
    """(models, checkpoint tree) of paths.checkpoint, or of default_name in
    out_dir, checked against the config; records provenance in inputs."""
    path = cfg["paths"]["checkpoint"] or os.path.join(out_dir, default_name)
    tree, inputs["checkpoint"] = _read_artifact(path, cfg["environment"],
                                                ("hyper",))
    _validate_hyper(tree["hyper"], f"{path}: hyper")
    with _prefixed(f"{path}: "):
        return models_from_json(tree.get("models")), tree


# ----------------------------------------------------------------- dataset io


def write_linear_dataset(path, samples):
    header = None
    if samples:
        n = samples[0].x0.size
        horizon, m = samples[0].useq.shape
        header = ([f"x0_{j}" for j in range(n)]
                  + [f"u_{t}_{j}" for t in range(horizon) for j in range(m)])
    write_csv(path, header, (sample.x0.tolist() + sample.useq.ravel().tolist()
                             for sample in samples))


def read_linear_dataset(path):
    rows = read_csv(path)
    if not rows:
        return []
    header = rows[0]
    n = sum(1 for name in header if name.startswith("x0_"))
    m = sum(1 for name in header if name.startswith("u_0_"))
    samples = []
    for row in rows[1:]:
        values = np.array([float(v) for v in row])
        samples.append(OpenLoopSample(values[:n], values[n:].reshape(-1, m)))
    return samples


PENDULUM_COLUMNS = ("traj", "step", "theta", "theta_dot", "torque",
                    "theta_next", "theta_dot_next")


def write_pendulum_dataset(path, samples):
    rows, traj, step = [], 0, 0
    for i, sample in enumerate(samples):
        # a new trajectory starts wherever the chain of states breaks
        if i and not np.array_equal(sample.x, samples[i - 1].x_next):
            traj += 1
            step = 0
        rows.append([traj, step] + sample.x.tolist() + [sample.u[0]]
                    + sample.x_next.tolist())
        step += 1
    write_csv(path, PENDULUM_COLUMNS if samples else None, rows)


def read_pendulum_dataset(path):
    samples = []
    for row in read_csv(path)[1:]:
        values = [float(v) for v in row[2:]]
        samples.append(MPCSample(np.array(values[0:2]),
                                 np.array(values[2:3]),
                                 np.array(values[3:5])))
    return samples


def load_manifest(ds_dir, environment, inputs):
    """The checked manifest of the dataset in ds_dir, with its teacher's
    models built (models_from_json) and its environment's teacher numbers
    checked finite and > 0; records provenance."""
    path = os.path.join(ds_dir, "manifest.json")
    manifest, inputs["dataset_manifest"] = _read_artifact(
        path, environment, ("seed", "dataset", "evaluation"))
    teacher = manifest.get("teacher")
    with _prefixed(f"{path}: "):
        _require(isinstance(teacher, dict),
                 f"teacher must be an object, got {teacher!r}")
    with _prefixed(f"{path}: teacher."):
        teacher["models"] = models_from_json(teacher.get("models"))
        for key in ENVIRONMENTS[environment].teacher_numbers:
            value = teacher.get(key)
            _require(_finite(value) and value > 0,
                     f"{key} must be a finite number > 0, got {value!r}")
            teacher[key] = float(value)
    return manifest


def load_dataset(cfg, out_dir, env, inputs):
    """(manifest, train samples, test samples) of the configured dataset."""
    ds_dir = cfg["paths"]["dataset"] or out_dir
    manifest = load_manifest(ds_dir, env.name, inputs)
    train = env.read_dataset(os.path.join(ds_dir, "train_data.csv"))
    test = env.read_dataset(os.path.join(ds_dir, "test_data.csv"))
    return manifest, train, test


# ------------------------------------------------------------ shared helpers


def mean_demo_cost(models, samples):
    """Mean cost of the demonstrated plans under models; None if empty."""
    if not samples:
        return None
    weight_matrix = models.weight.matrix()
    totals = [sequence_cost(models.dynamics, models.cost, weight_matrix,
                            s.x0, s.useq)[0] for s in samples]
    return float(np.mean(totals))


def _check_horizon(samples, hp, owner):
    """Open-loop demonstrations must plan exactly the planner's horizon."""
    if samples and isinstance(samples[0], OpenLoopSample):
        demo_len = samples[0].useq.shape[0]
        _require(demo_len == hp.horizon,
                 f"dataset demos plan {demo_len} steps but the {owner} "
                 f"horizon is {hp.horizon}")


def _pi_planner(models, hyper_tree):
    """The path-integral planner over models with a config's hyper block;
    warm_recurrences is a pendulum key, absent from linear blocks."""
    return PathIntegralPlanner(models, hyper_from_cfg(hyper_tree),
                               hyper_tree.get("warm_recurrences"))


def _segment_sizes(models):
    return {name: int(length) for name, _, length in models.pack().layout}


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def _fmt_items(tree):
    return ", ".join(f"{key} {_fmt(value)}" for key, value in tree.items())


def _print_closed_loop(cl):
    if cl is not None:
        print(f"closed loop ({cl['runs']} runs x {cl['duration']} s): "
              f"success rate {cl['success_rate']:.2f}, "
              f"mean cost {_fmt(cl['mean_cost'])}")


# -------------------------------------------------------------- environments
#
# One object per plant holds all that differs between the plants (defaults,
# data, models, regime, teacher, expert, metrics); commands use it unbranched.


class LinearEnvironment:
    """Random linear systems imitated open loop from LQR demonstrations.

    Each dataset draws its own system and records it in the manifest as
    the teacher; plans are scored by their cost on that system.
    """

    name = "linear"
    regime = "open_loop"
    goals = None
    reference_results = ()
    teacher_numbers = ("dt",)  # manifest teacher fields besides the models

    def defaults(self, profile):
        paper = profile == "paper"
        horizon = 200 if paper else 50
        return {
            "hyper": {"lambda": 0.01, "nu": 1500.0, "sigma": 0.2,
                      "num_samples": 100 if paper else 50,
                      "horizon": horizon,
                      "recurrences": 200 if paper else 50},
            "models": {"dt": 0.01},
            "dataset": {"n_train": 950 if paper else 200,
                        "n_test": 50 if paper else 20,
                        "demo_horizon": horizon},
            "training": {"epochs": 100, "batch_size": 8,
                         "loss_weights": {"ctrl": 1.0},
                         "freeze": [], "lr": 1e-3, "resume": False,
                         "target_test_ctrl_ratio": 0.1},
            "evaluation": None,
            "simulate": {"runs": 1, "controller": "expert",
                         "horizon": horizon},
        }

    def generate(self, cfg, root):
        """(train, test, manifest entries, summary) of new demonstrations."""
        ds = cfg["dataset"]
        system = sample_linear_teacher(root.child(1), cfg["models"]["dt"])
        train, test = build_linear_dataset(system, root.child(0),
                                           ds["n_train"], ds["n_test"],
                                           ds["demo_horizon"])
        teacher = ModelSet(*system.models())
        fields = {
            "sizes": {"n_train": len(train), "n_test": len(test)},
            "teacher": {"models": models_to_json(teacher), "dt": system.dt},
            "expert_metrics": self._demo_costs(teacher, train, test),
        }
        return (train, test, fields,
                f"wrote {len(train)} train / {len(test)} test open-loop "
                "samples")

    def write_dataset(self, path, samples):
        write_linear_dataset(path, samples)

    def read_dataset(self, path):
        return read_linear_dataset(path)

    def init_models(self, cfg, rng):
        return init_linear_models(rng, cfg["models"]["dt"])

    def expert(self, teacher, horizon):
        return LQRPlanner(LQRProblem(teacher.dynamics.F, teacher.dynamics.G,
                                     teacher.cost.Q, teacher.weight.matrix(),
                                     horizon))

    def simulation(self, cfg, out_dir, inputs):
        """(teacher, time step, expert horizon) for simulate; the teacher is
        the dataset's system, which its checkpoints are scored against."""
        manifest = load_manifest(cfg["paths"]["dataset"] or out_dir,
                                 self.name, inputs)
        return (manifest["teacher"]["models"],
                manifest["teacher"]["dt"], cfg["simulate"]["horizon"])

    def simulate(self, planner, teacher, root, sim):
        """(states, controls) per run and metrics of one plan per
        standard-normal start state, scored on the teacher."""
        weight_matrix = teacher.weight.matrix()
        trajectories, per_run = [], []
        for i in range(sim["runs"]):
            x0 = root.child(i).generator().normal(
                size=teacher.dynamics.state_dim)
            useq = planner.plan(x0, rng=root.child(1000 + i))
            total, states = sequence_cost(teacher.dynamics, teacher.cost,
                                          weight_matrix, x0, useq)
            trajectories.append((states, useq))
            per_run.append({"cost": float(total)})
        return trajectories, {
            "mean_cost": float(np.mean([r["cost"] for r in per_run])),
            "per_run": per_run}

    def closed_loop(self, planner, manifest):
        return None

    def dynamics_errors(self, models, train, test):
        return {}

    def expert_metrics(self, manifest, train, test):
        return {"demo_cost": self._demo_costs(manifest["teacher"]["models"],
                                              train, test)}

    def _demo_costs(self, teacher, train, test):
        return {"mean_demo_cost_train": mean_demo_cost(teacher, train),
                "mean_demo_cost_test": mean_demo_cost(teacher, test)}


class PendulumEnvironment:
    """Pendulum swing-up imitated in the MPC regime from iLQR transitions.

    The teacher is the fixed plant model; controllers are scored by
    closed-loop runs from the benchmark start distribution.
    """

    name = "pendulum"
    regime = "mpc"
    goals = PENDULUM_GOALS
    teacher_numbers = ()
    # published swing-up benchmark rows, printed next to our numbers
    reference_results = (
        "reference swing-up results:",
        "  expert: MSE n/a, success rate 100%, cost 404.63",
        "  trained sampling controller: MSE 0.00222/0.00165, "
        "success rate 100%, cost 429.69, 242 params",
        "  frozen-dynamics variant: MSE 0.00191/0.00573, "
        "success rate 100%, cost 982.22, 49 params",
    )

    def defaults(self, profile):
        paper = profile == "paper"
        return {
            "hyper": {"lambda": 0.01, "nu": 1500.0, "sigma": 0.005,
                      "num_samples": 100 if paper else 30,
                      "horizon": 30,
                      "recurrences": 200 if paper else 20,
                      "warm_recurrences": 20 if paper else None},
            "models": {"hidden": 12},
            "dataset": {"n_traj_train": 50 if paper else 4,
                        "n_traj_test": 10 if paper else 1,
                        "duration": 40.0 if paper else 8.0,
                        "expert_horizon": PENDULUM_EXPERT_HORIZON},
            "training": {"epochs": 100 if paper else 30,
                         "batch_size": 8,
                         "loss_weights": {"ctrl": 1.0, "cost": 1e-3},
                         "freeze": ["dynamics"], "lr": 1e-3,
                         "pretrain": {"epochs": 500 if paper else 200,
                                      "batch_size": 64, "lr": 1e-3},
                         "resume": False,
                         "target_test_ctrl_ratio": None},
            "evaluation": {"runs": 10 if paper else 3,
                           "duration": 60.0 if paper else 10.0},
            "simulate": {"runs": 1, "controller": "expert",
                         "duration": 10.0},
            "costmap": {"source": "teacher",
                        "theta_cells": 101, "theta_dot_cells": 101,
                        "theta_range": [-math.pi, math.pi],
                        "theta_dot_range": [-2.0 * math.pi, 2.0 * math.pi]},
        }

    def generate(self, cfg, root):
        protocol = cfg["evaluation"]
        _require(protocol is not None,
                 "evaluation must give runs and duration for the pendulum: "
                 "gen-data scores its expert under that protocol")
        ds = cfg["dataset"]
        horizon = ds["expert_horizon"]
        train, test, excluded = build_pendulum_dataset(
            root.child(0), ds["n_traj_train"], ds["n_traj_test"],
            ds["duration"], horizon)
        teacher = ModelSet(*pendulum_teacher_models())
        # closed_loop's stream, so an expert evaluation of this dataset
        # reproduces the manifest's expert metrics
        _, runs = self.simulate(self.expert(teacher, horizon), teacher,
                                root.child(2), protocol)
        metrics = {key: runs[key] for key in ("success_rate", "mean_cost")}
        print(f"expert evaluation: success rate {metrics['success_rate']:.2f}"
              f", mean cost {metrics['mean_cost']:.6g}")
        fields = {
            "evaluation": protocol,
            "sizes": {"n_traj_train": ds["n_traj_train"],
                      "n_traj_test": ds["n_traj_test"],
                      "transitions_train": len(train),
                      "transitions_test": len(test),
                      "excluded": excluded},
            "teacher": {"models": models_to_json(teacher),
                        "expert_horizon": horizon},
            "expert_metrics": metrics,
        }
        return (train, test, fields,
                f"wrote {len(train)} train / {len(test)} test transitions "
                f"({excluded} divergent runs dropped)")

    def write_dataset(self, path, samples):
        write_pendulum_dataset(path, samples)

    def read_dataset(self, path):
        return read_pendulum_dataset(path)

    def init_models(self, cfg, rng):
        return init_pendulum_models(rng, cfg["models"]["hidden"])

    def expert(self, teacher, horizon):
        # every pendulum teacher is the plant's own models, as in the expert
        return pendulum_expert(horizon)

    def simulation(self, cfg, out_dir, inputs):
        # the plant's own models, shared by every dataset
        teacher = ModelSet(*pendulum_teacher_models())
        return (teacher, teacher.dynamics.dt,
                cfg["dataset"]["expert_horizon"])

    def simulate(self, planner, teacher, root, sim):
        # benchmark_runs scores every run with the teacher's cost
        runs = sim["runs"]
        results, excluded = benchmark_runs(planner, root, runs,
                                           sim["duration"])
        # success rate over requested runs, mean cost over completed ones
        costs = [r.cost for r in results if r.cost is not None]
        return [(r.states, r.controls) for r in results], {
            "success_rate": sum(1 for r in results if r.success) / runs,
            "mean_cost": float(np.mean(costs)) if costs else None,
            "excluded": excluded,
            "per_run": [{"success": bool(r.success), "cost": r.cost}
                        for r in results]}

    def closed_loop(self, planner, manifest):
        """Simulate's metrics under the dataset's evaluation protocol."""
        protocol = manifest["evaluation"]
        stream = RngStream(manifest["seed"]).child(STREAM_DATA).child(2)
        _, metrics = self.simulate(planner, None, stream, protocol)
        del metrics["per_run"]
        metrics.update(protocol)
        return metrics

    def dynamics_errors(self, models, train, test):
        return {"train_dyn": (loss_dyn(models.dynamics, train, wrap=True)
                              if train else None),
                "test_dyn": (loss_dyn(models.dynamics, test, wrap=True)
                             if test else None)}

    def expert_metrics(self, manifest, train, test):
        expert = self.expert(ModelSet(*pendulum_teacher_models()),
                             manifest["dataset"]["expert_horizon"])
        return {"closed_loop": self.closed_loop(expert, manifest)}


ENVIRONMENTS = {"linear": LinearEnvironment(),
                "pendulum": PendulumEnvironment()}


# --------------------------------------------------------------- gen-data


def cmd_gen_data(cfg, out_dir, force):
    env = ENVIRONMENTS[cfg["environment"]]
    refuse_existing(out_dir, ["train_data.csv", "test_data.csv",
                              "manifest.json",
                              "resolved_config.gen-data.json"], force)
    started = time.time()
    train, test, fields, summary = env.generate(
        cfg, RngStream(cfg["seed"]).child(STREAM_DATA))
    env.write_dataset(os.path.join(out_dir, "train_data.csv"), train)
    env.write_dataset(os.path.join(out_dir, "test_data.csv"), test)
    write_json(os.path.join(out_dir, "manifest.json"),
               {"version": ARTIFACT_VERSION, "environment": env.name,
                "seed": cfg["seed"], "dataset": cfg["dataset"], **fields})
    write_resolved_config(out_dir, "gen-data", cfg)
    print(summary)
    print(f"elapsed {time.time() - started:.1f} s")


# ------------------------------------------------------------------- train


def cmd_train(cfg, out_dir, force):
    env = ENVIRONMENTS[cfg["environment"]]
    tr = cfg["training"]
    pretraining = tr.get("pretrain") is not None and not tr["resume"]
    artifacts = ["checkpoint_best.json", "checkpoint_last.json",
                 "history.csv", "train_report.json",
                 "resolved_config.train.json"]
    if pretraining:
        artifacts.append("pretrain_history.csv")
    refuse_existing(out_dir, artifacts, force)
    inputs = {}
    manifest, train_set, test_set = load_dataset(cfg, out_dir, env, inputs)
    hp = hyper_from_cfg(cfg["hyper"])
    _check_horizon(train_set, hp, "controller")
    root = RngStream(cfg["seed"]).child(STREAM_TRAIN)
    started = time.time()

    if tr["resume"]:
        models, ck = _load_models(cfg, out_dir, "checkpoint_last.json",
                                  inputs)
        opt = optimizer_from_json(ck["optimizer"])
        start_epoch = int(ck["epoch"])
    else:
        models = env.init_models(cfg, root.child(0))
        opt = OptimizerState(v=np.zeros(models.num_params), lr=tr["lr"])
        start_epoch = 0
    # refuse oversized configs before spending time on evals or pretraining
    check_memory_budget(hp, models.dynamics.state_dim, models.weight.dim,
                        budget=cfg["memory_budget"])

    sizes = _segment_sizes(models)
    total_params = sum(sizes.values())
    pieces = ", ".join(f"{name} {size}" for name, size in sizes.items())
    print(f"trainable parameters: {total_params} ({pieces})")
    for line in env.reference_results:
        print(line)

    pretrain_rows = None
    if pretraining:
        pt = tr["pretrain"]
        pretrain_rows = pretrain_dynamics(
            models.dynamics, train_set, test_set, pt["epochs"],
            pt["batch_size"], pt["lr"], rng=root.child(1), wrap=True)
        write_history_csv(os.path.join(out_dir, "pretrain_history.csv"),
                          pretrain_rows)
        print(f"pretrained dynamics: train {pretrain_rows[-1]['train_dyn']:.3e}"
              + ("" if pretrain_rows[-1]["test_dyn"] is None else
                 f", held-out {pretrain_rows[-1]['test_dyn']:.3e}"))

    best = {"epoch": None}

    def save_best(epoch, current_models, row):
        best["epoch"] = epoch
        best["row"] = dict(row)
        write_checkpoint(os.path.join(out_dir, "checkpoint_best.json"),
                         current_models, cfg["hyper"], env.name, epoch, opt)

    history = train_pinet(models, hp, train_set, test_set, env.regime,
                          tr["epochs"], tr["batch_size"],
                          freeze=tuple(tr["freeze"]),
                          loss_weights=tr["loss_weights"], goals=env.goals,
                          rng=root.child(2), lr=tr["lr"],
                          memory_budget=cfg["memory_budget"],
                          target_test_ctrl_ratio=tr["target_test_ctrl_ratio"],
                          on_best=save_best, opt_state=opt,
                          start_epoch=start_epoch)
    if tr["target_test_ctrl_ratio"] is not None and test_set:
        print("early-stop target: test control loss <= "
              f"{tr['target_test_ctrl_ratio'] * history[0]['test_ctrl']:.6e}")

    write_history_csv(os.path.join(out_dir, "history.csv"), history)
    final_epoch = int(history[-1]["epoch"])
    write_checkpoint(os.path.join(out_dir, "checkpoint_last.json"),
                     models, cfg["hyper"], env.name, final_epoch, opt)

    report = {
        "version": 1,
        "environment": env.name,
        "parameter_count": total_params,
        "parameter_segments": sizes,
        "epochs_run": final_epoch - start_epoch,
        "final_epoch": final_epoch,
        "best_epoch": best["epoch"],
        "initial": dict(history[0]),
        "final": dict(history[-1]),
        "best": best.get("row"),
        "pretrain_final": None if pretrain_rows is None
                          else dict(pretrain_rows[-1]),
        "closed_loop": env.closed_loop(_pi_planner(models, cfg["hyper"]),
                                       manifest),
    }
    _print_closed_loop(report["closed_loop"])
    write_json(os.path.join(out_dir, "train_report.json"), report)
    write_resolved_config(out_dir, "train", cfg, inputs)
    row = history[-1]
    print(f"final epoch {final_epoch}: train total {_fmt(row['train_total'])},"
          f" test total {_fmt(row['test_total'])}")
    print(f"elapsed {time.time() - started:.1f} s")


# -------------------------------------------------------------------- eval


def cmd_eval(cfg, out_dir, force):
    env = ENVIRONMENTS[cfg["environment"]]
    refuse_existing(out_dir, ["eval_report.json", "resolved_config.eval.json"],
                    force)
    inputs = {}
    manifest, train_set, test_set = load_dataset(cfg, out_dir, env, inputs)
    started = time.time()
    ck_ref = cfg["paths"]["checkpoint"] or os.path.join(out_dir,
                                                        "checkpoint_best.json")
    report = {"version": 1, "environment": env.name,
              "checkpoint": os.path.basename(ck_ref),
              "dataset_sizes": {"train": len(train_set),
                                "test": len(test_set)},
              "mse": None, "closed_loop": None, "demo_cost": None,
              "parameter_count": None, "parameter_segments": None}

    if ck_ref == "expert":
        report.update(env.expert_metrics(manifest, train_set, test_set))
    else:
        models, ck = _load_models(cfg, out_dir, "checkpoint_best.json",
                                  inputs)
        planner = _pi_planner(models, ck["hyper"])
        hp = planner.hp
        _check_horizon(train_set, hp, "checkpoint")
        sizes = _segment_sizes(models)
        report["parameter_count"] = sum(sizes.values())
        report["parameter_segments"] = sizes
        weights = {"ctrl": 1.0, "cost": 0.0}
        stream = RngStream(manifest["seed"]).child(STREAM_DATA).child(3)
        report["mse"] = {
            "train_ctrl": evaluate_losses(models, hp, train_set, env.regime,
                                          stream.child(0), weights)["ctrl"],
            "test_ctrl": evaluate_losses(models, hp, test_set, env.regime,
                                         stream.child(1), weights)["ctrl"],
            **env.dynamics_errors(models, train_set, test_set),
        }
        report["closed_loop"] = env.closed_loop(planner, manifest)

    write_json(os.path.join(out_dir, "eval_report.json"), report)
    write_resolved_config(out_dir, "eval", cfg, inputs)
    if report["mse"] is not None:
        print("MSE: " + _fmt_items(report["mse"]))
    if report["demo_cost"] is not None:
        print("demo cost: " + _fmt_items(report["demo_cost"]))
    _print_closed_loop(report["closed_loop"])
    if report["parameter_count"] is not None:
        print(f"trainable parameters: {report['parameter_count']}")
    print(f"elapsed {time.time() - started:.1f} s")


# ---------------------------------------------------------------- simulate


def cmd_simulate(cfg, out_dir, force):
    env = ENVIRONMENTS[cfg["environment"]]
    sim = cfg["simulate"]
    runs = sim["runs"]
    run_files = [f"run_{i:03d}.csv" for i in range(runs)]
    refuse_existing(out_dir, run_files + ["simulate_report.json",
                                          "resolved_config.simulate.json"],
                    force)
    root = RngStream(cfg["seed"]).child(STREAM_SIM)
    started = time.time()
    inputs = {}
    teacher, dt, expert_horizon = env.simulation(cfg, out_dir, inputs)
    controller = sim["controller"]
    if controller == "expert":
        planner = env.expert(teacher, expert_horizon)
    elif controller == "pi_teacher":
        planner = _pi_planner(teacher, cfg["hyper"])
    else:
        models, ck = _load_models(cfg, out_dir, "checkpoint_best.json",
                                  inputs)
        planner = _pi_planner(models, ck["hyper"])

    trajectories, metrics = env.simulate(planner, teacher, root, sim)
    for name, (states, controls) in zip(run_files, trajectories):
        write_trajectory_csv(os.path.join(out_dir, name), states, controls,
                             dt=dt, cost_model=teacher.cost)
    report = {"version": 1, "environment": env.name,
              "controller": controller, "metrics": metrics}
    write_json(os.path.join(out_dir, "simulate_report.json"), report)
    write_resolved_config(out_dir, "simulate", cfg, inputs)
    print(f"{runs} runs: " + _fmt_items(
        {key: value for key, value in metrics.items() if key != "per_run"}))
    print(f"elapsed {time.time() - started:.1f} s")


# --------------------------------------------------------------- gradcheck


def _fd_gradient(models, hp, x0, demo, noise_stream, coords):
    """Richardson-extrapolated central differences of the imitation loss.

    Plain central differences at step 1e-5 leave ~1e-10 of roundoff in each
    estimate, which swamps coordinates whose true gradient sits near the
    reporting floor.  Extrapolating two central stencils at a wider step
    keeps truncation negligible while shrinking the roundoff term.
    """
    base = models.get_params()
    fd = np.zeros(base.size)
    eps = 1e-4

    def loss_at(vec):
        models.set_params(vec)
        out, _ = pi_net_forward(x0, None, models, hp, noise_stream,
                                record=False)
        return loss_ctrl(out, demo)

    def central(j, step):
        hi = base.copy()
        lo = base.copy()
        hi[j] += step
        lo[j] -= step
        return (loss_at(hi) - loss_at(lo)) / (2.0 * step)

    try:
        for j in coords:
            wide = central(j, eps)
            narrow = central(j, eps / 2.0)
            fd[j] = (4.0 * narrow - wide) / 3.0
    finally:
        models.set_params(base)
    return fd


def cmd_gradcheck(cfg, out_dir, force):
    env = ENVIRONMENTS[cfg["environment"]]
    gc = cfg["gradcheck"]
    refuse_existing(out_dir, ["gradcheck_report.json",
                              "resolved_config.gradcheck.json"], force)
    hp = hyper_from_cfg(gc["hyper"])
    frozen = tuple(gc["freeze"])
    root = RngStream(cfg["seed"]).child(STREAM_GRAD)
    started = time.time()

    checks = {}  # live segment -> per-instance (rel, violation, est, ref)
    frozen_abs = {name: 0.0 for name in frozen}
    floor = gc["floor"]
    tolerance = gc["tolerance"]
    for i in range(gc["instances"]):
        inst = root.child(i)
        models = env.init_models(cfg, inst)
        weight = models.weight
        weight.set_params(0.3 * inst.child(2).generator().standard_normal(
            weight.num_params))
        x0 = inst.child(3).generator().normal(size=models.dynamics.state_dim)
        demo = inst.child(4).generator().normal(size=(hp.horizon, weight.dim))
        noise_stream = inst.child(5)

        # the training path, frozen segments included
        _, grad = sample_loss_and_grad(models, hp, OpenLoopSample(x0, demo),
                                       "open_loop", noise_stream,
                                       {"ctrl": 1.0}, freeze=frozen)
        for name in frozen:
            frozen_abs[name] = max(frozen_abs[name], float(
                np.max(np.abs(grad.segment(name)), initial=0.0)))

        live = [(name, offset, length) for name, offset, length in grad.layout
                if name not in frozen]
        coords = [j for _, offset, length in live
                  for j in range(offset, offset + length)]
        fd = _fd_gradient(models, hp, x0, demo, noise_stream, coords)
        for name, offset, length in live:
            seg_est = grad.values[offset:offset + length]
            seg_ref = fd[offset:offset + length]
            diff = np.abs(seg_est - seg_ref)
            rel = diff / np.maximum(np.abs(seg_ref), floor)
            # a disagreement below the oracle's own roundoff scale counts
            # as agreement, however small the reference coordinate is
            violation = (rel > tolerance) & (diff > floor * 1e-2)
            checks.setdefault(name, []).append((rel, violation, seg_est,
                                                seg_ref))

    segments = {}
    for name, rows in checks.items():
        rel, violation, est, ref = (np.stack(col) for col in zip(*rows))
        # the worst coordinate is the worst violating one when any
        # violates; row-major argmax picks the earliest instance on ties
        pool = np.where(violation, rel, -np.inf) if violation.any() else rel
        worst = np.unravel_index(np.argmax(pool), pool.shape)
        segments[name] = {"max_rel_err": float(rel[worst]),
                          "violations": int(np.count_nonzero(violation)),
                          "failed": bool(violation.any()),
                          "worst_coordinate": int(worst[1]),
                          "worst_instance": int(worst[0]),
                          "estimate": float(est[worst]),
                          "reference": float(ref[worst])}

    passed = not any(entry["failed"] for entry in segments.values())
    report = {"version": 1,
              "instances": gc["instances"],
              "tolerance": tolerance,
              "floor": floor,
              "segments": segments,
              "frozen_max_abs_gradient": frozen_abs,
              "passed": passed}
    write_json(os.path.join(out_dir, "gradcheck_report.json"), report)
    write_resolved_config(out_dir, "gradcheck", cfg)

    for name, entry in segments.items():
        print(f"segment {name}: max rel err {entry['max_rel_err']:.3e} "
              f"(coordinate {entry['worst_coordinate']}, "
              f"instance {entry['worst_instance']})")
    for name, peak in frozen_abs.items():
        print(f"segment {name}: frozen, max |gradient| {peak!r}")
    print(f"elapsed {time.time() - started:.1f} s")
    if not passed:
        failing = {name: entry for name, entry in segments.items()
                   if entry["failed"]}
        detail = "; ".join(
            f"{name} coordinate {entry['worst_coordinate']} on instance "
            f"{entry['worst_instance']}: {entry['estimate']!r} vs reference "
            f"{entry['reference']!r}" for name, entry in failing.items())
        raise NumericError(
            f"gradient check failed at tolerance {tolerance}: {detail}")
    print("gradient check passed")


# ----------------------------------------------------------- export-costmap


def _grid_axis(lo, hi, cells):
    """Evenly spaced axis whose symmetric midpoints come out exactly zero.

    ``np.linspace`` accumulates ``start + i * step``, which puts ~1e-16 of
    noise at the centre of a symmetric range.  The two-point interpolation
    form cancels exactly there and still pins both endpoints.
    """
    idx = np.arange(cells, dtype=float)
    return (lo * (cells - 1 - idx) + hi * idx) / (cells - 1)


def cmd_export_costmap(cfg, out_dir, force):
    _require(cfg["environment"] == "pendulum",
             "cost maps are defined for the pendulum environment")
    cm = cfg["costmap"]
    refuse_existing(out_dir, ["costmap.csv",
                              "resolved_config.export-costmap.json"], force)
    started = time.time()
    inputs = {}
    if cm["source"] == "teacher":
        cost = PendulumTeacherCost()
    else:
        cost = _load_models(cfg, out_dir, "checkpoint_best.json",
                            inputs)[0].cost

    thetas = _grid_axis(*cm["theta_range"], cm["theta_cells"])
    dots = _grid_axis(*cm["theta_dot_range"], cm["theta_dot_cells"])
    grid_theta, grid_dot = np.meshgrid(thetas, dots, indexing="ij")
    states = np.column_stack([grid_theta.ravel(), grid_dot.ravel()])
    values = cost.running(states)

    write_csv(os.path.join(out_dir, "costmap.csv"),
              ["theta", "theta_dot", "cost"],
              np.column_stack([states, values]).tolist())
    write_resolved_config(out_dir, "export-costmap", cfg, inputs)
    print(f"wrote {states.shape[0]} grid rows "
          f"({cm['theta_cells']} x {cm['theta_dot_cells']})")
    print(f"elapsed {time.time() - started:.1f} s")


# -------------------------------------------------------------------- main


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "simulate": cmd_simulate,
    "gradcheck": cmd_gradcheck,
    "export-costmap": cmd_export_costmap,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; keep 2 reserved for numeric failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="picontrol",
                     description="Reproducible experiments for the "
                                 "differentiable sampling controller.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen-data": "generate expert demonstrations and a manifest",
        "train": "pretrain (if configured) and train the controller",
        "eval": "dataset losses and closed-loop metrics for a checkpoint",
        "simulate": "closed-loop or planned rollouts written as CSV",
        "gradcheck": "compare the reverse pass against finite differences",
        "export-costmap": "evaluate a cost model over a state grid",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="JSON config merged over the profile defaults")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="output directory (default runs/<experiment-id>)")
        cmd.add_argument("--force", action="store_true",
                         help="overwrite existing artifacts")
        cmd.add_argument("--profile", choices=("desk", "paper"),
                         default="desk",
                         help="default-scale preset the config merges over")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.profile, args.seed)
        out_dir = args.out or os.path.join("runs", cfg["experiment_id"])
        os.makedirs(out_dir, exist_ok=True)
        with experiment_lock(out_dir):
            COMMANDS[args.command](cfg, out_dir, args.force)
    except MemoryBudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ParameterError, ShapeError, ConsistencyError, OSError,
            ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
