"""Run every CLI command on tiny configs and print each artifact's sha256.

Usage:
    PYTHONPATH=src python tools/cli_digests.py OUT_DIR [--seed N]   # N defaults to 7

Each command of both environments runs once into its own directory under
OUT_DIR (which must not hold earlier results), including one train and
one gradcheck with a frozen segment, a pendulum simulate whose planner
warm-starts, and a linear gen-data, train and eval without a test split
(its test_data.csv is empty and its test metrics are null).  Gradcheck
checks each environment's own models; export-costmap refuses a linear
config, so it runs on the pendulum only, as does one more train whose
pretraining overshoots at lr 0.3 and so reaches the plateau schedule,
which halves its rate (the other runs pretrain for fewer epochs than the
schedule's patience).  Command output goes to stderr;
stdout gets one ``sha256  path`` line per artifact, path relative to
OUT_DIR, sorted.
Artifacts are byte-identical on rerun, so two checkouts can be compared
with one diff:

    PYTHONPATH=src python tools/cli_digests.py /tmp/new > new.txt
    PYTHONPATH=../old/src python tools/cli_digests.py /tmp/old > old.txt
    diff old.txt new.txt

Exits 1 when a command fails.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys

from picontrol import cli

LINEAR = {
    "environment": "linear",
    "hyper": {"num_samples": 4, "horizon": 12, "recurrences": 2},
    "dataset": {"n_train": 4, "n_test": 2, "demo_horizon": 12},
    "training": {"epochs": 2, "batch_size": 2},
    "simulate": {"runs": 2, "horizon": 12},
}

PENDULUM = {
    "environment": "pendulum",
    "hyper": {"num_samples": 4, "recurrences": 2, "warm_recurrences": 2},
    "dataset": {"n_traj_train": 1, "n_traj_test": 1, "duration": 1.0,
                "expert_horizon": 30},
    "evaluation": {"runs": 1, "duration": 1.0},
    "training": {"epochs": 1, "batch_size": 4,
                 "pretrain": {"epochs": 3, "batch_size": 4, "lr": 1e-3}},
    "simulate": {"runs": 2, "duration": 1.0},
    "gradcheck": {"instances": 2},
    "costmap": {"theta_cells": 5, "theta_dot_cells": 3},
}


def _merge(base, override):
    out = json.loads(json.dumps(base))
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def runs(out):
    """(run directory, command, config) in dependency order."""
    steps = []
    for env, base in (("linear", LINEAR), ("pendulum", PENDULUM)):
        data = os.path.join(out, env, "gen-data")
        best = os.path.join(out, env, "train", "checkpoint_best.json")
        use_data = {"paths": {"dataset": data}}
        use_both = {"paths": {"dataset": data, "checkpoint": best}}
        trees = [
            ("gen-data", "gen-data", {}),
            ("train", "train", use_data),
            ("train-frozen", "train",
             {**use_data, "training": {"freeze": ["cost"]}}),
            ("eval", "eval", use_both),
            ("simulate-expert", "simulate", use_data),
            ("simulate-pi_teacher", "simulate",
             {**use_data, "simulate": {"controller": "pi_teacher"}}),
            ("simulate-checkpoint", "simulate",
             {**use_both, "simulate": {"controller": "checkpoint"}}),
            ("gradcheck", "gradcheck", {}),
            ("gradcheck-frozen", "gradcheck",
             {"gradcheck": {"freeze": ["dynamics"]}}),
        ]
        if env == "linear":
            empty = os.path.join(out, env, "gen-data-no-test")
            no_test = {"dataset": {"n_test": 0}, "paths": {"dataset": empty}}
            trees += [
                ("gen-data-no-test", "gen-data", {"dataset": {"n_test": 0}}),
                ("train-no-test", "train", no_test),
                # without a test split train writes no best checkpoint
                ("eval-no-test", "eval", _merge(no_test, {"paths": {
                    "checkpoint": os.path.join(out, env, "train-no-test",
                                               "checkpoint_last.json")}})),
            ]
        if env == "pendulum":
            trees += [
                ("train-plateau", "train", {**use_data, "training": {
                    "pretrain": {"epochs": 12, "lr": 0.3}}}),
                ("export-costmap", "export-costmap", {}),
                ("export-costmap-checkpoint", "export-costmap",
                 {"paths": {"checkpoint": best},
                  "costmap": {"source": "checkpoint"}}),
            ]
        steps += [(os.path.join(env, name), command, _merge(base, tree))
                  for name, command, tree in trees]
    return steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", metavar="OUT_DIR")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    configs = os.path.join(out, "configs")
    os.makedirs(configs, exist_ok=True)
    run_dirs = []
    for name, command, tree in runs(out):
        cfg = os.path.join(configs, name.replace(os.sep, "-") + ".json")
        with open(cfg, "w") as fh:
            json.dump(tree, fh)
        run_dir = os.path.join(out, name)
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main([command, "--config", cfg, "--seed",
                             str(args.seed), "--out", run_dir])
        if code != 0:
            print(f"{name}: {command} exited {code}", file=sys.stderr)
            return 1
        run_dirs.append(run_dir)
    digests = {}
    for run_dir in run_dirs:
        for file in os.listdir(run_dir):
            path = os.path.join(run_dir, file)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(
                    fh.read()).hexdigest()
    for path, digest in sorted(digests.items()):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
