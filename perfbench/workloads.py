"""The benchmark's workloads: inputs, one measured round, output checks.

Every workload is a closed loop with one caller that waits for each
result.  ``setup`` turns the seed into inputs; ``run_round`` performs one
round of operations on those inputs and returns what they produced;
``probe`` makes the extra small program outputs some checks need; and
``check`` compares outputs with the independent computations in
``reference`` or with properties they must have, returning one boolean
per named check.  Rounds repeat the same inputs, so every round of a run
must reproduce the first round's outputs bit for bit.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference as ref
# Traced functions are called through their modules (envs.mpc_simulate,
# not a name bound here at import), so a traced run sees these calls too.
from picontrol import (ModelSet, PathIntegralPlanner, PendulumPlant,
                       PIHyperParams, RngStream, cli, controller, envs,
                       experts, training)
from picontrol.core import ParamVector, unpack_params

R_WEIGHT = 5.0   # the pendulum teacher's control weight, as the CLI uses it


@dataclass
class Round:
    """What one round produced and how long its parts took."""

    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    items: float = 0.0      # work items behind items_per_s
    items_s: float = 0.0    # seconds those items took
    figures: dict = field(default_factory=dict)  # name -> list of values


def digest(outputs):
    """sha256 over outputs in key order (arrays by dtype, shape, bytes)."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        if isinstance(value, bytes):
            h.update(value)
        else:
            arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _attempt(rnd, op):
    """Run one operation; an exception counts it as failed."""
    rnd.attempted += 1
    try:
        return op()
    except Exception as err:  # a failed operation is counted, not fatal
        rnd.failed += 1
        rnd.errors.append(f"{type(err).__name__}: {err}")
        return None


class TimedPlanner:
    """Planner-protocol adapter that times and keeps each plan it returns.

    The simulator is the caller here; wrapping the planner it is handed is
    how any user of ``mpc_simulate`` would time re-planning.
    """

    def __init__(self, inner):
        self.inner = inner
        self.plans = []
        self.latency = []

    horizon = property(lambda self: self.inner.horizon)
    control_dim = property(lambda self: self.inner.control_dim)
    warm_recurrences = property(lambda self: self.inner.warm_recurrences)

    def plan(self, x0, init=None, rng=None, recurrences=None):
        start = perf_counter()
        plan = self.inner.plan(x0, init=init, rng=rng, recurrences=recurrences)
        self.latency.append(perf_counter() - start)
        self.plans.append(plan)
        return plan


# --------------------------------------------------------------- swingup_pi


class SwingupPI:
    """Closed-loop swing-up with the sampling planner and teacher models.

    Paper scale: K=100 trajectories, N=30 steps, U=200 kernel iterations
    for the cold first plan and 20 for each warm-started re-plan.  A round
    is one closed-loop run of DURATION simulated seconds, the CLI's desk
    evaluation length (a cold plan and 99 warm re-plans).  The start state
    is drawn by the benchmark, keyed by the seed, from the swing-up start
    distribution: theta ~ U[-pi, pi), theta_dot ~ U[-1, 1].
    """

    name = "swingup_pi"
    DURATION = 10.0

    def __init__(self, hyper=None, warm=20, duration=None):
        self.hyper = hyper or PIHyperParams(
            lambda_=0.01, nu=1500.0, sigma=0.005, num_samples=100,
            horizon=30, recurrences=200)
        self.warm = warm
        self.duration = duration or self.DURATION

    def setup(self, seed, workdir):
        dynamics, cost, weight = envs.pendulum_teacher_models(
            control_weight=R_WEIGHT)
        planner = PathIntegralPlanner(ModelSet(dynamics, cost, weight),
                                      self.hyper, warm_recurrences=self.warm)
        gen = np.random.default_rng([seed, 7])
        start = np.array([-np.pi + 2.0 * np.pi * gen.uniform(),
                          gen.uniform(-1.0, 1.0)])
        return {"seed": seed, "planner": planner, "plant": PendulumPlant(),
                "cost": cost, "weight": weight.matrix(), "start": start}

    def run_round(self, inputs):
        rnd = Round(figures={"cold_plan_s": [], "warm_plan_ms": [],
                             "control_steps_per_s": []})
        timed = TimedPlanner(inputs["planner"])
        start = perf_counter()
        result = _attempt(rnd, lambda: envs.mpc_simulate(
            timed, inputs["plant"], inputs["start"], self.duration,
            rng=RngStream(inputs["seed"]).child(0),
            cost_model=inputs["cost"], weight_matrix=inputs["weight"]))
        elapsed = perf_counter() - start
        if result is None:
            return rnd
        rnd.outputs = {"states": result.states, "controls": result.controls,
                       "plans": np.stack(timed.plans), "cost": result.cost}
        warm = timed.latency[1:]
        rnd.items, rnd.items_s = len(warm), sum(warm)
        rnd.figures["cold_plan_s"].append(timed.latency[0])
        rnd.figures["warm_plan_ms"] += [1e3 * t for t in warm]
        rnd.figures["control_steps_per_s"].append(
            result.controls.shape[0] / elapsed)
        return rnd

    def probe_hyper(self):
        hp = self.hyper
        return PIHyperParams(lambda_=hp.lambda_, nu=hp.nu, sigma=hp.sigma,
                             num_samples=8, horizon=10, recurrences=3)

    def probe(self, inputs):
        """A small plan from the start state, for the update-law check."""
        plan, _ = controller.pi_net_forward(
            inputs["start"], None, inputs["planner"].models,
            self.probe_hyper(), RngStream(inputs["seed"]).child(99))
        return {"probe.update_law": plan}

    def check(self, inputs, outputs):
        states, controls = outputs["states"], outputs["controls"]
        transitions = True
        for t in range(controls.shape[0]):
            want = ref.pendulum_step(states[t], controls[t, 0])
            if not (ref.angle_gap(want[0], states[t + 1, 0]) <= 1e-9
                    and abs(want[1] - states[t + 1, 1]) <= 1e-9):
                transitions = False
        cost = float(outputs["cost"])
        want_cost = ref.realized_cost(states, controls, R_WEIGHT)
        hp = self.probe_hyper()
        want_plan = ref.pi_plan(
            inputs["start"], np.zeros((hp.horizon, 1)), hp.recurrences,
            lam=hp.lambda_, nu=hp.nu, sigma=hp.sigma,
            num_samples=hp.num_samples, r_weight=R_WEIGHT,
            seed=inputs["seed"], key=(99,))
        return {
            "plant_transitions": transitions,
            "realized_cost": bool(abs(cost - want_cost)
                                  <= 1e-9 * max(1.0, abs(want_cost))),
            "applied_first_controls": bool(
                np.array_equal(outputs["plans"][:, 0], controls)),
            "update_law": bool(np.max(np.abs(
                outputs["probe.update_law"] - want_plan)) <= 1e-9),
        }


# ------------------------------------------------------------- linear_train


class LinearTrain:
    """Open-loop imitation on a random linear system at desk scale.

    K=50, N=50, U=50; eight LQR demonstrations form the batch.  A round is
    an evaluate_losses pass over the batch followed by a one-epoch
    train_pinet pass from freshly initialised models; the batch holds the
    whole training set, so the pass makes exactly one RMSProp step.
    """

    name = "linear_train"
    N_TRAIN = 8
    N_TEST = 2
    EPOCHS = 1
    BATCH = 8
    LR = 1e-3
    WEIGHTS = {"ctrl": 1.0, "cost": 0.0}

    def __init__(self, hyper=None, n_train=None, n_test=None):
        self.hyper = hyper or PIHyperParams(
            lambda_=0.01, nu=1500.0, sigma=0.2, num_samples=50, horizon=50,
            recurrences=50)
        self.n_train = n_train or self.N_TRAIN
        self.n_test = self.N_TEST if n_test is None else n_test

    def setup(self, seed, workdir):
        root = RngStream(seed)
        teacher = envs.sample_linear_teacher(root.child(1), 0.01)
        train, test = training.build_linear_dataset(
            teacher, root.child(0), self.n_train, self.n_test,
            self.hyper.horizon)
        return {"seed": seed, "root": root, "teacher": teacher,
                "train": train, "test": test}

    def run_round(self, inputs):
        root, train = inputs["root"], inputs["train"]
        rnd = Round(figures={"eval_samples_per_s": [],
                             "train_samples_per_s": []})
        models = training.init_linear_models(root.child(2))
        # the stream train_pinet uses for its epoch-0 train snapshot
        eval_stream = root.child(3).child(0).child(1)
        start = perf_counter()
        losses = _attempt(rnd, lambda: training.evaluate_losses(
            models, self.hyper, train, "open_loop", eval_stream,
            self.WEIGHTS))
        eval_s = perf_counter() - start
        start = perf_counter()
        history = _attempt(rnd, lambda: training.train_pinet(
            models, self.hyper, train, inputs["test"], "open_loop",
            epochs=self.EPOCHS, batch_size=self.BATCH,
            loss_weights=self.WEIGHTS, rng=root.child(3), lr=self.LR))
        train_s = perf_counter() - start
        out = rnd.outputs
        out["demo.x0"] = np.stack([s.x0 for s in train + inputs["test"]])
        out["demo.useq"] = np.stack([s.useq for s in train + inputs["test"]])
        if losses is not None:
            out["eval.ctrl"] = losses["ctrl"]
            rnd.figures["eval_samples_per_s"].append(len(train) / eval_s)
        if history is not None:
            out["train.loss"] = np.array([row["train_total"]
                                          for row in history])
            out["train.ctrl0"] = history[0]["train_ctrl"]
            out["train.params"] = models.pack().values
            rnd.items += self.EPOCHS * len(train)
            rnd.items_s += train_s
            rnd.figures["train_samples_per_s"].append(
                self.EPOCHS * len(train) / train_s)
        return rnd

    def probe(self, inputs):
        """Reverse-pass and central-difference directional derivatives of
        one sample's imitation loss at the initial parameters, and the
        batch gradient of the training pass.

        The derivative check runs the same code at lambda 0.5 instead of
        0.01: at 0.01 the trajectory softmax makes the loss so sharp at some
        parameters (gradient norm 1.6e7 on seed 16) that central
        differences only converge for steps below 1e-9.
        """
        root = inputs["root"]
        models = training.init_linear_models(root.child(2))
        sample = inputs["train"][0]
        stream = root.child(5)
        smooth = dataclasses.replace(self.hyper, lambda_=0.5)
        _, grad = training.sample_loss_and_grad(
            models, smooth, sample, "open_loop", stream, self.WEIGHTS)
        base = models.pack()
        direction = np.random.default_rng([inputs["seed"], 5]).normal(
            size=base.size)
        direction /= np.linalg.norm(direction)

        def loss_at(step):
            unpack_params(ParamVector(base.layout,
                                      base.values + step * direction),
                          models.items())
            plan, _ = controller.pi_net_forward(sample.x0, None, models,
                                                smooth, stream)
            return training.loss_ctrl(plan, sample.useq)

        def central(h):
            return (loss_at(h) - loss_at(-h)) / (2.0 * h)

        # Richardson extrapolation keeps the truncation error far below
        # the tolerance
        fd = (4.0 * central(5e-7) - central(1e-6)) / 3.0
        unpack_params(base, models.items())
        # the batch gradient of train_pinet's only step (the batch holds
        # the whole training set), rebuilt from per-sample gradients in
        # ascending dataset order on the same noise streams
        batch = np.zeros(base.size)
        for j, sample in enumerate(inputs["train"]):
            _, g = training.sample_loss_and_grad(
                models, self.hyper, sample, "open_loop",
                root.child(3).child(1, j), self.WEIGHTS)
            batch += g.values
        batch /= len(inputs["train"])
        return {"probe.grad_dir": float(grad.values @ direction),
                "probe.fd_dir": fd, "probe.params0": base.values,
                "probe.batch_grad": batch}

    def check(self, inputs, outputs):
        teacher = inputs["teacher"]
        want = ref.lq_direct(teacher.F, teacher.G, teacher.Q, teacher.R,
                             outputs["demo.x0"], self.hyper.horizon)
        got = outputs["demo.useq"]
        scale = max(1.0, float(np.max(np.abs(want))))
        g, fd = outputs["probe.grad_dir"], outputs["probe.fd_dir"]
        loss = outputs["train.loss"]
        # one RMSProp step from zero accumulators (decay 0.9, epsilon 1e-8)
        grad = outputs["probe.batch_grad"]
        second = (1.0 - 0.9) * grad * grad
        step = outputs["probe.params0"] - self.LR * grad / (np.sqrt(second)
                                                             + 1e-8)
        return {
            "demos_match_lq": bool(np.max(np.abs(got - want)) <= 1e-8 * scale),
            "gradient_matches_fd": bool(abs(g - fd)
                                        <= 1e-5 * max(abs(fd), 0.1)),
            "eval_matches_train_snapshot": bool(
                outputs["eval.ctrl"] == outputs["train.ctrl0"]),
            "losses_finite": bool(np.all(np.isfinite(loss))),
            "rmsprop_step": bool(np.max(np.abs(outputs["train.params"] - step))
                                 <= 1e-12 * max(1.0, np.max(np.abs(step)))),
        }


# ------------------------------------------------------------- cli_pendulum


class CliPendulum:
    """The pendulum pipeline gen-data -> train -> eval through cli.main.

    Reduced size: three expert demonstration runs of 2 s with a 30-step
    iLQR horizon, dynamics pretraining, MPC-regime imitation with the
    dynamics frozen, MLP models, and a 2 s closed-loop evaluation.
    """

    # control perturbation of the expert local-minimum check: large enough
    # that the objective's curvature outweighs what the iLQR convergence
    # tolerance leaves of the gradient (at 1e-3 some moves lowered the
    # objective; at 0.02 the smallest rise over 1200 surveyed start states
    # was 1.58 * 0.02**2), small enough to stay in the plan's basin
    PERTURBATION = 0.02

    name = "cli_pendulum"
    CONFIG = {
        "dataset": {"n_traj_train": 2, "n_traj_test": 1, "duration": 2.0,
                    "expert_horizon": 30},
        "evaluation": {"runs": 1, "duration": 2.0},
        "hyper": {"num_samples": 30, "recurrences": 10,
                  "warm_recurrences": 3},
        "training": {"epochs": 1, "batch_size": 8,
                     "pretrain": {"epochs": 30, "batch_size": 64,
                                  "lr": 1e-3}},
    }
    COMMANDS = ("gen-data", "train", "eval")

    def __init__(self, config=None):
        self.config = config or self.CONFIG

    def setup(self, seed, workdir):
        dirs = {cmd: os.path.join(workdir, cmd) for cmd in self.COMMANDS}
        config = json.loads(json.dumps(self.config))
        config["paths"] = {"dataset": dirs["gen-data"],
                           "checkpoint": os.path.join(
                               dirs["train"], "checkpoint_best.json")}
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        return {"seed": seed, "config": path, "dirs": dirs}

    def run_round(self, inputs):
        rnd = Round(figures={f"{cmd}_s": [] for cmd in self.COMMANDS})
        seconds = {}
        for cmd in self.COMMANDS:
            argv = [cmd, "--config", inputs["config"], "--seed",
                    str(inputs["seed"]), "--out", inputs["dirs"][cmd],
                    "--force"]
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = _attempt(rnd, lambda: cli.main(argv))
            seconds[cmd] = perf_counter() - start
            rnd.figures[f"{cmd}_s"].append(seconds[cmd])
            if code not in (0, None):
                rnd.failed += 1
                rnd.errors.append(f"{cmd} exited {code}")
        for cmd, folder in inputs["dirs"].items():
            if not os.path.isdir(folder):
                continue
            for fname in sorted(os.listdir(folder)):
                with open(os.path.join(folder, fname), "rb") as fh:
                    rnd.outputs[f"{cmd}/{fname}"] = fh.read()
        manifest = rnd.outputs.get("gen-data/manifest.json")
        if manifest is not None and "train" in seconds and not rnd.failed:
            samples = json.loads(manifest)["sizes"]["transitions_train"]
            rnd.items += self.config["training"]["epochs"] * samples
            rnd.items_s += seconds["train"]
        return rnd

    def probe(self, inputs):
        """The iLQR expert's plan, as gen-data configures it, from the
        dataset's first start state, for the local-minimum check."""
        path = os.path.join(inputs["dirs"]["gen-data"], "train_data.csv")
        with open(path) as fh:
            first = list(csv.reader(fh))[1]
        x0 = np.array([float(first[2]), float(first[3])])
        dynamics, cost, weight = envs.pendulum_teacher_models()
        result = experts.ilqr_solve(
            dynamics, cost, weight.matrix(), x0,
            int(self.config["dataset"]["expert_horizon"]),
            experts.ILQRSettings(max_iterations=100))
        return {"probe.expert_x0": x0, "probe.expert_plan": result.controls}

    def check(self, inputs, outputs):
        ok = {"dataset_transitions": True}
        for split in ("train_data.csv", "test_data.csv"):
            rows = list(csv.reader(io.StringIO(
                outputs[f"gen-data/{split}"].decode())))
            for row in rows[1:]:
                theta, dot, torque, theta1, dot1 = (float(v) for v in row[2:])
                want = ref.pendulum_step([theta, dot], torque)
                if not (ref.angle_gap(want[0], theta1) <= 1e-9
                        and abs(want[1] - dot1) <= 1e-9):
                    ok["dataset_transitions"] = False
        pretrain = list(csv.DictReader(io.StringIO(
            outputs["train/pretrain_history.csv"].decode())))
        report = json.loads(outputs["eval/eval_report.json"])
        x0, plan = outputs["probe.expert_x0"], outputs["probe.expert_plan"]
        best = ref.plan_objective(x0, plan, R_WEIGHT)
        ok["expert_local_minimum"] = True
        for index in np.ndindex(plan.shape):
            for sign in (1.0, -1.0):
                moved = plan.copy()
                moved[index] += sign * self.PERTURBATION
                if ref.plan_objective(x0, moved, R_WEIGHT) <= best:
                    ok["expert_local_minimum"] = False
        ok["frozen_dynamics"] = (report["mse"]["train_dyn"]
                                 == float(pretrain[-1]["train_dyn"]))
        models = json.loads(outputs["train/checkpoint_best.json"])["models"]
        expected = 0
        for entry in models.values():
            cfg = entry["config"]
            if entry["type"] == "mlp_dynamics":   # (theta, dot, u) -> accel
                expected += 5 * cfg["hidden"] + 1
            elif entry["type"] == "mlp_cost":     # (theta, dot) -> outputs
                h, o = cfg["hidden"], cfg["outputs"]
                expected += 3 * h + o * h + o
            elif entry["type"] == "control_weight":  # lower triangle of L
                expected += cfg["m"] * (cfg["m"] + 1) // 2
        train_report = json.loads(outputs["train/train_report.json"])
        ok["parameter_count"] = (
            expected == train_report["parameter_count"]
            == report["parameter_count"]
            == sum(train_report["parameter_segments"].values()))
        return ok


WORKLOADS = {w.name: w for w in (SwingupPI, LinearTrain, CliPendulum)}
