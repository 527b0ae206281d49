"""Losses, optimizer, datasets, and the imitation training loops.

Three regimes mirror the experimental recipes: dynamics pre-training on
transition data, open-loop imitation of full expert sequences (linear
systems), and MPC-style imitation of first controls with the dynamics
model frozen (pendulum).  All gradients flow through the recorded
controller forward pass; nothing here differentiates anything itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .controller import ModelSet, pi_net_backward, pi_net_forward
from .core import (MemoryBudgetError, NumericError, ParamVector, ParameterError,
                   PIHyperParams, RngStream, ShapeError, unpack_params,
                   write_csv)
from .envs import (PENDULUM_EXPERT_HORIZON, benchmark_runs, pendulum_expert,
                   pendulum_teacher_models, sample_linear_teacher, wrap_angle)
from .experts import LQRPlanner, LQRProblem
from .models import ControlCostWeight, MLPCost, MLPDynamics, QuadraticCost

PENDULUM_GOALS = np.array([[np.pi, 0.0], [-np.pi, 0.0]])
DEFAULT_MEMORY_BUDGET = 1 << 30  # one GiB of tape per training batch


@dataclass(frozen=True)
class OpenLoopSample:
    """Expert start state and the full demonstrated control sequence."""

    x0: np.ndarray
    useq: np.ndarray


@dataclass(frozen=True)
class MPCSample:
    """One expert transition: state, applied control, next state."""

    x: np.ndarray
    u: np.ndarray
    x_next: np.ndarray


# ----------------------------------------------------------------- losses


def loss_ctrl(pred, demo):
    """Mean squared control error.

    A full-sequence demo (N, m) is compared entrywise; a single-control
    demo (m,) is compared against the first predicted control only.
    """
    pred = np.asarray(pred, dtype=float)
    demo = np.asarray(demo, dtype=float)
    if demo.ndim == 1:
        if pred.shape[1] != demo.shape[0]:
            raise ShapeError(f"control dims differ: {pred.shape} vs {demo.shape}")
        return float(np.mean((pred[0] - demo) ** 2))
    if pred.shape != demo.shape:
        raise ShapeError(f"sequence shapes differ: {pred.shape} vs {demo.shape}")
    return float(np.mean((pred - demo) ** 2))


def _stack_transitions(samples):
    """(X, U, X') arrays of a transition list, one row per sample."""
    return (np.stack([s.x for s in samples]), np.stack([s.u for s in samples]),
            np.stack([s.x_next for s in samples]))


def _dyn_residual(dynamics, X, U, Xn, wrap):
    """One-step predictions minus observed next states; with wrap, the
    angle component is wrapped to (-pi, pi]."""
    diff = dynamics.forward(X, U) - Xn
    if wrap:
        diff[:, 0] = wrap_angle(diff[:, 0])
    return diff


def loss_dyn(dynamics, samples, wrap=False):
    """MSE between one-step predictions and observed next states."""
    diff = _dyn_residual(dynamics, *_stack_transitions(samples), wrap)
    return float(np.mean(diff ** 2))


def loss_cost(cost_model, goals, x_batch):
    """Goal-margin ramp: mean over pairs of max(0, q(goal) - q(x))."""
    goals = np.atleast_2d(np.asarray(goals, dtype=float))
    x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
    q_g = cost_model.running(goals)
    q_x = cost_model.running(x_batch)
    return float(np.mean(np.maximum(0.0, q_g[None, :] - q_x[:, None])))


def _loss_cost_param_grad(cost_model, goals, x_batch):
    """Gradient of loss_cost with respect to the cost parameters."""
    goals = np.atleast_2d(np.asarray(goals, dtype=float))
    x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
    q_g = cost_model.running(goals)
    q_x = cost_model.running(x_batch)
    active = (q_g[None, :] - q_x[:, None]) > 0.0  # (B, G)
    scale = 1.0 / active.size
    _, g_bar = cost_model.running_vjp(goals, active.sum(axis=0) * scale)
    _, x_bar = cost_model.running_vjp(x_batch, -active.sum(axis=1) * scale)
    return g_bar + x_bar


# -------------------------------------------------------------- optimizer


@dataclass
class OptimizerState:
    """RMSProp accumulators plus the plateau-schedule bookkeeping."""

    v: np.ndarray
    lr: float = 1e-3
    epochs_since_improvement: int = 0
    best_loss: float = math.inf

    def __post_init__(self):
        if self.lr <= 0:
            raise ParameterError("learning rate must be positive")
        if np.any(self.v < 0.0):
            raise ParameterError("second-moment accumulators must be >= 0")


def rmsprop_step(params, grads, state: OptimizerState, decay=0.9,
                 epsilon=1e-8):
    """One in-place RMSProp update; entries with a zero gradient keep their
    value bitwise (p - lr * 0 / (sqrt(v) + eps) == p)."""
    if not (0.0 < decay < 1.0) or epsilon <= 0:
        raise ParameterError("decay must lie in (0, 1) and epsilon above 0")
    params = np.asarray(params)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.v.shape:
        raise ShapeError("parameter/gradient/accumulator shapes differ")
    state.v[:] = decay * state.v + (1.0 - decay) * grads * grads
    params -= state.lr * grads / (np.sqrt(state.v) + epsilon)
    return params


def lr_plateau_schedule(state: OptimizerState, epoch_loss, patience=5,
                        factor=2.0) -> OptimizerState:
    """Halve the rate after `patience` consecutive non-improving epochs."""
    if epoch_loss < state.best_loss:
        state.best_loss = epoch_loss
        state.epochs_since_improvement = 0
    else:
        state.epochs_since_improvement += 1
        if state.epochs_since_improvement >= patience:
            state.lr /= factor
            state.epochs_since_improvement = 0
    return state


# --------------------------------------------------------------- datasets


def build_linear_dataset(teacher, rng: RngStream, n_train=950, n_test=50,
                         horizon=200):
    """Expert demonstrations for one random linear system.

    Each sample pairs a standard-normal start state with the exact LQR
    control sequence for it.
    """
    problem = LQRProblem(teacher.F, teacher.G, teacher.Q, teacher.R, horizon)
    planner = LQRPlanner(problem)

    def draw(stream, count):
        samples = []
        for i in range(count):
            x0 = stream.child(i).generator().normal(size=teacher.F.shape[0])
            samples.append(OpenLoopSample(x0, planner.plan(x0)))
        return samples

    return draw(rng.child(0), n_train), draw(rng.child(1), n_test)


def expert_rollouts(rng: RngStream, count, duration=40.0,
                    expert_horizon=PENDULUM_EXPERT_HORIZON):
    """Closed-loop demonstration runs by the converged iLQR teacher."""
    return benchmark_runs(pendulum_expert(expert_horizon), rng, count,
                          duration)


def transitions_from(results):
    """Slice simulation results into consecutive (x, u, x') samples."""
    samples = []
    for result in results:
        for t in range(result.controls.shape[0]):
            samples.append(MPCSample(result.states[t].copy(),
                                     result.controls[t].copy(),
                                     result.states[t + 1].copy()))
    return samples


def build_pendulum_dataset(rng: RngStream, n_traj_train=50, n_traj_test=10,
                           duration=40.0,
                           expert_horizon=PENDULUM_EXPERT_HORIZON):
    """Expert MPC transitions for the swing-up task.

    Trajectories start from theta ~ U[-pi, pi], theta_dot ~ U[-1, 1] and
    are sliced into consecutive (x, u, x') samples.  Divergent rollouts
    are dropped and counted.

    Returns:
        (train_samples, test_samples, excluded_count)
    """
    train_runs, dropped_train = expert_rollouts(rng.child(0), n_traj_train,
                                                duration, expert_horizon)
    test_runs, dropped_test = expert_rollouts(rng.child(1), n_traj_test,
                                              duration, expert_horizon)
    return (transitions_from(train_runs), transitions_from(test_runs),
            dropped_train + dropped_test)


def init_linear_models(rng: RngStream, dt=0.01) -> ModelSet:
    """Random learner triple for the linear experiments.

    The dynamics start from a fresh draw of the same random-system law
    the teacher uses (orthogonal drift, actuation on the first two
    states), so they differ from any given teacher while staying in
    distribution.  Quadratic-cost entries are N(0, dt) draws; the weight
    factor takes the same draws with clipped log magnitudes on the
    diagonal so R starts positive definite near the teacher's scale.
    """
    dynamics, _, _ = sample_linear_teacher(rng.child(0), dt).models()
    n, m = dynamics.state_dim, dynamics.control_dim
    gen = rng.child(1).generator()
    std = np.sqrt(dt)
    cost = QuadraticCost(gen.normal(0.0, std, size=(n, n)))
    rows, cols = np.tril_indices(m)
    factor = gen.normal(0.0, std, size=rows.size)
    diag = rows == cols
    factor[diag] = np.clip(np.log(np.abs(factor[diag])),
                           np.log(1e-3), np.log(1e3))
    return ModelSet(dynamics, cost, ControlCostWeight(m, factor))


def init_pendulum_models(rng: RngStream, hidden=12) -> ModelSet:
    """Untrained network triple for the swing-up experiments.

    The dynamics network steps at the plant's time step.  The control
    weight starts at the identity; both networks get the fan-in-scaled
    random weights and zero biases.
    """
    plant_dynamics, _, _ = pendulum_teacher_models()
    return ModelSet(MLPDynamics(hidden=hidden, dt=plant_dynamics.dt,
                                init_rng=rng.child(0)),
                    MLPCost(hidden=hidden, outputs=hidden,
                            init_rng=rng.child(1)),
                    ControlCostWeight(1))


# ------------------------------------------------------------ pre-training


def pretrain_dynamics(dynamics, train_samples, test_samples, epochs,
                      batch_size=64, lr=1e-3, rng: RngStream | None = None,
                      wrap=True):
    """Fit the dynamics model to transitions by minimizing loss_dyn.

    Returns the per-epoch history; the model is trained in place.

    Raises:
        NumericError: the loss left the finite range.
    """
    if not train_samples:
        raise ParameterError("training set is empty")
    rng = rng or RngStream(0)
    train = _stack_transitions(train_samples)
    test = _stack_transitions(test_samples) if test_samples else None
    X, U, Xn = train
    state = OptimizerState(v=np.zeros(dynamics.num_params), lr=lr)

    def mse(data):
        if data is None:
            return None
        return float(np.mean(_dyn_residual(dynamics, *data, wrap) ** 2))

    history = [{"epoch": 0, "lr": state.lr, "train_dyn": mse(train),
                "test_dyn": mse(test)}]
    for epoch in range(1, epochs + 1):
        order = rng.child(epoch).generator().permutation(X.shape[0])
        for lo in range(0, X.shape[0], batch_size):
            idx = order[lo:lo + batch_size]
            xb, ub = X[idx], U[idx]
            diff = _dyn_residual(dynamics, xb, ub, Xn[idx], wrap)
            cot = (2.0 / diff.size) * diff
            _, _, grad = dynamics.vjp(xb, ub, cot)
            params = dynamics.get_params()
            rmsprop_step(params, grad, state)
            dynamics.set_params(params)
        train_loss = mse(train)
        if not np.isfinite(train_loss):
            raise NumericError(f"dynamics loss diverged at epoch {epoch}: "
                               f"{train_loss}")
        lr_plateau_schedule(state, train_loss)
        history.append({"epoch": epoch, "lr": state.lr,
                        "train_dyn": train_loss, "test_dyn": mse(test)})
    return history


# ------------------------------------------------------- end-to-end loops


def tape_bytes(hp: PIHyperParams, state_dim, control_dim):
    """Bytes of the KernelRecords of one recorded forward.

    Training records and releases one sample's tape at a time, so this is
    what a training step holds whatever the batch size.
    """
    K, N, U = hp.num_samples, hp.horizon, hp.recurrences
    per_record = (K * (N * control_dim + (N + 1) * state_dim + N)
                  + N * control_dim)
    return 8 * U * per_record


def check_memory_budget(hp, state_dim, control_dim,
                        budget=DEFAULT_MEMORY_BUDGET):
    need = tape_bytes(hp, state_dim, control_dim)
    if need > budget:
        factor = math.ceil(need / budget)
        raise MemoryBudgetError(
            f"recorded forward needs ~{need} bytes per sample "
            f"(budget {budget}); reduce K/N/U by ~{factor}x")


def _start_and_demo(sample, regime):
    """(start state, demonstrated controls) of a sample under a regime."""
    if regime == "open_loop":
        return sample.x0, sample.useq
    if regime == "mpc":
        return sample.x, sample.u
    raise ParameterError(f"unknown regime {regime!r}")


def sample_loss_and_grad(models: ModelSet, hp: PIHyperParams, sample, regime,
                         rng: RngStream, loss_weights, goals=None, freeze=()):
    """Loss components and parameter gradient for one training sample.

    This is the exact code path train_pinet optimizes; tests validate its
    gradient against finite differences at tiny scale.

    Args:
        freeze: model ids whose gradient segments are set to exactly zero,
            after every loss term is added; a zero gradient leaves the
            parameters bitwise unchanged under rmsprop_step.

    Returns:
        (metrics dict with 'ctrl' and 'cost' losses, ParamVector gradient
        of the weighted total).
    """
    x0, demo = _start_and_demo(sample, regime)
    out, tape = pi_net_forward(x0, None, models, hp, rng, record=True)
    w_ctrl = loss_weights.get("ctrl", 1.0)
    w_cost = loss_weights.get("cost", 0.0)
    l_ctrl = loss_ctrl(out, demo)
    if regime == "open_loop":
        cot = (2.0 / demo.size) * (out - demo)
    else:
        cot = np.zeros_like(out)
        cot[0] = (2.0 / demo.size) * (out[0] - demo)
    grad = pi_net_backward(tape, w_ctrl * cot, models)
    metrics = {"ctrl": l_ctrl, "cost": 0.0}
    if w_cost != 0.0 and goals is not None:
        metrics["cost"] = loss_cost(models.cost, goals, x0[None, :])
        grad.segment("cost")[:] += w_cost * _loss_cost_param_grad(
            models.cost, goals, x0[None, :])
    for name in freeze:
        grad.segment(name)[:] = 0.0
    return metrics, grad


def evaluate_losses(models, hp, samples, regime, rng, loss_weights, goals=None):
    """Mean loss components over a sample list.

    Each sample's planner noise is keyed by its dataset index, so the
    result depends only on (models, dataset), never on how a caller
    batched or ordered the pass.  The planner runs on chunks of at most
    hp.recurrences (U) samples; an iteration's state cost is one call over
    the chunk's U*K*N rollout states, so its memory grows with U*K*N,
    unbounded by check_memory_budget (README: Batched evaluation).
    """
    if not samples:
        return {"ctrl": None, "cost": None, "total": None}
    chunk = hp.recurrences
    per_sample = []
    for lo in range(0, len(samples), chunk):
        part = samples[lo:lo + chunk]
        per_sample += _plan_losses(
            models, hp, part, regime,
            [rng.child(idx) for idx in range(lo, lo + len(part))],
            loss_weights, goals)
    count = len(samples)
    ctrl = sum(m["ctrl"] for m in per_sample) / count
    cost = sum(m["cost"] for m in per_sample) / count
    total = (loss_weights.get("ctrl", 1.0) * ctrl
             + loss_weights.get("cost", 0.0) * cost)
    return {"ctrl": ctrl, "cost": cost, "total": total}


def _plan_losses(models, hp, samples, regime, streams, loss_weights, goals):
    """Loss components of each sample, planned together as one batch;
    sample i draws its planner noise from streams[i]."""
    starts, demos = zip(*(_start_and_demo(s, regime) for s in samples))
    plans, _ = pi_net_forward(np.stack(starts), None, models, hp, streams)
    with_cost = loss_weights.get("cost", 0.0) != 0.0 and goals is not None
    return [{"ctrl": loss_ctrl(plan, demo),
             "cost": (loss_cost(models.cost, goals, x0[None, :])
                      if with_cost else 0.0)}
            for x0, demo, plan in zip(starts, demos, plans)]


def train_pinet(models: ModelSet, hp: PIHyperParams, train_set, test_set,
                regime, epochs, batch_size, freeze=(), loss_weights=None,
                goals=None, rng: RngStream | None = None, lr=1e-3,
                memory_budget=DEFAULT_MEMORY_BUDGET,
                target_test_ctrl_ratio=None, on_best=None,
                opt_state: OptimizerState | None = None, start_epoch=0):
    """Imitation training of the full controller.

    Per batch: recorded forward per sample, weighted loss cotangent,
    reverse pass with frozen segments zeroed, averaged gradient, RMSProp
    step.  Per epoch: train/test evaluation (noise fixed per sample
    index), plateau schedule on the train total.

    Args:
        regime: "open_loop" (OpenLoopSample) or "mpc" (MPCSample).
        freeze: model ids whose parameters must not move.
        loss_weights: {"ctrl": w, "cost": w}; ctrl defaults to 1.
        target_test_ctrl_ratio: optional early stop once test L_ctrl is at
            most this fraction of the first snapshot's.
        on_best: callback (epoch, models, row) at each new best test total.
        opt_state, start_epoch: resume a run; epochs stays the total
            target, so training continues through epochs - start_epoch
            more passes with the restored second moments and rate.

    Returns:
        history: list of per-epoch rows (the first is the initial state).

    Raises:
        MemoryBudgetError: the recorded forward would exceed the budget.
    """
    if not train_set:
        raise ParameterError("training set is empty")
    if (regime == "open_loop") != isinstance(train_set[0], OpenLoopSample):
        raise ParameterError(f"regime {regime!r} does not match dataset type "
                             f"{type(train_set[0]).__name__}")
    loss_weights = {"ctrl": 1.0, "cost": 0.0, **(loss_weights or {})}
    rng = rng or RngStream(0)
    x0, _ = _start_and_demo(train_set[0], regime)
    check_memory_budget(hp, x0.size, models.weight.dim, memory_budget)
    layout = models.pack().layout
    unknown = set(freeze) - {name for name, _, _ in layout}
    if unknown:
        raise ParameterError(f"unknown frozen segments {sorted(unknown)}")
    if opt_state is None:
        state = OptimizerState(v=np.zeros(models.pack().size), lr=lr)
    else:
        if opt_state.v.shape != (models.pack().size,):
            raise ShapeError("optimizer state does not match the parameter "
                             f"count: {opt_state.v.shape} vs "
                             f"({models.pack().size},)")
        state = opt_state
    eval_rng = rng.child(0)

    def snapshot(epoch):
        train_m = evaluate_losses(models, hp, train_set, regime,
                                  eval_rng.child(1), loss_weights, goals)
        test_m = evaluate_losses(models, hp, test_set, regime,
                                 eval_rng.child(2), loss_weights, goals)
        return {"epoch": epoch, "lr": state.lr,
                "train_ctrl": train_m["ctrl"], "train_cost": train_m["cost"],
                "train_total": train_m["total"],
                "test_ctrl": test_m["ctrl"], "test_cost": test_m["cost"],
                "test_total": test_m["total"]}

    history = [snapshot(start_epoch)]
    best_test = math.inf
    if history[0]["test_total"] is not None:
        best_test = history[0]["test_total"]
        if on_best:
            on_best(start_epoch, models, history[0])
    for epoch in range(start_epoch + 1, epochs + 1):
        order = rng.child(epoch).generator().permutation(len(train_set))
        for lo in range(0, len(order), batch_size):
            # reduction runs in ascending dataset-index order
            idx = np.sort(order[lo:lo + batch_size])
            batch_grad = np.zeros(state.v.shape)
            for j in idx:
                _, grad = sample_loss_and_grad(
                    models, hp, train_set[j], regime,
                    rng.child(epoch, int(j)), loss_weights, goals, freeze)
                batch_grad += grad.values
            batch_grad /= len(idx)
            params = models.pack().values
            rmsprop_step(params, batch_grad, state)
            unpack_params(ParamVector(layout, params), models.items())
        row = snapshot(epoch)
        history.append(row)
        if not np.isfinite(row["train_total"]):
            raise NumericError(f"training loss diverged at epoch {epoch}")
        lr_plateau_schedule(state, row["train_total"])
        if row["test_total"] is not None and row["test_total"] < best_test:
            best_test = row["test_total"]
            if on_best:
                on_best(epoch, models, row)
        if (target_test_ctrl_ratio is not None and row["test_ctrl"] is not None
                and row["test_ctrl"]
                <= target_test_ctrl_ratio * history[0]["test_ctrl"]):
            break
    return history


def write_history_csv(path, history):
    """Write per-epoch rows to CSV; missing values become empty cells."""
    if not history:
        raise ParameterError("history is empty")
    fields = list(history[0].keys())
    write_csv(path, fields, ([row[k] for k in fields] for row in history))
