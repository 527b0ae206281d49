"""Losses, optimizer, datasets, and the imitation training loops.

Three regimes mirror the experimental recipes: dynamics pre-training on
transition data, open-loop imitation of full expert sequences (linear
systems), and MPC-style imitation of first controls with the dynamics
model frozen (pendulum).  Pre-training and imitation share one epoch loop
(minibatch RMSProp with the plateau schedule) and differ only in their
batch gradient and in what each epoch measures.  Evaluation and training
score a planned sample through one loss rule.  All imitation gradients
flow through the recorded controller forward pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .controller import ModelSet, pi_net_backward, pi_net_forward
from .core import (MemoryBudgetError, NumericError, ParameterError,
                   PIHyperParams, RngStream, ShapeError, write_csv)
from .envs import (PENDULUM_EXPERT_HORIZON, benchmark_runs, pendulum_expert,
                   pendulum_teacher_models, sample_linear_teacher, wrap_angle)
from .experts import LQRPlanner, LQRProblem
from .models import ControlCostWeight, MLPCost, MLPDynamics, QuadraticCost

PENDULUM_GOALS = np.array([[np.pi, 0.0], [-np.pi, 0.0]])
DEFAULT_MEMORY_BUDGET = 1 << 30  # one GiB of tape per training batch
RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8
PLATEAU_PATIENCE = 5
PLATEAU_FACTOR = 2.0


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
    return _ctrl_error(pred, demo)[0]


def _ctrl_error(pred, demo):
    """(loss_ctrl, its cotangent on pred): the compared rows of pred are
    all N against an (N, m) demo and the first against an (m,) demo; the
    other rows get a zero cotangent."""
    pred = np.asarray(pred, dtype=float)
    demo = np.asarray(demo, dtype=float)
    head = pred[:1] if demo.ndim == 1 else pred
    if head.shape != np.atleast_2d(demo).shape:
        raise ShapeError(f"predicted controls {pred.shape} do not match the "
                         f"demo {demo.shape}")
    diff = head - demo
    cot = np.zeros_like(pred)
    cot[:len(head)] = (2.0 / demo.size) * diff
    return float(np.mean(diff ** 2)), cot


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
    return _goal_margin(cost_model, goals, x_batch)[0]


def _goal_margin(cost_model, goals, x_batch, grad=False):
    """(loss_cost, its gradient on the cost parameters or None without
    grad), both from one evaluation of q on the goals and on the states."""
    goals = np.atleast_2d(np.asarray(goals, dtype=float))
    x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
    margin = (cost_model.running(goals)[None, :]
              - cost_model.running(x_batch)[:, None])  # (B, G)
    loss = float(np.mean(np.maximum(0.0, margin)))
    if not grad:
        return loss, None
    active = margin > 0.0
    scale = 1.0 / active.size
    _, g_bar = cost_model.running_vjp(goals, active.sum(axis=0) * scale)
    _, x_bar = cost_model.running_vjp(x_batch, -active.sum(axis=1) * scale)
    return loss, g_bar + x_bar


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


def rmsprop_step(params, grads, state: OptimizerState):
    """One in-place RMSProp update with decay RMSPROP_DECAY (0.9) and
    epsilon RMSPROP_EPSILON (1e-8); entries with a zero gradient keep
    their value bitwise (p - lr * 0 / (sqrt(v) + eps) == p)."""
    params = np.asarray(params)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.v.shape:
        raise ShapeError("parameter/gradient/accumulator shapes differ")
    state.v[:] = (RMSPROP_DECAY * state.v
                  + (1.0 - RMSPROP_DECAY) * grads * grads)
    params -= state.lr * grads / (np.sqrt(state.v) + RMSPROP_EPSILON)
    return params


def lr_plateau_schedule(state: OptimizerState, epoch_loss) -> OptimizerState:
    """Divide the rate by PLATEAU_FACTOR (2) after PLATEAU_PATIENCE (5)
    consecutive non-improving epochs."""
    if epoch_loss < state.best_loss:
        state.best_loss = epoch_loss
        state.epochs_since_improvement = 0
    else:
        state.epochs_since_improvement += 1
        if state.epochs_since_improvement >= PLATEAU_PATIENCE:
            state.lr /= PLATEAU_FACTOR
            state.epochs_since_improvement = 0
    return state


def _descend(model, state: OptimizerState, size, batch_size, rng: RngStream,
             epochs, batch_grad, measure, loss_key, start_epoch=0):
    """Minibatch RMSProp over a dataset of size samples, yielding one
    history row per epoch, the state before start_epoch + 1 first.

    Epoch e steps the model's flat parameters once per batch_size slice of
    the order rng.child(e) permutes the samples into, along
    batch_grad(e, slice).  Its row is {"epoch": e, "lr": the rate those
    steps used, **measure()}; the row's loss_key value must be finite and
    drives lr_plateau_schedule before the row is yielded.

    Raises:
        NumericError: the loss left the finite range.
    """
    yield {"epoch": start_epoch, "lr": state.lr, **measure()}
    for epoch in range(start_epoch + 1, epochs + 1):
        order = rng.child(epoch).generator().permutation(size)
        for lo in range(0, size, batch_size):
            grad = batch_grad(epoch, order[lo:lo + batch_size])
            params = model.get_params()
            rmsprop_step(params, grad, state)
            model.set_params(params)
        row = {"epoch": epoch, "lr": state.lr, **measure()}
        if not np.isfinite(row[loss_key]):
            raise NumericError(f"loss diverged at epoch {epoch}: {loss_key} "
                               f"{row[loss_key]}")
        lr_plateau_schedule(state, row[loss_key])
        yield row


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
    train = _stack_transitions(train_samples)
    test = _stack_transitions(test_samples) if test_samples else None
    X, U, Xn = train

    def mse(data):
        if data is None:
            return None
        return float(np.mean(_dyn_residual(dynamics, *data, wrap) ** 2))

    def batch_grad(epoch, idx):
        xb, ub = X[idx], U[idx]
        diff = _dyn_residual(dynamics, xb, ub, Xn[idx], wrap)
        return dynamics.vjp(xb, ub, (2.0 / diff.size) * diff)[2]

    return list(_descend(
        dynamics, OptimizerState(v=np.zeros(dynamics.num_params), lr=lr),
        X.shape[0], batch_size, rng or RngStream(0), epochs, batch_grad,
        lambda: {"train_dyn": mse(train), "test_dyn": mse(test)},
        "train_dyn"))


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


def _sample_losses(models, plan, x0, demo, loss_weights, goals,
                   grad=False):
    """One planned sample's {"ctrl", "cost"} losses, the control loss's
    cotangent on the plan, and the cost loss's gradient on the cost
    parameters, None unless grad is set and the cost term is on (it has a
    nonzero weight and goals are given)."""
    ctrl, cot = _ctrl_error(plan, demo)
    losses = {"ctrl": ctrl, "cost": 0.0}
    cost_grad = None
    if loss_weights.get("cost", 0.0) != 0.0 and goals is not None:
        losses["cost"], cost_grad = _goal_margin(models.cost, goals,
                                                 x0[None, :], grad)
    return losses, cot, cost_grad


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
    plan, tape = pi_net_forward(x0, None, models, hp, rng, record=True)
    metrics, cot, cost_grad = _sample_losses(models, plan, x0, demo,
                                             loss_weights, goals, grad=True)
    grad = pi_net_backward(tape, loss_weights.get("ctrl", 1.0) * cot, models)
    if cost_grad is not None:
        grad.segment("cost")[:] += loss_weights["cost"] * cost_grad
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
    per_sample = []
    for lo in range(0, len(samples), hp.recurrences):
        starts, demos = zip(*(_start_and_demo(s, regime)
                              for s in samples[lo:lo + hp.recurrences]))
        # sample i of the chunk plans on its dataset index's stream
        plans, _ = pi_net_forward(
            np.stack(starts), None, models, hp,
            [rng.child(idx) for idx in range(lo, lo + len(starts))])
        per_sample += [
            _sample_losses(models, plan, x0, demo, loss_weights, goals)[0]
            for x0, demo, plan in zip(starts, demos, plans)]
    count = len(samples)
    ctrl = sum(m["ctrl"] for m in per_sample) / count
    cost = sum(m["cost"] for m in per_sample) / count
    total = (loss_weights.get("ctrl", 1.0) * ctrl
             + loss_weights.get("cost", 0.0) * cost)
    return {"ctrl": ctrl, "cost": cost, "total": total}


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
    unknown = set(freeze) - {name for name, _ in models.items()}
    if unknown:
        raise ParameterError(f"unknown frozen segments {sorted(unknown)}")
    if opt_state is None:
        opt_state = OptimizerState(v=np.zeros(models.num_params), lr=lr)
    elif opt_state.v.shape != (models.num_params,):
        raise ShapeError("optimizer state does not match the parameter "
                         f"count: {opt_state.v.shape} vs "
                         f"({models.num_params},)")
    eval_rng = rng.child(0)

    def batch_grad(epoch, idx):
        grad = np.zeros(models.num_params)
        # reduction runs in ascending dataset-index order
        for j in np.sort(idx):
            grad += sample_loss_and_grad(
                models, hp, train_set[j], regime, rng.child(epoch, int(j)),
                loss_weights, goals, freeze)[1].values
        grad /= len(idx)
        return grad

    def measure():
        row = {}
        for split, samples, key in (("train", train_set, 1),
                                    ("test", test_set, 2)):
            losses = evaluate_losses(models, hp, samples, regime,
                                     eval_rng.child(key), loss_weights, goals)
            row.update((f"{split}_{name}", value)
                       for name, value in losses.items())
        return row

    history = []
    for row in _descend(models, opt_state, len(train_set), batch_size, rng,
                        epochs, batch_grad, measure, "train_total",
                        start_epoch):
        history.append(row)
        if on_best and row["test_total"] is not None and all(
                row["test_total"] < old["test_total"] for old in history[:-1]):
            on_best(row["epoch"], models, row)
        if (len(history) > 1 and target_test_ctrl_ratio is not None
                and row["test_ctrl"] is not None
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
