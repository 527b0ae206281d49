"""Path-integral control law and its exact reverse pass.

One kernel iteration follows the sampling controller recipe: draw K
Gaussian perturbation sequences, roll the dynamics model out along each
perturbed plan, accumulate modified running costs into suffix cost-to-go
values, then update every control by the exponentially cost-weighted
average of the perturbations.  The planner applies the kernel U times
with fresh noise each iteration.

The whole computation is differentiable with respect to the model
parameters.  A recorded forward pass keeps, per iteration, the arrays the
reverse pass reads (input plan, noise, rollout states and softmax
weights); the backward pass walks them in reverse, composing model VJPs
with the softmax and suffix-sum adjoints.  Noise samples are treated as
constants; gradients never flow into them.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (ConsistencyError, NumericError, ParameterError,
                   ParamVector, PIHyperParams, RngStream, ShapeError,
                   gaussian_noise, pack_params, require_count,
                   unpack_params)
from .models import control_penalty


@dataclass
class ModelSet:
    """The three trainable pieces the controller plans with."""

    dynamics: object
    cost: object
    weight: object  # ControlCostWeight

    def items(self):
        return (("dynamics", self.dynamics), ("cost", self.cost),
                ("control_weight", self.weight))

    def pack(self) -> ParamVector:
        return pack_params(self.items())

    # the flat-parameter contract of a model (core), over all three pieces
    @property
    def num_params(self):
        return sum(model.num_params for _, model in self.items())

    def get_params(self):
        return self.pack().values

    def set_params(self, vec):
        unpack_params(ParamVector(self.pack().layout, vec), self.items())


@dataclass
class RolloutCosts:
    running: np.ndarray  # (..., K, N)
    terminal: np.ndarray  # (..., K)


@dataclass
class KernelRecord:
    """What the reverse pass reads of one kernel iteration.

    A batched iteration (see pi_net_forward) adds a leading sample axis to
    every field; recorded iterations are always single-sample.
    """

    useq: np.ndarray        # (N, m) input plan
    noise: np.ndarray       # (K, N, m)
    states: np.ndarray      # (K, N+1, n)
    weights: np.ndarray     # (K, N) normalized softmax weights


@dataclass
class RolloutTape:
    """Recorded forward pass: per-iteration records plus a parameter snapshot."""

    x0: np.ndarray
    hyper: PIHyperParams
    layout: tuple
    param_values: np.ndarray
    records: list = field(default_factory=list)


def _trajectory(index):
    """Name the trajectory at a (sample, ..., k) index for error messages."""
    *sample, k = (int(i) for i in index)
    where = f"trajectory {k}"
    if sample:
        where += f" of sample {', '.join(map(str, sample))}"
    return where


def monte_carlo_rollout(x0, useq, noise, dynamics, cost, weight_matrix, nu):
    """Roll out K perturbed plans and collect modified running costs.

    Every array may carry the same leading sample axes (written ... below);
    each sample's rollout performs the arithmetic a separate call on it
    would, so its results do not depend on the batch around it.

    Args:
        x0: (..., n) initial state shared by a sample's K trajectories.
        useq: (..., N, m) nominal plan.
        noise: (..., K, N, m) perturbations; trajectory k applies
            useq + noise[..., k, :, :].
        dynamics: model with batched forward over leading axes.
        cost: state-cost model (running / terminal) over (rows, n).
        weight_matrix: (m, m) control weight R.
        nu: noise-quadratic coefficient knob.

    Returns:
        (states, RolloutCosts): states is (..., K, N+1, n);
        running[..., k, i] = q(x_i^k) + control penalty(u_i, du_i^k).

    Raises:
        NumericError: a trajectory left the finite range (diverging rollout).
    """
    noise = np.asarray(noise, dtype=float)
    N = noise.shape[-2]
    x0 = np.asarray(x0, dtype=float)
    useq = np.asarray(useq, dtype=float)
    n = x0.shape[-1]
    v = useq[..., None, :, :] + noise
    states = np.empty(noise.shape[:-2] + (N + 1, n))
    states[..., 0, :] = x0[..., None, :]
    x = states[..., 0, :]
    for i in range(N):
        x = dynamics.forward(x, v[..., i, :])
        states[..., i + 1, :] = x
    if not np.all(np.isfinite(states)):
        bad = np.argwhere(~np.isfinite(states).all(axis=(-2, -1)))[0]
        raise NumericError(f"rollout diverged on {_trajectory(bad)}")
    # one state-cost call over all (..., K, N) rollout states as rows; a
    # row's bits do not depend on the rows beside it, except that MLPCost
    # on a single row (one sample's K = 1 terminal) may take BLAS's gemv
    shape = noise.shape[:-1]
    state_cost = cost.running(states[..., :N, :].reshape(-1, n)).reshape(shape)
    running = state_cost + control_penalty(useq, noise, weight_matrix, nu)
    terminal = np.asarray(cost.terminal(states[..., N, :].reshape(-1, n)),
                          dtype=float).reshape(shape[:-1])
    if not (np.all(np.isfinite(running)) and np.all(np.isfinite(terminal))):
        bad = np.argwhere(~(np.isfinite(running).all(axis=-1)
                            & np.isfinite(terminal)))[0]
        raise NumericError(f"non-finite cost on {_trajectory(bad)}")
    return states, RolloutCosts(running, terminal)


def cost_to_go(costs: RolloutCosts) -> np.ndarray:
    """Suffix sums S[..., k, i] = sum_{j >= i} running[..., k, j] + terminal[..., k].

    Accumulated as a single reversed running sum so that
    S[k, i] == S[k, i+1] + running[k, i] holds bit-for-bit.
    """
    stacked = np.concatenate([costs.terminal[..., None],
                              costs.running[..., ::-1]], axis=-1)
    return np.cumsum(stacked, axis=-1)[..., ::-1]


def _softmax_weights(ctg, lambda_):
    """Per-timestep trajectory weights from cost-to-go columns.

    The per-column minimum is subtracted before exponentiation; in exact
    arithmetic the weights are invariant to that shift, and the maximum
    unnormalised weight is always 1 (no all-zero columns possible).  In
    floating point, a shift that the costs' grid cannot represent rounds
    each cost by up to half its spacing, which moves each weight by about
    spacing/lambda relative.
    """
    S = ctg[..., :-1]
    z = -(S - S.min(axis=-2, keepdims=True)) / lambda_
    w = np.exp(z)
    return w / w.sum(axis=-2, keepdims=True)


def _weighted_update(useq, weights, noise):
    """The plan plus the weight-averaged perturbation at each timestep."""
    return useq + np.einsum("...ki,...kim->...im", weights, noise)


def _kernel_record(x0, useq, noise, models: ModelSet, hp: PIHyperParams,
                   weight_matrix):
    """One kernel iteration: (its KernelRecord, the updated plan)."""
    states, costs = monte_carlo_rollout(x0, useq, noise, models.dynamics,
                                        models.cost, weight_matrix, hp.nu)
    weights = _softmax_weights(cost_to_go(costs), hp.lambda_)
    return (KernelRecord(useq, noise, states, weights),
            _weighted_update(useq, weights, noise))


def pi_net_forward(x0, useq_init, models: ModelSet, hp: PIHyperParams,
                   rng, record=False, recurrences=None):
    """Improve a control plan by repeated kernel iterations.

    A batch of B start states is planned in one pass: each iteration rolls
    out all B*K trajectories together, and sample b draws its noise from
    rng[b], so every sample's plan is bitwise the plan a separate call on
    it would return, whatever the batch.

    Args:
        x0: (n,) current state, or (B, n) for a batch.
        useq_init: (N, m) starting plan, or (B, N, m) for a batch; None
            means zeros.
        models: dynamics / cost / control-weight bundle.
        hp: hyper-parameters; hp.recurrences used unless overridden.
        rng: stream, or a sequence of B streams for a batch; iteration t
            draws noise from rng.child(t) (sample b: rng[b].child(t)).
        record: keep a tape for the reverse pass (off for control-time
            use); single-sample only.
        recurrences: optional override of the iteration count (warm starts).

    Returns:
        (useq, tape): the improved (N, m) plan, or (B, N, m) plans, and the
        RolloutTape when record=True else None.

    Raises:
        ParameterError: record=True with a batch.
        ShapeError: the batch and its streams differ in size.
    """
    x0 = np.asarray(x0, dtype=float)
    batch = x0.shape[:-1]
    if batch:
        if x0.ndim != 2 or len(rng) != batch[0]:
            raise ShapeError(f"a batch of start states {x0.shape} needs "
                             f"one stream per state, got {len(rng)}")
        if record:
            raise ParameterError("a recorded forward plans one sample; "
                                 f"got a batch of {batch[0]}")
    weight_matrix = models.weight.matrix()
    m = weight_matrix.shape[0]
    if useq_init is None:
        useq = np.zeros(batch + (hp.horizon, m))
    else:
        useq = np.array(useq_init, dtype=float)
    streams = rng if batch else (rng,)
    count = hp.recurrences if recurrences is None else int(recurrences)
    tape = None
    if record:
        snapshot = models.pack()
        tape = RolloutTape(x0.copy(), hp, snapshot.layout, snapshot.values)
    for t in range(count):
        noises = [gaussian_noise(stream.child(t), hp.num_samples, hp.horizon,
                                 m, hp.sigma) for stream in streams]
        noise = np.stack(noises) if batch else noises[0]
        rec, useq = _kernel_record(x0, useq, noise, models, hp,
                                   weight_matrix)
        if record:
            tape.records.append(rec)
    return useq, tape


def _kernel_backward(rec: KernelRecord, out_bar, models: ModelSet, hp,
                     weight_matrix, grads: ParamVector):
    """Adjoint of one kernel iteration.

    Takes the cotangent on the iteration's output plan, accumulates
    parameter cotangents into grads, and returns the cotangent on the
    input plan.  Everything it reads of the forward comes from the record.
    """
    noise, w, states = rec.noise, rec.weights, rec.states
    K, N, m = noise.shape
    u_bar = np.array(out_bar, dtype=float)  # pass-through u* = u + ...

    # softmax update: w_bar -> z_bar -> cost-to-go cotangent
    w_bar = np.einsum("im,kim->ki", out_bar, noise)
    z_bar = w * (w_bar - (w * w_bar).sum(axis=0, keepdims=True))
    s_bar = -z_bar / hp.lambda_  # (K, N); column N of the cost-to-go gets 0

    # suffix sums: running[j] feeds S[i] for all i <= j; terminal feeds all
    run_bar = np.cumsum(s_bar, axis=1)
    term_bar = s_bar.sum(axis=1)

    # control-penalty terms of the modified running cost (state-independent)
    col = run_bar.sum(axis=0)
    u_bar += col[:, None] * (rec.useq @ weight_matrix)
    weighted_noise = np.einsum("ki,kim->im", run_bar, noise)
    u_bar += weighted_noise @ weight_matrix
    r_bar = 0.5 * np.einsum("i,im,ip->mp", col, rec.useq, rec.useq)
    r_bar += 0.5 * (1.0 - 1.0 / hp.nu) * np.einsum("ki,kim,kip->mp",
                                                   run_bar, noise, noise)
    r_bar += np.einsum("ki,im,kip->mp", run_bar, rec.useq, noise)

    # terminal cost
    x_bar, cost_bar = models.cost.terminal_vjp(states[:, N], term_bar)
    grads.segment("cost")[:] += cost_bar

    # walk the rollout backwards, chaining state cotangents
    dyn_seg = grads.segment("dynamics")
    cost_seg = grads.segment("cost")
    for i in range(N - 1, -1, -1):
        x = states[:, i]
        v = rec.useq[i][None, :] + noise[:, i]
        xb_dyn, v_bar, dyn_bar = models.dynamics.vjp(x, v, x_bar)
        dyn_seg += dyn_bar
        u_bar[i] += v_bar.sum(axis=0)
        xb_cost, cost_bar = models.cost.running_vjp(x, run_bar[:, i])
        cost_seg += cost_bar
        x_bar = xb_dyn + xb_cost

    grads.segment("control_weight")[:] += models.weight.vjp_matrix(r_bar)
    return u_bar


def pi_net_backward(tape: RolloutTape, loss_cotangent,
                    models: ModelSet) -> ParamVector:
    """Reverse pass over a recorded forward.

    Args:
        tape: tape from pi_net_forward(..., record=True).
        loss_cotangent: (N, m) cotangent of the scalar loss on the final plan.
        models: must hold bit-identical parameters to the recording.

    Returns:
        ParamVector gradient with the tape's layout.

    Raises:
        ConsistencyError: models changed since the tape was recorded.
    """
    current = models.pack()
    if current.layout != tape.layout or not np.array_equal(current.values,
                                                           tape.param_values):
        raise ConsistencyError("model parameters do not match the tape")
    weight_matrix = models.weight.matrix()
    grads = ParamVector(tape.layout)
    u_bar = np.asarray(loss_cotangent, dtype=float)
    for rec in reversed(tape.records):
        u_bar = _kernel_backward(rec, u_bar, models, tape.hyper,
                                 weight_matrix, grads)
    return grads


class PathIntegralPlanner:
    """Sampling controller for closed-loop use.

    Bundles models and hyper-parameters behind the planner protocol that
    the simulator consumes: control_dim and plan(x0, init, rng).  A plan
    seeded with init runs warm_recurrences iterations when that is set,
    hp.recurrences otherwise.
    """

    def __init__(self, models: ModelSet, hp: PIHyperParams,
                 warm_recurrences=None):
        if warm_recurrences is not None:
            require_count("warm_recurrences", warm_recurrences, 1)
        self.models = models
        self.hp = hp
        self.warm_recurrences = warm_recurrences

    @property
    def control_dim(self):
        return self.models.weight.dim

    def plan(self, x0, init=None, rng=None, recurrences=None):
        """Plan from x0; recurrences overrides the iteration count."""
        if rng is None:
            rng = RngStream(0)
        if recurrences is None and init is not None:
            recurrences = self.warm_recurrences
        useq, _ = pi_net_forward(x0, init, self.models, self.hp, rng,
                                 record=False, recurrences=recurrences)
        return useq
