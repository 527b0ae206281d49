import numpy as np
import pytest

from picontrol.controller import (ModelSet, PathIntegralPlanner, RolloutCosts,
                                  _softmax_weights, _weighted_update,
                                  cost_to_go, monte_carlo_rollout,
                                  pi_net_backward, pi_net_forward)
from picontrol.core import (ConsistencyError, NumericError, ParameterError,
                            ParamVector, PIHyperParams, RngStream, ShapeError,
                            gaussian_noise, unpack_params)
from picontrol.envs import pendulum_teacher_models, sample_linear_teacher
from picontrol.models import (ControlCostWeight, LinearDynamics, MLPCost,
                              MLPDynamics, QuadraticCost, control_penalty)
from picontrol.training import (PENDULUM_GOALS, MPCSample, evaluate_losses,
                                loss_cost, sample_loss_and_grad)

import oracles


def scalar_models():
    """f(x, v) = x + v with quadratic state cost and unit control weight."""
    dyn = LinearDynamics(np.eye(1), np.eye(1))
    cost = QuadraticCost(2.0 * np.eye(1))
    return ModelSet(dyn, cost, ControlCostWeight(1))


def tiny_neural_models(seed):
    """Pendulum-shaped networks (n=2, m=1) at a random parameter point."""
    root = RngStream(seed)
    dyn = MLPDynamics(hidden=12, dt=0.1, init_rng=root.child(0))
    cost = MLPCost(hidden=12, outputs=12, init_rng=root.child(1))
    weight = ControlCostWeight(1)
    weight.set_params(0.3 * root.child(2).generator().standard_normal(1))
    return ModelSet(dyn, cost, weight)


# Gentle hyperparameters for gradient checks: lambda large enough that the
# softmax stays smooth at this cost scale, so central differences converge.
TINY_HP = PIHyperParams(lambda_=0.5, nu=1500.0, sigma=0.3,
                        num_samples=4, horizon=3, recurrences=2)


def kernel_update(useq, noise, ctg, lambda_):
    """The planner's update from given cost-to-go values: the two stages
    a kernel iteration composes after its rollout."""
    return _weighted_update(useq, _softmax_weights(ctg, lambda_), noise)


# ---------------------------------------------------------------- rollouts


def test_identity_dynamics_keeps_state_fixed():
    dyn = LinearDynamics(np.eye(2), np.zeros((2, 1)))
    cost = QuadraticCost(np.eye(2))
    x0 = np.array([0.7, -1.2])
    useq = np.array([[3.0], [-4.0], [0.5]])
    noise = np.zeros((1, 3, 1))
    states, _ = monte_carlo_rollout(x0, useq, noise, dyn, cost, np.eye(1), 1500.0)
    assert np.array_equal(states, np.broadcast_to(x0, (1, 4, 2)))


def test_identical_noise_rows_give_identical_trajectories():
    models = tiny_neural_models(3)
    x0 = np.array([0.2, 0.1])
    useq = np.full((4, 1), 0.3)
    row = RngStream(5).generator().normal(0.0, 0.2, size=(1, 4, 1))
    noise = np.repeat(row, 2, axis=0)
    states, costs = monte_carlo_rollout(x0, useq, noise, models.dynamics,
                                        models.cost, np.eye(1), 1500.0)
    assert np.array_equal(states[0], states[1])
    assert np.array_equal(costs.running[0], costs.running[1])
    assert costs.terminal[0] == costs.terminal[1]


def test_scalar_hand_rollout():
    models = scalar_models()
    x0 = np.zeros(1)
    useq = np.array([[1.0], [1.0]])
    noise = np.array([[[0.5], [-0.5]]])
    states, _ = monte_carlo_rollout(x0, useq, noise, models.dynamics,
                                    models.cost, np.eye(1), 1500.0)
    assert states[0, :, 0] == pytest.approx(oracles.SCALAR_ROLLOUT_STATES, abs=0)


def test_diverging_rollout_names_the_trajectory():
    models = scalar_models()
    x0 = np.zeros(1)
    useq = np.zeros((2, 1))
    noise = np.zeros((2, 2, 1))
    noise[1, :, 0] = 1e308  # second step overflows the state for k=1 only
    with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                   match="trajectory 1"):
        monte_carlo_rollout(x0, useq, noise, models.dynamics, models.cost,
                            np.eye(1), 1500.0)


def test_rollout_running_cost_includes_control_penalty():
    models = scalar_models()
    x0 = np.array([1.0])
    useq = np.array([[2.0]])
    noise = np.array([[[0.5]]])
    _, costs = monte_carlo_rollout(x0, useq, noise, models.dynamics,
                                   models.cost, np.eye(1), 1500.0)
    # q(1) = 1; penalty = 0.5*4 + 0.5*(1 - 1/1500)*0.25 + 2*0.5
    expected = 1.0 + 2.0 + 0.5 * (1.0 - 1.0 / 1500.0) * 0.25 + 1.0
    assert costs.running[0, 0] == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("K", [1, 5, 100])
@pytest.mark.parametrize("env", ["pendulum", "linear"])
def test_rollout_costs_equal_per_step_cost_calls_bitwise(env, K, monkeypatch):
    if env == "pendulum":
        dynamics, cost, weight = pendulum_teacher_models()
    else:
        dynamics, cost, weight = sample_linear_teacher(RngStream(4)).models()
    R = weight.matrix()
    n, m = cost.state_dim, R.shape[0]
    N = 7
    B = 3
    gen = RngStream(8).child(K).generator()
    x0 = gen.standard_normal((B, n))
    useq = gen.standard_normal((B, N, m))
    noise = 0.3 * gen.standard_normal((B, K, N, m))
    real_running, real_terminal = cost.running, cost.terminal
    calls = []

    def counting(x):
        calls.append(x.shape[0])
        return real_running(x)

    monkeypatch.setattr(cost, "running", counting)

    def per_sample(b):
        states, costs = monte_carlo_rollout(x0[b], useq[b], noise[b],
                                            dynamics, cost, R, 1500.0)
        per_step = np.column_stack([real_running(states[:, i])
                                    for i in range(N)])
        want = per_step + control_penalty(useq[b], noise[b], R, 1500.0)
        assert costs.running.tobytes() == want.tobytes()
        assert (costs.terminal.tobytes()
                == real_terminal(states[:, N]).tobytes())
        return costs

    singles = [per_sample(b) for b in range(B)]
    assert calls == [K * N] * B  # one state-cost call per rollout
    calls.clear()
    _, batched = monte_carlo_rollout(x0, useq, noise, dynamics, cost, R,
                                     1500.0)
    assert calls == [B * K * N]  # ... whatever its batch
    assert (batched.running.tobytes()
            == np.stack([c.running for c in singles]).tobytes())
    assert (batched.terminal.tobytes()
            == np.stack([c.terminal for c in singles]).tobytes())


# ------------------------------------------------------------- cost-to-go


def test_suffix_sum_example():
    rc = RolloutCosts(np.array([[1.0, 2.0, 3.0]]), np.array([4.0]))
    assert cost_to_go(rc)[0] == pytest.approx(oracles.SUFFIX_SUM_EXAMPLE, abs=0)


def test_suffix_sum_zero_costs():
    rc = RolloutCosts(np.zeros((3, 5)), np.zeros(3))
    assert np.array_equal(cost_to_go(rc), np.zeros((3, 6)))


def test_suffix_sum_single_step():
    rc = RolloutCosts(np.array([[2.5]]), np.array([1.5]))
    assert np.array_equal(cost_to_go(rc), np.array([[4.0, 1.5]]))


def test_suffix_recurrence_is_bitwise_exact():
    gen = RngStream(17).generator()
    rc = RolloutCosts(gen.normal(size=(6, 9)) ** 2, gen.normal(size=6) ** 2)
    S = cost_to_go(rc)
    assert np.array_equal(S[:, -1], rc.terminal)
    for i in range(9):
        assert np.array_equal(S[:, i], S[:, i + 1] + rc.running[:, i])


def test_suffix_recurrence_holds_on_kernel_data():
    models = tiny_neural_models(9)
    noise = RngStream(21).generator().normal(0.0, 0.3, size=(5, 4, 1))
    _, costs = monte_carlo_rollout(np.array([0.3, -0.2]), np.zeros((4, 1)),
                                   noise, models.dynamics, models.cost,
                                   models.weight.matrix(), 1500.0)
    S = cost_to_go(costs)
    for i in range(4):
        assert np.array_equal(S[:, i], S[:, i + 1] + costs.running[:, i])


# -------------------------------------------------------------- update law


def test_equal_costs_average_the_noise():
    gen = RngStream(23).generator()
    noise = gen.normal(size=(4, 5, 2))
    useq = gen.normal(size=(5, 2))
    ctg = np.ones((4, 6)) * 7.25
    out = kernel_update(useq, noise, ctg, 0.01)
    assert out == pytest.approx(useq + noise.mean(axis=0), abs=1e-12)


def test_small_lambda_selects_the_argmin():
    gen = RngStream(29).generator()
    noise = gen.normal(size=(6, 3, 1))
    useq = np.zeros((3, 1))
    # integer-gap costs so every non-minimal weight is exp(-1e9) = 0
    ctg = np.arange(6, dtype=float)[:, None] * np.ones((1, 4))
    ctg[:, 1] = np.array([5.0, 4, 3, 2, 1, 0])
    out = kernel_update(useq, noise, ctg, 1e-9)
    assert abs(out[0, 0] - noise[0, 0, 0]) < 1e-6
    assert abs(out[1, 0] - noise[5, 1, 0]) < 1e-6
    assert abs(out[2, 0] - noise[0, 2, 0]) < 1e-6


def test_hand_softmax_update():
    useq = np.zeros((1, 1))
    noise = np.array([[[1.0]], [[-1.0]]])
    ctg = np.array([[0.0, 0.0], [np.log(3.0), 0.0]])
    out = kernel_update(useq, noise, ctg, 1.0)
    assert out[0, 0] == pytest.approx(oracles.SOFTMAX_UPDATE_EXAMPLE, abs=1e-12)


def test_update_is_invariant_to_cost_shifts():
    gen = RngStream(31).generator()
    noise = gen.normal(size=(8, 4, 2))
    useq = gen.normal(size=(4, 2))
    ctg = gen.normal(size=(8, 5)) ** 2
    base = kernel_update(useq, noise, ctg, 0.5)
    shifted = kernel_update(useq, noise, ctg + 100.0 * gen.normal(size=(1, 5)),
                            0.5)
    assert shifted == pytest.approx(base, abs=1e-11)


def test_weights_are_a_proper_distribution():
    # Cost gaps kept within ~60 lambda so no weight underflows to zero;
    # beyond that exp() flushes to 0 and strict positivity is unrepresentable.
    gen = RngStream(37).generator()
    ctg = 0.05 * gen.normal(size=(16, 7)) ** 2
    w = _softmax_weights(ctg, 0.01)
    assert np.all(w > 0.0)
    assert np.all(w <= 1.0)
    assert w.sum(axis=0) == pytest.approx(np.ones(6), abs=1e-12)


def test_update_stays_in_the_noise_hull():
    gen = RngStream(41).generator()
    for _ in range(50):
        noise = gen.normal(size=(5, 6, 2))
        useq = gen.normal(size=(6, 2))
        ctg = gen.normal(size=(5, 7)) ** 2
        lam = 10.0 ** gen.uniform(-3, 1)
        delta = kernel_update(useq, noise, ctg, lam) - useq
        eps = 1e-12
        assert np.all(delta >= noise.min(axis=0) - eps)
        assert np.all(delta <= noise.max(axis=0) + eps)


# ----------------------------------------------------------------- kernel


def test_kernel_is_deterministic():
    models = tiny_neural_models(43)
    hp = TINY_HP
    rng = RngStream(47)
    x0 = np.array([0.5, -0.1])
    useq = np.full((hp.horizon, 1), 0.2)
    first, _ = pi_net_forward(x0, useq, models, hp, rng, recurrences=1)
    second, _ = pi_net_forward(x0, useq, models, hp, rng, recurrences=1)
    assert np.array_equal(first, second)
    assert first.shape == (hp.horizon, 1)


def test_kernel_output_stays_near_plan_when_noise_is_tiny():
    models = tiny_neural_models(53)
    hp = PIHyperParams(lambda_=0.5, nu=1500.0, sigma=1e-3,
                       num_samples=8, horizon=4, recurrences=1)
    useq = np.full((4, 1), 0.3)
    out, _ = pi_net_forward(np.array([0.1, 0.0]), useq, models, hp,
                            RngStream(59), recurrences=1)
    assert np.max(np.abs(out - useq)) < 0.01


def test_kernel_improves_the_expected_cost():
    # Linear-quadratic toy: the kernel output should beat the zero plan
    # under the true noisy objective, estimated by fresh Monte-Carlo.
    F, G, Q = 0.95, 0.4, 2.0
    dyn = LinearDynamics([[F]], [[G]])
    cost = QuadraticCost([[Q]])
    models = ModelSet(dyn, cost, ControlCostWeight(1))
    hp = PIHyperParams(lambda_=0.1, nu=1500.0, sigma=0.3,
                       num_samples=256, horizon=10, recurrences=1)
    x0 = np.array([3.0])
    useq = np.zeros((10, 1))
    out, _ = pi_net_forward(x0, useq, models, hp, RngStream(61),
                            recurrences=1)

    def step(x, v):
        return np.array([F * x[0] + G * v[0]])

    def running(x):
        return 0.5 * Q * x[0] ** 2

    def terminal(x):
        return 0.5 * Q * x[0] ** 2

    gen = np.random.default_rng(67)
    j_in = oracles.monte_carlo_objective(x0, useq, step, running, terminal,
                                         np.eye(1), hp.sigma, 10_000, gen)
    j_out = oracles.monte_carlo_objective(x0, out, step, running, terminal,
                                          np.eye(1), hp.sigma, 10_000, gen)
    assert j_out <= j_in * 1.01


# ---------------------------------------------------------------- forward


def test_single_recurrence_equals_kernel():
    models = tiny_neural_models(71)
    hp = PIHyperParams(lambda_=0.5, nu=1500.0, sigma=0.3,
                       num_samples=4, horizon=3, recurrences=1)
    rng = RngStream(73)
    x0 = np.array([0.4, 0.2])
    out, _ = pi_net_forward(x0, None, models, hp, rng)
    # the kernel's stages composed by hand: noise, rollout, cost-to-go, update
    useq = np.zeros((3, 1))
    noise = gaussian_noise(rng.child(0), hp.num_samples, hp.horizon, 1,
                           hp.sigma)
    _, costs = monte_carlo_rollout(x0, useq, noise, models.dynamics,
                                   models.cost, models.weight.matrix(), hp.nu)
    direct = kernel_update(useq, noise, cost_to_go(costs), hp.lambda_)
    assert np.array_equal(out, direct)


def test_default_initial_plan_is_zero():
    models = tiny_neural_models(79)
    rng = RngStream(83)
    x0 = np.array([-0.3, 0.6])
    out_none, _ = pi_net_forward(x0, None, models, TINY_HP, rng)
    out_zero, _ = pi_net_forward(x0, np.zeros((3, 1)), models, TINY_HP, rng)
    assert np.array_equal(out_none, out_zero)


def test_forward_is_deterministic_and_tape_is_optional():
    models = tiny_neural_models(89)
    rng = RngStream(97)
    x0 = np.array([0.1, -0.4])
    out1, tape1 = pi_net_forward(x0, None, models, TINY_HP, rng)
    out2, tape2 = pi_net_forward(x0, None, models, TINY_HP, rng, record=True)
    assert tape1 is None
    assert len(tape2.records) == TINY_HP.recurrences
    assert np.array_equal(out1, out2)
    # the tape holds what produced the returned plan
    last = tape2.records[-1]
    assert np.array_equal(_weighted_update(last.useq, last.weights,
                                           last.noise), out2)


def test_recurrence_override_changes_iteration_count():
    models = tiny_neural_models(101)
    rng = RngStream(103)
    x0 = np.array([0.0, 0.0])
    _, tape = pi_net_forward(x0, None, models, TINY_HP, rng, record=True,
                             recurrences=5)
    assert len(tape.records) == 5


# --------------------------------------------------------------- backward


def test_zero_cotangent_gives_zero_gradient():
    models = tiny_neural_models(107)
    out, tape = pi_net_forward(np.array([0.2, 0.3]), None, models, TINY_HP,
                               RngStream(109), record=True)
    grad = pi_net_backward(tape, np.zeros_like(out), models)
    assert np.array_equal(grad.values, np.zeros_like(grad.values))


def test_gradient_matches_finite_differences():
    models = tiny_neural_models(113)
    hp = TINY_HP
    x0 = np.array([0.4, -0.3])
    rng = RngStream(127)
    cot = RngStream(131).generator().standard_normal((hp.horizon, 1))
    layout = models.pack().layout

    def loss(vec):
        unpack_params(ParamVector(layout, vec.copy()), models.items())
        out, _ = pi_net_forward(x0, None, models, hp, rng)
        return float(np.sum(cot * out))

    base = models.pack().values
    fd = oracles.central_difference(loss, base)
    loss(base)  # restore the original parameters
    out, tape = pi_net_forward(x0, None, models, hp, rng, record=True)
    grad = pi_net_backward(tape, cot, models)
    rel = oracles.relative_errors(grad.values, fd, floor=1e-7)
    ok = (rel < 1e-4) | (np.abs(grad.values - fd) < 1e-7)
    assert ok.all(), f"worst relative error {rel.max():.3e}"


def test_frozen_segment_gradient_is_exactly_zero():
    # the training gradient with a cost-loss term, which freezing must
    # zero as well as the reverse pass's share
    models = tiny_neural_models(137)
    sample = MPCSample(np.array([0.5, 0.0]), np.array([0.3]), np.zeros(2))
    weights = {"ctrl": 1.0, "cost": 1e-3}

    def grad(freeze):
        metrics, g = sample_loss_and_grad(models, TINY_HP, sample, "mpc",
                                          RngStream(139), weights,
                                          PENDULUM_GOALS, freeze)
        assert metrics["cost"] > 0.0
        return g

    full = grad(())
    assert all(np.all(full.segment(name) != 0.0)
               for name in ("cost", "control_weight"))
    for frozen in (("cost",), ("dynamics", "control_weight")):
        got = grad(frozen)
        for name, _, length in got.layout:
            if name in frozen:
                assert got.segment(name).tobytes() == bytes(8 * length)
            else:
                assert got.segment(name).tobytes() == \
                    full.segment(name).tobytes()


def test_stale_tape_is_rejected():
    models = tiny_neural_models(149)
    out, tape = pi_net_forward(np.array([0.1, 0.1]), None, models, TINY_HP,
                               RngStream(151), record=True)
    params = models.dynamics.get_params()
    params[0] += 1e-12
    models.dynamics.set_params(params)
    with pytest.raises(ConsistencyError):
        pi_net_backward(tape, np.ones_like(out), models)


# ---------------------------------------------------------- batched forward


def _batch_case(kind):
    """(models, hp, start states) of one model family, for batch tests."""
    if kind == "linear":
        models = ModelSet(*sample_linear_teacher(RngStream(4)).models())
        hp = PIHyperParams(lambda_=0.01, nu=1500.0, sigma=0.2,
                           num_samples=7, horizon=5, recurrences=3)
    elif kind == "pendulum_teacher":
        models = ModelSet(*pendulum_teacher_models())
        hp = PIHyperParams(lambda_=0.01, nu=1500.0, sigma=0.005,
                           num_samples=30, horizon=8, recurrences=3)
    else:
        models = tiny_neural_models(167)
        hp = PIHyperParams(lambda_=0.5, nu=1500.0, sigma=0.3,
                           num_samples=30, horizon=6, recurrences=3)
    n = models.dynamics.state_dim
    return models, hp, RngStream(173).generator().standard_normal((10, n))


@pytest.mark.parametrize("kind", ["linear", "pendulum_teacher", "mlp"])
def test_batched_forward_equals_per_sample_calls_bitwise(kind):
    models, hp, starts = _batch_case(kind)
    root = RngStream(179)
    for B in (1, 3, 10):
        streams = [root.child(b) for b in range(B)]
        plans, tape = pi_net_forward(starts[:B], None, models, hp, streams)
        assert tape is None
        assert plans.shape == (B, hp.horizon, models.weight.dim)
        for b in range(B):
            single, _ = pi_net_forward(starts[b], None, models, hp,
                                       streams[b])
            assert plans[b].tobytes() == single.tobytes(), (B, b)


def test_recorded_forward_rejects_a_batch():
    models, hp, starts = _batch_case("mlp")
    streams = [RngStream(191).child(b) for b in range(2)]
    with pytest.raises(ParameterError, match="one sample"):
        pi_net_forward(starts[:2], None, models, hp, streams, record=True)
    with pytest.raises(ShapeError, match="one stream per state"):
        pi_net_forward(starts[:3], None, models, hp, streams)


def test_batched_rollout_names_the_diverging_sample():
    models = scalar_models()
    noise = np.zeros((2, 2, 2, 1))
    noise[1, 1, :, 0] = 1e308
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="trajectory 1 of sample 1"):
        monte_carlo_rollout(np.zeros((2, 1)), np.zeros((2, 2, 1)), noise,
                            models.dynamics, models.cost, np.eye(1), 1500.0)


def test_evaluate_losses_over_chunks_equals_the_per_sample_mean_exactly():
    models, hp, starts = _batch_case("mlp")
    controls = RngStream(193).generator().standard_normal((7, 1))
    samples = [MPCSample(x, u, x) for x, u in zip(starts, controls)]
    weights = {"ctrl": 1.0, "cost": 1e-3}
    goals = np.array([[np.pi, 0.0], [-np.pi, 0.0]])
    rng = RngStream(197)
    # chunks of hp.recurrences = 3 samples: 3 + 3 + 1
    got = evaluate_losses(models, hp, samples, "mpc", rng, weights, goals)
    # each sample's losses are those of its own unbatched plan
    ctrl = cost = 0.0
    for i, sample in enumerate(samples):
        plan, _ = pi_net_forward(sample.x, None, models, hp, rng.child(i))
        ctrl += float(np.mean((plan[0] - sample.u) ** 2))
        cost += loss_cost(models.cost, goals, sample.x[None, :])
    ctrl /= len(samples)
    cost /= len(samples)
    assert got["ctrl"] == ctrl
    assert got["cost"] == cost
    assert got["total"] == weights["ctrl"] * ctrl + weights["cost"] * cost


# ---------------------------------------------------------------- planner


def test_planner_wraps_forward():
    models = tiny_neural_models(157)
    planner = PathIntegralPlanner(models, TINY_HP, warm_recurrences=1)
    assert planner.control_dim == 1
    rng = RngStream(163)
    x0 = np.array([0.2, -0.2])
    useq = planner.plan(x0, rng=rng)
    direct, _ = pi_net_forward(x0, None, models, TINY_HP, rng)
    assert np.array_equal(useq, direct)
    short = planner.plan(x0, rng=rng, recurrences=1)
    assert not np.array_equal(useq, short)
    # a seeded plan runs the warm count unless recurrences overrides it
    init = np.vstack([useq[1:], np.zeros((1, 1))])
    warm = planner.plan(x0, init, rng)
    direct, _ = pi_net_forward(x0, init, models, TINY_HP, rng,
                               recurrences=1)
    assert warm.tobytes() == direct.tobytes()
    full, _ = pi_net_forward(x0, init, models, TINY_HP, rng)
    assert planner.plan(x0, init, rng, recurrences=2).tobytes() == \
        full.tobytes()
    assert not np.array_equal(warm, full)


@pytest.mark.parametrize("warm", [0, -3, 1.5, True])
def test_planner_rejects_non_positive_warm_recurrences(warm):
    with pytest.raises(ParameterError, match="warm_recurrences"):
        PathIntegralPlanner(tiny_neural_models(157), TINY_HP,
                            warm_recurrences=warm)
