import numpy as np
import pytest

from picontrol import experts
from picontrol.core import ParameterError, RngStream
from picontrol.envs import (PendulumDynamics, pendulum_teacher_models,
                            sample_linear_teacher)
from picontrol.experts import (ILQRPlanner, ILQRResult, ILQRSettings,
                               LQRPlanner, LQRProblem, ilqr_solve, lqr_solve,
                               riccati_gains, sequence_cost, trajectory_cost)
from picontrol.models import (LinearDynamics, MLPCost, PendulumTeacherCost,
                              QuadraticCost)

import oracles


def random_problem(seed, n=4, m=2, horizon=25):
    teacher = sample_linear_teacher(RngStream(seed))
    return LQRProblem(teacher.F, teacher.G, teacher.Q, teacher.R, horizon)


# -------------------------------------------------------------------- LQR


def test_scalar_lqr_matches_brute_force():
    p = LQRProblem(np.eye(1), np.eye(1), np.eye(1), np.eye(1), horizon=2)
    x0 = np.array([1.0])
    got = lqr_solve(p, x0)
    ref = oracles.brute_force_lq(p.F, p.G, p.Q, p.R, x0, 2)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_lqr_matches_brute_force_on_random_problems():
    for seed in range(5):
        p = random_problem(seed, horizon=12)
        x0 = RngStream(100 + seed).generator().normal(size=4)
        got = lqr_solve(p, x0)
        ref = oracles.brute_force_lq(p.F, p.G, p.Q, p.R, x0, p.horizon)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_lqr_zero_start_gives_zero_controls():
    p = random_problem(7)
    assert np.array_equal(lqr_solve(p, np.zeros(4)), np.zeros((p.horizon, 2)))


def test_lqr_output_is_locally_optimal():
    p = random_problem(11, horizon=15)
    x0 = np.array([1.0, -0.5, 0.3, 2.0])
    star = lqr_solve(p, x0)
    best = oracles.lq_objective(p.F, p.G, p.Q, p.R, x0, star)
    gen = RngStream(13).generator()
    for _ in range(100):
        perturbed = star + 1e-3 * gen.normal(size=star.shape)
        assert oracles.lq_objective(p.F, p.G, p.Q, p.R, x0, perturbed) >= best


def test_riccati_values_are_symmetric_psd():
    p = random_problem(17, horizon=30)
    _, values = riccati_gains(p)
    assert len(values) == p.horizon + 1
    for P in values:
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12


def test_lqr_problem_rejects_bad_weights():
    with pytest.raises(ParameterError):
        LQRProblem(np.eye(2), np.eye(2), np.eye(2), -np.eye(2), horizon=3)
    with pytest.raises(ParameterError):
        LQRProblem(np.eye(2), np.eye(2), np.diag([1.0, -1.0]), np.eye(2),
                   horizon=3)
    with pytest.raises(ParameterError):
        LQRProblem(np.eye(2), np.eye(2), np.eye(2), np.eye(2), horizon=0)


# ------------------------------------------------------------------- iLQR


def test_ilqr_matches_lqr_in_one_iteration():
    teacher = sample_linear_teacher(RngStream(19))
    p = LQRProblem(teacher.F, teacher.G, teacher.Q, teacher.R, horizon=20)
    x0 = np.array([0.8, -1.1, 0.4, 0.9])
    ref = lqr_solve(p, x0)
    result = ilqr_solve(LinearDynamics(p.F, p.G), QuadraticCost(p.Q), p.R,
                        x0, 20, ILQRSettings(max_iterations=1))
    assert np.max(np.abs(result.controls - ref)) < 1e-6


def test_ilqr_converges_on_lq_and_reports_it():
    teacher = sample_linear_teacher(RngStream(23))
    p = LQRProblem(teacher.F, teacher.G, teacher.Q, teacher.R, horizon=20)
    x0 = np.array([1.5, 0.0, -0.7, 0.2])
    result = ilqr_solve(LinearDynamics(p.F, p.G), QuadraticCost(p.Q), p.R,
                        x0, 20)
    assert result.converged and not result.degraded
    assert np.max(np.abs(result.controls - lqr_solve(p, x0))) < 1e-6


def test_ilqr_is_quiet_at_the_pendulum_goal():
    dyn, cost, weight = pendulum_teacher_models()
    result = ilqr_solve(dyn, cost, weight.matrix(), np.array([np.pi, 0.0]), 30)
    assert result.converged
    assert result.cost < 1e-3
    assert np.max(np.abs(result.controls)) < 1e-3


def test_swing_up_beats_the_zero_plan_only_on_long_horizons():
    # With control weight 5 and torque gain 0.5, a swing-up spends more on
    # torque than thirty steps of hanging cost; the zero plan is optimal
    # there (verified by 128-start global search), so improvement is only
    # required at horizons long enough to amortize the maneuver.
    dyn, cost, weight = pendulum_teacher_models()
    R = weight.matrix()
    x0 = np.array([0.0, 0.0])
    # the hanging state is a stationary point, so break symmetry to give
    # descent a signal; it still comes back to the zero plan's cost
    settings = ILQRSettings(max_iterations=300, tol=1e-9)
    short = ilqr_solve(dyn, cost, R, x0, 30, init=0.1 * np.ones((30, 1)),
                       settings=settings)
    zero_cost_30, _ = sequence_cost(dyn, cost, R, x0, np.zeros((30, 1)))
    assert short.cost == pytest.approx(zero_cost_30, abs=1e-5)

    long = ilqr_solve(dyn, cost, R, x0, 100, init=0.1 * np.ones((100, 1)),
                      settings=settings)
    zero_cost_100, _ = sequence_cost(dyn, cost, R, x0, np.zeros((100, 1)))
    assert long.cost < zero_cost_100 - 1.0


def test_ilqr_accepted_costs_are_monotone():
    dyn, cost, weight = pendulum_teacher_models()
    init = 0.5 * np.sin(np.linspace(0.0, 3.0, 30))[:, None]
    result = ilqr_solve(dyn, cost, weight.matrix(), np.array([0.4, -0.2]), 30,
                        init=init)
    costs = np.array(result.costs)
    assert np.all(np.diff(costs) <= 0.0)
    assert result.cost == costs[-1]


def test_ilqr_cost_is_the_sequence_cost_of_its_plan():
    # the solver scores its line search with the same objective
    dyn, cost, weight = pendulum_teacher_models()
    init = 0.5 * np.sin(np.linspace(0.0, 3.0, 30))[:, None]
    pendulum = ilqr_solve(dyn, cost, weight.matrix(), np.array([0.4, -0.2]),
                          30, init=init)
    assert len(pendulum.costs) > 1
    assert pendulum.cost == sequence_cost(dyn, cost, weight.matrix(),
                                          np.array([0.4, -0.2]),
                                          pendulum.controls)[0]

    p = random_problem(31, horizon=20)
    x0 = np.array([1.5, 0.0, -0.7, 0.2])
    linear = ilqr_solve(LinearDynamics(p.F, p.G), QuadraticCost(p.Q), p.R,
                        x0, 20)
    assert len(linear.costs) > 1
    assert linear.cost == sequence_cost(LinearDynamics(p.F, p.G),
                                        QuadraticCost(p.Q), p.R, x0,
                                        linear.controls)[0]


def test_ilqr_sweep_retries_are_not_iterations(monkeypatch):
    # a cost Hessian shifted below zero makes unregularized sweeps fail;
    # each retry raises the regularization at the same linearization
    dyn, cost, weight = pendulum_teacher_models()

    class Shifted:
        running, terminal, gradient = cost.running, cost.terminal, cost.gradient

        def hessian(self, x):
            return cost.hessian(x) - 50.0 * np.eye(2)

    class Counted:
        jacobians = 0
        forward = dyn.forward

        def jacobian(self, x, u):
            Counted.jacobians += 1
            return dyn.jacobian(x, u)

    sweeps = []
    backward = experts._ilqr_backward

    def recorded(*args):
        sweeps.append(backward(*args))
        return sweeps[-1]

    monkeypatch.setattr(experts, "_ilqr_backward", recorded)
    result = ilqr_solve(Counted(), Shifted(), weight.matrix(),
                        np.array([0.4, -0.2]), 20,
                        ILQRSettings(max_iterations=5),
                        init=0.3 * np.ones((20, 1)))
    assert sum(s is None for s in sweeps) > 0
    assert result.iterations == Counted.jacobians
    assert len(sweeps) > result.iterations


@pytest.mark.parametrize("cost_name", ["quadratic", "mlp", "pendulum_teacher"])
def test_sequence_cost_is_the_trajectory_cost_of_its_rollout(cost_name):
    gen = RngStream(37).generator()
    if cost_name == "quadratic":
        p = random_problem(37, horizon=12)
        dyn, cost, R = LinearDynamics(p.F, p.G), QuadraticCost(p.Q), p.R
        x0, useq = gen.normal(size=4), gen.normal(size=(12, 2))
    else:
        dyn = PendulumDynamics()
        cost = (MLPCost(init_rng=RngStream(38)) if cost_name == "mlp"
                else PendulumTeacherCost())
        R = np.array([[5.0]])
        x0, useq = gen.normal(size=2), gen.normal(size=(12, 1))
    total, states = sequence_cost(dyn, cost, R, x0, useq)
    assert states.shape == (13, x0.size)
    assert total == trajectory_cost(states, useq, cost, R)


def test_ilqr_settings_validation():
    with pytest.raises(ParameterError):
        ILQRSettings(max_iterations=0)
    with pytest.raises(ParameterError):
        ILQRSettings(tol=-1.0)


# ---------------------------------------------------------------- planners


def test_lqr_planner_matches_direct_solve():
    p = random_problem(29, horizon=10)
    planner = LQRPlanner(p)
    x0 = np.array([0.3, 0.4, -0.2, 1.0])
    assert np.array_equal(planner.plan(x0), lqr_solve(p, x0))
    assert planner.plan(x0).shape == (10, 2)
    assert planner.control_dim == 2
    # init and rng are accepted and ignored
    assert np.array_equal(planner.plan(x0, init=np.ones((10, 2)),
                                       rng=RngStream(1)), planner.plan(x0))


def test_ilqr_planner_warm_start_reuses_plan():
    dyn, cost, weight = pendulum_teacher_models()
    planner = ILQRPlanner(dyn, cost, weight.matrix(), horizon=30)
    x0 = np.array([2.5, 0.0])
    cold = planner.plan(x0)
    assert cold.shape == (30, 1)
    warm = planner.plan(x0, init=cold)
    j_cold, _ = sequence_cost(dyn, cost, weight.matrix(), x0, cold)
    j_warm, _ = sequence_cost(dyn, cost, weight.matrix(), x0, warm)
    assert j_warm <= j_cold + 1e-9
