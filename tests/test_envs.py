import csv

import numpy as np
import pytest

from picontrol.core import NumericError, RngStream
from picontrol.envs import (LinearPlant, PendulumDynamics, PendulumPlant,
                            SimulationResult, linear_teacher_from,
                            mpc_simulate, pendulum_teacher_models,
                            sample_linear_teacher, trajectory_cost,
                            upright_success, wrap_angle, write_trajectory_csv)
from picontrol.models import MODEL_TYPES, PendulumTeacherCost

import oracles


class ZeroPlanner:
    """Constant zero plan; enough to exercise the simulation loop."""

    def __init__(self, horizon, control_dim):
        self.horizon = horizon
        self.control_dim = control_dim

    def plan(self, x0, init=None, rng=None):
        return np.zeros((self.horizon, self.control_dim))


class RecordingPlanner(ZeroPlanner):
    """Returns a distinct plan per call and records what each call got."""

    def __init__(self, horizon, control_dim):
        super().__init__(horizon, control_dim)
        self.calls = []

    def plan(self, x0, init=None, rng=None):
        plan = (len(self.calls) + 1.0) * np.arange(
            1.0, 1.0 + self.horizon * self.control_dim).reshape(
                self.horizon, self.control_dim)
        self.calls.append((np.array(x0), init, rng, plan))
        return plan


# ------------------------------------------------------------------ angles


def test_wrap_angle_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2, abs=1e-15)
    assert wrap_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-15)


def test_wrap_angle_range():
    theta = RngStream(3).generator().uniform(-50, 50, size=1000)
    wrapped = wrap_angle(theta)
    assert np.all(wrapped > -np.pi)
    assert np.all(wrapped <= np.pi)
    # equivalent angle: difference is a multiple of 2 pi
    k = (theta - wrapped) / (2 * np.pi)
    assert np.max(np.abs(k - np.round(k))) < 1e-9


# ----------------------------------------------------------------- teacher


def test_linear_teacher_is_orthogonal():
    for seed in range(100):
        t = sample_linear_teacher(RngStream(seed, key=(1,)))
        assert np.max(np.abs(t.F.T @ t.F - np.eye(4))) < 1e-10


def test_linear_teacher_zero_block_and_weights():
    t = sample_linear_teacher(RngStream(5))
    assert np.array_equal(t.G[2:], np.zeros((2, 2)))
    assert np.array_equal(t.Q, np.eye(4) * 0.01)
    assert np.array_equal(t.R, np.eye(2) * 0.01)
    assert t.dt == 0.01


def test_zero_drift_gives_identity():
    t = linear_teacher_from(np.zeros((4, 4)), np.ones((2, 2)))
    assert np.array_equal(t.F, np.eye(4))


def test_teacher_models_bundle():
    t = sample_linear_teacher(RngStream(9))
    dyn, cost, weight = t.models()
    assert np.array_equal(dyn.F, t.F)
    assert np.allclose(weight.matrix(), t.R, atol=1e-15)


# ---------------------------------------------------------------- pendulum


def test_pendulum_hanging_fixed_point_is_exact():
    out = PendulumPlant().step(np.array([0.0, 0.0]), 0.0)
    assert np.array_equal(out, np.zeros(2))


def test_pendulum_upright_fixed_point():
    # sin(float pi) is 1.2e-16, not zero, so one step moves by O(1e-17);
    # bitwise equality is unrepresentable and this is the honest bound.
    out = PendulumPlant().step(np.array([np.pi, 0.0]), 0.0)
    assert abs(out[0] - np.pi) < 1e-15
    assert abs(out[1]) < 1e-15


def test_pendulum_step_matches_fine_integrator():
    for state, torque in [((np.pi / 2, 0.0), 0.0), ((0.3, -0.5), 1.0),
                          ((-2.0, 1.0), -2.0), ((3.0, 0.5), 0.7)]:
        got = PendulumPlant().step(np.array(state), torque)
        ref = oracles.fine_pendulum_step(np.array(state), torque)
        ref[0] = wrap_angle(ref[0])
        assert np.max(np.abs(got - ref)) < 1e-5


def test_pendulum_forward_matches_literal_rk4_bitwise():
    gen = RngStream(17).generator()
    for dt, gain in ((0.1, 0.5), (0.05, 2.0)):
        dyn = PendulumDynamics(dt=dt, gain=gain)
        for B in (1, 2, 7, 100):
            for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3):
                # strided columns of rollout-shaped tensors and their
                # contiguous copies
                states = scale * gen.standard_normal((B, 6, 2))
                controls = scale * gen.standard_normal((B, 5, 1))
                x, v = states[:, 2], controls[:, 2]
                want = oracles.pendulum_rk4(x, v, dt, gain).tobytes()
                assert dyn.forward(x, v).tobytes() == want, (dt, B, scale)
                got = dyn.forward(np.ascontiguousarray(x),
                                  np.ascontiguousarray(v))
                assert got.tobytes() == want, (dt, B, scale)


def test_pendulum_forward_on_a_batch_equals_per_sample_calls_bitwise():
    gen = RngStream(23).generator()
    dyn = PendulumDynamics()
    for B in (1, 3, 10):
        for K in (1, 2, 7, 30, 100):
            x = gen.standard_normal((B, K, 2))
            v = gen.standard_normal((B, K, 1))
            got = dyn.forward(x, v)
            assert got.shape == (B, K, 2)
            want = np.stack([dyn.forward(x[b], v[b]) for b in range(B)])
            assert got.tobytes() == want.tobytes(), (B, K)


def test_pendulum_energy_drift_is_small():
    dyn = PendulumDynamics()
    gen = RngStream(11).generator()
    states = np.column_stack([gen.uniform(-np.pi, np.pi, 20),
                              gen.uniform(-2.0, 2.0, 20)])
    nxt = dyn.forward(states, np.zeros((20, 1)))

    def energy(s):
        return 0.5 * s[:, 1] ** 2 - np.cos(s[:, 0])

    assert np.max(np.abs(energy(nxt) - energy(states))) < 1e-5


def test_pendulum_model_does_not_wrap():
    dyn = PendulumDynamics()
    out = dyn.forward(np.array([[3.1, 2.0]]), np.zeros((1, 1)))
    assert out[0, 0] > np.pi  # keeps accumulating, no jump
    plant_out = PendulumPlant().step(np.array([3.1, 2.0]), 0.0)
    assert plant_out[0] <= np.pi


def test_pendulum_jacobian_matches_finite_differences():
    dyn = PendulumDynamics()
    gen = RngStream(13).generator()
    x = gen.uniform(-3, 3, size=(5, 2))
    v = gen.uniform(-2, 2, size=(5, 1))
    A, B = dyn.jacobian(x, v)
    eps = 1e-6
    for b in range(5):
        for j in range(2):
            hi, lo = x.copy(), x.copy()
            hi[b, j] += eps
            lo[b, j] -= eps
            fd = (dyn.forward(hi, v)[b] - dyn.forward(lo, v)[b]) / (2 * eps)
            assert np.max(np.abs(A[b, :, j] - fd)) < 1e-8
        hi, lo = v.copy(), v.copy()
        hi[b, 0] += eps
        lo[b, 0] -= eps
        fd = (dyn.forward(x, hi)[b] - dyn.forward(x, lo)[b]) / (2 * eps)
        assert np.max(np.abs(B[b, :, 0] - fd)) < 1e-8


def test_pendulum_vjp_is_the_jacobian_transpose():
    dyn = PendulumDynamics()
    gen = RngStream(17).generator()
    x = gen.uniform(-3, 3, size=(4, 2))
    v = gen.uniform(-2, 2, size=(4, 1))
    cot = gen.normal(size=(4, 2))
    A, B = dyn.jacobian(x, v)
    x_bar, v_bar, p_bar = dyn.vjp(x, v, cot)
    assert np.allclose(x_bar, np.einsum("bij,bi->bj", A, cot), atol=1e-15)
    assert np.allclose(v_bar, np.einsum("bij,bi->bj", B, cot), atol=1e-15)
    assert p_bar.size == 0


def test_pendulum_dynamics_is_registered():
    assert MODEL_TYPES["pendulum_dynamics"] is PendulumDynamics


# ----------------------------------------------------------------- metrics


def test_upright_success_cases():
    dt = 0.1
    up = np.tile([np.pi, 0.0], (601, 1))
    assert upright_success(up, dt)
    down = np.zeros((601, 2))
    assert not upright_success(down, dt)
    # 50 upright samples span 4.9 s: just below the window
    traj = np.zeros((120, 2))
    traj[10:60, 0] = np.pi
    assert not upright_success(traj, dt)
    traj[10:61, 0] = np.pi  # 51 samples span 5.0 s
    assert upright_success(traj, dt)


def test_upright_success_accepts_both_goals():
    dt = 0.1
    traj = np.tile([-np.pi + 0.3, 0.0], (601, 1))
    assert upright_success(traj, dt)


def test_trajectory_cost_single_step():
    cost = PendulumTeacherCost()
    states = np.array([[0.0, 0.0], [0.0, 0.0]])
    controls = np.zeros((1, 1))
    got = trajectory_cost(states, controls, cost, np.array([[5.0]]))
    assert got == oracles.SINGLE_STEP_TRAJECTORY_COST


def test_trajectory_cost_zero_at_goal():
    cost = PendulumTeacherCost()
    states = np.tile([np.pi, 0.0], (11, 1))
    controls = np.zeros((10, 1))
    assert trajectory_cost(states, controls, cost, np.array([[5.0]])) == 0.0


# -------------------------------------------------------------- simulation


def test_zero_duration_simulation():
    planner = ZeroPlanner(horizon=5, control_dim=1)
    result = mpc_simulate(planner, PendulumPlant(), np.array([1.0, 0.0]), 0.0)
    assert result.states.shape == (1, 2)
    assert result.controls.shape == (0, 1)
    assert result.success is False
    assert result.cost is None


def test_simulation_collects_metrics():
    dyn, cost, weight = pendulum_teacher_models()
    planner = ZeroPlanner(horizon=5, control_dim=1)
    result = mpc_simulate(planner, PendulumPlant(), np.array([np.pi, 0.0]),
                          1.0, cost_model=cost, weight_matrix=weight.matrix(),
                          success_fn=lambda s: upright_success(s, 0.1, window=0.5))
    assert result.states.shape == (11, 2)
    assert result.success
    assert result.cost == pytest.approx(0.0, abs=1e-25)


def test_simulation_warm_starts_each_plan_from_the_shifted_previous_plan():
    planner = RecordingPlanner(horizon=4, control_dim=2)
    plant = LinearPlant(0.5 * np.eye(3), np.ones((3, 2)), dt=0.1)
    rng = RngStream(7)
    result = mpc_simulate(planner, plant, np.array([1.0, -0.4, 0.2]), 0.5,
                          rng=rng)
    assert len(planner.calls) == 5
    for i, (x, init, stream, plan) in enumerate(planner.calls):
        assert np.array_equal(x, result.states[i])
        assert stream == rng.child(i)
        assert np.array_equal(result.controls[i], plan[0])
        if i == 0:
            assert init is None
        else:
            previous = planner.calls[i - 1][3]
            assert np.array_equal(init, np.vstack([previous[1:],
                                                   np.zeros((1, 2))]))


def test_simulation_reports_divergence_step():
    planner = ZeroPlanner(horizon=2, control_dim=1)
    plant = LinearPlant([[1e308]], [[0.0]], dt=0.1)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="step 0"):
        mpc_simulate(planner, plant, np.array([10.0]), 0.3)


# --------------------------------------------------------------------- csv


def test_trajectory_csv_roundtrip(tmp_path):
    cost = PendulumTeacherCost()
    states = np.array([[0.0, 0.0], [0.1, 0.2], [0.2, 0.1]])
    controls = np.array([[1.0], [-1.0]])
    path = tmp_path / "run.csv"
    write_trajectory_csv(path, states, controls, 0.1, cost_model=cost)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "x0", "x1", "u0", "cost"]
    assert len(rows) == 4
    assert float(rows[1][3]) == 1.0
    assert rows[3][3] == ""  # final row has no control
    assert float(rows[1][4]) == pytest.approx(cost.running(states[:1])[0])
    assert float(rows[3][4]) == pytest.approx(cost.terminal(states[2:])[0])
