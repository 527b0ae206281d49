import numpy as np
import pytest

from picontrol.core import ParameterError, RngStream, ShapeError
from picontrol.models import (MODEL_TYPES, ControlCostWeight, LinearDynamics,
                              MLPCost, MLPDynamics, PendulumTeacherCost,
                              control_penalty)

import oracles


# Central differences at step 1e-5 carry ~5e-11 of roundoff/truncation noise
# at unit loss scale, so coordinates whose true magnitude is a few 1e-6 can
# never meet a pure relative bound; the small absolute allowance below covers
# exactly that oracle noise (a real VJP bug shows up at gradient scale).
FD_NOISE = 1e-9


def _fd_agrees(got, fd, rtol, floor):
    rel = oracles.relative_errors(got, fd, floor)
    return np.all((rel < rtol) | (np.abs(np.asarray(got) - np.asarray(fd)) < FD_NOISE))


def _check_dynamics_vjp(model, x, v, rng, rtol=1e-5, floor=1e-8):
    """Compare every coordinate of the dynamics VJP to central differences."""
    n = x.size
    cot = rng.standard_normal(n)

    def loss_at(params=None, xx=None, vv=None):
        if params is not None:
            model.set_params(params)
        out = model.forward((x if xx is None else xx)[None, :],
                            (v if vv is None else vv)[None, :])[0]
        return float(cot @ out)

    base_params = model.get_params()
    x_bar, v_bar, p_bar = model.vjp(x[None, :], v[None, :], cot[None, :])

    fd_x = oracles.central_difference(lambda xx: loss_at(xx=xx), x)
    fd_v = oracles.central_difference(lambda vv: loss_at(vv=vv), v)
    assert _fd_agrees(x_bar[0], fd_x, rtol, floor)
    assert _fd_agrees(v_bar[0], fd_v, rtol, floor)
    if base_params.size:
        fd_p = oracles.central_difference(lambda p: loss_at(params=p), base_params)
        model.set_params(base_params)
        assert _fd_agrees(p_bar, fd_p, rtol, floor)


def _check_cost_vjp(model, x, rng, rtol=1e-5, floor=1e-8):
    cot = float(rng.standard_normal())

    def loss_at(params=None, xx=None):
        if params is not None:
            model.set_params(params)
        return cot * float(model.running((x if xx is None else xx)[None, :])[0])

    base_params = model.get_params()
    x_bar, p_bar = model.running_vjp(x[None, :], np.array([cot]))
    fd_x = oracles.central_difference(lambda xx: loss_at(xx=xx), x)
    assert _fd_agrees(x_bar[0], fd_x, rtol, floor)
    if base_params.size:
        fd_p = oracles.central_difference(lambda p: loss_at(params=p), base_params)
        model.set_params(base_params)
        assert _fd_agrees(p_bar, fd_p, rtol, floor)


def test_linear_dynamics_example():
    model = LinearDynamics(np.eye(2), [[1.0], [0.0]])
    out = model.forward(np.array([[1.0, 2.0]]), np.array([[3.0]]))
    assert np.array_equal(out, [[4.0, 2.0]])


def test_linear_dynamics_zero():
    model = LinearDynamics(np.eye(3), np.ones((3, 2)))
    out = model.forward(np.zeros((1, 3)), np.zeros((1, 2)))
    assert np.array_equal(out, np.zeros((1, 3)))


def test_linear_dynamics_exactly_linear():
    rng = np.random.default_rng(3)
    model = LinearDynamics(rng.standard_normal((4, 4)), rng.standard_normal((4, 2)))
    for _ in range(20):
        x1, x2 = rng.standard_normal((2, 1, 4))
        v1, v2 = rng.standard_normal((2, 1, 2))
        a, b = rng.standard_normal(2)
        lhs = model.forward(a * x1 + b * x2, a * v1 + b * v2)
        rhs = a * model.forward(x1, v1) + b * model.forward(x2, v2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_linear_dynamics_vjp_adjoint():
    rng = np.random.default_rng(4)
    F = rng.standard_normal((3, 3))
    G = rng.standard_normal((3, 2))
    model = LinearDynamics(F, G)
    cot = rng.standard_normal((5, 3))
    x = rng.standard_normal((5, 3))
    v = rng.standard_normal((5, 2))
    x_bar, v_bar, _ = model.vjp(x, v, cot)
    assert np.allclose(x_bar, cot @ F)
    assert np.allclose(v_bar, cot @ G)


def test_vjp_zero_cotangent():
    rng = np.random.default_rng(5)
    model = MLPDynamics(init_rng=RngStream(1))
    x_bar, v_bar, p_bar = model.vjp(rng.standard_normal((4, 2)),
                                    rng.standard_normal((4, 1)),
                                    np.zeros((4, 2)))
    assert not x_bar.any() and not v_bar.any() and not p_bar.any()


@pytest.mark.parametrize("make", [
    lambda rng: LinearDynamics(rng.standard_normal((4, 4)),
                               rng.standard_normal((4, 2))),
    lambda rng: MLPDynamics(hidden=12, dt=0.1, init_rng=RngStream(5)),
], ids=["linear", "mlp"])
def test_dynamics_forward_on_a_batch_equals_per_sample_calls_bitwise(make):
    rng = np.random.default_rng(19)
    model = make(rng)
    n, m = model.state_dim, model.control_dim
    for B in (1, 3, 10):
        for K in (1, 2, 7, 30, 100):
            x = rng.standard_normal((B, K, n))
            v = rng.standard_normal((B, K, m))
            got = model.forward(x, v)
            assert got.shape == (B, K, n)
            want = np.stack([model.forward(x[b], v[b]) for b in range(B)])
            assert got.tobytes() == want.tobytes(), (B, K)


def test_dynamics_vjps_match_finite_differences():
    rng = np.random.default_rng(10)
    linear = LinearDynamics(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
    for _ in range(50):
        _check_dynamics_vjp(linear, rng.standard_normal(3), rng.standard_normal(2), rng)
    mlp = MLPDynamics(init_rng=RngStream(7))
    for _ in range(50):
        _check_dynamics_vjp(mlp, rng.standard_normal(2), rng.standard_normal(1), rng)


def test_cost_vjps_match_finite_differences():
    rng = np.random.default_rng(11)
    quad = QuadraticCostFactory(rng)
    for _ in range(34):
        _check_cost_vjp(quad, rng.standard_normal(4), rng)
    mlp = MLPCost(init_rng=RngStream(8))
    for _ in range(33):
        _check_cost_vjp(mlp, rng.standard_normal(2), rng)
    teacher = PendulumTeacherCost()
    for _ in range(33):
        _check_cost_vjp(teacher, rng.standard_normal(2) * 2.0, rng)


def QuadraticCostFactory(rng):
    from picontrol.models import QuadraticCost
    return QuadraticCost(rng.standard_normal((4, 4)))


def test_quadratic_cost_example():
    from picontrol.models import QuadraticCost
    cost = QuadraticCost(np.eye(4) * 0.01)
    val = cost.running(np.ones((1, 4)))[0]
    assert val == pytest.approx(oracles.QUADRATIC_COST_EXAMPLE, abs=1e-15)


def test_quadratic_cost_symmetry_and_zero():
    from picontrol.models import QuadraticCost
    rng = np.random.default_rng(12)
    cost = QuadraticCost(rng.standard_normal((4, 4)))
    x = rng.standard_normal((6, 4))
    assert np.allclose(cost.running(x), cost.running(-x))
    assert cost.running(np.zeros((1, 4)))[0] == 0.0


def test_pendulum_teacher_cost_values():
    cost = PendulumTeacherCost()
    assert cost.running(np.array([[np.pi, 0.0]]))[0] == oracles.PENDULUM_COST_AT_GOAL
    assert cost.running(np.array([[-np.pi, 0.0]]))[0] == oracles.PENDULUM_COST_AT_GOAL
    assert cost.running(np.array([[0.0, 0.0]]))[0] == oracles.PENDULUM_COST_AT_HANG


def test_pendulum_teacher_hessian_matches_fd():
    cost = PendulumTeacherCost()
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.standard_normal(2) * 2.0
        H = cost.hessian(x[None, :])[0]
        for j in range(2):
            def grad_j(xx):
                return cost.gradient(xx[None, :])[0, j]
            fd = oracles.central_difference(grad_j, x)
            assert np.all(oracles.relative_errors(H[j], fd, 1e-6) < 1e-4)


def test_mlp_cost_nonnegative():
    model = MLPCost(init_rng=RngStream(21))
    rng = np.random.default_rng(14)
    vals = model.running(rng.standard_normal((500, 2)) * 5.0)
    assert np.all(vals >= 0.0)


def test_mlp_dynamics_euler_structure():
    # theta' must be exactly theta + dt * theta_dot regardless of weights
    model = MLPDynamics(init_rng=RngStream(22))
    rng = np.random.default_rng(15)
    x = rng.standard_normal((10, 2))
    v = rng.standard_normal((10, 1))
    out = model.forward(x, v)
    assert np.allclose(out[:, 0], x[:, 0] + model.dt * x[:, 1], rtol=0, atol=0)


def test_parameter_counts():
    assert MLPDynamics().num_params == 61
    assert MLPCost().num_params == 192
    assert ControlCostWeight(1).num_params == 1
    assert ControlCostWeight(2).num_params == 3


def test_control_weight_identity_and_scalar():
    assert np.array_equal(ControlCostWeight(3).matrix(), np.eye(3))
    w = ControlCostWeight.from_matrix([[5.0]])
    assert w.matrix()[0, 0] == pytest.approx(5.0, rel=1e-12)


def test_control_weight_rejects_indefinite():
    with pytest.raises(ParameterError):
        ControlCostWeight.from_matrix([[1.0, 2.0], [2.0, 1.0]])


def test_control_weight_pd_after_arbitrary_updates():
    # fresh arbitrary parameter settings each round; compounding a random
    # walk instead just drives the conditioning past what eigvalsh resolves
    rng = np.random.default_rng(16)
    w = ControlCostWeight(3)
    for _ in range(100):
        w.set_params(rng.standard_normal(w.num_params) * 2.0)
        eigs = np.linalg.eigvalsh(w.matrix())
        assert eigs.min() > 0.0
        assert np.all(np.diag(w.factor()) > 0.0)


def test_control_weight_vjp_matches_fd():
    rng = np.random.default_rng(17)
    w = ControlCostWeight.from_matrix(np.diag([2.0, 0.5]) + 0.1)
    cot = rng.standard_normal((2, 2))

    def loss(p):
        w.set_params(p)
        return float((cot * w.matrix()).sum())

    base = w.get_params()
    fd = oracles.central_difference(loss, base)
    w.set_params(base)
    got = w.vjp_matrix(cot)
    assert np.all(oracles.relative_errors(got, fd, 1e-8) < 1e-5)


def test_modified_running_cost_example():
    val = oracles.modified_running_cost(0.3, [1.0], [0.2], [[5.0]], 1500.0)
    assert val == pytest.approx(oracles.MODIFIED_COST_EXAMPLE, abs=1e-15)


def test_modified_running_cost_zero_controls():
    assert oracles.modified_running_cost(0.7, [0.0], [0.0], [[5.0]], 1500.0) == 0.7


def test_modified_running_cost_nu_one_drops_noise_quadratic():
    rng = np.random.default_rng(18)
    R = np.array([[2.0, 0.3], [0.3, 1.0]])
    u = rng.standard_normal(2)
    du = rng.standard_normal(2)
    val = oracles.modified_running_cost(0.0, u, du, R, 1.0)
    expected = 0.5 * u @ R @ u + u @ R @ du
    assert val == pytest.approx(expected, rel=1e-14)


def test_control_penalty_matches_scalar_form():
    rng = np.random.default_rng(19)
    useq = rng.standard_normal((5, 2))
    noise = rng.standard_normal((3, 5, 2))
    R = np.array([[2.0, 0.3], [0.3, 1.0]])
    nu = 1500.0
    got = control_penalty(useq, noise, R, nu)
    for k in range(3):
        for i in range(5):
            want = oracles.modified_running_cost(0.0, useq[i], noise[k, i], R, nu)
            assert got[k, i] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 7])
def test_control_penalty_over_a_batch_equals_per_sample_calls_bitwise(N, m):
    gen = np.random.default_rng(100 * N + m)
    B, K = 3, 5
    useq = gen.standard_normal((B, N, m))
    noise = gen.standard_normal((B, K, N, m))
    L = np.tril(gen.standard_normal((m, m))) + 2.0 * np.eye(m)
    R = L @ L.T
    got = control_penalty(useq, noise, R, 1500.0)
    want = np.stack([control_penalty(useq[b], noise[b], R, 1500.0)
                     for b in range(B)])
    assert got.shape == (B, K, N)
    assert got.tobytes() == want.tobytes()


# one small configuration per registered model type
PARAM_CONFIGS = {
    "linear_dynamics": {"n": 3, "m": 2},
    "quadratic_cost": {"n": 3},
    "mlp_dynamics": {"hidden": 4, "dt": 0.1},
    "mlp_cost": {"hidden": 4, "outputs": 3},
    "pendulum_teacher_cost": {},
    "control_weight": {"m": 2},
    "pendulum_dynamics": {"dt": 0.1, "gain": 0.5},
}


def test_set_params_shape_errors():
    with pytest.raises(ShapeError, match=r"MLPDynamics expects 61 parameters, got \(5,\)"):
        MLPDynamics().set_params(np.zeros(5))
    assert set(PARAM_CONFIGS) == set(MODEL_TYPES)
    rng = np.random.default_rng(20)
    for name, cls in MODEL_TYPES.items():
        model = cls.from_config(PARAM_CONFIGS[name])
        with pytest.raises(ShapeError, match=cls.__name__):
            model.set_params(np.zeros(model.num_params + 5))
        model.set_params(rng.standard_normal(model.num_params))
        params = model.get_params()
        model.set_params(params)
        assert model.get_params().tobytes() == params.tobytes()


def test_config_round_trips_for_every_model_type():
    # checkpoints store config() and rebuild each model with from_config
    for name, cls in MODEL_TYPES.items():
        assert cls.from_config(PARAM_CONFIGS[name]).config() == \
            PARAM_CONFIGS[name], name
