"""Benchmark systems, closed-loop simulation, and evaluation metrics.

Two plants: a family of random orthogonal linear systems, and a pendulum
swing-up task integrated with fourth-order Runge-Kutta.  The module also
owns the pendulum's iLQR expert, the receding-horizon loop (plan, apply
first control, repeat) and the success metric used to score controllers.
Runs are scored by experts.trajectory_cost, the planners' own objective,
re-exported here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import NumericError, RngStream, write_csv
from .experts import ILQRPlanner, ILQRSettings, trajectory_cost
from .models import (MODEL_TYPES, ControlCostWeight, FlatParams,
                     LinearDynamics, PendulumTeacherCost, QuadraticCost)


def wrap_angle(theta):
    """Map angles to (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    return -((np.pi - theta) % (2.0 * np.pi) - np.pi)


class PendulumDynamics(FlatParams):
    """RK4-discretized pendulum: theta_ddot = -sin(theta) + gain * u.

    The model is deliberately unwrapped (angles accumulate) so that it is
    smooth everywhere; the plant applies the wrap.  Parameter-free, with
    analytic Jacobians obtained by chaining the four stage derivatives.
    """

    PARAMS = ()
    CONFIG = ("dt", "gain")
    state_dim = 2
    control_dim = 1

    def __init__(self, dt=0.1, gain=0.5):
        self.dt = float(dt)
        self.gain = float(gain)

    def _step(self, x, v):
        """(one RK4 step of the batch, the angles of its four stages).

        Stepped per state component.  Bitwise contract: the step equals
        the literal RK4 step on (B, 2) stage arrays, x + (h/6)(k1 + 2 k2 +
        2 k3 + k4) with k_j = (omega_j, -sin(theta_j) + gain * v), because
        it performs the same IEEE operations in the same order.  Each
        stage's theta derivative is the previous stage's omega, so no
        stage array is built, and the omega derivative gu - sin(theta)
        equals -sin(theta) + gu exactly.
        """
        h = self.dt
        a = 0.5 * h
        th, om = x[..., 0], x[..., 1]
        gu = self.gain * v[..., 0]
        f1 = gu - np.sin(th)
        om2 = om + a * f1
        th2 = th + a * om
        f2 = gu - np.sin(th2)
        om3 = om + a * f2
        th3 = th + a * om2
        f3 = gu - np.sin(th3)
        om4 = om + h * f3
        th4 = th + h * om3
        f4 = gu - np.sin(th4)
        c = h / 6.0
        out = np.empty(x.shape)
        out[..., 0] = th + c * (om + 2.0 * om2 + 2.0 * om3 + om4)
        out[..., 1] = om + c * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        return out, (th, th2, th3, th4)

    def forward(self, x, v):
        """One RK4 step of the batch (any leading axes)."""
        return self._step(x, v)[0]

    def jacobian(self, x, v):
        h = self.dt
        a = 0.5 * h
        B = x.shape[0]
        eye = np.broadcast_to(np.eye(2), (B, 2, 2))
        gu = np.zeros((B, 2, 1))
        gu[:, 1, 0] = self.gain
        # stage j's state Jacobian is [[0, 1], [-cos(theta_j), 0]]
        J1, J2, J3, J4 = np.zeros((4, B, 2, 2))
        for J, angle in zip((J1, J2, J3, J4), self._step(x, v)[1]):
            J[:, 0, 1] = 1.0
            J[:, 1, 0] = -np.cos(angle)
        D1, E1 = J1, gu
        D2, E2 = J2 @ (eye + a * D1), J2 @ (a * E1) + gu
        D3, E3 = J3 @ (eye + a * D2), J3 @ (a * E2) + gu
        D4, E4 = J4 @ (eye + h * D3), J4 @ (h * E3) + gu
        A = eye + (h / 6.0) * (D1 + 2.0 * D2 + 2.0 * D3 + D4)
        Bm = (h / 6.0) * (E1 + 2.0 * E2 + 2.0 * E3 + E4)
        return A, Bm

    def vjp(self, x, v, cot):
        A, Bm = self.jacobian(x, v)
        x_bar = np.einsum("bij,bi->bj", A, cot)
        v_bar = np.einsum("bij,bi->bj", Bm, cot)
        return x_bar, v_bar, np.zeros(0)


MODEL_TYPES["pendulum_dynamics"] = PendulumDynamics


class PendulumPlant:
    """Stateful-free pendulum stepper with wrapped angles."""

    def __init__(self, dt=0.1, gain=0.5):
        self.dt = float(dt)
        self.gain = float(gain)
        self._dyn = PendulumDynamics(dt=dt, gain=gain)

    state_dim = 2

    def step(self, x, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = self._dyn.forward(np.asarray(x, dtype=float)[None, :], u[None, :])[0]
        out[0] = wrap_angle(out[0])
        return out


class LinearPlant:
    """x' = Fx + Gu, exact and noise-free."""

    def __init__(self, F, G, dt=0.01):
        self.F = np.asarray(F, dtype=float)
        self.G = np.asarray(G, dtype=float)
        self.dt = float(dt)

    @property
    def state_dim(self):
        return self.F.shape[0]

    def step(self, x, u):
        return self.F @ np.asarray(x, dtype=float) + self.G @ np.atleast_1d(u)


@dataclass(frozen=True)
class LinearTeacher:
    """Ground-truth models of one random linear experiment instance."""

    F: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    dt: float

    def models(self):
        """Teacher dynamics/cost/weight triple for a sampling controller."""
        return (LinearDynamics(self.F, self.G), QuadraticCost(self.Q),
                ControlCostWeight.from_matrix(self.R))


def linear_teacher_from(A, Gc, dt=0.01) -> LinearTeacher:
    """Build the teacher from raw draws: F = expm(dt (A - A')), G = [Gc; 0].

    The drift is the exponential of a scaled skew-symmetric matrix (hence
    exactly orthogonal); only the first Gc.shape[0] states are directly
    actuated.  State cost and control weight are identity scaled by the
    step.
    """
    A = np.asarray(A, dtype=float)
    Gc = np.asarray(Gc, dtype=float)
    (n, _), (actuated, m) = A.shape, Gc.shape
    F = expm(dt * (A - A.T))
    G = np.vstack([Gc, np.zeros((n - actuated, m))])
    return LinearTeacher(F, G, np.eye(n) * dt, np.eye(m) * dt, dt)


def sample_linear_teacher(rng: RngStream, dt=0.01) -> LinearTeacher:
    """Draw one random linear system of 4 states and 2 controls (drift
    entries N(0,1), actuation block entries N(0, dt)); every other linear
    shape is read from the system drawn here."""
    gen = rng.generator()
    return linear_teacher_from(gen.normal(size=(4, 4)),
                               gen.normal(0.0, np.sqrt(dt), size=(2, 2)), dt)


def pendulum_teacher_models(dt=0.1, gain=0.5, control_weight=5.0):
    """Ground-truth pendulum dynamics/cost/weight triple."""
    return (PendulumDynamics(dt=dt, gain=gain), PendulumTeacherCost(),
            ControlCostWeight.from_matrix([[control_weight]]))


# Planning horizon for the demonstration-generating iLQR controller.  With
# control weight 5 the swing-up only pays off against hanging on long
# horizons (the crossover is near 90 steps); at 210 steps the realized
# 10-run mean trajectory cost lands on the reference expert value.
PENDULUM_EXPERT_HORIZON = 210


def pendulum_expert(horizon=PENDULUM_EXPERT_HORIZON) -> ILQRPlanner:
    """The iLQR teacher that demonstrates and benchmarks the swing-up."""
    dynamics, cost, weight = pendulum_teacher_models()
    return ILQRPlanner(dynamics, cost, weight.matrix(), horizon,
                       ILQRSettings(max_iterations=100))


def upright_success(states, dt, window=5.0, threshold=0.5):
    """True iff the pendulum stays upright for a contiguous window.

    Upright means the wrapped angle is within `threshold` of either +pi
    or -pi.  A run of c consecutive upright samples spans (c-1)*dt
    seconds; the comparison is done on integer step counts so no
    floating-point accumulation can flip the boundary case.
    """
    theta = wrap_angle(np.asarray(states, dtype=float)[:, 0])
    upright = np.abs(np.abs(theta) - np.pi) < threshold
    needed = int(np.ceil(window / dt - 1e-9))
    run = best = 0
    for flag in upright:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best - 1 >= needed


@dataclass
class SimulationResult:
    states: np.ndarray    # (T+1, n)
    controls: np.ndarray  # (T, m)
    success: bool
    cost: float | None


def mpc_simulate(planner, plant, x0, duration, rng=None, cost_model=None,
                 weight_matrix=None, success_fn=None) -> SimulationResult:
    """Receding-horizon loop: plan, apply the first control, step, repeat.

    Args:
        planner: object with control_dim and plan(x0, init, rng); each plan
            after the first is seeded with the previous plan shifted left
            by one step, a zero control appended.
        plant: object with step(x, u) and dt.
        x0: initial plant state.
        duration: simulated seconds; steps = round(duration / plant.dt).
        rng: stream; step i plans with rng.child(i).
        cost_model, weight_matrix: when both given, the realized
            trajectory cost is computed, else the cost field is None.
        success_fn: optional states -> bool metric; False when omitted.

    Raises:
        NumericError: the plant state left the finite range, with the step.
    """
    if rng is None:
        rng = RngStream(0)
    steps = int(round(duration / plant.dt))
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((steps + 1, x.size))
    states[0] = x
    m = planner.control_dim
    controls = np.empty((steps, m))
    init = None
    for i in range(steps):
        plan = planner.plan(x, init=init, rng=rng.child(i))
        init = np.vstack([plan[1:], np.zeros((1, m))])
        controls[i] = plan[0]
        x = plant.step(x, plan[0])
        if not np.all(np.isfinite(x)):
            raise NumericError(f"plant diverged at step {i}")
        states[i + 1] = x
    success = bool(success_fn(states)) if success_fn is not None else False
    cost = None
    if cost_model is not None and weight_matrix is not None:
        cost = trajectory_cost(states, controls, cost_model, weight_matrix)
    return SimulationResult(states, controls, success, cost)


def benchmark_runs(planner, rng: RngStream, count, duration):
    """Closed-loop swing-up runs from the benchmark start distribution.

    Run i draws theta ~ U[-pi, pi], theta_dot ~ U[-1, 1] from rng.child(i)
    and simulates with the planner stream rng.child(1000 + i), so results
    are a pure function of (planner, rng, count, duration).  Every run is
    scored with the teacher's cost.  Divergent runs are dropped and
    counted.

    Returns:
        (list of SimulationResult, excluded count)
    """
    _, cost_model, weight = pendulum_teacher_models()
    weight_matrix = weight.matrix()
    plant = PendulumPlant()
    results, excluded = [], 0
    for i in range(count):
        gen = rng.child(i).generator()
        x0 = np.array([gen.uniform(-np.pi, np.pi), gen.uniform(-1.0, 1.0)])
        try:
            results.append(mpc_simulate(
                planner, plant, x0, duration, rng=rng.child(1000 + i),
                cost_model=cost_model, weight_matrix=weight_matrix,
                success_fn=lambda s: upright_success(s, plant.dt)))
        except NumericError:
            excluded += 1
    return results, excluded


def write_trajectory_csv(path, states, controls, dt, cost_model=None):
    """Log one run: time, state components, control components, cost.

    The final row carries the terminal state; its control cells are empty
    and its cost cell holds the terminal cost.
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    T = controls.shape[0]
    n = states.shape[1]
    m = controls.shape[1] if controls.ndim == 2 else 0
    header = (["time"] + [f"x{j}" for j in range(n)]
              + [f"u{j}" for j in range(m)] + ["cost"])
    running = cost_model.running(states[:-1]) if (cost_model and T) else None
    terminal = cost_model.terminal(states[-1:])[0] if cost_model else None
    rows = [[i * dt] + states[i].tolist() + controls[i].tolist()
            + [None if running is None else running[i]] for i in range(T)]
    rows.append([T * dt] + states[T].tolist() + [None] * m + [terminal])
    write_csv(path, header, rows)
