"""Independent reference computations used by the test suite.

Everything in this file is deliberately written from first principles
(finite differences, dense linear algebra, fine-step integration,
plain Monte-Carlo estimates) so that it shares no code with the
library under test.
"""

import numpy as np


def central_difference(fn, x, eps=1e-5):
    """Central finite-difference gradient of a scalar function.

    Args:
        fn: callable taking a 1-D array and returning a float.
        x: point at which to differentiate.
        eps: finite-difference step.

    Returns:
        Array of the same shape as x with the estimated gradient.
    """
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += eps
        lo[j] -= eps
        grad[j] = (fn(hi) - fn(lo)) / (2.0 * eps)
    return grad


def relative_errors(estimate, reference, floor):
    """Elementwise |a - b| / max(|b|, floor)."""
    estimate = np.asarray(estimate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = np.maximum(np.abs(reference), floor)
    return np.abs(estimate - reference) / denom


def brute_force_lq(F, G, Q, R, x0, horizon, Qf=None):
    """Minimize the finite-horizon LQ objective by a direct linear solve.

    The objective is sum_i (x_i'Qx_i + u_i'Ru_i)/2 + x_N'Qf x_N / 2 with
    x_{i+1} = F x_i + G u_i.  All controls are stacked into one vector z
    and the exact quadratic J(z) = z'Hz/2 + g'z + c is assembled from the
    linear state maps, then minimized by solving Hz = -g.  No Riccati
    recursion anywhere.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    Qf = Q if Qf is None else np.asarray(Qf, dtype=float)
    n, m = G.shape
    N = horizon

    # x_i = Phi_i x0 + sum_j B_{ij} u_j with Phi_i = F^i.
    maps = []  # maps[i] is an n x (N*m) matrix sending z to the z-part of x_i
    offsets = []
    phi = np.eye(n)
    cur = np.zeros((n, N * m))
    for i in range(N + 1):
        maps.append(cur.copy())
        offsets.append(phi @ x0)
        nxt = F @ cur
        if i < N:
            nxt[:, i * m:(i + 1) * m] += G
        cur = nxt
        phi = F @ phi

    H = np.zeros((N * m, N * m))
    g = np.zeros(N * m)
    for i in range(N + 1):
        W = Qf if i == N else Q
        Bi = maps[i]
        H += Bi.T @ W @ Bi
        g += Bi.T @ W @ offsets[i]
    for i in range(N):
        H[i * m:(i + 1) * m, i * m:(i + 1) * m] += R
    z = np.linalg.solve(H, -g)
    return z.reshape(N, m)


def lq_objective(F, G, Q, R, x0, useq, Qf=None):
    """Plain evaluation of the LQ objective for a given control sequence."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    Qf = Q if Qf is None else np.asarray(Qf, dtype=float)
    x = np.asarray(x0, dtype=float)
    total = 0.0
    for u in useq:
        total += 0.5 * (x @ Q @ x) + 0.5 * (u @ R @ u)
        x = F @ x + G @ u
    total += 0.5 * (x @ Qf @ x)
    return total


def pendulum_rhs(state, torque, gain=0.5):
    theta, omega = state
    return np.array([omega, -np.sin(theta) + gain * torque])


def fine_pendulum_step(state, torque, dt=0.1, substeps=1000, gain=0.5):
    """High-accuracy reference integration of the pendulum over one step.

    Runs RK4 with dt/substeps internal steps; at substeps=1000 the local
    error is ~(1e-4)^5 per substep, far below the 1e-5 comparison level.
    """
    x = np.asarray(state, dtype=float)
    h = dt / substeps
    for _ in range(substeps):
        k1 = pendulum_rhs(x, torque, gain)
        k2 = pendulum_rhs(x + 0.5 * h * k1, torque, gain)
        k3 = pendulum_rhs(x + 0.5 * h * k2, torque, gain)
        k4 = pendulum_rhs(x + h * k3, torque, gain)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def pendulum_rk4(x, v, dt=0.1, gain=0.5):
    """The literal batched RK4 pendulum step on (B, 2) stage arrays.

    x + (dt/6)(k1 + 2 k2 + 2 k3 + k4) with k = (omega, -sin(theta) + gain u),
    every stage a whole-array operation in the textbook order.  Used as
    the bitwise reference for the per-component model step.
    """
    def rhs(s):
        out = np.empty_like(s)
        out[:, 0] = s[:, 1]
        out[:, 1] = -np.sin(s[:, 0]) + gain * v[:, 0]
        return out

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def monte_carlo_objective(x0, useq, step_fn, running_fn, terminal_fn, R,
                          sigma, n_rollouts, rng):
    """Estimate the expected noisy-rollout cost of a control plan.

    Cost of one rollout: terminal(x_N) + sum_i running(x_i) + u_i'Ru_i/2,
    where the plant is driven by u_i + noise.  Returns the sample mean.
    """
    useq = np.asarray(useq, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    N, m = useq.shape
    total = 0.0
    for _ in range(n_rollouts):
        x = np.asarray(x0, dtype=float)
        cost = 0.0
        noise = rng.normal(0.0, sigma, size=(N, m))
        for i in range(N):
            cost += running_fn(x) + 0.5 * (useq[i] @ R @ useq[i])
            x = step_fn(x, useq[i] + noise[i])
        cost += terminal_fn(x)
        total += cost
    return total / n_rollouts


def per_trajectory_noise(base_key, num_samples, horizon, dim, sigma):
    """Exploration noise with one freshly built Philox generator per trajectory.

    Trajectory k is keyed (b0, (b1 + k) mod 2**64) from base_key = (b0, b1)
    and drawn with normal(0, sigma).  The key is passed as a uint64 array:
    Philox parses a list of Python ints above 2**63 through float64.
    """
    b0, b1 = (int(word) for word in base_key)
    out = np.empty((num_samples, horizon, dim))
    for k in range(num_samples):
        key = np.array([b0, (b1 + k) % 2**64], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        out[k] = gen.normal(0.0, sigma, size=(horizon, dim))
    return out


def modified_running_cost(q_val, u, du, R, nu):
    """Running cost with the control and noise coupling terms.

    q + u'Ru/2 + ((1 - 1/nu)/2) du'R du + u'R du, for one (u, du) pair.
    """
    u = np.asarray(u, dtype=float).ravel()
    du = np.asarray(du, dtype=float).ravel()
    R = np.atleast_2d(np.asarray(R, dtype=float))
    return (q_val + 0.5 * (u @ R @ u)
            + 0.5 * (1.0 - 1.0 / nu) * (du @ R @ du) + u @ R @ du)


# Frozen hand-derived reference values.  Each is worked out from the
# defining formula with plain arithmetic, independent of library code.

# q + u'Ru/2 + (1 - 1/nu)/2 * du'R du + u'R du
# = 0.3 + 0.5*5*1 + ((1 - 1/1500)/2)*5*0.04 + 1*5*0.2
MODIFIED_COST_EXAMPLE = 3.8999333333333333

# f(x, v) = x + v, x0 = 0, u = (1, 1), du = (0.5, -0.5)
SCALAR_ROLLOUT_STATES = (0.0, 1.5, 2.0)

# running (1, 2, 3), terminal 4 -> suffix sums
SUFFIX_SUM_EXAMPLE = (10.0, 9.0, 7.0, 4.0)

# K=2, lambda=1, S column (0, ln 3), noise column (1, -1), u = 0:
# weights (1, 1/3) -> (1 - 1/3) / (4/3) = 0.5
SOFTMAX_UPDATE_EXAMPLE = 0.5

# x'Qx/2 with Q = 0.01*I, x = ones(4)
QUADRATIC_COST_EXAMPLE = 0.02

# (1 + cos 0)^2 + 0 = 4; (1 + cos pi)^2 + 0 = 0
PENDULUM_COST_AT_HANG = 4.0
PENDULUM_COST_AT_GOAL = 0.0

# one simulation step at (0,0), u=0: q*(x0) + 0 + phi*(x1) = 4 + 4
SINGLE_STEP_TRAJECTORY_COST = 8.0

# RMSProp from v=0, g=1, lr=1e-3: lr*g/(sqrt(0.1*g^2) + 1e-8)
RMSPROP_FIRST_STEP = 0.0031622775601683824
