"""Independent reference computations for the benchmark's output checks.

Nothing here imports picontrol: every formula is written again from the
paper's equations and the package's documented conventions, so that a
check passing means two separate implementations agree.

* ``pendulum_step``: the swing-up plant, theta_ddot = -sin(theta) + gain*u,
  one classical Runge-Kutta step of length dt, angle wrapped afterwards.
* ``teacher_cost`` / ``realized_cost``: q(x) = (1 + cos theta)^2 +
  theta_dot^2 and the closed-loop trajectory cost built from it;
  ``plan_objective`` is the same cost of an open-loop plan.
* ``lq_direct``: the finite-horizon LQ optimum from one stacked least-squares
  problem over the whole control sequence (no Riccati recursion).
* ``pi_plan``: the path-integral update law, iterated, with noise drawn by
  the documented keying: iteration t of a plan on stream (seed, key) uses
  stream key + (t,), whose 128-bit Philox base key (b0, b1) comes from
  SeedSequence(seed, spawn_key); trajectory k draws its N x m block from a
  Philox generator keyed (b0, b1 + k).
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def angle_gap(a, b):
    """Smallest absolute difference between angles, modulo 2*pi."""
    d = np.remainder(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
                     + np.pi, TWO_PI) - np.pi
    return np.abs(d)


def pendulum_rk4(x, u, dt=0.1, gain=0.5):
    """Unwrapped RK4 step for a batch of states x (B, 2), torques u (B,)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float).reshape(-1)

    def rhs(s):
        return np.stack([s[:, 1], -np.sin(s[:, 0]) + gain * u], axis=1)

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def pendulum_step(x, u, dt=0.1, gain=0.5):
    """One plant transition of a single state: RK4, then wrap theta."""
    out = pendulum_rk4(np.asarray(x, dtype=float)[None, :],
                       np.atleast_1d(u)[:1], dt, gain)[0]
    out[0] = np.remainder(out[0] + np.pi, TWO_PI) - np.pi
    return out


def teacher_cost(x):
    """Swing-up state cost for states (B, 2)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return (1.0 + np.cos(x[:, 0])) ** 2 + x[:, 1] ** 2


def realized_cost(states, controls, r_weight):
    """sum_t q(x_t) + u_t r u_t / 2 over applied controls, plus q(x_T)."""
    states = np.asarray(states, dtype=float)
    u = np.asarray(controls, dtype=float).reshape(-1)
    return float(teacher_cost(states[:-1]).sum() + teacher_cost(states[-1:])[0]
                 + 0.5 * r_weight * float(u @ u))


def plan_objective(x0, useq, r_weight):
    """Open-loop swing-up objective of a control plan from x0: the
    realized cost of rolling the plan through the plant."""
    states = [np.asarray(x0, dtype=float)]
    for u in np.asarray(useq, dtype=float).reshape(-1):
        states.append(pendulum_step(states[-1], u))
    return realized_cost(np.array(states), useq, r_weight)


def lq_direct(F, G, Q, R, x0s, horizon):
    """Exact LQ controls for each start state, by stacked least squares.

    Minimizes sum_{i=0..N} x_i'Qx_i/2 + sum_{i<N} u_i'Ru_i/2 subject to
    x_{i+1} = F x_i + G u_i, written as one linear least-squares problem in
    the stacked controls: x = S x0 + T u.

    Returns:
        (B, N, m) controls for x0s of shape (B, n).
    """
    F, G = np.asarray(F, dtype=float), np.asarray(G, dtype=float)
    n, m = G.shape
    N = int(horizon)
    S = np.zeros(((N + 1) * n, n))
    power = np.eye(n)
    for i in range(N + 1):
        S[i * n:(i + 1) * n] = power
        power = F @ power
    blocks = [G]
    for _ in range(N - 1):
        blocks.append(F @ blocks[-1])
    T = np.zeros(((N + 1) * n, N * m))
    for i in range(1, N + 1):
        for j in range(i):
            T[i * n:(i + 1) * n, j * m:(j + 1) * m] = blocks[i - 1 - j]
    root_q = np.linalg.cholesky(np.asarray(Q, dtype=float)).T
    root_r = np.linalg.cholesky(np.asarray(R, dtype=float)).T
    Wq = np.kron(np.eye(N + 1), root_q)
    A = np.vstack([Wq @ T, np.kron(np.eye(N), root_r)])
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    b = -np.vstack([Wq @ S @ x0s.T, np.zeros((N * m, x0s.shape[0]))])
    u, *_ = np.linalg.lstsq(A, b, rcond=None)
    return u.T.reshape(x0s.shape[0], N, m)


def philox_noise(seed, key, num_samples, horizon, dim, sigma):
    """(K, N, m) Gaussian noise, one Philox stream per trajectory."""
    state = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(
        2, np.uint64)
    b0, b1 = int(state[0]), int(state[1])
    out = np.empty((num_samples, horizon, dim))
    for k in range(num_samples):
        bits = np.random.Philox(key=np.array([b0, (b1 + k) % 2 ** 64],
                                             dtype=np.uint64))
        out[k] = np.random.Generator(bits).normal(0.0, sigma,
                                                  size=(horizon, dim))
    return out


def pi_plan(x0, useq, iterations, *, lam, nu, sigma, num_samples, r_weight,
            seed, key, dt=0.1, gain=0.5):
    """Iterate the path-integral update on the pendulum with teacher models.

    Each iteration rolls K perturbed plans v^k = u + eps^k through the
    dynamics, charges q(x_i) + u_i'R u_i/2 + (1 - 1/nu)/2 eps'R eps +
    u_i'R eps per step and q(x_N) at the end, forms the cost-to-go
    S_i^k = sum_{j >= i} running_j^k + terminal^k, and moves every control
    by the softmax(-S_i / lambda)-weighted average of the perturbations.
    """
    u = np.array(useq, dtype=float)
    N, m = u.shape
    R = np.array([[float(r_weight)]])
    for t in range(int(iterations)):
        eps = philox_noise(seed, tuple(key) + (t,), num_samples, N, m, sigma)
        x = np.repeat(np.asarray(x0, dtype=float)[None, :], num_samples, 0)
        running = np.empty((num_samples, N))
        for i in range(N):
            e = eps[:, i]
            running[:, i] = (teacher_cost(x) + 0.5 * float(u[i] @ R @ u[i])
                             + 0.5 * (1.0 - 1.0 / nu)
                             * np.einsum("km,mp,kp->k", e, R, e)
                             + e @ (R @ u[i]))
            x = pendulum_rk4(x, u[i, 0] + e[:, 0], dt, gain)
        to_go = np.empty((num_samples, N + 1))
        to_go[:, N] = teacher_cost(x)
        for i in range(N - 1, -1, -1):
            to_go[:, i] = to_go[:, i + 1] + running[:, i]
        step = np.empty_like(u)
        for i in range(N):
            z = np.exp(-(to_go[:, i] - to_go[:, i].min()) / lam)
            step[i] = (z / z.sum()) @ eps[:, i]
        u = u + step
    return u
