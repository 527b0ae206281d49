"""Optimal-control oracles that generate demonstrations.

Finite-horizon discrete-time LQR (exact, via the backward Riccati
recursion) covers the linear experiments; iLQR with Levenberg-style
regularization and backtracking line search covers the pendulum.  Both
minimize the same zero-noise objective the sampling controller targets:
sum_i q(x_i) + u_i'Ru_i/2 plus a terminal cost, all in trajectory_cost.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import NumericError, ParameterError, ShapeError


def _check_psd(M, name, strict=False):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"{name} must be square, got {M.shape}")
    if not np.allclose(M, M.T, atol=1e-12):
        raise ParameterError(f"{name} must be symmetric")
    if strict:
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ParameterError(f"{name} must be positive definite")
    elif np.linalg.eigvalsh(M).min() < -1e-12:
        raise ParameterError(f"{name} must be positive semidefinite")
    return M


@dataclass(frozen=True)
class LQRProblem:
    """x' = Fx + Gu with cost sum (x'Qx + u'Ru)/2 and terminal x'Qx/2."""

    F: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "F", np.asarray(self.F, dtype=float))
        object.__setattr__(self, "G", np.asarray(self.G, dtype=float))
        object.__setattr__(self, "Q", _check_psd(self.Q, "Q"))
        object.__setattr__(self, "R", _check_psd(self.R, "R", strict=True))
        if self.horizon < 1:
            raise ParameterError(f"horizon must be >= 1, got {self.horizon}")
        n, m = self.G.shape
        if self.F.shape != (n, n) or self.Q.shape != (n, n) or self.R.shape != (m, m):
            raise ShapeError("inconsistent LQR problem shapes")


def riccati_gains(p: LQRProblem):
    """Backward Riccati sweep.

    Returns:
        (gains, values): gains[i] is the (m, n) feedback matrix K_i with
        u_i = -K_i x_i; values[i] is the (n, n) cost-to-go matrix P_i,
        values[N] = Q.  Every P_i is symmetric PSD.
    """
    P = p.Q.copy()
    values = [P]
    gains = [None] * p.horizon
    for i in range(p.horizon - 1, -1, -1):
        GP = p.G.T @ P
        K = np.linalg.solve(p.R + GP @ p.G, GP @ p.F)
        P = p.Q + p.F.T @ P @ (p.F - p.G @ K)
        P = 0.5 * (P + P.T)
        gains[i] = K
        values.insert(0, P)
    return gains, values


def lqr_solve(p: LQRProblem, x0) -> np.ndarray:
    """Exact minimizer of the finite-horizon LQ objective from x0."""
    return LQRPlanner(p).plan(x0)


def trajectory_cost(states, controls, cost_model, weight_matrix):
    """The zero-noise objective that scores plans, experts and closed-loop
    runs: terminal(x_N) + sum_i running(x_i) + u_i' R u_i / 2; an empty
    control list leaves just the terminal term."""
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    R = np.atleast_2d(np.asarray(weight_matrix, dtype=float))
    total = float(cost_model.terminal(states[-1:])[0])
    if controls.size:
        total += float(cost_model.running(states[:-1]).sum())
        total += 0.5 * float(np.einsum("im,mp,ip->", controls, R, controls))
    return total


def sequence_cost(dynamics, cost, weight_matrix, x0, useq):
    """(zero-noise objective, (N+1, n) rollout states) of a plan under the
    given models; NumericError when the rollout diverges."""
    useq = np.asarray(useq, dtype=float)
    x = np.asarray(x0, dtype=float)[None, :]
    states = [x]
    for u in useq:
        x = dynamics.forward(x, u[None, :])
        states.append(x)
    stacked = np.concatenate(states, axis=0)
    if not np.all(np.isfinite(stacked)):
        raise NumericError("plan rollout diverged")
    return trajectory_cost(stacked, useq, cost, weight_matrix), stacked


# Levenberg-Marquardt schedule of the iLQR value sweep: mu starts at
# REG_INIT, a failed sweep or rejected step raises it to at least REG_MIN
# and by REG_FACTOR, an accepted step lowers it, and above REG_MAX the
# solve stops degraded.  The line search tries 1, 1/2, ..., 2^-(steps-1).
REG_INIT, REG_MIN, REG_MAX, REG_FACTOR = 0.0, 1e-6, 1e10, 10.0
BACKTRACKING_STEPS = 10


@dataclass(frozen=True)
class ILQRSettings:
    max_iterations: int = 50
    tol: float = 1e-6                # relative cost-decrease convergence

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if not self.tol > 0:
            raise ParameterError("tol must be positive")


@dataclass
class ILQRResult:
    controls: np.ndarray
    cost: float
    costs: list = field(default_factory=list)  # initial + accepted iterations
    converged: bool = False
    degraded: bool = False
    iterations: int = 0


def _ilqr_backward(A, B, qx, qxx, useq, R, mu):
    """One value-function sweep; None when a regularized Quu is not PD."""
    N, n, m = B.shape[0], A.shape[1], B.shape[2]
    Vx = qx[N]
    Vxx = qxx[N]
    k = np.empty((N, m))
    Kfb = np.empty((N, m, n))
    expected = 0.0
    reg = mu * np.eye(m)
    for i in range(N - 1, -1, -1):
        # shared products keep each term's left-to-right evaluation order
        BtV = B[i].T @ Vxx
        Qx = qx[i] + A[i].T @ Vx
        Qu = R @ useq[i] + B[i].T @ Vx
        Qxx = qxx[i] + A[i].T @ Vxx @ A[i]
        Quu = R + BtV @ B[i] + reg
        Qux = BtV @ A[i]
        try:
            L = np.linalg.cholesky(Quu)
        except np.linalg.LinAlgError:
            return None
        rhs = np.linalg.solve(L.T, np.linalg.solve(L, np.column_stack([Qu, Qux])))
        k[i] = -rhs[:, 0]
        Kfb[i] = -rhs[:, 1:]
        expected += -k[i] @ Qu - 0.5 * k[i] @ Quu @ k[i]
        KtQuu = Kfb[i].T @ Quu
        Vx = Qx + KtQuu @ k[i] + Kfb[i].T @ Qu + Qux.T @ k[i]
        Vxx = Qxx + KtQuu @ Kfb[i] + Kfb[i].T @ Qux + Qux.T @ Kfb[i]
        Vxx = 0.5 * (Vxx + Vxx.T)
    return k, Kfb, expected


def ilqr_solve(dynamics, cost, weight_matrix, x0, horizon,
               settings: ILQRSettings | None = None, init=None) -> ILQRResult:
    """Locally optimal plan for the zero-noise objective.

    Args:
        dynamics: model with batched forward and jacobian.
        cost: state cost with batched running/terminal, gradient, hessian.
        weight_matrix: (m, m) control weight R (running and terminal q share
            the cost model, so only R enters the control blocks).
        x0: (n,) start state.
        horizon: plan length N.
        settings: solver knobs; defaults above.
        init: (N, m) starting plan, zeros when omitted.

    Returns:
        ILQRResult; degraded=True means the line search stalled at maximum
        regularization and the best plan so far is returned.

    Raises:
        NumericError: the initial rollout diverged.
    """
    s = settings or ILQRSettings()
    R = np.atleast_2d(np.asarray(weight_matrix, dtype=float))
    m = R.shape[0]
    useq = np.zeros((horizon, m)) if init is None else np.array(init, dtype=float)
    J, states = sequence_cost(dynamics, cost, R, x0, useq)
    result = ILQRResult(useq, J, [J])
    mu = REG_INIT
    for it in range(s.max_iterations):
        result.iterations = it + 1
        A, B = dynamics.jacobian(states[:-1], useq)
        qx = np.concatenate([cost.gradient(states[:-1]),
                             cost.gradient(states[-1:])], axis=0)
        qxx = np.concatenate([cost.hessian(states[:-1]),
                              cost.hessian(states[-1:])], axis=0)
        sweep = step = None
        while sweep is None:  # a failed sweep retries within the iteration
            sweep = _ilqr_backward(A, B, qx, qxx, useq, R, mu)
            if sweep is not None:
                k, Kfb, expected = sweep
                if expected <= s.tol * max(1.0, abs(J)):
                    result.converged = True
                    return result
                step = _line_search(dynamics, cost, R, states, useq, k, Kfb,
                                    J, BACKTRACKING_STEPS)
            if step is None:
                # a failed sweep or a rejected step raises the regularization
                mu = max(REG_MIN, mu * REG_FACTOR)
                if mu > REG_MAX:
                    result.degraded = True
                    return result
        if step is not None:
            drop = J - step[0]
            J, useq, states = step
            result.controls, result.cost = useq, J
            result.costs.append(J)
            mu = mu / REG_FACTOR if mu > REG_MIN else 0.0
            if drop <= s.tol * max(1.0, abs(J)):
                result.converged = True
                return result
    return result


def _line_search(dynamics, cost, R, states, useq, k, Kfb, J, steps):
    """(cost, controls, states) of the first step, with the feed-forward
    term scaled by 1, 1/2, ..., 2^-(steps-1), that lowers the cost J;
    None when no step does."""
    for step in range(steps):
        alpha = 0.5 ** step
        new_u = np.empty_like(useq)
        new_states = np.empty_like(states)
        new_states[0] = states[0]
        for i in range(useq.shape[0]):
            new_u[i] = (useq[i] + alpha * k[i]
                        + Kfb[i] @ (new_states[i] - states[i]))
            new_states[i + 1] = dynamics.forward(new_states[i:i + 1],
                                                 new_u[i:i + 1])[0]
        if not np.all(np.isfinite(new_states)):
            continue
        J_new = trajectory_cost(new_states, new_u, cost, R)
        if np.isfinite(J_new) and J_new < J:
            return J_new, new_u, new_states
    return None


class LQRPlanner:
    """Exact LQR plans from precomputed Riccati gains (planner protocol;
    init and rng are ignored)."""

    def __init__(self, problem: LQRProblem):
        self.problem = problem
        self._gains, _ = riccati_gains(problem)

    @property
    def control_dim(self):
        return self.problem.G.shape[1]

    def plan(self, x0, init=None, rng=None):
        x = np.asarray(x0, dtype=float)
        useq = np.empty((self.problem.horizon, self.control_dim))
        for i, K in enumerate(self._gains):
            u = -K @ x
            useq[i] = u
            x = self.problem.F @ x + self.problem.G @ u
        return useq


class ILQRPlanner:
    """Planner-protocol wrapper around ilqr_solve; init warm-starts the
    solve and rng is ignored."""

    def __init__(self, dynamics, cost, weight_matrix, horizon,
                 settings: ILQRSettings | None = None):
        self.dynamics = dynamics
        self.cost = cost
        self.weight_matrix = np.atleast_2d(np.asarray(weight_matrix, dtype=float))
        self.horizon = int(horizon)
        self.settings = settings or ILQRSettings()

    @property
    def control_dim(self):
        return self.weight_matrix.shape[0]

    def plan(self, x0, init=None, rng=None):
        result = ilqr_solve(self.dynamics, self.cost, self.weight_matrix,
                            x0, self.horizon, self.settings, init=init)
        return result.controls
