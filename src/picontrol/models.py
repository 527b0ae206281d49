"""Differentiable dynamics and cost models.

Model contract (duck-typed, shared by everything in this module):

* ``num_params`` / ``get_params()`` / ``set_params(vec)`` — flat float64
  parameter access, always copied, written once in ``FlatParams``.  Each
  model lists its parameter arrays in ``PARAMS``; that order is the
  checkpoint order and the order of every ``param_bar``.
* dynamics: ``forward(x, v) -> x_next`` and
  ``vjp(x, v, cot) -> (x_bar, v_bar, param_bar)``.
* state costs: ``running(x) -> q`` / ``terminal(x) -> phi`` and the
  matching ``running_vjp`` / ``terminal_vjp(x, cot) -> (x_bar, param_bar)``.

All evaluations are batched: states (B, n), controls (B, m), scalar costs
(B,).  Dynamics ``forward`` also takes any leading axes, (..., n) and
(..., m); a stack of (K, n) blocks gives each block the bits a separate
call on it would, because stacked matrix products multiply block by
block.  Cotangents have the output's shape; ``param_bar`` is summed over
the batch.  VJPs rebuild layer activations from their (taped) inputs,
which is bit-exact because the inputs are the same floats.
"""

import numpy as np

from .core import ParameterError, RngStream, ShapeError


class FlatParams:
    """Flat parameter access over the array attributes named in ``PARAMS``.

    ``get_params`` concatenates the raveled arrays in ``PARAMS`` order;
    ``set_params`` checks the length and writes back a reshaped copy of
    each array.  Parameter-free models declare ``PARAMS = ()``.

    ``config`` records the constructor arguments named in ``CONFIG`` and
    ``from_config`` builds a model from them; a model whose config names
    shapes instead (``CONFIG`` lists those keys) overrides both.
    """

    def config(self):
        return {name: getattr(self, name) for name in self.CONFIG}

    @classmethod
    def from_config(cls, cfg):
        return cls(**{name: cfg[name] for name in cls.CONFIG})

    @property
    def num_params(self):
        return sum(getattr(self, name).size for name in self.PARAMS)

    def get_params(self):
        arrays = [getattr(self, name).ravel() for name in self.PARAMS]
        return np.concatenate(arrays) if arrays else np.zeros(0)

    def set_params(self, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.num_params,):
            raise ShapeError(f"{type(self).__name__} expects {self.num_params} "
                             f"parameters, got {vec.shape}")
        offset = 0
        for name in self.PARAMS:
            old = getattr(self, name)
            setattr(self, name,
                    vec[offset:offset + old.size].reshape(old.shape).copy())
            offset += old.size


class LinearDynamics(FlatParams):
    """x' = F x + G v."""

    PARAMS = ("F", "G")
    CONFIG = ("n", "m")

    def __init__(self, F, G):
        self.F = np.array(F, dtype=float)
        self.G = np.array(G, dtype=float)
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ShapeError(f"F must be square, got {self.F.shape}")
        if self.G.ndim != 2 or self.G.shape[0] != self.F.shape[0]:
            raise ShapeError(f"G must be (n, m) with n={self.F.shape[0]}, got {self.G.shape}")

    @property
    def state_dim(self):
        return self.F.shape[0]

    @property
    def control_dim(self):
        return self.G.shape[1]

    def forward(self, x, v):
        return x @ self.F.T + v @ self.G.T

    def vjp(self, x, v, cot):
        x_bar = cot @ self.F
        v_bar = cot @ self.G
        f_bar = cot.T @ x
        g_bar = cot.T @ v
        return x_bar, v_bar, np.concatenate([f_bar.ravel(), g_bar.ravel()])

    def jacobian(self, x, v):
        B = x.shape[0]
        A = np.broadcast_to(self.F, (B,) + self.F.shape)
        Bm = np.broadcast_to(self.G, (B,) + self.G.shape)
        return A, Bm

    def config(self):
        return {"n": self.state_dim, "m": self.control_dim}

    @classmethod
    def from_config(cls, cfg):
        return cls(np.zeros((cfg["n"], cfg["n"])), np.zeros((cfg["n"], cfg["m"])))


class QuadraticCost(FlatParams):
    """q(x) = x'Qx / 2, shared as running and terminal cost."""

    PARAMS = ("Q",)
    CONFIG = ("n",)

    def __init__(self, Q):
        self.Q = np.array(Q, dtype=float)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ShapeError(f"Q must be square, got {self.Q.shape}")

    @property
    def state_dim(self):
        return self.Q.shape[0]

    def running(self, x):
        return 0.5 * quadratic_form(x, self.Q, x)

    terminal = running

    def running_vjp(self, x, cot):
        x_bar = cot[:, None] * self.gradient(x)
        q_bar = 0.5 * np.einsum("b,bi,bj->ij", cot, x, x)
        return x_bar, q_bar.ravel()

    terminal_vjp = running_vjp

    def gradient(self, x):
        return x @ (0.5 * (self.Q + self.Q.T)).T

    def hessian(self, x):
        sym = 0.5 * (self.Q + self.Q.T)
        return np.broadcast_to(sym, (x.shape[0],) + sym.shape)

    def config(self):
        return {"n": self.state_dim}

    @classmethod
    def from_config(cls, cfg):
        return cls(np.zeros((cfg["n"], cfg["n"])))


def _mlp_init(rng: RngStream, shapes):
    gen = rng.generator()
    chunks = []
    for fan_out, fan_in in shapes:
        chunks.append(gen.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)).ravel())
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


class MLPDynamics(FlatParams):
    """Pendulum dynamics network.

    A single tanh hidden layer maps (theta, theta_dot, torque) to a scalar
    angular acceleration; the state advances by one explicit Euler step:
    theta' = theta + dt * theta_dot, theta_dot' = theta_dot + dt * accel.
    Angles are consumed raw; wrapping is the environment's business.
    """

    PARAMS = ("W1", "b1", "W2", "b2")
    CONFIG = ("hidden", "dt")

    def __init__(self, hidden=12, dt=0.1, init_rng: RngStream | None = None):
        self.hidden = int(hidden)
        self.dt = float(dt)
        self.W1 = np.zeros((self.hidden, 3))
        self.b1 = np.zeros(self.hidden)
        self.W2 = np.zeros((1, self.hidden))
        self.b2 = np.zeros(1)
        if init_rng is not None:
            self.set_params(_mlp_init(init_rng, [(self.hidden, 3), (1, self.hidden)]))

    state_dim = 2
    control_dim = 1

    def _accel(self, x, v):
        z = np.concatenate([x, v], axis=-1)
        h = np.tanh(z @ self.W1.T + self.b1)
        return z, h, (h @ self.W2.T + self.b2)[..., 0]

    def forward(self, x, v):
        _, _, accel = self._accel(x, v)
        out = np.empty_like(x)
        out[..., 0] = x[..., 0] + self.dt * x[..., 1]
        out[..., 1] = x[..., 1] + self.dt * accel
        return out

    def vjp(self, x, v, cot):
        z, h, _ = self._accel(x, v)
        a_bar = self.dt * cot[:, 1]
        h_bar = a_bar[:, None] @ self.W2
        p_bar = h_bar * (1.0 - h * h)
        z_bar = p_bar @ self.W1
        x_bar = np.empty_like(x)
        x_bar[:, 0] = cot[:, 0] + z_bar[:, 0]
        x_bar[:, 1] = self.dt * cot[:, 0] + cot[:, 1] + z_bar[:, 1]
        v_bar = z_bar[:, 2:3].copy()
        w1_bar = p_bar.T @ z
        b1_bar = p_bar.sum(axis=0)
        w2_bar = (a_bar[:, None] * h).sum(axis=0)[None, :]
        b2_bar = np.array([a_bar.sum()])
        param_bar = np.concatenate([w1_bar.ravel(), b1_bar, w2_bar.ravel(), b2_bar])
        return x_bar, v_bar, param_bar


class MLPCost(FlatParams):
    """Pendulum cost network: q = ||g(theta, theta_dot)||^2 >= 0.

    One tanh hidden layer feeding a linear output vector; the squared
    norm keeps the cost non-negative by construction.  Terminal cost
    reuses the same network.
    """

    PARAMS = ("W1", "b1", "W2", "b2")
    CONFIG = ("hidden", "outputs")

    def __init__(self, hidden=12, outputs=12, init_rng: RngStream | None = None):
        self.hidden = int(hidden)
        self.outputs = int(outputs)
        self.W1 = np.zeros((self.hidden, 2))
        self.b1 = np.zeros(self.hidden)
        self.W2 = np.zeros((self.outputs, self.hidden))
        self.b2 = np.zeros(self.outputs)
        if init_rng is not None:
            self.set_params(_mlp_init(init_rng, [(self.hidden, 2), (self.outputs, self.hidden)]))

    state_dim = 2

    def _net(self, x):
        h = x @ self.W1.T  # in place: one call takes a whole rollout batch
        np.tanh(np.add(h, self.b1, out=h), out=h)
        out = h @ self.W2.T
        out += self.b2
        return h, out

    def running(self, x):
        _, out = self._net(x)
        return np.einsum("bo,bo->b", out, out)

    terminal = running

    def running_vjp(self, x, cot):
        h, out = self._net(x)
        out_bar = 2.0 * out * cot[:, None]
        h_bar = out_bar @ self.W2
        p_bar = h_bar * (1.0 - h * h)
        x_bar = p_bar @ self.W1
        w1_bar = p_bar.T @ x
        b1_bar = p_bar.sum(axis=0)
        w2_bar = out_bar.T @ h
        b2_bar = out_bar.sum(axis=0)
        param_bar = np.concatenate([w1_bar.ravel(), b1_bar, w2_bar.ravel(), b2_bar])
        return x_bar, param_bar

    terminal_vjp = running_vjp


class PendulumTeacherCost(FlatParams):
    """Ground-truth swing-up cost q = phi = (1 + cos theta)^2 + theta_dot^2.

    Parameter-free; zero exactly at the upright states (+-pi, 0).  Also
    exposes analytic gradient and Hessian for trajectory optimizers.
    """

    PARAMS = ()
    CONFIG = ()
    state_dim = 2

    def running(self, x):
        return (1.0 + np.cos(x[:, 0])) ** 2 + x[:, 1] ** 2

    terminal = running

    def running_vjp(self, x, cot):
        return cot[:, None] * self.gradient(x), np.zeros(0)

    terminal_vjp = running_vjp

    def gradient(self, x):
        g = np.empty_like(x)
        g[:, 0] = -2.0 * np.sin(x[:, 0]) * (1.0 + np.cos(x[:, 0]))
        g[:, 1] = 2.0 * x[:, 1]
        return g

    def hessian(self, x):
        B = x.shape[0]
        H = np.zeros((B, 2, 2))
        th = x[:, 0]
        H[:, 0, 0] = -2.0 * np.cos(th) - 2.0 * np.cos(2.0 * th)
        H[:, 1, 1] = 2.0
        return H


class ControlCostWeight(FlatParams):
    """Positive-definite control weight R = L L' via a Cholesky factor.

    The strictly-lower entries of L are stored raw; diagonal entries are
    stored as logs, so R stays symmetric positive definite under any
    finite parameter update.  Parameter order is row-major over the lower
    triangle.
    """

    PARAMS = ("_params",)
    CONFIG = ("m",)

    def __init__(self, dim, params=None):
        self.dim = int(dim)
        self._rows, self._cols = np.tril_indices(self.dim)
        self._diag_mask = self._rows == self._cols
        self._params = np.zeros(self._rows.size)  # L = I
        if params is not None:
            self.set_params(params)

    @classmethod
    def from_matrix(cls, R):
        R = np.atleast_2d(np.asarray(R, dtype=float))
        try:
            L = np.linalg.cholesky(R)
        except np.linalg.LinAlgError as err:
            raise ParameterError(f"weight matrix is not positive definite: {err}")
        obj = cls(R.shape[0])
        p = L[obj._rows, obj._cols]
        p[obj._diag_mask] = np.log(p[obj._diag_mask])
        obj._params = p
        return obj

    def factor(self):
        L = np.zeros((self.dim, self.dim))
        vals = self._params.copy()
        vals[self._diag_mask] = np.exp(vals[self._diag_mask])
        L[self._rows, self._cols] = vals
        return L

    def matrix(self):
        L = self.factor()
        return L @ L.T

    def vjp_matrix(self, r_bar):
        """Pull a cotangent on R back to the stored factor parameters."""
        L = self.factor()
        l_bar = (r_bar + r_bar.T) @ L
        p_bar = l_bar[self._rows, self._cols]
        p_bar[self._diag_mask] *= L[self._rows, self._cols][self._diag_mask]
        return p_bar

    def config(self):
        return {"m": self.dim}

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["m"])


def quadratic_form(a, M, b):
    """a'Mb over the last axis, summed from 0.0 as (a[..., i] * M[i, j]) *
    b[..., j], i outer and j inner: each leading index gets the same
    operations whatever the batch (einsum's order may change with it)."""
    total = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            total += (a[..., i] * M[i, j]) * b[..., j]
    return total


def control_penalty(useq, noise, R, nu):
    """Control-dependent part of the modified running cost, batched.

    Args:
        useq: (..., N, m) nominal plan.
        noise: (..., K, N, m) perturbations.
        R: (m, m) positive-definite weight.
        nu: coupling knob; the du'R du coefficient is (1 - 1/nu)/2.

    Returns:
        (..., K, N) array: u'Ru/2 + (1-1/nu)/2 du'Rdu + u'Rdu per (k, i).
    """
    useq = useq[..., None, :, :]
    half_u = 0.5 * quadratic_form(useq, R, useq)
    quad_noise = 0.5 * (1.0 - 1.0 / nu) * quadratic_form(noise, R, noise)
    cross = quadratic_form(useq, R, noise)
    return half_u + quad_noise + cross


MODEL_TYPES = {
    "linear_dynamics": LinearDynamics,
    "quadratic_cost": QuadraticCost,
    "mlp_dynamics": MLPDynamics,
    "mlp_cost": MLPCost,
    "pendulum_teacher_cost": PendulumTeacherCost,
    "control_weight": ControlCostWeight,
}


def model_type_name(model):
    for name, cls in MODEL_TYPES.items():
        if type(model) is cls:
            return name
    raise ShapeError(f"unregistered model type {type(model).__name__}")
