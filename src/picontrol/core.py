"""Shared domain types: hyper-parameters, RNG streams, parameter packing.

Every module builds on the two contracts defined here: a model is any
object exposing ``num_params`` / ``get_params`` / ``set_params``, and all
randomness flows through :class:`RngStream` so that results are
reproducible bit-for-bit regardless of how rollouts are scheduled.
"""

import contextlib
import csv
import os
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """A value violates a documented precondition (e.g. sigma <= 0)."""


class ShapeError(ValueError):
    """Array or layout shapes do not line up."""


class ConsistencyError(ValueError):
    """Recorded state disagrees with the objects it is replayed against."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class MemoryBudgetError(RuntimeError):
    """A run would exceed the configured memory budget."""


@dataclass(frozen=True)
class PIHyperParams:
    """Hyper-parameters of the path-integral controller.

    Attributes:
        lambda_: inverse-temperature of the trajectory softmax (> 0).
        nu: coefficient knob of the noise-quadratic cost term (> 0).
        sigma: exploration noise standard deviation per component (> 0).
        num_samples: K, number of Monte-Carlo trajectories.
        horizon: N, number of planned control steps.
        recurrences: U, number of kernel iterations per plan.
    """

    lambda_: float
    nu: float
    sigma: float
    num_samples: int
    horizon: int
    recurrences: int

    def __post_init__(self):
        for name, value in (("lambda", self.lambda_), ("nu", self.nu),
                            ("sigma", self.sigma)):
            require_real(name, value)
        if not (self.lambda_ > 0 and np.isfinite(self.lambda_)):
            raise ParameterError(f"lambda must be positive, got {self.lambda_}")
        if not (self.nu > 0 and np.isfinite(1.0 - 1.0 / self.nu)):
            raise ParameterError(f"nu must be positive and finite, got {self.nu}")
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        for name in ("num_samples", "horizon", "recurrences"):
            require_count(name, getattr(self, name), 1)


def require_count(name, value, least):
    """Raise ParameterError unless value is a Python or numpy integer (not
    a bool, not an integral float) >= least."""
    if not (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least):
        raise ParameterError(
            f"{name} must be an integer >= {least}, got {value!r}")


def require_real(name, value):
    """Raise ParameterError unless value is a Python or numpy real number
    (not a bool, not a numeric string)."""
    if not (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    A stream is identified by (seed, key); children extend the key.  The
    same (seed, key) always produces the same samples, no matter how many
    sibling streams are drawn from, in what order, or on how many threads.
    """

    seed: int
    key: tuple = ()

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(ss))

    def base_key(self) -> np.ndarray:
        """128-bit key identifying this stream, for counter-based sub-keys."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return ss.generate_state(2, np.uint64)


def gaussian_noise(rng: RngStream, num_samples: int, horizon: int, dim: int,
                   sigma: float) -> np.ndarray:
    """Draw the K x N x m exploration noise tensor.

    Keying contract: with (b0, b1) = rng.base_key(), trajectory k's block is
    the Philox stream with key (b0, (b1 + k) mod 2**64) and a zero counter,
    read as normal(0, sigma) draws in C order.  Sample k's block is therefore
    independent of how many trajectories are drawn alongside it and of any
    execution order.  Philox is counter-based, so one generator reset to
    each trajectory's key and counter yields exactly the stream a freshly
    built generator would; one generator is built per call.

    Args:
        rng: stream for this draw (callers use one child per kernel iteration).
        num_samples: K.
        horizon: N.
        dim: m.
        sigma: per-component standard deviation, > 0.

    Returns:
        float64 array of shape (K, N, m).
    """
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive, got {sigma}")
    base = rng.base_key()
    # array addition wraps modulo 2**64 without the scalar overflow warning
    second = base[1] + np.arange(num_samples, dtype=np.uint64)
    bitgen = np.random.Philox(key=base)
    gen = np.random.Generator(bitgen)
    # a freshly keyed generator's state: zero counter, empty output buffer;
    # the state setter reads Python ints faster than numpy scalars
    key = [int(base[0]), 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((num_samples, horizon, dim))
    for k, word in enumerate(second.tolist()):
        key[1] = word
        bitgen.state = state
        gen.standard_normal(out=out[k])
    # normal(0.0, sigma) computes 0.0 + sigma * z; the + 0.0 turns -0.0 into 0.0
    out *= sigma
    out += 0.0
    return out


@dataclass
class ParamVector:
    """Flat parameter (or gradient) vector with a named segment layout.

    layout entries are (model_id, offset, length); segments are disjoint
    and cover [0, P) in order.
    """

    layout: tuple
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        total = sum(length for _, _, length in self.layout)
        if self.values is None:
            self.values = np.zeros(total)
        else:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.shape != (total,):
                raise ShapeError(
                    f"values length {self.values.shape} does not match layout total {total}")

    @property
    def size(self) -> int:
        return self.values.size

    def segment(self, model_id: str) -> np.ndarray:
        """View of the named segment (shares memory with values)."""
        for name, offset, length in self.layout:
            if name == model_id:
                return self.values[offset:offset + length]
        raise ShapeError(f"no segment named {model_id!r}")

    def copy(self) -> "ParamVector":
        return ParamVector(self.layout, self.values.copy())


def pack_params(named_models) -> ParamVector:
    """Concatenate model parameters into one flat vector.

    Args:
        named_models: iterable of (model_id, model) in a fixed order.

    Returns:
        ParamVector whose layout records (model_id, offset, length) per model.
    """
    layout = []
    chunks = []
    offset = 0
    for name, model in named_models:
        vec = np.asarray(model.get_params(), dtype=float).ravel()
        layout.append((name, offset, vec.size))
        chunks.append(vec)
        offset += vec.size
    values = np.concatenate(chunks) if chunks else np.zeros(0)
    return ParamVector(tuple(layout), values)


def unpack_params(pv: ParamVector, named_models) -> None:
    """Write each segment of pv back into its model.

    Raises:
        ShapeError: when the layout does not match the models (names,
            order, or segment lengths differ).
    """
    models = list(named_models)
    if len(models) != len(pv.layout):
        raise ShapeError(
            f"layout has {len(pv.layout)} segments but {len(models)} models given")
    for (name, offset, length), (model_name, model) in zip(pv.layout, models):
        if name != model_name:
            raise ShapeError(f"segment {name!r} does not match model {model_name!r}")
        if length != model.num_params:
            raise ShapeError(
                f"segment {name!r} has length {length}, model expects {model.num_params}")
        model.set_params(pv.values[offset:offset + length])


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open a text file for writing that appears at path only when complete.

    The block writes ``path + ".tmp"``, which replaces path once the block
    finishes; if the block raises, the temporary file is removed and path
    keeps its previous contents, so an interrupted write never leaves a
    truncated artifact behind.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _cell(value):
    # repr of a float reads back to the same bits; None is a missing value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else value


def write_csv(path, header, rows):
    """Write a CSV artifact through atomic_open: float cells as
    ``repr(float(v))``, None as an empty cell, ints and strings as ``csv``
    formats them.  header=None writes a zero-byte file (an empty split)."""
    with atomic_open(path, newline="") as fh:
        if header is None:
            return
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def read_csv(path):
    """Rows of a CSV artifact as lists of strings, header first; [] when
    the file is empty."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))
