"""Span tracing of picontrol's layers, installed from outside the package.

The tracer swaps each traced function for a timing wrapper at every name
through which callers reach it: a module attribute (``training`` imports
``pi_net_forward`` by name, so ``picontrol.training.pi_net_forward`` is
wrapped as well as ``picontrol.controller.pi_net_forward``), a value in a
module-level dispatch table (``cli.COMMANDS``), or a method on a model
class.  Nothing inside the package changes; ``uninstall`` restores every
original.

Each call records a span (layer name, start, end, parent span, round) in
memory.  A layer's self time is its span duration minus the time covered
by its child spans, accumulated as spans close.  Counters (rows, rollout
steps, solver iterations, tape and artifact bytes) are read from the
call's arguments and results at the same boundary.  Private helpers such
as ``_ilqr_backward`` and ``_kernel_backward`` are not wrapped: their time
is the self time of the public function that calls them.
"""

import array
import contextlib
import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    return {"models.dynamics_forward.rows": np.shape(args[1])[0]}


def _rollout_steps(args, kwargs, result):
    noise = np.shape(args[2])
    return {"controller.rollout_steps": noise[0] * noise[1]}


def _tape_bytes(args, kwargs, result):
    tape = result[1]
    if tape is None:
        return {}
    total = tape.x0.nbytes + tape.param_values.nbytes
    for rec in tape.records:
        total += sum(value.nbytes for value in vars(rec).values()
                     if isinstance(value, np.ndarray))
    return {"controller.tape_bytes": total}


def _ilqr_counts(args, kwargs, result):
    return {"experts.ilqr_iterations": result.iterations,
            "experts.ilqr_accepted": len(result.costs) - 1,
            "experts.ilqr_degraded": int(result.degraded)}


def _file_bytes(args, kwargs, result):
    path = args[0]
    size = os.path.getsize(path) if os.path.exists(path) else 0
    return {"cli.io.bytes": size}


# layer name -> (module, function names, counter hook)
FUNCTIONS = (
    ("core.gaussian_noise", "core", ("gaussian_noise",), None),
    ("controller.monte_carlo_rollout", "controller", ("monte_carlo_rollout",),
     _rollout_steps),
    ("controller.cost_to_go", "controller", ("cost_to_go",), None),
    ("controller.pi_net_forward", "controller", ("pi_net_forward",),
     _tape_bytes),
    ("controller.pi_net_backward", "controller", ("pi_net_backward",), None),
    ("experts.ilqr_solve", "experts", ("ilqr_solve",), _ilqr_counts),
    ("experts.lqr", "experts", ("riccati_gains", "lqr_solve"), None),
    ("envs.mpc_simulate", "envs", ("mpc_simulate",), None),
    ("training.sample_loss_and_grad", "training", ("sample_loss_and_grad",),
     None),
    ("training.evaluate_losses", "training", ("evaluate_losses",), None),
    ("training.pretrain_dynamics", "training", ("pretrain_dynamics",), None),
    ("training.rmsprop_step", "training", ("rmsprop_step",), None),
    ("cli.io", "cli", ("write_json", "write_linear_dataset",
                       "write_pendulum_dataset", "write_history_csv",
                       "write_trajectory_csv", "read_json",
                       "read_linear_dataset", "read_pendulum_dataset"),
     _file_bytes),
)

# layer name -> (module, class names, method names, counter hook)
METHODS = (
    ("models.dynamics_forward", "models",
     ("LinearDynamics", "MLPDynamics"), ("forward",), _rows),
    ("models.dynamics_forward", "envs", ("PendulumDynamics",), ("forward",),
     _rows),
    ("models.dynamics_jacobian", "models", ("LinearDynamics",),
     ("jacobian",), None),
    ("models.dynamics_jacobian", "envs", ("PendulumDynamics",),
     ("jacobian",), None),
    ("models.dynamics_vjp", "models", ("LinearDynamics", "MLPDynamics"),
     ("vjp",), None),
    ("models.dynamics_vjp", "envs", ("PendulumDynamics",), ("vjp",), None),
    ("models.cost_eval", "models",
     ("QuadraticCost", "MLPCost", "PendulumTeacherCost"),
     ("running", "terminal"), None),
    ("models.cost_vjp", "models",
     ("QuadraticCost", "MLPCost", "PendulumTeacherCost"),
     ("running_vjp", "terminal_vjp"), None),
    ("experts.lqr", "experts", ("LQRPlanner",), ("plan",), None),
    ("envs.plant_step", "envs", ("PendulumPlant", "LinearPlant"), ("step",),
     None),
)

MODULES = ("core", "models", "controller", "experts", "envs", "training",
           "cli")


class Tracer:
    """In-memory span recorder with per-layer self-time accumulation.

    ``phase`` labels the spans and counters that follow it ("setup" or
    "round"); ``round_id`` is stored with every span so the spans of one
    round can be grouped.
    """

    def __init__(self, package):
        self.package = package
        self.names = []
        self._name_ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_round = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = []            # [span index, child time]
        self.self_s = defaultdict(float)    # (phase, layer) -> seconds
        self.calls = defaultdict(int)       # (phase, layer) -> count
        self.counts = defaultdict(float)    # (phase, counter) -> sum
        self.tape_bytes = 0          # largest recorded forward's tape
        self.phase = "round"
        self.round_id = -1
        self._patches = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around its own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(name, index)

    def _open(self, name):
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_round.append(self.round_id)
        self.span_end.append(0.0)
        self.stack.append([index, 0.0])
        self.span_start.append(perf_counter())
        return index

    def _close(self, name, index):
        end = perf_counter()
        _, child = self.stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self.stack:
            self.stack[-1][1] += duration
        key = (self.phase, name)
        self.self_s[key] += duration - child
        self.calls[key] += 1

    def count(self, values):
        for counter, value in values.items():
            if counter == "controller.tape_bytes":
                self.tape_bytes = max(self.tape_bytes, value)
            else:
                self.counts[(self.phase, counter)] += value

    def wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, index)
            if hook is not None:
                tracer.count(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -------------------------------------------------------- installation

    def _modules(self):
        mods = [self.package]
        mods += [importlib.import_module(f"{self.package.__name__}.{m}")
                 for m in MODULES]
        return mods

    def _replace_everywhere(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            self._patches.append((value, key, entry))
                            value[key] = wrapper

    def install(self):
        """Wrap every traced function and method; idempotent per tracer."""
        if self._patches:
            return
        mods = dict(zip(("package",) + MODULES, self._modules()))
        for name, mod, functions, hook in FUNCTIONS:
            for fname in functions:
                original = getattr(mods[mod], fname)
                self._replace_everywhere(original,
                                         self.wrap(name, original, hook))
        for command, fn in list(mods["cli"].COMMANDS.items()):
            wrapper = self.wrap(f"cli.{command}", fn, None)
            self._patches.append((mods["cli"].COMMANDS, command, fn))
            mods["cli"].COMMANDS[command] = wrapper
        for name, mod, classes, methods, hook in METHODS:
            for cname in classes:
                cls = getattr(mods[mod], cname)
                for meth in methods:
                    original = vars(cls)[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- results

    def layer_totals(self, rounds):
        """Per-layer self time, calls and counters for one setup plus one
        average round."""
        out = defaultdict(float)
        for table, suffix in ((self.self_s, "self_s"), (self.calls, "calls")):
            for (phase, name), value in table.items():
                scale = 1.0 if phase == "setup" else 1.0 / rounds
                out[f"{name}.{suffix}"] += value * scale
        for (phase, name), value in self.counts.items():
            scale = 1.0 if phase == "setup" else 1.0 / rounds
            out[name] += value * scale
        return out

    def write(self, path):
        """Write all spans as a compressed .npz (names indexed by 'name')."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            round=np.frombuffer(self.span_round, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

    @property
    def span_count(self):
        return len(self.span_start)

