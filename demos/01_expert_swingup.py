"""Swing the pendulum up with the ground-truth models and an iLQR expert.

Closed loop: at every 0.1 s step the planner re-solves a 21 s horizon from
the current state and applies only the first torque.  Success means the
angle stays within 0.5 rad of upright for five consecutive seconds.
"""
import time

import numpy as np

from picontrol.core import RngStream
from picontrol.envs import (PendulumPlant, mpc_simulate, pendulum_expert,
                            pendulum_teacher_models, upright_success)

np.set_printoptions(precision=3, suppress=True)

# the demonstration-generating teacher: iLQR over the true models
planner = pendulum_expert()
_, cost, weight = pendulum_teacher_models()
plant = PendulumPlant()

# ---------------------------------------------------------------- one run

rng = RngStream(42)
x0 = np.array([rng.child(0).generator().uniform(-np.pi, np.pi),
               rng.child(0).generator().uniform(-1.0, 1.0)])
print(f"start: theta {x0[0]:+.3f} rad, theta_dot {x0[1]:+.3f} rad/s")

start = time.perf_counter()
result = mpc_simulate(planner, plant, x0, duration=20.0,
                      rng=rng.child(1), cost_model=cost,
                      weight_matrix=weight.matrix(),
                      success_fn=lambda s: upright_success(s, plant.dt))

print(f"success: {result.success}, trajectory cost {result.cost:.2f}, "
      f"wall {time.perf_counter() - start:.1f} s")

# the distance to upright over time, sampled once a second
theta_err = np.abs(np.abs(result.states[::10, 0]) - np.pi)
for second, err in enumerate(theta_err):
    bar = "#" * int(min(err, np.pi) * 12)
    print(f"t={second:2d}s  |upright error| {err:5.2f}  {bar}")
