"""Differentiate a planner: d(imitation loss)/d(model parameters).

The forward pass records, per planner iteration, what the backward pass
reads (input plan, noise, rollout states and trajectory weights); the
backward pass walks that tape in reverse, composing hand-written
vector-Jacobian products.  Two spot checks below: a finite-difference probe of single
coordinates, and the exact-zero gradient of a frozen segment.
"""
import numpy as np

from picontrol.controller import ModelSet, pi_net_backward, pi_net_forward
from picontrol.core import ParamVector, PIHyperParams, RngStream, unpack_params
from picontrol.models import ControlCostWeight, MLPCost, MLPDynamics
from picontrol.training import OpenLoopSample, loss_ctrl, sample_loss_and_grad

rng = RngStream(3)
models = ModelSet(MLPDynamics(hidden=4, dt=0.1, init_rng=rng.child(0)),
                  MLPCost(hidden=4, outputs=4, init_rng=rng.child(1)),
                  ControlCostWeight(1))
hp = PIHyperParams(lambda_=0.5, nu=1500.0, sigma=0.3,
                   num_samples=4, horizon=3, recurrences=2)

x0 = rng.child(2).generator().normal(size=2)
demo = rng.child(3).generator().normal(size=(hp.horizon, 1))
noise = rng.child(4)

# ------------------------------------------------------------- reverse pass

useq, tape = pi_net_forward(x0, None, models, hp, noise, record=True)
cotangent = (2.0 / demo.size) * (useq - demo)  # d loss_ctrl / d useq
grad = pi_net_backward(tape, cotangent, models)
print(f"loss {loss_ctrl(useq, demo):.6f}")
for name in ("dynamics", "cost", "control_weight"):
    seg = grad.segment(name)
    print(f"  {name:15s} {seg.size:3d} coords, |grad| max {np.abs(seg).max():.3e}")

# ------------------------------------------------- finite-difference probe

base = models.pack()

def loss_at(values):
    unpack_params(ParamVector(base.layout, values), models.items())
    out, _ = pi_net_forward(x0, None, models, hp, noise)
    return loss_ctrl(out, demo)

eps = 1e-5
print("\ncoordinate      reverse pass   central difference")
for j in (0, 17, 40):
    hi, lo = base.values.copy(), base.values.copy()
    hi[j] += eps
    lo[j] -= eps
    fd = (loss_at(hi) - loss_at(lo)) / (2 * eps)
    print(f"  {j:3d}        {grad.values[j]:+.8f}      {fd:+.8f}")
unpack_params(base, models.items())

# -------------------------------------------------------- frozen segments

# the training loop freezes pre-trained dynamics by zeroing their segment
# of each sample's gradient, after every loss term is added; RMSProp then
# leaves those parameters bitwise unchanged, and the other segments keep
# the gradient computed above
_, frozen = sample_loss_and_grad(models, hp, OpenLoopSample(x0, demo),
                                 "open_loop", noise, {"ctrl": 1.0},
                                 freeze=("dynamics",))
same = np.array_equal(frozen.segment("cost"), grad.segment("cost"))
print(f"\nfrozen dynamics gradient, exact zeros: "
      f"{np.count_nonzero(frozen.segment('dynamics')) == 0}; "
      f"cost gradient unchanged: {same}")
