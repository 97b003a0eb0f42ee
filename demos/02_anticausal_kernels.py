#!/usr/bin/env python3
"""The anti-causal kernel family and the future-looking convolution.

The kernels live on t <= 0 and are fixed by right-half-plane poles plus a
numerator polynomial; their transforms are rational.  Convolving with one
asks about the *future* of the input, which is what the predictor will have
to approximate causally.
"""

import json

import numpy as np

from specpredict import (
    AnticausalKernel,
    TimeSeries,
    apply_anticausal,
    make_grid,
    norm,
    residues,
    time_kernel,
    transfer,
)
from specpredict.kernels import kernel_to_dict

grid = make_grid(2**12, 0.05)
kernel = AnticausalKernel(poles=(1.0, 2.0), numerator=(1.0,))
print("kernel:", json.dumps(kernel_to_dict(kernel)))
print("partial-fraction residues:", residues(kernel))

kappa = time_kernel(kernel, grid)
t = grid.times()
print("kernel is exactly zero for t > 0:", bool(np.all(kappa.samples[t > 0] == 0)))
print("kernel value at the t = 0 jump:", kappa.samples[grid.n // 2])

# sampled at nodes 0..n/2; the nodes above n/2 are their conjugates
K = transfer(kernel, grid)
print("transfer at omega = 0:", K[0])

# A pulse at t = 0 excites only the past: y inherits the kernel's shape.
pulse = np.zeros(grid.n)
pulse[grid.n // 2] = 1.0 / grid.delta_t
y = apply_anticausal(kernel, TimeSeries(grid, pulse))
future_energy = norm(TimeSeries(grid, np.where(t > 0.5, y.samples, 0)), 2)
print(f"anti-causal response to a pulse: energy at t > 0.5 is "
      f"{future_energy / norm(y, 2):.2e} of the total (discretization leakage)")

window = (t < -0.5) & (t > -5)
expected = np.exp(t[window]) - np.exp(2 * t[window])
print("response matches e^t - e^{2t} on the past:",
      f"max dev {np.max(np.abs(y.samples[window] - expected)):.2e}")
