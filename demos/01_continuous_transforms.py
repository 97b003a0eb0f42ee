#!/usr/bin/env python3
"""Grid discretization of the continuous Fourier transform.

Walks through the discretization contract: a centered uniform time grid, the
conjugate frequency grid, the Riemann-sum transform pair, and the two
identities every later experiment leans on (round trip and Parseval).
Signals are real, so the transform keeps nodes 0..n/2 of the spectrum; the
nodes above n/2 are their conjugates.
"""

import math

import numpy as np

from specpredict import TimeSeries, forward_transform, make_grid, norm

grid = make_grid(2**13, 0.05)
print(f"grid: n={grid.n}, delta_t={grid.delta_t}")
print(f"  span T = {grid.span:.2f}, delta_omega = {grid.delta_omega:.5f}, "
      f"omega_max = {grid.omega_max:.2f}")

# The Gaussian is its own transform up to scaling: exp(-t^2/2) maps to
# sqrt(2 pi) exp(-w^2/2).  The Riemann sum nails it to machine accuracy
# because both tails die long before the window and band edges.
t = grid.times()
x = TimeSeries(grid, np.exp(-(t**2) / 2))
X = forward_transform(x)
h = grid.n // 2 + 1
print(f"half spectrum: {X.spectrum.size} of {grid.n} nodes")
om = grid.omegas()[:h]
sel = np.abs(om) <= 3
exact = math.sqrt(2 * math.pi) * np.exp(-(om[sel] ** 2) / 2)
print("gaussian pair, max relative error for |omega| <= 3:",
      f"{np.max(np.abs(X.spectrum[sel] - exact) / exact):.2e}")

print("round trip relative error:",
      f"{norm(TimeSeries(grid, X.samples - x.samples), 2) / norm(x, 2):.2e}")

# Parseval over all n nodes: node k of 0 < k < n/2 stands for +-omega_k.
weights = np.full(h, 2.0)
weights[[0, -1]] = 1.0
energy_t = norm(x, 2) ** 2
energy_w = grid.delta_omega / (2 * math.pi) * np.sum(weights * np.abs(X.spectrum) ** 2)
print(f"parseval: time {energy_t:.12f} vs frequency {energy_w:.12f}")

try:
    TimeSeries(grid, x.samples + 0j)
except ValueError as exc:
    print("complex samples are rejected:", exc)
