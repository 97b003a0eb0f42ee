#!/usr/bin/env python3
"""Anatomy of the causal predictor transfer.

The correcting factor V zeroes the kernel's right-half-plane poles, swings
enormously inside a shrinking low-frequency band, and settles to 1 outside
it.  Where doubles can hold the swing, the product V*K round-trips to a
kernel supported on t >= 0 — measured here by the causality defect and the
cross-family orthogonality residual.
"""

import numpy as np

from specpredict import (
    AnticausalKernel,
    build_predictor,
    causality_defect,
    eval_v_factor,
    line_witness,
    make_grid,
    orthogonality_residual,
    v_minus_one,
)

kernel = AnticausalKernel(poles=(0.01,), numerator=(1.0,))
grid = make_grid(2**17, 0.01)
gamma, r = 30.0, 0.6

print(f"factor vanishes at the pole: V(a) = {eval_v_factor(0.01, 0.01, gamma, r)}")

pt = build_predictor(kernel, gamma, r, grid)
print(f"band edge Omega(gamma) = {pt.omega_threshold:.4f} "
      f"({pt.omega_threshold / grid.delta_omega:.1f} grid nodes)")
print(f"grid gain sup |K_hat| = {pt.kappa_sup:.3e}, saturated: {pt.any_saturated}")

om = np.array([0.001, 0.01, 0.03, 0.1, 1.0, 10.0])
# V - 1 = D e^s, with s carrying what leaves the double range
s, d = v_minus_one(om, kernel, gamma, r)
for w, sk, dk in zip(om, s, np.abs(d)):
    side = "inside" if w <= pt.omega_threshold else "outside"
    print(f"  |V(i{w:g}) - 1| = {dk:.3e} e^{sk:.1f}   ({side} the band)")

print(f"causality defect (energy share at t < 0): {causality_defect(pt):.2e}")
print(f"orthogonality residual <K, K_hat>: {orthogonality_residual(pt):.2e}")

print("\ngain growth along a sweep (the robustness trade-off in the making):")
for g in (10.0, 30.0, 100.0, 300.0, 1000.0):
    p = build_predictor(kernel, g, r, grid)
    print(f"  gamma={g:6.0f}: kappa_sup={p.kappa_sup:.3e}  defect={causality_defect(p):.1e}")

print("\nat sharper configurations (a=1, r=4) the axis gain exp(a*gamma^(r+1)) "
      "leaves double range; read on Re z = sigma the kernel stays measurable "
      "(see docs/numerics.md):")
sharp = AnticausalKernel(poles=(1.0,), numerator=(1.0,))
for g in (10.0, 100.0, 1000.0):
    w = line_witness(sharp, g, 4.0)
    print(f"  gamma={g:6.0f}: sigma={w.sigma}  n={w.grid.n}  "
          f"defect={w.causality_defect:.1e}  residual={w.orthogonality_residual:.1e}")
