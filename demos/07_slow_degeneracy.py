#!/usr/bin/env python3
"""Illustration: spectra that vanish too slowly are not predictable.

Signals whose transform decays like exp(-c/|omega|^q) with q < 1 keep mass
inside the predictor's amplified low band.  Their error falls with gamma
too, but at gamma = 30 it stays about 1e10 above that of an admissible
ensemble (q = 2, same seeds, same sweep).  On this uniform grid the first
frequency node acts as a spectral gap, which is why the slow error does
not grow (ROADMAP item 3).  A numerical run cannot prove non-existence of
predictors; this is an illustration, nothing more.
"""

from specpredict import (
    AnticausalKernel,
    GeneratorConfig,
    make_grid,
    nonpredictability_demo,
)

grid = make_grid(2**16, 0.01)
kernel = AnticausalKernel(poles=(0.5,), numerator=(1.0,))
cfg = GeneratorConfig(seed=77, grid=grid)

report = nonpredictability_demo(
    q_bad=0.5, c=1.0, kernel=kernel, gammas=(10.0, 30.0), cfg=cfg, r=2.5, size=3
)
print(f"label: {report.label}  (q_bad = {report.q_bad} vs reference q = 2, shared seeds)")
print(f"{'gamma':>7} {'slow-degeneracy err':>20} {'reference err':>15}")
for row in report.rows:
    print(f"{row.gamma:7.0f} {row.err_rel_slow:20.3e} {row.err_rel_reference:15.3e}")
print(f"final error ratio: {report.final_ratio:.2e}")
print("the sweep stops at gamma = 30: beyond that the amplified band falls "
      "below this grid's resolution and the contrast becomes a grid artifact")
