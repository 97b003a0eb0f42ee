"""Numerical calibration constants.

The library's tolerances and clamps, and the thresholds some tests read,
live in this one table; other tests state their own bounds.  These are
floating-point calibration values chosen for the double-precision
discretization, not derived quantities; changing the grid scale or
precision model would require recalibrating them together.
"""

CALIBRATION = {
    # predictor transfer
    "lemma_iv_slack": 1e-9,           # slack on the weighted low-band bound
    "causality_defect_max": 1e-3,     # share of kernel energy at t < 0
    "orthogonality_residual_max": 1e-2,
    "khat_clamp_log": 700.0,          # clamp of stored |K_hat|, under exp's overflow edge
    # experiments
    "class_dc_floor_rel": 1e-12,      # spectral roundoff floor of a series that
                                      # arrives as samples, relative to its peak:
                                      # its recomputed transform carries ~1e-16
                                      # relative roundoff at every node
    "counterexample_identity_rel": 0.05,
    "robustness_slack": 0.05,
}
