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
    "v_overflow_clamp_log": 700.0,    # log-magnitude clamp for stored values
    # signal generation
    "class_zero_floor": 1e-300,       # absolute floor on |X(0)| for the zero signal
    "class_dc_floor_rel": 1e-12,      # |X(0)| / max|X| above this exits the class;
                                      # a transform recomputed from time samples
                                      # carries ~1e-16 relative roundoff at the
                                      # degeneracy node, so the floor is relative
    # experiments
    "counterexample_identity_rel": 0.05,
    "robustness_slack": 0.05,
}
