"""Memory bounds of the default convergence study (n = 2^16, 10 members).

numpy reports its array buffers to ``tracemalloc``, so a traced peak is the
largest set of arrays alive at once; the FFT library's own scratch is not
counted.  Members are drawn, and the sweep's error channel is formed, one
member at a time, so no stacked (m, n) or (m, n/2+1) temporary is alive
beside the sweep's one array of member spectra.  Real members keep float64
samples, and a predictor evaluates and keeps nodes 0..n/2 only.
"""

import tracemalloc

from specpredict import GeneratorConfig, build_predictor, gamma_sweep, make_class_ensemble
from specpredict.experiments import (
    DEFAULT_CLASS,
    DEFAULT_ENSEMBLE_SIZE,
    DEFAULT_GAMMAS,
    DEFAULT_KERNEL,
    DEFAULT_R,
    default_grid,
)

CFG = GeneratorConfig(seed=2026, grid=default_grid())

# Traced peak of gamma_sweep above its inputs at these defaults: 26.8 MB for
# the stacked channel (one (10, 2^15+1) error spectrum and one (10, 2^16)
# inverse per gamma), 14.1 MB streamed with predictors mirrored to n nodes,
# 11.4-11.9 MB with predictors kept at nodes 0..n/2; the bound sits above
# the last and below the one before.
SWEEP_PEAK_BOUND = 13e6

# Traced peak of one build_predictor at n = 2^16, gamma = 10: 10.1 MB with
# V, K and K_hat evaluated at all n nodes, 7.0 MB evaluated at nodes 0..n/2
# and mirrored, 4.3 MB kept at nodes 0..n/2; the bound sits between the last
# two.
BUILD_PEAK_BOUND = 5.5e6


def _traced_peak(fn):
    """``fn()`` and the peak bytes it allocated while tracing ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_peak_stays_under_twice_the_samples():
    make_class_ensemble(DEFAULT_CLASS, CFG, 1)  # per-grid caches outside the trace
    ensemble, peak = _traced_peak(
        lambda: make_class_ensemble(DEFAULT_CLASS, CFG, DEFAULT_ENSEMBLE_SIZE)
    )
    samples = sum(x.samples.nbytes for x in ensemble)
    # the stacked projection rounds peaked at about 4x the samples
    assert peak < 2 * samples, (peak, samples)


def test_sweep_peak_above_inputs_is_bounded():
    ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, DEFAULT_ENSEMBLE_SIZE)
    report, peak = _traced_peak(
        lambda: gamma_sweep(DEFAULT_KERNEL, DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_R, ensemble)
    )
    assert len(report.rows) == len(DEFAULT_GAMMAS)
    assert peak < SWEEP_PEAK_BOUND, peak


def test_members_keep_real_samples_as_float64():
    ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, DEFAULT_ENSEMBLE_SIZE)
    assert sum(x.samples.nbytes for x in ensemble) == DEFAULT_ENSEMBLE_SIZE * CFG.grid.n * 8


def test_build_predictor_peak_is_bounded():
    grid = CFG.grid
    build_predictor(DEFAULT_KERNEL, 10.0, DEFAULT_R, grid)  # caches (signs) outside the trace
    pt, peak = _traced_peak(lambda: build_predictor(DEFAULT_KERNEL, 10.0, DEFAULT_R, grid))
    assert pt.khat_values.shape == (grid.n // 2 + 1,)
    assert peak < BUILD_PEAK_BOUND, peak
