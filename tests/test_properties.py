"""Hypothesis properties of the linear maps: prediction and the anti-causal
convolution are linear, and every real signal keeps a Hermitian spectrum.

Inputs given as samples pass through the predictor's roundoff floor, which
zeroes small spectral values and so is not linear; ``predict`` is tested on
generated signals, which carry their half spectra.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    GeneratorConfig,
    SpectralSeries,
    TimeSeries,
    apply_anticausal,
    build_predictor,
    forward_transform,
    make_grid,
    predict,
    sample_bandlimited,
    sample_class_member,
)

from conftest import random_series
from oracles import hermitian_full, idft_direct

# linear maps agree with their combination to this share of the result's norm
LINEARITY_TOL = 1e-12
# share of the real part that the full-grid inverse may leave imaginary
HERMITIAN_TOL = 1e-12

COEFFICIENTS = st.one_of(st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0))


@st.composite
def kernels(draw):
    """A kernel of 1-3 well-separated poles in [0.1, 5] and a numerator of
    degree below the pole count, whose constant term is at least 0.1."""
    poles = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3))
    assume(all(abs(a - b) > 0.05 for i, a in enumerate(poles) for b in poles[:i]))
    lead = draw(st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0)))
    rest = draw(st.lists(st.floats(-2.0, 2.0), max_size=len(poles) - 1))
    return AnticausalKernel(tuple(poles), (lead, *rest))


def _combined_error(lhs, a, fx, b, fy):
    """max |lhs - (a fx + b fy)| over max |a fx + b fy|, sup norms because
    a predicted spectrum can reach e^700, whose square overflows; 0 where
    both are 0."""
    rhs = a * fx + b * fy
    scale = np.max(np.abs(rhs))
    gap = np.max(np.abs(lhs - rhs))
    return gap / scale if scale > 0.0 else gap


@settings(max_examples=25, deadline=None)
@given(
    kernel=kernels(),
    gamma=st.floats(1.0, 300.0),
    r=st.floats(0.5, 4.0),
    log2n=st.integers(8, 12),
    seed=st.integers(0, 2**32 - 1),
    a=COEFFICIENTS,
    b=COEFFICIENTS,
)
def test_predict_is_linear_on_generated_signals(kernel, gamma, r, log2n, seed, a, b):
    grid = make_grid(2**log2n, 0.05)
    cfg = GeneratorConfig(seed=seed, grid=grid)
    x = sample_class_member(DegeneracyClass(2.0, 1.0), cfg)
    y = sample_bandlimited(0.5 * grid.omega_max, cfg)
    pt = build_predictor(kernel, gamma, r, grid)
    combined = predict(pt, SpectralSeries(grid, a * x.spectrum + b * y.spectrum)).spectrum
    fx, fy = predict(pt, x).spectrum, predict(pt, y).spectrum
    assert _combined_error(combined, a, fx, b, fy) <= LINEARITY_TOL


@settings(max_examples=25, deadline=None)
@given(kernel=kernels(), log2n=st.integers(8, 12), seed=st.integers(0, 2**32 - 1), a=COEFFICIENTS, b=COEFFICIENTS)
def test_apply_anticausal_is_linear(kernel, log2n, seed, a, b):
    grid = make_grid(2**log2n, 0.05)
    x, y = random_series(grid, seed), random_series(grid, seed + 1)
    combined = apply_anticausal(kernel, TimeSeries(grid, a * x.samples + b * y.samples)).samples
    fx, fy = apply_anticausal(kernel, x).samples, apply_anticausal(kernel, y).samples
    assert _combined_error(combined, a, fx, b, fy) <= LINEARITY_TOL


@settings(max_examples=25, deadline=None)
@given(log2n=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_forward_transform_returns_the_real_samples(log2n, seed):
    x = random_series(make_grid(2**log2n, 0.05), seed)
    back = forward_transform(x).samples
    assert np.max(np.abs(back - x.samples)) <= 1e-13 * np.max(np.abs(x.samples))


@settings(max_examples=20, deadline=None)
@given(
    kernel=kernels(),
    gamma=st.floats(1.0, 300.0),
    r=st.floats(0.5, 4.0),
    log2n=st.integers(6, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_prediction_is_a_real_signal(kernel, gamma, r, log2n, seed):
    # the half spectrum stands for a Hermitian one: its complex inverse on
    # all n nodes is real up to the roundoff of the O(n^2) sums
    grid = make_grid(2**log2n, 0.05)
    x = sample_class_member(DegeneracyClass(2.0, 1.0), GeneratorConfig(seed=seed, grid=grid))
    pt = build_predictor(kernel, gamma, r, grid)
    samples = idft_direct(hermitian_full(predict(pt, x).spectrum), grid)
    assert np.max(np.abs(samples.imag)) <= HERMITIAN_TOL * np.max(np.abs(samples.real))
