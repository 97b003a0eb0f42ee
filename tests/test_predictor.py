import ast
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    SpectralSeries,
    TimeSeries,
    build_predictor,
    causality_defect,
    eval_v_factor,
    find_gamma0,
    lemma_check,
    line_witness,
    make_grid,
    norm,
    orthogonality_residual,
    predict,
    transfer,
    v_minus_one,
)
from specpredict.experiments import DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_KERNEL, DEFAULT_R, default_grid
from specpredict.predictor import _line_figures, _past_share, factor_exponent, v_logpolar
from specpredict.spectral import _half_omegas, irfft_rows
from specpredict.tolerances import CALIBRATION

from oracles import (
    build_predictor_full_grid,
    hermitian_defect,
    inverse_transform_n_node,
    irfft_stack,
    lemma_check_full_grid,
    lemma_tail_dev_stacked,
    line_witness_full_grid,
    line_witness_half_grid,
    orthogonality_residual_full_grid,
    past_share,
    transfer_full_grid,
    v_minus_one_stacked,
)

KERNEL = AnticausalKernel((1.0,), (1.0,))


class TestVFactor:
    def test_zero_at_pole(self):
        assert eval_v_factor(1.0, 1.0, 50.0, 4.0) == 0.0
        assert abs(eval_v_factor(2.5, 2.5, 3.0, 0.5)) < 1e-15

    def test_factor_dev_below_one_outside_band(self):
        # |V_j - 1| < 1 wherever |omega| exceeds the band edge
        for gamma in (0.5, 10.0, 1000.0):
            alpha = gamma ** (-4.0)
            edge = math.sqrt(alpha)
            om = np.linspace(edge * 1.01, 50.0, 300)
            dev = np.abs(eval_v_factor(1j * om, 1.0, gamma, 4.0) - 1.0)
            assert np.all(dev < 1.0)

    def test_sharp_gamma_drives_factor_to_one(self):
        v = eval_v_factor(1j * 1.0, 1.0, 1000.0, 4.0)
        assert abs(v - 1.0) < 1e-12

    def test_modulus_identity(self):
        # |V_j(iw) - 1| = exp(-gamma * Re((iw-a)/(iw+gamma^-r))) pointwise
        gamma, r, a = 7.0, 1.5, 0.8
        om = np.linspace(0.05, 40.0, 500)
        dev = np.abs(eval_v_factor(1j * om, a, gamma, r) - 1.0)
        expected = np.exp(factor_exponent(1j * om, a, gamma, r).real)
        assert np.max(np.abs(dev - expected) / expected) < 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            eval_v_factor(1j, 1.0, -1.0, 4.0)
        with pytest.raises(ValueError):
            eval_v_factor(1j, 1.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            eval_v_factor(1j, -2.0, 10.0, 4.0)

    def test_v_minus_one_keeps_precision_for_tiny_deviation(self):
        om = np.array([1.0, 5.0])
        dev = v_minus_one(om, KERNEL, 100.0, 4.0)
        expected = np.exp(factor_exponent(1j * om, 1.0, 100.0, 4.0).real)
        assert np.all(np.abs(dev) == pytest.approx(expected, rel=1e-10))
        # naive evaluation would round these ~1e-44 deviations to zero
        assert 0 < abs(dev[0]) < 1e-40


class TestBuildPredictor:
    def test_large_gamma_transfer_approaches_kernel(self, small_grid):
        pt = build_predictor(KERNEL, 1000.0, 4.0, small_grid)
        h = small_grid.n // 2 + 1
        K = transfer(KERNEL, small_grid)
        nz = small_grid.omegas()[:h] != 0.0
        assert np.max(np.abs(pt.khat_values[nz] - K[nz])) < 1e-10

    def test_omega_threshold_formula(self, small_grid):
        pt = build_predictor(KERNEL, 100.0, 4.0, small_grid)
        assert pt.omega_threshold == pytest.approx(1e-4)

    def test_khat_is_nodewise_product(self, small_grid):
        pt = build_predictor(KERNEL, 20.0, 2.0, small_grid)
        h = small_grid.n // 2 + 1
        K = transfer(KERNEL, small_grid)
        v_log, v_ph = v_logpolar(1j * small_grid.omegas()[:h], KERNEL, 20.0, 2.0)
        finite = ~pt.saturated
        V = np.exp(v_log[finite]) * np.exp(1j * v_ph[finite])
        assert np.allclose(pt.khat_values[finite], V * K[finite])
        assert np.array_equal(pt.k_values, K)

    def test_hermitian_khat_and_real_kernel(self, small_grid):
        # nodes 0..n/2 imply the conjugate-symmetric rest; nodes 0 and n/2
        # stand for themselves and are real
        kernel = AnticausalKernel((0.5, 2.0), (0.1, 1.0))
        pt = build_predictor(kernel, 15.0, 1.0, small_grid)
        assert pt.khat_values.shape == (small_grid.n // 2 + 1,)
        ends = pt.khat_values[[0, -1]]
        assert np.all(np.abs(ends.imag) <= 1e-12 * np.abs(ends))
        assert irfft_rows(pt.khat_values, small_grid).dtype == np.float64
        full = build_predictor_full_grid(kernel, 15.0, 1.0, small_grid).khat_values
        assert hermitian_defect(full) <= 1e-12

    def test_kappa_sup_is_grid_max(self, small_grid):
        pt = build_predictor(KERNEL, 12.0, 0.8, small_grid)
        assert pt.kappa_sup == pytest.approx(np.max(np.abs(pt.khat_values)))

    def test_saturation_flagged_and_clamped(self):
        g = make_grid(2**12, 0.01)
        pt = build_predictor(KERNEL, 100.0, 4.0, g)
        assert pt.any_saturated
        assert np.all(np.isfinite(pt.khat_values[~pt.saturated].view(float)))
        assert math.isfinite(pt.kappa_sup)

    def test_pointwise_convergence_in_gamma(self, small_grid):
        devs = []
        om = small_grid.omegas()
        k = int(np.argmin(np.abs(om - 1.0)))
        for gamma in (10.0, 100.0, 1000.0, 10000.0):
            dev = abs(v_minus_one(np.array([om[k]]), KERNEL, gamma, 4.0)[0])
            devs.append(dev)
        assert all(a >= b for a, b in zip(devs, devs[1:]))
        assert devs[-1] == 0.0

    def test_gain_growth_along_sweep(self):
        # nondecreasing grid gain; strict growth at a representable config
        g = make_grid(2**14, 0.01)
        kern = AnticausalKernel((0.01,), (1.0,))
        kappas = [build_predictor(kern, gamma, 0.6, g).kappa_sup for gamma in (10, 30, 100, 300)]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))


class TestPredict:
    def test_zero_signal(self, small_grid):
        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        y = predict(pt, TimeSeries(small_grid, np.zeros(small_grid.n)))
        assert norm(y, 2) == 0.0

    def test_returns_the_half_spectrum_of_the_prediction(self, small_grid):
        # K_hat X itself, as every generator returns its signal: no
        # inverse is taken until the samples are read
        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        rng = np.random.Generator(np.random.Philox(6))
        X = rng.standard_normal(small_grid.n // 2 + 1) + 1j * rng.standard_normal(small_grid.n // 2 + 1)
        y_hat = predict(pt, SpectralSeries(small_grid, X))
        assert isinstance(y_hat, SpectralSeries) and y_hat.grid == small_grid
        assert y_hat.spectrum.tobytes() == (pt.khat_values * X).tobytes()
        assert not y_hat.spectrum.flags.writeable

    def test_grid_mismatch_rejected(self, small_grid):
        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        other = make_grid(small_grid.n * 2, small_grid.delta_t)
        with pytest.raises(ValueError):
            predict(pt, TimeSeries(other, np.zeros(other.n)))

    def test_identity_transfer_predicts_target_exactly(self, small_grid):
        # artificial V = 1 makes the "prediction" equal the anti-causal output
        from specpredict import apply_anticausal

        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        fake = dataclasses.replace(pt, khat_values=transfer(KERNEL, small_grid))
        rng = np.random.Generator(np.random.Philox(4))
        x = TimeSeries(small_grid, rng.standard_normal(small_grid.n))
        y = apply_anticausal(KERNEL, x)
        y_hat = predict(fake, x)
        assert norm(TimeSeries(small_grid, y_hat.samples - y.samples), 2) < 1e-12 * norm(y, 2)

    def test_only_real_series_accepted(self, small_grid):
        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        x = np.random.Generator(np.random.Philox(5)).standard_normal(small_grid.n)
        y_hat = predict(pt, TimeSeries(small_grid, x))
        assert y_hat.samples.dtype == np.float64
        # complex values never make a series, a zero imaginary part included
        for z in (x + 0j, x + 1e-3j * x):
            with pytest.raises(ValueError, match="real"):
                TimeSeries(small_grid, z)

    def test_generated_member_is_read_on_its_spectrum(self):
        # transforming the samples back left roundoff where the low band's
        # gain reaches exp(700): the prediction read ~1e285 at the defaults
        from specpredict import GeneratorConfig, default_grid, sample_class_member

        grid = default_grid()
        x = sample_class_member(DegeneracyClass(2.0, 1.0), GeneratorConfig(seed=7, grid=grid))
        pt = build_predictor(KERNEL, 10.0, 4.0, grid)
        y_hat = predict(pt, x).samples
        assert y_hat.tobytes() == irfft_rows(pt.khat_values * x.spectrum, grid).tobytes()
        assert np.max(np.abs(y_hat)) < 1.0


class TestCausalityDefect:
    """causality_defect is the t < 0 share (``_past_share``) of the inverse
    of ``khat_values``; the share is checked on exact time samples, through
    the oracle that selects t < 0 by the time nodes, and ``_past_share``,
    which takes the first n/2 samples, equals it bit for bit."""

    def _share(self, grid, samples):
        return past_share(samples, grid.times())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_at_half_matches_time_mask(self, small_grid, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(small_grid.n) * np.exp(rng.uniform(-300.0, 300.0, small_grid.n))
        s[::7] = -0.0
        want = self._share(small_grid, s)
        assert _past_share(s.copy()).hex() == want.hex()
        assert _past_share(np.zeros(small_grid.n)) == 0.0

    def test_exact_causal_support_gives_zero(self, small_grid):
        s = np.zeros(small_grid.n)
        s[small_grid.n // 2 :] = 1.0
        assert self._share(small_grid, s) == 0.0

    def test_time_reversed_kernel(self, small_grid):
        t = small_grid.times()
        s = np.where(t >= 0, np.exp(-np.abs(t)), 0.0)
        # reversal around t = 0 keeps that sample in place
        n = small_grid.n
        rev = s[(n - np.arange(n)) % n]
        d_causal = self._share(small_grid, s)
        d_rev = self._share(small_grid, rev)
        share_t0 = s[n // 2] ** 2 / np.sum(s**2)
        assert d_causal == 0.0
        assert d_rev == pytest.approx(1.0 - share_t0)

    def test_zero_kernel_defined_as_zero(self, small_grid):
        assert self._share(small_grid, np.zeros(small_grid.n)) == 0.0
        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        zero = dataclasses.replace(pt, khat_values=np.zeros_like(pt.khat_values))
        assert causality_defect(zero) == 0.0

    def test_certifies_causal_support_at_representable_config(self):
        # band edge resolved, gain representable: the inverse transform is
        # genuinely supported on t >= 0 up to discretization leakage
        g = make_grid(2**17, 0.01)
        pt = build_predictor(AnticausalKernel((0.01,), (1.0,)), 30.0, 0.6, g)
        assert not pt.any_saturated
        assert causality_defect(pt) < 1e-6


class TestLemmaChecks:
    @pytest.mark.parametrize("gamma", [10.0, 100.0, 1000.0])
    def test_high_band_bounds(self, gamma):
        g = make_grid(2**14, 0.01)
        pt = build_predictor(KERNEL, gamma, 4.0, g)
        rep = lemma_check(pt, DegeneracyClass(2.0, 1.0))
        assert rep.pass_positivity and rep.pass_factor_dev

    def test_tail_deviation_decreases(self):
        g = make_grid(2**14, 0.01)
        prev = math.inf
        for gamma in (10.0, 100.0, 1000.0):
            rep = lemma_check(build_predictor(KERNEL, gamma, 4.0, g), DegeneracyClass(2.0, 1.0))
            assert rep.tail_dev_max < prev
            prev = rep.tail_dev_max

    def test_overflowed_tail_reads_inf(self):
        # r = 0.6 and a floor of 0.01 reach the nodes where a factor overflows
        # at gamma = 100 and v_minus_one forms inf * 0; the deviation there is
        # unbounded, not undefined
        grid = make_grid(2**16, 0.01)
        cls = DegeneracyClass(5.0, 1.0)
        devs = []
        for gamma in (10.0, 100.0):
            pt = build_predictor(KERNEL, gamma, 0.6, grid)
            rep = lemma_check(pt, cls, omega_floor=0.01)
            assert rep.tail_dev_max == lemma_tail_dev_stacked(pt, 0.01)
            assert repr(rep) == repr(lemma_check_full_grid(pt, cls, 0.01))
            devs.append(rep.tail_dev_max)
        om = np.abs(_half_omegas(grid))
        assert np.any(np.isnan(v_minus_one(om[om >= 0.01], KERNEL, 100.0, 0.6)))
        assert math.isfinite(devs[0]) and devs[1] == math.inf

    def test_low_band_log_domain_bound(self):
        # gamma small enough that the band contains many nodes
        g = make_grid(2**14, 0.01)
        pt = build_predictor(KERNEL, 2.0, 4.0, g)
        rep = lemma_check(pt, DegeneracyClass(2.0, 1.0))
        assert rep.low_band_nodes > 10
        assert rep.pass_low_band

    def test_rejects_out_of_band_floor(self):
        g = make_grid(2**10, 0.01)
        pt = build_predictor(KERNEL, 10.0, 1.0, g)
        with pytest.raises(ValueError):
            lemma_check(pt, DegeneracyClass(2.0, 1.0), omega_floor=g.omega_max * 2)

    def test_gamma0_located(self):
        g = make_grid(2**14, 0.01)
        g0 = find_gamma0(KERNEL, DegeneracyClass(2.0, 1.0), 4.0, g, bracket=(0.5, 2000.0))
        assert math.isfinite(g0) and g0 >= 0.5
        for gamma in (max(g0, 10.0), 100.0, 1000.0):
            rep = lemma_check(build_predictor(KERNEL, gamma, 4.0, g), DegeneracyClass(2.0, 1.0))
            assert rep.pass_low_band

    @pytest.mark.parametrize("bracket", [(0.5, 500.0, 7), (0.5,)])
    def test_gamma0_bracket_must_hold_two_numbers(self, bracket):
        with pytest.raises(ValueError, match="exactly two numbers"):
            find_gamma0(KERNEL, DegeneracyClass(2.0, 1.0), 4.0, make_grid(1024, 0.1), bracket=bracket)


class TestHalfGridLemma:
    """lemma_check reads nodes 0..n/2 only; its report equals the full-grid
    evaluation in ``oracles`` exactly, repr for repr."""

    @pytest.mark.parametrize("poles", [(1.0,), (1.0, 2.0), (0.5, 1.0, 2.0)])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0, 10.0, 100.0])
    def test_matches_full_grid(self, poles, gamma):
        pt = build_predictor(AnticausalKernel(poles), gamma, 4.0, make_grid(4096, 0.02))
        cls = DegeneracyClass(2.0, 1.0)
        assert repr(lemma_check(pt, cls)) == repr(lemma_check_full_grid(pt, cls))

    @pytest.mark.parametrize("gamma", [3.0, 10.0, 20.0])
    def test_resolved_band_matches_full_grid(self, gamma):
        # a band the grid resolves: tens of nodes inside it, none saturated
        pt = build_predictor(AnticausalKernel((0.01,)), gamma, 1.5, make_grid(2**16, 0.1))
        cls = DegeneracyClass(3.0, 1e-3)
        rep = lemma_check(pt, cls)
        assert rep.low_band_nodes > 0
        assert repr(rep) == repr(lemma_check_full_grid(pt, cls))

    @pytest.mark.parametrize(
        "poles, gamma, r, cls, grid",
        [
            # the low-band bound fails
            ((3.0, 5.0), 0.5, 1.0, DegeneracyClass(2.0, 0.1), make_grid(4096, 0.02)),
            # the band covers the whole grid, the unpaired omega_max node included
            ((100.0,), 0.5, 4.0, DegeneracyClass(2.0, 1.0), make_grid(64, 0.5)),
        ],
    )
    def test_edge_configurations_match_full_grid(self, poles, gamma, r, cls, grid):
        pt = build_predictor(AnticausalKernel(poles), gamma, r, grid)
        assert repr(lemma_check(pt, cls)) == repr(lemma_check_full_grid(pt, cls))


class TestVMinusOneAccumulation:
    """v_minus_one accumulates the factors pole by pole; it equals the stacked
    reduction in ``oracles`` byte for byte, NaN nodes of overflowed products
    included."""

    OMEGAS = make_grid(2**16, 0.01).omegas()

    @pytest.mark.parametrize("poles", [(1.0,), (0.5, 1.0), (0.5, 1.0, 2.0), (0.3, 0.7, 1.5, 3.0)])
    @pytest.mark.parametrize("gamma", [10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("r", [4.0, 0.6])
    def test_matches_stacked(self, poles, gamma, r):
        kernel = AnticausalKernel(poles)
        got = v_minus_one(self.OMEGAS, kernel, gamma, r)
        with np.errstate(invalid="ignore"):  # inf - inf in the oracle's linear sum
            want = v_minus_one_stacked(self.OMEGAS, kernel, gamma, r)
        assert got.tobytes() == want.tobytes()
        if r == 0.6 and gamma >= 100.0:
            # overflowed products beyond the omega = 0 node
            assert np.count_nonzero(np.isnan(got)) > 10


class TestPreSplitIdentity:
    """The witnesses read the (n/2+1)-node tables, split the t < 0 share at
    n/2 and reduce the lemma's node sets block by block; each figure equals
    byte for byte what the n-node tables, the time mask and one reduction
    over the whole node set give (``oracles``), saturated nodes included."""

    GRID = make_grid(2**16, 0.01)
    CLS = DegeneracyClass(2.0, 1.0)

    @pytest.mark.parametrize("poles", [(1.0,), (1.0, 2.0), (0.5, 1.0, 2.0)])
    @pytest.mark.parametrize("gamma", [10.0, 100.0, 1000.0])
    def test_default_grid_witnesses(self, poles, gamma):
        grid = self.GRID
        pt = build_predictor(AnticausalKernel(poles), gamma, 4.0, grid)
        assert pt.any_saturated
        want = past_share(irfft_stack(pt.khat_values, grid), grid.times())
        assert causality_defect(pt).hex() == want.hex()
        rep = lemma_check(pt, self.CLS)
        assert rep.tail_dev_max.hex() == lemma_tail_dev_stacked(pt).hex()
        assert repr(rep) == repr(lemma_check_full_grid(pt, self.CLS))

    def test_line_grid_of_gamma_1000(self):
        w = line_witness(KERNEL, 1000.0, 4.0)
        assert w.grid.n == 2**18
        got = (w.causality_defect, w.orthogonality_residual)
        want = line_witness_half_grid(KERNEL, 1000.0, 4.0)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        h = w.grid.n // 2 + 1
        assert _half_omegas(w.grid).tobytes() == w.grid.omegas()[:h].tobytes()


def _assert_matches_full_grid(pt, ref):
    """Every array field of ``pt`` equals nodes 0..n/2 of the all-node ``ref``
    bit for bit, as does every other field; the real inverse of the half
    spectrum is within 1e-10 of the peak of the complex inverse of ref's."""
    h = pt.grid.n // 2 + 1
    got = irfft_rows(pt.khat_values, pt.grid)
    want = inverse_transform_n_node(ref.khat_values, pt.grid)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    for f in dataclasses.fields(pt):
        got, want = getattr(pt, f.name), getattr(ref, f.name)
        if isinstance(got, np.ndarray):
            want = want[:h]
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name
        elif isinstance(got, float):
            assert got.hex() == want.hex(), f.name
        else:
            assert got == want, f.name


_KERNELS = [
    pytest.param(poles, numerator, id=f"poles{list(poles)}-num{list(numerator)}")
    for poles, numerator in [
        ((1.0,), (1.0,)),
        ((1.0, 2.0), (1.0,)),
        ((1.0, 2.0), (0.1, 1.0)),
        ((0.5, 1.0, 2.0), (1.0,)),
        ((0.5, 1.0, 2.0), (0.1, 1.0)),
    ]
]
_GRIDS = [make_grid(4096, 0.01), make_grid(2**16, 0.01)]


class TestHalfNodePredictor:
    """build_predictor evaluates and keeps nodes 0..n/2; they equal those of
    the all-node evaluation in ``oracles`` bit for bit."""

    @pytest.mark.parametrize("grid", _GRIDS, ids=["n4096", "n65536"])
    @pytest.mark.parametrize("r", [4.0, 0.6])
    @pytest.mark.parametrize("gamma", [10.0, 30.0, 100.0, 300.0, 1000.0])
    @pytest.mark.parametrize("poles, numerator", _KERNELS)
    def test_matches_full_grid(self, poles, numerator, gamma, r, grid):
        kernel = AnticausalKernel(poles, numerator)
        _assert_matches_full_grid(
            build_predictor(kernel, gamma, r, grid), build_predictor_full_grid(kernel, gamma, r, grid)
        )

    def test_covers_saturating_and_clean_configurations(self):
        grid = _GRIDS[1]
        assert build_predictor(KERNEL, 10.0, 4.0, grid).any_saturated
        assert not build_predictor(KERNEL, 10.0, 0.6, grid).any_saturated

    @pytest.mark.parametrize("grid", _GRIDS, ids=["n4096", "n65536"])
    @pytest.mark.parametrize("sigma", [0.0, 0.25, -0.25])
    @pytest.mark.parametrize("poles, numerator", _KERNELS)
    def test_transfer_matches_full_grid(self, poles, numerator, sigma, grid):
        kernel = AnticausalKernel(poles, numerator)
        got = transfer(kernel, grid, sigma)
        assert got.tobytes() == transfer_full_grid(kernel, grid, sigma)[: grid.n // 2 + 1].tobytes()


class TestOrthogonality:
    def test_identical_copies_give_maximal_residual(self, small_grid):
        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        K = pt.k_values
        with np.errstate(divide="ignore"):
            log_k = np.log(np.abs(K))
        fake = dataclasses.replace(pt, khat_log_mag=log_k, khat_phase=np.angle(K))
        assert orthogonality_residual(fake) == pytest.approx(1.0, rel=1e-9)

    def test_zero_predictor_residual_zero(self, small_grid):
        pt = build_predictor(KERNEL, 10.0, 1.0, small_grid)
        fake = dataclasses.replace(pt, khat_log_mag=np.full(small_grid.n // 2 + 1, -np.inf))
        assert orthogonality_residual(fake) == 0.0

    @pytest.mark.parametrize(
        "poles, gamma, r, n",
        [((1.0,), 10.0, 4.0, 2**16), ((1.0,), 30.0, 0.6, 2**16), ((0.5, 2.0), 15.0, 1.0, 4096)],
    )
    def test_weighted_half_sum_matches_full_grid(self, poles, gamma, r, n):
        grid = make_grid(n, 0.01)
        kernel = AnticausalKernel(poles)
        want = orthogonality_residual_full_grid(build_predictor_full_grid(kernel, gamma, r, grid))
        assert want > 1e-3
        got = orthogonality_residual(build_predictor(kernel, gamma, r, grid))
        assert got == pytest.approx(want, rel=1e-12)

    def test_small_residual_at_representable_config(self):
        g = make_grid(2**17, 0.01)
        pt = build_predictor(AnticausalKernel((0.01,), (1.0,)), 30.0, 0.6, g)
        assert orthogonality_residual(pt) < 1e-2


class TestLineWitness:
    def test_anticausal_kernel_alone_fails(self):
        # V = 1 leaves K itself: on Re z = sigma its kernel is
        # -e^{(a - sigma) t} for t <= 0, whose inner product with
        # -e^{(a + sigma) t} over the norms is sqrt(1 - (sigma/a)^2); all of
        # its energy lies at t < 0 except the half-jump sample -1/2 at t = 0
        a, sigma = 1.0, 0.5
        g = make_grid(2**14, 0.05)
        kern = AnticausalKernel((a,), (1.0,))
        defect, residual = _line_figures(g, transfer(kern, g, -sigma), transfer(kern, g, sigma))
        q = math.exp(-2.0 * (a - sigma) * g.delta_t)
        share_t0 = 0.25 / (0.25 + q / (1.0 - q))
        assert residual == pytest.approx(math.sqrt(1.0 - (sigma / a) ** 2), abs=1e-3)
        assert defect == pytest.approx(1.0 - share_t0, abs=1e-3)
        assert defect > 0.98

    def test_both_witnesses_certify_representable_config(self):
        kern = AnticausalKernel((0.01,), (1.0,))
        pt = build_predictor(kern, 30.0, 0.6, make_grid(2**17, 0.01))
        w = line_witness(kern, 30.0, 0.6)
        assert 0.0 < w.sigma < min(kern.poles)
        for defect in (causality_defect(pt), w.causality_defect):
            assert defect < CALIBRATION["causality_defect_max"]
        for residual in (orthogonality_residual(pt), w.orthogonality_residual):
            assert residual < CALIBRATION["orthogonality_residual_max"]

    @pytest.mark.parametrize(
        "poles, gamma, r", [((1.0,), 10.0, 4.0), ((1.0,), 300.0, 4.0), ((0.01,), 30.0, 0.6)]
    )
    def test_half_nodes_match_full_grid(self, poles, gamma, r):
        # figures above roundoff agree to 1e-9; roundoff-sized ones stay so
        kernel = AnticausalKernel(poles)
        w = line_witness(kernel, gamma, r)
        got = (w.causality_defect, w.orthogonality_residual)
        for a, b in zip(got, line_witness_full_grid(kernel, gamma, r)):
            if b >= 1e-12:
                assert a == pytest.approx(b, rel=1e-9)
            else:
                assert a < 1e-12

    def test_rejects_grid_beyond_budget(self):
        # poles 30x apart: the step follows the fast pole, the ringing the
        # slow one, and gamma = 1000 needs ~2^28 samples; the size check runs
        # before any array is allocated
        with pytest.raises(ValueError, match="budget"):
            line_witness(AnticausalKernel((0.1, 3.0), (1.0,)), 1000.0, 4.0)


def test_predictor_imports_no_full_grid_path():
    # the predictor stays on nodes 0..n/2: nothing it imports mirrors a half
    # spectrum onto n nodes or transforms samples
    from pathlib import Path

    from specpredict import predictor

    tree = ast.parse(Path(predictor.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "transfer" in imported
    assert not imported & {"_mirror", "forward_transform"}
    # nor does it build n-node time or frequency nodes
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert not called & {"times", "omegas"}


# sha256 of repr() of each tuple of figures below, taken while each module
# still weighted its own sums over nodes 0..n/2: moving them onto
# spectral._half_sum and _log_half_sum moves no bit
HALF_SUM_DIGESTS = {
    "orthogonality_residual": "60a39a551a038103dee8c2f5565994092ee160106c21fe3318eef9e5576b36fd",
    "line_witness": "6ff05754de3ea46e4c9802e8812bb87d8050266939604304b079b5fb491f8b5a",
    "lemma_check": "e344249835770af8ea19e8ddee7e0ff6c8ceeac5e3ccd1f76ffce5096f392222",
}


def _digest(figures) -> str:
    return hashlib.sha256(repr(figures).encode()).hexdigest()


class TestHalfSumFiguresUnchanged:
    def test_orthogonality_residual_at_the_criteria_configs(self):
        grid = default_grid()
        residuals = tuple(
            orthogonality_residual(build_predictor(DEFAULT_KERNEL, g, DEFAULT_R, grid))
            for g in DEFAULT_GAMMAS
        )
        assert _digest(residuals) == HALF_SUM_DIGESTS["orthogonality_residual"]

    def test_line_witness_at_the_criteria_configs(self):
        witnesses = tuple(line_witness(DEFAULT_KERNEL, g, DEFAULT_R) for g in DEFAULT_GAMMAS)
        assert _digest(witnesses) == HALF_SUM_DIGESTS["line_witness"]

    def test_lemma_low_band_nodes(self):
        # from the whole half grid (gamma = 0.01, r = 4: node n/2 is in the
        # band) down to 74 nodes
        grid = default_grid()
        configs = [(0.01, DEFAULT_R, DEFAULT_CLASS), (1.0, DEFAULT_R, DEFAULT_CLASS)]
        configs += [(g, 0.6, DegeneracyClass(5.0, 1.0)) for g in (0.01, 1.0, 3.0, 10.0, 30.0)]
        reports = tuple(
            lemma_check(build_predictor(DEFAULT_KERNEL, g, r, grid), cls) for g, r, cls in configs
        )
        assert [rep.low_band_nodes for rep in reports] == [65535, 208, 830, 208, 150, 104, 74]
        assert _digest(reports) == HALF_SUM_DIGESTS["lemma_check"]
