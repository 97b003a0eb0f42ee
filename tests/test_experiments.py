import ast
import dataclasses
import hashlib
import math
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    GeneratorConfig,
    SpectralSeries,
    TimeSeries,
    build_predictor,
    class_norm,
    counterexample_experiment,
    gamma_sweep,
    lemma_check,
    make_class_ensemble,
    make_grid,
    nonpredictability_demo,
    norm,
    orthogonality_residual,
    predict,
    prediction_error,
    robustness_experiment,
    sample_bandlimited,
    sample_class_member,
    transfer,
    uniformity_check,
)
from specpredict import experiments, predictor, signals
from specpredict.signals import _noise_spectrum
from specpredict.spectral import _half_omegas, _half_sum, _log_abs, _log_half_sum, irfft_rows
from specpredict.tolerances import CALIBRATION

from oracles import (
    build_predictor_full_grid,
    enveloped_members_batched,
    enveloped_spectra_batched,
    error_channel_batched,
    gamma_sweep_reference,
    hermitian_full,
    inverse_transform_n_node,
    centred_l2,
    irfft_stack,
    member_half_spectra,
    one_pole_error_log,
    row_norms_linalg,
    sweep_rows_stacked,
    transfer_full_grid,
    uniformity_check_stacked,
)

GRID = make_grid(2**12, 0.02)
# finite doubles and subnormals beside signed zeros, infinities and NaN
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan]),
)
KERNEL = AnticausalKernel((1.0,), (1.0,))
CLS = DegeneracyClass(2.0, 1.0)


def cfg(seed=0, **kw):
    return GeneratorConfig(seed=seed, grid=GRID, **kw)


@pytest.fixture(scope="module")
def ensemble():
    return make_class_ensemble(CLS, cfg(2026), 4)


def _ulps(a, b) -> int:
    """Units in the last place between two positive doubles."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


class TestPredictionError:
    def test_zero_signal(self):
        pt = build_predictor(KERNEL, 10.0, 4.0, GRID)
        err = prediction_error(pt, TimeSeries(GRID, np.zeros(GRID.n)))
        assert dataclasses.astuple(err) == (0.0, 0.0, 0.0, 0.0)

    def test_identity_transfer_gives_zero_error(self):
        pt = build_predictor(KERNEL, 10.0, 4.0, GRID)
        fake = dataclasses.replace(pt, khat_values=transfer(KERNEL, GRID))
        rng = np.random.Generator(np.random.Philox(1))
        x = TimeSeries(GRID, rng.standard_normal(GRID.n))
        err = prediction_error(fake, x)
        assert err.err_l2_abs < 1e-13 * norm(x, 2)

    def test_sup_norm_equals_sweep(self, ensemble):
        x = ensemble[0]
        row = gamma_sweep(KERNEL, CLS, (10.0,), 4.0, [x]).rows[0]
        err = prediction_error(build_predictor(KERNEL, 10.0, 4.0, GRID), x)
        assert (err.err_sup_abs, err.err_sup_rel) == (row.err_sup_abs, row.err_sup_rel)

    @settings(max_examples=25, deadline=None)
    @given(
        poles=st.lists(st.sampled_from([0.3, 0.5, 1.0, 1.2, 2.0, 3.5]), min_size=1, max_size=3, unique=True),
        data=st.data(),
        gamma=st.floats(3.0, 300.0),
        q=st.floats(1.5, 5.0),
        r_above_min=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**32 - 1),
        as_samples=st.booleans(),
    )
    def test_equals_the_one_member_sweep(self, poles, data, gamma, q, r_above_min, seed, as_samples):
        # prediction_error is the sweep's member step: a SpectralSeries is
        # read as stored and a TimeSeries through _member_spectrum, and each
        # field equals the one-member sweep row's bit for bit
        numerator = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=len(poles)))
        kernel = AnticausalKernel(tuple(poles), tuple(numerator))
        cls = DegeneracyClass(q, 1.0)
        r = cls.min_sharpness_exponent + r_above_min
        x = sample_class_member(cls, cfg(seed))
        if as_samples:
            x = TimeSeries(GRID, x.samples)
        row = gamma_sweep(kernel, cls, (gamma,), r, [x]).rows[0]
        err = prediction_error(build_predictor(kernel, gamma, r, GRID), x)
        want = (row.err_l2_abs, row.err_l2_rel, row.err_sup_abs, row.err_sup_rel)
        assert np.array(dataclasses.astuple(err)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 4096])
    def test_l2_equals_the_centred_order_sum(self, n):
        # the l2 norms square and sum the inverse in natural order; from
        # n = 256 the pairwise sum's top split falls at n/2, so the bits are
        # those of the centred order, and below it numpy's eight sequential
        # accumulators may round the last unit differently (4 ulps allowed)
        ulps = 0 if n >= 256 else 4
        grid = make_grid(n, 0.5)
        members = make_class_ensemble(CLS, GeneratorConfig(seed=1, grid=grid), 3)
        X = member_half_spectra(members)
        gammas = (3.0, 10.0, 30.0)
        rows = gamma_sweep(KERNEL, CLS, gammas, 4.0, members).rows
        for gamma, row in zip(gammas, rows):
            pt = build_predictor(KERNEL, gamma, 4.0, grid)
            l2 = centred_l2((pt.khat_values - pt.k_values) * X, grid)
            rel = l2 / centred_l2(pt.k_values * X, grid)
            assert np.all(l2 > 0.0)
            for x, want_abs, want_rel in zip(members, l2, rel):
                err = prediction_error(pt, x)
                assert _ulps(err.err_l2_abs, want_abs) <= ulps and _ulps(err.err_l2_rel, want_rel) <= ulps
            assert _ulps(row.err_l2_abs, np.max(l2)) <= ulps and _ulps(row.err_l2_rel, np.max(rel)) <= ulps

    def test_rejects_non_real_member(self, ensemble):
        # the series type holds real samples only, so no complex member
        # reaches prediction_error
        with pytest.raises(ValueError, match="real"):
            TimeSeries(GRID, ensemble[0].samples * 1j)

    def test_rejects_member_on_another_grid(self, ensemble):
        pt = build_predictor(KERNEL, 10.0, 4.0, make_grid(GRID.n, 0.01))
        with pytest.raises(ValueError, match="grid"):
            prediction_error(pt, ensemble[0])


def _band_split_of(pt, x, rho):
    """The sweep's band split of the error channel (K_hat - K) X of member x."""
    return experiments._band_split((pt.khat_values - pt.k_values) * x.spectrum, GRID, pt.omega_threshold, rho)


class TestBandSplit:
    def test_partition_identity(self, ensemble):
        pt = build_predictor(KERNEL, 5.0, 4.0, GRID)
        khat = build_predictor_full_grid(KERNEL, 5.0, 4.0, GRID).khat_values
        for rho in (2, 1):
            i1, i2 = _band_split_of(pt, ensemble[0], rho)
            X = hermitian_full(ensemble[0].spectrum)
            K = transfer_full_grid(KERNEL, GRID)
            total = GRID.delta_omega * float(np.sum(np.abs((khat - K) * X) ** rho))
            assert i1 + i2 == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize("rho", [2, 1])
    def test_subresolution_band_gives_zero_low_part(self, ensemble, rho):
        # threshold below the first node: only the origin is inside, where
        # members carry an exact zero
        pt = build_predictor(KERNEL, 100.0, 4.0, GRID)
        assert pt.omega_threshold < GRID.delta_omega
        i1, _ = _band_split_of(pt, ensemble[0], rho)
        assert i1 == 0.0

    def test_parseval_bridge(self, ensemble):
        # 2 pi * (time-domain L2 error)^2 equals the rho=2 spectral measure
        pt = build_predictor(KERNEL, 5.0, 4.0, GRID)
        khat = build_predictor_full_grid(KERNEL, 5.0, 4.0, GRID).khat_values
        x = ensemble[0]
        X = hermitian_full(x.spectrum)
        K = transfer_full_grid(KERNEL, GRID)
        diff = inverse_transform_n_node((khat - K) * X, GRID)
        i1, i2 = _band_split_of(pt, x, 2)
        assert 2 * math.pi * norm(TimeSeries(GRID, diff.real), 2) ** 2 == pytest.approx(i1 + i2, rel=1e-6)


class TestErrorIdentities:
    """Identities the error figures keep on any grid, kernel and gamma."""

    @staticmethod
    def member(n, seed):
        return sample_class_member(CLS, GeneratorConfig(seed=seed, grid=make_grid(n, 0.02)))

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.sampled_from([256, 512, 1024, 2048, 4096]),
        poles=st.lists(st.sampled_from([0.3, 0.5, 1.0, 1.2, 2.0, 3.5]), min_size=1, max_size=3, unique=True),
        gamma=st.floats(1.0, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parseval_splits_the_l2_error_into_the_bands(self, n, poles, gamma, seed):
        # the time-domain l2 error and the spectral band split i1 + i2 of a
        # one-member sweep measure one quantity: 2 pi ||e||^2 = i1 + i2
        row = gamma_sweep(AnticausalKernel(tuple(poles)), CLS, (gamma,), 2.5, [self.member(n, seed)]).rows[0]
        lhs, rhs = 2.0 * math.pi * row.err_l2_abs**2, row.i1 + row.i2
        assert (lhs == 0.0) == (rhs == 0.0)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.sampled_from([256, 1024, 4096]),
        poles=st.lists(st.sampled_from([0.3, 0.5, 1.0, 1.2, 2.0, 3.5]), min_size=1, max_size=3, unique=True),
        gamma=st.floats(1.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaling_the_member_by_four_is_exact(self, n, poles, gamma, seed):
        # a power of two scales every product and square root exactly: the
        # absolute figures scale by 4 bit for bit and the relative ones stay
        x = self.member(n, seed)
        pt = build_predictor(AnticausalKernel(tuple(poles)), gamma, 2.5, x.grid)
        err = prediction_error(pt, x)
        err4 = prediction_error(pt, SpectralSeries(x.grid, 4 * x.spectrum))
        want = (4 * err.err_l2_abs, err.err_l2_rel, 4 * err.err_sup_abs, err.err_sup_rel)
        assert np.array(dataclasses.astuple(err4)).tobytes() == np.array(want).tobytes()


class TestGammaSweep:
    def test_rejects_inadmissible_r(self, ensemble):
        with pytest.raises(ValueError, match=r"r > 2/\(q-1\)"):
            gamma_sweep(KERNEL, CLS, (10.0,), 2.0, ensemble)
        # strictness: barely above passes
        gamma_sweep(KERNEL, CLS, (10.0,), 2.01, ensemble)

    def test_rejects_empty_inputs(self, ensemble):
        with pytest.raises(ValueError):
            gamma_sweep(KERNEL, CLS, (), 4.0, ensemble)
        with pytest.raises(ValueError):
            gamma_sweep(KERNEL, CLS, (10.0,), 4.0, [])

    def test_zero_ensemble_gives_zero_errors(self):
        zero = [TimeSeries(GRID, np.zeros(GRID.n))]
        rep = gamma_sweep(KERNEL, CLS, (10.0, 30.0), 4.0, zero)
        assert all(row.err_l2_abs == 0.0 and row.err_sup_abs == 0.0 for row in rep.rows)

    def test_rows_sorted_and_errors_shrink(self, ensemble):
        rep = gamma_sweep(KERNEL, CLS, (30.0, 10.0, 100.0), 4.0, ensemble)
        gammas = [row.gamma for row in rep.rows]
        assert gammas == sorted(gammas)
        jitter = 1.05
        for a, b in zip(rep.rows, rep.rows[1:]):
            assert b.err_l2_rel <= a.err_l2_rel * jitter
            assert b.err_sup_rel <= a.err_sup_rel * jitter
        assert rep.rows[-1].err_l2_rel <= 0.1 * rep.rows[0].err_l2_rel

    def test_matches_complex_per_member_reference(self, ensemble):
        gammas = (10.0, 30.0, 100.0, 300.0, 1000.0)
        rows = gamma_sweep(KERNEL, CLS, gammas, 4.0, ensemble).rows
        reference = gamma_sweep_reference(KERNEL, CLS, gammas, 4.0, ensemble)
        assert len(rows) == len(reference)
        for row, ref in zip(rows, reference):
            for name, want in ref.items():
                got = getattr(row, name)
                if isinstance(want, bool):
                    assert got is want, (row.gamma, name)
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (row.gamma, name)

    def test_generator_gammas_read_once(self, ensemble):
        rows = gamma_sweep(KERNEL, CLS, (g for g in (30.0, 10.0)), 4.0, ensemble).rows
        assert rows == gamma_sweep(KERNEL, CLS, (10.0, 30.0), 4.0, ensemble).rows
        with pytest.raises(ValueError, match=r"^gamma must be a finite real number in \(0\.0, inf\), got -1\.0$"):
            gamma_sweep(KERNEL, CLS, (g for g in (-1.0,)), 4.0, ensemble)

    @pytest.mark.parametrize("s", [2.0, 0.5, 3.0])
    def test_time_scale_covariance(self, s):
        # slowing time by s maps the poles to a/s, delta_t to s delta_t, the
        # class weight c/|omega|^q to c s^-q/|omega|^q and gamma^-r to
        # s gamma^-r, i.e. r to r + ln s/ln gamma: V is unchanged at the
        # scaled nodes and K = 1/(z - a) is multiplied by s, so relative
        # errors, the residual and the lemma's figures (its tail floor, half
        # the pole, scales by 1/s) keep their value and gains scale by s: the
        # log sup shifts by ln s, and the stored sup does too where no node is
        # clamped at e^700 (gamma 3 and 5) and reads e^700 on both sides
        # where one is (gamma 10).  A power of two scales the grid exactly;
        # s = 3 rounds every node.  r = 3 keeps r + ln s/ln gamma admissible
        # (> 2) at s = 0.5 and gamma 3
        q, c, r = 2.0, 1.0, 3.0
        rel, gain_rel = (1e-15, 1e-13) if math.log2(s).is_integer() else (1e-12, 1e-12)

        def run(scale):
            grid = make_grid(4096, 0.05 * scale)
            kernel = AnticausalKernel((0.5 / scale,))
            cls = DegeneracyClass(q, c * scale**-q)
            ensemble = make_class_ensemble(cls, GeneratorConfig(seed=11, grid=grid), 4)
            rows = [
                gamma_sweep(kernel, cls, (g,), r + math.log(scale) / math.log(g), ensemble).rows[0]
                for g in (3.0, 5.0, 10.0)
            ]
            pts = [
                build_predictor(kernel, g, r + math.log(scale) / math.log(g), grid)
                for g in (3.0, 10.0, 30.0, 300.0)
            ]
            residuals = [orthogonality_residual(pt) for pt in pts]
            lemmas = [lemma_check(pt, cls) for pt in pts]
            split = [counterexample_experiment(0.5 / scale, kernel, (pt.gamma,), grid, pt.r).rows[0] for pt in pts]
            log_sups = [float(np.max(pt.khat_log_mag)) for pt in pts]
            return rows, residuals, lemmas, split, log_sups

        (rows, residuals, lemmas, split, log_sups), scaled_run = run(1.0), run(s)
        scaled_rows, scaled_residuals, scaled_lemmas, scaled_split, scaled_log_sups = scaled_run
        assert [row.kappa_sup == math.exp(700) for row in rows] == [False, False, True]
        for row, scaled in zip(rows, scaled_rows):
            assert scaled.err_l2_rel == pytest.approx(row.err_l2_rel, rel=rel, abs=0.0), row.gamma
            assert scaled.err_sup_rel == pytest.approx(row.err_sup_rel, rel=rel, abs=0.0), row.gamma
            if row.gamma < 10.0:
                assert scaled.kappa_sup == pytest.approx(s * row.kappa_sup, rel=gain_rel, abs=0.0), row.gamma
            else:
                assert scaled.kappa_sup == row.kappa_sup == math.exp(700)
            assert scaled.i1 == pytest.approx(s * row.i1, rel=gain_rel, abs=0.0), row.gamma
            assert scaled.lemma_pass_high_band is row.lemma_pass_high_band
            assert scaled.lemma_pass_low_band is row.lemma_pass_low_band
        assert [row.i1 > 0.0 for row in rows] == [True, True, False]
        for log_sup, scaled in zip(log_sups, scaled_log_sups):
            assert scaled == pytest.approx(log_sup + math.log(s), rel=rel, abs=0.0)
        for scaled, residual in zip(scaled_residuals, residuals):
            assert scaled == pytest.approx(residual, rel=rel, abs=0.0)
        assert [rep.low_band_nodes for rep in lemmas] == [8, 0, 0, 0]
        for rep, scaled in zip(lemmas, scaled_lemmas):
            for flag in ("pass_positivity", "pass_factor_dev", "pass_low_band", "low_band_nodes"):
                assert getattr(scaled, flag) == getattr(rep, flag), (rep.gamma, flag)
            assert scaled.tail_dev_max == pytest.approx(rep.tail_dev_max, rel=1e-12, abs=0.0), rep.gamma
            assert scaled.low_band_margin == pytest.approx(rep.low_band_margin, rel=1e-12, abs=0.0), rep.gamma
        # the split's sides are unchanged at the scaled nodes and delta_omega
        # falls by s, so every squared error and both sides of the energy
        # identity gain a factor s
        for row, scaled in zip(split, scaled_split):
            for name in ("e1_sq_log", "e2_sq_log", "identity_lhs_log", "identity_rhs_log"):
                want = getattr(row, name) + math.log(s)
                assert getattr(scaled, name) == pytest.approx(want, rel=rel, abs=0.0), (row.gamma, name)
            assert (scaled.identity_ok, scaled.floor_ok) == (row.identity_ok, row.floor_ok)

    @settings(max_examples=40, deadline=None)
    @given(
        pole=st.floats(-1.5, 0.5).map(lambda e: 10.0**e),
        gamma=st.floats(math.log10(1.2), 2.0).map(lambda e: 10.0**e),
        r=st.floats(2.1, 5.0),
        s=st.floats(-0.6, 0.6).map(lambda e: 10.0**e),
    )
    # a fixed tail floor of 0.5 read 0.6353 here and 9.0029 once rescaled
    @example(pole=2.863, gamma=1.534, r=3.419, s=0.608)
    def test_time_scale_covariance_property(self, pole, gamma, r, s):
        # the covariance above at random (pole, gamma, r, s) on 256 nodes:
        # relative figures, the lemma's tail deviation and flags keep their
        # value and the log sup of K_hat shifts by ln s.  The error channel
        # is formed as K_hat - K, so a relative error carries an absolute
        # rounding of about one unit roundoff (5.3e-17 at worst over 1,863
        # draws): abs=2e-16
        assume(r + math.log(s) / math.log(gamma) > 2.0)

        def run(scale):
            grid = make_grid(256, 0.05 * scale)
            kernel, cls = AnticausalKernel((pole / scale,)), DegeneracyClass(2.0, scale**-2.0)
            ensemble = make_class_ensemble(cls, GeneratorConfig(seed=3, grid=grid), 2)
            scaled_r = r + math.log(scale) / math.log(gamma)
            pt = build_predictor(kernel, gamma, scaled_r, grid)
            return gamma_sweep(kernel, cls, (gamma,), scaled_r, ensemble).rows[0], float(np.max(pt.khat_log_mag))

        (row, log_sup), (scaled, scaled_log_sup) = run(1.0), run(s)
        for name in ("err_l2_rel", "err_sup_rel", "causality_defect"):
            assert getattr(scaled, name) == pytest.approx(getattr(row, name), rel=1e-12, abs=2e-16), name
        assert scaled.lemma_tail_dev == pytest.approx(row.lemma_tail_dev, rel=1e-12, abs=0.0)
        assert scaled.lemma_pass_high_band is row.lemma_pass_high_band
        assert scaled.lemma_pass_low_band is row.lemma_pass_low_band
        assert scaled_log_sup == pytest.approx(log_sup + math.log(s), rel=1e-12, abs=0.0)

    def test_metadata_recorded(self, ensemble):
        rep = gamma_sweep(KERNEL, CLS, (10.0,), 4.0, ensemble, metadata={"seed": 2026})
        assert rep.sweep_metadata["kernel"] == {"poles": [1.0], "numerator": [1.0]}
        assert rep.sweep_metadata["class"] == {"q": 2.0, "c": 1.0}
        assert rep.sweep_metadata["seed"] == 2026


class TestUniformity:
    def test_singleton_ratio(self, ensemble):
        x = ensemble[0]
        ratios = uniformity_check(KERNEL, CLS, 10.0, 4.0, [x])
        khat = build_predictor_full_grid(KERNEL, 10.0, 4.0, GRID).khat_values
        X = hermitian_full(x.spectrum)
        K = transfer_full_grid(KERNEL, GRID)
        err = TimeSeries(GRID, inverse_transform_n_node((khat - K) * X, GRID).real)
        size = class_norm(x, CLS)
        assert ratios == pytest.approx((norm(err, 2) / size, norm(err, math.inf) / size))

    def test_scaling_invariance(self, ensemble):
        x = ensemble[0]
        doubled = TimeSeries(GRID, 2.0 * x.samples)
        r1 = uniformity_check(KERNEL, CLS, 10.0, 4.0, [x])
        r2 = uniformity_check(KERNEL, CLS, 10.0, 4.0, [doubled])
        assert r2 == pytest.approx(r1, rel=1e-9)

    def test_ratio_shrinks_with_gamma(self, ensemble):
        r10, _ = uniformity_check(KERNEL, CLS, 10.0, 4.0, ensemble)
        r30, _ = uniformity_check(KERNEL, CLS, 30.0, 4.0, ensemble)
        assert r30 < r10 / 100

    def test_rejects_nonmember(self):
        rng = np.random.Generator(np.random.Philox(3))
        white = TimeSeries(GRID, rng.standard_normal(GRID.n))
        with pytest.raises(ValueError, match="ensemble member has infinite class norm"):
            uniformity_check(KERNEL, CLS, 10.0, 4.0, [white])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="nonempty"):
            uniformity_check(KERNEL, CLS, 10.0, 4.0, [])

    def test_each_member_is_transformed_at_most_once(self, ensemble, monkeypatch):
        # the class norm and the error channel read one half spectrum: a
        # member that arrives as samples is transformed once, a generated
        # one never; the ratios are those of the stacked form bit for bit
        resampled = [TimeSeries(GRID, x.samples) for x in ensemble]
        halves = [SpectralSeries(GRID, experiments._member_half(x, GRID)) for x in resampled]
        want = uniformity_check_stacked(KERNEL, CLS, 10.0, 4.0, halves)
        calls = []
        real = experiments.forward_transform
        monkeypatch.setattr(experiments, "forward_transform", lambda x: calls.append(type(x)) or real(x))
        got = uniformity_check(KERNEL, CLS, 10.0, 4.0, resampled)
        assert calls == [TimeSeries] * len(resampled)
        assert repr(got) == repr(want)
        calls.clear()
        uniformity_check(KERNEL, CLS, 10.0, 4.0, ensemble)
        assert calls == []


class TestRobustness:
    KER = AnticausalKernel((0.01,), (1.0,))
    CLS5 = DegeneracyClass(5.0, 1.0)

    @pytest.fixture(scope="class")
    @classmethod
    def x0(cls, request):
        return sample_class_member(cls.CLS5, cfg(424242))

    def test_zero_noise_row_matches_clean(self, x0):
        rep = robustness_experiment(self.KER, 30.0, 0.6, x0, [0.0], cfg(424242))
        row = rep.rows[0]
        assert row.err_sup_noisy == pytest.approx(rep.eps_clean, abs=1e-30)
        assert row.holds
        assert rep.eps_clean <= row.j0

    def test_bound_arithmetic(self):
        # eps + nu * (kappa + 1): 0.02 + 0.1 * 4 = 0.42
        assert 0.02 + 0.1 * (3 + 1) == pytest.approx(0.42)

    def test_bound_holds_for_all_rows(self, x0):
        rep = robustness_experiment(self.KER, 100.0, 0.6, x0, [0.01, 0.05, 0.1], cfg(424242))
        assert all(row.holds for row in rep.rows)
        assert not rep.saturated

    def test_gain_tradeoff_between_sharpness_levels(self, x0):
        lo = robustness_experiment(self.KER, 30.0, 0.6, x0, [0.05], cfg(424242))
        hi = robustness_experiment(self.KER, 1000.0, 0.6, x0, [0.05], cfg(424242))
        assert hi.rows[0].err_sup_noisy > lo.rows[0].err_sup_noisy
        assert hi.kappa_sup > lo.kappa_sup

    def test_rejects_negative_intensity(self, x0):
        with pytest.raises(ValueError, match=r"^noise intensity must be a finite real number in \[0\.0, inf\), got -0\.01$"):
            robustness_experiment(self.KER, 30.0, 0.6, x0, [-0.01], cfg(1))

    def test_one_inverse_transform_per_row(self, x0, monkeypatch):
        # the clean channel and one noisy error per row; j0 and j_eta come
        # from the half spectra
        calls = []
        real = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or real(*a, **k))
        nus = [0.0, 0.01, 0.05]
        robustness_experiment(self.KER, 30.0, 0.6, x0, nus, cfg(424242))
        assert len(calls) == 1 + len(nus)

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_rejects_non_finite_intensity(self, x0, nu):
        # rejected up front, before the predictor is built or any noise drawn
        with pytest.raises(ValueError, match=rf"^noise intensity must be a finite real number in \[0\.0, inf\), got {nu}$"):
            robustness_experiment(self.KER, 30.0, 0.6, x0, [0.0, nu], cfg(1))

    def test_rejects_noise_band_without_a_node(self, x0, monkeypatch):
        # [1.0, 1.05] falls between nodes 13 and 14 (delta_omega ~ 0.0767):
        # flat noise there would divide by a node count of 0
        assert not np.any((GRID.omegas() >= 1.0) & (GRID.omegas() <= 1.05))
        monkeypatch.setattr(experiments, "build_predictor", lambda *a: pytest.fail("predictor built"))
        with pytest.raises(ValueError, match=r"^noise band \(1\.0, 1\.05\) holds no node of the grid$"):
            robustness_experiment(self.KER, 30.0, 0.6, x0, [0.0, 0.05], cfg(424242, band=(1.0, 1.05)))


class TestCounterexample:
    def test_zero_predictor_limit(self, monkeypatch):
        # with K_hat = 0 (V - 1 = -1) the identity collapses to
        # 2 pi (e1^2 + e2^2) = ||K||^2, and each e is the l2 norm of K applied,
        # in time, to its side of a unit-modulus spectrum of any phase
        from specpredict import apply_anticausal

        monkeypatch.setattr(experiments, "v_minus_one", lambda om, *a: (np.zeros(om.shape), np.full(om.shape, -1.0)))
        row = counterexample_experiment(0.5, KERNEL, (10.0,), GRID, r=4.0).rows[0]
        k = np.arange(GRID.n // 2 + 1)
        unit = np.exp(0.1j * k**2)
        unit[[0, -1]] = 1.0
        inner = np.abs(_half_omegas(GRID)) < 0.5
        for e, side in ((row.e1, inner), (row.e2, ~inner)):
            x = TimeSeries(GRID, SpectralSeries(GRID, np.where(side, unit, 0.0)).samples)
            assert e == pytest.approx(norm(apply_anticausal(KERNEL, x), 2), rel=1e-9)
        norm_k_sq = GRID.delta_omega * _half_sum(np.abs(transfer(KERNEL, GRID)) ** 2, GRID)
        assert 2 * math.pi * (row.e1**2 + row.e2**2) == pytest.approx(norm_k_sq, rel=1e-12)
        assert row.identity_lhs == pytest.approx(row.identity_rhs, rel=1e-12)

    def test_identity_and_floor_across_sweep(self):
        rep = counterexample_experiment(0.5, KERNEL, (10.0, 100.0, 1000.0), GRID, r=4.0)
        for row in rep.rows:
            assert row.identity_ok
            assert row.identity_rel_gap <= 0.05
            assert row.floor_ok
        assert rep.no_gamma_predicts_both

    def test_meaningful_identity_at_representable_config(self):
        # gains stay in range, orthogonality is genuine, identity is nontrivial
        g = make_grid(2**17, 0.01)
        kern = AnticausalKernel((0.01,), (1.0,))
        rep = counterexample_experiment(0.5, kern, (10.0, 30.0), g, r=0.6)
        for row in rep.rows:
            assert row.identity_ok
            assert orthogonality_residual(build_predictor(kern, row.gamma, 0.6, g)) < 1e-2
            assert math.isfinite(row.e1) and math.isfinite(row.e2)
            assert row.floor_ok

    def test_energy_identity_carries_the_cross_term(self):
        # |X1|^2 + |X2|^2 = 1 at every node, so 2 pi (e1^2 + e2^2) is
        # ||K_hat - K||^2 = ||K||^2 + ||K_hat||^2 - 2 Re <K, K_hat> exactly:
        # identity_rel_gap measures the grid's cross term alone
        g = make_grid(2**17, 0.01)
        kern = AnticausalKernel((0.01,), (1.0,))
        rep = counterexample_experiment(0.5, kern, (10.0, 30.0), g, r=0.6)
        for row in rep.rows:
            pt = build_predictor(kern, row.gamma, 0.6, g)
            cross = 2.0 * g.delta_omega * _half_sum((np.conj(pt.k_values) * pt.khat_values).real, g)
            assert row.identity_lhs == pytest.approx(row.identity_rhs - cross, rel=1e-12, abs=0.0)
            assert row.identity_rel_gap > 1e-6

    def test_complement_error_is_read_on_its_own_support(self):
        # x2 is zero at the saturated degeneracy node; its exact spectrum
        # keeps that zero, so e2 stays small while e1 carries the saturation
        rep = counterexample_experiment(0.5, KERNEL, (10.0, 30.0), GRID, r=4.0)
        for row in rep.rows:
            assert row.e2_sq_log < 0.0 < row.e1_sq_log
            assert row.identity_ok and row.floor_ok

    @pytest.mark.parametrize("gamma", [10.0, 30.0, 100.0, 300.0, 1000.0])
    def test_one_pole_complement_error_closed_form(self, gamma):
        # for one pole V - 1 = -e^{w}, so log|K_hat - K| is Re w + log|K| at
        # every node, and e2^2 is the log half sum of twice that over the
        # nodes with |omega| >= a, bit for bit up to gamma 300; at gamma 1000
        # e^{w} lies below the normal range on the tail, where v_minus_one
        # lifts it by its own scale, and e2_sq_log meets the closed form
        # -2001.048241547996 to rounding
        grid, kernel, r = experiments.default_grid(), experiments.DEFAULT_KERNEL, experiments.DEFAULT_R
        row = counterexample_experiment(0.5, kernel, (gamma,), grid, r=r).rows[0]
        re_w = predictor.factor_exponent(1j * _half_omegas(grid), kernel.poles[0], gamma, r).real
        log_terms = 2.0 * (re_w + _log_abs(transfer(kernel, grid)))
        log_terms[np.abs(_half_omegas(grid)) < 0.5] = -np.inf
        want = _log_half_sum(log_terms, grid) + math.log(grid.delta_omega) - math.log(2 * math.pi)
        assert row.e2_sq_log == (want if gamma < 1000.0 else pytest.approx(want, rel=1e-12, abs=0.0))

    def test_identity_holds_where_the_shift_passes_e709(self):
        # from gamma near 1417 v_minus_one's shift b falls below -709 on the
        # tail, where e^{-s} overflows; log|K_hat| reads t = max(s, 0) there
        rep = counterexample_experiment(0.5, AnticausalKernel((0.01,), (1.0,)), (2000.0, 5000.0), GRID, r=0.6)
        for row in rep.rows:
            assert math.isfinite(row.identity_rhs_log) and math.isfinite(row.e2_sq_log)
            assert row.identity_ok and row.floor_ok

    def test_generator_gammas_read_once(self):
        rep = counterexample_experiment(0.5, KERNEL, (g for g in (100.0, 10.0)), GRID, r=4.0)
        assert rep.rows == counterexample_experiment(0.5, KERNEL, (10.0, 100.0), GRID, r=4.0).rows
        with pytest.raises(ValueError, match="nonempty"):
            counterexample_experiment(0.5, KERNEL, (g for g in ()), GRID, r=4.0)

    @pytest.mark.parametrize("a", [GRID.omega_max + 1, 0.0, -0.5])
    def test_rejects_bad_split(self, a):
        # the split is checked first, before the gammas
        message = f"split frequency a must be a finite real number in (0.0, {GRID.omega_max}), got {a!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            counterexample_experiment(a, KERNEL, (), GRID)


class TestNegativeDemo:
    def test_rejects_q_bad_outside_open_interval(self):
        for q_bad in (1.0, 0.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                nonpredictability_demo(q_bad, 1.0, KERNEL, (10.0,), cfg(1), r=2.5)
        # 0.99 is accepted
        nonpredictability_demo(0.99, 1.0, KERNEL, (3.0,), cfg(1), r=2.5, size=1)

    def test_rejects_bad_c_via_class(self):
        with pytest.raises(ValueError):
            nonpredictability_demo(0.5, -1.0, KERNEL, (10.0,), cfg(1), r=2.5)

    def test_generator_gammas_read_once(self):
        def demo(gammas):
            return nonpredictability_demo(0.5, 1.0, KERNEL, gammas, cfg(1), r=2.5, size=1)

        assert demo(g for g in (10.0, 3.0)).rows == demo((3.0, 10.0)).rows
        with pytest.raises(ValueError, match=r"^gamma must be a finite real number in \(0\.0, inf\), got -1\.0$"):
            demo(g for g in (-1.0,))

    def test_slow_degeneracy_error_floor(self):
        g = make_grid(2**16, 0.01)
        kern = AnticausalKernel((0.5,), (1.0,))
        rep = nonpredictability_demo(
            0.5, 1.0, kern, (10.0, 30.0), GeneratorConfig(seed=77, grid=g), r=2.5, size=2
        )
        assert rep.label == "ILLUSTRATIVE"
        assert rep.final_ratio >= 10.0
        final = rep.rows[-1]
        assert final.err_rel_slow >= 10 * final.err_rel_reference


class TestDeterminism:
    def test_sweep_reports_are_bit_identical(self, ensemble):
        a = gamma_sweep(KERNEL, CLS, (10.0, 30.0), 4.0, ensemble)
        b = gamma_sweep(KERNEL, CLS, (10.0, 30.0), 4.0, ensemble)
        assert a.rows == b.rows

    def test_robustness_reports_are_bit_identical(self):
        x0 = sample_class_member(DegeneracyClass(5.0, 1.0), cfg(424242))
        a = robustness_experiment(AnticausalKernel((0.01,), (1.0,)), 30.0, 0.6, x0, [0.05], cfg(424242))
        b = robustness_experiment(AnticausalKernel((0.01,), (1.0,)), 30.0, 0.6, x0, [0.05], cfg(424242))
        assert a.rows == b.rows and a.eps_clean == b.eps_clean


class TestMixedEnsembleUniformity:
    def test_worst_ratio_shrinks_for_mixed_members(self):
        # class members plus band-limited members with a degeneracy gap
        from specpredict import sample_bandlimited

        gapped = cfg(9, band=(0.5, 2.0))
        members = list(make_class_ensemble(CLS, cfg(2026), 2)) + [
            sample_bandlimited(2.0, dataclasses.replace(gapped, seed=9 + i)) for i in range(2)
        ]
        r10, _ = uniformity_check(KERNEL, CLS, 10.0, 4.0, members)
        r30, _ = uniformity_check(KERNEL, CLS, 30.0, 4.0, members)
        assert r30 < r10


class TestLazyEnsembleReads:
    """The sweep and uniformity_check read each member of an ensemble once,
    so a generated ensemble draws each member once per call."""

    def test_each_member_is_drawn_once(self, monkeypatch):
        ensemble = make_class_ensemble(CLS, cfg(2026), 4)
        seeds = []
        real = signals._generator
        monkeypatch.setattr(signals, "_generator", lambda c, stream: seeds.append(c.seed) or real(c, stream))
        gamma_sweep(KERNEL, CLS, (10.0, 30.0), 4.0, ensemble)
        assert seeds == [2026, 2027, 2028, 2029]
        seeds.clear()
        uniformity_check(KERNEL, CLS, 10.0, 4.0, ensemble)
        assert seeds == [2026, 2027, 2028, 2029]

    def test_member_is_freed_before_the_next_is_read(self, monkeypatch):
        # an itertools.chain over (member 0,) and the rest keeps member 0 to the end
        ensemble = make_class_ensemble(CLS, cfg(2026), 3)
        refs, alive = [], []
        real = experiments._member_half

        def member_half(x, grid):
            alive.append([ref() is not None for ref in refs])
            refs.append(weakref.ref(x))
            return real(x, grid)

        monkeypatch.setattr(experiments, "_member_half", member_half)
        gamma_sweep(KERNEL, CLS, (10.0, 30.0), 4.0, ensemble)
        assert alive == [[], [False], [False, False]]

    def test_member_on_another_grid_is_rejected(self, ensemble):
        other = sample_class_member(CLS, GeneratorConfig(seed=1, grid=make_grid(GRID.n, 0.01)))
        for members in ([*ensemble, other], [other, *ensemble]):
            with pytest.raises(ValueError, match="grid"):
                gamma_sweep(KERNEL, CLS, (10.0,), 4.0, members)
            with pytest.raises(ValueError, match="grid"):
                uniformity_check(KERNEL, CLS, 10.0, 4.0, members)


class TestStreamedSweep:
    """The sweep and uniformity_check take one member at a time; their
    figures do not depend on the order of the ensemble and equal the stacked
    gamma-outer forms in ``oracles`` bit for bit."""

    GAMMAS = (10.0, 30.0, 100.0, 300.0, 1000.0)

    def _rows(self, members):
        return repr(gamma_sweep(KERNEL, CLS, self.GAMMAS, 4.0, members).rows)

    def test_matches_stacked_sweep(self, ensemble):
        want = tuple(sweep_rows_stacked(KERNEL, CLS, self.GAMMAS, 4.0, ensemble))
        assert self._rows(ensemble) == repr(want)

    def test_reversed_ensemble_gives_equal_rows(self, ensemble):
        assert self._rows(ensemble[::-1]) == self._rows(ensemble)

    def _worst(self, ensemble, gamma):
        pt = build_predictor(KERNEL, gamma, 4.0, GRID)
        return ensemble[int(np.argmax([prediction_error(pt, x).err_l2_rel for x in ensemble]))]

    def test_copy_of_worst_member_leaves_rows_unchanged(self, ensemble):
        want = self._rows(ensemble)
        for gamma in self.GAMMAS:
            copy = TimeSeries(GRID, self._worst(ensemble, gamma).samples.copy())
            assert self._rows([*ensemble, copy]) == want, gamma

    def test_first_worst_member_keeps_the_band_split(self, ensemble):
        # doubling a member is exact: its relative errors tie bit for bit with
        # the original's while its band split reads 4 times as much
        gamma = self.GAMMAS[0]
        (row,) = gamma_sweep(KERNEL, CLS, (gamma,), 4.0, ensemble).rows
        doubled = TimeSeries(GRID, 2.0 * self._worst(ensemble, gamma).samples)
        (after,) = gamma_sweep(KERNEL, CLS, (gamma,), 4.0, [*ensemble, doubled]).rows
        (before,) = gamma_sweep(KERNEL, CLS, (gamma,), 4.0, [doubled, *ensemble]).rows
        assert after.err_l2_rel == before.err_l2_rel == row.err_l2_rel
        assert (after.i1, after.i2) == (row.i1, row.i2)
        assert (before.i1, before.i2) == (4.0 * row.i1, 4.0 * row.i2)
        assert before.i2 > 0.0

    @pytest.mark.parametrize("gamma", [10.0, 30.0])
    def test_uniformity_matches_stacked(self, ensemble, gamma):
        got = uniformity_check(KERNEL, CLS, gamma, 4.0, ensemble)
        want = uniformity_check_stacked(KERNEL, CLS, gamma, 4.0, ensemble)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("seed", [2026, 7])
    def test_uniformity_matches_stacked_at_default_grid(self, seed):
        # half spectra above 256 KiB, where numpy may form a product in the
        # buffer of a temporary operand, swapping the factors of a complex
        # product that is not bitwise commutative
        grid = experiments.default_grid()
        members = make_class_ensemble(CLS, GeneratorConfig(seed=seed, grid=grid), 10)
        for gamma in (10.0, 30.0):
            got = uniformity_check(KERNEL, CLS, gamma, 4.0, members)
            want = uniformity_check_stacked(KERNEL, CLS, gamma, 4.0, members)
            assert repr(got) == repr(want), gamma


class TestPredictOnSampleDefinedMembers:
    """``predict`` reads a series that arrives as samples as the error
    channel does, through ``_member_half`` and its roundoff floor."""

    @pytest.mark.parametrize("case", ["class member", "band-limited"])
    def test_predict_is_the_member_half_product(self, case):
        grid = experiments.default_grid()
        if case == "class member":
            x = sample_class_member(CLS, GeneratorConfig(seed=7, grid=grid))
        else:
            x = sample_bandlimited(2.0, GeneratorConfig(seed=3, grid=grid, band=(0.2, 2.0)))
        resampled = TimeSeries(grid, x.samples)
        pt = build_predictor(KERNEL, 10.0, 4.0, grid)
        y_hat = predict(pt, resampled).samples
        X = experiments._member_half(resampled, grid)
        assert y_hat.tobytes() == irfft_rows(pt.khat_values * X, grid).tobytes()
        # without the floor the re-transform's roundoff met the low band's
        # gain: the peaks read 1.0996e285 and 5.26e283
        exact = predict(pt, x).samples
        assert np.max(np.abs(y_hat - exact)) < 1e-12 * np.max(np.abs(exact))
        # the prediction minus the target is the error prediction_error reads
        y = irfft_rows(pt.k_values * X, grid)
        err = prediction_error(pt, resampled).err_l2_abs
        assert norm(TimeSeries(grid, y_hat - y), 2) == pytest.approx(err, rel=1e-9)


# the forward transform and the re-transform of a series that arrives as samples
RETRANSFORM = ("forward_transform", "_member_spectrum")
CLI_COMMANDS = ("predict", "sweep", "lemma", "robustness", "counterexample", "demo-negative", "gen-signal")


class TestGeneratedMembersAreNotRetransformed:
    """Generated signals give their stored spectrum: no experiment and no
    subcommand transforms their samples back, noise included."""

    @pytest.fixture(autouse=True)
    def forbid_retransform(self, monkeypatch):
        import specpredict.cli  # noqa: F401 - its bindings are patched too

        def refuse(*args, **kwargs):
            raise AssertionError("a generated signal was transformed back")

        patched = set()
        for name, module in list(sys.modules.items()):
            if name == "specpredict" or name.startswith("specpredict."):
                for attr in RETRANSFORM:
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
                        patched.add(f"{name.rsplit('.', 1)[-1]}.{attr}")
        # every binding the library makes of them, the package's included
        assert patched == {
            "spectral.forward_transform", "kernels.forward_transform",
            "experiments.forward_transform", "experiments._member_spectrum", "cli._member_spectrum",
            "cli.forward_transform", "specpredict.forward_transform",
        }

    def test_experiments(self, ensemble):
        banded = [sample_bandlimited(2.0, cfg(40 + i, band=(0.2, 2.0))) for i in range(2)]
        members = [*ensemble, *banded]
        gamma_sweep(KERNEL, CLS, (10.0, 30.0), 4.0, members)
        pt = build_predictor(KERNEL, 10.0, 4.0, GRID)
        uniformity_check(KERNEL, CLS, 10.0, 4.0, members)
        for x in (ensemble[0], banded[0]):
            prediction_error(pt, x)
            predict(pt, x)
            noise = _noise_spectrum(0.05, cfg(7, band=(1.0, 2.0)))
            predict(pt, SpectralSeries(GRID, x.spectrum + noise))
            class_norm(x, CLS)
            robustness_experiment(KERNEL, 10.0, 4.0, x, [0.0, 0.05], cfg(2026))
            robustness_experiment(KERNEL, 10.0, 4.0, x, [0.05], cfg(11, band=(1.0, 2.0)))
        counterexample_experiment(0.5, KERNEL, (10.0, 100.0), GRID)
        nonpredictability_demo(0.5, 1.0, AnticausalKernel((0.5,)), (10.0,), cfg(77), 2.5, size=1)

    def test_predict_command(self, tmp_path):
        assert self.run_command(tmp_path, "predict", "class_member") == 0

    @pytest.mark.parametrize(
        "command, kind",
        [(c, "class_member") for c in CLI_COMMANDS if c != "predict"]
        + [(c, "bandlimited") for c in ("predict", "robustness", "gen-signal")],
    )
    def test_subcommands(self, tmp_path, command, kind):
        # robustness exits 3 when the predictor saturates; no run may fail
        # any other way
        assert self.run_command(tmp_path, command, kind) in (0, 3)

    @staticmethod
    def run_command(tmp_path, command, kind) -> int:
        import json

        from specpredict.cli import main

        signal = {"kind": kind, "seed": 7}
        if kind == "bandlimited":
            signal["omega_bar"] = 2.0
        config = {
            "grid": {"n": GRID.n, "delta_t": GRID.delta_t},
            "kernel": {"poles": [1.0], "numerator": [1.0]},
            "class": {"q": CLS.q, "c": CLS.c},
            "predictor": {"r": 4.0, "gammas": [10.0] if command == "predict" else [10.0, 30.0]},
            "signal": signal,
            "ensemble": {"size": 2, "seed": 2026},
            "noise": {"nus": [0.0, 0.05], "seed": 11, "band": [1.0, 2.0]},
            "counterexample": {"a": 0.5},
            "negative": {"q_bad": 0.5, "seed": 77, "size": 1},
            "lemma": {"gamma0_bracket": [0.5, 500.0]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def _top_level_loads(source: str, name: str) -> set:
    """The top-level functions and classes of ``source`` that read ``name``,
    as a bare name or an attribute; "<module>" for a read outside them."""
    owners = set()
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
                owners.add(owner)
    return owners


def _imported(source: str) -> set:
    return {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _gain_subtractions(source: str) -> set:
    """The top-level functions and classes of ``source`` with a subtraction
    that has a ``khat_values``, whole or sliced, on either side; "<module>"
    for a subtraction outside them."""

    def field(node):
        return getattr(node.value if isinstance(node, ast.Subscript) else node, "attr", None)

    return {
        getattr(stmt, "name", "<module>")
        for stmt in ast.parse(source).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and "khat_values" in (field(node.left), field(node.right))
    }


def test_error_norms_take_one_path():
    # error norms are taken in experiments alone, and K_hat - K is formed,
    # in either order, only by _error_gain
    probe = (
        "def f(pt):\n    return pt.khat_values[:m] - pt.k_values[:m]\n"
        "def g(pt):\n    return K - pt.khat_values\n"
        "d = pt.k_values - pt.khat_values\n"
    )
    assert _gain_subtractions(probe) == {"f", "g", "<module>"}
    assert _gain_subtractions("d = pt.k_values - pt.khat_log_mag\ne = pt.khat_values * N") == set()
    sources = {p.name: p.read_text(encoding="utf-8") for p in Path(experiments.__file__).parent.glob("*.py")}
    assert len(sources) >= 10
    helpers = ("_norms", "_row_norms", "_channel", "_error_gain")
    readers = {
        (name, helper)
        for name, src in sources.items()
        for helper in helpers
        if helper in _imported(src) or _top_level_loads(src, helper)
    }
    assert {name for name, _ in readers} == {"experiments.py"}, readers
    subtractions = {(name, owner) for name, src in sources.items() for owner in _gain_subtractions(src)}
    assert subtractions == {("experiments.py", "_error_gain")}


def _block_loop_calls(source: str, function: str, callee: str) -> list:
    """One entry per call of ``callee`` in the top-level ``function`` of
    ``source``, sorted: True where the call sits in a for loop or a
    comprehension over ``_blocks(...)``."""

    def over_blocks(node):
        iters = [node.iter] if isinstance(node, ast.For) else [g.iter for g in getattr(node, "generators", ())]
        return any(isinstance(it, ast.Call) and getattr(it.func, "id", None) == "_blocks" for it in iters)

    def calls(node, inside):
        if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield inside
        for child in ast.iter_child_nodes(node):
            yield from calls(child, inside or over_blocks(node))

    return sorted(calls(next(s for s in ast.parse(source).body if getattr(s, "name", None) == function), False))


def test_lemma_reads_its_high_band_bounds_at_one_node():
    # lemma_check evaluates the factor bound once per pole, at the first
    # node above the band edge (_high_band_flags), not in a pass over the
    # high band in blocks
    probe = (
        "def f(om):\n    for o in _blocks(om):\n        factor_exponent(o)\n    factor_exponent(om[:1])\n"
        "def g(om):\n    return [predictor.factor_exponent(o) for o in _blocks(om)]\n"
    )
    assert _block_loop_calls(probe, "f", "factor_exponent") == [False, True]
    assert _block_loop_calls(probe, "g", "factor_exponent") == [True]
    src = Path(predictor.__file__).read_text(encoding="utf-8")
    assert _block_loop_calls(src, "_high_band_flags", "factor_exponent") == [False]
    assert _block_loop_calls(src, "lemma_check", "factor_exponent") == []


def _branch_points(source: str, function: str) -> list:
    """The comparisons and ``where`` calls in the top-level ``function`` of
    ``source``, by AST node type name."""
    fn = next(s for s in ast.parse(source).body if getattr(s, "name", None) == function)
    return [
        type(node).__name__
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare) or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "where")
    ]


def test_v_minus_one_has_one_path():
    # V - 1 is one recurrence over the poles: no threshold on |f_j| picks
    # between two accumulators node by node
    probe = "def f(f, s, p):\n    return np.where(np.abs(f) < 1e-6, s, p - 1.0)\n"
    assert sorted(_branch_points(probe, "f")) == ["Call", "Compare"]
    src = Path(predictor.__file__).read_text(encoding="utf-8")
    assert _branch_points(src, "v_minus_one") == []


def _callers(source: str, names: set) -> set:
    """The innermost functions of ``source`` (nested ones and methods
    included) that call one of ``names``, by name; None for a call at
    module level."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", getattr(child.func, "attr", None))
                if callee in names:
                    found.add(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_signals_have_one_projection():
    # class members and band-limited draws share _project, the one loop that
    # alternates the time window with the spectral clip; a generator with a
    # transform loop of its own calls the row transforms itself
    probe = (
        "def f(X):\n    def draw(s):\n        return rfft_rows(s)\n    return draw\n"
        "def g(X):\n    return spectral.irfft_rows(X)\n"
    )
    assert _callers(probe, {"rfft_rows", "irfft_rows"}) == {"draw", "g"}
    src = Path(signals.__file__).read_text(encoding="utf-8")
    transforms = {"rfft_rows", "irfft_rows", "_rfft", "_irfft"}
    assert _callers(src, transforms) == {"_project"}
    assert _callers(src, {"_project"}) == {"draw", "sample_bandlimited"}
    imported = {
        alias.name for node in ast.walk(ast.parse(src)) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "irfft_rows" not in imported


def _masked_subscripts(source: str, function: str) -> list:
    """The subscripts in the top-level ``function`` of ``source`` indexed by
    a name or an inverted name (``x[mask]``, ``x[~mask]``), as source text."""
    fn = next(s for s in ast.parse(source).body if getattr(s, "name", None) == function)
    return [
        ast.unparse(node)
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript)
        and isinstance(getattr(node.slice, "operand", node.slice), ast.Name)
    ]


def test_v_logpolar_has_one_path_and_the_predictor_one_clamp():
    # every factor of V takes the one scaled step: no threshold on Re w
    # switches between two masked branches, and the stored K_hat is clamped
    # by the one CALIBRATION key
    probe = "def f(w, x):\n    exact = w.real <= 690.0\n    x[exact] += 1.0\n    x[~exact] -= w[1:][0]\n"
    assert _branch_points(probe, "f") == ["Compare"]
    assert _masked_subscripts(probe, "f") == ["x[exact]", "x[~exact]"]
    src = Path(predictor.__file__).read_text(encoding="utf-8")
    assert _branch_points(src, "v_logpolar") == []
    assert _masked_subscripts(src, "v_logpolar") == []
    read = {
        node.slice.value
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "CALIBRATION"
    }
    assert {key for key in read if "clamp" in key} == {"khat_clamp_log"}
    assert [key for key in CALIBRATION if "clamp" in key] == ["khat_clamp_log"]


def _names_read(source: str, function: str) -> set:
    """The names and attribute names that the top-level ``function`` of
    ``source`` reads or calls."""
    fn = next(s for s in ast.parse(source).body if getattr(s, "name", None) == function)
    return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
    }


def test_v_minus_one_alone_reads_past_the_double_range():
    # v_minus_one's (s, D) decides how V - 1 reads where a factor overflows:
    # the counterexample neither switches to log|K_hat| at saturated nodes
    # nor subtracts K from the clamped K_hat, and the lemma has no NaN rule
    probe = "def f(pt):\n    return math.isnan(_error_gain(pt)[pt.saturated])\n"
    assert {"isnan", "_error_gain", "saturated"} <= _names_read(probe, "f")
    read = _names_read(Path(experiments.__file__).read_text(encoding="utf-8"), "counterexample_experiment")
    assert {"saturated", "_error_gain"} & read == set()
    assert "v_minus_one" in read
    assert "isnan" not in _names_read(Path(predictor.__file__).read_text(encoding="utf-8"), "lemma_check")


def test_witnesses_take_one_formula():
    # the orthogonality residual on the axis and on Re z = sigma is one
    # inner ratio of a peak-scaled K_hat, K_hat on both lines comes from one
    # evaluator, and no log-domain half sum is left in the predictor
    src = Path(predictor.__file__).read_text(encoding="utf-8")
    for helper in ("_inner_ratio", "_peak_normalized"):
        assert _top_level_loads(src, helper) == {"orthogonality_residual", "line_witness"}, helper
    assert _top_level_loads(src, "_khat_logpolar") == {"build_predictor", "line_witness"}
    assert "_log_half_sum" not in _imported(src)
    assert _top_level_loads(src, "_log_half_sum") == set()


def test_only_named_readers_take_the_forward_transform():
    # the forward transform of a series that arrives as samples has two
    # readers, and cli's import is the binding perfbench's install probe
    # reads; no n-node mirror of a half spectrum is built, as the spectrum
    # CSV reads the half spectrum a block at a time
    assert _top_level_loads("def f(x):\n    return spectral.forward_transform(x)\ny = g", "forward_transform") == {"f"}
    sources = {p.name: p.read_text(encoding="utf-8") for p in Path(experiments.__file__).parent.glob("*.py")}
    mirrors = {(name, owner) for name, src in sources.items() for owner in _top_level_loads(src, "_mirror")}
    assert mirrors == set()
    readers = {(name, owner) for name, src in sources.items() for owner in _top_level_loads(src, "forward_transform")}
    assert readers == {
        ("experiments.py", "_member_spectrum"),
        ("kernels.py", "apply_anticausal"),
    }
    importers = {name for name, src in sources.items() if "forward_transform" in _imported(src)}
    assert importers == {"__init__.py", "cli.py", "experiments.py", "kernels.py"}


class TestPerRowChannelIsExact:
    """The error channel, its norms and the members are formed one row at a
    time; they equal the stacked forms in ``oracles`` byte for byte, signed
    zeros included."""

    GAMMAS = (10.0, 30.0, 100.0, 300.0, 1000.0)

    def test_members_match_batched_generation(self, ensemble):
        want = enveloped_members_batched(CLS.q, CLS.c, cfg(2026), len(ensemble))
        got = np.stack([x.samples for x in ensemble])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_stored_spectra_match_batched_generation(self, ensemble):
        want = enveloped_spectra_batched(CLS.q, CLS.c, cfg(2026), len(ensemble))
        got = np.stack([x.spectrum for x in ensemble])
        assert got.tobytes() == want.tobytes()

    def test_half_spectra_match_stacked_member_spectra(self, ensemble):
        want = np.stack([x.spectrum for x in ensemble])
        got = np.stack([experiments._member_half(x, GRID) for x in ensemble])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_error_channel_matches_batched(self, ensemble, gamma):
        X = member_half_spectra(ensemble)
        pt = build_predictor(KERNEL, gamma, 4.0, GRID)
        diff, l2_want, sup_want = error_channel_batched(pt, X)
        gain = pt.khat_values - pt.k_values
        work = experiments._workspace(GRID)
        l2, sup = np.array([experiments._norms(gain * row, GRID, work) for row in X]).T
        assert (l2.tobytes(), sup.tobytes()) == (l2_want.tobytes(), sup_want.tobytes())
        for i, row in enumerate(X):
            assert (gain * row).tobytes() == diff[i].tobytes()
        K = pt.k_values
        y_l2, y_sup = np.array([experiments._norms(K * row, GRID, work) for row in X]).T
        y_l2_want, y_sup_want = row_norms_linalg(irfft_stack(K * X, GRID), GRID)
        assert (y_l2.tobytes(), y_sup.tobytes()) == (y_l2_want.tobytes(), y_sup_want.tobytes())

    def test_row_norms_match_linalg_norm(self):
        rows = np.random.default_rng(3).standard_normal((4, 64))
        rows[1] = -0.0
        rows[2, :3] = 1e200  # the squares overflow: l2 reads inf
        rows[3] *= 1e-170  # the squares underflow
        grid = make_grid(64, 0.1)
        with np.errstate(under="ignore"):
            got = experiments._row_norms(rows.copy(), grid)
            want = row_norms_linalg(rows, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert math.isinf(got[0][2])
        # the all -0.0 row: both norms read +0.0
        assert not np.signbit(got[0][1]) and not np.signbit(got[1][1])

    @settings(max_examples=60, deadline=None)
    @given(rows=arrays(np.float64, st.sampled_from([(8,), (3, 8), (1, 16), (4, 32)]), elements=EDGE_FLOATS))
    def test_row_norms_match_square_and_abs(self, rows):
        # the sup is read as max(|max|, |min|) and the squares overwrite
        # the rows; both norms equal those formed from np.square and np.abs
        grid = make_grid(rows.shape[-1], 0.1)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want_l2 = math.sqrt(grid.delta_t) * np.sqrt(np.add.reduce(np.square(rows), axis=-1))
            want_sup = np.max(np.abs(rows), axis=-1)
            scratch = rows.copy()
            got = experiments._row_norms(scratch, grid)
            squares = np.square(rows)
        want = (np.asarray(want_l2).tobytes(), np.asarray(want_sup).tobytes())
        assert (np.asarray(got[0]).tobytes(), np.asarray(got[1]).tobytes()) == want
        assert scratch.tobytes() == squares.tobytes()


# sha256 of repr(gamma_sweep(...).rows) at the defaults (ten members on the
# default grid, the default kernel, class, gammas and r) at each ensemble
# seed; taken when every gain was still kept and transformed at all nodes,
# re-taken when node n/2 of K_hat became Re(V K), and again when
# v_minus_one became one recurrence, which moved the gamma-10
# lemma_tail_dev from 4.557612263877541e-05 to 4.557612263876074e-05
DEFAULT_SWEEP_DIGESTS = {
    2026: "f7d647c2fb3d79d5f5105bfb6c4df11d42f92b95c658845e409f108d06ea5acf",
    7: "ba717029a94787f7f8ad12a29bb2f883cdb542068e8705eb393e0d033f7cab6f",
}


@pytest.fixture(scope="module", params=sorted(DEFAULT_SWEEP_DIGESTS))
def default_members(request):
    """(seed, the ten members of the default configuration at that seed)."""
    cfg_default = GeneratorConfig(seed=request.param, grid=experiments.default_grid())
    return request.param, make_class_ensemble(experiments.DEFAULT_CLASS, cfg_default, 10)


def default_sweep(members):
    return gamma_sweep(
        experiments.DEFAULT_KERNEL,
        experiments.DEFAULT_CLASS,
        experiments.DEFAULT_GAMMAS,
        experiments.DEFAULT_R,
        members,
    )


class TestExactSupportChannel:
    """Each gain is kept up to its last nonzero node and an all-zero error
    channel is not transformed; no sweep figure moves."""

    def test_default_sweep_rows_unchanged(self, default_members):
        seed, members = default_members
        rows = repr(default_sweep(members).rows)
        assert hashlib.sha256(rows.encode()).hexdigest() == DEFAULT_SWEEP_DIGESTS[seed]

    def test_all_zero_half_is_not_transformed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an all-zero channel was transformed")

        monkeypatch.setattr(experiments, "_irfft", refuse)
        h = GRID.n // 2 + 1
        work = experiments._workspace(GRID)
        for half in (np.zeros(h, complex), np.full(h, -0.0 - 0.0j), np.zeros(1, complex)):
            assert experiments._norms(half, GRID, work) == (0.0, 0.0)
        assert experiments._band_split(np.zeros(1, complex), GRID, 1.0, 2) == (0.0, 0.0)

    def test_default_sweep_transform_count(self, default_members, monkeypatch):
        # per member one target and the two nonzero channels (gamma 10, 30),
        # plus one causality defect per gamma: 10 * 3 + 5, where a transform
        # of every channel took 10 * 6 + 5; the lazy ensemble adds the two
        # projection rounds of each member's one draw
        _, members = default_members
        held = list(members)
        calls = []
        real = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or real(*a, **k))
        default_sweep(held)
        assert len(calls) == 35 == 3 * len(held) + 5
        calls.clear()
        default_sweep(members)
        assert len(calls) == 35 + 2 * 10

    def test_default_supports(self):
        grid = experiments.default_grid()
        supports = [
            experiments._error_gain(build_predictor(experiments.DEFAULT_KERNEL, g, 4.0, grid)).size
            for g in experiments.DEFAULT_GAMMAS
        ]
        assert supports == [grid.n // 2 + 1] * 2 + [1] * 3

    def test_low_band_members_match_stacked_sweep(self):
        # pole 1 and r = 0.6 leave supports of 5 and 2 nodes at gamma = 100
        # and 1000; band-limited members from omega = 0.2 (node 3) on have
        # content inside the first, so their channels there are nonzero and
        # zero-padded, and none inside the second
        cls = DegeneracyClass(5.0, 1.0)
        gammas = (10.0, 100.0, 1000.0)
        members = list(make_class_ensemble(cls, cfg(31), 2)) + [
            sample_bandlimited(2.0, cfg(40 + i, band=(0.2, 2.0))) for i in range(2)
        ]
        h = GRID.n // 2 + 1
        supports = [experiments._error_gain(build_predictor(KERNEL, g, 0.6, GRID)).size for g in gammas]
        assert supports == [h, 5, 2]
        got = gamma_sweep(KERNEL, cls, gammas, 0.6, members).rows
        # the stacked oracle reads stored spectra: band-limited members are
        # given as their half spectra, roundoff floor zeroed as the sweep does
        halves = [SpectralSeries(GRID, experiments._member_half(x, GRID)) for x in members]
        assert repr(got) == repr(tuple(sweep_rows_stacked(KERNEL, cls, gammas, 0.6, halves)))
        assert [row.err_l2_abs > 0.0 for row in got] == [True, True, False]
        assert got[1].i1 > 0.0


# sha256 of repr(counterexample_experiment(...).rows), taken while the
# experiment still added the log weights of nodes 0..n/2 itself, with the
# dropped ``residual=...`` field cut out of the repr, and re-taken when node
# n/2 of K_hat became Re(V K), and again when log|K_hat - K| was read from
# v_minus_one's scaled (s, D) at every node: only e2 and e2_sq_log moved,
# criterion 7's e2_sq_log from -inf to -201.04823994748693 at gamma 100 and
# from -61.04812601811845 to -61.04818220959615 at gamma 30.  Re-taken
# when v_minus_one lifted e^{w_j} below the normal range by its own scale:
# only e2_sq_log at gamma 1000 moved, from -inf to -2001.048241547996
# (criterion 7) and to -1871.0281784450306 (two poles)
COUNTEREXAMPLE_DIGESTS = {
    "criterion 7": "f6fcef1b821bd76544cf8a9bbcfe10ce5a1898b998bc7825f02a5b47bcda1086",
    "two poles, r = 0.6": "ee6078614e65b7be1cd439f8fe6b5e26eb7f938fd32aefd0801c0654da9fead5",
}


@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLE_DIGESTS))
def test_counterexample_rows_unchanged(name):
    if name == "criterion 7":
        kernel, grid, r = experiments.DEFAULT_KERNEL, experiments.default_grid(), experiments.DEFAULT_R
    else:
        kernel, grid, r = AnticausalKernel((0.5, 1.2), (0.3, 1.0)), GRID, 0.6
    rows = counterexample_experiment(0.5, kernel, experiments.DEFAULT_GAMMAS, grid, r=r).rows
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == COUNTEREXAMPLE_DIGESTS[name]


# Probe B's log10 err_l2_rel of the worst member at the defaults (seed 2026,
# ten members), by the exact channel (V - 1) K X scaled by e^gamma and by
# the Parseval log-sum, which agree to every printed digit
PROBE_B_LOG10 = {10.0: -4.342855008, 30.0: -13.028831132, 100.0: -43.429448101,
                 300.0: -130.288344568, 1000.0: -434.294481903}


def test_one_pole_sweep_meets_the_closed_form():
    # for one pole V - 1 = -e^w, so err_l2_rel has a closed form; the grid's
    # K_hat - K cancels |V - 1| ~ e^-gamma against 1, about 2^-53 e^gamma
    # per node (8 such units at gamma 10), and reads 0.0 from gamma 100 on
    grid = experiments.default_grid()
    members = list(make_class_ensemble(experiments.DEFAULT_CLASS, GeneratorConfig(seed=2026, grid=grid), 10))
    rows = default_sweep(members).rows
    for row in rows:
        worst = max(
            one_pole_error_log(experiments.DEFAULT_KERNEL, row.gamma, experiments.DEFAULT_R, x.spectrum, grid)
            for x in members
        )
        assert abs(worst / math.log(10.0) - PROBE_B_LOG10[row.gamma]) < 1e-9, row.gamma
        if row.gamma <= 30.0:
            assert abs(row.err_l2_rel / math.exp(worst) - 1.0) <= 16 * 2.0**-53 * math.exp(row.gamma)
