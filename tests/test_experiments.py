import ast
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

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
from specpredict import experiments, signals
from specpredict.signals import _noise_spectrum
from specpredict.spectral import _half_sum, irfft_rows

from oracles import (
    build_predictor_full_grid,
    enveloped_members_batched,
    enveloped_spectra_batched,
    error_channel_batched,
    gamma_sweep_reference,
    hermitian_full,
    inverse_transform_n_node,
    irfft_stack,
    member_half_spectra,
    row_norms_linalg,
    sweep_rows_stacked,
    transfer_full_grid,
    uniformity_check_stacked,
)

GRID = make_grid(2**12, 0.02)
KERNEL = AnticausalKernel((1.0,), (1.0,))
CLS = DegeneracyClass(2.0, 1.0)


def cfg(seed=0, **kw):
    return GeneratorConfig(seed=seed, grid=GRID, **kw)


@pytest.fixture(scope="module")
def ensemble():
    return make_class_ensemble(CLS, cfg(2026), 4)


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
        with pytest.raises(ValueError, match="positive"):
            gamma_sweep(KERNEL, CLS, (g for g in (-1.0,)), 4.0, ensemble)

    def test_metadata_recorded(self, ensemble):
        rep = gamma_sweep(KERNEL, CLS, (10.0,), 4.0, ensemble, metadata={"seed": 2026})
        assert rep.metadata["kernel"] == {"poles": [1.0], "numerator": [1.0]}
        assert rep.metadata["class"] == {"q": 2.0, "c": 1.0}
        assert rep.metadata["seed"] == 2026


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
        with pytest.raises(ValueError):
            uniformity_check(KERNEL, CLS, 10.0, 4.0, [white])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="nonempty"):
            uniformity_check(KERNEL, CLS, 10.0, 4.0, [])


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
        with pytest.raises(ValueError):
            robustness_experiment(self.KER, 30.0, 0.6, x0, [-0.01], cfg(1))

    def test_one_inverse_transform_per_row(self, x0, monkeypatch):
        # the clean channel and one noisy error per row; j0 and j_eta come
        # from the half spectra
        calls = []
        real = experiments.irfft_rows
        monkeypatch.setattr(experiments, "irfft_rows", lambda *a: calls.append(1) or real(*a))
        nus = [0.0, 0.01, 0.05]
        robustness_experiment(self.KER, 30.0, 0.6, x0, nus, cfg(424242))
        assert len(calls) == 1 + len(nus)

    def test_rejects_nan_intensity(self, x0):
        # rejected up front, before the predictor is built or any noise drawn
        with pytest.raises(ValueError, match="intensities must be finite"):
            robustness_experiment(self.KER, 30.0, 0.6, x0, [0.0, math.nan], cfg(1))


class TestCounterexample:
    def test_zero_predictor_limit(self):
        # with K_hat = 0 the identity collapses to 2 pi (e1^2 + e2^2) = ||K||^2
        from specpredict import apply_anticausal, counterexample_pair

        x1, x2 = counterexample_pair(0.5, cfg(5))
        K = transfer(KERNEL, GRID)
        e_sq = 0.0
        for x in (x1, x2):
            y = apply_anticausal(KERNEL, TimeSeries(GRID, x.samples))
            e_sq += norm(y, 2) ** 2
        norm_k_sq = GRID.delta_omega * _half_sum(np.abs(K) ** 2, GRID)
        assert 2 * math.pi * e_sq == pytest.approx(norm_k_sq, rel=1e-9)

    def test_identity_and_floor_across_sweep(self):
        rep = counterexample_experiment(0.5, KERNEL, (10.0, 100.0, 1000.0), cfg(5), r=4.0)
        for row in rep.rows:
            assert row.identity_ok
            assert row.identity_rel_gap <= 0.05
            assert row.floor_ok
        assert rep.no_gamma_predicts_both

    def test_meaningful_identity_at_representable_config(self):
        # gains stay in range, orthogonality is genuine, identity is nontrivial
        g = make_grid(2**17, 0.01)
        kern = AnticausalKernel((0.01,), (1.0,))
        rep = counterexample_experiment(
            0.5, kern, (10.0, 30.0), GeneratorConfig(seed=5, grid=g), r=0.6
        )
        for row in rep.rows:
            assert row.identity_ok
            assert orthogonality_residual(build_predictor(kern, row.gamma, 0.6, g)) < 1e-2
            assert math.isfinite(row.e1) and math.isfinite(row.e2)
            assert row.floor_ok

    def test_complement_error_is_read_on_its_own_support(self):
        # x2 is zero at the saturated degeneracy node; its exact spectrum
        # keeps that zero, so e2 stays small while e1 carries the saturation
        rep = counterexample_experiment(0.5, KERNEL, (10.0, 30.0), cfg(5), r=4.0)
        for row in rep.rows:
            assert row.e2_sq_log < 0.0 < row.e1_sq_log
            assert row.identity_ok and row.floor_ok

    def test_generator_gammas_read_once(self):
        rep = counterexample_experiment(0.5, KERNEL, (g for g in (100.0, 10.0)), cfg(5), r=4.0)
        assert rep.rows == counterexample_experiment(0.5, KERNEL, (10.0, 100.0), cfg(5), r=4.0).rows
        with pytest.raises(ValueError, match="nonempty"):
            counterexample_experiment(0.5, KERNEL, (g for g in ()), cfg(5), r=4.0)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            counterexample_experiment(GRID.omega_max + 1, KERNEL, (10.0,), cfg(1))


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
        with pytest.raises(ValueError, match="positive"):
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
        counterexample_experiment(0.5, KERNEL, (10.0, 100.0), cfg(5))
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
            "counterexample": {"a": 0.5, "seed": 5},
            "negative": {"q_bad": 0.5, "seed": 77, "size": 1},
            "lemma": {"omega_floor": 0.5, "gamma0_bracket": [0.5, 500.0]},
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
        l2, sup = np.array([experiments._norms(gain * row, GRID) for row in X]).T
        assert (l2.tobytes(), sup.tobytes()) == (l2_want.tobytes(), sup_want.tobytes())
        for i, row in enumerate(X):
            assert (gain * row).tobytes() == diff[i].tobytes()
        K = pt.k_values
        y_l2, y_sup = np.array([experiments._norms(K * row, GRID) for row in X]).T
        y_l2_want, y_sup_want = row_norms_linalg(irfft_stack(K * X, GRID), GRID)
        assert (y_l2.tobytes(), y_sup.tobytes()) == (y_l2_want.tobytes(), y_sup_want.tobytes())

    def test_row_norms_match_linalg_norm(self):
        rows = np.random.default_rng(3).standard_normal((4, 64))
        rows[1] = -0.0
        rows[2, :3] = 1e200  # the squares overflow: l2 reads inf
        rows[3] *= 1e-170  # the squares underflow
        grid = make_grid(64, 0.1)
        with np.errstate(under="ignore"):
            got = experiments._row_norms(rows, grid)
            want = row_norms_linalg(rows, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert math.isinf(got[0][2])


# sha256 of repr(gamma_sweep(...).rows) at the defaults (ten members on the
# default grid, the default kernel, class, gammas and r) at each ensemble
# seed; taken when every gain was still kept and transformed at all nodes
DEFAULT_SWEEP_DIGESTS = {
    2026: "a0bd1335d9357719371cb0c41e70fca153681b1467ec857f0051a5fffd08892a",
    7: "a76f1857ae61cb138c6bfade3ac852ea9139757840aeb9c1bbe577f509c1bc0a",
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

        monkeypatch.setattr(experiments, "irfft_rows", refuse)
        h = GRID.n // 2 + 1
        for half in (np.zeros(h, complex), np.full(h, -0.0 - 0.0j), np.zeros(1, complex)):
            assert experiments._norms(half, GRID) == (0.0, 0.0)
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
            experiments._support(build_predictor(experiments.DEFAULT_KERNEL, g, 4.0, grid))
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
        supports = [experiments._support(build_predictor(KERNEL, g, 0.6, GRID)) for g in gammas]
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
# dropped ``residual=...`` field cut out of the repr
COUNTEREXAMPLE_DIGESTS = {
    "criterion 7": "68dd44732881c9350b86de182bb58c84ad56fc37c64aa97039cf9f1f879be62e",
    "two poles, r = 0.6": "86abe79fe90f88076e6f45c44e80e56d9f8b9689842c1bfbba58a80eadd7fe11",
}


@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLE_DIGESTS))
def test_counterexample_rows_unchanged(name):
    if name == "criterion 7":
        kernel, grid, r = experiments.DEFAULT_KERNEL, experiments.default_grid(), experiments.DEFAULT_R
    else:
        kernel, grid, r = AnticausalKernel((0.5, 1.2), (0.3, 1.0)), GRID, 0.6
    cfg5 = GeneratorConfig(seed=5, grid=grid)
    rows = counterexample_experiment(0.5, kernel, experiments.DEFAULT_GAMMAS, cfg5, r=r).rows
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == COUNTEREXAMPLE_DIGESTS[name]
