import dataclasses
import math

import numpy as np
import pytest

from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    GeneratorConfig,
    TimeSeries,
    build_predictor,
    class_norm,
    counterexample_experiment,
    error_decomposition,
    gamma_sweep,
    make_class_ensemble,
    make_grid,
    nonpredictability_demo,
    norm,
    prediction_error,
    robustness_experiment,
    sample_class_member,
    transfer,
    uniformity_check,
)
from specpredict import experiments
from specpredict.experiments import _member_spectrum

from oracles import gamma_sweep_reference

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
        err = prediction_error(pt, TimeSeries(GRID, np.zeros(GRID.n)), 2)
        assert err.abs_err == 0.0 and err.rel_err == 0.0

    def test_identity_transfer_gives_zero_error(self):
        pt = build_predictor(KERNEL, 10.0, 4.0, GRID)
        fake = dataclasses.replace(pt, khat_values=transfer(KERNEL, GRID).values)
        rng = np.random.Generator(np.random.Philox(1))
        x = TimeSeries(GRID, rng.standard_normal(GRID.n) + 0j)
        err = prediction_error(fake, x, 2)
        assert err.abs_err < 1e-13 * norm(x, 2)

    def test_sup_norm_equals_sweep(self, ensemble):
        x = ensemble[0]
        row = gamma_sweep(KERNEL, CLS, (10.0,), 4.0, [x]).rows[0]
        err = prediction_error(build_predictor(KERNEL, 10.0, 4.0, GRID), x, math.inf)
        assert (err.abs_err, err.rel_err) == (row.err_sup_abs, row.err_sup_rel)

    def test_rejects_non_real_member(self, ensemble):
        pt = build_predictor(KERNEL, 10.0, 4.0, GRID)
        x = TimeSeries(GRID, ensemble[0].samples * 1j)
        with pytest.raises(ValueError, match="real"):
            prediction_error(pt, x, 2)
        with pytest.raises(ValueError, match="real"):
            error_decomposition(pt, x, 2)


class TestErrorDecomposition:
    def test_partition_identity(self, ensemble):
        pt = build_predictor(KERNEL, 5.0, 4.0, GRID)
        for p, rho in ((2, 2), (math.inf, 1)):
            i1, i2 = error_decomposition(pt, ensemble[0], p)
            X = _member_spectrum(ensemble[0])
            K = transfer(KERNEL, GRID).values
            total = GRID.delta_omega * float(np.sum(np.abs((pt.khat_values - K) * X) ** rho))
            assert i1 + i2 == pytest.approx(total, rel=1e-9)

    def test_subresolution_band_gives_zero_low_part(self, ensemble):
        # threshold below the first node: only the origin is inside, where
        # members carry an exact zero
        pt = build_predictor(KERNEL, 100.0, 4.0, GRID)
        assert pt.omega_threshold < GRID.delta_omega
        i1, _ = error_decomposition(pt, ensemble[0], 2)
        assert i1 == 0.0

    def test_parseval_bridge(self, ensemble):
        # 2 pi * (time-domain L2 error)^2 equals the rho=2 spectral measure
        from specpredict import Spectrum, inverse_transform

        pt = build_predictor(KERNEL, 5.0, 4.0, GRID)
        x = ensemble[0]
        X = _member_spectrum(x)
        K = transfer(KERNEL, GRID).values
        diff = inverse_transform(Spectrum(GRID, (pt.khat_values - K) * X))
        i1, i2 = error_decomposition(pt, x, 2)
        assert 2 * math.pi * norm(diff, 2) ** 2 == pytest.approx(i1 + i2, rel=1e-6)


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
        ratio = uniformity_check(KERNEL, CLS, 10.0, 4.0, [x])
        pt = build_predictor(KERNEL, 10.0, 4.0, GRID)
        from specpredict import Spectrum, inverse_transform

        X = _member_spectrum(x)
        K = transfer(KERNEL, GRID).values
        err = norm(inverse_transform(Spectrum(GRID, (pt.khat_values - K) * X)), 2)
        assert ratio == pytest.approx(err / class_norm(x, CLS))

    def test_scaling_invariance(self, ensemble):
        x = ensemble[0]
        doubled = TimeSeries(GRID, 2.0 * x.samples)
        r1 = uniformity_check(KERNEL, CLS, 10.0, 4.0, [x])
        r2 = uniformity_check(KERNEL, CLS, 10.0, 4.0, [doubled])
        assert r2 == pytest.approx(r1, rel=1e-9)

    def test_ratio_shrinks_with_gamma(self, ensemble):
        r10 = uniformity_check(KERNEL, CLS, 10.0, 4.0, ensemble)
        r30 = uniformity_check(KERNEL, CLS, 30.0, 4.0, ensemble)
        assert r30 < r10 / 100

    def test_rejects_nonmember(self):
        rng = np.random.Generator(np.random.Philox(3))
        white = TimeSeries(GRID, rng.standard_normal(GRID.n) + 0j)
        with pytest.raises(ValueError):
            uniformity_check(KERNEL, CLS, 10.0, 4.0, [white])


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
        # from the half spectra, and error_decomposition transforms nothing
        calls = []
        real = experiments.irfft_rows
        monkeypatch.setattr(experiments, "irfft_rows", lambda *a: calls.append(1) or real(*a))
        nus = [0.0, 0.01, 0.05]
        robustness_experiment(self.KER, 30.0, 0.6, x0, nus, cfg(424242))
        assert len(calls) == 1 + len(nus)
        calls.clear()
        error_decomposition(build_predictor(self.KER, 30.0, 0.6, GRID), x0, 2)
        assert calls == []

    def test_rejects_nan_intensity(self, x0):
        # rejected up front, before the predictor is built or any noise drawn
        with pytest.raises(ValueError, match="intensities must be finite"):
            robustness_experiment(self.KER, 30.0, 0.6, x0, [0.0, math.nan], cfg(1))


class TestCounterexample:
    def test_zero_predictor_limit(self):
        # with K_hat = 0 the identity collapses to 2 pi (e1^2 + e2^2) = ||K||^2
        from specpredict import apply_anticausal, counterexample_pair

        x1, x2 = counterexample_pair(0.5, cfg(5))
        K = transfer(KERNEL, GRID).values
        e_sq = 0.0
        for x in (x1, x2):
            y = apply_anticausal(KERNEL, x)
            e_sq += norm(y, 2) ** 2
        norm_k_sq = GRID.delta_omega * float(np.sum(np.abs(K) ** 2))
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
            assert row.residual < 1e-2
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

        members = make_class_ensemble(CLS, cfg(2026), 2)
        gapped = cfg(9, band=(0.5, 2.0))
        members += [
            sample_bandlimited(2.0, dataclasses.replace(gapped, seed=9 + i)) for i in range(2)
        ]
        r10 = uniformity_check(KERNEL, CLS, 10.0, 4.0, members)
        r30 = uniformity_check(KERNEL, CLS, 30.0, 4.0, members)
        assert r30 < r10
