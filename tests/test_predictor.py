import ast
import dataclasses
import functools
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    GeneratorConfig,
    NumericalFailure,
    SpectralSeries,
    TimeSeries,
    build_predictor,
    causality_defect,
    counterexample_experiment,
    eval_v_factor,
    find_gamma0,
    gamma_sweep,
    lemma_check,
    line_witness,
    make_class_ensemble,
    make_grid,
    nonpredictability_demo,
    norm,
    orthogonality_residual,
    predict,
    robustness_experiment,
    sample_bandlimited,
    sample_class_member,
    transfer,
    v_minus_one,
)
from specpredict import predictor, spectral
from specpredict.experiments import DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_KERNEL, DEFAULT_R, default_grid
from specpredict.kernels import _transfer_at
from specpredict.predictor import _inner_ratio, _past_share, factor_exponent, v_logpolar
from specpredict.spectral import _half_omegas, irfft_rows
from specpredict.tolerances import CALIBRATION

from oracles import (
    build_predictor_full_grid,
    hermitian_defect,
    high_band_flags_full_grid,
    inverse_transform_n_node,
    irfft_stack,
    lemma_check_full_grid,
    lemma_tail_dev_stacked,
    line_witness_full_grid,
    line_witness_half_grid,
    orthogonality_residual_full_grid,
    past_share,
    transfer_full_grid,
    v_logpolar_mpmath,
    v_minus_one_mpmath,
)

KERNEL = AnticausalKernel((1.0,), (1.0,))


class TestVFactor:
    def test_zero_at_pole(self):
        assert eval_v_factor(1.0, 1.0, 50.0, 4.0) == 0.0
        assert abs(eval_v_factor(2.5, 2.5, 3.0, 0.5)) < 1e-15

    @pytest.mark.parametrize("r", [0.6, 4.0])
    @pytest.mark.parametrize("gamma", [0.5, 10.0, 1000.0])
    @pytest.mark.parametrize("poles", [(1.0,), (1.0, 2.0), (0.5, 1.0, 2.0), (1e-5, 2.0), (0.3, 1.0, 2.5)])
    def test_product_cancels_every_pole(self, poles, gamma, r):
        # K_hat = V * K is holomorphic in the right half-plane only if V
        # vanishes at each pole of K; the causality and orthogonality
        # witnesses are relative figures and cannot see a pole left over
        kernel = AnticausalKernel(poles)
        log_v = v_logpolar(np.asarray(kernel.poles, complex), kernel, gamma, r)[0]
        assert np.all(log_v == -np.inf), log_v

    @pytest.mark.parametrize(
        "poles, gamma, r, sigma",
        [
            ((1.0,), 100.0, 1.0, 0.0),
            ((1.0,), 1000.0, 4.0, 0.0),
            ((0.5, 1.0, 2.0), 300.0, 2.0, 0.0),
            ((0.5, 1.0, 2.0), 100.0, 1.0, 0.25),
            ((1.0,), 30.0, 1.0, 0.5),
        ],
    )
    def test_logpolar_matches_mpmath(self, poles, gamma, r, sigma):
        # Re w_j runs from below 0 to 1e15 on the axis and stays below 690
        # on the lines, so the cases cross Re w = 0, where each factor
        # starts to be scaled by e^{Re w}; arg V is compared modulo
        # 2 pi where m max_j |Im w_j|, to which its rounding is relative,
        # leaves it meaningful to 1e-8
        mpmath = pytest.importorskip("mpmath")
        alpha = gamma ** (-r)
        om = np.concatenate(([0.0], np.geomspace(alpha * 1e-3, alpha * 1e3, 200)))
        z = sigma + 1j * om
        got_log, got_ph = v_logpolar(z, AnticausalKernel(poles), gamma, r)
        want_log, want_ph, im_w = v_logpolar_mpmath(z, poles, gamma, r)
        phase_scale = np.maximum(1.0, len(poles) * im_w)
        with mpmath.workdps(50):
            for k in range(z.size):
                assert abs(got_log[k] - float(want_log[k])) <= 1e-14 * max(1.0, abs(float(want_log[k]))), k
                if phase_scale[k] < 1e6:
                    turn = (mpmath.mpf(got_ph[k]) - want_ph[k]) % (2 * mpmath.pi)
                    assert float(min(turn, 2 * mpmath.pi - turn)) <= 1e-14 * phase_scale[k], k

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
        s, dev = v_minus_one(om, KERNEL, 100.0, 4.0)
        assert not s.any()
        expected = np.exp(factor_exponent(1j * om, 1.0, 100.0, 4.0).real)
        assert np.all(np.abs(dev) == pytest.approx(expected, rel=1e-10))
        # naive evaluation would round these ~1e-44 deviations to zero
        assert 0 < abs(dev[0]) < 1e-40

    @pytest.mark.parametrize("omega", [0.5, 1e-3])
    def test_scalar_point_reads_as_one_node(self, omega):
        # a scalar point gives the 0-d value of the one-node array, on both
        # sides of Re w = 0 (Re w ~ 490 at omega = 1e-3)
        kernel = AnticausalKernel((0.5, 1.0))
        for got, want in (
            (v_minus_one(omega, kernel, 10.0, 4.0), v_minus_one(np.array([omega]), kernel, 10.0, 4.0)),
            (v_logpolar(1j * omega, kernel, 10.0, 4.0), v_logpolar(np.array([1j * omega]), kernel, 10.0, 4.0)),
        ):
            assert [x.shape for x in got] == [(), ()]
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


GRID_256 = make_grid(256, 0.05)
CFG_256 = GeneratorConfig(seed=1, grid=GRID_256)


@functools.cache
def _x0_256():
    return sample_class_member(DEFAULT_CLASS, CFG_256)


# Every real-valued argument the package checks, each through
# spectral._real: (test id, the name its error gives, a call that passes v
# as that argument, a valid fraction, a valid integer or None)
REAL_ARGUMENTS = [
    ("delta_t", "delta_t", lambda v: make_grid(256, v), 0.07, 1),
    ("q", "q", lambda v: DegeneracyClass(v, 1.0), 2.3, 3),
    ("c", "c", lambda v: DegeneracyClass(2.0, v), 0.7, 2),
    ("gamma", "gamma", lambda v: build_predictor(KERNEL, v, 4.0, GRID_256), 12.3, 10),
    ("r", "r", lambda v: build_predictor(KERNEL, 10.0, v, GRID_256), 3.3, 4),
    ("pole", "pole", lambda v: AnticausalKernel((v,)), 0.7, 2),
    ("numerator", "numerator coefficient", lambda v: AnticausalKernel((1.0, 2.0), (v,)), 0.3, -1),
    ("v-factor-pole", "pole", lambda v: eval_v_factor(1j, v, 10.0, 4.0), 0.7, 2),
    ("v-factor-gamma", "gamma", lambda v: eval_v_factor(1j, 1.0, v, 4.0), 12.3, 10),
    ("v-factor-r", "r", lambda v: eval_v_factor(1j, 1.0, 10.0, v), 3.3, 4),
    ("line-witness-gamma", "gamma", lambda v: line_witness(KERNEL, v, 4.0), 12.3, 10),
    ("line-witness-r", "r", lambda v: line_witness(KERNEL, 10.0, v), 4.3, 4),
    ("find-gamma0-r", "r", lambda v: find_gamma0(KERNEL, DEFAULT_CLASS, v, GRID_256), 3.3, 4),
    ("sigma", "sigma", lambda v: transfer(KERNEL, GRID_256, v), 0.3, -1),
    (
        "noise",
        "noise intensity",
        lambda v: robustness_experiment(KERNEL, 10.0, 4.0, _x0_256(), [v], CFG_256),
        0.03,
        1,
    ),
    ("sweep-gammas", "gamma", lambda v: counterexample_experiment(0.5, KERNEL, (v,), GRID_256, r=4.0), 12.3, 10),
    ("band-lo", "band lo", lambda v: GeneratorConfig(seed=1, grid=GRID_256, band=(v, 20.0)), 1.3, 1),
    ("band-hi", "band hi", lambda v: GeneratorConfig(seed=1, grid=GRID_256, band=(1.0, v)), 20.3, 20),
    ("omega_bar", "omega_bar", lambda v: sample_bandlimited(v, CFG_256), 5.3, 5),
    ("split", "split frequency a", lambda v: counterexample_experiment(v, KERNEL, (10.0,), GRID_256, r=4.0), 0.7, 1),
    (
        "bracket-lo",
        "bracket lo",
        lambda v: find_gamma0(KERNEL, DEFAULT_CLASS, 4.0, GRID_256, bracket=(v, 2000.0)),
        0.7,
        1,
    ),
    (
        "bracket-hi",
        "bracket hi",
        lambda v: find_gamma0(KERNEL, DEFAULT_CLASS, 4.0, GRID_256, bracket=(0.5, v)),
        1500.3,
        1500,
    ),
    ("q_bad", "q_bad", lambda v: nonpredictability_demo(v, 1.0, KERNEL, (10.0,), CFG_256, 2.5, size=1), 0.3, None),
]

# Every argument that takes a list of real numbers, each through
# spectral._sequence: (test id, the name its error gives, a call that passes
# v as that list)
LIST_ARGUMENTS = [
    ("poles", "poles", lambda v: AnticausalKernel(v)),
    ("numerator", "numerator", lambda v: AnticausalKernel((1.0,), v)),
    (
        "sweep-gammas",
        "gammas",
        lambda v: gamma_sweep(KERNEL, DEFAULT_CLASS, v, 4.0, make_class_ensemble(DEFAULT_CLASS, CFG_256, 1)),
    ),
    ("counterexample-gammas", "gammas", lambda v: counterexample_experiment(0.5, KERNEL, v, GRID_256, r=4.0)),
    (
        "negative-gammas",
        "gammas",
        lambda v: nonpredictability_demo(0.5, 1.0, KERNEL, v, CFG_256, 2.5, size=1),
    ),
    ("nus", "nus", lambda v: robustness_experiment(KERNEL, 10.0, 4.0, _x0_256(), v, CFG_256)),
    ("bracket", "bracket", lambda v: find_gamma0(KERNEL, DEFAULT_CLASS, 4.0, GRID_256, bracket=v)),
]


def _bits(obj):
    """``obj`` down to the bytes of its arrays and the reprs of its scalars,
    each with its type."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, _bits(v)) for k, v in obj.items())
    return type(obj).__name__, repr(obj)


class TestRealArguments:
    @pytest.mark.parametrize(
        "value",
        [True, np.True_, math.nan, math.inf, -math.inf, "1.0", 10**400],
        ids=["True", "numpy-True", "nan", "inf", "-inf", "string", "beyond-float"],
    )
    @pytest.mark.parametrize(
        "name, call", [pytest.param(name, call, id=ident) for ident, name, call, *_ in REAL_ARGUMENTS]
    )
    def test_bool_is_not_a_number(self, name, call, value):
        # True would otherwise pass as 1.0, and "1.0" as the float it spells;
        # an integer beyond the float range is out of every range
        pattern = rf"^{re.escape(name)} must be a finite real number in [\[(]\S+, \S+\), got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=pattern):
            call(value)

    @pytest.mark.parametrize("value", [10, 0.05, "12", {1.0: 2.0}], ids=["int", "float", "string", "mapping"])
    @pytest.mark.parametrize(
        "name, call", [pytest.param(name, call, id=ident) for ident, name, call in LIST_ARGUMENTS]
    )
    def test_list_argument_must_be_a_list(self, name, call, value):
        # a number would otherwise raise TypeError, a string be read as its
        # characters and a mapping as its keys
        pattern = rf"^{re.escape(name)} must be a list of numbers, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=pattern):
            call(value)

    def test_integer_beyond_float_range(self):
        # float(10**400) raises OverflowError; _real gives its ValueError
        pattern = r"^x must be a finite real number in \(0\.0, inf\), got 10{400}$"
        with pytest.raises(ValueError, match=pattern):
            spectral._real("x", 10**400)

    @pytest.mark.parametrize(
        "call, value",
        [
            pytest.param(call, kind(integer if kind is np.int64 else fraction), id=f"{ident}-{kind.__name__}")
            for ident, _, call, fraction, integer in REAL_ARGUMENTS
            for kind in (np.int64, np.float32, np.float64)
            if integer is not None or kind is not np.int64
        ],
    )
    def test_numpy_scalars_are_their_floats(self, call, value):
        # every entry point computes with float(value): a float32 argument
        # is widened, not carried into the arithmetic or the result
        assert _bits(call(value)) == _bits(call(float(value)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_class_ensemble(DEFAULT_CLASS, CFG_256, True),
            lambda: nonpredictability_demo(0.5, 1.0, KERNEL, (10.0,), CFG_256, 2.5, size=True),
        ],
        ids=["ensemble-size", "negative-size"],
    )
    def test_bool_is_not_an_integer(self, make):
        with pytest.raises(ValueError, match=r"^ensemble size must be an integer, got True$"):
            make()


def test_bool_checks_have_six_owners():
    # the real-valued arguments share spectral._real; the integers n, seed
    # and size keep their one check each; the CLI's schema and the report
    # formatter tell bools from numbers for their own ends
    owners = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*path, child.name))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and any(
                    isinstance(n, ast.Name) and n.id == "bool" or isinstance(n, ast.Attribute) and n.attr == "bool_"
                    for n in ast.walk(child.args[1])
                )
            ):
                owners.add(".".join(path))
            visit(child, path)

    for path in Path(spectral.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    assert owners == {
        "spectral._real",
        "spectral.FrequencyGrid.__post_init__",
        "signals.GeneratorConfig.__post_init__",
        "signals._enveloped_member",
        "cli._matches",
        "reports.format_value",
    }


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

    @pytest.mark.parametrize("gamma", [10.0, 30.0])
    def test_half_rate_node_is_the_real_part_of_v_times_k(self, gamma):
        # node n/2 stands for both +-omega_max: the average of K_hat's
        # conjugate pair there is Re(V K), not Re(V) * Re(K)
        grid = make_grid(256, 0.1)
        w = math.pi / grid.delta_t
        want = (eval_v_factor(1j * w, 1.0, gamma, 4.0) / (1j * w - 1.0)).real
        pt = build_predictor(KERNEL, gamma, 4.0, grid)
        assert abs(pt.khat_values[-1] - want) <= 1e-13 * abs(want)
        # the log-polar fields carry the same real value
        assert pt.khat_phase[-1] in (0.0, math.pi)
        assert math.exp(pt.khat_log_mag[-1]) * math.cos(pt.khat_phase[-1]) == pytest.approx(want, rel=1e-13)

    def test_kappa_sup_is_grid_max(self, small_grid):
        pt = build_predictor(KERNEL, 12.0, 0.8, small_grid)
        assert pt.kappa_sup == pytest.approx(np.max(np.abs(pt.khat_values)))

    def test_saturation_flagged_and_clamped(self):
        g = make_grid(2**12, 0.01)
        pt = build_predictor(KERNEL, 100.0, 4.0, g)
        assert pt.any_saturated
        assert np.all(np.isfinite(pt.khat_values[~pt.saturated].view(float)))
        assert math.isfinite(pt.kappa_sup)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([2**8, 2**10, 2**12]),
        delta_t=st.floats(-2.0, 0.0).map(lambda e: 10.0**e),
        poles=st.one_of(
            st.just((0.01, 0.005)),
            st.lists(st.sampled_from([0.005, 0.01, 0.3, 1.0, 2.0, 3.5]), min_size=1, max_size=3, unique=True),
        ),
        numerator=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=1),
        gamma=st.floats(math.log10(0.5), 3.0).map(lambda e: 10.0**e),
        r=st.floats(0.3, 5.0),
    )
    def test_one_clamp_at_e700(self, n, delta_t, poles, numerator, gamma, r):
        # every stored K_hat lies within e^700 up to the rounding of
        # e^700 e^{i arg K_hat}, exactly the nodes with log|K_hat| > 700 are
        # clamped (node n/2 keeps the real part of its clamped value), the
        # others hold |K_hat| itself, and the gain reads the clamp wherever
        # one node is
        pt = build_predictor(AnticausalKernel(tuple(poles), tuple(numerator)), gamma, r, make_grid(n, delta_t))
        assert np.all(np.isfinite(pt.khat_values.view(float)))
        assert np.all(np.abs(pt.khat_values) <= math.exp(700) * (1 + 2**-50))
        sat = pt.saturated
        assert np.array_equal(sat, pt.khat_log_mag > 700.0)
        assert np.abs(pt.khat_values[:-1][sat[:-1]]) == pytest.approx(math.exp(700), rel=2**-50, abs=0.0)
        with np.errstate(under="ignore"):
            unclamped = np.exp(pt.khat_log_mag[~sat])
        assert np.abs(pt.khat_values[~sat]) == pytest.approx(unclamped, rel=1e-12, abs=1e-300)
        if pt.any_saturated:
            assert pt.kappa_sup == math.exp(700)

    def test_pointwise_convergence_in_gamma(self, small_grid):
        devs = []
        om = small_grid.omegas()
        k = int(np.argmin(np.abs(om - 1.0)))
        for gamma in (10.0, 100.0, 1000.0, 10000.0):
            s, d = v_minus_one(np.array([om[k]]), KERNEL, gamma, 4.0)
            dev = abs(d[0] * np.exp(s[0]))
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

    @pytest.mark.parametrize("n, dt", [(2**16, 0.01), (4096, 0.02), (1024, 0.1)])
    @pytest.mark.parametrize("pole", [0.01, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("gamma", [3.0, 10.0, 14.0, 30.0, 100.0])
    @pytest.mark.parametrize("r", [4.0, 1.0])
    def test_one_pole_tail_is_its_first_node(self, n, dt, pole, gamma, r):
        # for one pole V - 1 is f_1 = -e^{w_1}, and |f_1| = exp(-gamma u)
        # falls with omega (docs/numerics.md), so the tail maximum is the
        # factor deviation at the first node at or above the floor pole / 2,
        # inside the band at r = 1 for some configurations
        grid = make_grid(n, dt)
        pt = build_predictor(AnticausalKernel((pole,)), gamma, r, grid)
        om = _half_omegas(grid)
        o1 = om[np.searchsorted(om, 0.5 * pole)]
        want = float(np.abs(np.exp(factor_exponent(1j * o1, pole, gamma, r))))
        assert lemma_check(pt, DegeneracyClass(2.0, 1.0)).tail_dev_max == want

    def test_overflowed_tail_reads_inf(self):
        # at pole 0.01 and r = 0.63, gamma^-r is near 0.8 pole at gamma 2000,
        # so the first nodes above the floor 0.005 sit where a factor
        # overflows: |V - 1| = |D| e^s leaves the double range
        grid = make_grid(2**15, 0.1)
        kernel, cls = AnticausalKernel((0.01,)), DegeneracyClass(5.0, 1.0)
        devs = []
        for gamma in (10.0, 2000.0):
            pt = build_predictor(kernel, gamma, 0.63, grid)
            rep = lemma_check(pt, cls)
            assert rep.tail_dev_max == lemma_tail_dev_stacked(pt)
            assert repr(rep) == repr(lemma_check_full_grid(pt, cls))
            devs.append(rep.tail_dev_max)
        om = np.abs(_half_omegas(grid))
        s, d = v_minus_one(om[om >= 0.005], kernel, 2000.0, 0.63)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.any(np.isinf(np.abs(d * np.exp(s))))
        assert math.isfinite(devs[0]) and devs[1] == math.inf

    def test_low_band_log_domain_bound(self):
        # gamma small enough that the band contains many nodes
        g = make_grid(2**14, 0.01)
        pt = build_predictor(KERNEL, 2.0, 4.0, g)
        rep = lemma_check(pt, DegeneracyClass(2.0, 1.0))
        assert rep.low_band_nodes > 10
        assert rep.pass_low_band

    def test_rejects_out_of_band_floor(self):
        # the floor, half the largest pole, lies beyond omega_max = 314.16
        g = make_grid(2**10, 0.01)
        pt = build_predictor(AnticausalKernel((1.0, 1000.0)), 10.0, 1.0, g)
        with pytest.raises(ValueError, match=r"^lemma tail floor max_pole / 2 must be .* got 500\.0$"):
            lemma_check(pt, DegeneracyClass(2.0, 1.0))

    def test_gamma0_located(self):
        g = make_grid(2**14, 0.01)
        g0 = find_gamma0(KERNEL, DegeneracyClass(2.0, 1.0), 4.0, g, bracket=(0.5, 2000.0))
        assert math.isfinite(g0) and g0 >= 0.5
        for gamma in (max(g0, 10.0), 100.0, 1000.0):
            rep = lemma_check(build_predictor(KERNEL, gamma, 4.0, g), DegeneracyClass(2.0, 1.0))
            assert rep.pass_low_band

    def test_gamma0_failing_at_the_ceiling_is_a_numerical_failure(self):
        # at r = 0.5 the low-band bound of X(2, 1e-6) fails at gamma 5
        cls = DegeneracyClass(2.0, 1e-6)
        with pytest.raises(NumericalFailure) as info:
            find_gamma0(KERNEL, cls, 0.5, make_grid(4096, 0.05), bracket=(1, 5))
        assert str(info.value) == "low-band bound fails at the bracket ceiling 5.0"
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bracket", [(5.0, 1.0), (0.5,), 5])
    def test_malformed_gamma0_bracket_stays_a_value_error(self, bracket):
        with pytest.raises(ValueError) as info:
            find_gamma0(KERNEL, DegeneracyClass(2.0, 1e-6), 0.5, make_grid(4096, 0.05), bracket=bracket)
        assert not isinstance(info.value, NumericalFailure)

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
            # the band covers the whole grid, the unpaired omega_max node
            # included, with the floor 5 below omega_max = 6.28
            ((10.0,), 0.5, 4.0, DegeneracyClass(2.0, 1.0), make_grid(64, 0.5)),
        ],
    )
    def test_edge_configurations_match_full_grid(self, poles, gamma, r, cls, grid):
        pt = build_predictor(AnticausalKernel(poles), gamma, r, grid)
        assert repr(lemma_check(pt, cls)) == repr(lemma_check_full_grid(pt, cls))


class TestHighBandFlags:
    """lemma_check reads pass_positivity and pass_factor_dev at the first node
    above the band edge alone (predictor._high_band_flags): both quantities
    are monotone in |omega|, so the flags equal the full-grid oracle's, which
    reads every node.  The helper is read directly, as most of these kernels
    put lemma_check's tail floor, half the largest pole, past omega_max."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([2**8, 2**9, 2**10, 2**11, 2**12, 2**13]),
        delta_t=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
        poles=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=3).filter(
            lambda ps: all(abs(a - b) > 1e-9 * max(ps) for i, a in enumerate(ps) for b in ps[:i])
        ),
        gamma=st.floats(math.log10(0.3), 3.0).map(lambda e: 10.0**e),
        r=st.floats(0.3, 5.0),
    )
    def test_flags_match_full_grid(self, n, delta_t, poles, gamma, r):
        pt = build_predictor(AnticausalKernel(tuple(poles)), gamma, r, make_grid(n, delta_t))
        assert predictor._high_band_flags(pt) == high_band_flags_full_grid(pt)

    @pytest.mark.parametrize("gamma, r", [(10.0, 1.0), (3.0, 0.5), (100.0, 2.0)])
    @pytest.mark.parametrize("k", [1, 20, 300])
    @pytest.mark.parametrize("ulps", range(-3, 4))
    def test_flags_at_the_band_edge_match_full_grid(self, gamma, r, k, ulps):
        # the pole fl(omega_k^2 / alpha), moved by a few ulps, puts the band
        # edge sqrt(a alpha) at node k, on either side of it or on it
        grid = make_grid(4096, 0.05)
        pole = float(_half_omegas(grid)[k]) ** 2 / gamma ** (-r)
        for _ in range(abs(ulps)):
            pole = math.nextafter(pole, math.copysign(math.inf, ulps))
        pt = build_predictor(AnticausalKernel((pole,)), gamma, r, grid)
        assert predictor._high_band_flags(pt) == high_band_flags_full_grid(pt)

    def test_edge_an_ulp_below_the_first_node_fails_the_factor_bound(self):
        # the pole is one ulp below omega_1^2 / alpha, so the edge sits one ulp
        # below node 1; there Re w ~ -2.3e-14 is below the rounding of the
        # division (|w| ~ 3.1e4) and |e^w| reads 1.0: the flag is computed,
        # not taken as True above the edge
        grid = make_grid(4096, 0.05)
        pole = 9.412388230409007
        assert math.nextafter(pole, math.inf) == float(_half_omegas(grid)[1]) ** 2 / 100.0 ** (-2.0)
        pt = build_predictor(AnticausalKernel((pole,)), 100.0, 2.0, grid)
        assert predictor._high_band_flags(pt) == (True, False)
        assert high_band_flags_full_grid(pt) == (True, False)
        rep = lemma_check(pt, DegeneracyClass(2.0, 1.0))
        assert (rep.pass_positivity, rep.pass_factor_dev) == (True, False)


class TestVMinusOneAccumulation:
    """v_minus_one's recurrence D <- D + f_j (1 + D) is within 8 rounding
    units of (1 + max_j |w_j|) (prod_j (1 + |f_j|) - 1) of the mpmath value
    of prod_j (1 + f_j) - 1 at each finite node, plus 8 m 2^-1074 for the
    absolute rounding of exponentials in the subnormal range.  At the nodes
    of overflowed products |D e^s| reads +inf, and s + log|D| is within 4
    rounding units of log|V - 1|.  Where every e^{w_j} lies below the normal
    range, D e^s underflows, and s + log|D| meets log|V - 1| within the same
    8-unit bound divided by |V - 1|."""

    OMEGAS = make_grid(2**16, 0.01).omegas()
    # node 0, the band and its edge densely, the tail sparsely
    NODES = np.unique(np.r_[0, np.geomspace(1, 2**15, 80).astype(int)])

    @pytest.mark.parametrize("poles", [(1.0,), (0.5, 1.0), (0.5, 1.0, 2.0), (0.3, 0.7, 1.5, 3.0)])
    @pytest.mark.parametrize("gamma", [10.0, 14.0, 100.0, 1000.0])
    @pytest.mark.parametrize("r", [4.0, 0.6])
    def test_matches_mpmath(self, poles, gamma, r):
        mpmath = pytest.importorskip("mpmath")
        log_scale, dev = v_minus_one(self.OMEGAS, AnticausalKernel(poles), gamma, r)
        with np.errstate(over="ignore", invalid="ignore"):
            got = dev * np.exp(log_scale)
        nodes = self.NODES[np.isfinite(got[self.NODES])]
        want, scale = v_minus_one_mpmath(self.OMEGAS[nodes], poles, gamma, r)
        for k, d, s in zip(nodes, want, scale):
            err = abs(mpmath.mpc(got[k]) - d)
            assert err <= 8 * (s * mpmath.mpf(2) ** -53 + len(poles) * mpmath.mpf(2) ** -1074), k
            if log_scale[k] < 0.0:
                # D e^s underflows: the same bound, relative to |V - 1|, on s + log|D|
                got_log = log_scale[k] + math.log(abs(dev[k]))
                assert abs(got_log - mpmath.log(abs(d))) <= 8 * s * mpmath.mpf(2) ** -53 / abs(d), k
        over = np.setdiff1d(self.NODES, nodes)
        want, _ = v_minus_one_mpmath(self.OMEGAS[over], poles, gamma, r)
        for k, v in zip(over, want):
            log_dev = mpmath.log(abs(v))
            got_log = log_scale[k] + math.log(abs(dev[k]))
            assert abs(got_log - log_dev) <= 4 * abs(log_dev) * mpmath.mpf(2) ** -53, k
        if r == 0.6 and gamma >= 100.0:
            # overflowed products beyond the omega = 0 node
            assert np.count_nonzero(np.isinf(np.abs(got))) > 10
        # products below the normal range on the tail at gamma 1000 alone
        assert (np.count_nonzero(log_scale[self.NODES] < 0.0) > 10) == (gamma == 1000.0)


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
# |K(0)| = 2e4 > e^{9.78}: V K would overflow at omega = 0 even with |V|
# within e^700, so |K_hat| is clamped there; its poles lie below sigma = 0.25
_REPAIR_KERNEL = pytest.param((0.01, 0.005), (1.0,), id="poles[0.01, 0.005]-num[1.0]")
_GRIDS = [make_grid(4096, 0.01), make_grid(2**16, 0.01)]


class TestHalfNodePredictor:
    """build_predictor evaluates and keeps nodes 0..n/2; they equal those of
    the all-node evaluation in ``oracles`` bit for bit."""

    @pytest.mark.parametrize("grid", _GRIDS, ids=["n4096", "n65536"])
    @pytest.mark.parametrize("r", [4.0, 0.6])
    @pytest.mark.parametrize("gamma", [10.0, 30.0, 100.0, 300.0, 1000.0])
    @pytest.mark.parametrize("poles, numerator", [*_KERNELS, _REPAIR_KERNEL])
    def test_matches_full_grid(self, poles, numerator, gamma, r, grid):
        kernel = AnticausalKernel(poles, numerator)
        _assert_matches_full_grid(
            build_predictor(kernel, gamma, r, grid), build_predictor_full_grid(kernel, gamma, r, grid)
        )

    def test_covers_saturating_and_clean_configurations(self):
        grid = _GRIDS[1]
        assert build_predictor(KERNEL, 10.0, 4.0, grid).any_saturated
        assert not build_predictor(KERNEL, 10.0, 0.6, grid).any_saturated
        # V K would overflow at omega = 0, where |K_hat| is clamped at e^700
        pt = build_predictor(AnticausalKernel((0.01, 0.005)), 10.0, 4.0, grid)
        assert pt.saturated[0]
        assert np.all(np.isfinite(pt.khat_values.view(float)))
        assert pt.kappa_sup == math.exp(700)

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
        [
            ((1.0,), 10.0, 4.0, 2**16),
            ((1.0,), 30.0, 0.6, 2**16),
            ((0.5, 2.0), 15.0, 1.0, 4096),
            # the default grid at r = 4, where log|K_hat| peaks near
            # a * gamma^5: up to 1e15, at which a float64 log holds ~0.1
            ((1.0,), 300.0, 4.0, 2**16),
            ((1.0,), 1000.0, 4.0, 2**16),
            ((1.0, 2.0), 1000.0, 4.0, 2**16),
            ((0.5, 1.0, 2.0), 1000.0, 4.0, 2**16),
        ],
    )
    def test_weighted_half_sum_matches_full_grid(self, poles, gamma, r, n):
        grid = make_grid(n, 0.01)
        kernel = AnticausalKernel(poles)
        want = orthogonality_residual_full_grid(build_predictor_full_grid(kernel, gamma, r, grid))
        assert want > 1e-3
        got = orthogonality_residual(build_predictor(kernel, gamma, r, grid))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

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
        khat = transfer(kern, g, sigma)
        defect = _past_share(irfft_rows(khat, g))
        residual = _inner_ratio(g, transfer(kern, g, -sigma), khat)
        q = math.exp(-2.0 * (a - sigma) * g.delta_t)
        share_t0 = 0.25 / (0.25 + q / (1.0 - q))
        assert residual == pytest.approx(math.sqrt(1.0 - (sigma / a) ** 2), abs=1e-3)
        assert defect == pytest.approx(1.0 - share_t0, abs=1e-3)
        assert defect > 0.98

    @pytest.mark.parametrize("poles", [(1.0,), (0.5, 2.0), (0.01,)])
    @pytest.mark.parametrize("gamma", [10.0, 100.0])
    @pytest.mark.parametrize("r", [4.0, 0.6])
    def test_time_scale_covariance(self, poles, gamma, r):
        # slowing time by s maps the poles to a/s and r to r + ln s/ln gamma
        # (gamma^-r to s gamma^-r): sigma, the step and the ringing scale by
        # s, so the line grid keeps its n and both witnesses, ratios of
        # energies, keep their value.  A figure below 1e-14 is roundoff and
        # only stays roundoff (pole 1, gamma 10, r 4 reads 1.660349e-11 and
        # 1.342163e-06 at every s)
        base = line_witness(AnticausalKernel(poles), gamma, r)
        for s in (2.0, 0.5, 3.0):
            kernel = AnticausalKernel(tuple(a / s for a in poles))
            scaled = line_witness(kernel, gamma, r + math.log(s) / math.log(gamma))
            assert scaled.grid.n == base.grid.n, s
            assert scaled.sigma == pytest.approx(base.sigma / s, rel=1e-15), s
            for name in ("causality_defect", "orthogonality_residual"):
                want, got = getattr(base, name), getattr(scaled, name)
                assert want > 1e-12 or want < 1e-14, (name, want)
                if want > 1e-12:
                    assert got == pytest.approx(want, rel=1e-9, abs=0.0), (s, name)
                else:
                    assert got < 1e-14, (s, name)

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

    def test_half_rate_node_is_the_real_part_of_v_times_k(self, monkeypatch):
        # node n/2 of the line samples stands for sigma +- i*omega_max:
        # Re(V K) of the complex K there, as build_predictor takes it
        seen = []
        real = predictor._inner_ratio
        monkeypatch.setattr(predictor, "_inner_ratio", lambda g, m, khat: seen.append(khat) or real(g, m, khat))
        w = line_witness(KERNEL, 10.0, 4.0)
        khat = seen[0]
        ends = [w.sigma + 0j, complex(w.sigma, w.grid.omega_max)]
        vk = [eval_v_factor(z, 1.0, 10.0, 4.0) * _transfer_at(KERNEL, np.array([z]))[0] for z in ends]
        # samples are scaled by their peak: compare node n/2 to node 0
        want = vk[1].real / vk[0].real
        assert khat[-1].imag == 0.0
        assert abs(khat[-1].real / khat[0].real - want) <= 1e-13 * abs(want)

    def test_rejects_grid_beyond_budget(self):
        # poles 30x apart: the step follows the fast pole, the ringing the
        # slow one, and gamma = 1000 needs ~2^28 samples; the size check runs
        # before any array is allocated
        with pytest.raises(ValueError, match="budget"):
            line_witness(AnticausalKernel((0.1, 3.0), (1.0,)), 1000.0, 4.0)


def test_predictor_imports_no_full_grid_path():
    # the predictor stays on nodes 0..n/2: nothing it imports mirrors a half
    # spectrum onto n nodes or transforms samples
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
# spectral._half_sum and _log_half_sum moves no bit.  The line witness's was
# re-taken when its node n/2 became Re(V K), which moves its gamma = 10 pair.
# The residual's was re-taken when it became the line witness's inner
# product on a peak-scaled K_hat: its log-domain form subtracted two logs
# near a * gamma^5 and read 0.0552988 with relative errors of 3.3e-12 to
# 2.0e-2 from gamma 10 to 1000; every gamma now reads 0.05529877573429793.
# The line witness's and the lemma's were re-taken when v_logpolar formed
# each factor as e^m (e^{-m} - e^{w - m}), m = max(Re w, 0), in place of
# 1 - e^w: the rounding moves where 0 < Re w.  The line figures above 1e-14
# moved at most 9.4e-12 relative (those below are roundoff), and
# low_band_margin at most 6.5e-13 (-17.27595592414848 -> -17.27595592413724)
HALF_SUM_DIGESTS = {
    "orthogonality_residual": "1b9689a5175a2323dc5959ce84b48628e3476b8997871ba61abbea7873045d1f",
    "line_witness": "9e2a08633a825f003fa7d1173c69b7a3b6fd58367f86d09555a01ece42735ce9",
    "lemma_check": "6d6bfce280f7a9cc258aa1d45c0dfa0629ed91968efe33fa47d356740bef8942",
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
