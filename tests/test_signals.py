import collections.abc
import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specpredict
from specpredict import (
    DegeneracyClass,
    GeneratorConfig,
    SpectralSeries,
    TimeSeries,
    class_norm,
    counterexample_pair,
    forward_transform,
    make_class_ensemble,
    make_grid,
    norm,
    sample_bandlimited,
    sample_class_member,
)
from specpredict import signals
from specpredict.degeneracy import log_weight
from specpredict.experiments import default_grid
from specpredict.signals import _guard_window, _noise_spectrum
from specpredict.spectral import _half_nodes

from oracles import (
    guard_window_reference,
    hermitian_defect,
    hermitian_full,
    hermitian_phases_reference,
    philox_key,
)

GRID = make_grid(2**12, 0.02)
HALF_OMEGAS = GRID.omegas()[: GRID.n // 2 + 1]
CLS = DegeneracyClass(2.0, 1.0)


def cfg(seed=0, **kw):
    return GeneratorConfig(seed=seed, grid=GRID, **kw)


class TestDegeneracyClass:
    @pytest.mark.parametrize("q", [1.0, 0.5, 0.99, -2.0])
    def test_rejects_inadmissible_q(self, q):
        with pytest.raises(ValueError):
            DegeneracyClass(q, 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_rejects_inadmissible_c(self, c):
        with pytest.raises(ValueError):
            DegeneracyClass(2.0, c)

    def test_min_sharpness(self):
        assert DegeneracyClass(2.0, 1.0).min_sharpness_exponent == pytest.approx(2.0)
        assert DegeneracyClass(5.0, 1.0).min_sharpness_exponent == pytest.approx(0.5)


class TestWeight:
    """The class weight exp(c/|omega|^q), read through ``log_weight``."""

    def test_value_at_unit_frequency(self):
        assert math.exp(log_weight(np.array([1.0]), CLS.q, CLS.c)[0]) == pytest.approx(math.e)

    def test_limit_at_high_frequency(self):
        assert math.exp(log_weight(np.array([1e9]), CLS.q, CLS.c)[0]) == pytest.approx(1.0)

    def test_infinite_at_origin(self):
        assert log_weight(np.array([0.0]), CLS.q, CLS.c)[0] == math.inf

    @pytest.mark.parametrize("q", [0.5, 1.5, 2.0, 3.0, 5.0])
    def test_one_buffer_form_matches_the_masked_power(self, q):
        def masked(omega, q, c):
            # the form before the result was formed in the buffer of |omega|
            om = np.abs(np.asarray(omega, dtype=float))
            out = np.full(om.shape, np.inf)
            nz = om > 0.0
            out[nz] = c * om[nz] ** (-q)
            return out

        extremes = np.array([0.0, 1e-300, 5e-324, 1e300])
        for omega in (HALF_OMEGAS, -HALF_OMEGAS, GRID.omegas(), extremes, -extremes):
            with np.errstate(over="ignore"):
                want, got = masked(omega, q, 1.3), log_weight(omega, q, 1.3)
            assert want.tobytes() == got.tobytes()

    def test_log_form_avoids_overflow(self):
        lw = log_weight(np.array([1e-3]), 2.0, 1.0)
        assert lw[0] == pytest.approx(1e6)
        # the weight itself, e^(1e6), is beyond the double range
        assert math.isfinite(lw[0]) and lw[0] > math.log(np.finfo(float).max)


class TestClassNorm:
    def test_zero_signal(self):
        assert class_norm(TimeSeries(GRID, np.zeros(GRID.n)), CLS) == 0.0

    def test_exact_envelope_has_unit_norm(self):
        om = HALF_OMEGAS
        vals = np.where(
            (np.abs(om) > 0) & (np.abs(om) <= 1.0), np.exp(-log_weight(om, 2.0, 1.0)), 0.0
        )
        x = SpectralSeries(GRID, vals)
        assert class_norm(TimeSeries(GRID, x.samples), CLS) == pytest.approx(
            1.0, rel=1e-5
        )

    def test_white_signal_is_not_a_member(self):
        rng = np.random.Generator(np.random.Philox(5))
        white = TimeSeries(GRID, rng.standard_normal(GRID.n))
        assert class_norm(white, CLS) == math.inf

    def test_samples_are_read_with_the_error_channel_floor(self):
        # one roundoff floor: a series that arrives as samples is read on the
        # half spectrum the error channel takes of it, where the roundoff at
        # omega = 0 is an exact zero; content above the floor there exits
        from specpredict.experiments import _member_half

        samples = sample_class_member(CLS, cfg(3)).samples
        x = TimeSeries(GRID, samples)
        X = _member_half(x, GRID)
        assert X[0] == 0.0 and forward_transform(x).spectrum[0] != 0.0
        assert class_norm(x, CLS) == class_norm(SpectralSeries(GRID, X), CLS) < math.inf
        offset = TimeSeries(GRID, samples + 1e-6 * np.max(np.abs(samples)))
        assert class_norm(offset, CLS) == math.inf


class TestClassMember:
    def test_finite_class_norm(self):
        # read on the stored spectrum, which the clip leaves on the envelope
        # at some node, exactly
        x = sample_class_member(CLS, cfg(1))
        assert class_norm(x, CLS) == 1.0

    def test_deterministic(self):
        a = sample_class_member(CLS, cfg(42))
        b = sample_class_member(CLS, cfg(42))
        assert np.array_equal(a.samples, b.samples)
        c = sample_class_member(CLS, cfg(43))
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("kw", [{}, dict(band=(0.2, 5.0))])
    def test_ensemble_rows_equal_single_draws(self, kw):
        base = cfg(2026, **kw)
        ensemble = make_class_ensemble(CLS, base, 10)
        for i, x in enumerate(ensemble):
            alone = sample_class_member(CLS, dataclasses.replace(base, seed=base.seed + i))
            assert np.array_equal(x.samples, alone.samples), i

    def test_real_output(self):
        x = sample_class_member(CLS, cfg(2))
        assert isinstance(x, SpectralSeries) and x.samples.dtype == np.float64

    def test_deep_degeneracy_bound(self):
        # emitted spectrum obeys |X| <= exp(-c/w^q) exactly, so near w = 0.1
        # the content is at the e^{-100} scale, far below roundoff
        x = sample_class_member(CLS, cfg(3))
        X = forward_transform(x).spectrum
        om = np.abs(HALF_OMEGAS)
        node = int(np.argmin(np.abs(om - 0.1)))
        floor = 1e-12 * np.max(np.abs(X))
        assert abs(X[node]) <= max(math.exp(-1.0 / om[node] ** 2), floor)

    def test_degeneracy_inequality_at_every_node(self):
        # evaluated above a spectral roundoff floor; the floor keeps roundtrip
        # junk (absolute ~1e-16 of the peak) out of the enormous weights
        x = sample_class_member(CLS, cfg(4))
        X = forward_transform(x).spectrum
        om = HALF_OMEGAS
        mags = np.abs(X)
        floor = 1e-10 * np.max(mags)
        live = mags > floor
        live[0] = False
        weighted = mags[live] * np.exp(np.minimum(log_weight(om[live], CLS.q, CLS.c), 700.0))
        assert np.max(weighted) <= 1.0 + 1e-2

    def test_middle_half_guard(self):
        # guard quality needs a window long enough for the Gaussian taper
        # edge to outrun the envelope edge; T ~ 655 gives ~1e-7
        g = make_grid(2**14, 0.04)
        x = sample_class_member(CLS, GeneratorConfig(seed=5, grid=g))
        t = g.times()
        guard = np.abs(t) > g.span / 4
        peak = np.max(np.abs(x.samples))
        assert np.max(np.abs(x.samples[guard])) <= 1e-5 * peak


# sha256 of the samples of the ten default-grid members at each ensemble
# seed, concatenated; taken when members still stored their samples
DEFAULT_MEMBER_DIGESTS = {
    2026: "84aa15dac4eb396bae1e11856da5d8b70804e152ecdbfdc786a4a1ee7ae4d2c0",
    7: "c9aa74d1f1b90a7194e3f50ff38ec9796e0a7dfaedcb35a21dda1a7b6b947d48",
}


@pytest.fixture(scope="module", params=sorted(DEFAULT_MEMBER_DIGESTS))
def default_members(request):
    """(seed, the ten members of the default configuration at that seed)."""
    cfg_default = GeneratorConfig(seed=request.param, grid=default_grid())
    return request.param, make_class_ensemble(CLS, cfg_default, 10)


class TestLazyEnsemble:
    """An ensemble is its seeds: a read draws the member, bit for bit the
    member that iteration draws."""

    SIZE = 5

    @pytest.fixture(scope="class")
    @classmethod
    def drawn(cls):
        return [x.spectrum for x in make_class_ensemble(CLS, cfg(2026), cls.SIZE)]

    def test_is_a_read_only_sequence(self):
        ensemble = make_class_ensemble(CLS, cfg(2026), self.SIZE)
        assert isinstance(ensemble, collections.abc.Sequence)
        assert len(ensemble) == self.SIZE
        with pytest.raises(TypeError):
            ensemble[0] = ensemble[1]

    def test_index_reads_match_iteration(self, drawn):
        ensemble = make_class_ensemble(CLS, cfg(2026), self.SIZE)
        for i in range(-self.SIZE, self.SIZE):
            assert ensemble[i].spectrum.tobytes() == drawn[i].tobytes(), i

    @pytest.mark.parametrize("i", [5, -6, 2**64])
    def test_index_out_of_range(self, i):
        with pytest.raises(IndexError):
            make_class_ensemble(CLS, cfg(2026), self.SIZE)[i]

    @pytest.mark.parametrize(
        "part", [slice(1, 4), slice(None, None, -1), slice(4, None, -2), slice(0, 5, 3), slice(2, 2)]
    )
    def test_slices_hold_the_sliced_seeds(self, drawn, part):
        ensemble = make_class_ensemble(CLS, cfg(2026), self.SIZE)
        sliced = ensemble[part]
        assert type(sliced) is type(ensemble) and len(sliced) == len(drawn[part])
        assert [x.spectrum.tobytes() for x in sliced] == [X.tobytes() for X in drawn[part]]

    def test_every_read_draws(self, monkeypatch):
        ensemble = make_class_ensemble(CLS, cfg(7), 3)
        seeds = []
        real = signals._generator
        monkeypatch.setattr(signals, "_generator", lambda c, stream: seeds.append(c.seed) or real(c, stream))
        ensemble[1], ensemble[-2]
        list(ensemble)
        assert seeds == [8, 8, 7, 8, 9]


class TestDefaultMembers:
    def test_samples_are_read_only_and_unchanged(self, default_members):
        seed, members = default_members
        digest = hashlib.sha256()
        for x in members:
            samples = x.samples
            assert samples.dtype == np.float64 and not samples.flags.writeable
            digest.update(samples.tobytes())
        assert digest.hexdigest() == DEFAULT_MEMBER_DIGESTS[seed]

    def test_class_norm_is_exactly_one(self, default_members):
        _, members = default_members
        assert [class_norm(x, CLS) for x in members] == [1.0] * len(members)


class TestGuardWindow:
    @pytest.mark.parametrize(
        "n, dt", [(8, 0.3), (1024, 0.05), (2**12, 0.02), (2**13, 0.7), (2**16, 0.01), (2**17, 0.003)]
    )
    def test_blocks_match_the_all_node_formula(self, n, dt):
        grid = make_grid(n, dt)
        assert _guard_window(grid).tobytes() == guard_window_reference(grid).tobytes()

    def test_matches_scipy_erfc_oracle(self):
        special = pytest.importorskip("scipy.special")
        g = default_grid()
        t = np.abs(g.times())
        t_flat, t_zero = g.span / 16.0, g.span / 4.0
        sigma = (t_zero - t_flat) / 8.6
        ref = 0.5 * special.erfc((t - 0.5 * (t_flat + t_zero)) / (math.sqrt(2.0) * sigma))
        ref[t >= t_zero] = 0.0
        ref = ref / np.max(ref)
        w = _guard_window(g)
        live = ref != 0.0
        assert np.array_equal(w == 0.0, ~live)
        assert np.max(np.abs(w[live] - ref[live]) / ref[live]) <= 1e-14

    def test_cached_per_grid_and_read_only(self):
        w = _guard_window(make_grid(2**12, 0.02))
        assert _guard_window(make_grid(2**12, 0.02)) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_package_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(specpredict.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, specpredict; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestGeneratorConfig:
    @pytest.mark.parametrize("band", [(1.0,), (0.5, 1.0, 2.0), (), 1.0, ("a", "b"), (1.0, None)])
    def test_band_must_be_two_numbers(self, band):
        with pytest.raises(ValueError, match=r"^band must be two numbers \(lo, hi\)$"):
            GeneratorConfig(seed=0, grid=GRID, band=band)

    def test_band_must_be_interior(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, grid=GRID, band=(0.0, 1.0))
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, grid=GRID, band=(1.0, GRID.omega_max))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=-1, grid=GRID)

    def test_ensemble_seed_range_is_checked_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(signals, "_generator", lambda c, stream: drawn.append(c.seed))
        with pytest.raises(ValueError, match=r"member seeds 18446744073709551615\.\.18446744073709551616"):
            make_class_ensemble(CLS, GeneratorConfig(seed=2**64 - 1, grid=GRID), 2)
        assert drawn == []

    def test_ensemble_may_end_at_the_largest_seed(self):
        members = make_class_ensemble(CLS, GeneratorConfig(seed=2**64 - 2, grid=GRID), 2)
        assert len(members) == 2


# the seed's word boundaries: one 32-bit word, two, and the 64-bit extremes
PHILOX_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


class TestPhiloxStream:
    @pytest.mark.parametrize("n", [8, 16, 4096, 65536])
    @pytest.mark.parametrize("seed", PHILOX_SEEDS)
    def test_draw_is_numpy_randoms_byte_for_byte(self, n, seed):
        grid = make_grid(n, 0.01)
        cfg = GeneratorConfig(seed=seed, grid=grid)
        for stream in range(4):
            key = signals._generator(cfg, stream)
            assert key == philox_key(seed, stream)
            unit = signals._random_hermitian_phases(grid, key)
            assert unit.tobytes() == hermitian_phases_reference(grid, seed, stream).tobytes()


# sha256 of the samples, taken while the generators returned them as a
# TimeSeries: holding the last projection's half spectrum moves no sample
SAMPLE_DIGESTS = {
    "bandlimited seed 3": "6d344fe3aae2d20518494f115365f547aa2eb3b7a8c686e567a945e7b82cfad0",
    "bandlimited seed 8": "543bd2d0135fb0ab745b93b86de4925f0539bbc625be224a6f0f585cbb64ebc2",
    "pair seed 5, inner": "687220e91e5c7c1a667a2186f1f4a4d15f63cbc66796c970fcbf6b28ea2620fd",
    "pair seed 5, outer": "35d4108ed28dae60550a57a4512e1d1d3318508c744f1ebf4b9d6248bd3cf25c",
}


def _sample_digest(x) -> str:
    return hashlib.sha256(x.samples.tobytes()).hexdigest()


class TestBandlimited:
    def test_exact_support(self):
        x = sample_bandlimited(2.0, cfg(7))
        X = forward_transform(x).spectrum
        outside = np.abs(HALF_OMEGAS) > 2.0
        assert np.max(np.abs(X[outside])) < 1e-13 * np.max(np.abs(X))
        # the stored spectrum is exactly zero there, and at omega = 0
        assert isinstance(x, SpectralSeries)
        stored_outside = _half_nodes(GRID)[0] > 2.0
        assert not np.any(x.spectrum[stored_outside]) and x.spectrum[0] == 0.0

    def test_samples_unchanged(self):
        grid = default_grid()
        x3 = sample_bandlimited(2.0, GeneratorConfig(seed=3, grid=grid, band=(0.2, 2.0)))
        x8 = sample_bandlimited(GRID.delta_omega / 2, cfg(8))
        assert _sample_digest(x3) == SAMPLE_DIGESTS["bandlimited seed 3"]
        assert _sample_digest(x8) == SAMPLE_DIGESTS["bandlimited seed 8"]

    def test_subresolution_band_gives_fundamental_pair(self):
        x = sample_bandlimited(GRID.delta_omega / 2, cfg(8))
        X = forward_transform(x).spectrum
        big = np.abs(X) > 1e-8 * np.max(np.abs(X))
        populated = np.abs(HALF_OMEGAS)[big]
        assert np.allclose(populated, GRID.delta_omega)

    def test_membership_with_degeneracy_gap(self):
        member_cfg = cfg(9, band=(0.5, 2.0))
        x = sample_bandlimited(2.0, member_cfg)
        for q, c in [(2.0, 1.0), (1.5, 0.5), (3.0, 2.0)]:
            assert math.isfinite(class_norm(x, DegeneracyClass(q, c)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sample_bandlimited(GRID.omega_max, cfg(1))
        with pytest.raises(ValueError):
            sample_bandlimited(0.0, cfg(1))


class TestCounterexamplePair:
    def test_partition_of_unit_modulus(self):
        x1, x2 = counterexample_pair(0.5, cfg(10))
        X1 = forward_transform(x1).spectrum
        X2 = forward_transform(x2).spectrum
        mags = np.abs(X1) + np.abs(X2)
        assert np.max(np.abs(mags - 1.0)) < 1e-12
        assert np.max(np.abs(X1) * np.abs(X2)) < 1e-12

    def test_first_part_is_bandlimited(self):
        x1, _ = counterexample_pair(0.5, cfg(11))
        X1 = forward_transform(x1).spectrum
        outside = np.abs(HALF_OMEGAS) >= 0.5
        assert np.max(np.abs(X1[outside])) < 1e-13

    def test_grid_energy_identity(self):
        # Parseval of the unit-modulus split: total energy (1/2pi)*2*omega_max
        x1, x2 = counterexample_pair(0.5, cfg(12))
        total = norm(x1, 2) ** 2 + norm(x2, 2) ** 2
        assert total == pytest.approx(2 * GRID.omega_max / (2 * math.pi), rel=1e-10)

    def test_samples_unchanged(self):
        x1, x2 = counterexample_pair(0.5, GeneratorConfig(seed=5, grid=default_grid()))
        assert isinstance(x1, SpectralSeries) and isinstance(x2, SpectralSeries)
        assert _sample_digest(x1) == SAMPLE_DIGESTS["pair seed 5, inner"]
        assert _sample_digest(x2) == SAMPLE_DIGESTS["pair seed 5, outer"]

    def test_rejects_out_of_range_split(self):
        with pytest.raises(ValueError):
            counterexample_pair(GRID.omega_max * 1.1, cfg(1))


def _full_l1(half: np.ndarray) -> float:
    """delta_omega * sum of |X| over all n nodes of GRID, from nodes 0..n/2."""
    return GRID.delta_omega * float(np.sum(np.abs(hermitian_full(half))))


class TestNoiseSpectrum:
    def test_zero_intensity_is_zero(self):
        N = _noise_spectrum(0.0, cfg(13))
        assert N.shape == (GRID.n // 2 + 1,) and N.dtype == np.complex128
        assert np.all(N == 0)

    @settings(max_examples=15, deadline=None)
    @given(nu=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_exact_l1_calibration(self, nu, seed):
        assert _full_l1(_noise_spectrum(nu, cfg(seed))) == pytest.approx(nu, rel=1e-12)

    def test_flat_band_magnitude(self):
        # flat magnitude over 2K nodes means each carries nu / (2K delta_omega)
        band = (1.0, 2.0)
        om = np.abs(GRID.omegas())
        count = int(np.count_nonzero((om >= band[0]) & (om <= band[1])))
        N = _noise_spectrum(1.0, cfg(14, band=band))
        sel = np.abs(N) > 0
        # the band holds neither omega = 0 nor omega_max: K nodes of the half
        assert 2 * int(np.count_nonzero(sel)) == count
        assert np.allclose(np.abs(N[sel]), 1.0 / (count * GRID.delta_omega))

    def test_noise_is_real_in_time(self):
        N = _noise_spectrum(0.3, cfg(15))
        # nodes 0 and n/2 stand for themselves, so only their being real
        # makes the n-node spectrum hermitian
        assert N[0].imag == 0.0 and N[-1].imag == 0.0
        assert hermitian_defect(hermitian_full(N)) <= 1e-12

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            _noise_spectrum(-0.1, cfg(1))

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_rejects_non_finite_intensity(self, nu):
        with pytest.raises(ValueError, match="finite"):
            _noise_spectrum(nu, cfg(1))
