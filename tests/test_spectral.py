import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series
from specpredict import (
    SpectralSeries,
    Spectrum,
    TimeSeries,
    forward_transform,
    inverse_transform,
    make_grid,
    norm,
    to_centered,
)
from specpredict import spectral
from specpredict.spectral import MAX_GRID_N, FrequencyGrid, irfft_rows, rfft_rows

from oracles import (
    forward_transform_n_node,
    hermitian_symmetrize,
    idft_direct,
    inverse_transform_n_node,
)


class TestMakeGrid:
    def test_derived_quantities_small(self):
        g = make_grid(8, 1.0)
        assert g.delta_omega == pytest.approx(2 * math.pi / 8)
        assert g.omega_max == pytest.approx(math.pi)

    def test_derived_quantities_large(self):
        g = make_grid(1024, 0.01)
        assert g.span == pytest.approx(10.24)
        assert g.omega_max == pytest.approx(100 * math.pi)

    @pytest.mark.parametrize("n", [7, 6, 0, -8, 24, 2])
    def test_rejects_bad_sample_count(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 1.0)

    @pytest.mark.parametrize("n", [2**25, 2**34])
    def test_rejects_grids_above_cap(self, n):
        # validation only: the grid's arrays are never built
        with pytest.raises(ValueError, match="at most"):
            FrequencyGrid(n, 0.01)

    def test_accepts_the_cap(self):
        assert FrequencyGrid(MAX_GRID_N, 0.01).n == 2**24

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_bad_step(self, dt):
        with pytest.raises(ValueError):
            make_grid(8, dt)

    def test_node_layout(self):
        g = make_grid(16, 0.5)
        om = g.omegas()
        assert np.count_nonzero(om == 0.0) == 1
        centered = g.omegas_centered()
        assert centered[0] == pytest.approx(-g.omega_max)
        assert centered[-1] == pytest.approx(g.omega_max - g.delta_omega)
        assert np.allclose(np.diff(centered), g.delta_omega)
        # product identity delta_omega * n * delta_t = 2 pi
        assert g.delta_omega * g.n * g.delta_t == pytest.approx(2 * math.pi)

    def test_reindexing_helpers_invert(self):
        g = make_grid(32, 0.1)
        v = np.arange(32.0)
        assert np.array_equal(np.fft.ifftshift(to_centered(v)), v)
        assert np.array_equal(to_centered(g.omegas()), g.omegas_centered())


class TestForwardTransform:
    def test_zero_signal(self, small_grid):
        X = forward_transform(TimeSeries(small_grid, np.zeros(small_grid.n)))
        assert np.all(X.values == 0)

    def test_gaussian_pair(self):
        # closed-form transform of exp(-t^2/2) is sqrt(2 pi) exp(-w^2/2)
        g = make_grid(2**13, 0.05)
        t = g.times()
        X = forward_transform(TimeSeries(g, np.exp(-(t**2) / 2) + 0j))
        om = g.omegas()
        sel = np.abs(om) <= 3.0
        exact = math.sqrt(2 * math.pi) * np.exp(-(om[sel] ** 2) / 2)
        assert np.max(np.abs(X.values[sel] - exact) / exact) < 1e-6

    def test_real_input_gives_hermitian_spectrum(self, small_grid):
        x = random_series(small_grid, 11, complex_valued=False)
        assert forward_transform(x).is_hermitian

    def test_matches_direct_summation(self, small_grid):
        x = random_series(small_grid, 3)
        X = forward_transform(x)
        direct = small_grid.delta_t * np.array(
            [np.sum(np.exp(-1j * w * small_grid.times()) * x.samples) for w in small_grid.omegas()]
        )
        assert np.max(np.abs(X.values - direct)) < 1e-9 * np.max(np.abs(direct))


class TestInverseTransform:
    def test_round_trip(self, small_grid):
        x = random_series(small_grid, 17)
        back = inverse_transform(forward_transform(x))
        assert norm(TimeSeries(small_grid, back.samples - x.samples), 2) <= 1e-9 * norm(x, 2)

    def test_hermitian_spectrum_gives_real_output(self, small_grid):
        X = hermitian_symmetrize(
            Spectrum(small_grid, np.exp(1j * np.linspace(0, 5, small_grid.n)))
        )
        x = inverse_transform(X)
        assert x.is_real

    def test_flat_spectrum_is_discrete_delta(self):
        g = make_grid(64, 0.25)
        x = inverse_transform(Spectrum(g, np.ones(g.n)))
        oracle = idft_direct(np.ones(g.n), g)
        assert np.max(np.abs(x.samples - oracle)) < 1e-12 / g.delta_t
        expected = np.zeros(g.n)
        expected[g.n // 2] = 1.0 / g.delta_t
        assert np.max(np.abs(x.samples - expected)) < 1e-9 / g.delta_t


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log2n=st.integers(3, 6))
def test_round_trip_property(seed, log2n):
    g = make_grid(2**log2n, 0.37)
    x = random_series(g, seed)
    back = inverse_transform(forward_transform(x))
    assert np.max(np.abs(back.samples - x.samples)) <= 1e-9 * (1 + np.max(np.abs(x.samples)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_parseval_property(seed):
    g = make_grid(128, 0.11)
    x = random_series(g, seed)
    X = forward_transform(x)
    time_energy = norm(x, 2) ** 2
    freq_energy = g.delta_omega / (2 * math.pi) * float(np.sum(np.abs(X.values) ** 2))
    assert freq_energy == pytest.approx(time_energy, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_linearity_property(seed, a, b):
    g = make_grid(64, 0.2)
    x = random_series(g, seed)
    z = random_series(g, seed + 1)
    lhs = forward_transform(TimeSeries(g, a * x.samples + b * z.samples)).values
    rhs = a * forward_transform(x).values + b * forward_transform(z).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_real_iff_hermitian(seed):
    g = make_grid(64, 0.2)
    x_real = random_series(g, seed, complex_valued=False)
    assert forward_transform(x_real).is_hermitian
    X = hermitian_symmetrize(forward_transform(random_series(g, seed)))
    assert inverse_transform(X).is_real


class TestNorm:
    def test_zero(self, small_grid):
        z = TimeSeries(small_grid, np.zeros(small_grid.n))
        assert norm(z, 2) == 0.0
        assert norm(z, math.inf) == 0.0

    def test_single_sample_indicator(self, small_grid):
        s = np.zeros(small_grid.n)
        s[10] = 1.0
        x = TimeSeries(small_grid, s)
        assert norm(x, math.inf) == 1.0
        assert norm(x, 2) == pytest.approx(math.sqrt(small_grid.delta_t))

    def test_gaussian_against_quadrature(self):
        quad = pytest.importorskip("scipy.integrate")
        g = make_grid(2**12, 0.05)
        t = g.times()
        x = TimeSeries(g, np.exp(-(t**2) / 2) + 0j)
        exact_sq = quad.quad(lambda s: math.exp(-(s**2)), -40, 40)[0]
        assert norm(x, 2) == pytest.approx(math.sqrt(exact_sq), rel=1e-6)
        assert norm(x, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_other_p(self, small_grid):
        with pytest.raises(ValueError):
            norm(TimeSeries(small_grid, np.zeros(small_grid.n)), 3)


class TestHermitianSymmetrize:
    def test_idempotent_on_hermitian(self, small_grid):
        x = random_series(small_grid, 23, complex_valued=False)
        X = forward_transform(x)
        out = hermitian_symmetrize(X)
        assert np.max(np.abs(out.values - X.values)) < 1e-12 * np.max(np.abs(X.values))

    def test_splits_one_sided_line(self, small_grid):
        v = np.zeros(small_grid.n, dtype=complex)
        v[5] = 2.0 + 1.0j
        out = hermitian_symmetrize(Spectrum(small_grid, v)).values
        assert out[5] == pytest.approx((2.0 + 1.0j) / 2)
        assert out[small_grid.n - 5] == pytest.approx((2.0 - 1.0j) / 2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_output_inverts_to_real(self, seed):
        g = make_grid(64, 0.2)
        X = forward_transform(random_series(g, seed))
        sym = hermitian_symmetrize(X)
        assert sym.is_hermitian
        assert inverse_transform(sym).is_real


class TestTypeInvariants:
    def test_series_length_checked(self, small_grid):
        with pytest.raises(ValueError):
            TimeSeries(small_grid, np.zeros(small_grid.n - 1))
        with pytest.raises(ValueError):
            Spectrum(small_grid, np.zeros(small_grid.n + 1))

    def test_samples_read_only(self, small_grid):
        x = random_series(small_grid, 2)
        with pytest.raises(ValueError):
            x.samples[0] = 0.0

    def test_is_real_flag(self, small_grid):
        assert TimeSeries(small_grid, np.ones(small_grid.n)).is_real
        assert not TimeSeries(small_grid, np.ones(small_grid.n) * (1 + 1e-6j)).is_real

    def test_real_input_stored_as_float64_complex_as_complex128(self, small_grid):
        n = small_grid.n
        for values in (np.ones(n), np.arange(n), np.ones(n, dtype=np.float32), [0.5] * n):
            x = TimeSeries(small_grid, values)
            assert x.samples.dtype == np.float64 and x.is_real
            assert not x.samples.flags.writeable
        for values in (np.ones(n) + 0j, np.ones(n, dtype=np.complex64), [0.5 + 1j] * n):
            x = TimeSeries(small_grid, values)
            assert x.samples.dtype == np.complex128
            assert not x.samples.flags.writeable

    def test_samples_are_copied(self, small_grid):
        values = np.ones(small_grid.n)
        x = TimeSeries(small_grid, values)
        values[0] = 2.0
        assert x.samples[0] == 1.0

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_float_storage_transforms_like_complex_storage(self, n):
        grid = make_grid(n, 0.01)
        rng = np.random.Generator(np.random.Philox(n))
        samples = rng.standard_normal(n)
        real, cplx = TimeSeries(grid, samples), TimeSeries(grid, samples + 0j)
        assert real.samples.dtype == np.float64 and cplx.samples.dtype == np.complex128
        assert forward_transform(real).values.tobytes() == forward_transform(cplx).values.tobytes()

    def test_spectral_series_keeps_its_spectrum_read_only(self, small_grid):
        half = forward_transform(random_series(small_grid, 3)).values[: small_grid.n // 2 + 1]
        half = half.copy()
        x = SpectralSeries(small_grid, half)
        assert x.spectrum is half and not half.flags.writeable
        assert x.is_real
        samples = x.samples
        assert samples.dtype == np.float64 and not samples.flags.writeable
        assert samples.tobytes() == irfft_rows(half, small_grid).tobytes()
        with pytest.raises(ValueError, match="spectrum must have shape"):
            SpectralSeries(small_grid, np.zeros(small_grid.n, dtype=complex))

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)], ids=["nan", "inf", "-inf", "complex-nan"]
    )
    def test_rejects_non_finite_samples(self, bad):
        grid = make_grid(8, 1.0)
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(grid, [bad] * 8)
        one_bad = [0.0] * 8
        one_bad[3] = bad
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(grid, one_bad)


class TestRowTransforms:
    @staticmethod
    def _rows(n):
        rng = np.random.Generator(np.random.Philox(n))
        return rng.standard_normal((3, n))

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_rfft_rows_matches_forward_transform(self, n):
        grid = make_grid(n, 0.01)
        rows = self._rows(n)
        half = rfft_rows(rows, grid)
        assert half.shape == (3, n // 2 + 1)
        for row, got2d in zip(rows, half):
            want = forward_transform(TimeSeries(grid, row)).values[: n // 2 + 1]
            peak = np.max(np.abs(want))
            assert np.max(np.abs(got2d - want)) <= 1e-15 * peak
            assert np.max(np.abs(rfft_rows(row, grid) - want)) <= 1e-15 * peak

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_irfft_rows_matches_inverse_transform(self, n):
        grid = make_grid(n, 0.01)
        spectra = [forward_transform(TimeSeries(grid, row)).values for row in self._rows(n)]
        half = np.stack([X[: n // 2 + 1] for X in spectra])
        rows = irfft_rows(half, grid)
        assert rows.shape == (3, n) and rows.dtype == np.float64
        for X, h, got2d in zip(spectra, half, rows):
            want = inverse_transform(Spectrum(grid, X)).samples
            peak = np.max(np.abs(want))
            assert np.max(np.abs(got2d - want)) <= 1e-15 * peak
            assert np.max(np.abs(irfft_rows(h, grid) - want)) <= 1e-15 * peak

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_round_trip(self, n):
        grid = make_grid(n, 0.01)
        rows = self._rows(n)
        back = irfft_rows(rfft_rows(rows, grid), grid)
        assert np.max(np.abs(back - rows)) <= 1e-15 * np.max(np.abs(rows))
        back1d = irfft_rows(rfft_rows(rows[0], grid), grid)
        assert np.max(np.abs(back1d - rows[0])) <= 1e-15 * np.max(np.abs(rows[0]))

    def test_row_of_a_stack_equals_the_row_alone(self):
        grid = make_grid(2**12, 0.01)
        rows = self._rows(grid.n)
        half = rfft_rows(rows, grid)
        back = irfft_rows(half, grid)
        for i, row in enumerate(rows):
            assert rfft_rows(row, grid).tobytes() == half[i].tobytes()
            assert irfft_rows(half[i], grid).tobytes() == back[i].tobytes()

    def test_rejects_wrong_lengths(self, small_grid):
        with pytest.raises(ValueError):
            rfft_rows(np.zeros(small_grid.n // 2), small_grid)
        with pytest.raises(ValueError):
            irfft_rows(np.zeros((2, small_grid.n)), small_grid)


class TestSignVectors:
    def test_cached_read_only_per_grid(self):
        a, b = make_grid(256, 0.05), make_grid(256, 0.05)
        assert a is not b
        signs, scaled = spectral._signs(a)
        assert spectral._signs(b)[0] is signs and spectral._signs(b)[1] is scaled
        assert not signs.flags.writeable and not scaled.flags.writeable
        # nodes 0..n/2 only; the complex pair mirrors them onto the rest
        assert signs.tolist() == [1.0, -1.0] * 64 + [1.0]
        assert scaled.tobytes() == (0.05 * signs).tobytes()
        assert spectral._signs(make_grid(256, 0.1))[1] is not scaled

    @pytest.mark.parametrize("n, dt", [(8, 1.0), (256, 0.05), (2**16, 0.01), (2**18, 0.05)])
    def test_half_omegas_are_the_first_nodes_of_omegas(self, n, dt):
        grid = make_grid(n, dt)
        om = spectral._half_omegas(grid)
        assert not om.flags.writeable
        assert om.tobytes() == grid.omegas()[: n // 2 + 1].tobytes()
        assert om[-1] == -grid.omega_max
        assert spectral._half_nodes(grid)[0].tobytes() == np.abs(om).tobytes()

    def test_in_place_scaling_matches_out_of_place(self):
        # the complex pair reads the (n/2+1)-node tables through the mirror
        # and equals the products with the n-node table, signed zeros on
        # both sides of node n/2 included
        grid = make_grid(256, 0.05)
        signs = np.where(np.arange(grid.n) % 2 == 0, 1.0, -1.0)
        x = random_series(grid, 4).samples.copy()
        x[:5] = [0.0, -0.0, 0.0j, -0.0 - 0.0j, 1e-320]
        x[126:134] = [0.0, -0.0, 0.0j, -0.0 - 0.0j, complex(0.0, -0.0), complex(-0.0, 0.0), -0.0, 0.0]
        x[-4:] = [-0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 0.0]
        X = Spectrum(grid, x)
        assert forward_transform(TimeSeries(grid, x)).values.tobytes() == (
            forward_transform_n_node(x, grid).tobytes()
        )
        assert inverse_transform(X).samples.tobytes() == inverse_transform_n_node(x, grid).tobytes()
        h = grid.n // 2 + 1
        assert rfft_rows(x.real, grid).tobytes() == (
            grid.delta_t * signs[:h] * np.fft.rfft(x.real)
        ).tobytes()
        assert irfft_rows(x[:h], grid).tobytes() == (
            np.fft.irfft(signs[:h] * x[:h], n=grid.n) / grid.delta_t
        ).tobytes()


def _mirrored(half, n):
    """The n-node array of an even function of omega from nodes 0..n/2: node
    k holds node min(k, n - k)."""
    k = np.arange(n)
    return half[np.minimum(k, n - k)]


class TestHalfNodeQuadrature:
    def test_gaussian_l1_against_quadrature(self):
        # the grid L1 norm delta_omega * sum_k |X_k| of an even spectrum
        quad = pytest.importorskip("scipy.integrate")
        g = make_grid(2**12, 0.05)
        values = np.exp(-(spectral._half_nodes(g)[0] ** 2) / 2)
        exact = quad.quad(lambda w: math.exp(-(w**2) / 2), -60, 60)[0]
        assert g.delta_omega * spectral._half_sum(values, g) == pytest.approx(exact, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log2n=st.integers(3, 8))
    def test_half_sum_is_the_sum_over_all_nodes(self, seed, log2n):
        n = 2**log2n
        grid = make_grid(n, 0.1)
        rng = np.random.default_rng(seed)
        # integer values: both sums are exact, so they agree bit for bit
        values = rng.integers(-1000, 1001, n // 2 + 1).astype(float)
        mask = rng.random(n // 2 + 1) < 0.5
        full = _mirrored(values, n)
        assert spectral._half_sum(values, grid) == np.sum(full)
        assert spectral._half_sum(values[mask], grid, mask) == np.sum(full[_mirrored(mask, n)])
        assert spectral._half_sum(values[1:3], grid, slice(1, 3)) == 2.0 * (values[1] + values[2])
        assert spectral._half_sum(1.0, grid, mask) == np.count_nonzero(_mirrored(mask, n))
        positive = rng.random(n // 2 + 1)
        want = math.fsum(_mirrored(positive, n))
        assert spectral._half_sum(positive, grid) == pytest.approx(want, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log2n=st.integers(3, 8))
    def test_log_half_sum_is_the_log_of_the_sum(self, seed, log2n):
        n = 2**log2n
        grid = make_grid(n, 0.1)
        rng = np.random.default_rng(seed)
        logs = rng.uniform(-30.0, 30.0, n // 2 + 1)
        logs[1:][rng.random(n // 2) < 0.2] = -np.inf  # zero terms
        want = math.log(spectral._half_sum(np.exp(logs), grid))
        assert spectral._log_half_sum(logs, grid) == pytest.approx(want, rel=1e-13, abs=1e-13)
        # past the double range the linear sum overflows and the log one does not
        big = logs + 1000.0
        with np.errstate(over="ignore"):
            assert math.isinf(spectral._half_sum(np.exp(big), grid))
        assert spectral._log_half_sum(big, grid) == pytest.approx(want + 1000.0, rel=1e-13)

    def test_log_half_sum_of_no_mass_is_minus_inf(self):
        grid = make_grid(8, 0.1)
        assert spectral._log_half_sum(np.full(5, -np.inf), grid) == -math.inf
        assert spectral._logsumexp(np.array([])) == -math.inf


def _quadrature_bypasses(source: str) -> list:
    """Lines of ``source`` that read the node weights, by a call of
    ``_half_nodes`` not indexed [0], or that name ``_logsumexp``."""
    tree = ast.parse(source)
    radii = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
    }

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)

    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if name(node) == "_logsumexp"
            or (isinstance(node, ast.Call) and name(node.func) == "_half_nodes" and id(node) not in radii)
        }
    )


def test_only_spectral_reads_node_weights():
    # one quadrature: outside spectral, sums over nodes 0..n/2 go through
    # _half_sum and _log_half_sum, and only |omega| is read from _half_nodes
    probe = "w = _half_nodes(g)[1]\nom, w = spectral._half_nodes(g)\nfrom .spectral import _logsumexp\nm._logsumexp(v)\n"
    assert _quadrature_bypasses(probe) == [1, 2, 3, 4]
    assert _quadrature_bypasses("om = spectral._half_nodes(g)[0]") == []
    modules = [p for p in Path(spectral.__file__).parent.glob("*.py") if p.name != "spectral.py"]
    assert len(modules) >= 9
    found = {p.name: _quadrature_bypasses(p.read_text(encoding="utf-8")) for p in modules}
    assert not any(found.values()), found
