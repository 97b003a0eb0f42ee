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
    TimeSeries,
    forward_transform,
    make_grid,
    norm,
)
from specpredict import spectral
from specpredict.spectral import MAX_GRID_N, FrequencyGrid, irfft_rows, rfft_rows

from oracles import (
    forward_transform_n_node,
    hermitian_full,
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
        centered = np.fft.fftshift(om)
        assert centered[0] == pytest.approx(-g.omega_max)
        assert centered[-1] == pytest.approx(g.omega_max - g.delta_omega)
        assert np.allclose(np.diff(centered), g.delta_omega)
        # product identity delta_omega * n * delta_t = 2 pi
        assert g.delta_omega * g.n * g.delta_t == pytest.approx(2 * math.pi)

    @pytest.mark.parametrize("n, dt", [(8, 1.0), (256, 0.05), (2**16, 0.01)])
    def test_time_ranges_are_slices_of_the_time_nodes(self, n, dt):
        g = make_grid(n, dt)
        t = g.times()
        assert t.tobytes() == ((np.arange(n) - n // 2) * dt).tobytes()
        for start, stop in [(0, n), (0, 3), (n // 2 - 1, n // 2 + 2), (n - 5, n), (4, 4)]:
            assert g.times(start, stop).tobytes() == t[start:stop].tobytes()

    @pytest.mark.parametrize("n, dt", [(8, 1.0), (256, 0.05), (2**16, 0.01), (2**18, 0.37)])
    def test_omegas_are_fftfreq_bit_for_bit(self, n, dt):
        g = make_grid(n, dt)
        assert g.omegas().tobytes() == (2 * math.pi * np.fft.fftfreq(n, d=dt)).tobytes()


class TestForwardTransform:
    def test_zero_signal(self, small_grid):
        X = forward_transform(TimeSeries(small_grid, np.zeros(small_grid.n)))
        assert X.spectrum.shape == (small_grid.n // 2 + 1,) and np.all(X.spectrum == 0)

    def test_gaussian_pair(self):
        # closed-form transform of exp(-t^2/2) is sqrt(2 pi) exp(-w^2/2)
        g = make_grid(2**13, 0.05)
        t = g.times()
        X = forward_transform(TimeSeries(g, np.exp(-(t**2) / 2)))
        om = g.omegas()[: g.n // 2 + 1]
        sel = np.abs(om) <= 3.0
        exact = math.sqrt(2 * math.pi) * np.exp(-(om[sel] ** 2) / 2)
        assert np.max(np.abs(X.spectrum[sel] - exact) / exact) < 1e-6

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_equals_the_first_nodes_of_the_n_node_oracle(self, n):
        grid = make_grid(n, 0.05)
        x = random_series(grid, 11)
        full = forward_transform_n_node(x.samples, grid)
        peak = np.max(np.abs(full))
        assert np.max(np.abs(forward_transform(x).spectrum - full[: n // 2 + 1])) <= 1e-15 * peak
        # a real signal's spectrum is conjugate-symmetric: nodes 0..n/2 hold it all
        assert np.max(np.abs(full[n // 2 + 1 :] - np.conj(full[n // 2 - 1 : 0 : -1]))) <= 1e-15 * peak

    def test_matches_direct_summation(self, small_grid):
        x = random_series(small_grid, 3)
        X = forward_transform(x)
        direct = small_grid.delta_t * np.array(
            [
                np.sum(np.exp(-1j * w * small_grid.times()) * x.samples)
                for w in small_grid.omegas()[: small_grid.n // 2 + 1]
            ]
        )
        assert np.max(np.abs(X.spectrum - direct)) < 1e-9 * np.max(np.abs(direct))


class TestInverseTransform:
    def test_round_trip(self, small_grid):
        x = random_series(small_grid, 17)
        back = forward_transform(x).samples
        assert norm(TimeSeries(small_grid, back - x.samples), 2) <= 1e-9 * norm(x, 2)

    def test_half_spectrum_inverts_as_its_conjugate_mirror(self, small_grid):
        half = np.exp(1j * np.linspace(0, 5, small_grid.n // 2 + 1))
        half[[0, -1]] = half[[0, -1]].real
        want = inverse_transform_n_node(hermitian_full(half), small_grid)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(want.imag)) <= 1e-15 * peak
        assert np.max(np.abs(SpectralSeries(small_grid, half).samples - want.real)) <= 1e-15 * peak

    def test_flat_spectrum_is_discrete_delta(self):
        g = make_grid(64, 0.25)
        x = SpectralSeries(g, np.ones(g.n // 2 + 1))
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
    back = forward_transform(x).samples
    assert np.max(np.abs(back - x.samples)) <= 1e-9 * (1 + np.max(np.abs(x.samples)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_parseval_property(seed):
    g = make_grid(128, 0.11)
    x = random_series(g, seed)
    X = forward_transform(x)
    time_energy = norm(x, 2) ** 2
    freq_energy = g.delta_omega / (2 * math.pi) * spectral._half_sum(np.abs(X.spectrum) ** 2, g)
    assert freq_energy == pytest.approx(time_energy, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_linearity_property(seed, a, b):
    g = make_grid(64, 0.2)
    x = random_series(g, seed)
    z = random_series(g, seed + 1)
    lhs = forward_transform(TimeSeries(g, a * x.samples + b * z.samples)).spectrum
    rhs = a * forward_transform(x).spectrum + b * forward_transform(z).spectrum
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


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
        x = TimeSeries(g, np.exp(-(t**2) / 2))
        exact_sq = quad.quad(lambda s: math.exp(-(s**2)), -40, 40)[0]
        assert norm(x, 2) == pytest.approx(math.sqrt(exact_sq), rel=1e-6)
        assert norm(x, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_other_p(self, small_grid):
        with pytest.raises(ValueError):
            norm(TimeSeries(small_grid, np.zeros(small_grid.n)), 3)


class TestTypeInvariants:
    def test_series_length_checked(self, small_grid):
        with pytest.raises(ValueError):
            TimeSeries(small_grid, np.zeros(small_grid.n - 1))
        with pytest.raises(ValueError):
            SpectralSeries(small_grid, np.zeros(small_grid.n // 2))

    def test_samples_read_only(self, small_grid):
        x = random_series(small_grid, 2)
        with pytest.raises(ValueError):
            x.samples[0] = 0.0

    def test_real_input_stored_as_float64(self, small_grid):
        n = small_grid.n
        for values in (np.ones(n), np.arange(n), np.ones(n, dtype=np.float32), [0.5] * n):
            x = TimeSeries(small_grid, values)
            assert x.samples.dtype == np.float64
            assert not x.samples.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [
            np.ones(8) + 0j,
            np.ones(8, dtype=np.complex64),
            [0.5 + 0j] * 8,
            [0.5 + 1j] * 8,
            [complex(0.0, math.nan)] * 8,
        ],
        ids=["complex128-zero-imag", "complex64", "python-complex", "python-complex-imag", "complex-nan"],
    )
    def test_rejects_complex_samples(self, values):
        with pytest.raises(ValueError, match="samples must be real"):
            TimeSeries(make_grid(8, 1.0), values)

    def test_samples_are_copied(self, small_grid):
        values = np.ones(small_grid.n)
        x = TimeSeries(small_grid, values)
        values[0] = 2.0
        assert x.samples[0] == 1.0

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_forward_transform_is_rfft_rows(self, n):
        grid = make_grid(n, 0.01)
        rng = np.random.Generator(np.random.Philox(n))
        samples = rng.standard_normal(n)
        X = forward_transform(TimeSeries(grid, samples))
        assert isinstance(X, SpectralSeries) and X.grid == grid
        assert X.spectrum.tobytes() == rfft_rows(samples, grid).tobytes()

    def test_spectral_series_keeps_its_spectrum_read_only(self, small_grid):
        half = forward_transform(random_series(small_grid, 3)).spectrum.copy()
        x = SpectralSeries(small_grid, half)
        assert x.spectrum is half and not half.flags.writeable
        samples = x.samples
        assert samples.dtype == np.float64 and not samples.flags.writeable
        assert samples.tobytes() == irfft_rows(half, small_grid).tobytes()
        with pytest.raises(ValueError, match="spectrum must have shape"):
            SpectralSeries(small_grid, np.zeros(small_grid.n, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
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
    def test_rfft_rows_matches_the_n_node_oracle(self, n):
        grid = make_grid(n, 0.01)
        rows = self._rows(n)
        half = rfft_rows(rows, grid)
        assert half.shape == (3, n // 2 + 1)
        for row, got2d in zip(rows, half):
            want = forward_transform_n_node(row, grid)[: n // 2 + 1]
            peak = np.max(np.abs(want))
            assert np.max(np.abs(got2d - want)) <= 1e-15 * peak
            assert np.max(np.abs(rfft_rows(row, grid) - want)) <= 1e-15 * peak

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_irfft_rows_matches_the_n_node_oracle(self, n):
        grid = make_grid(n, 0.01)
        spectra = [forward_transform_n_node(row, grid) for row in self._rows(n)]
        half = np.stack([X[: n // 2 + 1] for X in spectra])
        rows = irfft_rows(half, grid)
        assert rows.shape == (3, n) and rows.dtype == np.float64
        for X, h, got2d in zip(spectra, half, rows):
            want = inverse_transform_n_node(X, grid).real
            peak = np.max(np.abs(want))
            assert np.max(np.abs(got2d - want)) <= 1e-15 * peak
            assert np.max(np.abs(irfft_rows(h, grid) - want)) <= 1e-15 * peak

    @pytest.mark.parametrize("n", [8, 256, 2**16])
    def test_buffered_pair_equals_the_pair(self, n):
        # the generator's buffers: rfft_rows into ``out``, and the inverse of
        # a spectrum phased in place, give the bytes of the plain pair
        grid = make_grid(n, 0.01)
        row = self._rows(n)[0]
        half = rfft_rows(row, grid)
        out = np.empty(n // 2 + 1, dtype=complex)
        assert rfft_rows(row, grid, out=out) is out and out.tobytes() == half.tobytes()
        samples = np.empty(n)
        out *= spectral._signs(grid)[0]
        assert spectral._irfft_phased(out, grid, out=samples) is samples
        assert samples.tobytes() == irfft_rows(half, grid).tobytes()

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
        # nodes 0..n/2 only
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
        # the pair scales by the cached (n/2+1)-node tables in place, and
        # equals the products with a fresh table, signed zeros included
        grid = make_grid(256, 0.05)
        h = grid.n // 2 + 1
        signs = np.where(np.arange(h) % 2 == 0, 1.0, -1.0)
        x = random_series(grid, 4).samples.copy()
        x[:5] = [0.0, -0.0, 0.0, -0.0, 1e-320]
        x[-4:] = [-0.0, 0.0, -0.0, 0.0]
        rng = np.random.Generator(np.random.Philox(5))
        half = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        half[:5] = [0.0, -0.0, 0.0j, -0.0 - 0.0j, complex(0.0, -0.0)]
        half[-4:] = [complex(-0.0, 0.0), complex(-0.0, -0.0), -0.0, 0.0]
        want = (grid.delta_t * signs * np.fft.rfft(x)).tobytes()
        assert rfft_rows(x, grid).tobytes() == want
        assert forward_transform(TimeSeries(grid, x)).spectrum.tobytes() == want
        want = (np.fft.irfft(signs * half, n=grid.n) / grid.delta_t).tobytes()
        assert irfft_rows(half, grid).tobytes() == want
        assert SpectralSeries(grid, half).samples.tobytes() == want


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


def _numpy_reads(source: str, module: str) -> set:
    """What ``source`` reads of numpy's submodule ``module`` ("fft",
    "random"): the names read as ``np.<module>.<name>`` or
    ``numpy.<module>.<name>``, ``module`` for the submodule itself read any
    other way, and "import" for an import of it."""
    tree = ast.parse(source)

    def is_module(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == module
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )

    named = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and is_module(node.value)}
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and is_module(node.value)}
    reads |= {module for node in ast.walk(tree) if is_module(node) and id(node) not in named}
    dotted = f"numpy.{module}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.startswith(dotted) for a in node.names):
            reads.add("import")
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith(dotted)
            or (node.module == "numpy" and any(a.name == module for a in node.names))
        ):
            reads.add("import")
    return reads


def _src_reads(module: str) -> dict:
    """:func:`_numpy_reads` of every module of the package, by file name."""
    modules = {p.name: p for p in Path(spectral.__file__).parent.glob("*.py")}
    assert len(modules) >= 10
    return {name: _numpy_reads(p.read_text(encoding="utf-8"), module) for name, p in modules.items()}


def test_only_spectral_calls_the_fast_transform():
    # one transform pair: the real half-spectrum transforms, in spectral alone
    probe = "a = np.fft.fft(x)\nb = numpy.fft.rfft(x)\nf = np.fft\nfrom numpy import fft\nimport numpy.fft\n"
    assert _numpy_reads(probe, "fft") == {"fft", "rfft", "import"}
    assert _numpy_reads("y = np.fft.irfft(v, n=8)\nz = x.fft", "fft") == {"irfft"}
    found = _src_reads("fft")
    assert found.pop("spectral.py") == {"rfft", "irfft"}
    assert not any(found.values()), found


def test_no_module_reads_numpy_random():
    # signals computes the Philox stream itself, so no run loads numpy.random
    probe = "g = np.random.default_rng(1)\nr = numpy.random\nfrom numpy.random import Philox\n"
    assert _numpy_reads(probe, "random") == {"default_rng", "random", "import"}
    assert _numpy_reads("from numpy import random", "random") == {"import"}
    assert _numpy_reads("import numpy.random as npr\nx = np.fft.rfft(v)", "random") == {"import"}
    found = _src_reads("random")
    assert not any(found.values()), found
