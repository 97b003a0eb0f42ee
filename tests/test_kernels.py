import json
import math

import numpy as np
import pytest

from conftest import compact_pulse
from specpredict import (
    AnticausalKernel,
    SpectralSeries,
    TimeSeries,
    apply_anticausal,
    forward_transform,
    make_grid,
    norm,
    residues,
    time_kernel,
    transfer,
)
from specpredict.kernels import kernel_to_dict

from oracles import (
    anticausal_transform_quadrature,
    forward_transform_n_node,
    hermitian_full,
    idft_direct,
    inverse_transform_n_node,
    linear_convolve,
    transfer_full_grid,
)


class TestKernelValidation:
    def test_rejects_empty_poles(self):
        with pytest.raises(ValueError):
            AnticausalKernel((), (1.0,))

    @pytest.mark.parametrize("pole", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_pole(self, pole):
        with pytest.raises(ValueError):
            AnticausalKernel((pole,), (1.0,))

    def test_rejects_repeated_poles(self):
        with pytest.raises(ValueError):
            AnticausalKernel((1.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            AnticausalKernel((2.0, 2.0 + 1e-15), (1.0,))

    def test_rejects_numerator_degree(self):
        with pytest.raises(ValueError):
            AnticausalKernel((1.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            AnticausalKernel((1.0, 2.0), ())

    def test_json_round_trip(self):
        k = AnticausalKernel((1.0, 2.5), (0.5, 1.0))
        text = json.dumps(kernel_to_dict(k))
        assert json.loads(text) == {"poles": [1.0, 2.5], "numerator": [0.5, 1.0]}
        assert AnticausalKernel(**json.loads(text)) == k


class TestTransfer:
    def test_dc_value_single_pole(self, small_grid):
        K = transfer(AnticausalKernel((1.0,), (1.0,)), small_grid)
        assert K.shape == (small_grid.n // 2 + 1,) and small_grid.omegas()[0] == 0.0
        assert K[0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("sigma", [0.0, 0.3, -0.3])
    def test_half_nodes_stand_for_the_whole_grid(self, small_grid, sigma):
        # nodes 0..n/2 of the all-node evaluation, whose nodes above n/2
        # are the conjugates of these
        kern = AnticausalKernel((0.5, 1.3), (0.2, 1.0))
        K = transfer(kern, small_grid, sigma)
        full = transfer_full_grid(kern, small_grid, sigma)
        h = small_grid.n // 2 + 1
        assert K.tobytes() == full[:h].tobytes()
        assert K[-1].imag == 0.0
        assert np.max(np.abs(full[h:] - np.conj(K[-2:0:-1]))) <= 1e-12 * np.max(np.abs(K))

    def test_matches_truncated_exponential_quadrature(self):
        # kernel -e^{lambda t} 1_{t<=0} transforms to 1/(i w - lambda)
        g = make_grid(2**18, 0.002)
        lam = 0.7
        K = transfer(AnticausalKernel((lam,), (1.0,)), g)
        om = g.omegas()[: g.n // 2 + 1]
        for w in (0.0, 0.5, 1.0, 3.0):
            k = int(np.argmin(np.abs(om - w)))
            oracle = anticausal_transform_quadrature(lam, om[k], g)
            assert abs(K[k] - oracle) / abs(oracle) < 1e-4

    def test_high_frequency_rolloff_slope(self):
        # |K| ~ 1/|w| for m=2 with a linear numerator
        g = make_grid(2**12, 0.01)
        K = transfer(AnticausalKernel((1.0, 2.0), (0.0, 1.0)), g)
        om = g.omegas()[: g.n // 2 + 1]
        sel = (om > 50) & (om < g.omega_max / 2)
        slope = np.polyfit(np.log(om[sel]), np.log(np.abs(K[sel])), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


class TestResidues:
    def test_two_pole_unit_numerator(self):
        r = residues(AnticausalKernel((1.0, 2.0), (1.0,)))
        assert r == pytest.approx([-1.0, 1.0])

    def test_reconstruction_matches_transfer(self, small_grid):
        k = AnticausalKernel((0.4, 1.1, 3.0), (2.0, 0.0, 1.0))
        K = transfer(k, small_grid)
        s = 1j * small_grid.omegas()[: small_grid.n // 2 + 1]
        recon = sum(r / (s - a) for r, a in zip(residues(k), k.poles))
        # the half-rate node carries the +-omega_max average in both forms
        recon[-1] = recon[-1].real
        assert np.max(np.abs(recon - K) / np.abs(K)) < 1e-10

    def test_independent_linear_solve(self):
        # residues solve a Vandermonde-type system: sum_j r_j prod_{k!=j}(s-a_k) = d(s)
        k = AnticausalKernel((1.0, 2.0), (1.0,))
        pts = np.array([0.3, 5.0])
        rows = []
        for s in pts:
            rows.append([np.prod([s - a for a in k.poles if a != aj]) for aj in k.poles])
        rhs = np.ones(2)
        solved = np.linalg.solve(np.array(rows), rhs)
        assert residues(k) == pytest.approx(solved)


class TestTimeKernel:
    def test_single_pole_values(self):
        g = make_grid(256, 0.05)
        k = time_kernel(AnticausalKernel((1.0,), (1.0,)), g)
        t = g.times()
        past = t <= 0
        assert np.allclose(k.samples[past], -np.exp(t[past]))
        assert k.samples[g.n // 2] == pytest.approx(-1.0)

    def test_vanishes_for_positive_times(self):
        g = make_grid(128, 0.1)
        for kern in (AnticausalKernel((0.7,), (1.0,)), AnticausalKernel((1.0, 2.0), (0.3, 1.0))):
            k = time_kernel(kern, g)
            assert np.all(k.samples[g.times() > 0] == 0.0)

    def test_two_pole_combination(self):
        # residues of 1/((s-1)(s-2)) are (-1, +1); composing the single-pole
        # pair 1/(iw-a) <-> -e^{at} 1{t<=0} gives e^t - e^{2t}, whose forward
        # transform matches the transfer (checked numerically at sampling
        # accuracy; the opposite sign transforms to -K)
        g = make_grid(256, 0.05)
        k = time_kernel(AnticausalKernel((1.0, 2.0), (1.0,)), g)
        t = g.times()
        past = t <= 0
        expected = np.exp(t[past]) - np.exp(2 * t[past])
        assert np.max(np.abs(k.samples[past] - expected)) < 1e-12

    def test_transform_tracks_transfer_on_fine_grid(self):
        # sampled-kernel transform error is O(a*dt/2) relative to the peak
        # gain, uniformly over the half band; pinned at 1e-3 per calibration
        g = make_grid(2**20, 0.001)
        kern = AnticausalKernel((1.0,), (1.0,))
        K = transfer(kern, g)
        Ks = forward_transform(time_kernel(kern, g)).spectrum
        half = np.abs(g.omegas()[: g.n // 2 + 1]) <= g.omega_max / 2
        err = np.max(np.abs(Ks[half] - K[half])) / np.max(np.abs(K))
        assert err < 1e-3


class TestApplyAnticausal:
    def test_zero_in_zero_out(self, oracle_grid):
        y = apply_anticausal(AnticausalKernel((1.0,), (1.0,)), TimeSeries(oracle_grid, np.zeros(oracle_grid.n)))
        assert norm(y, 2) == 0.0

    def test_narrow_pulse_reproduces_kernel_shape(self, oracle_grid):
        # unit-mass pulse at t=0 maps to ~ -e^{t} for t<0 under the m=1 kernel
        s = np.zeros(oracle_grid.n)
        j0 = oracle_grid.n // 2
        s[j0] = 1.0 / oracle_grid.delta_t
        y = apply_anticausal(AnticausalKernel((1.0,), (1.0,)), TimeSeries(oracle_grid, s))
        t = oracle_grid.times()
        window = (t < -1.0) & (t > -20.0)
        assert np.max(np.abs(y.samples[window] - (-np.exp(t[window])))) < 0.05

    @pytest.mark.parametrize(
        "kern",
        [AnticausalKernel((0.5,), (1.0,)), AnticausalKernel((0.5, 1.2), (0.3, 1.0))],
    )
    def test_matches_direct_quadrature_oracle(self, oracle_grid, kern):
        K = transfer(kern, oracle_grid)
        kernel_series = idft_direct(hermitian_full(K), oracle_grid).real
        worst = 0.0
        for seed in range(5):
            x = compact_pulse(oracle_grid, 100 + seed)
            fast = apply_anticausal(kern, x)
            slow = linear_convolve(kernel_series, x.samples, oracle_grid)
            rel = norm(TimeSeries(oracle_grid, fast.samples - slow), 2) / norm(
                TimeSeries(oracle_grid, slow), 2
            )
            worst = max(worst, rel)
        assert worst < 1e-6

    @pytest.mark.parametrize("n", [2**10, 2**16])
    def test_matches_the_n_node_oracle(self, n):
        grid = make_grid(n, 0.05)
        kern = AnticausalKernel((0.5, 1.2), (0.3, 1.0))
        for seed in range(3):
            x = compact_pulse(grid, 300 + seed)
            full = transfer_full_grid(kern, grid) * forward_transform_n_node(x.samples, grid)
            want = inverse_transform_n_node(full, grid)
            got = apply_anticausal(kern, x)
            assert got.samples.dtype == np.float64
            assert np.max(np.abs(got.samples - want)) <= 1e-15 * np.max(np.abs(want))

    def test_effective_kernel_matches_idft_oracle(self, oracle_grid):
        kern = AnticausalKernel((0.5,), (1.0,))
        K = transfer(kern, oracle_grid)
        fast = SpectralSeries(oracle_grid, K).samples
        slow = idft_direct(hermitian_full(K), oracle_grid)
        assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(slow))
