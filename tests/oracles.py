"""Independent slow-path oracles for the fast implementations.

Everything here deliberately avoids the fast-transform machinery: transforms
are O(n^2) matrix summations of the defining Riemann sums, convolutions are
direct linear (non-circular) summations, and continuous-domain references use
adaptive quadrature.  Tests compare the library's fast paths against these.
"""

import math

import numpy as np


def dft_direct(samples: np.ndarray, grid) -> np.ndarray:
    """O(n^2) Riemann sum delta_t * sum_j e^{-i w_k t_j} x_j, no FFT."""
    t = grid.times()
    om = grid.omegas()
    M = np.exp(-1j * np.outer(om, t))
    return grid.delta_t * (M @ samples)


def idft_direct(values: np.ndarray, grid) -> np.ndarray:
    """O(n^2) inverse sum (delta_omega/2pi) * sum_k e^{i w_k t_j} X_k."""
    t = grid.times()
    om = grid.omegas()
    M = np.exp(1j * np.outer(t, om))
    return (grid.delta_omega / (2.0 * math.pi)) * (M @ values)


def linear_convolve(kernel_samples: np.ndarray, x_samples: np.ndarray, grid) -> np.ndarray:
    """O(n^2) linear convolution y_i = delta_t * sum_j k(t_i - t_j) x_j.

    The kernel is known on the grid window only; arguments outside it count
    as zero, which is what distinguishes this from the circular fast path.
    """
    n = grid.n
    idx = np.add.outer(np.arange(n), -np.arange(n)) + n // 2
    valid = (idx >= 0) & (idx <= n - 1)
    ker = np.where(valid, kernel_samples[np.clip(idx, 0, n - 1)], 0.0)
    return grid.delta_t * (ker @ x_samples)


def anticausal_transform_quadrature(pole: float, omega: float, grid) -> complex:
    """Trapezoid quadrature of integral_{-inf}^0 e^{-i w t} (-e^{pole * t}) dt.

    The integrand is restricted to t <= 0 so the jump node at t = 0 receives
    its proper endpoint half-weight.
    """
    t = grid.times()
    past = t <= 0.0
    integrand = -np.exp(pole * t[past]) * np.exp(-1j * omega * t[past])
    return complex(np.trapezoid(integrand, dx=grid.delta_t))


def gamma_sweep_reference(kernel, cls, gammas, r, ensemble):
    """Sweep rows from a per-member loop over full complex spectra.

    Unlike the other oracles this one does use the library's complex fast
    transforms: it is the one-member-at-a-time formulation of the sweep,
    kept as a reference for the batched half-spectrum path.  Returns one
    dict per gamma with the fields of ``SweepRow``.
    """
    from specpredict import (
        Spectrum,
        build_predictor,
        causality_defect,
        inverse_transform,
        lemma_check,
        norm,
        transfer,
    )
    from specpredict.experiments import _member_spectrum

    grid = ensemble[0].grid
    K = transfer(kernel, grid).values
    members = []
    for x in ensemble:
        X = _member_spectrum(x)
        y = inverse_transform(Spectrum(grid, K * X))
        members.append((X, norm(y, 2), norm(y, math.inf)))
    omega_abs = np.abs(grid.omegas())
    rows = []
    for gamma in sorted(float(g) for g in gammas):
        pt = build_predictor(kernel, gamma, r, grid)
        worst = dict(err_l2_abs=0.0, err_l2_rel=0.0, err_sup_abs=0.0, err_sup_rel=0.0)
        worst_l2r, i1, i2 = -1.0, 0.0, 0.0
        for X, y_l2, y_sup in members:
            diff = (pt.khat_values - K) * X
            d = inverse_transform(Spectrum(grid, diff))
            l2a, supa = norm(d, 2), norm(d, math.inf)
            l2r = 0.0 if l2a == 0.0 else l2a / max(y_l2, 1e-300)
            supr = 0.0 if supa == 0.0 else supa / max(y_sup, 1e-300)
            for key, value in zip(worst, (l2a, l2r, supa, supr)):
                worst[key] = max(worst[key], value)
            if l2r > worst_l2r:
                worst_l2r = l2r
                E = np.abs(diff) ** 2
                low = omega_abs <= pt.omega_threshold
                i1 = float(grid.delta_omega * np.sum(E[low]))
                i2 = float(grid.delta_omega * np.sum(E[~low]))
        rep = lemma_check(pt, cls)
        rows.append(
            dict(
                gamma=gamma,
                **worst,
                kappa_sup=pt.kappa_sup,
                omega_threshold=pt.omega_threshold,
                causality_defect=causality_defect(pt),
                i1=i1,
                i2=i2,
                lemma_pass_high_band=rep.pass_high_band,
                lemma_pass_low_band=rep.pass_low_band,
                lemma_tail_dev=rep.tail_dev_max,
            )
        )
    return rows
