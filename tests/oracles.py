"""Independent slow-path oracles for the fast implementations.

Everything here deliberately avoids the fast-transform machinery: transforms
are O(n^2) matrix summations of the defining Riemann sums, convolutions are
direct linear (non-circular) summations, and continuous-domain references use
adaptive quadrature.  Tests compare the library's fast paths against these.
"""

import math

import numpy as np


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

    It is the one-member-at-a-time formulation of the sweep on all n nodes,
    through the complex transforms of :func:`inverse_transform_n_node`,
    kept as a reference for the streamed half-spectrum path.  Returns one
    dict per gamma with the fields of ``SweepRow``.
    """
    from specpredict import lemma_check

    grid = ensemble[0].grid
    K = transfer_full_grid(kernel, grid)
    members = []
    for x in ensemble:
        X = hermitian_full(x.spectrum)
        members.append((X, *_grid_norms(inverse_transform_n_node(K * X, grid), grid)))
    omega_abs = np.abs(grid.omegas())
    rows = []
    for gamma in sorted(float(g) for g in gammas):
        pt = build_predictor_full_grid(kernel, gamma, r, grid)
        worst = dict(err_l2_abs=0.0, err_l2_rel=0.0, err_sup_abs=0.0, err_sup_rel=0.0)
        worst_l2r, i1, i2 = -1.0, 0.0, 0.0
        for X, y_l2, y_sup in members:
            diff = (pt.khat_values - K) * X
            l2a, supa = _grid_norms(inverse_transform_n_node(diff, grid), grid)
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
                causality_defect=past_share(
                    inverse_transform_n_node(pt.khat_values, grid), grid.times()
                ),
                i1=i1,
                i2=i2,
                lemma_pass_high_band=rep.pass_high_band,
                lemma_pass_low_band=rep.pass_low_band,
                lemma_tail_dev=rep.tail_dev_max,
            )
        )
    return rows


def _grid_norms(samples, grid):
    """Grid l2 and sup norms of complex samples, as ``specpredict.norm``
    takes them of real ones."""
    mags = np.abs(samples)
    return float(math.sqrt(grid.delta_t) * np.linalg.norm(mags)), float(np.max(mags))


def _signs(n):
    """(-1)^k at all n nodes, the centered-origin phase of the n-node
    complex transform pair."""
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def hermitian_full(half):
    """All n nodes of a real signal's spectrum from nodes 0..n/2: node n-k
    is the conjugate of node k."""
    return np.concatenate([half, np.conj(half[-2:0:-1])])


def hermitian_defect(values):
    """max |X_k - conj(X_{n-k})| over the n nodes of a spectrum, relative to
    max |X|: 0 for the spectrum of a real signal; 0 for all-zero values."""
    mag = np.max(np.abs(values))
    if mag == 0.0:
        return 0.0
    mirror = np.conj(values[(-np.arange(values.size)) % values.size])
    return float(np.max(np.abs(values - mirror)) / mag)


def forward_transform_n_node(samples, grid):
    """The n-node complex Riemann-sum transform by a fast transform, scaled
    by the n-node phase table; ``forward_transform`` keeps its nodes 0..n/2."""
    values = np.fft.fft(samples)
    values *= grid.delta_t * _signs(grid.n)
    return values


def inverse_transform_n_node(values, grid):
    """Complex inverse of :func:`forward_transform_n_node` at all n nodes."""
    samples = np.fft.ifft(_signs(grid.n) * values)
    samples /= grid.delta_t
    return samples


def past_share(samples, t):
    """Energy share of the samples at t < 0, selected by a mask of the time
    nodes ``t`` and computed on fresh arrays; 0 for an all-zero series.  The
    library's ``_past_share`` splits real samples at n/2 in place instead."""
    s = np.abs(samples)
    peak = np.max(s)
    if peak == 0.0:
        return 0.0
    s = s / peak
    total = float(np.sum(s * s))
    past = float(np.sum((s * s)[t < 0.0]))
    return past / total


def guard_window_reference(grid):
    """The generator's guard window from all n time nodes at once: the ramp
    0.5 * erfc((|t| - mu) / (sqrt(2) sigma)) inside |t| < T/4, zero beyond,
    scaled to peak 1."""
    t = np.abs(grid.times())
    t_flat = grid.span / 16.0
    t_zero = grid.span / 4.0
    sigma = (t_zero - t_flat) / 8.6
    mu = 0.5 * (t_flat + t_zero)
    inside = t < t_zero
    arg = (t[inside] - mu) / (math.sqrt(2.0) * sigma)
    w = np.zeros(grid.n)
    w[inside] = 0.5 * np.fromiter(map(math.erfc, arg.tolist()), dtype=np.float64)
    return w / np.max(w)


def philox_key(seed, stream):
    """The two 64-bit Philox key words numpy derives from the seed sequence."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return tuple(int(word) for word in seq.generate_state(2, np.uint64))


def hermitian_phases_reference(grid, seed, stream):
    """The generators' half unit spectrum drawn by numpy's own
    ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(stream,))))``:
    ``uniform(0, 2 pi)`` phases at nodes 1..n/2-1, then an ``integers(0, 2)``
    sign for node 0 and one for node n/2."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    rng = np.random.Generator(np.random.Philox(seq))
    n = grid.n
    phases = np.zeros(n // 2 + 1)
    phases[1 : n // 2] = rng.uniform(0.0, 2.0 * math.pi, n // 2 - 1)
    unit = np.exp(1j * phases)
    unit[0] = rng.integers(0, 2) * 2.0 - 1.0
    unit[n // 2] = rng.integers(0, 2) * 2.0 - 1.0
    return unit


def enveloped_spectra_batched(q, c, cfg, size):
    """Half spectra of class members drawn as one (size, n/2+1) stack through
    both projection rounds, each round one batched transform with the
    centred origin's sign table and the window at the centred time nodes;
    the generator's stacked form, kept as a byte-exact reference for its
    per-member, natural-order path."""
    from dataclasses import replace

    from specpredict.degeneracy import log_weight
    from specpredict.signals import (
        _HEADROOM,
        _PROJECTION_ROUNDS,
        _STREAM_CLASS,
        _generator,
        _random_hermitian_phases,
    )

    grid = cfg.grid
    h = grid.n // 2 + 1
    signs = _signs(grid.n)[:h]
    om_abs = np.abs(grid.omegas()[:h])
    assert cfg.band is None
    with np.errstate(under="ignore"):
        env = np.exp(np.zeros_like(om_abs) - log_weight(om_abs, q, c))
    env[0] = 0.0
    phases = np.stack([
        _random_hermitian_phases(grid, _generator(replace(cfg, seed=cfg.seed + i), _STREAM_CLASS))
        for i in range(size)
    ])
    X = _HEADROOM * env * phases
    window = guard_window_reference(grid)
    for _ in range(_PROJECTION_ROUNDS):
        x = np.fft.irfft(signs * X, n=grid.n, axis=-1) / grid.delta_t
        Xt = grid.delta_t * signs * np.fft.rfft(x * window, axis=-1)
        mag = np.abs(Xt)
        with np.errstate(invalid="ignore"):
            scale = np.where(mag > env, env / np.where(mag == 0.0, 1.0, mag), 1.0)
        X = Xt * scale
        X[:, 0] = 0.0
    return X


def enveloped_members_batched(q, c, cfg, size):
    """Samples of :func:`enveloped_spectra_batched`, one batched inverse."""
    X = enveloped_spectra_batched(q, c, cfg, size)
    signs = _signs(cfg.grid.n)[: cfg.grid.n // 2 + 1]
    return np.fft.irfft(signs * X, n=cfg.grid.n, axis=-1) / cfg.grid.delta_t


def row_norms_linalg(rows, grid):
    """Grid l2 (``np.linalg.norm``) and sup norms of real rows, (n,) or (m, n)."""
    with np.errstate(over="ignore"):
        l2 = math.sqrt(grid.delta_t) * np.linalg.norm(rows, axis=-1)
    return l2, np.max(np.abs(rows), axis=-1)


def irfft_stack(values, grid):
    """Real rows of a whole (m, n/2+1) stack of half spectra in one transform,
    the centred origin put on by the sign table."""
    h = grid.n // 2 + 1
    return np.fft.irfft(_signs(grid.n)[:h] * values, n=grid.n, axis=-1) / grid.delta_t


def rfft_stack(rows, grid):
    """Half spectra (nodes 0..n/2) of real rows on the centred time nodes,
    the fast transform times the sign table scaled by delta_t."""
    h = grid.n // 2 + 1
    return grid.delta_t * _signs(grid.n)[:h] * np.fft.rfft(rows, axis=-1)


def centred_l2(values, grid):
    """Grid l2 norms of the real rows of half spectra ``values``, their
    squares summed pairwise in the centred time order of :func:`irfft_stack`."""
    rows = irfft_stack(values, grid)
    return math.sqrt(grid.delta_t) * np.sqrt(np.add.reduce(np.square(rows), axis=-1))


def member_half_spectra(ensemble):
    """(m, n/2+1) stack of the members' stored spectra at nodes 0..n/2, the
    stacked form of the library's one-member ``_member_half``."""
    return np.stack([x.spectrum for x in ensemble])


def error_channel_batched(pt, X):
    """(diff, l2, sup): the error channel ``(K_hat - K) X`` of a whole
    (m, n/2+1) stack of half spectra and the norms of its inverse, taken in
    one batched transform; the stacked form of the library's per-row channel."""
    diff = (pt.khat_values - pt.k_values) * X
    l2, sup = row_norms_linalg(irfft_stack(diff, pt.grid), pt.grid)
    return diff, l2, sup


def sweep_rows_stacked(kernel, cls, gammas, r, ensemble):
    """``gamma_sweep`` rows from the (m, n/2+1) stack of member half spectra,
    one gamma at a time: each error channel is taken for the whole stack in
    one batched transform, and i1/i2 for the ``np.argmax`` member.  The
    gamma-outer form of the library's member-streamed sweep."""
    from specpredict import build_predictor, causality_defect, lemma_check
    from specpredict.experiments import SweepRow

    X = member_half_spectra(ensemble)
    grid = ensemble[0].grid
    h = grid.n // 2 + 1
    om = np.abs(grid.omegas()[:h])
    w = np.full(h, 2.0)
    w[[0, -1]] = 1.0
    rows = []
    for gamma in sorted(float(g) for g in gammas):
        pt = build_predictor(kernel, gamma, r, grid)
        y_l2, y_sup = row_norms_linalg(irfft_stack(pt.k_values * X, grid), grid)
        diff, l2, sup = error_channel_batched(pt, X)
        l2r = np.where(l2 == 0.0, 0.0, l2 / np.maximum(y_l2, 1e-300))
        supr = np.where(sup == 0.0, 0.0, sup / np.maximum(y_sup, 1e-300))
        E = w * np.abs(diff[int(np.argmax(l2r))]) ** 2
        low = om <= pt.omega_threshold
        rep = lemma_check(pt, cls)
        rows.append(
            SweepRow(
                gamma=gamma,
                err_l2_abs=float(np.max(l2)),
                err_l2_rel=float(np.max(l2r)),
                err_sup_abs=float(np.max(sup)),
                err_sup_rel=float(np.max(supr)),
                kappa_sup=pt.kappa_sup,
                omega_threshold=pt.omega_threshold,
                causality_defect=causality_defect(pt),
                i1=float(grid.delta_omega * np.sum(E[low])),
                i2=float(grid.delta_omega * np.sum(E[~low])),
                lemma_pass_high_band=rep.pass_high_band,
                lemma_pass_low_band=rep.pass_low_band,
                lemma_tail_dev=rep.tail_dev_max,
            )
        )
    return rows


def uniformity_check_stacked(kernel, cls, gamma, r, ensemble):
    """``uniformity_check`` from the stacked member half spectra and class
    norms, with one batched error channel: the worst (l2, sup) ratios."""
    from specpredict import build_predictor, class_norm

    norms = np.array([class_norm(x, cls) for x in ensemble])
    pt = build_predictor(kernel, gamma, r, ensemble[0].grid)
    _, l2, sup = error_channel_batched(pt, member_half_spectra(ensemble))
    return float(np.max(l2 / norms)), float(np.max(sup / norms))


def v_minus_one_mpmath(omega, poles, gamma, r):
    """:func:`specpredict.v_minus_one` with mpmath as prod_j (1 + f_j) - 1,
    f_j = -e^{w_j}, at 40 + m gamma / 2.3 digits for m poles: |f_j| >=
    e^{-gamma}, so that many digits hold the difference from 1 at every
    node.  Returns V - 1 and the scale (1 + max_j |w_j|) (prod_j (1 + |f_j|)
    - 1) of the recurrence's rounding, both at that precision, for each
    real node of ``omega``."""
    import mpmath

    want, scale = [], []
    with mpmath.workdps(int(40 + len(poles) * gamma / 2.3)):
        alpha = mpmath.mpf(gamma) ** (-mpmath.mpf(r))
        for o in np.asarray(omega, dtype=float):
            z = mpmath.mpc(0.0, o)
            ws = [-gamma * (z - a) / (z + alpha) for a in poles]
            fs = [-mpmath.exp(w) for w in ws]
            want.append(mpmath.fprod(1 + f for f in fs) - 1)
            scale.append((1 + max(abs(w) for w in ws)) * (mpmath.fprod(1 + abs(f) for f in fs) - 1))
    return want, scale


def v_logpolar_mpmath(z, poles, gamma, r, dps=50):
    """:func:`specpredict.predictor.v_logpolar` at ``dps`` digits with
    mpmath: (log|V|, arg V, max_j |Im w_j|) at each complex point of ``z``,
    V = prod_j (1 - e^{w_j}) and w_j = -gamma (z - a_j)/(z + gamma^{-r})
    with gamma^{-r} taken at ``dps`` digits.  arg V is the sum of the
    principal arguments of the factors; the first two are mpf lists."""
    import mpmath

    log_mag, phase, im_w = [], [], []
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(gamma) ** (-mpmath.mpf(r))
        for zk in np.asarray(z, dtype=np.complex128):
            zm = mpmath.mpc(zk.real, zk.imag)
            ws = [-gamma * (zm - a) / (zm + alpha) for a in poles]
            factors = [1 - mpmath.exp(w) for w in ws]
            log_mag.append(mpmath.fsum(mpmath.log(abs(f)) for f in factors))
            phase.append(mpmath.fsum(mpmath.arg(f) for f in factors))
            im_w.append(max(abs(float(w.imag)) for w in ws))
    return log_mag, phase, np.array(im_w)


def lemma_tail_dev_stacked(pt):
    """``tail_dev_max`` of :func:`specpredict.lemma_check` as one maximum of
    one :func:`specpredict.v_minus_one` call over every node 0..n/2 with
    |omega| >= max_pole / 2, selected by a mask rather than cut in blocks."""
    from specpredict import v_minus_one

    om = np.abs(pt.grid.omegas()[: pt.grid.n // 2 + 1])
    s, d = v_minus_one(om[om >= 0.5 * pt.kernel.max_pole], pt.kernel, pt.gamma, pt.r)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(d * np.exp(s))))


def high_band_flags_full_grid(pt):
    """(pass_positivity, pass_factor_dev) of :func:`specpredict.lemma_check`
    read at every node above the band edge, on all n nodes."""
    from specpredict.predictor import factor_exponent

    om = pt.grid.omegas()
    alpha = pt.gamma ** (-pt.r)
    outside = np.abs(om) > pt.omega_threshold
    pass_pos = True
    pass_dev = True
    for a in pt.kernel.poles:
        re_ratio = (om[outside] ** 2 - a * alpha) / (om[outside] ** 2 + alpha**2)
        pass_pos = pass_pos and bool(np.all(re_ratio > 0.0))
        with np.errstate(under="ignore"):
            dev = np.abs(np.exp(factor_exponent(1j * om[outside], a, pt.gamma, pt.r)))
        pass_dev = pass_dev and bool(np.all(dev < 1.0))
    return pass_pos, pass_dev


def lemma_check_full_grid(pt, cls):
    """:func:`specpredict.lemma_check` evaluated on all n nodes, both signs of
    omega, as a reference for the library's half-grid evaluation."""
    from specpredict.degeneracy import log_weight
    from specpredict.predictor import LemmaReport, v_logpolar, v_minus_one
    from specpredict.tolerances import CALIBRATION

    grid, gamma, r = pt.grid, pt.gamma, pt.r
    om = grid.omegas()
    thr = pt.omega_threshold
    pass_pos, pass_dev = high_band_flags_full_grid(pt)

    tail = np.abs(om) >= 0.5 * pt.kernel.max_pole
    s, d = v_minus_one(om[tail], pt.kernel, gamma, r)
    with np.errstate(over="ignore", invalid="ignore"):
        tail_dev = float(np.max(np.abs(d * np.exp(s))))

    band = (np.abs(om) > 0.0) & (np.abs(om) <= thr)
    count = int(np.count_nonzero(band))
    holds, margin = True, -math.inf
    if count:
        v_log, _ = v_logpolar(1j * om[band], pt.kernel, gamma, r)
        margin = float(np.max(v_log - log_weight(om[band], cls.q, cls.c)))
        holds = margin <= CALIBRATION["lemma_iv_slack"]
    return LemmaReport(
        gamma=gamma,
        omega_threshold=thr,
        pass_positivity=pass_pos,
        pass_factor_dev=pass_dev,
        tail_dev_max=tail_dev,
        pass_low_band=holds,
        low_band_nodes=count,
        low_band_margin=margin,
    )


def orthogonality_residual_full_grid(pt):
    """:func:`specpredict.orthogonality_residual` of an all-node predictor
    (:func:`build_predictor_full_grid`): the complex terms summed over all n
    nodes, in the log domain, with no node weights.  The K_hat logs are
    shifted by their max first: unshifted, the numerator's log and the
    norm's both sit near the peak log|K_hat|, up to a * gamma^(r+1), and
    their difference keeps only the absolute accuracy of a log that size."""
    from specpredict.spectral import _logsumexp

    with np.errstate(divide="ignore"):
        k_log = np.log(np.abs(pt.k_values))
    kh_log = pt.khat_log_mag - np.max(pt.khat_log_mag)
    terms = k_log + kh_log
    finite = np.isfinite(terms)
    L = float(np.max(terms[finite]))
    dphase = pt.khat_phase[finite] - np.angle(pt.k_values[finite])
    S = np.sum(np.exp(terms[finite] - L) * np.exp(1j * dphase))
    den_log = 0.5 * _logsumexp(2.0 * k_log) + 0.5 * _logsumexp(2.0 * kh_log)
    return float(np.exp(L + math.log(abs(S)) - den_log))


def _transfer_values(kernel, s):
    """K(s) at an array of complex points s, each as evaluated."""
    from specpredict.kernels import _numerator_at

    den = np.ones_like(s)
    for a in kernel.poles:
        den = den * (s - a)
    return _numerator_at(kernel, s) / den


def transfer_full_grid(kernel, grid, sigma=0.0):
    """K(sigma + i*omega) evaluated at all n nodes, the half-rate node at its
    real part: the reference for the library's half-node sampler."""
    values = _transfer_values(kernel, sigma + 1j * grid.omegas())
    values[grid.n // 2] = values[grid.n // 2].real
    return values


def build_predictor_full_grid(kernel, gamma, r, grid):
    """:func:`specpredict.build_predictor` with V, K and K_hat evaluated and
    kept at all n nodes, both signs of omega, rather than at nodes 0..n/2."""
    from specpredict.predictor import _CLAMP_LOG, PredictorTransfer, omega_threshold, v_logpolar

    om = grid.omegas()
    v_log, v_ph = v_logpolar(1j * om, kernel, gamma, r)
    # the complex K at node n/2 too, so that node takes Re(V K)
    K = _transfer_values(kernel, 1j * om)
    with np.errstate(divide="ignore"):
        khat_log = v_log + np.log(np.abs(K))
    khat_ph = v_ph + np.angle(K)
    with np.errstate(divide="ignore", under="ignore", over="ignore", invalid="ignore"):
        khat_vals = np.exp(np.minimum(v_log, _CLAMP_LOG)) * np.exp(1j * v_ph) * K
        # V K only where both |V| and |K_hat| lie within e^700
        clamp = (v_log > _CLAMP_LOG) | (khat_log > _CLAMP_LOG)
        khat_vals[clamp] = np.exp(np.minimum(khat_log[clamp], _CLAMP_LOG)) * np.exp(1j * khat_ph[clamp])
        ny = grid.n // 2
        ny_real = khat_vals[ny].real
        khat_vals[ny] = ny_real
        khat_log[ny] = np.log(np.abs(ny_real)) + max(khat_log[ny] - _CLAMP_LOG, 0.0)
        khat_ph[ny] = math.pi if ny_real < 0.0 else 0.0
    K[ny] = K[ny].real

    return PredictorTransfer(
        kernel=kernel,
        gamma=float(gamma),
        r=float(r),
        grid=grid,
        k_values=K,
        khat_values=khat_vals,
        kappa_sup=math.exp(_CLAMP_LOG) if np.any(khat_log > _CLAMP_LOG) else float(np.max(np.abs(khat_vals))),
        omega_threshold=omega_threshold(kernel, gamma, r),
        khat_log_mag=khat_log,
        khat_phase=khat_ph,
    )


def line_witness_full_grid(kernel, gamma, r):
    """(causality defect, orthogonality residual) of :func:`specpredict.line_witness`
    on its own grid, with K_hat and K evaluated at all n nodes, the time
    kernel taken by the complex inverse transform and the inner product
    summed over all n nodes with ``np.vdot``."""
    from specpredict.predictor import _line_grid, v_logpolar

    sigma, grid = _line_grid(kernel, gamma, r)
    # the complex K at node n/2 too, so that node takes Re(V K)
    K = _transfer_values(kernel, sigma + 1j * grid.omegas())
    v_log, v_ph = v_logpolar(sigma + 1j * grid.omegas(), kernel, gamma, r)
    with np.errstate(divide="ignore"):
        khat_log = v_log + np.log(np.abs(K))
    with np.errstate(under="ignore"):
        khat = np.exp(khat_log - np.max(khat_log)) * np.exp(1j * (v_ph + np.angle(K)))
    khat[grid.n // 2] = khat[grid.n // 2].real
    k_mirror = transfer_full_grid(kernel, grid, -sigma)
    defect = past_share(inverse_transform_n_node(khat, grid), grid.times())
    residual = abs(np.vdot(k_mirror, khat)) / (np.linalg.norm(k_mirror) * np.linalg.norm(khat))
    return defect, float(residual)


def line_witness_half_grid(kernel, gamma, r):
    """(causality defect, orthogonality residual) of :func:`specpredict.line_witness`
    at nodes 0..n/2, with omega sliced from ``grid.omegas()``, K from
    :func:`_transfer_values` and its mirror from :func:`transfer_full_grid`,
    the real inverse phased by the n-node sign table and the t < 0 share
    taken by :func:`past_share`."""
    from specpredict.predictor import _line_grid, v_logpolar

    sigma, grid = _line_grid(kernel, gamma, r)
    h = grid.n // 2 + 1
    # the complex K at node n/2 too, so that node takes Re(V K)
    K = _transfer_values(kernel, sigma + 1j * grid.omegas()[:h])
    v_log, v_ph = v_logpolar(sigma + 1j * grid.omegas()[:h], kernel, gamma, r)
    with np.errstate(divide="ignore"):
        khat_log = v_log + np.log(np.abs(K))
    with np.errstate(under="ignore"):
        khat = np.exp(khat_log - np.max(khat_log)) * np.exp(1j * (v_ph + np.angle(K)))
    khat[-1] = khat[-1].real
    k_mirror = transfer_full_grid(kernel, grid, -sigma)[:h]
    defect = past_share(irfft_stack(khat, grid), grid.times())
    weights = np.full(h, 2.0)
    weights[[0, -1]] = 1.0
    inner = np.sum(weights * (np.conj(k_mirror) * khat).real)
    sq_norms = np.sum(weights * np.abs(k_mirror) ** 2) * np.sum(weights * np.abs(khat) ** 2)
    return defect, float(abs(inner) / np.sqrt(sq_norms))


def one_pole_error_log(kernel, gamma, r, X, grid):
    """log err_l2_rel of the one-pole predictor on the member with half
    spectrum ``X``, in closed form: V - 1 = -e^w, so by Parseval

        log err_rel = (LSE(log w_k + 2 log|K X| + 2 Re w)
                       - LSE(log w_k + 2 log|K X|)) / 2

    over nodes 0..n/2 with node weights w_k (1 at nodes 0 and n/2, else 2),
    where Re w = -gamma + gamma (a + alpha) alpha / (omega^2 + alpha^2),
    alpha = gamma^-r, is read from the formula, not from the library, and K
    is the one-pole transfer d(i omega) / (i omega - a), its real part at
    the unpaired node n/2 as the library samples it.  Nodes where K X is
    zero drop out.  numpy only; finite where the figure itself underflows."""
    (a,) = kernel.poles
    h = grid.n // 2 + 1
    omega = np.abs(grid.omegas()[:h])
    alpha = gamma ** (-r)
    re_w = -gamma + gamma * (a + alpha) * alpha / (omega**2 + alpha**2)
    s = 1j * omega
    K = np.polynomial.polynomial.polyval(s, kernel.numerator) / (s - a)
    K[-1] = K[-1].real
    weights = np.full(h, 2.0)
    weights[[0, -1]] = 1.0
    live = np.abs(K * X) > 0.0
    base = np.log(weights[live]) + 2.0 * np.log(np.abs(K * X)[live])

    def lse(v):
        top = np.max(v)
        return top + math.log(np.sum(np.exp(v - top)))

    return 0.5 * (lse(base + 2.0 * re_w[live]) - lse(base))
