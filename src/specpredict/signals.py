"""Seed-deterministic test-signal generators.

All generators are pure functions of (parameters, seed).  The pseudorandom
source is numpy's Philox counter generator keyed through a SeedSequence with
a per-purpose spawn key, so outputs are reproducible bit-exactly across
platforms; :data:`ALGORITHM_ID` names the scheme inside every report.

Class members are built spectrum-first (envelope times random phase), tapered
to the middle half of the time window for wraparound safety, then projected
back under the envelope so the degeneracy inequality holds exactly at every
node.  The last projection is spectral, which is what makes membership exact,
so a member keeps that half spectrum (a ``SpectralSeries``) and its samples
are the inverse of it; the time support is then "near-compact", with guard
residues held under the calibration guard level on adequately long windows.

Band-limited draws, the counterexample pair and the noise are returned the
same way, as the ``SpectralSeries`` of the half spectrum they are built on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .degeneracy import DegeneracyClass, log_weight
from .spectral import (
    FrequencyGrid,
    SpectralSeries,
    TimeSeries,
    _half_nodes,
    _half_omegas,
    _half_sum,
    forward_transform,
    irfft_rows,
    rfft_rows,
)
from .tolerances import CALIBRATION

ALGORITHM_ID = "numpy.random.Philox(SeedSequence(entropy=seed, spawn_key=(stream,)))"

_STREAM_CLASS = 0
_STREAM_BAND = 1
_STREAM_PAIR = 2
_STREAM_NOISE = 3


@dataclass(frozen=True)
class GeneratorConfig:
    """Seed, spectral amplitude profile and optional band restriction.

    ``profile`` is either "flat" (unit amplitude) or "gaussian" with scale
    ``sigma``; ``band`` restricts generated content to omega_lo <= |omega| <=
    omega_hi strictly inside (0, omega_max).
    """

    seed: int
    grid: FrequencyGrid
    profile: str = "flat"
    sigma: float = None
    band: tuple = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.profile not in ("flat", "gaussian"):
            raise ValueError(f"profile must be 'flat' or 'gaussian', got {self.profile!r}")
        if self.profile == "gaussian":
            if not (isinstance(self.sigma, (int, float)) and self.sigma > 0):
                raise ValueError("gaussian profile needs sigma > 0")
        elif self.sigma is not None:
            raise ValueError("sigma only applies to the gaussian profile")
        if self.band is not None:
            try:
                lo, hi = (float(v) for v in self.band)
            except (TypeError, ValueError):
                raise ValueError("band must be two numbers (lo, hi)") from None
            if not (0.0 < lo < hi < self.grid.omega_max):
                raise ValueError(
                    f"band must satisfy 0 < lo < hi < omega_max={self.grid.omega_max}"
                )
            object.__setattr__(self, "band", (lo, hi))
        object.__setattr__(self, "seed", int(self.seed))


def _generator(cfg: GeneratorConfig, stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def _log_amplitude(cfg: GeneratorConfig, omega_abs: np.ndarray) -> np.ndarray:
    if cfg.profile == "flat":
        return np.zeros_like(omega_abs)
    return -(omega_abs**2) / (2.0 * cfg.sigma**2)


def _band_mask(cfg: GeneratorConfig, omega_abs: np.ndarray) -> np.ndarray:
    if cfg.band is None:
        return np.ones(omega_abs.shape, dtype=bool)
    lo, hi = cfg.band
    return (omega_abs >= lo) & (omega_abs <= hi)


def _random_hermitian_phases(grid: FrequencyGrid, rng: np.random.Generator) -> np.ndarray:
    """Half of a unit-modulus hermitian spectrum, e^{i phi} at nodes 0..n/2.

    The omega = 0 node and the unpaired omega_max node get random signs so
    they stay real; the nodes above n/2 are the conjugate mirror.
    """
    n = grid.n
    phases = np.zeros(n // 2 + 1)
    phases[1 : n // 2] = rng.uniform(0.0, 2.0 * math.pi, n // 2 - 1)
    unit = np.exp(1j * phases)
    unit[0] = rng.integers(0, 2) * 2.0 - 1.0
    unit[n // 2] = rng.integers(0, 2) * 2.0 - 1.0
    return unit


# nodes per block of the guard window's ramp evaluation
_WINDOW_BLOCK = 4096


@functools.lru_cache(maxsize=8)
def _guard_window(grid: FrequencyGrid) -> np.ndarray:
    """Smooth taper confining the signal to the middle half of the window.

    Gaussian-integral ramps from T/16 out to T/4, hard zero beyond.  The
    Gaussian edge makes the window's spectral tail collapse like
    exp(-sigma^2 omega^2 / 2), which keeps taper leakage into the deep
    degeneracy band far below the envelope-projection scale; the hard cut
    sits 4.3 sigma past the ramp centre, where it has fallen to ~9e-6.

    The ramp is ``0.5 * math.erfc`` of each node's |t_j|, formed as
    ``grid.times()`` forms t_j, in blocks of ``_WINDOW_BLOCK`` nodes, so no
    n-node time array or n/2-value list is built.  It is evaluated once per
    grid: the result is cached per (frozen, hashable) ``FrequencyGrid`` and
    returned read-only, so every caller shares one array.
    """
    n = grid.n
    t_flat = grid.span / 16.0
    t_zero = grid.span / 4.0
    sigma = (t_zero - t_flat) / 8.6
    mu = 0.5 * (t_flat + t_zero)
    width = math.sqrt(2.0) * sigma
    w = np.zeros(n)
    for start in range(0, n, _WINDOW_BLOCK):
        t = np.abs((np.arange(start, min(start + _WINDOW_BLOCK, n)) - n // 2) * grid.delta_t)
        inside = t < t_zero
        arg = (t[inside] - mu) / width
        block = w[start : start + t.size]
        block[inside] = 0.5 * np.fromiter(map(math.erfc, arg.tolist()), dtype=np.float64)
    w /= np.max(w)
    w.flags.writeable = False
    return w


# generated spectra sit at half the envelope so that taper-induced spectral
# fluctuation stays under the bound almost everywhere; the projection rounds
# then only trim boundary-layer leakage
_HEADROOM = 0.5
_PROJECTION_ROUNDS = 2


def _enveloped_member(q: float, c: float, cfg: GeneratorConfig, size: int) -> list:
    """Envelope-times-random-phase members for a raw (q, c) pair.

    Returns ``size`` members seeded ``cfg.seed + i``; a seed range that
    leaves 64 unsigned bits raises ValueError before any member is drawn.
    They share the envelope and the window, and each runs through both
    projection rounds on its own, in place on its own half spectrum and
    samples, so a member does not depend on the ensemble it is drawn in.
    Each member is the :class:`SpectralSeries` of its last projection's
    half spectrum: the spectrum that is exactly in the class, not a
    re-transform of its samples.

    No validation of q: callers admit q > 1 through DegeneracyClass, while
    the negative illustration deliberately feeds q in (0, 1).
    """
    last = cfg.seed + size - 1
    if last >= 2**64:
        raise ValueError(
            f"member seeds {cfg.seed}..{last} must fit in 64 unsigned bits: "
            f"for {size} members the seed must be at most {2**64 - size}"
        )
    grid = cfg.grid
    om_abs = _half_nodes(grid)[0]

    log_env = _log_amplitude(cfg, om_abs) - log_weight(om_abs, q, c)
    log_env[~_band_mask(cfg, om_abs)] = -np.inf
    with np.errstate(under="ignore"):
        env = np.exp(log_env)
    env[0] = 0.0
    start = _HEADROOM * env
    window = _guard_window(grid)

    members = []
    for i in range(size):
        X = _random_hermitian_phases(grid, _generator(replace(cfg, seed=cfg.seed + i), _STREAM_CLASS))
        X *= start
        # alternate time confinement with the spectral projection; the last
        # step is spectral, which makes the envelope bound and X(0) = 0 exact
        for _ in range(_PROJECTION_ROUNDS):
            x = irfft_rows(X, grid)
            x *= window
            X = rfft_rows(x, grid)
            # the clip scale min(env/|X|, 1), 1 where |X| = 0, in |X|'s buffer
            scale = np.abs(X)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(env, scale, out=scale)
            np.fmin(scale, 1.0, out=scale)
            X *= scale
            X[0] = 0.0
        members.append(SpectralSeries(grid, X))
    return members


def sample_class_member(cls: DegeneracyClass, cfg: GeneratorConfig) -> SpectralSeries:
    """Draw a real signal whose spectrum obeys |X| <= A(omega) e^{-c/|omega|^q}.

    The bound holds exactly at every node of the stored half spectrum (so
    the class norm is finite by construction), X(0) = 0 exactly, and the
    time support is confined to the middle half of the window up to guard
    residues.
    """
    return _enveloped_member(cls.q, cls.c, cfg, 1)[0]


def sample_bandlimited(omega_bar: float, cfg: GeneratorConfig) -> SpectralSeries:
    """Draw a real signal with spectrum support exactly inside |omega| <= omega_bar.

    A band narrower than the frequency step falls back to the fundamental
    node pair, giving a near-sinusoid.  On the grid, finite weighted class
    norms additionally require a gap at the degeneracy point; pass
    ``cfg.band`` to keep the support away from omega = 0 when members of a
    specific class are wanted.  The signal is the :class:`SpectralSeries`
    of its last projection, zero off the support and at omega = 0 exactly.
    """
    grid = cfg.grid
    if not (0.0 < omega_bar < grid.omega_max):
        raise ValueError(f"omega_bar must lie in (0, omega_max={grid.omega_max})")
    rng = _generator(cfg, _STREAM_BAND)
    om_abs = _half_nodes(grid)[0]
    support = (om_abs <= omega_bar) & _band_mask(cfg, om_abs)
    support[0] = False
    if not np.any(support):
        support = om_abs == grid.delta_omega
    with np.errstate(under="ignore"):
        env = np.where(support, np.exp(_log_amplitude(cfg, om_abs)), 0.0)
    # roll the band edge off smoothly so the time taper sheds little mass
    # past the edge (exact support plus compact support cannot both be sharp)
    edge = 0.8 * omega_bar
    roll = (om_abs > edge) & (om_abs <= omega_bar) & support
    env[roll] *= 0.5 * (1.0 + np.cos(math.pi * (om_abs[roll] - edge) / (omega_bar - edge)))

    X = env * _random_hermitian_phases(grid, rng)
    window = _guard_window(grid)
    for _ in range(_PROJECTION_ROUNDS):
        X = np.where(support, rfft_rows(irfft_rows(X, grid) * window, grid), 0.0)
    return SpectralSeries(grid, X)


def counterexample_pair(a: float, cfg: GeneratorConfig):
    """Split one unit-modulus spectrum at |omega| = a into a band-limited part
    and its complement, two :class:`SpectralSeries` zeroed at |omega| >= a
    and at |omega| < a.

    Together the pair carries |X| = 1 at every node; separately the parts are
    supported on complementary node sets, which is what defeats any single
    causal predictor on both at once.  These signals fill the whole time
    window (no taper): the associated experiment is a pure on-grid spectral
    identity and needs no wraparound guard.
    """
    grid = cfg.grid
    if not (0.0 < a < grid.omega_max):
        raise ValueError(f"split frequency must lie in (0, omega_max={grid.omega_max})")
    unit = _random_hermitian_phases(grid, _generator(cfg, _STREAM_PAIR))
    inner = _half_nodes(grid)[0] < a
    return SpectralSeries(grid, np.where(inner, unit, 0.0)), SpectralSeries(grid, np.where(inner, 0.0, unit))


def _noise_spectrum(nu: float, cfg: GeneratorConfig) -> np.ndarray:
    """The half noise spectrum (nodes 0..n/2) of :func:`add_noise` on ``cfg.grid``."""
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"noise intensity must be finite and >= 0, got {nu!r}")
    grid = cfg.grid
    if nu == 0.0:
        return np.zeros(grid.n // 2 + 1, dtype=np.complex128)
    unit = _random_hermitian_phases(grid, _generator(cfg, _STREAM_NOISE))
    sel = _band_mask(cfg, _half_nodes(grid)[0])
    count = _half_sum(1.0, grid, sel)
    values = np.where(sel, nu / (count * grid.delta_omega), 0.0) * unit
    return values * (nu / (grid.delta_omega * _half_sum(np.abs(values), grid)))


def add_noise(x, nu: float, cfg: GeneratorConfig):
    """Contaminate with hermitian flat-magnitude noise of exact L1 intensity nu.

    The magnitude is constant over the selected nodes (every node by default,
    or the configured band) and rescaled so that the grid L1 norm of the noise
    spectrum equals nu; returns (contaminated series, noise ``SpectralSeries``).
    A ``SpectralSeries`` is contaminated in its spectrum, a ``TimeSeries`` in
    its samples."""
    if x.grid != cfg.grid:
        raise ValueError("time series grid does not match generator grid")
    N = SpectralSeries(cfg.grid, _noise_spectrum(nu, cfg))
    if isinstance(x, SpectralSeries):
        return SpectralSeries(x.grid, x.spectrum + N.spectrum), N
    return TimeSeries(x.grid, x.samples + N.samples), N


def class_norm(x, cls: DegeneracyClass) -> float:
    """Grid estimate of sup |X(i*omega)| * e^{c/|omega|^q}; +inf for non-members.

    A :class:`SpectralSeries` is read on its stored half spectrum, where
    zeros are exact: any content at the degeneracy node exits the class.
    For a ``TimeSeries`` the transform is recomputed from finite-precision
    samples and carries absolute roundoff at every node, and the weight near
    the degeneracy point is so large that evaluating it on roundoff values
    would flag every representable signal; spectral values at or below the
    roundoff floor (relative to the spectral peak, see the calibration
    table) are therefore treated as exact zeros there, and content at the
    degeneracy node above that floor exits the class.  Evaluated through
    logarithms; the result may round to +inf for signals far outside the
    class, which is the honest extended-real answer.
    """
    if isinstance(x, SpectralSeries):
        mags = np.abs(x.spectrum)
        om = _half_omegas(x.grid)
        floor = 0.0
    else:
        mags = np.abs(forward_transform(x).values)
        om = x.grid.omegas()
        floor = max(
            CALIBRATION["class_zero_floor"],
            CALIBRATION["class_dc_floor_rel"] * float(np.max(mags)),
        )
    if mags[0] > floor:
        return math.inf
    live = mags > floor
    live[0] = False
    if not np.any(live):
        return 0.0
    total = np.log(mags[live]) + log_weight(om[live], cls.q, cls.c)
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(total)))


def make_class_ensemble(cls: DegeneracyClass, cfg: GeneratorConfig, size: int):
    """Draw ``size`` independent class members, seeds derived as cfg.seed + i,
    each a :class:`SpectralSeries` (see :func:`sample_class_member`)."""
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    return _enveloped_member(cls.q, cls.c, cfg, size)
