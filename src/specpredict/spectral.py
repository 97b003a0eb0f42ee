"""Uniform-grid discretization of continuous-time Fourier analysis.

The continuous transform pair

    X(i*omega) = integral e^{-i*omega*t} x(t) dt
    x(t)       = (1/2pi) integral e^{i*omega*t} X(i*omega) d(omega)

is approximated on a uniform time grid with the origin at the grid centre,
so that both past (t < 0) and future (t > 0) samples exist on-grid.  The
frequency nodes are kept in natural (fast-transform) order internally;
``to_centered`` is the only reindexing helper and owns the conversion to the
centered reporting order
{-omega_max, ..., -d_omega, 0, d_omega, ..., omega_max - d_omega}.

Real signals have conjugate-symmetric spectra, so ``rfft_rows`` /
``irfft_rows`` keep only nodes 0..n/2 (node n/2 is the unpaired omega_max)
and transform along the last axis, one signal per row of an (m, n) stack.
They carry the same centred-origin phase and delta_t scaling as the complex
``forward_transform`` / ``inverse_transform`` pair.  The phase factors
``(-1)^k`` and ``delta_t * (-1)^k`` are built once per grid, at nodes
0..n/2 only, and shared read-only.  n is even, so node n-k carries the
factor of node k, and the complex pair reads the nodes above n/2 through
the mirrored index ``[n/2-1:0:-1]`` of the same tables.  ``_half_omegas``
gives the signed omega at nodes 0..n/2, as ``omegas()`` does there, and
``_half_nodes`` gives |omega| and the weight with which each node enters a
full-grid sum; ``_half_sum`` and its log-domain form ``_log_half_sum`` take
every such sum.  These per-grid tables are cached for one grid at a time:
every experiment runs on one grid, and the single-use grids of
``line_witness`` would otherwise pile up.  The predictor, the generators
and the experiments read nodes 0..n/2 only; the complex pair and its
``Spectrum`` serve the public ``transfer`` and ``apply_anticausal``, the
transforms of user series, and the class norm of a series that arrives
as samples.  ``_mirror`` fills nodes n/2+1..n-1 from nodes 0..n/2 where
all n nodes are needed: ``transfer`` and the CLI's spectrum CSV.  A
``TimeSeries`` stores real samples as float64, with no zero imaginary
parts; their fast transform is bit for bit that of the same values stored
as complex.  A ``SpectralSeries`` is a real signal stored as its half
spectrum, as every generator returns it; its samples are the real inverse,
formed on demand.

Grids hold at most ``MAX_GRID_N`` = 2^24 samples, where one complex array
already takes 256 MB; a larger ``n`` is rejected before anything is
allocated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tolerances import CALIBRATION

TWO_PI = 2.0 * math.pi
MAX_GRID_N = 2**24


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def to_centered(values: np.ndarray) -> np.ndarray:
    """Reorder natural (fast-transform) node order to centered order."""
    return np.fft.fftshift(values)


@dataclass(frozen=True)
class FrequencyGrid:
    """Pairing of a uniform time grid with its uniform angular-frequency grid.

    ``n`` samples ``delta_t`` apart span ``T = n*delta_t``; the conjugate
    frequency nodes are ``delta_omega = 2*pi/T`` apart and cover
    ``[-omega_max, omega_max)`` with ``omega_max = pi/delta_t``.  Time nodes
    are ``t_j = (j - n/2)*delta_t``.
    """

    n: int
    delta_t: float

    def __post_init__(self) -> None:
        n = self.n
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"sample count must be an integer, got {n!r}")
        if n < 8 or not _is_power_of_two(int(n)):
            raise ValueError(f"sample count must be a power of two >= 8, got {n}")
        if n > MAX_GRID_N:
            raise ValueError(f"sample count must be at most {MAX_GRID_N}, got {n}")
        dt = self.delta_t
        if not (isinstance(dt, (int, float, np.floating)) and math.isfinite(dt) and dt > 0):
            raise ValueError(f"time step must be a positive finite number, got {dt!r}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "delta_t", float(dt))

    @property
    def span(self) -> float:
        """Total time span T = n * delta_t."""
        return self.n * self.delta_t

    @property
    def delta_omega(self) -> float:
        """Frequency step 2*pi / T."""
        return TWO_PI / self.span

    @property
    def omega_max(self) -> float:
        """Largest resolvable angular frequency pi / delta_t."""
        return math.pi / self.delta_t

    def times(self) -> np.ndarray:
        """Time nodes t_j = (j - n/2) * delta_t, j = 0..n-1."""
        return (np.arange(self.n) - self.n // 2) * self.delta_t

    def omegas(self) -> np.ndarray:
        """Angular-frequency nodes in natural (fast-transform) order."""
        return TWO_PI * np.fft.fftfreq(self.n, d=self.delta_t)

    def omegas_centered(self) -> np.ndarray:
        """Angular-frequency nodes in centered reporting order."""
        return to_centered(self.omegas())


def make_grid(n: int, delta_t: float) -> FrequencyGrid:
    """Construct a grid, rejecting non-power-of-two n and nonpositive steps."""
    return FrequencyGrid(n, delta_t)


def _read_only(arr: np.ndarray, n: int, what: str) -> np.ndarray:
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Sampled signal on a grid; index j holds the value at t_j = (j - n/2)*delta_t.

    Real input is kept as a read-only float64 copy and complex input as a
    complex128 one, so ``is_real`` holds by dtype for real storage.  Every
    sample must be finite: NaN or infinite input raises ValueError.
    """

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples)
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = _read_only(arr.astype(dtype, copy=False), self.grid.n, "samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite, got NaN or infinity")
        object.__setattr__(self, "samples", arr)

    @property
    def is_real(self) -> bool:
        if not np.iscomplexobj(self.samples):
            return True
        mag = np.max(np.abs(self.samples))
        if mag == 0.0:
            return True
        return float(np.max(np.abs(self.samples.imag))) <= CALIBRATION["real_imag_rel"] * mag


@dataclass(frozen=True)
class SpectralSeries:
    """Real signal held as its half spectrum X(i*omega_k) at nodes 0..n/2.

    A signal defined by its spectrum keeps that spectrum, read-only and
    uncopied, in place of samples: re-transforming the samples would add
    roundoff at every node, exact zeros included.  ``samples`` is the real
    inverse :func:`irfft_rows`, formed afresh on each read and read-only, so
    it equals the float64 samples a ``TimeSeries`` would hold, bit for bit.
    """

    grid: FrequencyGrid
    spectrum: np.ndarray
    is_real = True

    def __post_init__(self) -> None:
        spectrum = np.asarray(self.spectrum, dtype=np.complex128)
        object.__setattr__(self, "spectrum", _read_only(spectrum, self.grid.n // 2 + 1, "spectrum"))

    @property
    def samples(self) -> np.ndarray:
        samples = irfft_rows(self.spectrum, self.grid)
        samples.flags.writeable = False
        return samples


@dataclass(frozen=True)
class Spectrum:
    """Sampled transform X(i*omega_k) on a grid, natural node order."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", _read_only(values, self.grid.n, "values"))

    @property
    def is_hermitian(self) -> bool:
        mag = np.max(np.abs(self.values))
        if mag == 0.0:
            return True
        idx = (-np.arange(self.grid.n)) % self.grid.n
        defect = np.max(np.abs(self.values - np.conj(self.values[idx])))
        return float(defect) <= CALIBRATION["hermitian_rel"] * mag


def _mirror(half: np.ndarray) -> np.ndarray:
    """All n nodes of a real signal's spectrum from its nodes 0..n/2: node
    n-k is the conjugate of node k."""
    return np.concatenate((half, np.conj(half[-2:0:-1])))


@functools.lru_cache(maxsize=1)
def _half_omegas(grid: FrequencyGrid) -> np.ndarray:
    """Signed omega at nodes 0..n/2, read-only and cached: bit for bit
    ``grid.omegas()[:n/2+1]``, node n/2 at -omega_max, without building
    the n-node ``fftfreq``.  It forms k * (1/(n*delta_t)) as ``fftfreq``
    does, negates node n/2, which is exact, and scales by 2*pi."""
    om = np.arange(grid.n // 2 + 1) * (1.0 / (grid.n * grid.delta_t))
    om[-1] = -om[-1]
    om *= TWO_PI
    om.flags.writeable = False
    return om


@functools.lru_cache(maxsize=1)
def _half_nodes(grid: FrequencyGrid):
    """(|omega|, weight) at nodes 0..n/2, read-only and cached.  The weight
    is 2, as node k stands for both signs of omega, except at nodes 0 and
    n/2, which stand for themselves; a full-grid sum of a function even in
    omega is the weighted sum over nodes 0..n/2."""
    omega_abs = np.abs(_half_omegas(grid))
    weights = np.full(grid.n // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0
    omega_abs.flags.writeable = weights.flags.writeable = False
    return omega_abs, weights


def _half_sum(values, grid: FrequencyGrid, nodes=slice(None)) -> float:
    """Full-grid sum of a function even in omega from its ``values`` at
    ``nodes`` (a slice or mask of nodes 0..n/2), each times its node's
    weight 1 or 2: w * (a * b) is (w * a) * b bit for bit in the normal
    range, so callers may group products either way (docs/numerics.md)."""
    return float(np.sum(_half_nodes(grid)[1][nodes] * values))


def _logsumexp(values) -> float:
    """log(sum(exp(values))) without overflow; -inf for no values."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -math.inf
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    with np.errstate(under="ignore"):
        return m + math.log(float(np.sum(np.exp(a - m))))


def _log_half_sum(log_values: np.ndarray, grid: FrequencyGrid) -> float:
    """log of :func:`_half_sum` of exp(``log_values``) at nodes 0..n/2, finite
    where that sum overflows: the log-sum-exp of ``log_values + log(weight)``."""
    return _logsumexp(log_values + np.log(_half_nodes(grid)[1]))


@functools.lru_cache(maxsize=1)
def _signs(grid: FrequencyGrid):
    """((-1)^k, delta_t * (-1)^k) at nodes 0..n/2, the phase factors tying
    the centered time origin to natural order; read-only and cached.  The
    real transforms read them as they are.  n is even, so node n-k takes
    the factor of node k, and the complex pair scales nodes n/2+1..n-1 by
    the mirrored slice ``[n/2-1:0:-1]``; no n-node table is built."""
    signs = np.ones(grid.n // 2 + 1)
    signs[1::2] = -1.0
    scaled = grid.delta_t * signs
    signs.flags.writeable = scaled.flags.writeable = False
    return signs, scaled


def forward_transform(x: TimeSeries) -> Spectrum:
    """Riemann approximation of the continuous Fourier integral.

    X(i*omega_k) ~ delta_t * sum_j e^{-i*omega_k*t_j} x(t_j), computed with a
    fast transform plus the (-1)^k phase correction for the centered origin.
    """
    values = np.fft.fft(x.samples)
    scaled = _signs(x.grid)[1]
    h = scaled.size
    values[:h] *= scaled
    values[h:] *= scaled[h - 2 : 0 : -1]
    return Spectrum(x.grid, values)


def inverse_transform(X: Spectrum) -> TimeSeries:
    """Inverse of :func:`forward_transform`; exact round trip up to rounding."""
    signs = _signs(X.grid)[0]
    h = signs.size
    phased = np.empty_like(X.values)
    np.multiply(signs, X.values[:h], out=phased[:h])
    np.multiply(signs[h - 2 : 0 : -1], X.values[h:], out=phased[h:])
    samples = np.fft.ifft(phased)
    samples /= X.grid.delta_t
    return TimeSeries(X.grid, samples)


def rfft_rows(samples, grid: FrequencyGrid) -> np.ndarray:
    """:func:`forward_transform` of real signals along the last axis, nodes 0..n/2.

    ``samples`` is one real series of shape (n,) or a stack of shape (m, n);
    the result has shape (n/2+1,) or (m, n/2+1).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim not in (1, 2) or samples.shape[-1] != grid.n:
        raise ValueError(f"samples must have shape ({grid.n},) or (m, {grid.n}), got {samples.shape}")
    out = np.fft.rfft(samples, axis=-1)
    out *= _signs(grid)[1]
    return out


def irfft_rows(values, grid: FrequencyGrid) -> np.ndarray:
    """:func:`inverse_transform` of half spectra (nodes 0..n/2) to real rows.

    ``values`` has shape (n/2+1,) or (m, n/2+1); the conjugate-symmetric
    upper half is implied, and the imaginary parts at nodes 0 and n/2 are
    dropped, as taking the real part of the complex inverse would.
    """
    values = np.asarray(values, dtype=np.complex128)
    h = grid.n // 2 + 1
    if values.ndim not in (1, 2) or values.shape[-1] != h:
        raise ValueError(f"values must have shape ({h},) or (m, {h}), got {values.shape}")
    out = np.fft.irfft(_signs(grid)[0] * values, n=grid.n, axis=-1)
    out /= grid.delta_t
    return out


def _is_sup(p) -> bool:
    """True for the sup norm (inf, "inf", "sup"), False for p = 2; else ValueError."""
    if p == 2:
        return False
    if p in ("inf", "sup") or (isinstance(p, (int, float)) and math.isinf(p)):
        return True
    raise ValueError(f"p must be 2 or inf, got {p!r}")


def norm(x: TimeSeries, p) -> float:
    """Grid norm: p=2 gives sqrt(delta_t * sum |x|^2); p=inf gives max |x|."""
    mags = np.abs(x.samples)
    if _is_sup(p):
        return float(np.max(mags)) if mags.size else 0.0
    return float(math.sqrt(x.grid.delta_t) * np.linalg.norm(mags))
