"""Uniform-grid discretization of continuous-time Fourier analysis.

The continuous transform pair

    X(i*omega) = integral e^{-i*omega*t} x(t) dt
    x(t)       = (1/2pi) integral e^{i*omega*t} X(i*omega) d(omega)

is approximated on a uniform time grid with the origin at the grid centre,
so that both past (t < 0) and future (t > 0) samples exist on-grid.  The
frequency nodes are kept in natural (fast-transform) order internally; the
spectrum report lists them in the centered order
{-omega_max, ..., -d_omega, 0, d_omega, ..., omega_max - d_omega}.

Every signal is real, so its spectrum is conjugate-symmetric and is held
at nodes 0..n/2 only (node n/2 is the unpaired omega_max).  There is one
transform pair: :func:`forward_transform` takes a real ``TimeSeries`` to
the ``SpectralSeries`` of its half spectrum, and ``SpectralSeries.samples``
is the inverse.  ``rfft_rows`` / ``irfft_rows`` are the same pair on
arrays, along the last axis, one signal per row of an (m, n) stack;
``rfft_rows`` can write into a given buffer, and ``_irfft_phased`` is the
inverse of a spectrum that already carries the phase, so a caller that
reuses buffers needs no scratch copy.  Both
carry the centered-origin phase ``(-1)^k`` and the delta_t scaling, whose
factors are built once per grid at nodes 0..n/2 (``_signs``) and shared
read-only.  ``_half_omegas`` gives the signed omega at nodes 0..n/2, as
``omegas()`` does there, and ``_half_nodes`` gives |omega| and the weight
with which each node enters a full-grid sum; ``_half_sum`` and its
log-domain form ``_log_half_sum`` take every such sum.  These per-grid
tables are cached for one grid at a time: every experiment runs on one
grid, and the single-use grids of ``line_witness`` would otherwise pile
up.  A ``TimeSeries`` stores float64 samples and rejects complex input.  A
``SpectralSeries`` keeps the half spectrum a generator built, and forms its
samples on demand.

Grids hold at most ``MAX_GRID_N`` = 2^24 samples, where one array of
samples already takes 128 MB; a larger ``n`` is rejected before anything
is allocated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
MAX_GRID_N = 2**24


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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

    def times(self, start: int = 0, stop: int = None) -> np.ndarray:
        """Time nodes t_j = (j - n/2) * delta_t for j = start..stop-1 (all n
        by default); a range gives the same values as slicing all n nodes."""
        return (np.arange(start, self.n if stop is None else stop) - self.n // 2) * self.delta_t

    def omegas(self) -> np.ndarray:
        """Angular-frequency nodes in natural (fast-transform) order: node k
        at k*delta_omega below n/2 and at (k - n)*delta_omega from n/2 on."""
        k = np.arange(self.n)
        k[self.n // 2 :] -= self.n
        return TWO_PI * (k * (1.0 / (self.n * self.delta_t)))


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
    """Real sampled signal on a grid; index j holds the value at t_j = (j - n/2)*delta_t.

    The samples are kept as a read-only float64 copy.  Complex input raises
    ValueError whatever its imaginary part, and so does a NaN or infinite
    sample.
    """

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples)
        if np.iscomplexobj(arr):
            raise ValueError("samples must be real")
        arr = _read_only(arr.astype(np.float64, copy=False), self.grid.n, "samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite, got NaN or infinity")
        object.__setattr__(self, "samples", arr)


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

    def __post_init__(self) -> None:
        spectrum = np.asarray(self.spectrum, dtype=np.complex128)
        object.__setattr__(self, "spectrum", _read_only(spectrum, self.grid.n // 2 + 1, "spectrum"))

    @property
    def samples(self) -> np.ndarray:
        samples = irfft_rows(self.spectrum, self.grid)
        samples.flags.writeable = False
        return samples


@functools.lru_cache(maxsize=1)
def _half_omegas(grid: FrequencyGrid) -> np.ndarray:
    """Signed omega at nodes 0..n/2, read-only and cached: bit for bit
    ``grid.omegas()[:n/2+1]``, node n/2 at -omega_max, without building
    all n nodes.  It forms k * (1/(n*delta_t)) as ``omegas`` does, negates
    node n/2, which is exact, and scales by 2*pi."""
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
    the centered time origin to natural order; read-only and cached."""
    signs = np.ones(grid.n // 2 + 1)
    signs[1::2] = -1.0
    scaled = grid.delta_t * signs
    signs.flags.writeable = scaled.flags.writeable = False
    return signs, scaled


def forward_transform(x: TimeSeries) -> SpectralSeries:
    """Riemann approximation of the continuous Fourier integral at nodes 0..n/2.

    X(i*omega_k) ~ delta_t * sum_j e^{-i*omega_k*t_j} x(t_j), computed with a
    real fast transform plus the (-1)^k phase correction for the centered
    origin; :attr:`SpectralSeries.samples` is its inverse.
    """
    values = np.fft.rfft(x.samples)
    values *= _signs(x.grid)[1]
    return SpectralSeries(x.grid, values)


def rfft_rows(samples, grid: FrequencyGrid, out=None) -> np.ndarray:
    """:func:`forward_transform` of real rows along the last axis, nodes 0..n/2.

    ``samples`` is one real series of shape (n,) or a stack of shape (m, n);
    the result has shape (n/2+1,) or (m, n/2+1), and is written into ``out``
    when that complex128 buffer is given.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim not in (1, 2) or samples.shape[-1] != grid.n:
        raise ValueError(f"samples must have shape ({grid.n},) or (m, {grid.n}), got {samples.shape}")
    out = np.fft.rfft(samples, axis=-1, out=out)
    out *= _signs(grid)[1]
    return out


def irfft_rows(values, grid: FrequencyGrid) -> np.ndarray:
    """Inverse of :func:`rfft_rows`: half spectra (nodes 0..n/2) to real rows.

    ``values`` has shape (n/2+1,) or (m, n/2+1); the conjugate-symmetric
    upper half is implied, and the imaginary parts at nodes 0 and n/2 are
    dropped, as taking the real part of the full complex inverse would.
    """
    values = np.asarray(values, dtype=np.complex128)
    h = grid.n // 2 + 1
    if values.ndim not in (1, 2) or values.shape[-1] != h:
        raise ValueError(f"values must have shape ({h},) or (m, {h}), got {values.shape}")
    return _irfft_phased(_signs(grid)[0] * values, grid)


def _irfft_phased(phased: np.ndarray, grid: FrequencyGrid, out=None) -> np.ndarray:
    """:func:`irfft_rows` of half spectra that already carry its (-1)^k
    phase, written into the float64 buffer ``out`` when one is given; a
    caller that may overwrite its spectrum phases it in place and needs no
    phased copy."""
    out = np.fft.irfft(phased, n=grid.n, axis=-1, out=out)
    out /= grid.delta_t
    return out


def norm(x: TimeSeries, p) -> float:
    """Grid norm: p=2 gives sqrt(delta_t * sum x^2); p=inf gives max |x|;
    any other p raises ValueError."""
    mags = np.abs(x.samples)
    if p == math.inf:
        return float(np.max(mags))
    if p == 2:
        return float(math.sqrt(x.grid.delta_t) * np.linalg.norm(mags))
    raise ValueError(f"p must be 2 or inf, got {p!r}")
