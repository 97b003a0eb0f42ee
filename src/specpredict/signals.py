"""Seed-deterministic test-signal generators.

All generators are pure functions of (parameters, seed).  The pseudorandom
source is the Philox4x64-10 counter generator keyed through numpy's
SeedSequence hash with a per-purpose spawn key, computed here on numpy
arrays and Python ints: it is bit-identical to numpy's
``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(stream,))))``
drawing ``uniform`` phases and two ``integers(0, 2)`` signs, without
importing ``numpy.random``.  Outputs are reproducible bit-exactly across
platforms and numpy releases; :data:`ALGORITHM_ID` names the scheme inside
every report.

Every generated signal is built spectrum-first (a magnitude times random
phase), and class members and band-limited draws go through one projection,
:func:`_project`: it tapers the signal to the middle half of the time window
for wraparound safety, then clips the spectrum under a bound (the class
envelope, or a band's support) so that the bound holds exactly at every
node.  The last step is spectral, so a signal keeps that half spectrum (a
``SpectralSeries``) and its samples are the inverse of it; the time support
is then "near-compact", with guard residues held under the calibration guard
level on adequately long windows.  An ensemble of members holds only its
seeds: a member is a pure function of (q, c, seed), so it is drawn each
time it is read, and reading it twice draws it twice.  The noise of the
robustness experiment is drawn as its half spectrum alone.  The two-sided
counterexample draws nothing: its figures read only |X| = 1 on each side of
its split (:func:`.experiments.counterexample_experiment`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .degeneracy import DegeneracyClass, log_weight
from .spectral import (
    FrequencyGrid,
    SpectralSeries,
    _half_nodes,
    _half_sum,
    _irfft,
    _real,
    _sequence,
    _rfft,
)

ALGORITHM_ID = "numpy.random.Philox(SeedSequence(entropy=seed, spawn_key=(stream,)))"

_STREAM_CLASS = 0
_STREAM_BAND = 1
_STREAM_NOISE = 3


@dataclass(frozen=True)
class GeneratorConfig:
    """Seed, grid and optional band restriction of a generator.

    ``band`` restricts generated content to omega_lo <= |omega| <= omega_hi
    strictly inside (0, omega_max).
    """

    seed: int
    grid: FrequencyGrid
    band: tuple = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.band is not None:
            try:
                lo, hi = _sequence("band", self.band)
            except ValueError:
                raise ValueError("band must be two numbers (lo, hi)") from None
            lo = _real("band lo", lo, hi=self.grid.omega_max)
            object.__setattr__(self, "band", (lo, _real("band hi", hi, lo, self.grid.omega_max)))
        object.__setattr__(self, "seed", int(self.seed))


# SeedSequence's hash constants (INIT_A, MULT_A, INIT_B, MULT_B, MIX_MULT_L,
# MIX_MULT_R) and Philox4x64's round multipliers and Weyl key increments
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _generator(cfg: GeneratorConfig, stream: int) -> tuple:
    """The 128-bit Philox key of ``cfg.seed``'s ``stream``, as two 64-bit words.

    This is ``SeedSequence(entropy=seed, spawn_key=(stream,))
    .generate_state(2, uint64)``: the seed's two 32-bit words, zero-padded
    to the pool size 4 because a spawn key is given, then the stream word,
    run through the sequence's 32-bit hash mix.  Python ints masked to 32
    bits throughout; numpy scalars would warn on the intended overflow.
    """
    entropy = (cfg.seed & _MASK32, cfg.seed >> 32, 0, 0, stream)
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = (const * _HASH_MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _HASH_INIT_B
    state = []
    for word in pool:
        word ^= const
        const = (const * _HASH_MULT_B) & _MASK32
        word = (word * const) & _MASK32
        state.append(word ^ (word >> 16))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox_lanes(key: tuple, blocks: int):
    """Philox4x64-10 of counter blocks 1..blocks under ``key``.

    Returns (even, odd), each of shape (2, blocks): lanes 0 and 2, and lanes
    1 and 3, of every block; word j of the stream is lane j % 4 of block
    j // 4 + 1, as numpy's Philox buffers it.  All blocks run the rounds at
    once; the 64x64 -> 128-bit products are formed from 32-bit halves.
    """
    m = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    m_lo, m_hi = m & _MASK32, m >> 32
    even = np.zeros((2, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros((2, blocks), dtype=np.uint64)
    lo, hi, a, b, c = (np.empty((2, blocks), dtype=np.uint64) for _ in range(5))
    k = np.empty((2, 1), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        k[0, 0] = (key[0] + r * _PHILOX_W[0]) & _MASK64
        k[1, 0] = (key[1] + r * _PHILOX_W[1]) & _MASK64
        # hi = hh + (t >> 32) + (((t & M32) + lh) >> 32), t = hl + (ll >> 32)
        np.bitwise_and(even, _MASK32, out=a)
        np.right_shift(even, 32, out=b)
        np.multiply(m_lo, a, out=c)
        np.multiply(m_hi, a, out=a)
        c >>= 32
        a += c
        np.multiply(m_lo, b, out=c)
        np.multiply(m_hi, b, out=hi)
        np.right_shift(a, 32, out=b)
        hi += b
        a &= _MASK32
        a += c
        a >>= 32
        hi += a
        np.multiply(m, even, out=lo)
        # (lane0, lane2) <- (hi1 ^ lane1 ^ k0, hi0 ^ lane3 ^ k1);
        # (lane1, lane3) <- (lo1, lo0)
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= k
        odd, lo = lo[::-1], odd
    return even, odd


def _band_mask(cfg: GeneratorConfig, omega_abs: np.ndarray) -> np.ndarray:
    if cfg.band is None:
        return np.ones(omega_abs.shape, dtype=bool)
    lo, hi = cfg.band
    return (omega_abs >= lo) & (omega_abs <= hi)


def _random_hermitian_phases(grid: FrequencyGrid, key: tuple) -> np.ndarray:
    """Half of a unit-modulus hermitian spectrum, e^{i phi} at nodes 0..n/2.

    Draws the first n/2 words u of the Philox stream under ``key``: node k
    of 1..n/2-1 takes phi = 0.0 + 2 pi ((u_{k-1} >> 11) 2^-53), numpy's
    ``uniform(0, 2 pi)``.  The omega = 0 node and the unpaired omega_max
    node stay real and take the signs of bits 31 and 63 of the last word,
    numpy's two ``integers(0, 2)`` from its buffered 32-bit halves.  The
    nodes above n/2 are the conjugate mirror.
    """
    n = grid.n
    blocks = n // 8
    even, odd = _philox_lanes(key, blocks)
    last = int(odd[1, -1])
    phases = np.empty(n // 2 + 1)
    phases[0] = 0.0
    # words 0..n/2-1 land on nodes 1..n/2; node n/2 takes its sign below
    lanes = phases[1:].reshape(blocks, 4)
    even >>= 11
    odd >>= 11
    for lane, words in enumerate((even[0], odd[0], even[1], odd[1])):
        lanes[:, lane] = words
    del even, odd, lanes, words
    # 2 pi 2^-53 is exact, so one product rounds as 2 pi * (w 2^-53) does
    phases *= 2.0 * math.pi * 2.0**-53
    unit = phases * 1j
    del phases
    np.exp(unit, out=unit)
    unit[0] = ((last >> 31) & 1) * 2.0 - 1.0
    unit[n // 2] = (last >> 63) * 2.0 - 1.0
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

    The ramp is ``0.5 * math.erfc`` of each node's |t_j|, taken from
    ``grid.times`` in blocks of at most ``_WINDOW_BLOCK`` nodes, each put
    at its place in natural order (t = 0 at sample 0, as :func:`_project`
    takes the samples), so no n-node time array or n/2-value list is built.
    It is evaluated once per grid: the result is cached per (frozen,
    hashable) ``FrequencyGrid`` and returned read-only.
    """
    n = grid.n
    step = min(_WINDOW_BLOCK, n // 2)
    t_flat = grid.span / 16.0
    t_zero = grid.span / 4.0
    sigma = (t_zero - t_flat) / 8.6
    mu = 0.5 * (t_flat + t_zero)
    width = math.sqrt(2.0) * sigma
    w = np.zeros(n)
    for start in range(0, n, step):
        t = np.abs(grid.times(start, start + step))
        inside = t < t_zero
        arg = (t[inside] - mu) / width
        block = w[(start + n // 2) % n :][:step]
        block[inside] = 0.5 * np.fromiter(map(math.erfc, arg.tolist()), dtype=np.float64)
    w /= np.max(w)
    w.flags.writeable = False
    return w


# generated spectra sit at half the envelope so that taper-induced spectral
# fluctuation stays under the bound almost everywhere; the projection rounds
# then only trim boundary-layer leakage
_HEADROOM = 0.5
_PROJECTION_ROUNDS = 2


def _project(X: np.ndarray, clip: np.ndarray, grid: FrequencyGrid) -> SpectralSeries:
    """Alternate confinement to the guard window with the projection of
    ``X`` under |X| <= ``clip``, in place on ``X``, for ``_PROJECTION_ROUNDS``
    rounds; the last step is spectral, so the bound and X(0) = 0 are exact.
    A node is scaled by min(clip/|X|, 1), 1 where |X| = 0: an infinite clip
    keeps it, a zero clip makes it a signed zero.  The sample and scale
    buffers live for one call."""
    x = np.empty(grid.n)
    scale = np.empty(X.size)
    for _ in range(_PROJECTION_ROUNDS):
        # the natural-order pair through the buffers: no time origin needed
        _irfft(X, grid, out=x)
        np.multiply(x, _guard_window(grid), out=x)
        _rfft(x, grid, out=X)
        np.abs(X, out=scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(clip, scale, out=scale)
        np.fmin(scale, 1.0, out=scale)
        X *= scale
        X[0] = 0.0
    return SpectralSeries(grid, X)


def _enveloped_member(q: float, c: float, cfg: GeneratorConfig, size: int) -> _Members:
    """Envelope-times-random-phase members for a raw (q, c) pair.

    Returns the ``size`` members seeded ``cfg.seed + i`` as a read-only
    sequence that holds their seeds and draws a member each time it is read
    (:class:`_Members`); a size that is not an integer >= 1 (a bool is
    not) or a seed range that leaves 64 unsigned bits raises ValueError
    here, before any member is drawn.

    No validation of q: callers admit q > 1 through DegeneracyClass, while
    the negative illustration deliberately feeds q in (0, 1).
    """
    if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
        raise ValueError(f"ensemble size must be an integer, got {size!r}")
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    last = cfg.seed + size - 1
    if last >= 2**64:
        raise ValueError(
            f"member seeds {cfg.seed}..{last} must fit in 64 unsigned bits: "
            f"for {size} members the seed must be at most {2**64 - size}"
        )
    return _Members(q, c, cfg, range(cfg.seed, cfg.seed + size))


class _Members(Sequence):
    """Class members for a raw (q, c), one per seed of ``seeds`` (a range),
    each drawn when it is read: the ensemble is its seeds.

    ``members[i]`` draws member i afresh, so reading it twice draws it
    twice; a slice is the members of the sliced seeds.  Each member runs
    through :func:`_project` on its own half spectrum, so it does not depend
    on the ensemble it is drawn in, and it is the :class:`SpectralSeries` of
    the spectrum that is exactly in the class, not a re-transform of its
    samples.  The members of one iteration share only the envelope.
    """

    def __init__(self, q: float, c: float, cfg: GeneratorConfig, seeds: range):
        self._q, self._c, self._cfg, self._seeds = q, c, cfg, seeds

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Members(self._q, self._c, self._cfg, self._seeds[index])
        return self._drawer()(self._seeds[index])

    def __iter__(self):
        draw = self._drawer()
        return (draw(seed) for seed in self._seeds)

    def _drawer(self):
        """The function that draws the member of a seed; it holds only the
        envelope, and each draw projects in buffers of its own."""
        cfg, grid = self._cfg, self._cfg.grid
        om_abs = _half_nodes(grid)[0]
        # the envelope e^{-c/|omega|^q}, formed in the buffer of the log weight
        env = log_weight(om_abs, self._q, self._c)
        np.negative(env, out=env)
        env[~_band_mask(cfg, om_abs)] = -np.inf
        with np.errstate(under="ignore"):
            np.exp(env, out=env)
        env[0] = 0.0

        def draw(seed: int) -> SpectralSeries:
            X = _random_hermitian_phases(grid, _generator(replace(cfg, seed=seed), _STREAM_CLASS))
            X *= _HEADROOM * env
            return _project(X, env, grid)

        return draw


def sample_class_member(cls: DegeneracyClass, cfg: GeneratorConfig) -> SpectralSeries:
    """Draw a real signal whose spectrum obeys |X| <= e^{-c/|omega|^q}.

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
    specific class are wanted.  :func:`_project` clips it at infinity on the
    support and at 0 off it, so it is the :class:`SpectralSeries` of its last
    projection, a signed zero off the support and +0 at omega = 0.
    """
    grid = cfg.grid
    omega_bar = _real("omega_bar", omega_bar, hi=grid.omega_max)
    om_abs = _half_nodes(grid)[0]
    support = (om_abs <= omega_bar) & _band_mask(cfg, om_abs)
    support[0] = False
    if not np.any(support):
        support = om_abs == grid.delta_omega
    env = np.where(support, 1.0, 0.0)
    # roll the band edge off smoothly so the time taper sheds little mass
    # past the edge (exact support plus compact support cannot both be sharp)
    edge = 0.8 * omega_bar
    roll = (om_abs > edge) & (om_abs <= omega_bar) & support
    env[roll] *= 0.5 * (1.0 + np.cos(math.pi * (om_abs[roll] - edge) / (omega_bar - edge)))

    X = env * _random_hermitian_phases(grid, _generator(cfg, _STREAM_BAND))
    return _project(X, np.where(support, np.inf, 0.0), grid)


def _noise_spectrum(nu: float, cfg: GeneratorConfig) -> np.ndarray:
    """Hermitian flat-magnitude noise of exact L1 intensity nu, as its half
    spectrum (nodes 0..n/2) on ``cfg.grid``.

    The magnitude is constant over the selected nodes (every node by default,
    or the configured band) and rescaled so that the grid L1 norm of the
    noise spectrum equals nu, a finite number >= 0 that the caller checks.
    """
    grid = cfg.grid
    if nu == 0.0:
        return np.zeros(grid.n // 2 + 1, dtype=np.complex128)
    unit = _random_hermitian_phases(grid, _generator(cfg, _STREAM_NOISE))
    sel = _band_mask(cfg, _half_nodes(grid)[0])
    count = _half_sum(1.0, grid, sel)
    values = np.where(sel, nu / (count * grid.delta_omega), 0.0) * unit
    return values * (nu / (grid.delta_omega * _half_sum(np.abs(values), grid)))


def make_class_ensemble(cls: DegeneracyClass, cfg: GeneratorConfig, size: int):
    """``size`` independent class members, seeds derived as cfg.seed + i,
    each a :class:`SpectralSeries` (see :func:`sample_class_member`).

    The ensemble is its seeds: a read-only sequence that draws a member each
    time it is read (see :func:`_enveloped_member`)."""
    return _enveloped_member(cls.q, cls.c, cfg, size)
