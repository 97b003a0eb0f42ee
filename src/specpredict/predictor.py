"""Causal predictor transfer functions for anti-causal convolutions.

For a kernel with poles {a_j} and sharpness parameters gamma > 0, r > 0, the
correcting factor per pole is

    V_j(z) = 1 - exp(-gamma * (z - a_j) / (z + gamma^{-r})),

an entire expression in z on the closed right half-plane (the denominator
root -gamma^{-r} sits strictly in the left half-plane).  The product
V = prod_j V_j vanishes at every pole a_j, so K_hat = V * K extends
holomorphically to the right half-plane: its inverse transform is supported
on t >= 0 and acts as a causal predictor of the anti-causal convolution.

Near omega = 0 the factor exponent has real part up to gamma^{r+1} * a_j, so
|V| can exceed the double-precision range astronomically.  All magnitudes
are therefore carried in log-magnitude/phase form; stored K_hat values are
clamped in modulus at exp(700), and every low-band check works entirely in
the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import DegeneracyClass, log_weight
from .kernels import AnticausalKernel, _transfer_at, transfer
from .spectral import (
    FrequencyGrid,
    _half_nodes,
    _half_omegas,
    _half_sum,
    _log_abs,
    _real,
    _sequence,
    irfft_rows,
)
from .tolerances import CALIBRATION

_CLAMP_LOG = CALIBRATION["khat_clamp_log"]

# lemma_check's floor and find_gamma0's bracket when a caller gives none
DEFAULT_OMEGA_FLOOR = 0.5
DEFAULT_GAMMA0_BRACKET = (0.5, 2000.0)


class NumericalFailure(ArithmeticError):
    """An accepted input for which the computation gives no trustworthy figure."""


def factor_exponent(z, a: float, gamma: float, r: float) -> np.ndarray:
    """The exponent -gamma * (z - a) / (z + gamma^{-r}) as one complex division.

    The numerator is scaled and divided in its own buffer, beside the one
    denominator, with the operands in the order of the expression.
    """
    alpha = gamma ** (-r)
    w = np.array(z, dtype=np.complex128)
    w -= a
    np.multiply(-gamma, w, out=w)
    w /= np.asarray(z) + alpha
    return w[()]  # a numpy scalar for scalar z, as the one expression gave


def eval_v_factor(z, a: float, gamma: float, r: float):
    """Evaluate V_j(z) = 1 - exp(-gamma (z - a)/(z + gamma^{-r})) directly.

    Valid on the closed right half-plane and the imaginary axis.  The
    exponential is entire, so there is no branch ambiguity; where its real
    part exceeds the double range the result overflows to inf
    (:func:`v_logpolar` is the log-polar alternative, which does not).
    """
    a, gamma, r = _real("pole", a), _real("gamma", gamma), _real("r", r)
    with np.errstate(over="ignore", under="ignore"):
        out = 1.0 - np.exp(factor_exponent(z, a, gamma, r))
    if np.isscalar(z) or np.asarray(z).shape == ():
        return complex(out)
    return out


def _scaled_exp(z, a: float, gamma: float, r: float):
    """(m, e^{w - m}) of the :func:`factor_exponent` w, m = max(Re w, 0)."""
    w = np.asarray(factor_exponent(z, a, gamma, r))
    m = np.maximum(w.real, 0.0)
    w.real -= m
    return m, np.exp(w, out=w)


def v_logpolar(z: np.ndarray, kernel: AnticausalKernel, gamma: float, r: float):
    """(log|V|, arg V) of the full product at complex points z (i*omega on the axis).

    Each factor is 1 - e^w = e^m (e^{-m} - e^{w - m}) (:func:`_scaled_exp`),
    of log magnitude m + log|e^{-m} - e^{w - m}|, so no exponential
    overflows however large Re w grows; where Re w <= 0 it is 1 - e^w exactly.
    """
    z = np.asarray(z, dtype=np.complex128)
    logmag, phase = np.zeros(z.shape), np.zeros(z.shape)
    with np.errstate(under="ignore"):
        for a in kernel.poles:
            m, f = _scaled_exp(z, a, gamma, r)
            logmag += m
            logmag += _log_abs(np.subtract(np.exp(-m), f, out=f))
            phase += np.angle(f)
    return logmag, phase


def _khat_logpolar(kernel: AnticausalKernel, gamma: float, r: float, z: np.ndarray):
    """(K, log|V|, arg V, log|K_hat|, arg K_hat) at complex points z.

    V is evaluated before K, so K is not alive beside the factor loop's
    complex temporaries; the other order raises the traced peak of
    :func:`build_predictor` past the bound in tests/test_memory.py.
    """
    v_log, v_ph = v_logpolar(z, kernel, gamma, r)
    K = _transfer_at(kernel, z)
    return K, v_log, v_ph, v_log + _log_abs(K), v_ph + np.angle(K)


def v_minus_one(omega, kernel: AnticausalKernel, gamma: float, r: float):
    """(s, D) with V(i*omega) - 1 = D e^s, s = sum_j m_j and m_j = max(Re w_j, 0).

    The recurrence D <- D + f_j (1 + D) from D = 0, f_j = -e^{w_j}, in units
    of e^s: D <- -e^{w_j - m_j} (e^{-s} + D) + e^{-m_j} D, then s <- s + m_j,
    so no step overflows.  Where every m_j = 0, s = 0 and D is f_1 exactly
    for one pole, within a few rounding units of (1 + max_j |w_j|)
    (prod_j (1 + |f_j|) - 1) for more (docs/numerics.md).  |V - 1| is
    np.abs(D * np.exp(s)), +inf past the double range.
    """
    om = np.asarray(omega, dtype=float)
    s, d = np.zeros(om.shape), np.zeros(om.shape, dtype=np.complex128)
    with np.errstate(under="ignore"):
        for a in kernel.poles:
            m, f = _scaled_exp(1j * om, a, gamma, r)
            f *= np.exp(-s) + d
            d *= np.exp(-m)
            d -= f
            s += m
    return s, d


@dataclass(frozen=True)
class PredictorTransfer:
    """The sampled causal predictor K_hat = V * K with its diagnostics.

    Real coefficients make K, V and K_hat conjugate-symmetric, so every
    sampled array holds nodes 0..n/2 only, as the half spectra of
    :func:`.spectral.rfft_rows` do (node n/2 is the unpaired omega_max); a
    full-grid sum over them is :func:`.spectral._half_sum`.
    ``k_values`` holds the kernel transfer K, sampled once per predictor.
    ``khat_values`` is V K where |V| and |K_hat| lie within exp(700), else
    |K_hat| clamped there, at the nodes ``saturated`` marks; the unclamped
    log magnitude and phase of K_hat ride along.  No time kernel is kept:
    :func:`causality_defect` takes ``irfft_rows`` of ``khat_values``, and
    the CLI's ``predict`` takes it once, reads the causality defect from it
    and, for csv, writes it as ``khat.csv`` first.  ``kappa_sup`` is the
    grid max of |khat_values|, exactly exp(700) once a node is clamped (an
    under-estimate of the true sup); ``omega_threshold`` is the
    degeneracy-band edge sqrt(max_j a_j * gamma^{-r}).
    """

    kernel: AnticausalKernel
    gamma: float
    r: float
    grid: FrequencyGrid
    k_values: np.ndarray
    khat_values: np.ndarray
    kappa_sup: float
    omega_threshold: float
    khat_log_mag: np.ndarray
    khat_phase: np.ndarray

    @property
    def saturated(self) -> np.ndarray:
        """Nodes whose stored ``khat_values`` is clamped: log|K_hat| > 700."""
        return self.khat_log_mag > _CLAMP_LOG

    @property
    def any_saturated(self) -> bool:
        return bool(np.any(self.saturated))


def omega_threshold(kernel: AnticausalKernel, gamma: float, r: float) -> float:
    """Degeneracy-band edge sqrt(max_j a_j * gamma^{-r})."""
    return math.sqrt(kernel.max_pole * gamma ** (-r))


def build_predictor(
    kernel: AnticausalKernel, gamma: float, r: float, grid: FrequencyGrid
) -> PredictorTransfer:
    """Assemble V, K_hat = V*K and the gain figures.

    V, K and K_hat are evaluated at nodes 0..n/2, the nodes the predictor
    keeps (see :class:`PredictorTransfer`).

    Admissibility of r against a signal class (r > 2/(q-1)) is a property of
    experiments, not of the transfer itself, and is checked by callers that
    pair the predictor with a class.
    """
    gamma, r = _real("gamma", gamma), _real("r", r)
    K, v_log, v_ph, khat_log, khat_ph = _khat_logpolar(kernel, gamma, r, 1j * _half_omegas(grid))
    # V K where |V| and |K_hat| lie within e^700, else |K_hat| clamped there.
    # Node n/2 stands for both +-omega_max: K_hat is Re of the stored value,
    # log|K_hat| adds the clamp back, and k_values keeps Re(K) as transfer does
    clamp = np.maximum(v_log, khat_log) > _CLAMP_LOG
    with np.errstate(divide="ignore", under="ignore", over="ignore", invalid="ignore"):
        khat_vals = np.exp(v_log) * np.exp(1j * v_ph) * K
        khat_vals[clamp] = np.exp(np.minimum(khat_log[clamp], _CLAMP_LOG)) * np.exp(1j * khat_ph[clamp])
        ny = khat_vals[-1:].real.copy()
        khat_log[-1:] = np.log(np.abs(ny)) + np.maximum(khat_log[-1:] - _CLAMP_LOG, 0.0)
    khat_ph[-1:] = np.where(ny < 0.0, math.pi, 0.0)
    khat_vals[-1:] = ny
    K[-1] = K[-1].real
    K.flags.writeable = False

    return PredictorTransfer(
        kernel=kernel,
        gamma=gamma,
        r=r,
        grid=grid,
        k_values=K,
        khat_values=khat_vals,
        kappa_sup=math.exp(_CLAMP_LOG) if np.any(khat_log > _CLAMP_LOG) else float(np.max(np.abs(khat_vals))),
        omega_threshold=omega_threshold(kernel, gamma, r),
        khat_log_mag=khat_log,
        khat_phase=khat_ph,
    )


def _past_share(samples: np.ndarray) -> float:
    """Energy share of the real samples at t < 0; 0 for an all-zero series.

    On the centred grid t_j = (j - n/2) * delta_t, so t < 0 holds exactly
    for the first n/2 samples.  The share is computed on sup-normalized
    samples so huge values do not overflow the squares; the ratio is scale
    invariant.  ``samples`` is overwritten with the normalized squares.
    """
    s = np.abs(samples, out=samples)
    peak = np.max(s)
    if peak == 0.0:
        return 0.0
    s /= peak
    s *= s
    return float(np.sum(s[: s.size // 2])) / float(np.sum(s))


def causality_defect(pt: PredictorTransfer) -> float:
    """Energy share at t < 0, the first n/2 samples, of the grid kernel
    inverse(khat_values).

    This reads the predictor's own grid samples on Re z = 0: the kernel is
    wrapped over the window of span T, and saturated nodes enter at their
    clamped value.  Only when no node saturates and the causal ringing fits
    in half the window is it the share of the true kernel; at the default
    sweep configuration neither holds and it reads 0.5 whatever the kernel
    (docs/numerics.md).  :func:`line_witness` measures the kernel itself.
    """
    return _past_share(irfft_rows(pt.khat_values, pt.grid))


@dataclass(frozen=True)
class LemmaReport:
    """Grid evaluation of the predictor-factor bounds for one (gamma, class).

    ``pass_positivity``/``pass_factor_dev`` cover every node above the band
    edge for every pole, and are read at the first, where both bounds are
    tightest; ``tail_dev_max`` is max |V - 1| over |omega| >= the
    ``omega_floor`` of :func:`lemma_check`; ``pass_low_band`` is the weighted
    low-band bound log|V| <= c/|omega|^q on the nodes strictly inside the
    band (vacuously true when the band falls below the grid resolution;
    ``low_band_nodes`` records how many nodes were actually checked).
    """

    gamma: float
    omega_threshold: float
    pass_positivity: bool
    pass_factor_dev: bool
    tail_dev_max: float
    pass_low_band: bool
    low_band_nodes: int
    low_band_margin: float

    @property
    def pass_high_band(self) -> bool:
        return self.pass_positivity and self.pass_factor_dev


def _low_band_holds(
    kernel: AnticausalKernel,
    cls: DegeneracyClass,
    gamma: float,
    r: float,
    grid: FrequencyGrid,
):
    """Check log|V| <= c/|omega|^q on grid nodes with 0 < |omega| <= threshold.

    Returns (holds, node_count, worst_margin); margin is max(log|V| - log h),
    -inf when the band contains no nonzero node.  Both sides are even in
    omega, so only nodes 0..n/2 are evaluated; ``node_count`` still counts
    the full grid, where each node 0 < k < n/2 has a mirror at -omega_k.
    """
    om = _half_nodes(grid)[0]
    thr = omega_threshold(kernel, gamma, r)
    band = (om > 0.0) & (om <= thr)
    count = int(_half_sum(1.0, grid, band))
    if count == 0:
        return True, 0, -math.inf
    v_log, _ = v_logpolar(1j * om[band], kernel, gamma, r)
    margin = float(np.max(v_log - log_weight(om[band], cls.q, cls.c)))
    return margin <= CALIBRATION["lemma_iv_slack"], count, margin


# nodes per block of lemma_check's tail maximum; a block's complex
# temporaries take 64 kB each
_LEMMA_BLOCK = 4096


def _blocks(nodes: np.ndarray):
    """Consecutive views of at most ``_LEMMA_BLOCK`` of ``nodes``."""
    return (nodes[i : i + _LEMMA_BLOCK] for i in range(0, nodes.size, _LEMMA_BLOCK))


def lemma_check(
    pt: PredictorTransfer, cls: DegeneracyClass, omega_floor: float = DEFAULT_OMEGA_FLOOR
) -> LemmaReport:
    """Evaluate the three checkable factor bounds over the grid.

    (a) above the band edge, Re((i*omega - a_j)/(i*omega + gamma^{-r})) > 0
    and |V_j(i*omega) - 1| < 1 for every pole; (b) max |V - 1| over
    |omega| >= omega_floor, the quantity that must shrink as gamma grows,
    +inf once a factor overflows there; (c) the weighted low-band bound
    |V| <= exp(c/|omega|^q) inside the band.
    Each set is symmetric in +-omega, where V(-i*omega) is the conjugate of
    V(i*omega), so the checks read nodes 0..n/2.  (a) reads the first node
    above the edge: the real part u = (omega^2 - a_j alpha)/(omega^2 + alpha^2)
    rises with omega^2 and |V_j - 1| = exp(-gamma u) falls, so each all()
    takes its value there (docs/numerics.md).  (b) takes its tail in blocks
    of ``_LEMMA_BLOCK`` nodes, so no n/2-node temporaries are needed.
    """
    omega_floor = _real("omega_floor", omega_floor, hi=pt.grid.omega_max)
    grid, gamma, r = pt.grid, pt.gamma, pt.r
    om = _half_nodes(grid)[0]
    alpha = gamma ** (-r)
    thr = pt.omega_threshold

    pass_pos = pass_dev = True
    o = om[np.searchsorted(om, thr, side="right") :][:1]
    for a in pt.kernel.poles:
        re_ratio = (o**2 - a * alpha) / (o**2 + alpha**2)
        pass_pos = pass_pos and bool(np.all(re_ratio > 0.0))
        with np.errstate(under="ignore"):
            dev = np.abs(np.exp(factor_exponent(1j * o, a, gamma, r)))
        pass_dev = pass_dev and bool(np.all(dev < 1.0))

    tail_dev = 0.0
    for o in _blocks(om[np.searchsorted(om, omega_floor) :]):
        s, d = v_minus_one(o, pt.kernel, gamma, r)
        with np.errstate(over="ignore", invalid="ignore"):
            tail_dev = max(tail_dev, float(np.max(np.abs(d * np.exp(s)))))
        del s, d  # not alive beside the next block's recurrence

    holds, count, margin = _low_band_holds(pt.kernel, cls, gamma, r, grid)
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


def find_gamma0(
    kernel: AnticausalKernel,
    cls: DegeneracyClass,
    r: float,
    grid: FrequencyGrid,
    bracket=DEFAULT_GAMMA0_BRACKET,
) -> float:
    """Bisect for the smallest gamma at which the low-band bound holds.

    Assumes the pass region is upward closed in gamma (which the construction
    guarantees for admissible r).  If the bound already holds at the bracket
    floor, the floor is returned; if it fails at the ceiling, NumericalFailure
    reports that no threshold exists in the bracket.  A bracket that does
    not hold exactly two numbers raises ValueError.
    """
    r = _real("r", r)
    if len(_sequence("bracket", bracket)) != 2:
        raise ValueError(f"bracket must hold exactly two numbers (lo, hi), got {bracket!r}")
    lo = _real("bracket lo", bracket[0])
    hi = _real("bracket hi", bracket[1], lo)

    def holds(g: float) -> bool:
        return _low_band_holds(kernel, cls, g, r, grid)[0]

    if holds(lo):
        return lo
    if not holds(hi):
        raise NumericalFailure(f"low-band bound fails at the bracket ceiling {hi}")
    for _ in range(60):  # 60 halvings of log(hi/lo) pass double precision
        mid = math.sqrt(lo * hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _peak_normalized(log_mag: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Complex samples exp(log_mag - max log_mag + i*phase): scaled by their
    peak, so a log magnitude far beyond the double range does not overflow;
    the samples far below the peak underflow to 0."""
    with np.errstate(under="ignore"):
        return np.exp(log_mag - np.max(log_mag)) * np.exp(1j * phase)


def _inner_ratio(grid: FrequencyGrid, k: np.ndarray, khat: np.ndarray) -> float:
    """|sum conj(k) khat| / (||k||_2 ||khat||_2) over the full ``grid``.

    ``k`` and ``khat`` hold nodes 0..n/2 of conjugate-symmetric samples with
    a real half-rate node; scale does not matter.  The terms of the inner
    product at +-omega are conjugate, so it is the
    :func:`.spectral._half_sum` of their real parts.
    """
    inner = _half_sum((np.conj(k) * khat).real, grid)
    sq_norms = _half_sum(np.abs(k) ** 2, grid) * _half_sum(np.abs(khat) ** 2, grid)
    return float(abs(inner) / np.sqrt(sq_norms))


def orthogonality_residual(pt: PredictorTransfer) -> float:
    """Normalized grid inner product of K and K_hat on the imaginary axis.

    :func:`_inner_ratio` of ``k_values`` and K_hat over the predictor's own
    grid samples, K_hat formed from ``khat_log_mag`` and ``khat_phase``
    scaled by their peak: every node enters at its unclamped log magnitude,
    node n/2 as the real part of its clamped value scaled back by the clamp.
    0 for an identically zero predictor.  It tracks the
    inner product of the kernels only when no node saturates and the
    degeneracy band is resolved; at the default sweep configuration the
    peak at omega = 0 leaves |K(0)| / ||K||, ~0.055 whatever the gamma
    (docs/numerics.md).  :func:`line_witness` measures the kernel itself.
    """
    if not np.any(np.isfinite(pt.khat_log_mag)):
        return 0.0
    return _inner_ratio(pt.grid, pt.k_values, _peak_normalized(pt.khat_log_mag, pt.khat_phase))


# The line witness grid, in units of the kernel's own scales: the step puts
# omega_max at ~63 * max(max_pole, alpha); the half-span holds the group
# delay of V at omega = 0 plus _LINE_SPREAD times the ringing's spread
# around it, and at least the e^{-sigma t} envelope down to e^{-20}.
_LINE_STEP = 0.05
_LINE_SPREAD = 8.0
_LINE_DECAY = 20.0
_LINE_MAX_N = 2**20


@dataclass(frozen=True)
class LineWitness:
    """Causality and orthogonality of K_hat = V * K read on Re z = sigma.

    Samples of K_hat(sigma + i*omega) are the transform of h(t) e^{-sigma t},
    h the predictor kernel.  The weight raises t < 0 and lowers t > 0, so
    ``causality_defect``, the t < 0 energy share of the weighted kernel, is an
    upper bound on the share of h itself.  ``orthogonality_residual`` is
    |sum conj(K(-sigma + i*omega)) K_hat(sigma + i*omega)| over the product
    of the two grid norms: by Parseval with cancelling weights its numerator
    is the inner product of kappa and h.  Both are 0 for a causal h.
    """

    sigma: float
    grid: FrequencyGrid
    causality_defect: float
    orthogonality_residual: float


def _line_grid(kernel: AnticausalKernel, gamma: float, r: float):
    """(sigma, grid) for :func:`line_witness`: sigma = min_j a_j / 2.

    sigma < min_j a_j keeps an uncancelled pole visible as t < 0 content;
    halfway keeps each factor's gain on the line near
    exp(gamma (a_j - sigma)/sigma), exp(gamma) for the smallest pole.
    The phase of V at omega = 0 turns at the rate
    delay = sum_j gamma (a_j + alpha) / (sigma + alpha)^2, the time at which
    the ringing peaks; its log magnitude falls off like delay * omega^2 / sigma,
    which spreads the ringing over ~sqrt(delay / sigma) around that time.
    """
    alpha = gamma ** (-r)
    sigma = 0.5 * min(kernel.poles)
    delta_t = _LINE_STEP / max(kernel.max_pole, alpha)
    delay = sum(gamma * (a + alpha) for a in kernel.poles) / (sigma + alpha) ** 2
    half_span = max(delay + _LINE_SPREAD * math.sqrt(delay / sigma), _LINE_DECAY / sigma)
    n = 1 << math.ceil(math.log2(2.0 * half_span / delta_t))
    if n > _LINE_MAX_N:
        raise ValueError(
            f"line witness needs n = {n} samples to hold the ringing of "
            f"gamma={gamma}, poles={kernel.poles}; the budget is {_LINE_MAX_N}"
        )
    return sigma, FrequencyGrid(n, delta_t)


def line_witness(kernel: AnticausalKernel, gamma: float, r: float) -> LineWitness:
    """Measure the causal support of K_hat = V * K off the imaginary axis.

    K_hat is analytic for Re z > -gamma^{-r}, so it can be read on the line
    z = sigma + i*omega with 0 < sigma < min_j a_j, where the gain is finite,
    about exp(gamma sum_j (a_j - sigma)/sigma), and the ringing is short; see
    :class:`LineWitness`.  The witness builds its own grid from
    (kernel, gamma, r) and carries K_hat at nodes 0..n/2 in log-polar form,
    normalized by its peak before exponentiating; real coefficients make the
    rest the conjugates.  Raises ValueError when the grid would exceed 2^20
    samples.
    """
    gamma, r = _real("gamma", gamma), _real("r", r)
    sigma, grid = _line_grid(kernel, gamma, r)
    khat_log, khat_ph = _khat_logpolar(kernel, gamma, r, sigma + 1j * _half_omegas(grid))[3:]
    khat = _peak_normalized(khat_log, khat_ph)
    # node n/2 stands for both +-omega_max: Re(V K), as in build_predictor
    khat[-1] = khat[-1].real
    defect = _past_share(irfft_rows(khat, grid))
    residual = _inner_ratio(grid, transfer(kernel, grid, -sigma), khat)
    return LineWitness(sigma, grid, defect, residual)
