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
are therefore carried in log-magnitude/phase form; stored complex values are
clamped at exp(700) with a saturation flag, and every low-band check works
entirely in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import DegeneracyClass, log_weight
from .kernels import AnticausalKernel, transfer
from .spectral import (
    FrequencyGrid,
    _half_nodes,
    _half_omegas,
    _half_sum,
    _log_half_sum,
    irfft_rows,
)
from .tolerances import CALIBRATION

_CLAMP_LOG = CALIBRATION["v_overflow_clamp_log"]
# second clamp for the product with K, kept slightly under the exp overflow edge
_VALUE_LOG_MAX = 705.0


def _check_sharpness(gamma: float, r: float) -> None:
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")
    if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and > 0, got {r!r}")


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
    part exceeds the double range the result overflows to inf (the log-domain
    path in :func:`build_predictor` is the clamped alternative).
    """
    _check_sharpness(gamma, r)
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"pole must be finite and > 0, got {a!r}")
    with np.errstate(over="ignore", under="ignore"):
        out = 1.0 - np.exp(factor_exponent(z, a, gamma, r))
    if np.isscalar(z) or np.asarray(z).shape == ():
        return complex(out)
    return out


def _factor_logpolar(z: np.ndarray, a: float, gamma: float, r: float):
    """(log|V_j|, arg V_j) at complex points z, stable for huge exponents.

    Where Re w <= 690 the factor 1 - e^w is formed exactly; beyond that
    1 - e^w = -e^w (1 - e^{-w}) gives log magnitude Re w and phase Im w + pi
    up to an e^{-Re w} correction far below double rounding.
    """
    w = factor_exponent(z, a, gamma, r)
    wr = w.real
    logmag = np.empty_like(wr)
    phase = np.empty_like(wr)
    exact = wr <= 690.0
    with np.errstate(under="ignore", divide="ignore"):
        f = 1.0 - np.exp(w[exact])
        logmag[exact] = np.log(np.abs(f))
        phase[exact] = np.angle(f)
    big = ~exact
    logmag[big] = wr[big]
    phase[big] = w.imag[big] + math.pi
    return logmag, phase


def v_logpolar(z: np.ndarray, kernel: AnticausalKernel, gamma: float, r: float):
    """(log|V|, arg V) of the full product at complex points z (i*omega on the axis)."""
    z = np.asarray(z, dtype=np.complex128)
    logmag = np.zeros(z.shape)
    phase = np.zeros(z.shape)
    for a in kernel.poles:
        lm, ph = _factor_logpolar(z, a, gamma, r)
        logmag += lm
        phase += ph
    return logmag, phase


def v_minus_one(omega, kernel: AnticausalKernel, gamma: float, r: float) -> np.ndarray:
    """V(i*omega) - 1 with full relative accuracy when V is close to 1.

    Each factor deviation f_j = -e^{w_j} is exact; when every |f_j| is tiny
    the product expansion collapses to sum f_j, which avoids the catastrophic
    1 - 1 cancellation of forming V first.
    """
    om = np.asarray(omega, dtype=float)
    # accumulated from 1 and 0, as np.prod and np.sum reduce a stack of the f_j
    prod = np.ones(om.shape, dtype=np.complex128)
    linear = np.zeros(om.shape, dtype=np.complex128)
    tiny = np.ones(om.shape, dtype=bool)
    for a in kernel.poles:
        with np.errstate(over="ignore", under="ignore"):
            f = -np.exp(factor_exponent(1j * om, a, gamma, r))
        tiny &= np.abs(f) < 1e-6
        with np.errstate(invalid="ignore", over="ignore"):
            prod *= 1.0 + f
            linear += f
    return np.where(tiny, linear, prod - 1.0)


@dataclass(frozen=True)
class PredictorTransfer:
    """The sampled causal predictor K_hat = V * K with its diagnostics.

    Real coefficients make K, V and K_hat conjugate-symmetric, so every
    sampled array holds nodes 0..n/2 only, as the half spectra of
    :func:`.spectral.rfft_rows` do (node n/2 is the unpaired omega_max); a
    full-grid sum over them is :func:`.spectral._half_sum`.
    ``k_values`` holds the kernel transfer K, sampled once per predictor.
    ``khat_values`` is magnitude-clamped at exp(700) where the log magnitude
    saturates (mask in ``saturated``); the unclamped log magnitude and phase
    of K_hat ride along for log-domain arithmetic.  No time kernel is kept:
    :func:`causality_defect` takes ``irfft_rows`` of ``khat_values``, and
    the CLI's ``predict`` takes it once, reads the causality defect from it
    and, for csv, writes it as ``khat.csv`` first.  ``kappa_sup`` is
    the grid max of |khat_values| (an under-estimate of the true sup,
    consistent with the grid resolution); ``omega_threshold`` is the
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
    saturated: np.ndarray

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
    _check_sharpness(gamma, r)
    v_log, v_ph = v_logpolar(1j * _half_omegas(grid), kernel, gamma, r)
    # the unpaired half-rate node stands for both +-omega_max; averaging the
    # conjugate pair keeps V, and hence K_hat, conjugate-symmetric on-grid
    with np.errstate(divide="ignore"):
        ny_real = math.exp(min(v_log[-1], _CLAMP_LOG)) * math.cos(v_ph[-1])
        v_log[-1] = np.log(abs(ny_real)) if ny_real != 0.0 else -np.inf
    v_ph[-1] = 0.0 if ny_real >= 0.0 else math.pi

    K = transfer(kernel, grid)
    K.flags.writeable = False
    sat = v_log > _CLAMP_LOG
    v_vals = np.exp(np.minimum(v_log, _CLAMP_LOG)) * np.exp(1j * v_ph)
    with np.errstate(divide="ignore"):
        khat_log = v_log + np.log(np.abs(K))
    khat_ph = v_ph + np.angle(K)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        khat_vals = v_vals * K
        overflow = ~np.isfinite(khat_vals)
        if np.any(overflow):
            khat_vals[overflow] = np.exp(
                np.minimum(khat_log[overflow], _VALUE_LOG_MAX)
            ) * np.exp(1j * khat_ph[overflow])

    return PredictorTransfer(
        kernel=kernel,
        gamma=float(gamma),
        r=float(r),
        grid=grid,
        k_values=K,
        khat_values=khat_vals,
        kappa_sup=float(np.max(np.abs(khat_vals))),
        omega_threshold=omega_threshold(kernel, gamma, r),
        khat_log_mag=khat_log,
        khat_phase=khat_ph,
        saturated=sat | overflow,
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
    edge for every pole; ``tail_dev_max`` is max |V - 1| over |omega| >=
    the ``omega_floor`` of :func:`lemma_check`; ``pass_low_band`` is the
    weighted low-band bound log|V| <= c/|omega|^q on the nodes strictly
    inside the band (vacuously true when the band falls below the grid
    resolution; ``low_band_nodes`` records how many nodes were actually
    checked).
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


# nodes per block of lemma_check's node-wise checks; a block's complex
# temporaries take 64 kB each
_LEMMA_BLOCK = 4096


def _blocks(nodes: np.ndarray):
    """Consecutive views of at most ``_LEMMA_BLOCK`` of ``nodes``."""
    return (nodes[i : i + _LEMMA_BLOCK] for i in range(0, nodes.size, _LEMMA_BLOCK))


def lemma_check(
    pt: PredictorTransfer, cls: DegeneracyClass, omega_floor: float = 0.5
) -> LemmaReport:
    """Evaluate the three checkable factor bounds over the grid.

    (a) above the band edge, Re((i*omega - a_j)/(i*omega + gamma^{-r})) > 0
    and |V_j(i*omega) - 1| < 1 for every pole; (b) max |V - 1| over
    |omega| >= omega_floor, the quantity that must shrink as gamma grows,
    +inf once a factor overflows there; (c) the weighted low-band bound
    |V| <= exp(c/|omega|^q) inside the band.
    Each check is an all() or a max over a set symmetric in +-omega, on which
    V(-i*omega) is the conjugate of V(i*omega), so they read nodes 0..n/2.
    |omega| rises with the node index there, so each set is a tail of those
    nodes, and the checks take it in blocks of ``_LEMMA_BLOCK`` nodes: every
    node's value is what one evaluation over the whole set gives, and all()
    and max do not depend on the grouping, so no n/2-node temporaries are
    needed.
    """
    if not (0 < omega_floor < pt.grid.omega_max):
        raise ValueError(f"omega_floor must lie in (0, omega_max={pt.grid.omega_max})")
    grid, gamma, r = pt.grid, pt.gamma, pt.r
    om = _half_nodes(grid)[0]
    alpha = gamma ** (-r)
    thr = pt.omega_threshold

    pass_pos = True
    pass_dev = True
    for o in _blocks(om[np.searchsorted(om, thr, side="right") :]):
        for a in pt.kernel.poles:
            re_ratio = (o**2 - a * alpha) / (o**2 + alpha**2)
            pass_pos = pass_pos and bool(np.all(re_ratio > 0.0))
            with np.errstate(under="ignore"):
                dev = np.abs(np.exp(factor_exponent(1j * o, a, gamma, r)))
            pass_dev = pass_dev and bool(np.all(dev < 1.0))

    tail = om[np.searchsorted(om, omega_floor) :]
    tail_dev = float(
        np.max([np.max(np.abs(v_minus_one(o, pt.kernel, gamma, r))) for o in _blocks(tail)])
    )
    if math.isnan(tail_dev):
        # a factor overflowed and v_minus_one formed inf * 0: |V - 1| is
        # unbounded there, read +inf as class_norm reads an overflow
        tail_dev = math.inf

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
    bracket=(0.5, 2000.0),
) -> float:
    """Bisect for the smallest gamma at which the low-band bound holds.

    Assumes the pass region is upward closed in gamma (which the construction
    guarantees for admissible r).  If the bound already holds at the bracket
    floor, the floor is returned; if it fails at the ceiling, a ValueError
    reports that no threshold exists in the bracket.  A bracket that does not
    hold exactly two numbers raises ValueError too.
    """
    if len(bracket) != 2:
        raise ValueError(f"bracket must hold exactly two numbers (lo, hi), got {bracket!r}")
    lo, hi = (float(b) for b in bracket)
    if not (0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")

    def holds(g: float) -> bool:
        return _low_band_holds(kernel, cls, g, r, grid)[0]

    if holds(lo):
        return lo
    if not holds(hi):
        raise ValueError(f"low-band bound fails at the bracket ceiling {hi}")
    for _ in range(60):  # 60 halvings of log(hi/lo) pass double precision
        mid = math.sqrt(lo * hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def orthogonality_residual(pt: PredictorTransfer) -> float:
    """Normalized grid inner product of K and K_hat on the imaginary axis.

    |delta_omega * sum conj(K) K_hat| / (||K||_2 ||K_hat||_2) over the
    predictor's own grid samples, read from ``khat_log_mag``: saturated
    nodes enter at their unclamped log magnitude, except node n/2, whose
    conjugate-pair average is formed from the clamped value.  It is
    evaluated in the log domain so they cannot overflow; the normalization
    makes the grid spacing cancel.  The terms at +-omega are
    conjugate, so the sum over both signs of omega is the
    :func:`.spectral._half_sum` of their real parts.  0 for an identically zero
    predictor.  It tracks the inner product of the kernels only when no node
    saturates and the degeneracy band is resolved; at the default sweep
    configuration it reads ~0.055 whatever the kernel (docs/numerics.md).
    :func:`line_witness` measures the kernel itself.
    """
    with np.errstate(divide="ignore"):
        k_log = np.log(np.abs(pt.k_values))
    kh_log = pt.khat_log_mag
    terms = k_log + kh_log
    finite = np.isfinite(terms)
    if not np.any(finite):
        return 0.0
    L = float(np.max(terms[finite]))
    cos = np.cos(pt.khat_phase[finite] - np.angle(pt.k_values[finite]))
    with np.errstate(under="ignore"):
        S = _half_sum(np.exp(terms[finite] - L) * cos, pt.grid, finite)
    if S == 0.0:
        return 0.0
    num_log = L + math.log(abs(S))
    den_log = 0.5 * _log_half_sum(2.0 * k_log, pt.grid) + 0.5 * _log_half_sum(2.0 * kh_log, pt.grid)
    with np.errstate(over="ignore"):
        return float(np.exp(num_log - den_log))


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


def _line_figures(grid: FrequencyGrid, k_mirror: np.ndarray, khat_line: np.ndarray):
    """(causality defect, orthogonality residual) from samples on the lines.

    ``khat_line`` holds K_hat(sigma + i*omega), ``k_mirror`` K(-sigma + i*omega),
    both at nodes 0..n/2 of ``grid`` with a real half-rate node; scale does
    not matter.  Both are conjugate-symmetric, so the terms of the inner
    product at +-omega are conjugate and it is the :func:`.spectral._half_sum`
    of their real parts.
    """
    defect = _past_share(irfft_rows(khat_line, grid))
    inner = _half_sum((np.conj(k_mirror) * khat_line).real, grid)
    sq_norms = _half_sum(np.abs(k_mirror) ** 2, grid) * _half_sum(np.abs(khat_line) ** 2, grid)
    return defect, float(abs(inner) / np.sqrt(sq_norms))


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
    _check_sharpness(gamma, r)
    sigma, grid = _line_grid(kernel, gamma, r)
    K = transfer(kernel, grid, sigma)
    v_log, v_ph = v_logpolar(sigma + 1j * _half_omegas(grid), kernel, gamma, r)
    with np.errstate(divide="ignore"):
        khat_log = v_log + np.log(np.abs(K))
    with np.errstate(under="ignore"):
        khat = np.exp(khat_log - np.max(khat_log)) * np.exp(1j * (v_ph + np.angle(K)))
    khat[-1] = khat[-1].real
    defect, residual = _line_figures(grid, transfer(kernel, grid, -sigma), khat)
    return LineWitness(sigma, grid, defect, residual)
