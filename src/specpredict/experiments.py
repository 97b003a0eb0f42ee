"""Verification experiments: convergence sweeps with their band split of the
error, robustness under calibrated noise, the two-sided counterexample
identity and the slow-degeneracy negative illustration.

Reported errors are worst-case over the ensemble, matching the universal
quantifier of the prediction guarantee at desk scale.  Everything is a pure
function of its inputs plus generator seeds, so reports are bit-reproducible.

Every experiment, :func:`predict` and :func:`class_norm` take a member's
half spectrum X (nodes 0..n/2) from :func:`_member_half`: generated signals
hold X itself, exact zeros included; only a series that arrives as samples
is transformed, with its roundoff floor restored to zeros
(:func:`_member_spectrum`).  Error norms take one path: the error gain
K_hat - K on its support (:func:`_error_gain`), its channel with X written
into a workspace of 2n+2 values (:func:`_channel`, :func:`_workspace`), and
the channel's inverse in the rest of it, read for the sup and then squared
in place for the l2 norm (:func:`_norms`, :func:`_row_norms`); an all-zero
channel is not transformed.  The robustness experiment forms its clean,
noisy and noise channels so, and the counterexample reads log|K_hat - K|
from :func:`v_minus_one`.  :func:`prediction_error` is the sweep's member step
(:func:`_member_errors`), and the CLI's predict reports it.  Ensembles are
streamed: a sweep keeps the error gain of each gamma (from gamma = 100 on
at the defaults, omega = 0 alone, where every class member is zero), then
reads each member once and reduces its figures into running worst-case
ones, so what it holds grows with the number of gammas, not with the
ensemble.  A generated ensemble holds only its seeds and draws a member
when it is read (:func:`.signals._enveloped_member`), and no member is
held once the sweep has moved on to the next (:func:`_grid_and_members`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degeneracy import DegeneracyClass, log_weight
from .kernels import AnticausalKernel, kernel_to_dict, transfer
from .predictor import (
    PredictorTransfer,
    build_predictor,
    causality_defect,
    lemma_check,
    v_minus_one,
)
from .signals import (
    GeneratorConfig,
    _band_mask,
    _enveloped_member,
    _noise_spectrum,
    counterexample_pair,
    make_class_ensemble,
)
from .spectral import (
    FrequencyGrid,
    SpectralSeries,
    TimeSeries,
    _half_nodes,
    _half_omegas,
    _half_sum,
    _irfft_phased,
    _log_abs,
    _log_half_sum,
    _real,
    _sequence,
    _signs,
    forward_transform,
    make_grid,
)
from .tolerances import CALIBRATION

# Default configuration for the desk-scale experiments.  All of these are
# calibration choices recorded in every report header.
DEFAULT_GRID_N = 2**16
DEFAULT_GRID_DT = 0.01
DEFAULT_KERNEL = AnticausalKernel(poles=(1.0,), numerator=(1.0,))
DEFAULT_CLASS = DegeneracyClass(q=2.0, c=1.0)
DEFAULT_R = 4.0
DEFAULT_GAMMAS = (10.0, 30.0, 100.0, 300.0, 1000.0)
DEFAULT_ENSEMBLE_SIZE = 10
DEFAULT_DEMO_SIZE = 3


def default_grid() -> FrequencyGrid:
    return make_grid(DEFAULT_GRID_N, DEFAULT_GRID_DT)


def _gamma_list(gammas) -> tuple:
    """``gammas`` read once, as sorted floats; empty input or a gamma that is
    not a positive finite number is rejected."""
    out = tuple(sorted(_real("gamma", g) for g in _sequence("gammas", gammas)))
    if not out:
        raise ValueError("gammas must be nonempty")
    return out


def _require_admissible(r: float, cls: DegeneracyClass) -> None:
    min_r = cls.min_sharpness_exponent
    if not r > min_r:
        raise ValueError(
            f"sharpness exponent r={r} is inadmissible for q={cls.q}: "
            f"the construction requires r > 2/(q-1) = {min_r}"
        )


def _member_spectrum(x: TimeSeries) -> np.ndarray:
    """Half spectrum (nodes 0..n/2) of a real series that arrives as samples,
    with its spectral roundoff floor restored to exact zeros.

    Generated signals carry their exact half spectrum (a ``SpectralSeries``)
    and never come here.  Samples of a signal whose spectrum has exact zeros
    transform back with absolute roundoff (~1e-16 of the peak) at every
    node, which the predictor's enormous low-band gain would amplify into
    garbage.  Values at or below the roundoff floor (the class norm's
    calibration constant) are therefore restored to exact zero.  That is the
    only rule, so content at omega = 0 above it is kept (docs/numerics.md).
    """
    X = forward_transform(x).spectrum
    mags = np.abs(X)
    return np.where(mags <= CALIBRATION["class_dc_floor_rel"] * float(np.max(mags)), 0.0, X)


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    err_l2_abs: float
    err_l2_rel: float
    err_sup_abs: float
    err_sup_rel: float
    kappa_sup: float
    omega_threshold: float
    causality_defect: float
    i1: float
    i2: float
    lemma_pass_high_band: bool = None
    lemma_pass_low_band: bool = None
    lemma_tail_dev: float = None


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    sweep_metadata: dict = field(default_factory=dict)


def _grid_and_members(ensemble):
    """(grid, members) of a nonempty ensemble: the grid of its first member
    and an iterator over all its members that reads each once, so a lazy
    ensemble draws each once, and holds none that it has handed on, so
    member 0 is freed once the caller drops it.  ValueError for an empty
    ensemble; a member on another grid raises in :func:`_member_half`."""
    if len(ensemble) == 0:
        raise ValueError("ensemble must be nonempty")
    first = ensemble[0]
    return first.grid, _first_then_rest(first, ensemble)


def _first_then_rest(first, ensemble):
    # itertools.chain((first,), ...) would keep its argument tuple, and
    # member 0 with it, for the whole loop
    yield first
    del first
    yield from ensemble[1:]


def _member_half(x, grid: FrequencyGrid) -> np.ndarray:
    """The half spectrum (nodes 0..n/2) of a member on ``grid``: a
    ``SpectralSeries``'s stored, read-only spectrum as it is, or
    :func:`_member_spectrum` of a ``TimeSeries``; ValueError for a series
    on another grid."""
    if x.grid != grid:
        raise ValueError("time series grid does not match predictor grid")
    if isinstance(x, SpectralSeries):
        return x.spectrum
    return _member_spectrum(x)


def class_norm(x, cls: DegeneracyClass) -> float:
    """Grid estimate of sup |X(i*omega)| * e^{c/|omega|^q}; +inf for non-members.

    Read at nodes 0..n/2 of the half spectrum :func:`_member_half` gives: a
    ``SpectralSeries``'s stored one, where zeros are exact, or that of a
    ``TimeSeries`` with its roundoff floor restored to exact zeros, since
    the weight near the degeneracy point is so large that evaluating it on
    roundoff would flag every representable signal.  Any content left at
    the degeneracy node exits the class.  Evaluated through logarithms; the
    result may round to +inf for signals far outside the class, which is
    the honest extended-real answer.
    """
    return _half_class_norm(_member_half(x, x.grid), x.grid, cls)


def _half_class_norm(X: np.ndarray, grid: FrequencyGrid, cls: DegeneracyClass) -> float:
    """:func:`class_norm` of the member whose half spectrum on ``grid`` is
    ``X``, as :func:`_member_half` gives it."""
    mags = np.abs(X)
    if mags[0] > 0.0:
        return math.inf
    live = mags > 0.0
    if not np.any(live):
        return 0.0
    total = np.log(mags[live]) + log_weight(_half_omegas(grid)[live], cls.q, cls.c)
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(total)))


def predict(pt: PredictorTransfer, x) -> SpectralSeries:
    """Causal prediction y_hat = K_hat X of a real series, X from
    :func:`_member_half`, as the ``SpectralSeries`` of its half spectrum;
    its samples are a circular product, as in :func:`.kernels.apply_anticausal`."""
    X = _member_half(x, pt.grid)
    return SpectralSeries(pt.grid, pt.khat_values * X)


def _row_norms(rows: np.ndarray, grid: FrequencyGrid):
    """Grid l2 (inf once a square overflows) and sup norms of real rows, (n,)
    or (m, n); the squares overwrite ``rows``, which is read for the sup first.

    The sup is the larger of |max| and |min| of each row, which is max |x|
    bit for bit (NaN wins, and an all-zero row reads +0.0), so no |x| array
    is formed."""
    sup = np.maximum(np.abs(np.max(rows, axis=-1)), np.abs(np.min(rows, axis=-1)))
    with np.errstate(over="ignore"):
        l2 = math.sqrt(grid.delta_t) * np.sqrt(np.add.reduce(np.square(rows, out=rows), axis=-1))
    return l2, sup


def _norms(half: np.ndarray, grid: FrequencyGrid, work: np.ndarray):
    """:func:`_row_norms` of the real signal whose half spectrum is ``half``,
    formed in ``work`` (:func:`_workspace`): ``half`` is phased into its
    head, in place when it is that head, as :func:`_channel` leaves it, and
    its inverse goes into the rest, which the norms overwrite.

    Callers bind each half spectrum to a name before multiplying it by a
    gain: numpy may form ``gain * <temporary>`` in the temporary's buffer as
    ``temporary * gain``, and complex products do not commute bitwise.
    An all-zero ``half``, of any length (see :func:`_channel`), gives
    (0.0, 0.0), as its transform would, without taking it.
    """
    if not half.any():
        return 0.0, 0.0
    head = work[: grid.n + 2].view(np.complex128)
    np.multiply(_signs(grid)[0], half, out=head)
    return _row_norms(_irfft_phased(head, grid, out=work[grid.n + 2 :]), grid)


def _workspace(grid: FrequencyGrid) -> np.ndarray:
    """One float64 block of 2n+2 values for :func:`_channel` and
    :func:`_norms`: a half spectrum (n/2+1 complex values) and its real
    inverse, so a member's channels allocate no (n/2+1)- or n-value array.

    Being one block matters on glibc: it is the largest buffer a sweep
    frees, and its release lifts the allocator's dynamic mmap and trim
    thresholds above the FFT's per-call scratch, which is then kept on the
    heap instead of being returned to the system and faulted in again at
    every transform (about 25,000 minor page faults per default sweep)."""
    return np.empty(2 * grid.n + 2)


def _channel(gain: np.ndarray, X: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The error channel ``gain * X`` of a gain held on its support, a prefix
    of X's nodes past which it is zero, written into the head of ``work``
    (:func:`_workspace`): formed on that prefix, and zero-padded to X's
    length only when it is nonzero.  The padded nodes differ from the full
    product at most in the sign of a zero, which no norm, band split or
    noisy sum sees, so every error figure reads this one channel."""
    m = gain.size
    half = work[: 2 * X.size].view(np.complex128)
    diff = np.multiply(gain, X[:m], out=half[:m])
    if m == X.size or not diff.any():
        return diff
    half[m:] = 0.0
    return half


def _error_gain(pt: PredictorTransfer) -> np.ndarray:
    """The error gain K_hat - K on nodes 0..m-1, m one past the last node where
    K_hat differs from K: the gain is exactly zero from there to node n/2."""
    differs = pt.khat_values != pt.k_values
    m = differs.size - int(np.argmax(differs[::-1])) if differs.any() else 0
    return pt.khat_values[:m] - pt.k_values[:m]


def _band_split(diff: np.ndarray, grid: FrequencyGrid, threshold: float, rho: int):
    """(i1, i2): delta_omega * sum of |diff|^rho over both signs of omega, for
    the half spectrum ``diff``, at |omega| <= threshold and above it; (0.0,
    0.0) for an all-zero ``diff`` of any length, as the sums would give."""
    if not diff.any():
        return 0.0, 0.0
    E = np.abs(diff) ** rho
    # |omega| rises with the node index, so the low band is a prefix
    m = int(np.searchsorted(_half_nodes(grid)[0], threshold, side="right"))
    dw = grid.delta_omega
    return dw * _half_sum(E[:m], grid, slice(m)), dw * _half_sum(E[m:], grid, slice(m, None))


def _relative(err: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.where(err == 0.0, 0.0, err / np.maximum(ref, 1e-300))


@dataclass(frozen=True)
class PredictionError:
    err_l2_abs: float
    err_l2_rel: float
    err_sup_abs: float
    err_sup_rel: float


def prediction_error(pt: PredictorTransfer, x) -> PredictionError:
    """Grid l2 and sup distances between the anti-causal target of a real
    class member and its causal prediction, absolute and relative to the
    target: the :func:`gamma_sweep` figures of a one-member ensemble, field
    for field, as the sweep's member step (:func:`_member_errors`) forms them."""
    X = _member_half(x, pt.grid)
    figures = _member_errors(X, pt.k_values, [_error_gain(pt)], pt.grid, _workspace(pt.grid))
    return PredictionError(*(float(f[0]) for f in figures))


def _member_errors(X: np.ndarray, K: np.ndarray, gains, grid: FrequencyGrid, work: np.ndarray):
    """Arrays (l2, relative l2, sup, relative sup) of the member with half
    spectrum ``X`` under each of ``gains``, relative to its target K X, every
    channel formed and read in the one workspace ``work``."""
    y_l2, y_sup = _norms(_channel(K, X, work), grid, work)
    l2a, supa = np.array([_norms(_channel(gain, X, work), grid, work) for gain in gains]).T
    return l2a, _relative(l2a, y_l2), supa, _relative(supa, y_sup)


def _run_sweep(kernel: AnticausalKernel, gammas, r: float, ensemble, cls: DegeneracyClass = None):
    """(grid, sweep rows) of a nonempty ensemble, in two passes: each gamma's
    predictor fields and error gain, then each member's error figures under
    every gain, as running maxima.  Each member is read once
    (:func:`_grid_and_members`).

    Each gain is its own array, kept only on its support (:func:`_error_gain`):
    at the defaults that is every node at gamma = 10 and 30 and omega = 0
    alone from gamma = 100 on.  Channels are formed on the support
    (:func:`_channel`), and an all-zero one is not transformed
    (:func:`_norms`).
    """
    grid, members = _grid_and_members(ensemble)
    gains = []
    fields = []
    pt = None
    for gamma in gammas:
        # of a predictor's (n/2+1)-node arrays the sweep keeps only the gain,
        # and K from the last; drop the previous one before the next build
        del pt
        pt = build_predictor(kernel, gamma, r, grid)
        gains.append(_error_gain(pt))
        row = dict(
            gamma=gamma,
            kappa_sup=pt.kappa_sup,
            omega_threshold=pt.omega_threshold,
            causality_defect=causality_defect(pt),
        )
        if cls is not None:
            rep = lemma_check(pt, cls)
            row.update(
                lemma_pass_high_band=rep.pass_high_band,
                lemma_pass_low_band=rep.pass_low_band,
                lemma_tail_dev=rep.tail_dev_max,
            )
        fields.append(row)
    K = pt.k_values
    del pt

    # per gamma: worst l2, relative l2, sup and relative sup, reduced as np.max
    # reduces (NaN wins), and the band split of the worst relative-l2 member
    worst = np.full((4, len(gammas)), -np.inf)
    bands = [None] * len(gammas)
    work = _workspace(grid)
    for x in members:
        X = _member_half(x, grid)
        figures = _member_errors(X, K, gains, grid, work)
        l2r = figures[1]
        # np.argmax's rule: the first maximum leads, and a NaN is a maximum;
        # the leader's error channel is formed once more for its band split
        leads = (l2r > worst[1]) | (np.isnan(l2r) & ~np.isnan(worst[1]))
        for i in np.flatnonzero(leads):
            bands[i] = _band_split(_channel(gains[i], X, work), grid, fields[i]["omega_threshold"], 2)
        np.maximum(worst, figures, out=worst)
        # drop the member before the next one is drawn
        del x, X

    return grid, [
        SweepRow(
            err_l2_abs=float(l2a),
            err_l2_rel=float(l2r),
            err_sup_abs=float(supa),
            err_sup_rel=float(supr),
            i1=i1,
            i2=i2,
            **row,
        )
        for row, (l2a, l2r, supa, supr), (i1, i2) in zip(fields, worst.T, bands)
    ]


def gamma_sweep(
    kernel: AnticausalKernel,
    cls: DegeneracyClass,
    gammas,
    r: float,
    ensemble,
    metadata: dict = None,
) -> SweepReport:
    """Build one predictor per gamma and report worst-case ensemble errors.

    The decomposition columns i1/i2 belong to the member with the worst
    relative L2 error at that gamma (rho = 2), so the partition identity
    i1 + i2 = total spectral error measure holds row-wise.
    """
    gammas = _gamma_list(gammas)
    _require_admissible(r, cls)
    grid, rows = _run_sweep(kernel, gammas, r, ensemble, cls=cls)
    meta = {
        "kernel": kernel_to_dict(kernel),
        "grid": {"n": grid.n, "delta_t": grid.delta_t},
        "r": r,
        "ensemble_size": len(ensemble),
        "class": {"q": cls.q, "c": cls.c},
        **(metadata or {}),
    }
    return SweepReport(rows=tuple(rows), sweep_metadata=meta)


def uniformity_check(
    kernel: AnticausalKernel,
    cls: DegeneracyClass,
    gamma: float,
    r: float,
    ensemble,
) -> tuple:
    """Worst error-to-class-norm ratios over the ensemble, (l2, sup).

    The sweep of this quantity over gamma is the desk-scale evidence for the
    uniform bound ||y - y_hat|| <= eps(gamma) * ||x||_class.
    """
    _require_admissible(r, cls)
    grid, members = _grid_and_members(ensemble)
    gain = _error_gain(build_predictor(kernel, gamma, r, grid))
    worst = (-np.inf, -np.inf)
    work = _workspace(grid)
    for x in members:
        # one read of each member: a series that arrives as samples is
        # transformed once, for its class norm and its error channel
        X = _member_half(x, grid)
        norm = _half_class_norm(X, grid, cls)
        if math.isinf(norm):
            raise ValueError("ensemble member has infinite class norm")
        l2, sup = _norms(_channel(gain, X, work), grid, work)
        worst = np.maximum(worst, (l2 / norm, sup / norm))
    return float(worst[0]), float(worst[1])


@dataclass(frozen=True)
class RobustnessRow:
    nu: float
    err_sup_noisy: float
    bound: float
    holds: bool
    j0: float
    j_eta: float


@dataclass(frozen=True)
class RobustnessReport:
    gamma: float
    eps_clean: float
    kappa_sup: float
    rows: tuple
    saturated: bool


def robustness_experiment(
    kernel: AnticausalKernel,
    gamma: float,
    r: float,
    x0: TimeSeries,
    nus,
    cfg: GeneratorConfig,
) -> RobustnessReport:
    """Contaminate x0 at increasing noise intensities and test the gain bound.

    Errors are always measured against the clean anti-causal target of x0;
    each row checks err <= eps_clean + nu*(kappa_sup + 1)*(1 + slack) with
    the 5% discretization slack from the calibration table.  ``j0`` and
    ``j_eta`` are delta_omega/(2pi) times the sum of |channel| over all n
    nodes of the clean and the noise error channel, both bands, so each
    bounds its channel's sup (triangle inequality).  A noise band that holds
    no node is rejected.
    """
    nus = [_real("noise intensity", nu, closed=True) for nu in _sequence("nus", nus)]
    grid = x0.grid
    if grid != cfg.grid:
        raise ValueError("time series grid does not match generator grid")
    if not np.any(_band_mask(cfg, _half_nodes(grid)[0])):
        raise ValueError(f"noise band {cfg.band} holds no node of the grid")
    pt = build_predictor(kernel, gamma, r, grid)
    # the clean member's spectrum carries its constructional X(0) = 0; the
    # noise spectrum keeps whatever degeneracy-node content it legitimately has
    X0 = _member_half(x0, grid)
    gain = _error_gain(pt)
    work = _workspace(grid)
    # the clean channel is split into bands before its norms phase it in place
    clean = _channel(gain, X0, work)
    j0 = sum(_band_split(clean, grid, pt.omega_threshold, 1)) / (2 * math.pi)
    eps_clean = float(_norms(clean, grid, work)[1])
    slack = CALIBRATION["robustness_slack"]

    rows = []
    for nu in nus:
        N = _noise_spectrum(nu, cfg)
        # the prediction of the noise plus the clean channel on the gain's
        # support, so the nu = 0 row reproduces eps_clean bit-exactly
        noisy = _channel(pt.khat_values, N, work)
        noisy[: gain.size] += gain * X0[: gain.size]
        err = float(_norms(noisy, grid, work)[1])
        bound = eps_clean + nu * (pt.kappa_sup + 1.0)
        holds = bool(err <= eps_clean + nu * (pt.kappa_sup + 1.0) * (1.0 + slack))
        j_eta = sum(_band_split(_channel(gain, N, work), grid, pt.omega_threshold, 1)) / (2 * math.pi)
        rows.append(RobustnessRow(nu=nu, err_sup_noisy=err, bound=bound, holds=holds, j0=j0, j_eta=j_eta))
    return RobustnessReport(
        gamma=float(gamma),
        eps_clean=eps_clean,
        kappa_sup=pt.kappa_sup,
        rows=tuple(rows),
        saturated=pt.any_saturated,
    )


@dataclass(frozen=True)
class CounterexampleRow:
    gamma: float
    e1: float
    e2: float
    identity_lhs: float
    identity_rhs: float
    e1_sq_log: float
    e2_sq_log: float
    identity_lhs_log: float
    identity_rhs_log: float
    identity_rel_gap: float
    identity_ok: bool
    floor_ok: bool


@dataclass(frozen=True)
class CounterexampleReport:
    split: float
    rows: tuple
    no_gamma_predicts_both: bool


def counterexample_experiment(
    a: float,
    kernel: AnticausalKernel,
    gammas,
    cfg: GeneratorConfig,
    r: float = DEFAULT_R,
) -> CounterexampleReport:
    """Two-sided prediction of one unit-modulus spectrum split at |omega| = a.

    For each gamma, the squared errors on the band-limited part and its
    complement satisfy the on-grid energy identity

        2*pi*(e1^2 + e2^2) = ||K||_2^2 + ||K_hat||_2^2
                             - 2*delta_omega*sum_k Re(conj(K) K_hat)

    (docs/numerics.md).  ``identity_ok`` and ``floor_ok`` read its first two
    terms within 5%: the left side is within 5% of them, and max(e1, e2)^2
    is at least 95% of (||K||^2 + ||K_hat||^2)/(4*pi), so no choice of gamma
    predicts both halves.  Energies are summed in the log domain, where the
    linear columns saturate to inf: log|K_hat - K| = s + log|D| + log|K| and
    log|K_hat| = s + log|e^{-s} + D| + log|K| with V - 1 = D e^s
    (:func:`.predictor.v_minus_one`), K real at node n/2 as transfer keeps it.
    """
    grid = cfg.grid
    gammas = _gamma_list(gammas)
    # the pair's own half spectra, exact zeros included
    X1, X2 = (x.spectrum for x in counterexample_pair(a, cfg))
    log_dw = math.log(grid.delta_omega)
    log_k = _log_abs(transfer(kernel, grid))
    log_norm_k_sq = _log_half_sum(2.0 * log_k, grid) + log_dw

    rows = []
    for gamma in gammas:
        s, d = v_minus_one(_half_omegas(grid), kernel, gamma, r)
        diff_log = s + _log_abs(d) + log_k
        with np.errstate(under="ignore", over="ignore"):
            khat_log = s + _log_abs(np.exp(-s) + d) + log_k
            le1 = _log_half_sum(2.0 * (diff_log + _log_abs(X1)), grid) + log_dw - math.log(2 * math.pi)
            le2 = _log_half_sum(2.0 * (diff_log + _log_abs(X2)), grid) + log_dw - math.log(2 * math.pi)
            lhs_log = math.log(2 * math.pi) + np.logaddexp(le1, le2)
            rhs_log = np.logaddexp(log_norm_k_sq, _log_half_sum(2.0 * khat_log, grid) + log_dw)
            rel_gap = abs(math.expm1(lhs_log - rhs_log))
            floor_ok = max(le1, le2) >= rhs_log - math.log(4 * math.pi) + math.log(0.95)
            rows.append(
                CounterexampleRow(
                    gamma=gamma,
                    e1=float(np.exp(0.5 * le1)),
                    e2=float(np.exp(0.5 * le2)),
                    identity_lhs=float(np.exp(lhs_log)),
                    identity_rhs=float(np.exp(rhs_log)),
                    e1_sq_log=float(le1),
                    e2_sq_log=float(le2),
                    identity_lhs_log=float(lhs_log),
                    identity_rhs_log=float(rhs_log),
                    identity_rel_gap=float(rel_gap),
                    identity_ok=bool(rel_gap <= CALIBRATION["counterexample_identity_rel"]),
                    floor_ok=bool(floor_ok),
                )
            )
    return CounterexampleReport(
        split=float(a),
        rows=tuple(rows),
        no_gamma_predicts_both=all(row.floor_ok for row in rows),
    )


@dataclass(frozen=True)
class NegativeDemoRow:
    gamma: float
    err_rel_slow: float
    err_rel_reference: float


@dataclass(frozen=True)
class NegativeDemoReport:
    """ILLUSTRATIVE contrast: a numerical run cannot prove non-existence of
    predictors, it can only exhibit the error floor."""

    q_bad: float
    rows: tuple
    final_ratio: float
    label: str = "ILLUSTRATIVE"


def nonpredictability_demo(
    q_bad: float,
    c: float,
    kernel: AnticausalKernel,
    gammas,
    cfg: GeneratorConfig,
    r: float,
    size: int = DEFAULT_DEMO_SIZE,
    q_reference: float = 2.0,
) -> NegativeDemoReport:
    """Contrast slow degeneracy exp(-c/|omega|^q_bad), q_bad in (0,1), against
    an admissible reference class under identical seeds and sweep.

    Signals with too-slow spectral decay keep mass inside the predictor's
    amplified low band.  On a uniform grid their error falls with gamma as
    well, only far less: at demo 07's configuration (pole 0.5, r = 2.5,
    seed 77) it reads 1.3e59 at gamma = 10 and 1.0e-3 at gamma = 30, about
    1e10 above the reference.  The grid's first node acts as a spectral gap;
    once the band edge drops below it, slow members behave like class
    members and the contrast fades (ROADMAP item 3).
    """
    q_bad = _real("q_bad", q_bad, hi=1.0)
    reference = DegeneracyClass(q_reference, c)  # also validates c > 0
    _require_admissible(r, reference)
    gammas = _gamma_list(gammas)

    _, slow_rows = _run_sweep(kernel, gammas, r, _enveloped_member(q_bad, c, cfg, size))
    _, ref_rows = _run_sweep(kernel, gammas, r, make_class_ensemble(reference, cfg, size))
    rows = tuple(
        NegativeDemoRow(gamma=s.gamma, err_rel_slow=s.err_l2_rel, err_rel_reference=g.err_l2_rel)
        for s, g in zip(slow_rows, ref_rows)
    )
    final = rows[-1]
    ratio = math.inf if final.err_rel_reference == 0.0 else final.err_rel_slow / final.err_rel_reference
    return NegativeDemoReport(q_bad=q_bad, rows=rows, final_ratio=float(ratio))
