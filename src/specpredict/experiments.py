"""Verification experiments: convergence sweeps, error decomposition,
robustness under calibrated noise, the two-sided counterexample identity and
the slow-degeneracy negative illustration.

Reported errors are worst-case over the ensemble, matching the universal
quantifier of the prediction guarantee at desk scale.  Everything is a pure
function of its inputs plus generator seeds, so reports are bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .degeneracy import DegeneracyClass
from .kernels import AnticausalKernel, kernel_to_dict, transfer
from .predictor import (
    PredictorTransfer,
    _logsumexp,
    build_predictor,
    causality_defect,
    lemma_check,
    orthogonality_residual,
)
from .signals import (
    GeneratorConfig,
    _counterexample_half_spectra,
    _enveloped_member,
    _half_omega_abs,
    add_noise,
    class_norm,
    make_class_ensemble,
)
from .spectral import (
    FrequencyGrid,
    TimeSeries,
    _is_sup,
    forward_transform,
    irfft_rows,
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


def default_grid() -> FrequencyGrid:
    return make_grid(DEFAULT_GRID_N, DEFAULT_GRID_DT)


def _metadata(kernel: AnticausalKernel, grid: FrequencyGrid, **extra) -> dict:
    """Report metadata: the kernel and grid of a run, then ``extra``."""
    grid_dict = {"n": grid.n, "delta_t": grid.delta_t}
    return {"kernel": kernel_to_dict(kernel), "grid": grid_dict, **extra}


def _gamma_list(gammas) -> tuple:
    """``gammas`` read once, as sorted floats; empty or non-positive input is rejected."""
    out = tuple(sorted(float(g) for g in gammas))
    if not out:
        raise ValueError("gammas must be nonempty")
    if not all(g > 0 for g in out):
        raise ValueError("gammas must be positive")
    return out


def _require_admissible(r: float, cls: DegeneracyClass) -> None:
    min_r = cls.min_sharpness_exponent
    if not r > min_r:
        raise ValueError(
            f"sharpness exponent r={r} is inadmissible for q={cls.q}: "
            f"the construction requires r > 2/(q-1) = {min_r}"
        )


def _member_spectrum(x: TimeSeries) -> np.ndarray:
    """Transform of a generated class member with its constructional zeros
    restored.

    The generators emit spectra with exact zeros at the degeneracy node and
    across the deep-degeneracy band; recomputing the transform from time
    samples leaves absolute roundoff (~1e-16 of the peak) at every node, and
    the predictor's enormous low-band gain would amplify that junk into
    garbage.  Values at or below the spectral roundoff floor (the same
    calibration constant the class norm uses) are therefore restored to
    exact zero, the same kind of cleanup as taking the real part after
    inverting a hermitian spectrum.
    """
    X = forward_transform(x).values.copy()
    floor = CALIBRATION["class_dc_floor_rel"] * float(np.max(np.abs(X)))
    X[np.abs(X) <= floor] = 0.0
    X[0] = 0.0
    return X


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
    metadata: dict = field(default_factory=dict)


def _member_half_spectra(ensemble) -> np.ndarray:
    """(m, n/2+1) stack of the spectra of real class members at nodes 0..n/2,
    their constructional zeros restored (see :func:`_member_spectrum`)."""
    grid = ensemble[0].grid
    if any(x.grid != grid for x in ensemble):
        raise ValueError("all ensemble members must share one grid")
    if not all(x.is_real for x in ensemble):
        raise ValueError("class members must be real signals")
    return np.stack([_member_spectrum(x)[: grid.n // 2 + 1] for x in ensemble])


def _row_norms(rows: np.ndarray, grid: FrequencyGrid):
    """Grid l2 (inf once a square overflows) and sup norms of real rows, (n,) or (m, n)."""
    with np.errstate(over="ignore"):
        l2 = math.sqrt(grid.delta_t) * np.linalg.norm(rows, axis=-1)
    return l2, np.max(np.abs(rows), axis=-1)


def _error_spectrum(pt: PredictorTransfer, X: np.ndarray) -> np.ndarray:
    """The error channel ``(K_hat - K) X`` of half spectra ``X``, shape
    (n/2+1,) or (m, n/2+1)."""
    h = pt.grid.n // 2 + 1
    return (pt.khat_values[:h] - pt.k_values[:h]) * X


def _error_channel(pt: PredictorTransfer, X: np.ndarray):
    """:func:`_error_spectrum` of ``X`` and the grid l2 and sup norms of its inverse."""
    diff = _error_spectrum(pt, X)
    l2, sup = _row_norms(irfft_rows(diff, pt.grid), pt.grid)
    return diff, l2, sup


@functools.lru_cache(maxsize=4)
def _half_nodes(grid: FrequencyGrid):
    """(|omega|, weight) at nodes 0..n/2, read-only and cached per grid, since
    the sweep reads them at every gamma.  The weight is 2, as node k stands for
    both signs of omega, except at nodes 0 and n/2, which stand for themselves."""
    omega_abs = _half_omega_abs(grid)
    weights = np.full(grid.n // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0
    omega_abs.flags.writeable = weights.flags.writeable = False
    return omega_abs, weights


def _band_split(diff: np.ndarray, pt: PredictorTransfer, rho: int):
    """(i1, i2): delta_omega * sum of |diff|^rho over both signs of omega, for
    the half spectrum ``diff``, at |omega| <= omega_threshold and above it."""
    omega_abs, weights = _half_nodes(pt.grid)
    E = weights * np.abs(diff) ** rho
    low = omega_abs <= pt.omega_threshold
    dw = pt.grid.delta_omega
    return float(dw * np.sum(E[low])), float(dw * np.sum(E[~low]))


def _relative(err: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.where(err == 0.0, 0.0, err / np.maximum(ref, 1e-300))


@dataclass(frozen=True)
class PredictionError:
    abs_err: float
    rel_err: float


def prediction_error(pt: PredictorTransfer, x: TimeSeries, p) -> PredictionError:
    """Grid distance between the anti-causal target of a real class member
    and its causal prediction, absolute and relative to the target: the
    :func:`gamma_sweep` figures of a one-member ensemble."""
    grid = pt.grid
    if x.grid != grid:
        raise ValueError("time series grid does not match predictor grid")
    X = _member_half_spectra([x])
    _, l2, sup = _error_channel(pt, X)
    y_l2, y_sup = _row_norms(irfft_rows(pt.k_values[: grid.n // 2 + 1] * X, grid), grid)
    err, ref = (sup, y_sup) if _is_sup(p) else (l2, y_l2)
    return PredictionError(float(err[0]), float(_relative(err, ref)[0]))


def error_decomposition(pt: PredictorTransfer, x: TimeSeries, p):
    """The spectral error measure of a real class member, rho = 2 for p = 2
    and rho = 1 for p = inf, split at the degeneracy-band edge into (i1, i2)
    as :func:`_band_split` does; i1 + i2 is the full grid measure."""
    rho = 1 if _is_sup(p) else 2
    return _band_split(_error_spectrum(pt, _member_half_spectra([x])[0]), pt, rho)


def _run_sweep(kernel: AnticausalKernel, gammas, r: float, ensemble, cls: DegeneracyClass = None):
    grid = ensemble[0].grid
    X = _member_half_spectra(ensemble)
    K = transfer(kernel, grid).values[: grid.n // 2 + 1]
    y_l2, y_sup = _row_norms(irfft_rows(K * X, grid), grid)
    rows = []
    for gamma in gammas:
        pt = build_predictor(kernel, gamma, r, grid)
        diff, l2a, supa = _error_channel(pt, X)
        l2r = _relative(l2a, y_l2)
        # i1/i2 belong to the member with the worst relative l2 error
        i1, i2 = _band_split(diff[int(np.argmax(l2r))], pt, 2)
        lemma_kwargs = {}
        if cls is not None:
            rep = lemma_check(pt, cls)
            lemma_kwargs = dict(
                lemma_pass_high_band=rep.pass_high_band,
                lemma_pass_low_band=rep.pass_low_band,
                lemma_tail_dev=rep.tail_dev_max,
            )
        rows.append(
            SweepRow(
                gamma=gamma,
                err_l2_abs=float(np.max(l2a)),
                err_l2_rel=float(np.max(l2r)),
                err_sup_abs=float(np.max(supa)),
                err_sup_rel=float(np.max(_relative(supa, y_sup))),
                kappa_sup=pt.kappa_sup,
                omega_threshold=pt.omega_threshold,
                causality_defect=causality_defect(pt),
                i1=i1,
                i2=i2,
                **lemma_kwargs,
            )
        )
        # each predictor holds several n-node arrays; drop it before the next build
        del pt, diff
    return rows


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
    if len(ensemble) == 0:
        raise ValueError("ensemble must be nonempty")
    _require_admissible(r, cls)
    rows = _run_sweep(kernel, gammas, r, ensemble, cls=cls)
    meta = _metadata(kernel, ensemble[0].grid, r=r, ensemble_size=len(ensemble))
    meta["class"] = {"q": cls.q, "c": cls.c}
    meta.update(metadata or {})
    return SweepReport(rows=tuple(rows), metadata=meta)


def uniformity_check(
    kernel: AnticausalKernel,
    cls: DegeneracyClass,
    gamma: float,
    r: float,
    ensemble,
    p=2,
) -> float:
    """Worst error-to-class-norm ratio over the ensemble.

    The sweep of this quantity over gamma is the desk-scale evidence for the
    uniform bound ||y - y_hat|| <= eps(gamma) * ||x||_class.
    """
    _require_admissible(r, cls)
    norms = np.array([class_norm(x, cls) for x in ensemble])
    if np.any(np.isinf(norms)):
        raise ValueError("ensemble member has infinite class norm")
    X = _member_half_spectra(ensemble)
    pt = build_predictor(kernel, gamma, r, ensemble[0].grid)
    _, l2, sup = _error_channel(pt, X)
    return float(np.max((sup if _is_sup(p) else l2) / norms))


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
    r: float
    eps_clean: float
    kappa_sup: float
    rows: tuple
    saturated: bool
    metadata: dict = field(default_factory=dict)


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
    the 5% discretization slack from the calibration table.  The J-split
    columns are grid diagnostics of the clean/noise error channels.
    """
    if not all(math.isfinite(nu) and nu >= 0 for nu in nus):
        raise ValueError(f"noise intensities must be finite and >= 0, got {list(nus)!r}")
    grid = x0.grid
    h = grid.n // 2 + 1
    pt = build_predictor(kernel, gamma, r, grid)
    # the clean member's spectrum carries its constructional X(0) = 0; the
    # noise spectrum keeps whatever degeneracy-node content it legitimately has
    clean_diff, _, eps_clean = _error_channel(pt, _member_half_spectra([x0])[0])
    eps_clean = float(eps_clean)
    slack = CALIBRATION["robustness_slack"]

    j0 = sum(_band_split(clean_diff, pt, 1)) / (2 * math.pi)
    rows = []
    for nu in nus:
        N = add_noise(x0, float(nu), cfg)[1].values[:h]
        # the clean channel plus the prediction of the noise, so the nu = 0
        # row reproduces eps_clean bit-exactly
        err = float(np.max(np.abs(irfft_rows(clean_diff + pt.khat_values[:h] * N, grid))))
        bound = eps_clean + nu * (pt.kappa_sup + 1.0)
        j_eta = sum(_band_split(_error_spectrum(pt, N), pt, 1)) / (2 * math.pi)
        rows.append(
            RobustnessRow(
                nu=float(nu),
                err_sup_noisy=err,
                bound=bound,
                holds=bool(err <= eps_clean + nu * (pt.kappa_sup + 1.0) * (1.0 + slack)),
                j0=j0,
                j_eta=j_eta,
            )
        )
    return RobustnessReport(
        gamma=float(gamma),
        r=float(r),
        eps_clean=eps_clean,
        kappa_sup=pt.kappa_sup,
        rows=tuple(rows),
        saturated=pt.any_saturated,
        metadata=_metadata(kernel, grid, seed=cfg.seed),
    )


@dataclass(frozen=True)
class CounterexampleRow:
    gamma: float
    e1: float
    e2: float
    identity_lhs: float
    identity_rhs: float
    residual: float
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
    metadata: dict = field(default_factory=dict)


def _log_abs(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


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

        2*pi*(e1^2 + e2^2) = ||K||_2^2 + ||K_hat||_2^2,

    so max(e1, e2) is bounded below by sqrt((||K||^2 + ||K_hat||^2)/(4*pi)):
    no choice of gamma can predict both halves.  All energies are accumulated
    in the log domain because |K_hat| can exceed the double range near the
    degeneracy node; linear columns saturate to inf where that happens.
    """
    grid = cfg.grid
    gammas = _gamma_list(gammas)
    h = grid.n // 2 + 1
    # the pair's own half spectra, exact zeros included; the log-weight counts
    # each node for both signs of omega (see _half_nodes)
    X1, X2 = _counterexample_half_spectra(a, cfg)
    log_w = np.log(_half_nodes(grid)[1])
    K = transfer(kernel, grid).values
    k_log = _log_abs(K)
    log_dw = math.log(grid.delta_omega)
    log_norm_k_sq = _logsumexp(2.0 * k_log) + log_dw
    tol = CALIBRATION["counterexample_identity_rel"]

    rows = []
    for gamma in gammas:
        pt = build_predictor(kernel, gamma, r, grid)
        with np.errstate(invalid="ignore"):
            diff_log = np.where(pt.saturated, pt.khat_log_mag, _log_abs(K - pt.khat_values))[:h]
        le1 = _logsumexp(2.0 * (diff_log + _log_abs(X1)) + log_w) + log_dw - math.log(2 * math.pi)
        le2 = _logsumexp(2.0 * (diff_log + _log_abs(X2)) + log_w) + log_dw - math.log(2 * math.pi)
        lhs_log = math.log(2 * math.pi) + np.logaddexp(le1, le2)
        rhs_log = np.logaddexp(log_norm_k_sq, _logsumexp(2.0 * pt.khat_log_mag) + log_dw)
        rel_gap = abs(math.expm1(lhs_log - rhs_log))
        floor_ok = max(le1, le2) >= rhs_log - math.log(4 * math.pi) + math.log(0.95)
        with np.errstate(over="ignore"):
            rows.append(
                CounterexampleRow(
                    gamma=gamma,
                    e1=float(np.exp(0.5 * le1)),
                    e2=float(np.exp(0.5 * le2)),
                    identity_lhs=float(np.exp(lhs_log)),
                    identity_rhs=float(np.exp(rhs_log)),
                    residual=orthogonality_residual(pt),
                    e1_sq_log=float(le1),
                    e2_sq_log=float(le2),
                    identity_lhs_log=float(lhs_log),
                    identity_rhs_log=float(rhs_log),
                    identity_rel_gap=float(rel_gap),
                    identity_ok=bool(rel_gap <= tol),
                    floor_ok=bool(floor_ok),
                )
            )
    return CounterexampleReport(
        split=float(a),
        rows=tuple(rows),
        no_gamma_predicts_both=all(row.floor_ok for row in rows),
        metadata=_metadata(kernel, grid, r=r, seed=cfg.seed),
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
    c: float
    rows: tuple
    final_ratio: float
    label: str = "ILLUSTRATIVE"
    metadata: dict = field(default_factory=dict)


def nonpredictability_demo(
    q_bad: float,
    c: float,
    kernel: AnticausalKernel,
    gammas,
    cfg: GeneratorConfig,
    r: float,
    size: int = 3,
    q_reference: float = 2.0,
) -> NegativeDemoReport:
    """Contrast slow degeneracy exp(-c/|omega|^q_bad), q_bad in (0,1), against
    an admissible reference class under identical seeds and sweep.

    Signals with too-slow spectral decay keep mass inside the predictor's
    amplified low band, so their error refuses to shrink (and visibly grows)
    while the reference ensemble converges.
    """
    if not (0.0 < q_bad < 1.0):
        raise ValueError(f"q_bad must lie strictly inside (0, 1), got {q_bad!r}")
    reference = DegeneracyClass(q_reference, c)  # also validates c > 0
    _require_admissible(r, reference)
    gammas = _gamma_list(gammas)

    slow_rows = _run_sweep(kernel, gammas, r, _enveloped_member(q_bad, c, cfg, size))
    ref_rows = _run_sweep(kernel, gammas, r, make_class_ensemble(reference, cfg, size))
    rows = tuple(
        NegativeDemoRow(gamma=s.gamma, err_rel_slow=s.err_l2_rel, err_rel_reference=g.err_l2_rel)
        for s, g in zip(slow_rows, ref_rows)
    )
    final = rows[-1]
    ratio = math.inf if final.err_rel_reference == 0.0 else final.err_rel_slow / final.err_rel_reference
    return NegativeDemoReport(
        q_bad=float(q_bad),
        c=float(c),
        rows=rows,
        final_ratio=float(ratio),
        metadata=_metadata(
            kernel, cfg.grid, r=r, q_reference=q_reference, seed=cfg.seed, size=size
        ),
    )


# re-export for callers assembling ensembles alongside sweeps
__all__ = [
    "DEFAULT_CLASS",
    "DEFAULT_ENSEMBLE_SIZE",
    "DEFAULT_GAMMAS",
    "DEFAULT_GRID_DT",
    "DEFAULT_GRID_N",
    "DEFAULT_KERNEL",
    "DEFAULT_R",
    "CounterexampleReport",
    "CounterexampleRow",
    "NegativeDemoReport",
    "NegativeDemoRow",
    "PredictionError",
    "RobustnessReport",
    "RobustnessRow",
    "SweepReport",
    "SweepRow",
    "counterexample_experiment",
    "default_grid",
    "error_decomposition",
    "gamma_sweep",
    "make_class_ensemble",
    "nonpredictability_demo",
    "prediction_error",
    "robustness_experiment",
    "uniformity_check",
]
