"""Verification experiments: convergence sweeps, error decomposition,
robustness under calibrated noise, the two-sided counterexample identity and
the slow-degeneracy negative illustration.

Reported errors are worst-case over the ensemble, matching the universal
quantifier of the prediction guarantee at desk scale.  Everything is a pure
function of its inputs plus generator seeds, so reports are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degeneracy import DegeneracyClass
from .kernels import AnticausalKernel, apply_anticausal, kernel_to_dict, transfer
from .predictor import (
    PredictorTransfer,
    _logsumexp,
    build_predictor,
    causality_defect,
    lemma_check,
    orthogonality_residual,
    predict,
)
from .signals import (
    GeneratorConfig,
    _enveloped_member,
    add_noise,
    class_norm,
    counterexample_pair,
    make_class_ensemble,
)
from .spectral import (
    FrequencyGrid,
    Spectrum,
    TimeSeries,
    _is_sup,
    forward_transform,
    inverse_transform,
    irfft_rows,
    make_grid,
    norm,
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
class PredictionError:
    abs_err: float
    rel_err: float


def prediction_error(
    kernel: AnticausalKernel, pt: PredictorTransfer, x: TimeSeries, p
) -> PredictionError:
    """Worst grid distance between the anti-causal target and its prediction."""
    y = apply_anticausal(kernel, x)
    y_hat = predict(pt, x)
    diff = TimeSeries(x.grid, y_hat.samples - y.samples)
    abs_err = norm(diff, p)
    if abs_err == 0.0:
        return PredictionError(0.0, 0.0)
    return PredictionError(abs_err, abs_err / max(norm(y, p), 1e-300))


def error_decomposition(
    pt: PredictorTransfer,
    kernel: AnticausalKernel,
    x: TimeSeries,
    cls: DegeneracyClass,
    p,
    restore_dc_zero: bool = True,
):
    """Split the spectral error measure at the degeneracy-band edge.

    With rho = 2 for p = 2 and rho = 1 for p = inf, returns
    (i1, i2) = (delta_omega * sum_{|omega| <= threshold} |Yhat - Y|^rho,
                same over |omega| > threshold);
    their sum is the full grid error measure by construction.  ``cls`` rides
    along for report labelling only; the split frequency is the predictor's.

    The decomposition is a class-member diagnostic, so the constructional
    X(0) = 0 is restored by default; pass ``restore_dc_zero=False`` for
    signals with genuine content at the degeneracy node.
    """
    rho = 2 if p == 2 else 1
    grid = x.grid
    X = _member_spectrum(x) if restore_dc_zero else forward_transform(x).values
    K = transfer(kernel, grid).values
    E = np.abs((pt.khat_values - K) * X) ** rho
    low = np.abs(grid.omegas()) <= pt.omega_threshold
    i1 = float(grid.delta_omega * np.sum(E[low]))
    i2 = float(grid.delta_omega * np.sum(E[~low]))
    return i1, i2


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
    """(m, n/2+1) stack of the members' spectra at nodes 0..n/2."""
    grid = ensemble[0].grid
    if any(x.grid != grid for x in ensemble):
        raise ValueError("all ensemble members must share one grid")
    return np.stack([_member_spectrum(x)[: grid.n // 2 + 1] for x in ensemble])


def _row_norms(rows: np.ndarray, grid: FrequencyGrid):
    """Per-row grid l2 and sup norms of an (m, n) stack of real series."""
    return math.sqrt(grid.delta_t) * np.linalg.norm(rows, axis=1), np.max(np.abs(rows), axis=1)


def _error_rows(khat: np.ndarray, K: np.ndarray, X: np.ndarray, grid: FrequencyGrid):
    """Error channel of every member at once: ``(K_hat - K) X`` on the half
    spectra ``X`` (m, n/2+1), and the l2 and sup norms of its inverse."""
    diff = (khat[: grid.n // 2 + 1] - K) * X
    l2, sup = _row_norms(irfft_rows(diff, grid), grid)
    return diff, l2, sup


def _relative(err: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.where(err == 0.0, 0.0, err / np.maximum(ref, 1e-300))


def _run_sweep(
    kernel: AnticausalKernel,
    gammas,
    r: float,
    ensemble,
    cls: DegeneracyClass = None,
    omega_floor: float = 0.5,
):
    grid = ensemble[0].grid
    h = grid.n // 2 + 1
    X = _member_half_spectra(ensemble)
    K = transfer(kernel, grid).values[:h]
    y_l2, y_sup = _row_norms(irfft_rows(K * X, grid), grid)

    omega_abs = np.abs(grid.omegas()[:h])
    # the half spectrum stands for both signs of omega except at 0 and omega_max
    weights = np.full(h, 2.0)
    weights[[0, -1]] = 1.0
    rows = []
    for gamma in gammas:
        pt = build_predictor(kernel, gamma, r, grid)
        diff, l2a, supa = _error_rows(pt.khat_values, K, X, grid)
        l2r = _relative(l2a, y_l2)
        # i1/i2 belong to the member with the worst relative l2 error
        E = weights * np.abs(diff[int(np.argmax(l2r))]) ** 2
        low = omega_abs <= pt.omega_threshold
        lemma_kwargs = {}
        if cls is not None:
            rep = lemma_check(pt, cls, omega_floor=omega_floor)
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
                i1=float(grid.delta_omega * np.sum(E[low])),
                i2=float(grid.delta_omega * np.sum(E[~low])),
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
    grid = ensemble[0].grid
    X = _member_half_spectra(ensemble)
    pt = build_predictor(kernel, gamma, r, grid)
    K = pt.k_values[: grid.n // 2 + 1]
    _, l2, sup = _error_rows(pt.khat_values, K, X, grid)
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
    pt = build_predictor(kernel, gamma, r, grid)
    K = pt.k_values
    # the clean member's spectrum carries its constructional X(0) = 0; the
    # noise spectrum keeps whatever degeneracy-node content it legitimately has
    X0 = _member_spectrum(x0)
    clean_diff = inverse_transform(Spectrum(grid, (pt.khat_values - K) * X0))
    eps_clean = norm(clean_diff, math.inf)
    slack = CALIBRATION["robustness_slack"]

    j0 = float(grid.delta_omega / (2 * math.pi) * np.sum(np.abs((pt.khat_values - K) * X0)))
    rows = []
    for nu in nus:
        _, N = add_noise(x0, float(nu), cfg)
        # same spectral expression as the clean run plus the noise channel, so
        # the nu = 0 row reproduces eps_clean bit-exactly
        noisy_diff = inverse_transform(
            Spectrum(grid, (pt.khat_values - K) * X0 + pt.khat_values * N.values)
        )
        err = norm(noisy_diff, math.inf)
        bound = eps_clean + nu * (pt.kappa_sup + 1.0)
        j_eta = float(
            grid.delta_omega / (2 * math.pi) * np.sum(np.abs((pt.khat_values - K) * N.values))
        )
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
    if not (0.0 < a < grid.omega_max):
        raise ValueError(f"split frequency must lie in (0, omega_max={grid.omega_max})")
    gammas = _gamma_list(gammas)

    x1, x2 = counterexample_pair(a, cfg)
    X1 = forward_transform(x1).values
    X2 = forward_transform(x2).values
    K = transfer(kernel, grid).values
    k_log = _log_abs(K)
    log_dw = math.log(grid.delta_omega)
    log_norm_k_sq = _logsumexp(2.0 * k_log) + log_dw
    tol = CALIBRATION["counterexample_identity_rel"]

    rows = []
    for gamma in gammas:
        pt = build_predictor(kernel, gamma, r, grid)
        with np.errstate(invalid="ignore"):
            diff_log = np.where(pt.saturated, pt.khat_log_mag, _log_abs(K - pt.khat_values))
        le1 = _logsumexp(2.0 * (diff_log + _log_abs(X1))) + log_dw - math.log(2 * math.pi)
        le2 = _logsumexp(2.0 * (diff_log + _log_abs(X2))) + log_dw - math.log(2 * math.pi)
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
