"""Acceptance suite: one test per numbered exit criterion.

Each test prints a ``[criterion NN] PASS/FAIL`` line with the measured
quantities.  Criteria 5 and 6 certify the predictors of the default sweep
with :func:`line_witness`, which reads K_hat = V * K on the line
Re z = sigma, 0 < sigma < min_j a_j.  On the imaginary axis the gain at the
degeneracy node is exp(a * gamma^(r+1)) (~e^100000 at the defaults) and the
ringing outlasts the window, so the grid witness ``causality_defect`` reads
0.5 there whatever the kernel, and ``orthogonality_residual`` reads the
grid's |K(0)| / ||K|| whatever the gamma: 0.0553, 0.0677 and 0.0990 on the
default grid for the poles (1,), (1, 2) and (0.5, 1, 2).  On the line the
gain is at most ~e^gamma and the ringing fits a witness grid of at most 2^18
samples.  docs/numerics.md gives both arguments.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import compact_pulse
from oracles import build_predictor_full_grid, hermitian_full, idft_direct, linear_convolve
from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    GeneratorConfig,
    TimeSeries,
    apply_anticausal,
    build_predictor,
    counterexample_experiment,
    find_gamma0,
    forward_transform,
    gamma_sweep,
    lemma_check,
    line_witness,
    make_class_ensemble,
    make_grid,
    nonpredictability_demo,
    norm,
    predict,
    robustness_experiment,
    sample_class_member,
    transfer,
)
from specpredict.experiments import (
    DEFAULT_CLASS,
    DEFAULT_GAMMAS,
    DEFAULT_KERNEL,
    DEFAULT_R,
    default_grid,
)
from specpredict.spectral import _half_omegas, _half_sum


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def grid():
    return default_grid()


@pytest.fixture(scope="module")
def default_sweep(grid):
    """The criterion-4 sweep, and the (kernel, gamma, r) of each of its
    predictors, which criteria 5 and 6 read on Re z = sigma."""
    cfg = GeneratorConfig(seed=2026, grid=grid)
    ensemble = make_class_ensemble(DEFAULT_CLASS, cfg, 10)
    sweep = gamma_sweep(
        DEFAULT_KERNEL, DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_R, ensemble, metadata={"seed": 2026}
    )
    return sweep, [(DEFAULT_KERNEL, row.gamma, DEFAULT_R) for row in sweep.rows]


def test_criterion_01_transform_fidelity(grid):
    start = time.time()
    worst_rt, worst_pv = 0.0, 0.0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(seed))
        # the real and the imaginary draw of one complex series, each a real signal
        for draw in (rng.standard_normal(grid.n), rng.standard_normal(grid.n)):
            x = TimeSeries(grid, draw)
            X = forward_transform(x)
            worst_rt = max(
                worst_rt, norm(TimeSeries(grid, X.samples - x.samples), 2) / norm(x, 2)
            )
            freq_energy = grid.delta_omega / (2 * math.pi) * _half_sum(np.abs(X.spectrum) ** 2, grid)
            worst_pv = max(worst_pv, abs(freq_energy - norm(x, 2) ** 2) / norm(x, 2) ** 2)
    elapsed = time.time() - start
    ok = worst_rt <= 1e-9 and worst_pv <= 1e-8 and elapsed < 10.0
    assert report(
        1, ok, f"round trip {worst_rt:.2e} (<=1e-9), parseval {worst_pv:.2e} (<=1e-8), {elapsed:.1f}s"
    )


def test_criterion_02_oracle_equivalence():
    start = time.time()
    g = make_grid(2**10, 0.1)
    kernels = [
        AnticausalKernel((0.5,), (1.0,)),
        AnticausalKernel((0.5, 1.2), (0.3, 1.0)),
    ]
    worst = 0.0
    for kern in kernels:
        kernel_series = idft_direct(hermitian_full(transfer(kern, g)), g).real
        for seed in range(5):
            x = compact_pulse(g, 100 + seed)
            fast = apply_anticausal(kern, x)
            slow = linear_convolve(kernel_series, x.samples, g)
            worst = max(
                worst,
                norm(TimeSeries(g, fast.samples - slow), 2) / norm(TimeSeries(g, slow), 2),
            )
    pt = build_predictor(kernels[0], 3.0, 0.2, g)
    khat_full = build_predictor_full_grid(kernels[0], 3.0, 0.2, g).khat_values
    khat_series = idft_direct(khat_full, g).real
    for seed in range(5):
        x = compact_pulse(g, 200 + seed)
        fast = predict(pt, x)
        slow = linear_convolve(khat_series, x.samples, g)
        worst = max(
            worst,
            norm(TimeSeries(g, fast.samples - slow), 2) / norm(TimeSeries(g, slow), 2),
        )
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    assert report(2, ok, f"worst rel L2 vs O(n^2) quadrature {worst:.2e} (<=1e-6), {elapsed:.1f}s")


def test_criterion_03_lemma_suite(grid):
    start = time.time()
    cls = DegeneracyClass(2.0, 1.0)
    tail_devs = []
    all_high, all_low = True, True
    for gamma in (10.0, 100.0, 1000.0):
        rep = lemma_check(build_predictor(DEFAULT_KERNEL, gamma, 4.0, grid), cls, 0.5)
        all_high = all_high and rep.pass_high_band
        tail_devs.append(rep.tail_dev_max)
    decreasing = all(a > b for a, b in zip(tail_devs, tail_devs[1:]))
    gamma0 = find_gamma0(DEFAULT_KERNEL, cls, 4.0, grid, bracket=(0.5, 2000.0))
    for gamma in (10.0, 100.0, 1000.0):
        if gamma >= gamma0:
            rep = lemma_check(build_predictor(DEFAULT_KERNEL, gamma, 4.0, grid), cls, 0.5)
            all_low = all_low and rep.pass_low_band
    elapsed = time.time() - start
    ok = all_high and decreasing and math.isfinite(gamma0) and all_low and elapsed < 10.0
    assert report(
        3,
        ok,
        f"high-band bounds {all_high}, tail devs {[f'{d:.1e}' for d in tail_devs]} strictly "
        f"decreasing {decreasing}, gamma0={gamma0:.2f}, low band holds {all_low}, {elapsed:.1f}s",
    )


def test_criterion_04_convergence(grid, default_sweep):
    start = time.time()
    sweep, _ = default_sweep
    first, last = sweep.rows[0], sweep.rows[-1]
    ok_l2 = last.err_l2_rel <= 0.1 * first.err_l2_rel
    ok_sup = last.err_sup_rel <= 0.1 * first.err_sup_rel
    ok_i1 = last.i1 <= 0.1 * first.i1
    ok_i2 = last.i2 <= 0.1 * first.i2
    elapsed = time.time() - start
    ok = ok_l2 and ok_sup and ok_i1 and ok_i2
    assert report(
        4,
        ok,
        f"l2 rel {first.err_l2_rel:.2e}->{last.err_l2_rel:.2e}, sup rel "
        f"{first.err_sup_rel:.2e}->{last.err_sup_rel:.2e}, i1 {first.i1:.1e}->{last.i1:.1e}, "
        f"i2 {first.i2:.2e}->{last.i2:.2e} (>=10x shrink each)",
    )
    # the i1 check above holds as 0 <= 0: the band error i1 is exactly zero
    # at every gamma, since every member is exactly zero at each node with
    # |omega| <= omega_threshold
    assert all(row.i1 == 0.0 for row in sweep.rows)
    omega_abs = np.abs(_half_omegas(grid))  # node n/2 reads -omega_max
    members = make_class_ensemble(DEFAULT_CLASS, GeneratorConfig(seed=2026, grid=grid), 10)
    for row in sweep.rows:
        band = np.flatnonzero(omega_abs <= row.omega_threshold)
        assert band.tolist() == ([0, 1] if row.gamma == 10.0 else [0]), row.gamma
        assert all(np.all(x.spectrum[band] == 0.0) for x in members), row.gamma


def test_criterion_05_causality(default_sweep):
    # Each sweep predictor is read on Re z = sigma, where the gain is finite
    # and the ringing fits the witness grid.  The weight e^{-sigma t} raises
    # t < 0 and lowers t > 0, so the share read there bounds the kernel's own
    # t < 0 share from above.  See docs/numerics.md.
    _, configs = default_sweep
    defects = [line_witness(*args).causality_defect for args in configs]
    worst = max(defects)
    ok = worst < 1e-3
    report(5, ok, f"worst causality defect {worst:.1e} on Re z = sigma (<1e-3 required)")
    assert ok, (
        f"predictor kernel holds an energy share {worst:.2e} at t < 0 on the "
        "line Re z = sigma: K_hat = V*K is not causal"
    )


def test_criterion_06_orthogonality(default_sweep):
    # Parseval with cancelling weights: the sum of conj(K(-sigma + i*omega))
    # K_hat(sigma + i*omega) over the line is the inner product of the
    # anti-causal and the causal kernel, 0 when their supports are disjoint.
    # See docs/numerics.md.
    _, configs = default_sweep
    residuals = [line_witness(*args).orthogonality_residual for args in configs]
    worst = max(residuals)
    ok = worst < 1e-2
    report(6, ok, f"worst orthogonality residual {worst:.1e} on Re z = sigma (<1e-2 required)")
    assert ok, (
        f"normalized inner product of K and K_hat is {worst:.2e} on the line "
        "Re z = sigma: the kernels are not orthogonal"
    )


def test_criterion_07_counterexample(grid):
    cfg = GeneratorConfig(seed=5, grid=grid)
    rep = counterexample_experiment(0.5, DEFAULT_KERNEL, DEFAULT_GAMMAS, cfg, r=DEFAULT_R)
    identity_ok = all(row.identity_ok for row in rep.rows)
    floor_ok = all(row.floor_ok for row in rep.rows)
    worst_gap = max(row.identity_rel_gap for row in rep.rows)
    ok = identity_ok and floor_ok and rep.no_gamma_predicts_both
    assert report(
        7,
        ok,
        f"energy identity within {worst_gap:.2e} (<=0.05) at every gamma, "
        f"two-sided floor holds at every gamma: no gamma predicts both halves",
    )


def test_criterion_08_robustness(grid):
    kernel = AnticausalKernel((0.01,), (1.0,))
    cls = DegeneracyClass(5.0, 1.0)
    r = 0.6
    cfg = GeneratorConfig(seed=424242, grid=grid)
    x0 = sample_class_member(cls, cfg)
    rep100 = robustness_experiment(kernel, 100.0, r, x0, [0.01, 0.05, 0.1], cfg)
    bounds_hold = all(row.holds for row in rep100.rows)
    lo = robustness_experiment(kernel, 30.0, r, x0, [0.05], cfg)
    hi = robustness_experiment(kernel, 1000.0, r, x0, [0.05], cfg)
    tradeoff = hi.rows[0].err_sup_noisy > lo.rows[0].err_sup_noisy
    ok = bounds_hold and tradeoff and not (rep100.saturated or lo.saturated or hi.saturated)
    assert report(
        8,
        ok,
        f"gain bound holds at gamma=100 for nu in (0.01,0.05,0.1) "
        f"(errs {[f'{row.err_sup_noisy:.2e}' for row in rep100.rows]}), trade-off "
        f"err(gamma=1000)={hi.rows[0].err_sup_noisy:.2e} > err(gamma=30)={lo.rows[0].err_sup_noisy:.2e}",
    )


def test_criterion_09_negative_illustration(grid):
    kernel = AnticausalKernel((0.5,), (1.0,))
    cfg = GeneratorConfig(seed=77, grid=grid)
    rep = nonpredictability_demo(0.5, 1.0, kernel, (10.0, 30.0), cfg, r=2.5, size=3)
    final = rep.rows[-1]
    ok = final.err_rel_slow >= 10.0 * final.err_rel_reference
    assert report(
        9,
        ok,
        f"final slow-degeneracy error {final.err_rel_slow:.2e} vs admissible-class "
        f"{final.err_rel_reference:.2e} (ratio {rep.final_ratio:.1e} >= 10, {rep.label})",
    )


def test_criterion_10_reproducibility(tmp_path):
    from specpredict.cli import main

    config = {
        "grid": {"n": 4096, "delta_t": 0.02},
        "kernel": {"poles": [1.0], "numerator": [1.0]},
        "class": {"q": 2.0, "c": 1.0},
        "predictor": {"r": 4.0, "gammas": [10.0, 30.0]},
        "signal": {"kind": "class_member", "seed": 7},
        "ensemble": {"size": 2, "seed": 2026},
        "counterexample": {"a": 0.5, "seed": 5},
        "output": {"directory": ".", "formats": ["csv", "json", "svg"]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    identical = True
    compared = []
    for command, files in (
        ("sweep", ("sweep.csv", "sweep.json", "sweep.svg")),
        ("counterexample", ("counterexample.csv", "counterexample.json")),
    ):
        out1, out2 = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert main([command, "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main([command, "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in files:
            same = (out1 / name).read_bytes() == (out2 / name).read_bytes()
            identical = identical and same
            compared.append(name)
    assert report(
        10, identical, f"byte-identical reruns across {len(compared)} artifacts: {compared}"
    )
