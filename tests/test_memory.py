"""Memory bounds of the default convergence study (n = 2^16, 10 members).

numpy reports its array buffers to ``tracemalloc``, so a traced peak is the
largest set of arrays alive at once; the FFT library's own scratch is not
counted.  An ensemble holds only its seeds: a member is drawn when the sweep
reads it, and the sweep keeps one error gain per gamma, on its support,
beside one workspace of 2n+2 values for a member's channels: a channel's
half spectrum and its inverse, whose sup is read as the larger of |max| and
|min| and whose squares overwrite it, so no |x| or scratch row is formed.
Every error norm is taken in such a workspace, so ``prediction_error``,
the robustness experiment and the predict command form one too; the norms
invert a half spectrum in natural order, wherever it lies, with no phase
and no copy.
The sweep holds no member once it has moved on to the next, member 0
included, so no array sized by the ensemble is alive while an ensemble is
drawn and swept, and the peak does not grow with the ensemble.  Generated
members keep only the half spectrum (nodes 0..n/2) of their last
projection, which the sweep reads in place,
and a predictor and the line witness evaluate and keep nodes 0..n/2 only.
The class weight is formed in the one buffer of |omega|.
The per-grid tables (signed and absolute omega, node weights) hold nodes
0..n/2 and are cached for one grid at a time; no sign table is kept, as the
centred origin is a rotation by n/2 (docs/numerics.md, section 8).  The
witnesses split the t < 0 share at n/2 in place, and lemma_check reduces
its node sets in blocks, so none of them builds an n-node or n/2-node
scratch array.  The predict command
forms y only for its CSV and holds one n-sample series at a time, and a float CSV is formed and printed a
block of rows at a time, so no (n, 2) table or n-node time array is built.
A random phase draw frees its Philox round buffers before the exponential.
"""

import gc
import json
import tracemalloc

import numpy as np

from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    GeneratorConfig,
    build_predictor,
    causality_defect,
    gamma_sweep,
    lemma_check,
    line_witness,
    make_class_ensemble,
    robustness_experiment,
    sample_class_member,
)
from specpredict import cli, experiments, signals, spectral
from specpredict.degeneracy import log_weight
from specpredict.kernels import transfer
from specpredict.experiments import (
    DEFAULT_CLASS,
    DEFAULT_ENSEMBLE_SIZE,
    DEFAULT_GAMMAS,
    DEFAULT_KERNEL,
    DEFAULT_R,
    default_grid,
)

CFG = GeneratorConfig(seed=2026, grid=default_grid())

# Traced peak of gamma_sweep above its inputs at these defaults: 26.8 MB for
# the stacked channel (one (10, 2^15+1) error spectrum and one (10, 2^16)
# inverse per gamma), 14.1 MB streamed with predictors mirrored to n nodes,
# 11.4-11.9 MB with predictors kept at nodes 0..n/2 beside an (m, 2^15+1)
# stack of member spectra, 7.7 MB with members taken one at a time against
# a (5, 2^15+1) array of error gains; the bound sits above the last and
# below the one before.  Drawing each member as the sweep reads it, with
# one gain array per gamma and one channel workspace, peaked at 6.4 MB.
# With the per-grid caches filled before the trace, as below, a 3n+2-value
# workspace beside a held member 0 peaks at 5.78 MB and a 2n+2-value one
# that squares the inverse in place, with member 0 freed once member 1 is
# read, at 4.76 MB (7.74 and 6.72 MB with the caches filled in the trace);
# the bound sits between the last two.
SWEEP_PEAK_BOUND = 5.3e6

# Traced peak of _norms on a channel in its workspace at n = 2^16: 131 kB
# while the channel was phased by a float sign table, whose ufunc cast
# buffer held np.getbufsize() complex values, where an n-value row is
# 524 kB; 9 kB inverting the channel in natural order with no phase.  The
# bound is that buffer plus 2 kB.
NORMS_PEAK_BOUND = 16 * np.getbufsize() + 2e3

# The member-streamed sweep peaks at the same traced size for 10 and 20
# members; the member stack made it grow by 0.52 MB a member (5.2 MB), and
# so did a held ensemble when its drawing is traced with the sweep.
SWEEP_GROWTH_BOUND = 0.25e6

# Traced bytes left alive by make_class_ensemble(DEFAULT_CLASS, CFG, 10):
# 5.2 MB while the ensemble held its ten half spectra; an ensemble that
# holds its seeds keeps a few hundred bytes.
ENSEMBLE_ALIVE_BOUND = 10e3

# Traced peak of log_weight at the n/2+1 nodes of the default grid: 1.08 MB
# with |omega|, an inf-filled result and the masked power's compacted
# copies, 0.33 MB forming the result in the buffer of |omega|; the bound
# sits between.
LOG_WEIGHT_PEAK_BOUND = 0.5e6

# Traced peak of one build_predictor at n = 2^16, gamma = 10: 10.1 MB with
# V, K and K_hat evaluated at all n nodes, 7.0 MB evaluated at nodes 0..n/2
# and mirrored, 4.3 MB kept at nodes 0..n/2 beside an eager n-sample time
# kernel, 3.7 MB without it, 3.18 MB reading a cached (n/2+1)-node omega
# table in place of the n-node fftfreq and forming the factor exponent in
# one buffer; the bound sits between the last two.
BUILD_PEAK_BOUND = 3.3e6

# Traced peak of line_witness for pole 1, gamma = 1000, r = 4 (n = 2^18):
# 31.7 MB on all n nodes with a complex inverse, 19.1 MB on nodes 0..n/2
# with a real one, 15.7 MB without the n-node fftfreq and time nodes; the
# bound sits between the last two.
LINE_WITNESS_PEAK_BOUND = 16e6

# Traced arrays left alive by line_witness at the five default gammas (pole
# 1, r = 4), whose grids run from 2^13 to 2^18 samples: 9.05 MB while the
# per-grid caches kept four grids and n-node sign tables, 5.25 MB with
# (n/2+1)-node tables cached for one grid, that of gamma = 1000.
LINE_CACHE_RESIDUE_BOUND = 5.5e6

# Traced peak of one predict command at the README config (n = 2^16,
# gamma = 100, csv and json): 6.90 MB with x, y, yhat and khat alive
# together and each CSV stacked with the n time nodes as an (n, 2) table,
# 4.37 MB with one series alive at a time and every CSV formed a block at a
# time; the bound sits between.
PREDICT_PEAK_BOUND = 5.0e6

# Traced peak of writing one 2^16-sample series against its time nodes: 2.61
# MB with the n time nodes and an (n, 2) stack, 1.66 MB a block at a time,
# the formatter's scratch for one block of 4096 rows; the bound sits between.
WRITE_CSV_PEAK_BOUND = 2.2e6

# Traced peak of causality_defect at n = 2^16, gamma = 10: 2.43 MB with the
# n time nodes, their mask and fresh |x| and square arrays beside the real
# inverse, 1.05 MB splitting the t < 0 share at n/2 in place, where the
# inverse and its phased half spectrum were all that was alive, 0.79 MB
# with the inverse rotated by n/2 through an n/2-value temporary in place
# of the phased copy; the bound sits between the first two.
CAUSALITY_PEAK_BOUND = 1.2e6

# Traced peak of lemma_check for poles (0.5, 1, 2) at n = 2^16, gamma = 10:
# 5.08 MB with a fresh n-node omega array and the factor deviations stacked
# (3, ~n/2), 3.50 MB reading the cached |omega| and accumulating pole by
# pole, 0.47 MB taking the node sets in blocks of 4096 nodes; the bound sits
# between, below the 2.1 MB of four n/2-node complex arrays, the least that
# an unblocked evaluation with two accumulators needs.
LEMMA_PEAK_BOUND = 1.0e6

# The same at gamma = 1000, where the peak is the tail's V - 1 on a block:
# 0.527 MB forming each pole's step as one expression, 0.494 MB stepping in
# place with a block's (s, D) alive beside the next block's recurrence,
# 0.396 MB freeing them first; the bound sits between the last two.
LEMMA_STEP_PEAK_BOUND = 0.45e6

# Traced peak of one random phase draw at n = 2^16 (n/2 Philox words): 1.31
# MB through numpy.random (the phases, their complex product and its
# exponential), 2.23 MB computing the words here with the lanes and the
# round buffers alive through the exponential, 0.92 MB freeing them first,
# when the seven (2, n/8) round buffers are the peak; the bound sits below
# numpy's.
PHASE_DRAW_PEAK_BOUND = 1.3e6

# Traced peak of robustness_experiment at criterion 8's configuration (pole
# 0.01, q = 5, c = 1, r = 0.6, seed 424242, gamma = 100, nu = 0.01, 0.05,
# 0.1) on the default grid: 6.36 MB with the gain, the clean channel and the
# noise channel each formed at all n/2+1 nodes beside the noisy sum, 4.79 MB
# taking the gain on its support and every channel in one workspace (5.31
# MB at gamma = 10, where the support is every node); the bound sits between.
ROBUSTNESS_PEAK_BOUND = 5.5e6


def _traced_peak(fn):
    """``fn()`` and the peak bytes it allocated while tracing ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_peak_stays_under_twice_the_samples():
    make_class_ensemble(DEFAULT_CLASS, CFG, 1)[0]  # per-grid caches outside the trace
    ensemble, peak = _traced_peak(
        lambda: list(make_class_ensemble(DEFAULT_CLASS, CFG, DEFAULT_ENSEMBLE_SIZE))
    )
    samples = sum(x.samples.nbytes for x in ensemble)
    # the stacked projection rounds peaked at about 4x the samples
    assert peak < 2 * samples, (peak, samples)


def test_sweep_peak_above_inputs_is_bounded():
    ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, DEFAULT_ENSEMBLE_SIZE)

    def sweep(members):
        return gamma_sweep(DEFAULT_KERNEL, DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_R, members)

    sweep(ensemble[:1])  # per-grid caches outside the trace
    report, peak = _traced_peak(lambda: sweep(ensemble))
    assert len(report.rows) == len(DEFAULT_GAMMAS)
    assert peak < SWEEP_PEAK_BOUND, peak


def test_norms_workspace_holds_a_half_spectrum_and_its_inverse():
    grid = default_grid()
    work = experiments._workspace(grid)
    assert work.dtype == np.float64 and work.size == 2 * grid.n + 2
    X = experiments._member_half(make_class_ensemble(DEFAULT_CLASS, CFG, 1)[0], grid)
    K = transfer(DEFAULT_KERNEL, grid)
    experiments._norms(experiments._channel(K, X, work), grid, work)  # caches outside the trace
    half = experiments._channel(K, X, work)
    (l2, sup), peak = _traced_peak(lambda: experiments._norms(half, grid, work))
    assert (l2, sup) == experiments._norms(K * X, grid, experiments._workspace(grid))
    assert peak < NORMS_PEAK_BOUND, peak


def test_sweep_peak_does_not_grow_with_the_ensemble():
    ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, 2 * DEFAULT_ENSEMBLE_SIZE)

    def sweep(members):
        return gamma_sweep(DEFAULT_KERNEL, DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_R, members)

    sweep(ensemble[:1])  # per-grid caches outside the trace
    _, peak_10 = _traced_peak(lambda: sweep(ensemble[:DEFAULT_ENSEMBLE_SIZE]))
    _, peak_20 = _traced_peak(lambda: sweep(ensemble))
    assert abs(peak_20 - peak_10) < SWEEP_GROWTH_BOUND, (peak_10, peak_20)


def test_ensemble_holds_no_member():
    make_class_ensemble(DEFAULT_CLASS, CFG, 1)[0]  # per-grid caches outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, DEFAULT_ENSEMBLE_SIZE)
        alive = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ensemble) == DEFAULT_ENSEMBLE_SIZE
    assert alive < ENSEMBLE_ALIVE_BOUND, alive


def test_drawing_and_sweeping_peak_does_not_grow_with_the_ensemble():
    def draw_and_sweep(size):
        ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, size)
        return gamma_sweep(DEFAULT_KERNEL, DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_R, ensemble)

    draw_and_sweep(1)  # per-grid caches outside the trace
    _, peak_10 = _traced_peak(lambda: draw_and_sweep(DEFAULT_ENSEMBLE_SIZE))
    _, peak_20 = _traced_peak(lambda: draw_and_sweep(2 * DEFAULT_ENSEMBLE_SIZE))
    assert abs(peak_20 - peak_10) < SWEEP_GROWTH_BOUND, (peak_10, peak_20)


def test_log_weight_forms_its_result_in_one_buffer():
    omega = spectral._half_nodes(CFG.grid)[0]
    lw, peak = _traced_peak(lambda: log_weight(omega, DEFAULT_CLASS.q, DEFAULT_CLASS.c))
    assert lw.shape == omega.shape
    assert peak < LOG_WEIGHT_PEAK_BOUND, peak


def test_members_keep_real_samples_as_float64():
    ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, DEFAULT_ENSEMBLE_SIZE)
    assert sum(x.samples.nbytes for x in ensemble) == DEFAULT_ENSEMBLE_SIZE * CFG.grid.n * 8


# Bytes ``_member_half`` may allocate for a generated member: it returns the
# stored half spectrum; re-forming it from the samples took a complex
# n-point transform (1 MB at n = 2^16) and a 0.5 MB copy.
MEMBER_HALF_ALLOC_BOUND = 1e3


def test_member_half_reads_the_stored_spectrum():
    (x,) = make_class_ensemble(DEFAULT_CLASS, CFG, 1)
    X, peak = _traced_peak(lambda: experiments._member_half(x, CFG.grid))
    assert X is x.spectrum
    assert peak < MEMBER_HALF_ALLOC_BOUND, peak


def test_build_predictor_peak_is_bounded():
    grid = CFG.grid
    build_predictor(DEFAULT_KERNEL, 10.0, DEFAULT_R, grid)  # per-grid caches outside the trace
    pt, peak = _traced_peak(lambda: build_predictor(DEFAULT_KERNEL, 10.0, DEFAULT_R, grid))
    assert pt.khat_values.shape == (grid.n // 2 + 1,)
    assert peak < BUILD_PEAK_BOUND, peak


def test_line_witness_peak_is_bounded():
    line_witness(DEFAULT_KERNEL, 1000.0, DEFAULT_R)  # per-grid caches outside the trace
    w, peak = _traced_peak(lambda: line_witness(DEFAULT_KERNEL, 1000.0, DEFAULT_R))
    assert w.grid.n == 2**18
    assert peak < LINE_WITNESS_PEAK_BOUND, peak


def test_line_witness_grids_do_not_pile_up_in_the_caches():
    gc.collect()
    tracemalloc.start()
    try:
        for gamma in DEFAULT_GAMMAS:
            line_witness(DEFAULT_KERNEL, gamma, DEFAULT_R)
        gc.collect()
        residue = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert residue < LINE_CACHE_RESIDUE_BOUND, residue


def test_sweep_reuses_the_default_grid_tables():
    grid = CFG.grid
    ensemble = make_class_ensemble(DEFAULT_CLASS, CFG, 2)

    def tables():
        return (spectral._half_omegas(grid), *spectral._half_nodes(grid), signals._guard_window(grid))

    before = tables()
    gamma_sweep(DEFAULT_KERNEL, DEFAULT_CLASS, DEFAULT_GAMMAS, DEFAULT_R, ensemble)
    assert all(a is b for a, b in zip(before, tables()))


def test_phase_draw_peak_is_bounded():
    key = signals._generator(CFG, 0)
    _, peak = _traced_peak(lambda: signals._random_hermitian_phases(CFG.grid, key))
    assert peak < PHASE_DRAW_PEAK_BOUND, peak


def test_causality_defect_peak_is_bounded():
    pt = build_predictor(DEFAULT_KERNEL, 10.0, DEFAULT_R, CFG.grid)
    causality_defect(pt)  # per-grid caches outside the trace
    _, peak = _traced_peak(lambda: causality_defect(pt))
    assert peak < CAUSALITY_PEAK_BOUND, peak


def test_lemma_check_peak_is_bounded():
    kernel = AnticausalKernel((0.5, 1.0, 2.0))
    pt = build_predictor(kernel, 10.0, DEFAULT_R, CFG.grid)
    lemma_check(pt, DEFAULT_CLASS)  # per-grid caches outside the trace
    _, peak = _traced_peak(lambda: lemma_check(pt, DEFAULT_CLASS))
    assert peak < LEMMA_PEAK_BOUND, peak


def test_lemma_check_steps_v_minus_one_in_place():
    kernel = AnticausalKernel((0.5, 1.0, 2.0))
    pt = build_predictor(kernel, 1000.0, DEFAULT_R, CFG.grid)
    lemma_check(pt, DEFAULT_CLASS)  # per-grid caches outside the trace
    _, peak = _traced_peak(lambda: lemma_check(pt, DEFAULT_CLASS))
    assert peak < LEMMA_STEP_PEAK_BOUND, peak


def test_robustness_peak_is_bounded():
    kernel = AnticausalKernel((0.01,), (1.0,))
    cfg = GeneratorConfig(seed=424242, grid=default_grid())
    x0 = sample_class_member(DegeneracyClass(5.0, 1.0), cfg)

    def run():
        return robustness_experiment(kernel, 100.0, 0.6, x0, [0.01, 0.05, 0.1], cfg)

    run()  # per-grid caches outside the trace
    report, peak = _traced_peak(run)
    assert len(report.rows) == 3 and not report.saturated
    assert peak < ROBUSTNESS_PEAK_BOUND, peak


README_CONFIG = {
    "grid": {"n": 65536, "delta_t": 0.01},
    "kernel": {"poles": [1.0], "numerator": [1.0]},
    "class": {"q": 2.0, "c": 1.0},
    "predictor": {"r": 4.0, "gammas": [100]},
    "signal": {"kind": "class_member", "seed": 7},
}


def test_predict_command_peak_is_bounded(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    argv = ["predict", "--config", str(config), "--out", str(tmp_path / "out"), "--format", "csv,json"]
    assert cli.main(argv) == 0  # per-grid caches and formatter tables outside the trace
    code, peak = _traced_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak < PREDICT_PEAK_BOUND, peak


def test_write_csv_peak_is_a_block_of_scratch(tmp_path):
    grid = CFG.grid
    samples = np.random.default_rng(1).standard_normal(grid.n)
    path = str(tmp_path / "x.csv")
    cli._timeseries_csv(path, grid, samples, {"run": 1})  # formatter tables outside the trace
    _, peak = _traced_peak(lambda: cli._timeseries_csv(path, grid, samples, {"run": 1}))
    assert peak < WRITE_CSV_PEAK_BOUND, peak
