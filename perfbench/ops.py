"""The benchmark's workloads: op inputs from a seed, the op itself, output
checks and the digest the determinism probe compares.

Inputs are pure functions of ``(workload, seed, op index)`` and need no
third-party import, so the tests can check them cheaply.  Checks take plain
data and return a list of problems (empty when the output is correct); the
tests feed them corrupted outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

WORKLOADS = ("convergence_study", "witness_scan", "predict_cli")

# witness_scan cycles through these pole sets: predictor cost grows with the
# pole count, so the op mix varies the predictor layer's work
POLE_SETS = ((1.0,), (1.0, 2.0), (0.5, 1.0, 2.0))
WITNESS_R = 4.0
GAMMA_RANGE = (10.0, 1000.0)

SWEEP_FIELDS = (
    "gamma",
    "err_l2_abs",
    "err_l2_rel",
    "err_sup_abs",
    "err_sup_rel",
    "kappa_sup",
    "omega_threshold",
    "causality_defect",
    "i1",
    "i2",
    "lemma_pass_high_band",
    "lemma_pass_low_band",
    "lemma_tail_dev",
)
# acceptance criterion 4: each shrinks at least 10x from the first gamma to the last
SHRINKING_FIELDS = ("err_l2_rel", "err_sup_rel", "i1", "i2")
SWEEP_R = 4.0
ENSEMBLE_SIZE = 10

# the README configuration, one gamma; the signal seed is set per op
CLI_CONFIG = {
    "grid": {"n": 65536, "delta_t": 0.01},
    "kernel": {"poles": [1.0], "numerator": [1.0]},
    "class": {"q": 2.0, "c": 1.0},
    "predictor": {"r": 4.0, "gammas": [100]},
    "signal": {"kind": "class_member", "seed": 7},
    "output": {"directory": "results", "formats": ["csv", "json"]},
}
CLI_CSVS = ("x.csv", "y.csv", "yhat.csv", "khat.csv")
CLI_TIMEOUT_S = 120


def op_input(workload: str, seed: int, index: int) -> dict:
    """Inputs of op ``index`` of a run; the same arguments give the same inputs."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "convergence_study":
        return {"ensemble_seed": rng.getrandbits(32)}
    if workload == "witness_scan":
        lo, hi = GAMMA_RANGE
        gamma = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        return {"poles": POLE_SETS[index % len(POLE_SETS)], "gamma": gamma}
    if workload == "predict_cli":
        return {"signal_seed": rng.getrandbits(32)}
    raise ValueError(f"unknown workload {workload!r}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---- convergence_study ---------------------------------------------------


def check_sweep(rows) -> list:
    if not rows:
        return ["sweep has no rows"]
    problems = []
    for row in rows:
        for f in SWEEP_FIELDS:
            value = getattr(row, f)
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"gamma={row.gamma}: {f} is {value}")
        if row.lemma_pass_high_band is not True:
            problems.append(f"gamma={row.gamma}: lemma_pass_high_band is {row.lemma_pass_high_band}")
    first, last = rows[0], rows[-1]
    for f in SHRINKING_FIELDS:
        if not getattr(last, f) <= 0.1 * getattr(first, f):
            problems.append(f"{f} shrinks less than 10x: {getattr(first, f)} -> {getattr(last, f)}")
    return problems


class ConvergenceStudy:
    """Ensemble of 10 class members, then the five-gamma sweep (ROADMAP defaults)."""

    def __init__(self, sp):
        self.sp = sp
        self.grid = sp.experiments.default_grid()

    def run(self, inp):
        ex, sg = self.sp.experiments, self.sp.signals
        cfg = sg.GeneratorConfig(seed=inp["ensemble_seed"], grid=self.grid)
        ensemble = sg.make_class_ensemble(ex.DEFAULT_CLASS, cfg, ENSEMBLE_SIZE)
        report = ex.gamma_sweep(ex.DEFAULT_KERNEL, ex.DEFAULT_CLASS, ex.DEFAULT_GAMMAS, SWEEP_R, ensemble)
        return report.rows

    check = staticmethod(check_sweep)

    @staticmethod
    def digest(rows) -> str:
        return _digest(repr([[getattr(r, f) for f in SWEEP_FIELDS] for r in rows]))

    def cleanup(self, out):
        pass


# ---- witness_scan ----------------------------------------------------------


def check_witness(result: dict) -> list:
    problems = []
    for flag in ("pass_high_band", "pass_low_band"):
        if result[flag] is not True:
            problems.append(f"{flag} is {result[flag]}")
    cd = result["causality_defect"]
    if not 0.0 <= cd <= 1.0:
        problems.append(f"causality_defect {cd} outside [0, 1]")
    orth = result["orthogonality_residual"]
    if not (math.isfinite(orth) and orth >= 0.0):
        problems.append(f"orthogonality_residual {orth} is not finite and >= 0")
    return problems


class WitnessScan:
    """One predictor build and its three witnesses; no signal generation."""

    def __init__(self, sp):
        self.sp = sp
        self.grid = sp.experiments.default_grid()
        self.cls = sp.experiments.DEFAULT_CLASS
        self.kernels = {p: sp.kernels.AnticausalKernel(poles=p) for p in POLE_SETS}

    def run(self, inp):
        pr = self.sp.predictor
        pt = pr.build_predictor(self.kernels[inp["poles"]], inp["gamma"], WITNESS_R, self.grid)
        defect = pr.causality_defect(pt)
        residual = pr.orthogonality_residual(pt)
        lemma = pr.lemma_check(pt, self.cls)
        return {
            "causality_defect": defect,
            "orthogonality_residual": residual,
            "pass_high_band": lemma.pass_high_band,
            "pass_low_band": lemma.pass_low_band,
            "tail_dev_max": lemma.tail_dev_max,
            "kappa_sup": pt.kappa_sup,
        }

    check = staticmethod(check_witness)

    @staticmethod
    def digest(result) -> str:
        return _digest(repr(sorted(result.items())))

    def cleanup(self, out):
        pass


# ---- predict_cli -----------------------------------------------------------


def csv_data_rows(path: str) -> int:
    """Data rows of a report CSV: lines after the '#' metadata and the header."""
    with open(path, "rb") as fh:
        lines = [line for line in fh if not line.startswith(b"#")]
    return max(len(lines) - 1, 0)


def check_cli_output(returncode: int, outdir: str, n: int) -> list:
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    try:
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        for key in ("err_l2", "err_sup"):
            value = summary[key]
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                problems.append(f"summary.json {key} is {value!r}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"summary.json unreadable: {exc!r}")
    for name in CLI_CSVS:
        path = os.path.join(outdir, name)
        rows = csv_data_rows(path) if os.path.isfile(path) else None
        if rows != n:
            problems.append(f"{name} has {rows} data rows, expected {n}")
    return problems


class PredictCli:
    """``specpredict predict`` as a fresh process per op, writing csv+json.

    The child inherits the worker's environment, whose PYTHONPATH leads to
    the checkout's ``src/``.

    :meth:`set_traced` switches ops to the launcher, which installs the span
    wrappers inside the child; ``last_spans`` then holds the child's spans.
    """

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(CLI_CONFIG, fh)
        self.traced = False
        self.count = 0
        self.last_spans = None

    def set_traced(self, on: bool) -> None:
        self.traced = on

    def run(self, inp):
        self.count += 1
        outdir = os.path.join(self.workdir, f"op{self.count}")
        args = [
            "predict",
            "--config", self.config_path,
            "--out", outdir,
            "--format", "csv,json",
            "--set", f"signal.seed={inp['signal_seed']}",
        ]
        if self.traced:
            spans_path = outdir + ".spans.json"
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            cmd = [sys.executable, launcher, spans_path] + args
        else:
            cmd = [sys.executable, "-m", "specpredict.cli"] + args
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
        )
        process_ms = 1e3 * (time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if self.traced:
            with open(spans_path, encoding="utf-8") as fh:
                self.last_spans = json.load(fh)
            self.last_spans["process_ms"] = process_ms
            os.remove(spans_path)
        return {"returncode": proc.returncode, "outdir": outdir}

    def check(self, out) -> list:
        return check_cli_output(out["returncode"], out["outdir"], CLI_CONFIG["grid"]["n"])

    @staticmethod
    def digest(out) -> str:
        files = sorted(os.listdir(out["outdir"]))
        h = hashlib.sha256()
        for name in files:
            h.update(name.encode())
            with open(os.path.join(out["outdir"], name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
        return h.hexdigest()

    def cleanup(self, out):
        shutil.rmtree(out["outdir"], ignore_errors=True)


def make(workload: str, root: str, workdir: str):
    """Set up a workload: import the library (in-process ones) and build inputs."""
    if workload == "predict_cli":
        return PredictCli(root, workdir)
    import specpredict as sp  # the package imports every in-process layer module

    if workload == "convergence_study":
        return ConvergenceStudy(sp)
    if workload == "witness_scan":
        return WitnessScan(sp)
    raise ValueError(f"unknown workload {workload!r}")
