import ast
import copy
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import specpredict
from specpredict import (
    AnticausalKernel,
    DegeneracyClass,
    GeneratorConfig,
    build_predictor,
    counterexample_experiment,
    find_gamma0,
    gamma_sweep,
    lemma_check,
    make_class_ensemble,
    make_grid,
    nonpredictability_demo,
    norm,
    prediction_error,
    robustness_experiment,
    sample_bandlimited,
    sample_class_member,
)
from specpredict import cli, experiments
from specpredict.cli import main
from specpredict.experiments import _require_admissible
from specpredict.spectral import irfft_rows

GRID_SMALL = {"n": 4096, "delta_t": 0.02}


def base_config(**sections):
    config = {
        "grid": dict(GRID_SMALL),
        "kernel": {"poles": [1.0], "numerator": [1.0]},
        "class": {"q": 2.0, "c": 1.0},
        "predictor": {"r": 4.0, "gammas": [10.0]},
        "signal": {"kind": "class_member", "seed": 7},
    }
    config.update(sections)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def as_json(report):
    """``report`` as a JSON report holds it: its ``dataclasses.asdict``, round-tripped."""
    return json.loads(json.dumps(dataclasses.asdict(report)))


def run(tmp_path, command, config, out="out", extra=()):
    cfg_path = write_config(tmp_path, config)
    outdir = tmp_path / out
    return main([command, "--config", cfg_path, "--out", str(outdir), *extra]), outdir


class TestPredictCommand:
    def test_minimal_config_writes_artifacts(self, tmp_path):
        code, outdir = run(tmp_path, "predict", base_config())
        assert code == 0
        for name in ("x.csv", "y.csv", "yhat.csv", "khat.csv", "summary.json"):
            assert (outdir / name).exists()
        summary = json.loads((outdir / "summary.json").read_text())
        for key in ("err_l2", "err_sup", "kappa_sup", "causality_defect"):
            assert key in summary
        # resolved config embedded in every artifact
        head = (outdir / "x.csv").read_text().splitlines()[0]
        assert head.startswith("#")
        assert "delta_t" in head and "Philox" in head

    def test_inadmissible_r_exits_2_citing_hypothesis(self, tmp_path, capsys):
        config = base_config(predictor={"r": 2.0, "gammas": [10.0]})
        code, _ = run(tmp_path, "predict", config)
        assert code == 2
        assert "r > 2/(q-1)" in capsys.readouterr().err

    def test_multiple_gammas_rejected(self, tmp_path):
        config = base_config(predictor={"r": 4.0, "gammas": [10.0, 30.0]})
        code, _ = run(tmp_path, "predict", config)
        assert code == 2

    # generated spectra are flat under the envelope: no profile or sigma is
    # settable; a kernel is its poles and numerator, with no zeros
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("predictor", "sharpness", 3),
            ("signal", "profile", "flat"),
            ("signal", "sigma", 1.5),
            ("kernel", "zeros", []),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key, value):
        config = base_config()
        config[section][key] = value
        code, outdir = run(tmp_path, "predict", config)
        assert code == 2
        assert capsys.readouterr().err == f"config error: unknown key: {section}.{key}\n"
        assert not outdir.exists()

    def test_unwritable_out_is_an_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code, _ = run(tmp_path, "gen-signal", base_config(), out="file/out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and "file" in err
        assert blocker.read_text() == "not a directory"

    def test_grid_above_cap_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        def no_signal(*args):
            raise AssertionError("a signal was generated on an uncapped grid")

        # were the grid accepted, predict would go on to draw its signal
        monkeypatch.setattr("specpredict.cli._signal_from_config", no_signal)
        extra = ("--set", "grid.n=17179869184")
        code, outdir = run(tmp_path, "predict", base_config(), extra=extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: grid: sample count must be at most")
        assert not (outdir / "summary.json").exists()

    def test_bad_grid_rejected(self, tmp_path):
        config = base_config(grid={"n": 1000, "delta_t": 0.02})
        code, _ = run(tmp_path, "predict", config)
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        config = base_config()
        code1, out1 = run(tmp_path, "predict", config, out="out1")
        code2, out2 = run(tmp_path, "predict", config, out="out2")
        assert code1 == code2 == 0
        for name in ("x.csv", "y.csv", "yhat.csv", "khat.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csvs_match_per_value_formatting(self, tmp_path):
        grid = make_grid(1024, 0.05)
        config = base_config(grid={"n": grid.n, "delta_t": grid.delta_t})
        code, outdir = run(tmp_path, "predict", config)
        assert code == 0
        cls = DegeneracyClass(2.0, 1.0)
        x = sample_class_member(cls, GeneratorConfig(seed=7, grid=grid))
        pt = build_predictor(AnticausalKernel((1.0,), (1.0,)), 10.0, 4.0, grid)
        X = x.spectrum
        expected = {
            "x.csv": x.samples.real,
            "y.csv": irfft_rows(pt.k_values * X, grid),
            "yhat.csv": irfft_rows(pt.khat_values * X, grid),
            "khat.csv": irfft_rows(pt.khat_values, grid),
        }
        for name, samples in expected.items():
            rows = (outdir / name).read_text().splitlines()[2:]
            assert rows == [f"{t:.16e},{v:.16e}" for t, v in zip(grid.times(), samples)], name

    @pytest.mark.parametrize("gamma", [10.0, 100.0])
    def test_summary_errors_are_prediction_error(self, tmp_path, gamma):
        # the summary's error figures are the library's, exactly; at gamma =
        # 100 the error channel is all zero and is not transformed
        config = base_config(predictor={"r": 4.0, "gammas": [gamma]})
        code, outdir = run(tmp_path, "predict", config, extra=("--format", "json"))
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        grid = make_grid(GRID_SMALL["n"], GRID_SMALL["delta_t"])
        x = sample_class_member(DegeneracyClass(2.0, 1.0), GeneratorConfig(seed=7, grid=grid))
        pt = build_predictor(AnticausalKernel((1.0,), (1.0,)), gamma, 4.0, grid)
        got = tuple(summary[key] for key in ("err_l2", "err_l2_rel", "err_sup", "err_sup_rel"))
        assert got == dataclasses.astuple(prediction_error(pt, x))
        assert (got[0] == 0.0) == (gamma == 100.0)

    @pytest.mark.parametrize("formats, inverses", [("json", 5), ("csv,json", 8)])
    def test_forms_yhat_only_for_its_csv(self, tmp_path, monkeypatch, formats, inverses):
        # the generator's two projection rounds, prediction_error's target
        # and error channel, and the time kernel of causality_defect; csv
        # adds y, x and yhat, and its khat.csv is the kernel causality_defect
        # reads
        calls = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        code, _ = run(tmp_path, "predict", base_config(), extra=("--format", formats))
        assert code == 0 and len(calls) == inverses

    def test_loads_neither_numpy_random_nor_openssl(self, tmp_path):
        # signals computes the Philox stream itself; numpy.random would bring
        # in OpenSSL's libcrypto through secrets, hmac and _hashlib
        argv = ["predict", "--config", write_config(tmp_path, base_config()), "--out", str(tmp_path / "out")]
        code = (
            "import sys\n"
            "from specpredict.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print([m for m in ('numpy.random', '_hashlib') if m in sys.modules])"
        )
        src = os.path.dirname(os.path.dirname(specpredict.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_saturated_predictor_warns(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "predict", base_config())
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["saturated"] is True
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: 1 of 4096 predictor nodes saturated; "
            "khat.csv and causality_defect read clamped values"
        ]

    def test_saturated_count_covers_both_signs_of_omega(self, tmp_path, capsys):
        # node 0 and the pair at +-delta_omega saturate: 3 of the n grid nodes
        config = base_config(
            grid={"n": 4096, "delta_t": 0.01},
            kernel={"poles": [5.0], "numerator": [1.0]},
            predictor={"r": 0.6, "gammas": [1000.0]},
        )
        config["class"] = {"q": 5.0, "c": 1.0}
        code, _ = run(tmp_path, "predict", config)
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 3 of 4096 predictor nodes saturated; "
            "khat.csv and causality_defect read clamped values"
        ]

    def test_json_only_warning_names_no_csv(self, tmp_path, capsys):
        # khat.csv is not written, so the warning does not cite it
        code, outdir = run(tmp_path, "predict", base_config(), extra=("--format", "json"))
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["summary.json"]
        assert capsys.readouterr().err.splitlines() == [
            "warning: 1 of 4096 predictor nodes saturated; causality_defect reads clamped values"
        ]

    def test_unsaturated_predictor_is_silent(self, tmp_path, capsys):
        config = base_config(
            kernel={"poles": [0.01], "numerator": [1.0]},
            predictor={"r": 0.6, "gammas": [30.0]},
        )
        config["class"] = {"q": 5.0, "c": 1.0}
        code, outdir = run(tmp_path, "predict", config)
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["saturated"] is False
        assert capsys.readouterr().err == ""

    def test_set_override(self, tmp_path):
        code, outdir = run(
            tmp_path, "predict", base_config(), extra=("--set", "predictor.gammas=[30.0]")
        )
        assert code == 0
        meta = json.loads((outdir / "summary.json").read_text())
        assert meta["metadata"]["config"]["predictor"]["gammas"] == [30.0]


class TestSweepCommand:
    def test_writes_reports_and_svg(self, tmp_path):
        config = base_config(
            predictor={"r": 4.0, "gammas": [10.0, 30.0]},
            ensemble={"size": 2, "seed": 2026},
            output={"directory": ".", "formats": ["csv", "json", "svg"]},
        )
        code, outdir = run(tmp_path, "sweep", config)
        assert code == 0
        assert (outdir / "sweep.csv").exists()
        assert (outdir / "sweep.json").exists()
        assert (outdir / "sweep.svg").exists()
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "gamma"
        assert len(lines) == 2 + 2  # metadata, header, two rows
        report = json.loads((outdir / "sweep.json").read_text())
        del report["metadata"]
        grid, cls = make_grid(**GRID_SMALL), DegeneracyClass(2.0, 1.0)
        ensemble = make_class_ensemble(cls, GeneratorConfig(seed=2026, grid=grid), 2)
        want = gamma_sweep(AnticausalKernel((1.0,)), cls, (10.0, 30.0), 4.0, ensemble, metadata={"seed": 2026})
        assert report == as_json(want)

    def test_empty_gammas_exit_2(self, tmp_path):
        config = base_config(
            predictor={"r": 4.0, "gammas": []}, ensemble={"size": 2, "seed": 1}
        )
        code, _ = run(tmp_path, "sweep", config)
        assert code == 2

    def test_missing_section_exit_2(self, tmp_path):
        config = base_config()  # no ensemble
        code, _ = run(tmp_path, "sweep", config)
        assert code == 2

    def test_member_seeds_beyond_64_bits_exit_2(self, tmp_path, capsys):
        config = base_config(
            predictor={"r": 4.0, "gammas": [10.0]}, ensemble={"size": 2, "seed": 2**64 - 1}
        )
        code, _ = run(tmp_path, "sweep", config)
        assert code == 2
        assert "member seeds" in capsys.readouterr().err


class TestLemmaCommand:
    def test_reports_flags_and_gamma0(self, tmp_path):
        config = base_config(
            predictor={"r": 4.0, "gammas": [10.0, 100.0]},
            lemma={"omega_floor": 0.5, "gamma0_bracket": [0.5, 500.0]},
        )
        code, outdir = run(tmp_path, "lemma", config)
        assert code == 0
        report = json.loads((outdir / "lemma.json").read_text())
        assert report["pass_high_band"] is True
        assert report["pass_low_band"] is True
        assert math.isfinite(report["gamma0"])
        assert report["tail_dev_strictly_decreasing"] is True

    def test_unsorted_gammas_report_in_ascending_order(self, tmp_path):
        def report(gammas, out):
            config = base_config(predictor={"r": 4.0, "gammas": gammas}, lemma={"gamma0_bracket": [0.5, 500.0]})
            code, outdir = run(tmp_path, "lemma", config, out=out)
            assert code == 0
            summary = json.loads((outdir / "lemma.json").read_text())
            del summary["metadata"]
            return summary, (outdir / "lemma.csv").read_text().splitlines()[1:]

        unsorted = report([30, 10], "unsorted")
        assert [row["gamma"] for row in unsorted[0]["rows"]] == [10.0, 30.0]
        assert unsorted[0]["tail_dev_strictly_decreasing"] is True
        assert unsorted == report([10, 30], "sorted")

    def test_overflowed_tail_reads_inf(self, tmp_path):
        # a floor of 0.01 reaches the nodes where a factor overflows at gamma = 100
        config = base_config(
            grid={"n": 2**16, "delta_t": 0.01},
            **{"class": {"q": 5.0, "c": 1.0}},
            predictor={"r": 0.6, "gammas": [10.0, 100.0]},
            lemma={"omega_floor": 0.01},
        )
        code, outdir = run(tmp_path, "lemma", config)
        assert code == 0
        devs = [row["tail_dev_max"] for row in json.loads((outdir / "lemma.json").read_text())["rows"]]
        assert math.isfinite(devs[0]) and devs[1] == math.inf
        rows = [line for line in (outdir / "lemma.csv").read_text().splitlines() if line[0].isdigit()]
        assert [row.split(",")[4] for row in rows][1] == "inf"

    def test_bound_failing_at_the_bracket_ceiling_exits_3(self, tmp_path, capsys):
        # at r = 0.5 the low-band bound of X(2, 1e-6) fails at gamma 5: no
        # threshold lies in the bracket, a numerical failure, not a config error
        config = base_config(
            grid={"n": 4096, "delta_t": 0.05},
            **{"class": {"q": 2.0, "c": 1e-6}},
            predictor={"r": 0.5, "gammas": [10.0]},
            lemma={"gamma0_bracket": [1, 5]},
        )
        code, outdir = run(tmp_path, "lemma", config)
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: low-band bound fails at the bracket ceiling 5.0\n"
        assert not outdir.exists()

    def test_omega_floor_is_checked_before_gamma0_is_sought(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_gamma0", lambda *a, **k: pytest.fail("gamma0 sought"))
        code, outdir = run_full(tmp_path, "lemma", "never_made", extra=("--set", "lemma.omega_floor=NaN"))
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: lemma: omega_floor must be a finite real number in (0.0, 157.07963267948966), got nan\n"
        )
        assert not outdir.exists()


class TestRobustnessCommand:
    def config(self):
        return {
            "grid": {"n": 4096, "delta_t": 0.02},
            "kernel": {"poles": [0.01], "numerator": [1.0]},
            "class": {"q": 5.0, "c": 1.0},
            "predictor": {"r": 0.6, "gammas": [30.0]},
            "signal": {"kind": "class_member", "seed": 9},
            "noise": {"nus": [0.0, 0.05], "seed": 11, "band": None},
        }

    def test_rows_and_bound(self, tmp_path):
        code, outdir = run(tmp_path, "robustness", self.config())
        assert code == 0
        report = json.loads((outdir / "robustness.json").read_text())
        assert report["all_bounds_hold"] is True
        rows = report["per_gamma"][0]["rows"]
        assert rows[0]["nu"] == 0.0
        assert rows[0]["err_sup_noisy"] == report["per_gamma"][0]["eps_clean"]
        grid, cls = make_grid(**GRID_SMALL), DegeneracyClass(5.0, 1.0)
        x0 = sample_class_member(cls, GeneratorConfig(seed=9, grid=grid))
        cfg = GeneratorConfig(seed=11, grid=grid)
        want = robustness_experiment(AnticausalKernel((0.01,)), 30.0, 0.6, x0, [0.0, 0.05], cfg)
        assert report["per_gamma"] == [as_json(want)]

    def test_unsorted_gammas_report_in_ascending_order(self, tmp_path):
        def report(gammas, out):
            config = self.config()
            config["predictor"]["gammas"] = gammas
            code, outdir = run(tmp_path, "robustness", config, out=out)
            assert code == 0
            summary = json.loads((outdir / "robustness.json").read_text())
            del summary["metadata"]
            return summary, (outdir / "robustness.csv").read_text().splitlines()[1:]

        unsorted = report([100, 30], "unsorted")
        assert [rep["gamma"] for rep in unsorted[0]["per_gamma"]] == [30.0, 100.0]
        assert unsorted == report([30, 100], "sorted")

    def test_saturation_exits_3(self, tmp_path, capsys):
        config = self.config()
        config["kernel"] = {"poles": [1.0], "numerator": [1.0]}
        config["class"] = {"q": 2.0, "c": 1.0}
        config["predictor"] = {"r": 4.0, "gammas": [100.0]}
        code, outdir = run(tmp_path, "robustness", config)
        assert code == 3
        assert "saturation" in capsys.readouterr().err
        # the report is still written for inspection
        assert (outdir / "robustness.json").exists()

    def test_saturation_reads_one_line(self, tmp_path, capsys):
        config = self.config()
        config["kernel"] = {"poles": [1.0], "numerator": [1.0]}
        config["class"] = {"q": 2.0, "c": 1.0}
        config["predictor"] = {"r": 4.0, "gammas": [100.0]}
        code, _ = run(tmp_path, "robustness", config)
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: overflow saturation reached the gain bound check\n"

    def test_nan_noise_level_exits_2(self, tmp_path, capsys):
        code, outdir = run(
            tmp_path, "robustness", self.config(), extra=("--set", "noise.nus=[0.0, NaN]")
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: noise intensity must be a finite real number in [0.0, inf), got nan\n"
        )
        assert not (outdir / "robustness.json").exists()

    def test_noise_band_without_a_node_exits_2(self, tmp_path, capsys):
        # no node of the 4096-node, delta_t = 0.01 grid (delta_omega ~ 0.153)
        # lies in [1.0, 1.05]
        extra = ("--set", "grid.delta_t=0.01", "--set", "noise.band=[1.0, 1.05]")
        code, outdir = run(tmp_path, "robustness", self.config(), extra=extra)
        assert code == 2
        assert capsys.readouterr().err == "config error: noise band (1.0, 1.05) holds no node of the grid\n"
        assert not (outdir / "robustness.json").exists()


class TestCounterexampleCommand:
    def test_schema_and_flags(self, tmp_path):
        config = {
            "grid": {"n": 4096, "delta_t": 0.02},
            "kernel": {"poles": [1.0], "numerator": [1.0]},
            "predictor": {"r": 4.0, "gammas": [10.0, 100.0]},
            "counterexample": {"a": 0.5, "seed": 5},
        }
        code, outdir = run(tmp_path, "counterexample", config)
        assert code == 0
        lines = (outdir / "counterexample.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[:6] == ["gamma", "e1", "e2", "identity_lhs", "identity_rhs", "e1_sq_log"]
        report = json.loads((outdir / "counterexample.json").read_text())
        assert report["no_gamma_predicts_both"] is True
        del report["metadata"]
        cfg = GeneratorConfig(seed=5, grid=make_grid(**GRID_SMALL))
        assert report == as_json(counterexample_experiment(0.5, AnticausalKernel((1.0,)), (10.0, 100.0), cfg, r=4.0))


class TestNegativeDemoCommand:
    def test_report_labelled_illustrative(self, tmp_path):
        config = {
            "grid": {"n": 16384, "delta_t": 0.04},
            "kernel": {"poles": [0.5], "numerator": [1.0]},
            "class": {"q": 2.0, "c": 1.0},
            "predictor": {"r": 2.5, "gammas": [10.0, 30.0]},
            "negative": {"q_bad": 0.5, "seed": 77, "size": 2},
        }
        code, outdir = run(tmp_path, "demo-negative", config)
        assert code == 0
        report = json.loads((outdir / "negative.json").read_text())
        assert report["label"] == "ILLUSTRATIVE"
        del report["metadata"]
        cfg = GeneratorConfig(seed=77, grid=make_grid(16384, 0.04))
        want = nonpredictability_demo(0.5, 1.0, AnticausalKernel((0.5,)), (10.0, 30.0), cfg, 2.5, size=2)
        assert report == as_json(want)

    def test_q_bad_one_rejected(self, tmp_path, capsys):
        config = {
            "grid": {"n": 4096, "delta_t": 0.02},
            "kernel": {"poles": [0.5], "numerator": [1.0]},
            "class": {"q": 2.0, "c": 1.0},
            "predictor": {"r": 2.5, "gammas": [10.0]},
            "negative": {"q_bad": 1.0, "seed": 1, "size": 1},
        }
        code, outdir = run(tmp_path, "demo-negative", config)
        assert code == 2
        assert capsys.readouterr().err == "config error: q_bad must be a finite real number in (0.0, 1.0), got 1.0\n"
        assert not outdir.exists()


class TestGenSignalCommand:
    def test_writes_signal_and_spectrum(self, tmp_path):
        code, outdir = run(tmp_path, "gen-signal", base_config())
        assert code == 0
        assert (outdir / "signal.csv").exists()
        sp = (outdir / "signal_spectrum.csv").read_text().splitlines()
        assert sp[1] == "omega,re,im"
        # centered reporting order: first omega is -omega_max
        first = float(sp[2].split(",")[0])
        assert first == pytest.approx(-math.pi / GRID_SMALL["delta_t"])

    @pytest.mark.parametrize(
        "signal",
        [
            {"kind": "class_member", "seed": 7},
            {"kind": "bandlimited", "seed": 3, "omega_bar": 2.0},
        ],
    )
    def test_csvs_match_per_value_formatting(self, tmp_path, signal):
        grid = make_grid(1024, 0.05)
        config = base_config(grid={"n": grid.n, "delta_t": grid.delta_t}, signal=signal)
        code, outdir = run(tmp_path, "gen-signal", config)
        assert code == 0
        cfg = GeneratorConfig(seed=signal["seed"], grid=grid)
        if signal["kind"] == "class_member":
            x = sample_class_member(DegeneracyClass(2.0, 1.0), cfg)
        else:
            x = sample_bandlimited(signal["omega_bar"], cfg)
        rows = (outdir / "signal.csv").read_text().splitlines()[2:]
        assert rows == [f"{t:.16e},{v:.16e}" for t, v in zip(grid.times(), x.samples)]
        # all n nodes in centered order, node n-k the conjugate of node k
        half = x.spectrum
        full = np.fft.fftshift(np.concatenate((half, np.conj(half[-2:0:-1]))))
        rows = (outdir / "signal_spectrum.csv").read_text().splitlines()[2:]
        om = np.fft.fftshift(grid.omegas())
        assert rows == [f"{w:.16e},{v.real:.16e},{v.imag:.16e}" for w, v in zip(om, full)]

    def test_inverts_the_spectrum_once(self, tmp_path, monkeypatch):
        # the generator's two projection rounds, then one inverse of the
        # stored spectrum for signal.csv and both norms
        calls = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        code, outdir = run(tmp_path, "gen-signal", base_config())
        assert code == 0 and len(calls) == 3
        x = sample_class_member(DegeneracyClass(2.0, 1.0), GeneratorConfig(seed=7, grid=make_grid(**GRID_SMALL)))
        summary = json.loads((outdir / "signal.json").read_text())
        assert (summary["l2"], summary["sup"]) == (norm(x, 2), norm(x, math.inf))

    def test_bandlimited_kind(self, tmp_path):
        config = base_config(
            signal={"kind": "bandlimited", "seed": 3, "omega_bar": 2.0}
        )
        code, outdir = run(tmp_path, "gen-signal", config)
        assert code == 0

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert main(["gen-signal", "--config", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("I/O error: ")

    def test_class_member_without_class_exits_2(self, tmp_path, capsys):
        config = base_config()
        del config["class"]
        code, outdir = run(tmp_path, "gen-signal", config)
        assert code == 2
        assert capsys.readouterr().err == "config error: class_member signals require the 'class' section\n"
        assert not list(outdir.glob("*"))


class TestMalformedConfigWithOverrides:
    @pytest.mark.parametrize("config", [{"grid": 5}, []], ids=["section", "root"])
    def test_exit_2_with_config_error(self, tmp_path, capsys, config):
        code, _ = run(tmp_path, "predict", config, extra=("--set", "grid.n=8"))
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("root", [[], "grid", 5, None])
    @pytest.mark.parametrize("extra", [(), ("--set", "grid.n=8")], ids=["plain", "set"])
    def test_non_object_root_reads_one_line(self, tmp_path, capsys, root, extra):
        code, outdir = run(tmp_path, "predict", root, extra=extra)
        assert code == 2
        assert capsys.readouterr().err == "config error: config root must be a JSON object\n"
        assert not outdir.exists()


class TestListElementTypes:
    @pytest.mark.parametrize(
        "override", ["kernel.poles=[[1]]", "predictor.gammas=[null]", "noise.nus=[null]"]
    )
    def test_bad_element_exits_2(self, tmp_path, capsys, override):
        code, _ = run(tmp_path, "predict", base_config(), extra=("--set", override))
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("bracket", ["[0.5]", "[]", "[0.5, 2000, 7]"])
    def test_lemma_bracket_must_be_two_numbers(self, tmp_path, capsys, bracket):
        extra = ("--set", f"lemma.gamma0_bracket={bracket}")
        code, outdir = run(tmp_path, "lemma", base_config(), extra=extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: lemma: bracket must hold exactly two numbers")
        assert not (outdir / "lemma.json").exists()


# every section, on the 4,096-node grid; predict takes one gamma through --set
FULL_CONFIG = base_config(
    predictor={"r": 4.0, "gammas": [10.0, 30.0]},
    ensemble={"size": 2, "seed": 2026},
    noise={"nus": [0.0, 0.05], "seed": 11, "band": None},
    counterexample={"a": 0.5, "seed": 5},
    negative={"q_bad": 0.5, "seed": 77, "size": 2},
    lemma={"omega_floor": 0.5, "gamma0_bracket": [0.5, 500.0]},
    output={"directory": ".", "formats": ["csv", "json", "svg"]},
)
COMMANDS = ("predict", "sweep", "lemma", "robustness", "counterexample", "demo-negative", "gen-signal")


def run_full(tmp_path, command, out, extra=()):
    if command == "predict":
        extra = ("--set", "predictor.gammas=[30.0]", *extra)
    return run(tmp_path, command, FULL_CONFIG, out=out, extra=extra)


def _benchmark_sweep_fields():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "ops.py")
    spec = importlib.util.spec_from_file_location("perfbench_ops", path)
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    return ops.SWEEP_FIELDS


class TestReportSchemas:
    HEADERS = {
        ("sweep", "sweep.csv"): "gamma,err_l2_abs,err_l2_rel,err_sup_abs,err_sup_rel,kappa_sup,"
        "omega_threshold,causality_defect,i1,i2,lemma_pass_high_band,lemma_pass_low_band,"
        "lemma_tail_dev",
        ("lemma", "lemma.csv"): "gamma,omega_threshold,pass_positivity,pass_factor_dev,"
        "tail_dev_max,pass_low_band,low_band_nodes,low_band_margin",
        ("robustness", "robustness.csv"): "gamma,nu,err_sup_noisy,bound,holds,j0,j_eta",
        ("counterexample", "counterexample.csv"): "gamma,e1,e2,identity_lhs,identity_rhs,"
        "e1_sq_log,e2_sq_log,identity_lhs_log,identity_rhs_log,identity_rel_gap,"
        "identity_ok,floor_ok",
        ("demo-negative", "negative.csv"): "gamma,err_rel_slow,err_rel_reference",
    }

    @pytest.mark.parametrize("command,name", list(HEADERS))
    def test_csv_header(self, tmp_path, command, name):
        _, outdir = run_full(tmp_path, command, "out")
        lines = (outdir / name).read_text().splitlines()
        assert lines[1] == self.HEADERS[command, name]
        # one data row per gamma (robustness: per gamma and noise level)
        per_gamma = len(FULL_CONFIG["noise"]["nus"]) if command == "robustness" else 1
        assert len(lines) == 2 + per_gamma * len(FULL_CONFIG["predictor"]["gammas"])

    def test_sweep_header_is_what_the_benchmark_reads(self):
        assert self.HEADERS["sweep", "sweep.csv"].split(",") == list(_benchmark_sweep_fields())


class TestCsvFields:
    @pytest.mark.parametrize("command", ["predict", "gen-signal"])
    def test_every_field_prints_as_per_value_format(self, tmp_path, command):
        code, outdir = run_full(tmp_path, command, "out")
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir() if p.suffix == ".csv")
        assert names
        for name in names:
            lines = (outdir / name).read_text().splitlines()[2:]
            assert len(lines) == GRID_SMALL["n"], name
            for line in lines:
                for field in line.split(","):
                    assert "%.16e" % float(field) == field, (name, field)


class TestRerunByteIdentity:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_reports_exit_code_and_stderr(self, tmp_path, capsys, command):
        code1, out1 = run_full(tmp_path, command, "out1")
        err1 = capsys.readouterr().err
        code2, out2 = run_full(tmp_path, command, "out2")
        assert (code1, err1) == (code2, capsys.readouterr().err)
        names = sorted(p.name for p in out1.iterdir())
        assert names and names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# (exit code, sha256 of every file written) of each command at FULL_CONFIG
# under --format csv,json,svg, taken before robustness and counterexample
# read their error gain from _error_gain; robustness saturates at these
# gammas and exits 3 after its reports.  sweep's and lemma's were re-taken
# when v_minus_one became one recurrence, which moved the gamma-10 tail
# deviation (lemma_tail_dev, tail_dev_max) from 4.5557718599384103e-05 to
# 4.5557718599387444e-05.  counterexample's were re-taken when it read
# log|K_hat - K| from v_minus_one's scaled (s, D) at every node, which moved
# e2 and e2_sq_log only: gamma 10 e2 2.6908058205751258e-05 ->
# 2.6908058113735968e-05, gamma 30 e2 5.5424788893915053e-14 ->
# 5.541827796448862e-14
REPORT_DIGESTS = {
    "predict": (
        0,
        {
            "khat.csv": "5b404ca645d4e0ecea3891b0473f2db0ec110eff5a01446ff3ea5528e8d46d03",
            "summary.json": "7005356e4e59a02c37ecb296ca74c049d8fa3881baf0227aacd7441c9a3945c8",
            "x.csv": "c503542005e23562ac5ef6b12ea77c25286e0978150836a97d2d33160dc8f771",
            "y.csv": "13caf166aff1797ace04e4a392a595c50a915898f678db8f06f2fb0f017d7cf9",
            "yhat.csv": "ffbffe239fadf028b7d2810422c3527596e79aa6645f7ddaa0ed6995f8489c3c",
        },
    ),
    "sweep": (
        0,
        {
            "sweep.csv": "e637497de2c7bd45655615f5a7a61e10ffa23ba3cc06715aa29d9715a1a70bae",
            "sweep.json": "2bd198632e08f82f250d7a3fdc81004328b52472113838e9365968ead9377821",
            "sweep.svg": "4a24c49eedc932d7964e2ba8c7ec31eefb8d997a120307a4975a9c2bd1aed77c",
        },
    ),
    "lemma": (
        0,
        {
            "lemma.csv": "e760b4f360f84f3ad17bf0afde48d94650f8bd18f11a496ccf28527b9bb17f63",
            "lemma.json": "815ccf5d7c949f7b14cc1a11a1fbf3b111a28cc2e82807438dafd77c19630acb",
        },
    ),
    "robustness": (
        3,
        {
            "robustness.csv": "23fd7134660840c97b271b317bb5eaa50b2990029146350b9091ffbd931cc08c",
            "robustness.json": "1e8158fed92da69dcaea43febf98335eb8767b77d0ce31468aa459bc9c323647",
        },
    ),
    "counterexample": (
        0,
        {
            "counterexample.csv": "d00661f08d333bd11a82c3fed9105519696ca5e2c5dfa5fd8f4f269150262008",
            "counterexample.json": "f822eacb026eeea4edcf577541c4a22f576f31d52e4dbb8c36f0dc1d02c88cd7",
        },
    ),
    "demo-negative": (
        0,
        {
            "negative.csv": "646febfb3c42abc782837563499a5ac280005af083dd7d45ac0fa9539e268880",
            "negative.json": "8aa3c24ae9d494014e44f7dede58665204957741a39e245e8c26b1e185fc5bfc",
        },
    ),
    "gen-signal": (
        0,
        {
            "signal.csv": "24b5d4abf128f533e9327e58920aeec3a3ca4b2b58d80011daf487f8e8f1d7fa",
            "signal.json": "ba4350ed5b17d8d140f60c73d8a2b7cdf1f81d2f501df5c60f0bc296a6a56f3e",
            "signal_spectrum.csv": "fa39ea66649e61cd98b7313ed0e1e5d627098c8487ec9325f3db8d47083a18d9",
        },
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_report_bytes_and_exit_code_are_pinned(tmp_path, command):
    code, outdir = run_full(tmp_path, command, "out", extra=("--format", "csv,json,svg"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}
    assert (code, digests) == REPORT_DIGESTS[command]


class TestJsonAlwaysWritten:
    """``--format`` chooses the CSV and SVG files; every command writes its JSON report."""

    JSON = {
        "predict": "summary.json",
        "sweep": "sweep.json",
        "lemma": "lemma.json",
        "robustness": "robustness.json",
        "counterexample": "counterexample.json",
        "demo-negative": "negative.json",
        "gen-signal": "signal.json",
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_format_csv_writes_the_json_report(self, tmp_path, command):
        code, csv_only = run_full(tmp_path, command, "csv", extra=("--format", "csv"))
        # robustness saturates at these gammas and exits 3 after its reports
        assert code == (3 if command == "robustness" else 0)
        _, with_json = run_full(tmp_path, command, "csv_json", extra=("--format", "csv,json"))
        names = sorted(p.name for p in csv_only.iterdir())
        assert self.JSON[command] in names
        assert names == sorted(p.name for p in with_json.iterdir())
        for name in names:
            assert (csv_only / name).read_bytes() == (with_json / name).read_bytes(), name


class TestOutputDirectory:
    """The output directory is made only once the config is accepted."""

    @pytest.mark.parametrize(
        "override, message",
        [
            ("grid.n=7", "config error: grid: sample count must be a power of two >= 8, got 7"),
            ("noise.band=[1.0]", "config error: band must be two numbers (lo, hi)"),
            ("class.q=NaN", None),
            ("signal.seed=-1", None),
        ],
    )
    def test_rejected_config_makes_no_directory(self, tmp_path, capsys, override, message):
        code, outdir = run_full(tmp_path, "robustness", "never_made", extra=("--set", override))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if message is not None:
            assert err == message + "\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("out, directory", [(".", "."), ("given", "given"), (None, "from_config")])
    def test_out_whenever_given_names_the_directory(self, tmp_path, monkeypatch, out, directory):
        # --out . is the working directory, not a stand-in for output.directory
        monkeypatch.chdir(tmp_path)
        config = base_config(output={"directory": "from_config", "formats": ["json"]})
        extra = () if out is None else ("--out", out)
        assert main(["predict", "--config", write_config(tmp_path, config), *extra]) == 0
        assert sorted(p.name for p in tmp_path.rglob("summary.json")) == ["summary.json"]
        assert (tmp_path / directory / "summary.json").exists()

    def test_existing_directory_is_kept(self, tmp_path):
        outdir = tmp_path / "kept"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("mine")
        code, _ = run_full(tmp_path, "predict", "kept", extra=("--set", "grid.n=7"))
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "mine"


# the leaves each command cannot run without; omega_bar only for a bandlimited signal
_PREDICTION = ("grid.n", "grid.delta_t", "kernel.poles", "predictor.r", "predictor.gammas")
_CLASS = ("class.q", "class.c")
REQUIRED_LEAVES = {
    "predict": (*_PREDICTION, *_CLASS, "signal.omega_bar"),
    "sweep": (*_PREDICTION, *_CLASS),
    "lemma": (*_PREDICTION, *_CLASS),
    "robustness": (*_PREDICTION, *_CLASS, "signal.omega_bar", "noise.nus"),
    "counterexample": (*_PREDICTION, "counterexample.a"),
    "demo-negative": (*_PREDICTION, *_CLASS, "negative.q_bad"),
    "gen-signal": ("grid.n", "grid.delta_t", *_CLASS, "signal.omega_bar"),
}
BEYOND_FLOAT = "1" + "0" * 400


class TestRequiredLeaves:
    @pytest.mark.parametrize(
        "command, dotted", [(command, dotted) for command, leaves in REQUIRED_LEAVES.items() for dotted in leaves]
    )
    def test_missing_leaf_exits_2_naming_it(self, tmp_path, capsys, command, dotted):
        config = copy.deepcopy(FULL_CONFIG)
        config["predictor"]["gammas"] = [30.0] if command == "predict" else [10.0, 30.0]
        section, leaf = dotted.split(".")
        if section == "signal":
            config["signal"] = {"kind": "bandlimited", "seed": 3, "omega_bar": 2.0}
        del config[section][leaf]
        code, outdir = run(tmp_path, command, config, out="never_made")
        assert code == 2
        assert capsys.readouterr().err == f"config error: {dotted} is required\n"
        assert not outdir.exists()


class TestIntegersBeyondFloatRange:
    # command, leaf, its value with {} for the integer, the check that names it
    CASES = [
        ("robustness", "grid.delta_t", "{}", "grid: delta_t"),
        ("robustness", "kernel.poles", "[{}]", "kernel: pole"),
        ("robustness", "class.q", "{}", "class: q"),
        ("robustness", "predictor.gammas", "[10, {}]", "predictor: gamma"),
        ("robustness", "predictor.r", "{}", "predictor: r"),
        ("robustness", "noise.nus", "[{}]", "noise intensity"),
        ("lemma", "lemma.gamma0_bracket", "[0.5, {}]", "lemma: bracket hi"),
    ]

    @pytest.mark.parametrize(
        "command, override, check",
        [
            pytest.param(command, f"{leaf}={value.format(BEYOND_FLOAT)}", check, id=leaf)
            for command, leaf, value, check in CASES
        ],
    )
    def test_exit_2_naming_the_check(self, tmp_path, capsys, command, override, check):
        code, outdir = run_full(tmp_path, command, "never_made", extra=("--set", override))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {check} must be a finite real number in ")
        assert err.endswith(f", got {BEYOND_FLOAT}\n")
        assert not outdir.exists()


class TestAdmissibleR:
    """r > 2/(q-1) is checked once per command: by the library for sweep and
    demo-negative, by the CLI for predict and robustness, whose library
    calls take no class."""

    @pytest.mark.parametrize(
        "command, section",
        [("predict", "predictor: "), ("robustness", "predictor: "), ("sweep", ""), ("demo-negative", "")],
    )
    def test_boundary_r_exits_2_before_any_signal(self, tmp_path, capsys, monkeypatch, command, section):
        def no_signal(*args):
            raise AssertionError("a signal was drawn for an inadmissible r")

        monkeypatch.setattr("specpredict.cli._signal_from_config", no_signal)
        with pytest.raises(ValueError) as info:
            _require_admissible(2.0, DegeneracyClass(2.0, 1.0))
        code, outdir = run_full(tmp_path, command, "never_made", extra=("--set", "predictor.r=2.0"))
        assert code == 2
        assert capsys.readouterr().err == f"config error: {section}{info.value}\n"
        assert not outdir.exists()


def test_cli_checks_admissibility_only_where_the_library_cannot():
    # sweep and demo-negative pass the class to gamma_sweep and
    # nonpredictability_demo, which check r themselves
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id == "_require_admissible"
    }
    assert readers == {"_cmd_predict", "_cmd_robustness"}


def test_only_main_gives_the_exit_code():
    # the commands return nothing and raise on failure; main maps the
    # exception to 2 or 3
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(commands) == len(cli._COMMANDS)
    returns = [
        (func.name, ast.unparse(node))
        for func in commands
        for node in ast.walk(func)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    assert returns == []


def test_cli_converts_and_checks_no_value_itself():
    # every config value goes to the library rule that owns it, so the CLI
    # holds no float() cast and no finiteness check of its own
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not calls & {"float", "math.isfinite"}


def _readers(test) -> set:
    """The top-level functions of cli.py holding a node that passes ``test``."""
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    return {getattr(top, "name", None) for top in tree.body for node in ast.walk(top) if test(node)}


def test_every_leaf_is_read_through_leaf():
    # one reader: only _leaf calls .get, and the config tree is subscripted
    # only where a leaf is read, the tree validated or an override applied
    gets = _readers(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "get")
    subscripts = _readers(lambda n: isinstance(n, ast.Subscript) and ast.unparse(n.value) == "config")
    assert gets == {"_leaf"}
    assert subscripts <= {"_leaf", "_validate_tree", "_apply_overrides"}


def _field_default(cls, name):
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


def _parameter_default(func, name):
    return inspect.signature(func).parameters[name].default


# the leaves whose default the CLI shares with the library, and where the
# library keeps it
LIBRARY_DEFAULTS = {
    "ensemble.size": lambda: experiments.DEFAULT_ENSEMBLE_SIZE,
    "negative.size": lambda: _parameter_default(nonpredictability_demo, "size"),
    "lemma.omega_floor": lambda: _parameter_default(lemma_check, "omega_floor"),
    "lemma.gamma0_bracket": lambda: _parameter_default(find_gamma0, "bracket"),
    "kernel.numerator": lambda: _field_default(AnticausalKernel, "numerator"),
}


@pytest.mark.parametrize("dotted", sorted(LIBRARY_DEFAULTS))
def test_cli_default_is_the_library_default(dotted):
    # one copy of each default: the schema holds the library's own object
    section, leaf = dotted.split(".")
    assert cli._SCHEMA[section][leaf][1] is LIBRARY_DEFAULTS[dotted]()


def test_readme_lists_each_leaf_as_the_schema_does():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        text = fh.read().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = re.search(r"these leaves are\s+required:(.*?)Every other leaf", text, re.S).group(1)
    required = set(re.findall(r"`(\w+\.\w+)`", named))
    defaults = {leaf: json.loads(value) for leaf, value in re.findall(r"^\| `(\w+\.\w+)` \| `(.+)` \|$", text, re.M)}
    schema = {f"{s}.{leaf}": entry[1] for s, leaves in cli._SCHEMA.items() for leaf, entry in leaves.items()}
    assert required == {dotted for dotted, default in schema.items() if default is cli._NO_DEFAULT}
    assert defaults == {
        dotted: json.loads(json.dumps(default))
        for dotted, default in schema.items()
        if default is not cli._NO_DEFAULT
    }
    assert set().union(*REQUIRED_LEAVES.values()) == required
