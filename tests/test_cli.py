import importlib.util
import json
import math
import os
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
    make_grid,
    norm,
    sample_bandlimited,
    sample_class_member,
)
from specpredict.cli import main
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

    # generated spectra are flat under the envelope: no profile or sigma is settable
    @pytest.mark.parametrize(
        "section, key, value",
        [("predictor", "sharpness", 3), ("signal", "profile", "flat"), ("signal", "sigma", 1.5)],
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

    @pytest.mark.parametrize("formats, inverses", [("json", 5), ("csv,json", 7)])
    def test_forms_yhat_only_for_its_csv(self, tmp_path, monkeypatch, formats, inverses):
        # the generator's two projection rounds, the error channel, y and the
        # time kernel of causality_defect; csv adds x and yhat, and its
        # khat.csv is the kernel causality_defect reads
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

    def test_nan_noise_level_exits_2(self, tmp_path, capsys):
        code, outdir = run(
            tmp_path, "robustness", self.config(), extra=("--set", "noise.nus=[0.0, NaN]")
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err
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
        assert capsys.readouterr().err == "config error: q_bad must lie strictly inside (0, 1), got 1.0\n"
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
        assert capsys.readouterr().err.startswith("config error: lemma.gamma0_bracket")
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

    def test_existing_directory_is_kept(self, tmp_path):
        outdir = tmp_path / "kept"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("mine")
        code, _ = run_full(tmp_path, "predict", "kept", extra=("--set", "grid.n=7"))
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "mine"
