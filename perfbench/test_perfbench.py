"""Tests of the benchmark's own logic: span self time, the tail rule, seeded
inputs, the output checks and the comparison verdicts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import compare
import ops
import spans
from summary import tail


def _span(sid, parent, name, start, end, info=None):
    return {"id": sid, "parent": parent, "name": name, "op": 0, "start": start,
            "end": end, "error": False, "info": info}


def test_self_time_on_synthetic_tree():
    tree = [
        _span(0, None, "experiments.gamma_sweep", 0.0, 10.0, {"cells": 4}),
        _span(1, 0, "predictor.build_predictor", 1.0, 4.0, {"saturated": 2}),
        _span(2, 1, "spectral.inverse_transform", 1.5, 2.0, {"n": 8}),
        _span(3, 0, "kernels.transfer", 5.0, 6.0, {"key": "k"}),
        _span(4, 0, "kernels.transfer", 7.0, 7.5, {"key": "k"}),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 10.0 - 3.0 - 1.0 - 0.5, 1: 2.5, 2: 0.5, 3: 1.0, 4: 0.5})

    m = spans.op_metrics(tree)
    assert m["experiments.self_ms"] == pytest.approx(5500.0)
    assert m["predictor.self_ms"] == pytest.approx(2500.0)
    assert m["kernels.self_ms"] == pytest.approx(1500.0)
    assert m["spectral.calls"] == 1
    assert m["spectral.bytes_computed"] == 32 * 8
    assert m["kernels.transfer_calls"] == 2
    assert m["kernels.transfer_redundancy"] == 2.0
    assert m["experiments.cells"] == 4
    assert m["experiments.ms_per_cell"] == pytest.approx(2500.0)
    assert m["predictor.builds"] == 1
    assert m["predictor.saturated_nodes"] == 2
    assert m["signals.members"] == 0 and m["signals.ms_per_member"] == 0.0
    # layer self times add up to the root span's duration
    total = sum(m[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert total == pytest.approx(10_000.0)


def test_self_time_clips_and_merges_overlapping_children():
    tree = [
        _span(0, None, "cli.main", 0.0, 4.0),
        _span(1, 0, "reports.write_csv", 1.0, 3.0, {"rows": 1, "bytes": 1}),
        _span(2, 0, "reports.write_json", 2.0, 5.0, {"bytes": 1}),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (20, (50.0, 10)), (39, (50.0, 19)), (40, (75.0, 10)),
     (100, (90.0, 10)), (200, (95.0, 10)), (1000, (99.0, 10)), (10_000, (99.9, 10))],
)
def test_tail_percentile_rule(n, expected):
    values = [float(v) for v in range(1, n + 1)]
    got = tail(values)
    if expected is None:
        assert got is None
    else:
        percentile, value, beyond = got
        assert (percentile, beyond) == expected
        assert sum(1 for v in values if v > value) == beyond >= 10


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_gives_same_op_inputs(workload):
    first = [ops.op_input(workload, 7, i) for i in range(12)]
    again = [ops.op_input(workload, 7, i) for i in range(12)]
    other = [ops.op_input(workload, 8, i) for i in range(12)]
    assert first == again
    assert first != other
    assert len({json.dumps(inp, sort_keys=True) for inp in first}) == len(first)


def test_witness_inputs_cycle_poles_and_stay_in_gamma_range():
    inputs = [ops.op_input("witness_scan", 3, i) for i in range(30)]
    assert [inp["poles"] for inp in inputs[:3]] == list(ops.POLE_SETS)
    assert all(ops.GAMMA_RANGE[0] <= inp["gamma"] <= ops.GAMMA_RANGE[1] for inp in inputs)


def _sweep_rows():
    rows = []
    for k, gamma in enumerate((10.0, 30.0, 100.0)):
        scale = 10.0 ** (-3 * k)
        rows.append(SimpleNamespace(
            gamma=gamma, err_l2_abs=scale, err_l2_rel=scale, err_sup_abs=scale,
            err_sup_rel=scale, kappa_sup=1e304, omega_threshold=0.01, causality_defect=0.5,
            i1=0.0, i2=scale, lemma_pass_high_band=True, lemma_pass_low_band=True,
            lemma_tail_dev=scale,
        ))
    return rows


def test_sweep_check_accepts_good_and_rejects_corrupted_rows():
    assert ops.check_sweep(_sweep_rows()) == []

    nan_row = _sweep_rows()
    nan_row[1].err_l2_abs = math.nan
    assert ops.check_sweep(nan_row)

    slow = _sweep_rows()
    slow[-1].err_sup_rel = 0.5 * slow[0].err_sup_rel
    assert ops.check_sweep(slow)

    lemma = _sweep_rows()
    lemma[2].lemma_pass_high_band = False
    assert ops.check_sweep(lemma)

    assert ops.check_sweep([])


def test_witness_check_rejects_each_corruption():
    good = {"causality_defect": 0.5, "orthogonality_residual": 0.06,
            "pass_high_band": True, "pass_low_band": True}
    assert ops.check_witness(good) == []
    for key, bad in [("pass_high_band", False), ("pass_low_band", False),
                     ("causality_defect", 1.5), ("causality_defect", math.nan),
                     ("orthogonality_residual", -1e-3), ("orthogonality_residual", math.inf)]:
        assert ops.check_witness({**good, key: bad}), (key, bad)


def _cli_output(directory, n, err_l2=1e-6):
    for name in ops.CLI_CSVS:
        lines = ['# {"command": "predict"}', "t,x"] + [f"{i}.0,{i}.5" for i in range(n)]
        (directory / name).write_text("\n".join(lines) + "\n")
    (directory / "summary.json").write_text(json.dumps({"err_l2": err_l2, "err_sup": 2e-6}))


def test_cli_check_accepts_good_and_rejects_corrupted_output(tmp_path):
    n = 8
    _cli_output(tmp_path, n)
    assert ops.check_cli_output(0, str(tmp_path), n) == []
    assert ops.check_cli_output(2, str(tmp_path), n)

    short = tmp_path / "short"
    short.mkdir()
    _cli_output(short, n)
    lines = (short / "yhat.csv").read_text().splitlines()
    (short / "yhat.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert ops.check_cli_output(0, str(short), n)

    nan = tmp_path / "nan"
    nan.mkdir()
    _cli_output(nan, n, err_l2=math.nan)
    assert ops.check_cli_output(0, str(nan), n)

    missing = tmp_path / "missing"
    missing.mkdir()
    _cli_output(missing, n)
    (missing / "khat.csv").unlink()
    assert ops.check_cli_output(0, str(missing), n)


@pytest.mark.parametrize(
    "base, change, expected",
    [
        ([100.0 + i for i in range(10)], [80.0 + i for i in range(10)], "better"),
        ([100.0 + i for i in range(10)], [130.0 + i for i in range(10)], "worse"),
        ([100.0 + i for i in range(10)], [101.0 + i for i in range(10)], "unchanged"),
        ([50.0, 150.0] * 5, [60.0, 140.0] * 5, "unresolved"),
    ],
)
def test_comparison_verdicts(base, change, expected):
    pairs = list(zip(base, change))
    assert compare.verdict(base, change, "lower", 0.1, pairs) == expected


def test_span_that_raised_counts_as_error_not_as_work():
    tree = [
        _span(0, None, "predictor.build_predictor", 0.0, 1.0),
        {**_span(1, 0, "kernels.transfer", 0.2, 0.4), "error": True},
    ]
    tree[0]["error"] = True
    m = spans.op_metrics(tree)
    assert m["predictor.errors"] == 1 and m["kernels.errors"] == 1
    assert m["predictor.builds"] == 0 and m["kernels.transfer_calls"] == 0
    assert m["predictor.self_ms"] == pytest.approx(800.0)


INSTALL_PROBE = """
import spans
import specpredict, specpredict.cli
from specpredict import cli, experiments, signals, spectral

grid = spectral.make_grid(64, 0.1)
x = spectral.TimeSeries(grid, [0.0] * 64)
original = experiments._member_spectrum
recorder = spans.Recorder()
bindings = spans.install(recorder)
wrapped = experiments._member_spectrum
assert wrapped is not original
# wrapped where it is defined, where cli imported it, and for the package
assert cli._member_spectrum is wrapped
assert signals._enveloped_member is experiments._enveloped_member
assert specpredict.forward_transform is spectral.forward_transform is cli.forward_transform
assert all(b[2].__name__ != "format_value" for b in bindings)
cli._member_spectrum(x)
names = [s["name"] for s in recorder.spans]
assert names == ["experiments._member_spectrum", "spectral.forward_transform"], names
assert recorder.spans[1]["parent"] == recorder.spans[0]["id"]
spans.activate(bindings, False)
assert experiments._member_spectrum is original and cli._member_spectrum is original
print("ok")
"""


def test_install_wraps_every_binding_and_restores_them():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here]))
    proc = subprocess.run([sys.executable, "-c", INSTALL_PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
