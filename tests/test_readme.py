"""The README library quick start runs and agrees with the experiments."""

import contextlib
import dataclasses
import io
import math
import os
import re

import pytest

from specpredict import build_predictor, gamma_sweep, prediction_error

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture(scope="module")
def quick_start():
    """(namespace, stdout) of the README's quick-start python block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    return namespace, out.getvalue()


def test_prints_the_sweep_error(quick_start):
    ns, out = quick_start
    printed = float(out.strip())
    assert math.isfinite(printed) and printed > 0.0
    pt = ns["pt"]
    row = gamma_sweep(ns["kernel"], ns["cls"], (pt.gamma,), pt.r, [ns["x"]]).rows[0]
    assert printed == row.err_l2_rel


def test_prediction_error_is_the_sweep_error_bit_for_bit(quick_start):
    ns = quick_start[0]
    kernel, cls, x, r = ns["kernel"], ns["cls"], ns["x"], ns["pt"].r
    gammas = (10.0, 30.0, 100.0)
    rows = gamma_sweep(kernel, cls, gammas, r, [x]).rows
    for gamma, row in zip(gammas, rows):
        err = prediction_error(build_predictor(kernel, gamma, r, x.grid), x)
        want = (row.err_l2_abs, row.err_l2_rel, row.err_sup_abs, row.err_sup_rel)
        assert dataclasses.astuple(err) == want, gamma
