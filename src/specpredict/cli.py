"""Command-line entry point.

Subcommands wrap the experiment operations one-to-one:

    predict, sweep, lemma, robustness, counterexample, demo-negative,
    gen-signal

Each reads a single JSON config (``--config``), optionally overridden leaf
by leaf with repeatable ``--set key=value`` flags, hands every value
unconverted to the library check that owns it, and writes its JSON report
and the CSV and SVG files ``--format`` names into ``--out``, or
``output.directory`` without ``--out``.  Only :func:`main` gives exit codes:
0 success, 2 config validation failure or I/O error, 3 ``NumericalFailure``
(a saturated gain bound check, or no lemma gamma0 in its bracket).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .degeneracy import DegeneracyClass
from .experiments import (
    DEFAULT_DEMO_SIZE,
    DEFAULT_ENSEMBLE_SIZE,
    CounterexampleRow,
    NegativeDemoRow,
    RobustnessRow,
    SweepRow,
    _gamma_list,
    _member_spectrum,  # noqa: F401 - perfbench's INSTALL_PROBE wraps this binding
    _require_admissible,
    class_norm,
    counterexample_experiment,
    gamma_sweep,
    make_class_ensemble,
    nonpredictability_demo,
    predict,
    prediction_error,
    robustness_experiment,
)
from .kernels import DEFAULT_NUMERATOR, AnticausalKernel
from .predictor import DEFAULT_GAMMA0_BRACKET, LemmaReport, NumericalFailure, _past_share
from .predictor import build_predictor, find_gamma0, lemma_check
from .reports import ColumnBlocks, format_value, write_csv, write_json, write_svg_lineplot
from .signals import GeneratorConfig, sample_bandlimited, sample_class_member
from .spectral import TWO_PI, TimeSeries, _half_sum, _real, irfft_rows, make_grid, norm
from .spectral import forward_transform  # noqa: F401 - perfbench's INSTALL_PROBE reads this binding


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


# each leaf: (its allowed types, its default); [types] stands for a JSON
# array of such values, and _NO_DEFAULT marks a leaf that must be given
_NO_DEFAULT = object()
_NUM = (int, float)
_NUMS = ([_NUM],)
_SEED = ((int,), 0)
_SCHEMA = {
    "grid": {"n": ((int,), _NO_DEFAULT), "delta_t": (_NUM, _NO_DEFAULT)},
    "kernel": {"poles": (_NUMS, _NO_DEFAULT), "numerator": (_NUMS, DEFAULT_NUMERATOR)},
    "class": {"q": (_NUM, _NO_DEFAULT), "c": (_NUM, _NO_DEFAULT)},
    "predictor": {"r": (_NUM, _NO_DEFAULT), "gammas": (_NUMS, _NO_DEFAULT)},
    "signal": {"kind": ((str,), "class_member"), "seed": _SEED, "omega_bar": (_NUM, _NO_DEFAULT)},
    "ensemble": {"size": ((int,), DEFAULT_ENSEMBLE_SIZE), "seed": _SEED},
    "noise": {"nus": (_NUMS, _NO_DEFAULT), "seed": _SEED, "band": (([_NUM], type(None)), None)},
    "counterexample": {"a": (_NUM, _NO_DEFAULT)},
    "negative": {"q_bad": (_NUM, _NO_DEFAULT), "seed": _SEED, "size": ((int,), DEFAULT_DEMO_SIZE)},
    "lemma": {"gamma0_bracket": (_NUMS, DEFAULT_GAMMA0_BRACKET)},
    "output": {"directory": ((str,), "."), "formats": (([(str,)],), ("csv", "json"))},
}

_REQUIRED = {
    "predict": ("grid", "kernel", "class", "predictor", "signal"),
    "sweep": ("grid", "kernel", "class", "predictor", "ensemble"),
    "lemma": ("grid", "kernel", "class", "predictor"),
    "robustness": ("grid", "kernel", "class", "predictor", "signal", "noise"),
    "counterexample": ("grid", "kernel", "predictor", "counterexample"),
    "demo-negative": ("grid", "kernel", "class", "predictor", "negative"),
    "gen-signal": ("grid", "signal"),
}


def _matches(value, kinds) -> bool:
    """``value`` has one of the leaf types ``kinds``; a bool is never a number."""
    if isinstance(value, list):
        return any(isinstance(k, list) and all(_matches(v, k[0]) for v in value) for k in kinds)
    return not isinstance(value, bool) and any(
        not isinstance(k, list) and isinstance(value, k) for k in kinds
    )


def _type_names(kinds) -> str:
    return "/".join(f"list of {_type_names(k[0])}" if isinstance(k, list) else k.__name__ for k in kinds)


def _validate_tree(config: dict) -> None:
    for section, body in config.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown key: {section}")
        if not isinstance(body, dict):
            raise ConfigError(f"section '{section}' must be an object")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key: {section}.{key}")
            expected = _SCHEMA[section][key][0]
            if not _matches(value, expected):
                raise ConfigError(f"{section}.{key} must be {_type_names(expected)}, got {value!r}")


def _require(config: dict, command: str) -> None:
    for section in _REQUIRED[command]:
        if section not in config:
            raise ConfigError(f"command '{command}' requires the '{section}' section")


def _apply_overrides(config: dict, pairs) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        keys = dotted.split(".")
        if len(keys) != 2:
            raise ConfigError(f"--set key must be section.leaf, got {dotted!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        section = config.setdefault(keys[0], {})
        if not isinstance(section, dict):
            raise ConfigError(f"section '{keys[0]}' must be an object")
        section[keys[1]] = value


def _leaf(config: dict, section: str, leaf: str):
    """``config[section][leaf]``, else the leaf's ``_SCHEMA`` default; a
    ConfigError for a leaf that has none."""
    value = config.get(section, {}).get(leaf, _SCHEMA[section][leaf][1])
    if value is _NO_DEFAULT:
        raise ConfigError(f"{section}.{leaf} is required")
    return value


def _checked(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a library ValueError raised as a config error of ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _build_objects(config: dict):
    """Turn validated JSON into domain objects; each value goes unconverted to
    the library rule that checks it."""
    grid = _checked("grid", make_grid, _leaf(config, "grid", "n"), _leaf(config, "grid", "delta_t"))
    kernel = cls = r = gammas = None
    if "kernel" in config:
        kernel = _checked(
            "kernel", AnticausalKernel, _leaf(config, "kernel", "poles"), _leaf(config, "kernel", "numerator")
        )
    if "class" in config:
        cls = _checked("class", DegeneracyClass, _leaf(config, "class", "q"), _leaf(config, "class", "c"))
    if "predictor" in config:
        gammas = _checked("predictor", _gamma_list, _leaf(config, "predictor", "gammas"))
        r = _checked("predictor", _real, "r", _leaf(config, "predictor", "r"))
    return grid, kernel, cls, r, gammas


def _signal_from_config(config: dict, grid, cls):
    kind = _leaf(config, "signal", "kind")
    cfg = GeneratorConfig(seed=_leaf(config, "signal", "seed"), grid=grid)
    if kind == "class_member":
        if cls is None:
            raise ConfigError("class_member signals require the 'class' section")
        return sample_class_member(cls, cfg)
    if kind == "bandlimited":
        return sample_bandlimited(_leaf(config, "signal", "omega_bar"), cfg)
    raise ConfigError(f"signal.kind must be 'class_member' or 'bandlimited', got {kind!r}")


def _open_reports(outdir: str, config: dict, command: str) -> dict:
    """Create ``outdir`` and give the metadata of ``command``'s reports; called
    once the command has its figures, so a rejected config makes no directory."""
    os.makedirs(outdir, exist_ok=True)
    return {"command": command, "config": config}


def _formats(config: dict, flag: str) -> tuple:
    if flag:
        formats = tuple(part.strip() for part in flag.split(","))
    else:
        formats = tuple(_leaf(config, "output", "formats"))
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        raise ConfigError(f"unknown output formats: {sorted(unknown)}")
    return formats


def _timeseries_csv(path, grid, samples, meta, column="x"):
    """``samples`` against the grid's time nodes, formed a block at a time."""
    write_csv(path, ["t", column], ColumnBlocks(grid.n, lambda a, b: (grid.times(a, b), samples[a:b])), meta)


def _spectrum_csv(path, x, meta):
    """The stored half spectrum of ``x`` at all n nodes, in centered order,
    formed a block at a time: row i is node k = i - n/2, at omega as
    ``grid.omegas()`` forms it, with the value of node |k| of the half
    spectrum, conjugated for -n/2 < k < 0 (node -n/2 is node n/2 itself)."""
    grid, half = x.grid, x.spectrum

    def block(start, stop):
        k = np.arange(start, stop) - grid.n // 2
        vals = half[np.abs(k)]
        np.conjugate(vals, out=vals, where=(k < 0) & (k > -grid.n // 2))
        return TWO_PI * (k * (1.0 / (grid.n * grid.delta_t))), vals.real, vals.imag

    write_csv(path, ["omega", "re", "im"], ColumnBlocks(grid.n, block), meta)


def _write_table(path, row_type, rows, meta, formats, gammas=None) -> None:
    """Write dataclass ``rows`` as a CSV table, if ``formats`` asks for csv.

    The columns are the fields of ``row_type``; ``gammas``, one value per
    row, leads each CSV row as a ``gamma`` column.
    """
    if "csv" not in formats:
        return
    columns = [f.name for f in dataclasses.fields(row_type)]
    values = [[getattr(row, c) for c in columns] for row in rows]
    if gammas is not None:
        columns, values = ["gamma", *columns], [[g, *v] for g, v in zip(gammas, values)]
    write_csv(path, columns, values, meta)


def _cmd_predict(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config)
    _checked("predictor", _require_admissible, r, cls)
    if len(gammas) != 1:
        raise ConfigError("predict requires exactly one gamma")
    x = _signal_from_config(config, grid, cls)
    pt = build_predictor(kernel, gammas[0], r, grid)
    err = prediction_error(pt, x)
    meta = _open_reports(outdir, config, "predict")
    if "csv" in formats:
        # one n-sample series alive at a time: each is written, then dropped;
        # a generated signal holds its exact half spectrum
        _timeseries_csv(f"{outdir}/y.csv", grid, irfft_rows(pt.k_values * x.spectrum, grid), meta)
        _timeseries_csv(f"{outdir}/x.csv", grid, x.samples, meta)
        _timeseries_csv(f"{outdir}/yhat.csv", grid, predict(pt, x).samples, meta)
    khat = irfft_rows(pt.khat_values, grid)
    if "csv" in formats:
        _timeseries_csv(f"{outdir}/khat.csv", grid, khat, meta, column="khat")
    # causality_defect(pt) of this kernel; _past_share overwrites it
    defect = _past_share(khat)
    del khat
    write_json(
        f"{outdir}/summary.json",
        {
            "err_l2": err.err_l2_abs,
            "err_l2_rel": err.err_l2_rel,
            "err_sup": err.err_sup_abs,
            "err_sup_rel": err.err_sup_rel,
            "kappa_sup": pt.kappa_sup,
            "causality_defect": defect,
            "omega_threshold": pt.omega_threshold,
            "saturated": pt.any_saturated,
        },
        meta,
    )
    if pt.any_saturated:
        # counted on the full grid: node k of 0 < k < n/2 stands for +-omega_k
        saturated = int(_half_sum(1.0, grid, pt.saturated))
        readers = "khat.csv and causality_defect read" if "csv" in formats else "causality_defect reads"
        print(
            f"warning: {saturated} of {grid.n} predictor nodes saturated; {readers} clamped values",
            file=sys.stderr,
        )


def _cmd_sweep(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config)
    cfg = GeneratorConfig(seed=_leaf(config, "ensemble", "seed"), grid=grid)
    ensemble = make_class_ensemble(cls, cfg, _leaf(config, "ensemble", "size"))
    report = gamma_sweep(kernel, cls, gammas, r, ensemble, metadata={"seed": cfg.seed})
    meta = _open_reports(outdir, config, "sweep")
    _write_table(f"{outdir}/sweep.csv", SweepRow, report.rows, meta, formats)
    write_json(f"{outdir}/sweep.json", dataclasses.asdict(report), meta)
    if "svg" in formats:
        write_svg_lineplot(
            f"{outdir}/sweep.svg",
            [row.gamma for row in report.rows],
            {
                "err_l2_rel": [row.err_l2_rel for row in report.rows],
                "err_sup_rel": [row.err_sup_rel for row in report.rows],
            },
            title="worst-case relative error vs gamma",
            x_label="gamma (log)",
            y_label="relative error (log)",
        )


def _cmd_lemma(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config)
    # the rows first: a tail floor past omega_max exits 2 before any bisection
    reports = [_checked("lemma", lemma_check, build_predictor(kernel, g, r, grid), cls) for g in gammas]
    gamma0 = _checked("lemma", find_gamma0, kernel, cls, r, grid, bracket=_leaf(config, "lemma", "gamma0_bracket"))
    meta = _open_reports(outdir, config, "lemma")
    _write_table(f"{outdir}/lemma.csv", LemmaReport, reports, meta, formats)
    write_json(
        f"{outdir}/lemma.json",
        {
            "gamma0": gamma0,
            "pass_high_band": all(rep.pass_high_band for rep in reports),
            "tail_dev_strictly_decreasing": all(
                a.tail_dev_max > b.tail_dev_max for a, b in zip(reports, reports[1:])
            ),
            "pass_low_band": all(rep.pass_low_band for rep in reports),
            "rows": [dataclasses.asdict(rep) for rep in reports],
        },
        meta,
    )


def _cmd_robustness(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config)
    _checked("predictor", _require_admissible, r, cls)
    nus = _leaf(config, "noise", "nus")
    x0 = _signal_from_config(config, grid, cls)
    cfg = GeneratorConfig(seed=_leaf(config, "noise", "seed"), grid=grid, band=_leaf(config, "noise", "band"))
    reports = [robustness_experiment(kernel, g, r, x0, nus, cfg) for g in gammas]
    meta = _open_reports(outdir, config, "robustness")
    _write_table(
        f"{outdir}/robustness.csv",
        RobustnessRow,
        [row for rep in reports for row in rep.rows],
        meta,
        formats,
        gammas=[rep.gamma for rep in reports for _ in rep.rows],
    )
    write_json(
        f"{outdir}/robustness.json",
        {
            "per_gamma": [dataclasses.asdict(rep) for rep in reports],
            "all_bounds_hold": all(row.holds for rep in reports for row in rep.rows),
        },
        meta,
    )
    if any(rep.saturated for rep in reports):
        raise NumericalFailure("overflow saturation reached the gain bound check")


def _cmd_counterexample(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config)
    report = counterexample_experiment(_leaf(config, "counterexample", "a"), kernel, gammas, grid, r=r)
    meta = _open_reports(outdir, config, "counterexample")
    _write_table(f"{outdir}/counterexample.csv", CounterexampleRow, report.rows, meta, formats)
    write_json(f"{outdir}/counterexample.json", dataclasses.asdict(report), meta)


def _cmd_demo_negative(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config)
    cfg = GeneratorConfig(seed=_leaf(config, "negative", "seed"), grid=grid)
    q_bad, size = _leaf(config, "negative", "q_bad"), _leaf(config, "negative", "size")
    report = nonpredictability_demo(q_bad, cls.c, kernel, gammas, cfg, r, size=size, q_reference=cls.q)
    meta = _open_reports(outdir, config, "demo-negative")
    _write_table(f"{outdir}/negative.csv", NegativeDemoRow, report.rows, meta, formats)
    write_json(f"{outdir}/negative.json", dataclasses.asdict(report), meta)


def _cmd_gen_signal(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config)
    x = _signal_from_config(config, grid, cls)
    # the samples, inverted once from the stored spectrum
    xt = TimeSeries(grid, x.samples)
    meta = _open_reports(outdir, config, "gen-signal")
    if "csv" in formats:
        _timeseries_csv(f"{outdir}/signal.csv", grid, xt.samples, meta)
        _spectrum_csv(f"{outdir}/signal_spectrum.csv", x, meta)
    write_json(
        f"{outdir}/signal.json",
        {
            "l2": norm(xt, 2),
            "sup": norm(xt, math.inf),
            "class_norm": None if cls is None else format_value(class_norm(x, cls)),
        },
        meta,
    )


_COMMANDS = {
    "predict": _cmd_predict,
    "sweep": _cmd_sweep,
    "lemma": _cmd_lemma,
    "robustness": _cmd_robustness,
    "counterexample": _cmd_counterexample,
    "demo-negative": _cmd_demo_negative,
    "gen-signal": _cmd_gen_signal,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specpredict",
        description="Causal prediction of anti-causal convolutions: experiments and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="output directory (default: output.directory, else .)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            metavar="KEY=VALUE",
            help="override a config leaf, e.g. predictor.r=4",
        )
        p.add_argument("--format", default=None, help="comma list out of csv,json,svg; json is always on")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        _apply_overrides(config, args.overrides)
        _validate_tree(config)
        _require(config, args.command)
        formats = _formats(config, args.format)
        outdir = args.out if args.out is not None else _leaf(config, "output", "directory")
        _COMMANDS[args.command](config, outdir, formats)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError and JSON syntax errors are ValueErrors, as are the
        # module-level precondition violations that surface as config errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
