"""Command-line entry point.

Subcommands wrap the experiment operations one-to-one:

    predict, sweep, lemma, robustness, counterexample, demo-negative,
    gen-signal

Each reads a single JSON config (``--config``), optionally overridden leaf
by leaf with repeatable ``--set key=value`` flags, validates every module
precondition up front, and writes reports into ``--out``.  Exit codes:
0 success, 2 config validation failure or I/O error (an unreadable config,
an unwritable ``--out``), 3 numerical failure (an overflow saturation
reached a quantity that feeds a pass/fail flag).
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
    DEFAULT_R,
    CounterexampleRow,
    NegativeDemoRow,
    RobustnessRow,
    SweepRow,
    _member_half,
    _member_spectrum,  # noqa: F401 - perfbench's INSTALL_PROBE wraps this binding
    _norms,
    _relative,
    _row_norms,
    class_norm,
    counterexample_experiment,
    gamma_sweep,
    make_class_ensemble,
    nonpredictability_demo,
    predict,
    robustness_experiment,
)
from .kernels import kernel_from_dict
from .predictor import LemmaReport, _past_share, build_predictor, find_gamma0, lemma_check
from .reports import ColumnBlocks, format_value, write_csv, write_json, write_svg_lineplot
from .signals import GeneratorConfig, sample_bandlimited, sample_class_member
from .spectral import TWO_PI, TimeSeries, _half_sum, irfft_rows, make_grid, norm
from .spectral import forward_transform  # noqa: F401 - perfbench's INSTALL_PROBE reads this binding


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


# a leaf's allowed types; [types] stands for a JSON array of such values
_NUM = (int, float)
_NUMS = ([_NUM],)
_SCHEMA = {
    "grid": {"n": (int,), "delta_t": _NUM},
    "kernel": {"poles": _NUMS, "numerator": _NUMS},
    "class": {"q": _NUM, "c": _NUM},
    "predictor": {"r": _NUM, "gammas": _NUMS},
    "signal": {
        "kind": (str,),
        "seed": (int,),
        "omega_bar": _NUM,
    },
    "ensemble": {"size": (int,), "seed": (int,)},
    "noise": {"nus": _NUMS, "seed": (int,), "band": ([_NUM], type(None))},
    "counterexample": {"a": _NUM, "seed": (int,)},
    "negative": {"q_bad": _NUM, "seed": (int,), "size": (int,)},
    "lemma": {"omega_floor": _NUM, "gamma0_bracket": _NUMS},
    "output": {"directory": (str,), "formats": ([(str,)],)},
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

# commands whose prediction step pairs the exponent r with the class exponent q
_NEEDS_ADMISSIBLE_R = {"predict", "sweep", "robustness", "demo-negative"}


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
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for section, body in config.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown key: {section}")
        if not isinstance(body, dict):
            raise ConfigError(f"section '{section}' must be an object")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key: {section}.{key}")
            expected = _SCHEMA[section][key]
            if not _matches(value, expected):
                raise ConfigError(f"{section}.{key} must be {_type_names(expected)}, got {value!r}")


def _require(config: dict, command: str) -> None:
    for section in _REQUIRED[command]:
        if section not in config:
            raise ConfigError(f"command '{command}' requires the '{section}' section")


def _apply_overrides(config: dict, pairs) -> None:
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
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        section = config.setdefault(keys[0], {})
        if not isinstance(section, dict):
            raise ConfigError(f"section '{keys[0]}' must be an object")
        section[keys[1]] = value


def _build_objects(config: dict, command: str):
    """Turn validated JSON into domain objects, surfacing precondition names."""
    grid_cfg = config["grid"]
    try:
        grid = make_grid(grid_cfg["n"], grid_cfg["delta_t"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc

    kernel = None
    if "kernel" in config:
        try:
            kernel = kernel_from_dict(config["kernel"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"kernel: {exc}") from exc

    cls = None
    if "class" in config:
        try:
            cls = DegeneracyClass(config["class"]["q"], config["class"]["c"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"class: {exc}") from exc

    r, gammas = DEFAULT_R, ()
    if "predictor" in config:
        pred = config["predictor"]
        if "r" not in pred or "gammas" not in pred:
            raise ConfigError("predictor section needs both 'r' and 'gammas'")
        r = float(pred["r"])
        gammas = tuple(float(g) for g in pred["gammas"])
        if len(gammas) == 0:
            raise ConfigError("predictor.gammas must be nonempty")
        if any(not (g > 0 and math.isfinite(g)) for g in gammas):
            raise ConfigError("predictor.gammas must be positive finite numbers")
        if not (r > 0 and math.isfinite(r)):
            raise ConfigError("predictor.r must be positive and finite")
        if cls is not None and command in _NEEDS_ADMISSIBLE_R and not r > cls.min_sharpness_exponent:
            raise ConfigError(
                f"predictor.r={r} violates the hypothesis r > 2/(q-1) = "
                f"{cls.min_sharpness_exponent} for q={cls.q}"
            )
    return grid, kernel, cls, r, gammas


def _signal_from_config(config: dict, grid, cls):
    sig = config.get("signal", {})
    kind = sig.get("kind", "class_member")
    cfg = GeneratorConfig(seed=sig.get("seed", 0), grid=grid)
    if kind == "class_member":
        if cls is None:
            raise ConfigError("class_member signals require the 'class' section")
        return sample_class_member(cls, cfg), cfg
    if kind == "bandlimited":
        if "omega_bar" not in sig:
            raise ConfigError("bandlimited signals require signal.omega_bar")
        return sample_bandlimited(float(sig["omega_bar"]), cfg), cfg
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
        formats = tuple(config.get("output", {}).get("formats", ["csv", "json"]))
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


def _write_table(path, row_type, rows, meta, formats, gammas=None) -> list:
    """Write dataclass ``rows`` as a CSV table, if ``formats`` asks for csv, and
    return them as JSON objects.

    The columns are the fields of ``row_type``; ``gammas``, one value per
    row, leads each CSV row as a ``gamma`` column.
    """
    columns = [f.name for f in dataclasses.fields(row_type)]
    values = [[getattr(row, c) for c in columns] for row in rows]
    if "csv" in formats:
        if gammas is None:
            write_csv(path, columns, values, meta)
        else:
            write_csv(path, ["gamma", *columns], [[g, *v] for g, v in zip(gammas, values)], meta)
    return [dict(zip(columns, v)) for v in values]


def _cmd_predict(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config, "predict")
    if len(gammas) != 1:
        raise ConfigError("predict requires exactly one gamma")
    x, _ = _signal_from_config(config, grid, cls)
    pt = build_predictor(kernel, gammas[0], r, grid)
    # every generated signal gives its exact half spectrum (_member_half)
    X = _member_half(x, grid)
    gain = pt.khat_values - pt.k_values
    err_l2, err_sup = _norms(gain * X, grid)
    del gain
    y = irfft_rows(pt.k_values * X, grid)
    y_l2, y_sup = _row_norms(y, grid)
    meta = _open_reports(outdir, config, "predict")
    if "csv" in formats:
        # one n-sample series alive at a time: each is written, then dropped
        _timeseries_csv(f"{outdir}/y.csv", grid, y, meta)
        del y
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
            "err_l2": float(err_l2),
            "err_l2_rel": float(_relative(err_l2, y_l2)),
            "err_sup": float(err_sup),
            "err_sup_rel": float(_relative(err_sup, y_sup)),
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
    return 0


def _cmd_sweep(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config, "sweep")
    ens_cfg = config["ensemble"]
    cfg = GeneratorConfig(seed=ens_cfg.get("seed", 0), grid=grid)
    ensemble = make_class_ensemble(cls, cfg, ens_cfg.get("size", 10))
    report = gamma_sweep(kernel, cls, gammas, r, ensemble, metadata={"seed": cfg.seed})
    meta = _open_reports(outdir, config, "sweep")
    rows = _write_table(f"{outdir}/sweep.csv", SweepRow, report.rows, meta, formats)
    if "json" in formats:
        write_json(
            f"{outdir}/sweep.json", {"rows": rows, "sweep_metadata": report.metadata}, meta
        )
    if "svg" in formats:
        gammas_list = [row.gamma for row in report.rows]
        write_svg_lineplot(
            f"{outdir}/sweep.svg",
            gammas_list,
            {
                "err_l2_rel": [max(row.err_l2_rel, 1e-320) for row in report.rows],
                "err_sup_rel": [max(row.err_sup_rel, 1e-320) for row in report.rows],
            },
            title="worst-case relative error vs gamma",
            x_label="gamma (log)",
            y_label="relative error (log)",
        )
    return 0


def _cmd_lemma(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config, "lemma")
    lemma_cfg = config.get("lemma", {})
    floor = float(lemma_cfg.get("omega_floor", 0.5))
    bracket = tuple(lemma_cfg.get("gamma0_bracket", [0.5, 2000.0]))
    if len(bracket) != 2:
        raise ConfigError(f"lemma.gamma0_bracket must be two numbers [lo, hi], got {list(bracket)!r}")
    reports = [lemma_check(build_predictor(kernel, g, r, grid), cls, floor) for g in gammas]
    gamma0 = find_gamma0(kernel, cls, r, grid, bracket=bracket)
    meta = _open_reports(outdir, config, "lemma")
    rows = _write_table(f"{outdir}/lemma.csv", LemmaReport, reports, meta, formats)
    write_json(
        f"{outdir}/lemma.json",
        {
            "gamma0": gamma0,
            "pass_high_band": all(rep.pass_high_band for rep in reports),
            "tail_dev_strictly_decreasing": all(
                a.tail_dev_max > b.tail_dev_max for a, b in zip(reports, reports[1:])
            ),
            "pass_low_band": all(rep.pass_low_band for rep in reports),
            "rows": rows,
        },
        meta,
    )
    return 0


def _cmd_robustness(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config, "robustness")
    x0, _ = _signal_from_config(config, grid, cls)
    noise_cfg = config["noise"]
    cfg = GeneratorConfig(seed=noise_cfg.get("seed", 0), grid=grid, band=noise_cfg.get("band"))
    nus = [float(v) for v in noise_cfg["nus"]]
    reports = [robustness_experiment(kernel, g, r, x0, nus, cfg) for g in gammas]
    meta = _open_reports(outdir, config, "robustness")
    rows = _write_table(
        f"{outdir}/robustness.csv",
        RobustnessRow,
        [row for rep in reports for row in rep.rows],
        meta,
        formats,
        gammas=[rep.gamma for rep in reports for _ in nus],
    )
    write_json(
        f"{outdir}/robustness.json",
        {
            "per_gamma": [
                {
                    "gamma": rep.gamma,
                    "eps_clean": rep.eps_clean,
                    "kappa_sup": rep.kappa_sup,
                    "saturated": rep.saturated,
                    "rows": rows[i * len(nus) : (i + 1) * len(nus)],
                }
                for i, rep in enumerate(reports)
            ],
            "all_bounds_hold": all(row.holds for rep in reports for row in rep.rows),
        },
        meta,
    )
    if any(rep.saturated for rep in reports):
        print(
            "numerical failure: overflow saturation reached the gain bound check",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_counterexample(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config, "counterexample")
    ce = config["counterexample"]
    cfg = GeneratorConfig(seed=ce.get("seed", 0), grid=grid)
    report = counterexample_experiment(float(ce["a"]), kernel, gammas, cfg, r=r)
    meta = _open_reports(outdir, config, "counterexample")
    rows = _write_table(
        f"{outdir}/counterexample.csv", CounterexampleRow, report.rows, meta, formats
    )
    write_json(
        f"{outdir}/counterexample.json",
        {
            "split": report.split,
            "no_gamma_predicts_both": report.no_gamma_predicts_both,
            "rows": rows,
        },
        meta,
    )
    return 0


def _cmd_demo_negative(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config, "demo-negative")
    neg = config["negative"]
    cfg = GeneratorConfig(seed=neg.get("seed", 0), grid=grid)
    report = nonpredictability_demo(
        float(neg["q_bad"]), cls.c, kernel, gammas, cfg, r, size=neg.get("size", 3), q_reference=cls.q
    )
    meta = _open_reports(outdir, config, "demo-negative")
    rows = _write_table(f"{outdir}/negative.csv", NegativeDemoRow, report.rows, meta, formats)
    write_json(
        f"{outdir}/negative.json",
        {
            "label": report.label,
            "q_bad": report.q_bad,
            "final_ratio": report.final_ratio,
            "rows": rows,
        },
        meta,
    )
    return 0


def _cmd_gen_signal(config, outdir, formats):
    grid, kernel, cls, r, gammas = _build_objects(config, "gen-signal")
    x, cfg = _signal_from_config(config, grid, cls)
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
    return 0


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
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            metavar="KEY=VALUE",
            help="override a config leaf, e.g. predictor.r=4",
        )
        p.add_argument("--format", default=None, help="comma list out of csv,json,svg")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        _apply_overrides(config, args.overrides)
        _validate_tree(config)
        _require(config, args.command)
        formats = _formats(config, args.format)
        outdir = args.out if args.out != "." else config.get("output", {}).get("directory", ".")
        return _COMMANDS[args.command](config, outdir, formats)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError and JSON syntax errors are ValueErrors, as are the
        # module-level precondition violations that surface as config errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
