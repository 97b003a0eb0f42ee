"""Span recording for the traced run, installed from outside the library.

:func:`install` wraps the functions of every layer module wherever they are
bound: in the defining module (so calls inside a module are seen too), in
every ``specpredict`` module that imported them, and in the package itself.
Public functions are wrapped, plus private helpers that another module
imports (``_member_spectrum``, ``_enveloped_member``).  Methods and
dataclass constructors are not wrapped; their time counts as the caller's
self time.  ``src/`` is not modified.

A span is a dict with ``id``, ``parent``, ``name`` (``layer.function``),
``op``, ``start``, ``end`` (``time.perf_counter`` seconds), ``error`` and
``info`` (counts taken at the boundary).  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

from summary import median

# one module each; tolerances holds only constants and is not a layer
LAYERS = ("spectral", "degeneracy", "kernels", "predictor", "signals", "experiments", "reports", "cli")

# format_value runs once per CSV value (524,288 times per predict command);
# a span per call would cost more than the formatting it measures, so its
# time stays in write_csv's self time
UNWRAPPED = frozenset({"reports.format_value"})

TRANSFORMS = ("spectral.forward_transform", "spectral.inverse_transform")
WITNESSES = ("predictor.causality_defect", "predictor.orthogonality_residual", "predictor.lemma_check")

# per-op metrics that are counts; they must repeat exactly for a fixed seed
COUNT_METRICS = (
    "spectral.calls",
    "spectral.bytes_computed",
    "signals.members",
    "signals.transforms_per_member",
    "experiments.cells",
    "kernels.transfer_calls",
    "kernels.transfer_redundancy",
    "predictor.builds",
    "predictor.saturated_nodes",
    "reports.rows_written",
    "reports.bytes_written",
) + tuple(f"{layer}.errors" for layer in LAYERS)

UNITS = {
    "spectral.bytes_computed": "B",
    "reports.bytes_written": "B",
    "reports.mb_per_s": "MB/s",
    "signals.ms_per_member": "ms",
    "experiments.ms_per_cell": "ms",
    "kernels.transfer_redundancy": "ratio",
    "signals.transforms_per_member": "ratio",
    "trace.overhead": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "ms" if metric.endswith("_ms") else "count"


# hooks take the call's bound arguments and its result, and return the counts
def _transform_info(a, result):
    (series,) = a.values()
    return {"n": series.grid.n}


def _transfer_info(a, result):
    kernel, grid = a["kernel"], a["grid"]
    return {"key": repr((kernel.poles, kernel.numerator, grid.n, grid.delta_t))}


def _build_info(a, result):
    return {"saturated": int(result.saturated.sum())}


def _sweep_info(a, result):
    return {"cells": len(list(a["gammas"])) * len(a["ensemble"])}


def _csv_info(a, result):
    return {"rows": len(a["rows"]), "bytes": os.path.getsize(a["path"])}


def _json_info(a, result):
    return {"bytes": os.path.getsize(a["path"])}


HOOKS = {
    "spectral.forward_transform": _transform_info,
    "spectral.inverse_transform": _transform_info,
    "kernels.transfer": _transfer_info,
    "predictor.build_predictor": _build_info,
    "experiments.gamma_sweep": _sweep_info,
    "reports.write_csv": _csv_info,
    "reports.write_json": _json_info,
}


class Recorder:
    """In-memory span list; ``op`` tags the spans of the operation running now."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "op": self.op,
                "error": False,
                "info": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span["info"] = hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _layer_of(fn):
    parts = fn.__module__.split(".")
    if len(parts) == 2 and parts[0] == "specpredict" and parts[1] in LAYERS:
        return parts[1]
    return None


def install(recorder: Recorder) -> list:
    """Wrap every traced function at each of its bindings.

    Returns the bindings as ``(module, attribute, original, wrapper)``; the
    wrappers are in place until :func:`activate` switches them off.
    """
    modules = [m for k, m in sys.modules.items() if k == "specpredict" or k.startswith("specpredict.")]
    targets = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj):
                continue
            layer = _layer_of(obj)
            if layer is None:
                continue
            private = obj.__name__.startswith("_")
            imported_elsewhere = obj.__module__ != module.__name__
            if not private or imported_elsewhere:
                name = f"{layer}.{obj.__name__}"
                if name not in UNWRAPPED:
                    targets[obj] = name
    wrappers = {fn: recorder.wrap(name, fn) for fn, name in targets.items()}
    bindings = [
        (module, attr, obj, wrappers[obj])
        for module in modules
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj in wrappers
    ]
    activate(bindings, True)
    return bindings


def activate(bindings, on: bool) -> None:
    """Put the wrappers (``on``) or the original functions back in place."""
    for module, attr, original, wrapper in bindings:
        setattr(module, attr, wrapper if on else original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        clipped = [
            (max(s, span["start"]), min(e, span["end"])) for s, e in children[span["id"]]
        ]
        out[span["id"]] = span["end"] - span["start"] - _covered(clipped)
    return out


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    by_id = {s["id"]: s for s in spans}
    found = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"] not in names:
            parent = by_id[parent]["parent"]
        if parent is None:
            found.append(span)
    return found


def _under(spans, span_ids):
    """Spans that descend from any span id in ``span_ids``."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for span in spans:
        parent = span["parent"]
        while parent is not None and parent not in span_ids:
            parent = by_id[parent]["parent"]
        if parent is not None:
            out.append(span)
    return out


def _ms(spans) -> float:
    return 1e3 * sum(s["end"] - s["start"] for s in spans)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def op_metrics(spans) -> dict:
    """Per-layer metrics of one operation from its spans (see COUNT_METRICS)."""
    selfs = self_times(spans)
    named = defaultdict(list)  # completed spans only: a raising call has no counts
    for span in spans:
        if not span["error"]:
            named[span["name"]].append(span)
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].startswith(layer + ".")]
        out[f"{layer}.self_ms"] = 1e3 * sum(selfs[s["id"]] for s in mine)
        out[f"{layer}.errors"] = sum(1 for s in mine if s["error"])

    transforms = [s for name in TRANSFORMS for s in named[name]]
    out["spectral.calls"] = len(transforms)
    # a complex transform reads and writes n complex128 values
    out["spectral.bytes_computed"] = sum(32 * s["info"]["n"] for s in transforms)

    members = named["signals._enveloped_member"]
    member_ids = {s["id"] for s in members}
    out["signals.members"] = len(members)
    out["signals.ms_per_member"] = _ratio(_ms(members), len(members))
    member_transforms = [s for s in _under(spans, member_ids) if s["name"] in TRANSFORMS]
    out["signals.transforms_per_member"] = _ratio(len(member_transforms), len(members))

    sweeps = named["experiments.gamma_sweep"]
    cells = sum(s["info"]["cells"] for s in sweeps)
    out["experiments.cells"] = cells
    out["experiments.ms_per_cell"] = _ratio(_ms(sweeps), cells)

    transfers = named["kernels.transfer"]
    out["kernels.transfer_calls"] = len(transfers)
    out["kernels.transfer_redundancy"] = _ratio(
        len(transfers), len({s["info"]["key"] for s in transfers})
    )

    builds = named["predictor.build_predictor"]
    out["predictor.builds"] = len(builds)
    out["predictor.build_ms"] = _ratio(_ms(builds), len(builds))
    out["predictor.witness_ms"] = _ms(_outermost(spans, WITNESSES))
    out["predictor.saturated_nodes"] = sum(s["info"]["saturated"] for s in builds)

    writes = _outermost(spans, ("reports.write_csv", "reports.write_json"))
    out["reports.rows_written"] = sum(s["info"].get("rows", 0) for s in writes)
    out["reports.bytes_written"] = sum(s["info"]["bytes"] for s in writes)
    out["reports.mb_per_s"] = _ratio(out["reports.bytes_written"] / 1e6, _ms(writes) / 1e3)
    return out


def layer_summary(per_op, count_ops: int) -> dict:
    """Median over operations; counts use only the first ``count_ops`` so they
    repeat exactly between runs with one seed, whatever the run length."""
    names = per_op[0].keys() if per_op else ()
    out = {}
    for name in names:
        ops = per_op[:count_ops] if name in COUNT_METRICS else per_op
        out[name] = median([m[name] for m in ops])
    return out
