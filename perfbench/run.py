"""specpredict benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the library is imported from its
``src/``.  ``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics; ``--trace 1`` is the separate traced run and reports the
per-layer metrics and the tracing overhead.  Every op's output is checked and
a failed check counts in ``failed``.  A table with every metric, its unit and
its sample count is printed first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` declares.  Each run also writes a result file (samples,
all metrics, provenance) under ``perfbench/out/results/``, which
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import ops
import provenance
import spans
from summary import median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def launch(workload, seed, seconds, mode, workdir, deadline) -> dict:
    """Start one worker process and return its result with its ``setup_s``."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--workdir", workdir,
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ({mode}) exceeded the run deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_monotonic"] - start
    return result


def end_to_end(setups, main, failed, attempted) -> dict:
    samples = main["samples"]
    walls_ms = [1e3 * s["wall_s"] for s in samples]
    cpus_ms = [1e3 * s["cpu_s"] for s in samples]
    n = len(samples)
    correct_ops = sum(1 for s in samples if s["ok"])
    metrics = {
        "setup_s": {"value": median(setups), "unit": "s", "n": len(setups)},
        "ops_per_s": {"value": correct_ops / sum(s["wall_s"] for s in samples), "unit": "1/s", "n": n},
        "op_p50_ms": {"value": median(walls_ms), "unit": "ms", "n": n},
        "op_cpu_p50_ms": {"value": median(cpus_ms), "unit": "ms", "n": n},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB", "n": 1},
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "n": attempted},
    }
    t = tail(walls_ms)
    metrics["op_tail_ms"] = (
        {"value": t[1], "unit": "ms", "n": n, "percentile": t[0], "beyond": t[2]}
        if t
        else {"value": None, "unit": "ms", "n": n, "percentile": None,
              "note": "fewer than 10 samples beyond the median; run longer for a tail"}
    )
    return metrics


def layer_metrics(main) -> dict:
    n = main["layer_ops"]
    return {
        name: {
            "value": value,
            "unit": spans.unit_of(name),
            "n": n["counts"] if name in spans.COUNT_METRICS else n["times"],
        }
        for name, value in sorted(main["layers"].items())
    }


def run_workload(workload, seed, seconds, trace) -> dict:
    """Untraced: SETUP_SAMPLES workload processes, the last of which also runs
    the timed loop.  Traced: one process, spans kept under ``out/spans``."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            workers = [launch(workload, seed, seconds, "trace", workdir, deadline)]
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            shutil.move(
                os.path.join(workdir, "spans.json"),
                os.path.join(OUT, "spans", f"{workload}-seed{seed}.json"),
            )
        else:
            modes = ["setup"] * (SETUP_SAMPLES - 1) + ["run"]
            workers = [launch(workload, seed, seconds, mode, workdir, deadline) for mode in modes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    main = workers[-1]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if trace:
        metrics = layer_metrics(main)
    else:
        metrics = end_to_end([w["setup_s"] for w in workers], main, failed, attempted)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for w in workers for p in w["problems"]],
        "metrics": metrics,
        "samples": {
            "op_wall_s": [s["wall_s"] for s in main["samples"]],
            "op_cpu_s": [s["cpu_s"] for s in main["samples"]],
            "setup_s": [w["setup_s"] for w in workers],
        },
        "provenance": provenance.collect(ROOT, seed),
    }


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(result) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    prov = result["provenance"]
    print(f"  python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"nproc {prov['nproc']}, {prov['cpu_model']}, commit {prov['git_commit']}, "
          f"src lines {prov['src_lines']}, threads {prov['thread_env']}")
    for name, m in result["metrics"].items():
        extra = ""
        if m.get("percentile") is not None:
            extra = f"  (p{m['percentile']:g}, {m['beyond']} samples beyond)"
        elif "note" in m:
            extra = f"  ({m['note']})"
        print(f"  {name:34s} {_format(m['value']):>14s} {m['unit']:6s} n={m['n']}{extra}")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")


def contract_line(result, declared) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
            for name in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT, "results"),
                        help="directory for the result files")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "specpredict", "__init__.py")):
        print(f"error: no specpredict sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workloads = ops.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(args.results, exist_ok=True)
    lines = {}
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(args.results, name), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        print_table(result)
        lines[workload] = contract_line(result, declared)
    print(json.dumps(lines[workloads[0]] if len(workloads) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
