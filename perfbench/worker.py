"""One workload process: set up, warm up, then a closed loop of timed ops.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M --workdir DIR

with PYTHONPATH leading to the checkout's ``src/``.

Modes:
  setup  set up and warm up, report when the first timed op would start;
  run    also time ops for S seconds and repeat op 0 as a determinism probe;
  trace  run each op untraced and traced, alternating which goes first, for
         S seconds (and at least ``TRACED_MIN_OPS`` ops); report per-layer
         metrics from the traced runs and the overhead from the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import ops
import spans
from summary import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# counts are medians over the first this-many traced ops, so they repeat
# exactly for a seed; witness_scan's is a multiple of len(ops.POLE_SETS)
TRACED_MIN_OPS = {"convergence_study": 6, "witness_scan": 30, "predict_cli": 3}
UNTRACED_MIN_OPS = 3


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


class Runner:
    def __init__(self, workload, seed, workdir, root):
        self.workload = workload
        self.seed = seed
        self.import_ms = None
        if workload != "predict_cli":
            start = time.perf_counter()
            import specpredict  # noqa: F401

            self.import_ms = 1e3 * (time.perf_counter() - start)
        self.op = ops.make(workload, root, workdir)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference_digest = None
        self.recorder = None

    def execute(self, index: int, tag=None):
        """Run op ``index``, check it; returns (wall s, cpu s, ok)."""
        inp = ops.op_input(self.workload, self.seed, index)
        if self.recorder is not None:
            self.recorder.op = tag
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = self.op.run(inp)
        except Exception:
            out = None
            problems = [traceback.format_exc(limit=3)]
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if self.recorder is not None:
            self.recorder.op = None
        if out is not None:
            problems = self.op.check(out)
            if index == 0:
                digest = self.op.digest(out)
                if self.reference_digest is None:
                    self.reference_digest = digest
                elif digest != self.reference_digest:
                    problems.append("op 0 output differs from its first occurrence in this run")
            self.op.cleanup(out)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index}: {p}" for p in problems[:3])
        return wall, cpu, not problems

    def loop(self, seconds: float, min_ops: int):
        """Closed loop with one client over ops 0, 1, 2, ..."""
        samples = []
        start = time.perf_counter()
        index = 0
        while index < min_ops or time.perf_counter() - start < seconds:
            wall, cpu, ok = self.execute(index)
            samples.append({"index": index, "wall_s": wall, "cpu_s": cpu, "ok": ok})
            index += 1
        return samples

    def paired_loop(self, seconds: float, min_ops: int):
        """Like :meth:`loop`, but each op runs both untraced and traced, so the
        pairs share inputs and machine conditions; the first side alternates."""
        if self.workload == "predict_cli":
            switch = self.op.set_traced
        else:
            self.recorder = spans.Recorder()
            bindings = spans.install(self.recorder)

            def switch(on):
                spans.activate(bindings, on)

        untraced, traced = [], []
        start = time.perf_counter()
        index = 0
        while index < min_ops or time.perf_counter() - start < seconds:
            for on in (False, True) if index % 2 == 0 else (True, False):
                switch(on)
                wall, cpu, ok = self.execute(index, tag=index if on else None)
                sample = {"index": index, "wall_s": wall, "cpu_s": cpu, "ok": ok}
                if on and self.workload == "predict_cli":
                    sample["child"] = self.op.last_spans
                (traced if on else untraced).append(sample)
            index += 1
        switch(False)
        return untraced, traced


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "predict_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def traced_layers(runner: Runner, samples, untraced, spans_path: str) -> dict:
    """Per-op layer metrics of the traced ops, their spans written to
    ``spans_path``, and the overhead as the median traced/untraced ratio of
    the pairs."""
    per_op, all_spans = [], []
    for sample in samples:
        if runner.workload == "predict_cli":
            child = sample["child"]
            op_spans = child["spans"]
            for span in op_spans:
                span["op"] = sample["index"]
            extra = {"cli.import_ms": child["import_ms"], "cli.process_ms": child["process_ms"]}
        else:
            op_spans = [s for s in runner.recorder.spans if s["op"] == sample["index"]]
            extra = {"cli.import_ms": runner.import_ms, "cli.process_ms": 0.0}
        metrics = spans.op_metrics(op_spans)
        metrics.update(extra)
        per_op.append(metrics)
        all_spans.append(op_spans)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(all_spans, fh)
    layers = spans.layer_summary(per_op, TRACED_MIN_OPS[runner.workload])
    layers["trace.overhead"] = median([t["wall_s"] / u["wall_s"] for t, u in zip(samples, untraced)])
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.workdir, ROOT)
    runner.execute(0)  # untimed warm-up; also the first occurrence of op 0
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if args.mode == "run":
        result["samples"] = runner.loop(args.seconds, UNTRACED_MIN_OPS)
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    elif args.mode == "trace":
        untraced, traced = runner.paired_loop(args.seconds, TRACED_MIN_OPS[args.workload])
        spans_path = os.path.join(args.workdir, "spans.json")
        result["layers"] = traced_layers(runner, traced, untraced, spans_path)
        result["layer_ops"] = {"counts": TRACED_MIN_OPS[args.workload], "times": len(traced)}
        result["samples"] = untraced
    if args.mode != "setup":
        runner.execute(0)  # determinism probe: must match the warm-up's output
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
