"""Compare two sets of benchmark result files, one verdict per workload x metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --trace 0 --results
DIR`` (one file per run).  For every workload and every end-to-end metric in
``BENCHMARK.json`` the verdict is:

  better      the change wins at least 9/10 of the runs paired by seed (ties
              count for neither) and the medians differ by more than the
              base's interquartile distance; or, when the spread is wider
              than the bound, every change run reads better than every base run;
  worse       the change's median is worse than the base's by more than the bound;
  unchanged   neither, with both sides' spread (IQR / median) within the bound;
  unresolved  a side's spread is wider than the bound, or a side has no runs.

The latency metrics are not gated in ``BENCHMARK.json`` (their spread on
a shared 2-vCPU host exceeds any allowed bound); they are compared here too,
marked ``advisory``, against ``ADVISORY_BOUND``, so a noisy result reads
``unresolved`` rather than ``unchanged``.

Exits 1 when any gated verdict is ``worse``, else 0.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from summary import median, quartiles, relative_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
ADVISORY_BOUND = 0.25  # the largest bound BENCHMARK.json may give a metric
ADVISORY = (
    {"name": "op_p50_ms", "better": "lower"},
    {"name": "ops_per_s", "better": "higher"},
    {"name": "op_cpu_p50_ms", "better": "lower"},
)


def load(directory: str) -> dict:
    """workload -> seed -> {metric: value} from the untraced result files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result.get("trace") != 0:
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.setdefault(result["workload"], {})[result["seed"]] = values
    return runs


def verdict(base, change, better: str, bound: float, pairs) -> str:
    """``base``/``change``: per-run values; ``pairs``: (base, change) by seed."""
    if not base or not change:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0

    def improves(b, c):
        return sign * (b - c) > 0

    mb, mc = median(base), median(change)
    spread = max(relative_spread(base), relative_spread(change))
    if spread > bound:
        return "better" if all(improves(b, c) for b in base for c in change) else "unresolved"
    q1, _, q3 = quartiles(base)
    wins = sum(1 for b, c in pairs if improves(b, c))
    if pairs and wins >= WIN_SHARE * len(pairs) and sign * (mb - mc) > q3 - q1:
        return "better"
    if sign * (mc - mb) > bound * abs(mb):
        return "worse"
    return "unchanged"


def compare(base_runs, change_runs, metrics) -> list:
    rows = []
    for workload in sorted(set(base_runs) | set(change_runs)):
        b_runs, c_runs = base_runs.get(workload, {}), change_runs.get(workload, {})
        seeds = sorted(set(b_runs) & set(c_runs))
        for m in metrics:
            name = m["name"]
            base = [r[name] for r in b_runs.values()]
            change = [r[name] for r in c_runs.values()]
            pairs = [(b_runs[s][name], c_runs[s][name]) for s in seeds]
            rows.append({
                "workload": workload,
                "metric": name,
                "base": base,
                "change": change,
                "pairs": len(pairs),
                "verdict": verdict(base, change, m["better"], m["bound"], pairs),
            })
    return rows


def _cell(values) -> str:
    if not values:
        return "-"
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = json.load(fh)["end_to_end"]
    names = {m["name"] for m in gated}
    advisory = [dict(m, bound=ADVISORY_BOUND) for m in ADVISORY if m["name"] not in names]
    rows = compare(load(argv[0]), load(argv[1]), gated + advisory)
    print(f"{'workload':18s} {'metric':14s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'pairs':>5s}  verdict")
    for row in rows:
        note = "" if row["metric"] in names else " (advisory)"
        print(f"{row['workload']:18s} {row['metric']:14s} {_cell(row['base']):34s} "
              f"{_cell(row['change']):34s} {row['pairs']:5d}  {row['verdict']}{note}")
    return 1 if any(row["verdict"] == "worse" and row["metric"] in names for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
