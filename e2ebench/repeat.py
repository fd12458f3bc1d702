#!/usr/bin/env python3
"""Runs one workload over several seeds and summarises each metric.

    python3 e2ebench/repeat.py --workload server_mix --seeds 1-10 \
        [--seconds 10] [--trace 0]

For every metric of the result line it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
interquartile distance as a share of the median. With --trace 0 each
spread is compared with the metric's bound in BENCHMARK.json: a spread
above a third of its bound is flagged, since two sets of runs must agree
within the bound. setup_s is exempt from the spread check (its runs are
compared by median only). Exits 1 when any run fails or is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, bad = [], 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        bad += not ok
        print("seed %d: exit %d correct %s attempted %s failed %s" %
              (seed, proc.returncode, result.get("correct"),
               result.get("attempted"), result.get("failed")), flush=True)
        if result:
            runs.append(result["metrics"])

    if len(runs) < 2:
        print("fewer than two results; nothing to summarise")
        return 1
    flagged = 0
    print("%-34s %14s %14s %14s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "per run"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs if name in r]
        med, q1, q3, spread = summarise(values)
        bound = bounds.get(name)
        mark = ""
        if args.trace == 0 and bound is not None and name != "setup_s" \
                and spread > bound / 3:
            mark = "  <-- above bound/3"
            flagged += 1
        print("%-34s %14.6g %14.6g %14.6g %8.4f %6s  %s%s" %
              (name, med, q1, q3, spread, bound if bound else "-",
               " ".join("%.4g" % v for v in values), mark))
    return 1 if bad or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
