#!/usr/bin/env python3
"""Validates BENCH_<name>.json reports emitted by bench/bench_report.h.

Usage: check_bench_json.py FILE [FILE...]
       check_bench_json.py --check-experiments [REPO_ROOT]

Each report must be valid JSON with:
  - "bench": non-empty string matching the BENCH_<name>.json filename
  - "schema_version": integer
  - "nproc": positive integer (host shape)
  - "build_type": non-empty string (the CMake build type)
  - "wall_time_seconds": non-negative number
  - "counters": object with at least MIN_COUNTERS integer entries
  - "results": numeric headline values; optional in general but required
    (non-empty) for the benches in REQUIRE_RESULTS, with the keys listed
    in REQUIRE_KEYS

Exits 1 on the first malformed report; CI runs this over the smoke-mode
bench artifacts so a bench that stops reporting fails the build.

--check-experiments cross-checks EXPERIMENTS.md instead: every
`bench/<name>` reference in the prose must correspond to an actual
bench/<name>.cc source, so renaming or deleting a bench without updating
the experiment log fails the build.
"""

import json
import os
import re
import sys

MIN_COUNTERS = 6

# Benches whose reports must carry a non-empty structured "results" object
# (headline numbers, diffable pre/post by key). A bench on this list that
# silently stops calling AddResult fails CI even in smoke mode.
REQUIRE_RESULTS = {
    "server_throughput",
    "token_ops",
    "bulk_transitions",
    "scan_throughput",
    "join_scaling",
    "fig10_two_var_rules",
    "fig11_three_var_rules",
    "virtual_alpha",
    "treat_vs_atreat",
    "txn_overhead",
}

# Result keys (or key prefixes, ending in "_n": one key per emp count) a
# bench must report, smoke mode included.
REQUIRE_KEYS = {
    "txn_overhead": [
        "commit_overhead_pct_b0",
        "commit_overhead_pct_b1024",
        "abort_us_per_record_b0_n",
        "abort_us_per_record_b1024_n",
    ],
}

# `bench/<name>` where the path ends at the name (excludes directories
# like bench/results/... via the trailing-slash lookahead).
BENCH_REF_RE = re.compile(r"\bbench/([A-Za-z0-9_]+)(?![A-Za-z0-9_/])")


def fail(path: str, message: str) -> None:
    print(f"check_bench_json: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def check(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(report, dict):
        fail(path, "top level is not an object")

    bench = report.get("bench")
    if not isinstance(bench, str) or not bench:
        fail(path, '"bench" missing or not a non-empty string')
    expected = f"BENCH_{bench}.json"
    if os.path.basename(path) != expected:
        fail(path, f'filename does not match "bench" field (want {expected})')

    if not isinstance(report.get("schema_version"), int):
        fail(path, '"schema_version" missing or not an integer')

    nproc = report.get("nproc")
    if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 1:
        fail(path, '"nproc" missing or not a positive integer')

    build_type = report.get("build_type")
    if not isinstance(build_type, str) or not build_type:
        fail(path, '"build_type" missing or not a non-empty string')

    wall = report.get("wall_time_seconds")
    if not isinstance(wall, (int, float)) or isinstance(wall, bool) or wall < 0:
        fail(path, '"wall_time_seconds" missing or not a non-negative number')

    results = report.get("results")
    if results is not None:
        if not isinstance(results, dict):
            fail(path, '"results" present but not an object')
        bad = [k for k, v in results.items()
               if not isinstance(v, (int, float)) or isinstance(v, bool)]
        if bad:
            fail(path, f"non-numeric results: {', '.join(sorted(bad))}")
    if bench in REQUIRE_RESULTS and not results:
        fail(path, f'"{bench}" must report a non-empty "results" object '
                   "(BenchReporter::AddResult)")
    for key in REQUIRE_KEYS.get(bench, []):
        found = (any(k.startswith(key) for k in results) if key.endswith("_n")
                 else key in results)
        if not found:
            fail(path, f'"{bench}" results lack "{key}"'
                       + ("…" if key.endswith("_n") else ""))

    counters = report.get("counters")
    if not isinstance(counters, dict):
        fail(path, '"counters" missing or not an object')
    bad = [k for k, v in counters.items()
           if not isinstance(v, int) or isinstance(v, bool) or v < 0]
    if bad:
        fail(path, f"non-integer counter values: {', '.join(sorted(bad))}")
    if len(counters) < MIN_COUNTERS:
        fail(path,
             f"only {len(counters)} counters reported (need >= {MIN_COUNTERS})")

    print(f"check_bench_json: {path}: ok "
          f"({len(counters)} counters, {wall:.3f}s, nproc {nproc}, "
          f"{build_type})")


def check_experiments(root: str) -> int:
    experiments = os.path.join(root, "EXPERIMENTS.md")
    try:
        with open(experiments, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"check_bench_json: {experiments}: {e}", file=sys.stderr)
        return 1

    names = sorted(set(BENCH_REF_RE.findall(text)))
    missing = [n for n in names
               if not os.path.exists(os.path.join(root, "bench", f"{n}.cc"))]
    if missing:
        for name in missing:
            print(f"check_bench_json: EXPERIMENTS.md references bench/{name} "
                  f"but bench/{name}.cc does not exist", file=sys.stderr)
        return 1
    print(f"check_bench_json: EXPERIMENTS.md: ok "
          f"({len(names)} bench references, all sources present)")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "--check-experiments":
        default_root = os.path.dirname(os.path.dirname(os.path.abspath(
            argv[0])))
        return check_experiments(argv[2] if len(argv) > 2 else default_root)
    for path in argv[1:]:
        check(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
