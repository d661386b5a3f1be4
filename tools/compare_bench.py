#!/usr/bin/env python3
"""Perf-regression gate over two google-benchmark JSON files.

Usage:
    tools/compare_bench.py BASELINE.json CANDIDATE.json [--threshold 0.10]
        [--max-rss-mb NAME=MB] [--min-speedup SLOW_NAME,FAST_NAME,RATIO]

Matches benchmarks by name and computes the geometric mean of the
candidate/baseline real-time ratios across every benchmark present in
both files.  Exits non-zero when that geomean exceeds 1 + threshold
(default: a 10% slowdown) — single-benchmark jitter is tolerated, a
broad slowdown is not.

Two absolute gates run on the *candidate* file alone (repeatable; all
violations are reported before the gate fails):

  --max-rss-mb NAME=MB                the row's rss_mb counter must not
                                      exceed MB (a peak-memory ceiling).
  --min-speedup SLOW,FAST,RATIO       real_time(SLOW) / real_time(FAST)
                                      must be at least RATIO — e.g. the
                                      warm parsed-bundle-cache run must
                                      be 5x the cold one.

The CI release job runs this with the committed BENCH_*.json baseline
against numbers it just regenerated on its own runner, so the
comparison is same-host in steady state: the committed baseline is
refreshed whenever a PR intentionally changes performance, and the gate
catches the PRs that change it unintentionally.  Benchmarks present in
only one file (added or removed since the baseline) are reported but
never fail the gate; a row *named* by an absolute gate, though, must
exist in the candidate.
"""

import argparse
import json
import math
import pathlib
import sys


def load_benchmarks(path: pathlib.Path) -> dict[str, dict[str, float]]:
    """Benchmark name -> {time_ns, rss_mb?}."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    doc = json.loads(path.read_text(encoding="utf-8"))
    rows: dict[str, dict[str, float]] = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev of repetitions) would be
        # double-counted next to their iteration rows; skip them.
        if bench.get("run_type") == "aggregate":
            continue
        # Rows the benchmark skipped (SkipWithError) carry no
        # meaningful timing; drop them so gates treat the name as absent.
        if bench.get("error_occurred"):
            print(f"note: skipping {bench.get('name')} in {path}: "
                  f"{bench.get('error_message', 'benchmark reported an error')}")
            continue
        # A hand-edited or truncated baseline can carry entries without
        # the keys this gate needs; skip them visibly rather than dying
        # with a stack trace mid-CI.
        name = bench.get("name")
        real_time = bench.get("real_time")
        time_unit = bench.get("time_unit")
        if name is None or real_time is None or time_unit not in scale:
            label = name if name is not None else "<unnamed entry>"
            print(f"note: skipping {label} in {path}: missing or "
                  f"unrecognized name/real_time/time_unit")
            continue
        row = {"time_ns": real_time * scale[time_unit]}
        rss_mb = bench.get("rss_mb")
        if isinstance(rss_mb, (int, float)):
            row["rss_mb"] = float(rss_mb)
        rows[name] = row
    return rows


def parse_name_value(spec: str, flag: str) -> tuple[str, float]:
    name, sep, value = spec.rpartition("=")
    if not sep or not name:
        raise SystemExit(f"error: {flag} wants NAME=VALUE, got {spec!r}")
    try:
        return name, float(value)
    except ValueError:
        raise SystemExit(f"error: {flag}: {value!r} is not a number")


def absolute_gates(args, candidate: dict[str, dict[str, float]]) -> int:
    """Runs the candidate-only gates; returns the number of violations."""
    failures = 0

    def missing(name: str, what: str) -> bool:
        nonlocal failures
        if name not in candidate:
            print(f"FAIL: {what} names {name}, absent from the candidate")
            failures += 1
            return True
        return False

    for spec in args.max_rss_mb:
        name, ceiling = parse_name_value(spec, "--max-rss-mb")
        if missing(name, "--max-rss-mb"):
            continue
        got = candidate[name].get("rss_mb")
        if got is None:
            print(f"FAIL: {name} reports no rss_mb counter")
            failures += 1
        elif got > ceiling:
            print(f"FAIL: {name} peaked at {got:.0f} MB RSS, ceiling is "
                  f"{ceiling:.0f} MB")
            failures += 1
        else:
            print(f"ok: {name} peaked at {got:.0f} MB RSS "
                  f"(ceiling {ceiling:.0f} MB)")

    for spec in args.min_speedup:
        parts = spec.split(",")
        if len(parts) != 3:
            raise SystemExit(
                f"error: --min-speedup wants SLOW,FAST,RATIO, got {spec!r}")
        slow, fast = parts[0], parts[1]
        try:
            ratio_floor = float(parts[2])
        except ValueError:
            raise SystemExit(
                f"error: --min-speedup: {parts[2]!r} is not a number")
        if missing(slow, "--min-speedup") or missing(fast, "--min-speedup"):
            continue
        ratio = candidate[slow]["time_ns"] / candidate[fast]["time_ns"]
        if ratio < ratio_floor:
            print(f"FAIL: {fast} is only {ratio:.2f}x faster than {slow}, "
                  f"floor is {ratio_floor:.2f}x")
            failures += 1
        else:
            print(f"ok: {fast} is {ratio:.2f}x faster than {slow} "
                  f"(floor {ratio_floor:.2f}x)")

    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed geomean slowdown as a fraction (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--max-rss-mb",
        action="append",
        default=[],
        metavar="NAME=MB",
        help="candidate row NAME's rss_mb counter must not exceed MB",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="SLOW,FAST,RATIO",
        help="candidate real_time(SLOW)/real_time(FAST) must be >= RATIO",
    )
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    candidate = load_benchmarks(args.candidate)
    if not baseline:
        print(f"error: no benchmarks in baseline {args.baseline}")
        return 2

    shared = sorted(baseline.keys() & candidate.keys())
    for name in sorted(baseline.keys() - candidate.keys()):
        print(f"note: only in baseline (removed?): {name}")
    for name in sorted(candidate.keys() - baseline.keys()):
        print(f"note: only in candidate (new?): {name}")
    if not shared:
        print("error: no benchmark names in common; nothing to compare")
        return 2

    width = max(len(name) for name in shared)
    log_sum = 0.0
    for name in shared:
        ratio = candidate[name]["time_ns"] / baseline[name]["time_ns"]
        log_sum += math.log(ratio)
        print(f"{name:<{width}}"
              f"  baseline {baseline[name]['time_ns'] / 1e6:10.3f} ms"
              f"  candidate {candidate[name]['time_ns'] / 1e6:10.3f} ms"
              f"  ratio {ratio:6.3f}")
    geomean = math.exp(log_sum / len(shared))
    limit = 1.0 + args.threshold

    print(f"\ngeomean ratio over {len(shared)} shared benchmarks: "
          f"{geomean:.3f} (limit {limit:.3f})")
    failed = False
    if geomean > limit:
        print(f"FAIL: candidate is {(geomean - 1.0) * 100:.1f}% slower than "
              f"the baseline (threshold {args.threshold * 100:.0f}%)")
        failed = True

    if absolute_gates(args, candidate) > 0:
        failed = True
    if failed:
        return 1
    print("OK: within the regression threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
