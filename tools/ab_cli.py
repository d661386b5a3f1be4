#!/usr/bin/env python3
"""Interleaved same-host A/B of two logdiver_cli builds on one bundle.

Usage:
    tools/ab_cli.py A_CLI B_CLI BUNDLE [--pairs 10] [--work DIR]
        [-- ANALYZE_FLAGS...]

Runs `CLI analyze BUNDLE ANALYZE_FLAGS --csv DIR` once per side per
pair, alternating which side runs first (A first in even pairs, B first
in odd ones) so drift on a shared host lands on both sides alike.  In
ANALYZE_FLAGS, `{run}` expands to a fresh empty directory per run, e.g.
`-- --threads 1` or `-- --snapshot-dir {run}/snaps` or
`-- --bundle-cache-dir {run}/cache` (a cold cache every run).

Prints each side's wall-time median and quartiles, how many pairs each
side won (strictly faster), and how many pairs tied.

With at least 10 pairs it also gives a verdict: B is significantly
slower when B lost at least ceil(0.9 * pairs) pairs (ties count for
neither side) and median(B) - median(A) exceeds A's quartile spread
(Q3 - Q1).  Fewer pairs give no verdict.

Exit codes, highest precedence first: 2 if a run fails, 3 if B is
significantly slower, 1 if, in any pair, the ten CSV exports or the
ground-truth scoring line differ between the sides, 0 otherwise.
"""

import argparse
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SCORE_PREFIX = "system precision:"
MIN_VERDICT_PAIRS = 10


def digest_dir(path):
    """Maps each file under `path` (relative name) to its sha256."""
    out = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, path)] = hashlib.sha256(
                    f.read()).hexdigest()
    return out


def score_line(stdout):
    for line in stdout.splitlines():
        if line.startswith(SCORE_PREFIX):
            return line
    return None


def run_side(cli, bundle, flags, run_dir):
    os.makedirs(run_dir)
    csv_dir = os.path.join(run_dir, "csv")
    cmd = [cli, "analyze", bundle]
    cmd += [f.replace("{run}", run_dir) for f in flags]
    cmd += ["--csv", csv_dir]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return wall, digest_dir(csv_dir), score_line(proc.stdout)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def pair_wins(a_walls, b_walls):
    """(pairs A won, pairs B won, ties): only a strictly faster side wins."""
    a_won = sum(a < b for a, b in zip(a_walls, b_walls))
    b_won = sum(b < a for a, b in zip(a_walls, b_walls))
    return a_won, b_won, len(a_walls) - a_won - b_won


def slower_verdict(a_walls, b_walls):
    """(True if B is significantly slower, False if not, None below
    MIN_VERDICT_PAIRS pairs; and the line that explains it)."""
    pairs = len(a_walls)
    if pairs < MIN_VERDICT_PAIRS:
        return None, "no verdict (fewer than %d pairs)" % MIN_VERDICT_PAIRS
    b_lost = pair_wins(a_walls, b_walls)[0]
    need = (9 * pairs + 9) // 10  # ceil(0.9 * pairs)
    q1, q3 = quartiles(a_walls)
    gap = statistics.median(b_walls) - statistics.median(a_walls)
    slower = b_lost >= need and gap > q3 - q1
    return slower, ("B %s: lost %d/%d pairs (slower needs >= %d) and "
                    "median gap %+.3f s against A quartile spread %.3f s" %
                    ("significantly slower" if slower else
                     "not significantly slower", b_lost, pairs, need, gap,
                     q3 - q1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a_cli")
    parser.add_argument("b_cli")
    parser.add_argument("bundle")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--work", help="scratch directory (default: a temp "
                        "directory, removed afterwards)")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    flags = argv[split + 1:]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = args.work or tempfile.mkdtemp(prefix="ab_cli_")
    os.makedirs(work, exist_ok=True)
    sides = {"A": args.a_cli, "B": args.b_cli}
    walls = {"A": [], "B": []}
    mismatches = []
    try:
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            result = {}
            for side in order:
                run_dir = os.path.join(work, "%s-%02d" % (side, i))
                shutil.rmtree(run_dir, ignore_errors=True)
                result[side] = run_side(sides[side], args.bundle, flags,
                                        run_dir)
                shutil.rmtree(run_dir, ignore_errors=True)
            for side in sides:
                walls[side].append(result[side][0])
            if result["A"][1] != result["B"][1]:
                differ = sorted(name for name in set(result["A"][1]) |
                                set(result["B"][1])
                                if result["A"][1].get(name) !=
                                result["B"][1].get(name))
                mismatches.append("pair %d: CSV differs: %s" %
                                  (i, ", ".join(differ)))
            if result["A"][2] != result["B"][2]:
                mismatches.append("pair %d: scoring line differs:\n  A: %s\n"
                                  "  B: %s" % (i, result["A"][2],
                                               result["B"][2]))
            print("pair %2d (%s first): A %.3f s  B %.3f s" %
                  (i, order[0], result["A"][0], result["B"][0]), flush=True)
    except RuntimeError as e:
        print("ab_cli: run failed: %s" % e, file=sys.stderr)
        return 2
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)

    a_won, b_won, ties = pair_wins(walls["A"], walls["B"])
    for side, won in (("A", a_won), ("B", b_won)):
        q1, q3 = quartiles(walls[side])
        print("%s: median %.3f s  quartiles %.3f / %.3f s  pairs won %d/%d"
              "  (%s)" % (side, statistics.median(walls[side]), q1, q3,
                          won, args.pairs, sides[side]))
    print("tied pairs (won by neither side): %d" % ties)
    slower, why = slower_verdict(walls["A"], walls["B"])
    print("verdict: %s" % why)
    if mismatches:
        print("\n".join(mismatches), file=sys.stderr)
    else:
        print("outputs identical: CSV exports and scoring line")
    if slower:
        return 3
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
