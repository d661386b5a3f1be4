#!/usr/bin/env python3
"""Tests of tools/ab_cli.py's exit codes and slowdown rule.

Runs ab_cli.py against fake CLIs: shell scripts that sleep, write a CSV
directory and print a scoring line.  A fake reads its pair index from
the run directory ab_cli.py hands it (`.../B-07/csv`), so a test can
decide per pair which side wins.  The tie cases call the rule directly:
two real runs never take the very same wall time.

    python3 tools/ab_cli_test.py
"""

import os
import shutil
import stat
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
AB_CLI = os.path.join(TOOLS, "ab_cli.py")
sys.path.insert(0, TOOLS)

import ab_cli  # noqa: E402

FAKE_CLI = """#!/bin/sh
# Fake `logdiver_cli analyze BUNDLE ... --csv DIR`.
for csv; do :; done
run=$(basename "$(dirname "$csv")")
pair=${run#*-}
pair=${pair#0}
set -- %(sleeps)s
shift "$pair"
[ "$1" = fail ] && exit 1
sleep "$1"
mkdir -p "$csv"
echo "metric,value" > "$csv/headline.csv"
echo "%(row)s" >> "$csv/headline.csv"
echo "system precision: 0.90 recall: 0.80"
"""


class AbCliTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="ab_cli_test_")
        self.bundle = os.path.join(self.dir, "bundle")
        os.makedirs(self.bundle)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def fake(self, name, sleeps, row="runs,100"):
        """A fake CLI sleeping sleeps[i] seconds in pair i ("fail" exits 1)."""
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            f.write(FAKE_CLI % {"sleeps": " ".join(map(str, sleeps)),
                                "row": row})
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def ab(self, a_cli, b_cli, pairs):
        proc = subprocess.run(
            [sys.executable, AB_CLI, a_cli, b_cli, self.bundle,
             "--pairs", str(pairs), "--", "--small"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout

    def test_slow_b_exits_3(self):
        code, out = self.ab(self.fake("a", [0] * 10),
                            self.fake("b", [0.1] * 10), 10)
        self.assertEqual(code, 3, out)
        self.assertIn("B significantly slower: lost 10/10", out)

    def test_identical_scripts_exit_0(self):
        cli = self.fake("a", [0.01] * 10)
        code, out = self.ab(cli, cli, 10)
        self.assertEqual(code, 0, out)
        self.assertIn("outputs identical", out)

    def test_different_csv_exits_1(self):
        # B is decisively faster, so only the output difference counts.
        code, out = self.ab(self.fake("a", [0.05] * 10),
                            self.fake("b", [0] * 10, row="runs,101"), 10)
        self.assertEqual(code, 1, out)

    def test_slow_and_different_csv_exits_3(self):
        code, out = self.ab(self.fake("a", [0] * 10),
                            self.fake("b", [0.1] * 10, row="runs,101"), 10)
        self.assertEqual(code, 3, out)

    def test_failing_run_exits_2_over_3(self):
        # B is slow in every pair it finishes, then fails in the last one.
        code, out = self.ab(self.fake("a", [0] * 10),
                            self.fake("b", [0.1] * 9 + ["fail"]), 10)
        self.assertEqual(code, 2, out)

    def test_three_pairs_give_no_verdict(self):
        code, out = self.ab(self.fake("a", [0] * 3),
                            self.fake("b", [0.1] * 3), 3)
        self.assertEqual(code, 0, out)
        self.assertIn("verdict: no verdict (fewer than 10 pairs)", out)

    def test_eight_lost_pairs_are_not_enough(self):
        # B loses pairs 0-7 by 0.2 s and wins pairs 8 and 9: the median
        # gap is large, but 8/10 is under the ceil(0.9 * 10) = 9 needed.
        code, out = self.ab(self.fake("a", [0.05] * 10),
                            self.fake("b", [0.25] * 8 + [0, 0]), 10)
        self.assertEqual(code, 0, out)
        self.assertIn("lost 8/10 pairs (slower needs >= 9)", out)

    def test_gap_within_a_spread_is_not_slower(self):
        # B is 0.05 s slower in every pair, but A's own runs spread by
        # 0.15 s between its quartiles.
        a = [0, 0, 0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.4, 0.4]
        code, out = self.ab(self.fake("a", a),
                            self.fake("b", [x + 0.05 for x in a]), 10)
        self.assertEqual(code, 0, out)
        self.assertIn("B not significantly slower", out)


class SlowerRuleTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        a = [1.0] * 10
        b = [1.5] * 8 + [1.0] * 2
        self.assertEqual(ab_cli.pair_wins(a, b), (8, 0, 2))
        slower, why = ab_cli.slower_verdict(a, b)
        self.assertFalse(slower, why)

    def test_nine_of_ten_with_a_gap_is_slower(self):
        a = [1.0] * 10
        b = [1.5] * 9 + [1.0]
        self.assertEqual(ab_cli.pair_wins(a, b), (9, 0, 1))
        self.assertTrue(ab_cli.slower_verdict(a, b)[0])

    def test_gap_must_exceed_the_spread(self):
        a = [1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.2, 1.2, 1.4, 1.4]
        self.assertFalse(ab_cli.slower_verdict(
            a, [x + 0.14 for x in a])[0])
        self.assertTrue(ab_cli.slower_verdict(
            a, [x + 0.16 for x in a])[0])

    def test_fewer_than_ten_pairs_give_none(self):
        self.assertIsNone(ab_cli.slower_verdict([1.0] * 9, [2.0] * 9)[0])


if __name__ == "__main__":
    unittest.main()
