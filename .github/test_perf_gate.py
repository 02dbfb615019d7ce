"""Tests of the perf gate's decision (perf_gate.judge).

    python3 -m unittest discover -s .github -p test_perf_gate.py
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_gate  # noqa: E402

BOUND = 0.25  # BENCHMARK.json's sweep_s bound


def row(side, seed, sweep_s):
    return {"side": side, "seed": seed, "exit": 0, "correct": True,
            "attempted": 15, "failed": 0, "sweep_s": sweep_s}


def pairs(parent_s, change_s):
    """Five pairs; rows[2 * i] is the parent run of seed 500 + i and
    rows[2 * i + 1] the change run."""
    rows = []
    for i in range(5):
        rows.append(row("parent", 500 + i, parent_s + 0.01 * i))
        rows.append(row("change", 500 + i, change_s + 0.01 * i))
    return rows


class Judge(unittest.TestCase):
    def test_twenty_percent_slower_passes(self):
        problems, notes, medians = perf_gate.judge(pairs(10.0, 12.0), BOUND)
        self.assertEqual((problems, notes), ([], []))
        self.assertAlmostEqual(medians["change"] / medians["parent"], 1.2,
                               places=2)

    def test_thirty_percent_slower_fails(self):
        problems, _, _ = perf_gate.judge(pairs(10.0, 13.0), BOUND)
        self.assertEqual(len(problems), 1)
        self.assertIn("past the 25% bound", problems[0])

    def test_one_incorrect_run_fails(self):
        rows = pairs(10.0, 10.0)
        rows[3].update(correct=False, failed=1)
        problems, _, _ = perf_gate.judge(rows, BOUND)
        self.assertEqual(problems, ['change run, seed 501: "correct": false, '
                                    "the parent's true"])

    def test_larger_failed_share_fails(self):
        rows = pairs(10.0, 10.0)
        rows[0].update(correct=False, failed=1)
        rows[1].update(correct=False, failed=2, attempted=12)
        problems, _, _ = perf_gate.judge(rows, BOUND)
        self.assertEqual(problems, ["change run, seed 500: failed 2 of 12 "
                                    "operations, the parent 1 of 15"])

    def test_same_failures_on_both_sides_pass_with_a_note(self):
        # A seed whose check fails on the base as well: the same share of
        # operations over a different number of repetitions.
        rows = pairs(10.0, 10.0)
        rows[8].update(correct=False, failed=10, attempted=15)
        rows[9].update(correct=False, failed=8, attempted=12)
        problems, notes, _ = perf_gate.judge(rows, BOUND)
        self.assertEqual(problems, [])
        self.assertEqual(notes, ['seed 504: "correct": false on both sides'])


if __name__ == "__main__":
    unittest.main()
