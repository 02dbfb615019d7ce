#!/usr/bin/env python3
"""Performance gate: this checkout against a base revision, on one machine.

    python3 .github/perf_gate.py <base-revision>

Adds a detached git worktree of the base revision and runs the repository
benchmark, perfbench/run.py, from each tree in alternating pairs: pair i runs
both sides with seed 500 + i, and the side that runs first alternates.  For
each workload it prints every run and both sides' sweep_s medians.  It exits 1
when a run exits non-zero or prints no result line, when a change run reads
"correct": false or fails a larger share of its operations than the parent
run with the same seed, or when the change's sweep_s median exceeds the
parent's by more than BENCHMARK.json's sweep_s bound.  A seed on which both
sides read "correct": false is printed, not failed: perfbench's results are
a function of the seed, so a check the base fails as well is a defect the
change did not introduce.  The worktree is removed at the end.

Only pairs taken on one machine at one time can gate: unchanged code's
sweep_s has moved by 22-51% between benchmark checks taken at different
times.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sim times the simulation executor and fig12_warm the fig-12 sweep.  Five
# pairs of each is 20 runs of about 25 s (BENCHMARK.json's run_seconds plus
# set-up), which keeps the gate near ten minutes.  setup_s is not gated (it
# is microseconds and bimodal on sim); peak_rss_mb and the other workloads
# are left to the benchmark's own parent/change check.
WORKLOADS = ("sim", "fig12_warm")
PAIRS = 5
FIRST_SEED = 500
METRIC = "sweep_s"


def run(tree, side, workload, seed, seconds):
    """One untraced perfbench run of `tree`, as the row the gate judges."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True)
    row = {"side": side, "seed": seed, "exit": proc.returncode,
           "correct": None, "attempted": 0, "failed": 0, METRIC: None}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if "correct" in result:
        row.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"])
        row[METRIC] = result["metrics"][METRIC]["value"]
    else:
        row["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return row


def seconds_text(value):
    return "-" if value is None else f"{value:.3f} s"


def failed_share(row):
    return Fraction(row["failed"], max(1, row["attempted"]))


def judge(rows, bound):
    """The decision for one workload's runs: (problems, notes, medians by
    side).  No problems means the change passes; notes report seeds that
    read "correct": false on both sides."""
    problems, notes = [], []
    pairs = {}
    for r in rows:
        if r["exit"] != 0 or r[METRIC] is None:
            problems.append(f"{r['side']} run, seed {r['seed']}: exit "
                            f"{r['exit']}, no result line "
                            f"({r.get('error', '')})")
        else:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
    for seed, pair in sorted(pairs.items()):
        if len(pair) < 2:
            continue  # the missing run is a problem already
        parent, change = pair["parent"], pair["change"]
        if change["correct"] is not True and parent["correct"] is True:
            problems.append(f"change run, seed {seed}: \"correct\": false, "
                            "the parent's true")
        elif failed_share(change) > failed_share(parent):
            problems.append(f"change run, seed {seed}: failed "
                            f"{change['failed']} of {change['attempted']} "
                            f"operations, the parent {parent['failed']} of "
                            f"{parent['attempted']}")
        if change["correct"] is not True and parent["correct"] is not True:
            notes.append(f"seed {seed}: \"correct\": false on both sides")
    medians = {}
    for side in ("parent", "change"):
        values = [r[METRIC] for r in rows
                  if r["side"] == side and r[METRIC] is not None]
        medians[side] = statistics.median(values) if values else None
    parent, change = medians["parent"], medians["change"]
    if parent and change and change > parent * (1.0 + bound):
        problems.append(f"{METRIC} median {change:.3f} s is "
                        f"{change / parent - 1.0:+.1%} against the parent's "
                        f"{parent:.3f} s, past the {bound:.0%} bound")
    return problems, notes, medians


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: perf_gate.py <base-revision>")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == METRIC)
    scratch = Path(tempfile.mkdtemp(prefix="perf_gate-"))
    base = scratch / "parent"
    trees = {"parent": base, "change": ROOT}
    failed = False
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                        "--detach", str(base), sys.argv[1]], check=True)
        for workload in WORKLOADS:
            rows = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else \
                        ("change", "parent")
                for side in order:
                    r = run(trees[side], side, workload, FIRST_SEED + i,
                            seconds)
                    rows.append(r)
                    print(f"{workload:<10} {side:<6} seed {r['seed']}  "
                          f"{METRIC} {seconds_text(r[METRIC]):>9}  correct "
                          f"{json.dumps(r['correct'])}  exit {r['exit']}",
                          flush=True)
            problems, notes, medians = judge(rows, bound)
            print(f"{workload}: {METRIC} median parent "
                  f"{seconds_text(medians['parent'])}, change "
                  f"{seconds_text(medians['change'])}")
            for note in notes:
                print(f"{workload}: note: {note}")
            for p in problems:
                print(f"{workload}: FAIL: {p}")
            failed = failed or bool(problems)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(base)])
        shutil.rmtree(scratch, ignore_errors=True)
    print("perf gate:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
