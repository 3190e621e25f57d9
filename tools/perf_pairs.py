#!/usr/bin/env python3
"""Time two smarco_perfbench builds in alternating pairs.

Usage (from the repository root):

    python3 tools/perf_pairs.py PARENT_BIN CHANGE_BIN \
        --workloads cdn-overload,xeon-htc --seeds 1,1009 --pairs 10

For every workload and seed, runs each binary once per pair, by turns,
with the side that goes first alternating from pair to pair, and
pinned to one CPU with taskset when taskset is installed. Both
binaries are first copied to temporary paths of equal length: the
path is in the process's argv and environment, which shifts stack
alignment, and a binary timed against its own copy at a shorter path
has read run_s 1.6% apart.

A pair's metrics come from one repetition of each side (--reps 1), or
from --reps repetitions each, estimated the way perfbench/run.py does
(the host time of each simulated slice at its fastest, summed). For
each metric and side the script prints the median, the quartiles, the
minimum and the pairs won (ties count for neither), then a verdict:
the change gains on a metric when it wins at least 9 of every 10
pairs and its median is better than the parent's by more than the
parent's interquartile range. Every pair must print the same stats
digest on both sides; the script exits 1 if one does not.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# (name, better) of each metric a pair compares.
METRICS = (("sim_mops_per_s", "higher"), ("sim_kcycles_per_s", "higher"),
           ("run_s", "lower"), ("setup_s", "lower"))


def run_once(binary, workload, seed, pin):
    """One fresh process; returns its parsed JSON report."""
    cmd = pin + [binary, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: {' '.join(cmd)} exited {proc.returncode}:"
                 f"\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def side_metrics(reps):
    """Metrics of one side of a pair from its repetitions."""
    slices = [r["host"]["slices_s"] for r in reps]
    run_s = sum(min(times) for times in zip(*slices))
    sim = reps[0]["sim"]
    return {
        "sim_mops_per_s": sim["ops"] / run_s / 1e6,
        "sim_kcycles_per_s": sim["cycles"] / run_s / 1e3,
        "run_s": run_s,
        "setup_s": statistics.median(r["host"]["setup_s"] for r in reps),
    }


def quartiles(values):
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(title, pairs):
    """Print one workload and seed's table and verdicts."""
    print(f"\n{title}: {len(pairs)} pairs")
    print(f"  {'metric':<18} {'side':<7} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'won':>4}")
    verdicts = []
    for name, better in METRICS:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if better == "higher" else -1
        change_won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        parent_won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        stats = {}
        for side, values, won in (("parent", parent, parent_won),
                                  ("change", change, change_won)):
            q1, med, q3 = quartiles(values)
            stats[side] = (q1, med, q3)
            print(f"  {name:<18} {side:<7} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {min(values):12.6g} {won:4d}")
        p_q1, p_med, p_q3 = stats["parent"]
        c_med = stats["change"][1]
        gap = sign * (c_med - p_med)
        iqr = p_q3 - p_q1
        wins = 10 * change_won >= 9 * len(pairs)
        gain = wins and gap > iqr
        verdicts.append(
            f"  {name}: change/parent median {c_med / p_med:.4f}, "
            f"change won {change_won}/{len(pairs)}, median gap "
            f"{gap:+.6g} vs parent IQR {iqr:.6g} -> "
            f"{'GAIN' if gain else 'no gain'}")
    print("  verdict (wins >= 9/10 of pairs and median gap > parent IQR):")
    for line in verdicts:
        print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="smarco_perfbench of the parent commit")
    ap.add_argument("change", help="smarco_perfbench of the change")
    ap.add_argument("--workloads", default="htc-dense,cdn-overload,xeon-htc")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--reps", type=int, default=1,
                    help="repetitions per side of one pair")
    ap.add_argument("--cpu", type=int, default=None,
                    help="CPU to pin to (default: the last allowed one)")
    args = ap.parse_args()
    if args.pairs < 1 or args.reps < 1:
        sys.exit("perf_pairs: --pairs and --reps must be at least 1")

    pin = []
    if shutil.which("taskset"):
        cpu = args.cpu if args.cpu is not None else \
            max(os.sched_getaffinity(0))
        pin = ["taskset", "-c", str(cpu)]
    else:
        print("perf_pairs: taskset not found, runs are not pinned",
              file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="perf_pairs.") as tmp:
        bins = {}
        for side, src in (("parent", args.parent), ("change", args.change)):
            # Same-length directory names give same-length paths.
            dst = os.path.join(tmp, side[0], "smarco_perfbench")
            os.makedirs(os.path.dirname(dst))
            shutil.copy2(src, dst)
            bins[side] = dst

        for workload in args.workloads.split(","):
            for seed in (int(s) for s in args.seeds.split(",")):
                pairs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else \
                        ("change", "parent")
                    reps = {side: [] for side in order}
                    for _ in range(args.reps):
                        for side in order:
                            reps[side].append(run_once(bins[side], workload,
                                                       seed, pin))
                    digests = {r["digest"] for rs in reps.values()
                               for r in rs}
                    if len(digests) != 1:
                        sys.exit(f"perf_pairs: {workload} seed {seed}: "
                                 f"digests differ: {sorted(digests)}")
                    pairs.append((side_metrics(reps["parent"]),
                                  side_metrics(reps["change"])))
                report(f"{workload} seed {seed}", pairs)


if __name__ == "__main__":
    main()
