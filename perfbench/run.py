#!/usr/bin/env python3
"""Run one workload of the SmarCo simulator benchmark and report it.

Usage (from the repository root):

    python3 perfbench/run.py --workload htc-dense --seed 1 \
        --seconds 25 --trace 0

Builds the simulator and the benchmark binary from source on first
use (into $CARGO_TARGET_DIR, default .bench_build), then runs the
workload as a fixed number of repetitions, each in a fresh
single-threaded process. The count is set by --seconds and the
workload's nominal repetition time, not by how fast the repetitions
turn out to be (unless a slow stretch of the machine hits the time
limit). Every repetition simulates the input generated from
--seed, so all of them must produce the same stats digest; each one's
output checks must pass.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken
from traced repetitions that also write Chrome-trace spans and a
per-layer JSON file under <build dir>/perfbench-out/. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Nominal host seconds of one repetition (set-ups, simulation, exit)
# on a 4-core Xeon VM; with --seconds they fix the repetition count.
REP_SECONDS = {"htc-dense": 3.5, "cdn-overload": 1.5, "xeon-htc": 1.75}
WORKLOADS = tuple(REP_SECONDS)
# Fewest repetitions a run reports, whatever --seconds says.
MIN_REPS = 3
# A run stops starting repetitions once it has taken this many times
# --seconds, so that a slow stretch of the machine cannot stretch it
# without limit.
OVERRUN = 1.5
# A single repetition is stopped if it takes longer than this.
REP_TIMEOUT_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: simulator sources (src/) not found "
                         "next to perfbench/")
    out = build_dir() / "perfbench"
    # Compiler temporaries stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = ["cmake", "-S", str(HERE), "-B", str(out),
           "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", str(out), "-j", "3"]):
        proc = subprocess.run(step, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {step[:2]}")
    return out / "smarco_perfbench"


def metric_specs():
    """End-to-end and per-layer metric names and units."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_rep(binary, workload, seed, trace_out=None):
    """One repetition in a fresh process; returns its parsed report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no report "
                         f"(exit {proc.returncode})")
    rep = json.loads(lines[-1])
    if proc.returncode != 0 and rep.get("correct", False):
        raise SystemExit(f"perfbench: {workload} exited "
                         f"{proc.returncode}")
    return rep


def rep_count(args):
    """Repetitions of a run: fixed by --seconds, not by host speed."""
    return max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))


def run_reps(binary, args, trace_out=None):
    """rep_count(args) repetitions; with trace_out, every second one
    is traced."""
    reps = []
    start = time.monotonic()
    limit = OVERRUN * args.seconds
    for _ in range(rep_count(args)):
        if len(reps) >= MIN_REPS and time.monotonic() - start > limit:
            log(f"perfbench: time limit hit after {len(reps)} of "
                f"{rep_count(args)} repetitions")
            break
        traced = bool(trace_out) and len(reps) % 2 == 1
        rep = run_rep(binary, args.workload, args.seed,
                      trace_out if traced else None)
        rep["traced"] = traced
        reps.append(rep)
    return reps


def verdict(reps):
    """(correct, attempted, failed) over all repetitions.

    A repetition whose output checks fail, or whose stats digest or
    simulated results differ from the first repetition's, counts all
    of its offered tasks as failed.
    """
    first = reps[0]
    attempted = failed = 0
    correct = True
    for rep in reps:
        attempted += rep["offered"]
        same = rep["digest"] == first["digest"] and \
            rep["sim"] == first["sim"]
        if not rep["correct"] or not same:
            correct = False
            failed += rep["offered"]
            for msg in rep["check_failures"] or ["nondeterministic run: "
                                                 "digest differs"]:
                log(f"perfbench: check failed: {msg}")
    return correct, attempted, failed


def best_run_s(reps):
    """Host seconds of the simulation, slice by slice at its best.

    Every repetition cuts the same slices of simulated time, so slice
    i does the same work in each. Other tenants of the machine only
    ever slow a slice down, in bursts that come and go within a
    repetition; the fastest time seen for each slice, summed, is the
    simulation's cost with those bursts removed. The number of
    repetitions is fixed (rep_count), so the estimate does not shrink
    when the code or the machine gets faster.
    """
    slices = [r["host"]["slices_s"] for r in reps]
    if len({len(s) for s in slices}) != 1:
        raise SystemExit("perfbench: repetitions cut different slices")
    return sum(min(times) for times in zip(*slices))


def end_to_end(reps):
    """Every end-to-end metric of the repetitions."""
    run_s = best_run_s(reps)
    sim = reps[0]["sim"]
    return {
        "sim_mops_per_s": sim["ops"] / run_s / 1e6,
        "sim_kcycles_per_s": sim["cycles"] / run_s / 1e3,
        "setup_s": statistics.median(r["host"]["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["host"]["peak_rss_mb"]
                                         for r in reps),
        "sim_cycles": sim["cycles"],
        "goodput_frac": sim["goodput"] / reps[0]["offered"],
        "e2e_p50_kcycles": sim["e2e_p50_cycles"] / 1e3,
        "e2e_p99_kcycles": sim["e2e_p99_cycles"] / 1e3,
        "e2e_samples": sim["e2e_samples"],
    }


def per_layer(reps):
    """Per-layer metrics: medians over the traced repetitions, plus
    the tracing overhead: the extra host time of a traced repetition
    (spans, layer replays, trace file) over an untraced one."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    layers = {n: statistics.median(r["layers"][n] for r in traced)
              for n in traced[0]["layers"]}
    total_s = [statistics.median(r["host"]["total_s"] for r in side)
               for side in (traced, plain)]
    layers["bench.trace_overhead_frac"] = total_s[0] / total_s[1] - 1.0
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    e2e_spec, layer_spec = metric_specs()
    out_dir = build_dir() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}"

    if args.trace:
        reps = run_reps(binary, args, trace_out=f"{stem}.trace.json")
        values, spec = per_layer(reps), layer_spec
    else:
        reps = run_reps(binary, args)
        values, spec = end_to_end(reps), e2e_spec

    correct, attempted, failed = verdict(reps)
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    if args.trace:
        with open(f"{stem}.layers.json", "w") as f:
            json.dump(metrics, f, indent=1, sort_keys=True)
        log(f"perfbench: spans in {stem}.trace.json, per-layer metrics "
            f"in {stem}.layers.json")
    print(f"{args.workload} seed {args.seed}: stats digest "
          f"{reps[0]['digest']}, {len(reps)} repetitions")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
