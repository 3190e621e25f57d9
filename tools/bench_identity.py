#!/usr/bin/env python3
"""Check that two builds print the same benches and examples.

Usage (from the repository root):

    python3 tools/bench_identity.py PARENT_BUILD CHANGE_BUILD \
        [--jobs 4] [--only NAME ...]

PARENT_BUILD and CHANGE_BUILD are CMake build directories. Every
binary in the change build's bench/ and examples/ runs from both
builds on its default arguments, with --stats-json=<tmp>, in a
temporary working directory, --jobs processes at a time. The two
sides' stdout, stats JSON and exit codes are compared byte for byte.
The one exception is bench_kernel's host wall time: its "wall s" and
"cycles/s" columns and its "N.NNx" speedups are masked first.

Prints one line per binary, "same" or the first difference, and
exits 1 if any binary differs. --only NAME (repeatable) limits the
run to the named binaries.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

DIRS = ("bench", "examples")

# bench_kernel's timing rows: mode, sim cycles, wall s, cycles/s, ...
KERNEL_ROW = re.compile(r"^(\s+(?:forced|fast-forward)\s+\d+\s+)\S+(\s+)\S+")
SPEEDUP = re.compile(r"\d+\.\d+x")


def binaries(build):
    """Relative paths of the executables under build's bench/ and
    examples/ directories."""
    found = []
    for d in DIRS:
        root = os.path.join(build, d)
        if not os.path.isdir(root):
            continue
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if os.path.isfile(path) and os.access(path, os.X_OK):
                found.append(os.path.join(d, name))
    return found


def mask(name, text):
    """Hide the host-timing fields of bench_kernel's output."""
    if name != "bench_kernel":
        return text
    lines = []
    for line in text.splitlines(keepends=True):
        line = KERNEL_ROW.sub(r"\1<wall>\2<rate>", line)
        lines.append(SPEEDUP.sub("<x>", line))
    return "".join(lines)


def run(build, rel, workdir):
    """Run one binary; returns (exit code, stdout, stats JSON text)."""
    os.makedirs(workdir)
    stats = os.path.join(workdir, "stats.json")
    binary = os.path.abspath(os.path.join(build, rel))
    proc = subprocess.run([binary, f"--stats-json={stats}"], cwd=workdir,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    text = ""
    if os.path.exists(stats):
        with open(stats, encoding="utf-8", errors="replace") as f:
            text = f.read()
    return (proc.returncode,
            proc.stdout.decode("utf-8", errors="replace"), text)


def first_difference(what, parent, change):
    """The first differing line of two texts, or None when equal."""
    if parent == change:
        return None
    p_lines, c_lines = parent.splitlines(), change.splitlines()
    for i in range(max(len(p_lines), len(c_lines))):
        p = p_lines[i] if i < len(p_lines) else "<end>"
        c = c_lines[i] if i < len(c_lines) else "<end>"
        if p != c:
            return f"{what} line {i + 1}: parent {p!r} / change {c!r}"
    return f"{what}: line endings differ"


def compare(name, parent, change):
    """'same' or the first difference between two runs' results."""
    if parent[0] != change[0]:
        return f"exit code: parent {parent[0]} / change {change[0]}"
    return (first_difference("stdout", mask(name, parent[1]),
                             mask(name, change[1]))
            or first_difference("stats", parent[2], change[2])
            or "same")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_build")
    ap.add_argument("change_build")
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--only", action="append", default=[],
                    metavar="NAME")
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")

    rels = binaries(args.change_build)
    names = {os.path.basename(r) for r in rels}
    unknown = [n for n in args.only if n not in names]
    if unknown:
        ap.error(f"no such binary: {', '.join(unknown)}")
    if args.only:
        rels = [r for r in rels if os.path.basename(r) in args.only]
    if not rels:
        sys.exit(f"bench_identity: no binaries in {args.change_build}")
    missing = [r for r in rels
               if not os.path.isfile(os.path.join(args.parent_build, r))]
    if missing:
        sys.exit("bench_identity: missing from the parent build: "
                 + ", ".join(missing))

    differ = 0
    with tempfile.TemporaryDirectory(prefix="bench_identity.") as tmp, \
            concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = {}
        for rel in rels:
            for side, build in (("parent", args.parent_build),
                                ("change", args.change_build)):
                workdir = os.path.join(tmp, side, os.path.basename(rel))
                futures[rel, side] = pool.submit(run, build, rel, workdir)
        for rel in rels:
            name = os.path.basename(rel)
            verdict = compare(name, futures[rel, "parent"].result(),
                              futures[rel, "change"].result())
            differ += verdict != "same"
            print(f"{name:32s} {verdict}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
