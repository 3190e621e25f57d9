#!/usr/bin/env python3
"""List the stats that moved between two stats files.

Usage (from the repository root):

    python3 tools/stats_diff.py OLD NEW

OLD and NEW are each one of:

  - a bare stats dump, {"<stat>": {"kind": ..., "value": ...}, ...}
    (e.g. tests/golden/smarco_scaled_1x4_wordcount.json);
  - a --stats-json runs file, {"runs": [{"run": N, "cycles": ...,
    "stats": {<dump>}}, ...]}, whose runs are matched by run id;
  - a golden keyed by variant, {"<variant>": {<dump>}, ...}
    (e.g. tests/golden/smarco_scaled_1x4_thread_schemes.json).

Any other member (a run's "cycles", the ring golden's "deliveries")
is compared as one value under its name.

Every field of a stat is compared: its value, an average's sum and
count, a histogram's count, spread, percentiles and buckets, a fault
log's records. Each field that moved prints one line with its old
value, new value and relative change (a list prints how many of its
entries differ, a stat on one side only prints its value once). Lines are grouped by variant or run and by layer
prefix (chip.core, chip.sched, ring.big, base.core, fault, ...),
largest change first; groups with the largest change come first. A
last block counts, per variant or run, the stats that moved.

Exits 1 when anything moved, 0 with no output otherwise, and 2 when
a file cannot be read.
"""

import json
import math
import re
import sys

ABSENT = object()


def is_stat(node):
    return isinstance(node, dict) and "kind" in node and "value" in node


def is_runs(node):
    return (isinstance(node, list) and node and
            all(isinstance(r, dict) and "run" in r for r in node))


def flatten(node, scope, out):
    """Add node's leaves to out, keyed (scope, stat, field)."""
    if isinstance(node, dict) and node and all(
            is_stat(v) for v in node.values()):
        for name, stat in node.items():
            for field, val in stat.items():
                out[(scope, name, field)] = val
    elif isinstance(node, dict):
        for key, val in node.items():
            if isinstance(val, dict) or is_runs(val):
                inner = scope if key in ("runs", "stats") else scope + (key,)
                flatten(val, inner, out)
            else:
                out[(scope, key, "value")] = val
    else:
        for run in node:
            rest = {k: v for k, v in run.items() if k != "run"}
            flatten(rest, scope + ("run %s" % run["run"],), out)


def fail(message):
    print("stats_diff: " + message, file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    if not isinstance(doc, dict):
        fail("%s: not a JSON object" % path)
    out = {}
    flatten(doc, (), out)
    return out


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def layer(name):
    """Layer prefix of a stat: its first two name parts without the
    instance number (chip.core000.committed -> chip.core), or the
    first part of a two-part name (base.committed -> base)."""
    parts = name.split(".")
    if len(parts) < 3:
        return parts[0]
    return parts[0] + "." + re.sub(r"\d+$", "", parts[1])


def show(v):
    if v is ABSENT:
        return "(absent)"
    if is_number(v):
        if float(v).is_integer() and abs(v) < 1e15:
            return str(int(v))
        return "%.6g" % v
    if isinstance(v, list):
        return "[%d entries]" % len(v)
    return json.dumps(v)


def change(old, new):
    """(sort magnitude, text) of one field's change."""
    if is_number(old) and is_number(new):
        if old == 0:
            return math.inf, "from 0"
        rel = (new - old) / abs(old)
        return abs(rel), "%+.1f%%" % (100.0 * rel)
    if isinstance(old, list) and isinstance(new, list):
        n = max(len(old), len(new))
        k = sum(1 for i in range(n)
                if i >= len(old) or i >= len(new) or old[i] != new[i])
        return -1.0, "%d of %d differ" % (k, n)
    return -1.0, "changed"


def main(argv):
    if len(argv) != 3:
        fail("usage: stats_diff.py OLD NEW")
    old, new = load(argv[1]), load(argv[2])
    keys = set(old) | set(new)
    # 1 and 1.0 print differently, so a type change is a move too.
    moved = sorted(k for k in keys
                   if old.get(k, ABSENT) != new.get(k, ABSENT) or
                   type(old.get(k, ABSENT)) is not type(new.get(k, ABSENT)))
    if not moved:
        return 0

    # A stat on one side only prints its value alone.
    old_stats = {k[:2] for k in old}
    new_stats = {k[:2] for k in new}
    groups = {}
    for key in moved:
        a, b = old.get(key, ABSENT), new.get(key, ABSENT)
        scope, name, field = key
        if key[:2] not in old_stats or key[:2] not in new_stats:
            if field != "value":
                continue
            mag, text = math.inf, ("added" if a is ABSENT else "removed")
        else:
            mag, text = change(a, b)
        label = name if field == "value" else "%s[%s]" % (name, field)
        groups.setdefault((scope, layer(name)), []).append(
            (mag, label, show(a), show(b), text))
    rows = [r for g in groups.values() for r in g]
    wl = max(len(r[1]) for r in rows)
    wa = max(len(r[2]) for r in rows)
    wb = max(len(r[3]) for r in rows)
    order = sorted(groups, key=lambda g: (-max(r[0] for r in groups[g]), g))
    for scope, lay in order:
        g = sorted(groups[(scope, lay)], key=lambda r: (-r[0], r[1]))
        head = "/".join(scope + (lay,))
        print("%s (%d fields moved)" % (head, len(g)))
        for _, label, a, b, text in g:
            print("  %-*s %*s -> %*s  %s" % (wl, label, wa, a, wb, b, text))

    print()
    for scope in sorted({k[0] for k in moved}):
        names = {k[1] for k in keys if k[0] == scope}
        hit = {k[1] for k in moved if k[0] == scope}
        print("%s: %d of %d stats moved" %
              ("/".join(scope) or "(top level)", len(hit), len(names)))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
