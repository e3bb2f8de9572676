"""Time the transfer engine on whole boxes, each in a fresh interpreter.

    python3 tools/transfer_boxes.py [--tree PATH] [--runs N]

Run from anywhere; ``--tree`` is a checkout of this repository (default: the
one holding this script), whose ``src/`` the child interpreters import.  For
each box below one child counts the box with ``transfer_count``
``--runs`` times, and on until the runs add up to a second of process time,
and prints one JSON line: the box, q, its periodic axes, its constraint,
the count's last 12 digits, the best process time in seconds and the
child's peak resident set (``ru_maxrss``, in MB).  A box the engine refuses
(``ResourceLimitError``, exit code 2) is run once and gives the error in
place of the digits, with the time to the refusal and the peak resident
set.  The last line gives the widest w whose free q=3 (2w) x w box the
engine counts in under one second (best of the runs), and why the search
stopped at the next w: its time, or the error of a child that failed.  The
(4,4,4) q=4 box and the 6x6x6 refusal take seconds each.  Standard
library only; nothing imports this.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# (dims, periodic axes, q, constraint): the boxes of ROADMAP item 1's table;
# the exact workload's three free strips and its free 7x7 marginal box;
# q=3 pattern boxes whose layers replay their gather maps (12x12, 16x12,
# 40x10); two whose q planes pass 64 bits, so their arrays sort by the rows
# themselves (12x11x2, 22 slots; 20x6x4 with axis 2 periodic, 24 slots); and
# one that passes the default budget (6x6x6, 36 slots), timed to its refusal
BOXES = [
    ((28, 14), (1,), 3, "free"),
    ((12, 12), (), 3, "free"),
    ((16, 4, 4), (1, 2), 3, "free"),
    ((10, 10), (), 4, "free"),
    ((12, 12), (), 3, "pattern"),
    ((4, 4, 4), (1, 2), 4, "free"),
    ((6, 12), (), 3, "free"),
    ((7, 12), (), 3, "free"),
    ((8, 12), (), 3, "free"),
    ((7, 7), (), 3, "free"),
    ((16, 12), (), 3, "pattern"),
    ((40, 10), (), 3, "pattern"),
    ((12, 11, 2), (), 3, "pattern"),
    ((20, 6, 4), (2,), 3, "pattern"),
    ((6, 6, 6), (), 3, "pattern"),
]

CHILD = """
import json, resource, sys, time
from chroma.errors import ResourceLimitError
from chroma.exact import Constraint, transfer_count
from chroma.lattice import build_graph
from chroma.patterns import Pattern
dims, axes, q, kind, runs = json.loads(sys.argv[1])
G = build_graph(dims, [a in axes for a in range(len(dims))])
c = Constraint.pattern_boundary(Pattern.make(3, [1], [2, 3])) if kind == "pattern" else None
row = {"box": dims, "q": q, "periodic_axes": axes, "constraint": kind}
best, spent = float("inf"), 0.0
while runs > 0 or spent < 1.0:   # a box of a few ms takes many runs
    t = time.process_time()
    try:
        count = transfer_count(G, q, c).count
    except ResourceLimitError as e:   # a refusal ends the runs, timed
        row["error"], best = str(e), time.process_time() - t
        break
    took = time.process_time() - t
    best, spent, runs = min(best, took), spent + took, runs - 1
if "error" not in row:
    row["count_last12"] = str(count)[-12:]
row["best_process_s"] = round(best, 5)
row["ru_maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
print(json.dumps(row))
sys.exit(2 if "error" in row else 0)
"""


def run_box(tree: Path, dims, axes, q: int, kind: str, runs: int) -> dict:
    """The child's JSON line (with "error" if the count was refused), or
    {"error": its last stderr line} if it failed otherwise."""
    arg = json.dumps([list(dims), list(axes), q, kind, runs])
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, arg], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode in (0, 2) and proc.stdout.strip():
        return json.loads(proc.stdout)
    return {"box": list(dims), "q": q, "periodic_axes": list(axes), "constraint": kind,
            "error": (proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode])[-1]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    tree = args.tree.resolve()
    for box in BOXES:
        print(json.dumps(run_box(tree, *box, args.runs)), flush=True)
    widest = None
    w = 2
    while True:
        row = run_box(tree, (2 * w, w), (), 3, "free", args.runs)
        if "error" in row:
            stop = {"w": w, "error": row["error"]}
            break
        if row["best_process_s"] >= 1.0:
            stop = {"w": w, "best_process_s": row["best_process_s"]}
            break
        widest = {"w": w, "box": row["box"], "best_process_s": row["best_process_s"]}
        w += 1
    print(json.dumps({"widest_free_q3_2w_by_w_under_1s": widest, "stopped_at": stop}),
          flush=True)


if __name__ == "__main__":
    main()
