"""Time each op kind of perfbench's ``exact`` workload in one interpreter.

    python3 tools/exact_ops.py [--tree PATH] [--passes N] [--seed N]

Run from anywhere; ``--tree`` is a checkout of this repository (default: the
one holding this script).  The script imports ``chroma`` from the tree's
``src/`` and builds the ``exact`` op list with the tree's
``perfbench/workloads.py`` at ``--seed`` (default: perfbench's default
seed; perfbench's held-out seed checks a claim), changing nothing there.
It then runs the op list ``--passes`` times, timing every op with
``time.process_time``, and checks each op's result in the first pass; a
failed op stops the script with exit code 1.  It prints one JSON line per op
kind, in the order the kinds first occur: the kind, its op count, and the
minimum over the passes of the kind's summed milliseconds, unscaled (the
first pass also builds the graphs' lazy tables, so take two or more).  The
next line gives the pass sum: the sum of those minima.  The last line gives
perfbench's three latency figures in process, unscaled, from each op's
median over the passes: their sum (``wall_ms``, as ``wall_s``), the median
of the ops perfbench times for latency (``op_p50_ms``) and its tail op, the
11th slowest (``op_tail_ms``, by perfbench's own ``run.tail``).  So a move
of ``op_p50_ms`` shows here before a perfbench round.  To compare two trees,
run the script on each in turn, alternating, several times.  Standard
library and the tree's ``perfbench/`` only; nothing imports this.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

SEED = 20261017   # perfbench's default seed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--seed", type=int, default=SEED)
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import run
    import workloads

    ops = workloads.build_exact(args.seed).ops
    counts = Counter(op.kind for op in ops)   # kinds in order of first occurrence
    best = dict.fromkeys(counts, float("inf"))
    times: list[list[float]] = [[] for _ in ops]   # per op, its time in each pass
    for done in range(args.passes):
        spent = dict.fromkeys(counts, 0.0)
        for op, seen in zip(ops, times):
            t0 = time.process_time()
            result = op.call()
            dt = time.process_time() - t0
            spent[op.kind] += dt
            seen.append(dt)
            if not done and not op.check(result):
                sys.exit(f"failed op: {op.kind}")
        for kind, s in spent.items():
            best[kind] = min(best[kind], s)
    medians = [statistics.median(seen) for seen in times]
    latencies = [t for op, t in zip(ops, medians) if op.latency]
    for kind, s in best.items():
        print(json.dumps({"kind": kind, "ops": counts[kind], "min_ms": round(s * 1e3, 3)}))
    print(json.dumps({"pass_sum_ms": round(sum(best.values()) * 1e3, 3),
                      "passes": args.passes, "tree": str(tree)}))
    print(json.dumps({"wall_ms": round(sum(medians) * 1e3, 3),
                      "op_p50_ms": round(statistics.median(latencies) * 1e3, 4),
                      "op_tail_ms": round(run.tail(latencies)[0] * 1e3, 4)}), flush=True)


if __name__ == "__main__":
    main()
