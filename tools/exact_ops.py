"""Time each op kind of perfbench's ``exact`` workload in one interpreter.

    python3 tools/exact_ops.py [--tree PATH] [--passes N]

Run from anywhere; ``--tree`` is a checkout of this repository (default: the
one holding this script).  The script imports ``chroma`` from the tree's
``src/`` and builds the ``exact`` op list with the tree's
``perfbench/workloads.py`` at perfbench's default seed, changing nothing
there.  It then runs the op list ``--passes`` times, timing every op with
``time.process_time``, and checks each op's result in the first pass; a
failed op stops the script with exit code 1.  It prints one JSON line per op
kind, in the order the kinds first occur: the kind, its op count, and the
minimum over the passes of the kind's summed milliseconds, unscaled (the
first pass also builds the graphs' lazy tables, so take two or more).  The
last line gives the pass sum: the sum of those minima.  To compare two trees,
run the script on each in turn, alternating, several times.  Standard
library only; nothing imports this.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

SEED = 20261017   # perfbench's default seed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--passes", type=int, default=7)
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    ops = workloads.build_exact(SEED).ops
    counts = Counter(op.kind for op in ops)   # kinds in order of first occurrence
    best = dict.fromkeys(counts, float("inf"))
    for done in range(args.passes):
        spent = dict.fromkeys(counts, 0.0)
        for op in ops:
            t0 = time.process_time()
            result = op.call()
            spent[op.kind] += time.process_time() - t0
            if not done and not op.check(result):
                sys.exit(f"failed op: {op.kind}")
        for kind, s in spent.items():
            best[kind] = min(best[kind], s)
    for kind, s in best.items():
        print(json.dumps({"kind": kind, "ops": counts[kind], "min_ms": round(s * 1e3, 3)}))
    print(json.dumps({"pass_sum_ms": round(sum(best.values()) * 1e3, 3),
                      "passes": args.passes, "tree": str(tree)}), flush=True)


if __name__ == "__main__":
    main()
