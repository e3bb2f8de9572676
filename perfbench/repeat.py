"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workloads exact chain contour --runs 10 --seconds 40

From the repository root.  Runs ``run.py`` once per (workload, seed), one
after another, and prints for each end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from ``BENCHMARK.json``.
Seeds run from 1 to ``--runs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "bound": bounds.get(name), "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["exact", "chain", "contour"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        seeds = range(1, args.runs + 1)
        results = [run_once(workload, seed, seconds) for seed in seeds]
        bad = [r for r in results if not r["correct"]]
        summary = summarise(results, bounds)
        print(f"{workload}: {len(results)} runs, {len(bad)} incorrect")
        for name, s in summary.items():
            noisy = name != "setup_s" and s["bound"] and s["spread"] > s["bound"] / 3
            flag = "  <-- spread above a third of the bound" if noisy else ""
            print(f"  {name}: median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
