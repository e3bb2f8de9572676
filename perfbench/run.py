"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact --seed 20261017 --seconds 40 --trace 0

From the repository root.  A run makes a fixed number of "passes" per
workload (``PASSES``), the same on every commit; ``--seconds`` is only a
ceiling, past which no further pass starts.  Each pass is a fresh
interpreter that imports ``chroma`` from ``src/``, builds the workload's
inputs from the seed (set-up), runs the workload's fixed op list once and
checks every op's output.  Passes run one at a time, so no state the
program keeps across calls carries from one pass to the next.

The shared machine's speed drifts by 20-50 % over tens of seconds.  Each
pass therefore times a fixed pure-Python calibration loop right after
set-up, every ``CAL_EVERY`` seconds between ops and after the last op, and
every time is scaled by ``CAL_REF`` / (the loop's time around it): times are
reported in seconds at the speed where the loop takes ``CAL_REF``.  Passes
repeat the same inputs, so each op's latency is the median of its scaled
times over the passes, and ``wall_s`` is the sum of those.  ``setup_s`` is the median
over the passes (and extra set-up-only interpreters, to have
``SETUP_SAMPLES``) of the time from spawning the interpreter to the end of
set-up, scaled by the calibration right after it.  The printed lines also
give the unscaled figures and the calibration loop's median time.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes (half the passes
each) and reports the per-layer metrics of the traced ones (medians over
passes, unscaled) plus the tracing overhead.  The last line of standard
output is one JSON object; a fuller record, with the environment and, for
traced runs, every span, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20261017
PASSES = {"exact": 3, "chain": 5, "contour": 5}   # passes per untraced run
SETUP_SAMPLES = 9      # at least this many fresh interpreters time set-up
CAL_LOOP = 10_000      # iterations of the calibration loop
CAL_REF = 1.5e-3       # seconds the loop takes at the reference speed (about
                       # its time on the machine of BASELINE.md)
CAL_EVERY = 0.1        # seconds between calibrations within a pass
TAIL_BEYOND = 10       # the tail percentile leaves this many ops above it
PASS_TIMEOUT = 150     # seconds one pass may take before the run gives up


# -- inside one pass -------------------------------------------------------------


def load(workload: str, seed: int):
    """Set-up: import chroma and build the workload's inputs."""
    if not (ROOT / "src" / "chroma" / "__init__.py").is_file():
        raise ImportError(f"no chroma package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.BUILDERS[workload](seed)


def calibrate() -> float:
    """The fastest of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(CAL_LOOP):
            acc += (i & 7) ^ (i >> 3)
            table[i & 255] = acc
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(ops, recorder=None) -> tuple[list[float | None], list[float], float]:
    """Time each op, then check it; an op that raises or fails reads None.

    Returns the latencies, for each op the mean of the calibrations just
    before and just after it, and the first calibration (before any op).
    """
    latencies: list[float | None] = []
    samples = [calibrate()]
    last = time.perf_counter()
    before: list[int] = []
    for op in ops:
        if time.perf_counter() - last > CAL_EVERY:
            samples.append(calibrate())
            last = time.perf_counter()
        before.append(len(samples) - 1)
        span = recorder.span("op." + op.kind) if recorder else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = op.call()
            dt = time.perf_counter() - t0
            ok = bool(op.check(result))
        except Exception:
            # a raising op or check is a failed op; the pass goes on
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"failed op: {op.kind}", file=sys.stderr)
        latencies.append(dt if ok else None)
    samples.append(calibrate())
    cals = [(samples[b] + samples[b + 1]) / 2 for b in before]
    return latencies, cals, samples[0]


def one_pass(args) -> int:
    """Body of a pass interpreter: set up, say 'ready', run the ops, report."""
    try:
        workload = load(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup_cal": calibrate()}))
        return 0
    ops = workload.ops
    out = {"kinds": [op.kind for op in ops], "in_latency": [op.latency for op in ops],
           "site_updates": workload.site_updates_per_pass}
    if args.trace:
        from layers import PROBES, TARGETS, layer_metrics
        from spans import SpanRecorder, context_thread_pool, instrument

        recorder = SpanRecorder()
        with instrument(recorder, TARGETS, PROBES), context_thread_pool():
            out["latencies"], out["cals"], out["setup_cal"] = run_pass(ops, recorder)
        out["layers"] = layer_metrics(recorder.spans, 1)
        out["spans"] = [s.to_list() for s in recorder.spans]
    else:
        out["latencies"], out["cals"], out["setup_cal"] = run_pass(ops)
    print(json.dumps(out, default=str))
    return 0


# -- the run: passes in fresh interpreters -----------------------------------------


def spawn(args, trace: int, setup_only: bool = False) -> tuple[float, dict]:
    """Run one pass interpreter; return (unscaled set-up seconds, its report)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--pass",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # unbuffered, so that readline leaves everything after "ready" to communicate
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0) as child:
        ready = child.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            rest, _ = child.communicate(timeout=PASS_TIMEOUT)
        except subprocess.TimeoutExpired:
            child.kill()
            raise RuntimeError("a pass interpreter ran past its time limit")
    if ready.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"a pass interpreter exited with code {child.returncode}")
    return setup, json.loads(rest)


class Passes:
    """Per-op latencies of repeated passes over one fixed op list."""

    def __init__(self):
        self.reports: list[dict] = []

    @property
    def attempted(self) -> int:
        return sum(len(r["latencies"]) for r in self.reports)

    @property
    def failed(self) -> int:
        return sum(x is None for r in self.reports for x in r["latencies"])

    def op_median(self, scaled: bool = True) -> list[float | None]:
        """Each op's median latency over the passes where it succeeded."""
        columns = zip(*([None if x is None else x * CAL_REF / c if scaled else x
                         for x, c in zip(r["latencies"], r["cals"])]
                        for r in self.reports))
        return [statistics.median(ok) if (ok := [x for x in col if x is not None]) else None
                for col in columns]

    def wall(self, scaled: bool = True) -> float:
        return sum(x for x in self.op_median(scaled) if x is not None)

    def latencies(self) -> list[float]:
        keep = self.reports[0]["in_latency"]
        return [x for x, k in zip(self.op_median(), keep) if k and x is not None]

    def calibration(self) -> float:
        return statistics.median(c for r in self.reports for c in r["cals"])


def run_passes(count: int, seconds: float, step) -> None:
    """Call ``step`` ``count`` times, or fewer if ``seconds`` have gone by."""
    start = time.perf_counter()
    for _ in range(count):
        step()
        if time.perf_counter() - start > seconds:
            return


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it.

    With too few ops for that, the maximum (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes: Passes, setups: list[tuple[float, float]]):
    """``setups`` holds (unscaled set-up seconds, calibration after it) pairs."""
    latencies = passes.latencies()
    value, pct = tail(latencies)
    wall = passes.wall()
    n = len(latencies)
    shown = {
        "wall_s": (wall, "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "setup_s": (statistics.median(t * CAL_REF / c for t, c in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MB"),
    }
    notes = {
        "wall_s": f"sum of each op's median scaled time over {len(passes.reports)} passes",
        "op_p50_ms": f"{n} timed ops per pass",
        "op_tail_ms": f"p{pct:.2f} of {n} ops, {TAIL_BEYOND if n > TAIL_BEYOND else 0} beyond",
        "setup_s": f"median of {len(setups)} fresh interpreters, scaled",
        "peak_rss_mb": "largest pass interpreter",
    }
    extra = {
        "fail_frac": (passes.failed / passes.attempted, "ratio"),
        "unscaled.wall_s": (passes.wall(scaled=False), "s"),
        "unscaled.setup_s": (statistics.median(t for t, _ in setups), "s"),
        "calibration_ms": (1e3 * passes.calibration(), "ms"),
    }
    notes["calibration_ms"] = f"median loop time; {1e3 * CAL_REF:g} ms is the reference"
    site_updates = passes.reports[0]["site_updates"]
    if site_updates:
        extra["site_updates_per_s"] = (site_updates / wall, "1/s")
    return shown, extra, notes


def traced_layers(traced: Passes, plain: Passes):
    shown = {}
    for name, (_, unit) in traced.reports[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced.reports]
        shown[name] = (statistics.median(values), unit)
    shown["trace.overhead_frac"] = (traced.wall() / plain.wall() - 1, "ratio")
    notes = {"trace.overhead_frac": f"scaled median-op sums of {len(traced.reports)} "
                                    f"traced and {len(plain.reports)} untraced passes"}
    return shown, notes


# -- environment -------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(traced: bool) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help="internal: run a single pass in this interpreter")
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: with --pass, stop after set-up")
    args = parser.parse_args(argv)
    if args.one_pass:
        return one_pass(args)

    plain, traced, setups = Passes(), Passes(), []

    def step():
        setup, report = spawn(args, 0)
        setups.append((setup, report["setup_cal"]))
        plain.reports.append(report)
        if args.trace:
            traced.reports.append(spawn(args, 1)[1])

    count = PASSES[args.workload]
    try:
        run_passes(max(1, count // 2) if args.trace else count, args.seconds, step)
        while len(setups) < SETUP_SAMPLES and not args.trace:
            setup, report = spawn(args, 0, setup_only=True)
            setups.append((setup, report["setup_cal"]))
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    if not plain.latencies():
        print("run failed: no timed op succeeded", file=sys.stderr)
        return 2

    env = environment(bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "op_kinds": plain.reports[0]["kinds"],
              "untraced_latencies": [r["latencies"] for r in plain.reports],
              "untraced_calibrations": [r["cals"] for r in plain.reports]}
    if args.trace:
        shown, notes = traced_layers(traced, plain)
        extra = {}
        failed = plain.failed + traced.failed
        attempted = plain.attempted + traced.attempted
        record["traced_latencies"] = [r["latencies"] for r in traced.reports]
        record["spans"] = [r["spans"] for r in traced.reports]
    else:
        shown, extra, notes = end_to_end(plain, setups)
        failed, attempted = plain.failed, plain.attempted
        record["setups"] = setups

    print("env: " + json.dumps(env))
    for name, (value, unit) in {**shown, **extra}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    record.update(result, extra={k: v for k, (v, _) in extra.items()}, notes=notes)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
