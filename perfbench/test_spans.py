"""Tests of the span recorder and self-time computation.

    python3 -m pytest -q perfbench/test_spans.py
"""

import concurrent.futures
import json
import sys
import threading
import types
from pathlib import Path

import pytest

from layers import layer_metrics
from spans import Span, SpanRecorder, context_thread_pool, instrument, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 2, "a.inner", 2.0, 3.0),
        Span(4, 1, "b", 5.0, 6.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_counts_overlapping_thread_children_once():
    spans = [
        Span(1, None, "run", 0.0, 10.0),
        Span(2, 1, "chain0", 1.0, 6.0),   # two worker threads overlap on [4, 6]
        Span(3, 1, "chain1", 4.0, 8.0),
        Span(4, 1, "late", 9.0, 12.0),    # clipped to the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[2] == 5.0 and selfs[3] == 4.0 and selfs[4] == 3.0


def test_parent_links_survive_a_thread_pool():
    rec = SpanRecorder()
    barrier = threading.Barrier(2, timeout=10)

    def chain(i):
        with rec.span("chain"):
            barrier.wait()   # both children are open at once
            with rec.span("step"):
                pass
        return threading.get_ident()

    with context_thread_pool():
        with rec.span("run") as root:
            # looked up at call time, as chroma.sampler does
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                idents = list(pool.map(chain, range(2)))
    assert len(set(idents)) == 2
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    chains = by_name["chain"]
    assert [s.parent for s in chains] == [root.id, root.id]
    assert sorted(s.parent for s in by_name["step"]) == sorted(s.id for s in chains)
    lo = min(s.start for s in chains)
    hi = max(s.end for s in chains)
    assert max(s.start for s in chains) < min(s.end for s in chains)
    assert self_times(rec.spans)[root.id] == pytest.approx(root.duration - (hi - lo))


def test_instrument_wraps_copied_names_and_restores_them(monkeypatch):
    def f(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f = f
    b.f = f          # as after `from .a import f`
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    rec = SpanRecorder()
    with instrument(rec, {"a": ["f"]}, {"a.f": lambda args, kw, r: {"out": r}},
                    package="fakepkg"):
        assert a.f(1) == 2 and b.f(2) == 3
        with pytest.raises(ValueError):
            b.f(-1)
    assert a.f is f and b.f is f
    assert [s.name for s in rec.spans] == ["a.f"] * 3
    assert [s.attrs for s in rec.spans] == [{"out": 2}, {"out": 3}, None]
    assert [s.error is not None for s in rec.spans] == [False, False, True]


def test_layer_metrics_match_benchmark_json():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: u for k, (_, u) in layer_metrics([], 1).items()}
    emitted["trace.overhead_frac"] = "ratio"
    assert emitted == declared
