"""The benchmark's calls into the package, run once each.

``perfbench/`` calls public functions with fixed names and keywords (for
instance ``run_experiment(cfg, threads=2)``) and traces the names listed
in ``perfbench/layers.py``.  These tests build every workload at the
default seed, run each op once and assert its own check, and resolve
every traced name, so a change that drops a name or keyword the
benchmark uses fails here.  Nothing in ``perfbench/`` is edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

import chroma

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_workload_op_passes_its_check(name):
    ops = workloads.BUILDERS[name](run.DEFAULT_SEED).ops
    assert ops
    failed = [(i, op.kind) for i, op in enumerate(ops) if not op.check(op.call())]
    assert not failed


def test_traced_names_resolve():
    for module, names in layers.TARGETS.items():
        mod = importlib.import_module(f"{chroma.__name__}.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
