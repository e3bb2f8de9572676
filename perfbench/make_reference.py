"""Generate ``reference.json``: the benchmark's instances and their answers.

Run once from the repository root with ``python3 perfbench/make_reference.py``.
Nothing here imports ``chroma``: subdomain counts come from brute-force
enumeration of every assignment, and box counts and marginals from a
layer-by-layer dynamic program written from the definitions.  The output is
committed, so a benchmark run only loads it.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "reference.json"

POOL_SIZE = 600          # subdomain instances; each run draws 100 of them
MAX_CELLS = {3: 12, 4: 10, 5: 9}
SLAB_P0 = ((1,), (2, 3))  # q = 3 reference pattern A=1;B=2,3

# Criterion-2 slabs whose backtracking count costs under ~2 s each today.
SLABS = [
    ((2, 2, 2), "free", {}), ((2, 2, 2), "pattern", {}),
    ((2, 2, 3), "free", {}), ((2, 2, 3), "pattern", {}),
    ((2, 2, 4), "free", {}), ((2, 2, 4), "pattern", {}),
    ((2, 2, 5), "free", {}), ((2, 2, 5), "pattern", {}),
    ((2, 3, 3), "free", {}), ((2, 3, 3), "pattern", {}),
    ((2, 3, 4), "free", {}), ((2, 3, 4), "pattern", {}),
    ((2, 3, 5), "pattern", {}),
    ((3, 3, 2), "free", {}), ((3, 3, 2), "pattern", {}),
    ((3, 3, 3), "free", {}), ((3, 3, 3), "pattern", {}),
    ((3, 3, 4), "pattern", {}),
    ((2, 3, 5), "pins", {0: 2}),
]
STRIPS = [(6, 12), (7, 12), (8, 12)]


def box_cells(dims):
    return list(itertools.product(*(range(x) for x in dims)))


def adjacent(a, b):
    return sum(abs(x - y) for x, y in zip(a, b)) == 1


def on_rim(c, dims):
    return any(x == 0 or x == n - 1 for x, n in zip(c, dims))


def brute_force_count(cells, q):
    """Count proper q-colorings of the induced subgraph by full enumeration."""
    k = len(cells)
    idx = np.arange(q ** k, dtype=np.int64)
    digits = [((idx // q ** i) % q).astype(np.int8) for i in range(k)]
    ok = np.ones(q ** k, dtype=bool)
    for i, j in itertools.combinations(range(k), 2):
        if adjacent(cells[i], cells[j]):
            ok &= digits[i] != digits[j]
    return int(ok.sum())


def layer_count(dims, allowed):
    """Proper colorings of a box, each cell drawing from ``allowed[coords]``.

    Layers run along the longest axis; a state is a proper coloring of one
    cross-section, and consecutive states differ cell by cell.
    """
    axis = max(range(len(dims)), key=lambda a: dims[a])
    cross = [d for a, d in enumerate(dims) if a != axis]
    sec = box_cells(cross)
    pairs = [(i, j) for i, j in itertools.combinations(range(len(sec)), 2)
             if adjacent(sec[i], sec[j])]

    def full(pos, c):
        return c[:axis] + (pos,) + c[axis:]

    def states(pos):
        choices = [sorted(allowed[full(pos, c)]) for c in sec]
        return [s for s in itertools.product(*choices)
                if all(s[i] != s[j] for i, j in pairs)]

    counts = {s: 1 for s in states(0)}
    for pos in range(1, dims[axis]):
        counts = {
            s: sum(n for t, n in counts.items() if all(a != b for a, b in zip(s, t)))
            for s in states(pos)
        }
    return sum(counts.values())


def box_allowed(dims, q, kind="free", pins=None, pattern=None):
    """Allowed colors per cell: full palette, rim pattern, or pinned cells."""
    cells = box_cells(dims)
    allowed = {c: set(range(1, q + 1)) for c in cells}
    if kind == "pattern":
        a, b = pattern
        for c in cells:
            if on_rim(c, dims):
                allowed[c] = set(a if sum(c) % 2 == 0 else b)
    for v, color in (pins or {}).items():
        allowed[cells[v]] = {color}
    return allowed


def centre_marginal(dims, q, kind="free", pattern=None):
    centre = tuple(x // 2 for x in dims)
    allowed = box_allowed(dims, q, kind, pattern=pattern)
    total = layer_count(dims, allowed)
    probs = []
    for color in range(1, q + 1):
        pinned = dict(allowed)
        pinned[centre] = allowed[centre] & {color}
        probs.append(Fraction(layer_count(dims, pinned), total))
    return {"dims": list(dims), "q": q, "centre": list(centre),
            "probs": [f"{p.numerator}/{p.denominator}" for p in probs]}


def subdomain_pool(rng):
    pool = []
    for trial in range(POOL_SIZE):
        q = (3, 4, 5)[trial % 3]
        n_axes = 2 if trial % 2 == 0 else 3
        dims = tuple(rng.randint(2, 4) for _ in range(n_axes))
        target = rng.randint(2, MAX_CELLS[q])
        members = [rng.choice(box_cells(dims))]
        while len(members) < target:
            frontier = sorted({c for c in box_cells(dims) if c not in members
                               and any(adjacent(c, m) for m in members)})
            if not frontier:
                break
            members.append(rng.choice(frontier))
        cells = sorted(members)
        pool.append({"dims": list(dims), "q": q, "cells": [list(c) for c in cells],
                     "count": brute_force_count(cells, q)})
    return pool


def main() -> None:
    slabs = []
    for dims, kind, pins in SLABS:
        allowed = box_allowed(dims, 3, kind, pins, SLAB_P0)
        slabs.append({"dims": list(dims), "constraint": kind,
                      "pins": {str(v): c for v, c in pins.items()},
                      "count": str(layer_count(dims, allowed))})
    strips = [{"dims": list(d), "count": str(layer_count(d, box_allowed(d, 3)))}
              for d in STRIPS]
    ref = {
        "slab_pattern": {"A": list(SLAB_P0[0]), "B": list(SLAB_P0[1])},
        "slabs": slabs,
        "strips": strips,
        "marginal_free_7x7": centre_marginal((7, 7), 3),
        "marginal_pattern_4x4": centre_marginal((4, 4), 3, "pattern", SLAB_P0),
        "subdomains": subdomain_pool(random.Random(20261017)),
    }
    OUT.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {OUT} ({len(ref['subdomains'])} subdomains, {len(slabs)} slabs)")


if __name__ == "__main__":
    main()
