"""Breakup outputs pinned as SHA-256 digests.

Three instances: the 24x24 q=3 box of perfbench's ``contour`` workload
(whole-box domain), an 8x8x8 q=4 box and an 8x2x6 q=5 box whose length-2
middle axis is periodic (both with the depth-1 inner domain), each with
the reference pattern A = {1..q//2}.  On each, a chain of heat-bath
sweeps from the striped reference fill gives the colorings.  Each
coloring is decomposed, a breakup is built around a random vertex (at
the default radius and at a small one, once with a pattern whitelist),
and ``verify_breakup`` runs on the breakup, on the decomposition's atlas
and on copies of both with a few bits flipped, so the violation strings
are pinned too, as are the derived sets and ``classify_atlas`` counts of
those atlases; so are the refusals of a bad reference pattern and of a
coloring whose exterior leaves it.  The digests were recorded from the
implementation that did every set operation through ``VertexSet``, so a
digest that changes means an output changed.
"""

import hashlib

import pytest

from chroma.coloring import striped_pattern_coloring
from chroma.decomposition import (
    Atlas,
    RegionDecomposition,
    classify_atlas,
    construct_breakup,
    decompose,
    verify_breakup,
)
from chroma.errors import ChromaError
from chroma.lattice import build_graph
from chroma.patterns import Pattern, enumerate_dominant
from chroma.rng import make_rng
from chroma.sampler import heat_bath_sweep

from test_decomposition import inner_domain

# name: (dims, periodic, q, whole-box domain, colorings)
CASES = {
    "24x24-q3": ((24, 24), None, 3, True, 6),
    "8x8x8-q4": ((8, 8, 8), None, 4, False, 4),
    "8x2x6-periodic1-q5": ((8, 2, 6), (False, True, False), 5, False, 6),
}

PINNED = {
    "24x24-q3": {
        "decompose": "052d0cbb6cc7f58f2658bbca284b7a8707e9c033e00936f31e17c321238c3e80",
        "construct_breakup": "6d60b165b301c95b4cb1e95f93c8aa37206f2f3c33a4c6dec932f94d465f27df",
        "verify_breakup": "a8fb7dfcde8eb23c47e0ed6b7a5b67c9e91221e4845dcbc2b4fadd8ba3502d92",
        "classify_atlas": "1e3f133ce648ed223f69e56332a2441778a46b4f162737411b35a6e432d39043",
    },
    "8x2x6-periodic1-q5": {
        "decompose": "b730cb2c996722737ea47cc82603681939ceab8418841f16532306178557c06c",
        "construct_breakup": "931f45efa085dec42dea0eb809016e9aa910aea80c0a6be88dde9cdec199adb2",
        "verify_breakup": "5761794028764c13c1a3ebb60b8893062716538477572491f2e9fd0ae9d47e09",
        "classify_atlas": "ebef446151eb636eb86ebaafaebf0573174bef5d619317cbaaff3014c7b253b8",
    },
    "8x8x8-q4": {
        "decompose": "c496082010020860ef598b319cdf1c1f11bc821ee9345c2aa4186741e9f860ca",
        "construct_breakup": "4770586620df7af8751bf4405874a36ed9f89f757ba2fe511b472c600d8fa646",
        "verify_breakup": "25dc4b2104c4f249edeea20c5243b4f52099c1e693fa1993803ac43a54e470f0",
        "classify_atlas": "535329d9756191710ed03e4e9848f4d29c92dd3facae2343e848183229d8f6e7",
    },
}


def reference_pattern(q):
    return Pattern.make(q, range(1, q // 2 + 1), range(q // 2 + 1, q + 1))


def attempt(call):
    """The call's result, or the class and message of the error it raised."""
    try:
        return call()
    except ChromaError as exc:
        return (type(exc).__name__, str(exc))


def flip_bits(G, A, rng):
    return Atlas(G, {P: U ^ G.vertex_set(int(v) for v in rng.integers(0, G.n, 3))
                     for P, U in A.x_p.items()})


def case_outputs(dims, periodic, q, whole, steps):
    G = build_graph(dims, periodic)
    p0 = reference_pattern(q)
    dom = G.full_set() if whole else inner_domain(G)
    rng = make_rng(14)
    other = [P for P in enumerate_dominant(q) if P != p0][int(rng.integers(0, q))]
    got = {"decompose": [], "construct_breakup": [], "verify_breakup": [], "classify_atlas": []}
    f = striped_pattern_coloring(G, p0)
    for step in range(steps):
        f = heat_bath_sweep(f, G, dom, p0, rng)
        Z = decompose(G, f)
        got["decompose"].append(Z.to_json())
        V = G.vertex_set([int(rng.integers(0, G.n))])
        radius = (5, 1, 2)[step % 3]
        pats = [p0, other] if step == 1 else None
        for r in (5, radius):
            X = attempt(lambda: construct_breakup(G, f, V, dom, p0, r, pats))
            got["construct_breakup"].append(X if isinstance(X, tuple) else X.to_json())
        for A in (X, Z.as_atlas()):
            if isinstance(A, tuple):
                continue
            for atlas in (A, flip_bits(G, A, rng)):
                got["classify_atlas"].append((classify_atlas(atlas), atlas.x_overlap.ids(),
                                              atlas.x_bad.ids(), atlas.x_star.ids()))
                for r in (5, radius):
                    rep = verify_breakup(atlas, f, dom, p0, r)
                    got["verify_breakup"].append((rep.ok, rep.violations))
    # the two refusals: a class-1 reference pattern (odd q) and an exterior
    # cell recolored out of the reference pattern
    if q % 2:
        flipped = Pattern.make(q, p0.b, p0.a)
        got["construct_breakup"].append(
            attempt(lambda: construct_breakup(G, f, V, dom, flipped)))
    rim = min(G.rim)
    g = f.copy()
    g.values[rim] = (p0.b if G.parity[rim] == 0 else p0.a)[0]
    got["construct_breakup"].append(attempt(lambda: construct_breakup(G, g, V, dom, p0)))
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_breakup_outputs_pinned(name):
    got = case_outputs(*CASES[name])
    digest = {key: hashlib.sha256(repr(val).encode()).hexdigest()
              for key, val in got.items()}
    assert digest == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_decomposition_rebuilt_from_its_regions(name):
    # a decomposition is its regions: rebuilt from them it is equal and
    # derives the same overlap, bad and defect sets
    dims, periodic, q, whole, steps = CASES[name]
    G = build_graph(dims, periodic)
    p0 = reference_pattern(q)
    dom = G.full_set() if whole else inner_domain(G)
    rng = make_rng(14)
    f = striped_pattern_coloring(G, p0)
    for _ in range(steps):
        f = heat_bath_sweep(f, G, dom, p0, rng)
        Z = decompose(G, f)
        W = RegionDecomposition(G, Z.z_p)
        assert W == Z and W.z_p is not Z.z_p
        assert (W.z_overlap, W.z_bad, W.z_star) == (Z.z_overlap, Z.z_bad, Z.z_star)
