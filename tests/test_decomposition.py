import hashlib

import pytest

from chroma.coloring import Coloring, is_proper, striped_pattern_coloring
from chroma.decomposition import (
    Atlas,
    bp_components,
    classify_atlas,
    construct_breakup,
    decompose,
    seen_from,
    verify_breakup,
)
from chroma.errors import PreconditionError
from chroma.lattice import build_graph, closed_neighborhood, expand
from chroma.patterns import Pattern, enumerate_dominant, vertex_in_pattern
from chroma.rng import make_rng
from chroma.sampler import heat_bath_sweep

P0_BY_Q = {3: ([1], [2, 3]), 4: ([1, 2], [3, 4]), 5: ([1, 2], [3, 4, 5])}


def p0_for(q):
    return Pattern.make(q, *P0_BY_Q[q])


def inner_domain(G, depth=1):
    return G.vertex_set(
        [
            v
            for v in range(G.n)
            if all(
                G.periodic[a] or depth <= c < G.dims[a] - depth
                for a, c in enumerate(G.coords(v))
            )
        ]
    )


def droplet_coloring(G, q):
    """Striped reference fill with one out-of-pattern cell at the center.

    The center's odd neighbors are recolored to a single interior color
    (still in pattern) and the center takes a different interior color,
    so exactly one vertex violates the reference pattern and all edits
    stay inside the center's closed neighborhood.
    """
    p0 = p0_for(q)
    f = striped_pattern_coloring(G, p0)
    center = G.vid(tuple(x // 2 for x in G.dims))
    if G.parity[center] != 0:
        center = G.neighbors[center][0]
    b_colors = p0.b
    for u in G.neighbors[center]:
        f.values[u] = b_colors[0]
    f.values[center] = b_colors[1]
    assert is_proper(f, G)
    return f, center


def test_decompose_overlap_everything_on_torus():
    # evens 1 and odds 3 at q=4: every pattern with 1 on the A side holds
    # everywhere, so the overlap covers the torus and nothing is bad
    G = build_graph([4, 4], [True, True])
    f = Coloring([1 if G.parity[v] == 0 else 3 for v in range(G.n)], 4)
    Z = decompose(G, f)
    for P in enumerate_dominant(4):
        if 1 in P.a and 3 in P.b:
            assert Z.z_p[P] == G.full_set()
    assert Z.z_overlap == G.full_set()
    assert not Z.z_bad
    M = classify_atlas(Z.as_atlas()).M
    assert M == G.n


def test_decompose_pure_pattern_full_region():
    for dims, q in [((6, 6), 3), ((6, 6), 4), ((4, 4, 4), 3)]:
        G = build_graph(dims)
        p0 = p0_for(q)
        f = striped_pattern_coloring(G, p0)
        Z = decompose(G, f)
        assert Z.z_p[p0] == G.full_set()
        assert not Z.z_star


def _single_flip_instance():
    """6x6, q=3: a base whose only monochrome neighborhood is the center's,
    then the center flips out of pattern.  Found by a small deterministic
    search over the odd sublattice."""
    G = build_graph([6, 6])
    v = G.vid((3, 3))
    odds = [u for u in range(G.n) if G.parity[u] == 1]
    nv = set(G.neighbors[v])
    free = [u for u in odds if u not in nv]
    assign = {u: 2 for u in nv}

    def even_ok(w):
        vals = [assign.get(u) for u in G.neighbors[w]]
        return None in vals or len(set(vals)) >= 2

    def rec(i):
        if i == len(free):
            return True
        u = free[i]
        for c in (2, 3):
            assign[u] = c
            if all(even_ok(w) for w in G.neighbors[u] if w != v) and rec(i + 1):
                return True
            del assign[u]
        return False

    assert rec(0)
    values = [1 if G.parity[u] == 0 else assign[u] for u in range(G.n)]
    f = Coloring(values, 3)
    f.values[v] = 3
    assert is_proper(f, G)
    return G, f, v


def test_decompose_single_defect_localized():
    G, f, center = _single_flip_instance()
    Z = decompose(G, f)
    assert Z.z_star
    assert Z.z_star.issubset(expand(G, G.vertex_set([center]), 2))


def test_regions_minus_overlap_in_pattern():
    G = build_graph([6, 6])
    rng = make_rng(77)
    p0 = p0_for(3)
    f = striped_pattern_coloring(G, p0)
    cur = f
    for _ in range(10):
        cur = heat_bath_sweep(cur, G, inner_domain(G), p0, rng)
    Z = decompose(G, cur)
    for P, region in Z.z_p.items():
        for v in region - Z.z_overlap:
            assert vertex_in_pattern(cur.values[v], G.parity[v], P)


def test_seen_from_cases():
    G = build_graph([9, 9])
    V = G.vertex_set([G.vid((4, 4))])
    assert not seen_from(G, G.empty_set(), V)
    # a ring around the center is kept once fattened (radius 1 keeps it thin)
    ring = G.vertex_set(
        [G.vid((i, j)) for i in (2, 6) for j in range(2, 7)]
        + [G.vid((i, j)) for j in (2, 6) for i in range(3, 6)]
    )
    kept = seen_from(G, ring, V, radius=1)
    assert expand(G, ring, 1).issubset(kept)
    # a far-away blob neither surrounds the center nor reaches the rim
    blob = G.vertex_set([G.vid((4, 0))])  # touches the rim: kept
    assert seen_from(G, blob, V, radius=0) == blob
    inner_blob = G.vertex_set([G.vid((4, 2))])
    assert not seen_from(G, inner_blob, V, radius=0)


def test_construct_trivial_on_pure():
    for dims, q in [((6, 6), 3), ((6, 6), 4), ((4, 4, 4), 4)]:
        G = build_graph(dims)
        p0 = p0_for(q)
        f = striped_pattern_coloring(G, p0)
        dom = inner_domain(G)
        V = G.vertex_set([dom.min_id()])
        X = construct_breakup(G, f, V, dom, p0)
        assert not X.x_star
        assert X.x_p[p0] == G.full_set()
        assert verify_breakup(X, f, dom, p0).ok
        cls = classify_atlas(X)
        assert (cls.L, cls.M, cls.N) == (0, 0, 0)


def test_construct_defect_excludes_vertex():
    for dims, q in [((6, 6), 3), ((6, 6), 4), ((4, 4, 4), 3), ((4, 4, 4), 4)]:
        G = build_graph(dims)
        p0 = p0_for(q)
        f, center = droplet_coloring(G, q)
        # on the small 3d box the whole graph is the domain (its exterior is
        # the empty set and infinity is the rim)
        dom = inner_domain(G) if len(dims) == 2 else G.full_set()
        X = construct_breakup(G, f, G.vertex_set([center]), dom, p0)
        rep = verify_breakup(X, f, dom, p0)
        assert rep.ok, rep.violations
        assert not (center in X.x_p[p0] and center not in X.x_overlap)


def test_z_decomposition_is_a_breakup():
    G = build_graph([6, 6])
    p0 = p0_for(3)
    f, center = droplet_coloring(G, 3)
    dom = inner_domain(G)
    Z = decompose(G, f)
    rep = verify_breakup(Z.as_atlas(), f, dom, p0)
    assert rep.ok, rep.violations


def test_verify_flags_nonregular_region():
    G = build_graph([6, 6])
    p0 = p0_for(3)
    f = striped_pattern_coloring(G, p0)
    dom = inner_domain(G)
    bad = {P: G.empty_set() for P in enumerate_dominant(3)}
    bad[p0] = G.full_set() - G.vertex_set([G.vid((3, 3))])  # punctured: not regular
    rep = verify_breakup(Atlas(G, bad), f, dom, p0)
    assert not rep.ok
    assert any("regular" in v for v in rep.violations)


def test_construct_requires_reference_exterior():
    G = build_graph([6, 6])
    p0 = p0_for(3)
    f, center = droplet_coloring(G, 3)
    tiny = G.vertex_set([center])  # interior complement includes the droplet
    with pytest.raises(PreconditionError):
        construct_breakup(G, f, G.vertex_set([center]), tiny, p0)


def test_construct_nested_droplet_hole_filled():
    # a ring of a second pattern around a still-pure core: the core is a
    # hole of the kept defect region and must be absorbed by one pattern
    G = build_graph([10, 10])
    q = 4
    p0 = p0_for(q)
    p = Pattern.make(q, [1, 3], [2, 4])
    f = striped_pattern_coloring(G, p0)
    lo, hi = 3, 6
    ring = [
        (i, j)
        for i in range(lo, hi + 1)
        for j in range(lo, hi + 1)
        if i in (lo, hi) or j in (lo, hi)
    ]
    region = [
        (i, j) for i in range(lo - 1, hi + 2) for j in range(lo - 1, hi + 2)
    ]
    # order the ring region into the second pattern, leaving the core pure
    for (i, j) in ring:
        v = G.vid((i, j))
        side = p.a if G.parity[v] == 0 else p.b
        f.values[v] = side[(i + 2 * j) % len(side)]
    # make the seam proper by pushing shared colors at the interfaces
    for (i, j) in region:
        v = G.vid((i, j))
        if (i, j) not in ring:
            side = p0.a if G.parity[v] == 0 else p0.b
            shared = [c for c in side if c in (p.a if G.parity[v] == 0 else p.b)]
            if shared:
                f.values[v] = shared[0]
    if not is_proper(f, G):
        pytest.skip("seam construction did not stay proper on this geometry")
    dom = inner_domain(G)
    center = G.vertex_set([G.vid((4, 4))])
    X = construct_breakup(G, f, center, dom, p0)
    rep = verify_breakup(X, f, dom, p0)
    assert rep.ok, rep.violations
    union = G.empty_set()
    for U in X.x_p.values():
        union = union | U
    assert union | X.x_bad == G.full_set()


def test_construct_matches_decomposition_near_defects():
    G = build_graph([6, 6])
    p0 = p0_for(3)
    f, center = droplet_coloring(G, 3)
    dom = inner_domain(G)
    V = G.vertex_set([center])
    Z = decompose(G, f)
    X = construct_breakup(G, f, V, dom, p0)
    assert X.x_star == (Z.z_star & seen_from(G, Z.z_star, V))
    # repeated runs are stable (pure functions)
    X2 = construct_breakup(G, f, V, dom, p0)
    assert X2.x_p == X.x_p


def test_classify_plus_shape_boundary_d3():
    G = build_graph([7, 7, 7])
    q = 3
    p0 = p0_for(q)
    center = G.vid((3, 3, 3))
    if G.parity[center] != 0:
        center = G.neighbors[center][0]
    plus = closed_neighborhood(G, G.vertex_set([center]))
    x_p = {P: G.empty_set() for P in enumerate_dominant(q)}
    x_p[p0] = plus
    cls = classify_atlas(Atlas(G, x_p))
    assert cls.L == 2 * G.d * (2 * G.d - 1) == 30
    assert cls.min_boundary_ok


def test_bp_components():
    G = build_graph([6, 6])
    p0 = p0_for(3)
    f = striped_pattern_coloring(G, p0)
    V = G.vertex_set([G.vid((3, 3))])
    res = bp_components(G, f, V, p0)
    assert not res.b_p and res.diam_star == 0

    f2, center = droplet_coloring(G, 3)
    res2 = bp_components(G, f2, G.vertex_set([center]), p0)
    assert center in res2.b_p
    assert res2.diam_star >= 2
    # V disjoint from every defect component: nothing is reported
    far = G.vertex_set([G.vid((0, 0))])
    res3 = bp_components(G, f2, far, p0)
    if (0 in res2.b_p) is False:
        assert G.vid((0, 0)) in res3.b_p or not res3.b_p or res3.diam_star >= 0


def test_randomized_construct_verify_small():
    rng = make_rng(2024)
    G = build_graph([6, 6])
    q = 3
    p0 = p0_for(q)
    dom = inner_domain(G)
    cur = striped_pattern_coloring(G, p0)
    for trial in range(40):
        cur = heat_bath_sweep(cur, G, dom, p0, rng)
        V = G.vertex_set([int(rng.integers(0, G.n))])
        X = construct_breakup(G, cur, V, dom, p0)
        rep = verify_breakup(X, cur, dom, p0)
        assert rep.ok, (trial, rep.violations[:3])


def test_contour_outputs_pinned():
    # fixed outputs of the decomposition layer on fixed instances (a 2D and a
    # 3D box, a mixed torus; q = 3, 4, 5): a rewrite of the neighbourhood
    # machinery must leave every one of them unchanged
    want = {
        "decompose":
            "0123a9a6bc032d243a8cc1483451cfd74aa18f583be1ba6b66ebd52dd6b58606",
        "bp_components":
            "f6191221b9896ba44e081e58115db84f76c1881359e3ea40ae206de76af13a9e",
        "verify_breakup":
            "b72e0bdaea1e103a99e88a3f8ce9f13e9c24d6e72397cca789c750e62ed3cc1d",
        "construct_breakup":
            "2ba63c75361b98c750a28f8a92a185f5511c0e270bca699f2b2f51cf9cf92593",
    }
    got = {key: [] for key in want}
    for dims, periodic, q in [((8, 8), None, 3), ((6, 6, 4), None, 4),
                              ((6, 6), (True, False), 5)]:
        G = build_graph(dims, periodic)
        p0 = p0_for(q)
        dom = inner_domain(G)
        rng = make_rng(5)
        states = [striped_pattern_coloring(G, p0)]
        for _ in range(4):
            states.append(heat_bath_sweep(states[-1], G, dom, p0, rng))
        for f in states[1:]:
            Z = decompose(G, f)
            got["decompose"].append(Z.to_json())
            V = G.vertex_set([int(rng.integers(0, G.n))])
            for P in enumerate_dominant(q):
                res = bp_components(G, f, V, P)
                got["bp_components"].append(
                    (res.bar_z_p.ids(), res.b_p.ids(), res.diam_star))
            X = construct_breakup(G, f, V, dom, p0)
            got["construct_breakup"].append(X.to_json())
            for A in (X, Z.as_atlas()):
                flipped = {P: U ^ G.vertex_set(int(v) for v in rng.integers(0, G.n, 3))
                           for P, U in A.x_p.items()}
                for atlas in (A, Atlas(G, flipped)):
                    rep = verify_breakup(atlas, f, dom, p0)
                    got["verify_breakup"].append((rep.ok, rep.violations))
    digest = {key: hashlib.sha256(repr(val).encode()).hexdigest()
              for key, val in got.items()}
    assert digest == want
