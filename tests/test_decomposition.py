import hashlib
import json
import random
import re

import pytest

from chroma.coloring import Coloring, is_proper, striped_pattern_coloring
from chroma.decomposition import (
    Atlas,
    RegionDecomposition,
    bp_components,
    classify_atlas,
    construct_breakup,
    decompose,
    seen_from,
    verify_breakup,
)
from chroma.errors import PreconditionError
from chroma.lattice import _pack_slots, build_graph, closed_neighborhood, expand
from chroma.patterns import (
    Pattern,
    _color_planes,
    _p_odd,
    _pattern_slots,
    enumerate_dominant,
    vertex_in_pattern,
)
from chroma.rng import make_rng
from chroma.sampler import heat_bath_sweep
from chroma.suites import random_subset

import oracles
from test_lattice import SHIFT_GRAPHS

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


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_seen_from_matches_component_flood(dims, periodic):
    # per-component oracle: a component of the fattened set is kept when it
    # meets the rim, holds a vertex of V or cuts one off from the rim; on a
    # graph without rim nothing is kept
    G = build_graph(dims, periodic)
    nbrs = [oracles.neighbors_of(dims, periodic, v) for v in range(G.n)]
    rim = {v for v in range(G.n) if any(
        not per and c in (0, length - 1)
        for c, length, per in zip(oracles.coords_of(dims, v), dims, periodic))}
    rng = random.Random(len(dims) * 100 + G.n)
    for trial in range(40):
        star = {v for v in range(G.n) if rng.random() < 0.1}
        V = set(rng.sample(range(G.n), 1 + trial % 3))
        radius = trial % 3
        fat = set(star)
        for _ in range(radius):
            fat |= {u for v in fat for u in nbrs[v]}
        want = set()
        for comp in (oracles.flood_components(dims, periodic, fat) if rim else []):
            reach = rim - comp
            frontier = list(reach)
            while frontier:
                step = {u for v in frontier for u in nbrs[v]} - comp - reach
                reach |= step
                frontier = list(step)
            if comp & rim or V - reach:
                want |= comp
        got = seen_from(G, G.vertex_set(star), G.vertex_set(V), radius)
        assert set(got.ids()) == want


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


NOT_DOMINANT = Pattern.make(3, [1], [2])


@pytest.mark.parametrize("case", ["other pattern only", "no patterns", "q=4 reference",
                                  "q=4 bp pattern", "non-dominant bp pattern",
                                  "non-dominant atlas pattern"])
def test_breakup_patterns_are_validated(case):
    # a breakup's patterns must include the reference, and every pattern
    # must be a dominant one of the coloring's q; the refusal names it
    G = build_graph([8, 8])
    p0 = p0_for(3)
    f, center = droplet_coloring(G, 3)
    V, dom = G.vertex_set([center]), inner_domain(G)
    call, named = {
        "other pattern only": (lambda: construct_breakup(
            G, f, V, dom, p0, 5, [Pattern.make(3, [2], [1, 3])]), p0),
        "no patterns": (lambda: construct_breakup(G, f, V, dom, p0, 5, []), p0),
        "q=4 reference": (lambda: construct_breakup(G, f, V, dom, p0_for(4)), p0_for(4)),
        "q=4 bp pattern": (lambda: bp_components(G, f, V, p0_for(4)), p0_for(4)),
        "non-dominant bp pattern": (lambda: bp_components(G, f, V, NOT_DOMINANT), NOT_DOMINANT),
        "non-dominant atlas pattern": (lambda: verify_breakup(
            Atlas(G, {p0: G.full_set(), NOT_DOMINANT: G.empty_set()}), f, dom, p0), NOT_DOMINANT),
    }[case]
    with pytest.raises(PreconditionError, match=re.escape(repr(named))):
        call()


def test_coloring_of_another_size_is_refused():
    # every decomposition entry refuses a coloring with fewer or more values
    # than the graph has cells, instead of reading it as a partial box
    G = build_graph([8, 8])
    p0 = p0_for(3)
    V, dom = G.vertex_set([G.vid((4, 4))]), inner_domain(G)
    X = construct_breakup(G, striped_pattern_coloring(G, p0), V, dom, p0)
    for dims in ((8, 7), (8, 9)):
        f = striped_pattern_coloring(build_graph(dims), p0)
        for call in (lambda: decompose(G, f),
                     lambda: construct_breakup(G, f, V, dom, p0),
                     lambda: bp_components(G, f, V, p0),
                     lambda: verify_breakup(X, f, dom, p0)):
            with pytest.raises(PreconditionError, match=f"{len(f.values)} values for 64 cells"):
                call()


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


@pytest.mark.parametrize("dims,periodic,q", [((14, 14), None, 3), ((6, 6, 6), None, 4),
                                             ((10, 10), (True, False), 5),
                                             ((16, 2), (False, True), 3)])
def test_bp_components_match_flood_oracle(dims, periodic, q):
    # b_p is the union of the distance-2 components of bar Z_P's complement
    # that meet V, each listed by BFS; droplets (as in droplet_coloring) at
    # sparse random even centers leave several components, some missing V
    G = build_graph(dims, periodic)
    p0 = p0_for(q)
    rng = make_rng(9)
    seen = set()
    for _ in range(3):
        f = striped_pattern_coloring(G, p0)
        centers = random_subset(G, rng, G.even, 0.04)
        for center in centers:
            for u in G.neighbors[center]:
                f.values[u] = p0.b[0]
            f.values[center] = p0.b[1]
        assert is_proper(f, G)
        for P in enumerate_dominant(q):
            V = G.vertex_set(int(v) for v in rng.integers(0, G.n, int(rng.integers(1, 3))))
            V = V | G.vertex_set(list(centers)[:1])
            res = bp_components(G, f, V, P)
            rest = set(res.bar_z_p.complement().ids())
            comps = oracles.flood_components(dims, periodic or (False,) * len(dims), rest, 2)
            want = set().union(*(comp for comp in comps if comp & set(V.ids())))
            assert set(res.b_p.ids()) == want
            seen.add((len(comps) > 1, bool(want), want != rest))
    assert (True, True, True) in seen


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
            "b495ccc41b495b41626c1c3241f465ea62b3c95a36ff45ed7bb87301cf4d9a51",
        "bp_components":
            "d50a5c16beb79e55c1d040f330adbb5e924587d10fec2b6eee95b99e46321479",
        "verify_breakup":
            "1574c0f0f5354945314d8e07c5f01a174a33b71896e04b4d0a896b77bdddc0dd",
        "construct_breakup":
            "3e4a65407dbc7f84d0672ea1c621f47e51e9ec1e77b8f1adb5dd6a214a17f511",
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


def test_pattern_cells_from_planes_match_vertex_predicate():
    # random colorings with HOLEs on a box and a mixed torus: each plane
    # holds the cells of its color, and the pattern cells built from the
    # planes are the cells whose own color fits P at their parity
    rng = random.Random(11)
    for dims, periodic in (((5, 6), None), ((4, 4, 3), (True, False, False))):
        G = build_graph(dims, periodic)
        for q in (3, 4, 5):
            for _ in range(4):
                f = Coloring([rng.randrange(q + 1) for _ in range(G.n)], q)
                planes = _color_planes(G, f)
                assert planes == [G.vertex_set(v for v in range(G.n) if f.values[v] == c).bits
                                  for c in range(q + 1)]
                want = {P: G.vertex_set(v for v in range(G.n)
                                        if vertex_in_pattern(f.values[v], G.parity[v], P)).bits
                        for P in enumerate_dominant(q)}
                for P in enumerate_dominant(q):
                    assert _pattern_slots(G, planes, (P,))[0] == want[P]
                # every pattern at once, pattern i's cells and P-odd cells in slot i
                pats = tuple(reversed(enumerate_dominant(q)))
                assert _pattern_slots(G, planes, pats) == (
                    _pack_slots([want[P] for P in pats], G.n),
                    _pack_slots([_p_odd(G, P).bits for P in pats], G.n))
                if planes[0]:
                    with pytest.raises(PreconditionError):
                        decompose(G, f)


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_derived_sets_match_per_vertex_definitions(dims, periodic):
    # random families of zero to four regions, each sparse, half full or
    # nearly full: the overlap is the cells in two or more regions, the bad
    # set the cells in none, and the defect set adds every cell with a
    # neighbor on the other side of some region's boundary
    G = build_graph(dims, periodic)
    nbrs = [oracles.neighbors_of(dims, periodic, v) for v in range(G.n)]
    rng = random.Random(sum(dims) * 10 + len(dims))
    pats = enumerate_dominant(4)
    for _ in range(30):
        density = rng.choices((0.1, 0.5, 0.9), k=4)
        family = {P: {v for v in range(G.n) if rng.random() < p}
                  for P, p in zip(rng.sample(pats, rng.randrange(5)), density)}
        hits = [sum(v in S for S in family.values()) for v in range(G.n)]
        overlap = {v for v in range(G.n) if hits[v] >= 2}
        bad = {v for v in range(G.n) if hits[v] == 0}
        crossing = {v for v in range(G.n) for S in family.values()
                    if any((u in S) != (v in S) for u in nbrs[v])}
        X = Atlas(G, {P: G.vertex_set(S) for P, S in family.items()})
        want = [G.vertex_set(W).bits for W in (overlap, bad, crossing | overlap | bad)]
        assert [X.x_overlap.bits, X.x_bad.bits, X.x_star.bits] == want


def test_region_families_refuse_a_set_of_another_graph():
    # an atlas reads each region through the ownership guard when it is
    # built, and a decomposition every one of its sets, so no check
    # downstream reads a foreign bitmap with this graph's cells
    G, H = build_graph([8, 8]), build_graph([6, 6])
    p0 = p0_for(3)
    message = "vertex sets belong to different ambient graphs: a graph of 36 cells, not 64"
    with pytest.raises(PreconditionError, match=message):
        Atlas(G, {p0: H.full_set()})
    with pytest.raises(PreconditionError, match=message):
        Atlas(G, {p0: G.full_set(), Pattern.make(3, [2], [1, 3]): H.empty_set()})
    E, W = G.empty_set(), H.empty_set()
    for fields in (({p0: W}, E, E, E), ({p0: E}, W, E, E), ({p0: E}, E, W, E),
                   ({p0: E}, E, E, W)):
        with pytest.raises(PreconditionError, match=message):
            RegionDecomposition(G, *fields)


def test_atlas_copies_its_regions_and_keeps_its_derived_sets():
    G = build_graph([6, 6])
    p0 = p0_for(3)
    x_p = {p0: G.full_set()}
    X = Atlas(G, x_p)
    x_p[p0] = G.empty_set()
    assert X.x_p == {p0: G.full_set()} and X == Atlas(G, {p0: G.full_set()})
    assert (X.x_overlap, X.x_bad, X.x_star) == (G.empty_set(),) * 3
    assert Atlas(G, x_p).x_bad == G.full_set() and X != Atlas(G, x_p)


def test_verify_failures_named_in_atlas_order():
    # an atlas whose patterns run in reverse sort order, with two non-regular
    # regions (one of each class) and one failing clause: the messages come
    # region by region in x_p order, and each witness is regularity_check's
    from chroma.geometry import regularity_check

    G = build_graph([8, 8])
    p0 = p0_for(3)
    f = striped_pattern_coloring(G, p0)
    pats = enumerate_dominant(3)
    x_p = {P: G.empty_set() for P in reversed(pats)}
    x_p[p0] = G.full_set() - G.vertex_set([G.vid((3, 3))])
    other = Pattern.make(3, [1, 2], [3])
    x_p[other] = G.vertex_set([G.vid((5, 5)), G.vid((5, 6))])
    rep = verify_breakup(Atlas(G, x_p), f, inner_domain(G), p0)
    want = []
    for P, U in x_p.items():
        ok, witness = regularity_check(G, U, "even" if P.klass == 0 else "odd")
        if not ok:
            want.append(f"region {P.text()} is not a regular set (witness {witness})")
    assert [P.text() for P in x_p][2] == other.text() and len(want) == 2
    assert rep.violations == (
        *want,
        f"vertex 45 near the defect set: membership in {other.text()} is True but "
        "its neighborhood in-pattern is False",
    )
    assert not rep.ok


def test_decompose_pinned_on_twenty_patterns():
    # 48x48 at q = 5 after 12 sweeps: every one of the 20 dominant patterns
    # orders a region, so all of them are decomposed together
    G = build_graph([48, 48])
    p0 = p0_for(5)
    rng = make_rng(48)
    f = striped_pattern_coloring(G, p0)
    for _ in range(12):
        f = heat_bath_sweep(f, G, G.full_set(), p0, rng)
    got = decompose(G, f).to_json()
    assert sum(1 for ids in got["regions"].values() if ids) == 20
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == "6045debe15158a8923039648b460729fd063b3d480b7cb084e26cd94064ebbeb"
