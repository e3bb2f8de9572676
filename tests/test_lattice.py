import pytest

from chroma.errors import ConfigError
from chroma.lattice import (
    LatticeGraph,
    VertexSet,
    build_graph,
    closed_neighborhood,
    co_connected_closure,
    connected_components,
    diam_star,
    directed_out_edges,
    edge_boundaries,
    edge_set,
    expand,
    n_t,
    n_t_and_expand,
    neighborhood,
    vertex_boundaries,
)
from chroma.rng import make_rng

import oracles


def test_build_torus_regular():
    G = build_graph([4, 4], [True, True])
    assert G.n == 16
    assert all(d == 4 for d in G.degree)
    assert not G.rim


def test_build_box_degrees():
    G = build_graph([3, 3])
    assert G.degree[G.vid((1, 1))] == 4
    assert G.degree[G.vid((0, 0))] == 2


def test_periodic_parity_rule():
    build_graph([2, 3], [True, False])  # even periodic length accepted
    with pytest.raises(ConfigError):
        build_graph([3, 3], [True, False])


def test_parity_classes_partition_and_edges_cross():
    for dims, per in [((4, 4), (True, True)), ((3, 5), (False, False))]:
        G = build_graph(dims, per)
        assert (G.even | G.odd) == G.full_set()
        assert not (G.even & G.odd)
        for v in range(G.n):
            for u in G.neighbors[v]:
                assert G.parity[u] != G.parity[v]


def test_vertex_boundaries_singleton():
    G = build_graph([5, 5])
    v = G.vid((2, 2))
    internal, external, both = vertex_boundaries(G, G.vertex_set([v]))
    assert internal == G.vertex_set([v])
    assert len(external) == 4
    assert both == internal | external


def test_vertex_boundaries_whole_torus():
    G = build_graph([4, 4], [True, True])
    internal, external, _ = vertex_boundaries(G, G.full_set())
    assert not internal and not external


def test_vertex_boundaries_sub_box_oracle():
    G = build_graph([7, 7])
    members = {G.vid((i, j)) for i in range(2, 5) for j in range(2, 5)}
    U = G.vertex_set(members)
    internal, external, _ = vertex_boundaries(G, U)
    assert len(internal) == 8 and len(external) == 12
    oi, oe = oracles.boundary_sets((7, 7), (False, False), members)
    assert set(internal.ids()) == oi and set(external.ids()) == oe


def test_n_t_basics():
    G = build_graph([6, 6])
    v = G.vid((3, 3))
    nt, plus = n_t_and_expand(G, G.vertex_set([v]), 1, 0)
    assert set(nt.ids()) == set(G.neighbors[v])
    assert plus == G.vertex_set([v])


def test_n_t_adjacent_pair_t2_brute_force():
    # no triangles: two adjacent cells share no common neighbor
    G = build_graph([6, 6])
    u, v = G.vid((2, 2)), G.vid((2, 3))
    U = G.vertex_set([u, v])
    nt = n_t(G, U, 2)
    want = {
        w
        for w in range(G.n)
        if len(set(G.neighbors[w]) & {u, v}) >= 2
    }
    assert set(nt.ids()) == want == set()
    assert len(nt) * 2 <= G.full_degree * len(U)


def test_sizes_bound_randomized():
    G = build_graph([6, 6])
    rng = make_rng(5)
    for _ in range(100):
        U = G.vertex_set([v for v in range(G.n) if rng.random() < 0.3])
        if not U:
            continue
        t = int(rng.integers(1, G.full_degree + 1))
        assert len(n_t(G, U, t)) * t <= G.full_degree * len(U)


def test_edge_boundary_symmetry_and_directed_count():
    G = build_graph([5, 5])
    rng = make_rng(9)
    for _ in range(30):
        U = G.vertex_set([v for v in range(G.n) if rng.random() < 0.4])
        W = G.vertex_set([v for v in range(G.n) if rng.random() < 0.4])
        assert edge_set(G, U, W) == edge_set(G, W, U)
        rep = edge_boundaries(G, U)
        assert len(rep.directed_out) == len(edge_set(G, U, U.complement()))


def test_even_odd_identity_examples():
    G = build_graph([7, 7])
    v = G.vid((2, 2))  # even interior vertex
    rep = edge_boundaries(G, G.vertex_set([v]))
    assert rep.identity_defined and rep.identity_holds
    assert rep.imbalance == 1
    assert len(rep.even_part) == 4 and len(rep.odd_part) == 0

    domino = G.vertex_set([v, G.vid((2, 3))])
    rep = edge_boundaries(G, domino)
    assert rep.imbalance == 0
    assert len(rep.even_part) == 3 and len(rep.odd_part) == 3
    assert rep.identity_holds

    rep = edge_boundaries(G, G.empty_set())
    assert rep.imbalance == 0 and not rep.edges and rep.identity_holds


def test_even_odd_identity_flagged_on_rim_or_torus():
    G = build_graph([5, 5])
    rep = edge_boundaries(G, G.vertex_set([0]))  # corner lacks full degree
    assert not rep.identity_defined
    T = build_graph([4, 4], [True, True])
    rep = edge_boundaries(T, T.vertex_set([5]))
    assert not rep.identity_defined


def test_components_power():
    G = build_graph([6, 6])
    a, b = G.vid((1, 1)), G.vid((1, 3))
    U = G.vertex_set([a, b])
    assert len(connected_components(G, U, 1)) == 2
    assert len(connected_components(G, U, 2)) == 1


def test_components_match_flood_fill_oracle():
    G = build_graph([6, 6], [True, True])
    rng = make_rng(3)
    for _ in range(20):
        members = {v for v in range(G.n) if rng.random() < 0.55}
        if len(members) > 20:
            members = set(sorted(members)[:20])
        for power in (1, 2):
            got = [frozenset(c.ids()) for c in
                   connected_components(G, G.vertex_set(members), power)]
            want = oracles.flood_components((6, 6), (True, True), members, power)
            assert sorted(got, key=min) == sorted(want, key=min)


# a box, a mixed Z^2 x T graph, a length-1 axis and a length-2 periodic axis
SHIFT_GRAPHS = [((5, 6), (False, False)), ((4, 4, 3), (True, False, False)),
                ((1, 7), (False, False)), ((2, 6), (True, False))]


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_shift_neighborhood_matches_oracles(dims, periodic):
    G = build_graph(dims, periodic)
    rng = make_rng(17)
    samples = [set(), set(range(G.n))]
    for _ in range(15):
        p = rng.random()
        samples.append({v for v in range(G.n) if rng.random() < p})
    for members in samples:
        U = G.vertex_set(members)
        nbhd = set()
        for v in members:
            nbhd.update(oracles.neighbors_of(dims, periodic, v))
        assert set(neighborhood(G, U).ids()) == nbhd
        assert set(closed_neighborhood(G, U).ids()) == nbhd | members
        internal, external, both = vertex_boundaries(G, U)
        want_int, want_ext = oracles.boundary_sets(dims, periodic, members)
        assert set(internal.ids()) == want_int
        assert set(external.ids()) == want_ext
        assert set(both.ids()) == want_int | want_ext
        for power in (1, 2):
            got = [frozenset(c.ids()) for c in connected_components(G, U, power)]
            want = oracles.flood_components(dims, periodic, members, power)
            assert got == sorted(want, key=min)


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_rim_is_the_non_periodic_faces(dims, periodic):
    G = build_graph(dims, periodic)
    want = {
        v for v in range(G.n)
        if any(not per and c in (0, length - 1)
               for c, length, per in zip(oracles.coords_of(dims, v), dims, periodic))
    }
    assert set(G.rim.ids()) == want


def test_co_connected_closure_ring():
    G = build_graph([5, 5])
    center = G.vid((2, 2))
    ring = {
        G.vid((i, j))
        for i in range(1, 4)
        for j in range(1, 4)
        if (i, j) != (2, 2)
    }
    closure = co_connected_closure(G, G.vertex_set(ring), G.vid((0, 0)))
    assert closure == G.vertex_set(ring | {center})


def test_co_connected_closure_far_vertex_and_inside():
    G = build_graph([5, 5])
    u = G.vid((1, 1))
    U = G.vertex_set([u])
    assert co_connected_closure(G, U, G.vid((4, 4))) == U
    assert co_connected_closure(G, U, u) == G.full_set()


def test_co_connected_closure_boundary_containment_randomized():
    G = build_graph([6, 6])
    rng = make_rng(17)
    for _ in range(100):
        U = G.vertex_set([v for v in range(G.n) if rng.random() < 0.35])
        outside = [v for v in range(G.n) if v not in U]
        if not outside:
            continue
        anchor = outside[int(rng.integers(0, len(outside)))]
        closure = co_connected_closure(G, U, anchor)
        assert directed_out_edges(G, closure) <= directed_out_edges(G, U)
        assert U.issubset(closure)


def test_diam_star():
    G = build_graph([7, 7])
    assert diam_star(G, G.empty_set()) == 0
    assert diam_star(G, G.vertex_set([G.vid((3, 3))])) == 2
    two = G.vertex_set([G.vid((0, 0)), G.vid((0, 5))])
    assert diam_star(G, two) == 4


def test_vertex_set_algebra_and_serialization():
    n = 30
    a = VertexSet.from_ids(n, [1, 5, 9])
    b = VertexSet.from_ids(n, [5, 10])
    assert list(a | b) == [1, 5, 9, 10]
    assert list(a & b) == [5]
    assert list(a - b) == [1, 9]
    assert len(a.complement()) == n - 3
    assert a.to_text() == "1,5,9"
    assert VertexSet.from_text(n, "1,5,9") == a
    assert VertexSet.from_text(n, "") == VertexSet.empty(n)


def test_graph_key_roundtrip():
    G = build_graph([4, 6, 2], [False, True, True])
    assert LatticeGraph.from_key(G.key()).key() == G.key()


def test_expand_matches_bfs_distance():
    G = build_graph([6, 6])
    v = G.vid((2, 3))
    U = G.vertex_set([v])
    for r in range(4):
        got = set(expand(G, U, r).ids())
        want = {
            w
            for w in range(G.n)
            if sum(abs(a - b) for a, b in zip(G.coords(w), G.coords(v))) <= r
        }
        assert got == want
