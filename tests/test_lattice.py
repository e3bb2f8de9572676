import ast
import random
import re
import signal
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chroma.errors import ConfigError, PreconditionError, ResourceLimitError
from chroma.lattice import (
    _at_least,
    _edge_maps,
    _fold_slots,
    _ids_to_bits,
    _images,
    _neighbor_bits,
    _pack_slots,
    _replicate,
    _slot,
    _sublattice_identity,
    LatticeGraph,
    VertexSet,
    boundary_cells,
    boundary_edge_count,
    build_graph,
    closed_neighborhood,
    co_connected_closure,
    component_of,
    connected_components,
    diam_star,
    diameter,
    expand,
    interior,
    is_connected,
    n_t,
    neighborhood,
    vertex_boundaries,
)
from chroma.rng import make_rng
from chroma.suites import _out_edges_within

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
    nt = n_t(G, G.vertex_set([v]), 1)
    assert set(nt.ids()) == set(G.neighbors[v])
    assert expand(G, G.vertex_set([v]), 0) == G.vertex_set([v])


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
        U = {v for v in range(G.n) if rng.random() < 0.4}
        W = {v for v in range(G.n) if rng.random() < 0.4}
        between = oracles.edges_between(G.dims, G.periodic, U, W)
        assert between == oracles.edges_between(G.dims, G.periodic, W, U)
        boundary = oracles.edges_between(G.dims, G.periodic, U, set(range(G.n)) - U)
        assert len(oracles.out_edges(G.dims, G.periodic, U)) == len(boundary)
        assert boundary_edge_count(G, [G.vertex_set(U)]) == len(boundary)


def _identity(G, U):
    """(imbalance, even out-edges, odd out-edges, defined, holds)."""
    imbalance, n_even_out, n_odd_out, defined = _sublattice_identity(G, U)
    holds = 2 * G.d * imbalance == n_even_out - n_odd_out if defined else None
    return imbalance, n_even_out, n_odd_out, defined, holds


def test_even_odd_identity_examples():
    G = build_graph([7, 7])
    v = G.vid((2, 2))  # even interior vertex
    imbalance, n_even_out, n_odd_out, defined, holds = _identity(G, G.vertex_set([v]))
    assert defined and holds
    assert imbalance == 1
    assert n_even_out == 4 and n_odd_out == 0

    domino = G.vertex_set([v, G.vid((2, 3))])
    imbalance, n_even_out, n_odd_out, _, holds = _identity(G, domino)
    assert imbalance == 0
    assert n_even_out == 3 and n_odd_out == 3
    assert holds

    imbalance, _, _, _, holds = _identity(G, G.empty_set())
    assert imbalance == 0 and not boundary_edge_count(G, [G.empty_set()]) and holds


def test_even_odd_identity_flagged_on_rim_or_torus():
    G = build_graph([5, 5])
    assert not _identity(G, G.vertex_set([0]))[3]  # corner lacks full degree
    T = build_graph([4, 4], [True, True])
    assert not _identity(T, T.vertex_set([5]))[3]


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


# a box, a mixed Z^2 x T graph, a length-1 axis, a length-2 periodic axis
# and a torus
SHIFT_GRAPHS = [((5, 6), (False, False)), ((4, 4, 3), (True, False, False)),
                ((1, 7), (False, False)), ((2, 6), (True, False)),
                ((6, 4), (True, True))]


def oracle_samples(n, seed):
    rng = make_rng(seed)
    samples = [set(), set(range(n))]
    for _ in range(15):
        p = rng.random()
        samples.append({v for v in range(n) if rng.random() < p})
    return samples


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_shift_neighborhood_matches_oracles(dims, periodic):
    G = build_graph(dims, periodic)
    for members in oracle_samples(G.n, 17):
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
def test_n_t_and_expand_match_oracles(dims, periodic):
    G = build_graph(dims, periodic)
    nbrs = [set(oracles.neighbors_of(dims, periodic, v)) for v in range(G.n)]
    for members in oracle_samples(G.n, 29):
        U = G.vertex_set(members)
        for t in range(1, G.full_degree + 2):
            want = {v for v in range(G.n) if len(nbrs[v] & members) >= t}
            assert set(n_t(G, U, t).ids()) == want
        ball = set(members)
        for r in range(4):
            assert set(expand(G, U, r).ids()) == ball
            ball = ball.union(*(nbrs[v] for v in ball))


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_interior_matches_depth_loop(dims, periodic):
    # the cells at depth <= c < length - depth along every non-periodic axis
    G = build_graph(dims, periodic)
    for depth in range(4):
        want = {v for v in range(G.n)
                if all(per or depth <= c < length - depth for c, length, per
                       in zip(oracles.coords_of(dims, v), dims, periodic))}
        assert set(interior(G, depth).ids()) == want
    with pytest.raises(PreconditionError):
        interior(G, -1)


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_edge_maps_match_directed_edges(dims, periodic):
    # U & entry j over all j lists U's out-directed edges, one per edge;
    # subset tests, the sublattice counts and the boundary-edge counts of
    # one set and of a union agree with the per-edge oracle
    G = build_graph(dims, periodic)
    cells = set(range(G.n))
    even = {v for v in cells if sum(oracles.coords_of(dims, v)) % 2 == 0}
    full = {v for v in cells if len(oracles.neighbors_of(dims, periodic, v)) == 2 * len(dims)}
    members = oracle_samples(G.n, 61)
    samples = [G.vertex_set(m) for m in members]

    def boundary(m):
        return oracles.edges_between(dims, periodic, m, cells - m)

    for k, U in enumerate(samples):
        maps = _edge_maps(G, U.bits)
        directed = [(u, int(G.neighbor_table[j, u]))
                    for j, m in enumerate(maps) for u in VertexSet(U.bits & m, G.n)]
        out = oracles.out_edges(dims, periodic, members[k])
        assert sorted(directed) == sorted(out)
        imbalance, n_even, n_odd, defined = _sublattice_identity(G, U)
        m_even, m_odd = members[k] & even, members[k] - even
        assert (imbalance, n_even, n_odd, defined) == (
            len(m_even) - len(m_odd),
            len(oracles.edges_between(dims, periodic, m_even, cells - members[k])),
            len(oracles.edges_between(dims, periodic, m_odd, cells - members[k])),
            not all(periodic) and members[k] <= full)
        assert boundary_edge_count(G, [U]) == len(boundary(members[k]))
        assert boundary_edge_count(G, [U, samples[k - 1]]) == len(
            boundary(members[k]) | boundary(members[k - 1]))
        for V in (samples[k - 1], U - samples[k - 1], U | samples[k - 1]):
            assert _out_edges_within(G, U, V) == (
                out <= oracles.out_edges(dims, periodic, set(V.ids())))


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_rim_is_the_non_periodic_faces(dims, periodic):
    G = build_graph(dims, periodic)
    want = {
        v for v in range(G.n)
        if any(not per and c in (0, length - 1)
               for c, length, per in zip(oracles.coords_of(dims, v), dims, periodic))
    }
    assert set(G.rim.ids()) == want


@pytest.mark.parametrize("dims,periodic",
                         SHIFT_GRAPHS + [((4, 4, 2), (True, True, True)),
                                         ((3, 2, 5), (False, True, False))])
def test_coordinates_view_matches_coords(dims, periodic):
    # the counter orders its cells by this view: a layout slip would only
    # slow it down, so tie the view to coords and to the row-major oracle
    G = build_graph(dims, periodic)
    assert G.coordinates == [G.coords(v) for v in range(G.n)]
    assert G.coordinates == [oracles.coords_of(dims, v) for v in range(G.n)]


@pytest.mark.parametrize("dims,periodic",
                         SHIFT_GRAPHS + [((4, 4, 2), (True, True, True))])
def test_graph_tables_match_oracles(dims, periodic):
    G = build_graph(dims, periodic)
    even = set()
    for v in range(G.n):
        nbrs = oracles.neighbors_of(dims, periodic, v)
        assert G.neighbors[v] == tuple(nbrs)
        assert G.degree[v] == len(nbrs)
        assert G.parity[v] == sum(oracles.coords_of(dims, v)) % 2
        if G.parity[v] == 0:
            even.add(v)
    assert set(G.even.ids()) == even
    assert set(G.odd.ids()) == set(range(G.n)) - even
    assert set(G.rim.ids()) == {
        v for v in range(G.n)
        if any(not per and c in (0, length - 1)
               for c, length, per in zip(oracles.coords_of(dims, v), dims, periodic))
    }


def test_graph_memory_is_linear_in_cells():
    # a 200 x 200 build peaks at 15.6 MiB traced; the bound leaves 1.5x
    # headroom, and a per-cell bitmap of neighbors (n^2/16 bytes) took 117 MiB
    tracemalloc.start()
    try:
        G = LatticeGraph((200, 200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.n == 40000
    assert peak < 24 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_graph_over_cell_limit_refused():
    from chroma.lattice import CELL_LIMIT

    with pytest.raises(ResourceLimitError, match="exceeds the limit"):
        LatticeGraph((CELL_LIMIT + 1,))
    with pytest.raises(ResourceLimitError):
        LatticeGraph((100000, 100000), (True, True))


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_components_with_singletons_match_oracle(dims, periodic):
    # sparse samples are mostly singletons; the last set mixes every third
    # cell with a run of four
    G = build_graph(dims, periodic)
    mixed = set(range(0, G.n, 3)) | set(range(G.n // 2, min(G.n, G.n // 2 + 4)))
    for members in oracle_samples(G.n, 41) + [mixed]:
        for power in (1, 2):
            got = [set(c.ids()) for c in
                   connected_components(G, G.vertex_set(members), power)]
            want = [set(c) for c in oracles.flood_components(dims, periodic, members, power)]
            assert got == want


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
        assert (oracles.out_edges(G.dims, G.periodic, closure.ids())
                <= oracles.out_edges(G.dims, G.periodic, U.ids()))
        assert U.issubset(closure)


def test_diam_star():
    G = build_graph([7, 7])
    assert diam_star(G, G.empty_set()) == 0
    assert diam_star(G, G.vertex_set([G.vid((3, 3))])) == 2
    two = G.vertex_set([G.vid((0, 0)), G.vid((0, 5))])
    assert diam_star(G, two) == 4


def test_diameter_refuses_a_set_of_another_graph():
    # the 8x9 ids 70 and 71 lie past the 8x8 graph's cells: no ball of G
    # ever covers them, so without the refusal the search never ends
    G = build_graph([8, 8])
    for W in (build_graph([8, 9]).vertex_set([70, 71]), build_graph([2, 2]).full_set()):
        for measure in (diameter, diam_star):
            with pytest.raises(PreconditionError, match="different ambient graphs"):
                measure(G, W)


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS + [((2, 4, 2), (True, False, True))])
def test_diameter_matches_bfs_oracle(dims, periodic):
    G = build_graph(dims, periodic)
    with pytest.raises(PreconditionError):
        diameter(G, G.empty_set())
    dist = [oracles.distances_from(dims, periodic, v) for v in range(G.n)]
    for members in oracle_samples(G.n, 23):
        if members:
            want = max(dist[u][v] for u in members for v in members)
            assert diameter(G, G.vertex_set(members)) == want


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


def _bit_oracle(bits, n):
    return [v for v in range(n) if bits >> v & 1]


def test_id_listings_match_bit_oracle():
    # every listing and rebuild of a set equals a per-bit read of its bitmap
    rng = make_rng(17)
    for n in (1, 7, 8, 9, 64, 577):
        for p in (0.0, 0.1, 0.5, 1.0):
            U = VertexSet(sum(1 << v for v in range(n) if rng.random() < p), n)
            want = _bit_oracle(U.bits, n)
            assert list(U) == want
            assert U.ids() == tuple(want)
            assert all(type(v) is int for v in U.ids())
            assert U.to_text() == ",".join(map(str, want))
            assert VertexSet.from_text(n, U.to_text()) == U
            assert VertexSet.from_ids(n, want) == U


@pytest.mark.parametrize("n", [40, 577, 90000])
def test_id_listings_either_side_of_the_walk(n):
    # set sizes around where the lister switches from walking the bits to
    # unpacking them; rebuilt from ids given unsorted, repeated and as numpy ints
    rng = np.random.default_rng(n)
    for k in range(8, 26):
        want = sorted(rng.choice(n, size=k, replace=False).tolist())
        bits = 0
        for v in want:
            bits |= 1 << v
        U = VertexSet(bits, n)
        assert list(U) == want and U.ids() == tuple(want)
        assert all(type(v) is int for v in U)
        assert U.to_text() == ",".join(map(str, want))
        shuffled = rng.permutation(want + want[: k // 2])
        assert VertexSet.from_ids(n, shuffled) == U
        assert VertexSet.from_ids(n, shuffled.tolist()) == U
        assert VertexSet.from_text(n, ",".join(map(str, shuffled.tolist()))) == U


def test_from_ids_takes_numpy_ids():
    G = build_graph([10, 10])
    U = G.vertex_set(np.flatnonzero(np.arange(100) % 7 == 0))
    assert len(U) == 15 and list(U) == list(range(0, 100, 7))
    assert VertexSet.from_ids(100, np.array([70])) == VertexSet(1 << 70, 100)
    assert VertexSet.from_ids(100, [np.int64(70), np.int32(3)]) == VertexSet(1 << 70 | 1 << 3, 100)


@pytest.mark.parametrize("ids,bad", [
    ([3, 12, -1], 12),
    ([3, -1, 12], -1),
    (np.array([5, 10, 4]), 10),
    (list(range(10)) * 2 + [-2, 99], -2),
    (np.array(list(range(10)) * 2 + [99, -2]), 99),
])
def test_from_ids_names_first_out_of_range_id(ids, bad):
    with pytest.raises(ConfigError, match=rf"vertex id {bad} outside ambient range \[0, 10\)"):
        VertexSet.from_ids(10, ids)


def test_membership_outside_the_ambient_range_is_false():
    from chroma.exact import exact_marginal

    U = VertexSet.from_ids(100, [0, 5, 99])
    assert np.int64(5) in U and np.int64(99) in U and np.int32(0) in U
    assert np.int64(6) not in U
    for v in (-1, -100, 100, 10**30, np.int64(-1), np.int64(100)):
        assert v not in U
    G = build_graph([3, 3])
    D = G.full_set()
    with pytest.raises(PreconditionError, match="vertex -1 is outside the domain"):
        exact_marginal(G, D, 3, -1)
    W = G.vertex_set([4])
    with pytest.raises(ConfigError, match=r"vertex id -1 outside ambient range \[0, 9\)"):
        component_of(G, W, -1)
    with pytest.raises(ConfigError, match=r"vertex id -2 outside ambient range \[0, 9\)"):
        co_connected_closure(G, W, -2)
    assert component_of(G, W, np.int64(4)) == W


@pytest.mark.parametrize("v", [9, 10**30, np.int64(-1), np.int64(9)])
def test_component_queries_refuse_ids_outside_the_box(v):
    G = build_graph([3, 3])
    W = G.vertex_set([4])
    for query in (component_of, co_connected_closure):
        with pytest.raises(ConfigError, match=rf"vertex id {int(v)} outside ambient range"):
            query(G, W, v)


@pytest.mark.parametrize("dims", [(3, 4), (2, 4, 2), (5,)])
def test_coords_reads_the_table_and_refuses_ids_outside_the_box(dims):
    G = build_graph(dims)
    for v in range(G.n):
        want, rest = [], v
        for length in reversed(dims):
            rest, c = divmod(rest, length)
            want.insert(0, c)
        assert G.coords(v) == tuple(want) and G.coords(np.int64(v)) == tuple(want)
        assert G.vid(G.coords(v)) == v
    # 3 x 4 read coords(-1) as (2, 3) and coords(12) as (0, 0)
    for v in (-1, G.n, 10**30, np.int64(G.n)):
        message = rf"vertex id {int(v)} outside ambient range \[0, {G.n}\)"
        with pytest.raises(ConfigError, match=message):
            G.coords(v)


def test_vid_refuses_another_number_of_coordinates():
    # 3 x 4 x 5 read (1, 2) as 30, and 3 x 4 raised a bare IndexError on (1, 2, 3)
    G3, G2 = build_graph([3, 4, 5]), build_graph([3, 4])
    with pytest.raises(ConfigError, match="2 coordinates for a graph of 3 axes"):
        G3.vid((1, 2))
    with pytest.raises(ConfigError, match="3 coordinates for a graph of 2 axes"):
        G2.vid((1, 2, 3))
    with pytest.raises(ConfigError, match="coordinate 4 outside axis 1"):
        G2.vid([1, 4])
    with pytest.raises(ConfigError, match="coordinate -1 outside axis 0"):
        G3.vid((-1, 0, 0))
    assert G3.vid([2, 3, 4]) == G3.n - 1 and G2.vid((1, 2)) == 6


@pytest.mark.parametrize("n", [20, 64, 577])
def test_id_packing_by_shifts_and_by_flags_agree(n):
    # up to 16 ids are set by shifts, more packed from flags; lists with
    # repeats, in any order and as numpy ints, on both sides of 16 ids
    rng = np.random.default_rng(n)
    for k in list(range(0, 34)) * 3:
        ids = rng.integers(0, n, size=k)
        want = 0
        for v in set(ids.tolist()):
            want |= 1 << v
        assert _ids_to_bits(ids.tolist(), n) == _ids_to_bits(ids, n) == want
        assert _ids_to_bits(list(ids), n) == want   # numpy scalars one by one
        if k > 16:
            # the same set as at most 16 distinct ids, one path each
            distinct = sorted(set(ids.tolist()))[:16]
            few = sum(1 << v for v in distinct)
            assert _ids_to_bits(distinct, n) == _ids_to_bits(distinct * 2, n) == few
    for ids, bad in (([3, n], n), ([n] + list(range(20)), n), ([-1], -1),
                     (list(range(20)) + [-1, n], -1)):
        with pytest.raises(ConfigError, match=rf"vertex id {bad} outside ambient range"):
            _ids_to_bits(ids, n)


def test_vertex_set_refuses_a_bitmap_outside_its_range():
    for bits, n in ((-1, 4), (16, 4), (1 << 64, 64), (1, 0), (-(1 << 70), 64)):
        message = rf"bitmap outside \[0, 2\^{n}\) for a set of {n} cells"
        with pytest.raises(PreconditionError, match=message):
            VertexSet(bits, n)
    assert len(VertexSet(15, 4)) == 4 and not VertexSet(0, 0)
    assert VertexSet((1 << 64) - 1, 64) == build_graph([8, 8]).full_set()
    # a set of the 8 x 9 graph holding ids 70 and 71: expanded or split in
    # the 8 x 8 graph it gave a set of 64 cells with bits past 63
    G, H = build_graph([8, 8]), build_graph([8, 9])
    U = H.vertex_set([70, 71])
    for call in (lambda: expand(G, U, 1), lambda: expand(G, U, 0),
                 lambda: connected_components(G, U), lambda: connected_components(G, U, 2)):
        with pytest.raises(PreconditionError, match=r"bitmap outside \[0, 2\^64\)"):
            call()


def test_id_listings_are_linear_on_a_large_box():
    # the interior of 300 x 300: listing by the per-bit walk took 0.89 s,
    # printing 0.90 s and rebuilding from Python ids 0.09 s
    G = LatticeGraph((300, 300))
    U = interior(G, 1)
    ids = list(U)
    assert len(ids) == 298 * 298 and ids[0] == 301

    def best(call):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(lambda: list(U)) < 0.05
    assert best(U.to_text) < 0.05
    assert best(lambda: G.vertex_set(ids)) < 0.05
    assert G.vertex_set(ids) == U


def test_bit_layout_only_in_lattice():
    # only the lattice module converts between bitmaps and bytes or flags
    forbidden = re.compile(r"packbits|unpackbits|\.to_bytes\(|int\.from_bytes|flatnonzero\(_unpack\(")
    src = Path(__file__).resolve().parent.parent / "src" / "chroma"
    modules = sorted(src.glob("*.py"))
    assert any(path.name == "lattice.py" for path in modules)
    offenders = [f"{path.name}:{i}" for path in modules if path.name != "lattice.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if forbidden.search(line)]
    assert offenders == []


def test_regularity_closures_only_in_geometry():
    # the closure rule behind every regularity verdict lives in geometry;
    # other modules ask geometry._irregular for the verdict
    forbidden = re.compile(r"\b(_closure_diffs|_lowest)\b")
    src = Path(__file__).resolve().parent.parent / "src" / "chroma"
    modules = sorted(src.glob("*.py"))
    assert any(forbidden.search(path.read_text()) for path in modules if path.name == "geometry.py")
    offenders = [f"{path.name}:{i}" for path in modules if path.name != "geometry.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if forbidden.search(line)]
    assert offenders == []


def test_sampler_reads_constrained_cells_from_its_layout(monkeypatch):
    # which cells a pattern boundary constrains, the sampler reads from its
    # sweep layout alone: it does not name boundary_cells, and a cluster run
    # keeps no set of movable cells of its own on the graph
    from chroma import sampler

    src = Path(__file__).resolve().parent.parent / "src" / "chroma" / "sampler.py"
    assert not re.search(r"\bboundary_cells\b", src.read_text())
    graphs = []
    real = sampler.ChainConfig.graph
    monkeypatch.setattr(sampler.ChainConfig, "graph",
                        lambda cfg: graphs.append(real(cfg)) or graphs[-1])
    sampler.run_experiment(sampler.ChainConfig(
        dims=(6, 6), q=3, pattern="A=1;B=2,3", seed=4, sweeps=20, margin=1,
        algorithm="heat-bath+cluster", cluster_every=2))
    kinds = {key[0] for key in graphs[0].memo}
    assert "sweep layout" in kinds and "movable cells" not in kinds


def _loaded_names(tree: ast.AST):
    """The names a module reads: every Name, and the names inside string
    annotations (the quoted forward references of TYPE_CHECKING imports)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield from _loaded_names(ast.parse(sub.value, mode="eval"))


def test_every_import_is_used():
    # a name a module imports and never reads is left over from a deleted
    # helper or call; no module re-exports names
    src = Path(__file__).resolve().parent.parent / "src" / "chroma"
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = set(_loaded_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, ast.Import | ast.ImportFrom):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def _top_level_names(stmt) -> set[str]:
    """The functions, classes and module constants a top-level statement defines."""
    if isinstance(stmt, ast.FunctionDef | ast.ClassDef):
        return {stmt.name}
    if isinstance(stmt, ast.Assign | ast.AnnAssign):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _named(stmt):
    """The names a statement reads: ``_loaded_names``, attributes, imported
    names, and strings that are one name (``monkeypatch.setattr`` targets,
    perfbench's traced-function tables)."""
    yield from _loaded_names(stmt)
    for node in ast.walk(stmt):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_name_is_named_elsewhere():
    # a function, class or module constant of the package that nothing in
    # src/, tests/ or perfbench/ names outside its own definition is dead
    root = Path(__file__).resolve().parent.parent
    defined, named = {}, set()
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = _top_level_names(stmt)
            if path.parent == root / "src" / "chroma":
                defined.update(dict.fromkeys(own, path.name))
            named.update(name for name in _named(stmt) if name not in own)
    assert len(defined) > 200
    assert sorted(f"{module}:{name}" for name, module in defined.items() if name not in named) == []


VIEWS = ("neighbors", "degree", "parity")


def _unbuilt(G):
    return not any(name in G.__dict__ for name in VIEWS)


def test_views_built_on_first_read_only(monkeypatch):
    # the per-vertex lists are small-box views of the table and the parity
    # bitmap: the sampler, the breakup path, separating sets and the mask
    # builder run on a large box without them
    from chroma import sampler
    from chroma.coloring import striped_pattern_coloring
    from chroma.decomposition import construct_breakup, decompose, verify_breakup
    from chroma.exact import Constraint, allowed_masks
    from chroma.geometry import OddSetCollection, separating_set, weak_approximation
    from chroma.patterns import Pattern
    from chroma.suites import random_regular_odd_set

    G = LatticeGraph((4, 4))
    assert _unbuilt(G)
    for dims, extra in (((40, 40), {"algorithm": "heat-bath+cluster", "cluster_every": 2}),
                        ((4, 4), {})):   # the loop path
        G = LatticeGraph(dims)
        monkeypatch.setattr(sampler.ChainConfig, "graph", lambda self, G=G: G)
        sampler.run_experiment(sampler.ChainConfig(dims, 3, "A=1;B=2,3", seed=1, sweeps=4,
                                                   chains=2, **extra))
        assert _unbuilt(G), dims

    G = LatticeGraph((24, 24))
    p0 = Pattern.make(3, [1], [2, 3])
    f = sampler.heat_bath_sweep(striped_pattern_coloring(G, p0), G, G.full_set(), p0,
                                make_rng(2))
    X = construct_breakup(G, f, G.vertex_set([G.vid((12, 12))]), G.full_set(), p0)
    assert verify_breakup(X, f, G.full_set(), p0).ok
    # a punctured region walks the table neighbors of the cells next to the hole
    regions = dict(X.x_p)
    regions[p0] = G.full_set() - G.vertex_set([G.vid((11, 12))])
    rep = verify_breakup(type(X)(G, regions), f, G.full_set(), p0)
    assert any(v.startswith("boundary edge") for v in rep.violations)
    decompose(G, f)
    assert _unbuilt(G)

    G = LatticeGraph((16, 16))
    rng = make_rng(3)
    coll = OddSetCollection(G, [random_regular_odd_set(G, rng) for _ in range(2)], "odd")
    weak_approximation(G, separating_set(coll).separator, coll)
    assert _unbuilt(G)

    G = LatticeGraph((6, 5))
    inner = interior(G, 1)
    allowed_masks(G, inner, 3, Constraint.pinned({0: 1, 7: 2, 8: 3}))
    allowed_masks(G, inner, 3, Constraint.pattern_boundary(p0))
    assert _unbuilt(G)
    # a read builds that view alone
    assert G.parity == [sum(G.coords(v)) % 2 for v in range(G.n)]
    assert [name for name in VIEWS if name in G.__dict__] == ["parity"]


@pytest.mark.parametrize("pins, count", [
    ({0: 1, 3: 2}, 3), ({1: 1, 4: 3}, 5), ({0: 1, 1: 1}, 0), ({0: 2, 1: 3, 5: 2}, 1),
])
def test_pinned_count_on_length_two_periodic_axis(pins, count):
    # the table lists the one neighbor across a length-2 periodic axis
    # twice; the pins must count it once.  Cell 0 lies outside the domain.
    from chroma.exact import Constraint, count_colorings

    dims, periodic = (3, 2), (False, True)
    G = LatticeGraph(dims, periodic)
    assert (G.neighbor_table[:, 0] == 1).sum() == 2
    domain = G.full_set() - G.vertex_set([0])
    allowed = {v: {pins[v]} if v in pins else
               {1, 2, 3} - {pins[u] for u in oracles.neighbors_of(dims, periodic, v)
                            if u in pins and u not in domain}
               for v in domain}
    clash = any(pins.get(u) == c for v, c in pins.items()
                for u in oracles.neighbors_of(dims, periodic, v))
    want = 0 if clash else oracles.brute_force_count(dims, periodic, sorted(domain.ids()), 3,
                                                     allowed)
    got = count_colorings(G, domain, 3, Constraint.pinned(pins)).count
    assert got == want == count


@pytest.mark.parametrize("dims,periodic", [
    ((7,), None), ((4, 6), None), ((4, 4), (True, True)),
    ((8, 2, 6), (False, True, False)), ((3, 2, 3, 2), None)])
def test_slot_shifts_match_per_slot_shifts(dims, periodic):
    # random k-slot bitmaps, slot i holding set i: the packed neighbourhood,
    # images and edge maps are the per-set ones slot by slot, nothing lands
    # at or above k*n, and the fold counts the slots each cell is in
    G = build_graph(dims, periodic)
    n = G.n
    rng = random.Random(n * 7 + len(dims))
    for k in (1, 2, 3, 6, 20):
        for _ in range(6):
            sets = [rng.getrandbits(n) & rng.getrandbits(n) if rng.random() < 0.5
                    else rng.getrandbits(n) for _ in range(k)]
            packed = _pack_slots(sets, n)
            assert [_slot(packed, i, n) for i in range(k)] == sets
            assert _replicate(sets[0], n, k) == _pack_slots([sets[0]] * k, n)
            nb = _neighbor_bits(G, packed, k)
            images = _images(G, packed, k)
            edges = _edge_maps(G, packed, k)
            for packed_out in [nb, *images, *edges]:
                assert packed_out >> (k * n) == 0
            for i, bits in enumerate(sets):
                assert _slot(nb, i, n) == _neighbor_bits(G, bits)
                assert [_slot(m, i, n) for m in images] == _images(G, bits)
                assert [_slot(m, i, n) for m in edges] == _edge_maps(G, bits)
            hits = [sum(bits >> v & 1 for bits in sets) for v in range(n)]
            assert _fold_slots(packed, n, k) == (
                sum(1 << v for v in range(n) if hits[v] >= 1),
                sum(1 << v for v in range(n) if hits[v] >= 2))


class _Overran(Exception):
    pass


def _within(seconds, call):
    """call(), stopped by a real-time alarm (raising _Overran) after the given
    seconds: a call that never returns fails rather than hangs."""
    def alarm(signum, frame):
        raise _Overran(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _set_entries(G):
    """Every public entry that takes G and a vertex set, as a call of the set
    alone; every other argument is valid for G."""
    from chroma.coloring import (BoundaryCondition, check_boundary, extend_outside,
                                 plan_repair, pure_pattern_sample, repair_inverse,
                                 repair_transform, striped_pattern_coloring)
    from chroma.decomposition import (bp_components, construct_breakup, seen_from,
                                      verify_breakup)
    from chroma.entropy import classify, entropy_loss_eval, k_omega, u_p_sets
    from chroma.exact import (Constraint, allowed_masks, count_colorings, enumerate_colorings,
                              exact_marginal, toy_ratio)
    from chroma.geometry import (OddSetCollection, four_cycle_check, greedy_cover,
                                 is_parity_set, isoperimetry_checks, regularity_check,
                                 revealed_vertices, weak_approximation)
    from chroma.patterns import Pattern, in_pattern
    from chroma.sampler import (cluster_step, heat_bath_sweep, single_site_transition_matrix,
                                swappable_components)
    from chroma.suites import random_connected_set, random_subset

    p0, p1 = Pattern.make(3, [1], [2, 3]), Pattern.make(3, [2], [1, 3])
    f, E, full = striped_pattern_coloring(G, p0), G.empty_set(), G.full_set()
    X = construct_breakup(G, f, E, full, p0)
    parts, rng = {p0: full}, make_rng(0)
    return {
        "neighborhood": lambda U: neighborhood(G, U),
        "closed_neighborhood": lambda U: closed_neighborhood(G, U),
        "expand": lambda U: expand(G, U, 1),
        "n_t": lambda U: n_t(G, U, 1),
        "vertex_boundaries": lambda U: vertex_boundaries(G, U),
        "boundary_cells": lambda U: boundary_cells(G, U),
        "boundary_edge_count": lambda U: boundary_edge_count(G, [full, U]),
        "connected_components": lambda U: connected_components(G, U),
        "connected_components power 2": lambda U: connected_components(G, U, 2),
        "is_connected": lambda U: is_connected(G, U),
        "component_of": lambda U: component_of(G, U, U.min_id()),
        "co_connected_closure": lambda U: co_connected_closure(G, U, 2),
        "diameter": lambda U: diameter(G, U),
        "diam_star": lambda U: diam_star(G, U),
        "regularity_check": lambda U: regularity_check(G, U, "odd"),
        "is_parity_set": lambda U: is_parity_set(G, U, "odd"),
        "OddSetCollection": lambda U: OddSetCollection(G, [full, U]),
        "revealed_vertices": lambda U: revealed_vertices(G, U),
        "four_cycle_check": lambda U: four_cycle_check(G, U),
        "greedy_cover": lambda U: greedy_cover(G, U, 1),
        "weak_approximation": lambda U: weak_approximation(G, U, OddSetCollection(G, [])),
        "isoperimetry_checks": lambda U: isoperimetry_checks(G, U),
        "seen_from z_star": lambda U: seen_from(G, U, E),
        "seen_from V": lambda U: seen_from(G, E, U),
        "construct_breakup V": lambda U: construct_breakup(G, f, U, full, p0),
        "construct_breakup domain": lambda U: construct_breakup(G, f, E, U, p0),
        "verify_breakup": lambda U: verify_breakup(X, f, U, p0),
        "bp_components": lambda U: bp_components(G, f, U, p0),
        "allowed_masks": lambda U: allowed_masks(G, U, 3, Constraint.free()),
        "count_colorings": lambda U: count_colorings(G, U, 3),
        "enumerate_colorings": lambda U: next(enumerate_colorings(G, U, [7] * G.n)),
        "exact_marginal": lambda U: exact_marginal(G, U, 3, U.min_id()),
        "toy_ratio domain": lambda U: toy_ratio(G, U, E, p0, p1),
        "toy_ratio droplet": lambda U: toy_ratio(G, full, U, p0, p1),
        "pure_pattern_sample": lambda U: pure_pattern_sample(G, U, p0, 1),
        "boundary_vertices": lambda U: BoundaryCondition(U, p0).boundary_vertices(G),
        "check_boundary": lambda U: check_boundary(f, BoundaryCondition(U, p0), G),
        "extend_outside": lambda U: extend_outside(f, BoundaryCondition(U, p0), G, 1),
        "plan_repair S": lambda U: plan_repair(G, U, parts),
        "plan_repair parts": lambda U: plan_repair(G, E, {p0: U}),
        "repair_transform": lambda U: repair_transform(f, U, parts, {}, G, p0),
        "repair_inverse": lambda U: repair_inverse(f, U, parts, G, p0),
        "in_pattern": lambda U: in_pattern(f, U, p0, G),
        "heat_bath_sweep": lambda U: heat_bath_sweep(f, G, U, p0, rng),
        "swappable_components": lambda U: swappable_components(f, G, U, p0, 1, 2),
        "cluster_step": lambda U: cluster_step(f, G, U, p0, rng),
        "single_site_transition_matrix": lambda U: single_site_transition_matrix(G, U, 3),
        "random_subset": lambda U: random_subset(G, rng, U),
        "random_connected_set": lambda U: random_connected_set(G, rng, 3, U),
        "classify": lambda U: classify(f, [f], U, G),
        "k_omega": lambda U: k_omega([f], U, G),
        "u_p_sets": lambda U: u_p_sets(f, G, U),
        "entropy_loss_eval": lambda U: entropy_loss_eval(G, U, {(1,): 1.0}, 3),
    }


@pytest.mark.parametrize("dims, ids", [((6, 6), [0, 1, 7]), ((8, 9), [70, 71])])
def test_every_set_entry_refuses_a_set_of_another_graph(dims, ids):
    # a smaller graph's set fits under 2^n and was read with G's cells; a
    # larger one's cells past n were never covered by a flood of G
    G = build_graph([8, 8])
    U = build_graph(dims).vertex_set(ids)
    message = f"vertex sets belong to different ambient graphs: a graph of {U.n} cells, not 64"
    failures = []
    for name, call in _set_entries(G).items():
        try:
            _within(1.0, lambda: call(U))
        except PreconditionError as exc:
            if message not in str(exc):
                failures.append(f"{name}: {exc}")
        except Exception as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            failures.append(f"{name}: returned")
    assert failures == []


def _annotation(arg):
    return ast.unparse(arg.annotation).strip("'\"").removesuffix(" | None")


def _set_parameters(node):
    """The parameters of a function annotated as one vertex set (None allowed)
    or a container of them: an Iterable or Sequence of sets, a Mapping or
    dict to sets."""
    return [arg.arg for arg in node.args.args + node.args.kwonlyargs
            if arg.annotation is not None
            and re.fullmatch(r"VertexSet|(Iterable|Sequence|Mapping|dict)\[(.*, )?VertexSet\]",
                             _annotation(arg))]


def _checked(name, node):
    """Public functions, and the constructors of public classes taking a graph."""
    return not name.startswith("_") and (node.name != "__init__" or any(
        arg.annotation is not None and _annotation(arg) == "LatticeGraph"
        for arg in node.args.args))


def _iterated(node):
    """Per name bound by a loop or comprehension target, the names whose
    elements it takes: iterated directly, through ``values()`` or
    ``items()``, or as members (starred or not) of a tuple or list display."""
    sources = {}
    for loop in ast.walk(node):
        if not isinstance(loop, (ast.For, ast.comprehension)):
            continue
        items = loop.iter.elts if isinstance(loop.iter, (ast.Tuple, ast.List)) else [loop.iter]
        names = set()
        for item in items:
            item = item.value if isinstance(item, ast.Starred) else item
            if (isinstance(item, ast.Call) and isinstance(item.func, ast.Attribute)
                    and item.func.attr in ("values", "items")):
                item = item.func.value
            if isinstance(item, ast.Name):
                names.add(item.id)
        for target in ast.walk(loop.target):
            if isinstance(target, ast.Name):
                sources.setdefault(target.id, set()).update(names)
    return sources


def _guarded_parameters():
    """Per package function (a class stands for its ``__init__`` less self),
    the parameters it reads through the guard: passed to ``own`` or, never
    rebound, passed on to a function's guarded parameter; a container is
    guarded when a loop over its elements binds a name that is."""
    src = Path(__file__).resolve().parent.parent / "src" / "chroma"
    functions, imported = {}, {}
    for path in src.glob("*.py"):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions[module, node.name] = (node, [a.arg for a in node.args.args])
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        functions[module, node.name] = (item, [a.arg for a in item.args.args[1:]])
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[module, alias.asname or alias.name] = (node.module, alias.name)
    guarded = {key: set() for key in functions}
    grew = True
    while grew:
        grew = False
        for (module, name), (node, _) in functions.items():
            rebound = {n.id for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            sources = _iterated(node)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if isinstance(call.func, ast.Attribute) and call.func.attr == "own":
                    reads = call.args[:1]
                elif isinstance(call.func, ast.Name):
                    callee = (module, call.func.id)
                    callee = callee if callee in functions else imported.get(callee)
                    if callee not in functions:
                        continue
                    positions, through = functions[callee][1], guarded[callee]
                    reads = [a for a, p in zip(call.args, positions) if p in through]
                    reads += [k.value for k in call.keywords if k.arg in through]
                else:
                    continue
                names = {a.id for a in reads if isinstance(a, ast.Name)}
                new = names - rebound
                new |= {source for n in names for source in sources.get(n, ())}
                new -= guarded[module, name]
                if new:
                    guarded[module, name] |= new
                    grew = True
    return functions, guarded


def test_every_set_parameter_reaches_the_ownership_guard():
    # a public function, or the constructor of a public class that takes a
    # graph, reads the bits of every vertex set it is given through
    # LatticeGraph.own, or hands the set unchanged to a function that does;
    # a container of sets is read element by element
    functions, guarded = _guarded_parameters()
    assert {"U"} <= guarded["lattice", "neighborhood"]
    assert {"domain"} <= guarded["sampler", "heat_bath_sweep"]
    assert {"sets"} <= guarded["lattice", "boundary_edge_count"]
    assert {"parts"} <= guarded["coloring", "repair_transform"]
    checked = {name for (_, name), (node, _) in functions.items()
               if _checked(name, node) and _set_parameters(node)}
    assert {"Atlas", "RegionDecomposition", "OddSetCollection", "boundary_edge_count",
            "plan_repair"} <= checked
    missing = [f"{module}.{name}({param})"
               for (module, name), (node, _) in sorted(functions.items()) if _checked(name, node)
               for param in _set_parameters(node) if param not in guarded[module, name]]
    assert missing == []


def test_no_loop_outruns_its_graph():
    # a radius, depth or power past the graph's reach stops once the set
    # stops growing, and a threshold past 2d builds no ladder: at 10^9 each
    # call ran for minutes or asked for gigabytes
    from chroma.decomposition import seen_from

    G = build_graph([64, 64])
    U, big = G.vertex_set([0, 2080]), 10**9
    assert _within(1.0, lambda: expand(G, U, big)) == G.full_set()
    assert _within(1.0, lambda: interior(G, big)) == G.empty_set()
    assert _within(1.0, lambda: connected_components(G, U, big)) == [U]
    assert _within(1.0, lambda: seen_from(G, U, U, big)) == G.full_set()
    assert _within(1.0, lambda: n_t(G, G.full_set(), big)) == G.empty_set()
    assert n_t(G, G.full_set(), 5) == G.empty_set() and n_t(G, G.full_set(), 4) == interior(G, 1)
    assert _within(1.0, lambda: _at_least(G, _images(G, U.bits), big)) == 0
    with pytest.raises(PreconditionError, match="radius must be >= 0"):
        expand(G, U, -1)
