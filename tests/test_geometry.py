import re
import tracemalloc
from functools import reduce
from operator import or_

import pytest

from chroma.decomposition import classify_atlas, construct_breakup
from chroma.coloring import striped_pattern_coloring
from chroma import geometry
from chroma.errors import InternalInvariantError, PreconditionError
from chroma.geometry import (
    Approximation,
    OddSetCollection,
    _at_least,
    _closure_diffs,
    _four_cycle_failures,
    _lowest,
    _witness_set,
    enumerate_regular_parity_sets,
    four_cycle_check,
    greedy_cover,
    is_parity_set,
    isoperimetry_checks,
    regularity_check,
    revealed_vertices,
    separating_set,
    verify_approximation,
    weak_approximation,
)
from chroma.lattice import (
    LatticeGraph,
    VertexSet,
    _boundary_maps,
    _images,
    _ladder,
    _pack_slots,
    _slot,
    build_graph,
    closed_neighborhood,
    n_t,
    neighborhood,
    vertex_boundaries,
)
from chroma.patterns import Pattern
from chroma.rng import make_rng
from chroma.suites import random_regular_odd_set, random_subset

import oracles
from test_lattice import SHIFT_GRAPHS, oracle_samples


def boundary_edges(G, sets):
    """The union of the sets' edge boundaries, from the per-edge oracle."""
    out = set()
    for S in sets:
        out |= oracles.edges_between(G.dims, G.periodic, S.ids(), S.complement().ids())
    return out


def plus_at(G, coords):
    v = G.vid(coords)
    assert G.parity[v] == 0
    return closed_neighborhood(G, G.vertex_set([v]))


def test_regularity_examples():
    G = build_graph([7, 7])
    plus = plus_at(G, (2, 2))
    ok, _ = regularity_check(G, plus, "odd")
    assert ok
    ok, witness = regularity_check(G, G.vertex_set([G.vid((2, 2))]), "odd")
    assert not ok and witness is not None
    # complements of regular odd sets are regular even sets
    ok, _ = regularity_check(G, plus.complement(), "even")
    assert ok


def test_regularity_closed_form_matches_direct_definition():
    G = build_graph([6, 6])
    rng = make_rng(44)
    for _ in range(200):
        U = G.vertex_set([v for v in range(G.n) if rng.random() < 0.45])
        for parity in ("odd", "even"):
            got, _ = regularity_check(G, U, parity)
            # direct: parity of the internal boundaries plus no isolated cells
            comp = U.complement()
            internal, _, _ = vertex_boundaries(G, U)
            internal_c, _, _ = vertex_boundaries(G, comp)
            inside = 1 if parity == "odd" else 0
            direct = (
                all(G.parity[v] == inside for v in internal)
                and all(G.parity[v] == 1 - inside for v in internal_c)
                and all(any(u in U for u in G.neighbors[v]) for v in U)
                and all(any(u in comp for u in G.neighbors[v]) for v in comp)
            )
            assert got == direct


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_regularity_witness_is_lowest_closure_violation(dims, periodic):
    # U is odd-regular when U is the closed neighborhood of its even cells
    # and U^c that of its odd cells (parities swapped for even-regular); the
    # witness is the lowest cell where the first failing closure differs
    G = build_graph(dims, periodic)
    nbrs = [oracles.neighbors_of(dims, periodic, v) for v in range(G.n)]
    parity = [sum(oracles.coords_of(dims, v)) % 2 for v in range(G.n)]
    rng = make_rng(sum(dims))
    regular = [random_regular_odd_set(G, rng, 0) for _ in range(4)]
    samples = [set(U.ids()) for U in regular] + [set(U.complement().ids()) for U in regular]
    samples += oracle_samples(G.n, sum(dims) + 1)
    for members in samples:
        outside = set(range(G.n)) - members
        for kind, inside_core in (("odd", 0), ("even", 1)):
            violations = []
            for side, core in ((members, inside_core), (outside, 1 - inside_core)):
                core_cells = {v for v in side if parity[v] == core}
                closure = core_cells | {u for v in core_cells for u in nbrs[v]}
                violations.append(sorted(closure ^ side))
            first = next((bad for bad in violations if bad), None)
            want = (first is None, None if first is None else first[0])
            assert regularity_check(G, G.vertex_set(members), kind) == want



@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_slot_closures_match_per_set_witnesses(dims, periodic):
    # the sets of the sample above in slots, each with its own inside core
    # (even or odd cells): each slot's lowest closure difference is the
    # witness regularity_check gives that set
    G = build_graph(dims, periodic)
    rng = make_rng(sum(dims) + 2)
    sets = [random_regular_odd_set(G, rng, 0) for _ in range(3)]
    sets += [G.vertex_set(m) for m in oracle_samples(G.n, sum(dims) + 3)]
    kinds = ["odd", "even"] * len(sets)
    sets = [U for U in sets for _ in (0, 1)]
    cores = [(G.even if kind == "odd" else G.odd).bits for kind in kinds]
    n, k = G.n, len(sets)
    inside, outside = _closure_diffs(G, _pack_slots([U.bits for U in sets], n),
                                     _pack_slots(cores, n), k)
    for i, (U, kind) in enumerate(zip(sets, kinds)):
        witness = _lowest(_slot(inside, i, n), _slot(outside, i, n))
        assert regularity_check(G, U, kind) == (witness is None, witness)

def test_revealed_plus_shape_d3():
    G = build_graph([7, 7, 7])
    plus = plus_at(G, (3, 3, 3)) if G.parity[G.vid((3, 3, 3))] == 0 else None
    if plus is None:
        plus = plus_at(G, (3, 3, 2))
    center = plus.ids()[len(plus.ids()) // 2]
    rev = revealed_vertices(G, plus, "odd")
    # every neighbor of the center sees 2d - 1 >= d boundary edges
    assert (plus - rev).bits.bit_count() == 1  # only the center is hidden
    assert revealed_vertices(G, G.empty_set(), "odd") == G.empty_set()


def test_revealed_vertices_refuse_an_edge_clipped_by_the_rim():
    # on the (2,2,2) box the odd set {0,1,2,4} leaves boundary edge (1,3)
    # with no revealed end, and cell 3 lacks a neighbor along every axis:
    # the rim's PreconditionError, not the theorem's internal error
    G = build_graph([2, 2, 2])
    with pytest.raises(PreconditionError, match=re.escape(
            "boundary edge (1,3) is clipped by the ambient rim; "
            "revealed-vertex separation needs clearance from the faces")):
        revealed_vertices(G, G.vertex_set([0, 1, 2, 4]), "odd")


def test_revealed_separation_randomized():
    G = build_graph([8, 8])
    rng = make_rng(7)
    for _ in range(60):
        S = random_regular_odd_set(G, rng)
        rev = revealed_vertices(G, S, "odd")
        for (u, v) in boundary_edges(G, [S]):
            assert u in rev or v in rev


def test_four_cycle_plus_and_mirrored():
    G = build_graph([7, 7])
    plus = plus_at(G, (2, 2))
    assert four_cycle_check(G, plus, "odd")
    assert four_cycle_check(G, plus.complement(), "even")
    with pytest.raises(PreconditionError):
        four_cycle_check(G, plus, "even")


def _oracle_step(dims, periodic, v, axis, delta):
    cs = list(oracles.coords_of(dims, v))
    c = cs[axis] + delta
    if periodic[axis]:
        c %= dims[axis]
    elif not 0 <= c < dims[axis]:
        return None
    cs[axis] = c
    return oracles.vid_of(dims, cs)


def _oracle_four_cycle_failures(dims, periodic, members):
    # the per-edge loop: every boundary edge, every axis direction, by
    # coordinate arithmetic; then the 2d clause at full-degree endpoints
    nbrs = [oracles.neighbors_of(dims, periodic, v) for v in range(_volume(dims))]

    def crossing(a, b):
        return a is not None and b is not None and (a in members) != (b in members)

    exchange, sight = set(), set()
    for u, v in oracles.all_edges(dims, periodic):
        if not crossing(u, v):
            continue
        for axis in range(len(dims)):
            for delta in (-1, 1):
                ue = _oracle_step(dims, periodic, u, axis, delta)
                ve = _oracle_step(dims, periodic, v, axis, delta)
                if (ue is not None or ve is not None) and not (
                        crossing(u, ue) or crossing(v, ve)):
                    exchange.add((u, v))
        full = 2 * len(dims)
        seen = sum(crossing(w, x) for w in (u, v) for x in nbrs[w])
        if len(nbrs[u]) == full and len(nbrs[v]) == full and seen < full:
            sight.add((u, v))
    return [exchange, sight]


def _volume(dims):
    n = 1
    for x in dims:
        n *= x
    return n


def _failing_edges(G, maps):
    return {tuple(sorted((u, int(G.neighbor_table[a, u]))))
            for a, m in enumerate(maps) for u in VertexSet(m, G.n)}


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS + [((2, 2, 4), (True, True, False))])
def test_four_cycle_failures_match_per_edge_loop(dims, periodic):
    # random sets, most of them not parity sets, fail both clauses somewhere;
    # the helper's maps must name exactly the edges the per-edge loop names
    G = build_graph(dims, periodic)
    failing = 0
    for members in oracle_samples(G.n, 53):
        got = [_failing_edges(G, maps) for maps in _four_cycle_failures(G, G.vertex_set(members).bits)]
        want = _oracle_four_cycle_failures(dims, periodic, members)
        assert got == want
        failing += len(want[0]) + len(want[1])
    assert failing or 1 in dims   # on the 1x7 path no edge can fail


def test_four_cycle_check_names_lowest_failing_edge(monkeypatch):
    # a non-parity set passed off as one: the message names the lowest edge
    # the per-edge loop finds failing
    G = build_graph([6, 6])
    members = {G.vid((2, 2)), G.vid((2, 3)), G.vid((3, 2))}
    monkeypatch.setattr(geometry, "is_parity_set", lambda *args: True)
    want = min(min(edges) for edges in _oracle_four_cycle_failures(G.dims, G.periodic, members)
               if edges)
    with pytest.raises(InternalInvariantError, match=rf"\({want[0]},{want[1]}\)"):
        four_cycle_check(G, G.vertex_set(members), "odd")


def test_greedy_cover_contract():
    G = build_graph([7, 7])
    rng = make_rng(15)
    for _ in range(30):
        S = G.vertex_set([v for v in range(G.n) if rng.random() < 0.4])
        if not S:
            continue
        for t in (1, 2, 3):
            T = greedy_cover(G, S, t)
            assert T.issubset(S)
            targets = n_t(G, S, t)
            assert targets.issubset(neighborhood(G, T))


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_boundary_edge_thresholds_and_cover_match_oracles(dims, periodic):
    G = build_graph(dims, periodic)
    nbrs = [oracles.neighbors_of(dims, periodic, v) for v in range(G.n)]
    samples = oracle_samples(G.n, 41)
    for k in range(1, len(samples)):
        sets = [G.vertex_set(members) for members in samples[k - 1:k + 1]]
        maps = _boundary_maps(G, sets)
        seen = [
            sum(1 for u in nbrs[v] if any((v in S) != (u in S) for S in sets))
            for v in range(G.n)
        ]
        for t in range(-1, G.full_degree + 2):
            want = {v for v in range(G.n) if seen[v] >= t}
            assert {v for v in range(G.n) if (_at_least(G, maps, t) >> v) & 1} == want
        # greedy cover: the lowest id of most uncovered target neighbors
        S = sets[1]
        for t in range(1, G.full_degree + 1):
            targets = {v for v in range(G.n) if sum(u in S for u in nbrs[v]) >= t}
            want = set()
            while targets:
                _, neg = max((sum(u in targets for u in nbrs[v]), -v) for v in S)
                want.add(-neg)
                targets -= set(nbrs[-neg])
            assert set(greedy_cover(G, S, t).ids()) == want


@pytest.mark.parametrize("dims,periodic", [
    ((7, 7), (False, False)), ((8, 8, 2), (False, False, True)),
    ((3, 3, 3, 3), (False,) * 4), ((6, 6), (True, True))])
def test_witness_set_matches_per_cell_oracle(dims, periodic):
    # a_i is computed from its definition too: the inside cells on at
    # least 2d - s boundary edges of S_i; own and m_levels are built as
    # _half_separating_core builds them
    G = build_graph(dims, periodic)
    nbrs = [oracles.neighbors_of(dims, periodic, v) for v in range(G.n)]
    parity = [sum(oracles.coords_of(dims, v)) % 2 for v in range(G.n)]
    rng = make_rng(29)
    for trial in range(6):
        sets = [{v for v in range(G.n) if rng.random() < p}
                for p in (rng.random() for _ in range(1 + trial % 3))]
        for odd in (1, 0):
            inside = {v for v in range(G.n) if parity[v] == odd}
            outside = set(range(G.n)) - inside
            for s in (0, 1, 2, 4):
                a = [{w for w in inside
                      if sum((z in S) != (w in S) for z in nbrs[w]) >= 2 * G.d - s}
                     for S in sets]
                own = [[G.vertex_set(ai).bits & image
                        for image in _images(G, G.vertex_set(S).bits)]
                       for S, ai in zip(sets, a)]
                m_levels = _ladder([reduce(or_, maps) for maps in zip(*own)], G.full_degree)
                got = _witness_set(G, own, m_levels, G.vertex_set(outside).bits)
                want = oracles.witness_set(dims, periodic, sets, a, outside)
                assert set(VertexSet(got, G.n).ids()) == want


def test_separating_set_single_and_double_plus():
    G = build_graph([9, 9])
    coll = OddSetCollection(G, [plus_at(G, (4, 4))], "odd")
    rep = separating_set(coll)
    assert rep.separates
    for (u, v) in boundary_edges(G, coll.sets):
        assert u in rep.separator or v in rep.separator

    two = OddSetCollection(G, [plus_at(G, (3, 3)), plus_at(G, (5, 5))], "odd")
    rep2 = separating_set(two)
    assert rep2.separates
    # empty collection separates vacuously
    empty = OddSetCollection(G, [], "odd")
    rep3 = separating_set(empty)
    assert rep3.separates and rep3.size == 0


def test_separating_set_randomized_and_bound_reported():
    G = build_graph([8, 8])
    rng = make_rng(21)
    for _ in range(40):
        sets = [random_regular_odd_set(G, rng)]
        if rng.random() < 0.5:
            sets.append(random_regular_odd_set(G, rng))
        coll = OddSetCollection(G, sets, "odd")
        rep = separating_set(coll)
        assert rep.separates
        assert rep.size_bound > 0 or not boundary_edges(G, coll.sets)


def test_separating_set_refuses_thresholds_out_of_range():
    # t counts neighbors, so it lies in 1..2d, and s in the lemma's 1..d; a
    # threshold outside its range is the caller's error (exit 1), never a
    # failed separation check (exit 3).  Inside the ranges the sets stay put.
    G = build_graph([8, 8])
    coll = OddSetCollection(G, [random_regular_odd_set(G, make_rng(3))])
    assert {t: separating_set(coll, t=t).vertices.ids() for t in range(1, 3)} == {
        1: (19, 21, 26, 27, 28, 29, 30, 35, 36, 37, 42, 43, 44, 45, 46, 51, 53),
        2: (19, 27, 28, 30, 36, 42, 44, 45, 53),
    }
    assert [len(separating_set(coll, s=s).vertices) for s in (1, 2)] == [9, 17]
    for t in (-1, 0, 3, 4, 5, 6, 7, 10**9):
        with pytest.raises(PreconditionError, match=re.escape(f"t must be in 1..2, got {t}")):
            separating_set(coll, t=t)
    for s in (-1, 0, 3, 10**9):
        with pytest.raises(PreconditionError, match=re.escape(f"s must be in 1..2, got {s}")):
            separating_set(coll, s=s)


def test_separating_set_never_fails_its_own_check():
    # over every t in 1..2d each call separates or refuses the threshold:
    # past d the cover argument fails, and the construction at t = 3 or 4
    # leaves 22 of these 36 sets unseparated
    for dims in ((8, 8), (10, 10), (12, 12)):
        G = build_graph(dims)
        for seed in range(12):
            coll = OddSetCollection(G, [random_regular_odd_set(G, make_rng(seed))])
            for t in range(1, 2 * G.d + 1):
                try:
                    assert separating_set(coll, s=1, t=t).separates
                except PreconditionError as exc:
                    assert t > G.d and f"t must be in 1..{G.d}, got {t}" in str(exc)


def test_weak_approximation_properties():
    G = build_graph([8, 8])
    rng = make_rng(33)
    for _ in range(60):
        coll = OddSetCollection(G, [random_regular_odd_set(G, rng)], "odd")
        rep = separating_set(coll)
        weak = weak_approximation(G, rep.separator, coll)
        for known, S in zip(weak.known, coll.sets):
            assert known.issubset(S)
            assert S.issubset(known | weak.fringe)
        assert weak.fringe.issubset(closed_neighborhood(G, rep.separator))


def test_weak_approximation_full_ambient_component():
    G = build_graph([6, 6])
    coll = OddSetCollection(G, [G.full_set()], "odd")
    weak = weak_approximation(G, G.empty_set(), coll)
    assert weak.known[0] == G.full_set()
    assert not weak.fringe


def test_weak_approximation_rejects_nonseparating():
    G = build_graph([7, 7])
    coll = OddSetCollection(G, [plus_at(G, (3, 3))], "odd")
    with pytest.raises(PreconditionError):
        weak_approximation(G, G.empty_set(), coll)


def test_weak_approximation_refuses_rim_clipped_pocket():
    # W = {2,3,4,5} on the 1x7 path leaves the pocket {0,1}, of at most d
    # cells, whose end cell 0 is two steps from W
    G = build_graph([1, 7])
    coll = OddSetCollection(G, [G.vertex_set([0, 1, 2, 3])])
    rep = separating_set(coll, s=1, t=1)
    with pytest.raises(PreconditionError):
        weak_approximation(G, rep.separator, coll)


def test_weak_approximation_full_degree_escape_is_internal(monkeypatch):
    # pockets of full-degree cells cannot leave W^+; with W^+ shrunk to W
    # the escape is reported as an invariant failure, not a precondition
    G = build_graph([6, 6], [True, True])
    pocket = G.vertex_set([G.vid((2, 2))])
    W = neighborhood(G, pocket)
    coll = OddSetCollection(G, [pocket | W], "odd")
    monkeypatch.setattr(geometry, "closed_neighborhood", lambda G, U: U)
    with pytest.raises(InternalInvariantError):
        weak_approximation(G, W, coll)


WEAK_GRAPHS = [((12, 12), (False, False)), ((9, 7), (False, False)), ((10, 8), (True, True)),
               ((10, 2), (False, True)), ((2, 8), (True, True)),
               ((8, 4, 2), (False, True, True)), ((1, 9), (False, False))]


@pytest.mark.parametrize("dims,periodic", WEAK_GRAPHS)
def test_weak_approximation_matches_component_oracle(dims, periodic):
    # W is a separator plus random extra cells, the odd cells, the sets'
    # inner boundaries, a separator less one cell, or random; the oracle
    # lists every component of W^c and tests each against each set
    G = build_graph(dims, periodic)
    rng = make_rng(41)
    outcomes = set()
    for _ in range(6):
        if G.dims[0] == 1:   # too thin for a padded set: a short segment
            sets = [G.vertex_set(range(int(rng.integers(1, 4)) * 2))]
        else:
            sets = [random_regular_odd_set(G, rng, core_depth=2, p=p)
                    for p in rng.choice([0.1, 0.7], int(rng.integers(1, 3)))]
        coll = OddSetCollection(G, sets, "odd")
        sep = separating_set(coll, s=1, t=1).separator
        inner = reduce(or_, (vertex_boundaries(G, S)[0] for S in sets))
        candidates = [sep | random_subset(G, rng, G.full_set(), 0.1), G.odd,
                      inner | random_subset(G, rng, G.full_set(), 0.05),
                      random_subset(G, rng, G.full_set(), 0.5)]
        if sep:
            candidates.append(sep - G.vertex_set([sep.min_id()]))
        for W in candidates:
            try:
                known, fringe = oracles.weak_approximation(
                    dims, periodic, set(W.ids()), [set(S.ids()) for S in sets])
            except ValueError as exc:
                outcomes.add(str(exc).split()[0])
                with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                    weak_approximation(G, W, coll)
                continue
            outcomes.add("known" if any(known) else "ok")
            weak = weak_approximation(G, W, coll)
            assert [set(k.ids()) for k in weak.known] == known
            assert set(weak.fringe.ids()) == fringe
            assert weak.fringe_bound_ok == (len(fringe) <= 3 * len(W))
    assert {"ok", "known", "boundary"} <= outcomes
    assert ("fringe" in outcomes) == (G.dims[0] == 1)


def test_weak_approximation_names_lowest_unseparated_edge():
    # the plus at 24 on 7 x 7 has boundary edges (10,17), (16,17), (17,18),
    # ...; with 10 in W the lowest one left with neither end in W is (16,17)
    G = build_graph([7, 7])
    coll = OddSetCollection(G, [plus_at(G, (3, 3))], "odd")
    with pytest.raises(PreconditionError,
                       match=r"boundary edge \(16, 17\) has neither end in W"):
        weak_approximation(G, G.vertex_set([10]), coll)
    with pytest.raises(PreconditionError, match=r"boundary edge \(10, 17\)"):
        weak_approximation(G, G.empty_set(), coll)


def test_weak_approximation_memory_is_linear_in_cells():
    # W = the odd cells of 200 x 200 leaves 20 000 singleton pockets; listing
    # them one n-bit bitmap each peaked at 103 MiB traced
    G = LatticeGraph((200, 200))
    coll = OddSetCollection(G, [plus_at(G, (100, 100)), plus_at(G, (50, 60))], "odd")
    tracemalloc.start()
    try:
        weak = weak_approximation(G, G.odd, coll)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weak.fringe == G.full_set() and not any(weak.known)
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def _droplet_breakup(G, q=3):
    p0 = Pattern.make(q, [1], [2, 3])
    f = striped_pattern_coloring(G, p0)
    center = G.vid(tuple(x // 2 for x in G.dims))
    if G.parity[center] != 0:
        center = G.neighbors[center][0]
    for u in G.neighbors[center]:
        f.values[u] = 2
    f.values[center] = 3
    dom = G.vertex_set(
        [v for v in range(G.n) if all(1 <= c <= G.dims[a] - 2
                                      for a, c in enumerate(G.coords(v)))]
    )
    return construct_breakup(G, f, G.vertex_set([center]), dom, p0), p0


def test_verify_approximation_exact_copy_and_failures():
    G = build_graph([8, 8])
    X, p0 = _droplet_breakup(G)
    L = classify_atlas(X).L
    exact = Approximation(dict(X.x_p), G.empty_set(), G.empty_set())
    ok, clauses = verify_approximation(G, exact, X, L)
    assert ok, clauses

    # moving the coarse fringe away from every region boundary breaks (A4)
    far = G.vertex_set([0])
    moved = Approximation(dict(X.x_p), G.empty_set(), far)
    ok, clauses = verify_approximation(G, moved, X, L)
    assert not clauses["location"]

    # dropping a region cell into the unknown without declaring it breaks (A1)
    chopped = dict(X.x_p)
    chopped[p0] = chopped[p0] - G.vertex_set([chopped[p0].min_id()])
    ok, clauses = verify_approximation(
        G, Approximation(chopped, G.empty_set(), G.empty_set()), X, L
    )
    assert not clauses["sandwich"]


def test_lifted_weak_approximation_satisfies_sandwich():
    G = build_graph([8, 8])
    X, p0 = _droplet_breakup(G)
    odd_regions = [U for P, U in sorted(X.x_p.items(), key=lambda kv: kv[0].sort_key())
                   if P.klass == 0 and U]
    # the class-0 regions are even sets; use the mirrored collection mode
    coll = OddSetCollection(G, odd_regions, "even")
    rep = separating_set(coll)
    weak = weak_approximation(G, rep.separator, coll)
    for known, S in zip(weak.known, coll.sets):
        assert known.issubset(S) and S.issubset(known | weak.fringe)


def test_isoperimetry_plus_equality_d3():
    G = build_graph([5, 5, 5])
    plus = plus_at(G, (2, 2, 2)) if G.parity[G.vid((2, 2, 2))] == 0 else plus_at(G, (2, 2, 1))
    rep = isoperimetry_checks(G, plus)
    assert rep.applicable_small
    assert rep.small_lhs == rep.small_rhs == 2 * 3 * 5
    assert rep.small_holds
    assert all(c["holds"] for c in rep.per_component)


def test_isoperimetry_two_linked_plus_shapes():
    G = build_graph([9, 9])
    a = plus_at(G, (3, 3))
    b = plus_at(G, (5, 5))
    U = a | b
    assert is_parity_set(G, U, "odd")
    rep = isoperimetry_checks(G, U)
    assert rep.small_holds
    for comp in rep.per_component:
        assert comp["holds"]


def test_isoperimetry_not_applicable_without_even_vertex():
    G = build_graph([7, 7])
    # a single odd vertex: an odd set (boundary is odd) with no even cell
    U = G.vertex_set([G.vid((0, 1))])
    rep = isoperimetry_checks(G, U)
    assert not rep.applicable_small
    assert rep.small_holds is None


def test_odd_set_collection_validates():
    G = build_graph([7, 7])
    with pytest.raises(PreconditionError):
        OddSetCollection(G, [G.vertex_set([G.vid((2, 2))])], "odd")


def test_odd_set_collection_names_first_irregular_set():
    # one slotted pass: the lowest irregular index is named, with the witness
    # regularity_check gives that set, though a later set has a lower witness
    G = build_graph([7, 7])
    plus, bad, later = (plus_at(G, (4, 4)), G.vertex_set([G.vid((2, 2))]),
                        G.vertex_set([G.vid((0, 1))]))
    for parity, sets in (("odd", [plus, bad, later]),
                         ("even", [S.complement() for S in (plus, bad, later)])):
        ok, witness = regularity_check(G, sets[1], parity)
        assert not ok and regularity_check(G, sets[2], parity)[1] < witness
        message = f"set 1 is not regular {parity} (witness vertex {witness})"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            OddSetCollection(G, sets, parity)


def test_sets_of_another_graph_are_refused():
    # a slot holds n cells, so a set with cells at n or above is refused
    # rather than judged on its first n cells
    G, H = build_graph([7, 7]), build_graph([8, 8])
    plus = plus_at(G, (2, 2))
    for U in (VertexSet(plus.bits | 1 << 60, H.n), plus_at(H, (2, 2))):
        for check in (lambda: regularity_check(G, U, "odd"),
                      lambda: OddSetCollection(G, [plus, U, plus], "odd")):
            with pytest.raises(PreconditionError, match="different ambient graphs"):
                check()


_PARITY_TAKERS = {
    "is_parity_set": is_parity_set,
    "revealed_vertices": revealed_vertices,
    "four_cycle_check": four_cycle_check,
    "regularity_check": regularity_check,
    "OddSetCollection": lambda G, S, parity: OddSetCollection(G, [S], parity),
    "enumerate_regular_parity_sets":
        lambda G, S, parity: enumerate_regular_parity_sets(build_graph([3, 3]), parity),
}


@pytest.mark.parametrize("parity", ["bogus", "Odd"])
@pytest.mark.parametrize("name", sorted(_PARITY_TAKERS))
def test_unknown_parity_name_is_refused(name, parity):
    # every parity argument goes through one resolver; S^c is an even set,
    # which a reading of every other name as "even" would accept
    G = build_graph([7, 7])
    with pytest.raises(PreconditionError, match=f"parity must be 'odd' or 'even', got '{parity}'"):
        _PARITY_TAKERS[name](G, plus_at(G, (3, 3)).complement(), parity)


@pytest.mark.parametrize("dims", [[2, 3], [3, 3], [2, 2, 2], [4, 4]])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_enumeration_in_chunks_matches_the_per_subset_check(dims, parity):
    # chunks of consecutive subsets, one per slot; 2x3 has fewer subsets
    # than one chunk
    G = build_graph(dims)
    want = [VertexSet(bits, G.n) for bits in range(1 << G.n)
            if regularity_check(G, VertexSet(bits, G.n), parity)[0]]
    assert enumerate_regular_parity_sets(G, parity) == want
