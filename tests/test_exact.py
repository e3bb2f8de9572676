import ast
import gc
import itertools
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chroma import exact
from chroma.errors import (
    ConfigError,
    PreconditionError,
    ResourceLimitError,
    UndefinedMeasureError,
)
from chroma.exact import (
    Constraint,
    _count_backtrack,
    _count_masked,
    _layout,
    _pattern_cut,
    _transfer,
    _TransferPlan,
    allowed_masks,
    count_colorings,
    enumerate_colorings,
    exact_marginal,
    htop_estimate,
    toy_ratio,
    transfer_count,
    tv_distance,
)
from chroma.lattice import build_graph, closed_neighborhood
from chroma.patterns import MAX_COLORS, Pattern, enumerate_dominant
from chroma.rng import make_rng

import oracles
from test_lattice import _within


def test_four_cycle_count():
    G = build_graph([2, 2])
    assert count_colorings(G, G.full_set(), 3).count == 18


def test_path_count():
    G = build_graph([3, 1])
    assert count_colorings(G, G.full_set(), 3).count == 12  # q (q-1)^2


def test_forced_pin():
    G = build_graph([3, 1])
    pins = {0: 1, 2: 2}
    res = count_colorings(G, G.vertex_set([1]), 3, Constraint.pinned(pins))
    assert res.count == 1


def test_infeasible_pins_count_zero():
    G = build_graph([2, 1])
    res = count_colorings(G, G.full_set(), 3, Constraint.pinned({0: 1, 1: 1}))
    assert res.count == 0


@pytest.mark.parametrize("v", [-1, 4])
def test_pins_off_the_graph_are_refused(v):
    G = build_graph([2, 2])
    with pytest.raises(ConfigError, match="pinned vertex"):
        allowed_masks(G, G.full_set(), 3, Constraint.pinned({v: 1}))


def test_constraint_is_its_fields():
    # a pattern field is a pattern boundary however the constraint is built,
    # a pin keeps it, and a pattern that is not dominant is refused
    G = build_graph([3, 3])
    P = Pattern.parse(3, "A=1;B=2,3")
    count = lambda c: count_colorings(G, G.full_set(), 3, c).count
    assert count(Constraint()) == count(Constraint.free()) == 246
    assert count(Constraint(pattern=P)) == count(Constraint.pattern_boundary(P)) == 18
    pinned = Constraint.pattern_boundary(P).with_pin(4, 1)
    assert pinned == Constraint(pattern=P, pins=((4, 1),))
    assert 0 < count(pinned) < count(Constraint.pinned({4: 1}))
    for make in (lambda Q: Constraint(pattern=Q), Constraint.pattern_boundary):
        with pytest.raises(ConfigError, match="boundary constraint needs a dominant pattern"):
            make(Pattern.make(3, [1], [2]))


def test_negative_q_refused_and_zero_q_counts():
    # both engines enter through allowed_masks; q = 0 leaves a nonempty
    # domain no coloring and the empty domain its one
    G = build_graph([2, 2])
    for q in (-1, -2):
        with pytest.raises(ConfigError, match="q must be >= 0"):
            allowed_masks(G, G.full_set(), q, Constraint.free())
        with pytest.raises(ConfigError):
            count_colorings(G, G.full_set(), q)
        with pytest.raises(ConfigError):
            transfer_count(G, q)
    assert count_colorings(G, G.full_set(), 0).count == 0
    assert transfer_count(G, 0).count == 0
    assert count_colorings(G, G.vertex_set([]), 0).count == 1


def test_q_above_the_pattern_ceiling_is_refused():
    # allowed_masks refuses q past MAX_COLORS (62) before it builds a mask,
    # and every engine inherits it: at q = 10^6 a 2-cell count ran past a
    # second, and at 10^9 it asked for a 10^9-bit mask per cell
    G = build_graph([2])
    assert count_colorings(G, G.full_set(), 62).count == 62 * 61
    for q in (63, 10**6):
        for call in (lambda: allowed_masks(G, G.full_set(), q, Constraint.free()),
                     lambda: count_colorings(G, G.full_set(), q),
                     lambda: transfer_count(G, q),
                     lambda: exact_marginal(G, G.full_set(), q, 0),
                     lambda: htop_estimate(q, [(2, 2)])):
            with pytest.raises(ConfigError, match=f"q must be at most 62, got {q}"):
                _within(1.0, call)


def test_htop_estimate_refuses_fewer_than_two_colors():
    for q in (-1, 0, 1):
        with pytest.raises(ConfigError, match=f"q must be >= 2, got {q}"):
            htop_estimate(q, [(2, 2)])


def test_masks_match_their_definition():
    # fixed-seed random domains on boxes and tori (length-2 periodic axes
    # too) at q = 0, 2..5 and MAX_COLORS, free, under a pattern boundary,
    # pinned and both: allowed_masks (0 off the domain) and the domain's
    # list that the counts read, against the per-cell oracle
    rng = make_rng(4801)
    graphs = [((4, 5), (False, False)), ((4, 4), (True, True)), ((2, 6), (True, False)),
              ((3, 3, 2), (False, False, True)), ((6,), (False,)), ((2, 2, 2), (True,) * 3)]
    outside = clashes = empty = 0
    for dims, periodic in graphs:
        G = build_graph(dims, periodic)
        for q in (0, 2, 3, 4, 5, MAX_COLORS):
            for _ in range(8):
                size = int(rng.integers(0, G.n + 1))
                cells = sorted(rng.choice(G.n, size=size, replace=False).tolist())
                domain = G.vertex_set(cells)
                P = sides = None
                if q and rng.random() < 0.5:
                    colors = (rng.permutation(q) + 1).tolist()
                    P = Pattern.make(q, colors[:q // 2], colors[q // 2:])
                    sides = (set(P.a), set(P.b))   # the even side, then the odd
                pins = {}
                if q:   # pins of a few colors, so that neighbors often clash
                    for v in rng.choice(G.n, size=int(rng.integers(0, 4)), replace=False).tolist():
                        pins[v] = int(rng.integers(1, min(q, 3) + 1))
                constraint = Constraint(P, tuple(sorted(pins.items())))
                want, feasible = oracles.constraint_colors(dims, periodic, cells, q, sides, pins)
                mask = {v: sum(1 << (c - 1) for c in colors) for v, colors in want.items()}
                masks, ok = allowed_masks(G, domain, q, constraint)
                assert masks == [mask.get(v, 0) for v in range(G.n)], (dims, q, cells, constraint)
                assert ok == feasible, (dims, q, cells, constraint)
                assert exact._domain_masks(G, domain, q, constraint) == (
                    [mask[v] for v in cells], feasible)
                outside += any(v not in domain and set(G.neighbors[v]) & set(cells) for v in pins)
                clashes += any(pins.get(u) == c for v, c in pins.items() for u in G.neighbors[v])
                empty += any(not colors for colors in want.values())
    assert outside >= 20 and clashes >= 5 and empty >= 5, (outside, clashes, empty)


def test_a_count_costs_what_its_domain_costs():
    # one 2 x 3 block in the middle of 300 x 300 counts within 3x of the
    # same block's time on 6 x 6 (best of 5 interleaved timings), free,
    # under a pattern boundary and pinned, and so does its marginal; when
    # every count built a mask per cell of the box, the free count read
    # 2.69 ms against 0.018 ms
    P = Pattern.make(3, [1], [2, 3])
    calls = {}
    for side in (6, 300):
        G = build_graph((side, side))
        r = side // 2 - 1
        block = G.vertex_set(G.vid((r + i, r + j)) for i in range(2) for j in range(3))
        pins = Constraint.pinned({G.vid((r, r)): 1, G.vid((r - 1, r + 1)): 2})
        calls[side] = [
            lambda G=G, U=block: count_colorings(G, U, 3),
            lambda G=G, U=block: count_colorings(G, U, 3, Constraint.pattern_boundary(P)),
            lambda G=G, U=block, c=pins: count_colorings(G, U, 3, c),
            lambda G=G, U=block, v=G.vid((r, r)): exact_marginal(G, U, 3, v),
        ]
    assert [f().count for f in calls[6][:3]] == [f().count for f in calls[300][:3]]
    assert calls[6][3]().probs == calls[300][3]().probs
    best = {side: [math.inf] * 4 for side in calls}
    for _ in range(5):
        for side, fs in calls.items():
            for k, f in enumerate(fs):
                start = time.perf_counter()
                for _ in range(20):
                    f()
                best[side][k] = min(best[side][k], (time.perf_counter() - start) / 20)
    for name, small, large in zip(("free", "pattern", "pinned", "marginal"), best[6], best[300]):
        assert large < 3 * small, (name, small, large)


def test_count_matches_brute_force_random_subgraphs():
    rng = make_rng(101)
    for _ in range(25):
        dims = tuple(int(rng.integers(2, 5)) for _ in range(2))
        G = build_graph(dims)
        q = int(rng.integers(3, 6))
        size = int(rng.integers(2, 9))
        seed_v = int(rng.integers(0, G.n))
        members = {seed_v}
        while len(members) < size:
            frontier = sorted({u for v in members for u in G.neighbors[v]} - members)
            if not frontier:
                break
            members.add(frontier[int(rng.integers(0, len(frontier)))])
        domain = G.vertex_set(members)
        got = count_colorings(G, domain, q).count
        want = oracles.brute_force_count(dims, (False, False), sorted(members), q)
        assert got == want


def test_transfer_degenerate_single_layer():
    G = build_graph([3, 3, 1])
    t = transfer_count(G, 3)
    b = count_colorings(G, G.full_set(), 3, method="backtracking")
    assert t.count == b.count


def test_transfer_equals_backtracking_randomized():
    rng = make_rng(7)
    p0 = Pattern.make(3, [1], [2, 3])
    checked = 0
    while checked < 50:
        dims = (
            int(rng.integers(2, 4)),
            int(rng.integers(2, 4)),
            int(rng.integers(2, 5)),
        )
        G = build_graph(dims)
        kind = checked % 3
        if dims == (3, 3, 4) and kind == 0:
            kind = 1  # the largest free slab is covered by the acceptance run
        if kind == 0:
            c = Constraint.free()
        elif kind == 1:
            c = Constraint.pattern_boundary(p0)
        else:
            pins = {}
            for _ in range(3):
                pins[int(rng.integers(0, G.n))] = int(rng.integers(1, 4))
            c = Constraint.pinned(pins)
        t = transfer_count(G, 3, c)
        b = count_colorings(G, G.full_set(), 3, c, method="backtracking")
        assert t.count == b.count, (dims, kind)
        checked += 1
    assert checked == 50


def test_transfer_periodic_axis_rejected_and_budget():
    T = build_graph([4, 4], [True, True])
    with pytest.raises(PreconditionError):
        transfer_count(T, 3)
    G = build_graph([3, 3, 4])
    with pytest.raises(ResourceLimitError):
        transfer_count(G, 3, state_budget=10)


def test_transfer_periodic_cross_section():
    # Z^{d1} x T^{d2} slabs: layers run along the free axis, so the periodic
    # wrap-around falls inside each layer's cross-section
    p0 = Pattern.make(3, [1], [2, 3])
    slab = ((4, 4, 5), (True, False, False))
    cases = [
        ((4, 6), (True, False), 3, Constraint.free()),
        ((4, 6), (True, False), 4, Constraint.free()),
        ((6, 4), (False, True), 3, Constraint.free()),
        (*slab, 3, Constraint.free()),
        (*slab, 3, Constraint.pattern_boundary(p0)),
        (*slab, 3, Constraint.pinned({0: 1, 3: 2, 42: 3, 79: 1})),
    ]
    for dims, periodic, q, c in cases:
        G = build_graph(dims, periodic)
        t = transfer_count(G, q, c)
        b = count_colorings(G, G.full_set(), q, c, method="backtracking")
        assert t.count == b.count > 0, (dims, periodic, q, c)


def test_transfer_wide_strips():
    G = build_graph([10, 12])
    b = count_colorings(G, G.full_set(), 3, method="backtracking")
    assert transfer_count(G, 3).count == b.count
    W = build_graph([12, 12])
    # the counter gives the same number at its default budget
    assert transfer_count(W, 3).count == 198475392061658571459051861720
    with pytest.raises(ResourceLimitError):
        transfer_count(W, 3, state_budget=1000)


def test_transfer_square_ice_strips_follow_lieb_and_the_c1_law():
    # proper 3-colorings of Z^2 are square ice, W = (4/3)^{3/2} per site
    # (Lieb 1967).  On a strip of width L, periodic across, the growth per
    # row W_L = (Z_{M+1}/Z_M)^{1/L} obeys ln(W_L/W) ~ pi c/(6 L^2) with
    # c = 1 (Bloete, Cardy and Nightingale 1986); M = 2L rows are enough
    W = (4 / 3) ** 1.5
    for L in (6, 8, 10):
        M = 2 * L
        Z = [transfer_count(build_graph([m, L], [False, True]), 3).count for m in (M, M + 1)]
        log_ratio = (math.log(Z[1]) - math.log(Z[0])) / L - math.log(W)
        assert abs(math.exp(log_ratio - math.pi / (6 * L * L)) - 1) < 1e-3, L
        if L >= 8:
            assert abs(6 * L * L / math.pi * log_ratio - 1) < 0.05, L


def test_counter_on_even_cycles_matches_the_chromatic_polynomial():
    # a 1-D torus of even length n is the n-cycle, (q-1)^n + (-1)^n (q-1)
    # colorings; n = 2 is one edge, the length-2 wrap counted once
    for n in range(2, 41, 2):
        G = build_graph([n], [True])
        for q in range(2, 7):
            assert count_colorings(G, G.full_set(), q).count == (q - 1) ** n + (q - 1), (n, q)
            # cell 0 pinned: a 1/q share by color symmetry, and the masks are
            # no longer alike, so the ring is counted by search
            pinned = count_colorings(G, G.full_set(), q, Constraint.pinned({0: 1})).count
            assert pinned * q == (q - 1) ** n + (q - 1), (n, q)


def test_trees_and_alike_rings_of_any_depth_are_counted():
    # deeper than the recursion limit, and not whole boxes: row 0 of a
    # 2 x 2000 box is a path, the rim of a 300 x 300 box a 1196-cell ring
    G = build_graph([2, 2000])
    row = G.vertex_set(range(2000))
    assert count_colorings(G, row, 3).count == 3 * 2 ** 1999
    B = build_graph([300, 300])
    rim = B.vertex_set(v for v in range(B.n) if {0, 299} & set(B.coords(v)))
    assert len(rim) == 1196
    for q in (2, 3, 4):
        assert count_colorings(B, rim, q).count == (q - 1) ** 1196 + (q - 1), q


def _by_id_count(G, cells, masks, q, **kw):
    """``_count_backtrack`` over the cells, their masks gathered from a
    list by vertex id (as ``allowed_masks`` gives) into the domain's order."""
    return _count_backtrack(G, G.vertex_set(cells), [masks[v] for v in sorted(set(cells))],
                            q, **kw)


def _free_root(G, cells, q):
    """The counter's root total of the cells under free masks, None where a
    search is left."""
    masks = [(1 << q) - 1] * G.n
    return _by_id_count(G, cells, masks, q, root_only=True)


def test_counter_matches_brute_force_on_connected_free_subdomains():
    # fixed-seed connected sets of up to 10 cells grown from a random cell,
    # where series-parallel parts close at the root and the rest is searched
    rng = make_rng(4701)
    shapes = [((4, 4), (False, False)), ((3, 5), (False, False)), ((4, 4), (True, False)),
              ((3, 3, 3), (False,) * 3), ((2, 3, 4), (False, False, True))]
    closed = searched = 0
    for dims, periodic in shapes:
        G = build_graph(dims, periodic)
        for _ in range(12):
            q = int(rng.integers(2, 5))
            size = int(rng.integers(4, 11))
            members = {int(rng.integers(0, G.n))}
            while len(members) < size:
                frontier = sorted({u for v in members for u in G.neighbors[v]} - members)
                members.add(frontier[int(rng.integers(0, len(frontier)))])
            cells = sorted(members)
            want = oracles.brute_force_count(dims, periodic, cells, q)
            assert count_colorings(G, G.vertex_set(cells), q).count == want, (dims, cells, q)
            root = _free_root(G, cells, q)
            assert root in (None, want), (dims, cells, q)
            closed += root is not None
            searched += root is None
    assert closed >= 20 and searched >= 5, (closed, searched)


def test_free_ladders_close_at_the_root():
    # the 2 x L ladder has q (q-1) (q^2 - 3q + 3)^(L-1) proper colorings; it
    # is series-parallel, so the root closes it at any length, past the
    # recursion limit a search would hit
    for L in (1, 2, 3, 4, 7, 40, 2000):
        G = build_graph([2, L])
        cells = range(G.n)
        for q in range(2, 6):
            want = q * (q - 1) * (q * q - 3 * q + 3) ** (L - 1)
            assert _free_root(G, cells, q) == want, (L, q)


def test_thetas_and_flowers_close_at_the_root():
    G = build_graph([3, 5])
    H = build_graph([3, 3, 3])
    ladder = [G.vid(x) for x in itertools.product(range(2), range(3))]
    rim = [G.vid(x) for x in itertools.product(range(3), range(5)) if x[0] != 1 or x[1] in (0, 4)]
    flower = [G.vid(x) for x in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]]
    flower3 = [H.vid(x) for x in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0),
                                  (1, 1, 1), (1, 2, 0), (1, 2, 1)]]
    parts = [
        (G, ladder),                      # a theta: paths of 1, 3 and 3 edges
        (G, rim + [G.vid((1, 2))]),       # K_{2,3}-like: three paths of 2, 6 and 6
        (G, flower),                      # two 4-cycles sharing (1, 1)
        (H, flower3),                     # the same in two planes of 3-D
        (G, ladder + [G.vid((2, 1)), G.vid((2, 2))]),   # a theta and a 4-cycle on one edge
    ]
    for K, cells in parts:
        dims, periodic = K.dims, K.periodic
        # brute force enumerates q^cells assignments: at most 2 million
        for q in (q for q in range(2, 6) if q ** len(cells) <= 2_000_000):
            want = oracles.brute_force_count(dims, periodic, sorted(cells), q)
            assert _free_root(K, sorted(cells), q) == want, (cells, q)
            # one cell cut to two colors: the cells are no longer alike, so
            # the root leaves the part to the search
            masks = [(1 << q) - 1] * K.n
            masks[cells[-1]] = 0b11
            allowed = {v: {k + 1 for k in range(q) if masks[v] >> k & 1} for v in cells}
            if q > 2:
                assert _by_id_count(K, cells, masks, q, root_only=True) is None
            assert _by_id_count(K, cells, masks, q) == oracles.brute_force_count(
                dims, periodic, sorted(cells), q, allowed=allowed), (cells, q)


def test_parts_with_a_k4_minor_are_searched():
    # the 2 x 2 x 2 cube and the 3 x 3 grid leave no cell of two neighbors
    # after the reductions, so the root leaves them to the search
    for dims in ((2, 2, 2), (3, 3)):
        G = build_graph(dims)
        for q in (3, 4):
            assert _free_root(G, range(G.n), q) is None
            assert (count_colorings(G, G.full_set(), q, method="backtracking").count
                    == oracles.brute_force_count(dims, (False,) * len(dims), list(range(G.n)), q))


@st.composite
def _domains_and_masks(draw):
    """A lattice, 1-12 of its cells, q and nonempty masks for the cells.

    The masks come from a pool of one to three, so that neighbors often
    hold equal masks (alike rings, pendant cells covering their neighbor)
    and often do not.  Brute force enumerates the product of the mask
    sizes, which stays at most 20 000.
    """
    dims, periodic = draw(st.sampled_from([
        ((3, 3), (False, False)), ((3, 4), (False, False)), ((2, 6), (False, False)),
        ((2, 2, 3), (False,) * 3), ((3, 3, 2), (False,) * 3), ((4, 4), (True, True)),
        ((2, 4), (True, True)), ((2, 2, 2), (True,) * 3), ((4, 3), (True, False)),
        ((4,), (True,)), ((6,), (True,)), ((8,), (True,)), ((12,), (True,)),
    ]))
    n = math.prod(dims)
    cells = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 12))))
    q = draw(st.integers(2, 6))
    pool = draw(st.lists(st.integers(1, (1 << q) - 1), min_size=1, max_size=3))
    masks = [0] * n
    for v in cells:
        masks[v] = draw(st.sampled_from(pool))
    assume(math.prod(masks[v].bit_count() for v in cells) <= 20_000)
    return dims, periodic, cells, q, masks


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_domains_and_masks())
def test_root_reductions_match_brute_force(instance):
    # pendant cells that cover their neighbor or not, rings alike or not
    dims, periodic, cells, q, masks = instance
    G = build_graph(dims, periodic)
    allowed = {v: {c + 1 for c in range(q) if masks[v] >> c & 1} for v in cells}
    want = oracles.brute_force_count(dims, periodic, cells, q, allowed=allowed)
    assert _by_id_count(G, cells, masks, q) == want


def test_transfer_relabelled_profiles_fit_small_budget():
    # free q = 4: S_4 relabelling leaves at most 55 live profiles where the
    # raw colors need 1296, so a budget of 100 counts the box
    G = build_graph([8, 6])
    t = transfer_count(G, 4, state_budget=100)
    b = count_colorings(G, G.full_set(), 4, method="backtracking")
    assert t.count == b.count == 16505599723151312196
    with pytest.raises(ResourceLimitError):
        transfer_count(G, 4, state_budget=54)
    # a pin keeps color 1 apart until its neighbors are in; the profiles
    # are then relabelled under S_4 (122 live at most, 218 without that)
    pin = Constraint.pinned({0: 1})
    t = transfer_count(G, 4, pin, state_budget=150)
    b = count_colorings(G, G.full_set(), 4, pin, method="backtracking")
    assert t.count == b.count


def test_transfer_color_classes_match_counter():
    # Sym(A) x Sym(B) under a pattern boundary, contiguous or not in the
    # color order, and pins whose classes merge part way through the box
    q4 = Pattern.make(4, [1, 2], [3, 4])
    cases = [
        ((4, 4, 3), (False,) * 3, 4, Constraint.pattern_boundary(q4)),
        ((3, 4, 3), (False,) * 3, 4,
         Constraint.pattern_boundary(Pattern.make(4, [1, 3], [2, 4]))),
        ((5, 6), (False, False), 5,
         Constraint.pattern_boundary(Pattern.make(5, [2, 4], [1, 3, 5]))),
        ((4, 6), (True, False), 4, Constraint.pattern_boundary(q4)),
        ((7, 7), (False, False), 3, Constraint.pinned({24: 2})),
        ((6, 5), (False, False), 5, Constraint.pinned({3: 2, 17: 5, 20: 2})),
        ((4, 6), (True, False), 4, Constraint.pinned({9: 4, 10: 1})),
    ]
    for dims, periodic, q, c in cases:
        G = build_graph(dims, periodic)
        t = transfer_count(G, q, c)
        b = count_colorings(G, G.full_set(), q, c, method="backtracking")
        assert t.count == b.count > 0, (dims, q, c)


def test_transfer_tables_agree_with_the_counter_where_steps_recur():
    # every layer after the first repeats its slots' steps, so these counts
    # read successor tables; the counter runs at its default budget
    cases = [((length, w), (False, False), q, Constraint.free())
             for q in (3, 4, 5) for w in range(2, 7) for length in (w + 1, 11, 20)]
    q3 = Pattern.make(3, [1], [2, 3])
    G = build_graph([12, 5])
    middle = {G.vid((6, 1)): 1, G.vid((6, 3)): 2}   # two slots of layer 6 leave the shared steps
    cases += [
        ((12, 5), (False, False), 3, Constraint.pattern_boundary(q3)),
        ((9, 4), (False, False), 4,
         Constraint.pattern_boundary(Pattern.make(4, [1, 2], [3, 4]))),
        ((12, 5), (False, False), 3, Constraint.pinned(middle)),
        ((12, 5), (False, False), 4, Constraint.pinned({G.vid((5, 2)): 3})),
        ((16, 4), (False, True), 3, Constraint.free()),
        ((14, 4), (False, True), 4, Constraint.free()),
        ((14, 4), (False, True), 3, Constraint.pattern_boundary(q3)),
        ((16, 2), (False, True), 3, Constraint.free()),
        ((10, 4, 2), (False, True, True), 3, Constraint.free()),
        ((8, 2, 2), (False, True, True), 4, Constraint.free()),
    ]
    for dims, periodic, q, c in cases:
        G = build_graph(dims, periodic)
        t = transfer_count(G, q, c)
        b = count_colorings(G, G.full_set(), q, c, method="backtracking")
        assert t.count == b.count > 0, (dims, periodic, q, c)


def test_transfer_steps_share_moves_only_between_merges():
    # a pin in layer 2 keeps its color apart until layer 3; the steps of
    # the free layers on either side share moves, but only with their own side
    G = build_graph([12, 5])
    masks, _ = allowed_masks(G, G.full_set(), 3, Constraint.pinned({G.vid((2, 1)): 1}))
    plan = _TransferPlan(G, masks, 3)
    assert plan.merges
    side = {}
    for k, (*_, options) in enumerate(plan.steps):
        merged = sum(m <= k for m in plan.merges)
        assert side.setdefault(id(options), merged) == merged, k
    assert len(side) < len(plan.steps)


class _HeldRecords(dict):
    """A plan's ``records`` that remember the most keys (profiles and
    their successor keys) they held at once, noted before each change."""

    most = 0

    def note(self):
        self.most = max(self.most, sum(len(r) + sum(map(len, r.values())) for r in self.values()))

    def __setitem__(self, k, record):
        self.note()
        super().__setitem__(k, record)

    def pop(self, k, *default):
        self.note()
        return super().pop(k, *default)

    def clear(self):
        self.note()
        super().clear()


def test_transfer_records_share_the_state_budget():
    # a 20 x 6 strip at q = 3 has at most 24 live canonical profiles: the
    # records never move a refusal, and the keys they hold (profiles and
    # successors) plus that peak stay within the budget at every step
    G = build_graph([20, 6])
    want = count_colorings(G, G.full_set(), 3, method="backtracking").count
    assert transfer_count(G, 3, state_budget=24).count == want
    with pytest.raises(ResourceLimitError):
        transfer_count(G, 3, state_budget=23)
    masks, _ = allowed_masks(G, G.full_set(), 3, Constraint.free())
    for budget in (24, 30, 48, 100, 567):
        plan = _TransferPlan(G, masks, 3)
        plan.records = held = _HeldRecords()
        assert _transfer(plan, budget) == want and plan.replayed == []
        held.note()
        assert held.most + 24 <= budget, budget
    # given room, layers are recorded, and each record goes once the step
    # that repeats it has read it
    assert held.most and held == {}


def _replayed(G, q, c=None, state_budget=500_000):
    """The transfer count of the whole box and the layers it replayed."""
    masks, _ = allowed_masks(G, G.full_set(), q, c)
    plan = _TransferPlan(G, masks, q)
    return _transfer(plan, state_budget), plan.replayed


def test_transfer_replays_repeating_layers_exactly():
    # every box here replays some layers as gathers; a pattern's far face
    # ends its replay, and a pin's layers stop one that starts again past them
    q3, q4 = Pattern.make(3, [1], [2, 3]), Pattern.make(4, [1, 2], [3, 4])
    G5, G6 = build_graph([20, 5]), build_graph([20, 6])
    # strips wide enough to hold REPLAY_FROM live profiles
    cases = [((length, 6 if q == 3 else 5), (False, False), q, Constraint.free())
             for q in (3, 4, 5) for length in (11, 20)]
    cases += [
        ((20, 8), (False, False), 3, Constraint.pattern_boundary(q3)),
        ((16, 5), (False, False), 4, Constraint.pattern_boundary(q4)),
        ((20, 6), (False, False), 3, Constraint.pinned({G6.vid((8, 2)): 1})),
        ((20, 5), (False, False), 4, Constraint.pinned({G5.vid((9, 1)): 1, G5.vid((9, 3)): 2})),
        ((16, 8), (False, True), 3, Constraint.free()),
        ((10, 4, 2), (False, True, True), 3, Constraint.free()),
    ]
    for dims, periodic, q, c in cases:
        G = build_graph(dims, periodic)
        got, replayed = _replayed(G, q, c)
        b = count_colorings(G, G.full_set(), q, c, method="backtracking")
        assert got == b.count > 0, (dims, periodic, q, c)
        assert replayed, (dims, periodic, q, c)
        if c.pattern:
            assert replayed[-1] < dims[0] - 1
        if c.pins:
            runs = [b for a, b in zip([-2] + replayed, replayed) if b != a + 1]
            assert len(runs) == 2, replayed


def test_transfer_replay_stops_where_the_layers_stop_repeating():
    # masks no constraint makes, against the counter: column 0 alternates
    # {1, 2} and {1, 3} for ten layers and then keeps {1, 2} (column 4 keeps
    # {1, 3}, so no classes merge before the last layer), and a replay of
    # period 2 meets layer 11, which repeats the one before it; then column 4
    # alone holds {1, 2} for ten layers, whose classes merge at the end of
    # layer 9, which ends a replay of period 1
    G = build_graph([20, 5])
    alternate, merge = [7] * G.n, [7] * G.n
    for layer in range(20):
        alternate[G.vid((layer, 0))] = 3 if layer >= 10 or layer % 2 == 0 else 5
        alternate[G.vid((layer, 4))] = 5
        merge[G.vid((layer, 4))] = 3 if layer < 10 else 7
    for masks, repeats, stop in ((alternate, [0, 0, 0] + [2] * 8 + [1] * 8 + [0], 11),
                                 (merge, [0, 0] + [1] * 7 + [0, 0] + [1] * 9, 9)):
        plan = _TransferPlan(G, masks, 3)
        assert plan.repeats == repeats
        assert _transfer(plan, 500_000) == _count_backtrack(G, G.full_set(), masks, 3)
        assert stop - 1 in plan.replayed and stop not in plan.replayed, plan.replayed


def test_a_record_keeps_only_the_profiles_its_step_meets():
    # masks no constraint makes: the last cell of layer 1 allows {1, 3},
    # that of every other layer {1, 2}, so layer 3 meets fewer profiles
    # than layer 2, whose record it reads and takes over; a record still
    # holding the profiles layer 3 did not meet would never match its
    # cycle's start, and the replay from layer 4 would not start
    G = build_graph([16, 5])
    masks = [7, 7, 7, 7, 3] * 16   # the layer's last cell {1, 2}
    masks[9] = 5                    # and layer 1's {1, 3}
    plan = _TransferPlan(G, masks, 3)
    assert plan.repeats == [0, 0, 0] + [1] * 13
    assert _transfer(plan, 500_000) == _count_backtrack(G, G.full_set(), masks, 3)
    assert plan.replayed == list(range(4, 16))


def test_transfer_replays_no_slab_of_the_exact_workload():
    # perfbench's slabs have too few layers or profiles for a replay to pay
    ref = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                      / "reference.json").read_text())
    p0 = Pattern.make(3, ref["slab_pattern"]["A"], ref["slab_pattern"]["B"])
    for slab in ref["slabs"]:
        G = build_graph(slab["dims"])
        c = {"free": Constraint.free(), "pattern": Constraint.pattern_boundary(p0)}.get(
            slab["constraint"]) or Constraint.pinned({int(v): col for v, col in slab["pins"].items()})
        got, replayed = _replayed(G, 3, c)
        assert got == int(slab["count"]) and replayed == [], slab


def test_transfer_replay_shares_the_state_budget(monkeypatch):
    # a 20 x 6 strip at q = 3 peaks at 24 live profiles; the records of
    # its cycle are charged 544 states, and its replay maps take their
    # place, so replay engages from 24 + 544 = 568 states and never moves a
    # refusal
    G = build_graph([20, 6])
    want = count_colorings(G, G.full_set(), 3, method="backtracking").count
    built, build = [], exact._replay_maps

    def keep(*args):
        built.append(maps := build(*args))
        return maps

    monkeypatch.setattr(exact, "_replay_maps", keep)
    assert _replayed(G, 3, state_budget=24) == (want, [])
    with pytest.raises(ResourceLimitError):
        _replayed(G, 3, state_budget=23)
    assert _replayed(G, 3, state_budget=567) == (want, [])
    for budget in (568, 2000, 500_000):
        built.clear()
        masks, _ = allowed_masks(G, G.full_set(), 3, Constraint.free())
        plan = _TransferPlan(G, masks, 3)
        plan.records = held = _HeldRecords()
        assert _transfer(plan, budget) == want
        assert plan.replayed == list(range(2, 20)) and len(built) == 1
        held.note()
        maps = sum(len(order) + len(groups) for order, groups in built[0][0])
        assert held.most + 24 <= budget and maps <= held.most, budget
        assert held == {}   # the freeze released its cycle's records
    # at 200 states the records of a 16 x 8 tube's cycle cannot all fit:
    # the count goes on without replay
    T = build_graph([16, 8], [False, True])
    want = count_colorings(T, T.full_set(), 3, method="backtracking").count
    assert _replayed(T, 3, state_budget=200) == (want, [])
    # a q = 3 pattern box reads several layers' records before its cycle
    # comes round at layer 6, each taken over by the step that reads it or
    # released: the cycle's records fit from 3195 states, and below that
    # no cycle's do
    B = build_graph([30, 8])
    c = Constraint.pattern_boundary(Pattern.make(3, [1], [2, 3]))
    want = transfer_count(B, 3, c).count
    assert _replayed(B, 3, c, state_budget=3195) == (want, list(range(6, 29)))
    assert _replayed(B, 3, c, state_budget=3194) == (want, [])


def test_transfer_replay_starts_where_its_cycle_comes_round():
    # q = 3 pattern boxes whose layers read their records: the replay
    # starts once a layer's profiles are the ones the layer before started
    # from, and stops at the far face; the 12 x 12 box's live set still
    # grows when the far face comes, so it replays nothing
    c = Constraint.pattern_boundary(Pattern.make(3, [1], [2, 3]))
    for dims, layers in (((16, 12), range(8, 15)), ((40, 10), range(7, 39)),
                         ((30, 8), range(6, 29)), ((12, 12), ())):
        G = build_graph(dims)
        got, replayed = _replayed(G, 3, c)
        assert replayed == list(layers), dims
        assert got == count_colorings(G, G.full_set(), 3, c, method="backtracking").count, dims


def test_transfer_refusals_fall_at_the_live_peak():
    # the smallest state_budget that counts each box, its peak of live
    # canonical profiles: records and replay never move it
    q3, q4 = Pattern.make(3, [1], [2, 3]), Pattern.make(4, [1, 2], [3, 4])
    cases = [
        ((8, 12), (), 3, None, 96),
        ((7, 7), (), 4, None, 163),
        ((20, 5), (), 3, Constraint.pattern_boundary(q3), 10),
        ((16, 5), (), 4, Constraint.pattern_boundary(q4), 27),
        ((12, 12), (), 3, Constraint.pattern_boundary(q3), 1254),
        ((16, 6), (1,), 3, None, 24),
        ((10, 4, 2), (1, 2), 3, None, 43),
        ((16, 4, 4), (1, 2), 3, None, 1534),
    ]
    for dims, axes, q, c, least in cases:
        G = build_graph(dims, [a in axes for a in range(len(dims))])
        want = transfer_count(G, q, c).count
        assert transfer_count(G, q, c, state_budget=least).count == want, dims
        with pytest.raises(ResourceLimitError):
            transfer_count(G, q, c, state_budget=least - 1)


def test_transfer_layer_order_needs_no_coordinate_table():
    G = build_graph([40, 6])
    t = transfer_count(G, 3).count
    assert "coordinates" not in G.__dict__
    assert t == count_colorings(G, G.full_set(), 3, method="backtracking").count


def _shared_column_masks(rng, G, cells, q):
    """Nonempty per-cell masks under which some colors share columns.

    The colors are cut at random into groups; a cell takes each group
    whole or not at all, so the colors of one group have equal columns,
    and a group of one color has a column of its own.  Each group has its
    own rate, so some groups reach a few cells only.
    """
    colors = rng.permutation(q).tolist()
    cuts = sorted(set(rng.integers(1, q, size=int(rng.integers(0, q))).tolist()))
    groups = [sum(1 << c for c in colors[a:b]) for a, b in zip([0] + cuts, cuts + [q])]
    rates = rng.uniform(0.1, 0.9, size=len(groups)).tolist()
    masks = [0] * G.n
    for v in cells:
        m = sum(g for g, rate in zip(groups, rates) if rng.random() < rate)
        masks[v] = m or groups[int(rng.integers(0, len(groups)))]
    return masks


def test_counter_matches_brute_force_under_random_masks():
    # boxes, tori and length-2 periodic axes, q = 2..6, masks whose color
    # columns partly coincide: the counter branches once per color class
    graphs = [
        ((3, 4), (False, False)), ((4, 4), (True, True)), ((2, 5), (True, False)),
        ((2, 3, 3), (False,) * 3), ((2, 2, 4), (True, True, False)),
        ((4, 2, 2), (False, True, False)),
    ]
    most = {2: 14, 3: 10, 4: 8, 5: 7, 6: 7}   # cells, so that brute force stays small
    rng = make_rng(2027)
    for dims, periodic in graphs:
        G = build_graph(dims, periodic)
        for q in range(2, 7):
            for _ in range(2):
                size = min(G.n, most[q])
                cells = sorted(rng.choice(G.n, size=size, replace=False).tolist())
                masks = _shared_column_masks(rng, G, cells, q)
                allowed = {v: {c + 1 for c in range(q) if masks[v] >> c & 1} for v in cells}
                got = _by_id_count(G, cells, masks, q)
                want = oracles.brute_force_count(dims, periodic, cells, q, allowed=allowed)
                assert got == want, (dims, periodic, q, cells, masks)


def _per_color_marginal(G, domain, q, v, constraint):
    """exact_marginal's rule one color at a time: a pinned count per color."""
    if v not in domain:
        raise PreconditionError(f"vertex {v} is outside the domain")
    total = count_colorings(G, domain, q, constraint).count
    if total == 0:
        raise UndefinedMeasureError("no proper coloring satisfies the constraint")
    pins = dict(constraint.pins)
    if v in pins:   # a pinned v is a point mass
        return tuple(Fraction(c == pins[v]) for c in range(1, q + 1))
    probs = tuple(
        Fraction(count_colorings(G, domain, q, constraint.with_pin(v, c)).count, total)
        for c in range(1, q + 1)
    )
    if sum(probs) != 1:
        raise PreconditionError("marginal slices do not add up; inconsistent pins?")
    return probs


def test_marginal_matches_per_color_oracle():
    q4, q5 = Pattern.make(4, [1, 2], [3, 4]), Pattern.make(5, [1, 2], [3, 4, 5])
    # A = {1, 4}: at an even cell that is the only boundary cell, colors 1
    # and 4 are told apart from 2, 3, 5 at v alone
    q5_split = Pattern.make(5, [1, 4], [2, 3, 5])
    G33, G44, G36, T = (build_graph((3, 3)), build_graph((4, 4)), build_graph((3, 6)),
                        build_graph((4, 4), (True, True)))
    centre, corner = G33.vid((1, 1)), G33.vid((0, 0))
    sub = G44.vertex_set([5, 6, 9, 10, 13])
    cases = [
        # free
        (G33, G33.full_set(), 3, centre, Constraint.free()),
        (G36, G36.full_set(), 4, G36.vid((1, 2)), Constraint.free()),
        (T, T.full_set(), 3, 5, Constraint.free()),
        (G44, sub, 5, 6, Constraint.free()),
        # pattern boundary at q = 4 and q = 5, v inside and on the boundary
        (G33, G33.full_set(), 4, centre, Constraint.pattern_boundary(q4)),
        (G33, G33.full_set(), 4, corner, Constraint.pattern_boundary(q4)),
        (G44, G44.full_set(), 5, G44.vid((1, 2)), Constraint.pattern_boundary(q5)),
        (G44, sub, 5, 10, Constraint.pattern_boundary(q5_split)),
        (G44, sub, 4, 9, Constraint.pattern_boundary(q4)),
        # pins elsewhere: inside the domain, and outside it next to v
        (G33, G33.full_set(), 3, centre, Constraint.pinned({0: 1, 8: 2})),
        (G36, G36.full_set(), 4, 7, Constraint.pinned({1: 4, 8: 4, 17: 2})),
        (G44, sub, 4, 5, Constraint.pinned({1: 2, 4: 3, 13: 1})),
        (G33, G33.full_set(), 3, 1, Constraint.pinned({0: 1, 2: 2, 4: 3})),
        # a pin on v itself
        (G33, G33.full_set(), 3, centre, Constraint.pinned({centre: 2})),
        (G33, G33.full_set(), 3, 1, Constraint.pinned({1: 3, 0: 1, 2: 2, 4: 1})),
        (G33, G33.vertex_set([centre]), 5, centre,
         Constraint.pattern_boundary(q5_split).with_pin(centre, 1)),
        (G33, G33.vertex_set([centre]), 5, centre,
         Constraint.pattern_boundary(q5_split).with_pin(centre, 3)),
        (G33, G33.full_set(), 3, centre, Constraint.pinned({centre: 1, 1: 1})),
        # a pattern and pins together, built from the fields
        (G33, G33.full_set(), 4, centre, Constraint(pattern=q4, pins=((0, 1),))),
        (G33, G33.full_set(), 4, centre, Constraint(pattern=q4, pins=((0, 3), (centre, 1)))),
        (G33, G33.full_set(), 3, centre, Constraint.pinned({centre: 7})),
        # v outside the domain
        (G44, sub, 4, 0, Constraint.free()),
    ]
    outcomes = set()
    for G, domain, q, v, c in cases:
        try:
            want = _per_color_marginal(G, domain, q, v, c)
        except Exception as exc:
            outcomes.add(type(exc))
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                exact_marginal(G, domain, q, v, c)
            continue
        outcomes.add(None)
        assert exact_marginal(G, domain, q, v, c).probs == want, (G.dims, q, v, c)
    assert outcomes == {None, ConfigError, PreconditionError, UndefinedMeasureError}


def test_backtracking_cache_budget():
    G = build_graph([3, 3, 4])
    with pytest.raises(ResourceLimitError):
        count_colorings(G, G.full_set(), 3, method="backtracking",
                        state_budget=10)
    # a domain deeper than the interpreter's recursion limit is refused too
    T = build_graph([2, 600], [True, True])
    with pytest.raises(ResourceLimitError):
        count_colorings(T, T.full_set(), 3)


def test_a_search_leaves_no_reference_cycle():
    # the search's cache goes with its count, refused or not: nothing is
    # left for the garbage collector to find
    G = build_graph([3, 3, 3])
    want = transfer_count(G, 3).count
    gc.collect()
    gc.disable()
    try:
        assert count_colorings(G, G.full_set(), 3, method="backtracking").count == want
        with pytest.raises(ResourceLimitError):
            count_colorings(G, G.full_set(), 3, method="backtracking", state_budget=10)
        assert gc.collect() == 0
    finally:
        gc.enable()

def test_stars_count_in_closed_form():
    # a plus, one cell and its 2d neighbors, is a star: under a pattern
    # boundary its leaves keep one side each, so no root rule takes them
    # out, and the counter still needs no cache entry
    patterns = {3: Pattern.make(3, [1], [2, 3]), 4: Pattern.make(4, [1, 2], [3, 4])}
    for dims in ((3, 3), (5, 5), (3, 3, 3)):
        G = build_graph(dims)
        plus = closed_neighborhood(G, G.vertex_set([G.vid(tuple(x // 2 for x in dims))]))
        for q, P in patterns.items():
            c = Constraint.pattern_boundary(P)
            masks, _ = allowed_masks(G, plus, q, c)
            cells = sorted(plus.ids())
            allowed = {v: {k + 1 for k in range(q) if masks[v] >> k & 1} for v in cells}
            want = oracles.brute_force_count(dims, (False,) * len(dims), cells, q,
                                             allowed=allowed)
            got = count_colorings(G, plus, q, c, method="backtracking", state_budget=0)
            assert got.count == want > 0, (dims, q)


def test_a_count_that_needs_no_search_builds_no_axis_order():
    # the root rules read ascending ids: a peeled path, an alike ring and a
    # star take no cache entry, and the coordinate table that the search's
    # axis order reads is never built
    G = build_graph([300, 300])
    path = G.vertex_set(G.vid((5, j)) for j in range(6))
    ring = G.vertex_set(G.vid(x) for x in [(0, 0), (0, 1), (0, 2), (1, 2),
                                           (2, 2), (2, 1), (2, 0), (1, 0)])
    plus = closed_neighborhood(G, G.vertex_set([G.vid((150, 150))]))
    c = Constraint.pattern_boundary(Pattern.make(3, [1], [2, 3]))
    for q in (3, 4):
        assert count_colorings(G, path, q, method="backtracking",
                               state_budget=0).count == q * (q - 1) ** 5
        assert count_colorings(G, ring, q, method="backtracking",
                               state_budget=0).count == (q - 1) ** 8 + (q - 1)
    got = count_colorings(G, plus, 3, c, method="backtracking", state_budget=0).count
    assert "coordinates" not in G.__dict__
    # the same masks on the plus around the centre of 5 x 5, which has the
    # same parity, by brute force
    masks, _ = allowed_masks(G, plus, 3, c)
    allowed = {}
    for v in plus.ids():
        x, y = divmod(v, 300)
        allowed[(x - 148) * 5 + y - 148] = {k + 1 for k in range(3) if masks[v] >> k & 1}
    assert got == oracles.brute_force_count((5, 5), (False, False), sorted(allowed), 3,
                                            allowed=allowed) > 0


def _block_with_tails(G, rng, long, short, blocks):
    """Cells and masks: blocks of 3 cells along axis ``long`` and 2 along
    axis ``short`` (1 or 2 along any other axis), spaced along ``long``,
    each with a tail of 2 or more cells leaving it along ``short``.

    The tails take every color, so the root peels them, and the blocks left
    are longest along ``long``.  With one block the domain is longest along
    ``short``, so peeling changes the axis the search's order follows; two
    blocks leave two components to search.  The blocks take random masks
    from a pool of one to three.
    """
    q = int(rng.integers(2, 6))
    pool = [int(m) for m in rng.integers(1, 1 << q, size=int(rng.integers(1, 4)))]
    widths = [int(rng.integers(1, min(2, n) + 1)) for n in G.dims]
    widths[long], widths[short] = 3, 2
    cells, masks = [], [0] * G.n
    for b in range(blocks):
        corner = [0] * G.d
        corner[long] = 5 * b
        for offset in itertools.product(*map(range, widths)):
            v = G.vid(tuple(x + o for x, o in zip(corner, offset)))
            cells.append(v)
            masks[v] = pool[int(rng.integers(len(pool)))]
        corner[short] = 1
        corner[long] += int(rng.integers(3))
        # a tail that stops short of wrapping round to its block
        for _ in range(int(rng.integers(2, G.dims[short] - 2))):
            corner[short] += 1
            v = G.vid(tuple(corner))
            cells.append(v)
            masks[v] = (1 << q) - 1
    return sorted(cells), masks, q


def test_the_search_order_follows_the_cells_left_to_search():
    rng = make_rng(4401)
    # (dims, periodic, axis of the blocks' longest extent, axis of the
    # tails, blocks); length-2 periodic axes reach one cell both ways
    shapes = [((6, 3), (False, False), 1, 0, 1), ((3, 6), (False, False), 0, 1, 1),
              ((6, 4), (True, True), 1, 0, 1), ((6, 9), (False, False), 1, 0, 2),
              ((5, 3, 2), (False,) * 3, 1, 0, 1), ((2, 3, 6), (True, False, False), 1, 2, 1),
              ((6, 3, 2), (True, False, True), 1, 0, 1), ((2, 6, 3), (True, True, False), 2, 1, 1)]
    for dims, periodic, long, short, blocks in shapes:
        G = build_graph(dims, periodic)
        for _ in range(8):
            cells, masks, q = _block_with_tails(G, rng, long, short, blocks)
            if math.prod(masks[v].bit_count() for v in cells) > 300_000:
                continue
            allowed = {v: {k + 1 for k in range(q) if masks[v] >> k & 1} for v in cells}
            want = oracles.brute_force_count(dims, periodic, cells, q, allowed=allowed)
            assert _by_id_count(G, cells, masks, q) == want, (dims, cells)
    # peeling (1, 1) turns the longest axis from 0 to 1
    G = build_graph([4, 4])
    cells = [G.vid(x) for x in [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]]
    for q in range(2, 6):
        assert (count_colorings(G, G.vertex_set(cells), q).count
                == oracles.brute_force_count((4, 4), (False, False), cells, q))
        for _ in range(4):
            masks = [0] * G.n
            for v in cells:
                masks[v] = int(rng.integers(1, 1 << q))
            allowed = {v: {k + 1 for k in range(q) if masks[v] >> k & 1} for v in cells}
            assert _by_id_count(G, cells, masks, q) == (
                oracles.brute_force_count((4, 4), (False, False), cells, q, allowed=allowed))
    # whole boxes whose order is re-sorted, against the transfer engine
    for dims in ((2, 2, 3), (2, 3, 4), (3, 3, 4)):
        G = build_graph(dims)
        assert (count_colorings(G, G.full_set(), 3, method="backtracking").count
                == transfer_count(G, 3).count), dims
    # a 2 x 10 block with an 11-cell tail along axis 0: the search runs
    # along the block's axis 1 in 24 cache entries; in ascending ids, the
    # domain's own order, it takes 1143
    G = build_graph([14, 10])
    cells = [G.vid((r, c)) for r in range(2) for c in range(10)]
    cells += [G.vid((r, 0)) for r in range(2, 13)]
    got = count_colorings(G, G.vertex_set(cells), 3, method="backtracking", state_budget=100)
    assert got.count == transfer_count(build_graph([2, 10]), 3).count * 2 ** 11


def _idle_edge_masks(G, rng, kind, q):
    """Whole-box masks with many idle edges, whose two cells share no color.

    'cuts': each cell cut to one of two dominant patterns or left free;
    'pins': a pattern boundary plus three pins that leave a coloring;
    'pairs': every cell two random colors.  Returns the masks and their
    feasibility.
    """
    full = (1 << q) - 1
    if kind == "pairs":
        masks = []
        for _ in range(G.n):
            a, b = rng.choice(q, size=2, replace=False).tolist()
            masks.append(1 << a | 1 << b)
        return masks, True
    pats = enumerate_dominant(q)
    p0, p = (pats[i] for i in rng.choice(len(pats), size=2, replace=False))
    if kind == "cuts":
        side = rng.integers(0, 3, size=G.n).tolist()
        cut = [G.vertex_set(v for v in range(G.n) if side[v] == s) for s in (0, 1)]
        masks = _pattern_cut(G, [full] * G.n, cut[0], p, range(G.n))
        masks = _pattern_cut(G, masks, cut[1], p0, range(G.n))
        return masks, True
    feasible = False
    while not feasible:   # pins drawn until no two clash
        pins = {int(v): int(rng.integers(1, q + 1))
                for v in rng.choice(G.n, size=3, replace=False)}
        masks, feasible = allowed_masks(G, G.full_set(), q,
                                        Constraint(p0, tuple(sorted(pins.items()))))
    return masks, feasible


def test_idle_edges_leave_the_counter_and_every_count_stays_exact():
    # fixed-seed masks in d = 2 and 3 where many neighbors share no color:
    # the counter's layout links exactly the neighbors whose masks meet, and
    # the counter, the transfer engine and auto agree with each other, and
    # with enumeration on the small boxes, every count under a budget
    rng = make_rng(4601)
    graphs = [((3, 4), (False, False), True), ((2, 2, 3), (False,) * 3, True),
              ((4, 3), (True, False), True), ((6, 5), (False, False), False),
              ((3, 3, 3), (False,) * 3, False), ((4, 2, 4), (False, True, False), False)]
    edges = idle = 0
    for dims, periodic, small in graphs:
        G = build_graph(dims, periodic)
        cells = list(range(G.n))
        for kind in ("cuts", "pins", "pairs"):
            for q in (3, 4, 5):
                if kind == "pairs" and q == 3:
                    continue
                masks, feasible = _idle_edge_masks(G, rng, kind, q)
                nbr, _ = _layout(cells, G, masks, q)
                for v in cells:
                    near = set(G.neighbors[v])
                    assert nbr[v] == sum(1 << u for u in near if masks[u] & masks[v]), (dims, v)
                    edges += len(near)
                    idle += sum(not masks[u] & masks[v] for u in near)
                counts = {method: _count_masked(G, G.full_set(), q, masks, feasible, method,
                                                state_budget=20_000).count
                          for method in ("backtracking", "transfer", "auto")}
                assert len(set(counts.values())) == 1, (dims, kind, q, counts)
                if small:
                    enumerated = sum(1 for _ in enumerate_colorings(G, G.full_set(), masks))
                    assert counts["auto"] == enumerated, (dims, kind, q)
    assert idle > edges // 3, (idle, edges)


def test_auto_counts_a_box_with_the_counter_when_nothing_is_left_to_search(monkeypatch):
    # the 3x3x3 q=3 pattern box: the cut leaves the centre and its six
    # neighbors one star, so the counter's root rules finish it; the
    # 3x3x4 one keeps two linked interior cells to search and stays with
    # the transfer engine, and so do free boxes
    c = Constraint.pattern_boundary(Pattern.make(3, [1], [2, 3]))
    G = build_graph([3, 3, 3])
    auto = count_colorings(G, G.full_set(), 3, c)
    assert auto.method == "backtracking"
    assert auto.count == transfer_count(G, 3, c).count == 8192
    G = build_graph([3, 3, 4])
    assert count_colorings(G, G.full_set(), 3, c).method == "transfer"
    assert (count_colorings(G, G.full_set(), 3, c).count
            == count_colorings(G, G.full_set(), 3, c, "backtracking").count)
    # a box whose masks are all one value is never probed
    monkeypatch.setattr(exact, "_count_backtrack", None)
    for dims in ((3, 3, 3), (7, 7), (3, 3, 4)):
        G = build_graph(dims)
        got = count_colorings(G, G.full_set(), 3)
        assert got.method == "transfer" and got.count == transfer_count(G, 3).count


def _droplets(G, centre, k):
    """Every connected set of at most k cells holding ``centre``."""
    layer = {frozenset([centre])}
    out = list(layer)
    for _ in range(k - 1):
        layer = {s | {u} for s in layer for v in s for u in G.neighbors[v] if u not in s}
        out += layer
    return out


@pytest.mark.parametrize("dims, q, k", [
    ((7, 7), 4, 4), ((5, 5, 5), 3, 3), ((5, 5, 5), 4, 3), ((5, 5, 5), 5, 2),
    ((5, 5, 5, 5), 4, 2),
])
def test_droplet_ratios_never_exceed_the_bound(dims, q, k):
    # every connected droplet through the centre with at most k cells, in a
    # sea of the last dominant pattern, against every other dominant
    # pattern: no ratio lies above the sharp per-interface bound, and it
    # meets the bound exactly where expected_equality says it does
    G = build_graph(dims)
    *others, p0 = enumerate_dominant(q)
    verdicts = set()
    for drop in _droplets(G, G.vid(tuple(x // 2 for x in dims)), k):
        U = G.vertex_set(drop)
        for p in others:
            r = toy_ratio(G, G.full_set(), U, p0, p)
            assert r.verdict != "above", (dims, q, sorted(drop), p)
            assert (r.verdict == "equal") == r.expected_equality, (dims, q, sorted(drop), p)
            verdicts.add(r.verdict)
    assert verdicts == {"equal", "below"}


def test_marginal_four_cycle_uniform():
    G = build_graph([2, 2])
    m = exact_marginal(G, G.full_set(), 3, 0)
    assert m.probs == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_marginal_biased_center():
    G = build_graph([3, 3])
    p0 = Pattern.make(3, [1], [2, 3])
    m = exact_marginal(
        G, G.full_set(), 3, G.vid((1, 1)), Constraint.pattern_boundary(p0)
    )
    assert m.probs[0] == Fraction(8, 9)
    assert m.probs[0] > Fraction(1, 3)


def test_marginal_forced_by_pins():
    G = build_graph([3, 1])
    m = exact_marginal(
        G, G.full_set(), 3, 1, Constraint.pinned({0: 1, 2: 2})
    )
    assert m.probs == (0, 0, 1)


def test_marginal_undefined_on_empty_event():
    G = build_graph([2, 1])
    with pytest.raises(UndefinedMeasureError):
        exact_marginal(G, G.full_set(), 3, 0, Constraint.pinned({0: 1, 1: 1}))


def test_marginal_counts_only_what_symmetry_does_not_give(monkeypatch):
    # a free vertex with every color alike, or a pinned one, needs the
    # total count alone; otherwise each class of alike colors but the last
    # needs one count
    calls = []
    counter = exact._count_masked
    monkeypatch.setattr(exact, "_count_masked", lambda *a: calls.append(a) or counter(*a))
    G = build_graph([3, 3])
    assert exact_marginal(G, G.full_set(), 3, 4).probs == (Fraction(1, 3),) * 3
    assert len(calls) == 1
    calls.clear()
    P = build_graph([3, 1])
    assert exact_marginal(P, P.full_set(), 3, 1,
                          Constraint.pinned({0: 1, 1: 3, 2: 2})).probs == (0, 0, 1)
    assert len(calls) == 1
    calls.clear()
    assert exact_marginal(G, G.full_set(), 3, 4, Constraint.pinned({4: 1})).probs == (1, 0, 0)
    assert len(calls) == 1
    calls.clear()
    # A = {1} against B = {2, 3}: the centre's classes are {1} and {2, 3}
    F = build_graph([5, 5])
    p0 = Pattern.make(3, [1], [2, 3])
    m = exact_marginal(F, F.full_set(), 3, F.vid((2, 2)), Constraint.pattern_boundary(p0))
    assert len(calls) == 2
    assert m.probs[1] == m.probs[2] and sum(m.probs) == 1


def test_marginal_pin_consistency():
    # conditioning on a pin equals the renormalized two-site slice
    G = build_graph([2, 3])
    q = 3
    v, w, c = 0, G.n - 1, 2
    total = count_colorings(G, G.full_set(), q).count
    joint = {}
    for assign in enumerate_colorings(
        G, G.full_set(), allowed_masks(G, G.full_set(), q, Constraint.free())[0]
    ):
        joint[(assign[v], assign[w])] = joint.get((assign[v], assign[w]), 0) + 1
    cond = exact_marginal(G, G.full_set(), q, v, Constraint.pinned({w: c}))
    denom = sum(cnt for (a, b), cnt in joint.items() if b == c)
    for color in range(1, q + 1):
        slice_prob = Fraction(joint.get((color, c), 0), denom)
        assert cond.probs[color - 1] == slice_prob


def test_marginal_at_a_numpy_vertex_is_stored_as_an_int():
    # a vertex read off a numpy array is kept as the int it stands for, so
    # the record serializes; -1 is refused as before
    G = build_graph([3, 3])
    m = exact_marginal(G, G.full_set(), 3, np.int64(4))
    assert type(m.vertex) is int and m == exact_marginal(G, G.full_set(), 3, 4)
    assert json.loads(json.dumps(m.to_json()))["vertex"] == 4
    with pytest.raises(PreconditionError, match="vertex -1 is outside the domain"):
        exact_marginal(G, G.full_set(), 3, np.int64(-1))


def test_tv_distance_basics():
    assert tv_distance({"a": 1}, {"a": 1}) == 0
    assert tv_distance({"a": 1}, {"b": 1}) == 1
    assert tv_distance({"a": Fraction(1, 2), "b": Fraction(1, 2)},
                       {"a": 1}) == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        tv_distance({"a": 1}, {"b": 1}, universe=["a"])


def test_tv_distance_shrinks_with_domain():
    # center marginal under the pattern boundary settles as boxes grow
    p0 = Pattern.make(3, [1], [2, 3])
    margins = []
    for n in (3, 5, 7):
        G = build_graph([n, n])
        m = exact_marginal(
            G, G.full_set(), 3, G.vid((n // 2, n // 2)),
            Constraint.pattern_boundary(p0),
        )
        margins.append({c + 1: m.probs[c] for c in range(3)})
    d1 = tv_distance(margins[0], margins[1])
    d2 = tv_distance(margins[1], margins[2])
    assert 0 < d2 < d1 < 1


def test_toy_ratio_empty_droplet():
    G = build_graph([5, 5])
    p0 = Pattern.make(4, [1, 2], [3, 4])
    p = Pattern.make(4, [1, 3], [2, 4])
    r = toy_ratio(G, G.full_set(), G.empty_set(), p0, p)
    assert r.ratio == 1 and r.verdict == "equal"


def test_toy_ratio_even_q_sharp():
    G = build_graph([5, 5])
    p0 = Pattern.make(4, [1, 2], [3, 4])
    p = Pattern.make(4, [1, 3], [2, 4])  # |A0 symmetric-difference A| = 2
    U = G.vertex_set([G.vid((2, 2))])
    r = toy_ratio(G, G.full_set(), U, p0, p)
    assert r.ratio == Fraction(1, 2) ** 5
    assert r.verdict == "equal" and r.expected_equality


def test_toy_ratio_even_q_strict():
    G = build_graph([5, 5])
    p0 = Pattern.make(4, [1, 2], [3, 4])
    p_far = Pattern.make(4, [3, 4], [1, 2])
    U = G.vertex_set([G.vid((2, 2))])
    r = toy_ratio(G, G.full_set(), U, p0, p_far)
    assert r.verdict == "below" and not r.expected_equality
    assert r.ratio < Fraction(1, 2) ** 5


def test_toy_ratio_odd_q_sharp():
    G = build_graph([5, 5])
    p0 = Pattern.make(5, [1, 2], [3, 4, 5])
    p = Pattern.make(5, [1, 2, 3], [4, 5])  # A0 inside A, odd droplet
    U = closed_neighborhood(G, G.vertex_set([G.vid((2, 2))]))
    r = toy_ratio(G, G.full_set(), U, p0, p)
    assert r.bound_exponent == 3  # 12 boundary edges over 2d = 4
    assert r.ratio == Fraction(2, 3) ** 3
    assert r.verdict == "equal" and r.expected_equality


def test_toy_ratio_preconditions():
    # patterns of two q, a non-dominant pattern, and a droplet whose U^+
    # leaves the domain are each refused
    G = build_graph([5, 5])
    p0 = Pattern.make(4, [1, 2], [3, 4])
    U = G.vertex_set([G.vid((2, 2))])
    inner = G.vertex_set(v for v in range(G.n) if 0 < min(G.coords(v)) and max(G.coords(v)) < 4)
    for domain, U, p, message in (
            (G.full_set(), U, Pattern.make(5, [1, 2], [3, 4, 5]), "patterns use different color counts"),
            (G.full_set(), U, Pattern.make(4, [1], [2]), "both patterns must be dominant"),
            (inner, G.vertex_set([G.vid((1, 1))]), Pattern.make(4, [1, 3], [2, 4]),
             "U^+ must be inside the domain")):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            toy_ratio(G, domain, U, p0, p)


def test_toy_ratio_counts_against_enumeration():
    # cross-check n(U) and n(empty) against plain recursion over the domain:
    # a full box; a proper subdomain with U^+ inside it, whose sea's
    # neighborhood reaches past the domain; a box with one periodic axis;
    # q = 5 with a class-1 droplet pattern (the q = 3 droplets are class 1
    # too: a class-0 one shares no color with the sea at U's cell)
    cases = [
        ((3, 3), None, None, 4, ([1, 2], [3, 4]), ([1, 3], [2, 4]), (1, 1)),
        ((4, 4), None, [(x, y) for x in range(4) for y in range(4) if x < 3 or y == 0],
         3, ([1], [2, 3]), ([1, 3], [2]), (1, 2)),
        ((4, 3), (True, False), None, 3, ([1], [2, 3]), ([1, 2], [3]), (0, 1)),
        ((2, 3), None, None, 5, ([1, 2], [3, 4, 5]), ([1, 2, 3], [4, 5]), (0, 1)),
    ]
    for dims, periodic, cells, q, sides0, sides, u in cases:
        periodic = periodic or (False,) * len(dims)
        G = build_graph(dims, periodic)
        domain = G.full_set() if cells is None else G.vertex_set(G.vid(c) for c in cells)
        p0, p = Pattern.make(q, *sides0), Pattern.make(q, *sides)
        U = G.vertex_set([G.vid(u)])
        r = toy_ratio(G, domain, U, p0, p)

        def fits(assign, P, cells):
            return all(assign[v] in (P.a if G.parity[v] == 0 else P.b) for v in cells)

        u_plus = set(closed_neighborhood(G, U).ids())
        sea_plus = set((closed_neighborhood(G, domain - U) & domain).ids())
        n_u = n_empty = 0
        for assign in oracles.enumerate_proper(dims, periodic, list(domain.ids()), q):
            n_u += fits(assign, p, u_plus) and fits(assign, p0, sea_plus)
            n_empty += fits(assign, p0, domain.ids())
        assert (r.n_u, r.n_empty) == (n_u, n_empty), dims
        assert n_u > 0 and n_empty > 0 and r.ratio == Fraction(n_u, n_empty)


def test_htop_torus_example_and_bound():
    points = htop_estimate(3, [(2, 2)])
    assert points[0].count == 18
    assert abs(points[0].log_per_site - math.log(18) / 4) < 1e-12
    pts = htop_estimate(4, [(2, 2), (2, 4)])
    bound = 0.5 * math.log(4)
    for pt in pts:
        assert pt.lower_bound == pytest.approx(bound)
        assert pt.log_per_site >= bound - 1e-12


def test_htop_refuses_an_odd_torus_side():
    with pytest.raises(ConfigError, match="periodic axis 0 has odd length 3"):
        htop_estimate(3, [(3, 4)])


def test_counts_are_reported_as_strings_in_json():
    G = build_graph([2, 2])
    res = count_colorings(G, G.full_set(), 3)
    doc = res.to_json({"graph": G.key()})
    assert doc["count"] == "18"
    assert doc["instance"]["graph"] == "dims=2,2;periodic=0,0"


# -- the counter's closed-form leaves ------------------------------------------

LEAF_GRAPHS = [((3, 3), None), ((2, 2, 2), None), ((2, 4), None), ((4, 4), None),
               ((2, 4), (True, False)), ((4, 2, 2), (False, True, True))]


def _enumerated(G, cells, masks):
    return len(list(enumerate_colorings(G, G.vertex_set(cells), masks)))


def test_counter_matches_enumeration_on_small_random_domains():
    # 1-6 cells, connected or not, with random nonempty masks at q = 2..5:
    # every component reaches a single-cell, edge or three-cell leaf
    rng = make_rng(3203)
    seen_zero = False
    for dims, periodic in LEAF_GRAPHS:
        G = build_graph(dims, periodic)
        for q in range(2, 6):
            for _ in range(12):
                size = int(rng.integers(1, 7))
                cells = rng.choice(G.n, size=size, replace=False).tolist()
                masks = [0] * G.n
                for v in cells:
                    masks[v] = int(rng.integers(1, 1 << q))
                got = _by_id_count(G, cells, masks, q)
                want = _enumerated(G, cells, masks)
                assert got == want, (dims, periodic, q, cells, masks)
                seen_zero |= want == 0
    assert seen_zero


def test_counter_matches_enumeration_under_constraints():
    # free, pinned and pattern-bounded counts through count_colorings
    rng = make_rng(3204)
    for dims, periodic in LEAF_GRAPHS:
        G = build_graph(dims, periodic)
        for q in range(3, 6):
            P = Pattern.make(q, range(1, q // 2 + 1), range(q // 2 + 1, q + 1))
            for _ in range(6):
                cells = rng.choice(G.n, size=int(rng.integers(1, 7)), replace=False).tolist()
                domain = G.vertex_set(cells)
                pin = int(rng.integers(0, G.n))
                for constraint in (Constraint.free(), Constraint.pattern_boundary(P),
                                   Constraint.pinned({pin: int(rng.integers(1, q + 1))})):
                    masks, feasible = allowed_masks(G, domain, q, constraint)
                    want = _enumerated(G, cells, masks) if feasible else 0
                    got = count_colorings(G, domain, q, constraint, method="backtracking")
                    assert got.count == want, (dims, periodic, q, cells, constraint)


def test_three_cell_paths_with_the_middle_anywhere_in_the_order():
    # every connected three-cell set of the lattice is a path; its middle
    # cell may come first, second or last in ascending ids, the order the
    # star rule reads
    rng = make_rng(3205)
    places = set()
    for dims, periodic in LEAF_GRAPHS:
        G = build_graph(dims, periodic)
        paths = {tuple(sorted((a, mid, b))): mid
                 for mid in range(G.n) for a in G.neighbors[mid] for b in G.neighbors[mid]
                 if a < b}
        for cells, mid in paths.items():
            places.add(cells.index(mid))
            for q in range(2, 6):
                free = [(1 << q) - 1] * G.n
                assert (count_colorings(G, G.vertex_set(cells), q, method="backtracking").count
                        == _enumerated(G, cells, free))
                masks = [0] * G.n
                for v in cells:
                    masks[v] = int(rng.integers(1, 1 << q))
                assert _by_id_count(G, cells, masks, q) == _enumerated(
                    G, cells, masks), (dims, periodic, cells, masks)
    assert places == {0, 1, 2}


def test_counter_masks_that_leave_no_coloring():
    # nonempty masks whose only colorings would repeat a color along an edge,
    # at the edge, three-cell and cached four-cell sizes
    G = build_graph((2, 4))
    row = [G.vid((0, j)) for j in range(4)]
    one, two, both = 0b01, 0b10, 0b11
    cases = [
        {row[0]: one, row[1]: one},
        {row[0]: one, row[1]: one, row[2]: both},
        {row[0]: both, row[1]: one, row[2]: one},
        {row[0]: one, row[1]: both, row[2]: two},
        {row[0]: one, row[1]: both, row[2]: both, row[3]: one},
        {v: both for v in range(G.n)} | {row[0]: one, G.vid((1, 0)): one},
    ]
    for chosen in cases:
        masks = [0] * G.n
        for v, m in chosen.items():
            masks[v] = m
        cells = sorted(chosen)
        assert _enumerated(G, cells, masks) == 0
        assert _by_id_count(G, cells, masks, 2) == 0, chosen


def _reachable(functions, root):
    """The module functions and classes a function's or class's body names,
    transitively, itself included (a class's body holds its methods)."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(node.id for node in ast.walk(functions[name])
                    if isinstance(node, ast.Name) and node.id in functions)
    return seen


def test_the_two_engines_share_no_function():
    # the digit-for-digit agreement tests compare two independent engines
    # only while no exact.py function or class is reachable from both; the
    # fold reaches its plan's class (and so its methods) by its annotation
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "chroma" / "exact.py")
                     .read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    counter = _reachable(functions, "_count_backtrack")
    transfer = _reachable(functions, "_transfer")
    assert {"_relabel", "_TransferPlan"} <= transfer
    assert counter & transfer == set()
