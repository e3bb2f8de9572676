import ast
import math
import re
from fractions import Fraction
from pathlib import Path

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
from chroma.patterns import Pattern
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
    assert _count_backtrack(G, G.vertex_set(cells), masks, q) == want


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
                got = _count_backtrack(G, G.vertex_set(cells), masks, q)
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
    # total count alone
    calls = []
    counter = exact.count_colorings
    monkeypatch.setattr(exact, "count_colorings", lambda *a: calls.append(a) or counter(*a))
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


def _static_order(G, cells):
    """The counter's cell order: axes by span, longest slowest, ties in axis order."""
    spans = [max(col) - min(col) for col in zip(*(G.coords(v) for v in cells))]
    axes = sorted(range(G.d), key=lambda a: -spans[a])
    return sorted(cells, key=lambda v: [G.coords(v)[a] for a in axes])


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
                got = _count_backtrack(G, G.vertex_set(cells), masks, q)
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
    # cell may come first, second or last in the counter's static order
    rng = make_rng(3205)
    places = set()
    for dims, periodic in LEAF_GRAPHS:
        G = build_graph(dims, periodic)
        paths = {tuple(sorted((a, mid, b))): mid
                 for mid in range(G.n) for a in G.neighbors[mid] for b in G.neighbors[mid]
                 if a < b}
        for cells, mid in paths.items():
            places.add(_static_order(G, list(cells)).index(mid))
            for q in range(2, 6):
                free = [(1 << q) - 1] * G.n
                assert (count_colorings(G, G.vertex_set(cells), q, method="backtracking").count
                        == _enumerated(G, cells, free))
                masks = [0] * G.n
                for v in cells:
                    masks[v] = int(rng.integers(1, 1 << q))
                assert _count_backtrack(G, G.vertex_set(cells), masks, q) == _enumerated(
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
        assert _count_backtrack(G, G.vertex_set(cells), masks, 2) == 0, chosen


def _reachable(functions, root):
    """The module functions a function's body names, transitively, itself included."""
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
    # only while no exact.py function is reachable from both
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "chroma" / "exact.py")
                     .read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    counter = _reachable(functions, "_count_backtrack")
    transfer = _reachable(functions, "_transfer")
    assert "_relabel" in transfer
    assert counter & transfer == set()
