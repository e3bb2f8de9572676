import hashlib
import json

import numpy as np
import pytest

from chroma.coloring import (
    BoundaryCondition,
    Coloring,
    HOLE,
    check_boundary,
    coloring_from_text,
    coloring_to_text,
    extend_outside,
    filling_count,
    is_proper,
    plan_repair,
    pure_pattern_sample,
    repair_inverse,
    repair_transform,
    striped_pattern_coloring,
)
from chroma.errors import ConfigError, PreconditionError
from chroma.lattice import build_graph
from chroma.patterns import Pattern


def chessboard(G, q=2):
    return Coloring([1 if G.parity[v] == 0 else 2 for v in range(G.n)], q)


def test_is_proper_cases():
    G = build_graph([4, 4])
    assert is_proper(chessboard(G), G)
    assert not is_proper(Coloring([1] * G.n, 3), G)
    P = Pattern.make(5, [1, 2], [3, 4, 5])
    f = pure_pattern_sample(G, G.full_set(), P, seed=1)
    assert is_proper(f, G)


def test_is_proper_skips_holes():
    G = build_graph([3, 3])
    f = Coloring([HOLE] * G.n, 3)
    f.values[0] = 1
    assert is_proper(f, G)


def test_pure_sample_deterministic_and_sides():
    G = build_graph([4, 4])
    P = Pattern.make(5, [1, 2], [3, 4, 5])
    f1 = pure_pattern_sample(G, G.full_set(), P, seed=123)
    f2 = pure_pattern_sample(G, G.full_set(), P, seed=123)
    assert f1 == f2
    for v in range(G.n):
        side = P.a if G.parity[v] == 0 else P.b
        assert f1.values[v] in side
    assert pure_pattern_sample(G, G.full_set(), P, seed=9) != f1


def test_pure_sample_pinned():
    # fixed outputs for fixed seeds: |A| = 1, 2, 3, full and partial U,
    # boxes, a length-1 axis and mixed periodic graphs
    cases = [((6, 6), None, 3, "A=1;B=2,3"),
             ((5, 4, 3), (False, True, False), 5, "A=1,2;B=3,4,5"),
             ((4, 6), (True, True), 6, "A=1,2,3;B=4,5,6"),
             ((1, 7), None, 4, "A=1,2,3;B=4"),
             ((2, 6, 3), (True, False, False), 4, "A=1,2;B=3,4")]
    out = []
    for dims, periodic, q, text in cases:
        G = build_graph(dims, periodic)
        P = Pattern.parse(q, text)
        partial = G.vertex_set(v for v in range(G.n) if v % 3 != 1)
        for U in (G.full_set(), partial):
            for seed in (0, 5, 1 << 40):
                out.append(pure_pattern_sample(G, U, P, seed).values.tolist())
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "b0f62e84039a1b08bf7ce83626bbfddc099aa7a9ffa9840d130c3a0110dddf97")


def test_pure_sample_support_size():
    # on a balanced 4-cell region the support is (|A| |B|)^{|U|/2}
    G = build_graph([4, 4])
    P = Pattern.make(4, [1, 2], [3, 4])
    U = G.vertex_set([G.vid((1, 1)), G.vid((1, 2)), G.vid((2, 1)), G.vid((2, 2))])
    seen = set()
    for seed in range(600):
        f = pure_pattern_sample(G, U, P, seed)
        seen.add(tuple(f.values[v] for v in U))
    assert len(seen) == (2 * 2) ** (len(U) // 2)


def test_pure_sample_empty_side_error():
    G = build_graph([3, 3])
    with pytest.raises(ConfigError):
        pure_pattern_sample(G, G.full_set(), Pattern.make(3, [1], []), seed=0)


def test_check_boundary_and_flip():
    G = build_graph([5, 5])
    p0 = Pattern.make(3, [1], [2, 3])
    domain = G.vertex_set([v for v in range(G.n)
                           if all(1 <= c <= 3 for c in G.coords(v))])
    bc = BoundaryCondition(domain, p0)
    f = striped_pattern_coloring(G, p0)
    assert check_boundary(f, bc, G)
    boundary = bc.boundary_vertices(G)
    v = boundary.min_id()
    g = f.copy()
    g.values[v] = 2 if G.parity[v] == 0 else 1
    assert not check_boundary(g, bc, G)
    # interior-only change leaves the boundary check alone
    interior = (domain - boundary).min_id()
    h = f.copy()
    h.values[interior] = 3 if G.parity[interior] == 1 else 1
    assert check_boundary(h, bc, G)


def test_boundary_condition_requires_class0():
    G = build_graph([4, 4])
    with pytest.raises(ConfigError):
        BoundaryCondition(G.full_set(), Pattern.make(5, [1, 2, 3], [4, 5]))


def test_extend_outside_identity_and_properness():
    G = build_graph([6, 6])
    p0 = Pattern.make(3, [1], [2, 3])
    domain = G.vertex_set([v for v in range(G.n)
                           if all(1 <= c <= 4 for c in G.coords(v))])
    bc = BoundaryCondition(domain, p0)
    base = striped_pattern_coloring(G, p0)
    full_domain_bc = BoundaryCondition(G.full_set(), p0)
    out = extend_outside(base, full_domain_bc, G, seed=1)
    assert out == base  # nothing outside the full domain

    for seed in range(200):
        f = base.copy()
        out = extend_outside(f, bc, G, seed=seed)
        assert is_proper(out, G)
        for v in domain:
            assert out.values[v] == f.values[v]


def test_extend_outside_single_color_side_deterministic():
    G = build_graph([4, 4])
    p0 = Pattern.make(3, [1], [2, 3])
    domain = G.vertex_set([G.vid((1, 1)), G.vid((1, 2)), G.vid((2, 1)), G.vid((2, 2))])
    bc = BoundaryCondition(domain, p0)
    f = striped_pattern_coloring(G, p0)
    out = extend_outside(f, bc, G, seed=77)
    for v in bc.domain.complement():
        if G.parity[v] == 0:
            assert out.values[v] == 1


# -- repair transformation -----------------------------------------------------


def _center_block_instance(q=4):
    G = build_graph([4, 4])
    p0 = Pattern.make(q, [1, 2], [3, 4])
    p = Pattern.make(q, [1, 3], [2, 4])
    S = G.vertex_set([G.vid((i, j)) for i in (1, 2) for j in (1, 2)])
    parts = {p: S.complement()}
    return G, p0, p, S, parts


def test_repair_pure_relabel():
    # empty S with one part covering everything acts as a recoloring
    G = build_graph([4, 4])
    q = 4
    p0 = Pattern.make(q, [1, 2], [3, 4])
    p = Pattern.make(q, [1, 3], [2, 4])
    f = striped_pattern_coloring(G, p)
    S = G.empty_set()
    g = repair_transform(f, S, {p: G.full_set()}, {}, G, p0)
    from chroma.patterns import canonical_permutation

    perm = canonical_permutation(p, p0)
    assert g.values.tolist() == [perm[c] for c in f.values]


def test_repair_filling_count_formula():
    G, p0, p, S, parts = _center_block_instance()
    plan = plan_repair(G, S, parts)
    n_even = len(plan.s_star & G.even)
    n_odd = len(plan.s_star) - n_even
    assert filling_count(G, plan, 4) == 2 ** n_even * 2 ** n_odd == 4096


def test_repair_outputs_proper_and_roundtrip():
    G, p0, p, S, parts = _center_block_instance()
    plan = plan_repair(G, S, parts)
    star = sorted(plan.s_star.ids())
    corners = sorted((S.complement() - (plan.s_star)).ids())
    f = Coloring([HOLE] * G.n, 4)
    for v in corners:
        side = p.a if G.parity[v] == 0 else p.b
        f.values[v] = side[0]
    h = {v: (p0.a if G.parity[v] == 0 else p0.b)[v % 2] for v in star}
    g = repair_transform(f, S, parts, h, G, p0)
    assert is_proper(g, G)
    f_back, h_back = repair_inverse(g, S, parts, G, p0)
    assert h_back == h
    for v in corners:
        assert f_back.values[v] == f.values[v]


def test_repair_rejects_bad_filling():
    G, p0, p, S, parts = _center_block_instance()
    plan = plan_repair(G, S, parts)
    star = sorted(plan.s_star.ids())
    f = Coloring([HOLE] * G.n, 4)
    for v in (S.complement() - plan.s_star):
        side = p.a if G.parity[v] == 0 else p.b
        f.values[v] = side[0]
    h = {v: (p0.a if G.parity[v] == 0 else p0.b)[0] for v in star}
    bad = dict(h)
    v0 = star[0]
    wrong_side = p0.b if G.parity[v0] == 0 else p0.a
    bad[v0] = wrong_side[0]
    with pytest.raises(PreconditionError):
        repair_transform(f, S, parts, bad, G, p0)


def test_repair_rejects_out_of_pattern_part_boundary():
    G, p0, p, S, parts = _center_block_instance()
    plan = plan_repair(G, S, parts)
    star = sorted(plan.s_star.ids())
    f = Coloring([HOLE] * G.n, 4)
    corners = sorted((S.complement() - plan.s_star).ids())
    for v in corners:
        side = p.b if G.parity[v] == 0 else p.a  # deliberately the wrong side
        f.values[v] = side[0]
    h = {v: (p0.a if G.parity[v] == 0 else p0.b)[0] for v in star}
    with pytest.raises(PreconditionError):
        repair_transform(f, S, parts, h, G, p0)


def test_repair_shift_overflow_reported():
    G = build_graph([6, 6])
    q = 5
    p1 = Pattern.make(q, [3, 4, 5], [1, 2])
    p2 = Pattern.make(q, [1, 3], [2, 4, 5])
    S = G.vertex_set([G.vid((i, j)) for i in (2, 3) for j in range(6)])
    top = G.vertex_set([G.vid((i, j)) for i in (0, 1) for j in range(6)])
    bot = G.vertex_set([G.vid((i, j)) for i in (4, 5) for j in range(6)])
    with pytest.raises(PreconditionError):
        plan_repair(G, S, {p1: top, p2: bot}, shift_axis=0, shift_dir=1)
    plan_repair(G, S, {p1: top, p2: bot}, shift_axis=0, shift_dir=-1)


def test_repair_class1_shift_roundtrip():
    G = build_graph([6, 6])
    q = 5
    p0 = Pattern.make(q, [1, 2], [3, 4, 5])
    p1 = Pattern.make(q, [3, 4, 5], [1, 2])
    p2 = Pattern.make(q, [1, 3], [2, 4, 5])
    S = G.vertex_set([G.vid((i, j)) for i in (2, 3) for j in range(6)])
    parts = {
        p1: G.vertex_set([G.vid((i, j)) for i in (0, 1) for j in range(6)]),
        p2: G.vertex_set([G.vid((i, j)) for i in (4, 5) for j in range(6)]),
    }
    plan = plan_repair(G, S, parts, 0, -1)
    f = Coloring([HOLE] * G.n, q)
    for P, region in plan.regions:
        for v in region:
            side = P.a if G.parity[v] == 0 else P.b
            f.values[v] = side[sum(G.coords(v)) % len(side)]
    for seed in range(20):
        from chroma.rng import make_rng

        rng = make_rng(seed)
        h = {}
        for v in plan.s_star:
            side = p0.a if G.parity[v] == 0 else p0.b
            h[v] = side[int(rng.integers(0, len(side)))]
        g = repair_transform(f, S, parts, h, G, p0, 0, -1)
        assert is_proper(g, G)
        f_back, h_back = repair_inverse(g, S, parts, G, p0, 0, -1)
        assert h_back == h
        for P, region in plan.regions:
            for v in region:
                assert f_back.values[v] == f.values[v]


def test_repair_plan_memo_matches_fresh_graph():
    # the plan is kept on the graph: every call on a reused graph equals the
    # same call on a freshly built one, and a bad geometry raises each time
    from chroma.rng import make_rng

    q = 5
    p0 = Pattern.make(q, [1, 2], [3, 4, 5])
    p1 = Pattern.make(q, [3, 4, 5], [1, 2])
    p2 = Pattern.make(q, [1, 3], [2, 4, 5])
    G = build_graph([6, 6])
    S = G.vertex_set([G.vid((i, j)) for i in (2, 3) for j in range(6)])
    top = G.vertex_set([G.vid((i, j)) for i in (0, 1) for j in range(6)])
    bot = G.vertex_set([G.vid((i, j)) for i in (4, 5) for j in range(6)])
    rng = make_rng(4)
    for parts, shift in (({p1: top, p2: bot}, -1), ({p2: top, p1: bot}, 1)) * 2:
        fresh = build_graph([6, 6])
        plan = plan_repair(G, S, parts, 0, shift)
        assert plan == plan_repair(fresh, S, parts, 0, shift)
        f = Coloring([HOLE] * G.n, q)
        for P, region in plan.regions:
            for v in region:
                side = P.a if G.parity[v] == 0 else P.b
                f.values[v] = side[int(rng.integers(0, len(side)))]
        h = {v: (p0.a if G.parity[v] == 0 else p0.b)[0] for v in plan.s_star}
        g = repair_transform(f, S, parts, h, G, p0, 0, shift)
        assert g == repair_transform(f, S, parts, h, fresh, p0, 0, shift)
        assert repair_inverse(g, S, parts, G, p0, 0, shift) == repair_inverse(
            g, S, parts, fresh, p0, 0, shift)
    for _ in range(3):
        with pytest.raises(PreconditionError):
            plan_repair(G, S, {p1: top, p2: bot}, shift_axis=0, shift_dir=1)
        with pytest.raises(PreconditionError):
            repair_inverse(g, S, {p1: top, p2: bot}, G, p0, 0, 1)
        with pytest.raises(PreconditionError):
            plan_repair(G, S, {p1: top}, 0, -1)


def _class1_families(q=5):
    """The 6x6 q=5 two-part families, class-1 part on top and below."""
    G = build_graph([6, 6])
    p0 = Pattern.make(q, [1, 2], [3, 4, 5])
    p1 = Pattern.make(q, [3, 4, 5], [1, 2])
    p2 = Pattern.make(q, [1, 3], [2, 4, 5])
    S = G.vertex_set([G.vid((i, j)) for i in (2, 3) for j in range(6)])
    top = G.vertex_set([G.vid((i, j)) for i in (0, 1) for j in range(6)])
    bot = G.vertex_set([G.vid((i, j)) for i in (4, 5) for j in range(6)])
    return G, p0, S, (({p1: top, p2: bot}, -1), ({p2: top, p1: bot}, 1))


def test_repair_outputs_pinned():
    # digest of forward and inverse outputs (values, dtype bytes and the
    # filling's Python ints) over a seeded sample of criterion 8's family
    # and over both class-1 shift directions
    from chroma.rng import make_rng

    digest = hashlib.sha256()

    def record(g, back, h_back):
        digest.update(g.values.tobytes())
        digest.update(back.values.tobytes())
        digest.update(repr(list(h_back.items())).encode())

    G, p0, p, S, parts = _center_block_instance()
    plan = plan_repair(G, S, parts)
    rng = make_rng(8)
    for _ in range(64):
        f = Coloring([HOLE] * G.n, 4)
        for v in (S.complement() - plan.s_star):
            side = p.a if G.parity[v] == 0 else p.b
            f.values[v] = side[int(rng.integers(0, len(side)))]
        h = {v: (p0.a if G.parity[v] == 0 else p0.b)[int(rng.integers(0, 2))]
             for v in plan.s_star}
        g = repair_transform(f, S, parts, h, G, p0)
        record(g, *repair_inverse(g, S, parts, G, p0))

    G, p0, S, families = _class1_families()
    for parts, shift in families:
        plan = plan_repair(G, S, parts, 0, shift)
        for _ in range(16):
            f = Coloring([HOLE] * G.n, 5)
            for P, part in parts.items():
                for v in part - S:
                    side = P.a if G.parity[v] == 0 else P.b
                    f.values[v] = side[int(rng.integers(0, len(side)))]
            h = {}
            for v in plan.s_star:
                side = p0.a if G.parity[v] == 0 else p0.b
                h[v] = side[int(rng.integers(0, len(side)))]
            g = repair_transform(f, S, parts, h, G, p0, 0, shift)
            record(g, *repair_inverse(g, S, parts, G, p0, 0, shift))
    assert digest.hexdigest() == (
        "cce473b9fe80706400a17f679f602c42379eef200973e777379f37667b03a0a5")


def test_repair_error_messages_and_order():
    G, p0, S, families = _class1_families()
    (parts, _), _ = families
    with pytest.raises(PreconditionError) as exc:
        plan_repair(G, S, parts, shift_axis=0, shift_dir=1)
    assert str(exc.value) == (
        "shifting vertex 0 leaves the ambient graph along axis 0; "
        "class-1 parts must keep one cell of clearance from that face")

    G, p0, p, S, parts = _center_block_instance()
    plan = plan_repair(G, S, parts)
    corners = sorted((S.complement() - plan.s_star).ids())
    h = {v: (p0.a if G.parity[v] == 0 else p0.b)[0] for v in plan.s_star}
    f = Coloring([HOLE] * G.n, 4)
    for v in corners:
        f.values[v] = (p.a if G.parity[v] == 0 else p.b)[0]
    cases = []
    hole = f.copy()
    hole.values[corners[1]] = HOLE
    cases.append((hole, f"coloring has a HOLE at part vertex {corners[1]}"))
    wrong = f.copy()
    v = corners[2]
    wrong.values[v] = (p.b if G.parity[v] == 0 else p.a)[0]
    cases.append((wrong, f"vertex {v} of the {p.text()} part borders the filling "
                         f"region but carries color {wrong.values[v]} outside the pattern"))
    # a HOLE and an out-of-pattern boundary cell in one region: the
    # region's boundary check runs before its HOLE check
    both = wrong.copy()
    both.values[corners[0]] = HOLE
    cases.append((both, cases[-1][1]))
    for bad, message in cases:
        with pytest.raises(PreconditionError) as exc:
            repair_transform(bad, S, parts, h, G, p0)
        assert str(exc.value) == message
    # a bad filling is reported before any part fault
    v0 = min(h)
    bad_h = {**h, v0: (p0.b if G.parity[v0] == 0 else p0.a)[0]}
    with pytest.raises(PreconditionError) as exc:
        repair_transform(both, S, parts, bad_h, G, p0)
    assert str(exc.value) == (f"filling color {bad_h[v0]} at vertex {v0} "
                              "violates the reference pattern")

    # class-0 regions are checked before class-1 ones
    G, p0, S, families = _class1_families()
    (parts, shift), _ = families
    plan = plan_repair(G, S, parts, 0, shift)
    f = Coloring([HOLE] * G.n, 5)
    for P, part in parts.items():
        for v in part:
            f.values[v] = (P.a if G.parity[v] == 0 else P.b)[0]
    h = {v: (p0.a if G.parity[v] == 0 else p0.b)[0] for v in plan.s_star}
    (p1, top), (p2, bot) = parts.items()
    u = G.vid((0, 5))   # a cell of the class-1 region (row 0)
    f.values[u] = (p1.b if G.parity[u] == 0 else p1.a)[0]
    w = max(bot.ids())
    f.values[w] = HOLE
    with pytest.raises(PreconditionError) as exc:
        repair_transform(f, S, parts, h, G, p0, 0, shift)
    assert str(exc.value) == f"coloring has a HOLE at part vertex {w}"


def test_repair_inverse_refuses_hole_in_part_image():
    G, p0, p, S, parts = _center_block_instance()
    g = Coloring([HOLE] * G.n, 4)
    with pytest.raises(PreconditionError) as exc:
        repair_inverse(g, S, parts, G, p0)
    assert str(exc.value) == "repaired coloring has a HOLE at vertex 0"


def _repaired_center_block():
    # one forward output of criterion 8's 4x4 family
    G, p0, p, S, parts = _center_block_instance()
    plan = plan_repair(G, S, parts)
    f = Coloring([HOLE] * G.n, 4)
    for v in (S.complement() - plan.s_star):
        f.values[v] = (p.a if G.parity[v] == 0 else p.b)[0]
    h = {v: (p0.a if G.parity[v] == 0 else p0.b)[v % 2] for v in plan.s_star}
    return G, p0, p, S, parts, repair_transform(f, S, parts, h, G, p0)


def test_repair_inverse_refuses_other_q():
    G, p0, p, S, parts, g = _repaired_center_block()
    with pytest.raises(PreconditionError) as exc:
        repair_inverse(Coloring(g.values.copy(), 5), S, parts, G, p0)
    assert str(exc.value) == "coloring and reference pattern disagree on q"


def test_repair_inverse_refuses_filling_out_of_pattern():
    # cell 1 is odd and in the filling region; its neighbors 0, 2 and 5
    # all hold color 1, so A-side color 2 there keeps g proper
    G, p0, p, S, parts, g = _repaired_center_block()
    bad = g.copy()
    bad.values[5] = 1
    bad.values[1] = 2
    assert is_proper(bad, G) and bad.values[[0, 2]].tolist() == [1, 1]
    with pytest.raises(PreconditionError) as exc:
        repair_inverse(bad, S, parts, G, p0)
    assert str(exc.value) == "filling color 2 at vertex 1 violates the reference pattern"


def test_repair_inverse_refuses_part_boundary_out_of_pattern():
    # corner 0's filling neighbors 1 and 4 share color 3, so color 4 at the
    # corner keeps g proper while its preimage lies on the wrong side of p
    G, p0, p, S, parts, g = _repaired_center_block()
    bad = g.copy()
    bad.values[[1, 4]] = 3
    bad.values[0] = 4
    assert is_proper(bad, G)
    with pytest.raises(PreconditionError) as exc:
        repair_inverse(bad, S, parts, G, p0)
    assert str(exc.value) == (f"vertex 0 of the {p.text()} part borders the filling "
                              "region but carries color 4 outside the pattern")


def test_repair_inverse_refuses_improper_coloring():
    # empty S, one part over the whole box: no boundary and no filling to
    # check, so only properness rules this g out
    G = build_graph([4, 4])
    p0 = Pattern.make(4, [1, 2], [3, 4])
    p = Pattern.make(4, [1, 3], [2, 4])
    g = Coloring([1] * G.n, 4)
    with pytest.raises(PreconditionError) as exc:
        repair_inverse(g, G.empty_set(), {p: G.full_set()}, G, p0)
    assert str(exc.value) == "repaired coloring is not proper"


def test_coloring_file_roundtrip_bit_exact():
    G = build_graph([3, 4], [False, True])
    f = striped_pattern_coloring(G, Pattern.make(4, [1, 2], [3, 4]))
    f.values[0] = HOLE
    text = coloring_to_text(f, G)
    assert text.splitlines()[0] == "q=4;dims=3,4;periodic=0,1"
    g, G2 = coloring_from_text(text)
    assert g == f and G2.key() == G.key()
    assert coloring_to_text(g, G2) == text


def test_out_of_range_value_names_first_bad_vertex():
    for kind in (list, np.array):
        with pytest.raises(ConfigError, match=r"^value 5 at vertex 1 outside 0\.\.3$"):
            Coloring(kind([1, 5, 2, -1]), 3)
        with pytest.raises(ConfigError, match=r"^value -1 at vertex 2 outside 0\.\.3$"):
            Coloring(kind([0, 3, -1, 4]), 3)
    assert Coloring([], 3).values.tolist() == []
    with pytest.raises(ConfigError, match="at most 32767 colors"):
        Coloring([40000], 40000)   # int16 entries could not hold its colors


def test_list_and_array_colorings_agree():
    values = [1, 2, 0, 3, 2]
    f, g = Coloring(values, 3), Coloring(np.array(values), 3)
    assert f == g
    assert f.values.dtype == g.values.dtype == np.int16
    assert f != Coloring([1, 2, 0, 3, 1], 3)
    assert f != Coloring(values, 4)


def test_copy_is_independent():
    f = Coloring(np.array([1, 2, 3, 1]), 3)
    g = f.copy()
    g.values[0] = 2
    assert f.values.tolist() == [1, 2, 3, 1]
    assert f != g


def test_outputs_carry_python_ints(tmp_path, capsys):
    # numpy scalars must not reach tuples, text, JSON or the sample CSV
    from chroma.cli import main

    G = build_graph([6, 6])
    f = pure_pattern_sample(G, G.full_set(), Pattern.make(3, [1], [2, 3]), seed=2)
    assert all(type(c) is int for c in f.as_tuple())
    assert f.as_tuple() == tuple(f.values.tolist())
    text = coloring_to_text(f, G)
    assert text.splitlines()[1] == " ".join(str(c) for c in f.as_tuple())
    src = tmp_path / "f.txt"
    src.write_text(text)
    assert main(["decompose", "--coloring", str(src), "--out", str(tmp_path / "z.json")]) == 0
    capsys.readouterr()
    csv = tmp_path / "s.csv"
    assert main(["sample", "--dims", "6,6", "--q", "3", "--pattern", "A=1;B=2,3",
                 "--seed", "4", "--sweeps", "4", "--margin", "1", "--out", str(csv)]) == 0
    out = capsys.readouterr().out
    for artifact in (out, (tmp_path / "z.json").read_text(), csv.read_text()):
        assert "np." not in artifact and "int16" not in artifact
    doc = json.loads(out[out.index("{"):])

    def leaves(x):
        if isinstance(x, dict):
            return [y for v in x.values() for y in leaves(v)]
        if isinstance(x, list):
            return [y for v in x for y in leaves(v)]
        return [x]

    for document in (doc, json.loads((tmp_path / "z.json").read_text())):
        assert all(type(x) in (int, float, str, bool, type(None)) for x in leaves(document))
