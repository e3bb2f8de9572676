import itertools
import math

import pytest

from chroma.coloring import Coloring, striped_pattern_coloring
from chroma.decomposition import construct_breakup, verify_breakup
from chroma.entropy import (
    classify,
    conditional_entropy,
    entropy_loss_eval,
    enumerate_type_functions,
    k_omega,
    marginal,
    neighborhood_type,
    shannon_entropy,
    shearer_check,
    u_p_sets,
    z_bound_check,
)
from chroma.errors import PreconditionError, ResourceLimitError
from chroma.exact import Constraint, allowed_masks, enumerate_colorings
from chroma.lattice import build_graph, closed_neighborhood, vertex_boundaries
from chroma.patterns import Pattern
from chroma.rng import make_rng

from test_lattice import _within

TOL = 1e-10


def test_entropy_uniform_and_point():
    assert abs(shannon_entropy({i: 0.2 for i in range(5)}) - math.log(5)) < TOL
    assert shannon_entropy({"a": 1.0}) == 0.0
    with pytest.raises(PreconditionError):
        shannon_entropy({"a": -0.2, "b": 1.2})


def test_finite_distribution_modes():
    from fractions import Fraction

    from chroma.entropy import FiniteDistribution

    exact = FiniteDistribution({0: Fraction(1, 3), 1: Fraction(2, 3)})
    assert exact.entropy() == pytest.approx(
        -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    )
    with pytest.raises(PreconditionError):
        FiniteDistribution({0: Fraction(1, 3), 1: Fraction(1, 3)})
    FiniteDistribution({0: 0.5, 1: 0.5})
    with pytest.raises(PreconditionError):
        FiniteDistribution({0: 0.5, 1: 0.6})


def random_joint(rng, shape):
    w = rng.random(shape) + 1e-3
    w = w / w.sum()
    out = {}
    for idx in itertools.product(*(range(s) for s in shape)):
        out[idx] = float(w[idx])
    return out


def test_chain_rule_randomized():
    rng = make_rng(31)
    for _ in range(100):
        joint = random_joint(rng, (3, 4))
        lhs = shannon_entropy(joint)
        rhs = shannon_entropy(marginal(joint, [0])) + conditional_entropy(joint, [0])
        assert abs(lhs - rhs) < TOL


def test_shearer_independent_equality_and_examples():
    bits = {}
    for a, b, c in itertools.product((0, 1), repeat=3):
        bits[(a, b, c)] = 1 / 8
    res = shearer_check(bits, [(0, 1), (1, 2), (0, 2)], 2)
    assert abs(res.lhs - 3 * math.log(2)) < TOL
    assert abs(res.lhs - res.rhs) < TOL and res.holds

    copies = {(0, 0, 0): 0.5, (1, 1, 1): 0.5}
    res = shearer_check(copies, [(0, 1), (1, 2), (0, 2)], 2)
    assert abs(res.lhs - math.log(2)) < TOL
    assert abs(res.rhs - 1.5 * math.log(2)) < TOL and res.holds

    # singleton cover at k=1 is plain subadditivity
    rng = make_rng(5)
    joint = random_joint(rng, (2, 3, 2))
    res = shearer_check(joint, [(0,), (1,), (2,)], 1)
    assert res.holds


def test_shearer_cover_deficiency_rejected():
    joint = {(0, 0): 0.5, (1, 1): 0.5}
    with pytest.raises(PreconditionError):
        shearer_check(joint, [(0,)], 1)


def test_shearer_random_covers():
    rng = make_rng(1234)
    for _ in range(60):
        shape = tuple(int(rng.integers(2, 4)) for _ in range(3))
        joint = random_joint(rng, shape)
        cover = []
        for _ in range(int(rng.integers(3, 7))):
            block = tuple(
                i for i in range(3) if rng.random() < 0.7
            ) or (int(rng.integers(0, 3)),)
            cover.append(block)
        counts = [sum(i in b for b in cover) for i in range(3)]
        k = min(counts)
        if k == 0:
            continue
        assert shearer_check(joint, cover, k).holds


def test_neighborhood_type_examples():
    G = build_graph([3, 3, 3, 3])  # d = 4
    v = G.vid((1, 1, 1, 1))
    f = Coloring([1] * G.n, 3)
    nbrs = G.neighbors[v]
    for u in nbrs[:7]:
        f.values[u] = 1
    f.values[nbrs[7]] = 2
    t = neighborhood_type(f, v, G)
    assert t.colorset == frozenset({1, 2}) and t.unbal  # multiplicity 1 <= 4/3

    g = Coloring([1] * G.n, 2)
    for i, u in enumerate(nbrs):
        g.values[u] = 1 if i < 4 else 2
    t = neighborhood_type(g, v, G)
    assert t.colorset == frozenset({1, 2}) and not t.unbal  # 4 > 4/2

    h = Coloring([1] * G.n, 3)
    t = neighborhood_type(h, v, G)
    assert t.colorset == frozenset({1}) and not t.unbal

    with pytest.raises(PreconditionError):
        neighborhood_type(f, G.vid((0, 0, 0, 0)), G)


def _omega_on_block(G, base, block, q):
    pins = {v: base.values[v] for v in range(G.n) if v not in block}
    masks, feasible = allowed_masks(G, block, q, Constraint.pinned(pins))
    assert feasible
    out = []
    for assign in enumerate_colorings(G, block, masks):
        g = base.copy()
        for v, c in assign.items():
            g.values[v] = c
        out.append(g)
    return out


def test_classify_singleton_omega_every_edge_restricted():
    G = build_graph([5, 5])
    p0 = Pattern.make(3, [1], [2, 3])
    f = striped_pattern_coloring(G, p0)
    S = G.vertex_set([G.vid((2, 2))])
    rep = classify(f, [f], S, G)
    assert len(rep.restricted) == 4
    assert rep.uniq == S


def test_classify_nondominant_when_all_colors_seen():
    G = build_graph([5, 5])
    q = 3
    f = striped_pattern_coloring(G, Pattern.make(q, [1], [2, 3]))
    v = G.vid((2, 2))
    nbrs = G.neighbors[v]
    f.values[nbrs[0]] = 1  # make the image {1,2,3}
    f.values[v] = 2
    # keep it proper by pushing the conflicting even neighbors of nbrs[0]
    for w in G.neighbors[nbrs[0]]:
        if w != v and f.values[w] == 1:
            f.values[w] = 3 if all(
                f.values[x] != 3 for x in G.neighbors[w]
            ) else f.values[w]
    rep = classify(f, [f], G.vertex_set([v]), G)
    assert v in rep.nondom  # |image| = 3 not in {1, 2}


def test_classify_matches_independent_reimplementation():
    # exact omega on a 3x3 block inside 7x7; compare against plain dict code
    G = build_graph([7, 7])
    q = 3
    p0 = Pattern.make(q, [1], [2, 3])
    base = striped_pattern_coloring(G, p0)
    block = G.vertex_set([G.vid((i, j)) for i in (2, 3, 4) for j in (2, 3, 4)])
    omega = _omega_on_block(G, base, block, q)
    f = omega[0]
    S = G.vertex_set([G.vid((3, 3)), G.vid((2, 3)), G.vid((3, 2))])
    rep = classify(f, omega, S, G)

    # independent evaluation straight from the definitions
    all_colors = set(range(1, q + 1))
    for v in S:
        nbrs = list(G.neighbors[v])
        img = {f.values[u] for u in nbrs}
        nondom_direct = len(img) not in (q // 2, (q + 1) // 2)
        assert nondom_direct == (v in rep.nondom)
        counts = {}
        for u in nbrs:
            counts[f.values[u]] = counts.get(f.values[u], 0) + 1
        unbal_direct = any(m * q <= G.d for m in counts.values())
        assert unbal_direct == (v in rep.unbal)
        matching = [g for g in omega if {g.values[u] for u in nbrs} == img]
        for u in nbrs:
            seen = {g.values[u] for g in matching} | {g.values[v] for g in matching}
            assert (seen != all_colors) == ((v, u) in rep.restricted)


def test_classify_monotone_in_omega():
    G = build_graph([7, 7])
    q = 3
    base = striped_pattern_coloring(G, Pattern.make(q, [1], [2, 3]))
    block = G.vertex_set([G.vid((i, j)) for i in (2, 3, 4) for j in (2, 3, 4)])
    omega = _omega_on_block(G, base, block, q)
    f = omega[0]
    S = G.vertex_set([G.vid((3, 3))])
    big = set(classify(f, omega, S, G).restricted)
    small = set(classify(f, omega[: max(1, len(omega) // 3)], S, G).restricted)
    assert big <= small


def test_classify_requires_membership_and_interior():
    G = build_graph([5, 5])
    q = 3
    f = striped_pattern_coloring(G, Pattern.make(q, [1], [2, 3]))
    other = f.copy()
    other.values[G.vid((2, 2))] = 9 if False else other.values[G.vid((2, 2))]
    g = f.copy()
    g.values[G.vid((2, 2))] = 2 if g.values[G.vid((2, 2))] != 2 else 3
    with pytest.raises(PreconditionError):
        classify(g, [f], G.vertex_set([G.vid((2, 2))]), G)
    with pytest.raises(PreconditionError):
        classify(f, [f], G.vertex_set([0]), G)  # corner lacks full degree


def test_breakup_boundary_edges_restricted():
    # on the exact event of a breakup, every in-directed boundary edge of a
    # region is restricted, and vertices off the bad set have unique pattern
    G = build_graph([6, 6])
    q = 3
    p0 = Pattern.make(q, [1], [2, 3])
    base = striped_pattern_coloring(G, p0)
    center = G.vid((3, 3))
    for u in G.neighbors[center]:
        base.values[u] = 2
    base.values[center] = 3
    dom = G.vertex_set(
        [v for v in range(G.n) if all(1 <= c <= 4 for c in G.coords(v))]
    )
    X = construct_breakup(G, base, G.vertex_set([center]), dom, p0)
    assert verify_breakup(X, base, dom, p0).ok
    x_star = X.x_star
    inner = G.vertex_set(
        [v for v in x_star if G.degree[v] == G.full_degree]
    )
    block = closed_neighborhood(G, x_star)
    omega = [
        g
        for g in _omega_on_block(G, base, block & G.vertex_set(
            [v for v in range(G.n) if G.degree[v] == G.full_degree]
        ), q)
        if verify_breakup(X, g, dom, p0).ok
    ]
    assert base.as_tuple() in {g.as_tuple() for g in omega}
    rep = classify(base, omega, inner, G)
    for P, region in X.x_p.items():
        for u in region:
            for v in G.neighbors[u]:
                if v in region or v not in inner:
                    continue
                assert (v, u) in rep.restricted
    for v in inner - X.x_bad:
        assert v in rep.uniq


def test_u_p_sets_disjoint_and_definition():
    # a cell is recorded for P exactly when its neighborhood image is the
    # full interior side of P; the recording pattern is then unique
    G = build_graph([6, 6])
    q = 4
    p0 = Pattern.make(q, [1, 2], [3, 4])
    f = striped_pattern_coloring(G, p0)
    v = G.vid((3, 3))
    for i, u in enumerate(G.neighbors[v]):
        f.values[u] = 3 if i % 2 == 0 else 4
    bad = G.vertex_set([v])
    sets = u_p_sets(f, G, bad)
    hits = [P for P, U in sets.items() if U]
    assert hits == [p0]
    assert sets[p0] == bad
    # a non-interior image records nothing
    g = f.copy()
    for u in G.neighbors[v]:
        g.values[u] = 3
    assert all(not U for U in u_p_sets(g, G, bad).values())
    seen = G.empty_set()
    for U in sets.values():
        assert U.isdisjoint(seen)
        seen = seen | U


def test_z_bound_saturation_and_cases():
    d = q = 3
    # J of dominant floor size, balanced, I the complement: tight base case
    psis = enumerate_type_functions([1], 0, d, q)
    rep = z_bound_check(psis, [2, 3], d, q)
    assert rep.lhs == (1 * 2**6)
    assert rep.k_semi_restricted == 0
    base = float((q // 2) * ((q + 1) // 2)) ** (2 * d)
    assert rep.lhs == base and rep.holds

    # one frozen coordinate: k = 1 discount
    psis_k = [psi for psi in enumerate_type_functions([1, 2], 0, d, q)
              if psi[0] == 1]
    rep = z_bound_check(psis_k, [3], d, q)
    assert rep.k_semi_restricted >= 1
    assert rep.lhs <= base * math.exp(-rep.k_semi_restricted / q) + 1e-9
    assert rep.holds

    # non-dominant J = [q]: |I| = 0 makes the bound trivial but applicable
    psis_nd = enumerate_type_functions([1, 2, 3], 0, d, q)
    rep = z_bound_check(psis_nd, [], d, q)
    assert rep.cases[1].applicable and rep.holds

    with pytest.raises(PreconditionError):
        z_bound_check(psis, [1], d, q)  # I meets J
    with pytest.raises(PreconditionError):
        z_bound_check([], [2], d, q)


def test_type_functions_state_budget():
    # |J|^{2d} = 2^6 = 64 candidates: a budget of 63 refuses, 64 walks them
    assert enumerate_type_functions([1, 2], 0, 3, 3, state_budget=64)
    with pytest.raises(ResourceLimitError):
        enumerate_type_functions([1, 2], 0, 3, 3, state_budget=63)


def test_type_functions_refuse_without_forming_the_power():
    # d below 1 is refused; the budget is decided without forming |J|^{2d}
    # (3^{2 * 10^9} has 3.2e9 bits), and a single candidate of 2d
    # coordinates past the budget is refused even when |J| = 1
    for d in (-1, 0):
        with pytest.raises(PreconditionError, match=f"d must be >= 1, got {d}"):
            enumerate_type_functions([1, 2], 0, d, 3)
    with pytest.raises(ResourceLimitError):
        _within(1.0, lambda: enumerate_type_functions([1, 2, 3], 0, 10**9, 3))
    with pytest.raises(ResourceLimitError):
        enumerate_type_functions([1], 0, 40, 3, state_budget=79)
    assert enumerate_type_functions([1], 0, 40, 3, state_budget=80) == [(1,) * 80]
    assert enumerate_type_functions([], 0, 40, 3, state_budget=80) == []


def test_z_bound_exhaustive_small():
    d = q = 3
    for size in (1, 2, 3):
        for J in itertools.combinations(range(1, q + 1), size):
            for z in (0, 1):
                psis = enumerate_type_functions(J, z, d, q)
                if not psis:
                    continue
                comp = [c for c in range(1, q + 1) if c not in J]
                for r in range(len(comp) + 1):
                    for I in itertools.combinations(comp, r):
                        assert z_bound_check(psis, I, d, q).holds, (J, z, I)


def test_k_omega_minimum():
    G = build_graph([7, 7])
    q = 3
    base = striped_pattern_coloring(G, Pattern.make(q, [1], [2, 3]))
    block = G.vertex_set([G.vid((3, 3)), G.vid((3, 4))])
    omega = _omega_on_block(G, base, block, q)
    S = G.vertex_set([G.vid((3, 3))])
    kmin = k_omega(omega, S, G)
    assert kmin == min(classify(g, omega, S, G).k_value for g in omega)
    assert kmin >= 0


def _restriction_distribution(G, base, S, q):
    _, ext, _ = vertex_boundaries(G, S)
    window = sorted((S | ext).ids())
    pins = {v: base.values[v] for v in range(G.n) if v not in S}
    masks, _ = allowed_masks(G, S, q, Constraint.pinned(pins))
    dist = {}
    n = 0
    for assign in enumerate_colorings(G, S, masks):
        key = tuple(assign.get(v, base.values[v]) for v in window)
        dist[key] = dist.get(key, 0) + 1
        n += 1
    return {k: v / n for k, v in dist.items()}


def test_entropy_loss_deterministic_zero():
    G = build_graph([7, 7])
    q = 3
    base = striped_pattern_coloring(G, Pattern.make(q, [1], [2, 3]))
    S = G.vertex_set([G.vid((3, 3))])
    dist = _restriction_distribution(G, base, S, q)
    one = {next(iter(dist)): 1.0}
    rep = entropy_loss_eval(G, S, one, q)
    assert rep.ent_masked == 0.0
    assert all(t.term_local < 1e-12 and t.term_neighborhood_image < 1e-12
               for t in rep.terms)


def test_entropy_loss_exact_block_bound_and_caps():
    G = build_graph([7, 7])
    q = 3
    base = striped_pattern_coloring(G, Pattern.make(q, [1], [2, 3]))
    S = G.vertex_set([G.vid((i, j)) for i in (2, 3, 4) for j in (2, 3, 4)])
    dist = _restriction_distribution(G, base, S, q)
    rep = entropy_loss_eval(G, S, dist, q)
    assert rep.holds
    assert rep.ent_masked <= rep.total_bound + 1e-10
    assert rep.ent_masked > 0.5  # the block genuinely fluctuates
    cap_i = q * math.log(2) / (2 * G.d)
    cap_ii = math.log((q // 2) * ((q + 1) // 2))
    for t in rep.terms:
        if t.cap_applicable:
            assert t.term_neighborhood_image <= cap_i + 1e-10
            assert t.term_local <= cap_ii + 1e-10


def test_entropy_loss_rejects_rim_sets():
    G = build_graph([4, 4])
    q = 3
    S = G.vertex_set([0])
    with pytest.raises(PreconditionError):
        entropy_loss_eval(G, S, {(1,): 1.0}, q)
