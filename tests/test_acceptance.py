"""Acceptance criteria, one test per criterion.

Each test prints a single pass line on success; tolerances and time
budgets are asserted exactly as stated.  Run with `pytest -v
tests/test_acceptance.py` (add -s to see the pass lines inline).
"""

import itertools
import math
import time
from fractions import Fraction

from chroma.coloring import Coloring, HOLE, is_proper, striped_pattern_coloring
from chroma.decomposition import construct_breakup, verify_breakup
from chroma.entropy import enumerate_type_functions, shearer_check, z_bound_check
from chroma.exact import (
    Constraint,
    count_colorings,
    exact_marginal,
    toy_ratio,
    transfer_count,
    tv_distance,
)
from chroma.coloring import filling_count, plan_repair, repair_transform
from chroma.lattice import build_graph, closed_neighborhood
from chroma.patterns import Pattern, enumerate_dominant
from chroma.rng import make_rng
from chroma.sampler import (
    ChainConfig,
    heat_bath_sweep,
    run_experiment,
    single_site_transition_matrix,
)
from chroma.suites import run_suite

import oracles


def _report(n, text):
    print(f"[acceptance] criterion {n}: PASS - {text}")


def test_criterion_1_exact_oracle_correctness():
    start = time.monotonic()
    rng = make_rng(20260810)
    max_size = {3: 12, 4: 10, 5: 9}
    checked = 0
    for trial in range(100):
        q = (3, 4, 5)[trial % 3]
        n_axes = 2 if trial % 2 == 0 else 3
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n_axes))
        G = build_graph(dims)
        target = int(rng.integers(2, max_size[q] + 1))
        seed_v = int(rng.integers(0, G.n))
        members = {seed_v}
        while len(members) < target:
            frontier = sorted(
                {u for v in members for u in G.neighbors[v]} - members
            )
            if not frontier:
                break
            members.add(frontier[int(rng.integers(0, len(frontier)))])
        got = count_colorings(G, G.vertex_set(members), q).count
        want = oracles.brute_force_count(
            dims, tuple(False for _ in dims), sorted(members), q
        )
        assert got == want, (dims, q, sorted(members))
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 100
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"100 subgraph counts equal brute force in {elapsed:.1f}s")


def test_criterion_2_transfer_backtracking_agreement():
    start = time.monotonic()
    p0 = Pattern.make(3, [1], [2, 3])
    slabs = [
        (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 3),
        (2, 3, 4), (2, 3, 5), (3, 3, 2), (3, 3, 3), (3, 3, 4),
    ]
    instances = []
    for dims in slabs:
        instances.append((dims, Constraint.free()))
        instances.append((dims, Constraint.pattern_boundary(p0)))
    instances.append(((3, 3, 5), Constraint.pattern_boundary(p0)))
    instances.append(((3, 3, 5), Constraint.pinned({0: 1, 22: 2, 44: 3})))
    instances.append(((3, 3, 5), Constraint.pinned({0: 1, 44: 1})))
    instances.append(((3, 3, 4), Constraint.pinned({0: 1, 35: 2})))
    instances.append(((2, 3, 5), Constraint.pinned({0: 2})))
    assert len(instances) == 25
    for dims, constraint in instances:
        G = build_graph(dims)
        t = transfer_count(G, 3, constraint)
        b = count_colorings(G, G.full_set(), 3, constraint,
                            method="backtracking")
        assert t.count == b.count, (dims, constraint)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(2, f"25 slab instances agree exactly in {elapsed:.1f}s")


def test_criterion_3_dominant_pattern_counts():
    for q in range(3, 9):
        got = len(enumerate_dominant(q))
        want = math.comb(q, q // 2) if q % 2 == 0 else 2 * math.comb(q, q // 2)
        assert got == want, q
    _report(3, "dominant pattern counts match the closed forms for q=3..8")


def test_criterion_4_toy_scenario_reproduction():
    start = time.monotonic()
    G = build_graph([5, 5])
    center = G.vid((2, 2))

    # even q: adjacent pattern is sharp, exactly (1/2)^{|two-sided boundary|}
    p0 = Pattern.make(4, [1, 2], [3, 4])
    adj = Pattern.make(4, [1, 3], [2, 4])
    U = G.vertex_set([center])
    r = toy_ratio(G, G.full_set(), U, p0, adj)
    assert r.ratio == Fraction(1, 2) ** 5
    assert r.verdict == "equal" and r.expected_equality

    # non-adjacent pattern: strictly below the bound
    far = Pattern.make(4, [3, 4], [1, 2])
    r_far = toy_ratio(G, G.full_set(), U, p0, far)
    assert r_far.ratio < Fraction(1, 2) ** 5
    assert r_far.verdict == "below" and not r_far.expected_equality

    # odd q: an odd droplet with the reference A inside A is sharp
    p0_5 = Pattern.make(5, [1, 2], [3, 4, 5])
    sup = Pattern.make(5, [1, 2, 3], [4, 5])
    plus = closed_neighborhood(G, G.vertex_set([center]))
    r5 = toy_ratio(G, G.full_set(), plus, p0_5, sup)
    assert r5.bound_exponent == Fraction(12, 4)
    assert r5.ratio == Fraction(4, 6) ** 3
    assert r5.verdict == "equal" and r5.expected_equality
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _report(4, f"droplet cost ratios exactly sharp/strict in {elapsed:.1f}s")


def test_criterion_5_order_direction_at_desk_scale():
    G = build_graph([5, 5])
    p0 = Pattern.make(3, [1], [2, 3])
    m = exact_marginal(
        G, G.full_set(), 3, G.vid((2, 2)), Constraint.pattern_boundary(p0)
    )
    assert m.probs[0] > Fraction(1, 3) + Fraction(1, 100)
    _report(5, f"center color-1 mass {float(m.probs[0]):.4f} > 1/3 + 0.01")


def test_criterion_6_sampler_validation():
    cfg = ChainConfig(
        dims=(4, 4), q=3, pattern="A=1;B=2,3", seed=20240817,
        sweeps=1_000_000, burn_in=10_000, thin=1,
    )
    stats = run_experiment(cfg)
    G = build_graph([4, 4])
    center = G.vid((2, 2))
    emp = stats.vertex_marginal(center)
    p0 = Pattern.make(3, [1], [2, 3])
    exact = exact_marginal(
        G, G.full_set(), 3, center, Constraint.pattern_boundary(p0)
    )
    tv = tv_distance(emp, {c + 1: exact.probs[c] for c in range(3)})
    assert tv <= Fraction(1, 100), float(tv)

    states, P = single_site_transition_matrix(
        build_graph([2, 2]), build_graph([2, 2]).full_set(), 3
    )
    assert len(states) == 18
    worst = Fraction(0)
    for i in range(len(states)):
        assert sum(P[i]) == 1
        for j in range(len(states)):
            worst = max(worst, abs(P[i][j] - P[j][i]))
    assert worst <= Fraction(1, 10**12)
    _report(6, f"TV {float(tv):.5f} <= 0.01; detailed balance exact")


def _randomized_breakup_cases():
    # (dims, q, instances, check_pure_trivial)
    return [
        ((6, 6), 3, 150, True),
        ((6, 6), 4, 100, True),
        ((4, 4, 4), 3, 150, True),
        ((4, 4, 4), 4, 50, True),
        ((4, 4, 4), 5, 50, False),
    ]


def _p0_for(q):
    return Pattern.make(q, list(range(1, q // 2 + 1)),
                        list(range(q // 2 + 1, q + 1)))


def test_criterion_7_breakup_suite():
    total = 0
    for dims, q, n_inst, check_pure in _randomized_breakup_cases():
        G = build_graph(dims)
        p0 = _p0_for(q)
        dom = G.full_set()
        rng = make_rng(hash((dims, q)) & ((1 << 63) - 1))
        cur = striped_pattern_coloring(G, p0)

        if check_pure:
            X = construct_breakup(G, cur, G.vertex_set([0]), dom, p0)
            assert not X.x_star and X.x_p[p0] == G.full_set()
            assert verify_breakup(X, cur, dom, p0).ok

        for i in range(n_inst):
            cur = heat_bath_sweep(cur, G, dom, p0, rng)
            V = G.vertex_set([int(rng.integers(0, G.n))])
            X = construct_breakup(G, cur, V, dom, p0)
            rep = verify_breakup(X, cur, dom, p0)
            assert rep.ok, (dims, q, i, rep.violations[:3])
            total += 1

        # defect instance: one out-of-pattern vertex must leave the
        # reference region (up to overlap)
        f = striped_pattern_coloring(G, p0)
        center = G.vid(tuple(x // 2 for x in G.dims))
        if G.parity[center] != 0:
            center = G.neighbors[center][0]
        for u in G.neighbors[center]:
            f.values[u] = p0.b[0]
        f.values[center] = p0.b[1]
        assert is_proper(f, G)
        X = construct_breakup(G, f, G.vertex_set([center]), dom, p0)
        rep = verify_breakup(X, f, dom, p0)
        assert rep.ok, (dims, q, rep.violations[:3])
        assert not (center in X.x_p[p0] and center not in X.x_overlap)
    assert total == 500
    _report(7, "500 randomized breakups verified; pure trivial; defects excluded")


def test_criterion_8_repair_suite():
    G = build_graph([4, 4])
    q = 4
    p0 = Pattern.make(q, [1, 2], [3, 4])
    p = Pattern.make(q, [1, 3], [2, 4])
    S = G.vertex_set([G.vid((i, j)) for i in (1, 2) for j in (1, 2)])
    parts = {p: S.complement()}
    plan = plan_repair(G, S, parts)
    star = sorted(plan.s_star.ids())
    corners = sorted((S.complement() - plan.s_star).ids())
    n_even = len(plan.s_star & G.even)
    n_odd = len(plan.s_star) - n_even
    assert filling_count(G, plan, q) == (q // 2) ** n_even * ((q + 1) // 2) ** n_odd

    corner_sides = [p.a if G.parity[v] == 0 else p.b for v in corners]
    star_sides = [p0.a if G.parity[v] == 0 else p0.b for v in star]
    outputs = set()
    pairs = 0
    for combo in itertools.product(*corner_sides):
        f = Coloring([HOLE] * G.n, q)
        for v, c in zip(corners, combo):
            f.values[v] = c
        for h_combo in itertools.product(*star_sides):
            h = dict(zip(star, h_combo))
            g = repair_transform(f, S, parts, h, G, p0)
            assert is_proper(g, G)
            outputs.add(g.as_tuple())
            pairs += 1
    assert pairs == 16 * filling_count(G, plan, q)
    assert len(outputs) == pairs  # zero collisions
    _report(8, f"{pairs} repair pairs, all proper, zero collisions")


def test_criterion_9_lemma_property_suites():
    failures = []
    for name in ("four-cycle", "revealed", "even-odd", "sizes", "co-closure",
                 "boundary-connected"):
        res = run_suite(name, 100, 20260810)[0]
        if not res.ok:
            failures.append((name, res.failures[:2]))
    res = run_suite("isoperimetry", 1, 0)[0]
    if not res.ok:
        failures.append(("isoperimetry", res.failures[:2]))
    assert not failures, failures
    _report(9, "six randomized suites at 100 trials plus isoperimetry: zero failures")


def test_criterion_10_shearer_suite():
    rng = make_rng(77)
    done = 0
    while done < 200:
        shape = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 5))))
        w = rng.random(shape) + 1e-3
        w = w / w.sum()
        joint = {
            idx: float(w[idx])
            for idx in itertools.product(*(range(s) for s in shape))
        }
        n = len(shape)
        cover = []
        for _ in range(int(rng.integers(2, 6))):
            block = tuple(i for i in range(n) if rng.random() < 0.6)
            if block:
                cover.append(block)
        if not cover:
            continue
        counts = [sum(i in b for b in cover) for i in range(n)]
        k = min(counts)
        if k == 0:
            continue
        res = shearer_check(joint, cover, k)
        assert res.holds
        done += 1

    # independent uniforms with a balanced cover: equality to 1e-10
    joint = {
        idx: 1 / 12
        for idx in itertools.product(range(2), range(2), range(3))
    }
    res = shearer_check(joint, [(0, 1), (1, 2), (0, 2)], 2)
    assert abs(res.lhs - res.rhs) <= 1e-10

    # per-type counting bounds, exhaustively at d = q = 3
    d = q = 3
    cases = 0
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
                        cases += 1
    assert cases > 0
    _report(10, f"200 random covers hold; equality exact; {cases} type bounds hold")
