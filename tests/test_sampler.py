import hashlib

import pytest

from chroma.coloring import Coloring, is_proper, striped_pattern_coloring
from chroma.errors import ConfigError, PreconditionError
from chroma.exact import Constraint, allowed_masks, enumerate_colorings
from chroma.lattice import build_graph
from chroma.patterns import Pattern, vertex_in_pattern
from chroma.rng import make_rng
from chroma.sampler import (
    ChainConfig,
    cluster_step,
    heat_bath_sweep,
    run_experiment,
    single_site_transition_matrix,
    swappable_components,
)

P03 = "A=1;B=2,3"


def test_config_validation():
    with pytest.raises(ConfigError):
        ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=5, burn_in=9)
    with pytest.raises(ConfigError):
        ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=5, thin=0)
    with pytest.raises(ConfigError):
        ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=5,
                    algorithm="bogus")


def test_forced_resample():
    # a cell whose neighbors block all but one color always takes it
    G = build_graph([3, 3])
    p0 = Pattern.parse(3, P03)
    f = striped_pattern_coloring(G, p0)
    center = G.vid((1, 1))
    domain = G.vertex_set([center])
    for seed in range(10):
        out = heat_bath_sweep(f, G, domain, p0, make_rng(seed))
        assert out.values[center] == 1  # neighbors carry 2 and 3
        for v in range(G.n):
            if v != center:
                assert out.values[v] == f.values[v]


def test_uniform_over_two_free_colors():
    # neighbors all one color: the free resample is uniform on the other two
    G = build_graph([3, 3])
    f = Coloring([0] * G.n, 3)
    center = G.vid((1, 1))
    for v in range(G.n):
        f.values[v] = 1 if v != center else 2
    domain = G.vertex_set([center])
    counts = {2: 0, 3: 0}
    for seed in range(64):
        out = heat_bath_sweep(f, G, domain, None, make_rng(seed))
        assert out.values[center] in (2, 3)
        counts[out.values[center]] += 1
    assert counts[2] > 10 and counts[3] > 10


def test_stuck_state_reported_not_hung():
    # a masked cell whose only admissible color is blocked by its neighbors
    # signals a contract violation instead of looping
    G = build_graph([3, 3])
    p0 = Pattern.parse(3, P03)
    f = Coloring([1 if G.parity[v] == 0 else 2 for v in range(G.n)], 3)
    center = G.vid((1, 1))
    f.values[center] = 2          # outside its own mask {1}
    for u in G.neighbors[center]:
        f.values[u] = 1           # and 1 is blocked by every neighbor
    with pytest.raises(PreconditionError):
        heat_bath_sweep(f, G, G.vertex_set([center]), p0, make_rng(0))


def test_sweep_preserves_properness_and_pattern_masks():
    G = build_graph([5, 5])
    p0 = Pattern.parse(3, P03)
    f = striped_pattern_coloring(G, p0)
    rng = make_rng(4)
    cur = f
    boundary = [v for v in range(G.n) if G.degree[v] < G.full_degree]
    for _ in range(30):
        cur = heat_bath_sweep(cur, G, G.full_set(), p0, rng, assert_proper=True)
        for v in boundary:
            assert vertex_in_pattern(cur.values[v], G.parity[v], p0)


def test_detailed_balance_exact_2x2():
    G = build_graph([2, 2])
    states, P = single_site_transition_matrix(G, G.full_set(), 3)
    assert len(states) == 18
    n = len(states)
    for i in range(n):
        assert sum(P[i]) == 1
        for j in range(n):
            assert P[i][j] == P[j][i]  # uniform detailed balance, exactly


def test_chain_connectivity_on_acceptance_instance():
    # single-site moves connect the 4x4 pattern-boundary state space
    G = build_graph([4, 4])
    q = 3
    p0 = Pattern.parse(3, P03)
    masks, feasible = allowed_masks(G, G.full_set(), q,
                                    Constraint.pattern_boundary(p0))
    assert feasible
    states = [
        tuple(a[v] for v in range(G.n))
        for a in enumerate_colorings(G, G.full_set(), masks)
    ]
    index = {s: i for i, s in enumerate(states)}
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        s = states[i]
        for v in range(G.n):
            used = 0
            for u in G.neighbors[v]:
                used |= 1 << (s[u] - 1)
            avail = masks[v] & ~used
            bits = avail
            while bits:
                low = bits & -bits
                bits ^= low
                t = list(s)
                t[v] = low.bit_length()
                j = index[tuple(t)]
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    assert len(seen) == len(states)


def test_cluster_two_dominoes_four_outcomes():
    # two separated {2,3} dominoes flip independently: four outcomes
    G = build_graph([7, 7])
    p0 = Pattern.parse(3, P03)
    f = striped_pattern_coloring(G, p0)
    a, b = 2, 3

    def put_domino(f, i, j):
        v, w = G.vid((i, j)), G.vid((i + 1, j))
        odd, even = (v, w) if G.parity[v] == 1 else (w, v)
        f.values[odd] = a
        f.values[even] = b

    # carve two far-apart dominoes whose neighbors avoid colors 2 and 3
    for i, j in [(2, 2), (4, 4)]:
        put_domino(f, i, j)
    for v in range(G.n):
        coords = G.coords(v)
        if f.values[v] in (a, b) and G.parity[v] == 1:
            continue
    comps = swappable_components(f, G, G.full_set(), p0, a, b)
    # the two dominoes are swappable only if isolated from other {2,3} cells;
    # in the striped fill odd cells all carry 2 or 3, so instead test on an
    # instance where the rest of the lattice avoids both colors
    q = 5
    p0w = Pattern.make(q, [1, 2], [3, 4, 5])
    base = Coloring([1 if G.parity[v] == 0 else 4 for v in range(G.n)], q)
    fa, fb = 3, 5
    for i, j in [(2, 2), (4, 4)]:
        v, w = G.vid((i, j)), G.vid((i + 1, j))
        odd, even = (v, w) if G.parity[v] == 1 else (w, v)
        base.values[odd] = fa
        base.values[even] = 2
    assert is_proper(base, G)
    comps = swappable_components(base, G, G.full_set(), p0w, fa, fb)
    inner = [c for c in comps if len(c) >= 1]
    assert len(inner) == 2
    outcomes = set()
    for seed in range(200):
        rng = make_rng(seed)
        rng.choice(q, size=2, replace=False)  # not used; drive the step directly
        out = base.copy()
        for comp in comps:
            if rng.random() < 0.5:
                for v in comp:
                    out.values[v] = fb if out.values[v] == fa else fa
        outcomes.add(out.as_tuple())
        assert is_proper(out, G)
    assert len(outcomes) == 4


def test_cluster_spanning_component_noop():
    # a two-color component touching frozen cells that carry those colors
    # never swaps: a chessboard with a frozen rim is immovable
    G = build_graph([4, 4])
    f = Coloring([2 if G.parity[v] == 0 else 3 for v in range(G.n)], 3)
    interior = G.vertex_set(
        [v for v in range(G.n) if all(1 <= c <= 2 for c in G.coords(v))]
    )
    comps = swappable_components(f, G, interior, None, 2, 3)
    assert comps == []
    # whatever color pair the step draws, it stays proper and never touches
    # the frozen rim; when the drawn pair is (2, 3), nothing moves at all
    for seed in range(30):
        rng = make_rng(seed)
        probe = make_rng(seed)
        pair = sorted(int(x) + 1 for x in probe.choice(3, size=2, replace=False))
        out = cluster_step(f, G, interior, None, rng, assert_proper=True)
        for v in interior.complement():
            assert out.values[v] == f.values[v]
        if pair == [2, 3]:
            assert out == f


def test_zero_sweeps_reports_initial_state():
    cfg = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=5, sweeps=0)
    stats = run_experiment(cfg)
    assert stats.samples == 1
    assert all(c == 0 for c in stats.violation_counts)


def test_same_seed_bitwise_identical():
    cfg = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=99, sweeps=400,
                      burn_in=100, thin=3, algorithm="heat-bath+cluster",
                      cluster_every=16)
    s1 = run_experiment(cfg)
    s2 = run_experiment(cfg)
    assert s1 == s2


def test_chains_merge_and_threads_do_not_change_output():
    cfg = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=11, sweeps=150,
                      burn_in=50, chains=3)
    s1 = run_experiment(cfg, threads=1)
    s3 = run_experiment(cfg, threads=3)
    assert s1 == s3
    single = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=11, sweeps=150,
                         burn_in=50, chains=1)
    assert run_experiment(single).samples * 3 == s1.samples


def test_parity_occupation_rows_sum_to_one():
    cfg = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=2, sweeps=300,
                      burn_in=100)
    stats = run_experiment(cfg)
    for row in stats.parity_occupation.values():
        assert abs(sum(row) - 1.0) < 1e-12
    assert stats.split_half_max_diff >= 0.0


def test_random_scan_mode_runs_and_differs():
    cfg_sys = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=3, sweeps=100)
    cfg_rnd = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=3, sweeps=100,
                          scan="random")
    s_sys = run_experiment(cfg_sys)
    s_rnd = run_experiment(cfg_rnd)
    assert s_rnd.samples == s_sys.samples
    assert s_rnd == run_experiment(cfg_rnd)


def test_margin_domain_freezes_exterior():
    cfg = ChainConfig(dims=(6, 6), q=3, pattern=P03, seed=8, sweeps=200,
                      margin=1)
    stats = run_experiment(cfg)
    G = build_graph([6, 6])
    assert all(1 <= c <= 4 for v in stats.vertex_ids
               for c in G.coords(v))


def _stats_digest(stats):
    key = (stats.samples, stats.csv_rows(), stats.split_half_max_diff)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def test_draw_layout_pinned():
    # fixed output bytes for fixed (config, seed) pairs; a kernel that lays
    # out its random draws differently must update these with a version bump
    pinned = [
        (ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=99, sweeps=400,
                     burn_in=100, thin=3, algorithm="heat-bath+cluster",
                     cluster_every=16),
         "59057c5bb214fe7d87dcb766abf5dbc71560af939cf285b5660d830767d49456"),
        # the first-half cut (19th of 37 samples per chain) falls inside
        # the single sweep chunk, where random-scan draws interleave
        (ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=21, sweeps=90,
                     burn_in=17, thin=2, scan="random", chains=3),
         "3f1a310d69cd5727b6db2f8474f4e6ff3efa36eba6aac8cbbc1e6d94ddf7365c"),
        (ChainConfig(dims=(6, 6), q=3, pattern=P03, seed=8, sweeps=200,
                     margin=1),
         "3b47a0af505e013a60e06f55100f30ba31afd958e224860ddc0e48e4c02a19dc"),
    ]
    for cfg, want in pinned:
        assert _stats_digest(run_experiment(cfg)) == want
        assert _stats_digest(run_experiment(cfg, threads=2)) == want
    G = build_graph([5, 5])
    p0 = Pattern.parse(3, P03)
    out = heat_bath_sweep(striped_pattern_coloring(G, p0), G, G.full_set(),
                          p0, make_rng(7))
    assert hashlib.sha256(repr(out.values).encode()).hexdigest() == (
        "cb171b8486933c701aa30b1fb5612fb115022fe5f01a6059fc729372102ad53d")
