import ast
import hashlib
import math
import re
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chroma import sampler
from chroma.coloring import (
    Coloring,
    is_proper,
    pure_pattern_sample,
    striped_pattern_coloring,
)
from chroma.errors import (
    ConfigError,
    InternalInvariantError,
    PreconditionError,
    ResourceLimitError,
)
from chroma.exact import Constraint, allowed_masks, count_colorings, enumerate_colorings
from chroma.lattice import build_graph, interior
from chroma.patterns import Pattern, vertex_in_pattern
from chroma.rng import make_rng
from chroma.sampler import (
    ChainConfig,
    _Kernel,
    _draw_codes,
    _pick,
    _tables,
    cluster_step,
    heat_bath_sweep,
    run_experiment,
    single_site_transition_matrix,
    swappable_components,
)

import oracles
from test_lattice import SHIFT_GRAPHS

P03 = "A=1;B=2,3"


def test_config_validation():
    with pytest.raises(ConfigError):
        ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=5, burn_in=9)
    with pytest.raises(ConfigError):
        ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=5, thin=0)
    with pytest.raises(ConfigError):
        ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=5,
                    algorithm="bogus")


def test_config_refuses_no_chains_no_cluster_interval_and_class1_pattern():
    base = dict(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=5)
    for kwargs, message in (({"chains": 0}, "chains must be >= 1"),
                            ({"algorithm": "heat-bath+cluster", "cluster_every": 0},
                             "cluster_every must be >= 1"),
                            ({"q": -1}, "^q must be >= 2, got -1$")):
        with pytest.raises(ConfigError, match=message):
            ChainConfig(**{**base, **kwargs})
    with pytest.raises(ConfigError, match="dominant with"):
        ChainConfig(**{**base, "pattern": "A=1,2;B=3"}).p0()


def test_inputs_of_another_graph_or_q_are_refused():
    # a coloring of another size, a domain of another graph and a pattern
    # of another q are refused by every entry that reads them, where they
    # were read as part of a box, counted under the wrong masks or gave []
    G = build_graph([8, 8])
    p0 = Pattern.parse(3, P03)
    for dims in ((8, 7), (8, 9)):
        f = striped_pattern_coloring(build_graph(dims), p0)
        for call in (lambda: is_proper(f, G),
                     lambda: heat_bath_sweep(f, G, G.full_set(), p0, make_rng(0)),
                     lambda: cluster_step(f, G, G.full_set(), p0, make_rng(0)),
                     lambda: swappable_components(f, G, G.full_set(), p0, 1, 2)):
            with pytest.raises(PreconditionError, match=f"{len(f.values)} values for 64 cells"):
                call()
    G = build_graph([3, 3])
    f = striped_pattern_coloring(G, p0)
    for a, b in ((0, 1), (2, 4)):   # a HOLE or a color past q is no color to swap
        with pytest.raises(ConfigError, match="outside 1..3"):
            swappable_components(f, G, G.full_set(), p0, a, b)
    other = build_graph([2, 3]).full_set()
    for call in (lambda: count_colorings(G, other, 3),
                 lambda: heat_bath_sweep(f, G, other, p0, make_rng(0)),
                 lambda: heat_bath_sweep(f, G, other, None, make_rng(0))):
        with pytest.raises(PreconditionError, match="a graph of 6 cells, not 9"):
            call()
    f4 = striped_pattern_coloring(G, Pattern.parse(4, "A=1,2;B=3,4"))
    for call in (lambda: count_colorings(G, G.full_set(), 4, Constraint.pattern_boundary(p0)),
                 lambda: heat_bath_sweep(f4, G, G.full_set(), p0, make_rng(0))):
        with pytest.raises(PreconditionError,
                           match=re.escape(f"{p0!r} is not a dominant pattern for q=4")):
            call()
    assert not G.memo


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
        cur = heat_bath_sweep(cur, G, G.full_set(), p0, rng)
        assert is_proper(cur, G)
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


def test_transition_matrix_state_budget():
    # free q = 3 on 2 x 5 has 486 states; the budget refuses before the
    # 486 x 486 matrix exists, and a budget that fits builds it
    G = build_graph([2, 5])
    with pytest.raises(ResourceLimitError):
        single_site_transition_matrix(G, G.full_set(), 3, state_budget=485)
    H = build_graph([2, 2])
    states, P = single_site_transition_matrix(H, H.full_set(), 3, state_budget=18)
    assert len(states) == len(P) == 18


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
    # two far-apart dominoes (odd cell 3, even cell 2) in a q=5 fill of 1 on
    # even and 4 on odd cells: when the move draws the pair {3, 5}, the two
    # odd cells are its only swappable components, each flips to 5 with
    # probability 1/2, and all four outcomes occur
    G = build_graph([7, 7])
    q = 5
    p0 = Pattern.make(q, [1, 2], [3, 4, 5])
    base = Coloring([1 if G.parity[v] == 0 else 4 for v in range(G.n)], q)
    odds = []
    for i, j in [(2, 2), (4, 4)]:
        v, w = G.vid((i, j)), G.vid((i + 1, j))
        odd, even = (v, w) if G.parity[v] == 1 else (w, v)
        base.values[odd] = 3
        base.values[even] = 2
        odds.append(odd)
    assert is_proper(base, G)
    comps = swappable_components(base, G, G.full_set(), p0, 3, 5)
    assert sorted(comp.ids() for comp in comps) == sorted((v,) for v in odds)
    outcomes = Counter()
    for seed in range(400):
        # the seeds whose drawn pair is {3, 5}, found with a probe rng
        probe = make_rng(seed)
        if sorted(int(x) + 1 for x in probe.choice(q, size=2, replace=False)) != [3, 5]:
            continue
        out = cluster_step(base, G, G.full_set(), p0, make_rng(seed))
        assert is_proper(out, G)
        flipped = tuple(v for v in range(G.n) if out.values[v] != base.values[v])
        assert set(flipped) <= set(odds)
        assert all(out.values[v] == 5 for v in flipped)
        outcomes[flipped] += 1
    assert len(outcomes) == 4, outcomes


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
        out = cluster_step(f, G, interior, None, rng)
        assert is_proper(out, G)
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


def test_margin_domain_freezes_exterior():
    cfg = ChainConfig(dims=(6, 6), q=3, pattern=P03, seed=8, sweeps=200,
                      margin=1)
    stats = run_experiment(cfg)
    G = build_graph([6, 6])
    assert all(1 <= c <= 4 for v in stats.vertex_ids
               for c in G.coords(v))


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_margin_domain_matches_depth_loop(dims, periodic):
    # the cells at L-inf depth >= margin along every non-periodic axis
    G = build_graph(dims, periodic)
    for margin in range(4):
        cfg = ChainConfig(dims=dims, q=3, pattern=P03, seed=1, sweeps=1,
                          periodic=periodic, margin=margin)
        want = {v for v in range(G.n)
                if all(per or margin <= c < length - margin for c, length, per
                       in zip(oracles.coords_of(dims, v), dims, periodic))}
        if want:
            assert set(cfg.domain(G).ids()) == want
        else:
            with pytest.raises(ConfigError):
                cfg.domain(G)


def _oracle_swappable(f, dims, periodic, domain, constrained, a, b):
    # flood the a/b cells a move may touch and drop every component next to
    # an a/b cell it may not
    n = len(f.values)
    nbrs = [oracles.neighbors_of(dims, periodic, v) for v in range(n)]

    def on_rim(v):
        return any(not per and c in (0, length - 1) for c, length, per
                   in zip(oracles.coords_of(dims, v), dims, periodic))

    free = {v for v in domain
            if not constrained or not (on_rim(v) or any(u not in domain for u in nbrs[v]))}
    ab = {v for v in range(n) if f.values[v] in (a, b)}
    stuck = ab - free
    return [sorted(comp) for comp in oracles.flood_components(dims, periodic, ab & free)
            if not any(u in stuck for v in comp for u in nbrs[v])]


@pytest.mark.parametrize("dims,periodic", SHIFT_GRAPHS)
def test_swappable_components_match_oracle(dims, periodic):
    G = build_graph(dims, periodic)
    inner = G.vertex_set(
        v for v in range(G.n)
        if all(per or 1 <= c < length - 1 for c, length, per
               in zip(oracles.coords_of(dims, v), dims, periodic)))
    domains = [dom for dom in (inner, G.full_set()) if dom]
    for q, text in ((3, P03), (4, "A=1,2;B=3,4")):
        p0 = Pattern.parse(q, text)
        rng = make_rng(q)
        f = pure_pattern_sample(G, G.full_set(), p0, seed=q)
        for sweep_p0 in (p0, None, None):
            f = heat_bath_sweep(f, G, domains[0], sweep_p0, rng)
            for dom in domains:
                members = set(dom.ids())
                for p in (p0, None):
                    for a in range(1, q + 1):
                        for b in range(a + 1, q + 1):
                            got = [list(c.ids()) for c in
                                   swappable_components(f, G, dom, p, a, b)]
                            assert got == _oracle_swappable(
                                f, dims, periodic, members, p is not None, a, b)


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
         "faa67dead4fe4851920dc66b242a2c5e52f9fbf482ca62873559ef9d5c54bc53"),
        # three chains in one batch; the first-half cut (19th of 37 samples
        # per chain) falls inside the single block of sweep draws
        (ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=21, sweeps=90,
                     burn_in=17, thin=2, chains=3),
         "c810350bfbc754b09a30b68e8277832e05ef94b0e6340b423b920976c6da545b"),
        (ChainConfig(dims=(6, 6), q=3, pattern=P03, seed=8, sweeps=200,
                     margin=1),
         "12b0d922d28c9ae354342e117ddd23b4aca7f19c58d507955805bc927f3098c9"),
    ]
    for cfg, want in pinned:
        assert _stats_digest(run_experiment(cfg)) == want
        assert _stats_digest(run_experiment(cfg, threads=2)) == want
    G = build_graph([5, 5])
    p0 = Pattern.parse(3, P03)
    out = heat_bath_sweep(striped_pattern_coloring(G, p0), G, G.full_set(),
                          p0, make_rng(7))
    assert hashlib.sha256(repr(out.values.tolist()).encode()).hexdigest() == (
        "d4434f01135f9b751c75973e8343d2a36460f4571023d0fc33e405ec82d15b40")


@pytest.mark.parametrize("cfg,want", [
    # four chains of 24x24 in one batch
    (ChainConfig(dims=(24, 24), q=3, pattern=P03, seed=5, sweeps=60, chains=4),
     "bef60eb7158914a11ba83469b29b175d7ad0e03d6c57e9facc4225ea5e736aeb"),
    # a cluster move after every sweep, with many singleton components
    (ChainConfig(dims=(8, 8, 8), q=4, pattern="A=1,2;B=3,4", seed=6, sweeps=60,
                 algorithm="heat-bath+cluster", cluster_every=1),
     "099a3c20abb41fef0d67e9f25f16fe4e44631c673d5498e0be4801b2c53945d5"),
    # 2100 sweeps of 16 cells cross the 2048-sweep block of draws
    (ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=7, sweeps=2100),
     "d9d522e75835570afeb7e6d7d10cf818f65aa9580c5cc63b389bcf14f83ade6f"),
    # three chains of a critical q=3 torus, a move after every sweep: large
    # components, and each chain moves on its own row of the batch
    (ChainConfig(dims=(16, 16), q=3, pattern=P03, seed=23, sweeps=40, periodic=(True, True),
                 algorithm="heat-bath+cluster", cluster_every=1, chains=3),
     "af7fd03dd897c5e8769c33c17a79b30ebac2fbab05f12a17c798f37f6a6a9a24"),
    # a q=5 box with a frozen exterior two cells deep, whose cells taint
    # the components next to them
    (ChainConfig(dims=(8, 8), q=5, pattern="A=1,2;B=3,4,5", seed=23, sweeps=60, margin=2,
                 algorithm="heat-bath+cluster", cluster_every=1, chains=2),
     "ce01e1ea90e4861d377204ff94d502f4218ca9bb12689e2bb36066c5c9a6734b"),
])
def test_chain_outputs_pinned(cfg, want):
    assert _stats_digest(run_experiment(cfg)) == want


def test_cluster_step_nothing_swappable_draws_nothing():
    # q = 2 on a chessboard with a frozen rim: the one pair's component
    # touches the rim, so the move draws no flip and leaves the stream where
    # the pair draw left it
    G = build_graph([4, 4])
    f = Coloring([1 + G.parity[v] for v in range(G.n)], 2)
    inner = G.vertex_set(v for v in range(G.n) if all(1 <= c <= 2 for c in G.coords(v)))
    rng = make_rng(23)
    out = cluster_step(f, G, inner, None, rng)
    assert is_proper(out, G)
    assert out == f
    assert rng.random() == 0.29437939405718616


def test_swappable_components_pinned():
    # fixed cluster-move outputs on fixed instances (boxes, a mixed torus,
    # q = 3, 4, 5; pattern-constrained and free states, inner and full domains)
    instances = [((8, 8), None, 3, "A=1;B=2,3"), ((6, 6, 4), None, 4, "A=1,2;B=3,4"),
                 ((6, 6), (True, False), 5, "A=1,2;B=3,4,5")]
    comps, steps = [], []
    for dims, periodic, q, text in instances:
        G = build_graph(dims, periodic)
        p0 = Pattern.parse(q, text)
        inner = G.vertex_set(
            v for v in range(G.n)
            if all(G.periodic[a] or 1 <= c < G.dims[a] - 1
                   for a, c in enumerate(G.coords(v))))
        rng = make_rng(11)
        f = striped_pattern_coloring(G, p0)
        for sweep_p0 in (p0, p0, None, None):
            f = heat_bath_sweep(f, G, inner, sweep_p0, rng)
            for dom in (inner, G.full_set()):
                for p in (p0, None):
                    for a in range(1, q + 1):
                        for b in range(a + 1, q + 1):
                            comps.append([c.ids() for c in
                                          swappable_components(f, G, dom, p, a, b)])
                    steps.append(cluster_step(f, G, dom, p, rng).values.tolist())
    digest = [hashlib.sha256(repr(x).encode()).hexdigest() for x in (comps, steps)]
    assert digest == [
        "a29833835bfcf79bb5656e46ff3077c382f2c685a47be2ae99a0e35b64f7cfa2",
        "ac4711c52ebe0455f7d4857592ecf37c2cef138c42a9a4712ebc21ed1992de72",
    ]


# -- the parity-block kernel ---------------------------------------------------


class _GridDraws:
    """Stands in for a generator: every uniform it returns is ``r``."""

    def __init__(self, r):
        self.r = r

    def random(self, size):
        return np.full(size, self.r)


def _scan_order(G, domain):
    return ([v for v in domain if G.parity[v] == 0]
            + [v for v in domain if G.parity[v] == 1])


def _cell_by_cell_sweep(f, G, domain, p0, draws):
    # the scan the kernel makes, one cell at a time: even domain cells, then
    # odd ones, in ascending id order, the k-th draw serving the k-th cell
    q = f.q
    masks = (allowed_masks(G, domain, q, Constraint.pattern_boundary(p0))[0]
             if p0 is not None else [(1 << q) - 1] * G.n)
    colors = f.values.tolist()
    for v, r in zip(_scan_order(G, domain), draws):
        used = 0
        for u in G.neighbors[v]:
            if colors[u]:
                used |= 1 << (colors[u] - 1)
        avail = masks[v] & ~used
        for _ in range(int(r * avail.bit_count())):
            avail &= avail - 1
        colors[v] = (avail & -avail).bit_length()
    return colors


GRAPHS = [((5, 5), None), ((4, 4, 3), (True, False, False)), ((1, 7), None),
          ((2, 6), (True, False)), ((6, 4), (True, True))]


def test_neighbor_table_matches_graph():
    for dims, periodic in GRAPHS:
        G = build_graph(dims, periodic)
        table = G.neighbor_table
        assert table.shape == (G.full_degree, G.n)
        periodic = periodic or (False,) * len(dims)
        for v in range(G.n):
            assert (set(table[:, v].tolist()) - {-1}
                    == set(oracles.neighbors_of(dims, periodic, v)))


def test_lookup_tables_match_bit_counts():
    for q in (2, 3, 7):
        free, kth, color = _tables(q)
        for m in range(1 << q):
            bits = [1 << c for c in range(q) if not m >> c & 1]
            assert free[m] == len(bits)
            assert kth[m].tolist() == bits + [0] * (q - len(bits))
        assert color.tolist() == [
            m.bit_length() if m & (m - 1) == 0 else 0 for m in range(1 << q)]


def _float_bits(u):
    return struct.unpack("<q", struct.pack("<d", u))[0]


def _bits_float(k):
    return struct.unpack("<d", struct.pack("<q", k))[0]


def _first_at_least(a, n):
    # the smallest double u >= 0 with int(u * n) >= a, by bisection over the
    # bit patterns, which order non-negative doubles as integers
    lo, hi = 0, _float_bits(1.0)
    while lo < hi:
        mid = (lo + hi) // 2
        if int(_bits_float(mid) * n) >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_pick_table_matches_rank_rule():
    # for every q, at each step of floor(u * n) and 4 ulps around it, at the
    # ends of [0, 1) and at random draws, the table gives the free color of
    # rank floor(u * count) under every mask (random masks for q >= 12)
    rng = make_rng(13)
    top = math.nextafter(1.0, 0.0)
    for q in range(1, 17):
        free, kth, _ = _tables(q)
        pick = _pick(q)
        assert pick.dtype == np.uint16 and pick.size == (q * (q - 1) // 2 + 1) << q
        us = [0.0, top] + rng.random(200).tolist()
        for n in range(2, q + 1):
            for a in range(1, n):
                k = _first_at_least(a, n)
                us += [_bits_float(k + d) for d in range(-4, 5)]
        us = np.array(us)
        codes = _draw_codes(us, q)
        assert codes.max() >> q == q * (q - 1) // 2 <= np.iinfo(np.int8).max
        masks = np.arange(1 << q) if q < 12 else rng.integers(0, 1 << q, 300)
        for chunk in np.array_split(masks, max(1, len(masks) // 256)):
            rank = (us[:, None] * free[chunk]).astype(np.intp)
            assert (pick[codes[:, None] + chunk] == kth[chunk, rank]).all()
    assert _pick(16).nbytes <= 16 * 2 ** 20


def test_kernel_matches_cell_by_cell_scan():
    for dims, periodic in GRAPHS:
        G = build_graph(dims, periodic)
        p0 = Pattern.parse(3, P03)
        inner = G.vertex_set(
            v for v in range(G.n)
            if all(G.periodic[a] or 1 <= c < G.dims[a] - 1
                   for a, c in enumerate(G.coords(v))))
        odd_cells = G.vertex_set(v for v in range(G.n) if v % 3 == 1)
        for seed in range(3):
            f = pure_pattern_sample(G, G.full_set(), p0, seed=seed)
            holed = f.copy()
            for v in range(0, G.n, 4):
                holed.values[v] = 0
            for start, domain, p in ((f, G.full_set(), p0), (f, inner, p0),
                                     (holed, odd_cells, None), (holed, G.full_set(), None)):
                if not domain:
                    continue
                out = heat_bath_sweep(start, G, domain, p, make_rng(seed))
                draws = make_rng(seed).random(len(domain))
                assert out.values.tolist() == _cell_by_cell_sweep(start, G, domain, p, draws)


def test_batched_chains_match_single_chains():
    G = build_graph((6, 6), (True, False))
    p0 = Pattern.parse(4, "A=1,2;B=3,4")
    domain = G.vertex_set(v for v in range(G.n) if 1 <= G.coords(v)[1] <= 4)
    starts = [pure_pattern_sample(G, G.full_set(), p0, seed=s) for s in range(3)]
    for p in (p0, None):
        batch = _Kernel(G, domain, p, starts)
        singles = [_Kernel(G, domain, p, [f]) for f in starts]
        rng = make_rng(3)
        for _ in range(20):
            codes = _draw_codes(rng.random((3, 1, batch.n_scan)), 4)
            batch.sweeps(codes, range(0), None)
            for c, kernel in enumerate(singles):
                kernel.sweeps(codes[c:c + 1], range(0), None)
        assert [batch.coloring(c) for c in range(3)] == [k.coloring(0) for k in singles]


def test_lone_sweep_matches_batch_row():
    # heat_bath_sweep runs one chain on the layout's reads without a copy;
    # on the draws its stream makes, it must equal that chain's row of a batch
    for dims, periodic, q, text in (((24, 24), None, 3, P03),
                                    ((6, 6), (True, False), 4, "A=1,2;B=3,4")):
        G = build_graph(dims, periodic)
        p0 = Pattern.parse(q, text)
        inner = G.vertex_set(v for v in range(G.n) if 1 <= G.coords(v)[1] < dims[1] - 1)
        for domain, p in ((G.full_set(), p0), (inner, p0), (inner, None)):
            starts = [pure_pattern_sample(G, G.full_set(), p0, seed=s) for s in range(3)]
            lone = _Kernel(G, domain, p, starts[:1])
            for (_, _, reads), (_, _, flat, _) in zip(sampler._layout(G, domain, p, q).spans,
                                                      lone.blocks):
                assert np.shares_memory(flat, reads)
            batch = _Kernel(G, domain, p, starts)
            draws = [make_rng(9, stream=c).random((1, 1, batch.n_scan)) for c in range(3)]
            batch.sweeps(_draw_codes(np.concatenate(draws), q), range(0), None)
            for c, f in enumerate(starts):
                assert heat_bath_sweep(f, G, domain, p, make_rng(9, stream=c)) == batch.coloring(c)


def _sequential_scan_rows(G, q, masks, states, order):
    # exact transition rows of single-site heat-bath updates of the cells in
    # `order`, one after another
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for s in states:
        law = {s: Fraction(1)}
        for v in order:
            nxt = {}
            for t, p in law.items():
                used = 0
                for u in G.neighbors[v]:
                    used |= 1 << (t[u] - 1)
                avail = masks[v] & ~used
                for c in range(1, q + 1):
                    if avail >> (c - 1) & 1:
                        w = t[:v] + (c,) + t[v + 1:]
                        nxt[w] = nxt.get(w, 0) + p / avail.bit_count()
            law = nxt
        rows.append({index[t]: p for t, p in law.items()})
    return rows


def _compose(first, second):
    out = []
    for row in first:
        acc = {}
        for j, p in row.items():
            for k, w in second[j].items():
                acc[k] = acc.get(k, 0) + p * w
        out.append(acc)
    return out


def test_kernel_sweep_keeps_uniform_stationary():
    # drive the real half-steps with one chain per (state, grid draw); on the
    # grid r = (j + 1/2) / lcm(1..q) every rank floor(r * n) is hit equally
    # often, so each cell's outcome over the grid is its exact law, and the
    # cells of one block move independently given the other block
    for dims, q, text in (((2, 2), 3, None), ((2, 2), 3, P03), ((2, 2), 4, None),
                          ((3, 3), 3, None), ((3, 3), 3, P03)):
        G = build_graph(dims)
        p0 = Pattern.parse(q, text) if text else None
        constraint = Constraint.pattern_boundary(p0) if p0 else Constraint.free()
        masks, _ = allowed_masks(G, G.full_set(), q, constraint)
        states = sorted(tuple(a[v] for v in range(G.n))
                        for a in enumerate_colorings(G, G.full_set(), masks))
        index = {s: i for i, s in enumerate(states)}
        grid = math.lcm(*range(1, q + 1))
        batch = [Coloring(list(s), q) for s in states for _ in range(grid)]
        draws = np.repeat(np.tile((np.arange(grid) + 0.5) / grid, len(states))[:, None],
                          G.n, axis=1)
        halves = []
        for h in range(2):
            kernel = _Kernel(G, G.full_set(), p0, batch)
            block = kernel.blocks[h]
            kernel.half_step(block, _draw_codes(draws, q))
            lo, hi = block[0], block[1]
            moved = kernel.color[kernel.x[:, lo:hi]].reshape(len(states), grid, hi - lo)
            rows = []
            for i, s in enumerate(states):
                law = {s: Fraction(1)}
                for t, v in enumerate(kernel.cells[lo:hi].tolist()):
                    nxt = {}
                    for u, p in law.items():
                        for c, m in Counter(moved[i, :, t].tolist()).items():
                            w = u[:v] + (c,) + u[v + 1:]
                            nxt[w] = nxt.get(w, 0) + p * Fraction(m, grid)
                    law = nxt
                rows.append({index[u]: p for u, p in law.items()})
            halves.append(rows)
        P = _compose(*halves)
        assert P == _sequential_scan_rows(G, q, masks, states, _scan_order(G, G.full_set()))
        for row in P:
            assert sum(row.values()) == 1
        column = [Fraction(0)] * len(states)
        for row in P:
            for j, p in row.items():
                column[j] += p
        assert column == [1] * len(states)   # uniform is stationary


def test_hole_neighbours_block_nothing():
    # every neighbour but one is HOLE: the cell is uniform on the other q - 1
    q = 4
    G = build_graph([3, 3])
    center = G.vid((1, 1))
    f = Coloring([0] * G.n, q)
    f.values[G.vid((0, 1))] = 2
    grid = math.lcm(*range(1, q + 1))
    seen = Counter()
    for j in range(grid):
        out = heat_bath_sweep(f, G, G.vertex_set([center]), None,
                              _GridDraws((j + 0.5) / grid))
        assert all(out.values[v] == f.values[v] for v in range(G.n) if v != center)
        seen[out.values[center]] += 1
    assert seen == {1: grid // 3, 3: grid // 3, 4: grid // 3}


def test_more_than_sixteen_colors_refused():
    text17 = "A=" + ",".join(map(str, range(1, 9))) + ";B=" + ",".join(
        map(str, range(9, 18)))
    with pytest.raises(ConfigError):
        ChainConfig(dims=(4, 4), q=17, pattern=text17, seed=1, sweeps=5)
    G = build_graph([3, 3])
    for q in (16, 17):
        f = Coloring([1 + G.parity[v] for v in range(G.n)], q)
        if q == 16:
            out = heat_bath_sweep(f, G, G.full_set(), None, make_rng(0))
            assert is_proper(out, G)
            assert is_proper(cluster_step(f, G, G.full_set(), None, make_rng(0)), G)
        else:
            with pytest.raises(ConfigError):
                heat_bath_sweep(f, G, G.full_set(), None, make_rng(0))
            # the cluster move runs on kernel rows, whose bits hold 16 colors
            with pytest.raises(ConfigError):
                cluster_step(f, G, G.full_set(), None, make_rng(0))


def test_cluster_move_every_cluster_every_sweeps(monkeypatch):
    # after sweeps 16, 32, ..., 384 of 400: 24 moves per chain, whatever
    # sweep the split-half cut falls on
    calls = []
    real = sampler._cluster_move

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampler, "_cluster_move", counting)
    for chains in (1, 2):
        calls.clear()
        run_experiment(ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=99, sweeps=400,
                                   burn_in=100, thin=3, algorithm="heat-bath+cluster",
                                   cluster_every=16, chains=chains))
        assert len(calls) == 24 * chains


def test_draw_and_tally_blocks_change_no_output(monkeypatch):
    cfgs = [ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=5, sweeps=60, burn_in=7,
                        thin=2, algorithm="heat-bath+cluster", cluster_every=5, chains=2),
            ChainConfig(dims=(5, 4), q=4, pattern="A=1,2;B=3,4", seed=6, sweeps=45,
                        chains=3, margin=1)]
    want = [run_experiment(cfg) for cfg in cfgs]
    monkeypatch.setattr(sampler, "_DRAW_BLOCK", 37)
    assert [run_experiment(cfg) for cfg in cfgs] == want


def test_stuck_chain_reported(monkeypatch):
    # an initial state outside the constraint leaves the corner cell no
    # color; the chain reports it (exit 3) instead of tallying a HOLE, on
    # either sweep path
    G = build_graph([4, 4])
    p0 = Pattern.parse(3, P03)
    bad = striped_pattern_coloring(G, p0)
    for v in G.neighbors[G.vid((0, 0))]:
        bad.values[v] = 1
    monkeypatch.setattr(sampler, "pure_pattern_sample", lambda *a, **k: bad.copy())
    cfg = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=10)
    with pytest.raises(InternalInvariantError):
        run_experiment(cfg)
    for loop in (True, False):
        with pytest.raises(InternalInvariantError):
            _on_path(monkeypatch, loop, lambda: run_experiment(cfg))


def test_sweep_layout_memo_changes_no_output():
    # four chains, one per (domain, pattern), sweep in turn on one graph,
    # so its sweep layouts are reused across calls; every output equals a
    # sweep on a freshly built graph with the same draws
    dims, periodic = (6, 6), (True, False)
    G = build_graph(dims, periodic)
    inner = G.vertex_set(v for v in range(G.n) if 1 <= G.coords(v)[1] <= 4)
    runs = []
    for i, (domain, text) in enumerate([(G.full_set(), P03), (inner, "A=2;B=1,3"),
                                        (inner, P03), (G.full_set(), "A=2;B=1,3")]):
        p = Pattern.parse(3, text)
        f = pure_pattern_sample(G, G.full_set(), p, seed=i)
        runs.append([domain, p, f, f, make_rng(i), make_rng(i)])
    for _ in range(5):
        for run in runs:
            domain, p, shared, fresh, rng_shared, rng_fresh = run
            run[2] = heat_bath_sweep(shared, G, domain, p, rng_shared)
            run[3] = heat_bath_sweep(fresh, build_graph(dims, periodic), domain, p, rng_fresh)
            assert run[2].values.tolist() == run[3].values.tolist()
    assert len(G.memo) == 4
    assert sampler._layout(G, inner, runs[1][1], 3) is sampler._layout(G, inner, runs[1][1], 3)


def test_infeasible_boundary_refused_on_every_call():
    # a 5-color pattern is refused under a 3-coloring (allowed_masks takes
    # a pattern of its own q only): nothing is kept, and a repeat call is
    # refused again; a state outside the constraint is refused every time too
    G = build_graph([4, 4])
    f = striped_pattern_coloring(G, Pattern.parse(3, P03))
    far = Pattern.parse(5, "A=4,5;B=1,2,3")
    for _ in range(3):
        with pytest.raises(PreconditionError):
            heat_bath_sweep(f, G, G.full_set(), far, make_rng(0))
    assert not G.memo
    p0 = Pattern.parse(3, P03)
    bad = f.copy()
    for v in G.neighbors[G.vid((0, 0))]:
        bad.values[v] = 1
    for _ in range(3):
        with pytest.raises(PreconditionError):
            heat_bath_sweep(bad, G, G.full_set(), p0, make_rng(0))
        heat_bath_sweep(f, G, G.full_set(), p0, make_rng(0))


# -- the loop path for small batches --------------------------------------------


LOOP_CONFIGS = [
    ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=3, sweeps=300, burn_in=20),
    ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=4, sweeps=300, burn_in=20, thin=2,
                chains=3),
    ChainConfig(dims=(6, 6), q=3, pattern=P03, seed=8, sweeps=200, margin=1),
    ChainConfig(dims=(6, 6), q=4, pattern="A=1,2;B=3,4", seed=9, sweeps=150,
                periodic=(True, False)),
    ChainConfig(dims=(4, 4, 4), q=4, pattern="A=1,2;B=3,4", seed=10, sweeps=120),
    ChainConfig(dims=(5, 4), q=3, pattern=P03, seed=12, sweeps=260, burn_in=33, thin=4,
                algorithm="heat-bath+cluster", cluster_every=7, chains=2),
    # one chain of 64 cells
    ChainConfig(dims=(8, 8), q=3, pattern=P03, seed=13, sweeps=150, burn_in=10, thin=2),
    # a 4-D box: eight neighbors a cell
    ChainConfig(dims=(2, 2, 2, 2), q=4, pattern="A=1,2;B=3,4", seed=14, sweeps=200,
                burn_in=5),
    # a periodic length-2 axis reaches one neighbor both ways
    ChainConfig(dims=(4, 2), q=3, pattern=P03, seed=15, sweeps=250, periodic=(False, True),
                algorithm="heat-bath+cluster", cluster_every=9),
]
LOOP_DIGESTS = [   # the _stats_digest of each of LOOP_CONFIGS
    "f041fd09c8b3e6ff0d7ac0a0744386fb8fe18a44607b8f140d460f07a9ae281b",
    "4f1ba2ecb55259269f49d5650a23d1e267599398ee7afd863bc0cebb9f71f2ef",
    "12b0d922d28c9ae354342e117ddd23b4aca7f19c58d507955805bc927f3098c9",
    "ff0ec2b2dfbc20e9c728ec4239dae247f4cb8f87cd22404d548ecbdd441565af",
    "132f76d74e1cdc10a15b34ae10d8fdb844e67f8fcc7f27b6be1531ceb5c35c72",
    "c6a9ae809dd23093123c941674ba1fd1a142a0c0485ab41858cafeeb50e51b7c",
    "878a37944b68229ce1f4affd04e6513f2a85c747a30fb50c615bacc72099dc14",
    "60d4f92eb9a7b84fc9a129c4ccfe685872942d0d44f6b649b7e4788636dfc6e4",
    "03899bc9ceae7d8fa52c4b1a569971b23534b8fb88a2fbec584059dff48d79cc",
]


def _on_path(monkeypatch, loop, run):
    # every kernel that `run` makes takes the loop path (loop=True) or the
    # numpy half-steps (loop=False)
    monkeypatch.setattr(sampler, "_LOOP_CELLS", 10 ** 9 if loop else 0)
    paths = []
    real = sampler._Kernel.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        paths.append(self.loop is not None)

    monkeypatch.setattr(sampler._Kernel, "__init__", init)
    try:
        return run()
    finally:
        monkeypatch.setattr(sampler._Kernel, "__init__", real)
        assert paths and set(paths) == {loop}


@pytest.mark.parametrize("cfg", LOOP_CONFIGS)
def test_loop_and_numpy_paths_agree(monkeypatch, cfg):
    loop = _on_path(monkeypatch, True, lambda: run_experiment(cfg))
    numpy_ = _on_path(monkeypatch, False, lambda: run_experiment(cfg))
    assert loop == numpy_
    assert _stats_digest(loop) == LOOP_DIGESTS[LOOP_CONFIGS.index(cfg)]
    assert loop.samples == cfg.chains * ((cfg.sweeps - cfg.burn_in) // cfg.thin + 1)


def test_lone_sweep_same_on_both_paths(monkeypatch):
    for dims, periodic, q, text in (((5, 5), None, 3, P03), ((4, 4, 3), None, 4, "A=1,2;B=3,4"),
                                    ((6, 4), (True, True), 3, P03)):
        G = build_graph(dims, periodic)
        p0 = Pattern.parse(q, text)
        inner = G.vertex_set(v for v in range(G.n) if 1 <= G.coords(v)[0] < dims[0] - 1)
        f = pure_pattern_sample(G, G.full_set(), p0, seed=1)
        for domain, p in ((G.full_set(), p0), (inner, p0), (inner, None)):
            outs = [_on_path(monkeypatch, loop,
                             lambda: heat_bath_sweep(f, G, domain, p, make_rng(5)))
                    for loop in (True, False)]
            assert outs[0] == outs[1]
            assert outs[0].values[~sampler._unpack(domain)].tolist() == (
                f.values[~sampler._unpack(domain)].tolist())


def test_loop_rows_built_only_for_the_loop_and_kept():
    # a 4x4 chain and a 4-D box (eight neighbors a cell) take the loop and
    # keep its function on the layout, shared by every kernel of its key and
    # by every graph of the same layout; a 24x24 chain takes the numpy
    # half-steps and builds none
    p0 = Pattern.parse(3, P03)
    for dims, loop in (((4, 4), True), ((24, 24), False), ((2, 2, 2, 2), True)):
        G = build_graph(dims)
        f = pure_pattern_sample(G, G.full_set(), p0, seed=1)
        kernel = _Kernel(G, G.full_set(), p0, [f])
        layout = sampler._layout(G, G.full_set(), p0, 3)
        assert (kernel.loop is not None) == loop
        assert ("loop" in vars(layout)) == loop
        if loop:
            assert _Kernel(G, G.full_set(), p0, [f]).loop is kernel.loop
            sweeps, columns = kernel.loop
            live = layout.live.tolist()
            assert 0 < len(live) < kernel.n_scan   # the A side's cells have one color
            held = []   # one sweep, recorded, returns and records every live cell
            x = sweeps(kernel.x[0, columns].tolist(), iter([(0, *[0] * len(live))]), [0], held,
                       sampler._pick_list(3))
            assert len(x) == len(live) and held == list(x)
            # a new graph of the same layout reuses the compiled function
            G2 = build_graph(dims)
            assert _Kernel(G2, G2.full_set(), p0, [f]).loop[0] is sweeps
            assert columns[:len(live)].tolist() == live
    # above q = 8 the table is no short list, so even a 4x4 chain takes numpy
    G = build_graph([4, 4])
    f = Coloring([1 + G.parity[v] for v in range(G.n)], 9)
    assert _Kernel(G, G.full_set(), None, [f]).loop is None


def _sweep_source(monkeypatch, G, domain, p, q):
    # the source _sweep_function writes for this layout, built afresh past
    # its cache
    sources = []
    monkeypatch.setattr(sampler, "_sweep_function", sampler._sweep_function.__wrapped__)
    monkeypatch.setattr(sampler, "compile",
                        lambda text, *args: sources.append(text) or compile(text, *args),
                        raising=False)
    layout = sampler._layout(G, domain, p, q)
    _, columns = layout.loop
    monkeypatch.undo()
    return sources[0], columns, layout


def test_sweep_source_has_no_line_for_a_one_color_cell(monkeypatch):
    # q = 3, A=1;B=2,3: the A side's boundary cells keep color 1, so the
    # function assigns, unpacks and records only the other cells, and folds
    # the one-color neighbors' bit into each reader's constant
    G = build_graph([4, 4])
    source, columns, layout = _sweep_source(monkeypatch, G, G.full_set(), Pattern.parse(3, P03), 3)
    around, bits, _ = layout.fixed
    fixed = around[0]   # the one-color cells' scan columns
    assert len(fixed) == 6 and len(layout.live) == 10 and (bits == 1).all()
    assert (layout.single[fixed] == 1).all() and not layout.single[layout.live].any()
    assert not set(columns.tolist()) & set(fixed.tolist())
    tree = ast.parse(source)
    assigned = [t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)]
    assert assigned == [f"x{k}" for k in range(10)]
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
    assert [t.id for t in loop.target.elts] == ["j"] + [f"c{k}" for k in range(10)]


def test_sweep_source_names_only_its_locals_and_integers(monkeypatch):
    # the exec'd source reads nothing but its own arguments and locals and
    # integers from the layout: no call, attribute, import or other name
    cases = [((4, 4), None, 3, P03, 0), ((3, 3), None, 3, P03, 1),
             ((6, 6), (True, False), 4, "A=1,2;B=3,4", 1),
             ((2, 2, 2, 2), None, 4, "A=1,2;B=3,4", 0), ((4, 2), (False, True), 3, P03, 0),
             ((5, 4), None, 3, None, 1), ((3, 3), None, 5, "A=1,2;B=3,4,5", 0)]
    allowed = re.compile(r"[xc]\d+|j|x|it|keep|held|pick")
    for dims, periodic, q, text, margin in cases:
        G = build_graph(dims, periodic)
        domain = interior(G, margin)
        p = Pattern.parse(q, text) if text else None
        source, _, _ = _sweep_source(monkeypatch, G, domain, p, q)
        for node in ast.walk(ast.parse(source)):
            assert not isinstance(node, (ast.Call, ast.Attribute, ast.Import, ast.ImportFrom,
                                         ast.Global, ast.Nonlocal, ast.Lambda)), source
            if isinstance(node, ast.Name):
                assert allowed.fullmatch(node.id), (node.id, source)
            if isinstance(node, ast.Constant):
                assert type(node.value) is int, (node.value, source)


def test_layout_of_one_color_cells_only_sweeps_and_records(monkeypatch):
    # the 3x3 box at margin 1 is its centre alone, on the A side: no cell
    # is live, yet every sweep runs and every sample records color 1
    cfg = ChainConfig(dims=(3, 3), q=3, pattern=P03, seed=21, sweeps=40, burn_in=3, thin=2,
                      chains=2, margin=1)
    G = cfg.graph()
    layout = sampler._layout(G, cfg.domain(G), cfg.p0(), 3)
    assert layout.n_scan == 1 and len(layout.live) == 0
    runs = [_on_path(monkeypatch, loop, lambda: run_experiment(cfg)) for loop in (True, False)]
    assert runs[0] == runs[1]
    assert runs[0].samples == 2 * ((40 - 3) // 2 + 1)
    assert runs[0].occupation_counts == ((runs[0].samples, 0, 0),)


def test_both_paths_refuse_the_same_bad_starts(monkeypatch):
    # the corner of a 4x4 box is an A-side cell whose one color is 1; a
    # start with it off 1, or a neighbor holding 1, is refused on both
    # paths, including the start with it on 3 and 1 free, which no sweep
    # is needed to repair
    G = build_graph([4, 4])
    p0 = Pattern.parse(3, P03)
    good = striped_pattern_coloring(G, p0)
    corner = G.vid((0, 0))
    blocked = good.copy()            # off its color, and 1 blocked
    blocked.values[corner] = 2
    for v in G.neighbors[corner]:
        blocked.values[v] = 1
    crowded = good.copy()            # on its color, a neighbor holding it
    crowded.values[G.neighbors[corner][0]] = 1
    free = good.copy()               # off its color, 1 free around it
    free.values[corner] = 3
    for v in G.neighbors[corner]:
        free.values[v] = 2
    assert not _Kernel(G, G.full_set(), p0, [good]).stuck()
    for bad in (blocked, crowded, free):
        assert _Kernel(G, G.full_set(), p0, [bad]).stuck()
        assert _Kernel(G, G.full_set(), p0, [good, bad, good]).stuck()
        for loop in (True, False):
            with pytest.raises(PreconditionError):
                _on_path(monkeypatch, loop,
                         lambda: heat_bath_sweep(bad, G, G.full_set(), p0, make_rng(0)))
            monkeypatch.setattr(sampler, "pure_pattern_sample", lambda *a, **k: bad.copy())
            cfg = ChainConfig(dims=(4, 4), q=3, pattern=P03, seed=1, sweeps=10)
            with pytest.raises(InternalInvariantError):
                _on_path(monkeypatch, loop, lambda: run_experiment(cfg))
            monkeypatch.undo()


def test_csv_rows_are_python_quotients():
    stats = run_experiment(ChainConfig(dims=(5, 4), q=4, pattern="A=1,2;B=3,4", seed=2,
                                       sweeps=70, chains=3, margin=1))
    n = stats.samples
    want = [[v, stats.violation_counts[i] / n, *(c / n for c in stats.occupation_counts[i])]
            for i, v in enumerate(stats.vertex_ids)]
    rows = stats.csv_rows()
    assert rows == want and repr(rows) == repr(want)
    assert all(type(x) in (int, float) for row in rows for x in row)
