"""The three workloads: inputs made from a seed, a fixed op list, a check per op.

Each builder takes the workload seed, makes every random input itself
(loading the stored reference data only if it needs it) and returns the
``Workload``: the op list one
pass runs.  An op is one timed call into the library's public functions
(a breakup instance is three); its check runs after the timer stops.  Only
ops with ``latency=True`` enter the latency percentiles.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from chroma import coloring, decomposition, exact, geometry, sampler, suites
from chroma.coloring import HOLE, Coloring
from chroma.exact import Constraint
from chroma.geometry import OddSetCollection
from chroma.lattice import build_graph, closed_neighborhood
from chroma.patterns import Pattern
from chroma.sampler import ChainConfig


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    latency: bool = True


@dataclass
class Workload:
    ops: list[Op]
    site_updates_per_pass: int = 0   # heat-bath site updates the op list makes


def reference() -> dict:
    """The stored correctness reference, made by ``make_reference.py``."""
    return json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def _is_proper(f: Coloring, G) -> bool:
    return all(f.values[u] != f.values[v] for v in range(G.n) for u in G.neighbors[v])


# -- exact ---------------------------------------------------------------------

def build_exact(seed: int) -> Workload:
    rng = random.Random(seed)
    ref = reference()
    graphs: dict[tuple, Any] = {}

    def graph(dims):
        dims = tuple(dims)
        if dims not in graphs:
            graphs[dims] = build_graph(dims)
        return graphs[dims]

    # every stored subdomain, in an order drawn from the seed, so that the
    # median and tail op do not depend on which instances a seed would draw
    pool = list(ref["subdomains"])
    rng.shuffle(pool)
    small: list[Op] = []
    for inst in pool:
        G = graph(inst["dims"])
        dom = G.vertex_set(G.vid(c) for c in inst["cells"])
        small.append(Op("subdomain",
                      lambda G=G, dom=dom, q=inst["q"]:
                          exact.count_colorings(G, dom, q).count,
                      lambda got, want=inst["count"]: got == want))

    ops: list[Op] = []
    p0 = Pattern.make(3, ref["slab_pattern"]["A"], ref["slab_pattern"]["B"])
    for slab in ref["slabs"]:
        G = graph(slab["dims"])
        if slab["constraint"] == "free":
            c = Constraint.free()
        elif slab["constraint"] == "pattern":
            c = Constraint.pattern_boundary(p0)
        else:
            c = Constraint.pinned({int(v): col for v, col in slab["pins"].items()})
        want = int(slab["count"])
        ops.append(Op("slab.backtracking",
                      lambda G=G, c=c: exact.count_colorings(
                          G, G.full_set(), 3, c, method="backtracking").count,
                      lambda got, want=want: got == want))
        ops.append(Op("slab.transfer",
                      lambda G=G, c=c: exact.transfer_count(G, 3, c).count,
                      lambda got, want=want: got == want))

    for strip in ref["strips"]:
        G = graph(strip["dims"])
        ops.append(Op("strip.transfer", lambda G=G: exact.transfer_count(G, 3).count,
                      lambda got, want=int(strip["count"]): got == want))

    marg = ref["marginal_free_7x7"]
    M = graph(marg["dims"])
    centre = M.vid(marg["centre"])
    want_probs = tuple(Fraction(p) for p in marg["probs"])
    ops.append(Op("marginal",
                  lambda: exact.exact_marginal(M, M.full_set(), marg["q"], centre).probs,
                  lambda got: tuple(got) == want_probs))

    # criterion 4: the three droplet cost ratios and their exact values
    T = graph((5, 5))
    U = T.vertex_set([T.vid((2, 2))])
    p4 = Pattern.make(4, [1, 2], [3, 4])
    adj, far = Pattern.make(4, [1, 3], [2, 4]), Pattern.make(4, [3, 4], [1, 2])
    p5, sup = Pattern.make(5, [1, 2], [3, 4, 5]), Pattern.make(5, [1, 2, 3], [4, 5])
    plus = closed_neighborhood(T, U)
    ops.append(Op("toy_ratio", lambda: exact.toy_ratio(T, T.full_set(), U, p4, adj),
                  lambda r: r.ratio == Fraction(1, 2) ** 5 and r.verdict == "equal"))
    ops.append(Op("toy_ratio", lambda: exact.toy_ratio(T, T.full_set(), U, p4, far),
                  lambda r: r.ratio < Fraction(1, 2) ** 5 and r.verdict == "below"))
    ops.append(Op("toy_ratio", lambda: exact.toy_ratio(T, T.full_set(), plus, p5, sup),
                  lambda r: r.ratio == Fraction(4, 6) ** 3 and r.verdict == "equal"))

    # spread the tiny subdomain queries evenly between the large ones, so the
    # median op samples the whole pass rather than its first 30 ms
    mixed = []
    for i, op in enumerate(ops):
        lo = i * len(small) // len(ops)
        hi = (i + 1) * len(small) // len(ops)
        mixed += small[lo:hi] + [op]
    return Workload(mixed)


# -- chain ---------------------------------------------------------------------


def planned_samples(cfg: ChainConfig) -> int:
    per_chain = (1 if cfg.burn_in == 0 else 0) + sum(
        1 for s in range(1, cfg.sweeps + 1)
        if s >= cfg.burn_in and (s - cfg.burn_in) % cfg.thin == 0)
    return per_chain * cfg.chains


SWEEP_HEAVY_CALLS = 4     # each SHORT_SWEEPS sweeps of 4 chains
CLUSTER_HEAVY_CALLS = 3   # each SHORT_SWEEPS sweeps
SHORT_SWEEPS = 60
ACCURACY_SWEEPS = 12_000


def build_chain(seed: int) -> Workload:
    # the two heavy configs run as several shorter calls, so that the
    # machine's speed is sampled between them (see run.py)
    rng = random.Random(seed)
    sweep_heavy = [ChainConfig(dims=(24, 24), q=3, pattern="A=1;B=2,3",
                               seed=rng.getrandbits(62), sweeps=SHORT_SWEEPS, chains=4)
                   for _ in range(SWEEP_HEAVY_CALLS)]
    cluster_heavy = [ChainConfig(dims=(8, 8, 8), q=4, pattern="A=1,2;B=3,4",
                                 seed=rng.getrandbits(62), sweeps=SHORT_SWEEPS,
                                 algorithm="heat-bath+cluster", cluster_every=1)
                     for _ in range(CLUSTER_HEAVY_CALLS)]
    acc = reference()["marginal_pattern_4x4"]
    accuracy = ChainConfig(dims=tuple(acc["dims"]), q=acc["q"], pattern="A=1;B=2,3",
                           seed=rng.getrandbits(62), sweeps=ACCURACY_SWEEPS, burn_in=100)
    centre = build_graph(acc["dims"]).vid(acc["centre"])
    exact_probs = [Fraction(p) for p in acc["probs"]]

    def sound(stats, cfg) -> bool:
        n = stats.samples
        return (n == planned_samples(cfg)
                and all(sum(row) == n for row in stats.occupation_counts)
                and all(0 <= x <= n for x in stats.violation_counts))

    def accurate(stats) -> bool:
        # about six standard errors of the centre marginal at this chain's
        # measured autocorrelation; a biased kernel lands far outside it
        emp = stats.vertex_marginal(centre)
        tv = sum(abs(emp[c + 1] - p) for c, p in enumerate(exact_probs)) / 2
        return tv <= 2 * math.sqrt(accuracy.q / stats.samples)

    ops = [Op("sweep_heavy", lambda cfg=cfg: sampler.run_experiment(cfg, threads=2),
              lambda s, cfg=cfg: sound(s, cfg))
           for cfg in sweep_heavy]
    ops += [Op("cluster_heavy", lambda cfg=cfg: sampler.run_experiment(cfg),
               lambda s, cfg=cfg: sound(s, cfg))
            for cfg in cluster_heavy]
    ops.append(Op("accuracy", lambda: sampler.run_experiment(accuracy),
                  lambda s: sound(s, accuracy) and accurate(s)))
    configs = sweep_heavy + cluster_heavy + [accuracy]
    updates = sum(c.sweeps * c.chains * math.prod(c.dims) for c in configs)
    return Workload(ops, updates)


# -- contour -------------------------------------------------------------------

BREAKUPS_PER_BOX = 100
REPAIR_PAIRS = 200
COLLECTIONS_PER_BOX = 8
SUITES = ("four-cycle", "revealed", "even-odd", "sizes", "co-closure",
          "boundary-connected")


def _reference_pattern(q: int) -> Pattern:
    return Pattern.make(q, range(1, q // 2 + 1), range(q // 2 + 1, q + 1))


def _regular_odd_set(G, rng: random.Random, depth: int = 3, p: float = 0.35):
    """Closed neighbourhood of random deep even cells, closed under absorption."""
    cells = [v for v in range(G.n) if G.parity[v] == 0
             and all(depth <= c < n - depth for c, n in zip(G.coords(v), G.dims))]
    core = {v for v in cells if rng.random() < p} or {rng.choice(cells)}
    while True:
        U = set(core).union(*(G.neighbors[v] for v in core))
        grown = {v for v in range(G.n) if G.parity[v] == 0 and v not in core
                 and all(u in U for u in G.neighbors[v])}
        if not grown:
            return G.vertex_set(U)
        core |= grown


def _separates(G, sets, separator) -> bool:
    return all(u in separator or v in separator
               for S in sets for u in S for v in G.neighbors[u] if v not in S)


def build_contour(seed: int) -> Workload:
    rng = random.Random(seed)
    boxes = []
    for dims, q in (((24, 24), 3), ((8, 8, 8), 4)):
        G = build_graph(dims)
        p0 = _reference_pattern(q)
        vertices = [G.vertex_set([rng.randrange(G.n)]) for _ in range(BREAKUPS_PER_BOX)]
        boxes.append((G, p0, vertices))

    # criterion 8's family: 4x4, q = 4, the centre block deleted
    RG = build_graph([4, 4])
    r0, rp = Pattern.make(4, [1, 2], [3, 4]), Pattern.make(4, [1, 3], [2, 4])
    S = RG.vertex_set([RG.vid((i, j)) for i in (1, 2) for j in (1, 2)])
    parts = {rp: S.complement()}
    plan = coloring.plan_repair(RG, S, parts)
    star = sorted(plan.s_star.ids())
    corners = sorted((S.complement() - plan.s_star).ids())
    corner_sides = [rp.a if RG.parity[v] == 0 else rp.b for v in corners]
    star_sides = [r0.a if RG.parity[v] == 0 else r0.b for v in star]
    pairs = []
    for _ in range(REPAIR_PAIRS):
        f = Coloring([HOLE] * RG.n, 4)
        for v, side in zip(corners, corner_sides):
            f.values[v] = rng.choice(side)
        pairs.append((f, {v: rng.choice(side) for v, side in zip(star, star_sides)}))

    collections = []
    for dims in ((16, 16), (8, 8, 8)):
        G = build_graph(dims)
        for _ in range(COLLECTIONS_PER_BOX):
            sets = [_regular_odd_set(G, rng) for _ in range(2)]
            collections.append((G, sets, OddSetCollection(G, sets, "odd")))
    suite_seeds = [rng.getrandbits(32) for _ in SUITES]

    def breakup_op(state, G, p0, V):
        def call():
            dom = G.full_set()
            state["cur"] = sampler.heat_bath_sweep(state["cur"], G, dom, p0, state["rng"])
            X = decomposition.construct_breakup(G, state["cur"], V, dom, p0)
            return decomposition.verify_breakup(X, state["cur"], dom, p0)
        return Op("breakup", call, lambda rep: rep.ok)

    def repair_op(f, h):
        def call():
            g = coloring.repair_transform(f, S, parts, h, RG, r0)
            return g, coloring.repair_inverse(g, S, parts, RG, r0)

        def check(out):
            g, (f_back, h_back) = out
            return _is_proper(g, RG) and f_back == f and h_back == h
        return Op("repair", call, check, latency=False)

    def separating_op(G, sets, coll):
        def call():
            sep = geometry.separating_set(coll)
            geometry.weak_approximation(G, sep.separator, coll)
            return sep
        return Op("separating", call,
                  lambda sep: sep.separates and _separates(G, sets, sep.separator),
                  latency=False)

    ops = []
    for G, p0, vertices in boxes:
        # each box runs one chain of sweeps from the striped pure pattern
        state = {"cur": coloring.striped_pattern_coloring(G, p0),
                 "rng": np.random.Generator(np.random.Philox(key=rng.getrandbits(62)))}
        ops += [breakup_op(state, G, p0, V) for V in vertices]
    ops += [repair_op(f, h) for f, h in pairs]
    ops += [separating_op(*c) for c in collections]
    ops += [Op("suite", lambda n=n, s=s: suites.run_suite(n, 100, s)[0],
               lambda res: res.ok, latency=False)
            for n, s in zip(SUITES, suite_seeds)]
    updates = sum(G.n * len(vertices) for G, _, vertices in boxes)
    return Workload(ops, updates)


BUILDERS = {"exact": build_exact, "chain": build_chain, "contour": build_contour}
