"""Heat-bath and cluster MCMC for pattern-constrained proper colorings.

The target measure is uniform over proper colorings of a domain whose
boundary cells are confined to the sides of a reference dominant
pattern; cells outside the domain are frozen to an in-pattern exterior.
The heat-bath move resamples one cell uniformly over the colors its
constraint allows and its neighbors do not block; the cluster move picks
two colors and swaps them on a random subset of the two-colored
components that touch no frozen or constrained cell carrying either
color.  Both moves preserve the target measure exactly; mixing is not
certified, so runs report a split-half agreement diagnostic instead of
claiming convergence.

A heat-bath sweep resamples every even domain cell and then every odd
one.  Cells of one parity are never adjacent (periodic axes have even
length), so each half is four whole-array numpy calls and the sweep is
still an exact systematic scan: gather each cell's neighbor and
forbidden-mask columns, OR them into its blocked mask, add its draw
code, and read its new color from one table.  A uniform u takes the free
color of rank floor(u * count); its code, the sum of floor(u * n) over
n = 2..q, is computed once per block of draws and fixes every such rank
at once, so the table over (code, blocked mask) holds the color itself.
Chains are the leading axis of the same arrays: ``run_experiment``
advances all of its chains together, and ``heat_bath_sweep`` is the same
kernel with one chain.  Which columns each cell reads is fixed by the
graph, domain and pattern, so that layout is built once and kept on the
graph, and the tables once per q, when q is first used.  They hold one
uint16 entry per code and mask m < 2^q (15.9 MB at q = 16), which caps
the sampler at q <= 16.

The cluster move is set algebra on bitmaps.  The cells colored a or b
come from one numpy comparison; the components that touch a stuck cell
are flooded together from the movable cells next to one (kept on the
graph), and the rest are the swappable components.  Each flips on a
draw below 1/2, drawn in order of lowest id: the isolated cells flip
through one boolean mask, and only the larger components are visited
one by one.

All randomness comes from one Philox stream per chain, which draws one
uniform per domain cell per sweep, so a (seed, config) pair reproduces
every output byte and a chain's output does not depend on how many
chains share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
import math

import numpy as np

from .coloring import Coloring, is_proper, pure_pattern_sample
from .errors import (
    ConfigError,
    InternalInvariantError,
    PreconditionError,
    ResourceLimitError,
)
from .exact import Constraint, allowed_masks, enumerate_colorings
from .lattice import (
    LatticeGraph,
    VertexSet,
    _grow,
    _neighbor_bits,
    _pack,
    _split_components,
    _unpack,
    boundary_cells,
    connected_components,
    interior,
)
from .patterns import Pattern
from .rng import make_rng

MAX_Q = 16               # the kernel's tables hold masks m < 2^q in uint16
_DRAW_BLOCK = 1 << 15    # uniforms drawn for a batch of chains at a time
_TALLY_BLOCK = 1 << 15   # recorded cell states held before they are counted


@dataclass(frozen=True)
class ChainConfig:
    dims: tuple[int, ...]
    q: int
    pattern: str                      # e.g. "A=1;B=2,3"
    seed: int
    sweeps: int
    periodic: tuple[bool, ...] | None = None
    margin: int = 0                   # domain = cells at L-inf depth >= margin
    burn_in: int = 0
    thin: int = 1
    algorithm: str = "heat-bath"      # or "heat-bath+cluster"
    cluster_every: int = 8
    chains: int = 1

    def __post_init__(self):
        if self.q > MAX_Q:
            raise ConfigError(f"the sampler takes at most {MAX_Q} colors, got q = {self.q}")
        if self.sweeps < self.burn_in or self.burn_in < 0:
            raise ConfigError("need sweeps >= burn_in >= 0")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.algorithm not in ("heat-bath", "heat-bath+cluster"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")
        if self.algorithm == "heat-bath+cluster" and self.cluster_every < 1:
            raise ConfigError("cluster_every must be >= 1")

    def graph(self) -> LatticeGraph:
        return LatticeGraph(self.dims, self.periodic)

    def domain(self, G: LatticeGraph) -> VertexSet:
        domain = interior(G, self.margin)
        if not domain:
            raise ConfigError("margin leaves an empty domain")
        return domain

    def p0(self) -> Pattern:
        P = Pattern.parse(self.q, self.pattern)
        if not P.is_dominant() or P.klass != 0:
            raise ConfigError("chain pattern must be dominant with |A| <= |B|")
        return P


@dataclass(frozen=True)
class OrderStats:
    vertex_ids: tuple[int, ...]
    samples: int
    violation_counts: tuple[int, ...]
    occupation_counts: tuple[tuple[int, ...], ...]
    parity_occupation: dict[str, tuple[float, ...]]
    split_half_max_diff: float

    def vertex_marginal(self, v: int) -> dict[int, Fraction]:
        i = self.vertex_ids.index(v)
        return {
            c + 1: Fraction(self.occupation_counts[i][c], self.samples)
            for c in range(len(self.occupation_counts[i]))
        }

    def csv_rows(self) -> list[list]:
        rows = []
        for i, v in enumerate(self.vertex_ids):
            rate = self.violation_counts[i] / self.samples
            occ = [c / self.samples for c in self.occupation_counts[i]]
            rows.append([v, rate, *occ])
        return rows


@cache
def _tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables over color bitmasks m < 2^q, built once per q.

    ``free[m]`` counts the colors m leaves free, ``kth[m, k]`` is the bit of
    the k-th free color in ascending order (0 when there is none), and
    ``color[m]`` is the color whose bit is m (0, HOLE, for m = 0).
    """
    masks = np.arange(1 << q)
    free = np.zeros(1 << q, dtype=np.intp)
    kth = np.zeros((1 << q, q), dtype=np.int32)
    color = np.zeros(1 << q, dtype=np.int16)
    for c in range(q):
        leaving = masks[(masks >> c) & 1 == 0]   # the masks that leave color c + 1 free
        kth[leaving, free[leaving]] = 1 << c
        free[leaving] += 1
        color[1 << c] = c + 1
    for table in (free, kth, color):   # shared by every kernel with this q
        table.flags.writeable = False
    return free, kth, color


@cache
def _bits(q: int) -> np.ndarray:
    """``bit[c]``, the uint16 bit of color c in a kernel column (0 for
    HOLE), built once per q."""
    bit = np.array([0] + [1 << c for c in range(q)], dtype=np.uint16)
    bit.flags.writeable = False
    return bit


@cache
def _pick(q: int) -> np.ndarray:
    """The heat-bath color table over (draw code, blocked mask), built once per q.

    A draw u picks the free color of rank floor(u * count), the float64
    product truncated.  Each floor(u * n) is a step function of u that rises
    by one at the smallest double t with int(t * n) >= a, for 1 <= a < n, so
    the rank vector (floor(u * n) for n = 2..q) only grows with u and its sum
    ``code`` (at most q(q - 1)/2) identifies it.  Entry ``code << q | m`` is
    the color a draw of that code picks under blocked mask m (0 when m
    leaves none).  At q = 16 the table has 121 x 2^16 uint16 entries, 15.9 MB.
    """
    free, kth, _ = _tables(q)
    steps = []
    for n in range(2, q + 1):
        for a in range(1, n):
            t = a / n   # within an ulp or two of the threshold
            while int(t * n) >= a:
                t = math.nextafter(t, 0.0)
            while int(t * n) < a:
                t = math.nextafter(t, 1.0)
            steps.append((t, n))
    steps.sort()
    rank = np.zeros(q + 1, dtype=np.intp)   # rank[n] = floor(u * n) for this code
    masks = np.arange(1 << q)
    pick = np.empty((len(steps) + 1, 1 << q), dtype=np.uint16)
    for code in range(len(steps) + 1):
        if code:
            rank[steps[code - 1][1]] += 1
        pick[code] = kth[masks, rank[free]]
    pick = pick.reshape(-1)
    pick.flags.writeable = False
    return pick


def _draw_codes(draws: np.ndarray, q: int) -> np.ndarray:
    """Each uniform u as code(u) << q, code(u) = sum over n = 2..q of
    floor(u * n), the float64 products truncated one by one; the row
    offsets of ``_pick``."""
    codes = np.zeros(draws.shape, dtype=np.int8)   # at most 120, at q = 16
    term = np.empty_like(codes)
    for n in range(2, q + 1):
        np.multiply(draws, n, out=term, casting="unsafe")
        codes += term
    return np.left_shift(codes, q, dtype=np.intp)


@dataclass(frozen=True)
class _Layout:
    """The columns and reads of a sweep, fixed by (graph, domain, p0, q).

    ``cells`` lists the vertex held by each column: the domain's even
    cells, then its odd cells (the two scan blocks, each in ascending id
    order), then the frozen cells.  Column ``n`` is the 0 column and the
    columns after it hold the distinct forbidden-color masks ``forbidden``.
    ``spans`` gives each nonempty scan block as (first column, end column,
    reads): the columns of the block cells' neighbors, padded with the 0
    column, and then of their forbidden masks, one row each.
    """

    cells: np.ndarray
    n_scan: int
    spans: tuple[tuple[int, int, np.ndarray], ...]
    forbidden: np.ndarray


def _layout(G: LatticeGraph, domain: VertexSet, p0: Pattern | None, q: int) -> _Layout:
    """The sweep layout, built on first use and kept on the graph.

    An infeasible boundary raises PreconditionError and stores nothing, so
    every later call raises it again.
    """
    key = ("sweep layout", domain.bits, p0, q)
    layout = G.memo.get(key)
    if layout is not None:
        return layout
    full = (1 << q) - 1
    if p0 is None:
        allowed = np.full(G.n, full)
    else:
        masks, feasible = allowed_masks(G, domain, q, Constraint.pattern_boundary(p0))
        if not feasible:
            raise PreconditionError("the boundary pattern admits no coloring here")
        allowed = np.array(masks)
    n = G.n
    ids = np.arange(n)
    inside = _unpack(domain)
    parity = np.array(G.parity)
    halves = [ids[inside & (parity == 0)], ids[inside & (parity == 1)]]
    cells = np.concatenate(halves + [ids[~inside]])
    n_scan = int(inside.sum())
    scan = cells[:n_scan]
    # the distinct forbidden masks in ascending order, and each scan
    # cell's index among them
    forbid = full & ~allowed[scan]
    present = np.zeros(full + 1, dtype=bool)
    present[forbid] = True
    forbidden = np.flatnonzero(present)
    which = np.cumsum(present)[forbid] - 1
    column = np.empty(n + 1, dtype=np.intp)   # column[-1] is the 0 column
    column[cells] = ids
    column[n] = n
    reads = np.concatenate([column[G.neighbor_table[:, scan]],
                            n + 1 + which.reshape(1, -1)])
    spans = []
    lo = 0
    for half in halves:
        hi = lo + len(half)
        if hi > lo:
            spans.append((lo, hi, reads[:, lo:hi]))
        lo = hi
    for shared in (cells, reads, forbidden):   # shared by every kernel on this key
        shared.flags.writeable = False
    layout = G.memo[key] = _Layout(cells, n_scan, tuple(spans), forbidden)
    return layout


class _Kernel:
    """Exact heat-bath scans of a batch of chains, one parity block at a time.

    Row c of ``x`` is chain c, over the columns of the sweep's ``_Layout``.
    A column holds color c as the bit 1 << (c - 1) and HOLE as 0, in
    uint16 like the entries of ``_pick``, which are stored into it.  Each
    scan cell reads its neighbors' columns, padded with the 0 column, and
    its forbidden-mask column; their OR is the set of colors it may not
    take, so padding and HOLE block nothing.
    """

    def __init__(self, G: LatticeGraph, domain: VertexSet, p0: Pattern | None,
                 states: list[Coloring]):
        q = states[0].q
        if q > MAX_Q:
            raise ConfigError(f"the sampler takes at most {MAX_Q} colors, got q = {q}")
        layout = _layout(G, domain, p0, q)
        self.cells = layout.cells
        self.n_scan = layout.n_scan
        width = G.n + 1 + len(layout.forbidden)
        chains = len(states)
        self.q = q
        self.color = _tables(q)[2]
        self.bit = _bits(q)
        self.pick = _pick(q)
        self.x = np.zeros((chains, width), dtype=np.uint16)
        self.x[:, G.n + 1:] = layout.forbidden
        self.flat = self.x.reshape(-1)
        # (first column, end column, flat reads, the block's columns of x) per
        # block; chain c reads row c of x, so a lone chain reads the layout's
        # columns as they are, without a copy
        self.blocks = [(lo, hi, reads[np.newaxis] if chains == 1 else
                        reads + np.arange(0, chains * width, width).reshape(-1, 1, 1),
                        self.x[:, lo:hi])
                       for lo, hi, reads in layout.spans]
        for c, f in enumerate(states):
            self.put(c, f.values)

    def put(self, c: int, values: np.ndarray) -> None:
        """Load chain c from its colors in vertex order."""
        self.x[c, :len(self.cells)] = self.bit.take(values.take(self.cells))

    def values(self, c: int) -> np.ndarray:
        """Chain c's colors in vertex order."""
        values = np.empty(len(self.cells), dtype=np.int16)
        values[self.cells] = self.color.take(self.x[c, :len(self.cells)])
        return values

    def coloring(self, c: int) -> Coloring:
        return Coloring(self.values(c), self.q)

    def half_step(self, block, codes: np.ndarray) -> None:
        """Resample one parity block of every chain; codes[c, i], the
        ``_draw_codes`` of a uniform draw, serves scan cell i.

        A cell takes the free color of rank floor(draw * count), read from
        ``_pick`` at its code plus its blocked mask; a cell with no free
        color takes 0, which ``stuck`` reports.
        """
        lo, hi, reads, out = block
        blocked = np.bitwise_or.reduce(self.flat.take(reads), axis=1)
        # every index is in range (a code row plus a mask below 2^q), and
        # "clip" writes straight into x where the default mode would buffer
        self.pick.take(np.add(blocked, codes[:, lo:hi]), out=out, mode="clip")

    def sweep(self, codes: np.ndarray) -> None:
        for block in self.blocks:
            self.half_step(block, codes)

    def stuck(self) -> bool:
        """Whether a scan cell holds 0: it had no free color at its last update."""
        return not self.x[:, :self.n_scan].all()


def heat_bath_sweep(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    rng: np.random.Generator,
    assert_proper: bool = False,
) -> Coloring:
    """One systematic scan of single-site resampling; returns a new coloring.

    Cells outside the domain are untouched.  A proper state satisfying
    the constraint always keeps at least one admissible color (its
    current one); starting from a state outside the constraint set is a
    contract violation and is reported.
    """
    kernel = _Kernel(G, domain, p0, [f])
    kernel.sweep(_draw_codes(rng.random((1, kernel.n_scan)), f.q))
    if kernel.stuck():
        raise PreconditionError(
            "a cell had no admissible color; the initial coloring violates "
            "the boundary constraint"
        )
    out = kernel.coloring(0)
    if assert_proper and not is_proper(out, G):
        raise InternalInvariantError("heat-bath sweep broke properness")
    return out


def swappable_components(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    a: int,
    b: int,
) -> list[VertexSet]:
    """Two-color components free to exchange a and b.

    Only unconstrained domain cells move (with a reference pattern, the
    boundary cells are constrained); a component touching any frozen or
    boundary-constrained cell colored a or b stays put.  The components
    that do touch one are flooded at once from the movable cells next to
    a stuck cell, and the rest are the components of what is left.
    """
    return connected_components(
        G, VertexSet(_swappable(f.values, G, domain, p0, a, b), G.n))


def _movable(G: LatticeGraph, domain: VertexSet, p0: Pattern | None) -> VertexSet:
    """The cells a cluster move may recolor: the domain, less its boundary
    cells when a reference pattern constrains them; kept on the graph."""
    if p0 is None:
        return domain
    key = ("movable cells", domain.bits)
    movable = G.memo.get(key)
    if movable is None:
        movable = G.memo[key] = domain - boundary_cells(G, domain)
    return movable


def _swappable(values: np.ndarray, G: LatticeGraph, domain: VertexSet,
               p0: Pattern | None, a: int, b: int) -> int:
    """The cells of ``swappable_components`` as a bitmap, on a row of colors in vertex order."""
    ab = _pack((values == a) | (values == b))
    movable = _movable(G, domain, p0).bits & ab
    stuck = ab & ~movable
    tainted = _grow(G, movable, movable & _neighbor_bits(G, stuck), 1)
    return movable & ~tainted


def cluster_step(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    rng: np.random.Generator,
    assert_proper: bool = False,
) -> Coloring:
    """Swap two random colors on an independent half of their free components."""
    values = f.values.copy()
    _cluster_move(values, f.q, G, domain, p0, rng)
    out = Coloring(values, f.q)
    if assert_proper and not is_proper(out, G):
        raise InternalInvariantError("cluster step broke properness")
    return out


def _cluster_move(values: np.ndarray, q: int, G: LatticeGraph, domain: VertexSet,
                  p0: Pattern | None, rng: np.random.Generator) -> None:
    """``cluster_step`` in place on a row of colors in vertex order.

    Each swappable component flips when its draw is below 1/2, the draws
    taken in order of the components' lowest ids.  The singletons flip
    through one mask; only the larger components are visited one by one.
    """
    pair = rng.choice(q, size=2, replace=False)
    a, b = int(pair[0]) + 1, int(pair[1]) + 1
    singles, grown = _split_components(G, _swappable(values, G, domain, p0, a, b))
    heads = singles
    for comp in grown:
        heads |= comp & -comp
    draw = _unpack(VertexSet(heads, G.n))
    draw[draw] = rng.random(np.count_nonzero(draw)) < 0.5   # ascending ids
    chosen = _pack(draw)
    swap = singles & chosen
    for comp in grown:
        if comp & chosen:   # its one head was chosen
            swap |= comp
    flip = _unpack(VertexSet(swap, G.n))
    values[flip] = a + b - values[flip]


def run_experiment(cfg: ChainConfig, threads: int = 1) -> OrderStats:
    """Run the configured chains and pool their sample statistics.

    Sample states are taken after sweeps burn_in, burn_in + thin, ...;
    with burn_in = 0 the initial pure-pattern state is the first sample,
    so a zero-sweep run reports exactly the initial statistics.  Chains
    own disjoint Philox streams and advance together as one batch in a
    single thread.  ``threads`` is accepted and changes nothing; the CLI
    no longer offers it, and it stays because perfbench's ``sweep_heavy``
    op passes ``threads=2``.
    """
    G = cfg.graph()
    domain = cfg.domain(G)
    p0 = cfg.p0()
    q = cfg.q
    rngs = [make_rng(cfg.seed, stream=i) for i in range(cfg.chains)]
    inits = [pure_pattern_sample(G, G.full_set(), p0, seed=int(rng.integers(1 << 62)))
             for rng in rngs]
    kernel = _Kernel(G, domain, p0, inits)
    n_scan = kernel.n_scan

    # each chain records per_chain samples; the first first_half of them
    # are counted apart from the rest for the split-half diagnostic
    per_chain = (cfg.sweeps - cfg.burn_in) // cfg.thin + 1
    first_half = (per_chain + 1) // 2
    occ = np.zeros((2, n_scan * q), dtype=np.int64)
    held = np.empty((max(1, _TALLY_BLOCK // (cfg.chains * n_scan)), cfg.chains, n_scan),
                    dtype=kernel.x.dtype)
    bins = np.arange(n_scan) * q - 1   # bin of (scan cell i, color c) is bins[i] + c
    n_held = taken = 0

    def record() -> None:
        nonlocal n_held, taken
        held[n_held] = kernel.x[:, :n_scan]
        n_held += 1
        taken += 1
        if n_held == len(held) or taken in (first_half, per_chain):
            if not held[:n_held].all():
                raise InternalInvariantError("the chain reached a stuck state")
            keys = kernel.color[held[:n_held]] + bins
            occ[int(taken > first_half)] += np.bincount(keys.ravel(), minlength=n_scan * q)
            n_held = 0

    if cfg.burn_in == 0:
        record()
    next_record = cfg.burn_in if cfg.burn_in else cfg.thin
    every = cfg.cluster_every if cfg.algorithm == "heat-bath+cluster" else cfg.sweeps
    block = max(1, _DRAW_BLOCK // (cfg.chains * n_scan))
    s = 0
    while s < cfg.sweeps:
        # the cluster move draws from the chains' streams after every
        # `every` sweeps; the sweeps between draw `block` sweeps at a time,
        # which leaves each stream's sequence as it is
        stop = min(s + every, cfg.sweeps)
        while s < stop:
            codes = _draw_codes(
                np.stack([rng.random((min(block, stop - s), n_scan)) for rng in rngs]), q)
            for j in range(codes.shape[1]):
                kernel.sweep(codes[:, j])
                s += 1
                if s == next_record:
                    record()
                    next_record += cfg.thin
            if kernel.stuck():
                raise InternalInvariantError("the chain reached a stuck state")
        if s < cfg.sweeps:
            for c, rng in enumerate(rngs):
                values = kernel.values(c)
                _cluster_move(values, q, G, domain, p0, rng)
                kernel.put(c, values)

    frozen = ~_unpack(domain)
    for c, init in enumerate(inits):
        final = kernel.coloring(c)
        if not is_proper(final, G):
            raise InternalInvariantError("chain ended on an improper coloring")
        if not np.array_equal(final.values[frozen], init.values[frozen]):
            raise InternalInvariantError("a frozen exterior cell changed")

    order = np.argsort(kernel.cells[:n_scan])   # scan cells in ascending id order
    ids = kernel.cells[order]
    parity = np.array(G.parity)[ids]
    occ = occ.reshape(2, n_scan, q)[:, order]
    sides = np.where(parity == 0, p0.side_for_parity(0), p0.side_for_parity(1))
    viol = (occ * ((sides[:, None] >> np.arange(q)) & 1 == 0)).sum(axis=2)
    halves = (first_half * cfg.chains, (per_chain - first_half) * cfg.chains)
    total = occ.sum(axis=0)
    parity_occ: dict[str, tuple[float, ...]] = {}
    for name, want in (("even", 0), ("odd", 1)):
        sums = total[parity == want].sum(axis=0)
        denom = int(sums.sum())
        parity_occ[name] = tuple(float(x) / denom if denom else 0.0 for x in sums)

    diff = 0.0
    if all(halves):
        diff = float(np.max(np.abs(viol[0] / halves[0] - viol[1] / halves[1])))
    return OrderStats(
        vertex_ids=tuple(ids.tolist()),
        samples=sum(halves),
        violation_counts=tuple(viol.sum(axis=0).tolist()),
        occupation_counts=tuple(map(tuple, total.tolist())),
        parity_occupation=parity_occ,
        split_half_max_diff=diff,
    )


# -- exact reversibility check --------------------------------------------------


def single_site_transition_matrix(
    G: LatticeGraph,
    domain: VertexSet,
    q: int,
    state_budget: int = 500,
) -> tuple[list[tuple[int, ...]], list[list[Fraction]]]:
    """Random-site heat-bath kernel as an exact stochastic matrix.

    States are the proper colorings (as tuples over the domain in
    ascending order); the kernel picks a uniform site and resamples it
    uniformly over the locally admissible colors.  The matrix is doubly
    checkable: rows sum to one and detailed balance for the uniform
    measure amounts to exact symmetry.  More than ``state_budget`` states
    raise ResourceLimitError before the dense m x m matrix is built.
    """
    masks, feasible = allowed_masks(G, domain, q, Constraint.free())
    if not feasible:
        raise PreconditionError(f"the domain has no coloring with {q} colors")
    order = sorted(domain.ids())
    states = sorted(
        tuple(assign[v] for v in order)
        for assign in islice(enumerate_colorings(G, domain, masks), state_budget + 1)
    )
    if len(states) > state_budget:
        raise ResourceLimitError(
            f"the transition matrix exceeds the budget of {state_budget} states"
        )
    index = {s: i for i, s in enumerate(states)}
    pos = {v: i for i, v in enumerate(order)}
    m = len(states)
    P = [[Fraction(0) for _ in range(m)] for _ in range(m)]
    site_weight = Fraction(1, len(order))
    for s_tuple in states:
        i = index[s_tuple]
        for v in order:
            used = 0
            for u in G.neighbors[v]:
                if u in pos:
                    used |= 1 << (s_tuple[pos[u]] - 1)
            avail = masks[v] & ~used
            n_avail = avail.bit_count()
            color_weight = site_weight * Fraction(1, n_avail)
            bits = avail
            while bits:
                low = bits & -bits
                bits ^= low
                c = low.bit_length()
                t = list(s_tuple)
                t[pos[v]] = c
                P[i][index[tuple(t)]] += color_weight
    return states, P
