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
length), so on a large batch each half is four whole-array numpy calls
and the sweep is still an exact systematic scan: gather each cell's
neighbor and forbidden-mask columns, OR them into its blocked mask, add
its draw code, and read its new color from one table.  A uniform u takes
the free color of rank floor(u * count); its code, the sum of
floor(u * n) over n = 2..q, is computed once per block of draws and
fixes every such rank at once, so the table over (code, blocked mask)
holds the color itself.
Chains are the leading axis of the same arrays: ``run_experiment``
advances all of its chains together, and ``heat_bath_sweep`` is the same
kernel with one chain.  Which columns each cell reads is fixed by the
graph, domain and pattern, so that layout is built once and kept on the
graph, and the tables once per q, when q is first used.  They hold one
uint16 entry per code and mask m < 2^q (15.9 MB at q = 16), which caps
the sampler at q <= 16.

A batch of at most ``_LOOP_CELLS`` (48) chain cells is too small for
those numpy calls, whose fixed cost outweighs their work there (a 4 x 4
chain sweeps about six times faster without them).  It sweeps in a
straight-line Python function written for its layout instead, with one
line per live scan cell: x{k} = pick[c{k} + (x{a} | x{b} | ... | m)],
over just that cell's neighbors in the box that can change and the
constant m of its forbidden mask and its one-color neighbors' bits.  A
cell with one admissible color (for odd q, each boundary cell on the
smaller side) has no line: in a state that satisfies the constraint it
holds that color, no neighbor can take it, and a sweep leaves it as it
is, so ``_Kernel`` checks that once and reports a start that breaks it
as stuck, on either path.  The function reads one flat list of the live
cells' codes per chain, taken from the same codes and table as the
half-steps, in the same scan order; the one-color cells still take their
draws, and their recorded states are their colors, so the path changes
no output.  ``_Kernel`` picks it in one place, from the batch size and q
(at most 8, where the table is a short list).

The cluster move runs on a chain's kernel row as it stands.  With m the
bits of the two drawn colors, the cells colored either are the row's
entries AND m, read in vertex order through the layout's ``slot`` and
packed into a bitmap.  The cells it may recolor are the layout's
``movable`` ones, the domain cells whose allowed mask is full (a
dominant side never holds all q colors, so a pattern boundary cell is
never one).  One flood through the bitmap from the stuck cells takes the
components that touch one; the other movable cells fall into the
swappable components.  Each flips on a draw below 1/2, drawn in order of
lowest id, by an XOR with m: one for the chosen lowest ids, one for the
rest of the chosen larger components.  ``cluster_step`` and
``swappable_components`` run on a one-chain kernel of their coloring, so
the layout is the sampler's only reading of (graph, domain, pattern, q).

All randomness comes from one Philox stream per chain, which draws one
uniform per domain cell per sweep, so a (seed, config) pair reproduces
every output byte and a chain's output does not depend on how many
chains share its batch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from typing import Callable
import itertools
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
    _id_array,
    _pack,
    _split_components,
    _unpack,
    connected_components,
    interior,
)
from .patterns import Pattern, _fit_table, color_mask
from .record import Record
from .rng import make_rng

MAX_Q = 16               # the kernel's tables hold masks m < 2^q in uint16
_DRAW_BLOCK = 1 << 15    # uniforms drawn for a batch of chains at a time
_LOOP_CELLS = 48         # batches of at most this many chain cells sweep in a Python loop
_LOOP_MAX_Q = 8          # the loop reads _pick as a list, 7424 small ints at q = 8


class ChainConfig(Record):
    """A sampler run.  ``pattern`` is pattern text such as "A=1;B=2,3", the
    domain is the cells at L-inf depth >= ``margin``, and ``algorithm`` is
    "heat-bath" or "heat-bath+cluster"."""

    __slots__ = ("dims", "q", "pattern", "seed", "sweeps", "periodic", "margin", "burn_in",
                 "thin", "algorithm", "cluster_every", "chains")

    def __init__(self, dims: tuple[int, ...], q: int, pattern: str, seed: int, sweeps: int,
                 periodic: tuple[bool, ...] | None = None, margin: int = 0, burn_in: int = 0,
                 thin: int = 1, algorithm: str = "heat-bath", cluster_every: int = 8,
                 chains: int = 1):
        _bits(q)   # refuses q outside 2..MAX_Q
        if sweeps < burn_in or burn_in < 0:
            raise ConfigError("need sweeps >= burn_in >= 0")
        if thin < 1:
            raise ConfigError("thin must be >= 1")
        if algorithm not in ("heat-bath", "heat-bath+cluster"):
            raise ConfigError(f"unknown algorithm {algorithm!r}")
        if chains < 1:
            raise ConfigError("chains must be >= 1")
        if algorithm == "heat-bath+cluster" and cluster_every < 1:
            raise ConfigError("cluster_every must be >= 1")
        super().__init__(dims, q, pattern, seed, sweeps, periodic, margin, burn_in, thin,
                         algorithm, cluster_every, chains)

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


class OrderStats(Record):
    __slots__ = ("vertex_ids", "samples", "violation_counts", "occupation_counts",
                 "parity_occupation", "split_half_max_diff")

    def vertex_marginal(self, v: int) -> dict[int, Fraction]:
        """Color frequencies at v; a vertex not observed is a ConfigError."""
        if v not in self.vertex_ids:
            raise ConfigError(f"vertex {v} is not among the observed vertices")
        i = self.vertex_ids.index(v)
        return {
            c + 1: Fraction(self.occupation_counts[i][c], self.samples)
            for c in range(len(self.occupation_counts[i]))
        }

    def csv_rows(self) -> list[list]:
        """Per vertex: its id, violation rate and occupation rates.  Each
        rate column is one numpy division of its counts by ``samples``,
        exact as Python's, since the counts stay below 2^53."""
        occ = np.fromiter(itertools.chain.from_iterable(self.occupation_counts), dtype=np.int64)
        columns = [self.vertex_ids, (np.array(self.violation_counts) / self.samples).tolist(),
                   *(occ.reshape(len(self.vertex_ids), -1).T / self.samples).tolist()]
        return list(map(list, zip(*columns)))


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
    HOLE), built once per q; q outside 2..MAX_Q raises ConfigError."""
    if q < 2:
        raise ConfigError(f"q must be >= 2, got {q}")
    if q > MAX_Q:
        raise ConfigError(f"the sampler takes at most {MAX_Q} colors, got q = {q}")
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


@cache
def _pick_list(q: int) -> list[int]:
    """``_pick(q)`` as a list, for the loop path."""
    return _pick(q).tolist()


def _draw_codes(draws: np.ndarray, q: int, out: np.ndarray | None = None) -> np.ndarray:
    """Each uniform u as code(u) << q, code(u) = sum over n = 2..q of
    floor(u * n), the float64 products truncated one by one; the row
    offsets of ``_pick``, written to ``out`` (an intp array of the draws'
    shape) when given."""
    codes = np.zeros(draws.shape, dtype=np.int8)   # at most 120, at q = 16
    term = np.empty_like(codes)
    for n in range(2, q + 1):
        np.multiply(draws, n, out=term, casting="unsafe")
        codes += term
    return np.left_shift(codes, q, out=out, dtype=np.intp)


class _Layout(Record):
    """The columns and reads of a sweep, fixed by (graph, domain, p0, q).

    ``cells`` lists the vertex held by each column: the domain's even
    cells, then its odd cells (the two scan blocks, each in ascending id
    order), then the frozen cells.  Column ``n`` is the 0 column and the
    columns after it hold the distinct forbidden-color masks ``forbidden``.
    ``spans`` gives each nonempty scan block as (first column, end column,
    reads): the columns of the block cells' neighbors, padded with the 0
    column, and then of their forbidden masks, one row each.  ``slot[v]``
    is vertex v's column, the inverse of ``cells``.  ``movable`` is the
    bitmap of the domain cells whose allowed mask is full, the cells a
    cluster move may recolor.  ``single[i]`` is the bit of scan cell i's
    one admissible color, or 0 when it has more; ``live`` lists the scan
    cells with more.  ``fixed`` describes the others as (around, bits,
    good): their own columns and then their neighbors' columns, one row
    each; their bits; and the bytes of one chain's ``around`` entries AND
    ``bits`` when each holds its bit and no neighbor holds it.  The
    instance dict holds ``loop`` once built.
    """

    __slots__ = ("cells", "slot", "n_scan", "spans", "forbidden", "movable", "single", "live",
                 "fixed", "__dict__")
    _compared = 6

    @cached_property
    def loop(self) -> tuple[Callable, np.ndarray]:
        """The loop path's sweep function and columns (``_sweep_function``),
        built when a kernel first takes that path."""
        reads = np.concatenate([reads for _, _, reads in self.spans], axis=1)
        return _sweep_function(len(self.cells), self.n_scan, tuple(map(tuple, reads.T.tolist())),
                               tuple(self.forbidden.tolist()), tuple(self.single.tolist()))


@cache
def _sweep_function(n: int, n_scan: int, reads: tuple[tuple[int, ...], ...],
                    masks: tuple[int, ...], single: tuple[int, ...]) -> tuple[Callable, np.ndarray]:
    """The loop path of a layout with n columns before the 0 column, row i
    of ``reads`` holding scan cell i's reads, the mask column n + 1 + k
    holding masks[k] and single[i] the bit of scan cell i's one admissible
    color (0 when it has more).  Built once per process for each distinct
    layout, so a new graph of a layout already seen builds nothing.

    Only the live scan cells, those with single[i] = 0, change: a cell
    with one admissible color keeps it while no neighbor holds it, which
    ``_Kernel`` checks once.  ``columns`` lists the columns the live cells
    read or write, the live scan columns first, in scan order.  The
    function, ``sweeps(x, it, keep, held, pick)``, holds one chain's values
    at ``columns`` (the list x) in the locals x0, x1, ... and sweeps once
    per tuple (j, c0, c1, ...) that ``it`` yields: sweep j with the codes
    of the live cells.  Its body is one line per live cell, in scan order:
    x{k} = pick[c{k} + (x{a} | x{b} | ... | m)], over the cell's distinct
    neighbors in the box that change or are frozen, with m the OR of its
    forbidden mask and its one-color neighbors' bits.  A clipped neighbor
    (the 0 column) and an m of 0 are left out.  After each sweep j in
    ``keep`` it appends the live cells' states to ``held``; it returns them
    after the last sweep.  The source holds only the names x*, c*, j, x,
    it, keep, held and pick, and integers taken from the layout.
    """
    live = [i for i in range(n_scan) if not single[i]]
    used = np.zeros(n, dtype=bool)
    used[live] = True
    used[[c for i in live for c in reads[i][:-1] if n_scan <= c < n]] = True
    columns = np.flatnonzero(used)
    local = (np.cumsum(used) - 1).tolist()

    def names(prefix, count):
        return "".join(f"{prefix}{i}, " for i in range(count))

    lines = ["def sweeps(x, it, keep, held, pick):\n"]
    if len(columns):
        lines.append(f"    {names('x', len(columns))}= x\n")
    lines.append(f"    for j, {names('c', len(live))}in it:\n")
    for k, i in enumerate(live):
        *cells, mask = reads[i]
        m = masks[mask - n - 1]
        changing = set()
        for c in cells:
            if c < n_scan and single[c]:
                m |= single[c]
            elif c < n:
                changing.add(local[c])
        terms = [f"x{a}" for a in sorted(changing)] + ([str(m)] if m else [])
        if len(terms) > 1:
            terms = [f"({' | '.join(terms)})"]
        lines.append(f"        x{k} = pick[{' + '.join([f'c{k}'] + terms)}]\n")
    states = names("x", len(live)) or "()"
    lines.append(f"        if j in keep:\n"
                 f"            held += {states}\n"
                 f"    return {states}\n")
    space = {}
    exec(compile("".join(lines), "<sweep layout>", "exec"), space)
    return space["sweeps"], columns


def _layout(G: LatticeGraph, domain: VertexSet, p0: Pattern | None, q: int) -> _Layout:
    """The sweep layout, built on first use and kept on the graph.

    The cells' masks are ``allowed_masks`` under the pattern boundary of p0
    (none for None); a refused pattern stores nothing, so it is refused again.
    """
    key = ("sweep layout", G.own(domain), p0, q)
    layout = G.memo.get(key)
    if layout is not None:
        return layout
    full = (1 << q) - 1
    allowed = np.array(allowed_masks(G, domain, q, Constraint(pattern=p0))[0])
    n = G.n
    ids = np.arange(n)
    inside = _unpack(domain)
    odd = G.odd_flags
    halves = [ids[inside & ~odd], ids[inside & odd]]
    cells = np.concatenate(halves + [ids[~inside]])
    n_scan = int(inside.sum())
    scan = cells[:n_scan]
    mask = allowed[scan]
    # the distinct forbidden masks in ascending order, and each scan
    # cell's index among them
    forbidden, which = np.unique(full & ~mask, return_inverse=True)
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
    slot = column[:n]
    # a scan cell's bit when it is its one admissible color (no mask is 0)
    single = np.where(mask & (mask - 1) == 0, mask, 0).astype(np.uint16)
    one = single != 0
    # a one-color cell's own column, then its neighbors', AND its bit: its
    # bit, then zeros, on a good start (a column holds one bit or none)
    around = np.concatenate([np.flatnonzero(one).reshape(1, -1), reads[:-1, one]])
    good = np.zeros(around.shape, dtype=np.uint16)
    good[0] = single[one]
    fixed = (around, single[one], good.tobytes())
    live = np.flatnonzero(~one)
    for shared in (cells, slot, reads, forbidden, single, live, *fixed[:2]):
        shared.flags.writeable = False   # shared by every kernel on this key
    layout = G.memo[key] = _Layout(cells, slot, n_scan, tuple(spans), forbidden,
                                   _pack(allowed == full), single, live, fixed)
    return layout


class _Kernel:
    """Exact heat-bath scans of a batch of chains, one parity block at a time.

    Row c of ``x`` is chain c, over the columns of the sweep's ``_Layout``.
    A column holds color c as the bit 1 << (c - 1) and HOLE as 0, in
    uint16 like the entries of ``_pick``, which are stored into it.  Each
    scan cell reads its neighbors' columns, padded with the 0 column, and
    its forbidden-mask column; their OR is the set of colors it may not
    take, so padding and HOLE block nothing.

    ``layout`` is the ``_Layout`` the kernel read, and ``loop`` is its
    ``loop`` (its sweep function and columns) when the batch sweeps on the
    loop path of the module docstring, and None when it takes the
    half-steps.  A state of another size than G is a PreconditionError.
    ``bad_start`` is whether a chain starts with a cell of one admissible
    color off that color or a neighbor holding it, which ``stuck`` reports:
    no sweep could change such a cell's state, and the loop path reads none.
    """

    def __init__(self, G: LatticeGraph, domain: VertexSet, p0: Pattern | None,
                 states: list[Coloring]):
        q = states[0].q
        bit = _bits(q)   # refuses q > MAX_Q before the layout is built
        layout = self.layout = _layout(G, domain, p0, q)
        self.cells = layout.cells
        self.slot = layout.slot
        self.n_scan = layout.n_scan
        width = G.n + 1 + len(layout.forbidden)
        chains = len(states)
        self.q = q
        self.color = _tables(q)[2]
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
            self.x[c, :G.n] = bit.take(f.values_on(G).take(self.cells))
        around, bits, good = layout.fixed
        self.bad_start = bool(bits.size) and (
            (self.x.take(around, axis=1) & bits).tobytes() != good * chains)
        # the one choice of sweep path
        small = 0 < chains * self.n_scan <= _LOOP_CELLS and q <= _LOOP_MAX_Q
        self.loop = layout.loop if small else None

    def coloring(self, c: int) -> Coloring:
        """Chain c's state."""
        return Coloring(self.color.take(self.x[c].take(self.slot)), self.q)

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

    def sweeps(self, codes: np.ndarray, keep: range, out: np.ndarray | None) -> None:
        """Sweep once per codes[:, j], the ``_draw_codes`` of a (chains,
        sweeps, n_scan) block of draws, and write the scan states after the
        sweeps j in ``keep`` to out[0], out[1], ...

        The loop path runs the layout's sweep function on each chain in
        turn, on one flat list of its live cells' codes; it sets each live
        cell, in scan order, as the numpy half-steps do, and the states it
        records are completed with the one-color cells' bits.
        """
        n = self.n_scan
        if self.loop is None:
            for j in range(codes.shape[1]):
                step = codes[:, j]
                for block in self.blocks:
                    self.half_step(block, step)
                if j in keep:
                    out[keep.index(j)] = self.x[:, :n]
            return
        sweeps, columns = self.loop
        live = self.layout.live
        k = len(live)
        chains, m = codes.shape[:2]
        pick = _pick_list(self.q)
        held = []   # chain by chain, sample by sample, the live cells' states
        ends = []
        rows = codes.take(live, axis=2).reshape(chains, m * k)   # one flat row per chain
        for x, row in zip(self.x[:, columns].tolist(), rows):
            it = zip(range(m), *[iter(row.tolist())] * k)   # (j, c0, c1, ...) per sweep
            ends.append(sweeps(x, it, keep, held, pick))
        self.x[:, live] = ends
        if keep:   # q <= _LOOP_MAX_Q = 8 here, so every held state fits a byte
            around, bits, _ = self.layout.fixed
            out[:len(keep), :, live] = np.frombuffer(bytes(held), dtype=np.uint8).reshape(
                chains, len(keep), k).swapaxes(0, 1)
            out[:len(keep), :, around[0]] = bits

    def stuck(self) -> bool:
        """Whether a chain started off a one-color cell's only state
        (``bad_start``) or a scan cell holds 0: it had no free color at its
        last update."""
        return self.bad_start or not self.x[:, :self.n_scan].all()


def heat_bath_sweep(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    rng: np.random.Generator,
) -> Coloring:
    """One systematic scan of single-site resampling; returns a new coloring.

    Cells outside the domain are untouched.  A proper state satisfying
    the constraint always keeps at least one admissible color (its
    current one); starting from a state outside the constraint set is a
    contract violation and is reported.  Properness is not re-tested
    here; ``run_experiment`` tests it at the end of each run.
    """
    kernel = _Kernel(G, domain, p0, [f])
    kernel.sweeps(_draw_codes(rng.random((1, 1, kernel.n_scan)), f.q), range(0), None)
    if kernel.stuck():
        raise PreconditionError(
            "a cell had no admissible color; the initial coloring violates "
            "the boundary constraint"
        )
    return kernel.coloring(0)


def swappable_components(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    a: int,
    b: int,
) -> list[VertexSet]:
    """Two-color components free to exchange a and b.

    Only the layout's movable cells move (with a reference pattern, the
    boundary cells are constrained); a component touching any frozen or
    boundary-constrained cell colored a or b stays put.  Reads f through a
    one-chain ``_Kernel``, as ``cluster_step`` does; a color outside 1..q
    is a ConfigError.
    """
    m = color_mask((a, b), f.q)
    cells = _swappable(_Kernel(G, domain, p0, [f]), 0, m, G)
    return connected_components(G, VertexSet(cells, G.n))


def _swappable(kernel: _Kernel, c: int, m: int, G: LatticeGraph) -> int:
    """The cells of chain c free to exchange the two colors of the bits m,
    as a bitmap: the cells colored either are the row's entries AND m.

    A movable cell is tainted when a path of cells colored a or b joins it
    to a stuck one, so the taint is one flood through those cells from the
    stuck ones; with none, the flood takes no step.
    """
    ab = _pack((kernel.x[c].take(kernel.slot) & m) != 0)
    movable = kernel.layout.movable & ab
    return movable & ~_grow(G, ab, ab & ~movable, 1)


def cluster_step(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    rng: np.random.Generator,
) -> Coloring:
    """Swap two random colors on an independent half of their free components.

    Runs ``_cluster_move`` on a one-chain ``_Kernel`` of f, so it takes at
    most MAX_Q colors, as a sweep does.  Properness is not re-tested here,
    as in ``heat_bath_sweep``.
    """
    kernel = _Kernel(G, domain, p0, [f])
    _cluster_move(kernel, 0, G, rng)
    return kernel.coloring(0)


def _cluster_move(kernel: _Kernel, c: int, G: LatticeGraph, rng: np.random.Generator) -> None:
    """``cluster_step`` in place on chain c of the kernel.

    With m the bits of the drawn pair a, b, ``_swappable`` gives the cells
    free to swap, and a cell swaps a and b by XOR with m.  Each swappable
    component flips when its draw is below 1/2, the draws taken in order
    of the components' lowest ids (their heads): the chosen heads flip in
    one XOR, and the other cells of the chosen larger components in one
    more.  With nothing swappable the move draws nothing after the pair.
    """
    a, b = rng.choice(kernel.q, size=2, replace=False).tolist()
    m = 1 << a | 1 << b
    singles, grown = _split_components(G, _swappable(kernel, c, m, G))
    heads = singles
    for comp in grown:
        heads |= comp & -comp
    if not heads:
        return
    row, slot = kernel.x[c], kernel.slot
    ids = _id_array(heads, G.n)   # ascending
    chosen = rng.random(len(ids)) < 0.5
    row[slot[ids[chosen]]] ^= m
    rest = 0
    for comp in grown:
        head = comp & -comp
        if chosen[(heads & (head - 1)).bit_count()]:   # the draw of its head
            rest |= comp ^ head
    if rest:
        row[slot[_unpack(VertexSet(rest, G.n))]] ^= m


def _count(occ: np.ndarray, states: np.ndarray, cut: int, color: np.ndarray,
           bins: np.ndarray) -> None:
    """Add recorded (sample, chain, scan cell) states to the occupation
    counts: the first ``cut`` samples to the first half, the rest to the
    second.  A held 0 is a stuck chain."""
    if not states.all():
        raise InternalInvariantError("the chain reached a stuck state")
    cut = max(cut, 0)
    for half, part in enumerate((states[:cut], states[cut:])):
        occ[half] += np.bincount((color.take(part) + bins).ravel(), minlength=occ.shape[1])


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
    bins = np.arange(n_scan) * q - 1   # bin of (scan cell i, color c) is bins[i] + c
    block = max(1, _DRAW_BLOCK // (cfg.chains * n_scan))
    # a block's recorded samples are held here until they are counted
    held = np.empty((block, cfg.chains, n_scan), dtype=kernel.x.dtype)
    draws = np.empty((cfg.chains, block, n_scan))   # each block's uniforms, chain by chain
    codes = np.empty(draws.shape, dtype=np.intp)    # and their _draw_codes
    n_held = counted = 0
    if cfg.burn_in == 0:   # the initial state is the first sample
        held[0] = kernel.x[:, :n_scan]
        n_held = 1

    next_record = cfg.burn_in if cfg.burn_in else cfg.thin
    every = cfg.cluster_every if cfg.algorithm == "heat-bath+cluster" else cfg.sweeps
    s = 0
    while s < cfg.sweeps:
        # the cluster move draws from the chains' streams after every
        # `every` sweeps; the sweeps between draw `block` sweeps at a time,
        # which leaves each stream's sequence as it is
        stop = min(s + every, cfg.sweeps)
        while s < stop:
            n = min(block, stop - s)
            for c, rng in enumerate(rngs):
                rng.random(out=draws[c, :n])
            _draw_codes(draws[:, :n], q, out=codes[:, :n])
            keep = range(next_record - s - 1, n, cfg.thin)
            if n_held + len(keep) > len(held):
                _count(occ, held[:n_held], first_half - counted, kernel.color, bins)
                counted += n_held
                n_held = 0
            kernel.sweeps(codes[:, :n], keep, held[n_held:])
            n_held += len(keep)
            next_record += len(keep) * cfg.thin
            s += n
            if kernel.stuck():
                raise InternalInvariantError("the chain reached a stuck state")
        if s < cfg.sweeps:
            for c, rng in enumerate(rngs):
                _cluster_move(kernel, c, G, rng)
    _count(occ, held[:n_held], first_half - counted, kernel.color, bins)

    frozen = ~_unpack(domain)
    for c, init in enumerate(inits):
        final = kernel.coloring(c)
        if not is_proper(final, G):
            raise InternalInvariantError("chain ended on an improper coloring")
        if not np.array_equal(final.values[frozen], init.values[frozen]):
            raise InternalInvariantError("a frozen exterior cell changed")

    order = np.argsort(kernel.cells[:n_scan])   # scan cells in ascending id order
    ids = kernel.cells[order]
    odd = G.odd_flags[ids]
    occ = occ.reshape(2, n_scan, q)[:, order]
    viol = (occ * ~_fit_table(p0)[odd.view(np.uint8), 1:q + 1]).sum(axis=2)
    halves = (first_half * cfg.chains, (per_chain - first_half) * cfg.chains)
    total = occ.sum(axis=0)
    parity_occ: dict[str, tuple[float, ...]] = {}
    for name, cells in (("even", ~odd), ("odd", odd)):
        sums = total[cells].sum(axis=0)
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
        for assign in itertools.islice(enumerate_colorings(G, domain, masks), state_budget + 1)
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
