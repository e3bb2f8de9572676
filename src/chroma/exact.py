"""Exact counting of proper colorings: backtracking and cell-by-cell transfer.

Counts are arbitrary-precision integers and every derived probability or
ratio is an exact Fraction, so equality claims (for instance the sharp
entropy-cost ratios of single pattern droplets) can be tested without
floating-point slack.

Two independent engines are provided on purpose: a component-caching
search (branch on one cell, split what is left into connected components,
multiply their counts and cache each component under its cells and masks),
and a cell-by-cell transfer dynamic program over broken-layer profiles,
which adds one cell at a time at O(S * q) for S live profile states, each
kept once up to a relabelling of interchangeable colors.  The
two share no code and must agree to the last digit wherever both run, and
the test suite holds them to that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import index, itemgetter
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    ConfigError,
    PreconditionError,
    ResourceLimitError,
    UndefinedMeasureError,
)
from .lattice import (
    LatticeGraph,
    VertexSet,
    _bits_to_ids,
    boundary_cells,
    boundary_edge_count,
    closed_neighborhood,
    vertex_boundaries,
)
from .patterns import MAX_COLORS, Pattern, _not_dominant_for
from .record import Record


class CountResult(Record):
    __slots__ = ("count", "method")

    def __init__(self, count: int, method: str):
        _set_count(self, count)
        _set_method(self, method)

    def to_json(self, instance: Mapping | None = None) -> dict:
        out = {"count": str(self.count), "method": self.method}
        if instance is not None:
            out["instance"] = dict(instance)
        return out


class Constraint(Record):
    """A boundary condition is its fields: a dominant pattern P whose side
    the domain's boundary cells take (None for none), and (vertex, color)
    pins sorted by vertex.  Both may be set; with neither the count is free."""

    __slots__ = ("pattern", "pins")

    def __init__(self, pattern: Pattern | None = None, pins: tuple[tuple[int, int], ...] = ()):
        if pattern is not None and not pattern.is_dominant():
            raise ConfigError("boundary constraint needs a dominant pattern")
        _set_pattern(self, pattern)
        _set_pins(self, pins)

    @classmethod
    def free(cls) -> "Constraint":
        return cls()

    @classmethod
    def pattern_boundary(cls, P: Pattern) -> "Constraint":
        return cls(pattern=P)

    @classmethod
    def pinned(cls, pins: Mapping[int, int]) -> "Constraint":
        # pins read off a coloring's values arrive as numpy ints
        return cls(pins=tuple(sorted((int(v), int(c)) for v, c in pins.items())))

    def with_pin(self, v: int, c: int) -> "Constraint":
        pins = dict(self.pins)
        pins[v] = c
        return Constraint(self.pattern, tuple(sorted(pins.items())))


# counts build these records by the hundred, through their slots' own setters
_set_count, _set_method = CountResult._setters
_set_pattern, _set_pins = Constraint._setters


def allowed_masks(
    G: LatticeGraph, domain: VertexSet, q: int, constraint: Constraint
) -> tuple[list[int], bool]:
    """``_domain_masks`` scattered over every vertex id, 0 off the domain,
    with its refusals and feasibility.  The only list of a mask per cell of
    the box (the sampler's layout and ``enumerate_colorings`` read it); a
    count reads the domain's masks alone, so its cost follows the domain.
    """
    masks, feasible = _domain_masks(G, domain, q, constraint)
    if len(masks) == G.n:
        return masks, feasible
    out = [0] * G.n
    for v, mask in zip(_bits_to_ids(domain.bits, G.n), masks):
        out[v] = mask
    return out, feasible


def _domain_masks(
    G: LatticeGraph, domain: VertexSet, q: int, constraint: Constraint | None
) -> tuple[list[int], bool]:
    """Each domain cell's color bitmask, in ascending ids, and feasibility;
    a constraint of None is free.

    Pins inside the domain force single colors; pins outside it knock
    their color out of adjacent domain cells.  A negative q, a q past the
    pattern ceiling ``MAX_COLORS``, or a pin off the graph or outside 1..q,
    is a ConfigError; a pattern of another q is a PreconditionError.
    Infeasibility (a pinned pair clashing, or an empty mask) yields count
    zero, not an error.  When the constraint has a pattern, ``_pattern_cut``
    cuts the boundary cells to its side; the pins apply on top.  A dominant
    side is never empty, so only pins can make a pattern boundary infeasible.
    The cells cut are found from the domain's bitmaps and the pins'
    neighbors, so the cost follows the domain, not the box.
    """
    if q < 0:
        raise ConfigError(f"q must be >= 0, got {q}")
    if q > MAX_COLORS:
        raise ConfigError(f"q must be at most {MAX_COLORS}, got {q}")
    bits = G.own(domain)
    P, pins = (constraint.pattern, dict(constraint.pins)) if constraint else (None, {})
    if P is not None and P.q != q:
        raise _not_dominant_for(P, q)
    for v, c in pins.items():
        if not 0 <= v < G.n:
            raise ConfigError(f"pinned vertex {v} outside 0..{G.n - 1}")
        if not 1 <= c <= q:
            raise ConfigError(f"pinned color {c} outside 1..{q}")
    masks = [(1 << q) - 1] * bits.bit_count()
    feasible = True
    if P is not None or pins:
        at = _places(G, bits, len(masks))
        if P is not None:
            masks = _pattern_cut(G, masks, boundary_cells(G, domain), P, at)
        for v, c in pins.items():
            bit = 1 << (c - 1)
            if v in at:
                masks[at[v]] &= bit
            # a pin's table neighbors, -1 where a face clips (a repeat changes nothing)
            for u in G.neighbor_table[:, v].tolist():
                if u in pins:
                    feasible &= pins[u] != c
                elif u in at:
                    masks[at[u]] &= ~bit
    return masks, feasible and 0 not in masks


def _places(G: LatticeGraph, bits: int, m: int) -> range | dict[int, int]:
    """Each cell of an m-cell domain by vertex id, to its place among the
    domain's masks: the ids themselves (a range) for the whole box."""
    return range(G.n) if m == G.n else dict(zip(_bits_to_ids(bits, G.n), range(m)))


def _pattern_cut(G: LatticeGraph, masks: list[int], U: VertexSet, P: Pattern,
                 at: range | dict[int, int]) -> list[int]:
    """The domain's ``masks`` with each cell of U cut to P's side for its
    parity, U's cells in the domain placed by ``at`` (``_places``).  Linear
    in U's cells after a few bitmap steps."""
    cut = masks.copy()
    for parity, part in enumerate((U.bits & G.even.bits, U.bits & G.odd.bits)):
        side = P.side_for_parity(parity)
        for v in _bits_to_ids(part, G.n):
            cut[at[v]] &= side
    return cut


# -- backtracking engine -------------------------------------------------------


def _layout(
    cells: list[int], G: LatticeGraph, masks: list[int], q: int
) -> tuple[list[int], list[int]]:
    """The counter's bitsets over ``cells``, bit i standing for ``cells[i]``,
    whose mask is ``masks[i]``: each cell's neighbors among them that share
    a color of its mask (an idle edge constrains nothing), and ``sets[c]``,
    the cells whose mask holds color c + 1."""
    bit = {v: 1 << i for i, v in enumerate(cells)}.get
    neighbors = G.neighbors
    nbr = []
    cells_by_mask: dict[int, int] = {}
    for v, mask in zip(cells, masks):
        bits = 0
        for u in neighbors[v]:
            bits |= bit(u, 0)
        nbr.append(bits)
        cells_by_mask[mask] = cells_by_mask.get(mask, 0) | bit(v)
    if len(cells_by_mask) > 1:
        # per mask, the cells whose masks share a color with it (the sum of
        # disjoint bitsets is their union): an edge to any other is idle
        meets = {m: sum(b for n, b in cells_by_mask.items() if n & m) for m in cells_by_mask}
        nbr = [bits & meets[mask] for mask, bits in zip(masks, nbr)]
    sets = [0] * q
    for mask, bits in cells_by_mask.items():
        for c in range(q):
            if mask >> c & 1:
                sets[c] |= bits
    return nbr, sets


def _axis_order(G: LatticeGraph, cells: list[int]) -> list[int]:
    """Ascending ids re-sorted so that the axis of their longest extent varies
    slowest, ties in axis order; ascending ids are row-major (axis 0
    slowest), so they come back as they are when the spans already fall."""
    at = G.coordinates
    spans = [max(col) - min(col) for col in zip(*[at[v] for v in cells])]
    if spans == sorted(spans, reverse=True):
        return cells
    by_axes = itemgetter(*sorted(range(G.d), key=spans.__getitem__, reverse=True))
    return sorted(cells, key=lambda v: by_axes(at[v]))


def _split(free: int, nbr: list[int]) -> list[tuple[int, int]]:
    """The connected components of the cells in ``free``, one bitset each,
    with the component's middle if it is a star and 0 if not.

    A star's middle is its lowest cell, or else that cell's one neighbor,
    when the middle's neighbors cover the component.
    """
    parts = []
    while free:
        comp = frontier = free & -free
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= nbr[low.bit_length() - 1]
            frontier = grow & free & ~comp
            comp |= frontier
        free ^= comp
        low = comp & -comp
        around = nbr[low.bit_length() - 1] & comp
        mid = low if around == comp ^ low else around
        if mid & (mid - 1) or (comp ^ mid) & ~nbr[mid.bit_length() - 1]:
            mid = 0
        parts.append((comp, mid))
    return parts


def _star(mid: int, comp: int, sets: list[int]) -> int:
    """The count of a star component with middle ``mid``, in closed form."""
    # |mask(leaf)| per leaf, then each color of the middle times the
    # choices it leaves at every leaf
    sizes = []
    leaves = comp ^ mid
    while leaves:
        leaf = leaves & -leaves
        leaves ^= leaf
        size = 0
        for s in sets:
            if s & leaf:
                size += 1
        sizes.append((leaf, size))
    total = 0
    for s in sets:
        if s & mid:
            product = 1
            for leaf, size in sizes:
                product *= size - 1 if s & leaf else size
            total += product
    return total


def _series_parallel(part: int, nbr: list[int], k: int) -> int | None:
    """The count of a component whose cells all allow the same k colors, by
    series and parallel reduction; None if it leaves more than one cell.

    An edge's weights (s, d) count the colorings of what it stands for with
    its two cells' colors equal and different.  A cell with one neighbor
    left multiplies the count by s + (k-1) d and goes; a cell with two, a
    and b, goes and joins its edges into one edge a-b with s = s1 s2 +
    (k-1) d1 d2 and d = s1 d2 + d1 s2 + (k-2) d1 d2, multiplied into an
    edge a-b already there.  The last cell has k colors.
    """
    adj = {}
    low = []   # cells of at most two neighbors, met in ascending ids
    ends = 0
    for i in _bits_to_ids(part, len(nbr)):
        near = adj[i] = nbr[i] & part
        degree = near.bit_count()
        ends += degree
        if degree <= 2:
            low.append(i)
    left = len(adj)
    if len(low) == left and ends == 2 * left:
        # a ring: every cell has two neighbors
        return (k - 1) ** left + (-1) ** left * (k - 1)
    # (s, d) per edge a reduction made, keyed by its two cells' bits; a
    # plain edge is (0, 1)
    weight: dict[int, tuple[int, int]] = {}
    total = 1
    while low and left > 1:
        i = low.pop()
        near = adj.get(i)
        if near is None or near.bit_count() > 2:
            continue
        cell = 1 << i
        del adj[i]
        left -= 1
        a = near & -near
        ia = a.bit_length() - 1
        adj[ia] ^= cell
        low.append(ia)
        s1, d1 = weight.get(a | cell, (0, 1))
        b = near ^ a
        if not b:
            total *= s1 + (k - 1) * d1
            continue
        ib = b.bit_length() - 1
        adj[ib] ^= cell
        low.append(ib)
        s2, d2 = weight.get(b | cell, (0, 1))
        # the cell in series between a and b, summed over its k colors
        s = s1 * s2 + (k - 1) * d1 * d2
        d = s1 * d2 + d1 * s2 + (k - 2) * d1 * d2
        if adj[ia] & b:
            s0, d0 = weight.get(a | b, (0, 1))
            s, d = s0 * s, d0 * d
        else:
            adj[ia] |= b
            adj[ib] |= a
        weight[a | b] = (s, d)
    return total * k if left == 1 else None


def _count_backtrack(
    G: LatticeGraph,
    domain: VertexSet,
    masks: list[int],
    q: int,
    budget: int = 500_000,
    root_only: bool = False,
) -> int | None:
    """Component-caching search over per-cell color masks, after the rules
    that need no search; with ``root_only``, None where a search is left.

    The domain's cells are taken in ascending ids, and cells and masks
    become integer bitsets over that order (``_layout``): ``nbr[i]`` holds
    cell i's neighbors that share a color with it, so a cut that leaves
    two neighbors disjoint masks splits them apart, and ``sets[c]`` the
    cells that may still take color c + 1.  On that layout three rules
    count what needs no search.  A pendant cell, one with a single neighbor
    left, whose mask holds every color of that neighbor's has |mask| - 1
    colors left whatever the neighbor takes: it multiplies the count by
    that and goes, and its neighbor may become pendant in turn, so a
    worklist peels every such tree (a chromatic-polynomial rule; Read, J.
    Combin. Theory 4, 1968).  The star is a component with one cell (the
    middle) next to every other cell, which ``_split`` recognizes as it
    finds the component.  The lattice is bipartite, so no two of the other
    cells (the leaves) are adjacent, and ``_star`` counts the sum over each
    color c of the middle of the product over the leaves of |mask(leaf)| -
    [c in mask(leaf)].  Every component of at most three cells is a star,
    as is a plus: a cell and any of its 2d neighbors.  A component left
    whose cells all allow the same k colors goes through series and
    parallel reduction (``_series_parallel``): the Potts-model rule of
    Sokal (The multivariate Tutte polynomial (alias Potts model) for graphs
    and matroids, Surveys in Combinatorics 2005, section 4.4), which takes
    time linear in the edges of a series-parallel graph (Satyanarayana and
    Wood, SIAM J. Comput. 14, 1985).  A ring, the case with no cell of
    three neighbors, is checked first and has (k-1)^L + (-1)^L (k-1)
    colorings.  Every part with no K4 minor (ladders, thetas, flowers of
    cycles) closes this way; one with a K4 minor (the 2x2x2 cube, the 3x3
    grid) is searched.  So a tree whose
    every peeled cell covers its neighbor, a star and an alike
    series-parallel part are counted at any size with no cache entry, no
    recursion and no axis order.  The peel and the series-parallel rule
    run at the root only: peeling at every node of a box's search (a box
    with no side of 1 has no pendant cell) cost more than it saved.

    Only the cells of the components left are put in a static lattice
    order, in which the axis of their longest extent varies slowest
    (``_axis_order``); the bitsets are built again over it only when it is
    not the ascending one.  Along the longest axis the boundary between
    assigned and free cells stays a small cross-section, which keeps the
    distinct residuals few.  The search branches on a component's first
    cell; each color knocks itself out of the cell's neighbors, and the
    cells left split into connected components whose counts multiply, a
    star among them counted by ``_star``.  Colors whose bitsets within the
    component are equal form a class: swapping two of them maps the
    colorings with the first cell in one onto those with it in the other,
    so the search branches once per class and weighs that branch by the
    class's size (interchangeable values, Freuder 1991).  At the root of a
    free count all q colors are one class.  Every component searched is
    cached under its color bitsets in sorted order: relabeling the colors
    does not change the count, and the union of the bitsets still fixes
    the component's cells, since no cell's mask is empty.  So the residual
    subproblems that the fixed order repeats are counted once, up to a
    permutation of the colors (component caching, as in the #SAT solvers
    of Sang et al. 2004 and Thurley's sharpSAT 2006).  The cache holds at
    most ``budget`` entries (the ``state_budget`` of ``count_colorings``),
    one per distinct component searched.

    ``masks`` holds the domain's masks (``_domain_masks``), in ascending
    ids.  Every mask is nonempty on entry; the count is exact.
    """
    order = _bits_to_ids(domain.bits, G.n)
    nbr, sets = _layout(order, G, masks, q)
    m = len(order)
    total = 1
    live = (1 << m) - 1
    pendant = [i for i, near in enumerate(nbr) if near and not near & (near - 1)]
    while pendant:
        i = pendant.pop()
        near = nbr[i] & live
        if not near or near & (near - 1):
            continue
        j = near.bit_length() - 1
        if masks[j] & ~masks[i]:
            continue   # the neighbor allows a color the cell does not
        total *= masks[i].bit_count() - 1
        live ^= 1 << i
        far = nbr[j] & live
        if far and not far & (far - 1):
            pendant.append(j)
    to_search = 0
    searched = []
    for part, mid in _split(live, nbr):
        if mid:
            total *= _star(mid, part, sets)
            continue
        sub = [t & part for t in sets]
        k = sub.count(part)
        if k + sub.count(0) == q:
            closed = _series_parallel(part, nbr, k)
            if closed is not None:
                total *= closed
                continue
        to_search |= part
        searched.append(part)
    if not to_search:
        return total
    if root_only:
        return None
    # every cell left: the ascending ids are the domain's own list
    cells = (order if to_search == (1 << m) - 1
             else [order[i] for i in _bits_to_ids(to_search, m)])
    static = _axis_order(G, cells)
    if static != cells:
        mask_of = dict(zip(order, masks))
        nbr, sets = _layout(static, G, [mask_of[v] for v in static], q)
        m = len(static)
        searched = ([(1 << m) - 1] if len(searched) == 1
                    else [part for part, _ in _split((1 << m) - 1, nbr)])
    cache: dict[int, int] = {}
    splits: dict[int, list[tuple[int, int]]] = {}

    def count(comp: int, sets: list[int]) -> int:
        key = 0
        for s in sorted(sets):
            key = key << m | s
        total = cache.get(key)
        if total is not None:
            return total
        low = comp & -comp
        rest = comp ^ low
        around = nbr[low.bit_length() - 1] & rest
        parts = splits.get(rest)
        if parts is None:
            parts = splits[rest] = _split(rest, nbr)
        left = [t & rest for t in sets]
        total = 0
        for c, s in enumerate(sets):
            if not s & low:
                continue
            # colors with equal bitsets are interchangeable: the first of
            # each class branches, for every color in the class
            weight = sets.count(s)
            if weight > 1 and sets.index(s) < c:
                continue
            sub = left.copy()
            sub[c] &= ~around
            alive = 0
            for t in sub:
                alive |= t
            if around & ~alive:
                continue
            if len(parts) == 1:
                # the one part is rest, and sub is cut to it already
                ((_, mid),) = parts
                total += weight * (_star(mid, rest, sub) if mid else count(rest, sub))
                continue
            product = weight
            for part, mid in parts:
                product *= _star(mid, part, sub) if mid else count(part, [t & part for t in sub])
                if not product:
                    break
            total += product
        cache[key] = total
        if len(cache) > budget:
            raise ResourceLimitError(
                f"counting cache exceeds the budget of {budget} entries"
            )
        return total

    try:
        for part in searched:
            total *= count(part, [t & part for t in sets])
    except RecursionError:
        raise ResourceLimitError(
            f"a {len(order)}-cell domain is too deep for the counting search"
        ) from None
    finally:
        # count holds itself through its closure: dropping it frees the cache
        # now, not at the garbage collector's next pass
        del count
    return total


def enumerate_colorings(
    G: LatticeGraph, domain: VertexSet, masks: list[int]
) -> Iterator[dict[int, int]]:
    """Yield every proper assignment of the domain respecting the masks.

    The generator has no budget of its own: a caller takes only what it
    can hold.  ``sampler.single_site_transition_matrix`` reads at most
    ``state_budget + 1`` assignments through ``islice``; every other
    caller is a test on a small domain.
    """
    order = _bits_to_ids(G.own(domain), G.n)
    values: dict[int, int] = {}

    def rec(i: int) -> Iterator[dict[int, int]]:
        if i == len(order):
            yield dict(values)
            return
        v = order[i]
        avail = masks[v]
        for u in G.neighbors[v]:
            if u in values:
                avail &= ~(1 << (values[u] - 1))
        while avail:
            low = avail & -avail
            avail ^= low
            values[v] = low.bit_length()
            yield from rec(i + 1)
            del values[v]

    yield from rec(0)


# -- transfer-matrix engine ----------------------------------------------------

# A cycle of repeating layers is frozen into gathers only from this many
# live profiles at its start.  Whole boxes, replay against none, in
# process: those freezing 2 to 5 profiles took up to 49 % more time, 8 to
# 10 from 12 % less to 14 % more (short boxes lose: 7x5 +14 %, 12x5
# -12 %), and 16 to 64 from 12 % to 55 % less (7x6, the free 7x7 box, the
# exact workload's strips 6x12 to 8x12).  Its slabs freeze at most 3.
REPLAY_FROM = 12


class _TransferPlan:
    """What ``_transfer`` does at each cell, worked out once per count.

    Cells go in layer order along the longest non-periodic axis, in vertex
    order within a layer: with that axis's stride and length, cell v lies
    in layer v // stride % length, at slot v // (stride * length) * stride
    + v % stride of the cross-section.  The colors are ordered so that
    every class of interchangeable colors is a run, and ``merges`` holds
    the cell counts after which runs merge.  ``steps`` holds one entry per
    cell: its slot, the slots its earlier neighbors still occupy and every
    plane's bits at them, its mask spread to bit 0 of each allowed color's
    plane, and its moves.  Every layer repeats the first one's neighbor
    slots, so between two merges the cells of one slot and mask make the
    same step: they share one dict of moves by the colors their neighbor
    slots hold.  A layer whose steps are those of the layer one or two
    before it (``repeats``) makes the same map as that layer: ``_transfer``
    reads that layer's record (``records``, by step, each profile's
    successor keys) and may replay the layer; ``replayed`` lists the
    layers it ran so.  A first-layer profile still has empty slots, so no
    later step meets it, and no layer repeats the first.
    """

    def __init__(self, G: LatticeGraph, masks: list[int], q: int):
        axis = -1   # the longest non-periodic axis
        for a, x in enumerate(G.dims):
            if not G.periodic[a] and (axis < 0 or x > G.dims[axis]):
                axis = a
        length = G.dims[axis]
        stride = math.prod(G.dims[axis + 1:])
        order = [b + layer * stride + r for layer in range(length)
                 for b in range(0, G.n, stride * length) for r in range(stride)]
        self.s = s = G.n // length
        self.q = q
        at: dict[int, int] = {}   # bit k of at[m]: cell order[k] has mask m
        for k, v in enumerate(order):
            at[masks[v]] = at.get(masks[v], 0) | 1 << k
        # bit k of a color's signature: cell order[k] allows it.  Sorted with
        # the last cell most significant, colors sharing a suffix are adjacent,
        # and colors g - 1 and g become interchangeable after cut[g] cells.
        sig = [0] * q
        for m, bits in at.items():
            for c in range(q):
                if m >> c & 1:
                    sig[c] |= bits
        colors = sorted(range(q), key=sig.__getitem__)
        sig.sort()
        self.cut = [0] + [(sig[g - 1] ^ sig[g]).bit_length() for g in range(1, q)]
        self.merges = merges = set(self.cut) - {0, G.n}  # no relabelling once every cell is in
        self.heads = ((1 << q * s) - 1) // ((1 << s) - 1)  # bit 0 of every plane
        spread = dict.fromkeys(at, 0)   # each mask with bit 0 of its colors' planes
        for g, c in enumerate(colors):
            for m in spread:
                if m >> c & 1:
                    spread[m] |= 1 << g * s
        # a layer's cells are the first layer's moved up by a stride, so a
        # slot sees the same earlier neighbors in every layer, and the cell
        # below in its own slot (in the first layer that slot is still empty)
        slot_of = {v: i for i, v in enumerate(order[:s])}
        near = [[i] for i in range(s)]
        around = [self.heads << i for i in range(s)]   # every plane at those slots
        for v, i in slot_of.items():
            for u in G.neighbors[v]:
                j = slot_of.get(u, s)
                if j < i:
                    near[i].append(j)
                    around[i] |= self.heads << j
        self.steps = steps = []
        # per slot, by mask, since the last merge: the moves (the first
        # layer's too, as its slot below is empty)
        shared: list[dict[int, dict]] = [{} for _ in range(s)]
        for k, v in enumerate(order):
            if k in merges:
                shared = [{} for _ in range(s)]
            i = k % s
            mask = spread[masks[v]]
            options = shared[i].get(mask)
            if options is None:
                options = shared[i][mask] = {}
            steps.append((i, near[i], around[i], mask, options))
        self.records: dict[int, dict[int, list[int]]] = {}   # _transfer's, by step
        self.replayed: list[int] = []   # the layers _transfer ran as gathers

    @cached_property
    def repeats(self) -> list[int]:
        """Per layer, the smaller p of 1 and 2 such that its steps are
        those of the layer p before it, not the first (the same moves), and
        no merge relabels at its end, or 0."""
        s = self.s
        ids = [id(step[4]) for step in self.steps]
        rows = [ids[k:k + s] for k in range(0, len(ids), s)]
        return [0 if (layer + 1) * s in self.merges else 1 if layer > 1 and row == rows[layer - 1]
                else 2 if layer > 2 and row == rows[layer - 2] else 0
                for layer, row in enumerate(rows)]

    def classes_after(self, k: int) -> list[tuple[int, int]]:
        """Runs [a, b) of interchangeable colors once k cells are added."""
        bounds = [g for g in range(1, self.q) if self.cut[g] > k]
        return list(zip([0] + bounds, bounds + [self.q]))

    def moves_after(self, k: int) -> list[tuple[int, int, int, int, int]]:
        """Each color's move once k cells are added: bit 0 of its plane, the
        shifts to its plane and to its run's first, and the masks that make
        it the first occurrence of its run (plain when it is the first)."""
        s = self.s
        full = (1 << s) - 1
        out = []
        for a, b in self.classes_after(k):
            for g in range(a, b):
                below = (1 << (g - a) * s) - 1 << a * s
                out.append((1 << g * s, g * s, a * s, ~(below | full << g * s), below))
        return out


def _transfer(plan: _TransferPlan, state_budget: int) -> int:
    """Whole-box count under per-cell masks, adding one cell at a time.

    Cells go in the layer order of ``_TransferPlan``, which numbers the
    cross-section's slots.  The profile holds the color of the last cell
    added in each slot, a layer broken at the next cell (the
    broken-profile transfer matrix of Jacobsen and Salas, J. Stat. Phys.
    2001).  Every neighbor of cell v added before it still sits in a
    slot: the cell below in v's own slot, earlier cells of v's layer
    (periodic wrap-around included) in theirs.  Adding v tries each color
    of masks[v] that no slot occupied by a neighbor holds and writes it
    into v's slot, at O(S * q) for S profiles.

    Profiles are kept up to the color permutations that cannot change the
    number of completions.  Two colors are interchangeable at a cell when
    every mask of a cell still to be added holds both or neither; any
    permutation mapping each such class to itself preserves those masks,
    so profiles it relates have equally many completions (the symmetry
    that Salas and Sokal, J. Stat. Phys. 1997, use for the q-coloring
    model).  The classes only merge as cells are added: free boxes keep
    one class of all q colors, a pattern boundary keeps its two sides
    apart until its last boundary cell, and pins split off smaller ones.
    Colors are ordered once so that every class at every cell is a run of
    consecutive positions, and a profile is one int of q planes of one bit
    per slot, plane g holding the slots of the g-th color in that order.

    The canonical key relabels each class by first occurrence, reading
    the slots from the one just written backwards (i, i - 1, ..., 0,
    then the last slot down to i + 1).  The next cell writes the last
    slot of that reading, so clearing it keeps a key canonical, and the
    new color is then the first occurrence of its class: it takes the
    class's first plane and the planes before its own move up by one,
    a few shifts per successor with no lookup.  Where every class is a
    single color the successor is the raw one.  When the classes merge,
    every profile is relabelled once and counts that land on one key are
    added.

    A layer that repeats the one p = 1 or 2 before it (``plan.repeats``)
    makes the same steps, so each of its steps reads the record that step
    made p layers back: a profile met there only adds its count into the
    recorded successor keys.  A layer is recorded only when a later layer
    repeats it (never the first), each step whole or not at all.  Only
    one layer reads a record (``repeats`` takes the smaller p), so it
    goes once read; a recorded step takes it over, adding the profiles
    it missed and removing those the step did not meet, so a converged
    layer copies nothing.  ``state_budget`` counts canonical profiles:
    more than that many live at once raise ResourceLimitError while the
    next map is being built.  The records share that budget, each entry
    charged one state for its profile and one for each color its step
    allows (a bound on its successor keys).  A step is recorded only if
    it fits beside the other records kept and the largest live map so
    far (a record taken over holds, until its step ends, the profiles it
    then loses), and when the map being built would not fit beside them
    they are dropped, so a refusal falls where it would with none.  The
    moves are built once per set of neighbor colors met and kept by the
    colors of the neighbor slots, never more keys than live profiles,
    and the classes change at most q - 1 times.

    A repeating layer whose profiles are the ones the layer p before it
    started from begins a cycle of p layers that maps that set to itself.
    From ``REPLAY_FROM`` live profiles, when the cycle comes twice more
    and its records are whole, ``_replay_maps`` freezes it from them, the
    records go, and every layer that repeats it runs as ``take`` and
    ``np.add.reduceat`` on an object array of the counts (Python ints, so
    exact) until the first that does not (a pattern's far face, a pin, a
    merge), where the dict is rebuilt.  The maps are charged what the
    cycle's records were, and a replay stores nothing and grows no live
    map, so every refusal falls where it would without it.
    """
    s, q, heads, merges, repeats = plan.s, plan.q, plan.heads, plan.merges, plan.repeats
    full = (1 << s) - 1
    counts = {0: 1}
    moves = plan.moves_after(0)
    records = plan.records
    read = {layer - p for layer, p in enumerate(repeats) if p}   # the layers recorded
    limit = state_budget   # less what the records are charged
    peak = 0   # the largest live map so far
    cur = None   # while replaying, the counts by position in the layer's start keys
    steps = enumerate(plan.steps)
    for k, (i, nbrs, around, mask, options) in steps:
        if not i:   # a layer starts: keep replaying, stop, or freeze a cycle
            layer = k // s
            p = repeats[layer]
            if cur is not None and p != period:
                counts = dict(zip(starts[(layer - first) % period], cur.tolist()))
                cur = maps = starts = None
            # layers layer - p to layer - 1 led from these profiles back to
            # them, so the same steps repeat that map, with the same live
            # maps: frozen from their records if every step was recorded
            # and the cycle comes twice more (a freeze costs about two
            # folded layers per layer)
            if (cur is None and p and len(counts) >= REPLAY_FROM
                    and repeats[layer:layer + 3 * p] == [p] * (3 * p)
                    and (cycle := range((layer - p) * s, layer * s))
                    and all(j in records for j in cycle)
                    and counts.keys() == records[cycle[0]].keys()):
                maps, starts = _replay_maps([records[j] for j in cycle], list(counts), s)
                records.clear()   # the maps take the records' place
                old = new = None   # and the last step's record goes too
                limit, period, first = state_budget, p, layer
                cur = np.array(list(counts.values()), dtype=object)
            if cur is not None:   # replay the layer and skip its other steps
                plan.replayed.append(layer)
                at = (layer - first) % period * s
                for order, groups in maps[at:at + s]:
                    cur = np.add.reduceat(cur.take(order), groups)
                for _ in range(s - 1):
                    next(steps)
                continue
            recorded = layer in read
        keep = ~(heads << i)
        if len(counts) > peak:
            peak = len(counts)
        old = records.pop(k - p * s, None) if p else None   # read by this step alone
        # a recorded step holds every profile it meets, each charged for
        # itself and for each color the step allows; the record read is
        # charged until the step ends, or until this step takes it over
        weight = 1 + mask.bit_count()
        freed = len(old) * weight if old else 0
        store = recorded and limit + freed - peak >= len(counts) * weight
        if store:
            limit += freed - len(counts) * weight
            freed = 0
            # the record read becomes this one: it gains the profiles it
            # misses, and at the end loses those the step did not meet
            new = records[k] = {} if old is None else old
        else:
            new = None   # holds no record past its step
        nxt: dict[int, int] = {}
        get = nxt.get
        for profile, n in counts.items():
            if old and (succ := old.get(profile)) is not None:
                for key in succ:
                    nxt[key] = get(key, 0) + n
            else:
                met = profile & around   # the neighbor slots' colors
                opts = options.get(met)
                if opts is None:
                    used = 0  # bit g * s set when a neighbor holds color g
                    for j in nbrs:
                        used |= met >> j
                    used &= heads
                    # the set of colors used keys the same dict: a met key
                    # equal to it is a lone neighbor color at slot 0 (or
                    # none), which uses just that set
                    opts = options.get(used)
                    if opts is None:
                        avail = mask & ~used
                        plain, turned = [], []
                        for bit, at, head, rest, below in moves:
                            if avail & bit:
                                if at == head:
                                    plain.append(bit << i)
                                else:
                                    turned.append((rest, below, at, head, 1 << head + i))
                        opts = options[used] = (plain, turned)
                    options[met] = opts
                if store:
                    succ = new[profile] = []
                base = profile & keep
                for o in opts[0]:
                    key = base | o
                    nxt[key] = get(key, 0) + n
                    if store:
                        succ.append(key)
                for rest, below, at, head, o in opts[1]:
                    key = base & rest | (base & below) << s | (base >> at & full) << head | o
                    nxt[key] = get(key, 0) + n
                    if store:
                        succ.append(key)
            if len(nxt) > limit:
                if limit == state_budget:
                    raise ResourceLimitError(
                        f"transfer profiles exceed the budget of {state_budget} states"
                    )
                # this step's own too, freed now, not when the step ends
                records.clear()
                limit, store, old, new, freed = state_budget, False, None, None, 0
        if store and len(new) > len(counts):
            for profile in [key for key in new if key not in counts]:
                del new[profile]
        limit += freed
        if k + 1 in merges:
            moves = plan.moves_after(k + 1)
            nxt = _relabel(nxt, plan.classes_after(k + 1), s, q, i)
        counts = nxt
    return sum(counts.values() if cur is None else cur.tolist())


def _replay_maps(
    records: list[dict[int, list[int]]], keys: list[int], s: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[list[int]]]:
    """Per step of a cycle of layers, from the steps' records and the keys
    the cycle starts from: the positions of each successor's predecessors
    (one per key its record lists) grouped by successor, and the groups'
    starts; and each layer's start keys.  Successors are numbered as they
    first occur, the last step's as ``keys``.
    """
    maps, starts = [], []
    last = len(records) - 1
    for k, record in enumerate(records):
        if k % s == 0:
            starts.append(keys)
        groups = {key: [] for key in starts[0]} if k == last else {}
        for a, key in enumerate(keys):
            for b in record[key]:
                groups.setdefault(b, []).append(a)
        order, at = [], []
        for group in groups.values():
            at.append(len(order))
            order += group
        maps.append((np.array(order, np.intp), np.array(at, np.intp)))
        keys = list(groups)
    return maps, starts


def _relabel(
    counts: dict[int, int], classes: list[tuple[int, int]], s: int, q: int, i: int
) -> dict[int, int]:
    """Canonical keys of ``_transfer``'s profiles after their classes merge.

    Within each run [a, b) the planes go in order of first occurrence,
    reading slots i, i - 1, ..., 0, s - 1, ..., i + 1; empty planes last.
    """
    full = (1 << s) - 1
    first = (2 << i) - 1

    def rank(plane: int) -> int:
        if plane & first:
            return i - (plane & first).bit_length() + 1
        return i + s - plane.bit_length() + 1 if plane else 2 * s

    out: dict[int, int] = {}
    for profile, n in counts.items():
        planes = [profile >> g * s & full for g in range(q)]
        key = 0
        for a, b in classes:
            for t, plane in enumerate(sorted(planes[a:b], key=rank)):
                key |= plane << (a + t) * s
        out[key] = out.get(key, 0) + n
    return out


def _count_masked(
    G: LatticeGraph,
    domain: VertexSet,
    q: int,
    masks: list[int],
    feasible: bool,
    method: str = "auto",
    state_budget: int = 500_000,
) -> CountResult:
    """Count the domain's colorings under its masks with one engine.

    The engine choice for ``method='auto'`` (see ``count_colorings``) is
    made here and nowhere else.  A box bound for the transfer engine whose
    masks differ (so not a free box) first runs the counter's root rules,
    and a count they finish is the counter's.  ``masks`` are the domain's
    (``_domain_masks``): a whole box's are by vertex id.
    """
    whole = len(masks) == G.n
    if method == "auto":
        method = "backtracking"
        if whole and not all(G.periodic) and G.n > 16:
            if feasible and len(set(masks)) > 1:
                total = _count_backtrack(G, domain, masks, q, root_only=True)
                if total is not None:
                    return CountResult(total, method)
            method = "transfer"
    if method == "transfer":
        if not whole:
            raise PreconditionError("transfer counting covers whole boxes only")
        if all(G.periodic):
            raise PreconditionError("transfer counting needs a non-periodic axis")
    if not feasible:
        return CountResult(0, method)
    if method == "transfer":
        total = _transfer(_TransferPlan(G, masks, q), state_budget)
    else:
        total = _count_backtrack(G, domain, masks, q, state_budget)
    return CountResult(total, method)


def transfer_count(
    G: LatticeGraph,
    q: int,
    constraint: Constraint | None = None,
    state_budget: int = 500_000,
) -> CountResult:
    """``count_colorings`` of the whole box by the transfer engine, ``_transfer``.

    state_budget caps the canonical profiles live at once (profiles equal
    up to a relabelling of interchangeable colors count once); passing it
    raises ResourceLimitError.
    """
    return count_colorings(G, G.full_set(), q, constraint, "transfer", state_budget)


def count_colorings(
    G: LatticeGraph,
    domain: VertexSet,
    q: int,
    constraint: Constraint | None = None,
    method: str = "auto",
    state_budget: int = 500_000,
) -> CountResult:
    """Exact number of proper colorings of the domain under the constraint.

    method 'auto' uses the cell-by-cell transfer engine when the domain is
    the whole box, a non-periodic axis exists and the box has more than 16
    cells, unless the box's masks differ and the counter's root rules leave
    nothing to search; otherwise the component-caching counter.  With its
    profiles keyed up to color relabelling the transfer engine is ahead on
    every free box tried (q=3, process time, best of ten runs on a shared
    2-core machine, transfer against counter: 7x7 0.0007 s against 0.0062 s,
    3x3x3 0.0009 s against 0.0027 s, 8x12 0.0015 s against 0.029 s, 10x12
    0.0065 s against 0.15 s, and 2x400, which the counter closes at its root
    without a search, 0.0014 s against 0.0026 s).  The counter drops the
    edges a cut leaves idle: the q=3 pattern box 3x3x3 is one star to it
    (0.0001 s against 0.0002 s), and a q=4 droplet count of ``toy_ratio``
    in 5x5x5 takes it 0.0003 s where the transfer engine passes its budget.
    The transfer engine's cost is set by the cross-section, the counter's
    by a cache that the budget caps.  state_budget caps the transfer
    engine's live canonical profiles and the counter's cache entries;
    passing it raises ResourceLimitError.  The count reads the masks of
    the domain's cells alone (``_domain_masks``), so its cost follows the
    domain, not the box; only ``allowed_masks`` builds a mask per cell of
    the box.
    """
    if method not in ("auto", "backtracking", "transfer"):
        raise ConfigError(f"unknown counting method {method!r}")
    masks, feasible = _domain_masks(G, domain, q, constraint)
    return _count_masked(G, domain, q, masks, feasible, method, state_budget)


# -- marginals, distances, ratios ---------------------------------------------


class ExactMarginal(Record):
    __slots__ = ("vertex", "probs")   # probs: a Fraction per color 1..q

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "probs": [f"{p.numerator}/{p.denominator}" for p in self.probs],
        }


def exact_marginal(
    G: LatticeGraph,
    domain: VertexSet,
    q: int,
    v: int,
    constraint: Constraint | None = None,
) -> ExactMarginal:
    """Exact color distribution at v under the constrained uniform measure.

    Colors c and c' are alike when every cell's mask under the constraint
    holds both or neither: swapping them maps the colorings with v at c
    onto those with v at c', so alike colors share one probability.  The
    colors of v's mask split into such classes; each class but the last
    takes one count, with v's mask cut to the class's first color, and
    the last shares what is left of 1.  A color outside v's mask has
    probability 0.  So a pinned v, or a v whose colors are all alike,
    takes the total count alone.  Each count reads the domain's masks
    alone, so its cost follows the domain; only ``allowed_masks`` builds
    a mask per cell of the box.
    """
    bits = G.own(domain)
    v = index(v)   # a numpy integer is stored as the int it stands for
    if v not in domain:
        raise PreconditionError(f"vertex {v} is outside the domain")
    masks, feasible = _domain_masks(G, domain, q, constraint)
    total = _count_masked(G, domain, q, masks, feasible).count
    if total == 0:
        raise UndefinedMeasureError("no proper coloring satisfies the constraint")
    at = (bits & ((1 << v) - 1)).bit_count()   # v's place among the domain's ids
    distinct = set(masks)
    classes: dict[tuple[int, ...], list[int]] = {}
    for c in range(q):
        if masks[at] >> c & 1:
            classes.setdefault(tuple(m >> c & 1 for m in distinct), []).append(c)
    *counted, last = classes.values()
    probs = [Fraction(0)] * q
    left = Fraction(1)
    for alike in counted:
        cut = masks.copy()
        cut[at] = 1 << alike[0]
        prob = Fraction(_count_masked(G, domain, q, cut, True).count, total)
        left -= prob * len(alike)
        for c in alike:
            probs[c] = prob
    for c in last:
        probs[c] = left / len(last)
    return ExactMarginal(v, tuple(probs))


def tv_distance(m1: Mapping, m2: Mapping, universe: Iterable | None = None) -> Fraction:
    """Total-variation distance, half the L1 difference over the support."""
    keys = set(m1) | set(m2)
    if universe is not None:
        allowed = set(universe)
        if not keys <= allowed:
            raise PreconditionError("distributions live on mismatched universes")
    total = Fraction(0)
    for k in keys:
        total += abs(Fraction(m1.get(k, 0)) - Fraction(m2.get(k, 0)))
    return total / 2


class ToyRatio(Record):
    __slots__ = ("ratio", "bound_base", "bound_exponent",
                 "verdict",   # 'equal' | 'below' | 'above'
                 "expected_equality", "n_u", "n_empty")

    def to_json(self) -> dict:
        return {
            "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
            "bound_base": f"{self.bound_base.numerator}/{self.bound_base.denominator}",
            "bound_exponent": f"{self.bound_exponent.numerator}/{self.bound_exponent.denominator}",
            "verdict": self.verdict,
            "expected_equality": self.expected_equality,
            "n_u": str(self.n_u),
            "n_empty": str(self.n_empty),
        }


def _compare_power(ratio: Fraction, base: Fraction, exponent: Fraction) -> int:
    """Sign of ratio - base**exponent, computed exactly."""
    lhs = ratio ** exponent.denominator
    rhs = base ** exponent.numerator
    if lhs == rhs:
        return 0
    return -1 if lhs < rhs else 1


def toy_ratio(
    G: LatticeGraph,
    domain: VertexSet,
    U: VertexSet,
    p0: Pattern,
    p: Pattern,
) -> ToyRatio:
    """Entropy cost of ordering a droplet U by pattern p inside a p0 sea.

    Counts colorings of the domain with U^+ in the p-pattern and
    (domain minus U)^+ in the p0-pattern, divided by the count for the
    empty droplet, and compares the exact ratio against the sharp
    per-interface bound: ((q-2)/q)^{|vertex boundary of U|} for even q,
    ((q-1)/(q+1))^{|edge boundary of U| / 2d} for odd q.  Both counts
    cut the domain's free masks by ``_pattern_cut`` (U^+ to p, the part of
    (domain minus U)^+ in the domain to p0) and use the engine that
    ``count_colorings`` would choose.  They read the domain's masks alone,
    so their cost follows the domain; only ``allowed_masks`` builds a mask
    per cell of the box.  Two neighbors cut to one pattern share no color,
    so few edges stay and the counter's root rules finish most of these
    counts, which auto then gives the counter.
    """
    q = p0.q
    if p.q != q:
        raise PreconditionError("patterns use different color counts")
    if not (p0.is_dominant() and p.is_dominant()):
        raise PreconditionError("both patterns must be dominant")
    if not closed_neighborhood(G, U).issubset(domain):
        raise PreconditionError("U^+ must be inside the domain")

    free, _ = _domain_masks(G, domain, q, None)
    at = _places(G, domain.bits, len(free))

    def droplet_count(drop: VertexSet) -> int:
        masks = _pattern_cut(G, free, closed_neighborhood(G, drop), p, at)
        masks = _pattern_cut(G, masks, closed_neighborhood(G, domain - drop) & domain, p0, at)
        return _count_masked(G, domain, q, masks, 0 not in masks).count

    n_empty = droplet_count(G.empty_set())
    if n_empty == 0:
        raise UndefinedMeasureError("the pure-pattern reference count is zero")
    n_u = droplet_count(U)
    ratio = Fraction(n_u, n_empty)
    if q % 2 == 0:
        _, _, both = vertex_boundaries(G, U)
        exponent = Fraction(len(both))
        base = Fraction(q - 2, q)
        a0, a = set(p0.a), set(p.a)
        expected_eq = bool(U) and len(a0 ^ a) == 2
    else:
        exponent = Fraction(boundary_edge_count(G, [U]), 2 * G.d)
        base = Fraction(q - 1, q + 1)
        internal, _, _ = vertex_boundaries(G, U)
        u_is_odd = internal.issubset(G.odd)
        u_is_even = internal.issubset(G.even)
        a0, a = set(p0.a), set(p.a)
        b0, b = set(p0.b), set(p.b)
        expected_eq = bool(U) and (
            (u_is_odd and a0 <= a) or (u_is_even and b0 <= b)
        )
    if not U:
        verdict = "equal" if ratio == 1 else "below"
        return ToyRatio(ratio, base, Fraction(0), verdict, False, n_u, n_empty)
    sign = _compare_power(ratio, base, exponent)
    verdict = {0: "equal", -1: "below", 1: "above"}[sign]
    return ToyRatio(ratio, base, exponent, verdict, expected_eq, n_u, n_empty)


class HtopPoint(Record):
    __slots__ = ("dims", "count", "log_per_site", "lower_bound")


def htop_estimate(q: int, boxes: Iterable[Iterable[int]]) -> list[HtopPoint]:
    """Per-torus log(count)/sites for free colorings, with the pure-pattern bound.

    Every box is a torus, so every side is even (the graph refuses an odd
    periodic axis with a ConfigError).  The density can never fall below
    log(floor(q/2) * ceil(q/2)) / 2, witnessed by the pure pattern
    colorings themselves, and a torus below it raises.  q below 2 is a
    ConfigError, as for a coloring.
    """
    if q < 2:
        raise ConfigError(f"q must be >= 2, got {q}")
    bound = 0.5 * math.log((q // 2) * ((q + 1) // 2))
    out = []
    for dims in boxes:
        dims = tuple(int(x) for x in dims)
        G = LatticeGraph(dims, (True,) * len(dims))
        count = count_colorings(G, G.full_set(), q).count
        log_per_site = math.log(count) / G.n if count else float("-inf")
        if log_per_site < bound - 1e-12:
            raise PreconditionError(
                f"torus {dims} fell below the pure-pattern entropy bound"
            )
        out.append(HtopPoint(dims, count, log_per_site, bound))
    return out

