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
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import (
    ConfigError,
    PreconditionError,
    ResourceLimitError,
    UndefinedMeasureError,
)
from .lattice import (
    LatticeGraph,
    VertexSet,
    _bit_chars,
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
    """Per-vertex color bitmasks for the domain; second value is feasibility.

    Pins inside the domain force single colors; pins outside it knock
    their color out of adjacent domain cells.  A negative q, a q past the
    pattern ceiling ``MAX_COLORS``, or a pin off the graph or outside 1..q,
    is a ConfigError; a pattern of another q is a PreconditionError.
    Infeasibility (a pinned pair clashing, or an empty mask) yields count
    zero, not an error.  When the constraint has a pattern, ``_pattern_cut``
    cuts the boundary cells to its side; the pins apply on top.  A dominant
    side is never empty, so only pins can make a pattern boundary infeasible.
    """
    if q < 0:
        raise ConfigError(f"q must be >= 0, got {q}")
    if q > MAX_COLORS:
        raise ConfigError(f"q must be at most {MAX_COLORS}, got {q}")
    G.own(domain)
    P = constraint.pattern
    if P is not None and P.q != q:
        raise _not_dominant_for(P, q)
    full = (1 << q) - 1
    # one character per vertex, "1" inside: linear in the cell count, where
    # testing or iterating the bits of an n-bit int one at a time is not
    inside = _bit_chars(domain)
    masks = [full if b == "1" else 0 for b in inside]
    feasible = True
    if P is not None:
        masks = _pattern_cut(G, masks, boundary_cells(G, domain), P)
    pins = dict(constraint.pins)
    for v, c in pins.items():
        if not 0 <= v < G.n:
            raise ConfigError(f"pinned vertex {v} outside 0..{G.n - 1}")
        if not 1 <= c <= q:
            raise ConfigError(f"pinned color {c} outside 1..{q}")
    # a pin's table neighbors, -1 where a face clips (a repeat changes nothing)
    for v, c in pins.items():
        for u in G.neighbor_table[:, v].tolist():
            if u >= 0 and pins.get(u) == c:
                feasible = False
    for v, c in pins.items():
        bit = 1 << (c - 1)
        if inside[v] == "1":
            masks[v] &= bit
        for u in G.neighbor_table[:, v].tolist():
            if u >= 0 and inside[u] == "1" and u not in pins:
                masks[u] &= ~bit
    # every cell outside the domain holds 0, so an empty domain cell is one 0 too many
    if masks.count(0) > G.n - len(domain):
        feasible = False
    return masks, feasible


def _pattern_cut(G: LatticeGraph, masks: list[int], U: VertexSet, P: Pattern) -> list[int]:
    """``masks`` with each cell of U cut to P's side for its parity; linear
    in the cell count, one ``_bit_chars`` character per cell."""
    sides = {p: P.side_for_parity(int(p)) for p in "01"}
    return [m & sides[p] if b == "1" else m
            for m, b, p in zip(masks, _bit_chars(U), _bit_chars(G.odd))]


# -- backtracking engine -------------------------------------------------------


def _count_backtrack(
    G: LatticeGraph,
    domain: VertexSet,
    masks: list[int],
    q: int,
    budget: int = 500_000,
) -> int:
    """Component-caching search over per-cell color masks.

    The domain's cells are put in a static lattice order in which the axis
    of its longest extent varies slowest (ascending ids are row-major, so
    they are re-sorted only when ordering the axes by extent changes the
    axis order), and cells and masks become integer bitsets over that order:
    ``sets[c]`` holds the cells that may still take color c + 1.  A
    component of at most three cells is counted in closed form: one cell by
    its mask, an edge by the product of its masks less the shared colors,
    and three cells, a path since the lattice is bipartite, by summing over
    each color of the middle cell the choices it leaves at either end.  A
    larger connected component of unassigned cells branches on its first
    cell; each color knocks itself out of the cell's neighbors, and the
    cells left split into connected components whose counts multiply.
    Colors whose bitsets within the component are equal form a class:
    swapping two of them maps the colorings with the first cell in one onto
    those with it in the other, so the search branches once per class and
    weighs that branch by the class's size (interchangeable values, Freuder
    1991).  At the root of a free count all q colors are one class.  Every
    component of four or more cells is cached under its color bitsets in
    sorted order: relabeling the colors does not change the count, and the
    union of the bitsets still fixes the component's cells, since no cell's
    mask is empty.  So the residual subproblems that the fixed order repeats
    are counted once, up to a permutation of the colors (component caching,
    as in the #SAT solvers of Sang et al. 2004 and Thurley's sharpSAT
    2006).  Along the longest axis the boundary between assigned and free
    cells stays a small cross-section, which keeps the distinct residuals
    few.  The cache holds at most ``budget`` entries (the ``state_budget``
    of ``count_colorings``), one per distinct component of four or more
    cells.

    Before any cache key or branch, two chromatic-polynomial rules (Read,
    J. Combin. Theory 4, 1968) take out what needs no search.  A pendant
    cell, one with a single neighbor left, whose mask holds every color of
    that neighbor's has |mask| - 1 colors left whatever the neighbor takes:
    it multiplies the count by that and goes, and its neighbor may become
    pendant in turn, so a worklist peels every such tree.  A component
    left that is a cycle of L >= 4 cells, each with two neighbors in it
    and every one allowing the same k colors, has (k-1)^L + (-1)^L (k-1)
    colorings.  So a tree whose every peeled cell covers its neighbor, and
    an alike ring, are counted at any length without recursion.  The
    rules run at the root only: peeling at every node of a box's search
    (a box with no side of 1 has no pendant cell) cost more than it saved.

    Every mask is nonempty on entry; the count is exact.
    """
    # ascending ids are row-major: axis 0 varies slowest
    order = _bits_to_ids(domain.bits, G.n)
    if not order:
        return 1
    at = G.coordinates
    spans = [max(col) - min(col) for col in zip(*[at[v] for v in order])]
    if spans != sorted(spans, reverse=True):
        # axes by extent, longest first, ties in axis order
        by_axes = itemgetter(*sorted(range(G.d), key=spans.__getitem__, reverse=True))
        order.sort(key=lambda v: by_axes(at[v]))
    bit = {v: 1 << i for i, v in enumerate(order)}.get
    neighbors = G.neighbors
    nbr = []
    for v in order:
        bits = 0
        for u in neighbors[v]:
            bits |= bit(u, 0)
        nbr.append(bits)
    m = len(order)
    cache: dict[int, int] = {}
    splits: dict[int, list[int]] = {}

    def split(free: int) -> list[int]:
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
            parts.append(comp)
            free ^= comp
        return parts

    def count(comp: int, sets: list[int]) -> int:
        low = comp & -comp
        if low == comp:
            return sum(1 for s in sets if s & low)
        rest = comp ^ low
        if rest & (rest - 1) == 0:
            # an edge: |mask(low)| * |mask(rest)| minus the shared colors
            a = b = shared = 0
            for s in sets:
                if s & low:
                    a += 1
                    if s & rest:
                        shared += 1
                if s & rest:
                    b += 1
            return a * b - shared
        around = nbr[low.bit_length() - 1] & rest
        high = rest & (rest - 1)   # rest less its lowest cell
        if high & (high - 1) == 0:
            # three cells: a path, since the lattice has no triangle; each
            # color of the middle cell times the choices it leaves at the ends
            mid, end = (low, high ^ rest) if around == rest else (around, low)
            other = comp ^ mid ^ end
            a = b = 0
            for s in sets:
                if s & end:
                    a += 1
                if s & other:
                    b += 1
            total = 0
            for s in sets:
                if s & mid:
                    total += (a - 1 if s & end else a) * (b - 1 if s & other else b)
            return total
        key = 0
        for s in sorted(sets):
            key = key << m | s
        total = cache.get(key)
        if total is not None:
            return total
        parts = splits.get(rest)
        if parts is None:
            parts = splits[rest] = split(rest)
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
                total += weight * count(rest, sub)
                continue
            product = weight
            for part in parts:
                product *= count(part, [t & part for t in sub])
                if not product:
                    break
            total += product
        cache[key] = total
        if len(cache) > budget:
            raise ResourceLimitError(
                f"counting cache exceeds the budget of {budget} entries"
            )
        return total

    cells_by_mask: dict[int, int] = {}
    for i, v in enumerate(order):
        cells_by_mask[masks[v]] = cells_by_mask.get(masks[v], 0) | 1 << i
    sets = [0] * q
    for mask, bits in cells_by_mask.items():
        for c in range(q):
            if mask >> c & 1:
                sets[c] |= bits
    total = 1
    live = (1 << m) - 1
    pendant = [i for i, near in enumerate(nbr) if near and not near & (near - 1)]
    while pendant:
        i = pendant.pop()
        near = nbr[i] & live
        if not near or near & (near - 1):
            continue
        j = near.bit_length() - 1
        if masks[order[j]] & ~masks[order[i]]:
            continue   # the neighbor allows a color the cell does not
        total *= masks[order[i]].bit_count() - 1
        live ^= 1 << i
        far = nbr[j] & live
        if far and not far & (far - 1):
            pendant.append(j)
    try:
        for part in split(live):
            sub = [t & part for t in sets]
            L = part.bit_count()
            k = sub.count(part)
            if L >= 4 and k + sub.count(0) == q and all(
                (nbr[i] & part).bit_count() == 2 for i in _bits_to_ids(part, m)
            ):
                total *= (k - 1) ** L + (-1) ** L * (k - 1)
                continue
            total *= count(part, sub)
    except RecursionError:
        raise ResourceLimitError(
            f"a {m}-cell domain is too deep for the counting search"
        ) from None
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


def _transfer(
    G: LatticeGraph, masks: list[int], q: int, state_budget: int
) -> int:
    """Whole-box count under per-cell masks, adding one cell at a time.

    Cells go in layer order along the longest non-periodic axis, in vertex
    order within a layer; cross-section position i is slot i.  The profile
    holds the color of the last cell added in each slot, a layer broken at
    the next cell (the broken-profile transfer matrix of Jacobsen and
    Salas, J. Stat. Phys. 2001).  Every neighbor of cell v added before it
    still sits in a slot: the cell below in v's own slot, earlier cells of
    v's layer (periodic wrap-around included) in theirs.  Adding v tries
    each color of masks[v] that no slot occupied by a neighbor holds and
    writes it into v's slot, at O(S * q) for S profiles.

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

    ``state_budget`` counts canonical profiles: more than that many live
    at once raise ResourceLimitError while the next map is being built.
    No table is keyed by profiles, so nothing else can outgrow it: each
    cell builds its successor moves once per set of neighbor colors met,
    never more sets than live profiles, and the classes change at most
    q - 1 times.
    """
    axes = [a for a in range(G.d) if not G.periodic[a]]
    axis = max(axes, key=lambda a: G.dims[a])
    layers: list[list[int]] = [[] for _ in range(G.dims[axis])]
    for v in range(G.n):
        layers[G.coords(v)[axis]].append(v)
    order = [v for layer in layers for v in layer]
    s = len(layers[0])
    full = (1 << s) - 1
    # bit k of a color's signature: cell order[k] allows it.  Sorted with
    # the last cell most significant, colors sharing a suffix are adjacent,
    # and colors g - 1 and g become interchangeable after cut[g] cells.
    sig = [sum((masks[v] >> c & 1) << k for k, v in enumerate(order)) for c in range(q)]
    colors = sorted(range(q), key=sig.__getitem__)
    sig.sort()
    cut = [0] + [(sig[g - 1] ^ sig[g]).bit_length() for g in range(1, q)]
    spread: dict[int, int] = {}
    heads = sum(1 << g * s for g in range(q))  # bit 0 of every plane

    def classes_after(k: int) -> list[tuple[int, int]]:
        """Runs [a, b) of interchangeable colors once k cells are added."""
        bounds = [g for g in range(1, q) if cut[g] > k]
        return list(zip([0] + bounds, bounds + [q]))

    occupant = [-1] * s
    counts = {0: 1}
    classes = classes_after(0)
    merges = set(cut) - {0, G.n}  # no relabelling once every cell is in
    k = 0
    for layer in layers:
        for i, v in enumerate(layer):
            nbrs = [j for j, u in enumerate(occupant) if u in G.neighbors[v]]
            occupant[i] = v
            keep = ~(heads << i)
            mask = spread.get(masks[v])
            if mask is None:
                mask = spread[masks[v]] = sum(
                    1 << g * s for g, c in enumerate(colors) if masks[v] >> c & 1
                )
            options: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
            nxt: dict[int, int] = {}
            get = nxt.get
            for profile, n in counts.items():
                used = 0  # bit g * s set when a neighbor holds color g
                for j in nbrs:
                    used |= profile >> j
                used &= heads
                opts = options.get(used)
                if opts is None:
                    avail = mask & ~used
                    plain, turned = [], []
                    for a, b in classes:
                        for g in range(a, b):
                            if not avail >> g * s & 1:
                                continue
                            if g == a:
                                plain.append(1 << g * s + i)
                            else:
                                below = (1 << (g - a) * s) - 1 << a * s
                                turned.append((
                                    ~(below | full << g * s), below,
                                    g * s, a * s, 1 << a * s + i,
                                ))
                    opts = options[used] = (plain, turned)
                base = profile & keep
                for o in opts[0]:
                    key = base | o
                    nxt[key] = get(key, 0) + n
                for rest, below, at, head, o in opts[1]:
                    key = base & rest | (base & below) << s | (base >> at & full) << head | o
                    nxt[key] = get(key, 0) + n
                if len(nxt) > state_budget:
                    raise ResourceLimitError(
                        f"transfer profiles exceed the budget of {state_budget} states"
                    )
            k += 1
            if k in merges:
                classes = classes_after(k)
                nxt = _relabel(nxt, classes, s, q, i)
            counts = nxt
    return sum(counts.values())


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
    """Count the domain's colorings under per-cell masks with one engine.

    The engine choice for ``method='auto'`` (see ``count_colorings``) is
    made here and nowhere else.
    """
    whole = domain.bits == (1 << G.n) - 1
    if method == "auto":
        auto_transfer = whole and not all(G.periodic) and G.n > 16
        method = "transfer" if auto_transfer else "backtracking"
    if method == "transfer":
        if not whole:
            raise PreconditionError("transfer counting covers whole boxes only")
        if all(G.periodic):
            raise PreconditionError("transfer counting needs a non-periodic axis")
    if not feasible:
        return CountResult(0, method)
    if method == "transfer":
        total = _transfer(G, masks, q, state_budget)
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
    cells, otherwise the component-caching counter.  With its profiles
    keyed up to color relabelling the transfer engine is ahead on every
    whole box tried (free q=3, process time, best of ten runs on a shared
    2-core machine, transfer against counter: 7x7 0.003 s against 0.012 s,
    3x3x3 0.0026 s against 0.0053 s, 8x12 0.014 s against 0.050 s, 10x12
    0.045 s against 0.19 s, 12x12 0.27 s against 0.96 s).  Its cost is
    set by the cross-section, the counter's by a cache that the budget
    caps.  state_budget caps the transfer engine's live canonical
    profiles and the counter's cache entries; passing it raises
    ResourceLimitError.
    """
    constraint = constraint or Constraint.free()
    if method not in ("auto", "backtracking", "transfer"):
        raise ConfigError(f"unknown counting method {method!r}")
    masks, feasible = allowed_masks(G, domain, q, constraint)
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

    A v that the constraint pins to c has probability 1 at c, once some
    coloring satisfies the constraint.  Otherwise colors c and c' are alike
    when every cell's mask under the constraint holds both or neither:
    swapping them maps the colorings with v pinned to c onto those with v
    pinned to c'.  So one pinned count is made per class of alike colors,
    and its probability is shared by the class.  When every color is
    alike, each has probability 1/q by that symmetry, and no pinned count
    is made.
    """
    G.own(domain)
    if v not in domain:
        raise PreconditionError(f"vertex {v} is outside the domain")
    constraint = constraint or Constraint.free()
    total = count_colorings(G, domain, q, constraint).count
    if total == 0:
        raise UndefinedMeasureError("no proper coloring satisfies the constraint")
    pin = dict(constraint.pins).get(v)
    if pin is not None:
        return ExactMarginal(v, tuple(Fraction(c == pin) for c in range(1, q + 1)))
    distinct = set(allowed_masks(G, domain, q, constraint)[0])
    if distinct <= {0, (1 << q) - 1}:
        return ExactMarginal(v, (Fraction(1, q),) * q)
    by_class: dict[tuple[int, ...], Fraction] = {}
    probs = []
    for c in range(1, q + 1):
        column = tuple(m >> c - 1 & 1 for m in distinct)
        prob = by_class.get(column)
        if prob is None:
            pinned = count_colorings(G, domain, q, constraint.with_pin(v, c)).count
            prob = by_class[column] = Fraction(pinned, total)
        probs.append(prob)
    if sum(probs) != 1:
        raise PreconditionError("marginal slices do not add up; inconsistent pins?")
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
    cut the free masks by ``_pattern_cut`` (U^+ to p, (domain minus U)^+
    to p0) and use the engine that ``count_colorings`` would choose.
    """
    q = p0.q
    if p.q != q:
        raise PreconditionError("patterns use different color counts")
    if not (p0.is_dominant() and p.is_dominant()):
        raise PreconditionError("both patterns must be dominant")
    if not closed_neighborhood(G, U).issubset(domain):
        raise PreconditionError("U^+ must be inside the domain")

    free, _ = allowed_masks(G, domain, q, Constraint.free())

    def droplet_count(drop: VertexSet) -> int:
        # cells off the domain hold 0 and keep it under every cut
        masks = _pattern_cut(G, free, closed_neighborhood(G, drop), p)
        masks = _pattern_cut(G, masks, closed_neighborhood(G, domain - drop), p0)
        feasible = masks.count(0) == G.n - len(domain)
        return _count_masked(G, domain, q, masks, feasible).count

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

