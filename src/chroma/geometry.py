"""Odd-set structure theory and constructive coarse-graining geometry.

A set is odd (even) when its internal vertex boundary lies entirely on
the odd (even) sublattice, and regular when neither it nor its
complement has an isolated vertex.  Regular odd sets are the raw
material of every contour here: their boundaries satisfy a four-cycle
exchange property, which forces every boundary edge to have a *revealed*
endpoint seeing the boundary in at least half of the 2d directions, and
that in turn lets a small vertex set separate an entire collection of
regions.  Separating sets are upgraded to weak approximations (known
inside / known outside / small unknown fringe) and those are what a
coarse-graining enumeration would store instead of the regions
themselves; the fringe is W plus the small components of W^c, and each
known part is its set less the fringe.

Every boundary test here is set algebra over per-direction edge maps
(``lattice._edge_maps`` and ``lattice._boundary_maps``): boundary-edge
counts are popcounts and threshold ladders over them, the four-cycle
check and the separation tests shift them onto the far end of each
edge, and a failure names the lowest failing edge.  The separating
set's four-cycle witnesses come the same way from per-direction owner
maps, and the rim-pocket test of a weak approximation reads the
full-degree bitmap.

Each verdict has one body: ``_parity_classes`` resolves every parity
name, ``_irregular`` judges regularity on a slotted bitmap (one set, a
collection, or the regions of a decomposition), and ``_require_separated``
judges the separation of revealed vertices and of separating sets.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import InternalInvariantError, PreconditionError, ResourceLimitError
from .lattice import (
    LatticeGraph,
    VertexSet,
    _at_least,
    _boundary_maps,
    _edge_count,
    _edge_maps,
    _full_degree,
    _images,
    _ladder,
    _neighbor_bits,
    _pack_slots,
    _replicate,
    _slot,
    _split_components,
    boundary_edge_count,
    closed_neighborhood,
    connected_components,
    diameter,
    expand,
    neighborhood,
    n_t,
    vertex_boundaries,
)
from .patterns import Pattern, _p_odd
from .record import Record

if TYPE_CHECKING:  # pragma: no cover
    from .decomposition import Atlas


def _parity_classes(G: LatticeGraph, parity: str) -> tuple[VertexSet, VertexSet]:
    """(the class a parity set's internal boundary lies in, its complement)
    for the name 'odd' or 'even'; the complement is the inside core of the
    regularity test, a regular odd set U being (Even cap U)^+.  Every
    ``parity`` argument here is read through this function."""
    if parity == "odd":
        return G.odd, G.even
    if parity == "even":
        return G.even, G.odd
    raise PreconditionError(f"parity must be 'odd' or 'even', got {parity!r}")


def regularity_check(
    G: LatticeGraph, U: VertexSet, parity: str
) -> tuple[bool, int | None]:
    """Closed-form regularity test: U odd-regular iff U = (Even cap U)^+
    and U^c = (Odd cap U^c)^+ (parities swapped for even-regular).

    Returns (ok, witness vertex) where the witness violates one of the
    two closures; it is ``_irregular`` on one slot.
    """
    core = _parity_classes(G, parity)[1]
    for _, witness in _irregular(G, G.own(U), core.bits, (U,)):
        return False, witness
    return True, None


def _irregular(G: LatticeGraph, bits: int, inside_core: int,
               labels: Sequence) -> Iterator[tuple]:
    """(label, witness) for each slot of a k-slot bitmap that is not a
    regular set, in slot order: slot i holds labels[i]'s set, and its cells
    in the slotted ``inside_core`` are the inside core of its test.  The
    witness is the lowest cell where the first failing closure differs from
    its set."""
    n = G.n
    in_diff, out_diff = _closure_diffs(G, bits, inside_core, len(labels))
    if in_diff | out_diff:
        for i, label in enumerate(labels):
            witness = _lowest(_slot(in_diff, i, n), _slot(out_diff, i, n))
            if witness is not None:
                yield label, witness


def _closure_diffs(G: LatticeGraph, bits: int, inside_core: int, k: int = 1) -> tuple[int, int]:
    """Where U differs from (core cap U)^+ and U^c from (core^c cap U^c)^+,
    the inside core's complement being the other parity class; slot by slot
    on a k-slot bitmap, each slot with its own inside core."""
    part = inside_core & bits
    inside = (part | _neighbor_bits(G, part, k)) ^ bits
    outside = ((1 << k * G.n) - 1) & ~bits
    part = outside & ~inside_core
    return inside, (part | _neighbor_bits(G, part, k)) ^ outside


def _lowest(first: int, second: int) -> int | None:
    """The lowest cell of the first nonzero bitmap, None when both are empty."""
    diff = first or second
    return (diff & -diff).bit_length() - 1 if diff else None


def is_parity_set(G: LatticeGraph, U: VertexSet, parity: str) -> bool:
    """U is odd (even) when its internal boundary is all odd (even)."""
    internal, _, _ = vertex_boundaries(G, U)
    return internal.issubset(_parity_classes(G, parity)[0])


class OddSetCollection:
    """A list of regular odd (or, mirrored, regular even) sets, checked in
    one slotted pass that names the first irregular set."""

    def __init__(self, G: LatticeGraph, sets: Sequence[VertexSet], parity: str = "odd"):
        sets, core = list(sets), _parity_classes(G, parity)[1]
        for i, witness in _irregular(G, _pack_slots((G.own(S) for S in sets), G.n),
                                     _replicate(core.bits, G.n, len(sets)), range(len(sets))):
            raise PreconditionError(f"set {i} is not regular {parity} (witness vertex {witness})")
        self.graph = G
        self.sets = sets
        self.parity = parity

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def complements(self) -> "OddSetCollection":
        other = "even" if self.parity == "odd" else "odd"
        return OddSetCollection(self.graph, [S.complement() for S in self.sets], other)


def _unseparated(G: LatticeGraph, maps: list[int], sep: int) -> list[int]:
    """The edges of the maps with neither end in sep."""
    images = _images(G, sep)   # images[opposite[j]] holds w when w's neighbor along j is in sep
    return [m & ~sep & ~images[k] for m, k in zip(maps, G._opposite)]


def _lowest_edge(G: LatticeGraph, maps: list[int]) -> tuple[int, int]:
    """The lowest edge (u, v), u < v, of nonempty edge maps that flag both
    ends of each edge: u is the lowest flagged cell, v its lowest partner."""
    cells = 0
    for m in maps:
        cells |= m
    u = (cells & -cells).bit_length() - 1
    return u, min(int(G.neighbor_table[j, u]) for j, m in enumerate(maps) if m >> u & 1)


def _require_separated(G: LatticeGraph, maps: list[int], sep: int,
                       invariant: str, rim: str) -> None:
    """Raise unless every edge of the maps has an end in sep, formatting a
    template with the lowest unseparated edge (u, v): ``invariant`` when both
    ends have full degree (a broken theorem), ``rim`` otherwise."""
    missed = _unseparated(G, maps, sep)
    if any(missed):
        u, v = _lowest_edge(G, missed)
        full = _full_degree(G)
        if full >> u & full >> v & 1:
            raise InternalInvariantError(invariant.format(u=u, v=v))
        raise PreconditionError(rim.format(u=u, v=v))


def revealed_vertices(G: LatticeGraph, S: VertexSet, parity: str = "odd") -> VertexSet:
    """Vertices incident to at least d boundary edges of S.

    For an odd (or even) set these separate S: every boundary edge has a
    revealed endpoint.  That is a theorem, so a failure away from the rim
    aborts as an internal error.
    """
    if not is_parity_set(G, S, parity):
        raise PreconditionError(f"S is not an {parity} set")
    maps = _boundary_maps(G, [S])
    revealed = VertexSet(_at_least(G, maps, G.d), G.n)
    _require_separated(
        G, maps, revealed.bits, "boundary edge ({u},{v}) has no revealed endpoint",
        "boundary edge ({u},{v}) is clipped by the ambient rim; "
        "revealed-vertex separation needs clearance from the faces")
    return revealed


def _four_cycle_failures(G: LatticeGraph, bits: int) -> tuple[list[int], list[int]]:
    """Boundary edges of a bitmap that break the two clauses of
    ``four_cycle_check``, as edge maps that flag both ends of each edge.

    Entry a of the first list holds u when the boundary edge from u to its
    neighbor v along a has a direction j in which u or v has a neighbor but
    neither {u, u+j} nor {v, v+j} is a boundary edge; entry a of the second
    holds u when u and v both have full degree and see fewer than 2d
    boundary edges together.  Any bitmap is accepted, parity set or not.
    """
    top = G.full_degree
    D = _edge_maps(G, bits)          # D[j]: u whose edge along j is a boundary edge
    reach = G._stepping              # reach[j]: u with a neighbor along j
    # back[k] of X holds u when the neighbor of u along the opposite of k is in X,
    # so back[opposite[a]] moves X to the near end of edges along a; the
    # graph's own constants are moved once and kept on the graph
    constants = G.memo.get(("four-cycle constants",))
    if constants is None:
        full = _full_degree(G)
        constants = G.memo[("four-cycle constants",)] = (
            [_images(G, m) for m in reach], full, _images(G, full))
    back_reach, full, back_full = constants
    back_D = [_images(G, m) for m in D]
    seen = [(1 << G.n) - 1] + _ladder(D, top)   # seen[i]: cells on >= i boundary edges
    back_seen = [_images(G, m) for m in seen]
    exchange, sight = [], []
    for a, Da in enumerate(D):
        k = G._opposite[a]
        bad = enough = 0
        for j in range(top):
            bad |= (reach[j] | back_reach[j][k]) & ~D[j] & ~back_D[j][k]
        for i in range(top + 1):
            enough |= seen[i] & back_seen[top - i][k]
        exchange.append(Da & bad)
        sight.append(Da & full & back_full[k] & ~enough)
    return exchange, sight


def four_cycle_check(G: LatticeGraph, S: VertexSet, parity: str = "odd") -> bool:
    """Exchange property of parity-set boundaries, in every direction.

    For each boundary edge {u, v} and each axis direction e existing in
    the graph, one of {u, u+e}, {v, v+e} is again a boundary edge, and
    any two endpoints with full degree jointly see at least 2d boundary
    edges.  This is a theorem for odd/even sets, so a violation raises
    an internal error naming the lowest failing edge; the return value is
    True for convenience.
    """
    if not is_parity_set(G, S, parity):
        raise PreconditionError(f"S is not an {parity} set")
    failures = [(_lowest_edge(G, maps), clause)
                for clause, maps in enumerate(_four_cycle_failures(G, S.bits)) if any(maps)]
    if failures:
        (u, v), clause = min(failures)
        if clause == 0:
            raise InternalInvariantError(f"four-cycle property failed at edge ({u},{v})")
        seen = sum((x in S) != (w in S) for w in (u, v) for x in G.neighbors[w])
        raise InternalInvariantError(f"endpoints of ({u},{v}) see only {seen} boundary edges")
    return True


def greedy_cover(G: LatticeGraph, S: VertexSet, t: int) -> VertexSet:
    """Small T inside S with N_t(S) inside N(T), chosen greedily.

    Every target has at least t neighbors in S, so the greedy pick
    achieves the usual (1 + log degree)/t factor over the fractional
    optimum.  Each pick is the lowest id among the cells of S with the
    most uncovered targets as neighbors.
    """
    targets = n_t(G, S, t).bits
    chosen = 0
    while targets:
        gains = _ladder(_images(G, targets), G.full_degree)
        best = next((level & S.bits for level in reversed(gains) if level & S.bits), 0)
        if not best:
            raise InternalInvariantError("cover targets not reachable from S")
        v = (best & -best).bit_length() - 1
        chosen |= 1 << v
        targets &= ~_neighbor_bits(G, 1 << v)
    return VertexSet(chosen, G.n)


class SeparatingSetReport(Record):
    __slots__ = ("vertices",     # the set U; N(U) does the separating
                 "separator",    # N(U)
                 "size",
                 "size_bound",   # reported, asymptotic: |dS| d^{-3/2} log d
                 "separates", "s_threshold", "t_threshold")


def _witness_set(
    G: LatticeGraph, own: list[list[int]], m_levels: list[int], outside: int
) -> int:
    """T: the outside cells v = w - e_k with m_w > 0 and 2 c_k(w) < m_w.

    own[i][j] holds the cells w of a_i with w - e_j in S_i, m_levels is the
    ladder of m_w (the directions with an owner), and c_k(w) counts the
    directions j with some i owning j but not k at w.  The test fails
    exactly when c_k(w) >= t and m_w < 2t + 1 for some t in 1..d.
    """
    top = G.full_degree
    found = 0
    for k in range(top):
        c_levels = _ladder(
            [reduce(or_, (own_i[j] & ~own_i[k] for own_i in own), 0) for j in range(top)], G.d)
        passing = m_levels[0] & ~c_levels[-1]
        for t in range(1, G.d):
            passing &= ~(c_levels[t - 1] & ~m_levels[2 * t])
        found |= _images(G, passing)[G._opposite[k]]
    return found & outside


def _half_separating_core(
    G: LatticeGraph,
    collection: OddSetCollection,
    s: int,
    t: int,
) -> VertexSet:
    """Cover of the in-set revealed vertices for an odd collection.

    High-boundary outside vertices and near-saturated inside vertices
    are covered greedily; the remaining revealed vertices are reached
    through four-cycle witnesses inside the sets (``_witness_set``).
    Every count is a threshold ladder over shifted bitmaps.
    """
    sets = collection.sets
    inside = _parity_classes(G, collection.parity)[0].bits
    outside = inside ^ ((1 << G.n) - 1)
    A = VertexSet(outside & _at_least(G, _boundary_maps(G, sets), s), G.n)
    a_i = [inside & _at_least(G, _boundary_maps(G, [S]), G.full_degree - s) for S in sets]
    own = [[a & image for image in _images(G, S.bits)] for S, a in zip(sets, a_i)]
    m_levels = _ladder([reduce(or_, maps) for maps in zip(*own)], G.full_degree)
    heavy = m_levels[2 * max(s, 0)] if s < G.d else 0   # m_w >= 2s + 1
    T_prime = m_levels[0] & ~heavy
    T = VertexSet(_witness_set(G, own, m_levels, outside), G.n)

    B = greedy_cover(G, A, t) if A else G.empty_set()
    B_prime = greedy_cover(G, T, t) if T else G.empty_set()
    B_dprime = G.empty_set()
    for S, a in zip(sets, a_i):
        B_dprime = B_dprime | (S & n_t(G, VertexSet(a & T_prime, G.n), t))
    return B | B_prime | B_dprime


def separating_set(
    collection: OddSetCollection,
    s: int | None = None,
    t: int | None = None,
) -> SeparatingSetReport:
    """Small U such that N(U) separates every set of the collection.

    Runs the revealed-vertex cover construction on the collection and,
    mirrored, on the complements, so both endpoints of every boundary
    edge are handled.  Default thresholds are s = ceil(sqrt(d)) and
    t = d/6, clamped up to 1 in low dimension where the asymptotic
    bound is not claimed; the size bound |dS| d^{-3/2} log d is reported,
    never asserted.  A set that fails to separate raises.

    The lemma takes an integer s in 1..d: from s = d on the witness step
    has no heavy cells (the construction's own clamp), and below 1 every
    outside cell would count as a high-boundary one.  t lies in 1..d: the
    cover argument needs t <= d, as a revealed cell sees at least d
    boundary edges.  A threshold outside its range is a PreconditionError.
    """
    G = collection.graph
    d = G.d
    s_val = s if s is not None else max(1, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    t_val = t if t is not None else max(1, d // 6)
    if not 1 <= s_val <= d:
        raise PreconditionError(f"s must be in 1..{d}, got {s_val}")
    if not 1 <= t_val <= d:
        raise PreconditionError(f"t must be in 1..{d}, got {t_val}")
    U = _half_separating_core(G, collection, s_val, t_val)
    U = U | _half_separating_core(G, collection.complements(), s_val, t_val)
    separator = neighborhood(G, U)
    boundary = _boundary_maps(G, collection.sets)
    _require_separated(
        G, boundary, separator.bits,
        "constructed set fails to separate the collection at edge ({u}, {v})",
        "boundary edge ({u}, {v}) is clipped by the ambient rim; the separating "
        "construction needs the collection to clear the faces")
    bound = _edge_count(boundary) * math.log(max(d, 2)) / d ** 1.5
    return SeparatingSetReport(
        vertices=U,
        separator=separator,
        size=len(U),
        size_bound=bound,
        separates=True,
        s_threshold=s_val,
        t_threshold=t_val,
    )


class WeakApproximation(Record):
    __slots__ = ("known",             # known-inside part per set
                 "fringe",            # unknown region (separator plus small pockets)
                 "fringe_bound_ok")   # |fringe| <= 3 |W| (true away from box faces)


def weak_approximation(
    G: LatticeGraph, W: VertexSet, collection: OddSetCollection
) -> WeakApproximation:
    """Coarse description of a collection from a separating set W.

    W separates the collection when every boundary edge of every set has
    an end in W, so each component of the complement of W lies entirely
    inside or outside every set.  The fringe is W plus the small
    components, of at most d cells: the isolated cells of W^c and the
    grown components that small.  Every other cell is known, so known_i
    is S_i less the fringe and the containment sandwich known_i <= S_i <=
    known_i + fringe holds by construction.  The fringe must lie inside
    W^+; a small pocket outside W^+ with a cell below full degree (at the
    rim, say) is refused as a precondition.  The 3|W| size bound is
    reported (cramped box corners can break the isoperimetry behind it).
    """
    missed = _unseparated(G, _boundary_maps(G, collection.sets), G.own(W))
    if any(missed):
        raise PreconditionError(
            f"W does not separate the collection: boundary edge {_lowest_edge(G, missed)} "
            "has neither end in W"
        )
    isolated, grown = _split_components(G, W.complement().bits)
    small = VertexSet(reduce(or_, (c for c in grown if c.bit_count() <= G.d), isolated), G.n)
    fringe = W | small
    known = [S - fringe for S in collection.sets]
    escaped = fringe - closed_neighborhood(G, W)
    if escaped:
        # a pocket of at most d full-degree cells has a neighbor in W at
        # every cell, so only a pocket clipped below full degree can escape
        pockets = connected_components(G, small)
        if all(comp.bits & ~_full_degree(G) for comp in pockets if comp & escaped):
            raise PreconditionError(
                f"fringe cell {escaped.min_id()} lies outside W^+ in a pocket "
                "below full degree; the bound needs full-degree cells"
            )
        raise InternalInvariantError("fringe escaped the neighborhood of W")
    return WeakApproximation(known, fringe, len(fringe) <= 3 * len(W))


class Approximation(Record):
    """Coarse description of an atlas: known regions and unknown fringes."""

    __slots__ = ("a_p", "a_star", "a_2star")

    def __init__(self, a_p: dict[Pattern, VertexSet], a_star: VertexSet, a_2star: VertexSet):
        if not a_star.issubset(a_2star):
            raise PreconditionError("a_star must be contained in a_2star")
        super().__init__(a_p, a_star, a_2star)


def verify_approximation(
    G: LatticeGraph,
    A: Approximation,
    X: "Atlas",
    L: int,
    size_constant: float = 1.0,
) -> tuple[bool, dict[str, bool]]:
    """Check the sandwich, support, size and location clauses.

    (sandwich) each region is pinched between its known part and the
    known part plus the parity-matching fringe; (support) fringe cells
    of a region's P-odd parity have at least d known neighbors among
    same-class regions; (size) the full fringe is within the configured
    multiple of L log(d)/sqrt(d); (location) the full fringe hugs the
    region boundaries to distance 3.
    """
    clauses: dict[str, bool] = {}
    sandwich = True
    for P, region in X.x_p.items():
        known = A.a_p.get(P, G.empty_set())
        odd = _p_odd(G, P)
        allowed = known | (A.a_star & odd) | (A.a_2star - odd)
        if not known.issubset(region) or not region.issubset(allowed):
            sandwich = False
    clauses["sandwich"] = sandwich

    support = True
    for P in X.x_p:
        same_class = G.empty_set()
        for Q, kq in A.a_p.items():
            if Q.klass == P.klass:
                same_class = same_class | kq
        if not (A.a_star & _p_odd(G, P)).issubset(n_t(G, same_class, G.d)):
            support = False
    clauses["support"] = support

    bound = size_constant * L * math.log(max(G.d, 2)) / math.sqrt(G.d)
    clauses["size"] = len(A.a_2star) <= bound

    halo = G.empty_set()
    for Q, region in X.x_p.items():
        _, _, both = vertex_boundaries(G, region)
        halo = halo | expand(G, both, 3)
    clauses["location"] = A.a_2star.issubset(halo)
    return all(clauses.values()), clauses


ENUMERATION_LIMIT = 16   # most vertices enumerate_regular_parity_sets sweeps
ENUMERATION_CHUNK = 128  # consecutive subsets it tests per slotted pass


def enumerate_regular_parity_sets(G: LatticeGraph, parity: str) -> list[VertexSet]:
    """Every regular odd (even) subset of a tiny ambient, by brute force.

    The sweep is exponential in the vertex count, so it refuses graphs
    larger than ``ENUMERATION_LIMIT`` vertices; it exists to let exhaustive
    verification runs cover the whole family at desk scale.  Subsets are
    tested ``ENUMERATION_CHUNK`` at a time, one per slot of one
    ``_closure_diffs`` pass (a short last chunk leaves its top slots empty).
    """
    if G.n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"exhaustive enumeration is limited to {ENUMERATION_LIMIT} vertices, got {G.n}"
        )
    n, k = G.n, ENUMERATION_CHUNK
    core = _replicate(_parity_classes(G, parity)[1].bits, n, k)
    out = []
    for start in range(0, 1 << n, k):
        chunk = range(start, min(start + k, 1 << n))
        in_diff, out_diff = _closure_diffs(G, _pack_slots(chunk, n), core, k)
        diff = in_diff | out_diff
        out.extend(VertexSet(bits, n) for i, bits in enumerate(chunk) if not _slot(diff, i, n))
    return out


class IsoperimetryReport(Record):
    # small_*: the small-set bound, None unless it applies; per_component: the diameter bound
    __slots__ = ("applicable_small", "small_lhs", "small_rhs", "small_holds", "per_component")


def isoperimetry_checks(G: LatticeGraph, U: VertexSet) -> IsoperimetryReport:
    """Boundary lower bounds for odd sets.

    Small-set bound: a finite odd set containing an even vertex has edge
    boundary at least 2d(2d-1).  Diameter bound: each distance-2
    component A with its isolated core removed satisfies
    |bd A| + |bd (iso(A)^+)| >= (d-1)^2 (2 + diam A) / 2,
    where iso(A) collects the vertices of A with no neighbor in A.
    """
    if not is_parity_set(G, U, "odd"):
        raise PreconditionError("isoperimetry checks expect an odd set")
    d = G.d
    has_even = not U.isdisjoint(G.even)
    if has_even:
        lhs = boundary_edge_count(G, [U])
        rhs = 2 * d * (2 * d - 1)
        small = (True, lhs, rhs, lhs >= rhs)
    else:
        small = (False, None, None, None)
    per_comp = []
    for comp in connected_components(G, U, power=2):
        iso_plus = closed_neighborhood(G, comp - neighborhood(G, comp))
        lhs = boundary_edge_count(G, [comp]) + boundary_edge_count(G, [iso_plus])
        rhs = (d - 1) ** 2 * (2 + diameter(G, comp)) / 2
        per_comp.append(
            {
                "component_min": comp.min_id(),
                "lhs": lhs,
                "rhs": rhs,
                "holds": lhs >= rhs,
            }
        )
    return IsoperimetryReport(
        applicable_small=small[0],
        small_lhs=small[1],
        small_rhs=small[2],
        small_holds=small[3],
        per_component=tuple(per_comp),
    )
