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
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .lattice import (
    LatticeGraph,
    VertexSet,
    closed_neighborhood,
    connected_components,
    diameter,
    edge_set,
    expand,
    neighborhood,
    n_t,
    vertex_boundaries,
)
from .patterns import Pattern


def _core_sets(G: LatticeGraph, parity: str) -> tuple[VertexSet, VertexSet]:
    """(inside-core parity class, outside-core parity class) for a set kind."""
    if parity == "odd":
        return G.even, G.odd
    if parity == "even":
        return G.odd, G.even
    raise PreconditionError(f"parity must be 'odd' or 'even', got {parity!r}")


def regularity_check(
    G: LatticeGraph, U: VertexSet, parity: str
) -> tuple[bool, int | None]:
    """Closed-form regularity test: U odd-regular iff U = (Even cap U)^+
    and U^c = (Odd cap U^c)^+ (parities swapped for even-regular).

    Returns (ok, witness vertex) where the witness violates one of the
    two closures.
    """
    inside_core, outside_core = _core_sets(G, parity)
    closure_in = closed_neighborhood(G, inside_core & U)
    if closure_in != U:
        bad = (closure_in ^ U).min_id()
        return False, bad
    comp = U.complement()
    closure_out = closed_neighborhood(G, outside_core & comp)
    if closure_out != comp:
        bad = (closure_out ^ comp).min_id()
        return False, bad
    return True, None


def is_parity_set(G: LatticeGraph, U: VertexSet, parity: str) -> bool:
    """U is odd (even) when its internal boundary is all odd (even)."""
    internal, _, _ = vertex_boundaries(G, U)
    want = 1 if parity == "odd" else 0
    return all(G.parity[v] == want for v in internal)


class OddSetCollection:
    """A list of regular odd (or, mirrored, regular even) sets."""

    def __init__(self, G: LatticeGraph, sets: Sequence[VertexSet], parity: str = "odd"):
        if parity not in ("odd", "even"):
            raise PreconditionError("parity must be 'odd' or 'even'")
        for i, S in enumerate(sets):
            ok, witness = regularity_check(G, S, parity)
            if not ok:
                raise PreconditionError(
                    f"set {i} is not regular {parity} (witness vertex {witness})"
                )
        self.graph = G
        self.sets = list(sets)
        self.parity = parity

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def boundary_edges(self) -> frozenset[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for S in self.sets:
            out |= edge_set(self.graph, S, S.complement())
        return frozenset(out)

    def complements(self) -> "OddSetCollection":
        other = "even" if self.parity == "odd" else "odd"
        return OddSetCollection(
            self.graph, [S.complement() for S in self.sets], other
        )


def boundary_edge_count_at(
    G: LatticeGraph, v: int, boundary: frozenset[tuple[int, int]]
) -> int:
    cnt = 0
    for u in G.neighbors[v]:
        e = (v, u) if v < u else (u, v)
        if e in boundary:
            cnt += 1
    return cnt


def revealed_vertices(
    G: LatticeGraph, S: VertexSet, parity: str = "odd", check: bool = True
) -> VertexSet:
    """Vertices incident to at least d boundary edges of S.

    For an odd (or even) set these separate S: every boundary edge has a
    revealed endpoint.  That is a theorem, so with check enabled a
    failure aborts as an internal error.
    """
    if not is_parity_set(G, S, parity):
        raise PreconditionError(f"S is not an {parity} set")
    boundary = edge_set(G, S, S.complement())
    bits = 0
    for v in range(G.n):
        if boundary_edge_count_at(G, v, boundary) >= G.d:
            bits |= 1 << v
    revealed = VertexSet(bits, G.n)
    if check:
        for (u, v) in boundary:
            if u not in revealed and v not in revealed:
                if G.degree[u] == G.full_degree and G.degree[v] == G.full_degree:
                    raise InternalInvariantError(
                        f"boundary edge ({u},{v}) has no revealed endpoint"
                    )
                raise PreconditionError(
                    f"boundary edge ({u},{v}) is clipped by the ambient rim; "
                    "revealed-vertex separation needs clearance from the faces"
                )
    return revealed


def four_cycle_check(G: LatticeGraph, S: VertexSet, parity: str = "odd") -> bool:
    """Exchange property of parity-set boundaries, in every direction.

    For each boundary edge {u, v} and each axis direction e existing in
    the graph, one of {u, u+e}, {v, v+e} is again a boundary edge, and
    any two endpoints with full degree jointly see at least 2d boundary
    edges.  This is a theorem for odd/even sets, so a violation raises
    an internal error; the return value is True for convenience.
    """
    if not is_parity_set(G, S, parity):
        raise PreconditionError(f"S is not an {parity} set")
    boundary = edge_set(G, S, S.complement())

    def is_boundary(a: int | None, b: int | None) -> bool:
        if a is None or b is None:
            return False
        e = (a, b) if a < b else (b, a)
        return e in boundary

    for (u, v) in boundary:
        for axis in range(G.d):
            for delta in (-1, 1):
                ue = G.axis_step(u, axis, delta)
                ve = G.axis_step(v, axis, delta)
                if ue is None and ve is None:
                    continue
                if not (is_boundary(u, ue) or is_boundary(v, ve)):
                    raise InternalInvariantError(
                        f"four-cycle property failed at edge ({u},{v}), "
                        f"axis {axis}, delta {delta}"
                    )
        if G.degree[u] == G.full_degree and G.degree[v] == G.full_degree:
            seen = boundary_edge_count_at(G, u, boundary) + boundary_edge_count_at(
                G, v, boundary
            )
            if seen < G.full_degree:
                raise InternalInvariantError(
                    f"endpoints of ({u},{v}) see only {seen} boundary edges"
                )
    return True


def greedy_cover(G: LatticeGraph, S: VertexSet, t: int) -> VertexSet:
    """Small T inside S with N_t(S) inside N(T), chosen greedily.

    Every target has at least t neighbors in S, so the greedy pick
    achieves the usual (1 + log degree)/t factor over the fractional
    optimum.
    """
    targets = set(n_t(G, S, t).ids())
    chosen = 0
    pool = list(S)
    while targets:
        best_v, best_gain = -1, -1
        for v in pool:
            gain = sum(1 for u in G.neighbors[v] if u in targets)
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_gain <= 0:
            raise InternalInvariantError("cover targets not reachable from S")
        chosen |= 1 << best_v
        targets.difference_update(G.neighbors[best_v])
    return VertexSet(chosen, G.n)


@dataclass(frozen=True)
class SeparatingSetReport:
    vertices: VertexSet          # the set U; N(U) does the separating
    separator: VertexSet         # N(U)
    size: int
    size_bound: float            # reported, asymptotic: C |dS| d^{-3/2} log d
    bound_constant: float
    separates: bool
    s_threshold: int
    t_threshold: int


def _half_separating_core(
    G: LatticeGraph,
    collection: OddSetCollection,
    s: int,
    t: int,
) -> VertexSet:
    """Cover of the in-set revealed vertices for an odd collection.

    High-boundary outside vertices and near-saturated inside vertices
    are covered greedily; the remaining revealed vertices are reached
    through four-cycle witnesses inside the sets.
    """
    sets = collection.sets
    inside_par = 1 if collection.parity == "odd" else 0
    outside_par = 1 - inside_par
    boundary_all: set[tuple[int, int]] = set()
    per_set_edges = []
    for S in sets:
        es = edge_set(G, S, S.complement())
        per_set_edges.append(es)
        boundary_all |= es

    def count_at(v: int, edges) -> int:
        c = 0
        for u in G.neighbors[v]:
            e = (v, u) if v < u else (u, v)
            if e in edges:
                c += 1
        return c

    a_bits = 0
    for v in range(G.n):
        if G.parity[v] == outside_par and count_at(v, boundary_all) >= s:
            a_bits |= 1 << v
    A = VertexSet(a_bits, G.n)

    a_i: list[VertexSet] = []
    for es in per_set_edges:
        bits = 0
        for v in range(G.n):
            if G.parity[v] == inside_par and count_at(v, es) >= G.full_degree - s:
                bits |= 1 << v
        a_i.append(VertexSet(bits, G.n))

    def owners(w: int, z: int) -> frozenset[int]:
        return frozenset(
            i for i in range(len(sets)) if w in a_i[i] and z in sets[i]
        )

    m_cache: dict[int, list[tuple[int, frozenset[int]]]] = {}

    def neighbor_owner_list(w: int) -> list[tuple[int, frozenset[int]]]:
        if w not in m_cache:
            m_cache[w] = [(z, owners(w, z)) for z in G.neighbors[w]]
        return m_cache[w]

    t_bits = 0
    for v in range(G.n):
        if G.parity[v] != outside_par:
            continue
        hit = False
        for w in G.neighbors[v]:
            pairs = neighbor_owner_list(w)
            mw = sum(1 for _, own in pairs if own)
            if mw == 0:
                continue
            own_v = owners(w, v)
            mwv = sum(1 for _, own in pairs if own and not own <= own_v)
            if 2 * mwv < mw:
                hit = True
                break
        if hit:
            t_bits |= 1 << v
    T = VertexSet(t_bits, G.n)

    tp_bits = 0
    for w in range(G.n):
        if G.parity[w] != inside_par:
            continue
        mw = sum(1 for _, own in neighbor_owner_list(w) if own)
        if 1 <= mw <= 2 * s:
            tp_bits |= 1 << w
    T_prime = VertexSet(tp_bits, G.n)

    B = greedy_cover(G, A, t) if A else G.empty_set()
    B_prime = greedy_cover(G, T, t) if T else G.empty_set()
    B_dprime = G.empty_set()
    for i, S in enumerate(sets):
        B_dprime = B_dprime | (S & n_t(G, a_i[i] & T_prime, t))
    return B | B_prime | B_dprime


def separating_set(
    collection: OddSetCollection,
    s: int | None = None,
    t: int | None = None,
    bound_constant: float = 1.0,
    check: bool = True,
) -> SeparatingSetReport:
    """Small U such that N(U) separates every set of the collection.

    Runs the revealed-vertex cover construction on the collection and,
    mirrored, on the complements, so both endpoints of every boundary
    edge are handled.  Default thresholds are s = ceil(sqrt(d)) and
    t = d/6, clamped up to 1 in low dimension where the asymptotic
    bound is not claimed; the size bound is reported, never asserted.
    """
    G = collection.graph
    d = G.d
    s_val = s if s is not None else max(1, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    t_val = t if t is not None else max(1, d // 6)
    U = _half_separating_core(G, collection, s_val, t_val)
    U = U | _half_separating_core(G, collection.complements(), s_val, t_val)
    separator = neighborhood(G, U)
    boundary = collection.boundary_edges()
    separates = all(u in separator or v in separator for (u, v) in boundary)
    if check and not separates:
        bad = next((u, v) for (u, v) in boundary
                   if u not in separator and v not in separator)
        if all(G.degree[w] == G.full_degree for w in bad):
            raise InternalInvariantError(
                f"constructed set fails to separate the collection at edge {bad}"
            )
        raise PreconditionError(
            f"boundary edge {bad} is clipped by the ambient rim; the separating "
            "construction needs the collection to clear the faces"
        )
    bound = bound_constant * len(boundary) * math.log(max(d, 2)) / d ** 1.5
    return SeparatingSetReport(
        vertices=U,
        separator=separator,
        size=len(U),
        size_bound=bound,
        bound_constant=bound_constant,
        separates=separates,
        s_threshold=s_val,
        t_threshold=t_val,
    )


@dataclass(frozen=True)
class WeakApproximation:
    known: list[VertexSet]   # known-inside part per set
    fringe: VertexSet        # unknown region (separator plus small pockets)
    fringe_bound_ok: bool    # |fringe| <= 3 |W| (true away from box faces)


def weak_approximation(
    G: LatticeGraph, W: VertexSet, collection: OddSetCollection
) -> WeakApproximation:
    """Coarse description of a collection from a separating set W.

    Components of the complement of W larger than d are known: each lies
    entirely inside or outside every set of the collection.  The fringe
    is W plus the small components.  The containment sandwich
    known_i <= S_i <= known_i + fringe always holds and is asserted, as
    is fringe inside W^+; the 3|W| size bound is reported (cramped box
    corners can break the isoperimetry behind it).
    """
    comps = connected_components(G, W.complement())
    for S in collection.sets:
        for comp in comps:
            inside = comp & S
            if inside and inside != comp:
                u = inside.min_id()
                w = (comp - S).min_id()
                raise PreconditionError(
                    f"W does not separate the collection: component containing "
                    f"{u} (inside) and {w} (outside) crosses a boundary"
                )
    known = []
    small = G.empty_set()
    for comp in comps:
        if len(comp) <= G.d:
            small = small | comp
    for S in collection.sets:
        k = G.empty_set()
        for comp in comps:
            if len(comp) > G.d and comp.issubset(S):
                k = k | comp
        known.append(k)
    fringe = W | small
    for S, k in zip(collection.sets, known):
        if not k.issubset(S) or not S.issubset(k | fringe):
            raise InternalInvariantError("weak approximation sandwich failed")
    if not fringe.issubset(closed_neighborhood(G, W)):
        raise InternalInvariantError("fringe escaped the neighborhood of W")
    return WeakApproximation(known, fringe, len(fringe) <= 3 * len(W))


@dataclass(frozen=True)
class Approximation:
    """Coarse description of an atlas: known regions and unknown fringes."""

    a_p: dict[Pattern, VertexSet]
    a_star: VertexSet
    a_2star: VertexSet

    def __post_init__(self):
        if not self.a_star.issubset(self.a_2star):
            raise PreconditionError("a_star must be contained in a_2star")


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
    from .decomposition import Atlas  # noqa: F401  (typing only)

    clauses: dict[str, bool] = {}
    sandwich = True
    for P, region in X.x_p.items():
        known = A.a_p.get(P, G.empty_set())
        odd_par = 1 - P.klass
        even_par = P.klass
        allowed = known.bits
        for v in A.a_star:
            if G.parity[v] == odd_par:
                allowed |= 1 << v
        for v in A.a_2star:
            if G.parity[v] == even_par:
                allowed |= 1 << v
        if not known.issubset(region) or region.bits & ~allowed:
            sandwich = False
    clauses["sandwich"] = sandwich

    support = True
    for P in X.x_p:
        odd_par = 1 - P.klass
        same_class = G.empty_set()
        for Q, kq in A.a_p.items():
            if Q.klass == P.klass:
                same_class = same_class | kq
        good = n_t(G, same_class, G.d) if same_class else G.empty_set()
        for v in A.a_star:
            if G.parity[v] == odd_par and v not in good:
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


def enumerate_regular_parity_sets(
    G: LatticeGraph, parity: str, limit: int = 16
) -> list[VertexSet]:
    """Every regular odd (even) subset of a tiny ambient, by brute force.

    The sweep is exponential in the vertex count, so it refuses graphs
    larger than ``limit`` vertices; it exists to let exhaustive
    verification runs cover the whole family at desk scale.
    """
    from .errors import ResourceLimitError

    if G.n > limit:
        raise ResourceLimitError(
            f"exhaustive enumeration is limited to {limit} vertices, got {G.n}"
        )
    out = []
    for bits in range(1 << G.n):
        U = VertexSet(bits, G.n)
        ok, _ = regularity_check(G, U, parity)
        if ok:
            out.append(U)
    return out


@dataclass(frozen=True)
class IsoperimetryReport:
    applicable_small: bool
    small_lhs: int | None
    small_rhs: int | None
    small_holds: bool | None
    per_component: tuple[dict, ...]


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
    has_even = any(G.parity[v] == 0 for v in U)
    if has_even:
        lhs = len(edge_set(G, U, U.complement()))
        rhs = 2 * d * (2 * d - 1)
        small = (True, lhs, rhs, lhs >= rhs)
    else:
        small = (False, None, None, None)
    per_comp = []
    for comp in connected_components(G, U, power=2):
        iso_bits = 0
        for v in comp:
            if G.neighbor_mask[v] & comp.bits == 0:
                iso_bits |= 1 << v
        iso_plus = closed_neighborhood(G, VertexSet(iso_bits, G.n))
        lhs = len(edge_set(G, comp, comp.complement()))
        if iso_plus:
            lhs += len(edge_set(G, iso_plus, iso_plus.complement()))
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
