"""Ordered/disordered region decomposition, atlases and breakups.

For a proper coloring f and each dominant pattern P, the region ordered
by P collects the P-odd vertices whose whole neighborhood follows the
P-pattern and then closes up to the smallest P-even set containing
them.  Vertices claimed by several patterns form the overlap, vertices
claimed by none form the bad set, and the union of all region
boundaries with overlap and bad is the defect set, the analogue of a
contour in a Peierls argument.

An atlas is any pattern-indexed family of regular P-even sets; it is a
breakup for f when the reference pattern holds off the working domain
and membership of P-odd vertices near the defect set is exactly
equivalent to their neighborhood being in the P-pattern.  The
construction here localizes the canonical decomposition so that every
finite defect component surrounds a requested vertex, filling the holes
with the unique pattern that surrounds them.

All of it is algebra on raw ``int`` bitmaps over the lattice's shift
tables: pattern cells from the color planes, settled cores and closures
as neighborhood shifts, each region's vertex boundary as the OR of its
edge maps, components grown bit-parallel.  A ``VertexSet`` is made only
where a public function returns one or an atlas or decomposition field
holds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .coloring import Coloring
from .errors import InternalInvariantError, PreconditionError
from .geometry import _regularity_witness
from .lattice import (
    LatticeGraph,
    VertexSet,
    _bit_ids,
    _components,
    _edge_maps,
    _expand_bits,
    _grow,
    _id_list,
    _neighbor_bits,
    boundary_edge_count,
    connected_components,
    diam_star,
)
from .patterns import Pattern, _color_planes, _dominant, _p_odd, _pattern_cells


def _settled(G: LatticeGraph, in_pat: int) -> int:
    """Cells whose whole neighborhood is in ``in_pat``: the complement of N(outside)."""
    full = (1 << G.n) - 1
    return full & ~_neighbor_bits(G, full & ~in_pat)


def _regular_witness(G: LatticeGraph, bits: int, P: Pattern) -> int | None:
    """Where a region fails to be a regular P-even set, None when it is one."""
    return _regularity_witness(G, bits, "even" if P.klass == 0 else "odd")


@dataclass(frozen=True)
class RegionDecomposition:
    graph: LatticeGraph
    z_p: dict[Pattern, VertexSet]
    z_overlap: VertexSet
    z_bad: VertexSet
    z_star: VertexSet

    def as_atlas(self) -> "Atlas":
        return Atlas(self.graph, dict(self.z_p))

    def to_json(self) -> dict:
        out = {P.text(): _id_list(U) for P, U in sorted(
            self.z_p.items(), key=lambda kv: kv[0].sort_key()
        )}
        return {
            "regions": out,
            "overlap": _id_list(self.z_overlap),
            "bad": _id_list(self.z_bad),
            "defect": _id_list(self.z_star),
        }


def _derived_sets(G: LatticeGraph, x_p: Mapping[Pattern, VertexSet]) -> tuple[int, int, int]:
    """(overlap, bad, defect) bitmaps of a pattern-indexed family of regions.

    A region's vertex boundary (both sides) is the set of cells with an
    edge crossing it: the OR of its edge maps over the directions.
    """
    overlap = union = star = 0
    for U in x_p.values():
        overlap |= union & U.bits
        union |= U.bits
        for crossing in _edge_maps(G, U.bits):
            star |= crossing
    bad = ((1 << G.n) - 1) & ~union
    return overlap, bad, star | overlap | bad


def decompose(G: LatticeGraph, f: Coloring) -> RegionDecomposition:
    """Region decomposition of a total proper coloring over every dominant
    pattern.  Each region is certified to be a regular P-even set.
    """
    return _decompose(G, _color_planes(f), f.q, None)


def _decompose(
    G: LatticeGraph,
    planes: list[int],
    q: int,
    patterns: Iterable[Pattern] | None,
) -> RegionDecomposition:
    """``decompose`` from the coloring's color planes, over the given
    patterns (every dominant one when None)."""
    if planes[0]:
        raise PreconditionError("decomposition needs a total coloring")
    pats = list(patterns) if patterns is not None else _dominant(q)
    z_p: dict[Pattern, VertexSet] = {}
    for P in pats:
        # the P-odd cells whose whole neighborhood is in the P-pattern
        core = _p_odd(G, P).bits & _settled(G, _pattern_cells(G, planes, P))
        region = core | _neighbor_bits(G, core)
        if (witness := _regular_witness(G, region, P)) is not None:
            raise InternalInvariantError(
                f"ordered region for {P.text()} is not a regular set (witness vertex {witness})"
            )
        z_p[P] = VertexSet(region, G.n)
    overlap, bad, star = _derived_sets(G, z_p)
    return RegionDecomposition(G, z_p, *(VertexSet(x, G.n) for x in (overlap, bad, star)))


@dataclass(frozen=True)
class Atlas:
    graph: LatticeGraph
    x_p: dict[Pattern, VertexSet]

    def patterns(self) -> list[Pattern]:
        return sorted(self.x_p, key=Pattern.sort_key)

    @property
    def x_overlap(self) -> VertexSet:
        return VertexSet(_derived_sets(self.graph, self.x_p)[0], self.graph.n)

    @property
    def x_bad(self) -> VertexSet:
        return VertexSet(_derived_sets(self.graph, self.x_p)[1], self.graph.n)

    @property
    def x_star(self) -> VertexSet:
        return VertexSet(_derived_sets(self.graph, self.x_p)[2], self.graph.n)

    def to_json(self) -> dict:
        return {P.text(): _id_list(U) for P, U in sorted(
            self.x_p.items(), key=lambda kv: kv[0].sort_key()
        )}


@dataclass(frozen=True)
class BreakupClass:
    L: int
    M: int
    N: int
    min_boundary_ok: bool


def classify_atlas(X: Atlas) -> BreakupClass:
    """Boundary-edge, overlap and bad counts (L, M, N) of an atlas.

    L counts edges of the union of all region boundaries once.  A
    nontrivial atlas on an unbounded lattice would force L at least
    2d(2d-1); a finite ambient can truncate that, so the flag is
    reported rather than enforced.
    """
    G = X.graph
    L = boundary_edge_count(G, X.x_p.values())
    overlap, bad, star = _derived_sets(G, X.x_p)
    trivial = not star
    min_ok = trivial or L >= G.d * G.d
    return BreakupClass(L, overlap.bit_count(), bad.bit_count(), min_ok)


def seen_from(G: LatticeGraph, z_star: VertexSet, V: VertexSet, radius: int = 5) -> VertexSet:
    """Components of the fattened defect set that matter to V.

    Returns the union of connected components of z_star^{+radius} that
    touch the rim (the stand-in for infinite components) or disconnect
    some vertex of V from the rim; on a fully periodic graph (no rim)
    that is nothing.
    """
    fat = _expand_bits(G, z_star.bits, radius)
    rim = G.rim.bits
    if not rim:
        return G.empty_set()
    full = (1 << G.n) - 1
    keep = _grow(G, fat, fat & rim, 1)   # every component touching the rim
    rest = fat & ~keep
    while rest:
        comp = _grow(G, rest, rest & -rest, 1)
        rest &= ~comp
        # V's cells off the rim's side of comp (or in comp) are cut off by it
        if V.bits & ~_grow(G, full & ~comp, rim & ~comp, 1):
            keep |= comp
    return VertexSet(keep, G.n)


def construct_breakup(
    G: LatticeGraph,
    f: Coloring,
    V: VertexSet,
    domain: VertexSet,
    p0: Pattern,
    radius: int = 5,
    patterns: Iterable[Pattern] | None = None,
) -> Atlas:
    """Localize the region decomposition into a breakup seen from V.

    Requires the complement of the domain's interior (the domain cells
    with no neighbor outside it) to be in the reference pattern.
    Components of the complement of the kept defect neighborhood are
    holes; each hole is absorbed into the unique region whose pattern
    surrounds it (an ambiguous hole is impossible for valid inputs and
    aborts loudly).
    """
    if p0.klass != 0:
        raise PreconditionError("the reference pattern must have |A| <= |B|")
    full = (1 << G.n) - 1
    outside = (G.full_set() - domain).bits   # refuses a domain of another graph
    planes = _color_planes(f)
    if (outside | _neighbor_bits(G, outside)) & ~_pattern_cells(G, planes, p0):
        raise PreconditionError(
            "the complement of the domain interior must follow the reference pattern"
        )
    Z = _decompose(G, planes, f.q, patterns)
    regions = {P: U.bits for P, U in Z.z_p.items()}
    if outside & ~regions[p0]:
        raise InternalInvariantError(
            "the exterior escaped the reference region despite the boundary pattern"
        )
    z_star = Z.z_star.bits
    B = seen_from(G, Z.z_star, V, radius).bits
    x_p = {P: U & B for P, U in regions.items()}
    for hole in _components(G, full & ~B):
        ring = _expand_bits(G, hole, radius) & ~hole
        if not ring:
            owner = p0
        else:
            # off the defect set every cell lies in exactly one region
            stray = ring & z_star
            if stray:
                raise InternalInvariantError(
                    f"hole ring vertex {(stray & -stray).bit_length() - 1} is not cleanly "
                    "owned by one pattern"
                )
            owners = [P for P, U in regions.items() if ring & U]
            if len(owners) != 1:
                raise InternalInvariantError(
                    f"hole has ambiguous surrounding patterns {sorted(p.text() for p in owners)}"
                )
            owner = owners[0]
            if hole & outside and owner != p0:
                raise InternalInvariantError(
                    "a hole reaching outside the domain is not owned by the reference"
                )
        x_p[owner] |= hole
    X = Atlas(G, {P: VertexSet(U, G.n) for P, U in x_p.items()})
    _, _, x_star = _derived_sets(G, X.x_p)
    if _expand_bits(G, x_star, radius) != B:
        raise InternalInvariantError(
            "the fattened defect set of the breakup does not match the kept components"
        )
    if z_star & B != x_star:
        raise InternalInvariantError(
            "the breakup defect set is not the visible part of the decomposition's"
        )
    return X


@dataclass(frozen=True)
class BreakupReport:
    ok: bool
    violations: tuple[str, ...]


def verify_breakup(
    X: Atlas,
    f: Coloring,
    domain: VertexSet,
    p0: Pattern,
    radius: int = 5,
) -> BreakupReport:
    """Check every defining clause of a breakup, with witnesses.

    Checked: each region is a regular P-even set; the domain complement
    sits inside the reference region; membership of P-odd vertices near
    the defect set is equivalent to their neighborhood being in the
    P-pattern; and the derived color facts (P-even members near the
    defect set are in pattern, non-overlap P-odd members are in pattern,
    bad P-odd vertices see a color off the boundary side, and boundary
    edges leave from an in-pattern vertex toward a constrained one).
    """
    G = X.graph
    full = (1 << G.n) - 1
    problems: list[str] = []
    for P, U in X.x_p.items():
        witness = _regular_witness(G, U.bits, P)
        if witness is not None:
            problems.append(
                f"region {P.text()} is not a regular set (witness {witness})"
            )
    outside = (G.full_set() - domain).bits   # refuses a domain of another graph
    if p0 not in X.x_p or outside & ~X.x_p[p0].bits:
        problems.append("domain complement is not inside the reference region")

    overlap, bad, star = _derived_sets(G, X.x_p)
    near = _expand_bits(G, star, radius)
    planes = _color_planes(f)
    for P, region in X.x_p.items():
        U = region.bits
        in_pat = _pattern_cells(G, planes, P)
        settled = _settled(G, in_pat)
        p_odd = _p_odd(G, P).bits
        p_even = full & ~p_odd
        for v in _bit_ids(near & p_odd & (U ^ settled)):
            problems.append(
                f"vertex {v} near the defect set: membership in {P.text()} is "
                f"{bool(U >> v & 1)} but its neighborhood in-pattern is {bool(settled >> v & 1)}"
            )
        for v in _bit_ids(near & U & p_even & ~in_pat):
            problems.append(
                f"P-even vertex {v} of region {P.text()} near the defect set "
                "is out of pattern"
            )
        for v in _bit_ids(near & U & p_odd & ~overlap & ~in_pat):
            problems.append(
                f"non-overlap P-odd vertex {v} of region {P.text()} is out of pattern"
            )
        for v in _bit_ids(bad & p_odd & settled):
            problems.append(
                f"bad vertex {v} has its whole neighborhood in the {P.text()} pattern"
            )
        # P-even cells of U with an edge leaving U; the edge clauses can
        # only fail at those out of pattern or next to a settled outside cell
        leaving = U & p_even & _neighbor_bits(G, full & ~U)
        for u in _bit_ids(leaving & (~in_pat | _neighbor_bits(G, settled & ~U))):
            for v in G.neighbors[u]:
                if U >> v & 1:
                    continue
                if not in_pat >> u & 1:
                    problems.append(
                        f"boundary edge ({u},{v}) of {P.text()} leaves an "
                        "out-of-pattern vertex"
                    )
                if settled >> v & 1:
                    problems.append(
                        f"boundary edge ({u},{v}) of {P.text()} points at a vertex "
                        "whose neighborhood is fully in pattern"
                    )
    return BreakupReport(not problems, tuple(problems))


@dataclass(frozen=True)
class BPResult:
    bar_z_p: VertexSet
    b_p: VertexSet
    diam_star: int


def bp_components(
    G: LatticeGraph,
    f: Coloring,
    V: VertexSet,
    P: Pattern,
) -> BPResult:
    """In-pattern core of the P-region and the defect components meeting V.

    bar Z_P keeps only the region vertices that are themselves in the
    P-pattern; the components of its complement are taken under
    distance-2 adjacency and only those meeting V are returned, together
    with their total diameter score.
    """
    planes = _color_planes(f)
    Z = _decompose(G, planes, f.q, [P])
    bar = VertexSet(Z.z_p[P].bits & _pattern_cells(G, planes, P), G.n)
    b_p = G.empty_set()
    for comp in connected_components(G, bar.complement(), power=2):
        if not comp.isdisjoint(V):
            b_p = b_p | comp
    return BPResult(bar, b_p, diam_star(G, b_p))
