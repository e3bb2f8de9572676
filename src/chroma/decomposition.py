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
with the unique pattern that surrounds them.  A decomposition and an
atlas are built by one body: it reads the regions through the ownership
guard and derives their overlap, bad and defect sets once.

All of it is algebra on raw ``int`` bitmaps over the lattice's shift
tables: pattern cells from the color planes (``_pattern_slots``), settled
cores and closures as neighborhood shifts, each region's vertex boundary
as the OR of its edge maps, components grown bit-parallel (those meeting
V as one flood).  A ``VertexSet`` is made only where a public function
returns one or a region family holds one; the breakup path stays on
``_decompose``'s bitmaps.

Every pattern is handled at once.  With k patterns, one ``int`` holds
pattern i's bitmap in slot i (bits i*n .. i*n+n-1), and the shift masks,
copied into every slot, move each slot's set within its own slot: a
masked shift moves a cell only to its neighbor in the box (the mask drops
the face a step would leave, and on a periodic axis, length 2 included,
the wrap lands on the opposite face), so no bit reaches another slot or
passes k*n and the slots never mix.  Pattern cells, settled cells, cores,
regions, both regularity closures (each slot's P-odd cells are its inside
core, so one slotted P-odd mask serves every pattern, and the verdict is
geometry's ``_irregular``), the clause masks of a breakup check and the
edge maps of the derived sets are one expression each over all slots.
Python walks the slots only to fill the returned dicts and, where a
slotted failure mask is nonzero, to name the failures in the atlas's
pattern order.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .coloring import Coloring
from .errors import InternalInvariantError, PreconditionError
from .geometry import _irregular
from .lattice import (
    LatticeGraph,
    VertexSet,
    _bits_to_ids,
    _edge_maps,
    _expand_bits,
    _fold_slots,
    _grow,
    _neighbor_bits,
    _pack_slots,
    _replicate,
    _slot,
    _split_components,
    boundary_edge_count,
    diam_star,
)
from .patterns import Pattern, _color_planes, _dominant, _not_dominant_for, _pattern_slots
from .record import Record


def _settled(G: LatticeGraph, in_pat: int, k: int) -> int:
    """Cells whose whole neighborhood is in ``in_pat``: the complement of
    N(outside), slot by slot on a k-slot bitmap."""
    full = (1 << k * G.n) - 1
    return full & ~_neighbor_bits(G, full & ~in_pat, k)


class RegionDecomposition(Record):
    """A coloring's canonical regions, built, compared and printed as an atlas is."""

    __slots__ = ("graph", "z_p", "z_overlap", "z_bad", "z_star")
    _compared = 2

    def __init__(self, graph: LatticeGraph, z_p: Mapping[Pattern, VertexSet]):
        super().__init__(*_region_family(graph, z_p))

    def as_atlas(self) -> "Atlas":
        return Atlas(self.graph, self.z_p)

    def to_json(self) -> dict:
        return {"regions": _regions_json(self.z_p), "overlap": list(self.z_overlap),
                "bad": list(self.z_bad), "defect": list(self.z_star)}


def _region_family(graph: LatticeGraph, regions: Mapping[Pattern, VertexSet]) -> tuple:
    """(graph, a copy of the regions read through the guard, overlap, bad, defect)."""
    regions = dict(regions)
    packed = _pack_slots((graph.own(U) for U in regions.values()), graph.n)
    derived = _derived_slots(graph, packed, len(regions))
    return (graph, regions, *(VertexSet(x, graph.n) for x in derived))


def _regions_json(regions: Mapping[Pattern, VertexSet]) -> dict:
    return {P.text(): list(regions[P]) for P in sorted(regions, key=Pattern.sort_key)}


def _derived_slots(G: LatticeGraph, regions: int, k: int) -> tuple[int, int, int]:
    """(overlap, bad, defect) bitmaps of the regions held in the k slots of
    one bitmap.

    A region's vertex boundary (both sides) is the set of cells with an
    edge crossing it: the OR of its edge maps over the directions.
    """
    crossing = 0
    for m in _edge_maps(G, regions, k):
        crossing |= m
    union, overlap = _fold_slots(regions, G.n, k)
    bad = ((1 << G.n) - 1) & ~union
    return overlap, bad, _fold_slots(crossing, G.n, k)[0] | overlap | bad


def decompose(G: LatticeGraph, f: Coloring) -> RegionDecomposition:
    """Region decomposition of a total proper coloring over every dominant
    pattern.  Each region is certified to be a regular P-even set.
    """
    pats, _, regions = _decompose(G, _color_planes(G, f), f.q, None)
    return RegionDecomposition(G, {P: VertexSet(_slot(regions, i, G.n), G.n)
                                   for i, P in enumerate(pats)})


def _decompose(
    G: LatticeGraph,
    planes: list[int],
    q: int,
    patterns: Iterable[Pattern] | None,
) -> tuple[tuple[Pattern, ...], int, int]:
    """``decompose``'s patterns (every dominant one when None), slotted
    in-pattern cells and slotted regions, from the coloring's color planes."""
    if planes[0]:
        raise PreconditionError("decomposition needs a total coloring")
    pats = tuple(dict.fromkeys(patterns)) if patterns is not None else _dominant(q)
    k = len(pats)
    in_pat, p_odd = _pattern_slots(G, planes, pats)
    # the P-odd cells whose whole neighborhood is in the P-pattern
    core = p_odd & _settled(G, in_pat, k)
    regions = core | _neighbor_bits(G, core, k)
    for P, witness in _irregular(G, regions, p_odd, pats):
        raise InternalInvariantError(
            f"ordered region for {P.text()} is not a regular set (witness vertex {witness})"
        )
    return pats, in_pat, regions


class Atlas(Record):
    """A copy of a pattern-indexed family of regions, each read through the
    ownership guard, and its derived sets; equality and the repr read the
    graph and the regions."""

    __slots__ = ("graph", "x_p", "x_overlap", "x_bad", "x_star")
    _compared = 2

    def __init__(self, graph: LatticeGraph, x_p: Mapping[Pattern, VertexSet]):
        super().__init__(*_region_family(graph, x_p))

    def to_json(self) -> dict:
        return _regions_json(self.x_p)


class BreakupClass(Record):
    __slots__ = ("L", "M", "N", "min_boundary_ok")   # boundary-edge, overlap and bad counts


def classify_atlas(X: Atlas) -> BreakupClass:
    """Boundary-edge, overlap and bad counts (L, M, N) of an atlas.

    L counts edges of the union of all region boundaries once.  A
    nontrivial atlas on an unbounded lattice would force L at least
    2d(2d-1); a finite ambient can truncate that, so the flag is
    reported rather than enforced.
    """
    G = X.graph
    L = boundary_edge_count(G, X.x_p.values())
    min_ok = not X.x_star or L >= G.d * G.d
    return BreakupClass(L, len(X.x_overlap), len(X.x_bad), min_ok)


def seen_from(G: LatticeGraph, z_star: VertexSet, V: VertexSet, radius: int = 5) -> VertexSet:
    """Components of the fattened defect set that matter to V.

    Returns the union of connected components of z_star^{+radius} that
    touch the rim (the stand-in for infinite components) or disconnect
    some vertex of V from the rim; on a fully periodic graph (no rim)
    that is nothing.  Off the rim, ``_split_components`` gives the
    components: a lone cell is kept when it is in V.
    """
    fat = _expand_bits(G, G.own(z_star), radius)
    rim, seen = G.rim.bits, G.own(V)
    if not rim:
        return G.empty_set()
    full = (1 << G.n) - 1
    keep = _grow(G, fat, fat & rim, 1)   # every component touching the rim
    isolated, grown = _split_components(G, fat & ~keep)
    # a lone cell off the rim cuts off only itself: it blocks at most one of
    # another cell's two straight paths to the faces of a non-periodic axis
    keep |= isolated & seen
    for comp in grown:
        # V's cells off the rim's side of comp (or in comp) are cut off by it
        if seen & ~_grow(G, full & ~comp, rim & ~comp, 1):
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
    aborts loudly).  Given patterns must include the reference.
    """
    if p0.klass != 0:
        raise PreconditionError("the reference pattern must have |A| <= |B|")
    full = (1 << G.n) - 1
    outside = full & ~G.own(domain)
    planes = _color_planes(G, f)
    if (outside | _neighbor_bits(G, outside)) & ~_pattern_slots(G, planes, (p0,))[0]:
        raise PreconditionError(
            "the complement of the domain interior must follow the reference pattern"
        )
    pats, _, slotted = _decompose(G, planes, f.q, patterns)
    if p0 not in pats:
        raise PreconditionError(f"the breakup patterns omit the reference pattern {p0!r}")
    regions = {P: _slot(slotted, i, G.n) for i, P in enumerate(pats)}
    if outside & ~regions[p0]:
        raise InternalInvariantError(
            "the exterior escaped the reference region despite the boundary pattern"
        )
    z_star = _derived_slots(G, slotted, len(pats))[2]
    B = seen_from(G, VertexSet(z_star, G.n), V, radius).bits
    x_p = {P: U & B for P, U in regions.items()}
    isolated, grown = _split_components(G, full & ~B)
    for hole in grown + [1 << v for v in _bits_to_ids(isolated, G.n)]:
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
    x_star = X.x_star.bits
    if _expand_bits(G, x_star, radius) != B:
        raise InternalInvariantError(
            "the fattened defect set of the breakup does not match the kept components"
        )
    if z_star & B != x_star:
        raise InternalInvariantError(
            "the breakup defect set is not the visible part of the decomposition's"
        )
    return X


class BreakupReport(Record):
    __slots__ = ("ok", "violations")


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
    After the regularity and reference messages, the clauses are listed
    pattern by pattern: one message per cell of each vertex clause, from
    one template per clause in the order above, then the boundary edges.
    A coloring of another size, or an atlas or reference pattern not
    dominant for the coloring's q, is refused (``PreconditionError``)
    rather than reported.
    """
    G, n = X.graph, X.graph.n
    pats = tuple(X.x_p)
    k = len(pats)
    full = (1 << k * n) - 1
    problems: list[str] = []
    # every region in its pattern's slot; each slot's P-odd cells are the
    # inside core of its regularity test
    U = _pack_slots((region.bits for region in X.x_p.values()), n)
    in_pat, p_odd = _pattern_slots(G, _color_planes(G, f), pats)
    if p0.q != f.q or not p0.is_dominant():
        raise _not_dominant_for(p0, f.q)
    problems += [f"region {P.text()} is not a regular set (witness {witness})"
                 for P, witness in _irregular(G, U, p_odd, pats)]
    outside = G.full_set().bits & ~G.own(domain)
    if p0 not in X.x_p or outside & ~X.x_p[p0].bits:
        problems.append("domain complement is not inside the reference region")

    overlap, bad, star = _derived_slots(G, U, k)
    near = _replicate(_expand_bits(G, star, radius), n, k)
    settled = _settled(G, in_pat, k)
    p_even = full & ~p_odd
    # P-even cells of U with an edge leaving U; the edge clauses can only
    # fail at those out of pattern or next to a settled outside cell
    leaving = U & p_even & _neighbor_bits(G, full & ~U, k)
    clauses = (
        near & p_odd & (U ^ settled),
        near & U & p_even & ~in_pat,
        near & U & p_odd & ~_replicate(overlap, n, k) & ~in_pat,
        _replicate(bad, n, k) & p_odd & settled,
        leaving & (~in_pat | _neighbor_bits(G, settled & ~U, k)),
    )
    if not any(clauses):
        return BreakupReport(not problems, tuple(problems))
    # the vertex clauses' messages; the edge clause, last, names both ends below
    templates = (
        "vertex {v} near the defect set: membership in {P} is {member} but its "
        "neighborhood in-pattern is {calm}",
        "P-even vertex {v} of region {P} near the defect set is out of pattern",
        "non-overlap P-odd vertex {v} of region {P} is out of pattern",
        "bad vertex {v} has its whole neighborhood in the {P} pattern",
    )
    for i, P in enumerate(pats):
        member, fits, calm = (_slot(x, i, n) for x in (U, in_pat, settled))
        for clause, template in zip(clauses, templates):
            problems += [template.format(v=v, P=P.text(), member=bool(member >> v & 1),
                                         calm=bool(calm >> v & 1))
                         for v in _bits_to_ids(_slot(clause, i, n), n)]
        for u in _bits_to_ids(_slot(clauses[-1], i, n), n):
            # u's distinct neighbors in ascending order; -1 marks a clipped face
            for v in sorted(set(G.neighbor_table[:, u].tolist()) - {-1}):
                if member >> v & 1:
                    continue
                if not fits >> u & 1:
                    problems.append(
                        f"boundary edge ({u},{v}) of {P.text()} leaves an "
                        "out-of-pattern vertex"
                    )
                if calm >> v & 1:
                    problems.append(
                        f"boundary edge ({u},{v}) of {P.text()} points at a vertex "
                        "whose neighborhood is fully in pattern"
                    )
    return BreakupReport(not problems, tuple(problems))


class BPResult(Record):
    __slots__ = ("bar_z_p", "b_p", "diam_star")   # bar Z_P, B_P and its diameter score


def bp_components(
    G: LatticeGraph,
    f: Coloring,
    V: VertexSet,
    P: Pattern,
) -> BPResult:
    """In-pattern core of the P-region and the defect components meeting V.

    bar Z_P keeps only the region vertices that are themselves in the
    P-pattern; the components of its complement under distance-2
    adjacency that meet V are returned as one flood from V's cells in
    it, together with their total diameter score.
    """
    _, in_pat, region = _decompose(G, _color_planes(G, f), f.q, [P])
    bar = VertexSet(region & in_pat, G.n)
    rest = bar.complement()
    b_p = VertexSet(_grow(G, rest.bits, rest.bits & G.own(V), 2), G.n)
    return BPResult(bar, b_p, diam_star(G, b_p))
