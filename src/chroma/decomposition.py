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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .coloring import Coloring, HOLE
from .errors import InternalInvariantError, PreconditionError
from .geometry import regularity_check
from .lattice import (
    LatticeGraph,
    VertexSet,
    closed_neighborhood,
    connected_components,
    disconnects_from_rim,
    diam_star,
    edge_set,
    expand,
    neighborhood,
    vertex_boundaries,
)
from .patterns import Pattern, enumerate_dominant, in_pattern


def _pattern_cells(G: LatticeGraph, f: Coloring, P: Pattern) -> VertexSet:
    """Cells whose own color is in the P-pattern (never a HOLE)."""
    fits = (P.a_bits << 1, P.b_bits << 1)  # bit c set when color c fits
    parity = G.parity
    bits = 0
    for v, c in enumerate(f.values):
        if fits[parity[v]] >> c & 1:
            bits |= 1 << v
    return VertexSet(bits, G.n)


def _settled(G: LatticeGraph, in_pat: VertexSet) -> VertexSet:
    """Cells whose whole neighborhood is in ``in_pat``: the complement of N(outside)."""
    return neighborhood(G, in_pat.complement()).complement()


def _p_odd(G: LatticeGraph, P: Pattern) -> VertexSet:
    return G.odd if P.klass == 0 else G.even


def region_core(G: LatticeGraph, f: Coloring, P: Pattern) -> VertexSet:
    """P-odd vertices whose entire neighborhood is in the P-pattern."""
    return _p_odd(G, P) & _settled(G, _pattern_cells(G, f, P))


def _check_regular(G: LatticeGraph, U: VertexSet, P: Pattern, label: str) -> None:
    parity = "even" if P.klass == 0 else "odd"
    ok, witness = regularity_check(G, U, parity)
    if not ok:
        raise InternalInvariantError(
            f"{label} for {P.text()} is not a regular set (witness vertex {witness})"
        )


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
        out = {P.text(): list(U.ids()) for P, U in sorted(
            self.z_p.items(), key=lambda kv: kv[0].sort_key()
        )}
        return {
            "regions": out,
            "overlap": list(self.z_overlap.ids()),
            "bad": list(self.z_bad.ids()),
            "defect": list(self.z_star.ids()),
        }


def _derived_sets(
    G: LatticeGraph, x_p: Mapping[Pattern, VertexSet]
) -> tuple[VertexSet, VertexSet, VertexSet]:
    n = G.n
    overlap = VertexSet.empty(n)
    union = VertexSet.empty(n)
    star = VertexSet.empty(n)
    for P, U in x_p.items():
        overlap = overlap | (union & U)
        union = union | U
        _, _, both = vertex_boundaries(G, U)
        star = star | both
    bad = union.complement()
    star = star | overlap | bad
    return overlap, bad, star


def decompose(
    G: LatticeGraph,
    f: Coloring,
    patterns: Iterable[Pattern] | None = None,
    certify: bool = True,
) -> RegionDecomposition:
    """Region decomposition of a total proper coloring.

    By default all dominant patterns are used; a whitelist may be passed
    for large q.  Each region is certified to be a regular P-even set
    unless certify is disabled.
    """
    if any(c == HOLE for c in f.values):
        raise PreconditionError("decomposition needs a total coloring")
    pats = list(patterns) if patterns is not None else enumerate_dominant(f.q)
    z_p: dict[Pattern, VertexSet] = {}
    for P in pats:
        region = closed_neighborhood(G, region_core(G, f, P))
        if certify:
            _check_regular(G, region, P, "ordered region")
        z_p[P] = region
    overlap, bad, star = _derived_sets(G, z_p)
    return RegionDecomposition(G, z_p, overlap, bad, star)


@dataclass(frozen=True)
class Atlas:
    graph: LatticeGraph
    x_p: dict[Pattern, VertexSet]

    def patterns(self) -> list[Pattern]:
        return sorted(self.x_p, key=Pattern.sort_key)

    @property
    def x_overlap(self) -> VertexSet:
        overlap, _, _ = _derived_sets(self.graph, self.x_p)
        return overlap

    @property
    def x_bad(self) -> VertexSet:
        _, bad, _ = _derived_sets(self.graph, self.x_p)
        return bad

    @property
    def x_star(self) -> VertexSet:
        _, _, star = _derived_sets(self.graph, self.x_p)
        return star

    def to_json(self) -> dict:
        return {P.text(): list(U.ids()) for P, U in sorted(
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
    edges: set[tuple[int, int]] = set()
    for U in X.x_p.values():
        edges |= edge_set(G, U, U.complement())
    L = len(edges)
    overlap, bad, star = _derived_sets(G, X.x_p)
    trivial = not star
    min_ok = trivial or L >= G.d * G.d
    return BreakupClass(L, len(overlap), len(bad), min_ok)


def seen_from(
    G: LatticeGraph,
    z: "RegionDecomposition | VertexSet",
    V: VertexSet,
    radius: int = 5,
) -> VertexSet:
    """Components of the fattened defect set that matter to V.

    Accepts a decomposition or its defect set directly.  Returns the
    union of connected components of defect^{+radius} that touch the rim
    (the stand-in for infinite components) or disconnect some vertex of
    V from the rim.
    """
    z_star = z.z_star if isinstance(z, RegionDecomposition) else z
    fat = expand(G, z_star, radius)
    keep = G.empty_set()
    for comp in connected_components(G, fat):
        if not comp.isdisjoint(G.rim):
            keep = keep | comp
            continue
        if any(disconnects_from_rim(G, comp, v) for v in V):
            keep = keep | comp
    return keep


def interior(G: LatticeGraph, U: VertexSet) -> VertexSet:
    """Vertices of U all of whose neighbors are also in U."""
    internal, _, _ = vertex_boundaries(G, U)
    return U - internal


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

    Requires the complement of the domain's interior to be in the
    reference pattern.  Components of the complement of the kept defect
    neighborhood are holes; each hole is absorbed into the unique region
    whose pattern surrounds it (an ambiguous hole is impossible for
    valid inputs and aborts loudly).
    """
    if p0.klass != 0:
        raise PreconditionError("the reference pattern must have |A| <= |B|")
    int_c = interior(G, domain).complement()
    if not in_pattern(f, int_c, p0, G):
        raise PreconditionError(
            "the complement of the domain interior must follow the reference pattern"
        )
    Z = decompose(G, f, patterns)
    if not domain.complement().issubset(Z.z_p[p0]):
        raise InternalInvariantError(
            "the exterior escaped the reference region despite the boundary pattern"
        )
    B = seen_from(G, Z.z_star, V, radius)
    x_p = {P: U & B for P, U in Z.z_p.items()}
    for hole in connected_components(G, B.complement()):
        ring = expand(G, hole, radius) - hole
        if not ring:
            owner = p0
        else:
            # off the defect set every cell lies in exactly one region
            stray = ring & Z.z_star
            if stray:
                raise InternalInvariantError(
                    f"hole ring vertex {stray.min_id()} is not cleanly owned by one pattern"
                )
            owners = {P for P, U in Z.z_p.items() if not ring.isdisjoint(U)}
            if len(owners) != 1:
                raise InternalInvariantError(
                    f"hole has ambiguous surrounding patterns {sorted(p.text() for p in owners)}"
                )
            owner = owners.pop()
            if not hole.issubset(domain) and owner != p0:
                raise InternalInvariantError(
                    "a hole reaching outside the domain is not owned by the reference"
                )
        x_p[owner] = x_p[owner] | hole
    X = Atlas(G, x_p)
    _, _, x_star = _derived_sets(G, x_p)
    if expand(G, x_star, radius) != B:
        raise InternalInvariantError(
            "the fattened defect set of the breakup does not match the kept components"
        )
    if (Z.z_star & B) != x_star:
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
    problems: list[str] = []
    for P, U in X.x_p.items():
        parity = "even" if P.klass == 0 else "odd"
        ok, witness = regularity_check(G, U, parity)
        if not ok:
            problems.append(
                f"region {P.text()} is not a regular set (witness {witness})"
            )
    if p0 not in X.x_p or not domain.complement().issubset(X.x_p[p0]):
        problems.append("domain complement is not inside the reference region")

    overlap, bad, star = _derived_sets(G, X.x_p)
    near = expand(G, star, radius)
    for P, U in X.x_p.items():
        in_pat = _pattern_cells(G, f, P)
        settled = _settled(G, in_pat)
        p_odd = _p_odd(G, P)
        p_even = p_odd.complement()
        for v in near & p_odd & (U ^ settled):
            member = v in U
            pat = v in settled
            problems.append(
                f"vertex {v} near the defect set: membership in {P.text()} is "
                f"{member} but its neighborhood in-pattern is {pat}"
            )
        for v in (near & U & p_even) - in_pat:
            problems.append(
                f"P-even vertex {v} of region {P.text()} near the defect set "
                "is out of pattern"
            )
        for v in (near & U & p_odd) - overlap - in_pat:
            problems.append(
                f"non-overlap P-odd vertex {v} of region {P.text()} is out of pattern"
            )
        for v in bad & p_odd & settled:
            problems.append(
                f"bad vertex {v} has its whole neighborhood in the {P.text()} pattern"
            )
        # P-even cells of U with an edge leaving U; the edge clauses can
        # only fail at those out of pattern or next to a settled outside cell
        leaving = U & p_even & neighborhood(G, U.complement())
        for u in (leaving - in_pat) | (leaving & neighborhood(G, settled - U)):
            for v in G.neighbors[u]:
                if v in U:
                    continue
                if u not in in_pat:
                    problems.append(
                        f"boundary edge ({u},{v}) of {P.text()} leaves an "
                        "out-of-pattern vertex"
                    )
                if v in settled:
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
    Z = decompose(G, f, patterns=[P], certify=False)
    bar = Z.z_p[P] & _pattern_cells(G, f, P)
    b_p = G.empty_set()
    for comp in connected_components(G, bar.complement(), power=2):
        if not comp.isdisjoint(V):
            b_p = b_p | comp
    return BPResult(bar, b_p, diam_star(G, b_p))
