"""Proper colorings, boundary conditions, and the repair transformation.

A coloring assigns one of 1..q to each vertex; the sentinel 0 (HOLE)
marks cells whose value is deleted or simply unknown, and properness is
only enforced between two non-HOLE endpoints.

The repair transformation is the one-to-many surgery that powers the
package's contour accounting: given a finite set S, a pattern-labelled
partition of its complement whose parts only border S, and a filling h
of the leftover region in the reference pattern, it deletes the values
on S, recolors each part onto the reference pattern by a canonical
permutation (shifting class-1 parts one lattice step so their parity
convention lands correctly), and writes the filling into what remains.
The map (f, h) -> repaired coloring is injective and always lands on a
proper coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigError, InternalInvariantError, PreconditionError
from .lattice import (
    LatticeGraph,
    VertexSet,
    boundary_cells,
    closed_neighborhood,
    vertex_boundaries,
)
from .patterns import Pattern, canonical_permutation, in_pattern, vertex_in_pattern
from .rng import make_rng

HOLE = 0


@dataclass
class Coloring:
    """Vertex -> color table; 0 is the HOLE sentinel."""

    values: list[int]
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ConfigError("colorings need q >= 2")
        for v, c in enumerate(self.values):
            if not 0 <= c <= self.q:
                raise ConfigError(f"value {c} at vertex {v} outside 0..{self.q}")

    def copy(self) -> "Coloring":
        return Coloring(list(self.values), self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.q == other.q
            and self.values == other.values
        )

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.values)


def is_proper(f: Coloring, G: LatticeGraph) -> bool:
    """No edge joins two equal non-HOLE colors."""
    values = f.values
    for v in range(G.n):
        c = values[v]
        if c == HOLE:
            continue
        for u in G.neighbors[v]:
            if u > v and values[u] == c:
                return False
    return True


def pure_pattern_sample(
    G: LatticeGraph, U: VertexSet, P: Pattern, seed: int
) -> Coloring:
    """Independent uniform colors from A on even cells of U, from B on odd.

    Cells outside U are left as HOLE.  A fixed seed reproduces the same
    coloring exactly.
    """
    a, b = P.a, P.b
    if any(G.parity[v] == 0 for v in U) and not a:
        raise ConfigError("pattern has no even-side colors but U has even cells")
    if any(G.parity[v] == 1 for v in U) and not b:
        raise ConfigError("pattern has no odd-side colors but U has odd cells")
    rng = make_rng(seed)
    values = [HOLE] * G.n
    for v in U:
        side = a if G.parity[v] == 0 else b
        values[v] = side[int(rng.integers(0, len(side)))]
    return Coloring(values, P.q)


def striped_pattern_coloring(G: LatticeGraph, P: Pattern) -> Coloring:
    """Deterministic pure pattern fill with locally full palettes.

    Each cell takes its side's color number (axis+1)-weighted coordinate
    sum mod side size.  Every cell whose sides have at most two colors
    sees the entire opposite side among its neighbors, so for such
    patterns the coloring follows no dominant pattern other than (A, B)
    anywhere and its region decomposition is exactly the trivial one.
    Three-color sides are covered away from multiply-clipped box cells;
    at box edges the fill may accidentally follow additional patterns,
    which the decomposition then legitimately reports.
    """
    a, b = P.a, P.b
    if not a or not b:
        raise ConfigError("both pattern sides must be nonempty")
    values = [HOLE] * G.n
    for v in range(G.n):
        side = a if G.parity[v] == 0 else b
        idx = sum((axis + 1) * c for axis, c in enumerate(G.coords(v))) % len(side)
        values[v] = side[idx]
    return Coloring(values, P.q)


@dataclass(frozen=True)
class BoundaryCondition:
    """Domain plus the dominant pattern imposed on its inner boundary.

    The reference pattern must have |A| <= |B| so that its parity
    convention agrees with the lattice one.  The constrained cells are
    the vertices of the domain adjacent to its complement, together with
    the domain's rim cells (faces of a non-periodic ambient stand in for
    the boundary toward infinity).
    """

    domain: VertexSet
    pattern: Pattern

    def __post_init__(self):
        if not self.pattern.is_dominant():
            raise ConfigError("boundary pattern must be dominant")
        if self.pattern.klass != 0:
            raise ConfigError("boundary pattern must have |A| <= |B|")

    def boundary_vertices(self, G: LatticeGraph) -> VertexSet:
        return boundary_cells(G, self.domain)


def check_boundary(f: Coloring, bc: BoundaryCondition, G: LatticeGraph) -> bool:
    return in_pattern(f, bc.boundary_vertices(G), bc.pattern, G)


def extend_outside(
    f: Coloring, bc: BoundaryCondition, G: LatticeGraph, seed: int
) -> Coloring:
    """Fill the domain's exterior with independent pattern colors.

    The result is proper on all of G whenever f was proper on the domain
    and satisfied the boundary condition (checked; the exterior never
    conflicts with an in-pattern boundary because the sides are
    disjoint).
    """
    if not check_boundary(f, bc, G):
        raise PreconditionError("coloring violates its boundary condition")
    exterior = bc.domain.complement()
    out = f.copy()
    sampled = pure_pattern_sample(G, exterior, bc.pattern, seed)
    for v in exterior:
        out.values[v] = sampled.values[v]
    if not is_proper(out, G):
        raise InternalInvariantError("pattern extension produced an improper coloring")
    return out


# -- repair transformation ---------------------------------------------------


@dataclass(frozen=True)
class RepairPlan:
    """Geometry shared by the forward and inverse repair maps."""

    s: VertexSet
    parts: tuple[tuple[Pattern, VertexSet], ...]
    regions0: tuple[tuple[Pattern, VertexSet], ...]  # class-0 parts minus S^+
    regions1: tuple[tuple[Pattern, VertexSet], ...]  # class-1 parts minus S^+
    s_star: VertexSet
    shift_axis: int
    shift_dir: int


def _shift_set(G: LatticeGraph, U: VertexSet, axis: int, delta: int) -> VertexSet:
    bits = 0
    for v in U:
        w = G.axis_step(v, axis, delta)
        if w is None:
            raise PreconditionError(
                f"shifting vertex {v} leaves the ambient graph along axis {axis}; "
                "class-1 parts must keep one cell of clearance from that face"
            )
        bits |= 1 << w
    return VertexSet(bits, G.n)


def plan_repair(
    G: LatticeGraph,
    S: VertexSet,
    parts: Mapping[Pattern, VertexSet],
    shift_axis: int = 0,
    shift_dir: int = 1,
) -> RepairPlan:
    """Validate the (S, parts) geometry and fix the regions once.

    Requires: the parts partition S^c, every part's internal boundary is
    adjacent to S, and shifted class-1 parts stay inside the graph.
    """
    if not 0 <= shift_axis < G.d:
        raise ConfigError(f"shift axis {shift_axis} outside 0..{G.d - 1}")
    if shift_dir not in (-1, 1):
        raise ConfigError("shift direction must be +1 or -1")
    union = G.empty_set()
    for P, part in parts.items():
        if not P.is_dominant():
            raise PreconditionError(f"part pattern {P!r} is not dominant")
        if not part.isdisjoint(union):
            raise PreconditionError("parts overlap")
        union = union | part
    if union != S.complement():
        raise PreconditionError("parts must partition the complement of S")
    _, ext_s, _ = vertex_boundaries(G, S)
    s_plus = closed_neighborhood(G, S)
    regions0 = []
    regions1 = []
    for P, part in sorted(parts.items(), key=lambda kv: kv[0].sort_key()):
        internal, _, _ = vertex_boundaries(G, part)
        if not internal.issubset(ext_s):
            raise PreconditionError(
                f"part {P.text()} has boundary cells not adjacent to S"
            )
        region = part - s_plus
        if not region:
            continue
        if P.klass == 0:
            regions0.append((P, region))
        else:
            regions1.append((P, region))
    occupied = G.empty_set()
    for _, region in regions0:
        occupied = occupied | region
    for _, region in regions1:
        occupied = occupied | _shift_set(G, region, shift_axis, -shift_dir)
    s_star = occupied.complement()
    return RepairPlan(
        s=S,
        parts=tuple(sorted(parts.items(), key=lambda kv: kv[0].sort_key())),
        regions0=tuple(regions0),
        regions1=tuple(regions1),
        s_star=s_star,
        shift_axis=shift_axis,
        shift_dir=shift_dir,
    )


def filling_count(G: LatticeGraph, plan: RepairPlan, q: int) -> int:
    """Number of admissible fillings: floor(q/2)^even * ceil(q/2)^odd on S*."""
    n_even = len(plan.s_star & G.even)
    n_odd = len(plan.s_star) - n_even
    return (q // 2) ** n_even * ((q + 1) // 2) ** n_odd


def _check_part_pattern(
    G: LatticeGraph, f: Coloring, P: Pattern, region: VertexSet
) -> None:
    internal, _, _ = vertex_boundaries(G, region)
    for v in internal:
        c = f.values[v]
        if c == HOLE:
            continue
        if not vertex_in_pattern(c, G.parity[v], P):
            raise PreconditionError(
                f"vertex {v} of the {P.text()} part borders the filling region "
                f"but carries color {c} outside the pattern"
            )


def repair_transform(
    f: Coloring,
    S: VertexSet,
    parts: Mapping[Pattern, VertexSet],
    h: Mapping[int, int],
    G: LatticeGraph,
    p0: Pattern,
    shift_axis: int = 0,
    shift_dir: int = 1,
    permutations: Mapping[Pattern, Mapping[int, int]] | None = None,
) -> Coloring:
    """Delete S, recolor the parts onto the reference pattern, fill the rest.

    f only needs values on the parts away from S^+ (HOLE elsewhere is
    fine); h must cover exactly the filling region and follow the
    reference pattern.  Custom pattern-aligning permutations may be
    supplied per part; by default the canonical order-preserving ones
    are used.  The output is asserted proper.
    """
    plan = plan_repair(G, S, parts, shift_axis, shift_dir)
    q = p0.q
    if f.q != q:
        raise PreconditionError("coloring and reference pattern disagree on q")
    perms: dict[Pattern, dict[int, int]] = {}
    for P, _ in plan.parts:
        if permutations is not None and P in permutations:
            perm = dict(permutations[P])
            target = p0 if P.klass == 0 else p0.reversed()
            src_a = set(P.a)
            if {perm[c] for c in src_a} != set(target.a) or {
                perm[c] for c in set(P.b)
            } != set(target.b):
                raise PreconditionError(
                    f"supplied permutation does not take {P.text()} to the reference"
                )
        else:
            perm = canonical_permutation(P, p0)
        perms[P] = perm

    h_keys = set(h)
    star_ids = set(plan.s_star.ids())
    if h_keys != star_ids:
        raise PreconditionError("filling must cover exactly the leftover region")
    for v, c in h.items():
        if not vertex_in_pattern(c, G.parity[v], p0):
            raise PreconditionError(
                f"filling color {c} at vertex {v} violates the reference pattern"
            )

    out = [HOLE] * G.n
    for P, region in plan.regions0:
        _check_part_pattern(G, f, P, region)
        perm = perms[P]
        for v in region:
            c = f.values[v]
            if c == HOLE:
                raise PreconditionError(f"coloring has a HOLE at part vertex {v}")
            out[v] = perm[c]
    for P, region in plan.regions1:
        _check_part_pattern(G, f, P, region)
        perm = perms[P]
        for v in region:
            c = f.values[v]
            if c == HOLE:
                raise PreconditionError(f"coloring has a HOLE at part vertex {v}")
            w = G.axis_step(v, plan.shift_axis, -plan.shift_dir)
            out[w] = perm[c]
    for v, c in h.items():
        out[v] = c
    result = Coloring(out, q)
    if not is_proper(result, G):
        raise InternalInvariantError("repair produced an improper coloring")
    return result


def repair_inverse(
    g: Coloring,
    S: VertexSet,
    parts: Mapping[Pattern, VertexSet],
    G: LatticeGraph,
    p0: Pattern,
    shift_axis: int = 0,
    shift_dir: int = 1,
    permutations: Mapping[Pattern, Mapping[int, int]] | None = None,
) -> tuple[Coloring, dict[int, int]]:
    """Recover (f restricted to the parts, h) from a repaired coloring."""
    plan = plan_repair(G, S, parts, shift_axis, shift_dir)
    values = [HOLE] * G.n
    for P, region in plan.regions0 + plan.regions1:
        if permutations is not None and P in permutations:
            perm = dict(permutations[P])
        else:
            perm = canonical_permutation(P, p0)
        inv = {dst: src for src, dst in perm.items()}
        for v in region:
            src = v if P.klass == 0 else G.axis_step(v, plan.shift_axis, -plan.shift_dir)
            values[v] = inv[g.values[src]]
    h = {v: g.values[v] for v in plan.s_star}
    return Coloring(values, p0.q), h


# -- file format --------------------------------------------------------------


def coloring_to_text(f: Coloring, G: LatticeGraph) -> str:
    header = f"q={f.q};{G.key()}"
    body = " ".join(str(c) for c in f.values)
    return f"{header}\n{body}\n"


def coloring_from_text(text: str) -> tuple[Coloring, LatticeGraph]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ConfigError("coloring file must have a header line and a value line")
    header = dict(part.split("=", 1) for part in lines[0].strip().split(";"))
    try:
        q = int(header["q"])
        dims = [int(x) for x in header["dims"].split(",")]
        per = [x == "1" for x in header["periodic"].split(",")]
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad coloring header {lines[0]!r}") from exc
    G = LatticeGraph(dims, per)
    values = [int(tok) for tok in lines[1].split()]
    if len(values) != G.n:
        raise ConfigError(
            f"coloring has {len(values)} values but the graph has {G.n} vertices"
        )
    return Coloring(values, q), G
