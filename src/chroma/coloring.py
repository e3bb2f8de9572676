"""Proper colorings, boundary conditions, and the repair transformation.

A coloring assigns one of 1..q to each vertex; the sentinel 0 (HOLE)
marks cells whose value is deleted or simply unknown, and properness is
only enforced between two non-HOLE endpoints.  The colors live in one
writable int16 numpy array in vertex order, which the sampler, the color
planes of the decomposition and ``is_proper`` read directly; code that
walks the vertices one by one takes the array's ``tolist()`` once, so its
loops stay on Python ints.

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

from functools import cache
from typing import Mapping

import numpy as np

from .errors import ConfigError, InternalInvariantError, PreconditionError
from .lattice import (
    LatticeGraph,
    VertexSet,
    _bits_to_ids,
    _id_array,
    _pack,
    _unpack,
    boundary_cells,
    closed_neighborhood,
    vertex_boundaries,
)
from .patterns import Pattern, _fits, canonical_permutation, in_pattern
from .record import Record
from .rng import make_rng

HOLE = 0
MAX_COLORS = np.iinfo(np.int16).max   # the largest color an int16 entry holds


class Coloring:
    """Vertex -> color table; 0 is the HOLE sentinel.

    ``values`` may be given as any integer sequence; it is stored as a
    writable int16 numpy array (an int16 array is kept as it is, not
    copied), checked once to lie in 0..q.  Both fields may be reassigned,
    and a coloring is not hashable.
    """

    __slots__ = ("values", "q")

    def __init__(self, values: np.ndarray, q: int):
        if q < 2:
            raise ConfigError("colorings need q >= 2")
        if q > MAX_COLORS:
            raise ConfigError(f"colorings take at most {MAX_COLORS} colors")
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() > q):
            v = int(np.flatnonzero((values < 0) | (values > q))[0])
            raise ConfigError(f"value {int(values[v])} at vertex {v} outside 0..{q}")
        self.values = values.astype(np.int16, copy=False)
        self.q = q

    def __repr__(self) -> str:
        return f"Coloring(values={self.values!r}, q={self.q!r})"

    def values_on(self, G: LatticeGraph) -> np.ndarray:
        """``values``, refused (PreconditionError) unless there is one per cell of G."""
        if len(self.values) != G.n:
            raise PreconditionError(f"coloring has {len(self.values)} values for {G.n} cells")
        return self.values

    def copy(self) -> "Coloring":
        return Coloring(self.values.copy(), self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.q == other.q
            and np.array_equal(self.values, other.values)
        )

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.values.tolist())


def is_proper(f: Coloring, G: LatticeGraph) -> bool:
    """No edge joins two equal non-HOLE colors.

    One gather of every cell's neighbor a step up each axis (each edge
    once); -1 marks a clipped face.  A coloring of another size than G is
    a PreconditionError.
    """
    values = f.values_on(G)
    up = G.neighbor_table[0::2]
    return not ((values[up] == values) & (up >= 0) & (values != HOLE)).any()


def pure_pattern_sample(
    G: LatticeGraph, U: VertexSet, P: Pattern, seed: int
) -> Coloring:
    """Independent uniform colors from A on even cells of U, from B on odd.

    Cells outside U are left as HOLE.  A fixed seed reproduces the same
    coloring exactly.
    """
    a, b, bits = P.a, P.b, G.own(U)
    if not a and bits & G.even.bits:
        raise ConfigError("pattern has no even-side colors but U has even cells")
    if not b and bits & G.odd.bits:
        raise ConfigError("pattern has no odd-side colors but U has odd cells")
    cells = _id_array(bits, G.n)
    odd = G.odd_flags[cells]
    # one draw per cell in ascending id order, below its side's size
    index = make_rng(seed).integers(0, np.where(odd, len(b), len(a)))
    values = np.full(G.n, HOLE, dtype=np.int16)
    values[cells] = np.array(a + b)[index + odd * len(a)]
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
    index = np.arange(1, G.d + 1) @ np.indices(G.dims).reshape(G.d, G.n)
    odd = G.odd_flags   # an odd cell's color number is offset by |A| into a + b
    return Coloring(np.array(a + b)[index % np.where(odd, len(b), len(a)) + odd * len(a)], P.q)


class BoundaryCondition(Record):
    """Domain plus the dominant pattern imposed on its inner boundary.

    The reference pattern must have |A| <= |B| so that its parity
    convention agrees with the lattice one.  The constrained cells are
    the vertices of the domain adjacent to its complement, together with
    the domain's rim cells (faces of a non-periodic ambient stand in for
    the boundary toward infinity).
    """

    __slots__ = ("domain", "pattern")

    def __init__(self, domain: VertexSet, pattern: Pattern):
        if not pattern.is_dominant():
            raise ConfigError("boundary pattern must be dominant")
        if pattern.klass != 0:
            raise ConfigError("boundary pattern must have |A| <= |B|")
        super().__init__(domain, pattern)

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
    # the sample leaves the domain HOLE; f's values go there
    out = pure_pattern_sample(G, bc.domain.complement(), bc.pattern, seed)
    inside = _unpack(bc.domain)
    out.values[inside] = f.values[inside]
    if not is_proper(out, G):
        raise InternalInvariantError("pattern extension produced an improper coloring")
    return out


# -- repair transformation ---------------------------------------------------


class RepairPlan(Record):
    """Geometry shared by the forward and inverse repair maps.

    ``regions`` are the parts minus S^+, class-0 first.  ``moves`` holds,
    per region, the ids of its cells, the ids their colors land on (one
    step against the shift for a class-1 part, the cells themselves
    otherwise) and the ids of its internal boundary, each ascending;
    ``filling`` holds the ids of S*, the cells a filling must cover.
    Equality, hashing and the repr leave ``moves`` and ``filling`` out.
    """

    __slots__ = ("s", "parts", "regions", "s_star", "shift_axis", "shift_dir",
                 "moves", "filling")
    _compared = 6


@cache
def _canonical_tables(P: Pattern, p0: Pattern) -> tuple[np.ndarray, np.ndarray]:
    """The canonical permutation taking P to p0 and its inverse, as
    color-indexed tables that keep HOLE, built once per pair."""
    perm = canonical_permutation(P, p0)
    forward = np.zeros(P.q + 1, dtype=np.int16)
    forward[list(perm)] = list(perm.values())
    inverse = np.zeros_like(forward)
    inverse[forward] = np.arange(P.q + 1)
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


def plan_repair(
    G: LatticeGraph,
    S: VertexSet,
    parts: Mapping[Pattern, VertexSet],
    shift_axis: int = 0,
    shift_dir: int = 1,
) -> RepairPlan:
    """Validate the (S, parts) geometry and fix the regions once.

    Requires: the parts partition S^c, every part's internal boundary is
    adjacent to S, and shifted class-1 parts stay inside the graph.  The
    plan is kept in ``G.memo``; an invalid geometry stores nothing, so it
    raises again on every call.
    """
    key = ("repair plan", G.own(S), frozenset(parts.items()), shift_axis, shift_dir)
    if key in G.memo:
        return G.memo[key]
    if not 0 <= shift_axis < G.d:
        raise ConfigError(f"shift axis {shift_axis} outside 0..{G.d - 1}")
    if shift_dir not in (-1, 1):
        raise ConfigError("shift direction must be +1 or -1")
    union = 0
    for P, part in parts.items():
        if not P.is_dominant():
            raise PreconditionError(f"part pattern {P!r} is not dominant")
        bits = G.own(part)
        if union & bits:
            raise PreconditionError("parts overlap")
        union |= bits
    if union != S.complement().bits:
        raise PreconditionError("parts must partition the complement of S")
    _, ext_s, _ = vertex_boundaries(G, S)
    s_plus = closed_neighborhood(G, S)
    # sort_key puts every class-0 pattern before every class-1 one
    sorted_parts = tuple(sorted(parts.items(), key=lambda kv: kv[0].sort_key()))
    regions = []
    for P, part in sorted_parts:
        internal, _, _ = vertex_boundaries(G, part)
        if not internal.issubset(ext_s):
            raise PreconditionError(
                f"part {P.text()} has boundary cells not adjacent to S"
            )
        region = part - s_plus
        if region:
            regions.append((P, region))
    # a step by -shift_dir: row 2*axis steps up the axis, 2*axis+1 down
    step = G.neighbor_table[2 * shift_axis + (shift_dir > 0)]
    occupied = np.zeros(G.n, dtype=bool)
    moves = []
    for P, region in regions:
        cells = _id_array(region.bits, G.n)
        dest = cells if P.klass == 0 else step[cells]
        if (dest < 0).any():
            raise PreconditionError(
                f"shifting vertex {cells[np.argmax(dest < 0)]} leaves the ambient graph "
                f"along axis {shift_axis}; class-1 parts must keep one cell of clearance "
                "from that face"
            )
        occupied[dest] = True
        moves.append((cells, dest, _id_array(vertex_boundaries(G, region)[0].bits, G.n)))
    s_star = VertexSet(_pack(~occupied), G.n)
    plan = G.memo[key] = RepairPlan(
        s=S,
        parts=sorted_parts,
        regions=tuple(regions),
        s_star=s_star,
        shift_axis=shift_axis,
        shift_dir=shift_dir,
        moves=tuple(moves),
        filling=frozenset(s_star),
    )
    return plan


def filling_count(G: LatticeGraph, plan: RepairPlan, q: int) -> int:
    """Number of admissible fillings: floor(q/2)^even * ceil(q/2)^odd on S*;
    q below 2 is a ConfigError, as for a coloring."""
    if q < 2:
        raise ConfigError(f"q must be >= 2, got {q}")
    n_even = len(plan.s_star & G.even)
    n_odd = len(plan.s_star) - n_even
    return (q // 2) ** n_even * ((q + 1) // 2) ** n_odd


def repair_transform(
    f: Coloring,
    S: VertexSet,
    parts: Mapping[Pattern, VertexSet],
    h: Mapping[int, int],
    G: LatticeGraph,
    p0: Pattern,
    shift_axis: int = 0,
    shift_dir: int = 1,
) -> Coloring:
    """Delete S, recolor the parts onto the reference pattern, fill the rest.

    f only needs values on the parts away from S^+ (HOLE elsewhere is
    fine); h must cover exactly the filling region and follow the
    reference pattern.  Each part is recolored by the canonical
    order-preserving permutation onto the reference.  The output is
    asserted proper.
    """
    plan = plan_repair(G, S, parts, shift_axis, shift_dir)
    _check_q(f, p0)
    perms = {P: _canonical_tables(P, p0)[0] for P, _ in plan.parts}
    if set(h) != plan.filling:
        raise PreconditionError("filling must cover exactly the leftover region")
    _check_filling(G, list(h), list(h.values()), p0)
    _check_regions(G, plan, f)
    out = np.zeros(G.n, dtype=np.int16)
    for (P, _), (cells, dest, _) in zip(plan.regions, plan.moves):
        out[dest] = perms[P][f.values[cells]]
    for v, c in h.items():
        out[v] = c
    result = Coloring(out, p0.q)
    if not is_proper(result, G):
        raise InternalInvariantError("repair produced an improper coloring")
    return result


def _check_q(f: Coloring, p0: Pattern) -> None:
    if f.q != p0.q:
        raise PreconditionError("coloring and reference pattern disagree on q")


def _check_filling(G: LatticeGraph, ids: list[int], colors: list[int], p0: Pattern) -> None:
    """Every filled cell's color in the reference pattern; the first bad one
    in the given order is named."""
    fits = _fits(G, p0, ids, colors)
    if not fits.all():
        i = int(np.argmin(fits))
        raise PreconditionError(
            f"filling color {colors[i]} at vertex {ids[i]} violates the reference pattern"
        )


def _check_regions(G: LatticeGraph, plan: RepairPlan, f: Coloring) -> None:
    """Per region: f in its part's pattern on the internal boundary (HOLEs
    aside), through ``_fits``, and no HOLE on the region; the lowest failing
    id is named."""
    values = f.values_on(G)
    for (P, _), (cells, _, internal) in zip(plan.regions, plan.moves):
        colors = values[internal]
        stray = ~_fits(G, P, internal, colors) & (colors != HOLE)
        if stray.any():
            i = int(np.argmax(stray))
            raise PreconditionError(
                f"vertex {internal[i]} of the {P.text()} part borders the filling region "
                f"but carries color {colors[i]} outside the pattern"
            )
        colors = values[cells]
        if not colors.all():
            raise PreconditionError(
                f"coloring has a HOLE at part vertex {cells[np.argmin(colors)]}")


def repair_inverse(
    g: Coloring,
    S: VertexSet,
    parts: Mapping[Pattern, VertexSet],
    G: LatticeGraph,
    p0: Pattern,
    shift_axis: int = 0,
    shift_dir: int = 1,
) -> tuple[Coloring, dict[int, int]]:
    """Recover (f restricted to the parts, h) from a repaired coloring.

    A g the forward map cannot produce raises: the forward's checks run on
    the recovered (f, h), and g must be proper.
    """
    plan = plan_repair(G, S, parts, shift_axis, shift_dir)
    _check_q(g, p0)
    repaired = g.values_on(G)
    values = np.zeros(G.n, dtype=np.int16)
    for (P, _), (cells, dest, _) in zip(plan.regions, plan.moves):
        colors = repaired[dest]
        if not colors.all():
            raise PreconditionError(
                f"repaired coloring has a HOLE at vertex {dest[np.argmin(colors)]}")
        values[cells] = _canonical_tables(P, p0)[1][colors]
    f = Coloring(values, p0.q)
    _check_regions(G, plan, f)
    ids = _bits_to_ids(plan.s_star.bits, G.n)
    colors = repaired[ids].tolist()
    _check_filling(G, ids, colors, p0)
    h = dict(zip(ids, colors))
    if not is_proper(g, G):
        raise PreconditionError("repaired coloring is not proper")
    return f, h


# -- file format --------------------------------------------------------------


def coloring_to_text(f: Coloring, G: LatticeGraph) -> str:
    """The header ``q=...;dims=...;periodic=...`` and one line of values; a coloring
    of another size than G is a PreconditionError."""
    header = f"q={f.q};{G.key()}"
    body = " ".join(map(str, f.values_on(G).tolist()))
    return f"{header}\n{body}\n"


def coloring_from_text(text: str) -> tuple[Coloring, LatticeGraph]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ConfigError("coloring file must have a header line and a value line")
    try:
        header = dict(part.split("=", 1) for part in lines[0].strip().split(";"))
        q = int(header["q"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad coloring header {lines[0]!r}") from exc
    G = LatticeGraph.from_key(lines[0])
    try:
        values = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise ConfigError(f"coloring values must be integers: {exc}") from exc
    if len(values) != G.n:
        raise ConfigError(
            f"coloring has {len(values)} values but the graph has {G.n} vertices"
        )
    return Coloring(values, q), G
