"""Finite boxes and tori in Z^d: bitmap vertex sets, boundaries, components.

Vertices are numbered row-major over the axis lengths, and every vertex
carries the parity of its coordinate sum, splitting the graph into the
even and odd sublattices.  A periodic axis must have even length so the
split survives the wrap-around.

A vertex set is an integer bitmap, and its neighborhood N(U) is computed
for the whole set at once: along each axis, the bits off the high face
shift up by the axis stride and those off the low face shift down, and
on a periodic axis each face also shifts onto the opposite one.  Vertex
boundaries, closed neighborhoods, expansions and components are all set
algebra over N(.).

A non-periodic axis clips at the faces.  The cells missing a neighbor
along some non-periodic axis form the graph's *rim*; the rim stands in
for "infinity" whenever a construction needs an unbounded exterior
(a set "disconnects v from infinity" when it cuts every path from v to
the rim).  Fully periodic graphs have an empty rim and therefore no
notion of infinity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ConfigError, PreconditionError


@dataclass(frozen=True)
class VertexSet:
    """Set of vertex ids in [0, n), backed by an integer bitmap."""

    bits: int
    n: int

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in ids:
            if not 0 <= v < n:
                raise ConfigError(f"vertex id {v} outside ambient range [0, {n})")
            bits |= 1 << v
        return cls(bits, n)

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise PreconditionError("vertex sets belong to different ambient graphs")

    def __contains__(self, v: int) -> bool:
        return bool((self.bits >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits | other.bits, self.n)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & other.bits, self.n)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & ~other.bits, self.n)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits ^ other.bits, self.n)

    def complement(self) -> "VertexSet":
        return VertexSet(~self.bits & ((1 << self.n) - 1), self.n)

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def ids(self) -> tuple[int, ...]:
        return tuple(self)

    def min_id(self) -> int | None:
        if not self.bits:
            return None
        return (self.bits & -self.bits).bit_length() - 1

    def to_text(self) -> str:
        """Ascending comma-separated decimal ids; empty set -> ''."""
        return ",".join(str(v) for v in self)

    @classmethod
    def from_text(cls, n: int, text: str) -> "VertexSet":
        text = text.strip()
        if not text:
            return cls.empty(n)
        return cls.from_ids(n, (int(tok) for tok in text.split(",")))


class LatticeGraph:
    """Box/torus product graph with per-axis periodicity."""

    def __init__(self, dims: Iterable[int], periodic: Iterable[bool] | None = None):
        dims = tuple(int(x) for x in dims)
        if not dims or any(x < 1 for x in dims):
            raise ConfigError(f"axis lengths must be positive, got {dims}")
        if periodic is None:
            periodic = (False,) * len(dims)
        periodic = tuple(bool(x) for x in periodic)
        if len(periodic) != len(dims):
            raise ConfigError("periodic flags must match the number of axes")
        for axis, (length, per) in enumerate(zip(dims, periodic)):
            if per and length % 2 != 0:
                raise ConfigError(
                    f"periodic axis {axis} has odd length {length}; "
                    "this would merge the even and odd sublattices"
                )
        self.dims = dims
        self.periodic = periodic
        self.d = len(dims)
        self.full_degree = 2 * self.d
        self.n = 1
        for x in dims:
            self.n *= x

        self._strides = [0] * self.d
        s = 1
        for axis in range(self.d - 1, -1, -1):
            self._strides[axis] = s
            s *= dims[axis]

        neighbors: list[tuple[int, ...]] = []
        neighbor_mask: list[int] = []
        parity: list[int] = []
        low = [0] * self.d   # cells with coordinate 0 on the axis
        high = [0] * self.d  # cells with the last coordinate on the axis
        for v in range(self.n):
            cs = self.coords(v)
            parity.append(sum(cs) & 1)
            nbrs = set()
            for axis in range(self.d):
                if cs[axis] == 0:
                    low[axis] |= 1 << v
                if cs[axis] == dims[axis] - 1:
                    high[axis] |= 1 << v
                for delta in (-1, 1):
                    u = self._step(cs, axis, delta)
                    if u is not None:
                        nbrs.add(u)
            ordered = tuple(sorted(nbrs))
            neighbors.append(ordered)
            m = 0
            for u in ordered:
                m |= 1 << u
            neighbor_mask.append(m)

        self.neighbors = neighbors
        self.neighbor_mask = neighbor_mask
        self.parity = parity
        self.degree = [len(t) for t in neighbors]
        # N(U) as whole-bitmap shifts of U by (mask, distance): along each
        # axis, cells off the high face move up one stride and cells off
        # the low face down one; a periodic axis also wraps each face onto
        # the other, and a non-periodic one puts both faces on the rim
        full = (1 << self.n) - 1
        rim_bits = 0
        self._shifts_up: list[tuple[int, int]] = []
        self._shifts_down: list[tuple[int, int]] = []
        for axis, stride in enumerate(self._strides):
            self._shifts_up.append((full & ~high[axis], stride))
            self._shifts_down.append((full & ~low[axis], stride))
            if periodic[axis]:
                wrap = (dims[axis] - 1) * stride
                self._shifts_up.append((low[axis], wrap))
                self._shifts_down.append((high[axis], wrap))
            else:
                rim_bits |= low[axis] | high[axis]
        self.rim = VertexSet(rim_bits, self.n)
        even_bits = 0
        for v in range(self.n):
            if parity[v] == 0:
                even_bits |= 1 << v
        self.even = VertexSet(even_bits, self.n)
        self.odd = self.even.complement()

    def coords(self, v: int) -> tuple[int, ...]:
        out = []
        for axis in range(self.d):
            out.append((v // self._strides[axis]) % self.dims[axis])
        return tuple(out)

    def vid(self, coords: Iterable[int]) -> int:
        v = 0
        for axis, c in enumerate(coords):
            if not 0 <= c < self.dims[axis]:
                raise ConfigError(f"coordinate {c} outside axis {axis}")
            v += c * self._strides[axis]
        return v

    def _step(self, coords: tuple[int, ...], axis: int, delta: int) -> int | None:
        c = coords[axis] + delta
        if self.periodic[axis]:
            c %= self.dims[axis]
        elif not 0 <= c < self.dims[axis]:
            return None
        return (
            sum(cc * self._strides[a] for a, cc in enumerate(coords))
            - coords[axis] * self._strides[axis]
            + c * self._strides[axis]
        )

    def axis_step(self, v: int, axis: int, delta: int) -> int | None:
        """Neighbor of v one step along an axis, or None past a face."""
        return self._step(self.coords(v), axis, delta)

    def vertex_set(self, ids: Iterable[int]) -> VertexSet:
        return VertexSet.from_ids(self.n, ids)

    def empty_set(self) -> VertexSet:
        return VertexSet.empty(self.n)

    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def key(self) -> str:
        dims = ",".join(str(x) for x in self.dims)
        per = ",".join("1" if p else "0" for p in self.periodic)
        return f"dims={dims};periodic={per}"

    @classmethod
    def from_key(cls, key: str) -> "LatticeGraph":
        try:
            fields = dict(part.split("=", 1) for part in key.strip().split(";"))
            dims = [int(x) for x in fields["dims"].split(",")]
            per = [x == "1" for x in fields["periodic"].split(",")]
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad graph key {key!r}") from exc
        return cls(dims, per)

    def __repr__(self) -> str:
        return f"LatticeGraph({self.key()})"


def build_graph(dims: Iterable[int], periodic: Iterable[bool] | None = None) -> LatticeGraph:
    return LatticeGraph(dims, periodic)


# -- neighborhoods and boundaries -------------------------------------------


def neighborhood(G: LatticeGraph, U: VertexSet) -> VertexSet:
    """N(U): vertices adjacent to some vertex of U, by whole-bitmap shifts."""
    bits = U.bits
    m = 0
    for mask, k in G._shifts_up:
        m |= (bits & mask) << k
    for mask, k in G._shifts_down:
        m |= (bits & mask) >> k
    return VertexSet(m, G.n)


def closed_neighborhood(G: LatticeGraph, U: VertexSet) -> VertexSet:
    """U^+ = U together with its neighbors."""
    return U | neighborhood(G, U)


def expand(G: LatticeGraph, U: VertexSet, r: int) -> VertexSet:
    """U^{+r}: vertices within graph distance r of U."""
    if r < 0:
        raise PreconditionError("radius must be >= 0")
    cur = U
    for _ in range(r):
        cur = closed_neighborhood(G, cur)
    return cur


def n_t(G: LatticeGraph, U: VertexSet, t: int) -> VertexSet:
    """Vertices with at least t neighbors inside U."""
    if t < 1:
        raise PreconditionError("t must be >= 1")
    bits = 0
    ubits = U.bits
    for v in range(G.n):
        if (G.neighbor_mask[v] & ubits).bit_count() >= t:
            bits |= 1 << v
    return VertexSet(bits, G.n)


def n_t_and_expand(G: LatticeGraph, U: VertexSet, t: int, r: int) -> tuple[VertexSet, VertexSet]:
    return n_t(G, U, t), expand(G, U, r)


def vertex_boundaries(G: LatticeGraph, U: VertexSet) -> tuple[VertexSet, VertexSet, VertexSet]:
    """(internal, external, both) vertex boundaries of U."""
    external = neighborhood(G, U) - U
    internal = neighborhood(G, U.complement()) & U
    return internal, external, internal | external


def boundary_cells(G: LatticeGraph, domain: VertexSet) -> VertexSet:
    """Cells of the domain facing its complement or a non-periodic face."""
    internal, _, _ = vertex_boundaries(G, domain)
    return internal | (domain & G.rim)


def edge_set(G: LatticeGraph, U: VertexSet, W: VertexSet) -> frozenset[tuple[int, int]]:
    """Undirected edges with one endpoint in U and one in W, as (min, max)."""
    out = set()
    for u in U:
        hits = G.neighbor_mask[u] & W.bits
        for w in VertexSet(hits, G.n):
            out.add((u, w) if u < w else (w, u))
    return frozenset(out)


def directed_out_edges(G: LatticeGraph, U: VertexSet) -> frozenset[tuple[int, int]]:
    """Out-directed boundary edges (u, v) with u in U and v outside."""
    comp = U.complement().bits
    out = set()
    for u in U:
        for v in VertexSet(G.neighbor_mask[u] & comp, G.n):
            out.add((u, v))
    return frozenset(out)


@dataclass(frozen=True)
class EdgeBoundaryReport:
    edges: frozenset[tuple[int, int]]
    directed_out: frozenset[tuple[int, int]]
    even_part: frozenset[tuple[int, int]]
    odd_part: frozenset[tuple[int, int]]
    imbalance: int
    identity_defined: bool
    identity_holds: bool | None


def edge_boundaries(G: LatticeGraph, U: VertexSet, W: VertexSet | None = None) -> EdgeBoundaryReport:
    """Edges between U and W, plus the even/odd boundary bookkeeping for U.

    The even part of the boundary of U holds the edges leaving U from an
    even vertex, the odd part those leaving from an odd vertex.  When
    every vertex of U has full degree on a graph with at least one
    non-periodic axis, the sublattice imbalance of U satisfies

        |U_even| - |U_odd| = (|even part| - |odd part|) / 2d

    exactly; the report says whether the identity applies and, if so,
    whether it held.
    """
    if W is None:
        W = U.complement()
    edges = edge_set(G, U, W)
    directed = directed_out_edges(G, U)
    comp = U.complement()
    even_part = set()
    odd_part = set()
    for u in U:
        for v in VertexSet(G.neighbor_mask[u] & comp.bits, G.n):
            e = (u, v) if u < v else (v, u)
            if G.parity[u] == 0:
                even_part.add(e)
            else:
                odd_part.add(e)
    n_even = len(U & G.even)
    n_odd = len(U) - n_even
    imbalance = n_even - n_odd
    defined = any(not p for p in G.periodic) and all(
        G.degree[v] == G.full_degree for v in U
    )
    holds = None
    if defined:
        holds = 2 * G.d * imbalance == len(even_part) - len(odd_part)
    return EdgeBoundaryReport(
        edges=edges,
        directed_out=directed,
        even_part=frozenset(even_part),
        odd_part=frozenset(odd_part),
        imbalance=imbalance,
        identity_defined=defined,
        identity_holds=holds,
    )


# -- connectivity ------------------------------------------------------------


def _grow(G: LatticeGraph, U: VertexSet, seed: int, power: int) -> VertexSet:
    """Component of the seed bits within U under distance-<=power adjacency."""
    if power < 1:
        raise PreconditionError("power must be >= 1")
    comp = frontier = seed
    while frontier:
        frontier = expand(G, VertexSet(frontier, G.n), power).bits & U.bits & ~comp
        comp |= frontier
    return VertexSet(comp, G.n)


def connected_components(G: LatticeGraph, U: VertexSet, power: int = 1) -> list[VertexSet]:
    """Components of U under distance-<=power adjacency, by smallest id."""
    remaining = U.bits
    comps = []
    while remaining:
        comp = _grow(G, U, remaining & -remaining, power)
        comps.append(comp)
        remaining &= ~comp.bits
    return comps


def is_connected(G: LatticeGraph, U: VertexSet, power: int = 1) -> bool:
    return len(U) == 0 or len(connected_components(G, U, power)) == 1


def component_of(G: LatticeGraph, U: VertexSet, v: int, power: int = 1) -> VertexSet:
    """Component of v within U (empty if v is outside U)."""
    if v not in U:
        return G.empty_set()
    return _grow(G, U, 1 << v, power)


def co_connected_closure(G: LatticeGraph, U: VertexSet, v: int) -> VertexSet:
    """Complement of the component of v in U^c; the full set when v is in U."""
    if v in U:
        return G.full_set()
    return component_of(G, U.complement(), v).complement()


def disconnects_from_rim(G: LatticeGraph, blocker: VertexSet, v: int) -> bool:
    """True when every path from v to the rim meets ``blocker``.

    Vertices inside the blocker count as disconnected.  On a fully
    periodic graph nothing is ever disconnected (there is no infinity).
    """
    if not G.rim:
        return False
    if v in blocker:
        return True
    comp = component_of(G, blocker.complement(), v)
    return comp.isdisjoint(G.rim)


def bfs_distances(G: LatticeGraph, src: int) -> list[int]:
    """Graph distances from src; unreachable cells get -1."""
    dist = [-1] * G.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in G.neighbors[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diameter(G: LatticeGraph, U: VertexSet) -> int:
    """Largest ambient graph distance between two vertices of U.

    The empty set has no diameter; callers must special-case it.
    """
    if not U:
        raise PreconditionError("diameter of the empty set is undefined")
    best = 0
    members = U.ids()
    for u in members:
        dist = bfs_distances(G, u)
        best = max(best, max(dist[v] for v in members))
    return best


def diam_star(G: LatticeGraph, U: VertexSet) -> int:
    """Sum of (2 + diameter) over the distance-2 components of U; 0 if empty."""
    total = 0
    for comp in connected_components(G, U, power=2):
        total += 2 + diameter(G, comp)
    return total
