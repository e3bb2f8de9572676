"""Finite boxes and tori in Z^d: bitmap vertex sets, boundaries, components.

Vertices are numbered row-major over the axis lengths, and every vertex
carries the parity of its coordinate sum, splitting the graph into the
even and odd sublattices.  A periodic axis must have even length so the
split survives the wrap-around.  A graph builds, by numpy and linear in
its cell count, one neighbor table (ids per direction, one rolled copy
of the grid each), the bitmaps of its faces and parity classes, and the
odd cells as one flag per cell; the lists ``neighbors``, ``degree`` and
``parity`` are views for small-box engines, built on first read.  A box
of more than ``CELL_LIMIT`` cells is refused with a resource error
before anything is allocated.

A vertex set is an integer bitmap: bit v is vertex v, and as bytes the
bitmap is little-endian.  Only this module reads or writes that layout:
``_bits_to_ids`` (``_id_array`` for an array) and ``_ids_to_bits`` convert
between bitmaps and ids in time linear in the cell count, and the packers
between bitmaps and boolean flags.  Every public (graph, set) entry reads
the set's bitmap through ``LatticeGraph.own``, which refuses a set of
another graph; raw-bitmap helpers check nothing.  A set's neighborhood N(U) is computed
for the whole set at once: along each axis, the bits off the high face
shift up by the axis stride and those off the low face shift down, and
on a periodic axis each face also shifts onto the opposite one.  Vertex
boundaries, closed neighborhoods, expansions, components and diameters
are all set algebra over N(.): a diameter counts the neighborhood steps
each cell's ball takes to cover the set, and a component is a flood of
N(.) from a seed.  At power 1 the isolated cells of a set are its
singleton components, taken in one step as one bitmap.  Only
``connected_components`` lists components one bitmap each: the union of
the components meeting a seed set is one flood, and the small ones are
read from the isolated cells and the grown components.  Each shift is
tagged with the direction it steps, so the same shifts give a
set's image per direction; counting images gives N_t(U).  A set's *edge maps* hold, per direction
j, the cells whose edge along j crosses the set's boundary (both ends of
each edge are flagged); with the opposite of each direction they give
boundary-edge counts (``boundary_edge_count`` over a union of sets),
out-directed edges and edge-by-edge tests as set algebra, without
listing edge tuples.  The same shifts act on k sets at once when one
bitmap holds set i in slot i (bits i*n .. i*n+n-1): each mask copied into
every slot keeps every moved bit inside its own slot.

A non-periodic axis clips at the faces.  The cells missing a neighbor
along some non-periodic axis form the graph's *rim*; the rim stands in
for "infinity" whenever a construction needs an unbounded exterior
(a set "disconnects v from infinity" when it cuts every path from v to
the rim).  Fully periodic graphs have an empty rim and therefore no
notion of infinity.  ``interior`` gives the cells at a given graph
distance from the rim or more, the one depth rule for padded domains.
"""

from __future__ import annotations

import operator
from functools import cached_property, reduce
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError, ResourceLimitError
from .record import Record

# the most cells a graph may have; a 1024 x 1024 box builds in about 0.09 s
# to a process peak of about 100 MB (Python 3.11, one core), and a graph's
# tables grow linearly in its cells
CELL_LIMIT = 1 << 20


class VertexSet(Record):
    """Set of vertex ids in [0, n), backed by an integer bitmap.

    A bitmap outside [0, 2^n), a negative one or one with a bit at or past
    n, is refused (PreconditionError) when the set is built: no graph of n
    cells owns it.
    """

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int):
        if bits < 0 or bits.bit_length() > n:
            raise PreconditionError(f"bitmap outside [0, 2^{n}) for a set of {n} cells")
        _set_bits(self, bits)
        _set_n(self, n)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.bits == other.bits and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.bits, self.n))

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        return cls(_ids_to_bits(ids, n), n)

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise _foreign(other, self.n)

    def __contains__(self, v: int) -> bool:
        v = operator.index(v)
        return 0 <= v < self.n and bool(self.bits >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(_bits_to_ids(self.bits, self.n))

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
        return tuple(_bits_to_ids(self.bits, self.n))

    def min_id(self) -> int | None:
        if not self.bits:
            return None
        return (self.bits & -self.bits).bit_length() - 1

    def to_text(self) -> str:
        """Ascending comma-separated decimal ids; empty set -> ''."""
        # the list's repr less its brackets and spaces: one C-level pass,
        # about twice as fast as joining each id's str
        return str(_bits_to_ids(self.bits, self.n))[1:-1].replace(" ", "")

    @classmethod
    def from_text(cls, n: int, text: str) -> "VertexSet":
        text = text.strip()
        if not text:
            return cls.empty(n)
        return cls.from_ids(n, (int(tok) for tok in text.split(",")))


# a set is built by its slots' own setters alone (see ``Record``)
_set_bits, _set_n = VertexSet._setters


def _foreign(U: VertexSet, owner: int) -> PreconditionError:
    """The one ownership refusal, of U where the ambient has ``owner`` cells."""
    past = f"; bitmap outside [0, 2^{owner})" if U.bits.bit_length() > owner else ""
    return PreconditionError(f"vertex sets belong to different ambient graphs: "
                             f"a graph of {U.n} cells, not {owner}{past}")


# -- the bit layout ----------------------------------------------------------


def _bits_to_ids(bits: int, n: int) -> list[int]:
    """The ids of an n-bit bitmap's set bits, ascending, as Python ints.

    A walk over the set bits takes one pass per id over the bits from the
    lowest id up, so a few ids far up a large box cost what they span; an
    unpack to one flag per cell takes one pass after a fixed numpy cost of
    a few microseconds.  So up to 16 ids walk and more unpack.
    """
    base = (bits & -bits).bit_length() - 1 if bits else 0
    rest = bits >> base
    if rest.bit_count() > 16:
        return _id_array(bits, n).tolist()
    out = []
    while rest:
        low = rest & -rest
        out.append(base + low.bit_length() - 1)
        rest ^= low
    return out


def _id_array(bits: int, n: int) -> np.ndarray:
    """``_bits_to_ids`` as an intp array, by the same walk or unpack."""
    if bits.bit_count() > 16:
        return np.flatnonzero(_unpack(VertexSet(bits, n)))
    return np.array(_bits_to_ids(bits, n), dtype=np.intp)


def _vertex_id(v: int, n: int) -> int:
    """v as a Python int (numpy integers included); an id outside [0, n) is
    a ConfigError."""
    v = operator.index(v)
    if not 0 <= v < n:
        raise ConfigError(f"vertex id {v} outside ambient range [0, {n})")
    return v


def _ids_to_bits(ids: Iterable[int], n: int) -> int:
    """The n-bit bitmap of integer ids (numpy integers included), in any
    order and with repeats; an id outside [0, n) is a ConfigError naming the
    first such id in the order given.  Up to 16 ids, the count at which
    ``_bits_to_ids`` stops walking bits, are set by shifts; more are packed
    from one flag per cell."""
    ids = [operator.index(v) for v in ids]
    if ids and (min(ids) < 0 or max(ids) >= n):
        v = next(v for v in ids if not 0 <= v < n)
        raise ConfigError(f"vertex id {v} outside ambient range [0, {n})")
    if len(ids) <= 16:
        bits = 0
        for v in ids:
            bits |= 1 << v
        return bits
    flags = np.zeros(n, dtype=bool)
    flags[ids] = True
    return _pack(flags)


def _pack(flags: np.ndarray) -> int:
    """Bitmap of the vertex ids whose entry in a boolean array is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _pack_rows(flags: np.ndarray) -> list[int]:
    """``_pack`` of each row of a two-dimensional boolean array."""
    rows = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _unpack(U: VertexSet) -> np.ndarray:
    """Membership of each vertex id in U, as a boolean array."""
    raw = np.frombuffer(U.bits.to_bytes((U.n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=U.n, bitorder="little").view(bool)


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
        if self.n > CELL_LIMIT:
            raise ResourceLimitError(
                f"a box of {self.n} cells exceeds the limit of {CELL_LIMIT} cells")

        self._strides = [0] * self.d
        s = 1
        for axis in range(self.d - 1, -1, -1):
            self._strides[axis] = s
            s *= dims[axis]

        # row 2*axis holds each cell's neighbor one step up the axis and row
        # 2*axis+1 the one a step down, -1 where a non-periodic face clips
        coords = np.indices(dims).reshape(self.d, self.n)
        ids = np.arange(self.n).reshape(dims)
        table = np.empty((self.full_degree, self.n), dtype=np.intp)
        low = [_pack(coords[axis] == 0) for axis in range(self.d)]
        high = [_pack(coords[axis] == dims[axis] - 1) for axis in range(self.d)]
        for axis in range(self.d):
            for row, step, face in ((2 * axis, 1, dims[axis] - 1), (2 * axis + 1, -1, 0)):
                table[row] = np.roll(ids, -step, axis=axis).ravel()
                if not periodic[axis]:
                    table[row, coords[axis] == face] = -1
        table.flags.writeable = False
        self.neighbor_table = table
        # N(U) as whole-bitmap shifts of U by (mask, distance, direction):
        # along each axis, cells off the high face move up one stride
        # (direction 2*axis) and cells off the low face down one (2*axis+1);
        # a periodic axis also wraps each face onto the other, stepping the
        # opposite way (on length 2 both ways reach one cell: one direction),
        # and a non-periodic one puts both faces on the rim
        full = (1 << self.n) - 1
        rim_bits = 0
        self._shifts_up: list[tuple[int, int, int]] = []
        self._shifts_down: list[tuple[int, int, int]] = []
        self._opposite = list(range(self.full_degree))   # the step that undoes each
        for axis, stride in enumerate(self._strides):
            up = 2 * axis
            down = up if periodic[axis] and dims[axis] == 2 else up + 1
            self._opposite[up], self._opposite[down] = down, up
            self._shifts_up.append((full & ~high[axis], stride, up))
            self._shifts_down.append((full & ~low[axis], stride, down))
            if periodic[axis]:
                wrap = (dims[axis] - 1) * stride
                self._shifts_up.append((low[axis], wrap, down))
                self._shifts_down.append((high[axis], wrap, up))
            else:
                rim_bits |= low[axis] | high[axis]
        self.rim = VertexSet(rim_bits, self.n)
        # entry j: the cells with a neighbor one step along direction j
        reach = _images(self, full)
        self._stepping = [reach[k] for k in self._opposite]
        # the odd cells both as one read-only flag per cell and as a bitmap
        self.odd_flags = coords.sum(axis=0) % 2 == 1
        self.odd_flags.flags.writeable = False
        self.odd = VertexSet(_pack(self.odd_flags), self.n)
        self.even = self.odd.complement()
        # tables derived from the graph (the sampler's sweep layouts, the
        # slot tables, the patterns' slot masks), built on first use and
        # freed with the graph
        self.memo: dict = {}

    @cached_property
    def neighbors(self) -> list[tuple[int, ...]]:
        """Each cell's distinct neighbors, ascending, read off the table."""
        # a length-2 periodic axis reaches one cell both ways: keep it once,
        # then sort each column's -1 entries to its front and cut them off
        ordered = np.sort(self.neighbor_table, axis=0)
        ordered[1:][ordered[1:] == ordered[:-1]] = -1
        ordered.sort(axis=0)
        clipped = (ordered < 0).sum(axis=0)
        return [tuple(col[k:]) for col, k in zip(ordered.T.tolist(), clipped.tolist())]

    @cached_property
    def coordinates(self) -> list[tuple[int, ...]]:
        """Each cell's coordinates, by vertex id: ``coords`` of every cell."""
        return list(product(*map(range, self.dims)))  # row-major: the last axis varies fastest

    @cached_property
    def degree(self) -> list[int]:
        return [len(t) for t in self.neighbors]

    @cached_property
    def parity(self) -> list[int]:
        return self.odd_flags.view(np.uint8).tolist()

    def coords(self, v: int) -> tuple[int, ...]:
        """Vertex v's coordinates, read off ``coordinates`` (so the first call
        builds that table, linear in the cell count); an id outside [0, n)
        is a ConfigError."""
        return self.coordinates[_vertex_id(v, self.n)]

    def vid(self, coords: Sequence[int]) -> int:
        """The id of the vertex at the given coordinates, one per axis; another
        number of coordinates, or one outside its axis, is a ConfigError."""
        dims = self.dims
        if len(coords) != len(dims):
            raise ConfigError(f"{len(coords)} coordinates for a graph of {len(dims)} axes")
        v = axis = 0
        for c in coords:   # row-major: v = v * length + c, axis by axis
            length = dims[axis]
            if not 0 <= c < length:
                raise ConfigError(f"coordinate {c} outside axis {axis}")
            v = v * length + c
            axis += 1
        return v

    def own(self, U: VertexSet) -> int:
        """U's bitmap; a set of another graph is refused: the ownership guard."""
        if U.n != self.n:
            raise _foreign(U, self.n)
        return U.bits

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
            per = [{"0": False, "1": True}[x] for x in fields["periodic"].split(",")]
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad graph key {key!r}") from exc
        return cls(dims, per)

    def __repr__(self) -> str:
        return f"LatticeGraph({self.key()})"


def build_graph(dims: Iterable[int], periodic: Iterable[bool] | None = None) -> LatticeGraph:
    return LatticeGraph(dims, periodic)


# -- neighborhoods and boundaries -------------------------------------------


def _replicate(bits: int, n: int, k: int) -> int:
    """An n-bit bitmap copied into each of k slots (slot i is bits i*n .. i*n+n-1)."""
    width = 1
    while width < k:
        bits |= bits << (width * n)
        width *= 2
    return bits & ((1 << k * n) - 1)


def _slot_tables(G: LatticeGraph, k: int) -> tuple[list, list, list[int]]:
    """The shift tables and stepping masks with every mask copied into each of
    k slots, so one shift moves each slot's set within its own slot; built
    once per k > 1 and kept on the graph (at k = 1 the shifts read the
    graph's own tables)."""
    key = ("slot tables", k)
    tables = G.memo.get(key)
    if tables is None:
        tables = G.memo[key] = (
            [(_replicate(mask, G.n, k), s, j) for mask, s, j in G._shifts_up],
            [(_replicate(mask, G.n, k), s, j) for mask, s, j in G._shifts_down],
            [_replicate(reach, G.n, k) for reach in G._stepping],
        )
    return tables


def _neighbor_bits(G: LatticeGraph, bits: int, k: int = 1) -> int:
    """N(U) of a raw bitmap, by whole-bitmap shifts (direction tags unused);
    of each slot's set at once on a k-slot bitmap."""
    if k == 1:
        ups, downs = G._shifts_up, G._shifts_down
    else:
        ups, downs, _ = _slot_tables(G, k)
    m = 0
    for mask, s, _ in ups:
        m |= (bits & mask) << s
    for mask, s, _ in downs:
        m |= (bits & mask) >> s
    return m


def _images(G: LatticeGraph, bits: int, k: int = 1) -> list[int]:
    """Entry j holds w when its neighbor w - e_j is in the bitmap; distinct
    directions name distinct neighbors, so counting entries counts them."""
    if k == 1:
        ups, downs = G._shifts_up, G._shifts_down
    else:
        ups, downs, _ = _slot_tables(G, k)
    out = [0] * (2 * G.d)
    for mask, s, j in ups:
        out[j] |= (bits & mask) << s
    for mask, s, j in downs:
        out[j] |= (bits & mask) >> s
    return out


def _edge_maps(G: LatticeGraph, bits: int, k: int = 1) -> list[int]:
    """Entry j holds w when the edge from w one step along direction j crosses
    the bitmap's boundary; ``bits & entry`` lists the out-directed edges."""
    images = _images(G, bits, k)
    stepping = G._stepping if k == 1 else _slot_tables(G, k)[2]
    return [(bits ^ images[o]) & reach for o, reach in zip(G._opposite, stepping)]


def _pack_slots(parts: Iterable[int], n: int) -> int:
    """n-bit bitmaps into consecutive slots, the first in slot 0."""
    out = 0
    for i, bits in enumerate(parts):
        out |= bits << (i * n)
    return out


def _slot(bits: int, i: int, n: int) -> int:
    """Slot i of a slotted bitmap, as an n-bit bitmap."""
    return (bits >> (i * n)) & ((1 << n) - 1)


def _fold_slots(bits: int, n: int, k: int) -> tuple[int, int]:
    """(cells in at least one slot, cells in at least two) of a k-slot bitmap,
    folding the upper half of the slots onto the lower half until one is left."""
    once, twice = bits, 0
    while k > 1:
        low = (k + 1) // 2
        keep = (1 << low * n) - 1
        once_up, twice_up = once >> low * n, twice >> low * n
        once, twice = once & keep, twice & keep
        twice |= twice_up | (once & once_up)
        once |= once_up
        k = low
    return once, twice


def _boundary_maps(G: LatticeGraph, sets: Iterable[VertexSet]) -> list[int]:
    """Entry j: the cells w whose edge one step along direction j is a
    boundary edge of some set.  Both ends of an edge are flagged, and the
    number of entries holding w counts its boundary edges."""
    out = [0] * G.full_degree
    for S in sets:
        for j, m in enumerate(_edge_maps(G, G.own(S))):
            out[j] |= m
    return out


def _edge_count(maps: list[int]) -> int:
    """Edges in edge maps that flag both ends of each edge."""
    return sum(m.bit_count() for m in maps) // 2


def boundary_edge_count(G: LatticeGraph, sets: Iterable[VertexSet]) -> int:
    """|union of the edge boundaries of the sets|, each edge counted once."""
    return _edge_count(_boundary_maps(G, sets))


def _ladder(maps: Iterable[int], top: int) -> list[int]:
    """Threshold ladder: entry i holds the cells in at least i + 1 of the maps."""
    levels = [0] * top
    for b in maps:
        for i in range(top - 1, 0, -1):
            levels[i] |= levels[i - 1] & b
        levels[0] |= b
    return levels


def _at_least(G: LatticeGraph, maps: list[int], t: int) -> int:
    """Cells in at least t of the maps (all when t <= 0, none past their number)."""
    return _ladder(maps, min(t, len(maps) + 1))[-1] if t > 0 else (1 << G.n) - 1


def neighborhood(G: LatticeGraph, U: VertexSet) -> VertexSet:
    """N(U): vertices adjacent to some vertex of U, by whole-bitmap shifts."""
    return VertexSet(_neighbor_bits(G, G.own(U)), G.n)


def closed_neighborhood(G: LatticeGraph, U: VertexSet) -> VertexSet:
    """U^+ = U together with its neighbors."""
    return VertexSet(_neighbor_bits(G, G.own(U)) | U.bits, G.n)


def expand(G: LatticeGraph, U: VertexSet, r: int) -> VertexSet:
    """U^{+r}: vertices within graph distance r of U."""
    return VertexSet(_expand_bits(G, G.own(U), r), G.n)


def _expand_bits(G: LatticeGraph, bits: int, r: int) -> int:
    """``expand`` on a raw bitmap; it stops once a step adds no cell."""
    if r < 0:
        raise PreconditionError("radius must be >= 0")
    for _ in range(r):
        bits, last = bits | _neighbor_bits(G, bits), bits
        if bits == last:
            break
    return bits


def interior(G: LatticeGraph, depth: int) -> VertexSet:
    """Cells at graph distance >= depth from the rim (every cell at depth 0).

    A cell's distance to the rim is its L-inf depth along the non-periodic
    axes, so these are the cells with depth <= c < length - depth on each.
    """
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    if depth == 0:
        return G.full_set()
    return G.full_set() - expand(G, G.rim, depth - 1)


def n_t(G: LatticeGraph, U: VertexSet, t: int) -> VertexSet:
    """Vertices with at least t neighbors inside U (none when t > 2d)."""
    if t < 1:
        raise PreconditionError("t must be >= 1")
    return VertexSet(_at_least(G, _images(G, G.own(U)), t), G.n)


def vertex_boundaries(G: LatticeGraph, U: VertexSet) -> tuple[VertexSet, VertexSet, VertexSet]:
    """(internal, external, both) vertex boundaries of U, from the OR of U's edge maps."""
    bits = G.own(U)
    both = reduce(operator.or_, _edge_maps(G, bits), 0)
    return VertexSet(both & bits, G.n), VertexSet(both & ~bits, G.n), VertexSet(both, G.n)


def boundary_cells(G: LatticeGraph, domain: VertexSet) -> VertexSet:
    """Cells of the domain facing its complement or a non-periodic face:
    its internal vertex boundary and its rim cells."""
    bits = G.own(domain)
    both = reduce(operator.or_, _edge_maps(G, bits), 0)
    return VertexSet(bits & (both | G.rim.bits), G.n)


def _sublattice_identity(G: LatticeGraph, U: VertexSet) -> tuple[int, int, int, bool]:
    """(|U_even| - |U_odd|, edges leaving U from even cells, from odd cells,
    whether the identity applies), counted over U's out-edge maps.

    The identity |U_even| - |U_odd| = (even count - odd count) / 2d holds
    exactly when every cell of U has full degree on a graph with at least
    one non-periodic axis."""
    out = [U.bits & m for m in _edge_maps(G, U.bits)]
    even = G.even.bits
    n_even_out = sum((m & even).bit_count() for m in out)
    n_even = (U.bits & even).bit_count()
    defined = any(not p for p in G.periodic) and U.bits & ~_full_degree(G) == 0
    return (2 * n_even - len(U), n_even_out, sum(m.bit_count() for m in out) - n_even_out,
            defined)


def _full_degree(G: LatticeGraph) -> int:
    """The cells with a neighbor along every direction."""
    return reduce(operator.and_, G._stepping)


# -- connectivity ------------------------------------------------------------


def _grow(G: LatticeGraph, bits: int, seed: int, power: int) -> int:
    """Component of the seed bits within a bitmap under distance-<=power adjacency."""
    if power < 1:
        raise PreconditionError("power must be >= 1")
    if seed and bits == (1 << G.n) - 1:
        return bits   # a box or torus is connected at every power
    comp = frontier = seed
    while frontier:
        reach = _neighbor_bits(G, frontier) if power == 1 else _expand_bits(G, frontier, power)
        frontier = reach & bits & ~comp
        comp |= frontier
    return comp


def _split_components(G: LatticeGraph, bits: int, power: int = 1) -> tuple[int, list[int]]:
    """A bitmap's isolated cells as one bitmap, and its other components by smallest id.

    At power 1 the cells with no neighbor in the bitmap are taken in one
    step (at a larger power the first bitmap is empty), and only the rest
    is grown component by component under distance-<=power adjacency.
    """
    remaining = bits
    isolated = 0
    if power == 1:
        isolated = remaining & ~_neighbor_bits(G, remaining)
        remaining &= ~isolated
    grown = []
    while remaining:
        comp = _grow(G, bits, remaining & -remaining, power)
        grown.append(comp)
        remaining &= ~comp
    return isolated, grown


def connected_components(G: LatticeGraph, U: VertexSet, power: int = 1) -> list[VertexSet]:
    """Components of U under distance-<=power adjacency, by smallest id."""
    isolated, comps = _split_components(G, G.own(U), power)
    comps += [1 << v for v in _bits_to_ids(isolated, G.n)]
    comps.sort(key=lambda comp: comp & -comp)   # by lowest id
    return [VertexSet(comp, G.n) for comp in comps]


def is_connected(G: LatticeGraph, U: VertexSet) -> bool:
    """Whether U is empty or the component of its lowest cell is all of it."""
    bits = G.own(U)
    return not bits or _grow(G, bits, bits & -bits, 1) == bits


def component_of(G: LatticeGraph, U: VertexSet, v: int) -> VertexSet:
    """Component of v within U (empty if v is outside U); an id outside
    [0, n) is a ConfigError."""
    bits, v = G.own(U), _vertex_id(v, G.n)
    if not bits >> v & 1:
        return G.empty_set()
    return VertexSet(_grow(G, bits, 1 << v, 1), G.n)


def co_connected_closure(G: LatticeGraph, U: VertexSet, v: int) -> VertexSet:
    """Complement of the component of v in U^c; the full set when v is in U
    (an id outside [0, n) is a ConfigError)."""
    if G.own(U) >> _vertex_id(v, G.n) & 1:
        return G.full_set()
    return component_of(G, U.complement(), v).complement()


def diameter(G: LatticeGraph, U: VertexSet) -> int:
    """Largest ambient graph distance between two vertices of U.

    Each vertex's farthest distance into U is the number of neighborhood
    steps its ball takes to cover U (the ambient graph is connected).  The
    empty set has no diameter; callers must special-case it.
    """
    bits = G.own(U)   # no ball of G covers a cell at n or above
    if not bits:
        raise PreconditionError("diameter of the empty set is undefined")
    best = 0
    for u in _bits_to_ids(bits, G.n):
        reached, steps = 1 << u, 0
        while bits & ~reached:
            reached |= _neighbor_bits(G, reached)
            steps += 1
        best = max(best, steps)
    return best


def diam_star(G: LatticeGraph, U: VertexSet) -> int:
    """Sum of (2 + diameter) over the distance-2 components of U; 0 if empty."""
    total = 0
    for comp in connected_components(G, U, power=2):
        total += 2 + diameter(G, comp)
    return total
