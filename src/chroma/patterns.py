"""Dominant color patterns and their parity conventions.

A pattern is an ordered pair (A, B) of disjoint subsets of the colors
1..q; "in the (A, B)-pattern" means even vertices take colors from A and
odd vertices colors from B.  A pattern is dominant when the two sides
have sizes floor(q/2) and ceil(q/2) in some order; dominant patterns
maximize the per-site entropy of pure pattern colorings and index every
decomposition in this package.

Each dominant pattern carries its own parity convention: the side of
size floor(q/2) is the boundary side, the other the interior side, and a
vertex is P-even exactly when its lattice parity matches the side
assignment.  For patterns with |A| <= |B| (class 0) P-even coincides
with lattice-even; for |A| > |B| (class 1, odd q only) it is flipped.

Membership has one scalar definition (``vertex_in_pattern``: one color
at one parity) and one set-level rule: a coloring's color planes give
the bitmap of every cell whose own color fits a pattern, one slot per
pattern of a tuple (``_pattern_slots``); breakups, the decomposition and
``bp_components`` read it, a one-pattern tuple where they need one
pattern.  ``in_pattern`` and the repair's filling and region checks read
only the cells they are asked about, through one table of the scalar
rule by parity and color (``_fits``).
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterable, TYPE_CHECKING

import numpy as np

from .errors import ConfigError, PreconditionError
from .lattice import _bits_to_ids, _pack_rows, _pack_slots, _replicate, _vertex_id
from .record import Record

if TYPE_CHECKING:  # pragma: no cover
    from .coloring import Coloring
    from .lattice import LatticeGraph, VertexSet

MAX_COLORS = 62


def color_mask(colors: Iterable[int], q: int) -> int:
    bits = 0
    for c in colors:
        if not 1 <= c <= q:
            raise ConfigError(f"color {c} outside 1..{q}")
        bits |= 1 << (c - 1)
    return bits


def mask_colors(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


class Pattern(Record):
    """Ordered pair of disjoint color subsets over 1..q, stored as bitmasks.

    Equality and hashing read the three fields only; the hash and the class
    are computed once, when the pattern is built, and kept on it.
    """

    __slots__ = ("q", "a_bits", "b_bits", "klass", "_hash")

    def __init__(self, q: int, a_bits: int, b_bits: int):
        if not 2 <= q <= MAX_COLORS:
            raise ConfigError(f"q must be in 2..{MAX_COLORS}, got {q}")
        full = (1 << q) - 1
        if a_bits & ~full or b_bits & ~full:
            raise ConfigError("pattern side uses a color outside 1..q")
        if a_bits & b_bits:
            raise ConfigError("pattern sides must be disjoint")
        _set_q(self, q)
        _set_a_bits(self, a_bits)
        _set_b_bits(self, b_bits)
        # 0 when |A| <= |B|, 1 otherwise
        _set_klass(self, 0 if a_bits.bit_count() <= b_bits.bit_count() else 1)
        _set_hash(self, hash((q, a_bits, b_bits)))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.q == other.q and self.a_bits == other.a_bits and self.b_bits == other.b_bits
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def make(cls, q: int, a: Iterable[int], b: Iterable[int]) -> "Pattern":
        return cls(q, color_mask(a, q), color_mask(b, q))

    @property
    def a(self) -> tuple[int, ...]:
        return mask_colors(self.a_bits)

    @property
    def b(self) -> tuple[int, ...]:
        return mask_colors(self.b_bits)

    @property
    def size_a(self) -> int:
        return self.a_bits.bit_count()

    @property
    def size_b(self) -> int:
        return self.b_bits.bit_count()

    def is_dominant(self) -> bool:
        sizes = {self.size_a, self.size_b}
        return sizes == {self.q // 2, (self.q + 1) // 2}

    @property
    def bdry_bits(self) -> int:
        """The side of size floor(q/2) (A for class 0, B for class 1)."""
        return self.a_bits if self.klass == 0 else self.b_bits

    @property
    def int_bits(self) -> int:
        """The side of size ceil(q/2)."""
        return self.b_bits if self.klass == 0 else self.a_bits

    def reversed(self) -> "Pattern":
        return Pattern(self.q, self.b_bits, self.a_bits)

    def side_for_parity(self, parity: int) -> int:
        """Color mask a vertex of the given lattice parity draws from."""
        return self.a_bits if parity == 0 else self.b_bits

    def sort_key(self) -> tuple[int, int, int]:
        return (self.size_a, self.a_bits, self.b_bits)

    def text(self) -> str:
        a = ",".join(str(c) for c in self.a)
        b = ",".join(str(c) for c in self.b)
        return f"A={a};B={b}"

    @classmethod
    def parse(cls, q: int, text: str) -> "Pattern":
        try:
            pairs = [part.split("=", 1) for part in text.strip().split(";")]
            fields = dict(pairs)
            a = [int(x) for x in fields["A"].split(",") if x]
            b = [int(x) for x in fields["B"].split(",") if x]
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad pattern text {text!r}") from exc
        if len(pairs) != 2:   # A and B are there, so another or a repeated field is
            raise ConfigError(f"bad pattern text {text!r}: it takes one A and one B field")
        return cls.make(q, a, b)

    def __repr__(self) -> str:
        return f"Pattern(q={self.q}, {self.text()})"


_set_q, _set_a_bits, _set_b_bits, _set_klass, _set_hash = (
    getattr(Pattern, name).__set__ for name in Pattern.__slots__)


class PatternSides(Record):
    __slots__ = ("bdry", "interior", "klass")

    def __init__(self, bdry: tuple[int, ...], interior: tuple[int, ...], klass: int):
        self._init(bdry, interior, klass)


def enumerate_dominant(q: int) -> list[Pattern]:
    """All dominant patterns, sorted by (|A|, A-mask, B-mask).

    There are C(q, q/2) for even q and 2*C(q, floor(q/2)) for odd q.
    """
    return list(_dominant(q))


@cache
def _dominant(q: int) -> tuple[Pattern, ...]:
    """``enumerate_dominant``, built once per q and shared."""
    if q < 3:
        raise ConfigError("dominant pattern enumeration needs q >= 3")
    if q > MAX_COLORS:
        raise ConfigError(f"q must be at most {MAX_COLORS}")
    half = q // 2
    sizes = [half] if q % 2 == 0 else [half, q - half]
    full = (1 << q) - 1
    out = []
    for size in sizes:
        for combo in itertools.combinations(range(1, q + 1), size):
            a_bits = color_mask(combo, q)
            out.append(Pattern(q, a_bits, full & ~a_bits))
    return tuple(sorted(out, key=Pattern.sort_key))


def pattern_sides(P: Pattern) -> PatternSides:
    if not P.is_dominant():
        raise PreconditionError(f"{P!r} is not dominant")
    return PatternSides(
        bdry=mask_colors(P.bdry_bits),
        interior=mask_colors(P.int_bits),
        klass=P.klass,
    )


def is_p_even(v: int, P: Pattern, G: "LatticeGraph") -> bool:
    """P-even means lattice parity equals the pattern class; an id outside
    [0, n) is a ConfigError."""
    return _vertex_id(v, G.n) not in _p_odd(G, P)


def _p_odd(G: "LatticeGraph", P: Pattern) -> "VertexSet":
    """The P-odd sublattice: the odd cells for class 0, the even ones for class 1."""
    return G.odd if P.klass == 0 else G.even


def p_parity(v: int, P: Pattern, G: "LatticeGraph") -> str:
    if not P.is_dominant():
        raise PreconditionError(f"{P!r} is not dominant")
    return "P-even" if is_p_even(v, P, G) else "P-odd"


def vertex_in_pattern(value: int, parity: int, P: Pattern) -> bool:
    """Whether one color at one lattice parity fits the pattern."""
    if value < 1:
        return False
    return bool((P.side_for_parity(parity) >> (value - 1)) & 1)


def _color_planes(G: "LatticeGraph", f: "Coloring") -> list[int]:
    """Bitmap of the cells holding each color 0..q; plane 0 holds the HOLEs.

    Built afresh per call: a Coloring's values are mutable.  A coloring of
    another size than G is a PreconditionError.
    """
    return _pack_rows(f.values_on(G) == np.arange(f.q + 1).reshape(-1, 1))


def _not_dominant_for(P: Pattern, q: int) -> PreconditionError:
    """The error for a pattern that is not a dominant pattern of q colors."""
    return PreconditionError(f"{P!r} is not a dominant pattern for q={q}")


def _pattern_slots(G: "LatticeGraph", planes: list[int], pats: tuple[Pattern, ...]) -> tuple[int, int]:
    """The cells whose own color fits the pattern (``vertex_in_pattern``, never
    a HOLE) and the P-odd cells, of every pattern at once, pattern i's in slot
    i (bits i*n .. i*n+n-1): each color plane, copied into every slot, keeps
    the cells where that color fits the slot's pattern.  Those masks are built
    once per pattern tuple, each pattern checked dominant for q, and kept on the graph."""
    q, k = len(planes) - 1, len(pats)
    key = ("pattern slots", pats, q)
    masks = G.memo.get(key)
    if masks is None:
        for P in pats:
            if P.q != q or not P.is_dominant():
                raise _not_dominant_for(P, q)
        even, odd = G.even.bits, G.odd.bits
        fits = [_pack_slots([(even if P.a_bits >> c & 1 else 0) | (odd if P.b_bits >> c & 1 else 0)
                             for P in pats], G.n)
                for c in range(q)]
        masks = G.memo[key] = fits, _pack_slots([_p_odd(G, P).bits for P in pats], G.n)
    fits, p_odd = masks
    out = 0
    for plane, fit in zip(planes[1:], fits):
        out |= _replicate(plane, G.n, k) & fit
    return out, p_odd


def in_pattern(f: "Coloring", U: "VertexSet", P: Pattern, G: "LatticeGraph") -> bool:
    """True when every vertex of U follows (A, B): evens in A, odds in B.

    Reads the colors of U's cells only, through ``_fits``.  A coloring of
    another graph or a pattern of another q is a PreconditionError."""
    values = f.values_on(G)
    ids = np.array(_bits_to_ids(G.own(U), G.n), dtype=np.intp)
    if P.q != f.q:
        raise _not_dominant_for(P, f.q)
    return bool(_fits(G, P, ids, values[ids]).all())


def _fits(G: "LatticeGraph", P: Pattern, ids, colors) -> np.ndarray:
    """Whether each color fits the P-pattern at its cell, for cells ``ids``:
    ``vertex_in_pattern`` through ``_fit_table``."""
    parity = G.odd_flags[np.asarray(ids, dtype=np.intp)].view(np.uint8)
    colors = np.asarray(colors, dtype=np.intp)
    return _fit_table(P)[parity, np.minimum(np.maximum(colors, 0), P.q + 1)]


@cache
def _fit_table(P: Pattern) -> np.ndarray:
    """``vertex_in_pattern`` by (parity, color) for colors 0..q + 1, built
    once per pattern; colors below 0 and above q read columns 0 and q + 1,
    where nothing fits."""
    table = np.array([[vertex_in_pattern(c, p, P) for c in range(P.q + 2)] for p in (0, 1)])
    table.flags.writeable = False
    return table


def canonical_permutation(P: Pattern, P0: Pattern) -> dict[int, int]:
    """Order-preserving recoloring taking P onto P0 (class 0) or reversed P0.

    The A-side of P maps onto the equally-sized side of the target in
    ascending color order, likewise the B-side; the choice is unique, so
    downstream constructions that need *a* pattern-aligning permutation
    are reproducible.
    """
    if not (P.is_dominant() and P0.is_dominant()):
        raise PreconditionError("both patterns must be dominant")
    if P.q != P0.q:
        raise PreconditionError("patterns use different color counts")
    if P0.klass != 0:
        raise PreconditionError("the reference pattern must have |A| <= |B|")
    target = P0 if P.klass == 0 else P0.reversed()
    # the two sides of a dominant pattern cover every color
    return dict(zip(P.a + P.b, target.a + target.b))
