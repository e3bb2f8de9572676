"""Randomized property suites for the structural lemmas.

Each suite draws instances from a seeded Philox stream, checks one
geometric fact that is a theorem for valid inputs, and reports any
failures with a witness string.  The command line runner treats a
failing suite as an internal invariant violation.

The generators work on bitmaps: a random subset takes one uniform per
cell, in ascending id order, from a single call, which is the same
stream as one scalar draw per cell, and a random connected set tests
membership on raw integers.  The checks are set algebra over a set's
per-direction edge maps (``lattice._edge_maps``): which boundary edges
break the four-cycle exchange, which have no revealed end, whether one
set's out-directed edges lie among another's, and the even/odd split of
a boundary.
"""

from __future__ import annotations

from .errors import ConfigError, InternalInvariantError, PreconditionError
from .geometry import (
    four_cycle_check,
    isoperimetry_checks,
    regularity_check,
    revealed_vertices,
)
from .lattice import (
    LatticeGraph,
    VertexSet,
    _bits_to_ids,
    _edge_maps,
    _pack,
    _sublattice_identity,
    _unpack,
    closed_neighborhood,
    co_connected_closure,
    interior,
    is_connected,
    n_t,
    neighborhood,
    vertex_boundaries,
)
from .record import Record
from .rng import make_rng


class SuiteResult(Record):
    __slots__ = ("name", "trials", "failures")

    def __init__(self, name: str, trials: int, failures: tuple[str, ...]):
        self._init(name, trials, failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def random_subset(G: LatticeGraph, rng, cells: VertexSet, p: float = 0.35) -> VertexSet:
    """Each cell kept with probability p: one uniform per cell, in ascending
    id order, drawn in one call."""
    keep = _unpack(cells)
    keep[keep] = rng.random(G.own(cells).bit_count()) < p
    return VertexSet(_pack(keep), G.n)


def _pick(rng, cells: VertexSet) -> int:
    """A uniform cell of a nonempty set: one integer draw over its ids in order."""
    ids = _bits_to_ids(cells.bits, cells.n)
    return ids[int(rng.integers(0, len(ids)))]


def random_connected_set(G: LatticeGraph, rng, size: int, avoid: VertexSet | None = None) -> VertexSet:
    """A random connected set of at most ``size`` cells outside ``avoid``.

    A uniform seed cell, then uniform picks from the frontier list (which
    may repeat a cell; a repeat is drawn and skipped) until the set has
    ``size`` cells or the frontier runs out.  A size below 1 is a
    PreconditionError.
    """
    if size < 1:
        raise PreconditionError(f"size must be >= 1, got {size}")
    blocked = G.own(avoid) if avoid is not None else 0
    allowed = VertexSet(G.full_set().bits & ~blocked, G.n)
    if not allowed:
        return G.empty_set()
    seed = _pick(rng, allowed)
    neighbors = G.neighbors
    grown = 1 << seed
    count = 1
    frontier = [u for u in neighbors[seed] if not blocked >> u & 1]
    while frontier and count < size:
        v = frontier.pop(int(rng.integers(0, len(frontier))))
        if grown >> v & 1:
            continue
        grown |= 1 << v
        count += 1
        stop = blocked | grown
        frontier += [u for u in neighbors[v] if not stop >> u & 1]
    return VertexSet(grown, G.n)


def random_regular_odd_set(G: LatticeGraph, rng, core_depth: int = 3, p: float = 0.35) -> VertexSet:
    """Regular odd set whose closed 2-neighborhood clears the rim.

    Starts from random even cells deep inside the box, closes up to
    their neighborhood, then absorbs any even vertex fully surrounded by
    the set (required for regularity of the complement).
    """
    cells = interior(G, core_depth) & G.even
    core = random_subset(G, rng, cells, p)
    if not core:
        if not cells:
            raise ConfigError("box too small for a padded odd set")
        core = VertexSet(1 << _pick(rng, cells), G.n)
    while True:
        U = closed_neighborhood(G, core)
        absorbed = G.even - core - neighborhood(G, U.complement())
        if not absorbed:
            break
        core = core | absorbed
    ok, witness = regularity_check(G, U, "odd")
    if not ok:
        raise InternalInvariantError(f"odd-set generator broke regularity at {witness}")
    return U


def _out_edges_within(G: LatticeGraph, X: VertexSet, Y: VertexSet) -> bool:
    """Whether every out-directed boundary edge of X is one of Y, direction
    by direction over the two sets' edge maps."""
    return all(X.bits & x & ~(Y.bits & y) == 0
               for x, y in zip(_edge_maps(G, X.bits), _edge_maps(G, Y.bits)))


def _co_closure_instance(G: LatticeGraph, rng):
    """The draws of one co-closure trial: a connected set A (None when it
    fills the graph), an anchor outside it, a subset of the outside, a
    random dilation of A and a connected set avoiding A."""
    A = random_connected_set(G, rng, int(rng.integers(1, G.n // 3)))
    outside = A.complement()
    if not outside:
        return None
    anchor = _pick(rng, outside)
    B_any = random_subset(G, rng, outside, p=0.4)
    C = A
    for _ in range(int(rng.integers(0, 3))):
        C = C | random_subset(G, rng, closed_neighborhood(G, C) - C, p=0.5)
    B_conn = random_connected_set(G, rng, int(rng.integers(1, G.n // 3)), avoid=A)
    return A, anchor, B_any, C, B_conn


# -- suites --------------------------------------------------------------------


def suite_four_cycle(trials: int, seed: int) -> SuiteResult:
    """Boundary edges of odd sets satisfy the direction-exchange property."""
    G = LatticeGraph((8, 8))
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        S = random_regular_odd_set(G, rng)
        try:
            four_cycle_check(G, S, "odd")
            four_cycle_check(G, S.complement(), "even")
        except InternalInvariantError as exc:
            failures.append(f"trial {t}: {exc}")
    return SuiteResult("four-cycle", trials, tuple(failures))


def suite_revealed(trials: int, seed: int) -> SuiteResult:
    """Revealed vertices meet every boundary edge of a regular odd set."""
    G = LatticeGraph((8, 8))
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        S = random_regular_odd_set(G, rng)
        try:
            revealed_vertices(G, S, "odd")
        except InternalInvariantError as exc:
            failures.append(f"trial {t}: {exc}")
    return SuiteResult("revealed", trials, tuple(failures))


def suite_even_odd(trials: int, seed: int) -> SuiteResult:
    """Sublattice imbalance equals the boundary-split difference over 2d."""
    G = LatticeGraph((7, 7))
    cells = interior(G, 1)
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        U = random_subset(G, rng, cells, p=float(rng.uniform(0.15, 0.7)))
        imbalance, n_even, n_odd, defined = _sublattice_identity(G, U)
        if not defined:
            failures.append(f"trial {t}: identity unexpectedly undefined")
        elif 2 * G.d * imbalance != n_even - n_odd:
            failures.append(f"trial {t}: imbalance {imbalance} vs splits {n_even}/{n_odd}")
    return SuiteResult("even-odd", trials, tuple(failures))


def suite_sizes(trials: int, seed: int) -> SuiteResult:
    """|N_t(U)| is at most (max degree / t) |U|."""
    G = LatticeGraph((6, 6))
    failures = []
    rng = make_rng(seed)
    delta = G.full_degree
    for t in range(trials):
        U = random_subset(G, rng, G.full_set(), p=float(rng.uniform(0.1, 0.6)))
        if not U:
            continue
        thresh = int(rng.integers(1, delta + 1))
        size = len(n_t(G, U, thresh))
        if size * thresh > delta * len(U):
            failures.append(
                f"trial {t}: |N_{thresh}(U)|={size} exceeds {delta}/{thresh}*{len(U)}"
            )
    return SuiteResult("sizes", trials, tuple(failures))


def suite_co_closure(trials: int, seed: int) -> SuiteResult:
    """Boundary containment, co-connectedness and absorption of closures."""
    G = LatticeGraph((6, 6))
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        instance = _co_closure_instance(G, rng)
        if instance is None:
            continue
        A, anchor, B_any, C, B_conn = instance
        closure = co_connected_closure(G, A, anchor)
        if not _out_edges_within(G, closure, A):
            failures.append(f"trial {t}: closure boundary escaped the original")
        if not A.issubset(closure):
            failures.append(f"trial {t}: closure lost part of the set")
        if not is_connected(G, closure.complement()) and closure.complement():
            failures.append(f"trial {t}: closure is not co-connected")
        # (b): clipping any disjoint set by the closure shrinks its boundary
        if not _out_edges_within(G, B_any - closure, B_any):
            failures.append(f"trial {t}: clipped-set boundary escaped")
        # (c): clipping preserves co-connectedness; B is the complement of a
        # connected dilation of A, so it is co-connected and disjoint
        clipped = C.complement() - closure
        if clipped and not is_connected(G, clipped.complement()):
            failures.append(f"trial {t}: clipped co-connected set lost the property")
        # (d): a connected disjoint set is absorbed or untouched
        if B_conn:
            swallowed = B_conn.issubset(closure)
            untouched = B_conn.isdisjoint(closure)
            if not (swallowed or untouched):
                failures.append(f"trial {t}: connected set split by the closure")
    return SuiteResult("co-closure", trials, tuple(failures))


def suite_boundary_connected(trials: int, seed: int) -> SuiteResult:
    """The two-sided boundary of a connected co-connected set is connected."""
    G = LatticeGraph((6, 6, 6))
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        A = random_connected_set(G, rng, int(rng.integers(2, max(3, G.n // 2))))
        if not A or A == G.full_set():
            continue
        A = co_connected_closure(G, A, _pick(rng, A.complement()))
        if A == G.full_set():
            continue
        _, _, both = vertex_boundaries(G, A)
        if not is_connected(G, both):
            failures.append(f"trial {t}: boundary of {len(A)}-cell set disconnected")
    return SuiteResult("boundary-connected", trials, tuple(failures))


def suite_isoperimetry(trials: int, seed: int) -> SuiteResult:
    """|edge boundary of v^+| = 2d(2d-1) for even v deep in boxes, d = 2..5."""
    failures = []
    for d in range(2, 6):
        G = LatticeGraph((5,) * d)
        center = G.vid((2,) * d)
        if G.parity[center] != 0:
            center = G.vid((2,) * (d - 1) + (1,))
        plus = closed_neighborhood(G, G.vertex_set([center]))
        expected = 2 * d * (2 * d - 1)
        # counted cell by cell, independently of the edge maps the report reads
        got = sum(w not in plus for u in plus for w in G.neighbors[u])
        if got != expected:
            failures.append(f"d={d}: |boundary| = {got}, expected {expected}")
        report = isoperimetry_checks(G, plus)
        if not report.small_holds or report.small_lhs != expected:
            failures.append(f"d={d}: small-set bound report wrong: {report}")
    return SuiteResult("isoperimetry", 4, tuple(failures))


SUITES = {
    "four-cycle": suite_four_cycle,
    "revealed": suite_revealed,
    "even-odd": suite_even_odd,
    "sizes": suite_sizes,
    "co-closure": suite_co_closure,
    "boundary-connected": suite_boundary_connected,
    "isoperimetry": suite_isoperimetry,
}


def run_suite(name: str, trials: int, seed: int) -> list[SuiteResult]:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if name == "all":
        return [fn(trials, seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; options: {sorted(SUITES)} or 'all'")
    return [SUITES[name](trials, seed)]
