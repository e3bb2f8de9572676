"""Randomized property suites for the structural lemmas.

Each suite draws instances from a seeded Philox stream, checks one
geometric fact that is a theorem for valid inputs, and reports any
failures with a witness string.  The command line runner treats a
failing suite as an internal invariant violation.  A suite is a trial
body on the box ``SUITES`` names for it, run by one trial loop
(``_run_trials``): the body draws one instance and yields a message per
failed check, recorded as ``trial {t}: ...``.  ``isoperimetry`` draws
nothing and checks four fixed boxes.

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


def _four_cycle(G: LatticeGraph, rng):
    """Boundary edges of odd sets satisfy the direction-exchange property."""
    S = random_regular_odd_set(G, rng)
    try:
        four_cycle_check(G, S, "odd")
        four_cycle_check(G, S.complement(), "even")
    except InternalInvariantError as exc:
        yield str(exc)


def _revealed(G: LatticeGraph, rng):
    """Revealed vertices meet every boundary edge of a regular odd set."""
    S = random_regular_odd_set(G, rng)
    try:
        revealed_vertices(G, S, "odd")
    except InternalInvariantError as exc:
        yield str(exc)


def _even_odd(G: LatticeGraph, rng, cells: VertexSet):
    """Sublattice imbalance equals the boundary-split difference over 2d,
    for random subsets of ``cells``."""
    U = random_subset(G, rng, cells, p=float(rng.uniform(0.15, 0.7)))
    imbalance, n_even, n_odd, defined = _sublattice_identity(G, U)
    if not defined:
        yield "identity unexpectedly undefined"
    elif 2 * G.d * imbalance != n_even - n_odd:
        yield f"imbalance {imbalance} vs splits {n_even}/{n_odd}"


def _sizes(G: LatticeGraph, rng):
    """|N_t(U)| is at most (max degree / t) |U|."""
    U = random_subset(G, rng, G.full_set(), p=float(rng.uniform(0.1, 0.6)))
    if not U:
        return
    delta = G.full_degree
    thresh = int(rng.integers(1, delta + 1))
    size = len(n_t(G, U, thresh))
    if size * thresh > delta * len(U):
        yield f"|N_{thresh}(U)|={size} exceeds {delta}/{thresh}*{len(U)}"


def _co_closure(G: LatticeGraph, rng):
    """Boundary containment, co-connectedness and absorption of closures."""
    instance = _co_closure_instance(G, rng)
    if instance is None:
        return
    A, anchor, B_any, C, B_conn = instance
    closure = co_connected_closure(G, A, anchor)
    if not _out_edges_within(G, closure, A):
        yield "closure boundary escaped the original"
    if not A.issubset(closure):
        yield "closure lost part of the set"
    if not is_connected(G, closure.complement()) and closure.complement():
        yield "closure is not co-connected"
    # (b): clipping any disjoint set by the closure shrinks its boundary
    if not _out_edges_within(G, B_any - closure, B_any):
        yield "clipped-set boundary escaped"
    # (c): clipping preserves co-connectedness; B is the complement of a
    # connected dilation of A, so it is co-connected and disjoint
    clipped = C.complement() - closure
    if clipped and not is_connected(G, clipped.complement()):
        yield "clipped co-connected set lost the property"
    # (d): a connected disjoint set is absorbed or untouched
    if B_conn and not (B_conn.issubset(closure) or B_conn.isdisjoint(closure)):
        yield "connected set split by the closure"


def _boundary_connected(G: LatticeGraph, rng):
    """The two-sided boundary of a connected co-connected set is connected."""
    A = random_connected_set(G, rng, int(rng.integers(2, max(3, G.n // 2))))
    if not A or A == G.full_set():
        return
    A = co_connected_closure(G, A, _pick(rng, A.complement()))
    if A != G.full_set() and not is_connected(G, vertex_boundaries(G, A)[2]):
        yield f"boundary of {len(A)}-cell set disconnected"


def _run_trials(name: str, G: LatticeGraph, trials: int, seed: int, body,
                *constants) -> SuiteResult:
    """``trials`` instances of ``body(G, rng, *constants)`` drawn in turn from
    one Philox stream; each message an instance yields is recorded as
    ``trial {t}: {message}``."""
    rng = make_rng(seed)
    return SuiteResult(name, trials, tuple(
        f"trial {t}: {message}" for t in range(trials) for message in body(G, rng, *constants)))


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


# name: (box, trial body, the body's constants as functions of the box's
# graph, computed once per run); isoperimetry has no stream
SUITES = {
    "four-cycle": ((8, 8), _four_cycle),
    "revealed": ((8, 8), _revealed),
    "even-odd": ((7, 7), _even_odd, lambda G: interior(G, 1)),
    "sizes": ((6, 6), _sizes),
    "co-closure": ((6, 6), _co_closure),
    "boundary-connected": ((6, 6, 6), _boundary_connected),
    "isoperimetry": None,
}


def _suite(name: str, trials: int, seed: int) -> SuiteResult:
    if SUITES[name] is None:
        return suite_isoperimetry(trials, seed)
    dims, body, *constants = SUITES[name]
    G = LatticeGraph(dims)
    return _run_trials(name, G, trials, seed, body, *(make(G) for make in constants))


def run_suite(name: str, trials: int, seed: int) -> list[SuiteResult]:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if name != "all" and name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; options: {sorted(SUITES)} or 'all'")
    return [_suite(n, trials, seed) for n in (SUITES if name == "all" else [name])]
