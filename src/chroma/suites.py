"""Randomized property suites for the structural lemmas.

Each suite draws instances from a seeded Philox stream, checks one
geometric fact that is a theorem for valid inputs, and reports any
failures with a witness string.  The command line runner treats a
failing suite as an internal invariant violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, InternalInvariantError
from .geometry import (
    four_cycle_check,
    isoperimetry_checks,
    regularity_check,
    revealed_vertices,
)
from .lattice import (
    LatticeGraph,
    VertexSet,
    closed_neighborhood,
    co_connected_closure,
    directed_out_edges,
    edge_boundaries,
    edge_set,
    is_connected,
    n_t,
    neighborhood,
    vertex_boundaries,
)
from .rng import make_rng


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _interior_cells(G: LatticeGraph, depth: int) -> list[int]:
    out = []
    for v in range(G.n):
        cs = G.coords(v)
        if all(
            G.periodic[a] or depth <= c < G.dims[a] - depth
            for a, c in enumerate(cs)
        ):
            out.append(v)
    return out


def random_subset(G: LatticeGraph, rng, cells: list[int], p: float = 0.35) -> VertexSet:
    bits = 0
    for v in cells:
        if rng.random() < p:
            bits |= 1 << v
    return VertexSet(bits, G.n)


def random_connected_set(G: LatticeGraph, rng, size: int, avoid: VertexSet | None = None) -> VertexSet:
    avoid = avoid if avoid is not None else G.empty_set()
    candidates = [v for v in range(G.n) if v not in avoid]
    if not candidates:
        return G.empty_set()
    seed = candidates[int(rng.integers(0, len(candidates)))]
    grown = {seed}
    frontier = [u for u in G.neighbors[seed] if u not in avoid]
    while frontier and len(grown) < size:
        i = int(rng.integers(0, len(frontier)))
        v = frontier.pop(i)
        if v in grown:
            continue
        grown.add(v)
        frontier.extend(u for u in G.neighbors[v] if u not in avoid and u not in grown)
    return G.vertex_set(grown)


def random_regular_odd_set(G: LatticeGraph, rng, core_depth: int = 3, p: float = 0.35) -> VertexSet:
    """Regular odd set whose closed 2-neighborhood clears the rim.

    Starts from random even cells deep inside the box, closes up to
    their neighborhood, then absorbs any even vertex fully surrounded by
    the set (required for regularity of the complement).
    """
    cells = [v for v in _interior_cells(G, core_depth) if G.parity[v] == 0]
    picked = [v for v in cells if rng.random() < p]
    if not picked:
        if not cells:
            raise ConfigError("box too small for a padded odd set")
        picked = [cells[int(rng.integers(0, len(cells)))]]
    core = G.vertex_set(picked)
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


# -- suites --------------------------------------------------------------------


def suite_four_cycle(trials: int, seed: int, dims=(8, 8)) -> SuiteResult:
    """Boundary edges of odd sets satisfy the direction-exchange property."""
    G = LatticeGraph(dims)
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


def suite_revealed(trials: int, seed: int, dims=(8, 8)) -> SuiteResult:
    """Revealed vertices meet every boundary edge of a regular odd set."""
    G = LatticeGraph(dims)
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        S = random_regular_odd_set(G, rng)
        try:
            rev = revealed_vertices(G, S, "odd", check=True)
        except InternalInvariantError as exc:
            failures.append(f"trial {t}: {exc}")
            continue
        for (u, v) in edge_set(G, S, S.complement()):
            if u not in rev and v not in rev:
                failures.append(f"trial {t}: edge ({u},{v}) unseparated")
                break
    return SuiteResult("revealed", trials, tuple(failures))


def suite_even_odd(trials: int, seed: int, dims=(7, 7)) -> SuiteResult:
    """Sublattice imbalance equals the boundary-split difference over 2d."""
    G = LatticeGraph(dims)
    cells = _interior_cells(G, 1)
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        U = random_subset(G, rng, cells, p=float(rng.uniform(0.15, 0.7)))
        rep = edge_boundaries(G, U)
        if not rep.identity_defined:
            failures.append(f"trial {t}: identity unexpectedly undefined")
        elif not rep.identity_holds:
            failures.append(
                f"trial {t}: imbalance {rep.imbalance} vs splits "
                f"{len(rep.even_part)}/{len(rep.odd_part)}"
            )
    return SuiteResult("even-odd", trials, tuple(failures))


def suite_sizes(trials: int, seed: int, dims=(6, 6)) -> SuiteResult:
    """|N_t(U)| is at most (max degree / t) |U|."""
    G = LatticeGraph(dims)
    all_cells = list(range(G.n))
    failures = []
    rng = make_rng(seed)
    delta = G.full_degree
    for t in range(trials):
        U = random_subset(G, rng, all_cells, p=float(rng.uniform(0.1, 0.6)))
        if not U:
            continue
        thresh = int(rng.integers(1, delta + 1))
        size = len(n_t(G, U, thresh))
        if size * thresh > delta * len(U):
            failures.append(
                f"trial {t}: |N_{thresh}(U)|={size} exceeds {delta}/{thresh}*{len(U)}"
            )
    return SuiteResult("sizes", trials, tuple(failures))


def suite_co_closure(trials: int, seed: int, dims=(6, 6)) -> SuiteResult:
    """Boundary containment, co-connectedness and absorption of closures."""
    G = LatticeGraph(dims)
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        A = random_connected_set(G, rng, int(rng.integers(1, G.n // 3)))
        outside = [v for v in range(G.n) if v not in A]
        if not outside:
            continue
        anchor = outside[int(rng.integers(0, len(outside)))]
        closure = co_connected_closure(G, A, anchor)
        if not directed_out_edges(G, closure) <= directed_out_edges(G, A):
            failures.append(f"trial {t}: closure boundary escaped the original")
        if not A.issubset(closure):
            failures.append(f"trial {t}: closure lost part of the set")
        if not is_connected(G, closure.complement()) and closure.complement():
            failures.append(f"trial {t}: closure is not co-connected")
        # (b): clipping any disjoint set by the closure shrinks its boundary
        B_any = random_subset(G, rng, outside, p=0.4)
        if not directed_out_edges(G, B_any - closure) <= directed_out_edges(G, B_any):
            failures.append(f"trial {t}: clipped-set boundary escaped")
        # (c): clipping preserves co-connectedness; build B as the complement
        # of a connected dilation of A so that it is co-connected and disjoint
        C = A
        for _ in range(int(rng.integers(0, 3))):
            ring = (closed_neighborhood(G, C) - C).ids()
            picked = [v for v in ring if rng.random() < 0.5]
            C = C | G.vertex_set(picked)
        B_co = C.complement()
        clipped = B_co - closure
        if clipped and not is_connected(G, clipped.complement()):
            failures.append(f"trial {t}: clipped co-connected set lost the property")
        # (d): a connected disjoint set is absorbed or untouched
        B_conn = random_connected_set(G, rng, int(rng.integers(1, G.n // 3)), avoid=A)
        if B_conn:
            swallowed = B_conn.issubset(closure)
            untouched = B_conn.isdisjoint(closure)
            if not (swallowed or untouched):
                failures.append(f"trial {t}: connected set split by the closure")
    return SuiteResult("co-closure", trials, tuple(failures))


def suite_boundary_connected(trials: int, seed: int, dims=(6, 6, 6)) -> SuiteResult:
    """The two-sided boundary of a connected co-connected set is connected."""
    G = LatticeGraph(dims)
    failures = []
    rng = make_rng(seed)
    for t in range(trials):
        A = random_connected_set(G, rng, int(rng.integers(2, max(3, G.n // 2))))
        if not A or A == G.full_set():
            continue
        outside = [v for v in range(G.n) if v not in A]
        anchor = outside[int(rng.integers(0, len(outside)))]
        A = co_connected_closure(G, A, anchor)
        if A == G.full_set():
            continue
        _, _, both = vertex_boundaries(G, A)
        if not is_connected(G, both):
            failures.append(f"trial {t}: boundary of {len(A)}-cell set disconnected")
    return SuiteResult("boundary-connected", trials, tuple(failures))


def suite_isoperimetry(trials: int, seed: int, dims=None) -> SuiteResult:
    """|edge boundary of v^+| = 2d(2d-1) for even v deep in boxes, d = 2..5."""
    failures = []
    for d in range(2, 6):
        G = LatticeGraph((5,) * d)
        center = G.vid((2,) * d)
        if G.parity[center] != 0:
            center = G.vid((2,) * (d - 1) + (1,))
        plus = closed_neighborhood(G, G.vertex_set([center]))
        expected = 2 * d * (2 * d - 1)
        got = len(edge_set(G, plus, plus.complement()))
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
    if name == "all":
        return [fn(trials, seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; options: {sorted(SUITES)} or 'all'")
    return [SUITES[name](trials, seed)]
