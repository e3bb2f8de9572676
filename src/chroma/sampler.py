"""Heat-bath and cluster MCMC for pattern-constrained proper colorings.

The target measure is uniform over proper colorings of a domain whose
boundary cells are confined to the sides of a reference dominant
pattern; cells outside the domain are frozen to an in-pattern exterior.
The heat-bath move resamples one cell uniformly over the colors its
constraint allows and its neighbors do not block; the cluster move picks
two colors and swaps them on a random subset of the two-colored
components that touch no frozen or constrained cell carrying either
color.  Both moves preserve the target measure exactly; mixing is not
certified, so runs report a split-half agreement diagnostic instead of
claiming convergence.

All randomness comes from one Philox stream per chain, so a (seed,
config) pair reproduces every output byte.  The heat-bath sweep is one
plain-Python function shared by single sweeps and chains; chains run one
after another in index order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .coloring import Coloring, is_proper, pure_pattern_sample
from .errors import ConfigError, InternalInvariantError, PreconditionError
from .exact import Constraint, allowed_masks, enumerate_colorings
from .lattice import LatticeGraph, VertexSet, connected_components
from .patterns import Pattern
from .rng import make_rng


@dataclass(frozen=True)
class ChainConfig:
    dims: tuple[int, ...]
    q: int
    pattern: str                      # e.g. "A=1;B=2,3"
    seed: int
    sweeps: int
    periodic: tuple[bool, ...] | None = None
    margin: int = 0                   # domain = cells at L-inf depth >= margin
    burn_in: int = 0
    thin: int = 1
    algorithm: str = "heat-bath"      # or "heat-bath+cluster"
    cluster_every: int = 8
    scan: str = "systematic"          # or "random"
    chains: int = 1

    def __post_init__(self):
        if self.sweeps < self.burn_in or self.burn_in < 0:
            raise ConfigError("need sweeps >= burn_in >= 0")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.algorithm not in ("heat-bath", "heat-bath+cluster"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.scan not in ("systematic", "random"):
            raise ConfigError(f"unknown scan mode {self.scan!r}")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")
        if self.algorithm == "heat-bath+cluster" and self.cluster_every < 1:
            raise ConfigError("cluster_every must be >= 1")

    def graph(self) -> LatticeGraph:
        return LatticeGraph(self.dims, self.periodic)

    def domain(self, G: LatticeGraph) -> VertexSet:
        if self.margin == 0:
            return G.full_set()
        bits = 0
        for v in range(G.n):
            cs = G.coords(v)
            ok = True
            for axis, c in enumerate(cs):
                if G.periodic[axis]:
                    continue
                if c < self.margin or c >= G.dims[axis] - self.margin:
                    ok = False
                    break
            if ok:
                bits |= 1 << v
        if not bits:
            raise ConfigError("margin leaves an empty domain")
        return VertexSet(bits, G.n)

    def p0(self) -> Pattern:
        P = Pattern.parse(self.q, self.pattern)
        if not P.is_dominant() or P.klass != 0:
            raise ConfigError("chain pattern must be dominant with |A| <= |B|")
        return P


@dataclass(frozen=True)
class OrderStats:
    vertex_ids: tuple[int, ...]
    samples: int
    violation_counts: tuple[int, ...]
    occupation_counts: tuple[tuple[int, ...], ...]
    parity_occupation: dict[str, tuple[float, ...]]
    split_half_max_diff: float

    def violation_rates(self) -> tuple[float, ...]:
        return tuple(c / self.samples for c in self.violation_counts)

    def occupation_rates(self) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(c / self.samples for c in row) for row in self.occupation_counts
        )

    def vertex_marginal(self, v: int) -> dict[int, Fraction]:
        i = self.vertex_ids.index(v)
        return {
            c + 1: Fraction(self.occupation_counts[i][c], self.samples)
            for c in range(len(self.occupation_counts[i]))
        }

    def csv_rows(self) -> list[list]:
        rows = []
        for i, v in enumerate(self.vertex_ids):
            rate = self.violation_counts[i] / self.samples
            occ = [c / self.samples for c in self.occupation_counts[i]]
            rows.append([v, rate, *occ])
        return rows


def _sweep_setup(
    G: LatticeGraph, domain: VertexSet, q: int, p0: Pattern | None
) -> tuple[list[int], list[int], list[int]]:
    """Scan order, then allowed and reference-side color masks per scan cell.

    With no reference pattern the dynamics is free: full masks and no
    violations to tally.
    """
    scan = list(domain)
    if p0 is None:
        full = [(1 << q) - 1] * len(scan)
        return scan, full, full
    masks, feasible = allowed_masks(G, domain, q, Constraint.pattern_boundary(p0))
    if not feasible:
        raise PreconditionError("the boundary pattern admits no coloring here")
    pat = [p0.side_for_parity(G.parity[v]) for v in scan]
    return scan, [masks[v] for v in scan], pat


def _sweep(colors: list[int], G: LatticeGraph, scan: list[int],
           allowed: list[int], draws: list[float], positions) -> bool:
    """One heat-bath pass in place over the scan cells at ``positions``.

    Visit k resamples cell ``scan[positions[k]]`` uniformly over its
    admissible colors: it takes the one of rank ``int(draws[k] * count)``
    in ascending order.  Returns False as soon as a cell has no admissible color, which a
    proper state satisfying the constraint never shows.
    """
    for i, r in zip(positions, draws):
        v = scan[i]
        used = 0
        for u in G.neighbors[v]:
            c = colors[u]
            if c:
                used |= 1 << (c - 1)
        avail = allowed[i] & ~used
        n_avail = avail.bit_count()
        if not n_avail:
            return False
        for _ in range(min(int(r * n_avail), n_avail - 1)):
            avail &= avail - 1
        colors[v] = (avail & -avail).bit_length()
    return True


class _Tally:
    """Color occupation and reference-pattern violations per scan cell."""

    def __init__(self, scan: list[int], pat: list[int], q: int):
        self.scan = scan
        self.pat = np.array(pat, dtype=np.int64)
        self.rows = np.arange(len(scan))
        self.occ = np.zeros((len(scan), q), dtype=np.int64)
        self.viol = np.zeros(len(scan), dtype=np.int64)
        self.samples = 0

    def add(self, colors: list[int]) -> None:
        c = np.array([colors[v] for v in self.scan], dtype=np.int64) - 1
        self.occ[self.rows, c] += 1
        self.viol += (self.pat >> c) & 1 == 0
        self.samples += 1


def heat_bath_sweep(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    rng: np.random.Generator,
    assert_proper: bool = False,
) -> Coloring:
    """One systematic scan of single-site resampling; returns a new coloring.

    Cells outside the domain are untouched.  A proper state satisfying
    the constraint always keeps at least one admissible color (its
    current one); starting from a state outside the constraint set is a
    contract violation and is reported.
    """
    scan, allowed, _ = _sweep_setup(G, domain, f.q, p0)
    colors = list(f.values)
    draws = rng.random(len(scan)).tolist()
    if not _sweep(colors, G, scan, allowed, draws, range(len(scan))):
        raise PreconditionError(
            "a cell had no admissible color; the initial coloring violates "
            "the boundary constraint"
        )
    out = Coloring(colors, f.q)
    if assert_proper and not is_proper(out, G):
        raise InternalInvariantError("heat-bath sweep broke properness")
    return out


def swappable_components(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    a: int,
    b: int,
) -> list[VertexSet]:
    """Two-color components free to exchange a and b.

    Only unconstrained domain cells move; a component touching any
    frozen or boundary-constrained cell colored a or b stays put.
    """
    q = f.q
    full = (1 << q) - 1
    if p0 is None:
        masks = [full if v in domain else 0 for v in range(G.n)]
    else:
        masks, _ = allowed_masks(G, domain, q, Constraint.pattern_boundary(p0))
    movable_bits = 0
    for v in domain:
        if masks[v] == full and f.values[v] in (a, b):
            movable_bits |= 1 << v
    movable = VertexSet(movable_bits, G.n)
    out = []
    for comp in connected_components(G, movable):
        blocked = False
        for v in comp:
            for u in G.neighbors[v]:
                if u not in movable and f.values[u] in (a, b):
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            out.append(comp)
    return out


def cluster_step(
    f: Coloring,
    G: LatticeGraph,
    domain: VertexSet,
    p0: Pattern | None,
    rng: np.random.Generator,
    assert_proper: bool = False,
) -> Coloring:
    """Swap two random colors on an independent half of their free components."""
    q = f.q
    pair = rng.choice(q, size=2, replace=False)
    a, b = int(pair[0]) + 1, int(pair[1]) + 1
    comps = swappable_components(f, G, domain, p0, a, b)
    out = f.copy()
    for comp in comps:
        if rng.random() < 0.5:
            for v in comp:
                out.values[v] = b if out.values[v] == a else a
    if assert_proper and not is_proper(out, G):
        raise InternalInvariantError("cluster step broke properness")
    return out


def _run_chain(cfg: ChainConfig, chain_index: int, G: LatticeGraph,
               domain: VertexSet, p0: Pattern, scan: list[int],
               allowed: list[int], halves: tuple[_Tally, _Tally]) -> None:
    """Run one chain, adding its samples to the first or second split half."""
    rng = make_rng(cfg.seed, stream=chain_index)
    init = pure_pattern_sample(G, G.full_set(), p0, seed=int(rng.integers(1 << 62)))
    colors = list(init.values)
    n_scan = len(scan)

    # a sample is taken after sweep k (k = 0 is the initial state) when
    # record[k]; taken[k] counts the samples held after sweep k
    sweep = np.arange(cfg.sweeps + 1)
    record = (sweep >= cfg.burn_in) & ((sweep - cfg.burn_in) % cfg.thin == 0)
    taken = np.cumsum(record).tolist()
    first_half = (taken[-1] + 1) // 2
    cut = bisect_left(taken, first_half)

    def sample(k: int) -> None:
        if record[k]:
            halves[taken[k] > first_half].add(colors)

    sample(0)
    cluster_every = cfg.cluster_every if cfg.algorithm == "heat-bath+cluster" else 0
    max_chunk = cluster_every if cluster_every else 16384
    s = 0
    while s < cfg.sweeps:
        chunk = min(max_chunk, cfg.sweeps - s)
        # chunk ends fix how the draws interleave: a chunk that would
        # record into both halves ends where the first half fills up
        if taken[s] < first_half < taken[s + chunk]:
            chunk = cut - s
        rand = rng.random((chunk, n_scan))
        site_pos = (rng.integers(0, n_scan, size=(chunk, n_scan))
                    if cfg.scan == "random" else None)
        for j in range(chunk):
            positions = range(n_scan) if site_pos is None else site_pos[j].tolist()
            if not _sweep(colors, G, scan, allowed, rand[j].tolist(), positions):
                raise InternalInvariantError("the chain reached a stuck state")
            s += 1
            sample(s)
        if cluster_every and s % cluster_every == 0 and s < cfg.sweeps:
            colors[:] = cluster_step(Coloring(colors, cfg.q), G, domain, p0, rng).values

    final = Coloring(colors, cfg.q)
    if not is_proper(final, G):
        raise InternalInvariantError("chain ended on an improper coloring")
    for v in G.full_set() - domain:
        if final.values[v] != init.values[v]:
            raise InternalInvariantError("a frozen exterior cell changed")


def run_experiment(cfg: ChainConfig, threads: int = 1) -> OrderStats:
    """Run the configured chains and pool their sample statistics.

    Sample states are taken after sweeps burn_in, burn_in + thin, ...;
    with burn_in = 0 the initial pure-pattern state is the first sample,
    so a zero-sweep run reports exactly the initial statistics.  Chains
    own disjoint Philox streams and run one after another in index
    order; ``threads`` is accepted and changes nothing.
    """
    G = cfg.graph()
    domain = cfg.domain(G)
    p0 = cfg.p0()
    q = cfg.q
    scan, allowed, pat = _sweep_setup(G, domain, q, p0)
    first, second = _Tally(scan, pat, q), _Tally(scan, pat, q)
    for i in range(cfg.chains):
        _run_chain(cfg, i, G, domain, p0, scan, allowed, (first, second))
    viol = first.viol + second.viol
    occ = first.occ + second.occ
    total_samples = first.samples + second.samples
    if total_samples == 0:
        raise ConfigError("the run records no samples; lower burn_in or thin")

    parity_occ: dict[str, tuple[float, ...]] = {}
    for name, want in (("even", 0), ("odd", 1)):
        rows = [i for i, v in enumerate(scan) if G.parity[v] == want]
        if rows:
            sums = occ[rows].sum(axis=0)
            denom = int(sums.sum())
            parity_occ[name] = tuple(float(x) / denom for x in sums)
        else:
            parity_occ[name] = tuple(0.0 for _ in range(q))

    diff = 0.0
    if first.samples and second.samples:
        r1 = first.viol / first.samples
        r2 = second.viol / second.samples
        diff = float(np.max(np.abs(r1 - r2)))
    return OrderStats(
        vertex_ids=tuple(scan),
        samples=total_samples,
        violation_counts=tuple(int(x) for x in viol),
        occupation_counts=tuple(tuple(int(c) for c in row) for row in occ),
        parity_occupation=parity_occ,
        split_half_max_diff=diff,
    )


# -- exact reversibility check --------------------------------------------------


def single_site_transition_matrix(
    G: LatticeGraph,
    domain: VertexSet,
    q: int,
    constraint: Constraint | None = None,
) -> tuple[list[tuple[int, ...]], list[list[Fraction]]]:
    """Random-site heat-bath kernel as an exact stochastic matrix.

    States are the admissible colorings (as tuples over the domain in
    ascending order); the kernel picks a uniform site and resamples it
    uniformly over the locally admissible colors.  The matrix is doubly
    checkable: rows sum to one and detailed balance for the uniform
    measure amounts to exact symmetry.
    """
    constraint = constraint or Constraint.free()
    masks, feasible = allowed_masks(G, domain, q, constraint)
    if not feasible:
        raise PreconditionError("constraint admits no coloring")
    order = sorted(domain.ids())
    states = sorted(
        tuple(assign[v] for v in order)
        for assign in enumerate_colorings(G, domain, masks)
    )
    index = {s: i for i, s in enumerate(states)}
    pos = {v: i for i, v in enumerate(order)}
    m = len(states)
    P = [[Fraction(0) for _ in range(m)] for _ in range(m)]
    site_weight = Fraction(1, len(order))
    for s_tuple in states:
        i = index[s_tuple]
        for v in order:
            used = 0
            for u in G.neighbors[v]:
                if u in pos:
                    used |= 1 << (s_tuple[pos[u]] - 1)
            avail = masks[v] & ~used
            n_avail = avail.bit_count()
            color_weight = site_weight * Fraction(1, n_avail)
            bits = avail
            while bits:
                low = bits & -bits
                bits ^= low
                c = low.bit_length()
                t = list(s_tuple)
                t[pos[v]] = c
                P[i][index[tuple(t)]] += color_weight
    return states, P
