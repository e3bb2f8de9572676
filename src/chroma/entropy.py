"""Shannon entropy, Shearer's inequality, and neighborhood bookkeeping.

The quantities here drive the entropy accounting of the defect set: the
type of a neighborhood (set of colors seen plus an unbalanced flag), the
four per-vertex/per-edge classifications (unbalanced neighborhood,
non-dominant vertex, restricted edge, unique pattern) measured against
an explicit finite event, the per-type counting bounds, and the local
two-term decomposition of the entropy of a masked configuration.

Entropies are natural-log floats with 1e-10 style tolerances; set sizes
and the classification score stay exact rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .coloring import Coloring, HOLE
from .errors import PreconditionError, ResourceLimitError
from .lattice import LatticeGraph, VertexSet, closed_neighborhood, vertex_boundaries
from .patterns import Pattern, _dominant

ENT_TOL = 1e-10
STAR = -1  # masked symbol for cells outside the working set


def check_distribution(dist: Mapping, tol: float = 1e-9) -> None:
    total = 0.0
    for p in dist.values():
        p = float(p)
        if p < -tol:
            raise PreconditionError("negative probabilities are not allowed")
        total += p
    if abs(total - 1.0) > max(tol, 1e-12):
        raise PreconditionError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class FiniteDistribution:
    """Validated outcome -> probability table.

    Probabilities may be floats or exact Fractions; sums are checked to
    1e-12 in float mode and exactly when all entries are rational.
    """

    probs: dict

    def __post_init__(self):
        if all(isinstance(p, (int, Fraction)) for p in self.probs.values()):
            if any(p < 0 for p in self.probs.values()):
                raise PreconditionError("negative probabilities are not allowed")
            if sum(self.probs.values()) != 1:
                raise PreconditionError("exact probabilities must sum to 1")
        else:
            check_distribution(self.probs, tol=1e-12)

    def entropy(self) -> float:
        return shannon_entropy(self.probs)

    def __getitem__(self, outcome):
        return self.probs[outcome]

    def items(self):
        return self.probs.items()


def shannon_entropy(dist: Mapping) -> float:
    """Natural-log entropy of an outcome -> probability table."""
    check_distribution(dist)
    ent = 0.0
    for p in dist.values():
        p = float(p)
        if p > 0.0:
            ent -= p * math.log(p)
    return ent


def marginal(joint: Mapping[tuple, float], idx: Sequence[int]) -> dict:
    out: dict = {}
    for outcome, p in joint.items():
        key = tuple(outcome[i] for i in idx)
        out[key] = out.get(key, 0.0) + float(p)
    return out


def conditional_entropy(joint: Mapping[tuple, float], given: Sequence[int]) -> float:
    """Ent(rest | coordinates listed in ``given``), via the chain rule."""
    check_distribution(joint)
    return shannon_entropy(joint) - shannon_entropy(marginal(joint, given))


@dataclass(frozen=True)
class ShearerResult:
    lhs: float
    rhs: float
    holds: bool


def shearer_check(
    joint: Mapping[tuple, float], cover: Sequence[Sequence[int]], k: int
) -> ShearerResult:
    """Ent(all) <= (1/k) * sum of Ent over the cover, when it covers k-fold,
    up to ENT_TOL."""
    check_distribution(joint)
    n = len(next(iter(joint)))
    counts = [0] * n
    for block in cover:
        for i in block:
            if not 0 <= i < n:
                raise PreconditionError(f"cover index {i} outside 0..{n - 1}")
            counts[i] += 1
    if any(c < k for c in counts):
        deficient = counts.index(min(counts))
        raise PreconditionError(
            f"coordinate {deficient} is covered {counts[deficient]} < {k} times"
        )
    lhs = shannon_entropy(joint)
    rhs = sum(shannon_entropy(marginal(joint, block)) for block in cover) / k
    return ShearerResult(lhs, rhs, lhs <= rhs + ENT_TOL)


# -- neighborhood types and classification ------------------------------------


@dataclass(frozen=True)
class NeighborhoodType:
    colorset: frozenset[int]
    unbal: bool


def _type_of_values(values: Sequence[int], d: int, q: int) -> NeighborhoodType:
    cnt: dict[int, int] = {}
    for c in values:
        cnt[c] = cnt.get(c, 0) + 1
    unbal = any(mult * q <= d for mult in cnt.values())
    return NeighborhoodType(frozenset(cnt), unbal)


def neighborhood_type(f: Coloring, v: int, G: LatticeGraph, q: int) -> NeighborhoodType:
    """(set of colors on N(v), some-color-rare flag); needs full degree.

    A color counts as rare when its multiplicity is at most d/q, the
    comparison done exactly (mult * q <= d).
    """
    if G.degree[v] != G.full_degree:
        raise PreconditionError(f"vertex {v} lacks full degree; type undefined")
    values = f.values.take(G.neighbors[v]).tolist()
    if any(c == HOLE for c in values):
        raise PreconditionError(f"vertex {v} has HOLE neighbors; type undefined")
    return _type_of_values(values, G.d, q)


def _image(f_values: Sequence[int], vertices: Iterable[int]) -> frozenset[int]:
    return frozenset(f_values[u] for u in vertices)


@dataclass(frozen=True)
class ClassificationReport:
    unbal: VertexSet
    nondom: VertexSet
    restricted: tuple[tuple[int, int], ...]
    uniq: VertexSet
    k_value: Fraction

    def to_json(self) -> dict:
        return {
            "unbal": list(self.unbal.ids()),
            "nondom": list(self.nondom.ids()),
            "restricted": [list(e) for e in self.restricted],
            "uniq": list(self.uniq.ids()),
            "k_value": f"{self.k_value.numerator}/{self.k_value.denominator}",
        }


def _is_nondominant(f_values: Sequence[int], v: int, G: LatticeGraph, q: int) -> bool:
    return len(_image(f_values, G.neighbors[v])) not in (q // 2, (q + 1) // 2)


def classify(
    f: Coloring,
    omega: Sequence[Coloring],
    S: VertexSet,
    G: LatticeGraph,
) -> ClassificationReport:
    """Evaluate the four entropy classifications of S against the event omega.

    A vertex is non-dominant when the number of colors on its
    neighborhood is not floor(q/2) or ceil(q/2).  An edge (v, u) out of
    S is restricted when, among the event's colorings that show the same
    neighborhood color set at v, the colors seen at u together with
    those at v do not exhaust 1..q.  A vertex has a unique pattern when
    at most one neighborhood color set can occur at it without making it
    non-dominant or restricting all its out-edges.  The score adds
    |unbalanced| + |non-dominant|/q + |restricted|/d.

    All four notions depend on omega only through the colorings sharing
    a neighborhood image, so the event is grouped per image once.
    """
    q = f.q
    values = f.values.tolist()
    omega_tuples = [g.values.tolist() for g in omega]
    if not any(values == g for g in omega_tuples):
        raise PreconditionError("f must belong to omega")
    for v in S:
        if G.degree[v] != G.full_degree:
            raise PreconditionError(
                f"classification needs full degree at {v}; pad the instance"
            )
    all_colors = set(range(1, q + 1))
    unbal_bits = 0
    nondom_bits = 0
    restricted: list[tuple[int, int]] = []
    uniq_bits = 0
    d = G.d
    for v in S:
        nbrs = G.neighbors[v]
        groups: dict[frozenset[int], list[Sequence[int]]] = {}
        for h in omega_tuples:
            groups.setdefault(_image(h, nbrs), []).append(h)

        def edge_flags(img: frozenset[int]) -> tuple[bool, dict[int, bool]]:
            members = groups[img]
            seen_v = {h[v] for h in members}
            tail = seen_v != all_colors - set(img)
            per_u = {}
            for u in nbrs:
                per_u[u] = tail or {h[u] for h in members} != img
            return tail, per_u

        if neighborhood_type(f, v, G, q).unbal:
            unbal_bits |= 1 << v
        if _is_nondominant(values, v, G, q):
            nondom_bits |= 1 << v
        _, mine = edge_flags(_image(values, nbrs))
        for u in nbrs:
            if mine[u]:
                restricted.append((v, u))
        healthy_images = set()
        for img in groups:
            if len(img) not in (q // 2, (q + 1) // 2):
                continue
            _, flags = edge_flags(img)
            if all(flags.values()):
                continue
            healthy_images.add(img)
        if len(healthy_images) <= 1:
            uniq_bits |= 1 << v
    k_value = (
        Fraction(unbal_bits.bit_count())
        + Fraction(nondom_bits.bit_count(), q)
        + Fraction(len(restricted), d)
    )
    return ClassificationReport(
        unbal=VertexSet(unbal_bits, G.n),
        nondom=VertexSet(nondom_bits, G.n),
        restricted=tuple(sorted(restricted)),
        uniq=VertexSet(uniq_bits, G.n),
        k_value=k_value,
    )


def k_omega(omega: Sequence[Coloring], S: VertexSet, G: LatticeGraph) -> Fraction:
    """Minimum classification score over the event."""
    return min(classify(f, omega, S, G).k_value for f in omega)


def u_p_sets(f: Coloring, G: LatticeGraph, x_bad: VertexSet) -> dict[Pattern, VertexSet]:
    """Bad vertices of each dominant pattern's P-even parity whose neighborhood
    colors are exactly the pattern's interior side.  The sets are pairwise
    disjoint.
    """
    values = f.values.tolist()
    out: dict[Pattern, VertexSet] = {}
    for P in _dominant(f.q):
        even_par = P.klass
        interior = set(
            c + 1 for c in range(f.q) if (P.int_bits >> c) & 1
        )
        bits = 0
        for v in x_bad:
            if G.parity[v] != even_par:
                continue
            if set(_image(values, G.neighbors[v])) == interior:
                bits |= 1 << v
        out[P] = VertexSet(bits, G.n)
    return out


# -- per-type counting bounds ---------------------------------------------------


def enumerate_type_functions(
    J: Iterable[int], z: int, d: int, q: int, state_budget: int = 500_000
) -> list[tuple[int, ...]]:
    """All neighbor assignments [2d] -> colors with image exactly J and flag z.

    The |J|^{2d} candidates are walked one by one; more than
    ``state_budget`` of them raise ResourceLimitError before the walk starts.
    """
    J = tuple(sorted(set(J)))
    if len(J) ** (2 * d) > state_budget:
        raise ResourceLimitError(
            f"{len(J)}^{2 * d} neighbor assignments exceed the budget of "
            f"{state_budget}"
        )
    out = []
    for psi in itertools.product(J, repeat=2 * d):
        t = _type_of_values(psi, d, q)
        if t.colorset == frozenset(J) and int(t.unbal) == z:
            out.append(psi)
    return out


@dataclass(frozen=True)
class ZBoundCase:
    name: str
    applicable: bool
    rhs: float
    holds: bool | None


@dataclass(frozen=True)
class ZBoundReport:
    lhs: int
    k_semi_restricted: int
    cases: tuple[ZBoundCase, ...]
    holds: bool


def z_bound_check(
    psi_set: Sequence[Sequence[int]],
    I: Iterable[int],
    d: int,
    q: int,
) -> ZBoundReport:
    """Counting bounds for |Psi| * |I|^{2d} against the dominant baseline.

    Psi must be a nonempty one-type family of neighbor assignments and I
    disjoint from the common color set J.  With k semi-restricted
    coordinates (coordinates not realizing all of J across Psi), the
    baseline (floor(q/2) ceil(q/2))^{2d} is discounted by e^{-k/q}
    always, by e^{-4d/q^2} when |J| is not a dominant side size, and by
    e^{-d/4q} when I u J misses a color or the family is unbalanced.
    """
    if not psi_set:
        raise PreconditionError("psi_set must be nonempty")
    two_d = 2 * d
    types = {_type_of_values(psi, d, q) for psi in psi_set}
    if len(types) != 1:
        raise PreconditionError("psi_set mixes neighborhood types")
    for psi in psi_set:
        if len(psi) != two_d:
            raise PreconditionError("assignments must have length 2d")
    (the_type,) = types
    J = the_type.colorset
    z = int(the_type.unbal)
    I = frozenset(I)
    if I & J:
        raise PreconditionError("I must be disjoint from the common color set")
    k = 0
    for j in range(two_d):
        if {psi[j] for psi in psi_set} != J:
            k += 1
    lhs = len(psi_set) * len(I) ** two_d
    base = float((q // 2) * ((q + 1) // 2)) ** two_d
    cases = []
    rhs_always = base * math.exp(-k / q)
    cases.append(ZBoundCase("semi-restricted", True, rhs_always, lhs <= rhs_always * (1 + 1e-12)))
    nondom = len(J) not in (q // 2, (q + 1) // 2)
    rhs_nd = base * math.exp(-4 * d / q**2)
    cases.append(
        ZBoundCase("non-dominant", nondom, rhs_nd, lhs <= rhs_nd * (1 + 1e-12) if nondom else None)
    )
    partial = (I | J) != frozenset(range(1, q + 1)) or z == 1
    rhs_pt = base * math.exp(-d / (4 * q))
    cases.append(
        ZBoundCase("partial-or-unbalanced", partial, rhs_pt, lhs <= rhs_pt * (1 + 1e-12) if partial else None)
    )
    holds = all(c.holds for c in cases if c.applicable)
    return ZBoundReport(lhs, k, tuple(cases), holds)


# -- local entropy decomposition ------------------------------------------------


@dataclass(frozen=True)
class VertexTerms:
    vertex: int
    term_neighborhood_image: float  # Ent(image of masked values on N(v)) / 2d
    term_local: float               # Ent(masked N(v) | image)/2d + Ent(masked v | image)
    cap_applicable: bool
    caps_hold: bool | None


@dataclass(frozen=True)
class EntropyLossReport:
    terms: tuple[VertexTerms, ...]
    total_bound: float
    ent_masked: float
    holds: bool


def entropy_loss_eval(
    G: LatticeGraph,
    S: VertexSet,
    dist: Mapping[tuple, float],
    q: int,
) -> EntropyLossReport:
    """Two-term local bound on the entropy of the S-masked configuration.

    ``dist`` maps restrictions (tuples over the ascending vertices of
    S u ext(S)) to probabilities.  Values off S are masked to a fixed
    symbol; for every vertex of S^+ the term pair (image entropy over
    2d, local entropies given the image) is computed, and the grand
    inequality Ent(masked field) <= sum(I + II)/2 is asserted along with
    the per-vertex caps I <= q log 2 / 2d and II <= log(floor * ceil),
    where the caps apply unless a vertex of S has no neighbor in S and
    q = 3.  A failed cap or grand inequality raises PreconditionError.
    """
    check_distribution(dist)
    for v in S:
        if G.degree[v] != G.full_degree:
            raise PreconditionError(
                f"vertex {v} of S lacks full degree; embed the instance deeper"
            )
    _, ext, _ = vertex_boundaries(G, S)
    window = sorted((S | ext).ids())
    index = {v: i for i, v in enumerate(window)}
    width = len(next(iter(dist)))
    if width != len(window):
        raise PreconditionError(
            f"restrictions have {width} cells but S plus its exterior has {len(window)}"
        )

    def masked(outcome: tuple, v: int) -> int:
        return outcome[index[v]] if v in S else STAR

    field_dist: dict[tuple, float] = {}
    for outcome, p in dist.items():
        key = tuple(outcome[index[v]] for v in sorted(S.ids()))
        field_dist[key] = field_dist.get(key, 0.0) + float(p)
    ent_masked = shannon_entropy(field_dist)

    two_d = 2 * G.d
    cap_i = q * math.log(2) / two_d
    cap_ii = math.log((q // 2) * ((q + 1) // 2))
    terms = []
    total = 0.0
    for v in closed_neighborhood(G, S):
        joint: dict[tuple, float] = {}
        for outcome, p in dist.items():
            nbr = tuple(masked(outcome, u) for u in G.neighbors[v])
            me = masked(outcome, v)
            img = frozenset(nbr)
            key = (me, nbr, img)
            joint[key] = joint.get(key, 0.0) + float(p)
        ent_img = shannon_entropy(marginal(joint, [2]))
        ent_nbr_given_img = conditional_entropy(marginal(joint, [1, 2]), [1])
        ent_v_given_img = conditional_entropy(marginal(joint, [0, 2]), [1])
        term1 = ent_img / two_d
        term2 = ent_nbr_given_img / two_d + ent_v_given_img
        isolated_in_s = v in S and all(u not in S for u in G.neighbors[v])
        cap_applicable = not (isolated_in_s and q == 3)
        caps_hold = None
        if cap_applicable:
            caps_hold = term1 <= cap_i + ENT_TOL and term2 <= cap_ii + ENT_TOL
            if not caps_hold:
                raise PreconditionError(
                    f"per-vertex entropy caps failed at {v}: "
                    f"I={term1} (cap {cap_i}), II={term2} (cap {cap_ii})"
                )
        total += term1 + term2
        terms.append(VertexTerms(v, term1, term2, cap_applicable, caps_hold))
    bound = total / 2
    holds = ent_masked <= bound + ENT_TOL
    if not holds:
        raise PreconditionError(
            f"local entropy bound failed: Ent={ent_masked} > bound={bound}"
        )
    return EntropyLossReport(tuple(terms), bound, ent_masked, holds)
