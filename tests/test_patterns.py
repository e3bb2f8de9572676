import math
import random

import pytest

from chroma.coloring import Coloring
from chroma.errors import ConfigError, PreconditionError
from chroma.lattice import build_graph
from chroma.patterns import (
    Pattern,
    canonical_permutation,
    enumerate_dominant,
    in_pattern,
    is_p_even,
    p_parity,
    pattern_sides,
    vertex_in_pattern,
)


def test_dominant_counts_match_closed_form():
    for q in range(3, 11):
        pats = enumerate_dominant(q)
        if q % 2 == 0:
            want = math.comb(q, q // 2)
        else:
            want = 2 * math.comb(q, q // 2)
        assert len(pats) == want
        assert len(set(pats)) == want
        assert all(P.is_dominant() for P in pats)


def test_enumerate_rejects_small_q():
    with pytest.raises(ConfigError):
        enumerate_dominant(2)


def test_ordered_pairs_distinct():
    P = Pattern.make(4, [1, 2], [3, 4])
    assert P != P.reversed()
    assert P.reversed().reversed() == P


def test_sides_examples():
    s = pattern_sides(Pattern.make(4, [1, 2], [3, 4]))
    assert s.bdry == (1, 2) and s.interior == (3, 4) and s.klass == 0
    s = pattern_sides(Pattern.make(5, [1, 2, 3], [4, 5]))
    assert s.bdry == (4, 5) and s.interior == (1, 2, 3) and s.klass == 1
    s = pattern_sides(Pattern.make(5, [1, 2], [3, 4, 5]))
    assert s.bdry == (1, 2) and s.interior == (3, 4, 5) and s.klass == 0
    with pytest.raises(PreconditionError):
        pattern_sides(Pattern.make(5, [1], [2]))


def test_side_size_sum():
    for q in (3, 4, 5, 6, 7):
        for P in enumerate_dominant(q):
            assert P.bdry_bits.bit_count() == q // 2
            assert P.int_bits.bit_count() == (q + 1) // 2


def test_p_parity_convention():
    G = build_graph([4, 4])
    even_v = G.vid((0, 0))
    odd_v = G.vid((0, 1))
    balanced = Pattern.make(5, [1, 2], [3, 4, 5])
    heavy = Pattern.make(5, [1, 2, 3], [4, 5])
    assert p_parity(even_v, balanced, G) == "P-even"
    assert p_parity(even_v, heavy, G) == "P-odd"
    assert p_parity(odd_v, balanced, G) == "P-odd"
    # class-0 convention coincides with lattice parity
    for v in range(G.n):
        assert is_p_even(v, balanced, G) == (G.parity[v] == 0)


def test_in_pattern_and_monotonicity():
    G = build_graph([4, 4])
    P = Pattern.make(5, [1, 2], [3, 4, 5])
    f = Coloring([1 if G.parity[v] == 0 else 3 for v in range(G.n)], 5)
    assert in_pattern(f, G.full_set(), P, G)
    sub = Pattern.make(5, [1], [3, 4, 5])
    assert in_pattern(f, G.full_set(), sub, G)
    g = f.copy()
    g.values[G.vid((0, 0))] = 3  # even vertex with a B color
    assert not in_pattern(g, G.full_set(), P, G)
    assert in_pattern(g, G.full_set() - G.vertex_set([G.vid((0, 0))]), P, G)


def test_single_vertex_side_equivalence():
    # membership of one vertex is exactly a bdry/int side test by P-parity
    G = build_graph([4, 4])
    for q in (4, 5):
        for P in enumerate_dominant(q):
            for v in (G.vid((0, 0)), G.vid((0, 1))):
                for c in range(1, q + 1):
                    f = Coloring([0] * G.n, q)
                    f.values[v] = c
                    member = in_pattern(f, G.vertex_set([v]), P, G)
                    side = P.bdry_bits if is_p_even(v, P, G) else P.int_bits
                    assert member == bool((side >> (c - 1)) & 1)


def test_in_pattern_on_sets_is_and_of_vertex_rule():
    # multi-cell sets over colorings with HOLEs and stray colors, q = 3..6
    from chroma.coloring import pure_pattern_sample
    from chroma.rng import make_rng

    rng = make_rng(19)
    seen = set()
    for q in range(3, 7):
        for dims, periodic in (([4, 5], None), ([4, 4], [True, False]), ([3, 2, 3], None)):
            G = build_graph(dims, periodic)
            pats = enumerate_dominant(q)
            for trial in range(12):
                base = pats[int(rng.integers(0, len(pats)))]
                f = pure_pattern_sample(G, G.full_set(), base, int(rng.integers(0, 2**31)))
                for v in range(G.n):
                    r = rng.random()
                    if r < 0.08:
                        f.values[v] = 0
                    elif r < 0.16:
                        f.values[v] = int(rng.integers(1, q + 1))
                for P in pats:
                    size = int(rng.integers(2, 7))
                    U = G.vertex_set(rng.choice(G.n, size=size, replace=False).tolist())
                    want = all(vertex_in_pattern(int(f.values[v]), G.parity[v], P) for v in U)
                    assert in_pattern(f, U, P, G) == want
                    seen.add(want)
    assert seen == {True, False}


def test_canonical_order_is_stable():
    pats = enumerate_dominant(5)
    assert pats == sorted(pats, key=Pattern.sort_key)
    assert pats[0].size_a == 2


def test_text_roundtrip():
    P = Pattern.make(5, [1, 3], [2, 4, 5])
    assert Pattern.parse(5, P.text()) == P
    assert P.text() == "A=1,3;B=2,4,5"
    with pytest.raises(ConfigError):
        Pattern.parse(5, "A=1,3")


def test_parse_takes_one_a_and_one_b_field():
    # a third field or a repeated one is refused, not dropped or read as a
    # clash of the sides; the two fields may come in either order
    for text in ("A=1;B=2,3;C=4", "A=1;B=2,3;A=2", "A=1;B=2;B=3"):
        with pytest.raises(ConfigError, match="one A and one B field"):
            Pattern.parse(3, text)
    assert Pattern.parse(3, "B=2,3;A=1") == Pattern.make(3, [1], [2, 3])


def test_canonical_permutation_properties():
    p0 = Pattern.make(5, [1, 2], [3, 4, 5])
    for P in enumerate_dominant(5):
        perm = canonical_permutation(P, p0)
        assert sorted(perm) == list(range(1, 6))
        assert sorted(perm.values()) == list(range(1, 6))
        target = p0 if P.klass == 0 else p0.reversed()
        assert {perm[c] for c in P.a} == set(target.a)
        assert {perm[c] for c in P.b} == set(target.b)
        # order preserved within each side
        assert [perm[c] for c in P.a] == sorted(perm[c] for c in P.a)


def test_disjointness_enforced():
    with pytest.raises(ConfigError):
        Pattern.make(4, [1, 2], [2, 3])


@pytest.mark.parametrize("dims,periodic", [((5, 6), None), ((4, 4, 3), (True, False, False)),
                                           ((300, 300), None)])
def test_in_pattern_matches_vertex_rule_cell_by_cell(dims, periodic):
    # random colorings with HOLEs at q = 3..5: a one-cell U is in pattern
    # exactly when its cell's color fits P at its parity; on 300x300 a few
    # cells stand in for all of them
    rng = random.Random(sum(dims))
    G = build_graph(dims, periodic)
    cells = range(G.n) if G.n < 1000 else rng.sample(range(G.n), 40) + [0, G.n - 1]
    for q in (3, 4, 5):
        f = Coloring([rng.randrange(q + 1) for _ in range(G.n)], q)
        for P in enumerate_dominant(q):
            assert in_pattern(f, G.empty_set(), P, G)
            for v in cells:
                want = vertex_in_pattern(int(f.values[v]), G.parity[v], P)
                assert in_pattern(f, G.vertex_set([v]), P, G) == want


def test_inputs_of_another_graph_or_q_are_refused():
    # a coloring, set, pattern or id that G does not own is refused by the
    # rule its kind already has, never read with G's sizes or parity
    from chroma.coloring import coloring_to_text
    from chroma.errors import PreconditionError

    G, H = build_graph([8, 8]), build_graph([6, 6])
    P3, P4 = Pattern.make(3, [1], [2, 3]), Pattern.make(4, [1, 2], [3, 4])
    f, h = Coloring([1] * G.n, 3), Coloring([1] * H.n, 3)
    cases = [
        (lambda: in_pattern(h, G.full_set(), P3, G), PreconditionError,
         "coloring has 36 values for 64 cells"),
        (lambda: in_pattern(f, G.full_set(), P4, G), PreconditionError,
         "is not a dominant pattern for q=3"),
        (lambda: in_pattern(f, H.vertex_set([0, 1]), P3, G), PreconditionError,
         "vertex sets belong to different ambient graphs"),
        (lambda: is_p_even(999, P3, G), ConfigError, r"vertex id 999 outside ambient range \[0, 64\)"),
        (lambda: is_p_even(-1, P3, G), ConfigError, r"vertex id -1 outside ambient range \[0, 64\)"),
        (lambda: p_parity(999, P3, G), ConfigError, r"vertex id 999 outside ambient range \[0, 64\)"),
        (lambda: coloring_to_text(f, H), PreconditionError, "coloring has 64 values for 36 cells"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=message):
            call()
