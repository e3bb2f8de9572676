"""Geometry outputs pinned as SHA-256 digests.

Each case draws an odd collection with the package"s own generator and
hashes what the constructions return on it: the separating set and its
separator, the weak approximation, the revealed vertices, greedy covers,
the clauses of `verify_approximation`, the edge boundaries with their
even/odd split, and the isoperimetry report.  The digests were recorded
from the earlier per-vertex implementation of these constructions, so a
digest that changes means an output changed.  The edge lists come from
the per-edge oracle and the sublattice counts from the package's edge
maps; their digest was recorded when the package listed the edges itself.
"""

import hashlib

import pytest

from chroma.decomposition import Atlas
from chroma.geometry import (
    Approximation,
    OddSetCollection,
    four_cycle_check,
    greedy_cover,
    is_parity_set,
    isoperimetry_checks,
    revealed_vertices,
    separating_set,
    verify_approximation,
    weak_approximation,
)
from chroma.lattice import _sublattice_identity, build_graph
from chroma.patterns import Pattern
from chroma.rng import make_rng
from chroma.suites import random_regular_odd_set

import oracles

CASES = {
    "8x8": ((8, 8), None, 3, 2),
    "16x16": ((16, 16), None, 11, 3),
    "8x8x8": ((8, 8, 8), None, 5, 2),
    "12x10-periodic0": ((12, 10), (True, False), 17, 3),
}

PINNED = {
    "12x10-periodic0": {
        "edge_boundaries": "45452a74b830ae673ad22f1ab3ca2016599cb821e6e71f9c6d376e6fa5a0bd37",
        "greedy_cover": "0ce172a9234a66b8b4a72d76eeef5eed0b46f39f52832636e6c4dcf2ebc401e9",
        "isoperimetry": "1e37379decda6bc49787dc75226867f267473cfc7432ea1b029c7f3a808b9930",
        "revealed_vertices": "cf0affc180d64c93c5f7a01e17c08cea7c625bde2bc70aa6dac24e42115c0544",
        "separating_set": "07342eca22a72001369cf302fe1991f022ba65c4d6bf0b5e829dff4113e60bbf",
        "separating_set_mirrored": "193c5c9372421b703bfe23fb47e3c68d7dd9f10574a66459090caada0023e8a1",
        "sets": "379793281c3ebe5297dd1045448def66243e22582cdaaa9fed654a5e35357d82",
        "verify_approximation": "481a29c8ce31130dfde37e03756955152a3e00bf2484625570c726cd2789847f",
        "weak_approximation": "6007e358c3f6ed5e43f0319ec282c2f2c0ba71d07b7118f0809ab62f2346f324",
    },
    "16x16": {
        "edge_boundaries": "e99d66b1ad16d3a552885b8fbe04cc8827a4f1b42e86482cc509e1db7202ed19",
        "greedy_cover": "62b818a7d9e01e0791541f3fbe0643d4d9deb048759f849c4b4f10f7d16f06b9",
        "isoperimetry": "8cd013a7f0e9ee1184907c8b9afdfcdc87fde515e04ab456ccc00d2a5f09625c",
        "revealed_vertices": "f1c3e07fb6cba8a0f5e43c1ede94dfe578d27179455b660d8a7c44db61dcb90e",
        "separating_set": "2f3531f52b670786c751f77b0ed679679840f385f67317a871d1e826479764f8",
        "separating_set_mirrored": "222774f377d83993e8a14bba5a5c20a6281feb262093f3a1bf27f45e49238d81",
        "sets": "848c414dc7166a180f1ceb8ac3420bce967bbaa45438f3c082d261be8e8962ec",
        "verify_approximation": "481a29c8ce31130dfde37e03756955152a3e00bf2484625570c726cd2789847f",
        "weak_approximation": "4fc5bbc8a6a95f5e2c8fc2d7d6193c705bc93d4f8aa8f958d89b1321e05d30e4",
    },
    "8x8": {
        "edge_boundaries": "8a134781c0076d0fea96c865d2fc893c970a4a32f1aa763aab17c85cb0bfc995",
        "greedy_cover": "cd856f361a69e4f8158bcc2f207143af0405201b8950d20aa88b20127fa29a43",
        "isoperimetry": "dcd9a28b7cb80673f05eb8039fe76c514e26d81e578207f49a8db2501e743a8a",
        "revealed_vertices": "9373f487ed229a9357c240da8fa2a17b5b2a75e1be01f191c7c50596b1702525",
        "separating_set": "049fc657e5b938af67197ed294c29ce39f6afd1322b2533d1d65c52ec8cb9617",
        "separating_set_mirrored": "db2d43266049c50382b02aac8359c848e2a006a7732b822751dad24d3202ac4f",
        "sets": "2d40a247e0cd91bd5281dca49cc3d9ca509a33f6a83534ba1b5dc92cf5268d8f",
        "verify_approximation": "b4ee6475220996e591e46a7f24d9f868df8ba8993a3fb7f5d63803fe92a92054",
        "weak_approximation": "ca0719fc2ba75f8dae4752dbc0c87a1d878276e655ef31179b27bdf27db15c6f",
    },
    "8x8x8": {
        "edge_boundaries": "b804bf4e3df2f69b0bd18d530bf712d4a4b823f28b6f0273c99e631316bd0093",
        "greedy_cover": "dce4628c1f8a3a99b790f6e13b5876492344371f552197e8ef50de634273dfa6",
        "isoperimetry": "eb6af2a898a73c1eeb990f8fa14034f3c0e8aae0d7cfa0c04a222e881fcb67a6",
        "revealed_vertices": "62585fcfc2b4a9c94a2bd57095a8a9c73a8f38a19d3eaa89c0b869175fb6ab55",
        "separating_set": "83c5640bf0ab28a01c3f5a1c337a9775c86edc3635dc31766de17cd7c98aa32b",
        "separating_set_mirrored": "16a5e11d73afb9e99b682753a8d77e7c0144e48eec977a7126dbe3c1a7712024",
        "sets": "132398f913efca2a259a5da8d42c92fb1f57e8d0e823eae0ba4762927b1bdecf",
        "verify_approximation": "0b12dec604043eb36ccd71fff96c90b255b290ca716473eae50658d8a8bf7d68",
        "weak_approximation": "4eac08a1255c420d8c2a6243b6aa8426abe4fd1cb6e01b77332f9fb5ef71bba2",
    },
}


def _hash(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\n")
    return h.hexdigest()


def _edges(es):
    return sorted(es)


def _digests(dims, periodic, seed, n_sets) -> dict[str, str]:
    G = build_graph(dims, periodic)
    rng = make_rng(seed)
    sets = [random_regular_odd_set(G, rng) for _ in range(n_sets)]
    coll = OddSetCollection(G, sets, "odd")
    out = {"sets": _hash(S.bits for S in sets)}

    rep = separating_set(coll)
    out["separating_set"] = _hash(
        [rep.vertices.bits, rep.separator.bits, rep.size, rep.separates]
    )
    weak = weak_approximation(G, rep.separator, coll)
    out["weak_approximation"] = _hash(
        [k.bits for k in weak.known] + [weak.fringe.bits, weak.fringe_bound_ok]
    )
    # the mirrored collection runs the even-parity branch of every helper
    mirror = separating_set(coll.complements())
    out["separating_set_mirrored"] = _hash([mirror.vertices.bits, mirror.separator.bits])

    revealed = []
    for S in sets:
        revealed.append(revealed_vertices(G, S, "odd").bits)
        revealed.append(revealed_vertices(G, S.complement(), "even").bits)
        four_cycle_check(G, S, "odd")
        four_cycle_check(G, S.complement(), "even")
    out["revealed_vertices"] = _hash(revealed)

    union = sets[0]
    for S in sets[1:]:
        union = union | S
    covers = []
    for S in sets + [union, rep.separator, rep.separator.complement()]:
        for t in range(1, G.full_degree + 1):
            covers.append(greedy_cover(G, S, t).bits)
    out["greedy_cover"] = _hash(covers)

    q = 3
    p_even = Pattern.make(q, [1], [2, 3])   # class 0
    p_odd = Pattern.make(q, [1, 2], [3])    # class 1
    p_other = Pattern.make(q, [2], [1, 3])  # class 0
    X = Atlas(G, {p_even: sets[0], p_odd: sets[1].complement(),
                  p_other: sets[-1]})
    L = 4 * G.n
    approximations = [
        (X, Approximation(dict(X.x_p), G.empty_set(), G.empty_set())),
        (X, Approximation({p_odd: union}, rep.vertices, rep.separator)),
    ]
    for i, S in enumerate(sets):
        known = weak.known[i]
        for P, region, k in ((p_even, S, known), (p_odd, S, known),
                             (p_other, S.complement(), S.complement() - weak.fringe)):
            atlas = Atlas(G, {P: region})
            for a_star in (weak.fringe, rep.separator, weak.fringe & G.even,
                           weak.fringe & G.odd):
                a_2star = a_star | rep.separator
                approximations.append((atlas, Approximation({P: k}, a_star, a_2star)))
                approximations.append(
                    (atlas, Approximation({P: k - rep.vertices}, a_star, a_2star)))
    clauses = []
    for atlas, A in approximations:
        for size_constant in (1.0, 0.01):
            ok, cl = verify_approximation(G, A, atlas, L, size_constant)
            clauses.append((ok, sorted(cl.items())))
    out["verify_approximation"] = _hash(clauses)

    reports = []
    others = [G.empty_set(), sets[-1], rep.separator]
    for U in sets + [union, rep.separator, weak.fringe]:
        comp = U.complement().ids()
        imbalance, n_even_out, n_odd_out, defined = _sublattice_identity(G, U)
        for W in [U.complement()] + others:
            reports.append([
                _edges(oracles.edges_between(dims, G.periodic, U.ids(), W.ids())),
                _edges(oracles.out_edges(dims, G.periodic, U.ids())),
                _edges(oracles.edges_between(dims, G.periodic, (U & G.even).ids(), comp)),
                _edges(oracles.edges_between(dims, G.periodic, (U & G.odd).ids(), comp)),
                imbalance, defined,
                2 * G.d * imbalance == n_even_out - n_odd_out if defined else None,
            ])
    out["edge_boundaries"] = _hash(reports)

    iso = []
    for S in sets + [union]:
        if is_parity_set(G, S, "odd"):
            iso.append(repr(isoperimetry_checks(G, S)))
        iso.append((is_parity_set(G, S, "even"), is_parity_set(G, rep.separator, "odd")))
    out["isoperimetry"] = _hash(iso)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_geometry_outputs_pinned(case):
    got = _digests(*CASES[case])
    assert got == PINNED[case]
