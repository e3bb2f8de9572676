"""Boundary values at every public entry that takes an integer knob.

Each entry that takes a vertex id, q, a size, radius, depth, power,
threshold, dimension or budget is sent -1, 0, one past its range and a
huge value (10^6 for q and for a type function's d, whose cost grew with
the value; 10^9 elsewhere), and each entry that reads a coloring or a
pattern is sent one of another size or another q.  Every call runs under
a one-second alarm: it returns or raises ConfigError, PreconditionError or
ResourceLimitError, never InternalInvariantError or a bare built-in
exception, and never hangs; a value below an entry's range, a coloring of
another size and a pattern of another q are refused.  Each entry that
takes a sequence of colorings, sets or assignments is sent an empty one,
and returns or raises the one error class its table row names.
"""

from chroma import coloring, decomposition, entropy, exact, geometry, lattice, patterns, sampler
from chroma import suites
from chroma.coloring import BoundaryCondition, Coloring, striped_pattern_coloring
from chroma.errors import (ConfigError, PreconditionError, ResourceLimitError,
                           UndefinedMeasureError)
from chroma.lattice import LatticeGraph
from chroma.patterns import Pattern
from chroma.rng import make_rng

from test_lattice import _Overran, _within

REFUSALS = (ConfigError, PreconditionError, ResourceLimitError)
BIG, Q_BIG = 10**9, 10**6

G = LatticeGraph((8, 8))
P0, P4 = Pattern.make(3, [1], [2, 3]), Pattern.make(4, [1, 2], [3, 4])


def _value_entries():
    """name: (call of one value, least value in range or None when every
    value is taken, one past the range or None when unbounded, huge value)."""
    n, d = G.n, G.d
    f = striped_pattern_coloring(G, P0)
    U = G.vertex_set([G.vid((3, 3)), G.vid((3, 4))])
    S, full = G.vertex_set([G.vid((4, 4))]), G.full_set()
    parts = {P0: full - S}
    plan = coloring.plan_repair(G, S, parts)
    X = decomposition.construct_breakup(G, f, G.empty_set(), full, P0)
    coll = geometry.OddSetCollection(G, [suites.random_regular_odd_set(G, make_rng(3))])
    stats = sampler.run_experiment(sampler.ChainConfig((4, 4), 3, "A=1;B=2,3", 1, 1))
    cfg = {"dims": (4, 4), "q": 3, "pattern": "A=1;B=2,3", "seed": 1, "sweeps": 1}
    pair = LatticeGraph((2,))
    return {
        "LatticeGraph dims": (lambda x: LatticeGraph((x, 2)), 1, lattice.CELL_LIMIT + 1, BIG),
        "LatticeGraph.coords": (lambda x: G.coords(x), 0, n, BIG),
        "LatticeGraph.vid": (lambda x: G.vid((x, 0)), 0, 8, BIG),
        "LatticeGraph.vertex_set": (lambda x: G.vertex_set([x]), 0, n, BIG),
        "VertexSet contains": (lambda x: x in U, None, n, BIG),
        "expand": (lambda x: lattice.expand(G, U, x), 0, None, BIG),
        "interior": (lambda x: lattice.interior(G, x), 0, None, BIG),
        "n_t": (lambda x: lattice.n_t(G, U, x), 1, 2 * d + 1, BIG),
        "connected_components": (lambda x: lattice.connected_components(G, U, x), 1, None, BIG),
        "component_of": (lambda x: lattice.component_of(G, U, x), 0, n, BIG),
        "co_connected_closure": (lambda x: lattice.co_connected_closure(G, U, x), 0, n, BIG),
        "seen_from": (lambda x: decomposition.seen_from(G, U, U, x), 0, None, BIG),
        "construct_breakup": (
            lambda x: decomposition.construct_breakup(G, f, U, full, P0, x), 0, None, BIG),
        "verify_breakup": (lambda x: decomposition.verify_breakup(X, f, full, P0, x), 0, None,
                           BIG),
        "greedy_cover": (lambda x: geometry.greedy_cover(G, U, x), 1, 2 * d + 1, BIG),
        "separating_set s": (lambda x: geometry.separating_set(coll, s=x), 1, d + 1, BIG),
        "separating_set t": (lambda x: geometry.separating_set(coll, t=x), 1, d + 1, BIG),
        "Coloring q": (lambda x: Coloring(f.values, x), 2, coloring.MAX_COLORS + 1, BIG),
        "filling_count": (lambda x: coloring.filling_count(G, plan, x), 2,
                          patterns.MAX_COLORS + 1, Q_BIG),
        "plan_repair shift_axis": (lambda x: coloring.plan_repair(G, S, parts, x), 0, d, BIG),
        "plan_repair shift_dir": (lambda x: coloring.plan_repair(G, S, parts, 0, x), None, 2,
                                  BIG),
        "allowed_masks": (lambda x: exact.allowed_masks(G, U, x, exact.Constraint()), 0, 63,
                          Q_BIG),
        "count_colorings q": (lambda x: exact.count_colorings(pair, pair.full_set(), x), 0, 63,
                              Q_BIG),
        "count_colorings budget": (lambda x: exact.count_colorings(G, U, 3, state_budget=x),
                                   None, None, BIG),
        "transfer_count q": (lambda x: exact.transfer_count(pair, x), 0, 63, Q_BIG),
        "transfer_count budget": (
            lambda x: exact.transfer_count(LatticeGraph((3, 3)), 3, state_budget=x), None, None,
            BIG),
        "exact_marginal q": (lambda x: exact.exact_marginal(G, U, x, U.min_id()), 0, 63, Q_BIG),
        "exact_marginal v": (lambda x: exact.exact_marginal(G, U, 3, x), 0, n, BIG),
        "Constraint.with_pin v": (
            lambda x: exact.count_colorings(G, U, 3, exact.Constraint().with_pin(x, 1)), 0, n,
            BIG),
        "Constraint.with_pin c": (lambda x: exact.count_colorings(
            G, U, 3, exact.Constraint().with_pin(U.min_id(), x)), 1, 4, BIG),
        "htop_estimate q": (lambda x: exact.htop_estimate(x, [(2, 2)]), 2, 63, Q_BIG),
        "htop_estimate box": (lambda x: exact.htop_estimate(3, [(x, 2)]), 1,
                              lattice.CELL_LIMIT, BIG),
        "neighborhood_type v": (lambda x: entropy.neighborhood_type(f, x, G), 0, n, BIG),
        "enumerate_type_functions d": (
            lambda x: entropy.enumerate_type_functions([1, 2, 3], 0, x, 3), 1, None, Q_BIG),
        "enumerate_type_functions q": (
            lambda x: entropy.enumerate_type_functions([1, 2], 0, 2, x), None, 63, Q_BIG),
        "enumerate_type_functions budget": (
            lambda x: entropy.enumerate_type_functions([1, 2], 0, 2, 3, x), None, None, BIG),
        "z_bound_check d": (lambda x: entropy.z_bound_check([(1, 2, 1, 2)], [3], x, 3), None,
                            None, BIG),
        "z_bound_check q": (lambda x: entropy.z_bound_check([(1, 2, 1, 2)], [3], 2, x), 2, 63,
                            Q_BIG),
        "entropy_loss_eval q": (lambda x: entropy.entropy_loss_eval(G, S, {(1,) * 5: 1.0}, x),
                                2, 63, Q_BIG),
        "shearer_check k": (lambda x: entropy.shearer_check({(0, 0): 1.0}, [[0], [1]], x), 1,
                            None, BIG),
        "Pattern q": (lambda x: Pattern(x, 1, 2), 2, 63, BIG),
        "Pattern.make q": (lambda x: Pattern.make(x, [1], [2]), 2, 63, BIG),
        "Pattern.parse q": (lambda x: Pattern.parse(x, "A=1;B=2"), 2, 63, BIG),
        "enumerate_dominant": (lambda x: patterns.enumerate_dominant(x), 2, 63, BIG),
        "color_mask q": (lambda x: patterns.color_mask([1], x), None, 63, BIG),
        "is_p_even": (lambda x: patterns.is_p_even(x, P0, G), 0, n, BIG),
        "p_parity": (lambda x: patterns.p_parity(x, P0, G), 0, n, BIG),
        "ChainConfig q": (lambda x: sampler.ChainConfig(**{**cfg, "q": x}), 2, 17, BIG),
        "ChainConfig sweeps": (lambda x: sampler.ChainConfig(**{**cfg, "sweeps": x}), 0, None,
                               BIG),
        "ChainConfig margin": (lambda x: sampler.ChainConfig(**{**cfg, "margin": x}), None, None,
                               BIG),
        "ChainConfig thin": (lambda x: sampler.ChainConfig(**{**cfg, "thin": x}), 1, None, BIG),
        "ChainConfig chains": (lambda x: sampler.ChainConfig(**{**cfg, "chains": x}), 1, None,
                               BIG),
        "single_site_transition_matrix q": (
            lambda x: sampler.single_site_transition_matrix(G, S, x), None, 63, Q_BIG),
        "single_site_transition_matrix budget": (
            lambda x: sampler.single_site_transition_matrix(G, U, 3, x), None, None, BIG),
        "swappable_components": (lambda x: sampler.swappable_components(f, G, full, P0, x, 2), 1,
                                 4, BIG),
        "OrderStats.vertex_marginal": (lambda x: stats.vertex_marginal(x), None, 16, BIG),
        "random_connected_set": (lambda x: suites.random_connected_set(G, make_rng(0), x), 1,
                                 n + 1, BIG),
        "random_regular_odd_set": (lambda x: suites.random_regular_odd_set(G, make_rng(0), x), 0,
                                   None, BIG),
    }


def _coloring_entries():
    """name: call of one coloring, every other argument valid for G."""
    f = striped_pattern_coloring(G, P0)
    U = G.vertex_set([G.vid((3, 3)), G.vid((3, 4))])
    S, full, dom = G.vertex_set([G.vid((4, 4))]), G.full_set(), lattice.interior(G, 1)
    parts, bc = {P0: full - S}, BoundaryCondition(dom, P0)
    X = decomposition.construct_breakup(G, f, G.empty_set(), full, P0)
    return {
        "is_proper": lambda g: coloring.is_proper(g, G),
        "check_boundary": lambda g: coloring.check_boundary(g, bc, G),
        "extend_outside": lambda g: coloring.extend_outside(g, bc, G, 1),
        "repair_inverse": lambda g: coloring.repair_inverse(g, S, parts, G, P0),
        "coloring_to_text": lambda g: coloring.coloring_to_text(g, G),
        "decompose": lambda g: decomposition.decompose(G, g),
        "construct_breakup": lambda g: decomposition.construct_breakup(G, g, U, full, P0),
        "verify_breakup": lambda g: decomposition.verify_breakup(X, g, full, P0),
        "bp_components": lambda g: decomposition.bp_components(G, g, U, P0),
        "neighborhood_type": lambda g: entropy.neighborhood_type(g, G.vid((3, 3)), G),
        "classify f": lambda g: entropy.classify(g, [g], S, G),
        "classify omega": lambda g: entropy.classify(f, [f, g], S, G),
        "k_omega": lambda g: entropy.k_omega([g], S, G),
        "u_p_sets": lambda g: entropy.u_p_sets(g, G, S),
        "in_pattern": lambda g: patterns.in_pattern(g, U, P0, G),
        "heat_bath_sweep": lambda g: sampler.heat_bath_sweep(g, G, full, P0, make_rng(0)),
        "swappable_components": lambda g: sampler.swappable_components(g, G, full, P0, 1, 2),
        "cluster_step": lambda g: sampler.cluster_step(g, G, full, P0, make_rng(0)),
    }


def _pattern_entries():
    """name: call of one pattern read against a q = 3 coloring or pattern."""
    f = striped_pattern_coloring(G, P0)
    U = G.vertex_set([G.vid((3, 3)), G.vid((3, 4))])
    S, full, dom = G.vertex_set([G.vid((4, 4))]), G.full_set(), lattice.interior(G, 1)
    parts = {P0: full - S}
    X = decomposition.construct_breakup(G, f, G.empty_set(), full, P0)
    return {
        "check_boundary": lambda P: coloring.check_boundary(f, BoundaryCondition(dom, P), G),
        "extend_outside": lambda P: coloring.extend_outside(f, BoundaryCondition(dom, P), G, 1),
        "repair_transform p0": lambda P: coloring.repair_transform(f, S, parts, {}, G, P),
        "repair_transform parts": lambda P: coloring.repair_transform(f, S, {P: full - S}, {},
                                                                      G, P0),
        "repair_inverse": lambda P: coloring.repair_inverse(f, S, parts, G, P),
        "construct_breakup p0": lambda P: decomposition.construct_breakup(G, f, U, full, P),
        "construct_breakup patterns": lambda P: decomposition.construct_breakup(
            G, f, U, full, P0, 5, [P0, P]),
        "verify_breakup p0": lambda P: decomposition.verify_breakup(X, f, full, P),
        "verify_breakup atlas": lambda P: decomposition.verify_breakup(
            decomposition.Atlas(G, {P: full}), f, full, P0),
        "bp_components": lambda P: decomposition.bp_components(G, f, U, P),
        "in_pattern": lambda P: patterns.in_pattern(f, U, P, G),
        "canonical_permutation": lambda P: patterns.canonical_permutation(P0, P),
        "heat_bath_sweep": lambda P: sampler.heat_bath_sweep(f, G, full, P, make_rng(0)),
        "swappable_components": lambda P: sampler.swappable_components(f, G, full, P, 1, 2),
        "cluster_step": lambda P: sampler.cluster_step(f, G, full, P, make_rng(0)),
        "toy_ratio": lambda P: exact.toy_ratio(G, full, S, P0, P),
        "count_colorings": lambda P: exact.count_colorings(G, U, 3, exact.Constraint(P)),
    }


def _empty_entries():
    """name: (call with one empty sequence, the error it raises or None when it
    returns)."""
    f = striped_pattern_coloring(G, P0)
    S = G.vertex_set([G.vid((4, 4))])
    return {
        "k_omega": (lambda: entropy.k_omega([], S, G), UndefinedMeasureError),
        "classify omega": (lambda: entropy.classify(f, [], S, G), PreconditionError),
        "shearer_check joint": (lambda: entropy.shearer_check({}, [[0]], 1), PreconditionError),
        "shearer_check cover": (lambda: entropy.shearer_check({(0,): 1.0}, [], 1),
                                PreconditionError),
        "z_bound_check psi_set": (lambda: entropy.z_bound_check([], [3], 2, 3),
                                  PreconditionError),
        "z_bound_check I": (lambda: entropy.z_bound_check([(1, 2, 1, 2)], [], 2, 3), None),
        "entropy_loss_eval": (lambda: entropy.entropy_loss_eval(G, S, {}, 3), PreconditionError),
        "boundary_edge_count": (lambda: lattice.boundary_edge_count(G, []), None),
        "OddSetCollection": (lambda: geometry.OddSetCollection(G, []), None),
        "Atlas": (lambda: decomposition.classify_atlas(decomposition.Atlas(G, {})), None),
        "RegionDecomposition": (lambda: decomposition.RegionDecomposition(G, {}).to_json(),
                                None),
    }


def _outcome(call):
    """'returned', 'refused', or what went wrong."""
    try:
        _within(1.0, call)
    except REFUSALS:
        return "refused"
    except _Overran:
        return "still running after 1 s"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "returned"


def test_every_integer_knob_takes_its_boundary_values():
    failures = []
    for name, (call, least, past, big) in _value_entries().items():
        for x in dict.fromkeys(v for v in (-1, 0, past, big) if v is not None):
            got = _outcome(lambda: call(x))
            below = least is not None and x < least
            if got not in (("refused",) if below else ("returned", "refused")):
                failures.append(f"{name}({x}): {got}")
    assert failures == []


def test_a_coloring_of_another_size_is_refused():
    failures = []
    for dims in ((8, 7), (8, 9)):
        g = striped_pattern_coloring(LatticeGraph(dims), P0)
        for name, call in _coloring_entries().items():
            got = _outcome(lambda: call(g))
            if got != "refused":
                failures.append(f"{name} {dims}: {got}")
    assert failures == []


def test_a_pattern_of_another_q_is_refused():
    failures = [f"{name}: {got}" for name, call in _pattern_entries().items()
                if (got := _outcome(lambda: call(P4))) != "refused"]
    assert failures == []


def test_every_sequence_entry_takes_an_empty_sequence():
    failures = []
    for name, (call, error) in _empty_entries().items():
        try:
            _within(1.0, call)
            got = None
        except Exception as exc:
            got = type(exc)
        if got is not error:
            failures.append(f"{name}: {got.__name__ if got else 'returned'}")
    assert failures == []
