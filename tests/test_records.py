"""The value records: every one keeps the repr, equality, hashing and
refusal of assignment that callers, tests and pinned digests read."""

import ast
import copy
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chroma.coloring import BoundaryCondition, Coloring, RepairPlan
from chroma.decomposition import Atlas, BPResult, BreakupClass, BreakupReport, RegionDecomposition
from chroma.entropy import (
    ClassificationReport,
    EntropyLossReport,
    FiniteDistribution,
    NeighborhoodType,
    ShearerResult,
    VertexTerms,
    ZBoundCase,
    ZBoundReport,
)
from chroma.errors import ConfigError
from chroma.exact import Constraint, CountResult, ExactMarginal, HtopPoint, ToyRatio
from chroma.geometry import (
    Approximation,
    IsoperimetryReport,
    SeparatingSetReport,
    WeakApproximation,
)
from chroma.lattice import LatticeGraph, VertexSet
from chroma.patterns import Pattern, PatternSides
from chroma.record import Record
from chroma.sampler import ChainConfig, OrderStats, _Layout
from chroma.suites import SuiteResult

G = LatticeGraph((2, 4))
P = Pattern(3, 0b001, 0b110)
U, W = VertexSet(5, 8), VertexSet(7, 8)
CASE = ZBoundCase("semi-restricted", True, 2.5, True)
TERMS = VertexTerms(0, 0.5, 0.25, False, None)
MOVES = ((np.array([0, 2]), np.array([0, 2]), 5),)

# (class, fields, index of a field to change, its other value, repr, whether
# it hashes): hashing reads the fields that equality compares
RECORDS = [
    (VertexSet, (5, 8), 0, 4, "VertexSet(bits=5, n=8)", True),
    (Pattern, (3, 1, 6), 2, 2, "Pattern(q=3, A=1;B=2,3)", True),
    (PatternSides, ((1,), (2, 3), 0), 2, 1, "PatternSides(bdry=(1,), interior=(2, 3), klass=0)",
     True),
    (BoundaryCondition, (U, P), 0, W,
     "BoundaryCondition(domain=VertexSet(bits=5, n=8), pattern=Pattern(q=3, A=1;B=2,3))", True),
    (RepairPlan, (U, ((P, W),), ((P, U),), W, 0, 1, MOVES, frozenset({1})), 4, 1,
     "RepairPlan(s=VertexSet(bits=5, n=8), parts=((Pattern(q=3, A=1;B=2,3), "
     "VertexSet(bits=7, n=8)),), regions=((Pattern(q=3, A=1;B=2,3), VertexSet(bits=5, n=8)),), "
     "s_star=VertexSet(bits=7, n=8), shift_axis=0, shift_dir=1)", True),
    (RegionDecomposition, (G, {P: U}), 1, {P: W},
     "RegionDecomposition(graph=LatticeGraph(dims=2,4;periodic=0,0), "
     "z_p={Pattern(q=3, A=1;B=2,3): VertexSet(bits=5, n=8)})", False),
    (Atlas, (G, {P: U}), 1, {P: W},
     "Atlas(graph=LatticeGraph(dims=2,4;periodic=0,0), "
     "x_p={Pattern(q=3, A=1;B=2,3): VertexSet(bits=5, n=8)})", False),
    (BreakupClass, (3, 1, 0, True), 0, 4, "BreakupClass(L=3, M=1, N=0, min_boundary_ok=True)",
     True),
    (BreakupReport, (False, ("edge",)), 1, (), "BreakupReport(ok=False, violations=('edge',))",
     True),
    (BPResult, (U, W, 4), 2, 5,
     "BPResult(bar_z_p=VertexSet(bits=5, n=8), b_p=VertexSet(bits=7, n=8), diam_star=4)", True),
    (CountResult, (246, "backtracking"), 1, "transfer",
     "CountResult(count=246, method='backtracking')", True),
    (Constraint, (P, ((4, 1),)), 1, (),
     "Constraint(pattern=Pattern(q=3, A=1;B=2,3), pins=((4, 1),))", True),
    (ExactMarginal, (4, (Fraction(1, 3), Fraction(2, 3))), 0, 5,
     "ExactMarginal(vertex=4, probs=(Fraction(1, 3), Fraction(2, 3)))", True),
    (ToyRatio, (Fraction(1, 2), Fraction(1, 3), Fraction(2), "below", False, 1, 2), 3, "equal",
     "ToyRatio(ratio=Fraction(1, 2), bound_base=Fraction(1, 3), bound_exponent=Fraction(2, 1), "
     "verdict='below', expected_equality=False, n_u=1, n_empty=2)", True),
    (HtopPoint, ((2, 2), 18, 0.75, 0.25), 1, 19,
     "HtopPoint(dims=(2, 2), count=18, log_per_site=0.75, lower_bound=0.25)", True),
    (SeparatingSetReport, (U, W, 2, 1.5, True, 1, 1), 2, 3,
     "SeparatingSetReport(vertices=VertexSet(bits=5, n=8), separator=VertexSet(bits=7, n=8), "
     "size=2, size_bound=1.5, separates=True, s_threshold=1, t_threshold=1)", True),
    (WeakApproximation, ([U], W, True), 2, False,
     "WeakApproximation(known=[VertexSet(bits=5, n=8)], fringe=VertexSet(bits=7, n=8), "
     "fringe_bound_ok=True)", False),
    (Approximation, ({P: U}, U, W), 0, {},
     "Approximation(a_p={Pattern(q=3, A=1;B=2,3): VertexSet(bits=5, n=8)}, "
     "a_star=VertexSet(bits=5, n=8), a_2star=VertexSet(bits=7, n=8))", False),
    (IsoperimetryReport, (True, 3, 4, False, ({"diam": 1},)), 1, 2,
     "IsoperimetryReport(applicable_small=True, small_lhs=3, small_rhs=4, small_holds=False, "
     "per_component=({'diam': 1},))", False),
    (ChainConfig, ((4, 4), 3, "A=1;B=2,3", 7, 10, None, 0, 0, 1, "heat-bath", 8, 1), 3, 8,
     "ChainConfig(dims=(4, 4), q=3, pattern='A=1;B=2,3', seed=7, sweeps=10, periodic=None, "
     "margin=0, burn_in=0, thin=1, algorithm='heat-bath', cluster_every=8, chains=1)", True),
    (OrderStats, ((0, 1), 10, (1, 2), ((5, 5, 0), (3, 3, 4)), {"even": (0.5,)}, 0.125), 1, 11,
     "OrderStats(vertex_ids=(0, 1), samples=10, violation_counts=(1, 2), "
     "occupation_counts=((5, 5, 0), (3, 3, 4)), parity_occupation={'even': (0.5,)}, "
     "split_half_max_diff=0.125)", False),
    (_Layout, (np.arange(2), np.arange(2), 1, (), np.zeros(1, dtype=np.uint16), 3,
               np.zeros(1, dtype=np.uint16), np.arange(1), (np.arange(0),) * 3), 2, 2,
     "_Layout(cells=array([0, 1]), slot=array([0, 1]), n_scan=1, spans=(), "
     "forbidden=array([0], dtype=uint16), movable=3)", False),
    (SuiteResult, ("boundary-connected", 3, ()), 2, ("seed 1",),
     "SuiteResult(name='boundary-connected', trials=3, failures=())", True),
    (FiniteDistribution, ({0: Fraction(1, 2), 1: Fraction(1, 2)},), 0, {0: 1},
     "FiniteDistribution(probs={0: Fraction(1, 2), 1: Fraction(1, 2)})", False),
    (ShearerResult, (1.0, 2.0, True), 1, 3.0, "ShearerResult(lhs=1.0, rhs=2.0, holds=True)", True),
    (NeighborhoodType, (frozenset({1, 2}), False), 1, True,
     "NeighborhoodType(colorset=frozenset({1, 2}), unbal=False)", True),
    (ClassificationReport, (U, W, ((0, 1),), U, Fraction(1, 2)), 4, Fraction(1),
     "ClassificationReport(unbal=VertexSet(bits=5, n=8), nondom=VertexSet(bits=7, n=8), "
     "restricted=((0, 1),), uniq=VertexSet(bits=5, n=8), k_value=Fraction(1, 2))", True),
    (ZBoundCase, ("semi-restricted", True, 2.5, True), 3, None,
     "ZBoundCase(name='semi-restricted', applicable=True, rhs=2.5, holds=True)", True),
    (ZBoundReport, (3, 1, (CASE,), True), 0, 4,
     "ZBoundReport(lhs=3, k_semi_restricted=1, cases=(ZBoundCase(name='semi-restricted', "
     "applicable=True, rhs=2.5, holds=True),), holds=True)", True),
    (VertexTerms, (0, 0.5, 0.25, False, None), 4, True,
     "VertexTerms(vertex=0, term_neighborhood_image=0.5, term_local=0.25, cap_applicable=False, "
     "caps_hold=None)", True),
    (EntropyLossReport, ((TERMS,), 1.0, 0.5, True), 3, False,
     "EntropyLossReport(terms=(VertexTerms(vertex=0, term_neighborhood_image=0.5, "
     "term_local=0.25, cap_applicable=False, caps_hold=None),), total_bound=1.0, "
     "ent_masked=0.5, holds=True)", True),
]


@pytest.mark.parametrize("cls, fields, i, other, text, hashes", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_repr_equality_hash_and_frozen_fields(cls, fields, i, other, text, hashes):
    x = cls(*fields)
    assert repr(x) == text
    assert x == cls(*fields) and not x != cls(*fields)
    changed = list(fields)
    changed[i] = other
    assert x != cls(*changed)
    assert x != fields and x != object()
    assert copy.copy(x) == x
    compared = fields[:6] if cls is RepairPlan else fields
    if hashes:
        assert hash(x) == hash(cls(*fields)) == hash(tuple(compared))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    name = text[text.index("(") + 1:].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(x, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert repr(x) == text


BASE_BUILT = [row[:2] for row in RECORDS if row[0].__init__ is Record.__init__]


@pytest.mark.parametrize("cls, fields", BASE_BUILT, ids=[cls.__name__ for cls, _ in BASE_BUILT])
def test_the_one_constructor_takes_fields_by_position_or_by_name(cls, fields):
    names = [name for name in cls.__slots__ if name != "__dict__"]
    named = dict(zip(names, fields))
    assert cls(**named) == cls(*fields) == cls(*fields[:1], **dict(list(named.items())[1:]))
    for values, extra in (
        (fields[:-1], {}),                      # one field short
        ((), dict(list(named.items())[:-1])),   # one field short, by name
        (fields + (fields[0],), {}),            # one field extra
        (fields, {"no_such_field": 1}),         # an unknown name
        (fields, {names[0]: fields[0]}),        # a field by position and by name
    ):
        with pytest.raises(TypeError, match=re.escape(f"({', '.join(names)})")):
            cls(*values, **extra)


def test_repair_plan_compares_without_its_moves_and_filling():
    fields = RECORDS[4][1]
    other = RepairPlan(*fields[:6], (), frozenset())
    assert other == RepairPlan(*fields) and hash(other) == hash(RepairPlan(*fields))
    assert other.moves == () and RepairPlan(*fields).filling == frozenset({1})


def test_coloring_is_a_mutable_unhashable_record():
    f = Coloring([1, 2, 0, 3], 3)
    assert repr(f) == "Coloring(values=array([1, 2, 0, 3], dtype=int16), q=3)"
    assert f == Coloring(np.array([1, 2, 0, 3]), 3) and f != Coloring([1, 2, 0, 3], 4)
    assert f != Coloring([1, 2, 0, 2], 3) and f != (f.values, 3)
    with pytest.raises(TypeError, match="unhashable"):
        hash(f)
    f.values = np.zeros(4, dtype=np.int16)
    f.q = 4
    assert f == Coloring([0, 0, 0, 0], 4) and copy.copy(f) == f


def test_chain_config_defaults_and_refusals():
    cfg = ChainConfig(**{"dims": (4, 4), "q": 3, "pattern": "A=1;B=2,3", "seed": 7, "sweeps": 10})
    assert (cfg.periodic, cfg.margin, cfg.burn_in, cfg.thin, cfg.algorithm, cfg.cluster_every,
            cfg.chains) == (None, 0, 0, 1, "heat-bath", 8, 1)
    assert cfg == ChainConfig((4, 4), 3, "A=1;B=2,3", 7, 10, None, 0, 0, 1, "heat-bath", 8, 1)
    base = {"dims": (4, 4), "q": 3, "pattern": "A=1;B=2,3", "seed": 7, "sweeps": 10}
    for extra, message in (
        ({"q": 17}, "at most 16 colors"),
        ({"burn_in": 11}, "need sweeps >= burn_in >= 0"),
        ({"burn_in": -1}, "need sweeps >= burn_in >= 0"),
        ({"thin": 0}, "thin must be >= 1"),
        ({"algorithm": "metropolis"}, "unknown algorithm 'metropolis'"),
        ({"chains": 0}, "chains must be >= 1"),
        ({"algorithm": "heat-bath+cluster", "cluster_every": 0}, "cluster_every must be >= 1"),
    ):
        with pytest.raises(ConfigError, match=message):
            ChainConfig(**{**base, **extra})
    # a cluster interval is read only by the cluster algorithm
    assert ChainConfig(**{**base, "cluster_every": 0}).cluster_every == 0
    with pytest.raises(TypeError):
        ChainConfig((4, 4), 3, "A=1;B=2,3", 7)
    with pytest.raises(TypeError):
        ChainConfig(**{**base, "colors": 3})


def test_constraint_with_pin_builds_a_new_constraint():
    free = Constraint()
    assert free == Constraint.free() == Constraint(None, ()) and free.pins == ()
    pinned = free.with_pin(4, 1).with_pin(0, 2).with_pin(4, 3)
    assert pinned == Constraint(pins=((0, 2), (4, 3))) and free.pins == ()
    bounded = Constraint.pattern_boundary(P).with_pin(4, 1)
    assert bounded == Constraint(P, ((4, 1),)) and bounded.pattern is P
    with pytest.raises(ConfigError, match="boundary constraint needs a dominant pattern"):
        Constraint(Pattern(3, 1, 2))


def test_no_module_imports_dataclasses():
    # the records are written out, so importing the package generates no code
    src = Path(__file__).resolve().parent.parent / "src" / "chroma"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _pass_through_inits(source: str) -> list[str]:
    """The classes whose ``__init__`` body, a docstring aside, only passes
    its own parameters, in order, to a constructor."""
    found = []
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    for cls in classes:
        for fn in (fn for fn in cls.body if getattr(fn, "name", None) == "__init__"):
            body = [stmt for stmt in fn.body
                    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Expr) else None
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("__init__", "_init")):
                continue
            passed = [ast.unparse(arg) for arg in call.args]
            passed += [kw.arg for kw in call.keywords if kw.arg == ast.unparse(kw.value)]
            params = [arg.arg for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
            if len(passed) == len(call.args) + len(call.keywords) and passed in (params,
                                                                                 params[1:]):
                found.append(cls.name)
    return found


def test_no_record_writes_out_the_one_constructor():
    # a record whose __init__ only hands its parameters on declares its
    # __slots__ and is built by Record.__init__ instead
    assert _pass_through_inits(
        "class A(Record):\n"
        "    def __init__(self, x, y):\n        super().__init__(x, y)\n"
        "class B(Record):\n"
        "    def __init__(self, x, y):\n        'doc'\n        Record.__init__(self, x, y)\n"
        "class C(Record):\n"
        "    def __init__(self, x, y):\n        super().__init__(x=x, y=y)\n"
        "class D(Record):\n"
        "    def __init__(self, x, y):\n        super().__init__(y, x)\n"
        "class E(Record):\n"
        "    def __init__(self, x):\n        check(x)\n        super().__init__(x)\n"
    ) == ["A", "B", "C"]
    src = Path(__file__).resolve().parent.parent / "src" / "chroma"
    offenders = [f"{path.name}:{name}" for path in sorted(src.glob("*.py"))
                 for name in _pass_through_inits(path.read_text())]
    assert offenders == []
