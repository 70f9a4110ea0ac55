"""The package's value and report records: construction, equality, hash,
repr, copying and frozenness, pinned class by class."""

import copy
import pickle

import pytest

from polyadc import (
    Adc,
    CatalogEntry,
    Comp,
    EnumeratedOmegaCat,
    Gen,
    Id,
    IntVector,
    NuTable,
    QuotientLambda,
    RelationGraph,
    SmithDecomposition,
    Verdict,
)
from polyadc.adc import AdcValidation, LoopFreeReport
from polyadc.polygraph import PreorderReport
from polyadc.roundtrip import OmegaBasisReport, RoundtripReport
from polyadc.zlin import QuotientBasis

A = IntVector.unit("a")
POINT = NuTable(((A, A),))
GRAPH = RelationGraph(("a", "b"), frozenset({("a", "b")}))
REPR_GRAPH = "RelationGraph(nodes=('a', 'b'), edges=frozenset({('a', 'b')}))"
ONE_POINT = Adc([["a"]], {}, {"a": 1})
PROJECTION = {"c0_0": IntVector.unit("q0")}
SECTION = {"q0": IntVector.unit("c0_0")}


class Case:
    def __init__(self, cls, fields, values, text, frozen=True, defaults=None):
        self.cls = cls
        self.fields = fields
        self.values = values
        self.repr = text
        self.frozen = frozen
        self.defaults = defaults or {}

    def make(self):
        return self.cls(*self.values)


CASES = [
    Case(AdcValidation, ("ok", "failures"), (False, (("dd", "x", "y"),)),
         "AdcValidation(ok=False, failures=(('dd', 'x', 'y'),))"),
    Case(RelationGraph, ("nodes", "edges"), (("a", "b"), frozenset({("a", "b")})),
         REPR_GRAPH),
    Case(LoopFreeReport, ("graph", "is_partial_order", "cycle"),
         (GRAPH, False, ("a", "b")),
         "LoopFreeReport(graph=%s, is_partial_order=False, cycle=('a', 'b'))"
         % REPR_GRAPH),
    Case(CatalogEntry,
         ("name", "params", "presentation", "complex", "native", "expressions",
          "expected"),
         ("x", (1,), None, ONE_POINT, "adc", {"H": Gen("a")}, {"atomic": True}),
         "CatalogEntry(name='x', params=(1,), presentation=None, "
         "complex=Adc(0:1), native='adc', expressions={'H': Gen(name='a')}, "
         "expected={'atomic': True})",
         frozen=False, defaults={"expressions": dict, "expected": dict}),
    Case(NuTable, ("rows",), (((A, A),),),
         "NuTable(dim=0, top=IntVector(+1*a))"),
    Case(EnumeratedOmegaCat, ("complex", "max_dim", "cells", "atom_names"),
         (ONE_POINT, 0, {0: (POINT,)}, {POINT: "a"}),
         "EnumeratedOmegaCat(complex=Adc(0:1), max_dim=0, "
         "cells={0: (NuTable(dim=0, top=IntVector(+1*a)),)}, "
         "atom_names={NuTable(dim=0, top=IntVector(+1*a)): 'a'})",
         frozen=False, defaults={"atom_names": dict}),
    Case(Gen, ("name",), ("a",), "Gen(name='a')"),
    Case(Id, ("inner",), (Gen("a"),), "Id(inner=Gen(name='a'))"),
    Case(Comp, ("level", "left", "right"), (0, Gen("a"), Id(Gen("b"))),
         "Comp(level=0, left=Gen(name='a'), right=Id(inner=Gen(name='b')))"),
    Case(PreorderReport,
         ("codim1", "full", "codim1_antisymmetric", "codim1_cycle",
          "full_antisymmetric", "full_cycle"),
         (GRAPH, GRAPH, True, None, False, ("a", "b")),
         "PreorderReport(codim1=%s, full=%s, codim1_antisymmetric=True, "
         "codim1_cycle=None, full_antisymmetric=False, full_cycle=('a', 'b'))"
         % (REPR_GRAPH, REPR_GRAPH)),
    Case(Verdict,
         ("atomic", "atomic_witness", "codim1_antisymmetric", "codim1_cycle",
          "full_antisymmetric", "full_cycle", "strongly_loop_free_algebraic",
          "algebraic_cycle", "steiner_orderable", "steiner_order", "steiner_cycle"),
         (True, None, True, None, True, None, True, None, True, ("a",), None),
         "Verdict(atomic=True, atomic_witness=None, codim1_antisymmetric=True, "
         "codim1_cycle=None, full_antisymmetric=True, full_cycle=None, "
         "strongly_loop_free_algebraic=True, algebraic_cycle=None, "
         "steiner_orderable=True, steiner_order=('a',), steiner_cycle=None)"),
    Case(QuotientLambda,
         ("complex", "cells", "cell_names", "projections", "sections"),
         (ONE_POINT, {0: (POINT,)}, {0: ("c0_0",)}, {0: PROJECTION}, {0: SECTION}),
         "QuotientLambda(complex=Adc(0:1), "
         "cells={0: (NuTable(dim=0, top=IntVector(+1*a)),)}, "
         "cell_names={0: ('c0_0',)}, projections={0: {'c0_0': IntVector(+1*q0)}}, "
         "sections={0: {'q0': IntVector(+1*c0_0)}})",
         frozen=False),
    Case(OmegaBasisReport, ("ok", "failed", "detail"),
         (False, "generation", "1 of the 0-cells are not generated"),
         "OmegaBasisReport(ok=False, failed='generation', "
         "detail='1 of the 0-cells are not generated')"),
    Case(RoundtripReport, ("ok", "reason", "cell_counts", "ranks"),
         (True, None, {0: 1}, {0: 1}),
         "RoundtripReport(ok=True, reason=None, cell_counts={0: 1}, ranks={0: 1})"),
    Case(SmithDecomposition, ("U", "D", "V", "U_inv"),
         (((1,),), ((2,),), ((-1,),), ((1,),)),
         "SmithDecomposition(U=((1,),), D=((2,),), V=((-1,),), U_inv=((1,),))"),
    Case(QuotientBasis, ("basis", "projection", "section"),
         (("q0",), PROJECTION, SECTION),
         "QuotientBasis(basis=('q0',), projection={'c0_0': IntVector(+1*q0)}, "
         "section={'q0': IntVector(+1*c0_0)})"),
]
IDS = [case.cls.__name__ for case in CASES]
UNHASHABLE = {CatalogEntry, EnumeratedOmegaCat, QuotientLambda}
# records whose pinned values include dicts, with values that hash
HASHABLE_VALUES = {RoundtripReport: (True, None, (0,), (1,)),
                   QuotientBasis: (("q0",), (), ())}


def test_every_record_class_is_pinned():
    assert len({case.cls for case in CASES}) == 16


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_construction(case):
    positional = case.make()
    keyword = case.cls(**dict(zip(case.fields, case.values)))
    for obj in (positional, keyword):
        for name, value in zip(case.fields, case.values):
            assert getattr(obj, name) is value
    with pytest.raises(TypeError):
        case.cls(*case.values, None)
    with pytest.raises(TypeError):
        case.cls(**{case.fields[0]: case.values[0], "no_such_field": 1})
    required = [f for f in case.fields if f not in case.defaults]
    with pytest.raises(TypeError):
        case.cls(*case.values[:len(required) - 1])


@pytest.mark.parametrize("case", [c for c in CASES if c.defaults],
                         ids=[c.cls.__name__ for c in CASES if c.defaults])
def test_defaults_are_fresh_per_call(case):
    required = case.values[:len(case.fields) - len(case.defaults)]
    first, second = case.cls(*required), case.cls(*required)
    for name, factory in case.defaults.items():
        assert getattr(first, name) == factory()
        assert getattr(first, name) is not getattr(second, name)


def test_a_nu_table_takes_no_hash_argument():
    with pytest.raises(TypeError):
        NuTable(rows=((A, A),), _hash=0)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_by_fields_within_one_class(case):
    one, other = case.make(), case.make()
    assert one == other and not one != other
    assert one != object() and not one == object()

    twin = type("Twin", (case.cls,), {})
    assert case.make() != twin(*case.values)
    assert twin(*case.values) != case.make()


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equal_field_values_in_another_class_are_not_equal(case):
    for other in CASES:
        if other is not case and len(other.fields) == len(case.fields):
            try:
                stranger = other.cls(*case.values)
            except (TypeError, ValueError, AttributeError):
                continue
            assert case.make() != stranger
            assert stranger != case.make()


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_unequal_fields_are_unequal(case):
    one = case.make()
    for k, name in enumerate(case.fields):
        values = list(case.values)
        values[k] = ("changed", k)
        try:
            changed = case.cls(*values)
        except (TypeError, ValueError, AttributeError):
            continue
        assert one != changed


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_hash(case):
    obj = case.make()
    if case.cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    elif case.cls is NuTable:
        assert hash(obj) == hash(obj.rows) == hash(case.make())
    elif case.cls in HASHABLE_VALUES:
        with pytest.raises(TypeError):  # it holds dicts
            hash(obj)
        values = HASHABLE_VALUES[case.cls]
        assert hash(case.cls(*values)) == hash(values)
    else:
        assert hash(obj) == hash(case.values) == hash(case.make())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr(case):
    assert repr(case.make()) == case.repr


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_frozen_records_refuse_assignment(case):
    obj = case.make()
    name = case.fields[0]
    if case.frozen:
        with pytest.raises(AttributeError):
            setattr(obj, name, case.values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is case.values[0]
    else:
        setattr(obj, name, case.values[0])
        assert getattr(obj, name) is case.values[0]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_copy_and_pickle(case):
    obj = case.make()
    for again in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(again) is case.cls
        assert again == obj
        assert repr(again) == case.repr


def test_post_init_work_runs_at_construction():
    quotient = CASES[IDS.index("QuotientLambda")].make()
    assert quotient.class_of(POINT) == IntVector.unit("q0")
    with pytest.raises(ValueError):
        EnumeratedOmegaCat(ONE_POINT, 0, {0: (POINT, POINT)})
