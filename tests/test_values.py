"""Value semantics of the frozen value classes (``exactlin._Value``).

The field-only classes take the base constructor, and the families bind
their fields through it in ``GroupFamily.__init__``, while ``IntMatrix``,
``RNumber`` and ``SpectrumResult`` write their own ``__init__``;
``IntMatrix`` writes its own ``__eq__`` and ``__hash__``, and the families
take ``GroupFamily``'s.  So each class is checked here: equality needs the
same class (the memos key on families, and ``Heisenberg(1)`` must not find
``FreeAbelian(1)``), the hash is that of the field tuple (set and dict
orders stay those of the field tuples), fields cannot be assigned or
deleted, and the repr is the dataclass repr.  The base constructor's
refusals, on the field-only classes and the families, and the classes that
may store through ``object.__setattr__`` are checked at the end.
"""

import ast
import copy
from pathlib import Path
import pickle

import pytest

from reidemeister import groups
from reidemeister.exactlin import IntMatrix, _Value
from reidemeister.groups import (
    ClassLabeling,
    FreeAbelian,
    Heisenberg,
    HeisenbergTimesZ,
    HnSemidirectZ,
    VerificationResult,
    Z2MinusIExt,
    ZnSemidirectZ,
)
from reidemeister.spectra import (
    SpectrumDescriptor,
    SpectrumResult,
    System2Decision,
    System2Witness,
    Z3EightDecision,
)
from reidemeister.twisted import RNumber

M = IntMatrix(2, 2, (2, 1, 1, 1))
M_REPR = "IntMatrix(rows=2, cols=2, entries=(2, 1, 1, 1))"
FOUR = SpectrumDescriptor.finite([4])
FOUR_REPR = "SpectrumDescriptor(kind='finite', values=(4,), c=None, candidates=None, bound=None)"
WITNESS = System2Witness(0, -1, 1)

# (a value, a second one built the same way, its repr)
CASES = [
    (IntMatrix(2, 2, (1, 2, 3, 4)), IntMatrix.from_rows([[1, 2], [3, 4]]),
     "IntMatrix(rows=2, cols=2, entries=(1, 2, 3, 4))"),
    (RNumber(12), RNumber(12), "R(12)"),
    (RNumber(None), RNumber(None), "R(oo)"),
    (FOUR, SpectrumDescriptor("finite", (4,)), FOUR_REPR),
    (SpectrumDescriptor.undecided([FOUR, SpectrumDescriptor.r_infinity()], 10),
     SpectrumDescriptor("undecided", candidates=(FOUR, SpectrumDescriptor("r_infinity")), bound=10),
     "SpectrumDescriptor(kind='undecided', values=None, c=None, candidates=(%s, SpectrumDescriptor("
     "kind='r_infinity', values=None, c=None, candidates=None, bound=None)), bound=10)" % FOUR_REPR),
    (SpectrumResult(FOUR, ("system2:witness",), {"m": 0}), SpectrumResult(FOUR, ("system2:witness",), {"m": 0}),
     "SpectrumResult(spectrum=%s, trace=('system2:witness',), evidence={'m': 0})" % FOUR_REPR),
    (WITNESS, System2Witness(m=0, n=-1, p=1), "System2Witness(m=0, n=-1, p=1)"),
    (System2Decision("witness", WITNESS), System2Decision("witness", System2Witness(0, -1, 1)),
     "System2Decision(outcome='witness', witness=System2Witness(m=0, n=-1, p=1))"),
    (Z3EightDecision("r-infinity", None, None, 4), Z3EightDecision("r-infinity", None, None, obstruction_modulus=4),
     "Z3EightDecision(outcome='r-infinity', witness=None, n_row=None, obstruction_modulus=4)"),
    (FreeAbelian(1), FreeAbelian(n=1), "FreeAbelian(n=1)"),
    (Heisenberg(1), Heisenberg(1), "Heisenberg(n=1)"),
    (HeisenbergTimesZ(1), HeisenbergTimesZ(1), "HeisenbergTimesZ(n=1)"),
    (ZnSemidirectZ(M), ZnSemidirectZ(IntMatrix.from_rows([[2, 1], [1, 1]])), "ZnSemidirectZ(action=%s)" % M_REPR),
    (Z2MinusIExt(M, [1, 0]), Z2MinusIExt(M, (1, 0)), "Z2MinusIExt(action=%s, n0=(1, 0))" % M_REPR),
    (HnSemidirectZ(2, 1, 0), HnSemidirectZ(2, k=1, l=0), "HnSemidirectZ(n=2, k=1, l=0)"),
    (VerificationResult(True), VerificationResult(True, None), "VerificationResult(ok=True, failure=None)"),
    (ClassLabeling(1, {(0,): 0}, False), ClassLabeling(1, {(0,): 0}, False),
     "ClassLabeling(ball_radius=1, labels={(0,): 0}, complete=False)"),
]


def _hash(value):
    """hash(value), or the error a value with an unhashable field gives."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("value, twin, text", CASES, ids=[type(value).__name__ for value, _, _ in CASES])
def test_a_value_compares_hashes_and_prints_by_its_class_and_fields(value, twin, text):
    fields = tuple(getattr(value, f) for f in type(value)._fields)
    assert value == twin and not value != twin and value is not twin
    assert _hash(value) == _hash(twin) == _hash(fields)
    assert value != fields and value != object()
    assert all(value != other for other, _, _ in CASES if type(other) is not type(value))
    assert repr(value) == text
    for name in type(value)._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, f) for f in type(value)._fields) == fields
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
    if isinstance(value, groups.GroupFamily):
        assert type(value).from_json(value.to_json_dict()) == value


def test_every_value_class_has_a_case():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    covered = {type(value) for value, _, _ in CASES}
    assert covered == set(subclasses(_Value)) - {groups.GroupFamily}
    assert set(groups.FAMILIES.values()) <= covered and len(covered) == 15
    assert set(groups.FAMILIES.values()) <= {cls for cls, _ in BASE_BUILT}


# one class per module that takes the base constructor, and each family,
# which binds through it, with valid values of the fields
BASE_BUILT = [
    (System2Decision, (0, 1)),
    (ClassLabeling, (0, 1, 2)),
    (FreeAbelian, (1,)),
    (Heisenberg, (2,)),
    (HeisenbergTimesZ, (1,)),
    (ZnSemidirectZ, (M,)),
    (Z2MinusIExt, (M, (1, 0))),
    (HnSemidirectZ, (2, 1, 0)),
]


@pytest.mark.parametrize("cls, values", BASE_BUILT, ids=[cls.__name__ for cls, _ in BASE_BUILT])
def test_the_base_constructor_refuses_a_call_that_does_not_bind_each_field_once(cls, values):
    name, fields = cls.__name__, cls._fields
    with pytest.raises(TypeError) as too_many:
        cls(*values, 0)
    with pytest.raises(TypeError) as unknown:
        cls(*values, not_a_field=0)
    with pytest.raises(TypeError) as missing:
        cls()
    with pytest.raises(TypeError) as repeated:
        cls(*values, **{fields[0]: 0})
    assert str(too_many.value) == "%s takes %d fields, got %d values" % (name, len(fields), len(fields) + 1)
    assert str(unknown.value) == "%s got an unknown field 'not_a_field'" % name
    assert str(missing.value) == "%s is missing field %r" % (name, fields[0])
    assert str(repeated.value) == "%s got a repeated field %r" % (name, fields[0])
    assert cls(*values) == cls(**dict(zip(fields, values)))


def test_only_the_classes_that_write_their_own_init_store_through_object_setattr():
    # a field-only class declares ``_fields`` and takes the base constructor
    allowed = {"IntMatrix", "RNumber", "SpectrumResult"}
    found = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "reidemeister").glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node's innermost class; a module-level use is under None
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__" and getattr(node.value, "id", None) == "object":
                found.add(owner.get(id(node)))
    assert found and found <= allowed, found - allowed
    for cls in (SpectrumDescriptor, System2Decision, Z3EightDecision, VerificationResult, ClassLabeling):
        assert "__init__" not in vars(cls), cls
    # a family declares its fields and its ``_series``; GroupFamily builds and encodes it
    for cls in groups.FAMILIES.values():
        assert not {"__init__", "to_json_dict", "from_json"} & set(vars(cls)), cls
