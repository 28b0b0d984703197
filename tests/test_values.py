"""Value semantics of the package's immutable classes: equality and hashing
on the compared fields and only within one class, immutability, and ``repr``
text pinned to the classes' earlier form."""

import copy
import pickle
from fractions import Fraction

import pytest

from superbol.catalog import builtin_example
from superbol.constructions import BilinearForm
from superbol import engine
from superbol.core import EvenMap, SuperSpace, power
from superbol.dsl import Call, Identity, SignPoly, Term, Twist, Var, parse_identity, without_twist
from superbol.engine import StructureBinding, check
from superbol.operators import Combination
from superbol.reports import CheckReport, SuiteReport
from superbol.storage import AlgebraDocument
from superbol.structures import (
    BinaryStructure,
    Convention,
    HomBinaryTernary,
    HomSuperalgebra,
    HomTripleSystem,
    TernaryStructure,
)
from superbol.suites import SuiteSpec, run_suite, scaled

SPACE = SuperSpace((("e", 0), ("f", 1)))
OTHER = SuperSpace((("a", 0), ("b", 1)))
E, F = SPACE.basis_vector("e"), SPACE.basis_vector("f")
TWIST = EvenMap(SPACE, ((1, 0), (0, 2)))
BINARY = BinaryStructure(SPACE, {})
TERNARY = TernaryStructure(SPACE, {})
X_SIGN = SignPoly(frozenset({frozenset({"x"})}))
TERM = Term(Fraction(1, 2), X_SIGN, Var("x"))
IDENTITY = Identity("i", ("x",), (TERM,))
REPORT = CheckReport("c", False, 4, ("e", "f"), F, "d")
HOM = HomSuperalgebra(BINARY, TWIST)

_SPACE_REPR = "SuperSpace(basis=(('e', 0), ('f', 1)))"
_TWIST_REPR = (f"EvenMap(space={_SPACE_REPR}, matrix=((Fraction(1, 1), Fraction(0, 1)), "
               "(Fraction(0, 1), Fraction(2, 1))))")
_TERM_REPR = "Term(coefficient=Fraction(1, 2), sign=SignPoly(monomials=frozenset({frozenset({'x'})})), expr=Var(name='x'))"
_IDENTITY_REPR = f"Identity(name='i', variables=('x',), terms=({_TERM_REPR},))"
_REPORT_REPR = ("CheckReport(name='c', passed=False, tuples_checked=4, counterexample=('e', 'f'), "
                "residue=Element(f), detail='d')")
_BINARY_REPR = f"BinaryStructure(space={_SPACE_REPR}, constants={{}})"
_TERNARY_REPR = f"TernaryStructure(space={_SPACE_REPR}, constants={{}})"
_HOM_REPR = f"HomSuperalgebra(binary={_BINARY_REPR}, ternary=None, twist={_TWIST_REPR})"

# class, constructor keywords, one-field changes that each break equality, pinned repr
CASES = [
    (SuperSpace, {"basis": SPACE.basis}, [{"basis": OTHER.basis}], _SPACE_REPR),
    (EvenMap, {"space": SPACE, "matrix": TWIST.matrix},
     [{"space": OTHER}, {"matrix": ((1, 0), (0, 3))}], _TWIST_REPR),
    (SignPoly, {"monomials": X_SIGN.monomials}, [{"monomials": frozenset({frozenset()})}],
     "SignPoly(monomials=frozenset({frozenset({'x'})}))"),
    (Var, {"name": "x"}, [{"name": "y"}], "Var(name='x')"),
    (Twist, {"power": 2, "arg": Var("x")}, [{"power": 1}, {"arg": Var("y")}],
     "Twist(power=2, arg=Var(name='x'))"),
    (Call, {"op": "*", "args": (Var("x"), Var("y"))}, [{"op": "[]"}, {"args": (Var("y"), Var("x"))}],
     "Call(op='*', args=(Var(name='x'), Var(name='y')))"),
    (Term, {"coefficient": Fraction(1, 2), "sign": X_SIGN, "expr": Var("x")},
     [{"coefficient": Fraction(1)}, {"sign": SignPoly()}, {"expr": Twist(1, Var("x"))}], _TERM_REPR),
    (Identity, {"name": "i", "variables": ("x",), "terms": (TERM,)},
     [{"name": "j"}, {"variables": ("y",)}, {"terms": ()}], _IDENTITY_REPR),
    (CheckReport, {"name": "c", "passed": False, "tuples_checked": 4, "counterexample": ("e", "f"), "residue": F,
                   "detail": "d"},
     [{"name": "d"}, {"passed": True}, {"tuples_checked": 8}, {"counterexample": ("f", "e")}, {"residue": E},
      {"detail": ""}], _REPORT_REPR),
    (SuiteReport, {"suite": "S", "reports": (REPORT,)}, [{"suite": "T"}, {"reports": ()}],
     f"SuiteReport(suite='S', reports=({_REPORT_REPR},))"),
    (BinaryStructure, {"space": SPACE, "constants": {}}, [{"space": OTHER}, {"constants": {(0, 0): E}}],
     _BINARY_REPR),
    (TernaryStructure, {"space": SPACE, "constants": {}}, [{"space": OTHER}, {"constants": {(0, 0, 0): E}}],
     _TERNARY_REPR),
    (HomSuperalgebra, {"binary": BINARY, "twist": TWIST},
     [{"binary": BinaryStructure(SPACE, {(0, 0): E})}, {"twist": EvenMap.identity(SPACE)}], _HOM_REPR),
    (HomTripleSystem, {"ternary": TERNARY, "twist": TWIST},
     [{"ternary": TernaryStructure(SPACE, {(0, 0, 0): E})}, {"twist": EvenMap.identity(SPACE)}],
     f"HomTripleSystem(binary=None, ternary={_TERNARY_REPR}, twist={_TWIST_REPR})"),
    (HomBinaryTernary, {"binary": BINARY, "ternary": TERNARY, "twist": TWIST},
     [{"binary": BinaryStructure(SPACE, {(0, 0): E})}, {"ternary": TernaryStructure(SPACE, {(0, 0, 0): E})},
      {"twist": EvenMap.identity(SPACE)}],
     f"HomBinaryTernary(binary={_BINARY_REPR}, ternary={_TERNARY_REPR}, twist={_TWIST_REPR})"),
    (SuiteSpec, {"name": "S", "identities": (IDENTITY,), "bindings": (("*", "binary"),)},
     [{"name": "T"}, {"identities": ()}, {"bindings": (("*", "ternary"),)}],
     f"SuiteSpec(name='S', identities=({_IDENTITY_REPR},), bindings=(('*', 'binary'),))"),
    (AlgebraDocument, {"name": "d", "structure": HOM, "maps": {"beta": TWIST}, "convention": Convention.HALF},
     [{"name": "e"}, {"structure": HomSuperalgebra(BINARY, EvenMap.identity(SPACE))}, {"maps": {}},
      {"convention": Convention.UNIT}],
     f"AlgebraDocument(name='d', structure={_HOM_REPR}, maps={{'beta': {_TWIST_REPR}}}, "
     "convention=<Convention.HALF: 'half'>)"),
    (StructureBinding, {"space": SPACE, "ops": {"*": BINARY}, "twist": TWIST},
     [{"space": OTHER, "ops": {}, "twist": EvenMap.identity(OTHER)}, {"ops": {}}, {"twist": EvenMap.identity(SPACE)}],
     f"StructureBinding(space={_SPACE_REPR}, ops={{'*': {_BINARY_REPR}}}, twist={_TWIST_REPR})"),
    (BilinearForm, {"space": SPACE, "gram": ((1, 0), (0, 0))}, [{"space": OTHER}, {"gram": ((2, 0), (0, 0))}],
     f"BilinearForm(space={_SPACE_REPR}, gram=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1))))"),
    (Combination, {"terms": (TERM,)}, [{"terms": ()}], f"Combination(terms=({_TERM_REPR},))"),
]
_IDS = [cls.__name__ for cls, *_ in CASES]
# Classes holding a dict are unhashable, as they were.
_UNHASHABLE = {BinaryStructure, TernaryStructure, HomSuperalgebra, HomTripleSystem, HomBinaryTernary,
               AlgebraDocument, StructureBinding}


@pytest.mark.parametrize("cls,fields,changes,pinned", CASES, ids=_IDS)
def test_equal_values_compare_and_hash_equal(cls, fields, changes, pinned):
    value, same = cls(**fields), cls(*fields.values())
    assert value is not same and value == same and not value != same
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)


@pytest.mark.parametrize("cls,fields,changes,pinned", CASES, ids=_IDS)
def test_changing_one_compared_field_breaks_equality(cls, fields, changes, pinned):
    value = cls(**fields)
    for change in changes:
        other = cls(**{**fields, **change})
        assert value != other and not value == other, change


@pytest.mark.parametrize("cls,fields,changes,pinned", CASES, ids=_IDS)
def test_values_are_immutable(cls, fields, changes, pinned):
    value = cls(**fields)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


@pytest.mark.parametrize("cls,fields,changes,pinned", CASES, ids=_IDS)
def test_repr_is_pinned(cls, fields, changes, pinned):
    assert repr(cls(**fields)) == pinned


def test_equality_holds_only_within_one_class():
    assert BinaryStructure(SPACE, {}) != TernaryStructure(SPACE, {})
    assert HomBinaryTernary(BINARY, TERNARY, TWIST) != HomTripleSystem(TERNARY, TWIST)
    assert Var("x") != ("x",) and SPACE != SPACE.basis and SPACE == SuperSpace.build(SPACE.basis)


def test_defaults_are_kept():
    assert AlgebraDocument("d", HOM).maps == {} and AlgebraDocument("d", HOM).convention is Convention.UNIT
    assert AlgebraDocument("d", HOM).maps is not AlgebraDocument("d", HOM).maps
    assert SignPoly() == SignPoly.zero() and SuiteReport("S").reports == ()
    assert CheckReport("c", True, 1) == CheckReport("c", True, 1, None, None, "")
    assert Identity("i", (), ()).plan is None


_SUPERCOMMUTATOR = "(x*y) - (-1)^{x.y} (y*x) = 0"


def _noncommutative() -> StructureBinding:
    """A binding of ``*`` on which x*y = y*x fails: e*f = f, f*e = 0."""
    return StructureBinding(SPACE, {"*": BinaryStructure(SPACE, {(0, 1): F})}, EvenMap.identity(SPACE))


def test_identity_plan_takes_no_part_in_equality_hashing_or_repr():
    checked, fresh = parse_identity(_SUPERCOMMUTATOR), parse_identity(_SUPERCOMMUTATOR)
    check(_noncommutative(), checked)
    assert checked.plan is not None and fresh.plan is None
    assert checked == fresh and hash(checked) == hash(fresh) and repr(checked) == repr(fresh)


def test_identity_symmetries_take_no_part_in_equality_hashing_or_repr(monkeypatch):
    """The orbit pairs a check finds are kept on the identity by the slot
    symmetries they were found under; a fresh copy starts without them."""
    monkeypatch.setattr(engine, "_ORBITS", 0)
    checked, fresh = parse_identity(_SUPERCOMMUTATOR), parse_identity(_SUPERCOMMUTATOR)
    check(_noncommutative(), checked)
    assert checked.symmetries == {(): ((0, 1),)} and fresh.symmetries == {}
    assert checked == fresh and hash(checked) == hash(fresh) and repr(checked) == repr(fresh)


def test_map_powers_take_no_part_in_equality_hashing_or_repr():
    """A map keeps the powers built of it; an equal map without them
    compares, hashes and prints equal, and ``copy`` and ``pickle`` give
    equal maps with equal powers."""
    twist, fresh = EvenMap(SPACE, TWIST.matrix), EvenMap(SPACE, TWIST.matrix)
    squared = power(twist, 2)
    assert twist._powers == {2: squared} and fresh._powers == {}
    assert twist == fresh and hash(twist) == hash(fresh) and repr(twist) == repr(fresh)
    for copied in (copy.copy(twist), copy.deepcopy(twist), pickle.loads(pickle.dumps(twist))):
        assert copied == twist and hash(copied) == hash(twist) and power(copied, 2) == squared


def test_copies_start_without_a_plan():
    """A copy with other terms must compile its own plan: a plan copied
    from the checked original would report the original's residue."""
    identity = parse_identity(_SUPERCOMMUTATOR)
    report = check(_noncommutative(), identity)
    assert not report.passed and identity.plan is not None
    doubled = scaled(identity, 2)
    assert doubled.plan is None
    twice = check(_noncommutative(), doubled)
    assert twice.counterexample == report.counterexample and twice.residue == report.residue * 2
    hom = parse_identity("(A(x)*y) - (-1)^{x.y} (A(y)*x) = 0")
    check(_noncommutative(), hom)
    assert hom.plan is not None and without_twist(hom).plan is None
    assert without_twist(hom) == identity


def test_shallow_copies_and_pickles_are_equal():
    """``copy.copy`` and ``pickle`` restore every slot, uncompared ones included."""
    checked = parse_identity(_SUPERCOMMUTATOR)
    check(_noncommutative(), checked)
    for value in (SPACE, TWIST, HOM, checked, _noncommutative()):
        copied = copy.copy(value)
        assert copied == value and type(copied) is type(value)
    assert copy.copy(TWIST).columns == TWIST.columns and copy.copy(checked).plan is checked.plan
    for value in (SPACE, IDENTITY, checked):
        assert pickle.loads(pickle.dumps(value)) == value


def test_elements_deep_copy_and_pickle():
    """An ``Element`` is a value: a structure deep-copies, and a failing
    report pickles with its residue, both back to an equal value; an
    element still refuses assignment and deletion."""
    ex51 = builtin_example("example_5_1")
    assert copy.deepcopy(ex51) == ex51
    report = run_suite(builtin_example("example_5_1_hombol(2,3)"), "HOM_BOL")
    failing = next(item for item in report.reports if not item.passed)
    assert failing.residue is not None and pickle.loads(pickle.dumps(failing)) == failing
    assert pickle.loads(pickle.dumps(report)) == report
    element = ex51.space.basis_vector("j")
    with pytest.raises(AttributeError, match="Element is immutable"):
        element.coords = {}
    with pytest.raises(AttributeError, match="Element is immutable"):
        del element.coords
