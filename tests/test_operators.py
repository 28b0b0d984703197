import hashlib
import inspect
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import bench_families, oracle_agreement
from superbol import builtin_example
from superbol.catalog import SPACE_1_2, example_5_1_beta
from superbol.core import SuperSpace
from superbol.constructions import (
    _HOM_JORDAN_TRIPLE,
    hom_jordan_triple,
    jordan_lts_bracket,
    lie_triple_from_jordan_triple,
    plus_algebra,
    yau_twist_algebra,
)
from superbol.dsl import Call, SignPoly, Term, Twist, Var, build_identity
from superbol import constructions, engine, operators
from superbol.engine import StructureBinding, check, evaluate_on_elements
from superbol.reports import CheckReport
from superbol.operators import (
    ARG,
    A,
    L1,
    L2,
    L4,
    Lxy,
    koszul,
    lemma_binding,
    lemma_identities,
    mul,
    verify_operator_lemmas,
)
from superbol.structures import (
    BINARY_MULTIPLICATIVITY,
    BinaryStructure,
    Convention,
    HomSuperalgebra,
    bin_mul,
    grading_check,
    tern_mul,
)
from superbol.suites import run_suite, suite

x, y, z = (Var(name) for name in "xyz")


def b(name):
    return SPACE_1_2.basis_vector(name)


def value(binding, combination, **assignment):
    """Evaluate builder terms on basis vectors (by name) or on given elements."""
    identity = build_identity("value", tuple(assignment), combination.terms)
    elements = {var: b(v) if isinstance(v, str) else v for var, v in assignment.items()}
    return evaluate_on_elements(identity, binding, elements)


@pytest.fixture(scope="module")
def plus51_lemmas():
    return verify_operator_lemmas(plus_algebra(builtin_example("example_5_1"), Convention.UNIT))


def test_left_multiplication_values(plus51):
    binding = lemma_binding(plus51)
    assert value(binding, L1(x), x="i", t="j") == SPACE_1_2.element({"k": 2})
    assert value(binding, L1(x), x="i", t="k").is_zero()
    assert value(binding, L1(x), x="i", t="i").is_zero()
    assert value(binding, L1(x), x="j", t="i") == SPACE_1_2.element({"k": 2})
    assert value(binding, L1(x), x=SPACE_1_2.zero(), t="j").is_zero()


def test_operator_signs_are_sign_polynomials():
    # every operation is even: a compound argument's parity is its variables' sum
    assert koszul(mul(x, y), z) == SignPoly.parse("x.z + y.z")
    assert koszul(A(x, 2), (y, z)) == SignPoly.parse("x.y + x.z")
    assert koszul(x, x) == SignPoly.parse("x")


def test_pair_operator_vanishes_on_even_diagonal(plus51):
    binding = lemma_binding(plus51)
    for name in SPACE_1_2.names:
        assert value(binding, L2(x, y), x="i", y="i", t=name).is_zero()


def _pair_swap(report):
    return next(check for check in report.reports if check.name == "pair_operator_swap")


def test_pair_operator_swap_antisymmetric(plus51_lemmas):
    assert _pair_swap(plus51_lemmas).detail == "holds with sign -1; asserting -1"
    assert plus51_lemmas["difference_reduction_pairs"].detail == "swapped-quadruple sign +1 holds; asserting +1"


def test_pair_swap_both_signs_on_zero_algebra():
    zero = HomSuperalgebra.untwisted(BinaryStructure.zero(SPACE_1_2))
    report = verify_operator_lemmas(zero)
    assert _pair_swap(report).detail == "holds with sign +1/-1; asserting -1"
    assert report["difference_reduction_pairs"].detail == "swapped-quadruple sign +1/-1 holds; asserting +1"


def test_pair_action_matches_derived_triple(plus51):
    binding = lemma_binding(plus51)
    triple = hom_jordan_triple(plus51)
    assert value(binding, Lxy(x, y), x="i", y="j", t="j") == SPACE_1_2.element({"i": 8})
    for xn in SPACE_1_2.names:
        for yn in SPACE_1_2.names:
            for zn in SPACE_1_2.names:
                assert value(binding, Lxy(x, y) @ z, x=xn, y=yn, z=zn) == tern_mul(
                    triple.ternary, b(xn), b(yn), b(zn)
                )


def test_operator_parity_grading_enforced():
    ungraded = HomSuperalgebra.untwisted(BinaryStructure(SPACE_1_2, {(0, 1): b("i")}))  # i*j must be odd
    with pytest.raises(ValueError, match="parity"):
        verify_operator_lemmas(ungraded)


def test_all_operator_lemmas_pass_on_fixture(plus51_lemmas):
    report = plus51_lemmas
    assert report.passed
    assert len(report.reports) == 19
    assert "asserting -1" in report["pair_operator_swap"].detail
    assert "asserting +1" in report["difference_reduction_pairs"].detail


def test_operator_tuples_are_counted_without_the_applied_vector(plus51_lemmas):
    counts = {r.name: r.tuples_checked for r in plus51_lemmas.reports}
    assert counts["twist_naturality_single"] == 3
    assert counts["supertriple_operator_identity"] == 81
    assert counts["pair_action_matches_triple_product"] == 27  # an element equation in x, y, z


def test_operator_lemmas_pass_with_nontrivial_twist(ex51):
    twisted = yau_twist_algebra(ex51, example_5_1_beta(2, 0), 1)
    plus = plus_algebra(twisted, Convention.UNIT)
    report = verify_operator_lemmas(plus)
    assert report.passed
    # the double-bracket reduction only applies at the identity twist
    assert all(r.name != "double_bracket_reduction" for r in report.reports)


def test_operator_lemmas_trivial_on_zero_algebra():
    zero = HomSuperalgebra.untwisted(BinaryStructure.zero(SPACE_1_2))
    assert verify_operator_lemmas(zero).passed


def test_operator_lemmas_precondition(ex51):
    with pytest.raises(ValueError, match="Jordan"):
        verify_operator_lemmas(ex51)


def _pinned_inputs():
    """The structures whose operator-lemma reports are pinned, by name."""
    families = bench_families()
    ex51 = builtin_example("example_5_1")
    m21 = families.matrix_superalgebra(2, 1)
    beta = families.diagonal_automorphism(2, 1, families.diagonal_entries(2, 1, random.Random(37)))
    return {
        "plus(example_5_1)": lambda: plus_algebra(ex51),
        "plus(example_5_1 twisted by beta(2,0), n=1)": lambda: plus_algebra(
            yau_twist_algebra(ex51, example_5_1_beta(2, 0), 1)
        ),
        "plus(example_5_1 twisted by beta(3,0), n=2)": lambda: plus_algebra(
            yau_twist_algebra(ex51, example_5_1_beta(3, 0), 2)
        ),
        "plus(Lambda(1))": lambda: plus_algebra(families.grassmann(1)),
        "plus(Lambda(2))": lambda: plus_algebra(families.grassmann(2)),
        "plus(M(1|1))": lambda: plus_algebra(families.matrix_superalgebra(1, 1)),
        "plus(M(2|1))": lambda: plus_algebra(m21),
        "zero on SPACE_1_2": lambda: HomSuperalgebra.untwisted(BinaryStructure.zero(SPACE_1_2)),
        "plus(M(2|1) twisted by a seeded diagonal beta)": lambda: plus_algebra(yau_twist_algebra(m21, beta)),
    }


# SHA-256 of ``verify_operator_lemmas(S).describe()``, recorded from a version
# that checked every report slot on its own identity, so each slot decided
# without a check must reproduce its checked report byte for byte.
PINNED_REPORTS = {
    "plus(example_5_1)": "70d5c84d453ad373370b7782df9f0eefb85417aafd99c0afd1216124f0eb4928",
    "plus(example_5_1 twisted by beta(2,0), n=1)": "a8fa933e47650b6b5f39fb729037fb27d358d443d3dc6349a07aa330de564a13",
    "plus(example_5_1 twisted by beta(3,0), n=2)": "a8fa933e47650b6b5f39fb729037fb27d358d443d3dc6349a07aa330de564a13",
    "plus(Lambda(1))": "83937f5a620c2c8fcffdf71e5ca546f57a54def249101f60ef05e18773512a2a",
    "plus(Lambda(2))": "0a7304751f68ea9e378e5f90882d446c5cf66cce66a2d4c396bd90d46b4c0085",
    "plus(M(1|1))": "f8b881f218aed5a340b3c13253370c3825778c0b7cae5ef7af9754a508811a44",
    "plus(M(2|1))": "5a33582d1efd0145fedd6e14cae357471a2dc0827fa0c4d1695ed64386d0f111",
    "zero on SPACE_1_2": "ed52834090c4daf5b34892215019a44f913cb8e6bb466334b963cff5efce1d83",
    "plus(M(2|1) twisted by a seeded diagonal beta)": "3229592316e211a1b6d31c19d58bf48f5acc47f1f8d02c5178e1c616d3d8c668",
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_reports_are_pinned(name):
    text = verify_operator_lemmas(_pinned_inputs()[name]()).describe()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[name], text


def test_lemmas_tabulate_nothing_and_build_no_construction(plus51, monkeypatch):
    """With ``engine.tabulate`` and every function of ``constructions``
    replaced by ones that raise, the lemmas still give the same reports."""
    twisted = plus_algebra(yau_twist_algebra(builtin_example("example_5_1"), example_5_1_beta(2, 0)))
    expected = [verify_operator_lemmas(jordan) for jordan in (plus51, twisted)]

    def refuse(*args, **kwargs):
        raise AssertionError("the operator lemmas called a construction or tabulated a product")

    monkeypatch.setattr(engine, "tabulate", refuse)
    for name, value in vars(constructions).items():
        if inspect.isfunction(value) and value.__module__ == constructions.__name__:
            monkeypatch.setattr(constructions, name, refuse)
    assert [verify_operator_lemmas(jordan) for jordan in (plus51, twisted)] == expected


def test_a_call_binds_its_input_once(plus51, monkeypatch):
    """The operator lemmas check HOM_JORDAN and every lemma on the one
    binding ``lemma_binding`` returns, and a stage checks its precondition
    suite and tabulates on one binding; ``is_multiplicative`` binds ``[]``
    apart.  An unchecked stage builds its one binding and checks nothing."""
    triple = hom_jordan_triple(plus51)
    built, checked = [], []
    init, engine_check = StructureBinding.__init__, engine.check

    def recording(binding, identity):
        checked.append((binding, identity.name))
        return engine_check(binding, identity)

    monkeypatch.setattr(StructureBinding, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    monkeypatch.setattr(engine, "check", recording)
    monkeypatch.setattr(operators, "check", recording)

    def bindings(call, *args, **kwargs):
        built.clear()
        checked.clear()
        call(*args, **kwargs)
        return len(built)

    assert bindings(verify_operator_lemmas, plus51) == 2
    names = [identity.name for identity in suite("HOM_JORDAN").identities + lemma_identities()]
    assert [name for _, name in checked] == ["binary_multiplicativity", *names]
    assert all(binding is built[1] for binding, _ in checked[1:]) and set(built[1].ops) == {"*"}
    calls = ((hom_jordan_triple, plus51), (lie_triple_from_jordan_triple, triple), (jordan_lts_bracket, plus51))
    assert [bindings(*call) for call in calls] == [2, 1, 1]
    assert [bindings(*call, checked=False) for call in calls] == [1, 1, 1] and checked == []


def perturbed_jordan(plus51):
    constants = dict(plus51.binary.constants)
    constants[(0, 0)] = SPACE_1_2.basis_vector("i")  # i*i = i keeps symmetry, breaks the rest
    return HomSuperalgebra(BinaryStructure(SPACE_1_2, constants), plus51.twist)


def test_operator_identity_agrees_with_element_level_check(plus51, plus51_lemmas):
    # pass direction
    operator_report = plus51_lemmas["supertriple_operator_identity"]
    triple = hom_jordan_triple(plus51)
    element_report = run_suite(triple, "HOM_JORDAN_TRIPLE")["triple_identity_twisted"]
    assert operator_report.passed and element_report.passed

    # fail direction: same verdict and matching counterexample prefix
    broken = perturbed_jordan(plus51)
    assert run_suite(broken, "SUPERCOMMUTATIVE").passed
    lemma = next(i for i in lemma_identities(broken.twist.is_identity()) if i.name == "supertriple_operator_identity")
    operator_report = check(lemma_binding(broken), lemma)
    triple = hom_jordan_triple(broken, checked=False)
    element_report = run_suite(triple, "HOM_JORDAN_TRIPLE")["triple_identity_twisted"]
    assert not operator_report.passed and not element_report.passed
    assert lemma.variables[-1] == "t"
    assert element_report.counterexample[:4] == operator_report.counterexample[:-1]


def test_lemma_identities_are_built_once_per_value():
    """Each of the two lemma tuples is built once per process, however the
    argument is passed, and every call returns that one tuple."""
    for args, kwargs in (((), {}), ((True,), {}), ((), {"untwisted": True}), ((False,), {}), ((1,), {})):
        lemma_identities(*args, **kwargs)
    assert operators._lemma_identities.cache_info().misses == 2
    for untwisted in (True, False):
        assert lemma_identities(untwisted) is lemma_identities(untwisted)


def test_shared_lemmas_carry_no_structure(plus51):
    """The shared lemma identities, checked on a perturbed product between
    two runs on plus(example_5_1), leave the second run equal to the first."""
    first = verify_operator_lemmas(plus51)
    broken = perturbed_jordan(plus51)
    binding = lemma_binding(broken)
    assert not all(check(binding, identity).passed for identity in lemma_identities(broken.twist.is_identity()))
    assert verify_operator_lemmas(plus51) == first


# The checked sign candidate of each two-sign lemma, which fails on plus(example_5_1).
CANDIDATES = {"pair_operator_swap", "difference_reduction_pairs"}
PERTURBED_FAILURES = {
    "jordan_cyclic_operator_sum",
    "nested_left_mul_reduction",
    "difference_reduction_mixed_left",
    "difference_reduction_mixed_right",
    "triple_head_expansion",
    "triple_tail_expansion",
    "supertriple_operator_identity",
    "double_bracket_reduction",
}


@pytest.mark.parametrize("perturbed,failing", [(False, CANDIDATES), (True, CANDIDATES | PERTURBED_FAILURES)])
def test_lemma_verdicts_agree_with_element_oracle(plus51, perturbed, failing):
    jordan = perturbed_jordan(plus51) if perturbed else plus51
    results = oracle_agreement(
        lemma_binding(jordan), lemma_identities(), seed=20261017, samples=2, label="operator_lemmas"
    )
    assert [name for name, agree, _ in results if not agree] == []
    assert {name for name, _, passed in results if not passed} == failing


def _formal_sum(terms):
    """The coefficient of each (sign, expression) pair, zeros dropped."""
    sums = Counter()
    for term in terms:
        sums[term.sign, term.expr] += term.coefficient
    return {key: c for key, c in sums.items() if c}


def _two_sign_candidates():
    """Each two-sign lemma's candidates from the public builders, as (kept,
    dropped): the checked sign and the asserted one."""
    x, y, u, v = (Var(name) for name in "xyuv")
    swap = koszul((u, v), (x, y))
    pairs = L2(A(x, 2), A(y, 2)) @ L2(u, v) - (L2(A(u, 2), A(v, 2)) @ L2(x, y)).signed(swap) - L4(x, y, u, v)
    reversed_pairs = L4(y, x, v, u).signed(koszul(u, v) + koszul(x, y))
    return {
        "pair_operator_swap": tuple(L2(x, y) - L2(y, x).signed(koszul(x, y), s) for s in (+1, -1)),
        "difference_reduction_pairs": (pairs + reversed_pairs, pairs - reversed_pairs),
    }


def _symbols(expr, found):
    """Add every operation symbol in ``expr`` to ``found``."""
    if isinstance(expr, Twist):
        _symbols(expr.arg, found)
    elif isinstance(expr, Call):
        found.add(expr.op)
        for arg in expr.args:
            _symbols(arg, found)
    return found


@pytest.mark.parametrize("untwisted", [True, False])
def test_asserted_signs_cancel_term_by_term(untwisted):
    """The asserted candidate of each two-sign lemma sums to zero before any
    structure is bound, so it holds on every structure; the built lemma is
    the other candidate, no lemma in the tuple cancels, and every lemma is
    over ``*`` and ``A`` alone."""
    identities = {identity.name: identity for identity in lemma_identities(untwisted)}
    assert len(identities) == len(lemma_identities(untwisted)) == (15 if untwisted else 14)
    for name, (kept, dropped) in _two_sign_candidates().items():
        assert _formal_sum(dropped.terms) == {}, name
        assert identities[name].terms == kept.terms
    for identity in identities.values():
        assert _formal_sum(identity.terms), identity.name
        assert set().union(*(_symbols(term.expr, set()) for term in identity.terms)) == {"*"}, identity.name


def _renamed(expr, symbols, names):
    """``expr`` with operation symbols and variables renamed by the two maps."""
    if isinstance(expr, Var):
        return Var(names.get(expr.name, expr.name))
    if isinstance(expr, Twist):
        return Twist(expr.power, _renamed(expr.arg, symbols, names))
    return Call(symbols.get(expr.op, expr.op), tuple(_renamed(arg, symbols, names) for arg in expr.args))


def _term_multiset(terms):
    return Counter((term.coefficient, term.sign, term.expr) for term in terms)


def test_decided_slots_rest_on_formal_facts():
    """Three slots reported without a check are, term for term, a fact the
    preconditions or the triple product's definition already decide:
    ``left_mul_supercommutativity`` is HOM_JORDAN's ``supercommutativity``,
    ``twist_naturality_single`` is binary multiplicativity with ``[]`` read
    as ``*`` and ``y`` as ``t``, and the pair action ``Lxy(x,y)(z)`` is the
    three terms that define the twisted Jordan triple product."""
    supercommutativity = next(i for i in suite("HOM_JORDAN").identities if i.name == "supercommutativity")
    built = L1(x) @ y - (L1(y) @ x).signed(koszul(x, y))
    assert _term_multiset(built.terms) == _term_multiset(supercommutativity.terms)

    multiplicativity = [
        Term(term.coefficient, term.sign, _renamed(term.expr, {"[]": "*"}, {"y": "t"}))
        for term in BINARY_MULTIPLICATIVITY.terms
    ]
    built = A(ARG) @ L1(x) - L1(A(x)) @ A(ARG)
    assert _term_multiset(built.terms) == _term_multiset(multiplicativity)

    assert _term_multiset((Lxy(x, y) @ z).terms) == _term_multiset(_HOM_JORDAN_TRIPLE.terms)
    assert len(_HOM_JORDAN_TRIPLE.terms) == 3


def _additivity_inputs():
    """The plus algebras the benchmark verifies the operator lemmas on."""
    plus51 = plus_algebra(builtin_example("example_5_1"))
    return (
        plus51,
        yau_twist_algebra(plus51, example_5_1_beta(2, 0)),
        plus_algebra(bench_families().grassmann(1)),
    )


def _ordered_walk(jordan):
    """The first failing pair of L(x+y) = L(x) + L(y) over all ordered basis
    pairs, every side multiplied afresh; None if every pair holds."""
    space, star = jordan.space, jordan.binary
    basis = [space.basis_vector(i) for i in range(space.dim)]
    for i, j in itertools.product(range(space.dim), repeat=2):
        x, y = basis[i], basis[j]
        if any(bin_mul(star, x + y, t) != bin_mul(star, x, t) + bin_mul(star, y, t) for t in basis):
            return space.names[i], space.names[j]
    return None


def _random_table(dim, rng):
    """A product with random nonzero rational constants in every coordinate
    of every basis product, on a space of both parities, so it is not graded."""
    space = SuperSpace.build((f"e{i}", i % 2) for i in range(dim))
    constants = {
        key: space.element({name: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for name in space.names})
        for key in itertools.product(range(dim), repeat=2)
    }
    return HomSuperalgebra.untwisted(BinaryStructure(space, constants))


def test_additivity_passes_on_the_lemma_inputs():
    """``left_mul_additivity`` passes in its slot, after
    ``left_mul_supercommutativity``, with d**2 pairs and no computation; the
    element-level walk agrees on the lemma inputs and on random products
    that are neither graded nor Jordan."""
    for jordan in _additivity_inputs():
        reports = verify_operator_lemmas(jordan).reports
        assert [r.name for r in reports[:2]] == ["left_mul_supercommutativity", "left_mul_additivity"]
        assert reports[1] == CheckReport("left_mul_additivity", True, jordan.space.dim**2)
        assert _ordered_walk(jordan) is None
    rng = random.Random(20261020)
    for dim in (2, 3, 4):
        jordan = _random_table(dim, rng)
        assert not grading_check(jordan.binary).passed
        assert not run_suite(jordan, "HOM_JORDAN").passed
        assert _ordered_walk(jordan) is None
