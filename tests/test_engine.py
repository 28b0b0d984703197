import ast
import dataclasses
import inspect
import itertools
import random

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings

import reference
from conftest import graded_structures, oracle_agreement, random_element
from reference import koszul
from superbol.catalog import SPACE_1_2, builtin_example, example_5_1_beta
from superbol.constructions import (
    bol_from_right_alternative,
    hom_jordan_triple,
    jordan_lts_bracket,
    lie_triple_from_jordan_triple,
    minus_algebra,
    plus_algebra,
)
from superbol import core, engine
from superbol.core import EvenMap, SuperSpace
from superbol.dsl import parse_identity
from superbol.engine import (
    StructureBinding,
    UnboundSymbolError,
    check,
    evaluate_on_elements,
    tabulate,
)
from superbol.structures import (
    BINARY_MULTIPLICATIVITY,
    TERNARY_MULTIPLICATIVITY,
    BinaryStructure,
    Convention,
    HomBinaryTernary,
    HomSuperalgebra,
    HomTripleSystem,
    TernaryStructure,
    bin_mul,
    is_even_self_morphism,
    is_multiplicative,
    structure_parts,
    tern_mul,
)
from superbol.suites import binding_for, run_suite, suite


def star_binding(algebra: HomSuperalgebra) -> StructureBinding:
    return StructureBinding(
        space=algebra.space, ops={"*": algebra.binary}, twist=algebra.twist
    )


def mutate_jk(ex51: HomSuperalgebra) -> HomSuperalgebra:
    constants = dict(ex51.binary.constants)
    constants[(1, 2)] = SPACE_1_2.element({"i": 3})
    return HomSuperalgebra(BinaryStructure(SPACE_1_2, constants), ex51.twist)


def test_check_passes_on_fixture(ex51):
    spec = suite("RIGHT_ALT")
    report = check(binding_for(ex51, spec), spec.identities[0])
    assert report.passed
    assert report.tuples_checked == 27
    assert report.counterexample is None


def test_check_reports_first_counterexample(ex51):
    mutated = mutate_jk(ex51)
    spec = suite("RIGHT_ALT")
    report = check(binding_for(mutated, spec), spec.identities[0])
    assert not report.passed
    assert report.tuples_checked == 27
    assert report.counterexample == ("j", "i", "j")
    assert report.residue == SPACE_1_2.element({"i": -2})


def test_check_is_deterministic(ex51):
    mutated = mutate_jk(ex51)
    spec = suite("RIGHT_ALT")
    binding = binding_for(mutated, spec)
    first = check(binding, spec.identities[0])
    second = check(binding, spec.identities[0])
    assert first == second


def test_syntactic_cancellation_passes(ex51):
    identity = parse_identity("(x*y) - (x*y) = 0", name="cancel")
    report = check(star_binding(ex51), identity)
    assert report.passed
    assert report.tuples_checked == 9


def test_unbound_symbol_raises(ex51):
    identity = parse_identity("[x,y] + (-1)^{x.y} [y,x] = 0", name="needs_bracket")
    with pytest.raises(UnboundSymbolError):
        check(star_binding(ex51), identity)


def test_binding_rejects_space_mismatch(ex51, ex31):
    with pytest.raises(ValueError):
        StructureBinding(space=ex51.space, ops={"*": ex51.binary}, twist=EvenMap.identity(ex31.space))


def test_binding_rejects_wrong_arity_symbol(ex31):
    with pytest.raises(ValueError):
        StructureBinding(
            space=ex31.space, ops={"{}": ex31.binary}, twist=EvenMap.identity(ex31.space)
        )


def test_evaluate_on_elements_zero_for_passing_identity(ex51):
    spec = suite("RIGHT_ALT")
    binding = binding_for(ex51, spec)
    identity = spec.identities[0]
    rng = random.Random(7)
    for _ in range(25):
        assignment = {v: random_element(SPACE_1_2, rng) for v in identity.variables}
        assert evaluate_on_elements(identity, binding, assignment).is_zero()


def test_evaluate_on_elements_detects_mutation(ex51):
    mutated = mutate_jk(ex51)
    spec = suite("RIGHT_ALT")
    binding = binding_for(mutated, spec)
    identity = spec.identities[0]
    rng = random.Random(7)
    nonzero = 0
    for _ in range(25):
        assignment = {v: random_element(SPACE_1_2, rng) for v in identity.variables}
        if not evaluate_on_elements(identity, binding, assignment).is_zero():
            nonzero += 1
    assert nonzero > 0


def test_oracle_agreement_on_pass_and_fail(ex51):
    spec = suite("RIGHT_ALT")

    def agreement(structure):
        return oracle_agreement(binding_for(structure, spec), spec.identities, seed=11, samples=20, label=spec.name)

    for name, agree, _ in agreement(ex51):
        assert agree, name
    for name, agree, passed in agreement(mutate_jk(ex51)):
        assert agree and not passed, name


def test_zero_dimensional_products_zero_algebra(ex51):
    zero = HomSuperalgebra.untwisted(BinaryStructure.zero(SPACE_1_2))
    assert run_suite(zero, "RIGHT_ALT").passed
    assert run_suite(zero, "HOM_JORDAN").passed


def test_no_state_survives_between_bindings(ex51):
    """Checking a perturbed binding in between changes nothing about the
    original's verdict: nothing is cached on the identity alone."""
    spec = suite("RIGHT_ALT")
    identity = spec.identities[0]
    first = check(binding_for(ex51, spec), identity)
    perturbed = check(binding_for(mutate_jk(ex51), spec), identity)
    again = check(binding_for(ex51, spec), identity)
    assert first == again
    assert first.passed and first.counterexample is None and first.residue is None
    assert not perturbed.passed
    assert perturbed.counterexample == ("j", "i", "j")
    assert perturbed.residue == SPACE_1_2.element({"i": -2})


def test_binding_kernel_is_shared_by_a_suite(ex51):
    """One binding's compiled kernel serves every identity of a suite, in any order."""
    spec = suite("RIGHT_ALT")
    mutated = mutate_jk(ex51)
    binding = binding_for(mutated, spec)
    shared = [check(binding, identity) for identity in reversed(spec.identities)]
    separate = [check(binding_for(mutated, spec), identity) for identity in reversed(spec.identities)]
    assert shared == separate
    assert not shared[0].passed


def test_identity_twist_compiles_to_no_powers(ex51, ex51_bol, monkeypatch):
    """An identity-twist suite builds no twist power and composes no maps,
    while an involution's square still compiles away."""
    involution = EvenMap(SPACE_1_2, ((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    binding = StructureBinding(SPACE_1_2, {"*": ex51.binary}, involution)
    assert binding._twist_columns(2) is None and binding._twist_columns(1) is not None

    def forbidden(*args):
        raise AssertionError("map arithmetic on an identity twist")

    monkeypatch.setattr(engine, "power", forbidden)
    monkeypatch.setattr(core, "compose", forbidden)
    assert run_suite(ex51, "RIGHT_ALT").passed
    assert run_suite(ex51_bol, "BOL").passed


_ORACLE = ("evaluate_on_elements", "_evaluate_expr", "_term_residue", "_twist_powers")


def test_oracle_shares_nothing_with_the_kernel():
    """The element-level oracle names no kernel helper, node class, node
    method or table, and reads no binding attribute but ``space``, ``op`` and
    ``twist``."""
    tree = ast.parse(inspect.getsource(engine))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    node_classes = {
        name for name, value in vars(engine).items() if isinstance(value, type) and issubclass(value, engine._Node)
    }
    tables = {f.name for f in dataclasses.fields(StructureBinding) if not f.init}
    helpers = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in _ORACLE
    }
    methods = {
        item.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in node_classes
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
    }
    assert {"_Leaf", "_Binary", "_Ternary"} <= node_classes and tables
    assert {"_compile", "_chunk", "_components"} <= helpers and {"rows", "table", "at", "_join"} <= methods
    kernel = {"node", "_build", "_tensor", "_twist_columns"} | helpers | methods | tables
    for name in _ORACLE:
        names = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id == "binding":
                    assert node.attr in ("space", "op", "twist"), (name, node.attr)
        assert not names & kernel, (name, names & kernel)


def test_references_import_only_core_and_structures():
    """The tests' element-level references reach the library only through
    ``superbol.core`` and ``superbol.structures``, so no engine, suite or
    construction code is checked against itself."""
    modules = set()
    for node in ast.walk(ast.parse(inspect.getsource(reference))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules and modules <= {"superbol.core", "superbol.structures"}, modules


# -- the kernel against the element-level evaluation, on random structures ----

_DIFFERENTIAL_SUITES = ("HOM_BOL", "RIGHT_HOM_ALT", "HOM_JORDAN", "EQ_7_10")

def _reference(binding, identity):
    """Lexicographic walk calling the element-level evaluation on basis vectors:
    (passed, counterexample, residue)."""
    space = binding.space
    for indices in itertools.product(range(space.dim), repeat=identity.arity):
        assignment = {var: space.basis_vector(i) for var, i in zip(identity.variables, indices)}
        residue = evaluate_on_elements(identity, binding, assignment)
        if not residue.is_zero():
            return False, tuple(space.names[i] for i in indices), residue
    return True, None, None


# No shrink phase: each shrink step re-walks all four suites through the slow
# element-level path, and shrinking a failure on a broken kernel ran for minutes.
_differential = settings(
    max_examples=20,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)


# Every nonzero constant has the last basis vector as its first argument, and
# the twist is diagonal, so many identities first fail in the last chunk of
# the kernel (the tuples whose first variable is the last basis vector).
_LAST = SuperSpace.build([("e0", 0), ("e1", 1), ("e2", 1)])
_LAST_FIRST = HomBinaryTernary(
    BinaryStructure.from_table(_LAST, {("e2", "e0"): {"e1": 1, "e2": -2}, ("e2", "e1"): {"e0": 3}, ("e2", "e2"): {"e0": -1}}),
    TernaryStructure.from_table(_LAST, {("e2", "e1", "e0"): {"e0": 2}, ("e2", "e2", "e2"): {"e1": 1}, ("e2", "e0", "e1"): {"e0": -1}}),
    EvenMap(_LAST, ((2, 0, 0), (0, -1, 0), (0, 0, 3))),
)

# Binary, ternary and twist entries of denominators 2, 3 and 5: the common
# scale of an identity differs from the scale of every one of its nodes.
_MIXED = SuperSpace.build([("e0", 0), ("e1", 1), ("e2", 0)])
_MIXED_DENOMINATORS = HomBinaryTernary(
    BinaryStructure.from_table(
        _MIXED, {("e0", "e2"): {"e0": "1/2"}, ("e1", "e1"): {"e2": "-3/2"}, ("e2", "e0"): {"e2": 1}, ("e1", "e0"): {"e1": "1/2"}}
    ),
    TernaryStructure.from_table(
        _MIXED, {("e0", "e1", "e1"): {"e2": "1/3"}, ("e2", "e2", "e0"): {"e0": "-2/3"}, ("e1", "e2", "e1"): {"e0": 1}}
    ),
    EvenMap(_MIXED, (("1/5", 0, 0), (0, "-2/5", 0), (1, 0, 3))),
)


@_differential
@given(graded_structures())
@example(_LAST_FIRST)
@example(_MIXED_DENOMINATORS)
def test_kernel_agrees_with_element_evaluation(structure):
    for name in _DIFFERENTIAL_SUITES:
        spec = suite(name)
        binding = binding_for(structure, spec)
        for identity in spec.identities:
            report = check(binding, identity)
            assert (report.passed, report.counterexample, report.residue) == _reference(binding, identity), (
                name,
                identity.name,
            )
            assert report.tuples_checked == structure.space.dim ** identity.arity


def test_tabulate_keeps_the_nonzero_values_of_a_failing_check(ex51):
    """tabulate walks the tuples check walks: its first key is check's
    counterexample and its value there is check's residue."""
    identity = parse_identity("(x*y) - (-1)^{x.y} (y*x) = 0", name="supercommutativity")
    binding = star_binding(ex51)
    table = tabulate(binding, identity)
    report = check(binding, identity)
    first = next(iter(table))
    assert tuple(SPACE_1_2.names[i] for i in first) == report.counterexample == ("j", "k")
    assert table[first] == report.residue == SPACE_1_2.element({"i": 6})
    assert list(table) == sorted(table)
    assert all(not value.is_zero() for value in table.values())
    assert tabulate(binding, parse_identity("(x*y) - (x*y) = 0")) == {}


# -- kernel-built products against their element-level references -------------

# Odd-odd ternary entries and a twist that is not a morphism of the bracket,
# so every sign and both kinds of morphism failure show on every run.
_SHIPPED = builtin_example("example_5_1_bol")
_SHIPPED_TWISTED = HomBinaryTernary(_SHIPPED.binary, _SHIPPED.ternary, example_5_1_beta(2, 3))


def _table(space, arity, product):
    """The nonzero values of an element-level product on all basis tuples."""
    table = {}
    for key in itertools.product(range(space.dim), repeat=arity):
        value = product(*(space.basis_vector(i) for i in key))
        if not value.is_zero():
            table[key] = value
    return table


def _morphism_reference(structure, f, preamble):
    """A lexicographic walk of the element-level evaluation over the two
    morphism laws: (passed, counterexample, residue, tuples_checked)."""
    space = structure.space
    binary, ternary, _ = structure_parts(structure)
    ops = {key: value for key, value in (("[]", binary), ("{}", ternary)) if value is not None}
    binding = StructureBinding(space, ops, f)
    checked = preamble
    for law, product in ((BINARY_MULTIPLICATIVITY, binary), (TERNARY_MULTIPLICATIVITY, ternary)):
        if product is None:
            continue
        for indices in itertools.product(range(space.dim), repeat=law.arity):
            checked += 1
            assignment = {var: space.basis_vector(i) for var, i in zip(law.variables, indices)}
            residue = evaluate_on_elements(law, binding, assignment)
            if not residue.is_zero():
                return False, tuple(space.names[i] for i in indices), residue, checked
    return True, None, None, checked


@_differential
@given(graded_structures())
@example(_SHIPPED_TWISTED)
def test_kernel_built_products_match_element_references(structure):
    space, binary, ternary, twist = structure.space, structure.binary, structure.ternary, structure.twist
    untwisted = HomSuperalgebra.untwisted(binary)
    twisted = HomSuperalgebra(binary, twist)
    for conv in (Convention.UNIT, Convention.HALF):
        minus = minus_algebra(twisted, conv)
        plus = plus_algebra(twisted, conv)
        assert minus.twist == plus.twist == twist
        jordan = _table(space, 2, lambda x, y: reference.graded(binary, conv.factor, 1, x, y))
        assert minus.binary.constants == _table(space, 2, lambda x, y: reference.graded(binary, conv.factor, -1, x, y))
        assert plus.binary.constants == jordan

        bol = bol_from_right_alternative(untwisted, conv, checked=False)
        reference_plus = HomSuperalgebra.untwisted(BinaryStructure(space, jordan))
        assert bol.binary.constants == minus.binary.constants
        assert bol.ternary.constants == _table(
            space,
            3,
            lambda x, y, z: reference.associator(reference_plus, y, z, x).scale(koszul(x, y) * koszul(x, z)),
        )

    def lts_bracket(x, y, z):
        return (bin_mul(binary, x, bin_mul(binary, y, z)) - bin_mul(binary, y, bin_mul(binary, x, z)).scale(koszul(x, y))).scale(2)

    assert jordan_lts_bracket(untwisted, checked=False).constants == _table(space, 3, lts_bracket)

    triple = hom_jordan_triple(twisted, checked=False)
    assert triple.ternary.constants == _table(space, 3, lambda x, y, z: reference.jordan_triple(twisted, x, y, z))

    system = HomTripleSystem(ternary, twist)
    lie = lie_triple_from_jordan_triple(system, checked=False)
    assert lie.twist == twist
    assert lie.ternary.constants == _table(
        space, 3, lambda x, y, z: tern_mul(ternary, x, y, z) - tern_mul(ternary, y, x, z).scale(koszul(x, y))
    )


@_differential
@given(graded_structures())
@example(_SHIPPED_TWISTED)
def test_morphism_laws_match_element_evaluation(structure):
    twist = structure.twist
    identity = EvenMap.identity(structure.space)
    cases = [
        (is_multiplicative(structure), structure, twist, 1),
        (is_even_self_morphism(structure, identity), structure, identity, 1),
        (is_even_self_morphism(structure.binary, twist), structure.binary, twist, 0),
        (is_even_self_morphism(structure.ternary, twist), structure.ternary, twist, 0),
        (is_even_self_morphism(HomSuperalgebra(structure.binary, twist), twist), structure.binary, twist, 1),
    ]
    for report, tensors, f, preamble in cases:
        expected = _morphism_reference(tensors, f, preamble)
        assert (report.passed, report.counterexample, report.residue, report.tuples_checked) == expected
    # The identity map is a morphism of every structure.
    assert cases[1][0].passed
