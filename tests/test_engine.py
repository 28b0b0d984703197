import ast
import inspect
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

import reference
from conftest import bench_families, graded_structures, oracle_agreement, random_element, random_identities
from reference import koszul
from superbol.catalog import SPACE_1_2, builtin_example, example_5_1_beta
from superbol.constructions import (
    bol_from_right_alternative,
    hom_bol_from_right_hom_alternative,
    hom_jordan_triple,
    jordan_lts_bracket,
    lie_triple_from_jordan_triple,
    minus_algebra,
    plus_algebra,
    yau_twist_algebra,
)
from superbol import core, dsl, engine, normal
from superbol.core import EvenMap, SuperSpace
from superbol.dsl import Call, Identity, SignPoly, Term, Twist, Var, parse_identity
from superbol.engine import (
    StructureBinding,
    UnboundSymbolError,
    check,
    evaluate_on_elements,
    tabulate,
)
from superbol.reports import CheckReport
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
    tern_mul,
)
from superbol.suites import SUITE_NAMES, binding_for, run_suite, suite


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


@pytest.mark.parametrize(
    "symbol,part,expected",
    [("*", "ternary", "BinaryStructure"), ("[]", "ternary", "BinaryStructure"), ("o", "ternary", "BinaryStructure"),
     ("{}", "binary", "TernaryStructure"), ("<>", "binary", "TernaryStructure")],
    ids=["star", "bracket", "circle", "braces", "angle"],
)
def test_binding_rejects_wrong_arity_symbol(ex31, symbol, part, expected):
    """The binding alone keeps each tensor's support as deep as its calls
    have arguments: a structure of the other arity is refused."""
    with pytest.raises(ValueError, match=rf"^symbol {re.escape(repr(symbol))} needs a {expected}$"):
        StructureBinding(space=ex31.space, ops={symbol: getattr(ex31, part)}, twist=EvenMap.identity(ex31.space))


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


# (passed, counterexample, residue) of every identity of BOL and HOM_BOL on the
# mutated bol(M(2|1)) below, as the kernel with tuple keys reported them.
_MUTATED_M21 = {
    "BOL": [
        (False, ("e23", "e32"), {"e33": -1}),
        (False, ("e13", "e31", "e32"), {"e32": -1}),
        (False, ("e13", "e32", "e31"), {"e32": 1}),
        (False, ("e11", "e12", "e31", "e23"), {"e33": 1}),
        (False, ("e11", "e12", "e31", "e13", "e31"), {"e32": 1}),
    ],
    "HOM_BOL": [
        (True, None, None),
        (True, None, None),
        (False, ("e23", "e32"), {"e33": -1}),
        (False, ("e13", "e31", "e32"), {"e32": -1}),
        (False, ("e13", "e32", "e31"), {"e32": 1}),
        (False, ("e11", "e12", "e11", "e21"), {"e11": Fraction(40, 3), "e22": Fraction(-40, 3)}),
        (False, ("e11", "e12", "e11", "e13", "e21"), {"e13": Fraction(35, 9)}),
    ],
}


def _mutated_m21() -> dict[str, HomBinaryTernary]:
    """bol(M(2|1)) (dim 9) with one bracket and one ternary entry perturbed,
    untwisted for BOL and twisted by a diagonal automorphism for HOM_BOL."""
    families = bench_families()
    bol = bol_from_right_alternative(families.matrix_superalgebra(2, 1), Convention.UNIT, checked=False)
    space, index = bol.space, bol.space.index
    binary, ternary = dict(bol.binary.constants), dict(bol.ternary.constants)
    for constants, names, target in ((binary, ("e32", "e23"), "e33"), (ternary, ("e31", "e13", "e32"), "e32")):
        key = tuple(map(index, names))
        constants[key] = constants.get(key, space.zero()) + space.basis_vector(index(target))
    beta = families.diagonal_automorphism(2, 1, (1, -3, Fraction(1, 2)))
    return {
        name: HomBinaryTernary(BinaryStructure(space, binary), TernaryStructure(space, ternary), twist)
        for name, twist in (("BOL", bol.twist), ("HOM_BOL", beta))
    }


def test_kernel_paths_agree_in_any_order():
    """On a mutated bol(M(2|1)) (dim 9), each suite's identities give the
    pinned reports of ``_MUTATED_M21``, and checked on one binding, forward
    or in reverse, the reports of fresh bindings.  Forward, ``[x,y]`` and
    ``{x,y,z}`` are top nodes before any table is kept; in reverse, they are
    top nodes read from the tables that ``ternary_derivation`` and
    ``binary_ternary_compat`` kept."""
    for name, mutated in _mutated_m21().items():
        space = mutated.space
        spec = suite(name)
        fresh = [check(binding_for(mutated, spec), identity) for identity in spec.identities]
        pinned = [
            (passed, counterexample, None if residue is None else space.element(residue))
            for passed, counterexample, residue in _MUTATED_M21[name]
        ]
        assert [(report.passed, report.counterexample, report.residue) for report in fresh] == pinned, name
        binding = binding_for(mutated, spec)
        assert [check(binding, identity) for identity in spec.identities] == fresh, name
        binding = binding_for(mutated, spec)
        assert [check(binding, identity) for identity in reversed(spec.identities)] == fresh[::-1], name


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


# Twists around a bare variable, twists of twists, a zeroth power and a
# twisted product against its folded twin, on example_5_1 under three twists:
# singular, non-diagonal with a non-unit scale, and an involution, whose
# square compiles to no power.  Per twist, per identity: (passed,
# counterexample, residue) of the check and the number of tabulated tuples.
_EDGE_TEXTS = (
    "A^2(x) - x = 0",
    "A(A^2(x)) = 0",
    "(A(A(x))*A^0(y)) - A^2((x*y)) = 0",
    "A(A((x*y))) - (A(x)*A(y)) = 0",
)
_EDGE_TWISTS = {
    ((2, 0, 0), (0, 1, -1), (0, -1, 1)): (
        (False, ("i",), {"i": 3}, 3),
        (False, ("i",), {"i": 8}, 3),
        (False, ("i", "j"), {"j": 2, "k": 2}, 7),
        (False, ("i", "j"), {"j": -2}, 8),
    ),
    (("1/2", 0, 0), (0, 1, 2), (0, 3, -1)): (
        (False, ("i",), {"i": "-3/4"}, 3),
        (False, ("i",), {"i": "1/8"}, 3),
        (False, ("i", "j"), {"k": "-27/4"}, 3),
        (False, ("i", "j"), {"k": "13/2"}, 8),
    ),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)): (
        (True, None, None, 0),
        (False, ("i",), {"i": 1}, 3),
        (True, None, None, 0),
        (False, ("i", "j"), {"k": 1}, 6),
    ),
}


@pytest.mark.parametrize("matrix", _EDGE_TWISTS)
def test_folded_twist_edge_cases_are_pinned(ex51, matrix):
    binding = StructureBinding(SPACE_1_2, {"*": ex51.binary}, EvenMap(SPACE_1_2, matrix))
    for text, (passed, counterexample, residue, size) in zip(_EDGE_TEXTS, _EDGE_TWISTS[matrix]):
        identity = parse_identity(text)
        report = check(binding, identity)
        assert (report.passed, report.counterexample, report.residue) == (
            passed, counterexample, residue and SPACE_1_2.element(residue)
        ), text
        assert len(tabulate(binding, identity)) == size, text


@st.composite
def _code_cases(draw):
    """Parities of a space of dim <= 12, the identity positions of a term's
    n <= 6 key positions, and two index tuples in identity order."""
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    n = draw(st.integers(1, 6))
    indices = st.tuples(*[st.integers(0, len(parities) - 1)] * n)
    return parities, draw(st.permutations(range(n))), draw(indices), draw(indices)


@given(_code_cases())
def test_codes_pack_tuples_in_lexicographic_order(case):
    """A tuple's code, read off the term's key positions in any order,
    decodes to the tuple in identity order, sorts as the tuple does, and
    holds the tuple's parities in its mask bits."""
    parities, positions, first, second = case
    dim, n = len(parities), len(positions)
    coding = engine._Coding(engine._columns(parities, n), positions, [1] * (1 << n), {})

    def code(indices):
        key = [indices[v] for v in positions]
        return sum(coding.codes[p][i] for p, i in enumerate(key))

    for indices in (first, second):
        assert engine._decode(code(indices), dim, n) == indices
        assert code(indices) & coding.mask == sum(parities[i] << v for v, i in enumerate(indices))
    assert (code(first) < code(second)) == (first < second)
    assert (code(first) == code(second)) == (first == second)


def test_sign_tables_are_exact():
    """Every term of every suite identity weighs ``coefficient * S /
    node.scale`` times its sign at each parity mask, the mask's bit v being
    the parity of the identity's v-th variable."""
    for name in SUITE_NAMES:
        spec = suite(name)
        binding = binding_for(_MIXED_DENOMINATORS, spec)
        for identity in spec.identities:
            scale, compiled = engine._compile(binding, identity)
            n = identity.arity
            assert len(compiled) == len(identity.terms)
            for term, (node, coding) in zip(identity.terms, compiled):
                assert len(coding.weights) == 1 << n and coding.mask == (1 << n) - 1
                for mask in range(1 << n):
                    parities = {var: mask >> v & 1 for v, var in enumerate(identity.variables)}
                    expected = term.coefficient * scale / node.scale * term.sign.sign(parities)
                    assert coding.weights[mask] == expected, (name, identity.name, mask)


_ORACLE = ("evaluate_on_elements", "_evaluate_expr", "_term_residue", "_twist_powers")


def test_oracle_shares_nothing_with_the_kernel():
    """The element-level oracle names no kernel helper, node class, node or
    coding method or table, and reads no binding attribute but ``space``,
    ``op`` and ``twist``."""
    tree = ast.parse(inspect.getsource(engine))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    node_classes = {
        name for name, value in vars(engine).items() if isinstance(value, type) and issubclass(value, engine._Node)
    }
    tables = set(StructureBinding.__slots__) - set(StructureBinding._fields)
    helpers = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in _ORACLE
    }
    methods = {
        item.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in node_classes | {"_Coding"}
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
    }
    assert node_classes == {"_Node", "_Leaf", "_Product"} and tables
    assert {
        "_plan", "_compile", "_shape", "_Shape", "_chunk", "_chunks", "_branches", "_components", "_Coding", "_columns",
        "_decode", "_signs", "_mapped", "_within",
    } <= helpers
    assert {"coded", "table", "at", "_join", "accumulate", "_accumulate", "_arguments", "_widening"} <= methods
    assert "_facts" in tables
    symbolic = {"plan", "symmetries", "slot_symmetry", "symmetric_pairs", "normal_form", "orbit_pairs", "normal"}
    kernel = {"_node", "_tensor", "_twist_columns", "_SHAPES", "_ONE_PASS", "_ORBITS"} | symbolic | helpers | methods | tables
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


def test_oracle_builds_twist_powers_once_per_twist(ex51, monkeypatch):
    """A walk that evaluates one identity on one binding tuple after tuple
    builds each twist power once."""
    built = []
    monkeypatch.setattr(engine, "power", lambda twist, n: built.append(n) or core.power(twist, n))
    engine._twist_powers.cache_clear()
    identity = parse_identity("A^2((x*y)) - (A(x)*A(y)) = 0")
    binding = star_binding(HomSuperalgebra(ex51.binary, example_5_1_beta(2, 3)))
    for x, y in itertools.product(SPACE_1_2.names, repeat=2):
        evaluate_on_elements(identity, binding, {"x": SPACE_1_2.basis_vector(x), "y": SPACE_1_2.basis_vector(y)})
    engine._twist_powers.cache_clear()
    assert built == [0, 1, 2]


_PRODUCTS = {"bin_mul", "tern_mul"}


def test_element_products_serve_only_the_oracle():
    """In the package, ``bin_mul`` and ``tern_mul`` are named only by their
    definitions in ``structures``, by the engine's import and by the
    oracle's functions: no other code evaluates a product element-wise."""
    found = set()
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            owner = getattr(statement, "name", "import" if isinstance(statement, ast.ImportFrom) else "module")
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    name = getattr(node, "name", None)  # a definition or an imported name
                if name in _PRODUCTS:
                    found.add((path.stem, owner))
    allowed = {("structures", name) for name in _PRODUCTS} | {("engine", name) for name in ("import", *_ORACLE)}
    assert found and found <= allowed, found - allowed


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
# the kernel's per-index path (the tuples whose first variable is the last
# basis vector).
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


# At the first failing tuple of each identity in _MIXED_TOP_KINDS, terms whose
# top nodes are of different kinds add opposite signs to one component.
_TOPS = SuperSpace.build([("e0", 0), ("e1", 1)])
_MIXED_TOPS = HomBinaryTernary(
    BinaryStructure.from_table(_TOPS, {("e1", "e0"): {"e1": -1}, ("e1", "e1"): {"e0": -1}}),
    TernaryStructure.from_table(
        _TOPS,
        {
            ("e0", "e0", "e0"): {"e0": 1},
            ("e0", "e0", "e1"): {"e1": 1},
            ("e0", "e1", "e1"): {"e0": 2},
            ("e1", "e0", "e0"): {"e1": 1},
            ("e1", "e0", "e1"): {"e0": 1},
        },
    ),
    EvenMap(_TOPS, ((2, 0), (0, 3))),
)
_MIXED_TOP_KINDS = {
    ("HOM_BOL", "binary_multiplicativity"): {("_Product", 2, 1), ("_Product", 2, 0)},
    ("HOM_BOL", "ternary_multiplicativity"): {("_Product", 3, 1), ("_Product", 3, 0)},
    ("HOM_BOL", "binary_ternary_compat"): {("_Product", 3, 0), ("_Product", 2, 0)},
}


def _top_kind(node, shape):
    """A top node's class, for a product its number of arguments, and the
    twist power folded into it."""
    return type(node).__name__, len(node.args) if isinstance(node, engine._Product) else None, shape.power


def test_mixed_tops_example_mixes_top_node_kinds():
    space = _MIXED_TOPS.space
    for (name, identity_name), kinds in _MIXED_TOP_KINDS.items():
        spec = suite(name)
        binding = binding_for(_MIXED_TOPS, spec)
        identity = next(identity for identity in spec.identities if identity.name == identity_name)
        report = check(binding, identity)
        names = zip(identity.variables, report.counterexample)
        assignment = {var: space.basis_vector(space.index(n)) for var, n in names}
        signs = set()
        for term, (shape, *_) in zip(identity.terms, engine._plan(identity)):
            value = evaluate_on_elements(Identity(identity.name, identity.variables, (term,)), binding, assignment)
            kind = _top_kind(binding._node(shape), shape)
            signs.update((kind, target, c > 0) for target, c in value.coords.items())
        assert any(
            (other, target, not positive) in signs
            for kind, target, positive in signs
            if kind in kinds
            for other in kinds - {kind}
        ), identity_name


# Binary, ternary and twist symbols, three signs and a non-unit coefficient.
_PLAN_TEXT = "[A(x),{y,z,w}] - (-1)^{x.y + z} {A(y),[x,z],A(w)} + 1/2 A^2({[x,y],z,w}) = 0"


def _bracket_braces(structure: HomBinaryTernary) -> StructureBinding:
    return StructureBinding(structure.space, {"[]": structure.binary, "{}": structure.ternary}, structure.twist)


def test_identity_plan_holds_no_binding_values():
    """One identity checked on binding A, then B, then a fresh A reports what
    a freshly parsed copy reports on a fresh binding each time: the plan kept
    on the identity carries nothing of the binding that built it."""
    identity = parse_identity(_PLAN_TEXT, name="plan")
    structures = (_MIXED_DENOMINATORS, _LAST_FIRST, _MIXED_DENOMINATORS)
    reports = [check(_bracket_braces(structures[0]), identity)]
    plan = identity.plan
    reports += [check(_bracket_braces(structure), identity) for structure in structures[1:]]
    assert identity.plan is plan
    assert reports == [check(_bracket_braces(s), parse_identity(_PLAN_TEXT, name="plan")) for s in structures]
    assert not reports[0].passed and not reports[1].passed and reports[0] != reports[1]


def test_later_checks_reuse_the_plan(monkeypatch):
    """After an identity's first check, a check on a fresh binding builds no
    shape and hashes no identity, term, expression or sign."""
    identity = parse_identity(_PLAN_TEXT, name="plan")
    first = check(_bracket_braces(_LAST_FIRST), identity)

    def forbidden(*args):
        raise AssertionError("structure-free compile work repeated")

    monkeypatch.setattr(engine, "_shape", forbidden)
    for kind in (dsl.Identity, dsl.Term, dsl.Call, dsl.Twist, dsl.Var, dsl.SignPoly):
        monkeypatch.setattr(kind, "__hash__", forbidden)
    assert check(_bracket_braces(_LAST_FIRST), identity) == first


def test_sub_terms_equal_up_to_renaming_share_one_node():
    """Two identities whose terms and sub-terms are equal up to renaming get
    one shape per sub-term, so the second builds no node on the binding the
    first was checked on."""
    first = parse_identity("((x*y)*A(z)) - (A(x)*(y*z)) = 0")
    second = parse_identity("(A(u)*(w*v)) - ((v*w)*A(u)) = 0")
    binding = star_binding(HomSuperalgebra(_MIXED_DENOMINATORS.binary, _MIXED_DENOMINATORS.twist))
    check(binding, first)
    nodes = dict(binding._nodes)
    check(binding, second)
    assert all(a[0] is b[0] for a, b in zip(first.plan, reversed(second.plan)))
    assert binding._nodes == nodes and len(set(nodes.values())) == 5


def test_products_of_one_node_share_one_node(ex51_bol):
    """Under an identity twist ``A(x)`` reads the node of ``x``, so
    ``(A(x)*A(y))`` reads the product node of ``(x*y)``: HOM_BOL on the
    untwisted example_5_1_bol builds 9 product nodes, not one per shape."""
    identity = parse_identity("(A(x)*A(y)) - (x*y) = 0")
    binding = star_binding(plus_algebra(builtin_example("example_5_1")))
    assert check(binding, identity).passed
    assert binding._node(identity.plan[0][0]) is binding._node(identity.plan[1][0])
    spec = suite("HOM_BOL")
    binding = binding_for(ex51_bol, spec)
    assert all(check(binding, identity).passed for identity in spec.identities)
    assert sum(isinstance(node, engine._Product) for node in set(binding._nodes.values())) == 9


def test_chunks_hold_only_tuples_of_their_index():
    """Every code of a chunk of a chunked check decodes to a tuple whose
    first variable has the chunk's basis index, wherever that variable sits
    in a term: a non-first product argument is restricted as the first is.
    Once the skew checks have given the binding its slot symmetries, every
    code of a restricted check, chunked or in one pass, decodes to an orbit
    representative: a tuple sorted on each of the check's orbit pairs."""
    structure = bol_from_right_alternative(bench_families().matrix_superalgebra(2, 1), checked=False)
    spec, dim = suite("BOL"), structure.space.dim
    binding = binding_for(structure, spec)
    identities = [identity for identity in spec.identities if identity.arity == 5]
    assert identities and dim**5 > engine._ONE_PASS
    outside = unsorted = visited = 0
    for identity in identities:
        _, terms = engine._compile(binding, identity)
        for index, bounds in enumerate(engine._chunks((), dim, 5)):
            outside += sum(engine._decode(code, dim, 5)[0] != index for code in engine._chunk(terms, bounds))
    assert all(check(binding, identity).passed for identity in spec.identities[:2])
    for one_pass in _ONE_PASS_LIMITS.values():
        with mock.patch.object(engine, "_ONE_PASS", one_pass):
            for identity in identities:
                pairs = normal.orbit_pairs(identity, binding._facts)
                assert pairs == ((0, 1), (2, 3))
                _, terms = engine._compile(binding, identity)
                for index, bounds in enumerate(engine._chunks(pairs, dim, 5)):
                    tuples = [engine._decode(code, dim, 5) for code in engine._chunk(terms, bounds)]
                    visited += len(tuples)
                    outside += sum(t[0] != index for t in tuples) if one_pass == 0 else 0
                    unsorted += sum(t[p] > t[q] for t in tuples for p, q in pairs)
    assert visited and outside == unsorted == 0


def test_kept_tables_hold_no_zeros():
    """After suites of two to five variables run, no node table their
    bindings keep holds an empty vector or a zero coordinate."""
    families = bench_families()
    m21 = families.matrix_superalgebra(2, 1)
    runs = (
        (m21, "RIGHT_ALT"),
        (m21, "EQ_3_2"),
        (m21, "LEMMA_2_4"),
        (plus_algebra(m21), "JORDAN"),
        (bol_from_right_alternative(m21, checked=False), "BOL"),
        (plus_algebra(builtin_example("example_5_1")), "HOM_JORDAN"),
    )
    zeros = 0
    for structure, name in runs:
        spec = suite(name)
        binding = binding_for(structure, spec)
        assert all(check(binding, identity).passed for identity in spec.identities), name
        for node in set(binding._nodes.values()):
            zeros += sum(not vector or 0 in vector.values() for vector in (node._table or {}).values())
    assert zeros == 0


def test_associator_reads_its_sides_from_kept_tables():
    """An associator whose two sides an earlier identity kept as sub-term
    tables walks them at opposite signs, as a fresh binding fuses them."""
    algebra = HomSuperalgebra(_MIXED_DENOMINATORS.binary, _MIXED_DENOMINATORS.twist)
    sides = parse_identity("(((x*y)*A(z))*w) - ((A(x)*(y*z))*w) = 0", name="sides")
    associator = suite("RIGHT_HOM_ALT").identities[0]
    binding = star_binding(algebra)
    check(binding, sides)
    report = check(binding, associator)
    assert report == check(star_binding(algebra), associator)
    assert not report.passed


# Each residue path of the kernel, forced by the largest check it builds in
# one chunk: every check in one chunk, or every check one chunk per basis
# index of its first variable.  The limit is patched inside a test body, since
# hypothesis refuses function-scoped fixtures.
_ONE_PASS_LIMITS = {"one-pass": math.inf, "per-index": 0}
_residue_paths = pytest.mark.parametrize("one_pass", _ONE_PASS_LIMITS.values(), ids=_ONE_PASS_LIMITS.keys())


@_residue_paths
@_differential
@given(graded_structures())
@example(_LAST_FIRST)
@example(_MIXED_TOPS)
@example(_MIXED_DENOMINATORS)
def test_kernel_agrees_with_element_evaluation(one_pass, structure):
    with mock.patch.object(engine, "_ONE_PASS", one_pass):
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


def _every_symbol(structure: HomBinaryTernary) -> StructureBinding:
    """``*`` and ``[]`` bound to the binary tensor, ``o`` to its transpose,
    ``{}`` to the ternary tensor and ``<>`` to it with its arguments rotated."""
    space, binary, ternary = structure.space, structure.binary.constants, structure.ternary.constants
    transposed = BinaryStructure(space, {(j, i): value for (i, j), value in binary.items()})
    rotated = TernaryStructure(space, {(j, k, i): value for (i, j, k), value in ternary.items()})
    ops = {"*": structure.binary, "[]": structure.binary, "o": transposed, "{}": structure.ternary, "<>": rotated}
    return StructureBinding(space, ops, structure.twist)


def _reference_table(binding, identity):
    """The element-level evaluation's nonzero values on every basis tuple, in
    lexicographic order."""
    space, table = binding.space, {}
    for indices in itertools.product(range(space.dim), repeat=identity.arity):
        assignment = {var: space.basis_vector(i) for var, i in zip(identity.variables, indices)}
        value = evaluate_on_elements(identity, binding, assignment)
        if not value.is_zero():
            table[indices] = value
    return table


@settings(_differential, max_examples=30)
@given(graded_structures(2, (70, 100), (40, 70)), random_identities())
def test_random_identities_agree_with_element_evaluation(structure, identity):
    """On random identities over every product symbol, both residue paths
    give the report and the table of a lexicographic walk of the
    element-level evaluation; a skew-closed identity is restricted to the
    orbits of its swap, however small its check."""
    space = structure.space
    table = _reference_table(_every_symbol(structure), identity)
    first = next(iter(table), None)
    expected = CheckReport(
        identity.name,
        first is None,
        space.dim**identity.arity,
        first and tuple(space.names[i] for i in first),
        first and table[first],
    )
    for one_pass in _ONE_PASS_LIMITS.values():
        with mock.patch.object(engine, "_ONE_PASS", one_pass), mock.patch.object(engine, "_ORBITS", 0):
            assert check(_every_symbol(structure), identity) == expected, one_pass
            assert tabulate(_every_symbol(structure), identity) == table, one_pass


def test_one_pass_agrees_with_chunks_above_the_limit():
    """BOL's ``ternary_derivation`` on the mutated bol(M(2|1)) has 9**5
    tuples, above the limit, so it is built one chunk per basis index;
    forced into one chunk it gives the same report and the same table."""
    structure, spec = _mutated_m21()["BOL"], suite("BOL")
    identity = spec.identities[-1]
    assert identity.name == "ternary_derivation" and structure.space.dim**identity.arity > engine._ONE_PASS
    chunked = check(binding_for(structure, spec), identity), tabulate(binding_for(structure, spec), identity)
    with mock.patch.object(engine, "_ONE_PASS", math.inf):
        whole = check(binding_for(structure, spec), identity), tabulate(binding_for(structure, spec), identity)
    assert whole == chunked
    assert chunked[0].counterexample == ("e11", "e12", "e31", "e13", "e31") and chunked[1]


@_residue_paths
def test_tabulate_keeps_the_nonzero_values_of_a_failing_check(one_pass, ex51, monkeypatch):
    """tabulate walks the tuples check walks: its first key is check's
    counterexample and its value there is check's residue."""
    monkeypatch.setattr(engine, "_ONE_PASS", one_pass)
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


# -- orbit restriction ---------------------------------------------------------


def _hom_bol_pipeline(m: int, n: int, entries: tuple) -> HomBinaryTernary:
    """The HOM_BOL pipeline output of M(m|n) twisted by diag(``entries``)."""
    families = bench_families()
    beta = families.diagonal_automorphism(m, n, entries)
    return hom_bol_from_right_hom_alternative(yau_twist_algebra(families.matrix_superalgebra(m, n), beta))


def _perturbed_plus() -> HomSuperalgebra:
    """plus(M(2|1)) with e13 o e31 and e31 o e13 moved by e11 and by its
    supercommuted sign: it stays supercommutative and fails the Jordan
    superidentity."""
    plus = plus_algebra(bench_families().matrix_superalgebra(2, 1))
    space, constants = plus.space, dict(plus.binary.constants)
    i, j, k = map(space.index, ("e13", "e31", "e11"))
    for key, sign in (((i, j), 1), ((j, i), (-1) ** (space.parity(i) * space.parity(j)))):
        constants[key] = constants.get(key, space.zero()) + space.basis_vector(k).scale(sign)
    return HomSuperalgebra(BinaryStructure(space, constants), plus.twist)


# Inputs whose skew or supercommutativity checks pass, so the binding records
# their slot symmetries, and whose heavy identities fail.
_ORBIT_CASES = {
    "M(1|1) diag(1,2)": (lambda: _hom_bol_pipeline(1, 1, (1, 2)), "HOM_BOL"),
    "M(2|1) diag(1,2,3)": (lambda: _hom_bol_pipeline(2, 1, (1, 2, 3)), "HOM_BOL"),
    "M(2|1) diag(1,3,5)": (lambda: _hom_bol_pipeline(2, 1, (1, 3, 5)), "HOM_BOL"),
    "perturbed plus(M(2|1))": (_perturbed_plus, "JORDAN"),
}


@_residue_paths
@pytest.mark.parametrize("case", _ORBIT_CASES)
def test_orbit_restriction_keeps_every_report(one_pass, case, monkeypatch):
    """A suite checked on one binding, each heavy identity restricted to
    orbit representatives by the slot symmetries its earlier checks
    recorded, reports what a fresh binding without facts reports when
    nothing is restricted: verdict, first counterexample, residue and
    ``d**n``.  Every check is restricted here, however small."""
    monkeypatch.setattr(engine, "_ONE_PASS", one_pass)
    monkeypatch.setattr(engine, "_ORBITS", 0)
    build, name = _ORBIT_CASES[case]
    structure, spec = build(), suite(name)
    binding = binding_for(structure, spec)
    restricted = [check(binding, identity) for identity in spec.identities]
    failing = [identity.name for identity, report in zip(spec.identities, restricted) if not report.passed]
    assert failing == (["jordan_superidentity"] if name == "JORDAN" else ["binary_ternary_compat", "ternary_derivation"])
    assert binding._facts and all(
        normal.orbit_pairs(identity, binding._facts) for identity in spec.identities if identity.name in failing
    )
    with mock.patch.object(engine, "_ORBITS", math.inf):
        assert restricted == [check(binding_for(structure, spec), identity) for identity in spec.identities]


@_residue_paths
def test_orbits_keep_their_diagonal(one_pass, monkeypatch):
    """A tuple with equal entries on an orbit pair is its own orbit's
    representative: f*f = e fails supercommutativity at (f, f) alone, and
    the restricted check still reports it."""
    monkeypatch.setattr(engine, "_ONE_PASS", one_pass)
    monkeypatch.setattr(engine, "_ORBITS", 0)
    space = SuperSpace.build([("e", 0), ("f", 1)])
    binding = StructureBinding(space, {"*": BinaryStructure(space, {(1, 1): space.basis_vector(0)})},
                               EvenMap.identity(space))
    identity = suite("SUPERCOMMUTATIVE").identities[0]
    assert normal.orbit_pairs(identity, {}) == ((0, 1),)
    assert check(binding, identity) == CheckReport(identity.name, False, 4, ("f", "f"), space.element({"e": 2}))


def test_a_failed_or_ungraded_slot_symmetry_records_no_fact(monkeypatch):
    """bol(M(2|1)) with one ternary entry moved fails skew_ternary: its
    binding records the bracket's slot symmetry only, the derivation finds
    no orbit pair, and every report is a fresh binding's.  A bracket that
    passes skew_binary but is not graded records none."""
    monkeypatch.setattr(engine, "_ORBITS", 0)
    bol = bol_from_right_alternative(bench_families().matrix_superalgebra(2, 1), checked=False)
    space, ternary = bol.space, dict(bol.ternary.constants)
    key = tuple(map(space.index, ("e31", "e13", "e32")))
    ternary[key] = ternary.get(key, space.zero()) + space.basis_vector(space.index("e32"))
    structure = HomBinaryTernary(bol.binary, TernaryStructure(space, ternary), bol.twist)
    spec = suite("BOL")
    binding = binding_for(structure, spec)
    reports = [check(binding, identity) for identity in spec.identities]
    assert [report.passed for report in reports[:2]] == [True, False]
    assert set(binding._facts) == {("[]", 0, 1)}
    assert normal.orbit_pairs(spec.identities[-1], binding._facts) == ()
    with mock.patch.object(engine, "_ORBITS", math.inf):
        assert reports == [check(binding_for(structure, spec), identity) for identity in spec.identities]
    # [e0, e1] = e0 is skew but lands in the wrong parity
    odd = SuperSpace.build([("e0", 0), ("e1", 1)])
    ungraded = BinaryStructure(odd, {(0, 1): odd.basis_vector(0), (1, 0): -odd.basis_vector(0)})
    binding = StructureBinding(odd, {"[]": ungraded}, EvenMap.identity(odd))
    assert check(binding, spec.identities[0]).passed and binding._facts == {}


def _from_normal(normal_sum: dict, variables: tuple[str, ...]) -> Identity:
    """The identity whose terms are the formal sum ``normal_sum`` of
    :func:`normal.normal_form`, over ``variables``."""

    def expr(key):
        kind, power, *args = key
        inner = Var(variables[args[0]]) if kind == "" else Call(kind, tuple(map(expr, args)))
        return Twist(power, inner) if power else inner

    terms = tuple(
        Term(Fraction(c), SignPoly(frozenset(frozenset(variables[v] for v in mono) for mono in signs)), expr(key))
        for (key, signs), c in normal_sum.items()
    )
    return Identity("normal", variables, terms)


def _normal_forms_agree(binding: StructureBinding, identity: Identity, facts: dict) -> bool:
    """Whether, on ``binding``, the normal form of ``identity`` with each
    pair of its variables swapped, and unswapped, takes the values of
    ``identity`` at the swapped tuples, by :func:`tabulate`."""
    table = tabulate(binding, identity)
    for swap in [(), *itertools.combinations(range(identity.arity), 2)]:
        order = list(range(identity.arity))
        for v in swap:
            order[v] = sum(swap) - v
        expected = {tuple(t[v] for v in order): value for t, value in table.items()}
        if tabulate(binding, _from_normal(normal.normal_form(identity, facts, swap), identity.variables)) != expected:
            return False
    return True


def test_normal_form_agrees_with_the_kernel_and_a_broken_one_does_not():
    """On the failing HOM_BOL pipeline output of M(1|1), whose skew checks
    pass, the normal forms of its two heavy identities under every swap
    take the kernel's values.  Read under facts without the |a||b| sign,
    or with the sign c flipped, some normal form does not."""
    structure, spec = _hom_bol_pipeline(1, 1, (1, 2)), suite("HOM_BOL")
    binding = binding_for(structure, spec)
    assert all(check(binding, identity).passed for identity in spec.identities[:5])
    facts = dict(binding._facts)
    assert facts == {key: (-1, frozenset({frozenset({0, 1})})) for key in (("[]", 0, 1), ("{}", 0, 1))}
    heavy = spec.identities[5:]
    assert all(_normal_forms_agree(binding_for(structure, spec), identity, facts) for identity in heavy)
    unsigned = {key: (c, frozenset()) for key, (c, q) in facts.items()}
    flipped = {key: (-c, q) for key, (c, q) in facts.items()}
    for broken in (unsigned, flipped):
        assert not all(_normal_forms_agree(binding_for(structure, spec), identity, broken) for identity in heavy)


def test_orbit_pairs_of_the_suites():
    """Under the slot symmetries of their suites' skew and
    supercommutativity checks, the heavy identities restrict to these
    disjoint pairs of variable positions, and none without facts.  The
    cyclic sum is alternating, but each of its pairs lies across two later
    arguments of one of its rotated terms, so it restricts to none."""
    skew = {key: (-1, frozenset({frozenset({0, 1})})) for key in (("[]", 0, 1), ("{}", 0, 1))}
    supercommutative = {("*", 0, 1): (1, frozenset({frozenset({0, 1})}))}
    expected = {
        ("HOM_BOL", "binary_ternary_compat"): ((0, 1), (2, 3)),
        ("HOM_BOL", "ternary_derivation"): ((0, 1), (2, 3)),
        ("HOM_BOL", "binary_multiplicativity"): ((0, 1),),
        ("LIE_TRIPLE", "ternary_cyclic_sum"): (),
        ("HOM_LIE_TRIPLE", "ternary_derivation_twisted"): ((0, 1), (2, 3)),
        ("JORDAN", "jordan_superidentity"): ((0, 1),),
        ("HOM_JORDAN", "jordan_superidentity_expanded"): ((0, 2),),
    }
    for (name, identity_name), pairs in expected.items():
        identity = next(identity for identity in suite(name).identities if identity.name == identity_name)
        facts = supercommutative if "JORDAN" in name else skew
        assert normal.orbit_pairs(identity, facts) == pairs, identity_name
        assert normal.orbit_pairs(identity, {}) == (), identity_name


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
    space, binary, ternary = structure.space, structure.binary, structure.ternary
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

    assert jordan_lts_bracket(untwisted, checked=False).ternary.constants == _table(space, 3, lts_bracket)

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
    binary = HomSuperalgebra.untwisted(structure.binary)
    ternary = HomTripleSystem.untwisted(structure.ternary)
    cases = [
        (is_multiplicative(structure), structure, twist, 1),
        (is_even_self_morphism(structure, identity), structure, identity, 1),
        (is_even_self_morphism(binary, twist), binary, twist, 1),
        (is_even_self_morphism(ternary, twist), ternary, twist, 1),
        (is_even_self_morphism(HomSuperalgebra(structure.binary, twist), twist), binary, twist, 1),
    ]
    for report, reference_structure, f, preamble in cases:
        expected = _morphism_reference(reference_structure, f, preamble)
        assert (report.passed, report.counterexample, report.residue, report.tuples_checked) == expected
    # The identity map is a morphism of every structure.
    assert cases[1][0].passed
