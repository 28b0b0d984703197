import random

import pytest

from conftest import oracle_agreement, random_element
from superbol.catalog import SPACE_1_2
from superbol.core import EvenMap
from superbol.dsl import parse_identity
from superbol.engine import StructureBinding, UnboundSymbolError, check, evaluate_on_elements
from superbol.structures import BinaryStructure, HomSuperalgebra
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
