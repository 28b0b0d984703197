import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from conftest import oracle_agreement, random_element
from superbol.catalog import SPACE_1_2
from superbol.core import Element, EvenMap, SuperSpace
from superbol.dsl import parse_identity
from superbol.engine import CompiledBinding, StructureBinding, UnboundSymbolError, check, evaluate_on_elements
from superbol.structures import BinaryStructure, HomBinaryTernary, HomSuperalgebra, TernaryStructure
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


def test_compiled_binding_is_shared_by_a_suite(ex51):
    """One compiled binding serves every identity of a suite, in any order."""
    spec = suite("RIGHT_ALT")
    mutated = mutate_jk(ex51)
    compiled = CompiledBinding(binding_for(mutated, spec))
    shared = [check(compiled, identity) for identity in reversed(spec.identities)]
    separate = [check(binding_for(mutated, spec), identity) for identity in reversed(spec.identities)]
    assert shared == separate
    assert not shared[0].passed


# -- the kernel against the element-level evaluation, on random structures ----

_DIFFERENTIAL_SUITES = ("HOM_BOL", "RIGHT_HOM_ALT", "HOM_JORDAN", "EQ_7_10")

_scalars = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _graded_structures(draw):
    """A random (p|q) space of dim <= 4 with a sparse grading-respecting binary
    and ternary tensor and a random even twist, scalars of denominator 1..3."""
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    space = SuperSpace.build((f"e{i}", parity) for i, parity in enumerate(parities))
    dim = space.dim

    def vector(parity):
        coords = {t: draw(_scalars) for t in range(dim) if space.parity(t) == parity and draw(st.booleans())}
        return Element(space, coords)

    def tensor(arity, density):
        return {
            key: vector(sum(map(space.parity, key)) % 2)
            for key in itertools.product(range(dim), repeat=arity)
            if draw(st.integers(0, 99)) < density
        }

    binary = BinaryStructure(space, tensor(2, draw(st.sampled_from((0, 30, 70)))))
    ternary = TernaryStructure(space, tensor(3, draw(st.sampled_from((0, 10, 40)))))
    twist = EvenMap(space, tuple(
        tuple(draw(_scalars) if space.parity(t) == space.parity(s) and draw(st.booleans()) else 0 for s in range(dim))
        for t in range(dim)
    ))
    return HomBinaryTernary(binary, ternary, twist)


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
@settings(
    max_examples=20,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_graded_structures())
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
