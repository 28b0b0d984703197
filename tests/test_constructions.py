import inspect
import itertools
from fractions import Fraction

import pytest

import reference
from superbol.catalog import (
    SPACE_1_2,
    example_5_1_beta,
    form_1_2,
    form_preserving_map,
    jordan_form_triple,
)
from superbol import constructions
from superbol.constructions import (
    BilinearForm,
    ConstructionError,
    bilinear_form_triple,
    bol_from_right_alternative,
    hom_bol_from_right_hom_alternative,
    hom_jordan_triple,
    jordan_lts_bracket,
    lie_triple_from_jordan_triple,
    minus_algebra,
    nth_derived,
    plus_algebra,
    yau_twist_algebra,
    yau_twist_bol,
    yau_twist_triple,
)
from superbol.core import EvenMap, SuperSpace, apply_map, power
from superbol.structures import (
    BinaryStructure,
    Convention,
    HomBinaryTernary,
    HomStructure,
    HomSuperalgebra,
    bin_mul,
    tern_mul,
)
from superbol.storage import AlgebraDocument, load, save
from superbol.suites import run_suite
from superbol import builtin_example

UNIT, HALF = Convention.UNIT, Convention.HALF


def b(name):
    return SPACE_1_2.basis_vector(name)


def one_dim_commutative():
    space = SuperSpace.build([("e", 0)])
    binary = BinaryStructure.from_table(space, {("e", "e"): {"e": 1}})
    return HomSuperalgebra.untwisted(binary)


def test_minus_algebra_tables(ex51):
    minus = minus_algebra(ex51, UNIT)
    assert bin_mul(minus.binary, b("j"), b("k")) == SPACE_1_2.element({"i": 6})
    assert bin_mul(minus.binary, b("k"), b("j")) == SPACE_1_2.element({"i": 6})
    assert bin_mul(minus.binary, b("i"), b("j")).is_zero()
    assert bin_mul(minus.binary, b("j"), b("i")).is_zero()
    assert bin_mul(minus.binary, b("k"), b("k")).is_zero()
    half = minus_algebra(ex51, HALF)
    for key, value in half.binary.constants.items():
        assert value == minus.binary.constants[key].scale(Fraction(1, 2))


def test_minus_of_commutative_even_algebra_is_zero():
    minus = minus_algebra(one_dim_commutative(), UNIT)
    assert not minus.binary.constants


def test_plus_algebra_tables(ex51):
    plus = plus_algebra(ex51, UNIT)
    assert bin_mul(plus.binary, b("i"), b("j")) == SPACE_1_2.element({"k": 2})
    assert bin_mul(plus.binary, b("j"), b("k")) == SPACE_1_2.element({"i": -2})
    assert bin_mul(plus.binary, b("k"), b("j")) == SPACE_1_2.element({"i": 2})
    assert run_suite(plus, "SUPERCOMMUTATIVE").passed


def test_plus_of_supercommutative_algebra_is_itself_at_half(grassmann):
    plus = plus_algebra(grassmann, HALF)
    assert plus.binary == grassmann.binary


def test_jordan_lts_bracket_values(plus51):
    lts = jordan_lts_bracket(plus51)
    i, j = b("i"), b("j")
    assert tern_mul(lts.ternary, i, j, j) == SPACE_1_2.element({"i": 8})
    for name in SPACE_1_2.names:
        assert tern_mul(lts.ternary, i, i, SPACE_1_2.basis_vector(name)).is_zero()
    assert lts.twist.is_identity()
    assert run_suite(lts, "LIE_TRIPLE").passed


def test_jordan_lts_bracket_rejects_noncommutative(ex51):
    with pytest.raises(ConstructionError) as err:
        jordan_lts_bracket(ex51)
    assert err.value.stage == "jordan_lts_bracket"


def test_jordan_lts_bracket_requires_identity_twist(plus51):
    twisted = HomSuperalgebra(plus51.binary, example_5_1_beta(2, 0))
    with pytest.raises(ConstructionError):
        jordan_lts_bracket(twisted)


def test_bol_construction_matches_shipped_table(ex51, ex51_bol):
    built = bol_from_right_alternative(ex51, UNIT)
    assert built.binary == ex51_bol.binary
    assert built.ternary == ex51_bol.ternary
    assert built.twist.is_identity()


def test_bol_construction_precondition(ex51):
    constants = dict(ex51.binary.constants)
    constants[(1, 2)] = SPACE_1_2.element({"i": 3})
    mutated = HomSuperalgebra(BinaryStructure(SPACE_1_2, constants), ex51.twist)
    with pytest.raises(ConstructionError):
        bol_from_right_alternative(mutated, UNIT)
    unchecked = bol_from_right_alternative(mutated, UNIT, checked=False)
    assert bin_mul(unchecked.binary, b("j"), b("k")) == SPACE_1_2.element({"i": 7})


def test_bol_ternary_of_associative_commutative_even_input_is_zero():
    built = bol_from_right_alternative(one_dim_commutative(), UNIT)
    assert not built.ternary.constants


def test_bol_ternary_agrees_with_bracket_closed_form(ex51, ex51_bol):
    # second evaluation path: 4[[x,y],z] - 2(-1)^{|z|(|x|+|y|)} as(z,x,y),
    # brackets at the half normalization, matches the unit-built tensor
    def half_bracket(x, y):
        return reference.graded(ex51.binary, HALF.factor, -1, x, y)

    for names in itertools.product(SPACE_1_2.names, repeat=3):
        x, y, z = (b(n) for n in names)
        px, py, pz = (SPACE_1_2.parity(SPACE_1_2.index(n)) for n in names)
        sign = -1 if (pz * (px + py)) % 2 else 1
        alternate = half_bracket(half_bracket(x, y), z).scale(4) - reference.associator(
            ex51, z, x, y
        ).scale(2 * sign)
        assert tern_mul(ex51_bol.ternary, x, y, z) == alternate


def test_hom_jordan_triple_values(plus51):
    triple = hom_jordan_triple(plus51)
    i, j = b("i"), b("j")
    assert tern_mul(triple.ternary, i, j, j) == SPACE_1_2.element({"i": 8})
    assert tern_mul(triple.ternary, j, i, j).is_zero()
    assert triple.twist.is_identity()
    assert run_suite(triple, "HOM_JORDAN_TRIPLE").passed


def test_hom_jordan_triple_rejects_non_jordan(ex51):
    with pytest.raises(ConstructionError):
        hom_jordan_triple(ex51)


def test_triple_element_matches_tensor(plus51):
    triple = hom_jordan_triple(plus51)
    for names in itertools.product(SPACE_1_2.names, repeat=3):
        x, y, z = (b(n) for n in names)
        assert reference.jordan_triple(plus51, x, y, z) == tern_mul(triple.ternary, x, y, z)


def test_lie_triple_from_jordan_triple(plus51):
    triple = hom_jordan_triple(plus51)
    lie = lie_triple_from_jordan_triple(triple)
    i, j = b("i"), b("j")
    assert tern_mul(lie.ternary, i, j, j) == SPACE_1_2.element({"i": 8})
    for name in SPACE_1_2.names:
        assert tern_mul(lie.ternary, i, i, SPACE_1_2.basis_vector(name)).is_zero()
    assert run_suite(lie, "HOM_LIE_TRIPLE").passed


def test_hom_bol_pipeline_matches_direct_construction_at_identity_twist(ex51, ex51_bol):
    built = hom_bol_from_right_hom_alternative(ex51, UNIT)
    assert built.ternary == ex51_bol.ternary
    assert built.binary == ex51_bol.binary
    assert built.twist.is_identity()
    assert run_suite(built, "HOM_BOL").passed


def test_hom_bol_pipeline_zero_algebra():
    space = SPACE_1_2
    zero = HomSuperalgebra.untwisted(BinaryStructure.zero(space))
    built = hom_bol_from_right_hom_alternative(zero, UNIT)
    assert not built.binary.constants and not built.ternary.constants


def test_hom_bol_pipeline_stage_error(ex51):
    constants = dict(ex51.binary.constants)
    constants[(1, 2)] = SPACE_1_2.element({"i": 3})
    mutated = HomSuperalgebra(BinaryStructure(SPACE_1_2, constants), ex51.twist)
    with pytest.raises(ConstructionError) as err:
        hom_bol_from_right_hom_alternative(mutated, UNIT)
    assert err.value.stage == "input"


def test_yau_twist_algebra_values(ex51):
    beta = example_5_1_beta(2, 0)
    twisted = yau_twist_algebra(ex51, beta, 1)
    assert bin_mul(twisted.binary, b("j"), b("k")) == SPACE_1_2.element({"i": 4})
    assert twisted.twist == beta
    assert run_suite(twisted, "RIGHT_HOM_ALT").passed


def test_yau_twist_algebra_rejects_non_morphism(ex51):
    with pytest.raises(ConstructionError):
        yau_twist_algebra(ex51, example_5_1_beta(2, 3), 1)


def test_yau_twist_bol_morphism_case(ex51_bol):
    beta = example_5_1_beta(2, 0)
    twisted = yau_twist_bol(ex51_bol, beta, 1)
    assert bin_mul(twisted.binary, b("j"), b("k")) == SPACE_1_2.element({"i": 12})
    assert tern_mul(twisted.ternary, b("i"), b("j"), b("j")) == SPACE_1_2.element({"i": 16})
    assert run_suite(twisted, "HOM_BOL").passed


def test_yau_twist_bol_rejects_b_column(ex51_bol):
    # the (j,j) bracket image picks up b([j,k]+[k,j]) != 0, so the map is not
    # a self-morphism and the checked construction refuses it
    with pytest.raises(ConstructionError) as err:
        yau_twist_bol(ex51_bol, example_5_1_beta(2, 3), 1)
    assert err.value.report.counterexample == ("j", "j")


def test_yau_twist_bol_unchecked_matches_shipped_twisted_table(ex51_bol):
    for a, bb in ((2, 3), (-1, 0), (Fraction(1, 2), 5)):
        beta = example_5_1_beta(a, bb)
        twisted = yau_twist_bol(ex51_bol, beta, 1, checked=False)
        shipped = builtin_example(f"example_5_1_hombol({a},{bb})")
        assert twisted.binary == shipped.binary
        assert twisted.ternary == shipped.ternary
        assert twisted.twist == shipped.twist


def test_yau_twist_identity_map_is_noop(ex51_bol):
    identity = EvenMap.identity(SPACE_1_2)
    assert yau_twist_bol(ex51_bol, identity, 3) == ex51_bol


def test_yau_twist_triple_negation_flips_sign():
    triple = jordan_form_triple(1)
    space = triple.space
    neg = EvenMap(space, tuple(tuple(-Fraction(int(r == c)) for c in range(3)) for r in range(3)))
    twisted = yau_twist_triple(triple, neg, 1)
    for key, value in triple.ternary.constants.items():
        assert twisted.ternary.constants[key] == -value
    assert run_suite(twisted, "HOM_JORDAN_TRIPLE").passed


def test_yau_twist_triple_power_composes():
    triple = jordan_form_triple(1)
    beta = form_preserving_map()
    assert yau_twist_triple(triple, beta, 2) == yau_twist_triple(
        yau_twist_triple(triple, beta, 1), beta, 1
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_derived_closure_on_valid_input(n):
    hombol = builtin_example("example_5_1_hombol(2,0)")
    assert run_suite(nth_derived(hombol, n), "HOM_BOL").passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twist_closure_on_valid_input(ex51_bol, n):
    twisted = yau_twist_bol(ex51_bol, example_5_1_beta(3, 0), n)
    assert run_suite(twisted, "HOM_BOL").passed
    triple = yau_twist_triple(jordan_form_triple(1), form_preserving_map(), n)
    assert run_suite(triple, "HOM_JORDAN_TRIPLE").passed


def test_nth_derived_values():
    hombol = builtin_example("example_5_1_hombol(2,3)")
    assert nth_derived(hombol, 0) == hombol
    first = nth_derived(hombol, 1)
    assert bin_mul(first.binary, b("j"), b("k")) == SPACE_1_2.element({"i": 24})
    assert apply_map(first.twist, b("k")) == SPACE_1_2.element({"k": 4})
    assert first.twist == power(hombol.twist, 2)
    with pytest.raises(ValueError):
        nth_derived(hombol, -1)


def test_nth_derived_of_an_involution_twist_is_periodic(ex51_bol):
    """An involution's powers 2^n - 1 and 2^(n+1) - 2 are itself and the
    identity for every n >= 1, so any derived structure equals the first."""
    involution = EvenMap(SPACE_1_2, ((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    structure = HomBinaryTernary(ex51_bol.binary, ex51_bol.ternary, involution)
    assert nth_derived(structure, 64) == nth_derived(structure, 1)


def test_bilinear_form_validation():
    space = SuperSpace.build([("e", 0), ("f1", 1), ("f2", 1)])
    with pytest.raises(ValueError, match="mixed-parity"):
        BilinearForm(space, ((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="supersymmetric"):
        BilinearForm(space, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    gram = form_1_2().gram
    assert gram == ((1, 0, 0), (0, 0, 1), (0, -1, 0))
    # beta^T G beta = G, with the map's columns the images of the basis vectors
    beta, dims = form_preserving_map().matrix, range(space.dim)
    assert tuple(
        tuple(sum(beta[k][i] * gram[k][m] * beta[m][j] for k in dims for m in dims) for j in dims) for i in dims
    ) == gram


def test_bilinear_form_triple_values():
    triple = bilinear_form_triple(form_1_2(), 1)
    space = triple.space
    e, f1, f2 = (space.basis_vector(n) for n in ("e", "f1", "f2"))
    assert tern_mul(triple.ternary, e, e, e) == e
    assert tern_mul(triple.ternary, f1, f1, e).is_zero()
    assert tern_mul(triple.ternary, f1, f2, e) == e
    scaled = bilinear_form_triple(form_1_2(), -2)
    assert tern_mul(scaled.ternary, e, e, e) == e.scale(-2)


@pytest.mark.parametrize("lam", [1, -2])
def test_bilinear_form_triple_satisfies_axioms(lam):
    assert run_suite(bilinear_form_triple(form_1_2(), lam), "JORDAN_TRIPLE").passed


def test_construction_outputs_stay_multiplicative(ex51, ex51_bol):
    from superbol.structures import is_multiplicative

    twisted = yau_twist_algebra(ex51, example_5_1_beta(2, 0), 1)
    outputs = [
        minus_algebra(twisted, UNIT),
        plus_algebra(twisted, UNIT),
        bol_from_right_alternative(ex51, UNIT),
        hom_bol_from_right_hom_alternative(twisted, UNIT),
        hom_jordan_triple(plus_algebra(twisted, UNIT)),
        lie_triple_from_jordan_triple(hom_jordan_triple(plus_algebra(twisted, UNIT))),
        yau_twist_bol(ex51_bol, example_5_1_beta(2, 0), 2),
        nth_derived(builtin_example("example_5_1_hombol(2,0)"), 2),
    ]
    for built in outputs:
        assert is_multiplicative(built).passed


def test_builtin_example_parsing():
    assert builtin_example(" example_5_1 ").binary
    hombol = builtin_example("example_5_1_hombol(1/2, 5)")
    assert bin_mul(hombol.binary, b("j"), b("k")) == SPACE_1_2.element({"i": 3})
    with pytest.raises(KeyError):
        builtin_example("unknown_table")
    with pytest.raises(ValueError):
        builtin_example("example_5_1_hombol(0, 1)")
    with pytest.raises(ValueError):
        builtin_example("example_5_1_hombol(1,2,3)")
    with pytest.raises(ValueError):
        builtin_example("example_5_1_hombol(1,2")


def test_every_construction_returns_a_structure_that_round_trips(tmp_path, ex51, ex51_bol):
    plus = plus_algebra(ex51, UNIT)
    triple = hom_jordan_triple(plus)
    beta = example_5_1_beta(2, 0)
    built = {
        "minus_algebra": minus_algebra(ex51, UNIT),
        "plus_algebra": plus,
        "jordan_lts_bracket": jordan_lts_bracket(plus),
        "bol_from_right_alternative": bol_from_right_alternative(ex51, UNIT),
        "hom_jordan_triple": triple,
        "lie_triple_from_jordan_triple": lie_triple_from_jordan_triple(triple),
        "hom_bol_from_right_hom_alternative": hom_bol_from_right_hom_alternative(ex51, UNIT),
        "yau_twist_algebra": yau_twist_algebra(ex51, beta),
        "yau_twist_bol": yau_twist_bol(ex51_bol, beta),
        "yau_twist_triple": yau_twist_triple(jordan_form_triple(1), form_preserving_map()),
        "nth_derived": nth_derived(builtin_example("example_5_1_hombol(2,0)"), 1),
        "bilinear_form_triple": bilinear_form_triple(form_1_2(), 1),
    }
    public = {
        name for name, value in vars(constructions).items()
        if inspect.isfunction(value) and value.__module__ == constructions.__name__ and not name.startswith("_")
    }
    assert set(built) == public
    for name, structure in built.items():
        assert isinstance(structure, HomStructure), name
        path = tmp_path / f"{name}.json"
        save(AlgebraDocument(name=name, structure=structure), path)
        assert load(path).structure == structure, name
