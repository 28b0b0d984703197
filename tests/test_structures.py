import itertools

import pytest

import reference
from superbol.catalog import SPACE_1_2, example_3_1, example_5_1_beta, example_5_1_bol
from superbol.constructions import minus_algebra, plus_algebra
from superbol.core import EvenMap, parity_of
from superbol.storage import AlgebraDocument, load, save
from superbol.structures import (
    BinaryStructure,
    Convention,
    TernaryStructure,
    HomBinaryTernary,
    HomSuperalgebra,
    HomTripleSystem,
    bin_mul,
    grading_check,
    is_even_self_morphism,
    is_multiplicative,
    tern_mul,
)

UNIT, HALF = Convention.UNIT, Convention.HALF


def b(name):
    return SPACE_1_2.basis_vector(name)


def test_bin_mul_table_values(ex51):
    assert bin_mul(ex51.binary, b("j"), b("k")) == SPACE_1_2.element({"i": 2})
    assert bin_mul(ex51.binary, b("k"), b("j")) == SPACE_1_2.element({"i": 4})
    assert bin_mul(ex51.binary, b("i"), SPACE_1_2.zero()).is_zero()


def test_tern_mul_table_values(ex31):
    space = ex31.space
    i, j, k = (space.basis_vector(n) for n in ("i", "j", "k"))
    assert tern_mul(ex31.ternary, i, j, i) == space.element({"j": -1})
    assert tern_mul(ex31.ternary, k, i, i) == space.element({"k": 1})
    assert tern_mul(ex31.ternary, i, j, space.zero()).is_zero()


def test_space_mismatch_raises(ex51, ex31):
    with pytest.raises(ValueError):
        bin_mul(ex51.binary, ex31.space.basis_vector("i"), ex31.space.basis_vector("j"))


@pytest.mark.parametrize("kind,key", [(BinaryStructure, (0, 0, 0)), (TernaryStructure, (0, 0)), (BinaryStructure, (0,))])
def test_key_of_the_wrong_length_raises(kind, key):
    with pytest.raises(ValueError):
        kind(SPACE_1_2, {key: b("i")})
    with pytest.raises(ValueError):
        kind.from_table(SPACE_1_2, {tuple("i" for _ in key): {"i": 1}})


@pytest.mark.parametrize(
    "kind_type,kind,present",
    [
        (HomSuperalgebra, "hom_superalgebra", ("binary",)),
        (HomTripleSystem, "hom_triple", ("ternary",)),
        (HomBinaryTernary, "hom_binary_ternary", ("binary", "ternary")),
    ],
)
def test_twisted_structure_kinds_fix_the_absent_product(tmp_path, kind_type, kind, present):
    bol, other, beta = example_5_1_bol(), example_3_1(), example_5_1_beta(2, 0)
    products = {label: getattr(bol, label) for label in present}
    structure = kind_type(*products.values(), beta)
    assert structure == kind_type(**products, twist=beta)
    assert structure.space == SPACE_1_2
    for label in ("binary", "ternary"):
        assert getattr(structure, label) is products.get(label)
    with pytest.raises(ValueError, match="share one superspace"):
        kind_type(*(getattr(other, label) for label in present), beta)
    with pytest.raises(ValueError, match=f"needs a {present[0]} product"):
        kind_type(None, *list(products.values())[1:], beta)
    untwisted = kind_type.untwisted(*products.values())
    assert type(untwisted) is kind_type and untwisted.twist.is_identity()
    assert untwisted == kind_type(*products.values(), EvenMap.identity(SPACE_1_2))

    document = AlgebraDocument(name="t", structure=structure, maps={"beta": beta})
    assert document.kind == kind
    save(document, tmp_path / "t.json")
    loaded = load(tmp_path / "t.json")
    assert loaded.kind == kind and type(loaded.structure) is kind_type and loaded.structure == structure


def test_hom_associator_values(ex51):
    assert reference.associator(ex51, b("j"), b("k"), b("j")) == SPACE_1_2.element({"k": -2})
    assert reference.associator(ex51, SPACE_1_2.zero(), b("j"), b("k")).is_zero()
    assert reference.associator(ex51, b("i"), b("i"), b("i")).is_zero()


def test_hom_associator_identity_twist_matches_three_products(ex51):
    for names in itertools.product(SPACE_1_2.names, repeat=3):
        x, y, z = (b(n) for n in names)
        direct = bin_mul(ex51.binary, bin_mul(ex51.binary, x, y), z) - bin_mul(
            ex51.binary, x, bin_mul(ex51.binary, y, z)
        )
        assert reference.associator(ex51, x, y, z) == direct


def test_super_jordan_values(ex51):
    unit, half = plus_algebra(ex51, UNIT).binary, plus_algebra(ex51, HALF).binary
    assert bin_mul(unit, b("j"), b("k")) == SPACE_1_2.element({"i": -2})
    assert bin_mul(unit, b("j"), b("j")).is_zero()
    assert bin_mul(half, b("i"), b("j")) == SPACE_1_2.element({"k": 1})


def test_supercommutator_values(ex51):
    unit, half = minus_algebra(ex51, UNIT).binary, minus_algebra(ex51, HALF).binary
    assert bin_mul(unit, b("j"), b("k")) == SPACE_1_2.element({"i": 6})
    assert bin_mul(unit, b("i"), b("i")).is_zero()
    assert bin_mul(half, b("j"), b("k")) == SPACE_1_2.element({"i": 3})


@pytest.mark.parametrize("conv", [UNIT, HALF])
def test_derived_products_symmetry_on_all_pairs(ex51, conv):
    jordan, bracket = plus_algebra(ex51, conv).binary, minus_algebra(ex51, conv).binary
    for xn, yn in itertools.product(SPACE_1_2.names, repeat=2):
        x, y = b(xn), b(yn)
        sign = -1 if parity_of(x) == 1 and parity_of(y) == 1 else 1
        assert bin_mul(jordan, x, y) == bin_mul(jordan, y, x).scale(sign)
        assert bin_mul(bracket, x, y) == bin_mul(bracket, y, x).scale(-sign)


def test_half_convention_reconstructs_product(ex51):
    jordan, bracket = plus_algebra(ex51, HALF).binary, minus_algebra(ex51, HALF).binary
    for xn, yn in itertools.product(SPACE_1_2.names, repeat=2):
        x, y = b(xn), b(yn)
        assert bin_mul(jordan, x, y) + bin_mul(bracket, x, y) == bin_mul(ex51.binary, x, y)


def test_is_multiplicative_identity_twist(ex51, ex31):
    assert is_multiplicative(ex51).passed
    assert is_multiplicative(ex31).passed


def test_is_multiplicative_with_morphism_twist(ex51):
    good = HomSuperalgebra(ex51.binary, example_5_1_beta(2, 0))
    assert is_multiplicative(good).passed


def test_is_multiplicative_fails_at_jj_for_nonzero_b(ex51):
    bad = HomSuperalgebra(ex51.binary, example_5_1_beta(2, 3))
    report = is_multiplicative(bad)
    assert not report.passed
    assert report.counterexample == ("j", "j")
    assert report.residue == SPACE_1_2.element({"i": -18})
    # The twist-commutation check, then (i,i) .. (j,j): rank 4 among the pairs.
    assert report.tuples_checked == 6
    assert report.detail == "binary images differ at (j, j)"


def test_even_self_morphism_pass_cases(ex51_bol, ex31):
    report = is_even_self_morphism(ex51_bol, example_5_1_beta(2, 0))
    assert report.passed
    # The twist-commutation check, 9 pairs and 27 triples.
    assert report.tuples_checked == 1 + 9 + 27
    assert is_even_self_morphism(ex31, EvenMap.identity(ex31.space)).passed


def test_even_self_morphism_bol_fails_for_nonzero_b(ex51_bol):
    # The bracket is symmetric on the odd-odd pair, so the b-column of the
    # map feeds [j,k]+[k,j] into the (j,j) image and the morphism law breaks.
    report = is_even_self_morphism(ex51_bol, example_5_1_beta(2, 3))
    assert not report.passed
    assert report.counterexample == ("j", "j")
    assert report.residue == SPACE_1_2.element({"i": -36})
    assert report.tuples_checked == 6
    assert report.detail == "binary images differ at (j, j)"


def test_even_self_morphism_parity_violation_reported_first(ex51_bol):
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # i <-> j crosses parity here
    report = is_even_self_morphism(ex51_bol, swap)
    assert not report.passed
    assert "cross-parity" in report.detail
    assert report.tuples_checked == 1


def test_even_self_morphism_swap_fails_as_morphism_when_parity_valid(ex31):
    # In this fixture i and j are both even, so the swap is an even map and
    # the failure surfaces at the first bracket pair instead.
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    report = is_even_self_morphism(ex31, swap)
    assert not report.passed
    assert report.counterexample == ("i", "j")
    assert "binary" in report.detail
    # Evenness, twist commutation, then (i,i) and (i,j).
    assert report.tuples_checked == 4


def test_grading_check(ex51):
    assert grading_check(ex51.binary).passed
    bad = BinaryStructure(
        SPACE_1_2,
        {**ex51.binary.constants, (0, 1): SPACE_1_2.basis_vector("i")},
    )
    report = grading_check(bad)
    assert not report.passed
    assert report.counterexample == ("i", "j")
    assert grading_check(BinaryStructure.zero(SPACE_1_2)).passed


def test_convention_factors():
    from fractions import Fraction

    assert Convention.UNIT.factor == 1 and not Convention.UNIT.half
    assert Convention.HALF.factor == Fraction(1, 2) and Convention.HALF.half
