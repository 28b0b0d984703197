import pytest

from conftest import make_grassmann
from superbol.constructions import bol_from_right_alternative, plus_algebra
from superbol.structures import Convention, HomTripleSystem, TernaryStructure
from superbol.suites import SUITE_NAMES, binding_for, run_suite, suite


def test_suite_sizes():
    assert len(suite("BOL").identities) == 5
    assert len(suite("HOM_BOL").identities) == 7
    assert len(suite("LIE_TRIPLE").identities) == 3
    assert len(suite("JORDAN_TRIPLE").identities) == 2
    assert len(suite("SUPERCOMMUTATIVE").identities) == 1
    assert len(suite("HOM_JORDAN").identities) == 3


def test_right_alt_is_right_hom_alt_with_identity_twist():
    plain = suite("RIGHT_ALT")
    twisted = suite("RIGHT_HOM_ALT")
    assert plain.identities is twisted.identities
    assert plain.twist_mode == "identity"
    assert twisted.twist_mode == "structure"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError, match="unknown suite"):
        suite("NOT_A_SUITE")


def test_lookup_is_case_insensitive():
    assert suite("bol") is suite("BOL")


def test_all_registered_names_resolve():
    for name in SUITE_NAMES:
        assert suite(name).name == name


def test_binding_requires_matching_operations(ex51, ex31):
    with pytest.raises(ValueError, match="ternary"):
        binding_for(ex51, suite("BOL"))
    with pytest.raises(ValueError, match="binary"):
        binding_for(HomTripleSystem.untwisted(TernaryStructure.zero(ex51.space)), suite("RIGHT_ALT"))
    binding = binding_for(ex31, suite("BOL"))
    assert set(binding.ops) == {"[]", "{}"}


def test_example_3_1_ternary_passes_lie_triple(ex31):
    report = run_suite(HomTripleSystem.untwisted(ex31.ternary), "LIE_TRIPLE")
    assert report.passed


def test_hom_bol_includes_multiplicativity_identities():
    names = [identity.name for identity in suite("HOM_BOL").identities]
    assert names[:2] == ["binary_multiplicativity", "ternary_multiplicativity"]


def test_convention_consistency_for_axiom_suites(ex51):
    for conv in (Convention.UNIT, Convention.HALF):
        assert run_suite(bol_from_right_alternative(ex51, conv), "BOL").passed
        assert run_suite(plus_algebra(ex51, conv), "HOM_JORDAN").passed


def test_lemma_suites_do_not_depend_on_file_convention(ex51):
    # the lemma suites derive their bracket/symmetrized products internally
    for name in ("LEMMA_2_4", "EQ_2_7", "EQ_3_2", "EQ_7_10", "EQ_4_7"):
        assert run_suite(ex51, name).passed, name


def test_grassmann_is_two_sided_alternative(ex51):
    grassmann = make_grassmann()
    assert run_suite(grassmann, "HOM_ALT").passed
    # the shipped 3-dimensional fixture is right but not left alternative
    report = run_suite(ex51, "HOM_ALT")
    assert report["right_superalternativity"].passed
    assert not report["left_superalternativity"].passed


def test_grassmann_plus_is_jordan_admissible():
    grassmann = make_grassmann()
    for conv in (Convention.UNIT, Convention.HALF):
        plus = plus_algebra(grassmann, conv)
        assert run_suite(plus, "JORDAN").passed
        assert run_suite(plus, "HOM_JORDAN").passed
