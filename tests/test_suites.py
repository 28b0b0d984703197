import re

import pytest

from conftest import make_grassmann, run_fresh
from superbol import suites
from superbol.catalog import example_5_1, example_5_1_beta
from superbol.cli import main
from superbol.constructions import bol_from_right_alternative, hom_jordan_triple, plus_algebra, yau_twist_algebra
from superbol.core import power
from superbol.dsl import leaf_weights
from superbol.structures import Convention, HomTripleSystem, TernaryStructure
from superbol.suites import SUITE_NAMES, binding_for, run_suite, suite

# Each suite's identity names, recorded when every suite was parsed at import.
IDENTITY_NAMES = {
    "RIGHT_ALT": ("right_superalternativity", "right_superalternativity_expanded"),
    "RIGHT_HOM_ALT": ("right_superalternativity", "right_superalternativity_expanded"),
    "HOM_ALT": ("right_superalternativity", "left_superalternativity"),
    "JORDAN": ("supercommutativity", "jordan_superidentity"),
    "HOM_JORDAN": ("supercommutativity", "jordan_superidentity_twisted", "jordan_superidentity_expanded"),
    "SUPERCOMMUTATIVE": ("supercommutativity",),
    "BOL": ("skew_binary", "skew_ternary", "ternary_cyclic_sum", "binary_ternary_compat", "ternary_derivation"),
    "HOM_BOL": ("binary_multiplicativity", "ternary_multiplicativity", "skew_binary", "skew_ternary",
                "ternary_cyclic_sum", "binary_ternary_compat", "ternary_derivation"),
    "LIE_TRIPLE": ("skew_ternary", "ternary_cyclic_sum", "ternary_derivation"),
    "HOM_LIE_TRIPLE": ("skew_ternary", "ternary_cyclic_sum", "ternary_derivation_twisted"),
    "JORDAN_TRIPLE": ("outer_supersymmetry", "triple_identity"),
    "HOM_JORDAN_TRIPLE": ("outer_supersymmetry", "triple_identity_twisted"),
    "LEMMA_2_4": ("bracket_associator_expansion",),
    "LEMMA_2_6": ("bracket_associator_expansion_twisted",),
    "EQ_2_7": ("product_associator_expansion",),
    "EQ_4_7": ("symmetrized_associator_expansion",),
    "EQ_3_2": ("derived_ternary_closed_form",),
    "EQ_7_10": ("derived_ternary_closed_form_twisted",),
}

# The twist weight at which each twisted suite's identities balance their
# leaf weights.  SUPERCOMMUTATIVE names no twist; the untwisted suites bind
# the identity twist and need not balance.
TWIST_WEIGHT = {
    "RIGHT_HOM_ALT": 1,
    "HOM_ALT": 1,
    "HOM_JORDAN": 1,
    "HOM_BOL": 1,
    "LEMMA_2_6": 1,
    "EQ_2_7": 1,
    "EQ_4_7": 1,
    "EQ_7_10": 1,
    "HOM_JORDAN_TRIPLE": 2,
    "HOM_LIE_TRIPLE": 2,
}

# Identities whose leaf weights balance at every twist weight: the ones
# without a twist, and the multiplicativity laws, which twist every leaf once.
WEIGHT_FREE = {
    "supercommutativity", "skew_binary", "skew_ternary", "ternary_cyclic_sum", "outer_supersymmetry",
    "binary_multiplicativity", "ternary_multiplicativity",
}


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


def test_each_suite_is_parsed_once(monkeypatch):
    for name in SUITE_NAMES:
        first = suite(name)
        monkeypatch.setattr(suites, "parse_identity", lambda *args, **kwargs: pytest.fail("parsed again"))
        assert suite(name) is first is suite(name.lower())
        monkeypatch.undo()
        assert tuple(identity.name for identity in first.identities) == IDENTITY_NAMES[name]
    assert set(IDENTITY_NAMES) == set(SUITE_NAMES)


def test_a_suite_is_parsed_on_its_first_lookup():
    """In a fresh interpreter, importing ``suites`` parses only the two derived
    products (and ``structures`` its multiplicativity laws); each first lookup
    parses at most that suite's identities, and a second lookup nothing."""
    found = run_fresh("""
import json
import superbol.dsl as dsl
parsed, real = [], dsl.parse_identity
dsl.parse_identity = lambda text, name="": parsed.append(name) or real(text, name=name)
import superbol.suites as suites
out = {"import": sorted(parsed)}
for name in suites.SUITE_NAMES:
    for lookup in ("first", "second"):
        parsed.clear()
        suites.suite(name)
        out[name + "/" + lookup] = list(parsed)
print(json.dumps(out))
""")
    assert found["import"] == ["binary_multiplicativity", "super_jordan", "supercommutator", "ternary_multiplicativity"]
    assert found["BOL/first"] == list(IDENTITY_NAMES["BOL"])
    for name in SUITE_NAMES:
        assert set(found[name + "/first"]) <= set(IDENTITY_NAMES[name])
        assert found[name + "/second"] == []


def test_check_help_lists_every_suite(capsys):
    assert main(["check", "--help"]) == 0
    words = set(re.findall(r"\w+", capsys.readouterr().out))
    assert set(SUITE_NAMES) <= words


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


def _balances(identity, twist_weight: int) -> bool:
    """Do all monomials of all terms give each variable one leaf weight?"""
    weights = {frozenset(m.items()) for term in identity.terms for m in leaf_weights(term.expr, twist_weight)}
    return len(weights) == 1


@pytest.mark.parametrize("name", sorted(TWIST_WEIGHT))
def test_twisted_suites_balance_at_their_declared_weight(name):
    declared = TWIST_WEIGHT[name]
    other = 3 - declared
    spec = suite(name)
    assert spec.twist_mode == suites.TWIST_STRUCTURE
    for identity in spec.identities:
        assert _balances(identity, declared), identity.name
        assert _balances(identity, other) == (identity.name in WEIGHT_FREE), identity.name
    assert any(identity.name not in WEIGHT_FREE for identity in spec.identities)


def test_twist_weights_cover_every_twisted_suite():
    twisted = {name for name in SUITE_NAMES if suite(name).twist_mode == suites.TWIST_STRUCTURE}
    assert twisted - set(TWIST_WEIGHT) == {"SUPERCOMMUTATIVE"}
    assert {i.name for i in suite("SUPERCOMMUTATIVE").identities} <= WEIGHT_FREE


def test_hom_jordan_triple_twist_is_raised_to_the_weight_ratio():
    alpha = example_5_1_beta(2, 0)
    jordan = yau_twist_algebra(plus_algebra(example_5_1()), alpha)
    assert run_suite(jordan, "HOM_JORDAN").passed
    ratio = TWIST_WEIGHT["HOM_JORDAN_TRIPLE"] // TWIST_WEIGHT["HOM_JORDAN"]
    triple = hom_jordan_triple(jordan)
    assert ratio == 2 and triple.twist == power(alpha, 2) != alpha
    assert run_suite(triple, "HOM_JORDAN_TRIPLE").passed
