import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import bench_families, make_grassmann, run_fresh
from superbol import constructions, structures, suites
from superbol.catalog import example_5_1, example_5_1_beta, jordan_form_triple
from superbol.cli import main
from superbol.constructions import (
    bol_from_right_alternative,
    hom_jordan_triple,
    jordan_lts_bracket,
    minus_algebra,
    plus_algebra,
    yau_twist_algebra,
    yau_twist_bol,
)
from superbol.core import power
from superbol.dsl import ASSOC, Identity, Term, Twist, Var, leaf_weights, without_twist
from superbol.operators import lemma_identities
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
# leaf weights.  A suite is twisted if its identities hold a twist;
# SUPERCOMMUTATIVE and the untwisted suites hold none and need not balance.
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

# The untwisted suites, each mapped to its Hom partner where it has one.
HOM_PARTNER = {
    "RIGHT_ALT": "RIGHT_HOM_ALT",
    "JORDAN": "HOM_JORDAN",
    "BOL": "HOM_BOL",
    "LIE_TRIPLE": "HOM_LIE_TRIPLE",
    "JORDAN_TRIPLE": "HOM_JORDAN_TRIPLE",
    "LEMMA_2_4": "LEMMA_2_6",
}
UNTWISTED = set(HOM_PARTNER) | {"EQ_3_2"}

# Identities whose leaf weights balance at every twist weight: the ones
# without a twist, and the multiplicativity laws, which twist every leaf once.
WEIGHT_FREE = {
    "supercommutativity", "skew_binary", "skew_ternary", "ternary_cyclic_sum", "outer_supersymmetry",
    "binary_multiplicativity", "ternary_multiplicativity",
}


def _m21_twist(families):
    return families.diagonal_automorphism(2, 1, (1, -3, Fraction(1, 2)))


# (passed, counterexample, residue) of every identity of each untwisted suite
# on one input built from the benchmark families, recorded while the untwisted
# suites still bound the identity twist.  The last two inputs carry a
# nontrivial twist, which an untwisted suite must not read.
_UNTWISTED_PINS = [
    ("JORDAN", lambda families: example_5_1(), [
        (False, ("j", "k"), {"i": 6}),
        (False, ("j", "j", "j", "k"), {"i": 24}),
    ]),
    ("LEMMA_2_4", lambda families: minus_algebra(families.matrix_superalgebra(1, 1)), [
        (False, ("e11", "e12", "e11", "e21"), {"e11": -2, "e22": -2}),
    ]),
    ("EQ_3_2", lambda families: plus_algebra(families.matrix_superalgebra(1, 1)), [
        (False, ("e11", "e11", "e12"), {"e12": 2}),
    ]),
    ("JORDAN_TRIPLE", lambda families: jordan_lts_bracket(plus_algebra(example_5_1())), [
        (False, ("i", "j", "j"), {"i": -8}),
        (False, ("i", "j", "j", "j", "j"), {"i": 128}),
    ]),
    ("LIE_TRIPLE", lambda families: jordan_form_triple(), [
        (False, ("e", "e", "e"), {"e": 2}),
        (False, ("e", "e", "e"), {"e": 3}),
        (False, ("e", "e", "e", "e", "e"), {"e": -2}),
    ]),
    ("RIGHT_ALT", lambda families: yau_twist_algebra(families.matrix_superalgebra(2, 1), _m21_twist(families)), [
        (False, ("e11", "e11", "e12"), {"e12": Fraction(-4, 9)}),
        (False, ("e11", "e11", "e12"), {"e12": Fraction(4, 9)}),
    ]),
    ("BOL", lambda families: yau_twist_bol(
        bol_from_right_alternative(families.matrix_superalgebra(2, 1)), _m21_twist(families)), [
        (True, None, None),
        (True, None, None),
        (True, None, None),
        (False, ("e11", "e12", "e11", "e21"), {"e11": Fraction(40, 9), "e22": Fraction(-40, 9)}),
        (False, ("e11", "e12", "e11", "e13", "e21"), {"e13": -140}),
    ]),
]


@pytest.mark.parametrize("name, build, pinned", _UNTWISTED_PINS, ids=[case[0] for case in _UNTWISTED_PINS])
def test_untwisted_suites_keep_their_pinned_reports(name, build, pinned):
    structure = build(bench_families())
    space = structure.space
    expected = [
        (passed, counterexample, None if residue is None else space.element(residue))
        for passed, counterexample, residue in pinned
    ]
    report = run_suite(structure, name)
    assert [(r.passed, r.counterexample, r.residue) for r in report.reports] == expected


def test_suite_sizes():
    assert len(suite("BOL").identities) == 5
    assert len(suite("HOM_BOL").identities) == 7
    assert len(suite("LIE_TRIPLE").identities) == 3
    assert len(suite("JORDAN_TRIPLE").identities) == 2
    assert len(suite("SUPERCOMMUTATIVE").identities) == 1
    assert len(suite("HOM_JORDAN").identities) == 3


def _holds_a_twist(name: str) -> bool:
    return any(identity.max_twist_power() for identity in suite(name).identities)


def test_untwisted_suites_hold_no_twist():
    assert {name for name in SUITE_NAMES if not _holds_a_twist(name)} == UNTWISTED | {"SUPERCOMMUTATIVE"}


@pytest.mark.parametrize("name", sorted(HOM_PARTNER))
def test_an_untwisted_suite_is_its_hom_partner_without_the_twist(name):
    """Each identity is its partner's namesake, up to the ``_twisted``
    suffix, with every twist power removed; the names keep the partner's order."""
    partner = {i.name.removesuffix("_twisted"): without_twist(i) for i in suite(HOM_PARTNER[name]).identities}
    identities = suite(name).identities
    names = [identity.name for identity in identities]
    assert names == [found for found in partner if found in names]
    for identity in identities:
        expected = partner[identity.name]
        assert (identity.variables, identity.terms) == (expected.variables, expected.terms)


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
    """Do all terms give each variable one leaf weight?"""
    weights = {frozenset(leaf_weights(term.expr, twist_weight).items()) for term in identity.terms}
    return len(weights) == 1


@pytest.mark.parametrize("name", sorted(TWIST_WEIGHT))
def test_twisted_suites_balance_at_their_declared_weight(name):
    declared = TWIST_WEIGHT[name]
    other = 3 - declared
    spec = suite(name)
    assert _holds_a_twist(name)
    for identity in spec.identities:
        assert _balances(identity, declared), identity.name
        assert _balances(identity, other) == (identity.name in WEIGHT_FREE), identity.name
    assert any(identity.name not in WEIGHT_FREE for identity in spec.identities)


def test_twist_weights_cover_every_twisted_suite():
    assert {name for name in SUITE_NAMES if _holds_a_twist(name)} == set(TWIST_WEIGHT)


def test_hom_jordan_triple_twist_is_raised_to_the_weight_ratio():
    alpha = example_5_1_beta(2, 0)
    jordan = yau_twist_algebra(plus_algebra(example_5_1()), alpha)
    assert run_suite(jordan, "HOM_JORDAN").passed
    ratio = TWIST_WEIGHT["HOM_JORDAN_TRIPLE"] // TWIST_WEIGHT["HOM_JORDAN"]
    triple = hom_jordan_triple(jordan)
    assert ratio == 2 and triple.twist == power(alpha, 2) != alpha
    assert run_suite(triple, "HOM_JORDAN_TRIPLE").passed


def _symbols(expr) -> set:
    """The operation symbols of every call in ``expr``."""
    if isinstance(expr, Var):
        return set()
    if isinstance(expr, Twist):
        return _symbols(expr.arg)
    return {expr.op}.union(*map(_symbols, expr.args))


def test_no_identity_holds_an_associator_call():
    """The parser expands every ``as``, so no suite, construction or
    operator-lemma identity reaches the engine with one."""
    identities = [identity for name in SUITE_NAMES for identity in suite(name).identities]
    identities += [value for module in (suites, constructions, structures) for value in vars(module).values()
                   if isinstance(value, Identity)]
    identities += lemma_identities(True) + lemma_identities(False)
    assert constructions._BOL_TERNARY in identities  # written with an ``as``
    for identity in identities:
        assert all(ASSOC not in _symbols(term.expr) for term in identity.terms), identity.name


def test_right_superalternativity_is_its_expansion_negated():
    identities = {identity.name: identity for identity in suite("RIGHT_ALT").identities}
    expanded = identities["right_superalternativity_expanded"].terms
    negated = Counter(Term(-term.coefficient, term.sign, term.expr) for term in expanded)
    assert Counter(identities["right_superalternativity"].terms) == negated
