"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines, or
``pytest -v`` to read them off the test outcomes.  All arithmetic is exact;
there are no tolerances anywhere.

Criteria 5 and 12 check the twisting theorem under its hypothesis: a Bol
structure twisted by an even self-morphism is Hom-Bol, and so are its derived
structures.  The maps beta(a, 0) are self-morphisms of the shipped
binary-ternary table, so their twists must pass the full twisted suite.  The
maps beta(a, b) with b != 0 are not: the shipped bracket is symmetric on its
odd-odd pair ([j,k] = [k,j] = 6i), so [beta j, beta j] = b([j,k]+[k,j]) = 12b*i
while beta[j,j] = 0.  For those maps the criteria pin the exact failure: the
checked construction refuses the map at (j,j), and the twisted suite fails at
binary_multiplicativity alone, first at (j,j), with the residue derived in
closed form below.
"""

import itertools
import time
from fractions import Fraction

import pytest

from conftest import make_grassmann, oracle_agreement
from superbol import builtin_example
from superbol.catalog import (
    SPACE_1_2,
    SPACE_2_1,
    example_5_1_beta,
    form_1_2,
    form_preserving_map,
    jordan_form_triple,
)
from superbol.constructions import (
    ConstructionError,
    bilinear_form_triple,
    bol_from_right_alternative,
    hom_bol_from_right_hom_alternative,
    hom_jordan_triple,
    jordan_lts_bracket,
    lie_triple_from_jordan_triple,
    nth_derived,
    plus_algebra,
    yau_twist_algebra,
    yau_twist_bol,
    yau_twist_triple,
)
from superbol.core import power
from superbol.operators import verify_operator_lemmas
from superbol.structures import (
    BinaryStructure,
    Convention,
    HomBinaryTernary,
    HomSuperalgebra,
    TernaryStructure,
    hom_associator,
    supercommutator,
    tern_mul,
)
from superbol.suites import binding_for, run_suite, suite

UNIT, HALF = Convention.UNIT, Convention.HALF

EX51 = builtin_example("example_5_1")
EX31 = builtin_example("example_3_1")
BETA_STAR = example_5_1_beta(2, 0)
TWISTED = yau_twist_algebra(EX51, BETA_STAR, 1)


def record(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {verdict} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def names(space):
    return space.names


def test_criterion_01_fixture_is_right_alternative():
    started = time.perf_counter()
    report = run_suite(EX51, "RIGHT_ALT")
    elapsed = time.perf_counter() - started
    ok = (
        report.passed
        and all(r.tuples_checked == 27 for r in report.reports)
        and elapsed < 1.0
    )
    record(1, "shipped product table satisfies the untwisted right-alternative suite", ok,
           f"27 triples per identity, {elapsed * 1000:.0f} ms")


EXPECTED_BOL_BINARY = {("j", "k"): {"i": 6}, ("k", "j"): {"i": 6}}
EXPECTED_BOL_TERNARY = {
    ("i", "j", "j"): {"i": 4},
    ("j", "i", "j"): {"i": -4},
    ("j", "j", "i"): {"i": -8},
    ("j", "j", "k"): {"k": -8},
    ("j", "k", "j"): {"k": 4},
    ("k", "j", "j"): {"k": 4},
}


def test_criterion_02_derived_tables_reproduced_exactly():
    built = bol_from_right_alternative(EX51, UNIT)
    expected_binary = BinaryStructure.from_table(SPACE_1_2, EXPECTED_BOL_BINARY)
    expected_ternary = TernaryStructure.from_table(SPACE_1_2, EXPECTED_BOL_TERNARY)
    ok = built.binary == expected_binary and built.ternary == expected_ternary
    record(2, "derived bracket and ternary tables match the shipped values, all other entries zero", ok)


def test_criterion_03_derived_structure_passes_bol_both_conventions():
    report = run_suite(bol_from_right_alternative(EX51, UNIT), "BOL")
    quintuple = report["ternary_derivation"]
    half_report = run_suite(bol_from_right_alternative(EX51, HALF), "BOL")
    ok = report.passed and quintuple.tuples_checked == 243 and half_report.passed
    record(3, "derived structure satisfies all five axioms, unit and half conventions", ok,
           "243 quintuples on the derivation axiom")


def test_criterion_04_shipped_three_dimensional_table_is_bol():
    report = run_suite(EX31, "BOL")
    ok = report.passed
    record(4, "shipped 3-dimensional binary-ternary table satisfies the axiom suite", ok)


# The twisting theorem needs an even self-morphism: beta(a, 0) is one for every
# nonzero a, and beta(a, b) with b != 0 is not.
SELF_MORPHISMS = ((2, 0), (-1, 0), (Fraction(1, 2), 0))
NON_MORPHISMS = ((2, 3), (Fraction(1, 2), 5))

# [j,j] = [k,k] = 0 in the shipped bracket of criterion 2, and
# beta(a,b)^m j = j + b*s_m*k with s_m = 1 + a + ... + a^(m-1), so
# [beta^m j, beta^m j] = b*s_m*([j,k] + [k,j]), a multiple of i.
JK_SYMMETRIC_PART = EXPECTED_BOL_BINARY[("j", "k")]["i"] + EXPECTED_BOL_BINARY[("k", "j")]["i"]


def _jj_image(a, b, m):
    """The i-coordinate of [beta^m j, beta^m j] in the untwisted bracket."""
    s_m = sum(Fraction(a) ** p for p in range(m))
    return b * s_m * JK_SYMMETRIC_PART


def _hom_bol_as_expected(structure, a, b, m):
    """HOM_BOL on the bracket beta^m[.,.] with twist beta^m, beta = beta(a, b).

    A self-morphism twist must pass in full.  Otherwise binary_multiplicativity
    is the only failing identity, first at (j,j), where A([j,j]) = 0 leaves the
    residue -beta^m[beta^m j, beta^m j] = -a^m * _jj_image(a, b, m) * i.
    """
    report = run_suite(structure, "HOM_BOL")
    if b == 0:
        return report.passed
    failing = [r for r in report.reports if not r.passed]
    expected = SPACE_1_2.element({"i": -Fraction(a) ** m * _jj_image(a, b, m)})
    return (
        [r.name for r in failing] == ["binary_multiplicativity"]
        and failing[0].counterexample == ("j", "j")
        and failing[0].residue == expected
    )


def _twist_case(a, b):
    """Twist example_5_1_bol by beta(a, b); return (tables_ok, construction_ok, suite_ok)."""
    bol = bol_from_right_alternative(EX51, UNIT)
    beta = example_5_1_beta(a, b)
    if b == 0:
        twisted = yau_twist_bol(bol, beta, 1)
        construction_ok = True
    else:
        with pytest.raises(ConstructionError) as refused:
            yau_twist_bol(bol, beta, 1)
        report = refused.value.report
        construction_ok = (
            refused.value.stage == "yau_twist_bol"
            and report.counterexample == ("j", "j")
            and report.residue == SPACE_1_2.element({"i": -_jj_image(a, b, 1)})
        )
        twisted = yau_twist_bol(bol, beta, 1, checked=False)
    shipped = builtin_example(f"example_5_1_hombol({a},{b})")
    tables_ok = (
        twisted.binary.constants == {key: v.scale(a) for key, v in bol.binary.constants.items()}
        and twisted.ternary.constants == {key: v.scale(a * a) for key, v in bol.ternary.constants.items()}
        and twisted.binary == shipped.binary
        and twisted.ternary == shipped.ternary
        and twisted.twist == beta
    )
    return tables_ok, construction_ok, _hom_bol_as_expected(twisted, a, b, 1)


def test_criterion_05_twisted_tables_and_suite():
    j, k, i = (SPACE_1_2.basis_vector(n) for n in ("j", "k", "i"))
    bol = bol_from_right_alternative(EX51, UNIT)
    case = yau_twist_bol(bol, example_5_1_beta(2, 3), 1, checked=False)
    from superbol.structures import bin_mul

    values_ok = bin_mul(case.binary, j, k) == SPACE_1_2.element({"i": 12}) and tern_mul(
        case.ternary, i, j, j
    ) == SPACE_1_2.element({"i": 16})
    results = {(a, b): _twist_case(a, b) for (a, b) in SELF_MORPHISMS + NON_MORPHISMS}
    ok = values_ok and all(all(r) for r in results.values())
    detail = "; ".join(
        f"(a={a},b={b}) tables={'ok' if t else 'BAD'} construction={'ok' if c else 'BAD'} "
        f"suite={'ok' if s else 'BAD'}"
        for (a, b), (t, c, s) in results.items()
    )
    record(5, "twisted tables scale by a and a^2; self-morphism twists satisfy the twisted suite, "
              "non-morphism twists fail it only at (j,j) multiplicativity", ok, detail)


def test_criterion_06_symmetrized_algebra_is_jordan():
    plus = plus_algebra(EX51, UNIT)
    report = run_suite(plus, "HOM_JORDAN")
    four_var = [r for r in report.reports if r.name != "supercommutativity"]
    ok = report.passed and all(r.tuples_checked == 81 for r in four_var)
    record(6, "symmetrized product satisfies the twisted Jordan suite at the identity twist", ok,
           "81 quadruples per four-variable identity")


def test_criterion_07_twisted_pipeline():
    right = run_suite(TWISTED, "RIGHT_HOM_ALT")
    plus = plus_algebra(TWISTED, UNIT)
    jordan = run_suite(plus, "HOM_JORDAN")
    triple = hom_jordan_triple(plus)
    triple_report = run_suite(triple, "HOM_JORDAN_TRIPLE")
    lie = lie_triple_from_jordan_triple(triple)
    lie_report = run_suite(lie, "HOM_LIE_TRIPLE")
    built = hom_bol_from_right_hom_alternative(TWISTED, UNIT)
    final = run_suite(built, "HOM_BOL")
    twist_ok = built.twist == power(BETA_STAR, 2)
    ok = all(r.passed for r in (right, jordan, triple_report, lie_report, final)) and twist_ok
    record(7, "twisted product pipeline: every stage satisfies its suite and the final twist is the square", ok)


def test_criterion_08_dual_path_ternary_agreement():
    pipeline = hom_bol_from_right_hom_alternative(EX51, UNIT)
    direct = bol_from_right_alternative(EX51, UNIT)
    tensors_ok = pipeline.ternary == direct.ternary

    # second closed form of the same bracket, evaluated independently:
    # 4[[x,y],z] - 2(-1)^{|z|(|x|+|y|)} as(z,x,y) with half-normalized brackets
    def half_bracket(x, y):
        return supercommutator(EX51, HALF, x, y)

    closed_ok = True
    for combo in itertools.product(range(3), repeat=3):
        x, y, z = (SPACE_1_2.basis_vector(c) for c in combo)
        px, py, pz = (SPACE_1_2.parity(c) for c in combo)
        sign = -1 if (pz * (px + py)) % 2 else 1
        alternate = half_bracket(half_bracket(x, y), z).scale(4) - hom_associator(
            EX51, z, x, y
        ).scale(2 * sign)
        if tern_mul(direct.ternary, x, y, z) != alternate:
            closed_ok = False
    record(8, "pipeline ternary equals the direct ternary, and both closed forms agree triple-by-triple",
           tensors_ok and closed_ok)


def test_criterion_09_lemma_suites():
    results = {
        "LEMMA_2_4 on plain": run_suite(EX51, "LEMMA_2_4"),
        "LEMMA_2_6 on twisted": run_suite(TWISTED, "LEMMA_2_6"),
        "EQ_2_7 on twisted": run_suite(TWISTED, "EQ_2_7"),
        "EQ_4_7 on twisted": run_suite(TWISTED, "EQ_4_7"),
        "EQ_7_10 on plain": run_suite(EX51, "EQ_7_10"),
        "EQ_7_10 on twisted": run_suite(TWISTED, "EQ_7_10"),
    }
    quadruples_ok = all(
        r.tuples_checked == 81 for r in results["LEMMA_2_4 on plain"].reports
    )
    ok = all(r.passed for r in results.values()) and quadruples_ok
    detail = "; ".join(f"{k}: {'ok' if v.passed else 'FAIL'}" for k, v in results.items())
    record(9, "bracket/associator expansion suites hold exactly", ok, detail)


CRITERION_10_CHECKS = (
    "jordan_cyclic_operator_sum",
    "nested_left_mul_reduction",
    "difference_reduction_products",
    "difference_reduction_mixed_left",
    "difference_reduction_mixed_right",
    "difference_reduction_pairs",
    "triple_head_expansion",
    "triple_tail_expansion",
    "supertriple_operator_identity",
    "double_bracket_reduction",
)


def test_criterion_10_operator_lemmas():
    report = verify_operator_lemmas(plus_algebra(EX51, UNIT))
    verdicts = {name: report[name].passed for name in CRITERION_10_CHECKS}
    ok = all(verdicts.values())
    failing = [name for name, passed in verdicts.items() if not passed]
    record(10, "operator lemmas hold exactly, each operator equation applied to every basis vector", ok,
           f"failing: {failing}" if failing else "all listed checks pass")


def test_criterion_11_form_triples():
    jordan_ok = all(
        run_suite(bilinear_form_triple(form_1_2(), lam), "JORDAN_TRIPLE").passed
        for lam in (1, -2)
    )
    twisted = yau_twist_triple(jordan_form_triple(1), form_preserving_map(), 1)
    twisted_ok = run_suite(twisted, "HOM_JORDAN_TRIPLE").passed
    record(11, "bilinear-form ternary systems satisfy their suites, plain and twisted", jordan_ok and twisted_ok)


def test_criterion_12_derived_structures():
    bol = bol_from_right_alternative(EX51, UNIT)
    ok = True
    details = []
    for a, b in SELF_MORPHISMS + NON_MORPHISMS:
        base = yau_twist_bol(bol, example_5_1_beta(a, b), 1, checked=False)
        identical = nth_derived(base, 0) == base
        # the n-th derived structure has bracket beta^m[.,.] and twist beta^m, m = 2^n
        verdicts = {n: _hom_bol_as_expected(nth_derived(base, n), a, b, 2**n) for n in (0, 1, 2)}
        ok = ok and identical and all(verdicts.values())
        details.append(
            f"(a={a},b={b}) n=0 identical: {identical}, suites "
            + ",".join(f"n={n}:{'ok' if good else 'BAD'}" for n, good in verdicts.items())
        )
    record(12, "derived structures of self-morphism twists satisfy the twisted suite; "
               "those of non-morphism twists fail it only at (j,j) multiplicativity", ok, "; ".join(details))


MUTATIONS_51 = (
    ("jk_to_3i", (1, 2), {"i": 3}, ("j", "i", "j")),
    ("kj_to_minus4i", (2, 1), {"i": -4}, ("j", "i", "j")),
    ("ij_to_2k", (0, 1), {"k": 2}, ("j", "i", "j")),
    ("ji_to_zero", (1, 0), {}, ("j", "i", "j")),
    ("kk_to_i", (2, 2), {"i": 1}, ("i", "j", "k")),
)

MUTATIONS_31 = (
    ("iji_flipped", "ternary", (0, 1, 0), {"j": 1}, ("i", "j", "i")),
    ("ij_doubled", "binary", (0, 1), {"j": 2}, ("i", "j")),
    ("jii_removed", "ternary", (1, 0, 0), {}, ("i", "j", "i")),
    ("ik_doubled", "binary", (0, 2), {"k": 2}, ("i", "k")),
    ("kii_doubled", "ternary", (2, 0, 0), {"k": 2}, ("i", "k", "i")),
)


def _mutate_51(key, coords):
    constants = dict(EX51.binary.constants)
    element = SPACE_1_2.element(coords)
    if element.is_zero():
        constants.pop(key, None)
    else:
        constants[key] = element
    return HomSuperalgebra(BinaryStructure(SPACE_1_2, constants), EX51.twist)


def _mutate_31(part, key, coords):
    element = SPACE_2_1.element(coords)
    if part == "binary":
        constants = dict(EX31.binary.constants)
        constants.pop(key, None)
        if not element.is_zero():
            constants[key] = element
        return HomBinaryTernary(BinaryStructure(SPACE_2_1, constants), EX31.ternary, EX31.twist)
    constants = dict(EX31.ternary.constants)
    constants.pop(key, None)
    if not element.is_zero():
        constants[key] = element
    return HomBinaryTernary(EX31.binary, TernaryStructure(SPACE_2_1, constants), EX31.twist)


def test_criterion_13_mutation_sensitivity():
    ok = True
    details = []
    for label, key, coords, expected in MUTATIONS_51:
        mutated = _mutate_51(key, coords)
        first = run_suite(mutated, "RIGHT_ALT").first_failure()
        again = run_suite(mutated, "RIGHT_ALT").first_failure()
        good = first is not None and first == again and first.counterexample == expected
        ok = ok and good
        details.append(f"{label}:{'ok' if good else 'BAD'}")
    for label, part, key, coords, expected in MUTATIONS_31:
        mutated = _mutate_31(part, key, coords)
        first = run_suite(mutated, "BOL").first_failure()
        again = run_suite(mutated, "BOL").first_failure()
        good = first is not None and first == again and first.counterexample == expected
        ok = ok and good
        details.append(f"{label}:{'ok' if good else 'BAD'}")
    record(13, "each single-constant perturbation fails its suite with a stable counterexample", ok,
           " ".join(details))


def _criterion_14_matrix():
    plus = plus_algebra(EX51, UNIT)
    twisted_plus = plus_algebra(TWISTED, UNIT)
    triple = hom_jordan_triple(plus)
    lie = lie_triple_from_jordan_triple(hom_jordan_triple(twisted_plus))
    yield EX51, ("RIGHT_ALT", "RIGHT_HOM_ALT", "LEMMA_2_4", "LEMMA_2_6", "EQ_2_7", "EQ_3_2", "EQ_7_10", "EQ_4_7")
    yield TWISTED, ("RIGHT_HOM_ALT", "LEMMA_2_6", "EQ_2_7", "EQ_4_7", "EQ_7_10")
    yield plus, ("SUPERCOMMUTATIVE", "JORDAN", "HOM_JORDAN")
    yield make_grassmann(), ("HOM_ALT",)
    yield bol_from_right_alternative(EX51, UNIT), ("BOL",)
    yield EX31, ("BOL",)
    yield jordan_lts_bracket(plus), ("LIE_TRIPLE",)
    yield lie, ("HOM_LIE_TRIPLE",)
    yield triple, ("JORDAN_TRIPLE", "HOM_JORDAN_TRIPLE")
    yield builtin_example("example_5_1_hombol(2,0)"), ("HOM_BOL",)
    yield builtin_example("example_5_1_hombol(2,3)"), ("HOM_BOL",)  # has a failing identity
    yield jordan_form_triple(1), ("JORDAN_TRIPLE",)
    yield yau_twist_triple(jordan_form_triple(1), form_preserving_map(), 1), ("HOM_JORDAN_TRIPLE",)
    yield _mutate_51((1, 2), {"i": 3}), ("RIGHT_ALT",)
    yield _mutate_31("binary", (0, 1), {"j": 2}), ("BOL",)


def test_criterion_14_completeness_oracle():
    disagreements = []
    checked = 0
    for structure, suite_names in _criterion_14_matrix():
        for suite_name in suite_names:
            spec = suite(suite_name)
            for identity, agree, _ in oracle_agreement(binding_for(structure, spec), spec.identities,
                                                       seed=20260811, samples=100, label=suite_name):
                checked += 1
                if not agree:
                    disagreements.append(f"{suite_name}/{identity}")
    record(14, "basis-tuple verdicts agree with 100 seeded random general-element evaluations", not disagreements,
           f"{checked} identity/fixture pairs" + (f"; disagreements: {disagreements}" if disagreements else ""))
