"""Known-truth checks above dim 4, on the benchmark's generated families
(bench/families.py): an associative superalgebra is right alternative, its
plus algebra is Jordan, its derived structure is Bol, and the Yau twist of
that structure by an even automorphism is Hom-Bol."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from superbol.constructions import bol_from_right_alternative, plus_algebra, yau_twist_bol
from superbol.structures import Convention
from superbol.suites import run_suite

_FAMILIES_PATH = Path(__file__).resolve().parent.parent / "bench" / "families.py"


def _families_module():
    spec = importlib.util.spec_from_file_location("bench_families", _FAMILIES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


families = _families_module()


@pytest.fixture(scope="module")
def m21():
    return families.matrix_superalgebra(2, 1)


def test_matrix_superalgebra_m21_is_right_alternative(m21):
    assert m21.space.dim == 9
    assert run_suite(m21, "RIGHT_ALT").passed


def test_plus_of_m21_is_jordan(m21):
    assert run_suite(plus_algebra(m21, Convention.UNIT), "JORDAN").passed


def test_bol_of_m21_is_bol(m21):
    assert run_suite(bol_from_right_alternative(m21, Convention.UNIT, checked=False), "BOL").passed


def test_m21_is_not_supercommutative(m21):
    # e11 * e12 = e12 while e12 * e11 = 0, and e11 is even.
    report = run_suite(m21, "SUPERCOMMUTATIVE").reports[0]
    assert not report.passed
    assert report.counterexample == ("e11", "e12")
    assert report.residue == m21.space.element({"e12": 1})
    assert report.tuples_checked == 9**2


def test_yau_twist_of_bol_m21_is_hom_bol(m21):
    beta = families.diagonal_automorphism(2, 1, (1, -3, Fraction(1, 2)))
    bol = bol_from_right_alternative(m21, Convention.UNIT, checked=False)
    assert run_suite(yau_twist_bol(bol, beta), "HOM_BOL").passed


def test_dim_16_bol_and_its_yau_twist():
    m22 = families.matrix_superalgebra(2, 2)
    assert m22.space.dim == 16
    bol = bol_from_right_alternative(m22, Convention.UNIT, checked=False)
    report = run_suite(bol, "BOL")
    assert report.passed
    assert report["ternary_derivation"].tuples_checked == 16**5
    beta = families.diagonal_automorphism(2, 2, (1, -2, Fraction(3, 5), 7))
    assert run_suite(yau_twist_bol(bol, beta), "HOM_BOL").passed
