"""Known-truth checks above dim 4, on the benchmark's generated families
(bench/families.py): an associative superalgebra is right alternative, its
plus algebra is Jordan, its derived structure is Bol, and the Yau twist of
that structure by an even automorphism is Hom-Bol.  The twists are
conjugations: by a diagonal matrix (bench/families.py) and by the unipotent
I + E_12, whose twist columns mix basis vectors (built here)."""

import itertools
from fractions import Fraction

import pytest

from conftest import bench_families
from superbol.constructions import bol_from_right_alternative, plus_algebra, yau_twist_algebra, yau_twist_bol
from superbol.core import EvenMap, apply_map
from superbol.structures import Convention, is_even_self_morphism
from superbol.suites import run_suite

families = bench_families()


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


def test_dim_25_bol():
    """The next ceiling of the dimension ladder: BOL on bol(M(3|2))."""
    bol = bol_from_right_alternative(families.matrix_superalgebra(3, 2), Convention.UNIT, checked=False)
    assert bol.space.dim == 25
    report = run_suite(bol, "BOL")
    assert report.passed
    assert report["ternary_derivation"].tuples_checked == 25**5


def _unipotent_conjugation(algebra, size):
    """X -> U X U^-1 on M(m|n) with U = I + E_12 and U^-1 = I - E_12; even
    when rows 1 and 2 are both even (m >= 2)."""
    u = [[Fraction(int(i == j or (i, j) == (0, 1))) for j in range(size)] for i in range(size)]
    u_inv = [[Fraction(int(i == j)) - Fraction(int((i, j) == (0, 1))) for j in range(size)] for i in range(size)]
    dim = size * size
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for a, b, c, d in itertools.product(range(size), repeat=4):
        # U E_ab U^-1 = sum over (c, d) of U[c][a] U^-1[b][d] E_cd.
        rows[c * size + d][a * size + b] += u[c][a] * u_inv[b][d]
    return EvenMap(algebra.space, tuple(map(tuple, rows)))


def test_unipotent_twist_of_m21_is_hom_alternative_and_hom_bol(m21):
    u = _unipotent_conjugation(m21, 3)
    # U e21 U^-1 = e21 + e11 - e22 - e12: the twist is not diagonal.
    assert apply_map(u, m21.space.basis_vector("e21")) == m21.space.element({"e21": 1, "e11": 1, "e22": -1, "e12": -1})
    assert run_suite(yau_twist_algebra(m21, u), "RIGHT_HOM_ALT").passed
    bol = bol_from_right_alternative(m21, Convention.UNIT, checked=False)
    assert run_suite(yau_twist_bol(bol, u), "HOM_BOL").passed


def test_scaling_e11_alone_is_no_self_morphism_of_m21(m21):
    scale_e11 = EvenMap.from_images(
        m21.space, {name: m21.space.element({name: 2 if name == "e11" else 1}) for name in m21.space.names}
    )
    report = is_even_self_morphism(m21, scale_e11)
    assert not report.passed
    assert report.counterexample == ("e11", "e11")
    assert report.residue == m21.space.element({"e11": -2})
