from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from superbol.catalog import SPACE_1_2, example_5_1_beta
from superbol.core import (
    EVEN,
    MIXED,
    ODD,
    Element,
    EvenMap,
    SuperSpace,
    apply_map,
    compose,
    is_even_matrix,
    parity_of,
    power,
    rational,
)


def test_superspace_dimensions():
    assert SPACE_1_2.dim == 3
    assert SPACE_1_2.dim_even == 1
    assert SPACE_1_2.dim_odd == 2
    assert SPACE_1_2.names == ("i", "j", "k")
    assert SPACE_1_2.parities == (0, 1, 1)


def test_superspace_rejects_duplicates_and_bad_parity():
    with pytest.raises(ValueError):
        SuperSpace.build([("a", 0), ("a", 1)])
    with pytest.raises(ValueError):
        SuperSpace.build([])
    with pytest.raises(ValueError):
        SuperSpace.build([("a", 2)])


def test_parity_of_zero_is_even():
    assert parity_of(SPACE_1_2.zero()) == EVEN


def test_parity_of_homogeneous_and_mixed():
    j_plus_k = SPACE_1_2.element({"j": 1, "k": 1})
    assert parity_of(j_plus_k) == ODD
    i_plus_j = SPACE_1_2.element({"i": 1, "j": 1})
    assert parity_of(i_plus_j) is MIXED


def test_element_arithmetic_is_exact():
    e = SPACE_1_2.element({"i": "1/3", "j": "2"})
    tripled = e.scale(3)
    assert tripled.coords[SPACE_1_2.index("i")] == 1
    assert (e - e).is_zero()
    assert (e + (-e)).is_zero()
    assert 2 * e == e + e


def test_element_drops_zero_coordinates():
    e = Element(SPACE_1_2, {0: Fraction(0), 1: Fraction(2)})
    assert list(e.coords) == [1]
    assert str(e) == "2*j"


def test_element_space_mismatch():
    other = SuperSpace.build([("x", 0)])
    with pytest.raises(ValueError):
        SPACE_1_2.basis_vector("i") + other.basis_vector("x")


def test_apply_map_on_basis():
    beta = example_5_1_beta(2, 3)
    assert apply_map(beta, SPACE_1_2.basis_vector("j")) == SPACE_1_2.element({"j": 1, "k": 3})
    assert apply_map(beta, SPACE_1_2.basis_vector("k")) == SPACE_1_2.element({"k": 2})
    identity = EvenMap.identity(SPACE_1_2)
    e = SPACE_1_2.element({"i": "5/7", "k": -2})
    assert apply_map(identity, e) == e


def test_apply_map_preserves_parity_of_homogeneous():
    beta = example_5_1_beta(2, 3)
    for name in SPACE_1_2.names:
        e = SPACE_1_2.basis_vector(name)
        image = apply_map(beta, e)
        if not image.is_zero():
            assert parity_of(image) == parity_of(e)


def test_power_and_compose():
    beta = example_5_1_beta(2, 3)
    assert power(beta, 0) == EvenMap.identity(SPACE_1_2)
    squared = power(beta, 2)
    assert apply_map(squared, SPACE_1_2.basis_vector("k")) == SPACE_1_2.element({"k": 4})
    assert compose(beta, EvenMap.identity(SPACE_1_2)) == beta


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("n", range(5))
def test_power_additivity(m, n):
    beta = example_5_1_beta(2, 3)
    assert power(beta, m + n) == compose(power(beta, m), power(beta, n))


def test_power_is_the_n_fold_composition():
    f = EvenMap(SPACE_1_2, ((2, 0, 0), (0, 1, 3), (0, "-1/2", 2)))
    composed = EvenMap.identity(SPACE_1_2)
    for n in range(10):
        assert power(f, n) == composed
        composed = compose(f, composed)



def _dense_compose(f, g):
    n = len(f)
    return tuple(tuple(sum((f[i][k] * g[k][j] for k in range(n)), Fraction(0)) for j in range(n)) for i in range(n))


def _dense_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


@st.composite
def _even_maps_and_element(draw):
    """A space of dim 1-6, two even maps on it (each the zero map, the
    identity, or random entries anywhere in the even blocks) and an element."""
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)), min_size=1, max_size=6))
    space = SuperSpace.build((f"v{i}", p) for i, p in enumerate(parities))
    n = space.dim
    scalars = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))

    def even_map():
        kind = draw(st.sampled_from(("zero", "identity", "blocks")))
        if kind == "identity":
            return EvenMap.identity(space)
        return EvenMap(space, tuple(
            tuple(draw(scalars) if kind == "blocks" and parities[i] == parities[j] else 0 for j in range(n))
            for i in range(n)
        ))

    coords = draw(st.dictionaries(st.integers(0, n - 1), scalars))
    return even_map(), even_map(), Element(space, coords)


@given(_even_maps_and_element())
@example((
    EvenMap(SPACE_1_2, ((2, 0, 0), (0, 1, 3), (0, "-1/2", 2))),
    EvenMap(SPACE_1_2, ((0, 0, 0), (0, 0, 1), (0, 1, 0))),
    SPACE_1_2.element({"i": 1, "j": "2/3", "k": -1}),
))
def test_sparse_map_arithmetic_matches_dense_reference(maps):
    f, g, element = maps
    n = f.space.dim
    composed = compose(f, g)
    assert composed.matrix == _dense_compose(f.matrix, g.matrix)
    dense = _dense_identity(n)
    for exponent in range(10):
        result = power(f, exponent)
        assert result.matrix == dense
        assert all(type(entry) is Fraction for row in result.matrix + composed.matrix for entry in row)
        dense = _dense_compose(f.matrix, dense)
    image = {i: sum((f.matrix[i][j] * c for j, c in element.coords.items()), Fraction(0)) for i in range(n)}
    assert apply_map(f, element) == Element(f.space, image)
    assert f.is_identity() == (f.matrix == _dense_identity(n))
    assert g.is_identity() == (g.matrix == _dense_identity(n))


def test_is_even():
    assert is_even_matrix(example_5_1_beta(5, "1/2").matrix, SPACE_1_2)
    swap_i_to_j = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert not is_even_matrix(swap_i_to_j, SPACE_1_2)
    zero = [[0] * 3 for _ in range(3)]
    assert is_even_matrix(zero, SPACE_1_2)


def test_even_map_constructor_rejects_cross_parity():
    with pytest.raises(ValueError):
        EvenMap(SPACE_1_2, ((0, 0, 0), (1, 0, 0), (0, 0, 0)))


def test_even_map_from_images_requires_full_basis():
    with pytest.raises(ValueError):
        EvenMap.from_images(SPACE_1_2, {"i": SPACE_1_2.basis_vector("i")})


def test_rational_coercion():
    assert rational("3/2") == Fraction(3, 2)
    assert rational(-4) == Fraction(-4)
    with pytest.raises(TypeError):
        rational(0.5)
