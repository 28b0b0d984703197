import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superbol.catalog import SPACE_1_2
from superbol.core import EvenMap
from superbol.dsl import (
    ANGLE,
    BRACES,
    BRACKET,
    JORDAN,
    STAR,
    Call,
    IdentitySyntaxError,
    MultilinearityError,
    SignPoly,
    Twist,
    Var,
    leaf_weights,
    parse_identity,
)
from superbol.engine import StructureBinding, UnboundSymbolError, check


def test_parse_right_superalternativity():
    identity = parse_identity("as(x,y,z) + (-1)^{y.z} as(x,z,y) = 0")
    assert identity.variables == ("x", "y", "z")
    assert len(identity.terms) == 2
    first, second = identity.terms
    assert first.coefficient == 1 and first.sign == SignPoly.zero()
    assert second.coefficient == 1
    assert second.sign.evaluate({"y": 1, "z": 1}) == 1
    assert second.sign.evaluate({"y": 1, "z": 0}) == 0
    assert isinstance(first.expr, Call) and first.expr.op == "as"


def test_parse_bracket_skew():
    identity = parse_identity("[x,y] + (-1)^{x.y} [y,x] = 0")
    assert identity.variables == ("x", "y")
    assert len(identity.terms) == 2
    assert {term.expr.op for term in identity.terms} == {BRACKET}


def test_multilinearity_error_missing_variable():
    with pytest.raises(MultilinearityError):
        parse_identity("[x,y] + [x,z] = 0")


def test_multilinearity_error_repeated_variable():
    with pytest.raises(MultilinearityError):
        parse_identity("as(x,x,y) + as(y,x,x) = 0")


def test_sign_exponent_must_use_known_variables():
    with pytest.raises(MultilinearityError):
        parse_identity("(-1)^{w.x} (x*y) - (x*y) = 0")


def test_syntax_error_carries_position():
    with pytest.raises(IdentitySyntaxError) as err:
        parse_identity("as(x,y = 0")
    assert err.value.position >= 0


def test_identity_must_equal_zero():
    with pytest.raises(IdentitySyntaxError):
        parse_identity("as(x,y,z) = 1")


def test_trailing_input_rejected():
    with pytest.raises(IdentitySyntaxError):
        parse_identity("(x*y) - (x*y) = 0 junk")


def test_reserved_names_rejected_in_signs():
    with pytest.raises(IdentitySyntaxError):
        parse_identity("(-1)^{A.x} (x*y) - (x*y) = 0")


def test_coefficients_parse():
    identity = parse_identity("2 (x*y) - 1/2 (-1)^{x.y} (y*x) - (x*y) = 0")
    coefficients = [t.coefficient for t in identity.terms]
    assert coefficients == [Fraction(2), Fraction(-1, 2), Fraction(-1)]


def test_leading_sign_on_first_term():
    identity = parse_identity("- (x*y) + (x*y) = 0")
    assert identity.terms[0].coefficient == -1


def test_twist_powers_and_macros():
    identity = parse_identity("A^3([x,y]) - o(A(x), A^2(y)) = 0")
    assert identity.max_twist_power() == 3
    twist = identity.terms[0].expr
    assert isinstance(twist, Twist) and twist.power == 3
    assert twist.arg.op == BRACKET and identity.terms[1].expr.op == JORDAN


def test_assoc_macro_implies_star_and_twist():
    identity = parse_identity("as(x,y,z) - as(x,y,z) = 0")
    with pytest.raises(UnboundSymbolError, match=re.escape(repr(STAR))):
        check(StructureBinding(SPACE_1_2, {}, EvenMap.identity(SPACE_1_2)), identity)
    assert identity.max_twist_power() == 1


def test_ternary_expressions_parse():
    identity = parse_identity("{x,y,z} - <x,y,z> = 0")
    ops = {term.expr.op for term in identity.terms}
    assert ops == {BRACES, ANGLE}


def test_negative_twist_power_rejected():
    with pytest.raises(IdentitySyntaxError):
        parse_identity("A^-1(x) - x = 0")


def test_whitespace_insignificant():
    a = parse_identity("as(x,y,z)+(-1)^{y.z}as(x,z,y)=0")
    b = parse_identity("as( x , y , z ) + ( - 1 ) ^ { y . z } as( x , z , y ) = 0")
    assert a.terms == b.terms


def test_signpoly_parse_and_str():
    poly = SignPoly.parse("x.y + z + 1")
    assert poly.evaluate({"x": 1, "y": 1, "z": 0}) == 0  # 1 + 0 + 1
    assert poly.evaluate({"x": 0, "y": 1, "z": 0}) == 1
    assert "1" in str(poly)


def test_signpoly_square_collapses():
    assert SignPoly.parse("x.x") == SignPoly.parse("x")


def test_signpoly_against_direct_exponent_four_vars():
    poly = SignPoly.parse("x.y + x.z + y.t + y.z")
    for px, py, pz, pt in itertools.product((0, 1), repeat=4):
        direct = (px * py + px * pz + py * pt + py * pz) % 2
        assert poly.evaluate({"x": px, "y": py, "z": pz, "t": pt}) == direct


def test_signpoly_against_direct_exponent_six_vars():
    poly = SignPoly.parse("u.v + w.x + y.z + u + 1")
    for bits in itertools.product((0, 1), repeat=6):
        u, v, w, x, y, z = bits
        direct = (u * v + w * x + y * z + u + 1) % 2
        env = dict(zip("uvwxyz", bits))
        assert poly.evaluate(env) == direct
        assert poly.sign(env) == (-1) ** direct


@pytest.mark.parametrize("text", ["x y", "2", "A", "x.y.z"])
def test_signpoly_parse_rejects_what_the_identity_grammar_rejects(text):
    with pytest.raises(IdentitySyntaxError):
        SignPoly.parse(text)


_vars = st.sampled_from(["x", "y", "z", "t", "u", "w"])
_monos = st.one_of(
    st.just(frozenset()),
    st.builds(lambda a: frozenset({a}), _vars),
    st.builds(lambda a, b: frozenset({a, b}), _vars, _vars),
)
_polys = st.builds(lambda ms: SignPoly(frozenset(ms)), st.sets(_monos, max_size=6))
_assignments = st.fixed_dictionaries({v: st.integers(0, 1) for v in "xyztuw"})


@given(_polys, _polys, _assignments)
def test_signpoly_sum_multiplies_signs(p, q, env):
    assert (p + q).sign(env) == p.sign(env) * q.sign(env)


@given(_polys, _assignments)
def test_signpoly_self_sum_vanishes(p, env):
    assert (p + p).evaluate(env) == 0
    assert (p + p).sign(env) == 1


def test_leaf_weights_expand_the_associator():
    (term,) = parse_identity("as(x,y,z) = 0").terms
    assert leaf_weights(term.expr, 1) == [{"x": 2, "y": 2, "z": 2}, {"x": 2, "y": 2, "z": 2}]
    assert leaf_weights(term.expr, 2) == [{"x": 2, "y": 2, "z": 3}, {"x": 3, "y": 2, "z": 2}]


def test_leaf_weights_count_ternary_arguments_twice():
    (term,) = parse_identity("{x,A^2(y),(u*as(v,w,t))} = 0").terms
    assert leaf_weights(term.expr, 3) == [
        {"x": 2, "y": 8, "u": 3, "v": 5, "w": 5, "t": 7},
        {"x": 2, "y": 8, "u": 3, "v": 7, "w": 5, "t": 5},
    ]
