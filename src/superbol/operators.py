"""Left-multiplication operator calculus over a twisted Jordan product.

An operator equation ``Op(x, y, ...) = 0`` holds exactly when the element
identity ``Op(x, y, ...)(t) = 0`` holds for every basis vector ``t``, and that
identity is multilinear with ``t`` as a new last variable.  So an operator is
built as DSL terms over ``*`` and ``A`` in its argument variable ``t``:
``L1(a)`` is ``a*t``, and composition substitutes one operator's terms for
the other's ``t``.  Every operation is even, so the parity of a compound
argument is the sum of its variables' parities and each Koszul sign is a
sign polynomial over the variables.

Each lemma is checked by the identity engine on all homogeneous basis
tuples.  An operator tuple fails iff some ``t`` fails, and ``t`` is
quantified last, so the engine's first counterexample with ``t`` dropped is
the lexicographically first failing operator tuple.  What is already
decided is not checked again: the report slots that hold on every structure
meeting the preconditions, each by a reason named in ``_DECIDED``, and the
asserted sign of the two lemmas stated with two candidate signs, whose terms
cancel pairwise before any structure is bound.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Union

from .core import Value
from .dsl import STAR, Call, Expr, Identity, SignPoly, Term, Twist, Var, build_identity, variable_counts
from .engine import StructureBinding, check
from .reports import CheckReport, SuiteReport
from .structures import HomSuperalgebra, grading_check, is_multiplicative
from .suites import binding_for, run_suite, suite

ARG = Var("t")


class Combination(Value):
    """A signed sum of DSL expressions; with ``t`` free, the operator t -> sum."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Term, ...]):
        object.__setattr__(self, "terms", terms)

    def __add__(self, other: "Operand") -> "Combination":
        return Combination(self.terms + _lift(other).terms)

    def __sub__(self, other: "Operand") -> "Combination":
        return self + _lift(other).signed(SignPoly(), -1)

    def signed(self, sign: SignPoly, coefficient: int = 1) -> "Combination":
        """Every term times coefficient * (-1)^sign."""
        return Combination(
            tuple(Term(t.coefficient * coefficient, t.sign + sign, t.expr) for t in self.terms)
        )

    def __matmul__(self, other: "Operand") -> "Combination":
        """Compose with, or apply to, ``other``: substitute it for ``t``."""
        return _bilinear(self, other, _substitute)


Operand = Union[Expr, Combination]


def _lift(value: Operand) -> Combination:
    if isinstance(value, Combination):
        return value
    return Combination((Term(Fraction(1), SignPoly(), value),))


def _bilinear(left: Operand, right: Operand, combine: Callable[[Expr, Expr], Expr]) -> Combination:
    return Combination(
        tuple(
            Term(a.coefficient * b.coefficient, a.sign + b.sign, combine(a.expr, b.expr))
            for a in _lift(left).terms
            for b in _lift(right).terms
        )
    )


def _twist(power: int, expr: Expr) -> Expr:
    if isinstance(expr, Twist):
        return Twist(power + expr.power, expr.arg)
    return Twist(power, expr)


def _substitute(expr: Expr, value: Expr) -> Expr:
    if expr == ARG:
        return value
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, Twist):
        return _twist(expr.power, _substitute(expr.arg, value))
    return Call(expr.op, tuple(_substitute(arg, value) for arg in expr.args))


def _parity(operands) -> frozenset[str]:
    """Variables whose parities sum to the parity of the operand (or tuple of operands)."""
    counts: dict[str, int] = {}
    for operand in operands if isinstance(operands, tuple) else (operands,):
        variable_counts(_lift(operand).terms[0].expr, counts)
    return frozenset(var for var, n in counts.items() if n % 2)


def koszul(left, right) -> SignPoly:
    """The exponent of (-1)^{|left||right|}; a tuple stands for the sum of its parities."""
    poly = SignPoly()
    for a, b in itertools.product(_parity(left), _parity(right)):
        poly = poly + SignPoly(frozenset({frozenset({a, b})}))
    return poly


def mul(a: Operand, b: Operand) -> Combination:
    return _bilinear(a, b, lambda p, q: Call(STAR, (p, q)))


def A(a: Operand, power: int = 1) -> Combination:
    """The twist power applied to every term; ``A(ARG, n)`` is the operator alpha^n."""
    return Combination(tuple(Term(t.coefficient, t.sign, _twist(power, t.expr)) for t in _lift(a).terms))


def L1(a: Operand) -> Combination:
    """Left multiplication t -> a*t; its parity is |a|."""
    return mul(a, ARG)


def L2(x: Operand, y: Operand) -> Combination:
    return L1(A(x)) @ L1(y) - (L1(A(y)) @ L1(x)).signed(koszul(x, y))


def L3(x: Operand, y: Operand, z: Operand) -> Combination:
    return L2(A(x), A(y)) @ L1(z) - (L1(A(z, 2)) @ L2(x, y)).signed(koszul(z, (x, y)))


def L4(w: Operand, x: Operand, y: Operand, z: Operand) -> Combination:
    return L3(A(w), A(x), A(y)) @ L1(z) - (L1(A(z, 3)) @ L3(w, x, y)).signed(koszul(z, (w, x, y)))


def Lxy(x: Operand, y: Operand) -> Combination:
    """L(x*y) composed with the twist, plus the pair operator; acts as <x,y,->."""
    return L1(mul(x, y)) @ A(ARG) + L2(x, y)


def triple(x: Operand, y: Operand, z: Operand) -> Combination:
    """(xy)A(z) + A(x)(yz) - (-1)^{|x||y|} A(y)(xz), the twisted Jordan triple product."""
    return mul(mul(x, y), A(z)) + mul(A(x), mul(y, z)) - mul(A(y), mul(x, z)).signed(koszul(x, y))


def lemma_identities(untwisted: bool = True) -> tuple[Identity, ...]:
    """Every checked operator lemma as an identity over ``*`` and ``A``, in report order.

    Operator equations quantify ``t`` last.  ``pair_operator_swap`` and
    ``difference_reduction_pairs`` are stated with two candidate signs
    each.  The sign they assert, -1 and +1 respectively, gives an identity
    whose terms cancel in pairs, so only the other candidate is built, with
    sign +1 and -1.  A slot decided without a check has no identity, and
    ``double_bracket_reduction`` applies only at the identity twist.  Each
    of the two tuples is built once per process and shared: identities are
    frozen, and the engine's plan kept on each depends on the identity alone.
    """
    return _lemma_identities(bool(untwisted))


@functools.cache
def _lemma_identities(untwisted: bool) -> tuple[Identity, ...]:
    x, y, z, u, v, w = (Var(name) for name in "xyzuvw")
    alpha, alpha2, alpha3 = (A(ARG, n) for n in (1, 2, 3))
    xy, uv = mul(x, y), mul(u, v)
    swap = koszul((u, v), (x, y))

    def expansion(a: Var, b: Var, c: Var, d: Var) -> Combination:
        """Lxy(A^2 a, A^2 b) Lxy(c, d) minus its four-term expansion."""
        ab, cd = mul(a, b), mul(c, d)
        return (
            Lxy(A(a, 2), A(b, 2)) @ Lxy(c, d)
            - L1(A(ab, 2)) @ L1(A(cd)) @ alpha2
            - L2(A(a, 2), A(b, 2)) @ L1(cd) @ alpha
            - L1(A(ab, 2)) @ L2(A(c), A(d)) @ alpha
            - L2(A(a, 2), A(b, 2)) @ L2(c, d)
        )

    def nested(outer: Var, inner: Var) -> Combination:
        """L(A^2(outer) (A(inner) (x*y))) alpha^3."""
        return L1(L1(A(outer, 2)) @ (L1(A(inner)) @ xy)) @ alpha3

    lemmas = [
        ("pair_operator_swap", "xyt", L2(x, y) - L2(y, x).signed(koszul(x, y))),
        ("twist_naturality_pair", "xyt", alpha @ L2(x, y) - L2(A(x), A(y)) @ alpha),
        ("twist_naturality_triple", "xyzt", alpha @ L3(x, y, z) - L3(A(x), A(y), A(z)) @ alpha),
        (
            "jordan_cyclic_operator_sum",
            "wxzt",
            sum(
                ((L2(A(b), mul(a, c)) @ alpha).signed(koszul(a, (b, c)))
                 for a, b, c in ((w, x, z), (x, z, w), (z, w, x))),
                Combination(()),
            ),
        ),
        ("nested_left_mul_reduction", "xyzt", L1(L2(x, y) @ z) @ alpha2 - L3(x, y, z)),
        ("quad_first_term_expansion", "xyuvt", expansion(x, y, u, v)),
        ("quad_second_term_expansion", "xyuvt", expansion(u, v, x, y).signed(swap)),
        (
            "difference_reduction_products",
            "xyuvt",
            L1(A(xy, 2)) @ L1(A(uv)) @ alpha2
            - (L1(A(uv, 2)) @ L1(A(xy)) @ alpha2).signed(swap)
            - L2(A(xy), mul(A(u), A(v))) @ alpha2,
        ),
        (
            "difference_reduction_mixed_left",
            "xyuvt",
            L2(A(x, 2), A(y, 2)) @ L1(uv) @ alpha
            - (L1(A(uv, 2)) @ L2(A(x), A(y)) @ alpha).signed(swap)
            - L1(L2(A(x), A(y)) @ uv) @ alpha3,
        ),
        (
            "difference_reduction_mixed_right",
            "xyuvt",
            L1(A(xy, 2)) @ L2(A(u), A(v)) @ alpha
            - (L2(A(u, 2), A(v, 2)) @ L1(xy) @ alpha).signed(swap)
            - (nested(v, u).signed(koszul(u, v)) - nested(u, v)).signed(swap),
        ),
        (
            "difference_reduction_pairs",
            "xyuvt",
            L2(A(x, 2), A(y, 2)) @ L2(u, v)
            - (L2(A(u, 2), A(v, 2)) @ L2(x, y)).signed(swap)
            - L4(x, y, u, v)
            + L4(y, x, v, u).signed(koszul(u, v) + koszul(x, y)),
        ),
        (
            "triple_head_expansion",
            "xyuvt",
            Lxy(triple(x, y, u), A(v, 2)) @ alpha2
            - nested(v, u).signed(koszul(u, v) + swap)
            - L1(L2(A(x), A(y)) @ uv) @ alpha3
            + (L1(L1(A(u, 2)) @ (L2(x, y) @ v)) @ alpha3).signed(koszul(u, (x, y)))
            + (L2(A(v, 2), mul(xy, A(u))) @ alpha2).signed(koszul(v, (u, x, y)))
            - L4(x, y, u, v),
        ),
        (
            "triple_tail_expansion",
            "xyuvt",
            (Lxy(A(u, 2), triple(y, x, v)) @ alpha2).signed(koszul(x, y) + koszul(u, (x, y)))
            - nested(u, v).signed(swap)
            + (L1(L1(A(u, 2)) @ (L2(x, y) @ v)) @ alpha3).signed(koszul(u, (x, y)))
            - (L2(A(u, 2), mul(A(v), xy)) @ alpha2).signed(swap)
            + L4(y, x, v, u).signed(koszul(u, v) + koszul(x, y)),
        ),
        (
            "supertriple_operator_identity",
            "xyuvt",
            Lxy(A(x, 2), A(y, 2)) @ Lxy(u, v)
            - (Lxy(A(u, 2), A(v, 2)) @ Lxy(x, y)).signed(swap)
            - Lxy(triple(x, y, u), A(v, 2)) @ alpha2
            + (Lxy(A(u, 2), triple(y, x, v)) @ alpha2).signed(koszul(x, y) + koszul(u, (x, y))),
        ),
    ]
    if untwisted:
        bracket = L1(x) @ L1(y) - (L1(y) @ L1(x)).signed(koszul(x, y))
        lemmas.append(
            (
                "double_bracket_reduction",
                "xyzt",
                bracket @ L1(z)
                - (L1(z) @ bracket).signed(koszul((x, y), z))
                - L1(mul(x, mul(y, z)))
                + L1(mul(y, mul(x, z))).signed(koszul(x, y)),
            )
        )
    return tuple(build_identity(name, tuple(variables), terms.terms) for name, variables, terms in lemmas)


def lemma_binding(jordan: HomSuperalgebra) -> StructureBinding:
    """``*`` and ``A`` from the Jordan product, as HOM_JORDAN binds them."""
    return binding_for(jordan, suite("HOM_JORDAN"))


def _lemma_report(binding: StructureBinding, identity: Identity) -> CheckReport:
    """The engine's verdict on operator tuples; a two-sign lemma passes, its detail naming the signs that hold."""
    report = check(binding, identity)
    tuples, counterexample = report.tuples_checked, report.counterexample
    if identity.variables[-1] == ARG.name:
        tuples //= binding.space.dim
        counterexample = counterexample and counterexample[:-1]
    if identity.name in _TWO_SIGNS:
        text, asserted = _TWO_SIGNS[identity.name]
        return CheckReport(identity.name, True, tuples, detail=text.format("+1/-1" if report.passed else asserted))
    return CheckReport(identity.name, report.passed, tuples, counterexample)


# The lemmas stated with two candidate signs: the report's detail, given the
# signs that hold, and the asserted sign, which holds on every structure.
_TWO_SIGNS = {
    "pair_operator_swap": ("holds with sign {}; asserting -1", "-1"),
    "difference_reduction_pairs": ("swapped-quadruple sign {} holds; asserting +1", "+1"),
}

# Report slots that hold whenever the preconditions do, as (place in the
# report, name, n), each passing with the d**n tuples of its n arguments.
_DECIDED = (
    (0, "left_mul_supercommutativity", 2),  # HOM_JORDAN's supercommutativity, term for term
    (1, "left_mul_additivity", 2),  # a structure-constant model is bilinear
    (3, "twist_naturality_single", 1),  # binary multiplicativity, [] -> * and y -> t
    (17, "pair_action_matches_triple_product", 3),  # the three terms that define <x,y,z>
)


def verify_operator_lemmas(jordan: HomSuperalgebra) -> SuiteReport:
    """Check every operator lemma on all homogeneous basis tuples.

    Preconditions, each verified first and raised as ValueError: the product
    is graded, the structure is multiplicative, and its product satisfies
    the twisted Jordan suite.  On a structure that fails them, :func:`check`
    each of :func:`lemma_identities` on :func:`lemma_binding` instead.

    The slots of ``_DECIDED`` and the asserted signs always pass, with the
    tuple counts a check would give; a two-sign lemma's detail says whether
    its checked candidate holds too.
    """
    grading = grading_check(jordan.binary)
    if not grading.passed:
        raise ValueError(f"operator lemmas need a graded product: {grading.describe()}")
    mult = is_multiplicative(jordan)
    if not mult.passed:
        raise ValueError(f"operator lemmas need a multiplicative structure: {mult.describe()}")
    jordan_suite = run_suite(jordan, "HOM_JORDAN")
    if not jordan_suite.passed:
        failure = jordan_suite.first_failure()
        raise ValueError(f"operator lemmas need a twisted Jordan product: {failure.describe()}")

    binding = lemma_binding(jordan)
    reports = [_lemma_report(binding, identity) for identity in lemma_identities(jordan.twist.is_identity())]
    for place, name, arguments in _DECIDED:
        reports.insert(place, CheckReport(name, True, jordan.space.dim**arguments))
    return SuiteReport(suite="operator_lemmas", reports=tuple(reports))
