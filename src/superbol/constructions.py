"""Derived structures: minus/plus algebras, derived ternary brackets, twists.

Every derived product is defined once, as a DSL term sum, and its structure
constants are tabulated by the engine on all basis tuples
(:func:`suites.tabulated`); no element-level copy of them exists.  The
bilinear-form triple is such a sum over the pairing tensor
P(x,y,z) = <x|y>z, read straight from the Gram matrix.  Twists and derived
structures instead compose the stored constants with powers of a
self-morphism or of the twist, one body for either arity.  Every builder
verifies its preconditions by running the relevant identity suites before
constructing (pass ``checked=False`` to skip, mirroring the CLI's
``--unchecked``).  A failed precondition raises :class:`ConstructionError`
carrying the stage name and the failing report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import Element, EvenMap, Scalar, SuperSpace, apply_map, compose, power, rational
from .dsl import ANGLE, BRACES, STAR, build_identity, parse_identity
from .reports import CheckReport
from .structures import (
    Convention,
    HomBinaryTernary,
    HomSuperalgebra,
    HomTripleSystem,
    ProductTensor,
    TernaryStructure,
    is_even_self_morphism,
    is_multiplicative,
)
from .suites import SUPER_JORDAN, SUPERCOMMUTATOR, graded_product, run_suite, scaled, tabulated

_JORDAN_LTS = parse_identity("2 (x*(y*z)) - 2 (-1)^{x.y} (y*(x*z)) = 0", name="jordan_lts_bracket")
# Keyed (x, y, z) although the term reads its variables as y, z, x.
_BOL_TERNARY = build_identity(
    "bol_ternary", ("x", "y", "z"), parse_identity("(-1)^{x.y + x.z} as(y,z,x) = 0").terms
)
_HOM_JORDAN_TRIPLE = parse_identity(
    "((x*y)*A(z)) + (A(x)*(y*z)) - (-1)^{x.y} (A(y)*(x*z)) = 0", name="hom_jordan_triple"
)
_LIE_TRIPLE = parse_identity("<x,y,z> - (-1)^{x.y} <y,x,z> = 0", name="lie_triple")
# {} is bound to the pairing tensor P(x,y,z) = <x|y>z.
_FORM_TRIPLE = parse_identity(
    "{x,y,z} + (-1)^{x.y + x.z} {y,z,x} - (-1)^{z.x + z.y} {z,x,y} = 0", name="bilinear_form_triple"
)


class ConstructionError(ValueError):
    """A construction's precondition failed; carries the offending report."""

    def __init__(self, stage: str, message: str, report=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.report = report


def _require_suite(structure, suite_name: str, stage: str) -> None:
    report = run_suite(structure, suite_name)
    if not report.passed:
        failure = report.first_failure()
        raise ConstructionError(
            stage,
            f"input fails suite {suite_name} at identity {failure.name!r}: {failure.describe()}",
            report,
        )


def _require_check(report: CheckReport, stage: str) -> None:
    if not report.passed:
        raise ConstructionError(stage, report.describe(), report)


def _require_identity_twist(algebra, stage: str) -> None:
    if not algebra.twist.is_identity():
        raise ConstructionError(stage, "construction requires the identity twist")


def minus_algebra(algebra: HomSuperalgebra, conv: Convention = Convention.UNIT) -> HomSuperalgebra:
    """Replace the product by its graded antisymmetrization; same twist."""
    return HomSuperalgebra(graded_product(algebra.binary, conv, SUPERCOMMUTATOR), algebra.twist)


def plus_algebra(algebra: HomSuperalgebra, conv: Convention = Convention.UNIT) -> HomSuperalgebra:
    """Replace the product by its graded symmetrization; same twist."""
    return HomSuperalgebra(graded_product(algebra.binary, conv, SUPER_JORDAN), algebra.twist)


def jordan_lts_bracket(jordan: HomSuperalgebra, checked: bool = True) -> TernaryStructure:
    """Ternary bracket 2(x(yz) - (-1)^{|x||y|} y(xz)) of an untwisted Jordan product."""
    _require_identity_twist(jordan, "jordan_lts_bracket")
    if checked:
        _require_suite(jordan, "SUPERCOMMUTATIVE", "jordan_lts_bracket")
    return TernaryStructure(jordan.space, tabulated(_JORDAN_LTS, {STAR: jordan.binary}))


def bol_from_right_alternative(
    algebra: HomSuperalgebra, conv: Convention = Convention.UNIT, checked: bool = True
) -> HomBinaryTernary:
    """Binary-ternary structure carried by an untwisted right alternative product.

    The binary part is the graded antisymmetrization; the ternary part is the
    signed symmetrized associator (-1)^{|x|(|y|+|z|)} as+(y,z,x).
    """
    _require_identity_twist(algebra, "bol_from_right_alternative")
    if checked:
        _require_suite(algebra, "RIGHT_ALT", "bol_from_right_alternative")
    plus = plus_algebra(algebra, conv)
    return HomBinaryTernary(
        binary=minus_algebra(algebra, conv).binary,
        ternary=TernaryStructure(algebra.space, tabulated(_BOL_TERNARY, {STAR: plus.binary})),
        twist=EvenMap.identity(algebra.space),
    )


def hom_jordan_triple(jordan: HomSuperalgebra, checked: bool = True) -> HomTripleSystem:
    """Ternary system of a twisted Jordan product; output twist is the square."""
    if checked:
        _require_check(is_multiplicative(jordan), "hom_jordan_triple")
        _require_suite(jordan, "HOM_JORDAN", "hom_jordan_triple")
    ternary = TernaryStructure(jordan.space, tabulated(_HOM_JORDAN_TRIPLE, {STAR: jordan.binary}, jordan.twist))
    return HomTripleSystem(ternary, power(jordan.twist, 2))


def lie_triple_from_jordan_triple(triple: HomTripleSystem, checked: bool = True) -> HomTripleSystem:
    """Antisymmetrize the first pair: [x,y,z] = <x,y,z> - (-1)^{|x||y|}<y,x,z>."""
    if checked:
        _require_suite(triple, "HOM_JORDAN_TRIPLE", "lie_triple_from_jordan_triple")
    ternary = TernaryStructure(triple.space, tabulated(_LIE_TRIPLE, {ANGLE: triple.ternary}))
    return HomTripleSystem(ternary, triple.twist)


def hom_bol_from_right_hom_alternative(
    algebra: HomSuperalgebra, conv: Convention = Convention.UNIT, checked: bool = True
) -> HomBinaryTernary:
    """Full pipeline from a multiplicative right twisted-alternative product.

    Stages: symmetrize, verify the Jordan axioms, build the ternary system,
    antisymmetrize it, and halve.  The binary part is the graded
    antisymmetrization and the output twist is the square of the input twist.
    The 1/2 on the ternary tensor is an absolute factor, independent of
    ``conv``.
    """
    if checked:
        _require_check(is_multiplicative(algebra), "input")
        _require_suite(algebra, "RIGHT_HOM_ALT", "input")
    plus = plus_algebra(algebra, conv)
    if checked:
        _require_suite(plus, "HOM_JORDAN", "plus_algebra")
    triple = hom_jordan_triple(plus, checked=False)
    if checked:
        _require_suite(triple, "HOM_JORDAN_TRIPLE", "hom_jordan_triple")
    lie = lie_triple_from_jordan_triple(triple, checked=False)
    if checked:
        _require_suite(lie, "HOM_LIE_TRIPLE", "lie_triple_from_jordan_triple")
    halved = TernaryStructure(
        algebra.space, {key: value.scale(Fraction(1, 2)) for key, value in lie.ternary.constants.items()}
    )
    return HomBinaryTernary(
        binary=minus_algebra(algebra, conv).binary,
        ternary=halved,
        twist=power(algebra.twist, 2),
    )


def _twisted(tensor: ProductTensor, outer: EvenMap) -> ProductTensor:
    """The tensor's products composed with ``outer``."""
    return type(tensor)(tensor.space, {key: apply_map(outer, value) for key, value in tensor.constants.items()})


def _twist_power(structure, beta: EvenMap, n: int, checked: bool, stage: str) -> EvenMap:
    """beta^n, once n is positive and (if ``checked``) beta is an even self-morphism."""
    if n < 1:
        raise ValueError("twisting exponent must be positive")
    if checked:
        _require_check(is_even_self_morphism(structure, beta), stage)
    return power(beta, n)


def yau_twist_algebra(
    algebra: HomSuperalgebra, beta: EvenMap, n: int = 1, checked: bool = True
) -> HomSuperalgebra:
    """Compose the binary product with the n-th power of a self-morphism."""
    bn = _twist_power(algebra, beta, n, checked, "yau_twist_algebra")
    return HomSuperalgebra(_twisted(algebra.binary, bn), compose(bn, algebra.twist))


def yau_twist_bol(
    structure: HomBinaryTernary, beta: EvenMap, n: int = 1, checked: bool = True
) -> HomBinaryTernary:
    """Twist a binary-ternary structure: bracket by beta^n, ternary by beta^2n."""
    bn = _twist_power(structure, beta, n, checked, "yau_twist_bol")
    return HomBinaryTernary(
        binary=_twisted(structure.binary, bn),
        ternary=_twisted(structure.ternary, power(beta, 2 * n)),
        twist=compose(bn, structure.twist),
    )


def yau_twist_triple(
    triple: HomTripleSystem, beta: EvenMap, n: int = 1, checked: bool = True
) -> HomTripleSystem:
    """Twist a ternary system: product by beta^n, twist by beta^n compose."""
    bn = _twist_power(triple, beta, n, checked, "yau_twist_triple")
    return HomTripleSystem(_twisted(triple.ternary, bn), compose(bn, triple.twist))


def nth_derived(structure: HomBinaryTernary, n: int) -> HomBinaryTernary:
    """Pre-compose products with twist powers 2^n - 1 (binary) and 2^(n+1) - 2 (ternary)."""
    if n < 0:
        raise ValueError("derivation index must be nonnegative")
    a = structure.twist
    return HomBinaryTernary(
        binary=_twisted(structure.binary, power(a, 2**n - 1)),
        ternary=_twisted(structure.ternary, power(a, 2 ** (n + 1) - 2)),
        twist=power(a, 2**n),
    )


@dataclass(frozen=True)
class BilinearForm:
    """A supersymmetric even bilinear form given by its Gram matrix.

    Supersymmetry: <x|y> = (-1)^{|x||y|} <y|x> on basis pairs.  Evenness
    (pairings of mixed parity vanish) is required so the form is a degree-0
    map into the even scalar field; violating matrices are rejected.
    """

    space: SuperSpace
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(rational(v) for v in row) for row in self.gram)
        object.__setattr__(self, "gram", rows)
        dim = self.space.dim
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError(f"expected a {dim}x{dim} Gram matrix")
        for i, j in itertools.product(range(dim), repeat=2):
            pi, pj = self.space.parity(i), self.space.parity(j)
            if pi != pj and rows[i][j] != 0:
                names = (self.space.names[i], self.space.names[j])
                raise ValueError(f"form must vanish on the mixed-parity pair {names}")
            sign = -1 if pi == 1 and pj == 1 else 1
            if rows[i][j] != sign * rows[j][i]:
                names = (self.space.names[i], self.space.names[j])
                raise ValueError(f"form is not supersymmetric at pair {names}")

    @staticmethod
    def from_table(space: SuperSpace, table: Mapping[tuple[str, str], Scalar]) -> "BilinearForm":
        """Build from the nonzero pairings; the supersymmetric partner may be omitted."""
        dim = space.dim
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for (a, b), value in table.items():
            i, j = space.index(a), space.index(b)
            rows[i][j] = rational(value)
        for i, j in itertools.product(range(dim), repeat=2):
            if rows[i][j] != 0 and rows[j][i] == 0 and i != j:
                sign = -1 if space.parity(i) == 1 and space.parity(j) == 1 else 1
                rows[j][i] = sign * rows[i][j]
        return BilinearForm(space, tuple(tuple(row) for row in rows))


def bilinear_form_triple(form: BilinearForm, lam: Scalar = 1) -> HomTripleSystem:
    """Untwisted ternary system lam(<x|y>z +-signed cyclic terms) of a form."""
    space = form.space
    pairing = TernaryStructure(space, {
        (i, j, k): Element(space, {k: form.gram[i][j]})
        for i, j, k in itertools.product(range(space.dim), repeat=3)
    })
    ternary = TernaryStructure(space, tabulated(scaled(_FORM_TRIPLE, rational(lam)), {BRACES: pairing}))
    return HomTripleSystem(ternary, EvenMap.identity(space))
