"""Structure-constant models of binary and ternary twisted superalgebras.

A product is a sparse tensor mapping basis tuples to elements; absent
entries are zero products.  One base, :class:`ProductTensor`, holds either
arity; ``BinaryStructure`` and ``TernaryStructure`` fix it at 2 and 3.  One
base, :class:`HomStructure`, holds a binary tensor, a ternary tensor or both
with one even twist; ``HomSuperalgebra``, ``HomTripleSystem`` and
``HomBinaryTernary`` (the three kinds a file holds) fix which product is
absent; "untwisted" means the identity twist.  Every check and suite
takes a structure as one of those.  The only element-level products are
``bin_mul`` and ``tern_mul``, one multilinear body that extends a tensor to
arbitrary elements; they serve the general-element oracle.  Derived tables
are built by the engine from DSL term sums, and the self-morphism laws below
are identities the engine checks.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import ClassVar, Mapping, Optional

from .core import (
    Element,
    EvenMap,
    Scalar,
    SuperSpace,
    Value,
    compose,
)
from .dsl import BRACES, BRACKET, parse_identity
from .reports import CheckReport


class Convention(enum.Enum):
    """Normalization of the derived symmetrized/antisymmetrized products.

    ``HALF`` carries the 1/2 factor; ``UNIT`` drops it.  The default across
    the toolkit is ``UNIT``: the shipped fixture tables are reproduced exactly
    only without the 1/2.  Every axiom suite passes under both (the axioms are
    homogeneous under scaling the derived products).
    """

    UNIT = "unit"
    HALF = "half"

    @property
    def half(self) -> bool:
        return self is Convention.HALF

    @property
    def factor(self) -> Fraction:
        return Fraction(1, 2) if self.half else Fraction(1)


class ProductTensor(Value):
    """Sparse structure constants of an ``arity``-linear product; a subclass fixes ``arity``."""

    arity: ClassVar[int]
    __slots__ = _fields = ("space", "constants")

    def __init__(self, space: SuperSpace, constants: Mapping[tuple[int, ...], Element]):
        cleaned = {}
        for key, value in constants.items():
            if len(key) != self.arity:
                raise ValueError(f"key {key} of a {type(self).__name__} needs {self.arity} indices")
            if value.space != space:
                raise ValueError(f"constant at {key} lives in a different space")
            if not value.is_zero():
                cleaned[tuple(map(int, key))] = value
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constants", dict(sorted(cleaned.items())))

    @classmethod
    def from_table(cls, space: SuperSpace, table: Mapping[tuple[str, ...], Mapping[str, Scalar]]):
        constants = {tuple(map(space.index, names)): space.element(coords) for names, coords in table.items()}
        return cls(space, constants)

    @classmethod
    def zero(cls, space: SuperSpace):
        return cls(space, {})


class BinaryStructure(ProductTensor):
    """Sparse structure constants for a binary product on a superspace."""

    __slots__ = ()
    arity = 2


class TernaryStructure(ProductTensor):
    """Sparse structure constants for a ternary product on a superspace."""

    __slots__ = ()
    arity = 3


class HomStructure(Value):
    """Products sharing one superspace and one even twist; a subclass fixes which product is absent."""

    absent: ClassVar[Optional[str]] = None  # the product a subclass fixes as None
    __slots__ = _fields = ("binary", "ternary", "twist")

    def __init__(self, binary: Optional[BinaryStructure], ternary: Optional[TernaryStructure], twist: EvenMap):
        for label, product in (("binary", binary), ("ternary", ternary)):
            if product is None and label != self.absent:
                raise ValueError(f"a {type(self).__name__} needs a {label} product")
            if product is not None and product.space != twist.space:
                raise ValueError(f"the products and twist of a {type(self).__name__} must share one superspace")
        object.__setattr__(self, "binary", binary)
        object.__setattr__(self, "ternary", ternary)
        object.__setattr__(self, "twist", twist)

    @property
    def space(self) -> SuperSpace:
        return self.twist.space

    @classmethod
    def untwisted(cls, *products: ProductTensor):
        """The structure on ``products`` (in constructor order) with the identity twist."""
        return cls(*products, EvenMap.identity(products[0].space))


class HomSuperalgebra(HomStructure):
    """A binary structure together with an even twisting map; it has no ternary product."""

    __slots__ = ()
    absent = "ternary"

    def __init__(self, binary: BinaryStructure, twist: EvenMap):
        super().__init__(binary, None, twist)


class HomTripleSystem(HomStructure):
    """A ternary structure together with an even twisting map; it has no binary product."""

    __slots__ = ()
    absent = "binary"

    def __init__(self, ternary: TernaryStructure, twist: EvenMap):
        super().__init__(None, ternary, twist)


class HomBinaryTernary(HomStructure):
    """A binary and a ternary structure sharing one space and one twist."""

    __slots__ = ()


def _multilinear(structure: ProductTensor, operands: tuple[Element, ...]) -> Element:
    """Multilinear extension of the stored structure constants."""
    space = structure.space
    for operand in operands:
        if operand.space != space:
            raise ValueError("operands live outside the structure's superspace")
    out: dict[int, Fraction] = {}
    for choice in itertools.product(*[operand.coords.items() for operand in operands]):
        key, coefficients = zip(*choice)
        entry = structure.constants.get(key)
        if entry is not None:
            coefficient = math.prod(coefficients)
            for target, value in entry.coords.items():
                out[target] = out.get(target, 0) + coefficient * value
    return Element(space, out)


def bin_mul(structure: BinaryStructure, x: Element, y: Element) -> Element:
    """Bilinear extension of the stored structure constants."""
    return _multilinear(structure, (x, y))


def tern_mul(structure: TernaryStructure, x: Element, y: Element, z: Element) -> Element:
    """Trilinear extension of the stored structure constants."""
    return _multilinear(structure, (x, y, z))


def grading_check(structure: ProductTensor) -> CheckReport:
    """Verify that every stored constant lands in the parity forced by its
    inputs, in key order (the order the constants are stored in)."""
    space = structure.space
    parities = space.parities
    for checked, (key, value) in enumerate(structure.constants.items(), 1):
        expected = sum(map(parities.__getitem__, key)) % 2
        if any(parities[i] != expected for i in value.coords):
            names = tuple(space.names[i] for i in key)
            return CheckReport(
                name="grading",
                passed=False,
                tuples_checked=checked,
                counterexample=names,
                residue=value,
                detail=f"product of {names} must be homogeneous of parity {expected}",
            )
    return CheckReport(name="grading", passed=True, tuples_checked=len(structure.constants))


BINARY_MULTIPLICATIVITY = parse_identity("A([x,y]) - [A(x),A(y)] = 0", name="binary_multiplicativity")
TERNARY_MULTIPLICATIVITY = parse_identity("A({x,y,z}) - {A(x),A(y),A(z)} = 0", name="ternary_multiplicativity")


def is_even_self_morphism(structure: HomStructure, f: EvenMap, name: str = "even_self_morphism") -> CheckReport:
    """Check that the even map f commutes with the structure's twist and products.

    Conditions, in report order: f commutes with the twist, f is a morphism
    for the binary product on all basis pairs, and for the ternary product on
    all basis triples.  The two morphism laws are the identities above,
    checked by the engine with the twist symbol bound to f.  The report
    carries the first failing condition and tuple; ``tuples_checked`` counts
    the conditions up to and including it, basis tuples in lexicographic
    order.
    """
    space, twist = structure.space, structure.twist
    if f.space != space:
        raise ValueError("candidate map lives in a different superspace")
    checked = 1
    if compose(f, twist) != compose(twist, f):
        return CheckReport(
            name=name,
            passed=False,
            tuples_checked=checked,
            detail="candidate does not commute with the twist",
        )

    # The engine imports this module, so a top-level import would be circular.
    from .engine import StructureBinding, check

    ops, laws = {}, []
    if structure.binary is not None:
        ops[BRACKET] = structure.binary
        laws.append((BINARY_MULTIPLICATIVITY, "binary"))
    if structure.ternary is not None:
        ops[BRACES] = structure.ternary
        laws.append((TERNARY_MULTIPLICATIVITY, "ternary"))
    binding = StructureBinding(space, ops, f)
    for law, label in laws:
        report = check(binding, law)
        if not report.passed:
            rank = 0
            for basis_name in report.counterexample:
                rank = rank * space.dim + space.index(basis_name)
            return CheckReport(
                name=name,
                passed=False,
                tuples_checked=checked + rank + 1,
                counterexample=report.counterexample,
                residue=report.residue,
                detail=f"{label} images differ at ({', '.join(report.counterexample)})",
            )
        checked += report.tuples_checked
    return CheckReport(name=name, passed=True, tuples_checked=checked)


def is_multiplicative(structure: HomStructure) -> CheckReport:
    """Does the structure's own twist commute with all its products on basis tuples?"""
    return is_even_self_morphism(structure, structure.twist, name="multiplicativity")
