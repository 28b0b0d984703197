"""Built-in fixtures: the shipped multiplication tables and their maps.

All tables are stored at the unit convention (no 1/2 on derived products);
parameters are instantiated rationals, never symbolic.  The bilinear-form
fixtures import :mod:`constructions` when they are built, so listing and
emitting the other fixtures loads no engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .core import EvenMap, Scalar, SuperSpace, rational
from .structures import (
    BinaryStructure,
    HomBinaryTernary,
    HomSuperalgebra,
    HomTripleSystem,
    TernaryStructure,
)

if TYPE_CHECKING:
    from .constructions import BilinearForm

SPACE_1_2 = SuperSpace.build([("i", 0), ("j", 1), ("k", 1)])
SPACE_2_1 = SuperSpace.build([("i", 0), ("j", 0), ("k", 1)])
SPACE_FORM = SuperSpace.build([("e", 0), ("f1", 1), ("f2", 1)])


def example_5_1() -> HomSuperalgebra:
    """Right alternative product on a (1|2) space: i*j=j*i=k, j*k=2i, k*j=4i."""
    binary = BinaryStructure.from_table(
        SPACE_1_2,
        {
            ("i", "j"): {"k": 1},
            ("j", "i"): {"k": 1},
            ("j", "k"): {"i": 2},
            ("k", "j"): {"i": 4},
        },
    )
    return HomSuperalgebra.untwisted(binary)


def example_5_1_beta(a: Scalar, b: Scalar) -> EvenMap:
    """The even map i -> a*i, j -> j + b*k, k -> a*k; a must be nonzero."""
    a, b = rational(a), rational(b)
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    return EvenMap.from_images(
        SPACE_1_2,
        {
            "i": SPACE_1_2.element({"i": a}),
            "j": SPACE_1_2.element({"j": 1, "k": b}),
            "k": SPACE_1_2.element({"k": a}),
        },
    )


def example_5_1_bol() -> HomBinaryTernary:
    """The derived binary-ternary table of example_5_1, untwisted."""
    binary = BinaryStructure.from_table(
        SPACE_1_2,
        {
            ("j", "k"): {"i": 6},
            ("k", "j"): {"i": 6},
        },
    )
    ternary = TernaryStructure.from_table(
        SPACE_1_2,
        {
            ("i", "j", "j"): {"i": 4},
            ("j", "i", "j"): {"i": -4},
            ("j", "j", "i"): {"i": -8},
            ("j", "j", "k"): {"k": -8},
            ("j", "k", "j"): {"k": 4},
            ("k", "j", "j"): {"k": 4},
        },
    )
    return HomBinaryTernary.untwisted(binary, ternary)


def example_5_1_hombol(a: Scalar = 2, b: Scalar = 3) -> HomBinaryTernary:
    """The beta-twisted table of example_5_1_bol: bracket scaled by a, ternary by a^2."""
    a, b = rational(a), rational(b)
    beta = example_5_1_beta(a, b)
    binary = BinaryStructure.from_table(
        SPACE_1_2,
        {
            ("j", "k"): {"i": 6 * a},
            ("k", "j"): {"i": 6 * a},
        },
    )
    a2 = a * a
    ternary = TernaryStructure.from_table(
        SPACE_1_2,
        {
            ("i", "j", "j"): {"i": 4 * a2},
            ("j", "i", "j"): {"i": -4 * a2},
            ("j", "j", "i"): {"i": -8 * a2},
            ("j", "j", "k"): {"k": -8 * a2},
            ("j", "k", "j"): {"k": 4 * a2},
            ("k", "j", "j"): {"k": 4 * a2},
        },
    )
    return HomBinaryTernary(binary, ternary, beta)


def example_3_1() -> HomBinaryTernary:
    """A 3-dimensional binary-ternary table on a (2|1) space, untwisted.

    The ternary entries are shipped as a verified table; they are not
    derivable from the binary part inside this toolkit.
    """
    binary = BinaryStructure.from_table(
        SPACE_2_1,
        {
            ("i", "j"): {"j": 1},
            ("i", "k"): {"k": 1},
            ("j", "i"): {"j": -1},
            ("k", "i"): {"k": -1},
            ("k", "k"): {"j": 1},
        },
    )
    ternary = TernaryStructure.from_table(
        SPACE_2_1,
        {
            ("i", "j", "i"): {"j": -1},
            ("i", "k", "i"): {"k": -1},
            ("j", "i", "i"): {"j": 1},
            ("k", "i", "i"): {"k": 1},
        },
    )
    return HomBinaryTernary.untwisted(binary, ternary)


def form_1_2() -> BilinearForm:
    """Supersymmetric form on a (1|2) space: <e|e>=1, <f1|f2>=1=-<f2|f1>."""
    from .constructions import BilinearForm

    return BilinearForm.from_table(SPACE_FORM, {("e", "e"): 1, ("f1", "f2"): 1})


def form_preserving_map() -> EvenMap:
    """A nontrivial even map preserving form_1_2: e -> -e, f1 -> 2f1, f2 -> f2/2."""
    return EvenMap.from_images(
        SPACE_FORM,
        {
            "e": SPACE_FORM.element({"e": -1}),
            "f1": SPACE_FORM.element({"f1": 2}),
            "f2": SPACE_FORM.element({"f2": Fraction(1, 2)}),
        },
    )


def jordan_form_triple(lam: Scalar = 1) -> HomTripleSystem:
    """The ternary system of form_1_2 at a given scale factor."""
    from .constructions import bilinear_form_triple

    return bilinear_form_triple(form_1_2(), lam)


_EXAMPLE_BUILDERS = {
    "example_3_1": (example_3_1, 0),
    "example_5_1": (example_5_1, 0),
    "example_5_1_bol": (example_5_1_bol, 0),
    "example_5_1_hombol": (example_5_1_hombol, 2),
    "jordan_form_triple": (jordan_form_triple, 1),
}


def example_names() -> tuple[str, ...]:
    """Emittable names, parametrized ones with their argument signature."""
    out = []
    for name, (_, argc) in sorted(_EXAMPLE_BUILDERS.items()):
        if argc:
            params = ",".join(f"p{i + 1}" for i in range(argc))
            out.append(f"{name}({params})")
        else:
            out.append(name)
    return tuple(out)


def builtin_example(name: str):
    """Build a fixture from a name like ``example_5_1`` or ``example_5_1_hombol(2,3)``.

    Parametrized fixtures accept exact rationals; omitted arguments fall back
    to the defaults shown by :func:`example_names`.
    """
    base, args = _split_example_name(name)
    builder, argc = _EXAMPLE_BUILDERS[base]
    if len(args) > argc:
        raise ValueError(f"example {base!r} takes at most {argc} parameters")
    return builder(*args)


def _split_example_name(name: str):
    base, args = name.strip(), []
    if "(" in name:
        if not name.rstrip().endswith(")"):
            raise ValueError(f"malformed example name {name!r}")
        base, _, raw = name.partition("(")
        base = base.strip()
        raw = raw.rstrip()[:-1].strip()
        if raw:
            args = [_example_parameter(chunk.strip(), base) for chunk in raw.split(",")]
    if base not in _EXAMPLE_BUILDERS:
        raise KeyError(f"unknown example {name!r}; available: {', '.join(example_names())}")
    return base, args


def _example_parameter(text: str, base: str):
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"example {base!r}: cannot parse rational parameter {text!r} (expected 'p' or 'p/q')") from None


def example_document(name: str):
    """The emittable file content of a fixture: structure plus companion maps.

    ``beta`` is the (a,b) map of the 3-dimensional fixtures; ``beta_star`` its
    b=0 variant, the one that is a morphism of the raw product.
    """
    from .storage import AlgebraDocument

    base, _ = _split_example_name(name)
    structure = builtin_example(name)
    maps = {}
    if base in ("example_5_1", "example_5_1_bol"):
        maps = {"beta": example_5_1_beta(2, 3), "beta_star": example_5_1_beta(2, 0)}
    elif base == "example_5_1_hombol":
        maps = {"beta": structure.twist}
    elif base == "jordan_form_triple":
        maps = {"form_preserving": form_preserving_map()}
    return AlgebraDocument(name=name.strip(), structure=structure, maps=maps)
