"""Named identity suites and the rules for binding them to structures.

Each suite is a fixed list of DSL identities.  Cyclic sums are expanded into
explicit terms (the DSL has no cyclic-sum primitive) so the evaluation
semantics stay trivial to audit.

Binding rules: ``[]``/``{}`` in the axiom suites (BOL, HOM_BOL, the triple
suites) refer to the structure's own operations.  The lemma suites
(LEMMA_2_4 .. EQ_7_10) state facts about a single binary product ``*`` and
its derived graded (anti)symmetrizations; there ``[]`` and ``o`` are derived
from ``*`` at the half normalization, the one under which those statements
hold with the printed coefficients.  Suites whose statements are untwisted
bind the twist symbol to the identity map regardless of the structure's own
twist.

The graded (anti)symmetrization is defined here once, as a term sum the
engine tabulates; the lemma bindings and the constructions both build it
with :func:`graded_product`.

A suite is declared as (name, text) pairs and parsed on its first
:func:`suite` lookup; later lookups return the same :class:`SuiteSpec`.
Importing this module parses only the two derived-product identities and
loads no engine, which the binding and checking functions import when they
run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Union

from .core import Element, EvenMap, SuperSpace
from .dsl import STAR, Identity, parse_identity
from .reports import SuiteReport
from .structures import (
    BINARY_MULTIPLICATIVITY,
    TERNARY_MULTIPLICATIVITY,
    BinaryStructure,
    Convention,
    HomStructure,
    ProductTensor,
)

TWIST_STRUCTURE = "structure"
TWIST_IDENTITY = "identity"

BIND_BINARY = "binary"
BIND_TERNARY = "ternary"


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    identities: tuple[Identity, ...]
    # (symbol, source): BIND_BINARY, BIND_TERNARY, or a derived product's identity
    bindings: tuple[tuple[str, Union[str, Identity]], ...]
    twist_mode: str


_SUPERCOMMUTATOR_TEXT = "(x*y) - (-1)^{x.y} (y*x) = 0"
SUPERCOMMUTATOR = parse_identity(_SUPERCOMMUTATOR_TEXT, name="supercommutator")
SUPER_JORDAN = parse_identity("(x*y) + (-1)^{x.y} (y*x) = 0", name="super_jordan")


# Each suite's identities are declared as (name, text) pairs, or as an
# identity parsed elsewhere, and parsed on the suite's first lookup.
_RIGHT_ALT_IDS = (
    (
        "right_superalternativity",
        "as(x,y,z) + (-1)^{y.z} as(x,z,y) = 0",
    ),
    (
        "right_superalternativity_expanded",
        "(A(x)*(y*z)) + (-1)^{y.z} (A(x)*(z*y)) - ((x*y)*A(z)) - (-1)^{y.z} ((x*z)*A(y)) = 0",
    ),
)

_LEFT_ALT_ID = (
    (
        "left_superalternativity",
        "as(x,y,z) + (-1)^{x.y} as(y,x,z) = 0",
    ),
)

_SUPERCOMMUTATIVITY = (("supercommutativity", _SUPERCOMMUTATOR_TEXT),)

_JORDAN_SUPERIDENTITY = (
    (
        "jordan_superidentity",
        "(-1)^{z.x + z.w} as((x*y),w,z)"
        " + (-1)^{x.y + x.w} as((y*z),w,x)"
        " + (-1)^{y.z + y.w} as((z*x),w,y) = 0",
    ),
)

_HOM_JORDAN_SUPERIDENTITY = (
    (
        "jordan_superidentity_twisted",
        "(-1)^{t.x + t.z} as((x*y),A(z),A(t))"
        " + (-1)^{x.y + x.z} as((y*t),A(z),A(x))"
        " + (-1)^{y.t + y.z} as((t*x),A(z),A(y)) = 0",
    ),
    (
        "jordan_superidentity_expanded",
        "(-1)^{x.y + x.z + y.t + y.z} ((A(t)*A(z))*A((y*x)))"
        " - (-1)^{x.y + x.z + y.t + y.z} (A^2(t)*(A(z)*(y*x)))"
        " + (-1)^{y.t + y.z + t.x + t.z} ((A(x)*A(z))*A((t*y)))"
        " - (-1)^{y.t + y.z + t.x + t.z} (A^2(x)*(A(z)*(t*y)))"
        " + (-1)^{t.x + t.z + x.y + x.z} ((A(y)*A(z))*A((x*t)))"
        " - (-1)^{t.x + t.z + x.y + x.z} (A^2(y)*(A(z)*(x*t))) = 0",
    ),
)

_SKEW_BINARY = ("skew_binary", "[x,y] + (-1)^{x.y} [y,x] = 0")
_SKEW_TERNARY = ("skew_ternary", "{x,y,z} + (-1)^{x.y} {y,x,z} = 0")
_TERNARY_CYCLIC = (
    "ternary_cyclic_sum",
    "{x,y,z} + (-1)^{x.y + x.z} {y,z,x} + (-1)^{z.x + z.y} {z,x,y} = 0",
)
_TERNARY_DERIVATION = (
    "ternary_derivation",
    "{x,y,{u,v,w}} - {{x,y,u},v,w} - (-1)^{u.x + u.y} {u,{x,y,v},w}"
    " - (-1)^{x.u + x.v + y.u + y.v} {u,v,{x,y,w}} = 0",
)

_BOL_IDS = (
    _SKEW_BINARY,
    _SKEW_TERNARY,
    _TERNARY_CYCLIC,
    (
        "binary_ternary_compat",
        "{x,y,[u,v]} - [{x,y,u},v] - (-1)^{u.x + u.y} [u,{x,y,v}]"
        " - (-1)^{x.u + x.v + y.u + y.v} {u,v,[x,y]}"
        " + (-1)^{x.u + x.v + y.u + y.v} [[u,v],[x,y]] = 0",
    ),
    _TERNARY_DERIVATION,
)

_HOM_BOL_IDS = (BINARY_MULTIPLICATIVITY, TERNARY_MULTIPLICATIVITY) + (
    _SKEW_BINARY,
    _SKEW_TERNARY,
    _TERNARY_CYCLIC,
    (
        "binary_ternary_compat",
        "{A(x),A(y),[u,v]} - [{x,y,u},A^2(v)] - (-1)^{u.x + u.y} [A^2(u),{x,y,v}]"
        " - (-1)^{x.u + x.v + y.u + y.v} {A(u),A(v),[x,y]}"
        " + (-1)^{x.u + x.v + y.u + y.v} [[A(u),A(v)],[A(x),A(y)]] = 0",
    ),
    (
        "ternary_derivation",
        "{A^2(x),A^2(y),{u,v,w}} - {{x,y,u},A^2(v),A^2(w)}"
        " - (-1)^{u.x + u.y} {A^2(u),{x,y,v},A^2(w)}"
        " - (-1)^{x.u + x.v + y.u + y.v} {A^2(u),A^2(v),{x,y,w}} = 0",
    ),
)

_LIE_TRIPLE_IDS = (_SKEW_TERNARY, _TERNARY_CYCLIC, _TERNARY_DERIVATION)

# A twisted ternary system carries one twist map; it stands in for the squared
# twist an ambient binary-ternary structure would supply in the derivation
# axiom, matching how such systems arise as the zero-bracket special case.
_HOM_LIE_TRIPLE_IDS = (
    _SKEW_TERNARY,
    _TERNARY_CYCLIC,
    (
        "ternary_derivation_twisted",
        "{A(x),A(y),{u,v,w}} - {{x,y,u},A(v),A(w)}"
        " - (-1)^{u.x + u.y} {A(u),{x,y,v},A(w)}"
        " - (-1)^{x.u + x.v + y.u + y.v} {A(u),A(v),{x,y,w}} = 0",
    ),
)

_OUTER_SUPERSYMMETRY = (
    "outer_supersymmetry",
    "<x,y,z> - (-1)^{x.y + x.z + y.z} <z,y,x> = 0",
)

_JORDAN_TRIPLE_IDS = (
    _OUTER_SUPERSYMMETRY,
    (
        "triple_identity",
        "<x,y,<u,v,w>> - <<x,y,u>,v,w>"
        " - (-1)^{x.u + x.v + y.u + y.v} <u,v,<x,y,w>>"
        " + (-1)^{x.u + x.v + y.u + y.v} <u,<v,x,y>,w> = 0",
    ),
)

_HOM_JORDAN_TRIPLE_IDS = (
    _OUTER_SUPERSYMMETRY,
    (
        "triple_identity_twisted",
        "<A(x),A(y),<u,v,w>> - <<x,y,u>,A(v),A(w)>"
        " - (-1)^{x.u + x.v + y.u + y.v} <A(u),A(v),<x,y,w>>"
        " + (-1)^{x.u + x.v + y.u + y.v} <A(u),<v,x,y>,A(w)> = 0",
    ),
)

_LEMMA_2_4_IDS = (
    (
        "bracket_associator_expansion",
        "as([w,x],y,z) - [w,as(x,y,z)] - (-1)^{x.y + x.z} [as(w,y,z),x]"
        " + as(w,x,[y,z]) - (-1)^{w.x} as(x,w,[y,z]) = 0",
    ),
)

_LEMMA_2_6_IDS = (
    (
        "bracket_associator_expansion_twisted",
        "as([w,x],A(y),A(z)) - [A^2(w),as(x,y,z)] - (-1)^{x.y + x.z} [as(w,y,z),A^2(x)]"
        " + as(A(w),A(x),[y,z]) - (-1)^{w.x} as(A(x),A(w),[y,z]) = 0",
    ),
)

_EQ_2_7_IDS = (
    (
        "product_associator_expansion",
        "as((w*x),A(y),A(z)) - (-1)^{x.y + x.z} (as(w,y,z)*A^2(x))"
        " - (A^2(w)*as(x,y,z)) + 2 as(A(w),A(x),[y,z]) = 0",
    ),
)

_EQ_4_7_IDS = (
    (
        "symmetrized_associator_expansion",
        "as(A(z),A(t),o(x,y)) - (-1)^{x.y} (as(z,t,y)*A^2(x))"
        " + (-1)^{t.x} (as(z,x,t)*A^2(y))"
        " - as(A(z),[t,x],A(y)) - (-1)^{x.y} as(A(z),[t,y],A(x)) = 0",
    ),
)

_EQ_3_2_IDS = (
    (
        "derived_ternary_closed_form",
        "2 (-1)^{x.y + x.z} o(o(y,z),x) - 2 (-1)^{x.y + x.z} o(y,o(z,x))"
        " - 2 [[x,y],z] + (-1)^{z.x + z.y} as(z,x,y) = 0",
    ),
)

_EQ_7_10_IDS = (
    (
        "derived_ternary_closed_form_twisted",
        "o(o(x,y),A(z)) + o(A(x),o(y,z)) - (-1)^{x.y} o(A(y),o(x,z))"
        " - (-1)^{x.y} o(o(y,x),A(z)) - (-1)^{x.y} o(A(y),o(x,z)) + o(A(x),o(y,z))"
        " - 2 [[x,y],A(z)] + (-1)^{z.x + z.y} as(z,x,y) = 0",
    ),
)

_STAR_ONLY = (("*", BIND_BINARY),)
_BOL_BINDINGS = (("[]", BIND_BINARY), ("{}", BIND_TERNARY))
_TERNARY_ONLY = (("{}", BIND_TERNARY),)
_ANGLE_ONLY = (("<>", BIND_TERNARY),)
_STAR_BRACKET = (("*", BIND_BINARY), ("[]", SUPERCOMMUTATOR))
_STAR_BRACKET_JORDAN = _STAR_BRACKET + (("o", SUPER_JORDAN),)

# name -> (identities, bindings, twist mode)
_DECLARED = {
    "RIGHT_ALT": (_RIGHT_ALT_IDS, _STAR_ONLY, TWIST_IDENTITY),
    "RIGHT_HOM_ALT": (_RIGHT_ALT_IDS, _STAR_ONLY, TWIST_STRUCTURE),
    "HOM_ALT": ((_RIGHT_ALT_IDS[0],) + _LEFT_ALT_ID, _STAR_ONLY, TWIST_STRUCTURE),
    "JORDAN": (_SUPERCOMMUTATIVITY + _JORDAN_SUPERIDENTITY, _STAR_ONLY, TWIST_IDENTITY),
    "HOM_JORDAN": (_SUPERCOMMUTATIVITY + _HOM_JORDAN_SUPERIDENTITY, _STAR_ONLY, TWIST_STRUCTURE),
    "SUPERCOMMUTATIVE": (_SUPERCOMMUTATIVITY, _STAR_ONLY, TWIST_STRUCTURE),
    "BOL": (_BOL_IDS, _BOL_BINDINGS, TWIST_IDENTITY),
    "HOM_BOL": (_HOM_BOL_IDS, _BOL_BINDINGS, TWIST_STRUCTURE),
    "LIE_TRIPLE": (_LIE_TRIPLE_IDS, _TERNARY_ONLY, TWIST_IDENTITY),
    "HOM_LIE_TRIPLE": (_HOM_LIE_TRIPLE_IDS, _TERNARY_ONLY, TWIST_STRUCTURE),
    "JORDAN_TRIPLE": (_JORDAN_TRIPLE_IDS, _ANGLE_ONLY, TWIST_IDENTITY),
    "HOM_JORDAN_TRIPLE": (_HOM_JORDAN_TRIPLE_IDS, _ANGLE_ONLY, TWIST_STRUCTURE),
    "LEMMA_2_4": (_LEMMA_2_4_IDS, _STAR_BRACKET, TWIST_IDENTITY),
    "LEMMA_2_6": (_LEMMA_2_6_IDS, _STAR_BRACKET, TWIST_STRUCTURE),
    "EQ_2_7": (_EQ_2_7_IDS, _STAR_BRACKET, TWIST_STRUCTURE),
    "EQ_4_7": (_EQ_4_7_IDS, _STAR_BRACKET_JORDAN, TWIST_STRUCTURE),
    "EQ_3_2": (_EQ_3_2_IDS, _STAR_BRACKET_JORDAN, TWIST_IDENTITY),
    "EQ_7_10": (_EQ_7_10_IDS, _STAR_BRACKET_JORDAN, TWIST_STRUCTURE),
}

SUITE_NAMES = tuple(_DECLARED)


def suite(name: str) -> SuiteSpec:
    """Look up a suite by its registry name (case-insensitive)."""
    key = name.upper()
    if key not in _DECLARED:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    return _spec(key)


@functools.cache
def _spec(key: str) -> SuiteSpec:
    declared, bindings, twist_mode = _DECLARED[key]
    return SuiteSpec(key, _parsed(declared), bindings, twist_mode)


@functools.cache
def _parsed(declared: tuple) -> tuple[Identity, ...]:
    """The identities of one declaration; suites that share it share the tuple."""
    return tuple(item if isinstance(item, Identity) else parse_identity(item[1], name=item[0]) for item in declared)


def tabulated(
    identity: Identity, ops: Mapping[str, ProductTensor], twist: Optional[EvenMap] = None
) -> dict[tuple[int, ...], Element]:
    """Structure constants of the product defined by ``identity``'s term sum,
    its symbols bound to ``ops`` and its twist to ``twist`` (default identity)."""
    from .engine import StructureBinding, tabulate

    space = next(iter(ops.values())).space
    return tabulate(StructureBinding(space, ops, EvenMap.identity(space) if twist is None else twist), identity)


def scaled(identity: Identity, factor: Fraction) -> Identity:
    """``identity`` with every term's coefficient multiplied by ``factor``."""
    return replace(identity, terms=tuple(replace(t, coefficient=t.coefficient * factor) for t in identity.terms))


def graded_product(binary: BinaryStructure, conv: Convention, product: Identity) -> BinaryStructure:
    """``conv.factor`` times the graded (anti)symmetrization ``product`` of ``binary``."""
    return BinaryStructure(binary.space, tabulated(scaled(product, conv.factor), {STAR: binary}))


def binding_for(structure: HomStructure, spec: SuiteSpec) -> StructureBinding:
    """Derive the operation bindings the suite expects from a structure."""
    from .engine import StructureBinding

    space: SuperSpace = structure.space
    ops = {}
    for symbol, source in spec.bindings:
        derived = isinstance(source, Identity)
        label = BIND_BINARY if derived else source
        product = structure.binary if label == BIND_BINARY else structure.ternary
        if product is None:
            raise ValueError(f"suite {spec.name} needs a {label} operation; structure has none")
        ops[symbol] = graded_product(product, Convention.HALF, source) if derived else product
    bound_twist = EvenMap.identity(space) if spec.twist_mode == TWIST_IDENTITY else structure.twist
    return StructureBinding(space=space, ops=ops, twist=bound_twist)


def run_suite(structure: HomStructure, name: str) -> SuiteReport:
    """Bind a structure per the suite's rules and check every identity."""
    from .engine import check

    spec = suite(name)
    binding = binding_for(structure, spec)
    return SuiteReport(suite=spec.name, reports=tuple(check(binding, identity) for identity in spec.identities))
