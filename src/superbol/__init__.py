"""Exact verification and construction toolkit for graded binary-ternary algebra models."""

from .core import (
    EVEN,
    MIXED,
    ODD,
    Element,
    EvenMap,
    SuperSpace,
    apply_map,
    compose,
    parity_of,
    power,
    rational,
)
from .dsl import Identity, IdentitySyntaxError, MultilinearityError, SignPoly, build_identity, parse_identity
from .engine import StructureBinding, UnboundSymbolError, check, evaluate_on_elements
from .reports import CheckReport, SuiteReport
from .structures import (
    BinaryStructure,
    Convention,
    HomBinaryTernary,
    HomStructure,
    HomSuperalgebra,
    HomTripleSystem,
    TernaryStructure,
    bin_mul,
    grading_check,
    hom_associator,
    is_even_self_morphism,
    is_multiplicative,
    super_jordan,
    supercommutator,
    tern_mul,
)
from .suites import SUITE_NAMES, SuiteSpec, binding_for, run_suite, suite
from .constructions import (
    BilinearForm,
    ConstructionError,
    bilinear_form_triple,
    bol_from_right_alternative,
    hom_bol_from_right_hom_alternative,
    hom_jordan_triple,
    jordan_lts_bracket,
    lie_triple_from_jordan_triple,
    minus_algebra,
    nth_derived,
    plus_algebra,
    yau_twist_algebra,
    yau_twist_bol,
    yau_twist_triple,
)
from .operators import (
    L1,
    L2,
    L3,
    L4,
    Lxy,
    lemma_binding,
    lemma_identities,
    verify_operator_lemmas,
)
from .storage import AlgebraDocument, AlgebraFileError, load, save
from .catalog import builtin_example, example_document, example_names

__all__ = [name for name in dir() if not name.startswith("_")]
