"""Exact verification and construction toolkit for graded binary-ternary algebra models.

``import superbol`` loads no submodule.  Each public name below is imported
from its submodule on first access (PEP 562), so a program pays only for
the modules it uses.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "core": ("EVEN", "MIXED", "ODD", "Element", "EvenMap", "SuperSpace", "apply_map", "compose",
             "parity_of", "power", "rational"),
    "dsl": ("Identity", "IdentitySyntaxError", "MultilinearityError", "SignPoly", "build_identity",
            "parse_identity"),
    "engine": ("StructureBinding", "UnboundSymbolError", "check", "evaluate_on_elements"),
    "reports": ("CheckReport", "SuiteReport"),
    "structures": ("BinaryStructure", "Convention", "HomBinaryTernary", "HomStructure", "HomSuperalgebra",
                   "HomTripleSystem", "TernaryStructure", "bin_mul", "grading_check",
                   "is_even_self_morphism", "is_multiplicative", "tern_mul"),
    "suites": ("SUITE_NAMES", "SuiteSpec", "binding_for", "run_suite", "suite"),
    "constructions": ("BilinearForm", "ConstructionError", "bilinear_form_triple", "bol_from_right_alternative",
                      "hom_bol_from_right_hom_alternative", "hom_jordan_triple", "jordan_lts_bracket",
                      "lie_triple_from_jordan_triple", "minus_algebra", "nth_derived", "plus_algebra",
                      "yau_twist_algebra", "yau_twist_bol", "yau_twist_triple"),
    "operators": ("L1", "L2", "L3", "L4", "Lxy", "lemma_binding", "lemma_identities", "verify_operator_lemmas"),
    "storage": ("AlgebraDocument", "AlgebraFileError", "load", "save"),
    "catalog": ("builtin_example", "example_document", "example_names"),
}

_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SUBMODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _SUBMODULE_OF:
        return getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
