"""The package's public surface and the modules each CLI command loads.

Every check runs in a fresh interpreter, so that modules other tests have
imported can neither supply a missing public name nor hide an import.
"""

import json
import subprocess
import sys

import pytest

from conftest import fresh_env, run_fresh
from superbol.catalog import builtin_example, example_document
from superbol.constructions import plus_algebra
from superbol.storage import AlgebraDocument, save

# Defining module -> public names, as ``superbol`` exported them when every
# submodule was imported eagerly.
_PUBLIC = {
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


def test_public_surface_is_unchanged():
    names = sorted([*_PUBLIC, *(name for names in _PUBLIC.values() for name in names)])
    assert len(names) == 79
    found = run_fresh(
        """
import importlib, json, sys
import superbol
listed = dir(superbol)
table = json.loads(sys.argv[1])
same = {}
for module, names in table.items():
    defining = importlib.import_module("superbol." + module)
    for name in (module, *names):
        scope = {}
        exec(f"from superbol import {name} as value", scope)
        same[name] = scope["value"] is (defining if name == module else getattr(defining, name))
star = {}
exec("from superbol import *", star)
print(json.dumps({"all": superbol.__all__, "dir": listed, "same": same, "star": sorted(set(star) - {"__builtins__"}),
                  "unknown": hasattr(superbol, "no_such_name")}))
""",
        json.dumps(_PUBLIC),
    )
    assert found["all"] == names
    assert set(names) <= set(found["dir"])
    assert found["same"] == dict.fromkeys(found["same"], True) and len(found["same"]) == 79
    assert found["star"] == names
    assert found["unknown"] is False


_LOADED = """
import contextlib, io, json, sys
import superbol
after_package = sorted(m for m in sys.modules if m.startswith("superbol."))
import superbol.cli
after_cli = sorted(m for m in sys.modules if m.startswith("superbol.") and m != "superbol.cli")
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = superbol.cli.main(sys.argv[1:])
print(json.dumps({"package": after_package, "cli": after_cli, "code": code, "stderr": err.getvalue(),
                  "loaded": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("superbol.")),
                  "generators": sorted({"dataclasses", "inspect"} & set(sys.modules))}))
"""


def _command(tmp_path, *argv) -> dict:
    save(example_document("example_5_1"), tmp_path / "ex51.json")
    save(example_document("example_5_1_hombol(2,3)"), tmp_path / "hombol23.json")
    plus = AlgebraDocument("plus", plus_algebra(builtin_example("example_5_1")))
    save(plus, tmp_path / "plus.json")
    (tmp_path / "malformed.json").write_text('{"name": "truncated", "basis": [\n')
    return run_fresh(_LOADED, *(str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv))


@pytest.mark.parametrize(
    "argv,code,absent",
    [
        (("examples", "--list"), 0, {"engine", "constructions", "operators"}),
        (("check", "ex51.json", "--suite", "RIGHT_ALT"), 0, {"constructions", "operators", "catalog", "normal"}),
        (("info", "ex51.json"), 0, {"constructions", "operators", "catalog"}),
        (("check", "hombol23.json", "--suite", "HOM_BOL"), 1, {"constructions", "operators", "catalog", "normal"}),
        (("check", "malformed.json", "--suite", "BOL"), 2, {"engine", "constructions", "operators", "catalog"}),
        (("construct", "hom_bol", "ex51.json", "-o", "hb.json"), 0, {"operators", "catalog"}),
        (("lemmas", "plus.json"), 0, {"constructions", "catalog"}),
        (("derive", "hombol23.json", "-n", "1", "-o", "derived.json"), 0, {"engine", "operators", "catalog", "normal"}),
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, code, absent):
    """A command imports only the modules it runs, and no module imports
    ``dataclasses`` or ``inspect``: no class is generated at import.  A
    check of a dim-3 structure is too small to restrict to orbits, so it
    does not load the normal form, and ``derive`` runs no check, so it
    loads no engine: ``constructions`` imports it only when a stage runs."""
    found = _command(tmp_path, *argv)
    assert found["package"] == [] and found["cli"] == []
    assert found["code"] == code, found["stderr"]
    assert absent.isdisjoint(found["loaded"]), found["loaded"]
    assert found["generators"] == []


def test_operators_load_no_construction():
    """The operator lemmas bind only ``*`` and the twist, so importing them
    loads no construction."""
    loaded = run_fresh("import json, sys\nimport superbol.operators\nprint(json.dumps(sorted(sys.modules)))")
    assert "superbol.operators" in loaded and "superbol.constructions" not in loaded


def test_library_errors_keep_their_exit_codes_in_a_fresh_interpreter(tmp_path):
    found = _command(tmp_path, "construct", "hom_jordan_triple", "ex51.json", "-o", "out.json")
    assert found["code"] == 1 and found["stderr"].startswith("precondition failed: [hom_jordan_triple]")
    found = _command(tmp_path, "info", "malformed.json")
    assert found["code"] == 2 and found["stderr"].startswith("error: ") and "invalid JSON" in found["stderr"]


def test_module_entry_point_maps_errors_to_exit_codes(tmp_path):
    """``python -m superbol.cli`` runs the module as ``__main__``."""
    save(example_document("example_5_1"), tmp_path / "ex51.json")
    (tmp_path / "malformed.json").write_text("{")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "superbol.cli", *argv], cwd=tmp_path, env=fresh_env(),
                              capture_output=True, text=True, timeout=120)

    done = run("construct", "hom_jordan_triple", "ex51.json", "-o", "out.json")
    assert done.returncode == 1 and done.stderr.startswith("precondition failed: ")
    done = run("check", "malformed.json", "--suite", "BOL")
    assert done.returncode == 2 and done.stderr.startswith("error: ")
    done = run("check", "ex51.json", "--suite", "RIGHT_ALT")
    assert done.returncode == 0 and "2/2 checks passed" in done.stdout
