"""The benchmark's tracer (bench/spans.py) resolves every name it wraps and
counts the element-level products the oracle calls."""

import importlib
import importlib.util
from pathlib import Path

from superbol import core, engine, structures
from superbol.catalog import SPACE_1_2, example_5_1_bol
from superbol.dsl import parse_identity
from superbol.engine import StructureBinding, evaluate_on_elements

_SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    spans = _spans_module()
    for module_name, attr in spans.SPANNED + spans.COUNTED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_recorder_counts_both_oracle_products_and_uninstalls():
    spans = _spans_module()
    originals = (structures.bin_mul, structures.tern_mul, engine.bin_mul, engine.tern_mul, core.Element.__init__)
    bol = example_5_1_bol()
    binding = StructureBinding(SPACE_1_2, {"*": bol.binary, "{}": bol.ternary}, bol.twist)
    identity = parse_identity("{(x*y),z,w} - {(x*y),z,w} = 0")
    assignment = {var: SPACE_1_2.element({"i": 1, "j": 2, "k": -1}) for var in identity.variables}
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert structures.bin_mul is not originals[0] and engine.tern_mul is not originals[3]
        evaluate_on_elements(identity, binding, assignment)
    finally:
        recorder.uninstall()
    assert recorder.counters["structures.bin_mul.calls"] > 0
    assert recorder.counters["structures.tern_mul.calls"] > 0
    assert (structures.bin_mul, structures.tern_mul, engine.bin_mul, engine.tern_mul, core.Element.__init__) == originals
