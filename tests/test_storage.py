import copy
import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import graded_structures
from superbol.catalog import SPACE_1_2, example_5_1_beta, example_document
from superbol.cli import main
from superbol.core import Element
from superbol.storage import AlgebraDocument, AlgebraFileError, document_to_dict, load, save
from superbol.structures import BinaryStructure, Convention, HomSuperalgebra, HomTripleSystem


ALL_EXAMPLES = [
    "example_3_1",
    "example_5_1",
    "example_5_1_bol",
    "example_5_1_hombol(2,3)",
    "jordan_form_triple(-2)",
]


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_round_trip(tmp_path, name):
    document = example_document(name)
    path = tmp_path / "algebra.json"
    save(document, path)
    loaded = load(path)
    assert loaded.structure == document.structure
    assert loaded.maps == dict(document.maps)
    assert loaded.convention == document.convention
    assert loaded.name == document.name


def test_save_is_deterministic(tmp_path):
    document = example_document("example_5_1_bol")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save(document, first)
    save(document, second)
    assert first.read_bytes() == second.read_bytes()


def test_rational_strings_parse_exactly(tmp_path):
    document = example_document("example_5_1_bol")
    path = tmp_path / "bol.json"
    save(document, path)
    raw = json.loads(path.read_text())
    jk = [row for row in raw["binary"] if row[:2] == ["j", "k"]]
    assert jk == [["j", "k", "i", "6"]]
    loaded = load(path)
    j, k = SPACE_1_2.index("j"), SPACE_1_2.index("k")
    assert loaded.structure.binary.constants[(j, k)] == SPACE_1_2.element({"i": 6})


def test_canonical_lowest_terms(tmp_path):
    structure = HomSuperalgebra.untwisted(
        BinaryStructure(SPACE_1_2, {(0, 0): Element(SPACE_1_2, {0: Fraction(2, 4)})})
    )
    path = tmp_path / "half.json"
    save(AlgebraDocument(name="half", structure=structure), path)
    assert ["i", "i", "i", "1/2"] in json.loads(path.read_text())["binary"]


def _write(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "name": "t",
    "kind": "hom_superalgebra",
    "convention": "unit",
    "basis": [{"name": "i", "parity": 0}, {"name": "j", "parity": 1}, {"name": "k", "parity": 1}],
    "binary": [["i", "j", "k", "1"]],
    "ternary": [],
    "maps": {},
    "twist": "id",
}


def test_grading_violation_names_entry(tmp_path):
    payload = dict(BASE, binary=[["i", "j", "i", "1"]])
    with pytest.raises(AlgebraFileError, match=r"grading.*\('i', 'j'\)"):
        load(_write(tmp_path, payload))


def test_unknown_basis_name_in_entry(tmp_path):
    payload = dict(BASE, binary=[["i", "q", "k", "1"]])
    with pytest.raises(AlgebraFileError, match="binary\\[0\\].*'q'"):
        load(_write(tmp_path, payload))


def test_bad_rational_rejected(tmp_path):
    payload = dict(BASE, binary=[["i", "j", "k", "1.5"]])
    with pytest.raises(AlgebraFileError, match="rational"):
        load(_write(tmp_path, payload))


def test_bad_kind_rejected(tmp_path):
    payload = dict(BASE, kind="algebra")
    with pytest.raises(AlgebraFileError, match="kind"):
        load(_write(tmp_path, payload))


def test_unknown_twist_reference(tmp_path):
    payload = dict(BASE, twist="beta")
    with pytest.raises(AlgebraFileError, match="twist"):
        load(_write(tmp_path, payload))


def test_uneven_map_rejected(tmp_path):
    payload = dict(BASE, maps={"bad": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]})
    with pytest.raises(AlgebraFileError, match="map 'bad'"):
        load(_write(tmp_path, payload))


def test_bad_convention_rejected(tmp_path):
    payload = dict(BASE, convention="double")
    with pytest.raises(AlgebraFileError, match="convention"):
        load(_write(tmp_path, payload))


@pytest.mark.parametrize(
    "payload,match",
    [
        (dict(BASE, twist=["x"]), "twist"),
        (dict(BASE, maps=[]), "maps"),
        (dict(BASE, name=["t"]), "name"),
        (dict(BASE, binary=5), "binary"),
        (dict(BASE, basis=[{"name": "i", "parity": 0}, {"name": "j", "parity": True}, {"name": "k", "parity": 1}]),
         r"basis\[1\].*parity"),
        (dict(BASE, binary=[], basis=[{"name": ["i"], "parity": 0}, {"name": "j", "parity": 1}, {"name": "k", "parity": 1}]),
         r"basis\[0\].*name"),
    ],
    ids=["twist-list", "maps-list", "name-list", "binary-int", "parity-bool", "basis-name-list"],
)
def test_mistyped_field_rejected(tmp_path, payload, match):
    with pytest.raises(AlgebraFileError, match=match):
        load(_write(tmp_path, payload))


@pytest.mark.parametrize(
    "payload,match",
    [
        (dict(BASE, kind="hom_triple", binary=[["i", "i", "i", "5"]]), "binary.*hom_triple"),
        (dict(BASE, ternary=[["i", "i", "i", "i", "nonsense"]]), "ternary.*hom_superalgebra"),
    ],
    ids=["binary-rows-in-a-triple-file", "ternary-rows-in-a-superalgebra-file"],
)
def test_product_list_the_kind_does_not_hold_is_rejected(tmp_path, capsys, payload, match):
    path = _write(tmp_path, payload)
    with pytest.raises(AlgebraFileError, match=match):
        load(path)
    assert main(["info", str(path)]) == 2
    assert "must be empty" in capsys.readouterr().err


def _renamed(document_name, key, typo):
    """A shipped document's file with one top-level key misspelled."""
    data = document_to_dict(example_document(document_name))
    return {typo if name == key else name: value for name, value in data.items()}


@pytest.mark.parametrize(
    "payload,typo",
    [
        (_renamed("example_5_1_hombol(2,3)", "twist", "twsit"), "twsit"),
        (_renamed("example_5_1", "convention", "covention") | {"covention": "half"}, "covention"),
        (_renamed("example_5_1_bol", "binary", "binray"), "binray"),
    ],
    ids=["twsit", "covention", "binray"],
)
def test_unknown_top_level_key_is_rejected(tmp_path, capsys, payload, typo):
    path = _write(tmp_path, payload)
    allowed = "allowed keys: name, kind, convention, basis, binary, ternary, maps, twist"
    with pytest.raises(AlgebraFileError, match=f"unknown top-level key '{typo}'; {allowed}"):
        load(path)
    assert main(["check", str(path), "--suite", "HOM_BOL"]) == 2
    assert f"'{typo}'" in capsys.readouterr().err


def test_unknown_key_in_a_basis_entry_is_rejected(tmp_path, capsys):
    data = document_to_dict(example_document("example_5_1"))
    entry = next(item for item in data["basis"] if item["name"] == "j")
    position = data["basis"].index(entry)
    entry["partiy"] = 0
    path = _write(tmp_path, data)
    message = f"basis[{position}]: unknown key 'partiy'; allowed keys: name, parity"
    with pytest.raises(AlgebraFileError, match=re.escape(message)):
        load(path)
    assert main(["info", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "basis_name,row",
    [("True", [True, True, True, "1"]), ("1", [1, "1", "1", "1"])],
    ids=["json-true", "json-integer"],
)
def test_basis_name_in_a_product_row_must_be_a_string(tmp_path, capsys, basis_name, row):
    path = _write(tmp_path, dict(BASE, basis=[{"name": basis_name, "parity": 0}], binary=[row]))
    with pytest.raises(AlgebraFileError, match=r"binary\[0\]: basis name must be a string"):
        load(path)
    assert main(["info", str(path)]) == 2
    assert "binary[0]" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(AlgebraFileError, match="line"):
        load(path)


def test_duplicate_entries_sum(tmp_path):
    payload = dict(BASE, binary=[["i", "j", "k", "1"], ["i", "j", "k", "2"]])
    loaded = load(_write(tmp_path, payload))
    i, j = SPACE_1_2.index("i"), SPACE_1_2.index("j")
    assert loaded.structure.binary.constants[(i, j)] == SPACE_1_2.element({"k": 3})


def test_unnamed_twist_map_is_materialized(tmp_path):
    from superbol.catalog import example_5_1_beta, builtin_example

    structure = HomSuperalgebra(builtin_example("example_5_1").binary, example_5_1_beta(3, 0))
    path = tmp_path / "twisted.json"
    save(AlgebraDocument(name="t", structure=structure), path)
    raw = json.loads(path.read_text())
    assert raw["twist"] == "twist" and "twist" in raw["maps"]
    assert load(path).structure == structure


def test_non_utf8_file_is_an_input_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(dict(BASE, name="t")).encode().replace(b'"t"', b'"\xe9"'))
    with pytest.raises(AlgebraFileError, match="UTF-8"):
        load(path)


def test_deeply_nested_json_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(AlgebraFileError, match="nested"):
        load(path)


def test_coefficient_beyond_the_int_digit_limit_is_an_input_error(tmp_path):
    payload = dict(BASE, binary=[["i", "j", "k", "7" * 5000]])
    with pytest.raises(AlgebraFileError, match=r"binary\[0\].*rational"):
        load(_write(tmp_path, payload))


def test_integer_literal_beyond_the_int_digit_limit_is_an_input_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(BASE).replace('"parity": 0', '"parity": ' + "7" * 5000))
    with pytest.raises(AlgebraFileError):
        load(path)


def test_saving_a_product_beyond_the_int_digit_limit_is_a_file_error(tmp_path):
    binary = BinaryStructure(SPACE_1_2, {(1, 2): SPACE_1_2.element({"i": 10**5000})})
    path = tmp_path / "huge.json"
    with pytest.raises(AlgebraFileError, match=r"binary entry \(j, k\) -> i: cannot write"):
        save(AlgebraDocument(name="t", structure=HomSuperalgebra.untwisted(binary)), path)
    assert not path.exists()


def test_saving_a_map_beyond_the_int_digit_limit_is_a_file_error(tmp_path):
    structure = example_document("example_5_1").structure
    huge = example_5_1_beta(10**5000, 0)
    path = tmp_path / "huge.json"
    with pytest.raises(AlgebraFileError, match=r"map 'huge' row 0: cannot write"):
        save(AlgebraDocument(name="t", structure=structure, maps={"huge": huge}), path)
    assert not path.exists()


def test_map_named_id_is_rejected_at_load(tmp_path):
    payload = dict(BASE, maps={"id": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    with pytest.raises(AlgebraFileError, match="reserved"):
        load(_write(tmp_path, payload))


def test_map_named_id_is_rejected_at_save(tmp_path):
    beta = example_5_1_beta(2, 0)
    structure = HomSuperalgebra(example_document("example_5_1").structure.binary, beta)
    path = tmp_path / "id.json"
    with pytest.raises(AlgebraFileError, match="reserved"):
        save(AlgebraDocument(name="t", structure=structure, maps={"id": beta}), path)
    assert not path.exists()


_KINDS = (
    lambda s: HomSuperalgebra(s.binary, s.twist),
    lambda s: HomTripleSystem(s.ternary, s.twist),
    lambda s: s,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graded_structures(), st.sampled_from(_KINDS), st.sampled_from(Convention), st.booleans())
def test_save_load_save_is_byte_identical(tmp_path, structure, kind, convention, named):
    structure = kind(structure)
    maps = {"beta": structure.twist} if named else {}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(AlgebraDocument(name="random", structure=structure, maps=maps, convention=convention), first)
    loaded = load(first)
    save(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.structure == structure
    assert loaded.convention == convention
    if not named and not structure.twist.is_identity():
        maps = {"twist": structure.twist}
    assert loaded.maps == maps


_SEEDS = tuple(
    document_to_dict(example_document(name))
    for name in ("example_5_1_hombol(2,3)", "jordan_form_triple(1)", "example_5_1")
)
_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.sampled_from(["i", "j", "k", "e", "f1", "0", "1", "-1/2", "1/0", "2.5", "id", "twist", "beta", "half"])
)
_JSON = st.recursive(
    _LEAVES, lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=4,
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    """A shipped document with one to three nodes replaced or deleted."""
    data = copy.deepcopy(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            data = draw(_JSON)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JSON)
        else:
            del parent[path[-1]]
    return json.dumps(data).encode()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_documents() | st.binary(max_size=64))
def test_fuzzed_load_returns_a_document_or_an_input_error(tmp_path, raw):
    path = tmp_path / "fuzz.json"
    path.write_bytes(raw)
    try:
        document = load(path)
    except AlgebraFileError:
        return
    assert isinstance(document, AlgebraDocument)
