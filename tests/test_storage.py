import json
from fractions import Fraction

import pytest

from superbol.catalog import SPACE_1_2, example_document
from superbol.core import Element
from superbol.storage import AlgebraDocument, AlgebraFileError, load, save
from superbol.structures import BinaryStructure, HomSuperalgebra


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
