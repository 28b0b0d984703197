import json

import pytest

from superbol.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ex51_file(tmp_path, capsys):
    path = tmp_path / "ex51.json"
    code, _, _ = run(capsys, "examples", "--emit", "example_5_1", "-o", str(path))
    assert code == 0
    return path


def test_examples_list(capsys):
    code, out, _ = run(capsys, "examples", "--list")
    assert code == 0
    assert "example_5_1" in out and "jordan_form_triple(p1)" in out


def test_examples_unknown_name(tmp_path, capsys):
    code, _, err = run(capsys, "examples", "--emit", "nope", "-o", str(tmp_path / "x.json"))
    assert code == 2 and err.startswith("error: unknown example 'nope'")


@pytest.mark.parametrize("name", ["example_5_1_hombol(1/0,1)", "jordan_form_triple(2/0)", "jordan_form_triple(x)"])
def test_examples_bad_parameter_is_an_input_error(tmp_path, capsys, name):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "examples", "--emit", name, "-o", str(out))
    assert code == 2
    assert err.startswith("error: ") and "cannot parse rational parameter" in err
    assert not out.exists()


def test_check_pass(ex51_file, capsys):
    code, out, _ = run(capsys, "check", str(ex51_file), "--suite", "RIGHT_ALT")
    assert code == 0
    assert "tuples=27" in out
    assert "2/2 checks passed" in out


def test_check_unknown_suite(ex51_file, capsys):
    code, _, err = run(capsys, "check", str(ex51_file), "--suite", "NOPE")
    assert code == 2 and "unknown suite" in err


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "no.json"), "--suite", "BOL")
    assert code == 2 and "no such file" in err


def test_check_kind_mismatch(ex51_file, capsys):
    code, _, err = run(capsys, "check", str(ex51_file), "--suite", "BOL")
    assert code == 2 and "ternary" in err


def test_check_mutated_fails_with_counterexample(ex51_file, tmp_path, capsys):
    doc = json.loads(ex51_file.read_text())
    for row in doc["binary"]:
        if row[:2] == ["j", "k"]:
            row[3] = "3"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(mutated), "--suite", "RIGHT_ALT", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["suite"] == "RIGHT_ALT"
    failing = report["results"][0]
    assert failing["verdict"] == "fail"
    assert failing["tuples_checked"] == 27
    assert failing["counterexample"]["vars"] == ["j", "i", "j"]
    assert failing["counterexample"]["residue"] == {"i": "-2"}


def test_json_report_is_deterministic(ex51_file, capsys):
    _, first, _ = run(capsys, "check", str(ex51_file), "--suite", "RIGHT_ALT", "--json")
    _, second, _ = run(capsys, "check", str(ex51_file), "--suite", "RIGHT_ALT", "--json")
    assert first == second


def test_construct_and_check_flow(ex51_file, tmp_path, capsys):
    bol = tmp_path / "bol.json"
    code, _, _ = run(capsys, "construct", "bol", str(ex51_file), "-o", str(bol))
    assert code == 0
    code, out, _ = run(capsys, "check", str(bol), "--suite", "BOL")
    assert code == 0 and "5/5 checks passed" in out


def test_construct_unknown_name(ex51_file, tmp_path, capsys):
    code, _, err = run(capsys, "construct", "frobenius", str(ex51_file), "-o", str(tmp_path / "x.json"))
    assert code == 2 and "unknown construction" in err


def test_construct_precondition_failure(ex51_file, tmp_path, capsys):
    doc = json.loads(ex51_file.read_text())
    doc["binary"][2][3] = "3"  # j*k entry
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    out_path = tmp_path / "bol.json"
    code, _, err = run(capsys, "construct", "bol", str(mutated), "-o", str(out_path))
    assert code == 1 and "precondition failed" in err
    code, _, _ = run(capsys, "construct", "bol", str(mutated), "-o", str(out_path), "--unchecked")
    assert code == 0 and out_path.exists()


def test_twist_flow(ex51_file, tmp_path, capsys):
    out_path = tmp_path / "twisted.json"
    code, _, _ = run(capsys, "twist", str(ex51_file), "--map", "beta_star", "-n", "1", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_path), "--suite", "RIGHT_HOM_ALT")
    assert code == 0 and "2/2 checks passed" in out


def test_twist_unknown_map(ex51_file, tmp_path, capsys):
    code, _, err = run(capsys, "twist", str(ex51_file), "--map", "gamma", "-o", str(tmp_path / "x.json"))
    assert code == 2 and "not defined" in err


def test_twist_rejects_non_morphism(ex51_file, tmp_path, capsys):
    code, _, err = run(capsys, "twist", str(ex51_file), "--map", "beta", "-o", str(tmp_path / "x.json"))
    assert code == 1 and "precondition failed" in err


def test_derive_flow(tmp_path, capsys):
    src = tmp_path / "hombol.json"
    code, _, _ = run(capsys, "examples", "--emit", "example_5_1_hombol(2,0)", "-o", str(src))
    assert code == 0
    out_path = tmp_path / "derived.json"
    code, _, _ = run(capsys, "derive", str(src), "-n", "1", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_path), "--suite", "HOM_BOL")
    assert code == 0 and "7/7 checks passed" in out


def test_twist_past_the_int_digit_limit_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "hombol.json"
    code, _, _ = run(capsys, "examples", "--emit", "example_5_1_hombol(2,0)", "-o", str(src))
    assert code == 0
    out_path = tmp_path / "twisted.json"
    code, out, err = run(capsys, "twist", str(src), "--map", "beta", "-n", "8000", "-o", str(out_path))
    assert code == 2
    assert err.startswith("error: ") and "cannot write rational" in err and "Traceback" not in err
    assert out == "" and not out_path.exists()


def test_lemmas_flow(ex51_file, tmp_path, capsys):
    plus = tmp_path / "plus.json"
    code, _, _ = run(capsys, "construct", "plus", str(ex51_file), "-o", str(plus))
    assert code == 0
    code, out, _ = run(capsys, "lemmas", str(plus), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "operator_lemmas"
    assert all(r["verdict"] == "pass" for r in report["results"])


def test_lemmas_reject_non_jordan(ex51_file, capsys):
    code, _, err = run(capsys, "lemmas", str(ex51_file))
    assert code == 1 and "Jordan" in err


def test_info(ex51_file, capsys):
    code, out, _ = run(capsys, "info", str(ex51_file))
    assert code == 0
    assert "kind: hom_superalgebra" in out
    assert "dimension: 3 (even 1 | odd 2)" in out
    assert "multiplicative: yes" in out


@pytest.mark.parametrize(
    "name,suite_name",
    [
        ("example_3_1", "BOL"),
        ("example_5_1", "RIGHT_ALT"),
        ("example_5_1_bol", "BOL"),
        ("example_5_1_hombol(2,0)", "HOM_BOL"),
        ("jordan_form_triple(1)", "JORDAN_TRIPLE"),
    ],
)
def test_every_example_reverifiable_through_cli_alone(tmp_path, capsys, name, suite_name):
    path = tmp_path / "fixture.json"
    assert run(capsys, "examples", "--emit", name, "-o", str(path))[0] == 0
    assert run(capsys, "info", str(path))[0] == 0
    code, out, _ = run(capsys, "check", str(path), "--suite", suite_name)
    assert code == 0 and "FAIL" not in out


def test_mistyped_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "hom_superalgebra", "basis": [{"name": "i", "parity": 0}], "twist": ["x"]}))
    code, _, err = run(capsys, "info", str(path))
    assert code == 2 and "twist" in err


def test_usage_error_exit_code(capsys):
    assert main(["check"]) == 2  # missing required arguments
    assert main(["not-a-command"]) == 2


def test_unexpected_exception_is_an_internal_error(ex51_file, monkeypatch, capsys):
    import superbol.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_info", broken)
    code, _, err = run(capsys, "info", str(ex51_file))
    assert code == 3
    assert err.strip() == "internal error: RuntimeError: boom"


def test_construction_kinds_are_storage_kinds():
    import superbol.cli as cli
    from superbol import storage

    assert (cli._KIND_BINARY, cli._KIND_TERNARY) == (storage.KIND_BINARY, storage.KIND_TERNARY)
