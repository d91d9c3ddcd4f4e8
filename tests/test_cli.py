import json

import pytest

from tbtridiag.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_krawtchouk(capsys):
    code, out, _ = run(capsys, "generate", "--family", "krawtchouk",
                       "--d", "3", "--h", "1", "--field", "Q")
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == ["3", "1", "-1", "-3"]
    assert doc["theta_star"] == ["3", "1", "-1", "-3"]
    assert doc["family"]["family"] == "krawtchouk"


def test_generate_table_format(capsys):
    code, out, _ = run(capsys, "generate", "--family", "krawtchouk",
                       "--d", "3", "--field", "Q", "--format", "table")
    assert code == 0
    assert "theta: 3, 1, -1, -3" in out


def test_generate_bannai_ito_odd_rejected(capsys):
    code, _, err = run(capsys, "generate", "--family", "bannai-ito",
                       "--d", "3", "--field", "Q")
    assert code == 2
    assert "BannaiItoOddDiameter" in err


def test_generate_characteristic_violation(capsys):
    code, _, err = run(capsys, "generate", "--family", "krawtchouk",
                       "--d", "3", "--field", "Fp:3")
    assert code == 2
    assert "CharacteristicViolation" in err


def test_generate_respects_max_d(capsys, monkeypatch):
    monkeypatch.setenv("TB_TRIDIAG_MAX_D", "4")
    code, _, err = run(capsys, "generate", "--family", "krawtchouk",
                       "--d", "5", "--field", "Q")
    assert code == 2 and "TB_TRIDIAG_MAX_D" in err


def test_generate_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "arr.json"
    code, _, _ = run(capsys, "generate", "--family", "qracah-odd", "--d", "3",
                     "--q", "2", "--field", "Q", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "-i", str(path))
    assert code == 0
    assert "0 failed" in out


def test_verify_grid(capsys, tmp_path):
    cases = [
        ("krawtchouk", "4", "Q", []),
        ("bannai-ito", "4", "Fp:101", []),
        ("qracah-even", "4", "Q", ["--q", "2"]),
        ("small-d1", "1", "Q(i)", []),
    ]
    for family, d, field, extra in cases:
        path = tmp_path / f"{family}.json"
        code, _, _ = run(capsys, "generate", "--family", family, "--d", d,
                         "--field", field, *extra, "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", "-i", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_verify_broken_antisymmetry(capsys, tmp_path):
    doc = {"field": "Q", "d": 3, "theta": ["1", "2", "-1", "-2"],
           "theta_star": ["1", "2", "-1", "-2"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "-i", str(path))
    assert code == 1
    assert "antisymmetry" in out


def test_verify_zeroed_intersection_number(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    sys_path = tmp_path / "sys.json"
    run(capsys, "generate", "--family", "krawtchouk", "--d", "3",
        "--field", "Q", "-o", str(arr_path))
    code, _, _ = run(capsys, "build", "-i", str(arr_path), "-o", str(sys_path))
    assert code == 0
    doc = json.loads(sys_path.read_text())
    doc["A"][1][2] = "0"
    sys_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "-i", str(sys_path))
    assert code == 1
    assert "FAIL  irreducible" in out


def test_build_emits_system_document(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "krawtchouk", "--d", "3",
        "--field", "Q", "-o", str(arr_path))
    code, out, _ = run(capsys, "build", "-i", str(arr_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == ["1", "2", "3"] and doc["b"] == ["3", "2", "1"]
    assert doc["K"][1][1] == "3"


def test_triple_d1_over_gaussian_rationals(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "small-d1", "--d", "1",
        "--field", "Q(i)", "-o", str(arr_path))
    code, out, _ = run(capsys, "triple", "-i", str(arr_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    triple = doc["triple"]
    assert triple["C"] == [["0+0*sqrt(-1)", "0+1*sqrt(-1)"],
                          ["0+-1*sqrt(-1)", "0+0*sqrt(-1)"]]
    assert triple["kappa"] == "0+-1*sqrt(-1)"


def test_triple_bannai_ito_kappa_one(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "bannai-ito", "--d", "4",
        "--field", "Q", "-o", str(arr_path))
    code, out, _ = run(capsys, "triple", "-i", str(arr_path),
                       "--beta", "-2", "--format", "json")
    assert code == 0
    assert json.loads(out)["triple"]["kappa"] == "1"


def test_triple_needs_square_root(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "krawtchouk", "--d", "3",
        "--field", "Q", "-o", str(arr_path))
    code, _, err = run(capsys, "triple", "-i", str(arr_path))
    assert code == 2
    assert "NoSquareRootInField" in err and "Q(i)" in err


def test_triple_self_dualizes_input(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "small-d1", "--d", "1",
        "--field", "Q(i)", "--h", "5", "--h-star", "1", "-o", str(arr_path))
    code, out, _ = run(capsys, "triple", "-i", str(arr_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    theta = doc["triple"]["system"]["array"]["theta"]
    assert theta == doc["triple"]["system"]["array"]["theta_star"]


def test_malformed_input(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err
    code, _, err = run(capsys, "verify", "-i", str(tmp_path / "missing.json"))
    assert code == 2


def test_json_number_scalars_rejected(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Q", "d": 3, "theta": [3, 1, -1, -3],
                                "theta_star": [3, 1, -1, -3]}))
    code, _, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err


def test_string_in_place_of_a_list_rejected(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Q", "d": 3, "theta": "3113",
                                "theta_star": "3113"}))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err and out == ""


def test_string_matrix_rows_rejected(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    sys_path = tmp_path / "sys.json"
    run(capsys, "generate", "--family", "small-d1", "--d", "1",
        "--field", "Q", "-o", str(arr_path))
    code, _, _ = run(capsys, "build", "-i", str(arr_path), "-o", str(sys_path))
    assert code == 0
    doc = json.loads(sys_path.read_text())
    assert doc["A"] == [["0", "1"], ["1", "0"]]
    doc["A"] = ["01", "10"]
    sys_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "-i", str(sys_path))
    assert code == 2 and "ParseError" in err and out == ""


def test_malformed_max_d_rejected(capsys, monkeypatch):
    monkeypatch.setenv("TB_TRIDIAG_MAX_D", "abc")
    code, _, err = run(capsys, "generate", "--family", "krawtchouk",
                       "--d", "3", "--field", "Q")
    assert code == 2 and "ParseError" in err and "TB_TRIDIAG_MAX_D" in err


def test_non_string_field_descriptor_rejected(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": 5, "d": 1, "theta": ["1", "-1"],
                                "theta_star": ["1", "-1"]}))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err and out == ""


def test_string_family_tag_rejected(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Q", "d": 3, "theta": ["3", "1", "-1", "-3"],
                                "theta_star": ["3", "1", "-1", "-3"],
                                "family": "krawtchouk"}))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err and out == ""


def test_verify_reducible_system_names_the_algebra_dimension(capsys, tmp_path):
    arr_path = tmp_path / "arr.json"
    sys_path = tmp_path / "sys.json"
    run(capsys, "generate", "--family", "krawtchouk", "--d", "5",
        "--field", "Q", "-o", str(arr_path))
    code, _, _ = run(capsys, "build", "-i", str(arr_path), "-o", str(sys_path))
    assert code == 0
    doc = json.loads(sys_path.read_text())
    doc["A"][1][2] = doc["A"][2][1] = "0"
    sys_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "-i", str(sys_path))
    assert code == 1
    assert ("FAIL  A, A* generate the full matrix algebra  "
            "[algebra dimension 20 != 36]") in out.splitlines()


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    grid = ["verify small-d1 d=1 over Q", "verify small-d2 d=2 over Q",
            "verify krawtchouk d=3 over Q", "verify krawtchouk d=4 over Q",
            "verify bannai-ito d=2 over Q", "verify bannai-ito d=4 over Q",
            "verify qracah-even d=4 over Q", "verify qracah-odd d=3 over Q",
            "verify krawtchouk d=3 over Fp:101", "verify bannai-ito d=4 over Fp:101",
            "verify qracah-even d=4 over Fp:101", "verify qracah-odd d=3 over Fp:101",
            "triple krawtchouk d=3 over Q(i)", "triple bannai-ito d=4 over Q",
            "triple qracah-odd d=3 over Q(i)", "triple krawtchouk d=3 over Fp:101"]
    assert out.splitlines() == [f"PASS  {row}" for row in grid] + ["selftest: 0 failures"]


def test_system_document_over_the_cap_exits_before_decoding(capsys, tmp_path, monkeypatch):
    from tbtridiag import matrices, serialize, system, triple

    arr_path = tmp_path / "arr.json"
    sys_path = tmp_path / "sys.json"
    run(capsys, "generate", "--family", "krawtchouk", "--d", "4",
        "--field", "Q", "-o", str(arr_path))
    code, _, _ = run(capsys, "build", "-i", str(arr_path), "-o", str(sys_path))
    assert code == 0

    def refuse(*args):
        raise AssertionError("idempotents built for a document over the cap")

    for mod in (matrices, serialize, system, triple):
        for name in ("primitive_idempotents", "lagrange_idempotents"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setenv("TB_TRIDIAG_MAX_D", "3")
    code, out, err = run(capsys, "verify", "-i", str(sys_path))
    assert code == 2 and out == ""
    assert err == "ParseError: d = 4 exceeds TB_TRIDIAG_MAX_D = 3\n"


@pytest.mark.parametrize("text", ["1e1", "1.5", "1_0", " 2/0"])
def test_rational_outside_the_grammar_rejected(capsys, tmp_path, text):
    # Fraction() reads "1e1" as 10, and the array would then verify
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Q", "d": 2, "theta": [text, "0", "-10"],
                                "theta_star": ["10", "0", "-10"]}))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err and out == ""
