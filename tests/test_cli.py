import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tbtridiag import serialize
from tbtridiag.arrays import Family, classify, generate_family, q_equivalent, validate_array
from tbtridiag.cli import main
from tbtridiag.fields import QQ, PrimeField, QQi, parse_field
from tbtridiag.matrices import Matrix
from tbtridiag.system import build_system


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


def test_generate_in_characteristic_two(capsys):
    code, out, err = run(capsys, "generate", "--family", "krawtchouk",
                         "--d", "1", "--field", "Fp:2")
    assert (code, out) == (2, "")
    assert err == "CharacteristicTwo: no eigenvalue arrays exist in characteristic 2\n"


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


def test_triple_without_a_square_root_never_builds(capsys, tmp_path, monkeypatch):
    # the scalars need only the array, so the missing root is found first
    from tbtridiag import cli

    built = []
    monkeypatch.setattr(cli, "build_system", lambda arr: built.append(arr))
    arr_path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "qracah-odd", "--d", "5", "--q", "2",
        "--field", "Q", "-o", str(arr_path))
    code, out, err = run(capsys, "triple", "-i", str(arr_path))
    assert (code, out, built) == (2, "", [])
    assert err.startswith("NoSquareRootInField: z^2 = ")


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


def test_non_utf8_file_rejected(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"theta": ["\xe9"]}')
    code, _, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and err.startswith("ParseError: cannot read")


def test_non_utf8_stdin_rejected(capsys, monkeypatch):
    # stdin as a strict UTF-8 stream, as under PYTHONIOENCODING=utf-8:strict
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(b"\xff{}"), encoding="utf-8", errors="strict"))
    code, _, err = run(capsys, "build", "-i", "-")
    assert code == 2 and err.startswith("ParseError: cannot read -")


def test_deeply_nested_json_rejected(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 200000))
    code, _, err = run(capsys, "verify", "-i", "-")
    assert (code, err) == (2, "ParseError: invalid JSON: nested too deeply\n")


def test_json_number_scalars_rejected(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Q", "d": 3, "theta": [3, 1, -1, -3],
                                "theta_star": [3, 1, -1, -3]}))
    code, _, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err


@pytest.mark.parametrize("d, theta, shown", [
    (3.0, ["3", "1", "-1", "-3"], "3.0"),
    (True, ["1", "-1"], "true"),
    # once "d = 3 but theta has 4 entries"
    ("3", ["3", "1", "-1", "-3"], '"3"'),
])
def test_d_must_be_a_json_integer(capsys, tmp_path, d, theta, shown):
    # 3.0 == 3 and True == 1 in Python, so both once verified with exit 0
    doc = {"field": "Q", "d": d, "theta": theta, "theta_star": theta}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert (code, out) == (2, "")
    assert err == f"ParseError: d = {shown} is not a JSON integer\n"
    # the array of a system document is decoded the same way
    sys_path = tmp_path / "sys.json"
    sys_doc = serialize.emit_system(build_system(serialize.decode_array(
        dict(doc, d=len(theta) - 1))))
    sys_doc["array"]["d"] = d
    sys_path.write_text(json.dumps(sys_doc))
    assert run(capsys, "verify", "-i", str(sys_path)) == (2, "", err)


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


# the element grammar's integer form is -?[0-9]+; int() alone took the rest
@pytest.mark.parametrize("text", [
    "abc", "+64", pytest.param(" 64", id="leading space"),
    pytest.param("64 ", id="trailing space"), "6_4",
    pytest.param("\u0666\u0664", id="arabic-indic digits"), pytest.param("", id="empty"),
    pytest.param("1" * 5000, id="past the int digit limit")])
def test_malformed_max_d_rejected(capsys, monkeypatch, text):
    monkeypatch.setenv("TB_TRIDIAG_MAX_D", text)
    code, out, err = run(capsys, "generate", "--family", "krawtchouk",
                         "--d", "3", "--field", "Q")
    assert (code, out) == (2, "")
    assert err == f"ParseError: TB_TRIDIAG_MAX_D = {text!r} is not an integer\n"


def test_build_refuses_a_format_option(capsys, tmp_path):
    # build writes only JSON; it once took --format and ignored it
    path = tmp_path / "arr.json"
    path.write_text(serialize.dumps(serialize.emit_array(
        generate_family(QQ, Family.KRAWTCHOUK, 3))))
    with pytest.raises(SystemExit) as exc:
        main(["build", "-i", str(path), "--format", "table"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format table" in capsys.readouterr().err


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


def _int_error(text):
    """The text int() raises for text, or None where it reads it."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("text, reason", [
    ("1/0", "Fraction(1, 0)"),
    ("-007/0", "Fraction(-7, 0)"),
    ("1" * 4301, _int_error("1" * 4301)),
])
def test_rational_error_texts_are_pinned(capsys, tmp_path, text, reason):
    # the texts Fraction(n, 0) and int() gave when Q's raw values were
    # Fractions; the second is the interpreter's own digit-limit text
    if reason is None:
        pytest.skip("this Python has no limit on int digits")
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Q", "d": 2, "theta": [text, "0", "-10"],
                                "theta_star": ["10", "0", "-10"]}))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert (code, out) == (2, "")
    assert err == f"ParseError: bad rational {text!r}: {reason}\n"


@pytest.mark.parametrize("spec", ["Fp:101", "Fp2:103", "Fp:1000003"])
@pytest.mark.parametrize("text", ["1" * 4301, "1 mod " + "1" * 4301])
def test_residue_past_the_int_digit_limit_is_a_parse_error(capsys, tmp_path, spec, text):
    # the body or the modulus is longer than int() reads: ParseError and
    # exit 2, as over Q, not a ValueError traceback
    reason = _int_error("1" * 4301)
    if reason is None:
        pytest.skip("this Python has no limit on int digits")
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": spec, "d": 2, "theta": [text, "0", "-10"],
                                "theta_star": ["10", "0", "-10"]}))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert (code, out) == (2, "")
    assert err == f"ParseError: bad residue {text!r}: {reason}\n"


def test_residue_outside_the_grammar_rejected(capsys, tmp_path):
    # int() reads "1_0" as 10, and the array would then fail to verify
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Fp:101", "d": 3,
                                "theta": ["3", "1_0", "-10", "-3"],
                                "theta_star": ["3", "1", "-1", "-3"]}))
    code, out, err = run(capsys, "verify", "-i", str(path))
    assert code == 2 and "ParseError" in err and out == ""


def _slot(doc, path):
    """The container that holds the last key of path, and that key."""
    *head, last = path
    for key in head:
        doc = doc[key]
    return doc, last


@pytest.mark.parametrize("edits, named", [
    ({("K", 0, 1): "5"}, "K"),                 # off the diagonal, which dagger never reads
    ({("c", 0): "7", ("b", 1): "9"}, "c"),
    ({("K", 2, 2): "0"}, "K"),                 # dagger would divide by k_2
])
def test_system_document_must_agree_with_its_array(capsys, tmp_path, edits, named):
    arr_path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "krawtchouk", "--d", "3", "--field", "Q",
        "-o", str(arr_path))
    code, out, _ = run(capsys, "build", "-i", str(arr_path))
    assert code == 0
    doc = json.loads(out)
    for path, value in edits.items():
        parent, last = _slot(doc, path)
        parent[last] = value
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "-i", str(sys_path))
    assert code == 2 and out == ""
    assert err == f"ParseError: stored {named} disagrees with the eigenvalue array\n"


@pytest.mark.parametrize("key, value", [("h", "7"), ("family", "bannai-ito")])
def test_false_family_tag_rejected(capsys, tmp_path, key, value):
    path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", "krawtchouk", "--d", "3", "--field", "Q",
        "-o", str(path))
    doc = json.loads(path.read_text())
    doc["family"][key] = value
    path.write_text(json.dumps(doc))
    for command in ("build", "verify"):
        code, out, err = run(capsys, command, "-i", str(path))
        assert code == 2 and out == "" and err.startswith("ParseError: family tag")


@pytest.mark.parametrize("family, d, q, q_form", [
    # classify would name these small-d1 / small-d2
    ("krawtchouk", "2", None, None),
    ("bannai-ito", "2", None, None),
    ("qracah-even", "2", "2", None),
    # -q, 1/q and -1/q regenerate the array of q
    ("qracah-odd", "3", "2", "-2"),
    ("qracah-odd", "3", "2", "1/2"),
    ("qracah-even", "4", "2", "-1/2"),
])
def test_family_tags_that_regenerate_the_array_accepted(capsys, tmp_path, family, d, q, q_form):
    path = tmp_path / "arr.json"
    run(capsys, "generate", "--family", family, "--d", d, "--field", "Q",
        *(["--q", q] if q else []), "-o", str(path))
    doc = json.loads(path.read_text())
    if q_form:
        doc["family"]["q"] = q_form
        path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "build", "-i", str(path))
    assert code == 0 and json.loads(out)["array"]["family"] == doc["family"]


def test_qracah_tag_without_q_is_the_classified_one(capsys, tmp_path):
    # beta = 3 has no q in Q: the tag records beta instead
    arr = validate_array(QQ, [4, 1, -1, -4], [4, 1, -1, -4])
    doc = serialize.emit_array(arr.with_family(classify(arr)))
    assert "q" not in doc["family"] and doc["family"]["beta"] == "3"
    path = tmp_path / "arr.json"
    for key, value in ((None, None), ("beta", "5"), ("h", "2")):
        tagged = copy.deepcopy(doc)
        if key:
            tagged["family"][key] = value
        path.write_text(json.dumps(tagged))
        code, _, err = run(capsys, "build", "-i", str(path))
        assert (code, err.split(":")[0]) == ((0, "") if key is None else (2, "ParseError"))


def _run_stdin(command, doc):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "-i", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _verify_stdin(doc):
    return _run_stdin("verify", doc)


@pytest.fixture(scope="module")
def system_docs():
    tagged = validate_array(QQ, [4, 1, -1, -4], [4, 1, -1, -4])
    arrays = (generate_family(QQ, Family.KRAWTCHOUK, 3),
              generate_family(QQ, Family.QRACAH_ODD, 3, q=2),
              generate_family(PrimeField(101), Family.BANNAI_ITO, 4, h=2, h_star=-3),
              generate_family(QQi(), Family.KRAWTCHOUK, 2, h=QQi().gen()),
              tagged.with_family(classify(tagged)))
    return [serialize.emit_system(build_system(arr)) for arr in arrays]


def test_unmutated_system_documents_verify(system_docs):
    for doc in system_docs:
        code, out, err = _verify_stdin(doc)
        assert code == 0 and out.endswith(" 0 failed\n") and err == ""


def test_bannai_ito_tag_fits_a_d2_krawtchouk_document(system_docs):
    doc = copy.deepcopy(system_docs[3])
    assert (doc["array"]["d"], doc["array"]["family"]["family"]) == (2, "krawtchouk")
    doc["array"]["family"]["family"] = "bannai-ito"
    code, out, err = _verify_stdin(doc)
    assert code == 0 and out.endswith(" 0 failed\n") and err == ""


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_system_document_exits_2(system_docs, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(system_docs)))
    fld = parse_field(doc["array"]["field"])
    key = data.draw(st.sampled_from(["c", "b", "c_star", "b_star", "K", "family"]))
    if key == "K":
        index = st.integers(0, len(doc["K"]) - 1)
        path = ("K", data.draw(index), data.draw(index))
    elif key == "family":
        path = ("array", "family", data.draw(st.sampled_from(sorted(doc["array"]["family"]))))
    else:
        path = (key, data.draw(st.integers(0, len(doc[key]) - 1)))
    parent, last = _slot(doc, path)
    old = parent[last]
    if last == "family":
        new = data.draw(st.sampled_from([f.value for f in Family if f.value != old]))
        # at d = 2 the krawtchouk and bannai-ito forms coincide (sigma = 2, 0, -2)
        assume(doc["array"]["d"] != 2 or {old, new} != {"krawtchouk", "bannai-ito"})
    else:
        new = str(data.draw(st.integers(-9, 9)))
        assume(fld.parse(new) != fld.parse(old))
        # q, -q, 1/q and -1/q describe the same array
        assume(last != "q" or not q_equivalent(fld.parse(old), fld.parse(new)))
    parent[last] = new
    code, out, err = _verify_stdin(doc)
    assert code == 2 and out == "" and err.startswith("ParseError: "), (path, new, err)


# the cases of the benchmark's triple workload: (generate arguments, triple arguments)
TRIPLE_CASES = [
    (["--field", "Q(i)", "--family", "krawtchouk", "--d", "3"], []),
    (["--field", "Q(i)", "--family", "qracah-odd", "--d", "3", "--q", "-1/2"], []),
    (["--field", "Fp2:103", "--family", "krawtchouk", "--d", "5", "--h", "2",
      "--h-star", "3"], []),
    (["--field", "Q", "--family", "bannai-ito", "--d", "4", "--h", "3"], ["--beta", "-2"]),
]


def test_no_cli_path_inverts_a_matrix(capsys, tmp_path, monkeypatch):
    commands = [["selftest"]]
    for k, (gen_args, triple_args) in enumerate(TRIPLE_CASES):
        path = str(tmp_path / f"arr{k}.json")
        assert run(capsys, "generate", *gen_args, "-o", path)[0] == 0
        commands += [["triple", "-i", path, *triple_args, *fmt]
                     for fmt in ([], ["--format", "table"])]
    expected = [run(capsys, *argv) for argv in commands]

    def refuse(m):
        raise AssertionError("Matrix.inverse called")

    monkeypatch.setattr(Matrix, "inverse", refuse)
    for argv, before in zip(commands, expected):
        assert before[0] == 0 and before[2] == ""
        assert run(capsys, *argv) == before


@pytest.mark.parametrize("argv", [
    ["generate", "--field", "Q", "--family", "krawtchouk", "--d", "3", "--h", "-1/2"],
    ["generate", "--field", "Q", "--family", "krawtchouk", "--d", "3", "--h-star", "-3/2"],
    ["generate", "--field", "Q", "--family", "qracah-odd", "--d", "3", "--q", "-1/2"],
    ["generate", "--field", "Fp:101", "--family", "krawtchouk", "--d", "3", "--h", "-5"],
])
def test_negative_element_as_a_separate_argument(capsys, argv):
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *joined)


def test_negative_beta_as_a_separate_argument(capsys, tmp_path):
    path = str(tmp_path / "arr.json")
    run(capsys, "generate", "--field", "Q", "--family", "small-d2", "--d", "2", "-o", path)
    separate = run(capsys, "triple", "-i", path, "--beta", "-1/2")
    assert separate == run(capsys, "triple", "-i", path, "--beta=-1/2")
    assert separate[0] == 2 and separate[2].startswith("NoSquareRootInField")


@pytest.mark.parametrize("spec", ["Q", "Q(i)", "Fp:101"])
def test_beta_minus_two_at_odd_d_rejected(capsys, tmp_path, spec):
    # rho = (beta + 2) theta_r^2 vanishes, so z = 0 and C is undefined
    path = str(tmp_path / "arr.json")
    run(capsys, "generate", "--field", spec, "--family", "small-d1", "--d", "1", "-o", path)
    code, out, err = run(capsys, "triple", "-i", path, "--beta", "-2")
    assert (code, out) == (2, "")
    assert err.startswith("BetaInvalid: beta = -2 at odd d = 1") and "C is undefined" in err


def test_one_process_answers_each_command_as_if_alone(capsys, tmp_path, monkeypatch):
    # main builds its parser on the first call and reuses it for every later one
    from tbtridiag import cli

    def answer(argv):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    arr, system, junk = (str(tmp_path / name) for name in ("arr.json", "sys.json", "junk.json"))
    answer(["generate", "--field", "Q(i)", "--family", "krawtchouk", "--d", "3", "-o", arr])
    answer(["build", "-i", arr, "-o", system])
    (tmp_path / "junk.json").write_text("{not json")
    commands = [
        ["generate", "--field", "Q", "--family", "bannai-ito", "--d", "4", "--format", "table"],
        ["build", "-i", arr],
        ["verify", "-i", arr],
        ["verify", "-i", system, "--format", "json"],
        ["triple", "-i", arr, "--format", "table"],
        ["verify", "-i", junk],
        ["verify", "--no-such-option"],
    ]
    alone = []
    for argv in commands:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(answer(argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 2, 2]

    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    assert [answer(argv) for argv in commands] == alone
    assert len(built) == 1


FUZZ_GARBAGE = [None, True, False, 0, -1, 3, 2.5, 10 ** 30, [], {}, [[]], {"x": 1},
                "", "x", "1/0", "1 mod 7", "0 mod 101", "1+1*sqrt(-1)", "sqrt(", "-"]


@pytest.fixture(scope="module")
def fuzz_docs():
    docs = []
    for spec in ("Q", "Fp:101", "Q(i)"):
        for arr in (generate_family(parse_field(spec), Family.KRAWTCHOUK, 3),
                    generate_family(parse_field(spec), Family.BANNAI_ITO, 2)):
            docs += [serialize.emit_array(arr), serialize.emit_system(build_system(arr))]
    return docs


def _slots(node, path=()):
    """(path of a container, key in it) for every entry of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_raise(fuzz_docs, data):
    # 1-3 key deletions, list-entry deletions or garbage values; every
    # command answers with an exit code, never a traceback
    doc = copy.deepcopy(data.draw(st.sampled_from(fuzz_docs)))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        path, key = data.draw(st.sampled_from(slots))
        parent, last = _slot(doc, path + (key,))
        if data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_GARBAGE)))
    for command in ("verify", "build", "triple"):
        code, _, err = _run_stdin(command, doc)
        assert code in (0, 1, 2), (command, code, err)
