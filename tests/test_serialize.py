import copy

import pytest

from tbtridiag.arrays import Family, generate_family
from tbtridiag.errors import ParseError
from tbtridiag.fields import QQ, PrimeField, QQi
from tbtridiag.matrices import Matrix, identity
from tbtridiag.serialize import (decode_array, decode_system, decode_triple,
                                 dumps, emit_array, emit_system, emit_triple,
                                 loads)
from tbtridiag.system import build_system
from tbtridiag.triple import build_C, build_W, triple_scalars


def _arrays():
    yield generate_family(QQ, Family.KRAWTCHOUK, 3)
    yield generate_family(QQ, Family.QRACAH_ODD, 3, q=2)
    yield generate_family(PrimeField(101), Family.BANNAI_ITO, 4, h=2, h_star=-3)
    yield generate_family(QQi(), Family.KRAWTCHOUK, 2, h=QQi().gen())


def test_array_round_trip():
    for arr in _arrays():
        doc = emit_array(arr)
        back = decode_array(doc)
        assert back.field == arr.field
        assert back.theta == arr.theta and back.theta_star == arr.theta_star
        assert back.family == arr.family
        assert emit_array(back) == doc


def test_array_round_trip_is_byte_stable():
    arr = generate_family(QQ, Family.QRACAH_EVEN, 4, q=2)
    text = dumps(emit_array(arr))
    assert dumps(emit_array(decode_array(loads(text)))) == text
    assert text.endswith("\n")


def test_system_round_trip():
    for arr in _arrays():
        system = build_system(arr)
        doc = emit_system(system)
        back = decode_system(doc)
        assert back.A == system.A and back.A_star == system.A_star
        assert back.K == system.K
        assert back.inters == system.inters
        assert list(back.E) == list(system.E) and back.S == system.S
        assert emit_system(back) == doc


def test_triple_round_trip():
    Qi = QQi()
    system = build_system(generate_family(Qi, Family.KRAWTCHOUK, 3))
    sc = triple_scalars(system.array)
    tri = build_C(system, sc)
    w = build_W(tri)
    doc = emit_triple(system, tri, w)
    back_sys, back_tri, back_w = decode_triple(doc)
    assert back_tri.C == tri.C
    assert back_w.W == w.W and back_w.P == w.P
    assert back_w.kappa == w.kappa and back_w.t == w.t
    assert back_tri.scalars == tri.scalars
    assert emit_triple(back_sys, back_tri, back_w) == doc


def test_decode_validates_the_array():
    doc = emit_array(generate_family(QQ, Family.KRAWTCHOUK, 3))
    doc["theta"][0] = "4"
    from tbtridiag.errors import InvalidArray
    with pytest.raises(InvalidArray):
        decode_array(doc)


def test_decode_errors():
    with pytest.raises(ParseError):
        loads("not json")
    with pytest.raises(ParseError):
        loads("[1, 2]")
    with pytest.raises(ParseError):
        decode_array({"field": "Q", "theta": ["1", "-1"]})
    with pytest.raises(ParseError):
        decode_array({"field": "Q", "d": 2, "theta": ["1", "-1"],
                      "theta_star": ["1", "-1"]})


def test_decode_system_tolerates_broken_A():
    system = build_system(generate_family(QQ, Family.KRAWTCHOUK, 3))
    doc = emit_system(system)
    doc["A"][1][2] = "0"
    broken = decode_system(doc)
    assert broken.E is None and broken.S is None
    assert broken.A_star == system.A_star and broken.S_star == system.S_star


def _triple_doc(fld, family, d, q=None):
    system = build_system(generate_family(fld, family, d, q=q))
    tri = build_C(system, triple_scalars(system.array))
    return emit_triple(system, tri, build_W(tri))


@pytest.fixture(scope="module")
def triple_docs():
    return {"krawtchouk": _triple_doc(QQi(), Family.KRAWTCHOUK, 3),
            "qracah": _triple_doc(QQi(), Family.QRACAH_ODD, 3, q=2)}


def _plus_one(doc, text):
    fld = decode_system(doc["system"]).field
    return fld.encode(fld.parse(text) + 1)


@pytest.mark.parametrize("key, slot", [
    ("beta", ()), ("rho", ()), ("h", ()), ("z", ()), ("q", ()), ("t", (1,)),
    ("kappa", ()), ("W", (0, 1)), ("W_prime", (2, 2)), ("W_dprime", (1, 0)),
    ("P", (3, 3)),
])
def test_triple_document_must_agree_with_its_system(triple_docs, key, slot):
    doc = copy.deepcopy(triple_docs["qracah"])
    decode_triple(doc)
    if slot:
        parent = doc[key]
        for i in slot[:-1]:
            parent = parent[i]
        parent[slot[-1]] = _plus_one(doc, parent[slot[-1]])
    else:
        doc[key] = _plus_one(doc, doc[key])
    with pytest.raises(ParseError, match=f"^stored {key} "):
        decode_triple(doc)


def test_triple_document_with_a_false_kappa_is_refused(triple_docs):
    # W, W', W'' and P stay true, so every report would still pass
    doc = copy.deepcopy(triple_docs["krawtchouk"])
    doc["kappa"] = "5"
    with pytest.raises(ParseError, match="^stored kappa disagrees"):
        decode_triple(doc)


@pytest.mark.parametrize("key", ["W", "kappa"])
def test_a_refused_triple_document_forms_only_W_prime_W(key, monkeypatch):
    # the predicted fields are compared before a WData derives P^2, T and its
    # certified inverses; comparing a built record's fields formed 7
    # products here, 4 of them with both operands dense
    doc = _triple_doc(QQi(), Family.KRAWTCHOUK, 6)
    if key == "W":
        doc["W"][0][1] = _plus_one(doc, doc["W"][0][1])
    else:
        doc["kappa"] = _plus_one(doc, doc["kappa"])
    products, real = [], Matrix.__mul__

    def mul(x, y):
        if isinstance(y, Matrix):
            products.append((x, y))
        return real(x, y)

    monkeypatch.setattr(Matrix, "__mul__", mul)
    with pytest.raises(ParseError, match=f"^stored {key} disagrees with the system$"):
        decode_triple(doc)
    assert len(products) == 1


def test_triple_document_q_present_exactly_when_the_case_has_one(triple_docs):
    doc = copy.deepcopy(triple_docs["qracah"])
    del doc["q"]
    with pytest.raises(ParseError, match="^stored q disagrees"):
        decode_triple(doc)
    doc = copy.deepcopy(triple_docs["krawtchouk"])
    doc["q"] = "2"
    with pytest.raises(ParseError, match="^stored q disagrees"):
        decode_triple(doc)


def test_triple_document_with_a_misshapen_C_is_refused(triple_docs):
    doc = copy.deepcopy(triple_docs["krawtchouk"])
    doc["C"] = doc["C"][:-1]
    with pytest.raises(ParseError, match="shapes"):
        decode_triple(doc)


def test_triple_document_with_a_hand_edited_C_is_refused(triple_docs):
    # off theta's spectrum C has no idempotents (this once raised
    # NotAnnihilated); on it, C conjugated moves its idempotents and W''
    doc = copy.deepcopy(triple_docs["krawtchouk"])
    doc["C"][0][0] = "1"
    with pytest.raises(ParseError, match="^stored C is not annihilated"):
        decode_triple(doc)
    doc = copy.deepcopy(triple_docs["krawtchouk"])
    _, tri, _ = decode_triple(doc)
    fld, n = tri.field, tri.d + 1
    m = identity(fld, n) + Matrix(fld, [[int((i, j) == (0, 1)) for j in range(n)]
                                        for i in range(n)])
    C = m * tri.C * m.inverse()
    doc["C"] = [[fld.encode(C[i, j]) for j in range(n)] for i in range(n)]
    with pytest.raises(ParseError, match="^stored W_dprime disagrees"):
        decode_triple(doc)


@pytest.mark.parametrize("slot, value", [((0, 0), "5"), ((0, 1), "1")])
def test_triple_document_with_a_false_a_star_is_refused(triple_docs, slot, value):
    # E' is taken as the matrix units E*_i, which needs A* = diag(theta); a
    # false diagonal entry once raised NotAnnihilated, an off-diagonal one
    # blamed W_prime
    doc = copy.deepcopy(triple_docs["krawtchouk"])
    i, j = slot
    doc["system"]["A_star"][i][j] = value
    with pytest.raises(ParseError, match="^stored A_star is not diag"):
        decode_triple(doc)
