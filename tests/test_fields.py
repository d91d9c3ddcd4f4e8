from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbtridiag.errors import (DivisionByZero, FieldMismatch, ParseError)
from tbtridiag.fields import (QQ, PrimeField, QuadraticExtension, QQi,
                              is_prime, least_nonresidue, parse_field, sort_key)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=30)
wide_rationals = st.one_of(st.just(Fraction(0)), st.fractions(), rationals)


def test_rational_arithmetic():
    assert QQ(1) / 2 + QQ(1) / 3 == QQ(Fraction(5, 6))
    assert QQ(2) - QQ(5) == QQ(-3)
    assert (QQ(2) / 3) * (QQ(3) / 2) == QQ.one
    assert QQ(7).inverse() == QQ(Fraction(1, 7))
    assert QQ(2) ** -3 == QQ(Fraction(1, 8))
    assert QQ(0) ** 0 == QQ.one
    assert (-QQ(4)) + 4 == QQ.zero


def _pair(f):
    return f.numerator, f.denominator


def _is_pair_of(v, f):
    """v is the canonical raw value of the Fraction f: two ints, gcd 1,
    denominator > 0, so zero is (0, 1)."""
    n, d = v
    return (type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1
            and v == _pair(f))


@settings(max_examples=200, deadline=None)
@given(wide_rationals, wide_rationals, st.integers())
def test_rational_kernels_match_fraction(a, b, n):
    u, v = _pair(a), _pair(b)
    assert _is_pair_of(QQ._from_int(n), Fraction(n))
    assert _is_pair_of(QQ._add(u, v), a + b)
    assert _is_pair_of(QQ._sub(u, v), a - b)
    assert _is_pair_of(QQ._mul(u, v), a * b)
    assert _is_pair_of(QQ._neg(u), -a)
    assert _is_pair_of(QQ._sub_scaled([u], v, [u])[0], a - b * a)
    assert _is_pair_of(QQ._powraw(u, 3), a ** 3)
    if b:
        assert _is_pair_of(QQ._inv(v), 1 / b)
    assert QQ._nonneg_raw(u) == (a >= 0)
    x, y, den = QQ._integer_pair(u, v)
    assert den > 0 and (Fraction(x, den), Fraction(y, den)) == (a, b)
    assert _is_pair_of(QQ._from_integers(x, den), a)


@settings(max_examples=100, deadline=None)
@given(wide_rationals, wide_rationals, st.integers(min_value=1))
def test_rational_zero_results_are_the_shared_zero(a, b, den):
    # inputs are fresh pairs, so a zero (0, 1) among them is not the shared
    # one; every zero a kernel returns is, so products of one-scaled monomial
    # operands copy shared zeros
    u, v, zero = _pair(a), _pair(b), QQ._zero_raw
    results = [QQ._add(u, v), QQ._sub(u, v), QQ._mul(u, v), QQ._neg(u), QQ._sub(u, u),
               QQ._add(u, QQ._neg(u)), QQ._mul(u, (0, 1)), QQ._mul((0, 1), v), QQ._neg((0, 1)),
               QQ._from_int(0), QQ._from_integers(0, den), QQ._parse_raw("-0/5"),
               QQ(Fraction(0)).value, QQ._sqrt_raw((0, 1))]
    assert all(r is zero for r in results if r == zero)
    assert results[4] is results[5] is zero


@settings(max_examples=100, deadline=None)
@given(st.integers(), st.integers(min_value=1))
def test_rational_from_integers_reduces(num, den):
    assert _is_pair_of(QQ._from_integers(num, den), Fraction(num, den))


def test_rational_kernel_edge_values():
    assert QQ._from_integers(0, 7) == QQ._zero_raw == (0, 1)
    assert QQ._from_integers(-6, 4) == (-3, 2)
    assert QQ._inv((-3, 4)) == (-4, 3) and QQ._inv((-1, 1)) == (-1, 1)
    assert QQ._mul((0, 1), (-3, 4)) == QQ._mul((5, 2), (0, 1)) == (0, 1)
    assert QQ._add((1, 2), (-1, 2)) == (0, 1)
    assert QQ(True).value == (1, 1) and type(QQ(True).value[0]) is int
    with pytest.raises(DivisionByZero):
        QQ._inv((0, 1))


@settings(max_examples=100, deadline=None)
@given(wide_rationals, wide_rationals)
def test_rational_sqrt_matches_fraction(a, b):
    assert _is_pair_of(QQ._sqrt_raw(_pair(a * a)), abs(a))
    if a:
        assert QQ._sqrt_raw(_pair(-a * a)) is None
        assert QQ._sqrt_raw(_pair(2 * a * a)) is None
    r = QQ._sqrt_raw(_pair(b))
    assert r is None or _is_pair_of(r, Fraction(*r)) and r[0] >= 0 and Fraction(*r) ** 2 == b


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_matmul_matches_fraction(data):
    n, m, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    x = [[data.draw(wide_rationals) for _ in range(m)] for _ in range(n)]
    cols = [[data.draw(wide_rationals) for _ in range(m)] for _ in range(k)]
    got = QQ._matmul([list(map(_pair, r)) for r in x], [list(map(_pair, c)) for c in cols])
    want = [[sum((p * q for p, q in zip(r, c)), Fraction(0)) for c in cols] for r in x]
    assert all(_is_pair_of(g, w) for gr, wr in zip(got, want) for g, w in zip(gr, wr))
    ints, den = QQ._integer_view([list(map(_pair, r)) for r in x])
    assert den > 0 and [[Fraction(v, den) for v in r] for r in ints] == x


@settings(max_examples=100, deadline=None)
@given(wide_rationals, st.integers(), st.integers(min_value=1))
def test_rational_encode_and_parse_match_fraction(a, num, den):
    text = QQ._encode_raw(_pair(a))
    assert text == str(a)
    assert _is_pair_of(QQ._parse_raw(text), a)
    assert _is_pair_of(QQ._parse_raw(f"{num}/{den}"), Fraction(num, den))


def test_rational_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ(1) / QQ(0)
    with pytest.raises(DivisionByZero):
        QQ(0).inverse()


def test_prime_field_arithmetic():
    F7 = PrimeField(7)
    assert F7(3).inverse() == F7(5)  # 3*5 = 15 = 1 mod 7
    assert F7(3) * F7(5) == F7.one
    assert F7(10) == F7(3)
    assert -F7(1) == F7(6)
    assert F7(2) ** -1 == F7(4)


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)
    assert is_prime(101) and is_prime(2) and not is_prime(1)


def test_strong_pseudoprime_is_not_a_prime_field():
    # psi_12: a strong pseudoprime to every prime base up to 37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    for spec in (f"Fp:{psi12}", f"Fp2:{psi12}"):
        with pytest.raises(ParseError):
            parse_field(spec)
    # at or above psi_13 the fixed bases decide nothing: refuse, do not guess
    psi13 = 3317044064679887385961981
    with pytest.raises(ValueError):
        is_prime(psi13)
    with pytest.raises(ParseError):
        parse_field(f"Fp:{psi13}")
    assert is_prime((1 << 61) - 1)


def test_field_mismatch():
    F7, F11 = PrimeField(7), PrimeField(11)
    with pytest.raises(FieldMismatch):
        F7(1) + F11(1)
    with pytest.raises(FieldMismatch):
        QQ(1) * F7(1)
    assert (F7(1) == F11(1)) is False


def test_quadratic_extension_defining_relation():
    Qi = QQi()
    i = Qi.gen()
    assert i * i == Qi(-1)
    Q5 = QuadraticExtension(QQ, 5)
    s5 = Q5.gen()
    assert s5 * s5 == Q5(5)
    assert (Q5(1) + s5) * (Q5(1) - s5) == Q5(-4)


def test_quadratic_extension_rejects_squares():
    with pytest.raises(ValueError):
        QuadraticExtension(QQ, 4)
    with pytest.raises(ValueError):
        QuadraticExtension(QQ, 0)
    with pytest.raises(ValueError):
        QuadraticExtension(QQi(), 5)  # single extension layer only


def test_quadratic_extension_inverse():
    Qi = QQi()
    i = Qi.gen()
    x = Qi(3) + 4 * i
    assert x * x.inverse() == Qi.one
    with pytest.raises(DivisionByZero):
        Qi.zero.inverse()


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_conjugation_is_multiplicative(a, b, c, d):
    Qi = QQi()
    i = Qi.gen()
    x = Qi(a) + Qi(b) * i
    y = Qi(c) + Qi(d) * i
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert x.conjugate().conjugate() == x


def test_sqrt_rationals():
    assert QQ(Fraction(9, 4)).sqrt() == QQ(Fraction(3, 2))
    assert QQ(0).sqrt() == QQ.zero
    assert QQ(2).sqrt() is None
    assert QQ(-1).sqrt() is None
    # canonical root is the nonnegative one
    assert QQ(4).sqrt() == QQ(2)


def test_sqrt_prime_field():
    F101 = PrimeField(101)
    r = F101(-1).sqrt()
    assert r is not None and r * r == F101(-1)
    assert r == F101(10)  # canonical: least residue side
    F7 = PrimeField(7)  # 7 = 3 mod 4 branch
    r = F7(2).sqrt()
    assert r is not None and r * r == F7(2)
    assert F7(3).sqrt() is None  # 3 is a nonresidue mod 7
    F13 = PrimeField(13)  # 13 = 1 mod 4 branch (Tonelli-Shanks loop)
    for v in range(1, 13):
        r = F13(v).sqrt()
        if r is not None:
            assert r * r == F13(v)


def test_sqrt_quadratic_extension():
    Qi = QQi()
    i = Qi.gen()
    assert Qi(-4).sqrt() == 2 * i
    assert (Qi(3) + 4 * i).sqrt() == Qi(2) + i  # (2+i)^2 = 3+4i
    assert Qi(4).sqrt() == Qi(2)
    assert Qi(2).sqrt() is None  # sqrt(2) not in Q(i)
    Q5 = QuadraticExtension(QQ, 5)
    assert Q5(20).sqrt() == 2 * Q5.gen()


def test_encoding_round_trips():
    cases = [
        (QQ, ["3/4", "-2", "0", "-11/13"]),
        (PrimeField(101), ["5 mod 101", "0 mod 101", "100 mod 101"]),
        (QQi(), ["1/2+-3*sqrt(-1)", "0+1*sqrt(-1)", "-2+0*sqrt(-1)"]),
        (QuadraticExtension(PrimeField(7), 3),
         ["1 mod 7+2 mod 7*sqrt(3 mod 7)"]),
    ]
    for fld, strs in cases:
        for s in strs:
            assert fld.encode(fld.parse(s)) == s


ROUND_TRIP_FIELDS = ["Q", "Q(i)", "Q(sqrt:2)", "Q(sqrt:-3/5)", "Q(sqrt:7/2)",
                     "Fp:2", "Fp:101", "Fp:1000003", f"Fp:{(1 << 61) - 1}",
                     "Fp2:3", "Fp2:103", "Fp2:1000003"]


def _field_elements(fld):
    if isinstance(fld, QuadraticExtension):
        base = _field_elements(fld.base)
        return st.tuples(base, base).map(lambda ab: fld(ab[0]) + fld.gen() * fld(ab[1]))
    if fld is QQ:
        return st.fractions().map(QQ)
    return st.integers().map(fld)


@pytest.mark.parametrize("spec", ROUND_TRIP_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_inverts_encode(spec, data):
    fld = parse_field(spec)
    x = data.draw(_field_elements(fld))
    text = fld.encode(x)
    back = fld.parse(text)
    assert back == x and back.value == x.value and type(back.value) is type(x.value)
    assert fld.encode(back) == text


def test_parse_accepts_base_elements_in_extension():
    Qi = QQi()
    assert Qi.parse("5") == Qi(5)
    assert Qi.parse("-3/2") == Qi(-3) / 2


def test_parse_errors():
    with pytest.raises(ParseError):
        QQ.parse("abc")
    with pytest.raises(ParseError):
        PrimeField(7).parse("3 mod 11")
    with pytest.raises(ParseError):
        QQi().parse("1+2*sqrt(5)")  # wrong radicand


def test_field_descriptors():
    for spec in ["Q", "Q(i)", "Q(sqrt:5)", "Fp:101", "Fp2:7"]:
        assert parse_field(spec).descriptor() == spec
    assert parse_field("Q(sqrt:-1)") == parse_field("Q(i)")
    assert least_nonresidue(7) == 3
    with pytest.raises(ParseError):
        parse_field("R")
    with pytest.raises(ParseError):
        parse_field("Fp:6")
    assert parse_field("Fp:007") == PrimeField(7)
    assert parse_field(" Fp2:7 ") == parse_field("Fp2:7")


@pytest.mark.parametrize("kind", ["Fp", "Fp2"])
@pytest.mark.parametrize("modulus", ["1_000_003", "+7", " 7", "٧", "0x7",
                                     "7.0", "-7", ""])
def test_field_modulus_is_ascii_decimal_digits(kind, modulus):
    # int() reads the first four as 1000003 or 7
    with pytest.raises(ParseError, match="is not decimal digits"):
        parse_field(f"{kind}:{modulus}")


def test_characteristic():
    assert QQ.characteristic == 0
    assert PrimeField(7).characteristic == 7
    assert QQi().characteristic == 0
    assert QuadraticExtension(PrimeField(7), 3).characteristic == 7


def test_hash_and_structural_equality():
    assert PrimeField(7) == PrimeField(7)
    assert hash(QQ(Fraction(1, 2))) == hash(QQ(1) / 2)
    assert len({QQ(1), QQ.one, QQ(2)}) == 2


def test_sort_key_prefers_canonical_side():
    assert sort_key(QQ(2)) < sort_key(QQ(-2))
    F101 = PrimeField(101)
    assert sort_key(F101(10)) < sort_key(F101(91))


@pytest.mark.parametrize("text", ["1e1", "1.5", "1_0", " 2/0", "+3", "1/-2",
                                  "1 / 2", "0x10", "٣", "-", "/2", "1/"])
def test_rational_grammar_is_n_or_p_over_q(text):
    with pytest.raises(ParseError):
        QQ.parse(text)
    with pytest.raises(ParseError):
        QQi().parse(f"1+{text}*sqrt(-1)")


def test_rational_grammar_accepts_the_documented_forms():
    assert QQ.parse("12") == QQ(12)
    assert QQ.parse("-12/8") == QQ(Fraction(-3, 2))
    assert QQ.parse(" 7 ") == QQ(7)
    assert QQ.parse("-0") == QQ.zero
    assert QQ.parse("4/2").value == QQ(2).value     # stored reduced


@pytest.mark.parametrize("text", ["1_0", "+5", "٣", "1e1", "0x10", "5.0", "-",
                                  "5 mod", "mod 101", "5mod 101", "5  mod 101",
                                  "5 mod +101", "5 mod 1_01", "5 mod 101 mod 101"])
def test_residue_grammar_is_n_or_n_mod_p(text):
    with pytest.raises(ParseError):
        PrimeField(101).parse(text)
    with pytest.raises(ParseError):
        QuadraticExtension(PrimeField(7), 3).parse(f"1 mod 7+{text}*sqrt(3 mod 7)")


def test_residue_grammar_accepts_the_documented_forms():
    F101 = PrimeField(101)
    assert F101.parse("7") == F101(7)
    assert F101.parse("-3") == F101(98)
    assert F101.parse("205") == F101(3)
    assert F101.parse(" 7 mod 101 ") == F101(7)
    assert F101.parse("-0") == F101.zero
    Fp2 = QuadraticExtension(PrimeField(103), 3)
    x = Fp2.parse("5 mod 103+93 mod 103*sqrt(3 mod 103)")
    assert x == Fp2(5) + Fp2.gen() * Fp2(93)
    assert Fp2.encode(x) == "5 mod 103+93 mod 103*sqrt(3 mod 103)"
    assert Fp2.parse("4") == Fp2(4)
