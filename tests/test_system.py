import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbtridiag
from tbtridiag import system
from tbtridiag.arrays import (AskeyWilsonSeq, Family, aw_sequence,
                              aw_sequence_nonzero, generate_family, is_self_dual,
                              relatives, validate_array)
from tbtridiag.errors import (DivisionByZero, InvariantViolation, NotAnnihilated,
                              NotSelfDual)
from tbtridiag.fields import QQ, parse_field
from tbtridiag.matrices import (Matrix, RankOneFamily, _closure_rank,
                                algebra_dimension, column, diagonal, identity,
                                lagrange_idempotents, poly_chain, spectral_sum,
                                zeros)
from tbtridiag.system import (build_system, dagger, dagger_report,
                              intersection_numbers, involutions_check,
                              isomorphic, raising_lowering, sd_isomorphism,
                              verify_aw_relations, verify_axioms)
from tbtridiag.report import CheckResult, ReportBuilder
from tbtridiag.serialize import decode_system, emit_system


def _units(fld, n):
    """The dual idempotents E*_i = e_ii as dense matrices, built here."""
    return tuple(diagonal(fld, [int(i == j) for j in range(n)]) for i in range(n))


def _rank(vectors):
    """Row rank over the field, reduced independently of the library paths."""
    rows = [list(v) for v in vectors]
    rank, pivots = 0, []
    for row in rows:
        for col, prow in pivots:
            if not row[col].is_zero():
                f = row[col]
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if not v.is_zero()), None)
        if lead is not None:
            inv = row[lead].inverse()
            pivots.append((lead, [v * inv for v in row]))
            rank += 1
    return rank


def test_intersection_numbers_d1():
    inters = intersection_numbers(validate_array(QQ, [7, -7], [2, -2]))
    assert inters.c == (QQ(7),) and inters.b == (QQ(7),)
    assert inters.c_star == (QQ(2),) and inters.b_star == (QQ(2),)


def test_intersection_numbers_d2():
    inters = intersection_numbers(validate_array(QQ, [1, 0, -1], [3, 0, -3]))
    assert [str(v) for v in inters.c] == ["1/2", "1"]
    assert [str(v) for v in inters.b] == ["1", "1/2"]
    assert [str(v) for v in inters.c_star] == ["3/2", "3"]
    assert [str(v) for v in inters.b_star] == ["3", "3/2"]


def test_intersection_numbers_krawtchouk(k3):
    assert list(k3.inters.c) == list(map(QQ, [1, 2, 3]))
    assert list(k3.inters.b) == list(map(QQ, [3, 2, 1]))


def test_intersection_numbers_qracah(qr3):
    inters = qr3.inters
    assert inters.c[0] == QQ.one
    assert inters.b[1] == QQ(Fraction(17, 4))
    assert inters.c[2] == QQ(Fraction(21, 4)) == inters.b[0]
    # oracle: c_i + b_i = theta_0 for interior i
    theta0 = qr3.array.theta[0]
    assert inters.c[0] + inters.b[1] == theta0
    assert inters.c[1] + inters.b[2] == theta0


def test_build_system_golden(k3):
    assert k3.A == Matrix(QQ, [[0, 3, 0, 0], [1, 0, 2, 0],
                               [0, 2, 0, 1], [0, 0, 3, 0]])
    assert k3.A_star == diagonal(QQ, [3, 1, -1, -3])
    assert k3.K == diagonal(QQ, [1, 3, 3, 1])


def test_build_system_d1():
    s = build_system(validate_array(QQ, [1, -1], [1, -1]))
    assert s.A == Matrix(QQ, [[0, 1], [1, 0]])
    assert s.A_star == diagonal(QQ, [1, -1])
    # S = E_0 - E_1 recombines to A here since theta = (1, -1)
    assert s.S == s.A


def test_standard_eigenvectors(k3, qr3):
    others = [build_system(generate_family(QQ, Family.BANNAI_ITO, 4)),
              build_system(generate_family(QQ, Family.QRACAH_EVEN, 4, q=2)),
              build_system(generate_family(QQ, Family.KRAWTCHOUK, 5, h=2, h_star=3))]
    for s in (k3, qr3, *others):
        d = s.d
        theta, theta_star = s.array.theta, s.array.theta_star
        v0 = column(s.field, [1] * (d + 1))
        v1 = column(s.field, theta_star)
        vd = column(s.field, [(-1) ** i for i in range(d + 1)])
        vd1 = column(s.field, [theta_star[i] * (-1) ** i for i in range(d + 1)])
        assert s.A * v0 == v0 * theta[0]
        assert s.A * v1 == v1 * theta[1]
        assert s.A * vd == vd * theta[d]
        assert s.A * vd1 == vd1 * theta[d - 1]


def test_raising_lowering(k3):
    R, L = raising_lowering(k3)
    assert R == Matrix(QQ, [[0, 0, 0, 0], [1, 0, 0, 0],
                            [0, 2, 0, 0], [0, 0, 3, 0]])
    assert L == Matrix(QQ, [[0, 3, 0, 0], [0, 0, 2, 0],
                            [0, 0, 0, 1], [0, 0, 0, 0]])
    assert R + L == k3.A
    assert (diagonal(QQ, [1, 0, 0, 0]) * R).is_zero()
    e0 = column(QQ, [1, 0, 0, 0])
    assert (L * e0).is_zero()
    # action on the all-ones eigenvector slices: R v_{i-1} = c_i v_i, L v_1 = theta_0 v_0
    theta, theta_star = k3.array.theta, k3.array.theta_star
    for i in range(1, 3):
        ci = (theta[1] * theta_star[i] - theta[0] * theta_star[i + 1]) / \
            (theta_star[i - 1] - theta_star[i + 1])
        vi_prev = column(QQ, [1 if j == i - 1 else 0 for j in range(4)])
        vi = column(QQ, [1 if j == i else 0 for j in range(4)])
        assert R * vi_prev == vi * ci
    v1 = column(QQ, [0, 1, 0, 0])
    v0 = column(QQ, [1, 0, 0, 0])
    assert L * v1 == v0 * theta[0]


FIELD_KINDS = ["Q", "Q(i)", "Q(sqrt:2)", "Fp:101", "Fp2:103"]


def _unit_products_hold(s, R, L):
    """The E*_i products raising_lowering checked before it relied on R + L = A."""
    n = s.d + 1
    Es, zero = _units(s.field, n), zeros(s.field, n)
    return (all(Es[i] * R == Es[i] * s.A * Es[i - 1] == R * Es[i - 1]
                and Es[i - 1] * L == Es[i - 1] * s.A * Es[i] == L * Es[i]
                for i in range(1, n))
            and Es[0] * R == zero == R * Es[n - 1] and Es[n - 1] * L == zero == L * Es[0])


@pytest.mark.parametrize("spec", FIELD_KINDS)
def test_raising_lowering_satisfies_the_unit_products(spec):
    fld = parse_field(spec)
    for family, d, kwargs in LEMMA_FAMILIES:
        s = build_system(generate_family(fld, family, d, **kwargs))
        assert _unit_products_hold(s, *raising_lowering(s)), (family, d)


@pytest.mark.parametrize("entry, value", [((0, 2), "1"), ((2, 1), "5")])
def test_raising_lowering_rejects_a_tampered_A(k3, entry, value):
    # an entry off the band, then a changed subdiagonal entry
    doc = emit_system(k3)
    doc["A"][entry[0]][entry[1]] = value
    with pytest.raises(InvariantViolation, match=r"^R \+ L != A$"):
        raising_lowering(decode_system(doc))


@pytest.mark.parametrize("spec", FIELD_KINDS)
def test_system_and_raising_lowering_form_no_product(spec, monkeypatch):
    built = [build_system(generate_family(parse_field(spec), family, d, **kwargs))
             for family, d, kwargs in LEMMA_FAMILIES]
    expected = [raising_lowering(s) for s in built]

    def refuse(*args):
        raise AssertionError("a matrix product was formed")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    for s, RL in zip(built, expected):
        again = system.system(s.array, s.inters, s.A, s.A_star, s.K)
        assert (again.E.u, again.E.w, again.S) == (s.E.u, s.E.w, s.S)
        assert raising_lowering(again) == RL


def test_verify_axioms_passes(k3, qr3):
    for s in (k3, qr3):
        report = verify_axioms(s)
        assert report.passed, report.failures()


def test_power_pattern_golden(k3):
    # E*_0 A^3 E*_3 != 0 while E*_0 A^2 E*_3 = 0, via direct powers
    a2 = k3.A * k3.A
    a3 = a2 * k3.A
    assert a2[0, 3].is_zero()
    assert not a3[0, 3].is_zero()


def test_verify_axioms_flags_mutations(k3):
    doc = emit_system(k3)
    doc["A"][1][2] = "0"  # zero out b_1
    broken = decode_system(doc)
    report = verify_axioms(broken)
    failed = {c.name for c in report.failures()}
    assert "irreducible: c_i b_{i-1} != 0" in failed
    assert "A, A* generate the full matrix algebra" in failed
    witness = next(c.witness for c in report.failures()
                   if c.name.startswith("irreducible"))
    assert witness


def test_verify_aw_relations(k3, qr3):
    for s, beta in ((k3, QQ(2)), (qr3, QQ(Fraction(17, 4)))):
        report = verify_aw_relations(s, aw_sequence(s.array, beta))
        assert report.passed, report.failures()


def test_verify_aw_relations_small_d():
    s1 = build_system(generate_family(QQ, Family.SMALL_D1, 1, h=2))
    report = verify_aw_relations(s1, aw_sequence_nonzero(s1.array))
    assert report.passed
    names = [c.name for c in report]
    assert "A A* = -A* A" in names and "A^2 = theta_0^2 I" in names
    s2 = build_system(generate_family(QQ, Family.SMALL_D2, 2, h=3))
    report = verify_aw_relations(s2, aw_sequence_nonzero(s2.array))
    assert report.passed
    assert (s2.A * s2.A_star * s2.A).is_zero()


def test_verify_aw_relations_perturbed_rho(k3):
    seq = aw_sequence(k3.array, QQ(2))
    bad = AskeyWilsonSeq(seq.beta, seq.rho + 1, seq.rho_star)
    report = verify_aw_relations(k3, bad)
    fails = report.failures()
    assert len(fails) == 1
    assert fails[0].name.startswith("A^2 A*")
    assert fails[0].witness  # residual entry

def test_dagger_fixes_and_reverses(k3):
    report = dagger_report(k3)
    assert report.passed, report.failures()
    assert dagger(k3, k3.A) == k3.A
    R, L = raising_lowering(k3)
    assert dagger(k3, R) == L
    x = Matrix(QQ, [[1, 2, 0, 1], [0, 1, 5, 0], [3, 0, 1, 0], [0, 0, 2, 7]])
    assert dagger(k3, dagger(k3, x)) == x


INVOLUTION = "dagger is an involution on 20 random matrices"
ANTI = "dagger reverses products on 20 random pairs"


def _random_pair_verdicts(s, dag=None):
    """The spot-check dagger_report made before it decided both properties:
    involution and product reversal of dag (dagger_map(s) by default) on 20
    seeded random pairs."""
    fld = s.field
    n = s.d + 1
    dag = dag or system.dagger_map(s)
    rng = random.Random(0)

    def rand_matrix():
        return Matrix.from_raw(fld, [[fld._from_int(rng.randint(-9, 9)) for _ in range(n)]
                                     for _ in range(n)])

    ok_inv, ok_anti = True, True
    for _ in range(20):
        x, y = rand_matrix(), rand_matrix()
        x_dag = dag(x)
        if dag(x_dag) != x:
            ok_inv = False
        if dag(x * y) != dag(y) * x_dag:
            ok_anti = False
    return ok_inv, ok_anti


def _verdicts(report):
    by_name = {c.name: c for c in report.checks}
    assert by_name[INVOLUTION].witness is None and by_name[ANTI].witness is None
    return by_name[INVOLUTION].passed, by_name[ANTI].passed


DAGGER_FIELDS = ["Q", "Q(i)", "Q(sqrt:2)", "Fp:101", "Fp2:103", "Fp:1000003"]


def _dagger_systems(fld):
    yield build_system(generate_family(fld, Family.SMALL_D1, 1))
    for d in (1, 2, 3, 5):
        yield build_system(generate_family(fld, Family.KRAWTCHOUK, d, h=1, h_star=2))
    yield build_system(generate_family(fld, Family.BANNAI_ITO, 2))
    yield build_system(generate_family(fld, Family.BANNAI_ITO, 4, h=3))


@pytest.mark.parametrize("spec", DAGGER_FIELDS)
def test_dagger_verdicts_match_random_pairs(spec):
    for s in _dagger_systems(parse_field(spec)):
        report = dagger_report(s)
        assert report.passed, report.failures()
        assert _verdicts(report) == _random_pair_verdicts(s) == (True, True)


def _ratio_dagger(s, r):
    """X -> (X[j, i] r[i][j]), as dagger_map applied a ratio table r."""
    mul = s.field._mul
    return lambda x: Matrix.from_raw(s.field, [[mul(v, r_ij) for v, r_ij in zip(col, row)]
                                               for col, row in zip(zip(*x.raw), r)])


@pytest.mark.parametrize("spec", DAGGER_FIELDS)
def test_dagger_verdicts_fail_on_a_corrupted_ratio(spec):
    # The oracle is sharp: a table r[i][j] = k_j / k_i with one entry off is
    # no map X -> K^{-1} X^t K, and the random pairs find both properties
    # broken.  The report maps no table, so its verdicts stand.
    fld = parse_field(spec)
    for s in _dagger_systems(fld):
        if s.d < 2:
            continue
        k = [s.K.raw[i][i] for i in range(s.d + 1)]
        r = [[fld._mul(kj, fld._inv(ki)) for kj in k] for ki in k]
        r[0][2] = fld._add(r[0][2], fld._one_raw)
        assert _random_pair_verdicts(s, _ratio_dagger(s, r)) == (False, False)
        assert _verdicts(dagger_report(s)) == (True, True)


@pytest.mark.parametrize("spec", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("family, q", [(Family.KRAWTCHOUK, None), (Family.QRACAH_EVEN, 2)],
                         ids=["krawtchouk", "qracah-even"])
def test_dagger_report_maps_only_A_and_A_star(spec, family, q, monkeypatch):
    # two field products per nonzero entry of A and A*, under 6n; a table
    # over all n^2 entries would exceed the 8n bound
    s = build_system(generate_family(parse_field(spec), family, 16, q=q))
    n, calls = s.d + 1, []
    mul = s.field._mul
    monkeypatch.setattr(s.field, "_mul", lambda u, v: calls.append(None) or mul(u, v))
    assert dagger_report(s).passed
    assert 0 < len(calls) <= 8 * n


def test_dagger_reads_only_the_diagonal_of_K(k3, qr3):
    for s in (k3, qr3):
        n = s.d + 1
        off = dataclasses.replace(s, K=s.K + Matrix(s.field, [[int(i != j) * (i + 2 * j + 1)
                                                                for j in range(n)]
                                                               for i in range(n)]))
        x = Matrix(s.field, [[i * n + j + 1 for j in range(n)] for i in range(n)])
        assert dagger(off, x) == dagger(s, x)
        assert dagger_report(off).to_dict() == dagger_report(s).to_dict()
        bad_A = dataclasses.replace(off, A=s.A + _unit(s.field, n, 1, 0))
        assert dagger_report(bad_A).to_dict() == dagger_report(
            dataclasses.replace(s, A=bad_A.A)).to_dict()


def test_zero_k_raises_division_by_zero(k3):
    raw = [list(row) for row in k3.K.raw]
    raw[2][2] = k3.field._zero_raw
    s = dataclasses.replace(k3, K=Matrix.from_raw(k3.field, raw))
    with pytest.raises(DivisionByZero):
        system.dagger_map(s)
    with pytest.raises(DivisionByZero):
        dagger_report(s)


def test_involutions(k3, qr3):
    for s in (k3, qr3):
        report = involutions_check(s)
        assert report.passed, report.failures()
    # odd diameter: S and S* anticommute
    assert k3.S * k3.S_star == -(k3.S_star * k3.S)


def test_involutions_even_diameter():
    s = build_system(generate_family(QQ, Family.BANNAI_ITO, 4))
    report = involutions_check(s)
    assert report.passed, report.failures()
    assert s.S * s.S_star == s.S_star * s.S


def test_involutions_check_without_idempotents(k3):
    # an off-band A that its eigenvalue factors do not annihilate has no E_i
    doc = emit_system(k3)
    doc["A"][0][2] = "5"
    s = decode_system(doc)
    assert s.E is None and s.S is None
    assert involutions_check(s).checks == (
        CheckResult("involutions", False, "idempotents of A unavailable"),)


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Q(i)", "Fp2:103"])
def test_sign_involutions_are_the_signed_sums(spec):
    fld = parse_field(spec)
    for arr in (generate_family(fld, Family.KRAWTCHOUK, 3, h=1, h_star=2),
                generate_family(fld, Family.BANNAI_ITO, 4)):
        built = build_system(arr)
        n = arr.d + 1
        # sum (-1)^i E_i on boxed entries
        boxed = [[fld.zero] * n for _ in range(n)]
        for i, e in enumerate(built.E):
            for k in range(n):
                for l in range(n):
                    boxed[k][l] = boxed[k][l] + e[k, l] * (-1) ** i
        for s in (built, decode_system(emit_system(built))):
            assert s.S == Matrix(fld, boxed)
            assert s.S_star == diagonal(fld, [(-1) ** k for k in range(n)])


INVOLUTION_SUM = "sum (-1)^i (E_i A* + A* E_i) = 0"


@pytest.fixture(scope="module")
def involution_docs():
    return {spec: [emit_system(build_system(generate_family(parse_field(spec), *args)))
                   for args in ((Family.KRAWTCHOUK, 3), (Family.BANNAI_ITO, 4))]
            for spec in ("Q", "Fp:101", "Q(i)")}


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Q(i)"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_involution_sum_matches_the_signed_loop(involution_docs, spec, data):
    # involutions_check decides the sum as S A* + A* S; the oracle is the
    # per-index loop it replaced, on systems whose A* has tampered entries
    fld = parse_field(spec)
    doc = json.loads(json.dumps(data.draw(st.sampled_from(involution_docs[spec]))))
    n = len(doc["A_star"])
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        value = fld(data.draw(st.integers(-9, 9)))
        doc["A_star"][data.draw(index)][data.draw(index)] = fld.encode(value)
    s = decode_system(doc)
    acc = zeros(fld, n)
    for i in range(n):
        term = s.E[i] * s.A_star + s.A_star * s.E[i]
        acc = acc - term if i % 2 else acc + term
    rb = ReportBuilder()
    rb.matrix_zero(INVOLUTION_SUM, acc)
    check = next(c for c in involutions_check(s) if c.name == INVOLUTION_SUM)
    assert check == rb.build().checks[0]


EIGEN_FACTORS = "diagonalizable: product of eigenvalue factors vanishes"
DAGGER_FIXES = "dagger fixes every idempotent"
SIGN_TWIST = "S* E_i = E_{d-i} S*"
ORACLE_FIELDS = ["Q", "Fp:101", "Q(i)", "Fp2:103"]


def _idempotent_loops(s):
    """The eigenvalue-factor check and the fixed-point and sign-twist verdicts
    (None without the E_i) from the dense idempotent loops that verify_axioms,
    dagger_report and involutions_check ran before they decided them on A."""
    fld, n = s.field, s.d + 1
    eye = identity(fld, n)
    prod = eye
    for t in s.array.theta:
        prod = prod * (s.A - eye * t)
    rb = ReportBuilder()
    rb.matrix_zero(EIGEN_FACTORS, prod)
    dag = system.dagger_map(s)
    fixes = all(dag(e) == e for e in _units(fld, n) + tuple(s.E or ()))
    twist = None if s.E is None else all(s.S_star * s.E[i] == s.E[s.d - i] * s.S_star
                                         for i in range(n))
    return rb.build().checks[0], fixes, twist


def _idempotent_verdicts(s):
    """The same three from the reports."""
    checks = {c.name: c for report in (verify_axioms(s), dagger_report(s),
                                       involutions_check(s)) for c in report}
    twist = checks[SIGN_TWIST].passed if SIGN_TWIST in checks else None
    return checks[EIGEN_FACTORS], checks[DAGGER_FIXES].passed, twist


def _with_A(s, a):
    doc = emit_system(s)
    doc["A"] = [[s.field.encode(v) for v in row] for row in a.rows]
    return decode_system(doc)


def _unit(fld, n, i, j):
    return Matrix(fld, [[int((k, l) == (i, j)) for l in range(n)] for k in range(n)])


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
def test_idempotent_verdicts_match_the_loops(spec):
    # each verdict takes both values on these documents, the E_i set or not
    fld = parse_field(spec)
    s = build_system(generate_family(fld, Family.KRAWTCHOUK, 3))
    n, A, theta = 4, s.A, s.array.theta
    eye = identity(fld, n)
    scale = diagonal(fld, [1, 2, 3, 5])
    even, odd = _unit(fld, n, 0, 2), _unit(fld, n, 0, 3)
    cases = [
        (s, (True, True, True)),
        # D A D^-1 stays tridiagonal and anticommutes with S*, but K no
        # longer symmetrizes it
        (_with_A(s, scale * A * scale.inverse()), (True, False, True)),
        # off the band, so the E_i come by Lagrange; S* commutes with I + e_02
        # but not with I + e_03
        (_with_A(s, (eye + even) * A * (eye - even)), (True, False, True)),
        (_with_A(s, (eye + odd) * A * (eye - odd)), (True, False, False)),
        (_with_A(s, diagonal(fld, reversed(theta))), (True, True, False)),
        # a repeated theta: still annihilated, E_1 = 0 and E_0 has rank 2
        (_with_A(s, diagonal(fld, [theta[0], theta[0], theta[2], theta[3]])),
         (True, True, False)),
        # not annihilated: no E_i, so the E*_i alone are fixed
        (_with_A(s, A + _unit(fld, n, 0, 2) * 5), (False, True, None)),
        (_with_A(s, diagonal(fld, [theta[0] + 1] + list(theta[1:]))), (False, True, None)),
    ]
    for t, expected in cases:
        verdicts = _idempotent_verdicts(t)
        assert verdicts == _idempotent_loops(t)
        assert (verdicts[0].passed,) + verdicts[1:] == expected
        assert (verdicts[0].witness is None) == verdicts[0].passed


@pytest.fixture(scope="module")
def oracle_systems():
    return {spec: [build_system(generate_family(parse_field(spec), *args))
                   for args in ((Family.KRAWTCHOUK, 3), (Family.BANNAI_ITO, 4))]
            for spec in ORACLE_FIELDS}


def _oracle_elements(fld):
    ints = st.integers(-5, 5).map(fld)
    if hasattr(fld, "gen"):
        return st.tuples(ints, ints).map(lambda ab: ab[0] + fld.gen() * ab[1])
    return ints


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_idempotent_verdicts_match_the_loops_on_drawn_documents(oracle_systems, spec, data):
    # A conjugated by a diagonal or a dense invertible matrix, replaced by a
    # diagonal matrix of drawn thetas, some repeated, or with one entry drawn
    fld = parse_field(spec)
    s = data.draw(st.sampled_from(oracle_systems[spec]))
    n = s.d + 1
    elements = _oracle_elements(fld)
    kind = data.draw(st.sampled_from(["diagonal", "dense", "thetas", "entry"]))
    if kind == "thetas":
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        a = diagonal(fld, [s.array.theta[k] for k in picks])
    elif kind == "entry":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        a = s.A + _unit(fld, n, i, j) * data.draw(elements)
    else:
        if kind == "diagonal":
            m = diagonal(fld, [data.draw(elements.filter(lambda v: not v.is_zero()))
                               for _ in range(n)])
        else:
            # unit lower times unit upper triangular: invertible
            lower = Matrix(fld, [[data.draw(elements) if l < k else int(k == l)
                                  for l in range(n)] for k in range(n)])
            m = lower * lower.transpose()
        a = m * s.A * m.inverse()
    t = _with_A(s, a)
    assert _idempotent_verdicts(t) == _idempotent_loops(t)


def test_report_builder_returns_each_verdict():
    rb = ReportBuilder()
    x = Matrix(QQ, [[1, 2], [3, 4]])
    assert rb.matrices_equal("x = x", x, x) is True
    assert rb.matrices_equal("x = 2x", x, x * 2) is False
    assert rb.matrix_zero("0 = 0", zeros(QQ, 2)) is True
    assert rb.matrix_zero("x = 0", x) is False
    assert rb.record("recorded", 1) is True
    assert [c.passed for c in rb.build()] == [True, False, True, False, True]


def test_sandwich_boundary_identity(k3, qr3):
    # E*_i A^r A* A^s E*_j vanishes beyond the band |i-j| > r+s and touches
    # the band with weight theta*_{j+s} (or theta*_{i+r} on the other side)
    for s in (k3, qr3):
        d = s.d
        theta_star = s.array.theta_star
        powers = [identity(s.field, d + 1)]
        for _ in range(d):
            powers.append(powers[-1] * s.A)
        for r in range(d + 1):
            for t in range(d + 1 - r):
                m = powers[r] * s.A_star * powers[t]
                band = powers[r + t]
                for i in range(d + 1):
                    for j in range(d + 1):
                        if abs(i - j) > r + t:
                            assert m[i, j].is_zero()
                        elif i - j == r + t:
                            assert m[i, j] == theta_star[j + t] * band[i, j]
                        elif j - i == r + t:
                            assert m[i, j] == theta_star[i + r] * band[i, j]


def _dense_sandwich(s):
    """The E_i A* E_j verdict from dense products of the Lagrange idempotents."""
    E = lagrange_idempotents(s.A, s.array.theta)
    n = s.d + 1
    for i in range(n):
        for j in range(n):
            zero = (E[i] * s.A_star * E[j]).is_zero()
            if abs(i - j) == 1 and zero:
                return False, f"E_{i} A* E_{j} = 0"
            if abs(i - j) != 1 and not zero:
                return False, f"E_{i} A* E_{j} != 0"
    return True, None


@pytest.mark.parametrize("entry", [None, (0, 0, "7"), (0, 2, "5"), (3, 1, "-1/2"),
                                   (1, 1, "-1")])
def test_sandwich_scalars_agree_with_dense_products(k3, entry):
    # verify_axioms decides E_i A* E_j != 0 from the scalars w_i^t A* u_j,
    # also for a stored A* that is not diagonal
    doc = emit_system(k3)
    if entry is not None:
        i, j, value = entry
        doc["A_star"][i][j] = value
    s = decode_system(doc)
    check = next(c for c in verify_axioms(s) if c.name == "sandwich pattern: E_i A* E_j")
    assert (check.passed, check.witness) == _dense_sandwich(s)
    assert check.passed == (entry is None)


def _power_chain(s):
    """The power-pattern verdict and witness from the A^r chain that
    verify_axioms multiplied out before it decided the pattern on A alone."""
    n = s.d + 1
    power = identity(s.field, n)
    for r in range(n):
        for i in range(n):
            for j in range(n):
                if abs(i - j) > r and not power[i, j].is_zero():
                    return False, f"(A^{r})[{i},{j}] = {power[i, j]} != 0"
                if abs(i - j) == r and power[i, j].is_zero():
                    return False, f"(A^{r})[{i},{j}] = 0"
        power = power * s.A
    return True, None


POWER_TAMPERS = {"off-band entry": [(0, 2, 5)], "far off-band entry": [(4, 0, -3)],
                 "zeroed b_1": [(1, 2, 0)], "zeroed c_3": [(3, 2, 0)],
                 "nonzero diagonal entry": [(1, 1, -1)],
                 "diagonal and off-band": [(2, 2, 7), (3, 0, 1)],
                 "zeroed b_0 and off-band": [(0, 1, 0), (2, 4, 2)]}


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Q(i)", "Fp2:103"])
def test_power_pattern_matches_the_power_chain(spec):
    fld = parse_field(spec)
    built = [build_system(generate_family(fld, Family.KRAWTCHOUK, 4, h=1, h_star=2)),
             build_system(generate_family(fld, Family.BANNAI_ITO, 4))]
    systems = list(built)
    for s in built:
        for edits in POWER_TAMPERS.values():
            doc = emit_system(s)
            for i, j, value in edits:
                doc["A"][i][j] = fld.encode(fld(value))
            systems.append(decode_system(doc))
    verdicts = []
    for s in systems:
        check = next(c for c in verify_axioms(s) if c.name == "power pattern: E*_i A^r E*_j")
        verdicts.append((check.passed, check.witness))
        assert verdicts[-1] == _power_chain(s)
    assert verdicts[:2] == [(True, None)] * 2
    assert sum(ok for ok, _ in verdicts) == 2 + 2   # the diagonal entry keeps the pattern


def _counting(monkeypatch, names):
    """Count the calls of these matrices functions through every module of
    the package that binds them."""
    from tbtridiag import matrices, serialize, triple

    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(matrices, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        for module in (matrices, serialize, system, triple):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def _krawtchouk_doc(fld, off_band):
    """The Krawtchouk d=4 system document; with off_band, its A conjugated by
    the unipotent I + e_02, which puts A off the band but keeps it
    annihilated by its eigenvalue factors, so its E_i exist (by Lagrange)."""
    doc = emit_system(build_system(generate_family(fld, Family.KRAWTCHOUK, 4)))
    if off_band:
        eye = identity(fld, 5)
        unit = Matrix(fld, [[int((i, j) == (0, 2)) for j in range(5)] for i in range(5)])
        a = (eye + unit) * decode_system(doc).A * (eye - unit)
        doc["A"] = [[fld.encode(v) for v in row] for row in a.rows]
    return doc


@pytest.mark.parametrize("spec", ["Q", "Fp:101"])
@pytest.mark.parametrize("off_band", [False, True])
def test_verify_of_a_system_document_forms_the_idempotents_once(
        capsys, tmp_path, monkeypatch, spec, off_band):
    from tbtridiag.cli import main

    # each eigenvector comes from the recurrence once, Lagrange runs only
    # off the band, and on it no dense E_i and no spectral sum is formed
    from tbtridiag.matrices import RankOneFamily

    doc = _krawtchouk_doc(parse_field(spec), off_band)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    calls = _counting(monkeypatch, ("_eigenvector", "lagrange_idempotents", "spectral_sum"))

    def refuse(*args):
        raise AssertionError("a dense E_i was formed from the eigenvectors")

    monkeypatch.setattr(RankOneFamily, "__getitem__", refuse)
    code = main(["verify", "-i", str(path)])
    capsys.readouterr()
    assert code == (1 if off_band else 0)
    assert calls == {"_eigenvector": 0 if off_band else 2 * 5,
                     "lagrange_idempotents": int(off_band), "spectral_sum": int(off_band)}


def test_verify_axioms_forms_no_idempotent(k3, monkeypatch):
    from tbtridiag import matrices

    tampered = decode_system(_krawtchouk_doc(QQ, off_band=True))
    assert tampered.E is not None
    expected = verify_axioms(tampered)
    built = (k3, build_system(generate_family(parse_field("Fp2:103"), Family.BANNAI_ITO, 4)))

    def refuse(*args):
        raise AssertionError("verify_axioms formed an idempotent")

    for module in (matrices, system):
        for name in ("rank_one_idempotents", "lagrange_idempotents", "primitive_idempotents"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for s in built:
        report = verify_axioms(s)
        assert report.passed, report.failures()
    assert verify_axioms(tampered) == expected


CLI_FIELDS = ["Q", "Fp:101", "Q(i)", "Fp2:103", "Fp:1000003"]
LEMMA_FAMILIES = [(Family.KRAWTCHOUK, d, {}) for d in (1, 2, 3, 4, 5)] + [
    (Family.BANNAI_ITO, 2, {}), (Family.BANNAI_ITO, 4, {}),
    (Family.QRACAH_EVEN, 4, {"q": 2}), (Family.QRACAH_ODD, 3, {"q": 2}),
    (Family.QRACAH_ODD, 5, {"q": 3}), (Family.SMALL_D1, 1, {"h_star": 3}),
    (Family.SMALL_D2, 2, {"h": 2, "h_star": -5})]


@pytest.mark.parametrize("spec", CLI_FIELDS)
def test_reversed_dual_relative_has_the_systems_intersection_numbers(spec):
    # the lemma involutions_check relies on: theta* is antisymmetric, so the
    # reversed-dual relative has theta* negated, and c_i, b_i are of degree 0
    # in theta*
    fld = parse_field(spec)
    for family, d, kwargs in LEMMA_FAMILIES:
        arr = generate_family(fld, family, d, **kwargs)
        down = relatives(arr)["down"]
        ours, theirs = intersection_numbers(arr), intersection_numbers(down)
        assert (theirs.c, theirs.b) == (ours.c, ours.b), (family, d)
        assert down.theta_star == arr.theta_star[::-1] == tuple(-t for t in arr.theta_star)


def test_involutions_check_derives_no_relative(k3, qr3, monkeypatch):
    from tbtridiag import arrays

    def refuse(*args):
        raise AssertionError("involutions_check re-derived the relative")

    monkeypatch.setattr(arrays, "validate_array", refuse)
    monkeypatch.setattr(system, "intersection_numbers", refuse)
    for s in (k3, qr3):
        report = involutions_check(s)
        assert report.passed, report.failures()


FULL_ALGEBRA = "A, A* generate the full matrix algebra"


def _closure_check(s):
    """The full-algebra check from the product closure of the stored A, A*."""
    fld, n = s.field, s.d + 1
    dim = _closure_rank(fld, [s.A, s.A_star], n)
    return CheckResult(FULL_ALGEBRA, dim == n * n,
                       None if dim == n * n else f"algebra dimension {dim} != {n * n}")


def _full_algebra_check(s):
    return next(c for c in verify_axioms(s) if c.name == FULL_ALGEBRA)


def test_full_algebra_in_the_eigenbasis_of_A(k3):
    # A* = 0 leaves the algebra of A alone, of dimension n
    doc = emit_system(k3)
    doc["A_star"] = [["0"] * 4 for _ in range(4)]
    s = decode_system(doc)
    assert _full_algebra_check(s) == _closure_check(s) \
        == CheckResult(FULL_ALGEBRA, False, "algebra dimension 4 != 16")


@pytest.fixture(scope="module")
def eigenbasis_docs():
    return {spec: [emit_system(build_system(generate_family(parse_field(spec), *args)))
                   for args in ((Family.KRAWTCHOUK, 1), (Family.KRAWTCHOUK, 3),
                                (Family.BANNAI_ITO, 4))]
            for spec in ("Q", "Fp:101", "Fp:7", "Q(i)")}


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Fp:7", "Q(i)"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_full_algebra_in_the_eigenbasis_matches_the_closure(eigenbasis_docs, spec, data):
    # A stays on the band, so its E_i have rank one and the dimension is
    # counted in the basis of the u_i; 1-3 entries of A* are drawn, small
    # values so that zero patterns and repeated entries occur
    fld = parse_field(spec)
    doc = json.loads(json.dumps(data.draw(st.sampled_from(eigenbasis_docs[spec]))))
    n = len(doc["A_star"])
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        value = fld(data.draw(st.integers(-2, 2)))
        doc["A_star"][data.draw(index)][data.draw(index)] = fld.encode(value)
    s = decode_system(doc)
    assert s.E is not None
    assert _full_algebra_check(s) == _closure_check(s)


def _conjugated_doc(doc, fld, i, j, x):
    """doc with A replaced by (I + x e_ij) A (I - x e_ij), i != j: the same
    spectrum, so A stays annihilated, but off the band as a rule."""
    n = len(doc["A"])
    unit = Matrix(fld, [[x if (k, l) == (i, j) else 0 for l in range(n)] for k in range(n)])
    eye = identity(fld, n)
    A = Matrix(fld, [[fld.parse(v) for v in row] for row in doc["A"]])
    conj = (eye + unit) * A * (eye - unit)
    out = json.loads(json.dumps(doc))
    out["A"] = [[fld.encode(conj[k, l]) for l in range(n)] for k in range(n)]
    return out


def _sandwich_check(s):
    check = next(c for c in verify_axioms(s) if c.name == "sandwich pattern: E_i A* E_j")
    return check.passed, check.witness


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Fp:7", "Q(i)"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lagrange_documents_take_the_eigenbasis(eigenbasis_docs, spec, data):
    # A conjugated onto the Lagrange path keeps its spectrum, so no E_i is
    # zero and each has rank one: the dimension is counted in the basis of
    # the u_i, never by the closure, and the sandwich scalars decide as the
    # dense scan does; 0-3 entries of A* are drawn as above
    from tbtridiag import matrices

    fld = parse_field(spec)
    doc = data.draw(st.sampled_from(eigenbasis_docs[spec]))
    n = len(doc["A"])
    index = st.integers(0, n - 1)
    i = data.draw(index)
    j = data.draw(index.filter(lambda j: j != i))
    doc = _conjugated_doc(doc, fld, i, j, fld(data.draw(st.integers(1, 3))))
    for _ in range(data.draw(st.integers(0, 3))):
        value = fld(data.draw(st.integers(-2, 2)))
        doc["A_star"][data.draw(index)][data.draw(index)] = fld.encode(value)
    s = decode_system(doc)
    assert s.E is not None and not any(e.is_zero() for e in s.E)

    def refuse(field, gens, n):
        raise AssertionError("product closure reached with rank-one idempotents")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_closure_rank", refuse)
        full, sandwich = _full_algebra_check(s), _sandwich_check(s)
    assert full == _closure_check(s)
    assert sandwich == _dense_sandwich(s)


@pytest.mark.parametrize("a_star_entry", [None, (0, 1, "1")])
def test_a_family_with_a_zero_idempotent_keeps_the_dense_scan(k3, a_star_entry, monkeypatch):
    # a diagonal A whose spectrum misses theta_1: E_1 = p_1(A) = 0, so the
    # E_i do not all have rank one; with a non-diagonal A* the closure runs
    from tbtridiag import matrices

    doc = emit_system(k3)
    theta = doc["array"]["theta"]
    spectrum = [theta[0], theta[0]] + theta[2:]
    doc["A"] = [[spectrum[i] if i == j else "0" for j in range(4)] for i in range(4)]
    if a_star_entry is not None:
        i, j, value = a_star_entry
        doc["A_star"][i][j] = value
    s = decode_system(doc)
    assert s.E[1].is_zero()
    calls = []
    closure = matrices._closure_rank
    monkeypatch.setattr(matrices, "_closure_rank",
                        lambda field, gens, n: calls.append(gens) or closure(field, gens, n))
    assert _full_algebra_check(s) == _closure_check(s)
    assert len(calls) == (a_star_entry is not None)
    assert _sandwich_check(s) == _dense_sandwich(s) == (False, "E_0 A* E_0 != 0")


def _dense_factors(E):
    """Row k and column k of each rank-one E_i at its first nonzero diagonal
    entry, as the left and right factor matrices; the read-off that
    verify_axioms made before the eigenvectors were kept."""
    fld = E[0].field
    ks = [next(k for k in range(e.nrows) if e.raw[k][k] != fld._zero_raw) for e in E]
    return (Matrix.from_raw(fld, [e.raw[k] for e, k in zip(E, ks)]),
            Matrix.from_raw(fld, zip(*[[row[k] for row in e.raw] for e, k in zip(E, ks)])))


@pytest.mark.parametrize("spec", CLI_FIELDS)
def test_build_system_decisions_match_the_dense_products(spec):
    # build_system decides the construction from the eigenvectors; the oracle
    # is the dense Lagrange E_i, their Gram product, both spectral-sum
    # resolutions and the products on A, K, S and S*
    fld = parse_field(spec)
    for family, d, kwargs in LEMMA_FAMILIES:
        s = build_system(generate_family(fld, family, d, **kwargs))
        n, theta = d + 1, s.array.theta
        E = lagrange_idempotents(s.A, theta)
        assert isinstance(s.E, RankOneFamily) and list(s.E) == E, (family, d)
        left, right = _dense_factors(E)
        gram = left * right
        assert all(gram[i, j].is_zero() == (i != j) for i in range(n) for j in range(n))
        eye = identity(fld, n)
        assert spectral_sum(E, [1] * n) == eye and spectral_sum(E, theta) == s.A
        assert s.A.transpose() * s.K == s.K * s.A
        signs = [(-1) ** i for i in range(n)]
        assert s.S == spectral_sum(E, signs) == Matrix(fld, eye.rows[::-1])
        assert s.S * s.S == eye == s.S_star * s.S_star
        assert s.S * s.S_star == s.S_star * s.S * (-1) ** d


SANDWICH = "sandwich pattern: E_i A* E_j"


def _dense_oracles(s):
    """S and the sandwich and full-algebra checks from the dense Lagrange E_i,
    as system and verify_axioms formed them before the eigenvector decisions:
    S by the signed spectral sum, the sandwich scalars left * (A* * right)
    and algebra_dimension of [diag(theta), scalars].  None when A is not
    annihilated; the two checks are None for a family with a zero E_i."""
    fld, n, theta = s.field, s.d + 1, s.array.theta
    try:
        E = lagrange_idempotents(s.A, theta)
    except NotAnnihilated:
        return None
    S = spectral_sum(E, [(-1) ** i for i in range(n)])
    if any(e.is_zero() for e in E):
        return S, None, None
    left, right = _dense_factors(E)
    scalars = left * (s.A_star * right)
    witness = next((f"E_{i} A* E_{j} = 0" if abs(i - j) == 1 else f"E_{i} A* E_{j} != 0"
                    for i in range(n) for j in range(n)
                    if scalars[i, j].is_zero() == (abs(i - j) == 1)), None)
    dim = algebra_dimension([diagonal(fld, theta), scalars], n)
    return (S, CheckResult(SANDWICH, witness is None, witness),
            CheckResult(FULL_ALGEBRA, dim == n * n,
                        None if dim == n * n else f"algebra dimension {dim} != {n * n}"))


def _tamper(doc, fld, kind, data):
    """doc with one tampering of the given kind, its values drawn."""
    n = len(doc["A"])
    index = st.integers(0, n - 1)
    value = lambda: fld.encode(fld(data.draw(st.integers(-3, 3).filter(bool))))
    if kind == "A off the band":
        i = data.draw(index)
        j = data.draw(index.filter(lambda j: abs(i - j) > 1))
        doc["A"][i][j] = value()
    elif kind == "A onto the Lagrange path":
        return _conjugated_doc(doc, fld, 0, 2, fld.one)
    elif kind == "A diagonally conjugated":
        # D A D^-1 stays tridiagonal with A's spectrum, and its eigenvectors
        # are the D u_i; J D u_i = (J D J) J u_i, so the J test holds exactly
        # when J D J = D, which D[0] = 1 != D[d] breaks
        D = [fld.one] + [fld(data.draw(st.integers(1, 4))) for _ in range(n - 2)]
        D.append(fld(data.draw(st.integers(2, 4))))
        A = [[fld.parse(v) for v in row] for row in doc["A"]]
        doc["A"] = [[fld.encode(D[i] * A[i][j] / D[j]) for j in range(n)] for i in range(n)]
    elif kind == "A* off the diagonal":
        i = data.draw(index)
        doc["A_star"][i][data.draw(index.filter(lambda j: j != i))] = value()
    elif kind == "A* on the diagonal":
        i = data.draw(index)
        doc["A_star"][i][i] = fld.encode(fld.parse(doc["A_star"][i][i]) + fld.parse(value()))
    elif kind == "A* scaled":
        # by 0 every coefficient x_j, y_j vanishes; by a unit none does
        c = fld(data.draw(st.sampled_from([0, -1, 2])))
        doc["A_star"] = [[fld.encode(fld.parse(v) * c) for v in row] for row in doc["A_star"]]
    elif kind == "zeroed b_i":
        i = data.draw(st.integers(0, n - 2))
        doc["A"][i][i + 1] = "0"
    return doc


TAMPERINGS = ["none", "A off the band", "A onto the Lagrange path", "A diagonally conjugated",
              "A* off the diagonal", "A* on the diagonal", "A* scaled", "zeroed b_i"]


@pytest.fixture(scope="module")
def tamper_docs():
    return {spec: [emit_system(build_system(generate_family(parse_field(spec), family, d,
                                                            **kwargs)))
                   for family, d, kwargs in ((Family.KRAWTCHOUK, 3, {"h_star": 2}),
                                             (Family.BANNAI_ITO, 4, {}),
                                             (Family.QRACAH_ODD, 3, {"q": 2}))]
            for spec in ORACLE_FIELDS}


@pytest.mark.parametrize("kind", TAMPERINGS)
@pytest.mark.parametrize("spec", ORACLE_FIELDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_eigenvector_decisions_match_the_dense_oracles(tamper_docs, spec, kind, data):
    # S from the J test or the factor sum, and the sandwich and full-algebra
    # checks from the three-term test or the factor scalars, are those of
    # the dense E_i on built systems and on each tampering
    fld = parse_field(spec)
    doc = _tamper(json.loads(json.dumps(data.draw(st.sampled_from(tamper_docs[spec])))),
                  fld, kind, data)
    s = decode_system(doc)
    oracle = _dense_oracles(s)
    if oracle is None:
        assert s.E is None and s.S is None
        return
    on_band = kind not in ("A off the band", "A onto the Lagrange path", "zeroed b_i")
    assert isinstance(s.E, RankOneFamily) == on_band
    S, sandwich, full = oracle
    assert s.S == S
    if kind in ("none", "A diagonally conjugated"):
        assert (s.S == Matrix(fld, identity(fld, s.d + 1).rows[::-1])) == (kind == "none")
    if sandwich is not None:
        checks = {c.name: c for c in verify_axioms(s)}
        assert (checks[SANDWICH], checks[FULL_ALGEBRA]) == (sandwich, full)


_CORRUPTED_BUILD = """
import sys
from tbtridiag import system
from tbtridiag.arrays import Family, generate_family
from tbtridiag.errors import InvariantViolation
from tbtridiag.fields import QQ
from tbtridiag.matrices import RankOneFamily

if __debug__:
    sys.exit("assertions are on")
real = system.primitive_idempotents


def swapped(x, eigenvalues):
    # E_0 and E_1 trade places: each keeps its eigenvectors and norm
    E = real(x, eigenvalues)
    swap = lambda seq: (seq[1], seq[0]) + seq[2:]
    return RankOneFamily(E.field, swap(E.u), swap(E.w), swap(E.norms))


system.primitive_idempotents = swapped
try:
    system.build_system(generate_family(QQ, Family.KRAWTCHOUK, 3))
except InvariantViolation as exc:
    print(exc)
else:
    sys.exit("the corrupted construction passed")
"""


def test_construction_invariants_hold_under_python_O():
    # python -O strips assert statements; the construction checks must stay.
    # The swapped family fails the J test, so S is the spectral sum
    # E_1 - E_0 + E_2 - E_3; S* E_i S* = E_{3-i} fixes it, so it commutes
    # with S* where the d = 3 relation needs S S* = -S* S
    src = os.path.dirname(os.path.dirname(os.path.abspath(tbtridiag.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_BUILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "S S* != (-1)^d S* S" in done.stdout


def test_nearest_neighbour_products_are_independent(k3):
    # the 2d elements E_{i-1} A* E_i, E_i A* E_{i-1} span a 2d-dimensional space
    mats = []
    for i in range(1, 4):
        mats.append(k3.E[i - 1] * k3.A_star * k3.E[i])
        mats.append(k3.E[i] * k3.A_star * k3.E[i - 1])
    vecs = [[e for row in m.rows for e in row] for m in mats]
    assert _rank(vecs) == 6


def test_sd_isomorphism_d1():
    s = build_system(validate_array(QQ, [1, -1], [1, -1]))
    psi = sd_isomorphism(s)
    # oracle: any intertwiner of ([[0,1],[1,0]], diag(1,-1)) is a multiple
    # of the 2x2 Hadamard-type matrix
    hadamard = Matrix(QQ, [[1, 1], [1, -1]])
    scale = psi[0, 0]
    assert not scale.is_zero()
    assert psi == hadamard * scale
    sq = psi * psi
    assert sq[0, 1].is_zero() and sq[1, 0].is_zero()
    assert sq[0, 0] == sq[1, 1] and not sq[0, 0].is_zero()


SELF_DUAL_FAMILIES = [(family, d, kwargs) for family, d, kwargs in LEMMA_FAMILIES
                      if is_self_dual(generate_family(QQ, family, d, **kwargs))]
SELF_DUAL_IDS = [f"{family.value}-{d}" for family, d, _ in SELF_DUAL_FAMILIES]


@pytest.mark.parametrize("family, d, kwargs", SELF_DUAL_FAMILIES, ids=SELF_DUAL_IDS)
@pytest.mark.parametrize("spec", FIELD_KINDS)
def test_sd_isomorphism_defining_properties(spec, family, d, kwargs):
    fld = parse_field(spec)
    s = build_system(generate_family(fld, family, d, **kwargs))
    psi = sd_isomorphism(s)
    assert psi * s.A == s.A_star * psi
    assert psi * s.A_star == s.A * psi
    sq = psi * psi
    lam = sq[0, 0]
    assert not lam.is_zero()
    assert sq == identity(fld, d + 1) * lam


def _unit_sums_psi(s):
    """The verdict of sd_isomorphism as it formed Psi from four products with
    E*_0, E*_d: Psi, or the text of the InvariantViolation it raised."""
    if s.E is None:
        return "idempotents of A unavailable"
    fld, d, n = s.field, s.d, s.d + 1
    theta = s.array.theta
    Es = _units(fld, n)
    tau, eta = poly_chain(s.A, theta), poly_chain(s.A, theta[::-1])
    tau_s, eta_s = poly_chain(s.A_star, theta), poly_chain(s.A_star, theta[::-1])
    products = Es[0] * s.E[d], s.E[0] * Es[d], s.E[d] * Es[0], Es[d] * s.E[0]
    sums = [zeros(fld, n) for _ in range(4)]
    for i in range(n):
        sums[0] = sums[0] + eta[d - i] * products[0] * tau_s[i]
        sums[1] = sums[1] + eta_s[d - i] * products[1] * tau[i]
        sums[2] = sums[2] + tau_s[i] * products[2] * eta[d - i]
        sums[3] = sums[3] + tau[i] * products[3] * eta_s[d - i]
    psi = sums[0]
    if sums[1:] != [psi] * 3:
        return "the four intertwiner sums disagree"
    if psi.is_zero():
        return "intertwiner vanishes"
    if psi * s.A != s.A_star * psi or psi * s.A_star != s.A * psi:
        return "Psi does not intertwine A and A*"
    return psi


def _sd_verdict(s):
    try:
        return sd_isomorphism(s)
    except InvariantViolation as err:
        return str(err)


@pytest.mark.parametrize("spec", FIELD_KINDS)
def test_sd_isomorphism_matches_the_unit_products(spec):
    fld = parse_field(spec)
    for family, d, kwargs in LEMMA_FAMILIES:
        s = build_system(generate_family(fld, family, d, **kwargs))
        if is_self_dual(s.array):
            psi = _unit_sums_psi(s)
            assert isinstance(psi, Matrix) and sd_isomorphism(s) == psi, (family, d)


def _sd_tamperings(doc, fld, d):
    """Decoded tamperings of a self-dual system document, each with the
    verdict the unit products give it."""
    n = d + 1

    def changed(key, i, j, by):
        out = json.loads(json.dumps(doc))
        out[key][i][j] = fld.encode(fld.parse(out[key][i][j]) + fld(by))
        return out
    cases = [(changed("A_star", 1, 1, 1), "the four intertwiner sums disagree"),
             (changed("A_star", 0, d, 1), "the four intertwiner sums disagree"),
             (changed("A", 1, 0, 2), "idempotents of A unavailable")]
    if d >= 2:
        cases.append((_conjugated_doc(doc, fld, 0, 2, fld.one),
                      "the four intertwiner sums disagree"))
    if d % 2 == 0:
        zero = json.loads(json.dumps(doc))
        zero["A"] = [["0"] * n for _ in range(n)]
        cases.append((zero, "intertwiner vanishes"))
    return [(decode_system(t), verdict) for t, verdict in cases]


@pytest.mark.parametrize("spec", FIELD_KINDS)
def test_sd_isomorphism_matches_the_unit_products_on_tampered_documents(spec):
    fld = parse_field(spec)
    for family, d, kwargs in SELF_DUAL_FAMILIES:
        doc = emit_system(build_system(generate_family(fld, family, d, **kwargs)))
        tamperings = _sd_tamperings(doc, fld, d)
        for s, verdict in tamperings:
            assert is_self_dual(s.array)
            assert _unit_sums_psi(s) == verdict, (family, d, verdict)
            assert _sd_verdict(s) == verdict, (family, d, verdict)
        # A off the band, or A = 0, takes the dense Lagrange E_i
        assert any(isinstance(s.E, tuple) for s, _ in tamperings) == (d >= 2)


def test_sd_isomorphism_forms_one_product_per_sum(monkeypatch):
    s = build_system(generate_family(parse_field("Fp:1000003"), Family.KRAWTCHOUK, 8))
    expected = _unit_sums_psi(s)
    calls = []
    real = Matrix.__mul__

    def counted(x, y):
        if isinstance(y, Matrix) and x.shape == y.shape == (9, 9):
            calls.append(1)
        return real(x, y)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert sd_isomorphism(s) == expected
    assert len(calls) <= 8


def test_sd_isomorphism_without_idempotents_raises(k3):
    doc = emit_system(k3)
    doc["A"][1][2] = "0"
    broken = decode_system(doc)
    assert broken.E is None and is_self_dual(broken.array)
    with pytest.raises(InvariantViolation, match="idempotents of A unavailable"):
        sd_isomorphism(broken)


def test_sd_isomorphism_requires_self_dual():
    s = build_system(generate_family(QQ, Family.KRAWTCHOUK, 3, h=1, h_star=2))
    with pytest.raises(NotSelfDual):
        sd_isomorphism(s)


def test_isomorphic(k3):
    assert isomorphic(k3, k3)
    rebuilt = build_system(k3.array)
    assert isomorphic(k3, rebuilt)
    other = build_system(generate_family(QQ, Family.KRAWTCHOUK, 3, h=2))
    assert not isomorphic(k3, other)


@pytest.mark.parametrize("spec", ["Q", "Fp:1000003"])
def test_verify_axioms_never_reaches_the_closure_for_a_diagonal_a_star(spec, monkeypatch):
    from tbtridiag import matrices

    def refuse(field, gens, n):
        raise AssertionError("product closure reached with a diagonal A*")

    monkeypatch.setattr(matrices, "_closure_rank", refuse)
    s = build_system(generate_family(parse_field(spec), Family.KRAWTCHOUK, 16))
    report = verify_axioms(s)
    assert report.passed, report.failures()


def test_verify_with_an_off_diagonal_a_star_takes_the_closure(capsys, tmp_path, monkeypatch):
    from tbtridiag import matrices
    from tbtridiag.cli import main

    doc = emit_system(build_system(generate_family(QQ, Family.KRAWTCHOUK, 5)))
    # A splits at {0, 1}; A*[1, 2] couples the blocks one way only, so
    # span(e_0, e_1) stays invariant and the algebra is block triangular
    doc["A"][1][2] = doc["A"][2][1] = "0"
    doc["A_star"][1][2] = "1"
    decoded = decode_system(doc)
    expected = matrices._closure_rank(QQ, [decoded.A, decoded.A_star], 6)
    assert expected == 4 + 16 + 8

    calls = []
    closure = matrices._closure_rank

    def spy(field, gens, n):
        calls.append(gens)
        return closure(field, gens, n)

    monkeypatch.setattr(matrices, "_closure_rank", spy)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == 1 and len(calls) == 1
    assert ("FAIL  A, A* generate the full matrix algebra  "
            f"[algebra dimension {expected} != 36]") in out.splitlines()


@pytest.mark.parametrize("spec, echelon", [("Fp:1000003", "_FieldEchelon"),
                                           ("Q", "_ExactIntEchelon")])
def test_a_doubly_tampered_document_takes_the_echelon_of_its_field(
        spec, echelon, capsys, tmp_path, monkeypatch):
    # the CLI path through the product closure that the large-d table runs
    # at d = 12: fraction-free over Q, over the field itself otherwise
    from tbtridiag import matrices
    from tbtridiag.cli import main

    doc = emit_system(build_system(generate_family(parse_field(spec), Family.KRAWTCHOUK, 4)))
    doc["A"][0][2] = "1"
    doc["A_star"][1][3] = "1"
    made = []
    for name in ("_FieldEchelon", "_ExactIntEchelon"):
        cls = getattr(matrices, name)
        monkeypatch.setattr(matrices, name,
                            lambda *args, cls=cls, name=name: made.append(name) or cls(*args))
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "-i", str(path)])
    assert code == 1 and capsys.readouterr().out.splitlines()[-1] == "14 checks, 9 failed"
    assert made == [echelon]


def _dense_aw_relations(s, seq):
    """verify_aw_relations as it formed every word left to right."""
    rb = ReportBuilder()
    A, B = s.A, s.A_star
    rb.matrices_equal("A^2 A* - beta A A* A + A* A^2 = rho A*",
                      A * A * B - seq.beta * (A * B * A) + B * A * A, B * seq.rho)
    rb.matrices_equal("A*^2 A - beta A* A A* + A A*^2 = rho* A",
                      B * B * A - seq.beta * (B * A * B) + A * B * B, A * seq.rho_star)
    if s.d == 1:
        eye = identity(s.field, 2)
        rb.matrices_equal("A A* = -A* A", A * B, -(B * A))
        rb.matrices_equal("A^2 = theta_0^2 I", A * A, eye * s.array.theta[0] ** 2)
        rb.matrices_equal("A*^2 = theta*_0^2 I", B * B, eye * s.array.theta_star[0] ** 2)
    if s.d == 2:
        rb.matrix_zero("A A* A = 0", A * B * A)
        rb.matrix_zero("A* A A* = 0", B * A * B)
    return rb.build()


def _counted_products(monkeypatch):
    calls = []
    real = Matrix.__mul__

    def counted(x, y):
        if isinstance(y, Matrix):
            calls.append(1)
        return real(x, y)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    return calls


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Q(i)"])
def test_aw_relations_form_each_product_once(spec, monkeypatch):
    # AB and BA once, then one product per cubic word: 12 -> 8 products, and
    # the d = 1 checks add only A^2 and A*^2; a wrong rho keeps its witness
    fld = parse_field(spec)
    cases = [(Family.SMALL_D1, 1, {"h": 2}), (Family.SMALL_D2, 2, {"h": 3}),
             (Family.KRAWTCHOUK, 3, {}), (Family.BANNAI_ITO, 4, {})]
    for family, d, kwargs in cases:
        s = build_system(generate_family(fld, family, d, **kwargs))
        seq = aw_sequence_nonzero(s.array)
        for seq in (seq, AskeyWilsonSeq(seq.beta, seq.rho + 1, seq.rho_star)):
            expected = _dense_aw_relations(s, seq).to_dict()
            calls = _counted_products(monkeypatch)
            assert verify_aw_relations(s, seq).to_dict() == expected, (family, d)
            assert len(calls) == (10 if d == 1 else 8), (family, d)
            monkeypatch.undo()


def test_involutions_check_reuses_S_A(k3, qr3, monkeypatch):
    # S A S = (S A) S: 15 -> 14 products, the same report
    for s in (k3, qr3):
        calls = _counted_products(monkeypatch)
        report = involutions_check(s)
        assert len(calls) == 14
        monkeypatch.undo()
        assert report.passed, report.failures()
        check = next(c for c in report if c.name.startswith("S A S ="))
        assert check.passed == (s.S * s.A * s.S == system._tridiagonal(
            s.field, s.inters.c, s.inters.b, s.d + 1))
