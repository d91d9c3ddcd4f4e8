"""Acceptance suite: every criterion is exact (structural equality, no
tolerances).  Each test prints one PASS line; run with -s to see them."""

from fractions import Fraction

import pytest

from tbtridiag.arrays import (AskeyWilsonSeq, Family, aw_sequence,
                              aw_sequence_nonzero, check_array, classify,
                              fundamental_parameter, generate_family,
                              q_equivalent, validate_array)
from tbtridiag.errors import InvalidArray
from tbtridiag.fields import QQ, PrimeField, QQi
from tbtridiag.matrices import diagonal, identity, spectral_sum
from tbtridiag.serialize import decode_system, emit_system
from tbtridiag.system import (build_system, dagger_report, intersection_numbers,
                              involutions_check, sd_isomorphism,
                              verify_aw_relations, verify_axioms)
from tbtridiag.triple import (WData, antiautomorphism_report, braid_check,
                              build_C, build_W, sigma_and_psl2z,
                              triple_scalars)

H_VALUES = (1, 2, -3)
Q_VALUES = (2, 3, Fraction(1, 2))


def _family_grid(max_d):
    """(family, d, needs_q) points permitted for each family up to max_d."""
    for d in range(1, max_d + 1):
        yield Family.KRAWTCHOUK, d, False
    for d in range(2, max_d + 1, 2):
        yield Family.BANNAI_ITO, d, False
    for d in range(2, max_d + 1, 2):
        yield Family.QRACAH_EVEN, d, True
    for d in range(1, max_d + 1, 2):
        yield Family.QRACAH_ODD, d, True


def _passline(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


# -- criterion 1 ------------------------------------------------------------

def _roundtrip_classification(fld, q_values):
    cases = 0
    for family, d, needs_q in _family_grid(12):
        qs = q_values if needs_q else (None,)
        for q in qs:
            for h in H_VALUES:
                for h_star in H_VALUES:
                    arr = generate_family(fld, family, d, h=fld(h),
                                          h_star=fld(h_star),
                                          q=fld(q) if q is not None else None)
                    assert check_array(fld, arr.theta, arr.theta_star) == []
                    tag = classify(arr)
                    if d >= 3:
                        assert tag.family is family
                        assert tag.h == fld(h) and tag.h_star == fld(h_star)
                        if needs_q:
                            assert tag.q is not None
                            assert q_equivalent(fld(q), tag.q)
                    regen = generate_family(fld, tag.family, d, h=tag.h,
                                            h_star=tag.h_star, q=tag.q)
                    assert regen.theta == arr.theta
                    assert regen.theta_star == arr.theta_star
                    cases += 1
    return cases


def test_criterion_01_classification_roundtrip():
    cases = _roundtrip_classification(QQ, Q_VALUES)
    assert cases == (12 + 6) * 9 + (6 + 6) * 9 * 3
    _passline(1, "classification round-trip")


# -- criterion 2 ------------------------------------------------------------

def test_criterion_02_golden_tables():
    for h in H_VALUES:
        inters = intersection_numbers(validate_array(QQ, [h, -h], [h, -h]))
        assert inters.c == (QQ(h),) and inters.b == (QQ(h),)
        inters = intersection_numbers(validate_array(QQ, [h, 0, -h], [h, 0, -h]))
        assert inters.c == (QQ(h) / 2, QQ(h)) and inters.b == (QQ(h), QQ(h) / 2)
    k3 = generate_family(QQ, Family.KRAWTCHOUK, 3)
    inters = intersection_numbers(k3)
    assert list(inters.c) == list(map(QQ, [1, 2, 3]))
    assert list(inters.b) == list(map(QQ, [3, 2, 1]))
    seq = aw_sequence(k3, QQ(2))
    assert seq.rho == QQ(4) and seq.rho_star == QQ(4)
    qr3 = generate_family(QQ, Family.QRACAH_ODD, 3, q=2)
    inters = intersection_numbers(qr3)
    assert inters.c[0] == QQ.one
    assert inters.b[1] == QQ(Fraction(17, 4))
    assert inters.c[2] == QQ(Fraction(21, 4)) == inters.b[0]
    beta = fundamental_parameter(qr3)
    seq = aw_sequence(qr3, beta)
    assert seq.rho == QQ(Fraction(25, 4))
    # oracle: the quadratic identity at every i
    t = qr3.theta
    for i in range(1, 4):
        assert t[i - 1] ** 2 - beta * t[i - 1] * t[i] + t[i] ** 2 == seq.rho
    _passline(2, "golden intersection-number tables")


# -- criteria 3-6 share one generated grid ----------------------------------

def _suite_systems(fld, q):
    grid = ([(Family.KRAWTCHOUK, d, None) for d in range(1, 13)]
            + [(Family.BANNAI_ITO, d, None) for d in range(2, 13, 2)]
            + [(Family.QRACAH_EVEN, d, q) for d in (2, 4, 6, 8)]
            + [(Family.QRACAH_ODD, d, q) for d in (1, 3, 5, 7)])
    for family, d, qq in grid:
        yield build_system(generate_family(
            fld, family, d, q=fld(qq) if qq is not None else None))


_CACHE = {}


def _systems(fld, q):
    key = fld.descriptor()
    if key not in _CACHE:
        _CACHE[key] = list(_suite_systems(fld, q))
    return _CACHE[key]


def _run_axiom_suite(fld, q):
    for system in _systems(fld, q):
        report = verify_axioms(system)
        assert report.passed, (system.array.family, report.failures())
        names = [c.name for c in report]
        assert any("generate the full matrix algebra" in n for n in names)
        assert any("power pattern" in n for n in names)


def test_criterion_03_axiom_suite():
    _run_axiom_suite(QQ, 2)
    _passline(3, "axiom suite over Q")


def _run_aw_suite(fld, q):
    for system in _systems(fld, q):
        seq = aw_sequence_nonzero(system.array)
        report = verify_aw_relations(system, seq)
        assert report.passed, (system.array.family, report.failures())
        if system.d == 1:
            assert system.A * system.A_star == -(system.A_star * system.A)
            assert system.A * system.A == \
                identity(fld, 2) * system.array.theta[0] ** 2
        if system.d == 2:
            assert (system.A * system.A_star * system.A).is_zero()
            assert (system.A_star * system.A * system.A_star).is_zero()


def test_criterion_04_askey_wilson_suite():
    _run_aw_suite(QQ, 2)
    _passline(4, "Askey-Wilson relation suite over Q")


def _run_involution_suite(fld, q):
    for system in _systems(fld, q):
        report = involutions_check(system)
        assert report.passed, (system.array.family, report.failures())


def test_criterion_05_involution_suite():
    _run_involution_suite(QQ, 2)
    _passline(5, "involution suite over Q")


def _run_dagger_suite(fld, q):
    for system in _systems(fld, q):
        report = dagger_report(system)
        assert report.passed, (system.array.family, report.failures())


def test_criterion_06_dagger_suite():
    _run_dagger_suite(QQ, 2)
    _passline(6, "antiautomorphism suite over Q")


# -- criterion 7 ------------------------------------------------------------

def test_criterion_07_self_dual_isomorphism():
    grid = ([(Family.KRAWTCHOUK, d, None) for d in range(1, 9)]
            + [(Family.BANNAI_ITO, d, None) for d in (2, 4, 6, 8)]
            + [(Family.QRACAH_EVEN, d, 2) for d in (2, 4, 6, 8)]
            + [(Family.QRACAH_ODD, d, 2) for d in (1, 3, 5, 7)])
    for family, d, q in grid:
        system = build_system(generate_family(QQ, family, d, q=q))
        psi = sd_isomorphism(system)  # asserts the four sums agree, nonzero
        assert psi * system.A == system.A_star * psi
        assert psi * system.A_star == system.A * psi
    _passline(7, "self-dual intertwiner (four equal sums)")


# -- criterion 8 ------------------------------------------------------------

def _triple_cases(fld, q, i_unit):
    # commutator case (beta = 2)
    for d in range(1, 9):
        yield Family.KRAWTCHOUK, d, None, None
    # q-deformed case (beta != +-2); d <= 2 needs the beta hint
    beta_q = fld(q) ** 2 + fld(q) ** -2
    for d in range(1, 9):
        family = Family.QRACAH_ODD if d % 2 else Family.QRACAH_EVEN
        yield family, d, fld(q), (beta_q if d <= 2 else None)


def _check_triple(system, sc, tri, w):
    fld = system.field
    d = system.d
    A, B, C = tri.A, tri.B, tri.C
    z = sc.z
    if sc.case == "beta=2":
        assert B * C - C * B == A * z
        assert C * A - A * C == B * z
        assert A * B - B * A == C * z
        kappa = fld(-1) ** d * (2 * sc.h) ** (-d) * z ** d
    elif sc.case == "beta=-2":
        assert B * C + C * B == A * z
        assert C * A + A * C == B * z
        assert A * B + B * A == C * z
        kappa = fld.one
    else:
        q = sc.q
        denom = q * q - (q * q).inverse()
        assert q * (B * C) - q.inverse() * (C * B) == A * (z * denom)
        assert q * (C * A) - q.inverse() * (A * C) == B * (z * denom)
        assert q * (A * B) - q.inverse() * (B * A) == C * (z * denom)
        kappa = fld(-1) ** d * sc.h ** (-d) * z ** d * q ** (d * (d - 1))
    assert B * w.W == w.W * C and C * w.W_prime == w.W_prime * A
    assert w.P == w.W_prime * w.W == w.W_dprime * w.W_prime == w.W * w.W_dprime
    assert w.P * w.P * w.P == identity(fld, d + 1) * kappa
    assert w.kappa == kappa
    assert braid_check(w).passed
    sig = sigma_and_psl2z(system, tri, w)
    assert sig.passed, sig.failures()
    by_name = {c.name: c for c in sig}
    assert by_name["rho^3 = id on all matrix units"].passed
    assert by_name["sigma^2 = id on all matrix units"].passed
    anti = antiautomorphism_report(system, tri, w)
    assert anti.passed, anti.failures()


def _run_triple_suite(fld_i, fld_real, q, i_unit):
    for family, d, qq, beta in _triple_cases(fld_i, q, i_unit):
        system = build_system(generate_family(fld_i, family, d, q=qq))
        sc = triple_scalars(system.array, beta=beta)
        tri = build_C(system, sc)
        w = build_W(tri)
        _check_triple(system, sc, tri, w)
    # anticommutator case (beta = -2) needs no square-root extension
    for d in (2, 4, 6, 8):
        system = build_system(generate_family(fld_real, Family.BANNAI_ITO, d))
        sc = triple_scalars(system.array, beta=fld_real(-2))
        tri = build_C(system, sc)
        w = build_W(tri)
        _check_triple(system, sc, tri, w)


def test_criterion_08_triple_suite():
    _run_triple_suite(QQi(), QQ, 2, None)
    _passline(8, "Leonard-triple suite over Q(i) and Q")


# -- criterion 9 ------------------------------------------------------------

def test_criterion_09_finite_field_replication():
    F101 = PrimeField(101)
    # suite 1: classification round-trip with q = 5
    cases = _roundtrip_classification(F101, (5,))
    assert cases == (12 + 6) * 9 + (6 + 6) * 9
    # suite 2: golden tables
    for h in (1, 2, -3):
        inters = intersection_numbers(
            validate_array(F101, [h, -h], [h, -h]))
        assert inters.c == (F101(h),) and inters.b == (F101(h),)
        inters = intersection_numbers(
            validate_array(F101, [h, 0, -h], [h, 0, -h]))
        assert inters.c == (F101(h) / 2, F101(h))
    k3 = generate_family(F101, Family.KRAWTCHOUK, 3)
    inters = intersection_numbers(k3)
    assert [v.value for v in inters.c] == [1, 2, 3]
    assert aw_sequence(k3, F101(2)).rho == F101(4)
    qr = generate_family(F101, Family.QRACAH_ODD, 3, q=5)
    beta = fundamental_parameter(qr)
    seq = aw_sequence(qr, beta)
    t = qr.theta
    for i in range(1, 4):
        assert t[i - 1] ** 2 - beta * t[i - 1] * t[i] + t[i] ** 2 == seq.rho
    # suites 3-6
    _run_axiom_suite(F101, 5)
    _run_aw_suite(F101, 5)
    _run_involution_suite(F101, 5)
    _run_dagger_suite(F101, 5)
    # suite 8 with q = 5 and i = 10 (10^2 = -1 mod 101)
    i_unit = F101(10)
    assert i_unit * i_unit == F101(-1)
    _run_triple_suite(F101, F101, 5, i_unit)
    _passline(9, "replication over F_101")


# -- criterion 10 -----------------------------------------------------------

def test_criterion_10_negative_witnesses():
    # broken antisymmetry
    violations = check_array(QQ, [1, 2, -1, -2], [1, 2, -1, -2])
    assert any(v.startswith("antisymmetry: theta[0]") for v in violations)
    with pytest.raises(InvalidArray):
        validate_array(QQ, [1, 2, -1, -2], [1, 2, -1, -2])

    # zeroed b_1 in a system document
    system = build_system(generate_family(QQ, Family.KRAWTCHOUK, 3))
    doc = emit_system(system)
    doc["A"][1][2] = "0"
    report = verify_axioms(decode_system(doc))
    assert not report.passed
    irred = next(c for c in report if c.name.startswith("irreducible"))
    assert not irred.passed and irred.witness

    # perturbed rho
    seq = aw_sequence(system.array, QQ(2))
    bad = AskeyWilsonSeq(seq.beta, seq.rho + 1, seq.rho_star)
    report = verify_aw_relations(system, bad)
    fail = report.failures()[0]
    assert fail.name.startswith("A^2 A*") and fail.witness

    # perturbed t_1
    Qi = QQi()
    sys_i = build_system(generate_family(Qi, Family.SMALL_D1, 1))
    sc = triple_scalars(sys_i.array)
    tri = build_C(sys_i, sc)
    w = build_W(tri)
    bad_t = (w.t[0], w.t[1] + 1)
    bad_w = WData(spectral_sum(tri.E, bad_t),
                  diagonal(Qi, bad_t),
                  spectral_sum(tri.E_dprime, bad_t),
                  diagonal(Qi, bad_t) * spectral_sum(tri.E, bad_t),
                  bad_t, w.kappa)
    report = braid_check(bad_w)
    fail = report.failures()[0]
    assert fail.name.startswith("W") and fail.witness
    _passline(10, "negative tests carry named checks and witnesses")
