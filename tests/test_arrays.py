from fractions import Fraction

import pytest

from tbtridiag.arrays import (ANY_BETA, Family, aw_sequence,
                              aw_sequence_nonzero, check_array, classify,
                              fundamental_parameter, generate_family,
                              is_self_dual, q_equivalent, relatives,
                              self_dual_scaling, self_dualize, validate_array,
                              _solve_beta)
from tbtridiag.errors import (BannaiItoOddDiameter, BetaInvalid,
                              CharacteristicTwo, CharacteristicViolation,
                              InvalidArray, LengthMismatch, NoBeta,
                              QConditionViolation)
from tbtridiag.fields import QQ, PrimeField, QQi


def test_validate_krawtchouk_d3():
    arr = validate_array(QQ, [3, 1, -1, -3], [3, 1, -1, -3])
    assert arr.d == 3
    assert check_array(QQ, [3, 1, -1, -3], [3, 1, -1, -3]) == []


def test_validate_d2():
    arr = validate_array(QQ, [1, 0, -1], [2, 0, -2])
    assert arr.d == 2


def test_validate_rejects_broken_antisymmetry():
    violations = check_array(QQ, [1, 2, -1, -2], [1, 2, -1, -2])
    assert any(v.startswith("antisymmetry") for v in violations)
    with pytest.raises(InvalidArray):
        validate_array(QQ, [1, 2, -1, -2], [1, 2, -1, -2])


def test_validate_rejects_repeats():
    assert check_array(QQ, [1, 0, -1], [1, 0, -1]) == []
    violations = check_array(QQ, [1, -1, 1], [1, 0, -1])
    assert any(v.startswith("distinctness") for v in violations)


def test_validate_rejects_mismatched_beta():
    # both sequences antisymmetric and distinct, but with different recurrences
    violations = check_array(QQ, [2, 1, 0, -1, -2], [3, 1, 0, -1, -3])
    assert any(v.startswith("recurrence") for v in violations)


def test_validate_errors():
    with pytest.raises(LengthMismatch):
        check_array(QQ, [1, -1], [1, 0, -1])
    with pytest.raises(LengthMismatch):
        check_array(QQ, [1], [1])
    with pytest.raises(CharacteristicTwo):
        check_array(PrimeField(2), [1, 0], [1, 0])


def test_solve_beta_failure():
    theta = [QQ(v) for v in (5, 2, 1, -1, -2, -5)]
    with pytest.raises(NoBeta):
        _solve_beta(theta, theta)


def test_fundamental_parameter():
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3)
    assert fundamental_parameter(arr) == QQ(2)
    arr_q = generate_family(QQ, Family.QRACAH_ODD, 3, q=2)
    beta = fundamental_parameter(arr_q)
    assert beta == QQ(Fraction(17, 4))
    # oracle: the recurrence itself
    t = arr_q.theta
    assert t[0] - beta * t[1] + t[2] == QQ.zero
    assert fundamental_parameter(generate_family(QQ, Family.SMALL_D1, 1)) is ANY_BETA
    assert fundamental_parameter(generate_family(QQ, Family.SMALL_D2, 2)) is ANY_BETA


def test_aw_sequence_krawtchouk():
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3)
    seq = aw_sequence(arr, QQ(2))
    assert seq.rho == QQ(4) and seq.rho_star == QQ(4)


def test_aw_sequence_qracah_oracle():
    arr = generate_family(QQ, Family.QRACAH_ODD, 3, q=2)
    beta = QQ(Fraction(17, 4))
    seq = aw_sequence(arr, beta)
    # oracle: the quadratic identity at i = 1
    t0, t1 = arr.theta[0], arr.theta[1]
    assert t0 * t0 - beta * t0 * t1 + t1 * t1 == QQ(Fraction(25, 4))
    assert seq.rho == QQ(Fraction(25, 4)) and seq.rho_star == seq.rho


def test_aw_sequence_degenerate_and_invalid():
    arr1 = generate_family(QQ, Family.SMALL_D1, 1)
    assert aw_sequence(arr1, QQ(-2)).rho == QQ.zero
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3)
    with pytest.raises(BetaInvalid):
        aw_sequence(arr, QQ(3))


def test_aw_sequence_nonzero():
    arr1 = generate_family(QQ, Family.SMALL_D1, 1)
    seq = aw_sequence_nonzero(arr1)
    assert (seq.beta, seq.rho, seq.rho_star) == (QQ(2), QQ(4), QQ(4))
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3)
    assert aw_sequence_nonzero(arr) == aw_sequence(arr, QQ(2))
    arr_b = generate_family(QQ, Family.BANNAI_ITO, 4)
    seq = aw_sequence_nonzero(arr_b)
    assert (seq.beta, seq.rho, seq.rho_star) == (QQ(-2), QQ(4), QQ(4))


def test_generate_family_frozen_values():
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3)
    assert list(arr.theta) == list(map(QQ, [3, 1, -1, -3]))
    arr_b = generate_family(QQ, Family.BANNAI_ITO, 4)
    assert list(arr_b.theta) == list(map(QQ, [4, -2, 0, 2, -4]))
    # oracle: the beta = -2 recurrence
    t = arr_b.theta
    assert all((t[i - 1] + 2 * t[i] + t[i + 1]).is_zero() for i in range(1, 4))
    arr_q = generate_family(QQ, Family.QRACAH_ODD, 3, q=2)
    assert [str(t) for t in arr_q.theta] == ["21/4", "1", "-1", "-21/4"]


def test_generate_family_scaling_parameters():
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3, h=2, h_star=-3)
    assert list(arr.theta) == list(map(QQ, [6, 2, -2, -6]))
    assert list(arr.theta_star) == list(map(QQ, [-9, -3, 3, 9]))


def test_generate_family_errors():
    with pytest.raises(BannaiItoOddDiameter):
        generate_family(QQ, Family.BANNAI_ITO, 3)
    with pytest.raises(CharacteristicViolation):
        generate_family(PrimeField(3), Family.KRAWTCHOUK, 3)
    with pytest.raises(QConditionViolation):
        generate_family(QQ, Family.QRACAH_EVEN, 4, q=1)
    with pytest.raises(QConditionViolation):
        generate_family(QQ, Family.QRACAH_EVEN, 4)  # missing q
    with pytest.raises(QConditionViolation):
        generate_family(QQ, Family.QRACAH_EVEN, 3, q=2)  # parity mismatch
    Qi = QQi()
    with pytest.raises(QConditionViolation):
        generate_family(Qi, Family.QRACAH_EVEN, 2, q=Qi.gen())  # q^2 = -1


def test_generate_family_small_d():
    arr = generate_family(QQ, Family.SMALL_D1, 1, h=5)
    assert list(arr.theta) == list(map(QQ, [5, -5]))
    arr = generate_family(QQ, Family.SMALL_D2, 2, h=3)
    assert list(arr.theta) == list(map(QQ, [3, 0, -3]))


def test_classify_krawtchouk():
    tag = classify(generate_family(QQ, Family.KRAWTCHOUK, 3))
    assert tag.family is Family.KRAWTCHOUK
    assert tag.h == QQ.one and tag.h_star == QQ.one


def test_classify_scaled_bannai_ito():
    arr = generate_family(QQ, Family.BANNAI_ITO, 4, h=1, h_star=2)
    tag = classify(arr)
    assert tag.family is Family.BANNAI_ITO
    assert tag.h == QQ.one and tag.h_star == QQ(2)
    regen = generate_family(QQ, tag.family, 4, h=tag.h, h_star=tag.h_star)
    assert regen.theta == arr.theta and regen.theta_star == arr.theta_star


def test_classify_qracah_up_to_q_choice():
    arr = generate_family(QQ, Family.QRACAH_ODD, 3, q=2)
    tag = classify(arr)
    assert tag.family is Family.QRACAH_ODD
    assert q_equivalent(QQ(2), tag.q)
    assert tag.h == QQ.one and tag.h_star == QQ.one
    # oracle: the four solutions of q^2 + q^-2 = 17/4
    assert tag.q in (QQ(2), QQ(-2), QQ(Fraction(1, 2)), QQ(Fraction(-1, 2)))


def test_classify_small_diameters():
    tag = classify(validate_array(QQ, [5, -5], [1, -1]))
    assert tag.family is Family.SMALL_D1 and tag.h == QQ(5) and tag.h_star == QQ.one
    tag = classify(validate_array(QQ, [1, 0, -1], [2, 0, -2]))
    assert tag.family is Family.SMALL_D2


def test_classify_qracah_without_q_in_field():
    # beta = 3 needs q with q^2 + q^-2 = 3, which lives outside Q
    arr = validate_array(QQ, [3, 1, 0, -1, -3], [3, 1, 0, -1, -3])
    assert fundamental_parameter(arr) == QQ(3)
    tag = classify(arr)
    assert tag.family is Family.QRACAH_EVEN
    assert tag.q is None and tag.beta == QQ(3)
    assert tag.h == arr.theta[0]


def test_relatives():
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3, h=1, h_star=2)
    rel = relatives(arr)
    assert rel["star"].theta == arr.theta_star
    assert rel["star"].theta_star == arr.theta
    assert rel["down"].theta == arr.theta
    assert rel["Down"].theta_star == arr.theta_star
    # reversal is entrywise negation on antisymmetric sequences
    assert rel["down"].theta_star == tuple(-t for t in arr.theta_star)
    # every relative is an involution
    assert relatives(rel["star"])["star"].theta == arr.theta
    assert relatives(rel["down"])["down"].theta_star == arr.theta_star
    assert relatives(rel["Down"])["Down"].theta == arr.theta


def test_self_duality():
    arr = generate_family(QQ, Family.KRAWTCHOUK, 3)
    assert is_self_dual(arr) and self_dual_scaling(arr) == QQ.one
    arr2 = generate_family(QQ, Family.KRAWTCHOUK, 3, h=1, h_star=2)
    assert not is_self_dual(arr2)
    assert self_dual_scaling(arr2) == QQ(2)
    assert is_self_dual(self_dualize(arr2))
    arr3 = validate_array(QQ, [5, -5], [1, -1])
    assert self_dual_scaling(arr3) == QQ(Fraction(1, 5))
    scaled = self_dualize(arr3)
    assert list(scaled.theta) == list(map(QQ, [1, -1]))


def test_theta_ratio_invariant():
    # theta_1/theta_0 = theta_{d-1}/theta_d on every generated array
    for fam, d, q in ((Family.KRAWTCHOUK, 5, None), (Family.BANNAI_ITO, 6, None),
                      (Family.QRACAH_ODD, 5, 2), (Family.QRACAH_EVEN, 6, 3)):
        arr = generate_family(QQ, fam, d, h=2, h_star=-3, q=q)
        t, ts = arr.theta, arr.theta_star
        ratio = t[1] / t[0]
        assert t[d - 1] / t[d] == ratio
        assert ts[1] / ts[0] == ratio and ts[d - 1] / ts[d] == ratio


def test_antisymmetric_mutdist_inequalities():
    # sigma_0, sigma_d nonzero; sigma_1 sigma_i avoids sigma_0 sigma_{i+-1};
    # and sigma_1 sigma_d = sigma_0 sigma_{d-1}
    for fam, d, q in ((Family.KRAWTCHOUK, 6, None), (Family.BANNAI_ITO, 6, None),
                      (Family.QRACAH_EVEN, 6, 2), (Family.QRACAH_ODD, 7, 2)):
        t = generate_family(QQ, fam, d, q=q).theta
        assert not t[0].is_zero() and not t[d].is_zero()
        for i in range(1, d):
            assert t[1] * t[i] != t[0] * t[i - 1]
            assert t[1] * t[i] != t[0] * t[i + 1]
        assert t[1] * t[d] == t[0] * t[d - 1]


def _inline_sigma(fld, family, d, q=None):
    """The basis sequence generate_family wrote out per family before it
    took it from basis_asym."""
    if family is Family.KRAWTCHOUK:
        return [d - 2 * i for i in range(d + 1)]
    if family is Family.BANNAI_ITO:
        return [(d - 2 * i) * (-1) ** i for i in range(d + 1)]
    q = fld(q)
    denom = (q - q.inverse()) if d % 2 else (q * q - (q * q).inverse())
    return [(q ** (d - 2 * i) - q ** (2 * i - d)) * denom.inverse() for i in range(d + 1)]


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Q(i)", "Fp2:103"])
def test_generate_family_matches_the_inline_sequences(spec):
    from tbtridiag.errors import TBTridiagError
    from tbtridiag.fields import parse_field
    fld = parse_field(spec)
    h, h_star = fld(3), fld(-2)
    # over Fp:101 and Q(i) the third q is a square root of -1, which only
    # d = 1 admits, with beta = q^2 + q^-2 = -2
    third = {"Q": Fraction(-1, 2), "Fp:101": 10}
    qs = [fld(2), fld(5), fld(third[spec]) if spec in third else fld.gen()]
    jobs = [(Family.KRAWTCHOUK, d, None) for d in range(1, 9)]
    jobs += [(Family.BANNAI_ITO, d, None) for d in range(2, 9, 2)]
    jobs += [(Family.QRACAH_ODD if d % 2 else Family.QRACAH_EVEN, d, q)
             for d in range(1, 9) for q in qs]
    generated = set()
    for family, d, q in jobs:
        try:
            arr = generate_family(fld, family, d, h=h, h_star=h_star, q=q)
        except TBTridiagError:
            continue  # q^(2i) = +-1 for some i: the q conditions refuse it
        sigma = _inline_sigma(fld, family, d, q)
        assert list(arr.theta) == [h * s for s in sigma]
        assert list(arr.theta_star) == [h_star * s for s in sigma]
        generated.add((family, d))
    assert len(generated) == len(set((family, d) for family, d, _ in jobs))


def test_krawtchouk_d1_in_characteristic_two_is_refused_as_before():
    # the array check's words, not basis_asym's
    with pytest.raises(CharacteristicTwo) as err:
        generate_family(PrimeField(2), Family.KRAWTCHOUK, 1)
    assert str(err.value) == "no eigenvalue arrays exist in characteristic 2"
