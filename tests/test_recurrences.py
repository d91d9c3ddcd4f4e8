import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbtridiag
from tbtridiag.errors import CharacteristicTwo, NoQInField, NotRecurrent
from tbtridiag.fields import QQ, PrimeField
from tbtridiag.recurrences import (basis_asym, basis_sym, make_recurrent,
                                   recurrence_constant, solve_q,
                                   sym_asym_split)

small_fracs = st.fractions(min_value=-12, max_value=12, max_denominator=6)


def _unroll(s0, s1, beta, d):
    """Generate a beta-recurrent sequence from its first two terms."""
    vals = [s0, s1]
    for _ in range(d - 1):
        vals.append(beta * vals[-1] - vals[-2])
    return vals


def test_basis_tables_beta_two():
    assert list(basis_asym(QQ, 2, 3)) == list(map(QQ, [3, 1, -1, -3]))
    assert list(basis_sym(QQ, 2, 4)) == list(map(QQ, [1, 1, 1, 1, 1]))


def test_basis_tables_beta_minus_two():
    assert list(basis_sym(QQ, -2, 4)) == list(map(QQ, [1, -1, 1, -1, 1]))
    assert list(basis_asym(QQ, -2, 4)) == list(map(QQ, [4, -2, 0, 2, -4]))
    assert list(basis_sym(QQ, -2, 3)) == list(map(QQ, [3, -1, -1, 3]))
    assert list(basis_asym(QQ, -2, 3)) == list(map(QQ, [1, -1, 1, -1]))


def test_basis_tables_generic_beta():
    beta = QQ(Fraction(17, 4))  # q = 2
    assert list(basis_asym(QQ, beta, 2, q=QQ(2))) == list(map(QQ, [1, 0, -1]))
    assert [str(v) for v in basis_asym(QQ, beta, 3, q=QQ(2))] == \
        ["21/4", "1", "-1", "-21/4"]
    sym = basis_sym(QQ, beta, 2, q=QQ(2))
    assert [str(v) for v in sym] == ["17/4", "2", "17/4"]
    # the q parameter is recovered when omitted
    assert basis_asym(QQ, beta, 3) == basis_asym(QQ, beta, 3, q=QQ(2))


def test_bases_are_recurrent_with_correct_symmetry():
    for beta, q in ((QQ(2), None), (QQ(-2), None), (QQ(Fraction(17, 4)), QQ(2))):
        for d in (2, 3, 4, 5, 6):
            s = make_recurrent(basis_sym(QQ, beta, d, q=q), beta)
            assert s.symmetric and not s.antisymmetric
            a = make_recurrent(basis_asym(QQ, beta, d, q=q), beta)
            assert a.antisymmetric


def test_make_recurrent_flags_and_errors():
    seq = make_recurrent([3, 1, -1, -3], QQ(2))
    assert seq.antisymmetric and seq.mutdist and not seq.symmetric
    with pytest.raises(NotRecurrent):
        make_recurrent([1, 2, 5], QQ(2))


def test_split_of_antisymmetric_sequence_is_trivial():
    sym, asym = sym_asym_split([3, 1, -1, -3], QQ(2))
    assert all(v.is_zero() for v in sym)
    assert list(asym) == list(map(QQ, [3, 1, -1, -3]))


@settings(max_examples=60, deadline=None)
@given(small_fracs, small_fracs, st.sampled_from([2, -2, 3, Fraction(17, 4)]),
       st.integers(min_value=2, max_value=7))
def test_recurrence_constant_and_split(s0, s1, beta, d):
    beta = QQ(beta)
    vals = _unroll(QQ(s0), QQ(s1), beta, d)
    seq = make_recurrent(vals, beta)
    c = recurrence_constant(seq)
    for i in range(1, d + 1):
        assert vals[i - 1] ** 2 - beta * vals[i - 1] * vals[i] + vals[i] ** 2 == c
    sym, asym = sym_asym_split(vals, beta)
    assert all(s + a == v for s, a, v in zip(sym, asym, vals))
    assert make_recurrent(sym, beta).symmetric
    assert make_recurrent(asym, beta).antisymmetric


@settings(max_examples=40, deadline=None)
@given(small_fracs, small_fracs, st.sampled_from([2, -2, Fraction(17, 4)]),
       st.integers(min_value=2, max_value=6))
def test_recurrent_space_is_two_dimensional(s0, s1, beta, d):
    # every recurrent sequence is an exact combination of the two bases
    beta = QQ(beta)
    vals = _unroll(QQ(s0), QQ(s1), beta, d)
    bs = basis_sym(QQ, beta, d)
    ba = basis_asym(QQ, beta, d)
    det = bs[0] * ba[1] - bs[1] * ba[0]
    assert not det.is_zero()
    a = (vals[0] * ba[1] - vals[1] * ba[0]) / det
    b = (bs[0] * vals[1] - bs[1] * vals[0]) / det
    assert all(a * bs[i] + b * ba[i] == vals[i] for i in range(d + 1))


def test_solve_q():
    q = solve_q(QQ(Fraction(17, 4)))
    assert q == QQ(2)  # canonical choice among {2, -2, 1/2, -1/2}
    assert solve_q(QQ(3)) is None  # needs sqrt(5)
    F101 = PrimeField(101)
    beta = F101(5) ** 2 + F101(5) ** -2
    q = solve_q(beta)
    assert q is not None and q * q + (q * q).inverse() == beta


def test_no_q_in_field():
    with pytest.raises(NoQInField):
        basis_asym(QQ, QQ(3), 4)
    with pytest.raises(NoQInField):
        basis_asym(QQ, QQ(Fraction(17, 4)), 4, q=QQ(3))


def test_characteristic_two_rejected():
    F2 = PrimeField(2)
    with pytest.raises(CharacteristicTwo):
        sym_asym_split([F2(1), F2(0)], F2(1))
    with pytest.raises(CharacteristicTwo):
        basis_sym(F2, F2(0), 2)


_NOT_RECURRENT = """
import sys
from tbtridiag.errors import InvariantViolation
from tbtridiag.fields import QQ
from tbtridiag.recurrences import RecurrentSeq, recurrence_constant

if __debug__:
    sys.exit("assertions are on")
# 1, 2, 4 is not 2-recurrent: 1 - 2*2 + 4 != 0
seq = RecurrentSeq(QQ(2), (QQ(1), QQ(2), QQ(4)), False, False, True)
try:
    recurrence_constant(seq)
except InvariantViolation as exc:
    print(exc)
else:
    sys.exit("a non-recurrent sequence got a recurrence constant")
"""


def test_recurrence_constant_checks_hold_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tbtridiag.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", _NOT_RECURRENT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "depends on i" in done.stdout
