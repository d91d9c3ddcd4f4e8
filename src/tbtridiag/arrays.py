"""Eigenvalue arrays: validation, fundamental parameter, families, classification.

An eigenvalue array over F is a pair of sequences theta_0..theta_d and
theta*_0..theta*_d such that (i) each sequence has pairwise distinct entries,
(ii) some beta satisfies the three-term recurrence for both sequences, and
(iii) both sequences are antisymmetric (theta_i + theta_{d-i} = 0).  These are
exactly the spectra of totally bipartite tridiagonal systems, and for d >= 3
they fall into four closed-form families.
"""

import enum
from dataclasses import dataclass, field as dc_field

from .errors import (BannaiItoOddDiameter, BetaInvalid, CharacteristicTwo,
                     CharacteristicViolation, InvalidArray, LengthMismatch,
                     NoBeta, QConditionViolation, Unclassifiable, require)
from .recurrences import basis_asym, is_recurrent, solve_q


class AnyBeta:
    """Marker: every scalar is a fundamental parameter (diameter <= 2)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AnyBeta"


ANY_BETA = AnyBeta()


class Family(enum.Enum):
    KRAWTCHOUK = "krawtchouk"
    BANNAI_ITO = "bannai-ito"
    QRACAH_EVEN = "qracah-even"
    QRACAH_ODD = "qracah-odd"
    SMALL_D1 = "small-d1"
    SMALL_D2 = "small-d2"


@dataclass(frozen=True)
class FamilyTag:
    """A family name with its scaling parameters.

    ``q`` is present for the q-Racah families when it lies in the field;
    otherwise ``beta`` records the fundamental parameter instead.
    """

    family: Family
    h: object
    h_star: object
    q: object = None
    beta: object = None


@dataclass(frozen=True)
class EigenvalueArray:
    """A validated eigenvalue array.  Construct via validate_array."""

    field: object
    d: int
    theta: tuple
    theta_star: tuple
    family: FamilyTag | None = dc_field(default=None, compare=False)

    def with_family(self, tag):
        return EigenvalueArray(self.field, self.d, self.theta, self.theta_star, tag)


def _solve_beta(theta, theta_star):
    """The unique scalar satisfying both recurrences, for d >= 3."""
    beta = next(((seq[i - 1] + seq[i + 1]) / seq[i] for seq in (theta, theta_star)
                 for i in range(1, len(seq) - 1) if not seq[i].is_zero()), None)
    if beta is None:
        raise NoBeta("all interior terms vanish")
    if not (is_recurrent(theta, beta) and is_recurrent(theta_star, beta)):
        raise NoBeta("no scalar satisfies both recurrences")
    return beta


def _check_not_char_two(fld):
    if fld.characteristic == 2:
        raise CharacteristicTwo("no eigenvalue arrays exist in characteristic 2")


def check_array(fld, theta, theta_star):
    """List the conditions violated by a candidate array (empty list = valid)."""
    theta = [fld(t) for t in theta]
    theta_star = [fld(t) for t in theta_star]
    if len(theta) != len(theta_star):
        raise LengthMismatch("theta and theta_star have different lengths")
    if len(theta) < 2:
        raise LengthMismatch("diameter must be at least 1")
    _check_not_char_two(fld)
    d = len(theta) - 1
    violations = []
    for name, seq in (("theta", theta), ("theta_star", theta_star)):
        if len(set(seq)) != len(seq):
            violations.append(f"distinctness: {name} has repeated entries")
    for name, seq in (("theta", theta), ("theta_star", theta_star)):
        for i in range(d + 1):
            if not (seq[i] + seq[d - i]).is_zero():
                violations.append(
                    f"antisymmetry: {name}[{i}] + {name}[{d - i}] != 0")
                break
    if d >= 3 and not violations:
        try:
            _solve_beta(theta, theta_star)
        except NoBeta as exc:
            violations.append(f"recurrence: {exc}")
    return violations


def validate_array(fld, theta, theta_star):
    """Validate the candidate lists and return an EigenvalueArray."""
    violations = check_array(fld, theta, theta_star)
    if violations:
        raise InvalidArray(violations)
    theta = tuple(fld(t) for t in theta)
    theta_star = tuple(fld(t) for t in theta_star)
    return EigenvalueArray(fld, len(theta) - 1, theta, theta_star)


def fundamental_parameter(arr):
    """The unique fundamental parameter for d >= 3, ANY_BETA for d <= 2."""
    if arr.d <= 2:
        return ANY_BETA
    return _solve_beta(arr.theta, arr.theta_star)


@dataclass(frozen=True)
class AskeyWilsonSeq:
    beta: object
    rho: object
    rho_star: object


def aw_sequence(arr, beta):
    """The Askey-Wilson sequence (beta, rho, rho_star) for the array.

    rho = theta_r^2 for even d (r = d/2 - 1) and (beta+2)*theta_r^2 for odd d
    (r = (d-1)/2); verified against the quadratic identity
    theta_{i-1}^2 - beta*theta_{i-1}*theta_i + theta_i^2 = rho for all i.
    """
    fld = arr.field
    beta = fld(beta)
    if arr.d % 2 == 0:
        r = arr.d // 2 - 1
        rho = arr.theta[r] ** 2
        rho_star = arr.theta_star[r] ** 2
    else:
        r = (arr.d - 1) // 2
        rho = (beta + 2) * arr.theta[r] ** 2
        rho_star = (beta + 2) * arr.theta_star[r] ** 2
    for seq, const in ((arr.theta, rho), (arr.theta_star, rho_star)):
        for i in range(1, arr.d + 1):
            if seq[i - 1] ** 2 - beta * seq[i - 1] * seq[i] + seq[i] ** 2 != const:
                raise BetaInvalid(f"{beta} is not a fundamental parameter")
    return AskeyWilsonSeq(beta, rho, rho_star)


def aw_sequence_nonzero(arr):
    """An Askey-Wilson sequence with rho, rho_star both nonzero.

    For d <= 2 the fundamental parameter is free and beta = 2 is chosen;
    for d >= 3 the unique parameter already gives nonzero scalars.
    """
    beta = fundamental_parameter(arr)
    if beta is ANY_BETA:
        beta = arr.field(2)
    seq = aw_sequence(arr, beta)
    require(not seq.rho.is_zero() and not seq.rho_star.is_zero(),
            "rho or rho* vanishes")
    return seq


def _check_char_greater(fld, d, family):
    if fld.characteristic != 0 and fld.characteristic <= d:
        raise CharacteristicViolation(
            f"{family.value} with d={d} needs characteristic 0 or > d, "
            f"got {fld.characteristic}")
    # only d = 1 gets here in characteristic 2; refuse it as check_array
    # does, before basis_asym refuses it in its own words
    _check_not_char_two(fld)


def _check_q_conditions(fld, q, d):
    if fld.characteristic == 2:
        raise CharacteristicViolation("q-Racah families need characteristic != 2")
    if q.is_zero():
        raise QConditionViolation("q must be nonzero")
    one, minus_one = fld.one, fld(-1)
    q2i = fld.one
    q2 = q * q
    for i in range(1, d + 1):
        q2i = q2i * q2
        if q2i == one:
            raise QConditionViolation(f"q^{2 * i} = 1")
        if i <= d - 1 and q2i == minus_one:
            raise QConditionViolation(f"q^{2 * i} = -1")


def generate_family(fld, family, d, h=1, h_star=None, q=None):
    """Emit the closed-form eigenvalue array of the given family.

    h and h_star default to 1; q is required for the q-Racah families.
    The result carries its FamilyTag and always passes validate_array.
    """
    family = Family(family)
    h = fld(h)
    h_star = h if h_star is None else fld(h_star)
    if d < 1:
        raise LengthMismatch("diameter must be at least 1")

    tag = FamilyTag(family, h, h_star)
    if family is Family.KRAWTCHOUK:
        _check_char_greater(fld, d, family)
        sigma = basis_asym(fld, 2, d)
    elif family is Family.BANNAI_ITO:
        if d % 2 == 1:
            raise BannaiItoOddDiameter(f"bannai-ito needs even d, got {d}")
        _check_char_greater(fld, d, family)
        sigma = basis_asym(fld, -2, d)
    elif family in (Family.QRACAH_EVEN, Family.QRACAH_ODD):
        want_odd = family is Family.QRACAH_ODD
        if d % 2 != (1 if want_odd else 0):
            raise QConditionViolation(f"{family.value} needs d {'odd' if want_odd else 'even'}")
        if q is None:
            raise QConditionViolation(f"{family.value} requires a q parameter")
        q = fld(q)
        _check_q_conditions(fld, q, d)
        beta = q * q + (q * q).inverse()
        sigma = basis_asym(fld, beta, d, q)
        tag = FamilyTag(family, h, h_star, q=q, beta=beta)
    else:
        small_d = 1 if family is Family.SMALL_D1 else 2
        if d != small_d:
            raise LengthMismatch(f"{family.value} has d = {small_d}")
        if fld.characteristic == 2:
            raise CharacteristicViolation("characteristic 2 admits no arrays")
        sigma = [1, -1] if d == 1 else [1, 0, -1]

    theta = [h * s for s in sigma]
    theta_star = [h_star * s for s in sigma]
    return validate_array(fld, theta, theta_star).with_family(tag)


def classify(arr):
    """Identify the unique family tag of a validated array.

    For d <= 2 the small-diameter tags apply with h = theta_0.  For d >= 3 the
    antisymmetric basis sequence of the fundamental parameter is extracted and
    theta_i = h * sigma_i, theta*_i = h_star * sigma_i solved exactly.  For
    beta != +-2 the q parameter is canonical among the four solutions of
    q^2 + q^-2 = beta when one lies in the field; otherwise the tag records
    beta and normalizes sigma_0 = 1.
    """
    fld = arr.field
    if arr.d == 1:
        return FamilyTag(Family.SMALL_D1, arr.theta[0], arr.theta_star[0])
    if arr.d == 2:
        return FamilyTag(Family.SMALL_D2, arr.theta[0], arr.theta_star[0])
    beta = fundamental_parameter(arr)
    if beta == fld(2):
        family, q = Family.KRAWTCHOUK, None
        sigma = basis_asym(fld, beta, arr.d)
    elif beta == fld(-2):
        family, q = Family.BANNAI_ITO, None
        sigma = basis_asym(fld, beta, arr.d)
    else:
        family = Family.QRACAH_ODD if arr.d % 2 else Family.QRACAH_EVEN
        q = solve_q(beta)
        if q is None:
            sigma = tuple(t / arr.theta[0] for t in arr.theta)
        else:
            sigma = basis_asym(fld, beta, arr.d, q)
    h = arr.theta[0] / sigma[0]
    h_star = arr.theta_star[0] / sigma[0]
    for i in range(arr.d + 1):
        if arr.theta[i] != h * sigma[i] or arr.theta_star[i] != h_star * sigma[i]:
            raise Unclassifiable(
                f"validated array does not match the {family.value} form")
    if family in (Family.QRACAH_EVEN, Family.QRACAH_ODD):
        return FamilyTag(family, h, h_star, q=q, beta=beta)
    return FamilyTag(family, h, h_star)


def q_equivalent(q1, q2):
    """Whether two q choices generate the same array: q2 in {q1, -q1, 1/q1, -1/q1}."""
    return q2 in (q1, -q1, q1.inverse(), -q1.inverse())


def relatives(arr):
    """The three nontrivial relatives: swap, reverse-dual, reverse-primal."""
    fld = arr.field
    return {
        "star": validate_array(fld, arr.theta_star, arr.theta),
        "down": validate_array(fld, arr.theta, tuple(reversed(arr.theta_star))),
        "Down": validate_array(fld, tuple(reversed(arr.theta)), arr.theta_star),
    }


def is_self_dual(arr):
    return arr.theta == arr.theta_star


def self_dual_scaling(arr):
    """The scalar zeta with theta_star = zeta * theta entrywise."""
    return arr.theta_star[0] / arr.theta[0]


def self_dualize(arr):
    """Rescale theta by zeta so the array becomes self-dual."""
    if is_self_dual(arr):
        return arr
    zeta = self_dual_scaling(arr)
    return validate_array(arr.field, tuple(zeta * t for t in arr.theta),
                          arr.theta_star)
