"""Self-dual Leonard-triple completion of a TB tridiagonal system.

Adjoining a third element C to a self-dual pair (A, B = A*) puts the
Askey-Wilson relations into cyclic three-element form.  The spectral elements
W, W', W'' built from a shared eigenvalue-dependent weight sequence t_i give
an order-3 inner automorphism rho (conjugation by P = W'W, with P^3 = kappa I),
an order-2 automorphism sigma, a family of six antiautomorphisms, and through
rho, sigma an action of the modular group PSL2(Z) (compare Curtin, "Modular
Leonard triples", LAA 424, 2007).  What carries through these maps is decided
on A, B, C, W, W' and P; a dense image is formed only where such a fact fails.

WData is the one record of a triple's spectral data.  When it is built it
forms P^2 and T = W W' W once, and certifies three inverses against I:
P^{-1} = kappa^{-1} P^2 (as P^3 = kappa I), W'^{-1} = diag(t)^{-1} (B is
diagonal, so W' = diag(t)) and W^{-1} = P^{-1} W' (as P = W'W), by one
product or, for two diagonals, in O(n).  T^{-1} = W^{-1} W'^{-1} W^{-1} and
(X^dagger)^{-1} = (X^{-1})^dagger follow.  Gauss-Jordan is the fallback for
data that fails a certificate, such as a hand-built WData with a false
kappa, so the inverses, and a Singular raise for a singular W, W' or P, are
those of dense inversion.  No report inverts a matrix.

With exact inverses a conjugation is checked as an intertwining, which
forms no dense product: sigma(X) = T X T^{-1} = Y iff T X = Y T, rho(X) =
P^{-1} X P = Y iff X P = P Y, and ddagger(X) = W^{-1} X^dagger W = Y iff
X^dagger W = W Y.  P^3 = c I iff P^2 = c P^{-1}, where c = (P^3)_00 is one
dot product of P^2 and P; and T^{-2} is scalar iff T^2 is.  T^{-1} is formed
only where a report forms a dense image, which it does wherever such a
decision is False, so verdicts and witnesses are those of the dense report.
"""

import functools
from dataclasses import dataclass, field

from .arrays import aw_sequence, fundamental_parameter, is_self_dual, ANY_BETA
from .errors import (BetaInvalid, KappaMismatch, NoSquareRootInField,
                     NotSelfDual, RelationViolation, require)
from .fields import FieldElement
from .matrices import (Matrix, diagonal, diagonal_entries, identity,
                       primitive_idempotents, spectral_sum)
from .recurrences import basis_asym, solve_q
from .report import ReportBuilder
from .system import dagger, dagger_map


@dataclass(frozen=True)
class TripleScalars:
    """Case data for the completion: beta, rho, the normalization h of the
    eigenvalues, the cyclic-relation scalar z, and q when beta != +-2."""

    beta: object
    rho: object
    h: object
    z: object
    q: object = None

    @property
    def case(self):
        fld = self.beta.field
        if self.beta == fld(2):
            return "beta=2"
        if self.beta == fld(-2):
            return "beta=-2"
        return "beta!=+-2"


@dataclass(frozen=True)
class LeonardTriple:
    A: Matrix
    B: Matrix
    C: Matrix
    E: tuple
    E_dprime: tuple
    scalars: TripleScalars

    @property
    def field(self):
        return self.A.field

    @property
    def d(self):
        return self.A.nrows - 1


def _derived():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class WData:
    """A triple's spectral data.

    The document fields, the ones a triple document stores, are given:
    W, W', W'', P = W'W, the weights t and kappa with P^3 = kappa I.  The
    derived fields are formed from them whenever a record is built, by the
    constructor or by dataclasses.replace, and are not compared: P_sq = P P,
    the exact inverses P_inv, W_prime_inv and W_inv (see the module
    docstring) and T = W W' W.  T_inv is formed on each read.
    """

    W: Matrix
    W_prime: Matrix
    W_dprime: Matrix
    P: Matrix
    t: tuple
    kappa: object
    P_sq: Matrix = _derived()
    P_inv: Matrix = _derived()
    W_prime_inv: Matrix = _derived()
    W_inv: Matrix = _derived()
    T: Matrix = _derived()

    def __post_init__(self):
        P, W, W_prime, t, kappa = self.P, self.W, self.W_prime, self.t, self.kappa
        P_sq = P * P
        P_inv = _certified_inverse(
            P, None if kappa.is_zero() else P_sq * kappa.inverse())
        t_inv = None if len(t) != W_prime.nrows or any(ti.is_zero() for ti in t) \
            else diagonal(W_prime.field, [ti.inverse() for ti in t])
        derived = {"P_sq": P_sq, "P_inv": P_inv,
                   "W_prime_inv": _certified_inverse(W_prime, t_inv),
                   "W_inv": _certified_inverse(W, P_inv * W_prime),
                   "T": W * W_prime * W}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def T_inv(self):
        return self.W_inv * self.W_prime_inv * self.W_inv


def triple_scalars(arr, beta=None):
    """Extract (beta, rho, h, z, q) for a self-dual eigenvalue array.

    The scalars need the array alone, so a caller can decide them, and fail,
    before it builds the system.  For d <= 2 every scalar is a fundamental
    parameter; the case is chosen by the optional beta argument (default 2).
    z solves z^2 = -rho, rho, or rho/(4 - beta^2) by case, taking the
    canonical square root; a missing root raises NoSquareRootInField with the
    extension to add.  beta = -2 at odd d (possible only at d = 1, where beta
    is free) gives rho = 0, so z = 0 and raises BetaInvalid.
    """
    if not is_self_dual(arr):
        raise NotSelfDual("triple completion needs theta == theta_star")
    fld = arr.field
    d = arr.d
    unique = fundamental_parameter(arr)
    if unique is ANY_BETA:
        beta = fld(2) if beta is None else fld(beta)
    elif beta is not None and fld(beta) != unique:
        raise BetaInvalid(f"array has fundamental parameter {unique}, got {beta}")
    else:
        beta = unique
    if beta == fld(-2) and d % 2:
        raise BetaInvalid(f"beta = -2 at odd d = {d} gives rho = (beta + 2) "
                          "theta_r^2 = 0, so z = 0 and C is undefined")
    rho = aw_sequence(arr, beta).rho
    theta = arr.theta

    if beta == fld(2) or beta == fld(-2):
        q = None
        h = theta[0] / d
        rho_h = 4 * h * h
        zsq = -rho if beta == fld(2) else rho
    else:
        q = solve_q(beta)
        if q is None:
            raise NoSquareRootInField(
                f"no q in {fld} with q^2 + q^-2 = {beta}; extend the field "
                "by a root of t^2 - beta*t + 1 and its square root")
        h = theta[0] / (q ** d - q ** (-d))
        rho_h = h * h * (q * q - (q * q).inverse()) ** 2
        zsq = rho / (4 - beta * beta)
    # theta_i = h (d - 2i), (-1)^i h (d - 2i) or h (q^(d-2i) - q^(2i-d)) by
    # case exactly when theta is a multiple of the basis sequence sigma
    sigma = basis_asym(fld, beta, d, q)
    require(all(t * sigma[0] == theta[0] * s for t, s in zip(theta, sigma)),
            "theta is not a multiple of the antisymmetric basis sequence")
    require(rho == rho_h, "rho != its closed form in h")
    z = fld.sqrt(zsq)
    if z is None:
        hint = f"sqrt({zsq})"
        if fld.sqrt(-zsq) is not None:
            hint = "Q(i)" if fld.characteristic == 0 else "an extension by sqrt(-1)"
        raise NoSquareRootInField(
            f"z^2 = {zsq} has no square root in {fld}; extend the field, "
            f"e.g. to {hint}")
    return TripleScalars(beta, rho, h, z, q)


def build_C(sys, sc):
    """Adjoin the third element C and its idempotent family.

    The three cases are one q-commutator relation a XY + b YX = s Z, with
    (a, b, s) = (1, -1, z) at beta = 2, (1, 1, z) at beta = -2 and
    (q, -q^-1, z (q^2 - q^-2)) otherwise.  The pair (A, B) defines
    C = (a AB + b BA) s^-1, and the other two cyclic relations, on (B, C, A)
    and (C, A, B), are then verified exactly.
    """
    fld = sys.field
    A, B = sys.A, sys.A_star
    if sc.case == "beta!=+-2":
        q = sc.q
        a, b, s = q, -q.inverse(), sc.z * (q * q - (q * q).inverse())
    else:
        a, b, s = fld.one, fld(-1 if sc.case == "beta=2" else 1), sc.z
    C = (a * (A * B) + b * (B * A)) * s.inverse()
    for k, (X, Y, Z) in enumerate(((B, C, A), (C, A, B)), start=1):
        if a * (X * Y) + b * (Y * X) != Z * s:
            raise RelationViolation(f"cyclic relation {k} failed for case {sc.case}")
    theta = sys.array.theta
    # B's primitive idempotents are the matrix units, which W' assumes
    require(B == diagonal(fld, theta), "A* != diag(theta)")
    # C is tridiagonal with zero diagonal, like A
    E_dprime = primitive_idempotents(C, theta)
    return LeonardTriple(A, B, C, sys.E, E_dprime, sc)


def _weights(sc, d):
    fld = sc.beta.field
    h, z = sc.h, sc.z
    zinv = z.inverse()
    if sc.case == "beta=2":
        return tuple((2 * h * zinv) ** i for i in range(d + 1))
    if sc.case == "beta=-2":
        return tuple(fld(-1) ** (i // 2) * (2 * h * zinv) ** i for i in range(d + 1))
    q = sc.q
    return tuple(h ** i * zinv ** i * q ** (i * (d - i)) for i in range(d + 1))


def expected_kappa(sc, d):
    """The predicted scalar with P^3 = kappa I."""
    fld = sc.beta.field
    h, z = sc.h, sc.z
    if sc.case == "beta=2":
        return fld(-1) ** d * (2 * h) ** (-d) * z ** d
    if sc.case == "beta=-2":
        return fld.one
    return fld(-1) ** d * h ** (-d) * z ** d * sc.q ** (d * (d - 1))


def spectral_fields(tri):
    """The document fields the scalars of tri predict, by WData field name in
    document order: the weights t, the expected kappa, W, W', W'' and P =
    W'W, formed without checking any identity and with one product."""
    sc, d = tri.scalars, tri.d
    t = _weights(sc, d)
    W = spectral_sum(tri.E, t)
    W_prime = diagonal(tri.field, t)
    return {"t": t, "kappa": expected_kappa(sc, d), "W": W, "W_prime": W_prime,
            "W_dprime": spectral_sum(tri.E_dprime, t), "P": W_prime * W}


def spectral_elements(tri):
    """The WData of the fields spectral_fields predicts."""
    return WData(**spectral_fields(tri))


def build_W(tri):
    """The spectral elements W, W', W'' and P = W'W, with P^3 = kappa I.

    The intertwining identities A W = W A, B W' = W' B, B W = W C, C W' = W' A
    and the three factorizations of P are checked (InvariantViolation); a
    wrong kappa raises KappaMismatch.  P^3 = kappa I is decided by
    _P_cubed_scalar, which forms no product as P^{-1} is exact.
    """
    w = spectral_elements(tri)
    W, W_prime, W_dprime, P, kappa = w.W, w.W_prime, w.W_dprime, w.P, w.kappa
    A, B, C = tri.A, tri.B, tri.C
    # W' = diag(t), and two diagonals of one size commute; a B of another
    # size or field fails B W = W C below as B W' = W' B would
    require(A * W == W * A and (diagonal_entries(B) is not None
                                or B * W_prime == W_prime * B),
            "W or W' does not commute with A or B")
    require(B * W == W * C and C * W_prime == W_prime * A,
            "W or W' does not intertwine")
    require(P == W_dprime * W_prime == W * W_dprime, "the factorizations of P disagree")
    if _P_cubed_scalar(w) != kappa.value:
        raise KappaMismatch(f"P^3 != {kappa} I for case {tri.scalars.case}")
    return w


def _certified_inverse(x, candidate):
    """candidate if x candidate = I, else x^{-1} by Gauss-Jordan, which raises
    Singular for a singular x.  The certificate is one product, or n entry
    products when x and candidate are diagonal.  For a square x a one-sided
    inverse is two-sided."""
    if candidate is not None:
        diags = diagonal_entries(x), diagonal_entries(candidate)
        if None not in diags and x.shape == candidate.shape and x.field == candidate.field:
            mul, one = x.field._mul, x.field._one_raw
            certified = all(mul(a, b) == one for a, b in zip(*diags))
        else:
            certified = x * candidate == identity(x.field, x.nrows)
        if certified:
            return candidate
    return x.inverse()


def rho_automorphism(w, x):
    """The order-3 automorphism X -> P^{-1} X P cycling A -> B -> C -> A."""
    return w.P_inv * x * w.P


def braid_check(w):
    """Braid relations among W, W', W'' and the three factorizations of P;
    W W' W is the record's T, and W'W, W''W' and WW'' are formed once, as
    (XY)X = X(YX)."""
    rb = ReportBuilder()
    a, b, c = w.W, w.W_prime, w.W_dprime
    ba, cb, ac = b * a, c * b, a * c
    rb.matrices_equal("W W' W = W' W W'", w.T, ba * b)
    rb.matrices_equal("W' W'' W' = W'' W' W''", b * cb, cb * c)
    rb.matrices_equal("W W'' W = W'' W W''", ac * a, c * ac)
    rb.matrices_equal("P = W' W", w.P, ba)
    rb.matrices_equal("P = W'' W'", w.P, cb)
    rb.matrices_equal("P = W W''", w.P, ac)
    return rb.build()


def _dagger_conjugation(dag, t, tinv):
    return lambda x: tinv * dag(x) * t


@dataclass(frozen=True)
class AntiAutomorphisms:
    """The six antiautomorphisms as callables on matrices."""

    dagger: object
    dagger_p: object
    dagger_pp: object
    ddagger: object
    ddagger_p: object
    ddagger_pp: object


def antiautomorphisms(sys, tri, w):
    """The maps X -> T^{-1} X^dagger T for T = I, P^dagger P, (P P^dagger)^{-1},
    W, W'^{-1}, W W' W."""
    dag = dagger_map(sys)
    return _antiautomorphisms(dag, _twists(w, dag(w.P), dag(w.P_inv)))


def _twists(w, P_dag, P_inv_dag):
    """The pairs (T, T^{-1}) of dagger', dagger'', ddagger, ddagger' and
    ddagger'', from w's inverses and the dagger images of P and P^{-1}:
    (P^dagger P)^{-1} = P^{-1} (P^{-1})^dagger and
    (P P^dagger)^{-1} = (P^{-1})^dagger P^{-1}."""
    P, P_inv = w.P, w.P_inv
    return ((P_dag * P, P_inv * P_inv_dag), (P_inv_dag * P_inv, P * P_dag),
            (w.W, w.W_inv), (w.W_prime_inv, w.W_prime), (w.T, w.T_inv))


def _antiautomorphisms(dag, twists):
    """antiautomorphisms from the dagger map and the pairs from _twists."""
    return AntiAutomorphisms(dag, *(_dagger_conjugation(dag, t, tinv)
                                    for t, tinv in twists))


def _is_scalar(m):
    diag = diagonal_entries(m)
    return (diag is not None and diag[0] != m.field._zero_raw
            and diag.count(diag[0]) == len(diag))


def _P_cubed_scalar(w):
    """The raw c != 0 with P^3 = c I, else None.  w.P_inv is exact, so P^3 =
    c I iff P^2 = c P^{-1}, and then c = (P^3)_00, row 0 of P^2 times column
    0 of P: one dot product and an entrywise comparison."""
    P, fld = w.P, w.P.field
    c = fld._matmul([w.P_sq.raw[0]], [[row[0] for row in P.raw]])[0][0]
    return c if c != fld._zero_raw and w.P_sq == w.P_inv * FieldElement(fld, c) else None


def antiautomorphism_report(sys, tri, w):
    """Action tables and involutivity of the six antiautomorphisms.

    w's inverses are exact.  Four facts are settled first, with no other
    report's verdict: (F1) dagger fixes W and W' (the first two checks);
    (F2) rho: X -> P^-1 X P cycles A -> B -> C -> A (A P = P B, B P = P C,
    C P = P A); (F3) P = W' W; (F4) P^3 is scalar, decided as P^2 = c P^-1
    (_P_cubed_scalar).  The ddagger row is checked as X^dagger W = W Y,
    which is W^-1 X^dagger W = Y.  Then:
    - By their twists, dagger' = rho o dagger o rho^-1 and dagger'' =
      rho^-1 o dagger o rho for any P, so the checks of that name are
      "rho(C) = A and rho(A) = B" and "rho(A) = B and rho(B) = C".  Under F2
      the expected images are the rho-relabelled ones of the dagger row
      (shear included): dagger'(A), (B), (C) pass with dagger(C), (A), (B),
      and dagger''(A), (B), (C) with dagger(B), (C), (A).
    - Under F1 each ddagger twist t has (t^dagger)^-1 t = I: "^2 = id" holds.
    - Under F1 and F3 the composites M P^-1 are I, P^-3 and I, and the
      ddagger' and ddagger'' rho-checks test (W W')^3 = W P^3 W^-1 and its
      inverse, so all four follow F4.  ddagger' and ddagger'' are the
      rho-conjugates of ddagger followed by conjugation with P^3 and P^-3,
      which fixes A, B, C under F2; so under F1-F3 their rows follow its row.
    A failed premise or a False derived verdict forms the dense image, so
    verdicts and witnesses are those of the dense report.
    """
    rb = ReportBuilder()
    P, Pinv = w.P, w.P_inv
    dag = dagger_map(sys)
    gens = A, B, C = tri.A, tri.B, tri.C
    sc = tri.scalars
    f1 = all([rb.matrices_equal("dagger fixes W", dag(w.W), w.W),
              rb.matrices_equal("dagger fixes W'", dag(w.W_prime), w.W_prime)])
    cyc = [X * P == P * Y for X, Y in zip(gens, (B, C, A))]
    f13 = f1 and P == w.W_prime * w.W
    f4 = _P_cubed_scalar(w) is not None
    maps = functools.cache(
        lambda: _antiautomorphisms(dag, _twists(w, dag(P), dag(Pinv))))

    def family(name, base, expected, premise, intertwines=None):
        """Rows k = 0, 1, 2: base and its rho-conjugates; expected(k, i).
        Row 0 records a True intertwines(X, Y) and a True derived verdict
        stands; anything else is checked densely."""
        got = []
        for i, (x, X) in enumerate(zip("ABC", gens)):
            check, Y = f"{name}({x})", expected(0, i)
            got.append(rb.record(check, True) if intertwines and intertwines(X, Y)
                       else rb.matrices_equal(check, base(X), Y))
        for k in (1, 2):
            row = name + "'" * k
            for i, x in enumerate("ABC"):
                check = f"{row}({x})"
                if premise and got[(i - k) % 3]:
                    rb.record(check, True)
                else:
                    f = getattr(maps(), f"{name}_{'p' * k}")
                    rb.matrices_equal(check, f(gens[i]), expected(k, i))

    def dagger_expected(k, i):
        # row k alters gens[(k + 2) % 3]: C, A, B
        X = gens[i]
        if i != (k + 2) % 3 or sc.case == "beta=-2":
            return X
        if sc.case == "beta=2":
            return -X
        Y, Z = gens[(i + 1) % 3], gens[(i + 2) % 3]
        return X - (Y * Z - Z * Y) * (sc.z * (sc.q - sc.q.inverse())).inverse()

    family("dagger", dag, dagger_expected, all(cyc))
    if sc.case == "beta=-2":
        # dagger' = dagger'' = dagger as maps: their twists are central
        P_dag = dag(P)
        rb.record("dagger' = dagger as maps", _is_scalar(P_dag * P))
        rb.record("dagger'' = dagger as maps", _is_scalar(P * P_dag))
    # ddagger sends (A, B, C) to (A, C, B), ddagger' to (C, B, A) and
    # ddagger'' to (B, A, C)
    family("ddagger", _dagger_conjugation(dag, w.W, w.W_inv),
           lambda k, i: gens[(2 * k - i) % 3], all(cyc) and f13,
           lambda X, Y: dag(X) * w.W == w.W * Y)

    # Below, a True derived verdict short-circuits the dense one.
    # xi^2(X) = M^{-1} X M with M = (T^dagger)^{-1} T; identity iff M central
    names = ("ddagger^2 = id", "ddagger'^2 = id", "ddagger''^2 = id")
    if f1:
        for name in names:
            rb.record(name, True)
    else:
        for name, t, t_inv in zip(names, (w.W, w.W_prime_inv, w.T),
                                  (w.W_inv, w.W_prime, w.T_inv)):
            rb.record(name, _is_scalar(dag(t_inv) * t))
    # Composing the antiautomorphisms with twists T2 then T1 conjugates by
    # M = (T2^dagger)^{-1} T1; rho itself conjugates by P, so each variant
    # must agree with P up to a central factor.
    rb.record("rho = ddagger o ddagger'",
              f13 or _is_scalar(dag(w.W_prime) * w.W * Pinv))
    rb.record("rho = ddagger' o ddagger''",
              f13 and f4 or _is_scalar(dag(w.T_inv) * w.W_prime_inv * Pinv))
    rb.record("rho = ddagger'' o ddagger",
              f13 or _is_scalar(dag(w.W_inv) * w.T * Pinv))

    rb.record("dagger' = rho o dagger o rho^-1", cyc[2] and cyc[0])
    rb.record("dagger'' = rho^-1 o dagger o rho", cyc[0] and cyc[1])
    # rho o xi_T o rho^-1 twists by P^dagger T P, rho^-1 o xi_T o rho by
    # (P^dagger)^{-1} T P^{-1}; two twists T, T' give the same
    # antiautomorphism iff T T'^{-1} is central.
    rb.record("ddagger' = rho o ddagger o rho^-1",
              f13 and f4 or _is_scalar(dag(P) * w.W * P * w.W_prime))
    rb.record("ddagger'' = rho^-1 o ddagger o rho",
              f13 and f4 or _is_scalar(dag(Pinv) * w.W * Pinv * w.T_inv))
    return rb.build()


def _is_weighted_sum(x, family, t):
    """Whether x = sum t_i X_i over the n members of family, formed as one
    spectral_sum."""
    return len(family) == len(t) == x.nrows and spectral_sum(family, t) == x


def sigma_and_psl2z(sys, tri, w):
    """The order-2 automorphism sigma and the modular-group action.

    sigma conjugates by T = W W' W and swaps A, B while sending C to its
    dagger image; sigma(X) = Y is checked as T X = Y T and rho(X) = Y as
    X P = P Y, as w's inverses are exact.  Each family is the Lagrange
    polynomials p_i of A, B or C (tri.E and tri.E_dprime are A's and C's, and
    B = diag(theta) has the matrix units), rho(p_i(X)) = p_i(rho(X)) and X =
    sum theta_i p_i(X); so rho cycles the families exactly when it cycles
    A -> B -> C -> A.  So also, once W = sum t_i E_i, W' = diag(t) with B =
    diag(theta) and W'' = sum t_i E''_i are checked, rho(W) = W' follows
    rho(A) = B, rho(W') = W'' follows rho(B) = C, and rho(W'') = W follows
    rho(C) = A.  rho^3 and sigma^2 are checked on every matrix unit as "P^3
    and T^2 are central" (_P_cubed_scalar; T^-2 is central iff T^2 is),
    and the words in r and s agree with their r^3 = s^2 = 1 normal forms
    exactly when both are.  P^{-1} P P = P for any P with an exact inverse,
    and WData certifies P^{-1} by one product against I or forms it by
    Gauss-Jordan, so "rho(P) = P" is recorded, not formed.  A False decision
    forms the dense image, so verdicts and witnesses are those of the dense
    report.
    """
    rb = ReportBuilder()
    A, B, C = tri.A, tri.B, tri.C
    T, P, Pinv = w.T, w.P, w.P_inv

    def sigma_check(name, X, Y):
        TX = T * X
        return rb.record(name, True) if TX == Y * T else \
            rb.matrices_equal(name, TX * w.T_inv, Y)

    def rho_check(name, X, Y, derived=False):
        if derived:
            return rb.record(name, True)
        XP = X * P
        return rb.record(name, True) if XP == P * Y else \
            rb.matrices_equal(name, Pinv * XP, Y)

    sigma_check("sigma(A) = B", A, B)
    sigma_check("sigma(B) = A", B, A)
    sigma_check("sigma(C) = dagger(C)", C, dagger(sys, C))

    cycles = [rho_check("rho(A) = B", A, B),
              rho_check("rho(B) = C", B, C),
              rho_check("rho(C) = A", C, A)]
    rb.record("rho(P) = P", True)
    rb.record("rho cycles the idempotent families", all(cycles))
    fld, t = tri.field, w.t
    W_sum = _is_weighted_sum(w.W, tri.E, t)
    W_prime_diag = w.W_prime == diagonal(fld, t) and B == diagonal(fld, sys.array.theta)
    W_dprime_sum = _is_weighted_sum(w.W_dprime, tri.E_dprime, t)
    rho_check("rho(W) = W'", w.W, w.W_prime, cycles[0] and W_sum and W_prime_diag)
    rho_check("rho(W') = W''", w.W_prime, w.W_dprime,
              cycles[1] and W_prime_diag and W_dprime_sum)
    rho_check("rho(W'') = W", w.W_dprime, w.W, cycles[2] and W_dprime_sum and W_sum)

    # Conjugation by M fixes every matrix unit iff M is a nonzero scalar:
    # the centraliser of the full matrix algebra is the scalars.
    rho_cubed = _P_cubed_scalar(w) is not None
    sigma_squared = _is_scalar(T * T)
    rb.record("rho^3 = id on all matrix units", rho_cubed)
    rb.record("sigma^2 = id on all matrix units", sigma_squared)

    # A word in r -> P^{-1}, s -> T^{-1} reaches its normal form by deleting
    # rrr and ss, and each deletion drops a factor P^{-3} or T^{-2} from its
    # conjugator, so every word acts as its normal form iff both are central.
    # Otherwise ss, and after it rrr, are the shortest words that do not.
    witness = None
    if not sigma_squared:
        witness = "word ss != its normal form 1"
    elif not rho_cubed:
        witness = "word rrr != its normal form 1"
    rb.record("sampled words agree with their r^3 = s^2 = 1 normal forms",
              witness is None, witness)
    return rb.build()
