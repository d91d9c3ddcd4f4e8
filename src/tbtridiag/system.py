"""Totally bipartite tridiagonal systems in the standard basis.

From a validated eigenvalue array this module builds the tridiagonal matrix A
(zero diagonal, subdiagonal c, superdiagonal b), the diagonal matrix A*, both
primitive-idempotent families, the symmetrizing diagonal matrix K, and the
sign involutions S, S*.  Every defining identity can be re-verified
exhaustively; verification never raises on a mathematical failure but returns
a report with witnesses, so deliberately mutated inputs can be diagnosed.
"""

from dataclasses import dataclass

from .arrays import is_self_dual
from .errors import (DimensionMismatch, FieldMismatch, NotAnnihilated,
                     NotSelfDual, ZeroDenominator, require)
from .matrices import (Matrix, algebra_dimension, diagonal, identity,
                       poly_chain, primitive_idempotents, rank_one_factors,
                       spectral_sum, zeros)
from .report import ReportBuilder


@dataclass(frozen=True)
class IntersectionNumbers:
    """Sub/superdiagonal entries of A and their dual counterparts.

    c[i-1] holds c_i (1 <= i <= d); b[i] holds b_i (0 <= i <= d-1).
    """

    c: tuple
    b: tuple
    c_star: tuple
    b_star: tuple


def _one_side(theta, theta_star, d):
    c = []
    for i in range(1, d):
        denom = theta_star[i - 1] - theta_star[i + 1]
        if denom.is_zero():
            raise ZeroDenominator(f"theta_star[{i - 1}] == theta_star[{i + 1}]")
        c.append((theta[1] * theta_star[i] - theta[0] * theta_star[i + 1]) / denom)
    c.append(theta[0])
    b = [theta[0]]
    for i in range(1, d):
        denom = theta_star[i + 1] - theta_star[i - 1]
        b.append((theta[1] * theta_star[i] - theta[0] * theta_star[i - 1]) / denom)
    return tuple(c), tuple(b)


def intersection_numbers(arr):
    """Intersection numbers of the array, with their defining identities checked."""
    d = arr.d
    c, b = _one_side(arr.theta, arr.theta_star, d)
    c_star, b_star = _one_side(arr.theta_star, arr.theta, d)
    theta0 = arr.theta[0]
    for seq in (c, b, c_star, b_star):
        require(all(not v.is_zero() for v in seq), "vanishing intersection number")
    require(all(c[i - 1] == b[d - i] for i in range(1, d + 1)), "c_i != b_{d-i}")
    require(c[d - 1] == theta0 and b[0] == theta0, "c_d or b_0 != theta_0")
    require(all(c[i - 1] + b[i] == theta0 for i in range(1, d)),
            "c_i + b_i != theta_0")
    return IntersectionNumbers(c, b, c_star, b_star)


@dataclass(frozen=True)
class TBSystem:
    """A TB tridiagonal system in the standard basis.

    E may be None for systems loaded from external data whose A is not
    diagonalizable; verify_axioms reports that instead of raising.
    """

    array: object
    inters: IntersectionNumbers
    A: Matrix
    A_star: Matrix
    E: tuple | None
    E_star: tuple
    K: Matrix
    S: Matrix | None
    S_star: Matrix

    @property
    def d(self):
        return self.array.d

    @property
    def field(self):
        return self.array.field


def _tridiagonal(fld, c, b, n):
    rows = [[fld.zero] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = b[i]
        rows[i + 1][i] = c[i]
    return Matrix(fld, rows)


def symmetrizer(fld, inters):
    """The diagonal K with A^t K = K A: k_0 = 1, k_i = k_{i-1} b_{i-1} / c_i."""
    k = [fld.one]
    for b, c in zip(inters.b, inters.c):
        k.append(k[-1] * b / c)
    return diagonal(fld, k)


def system(arr, inters, A, A_star, K):
    """The TBSystem with these parts; its idempotents and involutions are
    formed here and nowhere else.

    The E*_i are the matrix units, E = primitive_idempotents(A, theta) (None
    exactly when prod (A - theta_i I) != 0), S = sum (-1)^i E_i by
    spectral_sum (None with E) and S* = diag((-1)^k), the same sum of the
    E*_i.  This is the only place S is formed, which involutions_check relies
    on, and each E_i is then the Lagrange polynomial p_i(A), which the
    reports rely on.  No identity is checked.
    """
    fld = arr.field
    n = arr.d + 1
    E_star = tuple(diagonal(fld, [fld.one if j == i else fld.zero for j in range(n)])
                   for i in range(n))
    try:
        E = primitive_idempotents(A, arr.theta)
    except NotAnnihilated:
        E = None
    signs = [fld((-1) ** i) for i in range(n)]
    return TBSystem(arr, inters, A, A_star, E, E_star, K,
                    None if E is None else spectral_sum(E, signs), diagonal(fld, signs))


def build_system(arr):
    """Construct the TB tridiagonal system with eigenvalue array arr.

    All construction identities (idempotent resolution, A^t K = K A, the
    involution relations) are checked exactly; a failure raises
    InvariantViolation.  A is irreducible tridiagonal, so the E_i come as
    rank-one products u_i w_i^t / (w_i^t u_i): E_i^2 = E_i by construction,
    and E_i E_j = 0 (i != j) reduces to the scalars w_i^t u_j.
    """
    fld = arr.field
    d = arr.d
    n = d + 1
    inters = intersection_numbers(arr)
    A = _tridiagonal(fld, inters.c, inters.b, n)
    sys = system(arr, inters, A, diagonal(fld, arr.theta_star), symmetrizer(fld, inters))
    E, K, S, S_star = sys.E, sys.K, sys.S, sys.S_star
    require(E is not None, "A is not annihilated by its eigenvalue factors")

    eye = identity(fld, n)
    left, right = rank_one_factors(E)
    gram = left * right
    require(all(gram[i, j].is_zero() for i in range(n) for j in range(n) if i != j),
            "E_i E_j != 0 for some i != j")
    require(spectral_sum(E, [fld.one] * n) == eye and spectral_sum(E, arr.theta) == A,
            "sum E_i != I or sum theta_i E_i != A")
    require(A.transpose() * K == K * A, "A^t K != K A")
    require(S * S == eye and S_star * S_star == eye, "S^2 != I or S*^2 != I")
    require(S * S_star == S_star * S * fld(-1) ** d, "S S* != (-1)^d S* S")
    return sys


def raising_lowering(sys):
    """The raising map R (subdiagonal c) and lowering map L (superdiagonal b)."""
    fld = sys.field
    n = sys.d + 1
    zero = zeros(fld, n)
    R = _tridiagonal(fld, sys.inters.c, [fld.zero] * (n - 1), n)
    L = _tridiagonal(fld, [fld.zero] * (n - 1), sys.inters.b, n)
    require(R + L == sys.A, "R + L != A")
    Es = sys.E_star
    for i in range(1, n):
        require(Es[i] * R == Es[i] * sys.A * Es[i - 1] == R * Es[i - 1],
                f"R does not raise E*_{i - 1} to E*_{i}")
        require(Es[i - 1] * L == Es[i - 1] * sys.A * Es[i] == L * Es[i],
                f"L does not lower E*_{i} to E*_{i - 1}")
    require(Es[0] * R == zero and R * Es[n - 1] == zero, "R is not strictly lower")
    require(Es[n - 1] * L == zero and L * Es[0] == zero, "L is not strictly upper")
    return R, L


def verify_axioms(sys):
    """Re-verify the defining axioms from scratch; returns a report.

    Checks: (a) A is annihilated by its eigenvalue factors, (b) the
    nearest-neighbour sandwich patterns for both idempotent families,
    (c) irreducibility of A, (d) A and A* generate the full matrix algebra,
    (e) the zero/nonzero pattern of the powers A^r for 0 <= r <= d.

    The E_i are sys.E, formed once with the system; no idempotent is formed
    here.  (a) needs no product when they are set: primitive_idempotents
    leaves them unset exactly when prod (A - theta_i I) != 0 (on the Lagrange
    path that is the product it tests; an irreducible tridiagonal A is
    nonderogatory, so its theta_i are all eigenvalues exactly when the
    product vanishes).  Only an unset E forms the product, for its witness.
    (b) and (d) with rank-one E_i are decided in the basis of their right
    eigenvectors u_i: there A is diag(theta), with distinct entries, and A*
    has the zero pattern of the sandwich scalars w_i^t A* u_j, which
    rank_one_factors reads off the E_i, so algebra_dimension counts
    reachable pairs whatever A* is.  The E_i resolve I, so their ranks sum
    to n, and they all have rank one exactly when none is zero: every
    recurrence family, and a Lagrange family whenever A's spectrum is all
    of theta.  A family with a zero E_i scans E_i A* E_j densely, and it
    and an unset E keep the generators A, A*.  (e) is decided on A alone.
    A^0 = I always fits.  An A that fits at r = 1 is tridiagonal with
    nonzero off-diagonal entries, so A^r has bandwidth r and (A^r)[i, i+r],
    (A^r)[i+r, i] are products of r of those entries, nonzero: every r fits.
    So (e) has the verdict and witness of the r = 1 scan.
    """
    rb = ReportBuilder()
    fld = sys.field
    n = sys.d + 1
    A, A_star, E = sys.A, sys.A_star, sys.E
    generators = [A, A_star]
    name = "diagonalizable: product of eigenvalue factors vanishes"
    if E is None:
        rb.matrix_zero(name, poly_chain(A, sys.array.theta)[-1])
    else:
        rb.record(name, True)

    # each pattern check reports the first entry, in row order, that breaks it
    zero_raw = fld._zero_raw
    misfits = [(i, j, v != zero_raw) for i, row in enumerate(A.raw)
               for j, v in enumerate(row) if (v != zero_raw) != (abs(i - j) == 1)]
    witness = next((f"A[{i},{j}] = {A[i, j]} off the tridiagonal band" if nonzero
                    else f"A[{i},{j}] = 0 on the off-diagonal"
                    for i, j, nonzero in misfits), None)
    rb.record("sandwich pattern: E*_i A E*_j", witness is None, witness)
    band_witness = next((f"(A^1)[{i},{j}] = {A[i, j]} != 0" if nonzero
                         else f"(A^1)[{i},{j}] = 0"
                         for i, j, nonzero in misfits if i != j), None)

    if E is None:
        rb.record("sandwich pattern: E_i A* E_j", False,
                  "primitive idempotents of A unavailable (not annihilated)")
    else:
        if not any(e.is_zero() for e in E):
            # rank-one E_i: E_i A* E_j vanishes iff the scalar w_i^t A* u_j
            # does, whatever A* is
            left, right = rank_one_factors(E)
            scalars = left * (A_star * right)
            vanishes = lambda i, j: scalars.raw[i][j] == zero_raw
            generators = [diagonal(fld, sys.array.theta), scalars]
        else:
            vanishes = lambda i, j: (E[i] * A_star * E[j]).is_zero()
        witness = next((f"E_{i} A* E_{j} = 0" if abs(i - j) == 1 else f"E_{i} A* E_{j} != 0"
                        for i in range(n) for j in range(n)
                        if vanishes(i, j) == (abs(i - j) == 1)), None)
        rb.record("sandwich pattern: E_i A* E_j", witness is None, witness)

    witness = next((f"c_{i} * b_{i - 1} = 0" for i in range(1, n)
                    if A[i, i - 1].is_zero() or A[i - 1, i].is_zero()), None)
    rb.record("irreducible: c_i b_{i-1} != 0", witness is None, witness)

    dim = algebra_dimension(generators, n)
    rb.record("A, A* generate the full matrix algebra", dim == n * n,
              None if dim == n * n else f"algebra dimension {dim} != {n * n}")

    rb.record("power pattern: E*_i A^r E*_j", band_witness is None, band_witness)
    return rb.build()


def verify_aw_relations(sys, seq):
    """Check both Askey-Wilson relations, plus the d = 1 and d = 2 degenerations."""
    rb = ReportBuilder()
    A, B = sys.A, sys.A_star
    beta, rho, rho_star = seq.beta, seq.rho, seq.rho_star
    rb.matrices_equal("A^2 A* - beta A A* A + A* A^2 = rho A*",
                      A * A * B - beta * (A * B * A) + B * A * A, B * rho)
    rb.matrices_equal("A*^2 A - beta A* A A* + A A*^2 = rho* A",
                      B * B * A - beta * (B * A * B) + A * B * B, A * rho_star)
    if sys.d == 1:
        fld = sys.field
        eye = identity(fld, 2)
        rb.matrices_equal("A A* = -A* A", A * B, -(B * A))
        rb.matrices_equal("A^2 = theta_0^2 I", A * A, eye * sys.array.theta[0] ** 2)
        rb.matrices_equal("A*^2 = theta*_0^2 I", B * B,
                          eye * sys.array.theta_star[0] ** 2)
    if sys.d == 2:
        rb.matrix_zero("A A* A = 0", A * B * A)
        rb.matrix_zero("A* A A* = 0", B * A * B)
    return rb.build()


def dagger_ratios(sys):
    """The raw table r with r[i][j] = k_j / k_i, K = diag(k_0, ..., k_d).

    The antiautomorphism X -> K^{-1} X^t K takes entry (i, j) to
    X[j, i] * r[i][j], so this table determines it."""
    fld = sys.field
    mul = fld._mul
    k = [sys.K.raw[i][i] for i in range(sys.d + 1)]
    return [[mul(kj, ki_inv) for kj in k] for ki_inv in map(fld._inv, k)]


def dagger_map(sys):
    """The antiautomorphism X -> K^{-1} X^t K fixing A, A* and all idempotents,
    as a function; the ratio table is computed once, here."""
    n = sys.d + 1
    fld = sys.field
    mul = fld._mul
    ratios = dagger_ratios(sys)

    def dag(x):
        if x.shape != (n, n):
            raise DimensionMismatch(f"expected {(n, n)}, got {x.shape}")
        if x.field != fld:
            raise FieldMismatch("matrix over a different field")
        # entry (i, j) is x[j, i] * k_j / k_i, on raw values
        return Matrix.from_raw(fld, [[mul(v, r) for v, r in zip(col, row)]
                                     for col, row in zip(zip(*x.raw), ratios)])
    return dag


def dagger(sys, x):
    """The antiautomorphism X -> K^{-1} X^t K fixing A, A* and all idempotents."""
    return dagger_map(sys)(x)


def dagger_report(sys):
    """Check the antiautomorphism: it fixes A, A* and all idempotents, is an
    involution, and reverses products.

    No idempotent is mapped.  dagger(E*_i) = r[i][i] E*_i.  Each E_i is the
    Lagrange polynomial p_i(A) (system forms it so), and an antiautomorphism
    that fixes A fixes every p_i(A); A = sum theta_i E_i gives the converse.
    So "dagger fixes every idempotent" is r[i][i] = 1 for all i and, when the
    E_i are set, "dagger(A) = A" with the two verdicts below.

    The last two are decided on the matrix units e_ab, which span every
    matrix.  With r = dagger_ratios(sys), dagger(e_ab) = r[b][a] e_ba, so
    dagger is an involution iff r[i][j] r[j][i] = 1 for all i <= j, and it
    reverses every product iff r[i][j] r[j][l] = r[i][l] for all i, j, l
    (take X = e_lj and Y = e_ji), which reverses_products decides on 2n^2
    of those products.  The two check names keep the wording of
    the random spot-check these decisions replace, so reports stay
    byte-identical; the verdicts now hold for every matrix.
    """
    rb = ReportBuilder()
    fld = sys.field
    n = sys.d + 1
    dag = dagger_map(sys)
    fixes_A = rb.matrices_equal("dagger(A) = A", dag(sys.A), sys.A)
    rb.matrices_equal("dagger(A*) = A*", dag(sys.A_star), sys.A_star)
    r = dagger_ratios(sys)
    mul, one = fld._mul, fld._one_raw
    involution = all(mul(r[i][j], r[j][i]) == one for i in range(n) for j in range(i, n))
    reverses = reverses_products(fld, r)
    rb.record("dagger fixes every idempotent",
              all(r[i][i] == one for i in range(n))
              and (sys.E is None or fixes_A and involution and reverses))
    rb.record("dagger is an involution on 20 random matrices", involution)
    rb.record("dagger reverses products on 20 random pairs", reverses)
    return rb.build()


def reverses_products(fld, r):
    """Whether r[i][j] r[j][l] = r[i][l] for all i, j, l, from the instances
    with i = 0 or j = 0 alone: given those, r[i][j] r[j][l] =
    r[i][0] r[0][j] r[j][l] = r[i][0] r[0][l] = r[i][l]."""
    mul, r_0 = fld._mul, r[0]
    return (all(mul(r_0j, r_jl) == r_0l for r_0j, r_j in zip(r_0, r)
                for r_jl, r_0l in zip(r_j, r_0))
            and all(mul(r_i[0], r_0l) == r_il for r_i in r
                    for r_0l, r_il in zip(r_0, r_i)))


def is_antidiagonal(m):
    """Whether every nonzero entry m[k, i] of the n x n matrix m has k + i = n - 1."""
    zero, last = m.field._zero_raw, m.nrows - 1
    return all(v == zero for k, row in enumerate(m.raw)
               for i, v in enumerate(row) if k + i != last)


def involutions_check(sys):
    """Verify the commutation table of the sign involutions S and S*.

    Without the idempotents of A there is no S, and the report is the single
    failed check "involutions".  S E*_i keeps column i of S and E*_{d-i} S
    keeps row d-i, so "S E*_i = E*_{d-i} S" holds for every i exactly when S
    is antidiagonal.  S = sum (-1)^i E_i as system forms it, so by
    distributivity sum (-1)^i (E_i A* + A* E_i) is S A* + A* S, both already
    formed for "S A* = -A* S".

    Each E_i is the Lagrange polynomial p_i(A), and theta is antisymmetric,
    so p_i(-x) = p_{d-i}(x).  Given S*^2 = I and S* A = -A S*, then
    S* E_i S* = p_i(-A) = E_{d-i}; conversely summing theta_i S* E_i gives
    S* A = -A S*.  So "S* E_i = E_{d-i} S*" is those two verdicts.

    The reversed-dual relative needs no array of its own: theta* is
    antisymmetric, so reversing it negates it, and c_i, b_i are of degree 0
    in theta*.  Its A is the system's tridiagonal(c, b) and its A* is
    diag(theta* reversed).
    """
    rb = ReportBuilder()
    if sys.E is None:
        rb.record("involutions", False, "idempotents of A unavailable")
        return rb.build()
    fld = sys.field
    n = sys.d + 1
    A, B, S, Ss = sys.A, sys.A_star, sys.S, sys.S_star
    SB, BS = S * B, B * S
    rb.matrices_equal("S^2 = I", S * S, identity(fld, n))
    squares = rb.matrices_equal("S*^2 = I", Ss * Ss, identity(fld, n))
    rb.matrices_equal("S A = A S", S * A, A * S)
    rb.matrices_equal("S A* = -A* S", SB, -BS)
    rb.matrices_equal("S* A* = A* S*", Ss * B, B * Ss)
    negates = rb.matrices_equal("S* A = -A S*", Ss * A, -(A * Ss))
    rb.record("S E*_i = E*_{d-i} S", is_antidiagonal(S))
    rb.record("S* E_i = E_{d-i} S*", squares and negates)
    rb.matrices_equal("S S* = (-1)^d S* S", S * Ss, Ss * S * fld(-1) ** sys.d)
    rb.matrix_zero("sum (-1)^i (E_i A* + A* E_i) = 0", SB + BS)
    rb.matrices_equal("S A S = A of the reversed-dual relative", S * A * S,
                      _tridiagonal(fld, sys.inters.c, sys.inters.b, n))
    rb.matrices_equal("S A* S = A* of the reversed-dual relative",
                      SB * S, diagonal(fld, sys.array.theta_star[::-1]))
    return rb.build()


def sd_isomorphism(sys):
    """The canonical intertwiner Psi with Psi A = A* Psi and Psi A* = A Psi.

    Requires a self-dual system.  Computes all four polynomial sums
    independently, checks their equality and nonzeroness, and returns the
    common value; a failure raises InvariantViolation.
    """
    if not is_self_dual(sys.array):
        raise NotSelfDual("sd_isomorphism needs theta == theta_star")
    fld = sys.field
    d = sys.d
    n = d + 1
    theta, theta_star = sys.array.theta, sys.array.theta_star
    A, B = sys.A, sys.A_star
    tau, eta = poly_chain(A, theta), poly_chain(A, theta[::-1])
    tau_s, eta_s = poly_chain(B, theta_star), poly_chain(B, theta_star[::-1])

    e0_esd = sys.E_star[0] * sys.E[d]
    e0s_ed = sys.E[0] * sys.E_star[d]
    ed_es0 = sys.E[d] * sys.E_star[0]
    esd_e0 = sys.E_star[d] * sys.E[0]

    sums = [zeros(fld, n) for _ in range(4)]
    for i in range(n):
        sums[0] = sums[0] + eta[d - i] * e0_esd * tau_s[i]
        sums[1] = sums[1] + eta_s[d - i] * e0s_ed * tau[i]
        sums[2] = sums[2] + tau_s[i] * ed_es0 * eta[d - i]
        sums[3] = sums[3] + tau[i] * esd_e0 * eta_s[d - i]
    psi = sums[0]
    require(sums[1] == psi and sums[2] == psi and sums[3] == psi,
            "the four intertwiner sums disagree")
    require(not psi.is_zero(), "intertwiner vanishes")
    require(psi * A == B * psi and psi * B == A * psi, "Psi does not intertwine A and A*")
    return psi


def isomorphic(sys1, sys2):
    """Systems are isomorphic iff their eigenvalue arrays coincide."""
    if sys1.field != sys2.field:
        raise FieldMismatch("systems over different fields")
    return (sys1.array.theta == sys2.array.theta
            and sys1.array.theta_star == sys2.array.theta_star)
