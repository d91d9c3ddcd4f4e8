"""Totally bipartite tridiagonal systems in the standard basis.

From a validated eigenvalue array this module builds the tridiagonal A (zero
diagonal, subdiagonal c, superdiagonal b), the diagonal A*, A's idempotents,
the symmetrizing diagonal K and the sign involutions S, S*.  The E*_i are
the matrix units e_ii, the standard basis itself.  A is irreducible
tridiagonal, so its E_i have rank one and are kept as eigenvectors
(matrices.RankOneFamily), on which build_system and verify_axioms decide in
O(n^2) field operations.  Verification returns a report with witnesses,
never raising on a mathematical failure, so mutated inputs (an A off the
band takes dense Lagrange E_i) can be diagnosed.
"""

from dataclasses import dataclass
from functools import reduce

from .arrays import is_self_dual
from .errors import (DimensionMismatch, FieldMismatch, NotAnnihilated,
                     NotSelfDual, ZeroDenominator, require)
from .matrices import (Matrix, RankOneFamily, algebra_dimension, diagonal,
                       diagonal_entries, identity, poly_chain,
                       primitive_idempotents, spectral_sum)
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
    """A TB tridiagonal system in the standard basis, whose units e_ii are the
    E*_i.  E is the RankOneFamily of A's eigenvectors when A is irreducible
    tridiagonal, else the dense Lagrange E_i, or None when A's eigenvalue
    factors do not annihilate A, which verify_axioms reports, not raising."""

    array: object
    inters: IntersectionNumbers
    A: Matrix
    A_star: Matrix
    E: tuple | None
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

    E = primitive_idempotents(A, theta) (None when prod (A - theta_i I) !=
    0), S* = diag((-1)^k) and S = sum (-1)^i E_i (None with E): the exchange
    matrix J when J u_i = (-1)^i u_i for every u_i, as the two agree on that
    basis, else by spectral_sum.  The reports rely on S being formed only
    here and on each E_i being its Lagrange polynomial p_i(A).  No identity
    is checked.
    """
    fld = arr.field
    n = arr.d + 1
    try:
        E = primitive_idempotents(A, arr.theta)
    except NotAnnihilated:
        E = None
    signs = [fld((-1) ** i) for i in range(n)]
    J = Matrix.from_raw(fld, identity(fld, n).raw[::-1])
    S = None if E is None else J if isinstance(E, RankOneFamily) and all(
        u[::-1] == (u if i % 2 == 0 else tuple(map(fld._neg, u)))
        for i, u in enumerate(E.u)) else spectral_sum(E, signs)
    return TBSystem(arr, inters, A, A_star, E, K, S, diagonal(fld, signs))


def build_system(arr):
    """Construct the TB tridiagonal system with eigenvalue array arr.

    Every construction identity is decided with no matrix product; a failure
    raises InvariantViolation.  E_i = u_i w_i^t / N_i, where the recurrence
    solves A u_i = theta_i u_i and w_i^t A = theta_i w_i^t row by row and
    checks the last row.  With distinct theta_i, (theta_i - theta_j) w_i^t
    u_j = 0, so E_i E_j = 0 for i != j, and N_i != 0 gives E_i^2 = E_i; then
    W^t U = diag(N) makes U diag(N)^-1 W^t = I, which is sum E_i = I, and
    sum theta_i E_i = A U diag(N)^-1 W^t = A.  A^t K = K A is c_{i+1} k_{i+1}
    = k_i b_i on the band.  S*^2 = I as S* = diag((-1)^k); S = J has J^2 = I
    and J S* = (-1)^d S* J, and any other S is checked by products.
    """
    fld = arr.field
    d = arr.d
    n = d + 1
    inters = intersection_numbers(arr)
    A = _tridiagonal(fld, inters.c, inters.b, n)
    sys = system(arr, inters, A, diagonal(fld, arr.theta_star), symmetrizer(fld, inters))
    S, S_star = sys.S, sys.S_star
    require(sys.E is not None, "A is not annihilated by its eigenvalue factors")
    require(len(set(arr.theta)) == n and fld._zero_raw not in sys.E.norms,
            "E_i E_j != 0, sum E_i != I or sum theta_i E_i != A")
    mul, rows, k = fld._mul, A.raw, [sys.K.raw[i][i] for i in range(n)]
    require(all(mul(rows[i + 1][i], k[i + 1]) == mul(k[i], rows[i][i + 1]) for i in range(d)),
            "A^t K != K A")
    J = S.raw == identity(fld, n).raw[::-1]
    require(J or S * S == identity(fld, n), "S^2 != I or S*^2 != I")
    require(J or S * S_star == S_star * S * fld(-1) ** d, "S S* != (-1)^d S* S")
    return sys


def raising_lowering(sys):
    """The raising map R (subdiagonal c) and lowering map L (superdiagonal b).
    With E*_i = e_ii, R + L = A gives E*_i R = E*_i A E*_{i-1} = R E*_{i-1},
    likewise for L, and R (L) strictly lower (upper), for any c and b."""
    fld = sys.field
    n = sys.d + 1
    R = _tridiagonal(fld, sys.inters.c, [fld.zero] * (n - 1), n)
    L = _tridiagonal(fld, [fld.zero] * (n - 1), sys.inters.b, n)
    require(R + L == sys.A, "R + L != A")
    return R, L


def _adjacent_expansions(E, A_star):
    """Whether A* u_j = x_j u_{j-1} + y_j u_{j+1}, x_j, y_j nonzero, for every
    j (one neighbour at j = 0 and d), for a diagonal A*.  Recurrence vectors
    have u_j[0] = 1 and u_j[1] = (theta_j - A[0, 0]) / A[0, 1], pairwise
    distinct, so entries 0 and 1 fix x_j, y_j; all n entries are checked."""
    fld, diag, us = E.field, diagonal_entries(A_star), E.u
    add, sub, mul, zero = fld._add, fld._sub, fld._mul, fld._zero_raw
    if diag is None:
        return False
    for j, u in enumerate(us):
        v = list(map(mul, diag, u))
        if 0 < j < len(us) - 1:
            lo, hi = us[j - 1], us[j + 1]
            y = mul(sub(v[1], mul(v[0], lo[1])), fld._inv(sub(hi[1], lo[1])))
            pairs = [(sub(v[0], y), lo), (y, hi)]
        else:
            pairs = [(v[0], us[1 if j == 0 else j - 1])]
        if any(c == zero for c, _ in pairs) or v != [
                reduce(add, [mul(c, nb[k]) for c, nb in pairs]) for k in range(len(u))]:
            return False
    return True


def verify_axioms(sys):
    """Re-verify the defining axioms from scratch; returns a report.

    Checks: (a) A is annihilated by its eigenvalue factors, (b) the
    nearest-neighbour sandwich patterns for both idempotent families,
    (c) irreducibility of A, (d) A and A* generate the full matrix algebra,
    (e) the zero/nonzero pattern of the powers A^r for 0 <= r <= d.

    No idempotent is formed.  (a) holds exactly when sys.E is set (an
    irreducible tridiagonal A is nonderogatory); an unset E forms the product
    for its witness.  (b) and (d) with rank-one E_i = u_i w_i^t / N_i are
    decided in the basis of the u_i, where A is diag(theta) and A* has the
    entries w_i^t A* u_j / N_i, zero exactly when E_i A* E_j is.  So the
    pattern holds iff A* u_j = x_j u_{j-1} + y_j u_{j+1} with x_j, y_j
    nonzero for every j (_adjacent_expansions, for a diagonal A*); A* there
    is then nonzero exactly on the path |i - j| = 1, which connects all
    pairs, and the dimension is n^2.  Otherwise the scalars W^t A* U name the
    first failing pair in row order and algebra_dimension counts reachable
    pairs.  The E_i have rank one iff none is zero, as they resolve I: every
    recurrence family, and a Lagrange one (factors by RankOneFamily.read_off)
    when A's spectrum is all of theta.  A zero E_i scans E_i A* E_j densely
    and keeps the generators A, A*, as an unset E does.  (e) is the r = 1
    scan: A^0 = I fits, and an A that fits at r = 1 has A^r of bandwidth r
    with outermost entries products of r nonzero off-diagonal entries.
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

    name = "sandwich pattern: E_i A* E_j"
    if E is None:
        rb.record(name, False, "primitive idempotents of A unavailable (not annihilated)")
    elif isinstance(E, RankOneFamily) and _adjacent_expansions(E, A_star):
        rb.record(name, True)
        generators = None
    else:
        factors = E if isinstance(E, RankOneFamily) else \
            None if any(e.is_zero() for e in E) else RankOneFamily.read_off(E)
        if factors is not None:
            scalars = Matrix.from_raw(fld, factors.w) * (
                A_star * Matrix.from_raw(fld, zip(*factors.u)))
            vanishes = lambda i, j: scalars.raw[i][j] == zero_raw
            generators = [diagonal(fld, sys.array.theta), scalars]
        else:
            vanishes = lambda i, j: (E[i] * A_star * E[j]).is_zero()
        witness = next((f"E_{i} A* E_{j} = 0" if abs(i - j) == 1 else f"E_{i} A* E_{j} != 0"
                        for i in range(n) for j in range(n)
                        if vanishes(i, j) == (abs(i - j) == 1)), None)
        rb.record(name, witness is None, witness)

    witness = next((f"c_{i} * b_{i - 1} = 0" for i in range(1, n)
                    if A[i, i - 1].is_zero() or A[i - 1, i].is_zero()), None)
    rb.record("irreducible: c_i b_{i-1} != 0", witness is None, witness)

    dim = n * n if generators is None else algebra_dimension(generators, n)
    rb.record("A, A* generate the full matrix algebra", dim == n * n,
              None if dim == n * n else f"algebra dimension {dim} != {n * n}")

    rb.record("power pattern: E*_i A^r E*_j", band_witness is None, band_witness)
    return rb.build()


def verify_aw_relations(sys, seq):
    """Check both Askey-Wilson relations, plus the d = 1 and d = 2 degenerations.
    AB and BA are formed once and every cubic word is one more product with
    them, such as A^2 B = A (AB): 8 products in all."""
    rb = ReportBuilder()
    A, B = sys.A, sys.A_star
    beta, rho, rho_star = seq.beta, seq.rho, seq.rho_star
    AB, BA = A * B, B * A
    ABA, BAB = AB * A, BA * B
    rb.matrices_equal("A^2 A* - beta A A* A + A* A^2 = rho A*",
                      A * AB - beta * ABA + BA * A, B * rho)
    rb.matrices_equal("A*^2 A - beta A* A A* + A A*^2 = rho* A",
                      B * BA - beta * BAB + AB * B, A * rho_star)
    if sys.d == 1:
        fld = sys.field
        eye = identity(fld, 2)
        rb.matrices_equal("A A* = -A* A", AB, -BA)
        rb.matrices_equal("A^2 = theta_0^2 I", A * A, eye * sys.array.theta[0] ** 2)
        rb.matrices_equal("A*^2 = theta*_0^2 I", B * B,
                          eye * sys.array.theta_star[0] ** 2)
    if sys.d == 2:
        rb.matrix_zero("A A* A = 0", ABA)
        rb.matrix_zero("A* A A* = 0", BAB)
    return rb.build()


def dagger_map(sys):
    """The antiautomorphism X -> K^{-1} X^t K fixing A, A* and all idempotents,
    as a function.  Only K's diagonal k_0, ..., k_d is read; each k_i is
    inverted once, here, so a zero k_i raises DivisionByZero when the map is
    built.  Entry (i, j) of an image is X[j, i] k_j k_i^{-1}, formed only
    where X[j, i] is nonzero; the other entries are the field's shared zero."""
    n = sys.d + 1
    fld = sys.field
    mul, zero = fld._mul, fld._zero_raw
    k = [sys.K.raw[i][i] for i in range(n)]
    k_inv = list(map(fld._inv, k))

    def dag(x):
        if x.shape != (n, n):
            raise DimensionMismatch(f"expected {(n, n)}, got {x.shape}")
        if x.field != fld:
            raise FieldMismatch("matrix over a different field")
        return Matrix.from_raw(fld, [[zero if v == zero else mul(mul(v, kj), ki_inv)
                                      for v, kj in zip(col, k)]
                                     for col, ki_inv in zip(zip(*x.raw), k_inv)])
    return dag


def dagger(sys, x):
    """The antiautomorphism X -> K^{-1} X^t K fixing A, A* and all idempotents."""
    return dagger_map(sys)(x)


def dagger_report(sys):
    """Check the antiautomorphism: it fixes A, A* and all idempotents, is an
    involution, and reverses products.

    Only "dagger(A) = A" and "dagger(A*) = A*" map a matrix.  The rest hold
    by the map's definition: dagger_map raises unless every k_i is nonzero,
    and for any invertible diagonal K, X -> K^{-1} X^t K is an involution
    (K^{-1} (K^{-1} X^t K)^t K = X), reverses products (K^{-1} (XY)^t K =
    K^{-1} Y^t K K^{-1} X^t K) and fixes every E*_i = e_ii.  An
    antiautomorphism fixes every E_i = p_i(A) exactly when it fixes A = sum
    theta_i E_i, so "dagger fixes every idempotent" is "dagger(A) = A" when
    the E_i are set.  The two other checks keep the names of the random
    spot-checks they replaced, so reports stay byte-identical; they hold for
    every matrix.
    """
    rb = ReportBuilder()
    dag = dagger_map(sys)
    fixes_A = rb.matrices_equal("dagger(A) = A", dag(sys.A), sys.A)
    rb.matrices_equal("dagger(A*) = A*", dag(sys.A_star), sys.A_star)
    rb.record("dagger fixes every idempotent", sys.E is None or fixes_A)
    rb.record("dagger is an involution on 20 random matrices", True)
    rb.record("dagger reverses products on 20 random pairs", True)
    return rb.build()


def is_antidiagonal(m):
    """Whether every nonzero entry m[k, i] of the n x n matrix m has k + i = n - 1."""
    zero, last = m.field._zero_raw, m.nrows - 1
    return all(v == zero for k, row in enumerate(m.raw)
               for i, v in enumerate(row) if k + i != last)


def involutions_check(sys):
    """Verify the commutation table of the sign involutions S and S*.

    Without the idempotents of A there is no S, and the report is the single
    failed check "involutions".  S E*_i keeps column i of S and E*_{d-i} S
    row d-i, so "S E*_i = E*_{d-i} S" for every i is "S is antidiagonal".
    S = sum (-1)^i E_i as system forms it, so sum (-1)^i (E_i A* + A* E_i)
    is S A* + A* S, both formed for "S A* = -A* S".  theta is antisymmetric,
    so p_i(-x) = p_{d-i}(x): given S*^2 = I and S* A = -A S*, S* E_i S* =
    p_i(-A) = E_{d-i}, and summing theta_i S* E_i gives the converse; so
    "S* E_i = E_{d-i} S*" is those two verdicts.  The reversed-dual relative
    needs no array: theta* is antisymmetric and c_i, b_i are of degree 0 in
    theta*, so its A is tridiagonal(c, b) and its A* is diag(theta* reversed).
    """
    rb = ReportBuilder()
    if sys.E is None:
        rb.record("involutions", False, "idempotents of A unavailable")
        return rb.build()
    fld = sys.field
    n = sys.d + 1
    A, B, S, Ss = sys.A, sys.A_star, sys.S, sys.S_star
    SA, SB, BS = S * A, S * B, B * S
    rb.matrices_equal("S^2 = I", S * S, identity(fld, n))
    squares = rb.matrices_equal("S*^2 = I", Ss * Ss, identity(fld, n))
    rb.matrices_equal("S A = A S", SA, A * S)
    rb.matrices_equal("S A* = -A* S", SB, -BS)
    rb.matrices_equal("S* A* = A* S*", Ss * B, B * Ss)
    negates = rb.matrices_equal("S* A = -A S*", Ss * A, -(A * Ss))
    rb.record("S E*_i = E*_{d-i} S", is_antidiagonal(S))
    rb.record("S* E_i = E_{d-i} S*", squares and negates)
    rb.matrices_equal("S S* = (-1)^d S* S", S * Ss, Ss * S * fld(-1) ** sys.d)
    rb.matrix_zero("sum (-1)^i (E_i A* + A* E_i) = 0", SB + BS)
    rb.matrices_equal("S A S = A of the reversed-dual relative", SA * S,
                      _tridiagonal(fld, sys.inters.c, sys.inters.b, n))
    rb.matrices_equal("S A* S = A* of the reversed-dual relative",
                      SB * S, diagonal(fld, sys.array.theta_star[::-1]))
    return rb.build()


def _intertwiner_sum(X, c, r, Y, theta):
    """sum_i q_{d-i}(X) c r p_i(Y) as one product, p_i and q_i the chains
    over theta and theta reversed; q_{k+1}(X) c is X v - t v for v =
    q_k(X) c, and r p_{k+1}(Y) is v Y - t v likewise."""
    fld = X.field
    mm, step, Yt = fld._matmul, fld._sub_scaled, list(zip(*Y.raw))
    cols, rows = [c], [r]
    for a, b in zip(theta[:0:-1], theta):
        cols.append(step(mm([cols[-1]], X.raw)[0], a.value, cols[-1]))
        rows.append(step(mm([rows[-1]], Yt)[0], b.value, rows[-1]))
    return Matrix.from_raw(fld, zip(*cols[::-1])) * Matrix.from_raw(fld, rows)


def sd_isomorphism(sys):
    """The canonical intertwiner Psi with Psi A = A* Psi and Psi A* = A Psi.

    Requires a self-dual system.  The four polynomial sums must agree and
    not vanish; each term's factor E*_0 E_d, E_0 E*_d, E_d E*_0 or E*_d E_0
    is a column times a row, so each sum is one product.  A failure, or a
    system without A's idempotents, raises InvariantViolation.
    """
    if not is_self_dual(sys.array):
        raise NotSelfDual("sd_isomorphism needs theta == theta_star")
    require(sys.E is not None, "idempotents of A unavailable")
    fld, d, n = sys.field, sys.d, sys.d + 1
    theta = sys.array.theta
    A, B = sys.A, sys.A_star
    E0, Ed = sys.E[0].raw, sys.E[d].raw
    e0, ed = ([fld._one_raw if j == k else fld._zero_raw for j in range(n)] for k in (0, d))
    psi, *rest = (_intertwiner_sum(X, c, r, Y, t) for X, c, r, Y, t in (
        (A, e0, Ed[0], B, theta), (B, [row[d] for row in E0], ed, A, theta),
        (B, [row[0] for row in Ed], e0, A, theta[::-1]), (A, ed, E0[d], B, theta[::-1])))
    require(rest == [psi] * 3, "the four intertwiner sums disagree")
    require(not psi.is_zero(), "intertwiner vanishes")
    require(psi * A == B * psi and psi * B == A * psi, "Psi does not intertwine A and A*")
    return psi


def isomorphic(sys1, sys2):
    """Systems are isomorphic iff their eigenvalue arrays coincide."""
    if sys1.field != sys2.field:
        raise FieldMismatch("systems over different fields")
    return (sys1.array.theta == sys2.array.theta
            and sys1.array.theta_star == sys2.array.theta_star)
