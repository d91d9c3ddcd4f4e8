"""Dense exact matrices over any supported field.

A matrix is immutable: its field and one tuple of row tuples of the field's
raw values (a ``Fraction`` over Q, a residue ``int`` over F_p, an ``(a, b)``
pair over a quadratic extension; see fields.py).  Every operation runs on
those values: sums, differences, negation and scalar multiples through the
field's ``_add``, ``_sub``, ``_neg`` and ``_mul``, products through its
``_matmul`` kernel, each elimination step through its ``_sub_scaled``, and
equality, hashing, transposition and the zero test on the raw tuples.  All
operations are exact; equality is entrywise structural equality.  Entries
are ``FieldElement``s only at the API: ``m[i, j]`` and the ``rows`` view box
them, and ``Matrix(field, rows)`` coerces its input and unboxes it.
The module also provides the spectral toolkit used throughout: polynomial
evaluation at a matrix, ``poly_chain``, the one way the package forms the
products (x - r_0 I) ... (x - r_{i-1} I) (both halves of each Lagrange
idempotent, the eigenvalue-factor witness of verify_axioms and the sums of
sd_isomorphism), primitive idempotents, the dimension of the unital
algebra generated by a set of matrices, and ``spectral_sum``, the one way
the package forms a sum t_0 X_0 + ... + t_d X_d (S and the resolutions of
I and A in system.py, W, W', W'' and their inverses in triple.py): a single
kernel product.

Primitive idempotents come two ways.  For an irreducible tridiagonal matrix
each one has rank one, and ``rank_one_idempotents`` builds it from its right
and left eigenvectors, which the three-term recurrence gives in O(n) each.
It returns the E_i alone.  For any other matrix ``lagrange_idempotents``
interpolates densely; it is also the independent reference the tests compare
the rank-one path with.  ``primitive_idempotents`` picks between the two,
and it is the only caller of either.  A Lagrange family with no zero E_i
has rank-one E_i too, since their ranks sum to n.  For any rank-one family
``rank_one_factors`` reads both eigenvectors back, up to nonzero scalars,
from row k and column k of each E_i at its first nonzero diagonal entry;
the recurrence gives both first entry 1, so there k = 0.
"""

from collections import deque
from math import gcd

from .errors import (DimensionMismatch, DuplicateEigenvalue, FieldMismatch,
                     NotAnnihilated, Singular)
from .fields import FieldElement, RationalField


class Matrix:
    """An exact matrix over a fixed field.

    ``raw`` is a tuple of row tuples of the field's raw values; ``m[i, j]``
    and ``rows`` box them as ``FieldElement``s.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field, rows):
        coerce = field.__call__
        raw = tuple(tuple(coerce(e).value for e in row) for row in rows)
        if not raw or not raw[0]:
            raise DimensionMismatch("empty matrix")
        m = len(raw[0])
        if any(len(r) != m for r in raw):
            raise DimensionMismatch("ragged rows")
        self.field = field
        self.raw = raw

    @classmethod
    def from_raw(cls, field, rows):
        """The matrix with these raw values of field, taken without coercion."""
        m = cls.__new__(cls)
        m.field = field
        m.raw = tuple(map(tuple, rows))
        return m

    @property
    def nrows(self):
        return len(self.raw)

    @property
    def ncols(self):
        return len(self.raw[0])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """The entries as a tuple of row tuples of FieldElements."""
        field = self.field
        return tuple(tuple(FieldElement(field, v) for v in r) for r in self.raw)

    def __getitem__(self, ij):
        i, j = ij
        return FieldElement(self.field, self.raw[i][j])

    def _check_same_field(self, other):
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("matrices over different fields")

    def _entrywise(self, other, op, name):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{name} {self.shape} vs {other.shape}")
        return Matrix.from_raw(self.field, [map(op, r1, r2)
                                            for r1, r2 in zip(self.raw, other.raw)])

    def __add__(self, other):
        return self._entrywise(other, self.field._add, "add")

    def __sub__(self, other):
        return self._entrywise(other, self.field._sub, "sub")

    def __neg__(self):
        neg = self.field._neg
        return Matrix.from_raw(self.field, [map(neg, r) for r in self.raw])

    def __mul__(self, other):
        field = self.field
        if isinstance(other, Matrix):
            self._check_same_field(other)
            if self.ncols != other.nrows:
                raise DimensionMismatch(f"mul {self.shape} vs {other.shape}")
            return Matrix.from_raw(field, field._matmul(self.raw, list(zip(*other.raw))))
        # scalar
        s, mul = field(other).value, field._mul
        return Matrix.from_raw(field, [[mul(a, s) for a in r] for r in self.raw])

    # a Matrix on the left is handled by its own __mul__, so only a scalar
    # lands here, and raw _mul is commutative
    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.raw == other.raw)

    def __hash__(self):
        return hash((self.field, self.raw))

    def transpose(self):
        return Matrix.from_raw(self.field, zip(*self.raw))

    def is_zero(self):
        zero_row = (self.field._zero_raw,) * self.ncols
        return all(r == zero_row for r in self.raw)

    def inverse(self):
        """Exact inverse by Gauss-Jordan elimination; raises Singular."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        field = self.field
        mul, sub_scaled = field._mul, field._sub_scaled
        zero, one = field._zero_raw, field._one_raw
        work = list(self.raw)
        out = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for i in range(n):
            piv = next((k for k in range(i, n) if work[k][i] != zero), None)
            if piv is None:
                raise Singular("matrix is not invertible")
            if piv != i:
                work[i], work[piv] = work[piv], work[i]
                out[i], out[piv] = out[piv], out[i]
            inv = field._inv(work[i][i])
            wi = work[i] = [mul(e, inv) for e in work[i]]
            oi = out[i] = [mul(e, inv) for e in out[i]]
            for k in range(n):
                f = work[k][i]
                if k != i and f != zero:
                    work[k] = sub_scaled(work[k], f, wi)
                    out[k] = sub_scaled(out[k], f, oi)
        return Matrix.from_raw(field, out)

    def __repr__(self):
        enc = self.field._encode_raw
        body = "; ".join(", ".join(map(enc, row)) for row in self.raw)
        return f"Matrix({self.field}, [{body}])"


def identity(field, n):
    return diagonal(field, [field.one] * n)


def zeros(field, n, m=None):
    return Matrix.from_raw(field, [[field._zero_raw] * (n if m is None else m)
                                   for _ in range(n)])


def diagonal(field, entries):
    entries = [field(e).value for e in entries]
    zero = field._zero_raw
    n = len(entries)
    return Matrix.from_raw(field, [[entries[i] if i == j else zero for j in range(n)]
                                   for i in range(n)])


def column(field, entries):
    return Matrix(field, [[e] for e in entries])


def commutator(x, y):
    return x * y - y * x


def anticommutator(x, y):
    return x * y + y * x


def spectral_sum(mats, weights):
    """sum t_i X_i as one product in the field's kernel: the n^2 x k matrix
    with the entries of X_i in column i, times the column of the t_i."""
    fld, m = mats[0].field, mats[0].ncols
    flat = fld._matmul(list(zip(*([v for row in x.raw for v in row] for x in mats))),
                       [[fld(t).value for t in weights]])
    return Matrix.from_raw(fld, [[v for (v,) in flat[i:i + m]]
                                 for i in range(0, len(flat), m)])


def poly_eval(coeffs, x):
    """Evaluate sum(coeffs[k] * x**k) by Horner's scheme."""
    if x.nrows != x.ncols:
        raise DimensionMismatch("polynomial of a non-square matrix")
    field = x.field
    coeffs = [field(c) for c in coeffs]
    if not coeffs:
        return zeros(field, x.nrows)
    eye = identity(field, x.nrows)
    acc = eye * coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + eye * c
    return acc


def poly_chain(x, roots):
    """chain[i] = (x - roots[0] I) ... (x - roots[i-1] I), for 0 <= i <= len(roots)."""
    eye = identity(x.field, x.nrows)
    chain = [eye]
    for t in roots:
        chain.append(chain[-1] * (x - eye * t))
    return chain


def lagrange_idempotents(x, eigenvalues):
    """Primitive idempotents of x for the listed eigenvalues.

    E_i = prod_{j != i} (x - t_j I) / (t_i - t_j).  Requires the eigenvalues
    to be pairwise distinct and prod (x - t_i I) = 0; the output then
    satisfies E_i E_j = delta_ij E_i, sum E_i = I and sum t_i E_i = x.
    """
    if x.nrows != x.ncols:
        raise DimensionMismatch("idempotents of a non-square matrix")
    field = x.field
    thetas = [field(t) for t in eigenvalues]
    if len(set(thetas)) != len(thetas):
        raise DuplicateEigenvalue("eigenvalues must be pairwise distinct")
    prefix = poly_chain(x, thetas)
    if not prefix[-1].is_zero():
        raise NotAnnihilated("matrix is not annihilated by the eigenvalue factors")
    # the factors commute, so the product of those after i is a prefix of
    # the chain over the reversed roots
    suffix = poly_chain(x, thetas[::-1])
    k = len(thetas)
    out = []
    for i, ti in enumerate(thetas):
        denom = field.one
        for j, tj in enumerate(thetas):
            if j != i:
                denom = denom * (ti - tj)
        out.append(prefix[i] * suffix[k - 1 - i] * denom.inverse())
    return out


def _eigenvector(field, diag, below, above_inv, t):
    """The t-eigenvector (1, u_1, ..., u_{n-1}) of the irreducible tridiagonal
    matrix with this diagonal, subdiagonal and inverted superdiagonal, or None
    when t is not an eigenvalue; all values raw."""
    sub, mul = field._sub, field._mul
    u = [field._one_raw]
    for k, dk in enumerate(diag):
        # row k of (x - t I) u = 0 gives u_{k+1}; the last row is a residual
        r = mul(sub(t, dk), u[k])
        if k:
            r = sub(r, mul(below[k - 1], u[k - 1]))
        if k == len(above_inv):
            return u if r == field._zero_raw else None
        u.append(mul(r, above_inv[k]))


def rank_one_idempotents(x, eigenvalues):
    """Rank-one primitive idempotents of an irreducible tridiagonal x.

    For each eigenvalue t_i the three-term recurrence gives the right
    eigenvector u_i of x and, run on x^t, the left eigenvector w_i, both with
    first entry 1; then E_i = u_i w_i^t / (w_i^t u_i).  Returns the tuple of
    the E_i; rank_one_factors reads u_i and w_i back off them.  Returns None
    unless x is square, irreducible tridiagonal and given one eigenvalue per
    row.  Raises like lagrange_idempotents: DuplicateEigenvalue on repeats,
    NotAnnihilated when some t_i is not an eigenvalue, which for such x is
    exactly when prod (x - t_i I) != 0.
    """
    field = x.field
    thetas = [field(t) for t in eigenvalues]
    n = x.nrows
    if x.ncols != n or len(thetas) != n:
        return None
    rows = x.raw
    zero = field._zero_raw
    # nonzero exactly on the sub- and superdiagonal; the diagonal is free
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if i != j and (v != zero) != (abs(i - j) == 1):
                return None
    if len(set(thetas)) != n:
        raise DuplicateEigenvalue("eigenvalues must be pairwise distinct")
    diag = [rows[k][k] for k in range(n)]
    below = [rows[k + 1][k] for k in range(n - 1)]
    above = [rows[k][k + 1] for k in range(n - 1)]
    below_inv = [field._inv(v) for v in below]
    above_inv = [field._inv(v) for v in above]
    add, mul = field._add, field._mul
    E = []
    for t in thetas:
        u = _eigenvector(field, diag, below, above_inv, t.value)
        w = _eigenvector(field, diag, above, below_inv, t.value)
        if u is None or w is None:
            raise NotAnnihilated("matrix is not annihilated by the eigenvalue factors")
        norm = zero
        for a, b in zip(w, u):
            norm = add(norm, mul(a, b))
        scale = field._inv(norm)
        E.append(Matrix.from_raw(field, [[mul(a, b) for b in w]
                                         for a in [mul(v, scale) for v in u]]))
    return tuple(E)


def rank_one_factors(idems):
    """(left, right) for rank-one idempotents E_i = u_i w_i^t / (w_i^t u_i).

    A rank-one idempotent has trace 1, so some diagonal entry
    E_i[k, k] = u_i[k] w_i[k] / (w_i^t u_i) is nonzero; take the first.  Row
    i of left is row k of E_i, a nonzero multiple of w_i^t, and column i of
    right is column k of E_i, a nonzero multiple of u_i.  So
    (left * M * right)[i, j] is a nonzero multiple of w_i^t M u_j, and so
    is E_i M E_j of u_i w_j^t: one vanishes exactly when the other does.
    rank_one_idempotents gives u_i and w_i first entry 1, so there k = 0.
    """
    field = idems[0].field
    pairs = [(e.raw, next(k for k, row in enumerate(e.raw) if row[k] != field._zero_raw))
             for e in idems]
    return (Matrix.from_raw(field, [raw[k] for raw, k in pairs]),
            Matrix.from_raw(field, zip(*[[row[k] for row in raw] for raw, k in pairs])))


def primitive_idempotents(x, eigenvalues):
    """rank_one_idempotents when x is irreducible tridiagonal, else
    lagrange_idempotents; a tuple either way."""
    found = rank_one_idempotents(x, eigenvalues)
    return found if found is not None else tuple(lagrange_idempotents(x, eigenvalues))


# ---------------------------------------------------------------------------
# dimension of a generated matrix algebra
#
# When some generator is diagonal with pairwise distinct entries, every
# matrix unit e_ii is a polynomial in it, and e_ii g e_jj = g_ij e_ij for
# every generator g.  The algebra is then spanned by the e_ij with j
# reachable from i along the edges {i -> j : some g_ij != 0}, counting
# i -> i, so its dimension is the number of reachable pairs, read off the
# stored matrices in O(n^2) for banded generators.  This is the path every
# built or verified TB system takes, whose A* is diagonal.
#
# Any other input (a tampered A* that is not diagonal, or has a repeated
# entry) takes the breadth-first product closure seeded at the identity,
# with an incremental row-echelon basis: fraction-free over the integers
# for Q, over the field itself otherwise.  Right-multiplying accepted
# elements by the generators reaches every word, so the accepted set spans
# the full unital algebra; the dimension saturates at n^2.  The closure is
# also the reference the tests compare the reachability count with.
# ---------------------------------------------------------------------------


def _is_distinct_diagonal(g):
    zero = g.field._zero_raw
    raw = g.raw
    return (all(v == zero for i, row in enumerate(raw)
                for j, v in enumerate(row) if i != j)
            and len({raw[i][i] for i in range(len(raw))}) == len(raw))


def _reachable_pairs(gens, n):
    zero = gens[0].field._zero_raw
    succ = [set() for _ in range(n)]
    for g in gens:
        for i, row in enumerate(g.raw):
            succ[i].update(j for j, v in enumerate(row) if v != zero and j != i)
    count = 0
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for j in succ[stack.pop()] - seen:
                seen.add(j)
                stack.append(j)
        count += len(seen)
    return count


class _ExactIntEchelon:
    """Fraction-free echelon basis over Q; rows are content-reduced int lists."""

    def __init__(self):
        self.pivots = {}
        self.rank = 0

    @staticmethod
    def _strip_content(vec):
        g = 0
        for v in vec:
            g = gcd(g, v)
            if g == 1:
                return vec
        if g == 0:
            return None
        return [v // g for v in vec]

    def add(self, fracs):
        den = 1
        for f in fracs:
            d = f.denominator
            den = den * d // gcd(den, d)
        vec = [f.numerator * (den // f.denominator) for f in fracs]
        vec = self._strip_content(vec)
        if vec is None:
            return False
        pivots = self.pivots
        n = len(vec)
        j = 0
        while j < n:
            x = vec[j]
            if x:
                prow = pivots.get(j)
                if prow is None:
                    if x < 0:
                        vec = [-v for v in vec]
                    pivots[j] = vec
                    self.rank += 1
                    return True
                pl = prow[j]
                g = gcd(x, pl)
                m1, m2 = pl // g, x // g
                vec = [m1 * a - m2 * b for a, b in zip(vec, prow)]
                vec = self._strip_content(vec)
                if vec is None:
                    return False
            j += 1
        return False


class _FieldEchelon:
    """Echelon basis over any field; rows are raw-value lists of the field."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}
        self.rank = 0

    def add(self, vec):
        f = self.field
        mul, sub_scaled, zero = f._mul, f._sub_scaled, f._zero_raw
        pivots = self.pivots
        n = len(vec)
        j = 0
        while j < n:
            x = vec[j]
            if x != zero:
                prow = pivots.get(j)
                if prow is None:
                    xinv = f._inv(x)
                    pivots[j] = [mul(v, xinv) for v in vec]
                    self.rank += 1
                    return True
                vec = sub_scaled(vec, x, prow)
            j += 1
        return False


def _flat_raw(m):
    return [v for row in m.raw for v in row]


def _closure_rank(field, gens, n, echelon):
    cap = n * n
    eye = identity(field, n)
    work = deque()
    if echelon.add(_flat_raw(eye)):
        work.append(eye)
    while work and echelon.rank < cap:
        x = work.popleft()
        for g in gens:
            y = x * g
            if echelon.add(_flat_raw(y)):
                if echelon.rank >= cap:
                    return cap
                work.append(y)
    return echelon.rank


def algebra_dimension(generators, n):
    """Dimension of the unital algebra generated by the given n x n matrices."""
    gens = list(generators)
    if not gens:
        return 1 if n >= 1 else 0
    field = gens[0].field
    for g in gens:
        if g.field != field:
            raise FieldMismatch("generators over different fields")
        if g.shape != (n, n):
            raise DimensionMismatch(f"generator of shape {g.shape}, expected {(n, n)}")

    if any(_is_distinct_diagonal(g) for g in gens):
        return _reachable_pairs(gens, n)
    echelon = _ExactIntEchelon() if isinstance(field, RationalField) else _FieldEchelon(field)
    return _closure_rank(field, gens, n, echelon)
