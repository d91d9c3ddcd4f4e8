from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbtridiag.arrays import Family, generate_family
from tbtridiag.errors import (DimensionMismatch, DuplicateEigenvalue,
                              NotAnnihilated, Singular)
from tbtridiag.fields import (QQ, FieldElement, PrimeField, QQi,
                              QuadraticExtension, RationalField, parse_field)
from tbtridiag.matrices import (Matrix, _closure_rank, algebra_dimension,
                                anticommutator, column, commutator, diagonal,
                                diagonal_entries, identity,
                                lagrange_idempotents, poly_chain,
                                primitive_idempotents, RankOneFamily,
                                rank_one_idempotents, spectral_sum, zeros)
from tbtridiag.system import build_system, dagger, is_antidiagonal

KRAW_A = Matrix(QQ, [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
KRAW_THETA = [3, 1, -1, -3]


def test_identity_law():
    x = Matrix(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert identity(QQ, 3) * x == x
    assert x * identity(QQ, 3) == x


def test_commutator_and_anticommutator():
    x = Matrix(QQ, [[1, 2], [3, 4]])
    y = Matrix(QQ, [[0, 1], [1, 0]])
    assert commutator(x, x).is_zero()
    assert commutator(x, y) == x * y - y * x
    assert anticommutator(x, y) == x * y + y * x


def test_transpose_involution():
    x = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    assert x.transpose().transpose() == x
    assert x.transpose().shape == (3, 2)


def test_dimension_mismatch():
    x = Matrix(QQ, [[1, 2], [3, 4]])
    y = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        x + y
    with pytest.raises(DimensionMismatch):
        y * y


def test_inverse_frozen_cases():
    assert diagonal(QQ, [1, 3, 3, 1]).inverse() == diagonal(
        QQ, [1, Fraction(1, 3), Fraction(1, 3), 1])
    assert identity(QQ, 5).inverse() == identity(QQ, 5)
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    assert swap.inverse() == swap


def test_inverse_singular():
    with pytest.raises(Singular):
        Matrix(QQ, [[1, 2], [2, 4]]).inverse()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=9, max_size=9))
def test_inverse_exact_on_random_matrices(entries):
    x = Matrix(QQ, [entries[0:3], entries[3:6], entries[6:9]])
    try:
        inv = x.inverse()
    except Singular:
        return
    assert inv * x == identity(QQ, 3)
    assert x * inv == identity(QQ, 3)


def test_idempotents_of_diagonal():
    x = diagonal(QQ, [5, 7, 11])
    es = lagrange_idempotents(x, [5, 7, 11])
    for i, e in enumerate(es):
        unit = [[1 if (a, b) == (i, i) else 0 for b in range(3)] for a in range(3)]
        assert e == Matrix(QQ, unit)


def test_idempotents_of_swap_matrix():
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    es = lagrange_idempotents(swap, [1, -1])
    # oracle: eigenvectors (1,1) and (1,-1) give projectors v v^t / (v^t v)
    for e, vec in zip(es, ([1, 1], [1, -1])):
        v = column(QQ, vec)
        proj = v * v.transpose() * QQ(2).inverse()
        assert e == proj
    assert es[0] == Matrix(QQ, [[Fraction(1, 2)] * 2] * 2)


def test_idempotents_resolve_identity_and_recompose():
    es = lagrange_idempotents(KRAW_A, KRAW_THETA)
    n = 4
    total, recomposed = zeros(QQ, n), zeros(QQ, n)
    for i, e in enumerate(es):
        for j, f in enumerate(es):
            assert e * f == (e if i == j else zeros(QQ, n))
        total = total + e
        recomposed = recomposed + e * KRAW_THETA[i]
    assert total == identity(QQ, n)
    assert recomposed == KRAW_A


def test_idempotents_errors():
    with pytest.raises(DuplicateEigenvalue):
        lagrange_idempotents(KRAW_A, [3, 3, -1, -3])
    with pytest.raises(NotAnnihilated):
        lagrange_idempotents(KRAW_A, [1, 2, 3, 4])


def _prefix_suffix_idempotents(x, thetas):
    """E_i = (prefix product before i) (suffix product after i) / prod (t_i - t_j),
    the two loops lagrange_idempotents ran before it took both halves from
    poly_chain."""
    fld = x.field
    thetas = [fld(t) for t in thetas]
    eye = identity(fld, x.nrows)
    factors = [x - eye * t for t in thetas]
    k = len(factors)
    prefix = [eye]
    for f in factors:
        prefix.append(prefix[-1] * f)
    suffix = [eye] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = factors[i] * suffix[i + 1]
    out = []
    for i, ti in enumerate(thetas):
        denom = fld.one
        for j, tj in enumerate(thetas):
            if j != i:
                denom = denom * (ti - tj)
        out.append(prefix[i] * suffix[i + 1] * denom.inverse())
    return out


def test_poly_chain_is_the_running_product():
    chain = poly_chain(KRAW_A, KRAW_THETA)
    assert len(chain) == 5 and chain[0] == identity(QQ, 4) and chain[-1].is_zero()
    assert chain[2] == (KRAW_A - identity(QQ, 4) * 3) * (KRAW_A - identity(QQ, 4))


@pytest.mark.parametrize("spec", ["Q", "Q(i)", "Fp:101", "Fp2:103"])
def test_lagrange_idempotents_match_the_prefix_suffix_loops(spec):
    fld = parse_field(spec)
    for family, d in ((Family.KRAWTCHOUK, 3), (Family.BANNAI_ITO, 4)):
        arr = generate_family(fld, family, d)
        a = build_system(arr).A
        n = d + 1
        # off the band, and a diagonal whose spectrum misses some theta_i
        unit = Matrix(fld, [[int((k, l) == (0, 2)) for l in range(n)] for k in range(n)])
        eye = identity(fld, n)
        for x in (a, (eye + unit) * a * (eye - unit),
                  diagonal(fld, [arr.theta[0]] * 2 + list(arr.theta[2:]))):
            assert lagrange_idempotents(x, arr.theta) \
                == _prefix_suffix_idempotents(x, arr.theta)


# Each family with the diameters it admits: Bannai/Ito and q-Racah-even need
# even d, q-Racah-odd odd d.
RANK_ONE_FAMILIES = [(Family.KRAWTCHOUK, range(1, 9)), (Family.BANNAI_ITO, range(2, 9, 2)),
                     (Family.QRACAH_EVEN, range(2, 9, 2)), (Family.QRACAH_ODD, range(1, 9, 2))]


@pytest.mark.parametrize("spec", ["Q", "Q(i)", "Q(sqrt:2)", "Fp:101", "Fp2:101"])
def test_rank_one_idempotents_equal_lagrange(spec):
    fld = parse_field(spec)
    q = fld(2 if fld.characteristic == 0 else 5)
    for family, diameters in RANK_ONE_FAMILIES:
        for d in diameters:
            kwargs = {"q": q} if family in (Family.QRACAH_EVEN, Family.QRACAH_ODD) else {}
            arr = generate_family(fld, family, d, **kwargs)
            a = build_system(arr).A
            expected = lagrange_idempotents(a, arr.theta)
            assert list(rank_one_idempotents(a, arr.theta)) == expected, (family, d)
            # a nonzero diagonal shifts every eigenvalue; the transpose swaps
            # the roles of the right and left eigenvectors
            shifted = a + identity(fld, d + 1) * 3
            assert list(rank_one_idempotents(shifted, [t + 3 for t in arr.theta])) \
                == lagrange_idempotents(shifted, [t + 3 for t in arr.theta])
            assert [e.transpose() for e in rank_one_idempotents(a.transpose(), arr.theta)] \
                == expected


def test_rank_one_factors_rebuild_the_idempotents():
    # the family holds u_i and w_i with first entry 1 and N_i = w_i^t u_i:
    # W^t U = diag(N), u_i w_i^t / N_i is the Lagrange E_i, and the one
    # product U diag(t_i / N_i) W^t is the dense sum t_i E_i
    fam = rank_one_idempotents(KRAW_A, KRAW_THETA)
    es = lagrange_idempotents(KRAW_A, KRAW_THETA)
    right, left = Matrix.from_raw(QQ, zip(*fam.u)), Matrix.from_raw(QQ, fam.w)
    norms = [FieldElement(QQ, v) for v in fam.norms]
    assert left * right == diagonal(QQ, norms)
    assert KRAW_A * right == right * diagonal(QQ, KRAW_THETA)
    assert left * KRAW_A == diagonal(QQ, KRAW_THETA) * left
    for i, e in enumerate(es):
        u = Matrix(QQ, [[right[k, i]] for k in range(4)])
        w = Matrix(QQ, [list(left.rows[i])])
        assert u[0, 0] == w[0, 0] == QQ.one
        assert e == u * w * norms[i].inverse() == fam[i]
    assert list(fam) == es
    weights = [QQ(2), QQ(-1), QQ(Fraction(5, 3)), QQ(0)]
    assert spectral_sum(fam, weights) == spectral_sum(es, weights)


def test_rank_one_idempotents_need_an_irreducible_tridiagonal():
    off_band = Matrix(QQ, [[0, 3, 1, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
    reducible = Matrix(QQ, [[0, 3, 0, 0], [1, 0, 0, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
    assert rank_one_idempotents(off_band, KRAW_THETA) is None
    assert rank_one_idempotents(reducible, KRAW_THETA) is None
    assert rank_one_idempotents(Matrix(QQ, [[0, 1, 0], [1, 0, 1]]), [1, 2]) is None
    assert rank_one_idempotents(KRAW_A, KRAW_THETA[:3]) is None


def test_primitive_idempotents_pick_the_path():
    found = primitive_idempotents(KRAW_A, KRAW_THETA)
    assert isinstance(found, RankOneFamily)
    assert list(found) == list(rank_one_idempotents(KRAW_A, KRAW_THETA))
    x = diagonal(QQ, [5, 7, 11])
    assert primitive_idempotents(x, [5, 7, 11]) == tuple(lagrange_idempotents(x, [5, 7, 11]))


@pytest.mark.parametrize("idempotents", [lagrange_idempotents, rank_one_idempotents])
def test_idempotent_paths_raise_alike(idempotents):
    with pytest.raises(DuplicateEigenvalue):
        idempotents(KRAW_A, [3, 3, -1, -3])
    with pytest.raises(NotAnnihilated):
        idempotents(KRAW_A, [3, 1, -1, 4])
    with pytest.raises(NotAnnihilated):
        idempotents(KRAW_A, [1, 2, 3, 4])


def test_algebra_dimension_trivial_cases():
    assert algebra_dimension([identity(QQ, 3)], 3) == 1
    assert algebra_dimension([], 4) == 1
    assert algebra_dimension([diagonal(QQ, [1, 2])], 2) == 2


def test_algebra_dimension_full_matrix_algebra():
    a_star = diagonal(QQ, KRAW_THETA)
    assert algebra_dimension([KRAW_A, a_star], 4) == 16


def test_algebra_dimension_monotone_and_capped():
    a_star = diagonal(QQ, KRAW_THETA)
    small = algebra_dimension([KRAW_A], 4)
    assert small <= algebra_dimension([KRAW_A, a_star], 4) <= 16
    assert small == 4  # polynomials in a nonderogatory matrix


def test_algebra_dimension_prime_field_path():
    F7 = PrimeField(7)
    a = Matrix(F7, [[0, 1], [1, 0]])
    b = diagonal(F7, [1, 6])
    assert algebra_dimension([a, b], 2) == 4
    assert algebra_dimension([identity(F7, 2)], 2) == 1


def test_algebra_dimension_extension_field_path():
    Qi = QQi()
    i = Qi.gen()
    a = Matrix(Qi, [[Qi.zero, i], [-i, Qi.zero]])
    b = diagonal(Qi, [1, -1])
    assert algebra_dimension([a, b], 2) == 4


def test_algebra_dimension_denominator_divisible_by_the_certificate_prime():
    # the generators do not reduce mod 2^61 - 1, so only the exact path runs
    a = KRAW_A * QQ(Fraction(1, (1 << 61) - 1))
    assert algebra_dimension([a, diagonal(QQ, KRAW_THETA)], 4) == 16
    assert algebra_dimension([a], 4) == 4


def test_algebra_dimension_deficient_exact_fallback():
    # reducible generators: the certificate cannot reach full rank, so the
    # exact integer path must confirm the smaller dimension
    a = Matrix(QQ, [[0, 3, 0, 0], [1, 0, 0, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
    a_star = diagonal(QQ, KRAW_THETA)
    dim = algebra_dimension([a, a_star], 4)
    assert dim < 16


@pytest.mark.parametrize("rows, dim", [
    ([[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]], 16),
    ([[0, 3, 0, 0], [1, 0, 0, 0], [0, 2, 0, 1], [0, 0, 3, 0]], 12),
])
def test_algebra_dimension_agrees_across_fields(rows, dim):
    for spec in ("Q", "Fp:1000003", "Q(i)", "Fp2:103"):
        fld = parse_field(spec)
        gens = [Matrix(fld, rows), diagonal(fld, KRAW_THETA)]
        assert algebra_dimension(gens, 4) == dim, spec


# ---------------------------------------------------------------------------
# the raw kernels against boxed references
#
# The references below compute on FieldElement values only: a product by
# dot products of boxed entries, an inverse by the same Gauss-Jordan
# elimination on boxed entries, and the dagger map by boxed field division.
# ---------------------------------------------------------------------------

M61 = (1 << 61) - 1
KERNEL_FIELDS = ["Q", "Q(i)", "Q(sqrt:2)", "Q(sqrt:-3/5)", "Fp:2", "Fp:101",
                 f"Fp:{M61}", "Fp2:3", "Fp2:101", f"Fp2:{M61}"]


def _boxed_dot(row, col):
    it = zip(row, col)
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def _boxed_mul(x, y):
    cols = list(zip(*y.rows))
    return Matrix(x.field, [[_boxed_dot(row, col) for col in cols] for row in x.rows])


def _boxed_inverse(x):
    n = x.nrows
    work = [list(r) for r in x.rows]
    out = [list(r) for r in identity(x.field, n).rows]
    for i in range(n):
        piv = next((k for k in range(i, n) if not work[k][i].is_zero()), None)
        if piv is None:
            raise Singular("matrix is not invertible")
        if piv != i:
            work[i], work[piv] = work[piv], work[i]
            out[i], out[piv] = out[piv], out[i]
        inv = work[i][i].inverse()
        work[i] = [e * inv for e in work[i]]
        out[i] = [e * inv for e in out[i]]
        for k in range(n):
            if k != i and not work[k][i].is_zero():
                f = work[k][i]
                work[k] = [a - f * b for a, b in zip(work[k], work[i])]
                out[k] = [a - f * b for a, b in zip(out[k], out[i])]
    return Matrix(x.field, out)


def _boxed_dagger(sys, x):
    n = sys.d + 1
    k = [sys.K[i, i] for i in range(n)]
    return Matrix(sys.field, [[x[j, i] * (k[j] / k[i]) for j in range(n)] for i in range(n)])


def _typed(m):
    """Entries with the types of their raw values, so a raw True != 1."""
    def typed(v):
        return tuple(map(typed, v)) if isinstance(v, tuple) else (type(v), v)
    assert all(e.field == m.field for r in m.rows for e in r)
    return [[typed(e.value) for e in r] for r in m.rows]


def _base_elements(fld):
    if isinstance(fld, RationalField):
        return st.one_of(st.just(0), st.integers(-9, 9),
                         st.fractions(-30, 30, max_denominator=60))
    return st.one_of(st.just(0), st.integers(0, fld.p - 1))


def _elements(fld):
    # extension elements are put together from their coordinates, so that
    # no draw depends on the extension's own arithmetic
    if isinstance(fld, QuadraticExtension):
        base = _base_elements(fld.base).map(lambda e: fld.base(e).value)
        return st.tuples(base, base).map(lambda ab: FieldElement(fld, ab))
    return _base_elements(fld).map(fld)


@st.composite
def _matrices(draw, fld, n, m):
    rows = [[draw(_elements(fld)) for _ in range(m)] for _ in range(n)]
    zero_row = draw(st.none() | st.integers(0, n - 1))
    if zero_row is not None:
        rows[zero_row] = [fld.zero] * m
    return Matrix(fld, rows)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_matches_boxed_reference(spec, data):
    fld = parse_field(spec)
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    x = data.draw(_matrices(fld, n, k))
    y = data.draw(_matrices(fld, k, m))
    assert _typed(x * y) == _typed(_boxed_mul(x, y))


def _zeros_are_shared(m):
    """Every zero entry of m, and over an extension every zero coordinate,
    is the field's shared zero."""
    fld = m.field
    ext = isinstance(fld, QuadraticExtension)
    zero = (fld.base if ext else fld)._zero_raw
    coords = [c for row in m.raw for v in row for c in (v if ext else (v,))]
    return all(c is zero for c in coords if c == zero)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_zero_entries_are_the_shared_zero(spec, data):
    # so that equality on raw tuples short-circuits on identity at zeros
    fld = parse_field(spec)
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    x = data.draw(_matrices(fld, n, k))
    y = data.draw(_matrices(fld, k, m))
    assert _zeros_are_shared(x * y)


@st.composite
def _monomials(draw, fld, n, m):
    """An n x m matrix with at most one nonzero in each row and column: a
    partial permutation times scales drawn zero, one, minus one or free."""
    cols = draw(st.permutations(range(max(n, m))))
    scale = st.sampled_from([fld.zero, fld.one, -fld.one]) | _elements(fld)
    rows = [[fld(0)] * m for _ in range(n)]
    for i in range(n):
        if cols[i] < m:
            rows[i][cols[i]] = draw(scale)
    return Matrix(fld, rows)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_monomial_products_match_boxed_reference(spec, data):
    # a monomial operand on the left copies and scales the other's rows, on
    # the right its columns; zero rows, zero columns and rectangular shapes
    # down to 1 x 1 are drawn, and zeros stay the shared zero
    fld = parse_field(spec)
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    pairs = [(data.draw(_monomials(fld, n, k)), data.draw(_matrices(fld, k, m))),
             (data.draw(_matrices(fld, n, k)), data.draw(_monomials(fld, k, m))),
             (data.draw(_monomials(fld, n, k)), data.draw(_monomials(fld, k, m)))]
    for x, y in pairs:
        got = x * y
        assert _typed(got) == _typed(_boxed_mul(x, y))
        assert _zeros_are_shared(got)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
def test_diagonal_and_exchange_operands_skip_the_dense_kernel(spec, monkeypatch):
    # A* = diag(theta*) and S = J on either side of a dense matrix are
    # scaled copies; the field's dense kernel is never called
    fld = parse_field(spec)
    s = fld.gen() if isinstance(fld, QuadraticExtension) else fld.one
    n = 4
    dense = Matrix(fld, [[fld(3 * i + j + 1) + s * fld(i * j - 1) for j in range(n)]
                         for i in range(n)])
    J = Matrix.from_raw(fld, identity(fld, n).raw[::-1])
    mono = [diagonal(fld, [2, 0, -1, 3]), J, identity(fld, n), J * diagonal(fld, [1, -1, 5, 0])]
    expected = [(_typed(_boxed_mul(x, dense)), _typed(_boxed_mul(dense, x))) for x in mono]

    def refuse(rows, cols):
        raise AssertionError("dense kernel called on a monomial operand")

    monkeypatch.setattr(fld, "_matmul", refuse)
    assert [(_typed(x * dense), _typed(dense * x)) for x in mono] == expected
    with pytest.raises(AssertionError, match="dense kernel"):
        dense * dense


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scalar_multiplies_alike_on_either_side(spec, data):
    fld = parse_field(spec)
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    x = data.draw(_matrices(fld, n, m))
    s = data.draw(_elements(fld))
    expected = _typed(Matrix(fld, [[s * e for e in row] for row in x.rows]))
    assert _typed(s * x) == _typed(x * s) == expected
    k = data.draw(st.integers(-9, 9))
    assert _typed(k * x) == _typed(x * k) == _typed(x * fld(k))


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_matches_boxed_reference(spec, data):
    fld = parse_field(spec)
    x = data.draw(_matrices(fld, *[data.draw(st.integers(1, 5))] * 2))
    try:
        expected = _boxed_inverse(x)
    except Singular:
        with pytest.raises(Singular):
            x.inverse()
        return
    assert _typed(x.inverse()) == _typed(expected)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dagger_matches_boxed_reference(spec, data):
    fld = parse_field(spec)
    n = data.draw(st.integers(1, 5))
    nonzero = _elements(fld).filter(lambda e: not e.is_zero())
    ks = [data.draw(nonzero) for _ in range(n)]
    sys = SimpleNamespace(d=n - 1, field=fld, K=diagonal(fld, ks))
    x = data.draw(_matrices(fld, n, n))
    if data.draw(st.booleans()):
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        keep = data.draw(st.sets(cell, max_size=n))
        x = Matrix(fld, [[x[i, j] if (i, j) in keep else fld.zero for j in range(n)]
                         for i in range(n)])
    assert _typed(dagger(sys, x)) == _typed(_boxed_dagger(sys, x))


@pytest.mark.parametrize("spec", ["Q", "Q(sqrt:7/3)"])
def test_kernels_over_many_denominators(spec):
    fld = parse_field(spec)
    s = fld.gen() if isinstance(fld, QuadraticExtension) else fld.one
    x = Matrix(fld, [[fld(Fraction(i - 2 * j, 1 + i + 3 * j)) + s * fld(Fraction(1, 2 + i * j))
                      for j in range(4)] for i in range(5)])
    y = Matrix(fld, [[fld(Fraction(7 * i + 1, 5 + j * j)) for j in range(6)]
                     for i in range(4)])
    assert _typed(x * y) == _typed(_boxed_mul(x, y))
    square = x.transpose() * x
    assert _typed(square.inverse()) == _typed(_boxed_inverse(square))


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sub_scaled_matches_boxed_reference(spec, data):
    fld = parse_field(spec)
    vec, row = data.draw(_matrices(fld, 2, data.draw(st.integers(1, 6)))).rows
    x = data.draw(_elements(fld))
    got = fld._sub_scaled([e.value for e in vec], x.value, [e.value for e in row])
    expected = [a - x * b for a, b in zip(vec, row)]
    assert _typed(Matrix.from_raw(fld, [got])) == _typed(Matrix(fld, [expected]))


# ---------------------------------------------------------------------------
# the raw representation against boxed entrywise references
#
# A Matrix stores raw values; the references below compute entry by entry on
# the FieldElements of m.rows and box the result with Matrix(field, rows).
# ---------------------------------------------------------------------------

def _boxed_entrywise(f, *mats):
    return Matrix(mats[0].field, [[f(*entries) for entries in zip(*rows)]
                                  for rows in zip(*(m.rows for m in mats))])


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_entrywise_operations_match_boxed_reference(spec, data):
    fld = parse_field(spec)
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    x = data.draw(_matrices(fld, n, m))
    y = data.draw(_matrices(fld, n, m))
    assert _typed(x + y) == _typed(_boxed_entrywise(lambda a, b: a + b, x, y))
    assert _typed(x - y) == _typed(_boxed_entrywise(lambda a, b: a - b, x, y))
    assert _typed(-x) == _typed(_boxed_entrywise(lambda a: -a, x))
    for s in (data.draw(_elements(fld)), data.draw(st.integers(-5, 5))):
        assert _typed(x * s) == _typed(_boxed_entrywise(lambda a: a * s, x))
        assert _typed(s * x) == _typed(_boxed_entrywise(lambda a: s * a, x))
    assert _typed(x.transpose()) == _typed(Matrix(fld, list(zip(*x.rows))))


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_comparisons_match_boxed_reference(spec, data):
    fld = parse_field(spec)
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    x = data.draw(_matrices(fld, n, m))
    y = data.draw(st.just(x) | _matrices(fld, n, m))
    assert (x == y) == (x.rows == y.rows)
    assert (x != y) == (x.rows != y.rows)
    copy = Matrix(fld, x.rows)
    assert copy == x and hash(copy) == hash(x)
    if x == y:
        assert hash(x) == hash(y)
    assert x.is_zero() == all(e.is_zero() for r in x.rows for e in r)
    assert (x - x).is_zero() and zeros(fld, n, m).is_zero()


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_indexing_and_rows_box_the_stored_values(spec, data):
    fld = parse_field(spec)
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = [[data.draw(_elements(fld)) for _ in range(m)] for _ in range(n)]
    x = Matrix(fld, entries)
    expected = _typed(SimpleNamespace(field=fld, rows=entries))
    assert _typed(x) == expected
    assert _typed(SimpleNamespace(field=fld, rows=[[x[i, j] for j in range(m)]
                                                   for i in range(n)])) == expected
    assert x.shape == (n, m) and isinstance(x.rows, tuple)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_diagonal_entries_match_boxed_reference(spec, data):
    # square and non-square, diagonal, scalar, and diagonal but for one
    # entry; triple._is_scalar reads diagonal_entries
    from tbtridiag.triple import _is_scalar

    fld = parse_field(spec)
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rows = [list(r) for r in data.draw(_matrices(fld, n, m)).rows]
    kind = data.draw(st.sampled_from(["any", "diagonal", "scalar", "one off the diagonal"]))
    if kind != "any":
        lead = data.draw(_elements(fld))
        rows = [[(lead if kind == "scalar" else v) if i == j else fld.zero
                 for j, v in enumerate(row)] for i, row in enumerate(rows)]
    off = [(i, j) for i in range(n) for j in range(m) if i != j]
    if kind == "one off the diagonal" and off:
        i, j = data.draw(st.sampled_from(off))
        rows[i][j] = data.draw(_elements(fld).filter(lambda e: not e.is_zero()))
    is_diagonal = n == m and all(rows[i][j].is_zero() for i, j in off)
    expected = tuple(rows[i][i].value for i in range(n)) if is_diagonal else None
    x = Matrix(fld, rows)
    assert diagonal_entries(x) == expected
    assert _is_scalar(x) == (is_diagonal and not rows[0][0].is_zero()
                             and all(rows[i][i] == rows[0][0] for i in range(n)))


# ---------------------------------------------------------------------------
# the algebra dimension by reachability against the product closure
#
# With a diagonal generator of pairwise distinct entries, algebra_dimension
# counts reachable pairs; the closure, with the echelon it runs over each
# field, is the reference.
# ---------------------------------------------------------------------------

def _closure_dimension(gens, n):
    return _closure_rank(gens[0].field, gens, n)


@st.composite
def _sparse_matrices(draw, fld, n):
    nonzero = _elements(fld).filter(lambda e: not e.is_zero())
    return Matrix(fld, [[draw(nonzero) if draw(st.booleans()) else fld.zero
                         for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_algebra_dimension_by_reachability_matches_the_closure(spec, data):
    fld = parse_field(spec)
    size = fld.characteristic ** (2 if isinstance(fld, QuadraticExtension) else 1)
    n = data.draw(st.integers(1, min(5, size) if size else 5))
    thetas = data.draw(st.lists(_elements(fld), min_size=n, max_size=n, unique=True))
    gens = [data.draw(_sparse_matrices(fld, n))
            for _ in range(data.draw(st.integers(1, 2)))]
    gens.insert(data.draw(st.integers(0, len(gens))), diagonal(fld, thetas))
    assert algebra_dimension(gens, n) == _closure_dimension(gens, n)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_spectral_sum_matches_boxed_reference(spec, data):
    # sum t_i E_i is taken as one kernel product; the reference sums boxed
    # entries
    fld = parse_field(spec)
    n, m, k = (data.draw(st.integers(1, 5)) for _ in range(3))
    mats = [data.draw(_matrices(fld, n, m)) for _ in range(k)]
    weights = [data.draw(_elements(fld)) for _ in range(k)]
    expected = Matrix(fld, [[_boxed_dot([x[i, j] for x in mats], weights)
                             for j in range(m)] for i in range(n)])
    assert _typed(spectral_sum(mats, weights)) == _typed(expected)


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_antidiagonal_scan_matches_the_matrix_unit_products(spec, data):
    # involutions_check decides "S E*_i = E*_{d-i} S" for every i by
    # is_antidiagonal(S); the oracle is the 2n products it replaced
    fld = parse_field(spec)
    n = data.draw(st.integers(1, 5))
    x = data.draw(_matrices(fld, n, n))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    keep = data.draw(st.sets(cell, max_size=2))
    x = Matrix(fld, [[x[k, i] if k + i == n - 1 or (k, i) in keep else fld.zero
                      for i in range(n)] for k in range(n)])
    units = [diagonal(fld, [int(j == i) for j in range(n)]) for i in range(n)]
    assert is_antidiagonal(x) == all(x * units[i] == units[n - 1 - i] * x
                                     for i in range(n))


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_reversal_matches_the_triple_loop(spec, data):
    # dagger_report records the involution and product-reversal verdicts
    # True, as field identities of any nonzero k_0, ..., k_d: the ratio
    # table r[i][j] = k_j / k_i passes the involution loop and the n^3
    # reversal loop that it once decided (X = e_lj, Y = e_ji)
    fld = parse_field(spec)
    n = data.draw(st.integers(1, 5))
    k = [data.draw(_elements(fld).filter(lambda e: not e.is_zero()))
         for _ in range(n)]
    r = [[(kj / ki).value for kj in k] for ki in k]
    mul, one = fld._mul, fld._one_raw
    assert all(mul(r[i][j], r[j][i]) == one for i in range(n) for j in range(n))
    assert all(mul(r[i][j], r[j][l]) == r[i][l]
               for i in range(n) for j in range(n) for l in range(n))


EXTENSION_FIELDS = ["Q(i)", "Q(sqrt:2)", "Q(sqrt:-3/5)", "Q(sqrt:7/2)",
                    "Fp2:3", "Fp2:101", f"Fp2:{M61}"]


def _coordinate_product(fld, u, v):
    """(a + b s)(c + e s) = (ac + D be) + (ae + bc) s on base-field
    FieldElements, as a raw pair."""
    (a, b), (c, e) = ((FieldElement(fld.base, x) for x in w.value) for w in (u, v))
    return ((a * c + fld.d * b * e).value, (a * e + b * c).value)


@pytest.mark.parametrize("spec", EXTENSION_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_extension_kernels_match_the_coordinate_formula(spec, data):
    # an oracle independent of the extension's own _mul: every coordinate is
    # formed by base-field arithmetic alone
    fld = parse_field(spec)
    u, v = data.draw(_elements(fld)), data.draw(_elements(fld))
    got = Matrix.from_raw(fld, [[fld._mul(u.value, v.value)]])
    assert _typed(got) == _typed(Matrix.from_raw(fld, [[_coordinate_product(fld, u, v)]]))
    n, m, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    x, y = data.draw(_matrices(fld, n, m)), data.draw(_matrices(fld, m, k))
    assert _typed(x * y) == _typed(_coordinate_matmul(x, y))


def _coordinate_matmul(x, y):
    """x y with every coordinate summed from _coordinate_product."""
    fld, base_zero = x.field, x.field.base.zero
    expected = []
    for i in range(x.nrows):
        row = []
        for j in range(y.ncols):
            re, im = base_zero, base_zero
            for l in range(x.ncols):
                a, b = _coordinate_product(fld, x[i, l], y[l, j])
                re, im = re + FieldElement(fld.base, a), im + FieldElement(fld.base, b)
            row.append((re.value, im.value))
        expected.append(row)
    return Matrix.from_raw(fld, expected)


EXTENSION_KERNEL_FIELDS = [s for s in KERNEL_FIELDS
                           if isinstance(parse_field(s), QuadraticExtension)]


@st.composite
def _base_valued(draw, fld, n, m):
    """An n x m matrix over the extension fld whose sqrt(d) block is zero."""
    return Matrix(fld, [[fld(draw(_base_elements(fld.base))) for _ in range(m)]
                        for _ in range(n)])


@pytest.mark.parametrize("spec", EXTENSION_KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_base_valued_extension_products_match_the_coordinate_formula(spec, data):
    # a zero sqrt(d) block on one side forms XZ + (XT) s or XZ + (YZ) s on
    # the base's kernel, on both sides XZ alone; zero coordinates stay the
    # base's shared zero.  Each operand is also multiplied as a 1 x 1 element.
    fld = parse_field(spec)
    n, m, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    for left, right in ((_base_valued, _matrices), (_matrices, _base_valued),
                        (_base_valued, _base_valued)):
        x, y = data.draw(left(fld, n, m)), data.draw(right(fld, m, k))
        got = x * y
        assert _typed(got) == _typed(_coordinate_matmul(x, y))
        assert _zeros_are_shared(got)
        u, v = x[0, 0], y[0, 0]
        prod = Matrix.from_raw(fld, [[fld._mul(u.value, v.value)]])
        assert _typed(prod) == _typed(Matrix.from_raw(fld, [[_coordinate_product(fld, u, v)]]))
        assert _zeros_are_shared(prod)


@pytest.mark.parametrize("spec", EXTENSION_KERNEL_FIELDS)
def test_base_valued_extension_products_cancel_to_the_shared_zero(spec):
    # [1 1] times (u, -u), (u, 1 - s) and (u, s - 1) for u = 1 + s cancels
    # both coordinates, then the sqrt(d) one, then the first one; likewise
    # with the base-valued operand on the right, and on both sides
    fld = parse_field(spec)
    s = fld.gen()
    u = fld.one + s
    ones, signs = Matrix(fld, [[1, 1]]), Matrix(fld, [[1], [-1]])
    cases = [(ones, Matrix(fld, [[u], [w]])) for w in (-u, fld.one - s, s - fld.one)]
    cases += [(Matrix(fld, [[u, u]]), signs), (ones, signs)]
    for x, y in cases:
        got = x * y
        assert _typed(got) == _typed(_coordinate_matmul(x, y))
        assert _zeros_are_shared(got)
    assert (ones * signs).is_zero() and (cases[0][0] * cases[0][1]).is_zero()


@pytest.mark.parametrize("spec", EXTENSION_KERNEL_FIELDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_base_valued_extension_inverse_stays_in_the_base(spec, data):
    # 1/a for a in the base is the base's inverse with a shared zero sqrt(d)
    # coordinate, and the coordinate formula multiplies it back to one
    fld = parse_field(spec)
    a = data.draw(_base_elements(fld.base).map(fld).filter(lambda e: not e.is_zero()))
    inv = FieldElement(fld, fld._inv(a.value))
    base_inv = FieldElement(fld.base, a.value[0]).inverse().value
    assert _typed(Matrix.from_raw(fld, [[inv.value]])) == \
        _typed(Matrix.from_raw(fld, [[(base_inv, fld.base._zero_raw)]]))
    assert inv.value[1] is fld.base._zero_raw
    assert _coordinate_product(fld, a, inv) == fld._one_raw


@st.composite
def _rank_one_families(draw, fld, n):
    """RankOneFamily factors u_i, w_i with first entry 1, as the recurrence
    gives them; w_i = e_0 where w_i^t u_i vanishes.  Built on boxed entries."""
    us, ws, norms = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        u = [fld.one] + [draw(_elements(fld)) for _ in range(n - 1)]
        w = [fld.one] + [draw(_elements(fld)) for _ in range(n - 1)]
        norm = _boxed_dot(w, u)
        if norm.is_zero():
            w, norm = [fld.one] + [fld.zero] * (n - 1), fld.one
        us.append(tuple(v.value for v in u))
        ws.append(tuple(v.value for v in w))
        norms.append(norm.value)
    return RankOneFamily(fld, tuple(us), tuple(ws), tuple(norms))


def _sandwich_scalars(fam, m):
    """W^t M U, whose (i, j) entry is w_i^t M u_j."""
    return Matrix.from_raw(fam.field, fam.w) * m * Matrix.from_raw(fam.field, zip(*fam.u))


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_one_factors_decide_sandwiches(spec, data):
    # E_i = u_i w_i^t / N_i on boxed entries is what indexing the family
    # forms; E_i M E_j vanishes exactly when w_i^t M u_j does, and the
    # factor product is the dense spectral sum
    fld = parse_field(spec)
    n = data.draw(st.integers(1, 5))
    fam = data.draw(_rank_one_families(fld, n))
    box = lambda v: FieldElement(fld, v)
    idems = [Matrix(fld, [[box(a) * box(b) / box(norm) for b in w] for a in u])
             for u, w, norm in zip(fam.u, fam.w, fam.norms)]
    assert list(fam) == idems
    m = data.draw(_matrices(fld, n, n))
    scalars = _sandwich_scalars(fam, m)
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            assert scalars[i, j].is_zero() == _boxed_mul(_boxed_mul(ei, m), ej).is_zero()
    weights = [data.draw(_elements(fld)) for _ in idems]
    assert spectral_sum(fam, weights) == spectral_sum(idems, weights)


@st.composite
def _any_rank_one_idempotents(draw, fld, n):
    """E = u w^t / (w^t u) with u and w free, so that E[0, 0] may vanish, as
    it can in a Lagrange family; w = e_k at a nonzero u_k where w^t u = 0."""
    u = [draw(_elements(fld)) for _ in range(n)]
    if all(v.is_zero() for v in u):
        u[draw(st.integers(0, n - 1))] = fld.one
    w = [draw(_elements(fld)) for _ in range(n)]
    norm = _boxed_dot(w, u)
    if norm.is_zero():
        k = next(k for k, v in enumerate(u) if not v.is_zero())
        w, norm = [fld.one if l == k else fld.zero for l in range(n)], u[k]
    return Matrix(fld, [[a * b / norm for b in w] for a in u])


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_one_factors_decide_sandwiches_off_the_first_row(spec, data):
    # read_off takes the factors from row and column k at the first nonzero
    # diagonal entry, which a rank-one idempotent has: its trace is 1; they
    # rebuild each E_i and decide its sandwiches
    fld = parse_field(spec)
    n = data.draw(st.integers(1, 5))
    idems = [data.draw(_any_rank_one_idempotents(fld, n))
             for _ in range(data.draw(st.integers(1, 3)))]
    m = data.draw(_matrices(fld, n, n))
    fam = RankOneFamily.read_off(idems)
    assert list(fam) == idems
    scalars = _sandwich_scalars(fam, m)
    for i, ei in enumerate(idems):
        k = next(k for k in range(n) if not ei[k, k].is_zero())
        assert fam.w[i] == ei.raw[k]
        assert list(fam.u[i]) == [ei.raw[l][k] for l in range(n)]
        for j, ej in enumerate(idems):
            assert scalars[i, j].is_zero() == _boxed_mul(_boxed_mul(ei, m), ej).is_zero()
