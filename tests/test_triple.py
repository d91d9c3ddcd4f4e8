import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbtridiag.arrays import Family, generate_family
from tbtridiag.errors import (BetaInvalid, KappaMismatch, NoSquareRootInField,
                              NotSelfDual, RelationViolation, Singular)
from tbtridiag.fields import QQ, PrimeField, QQi, parse_field
from tbtridiag.matrices import (Matrix, diagonal, diagonal_entries, identity,
                                primitive_idempotents, spectral_sum)
from tbtridiag.report import ReportBuilder
from tbtridiag.system import build_system, dagger, dagger_map
from tbtridiag import triple
from tbtridiag.triple import (LeonardTriple, WData, antiautomorphism_report,
                              antiautomorphisms, braid_check, build_C,
                              build_W, expected_kappa, rho_automorphism,
                              sigma_and_psl2z, spectral_elements,
                              triple_scalars)


def _units(fld, n):
    """The idempotents E'_i of B = diag(theta), the matrix units e_ii, built here."""
    return tuple(diagonal(fld, [int(i == j) for j in range(n)]) for i in range(n))


def _triple(fld, family, d, q=None, beta=None, h=1):
    system = build_system(generate_family(fld, family, d, h=h, q=q))
    sc = triple_scalars(system.array, beta=beta)
    tri = build_C(system, sc)
    return system, tri, build_W(tri)


@pytest.fixture(scope="module")
def golden1():
    """d = 1, h = 1 over Q(i): the Pauli-style triple."""
    return _triple(QQi(), Family.SMALL_D1, 1)


@pytest.fixture(scope="module")
def golden_bi4():
    """Bannai/Ito d = 4 over Q: the anticommutator triple."""
    return _triple(QQ, Family.BANNAI_ITO, 4)


def test_scalars_beta_two(golden1):
    _, tri, _ = golden1
    sc = tri.scalars
    Qi = QQi()
    i = Qi.gen()
    assert sc.beta == Qi(2) and sc.rho == Qi(4)
    assert sc.h == Qi.one
    assert sc.z == 2 * i


def test_scalars_beta_minus_two(golden_bi4):
    _, tri, _ = golden_bi4
    sc = tri.scalars
    assert sc.beta == QQ(-2) and sc.rho == QQ(4)
    assert sc.h == QQ.one and sc.z == QQ(2)


def test_scalars_generic_beta():
    Qi = QQi()
    system = build_system(generate_family(Qi, Family.QRACAH_ODD, 3, q=2))
    sc = triple_scalars(system.array)
    # z^2 = rho / (4 - beta^2) = -h^2 with h = theta_0 / (q^d - q^{-d}) = 2/3
    assert sc.h == Qi(2) / 3
    assert sc.z == (Qi(2) / 3) * Qi.gen()
    assert sc.q == Qi(2)


def test_scalars_errors():
    system = build_system(generate_family(QQ, Family.KRAWTCHOUK, 3))
    with pytest.raises(NoSquareRootInField) as err:
        triple_scalars(system.array)
    assert "Q(i)" in str(err.value)
    asym = build_system(generate_family(QQ, Family.KRAWTCHOUK, 3, h=1, h_star=2))
    with pytest.raises(NotSelfDual):
        triple_scalars(asym.array)
    with pytest.raises(BetaInvalid):
        triple_scalars(system.array, beta=QQ(3))
    # at d = 1 every beta is a fundamental parameter, but beta = -2 gives
    # rho = 0 and so z = 0
    Qi = QQi()
    small = build_system(generate_family(Qi, Family.SMALL_D1, 1))
    with pytest.raises(BetaInvalid, match="z = 0"):
        triple_scalars(small.array, beta=Qi(-2))
    assert triple_scalars(small.array, beta=Qi(2)).rho == Qi(4)


def test_build_C_golden(golden1):
    system, tri, _ = golden1
    Qi = QQi()
    i = Qi.gen()
    assert tri.A == Matrix(Qi, [[0, 1], [1, 0]])
    assert tri.B == diagonal(Qi, [1, -1])
    assert tri.C == Matrix(Qi, [[Qi.zero, i], [-i, Qi.zero]])
    # first cyclic relation, directly
    assert tri.B * tri.C - tri.C * tri.B == tri.A * (2 * i)


def test_build_C_anticommutator_case(golden_bi4):
    _, tri, _ = golden_bi4
    assert tri.B * tri.C + tri.C * tri.B == tri.A * 2
    assert tri.C * tri.A + tri.A * tri.C == tri.B * 2


def test_C_recomposes_from_idempotents(golden1, golden_bi4):
    for system, tri, _ in (golden1, golden_bi4):
        theta = system.array.theta
        acc = tri.E_dprime[0] * theta[0]
        total = tri.E_dprime[0]
        for i in range(1, len(theta)):
            acc = acc + tri.E_dprime[i] * theta[i]
            total = total + tri.E_dprime[i]
        assert acc == tri.C
        assert total == identity(tri.field, tri.d + 1)


def test_weights_and_W_golden(golden1):
    system, tri, w = golden1
    Qi = QQi()
    i = Qi.gen()
    assert w.t == (Qi.one, -i)
    half = Qi(1) / 2
    assert w.W == Matrix(Qi, [[(Qi.one - i) * half, (Qi.one + i) * half],
                              [(Qi.one + i) * half, (Qi.one - i) * half]])
    assert w.kappa == -i
    assert w.P * w.P * w.P == identity(Qi, 2) * -i


def test_weights_square_to_one_in_anticommutator_case(golden_bi4):
    _, tri, w = golden_bi4
    assert all(t * t == QQ.one for t in w.t)
    assert w.W * w.W == identity(QQ, 5)


def test_kappa_table():
    Qi = QQi()
    # beta = 2 over Q(i); independent recomputation of the table value
    for d in (1, 2, 3, 4):
        _, tri, w = _triple(Qi, [Family.SMALL_D1, Family.SMALL_D2,
                                 Family.KRAWTCHOUK, Family.KRAWTCHOUK][d - 1], d)
        sc = tri.scalars
        expect = Qi(-1) ** d * (2 * sc.h) ** (-d) * sc.z ** d
        assert w.kappa == expect == expected_kappa(sc, d)
    # beta = -2 over Q: kappa = 1 identically
    for d in (2, 4):
        _, tri, w = _triple(QQ, Family.BANNAI_ITO, d, beta=QQ(-2))
        assert w.kappa == QQ.one
    # generic beta over Q(i)
    for d, fam in ((3, Family.QRACAH_ODD), (4, Family.QRACAH_EVEN)):
        _, tri, w = _triple(Qi, fam, d, q=2)
        sc = tri.scalars
        expect = Qi(-1) ** d * sc.h ** (-d) * sc.z ** d * sc.q ** (d * (d - 1))
        assert w.kappa == expect


def test_braid_relations(golden1, golden_bi4):
    for _, _, w in (golden1, golden_bi4):
        report = braid_check(w)
        assert report.passed, report.failures()


def test_braid_fails_on_perturbed_weight(golden1):
    system, tri, w = golden1
    bad_t = (w.t[0], w.t[1] + 1)
    W = spectral_sum(tri.E, bad_t)
    W_prime = diagonal(tri.field, bad_t)
    W_dprime = spectral_sum(tri.E_dprime, bad_t)
    bad = WData(W, W_prime, W_dprime, W_prime * W, bad_t, w.kappa)
    report = braid_check(bad)
    assert not report.passed
    fail = report.failures()[0]
    assert fail.witness and "entry" in fail.witness


def test_rho_cycles(golden1, golden_bi4):
    for system, tri, w in (golden1, golden_bi4):
        assert rho_automorphism(w, tri.A) == tri.B
        assert rho_automorphism(w, tri.B) == tri.C
        assert rho_automorphism(w, tri.C) == tri.A
        assert rho_automorphism(w, w.P) == w.P
        x = Matrix(tri.field, [[2, 3], [5, 7]]) if tri.d == 1 else \
            Matrix(tri.field, [[(a * b) % 5 for b in range(5)] for a in range(1, 6)])
        y = rho_automorphism(w, rho_automorphism(w, rho_automorphism(w, x)))
        assert y == x


def test_dagger_action_on_C(golden1, golden_bi4):
    system, tri, _ = golden1
    assert dagger(system, tri.C) == -tri.C  # commutator case flips C
    system, tri, _ = golden_bi4
    assert dagger(system, tri.C) == tri.C  # anticommutator case fixes C


def test_ddagger_swaps(golden1):
    system, tri, w = golden1
    maps = antiautomorphisms(system, tri, w)
    assert maps.ddagger(tri.B) == tri.C
    assert maps.ddagger(tri.C) == tri.B
    assert maps.ddagger(tri.A) == tri.A
    assert maps.ddagger_pp(tri.A) == tri.B
    assert maps.ddagger_pp(tri.B) == tri.A


def test_antiautomorphism_reports(golden1, golden_bi4):
    for system, tri, w in (golden1, golden_bi4):
        report = antiautomorphism_report(system, tri, w)
        assert report.passed, report.failures()


def test_antiautomorphism_report_generic_case():
    system, tri, w = _triple(QQi(), Family.QRACAH_ODD, 3, q=2)
    report = antiautomorphism_report(system, tri, w)
    assert report.passed, report.failures()


def test_twists_are_inverse_pairs(golden1, golden_bi4):
    for system, tri, w in (golden1, golden_bi4):
        eye = identity(system.field, system.d + 1)
        twists = triple._twists(w, dagger(system, w.P), dagger(system, w.P_inv))
        assert len(twists) == 5
        for t, t_inv in twists:
            assert t * t_inv == eye


def test_sigma_swaps(golden1, golden_bi4):
    for system, tri, w in (golden1, golden_bi4):
        report = sigma_and_psl2z(system, tri, w)
        assert report.passed, report.failures()
    # in the anticommutator case dagger fixes C, so sigma does too
    system, tri, w = golden_bi4
    T = w.W * w.W_prime * w.W
    assert T * tri.C * T.inverse() == tri.C


def test_sigma_golden_matrices(golden1):
    system, tri, w = golden1
    T = w.W * w.W_prime * w.W
    Tinv = T.inverse()
    assert T * tri.A * Tinv == tri.B
    assert T * tri.B * Tinv == tri.A


def test_normalized_cyclic_relations_commutator():
    # rho = 4, z = 2 sqrt(-1): the three commutator relations with their
    # literal constants
    Qi = QQi()
    i = Qi.gen()
    for fam, d in ((Family.SMALL_D1, 1), (Family.KRAWTCHOUK, 3)):
        _, tri, _ = _triple(Qi, fam, d)
        A, B, C = tri.A, tri.B, tri.C
        assert B * C - C * B == A * (2 * i)
        assert C * A - A * C == B * (2 * i)
        assert A * B - B * A == C * (2 * i)


def test_normalized_cyclic_relations_anticommutator(golden_bi4):
    _, tri, _ = golden_bi4
    A, B, C = tri.A, tri.B, tri.C
    assert B * C + C * B == A * 2
    assert C * A + A * C == B * 2
    assert A * B + B * A == C * 2


def test_normalized_cyclic_relations_generic():
    # h chosen so rho = 4 - beta^2 and z = 1
    Qi = QQi()
    i = Qi.gen()
    q = Qi(2)
    h_ex = i * (q - q.inverse())
    system = build_system(generate_family(Qi, Family.QRACAH_ODD, 3, h=h_ex, q=q))
    sc = triple_scalars(system.array)
    assert sc.h == i and sc.z == Qi.one
    tri = build_C(system, sc)
    A, B, C = tri.A, tri.B, tri.C
    denom = q * q - (q * q).inverse()
    assert (q * (B * C) - q.inverse() * (C * B)) == A * denom
    assert (q * (C * A) - q.inverse() * (A * C)) == B * denom
    assert (q * (A * B) - q.inverse() * (B * A)) == C * denom


def test_triple_over_prime_field():
    F101 = PrimeField(101)
    system, tri, w = _triple(F101, Family.KRAWTCHOUK, 3)
    assert tri.scalars.z == F101(2) * F101(10)  # 10^2 = -1 mod 101
    for report in (braid_check(w), antiautomorphism_report(system, tri, w),
                   sigma_and_psl2z(system, tri, w)):
        assert report.passed, report.failures()


def test_d2_beta_choice():
    # for d = 2 the fundamental parameter is free: both completions exist
    system = build_system(generate_family(QQ, Family.BANNAI_ITO, 2))
    sc = triple_scalars(system.array, beta=QQ(-2))
    assert sc.z == QQ(2)
    tri = build_C(system, sc)
    w = build_W(tri)
    assert braid_check(w).passed
    Qi = QQi()
    system_i = build_system(generate_family(Qi, Family.SMALL_D2, 2, h=1))
    sc2 = triple_scalars(system_i.array)  # defaults to beta = 2
    assert sc2.beta == Qi(2)
    assert build_W(build_C(system_i, sc2)).kappa == expected_kappa(sc2, 2)


WORDS_CHECK = "sampled words agree with their r^3 = s^2 = 1 normal forms"


def _enumerated_words_check(w, maxlen=4):
    """Reference: every word of length <= maxlen in r -> P^-1, s -> T^-1
    against its normal form, as products of the generators."""
    P, T = w.P, w.W * w.W_prime * w.W
    gens = {"r": P.inverse(), "s": T.inverse()}
    gens_inv = {"r": P, "s": T}

    def product(table, word):
        m = identity(P.field, P.nrows)
        for letter in word:
            m = m * table[letter]
        return m

    words = [""]
    for _ in range(maxlen):
        words = [base + letter for base in words for letter in "rs"]
        for word in words:
            nf = word
            while "rrr" in nf or "ss" in nf:
                nf = nf.replace("rrr", "").replace("ss", "")
            # the conjugator of nf is inverted by the reversed word in P, T
            if not triple._is_scalar(product(gens, word) * product(gens_inv, nf[::-1])):
                return False, f"word {word} != its normal form {nf or '1'}"
    return True, None


def _words_check(system, tri, w):
    check = next(c for c in sigma_and_psl2z(system, tri, w) if c.name == WORDS_CHECK)
    return check.passed, check.witness


@pytest.mark.parametrize("spec, family, d, beta", [
    ("Q(i)", Family.KRAWTCHOUK, 3, None),
    ("Q", Family.BANNAI_ITO, 4, -2),
    ("Fp:101", Family.KRAWTCHOUK, 3, None),
    ("Fp2:103", Family.KRAWTCHOUK, 3, None),
])
def test_words_check_matches_enumeration_on_built_triples(spec, family, d, beta):
    fld = parse_field(spec)
    system, tri, w = _triple(fld, family, d, beta=None if beta is None else fld(beta))
    assert _words_check(system, tri, w) == _enumerated_words_check(w) == (True, None)


def test_words_check_matches_enumeration_on_broken_wdata(golden_bi4):
    system, tri, w = golden_bi4
    scale = diagonal(QQ, range(2, tri.d + 3))
    # scaling W leaves P alone but makes T^2 non-central: ss fails first
    bad_w = dataclasses.replace(w, W=scale * w.W)
    assert _words_check(system, tri, bad_w) == _enumerated_words_check(bad_w) \
        == (False, "word ss != its normal form 1")
    # scaling P leaves T alone but makes P^3 non-central: rrr fails first
    bad_p = dataclasses.replace(w, P=scale * w.P)
    assert _words_check(system, tri, bad_p) == _enumerated_words_check(bad_p) \
        == (False, "word rrr != its normal form 1")
    # with both broken, ss (length 2) comes before rrr
    bad_both = dataclasses.replace(bad_w, P=scale * w.P)
    assert _words_check(system, tri, bad_both) == _enumerated_words_check(bad_both) \
        == (False, "word ss != its normal form 1")


# ---------------------------------------------------------------------------
# Inverses from the spectral data, against Gauss-Jordan as the oracle
# ---------------------------------------------------------------------------

GOLDEN_TRIPLES = [
    ("Q", Family.BANNAI_ITO, 4, None, -2),
    ("Q(i)", Family.KRAWTCHOUK, 3, None, None),
    ("Q(i)", Family.QRACAH_ODD, 3, 2, None),
    ("Fp:101", Family.KRAWTCHOUK, 3, None, None),
    ("Fp2:103", Family.KRAWTCHOUK, 5, None, None),
]


def _golden(spec, family, d, q, beta):
    fld = parse_field(spec)
    return _triple(fld, family, d, q=q, beta=None if beta is None else fld(beta))


def _counting_inverse(monkeypatch):
    calls = []
    real = Matrix.inverse

    def inverse(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(Matrix, "inverse", inverse)
    return calls


def _assert_dense_inverses(w):
    """w's derived inverses are Gauss-Jordan's."""
    assert (w.W_inv, w.W_prime_inv, w.P_inv) == \
        (w.W.inverse(), w.W_prime.inverse(), w.P.inverse())


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
def test_W_prime_and_its_inverse_are_sums_over_the_units(case):
    system, tri, w = _golden(*case)
    units = _units(tri.field, tri.d + 1)
    assert w.W_prime == spectral_sum(units, w.t)
    assert w.W_prime_inv == spectral_sum(units, [t.inverse() for t in w.t])


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
def test_spectral_inverses_equal_gauss_jordan(case, monkeypatch):
    system, tri, w = _golden(*case)
    calls = _counting_inverse(monkeypatch)
    rebuilt = dataclasses.replace(w)
    assert rho_automorphism(rebuilt, tri.A) == tri.B
    assert calls == []
    _assert_dense_inverses(rebuilt)
    eye = identity(system.field, system.d + 1)
    assert rebuilt.W_inv * w.W == rebuilt.P_inv * w.P == rebuilt.T_inv * rebuilt.T == eye


def _reports(system, tri, w):
    return [r.to_dict() for r in (antiautomorphism_report(system, tri, w),
                                  sigma_and_psl2z(system, tri, w))]


def _broken_wdata(w, fld, d):
    """(changes, inversions): a record with the changes fails that many of
    its certificates, each falling back to Gauss-Jordan."""
    scale = diagonal(fld, range(2, d + 3))
    t_plus_one = (w.t[0] + 1,) + w.t[1:]
    return [
        # P's certificate fails: P^3 != kappa I, or kappa = 0
        ({"kappa": w.kappa + 1}, 1),
        ({"kappa": fld.zero}, 1),
        # W' is no longer diag(t)
        ({"t": t_plus_one}, 1),
        ({"t": (fld.zero,) + w.t[1:]}, 1),
        ({"t": w.t[1:]}, 1),
        # W, then P, not what the triple's other data say: the reports fail.
        # P = W'W fails, so W^{-1} != P^{-1} W'; a scaled P also fails its own
        ({"W": scale * w.W}, 1),
        ({"P": scale * w.P}, 2),
    ]


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
def test_false_wdata_falls_back_to_the_dense_reports(case, monkeypatch):
    system, tri, w = _golden(*case)
    good = _reports(system, tri, w)
    calls = _counting_inverse(monkeypatch)
    for changes, fallbacks in _broken_wdata(w, system.field, system.d):
        del calls[:]
        bad = dataclasses.replace(w, **changes)
        # the record inverts only what failed its certificate, the reports
        # nothing
        assert len(calls) == fallbacks
        derived = _reports(system, tri, bad)
        assert len(calls) == fallbacks
        _assert_dense_inverses(bad)
        assert derived == [_dense_antiautomorphism_report(system, tri, bad).to_dict(),
                           _dense_sigma_and_psl2z(system, tri, bad).to_dict()]
        if bad.W == w.W and bad.P == w.P:
            assert derived == good


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
def test_rho_fixes_P_with_any_exact_inverse(case):
    # sigma_and_psl2z records "rho(P) = P"; the dense P^{-1} P P is the
    # oracle, with certified and with Gauss-Jordan inverses of true and
    # false WData
    system, tri, w = _golden(*case)
    for changes in [{}] + [c for c, _ in _broken_wdata(w, system.field, system.d)]:
        ws = dataclasses.replace(w, **changes)
        assert ws.P_inv * ws.P * ws.P == ws.P
        check = next(c for c in sigma_and_psl2z(system, tri, ws)
                     if c.name == "rho(P) = P")
        assert check.passed and check.witness is None


def test_singular_wdata_raises_as_dense_inversion(golden_bi4):
    # a record is built with its inverses, so a singular W, W' or P raises
    # where it is built, as Gauss-Jordan does
    system, tri, w = golden_bi4
    zero = Matrix(QQ, [[0] * 5 for _ in range(5)])
    for name in ("W", "W_prime", "P"):
        with pytest.raises(Singular, match="matrix is not invertible"):
            dataclasses.replace(w, **{name: zero})
        doc = {"W": w.W, "W_prime": w.W_prime, "W_dprime": w.W_dprime, "P": w.P,
               "t": w.t, "kappa": w.kappa, name: zero}
        with pytest.raises(Singular, match="matrix is not invertible"):
            WData(**doc)


RHO_CYCLES = "rho cycles the idempotent families"


@pytest.fixture(scope="module")
def golden_triples():
    return {case: _golden(*case) for case in GOLDEN_TRIPLES}


def _rho_cycles_loop(tri, w):
    """The verdict from the 6(d+1) products sigma_and_psl2z made before it
    decided it on A, B and C."""
    rho = lambda x: w.P_inv * x * w.P
    E_prime = _units(tri.field, tri.d + 1)
    return all(rho(tri.E[i]) == E_prime[i]
               and rho(E_prime[i]) == tri.E_dprime[i]
               and rho(tri.E_dprime[i]) == tri.E[i] for i in range(tri.d + 1))


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_rho_cycles_verdict_matches_the_loop(golden_triples, case, data):
    # a library triple whose C, and with it E'' and W'', is conjugated by a
    # diagonal or a dense invertible matrix (the identity among them)
    system, tri, _ = golden_triples[case]
    fld, n = tri.field, tri.d + 1
    entries = st.integers(-4, 4).map(fld)
    if data.draw(st.booleans()):
        m = diagonal(fld, [data.draw(entries.filter(lambda v: not v.is_zero()))
                           for _ in range(n)])
    else:
        lower = Matrix(fld, [[data.draw(entries) if l < k else int(k == l)
                              for l in range(n)] for k in range(n)])
        m = lower * lower.transpose()
    C = m * tri.C * m.inverse()
    conj = LeonardTriple(tri.A, tri.B, C, tri.E,
                         primitive_idempotents(C, system.array.theta), tri.scalars)
    w = spectral_elements(conj)
    report = sigma_and_psl2z(system, conj, w)
    check = next(c for c in report if c.name == RHO_CYCLES)
    assert check.passed == _rho_cycles_loop(conj, w) == (C == tri.C)
    assert check.witness is None


# ---------------------------------------------------------------------------
# One q-commutator relation for all three cases, against the per-case
# formulas build_C wrote out before
# ---------------------------------------------------------------------------

def _per_case_C(system, sc):
    """C and both cyclic relations (lhs, rhs), each case written out."""
    A, B, z = system.A, system.A_star, sc.z
    if sc.case == "beta=2":
        C = (A * B - B * A) * z.inverse()
        return C, [(B * C - C * B, A * z), (C * A - A * C, B * z)]
    if sc.case == "beta=-2":
        C = (A * B + B * A) * z.inverse()
        return C, [(B * C + C * B, A * z), (C * A + A * C, B * z)]
    q = sc.q
    scale = z * (q * q - (q * q).inverse())
    C = (q * (A * B) - q.inverse() * (B * A)) * scale.inverse()
    return C, [(q * (B * C) - q.inverse() * (C * B), A * scale),
               (q * (C * A) - q.inverse() * (A * C), B * scale)]


# (family, d, q, beta) that complete over the field; over Q only beta = -2 does
COMPLETIONS = {
    "Q": [(Family.BANNAI_ITO, 4, None, None), (Family.BANNAI_ITO, 2, None, -2),
          (Family.SMALL_D2, 2, None, -2)],
    **{spec: [(Family.KRAWTCHOUK, 3, None, None), (Family.KRAWTCHOUK, 4, None, None),
              (Family.SMALL_D1, 1, None, None), (Family.BANNAI_ITO, 4, None, None),
              (Family.BANNAI_ITO, 2, None, -2), (Family.QRACAH_ODD, 3, 2, None),
              (Family.QRACAH_EVEN, 4, 3, None)]
       for spec in ("Fp:101", "Q(i)", "Fp2:103")},
}


def _completion(spec, family, d, q, beta):
    fld = parse_field(spec)
    system = build_system(generate_family(fld, family, d, q=q))
    return system, triple_scalars(system.array, None if beta is None else fld(beta))


@pytest.mark.parametrize("spec", list(COMPLETIONS))
def test_build_C_matches_the_per_case_formulas(spec):
    cases = set()
    for args in COMPLETIONS[spec]:
        system, sc = _completion(spec, *args)
        C, relations = _per_case_C(system, sc)
        assert build_C(system, sc).C == C
        assert all(lhs == rhs for lhs, rhs in relations)
        cases.add(sc.case)
    assert cases == ({"beta=-2"} if spec == "Q" else {"beta=2", "beta=-2", "beta!=+-2"})


@pytest.mark.parametrize("spec", list(COMPLETIONS))
def test_a_wrong_z_breaks_the_first_cyclic_relation(spec):
    # C scales with 1/z and the relation's right side with z, so any z
    # other than +-z breaks relation 1, in the words the per-case code used
    for args in COMPLETIONS[spec]:
        system, sc = _completion(spec, *args)
        bad = dataclasses.replace(sc, z=2 * sc.z)
        _, relations = _per_case_C(system, bad)
        assert relations[0][0] != relations[0][1]
        with pytest.raises(RelationViolation) as err:
            build_C(system, bad)
        assert str(err.value) == f"cyclic relation 1 failed for case {sc.case}"


def test_scalars_need_only_the_array():
    Qi = QQi()
    arr = generate_family(Qi, Family.QRACAH_ODD, 3, q=2)
    assert triple_scalars(arr) == triple_scalars(build_system(arr).array)
    with pytest.raises(NoSquareRootInField, match="Q\\(i\\)"):
        triple_scalars(generate_family(QQ, Family.QRACAH_ODD, 3, q=2))


# ---------------------------------------------------------------------------
# antiautomorphism_report and braid_check against the dense reports they
# replaced, which form every image, twist and triple product
# ---------------------------------------------------------------------------

def _dense_braid_check(w):
    rb = ReportBuilder()
    a, b, c = w.W, w.W_prime, w.W_dprime
    rb.matrices_equal("W W' W = W' W W'", a * b * a, b * a * b)
    rb.matrices_equal("W' W'' W' = W'' W' W''", b * c * b, c * b * c)
    rb.matrices_equal("W W'' W = W'' W W''", a * c * a, c * a * c)
    rb.matrices_equal("P = W' W", w.P, b * a)
    rb.matrices_equal("P = W'' W'", w.P, c * b)
    rb.matrices_equal("P = W W''", w.P, a * c)
    return rb.build()


def _dense_antiautomorphism_report(sys, tri, w):
    rb = ReportBuilder()
    P, Pinv = w.P, w.P_inv
    dag = dagger_map(sys)
    P_dag, P_dag_inv = dag(P), dag(Pinv)
    twists = triple._twists(w, P_dag, P_dag_inv)
    (Pd_P, _), (_, P_Pd), _, _, _ = twists
    maps = triple._antiautomorphisms(dag, twists)
    A, B, C = tri.A, tri.B, tri.C
    sc = tri.scalars
    dag_p, dag_pp = maps.dagger_p, maps.dagger_pp
    dd, dd_p, dd_pp = maps.ddagger, maps.ddagger_p, maps.ddagger_pp

    rb.matrices_equal("dagger fixes W", dag(w.W), w.W)
    rb.matrices_equal("dagger fixes W'", dag(w.W_prime), w.W_prime)

    if sc.case == "beta=2":
        table = [("dagger", dag, A, B, -C), ("dagger'", dag_p, -A, B, C),
                 ("dagger''", dag_pp, A, -B, C)]
    elif sc.case == "beta=-2":
        table = [("dagger", dag, A, B, C), ("dagger'", dag_p, A, B, C),
                 ("dagger''", dag_pp, A, B, C)]
    else:
        shear = (sc.z * (sc.q - sc.q.inverse())).inverse()
        table = [("dagger", dag, A, B, C - (A * B - B * A) * shear),
                 ("dagger'", dag_p, A - (B * C - C * B) * shear, B, C),
                 ("dagger''", dag_pp, A, B - (C * A - A * C) * shear, C)]
    images = {}
    for name, f, ea, eb, ec in table:
        for x_name, x, expected in (("A", A, ea), ("B", B, eb), ("C", C, ec)):
            images[name, x_name] = image = f(x)
            rb.matrices_equal(f"{name}({x_name})", image, expected)

    if sc.case == "beta=-2":
        rb.record("dagger' = dagger as maps", triple._is_scalar(Pd_P))
        rb.record("dagger'' = dagger as maps", triple._is_scalar(P_Pd))

    for name, f, fa, fb, fc in (("ddagger", dd, A, C, B),
                                ("ddagger'", dd_p, C, B, A),
                                ("ddagger''", dd_pp, B, A, C)):
        rb.matrices_equal(f"{name}(A)", f(A), fa)
        rb.matrices_equal(f"{name}(B)", f(B), fb)
        rb.matrices_equal(f"{name}(C)", f(C), fc)

    twists = (w.W, w.W_prime_inv, w.T)
    twist_dag_invs = [dag(t_inv) for t_inv in (w.W_inv, w.W_prime, w.T_inv)]
    for name, t, t_dag_inv in zip(("ddagger", "ddagger'", "ddagger''"),
                                  twists, twist_dag_invs):
        rb.record(f"{name}^2 = id", triple._is_scalar(t_dag_inv * t))
    W_dag_inv, Wp_inv_dag_inv, braid_dag_inv = twist_dag_invs

    comp1 = Wp_inv_dag_inv * w.W
    comp2 = braid_dag_inv * w.W_prime_inv
    comp3 = W_dag_inv * w.T
    for name, m in (("rho = ddagger o ddagger'", comp1),
                    ("rho = ddagger' o ddagger''", comp2),
                    ("rho = ddagger'' o ddagger", comp3)):
        rb.record(name, triple._is_scalar(m * Pinv))

    rho = lambda x: Pinv * x * P
    rho_inv = lambda x: P * x * Pinv
    rb.record("dagger' = rho o dagger o rho^-1",
              rho(images["dagger", "C"]) == images["dagger'", "A"]
              and rho(images["dagger", "A"]) == images["dagger'", "B"])
    rb.record("dagger'' = rho^-1 o dagger o rho",
              rho_inv(images["dagger", "B"]) == images["dagger''", "A"]
              and rho_inv(images["dagger", "C"]) == images["dagger''", "B"])
    for name, m, t_inv in (
            ("ddagger' = rho o ddagger o rho^-1", P_dag * w.W * P, w.W_prime),
            ("ddagger'' = rho^-1 o ddagger o rho",
             P_dag_inv * w.W * Pinv, w.T_inv)):
        rb.record(name, triple._is_scalar(m * t_inv))
    return rb.build()


def _dense_sigma_and_psl2z(sys, tri, w):
    """sigma_and_psl2z as it was before it decided on intertwinings: every
    image T X T^-1 and P^-1 X P formed, P^3 and T^-2 formed, and the
    inverses by Gauss-Jordan."""
    rb = ReportBuilder()
    A, B, C, P = tri.A, tri.B, tri.C, w.P
    T = w.W * w.W_prime * w.W
    Tinv, Pinv = T.inverse(), P.inverse()
    sigma = lambda x: T * x * Tinv
    rb.matrices_equal("sigma(A) = B", sigma(A), B)
    rb.matrices_equal("sigma(B) = A", sigma(B), A)
    rb.matrices_equal("sigma(C) = dagger(C)", sigma(C), dagger(sys, C))
    rho = lambda x: Pinv * x * P
    cycles = [rb.matrices_equal("rho(A) = B", rho(A), B),
              rb.matrices_equal("rho(B) = C", rho(B), C),
              rb.matrices_equal("rho(C) = A", rho(C), A)]
    rb.record("rho(P) = P", rho(P) == P)
    rb.record(RHO_CYCLES, all(cycles))
    rb.matrices_equal("rho(W) = W'", rho(w.W), w.W_prime)
    rb.matrices_equal("rho(W') = W''", rho(w.W_prime), w.W_dprime)
    rb.matrices_equal("rho(W'') = W", rho(w.W_dprime), w.W)
    rho_cubed = triple._is_scalar(P * P * P)
    sigma_squared = triple._is_scalar(Tinv * Tinv)
    rb.record("rho^3 = id on all matrix units", rho_cubed)
    rb.record("sigma^2 = id on all matrix units", sigma_squared)
    witness = ("word ss != its normal form 1" if not sigma_squared
               else "word rrr != its normal form 1" if not rho_cubed else None)
    rb.record(WORDS_CHECK, witness is None, witness)
    return rb.build()


def _facts(system, tri, w):
    """F1-F4 of antiautomorphism_report, formed densely."""
    dag, P = dagger_map(system), w.P
    A, B, C = tri.A, tri.B, tri.C
    return {"F1": dag(w.W) == w.W and dag(w.W_prime) == w.W_prime,
            "F2": A * P == P * B and B * P == P * C and C * P == P * A,
            "F3": P == w.W_prime * w.W,
            "F4": triple._is_scalar(P * P * P)}


def _tampered(system, tri, w, m, s, pos):
    """(name, tri, w): the golden triple, then tamperings of C, W, P, t, W'
    and of the generators.  m is invertible, s a nonzero scalar and pos an
    entry of C."""
    fld, n = tri.field, tri.d + 1
    m_inv = m.inverse()
    C = m * tri.C * m_inv
    conj_C = dataclasses.replace(
        tri, C=C, E_dprime=primitive_idempotents(C, system.array.theta))
    W_prime = m * w.W_prime * m_inv
    bad_t = (w.t[0] + 1,) + w.t[1:]
    t_W, t_Wp = spectral_sum(tri.E, bad_t), diagonal(fld, bad_t)
    entry = Matrix(fld, [[s if (i, j) == pos else 0 for j in range(n)]
                         for i in range(n)])
    yield "golden", tri, w
    yield "C conjugated", conj_C, w
    yield "C conjugated with its W''", conj_C, spectral_elements(conj_C)
    yield "W scaled by a diagonal", tri, dataclasses.replace(
        w, W=diagonal(fld, range(2, n + 2)) * w.W)
    yield "W scaled", tri, dataclasses.replace(w, W=w.W * s)
    yield "P scaled by a diagonal", tri, dataclasses.replace(
        w, P=diagonal(fld, range(2, n + 2)) * w.P)
    yield "P scaled", tri, dataclasses.replace(w, P=w.P * s)
    yield "t perturbed", tri, dataclasses.replace(w, t=bad_t)
    yield "W, W', W'' of a perturbed t", tri, WData(
        t_W, t_Wp, spectral_sum(tri.E_dprime, bad_t), t_Wp * t_W, bad_t, w.kappa)
    yield "W'' scaled", tri, dataclasses.replace(w, W_dprime=w.W_dprime * s)
    yield "W' conjugated", tri, dataclasses.replace(w, W_prime=W_prime)
    yield "W' conjugated, P = W' W", tri, dataclasses.replace(
        w, W_prime=W_prime, P=W_prime * w.W)
    yield "C off its diagonal", dataclasses.replace(tri, C=tri.C + entry), w
    # conjugation by P: rho still cycles them, but dagger and ddagger do not
    # fix the rotated triple as they fix (A, B, C)
    yield "generators rotated", dataclasses.replace(tri, A=tri.C, B=tri.A, C=tri.B), w


def _invertible(fld, n, data):
    entries = st.integers(-4, 4).map(fld)
    if data.draw(st.booleans()):
        return diagonal(fld, [data.draw(entries.filter(lambda v: not v.is_zero()))
                              for _ in range(n)])
    lower = Matrix(fld, [[data.draw(entries) if l < k else int(k == l)
                          for l in range(n)] for k in range(n)])
    return lower * lower.transpose()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_antiautomorphism_report_matches_the_dense_report(golden_triples, data):
    system, tri, w = golden_triples[data.draw(st.sampled_from(GOLDEN_TRIPLES))]
    fld, n = tri.field, tri.d + 1
    m = _invertible(fld, n, data)
    s = fld(data.draw(st.sampled_from([-3, -1, 2, 5])))
    pos = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
    for name, t, bad in _tampered(system, tri, w, m, s, pos):
        assert antiautomorphism_report(system, t, bad).to_dict() == \
            _dense_antiautomorphism_report(system, t, bad).to_dict(), name
        assert sigma_and_psl2z(system, t, bad).to_dict() == \
            _dense_sigma_and_psl2z(system, t, bad).to_dict(), name
        assert braid_check(bad).to_dict() == _dense_braid_check(bad).to_dict(), name


def test_every_fact_and_a_derived_row_fail_in_some_tampering(golden_triples):
    # the dense fallbacks of the test above are reached: each of F1-F4
    # fails somewhere, and so do rows derived from a premise that holds
    failed, derived = set(), set()
    for system, tri, w in golden_triples.values():
        fld, n = tri.field, tri.d + 1
        m = identity(fld, n) + Matrix(fld, [[int(j == i + 1) for j in range(n)]
                                            for i in range(n)])
        for name, t, bad in _tampered(system, tri, w, m, fld(2), (0, 0)):
            report = antiautomorphism_report(system, t, bad)
            assert report.to_dict() == \
                _dense_antiautomorphism_report(system, t, bad).to_dict(), name
            facts = _facts(system, t, bad)
            failed |= {f for f, holds in facts.items() if not holds}
            for c in report.failures():
                row = c.name.split("(")[0]
                if facts["F2"] and row in ("dagger'", "dagger''"):
                    derived.add(row)
                if all(facts.values()) and row in ("ddagger'", "ddagger''"):
                    derived.add(row)
    assert failed == {"F1", "F2", "F3", "F4"}
    assert derived == {"dagger'", "dagger''", "ddagger'", "ddagger''"}


def _action_table(tri):
    """The images of (A, B, C) under each of the six maps, by case."""
    A, B, C = tri.A, tri.B, tri.C
    sc = tri.scalars
    if sc.case == "beta=2":
        daggers = [(A, B, -C), (-A, B, C), (A, -B, C)]
    elif sc.case == "beta=-2":
        daggers = [(A, B, C)] * 3
    else:
        shear = (sc.z * (sc.q - sc.q.inverse())).inverse()
        daggers = [(A, B, C - (A * B - B * A) * shear),
                   (A - (B * C - C * B) * shear, B, C),
                   (A, B - (C * A - A * C) * shear, C)]
    return dict(zip(("dagger", "dagger_p", "dagger_pp", "ddagger", "ddagger_p",
                     "ddagger_pp"), daggers + [(A, C, B), (C, B, A), (B, A, C)]))


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
def test_antiautomorphisms_follow_the_action_table(golden_triples, case):
    system, tri, w = golden_triples[case]
    maps = antiautomorphisms(system, tri, w)
    for attr, images in _action_table(tri).items():
        f = getattr(maps, attr)
        assert tuple(f(x) for x in (tri.A, tri.B, tri.C)) == images, attr


def test_a_passing_report_forms_no_map(golden_triples, monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense image was formed")

    monkeypatch.setattr(triple, "_antiautomorphisms", refuse)
    for system, tri, w in golden_triples.values():
        report = antiautomorphism_report(system, tri, w)
        assert report.passed, report.failures()


def _f4_free_triple(passing):
    """A hand-built (system, triple, WData) over Q at n = 3 on which F1-F3
    hold and P^3 is not scalar.  dagger is the transpose (K = I); W is
    symmetric with W P = P^t W, so W' = P W^-1 is symmetric and P = W' W.
    A commutes with P^3, and B = P^-1 A P, C = P^-1 B P, so F2 holds and
    A, B, C generate a proper subalgebra.  The ddagger row passes with the
    first A and fails with the second."""
    system = dataclasses.replace(build_system(generate_family(QQ, Family.KRAWTCHOUK, 2)),
                                 K=identity(QQ, 3))
    P = Matrix(QQ, [[1, -3, 3], [1, -2, 4], [0, 0, 2]])
    W = Matrix(QQ, [[-2, 3, -3], [3, -3, 3], [-3, 3, -2]])
    A = Matrix(QQ, [[10, -6, 6], [6, 0, 6], [0, 0, 6]] if passing
               else [[1, 2, -2], [0, 1, 4], [0, 0, 5]])
    B = P.inverse() * A * P
    scalars = triple.TripleScalars(QQ(2), QQ(1), QQ(1), QQ(1))
    tri = LeonardTriple(A, B, P.inverse() * B * P, (), (), scalars)
    # zero weights and kappa: the spectral inverses fall back to Gauss-Jordan
    w = WData(W, P * W.inverse(), W.inverse() * P, P, (QQ(0),) * 3, QQ(0))
    return system, tri, w


@pytest.mark.parametrize("passing", [True, False])
def test_ddagger_rows_follow_without_a_scalar_P_cubed(passing):
    # Under F1 and F3, ddagger'(X) = P^3 (rho o ddagger o rho^-1)(X) P^-3 and
    # ddagger''(X) = P^-3 (rho^-1 o ddagger o rho)(X) P^3, and under F2 P^3
    # commutes with A, B and C; ddagger(B) = C holds exactly when
    # ddagger(A) = A does, as the two differ by conjugation with P^3, and
    # ddagger is an involution.  So the ddagger row passes or fails on all
    # three generators, and the ddagger' and ddagger'' rows follow it
    # whether or not P^3 is scalar, as the dense report shows on a triple
    # where it is not
    from tbtridiag.matrices import algebra_dimension

    system, tri, w = _f4_free_triple(passing)
    assert _facts(system, tri, w) == {"F1": True, "F2": True, "F3": True, "F4": False}
    assert algebra_dimension([tri.A, tri.B, tri.C], 3) < 9
    assert len({tri.A, tri.B, tri.C}) == 3
    report = antiautomorphism_report(system, tri, w)
    assert report.to_dict() == _dense_antiautomorphism_report(system, tri, w).to_dict()
    rows = [c.passed for c in report if c.name.split("(")[0] in ("ddagger", "ddagger'",
                                                                    "ddagger''")]
    assert rows == [passing] * 9


# ---------------------------------------------------------------------------
# Each product formed once, and each decision that replaced a dense image
# falling back to it wherever it is False
# ---------------------------------------------------------------------------

def _counting_products(monkeypatch):
    """A list that gains one entry per matrix product: True when both
    operands are dense, having more than 3n nonzero entries."""
    products = []
    real = Matrix.__mul__

    def dense(m):
        zero = m.field._zero_raw
        return sum(v != zero for row in m.raw for v in row) > 3 * m.nrows

    def mul(x, y):
        if isinstance(y, Matrix):
            products.append(dense(x) and dense(y))
        return real(x, y)

    monkeypatch.setattr(Matrix, "__mul__", mul)
    return products


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
def test_a_passing_triple_forms_each_product_once(case, monkeypatch):
    # 72 products, 31 of them dense, when P^2, P^3 and T^-1 were formed in
    # each report and every conjugation as a dense image, and 56 and 12 when
    # build_W formed P^3 and a second record formed P^2 again; the dagger
    # shear (generic beta) and the twists P^dagger P, P P^dagger (beta = -2)
    # add two, the twists two dense
    spec, family, d, q, beta = case
    fld = parse_field(spec)
    system = build_system(generate_family(fld, family, d, q=q))
    sc = triple_scalars(system.array, None if beta is None else fld(beta))
    products = _counting_products(monkeypatch)
    tri = build_C(system, sc)
    w = build_W(tri)
    for report in (braid_check(w), antiautomorphism_report(system, tri, w),
                   sigma_and_psl2z(system, tri, w)):
        assert report.passed, report.failures()
    assert len(products) <= (55 if family is Family.KRAWTCHOUK else 57)
    assert sum(products) <= (12 if sc.case == "beta=-2" else 10)


def _decisions(system, tri, w):
    """Each decision the reports take in place of a dense image, evaluated
    here on its own terms."""
    A, B, C, P, T = tri.A, tri.B, tri.C, w.P, w.T
    fld, dag = tri.field, dagger_map(system)
    c = (w.P_sq * P)[0, 0]
    return {
        "sigma: T X = Y T": all(T * X == Y * T for X, Y in ((A, B), (B, A),
                                                            (C, dagger(system, C)))),
        "rho: X P = P Y": all(X * P == P * Y for X, Y in ((A, B), (B, C), (C, A))),
        "ddagger: X^dagger W = W Y": all(dag(X) * w.W == w.W * Y
                                         for X, Y in ((A, A), (B, C), (C, B))),
        "W = sum t_i E_i": spectral_sum(tri.E, w.t) == w.W,
        "W' = diag(t)": w.W_prime == diagonal(fld, w.t) and B == diagonal(
            fld, system.array.theta),
        "W'' = sum t_i E''_i": spectral_sum(tri.E_dprime, w.t) == w.W_dprime,
        "P^2 = c P^-1": not c.is_zero() and w.P_sq == w.P_inv * c,
        "T^2 is scalar": triple._is_scalar(T * T),
    }


def _dense_reports(system, tri, w):
    return [r.to_dict() for r in (_dense_braid_check(w),
                                  _dense_antiautomorphism_report(system, tri, w),
                                  _dense_sigma_and_psl2z(system, tri, w))]


def _all_reports(system, tri, w):
    return [r.to_dict() for r in (braid_check(w), antiautomorphism_report(system, tri, w),
                                  sigma_and_psl2z(system, tri, w))]


def test_each_decision_falls_back_to_the_dense_reports(golden_triples):
    # a scaled W'', a W' off the diagonal, a non-scalar T^2 (W scaled by a
    # diagonal), a non-scalar P^3 (P scaled by a diagonal), and C, P or the
    # generators moved, make each decision False somewhere; the reports then
    # equal the dense ones
    names, failed = set(), set()
    for system, tri, w in golden_triples.values():
        fld, n = tri.field, tri.d + 1
        m = identity(fld, n) + Matrix(fld, [[int(j == i + 1) for j in range(n)]
                                            for i in range(n)])
        decisions = _decisions(system, tri, w)
        assert all(decisions.values())
        names |= set(decisions)
        for name, t, bad in _tampered(system, tri, w, m, fld(2), (0, 0)):
            decisions = _decisions(system, t, bad)
            failed |= {d for d, holds in decisions.items() if not holds}
            assert _all_reports(system, t, bad) == _dense_reports(system, t, bad), name
    assert failed == names


def test_the_record_derives_its_fields_whenever_it_is_built(golden_triples):
    # positional construction and dataclasses.replace both derive P^2, T and
    # the exact inverses from the document fields, for true and false data
    for system, tri, w in golden_triples.values():
        fld, n = tri.field, tri.d + 1
        eye = identity(fld, n)
        m = identity(fld, n) + Matrix(fld, [[int(j == i + 1) for j in range(n)]
                                            for i in range(n)])
        records = [bad for _, _, bad in _tampered(system, tri, w, m, fld(2), (0, 0))]
        records += [dataclasses.replace(w, **changes)
                    for changes, _ in _broken_wdata(w, fld, tri.d)]
        for r in records:
            assert r.P * r.P_inv == r.W * r.W_inv == r.W_prime * r.W_prime_inv == eye
            assert r.P_sq == r.P * r.P and r.T == r.W * r.W_prime * r.W
            again = WData(r.W, r.W_prime, r.W_dprime, r.P, r.t, r.kappa)
            assert again == r
            assert (again.P_sq, again.P_inv, again.W_prime_inv, again.W_inv, again.T) == \
                (r.P_sq, r.P_inv, r.W_prime_inv, r.W_inv, r.T)
        # a record cannot hold P^2 != P P, nor an inverse it did not derive
        for name in ("P_sq", "P_inv", "W_prime_inv", "W_inv", "T"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(w, **{name: eye})


def test_build_W_commutes_B_and_W_prime_densely_off_the_diagonal(golden_bi4):
    from tbtridiag.errors import InvariantViolation

    system, tri, w = golden_bi4
    n = tri.d + 1
    m = identity(QQ, n) + Matrix(QQ, [[int(j == i + 1) for j in range(n)] for i in range(n)])
    bent = dataclasses.replace(tri, B=m * tri.B * m.inverse())
    assert diagonal_entries(bent.B) is None
    assert bent.B * w.W_prime != w.W_prime * bent.B
    with pytest.raises(InvariantViolation, match="W or W' does not commute with A or B"):
        build_W(bent)


@pytest.mark.parametrize("case", GOLDEN_TRIPLES)
def test_build_W_refuses_a_wrong_kappa(case, monkeypatch):
    system, tri, w = _golden(*case)
    real = triple.expected_kappa
    monkeypatch.setattr(triple, "expected_kappa", lambda sc, d: real(sc, d) + 1)
    with pytest.raises(KappaMismatch) as err:
        build_W(tri)
    assert str(err.value) == f"P^3 != {w.kappa + 1} I for case {tri.scalars.case}"


def test_P_cubed_scalar_is_kappa_exactly_where_the_kappa_test_passed(golden_triples):
    # kappa != 0 and P^{-1} = kappa^{-1} P^2, and _P_cubed_scalar(w) = kappa,
    # are each P^3 = kappa I, the dense oracle, as P^{-1} is exact
    verdicts = set()
    for system, tri, w in golden_triples.values():
        fld, n = tri.field, tri.d + 1
        m = identity(fld, n) + Matrix(fld, [[int(j == i + 1) for j in range(n)]
                                            for i in range(n)])
        records = [bad for _, _, bad in _tampered(system, tri, w, m, fld(2), (0, 0))]
        records += [dataclasses.replace(w, **changes)
                    for changes, _ in _broken_wdata(w, fld, tri.d)]
        for r in records:
            kappa_test = not r.kappa.is_zero() and r.P_inv == r.P_sq * r.kappa.inverse()
            assert (triple._P_cubed_scalar(r) == r.kappa.value) == kappa_test
            assert kappa_test == (r.P * r.P * r.P == identity(fld, n) * r.kappa)
            verdicts.add(kappa_test)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", ["Q", "Fp:101", "Q(i)"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_diagonal_certificate_matches_the_product(spec, data):
    fld = parse_field(spec)
    n = data.draw(st.integers(1, 4))
    entries = st.integers(-3, 3).map(fld)
    x = diagonal(fld, [data.draw(entries) for _ in range(n)])
    if data.draw(st.booleans()) and all(not v.is_zero() for v in (x[i, i] for i in range(n))):
        candidate = diagonal(fld, [x[i, i].inverse() for i in range(n)])
    else:
        candidate = diagonal(fld, [data.draw(entries) for _ in range(n)])
    certified = x * candidate == identity(fld, n)
    try:
        got = triple._certified_inverse(x, candidate)
    except Singular:
        assert not certified and any(x[i, i].is_zero() for i in range(n))
        return
    assert (got is candidate) == certified
    assert got * x == identity(fld, n)
