"""JSON documents for arrays, systems, and triples.

All scalars are encoded as field-element strings and matrices as row-major
arrays of such strings; the field itself travels as a descriptor string.
Key order is fixed so that serialization is byte-stable, and
parse(emit(x)) == x holds structurally for every schema.

Document kinds are recognized by their keys: an array document carries
"theta", a system document carries "A", a triple document carries "C".
"""

import json

from .arrays import Family, FamilyTag, classify, generate_family, validate_array
from .errors import NotAnnihilated, ParseError, TBTridiagError
from .fields import parse_field
from .matrices import Matrix, diagonal, primitive_idempotents
from .matrices import lagrange_idempotents  # noqa: F401  perfbench's tracer test checks this binding
from .system import intersection_numbers, symmetrizer, system
from .triple import LeonardTriple, WData, spectral_fields, triple_scalars


def _enc_elems(fld, elems):
    return [fld.encode(e) for e in elems]


def _enc_matrix(fld, m):
    enc = fld._encode_raw
    return [[enc(v) for v in row] for row in m.raw]


def _dec_elems(fld, items):
    # a string is iterable too: without this check "3113" reads as 3, 1, 1, 3
    if not isinstance(items, list):
        raise ParseError(f"expected a JSON array of elements, got {items!r}")
    return [fld.parse(s) for s in items]


def _dec_matrix(fld, rows):
    if not isinstance(rows, list):
        raise ParseError(f"expected a JSON array of rows, got {rows!r}")
    return Matrix(fld, [_dec_elems(fld, row) for row in rows])


def emit_array(arr):
    fld = arr.field
    doc = {
        "field": fld.descriptor(),
        "d": arr.d,
        "theta": _enc_elems(fld, arr.theta),
        "theta_star": _enc_elems(fld, arr.theta_star),
    }
    if arr.family is not None:
        tag = {
            "family": arr.family.family.value,
            "h": fld.encode(arr.family.h),
            "h_star": fld.encode(arr.family.h_star),
        }
        if arr.family.q is not None:
            tag["q"] = fld.encode(arr.family.q)
        if arr.family.beta is not None:
            tag["beta"] = fld.encode(arr.family.beta)
        doc["family"] = tag
    return doc


def decode_array(doc):
    try:
        fld = parse_field(doc["field"])
        theta = _dec_elems(fld, doc["theta"])
        theta_star = _dec_elems(fld, doc["theta_star"])
        d = doc["d"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed array document: {exc}") from None
    if type(d) is not int:
        # 3.0 == 3 and true == 1 in Python, not in JSON
        raise ParseError(f"d = {json.dumps(d)} is not a JSON integer")
    if d != len(theta) - 1:
        raise ParseError(f"d = {d} but theta has {len(theta)} entries")
    arr = validate_array(fld, theta, theta_star)
    tag_doc = doc.get("family")
    if tag_doc is not None:
        try:
            tag = FamilyTag(
                Family(tag_doc["family"]),
                fld.parse(tag_doc["h"]),
                fld.parse(tag_doc["h_star"]),
                q=fld.parse(tag_doc["q"]) if "q" in tag_doc else None,
                beta=fld.parse(tag_doc["beta"]) if "beta" in tag_doc else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed family tag: {exc}") from None
        _check_tag(arr, tag)
        arr = arr.with_family(tag)
    return arr


def _check_tag(arr, tag):
    """Refuse a family tag that does not describe its array.

    The tag must regenerate the array; classify would not do, because at
    d <= 2 it names only the small-diameter families.  A q-Racah tag
    without q (no q lies in the field) must be the one classify gives.
    """
    try:
        if tag.q is None and tag.family in (Family.QRACAH_EVEN, Family.QRACAH_ODD):
            ok = tag == classify(arr)
        else:
            # -q, 1/q and -1/q regenerate the same array as q
            gen = generate_family(arr.field, tag.family, arr.d, tag.h, tag.h_star, tag.q)
            ok = (gen.family == tag and gen.theta == arr.theta
                  and gen.theta_star == arr.theta_star)
    except TBTridiagError as exc:
        raise ParseError(f"family tag {tag.family.value} does not fit the array: {exc}") from None
    if not ok:
        raise ParseError(f"family tag {tag.family.value} does not describe the array")


def emit_system(sys):
    fld = sys.field
    doc = {"array": emit_array(sys.array)}
    doc["c"] = _enc_elems(fld, sys.inters.c)
    doc["b"] = _enc_elems(fld, sys.inters.b)
    doc["c_star"] = _enc_elems(fld, sys.inters.c_star)
    doc["b_star"] = _enc_elems(fld, sys.inters.b_star)
    doc["A"] = _enc_matrix(fld, sys.A)
    doc["A_star"] = _enc_matrix(fld, sys.A_star)
    doc["K"] = _enc_matrix(fld, sys.K)
    return doc


def system_array(doc):
    """The eigenvalue array of a system document, decoded."""
    try:
        return decode_array(doc["array"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed system document: {exc}") from None


def decode_system(doc, arr=None):
    """Load a system document without enforcing construction identities.

    Stored A and A* are taken as-is so that verification can report on
    hand-edited documents; system() forms the idempotents, unset for an A
    its eigenvalue factors do not annihilate.  The stored intersection
    numbers and K must be the ones the array gives (ParseError otherwise).
    arr is system_array(doc) when the caller has already decoded it.
    """
    if arr is None:
        arr = system_array(doc)
    fld = arr.field
    try:
        stored = {key: tuple(_dec_elems(fld, doc[key]))
                  for key in ("c", "b", "c_star", "b_star")}
        A = _dec_matrix(fld, doc["A"])
        A_star = _dec_matrix(fld, doc["A_star"])
        K = _dec_matrix(fld, doc["K"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed system document: {exc}") from None
    n = arr.d + 1
    if A.shape != (n, n) or A_star.shape != (n, n) or K.shape != (n, n):
        raise ParseError("matrix shapes do not match the diameter")
    inters = intersection_numbers(arr)
    for key, value in stored.items():
        if value != getattr(inters, key):
            raise ParseError(f"stored {key} disagrees with the eigenvalue array")
    if K != symmetrizer(fld, inters):
        raise ParseError("stored K disagrees with the eigenvalue array")
    return system(arr, inters, A, A_star, K)


def emit_triple(sys, tri, w):
    fld = sys.field
    sc = tri.scalars
    doc = {"system": emit_system(sys)}
    doc["C"] = _enc_matrix(fld, tri.C)
    doc["W"] = _enc_matrix(fld, w.W)
    doc["W_prime"] = _enc_matrix(fld, w.W_prime)
    doc["W_dprime"] = _enc_matrix(fld, w.W_dprime)
    doc["P"] = _enc_matrix(fld, w.P)
    doc["kappa"] = fld.encode(w.kappa)
    doc["z"] = fld.encode(sc.z)
    doc["t"] = _enc_elems(fld, w.t)
    doc["beta"] = fld.encode(sc.beta)
    doc["rho"] = fld.encode(sc.rho)
    doc["h"] = fld.encode(sc.h)
    if sc.q is not None:
        doc["q"] = fld.encode(sc.q)
    return doc


def decode_triple(doc):
    """Load a triple document, returning (system, triple, wdata).

    The stored A_star must be diag(theta), the stored beta, rho, h, z, q,
    weights t and kappa the ones the decoded system gives, and W, W', W''
    and P the spectral sums they predict (ParseError naming the first that
    disagrees).  They are compared before the WData is built, so a refused
    document forms one product, W'W, and no derived field.  C is taken as
    stored, with its idempotents: a C off theta's spectrum is a ParseError,
    and a hand-edited C on it decodes only with a W'' edited to match, for
    the reports to check.
    """
    try:
        sys = decode_system(doc["system"])
        fld = sys.field
        C = _dec_matrix(fld, doc["C"])
        stored = {key: fld.parse(doc[key]) for key in ("beta", "rho", "h", "z")}
        stored["q"] = fld.parse(doc["q"]) if "q" in doc else None
        stored["t"] = tuple(_dec_elems(fld, doc["t"]))
        stored["kappa"] = fld.parse(doc["kappa"])
        for key in ("W", "W_prime", "W_dprime", "P"):
            stored[key] = _dec_matrix(fld, doc[key])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed triple document: {exc}") from None
    if sys.E is None:
        raise ParseError("triple document with a non-diagonalizable A")
    if C.shape != sys.A.shape:
        raise ParseError("matrix shapes do not match the diameter")
    theta = sys.array.theta
    # as in build_C: A* = diag(theta), so its idempotents are the matrix units
    if sys.A_star != diagonal(fld, theta):
        raise ParseError("stored A_star is not diag(theta)")
    try:
        sc = triple_scalars(sys.array, stored["beta"])
    except TBTridiagError as exc:
        raise ParseError(f"stored beta gives no triple completion: {exc}") from None
    try:
        E_dprime = primitive_idempotents(C, theta)
    except NotAnnihilated:
        raise ParseError("stored C is not annihilated by theta's factors") from None
    tri = LeonardTriple(sys.A, sys.A_star, C, sys.E, E_dprime, sc)
    predicted = spectral_fields(tri)
    expected = {"beta": sc.beta, "rho": sc.rho, "h": sc.h, "z": sc.z, "q": sc.q,
                **predicted}
    for key, value in expected.items():
        if stored[key] != value:
            raise ParseError(f"stored {key} disagrees with the system")
    return sys, tri, WData(**predicted)


def dumps(doc):
    """Canonical, byte-stable JSON text."""
    return json.dumps(doc, indent=2) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc
