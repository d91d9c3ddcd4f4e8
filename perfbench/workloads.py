"""The benchmark's workloads, their inputs and their known answers.

A workload is a fixed list of cases.  A case is one eigenvalue array (field,
family, diameter) and the CLI commands run on it, in order.  A ``verify``
that follows a ``build`` reads the document that ``build`` wrote.  The
seed picks, per case, one of four variants: the scalings h, h* and the form
of q among q0, -q0, 1/q0, -1/q0 (the four give the same array, so every
variant costs the same), and for a tampered document the off-band entry
that is changed.  Fields, families and diameters never depend on the seed.

Every job has a known answer that follows from the mathematics: a family
array passes every check, with a check count fixed by d; a document whose A
has a nonzero entry off the tridiagonal band fails the sandwich pattern
E*_i A E*_j; ``triple`` needs a square root of -1 unless beta = -2.  The
sha256 of every job's output is pinned in ``expected.json`` by ``pin.py``,
because the documents are promised to be byte-stable.
"""

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

H = (1, 2, 3, 1)
H_STAR = (2, 3, 1, 3)                    # never equal to H: arrays not self-dual
Q_FORMS = ((1, False), (-1, False), (1, True), (-1, True))   # sign, inverted
TAMPER = ((0, 2), (2, 0), (1, 4), (-1, 0))                   # (row, col), off-band
VARIANTS = len(H)

SANDWICH = "sandwich pattern: E*_i A E*_j"
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass(frozen=True)
class Case:
    field: str | None
    family: str | None
    d: int | None
    commands: tuple
    q0: int | None = None
    self_dual: bool = False     # h* = h instead of the drawn h*
    tamper: bool = False        # verify a system document with one off-band entry set

    @property
    def label(self):
        if self.family is None:
            return "selftest"
        tag = " tampered" if self.tamper else ""
        return f"{self.family} d={self.d} over {self.field}{tag}"


_SMALL_FIELDS = ("Q", "Q(i)", "Q(sqrt:2)", "Fp:101", "Fp2:101")

WORKLOADS = {
    # Q and Fp share one workload; the per-layer product times, split by
    # field kind, tell a Q-only kernel from one that helps both.
    "verify": (
        Case("Q", "krawtchouk", 5, ("build", "verify")),
        Case("Q", "bannai-ito", 4, ("build", "verify")),
        Case("Q", "qracah-even", 4, ("build", "verify"), q0=2),
        Case("Q", "qracah-odd", 5, ("build", "verify"), q0=2),
        Case("Q", "bannai-ito", 4, ("verify",), tamper=True),
        Case("Fp:1000003", "krawtchouk", 4, ("verify",)),
        Case("Fp:1000003", "bannai-ito", 6, ("verify",)),
        Case("Fp:1000003", "qracah-even", 8, ("verify",), q0=5),
    ),
    "triple-ext": (
        Case("Q(i)", "krawtchouk", 3, ("triple",), self_dual=True),
        Case("Q(i)", "qracah-odd", 3, ("triple",), q0=2, self_dual=True),
        Case("Fp2:103", "krawtchouk", 5, ("triple",)),
        Case("Q", "bannai-ito", 4, ("triple",), self_dual=True),
    ),
    # d = 3 over Q(i) and Q(sqrt:2) costs ~0.8 s a job, so matrix products
    # would crowd out the per-call cost this workload is there to expose.
    "small-d": (Case(None, None, None, ("selftest",)),) + tuple(
        Case(f, fam, d, ("verify", "triple"))
        for f in _SMALL_FIELDS
        for fam, d in (("small-d1", 1), ("small-d2", 2), ("krawtchouk", 3))
        if d < 3 or not f.startswith("Q(")),
}

# One line per workload: what it stresses and what it bypasses.
WHY = {
    "verify": "build+verify over Q (d=4,5, plus a tampered A) and verify over Fp:1000003 (d=4,6,8): "
              "Fraction and machine-int products, algebra_dimension, dense Lagrange on decoded A",
    "triple-ext": "triple over Q(i), Fp2:103 (self-dualized) and Q (beta=-2): inversions and "
                  "quadratic-extension arithmetic; the verify layer is bypassed",
    "small-d": "selftest plus verify and triple at d<=3 over all five field kinds: per-call "
               "cost of cli, serialize, fields.parse and arrays, and exit-2 answers",
}


def variants(workload, seed):
    """The variant index of each case, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(VARIANTS) if case.family else 0 for case in WORKLOADS[workload]]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def array_doc(tb, case, v):
    """The case's eigenvalue array as a document, for variant v."""
    fld = tb.fields.parse_field(case.field)
    h = fld(H[v])
    h_star = h if case.self_dual else fld(H_STAR[v])
    q = None
    if case.q0 is not None:
        sign, inverted = Q_FORMS[v]
        q = fld(sign * case.q0)
        q = q.inverse() if inverted else q
    family = tb.arrays.Family(case.family)
    arr = tb.arrays.generate_family(fld, family, case.d, h=h, h_star=h_star, q=q)
    return tb.serialize.emit_array(arr)


def tampered_doc(tb, case, v):
    """A system document whose A has one nonzero entry off the band."""
    arr = tb.serialize.decode_array(array_doc(tb, case, v))
    doc = tb.serialize.emit_system(tb.system.build_system(arr))
    i, j = TAMPER[v]
    doc["A"][i][j] = arr.field.encode(arr.field.one)
    return doc


def input_text(tb, case, v):
    """The case's input document for variant v, or None for selftest."""
    if case.family is None:
        return None
    doc = tampered_doc(tb, case, v) if case.tamper else array_doc(tb, case, v)
    return tb.serialize.dumps(doc)


def make_inputs(tb, workload, seed):
    """(case, variant, input document text or None) for every case."""
    return [(case, v, input_text(tb, case, v))
            for case, v in zip(WORKLOADS[workload], variants(workload, seed))]


def load_inputs(tb, inputs):
    """Parse and decode every input document, as a command would."""
    for case, _, text in inputs:
        if text is None:
            continue
        doc = tb.serialize.loads(text)
        if "A" in doc:
            tb.serialize.decode_system(doc)
        else:
            tb.serialize.decode_array(doc)


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    exit: object
    failing: tuple        # names of failed checks, in report order
    error: str | None     # error name on exit 2
    checks: int | None    # number of checks reported
    digest: str           # sha256 of stdout and stderr


def argv_for(command):
    return [command] if command == "selftest" else [command, "-i", "-"]


def verdict(command, rc, out, err):
    failing, checks, error = (), None, None
    if command == "verify":
        lines = out.splitlines()
        failing = tuple(line[6:].split("  [")[0] for line in lines if line.startswith("FAIL  "))
        m = re.fullmatch(r"(\d+) checks, (\d+) failed", lines[-1]) if lines else None
        checks = int(m.group(1)) if m else None
    elif command == "triple" and rc in (0, 1):
        try:
            report = json.loads(out)["report"]["checks"]
            failing = tuple(c["name"] for c in report if not c["passed"])
            checks = len(report)
        except (ValueError, KeyError, TypeError):
            pass
    elif command == "selftest":
        lines = [line for line in out.splitlines() if line[:6] in ("PASS  ", "FAIL  ")]
        failing = tuple(line[6:] for line in lines if line.startswith("FAIL"))
        checks = len(lines)
    if rc == 2:
        error = err.split(":", 1)[0].strip() or None
    digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()
    return Verdict(rc, failing, error, checks, digest)


def minus_one_is_square(spec):
    """Whether -1 has a square root in the field with descriptor spec."""
    if spec.startswith("Fp2:"):
        return True                      # F_p lies in the squares of F_{p^2}
    if spec.startswith("Fp:"):
        return int(spec[3:]) % 4 == 1
    if spec == "Q(i)":
        return True
    if spec.startswith("Q(sqrt:"):
        neg = -Fraction(spec[7:-1])      # -1 is a square iff -D is one in Q
        return neg > 0 and all(isqrt(x) ** 2 == x
                               for x in (neg.numerator, neg.denominator))
    return False


def expected(case, command):
    """(exit code, check that must fail or error name, check count)."""
    if command == "selftest":
        return 0, None, 16           # 12 verified systems and 4 triples
    if command == "build":
        return 0, None, None
    if command == "verify":
        if case.tamper:
            # A is no longer annihilated by its eigenvalue factors, so the
            # 12 involution checks collapse into one: 6 + 2 + 1 + 5 checks.
            return 1, SANDWICH, 14
        return 0, None, 25 + {1: 3, 2: 2}.get(case.d, 0)
    # triple: beta = -2 only for Bannai-Ito with d >= 3; d <= 2 defaults to 2.
    beta_minus_two = case.family == "bannai-ito" and case.d >= 3
    if not beta_minus_two and not minus_one_is_square(case.field):
        return 2, "NoSquareRootInField", None
    return 0, None, 52 if beta_minus_two else 50


def job_key(workload, case, command, v):
    return f"{workload} | {case.label} | {command} | v{v}"


def mismatch(key, case, command, got, pinned):
    """Why got is not the known answer, or None when it is."""
    rc, named, count = expected(case, command)
    if got.exit != rc:
        return f"exit {got.exit}, expected {rc}"
    if rc == 0 and got.failing:
        return f"failed {got.failing[0]!r}"
    if rc == 1 and named not in got.failing:
        return f"{named!r} did not fail"
    if rc == 2 and got.error != named:
        return f"error {got.error}, expected {named}"
    if count is not None and got.checks != count:
        return f"{got.checks} checks, expected {count}"
    want = pinned.get(key)
    if want is None:
        return "no pinned digest"
    if got.digest != want:
        return "output digest differs from the pinned one"
    return None


def load_pinned():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
