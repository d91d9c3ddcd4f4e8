"""Exact field arithmetic: rationals, prime fields, and one quadratic extension layer.

Every element is an immutable value in canonical form, so ``==`` is structural
equality and results are reproducible byte for byte.  Supported fields:

* ``QQ`` -- the rational numbers, raw values reduced int pairs ``(n, d)``
  with ``d > 0`` and zero ``(0, 1)`` (a ``Fraction`` is accepted as input),
* ``PrimeField(p)`` -- integers mod a prime, canonical residue in ``[0, p)``,
* ``QuadraticExtension(base, d)`` -- ``base(sqrt(d))`` for a nonsquare ``d``.

Text encodings (used by all JSON I/O): rationals ``"p/q"`` or ``"n"`` in
decimal digits with an optional leading ``-`` and nothing else, prime
fields ``"n mod p"``, quadratic extensions ``"a+b*sqrt(d)"`` with ``a``, ``b``,
``d`` in the base encoding.  Field descriptors use the mini-language
``Q``, ``Q(i)``, ``Q(sqrt:D)``, ``Fp:p``, ``Fp2:p``.

Each field also owns the raw kernels for matrix work over it, on lists of
raw values so that no entry is boxed in an inner loop: ``_matmul(rows,
cols)``, the product of the left operand's rows with the right operand's
columns, and ``_sub_scaled(vec, x, row)``, the elimination step vec - x*row.
A quadratic extension takes one of two paths.  An operand whose sqrt(d)
coordinates are all zero runs on the base's own kernels: ``_matmul`` forms
one base product when both operands lie in the base and two when one does,
and ``_mul`` and ``_inv`` of a base-valued element use base operations
alone.  Any other product is formed on the base's integer view: values as
ints over one denominator (``_integer_view(vecs)``, ``_integer_pair(a, b)``),
and back (``_from_integers(num, den)``).  A zero that ``QQ``'s arithmetic or
a product kernel returns is the field's shared zero value (over an
extension, the base's, in each coordinate), so raw tuples compare equal on
identity at zeros.
"""

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import DivisionByZero, FieldMismatch, ParseError

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_RESIDUE = re.compile(r"(-?[0-9]+)(?: mod ([0-9]+))?")
_MODULUS = re.compile(r"[0-9]+")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all thirteen bases above
# (Sorenson and Webster, Math. Comp. 86 (2017)); below it the test is exact.
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin for n < psi_13 = 3317044064679887385961981.

    Raises ValueError at or above that bound, where the fixed bases no longer
    decide primality.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} >= {_MR_LIMIT} is not decided here")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """An element of an exact field.  Immutable; arithmetic via operators."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerced(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{other.field} element used in {self.field}")
            return other.value
        if isinstance(other, int):
            return self.field._from_int(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerced(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerced(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerced(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(v, self.value))

    def __mul__(self, other):
        v = self._coerced(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerced(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.value, self.field._inv(v)))

    def __rtruediv__(self, other):
        v = self._coerced(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(v, self.field._inv(self.value)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        f = self.field
        if n < 0:
            return FieldElement(f, f._powraw(f._inv(self.value), -n))
        return FieldElement(f, f._powraw(self.value, n))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return ((self.field is other.field or self.field == other.field)
                    and self.value == other.value)
        if isinstance(other, int):
            return self.value == self.field._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self):
        return self.value == self.field._zero_raw

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.value))

    def conjugate(self):
        """Galois conjugate a + b*sqrt(d) -> a - b*sqrt(d); identity on base fields."""
        return FieldElement(self.field, self.field._conj(self.value))

    def sqrt(self):
        """Canonical square root in the field, or None if no root exists."""
        return self.field.sqrt(self)

    def __repr__(self):
        return f"<{self.field.encode(self)}>"

    def __str__(self):
        return self.field.encode(self)


class Field:
    """Common interface for the supported exact fields."""

    characteristic = None

    def __call__(self, x):
        """Coerce an int, string, or element of this field."""
        if isinstance(x, FieldElement):
            if x.field is not self and x.field != self:
                raise FieldMismatch(f"{x.field} element used in {self}")
            return x
        if isinstance(x, int):
            return FieldElement(self, self._from_int(x))
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    @property
    def zero(self):
        return FieldElement(self, self._zero_raw)

    @property
    def one(self):
        return FieldElement(self, self._one_raw)

    def parse(self, text):
        if not isinstance(text, str):
            raise ParseError(f"field elements are strings, got {text!r}")
        return FieldElement(self, self._parse_raw(text.strip()))

    def encode(self, elem):
        if elem.field is not self and elem.field != self:
            raise FieldMismatch("element of a different field")
        return self._encode_raw(elem.value)

    def sqrt(self, elem):
        """Canonical square root of elem, or None.

        Both roots r, -r are valid; the canonical one has "nonnegative"
        leading coordinate (positive rational / least residue up to (p-1)/2 /
        recursively on the extension coordinates).  This makes downstream
        scalar choices deterministic.
        """
        elem = self(elem)
        r = self._sqrt_raw(elem.value)
        if r is None:
            return None
        if not self._nonneg_raw(r):
            r = self._neg(r)
        return FieldElement(self, r)

    def _sub_scaled(self, vec, x, row):
        """vec - x * row on raw values: the row update of an elimination."""
        sub, mul = self._sub, self._mul
        return [sub(a, mul(x, b)) for a, b in zip(vec, row)]

    def _powraw(self, v, n):
        out = self._one_raw
        while n:
            if n & 1:
                out = self._mul(out, v)
            v = self._mul(v, v)
            n >>= 1
        return out

    def _conj(self, v):
        return v

    def __repr__(self):
        return self.descriptor()


class RationalField(Field):
    """The field of rational numbers; raw values are reduced int pairs (n, d), d > 0."""

    characteristic = 0
    _zero_raw = (0, 1)
    _one_raw = (1, 1)

    def __call__(self, x):
        if isinstance(x, FieldElement) or not isinstance(x, Fraction):
            return super().__call__(x)
        return FieldElement(self, (x.numerator, x.denominator) if x else self._zero_raw)

    def _from_int(self, n):
        return (int(n), 1) if n else self._zero_raw   # int(): a bool encodes as 1, not True

    def _add(self, u, v):
        (a, b), (c, d) = u, v
        n, m = a * d + b * c, b * d
        if not n:
            return self._zero_raw
        g = gcd(n, m)
        return n // g, m // g

    def _sub(self, u, v):
        (a, b), (c, d) = u, v
        n, m = a * d - b * c, b * d
        if not n:
            return self._zero_raw
        g = gcd(n, m)
        return n // g, m // g

    def _mul(self, u, v):
        # cross-gcd rule (Knuth, TAOCP 4.5.1): a/b * c/d with gcd(a, d) and
        # gcd(c, b) cancelled is already reduced
        (a, b), (c, d) = u, v
        if not (a and c):
            return self._zero_raw
        g, h = gcd(a, d), gcd(c, b)
        return (a // g) * (c // h), (b // h) * (d // g)

    def _neg(self, u):
        return (-u[0], u[1]) if u[0] else self._zero_raw

    def _inv(self, u):
        a, b = u
        if not a:
            raise DivisionByZero("1/0 in Q")
        return (b, a) if a > 0 else (-b, -a)

    def _matmul(self, rows, cols):
        # Integer dot products over each operand's common denominator, then
        # one reduction per nonzero entry; a zero entry is the shared zero.
        a, da = self._integer_view(rows)
        b, db = self._integer_view(cols)
        den, val, zero = da * db, self._from_integers, self._zero_raw
        return [[val(s, den) if s else zero for s in [sum(map(mul, r, c)) for c in b]]
                for r in a]

    def _integer_view(self, vecs):
        """Rational vectors as int vectors over one common denominator."""
        den = lcm(*{d for v in vecs for _, d in v})
        return [[n * (den // d) for n, d in v] for v in vecs], den

    def _integer_pair(self, a, b):
        return a[0] * b[1], b[0] * a[1], a[1] * b[1]

    def _from_integers(self, num, den):
        """num/den reduced, for den > 0."""
        if not num:
            return self._zero_raw
        g = gcd(num, den)
        return num // g, den // g

    def _encode_raw(self, v):
        n, d = v
        return str(n) if d == 1 else f"{n}/{d}"

    def _parse_raw(self, text):
        if not _RATIONAL.fullmatch(text):
            raise ParseError(f"bad rational {text!r}: expected n or p/q, "
                             "optionally with a leading -")
        num, _, den = text.partition("/")
        try:
            n, d = int(num), int(den or 1)
        except ValueError as exc:
            raise ParseError(f"bad rational {text!r}: {exc}") from None
        if not d:       # in the words Fraction(n, 0) raised them
            raise ParseError(f"bad rational {text!r}: Fraction({n}, 0)")
        return self._from_integers(n, d)

    def _sqrt_raw(self, v):
        n, d = v
        if n <= 0:
            return None if n else self._zero_raw
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return rn, rd
        return None

    def _nonneg_raw(self, v):
        return v[0] >= 0

    def descriptor(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


QQ = RationalField()


class PrimeField(Field):
    """Integers modulo a prime p; raw values are canonical residues."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self._zero_raw = 0
        self._one_raw = 1 % p

    def _from_int(self, n):
        return n % self.p

    def _add(self, u, v):
        return (u + v) % self.p

    def _sub(self, u, v):
        return (u - v) % self.p

    def _mul(self, u, v):
        return u * v % self.p

    def _neg(self, u):
        return -u % self.p

    def _inv(self, u):
        if u == 0:
            raise DivisionByZero(f"1/0 in F{self.p}")
        return pow(u, -1, self.p)

    def _matmul(self, rows, cols):
        # Residues are nonnegative ints: reduce each dot product once.
        p = self.p
        return [[sum(map(mul, r, c)) % p for c in cols] for r in rows]

    def _integer_view(self, vecs):
        # residues are already ints, over the denominator 1
        return vecs, 1

    def _integer_pair(self, a, b):
        return a, b, 1

    def _from_integers(self, num, den):
        # every denominator of this view is 1
        return num % self.p

    def _sub_scaled(self, vec, x, row):
        p = self.p
        return [(a - x * b) % p for a, b in zip(vec, row)]

    def _encode_raw(self, v):
        return f"{v} mod {self.p}"

    def _parse_raw(self, text):
        m = _RESIDUE.fullmatch(text)
        if not m:
            raise ParseError(f"bad residue {text!r}: expected n or n mod {self.p}, "
                             "optionally with a leading -")
        body, modulus = m.groups()
        try:    # int() refuses more digits than the interpreter's limit
            if modulus is not None and int(modulus) != self.p:
                raise ParseError(f"{text!r} is not an element of F{self.p}")
            return int(body) % self.p
        except ValueError as exc:
            raise ParseError(f"bad residue {text!r}: {exc}") from None

    def is_square(self, v):
        return v == 0 or pow(v, (self.p - 1) // 2, self.p) == 1

    def _sqrt_raw(self, v):
        # Tonelli-Shanks
        p = self.p
        if v == 0:
            return 0
        if p == 2:
            return v
        if not self.is_square(v):
            return None
        if p % 4 == 3:
            return pow(v, (p + 1) // 4, p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.is_square(z):
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(v, q, p), pow(v, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def _nonneg_raw(self, v):
        return v <= (self.p - 1) // 2

    def descriptor(self):
        return f"Fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class QuadraticExtension(Field):
    """base(sqrt(d)) for a nonsquare d; raw values are (a, b) base-raw pairs."""

    def __init__(self, base, d):
        if isinstance(base, QuadraticExtension):
            raise ValueError("only one extension layer is supported")
        self.base = base
        self.d = base(d)
        if self.d.is_zero() or base.sqrt(self.d) is not None:
            raise ValueError(f"{self.d} is a square in {base}; the extension is not a field")
        self.characteristic = base.characteristic
        self._zero_raw = (base._zero_raw, base._zero_raw)
        self._one_raw = (base._one_raw, base._zero_raw)
        self._draw = self.d.value
        self._dn, _, self._dd = base._integer_pair(self._draw, base._zero_raw)

    def gen(self):
        """The adjoined square root of d."""
        return FieldElement(self, (self.base._zero_raw, self.base._one_raw))

    def embed(self, x):
        """Embed a base-field element (or int/str of the base)."""
        return FieldElement(self, (self.base(x).value, self.base._zero_raw))

    def __call__(self, x):
        if isinstance(x, FieldElement):
            if x.field == self.base:
                return self.embed(x)
            return super().__call__(x)
        if isinstance(x, (int, str)):
            return super().__call__(x)
        return self.embed(self.base(x))

    def _from_int(self, n):
        return (self.base._from_int(n), self.base._zero_raw)

    def _add(self, u, v):
        ba = self.base._add
        return (ba(u[0], v[0]), ba(u[1], v[1]))

    def _sub(self, u, v):
        bs = self.base._sub
        return (bs(u[0], v[0]), bs(u[1], v[1]))

    def _mul(self, u, v):
        # the 1 x 1 case of _matmul: a factor in the base scales the other's
        # coordinates, a(c + e s) = ac + ae s
        base = self.base
        if u[1] == base._zero_raw:
            a, bm = u[0], base._mul
            return (bm(a, v[0]), bm(a, v[1]))
        if v[1] == base._zero_raw:
            c, bm = v[0], base._mul
            return (bm(u[0], c), bm(u[1], c))
        dn, dd = self._dn, self._dd
        x, y, du = base._integer_pair(*u)
        z, t, dv = base._integer_pair(*v)
        den = du * dv
        return (base._from_integers(dd * x * z + dn * y * t, den * dd),
                base._from_integers(x * t + y * z, den))

    def _neg(self, u):
        bn = self.base._neg
        return (bn(u[0]), bn(u[1]))

    def _conj(self, u):
        return (u[0], self.base._neg(u[1]))

    def _inv(self, u):
        # 1/(a+b*s) = (a-b*s)/(a^2 - d b^2); the norm vanishes only at zero
        # because d is a nonsquare, and 1/a stays in the base.
        if u == self._zero_raw:
            raise DivisionByZero(f"1/0 in {self}")
        a, b = u
        base = self.base
        if b == base._zero_raw:
            return (base._inv(a), base._zero_raw)
        bm, bs = base._mul, base._sub
        norm = bs(bm(a, a), bm(self._draw, bm(b, b)))
        ninv = base._inv(norm)
        return (bm(a, ninv), base._neg(bm(b, ninv)))

    def _matmul(self, rows, cols):
        # An operand with no sqrt(d) part runs on the base's kernel: one
        # product when both lie in the base, else X(Z + T s) = XZ + (XT) s or
        # (X + Y s)Z = XZ + (YZ) s, the two products formed as one.
        base, zero = self.base, self.base._zero_raw
        (x, y), (z, t) = _coordinates(rows), _coordinates(cols)
        left, right = (all(v.count(zero) == len(v) for v in im) for im in (y, t))
        if left and right:
            return [[(v, zero) for v in r] for r in base._matmul(x, z)]
        if left:
            xzt, m = base._matmul(x, z + t), len(cols)
            return [list(zip(r[:m], r[m:])) for r in xzt]
        if right:
            xyz, n = base._matmul(x + y, z), len(rows)
            return [list(zip(a, b)) for a, b in zip(xyz[:n], xyz[n:])]
        # (X + Y s)(Z + T s) = (XZ + D YT) + (XT + YZ) s with D = Dn/Dd.  On the
        # base's integer view (X, Y over the rows' denominator, Z, T over the
        # columns') each coordinate is one integer dot product of side-by-side
        # blocks: [X  Y][Dd Z; Dn T] over den Dd, and [X  Y][T; Z] over den.
        dn, dd = self._dn, self._dd
        xy, dr = base._integer_view([a + b for a, b in zip(x, y)])
        zt, dc = base._integer_view([a + b for a, b in zip(z, t)])
        k = len(zt[0]) // 2 if zt else 0
        real_cols = [[dd * v for v in c[:k]] + [dn * v for v in c[k:]] for c in zt]
        imag_cols = [c[k:] + c[:k] for c in zt]
        sums = ([(sum(map(mul, r, rc)), sum(map(mul, r, ic)))
                 for rc, ic in zip(real_cols, imag_cols)] for r in xy)
        # a zero coordinate is the base's shared zero, not a new value
        den, val = dr * dc, base._from_integers
        return [[(val(p, den * dd) if p else zero, val(q, den) if q else zero) for p, q in row]
                for row in sums]

    def _encode_raw(self, v):
        enc = self.base._encode_raw
        return f"{enc(v[0])}+{enc(v[1])}*sqrt({enc(self._draw)})"

    def _parse_raw(self, text):
        if "sqrt" not in text:
            return (self.base._parse_raw(text), self.base._zero_raw)
        head, sep, tail = text.partition("+")
        if not sep:
            raise ParseError(f"bad extension element {text!r}")
        try:
            a = self.base._parse_raw(head.strip())
        except ParseError:
            raise ParseError(f"bad extension element {text!r}") from None
        tail = tail.strip()
        if not tail.endswith(")"):
            raise ParseError(f"bad extension element {text!r}")
        coeff, sep, dpart = tail[:-1].partition("*sqrt(")
        if not sep:
            raise ParseError(f"bad extension element {text!r}")
        b = self.base._parse_raw(coeff.strip())
        if self.base._parse_raw(dpart.strip()) != self._draw:
            raise ParseError(f"{text!r} does not live in {self}")
        return (a, b)

    def _sqrt_raw(self, v):
        x, y = v
        base = self.base
        if v == self._zero_raw:
            return self._zero_raw
        if y == base._zero_raw:
            # sqrt of a base element: either in the base, or b*sqrt(d)
            r = base._sqrt_raw(x)
            if r is not None:
                return (r, base._zero_raw)
            r = base._sqrt_raw(base._mul(x, base._inv(self._draw)))
            if r is not None:
                return (base._zero_raw, r)
            return None
        # (a+b s)^2 = x + y s  =>  a^2 is a root of t(x - t) = d y^2 / 4
        bm, bs = base._mul, base._sub
        disc = bs(bm(x, x), bm(self._draw, bm(y, y)))
        rdisc = base._sqrt_raw(disc)
        if rdisc is None:
            return None
        half = base._inv(base._from_int(2))
        for sgn in (rdisc, base._neg(rdisc)):
            t = bm(base._add(x, sgn), half)
            a = base._sqrt_raw(t)
            if a is None or a == base._zero_raw:
                continue
            b = bm(y, base._inv(bm(base._from_int(2), a)))
            cand = (a, b)
            if self._mul(cand, cand) == v:
                return cand
        return None

    def _nonneg_raw(self, v):
        a, b = v
        if a != self.base._zero_raw:
            return self.base._nonneg_raw(a)
        return self.base._nonneg_raw(b)

    def descriptor(self):
        if isinstance(self.base, RationalField):
            if self.d == -1:
                return "Q(i)"
            return f"Q(sqrt:{self.base._encode_raw(self.d.value)})"
        if isinstance(self.base, PrimeField):
            if self.d.value == least_nonresidue(self.base.p):
                return f"Fp2:{self.base.p}"
        raise ParseError(f"no descriptor for extension of {self.base} by sqrt({self.d})")

    def __eq__(self, other):
        return (isinstance(other, QuadraticExtension)
                and other.base == self.base and other.d == self.d)

    def __hash__(self):
        return hash(("ext", self.base, self.d.value))


def _coordinates(vecs):
    """The first and the sqrt(d) coordinates of extension vectors, as two
    lists of base-raw vectors."""
    return [[a for a, _ in v] for v in vecs], [[b for _, b in v] for v in vecs]


def least_nonresidue(p):
    """Smallest positive quadratic nonresidue mod an odd prime."""
    if p == 2:
        raise ValueError("every element of F2 is a square")
    f = PrimeField(p)
    n = 2
    while f.is_square(n % p):
        n += 1
    return n


def QQi():
    """The Gaussian rationals Q(i)."""
    return QuadraticExtension(QQ, -1)


def parse_field(spec):
    """Parse a field descriptor: Q, Q(i), Q(sqrt:D), Fp:p, Fp2:p."""
    if not isinstance(spec, str):
        raise ParseError(f"field descriptors are strings, got {spec!r}")
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec == "Q(i)":
        return QQi()
    if spec.startswith("Q(sqrt:") and spec.endswith(")"):
        try:
            return QuadraticExtension(QQ, QQ.parse(spec[7:-1]))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if spec.startswith(("Fp:", "Fp2:")):
        kind, modulus = spec.split(":", 1)
        # int() alone would also take "1_000_003", "+7", " 7" and non-ASCII digits
        if not _MODULUS.fullmatch(modulus):
            raise ParseError(f"field modulus {modulus!r} is not decimal digits")
        try:
            p = int(modulus)
            base = PrimeField(p)
            return base if kind == "Fp" else QuadraticExtension(base, least_nonresidue(p))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field descriptor {spec!r}")


def sort_key(elem):
    """Deterministic total order used to pick canonical representatives."""
    neg = 0 if elem.field._nonneg_raw(elem.value) else 1
    enc = elem.field.encode(elem)
    return (neg, len(enc), enc)
