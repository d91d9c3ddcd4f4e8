"""Three-term recurrent sequences and their symmetric/antisymmetric structure.

A sequence s_0..s_d is beta-recurrent when s_{i-1} - beta*s_i + s_{i+1} = 0
for 1 <= i <= d-1.  Over a field of characteristic != 2 the recurrent
sequences form a two-dimensional space spanned by one symmetric and one
antisymmetric basis sequence, both given in closed form per beta case.
"""

from dataclasses import dataclass

from .errors import CharacteristicTwo, NoQInField, NotRecurrent, require
from .fields import FieldElement, sort_key


@dataclass(frozen=True)
class RecurrentSeq:
    """A validated beta-recurrent sequence with its symmetry flags."""

    beta: FieldElement
    values: tuple
    symmetric: bool
    antisymmetric: bool
    mutdist: bool

    @property
    def d(self):
        return len(self.values) - 1


def is_recurrent(values, beta):
    return all((values[i - 1] - beta * values[i] + values[i + 1]).is_zero()
               for i in range(1, len(values) - 1))


def make_recurrent(values, beta):
    """Wrap a sequence as a RecurrentSeq, verifying the recurrence."""
    field = beta.field
    values = tuple(field(v) for v in values)
    if len(values) < 2:
        raise NotRecurrent("need at least two terms")
    if not is_recurrent(values, beta):
        raise NotRecurrent("sequence is not beta-recurrent for the given beta")
    d = len(values) - 1
    sym = all(values[i] == values[d - i] for i in range(d + 1))
    asym = all((values[i] + values[d - i]).is_zero() for i in range(d + 1))
    mutdist = len(set(values)) == len(values)
    return RecurrentSeq(beta, values, sym, asym, mutdist)


def recurrence_constant(seq):
    """The scalar s_{i-1}^2 - beta*s_{i-1}*s_i + s_i^2, independent of i."""
    v, beta = seq.values, seq.beta
    c = v[0] * v[0] - beta * v[0] * v[1] + v[1] * v[1]
    for i in range(2, len(v)):
        require(v[i - 1] * v[i - 1] - beta * v[i - 1] * v[i] + v[i] * v[i] == c,
                "s_{i-1}^2 - beta s_{i-1} s_i + s_i^2 depends on i")
    return c


def sym_asym_split(values, beta):
    """Split a beta-recurrent sequence into symmetric + antisymmetric parts."""
    field = beta.field
    if field.characteristic == 2:
        raise CharacteristicTwo("no symmetric/antisymmetric splitting in characteristic 2")
    values = tuple(field(v) for v in values)
    if not is_recurrent(values, beta):
        raise NotRecurrent("sequence is not beta-recurrent for the given beta")
    d = len(values) - 1
    half = field(2).inverse()
    sym = tuple((values[i] + values[d - i]) * half for i in range(d + 1))
    asym = tuple((values[i] - values[d - i]) * half for i in range(d + 1))
    return sym, asym


def solve_q(beta):
    """A field element q with q^2 + q^-2 = beta, canonical among the four
    solutions +-q, +-1/q, or None when no solution lies in the field."""
    field = beta.field
    # t = q^2 solves t^2 - beta*t + 1 = 0
    disc = beta * beta - 4
    rd = field.sqrt(disc)
    if rd is None:
        return None
    half = field(2).inverse()
    candidates = []
    for t in ((beta + rd) * half, (beta - rd) * half):
        q = field.sqrt(t)
        if q is not None and not q.is_zero():
            candidates.extend([q, -q, q.inverse(), -q.inverse()])
    if not candidates:
        return None
    return min(candidates, key=sort_key)


def _require_q(beta, q):
    if q is None:
        q = solve_q(beta)
        if q is None:
            raise NoQInField(
                f"no q in {beta.field} with q^2 + q^-2 = {beta}; pass q explicitly "
                "or extend the field")
    else:
        q = beta.field(q)
        if q * q + (q * q).inverse() != beta:
            raise NoQInField(f"q = {q} does not satisfy q^2 + q^-2 = {beta}")
    return q


def basis_sym(field, beta, d, q=None):
    """The closed-form symmetric basis sequence for the given beta and d."""
    beta = field(beta)
    if field.characteristic == 2:
        raise CharacteristicTwo("basis sequences require characteristic != 2")
    if beta == field(2):
        return tuple(field.one for _ in range(d + 1))
    if beta == field(-2):
        if d % 2 == 0:
            return tuple(field(-1) ** i for i in range(d + 1))
        return tuple(field(d - 2 * i) * field(-1) ** i for i in range(d + 1))
    q = _require_q(beta, q)
    vals = [q ** (d - 2 * i) + q ** (2 * i - d) for i in range(d + 1)]
    if d % 2 == 0:
        return tuple(vals)
    scale = (q + q.inverse()).inverse()
    return tuple(v * scale for v in vals)


def basis_asym(field, beta, d, q=None):
    """The closed-form antisymmetric basis sequence for the given beta and d."""
    beta = field(beta)
    if field.characteristic == 2:
        raise CharacteristicTwo("basis sequences require characteristic != 2")
    if beta == field(2):
        return tuple(field(d - 2 * i) for i in range(d + 1))
    if beta == field(-2):
        if d % 2 == 0:
            return tuple(field((d - 2 * i) * (-1) ** i) for i in range(d + 1))
        return tuple(field((-1) ** i) for i in range(d + 1))
    q = _require_q(beta, q)
    scale = (q * q - (q * q).inverse() if d % 2 == 0
             else q - q.inverse()).inverse()
    return tuple((q ** (d - 2 * i) - q ** (2 * i - d)) * scale for i in range(d + 1))
