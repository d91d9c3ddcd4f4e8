"""Exception hierarchy.

Every error raised by this package derives from TBTridiagError, so callers
(and the CLI) can distinguish library failures from programming errors.
The class name is the stable, machine-readable error name.
"""


class TBTridiagError(Exception):
    """Base class for all errors raised by tbtridiag."""

    @property
    def name(self):
        return type(self).__name__


# -- field / matrix arithmetic -------------------------------------------

class FieldMismatch(TBTridiagError):
    """Operands belong to different fields."""


class DivisionByZero(TBTridiagError):
    """Division or inversion of a zero field element."""


class DimensionMismatch(TBTridiagError):
    """Matrix dimensions incompatible with the requested operation."""


class Singular(TBTridiagError):
    """Matrix has no inverse."""


class NotAnnihilated(TBTridiagError):
    """The matrix is not annihilated by the product of its eigenvalue factors."""


class DuplicateEigenvalue(TBTridiagError):
    """The supplied eigenvalue list contains repeats."""


class NoSquareRootInField(TBTridiagError):
    """A required square root does not exist in the working field."""


# -- eigenvalue arrays ----------------------------------------------------

class LengthMismatch(TBTridiagError):
    """Eigenvalue lists have inconsistent lengths."""


class CharacteristicTwo(TBTridiagError):
    """No eigenvalue array exists over a field of characteristic two."""


class InvalidArray(TBTridiagError):
    """Candidate lists fail one or more eigenvalue-array conditions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NoBeta(TBTridiagError):
    """No scalar satisfies both three-term recurrences."""


class BetaInvalid(TBTridiagError):
    """The supplied scalar is not a fundamental parameter for the array."""


class CharacteristicViolation(TBTridiagError):
    """Field characteristic incompatible with the requested family."""


class QConditionViolation(TBTridiagError):
    """The deformation parameter q violates q^{2i} != 1 or q^{2i} != -1."""


class BannaiItoOddDiameter(TBTridiagError):
    """Bannai/Ito arrays require an even diameter."""


class Unclassifiable(TBTridiagError):
    """Internal inconsistency: a validated array matched no family."""


class NotRecurrent(TBTridiagError):
    """Sequence does not satisfy the three-term recurrence."""


class NoQInField(TBTridiagError):
    """No field element q satisfies q^2 + q^-2 = beta."""


class ZeroDenominator(TBTridiagError):
    """Denominator vanished while computing intersection numbers."""


# -- systems and triples --------------------------------------------------

class NotSelfDual(TBTridiagError):
    """Operation requires a self-dual system (theta == theta_star)."""


class RelationViolation(TBTridiagError):
    """A cyclic three-element relation failed to hold."""


class KappaMismatch(TBTridiagError):
    """P^3 is not the predicted scalar multiple of the identity."""


class InvariantViolation(TBTridiagError):
    """An identity that holds by construction failed: the construction is broken."""


def require(ok, what):
    """Raise InvariantViolation(what) unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise InvariantViolation(what)


# -- I/O ------------------------------------------------------------------

class ParseError(TBTridiagError):
    """Malformed element string, field descriptor, or JSON document."""
