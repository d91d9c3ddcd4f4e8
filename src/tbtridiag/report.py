"""Verification reports: named checks with pass/fail state and witnesses."""

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __iter__(self):
        return iter(self.checks)

    def to_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed,
                 **({"witness": c.witness} if c.witness else {})}
                for c in self.checks
            ],
        }


def combine(*reports):
    checks = []
    for r in reports:
        checks.extend(r.checks)
    return VerificationReport(tuple(checks))


class ReportBuilder:
    """Accumulates CheckResults; never raises on a failed check."""

    def __init__(self):
        self._checks = []

    def record(self, name, passed, witness=None):
        """Append the check and return its verdict, as do the two below."""
        passed = bool(passed)
        self._checks.append(CheckResult(name, passed, witness))
        return passed

    def matrices_equal(self, name, lhs, rhs):
        if lhs == rhs:
            return self.record(name, True)
        for i, (r1, r2) in enumerate(zip(lhs.raw, rhs.raw)):
            for j, (a, b) in enumerate(zip(r1, r2)):
                if a != b:
                    return self.record(name, False,
                                       f"entry ({i},{j}): {lhs[i, j]} != {rhs[i, j]}")
        return self.record(name, False, "shape mismatch")

    def matrix_zero(self, name, m):
        zero = m.field._zero_raw
        for i, row in enumerate(m.raw):
            for j, v in enumerate(row):
                if v != zero:
                    return self.record(name, False, f"entry ({i},{j}) = {m[i, j]} != 0")
        return self.record(name, True)

    def build(self):
        return VerificationReport(tuple(self._checks))
