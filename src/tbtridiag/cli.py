"""Command-line interface.

Subcommands: generate (family -> array JSON), build (array -> system JSON),
verify (array or system JSON -> report), triple (array -> triple JSON +
report), selftest (built-in grid).  Exit codes: 0 success, 1 a mathematical
check failed, 2 malformed input or configuration.

The environment variable TB_TRIDIAG_MAX_D (default 64) caps the diameter; a
value that is not an integer, written -?[0-9]+, is malformed configuration
(exit 2).
"""

import argparse
import os
import re
import sys as _sys

from . import serialize
from .arrays import Family, aw_sequence_nonzero, generate_family, self_dualize
from .errors import InvalidArray, ParseError, TBTridiagError
from .fields import parse_field
from .report import CheckResult, VerificationReport, combine
from .system import (build_system, dagger_report, involutions_check,
                     verify_aw_relations, verify_axioms)
from .triple import (antiautomorphism_report, braid_check, build_C, build_W,
                     sigma_and_psl2z, triple_scalars)


def _max_d():
    text = os.environ.get("TB_TRIDIAG_MAX_D", "64")
    try:
        # int() alone would also take "+64", " 64", "6_4" and non-ASCII digits
        if re.fullmatch(r"-?[0-9]+", text):
            return int(text)
    except ValueError:      # more digits than the interpreter's int limit
        pass
    raise ParseError(f"TB_TRIDIAG_MAX_D = {text!r} is not an integer")


def _check_cap(d):
    cap = _max_d()
    if d > cap:
        raise ParseError(f"d = {d} exceeds TB_TRIDIAG_MAX_D = {cap}")
    if d < 1:
        raise ParseError("d must be at least 1")


def _write_out(text, path):
    if path is None or path == "-":
        _sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_doc(path):
    try:
        if path == "-":
            text = _sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return serialize.loads(text)


def _report_table(report):
    lines = []
    for c in report:
        mark = "PASS" if c.passed else "FAIL"
        line = f"{mark}  {c.name}"
        if c.witness:
            line += f"  [{c.witness}]"
        lines.append(line)
    failed = len(report.failures())
    lines.append(f"{len(report.checks)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _print_report(report, fmt):
    if fmt == "json":
        _sys.stdout.write(serialize.dumps(report.to_dict()))
    else:
        _sys.stdout.write(_report_table(report))


def _array_table(arr):
    lines = [f"field: {arr.field.descriptor()}", f"d: {arr.d}"]
    lines.append("theta: " + ", ".join(str(t) for t in arr.theta))
    lines.append("theta_star: " + ", ".join(str(t) for t in arr.theta_star))
    if arr.family is not None:
        tag = arr.family
        extra = f" (h={tag.h}, h_star={tag.h_star}"
        if tag.q is not None:
            extra += f", q={tag.q}"
        extra += ")"
        lines.append("family: " + tag.family.value + extra)
    return "\n".join(lines) + "\n"


def cmd_generate(args):
    fld = parse_field(args.field)
    _check_cap(args.d)
    arr = generate_family(fld, Family(args.family), args.d,
                          h=fld.parse(args.h),
                          h_star=fld.parse(args.h_star) if args.h_star else None,
                          q=fld.parse(args.q) if args.q else None)
    if args.format == "table":
        _write_out(_array_table(arr), args.output)
    else:
        _write_out(serialize.dumps(serialize.emit_array(arr)), args.output)
    return 0


def _load_array(doc):
    arr = serialize.decode_array(doc)
    _check_cap(arr.d)
    return arr


def cmd_build(args):
    doc = _read_doc(args.input)
    if "theta" not in doc:
        raise ParseError("build expects an eigenvalue-array document")
    arr = _load_array(doc)
    system = build_system(arr)
    _write_out(serialize.dumps(serialize.emit_system(system)), args.output)
    return 0


def _full_verification(system):
    reports = [verify_axioms(system)]
    try:
        seq = aw_sequence_nonzero(system.array)
        reports.append(verify_aw_relations(system, seq))
    except TBTridiagError as exc:
        reports.append(VerificationReport(
            (CheckResult("Askey-Wilson relations", False, str(exc)),)))
    return combine(*reports, involutions_check(system), dagger_report(system))


def cmd_verify(args):
    doc = _read_doc(args.input)
    try:
        if "A" in doc:
            # the cap comes first: decoding forms every eigenvector
            arr = serialize.system_array(doc)
            _check_cap(arr.d)
            system = serialize.decode_system(doc, arr)
        elif "theta" in doc:
            system = build_system(_load_array(doc))
        else:
            raise ParseError("verify expects an array or system document")
    except InvalidArray as exc:
        report = VerificationReport(tuple(
            CheckResult(f"eigenvalue array condition", False, v)
            for v in exc.violations))
        _print_report(report, args.format)
        return 1
    report = _full_verification(system)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def _complete_triple(system, sc):
    """The Leonard-triple completion of a self-dual system with scalars sc,
    and its report."""
    tri = build_C(system, sc)
    w = build_W(tri)
    report = combine(braid_check(w), antiautomorphism_report(system, tri, w),
                     sigma_and_psl2z(system, tri, w))
    return tri, w, report


def cmd_triple(args):
    doc = _read_doc(args.input)
    if "theta" not in doc:
        raise ParseError("triple expects an eigenvalue-array document")
    arr = self_dualize(_load_array(doc))
    beta = arr.field.parse(args.beta) if args.beta else None
    # the scalars need only the array: a missing square root fails here,
    # before the system is built
    sc = triple_scalars(arr, beta=beta)
    system = build_system(arr)
    tri, w, report = _complete_triple(system, sc)
    triple_doc = serialize.emit_triple(system, tri, w)
    if args.output:
        _write_out(serialize.dumps(triple_doc), args.output)
        _print_report(report, args.format)
    elif args.format == "json":
        _sys.stdout.write(serialize.dumps(
            {"triple": triple_doc, "report": report.to_dict()}))
    else:
        _print_report(report, args.format)
    return 0 if report.passed else 1


_SELFTEST_GRID = [
    ("Q", Family.SMALL_D1, 1, {}),
    ("Q", Family.SMALL_D2, 2, {}),
    ("Q", Family.KRAWTCHOUK, 3, {}),
    ("Q", Family.KRAWTCHOUK, 4, {"h": "2"}),
    ("Q", Family.BANNAI_ITO, 2, {}),
    ("Q", Family.BANNAI_ITO, 4, {}),
    ("Q", Family.QRACAH_EVEN, 4, {"q": "2"}),
    ("Q", Family.QRACAH_ODD, 3, {"q": "2"}),
    ("Fp:101", Family.KRAWTCHOUK, 3, {}),
    ("Fp:101", Family.BANNAI_ITO, 4, {}),
    ("Fp:101", Family.QRACAH_EVEN, 4, {"q": "5"}),
    ("Fp:101", Family.QRACAH_ODD, 3, {"q": "5"}),
]

_SELFTEST_TRIPLES = [
    ("Q(i)", Family.KRAWTCHOUK, 3, {}),
    ("Q", Family.BANNAI_ITO, 4, {}),
    ("Q(i)", Family.QRACAH_ODD, 3, {"q": "2"}),
    ("Fp:101", Family.KRAWTCHOUK, 3, {}),
]


def _selftest_system(spec, family, d, kwargs):
    fld = parse_field(spec)
    return build_system(generate_family(
        fld, family, d, **{k: fld.parse(v) for k, v in kwargs.items()}))


def cmd_selftest(args):
    failed = 0
    for kind, grid, check in (
            ("verify", _SELFTEST_GRID, _full_verification),
            ("triple", _SELFTEST_TRIPLES,
             lambda system: _complete_triple(system, triple_scalars(system.array))[2])):
        for spec, family, d, kwargs in grid:
            ok = check(_selftest_system(spec, family, d, kwargs)).passed
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {kind} {family.value} d={d} over {spec}")
    print(f"selftest: {failed} failures")
    return 1 if failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tbtridiag",
        description="Construct and verify totally bipartite tridiagonal "
                    "systems over exact fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    fams = [f.value for f in Family]

    p = sub.add_parser("generate", help="emit a closed-form eigenvalue array")
    p.add_argument("--field", required=True, help="Q, Q(i), Q(sqrt:D), Fp:p, Fp2:p")
    p.add_argument("--family", required=True, choices=fams)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--h", default="1")
    p.add_argument("--h-star", dest="h_star", default=None)
    p.add_argument("--q", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="build the system for an array document")
    p.add_argument("-i", "--input", required=True, help="array JSON path or -")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify an array or system document")
    p.add_argument("-i", "--input", required=True, help="JSON path or -")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("triple", help="complete an array to a Leonard triple")
    p.add_argument("-i", "--input", required=True, help="array JSON path or -")
    p.add_argument("--beta", default=None,
                   help="fundamental-parameter choice for d <= 2")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_triple)

    p = sub.add_parser("selftest", help="run a built-in verification grid")
    p.set_defaults(func=cmd_selftest)

    return parser


# Options whose value is a field element.  argparse reads only -n and -n.m as
# negative numbers, so in "--h -1/2" it would take -1/2 for an option.
_ELEMENT_OPTIONS = frozenset({"--h", "--h-star", "--q", "--beta"})


def _attach_negative_elements(argv):
    """Write "--h -1/2" as "--h=-1/2"; every element text starts with a digit
    after its sign, and no option of the parser does."""
    out = []
    for arg in argv:
        if out and out[-1] in _ELEMENT_OPTIONS and re.match(r"-[0-9]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# Built on the first call of main, not at import, and reused by every later
# call in the process: parse_args leaves the parser as it found it, and each
# cmd_* looks its library functions up as module globals when it runs.
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(_attach_negative_elements(
        _sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except TBTridiagError as exc:
        print(f"{exc.name}: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
