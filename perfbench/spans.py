"""Per-layer spans recorded from outside the package.

The package imports its functions by name (``from .system import
build_system``), so a wrapper has to be installed on every module attribute
that holds the original function, not only on the defining module.
``Tracer.install`` does that by scanning every module of the package,
and wraps ``Matrix.__mul__``, ``Matrix.inverse``, ``Field.parse``,
``Field.encode`` and ``CheckResult.__init__`` on their classes.
``Tracer.uninstall`` restores every original.

Each span records its call count, its self time (its duration minus the
time covered by traced calls made inside it) and how many matrix products
and inversions ran inside it, nested calls included.  Field arithmetic is
not wrapped: it is too hot to trace, and its cost shows in the self time of
``matrices.mul``.
"""

import functools
import inspect
import time
import types

# Reported span names per module; arrays and recurrences are traced whole.
_MATRICES = ("lagrange_idempotents", "algebra_dimension")
_SYSTEM = ("build_system", "verify_axioms", "verify_aw_relations",
           "involutions_check", "dagger_report")
_TRIPLE = ("build_C", "build_W", "braid_check", "antiautomorphism_report",
           "sigma_and_psl2z")
_SERIALIZE = {"decode_array": "decode", "decode_system": "decode",
              "decode_triple": "decode", "loads": "decode",
              "emit_array": "emit", "emit_system": "emit",
              "emit_triple": "emit", "dumps": "emit"}

# Products and inversions inside these spans are reported as their own metric.
PRODUCT_SPANS = ("matrices.algebra_dimension", "system.build_system",
                 "system.verify_axioms", "system.involutions_check",
                 "triple.build_C", "triple.build_W",
                 "triple.antiautomorphism_report", "triple.sigma_and_psl2z")
INVERSE_SPANS = ("triple.antiautomorphism_report", "triple.sigma_and_psl2z")
SELF_TIME_SPANS = ("matrices.inverse", "matrices.lagrange_idempotents",
                   "matrices.algebra_dimension", "system.build_system",
                   "system.verify_axioms", "system.verify_aw_relations",
                   "system.involutions_check", "system.dagger_report",
                   "triple.build_C", "triple.build_W", "triple.braid_check",
                   "triple.antiautomorphism_report", "triple.sigma_and_psl2z")
FIELD_KINDS = ("Q", "Fp", "ext")


def _package_modules(tb):
    """The package and every submodule it has loaded."""
    return [tb] + [m for m in vars(tb).values()
                   if isinstance(m, types.ModuleType) and m.__name__.startswith("tbtridiag.")]


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self, tb):
        self._tb = tb
        self._undo = []
        self.reset()

    def reset(self):
        self.stats = {}          # span name -> [count, self seconds, products, inverses]
        self._stack = []         # seconds covered by child spans, per open span
        self.products = 0
        self.inverses = 0
        self.scalar_mults = 0    # sum of n*k*m over n x k by k x m products
        self.checks = 0
        self.bytes_out = 0

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack
        p0, i0 = self.products, self.inverses
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            rec = self.stats.get(name)
            if rec is None:
                rec = self.stats[name] = [0, 0.0, 0, 0]
            rec[0] += 1
            rec[1] += elapsed - child
            rec[2] += self.products - p0
            rec[3] += self.inverses - i0

    def span(self, name, fn):
        """fn wrapped in a span called name."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)
        return wrapper

    def _mul(self, orig):
        tb = self._tb
        Matrix = tb.matrices.Matrix
        kinds = ((tb.fields.RationalField, "matrices.mul.Q"),
                 (tb.fields.PrimeField, "matrices.mul.Fp"),
                 (tb.fields.QuadraticExtension, "matrices.mul.ext"))

        @functools.wraps(orig)
        def mul(a, b):
            if not isinstance(b, Matrix):     # scaling, not a product
                return orig(a, b)
            name = next(n for cls, n in kinds if isinstance(a.field, cls))
            self.products += 1
            self.scalar_mults += a.nrows * a.ncols * b.ncols
            return self._timed(name, orig, (a, b), {})
        return mul

    def _inverse(self, orig):
        @functools.wraps(orig)
        def inverse(m):
            self.inverses += 1
            return self._timed("matrices.inverse", orig, (m,), {})
        return inverse

    def _dumps(self, orig):
        @functools.wraps(orig)
        def dumps(doc):
            text = self._timed("serialize.emit", orig, (doc,), {})
            self.bytes_out += len(text.encode())
            return text
        return dumps

    def _check_init(self, orig):
        @functools.wraps(orig)
        def init(*args, **kwargs):
            self.checks += 1
            return orig(*args, **kwargs)
        return init

    # -- installation ----------------------------------------------------

    def _rebind(self, orig, wrapper):
        """Point every package-level name bound to orig at wrapper."""
        for mod in _package_modules(self._tb):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def _set_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        tb = self._tb
        for name in _MATRICES:
            fn = getattr(tb.matrices, name)
            self._rebind(fn, self.span(f"matrices.{name}", fn))
        for mod, names in ((tb.system, _SYSTEM), (tb.triple, _TRIPLE)):
            short = mod.__name__.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(mod, name)
                self._rebind(fn, self.span(f"{short}.{name}", fn))
        for mod in (tb.arrays, tb.recurrences):
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).copy().items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._rebind(fn, self.span(f"{short}.{name}", fn))
        for name, kind in _SERIALIZE.items():
            fn = getattr(tb.serialize, name)
            wrapper = self._dumps(fn) if name == "dumps" else self.span(f"serialize.{kind}", fn)
            self._rebind(fn, wrapper)
        Matrix, Field = tb.matrices.Matrix, tb.fields.Field
        self._set_method(Matrix, "__mul__", self._mul(Matrix.__mul__))
        self._set_method(Matrix, "inverse", self._inverse(Matrix.inverse))
        self._set_method(Field, "parse", self.span("fields.parse", Field.parse))
        self._set_method(Field, "encode", self.span("fields.encode", Field.encode))
        CheckResult = tb.report.CheckResult
        self._set_method(CheckResult, "__init__", self._check_init(CheckResult.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------

    def _get(self, name):
        return self.stats.get(name, [0, 0.0, 0, 0])

    def _self_time(self, prefix):
        return sum(rec[1] for name, rec in self.stats.items()
                   if name.startswith(prefix))

    def counts(self):
        """The per-pass counts; these repeat exactly for identical inputs."""
        out = {
            "matrices.mul.count": sum(self._get(f"matrices.mul.{k}")[0] for k in FIELD_KINDS),
            "matrices.mul.scalar_mults": self.scalar_mults,
            "matrices.inverse.count": self._get("matrices.inverse")[0],
            "matrices.lagrange_idempotents.count": self._get("matrices.lagrange_idempotents")[0],
            "fields.parse.count": self._get("fields.parse")[0],
            "serialize.bytes_out": self.bytes_out,
            "report.checks": self.checks,
        }
        for name in PRODUCT_SPANS:
            out[f"{name}.products"] = self._get(name)[2]
        for name in INVERSE_SPANS:
            out[f"{name}.inverses"] = self._get(name)[3]
        return out

    def times(self):
        """Self times in seconds for one pass."""
        out = {f"matrices.mul.s.{k}": self._get(f"matrices.mul.{k}")[1] for k in FIELD_KINDS}
        for name in SELF_TIME_SPANS:
            out[f"{name}.s"] = self._get(name)[1]
        out["fields.parse.s"] = self._get("fields.parse")[1]
        out["fields.encode.s"] = self._get("fields.encode")[1]
        out["arrays.s"] = self._self_time("arrays.")
        out["recurrences.s"] = self._self_time("recurrences.")
        out["serialize.decode.s"] = self._get("serialize.decode")[1]
        out["serialize.emit.s"] = self._get("serialize.emit")[1]
        out["cli.self_s"] = self._get("cli")[1]
        return out
