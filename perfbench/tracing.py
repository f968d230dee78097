"""Layer timing from outside the program.

``SpanTracer.install()`` replaces each public function of the layer
modules with a wrapper that records a span (name, start, end, parent span,
op id), in every qdeg module namespace that binds the function, so calls
between modules are seen too (``ideal_member`` calling ``groebner``, the
three bindings of ``matrix_rank``).  ``QPolynomial`` multiplication,
addition and powers are spans as well.  A span's self time is its duration
minus the durations of its direct children.

Field methods and ``Monomial.mul`` run millions of times; wrapping them with
spans would distort every timing around them.  ``CallCounter.install()``
counts them instead, and the benchmark runs it in a separate process from
the span tracer, so that the counting cost never lands inside a span.
"""

import inspect
import sys
import threading
from time import perf_counter

LAYERS = ("ideals", "cohomology", "linalg", "parser", "flatten", "geometry",
          "charp", "grading", "cli")

# Calls whose span name carries the coefficient field: ``<name>.q`` or ``.fp``.
_FIELD_OF_ARGS = {
    "ideals.groebner": lambda a: a[0].generators[0].field,
    "ideals.is_proper": lambda a: a[0].generators[0].field,
    "ideals.ideal_member": lambda a: a[0].field,
    "ideals.radical_member": lambda a: a[0].field,
    "linalg.matrix_rank": lambda a: a[1],
}


def _field_tag(field):
    return "q" if field.characteristic == 0 else "fp"


def _qdeg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qdeg" or name.startswith("qdeg."))]


def _rebind(original, replacement):
    """Point every qdeg module-level name bound to ``original`` at
    ``replacement``."""
    for module in _qdeg_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def public_functions():
    """(span name, function) for every public module-level function that a
    layer module defines."""
    out = []
    for layer in LAYERS:
        module = sys.modules["qdeg." + layer]
        for name, obj in sorted(vars(module).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                out.append(("%s.%s" % (layer, name), obj))
    return out


class SpanTracer:
    """Spans in memory: a list of (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.counts = {}
        self._local = threading.local()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _count(self, key, amount):
        if self.op is not None:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, stat=None):
        spans, stack_of = self.spans, self._stack
        field_of = _FIELD_OF_ARGS.get(name)

        def wrapper(*args, **kwargs):
            span_name = name
            if field_of is not None:
                span_name = "%s.%s" % (name, _field_tag(field_of(args)))
            stack = stack_of()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op)
            if stat is not None:
                stat(span_name, args, result)
            return result

        return wrapper

    def _stats(self):
        count = self._count

        def parse_terms(name, args, result):
            count("parser.parse.terms", len(result.terms))

        def print_bytes(name, args, result):
            count("parser.print_poly.bytes", len(result.encode()))

        def rank_entries(name, args, result):
            rows = args[0]
            count("linalg.matrix_rank.entries." + name.rsplit(".", 1)[1],
                  len(rows) * (len(rows[0]) if rows else 0))

        def level_max(name, args, result):
            orders = result[0].orders
            if orders and self.op is not None:
                key = "flatten.flatten.level_max"
                self.counts[key] = max(self.counts.get(key, 0), max(orders))

        def term_pairs(name, args, result):
            count("poly.mul.term_pairs", len(args[0].terms) * len(args[1].terms))

        return {"parser.parse": parse_terms, "parser.print_poly": print_bytes,
                "linalg.matrix_rank": rank_entries,
                "flatten.flatten": level_max, "poly.mul": term_pairs}

    def install(self):
        from qdeg.poly import QPolynomial

        stats = self._stats()
        for name, fn in public_functions():
            _rebind(fn, self.wrap(name, fn, stats.get(name)))
        for name, attr in (("poly.mul", "__mul__"), ("poly.add", "__add__"),
                           ("poly.pow", "__pow__")):
            fn = QPolynomial.__dict__[attr]
            setattr(QPolynomial, attr, self.wrap(name, fn, stats.get(name)))
        return self

    def self_times(self):
        """{span name: [calls, self seconds]} over spans that belong to an op."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op is None:
                continue
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return out


class CallCounter:
    """Counts field-method calls (split by field) and ``Monomial.mul``."""

    def __init__(self):
        self.cells = {"fields.ops.q": [0], "fields.ops.fp": [0],
                      "poly.Monomial.mul.calls": [0]}

    @staticmethod
    def _counting(fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        from qdeg.fields import PrimeField, RationalField
        from qdeg.poly import Monomial

        for cls, key in ((RationalField, "fields.ops.q"),
                         (PrimeField, "fields.ops.fp")):
            for name, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not name.startswith("_"):
                    setattr(cls, name, self._counting(fn, self.cells[key]))
        Monomial.mul = self._counting(Monomial.mul, self.cells["poly.Monomial.mul.calls"])
        return self

    def snapshot(self):
        return {key: cell[0] for key, cell in self.cells.items()}
