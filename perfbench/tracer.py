"""Span tracing at the boundaries between adjointalg's modules, from outside the package.

``Tracer.install`` replaces each public entry point listed in ``SPANS``
with a wrapper that records a span (name, start, end, parent span, job)
and, for some boundaries, a count taken from the call's arguments or
result.  Functions imported by name into other adjointalg modules are
replaced there too, so a call crossing from one layer into another is
timed wherever it happens.  ``Tracer.uninstall`` puts every original back.
Spans stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer figures, where a span's self time is its duration minus the
time of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps

import adjointalg.linalg as _linalg

#: (span name, module, attribute path) for every wrapped entry point.  The
#: graded component span wraps GradedIdeal._space because both public routes
#: into a component (component_basis and normal_form) go through it.
SPANS = (
    ("graded.component", "adjointalg.graded", "GradedIdeal._space"),
    ("graded.normal_form", "adjointalg.graded", "normal_form"),
    ("linalg.add", "adjointalg.linalg", "Gf2RowSpace.add"),
    ("linalg.add", "adjointalg.linalg", "ModpRowSpace.add"),
    ("linalg.reduce", "adjointalg.linalg", "Gf2RowSpace.reduce"),
    ("linalg.reduce", "adjointalg.linalg", "ModpRowSpace.reduce"),
    ("linalg.reduce", "adjointalg.linalg", "ModpRowSpace.reduce_matrix"),
    ("freealg.mul", "adjointalg.freealg", "TruncatedPoly.__mul__"),
    ("freealg.circle", "adjointalg.freealg", "circle_mul"),
    ("freealg.circle", "adjointalg.freealg", "circle_inv"),
    ("freealg.circle", "adjointalg.freealg", "circle_pow"),
    ("text.format", "adjointalg.text", "format_poly"),
    ("text.parse", "adjointalg.text", "parse_poly"),
    ("factorization", "adjointalg.factorization", "factor_to_valuation"),
    ("construction.run", "adjointalg.construction", "run_construction"),
    ("construction.certificate", "adjointalg.construction", "torsion_certificate"),
    ("series", "adjointalg.series", "f_eval"),
    ("series", "adjointalg.series", "witness_search"),
    ("series", "adjointalg.series", "gs_recursion_check"),
    ("finite.algebra", "adjointalg.finite", "FiniteNilAlgebra.__init__"),
    ("finite.quotient_exponent", "adjointalg.finite", "quotient_exponent"),
    ("finite.mul_table", "adjointalg.finite", "AdjointGroup.multiplication_index_table"),
    ("finite.cyclic_width", "adjointalg.finite", "cyclic_width"),
)


def _count_add(counts, args, result):
    space = args[0]
    counts["linalg.add.useful"] += bool(result)
    # Bits per coordinate: one in a Gf2RowSpace integer, 64 in a ModpRowSpace int64 row.
    counts["linalg.row_bits"] += space.ncols * (1 if isinstance(space, _linalg.Gf2RowSpace) else 64)


# The two counters below read the term dict directly: the public ``terms``
# property copies it, which would add tracing cost proportional to the result.
def _count_mul(counts, args, result):
    if result is not NotImplemented:
        counts["freealg.mul.terms_out"] += len(result._terms)


def _count_format(counts, args, result):
    counts["text.format.terms"] += len(args[0]._terms)


def _count_factorization(counts, args, result):
    counts["factorization.rounds"] += result.steps
    counts["factorization.factors"] += len(result.factors)


def _count_construction(counts, args, result):
    counts["construction.elements"] += result.processed


def _count_quotient_exponent(counts, args, result):
    algebra = args[0]
    counts["finite.population"] += algebra.p**algebra.dim


COUNTERS = {
    "linalg.add": _count_add,
    "freealg.mul": _count_mul,
    "text.format": _count_format,
    "factorization": _count_factorization,
    "construction.run": _count_construction,
    "finite.quotient_exponent": _count_quotient_exponent,
}

#: Per-layer metrics that are totals of the counters above.
COUNT_METRICS = frozenset({
    "linalg.row_bits", "freealg.mul.terms_out", "text.format.terms", "factorization.rounds",
    "factorization.factors", "construction.elements", "finite.population",
})

#: Per-layer metrics in report order: (name, unit, better).
LAYER_METRICS = (
    ("graded.component.calls", "count", "lower"),
    ("graded.component.self_s", "s", "lower"),
    ("graded.rows_generated", "count", "lower"),
    ("graded.normal_form.calls", "count", "lower"),
    ("graded.normal_form.s", "s", "lower"),
    ("linalg.add.calls", "count", "lower"),
    ("linalg.add.s", "s", "lower"),
    ("linalg.add.useful_ratio", "ratio", "higher"),
    ("linalg.reduce.calls", "count", "lower"),
    ("linalg.reduce.s", "s", "lower"),
    ("linalg.row_bits", "bit.computed", "lower"),
    ("freealg.mul.calls", "count", "lower"),
    ("freealg.mul.s", "s", "lower"),
    ("freealg.mul.terms_out", "count", "lower"),
    ("freealg.circle.calls", "count", "lower"),
    ("freealg.circle.s", "s", "lower"),
    ("text.format.calls", "count", "lower"),
    ("text.format.s", "s", "lower"),
    ("text.format.terms", "count", "lower"),
    ("text.parse.calls", "count", "lower"),
    ("factorization.calls", "count", "lower"),
    ("factorization.self_s", "s", "lower"),
    ("factorization.rounds", "count", "lower"),
    ("factorization.factors", "count", "lower"),
    ("construction.run.s", "s", "lower"),
    ("construction.elements", "count", "lower"),
    ("construction.certificate.s", "s", "lower"),
    ("series.calls", "count", "lower"),
    ("series.s", "s", "lower"),
    ("finite.algebra.s", "s", "lower"),
    ("finite.quotient_exponent.calls", "count", "lower"),
    ("finite.quotient_exponent.s", "s", "lower"),
    ("finite.population", "count.computed", "lower"),
    ("finite.mul_table.s", "s", "lower"),
    ("finite.cyclic_width.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; ``job`` is None outside a job, which pauses recording.

    ``clock`` gives span start and end times; the runner passes one that
    leaves out the time spent on host-speed calibration.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @wraps(fn)
        def wrapper(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, job)
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every entry point in SPANS, wherever adjointalg holds a reference to it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "adjointalg" or n.startswith("adjointalg.")]
        for name, module, path in SPANS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            # Every binding of the original: the defining class or module, aliases
            # such as TruncatedPoly.__rmul__, and names imported into other modules.
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self):
        """Restore every original, in reverse order of patching."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)


def layer_metrics(tracer, overhead_s):
    """Per-layer metrics from the recorded spans and counts, keyed as in LAYER_METRICS.

    ``calls`` counts every span of a name; ``s`` is inclusive time, counting a
    span only when no enclosing span has the same name; ``self_s`` subtracts
    the time of direct child spans.
    """
    names, spans = tracer.names, tracer.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    rows_generated = 0
    for i, (name_id, start, end, parent, _) in enumerate(spans):
        name = names[name_id]
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[i]
        ancestor = parent
        while ancestor >= 0 and names[spans[ancestor][0]] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += duration
        if name == "linalg.add" and parent >= 0 and names[spans[parent][0]] == "graded.component":
            rows_generated += 1

    add_calls = stats.get("linalg.add", {}).get("calls", 0)
    derived = {
        "graded.rows_generated": rows_generated,
        "linalg.add.useful_ratio": tracer.counts["linalg.add.useful"] / add_calls if add_calls else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric, unit, _ in LAYER_METRICS:
        if metric in derived:
            value = derived[metric]
        elif metric in COUNT_METRICS:
            value = tracer.counts[metric]
        else:
            base, field = metric.rsplit(".", 1)
            value = stats.get(base, {}).get(field, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def spans_record(tracer):
    """JSON-ready dump of the spans, times relative to the first span's start."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    return {
        "names": tracer.names,
        "fields": ["name", "start_s", "end_s", "parent", "job"],
        "spans": [
            [tracer.names[n], start - origin, end - origin, parent, job]
            for n, start, end, parent, job in tracer.spans
        ],
        "counts": dict(tracer.counts),
    }
