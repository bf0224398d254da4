"""Spans and counters around calls into qthook's layers, from outside it.

``instrument(tracer)`` patches, for the duration of a ``with`` block, the
bindings that callers look up: a module global where a caller imported a
name (``hookformula`` imports ``enumerate_p_partitions`` and
``series_equals`` by name, so those are patched in ``qthook.hookformula``),
or a class attribute for methods and operators.  On exit every binding is
restored.  No qthook source is changed.

Each span records its name, start, end, parent span and case id, in flat
arrays kept in memory; ``write_spans`` writes them out after the run.  A
span's self time is its duration minus the durations of its child spans and
minus the time the tracer spent inside it computing counters (the largest
coefficient of a product, whether a gcd was useful), so no layer is charged
for those.  A per-layer metric in milliseconds is the sum of the self times
of one span name (the worker scales it to reference speed).  The wrappers'
own entry and exit cost is not measured: it lands in the calling layer, or
in the glue (the case span's self time) when the caller is the case itself.  Hot small calls (``f_fun``, the
``_skew_cached`` lookups) are not wrapped: their cache hit ratios come from
``cache_info()``.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# Span names; the part before the dot is the layer (a qthook module).
SPAN_NAMES = (
    "case",
    "dposet.build", "dposet.enum",
    "hookformula.weight", "hookformula.lhs", "hookformula.rhs",
    "series.mul", "series.compare", "series.qtcoeff_add",
    "series.qtcoeff_equals",
    "qtcore.bipoly_mul",
    "polyops.gcd", "polyops.divexact",
    "macdonald.skew", "macdonald.expand", "macdonald.gram",
    "hypergeom.sides", "hypergeom.phi",
)
CASE = 0
# A traced case's spans may cover less than the case timer outside them by
# this much: the case span's own entry and exit (tens of microseconds).
CASE_TIMER_SLACK_NS = 2_000_000


class Tracer:
    """In-memory span store plus the counters measured at the same calls."""

    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.case = array("l")
        self.counting = array("q")
        self._stack = []
        self.case_id = -1
        self.bipoly_coeff_ops = 0
        self.bipoly_peak_terms = 0
        self.coeff_peak_bits = 0
        self.series_terms = 0
        self.gcd_nontrivial = 0
        self.resamples = 0
        self.summands = 0
        self.p_partitions = 0

    def open(self, name: int) -> int:
        idx = len(self.start)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.counting.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")

    def counted_since(self, t0: int):
        """Book the time since ``t0`` as counting inside the open span."""
        if self._stack:
            self.counting[self._stack[-1]] += perf_counter_ns() - t0

    def in_case(self, case_id: int, fn, arg):
        """``fn(arg)`` inside the span of case ``case_id``.

        Nothing between the caller's case timer and the span allocates an
        object the garbage collector tracks, so no collection can fall
        between them and open a gap that the spans do not cover.
        """
        self.case_id = case_id
        idx = self.open(CASE)
        try:
            return fn(arg)
        finally:
            self.close(idx)

    def __len__(self):
        return len(self.start)

    def self_times(self) -> list[int]:
        """Self time of every span, in ns."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] - self.counting[i]
                for i in range(len(self.start))]

    def check_consistency(self, case_ns: list[int]) -> list[str]:
        """Nesting and accounting errors; an empty list means consistent.

        ``case_ns`` holds each case's time as taken outside the tracer.
        Every span lies inside its parent and belongs to a case, and per
        case the self times of all layers, the glue and the tracer's
        counting add up to that time, less at most ``CASE_TIMER_SLACK_NS``.
        """
        errors = []
        selfs = self.self_times()
        per_case = {}
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.end[i] < self.start[i]:
                errors.append(f"span {i} ends before it starts")
            if p < 0 and self.name[i] != CASE:
                errors.append(f"span {i} ({SPAN_NAMES[self.name[i]]}) "
                              "lies outside every case")
            elif p >= 0 and not (self.start[p] <= self.start[i]
                                 and self.end[i] <= self.end[p]):
                errors.append(f"span {i} is not inside its parent {p}")
            cid = self.case[i]
            per_case[cid] = per_case.get(cid, 0) + selfs[i] + self.counting[i]
        for cid, timed in enumerate(case_ns):
            total = per_case.pop(cid, None)
            if total is None or not 0 <= timed - total <= CASE_TIMER_SLACK_NS:
                errors.append(f"case {cid}: spans add up to {total} ns, "
                              f"its timer read {timed} ns")
        for cid in per_case:
            errors.append(f"spans of case {cid}, which never ran")
        return errors

    def layer_ms(self) -> dict[str, float]:
        """Summed self time per span name, in ms, "case" being the glue."""
        out = dict.fromkeys(SPAN_NAMES, 0)
        for i, s in enumerate(self.self_times()):
            out[SPAN_NAMES[self.name[i]]] += s
        return {k: v / 1e6 for k, v in out.items()}

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for n in self.name:
            out[SPAN_NAMES[n]] += 1
        return out

    def write_spans(self, path: str):
        """One line per span: name, start_ns, end_ns, parent, case."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,case\n")
            for i in range(len(self.start)):
                fh.write(f"{SPAN_NAMES[self.name[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.case[i]}\n")


def _spanned(tracer: Tracer, name: str, fn):
    nid = SPAN_NAMES.index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _p_partitions(tracer: Tracer, fn):
    """Each ``next()`` on the enumerator is one span; the consumer's work
    between items falls outside them."""
    nid = SPAN_NAMES.index("dposet.enum")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            idx = tracer.open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            tracer.p_partitions += 1
            yield item
    return wrapper


def _bipoly_mul(tracer: Tracer, fn):
    nid = SPAN_NAMES.index("qtcore.bipoly_mul")

    @functools.wraps(fn)
    def wrapper(a, b):
        idx = tracer.open(nid)
        try:
            res = fn(a, b)
        finally:
            tracer.close(idx)
        t0 = perf_counter_ns()
        tracer.bipoly_coeff_ops += len(a.terms) * len(b.terms)
        terms = res.terms
        if len(terms) > tracer.bipoly_peak_terms:
            tracer.bipoly_peak_terms = len(terms)
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in terms.values()), default=0)
        if bits > tracer.coeff_peak_bits:
            tracer.coeff_peak_bits = bits
        tracer.counted_since(t0)
        return res
    return wrapper


def _series_compare(tracer: Tracer, fn):
    inner = _spanned(tracer, "series.compare", fn)

    @functools.wraps(fn)
    def wrapper(a, b):
        tracer.series_terms += len(a.terms) + len(b.terms)
        return inner(a, b)
    return wrapper


def _gcd(tracer: Tracer, fn):
    inner = _spanned(tracer, "polyops.gcd", fn)

    @functools.wraps(fn)
    def wrapper(p, q):
        g = inner(p, q)
        t0 = perf_counter_ns()
        if g.terms and set(g.terms) != {(0, 0)}:
            tracer.gcd_nontrivial += 1
        tracer.counted_since(t0)
        return g
    return wrapper


def _counted(tracer: Tracer, attr: str, fn, size=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        setattr(tracer, attr, getattr(tracer, attr)
                + (size(*args) if size else 1))
        return fn(*args, **kwargs)
    return wrapper


def _patch_table(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every instrumented binding."""
    mod = {name: importlib.import_module(f"qthook.{name}") for name in (
        "suites", "hookformula", "series", "qtcore", "polyops", "macdonald",
        "hypergeom")}

    def span(name):
        return lambda fn: _spanned(tracer, name, fn)

    table = [
        (mod["suites"], "build_family", span("dposet.build")),
        (mod["hookformula"], "hook_monomials", span("dposet.build")),
        (mod["hookformula"], "enumerate_p_partitions",
         lambda fn: _p_partitions(tracer, fn)),
        (mod["hookformula"], "weight_generic", span("hookformula.weight")),
        (mod["hookformula"], "lhs_terms", span("hookformula.lhs")),
        (mod["hookformula"], "lhs_series", span("hookformula.lhs")),
        (mod["hookformula"], "rhs_series", span("hookformula.rhs")),
        (mod["hookformula"], "series_equals",
         lambda fn: _series_compare(tracer, fn)),
        (mod["macdonald"], "series_equals",
         lambda fn: _series_compare(tracer, fn)),
        (mod["series"].MultiSeries, "__mul__", span("series.mul")),
        (mod["series"].QTCoeff, "__add__", span("series.qtcoeff_add")),
        (mod["series"].QTCoeff, "equals", span("series.qtcoeff_equals")),
        (mod["qtcore"].BiPoly, "__mul__", lambda fn: _bipoly_mul(tracer, fn)),
        (mod["qtcore"], "resample_point",
         lambda fn: _counted(tracer, "resamples", fn)),
        (mod["polyops"], "gcd_bipoly", lambda fn: _gcd(tracer, fn)),
        (mod["polyops"], "divexact_bipoly", span("polyops.divexact")),
        (mod["macdonald"], "skew_p", span("macdonald.skew")),
        (mod["macdonald"], "skew_q", span("macdonald.skew")),
        (mod["macdonald"], "expand_in_p", span("macdonald.expand")),
        (mod["macdonald"], "gram_p", span("macdonald.gram")),
        (mod["macdonald"], "scalar_product", span("macdonald.gram")),
        (mod["hypergeom"], "phi_series", span("hypergeom.phi")),
        (mod["hypergeom"], "w_series", span("hypergeom.phi")),
        (mod["hypergeom"], "_qsum",
         lambda fn: _counted(tracer, "summands", fn, size=len)),
    ]
    for name in ("lemma", "general", "birds_final", "banners_final", "gasper"):
        table.append((mod["hypergeom"], f"{name}_both_sides",
                      span("hypergeom.sides")))
    return table


@contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the block's duration, then restore."""
    saved = []
    try:
        for owner, attr, factory in _patch_table(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def cache_hit_ratio(cached_fn) -> float:
    info = cached_fn.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0
