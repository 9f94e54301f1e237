"""Outside-in tracer for the dirackit benchmark.

Nothing in dirackit changes.  While a traced pass runs, the public
functions listed in FUNCTIONS and the kernel methods listed in METHODS
are replaced by timing wrappers, and the originals are put back when the
pass ends.  A function is replaced in every dirackit namespace that holds
it, because modules such as ``cli`` and ``closure`` call their own
``from .analysis import ...`` copies; patching only the defining module
would miss those calls.

Every wrapper adds to its layer's call count, total time and self time
(its duration minus the time of traced calls made inside it).  Calls of
FUNCTIONS are also kept in memory as spans, each with its request, its
own id, its parent's id, the layer name and start/end times, and
``write_spans`` writes them out.  The kernel methods run millions of
times per pass, so they are counted and timed but keep no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (defining module, function, layer name)
FUNCTIONS = (
    ("dirackit.poly", "reduce_by", "poly.reduce_by"),
    ("dirackit.parser", "parse_expression", "parser.parse"),
    ("dirackit.sysfile", "load_system", "sysfile.load"),
    ("dirackit.matrix", "invert_matrix", "matrix.invert"),
    ("dirackit.brackets", "poisson_bracket", "brackets.poisson"),
    ("dirackit.brackets", "dirac_bracket", "brackets.dirac"),
    ("dirackit.brackets", "delta_matrix", "brackets.delta"),
    ("dirackit.brackets", "make_context", "brackets.make_context"),
    ("dirackit.analysis", "sample_on_shell", "analysis.sample"),
    ("dirackit.analysis", "classify_constraints", "analysis.classify"),
    ("dirackit.analysis", "trace_identity", "analysis.trace"),
    ("dirackit.closure", "closure_analysis", "closure.analysis"),
    ("dirackit.closure", "decompose_linear", "closure.decompose"),
    ("dirackit.closure", "lemma_verdict", "closure.lemma_verdict"),
    ("dirackit.cli", "emit_report", "cli.emit"),
)

# (defining module, class, method, layer name)
METHODS = (
    ("dirackit.poly", "Polynomial", "__mul__", "poly.mul"),
    ("dirackit.poly", "Polynomial", "__add__", "poly.add"),
    ("dirackit.expr", "RationalExpr", "__add__", "expr.add"),
    ("dirackit.expr", "RationalExpr", "__mul__", "expr.mul"),
    ("dirackit.expr", "RationalExpr", "evaluate_vector", "expr.evaluate"),
)

REQUEST = "request"


def _expr_terms(e) -> int:
    return len(e.num.terms) + len(e.den.terms)


class Layer:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects per-layer counts, times and spans across traced passes."""

    def __init__(self):
        names = [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]
        self.layers = {name: Layer() for name in names}
        # Work counts measured where the work happens.
        self.counters = {"poly.mul.term_pairs": 0, "expr.peak_terms": 0,
                         "analysis.trace.value_terms": 0}
        self.spans: list[tuple] = []
        self.requests: dict[int, str] = {}
        self._stack: list[list] = []  # open calls: [child seconds, span id]
        self._request = None
        self._next_id = 0
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # -- observers: work counts taken from arguments and results --------

    def _observe_mul(self, args, result):
        a, b = args
        self.counters["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)

    def _observe_expr(self, args, result):
        size = _expr_terms(result)
        if size > self.counters["expr.peak_terms"]:
            self.counters["expr.peak_terms"] = size

    def _observe_trace(self, args, result):
        self.counters["analysis.trace.value_terms"] += _expr_terms(result.value)

    def _observer(self, layer):
        return {"poly.mul": self._observe_mul,
                "expr.add": self._observe_expr,
                "expr.mul": self._observe_expr,
                "analysis.trace": self._observe_trace}.get(layer)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, layer_name, fn, keep_span):
        layer = self.layers[layer_name]
        observe = self._observer(layer_name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if keep_span:
                frame[1] = tracer._next_id
                tracer._next_id += 1
                parent = tracer._enclosing_span()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                layer.calls += 1
                layer.total_s += duration
                layer.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    tracer.spans.append((tracer._request, frame[1], parent,
                                         layer_name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _enclosing_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    @contextmanager
    def request(self, label: str):
        """Root span for one input; the spans it causes share its id."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        span_id = self._next_id
        self._next_id += 1
        self.requests[span_id] = label
        self._request = span_id
        self._stack.append([0.0, span_id])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._request = None
            self.spans.append((span_id, span_id, None, REQUEST, start, end))

    # -- patching -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr, layer in FUNCTIONS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapped = self._wrap(layer, original, keep_span=True)
                for module in _dirackit_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapped)
            for module_name, cls_name, method, layer in METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[method]
                self._replace(cls, method, self._wrap(layer, original, keep_span=False))
            yield self
        finally:
            self.restore()

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for request, span_id, parent, layer, start, end in self.spans:
                fh.write(json.dumps({
                    "request": request, "label": self.requests.get(request),
                    "id": span_id, "parent": parent, "name": layer,
                    "start": start, "end": end}) + "\n")


def _dirackit_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "dirackit" or name.startswith("dirackit."))]
