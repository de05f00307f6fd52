"""Outside-in tracer: rebinds dimspec's public functions to recording wrappers.

Nothing in ``src/`` is modified.  ``install`` captures each original
function once, then replaces every reference to it in every loaded
``dimspec`` module (``from .solver import solve_dimension`` in
``spectrum``, ``perturbation`` and ``cli`` each hold their own binding),
so calls made inside the package are traced too.  ``uninstall`` puts the
originals back.

Spans (name, start, end, parent) are kept in memory per pass.  The hot
``ContractionFamily`` term and tail methods get call counters instead of
spans, because they run millions of times.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

# (module, function) -> span name
SPAN_TARGETS = {
    ("cli", "main"): "cli",
    ("solver", "solve_dimension"): "solver.solve_dimension",
    ("solver", "pressure_derivative"): "solver.pressure_derivative",
    ("spectrum", "expand_spectrum"): "spectrum.expand",
    ("spectrum", "branch_increment"): "spectrum.branch_increment",
    ("metrics", "box_dimension_estimate"): "metrics.box",
    ("metrics", "local_dimension_profile"): "metrics.local",
    ("metrics", "classify_type"): "metrics.classify",
    ("metrics", "uniform_perfectness_gaps"): "metrics.gaps",
    ("metrics", "cantor_truncation"): "metrics.cantor_truncation",
    ("perturbation", "increment"): "perturbation.increment",
    ("construction", "k_set_cloud"): "construction.k_set_cloud",
    ("construction", "separation_check"): "construction.separation_check",
}

# ContractionFamily methods that only get counted
COUNT_TARGETS = ("term_double", "term_mp", "tail_majorant", "tail_majorant_mp")

# spans whose arguments and results the per-layer analysis reads
_KEEP_IO = {"solver.solve_dimension", "spectrum.expand", "metrics.box",
            "metrics.local", "metrics.classify", "metrics.gaps"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "args", "kwargs", "result",
                 "error", "terms")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.args = self.kwargs = self.result = self.error = None
        self.terms = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_TARGETS, 0)
        self.unbound = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self):
        import dimspec
        from dimspec.families import ContractionFamily

        # Import every submodule first, so none binds a wrapper later and
        # keeps it after uninstall.
        for info in pkgutil.iter_modules(dimspec.__path__):
            importlib.import_module(f"dimspec.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dimspec" or n.startswith("dimspec."))]

        for (mod_name, fn_name), span_name in SPAN_TARGETS.items():
            home = sys.modules.get(f"dimspec.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                self.unbound.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._span_wrapper(original, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        for meth in COUNT_TARGETS:
            original = ContractionFamily.__dict__.get(meth)
            if original is None:
                self.unbound.append(f"ContractionFamily.{meth}")
                continue
            self._patch(ContractionFamily, meth, self._count_wrapper(original, meth))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self._stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name):
        stack = self._stack
        counts = self.counts
        keep_io = name in _KEEP_IO
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            terms0 = counts["term_double"] + counts["term_mp"]
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                if keep_io:
                    span.args, span.kwargs, span.result = args, kwargs, result
                return result
            finally:
                span.end = clock()
                span.terms = counts["term_double"] + counts["term_mp"] - terms0
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = {}
    for sp in spans:
        if sp.parent is not None:
            child[id(sp.parent)] = child.get(id(sp.parent), 0.0) + (sp.end - sp.start)
    return {id(sp): (sp.end - sp.start) - child.get(id(sp), 0.0) for sp in spans}


def dump_spans(spans):
    """JSON-ready span list: name, start, end and parent index."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [
        {"name": sp.name, "start": sp.start - t0, "end": sp.end - t0,
         "parent": index.get(id(sp.parent)) if sp.parent is not None else None,
         **({"error": sp.error} if sp.error else {})}
        for sp in spans
    ]
