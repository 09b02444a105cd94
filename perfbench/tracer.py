"""Layer tracer for the benchmark's traced runs.

``Tracer.install`` replaces every public function of each logictop
module with a timing wrapper, wherever any logictop module binds it
(``consequence`` is bound in ``core``, ``corpus``, ``duality`` and
more), so intra-module calls through globals are caught as well.  The
program itself is not edited.

Every wrapped function aggregates count, total time and self time in
place (self time is a call's duration minus the time of the wrapped
calls it made).  Functions outside ``HOT`` also leave a span: name,
start, end, parent span and unit id, the criterion number or request
index.  The hot leaves are called millions of times per corpus run, so
one record per call would not fit in memory.  Spans stay in memory
until ``write_spans`` at the end of the run; past ``SPAN_LIMIT`` they are
counted in ``spans_dropped`` instead.  The wall time of each corpus
criterion is kept apart from the spans, so the cap never loses it.  A generator function
(``enumerate_posets``) is timed step by step, without a span, so the
consumer's time between items is not charged to it.  Process-pool workers
(``corpus --jobs 2``) inherit the wrappers but their records die with
them: pool workers are not traced.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("core", "connectives", "topology", "duality", "builders", "documents", "dot", "corpus", "cli")
CACHED = (
    "core.theory_spectrum",
    "connectives.verify_connectives",
    "duality.logic_space",
    "duality.space_logic",
    "topology.opens",
    "topology.specialization_order",
)
HOT = frozenset({
    "core.consequence",
    "core.logically_equivalent",
    "core.is_consistent",
    "core.set_key",
    "core.sorted_sets",
    "core.exprset",
    "core.is_theory",
    "core.theory_spectrum",
    "connectives.verify_connectives",
    "duality.stable_iff_disjunction",
    "duality.analyze_logic_map",
    "duality.sorted_primes",
    "topology.opens",
    "topology.closure",
    "topology.point_filter",
    "topology.specialization_order",
    "topology.implication_open",
})
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.spans: list = []
        self.spans_dropped = 0
        self.unit: int | None = None
        self.bytes_parsed = 0
        self.criterion_wall_s: dict[int, float] = {}
        self._children: list[float] = []
        self._open_spans: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    def install(self) -> "Tracer":
        layers = {layer: importlib.import_module(f"logictop.{layer}") for layer in LAYERS}
        binders = [m for name, m in sys.modules.items() if name == "logictop" or name.startswith("logictop.")]
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or getattr(fn, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                if name in CACHED:
                    self._caches[name] = fn
                    info = fn.cache_info()
                    self._cache_start[name] = (info.hits, info.misses)
                for binder in binders:
                    for bound_as, value in list(vars(binder).items()):
                        if value is fn:
                            setattr(binder, bound_as, wrapper)
                            self._restore.append((binder, bound_as, fn))
        return self

    def uninstall(self) -> None:
        for binder, bound_as, fn in reversed(self._restore):
            setattr(binder, bound_as, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter
        counts_bytes = name == "documents.parse_document"
        criterion = name.startswith("corpus.criterion_")

        if inspect.isgeneratorfunction(fn):
            def stepped(*args, **kwargs):
                stat[0] += 1
                steps = fn(*args, **kwargs)
                while True:
                    children.append(0.0)
                    start = clock()
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        spent = clock() - start
                        inner = children.pop()
                        stat[1] += spent
                        stat[2] += spent - inner
                        if children:
                            children[-1] += spent
                    yield item
            return stepped

        if name in HOT:
            def hot(*args, **kwargs):
                children.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = clock() - start
                    inner = children.pop()
                    stat[0] += 1
                    stat[1] += spent
                    stat[2] += spent - inner
                    if children:
                        children[-1] += spent
            return hot

        spans, open_spans, tracer = self.spans, self._open_spans, self

        def spanned(*args, **kwargs):
            if counts_bytes and args:
                tracer.bytes_parsed += len(args[0].encode("utf-8"))
            span_id = len(spans)
            parent = open_spans[-1] if open_spans else -1
            recorded = span_id < SPAN_LIMIT
            if recorded:
                spans.append(None)
                open_spans.append(span_id)
            else:
                tracer.spans_dropped += 1
            children.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                spent = end - start
                inner = children.pop()
                stat[0] += 1
                stat[1] += spent
                stat[2] += spent - inner
                if children:
                    children[-1] += spent
                if criterion and hasattr(result, "number"):
                    tracer.criterion_wall_s[result.number] = spent
                if recorded:
                    open_spans.pop()
                    unit = tracer.unit if tracer.unit is not None else getattr(result, "number", None)
                    spans[span_id] = (name, start, end, parent, unit)
        return spanned

    def hit_ratios(self) -> dict[str, float]:
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            hits = info.hits - self._cache_start[name][0]
            misses = info.misses - self._cache_start[name][1]
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def units(self) -> list:
        """Unit id of every span: its own, else its nearest ancestor's."""
        out: list = []
        for name, start, end, parent, unit in self.spans:
            out.append(unit if unit is not None or parent < 0 else out[parent])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, ((name, start, end, parent, _), unit) in enumerate(zip(self.spans, self.units())):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")
