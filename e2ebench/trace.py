"""Outside-in layer tracing for the end-to-end benchmark.

The program has no spans of its own yet, so the traced run wraps the
public functions of each layer from here, at class level, without
touching ``src/``.  Every wrapped call records a span (layer, start,
end, parent span, request id); a layer's *self* time is its spans'
duration minus the time covered by their child spans.  Wrappers are
installed once, before set-up, so that objects capturing bound methods
during construction (the evaluation cache captures the rewriter) are
traced too; :attr:`LayerTracer.recording` switches recording on and off
without reinstalling.  With ``memory=True`` each span also records its
``tracemalloc`` peak above the allocation level at its start.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core.best_describe import BestDescriptionSearch
from repro.core.border import BorderComputer
from repro.core.candidates import CandidateGenerator
from repro.engine.kernel import UnifiedBorderIndex
from repro.engine.verdicts import VerdictMatrix
from repro.obdm.certain_answers import CertainAnswerEngine
from repro.obdm.chase import ChaseEngine
from repro.obdm.database import SourceDatabase
from repro.obdm.rewriting import PerfectRefRewriter
from repro.obdm.specification import OBDMSpecification
from repro.service import ExplanationService

# Span name → the public functions it wraps.  ``CertainAnswerEngine.rewrite``
# is not on the default path: the match kernel asks the evaluation cache,
# whose misses call the rewriter itself, so the rewriter is wrapped too.
LAYERS = {
    "border": [(BorderComputer, "border"), (BorderComputer, "apply_delta")],
    "retrieval": [(SourceDatabase, "restrict_to"), (OBDMSpecification, "retrieve_abox")],
    "saturation": [(CertainAnswerEngine, "saturate"), (ChaseEngine, "chase")],
    "rewriting": [(CertainAnswerEngine, "rewrite"), (PerfectRefRewriter, "rewrite")],
    "index.build": [(UnifiedBorderIndex, "__init__")],
    "index.patch": [(UnifiedBorderIndex, "apply_patch")],
    "rows": [(VerdictMatrix, "build"), (VerdictMatrix, "build_batch")],
    "rows.drift": [(VerdictMatrix, "apply_drift")],
    "rows.delta": [(VerdictMatrix, "apply_database_delta")],
    "candidates": [(CandidateGenerator, "generate")],
    "ranking": [(BestDescriptionSearch, "rank"), (BestDescriptionSearch, "top_k")],
    "service": [(ExplanationService, "explain"), (ExplanationService, "apply_delta")],
}


def _result_size(layer: str, args, result) -> Dict[str, int]:
    """Work counts a span carries, read from its arguments or result."""
    if layer == "border" and hasattr(result, "atoms"):
        return {"facts": len(result), "borders": 1}
    if layer == "retrieval":
        if isinstance(result, SourceDatabase):
            return {"source_facts": len(result)}
        return {"abox_facts": len(result.facts)}
    if layer == "index.build":
        return {"facts": sum(len(facts) for _bit, facts in args[1])}
    if layer == "candidates":
        return {
            "generated": result.generated,
            "truncated": result.truncated,
            "unexplored_seeds": result.unexplored_seeds,
        }
    if layer == "ranking":
        return {"scored": len(result)}
    return {}


class Span:
    __slots__ = ("layer", "start", "end", "parent", "request", "child_ns", "alloc_base", "alloc_peak")

    def __init__(self, layer: str, parent: Optional["Span"], request: str):
        self.layer = layer
        self.parent = parent
        self.request = request
        self.child_ns = 0
        self.start = self.end = 0
        self.alloc_base = self.alloc_peak = 0

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class LayerTracer:
    """Records layer spans of the requests a workload sends."""

    def __init__(self):
        self.recording = False
        self.memory = False
        # "<segment>:<kind>:<index>" of the request being served.
        self.request = "setup:setup:0"
        self.spans: List[Span] = []
        # segment → layer → work counts of the spans recorded in it.
        self._sizes: Dict[str, Dict[str, Dict[str, int]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(int))
        )
        self._stack: List[Span] = []
        self._originals = []

    # -- installation ------------------------------------------------------

    def install(self) -> "LayerTracer":
        for layer, targets in LAYERS.items():
            for cls, name in targets:
                raw = cls.__dict__[name]
                self._originals.append((cls, name, raw))
                if isinstance(raw, staticmethod):
                    setattr(cls, name, staticmethod(self._wrap(layer, raw.__func__, bound=False)))
                else:
                    setattr(cls, name, self._wrap(layer, raw, bound=True))
        return self

    def uninstall(self) -> None:
        for cls, name, raw in reversed(self._originals):
            setattr(cls, name, raw)
        self._originals.clear()
        self.recording = False
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def start_memory(self) -> None:
        self.memory = True
        tracemalloc.start()

    def _wrap(self, layer: str, function, bound: bool):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            span = tracer._enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(span)
            sizes = tracer._sizes[tracer.request.split(":", 1)[0]][layer]
            for key, value in _result_size(layer, args if bound else (None,) + args, result).items():
                sizes[key] += value
            sizes["calls"] += 1
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", layer)
        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, parent, self.request)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.alloc_peak = max(parent.alloc_peak, peak)
            tracemalloc.reset_peak()
            span.alloc_base = span.alloc_peak = current
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if self.memory:
            _current, peak = tracemalloc.get_traced_memory()
            span.alloc_peak = max(span.alloc_peak, peak)
            tracemalloc.reset_peak()
            if span.parent is not None:
                span.parent.alloc_peak = max(span.parent.alloc_peak, span.alloc_peak)
        if span.parent is not None:
            span.parent.child_ns += span.end - span.start
        self.spans.append(span)

    # -- aggregation -------------------------------------------------------

    def self_seconds(self, select: Callable[[str], bool]) -> Dict[str, float]:
        """Self time per layer over the spans whose request id is selected."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if select(span.request):
                totals[span.layer] += span.self_ns / 1e9
        return totals

    def sizes_for(self, select: Callable[[str], bool]) -> Dict[str, Dict[str, int]]:
        """Work counts per layer, summed over the selected segments."""
        merged: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for segment, layers in self._sizes.items():
            if select(segment):
                for layer, counts in layers.items():
                    for key, value in counts.items():
                        merged[layer][key] += value
        return merged

    def peak_alloc_mb(self) -> Dict[str, float]:
        peaks: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            extra = (span.alloc_peak - span.alloc_base) / 2**20
            peaks[span.layer] = max(peaks[span.layer], extra)
        return peaks
