"""In-memory spans around the program's public entry points.

The benchmark never edits the program: :func:`instrument` replaces a fixed
list of public functions and methods with wrappers that open a span, run the
original and close the span, and restores every original on exit.  Spans are
kept in memory (``Tracer.spans``) and written out once, at the end of a run.

A span is ``(span_id, parent_id, name, start, end, thread_id)``; the parent
is the innermost open span on the same thread.  A layer's *self time* is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import bisect
import functools
import json
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, int]
# measure(args, kwargs, result) -> {counter: amount} added to the layer's counters.
Measure = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Collects spans, per-layer counters and query request times."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.requests: List[Tuple[float, float]] = []  # (submitted, resolved)
        self.enabled = True  # wrappers pass straight through while False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, threading.get_ident()))

    def count(self, values: Dict[str, float]) -> None:
        with self._lock:
            for key, amount in values.items():
                self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn: Callable, measure: Optional[Measure] = None) -> Callable:
        """``fn`` inside a span named ``name`` (a nested call of the same layer is not re-spanned)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or self.current_name() == name:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if measure is not None:
                self.count(measure(args, kwargs, result))
            return result

        return traced

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        child_time: Dict[int, float] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for span_id, _, name, start, end, _ in self.spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def busy_times(self) -> Dict[str, float]:
        """Total span duration per name, in seconds (outermost spans of a name only)."""
        totals: Dict[str, float] = {}
        for _, _, name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _, _, name, _, _, _ in self.spans:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def covered_seconds(self) -> float:
        """Wall time during which at least one top-level span was open."""
        intervals = sorted((start, end) for _, parent, _, start, end, _ in self.spans if not parent)
        covered = 0.0
        current_start = current_end = None
        for start, end in intervals:
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def request_waits_ms(self) -> List[float]:
        """Per request: submit-to-resolve latency minus the busy time of its flush.

        Flushes run one at a time on the scheduler's worker thread, and a
        request's future resolves after its flush returns and before the
        next flush starts, so the serving flush is the last one that started
        before the resolution.
        """
        flushes = sorted((start, end) for _, _, name, start, end, _ in self.spans if name == "scheduler.flush")
        starts = [start for start, _ in flushes]
        waits = []
        for submitted, resolved in self.requests:
            position = bisect.bisect_right(starts, resolved) - 1
            if position < 0:
                continue
            start, end = flushes[position]
            waits.append(1000.0 * ((resolved - submitted) - (end - start)))
        return waits

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["span_id", "parent_id", "name", "start", "end", "thread"],
            "spans": self.spans,
            "counters": self.counters,
        }
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# The instrumented entry points
# ----------------------------------------------------------------------
def _tag_nodes(args, kwargs, result) -> Dict[str, float]:
    return {"tag_build.nodes": float(result.num_nodes)}


def _expr_texts(args, kwargs, result) -> Dict[str, float]:
    return {"expr_llm.texts": float(len(result))}


def _tagformer_nodes(args, kwargs, result) -> Dict[str, float]:
    return {"tagformer.nodes": float(args[1].shape[0])}


def _ingest_rows(args, kwargs, result) -> Dict[str, float]:
    return {"ingest.rows": float(result)}


def _search_rows(args, kwargs, result) -> Dict[str, float]:
    # Rows compared: every live entry of the snapshot, once per query row.
    return {"search.rows_scanned": float(len(args[0]) * len(result))}


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the program's public layer entry points for the duration of the block."""
    import repro.core.nettag as nettag_module
    import repro.core.pipeline as pipeline_module
    import repro.serve.service as service_module
    from repro.core import NetTAG, NetTAGPipeline
    from repro.encoders import ExprLLM, TAGFormer
    from repro.pretrain import ExprLLMPretrainer, TAGFormerPretrainer
    from repro.serve import BatchScheduler, EmbeddingIndex, NetTAGService

    class TracedScheduler(BatchScheduler):
        """The program's scheduler with every flush (``batch_fn`` call) in a span."""

        def __init__(self, batch_fn, *args, **kwargs) -> None:
            super().__init__(tracer.wrap("scheduler.flush", batch_fn), *args, **kwargs)

    submit_query_cone = NetTAGService.submit_query_cone

    def traced_submit(self, *args, **kwargs):
        submitted = time.perf_counter()
        future = submit_query_cone(self, *args, **kwargs)
        if not tracer.enabled:
            return future

        def resolved(_future) -> None:
            with tracer._lock:
                tracer.requests.append((submitted, time.perf_counter()))

        future.add_done_callback(resolved)
        return future

    patches = [
        (nettag_module, "netlist_to_tag", tracer.wrap("tag_build", nettag_module.netlist_to_tag, _tag_nodes)),
        (pipeline_module, "netlist_to_tag", tracer.wrap("tag_build", pipeline_module.netlist_to_tag, _tag_nodes)),
        (ExprLLM, "encode_texts", tracer.wrap("expr_llm", ExprLLM.encode_texts, _expr_texts)),
        (TAGFormer, "encode_batch_numpy", tracer.wrap("tagformer", TAGFormer.encode_batch_numpy, _tagformer_nodes)),
        (TAGFormer, "forward_batch", tracer.wrap("tagformer", TAGFormer.forward_batch, _tagformer_nodes)),
        (NetTAG, "encode_batch", tracer.wrap("encode", NetTAG.encode_batch)),
        (NetTAG, "encode_netlists", tracer.wrap("encode", NetTAG.encode_netlists)),
        (service_module, "exact_topk", tracer.wrap("search", service_module.exact_topk, _search_rows)),
        (service_module, "BatchScheduler", TracedScheduler),
        (NetTAGService, "submit_query_cone", traced_submit),
        (NetTAGService, "add_netlists", tracer.wrap("ingest", NetTAGService.add_netlists, _ingest_rows)),
        (EmbeddingIndex, "add", tracer.wrap("index.add", EmbeddingIndex.add)),
        (EmbeddingIndex, "save", tracer.wrap("index.save", EmbeddingIndex.save)),
        (pipeline_module, "synthesize", tracer.wrap("synth", pipeline_module.synthesize)),
        (NetTAGPipeline, "pretrain", tracer.wrap("pretrain", NetTAGPipeline.pretrain)),
        (NetTAGPipeline, "preprocess_corpus", tracer.wrap("preprocess", NetTAGPipeline.preprocess_corpus)),
        (pipeline_module, "pretrain_rtl_encoder", tracer.wrap("align", pipeline_module.pretrain_rtl_encoder)),
        (pipeline_module, "pretrain_layout_encoder", tracer.wrap("align", pipeline_module.pretrain_layout_encoder)),
        (pipeline_module, "build_pretrain_sample", tracer.wrap("samples", pipeline_module.build_pretrain_sample)),
        (ExprLLMPretrainer, "run", tracer.wrap("expr_pretrain", ExprLLMPretrainer.run)),
        (TAGFormerPretrainer, "run", tracer.wrap("tag_pretrain", TAGFormerPretrainer.run)),
    ]
    with ExitStack() as stack:
        for owner, attribute, replacement in patches:
            original = getattr(owner, attribute)
            stack.callback(setattr, owner, attribute, original)
            setattr(owner, attribute, replacement)
        yield tracer
