"""Span tracer for the traced run of ``spine``.

Timing wrappers are attribute-patched, from this file, onto public entry
points of ``repro`` for the duration of one traced run; nothing in ``src/``
changes and the untraced run never sees them. A span records its layer,
its parent (the enclosing span on the same thread), wall start/end
(``perf_counter``) and CPU start/end (``thread_time``). Spans stay in memory
and are written out after the run. A layer's self time is its spans'
duration minus the part their child spans cover. One layer has no public
entry point and is measured as a thread's CPU instead (``THREAD_LAYERS``).
"""

from __future__ import annotations

import csv
import functools
import threading
import time
from pathlib import Path

# every layer of the serving path, in the order a query meets them
LAYERS = (
    "server.client",
    "server.protocol.decode",
    "server.edge",
    "runtime.executor",
    "core.qworker",
    "sql.normalizer",
    "runtime.pipeline",
    "runtime.cache",
    "embedding",
    "core.classifier",
    "backends.router",
    "backends.admission",
    "backends.minidb_backend",
    "minidb.engine",
    "minidb.plancache",
    "minidb.planner",
    "minidb.executor",
    "runtime.columnar",
    "server.protocol.encode",
)
# A layer with no public entry point to wrap: the server's sessions (asyncio
# streams and socket calls, frame validation, the bridge's hand-offs) run in
# private coroutines on the server's event-loop thread. Its cost is that
# thread's CPU outside every span recorded on it.
THREAD_LAYERS = {"server.session": "querc-server-loop"}


def patch_points() -> list[tuple[object, str, str, str | None]]:
    """``(owner, attribute, layer, method)`` for every wrapped entry point.

    ``owner`` is a class or a module; modules that imported a function or
    class by name hold their own binding, so that binding is what is
    patched. With ``method`` set the attribute is a class bound in a module
    namespace: it is replaced by a subclass whose ``method`` is wrapped, so
    the client's and the server's ``FrameDecoder`` book to different layers.
    """
    import repro.backends.minidb_backend as minidb_backend
    import repro.minidb.engine as engine
    import repro.runtime.pipeline as pipeline
    import repro.server.client as client
    import repro.server.server as server
    from repro.backends.admission import AdmissionController
    from repro.backends.router import BatchRouter
    from repro.core.classifier import QueryClassifier
    from repro.core.qworker import QWorker
    from repro.embedding.base import QueryEmbedder
    from repro.minidb.executor import Executor
    from repro.minidb.plancache import PlanCache
    from repro.minidb.planner import Planner
    from repro.runtime.cache import EmbeddingCache
    from repro.runtime.columnar import ColumnarBatch
    from repro.runtime.executor import StagedExecutor
    from repro.server.edge import EdgeAdmission

    return [
        (client, "submit_frame", "server.client", None),
        (client, "encode_frame", "server.client", None),
        (client, "FrameDecoder", "server.client", "feed"),
        (server, "FrameDecoder", "server.protocol.decode", "feed"),
        (server, "labeled_to_wire", "server.protocol.encode", None),
        (server, "report_to_wire", "server.protocol.encode", None),
        (server, "result_frame", "server.protocol.encode", None),
        (server, "encode_frame", "server.protocol.encode", None),
        (EdgeAdmission, "admit_frame", "server.edge", None),
        (EdgeAdmission, "release_frame", "server.edge", None),
        (StagedExecutor, "try_submit", "runtime.executor", None),
        (StagedExecutor, "submit", "runtime.executor", None),
        (QWorker, "label_batch_columnar", "core.qworker", None),
        (QWorker, "dispatch_labeled", "core.qworker", None),
        (pipeline, "template_fingerprint_ids", "sql.normalizer", None),
        (minidb_backend, "template_fingerprint_ids", "sql.normalizer", None),
        (pipeline.InferencePipeline, "run_columnar", "runtime.pipeline", None),
        (EmbeddingCache, "get_matrix", "runtime.cache", None),
        (EmbeddingCache, "put_matrix", "runtime.cache", None),
        (QueryEmbedder, "transform", "embedding", None),
        (QueryClassifier, "predict_vectors", "core.classifier", None),
        (ColumnarBatch, "to_messages", "runtime.columnar", None),
        (BatchRouter, "dispatch", "backends.router", None),
        (AdmissionController, "admit", "backends.admission", None),
        (AdmissionController, "release", "backends.admission", None),
        (minidb_backend.MiniDBBackend, "execute_templated", "backends.minidb_backend", None),
        (engine.Database, "execute_prepared", "minidb.engine", None),
        (PlanCache, "try_fast", "minidb.plancache", None),
        (PlanCache, "fetch", "minidb.plancache", None),
        (engine, "parse_select", "minidb.planner", None),
        (Planner, "plan", "minidb.planner", None),
        (Executor, "run", "minidb.executor", None),
    ]


class Tracer:
    """Collects spans from wrapped calls between ``begin`` and ``end``."""

    def __init__(self) -> None:
        self.enabled = False
        self._thread_cpu: dict[str, float] = {}  # layer -> CPU s of its thread
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[str, list]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------

    def begin(self) -> None:
        self._thread_cpu = {
            layer: -_thread_cpu(name) for layer, name in THREAD_LAYERS.items()
        }
        self.enabled = True

    def end(self) -> None:
        self.enabled = False
        for layer, name in THREAD_LAYERS.items():
            self._thread_cpu[layer] += _thread_cpu(name)

    def wrap(self, fn, layer: str):
        local = self._local
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            try:
                spans, stack = local.spans, local.stack
            except AttributeError:
                spans, stack = local.spans, local.stack = [], []
                with self._lock:
                    self._threads.append((threading.current_thread().name, spans))
            # [layer, parent, wall start, wall end, cpu start, cpu end]
            span = [layer, stack[-1] if stack else -1, perf(), 0.0, cpu(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = cpu()
                span[3] = perf()
                stack.pop()

        return traced

    # -- patching -------------------------------------------------------------------

    def install(self) -> "Tracer":
        for owner, attribute, layer, method in patch_points():
            original = getattr(owner, attribute)
            if method is None:
                patched = self.wrap(original, layer)
            else:
                patched = type(
                    original.__name__,
                    (original,),
                    {method: self.wrap(getattr(original, method), layer)},
                )
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, patched)
        return self

    def uninstall(self) -> None:
        self.enabled = False
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- results --------------------------------------------------------------------

    def span_count(self) -> int:
        with self._lock:
            return sum(len(spans) for _, spans in self._threads)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self wall seconds, self CPU seconds; plus the
        wall time of top-level spans (nothing above them on their thread)."""
        totals = {
            layer: {"calls": 0, "wall": 0.0, "cpu": 0.0, "top_wall": 0.0}
            for layer in LAYERS
        }
        with self._lock:
            threads = list(self._threads)
        for _, spans in threads:
            child_wall = [0.0] * len(spans)
            child_cpu = [0.0] * len(spans)
            for _, parent, w0, w1, c0, c1 in spans:
                if parent >= 0 and w1:
                    child_wall[parent] += w1 - w0
                    child_cpu[parent] += c1 - c0
            for i, (layer, parent, w0, w1, c0, c1) in enumerate(spans):
                if not w1:  # still open when the run ended
                    continue
                entry = totals[layer]
                entry["calls"] += 1
                entry["wall"] += (w1 - w0) - child_wall[i]
                entry["cpu"] += (c1 - c0) - child_cpu[i]
                if parent < 0:
                    entry["top_wall"] += w1 - w0
        return totals

    def thread_layer_cpu(self) -> dict[str, float]:
        """Per thread layer: CPU seconds its thread spent outside spans."""
        return {
            layer: self._thread_cpu[layer] - self.top_level_cpu(name)
            for layer, name in THREAD_LAYERS.items()
        }

    def top_level_cpu(self, thread_name: str) -> float:
        """CPU seconds inside spans with no parent, on the named thread."""
        with self._lock:
            threads = list(self._threads)
        return sum(
            c1 - c0
            for name, spans in threads
            if name == thread_name
            for _, parent, _, w1, c0, c1 in spans
            if parent < 0 and w1
        )

    def dump(self, path: Path) -> None:
        """All spans as CSV: thread, index, parent, layer, wall and CPU
        start/end in seconds (``perf_counter`` / ``thread_time`` clocks)."""
        with self._lock:
            threads = list(self._threads)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ("thread", "span", "parent", "layer", "wall_start", "wall_end",
                 "cpu_start", "cpu_end")
            )
            for name, spans in threads:
                for i, (layer, parent, w0, w1, c0, c1) in enumerate(spans):
                    writer.writerow(
                        (name, i, parent, layer, f"{w0:.7f}", f"{w1:.7f}",
                         f"{c0:.7f}", f"{c1:.7f}")
                    )


def _thread_cpu(name: str) -> float:
    """CPU seconds the live thread called ``name`` has used; 0.0 without one."""
    for thread in threading.enumerate():
        if thread.name == name:
            return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
    return 0.0


def overhead_share(untraced_qps: float, traced_qps: float) -> float:
    """Tracing overhead: the share of throughput the traced run lost against
    its untraced twin (same workload, seed and sizes)."""
    return 1.0 - traced_qps / untraced_qps if untraced_qps else 0.0
