"""Hot-path observability for the inference runtime.

Qworkers sit on the query critical path (Figure 1), so the runtime
tracks exactly the quantities that determine whether the shared
pipeline is paying off: per-stage wall time, embedder ``transform``
invocations, and the batch dedup ratio.

Every event is counted once, by the object that performs it: cache
hits by the :class:`~repro.runtime.cache.EmbeddingCache`, retries and
failovers by each backend binding's counters, breaker transitions by
the breaker, edge sheds by the edge gate. ``QuercService.stats()``
reads those owners; :class:`RuntimeMetrics` keeps only what no other
object counts. :class:`Counters` is the one named-counter ledger they
all build on.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from contextlib import contextmanager

STAGES = ("fingerprint", "dedup", "embed", "predict", "scatter")
# the router's dispatch path reports into the same object
ROUTING_STAGES = ("route", "execute")
# the serving front end's per-frame path: decode bytes → frames,
# admit + bridge into the stage pool, encode + write replies
SERVER_STAGES = ("server_decode", "server_submit", "server_reply")
_ALL_STAGES = STAGES + ROUTING_STAGES + SERVER_STAGES


class Counters:
    """Named numbers behind one lock.

    ``add`` applies a multi-counter delta atomically (all of it or, on
    an unknown name, none of it — :class:`KeyError`), ``value`` reads
    one counter and ``snapshot`` copies every counter in one consistent
    view. The names are fixed at construction, in snapshot order; those
    also in ``floats`` start at ``0.0``, the rest at ``0``.
    """

    def __init__(self, names: Iterable[str], floats: Iterable[str] = ()) -> None:
        floats = set(floats)
        self._zero = {name: 0.0 if name in floats else 0 for name in names}
        self._values = dict(self._zero)
        self._lock = threading.Lock()

    def add(self, **deltas) -> None:
        """Atomically apply a delta to one or more counters."""
        values = self._values
        if not deltas.keys() <= values.keys():
            unknown = sorted(deltas.keys() - values.keys())
            raise KeyError(f"unknown counter(s) {unknown}")
        with self._lock:
            for name, delta in deltas.items():
                values[name] += delta

    def value(self, name: str):
        """One counter, without paying for a full :meth:`snapshot`."""
        with self._lock:
            return self._values[name]

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._values)


class RuntimeMetrics(Counters):
    """The pipeline's and the serving tier's own counters, plus stage
    timings.

    Thread-safe: counters update through :meth:`Counters.add`,
    ``stage`` accumulates its elapsed time under the same lock, and
    ``snapshot`` copies counters and timings in one view — so routed
    dispatch and async workers can share one metrics object without
    corrupting ``stats()``. A counter also reads as an attribute
    (``metrics.batches``).
    """

    _COUNTERS = (
        "batches",
        "queries",
        "unique_templates",  # distinct fingerprints per batch, summed
        "embedded_templates",  # templates actually sent to transform
        "transform_calls",  # embedder.transform invocations
        # fingerprint-table counters (the normalizer's process-wide memo
        # / intern table, as seen from this runtime's batches)
        "fingerprint_memo_hits",
        "fingerprint_memo_misses",
        "intern_overflow",  # queries whose template had no intern slot
        # serving-front-end counters, fed by QuercServer's sessions
        "server_sessions",  # connections accepted past the edge
        "server_sessions_closed",
        "server_frames_in",
        "server_frames_out",
        "server_bytes_in",
        "server_bytes_out",
        "server_protocol_errors",  # malformed/oversized/bad frames
        "server_queries",  # queries accepted into the stage pool
    )

    def __init__(self) -> None:
        super().__init__(self._COUNTERS)
        self.stage_seconds = {name: 0.0 for name in _ALL_STAGES}

    def __getattr__(self, name: str):
        if name in RuntimeMetrics._COUNTERS:
            return self.value(name)
        raise AttributeError(name)

    @contextmanager
    def stage(self, name: str):
        """Time one pipeline stage; accumulates into ``stage_seconds``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage_seconds(name, time.perf_counter() - start)

    def add_stage_seconds(self, name: str, seconds: float) -> None:
        """Credit externally-measured time to one stage.

        The serving tier times its frame path on an injectable clock
        (so protocol tests stay wall-clock-free) and deposits the
        elapsed seconds here instead of using :meth:`stage`'s own
        ``perf_counter``.
        """
        with self._lock:
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + seconds
            )

    @property
    def dedup_ratio(self) -> float:
        """Fraction of queries that were duplicates of an earlier
        template in their batch (0.0 = all unique)."""
        with self._lock:
            queries, unique = self._values["queries"], self._values["unique_templates"]
        return 1.0 - unique / queries if queries else 0.0

    def snapshot(self) -> dict:
        """A plain-dict view for ``QuercService.stats()`` / dashboards.

        The raw counters are copied under the lock — so concurrent
        ``add``/``stage`` calls can't produce a torn view — but the
        dict is built and the derived ratios computed *outside* it, so
        a dashboard polling ``stats()`` never makes the hot path's
        writers queue behind formatting work. ``server_*`` counters
        nest under ``server``; every other counter is a top-level key.
        """
        with self._lock:
            out = dict(self._values)
            stage_seconds = dict(self.stage_seconds)
        server = {
            name.removeprefix("server_"): out.pop(name)
            for name in self._COUNTERS
            if name.startswith("server_")
        }
        queries, unique = out["queries"], out["unique_templates"]
        memo_total = out["fingerprint_memo_hits"] + out["fingerprint_memo_misses"]
        return {
            **out,
            "fingerprint_memo_hit_rate": (
                out["fingerprint_memo_hits"] / memo_total if memo_total else 0.0
            ),
            "server": server,
            "dedup_ratio": 1.0 - unique / queries if queries else 0.0,
            "stage_seconds": stage_seconds,
        }

    def reset(self) -> None:
        """Zero every counter and timing (e.g. between bench phases)."""
        with self._lock:
            self._values.update(self._zero)
            self.stage_seconds = {name: 0.0 for name in _ALL_STAGES}
