"""Hot-path observability for the inference runtime.

Qworkers sit on the query critical path (Figure 1), so the runtime
tracks exactly the quantities that determine whether the shared
pipeline is paying off: per-stage wall time, embedder ``transform``
invocations, cache hit rate, and the batch dedup ratio.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import ClassVar

STAGES = ("fingerprint", "dedup", "embed", "predict", "scatter")
# the router's dispatch path reports into the same object
ROUTING_STAGES = ("route", "execute")
# the serving front end's per-frame path: decode bytes → frames,
# admit + bridge into the stage pool, encode + write replies
SERVER_STAGES = ("server_decode", "server_submit", "server_reply")
_ALL_STAGES = STAGES + ROUTING_STAGES + SERVER_STAGES


@dataclass
class RuntimeMetrics:
    """Counters and timings accumulated across pipeline batches.

    Aggregation is thread-safe: ``add`` applies a multi-counter delta
    atomically, ``stage`` accumulates its elapsed time under the same
    lock, and ``snapshot`` returns an internally consistent view — so
    routed dispatch and async workers can share one metrics object
    without corrupting ``stats()``. Direct attribute writes remain
    possible for single-threaded callers but bypass the lock.
    """

    batches: int = 0
    queries: int = 0
    unique_templates: int = 0  # distinct fingerprints per batch, summed
    embedded_templates: int = 0  # templates actually sent to transform
    transform_calls: int = 0  # embedder.transform invocations
    cache_hits: int = 0
    cache_misses: int = 0
    # fingerprint-table counters (the normalizer's process-wide memo /
    # intern table, as seen from this runtime's batches)
    fingerprint_memo_hits: int = 0
    fingerprint_memo_misses: int = 0
    intern_overflow: int = 0  # queries whose template had no intern slot
    # resilience-layer counters, fed by the router's dispatch path
    retries: int = 0  # execute re-attempts beyond the first
    failovers: int = 0  # groups re-resolved to a sibling backend
    deadline_expiries: int = 0  # retry budgets that ran out
    queue_evictions: int = 0  # parked rows dropped for age/retries
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    # serving-front-end counters, fed by QuercServer's sessions
    server_sessions: int = 0  # connections accepted past the edge
    server_sessions_closed: int = 0
    server_sessions_shed: int = 0  # connections refused at accept time
    server_frames_in: int = 0
    server_frames_out: int = 0
    server_frames_shed: int = 0  # submit frames refused SERVER_BUSY
    server_bytes_in: int = 0
    server_bytes_out: int = 0
    server_protocol_errors: int = 0  # malformed/oversized/bad frames
    server_queries: int = 0  # queries accepted into the stage pool
    server_queries_shed: int = 0  # queries inside shed submit frames
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in _ALL_STAGES}
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    # every ``int`` field above, filled in below the class: counters are
    # named once, by their field declaration
    _COUNTERS: ClassVar[tuple[str, ...]] = ()

    def add(self, **deltas: int) -> None:
        """Atomically apply a delta to one or more counters."""
        with self._lock:
            for name, delta in deltas.items():
                if name not in self._COUNTERS:
                    raise KeyError(f"unknown runtime counter {name!r}")
                setattr(self, name, getattr(self, name) + delta)

    @contextmanager
    def stage(self, name: str):
        """Time one pipeline stage; accumulates into ``stage_seconds``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.stage_seconds[name] = (
                    self.stage_seconds.get(name, 0.0) + elapsed
                )

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
        if not self.queries:
            return 0.0
        return 1.0 - self.unique_templates / self.queries

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of unique-template lookups served from cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> dict:
        """A plain-dict view for ``QuercService.stats()`` / dashboards.

        The raw counters are copied under the lock — so concurrent
        ``add``/``stage`` calls can't produce a torn view (e.g. hits
        without their misses) — but the dict is built and the derived
        ratios computed *outside* it, so a dashboard polling
        ``stats()`` never makes the hot path's writers queue behind
        formatting work. ``server_*`` counters nest under ``server``;
        every other counter is a top-level key.
        """
        with self._lock:
            out = {name: getattr(self, name) for name in self._COUNTERS}
            stage_seconds = dict(self.stage_seconds)
        server = {
            name.removeprefix("server_"): out.pop(name)
            for name in self._COUNTERS
            if name.startswith("server_")
        }
        queries, unique = out["queries"], out["unique_templates"]
        lookups = out["cache_hits"] + out["cache_misses"]
        memo_total = out["fingerprint_memo_hits"] + out["fingerprint_memo_misses"]
        return {
            **out,
            "cache_hit_rate": out["cache_hits"] / lookups if lookups else 0.0,
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
            for name in self._COUNTERS:
                setattr(self, name, 0)
            self.stage_seconds = {name: 0.0 for name in _ALL_STAGES}


RuntimeMetrics._COUNTERS = tuple(
    f.name for f in fields(RuntimeMetrics) if f.type in ("int", int)
)
