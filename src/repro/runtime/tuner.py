"""Batch-size autotuning from observed stage timings.

The stream layer has to pick a batch size before it knows what the
batch costs; the runtime knows exactly what batches cost (per-batch
timings in the staged executor) but has no say in batching. The
:class:`BatchSizeTuner` closes that loop: it consumes per-batch
``(queries, seconds)`` observations of the labeling stage — the
:class:`~repro.runtime.executor.StagedExecutor` stage pool is their
one feed, attributing each batch to its application — and
recommends the largest batch size whose expected stage-A latency still
fits a configured budget — big batches keep the embed stage saturated
(more dedup mass, fewer ``transform`` calls), small batches bound the
tail latency a queued query can suffer behind its batch.

Observations are smoothed with an exponential moving average of the
*per-query* cost, so the recommendation converges under steady cost
and re-converges after a cost shift (e.g. an embedder swap or a cache
going cold). Growth per step is bounded so one outlier batch cannot
slam the size across its whole range. State is kept per application —
one tenant's slow embedder must not shrink another tenant's batches.

The backend side of the loop closes through
:meth:`BatchSizeTuner.observe_admission`: dispatch reports feed the
tuner the fraction of each batch the admission gates turned away, and
a sustained rejection EWMA shrinks the recommendation below what the
labeling-latency fit would allow — when a gate has no headroom,
smaller offers are the only ones that clear it.

Everything is deterministic: the tuner never sleeps and never reads a
wall clock for its decisions; the injectable ``clock`` only timestamps
observations for the ``snapshot()`` view.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.errors import ServiceError


class _LaneState:
    """Per-application tuning state (EWMA + current recommendation)."""

    __slots__ = (
        "size",
        "per_query_ewma",
        "samples",
        "last_seconds",
        "last_at",
        "rejection_ewma",
        "admission_samples",
        "fault_ewma",
        "fault_samples",
    )

    def __init__(self, size: int) -> None:
        self.size = size
        self.per_query_ewma: float | None = None
        self.samples = 0
        self.last_seconds = 0.0
        self.last_at: float | None = None
        # admission-headroom feedback: smoothed fraction of dispatched
        # work the backends' gates turned away (rejected/queued/spilled)
        self.rejection_ewma = 0.0
        self.admission_samples = 0
        # resilience feedback: smoothed presence of retries/failovers
        # in this lane's dispatches (1.0 = every batch faulted)
        self.fault_ewma = 0.0
        self.fault_samples = 0


class BatchSizeTuner:
    """Adapt stream batch sizes toward a stage-A latency budget.

    ``observe(queries, seconds)`` records what one labeled batch cost;
    ``recommend()`` returns the batch size the stream layer should use
    next. ``observe_admission(offered, admitted)`` closes the *backend*
    side of the loop: when a backend's admission gate is turning work
    away, the recommendation shrinks multiplicatively until the
    rejection EWMA decays below ``rejection_threshold`` — smaller
    batches arrive as smaller admission offers, which is exactly the
    headroom the gate still has. Thread-safe: executor lanes observe
    concurrently while the stream layer asks for recommendations.
    """

    def __init__(
        self,
        initial: int = 32,
        min_size: int = 8,
        max_size: int = 512,
        target_seconds: float = 0.05,
        smoothing: float = 0.4,
        max_growth: float = 2.0,
        rejection_threshold: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not (1 <= min_size <= initial <= max_size):
            raise ServiceError(
                "need 1 <= min_size <= initial <= max_size, got "
                f"min={min_size} initial={initial} max={max_size}"
            )
        if target_seconds <= 0:
            raise ServiceError("target_seconds must be positive")
        if not 0 < smoothing <= 1:
            raise ServiceError("smoothing must be in (0, 1]")
        if max_growth <= 1:
            raise ServiceError("max_growth must be > 1")
        if not 0 < rejection_threshold < 1:
            raise ServiceError("rejection_threshold must be in (0, 1)")
        self.initial = int(initial)
        self.min_size = int(min_size)
        self.max_size = int(max_size)
        self.target_seconds = float(target_seconds)
        self.smoothing = float(smoothing)
        self.max_growth = float(max_growth)
        self.rejection_threshold = float(rejection_threshold)
        self._clock = clock
        self._lanes: dict[str, _LaneState] = {}
        self._lock = threading.Lock()

    # -- observations --------------------------------------------------------------

    def observe(
        self, queries: int, seconds: float, application: str = ""
    ) -> int:
        """Record one batch's labeling cost; returns the new recommendation.

        ``queries`` is the batch size that took ``seconds`` of stage-A
        wall time. Zero-query or negative observations are ignored.
        """
        if queries <= 0 or seconds < 0:
            return self.recommend(application)
        per_query = seconds / queries
        with self._lock:
            lane = self._lanes.get(application)
            if lane is None:
                lane = self._lanes[application] = _LaneState(self.initial)
            if lane.per_query_ewma is None:
                lane.per_query_ewma = per_query
            else:
                lane.per_query_ewma += self.smoothing * (
                    per_query - lane.per_query_ewma
                )
            lane.samples += 1
            lane.last_seconds = seconds
            lane.last_at = self._clock()
            lane.size = self._fit(
                lane.size, lane.per_query_ewma, lane.rejection_ewma
            )
            return lane.size

    def observe_admission(
        self, offered: int, admitted: int, application: str = ""
    ) -> int:
        """Record one dispatch's admission outcome; returns the new size.

        ``offered`` is how much work the batch put in front of the
        gates, ``admitted`` how much got in; the shortfall (rejected,
        queued, or spilled) feeds a per-application rejection EWMA.
        While that EWMA sits above ``rejection_threshold`` the
        recommended size shrinks multiplicatively (AIMD-style); once
        full admissions decay it back under the threshold, the normal
        latency fit regrows the size, bounded by ``max_growth`` per
        step.
        """
        if offered <= 0:
            return self.recommend(application)
        turned_away = min(1.0, max(0.0, 1.0 - admitted / offered))
        with self._lock:
            lane = self._lanes.get(application)
            if lane is None:
                lane = self._lanes[application] = _LaneState(self.initial)
            lane.rejection_ewma += self.smoothing * (
                turned_away - lane.rejection_ewma
            )
            lane.admission_samples += 1
            if lane.per_query_ewma is not None:
                # an admission observation carries no new latency data:
                # it may shrink the size, never grow it — growth stays
                # one bounded step per *labeling* observation
                lane.size = min(
                    lane.size,
                    self._fit(lane.size, lane.per_query_ewma, lane.rejection_ewma),
                )
            elif lane.rejection_ewma > self.rejection_threshold:
                # no labeling fit yet: back off directly from the
                # current size so the gate pressure still bites —
                # bounded by max_growth per step, like _fit
                shrunk = max(
                    lane.size * (1.0 - lane.rejection_ewma),
                    lane.size / self.max_growth,
                )
                lane.size = max(self.min_size, int(shrunk))
            return lane.size

    def observe_faults(
        self, retries: int, failovers: int, application: str = ""
    ) -> int:
        """Record one dispatch's resilience churn; returns the new size.

        ``retries`` / ``failovers`` come from the dispatch report (the
        service's feedback hook forwards them). A batch that needed
        either pulses a per-application fault EWMA toward 1; a clean
        batch decays it. While the EWMA sits above
        ``rejection_threshold`` the recommendation shrinks
        multiplicatively — a flaky backend gets smaller groups, which
        cheapens each retry and leaves headroom on the failover
        sibling — and recovery regrows it through the normal bounded
        latency fit.
        """
        faulted = retries > 0 or failovers > 0
        with self._lock:
            lane = self._lanes.get(application)
            if lane is None:
                if not faulted:
                    return self.initial
                lane = self._lanes[application] = _LaneState(self.initial)
            if faulted:
                lane.fault_ewma += self.smoothing * (1.0 - lane.fault_ewma)
                lane.fault_samples += 1
            else:
                lane.fault_ewma *= 1.0 - self.smoothing
            if faulted and lane.fault_ewma > self.rejection_threshold:
                # same AIMD stance as admission pressure: shrink now,
                # regrow one bounded step per clean labeling fit
                shrunk = max(
                    lane.size * (1.0 - lane.fault_ewma),
                    lane.size / self.max_growth,
                )
                lane.size = max(self.min_size, int(shrunk))
            return lane.size

    # -- recommendations -----------------------------------------------------------

    def recommend(self, application: str = "") -> int:
        """The batch size the stream layer should use next for this
        application (``initial`` until observations arrive)."""
        with self._lock:
            lane = self._lanes.get(application)
            return lane.size if lane is not None else self.initial

    def _fit(
        self, current: int, per_query_ewma: float, rejection_ewma: float = 0.0
    ) -> int:
        """Largest size whose expected latency fits the budget, with
        per-step growth/shrink bounded by ``max_growth``. A rejection
        EWMA above the threshold caps the fit below the current size —
        admission pressure always wins over the latency headroom."""
        if per_query_ewma <= 0:
            ideal = float(self.max_size)
        else:
            ideal = self.target_seconds / per_query_ewma
        if rejection_ewma > self.rejection_threshold:
            ideal = min(ideal, current * (1.0 - rejection_ewma))
        lo = current / self.max_growth
        hi = current * self.max_growth
        bounded = min(max(ideal, lo), hi)
        return max(self.min_size, min(self.max_size, int(bounded)))

    # -- introspection -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Config plus per-application state, for ``stats()``."""
        with self._lock:
            return {
                "target_seconds": self.target_seconds,
                "min_size": self.min_size,
                "max_size": self.max_size,
                "initial": self.initial,
                "rejection_threshold": self.rejection_threshold,
                "applications": {
                    app: {
                        "size": lane.size,
                        "per_query_ewma_seconds": lane.per_query_ewma,
                        "expected_batch_seconds": (
                            lane.per_query_ewma * lane.size
                            if lane.per_query_ewma is not None
                            else None
                        ),
                        "samples": lane.samples,
                        "last_batch_seconds": lane.last_seconds,
                        "last_observed_at": lane.last_at,
                        "rejection_ewma": lane.rejection_ewma,
                        "admission_samples": lane.admission_samples,
                        "fault_ewma": lane.fault_ewma,
                        "fault_samples": lane.fault_samples,
                    }
                    for app, lane in sorted(self._lanes.items())
                },
            }
