"""Bounded LRU cache of template embeddings.

Production workloads collapse onto a small set of query templates
(LearnedWMP observes this directly), so the vector for a template is
worth keeping hot. The cache is bounded and LRU-evicting so a worker
serving a long-tailed workload cannot grow without limit, and
thread-safe so one cache can back every Qworker in a service.

There is one key scheme: *matrix lanes* (``get_matrix``/``put_matrix``),
one per embedder namespace — a contiguous ``(rows, dimension)`` array
indexed by the dense fingerprint ids of
:class:`repro.sql.normalizer.FingerprintInterner`. A whole batch of
lookups is one fancy index under one lock acquisition — no per-row
Python copies — which is what the columnar pipeline runs on. An id
names one template for the life of the process, so a lane never needs
dropping when the fingerprint tables are reset. Lane rows are bounded
by the interner's id counter, and whole lanes are LRU-evicted when the
combined size exceeds ``capacity`` (a dead embedder's lane ages out).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.errors import ServiceError


class _MatrixLane:
    """One embedder namespace's id-indexed vector store."""

    __slots__ = ("vectors", "valid", "valid_count")

    def __init__(self, dimension: int, rows: int) -> None:
        self.vectors = np.zeros((rows, dimension), dtype=np.float64)
        self.valid = np.zeros(rows, dtype=bool)
        self.valid_count = 0

    def grow(self, rows: int) -> None:
        old_rows, dimension = self.vectors.shape
        vectors = np.zeros((rows, dimension), dtype=np.float64)
        vectors[:old_rows] = self.vectors
        valid = np.zeros(rows, dtype=bool)
        valid[:old_rows] = self.valid
        self.vectors = vectors
        self.valid = valid


class EmbeddingCache:
    """Per-embedder, id-indexed stores of template embedding vectors."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ServiceError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._lanes: OrderedDict[str, _MatrixLane] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_matrix(
        self, embedder_name: str, ids: np.ndarray, dimension: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectors for a batch of dense fingerprint ids, one lock hop.

        Returns ``(vectors, miss_mask)`` of shapes ``(k, dimension)``
        and ``(k,)``: rows with ``miss_mask`` False were filled from
        the cache by a single fancy-index copy; rows with it True
        (negative ids, ids past the lane, never-stored ids) are zeros
        for the caller to fill and :meth:`put_matrix` back.
        """
        ids = np.asarray(ids, dtype=np.int64)
        k = len(ids)
        out = np.zeros((k, dimension), dtype=np.float64)
        miss = np.ones(k, dtype=bool)
        with self._lock:
            lane = self._lanes.get(embedder_name)
            if lane is not None and lane.vectors.shape[1] == dimension:
                self._lanes.move_to_end(embedder_name)
                in_range = (ids >= 0) & (ids < len(lane.valid))
                hit = np.zeros(k, dtype=bool)
                hit[in_range] = lane.valid[ids[in_range]]
                out[hit] = lane.vectors[ids[hit]]
                miss = ~hit
            hits = int(k - int(miss.sum()))
            self.hits += hits
            self.misses += k - hits
        return out, miss

    def put_matrix(
        self, embedder_name: str, ids: np.ndarray, vectors: np.ndarray
    ) -> None:
        """Store freshly embedded rows under their dense ids.

        Negative ids (no intern slot — the fingerprint table was full)
        are skipped: those templates stay uncached by design. The lane
        grows geometrically up to the highest id stored; when the
        cache's combined occupancy exceeds ``capacity``, the least-
        recently-used *other* lanes are evicted whole.
        """
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        keep = ids >= 0
        if not keep.all():
            ids = ids[keep]
            vectors = vectors[keep]
        if len(ids) == 0:
            return
        dimension = vectors.shape[1]
        with self._lock:
            lane = self._lanes.get(embedder_name)
            if lane is None:
                rows = max(256, int(ids.max()) + 1)
                lane = self._lanes[embedder_name] = _MatrixLane(dimension, rows)
            elif lane.vectors.shape[1] != dimension:
                return  # dimension drift: never corrupt an existing lane
            self._lanes.move_to_end(embedder_name)
            needed = int(ids.max()) + 1
            if needed > len(lane.valid):
                lane.grow(max(needed, 2 * len(lane.valid)))
            newly = int((~lane.valid[ids]).sum())
            lane.vectors[ids] = vectors
            lane.valid[ids] = True
            lane.valid_count += newly
            self._evict_lanes_locked(protect=embedder_name)

    def _evict_lanes_locked(self, protect: str) -> None:
        """Whole-lane LRU eviction keeping combined size <= capacity.

        The lane just written is never evicted (its rows are this
        batch's working set), so one lane may briefly exceed capacity
        alone — it is still bounded by the interner's id counter.
        """
        while (
            sum(l.valid_count for l in self._lanes.values()) > self.capacity
            and len(self._lanes) > 1
        ):
            oldest = next(iter(self._lanes))
            if oldest == protect:
                break
            lane = self._lanes.pop(oldest)
            self.evictions += lane.valid_count

    def __len__(self) -> int:
        with self._lock:
            return sum(lane.valid_count for lane in self._lanes.values())

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every lane; counters persist."""
        with self._lock:
            self._lanes.clear()

    def snapshot(self) -> dict:
        """Counters and occupancy for monitoring.

        Every field is read under one lock acquisition, so the counters
        and the size are mutually consistent even while other threads
        are hitting the cache (hits + misses always equals the number
        of lookups that had finished when the snapshot was taken, and
        ``hit_rate`` is derived from exactly those two values). The
        dict itself is built outside the lock, so monitoring never
        makes the lookup hot path queue behind formatting.

        ``size`` and ``matrix_rows`` both count the cached vectors
        (two names for one number: the snapshot keeps its shape).
        """
        with self._lock:
            size = matrix_rows = sum(
                lane.valid_count for lane in self._lanes.values()
            )
            lanes = len(self._lanes)
            hits = self.hits
            misses = self.misses
            evictions = self.evictions
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "matrix_lanes": lanes,
            "matrix_rows": matrix_rows,
        }
