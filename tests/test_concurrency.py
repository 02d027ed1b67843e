"""Concurrency safety of the shared serving state.

The staged executor puts the router, the admission controllers, the
embedding cache, and the pipeline metrics under genuine multi-threaded
load; these tests pin down the invariants that load must never break:
no over-admission past a gate's limit, counters that sum exactly,
and cache/metrics snapshots that stay internally consistent.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backends import (
    Backend,
    BackendRegistry,
    BatchRouter,
    BatchResult,
    NullBackend,
    QueryOutcome,
    SpillPolicy,
)
from repro.core.classifier import QueryClassifier
from repro.core.labeled_query import LabeledQuery
from repro.core.labeler import ClassifierLabeler
from repro.ml.forest import RandomizedForestClassifier
from repro.runtime import EmbeddingCache, InferencePipeline
from repro.sql.normalizer import template_fingerprint

WAIT = 20.0


def make_batch(n: int, tag: str = "") -> list[LabeledQuery]:
    return [LabeledQuery.make(f"select c{i} from t{tag}") for i in range(n)]


class ConcurrencyProbeBackend(Backend):
    """Records the maximum number of concurrent ``execute`` calls."""

    def __init__(self, name: str, gate: threading.Event | None = None) -> None:
        super().__init__(name)
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.executed = 0
        self.entered = threading.Event()
        self._gate = gate

    def execute(self, queries):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        self.entered.set()
        if self._gate is not None:
            assert self._gate.wait(WAIT)
        with self._lock:
            self.active -= 1
            self.executed += len(queries)
        return BatchResult(
            backend=self.name,
            outcomes=tuple(QueryOutcome(query=q, ok=True) for q in queries),
        )


class TestConcurrentDispatch:
    def test_no_over_admission_while_a_batch_is_in_flight(self):
        """Deterministic: thread 1 holds the only slot inside execute;
        a dispatch racing it must be rejected, not co-admitted."""
        registry = BackendRegistry()
        gate = threading.Event()
        backend = ConcurrencyProbeBackend("DB", gate=gate)
        binding = registry.register(backend, max_in_flight=1)
        router = BatchRouter(registry, default_backend="DB")

        first_report = {}

        def dispatch_first():
            first_report["report"] = router.dispatch("X", make_batch(1, "a"))

        t = threading.Thread(target=dispatch_first)
        t.start()
        assert backend.entered.wait(WAIT)  # slot is held, execute blocked
        racing = router.dispatch("X", make_batch(3, "b"))
        assert racing.admitted == 0
        assert racing.rejected == 3
        gate.set()
        t.join(WAIT)
        assert first_report["report"].admitted == 1
        assert first_report["report"].executed_ok == 1
        counters = binding.counters.snapshot()
        assert counters["dispatched"] == 4
        assert counters["admitted"] == 1
        assert counters["rejected"] == 3
        assert counters["executed_ok"] == 1
        assert binding.admission.in_flight == 0
        assert backend.max_active == 1

    def test_many_threads_one_gate_counters_sum_exactly(self):
        registry = BackendRegistry()
        backend = ConcurrencyProbeBackend("DB")
        binding = registry.register(backend, max_in_flight=2)
        router = BatchRouter(registry, default_backend="DB")

        n_threads, per_batch = 8, 5
        reports = [None] * n_threads
        start = threading.Barrier(n_threads)

        def worker(i):
            start.wait(WAIT)
            reports[i] = router.dispatch("X", make_batch(per_batch, str(i)))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)

        assert backend.max_active <= 2  # the gate held under the race
        offered = sum(r.offered for r in reports)
        admitted = sum(r.admitted for r in reports)
        rejected = sum(r.rejected for r in reports)
        assert offered == n_threads * per_batch
        assert admitted + rejected == offered
        counters = binding.counters.snapshot()
        assert counters["dispatched"] == offered
        assert counters["admitted"] == admitted
        assert counters["rejected"] == rejected
        assert counters["executed_ok"] == admitted == backend.executed
        assert binding.admission.in_flight == 0

    def test_concurrent_queue_spill_loses_nothing(self):
        """QUEUE spill under racing dispatches: every message is either
        executed or still parked — none vanish, none double-run."""
        registry = BackendRegistry()
        backend = NullBackend("DB")
        binding = registry.register(
            backend, max_in_flight=3, spill=SpillPolicy.QUEUE, queue_capacity=1000
        )
        router = BatchRouter(registry, default_backend="DB")

        n_threads, per_batch = 6, 10
        start = threading.Barrier(n_threads)

        def worker(i):
            start.wait(WAIT)
            router.dispatch("X", make_batch(per_batch, str(i)))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        # drain whatever remained parked
        while binding.pending_depth:
            router.drain("DB")

        total = n_threads * per_batch
        counters = binding.counters.snapshot()
        assert backend.accepted == total
        assert counters["executed_ok"] == total
        assert counters["rejected"] == 0
        assert binding.admission.in_flight == 0


class TestConcurrentPipeline:
    def _classifiers(self, embedder, corpus, n=3):
        vectors = embedder.transform(corpus)
        out = []
        for i in range(n):
            labels = [
                (int(template_fingerprint(q)[:8], 16) + i) % 4 for q in corpus
            ]
            labeler = ClassifierLabeler(
                RandomizedForestClassifier(n_trees=3, max_depth=6, seed=i)
            )
            labeler.fit(vectors, labels)
            out.append(
                QueryClassifier(f"label_{i}", embedder, labeler, embedder_name="bow")
            )
        return out

    def test_concurrent_run_keeps_cache_and_metrics_consistent(self, fitted_bow):
        corpus = [
            f"select col_{i % 7}, sum(metric_{i % 3}) from table_{i % 5} "
            f"where col_{i % 7} > {i}"
            for i in range(60)
        ]
        classifiers = self._classifiers(fitted_bow, corpus)

        # single-threaded reference labels, on its own pipeline
        # (deterministic embedder, so labels must match across runs)
        reference = {
            m.query: {c.label_name: m.label(c.label_name) for c in classifiers}
            for m in InferencePipeline()
            .run_columnar([LabeledQuery.make(q) for q in corpus], classifiers)
            .to_messages()
        }
        pipeline = InferencePipeline(cache=EmbeddingCache(capacity=256))

        n_threads, n_batches = 6, 4
        outputs: list[list[LabeledQuery]] = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def worker(i):
            start.wait(WAIT)
            rng = np.random.default_rng(i)
            for _ in range(n_batches):
                picks = rng.choice(len(corpus), size=20, replace=True)
                batch = [LabeledQuery.make(corpus[j]) for j in picks]
                outputs[i].extend(
                    pipeline.run_columnar(batch, classifiers).to_messages()
                )

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)

        # every message got the reference labels, from every thread
        for out in outputs:
            assert len(out) == n_batches * 20
            for message in out:
                assert {
                    c.label_name: message.label(c.label_name)
                    for c in classifiers
                } == reference[message.query]

        metrics = pipeline.metrics.snapshot()
        total = n_threads * n_batches * 20
        assert metrics["queries"] == total
        assert metrics["batches"] == n_threads * n_batches
        # one embedder -> exactly one cache lookup per unique template
        cache = pipeline.cache.snapshot()
        assert cache["hits"] + cache["misses"] == metrics["unique_templates"]
        # every distinct template embedded and cached at most... once per
        # race window; never more than once per thread, and all present
        distinct = len({template_fingerprint(q) for q in corpus})
        assert cache["size"] <= distinct
        assert metrics["embedded_templates"] >= distinct - cache["size"]


class TestEmbeddingCacheConcurrency:
    def test_snapshot_is_internally_consistent_under_load(self):
        # two lanes of up to 200 rows under a 256-row capacity: lookups,
        # stores and whole-lane evictions all race the snapshots
        cache = EmbeddingCache(capacity=256)
        stop = threading.Event()
        failures: list[str] = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            lane = f"e{seed % 2}"
            while not stop.is_set():
                ids = rng.choice(200, size=4, replace=False)
                _, miss = cache.get_matrix(lane, ids, dimension=4)
                if miss.any():
                    cache.put_matrix(lane, ids[miss], np.zeros((miss.sum(), 4)))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snap = cache.snapshot()
                total = snap["hits"] + snap["misses"]
                expected = snap["hits"] / total if total else 0.0
                if snap["hit_rate"] != expected:
                    failures.append(
                        f"hit_rate {snap['hit_rate']} != {expected} "
                        f"(hits={snap['hits']} misses={snap['misses']})"
                    )
                if snap["size"] > snap["capacity"]:
                    failures.append(f"size {snap['size']} over capacity")
        finally:
            stop.set()
            for t in threads:
                t.join(WAIT)
        assert not failures, failures[:3]
