"""Tests for the vectorized inference runtime.

Covers the satellite checklist: cache eviction at capacity, hit/miss
accounting, dedup correctness on batches with repeated templates, and
equivalence (pipeline output == legacy per-classifier output) on a
mixed TPC-H/SnowSim batch — plus the Qworker sink fan-out hardening.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import LabeledQuery, QuercService, QueryClassifier, QWorker
from repro.core.labeler import ClassifierLabeler
from repro.errors import EmbeddingError, ServiceError
from repro.ml.forest import RandomizedForestClassifier
from repro.runtime import EmbeddingCache, InferencePipeline, RuntimeMetrics
from repro.sql import normalizer
from repro.sql.normalizer import reset_fingerprint_caches, template_fingerprint
from repro.workloads.stream import QueryStream


class CountingEmbedder:
    """Delegating wrapper that records every ``transform`` invocation."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: list[list[str]] = []

    def transform(self, queries):
        self.calls.append(list(queries))
        return self.inner.transform(queries)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class QuantizedEmbedder:
    """Rounds vectors to 9 decimals so exact-equivalence assertions are
    immune to BLAS batch-shape rounding jitter (~1e-16): the legacy and
    pipeline paths transform different batch shapes."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def transform(self, queries):
        return np.round(self.inner.transform(queries), 9)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _make_classifier(label_name, embedder, train_queries, labels, seed=0):
    labeler = ClassifierLabeler(
        RandomizedForestClassifier(n_trees=4, max_depth=8, seed=seed)
    )
    labeler.fit(embedder.transform(train_queries), labels)
    return QueryClassifier(label_name, embedder, labeler)


# -- the cache --------------------------------------------------------------------


class TestEmbeddingCache:
    def test_hit_miss_accounting(self):
        cache = EmbeddingCache(capacity=8)
        assert cache.hit_rate == 0.0
        cache.put_matrix("e", np.array([4]), np.zeros((1, 2)))
        _, miss = cache.get_matrix("e", np.array([4, 5]), dimension=2)
        assert list(miss) == [False, True]
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_keys_are_namespaced_by_embedder(self):
        cache = EmbeddingCache(capacity=8)
        cache.put_matrix("e1", np.array([0]), np.zeros((1, 2)))
        _, miss = cache.get_matrix("e2", np.array([0]), dimension=2)
        assert miss.all()

    def test_stored_rows_are_copies_of_the_source(self):
        cache = EmbeddingCache(capacity=2)
        source = np.ones((1, 3))
        cache.put_matrix("e", np.array([0]), source)
        source[0, 0] = 99.0  # caller mutation must not leak into the cache
        out, _ = cache.get_matrix("e", np.array([0]), dimension=3)
        assert out[0, 0] == 1.0

    def test_matrix_lane_roundtrip(self):
        cache = EmbeddingCache(capacity=64)
        ids = np.array([3, 7, 1], dtype=np.int64)
        stored = np.arange(6, dtype=np.float64).reshape(3, 2)
        cache.put_matrix("e", ids, stored)
        out, miss = cache.get_matrix("e", np.array([1, 3, 5, 7]), dimension=2)
        assert list(miss) == [False, False, True, False]
        assert np.array_equal(out[0], stored[2])
        assert np.array_equal(out[1], stored[0])
        assert np.array_equal(out[3], stored[1])
        # returned rows are fresh copies: mutating them can't poison the lane
        out[1][:] = -1.0
        again, _ = cache.get_matrix("e", np.array([3]), dimension=2)
        assert np.array_equal(again[0], stored[0])

    def test_matrix_negative_ids_never_cached(self):
        """-1 means "no intern slot": such templates always miss and
        put_matrix drops them instead of storing under a bogus row."""
        cache = EmbeddingCache(capacity=64)
        cache.put_matrix("e", np.array([-1, 2]), np.ones((2, 2)))
        out, miss = cache.get_matrix("e", np.array([-1, 2]), dimension=2)
        assert list(miss) == [True, False]
        assert cache.snapshot()["matrix_rows"] == 1

    def test_matrix_lane_eviction_spares_the_writer(self):
        """Whole-lane LRU: when combined occupancy exceeds capacity the
        least-recently-used *other* lane goes; the lane just written
        (this batch's working set) survives."""
        cache = EmbeddingCache(capacity=4)
        cache.put_matrix("old", np.arange(3), np.zeros((3, 2)))
        cache.put_matrix("new", np.arange(3), np.ones((3, 2)))
        snap = cache.snapshot()
        assert snap["matrix_lanes"] == 1
        assert cache.evictions == 3
        _, miss = cache.get_matrix("new", np.arange(3), dimension=2)
        assert not miss.any()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ServiceError):
            EmbeddingCache(capacity=0)


# -- template fingerprints ---------------------------------------------------------


class TestTemplateFingerprint:
    def test_literals_fold_together(self):
        a = template_fingerprint("SELECT a FROM t WHERE x = 5 AND s = 'u1'")
        b = template_fingerprint("select A  from T where x = 999 and s='other'")
        assert a == b

    def test_structure_distinguishes(self):
        a = template_fingerprint("SELECT a FROM t")
        b = template_fingerprint("SELECT a, b FROM t")
        assert a != b

    def test_total_on_garbage(self):
        fp = template_fingerprint("garbage ~~ %% not sql at all ♞")
        assert isinstance(fp, str) and fp
        assert fp == template_fingerprint("garbage ~~ %% not sql at all ♞")


# -- the pipeline ------------------------------------------------------------------


class TestPipelineDedup:
    def test_one_transform_over_unique_templates_only(self, fitted_bow):
        counting = CountingEmbedder(fitted_bow)
        pipe = InferencePipeline()
        templates = [
            "SELECT a FROM t WHERE x = {}",
            "SELECT b, c FROM u WHERE y < {} LIMIT {}",
            "SELECT count(*) FROM v GROUP BY z HAVING count(*) > {}",
        ]
        batch = [templates[i % 3].format(i, i + 1) for i in range(30)]
        vectors = pipe.embed(counting, batch)

        assert len(counting.calls) == 1  # exactly one transform call
        assert len(counting.calls[0]) == 3  # over unique templates only
        assert vectors.shape == (30, fitted_bow.dimension)
        # deterministic embedder: dedup must be invisible in the output
        # (allclose, not equal: BLAS rounding differs by batch shape)
        np.testing.assert_allclose(
            vectors, fitted_bow.transform(batch), rtol=0, atol=1e-12
        )
        assert pipe.metrics.dedup_ratio == pytest.approx(1 - 3 / 30)

    def test_second_batch_served_from_cache(self, fitted_bow):
        counting = CountingEmbedder(fitted_bow)
        pipe = InferencePipeline()
        batch = ["SELECT a FROM t WHERE x = 1", "SELECT b FROM u WHERE y = 2"]
        first = pipe.embed(counting, batch)
        second = pipe.embed(counting, batch)

        assert len(counting.calls) == 1  # nothing re-embedded
        np.testing.assert_array_equal(first, second)
        # the cache counts its own hits; the runtime view reads them there
        assert (pipe.cache.hits, pipe.cache.misses) == (2, 2)
        assert pipe.snapshot()["cache_hit_rate"] == pytest.approx(0.5)

    def test_run_embeds_once_per_distinct_embedder(
        self, fitted_bow, snowsim_records
    ):
        train = snowsim_records[:100]
        queries = [r.query for r in train]
        counting = CountingEmbedder(fitted_bow)
        classifiers = [
            _make_classifier("user", counting, queries, [r.user for r in train]),
            _make_classifier("account", counting, queries, [r.account for r in train]),
            _make_classifier("cluster", counting, queries, [r.cluster for r in train]),
        ]
        counting.calls.clear()  # drop the fit-time transforms

        pipe = InferencePipeline()
        batch = [LabeledQuery.make(r.query) for r in snowsim_records[100:180]]
        labeled = pipe.run_columnar(batch, classifiers).to_messages()

        assert len(counting.calls) == 1  # 3 classifiers, 1 shared embedder
        assert len(labeled) == len(batch)
        assert all(
            m.has_label("user") and m.has_label("account") and m.has_label("cluster")
            for m in labeled
        )
        assert pipe.metrics.transform_calls == 1
        assert pipe.metrics.batches == 1

    def test_run_with_two_embedders_transforms_each_once(
        self, fitted_bow, fitted_doc2vec, snowsim_records
    ):
        train = snowsim_records[:60]
        queries = [r.query for r in train]
        bow = CountingEmbedder(fitted_bow)
        d2v = CountingEmbedder(fitted_doc2vec)
        classifiers = [
            _make_classifier("user", bow, queries, [r.user for r in train]),
            _make_classifier("account", bow, queries, [r.account for r in train]),
            _make_classifier("cluster", d2v, queries, [r.cluster for r in train]),
        ]
        bow.calls.clear()
        d2v.calls.clear()

        pipe = InferencePipeline()
        batch = [LabeledQuery.make(r.query) for r in snowsim_records[60:100]]
        pipe.run_columnar(batch, classifiers)
        assert len(bow.calls) == 1
        assert len(d2v.calls) == 1

    def test_one_probe_and_one_collapse_whatever_the_embedder_count(
        self, fitted_bow, fitted_doc2vec, snowsim_records, monkeypatch
    ):
        """Two embedder groups, one of them a delegating wrapper: the
        batch is fingerprinted and collapsed once, and both label
        columns index the batch's one inverse."""
        train = snowsim_records[:60]
        queries = [r.query for r in train]
        classifiers = [
            _make_classifier(
                "user", QuantizedEmbedder(fitted_bow), queries, [r.user for r in train]
            ),
            _make_classifier(
                "cluster", fitted_doc2vec, queries, [r.cluster for r in train]
            ),
        ]
        probes, collapses = [], []
        probe, collapse = normalizer._MEMO.fingerprint_ids, InferencePipeline._collapse_ids
        monkeypatch.setattr(
            normalizer._MEMO, "fingerprint_ids", lambda q: probes.append(q) or probe(q)
        )
        monkeypatch.setattr(
            InferencePipeline,
            "_collapse_ids",
            lambda self, ids: collapses.append(ids) or collapse(self, ids),
        )
        batch = [LabeledQuery.make(r.query) for r in snowsim_records[60:100]]
        columnar = InferencePipeline().run_columnar(batch, classifiers)
        assert (len(probes), len(collapses)) == (1, 1)
        assert set(columnar.columns) == {"user", "cluster"}
        k = int(columnar.inverse.max()) + 1
        assert all(len(values) == k for values in columnar.columns.values())

    def test_a_reset_never_serves_another_templates_vector(
        self, fitted_bow, tpch_workload, snowsim_records
    ):
        """Interned ids outlive ``reset_fingerprint_caches``, so a cache
        lane filled before a reset cannot serve a template interned
        after it."""
        old, new = tpch_workload[0], snowsim_records[0].query
        assert not np.allclose(fitted_bow.transform([old]), fitted_bow.transform([new]))
        pipe = InferencePipeline()
        reset_fingerprint_caches()
        pipe.embed(fitted_bow, [old])
        reset_fingerprint_caches()
        np.testing.assert_allclose(
            pipe.embed(fitted_bow, [new]), fitted_bow.transform([new]), rtol=0, atol=1e-12
        )

    def test_empty_batch_and_no_classifiers(self, fitted_bow):
        pipe = InferencePipeline()
        assert pipe.run_columnar([], []).to_messages() == []
        batch = [LabeledQuery.make("SELECT 1")]
        assert pipe.run_columnar(batch, []).to_messages() == batch
        assert pipe.embed(fitted_bow, []).shape == (0, fitted_bow.dimension)
        # none of the above did inference; metrics must not drift
        assert pipe.metrics.batches == 0
        assert pipe.metrics.queries == 0
        assert pipe.metrics.dedup_ratio == 0.0

    def test_refit_invalidates_cached_vectors(self, small_corpus):
        """A refit embedder must not serve vectors from its old fit."""
        from repro.embedding import BagOfTokensEmbedder

        emb = BagOfTokensEmbedder(dimension=8, min_count=1, seed=1)
        emb.fit(small_corpus[:40])
        pipe = InferencePipeline()
        q = ["SELECT col_1 FROM table_1 WHERE col_1 > 3"]
        stale = pipe.embed(emb, q)

        emb.fit(small_corpus[40:] + ["SELECT new_col FROM new_table"])
        fresh = pipe.embed(emb, q)
        np.testing.assert_array_equal(fresh, emb.transform(q))
        assert not np.array_equal(stale, fresh)
        assert pipe.cache.hits == 0  # generation changed: miss

    def test_dead_embedder_namespace_never_reused(self, small_corpus):
        """After an embedder is garbage-collected, a fresh same-class
        embedder must not hit the dead one's cache entries."""
        import gc

        from repro.embedding import BagOfTokensEmbedder

        pipe = InferencePipeline()
        q = ["SELECT col_1 FROM table_1 WHERE col_1 > 3"]
        emb_a = BagOfTokensEmbedder(dimension=8, min_count=1, seed=1).fit(
            small_corpus[:40]
        )
        pipe.embed(emb_a, q)
        del emb_a
        gc.collect()
        emb_b = BagOfTokensEmbedder(dimension=8, min_count=1, seed=2).fit(
            small_corpus[40:]
        )
        vectors = pipe.embed(emb_b, q)
        np.testing.assert_array_equal(vectors, emb_b.transform(q))

    def test_same_named_embedders_do_not_collide(self, small_corpus):
        from repro.embedding import BagOfTokensEmbedder

        e1 = BagOfTokensEmbedder(dimension=8, min_count=1, seed=1).fit(small_corpus)
        e2 = BagOfTokensEmbedder(dimension=8, min_count=1, seed=2).fit(small_corpus)
        pipe = InferencePipeline()
        q = ["SELECT col_1 FROM table_1 WHERE col_1 > 7"]
        v1 = pipe.embed(e1, q)  # both claim the class name...
        v2 = pipe.embed(e2, q)  # ...but must get distinct cache rows
        np.testing.assert_array_equal(v1, e1.transform(q))
        np.testing.assert_array_equal(v2, e2.transform(q))

    def test_unweakrefable_embedder_bypasses_cache(self, fitted_bow):
        """An embedder that can't be weak-referenced is embedded
        correctly but must not pollute the shared LRU."""

        class SlotsEmbedder:  # no __weakref__, delegates to a real embedder
            __slots__ = ("inner",)

            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

        emb = SlotsEmbedder(fitted_bow)
        pipe = InferencePipeline()
        q = ["SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"]
        v = pipe.embed(emb, q)
        np.testing.assert_allclose(
            v, fitted_bow.transform(q), rtol=0, atol=1e-12
        )
        assert len(pipe.cache) == 0  # nothing inserted under dead namespaces
        assert pipe.metrics.transform_calls == 1  # dedup still applied
        assert pipe.metrics.unique_templates == 1

    def test_pipelines_sharing_a_cache_do_not_collide(self, small_corpus):
        """Namespaces are process-unique, so two pipelines over one
        cache can never serve each other's embedders' vectors."""
        from repro.embedding import BagOfTokensEmbedder

        cache = EmbeddingCache()
        p1 = InferencePipeline(cache=cache)
        p2 = InferencePipeline(cache=cache)
        e1 = BagOfTokensEmbedder(dimension=8, min_count=1, seed=1).fit(small_corpus)
        e2 = BagOfTokensEmbedder(dimension=8, min_count=1, seed=2).fit(small_corpus)
        q = ["SELECT col_1 FROM table_1 WHERE col_1 > 7"]
        v1 = p1.embed(e1, q)
        v2 = p2.embed(e2, q)
        np.testing.assert_array_equal(v1, e1.transform(q))
        np.testing.assert_array_equal(v2, e2.transform(q))


class TestVectorsInEntryPoints:
    def test_predict_vectors_matches_predict(self, fitted_bow, snowsim_records):
        train = snowsim_records[:80]
        queries = [r.query for r in train]
        clf = _make_classifier("user", fitted_bow, queries, [r.user for r in train])
        probe = [r.query for r in snowsim_records[80:100]]
        vectors = fitted_bow.transform(probe)
        assert clf.predict_vectors(vectors) == clf.predict(probe)

    def test_validate_vectors_rejects_wrong_shape(self, fitted_bow):
        with pytest.raises(EmbeddingError):
            fitted_bow.validate_vectors(np.zeros((3, fitted_bow.dimension + 1)))
        with pytest.raises(EmbeddingError):
            fitted_bow.validate_vectors(np.zeros(fitted_bow.dimension))

    def test_overriding_tokenize_is_a_type_error(self):
        """Every embedder consumes the stream the template fingerprint
        digests, so one template axis serves them all."""
        from repro.embedding import BagOfTokensEmbedder

        with pytest.raises(TypeError, match="tokenize"):

            class RawTextEmbedder(BagOfTokensEmbedder):
                @staticmethod
                def tokenize(query):
                    return query.split()


# -- equivalence with the legacy path ----------------------------------------------


class TestLegacyEquivalence:
    def test_pipeline_matches_per_classifier_path_on_mixed_batch(
        self, fitted_bow, tpch_workload, snowsim_records
    ):
        """Pipeline labels == legacy labels on a TPC-H + SnowSim mix.

        Uses the deterministic bag-of-tokens embedder so the comparison
        is exact (Doc2Vec's stochastic inference draws a fresh vector
        per call even on the legacy path)."""
        embedder = QuantizedEmbedder(fitted_bow)
        train = snowsim_records[:200]
        queries = [r.query for r in train]
        classifiers = [
            _make_classifier("user", embedder, queries, [r.user for r in train]),
            _make_classifier(
                "account", embedder, queries, [r.account for r in train], seed=1
            ),
            _make_classifier(
                "cluster", embedder, queries, [r.cluster for r in train], seed=2
            ),
        ]
        mixed = tpch_workload[:30] + [r.query for r in snowsim_records[200:260]]
        # interleave duplicates so the batch has repeated templates
        mixed = mixed + mixed[:40]
        batch = [LabeledQuery.make(q) for q in mixed]

        legacy = list(batch)
        for classifier in classifiers:
            legacy = classifier.label_batch(legacy)

        piped = InferencePipeline().run_columnar(batch, classifiers).to_messages()

        assert len(piped) == len(legacy)
        for a, b in zip(piped, legacy):
            assert a.query == b.query
            assert dict(a.labels) == dict(b.labels)


# -- worker + service integration --------------------------------------------------


class TestQWorkerSinkFanOut:
    def _worker(self):
        worker = QWorker("W")
        seen: list[str] = []
        worker.add_sink(lambda app, batch: seen.append("first"))

        def exploding(app, batch):
            raise RuntimeError("sink down")

        worker.add_sink(exploding)
        worker.add_sink(lambda app, batch: seen.append("last"))
        return worker, seen

    def test_all_sinks_receive_despite_failure(self):
        worker, seen = self._worker()
        batch = [LabeledQuery.make("SELECT 1")]
        with pytest.raises(ServiceError) as err:
            worker.process_batch(batch)
        assert seen == ["first", "last"]  # later sinks still delivered
        assert "1 of 3 sink(s) failed" in str(err.value)
        assert worker.processed_count == 1  # batch was fully processed

    def test_no_error_when_all_sinks_healthy(self):
        worker = QWorker("W")
        got: list[int] = []
        worker.add_sink(lambda app, batch: got.append(len(batch)))
        out = worker.process_batch([LabeledQuery.make("SELECT 1")] * 3)
        assert got == [3] and len(out) == 3

    def test_multiple_failures_aggregate_into_one_error(self):
        worker = QWorker("W")

        def boom_a(app, batch):
            raise RuntimeError("sink A down")

        def boom_b(app, batch):
            raise ValueError("sink B confused")

        delivered: list[str] = []
        worker.add_sink(boom_a)
        worker.add_sink(lambda app, batch: delivered.append(app))
        worker.add_sink(boom_b)
        with pytest.raises(ServiceError) as err:
            worker.process_batch([LabeledQuery.make("SELECT 1")])
        message = str(err.value)
        assert "2 of 3 sink(s) failed" in message
        # each failure is named with its type and detail
        assert "RuntimeError: sink A down" in message
        assert "ValueError: sink B confused" in message
        # the first underlying failure is kept as the cause chain
        assert isinstance(err.value.__cause__, RuntimeError)
        assert delivered == ["W"]  # healthy sink between failures delivered

    def test_state_updated_despite_sink_failure(self):
        worker = QWorker("W", window_size=8)

        def boom(app, batch):
            raise RuntimeError("down")

        worker.add_sink(boom)
        with pytest.raises(ServiceError):
            worker.process_batch([LabeledQuery.make("SELECT 1")] * 3)
        assert worker.processed_count == 3
        assert len(worker.recent(3)) == 3  # window kept the batch

    def test_dispatch_runs_despite_sink_failure(self):
        worker = QWorker("W")
        dispatched: list[int] = []
        worker.set_dispatcher(lambda labeled: dispatched.append(len(labeled)))

        def boom(app, batch):
            raise RuntimeError("down")

        worker.add_sink(boom)
        with pytest.raises(ServiceError):
            worker.process_batch([LabeledQuery.make("SELECT 1")] * 2)
        # the database-bound path is not dropped by a fork failure
        assert dispatched == [2]

    def test_dispatch_failure_does_not_eat_sink_errors(self):
        worker = QWorker("W")

        def boom_sink(app, batch):
            raise RuntimeError("training sink down")

        def boom_dispatch(labeled):
            raise ValueError("backend gone")

        worker.add_sink(boom_sink)
        worker.set_dispatcher(boom_dispatch)
        with pytest.raises(ServiceError) as err:
            worker.process_batch([LabeledQuery.make("SELECT 1")])
        message = str(err.value)
        assert "RuntimeError: training sink down" in message
        assert "dispatch failed" in message
        assert "ValueError: backend gone" in message
        # the first chronological failure (the sink) is the cause
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_dispatch_failure_alone_surfaces(self):
        worker = QWorker("W")

        def boom_dispatch(labeled):
            raise ValueError("backend gone")

        worker.set_dispatcher(boom_dispatch)
        with pytest.raises(ServiceError) as err:
            worker.process_batch([LabeledQuery.make("SELECT 1")])
        assert "dispatch failed" in str(err.value)
        assert isinstance(err.value.__cause__, ValueError)
        assert worker.last_dispatch is None  # nothing stale left behind

    def test_forked_mode_skips_dispatcher(self):
        worker = QWorker("W", forward_to_database=False)
        dispatched: list[int] = []
        worker.set_dispatcher(lambda labeled: dispatched.append(len(labeled)))
        out = worker.process_batch([LabeledQuery.make("SELECT 1")])
        assert out == []
        assert dispatched == []


class TestQWorkerEmptyBatch:
    def test_empty_batch_short_circuits(self):
        worker = QWorker("W")
        sunk: list[int] = []
        worker.add_sink(lambda app, batch: sunk.append(len(batch)))
        dispatched: list[int] = []
        worker.set_dispatcher(lambda labeled: dispatched.append(len(labeled)))
        assert worker.process_batch([]) == []
        assert sunk == []  # no sink fan-out for zero queries
        assert dispatched == []  # no dispatch either
        assert worker.processed_count == 0
        # zero-cost metrics: the pipeline never ran
        snap = worker.pipeline.metrics.snapshot()
        assert snap["batches"] == 0
        assert snap["queries"] == 0
        assert all(v == 0.0 for v in snap["stage_seconds"].values())


class TestServiceRuntimeStats:
    def test_stats_report_cache_hits_and_dedup(self, fitted_bow, snowsim_records):
        service = QuercService(n_folds=3, seed=0)
        service.embedders.register("shared-bow", fitted_bow)
        service.add_application("X")
        service.import_logs("X", snowsim_records[:200])
        service.train_and_deploy("X", label_name="user", embedder_name="shared-bow")
        service.train_and_deploy("X", label_name="account", embedder_name="shared-bow")

        stream = QueryStream("X", snowsim_records[200:280], batch_size=20)
        for batch in stream.batches():
            out = service.process(batch)
            assert [m.query for m in out] == batch.queries()  # order kept
            assert all(m.has_label("user") and m.has_label("account") for m in out)
        # replay: every template now comes from the cache
        for batch in stream.batches():
            service.process(batch)

        stats = service.stats()
        runtime = stats["runtime"]
        assert runtime["batches"] == 8
        assert runtime["queries"] == 160
        assert runtime["cache_hit_rate"] > 0
        assert runtime["transform_calls"] >= 1
        assert 0.0 <= runtime["dedup_ratio"] <= 1.0
        assert runtime["cache"]["size"] == len(service.runtime.cache)
        assert stats["applications"]["X"]["processed"] == 160
        assert stats["applications"]["X"]["backend"] is None  # unbound app
        assert stats["backends"] == {}  # none registered
        assert set(runtime["stage_seconds"]) >= {
            "fingerprint", "dedup", "embed", "predict", "scatter",
        }

    def test_workers_share_one_pipeline(self, fitted_bow):
        service = QuercService()
        a = service.add_application("A")
        b = service.add_application("B")
        assert a.worker.pipeline is service.runtime
        assert b.worker.pipeline is service.runtime


class TestRuntimeMetrics:
    def test_stage_timer_accumulates(self):
        metrics = RuntimeMetrics()
        with metrics.stage("embed"):
            pass
        with metrics.stage("embed"):
            pass
        assert metrics.stage_seconds["embed"] >= 0.0
        snap = metrics.snapshot()
        assert snap["batches"] == 0
        metrics.reset()
        assert metrics.snapshot()["stage_seconds"]["embed"] == 0.0

    def test_ratios_safe_on_empty(self):
        metrics = RuntimeMetrics()
        assert metrics.dedup_ratio == 0.0
        assert metrics.snapshot()["fingerprint_memo_hit_rate"] == 0.0

    def test_add_rejects_unknown_counter(self):
        with pytest.raises(KeyError):
            RuntimeMetrics().add(no_such_counter=1)
        with pytest.raises(KeyError):  # an attribute, but not a counter
            RuntimeMetrics().add(stage_seconds=1)
        with pytest.raises(KeyError):  # counted by its owner, not here
            RuntimeMetrics().add(cache_hits=1)

    def test_add_with_an_unknown_counter_applies_nothing(self):
        metrics = RuntimeMetrics()
        with pytest.raises(KeyError):
            metrics.add(batches=1, no_such_counter=1)
        assert metrics.batches == 0

    def test_snapshot_views_cover_every_counter_once(self):
        """The 16 counters no other object keeps, each landing in
        exactly one of the flat / ``server`` views. Cache, resilience,
        breaker and edge-shed counts are read from their owners by
        ``QuercService.stats()``."""
        metrics = RuntimeMetrics()
        metrics.add(**{name: i + 1 for i, name in enumerate(metrics._COUNTERS)})
        snap = metrics.snapshot()
        assert set(snap) == {
            "batches", "queries", "unique_templates", "embedded_templates",
            "transform_calls", "fingerprint_memo_hits",
            "fingerprint_memo_misses", "fingerprint_memo_hit_rate",
            "intern_overflow", "server", "dedup_ratio", "stage_seconds",
        }  # fmt: skip
        assert set(snap["server"]) == {
            "sessions", "sessions_closed", "frames_in", "frames_out",
            "bytes_in", "bytes_out", "protocol_errors", "queries",
        }  # fmt: skip
        assert len(metrics._COUNTERS) == 16
        for i, name in enumerate(metrics._COUNTERS):
            view, key = (
                (snap["server"], name.removeprefix("server_"))
                if name.startswith("server_")
                else (snap, name)
            )
            assert view[key] == i + 1, name
            assert getattr(metrics, name) == i + 1, name
        assert snap["fingerprint_memo_hit_rate"] == pytest.approx(6 / 13)
        assert snap["dedup_ratio"] == pytest.approx(1 - 3 / 2)

    def test_reset_keeps_routing_stage_keys(self):
        metrics = RuntimeMetrics()
        with metrics.stage("route"):
            pass
        metrics.reset()
        stage_seconds = metrics.snapshot()["stage_seconds"]
        assert stage_seconds["route"] == 0.0
        assert stage_seconds["execute"] == 0.0

    def test_concurrent_aggregation_is_exact(self):
        """Racing add()/stage() calls from many threads lose nothing."""
        import threading

        metrics = RuntimeMetrics()
        n_threads, iterations = 8, 500

        def hammer():
            for _ in range(iterations):
                metrics.add(
                    batches=1,
                    queries=3,
                    fingerprint_memo_hits=2,
                    fingerprint_memo_misses=1,
                )
                with metrics.stage("embed"):
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so a lost update shows
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = metrics.snapshot()
        total = n_threads * iterations
        assert snap["batches"] == total
        assert snap["queries"] == 3 * total
        assert snap["fingerprint_memo_hits"] == 2 * total
        assert snap["fingerprint_memo_misses"] == 1 * total
        assert snap["fingerprint_memo_hit_rate"] == pytest.approx(2 / 3)
        assert snap["stage_seconds"]["embed"] > 0.0

    def test_snapshot_consistent_under_concurrent_writes(self):
        """hits+misses in one snapshot always move in lockstep (2:1)."""
        import threading

        metrics = RuntimeMetrics()
        stop = threading.Event()
        torn: list[dict] = []

        def writer():
            while not stop.is_set():
                metrics.add(fingerprint_memo_hits=2, fingerprint_memo_misses=1)

        def reader():
            for _ in range(2000):
                snap = metrics.snapshot()
                hits = snap["fingerprint_memo_hits"]
                if hits != 2 * snap["fingerprint_memo_misses"]:
                    torn.append(snap)
            stop.set()

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start(); r.start()
        r.join(); stop.set(); w.join()
        assert torn == []
