"""The shared-embedding inference pipeline — Querc's hot path.

Qworkers are on the query critical path, and the expensive step is the
embedder. Before this layer existed, every classifier on a worker
re-tokenized and re-embedded the full batch, so a worker with four
classifiers sharing one embedder paid the embedding cost four times.
The pipeline restructures one batch's inference as:

1. **fingerprint** — one probe of the process-wide fingerprint memo
   (:func:`repro.sql.normalizer.template_fingerprint_ids`) gives dense
   interned template ids per query: repeated texts skip tokenization,
   repeated templates share one id;
2. **dedup** — one ``np.unique`` over the id array collapses the batch
   to its distinct templates (no Python dict loop). Every embedder
   consumes the same literal-folded token stream the fingerprint
   digests (``QueryEmbedder`` forbids overriding ``tokenize``), so this
   one template axis serves every embedder and every classifier;
3. **embed** — per distinct embedder, one vectorized
   :meth:`~repro.runtime.cache.EmbeddingCache.get_matrix` probe of its
   cache lane, then one ``transform`` call covering exactly the
   missing templates;
4. **predict** — each classifier predicts over the *unique* template
   vectors only (k rows, not n);
5. **scatter** — each label column is kept at template granularity on
   a :class:`~repro.runtime.columnar.ColumnarBatch`, which carries the
   template axis once (``fingerprint_ids`` plus one ``inverse``).
   Per-query ``LabeledQuery`` objects are materialized once, at the
   batch's ``to_messages()`` boundary — the router partitions the
   columnar form directly.

For deterministic embedders (e.g. bag-of-tokens) the output is
semantically equivalent to labeling with each classifier on its own
(:meth:`~repro.core.classifier.QueryClassifier.label_batch`), up to
floating-point batch-shape jitter (~1e-16: BLAS rounds a k-row matmul
differently from an n-row one). Predicting over unique templates is
exact for the row-independent estimators in this repo (forests route
each row through tree thresholds; k-means takes a per-row argmin). For
embedders with stochastic inference (Doc2Vec trains a fresh vector per
call) the pipeline is a semantic *improvement*: duplicates of one
template now share one canonical vector instead of each drawing its
own noisy sample.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.runtime.cache import EmbeddingCache
from repro.runtime.columnar import ColumnarBatch
from repro.runtime.metrics import RuntimeMetrics
from repro.sql.normalizer import fingerprint_cache_stats, template_fingerprint_ids

if TYPE_CHECKING:  # avoid an import cycle with repro.core
    from repro.core.classifier import QueryClassifier
    from repro.core.labeled_query import LabeledQuery
    from repro.embedding.base import QueryEmbedder


# process-wide, not per-pipeline: two pipelines sharing one
# EmbeddingCache must never assign the same namespace to different
# embedder objects
_NAMESPACE_SERIAL = itertools.count(1)


class InferencePipeline:
    """Batch inference with template dedup and a shared embedding cache.

    One pipeline (and hence one cache and one metrics object) is meant
    to be shared by every Qworker in a service — embedders are shared
    service-wide, so their template vectors should be too.
    """

    def __init__(
        self,
        cache: EmbeddingCache | None = None,
        metrics: RuntimeMetrics | None = None,
    ) -> None:
        self.cache = cache if cache is not None else EmbeddingCache()
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        # embedder object -> its cache namespace; namespaces carry a
        # monotonic serial so they are never reused, even after the
        # object dies — a new same-named embedder must not hit a dead
        # embedder's cache entries.
        self._names: "weakref.WeakKeyDictionary[object, str]" = (
            weakref.WeakKeyDictionary()
        )
        self._name_lock = threading.Lock()

    # -- batch labeling (the Qworker path) ----------------------------------------

    def run_columnar(
        self,
        batch: "Sequence[LabeledQuery]",
        classifiers: "Sequence[QueryClassifier]",
    ) -> ColumnarBatch:
        """Label a batch with every classifier, columnar end-to-end.

        Fingerprints and collapses the batch once, then embeds each
        distinct embedder exactly once over the unique templates and
        predicts once per template per classifier; the returned
        :class:`~repro.runtime.columnar.ColumnarBatch` carries label
        columns as arrays and materializes messages only when (and if)
        ``to_messages()`` is called.
        """
        columnar = ColumnarBatch(batch)
        if not batch:
            return columnar
        queries = columnar.queries
        # dispatch hands the ids to prepared-execution backends instead
        # of re-fingerprinting
        ids = columnar.fingerprint_ids = self._fingerprint_ids(queries)
        if not classifiers:
            return columnar
        m = self.metrics
        unique_ids, first_idx, columnar.inverse = self._collapse_ids(ids)
        m.add(batches=1, queries=len(batch), unique_templates=len(unique_ids))

        groups: dict[int, list[QueryClassifier]] = {}
        for classifier in classifiers:
            groups.setdefault(id(classifier.embedder), []).append(classifier)
        for group in groups.values():
            embedder = group[0].embedder
            name = self._cache_name(embedder, group[0].embedder_name)
            unique_vectors = self._embed_unique(
                embedder, name, queries, unique_ids, first_idx
            )
            with m.stage("predict"):
                for classifier in group:
                    predictions = classifier.predict_vectors(unique_vectors)
                    # fromiter: a tuple-valued label stays one cell
                    columnar.columns[classifier.label_name] = np.fromiter(
                        predictions, dtype=object, count=len(unique_ids)
                    )
        return columnar

    # -- raw embedding (the apps / offline path) ----------------------------------

    def embed(
        self,
        embedder: "QueryEmbedder",
        queries: Sequence[str],
        embedder_name: str = "",
    ) -> np.ndarray:
        """Embed raw texts through the dedup + cache path.

        Drop-in replacement for ``embedder.transform(queries)`` wherever
        template-level vectors are acceptable.
        """
        if len(queries) == 0:
            return np.zeros((0, embedder.dimension), dtype=np.float64)
        m = self.metrics
        queries = list(queries)
        ids = self._fingerprint_ids(queries)
        unique_ids, first_idx, inverse = self._collapse_ids(ids)
        m.add(batches=1, queries=len(queries), unique_templates=len(unique_ids))
        name = self._cache_name(embedder, embedder_name)
        unique_vectors = self._embed_unique(
            embedder, name, queries, unique_ids, first_idx
        )
        with m.stage("scatter"):
            return unique_vectors[inverse]

    def snapshot(self) -> dict:
        """Metrics plus cache and fingerprint-table state, for
        ``QuercService.stats()``. ``cache_hits`` / ``cache_misses`` /
        ``cache_hit_rate`` are the cache's own counts."""
        cache = self.cache.snapshot()
        return {
            **self.metrics.snapshot(),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_hit_rate": cache["hit_rate"],
            "cache": cache,
            "fingerprints": fingerprint_cache_stats(),
        }

    # -- internals ----------------------------------------------------------------

    def _fingerprint_ids(self, queries: list[str]) -> np.ndarray:
        """Dense template ids per query, from one probe of the process-
        wide fingerprint memo (its hit counters feed this runtime's
        metrics). Ids of ``-1`` (intern table full) are rewritten to
        batch-local negative ids, consistent within the batch but never
        cached across batches."""
        m = self.metrics
        with m.stage("fingerprint"):
            ids, fps, memo_hits, memo_misses = template_fingerprint_ids(queries)
            overflow = int((ids < 0).sum())
            m.add(
                fingerprint_memo_hits=memo_hits,
                fingerprint_memo_misses=memo_misses,
                intern_overflow=overflow,
            )
            if overflow:
                ids = _localize_overflow(ids, fps)
        return ids

    def _collapse_ids(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collapse a fingerprinted batch to its distinct templates.

        Returns ``(unique_ids, first_idx, inverse)`` — one ``np.unique``
        over the id array; ``queries[first_idx[j]]`` is the (first-
        occurrence) representative text of template ``j`` and
        ``unique[inverse[i]]`` stands in for query ``i``.
        """
        with self.metrics.stage("dedup"):
            return np.unique(ids, return_index=True, return_inverse=True)

    def _embed_unique(
        self,
        embedder: "QueryEmbedder",
        name: str | None,
        queries: list[str],
        unique_ids: np.ndarray,
        first_idx: np.ndarray,
    ) -> np.ndarray:
        """Vectors for the unique templates: one vectorized cache probe,
        then **one** ``transform`` call covering exactly the misses.
        ``name=None`` (uncacheable embedder) still dedups but skips the
        cache; negative (batch-local) ids always miss it."""
        m = self.metrics
        k = len(unique_ids)
        if name is None:
            with m.stage("embed"):
                representatives = [queries[i] for i in first_idx]
                fresh = np.asarray(
                    embedder.transform(representatives), dtype=np.float64
                )
                m.add(transform_calls=1, embedded_templates=k)
            return fresh
        with m.stage("embed"):
            vectors, miss = self.cache.get_matrix(
                name, unique_ids, embedder.dimension
            )
            n_miss = int(miss.sum())
            if n_miss:
                miss_idx = np.flatnonzero(miss)
                representatives = [queries[first_idx[i]] for i in miss_idx]
                fresh = np.asarray(
                    embedder.transform(representatives), dtype=np.float64
                )
                m.add(transform_calls=1, embedded_templates=n_miss)
                vectors[miss_idx] = fresh
                self.cache.put_matrix(name, unique_ids[miss_idx], fresh)
        return vectors

    def _cache_name(
        self, embedder: "QueryEmbedder", requested: str = ""
    ) -> str | None:
        """A cache namespace for this embedder object, unique process-
        wide even across embedder churn (a serial makes namespaces
        non-reusable, so a fresh same-named embedder can never hit a
        dead one's entries; stale entries age out of the LRU). The
        embedder's fit generation is folded in, so refitting an
        already-cached embedder can't serve vectors from an old fit.
        Returns None for embedders that cannot be cached safely.
        """
        generation = getattr(embedder, "fit_generation", 0)
        with self._name_lock:  # check-then-claim must be atomic
            try:
                known = self._names.get(embedder)
            except TypeError:
                # not weak-referenceable: no safe way to memoize by
                # identity (ids are recycled), so these embedders are
                # simply not cached — entries under throwaway
                # namespaces would only pollute the shared LRU
                return None
            if known is None:
                base = requested or type(embedder).__name__
                known = f"{base}~{next(_NAMESPACE_SERIAL)}"
                self._names[embedder] = known
        return f"{known}|g{generation}"


def _localize_overflow(ids: np.ndarray, fps: list[str]) -> np.ndarray:
    """Rewrite -1 ids ("no intern slot") to batch-local negative ids.

    Equal fingerprints get equal local ids, so dedup within the batch
    still collapses them; the ids stay negative, so the matrix cache
    treats them as always-miss and never stores them.
    """
    ids = ids.copy()
    local: dict[str, int] = {}
    for i in np.flatnonzero(ids < 0):
        fp = fps[i]
        fid = local.get(fp)
        if fid is None:
            fid = local[fp] = -2 - len(local)
        ids[i] = fid
    return ids


def embed_queries(
    embedder: "QueryEmbedder",
    queries: Sequence[str],
    runtime: InferencePipeline | None = None,
    embedder_name: str = "",
) -> np.ndarray:
    """Embed through the shared pipeline when one is wired, else direct.

    Lets applications opt into the cached/deduplicated path with a
    single optional constructor argument.
    """
    if runtime is not None:
        return runtime.embed(embedder, queries, embedder_name=embedder_name)
    return embedder.transform(queries)
