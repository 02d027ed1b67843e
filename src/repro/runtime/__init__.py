"""Vectorized inference runtime — the shared hot path under Qworkers.

The paper's Figure 1 places Qworkers on the query critical path, which
makes per-query inference cost the system's scalability ceiling. This
package is the answer: a batch :class:`InferencePipeline` that
deduplicates each batch by literal-folded template fingerprint, embeds
only cache-missing templates with **one** ``transform`` call per
distinct embedder, and fans the shared vectors out to every
classifier. Batches stay **columnar** end to end: labels are recorded
as template-granularity arrays on a :class:`ColumnarBatch` that flows
through the router and staged executor — the only path there is; a
message list is converted once at the public boundary — materializing
per-query messages once at the ``to_messages()`` boundary. A bounded
:class:`EmbeddingCache` carries template vectors across batches and
workers in id-indexed matrix lanes;
:class:`RuntimeMetrics` exposes per-stage timings, fingerprint-memo
hit rate, and dedup ratio through ``QuercService.stats()`` (the cache
hit rate there is the cache's own count).

On top of the pipeline, :class:`StagedExecutor` runs the label stage
and the route/execute stage concurrently across batches, one lane per
application (the paper's Qworker fan-out), and
:class:`BatchSizeTuner` adapts stream batch sizes to the labeling cost
those lanes actually observe.
"""

from repro.runtime.cache import EmbeddingCache
from repro.runtime.columnar import ColumnarBatch, ColumnarSlice, LabelColumn
from repro.runtime.executor import StagedExecutor
from repro.runtime.metrics import STAGES, RuntimeMetrics
from repro.runtime.pipeline import InferencePipeline, embed_queries
from repro.runtime.tuner import BatchSizeTuner

__all__ = [
    "EmbeddingCache",
    "ColumnarBatch",
    "ColumnarSlice",
    "LabelColumn",
    "RuntimeMetrics",
    "STAGES",
    "InferencePipeline",
    "embed_queries",
    "StagedExecutor",
    "BatchSizeTuner",
]
