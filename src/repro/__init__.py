"""Reproduction of *Database-Agnostic Workload Management* (CIDR 2019).

Public API surface:

* ``repro.core`` — the Querc service (classifiers, workers, training).
* ``repro.runtime`` — the vectorized inference hot path: template
  dedup, shared-embedding batches, and a bounded embedding cache.
* ``repro.embedding`` — Doc2Vec / LSTM-autoencoder / bag-of-tokens
  query embedders, from scratch in numpy.
* ``repro.apps`` — the paper's applications (summarization, security
  auditing, routing, error prediction, resources, recommendation).
* ``repro.backends`` — the databases behind the ``query(X, t)``
  arrows: backend adapters, per-backend admission control, and the
  prediction-driven batch router.
* ``repro.minidb`` — the cost-based engine + index advisor substrate.
* ``repro.workloads`` — TPC-H and SnowSim workload generators.
* ``repro.experiments`` — one module per table/figure in the paper.

Quickstart::

    from repro import Doc2VecEmbedder, QuercService
    from repro.workloads import generate_snowsim_workload

    records = generate_snowsim_workload()
    embedder = Doc2VecEmbedder(dimension=64).fit([r.query for r in records])
    service = QuercService()
    service.embedders.register("shared", embedder)
    app = service.add_application("X")
    service.import_logs("X", records)
    service.train_and_deploy("X", label_name="account", embedder_name="shared")
"""

from repro.backends import (
    BackendRegistry,
    BatchRouter,
    CostBudgetPolicy,
    LatencyEwmaPolicy,
    LeastLoadedPolicy,
    MiniDBBackend,
    RoutingPolicy,
    SpillPolicy,
)
from repro.core import (
    LabeledQuery,
    QueryClassifier,
    QuercService,
    QWorker,
    TrainingModule,
)
from repro.embedding import (
    BagOfTokensEmbedder,
    Doc2VecEmbedder,
    LSTMAutoencoderEmbedder,
    QueryEmbedder,
)
from repro.errors import ReproError
from repro.runtime import (
    BatchSizeTuner,
    EmbeddingCache,
    InferencePipeline,
    RuntimeMetrics,
    StagedExecutor,
)

__version__ = "1.2.0"

__all__ = [
    "BackendRegistry",
    "BatchRouter",
    "CostBudgetPolicy",
    "LatencyEwmaPolicy",
    "LeastLoadedPolicy",
    "MiniDBBackend",
    "RoutingPolicy",
    "SpillPolicy",
    "LabeledQuery",
    "QueryClassifier",
    "QuercService",
    "QWorker",
    "TrainingModule",
    "QueryEmbedder",
    "Doc2VecEmbedder",
    "LSTMAutoencoderEmbedder",
    "BagOfTokensEmbedder",
    "InferencePipeline",
    "EmbeddingCache",
    "RuntimeMetrics",
    "StagedExecutor",
    "BatchSizeTuner",
    "ReproError",
    "__version__",
]
