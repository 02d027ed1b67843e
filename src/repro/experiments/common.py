"""Shared builders for the experiment modules.

Figures 3/4 share the database/workload/advisor stack; Tables 1/2 share
the SnowSim corpora and embedders. Everything is deterministic given
the scale preset.
"""

from __future__ import annotations

import functools

from repro.apps.summarization import WorkloadSummarizer
from repro.embedding import Doc2VecEmbedder, LSTMAutoencoderEmbedder, QueryEmbedder
from repro.experiments.config import (
    ExperimentScale,
    SECONDS_PER_COST_UNIT,
)
from repro.minidb import Database, IndexAdvisor, IndexConfig, generate_tpch_database
from repro.workloads import (
    SnowSimConfig,
    generate_snowsim_workload,
    generate_tpch_workload,
)
from repro.workloads.logs import QueryLogRecord

# the full-paper workload is 38 instances x 22 templates
PAPER_INSTANCES_PER_TEMPLATE = 38


def build_database(scale: ExperimentScale) -> Database:
    return generate_tpch_database(
        exec_scale=scale.tpch_exec_scale,
        virtual_scale=scale.tpch_virtual_scale,
        seed=scale.seed,
    )


def build_workload(scale: ExperimentScale) -> list[str]:
    return generate_tpch_workload(
        instances_per_template=scale.tpch_instances_per_template,
        seed=7,
    )


def build_advisor(db: Database) -> IndexAdvisor:
    return IndexAdvisor(db)


def billing_multiplier(scale: ExperimentScale) -> float:
    """Scale advisor billing so a reduced workload *simulates* the
    paper-sized one (the advisor's simulated time must reflect 838
    queries even when the quick preset materializes fewer)."""
    return PAPER_INSTANCES_PER_TEMPLATE / scale.tpch_instances_per_template


def runtime_seconds(
    db: Database,
    workload: list[str],
    config: IndexConfig,
    scale: ExperimentScale,
    cache: dict[str, float] | None = None,
) -> float:
    """Total workload runtime (seconds) under ``config``.

    Every query truly executes; costs come from the executor's
    true-count accounting, calibrated to seconds and normalized to the
    paper-sized workload so presets are comparable.
    """
    if cache is not None and config.fingerprint() in cache:
        return cache[config.fingerprint()]
    total_units = sum(db.execute(sql, config).actual_cost for sql in workload)
    seconds = total_units * SECONDS_PER_COST_UNIT * billing_multiplier(scale)
    if cache is not None:
        cache[config.fingerprint()] = seconds
    return seconds


def per_query_runtimes(
    db: Database, workload: list[str], config: IndexConfig
) -> list[float]:
    """Per-query runtimes in seconds (not workload-normalized)."""
    return [
        db.execute(sql, config).actual_cost * SECONDS_PER_COST_UNIT
        for sql in workload
    ]


# -- embedders -----------------------------------------------------------------


def snowsim_records(scale: ExperimentScale, which: str) -> list[QueryLogRecord]:
    """SnowSim corpora: 'pretrain' (embedder training) and 'labeled'
    (classifier data) are disjoint generations, as in §5.2's setup."""
    if which == "pretrain":
        config = SnowSimConfig(total_queries=scale.snowsim_pretrain_queries, seed=111)
    elif which == "labeled":
        config = SnowSimConfig(total_queries=scale.snowsim_labeled_queries, seed=222)
    else:
        raise ValueError(f"unknown corpus {which!r}")
    # both corpora share schema_seed (the default): same service, two logs
    return generate_snowsim_workload(config)


def make_doc2vec(scale: ExperimentScale, seed: int = 1) -> Doc2VecEmbedder:
    return Doc2VecEmbedder(
        dimension=scale.embedding_dim,
        epochs=scale.d2v_epochs,
        seed=seed,
    )


def make_lstm(scale: ExperimentScale, seed: int = 1) -> LSTMAutoencoderEmbedder:
    return LSTMAutoencoderEmbedder(
        dimension=scale.embedding_dim,
        embed_size=max(16, scale.embedding_dim // 2),
        epochs=scale.lstm_epochs,
        seed=seed,
    )


@functools.cache
def pretrained_embedder(scale: ExperimentScale, kind: str) -> QueryEmbedder:
    """The ``"doc2vec"`` or ``"lstm"`` embedder fitted on the SnowSim
    'pretrain' corpus, once per process and scale. Callers only
    ``transform`` it, a pure function of the fitted state (Doc2Vec
    reseeds its inference per call), so sharing it changes no result."""
    make = {"doc2vec": make_doc2vec, "lstm": make_lstm}[kind]
    return make(scale).fit([r.query for r in snowsim_records(scale, "pretrain")])


def train_figure3_embedders(
    scale: ExperimentScale, tpch_workload: list[str]
) -> dict[str, QueryEmbedder]:
    """The four embedders of Figure 3: two methods x two training sets.

    The Snowflake-trained pair demonstrates transfer learning — trained
    on a completely unrelated workload, then applied to TPC-H.
    """
    return {
        "doc2vecTPCH": make_doc2vec(scale).fit(tpch_workload),
        "lstmTPCH": make_lstm(scale).fit(tpch_workload),
        "doc2vecSnowflake": pretrained_embedder(scale, "doc2vec"),
        "lstmSnowflake": pretrained_embedder(scale, "lstm"),
    }


def summarize_workload(
    embedder: QueryEmbedder, workload: list[str], scale: ExperimentScale
) -> list[str]:
    summarizer = WorkloadSummarizer(
        embedder, k_range=scale.summarizer_k_range, seed=scale.seed
    )
    return list(summarizer.summarize(workload).queries)
