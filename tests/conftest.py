"""Shared fixtures: small-but-real substrates, session-scoped.

Expensive artifacts (database, corpora, fitted embedders) are built
once per session; tests must not mutate them.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.embedding import (
    BagOfTokensEmbedder,
    Doc2VecEmbedder,
    LSTMAutoencoderEmbedder,
)
from repro.minidb import Database, generate_tpch_database
from repro.workloads import (
    SnowSimConfig,
    generate_snowsim_workload,
    generate_tpch_workload,
)


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A small materialized TPC-H database (virtual scale = exec scale)."""
    return generate_tpch_database(exec_scale=0.005, virtual_scale=0.005, seed=42)


@pytest.fixture(scope="session")
def tpch_workload() -> list[str]:
    return generate_tpch_workload(instances_per_template=2, seed=7)


@pytest.fixture(scope="session")
def snowsim_records():
    return generate_snowsim_workload(
        SnowSimConfig(total_queries=1200, seed=5)
    )


@pytest.fixture(scope="session")
def small_corpus() -> list[str]:
    """A tiny deterministic SQL corpus for embedder tests."""
    corpus = []
    for i in range(50):
        corpus.append(
            f"SELECT col_{i % 5}, SUM(metric_{i % 3}) FROM table_{i % 4} "
            f"WHERE col_{i % 5} > {i} GROUP BY col_{i % 5}"
        )
        corpus.append(
            f"SELECT * FROM logs_{i % 3} WHERE ts >= '2020-01-0{i % 9 + 1}' "
            f"LIMIT {i + 1}"
        )
    return corpus


@pytest.fixture(scope="session")
def fitted_doc2vec(small_corpus) -> Doc2VecEmbedder:
    return Doc2VecEmbedder(dimension=16, epochs=5, seed=1).fit(small_corpus)


@pytest.fixture(scope="session")
def fitted_bow(small_corpus, tpch_workload, snowsim_records) -> BagOfTokensEmbedder:
    """A deterministic embedder (row-independent transform), fitted on a
    mixed TPC-H + SnowSim corpus — the runtime-equivalence substrate."""
    corpus = (
        small_corpus
        + tpch_workload
        + [r.query for r in snowsim_records[:300]]
    )
    return BagOfTokensEmbedder(dimension=16, min_count=1, seed=3).fit(corpus)


@pytest.fixture(scope="session")
def fitted_lstm(small_corpus) -> LSTMAutoencoderEmbedder:
    return LSTMAutoencoderEmbedder(
        dimension=16, embed_size=12, epochs=4, batch_size=32, seed=1
    ).fit(small_corpus)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture()
def no_thread_leaks():
    """Fail the test if it leaks live worker threads.

    Snapshots ``threading.enumerate()`` before the test and asserts
    every thread born during it is gone afterwards — the hygiene
    contract for the one thing that owns a pool, the staged executor's
    stage workers (and the server thread hosting them): ``close()``
    must join its threads, not abandon daemons. Each new thread is
    joined against one shared deadline, which absorbs workers that are
    mid-exit when the test body returns.
    """
    # snapshot thread objects, not idents — the OS recycles idents, and
    # a recycled ident would mask a genuine leak
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    for thread in threading.enumerate():
        if thread not in before:
            thread.join(max(0.0, deadline - time.monotonic()))
    leaked = [t for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not leaked, (
        "test leaked worker threads (close() must join them): "
        + ", ".join(repr(t.name) for t in leaked)
    )


@pytest.fixture()
def run_async(no_thread_leaks):
    """Run a coroutine on a fresh event loop with leak hygiene.

    The serving-tier counterpart of ``no_thread_leaks`` (which it
    extends — thread checks apply too): after the coroutine finishes,
    every asyncio task spawned during the test must already be done —
    a session task or client reader still pending means some
    ``close()``/``stop()`` path abandoned it. Checked *inside* the
    loop, because ``asyncio.run`` would cancel (and so mask) the
    leftovers on its way out.
    """

    def _run(coro):
        async def _checked():
            try:
                return await coro
            finally:
                # one tick so just-finished tasks' done-callbacks run
                await asyncio.sleep(0)
                current = asyncio.current_task()
                leaked = [
                    t
                    for t in asyncio.all_tasks()
                    if t is not current and not t.done()
                ]
                assert not leaked, (
                    "test leaked asyncio tasks (stop()/close() must "
                    "await them): "
                    + ", ".join(repr(t.get_name()) for t in leaked)
                )

        return asyncio.run(_checked())

    return _run
