"""The serving tier end to end: equivalence, backpressure, edge sheds.

Three contracts, each against a real ``QuercServer`` on a loopback
socket with real MiniDB backends behind latency proxies (injected
no-op sleep — nothing in here waits on wall clock):

* **byte-identical equivalence** — a fleet of asyncio clients
  submitting interleaved multi-tenant batches gets, frame for frame,
  exactly the wire bytes the library's ``process_routed_concurrent``
  would serialize for the same batches: the network tier adds
  transport, never drift;
* **bounded-bridge backpressure** — with a deliberately starved stage
  pool (depth 1, one worker per stage) and small per-session windows,
  pipelined clients must all complete correctly: the bridge parks
  coroutines, not threads, and loses no wakeups;
* **edge admission** — a shed frame is answered ``SERVER_BUSY``
  *before* it consumes anything: no executor lane, no backend
  ``execute``, no admission slot. Verified against a counting backend
  and the executor's own stats, including the token-bucket rate gate
  driven by a fake clock.

Every test runs under ``run_async`` (conftest): leaked asyncio tasks
or pool threads fail the test.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from fake_clock import FakeClock

from repro.backends import (
    BatchResult,
    LatencyProxyBackend,
    MiniDBBackend,
    NullBackend,
    QueryOutcome,
)
from repro.core import QuercService, QueryClassifier
from repro.core.labeler import ClassifierLabeler
from repro.errors import ServerReplyError
from repro.minidb import materialize_log_tables
from repro.ml.forest import RandomizedForestClassifier
from repro.server import (
    AsyncQuercClient,
    EdgeAdmission,
    QuercClient,
    QuercServer,
    ServerThread,
)
from repro.server.protocol import jsonable, labeled_to_wire, report_to_wire
from repro.sql.normalizer import template_fingerprint
from repro.workloads import QueryLogRecord, StreamBatch

APPS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
LABELS = ("cluster", "tier")
BATCH = 5
BATCHES_PER_APP = 4


class CountingBackend(NullBackend):
    """Counts ``execute`` calls — the no-slot-consumed witness."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.execute_calls = 0
        self.executed_queries = 0

    def execute(self, queries):
        self.execute_calls += 1
        self.executed_queries += len(queries)
        return BatchResult(
            backend=self.name,
            outcomes=tuple(QueryOutcome(query=q, ok=True) for q in queries),
        )


# -- topology -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serving_queries(snowsim_records):
    return [r.query for r in snowsim_records[:400]]


@pytest.fixture(scope="module")
def serving_classifiers(fitted_bow, serving_queries):
    """Deterministic pre-trained classifiers (labels are a pure
    function of the template fingerprint, so both services and every
    run agree)."""
    vectors = fitted_bow.transform(serving_queries)
    fps = [template_fingerprint(q) for q in serving_queries]
    out = []
    for i, name in enumerate(LABELS):
        labels = [(int(fp[:8], 16) + i) % 4 for fp in fps]
        labeler = ClassifierLabeler(
            RandomizedForestClassifier(n_trees=6, max_depth=6, seed=i)
        )
        labeler.fit(vectors, labels)
        out.append(
            QueryClassifier(name, fitted_bow, labeler, embedder_name="bow-shared")
        )
    return out


@pytest.fixture(scope="module")
def serving_databases(serving_queries):
    return {
        "a": materialize_log_tables(serving_queries, rows_per_table=4),
        "b": materialize_log_tables(serving_queries, rows_per_table=4),
    }


def build_service(databases, embedder, classifiers) -> QuercService:
    """The two-backend multi-tenant topology, fresh per use.

    The latency proxies carry real per-batch/per-query charges but an
    injected no-op sleep — structure without wall-clock waits.
    """
    service = QuercService()
    for tag, database in databases.items():
        service.register_backend(
            LatencyProxyBackend(
                MiniDBBackend(f"DB({tag})", database),
                per_batch_seconds=0.01,
                per_query_seconds=0.002,
                sleep=lambda _s: None,
            )
        )
    service.embedders.register("bow-shared", embedder)
    backends = sorted(f"DB({tag})" for tag in databases)
    for i, app in enumerate(APPS):
        service.add_application(app, backend=backends[i % len(backends)])
        for classifier in classifiers:
            service.attach_classifier(app, classifier)
    return service


def build_batches(queries) -> list[StreamBatch]:
    """Interleaved multi-tenant batches with deterministic timestamps;
    the *same* objects drive the library run and the wire run."""
    batches = []
    step = 0
    for round_no in range(BATCHES_PER_APP):
        for app_no, app in enumerate(APPS):
            base = (round_no * len(APPS) + app_no) * BATCH
            records = tuple(
                QueryLogRecord(
                    query=queries[(base + j) % len(queries)],
                    timestamp=float(step * BATCH + j),
                )
                for j in range(BATCH)
            )
            batches.append(
                StreamBatch(application=app, time_step=step, records=records)
            )
            step += 1
    return batches


# -- byte-identical comparison ------------------------------------------------------


def canonical(labeled_wire, report_wire) -> str:
    return json.dumps(
        {"labeled": labeled_wire, "report": report_wire},
        sort_keys=True,
        separators=(",", ":"),
    )


def library_wire(result) -> str:
    """A library-path result serialized exactly as the server would."""
    labeled, report = result
    return canonical(
        jsonable([labeled_to_wire(m) for m in labeled]),
        jsonable(report_to_wire(report)),
    )


def client_wire(batch_result) -> str:
    return canonical(batch_result.labeled, batch_result.report)


# -- tests --------------------------------------------------------------------------


class TestWireEquivalence:
    def test_concurrent_sessions_match_library_path_byte_for_byte(
        self,
        serving_databases,
        serving_queries,
        fitted_bow,
        serving_classifiers,
        run_async,
    ):
        """8 asyncio clients across 4 tenants, interleaved submits: every
        result frame equals the library run's serialization of the same
        batch — which in turn equals the serial ``process_routed`` loop's
        (labels and backend outcomes, MiniDB behind both)."""
        batches = build_batches(serving_queries)
        library = build_service(
            serving_databases, fitted_bow, serving_classifiers
        )
        serial = build_service(
            serving_databases, fitted_bow, serving_classifiers
        )
        try:
            expected = [
                library_wire(r)
                for r in library.process_routed_concurrent(batches)
            ]
            assert [
                library_wire(serial.process_routed(b)) for b in batches
            ] == expected
            # the staged run placed every query exactly once
            placed = library.stats()["backends"]
            assert all(b["dispatched"] == b["admitted"] for b in placed.values())
            assert sum(b["admitted"] for b in placed.values()) == len(batches) * BATCH
        finally:
            library.close()
            serial.close()

        served = build_service(
            serving_databases, fitted_bow, serving_classifiers
        )
        n_clients = 8
        assignments: list[list[int]] = [[] for _ in range(n_clients)]
        for index, batch in enumerate(batches):
            # two clients per app, alternating — same-app batches
            # interleave across sessions
            app_no = APPS.index(batch.application)
            client_no = app_no * 2 + (index // len(APPS)) % 2
            assignments[client_no].append(index)

        async def client_flow(client_no: int, address, results: dict):
            app = APPS[client_no // 2]
            async with AsyncQuercClient(*address, application=app) as client:
                futures = []
                for index in assignments[client_no]:
                    batch = batches[index]
                    future = await client.submit_future(
                        [r.query for r in batch.records],
                        timestamps=[r.timestamp for r in batch.records],
                    )
                    futures.append((index, future))
                for index, future in futures:
                    results[index] = await future

        async def scenario():
            server = QuercServer(served)
            await server.start()
            results: dict[int, object] = {}
            try:
                await asyncio.gather(
                    *(
                        client_flow(i, server.address, results)
                        for i in range(n_clients)
                    )
                )
            finally:
                await server.stop()
            return results

        results = run_async(scenario())
        assert sorted(results) == list(range(len(batches)))
        for index, batch_result in results.items():
            assert client_wire(batch_result) == expected[index], (
                f"batch {index} drifted between wire and library"
            )
        stats = served.stats()["server"]
        assert stats["sessions"] == n_clients
        assert stats["queries"] == len(batches) * BATCH
        assert stats["frames_shed"] == 0
        served.close()

    def test_blocking_client_session_matches_library_path_byte_for_byte(
        self, serving_databases, serving_queries, fitted_bow, serving_classifiers
    ):
        """The other client: one blocking ``QuercClient`` on a
        ``ServerThread``, naming the tenant per call, one round-trip per
        batch — same frames as the library run, in submission order."""
        batches = build_batches(serving_queries)
        library = build_service(
            serving_databases, fitted_bow, serving_classifiers
        )
        try:
            expected = [
                library_wire(r) for r in library.process_routed_concurrent(batches)
            ]
        finally:
            library.close()
        served = build_service(
            serving_databases, fitted_bow, serving_classifiers
        )
        try:
            with ServerThread(QuercServer(served)) as st:
                with QuercClient(*st.address) as client:
                    results = [
                        client.run_batch(
                            [r.query for r in batch.records],
                            application=batch.application,
                            timestamps=[r.timestamp for r in batch.records],
                        )
                        for batch in batches
                    ]
            assert [client_wire(r) for r in results] == expected
            stats = served.stats()["server"]
            assert stats["sessions"] == 1
            assert stats["queries"] == len(batches) * BATCH
        finally:
            served.close()

    def test_starved_pool_small_windows_all_batches_complete(
        self,
        serving_databases,
        serving_queries,
        fitted_bow,
        serving_classifiers,
        run_async,
    ):
        """The bounded bridge under maximum contention: stage pool of
        one worker per stage, lane depth 1, per-session window 2 — six
        pipelined clients on one tenant all drain correctly."""
        service = build_service(
            serving_databases, fitted_bow, serving_classifiers
        )
        queries = serving_queries[:60]
        per_client = 6

        async def client_flow(client_no: int, address, results: list):
            async with AsyncQuercClient(
                *address, application="tenant-a"
            ) as client:
                futures = []
                for j in range(per_client):
                    base = (client_no * per_client + j) * 3
                    future = await client.submit_future(
                        [queries[(base + k) % len(queries)] for k in range(3)]
                    )
                    futures.append(future)
                for future in futures:
                    results.append(await future)

        async def scenario():
            server = QuercServer(
                service,
                queue_depth=1,
                label_workers=1,
                dispatch_workers=1,
                max_inflight_per_session=2,
            )
            await server.start()
            results: list = []
            try:
                await asyncio.gather(
                    *(
                        client_flow(i, server.address, results)
                        for i in range(6)
                    )
                )
            finally:
                await server.stop()
            return results

        results = run_async(scenario())
        assert len(results) == 6 * per_client
        for batch_result in results:
            assert len(batch_result.labeled) == 3
            assert all(
                set(LABELS) <= set(row["labels"]) for row in batch_result.labeled
            )
            assert batch_result.report["admitted"] == 3
        lanes = service.stats()["executor"]["lanes"]
        assert lanes["tenant-a"]["submitted"] == 6 * per_client
        service.close()


class TestEdgeAdmission:
    def _tiny_service(self) -> tuple[QuercService, CountingBackend]:
        service = QuercService()
        backend = CountingBackend("DB(edge)")
        service.register_backend(backend)
        service.add_application("edge-app", backend="DB(edge)")
        return service, backend

    def test_shed_frame_consumes_no_lane_and_no_backend_slot(self, run_async):
        service, backend = self._tiny_service()

        async def scenario():
            server = QuercServer(
                service, edge=EdgeAdmission(max_in_flight_queries=4)
            )
            await server.start()
            try:
                async with AsyncQuercClient(
                    *server.address, application="edge-app"
                ) as client:
                    # 8 > 4: shed whole, before anything downstream
                    with pytest.raises(ServerReplyError) as exc_info:
                        await client.run_batch(
                            [f"select {i}" for i in range(8)]
                        )
                    assert exc_info.value.code == "SERVER_BUSY"
                    assert exc_info.value.request_id == 1
                    mid_stats = server.stats()
                    # a frame the gate can take whole still flows
                    ok = await client.run_batch(
                        [f"select {i}" for i in range(3)]
                    )
                    assert len(ok.labeled) == 3
                return mid_stats
            finally:
                await server.stop()

        mid_stats = run_async(scenario())
        # at shed time: nothing reached the executor or the backend
        assert mid_stats["queries"] == 0
        assert mid_stats["queries_shed"] == 8
        assert mid_stats["frames_shed"] == 1
        assert mid_stats["edge"]["queries_shed"] == 8
        # the backend saw only the admitted 3-query frame, ever
        assert backend.execute_calls == 1
        assert backend.executed_queries == 3
        # no lane existed for the shed frame; one for the admitted one
        lanes = service.stats()["executor"]["lanes"]
        assert lanes["edge-app"]["submitted"] == 1
        # the service-level view agrees, read from the edge that shed
        stats = service.stats()["server"]
        assert stats["queries_shed"] == 8
        assert stats["queries"] == 3
        assert stats["frames_shed"] == stats["edge"]["frames_shed"] == 1
        service.close()

    def test_inflight_gate_releases_when_results_stream(self, run_async):
        service, backend = self._tiny_service()

        async def scenario():
            server = QuercServer(
                service, edge=EdgeAdmission(max_in_flight_queries=4)
            )
            await server.start()
            try:
                async with AsyncQuercClient(
                    *server.address, application="edge-app"
                ) as client:
                    # three sequential 4-query frames: each fills the
                    # gate and must release it for the next
                    for _ in range(3):
                        result = await client.run_batch(
                            [f"select {i}" for i in range(4)]
                        )
                        assert len(result.labeled) == 4
            finally:
                await server.stop()

        run_async(scenario())
        assert backend.executed_queries == 12
        assert service.stats()["server"]["frames_shed"] == 0
        service.close()

    def test_rate_gate_sheds_on_fake_clock_and_refills(self, run_async):
        service, backend = self._tiny_service()
        clock = FakeClock()

        async def scenario():
            server = QuercServer(
                service,
                edge=EdgeAdmission(
                    queries_per_second=5.0, burst=5.0, clock=clock
                ),
            )
            await server.start()
            try:
                async with AsyncQuercClient(
                    *server.address, application="edge-app"
                ) as client:
                    batch = [f"select {i}" for i in range(5)]
                    ok = await client.run_batch(batch)  # burst spent
                    assert len(ok.labeled) == 5
                    with pytest.raises(ServerReplyError) as exc_info:
                        await client.run_batch(batch)  # bucket empty
                    assert exc_info.value.code == "SERVER_BUSY"
                    clock.advance(1.0)  # 5 tokens back — no sleeping
                    again = await client.run_batch(batch)
                    assert len(again.labeled) == 5
            finally:
                await server.stop()

        run_async(scenario())
        assert backend.executed_queries == 10
        stats = service.stats()["server"]
        assert stats["frames_shed"] == 1
        assert stats["queries_shed"] == 5
        assert stats["frames_shed"] == stats["edge"]["frames_shed"]
        service.close()
