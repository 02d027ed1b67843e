"""Concurrent staged serving: the Qworker fan-out.

Two tenants (X on SnowSim logs, Y on a TPC-H stream) share one
service. Their interleaved fixed-size batches flow through
``process_routed_concurrent``: one lane per application, the
embed/predict stage of batch *n+1* overlapped with the route/execute
stage of batch *n*. The backends sit behind a
``LatencyProxyBackend`` simulating a remote database — the wall time
the staged executor reclaims.

Run:  PYTHONPATH=src python examples/concurrent_serving.py
"""

import time

from repro import MiniDBBackend, QuercService
from repro.apps.routing import RoutingPolicyAuditor
from repro.backends import LatencyProxyBackend
from repro.embedding import BagOfTokensEmbedder
from repro.minidb import materialize_log_tables
from repro.workloads import (
    QueryLogRecord,
    QueryStream,
    SnowSimConfig,
    generate_snowsim_workload,
    generate_tpch_workload,
    interleave_streams,
)


def main() -> None:
    snow = generate_snowsim_workload(SnowSimConfig(total_queries=1200, seed=9))
    train, serve = snow[:800], snow[800:]
    tpch = [
        QueryLogRecord(query=q)
        for q in generate_tpch_workload(instances_per_template=19, seed=3)[:400]
    ]

    database = materialize_log_tables(
        [r.query for r in snow] + [r.query for r in tpch], rows_per_table=32
    )

    embedder = BagOfTokensEmbedder(dimension=64).fit([r.query for r in train])
    auditor = RoutingPolicyAuditor(embedder, n_trees=16, seed=0).fit(train)

    service = QuercService()
    for name in ("DB(X)", "DB(Y)"):
        # a remote database: every execute pays a simulated round-trip
        service.register_backend(
            LatencyProxyBackend(
                MiniDBBackend(name, database),
                per_batch_seconds=0.005,
                per_query_seconds=0.002,
            )
        )
    service.add_application("X", backend="DB(X)")
    service.add_application("Y", backend="DB(Y)")
    service.attach_classifier("X", auditor.to_classifier("cluster"))

    streams = [
        QueryStream("X", serve, batch_size=32),
        QueryStream("Y", tpch, batch_size=32),
    ]
    # hand the generator straight through: the lanes consume it under
    # backpressure, so the stream is never materialized ahead of them
    batches = interleave_streams(streams)

    start = time.perf_counter()
    results = service.process_routed_concurrent(batches)
    wall = time.perf_counter() - start

    queries = sum(len(labeled) for labeled, _ in results)
    print(f"{queries} queries in {len(results)} batches: {wall:.2f}s "
          f"({queries / wall:.0f} q/s)")

    stats = service.stats()
    for app, lane in stats["executor"]["lanes"].items():
        print(
            f"lane {app}: {lane['labeled_batches']} batches, "
            f"label {lane['label_seconds']:.2f}s, "
            f"dispatch {lane['dispatch_seconds']:.2f}s"
        )
    print(f"overlap: {stats['executor']['overlap']:.2f} "
          "(lane-busy seconds / wall seconds; >1 means stages ran concurrently)")


if __name__ == "__main__":
    main()
