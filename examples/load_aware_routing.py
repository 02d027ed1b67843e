"""Load-aware routing: placement follows backend feedback, not labels.

One application, two backends: ``DB(alpha)`` is a slow remote engine
(2ms per query behind a latency proxy), ``DB(beta)`` a fast one. The
static route table pins 80% of the predicted label space to the slow
backend — the paper's fixed label→DB(X) arrow. A
``LatencyEwmaPolicy`` then re-ranks both candidates per batch on their
observed per-query latency, drains the hot labels onto the fast
backend, and the p95 per-batch latency drops while the labels stay
byte-identical. ``stats()["routing"]`` shows the policy's decisions
and each backend's live load signal.

``LeastLoadedPolicy`` is shown for contrast: it ranks on in-flight +
queued depth, which only differentiates while work is actually in
flight (the staged executor's overlapped dispatch, admission-gated
backends). In this serial loop every gate is idle at rank time, so the
depths tie and the name order decides — depth policies want live
concurrency; latency policies work anywhere.

Run:  PYTHONPATH=src python examples/load_aware_routing.py
"""

import time

from repro import QuercService
from repro.backends import (
    LatencyEwmaPolicy,
    LatencyProxyBackend,
    LeastLoadedPolicy,
    NullBackend,
)
from repro.core import QueryClassifier
from repro.core.labeler import ClassifierLabeler
from repro.embedding import BagOfTokensEmbedder
from repro.ml.forest import RandomizedForestClassifier
from repro.sql.normalizer import template_fingerprint
from repro.workloads import (
    QueryLogRecord,
    QueryStream,
    SnowSimConfig,
    generate_snowsim_workload,
)

N_LABELS = 5  # predicted cluster 0..4; 0-3 statically pin the slow backend


def train_classifier(queries):
    """Deterministic route-label model (cluster = f(fingerprint))."""
    embedder = BagOfTokensEmbedder(dimension=48, min_count=1, seed=7).fit(queries)
    labels = [int(template_fingerprint(q)[:8], 16) % N_LABELS for q in queries]
    labeler = ClassifierLabeler(
        RandomizedForestClassifier(n_trees=32, max_depth=10, seed=1)
    )
    labeler.fit(embedder.transform(queries), labels)
    return QueryClassifier("cluster", embedder, labeler, embedder_name="bow-route")


def build_service(classifier, policy=None):
    service = QuercService()
    for name, per_query in (("DB(alpha)", 0.002), ("DB(beta)", 0.0002)):
        service.register_backend(
            LatencyProxyBackend(
                NullBackend(f"{name}-engine"),
                per_batch_seconds=0.002,
                per_query_seconds=per_query,
                name=name,
            )
        )
    service.add_application("X", backend="DB(alpha)")
    service.attach_classifier("X", classifier)
    for label in range(N_LABELS - 1):
        service.map_route(label, "DB(alpha)")  # the skewed static table
    service.map_route(N_LABELS - 1, "DB(beta)")
    if policy is not None:
        service.set_routing_policy(policy)
    return service


def run(service, batches):
    timings = []
    for batch in batches:
        start = time.perf_counter()
        service.process_routed(batch)
        timings.append(time.perf_counter() - start)
    return timings


def p95(timings):
    ordered = sorted(timings)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def main() -> None:
    records = generate_snowsim_workload(SnowSimConfig(total_queries=700, seed=17))
    classifier = train_classifier([r.query for r in records[:200]])
    serve = [QueryLogRecord(query=r.query) for r in records[200:]]
    batches = list(QueryStream("X", serve, batch_size=16).batches())

    for title, policy in (
        ("static label map", None),
        ("latency-EWMA policy", LatencyEwmaPolicy()),
        ("least-loaded policy", LeastLoadedPolicy()),
    ):
        service = build_service(classifier, policy=policy)
        timings = run(service, batches)
        stats = service.stats()
        service.close()
        placed = {
            name: backend["dispatched"]
            for name, backend in stats["backends"].items()
        }
        print(f"{title:<22} p95 {p95(timings) * 1e3:6.1f}ms   placed {placed}")
        routing = stats["routing"]
        if routing["policy"]["name"] != "static":
            signals = {
                name: (
                    f"{signal['latency_ewma_seconds'] * 1e3:.2f}ms/q"
                    if signal["latency_ewma_seconds"] is not None
                    else "unmeasured"
                )
                for name, signal in sorted(routing["signals"].items())
            }
            print(
                f"{'':<22} reranks {routing['reranks']}, "
                f"static fallbacks {routing['static_fallbacks']}, "
                f"signals {signals}"
            )


if __name__ == "__main__":
    main()
