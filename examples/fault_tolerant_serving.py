"""Fault-tolerant serving: the primary dies, the stream doesn't notice.

Same prediction-driven dispatch as ``backend_routing.py``, but the
primary database now sits behind a ``ScheduledOutage`` wrapper
running a scripted outage — a hard blackout followed by a flapping
link, all on a logical clock that ticks once per batch. The binding is
registered with a :class:`RetryPolicy` (transient bursts get
re-executed), a :class:`CircuitBreaker` (repeated failures stop being
offered work until a recovery probe succeeds), and the healthy
``standby`` as its failover candidate.

The outcome to look for: **zero batches raise**. During the blackout
the breaker opens after two failed batches and everything short-
circuits to the standby without touching the dead primary; once the
schedule heals, a half-open probe closes the breaker and traffic
returns. ``stats()["resilience"]`` shows the whole story — retries,
failovers, breaker transitions — and the per-backend counters keep
their invariant (dispatched == admitted + rejected + queued + spilled
+ queue_evicted) through all of it.

Run:  PYTHONPATH=src python examples/fault_tolerant_serving.py
"""

from repro import MiniDBBackend, QuercService
from repro.apps.routing import RoutingPolicyAuditor
from repro.backends import Backend, CircuitBreaker, RetryPolicy
from repro.embedding import BagOfTokensEmbedder
from repro.errors import BackendError
from repro.minidb import materialize_log_tables
from repro.workloads import QueryStream, SnowSimConfig, generate_snowsim_workload


def primary_down(t: float) -> bool:
    """Dead for batches t=4..15, then down/up alternating one-batch
    phases until t=26."""
    return 4 <= t < 16 or (16 <= t < 26 and (t - 16) % 2 < 1)


class LogicalClock:
    """Batch index as time — the chaos schedule is deterministic."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class ScheduledOutage(Backend):
    """Raises whenever ``down(clock())``; otherwise the inner backend."""

    def __init__(self, inner: Backend, down, clock) -> None:
        super().__init__(inner.name)
        self.inner, self.down, self.clock = inner, down, clock

    def execute(self, queries):
        return self.execute_templated(queries)

    def execute_templated(self, queries, template_ids=None):
        if self.down(self.clock()):
            raise BackendError(f"backend {self.name!r}: scheduled outage")
        return self.inner.execute_templated(queries, template_ids)


def main() -> None:
    records = generate_snowsim_workload(SnowSimConfig(total_queries=2400, seed=9))
    train, serve = records[:1600], records[1600:]
    database = materialize_log_tables([r.query for r in records], rows_per_table=96)

    embedder = BagOfTokensEmbedder(dimension=64).fit([r.query for r in train])
    auditor = RoutingPolicyAuditor(embedder, n_trees=16, seed=0).fit(train)

    clock = LogicalClock()
    service = QuercService()
    service.register_backend(
        ScheduledOutage(MiniDBBackend("primary", database), primary_down, clock),
        fallback="standby",
        retry=RetryPolicy(
            max_attempts=2,
            base_delay=0.0,
            clock=clock,
            sleep=lambda _s: None,  # logical time only — no real sleeps
        ),
        breaker=CircuitBreaker(
            failure_threshold=2, recovery_seconds=3.0, clock=clock
        ),
    )
    service.register_backend(MiniDBBackend("standby", database))
    for cluster in ("cluster_us_east", "cluster_us_west", "cluster_eu", "cluster_ap"):
        service.map_route(cluster, "primary")
    service.add_application("X", backend="primary")
    service.attach_classifier("X", auditor.to_classifier("cluster"))

    raised = executed = 0
    for batch in QueryStream("X", serve, batch_size=32).batches():
        clock.now = float(batch.time_step)
        try:
            _, report = service.process_routed(batch)
        except Exception as exc:  # noqa: BLE001 - would mean resilience failed
            raised += 1
            print(f"t={batch.time_step}: RAISED {exc!r}")
            continue
        executed += report.executed_ok
        if batch.time_step in (3, 4, 5, 16, 26):
            placed: dict[str, int] = {}
            for d in report.decisions:
                placed[d.backend] = placed.get(d.backend, 0) + d.admitted
            print(
                f"t={batch.time_step:>2}: executed_ok={report.executed_ok:>2} "
                f"admitted {placed}"
            )

    stats = service.stats()
    service.close()
    res = stats["resilience"]
    print(
        f"\nbatches raised: {raised}   queries executed ok: {executed}\n"
        f"retries {res['retries']}, failovers {res['failovers']}, "
        f"queue evictions {res['queue_evicted']}"
    )
    breaker = res["backends"]["primary"]["breaker"]
    print(
        f"primary breaker: state={breaker['state']} opens={breaker['opens']} "
        f"half_opens={breaker['half_opens']} closes={breaker['closes']}"
    )
    for name, counters in sorted(stats["backends"].items()):
        print(
            f"{name}: dispatched={counters['dispatched']} "
            f"admitted={counters['admitted']} spilled={counters['spilled']} "
            f"executed_ok={counters['executed_ok']} failed={counters['failed']}"
        )


if __name__ == "__main__":
    main()
