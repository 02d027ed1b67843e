"""QuercService: the Figure 1 topology.

Applications (X, Y, Z) each get a Qworker; embedders are shared through
the registry subject to the log-sharing policy; every worker forks its
labeled batches to the central training module; the model registry
deploys trained classifiers back. ``process`` routes an incoming
:class:`~repro.workloads.stream.StreamBatch` to its application's
worker — the ``query(X, t)`` arrows — and the worker's labeled output
flows through the :class:`~repro.backends.router.BatchRouter` onto the
registered backends, the ``DB(X)``/``DB(Y)``/``DB(Z)`` boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import Backend
from repro.backends.policy import RoutingPolicy
from repro.backends.router import (
    BackendBinding,
    BackendRegistry,
    BatchRouter,
    DispatchReport,
)
from repro.core.classifier import QueryClassifier
from repro.core.deployment import DeployedModel, ModelRegistry
from repro.core.embedder import EmbedderRegistry
from repro.core.labeled_query import LabeledQuery
from repro.core.qworker import QWorker
from repro.core.training import TrainingModule
from repro.errors import ServiceError
from repro.runtime.cache import EmbeddingCache
from repro.runtime.executor import StagedExecutor
from repro.runtime.pipeline import InferencePipeline
from repro.runtime.tuner import BatchSizeTuner
from repro.server.edge import EDGE_SHEDS
from repro.workloads.logs import QueryLogRecord
from repro.workloads.stream import StreamBatch


@dataclass
class Application:
    """One tenant application and its worker.

    ``binding`` is the application's *default* backend — where its
    queries land when no route-table entry claims their predicted
    label. ``database`` stays the human-readable name of that binding
    (or a bare placeholder string when the application is unbound).
    """

    name: str
    worker: QWorker
    database: str = ""  # logical backing database, e.g. "DB(X)"
    binding: BackendBinding | None = None
    labels_from_logs: tuple[str, ...] = ("user", "account", "cluster")

    @property
    def is_bound(self) -> bool:
        return self.binding is not None


class QuercService:
    """Top-level service object users interact with."""

    def __init__(
        self,
        n_folds: int = 10,
        seed: int = 0,
        cache_capacity: int = 4096,
        route_label: str = "cluster",
    ) -> None:
        self.embedders = EmbedderRegistry()
        self.training = TrainingModule(n_folds=n_folds, seed=seed)
        self.registry = ModelRegistry()
        # one pipeline for the whole service: embedders are shared
        # across applications, so their template-vector cache is too
        self.runtime = InferencePipeline(
            cache=EmbeddingCache(capacity=cache_capacity)
        )
        # the backend layer: router stages report into the same
        # RuntimeMetrics as the inference pipeline, so stats() shows
        # the whole critical path (fingerprint ... predict, route,
        # execute) in one place
        self.backends = BackendRegistry()
        self.router = BatchRouter(
            self.backends,
            route_label=route_label,
            metrics=self.runtime.metrics,
        )
        self._applications: dict[str, Application] = {}
        # concurrent serving state: the tuner adapts stream batch
        # sizes off observed labeling cost; the last staged run's
        # stats are kept for stats()
        self._tuner: BatchSizeTuner | None = None
        self._last_executor_stats: dict | None = None
        # the serving tier (repro.server.QuercServer) registers itself
        # here so stats() carries a "server" section
        self._server = None
        # predictive provisioning: a repro.forecast.PredictiveProvisioner
        # observing the dispatch-feedback path and re-planning on its
        # interval; stats()["forecast"] publishes its blueprint diffs
        self._provisioner = None

    # -- topology -----------------------------------------------------------------

    def add_application(
        self,
        name: str,
        database: str = "",
        forward_to_database: bool = True,
        window_size: int = 64,
        backend: str = "",
    ) -> Application:
        """Register an application; creates its Qworker wired to training.

        ``backend`` optionally names an already-registered backend to
        bind as the application's default database (see
        :meth:`bind_application`); ``database`` remains the purely
        descriptive label used when no backend is bound.
        """
        if name in self._applications:
            raise ServiceError(f"application {name!r} already exists")
        worker = QWorker(
            application=name,
            window_size=window_size,
            forward_to_database=forward_to_database,
            pipeline=self.runtime,
        )
        worker.add_sink(self.training.ingest)
        app = Application(name=name, worker=worker, database=database or f"DB({name})")
        self._applications[name] = app
        if backend:
            self.bind_application(name, backend)
        return app

    # -- backend layer ------------------------------------------------------------

    def register_backend(self, backend: Backend, **options) -> BackendBinding:
        """Register a database behind per-backend admission control.

        ``options`` are :class:`~repro.backends.router.BackendBinding`'s
        (admission limits, spill policy, queue bounds, and the
        ``retry`` / ``breaker`` resilience layer —
        :mod:`repro.backends.resilience`: bounded re-execution of
        wholesale failures, circuit breaking, and failover to a healthy
        sibling).
        """
        return self.backends.register(backend, **options)

    def bind_application(self, application: str, backend_name: str) -> Application:
        """Make ``backend_name`` the application's default database and
        wire the worker's database-bound path through the router."""
        app = self.application(application)
        binding = self.backends.get(backend_name)  # raises if unknown
        app.binding = binding
        app.database = binding.name
        app.worker.set_dispatcher(
            lambda labeled, _name=app.name, _default=binding.name: (
                self.router.dispatch(_name, labeled, default=_default)
            )
        )
        return app

    def map_route(self, label_value, backend_name: str) -> None:
        """Route a predicted label value (e.g. a cluster) to a backend."""
        self.router.set_route(label_value, backend_name)

    def set_routing_policy(
        self,
        policy: "RoutingPolicy | None",
        candidates: dict | None = None,
    ) -> "RoutingPolicy | None":
        """Install a load-aware :class:`~repro.backends.policy.RoutingPolicy`.

        With a policy installed, the router re-ranks each predicted
        label's candidate backends per batch against their live load
        signals (EWMA execute latency, admission rejection rate,
        in-flight and queue depth) instead of following the static
        ``map_route`` table; the table and the application's default
        backend remain the fallback whenever the policy abstains.

        ``candidates`` optionally maps label values to the backend
        names the policy may choose between for that label (every
        registered backend otherwise). Pass ``policy=None`` to go back
        to static routing. The policy's decisions are visible in
        ``stats()["routing"]``.
        """
        self.router.set_policy(policy)
        if candidates:
            for label_value, names in candidates.items():
                self.router.set_candidates(label_value, names)
        return policy

    def application(self, name: str) -> Application:
        try:
            return self._applications[name]
        except KeyError:
            raise ServiceError(f"unknown application {name!r}") from None

    def application_names(self) -> list[str]:
        return sorted(self._applications)

    # -- classifier lifecycle ---------------------------------------------------------

    def attach_classifier(
        self, application: str, classifier: QueryClassifier
    ) -> None:
        """Attach a pre-trained classifier, enforcing log-sharing policy."""
        app = self.application(application)
        if classifier.embedder_name in self.embedders.names():
            if not self.embedders.may_serve(classifier.embedder_name, application):
                raise ServiceError(
                    f"embedder {classifier.embedder_name!r} was not trained "
                    f"on {application!r}'s data and sharing is not permitted"
                )
        app.worker.add_classifier(classifier)

    def train_and_deploy(
        self,
        application: str,
        label_name: str,
        embedder_name: str,
        training_set_name: str | None = None,
        estimator_factory=None,
    ) -> DeployedModel:
        """Batch-train a labeler and hot-deploy it to the worker."""
        app = self.application(application)
        embedder = self.embedders.get(embedder_name)
        if not self.embedders.may_serve(embedder_name, application):
            raise ServiceError(
                f"embedder {embedder_name!r} may not serve {application!r}"
            )
        training_set = self.training.training_set(
            training_set_name or application
        )
        classifier, evaluation = self.training.train_classifier(
            label_name=label_name,
            embedder=embedder,
            training_set=training_set,
            estimator_factory=estimator_factory,
            embedder_name=embedder_name,
        )
        return self.registry.deploy(
            app.worker,
            classifier,
            mean_accuracy=evaluation.mean_accuracy if evaluation else None,
        )

    # -- stream processing --------------------------------------------------------------

    def process(self, batch: StreamBatch) -> list[LabeledQuery]:
        """Route one stream batch to its application's worker.

        When the application is bound to a backend, the labeled batch
        also flows through the router onto the databases (see
        :meth:`process_routed` for the dispatch report).
        """
        labeled, _ = self.process_routed(batch)
        return labeled

    def process_routed(
        self, batch: StreamBatch
    ) -> tuple[list[LabeledQuery], DispatchReport | None]:
        """Label one stream batch and dispatch it to the backends.

        Returns the labeled batch plus the router's
        :class:`~repro.backends.router.DispatchReport` — ``None`` when
        the application is unbound or in forked (non-forwarding) mode.
        Runs the staged executor's two stages inline, so the serial
        and the concurrent entry points cannot diverge.
        """
        application = batch.application
        return self._stage_dispatch(
            application, self._stage_label(application, batch)
        )

    # -- concurrent stream processing ---------------------------------------------

    def set_batch_tuner(self, tuner: BatchSizeTuner | None) -> BatchSizeTuner | None:
        """Attach a :class:`BatchSizeTuner`; the staged executor feeds
        it per-batch labeling observations and the stream layer can ask
        it for sizes (``repro.workloads.stream.rebatch_streams``)."""
        self._tuner = tuner
        return tuner

    @property
    def batch_tuner(self) -> BatchSizeTuner | None:
        return self._tuner

    def set_provisioner(self, provisioner):
        """Attach a :class:`~repro.forecast.PredictiveProvisioner`.

        The provisioner observes every staged dispatch completion
        (arrival counts + route-label mix per tenant) and, on its
        planning interval, emits a blueprint diff — current vs
        recommended ``label_workers``/``dispatch_workers``, per-backend
        admission knobs, and per-label candidate sets — via
        ``stats()["forecast"]``. With ``auto_apply`` it enacts the diff
        live through ``StagedExecutor.resize``,
        ``AdmissionController.resize``, and router candidate updates.
        It is bound to the backend registry and router immediately and
        to each staged executor as :meth:`create_staged_executor`
        builds one. Pass ``None`` to detach.
        """
        self._provisioner = provisioner
        if provisioner is not None:
            provisioner.bind(registry=self.backends, router=self.router)
        return provisioner

    @property
    def provisioner(self):
        return self._provisioner

    def process_routed_concurrent(
        self,
        batches: "Iterable[StreamBatch]",
        queue_depth: int = 4,
        label_workers: int = 2,
        dispatch_workers: int = 4,
    ) -> "list[tuple[list[LabeledQuery], DispatchReport | None]]":
        """Label and dispatch a run of stream batches concurrently.

        The staged equivalent of calling :meth:`process_routed` in a
        loop: batches flow through a
        :class:`~repro.runtime.executor.StagedExecutor` whose shared
        stage pool (``label_workers`` embed/predict threads,
        ``dispatch_workers`` route/execute threads) serves one
        lightweight lane per application, so the embed/predict stage
        of batch *n+1* overlaps the route/execute stage of batch *n*,
        and one tenant's slow embedder cannot stall another tenant's
        stream. The thread budget is the pool size — independent of
        how many applications the batches span — and per-application
        ordering (and therefore labels and backend outcomes) is
        identical to the serial loop.

        ``batches`` is consumed lazily under the lanes' backpressure —
        hand it the generator from
        :func:`~repro.workloads.stream.rebatch_streams` and the
        tuner's observations from early batches re-size the later
        ones while the stream is still being consumed.

        Returns one ``(labeled, report)`` pair per input batch, in
        input order. The first batch failure is re-raised — but unlike
        the serial loop, which stops at the failing batch, the
        already-submitted work is drained first, so later batches
        still reach the training sinks and backends before the error
        surfaces. The executor's stats land in ``stats()["executor"]``
        either way.
        """
        executor = self.create_staged_executor(
            queue_depth=queue_depth,
            label_workers=label_workers,
            dispatch_workers=dispatch_workers,
        )
        try:
            return executor.map(batches)
        finally:
            # drain first, snapshot second: on a failed run the
            # in-flight batches still land before the stats do
            executor.close()
            self._last_executor_stats = executor.stats()

    def create_staged_executor(
        self,
        queue_depth: int = 4,
        label_workers: int = 2,
        dispatch_workers: int = 4,
    ) -> StagedExecutor:
        """A stage-pool executor wired to this service's two stages.

        The same construction :meth:`process_routed_concurrent` uses —
        label via :meth:`_stage_label`, dispatch via
        :meth:`_stage_dispatch`, tuner feedback closed over dispatch
        reports — but handed to the caller to own. The serving tier
        (:class:`repro.server.QuercServer`) builds its long-lived
        executor through here, so a network batch takes *exactly* the
        library path. The caller must ``close()`` it.
        """
        tuner = self._tuner
        provisioner = self._provisioner
        feedback = None
        if tuner is not None or provisioner is not None:
            # close the admission loop: every dispatch report's
            # offered/admitted shortfall shrinks that tenant's batches;
            # resilience churn (retries, failovers) shrinks them too —
            # a flaky backend gets cheaper groups to re-run. The
            # provisioner rides the same completions: it observes each
            # tenant's arrivals + label mix and replans on its interval
            def feedback(application: str, result):
                if provisioner is not None:
                    provisioner.observe_result(application, result)
                    provisioner.tick()
                if tuner is None:
                    return
                _, report = result
                if not isinstance(report, DispatchReport):
                    return
                if report.offered:
                    tuner.observe_admission(
                        report.offered, report.admitted, application=application
                    )
                tuner.observe_faults(
                    report.retries, report.failovers, application=application
                )

        executor = StagedExecutor(
            self._stage_label,
            self._stage_dispatch,
            queue_depth=queue_depth,
            tuner=tuner,
            dispatch_feedback=feedback,
            label_workers=label_workers,
            dispatch_workers=dispatch_workers,
        )
        if provisioner is not None:
            provisioner.bind(
                executor=executor, registry=self.backends, router=self.router
            )
        return executor

    def attach_server(self, server) -> None:
        """Register the serving tier so ``stats()["server"]`` reports it.

        Called by :class:`repro.server.QuercServer` on construction;
        one server per service — attaching another replaces the view.
        """
        self._server = server

    def _stage_label(self, application: str, batch: StreamBatch):
        """Executor stage A: convert the stream batch and label it.

        Sink failures are collected, not raised — the batch must still
        reach its database (stage B) before they surface. The lane's
        label→dispatch hand-off carries the *columnar* batch, not a
        per-message list; stage B dispatches it array-natively.
        """
        app = self.application(application)
        messages = [_to_message(record) for record in batch.records]
        sink_errors: list[Exception] = []
        columnar = app.worker.label_batch_columnar(
            messages, collect_errors=sink_errors
        )
        return columnar, sink_errors

    def _stage_dispatch(self, application: str, staged):
        """Executor stage B: route + execute, then surface failures.

        Only here — after dispatch — does the columnar batch
        materialize per-query messages for the caller's result list
        (none in forked mode: the batch went to the sinks, not onward).
        """
        columnar, sink_errors = staged
        worker = self.application(application).worker
        labeled, report = worker.finish_labeled(columnar, sink_errors)
        return labeled, report if isinstance(report, DispatchReport) else None

    def stats(self) -> dict:
        """Operational snapshot of the service.

        ``runtime`` carries per-stage timings (including the router's
        ``route``/``execute`` stages), embedder ``transform`` call
        count, cache hit rate / occupancy, and batch dedup ratio;
        ``backends`` carries per-backend dispatch counters (dispatched,
        admitted, rejected, spilled, queued, executed, latency) plus
        admission-gate state and the load signal the policies rank on;
        ``plan_cache`` the summed prepared-execution counters (hits and
        the parse-free share of them, misses, invalidations, evictions
        and admission refusals, literal-sensitive bail-outs) of every
        backend exposing a plan cache, with the fleet-wide hit rate;
        ``routing`` the policy layer — installed policy, route table,
        candidate sets, per-label placement decisions, and every
        backend's live load view; ``resilience`` the fault-tolerance
        layer — fleet totals (retries, failovers, deadline expiries,
        queue evictions) plus each backend's breaker state machine and
        retry policy; ``applications`` the per-app processed counts
        and bindings; ``executor`` the last staged
        (:meth:`process_routed_concurrent`) run's per-lane counters,
        stage-pool occupancy, and overlap — or the attached server's
        live executor; ``forecast`` the predictive provisioner's
        snapshot — per-tenant rate forecasts, the mix, and the last
        blueprint diff (``None`` until :meth:`set_provisioner`);
        ``tuner`` the batch-size tuner's
        per-application state (both None until used); ``server`` the
        serving tier's snapshot (sessions, frames, sheds, bytes, edge
        gates) when a :class:`repro.server.QuercServer` is attached.
        """
        backends = self.router.snapshot()
        resilience = self.router.resilience_snapshot()
        server = self._server.stats() if self._server is not None else None
        executor_stats = self._last_executor_stats
        if self._server is not None:
            live = self._server.executor_stats()
            if live is not None:
                executor_stats = live
        return {
            "runtime": self._runtime_stats(resilience, server),
            "backends": backends,
            "plan_cache": _aggregate_plan_cache(backends),
            "routing": self.router.routing_snapshot(),
            "resilience": resilience,
            "executor": executor_stats,
            "forecast": (
                self._provisioner.snapshot()
                if self._provisioner is not None
                else None
            ),
            "tuner": self._tuner.snapshot() if self._tuner is not None else None,
            "server": server,
            "applications": {
                name: {
                    "processed": app.worker.processed_count,
                    "backend": app.binding.name if app.binding else None,
                    "database": app.database,
                }
                for name, app in sorted(self._applications.items())
            },
        }

    def _runtime_stats(self, resilience: dict, server: dict | None) -> dict:
        """``stats()["runtime"]``: the pipeline's snapshot plus the keys
        ``runtime`` has always carried for counts other objects keep —
        fleet resilience totals from the backend bindings, transitions
        from each distinct breaker, sheds from the server's edge gate."""
        runtime = self.runtime.snapshot()
        bindings = [self.backends.get(name) for name in self.backends.names()]
        breakers = {id(b.breaker): b.breaker for b in bindings if b.breaker}
        transitions = [breaker.snapshot() for breaker in breakers.values()]
        runtime.update(
            retries=resilience["retries"],
            failovers=resilience["failovers"],
            deadline_expiries=resilience["deadline_expiries"],
            queue_evictions=resilience["queue_evicted"],
            **{
                f"breaker_{kind}": sum(t[kind] for t in transitions)
                for kind in ("opens", "half_opens", "closes")
            },
        )
        runtime["server"].update(
            {key: server[key] if server else 0 for key in EDGE_SHEDS}
        )
        return runtime

    def close(self) -> None:
        """Tear the service down (idempotent).

        The service owns no threads — each stage pool belongs to the
        executor its caller closes — so there is nothing to release;
        the call stays as the one tear-down name callers use.
        """

    def import_logs(self, application: str, records: list[QueryLogRecord]) -> int:
        """Periodic log import: ground-truth labels for training (§2).

        Returns the number of records ingested.
        """
        app = self.application(application)
        messages = [
            _to_message(record, include_ground_truth=True) for record in records
        ]
        self.training.ingest(application, messages)
        return len(messages)


def _aggregate_plan_cache(backends_snapshot: dict) -> dict | None:
    """Fold every backend's ``plan_cache`` stats into one summary.

    Walks each binding's backend snapshot — following ``inner`` links
    so proxied backends (e.g. a latency proxy over minidb) are counted
    once through their outermost wrapper — and sums whatever counters
    the stats carry, recomputing ``hit_rate`` from the sums. Returns
    ``None`` when no registered backend exposes a plan cache.
    """
    caches: list[dict] = []
    for binding in backends_snapshot.values():
        node = binding.get("backend")
        while isinstance(node, dict):
            cache = node.get("plan_cache")
            if isinstance(cache, dict):
                caches.append(cache)
                break
            node = node.get("inner")
    if not caches:
        return None
    out: dict = {}
    for cache in caches:
        for name, value in cache.items():
            out[name] = out.get(name, 0) + value
    total = out["hits"] + out["misses"]
    out["hit_rate"] = (out["hits"] / total) if total else 0.0
    out["backends_with_cache"] = len(caches)
    return out


def _to_message(
    record: QueryLogRecord, include_ground_truth: bool = False
) -> LabeledQuery:
    """Convert a log record into the wire data model."""
    labels = {"timestamp": record.timestamp}
    if include_ground_truth:
        labels.update(
            user=record.user,
            account=record.account,
            cluster=record.cluster,
            runtime_seconds=record.runtime_seconds,
            memory_mb=record.memory_mb,
            error_code=record.error_code,
        )
    return LabeledQuery.make(record.query, **labels)
