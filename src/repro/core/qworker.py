"""QWorker: per-application stream processor.

"Each application is associated with one Qworker, but each Qworker
operates multiple classifiers. Qworkers may not be entirely stateless,
as some labeling tasks process a small window of queries. However, the
state is assumed to be small..." (§2). The worker keeps exactly that: a
bounded recent-query window, plus counters. Processed batches are
forked to sinks (the training module) and — when the worker is on the
critical path — handed to a *dispatcher* (the service wires in the
:class:`~repro.backends.router.BatchRouter`), so the database-bound
arrow of Figure 1 lands on a real backend instead of being dropped.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.core.classifier import QueryClassifier
from repro.core.labeled_query import LabeledQuery
from repro.errors import ServiceError
from repro.runtime.columnar import ColumnarBatch
from repro.runtime.pipeline import InferencePipeline


class QWorker:
    """Runs every registered classifier over each incoming batch.

    Batches go through a shared :class:`InferencePipeline`, so the
    worker embeds each batch once per distinct embedder (over unique
    templates only) instead of once per classifier. The service wires
    all its workers to one pipeline; a stand-alone worker gets its own.
    """

    def __init__(
        self,
        application: str,
        classifiers: list[QueryClassifier] | None = None,
        window_size: int = 64,
        forward_to_database: bool = True,
        pipeline: InferencePipeline | None = None,
    ) -> None:
        if not application:
            raise ServiceError("application name must be non-empty")
        self.application = application
        self._classifiers: list[QueryClassifier] = list(classifiers or [])
        self.window: deque[LabeledQuery] = deque(maxlen=window_size)
        self.forward_to_database = forward_to_database
        self.pipeline = pipeline if pipeline is not None else InferencePipeline()
        self.processed_count = 0
        self._sinks: list[Callable[[str, list[LabeledQuery]], None]] = []
        # the database-bound path: set by the service to route labeled
        # batches through the backend layer
        self._dispatcher: Callable[[ColumnarBatch], object] | None = None
        self.last_dispatch: object | None = None

    # -- classifier management -----------------------------------------------------

    @property
    def classifiers(self) -> list[QueryClassifier]:
        return list(self._classifiers)

    def add_classifier(self, classifier: QueryClassifier) -> None:
        if any(c.label_name == classifier.label_name for c in self._classifiers):
            raise ServiceError(
                f"worker {self.application} already labels "
                f"{classifier.label_name!r}"
            )
        self._classifiers.append(classifier)

    def replace_classifier(self, classifier: QueryClassifier) -> None:
        """Swap in a newly deployed model for the same label."""
        for i, existing in enumerate(self._classifiers):
            if existing.label_name == classifier.label_name:
                self._classifiers[i] = classifier
                return
        self._classifiers.append(classifier)

    def add_sink(self, sink: Callable[[str, list[LabeledQuery]], None]) -> None:
        """Attach a consumer of labeled batches (e.g. the training module)."""
        self._sinks.append(sink)

    def set_dispatcher(
        self, dispatcher: Callable[[ColumnarBatch], object] | None
    ) -> None:
        """Wire the database-bound path (e.g. ``BatchRouter.dispatch``).

        The dispatcher receives each labeled batch, in columnar form,
        when ``forward_to_database`` is set; its report is kept on
        ``last_dispatch``.
        """
        self._dispatcher = dispatcher

    # -- processing -------------------------------------------------------------------

    def process_batch(self, batch: list[LabeledQuery]) -> list[LabeledQuery]:
        """Label a batch with every classifier and fan out to sinks.

        Returns the labeled batch — forwarded through the dispatcher
        (the backend router) when the worker is on the critical path,
        or dropped when ``forward_to_database`` is False (the forked
        mode). The dispatcher receives the *columnar* batch — the
        router partitions by label array without per-message grouping.
        """
        self.last_dispatch = None  # per-call: never report a stale dispatch
        if not batch:
            # zero queries: no pipeline run, no sink fan-out, no
            # dispatch — and no metrics skew from empty batches
            return []
        errors: list[Exception] = []
        columnar = self.label_batch_columnar(batch, collect_errors=errors)
        labeled, _ = self.finish_labeled(columnar, errors)
        return labeled

    def label_batch_columnar(
        self,
        batch: list[LabeledQuery],
        collect_errors: list[Exception] | None = None,
    ) -> ColumnarBatch:
        """Stage A of the worker: run the pipeline and fan out to sinks.

        This is the async drain mode used by the staged executor —
        labeling happens here, dispatch happens later (possibly on
        another thread) via :meth:`dispatch_labeled`. Sink failures are
        appended to ``collect_errors`` when given (so a failed training
        fork can't stop the batch from reaching its database), else
        raised after every sink saw the batch.

        The labeled batch stays columnar; sinks and the recent-query
        window receive (and share) the one cached ``to_messages()``
        materialization. With no sinks and a zero-size window the
        messages are never built here at all.
        """
        if not batch:
            return ColumnarBatch([])
        columnar = self.pipeline.run_columnar(list(batch), self._classifiers)
        if self.window.maxlen is None or self.window.maxlen > 0:
            self.window.extend(columnar.to_messages())
        self.processed_count += len(columnar)
        errors: list[Exception] = [] if collect_errors is None else collect_errors
        for sink in self._sinks:
            try:
                sink(self.application, columnar.to_messages())
            except Exception as exc:  # noqa: BLE001 - isolate sinks from each other
                errors.append(exc)
        if collect_errors is None:
            self._raise_failures(errors, None)
        return columnar

    def dispatch_labeled(self, labeled: ColumnarBatch):
        """Stage B of the worker: hand a labeled batch to the dispatcher.

        Runs the database-bound path even when a training sink failed —
        forks must not drop critical-path work. Returns the dispatch
        report (also kept on ``last_dispatch``), or None when the
        worker is in forked mode or has no dispatcher.
        """
        if not self.forward_to_database or self._dispatcher is None or not labeled:
            return None
        self.last_dispatch = self._dispatcher(labeled)
        return self.last_dispatch

    def finish_labeled(
        self, labeled: ColumnarBatch, sink_errors: list[Exception]
    ) -> tuple[list[LabeledQuery], object | None]:
        """The stage pair's tail: dispatch, surface failures, materialize.

        The one spelling behind :meth:`process_batch` and the service's
        stage B, so both report sink and dispatch failures identically
        — and only after every sink (and the dispatcher) saw the batch.
        Returns the per-query messages (none in forked mode: the batch
        went to the sinks, not onward) and the dispatch report.
        """
        dispatch_error: Exception | None = None
        report = None
        try:
            report = self.dispatch_labeled(labeled)
        except Exception as exc:  # noqa: BLE001 - don't eat sink failures
            dispatch_error = exc
        self._raise_failures(sink_errors, dispatch_error)
        return (labeled.to_messages() if self.forward_to_database else []), report

    def _raise_failures(
        self,
        sink_errors: list[Exception],
        dispatch_error: Exception | None,
    ) -> None:
        """Surface everything that failed for one batch, in one error."""
        if not sink_errors and dispatch_error is None:
            return
        parts = []
        if sink_errors:
            detail = "; ".join(
                f"{type(e).__name__}: {e}" for e in sink_errors
            )
            parts.append(
                f"{len(sink_errors)} of {len(self._sinks)} sink(s) failed for "
                f"worker {self.application!r}: {detail}"
            )
        if dispatch_error:
            parts.append(
                f"dispatch failed for worker {self.application!r}: "
                f"{type(dispatch_error).__name__}: {dispatch_error}"
            )
        raise ServiceError(" | ".join(parts)) from (
            sink_errors + ([dispatch_error] if dispatch_error else [])
        )[0]

    def recent(self, n: int) -> list[LabeledQuery]:
        """The last ``n`` processed queries (windowed state)."""
        if n < 0:
            raise ServiceError("n must be non-negative")
        items = list(self.window)
        return items[-n:] if n else []
