"""Prediction-driven dispatch: labeled batches land on real backends.

The :class:`BatchRouter` closes Figure 1's loop. A Qworker labels a
batch (the routing application's predicted ``cluster`` among the
labels); the router groups the batch by the backend each predicted
label maps to, asks that backend's :class:`AdmissionController` how
much of the group it will take right now, executes the admitted head,
and applies the binding's spill policy to the overflow:

* ``REJECT`` — drop the overflow and count it (WiSeDB's "shed when the
  SLA is already lost" stance);
* ``QUEUE``  — park the overflow in a bounded per-backend queue that is
  retried ahead of new arrivals on subsequent dispatches (Tempo's
  deferred-work stance);
* ``FALLBACK`` — offer the overflow to a designated sibling backend,
  subject to *its* admission control (one hop, no cascading).

Where the work lands is decided in one of two ways. Without a policy,
the router follows the static ``map_route`` table (label → backend,
falling back to the dispatch default). With a
:class:`~repro.backends.policy.RoutingPolicy` installed, the router
*re-ranks* the label's candidate backends once per batch against their
live :class:`~repro.backends.policy.CandidateView`\\ s — EWMA execute
latency, admission rejection rate, in-flight depth, parked queue depth
— and dispatches to the ranking's head; a policy that abstains falls
back to the static chain. When one batch splits across several
backends, the groups are offered one after another on the calling
thread — in the serving spine, the stage-pool dispatch worker that
runs the batch, so the stage pool stays the only concurrency.

A binding can also carry a :class:`~repro.backends.resilience.RetryPolicy`
and a :class:`~repro.backends.resilience.CircuitBreaker`. The retry
policy re-executes a group that raised wholesale (bounded attempts,
deterministic backoff, optional per-dispatch deadline budget); the
breaker tracks execute-call health and, once open, short-circuits
offers *before* the admission gate. In either terminal case — breaker
open, retries exhausted, deadline expired — the router re-resolves the
group to a healthy sibling candidate (the fallback spill machinery)
before surfacing failure. Parked QUEUE work is bounded too: segments
older than ``queue_max_age_seconds`` or retried more than
``queue_max_retries`` times are evicted and counted.

Every decision is counted per backend — dispatched, admitted,
rejected, spilled, executed, retried, failed-over, per-backend
latency — and surfaces in ``QuercService.stats()``. The per-backend
counters are updated in one atomic step per offer, so a snapshot taken
mid-dispatch always satisfies ``dispatched == admitted + rejected +
queued + spilled + queue_evicted``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.admission import AdmissionController
from repro.backends.base import Backend, BatchResult
from repro.backends.policy import CandidateView, LoadSignal, RoutingPolicy
from repro.backends.resilience import BreakerState, CircuitBreaker, RetryPolicy
from repro.errors import BackendError
from repro.runtime.columnar import ColumnarBatch, ColumnarSlice
from repro.runtime.metrics import Counters, RuntimeMetrics

if TYPE_CHECKING:  # avoid an import cycle with repro.core
    from repro.core.labeled_query import LabeledQuery


def _merge_segments(segments: "list[ColumnarSlice]") -> "ColumnarSlice | None":
    """Rejoin parked queue segments into one dispatch group.

    Slices of one columnar batch merge back into a single zero-copy
    slice. Slices of different batches re-enter through the boundary
    constructor: their rows materialize — the only point where a parked
    slice builds row objects — into one fresh batch whose route label
    is read off the messages themselves.
    """
    if not segments:
        return None
    first = segments[0]
    if all(s.batch is first.batch for s in segments[1:]):
        return first.batch.select(np.concatenate([s.indices for s in segments]))
    merged = ColumnarBatch([m for segment in segments for m in segment])
    return merged.select(np.arange(len(merged)))


class SpillPolicy(str, Enum):
    """What happens to work an admission controller turns away."""

    REJECT = "reject"
    QUEUE = "queue"
    FALLBACK = "fallback"


class BackendCounters(Counters):
    """Per-backend dispatch ledger: the shared :class:`Counters` over
    the router's dispositions, outcomes and resilience counts."""

    def __init__(self) -> None:
        super().__init__(
            (
                "batches",
                "dispatched",
                "admitted",
                "rejected",
                "spilled",
                "queued",
                # parked QUEUE segments dropped for age / retry
                # exhaustion — a disposition like the five above, part
                # of the invariant
                "queue_evicted",
                "executed_ok",
                "failed",
                "rows_returned",
                "cost_units",
                "execute_seconds",
                # resilience observability (not dispositions):
                # re-executions of raised groups, groups handed to /
                # received from a sibling on breaker-open or retry
                # exhaustion, retry budgets that ran out
                "retries",
                "failovers_out",
                "failovers_in",
                "deadline_expiries",
            ),
            floats=("cost_units", "execute_seconds"),
        )

    def snapshot(self) -> dict:
        out = super().snapshot()
        executed = out["executed_ok"] + out["failed"]
        out["mean_query_seconds"] = (
            out["execute_seconds"] / executed if executed else 0.0
        )
        return out


class _ParkedSegment:
    """One enqueued run of QUEUE-spill overflow plus its lifetime data."""

    __slots__ = ("messages", "enqueued_at", "retries")

    def __init__(
        self, messages: ColumnarSlice, enqueued_at: float, retries: int
    ) -> None:
        self.messages = messages
        self.enqueued_at = enqueued_at
        self.retries = retries

    def __len__(self) -> int:
        return len(self.messages)


class BackendBinding:
    """One registered backend plus its gate, spill policy and queue.

    The binding options are declared here once; ``register`` and
    ``QuercService.register_backend`` only forward them.
    ``max_in_flight`` / ``rate`` / ``burst`` configure the binding's own
    :class:`AdmissionController` (on ``clock``).

    ``retry`` / ``breaker`` (both optional) make the binding resilient:
    see :mod:`repro.backends.resilience`. ``queue_max_retries`` bounds
    how many times one parked QUEUE segment may be re-parked after a
    failed drain; ``queue_max_age_seconds`` bounds how long it may sit
    parked at all (measured on ``clock``). Work past either bound is
    *evicted* — dropped and counted in ``queue_evicted`` — instead of
    waiting forever on a backend that never drains. All four default
    to None — an unconfigured binding dispatches exactly as before.
    """

    def __init__(
        self,
        backend: Backend,
        max_in_flight: int | None = None,
        rate: float | None = None,
        burst: float | None = None,
        spill: SpillPolicy | str = SpillPolicy.REJECT,
        fallback: str | None = None,
        queue_capacity: int = 256,
        clock=time.monotonic,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        queue_max_retries: int | None = None,
        queue_max_age_seconds: float | None = None,
    ) -> None:
        admission = AdmissionController(
            max_in_flight=max_in_flight, rate=rate, burst=burst, clock=clock
        )
        spill = SpillPolicy(spill)
        if spill is SpillPolicy.FALLBACK and not fallback:
            raise BackendError(
                f"backend {backend.name!r}: FALLBACK spill needs a fallback name"
            )
        if queue_capacity < 0:
            raise BackendError("queue_capacity must be >= 0")
        if queue_max_retries is not None and queue_max_retries < 0:
            raise BackendError("queue_max_retries must be >= 0")
        if queue_max_age_seconds is not None and queue_max_age_seconds <= 0:
            raise BackendError("queue_max_age_seconds must be positive")
        self.backend = backend
        self.admission = admission
        self.spill = spill
        self.fallback = fallback
        self.retry = retry
        self.breaker = breaker
        self.queue_max_retries = queue_max_retries
        self.queue_max_age_seconds = queue_max_age_seconds
        self.clock = clock
        self.counters = BackendCounters()
        # the feedback the routing policies consume: EWMA execute
        # latency + admission churn, fed by the router's dispatch path
        self.load_signal = LoadSignal()
        # parked work is stored as *segments* (one ColumnarSlice per
        # enqueue), so queue spill keeps the columnar form — rows
        # materialize only if segments of different batches merge
        self._pending: deque[_ParkedSegment] = deque()
        self._pending_rows = 0
        self._queue_capacity = queue_capacity
        self._pending_lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.backend.name

    # -- pending queue (QUEUE spill policy) ---------------------------------------

    def enqueue(self, messages: ColumnarSlice, retries: int = 0) -> tuple[int, int]:
        """Park rows for later; returns (queued, overflowed).

        The room-limited head is parked as one segment — slicing a
        :class:`~repro.runtime.columnar.ColumnarSlice` yields another
        slice, so overflow parks without materializing rows.
        ``retries`` carries how many failed drains this work has
        already been through (the eviction bound's odometer).
        """
        with self._pending_lock:
            room = self._queue_capacity - self._pending_rows
            take = max(0, min(room, len(messages)))
            if take:
                self._pending.append(
                    _ParkedSegment(messages[:take], self.clock(), retries)
                )
                self._pending_rows += take
        return take, len(messages) - take

    def take_for_drain(self):
        """Pop every parked row, evicting out-of-date segments.

        Returns ``(messages, retries, evicted)``: the live rows merged
        into one group (None when nothing live was parked), the highest
        retry count among them (so the router's re-park bumps the right
        odometer), and how many rows aged out
        (``queue_max_age_seconds``) and were dropped.
        """
        max_age = self.queue_max_age_seconds
        now = self.clock() if max_age is not None else 0.0
        with self._pending_lock:
            parked = list(self._pending)
            self._pending.clear()
            self._pending_rows = 0
        live = [
            p for p in parked if max_age is None or now - p.enqueued_at <= max_age
        ]
        evicted = sum(map(len, parked)) - sum(map(len, live))
        retries = max((p.retries for p in live), default=0)
        return _merge_segments([p.messages for p in live]), retries, evicted

    @property
    def pending_depth(self) -> int:
        with self._pending_lock:
            return self._pending_rows

    def load_view(self) -> CandidateView:
        """This backend's live load, as the routing policies see it.

        The latency EWMA falls back to the backend's
        :meth:`~repro.backends.base.Backend.load_hint` prior until the
        first execution has been observed.
        """
        signal = self.load_signal.snapshot()
        latency = signal["latency_ewma_seconds"]
        if latency is None:
            latency = self.backend.load_hint().get("per_query_seconds")
        return CandidateView(
            name=self.name,
            latency_ewma=latency,
            rejection_rate=signal["rejection_ewma"],
            in_flight=self.admission.in_flight,
            headroom=self.admission.headroom,
            pending=self.pending_depth,
            cost_units=self.counters.value("cost_units"),
            breaker=(
                self.breaker.state.value if self.breaker is not None else "closed"
            ),
        )

    def snapshot(self) -> dict:
        return {
            **self.counters.snapshot(),
            "spill": self.spill.value,
            "fallback": self.fallback,
            "pending": self.pending_depth,
            "load": self.load_signal.snapshot(),
            "admission": self.admission.snapshot(),
            "backend": self.backend.snapshot(),
            "breaker": self.breaker.snapshot() if self.breaker else None,
            "retry": self.retry.snapshot() if self.retry else None,
        }


@dataclass(frozen=True)
class RouteDecision:
    """One (backend, message-group) admission + execution outcome.

    ``from_queue`` marks a retry of previously parked work;
    ``spilled_from`` names the origin backend when this decision covers
    overflow handed over by a FALLBACK sibling (or a whole group handed
    over because the origin's circuit was open — then the origin's
    decision also carries ``breaker_open``). ``failover_from`` /
    ``failover_to`` link the two decisions of a *post-execution*
    failover: the origin admitted and executed the group, every attempt
    raised, and the sibling re-ran it. ``retries`` counts this
    decision's re-execution attempts beyond the first;
    ``deadline_expired`` marks a retry budget that ran out.
    """

    backend: str
    offered: int
    admitted: int
    rejected: int = 0
    queued: int = 0
    spilled_to: str = ""
    spilled_from: str = ""
    from_queue: bool = False
    result: BatchResult | None = None
    retries: int = 0
    failover_to: str = ""
    failover_from: str = ""
    breaker_open: bool = False
    deadline_expired: bool = False


@dataclass(frozen=True)
class DispatchReport:
    """Everything the router did with one labeled batch.

    The aggregate properties account for *this batch's* messages
    exactly once — fallback hand-offs and queue retries are excluded
    from ``offered`` (and retries from the other tallies too), so
    ``offered == admitted + rejected + queued + in-flight-at-fallback``
    always reconciles with the batch size. A post-execution failover
    decision (``failover_from`` set) is likewise excluded: its messages
    were already admitted at the origin, the sibling pass is recovery,
    not new work. The full picture, including retries of previously
    parked work, is in ``decisions``.
    """

    application: str
    decisions: tuple[RouteDecision, ...] = ()

    def _batch_decisions(self) -> "list[RouteDecision]":
        return [
            d for d in self.decisions if not d.from_queue and not d.failover_from
        ]

    @property
    def offered(self) -> int:
        # a fallback sibling's offer re-counts the origin's overflow
        return sum(
            d.offered for d in self._batch_decisions() if not d.spilled_from
        )

    @property
    def admitted(self) -> int:
        return sum(d.admitted for d in self._batch_decisions())

    @property
    def rejected(self) -> int:
        return sum(d.rejected for d in self._batch_decisions())

    @property
    def queued(self) -> int:
        return sum(d.queued for d in self._batch_decisions())

    @property
    def executed_ok(self) -> int:
        """Successful executions across every decision, retries included."""
        return sum(d.result.ok_count for d in self.decisions if d.result)

    @property
    def retries(self) -> int:
        """Execute re-attempts across every decision (resilience signal
        for the tuner's feedback hook)."""
        return sum(d.retries for d in self.decisions)

    @property
    def failovers(self) -> int:
        """Groups this batch handed to a sibling — breaker-open
        hand-offs and post-execution failovers both count."""
        return sum(
            1
            for d in self.decisions
            if d.failover_to or (d.breaker_open and d.spilled_to)
        )

    def results(self) -> list[BatchResult]:
        """Per-backend batch results, in dispatch order (retries included)."""
        return [d.result for d in self.decisions if d.result is not None]


class BackendRegistry:
    """Named store of backend bindings — the service's ``DB(...)`` row."""

    def __init__(self) -> None:
        self._bindings: dict[str, BackendBinding] = {}
        self._lock = threading.Lock()

    def register(self, backend: Backend, **options) -> BackendBinding:
        """Bind a backend; ``options`` are :class:`BackendBinding`'s."""
        binding = BackendBinding(backend, **options)
        with self._lock:
            if backend.name in self._bindings:
                raise BackendError(f"backend {backend.name!r} already registered")
            self._bindings[backend.name] = binding
        return binding

    def get(self, name: str) -> BackendBinding:
        with self._lock:
            try:
                return self._bindings[name]
            except KeyError:
                raise BackendError(f"unknown backend {name!r}") from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._bindings)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._bindings

    def __len__(self) -> int:
        with self._lock:
            return len(self._bindings)

    def snapshot(self) -> dict:
        return {name: self.get(name).snapshot() for name in self.names()}


class BatchRouter:
    """Dispatch labeled batches to backends by predicted label.

    The static chain: the route table maps predicted label values
    (e.g. the routing application's ``cluster``) to backend names; a
    label that already *is* a registered backend name routes itself;
    anything else falls back to the dispatch default (the
    application's bound backend), then the router default.

    Installing a :class:`~repro.backends.policy.RoutingPolicy` (see
    :meth:`set_policy`) turns the static table into one input among
    several: for every distinct label in a batch, the router builds a
    :class:`~repro.backends.policy.CandidateView` per candidate
    backend (the label's explicit candidate set from
    :meth:`set_candidates`, else every registered backend) and asks
    the policy for a preference order. The first recognized name wins
    the whole label group for this batch — placement tracks backend
    load at batch granularity. A policy that abstains (empty ranking,
    or an explicitly empty candidate set) falls back to the static
    chain, so a policy can refine routing but never strand a label
    the table could place.

    When a batch resolves to more than one backend, the per-backend
    groups are offered one after another, in group order, on the
    calling thread. Counters, admission gates, spill queues and load
    signals are all thread-safe, so concurrent dispatches from several
    stage-pool workers — including a FALLBACK hop into a sibling that
    another dispatch is executing — stay consistent.
    """

    def __init__(
        self,
        registry: BackendRegistry,
        route_label: str = "cluster",
        default_backend: str | None = None,
        metrics: RuntimeMetrics | None = None,
        policy: RoutingPolicy | None = None,
    ) -> None:
        self.registry = registry
        self.route_label = route_label
        self.default_backend = default_backend
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self._routes: dict[object, str] = {}
        self._policy = policy
        self._candidates: dict[object, tuple[str, ...]] = {}
        # policy bookkeeping for stats()["routing"]
        self._reranks = 0
        self._static_fallbacks = 0
        self._decisions: dict[object, dict[str, int]] = {}
        self._lock = threading.Lock()

    # -- route table ---------------------------------------------------------------

    def set_route(self, label_value, backend_name: str) -> None:
        """Map one predicted label value to a backend."""
        if backend_name not in self.registry:
            raise BackendError(f"unknown backend {backend_name!r}")
        with self._lock:
            self._routes[label_value] = backend_name

    def routes(self) -> dict:
        with self._lock:
            return dict(self._routes)

    # -- routing policy ------------------------------------------------------------

    def set_policy(self, policy: RoutingPolicy | None) -> RoutingPolicy | None:
        """Install (or clear) the load-aware routing policy."""
        with self._lock:
            self._policy = policy
        return policy

    @property
    def policy(self) -> RoutingPolicy | None:
        with self._lock:
            return self._policy

    def set_candidates(self, label_value, backend_names: Sequence[str]) -> None:
        """Constrain a label's candidate set for policy ranking.

        Every name must be registered. An *empty* sequence is allowed
        and means "no backend is eligible for this label" — the policy
        is never consulted and the router falls back to the static
        chain (which may itself raise when nothing resolves). Labels
        without an entry consider every registered backend.
        """
        names = tuple(backend_names)
        for name in names:
            if name not in self.registry:
                raise BackendError(f"unknown backend {name!r}")
        with self._lock:
            self._candidates[label_value] = names

    def candidates(self, label_value) -> tuple[str, ...] | None:
        """The label's explicit candidate set (None = all backends)."""
        with self._lock:
            return self._candidates.get(label_value)

    def candidate_sets(self) -> dict:
        """Every explicit candidate set, label → name tuple.

        The provisioning planner's view of the placement degrees of
        freedom — cheap (no load views built), unlike
        :meth:`routing_snapshot`.
        """
        with self._lock:
            return {label: tuple(names) for label, names in self._candidates.items()}

    def _policy_target(
        self, label, policy: RoutingPolicy, view_cache: dict
    ) -> str | None:
        """One policy consultation; None when the policy abstains.

        ``view_cache`` (one dict per dispatch call) memoizes the
        candidate views per distinct candidate set — views are
        label-independent, so a 16-label batch over one default set
        builds them once, and every label in the batch ranks against
        the same load snapshot.
        """
        names = self._candidate_names(label)
        if not names:
            return None
        with self._lock:
            self._reranks += 1
        return next(iter(self._rank(label, policy, names, view_cache)), None)

    def _candidate_names(self, label) -> "Sequence[str]":
        """The label's explicit candidate set, else every backend."""
        names = self.candidates(label)
        return self.registry.names() if names is None else names

    def _rank(self, label, policy: RoutingPolicy, names, view_cache: dict) -> list[str]:
        """The policy's preference order over the registered ``names``.

        The ranking may only pick from that set — a policy returning an
        outside name (even the static target) is ignored.
        """
        allowed = tuple(sorted(name for name in names if name in self.registry))
        views = view_cache.get(allowed)
        if views is None:
            views = view_cache[allowed] = [
                self.registry.get(name).load_view() for name in allowed
            ]
        ranking = policy.rank(label, views, mapped=self._static_target(label))
        return [name for name in ranking if name in allowed]

    def resolve(self, message: "LabeledQuery", default: str | None = None) -> str:
        """Backend name for one labeled message."""
        return self._resolve_label(message.label(self.route_label), default)

    def _static_target(self, label) -> str | None:
        """The route table's entry, else a label that names a backend."""
        with self._lock:
            mapped = self._routes.get(label)
        if mapped is None and label is not None and label in self.registry:
            mapped = str(label)
        return mapped

    def _resolve_label(self, label, default: str | None = None) -> str:
        """The static chain for one predicted label value."""
        target = self._static_target(label) or default or self.default_backend
        if target is None:
            raise BackendError(
                f"no route for {self.route_label}={label!r} and no default backend"
            )
        return target

    # -- dispatch ------------------------------------------------------------------

    def dispatch(
        self,
        application: str,
        batch: "ColumnarBatch | Sequence[LabeledQuery]",
        default: str | None = None,
    ) -> DispatchReport:
        """Route one labeled batch; returns what happened per backend.

        With a policy installed, each distinct label is re-ranked once
        per batch against the candidates' live load; without one, the
        static route table decides. A multi-backend batch offers every
        group in group order; the first ``Exception`` any group raised
        is re-raised once all have been offered.

        This is the public boundary: a plain message list becomes a
        :class:`~repro.runtime.columnar.ColumnarBatch` here, once, and
        everything below is columnar. The batch is partitioned by its
        route label — labels resolve once per distinct value and the
        per-backend groups are zero-copy row slices; no per-message
        objects are built unless a spill path needs them.
        """
        if not batch:
            return DispatchReport(application=application)
        if not isinstance(batch, ColumnarBatch):
            batch = ColumnarBatch(batch)
        with self.metrics.stage("route"):
            groups = self._group_columnar(batch, default, self.policy)
        return DispatchReport(
            application=application,
            decisions=tuple(self._dispatch_groups(groups)),
        )

    def _group_columnar(
        self,
        batch: ColumnarBatch,
        default: str | None,
        policy: RoutingPolicy | None,
    ) -> "dict[str, ColumnarSlice]":
        """Partition a columnar batch by its route label.

        Placement is decided once per distinct label — one policy
        consultation, one bookkeeping entry — over the *template* axis,
        then scattered to rows with one fancy index. Backends appear in
        order of their first message in the batch, and rows within a
        group keep batch order.
        """
        column = batch.column(self.route_label)
        if column is None:
            # no predicted column for the route key: the label, if any,
            # is the one each message arrived with
            codes: dict[object, int] = {}
            inverse = np.fromiter(
                (
                    codes.setdefault(m.label(self.route_label), len(codes))
                    for m in batch.messages
                ),
                dtype=np.intp,
                count=len(batch),
            )
            template_labels: Sequence[object] = list(codes)
        else:
            template_labels = column.template_values
            inverse = column.inverse
        targets: dict[object, str | None] = {}
        view_cache: dict = {}
        resolved: dict[object, str] = {}
        group_names: list[str] = []
        name_pos: dict[str, int] = {}
        template_group = np.empty(len(template_labels), dtype=np.intp)
        for t, label in enumerate(template_labels):
            target = resolved.get(label)
            if target is None:
                if policy is not None:
                    targets[label] = self._policy_target(label, policy, view_cache)
                # no policy, or it abstained: the static chain decides
                target = targets.get(label) or self._resolve_label(label, default)
                resolved[label] = target
            pos = name_pos.get(target)
            if pos is None:
                pos = name_pos[target] = len(group_names)
                group_names.append(target)
            template_group[t] = pos
        if policy is not None:
            self._note_policy_targets(targets)
        row_group = template_group[inverse]
        uniq, first_row, inv = np.unique(
            row_group, return_index=True, return_inverse=True
        )
        groups: dict[str, ColumnarSlice] = {}
        for pos in np.argsort(first_row, kind="stable"):
            groups[group_names[int(uniq[pos])]] = batch.select(
                np.flatnonzero(inv == pos)
            )
        return groups

    def _note_policy_targets(self, targets: "dict[object, str | None]") -> None:
        with self._lock:
            # both counters are per (label, batch), the same unit as a
            # rerank — their sum is the number of placement
            # consultations this batch
            for label, target in targets.items():
                if target is None:
                    self._static_fallbacks += 1
                    continue
                per_label = self._decisions.setdefault(label, {})
                per_label[target] = per_label.get(target, 0) + 1

    def _dispatch_groups(
        self, groups: "dict[str, ColumnarSlice]"
    ) -> "list[RouteDecision]":
        """Offer every per-backend group in group (insertion) order.

        A group that raises does not stop the ones after it: each is
        offered, and the first ``Exception`` is re-raised at the end.
        Non-``Exception`` signals propagate at once, as in
        :meth:`_execute_with_retry`.
        """
        decisions: list[RouteDecision] = []
        first_error: Exception | None = None
        for name, messages in groups.items():
            try:
                decisions.extend(self._dispatch_group(name, messages))
            except Exception as exc:  # noqa: BLE001 - offer all, raise first
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return decisions

    def _dispatch_group(
        self, name: str, messages: ColumnarSlice
    ) -> "list[RouteDecision]":
        binding = self.registry.get(name)
        # parked work goes first: FIFO across dispatches
        decisions = self._drain_pending(binding)
        decisions.extend(self._offer(binding, messages))
        return decisions

    def drain(self, backend_name: str) -> DispatchReport:
        """Retry a backend's parked queue without new arrivals."""
        binding = self.registry.get(backend_name)
        return DispatchReport(
            application="", decisions=tuple(self._drain_pending(binding))
        )

    def snapshot(self) -> dict:
        """Per-backend counters + admission state, for ``stats()``."""
        return self.registry.snapshot()

    def routing_snapshot(self) -> dict:
        """The policy layer's view, for ``stats()["routing"]``.

        ``decisions`` counts, per label, how many batches each backend
        won; ``reranks`` is the number of policy consultations and
        ``static_fallbacks`` how often the static chain decided
        instead (policy abstained or empty candidate set);
        ``signals`` is every backend's live
        :class:`~repro.backends.policy.CandidateView`.
        """
        with self._lock:
            policy = self._policy
            candidates = {
                label: list(names) for label, names in self._candidates.items()
            }
            decisions = {
                label: dict(counts) for label, counts in self._decisions.items()
            }
            reranks = self._reranks
            fallbacks = self._static_fallbacks
        return {
            "policy": policy.snapshot() if policy else {"name": "static"},
            "route_table": self.routes(),
            "candidates": candidates,
            "decisions": decisions,
            "reranks": reranks,
            "static_fallbacks": fallbacks,
            "signals": {
                name: self.registry.get(name).load_view().as_dict()
                for name in self.registry.names()
            },
        }

    def resilience_snapshot(self) -> dict:
        """The resilience layer's view, for ``stats()["resilience"]``.

        Totals across backends (retries, failovers, deadline expiries,
        queue evictions) plus each binding's own counters and its
        breaker / retry-policy snapshots (None when unconfigured).
        """
        keys = (
            "retries", "failovers_out", "failovers_in", "deadline_expiries",
            "queue_evicted",
        )
        backends: dict[str, dict] = {}
        for name in self.registry.names():
            binding = self.registry.get(name)
            snap = binding.counters.snapshot()
            backends[name] = {
                **{key: snap[key] for key in keys},
                "breaker": binding.breaker.snapshot() if binding.breaker else None,
                "retry": binding.retry.snapshot() if binding.retry else None,
            }

        def total(key: str):
            return sum(entry[key] for entry in backends.values())

        return {
            "retries": total("retries"),
            "failovers": total("failovers_out"),
            "deadline_expiries": total("deadline_expiries"),
            "queue_evicted": total("queue_evicted"),
            "backends": backends,
        }

    # -- internals -----------------------------------------------------------------

    def _drain_pending(self, binding: BackendBinding) -> list[RouteDecision]:
        if binding.spill is not SpillPolicy.QUEUE or not binding.pending_depth:
            return []
        parked, retries, evicted = binding.take_for_drain()
        if evicted:
            # age eviction is a disposition: the rows were dispatched
            # to the queue once and now leave the system, counted
            binding.counters.add(dispatched=evicted, queue_evicted=evicted)
        if not parked:
            return []
        return self._offer(binding, parked, from_queue=True, queue_retries=retries)

    def _failover_target(
        self, binding: BackendBinding, messages: ColumnarSlice
    ) -> str | None:
        """A healthy sibling to take over a group the binding can't run.

        Preference order: the binding's configured fallback, then the
        routing policy's ranking over the group's label (the label of
        the group's first message — groups are label-homogeneous except
        when several labels map to one backend, where any of them is an
        acceptable re-resolution key), then the static chain's target
        (the same :meth:`_static_target` placement uses), then the
        remaining candidates by name. Candidate-set constraints for the
        label are honored; backends whose own circuit is open are
        skipped. None when nothing healthy remains.
        """
        label = None
        if len(messages):
            try:
                # read the label from the column arrays — indexing the
                # slice would materialize a per-row message, and
                # to_messages() is the only place that may
                label = messages.label_at(0, self.route_label)
            except Exception:
                label = None
        candidates = self._candidate_names(label)
        policy = self.policy
        ranked: list[str] = []
        if policy is not None and candidates:
            try:
                ranked = self._rank(label, policy, candidates, {})
            except Exception:
                pass  # a broken policy must not mask the failover path
        chain = [binding.fallback, *ranked, self._static_target(label)]
        for name in dict.fromkeys([*chain, *sorted(candidates)]):
            if not name or name == binding.name or name not in self.registry:
                continue
            sibling = self.registry.get(name)
            if (
                sibling.breaker is not None
                and sibling.breaker.state is BreakerState.OPEN
            ):
                continue
            return name
        return None

    def _execute_with_retry(self, binding: BackendBinding, admitted: ColumnarSlice):
        """Run one admitted group, re-attempting under the retry policy.

        Returns ``(result, retries_used, deadline_expired, error)`` —
        ``error`` is the last exception when every attempt raised (the
        caller decides between failover and re-raise). Never raises
        itself except for non-``Exception`` signals (KeyboardInterrupt
        and friends propagate). Each attempt feeds the breaker: a raise
        or an all-failed outcome batch is one recorded failure, a
        (partly) successful batch one success.
        """
        retry = binding.retry
        breaker = binding.breaker
        clock = retry.clock if retry is not None else time.monotonic
        deadline_start = clock()
        attempt = 1
        retries_used = 0
        while True:
            error: Exception | None = None
            result: BatchResult | None = None
            try:
                with self.metrics.stage("execute"):
                    # template-aware dispatch: the batch's interned ids
                    # (None for a batch built outside the pipeline)
                    # travel with the texts so prepared-execution
                    # backends skip re-fingerprinting
                    result = binding.backend.execute_templated(
                        admitted.queries(), admitted.fingerprint_ids()
                    )
            except Exception as exc:  # noqa: BLE001 - resilience boundary
                error = exc
            if error is None:
                if breaker is not None:
                    if result.outcomes and result.ok_count == 0:
                        # the backend "answered" but every outcome
                        # failed: unhealthy, though not retryable (the
                        # queries did run)
                        breaker.record_failure()
                    else:
                        breaker.record_success()
                return result, retries_used, False, None
            if breaker is not None:
                breaker.record_failure()
            if retry is None or attempt >= retry.max_attempts:
                return None, retries_used, False, error
            if breaker is not None and breaker.state is BreakerState.OPEN:
                # our own failures tripped the circuit mid-loop; stop
                # burning attempts on a backend declared down
                return None, retries_used, False, error
            delay = retry.delay(attempt)
            if (
                retry.deadline_seconds is not None
                and (clock() - deadline_start) + delay > retry.deadline_seconds
            ):
                return None, retries_used, True, error
            if delay > 0:
                retry.sleep(delay)
            attempt += 1
            retries_used += 1

    def _offer(
        self,
        binding: BackendBinding,
        messages: ColumnarSlice,
        from_queue: bool = False,
        spilled_from: str = "",
        failover_from: str = "",
        queue_retries: int = 0,
    ) -> list[RouteDecision]:
        """One hop: breaker gate → admission gate → overflow
        disposition → execute with retry → failover.

        Every hop — fresh group, drained queue segment, FALLBACK
        overflow, breaker hand-off, post-execution failover — runs this
        sequence. Only a first hop (no ``spilled_from`` /
        ``failover_from``) may spill by policy or hand work to a
        sibling; a later hop rejects what it cannot take (no cascading).

        Returns one decision for this binding, plus the sibling's
        decisions when work was handed across. The
        overflow is dispositioned *before* execution, so a backend
        that raises (strict mode) can never silently drop it. The
        dispatch-side counters land in **one** atomic ``add``, so a
        concurrent ``snapshot`` always sees ``dispatched == admitted +
        rejected + queued + spilled + queue_evicted``. Both the
        admission decision and the measured execute latency feed the
        binding's :class:`~repro.backends.policy.LoadSignal` — the
        feedback the load-aware policies rank on.

        Resilience hooks, all inert when the binding carries neither a
        retry policy nor a breaker:

        * an **open breaker** admits nothing and never touches the
          admission gate — the whole group re-resolves to a healthy
          sibling through the fallback machinery (counted as spill at
          the origin, offered fresh at the sibling), or is shed when
          none exists. Either way the origin's gate statistics record a
          full rejection, so the load-aware policies keep steering away;
        * a group whose every execute attempt **raised** (retry
          exhaustion or deadline expiry) fails over to a sibling as a
          recovery pass (``failover_from`` decisions, excluded from the
          report's batch aggregates) — only when no healthy sibling
          remains does the error surface to the caller;
        * ``queue_retries`` is the parked-work odometer: overflow
          re-parked past ``queue_max_retries`` is evicted instead.
        """
        n = len(messages)
        first_hop = not (spilled_from or failover_from)
        breaker = binding.breaker
        breaker_open = breaker is not None and breaker.allow(n) <= 0
        admitted_n = 0 if breaker_open else binding.admission.admit(n)
        binding.load_signal.observe_admission(n, admitted_n)
        admitted, overflow = messages[:admitted_n], messages[admitted_n:]

        rejected = queued = spilled = evicted = 0
        spilled_to = ""
        sibling_decisions: list[RouteDecision] = []
        if overflow:
            policy = binding.spill if first_hop else SpillPolicy.REJECT
            fallback = binding.fallback
            if breaker_open:
                fallback = first_hop and self._failover_target(binding, overflow)
                policy = SpillPolicy.FALLBACK if fallback else SpillPolicy.REJECT
            if policy is SpillPolicy.QUEUE:
                park_retries = queue_retries + 1 if from_queue else 0
                if (
                    from_queue
                    and binding.queue_max_retries is not None
                    and park_retries > binding.queue_max_retries
                ):
                    # this work already failed its retry allowance;
                    # dropping beats parking it forever
                    evicted = len(overflow)
                else:
                    queued, rejected = binding.enqueue(
                        overflow, retries=park_retries
                    )
            elif policy is SpillPolicy.FALLBACK:
                spilled_to = fallback or ""
                spilled = len(overflow)
            else:
                rejected = len(overflow)
        handoff = breaker_open and bool(spilled_to)
        # one add per offer: a snapshot taken mid-dispatch can never
        # see a dispatched count without its disposition
        binding.counters.add(
            batches=1,
            dispatched=n,
            admitted=admitted_n,
            rejected=rejected,
            queued=queued,
            spilled=spilled,
            queue_evicted=evicted,
            failovers_out=1 if handoff else 0,
            failovers_in=1 if failover_from else 0,
        )
        if spilled_to:
            sibling = self.registry.get(spilled_to)
            # one hop only: the sibling's own overflow is rejected
            sibling_decisions = self._offer(
                sibling, overflow, from_queue=from_queue, spilled_from=binding.name
            )

        result: BatchResult | None = None
        retries_used = 0
        deadline_expired = False
        failover_to = ""
        failover_decisions: list[RouteDecision] = []
        if admitted:
            start = time.perf_counter()
            try:
                result, retries_used, deadline_expired, error = (
                    self._execute_with_retry(binding, admitted)
                )
            finally:
                elapsed = time.perf_counter() - start
                binding.admission.release(admitted_n)
                # strict-mode raises still price the backend: the time
                # was spent whether or not outcomes came back
                binding.load_signal.observe_execution(admitted_n, elapsed)
            if error is None:
                binding.counters.add(
                    executed_ok=result.ok_count,
                    failed=result.failed_count,
                    rows_returned=result.rows_returned,
                    cost_units=result.cost_units,
                    execute_seconds=elapsed,
                    retries=retries_used,
                )
            else:
                resilient = binding.retry is not None or breaker is not None
                if not resilient:
                    # the legacy contract: an unconfigured binding
                    # surfaces backend exceptions untouched
                    raise error
                binding.counters.add(
                    failed=admitted_n,
                    execute_seconds=elapsed,
                    retries=retries_used,
                    deadline_expiries=1 if deadline_expired else 0,
                )
                failover_to = (
                    first_hop and self._failover_target(binding, admitted)
                ) or ""
                if not failover_to:
                    raise error
                binding.counters.add(failovers_out=1)
                failover_decisions = self._offer(
                    self.registry.get(failover_to),
                    admitted,
                    from_queue=from_queue,
                    failover_from=binding.name,
                )
        return [
            RouteDecision(
                backend=binding.name,
                offered=n,
                admitted=admitted_n,
                rejected=rejected,
                queued=queued,
                spilled_to=spilled_to,
                spilled_from=spilled_from,
                from_queue=from_queue,
                result=result,
                retries=retries_used,
                failover_to=failover_to,
                failover_from=failover_from,
                breaker_open=breaker_open,
                deadline_expired=deadline_expired,
            ),
            *sibling_decisions,
            *failover_decisions,
        ]
