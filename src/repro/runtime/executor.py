"""Concurrent staged execution: many Qworkers on a bounded thread pool.

The paper's Figure 1 draws many Qworkers consuming per-application
query streams side by side; until this layer the reproduction ran them
strictly one batch at a time — fingerprint → embed → predict → route →
execute in one thread, so a slow embedder on one application stalled
every other tenant and the CPU idled while a backend executed.

:class:`StagedExecutor` splits each batch's life into two stages and
pipelines them across batches:

* **stage A** — label: fingerprint + dedup + embed + predict on the
  shared :class:`~repro.runtime.pipeline.InferencePipeline` (CPU
  bound);
* **stage B** — place: route + admission + execute on the
  :class:`~repro.backends.router.BatchRouter` and its backends
  (typically dominated by backend latency).

The label→dispatch hand-off carries
:class:`~repro.runtime.columnar.ColumnarBatch` records, not
per-message lists: stage A leaves its predictions as template-level
arrays, stage B partitions them by label array, and per-query
:class:`~repro.core.labeled_query.LabeledQuery` objects materialize
once, after dispatch, for the caller's result list.

Earlier revisions gave every application its own pair of OS threads
(one per stage). That shape breaks down at many-tenant scale: 100
applications meant 200 mostly-idle threads, almost all of them blocked
on an empty queue. This revision runs a **shared stage pool** instead:
``label_workers`` stage-A threads and ``dispatch_workers`` stage-B
threads serve *every* application. Each application keeps a **lane** —
now a lightweight state record (two bounded deques plus counters, no
threads) — and a lane becomes *ready* for a stage exactly when it has
work for that stage and no batch of its own already in flight there.
Ready lanes queue on one of two ready-queues; idle workers pull the
next ready lane, run one batch through their stage, and reschedule the
lane as its state allows. The thread count is O(pool size), not
O(tenants).

Two invariants keep the scheduler byte-identical to the serial path:

1. **per-application FIFO** — each lane's queues are strict FIFOs, so
   batches of one application pass through each stage in submission
   order;
2. **at most one in flight per (lane, stage)** — a lane is never on a
   ready-queue (or being worked) twice for the same stage, so no two
   workers can reorder one application's batches.

Across applications, batches proceed independently and the pool is
work-conserving: a worker freed by one tenant immediately serves any
other tenant with a ready batch, where a per-application thread would
have idled.

Backpressure is preserved end to end and stays per-tenant: a lane's
hand-off deque is bounded (a lane is not label-ready while its
hand-off is full, so a slow backend never lets stage A run ahead
unboundedly *and* never blocks a shared worker), its ingress deque is
bounded (``submit`` blocks the producer), and the ready-queues are
bounded by construction — invariant 2 means each queue holds at most
one entry per application.

Each stage is described once, by a private ``_Stage`` record (stage
function, completion hook, ready-queue, workers, occupancy marks), and
both run one worker loop: pop the ready lane's next batch, run the
stage function and its hook, then hand the batch to the next stage's
queue — or, after the last stage or an error, resolve its future.
Anything per-stage (a wait timestamp taken at enqueue and read at pop,
a differently ordered ready-queue) therefore has one place to go.

A :class:`~repro.runtime.tuner.BatchSizeTuner` can be attached; every
stage-A completion feeds it a ``(queries, seconds)`` observation — the
tuner's only labeling feed — so the stream layer's batch sizes track
the labeling cost the pool is actually measuring. ``dispatch_feedback``
runs on the worker that completed stage B, before the batch's future
resolves. Neither hook can kill a worker: their failures are counted
per lane and the batch still resolves.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServiceError
from repro.runtime.tuner import BatchSizeTuner

_SENTINEL = object()
# retire token for live shrink: exactly one worker consumes it between
# batches (a stage boundary) and exits; in-flight batches are untouched
_RETIRE = object()


class _Lane:
    """One application's scheduling state: queues and counters, no threads.

    ``cond``'s lock guards every mutable field. Per-stage state is kept
    as pairs indexed by stage position (0 = label, 1 = dispatch):
    ``queues`` is ``(ingress, handoff)`` — stage *i* pops ``queues[i]``
    — and ``busy[i]`` is true while the lane is on stage *i*'s
    ready-queue *or* a worker is running that stage for it — the
    at-most-one-in-flight-per-stage invariant is exactly "this flag is
    set". Producers blocked on a full ingress wait on ``cond``; a
    worker popping the ingress (or ``close`` marking the lane closed)
    notifies them.
    """

    __slots__ = (
        "application",
        "cond",
        "queues",
        "closed",
        "busy",
        "submitted",
        "batches",
        "labeled_queries",
        "seconds",
        "errors",
        "feedback_errors",
        "max_handoff_depth",
    )

    def __init__(self, application: str) -> None:
        self.application = application
        self.cond = threading.Condition()
        # ingress holds (item, future), bounded via cond; the hand-off
        # holds (staged, future), bounded by queue_depth
        self.queues: tuple[deque, deque] = (deque(), deque())
        self.closed = False
        self.busy = [False, False]
        self.submitted = 0
        self.batches = [0, 0]  # completed without error, per stage
        self.labeled_queries = 0
        self.seconds = [0.0, 0.0]
        self.errors = [0, 0]
        self.feedback_errors = 0
        self.max_handoff_depth = 0

    def snapshot(self) -> dict:
        with self.cond:
            return {
                "submitted": self.submitted,
                "labeled_batches": self.batches[0],
                "labeled_queries": self.labeled_queries,
                "dispatched_batches": self.batches[1],
                "label_seconds": self.seconds[0],
                "dispatch_seconds": self.seconds[1],
                "label_errors": self.errors[0],
                "dispatch_errors": self.errors[1],
                "feedback_errors": self.feedback_errors,
                "ingress_depth": len(self.queues[0]),
                "handoff_depth": len(self.queues[1]),
                "max_handoff_depth": self.max_handoff_depth,
                "label_busy": self.busy[0],
                "dispatch_busy": self.busy[1],
            }


@dataclass(eq=False)
class _Stage:
    """One stage of the pool, described once.

    ``index`` is the stage's position in every per-stage pair on a
    :class:`_Lane`; ``fn(application, payload)`` does the work and
    ``hook(lane, payload, result, elapsed)`` runs after each success.
    ``ready`` holds at most one entry per lane (plus shutdown and
    retire tokens), so it is bounded by the tenant count. ``workers``
    (the target), ``spawned`` (keeps thread names unique across
    generations) and ``threads`` change only under the executor's
    resize lock; the occupancy marks — workers inside ``fn`` now, the
    lifetime peak, the peak since the last ``pool_window`` reset — only
    under its pool lock.
    """

    index: int
    name: str
    fn: Callable[[str, Any], Any]
    hook: Callable[[_Lane, Any, Any, float], None] | None
    workers: int
    ready: queue.SimpleQueue = field(default_factory=queue.SimpleQueue)
    spawned: int = 0
    threads: list[threading.Thread] = field(default_factory=list)
    active: int = 0
    max_active: int = 0
    window_max_active: int = 0


class StagedExecutor:
    """Pipeline label (stage A) and place (stage B) across batches on a
    shared worker pool.

    ``label_fn(application, item)`` produces the intermediate value
    (the labeled batch); ``dispatch_fn(application, intermediate)``
    places it and produces the future's result. Exceptions in either
    stage resolve that batch's future with the error and leave every
    other batch — and every pool worker — untouched.

    ``label_workers`` / ``dispatch_workers`` size the two stage pools;
    the executor owns exactly ``label_workers + dispatch_workers``
    threads regardless of how many applications submit, so a
    many-tenant deployment no longer pays two threads per application.
    Within one application, batches still flow strictly in order
    through both stages (see the module docstring's invariants), so
    labels and backend outcomes are byte-identical to the serial loop.

    ``dispatch_feedback(application, result)``, when given, runs on
    the pool worker that completed stage B, after every successful
    completion and before the future resolves — the hook the service
    uses to feed admission outcomes from each
    :class:`~repro.backends.router.DispatchReport` back into the
    :class:`~repro.runtime.tuner.BatchSizeTuner`. Feedback (and tuner)
    failures are counted per lane (``feedback_errors``) and never fail
    the batch or the worker.

    Use as a context manager, or call :meth:`close` — pending work is
    drained (every accepted future resolves) before the pool shuts
    down.
    """

    def __init__(
        self,
        label_fn: Callable[[str, Any], Any],
        dispatch_fn: Callable[[str, Any], Any],
        queue_depth: int = 4,
        tuner: BatchSizeTuner | None = None,
        dispatch_feedback: Callable[[str, Any], None] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        label_workers: int = 2,
        dispatch_workers: int = 4,
    ) -> None:
        if queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        if label_workers < 1 or dispatch_workers < 1:
            raise ServiceError("label_workers and dispatch_workers must be >= 1")
        self.queue_depth = int(queue_depth)
        self.tuner = tuner
        self._clock = clock
        self._lanes: dict[str, _Lane] = {}
        self._lanes_lock = threading.Lock()
        self._closed = False
        self._close_done = threading.Event()
        self._started_at = clock()
        # accepted-future ledger: submit increments, resolution
        # decrements; close() drains by waiting for zero. Worker-death
        # bookkeeping shares the condition: a dying worker notifies, so
        # the drain wait needs no poll timeout
        self._drain = threading.Condition()
        self._outstanding = 0
        self._workers_alive = 0  # incremented by _spawn_worker
        # guards every stage's occupancy marks. The window marks are the
        # same signal as the lifetime peaks, but resettable
        # (pool_window) so a periodic planner sees each interval's
        # saturation, not history's
        self._pool_lock = threading.Lock()
        self._window_started_at = clock()
        # live resize bookkeeping: the ledger counts resizes
        self._resize_lock = threading.Lock()
        self._resizes = 0
        self._workers_retired = 0
        feedback = None
        if dispatch_feedback is not None:
            def feedback(lane: _Lane, staged: Any, result: Any, elapsed: float):
                dispatch_feedback(lane.application, result)

        self._stages = (
            _Stage(0, "label", label_fn, self._after_label, int(label_workers)),
            _Stage(1, "dispatch", dispatch_fn, feedback, int(dispatch_workers)),
        )
        for stage in self._stages:
            for _ in range(stage.workers):
                self._spawn_worker(stage)

    @property
    def label_workers(self) -> int:
        return self._stages[0].workers

    @property
    def dispatch_workers(self) -> int:
        return self._stages[1].workers

    def _spawn_worker(self, stage: _Stage) -> None:
        """Start one stage worker and record it (caller must hold
        ``_resize_lock`` when resizing; construction is single-threaded)."""
        thread = threading.Thread(
            target=self._worker_loop,
            args=(stage,),
            name=f"querc-{stage.name}-{stage.spawned}",
            daemon=True,
        )
        stage.spawned += 1
        stage.threads.append(thread)
        with self._drain:
            self._workers_alive += 1
        thread.start()

    # -- submission ----------------------------------------------------------------

    def submit(self, application: str, item: Any) -> Future:
        """Queue one batch onto its application's lane.

        Blocks when the lane's ingress is full — backpressure from a
        slow stage propagates to the producer instead of buffering
        without bound, and it is per-tenant: one application's full
        lane never blocks another's submit. Once this method returns a
        :class:`concurrent.futures.Future`, that future is already
        running (it cannot be cancelled) and is guaranteed to resolve
        (value or error), even if :meth:`close` races the submission.
        Done-callbacks run on the pool worker that resolves the batch.
        """
        return self._offer(application, item, block=True)

    def try_submit(self, application: str, item: Any) -> Future | None:
        """Non-blocking :meth:`submit`: ``None`` when the lane is full.

        The coroutine-producer flavor — an asyncio session must never
        park its event-loop thread in ``submit``'s backpressure wait,
        so it offers the batch, and on ``None`` awaits lane room its
        own way (the serving tier waits on batch completions) before
        offering again. A returned future carries the same guarantee
        as ``submit``'s: it will resolve, even across a racing
        :meth:`close`.
        """
        return self._offer(application, item, block=False)

    def _offer(
        self, application: str, item: Any, block: bool
    ) -> Future | None:
        """The one accept path: a batch is accepted exactly when its
        lane is open and its ingress has room."""
        lane = self._lane(application)
        ingress = lane.queues[0]
        with lane.cond:
            while len(ingress) >= self.queue_depth and not lane.closed:
                if not block:
                    return None
                lane.cond.wait()
            if lane.closed:
                raise ServiceError("executor is closed")
            future: Future = Future()
            # running from acceptance on: no holder can cancel it, so
            # every later set_result / set_exception is legal
            future.set_running_or_notify_cancel()
            ingress.append((item, future))
            lane.submitted += 1
            with self._drain:
                self._outstanding += 1
            self._maybe_schedule(lane, self._stages[0])
        return future

    def map(self, items, application_of=None) -> list:
        """Submit every item, wait, and return results in input order.

        ``application_of`` extracts the lane key (defaults to the
        item's ``application`` attribute — a
        :class:`~repro.workloads.stream.StreamBatch` works as-is).
        Raises the first failed batch's error, like the serial loop
        would.
        """
        key = application_of or (lambda item: item.application)
        futures = [self.submit(key(item), item) for item in items]
        return [f.result() for f in futures]

    # -- lanes ---------------------------------------------------------------------

    def _lane(self, application: str) -> _Lane:
        with self._lanes_lock:
            if self._closed:
                # close() snapshots lanes under this lock; a lane born
                # after that snapshot would never be drained
                raise ServiceError("executor is closed")
            lane = self._lanes.get(application)
            if lane is None:
                lane = self._lanes[application] = _Lane(application)
        return lane

    def _maybe_schedule(self, lane: _Lane, stage: _Stage) -> None:
        """Put the lane on the stage's ready-queue if eligible.

        Caller holds ``lane.cond``. Eligible means: work waiting, no
        batch of this lane already in this stage, and room in the next
        stage's queue — a full hand-off keeps the lane un-ready for
        stage A instead of letting a label worker block on it, so a
        slow backend backpressures its own tenant without stalling the
        shared pool. (The last stage feeds a future, never a queue.)
        """
        here = stage.index
        if lane.busy[here] or not lane.queues[here]:
            return
        if (
            here + 1 < len(lane.queues)
            and len(lane.queues[here + 1]) >= self.queue_depth
        ):
            return
        lane.busy[here] = True
        stage.ready.put(lane)

    # -- workers -------------------------------------------------------------------

    def _resolve_future(
        self, future: Future, value: Any = None,
        error: BaseException | None = None,
    ) -> None:
        try:
            if error is None:
                future.set_result(value)
            else:
                future.set_exception(error)
        finally:
            # a done-callback raising a non-Exception propagates out of
            # set_*; the ledger must still count the batch resolved, or
            # close() would drain forever
            with self._drain:
                self._outstanding -= 1
                if self._outstanding <= 0:
                    self._drain.notify_all()

    def _worker_exit(self) -> None:
        """Count a worker out (sentinel or death) and wake the drain.

        ``close()`` waits on the drain condition with no timeout; a
        worker dying with work outstanding must notify, or the drain
        could wait on a resolution that can no longer happen.
        """
        with self._drain:
            self._workers_alive -= 1
            self._drain.notify_all()

    def _worker_loop(self, stage: _Stage) -> None:
        # the loop shape guarantees a worker survives *anything* a batch
        # throws at it: once (payload, future) is popped, the
        # except/finally pair resolves the future and releases the lane
        # no matter what fails inside — stage fn, hooks, even an
        # injected clock
        here = stage.index
        try:
            while True:
                lane = stage.ready.get()
                if lane is _SENTINEL:
                    return
                if lane is _RETIRE:
                    with self._drain:
                        self._workers_retired += 1
                    return
                with lane.cond:
                    payload, future = lane.queues[here].popleft()
                    if here == 0:
                        # ingress slot freed: wake one blocked producer
                        lane.cond.notify()
                    else:
                        # a hand-off slot freed: the stage before may
                        # resume this lane
                        self._maybe_schedule(lane, self._stages[here - 1])
                try:
                    self._run_one(stage, lane, payload, future)
                except BaseException as exc:  # noqa: BLE001 - never kill the worker
                    if not future.done():
                        with lane.cond:
                            lane.errors[here] += 1
                        self._resolve_future(future, error=exc)
                finally:
                    with lane.cond:
                        lane.busy[here] = False
                        self._maybe_schedule(lane, stage)
        finally:
            self._worker_exit()

    def _run_one(
        self, stage: _Stage, lane: _Lane, payload: Any, future: Future
    ) -> None:
        """Run one batch through ``stage``, then hand it to the next
        stage — or, after the last stage or an error, resolve its future."""
        here = stage.index
        with self._pool_lock:
            stage.active += 1
            stage.max_active = max(stage.max_active, stage.active)
            stage.window_max_active = max(stage.window_max_active, stage.active)
        try:
            start = self._clock()
            try:
                result = stage.fn(lane.application, payload)
                error: BaseException | None = None
            except BaseException as exc:  # noqa: BLE001 - resolve, don't kill the worker
                result, error = None, exc
            elapsed = self._clock() - start
        finally:
            with self._pool_lock:
                stage.active -= 1
        hook_failed = False
        if error is None and stage.hook is not None:
            try:
                stage.hook(lane, payload, result, elapsed)
            except BaseException:  # noqa: BLE001 - a hook never fails the batch or the worker
                hook_failed = True
        with lane.cond:
            lane.seconds[here] += elapsed
            if hook_failed:
                lane.feedback_errors += 1
            if error is not None:
                lane.errors[here] += 1
            else:
                lane.batches[here] += 1
                if here + 1 < len(self._stages):
                    handoff = lane.queues[here + 1]
                    handoff.append((result, future))
                    lane.max_handoff_depth = max(
                        lane.max_handoff_depth, len(handoff)
                    )
                    self._maybe_schedule(lane, self._stages[here + 1])
                    return
        self._resolve_future(future, value=result, error=error)

    def _after_label(
        self, lane: _Lane, item: Any, staged: Any, elapsed: float
    ) -> None:
        """Stage A's completion hook: count the batch's queries and
        feed the tuner its ``(queries, seconds)`` observation."""
        try:
            n = len(item)
        except Exception:  # noqa: BLE001 - a hostile __len__ must not kill the worker
            n = 1
        with lane.cond:
            lane.labeled_queries += n
        if self.tuner is not None:
            self.tuner.observe(n, elapsed, application=lane.application)

    # -- lifecycle -----------------------------------------------------------------

    def resize(
        self,
        label_workers: int | None = None,
        dispatch_workers: int | None = None,
    ) -> dict:
        """Re-provision the stage pools live; returns the pool snapshot.

        Growing a stage spawns fresh workers that start pulling ready
        lanes immediately. Shrinking posts retire tokens on the stage's
        ready-queue: each token is consumed by exactly one worker *at a
        stage boundary* — between batches, never inside one — so lanes,
        per-application FIFO order, and byte-identical outcomes are all
        preserved; the thread count converges to the new target as the
        tokens are drained. Both targets must stay >= 1, and both are
        validated before either pool changes — a rejected call leaves
        the pool exactly as it was. Safe to call from any thread,
        including a dispatch-feedback hook running on a pool worker
        (the worker that applies a shrink can be the one that later
        retires). Raises once the executor is closed.
        """
        targets = list(zip(self._stages, (label_workers, dispatch_workers)))
        with self._resize_lock:
            with self._lanes_lock:
                if self._closed:
                    raise ServiceError("executor is closed")
            for stage, target in targets:
                if target is not None and target < 1:
                    raise ServiceError(f"{stage.name}_workers must be >= 1")
            for stage in self._stages:
                # drop workers that consumed a retire token and exited;
                # live and still-retiring ones stay for close() to join
                stage.threads[:] = [t for t in stage.threads if t.is_alive()]
            changed = False
            for stage, target in targets:
                if target is None or target == stage.workers:
                    continue
                delta = target - stage.workers
                stage.workers = int(target)
                for _ in range(delta):
                    self._spawn_worker(stage)
                for _ in range(-delta):
                    stage.ready.put(_RETIRE)
                changed = True
            if changed:
                with self._drain:
                    self._resizes += 1
        return self.stats()["pool"]

    def _window_marks(self) -> dict:
        """The window view ``pool_window()`` and ``stats()["pool"]``
        share (caller holds ``_pool_lock``)."""
        label, dispatch = self._stages
        return {
            "window_max_label_active": label.window_max_active,
            "window_max_dispatch_active": dispatch.window_max_active,
            "window_seconds": max(self._clock() - self._window_started_at, 0.0),
        }

    def pool_window(self, reset: bool = False) -> dict:
        """Occupancy high-water marks since the last window reset.

        The resettable flavor of the lifetime ``max_*_active`` peaks:
        a periodic planner reads (and resets) the window each interval,
        so the marks answer "how many workers did this interval
        actually need" instead of "how many did history ever need".
        Resetting re-seeds each mark with the stage's *current*
        occupancy — a worker mid-batch at the reset instant still
        counts against the new window.
        """
        with self._pool_lock:
            window = self._window_marks()
            if reset:
                for stage in self._stages:
                    stage.window_max_active = stage.active
                self._window_started_at = self._clock()
        return window

    def close(self) -> None:
        """Drain every lane, then stop the pool (idempotent).

        Ordering guarantees:

        1. producers blocked in :meth:`submit` wake and raise (their
           futures were never accepted);
        2. every *accepted* future resolves — with its stage's value
           or error — before the workers stop;
        3. only then are the worker threads joined.

        A future that somehow survives the drain (a stage function
        swallowing its own worker, which the loops do not allow) is
        resolved with a :class:`ServiceError` rather than left to
        strand its waiter. Concurrent callers block until the first
        caller's shutdown completes, so *every* returning ``close()``
        may rely on the guarantees above.
        """
        with self._lanes_lock:
            already_closing = self._closed
            self._closed = True
            lanes = list(self._lanes.values())
        if already_closing:
            # another close() is (or was) doing the work; returning
            # before it finishes would void the drain guarantee
            self._close_done.wait()
            return
        try:
            for lane in lanes:
                with lane.cond:
                    lane.closed = True
                    lane.cond.notify_all()
            with self._drain:
                # a worker can only die on an uncaught non-stage error;
                # if the whole pool is gone, fall through to the sweep
                # instead of waiting on a drain that cannot happen.
                # Resolutions and worker deaths both notify, so this
                # wait needs no poll timeout
                while self._outstanding > 0 and self._workers_alive > 0:
                    self._drain.wait()
            with self._resize_lock:
                # a resize that passed the closed check before us has
                # finished spawning; none can start after it
                for stage in self._stages:
                    for _ in stage.threads:
                        stage.ready.put(_SENTINEL)
            for stage in self._stages:
                for thread in stage.threads:
                    thread.join()
            # belt and braces: no future may ever be stranded by close()
            leftovers: list[Future] = []
            for lane in lanes:
                with lane.cond:
                    for waiting in lane.queues:
                        leftovers.extend(f for _, f in waiting if not f.done())
                        waiting.clear()
            for future in leftovers:
                future.set_exception(
                    ServiceError("executor closed before the batch ran")
                )
        finally:
            # unblock concurrent close() callers even on a failed
            # shutdown — stranding them is worse than an early wake
            self._close_done.set()

    def __enter__(self) -> "StagedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------------------

    def stats(self) -> dict:
        """Per-lane counters, pool occupancy, and an overlap estimate.

        ``pool`` reports the configured worker counts, how many
        workers are inside each stage right now, and the high-water
        marks — occupancy near the configured size means the pool is
        the bottleneck and could grow; near zero means it is idle.
        ``busy_seconds`` sums stage time across lanes; with
        ``wall_seconds`` it bounds the concurrency the staged layout
        actually achieved (busy/wall == 1.0 means no overlap at all).
        Per-tenant queue depths are in ``lanes`` (``ingress_depth`` /
        ``handoff_depth``).
        """
        with self._lanes_lock:
            lanes = {app: lane.snapshot() for app, lane in self._lanes.items()}
        busy = sum(
            s["label_seconds"] + s["dispatch_seconds"] for s in lanes.values()
        )
        wall = max(self._clock() - self._started_at, 1e-12)
        with self._drain:
            workers_alive = self._workers_alive
            resizes = self._resizes
            retired = self._workers_retired
        label, dispatch = self._stages
        with self._pool_lock:
            pool = {
                "label_workers": label.workers,
                "dispatch_workers": dispatch.workers,
                "threads": label.workers + dispatch.workers,
                "workers_alive": workers_alive,
                "resizes": resizes,
                "workers_retired": retired,
                "label_active": label.active,
                "dispatch_active": dispatch.active,
                "max_label_active": label.max_active,
                "max_dispatch_active": dispatch.max_active,
                **self._window_marks(),
            }
        return {
            "queue_depth": self.queue_depth,
            "tenants": len(lanes),
            "pool": pool,
            "lanes": dict(sorted(lanes.items())),
            "busy_seconds": busy,
            "wall_seconds": wall,
            "overlap": busy / wall,
        }
