"""The staged executor's shared stage pool.

The overlap and isolation properties are proven with events, not
timing: a test that requires stage B of batch *n* to wait on stage A
of batch *n+1* can only pass when the stages genuinely run
concurrently, and the per-lane serialization invariant is proven by
counting concurrent stage entries per application under a pool wide
enough to violate it.
"""

from __future__ import annotations

import threading
import time

import pytest
from scripted_backend import ScriptedBackend

from repro.backends import NullBackend
from repro.core import QuercService
from repro.errors import ServiceError
from repro.runtime import StagedExecutor
from repro.workloads import (
    QueryLogRecord,
    QueryStream,
    StreamBatch,
    interleave_streams,
)

WAIT = 20.0  # generous: only ever hit when pipelining is broken


class _Hostile(BaseException):
    """Not an ``Exception``: only a ``BaseException`` guard catches it."""


def _identity(app, item):
    return item


def _records(n: int, tag: str = "q") -> list[QueryLogRecord]:
    return [QueryLogRecord(query=f"select {tag}_{i} from t") for i in range(n)]


def _batch(app: str, step: int, n: int = 4) -> StreamBatch:
    return StreamBatch(
        application=app, time_step=step, records=tuple(_records(n, f"{app}{step}"))
    )


# -- StagedExecutor -----------------------------------------------------------


class TestStagedExecutor:
    @pytest.fixture(autouse=True)
    def _hygiene(self, no_thread_leaks):
        # every test here closes its executor; none may leak a worker
        yield

    def test_results_in_order_with_both_stages_applied(self):
        with StagedExecutor(
            label_fn=lambda app, item: item * 2,
            dispatch_fn=lambda app, staged: staged + 1,
        ) as ex:
            futures = [ex.submit("X", i) for i in range(10)]
            assert [f.result(WAIT) for f in futures] == [
                i * 2 + 1 for i in range(10)
            ]

    def test_stage_b_overlaps_stage_a_across_batches(self):
        """Dispatch of batch 1 waits for batch 2's labeling — possible
        only if the stages are pipelined across batches."""
        second_labeled = threading.Event()
        overlapped = []

        def label(app, item):
            if item == 2:
                second_labeled.set()
            return item

        def dispatch(app, item):
            if item == 1:
                overlapped.append(second_labeled.wait(WAIT))
            return item

        with StagedExecutor(label, dispatch) as ex:
            futures = [ex.submit("X", 1), ex.submit("X", 2)]
            assert [f.result(WAIT) for f in futures] == [1, 2]
        assert overlapped == [True]

    def test_lanes_isolate_applications(self):
        """A blocked stage A on one application must not stall another
        application's lane."""
        release_x = threading.Event()

        def label(app, item):
            if app == "X":
                assert release_x.wait(WAIT)
            return item

        with StagedExecutor(label, lambda app, item: item) as ex:
            slow = ex.submit("X", "stuck")
            fast = [ex.submit("Y", i) for i in range(5)]
            # Y's whole stream completes while X is still blocked
            assert [f.result(WAIT) for f in fast] == list(range(5))
            assert not slow.done()
            release_x.set()
            assert slow.result(WAIT) == "stuck"

    def test_per_application_ordering_is_preserved(self):
        seen: dict[str, list[int]] = {"X": [], "Y": []}
        lock = threading.Lock()

        def dispatch(app, item):
            with lock:
                seen[app].append(item)
            return item

        with StagedExecutor(lambda app, item: item, dispatch) as ex:
            futures = [
                ex.submit("X" if i % 2 == 0 else "Y", i) for i in range(20)
            ]
            [f.result(WAIT) for f in futures]
        assert seen["X"] == [i for i in range(20) if i % 2 == 0]
        assert seen["Y"] == [i for i in range(20) if i % 2 == 1]

    @pytest.mark.parametrize("stage", ["label", "dispatch"])
    @pytest.mark.parametrize("error", [ValueError, _Hostile])
    def test_stage_error_resolves_future_and_spares_the_lane(self, stage, error):
        """Either stage function raising — an ``Exception`` or a bare
        ``BaseException`` — fails that batch only: its future carries
        the error, the worker stays alive, the lane's next batch
        completes, and the stage's error counter moves by exactly one."""
        def maybe_raise(app, item):
            if item == "bad":
                raise error("boom")
            return item

        fns = {"label": _identity, "dispatch": _identity, stage: maybe_raise}
        with StagedExecutor(
            fns["label"], fns["dispatch"], label_workers=1, dispatch_workers=1
        ) as ex:
            bad = ex.submit("X", "bad")
            good = ex.submit("X", "good")
            with pytest.raises(error, match="boom"):
                bad.result(WAIT)
            assert good.result(WAIT) == "good"
            stats = ex.stats()
        assert stats["pool"]["workers_alive"] == 2
        lane = stats["lanes"]["X"]
        other = "dispatch" if stage == "label" else "label"
        assert lane[f"{stage}_errors"] == 1
        assert lane[f"{other}_errors"] == 0
        assert lane["dispatched_batches"] == 1
        # the failed batch left stage A only when stage B is what failed
        assert lane["labeled_batches"] == (1 if stage == "label" else 2)

    def test_submit_after_close_raises(self):
        ex = StagedExecutor(lambda app, item: item, lambda app, item: item)
        ex.submit("X", 1)
        ex.close()
        ex.close()  # idempotent
        with pytest.raises(ServiceError):
            ex.submit("X", 2)

    def test_new_lane_after_close_raises(self):
        # a lane born after close() snapshotted the lane table would
        # never get a shutdown sentinel — it must be refused instead
        ex = StagedExecutor(lambda app, item: item, lambda app, item: item)
        ex.submit("X", 1)
        ex.close()
        with pytest.raises(ServiceError):
            ex.submit("Y", 1)

    def test_submit_racing_close_never_strands_a_future(self):
        # producers hammer submit while close() lands mid-stream: every
        # future must either resolve or the submit must raise — none
        # may silently queue behind the shutdown sentinel and hang
        for _ in range(20):
            ex = StagedExecutor(lambda app, item: item, lambda app, item: item)
            futures: list = []
            rejected = threading.Event()

            def produce():
                for i in range(50):
                    try:
                        futures.append(ex.submit("X", i))
                    except ServiceError:
                        rejected.set()
                        return

            producer = threading.Thread(target=produce)
            producer.start()
            ex.close()
            producer.join(WAIT)
            assert not producer.is_alive()
            for future in futures:
                assert future.result(WAIT) is not None
            assert rejected.is_set() or len(futures) == 50

    def test_map_keeps_input_order_across_lanes(self):
        batches = [_batch("X", 0), _batch("Y", 0), _batch("X", 1)]
        with StagedExecutor(
            lambda app, b: (app, b.time_step), lambda app, staged: staged
        ) as ex:
            assert ex.map(batches) == [("X", 0), ("Y", 0), ("X", 1)]

    def test_one_completion_hook_per_stage_and_no_tuner(self):
        """The stage pool's only feedback is ``dispatch_feedback``:
        there is no batch-size tuner to attach, here or anywhere in the
        public API."""
        import importlib.util

        import repro
        import repro.runtime
        import repro.workloads

        with pytest.raises(TypeError):
            StagedExecutor(_identity, _identity, tuner=object())
        for module in (repro, repro.runtime, repro.workloads):
            exported = set(getattr(module, "__all__", ())) | set(dir(module))
            assert not exported & {"BatchSizeTuner", "rebatch_streams"}
        assert importlib.util.find_spec("repro.runtime.tuner") is None
        assert not hasattr(QuercService, "set_batch_tuner")
        assert "tuner" not in QuercService().stats()

    def test_stats_shape_and_bounded_queues(self):
        with StagedExecutor(
            lambda app, item: item, lambda app, item: item, queue_depth=2
        ) as ex:
            [f.result(WAIT) for f in [ex.submit("X", i) for i in range(12)]]
            stats = ex.stats()
            window = ex.pool_window()
        # the full key sets: consumers (service stats, the provisioner,
        # the spine tracer) read these by name
        assert set(stats) == {
            "queue_depth", "tenants", "pool", "lanes",
            "busy_seconds", "wall_seconds", "overlap",
        }
        assert set(stats["pool"]) == {
            "label_workers", "dispatch_workers", "threads",
            "workers_alive", "resizes", "workers_retired",
            "label_active", "dispatch_active",
            "max_label_active", "max_dispatch_active",
            "window_max_label_active", "window_max_dispatch_active",
            "window_seconds",
        }
        assert set(stats["lanes"]["X"]) == {
            "submitted", "labeled_batches", "labeled_queries",
            "dispatched_batches", "label_seconds", "dispatch_seconds",
            "label_errors", "dispatch_errors", "feedback_errors",
            "ingress_depth", "handoff_depth", "max_handoff_depth",
            "label_busy", "dispatch_busy",
        }
        assert set(window) == {
            "window_max_label_active", "window_max_dispatch_active",
            "window_seconds",
        }
        # both views read the same marks
        for key in ("window_max_label_active", "window_max_dispatch_active"):
            assert stats["pool"][key] == window[key]
        lane = stats["lanes"]["X"]
        assert lane["submitted"] == lane["labeled_batches"] == 12
        assert lane["dispatched_batches"] == 12
        assert lane["max_handoff_depth"] <= 2
        assert stats["queue_depth"] == 2
        assert stats["busy_seconds"] >= 0
        assert 0 <= stats["overlap"]
        assert stats["tenants"] == 1
        pool = stats["pool"]
        assert pool["threads"] == pool["label_workers"] + pool["dispatch_workers"]
        assert 1 <= pool["max_label_active"] <= pool["label_workers"]
        assert 1 <= pool["max_dispatch_active"] <= pool["dispatch_workers"]

    def test_try_submit_returns_none_on_full_lane_then_recovers(self):
        # the serving tier's bridge depends on this exact contract:
        # a full ingress yields None (never blocks), and room freed by
        # the label worker makes the same offer succeed
        entered = threading.Event()
        release = threading.Event()

        def label(app, item):
            entered.set()
            assert release.wait(WAIT)
            return item

        ex = StagedExecutor(
            label, lambda app, item: item, queue_depth=1, label_workers=1
        )
        try:
            held = ex.submit("X", 0)
            assert entered.wait(WAIT)  # worker holds item 0, blocked
            queued = ex.try_submit("X", 1)  # fills the depth-1 ingress
            assert queued is not None
            assert ex.try_submit("X", 2) is None  # full: refused, no block
            release.set()
            assert held.result(WAIT) == 0
            assert queued.result(WAIT) == 1
            late = ex.try_submit("X", 3)
            assert late is not None
            assert late.result(WAIT) == 3
        finally:
            release.set()
            ex.close()

    def test_try_submit_after_close_raises(self):
        ex = StagedExecutor(lambda a, i: i, lambda a, i: i)
        ex.close()
        with pytest.raises(ServiceError):
            ex.try_submit("X", 1)

    def test_done_callback_fires_exactly_once_either_side_of_done(self):
        calls: list[tuple[str, bool]] = []
        with StagedExecutor(lambda a, i: i, lambda a, i: i) as ex:
            future = ex.submit("X", 7)
            future.add_done_callback(
                lambda f: calls.append(("early", f.done()))
            )
            assert future.result(WAIT) == 7
            future.add_done_callback(
                lambda f: calls.append(("late", f.done()))
            )
        assert sorted(calls) == [("early", True), ("late", True)]

    def test_done_callback_fires_on_failed_future_too(self):
        def dispatch(app, item):
            raise RuntimeError("db down")

        seen: list = []
        with StagedExecutor(lambda a, i: i, dispatch) as ex:
            future = ex.submit("X", 1)
            future.add_done_callback(lambda f: seen.append(f))
            with pytest.raises(RuntimeError):
                future.result(WAIT)
        assert seen == [future]
        assert future.done()

    def test_done_callback_exception_does_not_break_resolution(self):
        def bad_callback(_f):
            raise ValueError("observer bug")

        with StagedExecutor(lambda a, i: i, lambda a, i: i) as ex:
            future = ex.submit("X", 5)
            future.add_done_callback(bad_callback)
            # the observer's failure stays the observer's problem
            assert future.result(WAIT) == 5

    def test_done_callback_raising_a_non_exception_cannot_hang_close(self):
        """The stdlib future re-raises a callback's non-``Exception``;
        the batch must still leave the drain ledger and the worker live."""
        release = threading.Event()

        def dispatch(app, item):
            assert release.wait(WAIT)
            return item

        def hostile(_f):
            raise _Hostile("observer escaped")

        ex = StagedExecutor(lambda a, i: i, dispatch, dispatch_workers=1)
        future = ex.submit("X", 5)
        future.add_done_callback(hostile)
        release.set()
        assert future.result(WAIT) == 5
        assert ex.submit("X", 6).result(WAIT) == 6  # the worker survived
        closer = threading.Thread(target=ex.close)
        closer.start()
        closer.join(WAIT)
        assert not closer.is_alive()

    def test_accepted_future_cannot_be_cancelled(self):
        release = threading.Event()

        def label(app, item):
            assert release.wait(WAIT)
            return item

        with StagedExecutor(label, lambda a, i: i, label_workers=1) as ex:
            first = ex.submit("X", 1)
            queued = ex.submit("X", 2)  # still on the lane's ingress
            assert not first.cancel() and not queued.cancel()
            release.set()
            assert [first.result(WAIT), queued.result(WAIT)] == [1, 2]

    def test_invalid_queue_depth_rejected(self):
        with pytest.raises(ServiceError):
            StagedExecutor(lambda a, i: i, lambda a, i: i, queue_depth=0)

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ServiceError):
            StagedExecutor(lambda a, i: i, lambda a, i: i, label_workers=0)
        with pytest.raises(ServiceError):
            StagedExecutor(lambda a, i: i, lambda a, i: i, dispatch_workers=0)


class TestSharedStagePool:
    """The many-tenant properties of the shared pool scheduler."""

    @pytest.fixture(autouse=True)
    def _hygiene(self, no_thread_leaks):
        yield

    def test_thread_count_tracks_pool_size_not_tenants(self):
        """32 tenants on a (2, 3) pool: exactly 5 worker threads."""
        def worker_threads():
            return [
                t
                for t in threading.enumerate()
                if t.name.startswith(("querc-label-", "querc-dispatch-"))
            ]

        assert worker_threads() == []
        with StagedExecutor(
            lambda app, item: item,
            lambda app, item: item,
            label_workers=2,
            dispatch_workers=3,
        ) as ex:
            results = ex.map(
                [_batch(f"tenant-{i % 32}", i) for i in range(96)]
            )
            assert len(results) == 96
            assert len(worker_threads()) == 5
            stats = ex.stats()
        assert stats["tenants"] == 32
        assert stats["pool"]["threads"] == 5
        assert all(
            lane["labeled_batches"] == 3 for lane in stats["lanes"].values()
        )

    def test_at_most_one_batch_in_flight_per_lane_per_stage(self):
        """A wide pool must never run two batches of one application
        concurrently in the same stage — but it must run different
        applications' batches concurrently (proven with a barrier that
        only a genuinely shared pool can satisfy)."""
        lock = threading.Lock()
        in_label: dict[str, int] = {}
        max_in_label: dict[str, int] = {}
        barrier = threading.Barrier(2)
        first = {"X": True, "Y": True}

        def label(app, item):
            with lock:
                in_label[app] = in_label.get(app, 0) + 1
                max_in_label[app] = max(max_in_label.get(app, 0), in_label[app])
                hit_barrier = first[app]
                first[app] = False
            if hit_barrier:
                # both tenants' first batches must be in stage A at
                # once; per-tenant threads or a serial pool would
                # deadlock here (the timeout turns that into a failure)
                barrier.wait(WAIT)
            with lock:
                in_label[app] -= 1
            return item

        with StagedExecutor(
            label, lambda app, item: item, label_workers=4, dispatch_workers=2
        ) as ex:
            futures = [ex.submit("X" if i % 2 else "Y", i) for i in range(16)]
            [f.result(WAIT) for f in futures]
        assert max_in_label == {"X": 1, "Y": 1}

    def test_blocked_tenant_occupies_at_most_one_worker(self):
        """Tenant X has many queued batches and a stuck stage A; only
        one of the two label workers may be held, so tenant Y's whole
        stream still flows."""
        release = threading.Event()

        def label(app, item):
            if app == "X":
                assert release.wait(WAIT)
            return item

        with StagedExecutor(
            label, lambda app, item: item, label_workers=2, dispatch_workers=2
        ) as ex:
            stuck = [ex.submit("X", i) for i in range(4)]  # queue_depth default
            fast = [ex.submit("Y", i) for i in range(8)]
            assert [f.result(WAIT) for f in fast] == list(range(8))
            assert not any(f.done() for f in stuck)
            release.set()
            assert [f.result(WAIT) for f in stuck] == list(range(4))

    def test_concurrent_close_callers_all_wait_for_the_drain(self):
        """A second close() racing the first must not return before the
        drain finishes — both callers may rely on close()'s guarantees."""
        release = threading.Event()

        def dispatch(app, item):
            assert release.wait(WAIT)
            return item

        ex = StagedExecutor(
            lambda app, item: item, dispatch, label_workers=1, dispatch_workers=1
        )
        future = ex.submit("X", 1)
        closers = [threading.Thread(target=ex.close) for _ in range(2)]
        for t in closers:
            t.start()
        # the batch is stuck in dispatch: neither close() may return yet
        for t in closers:
            t.join(0.2)
        assert all(t.is_alive() for t in closers)
        release.set()
        for t in closers:
            t.join(WAIT)
        assert not any(t.is_alive() for t in closers)
        assert future.result(WAIT) == 1

    @pytest.mark.parametrize(
        "hostile",
        [("label",), ("dispatch",), ("label", "dispatch")],
        ids=["label", "dispatch", "both"],
    )
    def test_hostile_hooks_never_kill_a_worker(self, hostile):
        """A stage's completion hook raising — the query count after
        stage A (a batch whose ``len()`` raises), the feedback after
        stage B, even a BaseException — is counted per lane; the batch
        resolves, the pool survives, and close() still drains (a dead
        worker would wedge it)."""
        seen: list[str] = []

        class ExplodingLen:
            def __len__(self):
                if "label" in hostile:
                    raise _Hostile("no length for you")
                raise ValueError("no length for you")

        def feedback(app, result):
            if "dispatch" in hostile:
                raise _Hostile("feedback down")
            seen.append("feedback")

        with StagedExecutor(
            _identity,
            lambda app, item: "placed",
            dispatch_feedback=feedback,
            label_workers=1,
            dispatch_workers=1,
        ) as ex:
            futures = [ex.submit("X", ExplodingLen()) for _ in range(3)]
            assert [f.result(WAIT) for f in futures] == ["placed"] * 3
            stats = ex.stats()
        lane = stats["lanes"]["X"]
        # a hostile hook failed on every batch — and none of it failed
        # a batch or a worker, or kept the healthy hook from running
        assert lane["feedback_errors"] == 3 * len(hostile)
        assert len(seen) == 3 * ("dispatch" not in hostile)
        assert lane["dispatched_batches"] == lane["labeled_batches"] == 3
        # an unsizable batch counts as one; a hostile count adds nothing
        assert lane["labeled_queries"] == 3 * ("label" not in hostile)
        assert lane["label_errors"] == lane["dispatch_errors"] == 0
        assert stats["pool"]["workers_alive"] == 2

    def test_raising_clock_resolves_the_batch_and_spares_the_worker(self):
        """Even the injected clock blowing up mid-batch must resolve
        that batch's future and leave the pool serving — a dead worker
        would wedge the lane and hang close()."""
        calls = {"n": 0}
        armed = threading.Event()

        def flaky_clock():
            if armed.is_set():
                armed.clear()
                raise RuntimeError("clock down")
            calls["n"] += 1
            return float(calls["n"])

        with StagedExecutor(
            lambda app, item: item,
            lambda app, item: item,
            clock=flaky_clock,
            label_workers=1,
            dispatch_workers=1,
        ) as ex:
            # arm after construction so the failure lands mid-batch (the
            # stage-A timing read), the worst possible spot
            armed.set()
            first = ex.submit("X", 1)
            with pytest.raises(RuntimeError, match="clock down"):
                first.result(WAIT)
            # the worker survived: later batches flow normally
            assert [ex.submit("X", i).result(WAIT) for i in (2, 3)] == [2, 3]
            # ...and the fallback-failed batch is a counted error, so
            # submitted still reconciles with labeled + errors
            lane = ex.stats()["lanes"]["X"]
        assert lane["label_errors"] == 1
        assert lane["submitted"] == lane["labeled_batches"] + lane["label_errors"]

    def test_close_drains_backpressured_lane(self):
        """close() racing a producer blocked on a full ingress: every
        accepted future resolves, the blocked submit raises."""
        gate = threading.Event()
        labeling = threading.Event()

        def label(app, item):
            labeling.set()
            assert gate.wait(WAIT)
            return item

        ex = StagedExecutor(
            label, lambda app, item: item, queue_depth=1, label_workers=1,
            dispatch_workers=1,
        )
        accepted: list = []
        outcome: dict = {}

        def produce():
            try:
                for i in range(10):
                    accepted.append(ex.submit("X", i))
            except ServiceError:
                outcome["rejected"] = True

        producer = threading.Thread(target=produce)
        producer.start()
        # batch 0 is stuck inside stage A, so the producer is filling —
        # or already blocked on — the depth-1 ingress behind it
        assert labeling.wait(WAIT)
        closer = threading.Thread(target=ex.close)
        closer.start()
        gate.set()  # un-stick stage A so the drain can complete
        producer.join(WAIT)
        closer.join(WAIT)
        assert not producer.is_alive() and not closer.is_alive()
        assert outcome.get("rejected") or len(accepted) == 10
        for i, future in enumerate(accepted):
            assert future.result(WAIT) == i  # drained, in order, no strands

    def test_close_wakes_on_drain_without_polling(self):
        """close()'s drain wait is condition-notified: the moment the
        last outstanding batch resolves, the waiter wakes — no timed
        polling loop — and the worker-exit accounting reaches zero."""
        release = threading.Event()
        finished = {"at": 0.0}

        def dispatch(app, item):
            assert release.wait(WAIT)
            finished["at"] = time.monotonic()
            return item

        ex = StagedExecutor(
            lambda app, item: item, dispatch, label_workers=1, dispatch_workers=1
        )
        assert ex._workers_alive == 2
        future = ex.submit("X", 1)
        closer = threading.Thread(target=ex.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive()  # blocked on the outstanding batch
        release.set()
        closer.join(WAIT)
        assert not closer.is_alive()
        assert future.result(WAIT) == 1
        # every worker signed off through _worker_exit on its way out
        assert ex._workers_alive == 0
        assert finished["at"] > 0.0  # the batch genuinely ran during close


# -- service wiring -----------------------------------------------------------


class TestProcessRoutedConcurrent:
    @pytest.fixture(autouse=True)
    def _hygiene(self, no_thread_leaks):
        # process_routed_concurrent closes its executor before returning
        yield

    def _service(self) -> QuercService:
        service = QuercService()
        service.register_backend(NullBackend("DB(X)"))
        service.register_backend(NullBackend("DB(Y)"))
        service.add_application("X", backend="DB(X)")
        service.add_application("Y", backend="DB(Y)")
        # forked mode: labels go to the sinks, nothing is forwarded
        service.add_application("Z", forward_to_database=False)
        return service

    def _batches(self) -> list[StreamBatch]:
        streams = [
            QueryStream("X", _records(40, "x"), batch_size=8),
            QueryStream("Y", _records(24, "y"), batch_size=8),
        ]
        return list(interleave_streams(streams))

    def test_matches_serial_process_routed(self):
        batches = self._batches()
        # the two inputs with no dispatch: a forked application's batch
        # (labeled for the sinks, [] returned) and an empty batch
        forked = _batch("Z", 0)
        empty = StreamBatch(application="X", time_step=99, records=())
        batches[3:3] = [forked, empty]
        concurrent = self._service()
        serial = self._service()
        got = concurrent.process_routed_concurrent(batches)
        want = [serial.process_routed(b) for b in batches]
        assert len(got) == len(want) == len(batches)
        for batch, (got_labeled, got_report), (want_labeled, want_report) in zip(
            batches, got, want
        ):
            assert [m.query for m in got_labeled] == [
                m.query for m in want_labeled
            ]
            if batch is forked or batch is empty:
                assert (got_labeled, got_report) == ([], None)
                assert (want_labeled, want_report) == ([], None)
                continue
            assert got_report is not None and want_report is not None
            assert got_report.offered == want_report.offered
            assert got_report.admitted == want_report.admitted
            assert got_report.executed_ok == want_report.executed_ok

    def test_stats_carry_the_executor_section(self):
        service = self._service()
        assert service.stats()["executor"] is None
        service.process_routed_concurrent(self._batches())
        stats = service.stats()
        assert set(stats["executor"]["lanes"]) == {"X", "Y"}
        assert stats["executor"]["lanes"]["X"]["labeled_queries"] == 40
        # every query was placed exactly once on its tenant's backend
        for name, queries in (("DB(X)", 40), ("DB(Y)", 24)):
            backend = stats["backends"][name]
            assert backend["dispatched"] == backend["admitted"] == queries

    def test_no_provisioner_means_no_dispatch_feedback(self):
        """Without a provisioner the staged executor gets no completion
        hook after stage B at all."""
        service = self._service()
        with service.create_staged_executor() as ex:
            assert ex._stages[1].hook is None
            for batch in self._batches():
                labeled, report = ex.submit(batch.application, batch).result(WAIT)
                assert report is not None and len(labeled) == len(batch)
            stats = ex.stats()
        assert all(lane["feedback_errors"] == 0 for lane in stats["lanes"].values())

    def test_provisioner_observes_every_dispatch_completion(self):
        """The dispatch feedback is the provisioner's ``observe_result``
        then ``tick``, once per completed batch, with that batch's
        ``(labeled, report)`` result."""
        calls: list[tuple] = []

        class Recorder:
            def bind(self, **parts):
                calls.append(("bind", tuple(sorted(parts))))

            def observe_result(self, application, result):
                labeled, report = result
                calls.append(("observe", application, len(labeled), report.offered))

            def tick(self):
                calls.append(("tick",))

        service = self._service()
        service.set_provisioner(Recorder())
        batches = self._batches()
        with service.create_staged_executor(
            label_workers=1, dispatch_workers=1
        ) as ex:
            for batch in batches:
                ex.submit(batch.application, batch).result(WAIT)
        assert calls[:2] == [
            ("bind", ("registry", "router")),
            ("bind", ("executor", "registry", "router")),
        ]
        fed = calls[2:]
        assert fed[1::2] == [("tick",)] * len(batches)
        # one dispatch worker: completions arrive in submission order
        assert fed[0::2] == [
            ("observe", b.application, len(b), len(b)) for b in batches
        ]

    def test_failing_provisioner_never_fails_a_batch(self):
        class Broken:
            def bind(self, **parts):
                pass

            def observe_result(self, application, result):
                raise RuntimeError("forecaster down")

            def tick(self):
                raise AssertionError("tick after a failed observation")

            def snapshot(self):
                return {}

        service = self._service()
        service.set_provisioner(Broken())
        results = service.process_routed_concurrent(self._batches())
        assert [len(labeled) for labeled, _ in results] == [8] * 8
        lanes = service.stats()["executor"]["lanes"]
        assert {app: lane["feedback_errors"] for app, lane in lanes.items()} == {
            "X": 5,
            "Y": 3,
        }
        assert all(lane["dispatch_errors"] == 0 for lane in lanes.values())

    def test_batches_are_consumed_lazily_under_backpressure(self):
        """The input is pulled one accepted batch at a time: with stage
        B held, at most one batch sits in each stage's queue, one in
        stage B, and one in the blocked ``submit``."""
        entered, release = threading.Event(), threading.Event()

        def hold(call, now):
            entered.set()
            assert release.wait(WAIT)

        service = QuercService()
        service.register_backend(ScriptedBackend(NullBackend("DB(X)"), hold))
        service.add_application("X", backend="DB(X)")
        pulled: list[int] = []

        def batches():
            for step in range(12):
                pulled.append(step)
                yield _batch("X", step)

        results: list = []
        runner = threading.Thread(
            target=lambda: results.extend(
                service.process_routed_concurrent(batches(), queue_depth=1)
            )
        )
        runner.start()
        try:
            assert entered.wait(WAIT)
            assert len(pulled) <= 4
        finally:
            release.set()
            runner.join(WAIT)
        assert not runner.is_alive()
        assert pulled == list(range(12))
        assert [len(labeled) for labeled, _ in results] == [4] * 12

    def test_sink_failure_surfaces_after_dispatch_ran(self):
        """The training fork failing must not stop the batch from
        reaching its database — same contract as the serial path."""
        service = self._service()

        def bad_sink(app, labeled):
            raise RuntimeError("training fork down")

        service.application("X").worker.add_sink(bad_sink)
        backend = service.backends.get("DB(X)").backend
        batches = [_batch("X", 0, n=5)]
        with pytest.raises(ServiceError, match="sink"):
            service.process_routed_concurrent(batches)
        assert backend.accepted == 5  # dispatch still happened

    def test_pool_knobs_flow_through_and_undersized_pool_stays_serial_identical(self):
        """One label worker for two tenants: still serial-identical
        results, and the executor stats report the configured pool."""
        batches = self._batches()
        pooled = self._service()
        serial = self._service()
        got = pooled.process_routed_concurrent(
            batches, label_workers=1, dispatch_workers=2
        )
        want = [serial.process_routed(b) for b in batches]
        for (got_labeled, _), (want_labeled, _) in zip(got, want):
            assert [m.query for m in got_labeled] == [
                m.query for m in want_labeled
            ]
        pool = pooled.stats()["executor"]["pool"]
        assert pool["label_workers"] == 1
        assert pool["dispatch_workers"] == 2
        assert pool["max_label_active"] == 1

    def test_stage_pool_is_the_only_concurrency(self, monkeypatch):
        """A route table that splits every batch over two backends: each
        batch's groups run on the dispatch worker that holds it, so every
        thread started during the run is a stage worker."""
        service = QuercService(route_label="timestamp")
        a, b = NullBackend("DB(A)"), NullBackend("DB(B)")
        service.register_backend(a)
        service.register_backend(b)
        service.map_route(0.0, "DB(A)")
        service.map_route(1.0, "DB(B)")
        service.add_application("X", backend="DB(A)")
        records = [
            QueryLogRecord(query=f"select x_{i} from t", timestamp=float(i % 2))
            for i in range(32)
        ]
        batches = list(interleave_streams([QueryStream("X", records, batch_size=8)]))
        started: list[str] = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        results = service.process_routed_concurrent(
            batches, label_workers=2, dispatch_workers=2
        )
        monkeypatch.undo()
        service.close()
        for _, report in results:
            assert [d.backend for d in report.decisions] == ["DB(A)", "DB(B)"]
        assert a.accepted == b.accepted == 16
        assert sorted(started) == [
            "querc-dispatch-0", "querc-dispatch-1",
            "querc-label-0", "querc-label-1",
        ]

    def test_worker_state_matches_serial(self):
        batches = self._batches()
        concurrent = self._service()
        serial = self._service()
        concurrent.process_routed_concurrent(batches)
        for b in batches:
            serial.process_routed(b)
        for name in ("X", "Y"):
            got = concurrent.application(name).worker
            want = serial.application(name).worker
            assert got.processed_count == want.processed_count
            assert [m.query for m in got.window] == [m.query for m in want.window]

