"""Live re-provisioning: ``StagedExecutor.resize`` and the resizable
admission gates.

The elastic-pool contract: growing spawns workers that join the ready
loop immediately, shrinking retires exactly the requested number of
workers *at stage boundaries* (never mid-batch), and neither direction
may disturb the scheduler's invariants — per-application FIFO through
both stages, at most one in-flight batch per (lane, stage) — so
results stay byte-identical to the serial path through any resize
schedule. Every accepted future resolves across shrink + close, and
the ``no_thread_leaks`` fixture holds the hygiene line throughout.

The admission side mirrors it: ``TokenBucket.resize`` re-prices time
at the boundary without minting a burst, ``AdmissionController.resize``
swaps bounds under load without disturbing in-flight work.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.backends.admission import AdmissionController, TokenBucket
from repro.errors import AdmissionError, ServiceError
from repro.forecast import Blueprint, BlueprintDiff, PredictiveProvisioner
from repro.runtime.executor import StagedExecutor

WAIT = 10.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def doubling_executor(**kwargs) -> StagedExecutor:
    return StagedExecutor(
        lambda app, item: item * 2,
        lambda app, staged: staged + 1,
        **kwargs,
    )


def wait_for_workers(ex: StagedExecutor, n: int, timeout: float = WAIT) -> int:
    """Wait until retire tokens drain and exactly ``n`` workers remain."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = ex.stats()["pool"]["workers_alive"]
        if alive == n:
            return alive
    return ex.stats()["pool"]["workers_alive"]


class TestExecutorResize:
    @pytest.fixture(autouse=True)
    def _hygiene(self, no_thread_leaks):
        yield

    def test_grow_mid_stream_keeps_results_identical(self):
        with doubling_executor(label_workers=1, dispatch_workers=1) as ex:
            futures = []
            for i in range(40):
                futures.append(ex.submit(f"app{i % 4}", i))
                if i == 10:
                    pool = ex.resize(label_workers=4, dispatch_workers=4)
                    assert pool["label_workers"] == 4
                    assert pool["dispatch_workers"] == 4
                    assert pool["workers_alive"] == 8
            assert [f.result(WAIT) for f in futures] == [
                i * 2 + 1 for i in range(40)
            ]
            assert ex.stats()["pool"]["resizes"] == 1

    def test_shrink_mid_stream_retires_at_stage_boundaries(self):
        with doubling_executor(label_workers=4, dispatch_workers=4) as ex:
            futures = []
            for i in range(60):
                futures.append(ex.submit(f"app{i % 6}", i))
                if i == 20:
                    ex.resize(label_workers=1, dispatch_workers=1)
            assert [f.result(WAIT) for f in futures] == [
                i * 2 + 1 for i in range(60)
            ]
            # the retire tokens drain once in-flight batches finish
            assert wait_for_workers(ex, 2) == 2
            pool = ex.stats()["pool"]
            assert pool["workers_retired"] == 6
            assert pool["label_workers"] == 1
            assert pool["dispatch_workers"] == 1

    def test_resize_churn_under_load_resolves_every_future(self):
        """A hostile resize schedule mid-load: every future resolves,
        in submission order per lane, and the pool settles."""
        schedule = [(3, 5), (1, 1), (5, 2), (2, 6), (1, 1)]
        with doubling_executor(label_workers=2, dispatch_workers=2) as ex:
            futures = []
            for i in range(100):
                futures.append(ex.submit(f"t{i % 8}", i))
                if i % 20 == 10:
                    lw, dw = schedule[(i // 20) % len(schedule)]
                    ex.resize(label_workers=lw, dispatch_workers=dw)
            assert [f.result(WAIT) for f in futures] == [
                i * 2 + 1 for i in range(100)
            ]
            assert wait_for_workers(ex, 2) == 2  # last resize: 1 + 1

    def test_shrink_then_close_strands_nothing(self):
        """close() must drain accepted work even while retire tokens
        are still queued behind it."""
        release = threading.Event()

        def slow_label(app, item):
            assert release.wait(WAIT)
            return item

        ex = StagedExecutor(
            slow_label, lambda app, staged: staged,
            label_workers=4, dispatch_workers=2,
        )
        futures = [ex.submit("X", i) for i in range(4)]
        ex.resize(label_workers=1, dispatch_workers=1)  # tokens parked
        release.set()
        ex.close()
        assert [f.result(WAIT) for f in futures] == list(range(4))
        assert ex.stats()["pool"]["workers_alive"] == 0

    def test_grow_actually_adds_concurrency(self):
        """After growing, the new workers genuinely run batches in
        parallel: 4 gated batches on 4 lanes finish together."""
        gate = threading.Barrier(4, timeout=WAIT)

        def rendezvous(app, item):
            gate.wait()  # only passes when 4 workers are inside
            return item

        with StagedExecutor(
            rendezvous, lambda app, staged: staged,
            label_workers=1, dispatch_workers=1,
        ) as ex:
            ex.resize(label_workers=4)
            futures = [ex.submit(f"app{i}", i) for i in range(4)]
            assert [f.result(WAIT) for f in futures] == list(range(4))
            assert ex.stats()["pool"]["max_label_active"] == 4

    def test_resize_noop_and_validation(self):
        with doubling_executor(label_workers=2, dispatch_workers=2) as ex:
            pool = ex.resize(label_workers=2, dispatch_workers=2)
            assert pool["resizes"] == 0  # nothing changed
            with pytest.raises(ServiceError, match=">= 1"):
                ex.resize(label_workers=0)
            with pytest.raises(ServiceError, match=">= 1"):
                ex.resize(dispatch_workers=-1)
        with pytest.raises(ServiceError, match="closed"):
            ex.resize(label_workers=3)

    @pytest.mark.parametrize("bad", [(4, 0), (0, 4)])
    def test_rejected_resize_changes_neither_pool(self, bad):
        """Both targets are validated before either is applied: a call
        that names one valid and one invalid target leaves the pool —
        and so the provisioner's ``applied`` report — exactly as it was."""
        def ledger(pool: dict) -> dict:
            return {
                key: pool[key]
                for key in (
                    "label_workers", "dispatch_workers", "workers_alive",
                    "resizes", "workers_retired",
                )
            }

        label_workers, dispatch_workers = bad
        with doubling_executor(label_workers=2, dispatch_workers=2) as ex:
            before = ledger(ex.stats()["pool"])
            with pytest.raises(ServiceError, match=">= 1"):
                ex.resize(
                    label_workers=label_workers, dispatch_workers=dispatch_workers
                )
            assert ledger(ex.stats()["pool"]) == before
            # the provisioner reports the same truth: nothing applied
            provisioner = PredictiveProvisioner(clock=FakeClock())
            provisioner.bind(executor=ex)
            applied = provisioner.apply(
                BlueprintDiff(
                    current=Blueprint(label_workers=2, dispatch_workers=2),
                    recommended=Blueprint(
                        label_workers=label_workers,
                        dispatch_workers=dispatch_workers,
                    ),
                )
            )
            assert applied["pool"] is False
            assert provisioner.snapshot()["apply_errors"] == 1
            assert ledger(ex.stats()["pool"]) == before
            # a following valid resize still converges
            ex.resize(label_workers=3, dispatch_workers=1)
            assert [ex.submit("X", i).result(WAIT) for i in range(4)] == [
                1, 3, 5, 7,
            ]
            assert wait_for_workers(ex, 4) == 4
            pool = ex.stats()["pool"]
            assert (pool["label_workers"], pool["dispatch_workers"]) == (3, 1)
            assert pool["resizes"] == 1 and pool["workers_retired"] == 1

    def test_worker_names_stay_unique_across_generations(self):
        """Shrink-then-grow must not reuse thread names — the spawn
        index is per-stage monotonic, so dumps stay unambiguous."""
        with doubling_executor(label_workers=2, dispatch_workers=1) as ex:
            ex.resize(label_workers=1)
            first = {t.name for t in ex._stages[0].threads}
            ex.resize(label_workers=3)
            names = [t.name for t in ex._stages[0].threads]
            # the retired worker may already be pruned from the list
            assert len(names) == len(set(names))
            assert len(first | set(names)) == 4  # 2 + 2 spawned

    def test_retired_workers_leave_the_thread_list(self):
        """Resize churn must not grow the kept thread list: a worker
        that took a retire token and exited is dropped on the next
        resize, and close() still joins every live one."""
        with doubling_executor(label_workers=1, dispatch_workers=1) as ex:
            for _ in range(50):
                ex.resize(label_workers=3, dispatch_workers=3)
                ex.resize(label_workers=1, dispatch_workers=1)
            assert wait_for_workers(ex, 2) == 2
            deadline = time.monotonic() + WAIT
            while time.monotonic() < deadline and any(
                sum(t.is_alive() for t in stage.threads) > 1
                for stage in ex._stages
            ):
                time.sleep(0.001)
            ex.resize(label_workers=1, dispatch_workers=1)
            for stage in ex._stages:
                assert [t.is_alive() for t in stage.threads] == [True]
            assert ex.submit("X", 1).result(WAIT) == 3

    def test_pool_window_resets_to_current_occupancy(self):
        release = threading.Event()
        entered = threading.Event()

        def gated(app, item):
            entered.set()
            assert release.wait(WAIT)
            return item

        with StagedExecutor(
            gated, lambda app, staged: staged,
            label_workers=2, dispatch_workers=1,
        ) as ex:
            future = ex.submit("X", 1)
            assert entered.wait(WAIT)
            # one worker is mid-batch: a reset re-seeds at 1, not 0
            window = ex.pool_window(reset=True)
            assert window["window_max_label_active"] == 1
            assert ex.pool_window()["window_max_label_active"] == 1
            release.set()
            assert future.result(WAIT) == 1
        # after the pool drains a reset re-seeds at zero
        assert ex.pool_window(reset=True)["window_max_label_active"] >= 0

    def test_stats_pool_carries_window_and_resize_counters(self):
        with doubling_executor(label_workers=1, dispatch_workers=1) as ex:
            assert ex.submit("X", 1).result(WAIT) == 3
            pool = ex.stats()["pool"]
            for key in (
                "workers_alive",
                "resizes",
                "workers_retired",
                "window_max_label_active",
                "window_max_dispatch_active",
                "window_seconds",
            ):
                assert key in pool
            assert pool["window_max_label_active"] == 1
            window = ex.pool_window(reset=True)
            assert window["window_max_label_active"] == 1
            assert ex.pool_window()["window_max_label_active"] == 0


class TestTokenBucketResize:
    def test_grow_burst_never_mints_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=10.0, clock=clock)
        assert bucket.take(10) == 10  # drain the initial burst
        bucket.resize(burst=100.0)
        assert bucket.available == 0  # headroom grew; balance did not
        clock.advance(1.0)
        assert bucket.available == 10  # fills at the (unchanged) rate

    def test_shrink_burst_forfeits_excess(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=100.0, clock=clock)
        assert bucket.available == 100
        bucket.resize(burst=5.0)
        assert bucket.available == 5

    def test_rate_change_prices_elapsed_time_at_old_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=100.0, clock=clock)
        bucket.take(100)  # empty
        clock.advance(5.0)  # 10 tokens owed at the old rate
        bucket.resize(rate=50.0)
        assert bucket.available == 10  # not 250: old time, old price
        clock.advance(1.0)
        assert bucket.available == 60  # new time, new price

    def test_resize_validation(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=FakeClock())
        with pytest.raises(AdmissionError):
            bucket.resize(rate=0.0)
        with pytest.raises(AdmissionError):
            bucket.resize(burst=-1.0)


class TestAdmissionControllerResize:
    def test_shrink_below_in_flight_pauses_without_disturbing_work(self):
        gate = AdmissionController(max_in_flight=8)
        assert gate.admit(6) == 6
        snap = gate.resize(max_in_flight=2)
        assert snap["max_in_flight"] == 2
        assert snap["in_flight"] == 6  # admitted work is never evicted
        assert gate.admit(1) == 0  # paused until releases drain
        gate.release(5)
        assert gate.admit(1) == 1

    def test_grow_in_flight_unblocks_admission(self):
        gate = AdmissionController(max_in_flight=1)
        assert gate.admit(1) == 1
        assert gate.admit(1) == 0
        gate.resize(max_in_flight=4)
        assert gate.admit(3) == 3

    def test_adding_rate_to_unlimited_gate_starts_empty(self):
        clock = FakeClock()
        gate = AdmissionController(clock=clock)
        assert gate.admit(100) == 100  # unlimited
        gate.resize(rate=10.0, burst=20.0)
        assert gate.admit(5) == 0  # no free initial burst
        clock.advance(1.0)
        assert gate.admit(20) == 10  # refilled at the new rate

    def test_removing_rate_and_bound_returns_to_unlimited(self):
        clock = FakeClock()
        gate = AdmissionController(max_in_flight=2, rate=1.0, clock=clock)
        gate.resize(max_in_flight=None, rate=None)
        assert gate.admit(500) == 500
        snap = gate.snapshot()
        assert snap["max_in_flight"] is None
        assert snap["rate"] is None and snap["burst"] is None

    def test_rate_resize_keeps_bucket_discipline(self):
        clock = FakeClock()
        gate = AdmissionController(rate=10.0, burst=10.0, clock=clock)
        assert gate.admit(10) == 10  # initial burst (constructor-full)
        gate.resize(rate=100.0, burst=200.0)
        assert gate.admit(50) == 0  # resize minted nothing
        clock.advance(0.5)
        assert gate.admit(100) == 50

    def test_resize_validation_and_counter(self):
        gate = AdmissionController(max_in_flight=4)
        with pytest.raises(AdmissionError):
            gate.resize(max_in_flight=0)
        with pytest.raises(AdmissionError):
            gate.resize(burst=5.0)  # burst without a rate
        assert gate.snapshot()["resizes"] == 0
        gate.resize(max_in_flight=8)
        gate.resize(rate=1.0)
        assert gate.snapshot()["resizes"] == 2
