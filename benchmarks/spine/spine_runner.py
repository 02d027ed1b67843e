"""One measured run of one ``spine`` workload: set up, warm up, drive the
timed window, verify outputs, report end-to-end and per-layer metrics.

Load is generated here; ``repro`` is the program under test. Three drivers:
a closed loop over loopback (2 connections x 4 outstanding batches), a closed
loop straight into the library stage pool (its lanes' bounded ingress is the
window), and an open loop over loopback that sends each batch at its seeded
due time and times it from then.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

import spine_workloads as W
from spine_trace import LAYERS, THREAD_LAYERS, Tracer

from repro.errors import ServerReplyError
from repro.server import AsyncQuercClient, EdgeAdmission, QuercServer, ServerThread
from repro.server.protocol import jsonable, labeled_to_wire, report_to_wire
from repro.sql.normalizer import reset_fingerprint_caches

END_TO_END = (
    "setup_s",
    "qps",
    "cpu_ms_per_query",
    "peak_rss_mb",
)
STEPS = tuple(f"r{k + 1}" for k in range(len(W.STEP_RATES_QPS)))
STEP_FIELDS = (
    "offered_qps",
    "goodput_qps",
    "p50_ms",
    "p95_ms",
    "shed_share",
    "backlog_end",
)
LAYER_FIELDS = ("calls", "cpu_us_per_query", "wall_us_per_query")
COUNT_METRICS = (
    "sql.normalizer.memo_hit_rate",
    "runtime.pipeline.dedup_ratio",
    "runtime.cache.hit_rate",
    "runtime.cache.evictions",
    "minidb.plancache.hit_rate",
    "minidb.plancache.evicted",
    "minidb.plancache.uncacheable",
    "backends.minidb_backend.failed_share",
    "backends.router.rejected",
    "backends.router.spilled",
    "server.edge.frames_shed",
    "server.edge.queries_shed",
    "server.protocol.bytes_in_per_query",
    "server.protocol.bytes_out_per_query",
    "server.protocol.errors",
    "runtime.executor.overlap",
    "runtime.executor.max_label_active",
    "runtime.executor.max_dispatch_active",
)
DERIVED_METRICS = (
    "loadgen.cpu_us_per_query",
    "runtime.executor.wait_us_per_query",
    "trace.coverage",
    "trace.overhead_share",
    "loadgen.batch_p50_ms",
    "loadgen.batch_p95_ms",
    "loadgen.fail_share",
    "loadgen.slo_qps",
    "loadgen.lag_p95_ms",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in print order."""
    names = [f"{layer}.{field}" for layer in LAYERS for field in LAYER_FIELDS]
    names += [f"{layer}.cpu_us_per_query" for layer in THREAD_LAYERS]
    names += COUNT_METRICS + DERIVED_METRICS
    names += [f"loadgen.{step}.{field}" for step in STEPS for field in STEP_FIELDS]
    return names


# -- environment ---------------------------------------------------------------------


class Env:
    """A set-up program instance plus the load generator's handles on it."""

    def __init__(self, inputs: W.Inputs, embedder, classifiers) -> None:
        self.inputs = inputs
        self.embedder = embedder
        self.classifiers = classifiers
        self.service = W.build_service(inputs, embedder, classifiers)
        self.wire = inputs.workload.wire
        # batch index -> (latency s, outcome or exception, done at, CPU at)
        self.results: dict[int, tuple] = {}
        self.executor = None
        self.server_thread = None
        self.loop = None
        self.clients: list[AsyncQuercClient] = []

    def start(self) -> None:
        if not self.wire:
            self.executor = self.service.create_staged_executor(
                label_workers=W.LABEL_WORKERS, dispatch_workers=W.DISPATCH_WORKERS
            )
            return
        options = {}
        if self.inputs.workload.open_share:
            options = {
                "edge": EdgeAdmission(
                    max_in_flight_queries=W.EDGE_MAX_IN_FLIGHT_QUERIES
                ),
                "max_inflight_per_session": W.SERVER_MAX_INFLIGHT_PER_SESSION,
            }
        server = QuercServer(
            self.service,
            label_workers=W.LABEL_WORKERS,
            dispatch_workers=W.DISPATCH_WORKERS,
            **options,
        )
        self.server_thread = ServerThread(server).start()
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect())

    async def _connect(self) -> None:
        host, port = self.server_thread.address
        for _ in range(W.CONNECTIONS):
            self.clients.append(await AsyncQuercClient(host, port).connect())

    async def _disconnect(self) -> None:
        for client in self.clients:
            await client.close()

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self._disconnect())
            self.loop.close()
        if self.server_thread is not None:
            self.server_thread.stop()
        if self.executor is not None:
            self.executor.close()
        self.service.close()

    def executor_stats(self) -> dict:
        if self.executor is not None:
            return self.executor.stats()
        return self.service.stats()["executor"]

    # -- closed loops ---------------------------------------------------------------

    def drive_closed(self, batches: list) -> None:
        """Run ``batches`` to completion, recording per batch index
        ``(latency, outcome, completion time, process CPU at completion)``.
        Every warm-up and both closed-loop windows use it."""
        if self.wire:
            self.loop.run_until_complete(self._drive_wire_closed(batches))
        else:
            self._drive_lib(batches)

    def _drive_lib(self, batches: list) -> None:
        results = self.results

        def done(future, index, started):
            now = time.perf_counter()
            try:
                outcome = future.result(timeout=0)
            except Exception as exc:  # noqa: BLE001 - a failed batch is an outcome
                outcome = exc
            results[index] = (now - started, outcome, now, time.process_time())

        futures = []
        for batch in batches:
            started = time.perf_counter()
            # blocks while the tenant's lane is full: that is the window
            future = self.executor.submit(batch.application, batch)
            future.add_done_callback(
                lambda f, i=batch.time_step, s=started: done(f, i, s)
            )
            futures.append(future)
        for future in futures:
            try:
                future.result()
            except Exception:  # noqa: BLE001 - recorded by the callback
                pass

    async def _drive_wire_closed(self, batches: list) -> None:
        results = self.results

        async def connection(client, mine):
            room = asyncio.Semaphore(W.WINDOW)

            def done(future, index, started):
                now = time.perf_counter()
                results[index] = (
                    now - started, _outcome(future), now, time.process_time()
                )
                room.release()

            for batch in mine:
                await room.acquire()
                started = time.perf_counter()
                future = await client.submit_future(
                    batch.queries(), application=batch.application
                )
                future.add_done_callback(
                    lambda f, i=batch.time_step, s=started: done(f, i, s)
                )
            for _ in range(W.WINDOW):  # drain
                await room.acquire()

        await asyncio.gather(
            *(
                connection(client, batches[c :: W.CONNECTIONS])
                for c, client in enumerate(self.clients)
            )
        )

    # -- open loop ------------------------------------------------------------------

    def drive_open(self) -> dict:
        return self.loop.run_until_complete(self._drive_open())

    async def _drive_open(self) -> dict:
        """Send every timed batch at its due time; latency runs from then.

        Returns the start time, each batch's generator lag, and a mark
        ``(time, process CPU, backlog)`` at the start and at the end of every
        slice. Backlog is batches due so far minus batches completed so far.
        """
        inputs = self.inputs
        results = self.results
        due = inputs.due
        clock = time.perf_counter
        completed = 0
        pending: set[asyncio.Future] = set()
        lags: list[float] = []
        start = clock() + 0.02
        marks = [(start, time.process_time(), 0)]

        def done(future, index, due_at):
            nonlocal completed
            completed += 1
            pending.discard(future)
            now = clock()
            results[index] = (now - due_at, _outcome(future), now, time.process_time())

        async def mark_at(offset):
            await asyncio.sleep(max(0.0, start + offset - clock()))
            now = clock()
            overdue = bisect.bisect_right(due, now - start)
            marks.append((now, time.process_time(), overdue - completed))

        async def mark_boundaries():
            for _, _, _, end in inputs.open_slices:
                await mark_at(end)

        async def send(batch, due_at):
            # its own task: a connection held up by the server (TCP
            # backpressure) must not delay the arrivals behind this one
            future = await self.clients[batch.time_step % W.CONNECTIONS].submit_future(
                batch.queries(), application=batch.application
            )
            pending.add(future)
            future.add_done_callback(
                lambda f, i=batch.time_step, d=due_at: done(f, i, d)
            )

        marker = asyncio.ensure_future(mark_boundaries())
        sends = []
        for i, batch in enumerate(inputs.opened):
            due_at = start + due[i]
            # never sleep past a due time to catch up: a late batch goes at once
            delay = due_at - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(clock() - due_at)
            sends.append(asyncio.ensure_future(send(batch, due_at)))
        await marker
        # what is still out after this has timed out: it stays absent from
        # ``results`` and is booked as a miss
        unsent = (await asyncio.wait(sends, timeout=W.DRAIN_TIMEOUT_S))[1]
        for task in unsent:
            task.cancel()
        if pending:
            await asyncio.wait(set(pending), timeout=W.DRAIN_TIMEOUT_S)
        return {"start": start, "lags": lags, "marks": marks}


def _outcome(future):
    exc = future.exception()
    return exc if exc is not None else future.result()


def set_up(name: str, seed: int, seconds: float) -> Env:
    """Everything before the timed window: data generation, training,
    materialisation, server start, connections and the untimed warm-up."""
    reset_fingerprint_caches()
    inputs = W.build_inputs(name, seed, seconds)
    embedder, classifiers = W.train_classifiers(inputs.train)
    # generation and training looked templates up in the process-wide memo;
    # the program starts cold
    reset_fingerprint_caches()
    env = Env(inputs, embedder, classifiers)
    env.start()
    env.drive_closed(inputs.batches[: inputs.n_warmup])
    return env


# -- measurement ---------------------------------------------------------------------


def _counters(env: Env) -> dict[str, float]:
    """Cumulative counts from the program's public ``stats()``."""
    stats = env.service.stats()
    runtime = stats["runtime"]
    plan = stats["plan_cache"] or {}
    server = stats["server"] or {}
    backends = list(stats["backends"].values())
    executor = env.executor_stats()
    return {
        "memo_hits": runtime["fingerprint_memo_hits"],
        "memo_misses": runtime["fingerprint_memo_misses"],
        "queries": runtime["queries"],
        "unique": runtime["unique_templates"],
        "cache_hits": runtime["cache_hits"],
        "cache_misses": runtime["cache_misses"],
        "cache_evictions": runtime["cache"]["evictions"],
        "plan_hits": plan.get("hits", 0),
        "plan_misses": plan.get("misses", 0),
        "plan_evicted": plan.get("evicted", 0),
        "plan_uncacheable": plan.get("uncacheable", 0),
        "executed": sum(b["backend"]["executed"] for b in backends),
        "failed": sum(b["backend"]["failed"] for b in backends),
        "rejected": sum(b["rejected"] for b in backends),
        "spilled": sum(b["spilled"] for b in backends),
        "frames_shed": server.get("frames_shed", 0),
        "queries_shed": server.get("queries_shed", 0),
        "bytes_in": server.get("bytes_in", 0),
        "bytes_out": server.get("bytes_out", 0),
        "protocol_errors": server.get("protocol_errors", 0),
        "busy_seconds": executor["busy_seconds"],
        "wall_seconds": executor["wall_seconds"],
        "max_label_active": executor["pool"]["max_label_active"],
        "max_dispatch_active": executor["pool"]["max_dispatch_active"],
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _count_metrics(before: dict, after: dict, attempted: int) -> dict[str, float]:
    d = {key: after[key] - before[key] for key in after}
    return {
        "sql.normalizer.memo_hit_rate": _ratio(
            d["memo_hits"], d["memo_hits"] + d["memo_misses"]
        ),
        "runtime.pipeline.dedup_ratio": 1.0 - _ratio(d["unique"], d["queries"]),
        "runtime.cache.hit_rate": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]
        ),
        "runtime.cache.evictions": d["cache_evictions"],
        "minidb.plancache.hit_rate": _ratio(
            d["plan_hits"], d["plan_hits"] + d["plan_misses"]
        ),
        "minidb.plancache.evicted": d["plan_evicted"],
        "minidb.plancache.uncacheable": d["plan_uncacheable"],
        "backends.minidb_backend.failed_share": _ratio(
            d["failed"], d["failed"] + d["executed"]
        ),
        "backends.router.rejected": d["rejected"],
        "backends.router.spilled": d["spilled"],
        "server.edge.frames_shed": d["frames_shed"],
        "server.edge.queries_shed": d["queries_shed"],
        "server.protocol.bytes_in_per_query": _ratio(d["bytes_in"], attempted),
        "server.protocol.bytes_out_per_query": _ratio(d["bytes_out"], attempted),
        "server.protocol.errors": d["protocol_errors"],
        "runtime.executor.overlap": _ratio(d["busy_seconds"], d["wall_seconds"]),
        # high-water marks since the pool started, not deltas
        "runtime.executor.max_label_active": after["max_label_active"],
        "runtime.executor.max_dispatch_active": after["max_dispatch_active"],
    }


def _percentile(values: list[float], percent: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    return float(np.percentile(values, percent)) if values else 0.0


def _canonical(outcome) -> str:
    """Canonical wire form of one completed batch, either path."""
    if isinstance(outcome, tuple):  # library: (labeled, DispatchReport)
        labeled, report = outcome
        labeled = jsonable([labeled_to_wire(m) for m in labeled])
        report = jsonable(report_to_wire(report))
    else:  # wire: repro.server.BatchResult
        labeled, report = outcome.labeled, outcome.report
    return json.dumps(
        {"labeled": labeled, "report": report},
        sort_keys=True,
        separators=(",", ":"),
    )


def _executed_ok(outcome) -> int:
    report = outcome[1] if isinstance(outcome, tuple) else outcome.report
    if report is None:
        return 0
    return report["executed_ok"] if isinstance(report, dict) else report.executed_ok


class _Tally:
    """Outcome of a set of batches, counted in queries."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.shed = 0
        self.latencies_ms: list[float] = []  # a missed batch books MISS_MS
        self.latency_sum_s = 0.0  # completed batches only

    def add(self, batch, entry) -> None:
        n = len(batch)
        self.attempted += n
        if entry is None:  # timed out
            self.latencies_ms.append(W.MISS_MS)
            return
        latency, outcome = entry[0], entry[1]
        if isinstance(outcome, Exception):
            if isinstance(outcome, ServerReplyError) and outcome.code == "SERVER_BUSY":
                self.shed += n
            self.latencies_ms.append(W.MISS_MS)
            return
        self.ok += _executed_ok(outcome)
        self.latencies_ms.append(latency * 1e3)
        self.latency_sum_s += latency

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _closed_slices(
    timed: list, results: dict, start: float, cpu_start: float, n: int
) -> dict[str, list[float]]:
    """Throughput and CPU per query of ``n`` slices of a closed loop, each
    slice equally many consecutive completions.

    The reference machine runs up to twice as fast for the first seconds
    after idling and ~45 % slower for a second or two at a time; the median
    over slices reports the program's typical second instead of the run's
    luck. (Latency percentiles are taken over the whole loop: a slice holds
    too few batches for a tail.)"""
    done = sorted(
        (results[b.time_step][2], results[b.time_step][3], b)
        for b in timed
        if b.time_step in results
    )
    size = -(-len(done) // n)
    slices: dict[str, list[float]] = {"qps": [], "cpu_ms_per_query": []}
    at, cpu_at = start, cpu_start
    for i in range(0, len(done), size):
        tally = _Tally()
        for _, _, batch in done[i : i + size]:
            tally.add(batch, results[batch.time_step])
        end, cpu_end = done[min(i + size, len(done)) - 1][:2]
        slices["qps"].append(tally.ok / (end - at))
        slices["cpu_ms_per_query"].append((cpu_end - cpu_at) / tally.attempted * 1e3)
        at, cpu_at = end, cpu_end
    return slices


def _open_steps(inputs: W.Inputs, results: dict, marks: list) -> list[dict]:
    """Per-step figures of an open-loop phase.

    Every figure is the median over the step's slices and the step meets the
    objective when most of its slices do. Latency runs from the due time and
    a missed batch books MISS_MS.
    """
    tallies = {(k, j): _Tally() for k, j, _, _ in inputs.open_slices}
    for batch, slot in zip(inputs.opened, inputs.slots):
        tallies[slot].add(batch, results.get(batch.time_step))
    per_step: list[list[dict]] = [[] for _ in W.STEP_RATES_QPS]
    for i, (k, j, begin, end) in enumerate(inputs.open_slices):
        tally = tallies[k, j]
        rate = W.STEP_RATES_QPS[k]
        p95 = _percentile(tally.latencies_ms, 95)
        backlog = marks[i + 1][2]
        # Little's law: a backlog above rate x limit cannot clear in time
        backlog_cap = rate / W.MIXED_SNOWSIM_BATCH * W.LATENCY_LIMIT_MS / 1e3
        per_step[k].append(
            {
                "offered_qps": tally.attempted / (end - begin),
                "goodput_qps": tally.ok / (end - begin),
                "p50_ms": _percentile(tally.latencies_ms, 50),
                "p95_ms": p95,
                "shed_share": _ratio(tally.shed, tally.attempted),
                "backlog_end": backlog,
                "batches": len(tally.latencies_ms),
                "met": (
                    p95 <= W.LATENCY_LIMIT_MS
                    and _ratio(tally.failed, tally.attempted) <= W.MAX_FAIL_SHARE
                    and backlog <= backlog_cap
                ),
            }
        )
    steps = []
    for slices in per_step:
        step = {f: _median([s[f] for s in slices]) for f in STEP_FIELDS}
        step["met"] = sum(s["met"] for s in slices) * 2 > len(slices)
        step["batches"] = sum(s["batches"] for s in slices)
        step["slices"] = len(slices)
        steps.append(step)
    return steps


def _open_phase(
    inputs: W.Inputs, results: dict, open_run: dict, closed: _Tally,
    per_layer: dict, samples: dict,
) -> _Tally:
    """Fill in the ``loadgen.*`` figures of the open phase and return the
    tally ``loadgen.fail_share`` is taken over: the closed phase plus steps
    r1-r3, so that the deliberate overload at r4 does not read as breakage."""
    steps = _open_steps(inputs, results, open_run["marks"])
    scope = _Tally()
    scope.attempted, scope.ok = closed.attempted, closed.ok
    for batch, (k, _) in zip(inputs.opened, inputs.slots):
        if k < len(STEPS) - 1:
            scope.add(batch, results.get(batch.time_step))
    # generator lag like everything else: p95 per slice, median over
    # slices, so one stall of the machine does not void a whole run
    lag_ms: dict[tuple[int, int], list[float]] = {}
    for lag, slot in zip(open_run["lags"], inputs.slots):
        lag_ms.setdefault(slot, []).append(lag * 1e3)
    slice_p95 = {slot: _percentile(v, 95) for slot, v in lag_ms.items()}
    judged_p95_ms = _median(
        [v for (k, _), v in slice_p95.items() if k < len(STEPS) - 1]
    )
    # Above this the loadgen.* figures of the open phase measure the
    # generator, not the server. That voids the open phase, not the run: every
    # end-to-end metric comes from the closed loop before it.
    samples["open_lag_p95_ms"] = judged_p95_ms
    samples["open_phase_void"] = (
        judged_p95_ms > W.MAX_LAG_SHARE_OF_LIMIT * W.LATENCY_LIMIT_MS
    )
    per_layer["loadgen.lag_p95_ms"] = _median(list(slice_p95.values()))
    slo = 0.0
    met_so_far = True
    for name, rate, step in zip(STEPS, W.STEP_RATES_QPS, steps):
        for field in STEP_FIELDS:
            per_layer[f"loadgen.{name}.{field}"] = step[field]
        met_so_far = met_so_far and step["met"]
        if met_so_far:
            slo = float(rate)
    per_layer["loadgen.slo_qps"] = slo
    samples["steps"] = {
        name: {k: step[k] for k in ("batches", "slices", "met")}
        for name, step in zip(STEPS, steps)
    }
    return scope


def _measure(env: Env, seconds: float, tracer: Tracer | None) -> dict:
    inputs = env.inputs
    gc.collect()
    before = _counters(env)
    if tracer is not None:
        tracer.begin()
    cpu_start = time.process_time()
    generator_cpu_start = time.thread_time()  # the drivers run on this thread
    wall_start = time.perf_counter()
    env.drive_closed(inputs.closed)
    closed_end = time.perf_counter()
    open_run = env.drive_open() if inputs.opened else None
    wall_end = time.perf_counter()
    generator_cpu_s = time.thread_time() - generator_cpu_start
    cpu_end = time.process_time()
    if tracer is not None:
        tracer.end()
    after = _counters(env)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = dict(env.results)  # late completions after this do not count

    window = _Tally()
    for batch in inputs.timed:
        window.add(batch, results.get(batch.time_step))
    closed = _Tally()
    for batch in inputs.closed:
        closed.add(batch, results.get(batch.time_step))
    cpu_s = cpu_end - cpu_start

    per_layer = dict.fromkeys(per_layer_names(), 0.0)
    per_layer.update(_count_metrics(before, after, window.attempted))
    closed_seconds = seconds * (1.0 - inputs.workload.open_share)
    n_slices = max(1, min(round(closed_seconds), len(inputs.closed) // 8))
    per_slice = _closed_slices(inputs.closed, results, wall_start, cpu_start, n_slices)
    end_to_end = {
        "qps": _median(per_slice["qps"]),
        "cpu_ms_per_query": _median(per_slice["cpu_ms_per_query"]),
        "peak_rss_mb": peak_rss_mb,
    }
    # the typical latency of a closed loop is its outstanding batches over
    # its throughput (Little's law), and the tail is which batches happened
    # to queue behind which: neither repeats within a bound, so both are
    # reported but not bounded
    per_layer["loadgen.batch_p50_ms"] = _percentile(closed.latencies_ms, 50)
    per_layer["loadgen.batch_p95_ms"] = _percentile(closed.latencies_ms, 95)
    samples = {
        "batches": len(inputs.timed),
        "queries": window.attempted,
        "closed_batches": len(inputs.closed),
        "closed_slices": per_slice,
    }

    scope = closed
    if open_run is not None:
        scope = _open_phase(inputs, results, open_run, closed, per_layer, samples)
    per_layer["loadgen.fail_share"] = _ratio(scope.failed, scope.attempted)

    if tracer is not None:
        totals = tracer.layer_totals()
        queries = window.attempted
        for layer, entry in totals.items():
            per_layer[f"{layer}.calls"] = entry["calls"]
            per_layer[f"{layer}.cpu_us_per_query"] = entry["cpu"] / queries * 1e6
            per_layer[f"{layer}.wall_us_per_query"] = entry["wall"] / queries * 1e6
        in_spans = sum(entry["top_wall"] for entry in totals.values())
        per_layer["runtime.executor.wait_us_per_query"] = (
            (window.latency_sum_s - in_spans) / queries * 1e6
        )
        thread_layers = tracer.thread_layer_cpu()
        for layer, cpu in thread_layers.items():
            per_layer[f"{layer}.cpu_us_per_query"] = cpu / queries * 1e6
        # what this thread spent outside the program's entry points: the
        # load generator itself, the client's event loop and its socket
        # calls. Part of the process's CPU, but no layer of the program, so
        # it does not count as covered
        generator_cpu_s -= tracer.top_level_cpu(threading.current_thread().name)
        per_layer["loadgen.cpu_us_per_query"] = generator_cpu_s / queries * 1e6
        per_layer["trace.coverage"] = (
            sum(e["cpu"] for e in totals.values()) + sum(thread_layers.values())
        ) / cpu_s
        samples["spans"] = tracer.span_count()

    return {
        "workload": inputs.workload.name,
        "seed": inputs.seed,
        "seconds": seconds,
        "traced": tracer is not None,
        # sheds differ from run to run, so only a run without an open phase
        # must reproduce its digest
        "open_phase": open_run is not None,
        # the run's own verdict counts the closed loop only: there every
        # query is expected to succeed, whereas in the open phase one stall of
        # the machine makes the edge gate shed a frame at any rate
        "attempted": closed.attempted,
        "failed": closed.failed,
        "window_s": wall_end - wall_start,
        "closed_qps": closed.ok / (closed_end - wall_start),
        "cpu_s": cpu_s,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": samples,
        "sizes": {
            "timed_batches": len(inputs.timed),
            "warmup_batches": inputs.n_warmup,
            "batch_size": inputs.workload.batch_size,
            "train_queries": len(inputs.train),
            "dropped_queries": inputs.dropped_queries,
        },
        "_results": results,
    }


def _verify(
    inputs: W.Inputs, embedder, classifiers, results: dict
) -> tuple[bool, str, int]:
    """Check the first result batches byte-for-byte against the serial
    library path on a separate fresh service; digest every completed batch."""
    digest = hashlib.sha256()
    canonical: dict[int, str] = {}
    for index in sorted(results):
        outcome = results[index][1]
        if isinstance(outcome, Exception):
            continue
        canonical[index] = _canonical(outcome)
        digest.update(f"{index}:{canonical[index]}\n".encode())
    oracle = W.build_service(inputs, embedder, classifiers)
    compared = 0
    correct = True
    try:
        for batch in inputs.batches[: inputs.workload.oracle_batches]:
            got = canonical.get(batch.time_step)
            if got is None:  # shed or failed: nothing to compare
                continue
            compared += 1
            if got != _canonical(oracle.process_routed(batch)):
                correct = False
    finally:
        oracle.close()
    return correct and compared > 0, digest.hexdigest(), compared


def time_set_up(name: str, seed: int, seconds: float) -> float:
    """Set the program up, tear it down, and return the set-up seconds."""
    started = time.perf_counter()
    env = set_up(name, seed, seconds)
    elapsed = time.perf_counter() - started
    env.close()
    return elapsed


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    spans_path: Path | None = None,
) -> dict:
    """One run in this interpreter: set up, measure, tear down, verify."""
    tracer = Tracer().install() if trace else None
    try:
        started = time.perf_counter()
        env = set_up(name, seed, seconds)
        setup_s = time.perf_counter() - started
        try:
            result = _measure(env, seconds, tracer)
        finally:
            env.close()
        correct, digest, compared = _verify(
            env.inputs, env.embedder, env.classifiers, result.pop("_results")
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and spans_path is not None:
        tracer.dump(spans_path)
    result["end_to_end"]["setup_s"] = setup_s
    result["correct"] = correct
    result["result_digest"] = digest
    result["samples"]["oracle_batches"] = compared
    return result


def fingerprint(root: Path) -> dict:
    """Where and on what the numbers were measured, and the frozen sizes."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the benchmark also runs in checkouts that are not git
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "frozen": {
            "closed_queries_per_second": {
                name: w.queries_per_second for name, w in W.WORKLOADS.items()
            },
            "batch_size": {name: w.batch_size for name, w in W.WORKLOADS.items()},
            "connections": W.CONNECTIONS,
            "window": W.WINDOW,
            "label_workers": W.LABEL_WORKERS,
            "dispatch_workers": W.DISPATCH_WORKERS,
            "step_rates_qps": W.STEP_RATES_QPS,
            "step_shares": W.STEP_SHARES,
            "open_share": W.OPEN_SHARE,
            "latency_limit_ms": W.LATENCY_LIMIT_MS,
            "edge_max_in_flight_queries": W.EDGE_MAX_IN_FLIGHT_QUERIES,
        },
    }
