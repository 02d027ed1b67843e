"""Frozen sizes, seeded inputs and service construction for ``spine``.

Everything a run feeds the program is generated here from ``--seed``; the
program itself (``repro``) only ever sees the generated batches. The
constants below are the benchmark's frozen configuration: later changes are
measured against them, so they change only in a PR that re-baselines the
benchmark (see README.md, "Calibration").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import MiniDBBackend
from repro.core import QuercService, QueryClassifier
from repro.core.labeler import ClassifierLabeler
from repro.embedding import BagOfTokensEmbedder
from repro.minidb import Catalog, Database, generate_tpch_database, materialize_log_tables
from repro.ml.forest import RandomizedForestClassifier
from repro.sql.normalizer import template_fingerprint, template_fingerprint_ids
from repro.workloads import (
    TPCH_TEMPLATE_IDS,
    QueryLogRecord,
    SnowSimConfig,
    StreamBatch,
    generate_snowsim_workload,
    generate_tpch_workload,
)

# -- topology (fixed; = the reference box's 2 cores) ---------------------------------

TENANTS = tuple(f"tenant-{i}" for i in range(4))
BACKENDS = ("DB(a)", "DB(b)")
LABELS = ("cluster", "tier")
LABEL_WORKERS = 2
DISPATCH_WORKERS = 2
CONNECTIONS = 2  # never more client connections than cores
WINDOW = 4  # outstanding batches per connection, closed loop
WARMUP_SHARE = 0.05  # of every stream; untimed, counted in setup_s
TRAIN_QUERIES = 128

# -- open loop -------------------------------------------------------------------------

LATENCY_LIMIT_MS = 150.0
STEP_RATES_QPS = (150, 300, 450, 1200)  # r1..r4: ~25/50/75/200 % of capacity
STEP_SHARES = (1.0, 2.0, 1.5, 1.5)  # of the open phase
OPEN_SHARE = 0.375  # of --seconds; the rest is the workload's closed-loop phase
EDGE_MAX_IN_FLIGHT_QUERIES = 128
# more than the edge gate admits, so overload is shed at the edge instead of
# parking the two sessions in their own windows (TCP backpressure)
SERVER_MAX_INFLIGHT_PER_SESSION = 64
MIXED_SNOWSIM_BATCH = 8
# every 32nd batch is the heavy tenant's TPC-H batch: 3 % of batches, on
# purpose clear of the 5 % tail, or p95 would sit on the boundary between the
# light and the heavy population and flip between them from run to run
MIXED_TPCH_BATCH = 8
MIXED_TPCH_EVERY = 32
MAX_FAIL_SHARE = 0.01
MAX_LAG_SHARE_OF_LIMIT = 0.10  # generator lag p95 above this voids the run
MISS_MS = 10.0 * LATENCY_LIMIT_MS  # latency booked for a shed/errored/timed-out batch
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    """One named traffic mix. ``queries_per_second`` is the frozen size of
    the closed-loop stream per second of ``--seconds``: on the reference box
    the closed loop then lasts about that long; a faster program finishes it
    sooner. ``open_share`` of ``--seconds`` goes to an open-loop phase that
    follows the closed loop."""

    name: str
    why: str
    wire: bool  # over loopback through QuercServer, or straight into the library
    source: str  # "tpch" | "snowsim" | "mixed"
    batch_size: int
    queries_per_second: int
    oracle_batches: int  # result batches checked against process_routed
    open_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wire_tpch_hot",
            "22 TPC-H templates over loopback: every cache hits, MiniDB "
            "operator execution does nearly all the work",
            True,
            "tpch",
            batch_size=8,
            queries_per_second=140,
            oracle_batches=16,
        ),
        Workload(
            "wire_snowsim_longtail",
            "long-tail SnowSim over loopback in small frames: plan-cache "
            "evictions, parse+plan on misses, per-frame wire and bridge cost",
            True,
            "snowsim",
            batch_size=16,
            queries_per_second=800,
            oracle_batches=64,
        ),
        Workload(
            "lib_snowsim_bulk",
            "the same SnowSim stream through the library stage pool in "
            "batches of 256: no socket, one big dedup/scatter per call",
            False,
            "snowsim",
            batch_size=256,
            queries_per_second=2000,
            oracle_batches=2,
        ),
        Workload(
            "wire_mixed_open",
            "light SnowSim tenants beside a heavy TPC-H tenant behind edge "
            "admission, saturated and then at four fixed offered rates: "
            "head-of-line blocking, queueing, shedding",
            True,
            "mixed",
            batch_size=MIXED_SNOWSIM_BATCH,
            queries_per_second=550,
            oracle_batches=64,
            open_share=OPEN_SHARE,
        ),
    )
}


@dataclass
class Inputs:
    """Generated inputs of one run: what the program is fed, plus the shared
    (immutable) tables its fresh ``Database`` objects are loaded from."""

    workload: Workload
    seed: int
    train: list[str]
    batches: list[StreamBatch]  # warm-up, then closed loop, then open loop
    n_warmup: int  # leading batches of ``batches`` that are untimed
    n_closed: int  # timed batches driven closed-loop, before the open phase
    due: list[float]  # open phase: send time of each batch, s from its start
    slots: list[tuple[int, int]]  # open phase: (step, slice) of each batch
    open_slices: list[tuple[int, int, float, float]]  # (step, slice, begin, end)
    source_database: Database
    dropped_queries: int  # generated queries MiniDB cannot execute, removed

    @property
    def timed(self) -> list[StreamBatch]:
        return self.batches[self.n_warmup :]

    @property
    def closed(self) -> list[StreamBatch]:
        return self.batches[self.n_warmup : self.n_warmup + self.n_closed]

    @property
    def opened(self) -> list[StreamBatch]:
        return self.batches[self.n_warmup + self.n_closed :]


def backend_of(tenant: str) -> str:
    return BACKENDS[TENANTS.index(tenant) // 2]


def fresh_database(source: Database) -> Database:
    """A new ``Database`` (own plan cache) over ``source``'s loaded tables.

    Tables are immutable column arrays, so services may share them; the plan
    cache lives on the ``Database`` and must not be shared between runs.
    """
    database = Database(
        catalog=Catalog(source.catalog.virtual_row_multiplier),
        cost_model=source.cost_model,
    )
    for table in source.tables.values():
        database.load_table(table)
    return database


def _materialize_snowsim(generated: list[str]) -> tuple[Database, list[str]]:
    """Tables that satisfy a SnowSim log, and the queries that run on them.

    One representative per template is enough to infer every table and
    column, and keeps set-up short. SnowSim emits a few templates (<1 %)
    that compare a column materialised as text with a number; they fail
    identically on every execution, so one probe per template on a scratch
    database decides. The benchmark measures serving, not that defect, and
    a workload must not fail by construction, so those queries are dropped.
    """
    ids = template_fingerprint_ids(generated)[0]
    templates, first = np.unique(ids, return_index=True)
    representatives = [generated[i] for i in first]
    source = materialize_log_tables(representatives, rows_per_table=6)
    scratch = fresh_database(source)
    broken = set()
    for template, query in zip(templates.tolist(), representatives):
        try:
            scratch.execute_prepared(query)
        except Exception:  # noqa: BLE001 - any engine fault disqualifies
            broken.add(template)
    usable = [q for q, t in zip(generated, ids.tolist()) if t not in broken]
    return source, usable


def _to_batches(chunks: list[list[str]]) -> list[StreamBatch]:
    return [
        StreamBatch(
            application=TENANTS[i % len(TENANTS)],
            time_step=i,
            records=tuple(QueryLogRecord(query=q) for q in chunk),
        )
        for i, chunk in enumerate(chunks)
    ]


def _chunks(queries: list[str], size: int) -> list[list[str]]:
    return [queries[i : i + size] for i in range(0, len(queries) - size + 1, size)]


def _snowsim(n: int, seed: int) -> list[str]:
    records = generate_snowsim_workload(SnowSimConfig(total_queries=n, seed=seed))
    return [r.query for r in records]


def _tpch(n: int, seed: int, rng: np.random.Generator) -> list[str]:
    """``n`` TPC-H queries in seeded arrival order: rounds of all 22
    templates, each round in its own random order. TPC-H templates differ
    10x in cost; whole rounds keep the mix of any stretch of the stream, and
    so the work in a run, nearly the same for every seed."""
    rounds = -(-n // len(TPCH_TEMPLATE_IDS))
    # template-major: instance c of template t is at t * rounds + c
    queries = generate_tpch_workload(instances_per_template=rounds, seed=seed)
    stream = [
        queries[t * rounds + c]
        for c in range(rounds)
        for t in rng.permutation(len(TPCH_TEMPLATE_IDS))
    ]
    return stream[:n]


def _open_schedule(
    seconds: float, rng: np.random.Generator
) -> tuple[list[float], list[tuple[int, int]], list[tuple[int, int, float, float]]]:
    """Send times for the four back-to-back rate steps r1 < r2 < r3 < r4.

    Returns the due times, each batch's slice ``(step, slice in step)`` and
    the slices as ``(step, slice, begin, end)`` in time order. A step lasts
    its share of ``seconds`` and is cut into slices of about a second.

    Arrivals are Poisson conditioned on their count: a slice gets exactly
    rate x length / batch arrivals at sorted uniform times, which is how a
    Poisson process with that many arrivals in the slice is distributed. The
    offered rate is then the same for every seed; the gaps still vary.
    """
    due: list[float] = []
    slots: list[tuple[int, int]] = []
    slices: list[tuple[int, int, float, float]] = []
    begin = 0.0
    for k, (rate, share) in enumerate(zip(STEP_RATES_QPS, STEP_SHARES)):
        length = seconds * share / sum(STEP_SHARES)
        n = max(1, int(length))
        for j in range(n):
            end = begin + length / n
            arrivals = max(1, round(rate * (end - begin) / MIXED_SNOWSIM_BATCH))
            due.extend(np.sort(rng.uniform(begin, end, arrivals)).tolist())
            slots.extend([(k, j)] * arrivals)
            slices.append((k, j, begin, end))
            begin = end
    return due, slots, slices


def build_inputs(name: str, seed: int, seconds: float) -> Inputs:
    """Generate one run's inputs; equal arguments give identical inputs."""
    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    due: list[float] = []
    slots: list[tuple[int, int]] = []
    open_slices: list[tuple[int, int, float, float]] = []
    dropped = 0
    if workload.open_share:
        due, slots, open_slices = _open_schedule(seconds * workload.open_share, rng)
    n_closed = max(
        1,  # a run of a fraction of a second still has a loop to drive
        round(
            workload.queries_per_second
            * seconds
            * (1.0 - workload.open_share)
            / workload.batch_size
        ),
    )
    n_timed = n_closed + len(due)
    n_warmup = max(1, round(n_timed * WARMUP_SHARE / (1.0 - WARMUP_SHARE)))
    n_batches = n_warmup + n_timed

    if workload.source == "tpch":
        source = generate_tpch_database()
        serve = _tpch(n_batches * workload.batch_size, seed, rng)
        train = generate_tpch_workload(instances_per_template=4, seed=seed + 1)
        batches = _to_batches(_chunks(serve, workload.batch_size))
    else:
        heavy = (
            [i for i in range(n_batches) if i % MIXED_TPCH_EVERY == MIXED_TPCH_EVERY - 1]
            if workload.source == "mixed"
            else []
        )
        n_snow = (n_batches - len(heavy)) * workload.batch_size
        # over-generate: the generator rounds per account and a few
        # templates are dropped as not executable
        generated = _snowsim(TRAIN_QUERIES + int(n_snow * 1.03) + 64, seed)
        source, usable = _materialize_snowsim(generated)
        dropped = len(generated) - len(usable)
        train, serve = usable[:TRAIN_QUERIES], usable[TRAIN_QUERIES:]
        if len(serve) < n_snow:
            raise RuntimeError(
                f"SnowSim generated {len(serve)} usable queries, need {n_snow}"
            )
        chunks = _chunks(serve[:n_snow], workload.batch_size)
        if heavy:
            tpch_source = generate_tpch_database()
            for table in tpch_source.tables.values():
                source.load_table(table)
            heavy_queries = _tpch(len(heavy) * MIXED_TPCH_BATCH, seed, rng)
            train = train + generate_tpch_workload(
                instances_per_template=2, seed=seed + 1
            )
            for k, at in enumerate(heavy):
                chunks.insert(
                    at,
                    heavy_queries[k * MIXED_TPCH_BATCH : (k + 1) * MIXED_TPCH_BATCH],
                )
        batches = _to_batches(chunks)
    if len(batches) != n_batches:
        raise RuntimeError(f"built {len(batches)} batches, planned {n_batches}")
    return Inputs(
        workload=workload,
        seed=seed,
        train=train,
        batches=batches,
        n_warmup=n_warmup,
        n_closed=n_closed,
        due=due,
        slots=slots,
        open_slices=open_slices,
        source_database=source,
        dropped_queries=dropped,
    )


def train_classifiers(train: list[str]) -> tuple[BagOfTokensEmbedder, list[QueryClassifier]]:
    """Two forests over one shared embedder. Labels are a function of the
    template fingerprint, so every path through the service must agree."""
    embedder = BagOfTokensEmbedder(dimension=32, min_count=1, seed=3).fit(train)
    vectors = embedder.transform(train)
    fingerprints = [template_fingerprint(q) for q in train]
    classifiers = []
    for i, name in enumerate(LABELS):
        labels = [(int(fp[:8], 16) + i) % 4 for fp in fingerprints]
        labeler = ClassifierLabeler(
            RandomizedForestClassifier(n_trees=8, max_depth=8, seed=i)
        )
        labeler.fit(vectors, labels)
        classifiers.append(
            QueryClassifier(name, embedder, labeler, embedder_name="bow-shared")
        )
    return embedder, classifiers


def build_service(inputs: Inputs, embedder, classifiers) -> QuercService:
    """A fresh service: 4 tenants over 2 MiniDB backends, default capacities,
    no injected latency, fresh ``Database`` objects (cold plan caches)."""
    service = QuercService()
    for name in BACKENDS:
        service.register_backend(
            MiniDBBackend(name, fresh_database(inputs.source_database))
        )
    service.embedders.register("bow-shared", embedder)
    for tenant in TENANTS:
        service.add_application(tenant, backend=backend_of(tenant))
        for classifier in classifiers:
            service.attach_classifier(tenant, classifier)
    return service
