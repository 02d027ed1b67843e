"""Recycled intermediates: a cached plan's literal-free work runs once.

A plan served from a plan-cache entry shares the entry's own nodes
wherever no literal beneath them changed, and the executor keeps such a
subtree's frame, cost charges and rows-scanned count on the entry
(:class:`~repro.minidb.executor.RecycledResults`). These tests hold
recycling to ``Database.execute`` bit for bit, pin where it applies and
where it must not, and pin how long a kept result lives.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np

from repro.minidb import executor, materialize_log_tables
from repro.minidb import planner as P
from repro.minidb.catalog import Catalog
from repro.minidb.datagen import generate_tpch_database
from repro.minidb.engine import Database
from repro.minidb.plancache import RESULTS_PER_ENTRY, VERIFY_BINDINGS, PlanCache
from repro.minidb.storage import Table
from repro.sql.params import extract_parameters
from repro.sql.parser import parse_select
from repro.workloads import TPCH_TEMPLATE_IDS, generate_tpch_workload
from repro.workloads.tpch import tpch_query

_TPCH = None


def _tpch_source() -> Database:
    global _TPCH
    if _TPCH is None:
        _TPCH = generate_tpch_database(exec_scale=0.002, virtual_scale=0.002, seed=42)
    return _TPCH


def _fresh(source: Database) -> Database:
    """A new ``Database`` over ``source``'s tables with its own plan cache."""
    db = Database(
        catalog=Catalog(source.catalog.virtual_row_multiplier),
        cost_model=source.cost_model,
    )
    for table in source.tables.values():
        db.load_table(table)
    return db


def _tiny_db(plan_cache: PlanCache | None = None) -> Database:
    db = Database(plan_cache=plan_cache)
    db.load_table(
        Table(
            name="t",
            dtypes={"a": "int", "b": "int", "s": "str"},
            columns={
                "a": np.array([1, 2, 3, 4, 5]),
                "b": np.array([10, 20, 30, 40, 50]),
                "s": np.array(["x", "y", "x", "z", "y"]),
            },
        )
    )
    return db


def _outcome(run, sql: str) -> tuple:
    """Everything observable about one execution: rows by ``repr`` (types
    count), the cost's type and bits, rows scanned and returned; a failure
    is its exception type and text."""
    try:
        result = run(sql)
    except Exception as exc:  # noqa: BLE001 - failures must match too
        return ("raised", type(exc).__name__, str(exc))
    cost = result.actual_cost
    return (
        result.columns,
        repr(result.rows),
        type(cost).__name__,
        float(cost).hex(),
        result.stats.rows_scanned,
        result.n_rows,
    )


def _q21_instances(n: int) -> list[str]:
    """``n`` Q21 texts with distinct bindings (the nation differs)."""
    texts = list(dict.fromkeys(tpch_query(21, seed=seed) for seed in range(80)))
    assert len(texts) >= n
    return texts[:n]


def _kept(db: Database) -> list:
    return [
        kept
        for record in db.plan_cache._templates.values()
        for entry in record.plans.values()
        for kept in entry.recycled.kept.values()
    ]


def _roots(db: Database) -> list:
    return [
        root
        for record in db.plan_cache._templates.values()
        for entry in record.plans.values()
        for root in entry.recycled.roots.values()
    ]


_GROUPED = "select s, sum(b) as total from t where a > 1 group by s order by s"
_BY_A = "select a, b from t where a > %d"


class TestRecyclingIsExact:
    def test_tpch_templates_match_the_oracle(self):
        """22 templates x 6 instances in rounds — cold runs, verification,
        re-bound hits — then the same stream again, so entries also serve
        their own bindings: rows, cost bits and type, rows scanned and
        returned equal ``Database.execute`` on a second ``Database``."""
        n = 6
        pool = generate_tpch_workload(instances_per_template=n, seed=23)
        stream = [pool[t * n + c] for c in range(n) for t in range(len(TPCH_TEMPLATE_IDS))]
        served, oracle = _fresh(_tpch_source()), _fresh(_tpch_source())
        for sql in stream + stream:
            assert _outcome(served.execute_prepared, sql) == _outcome(oracle.execute, sql), sql
        assert served.plan_cache.stats()["recycled"] > 0
        assert oracle.plan_cache.stats()["recycled"] == 0

    def test_snowsim_stream_matches_the_oracle(self, snowsim_records):
        """The SnowSim stream on 6-row tables, failing queries included
        with their exception text."""
        queries = [r.query for r in snowsim_records]
        source = materialize_log_tables(queries, rows_per_table=6)
        served, oracle = _fresh(source), _fresh(source)
        outcomes = []
        for sql in queries:
            got = _outcome(served.execute_prepared, sql)
            assert got == _outcome(oracle.execute, sql), sql
            outcomes.append(got)
        assert any(o[0] == "raised" for o in outcomes)
        assert served.plan_cache.stats()["recycled"] > 0


class TestWhereRecyclingApplies:
    def test_q21_semi_joins_run_once_per_cached_plan(self, monkeypatch):
        """Q21's EXISTS / NOT EXISTS semi-joins over all of ``lineitem``
        carry no literal: once the template is past verification, the
        first re-bound run executes them and later runs take the kept
        result."""
        instances = _q21_instances(VERIFY_BINDINGS + 6)
        oracle = _fresh(_tpch_source())
        want = [_outcome(oracle.execute, sql) for sql in instances]

        calls = []
        semi_join = executor._HANDLERS[P.SemiJoinNode]

        def counted(self, node, stats):
            calls.append(node)
            return semi_join(self, node, stats)

        monkeypatch.setitem(executor._HANDLERS, P.SemiJoinNode, counted)
        oracle.execute(instances[0])
        per_run = len(calls)
        assert per_run == 2  # EXISTS and NOT EXISTS

        db = _fresh(_tpch_source())
        for sql in instances[:VERIFY_BINDINGS]:  # cold run, then verification
            db.execute_prepared(sql)
        calls.clear()
        got = [_outcome(db.execute_prepared, sql) for sql in instances[VERIFY_BINDINGS:]]
        assert got == want[VERIFY_BINDINGS:]
        assert len(calls) == per_run

    def test_a_repeated_binding_takes_the_whole_result(self):
        db = _tiny_db()
        first = db.execute_prepared(_GROUPED)
        again = db.execute_prepared(_GROUPED)
        assert (first.stats.recycled, again.stats.recycled) == (0, 1)
        assert _outcome(lambda _: again, _GROUPED) == _outcome(db.execute, _GROUPED)
        assert db.plan_cache.stats()["recycled"] == 1


class TestWhereRecyclingMustNotApply:
    def test_execute_and_plans_without_an_entry_never_recycle(self):
        db = _tiny_db()
        for _ in range(3):  # the oracle route, however often it repeats
            assert db.execute(_GROUPED).stats.recycled == 0
        # the cold run keeps its result; bindings in the verification
        # window are planned fresh and take nothing
        db.execute_prepared(_BY_A % 1)
        for value in range(2, 1 + VERIFY_BINDINGS):
            assert db.execute_prepared(_BY_A % value).stats.recycled == 0
        # a rebind-unsafe template never reaches the cache
        for _ in range(3):
            assert db.execute_prepared("select 1, a from t where a > 1").stats.recycled == 0
        assert db.plan_cache.stats()["recycled"] == 0

    def test_fetch_hands_out_kept_results_only_with_an_entry(self):
        """Cold and hit verdicts serve an entry's plan with its results;
        kind drift, the verification window, a literal-sensitive template
        and a doorkeeper refusal serve a fresh plan without."""
        db = _tiny_db()
        planner = db._planner(None)
        divergent = planner.plan(parse_select("select a from t where a = 0 order by a"))
        cache = PlanCache(capacity=1)

        def with_results(key, sql, fresh=None):
            stmt = parse_select(sql)
            plan = fresh if fresh is not None else planner.plan(stmt)
            _, recycled = cache.fetch(key, 0, stmt, extract_parameters(stmt), lambda: plan)
            return recycled is not None

        a, b = ("a", None, (None,)), ("b", None, (None,))
        assert with_results(a, "select a from t where a = 1")  # cold
        assert with_results(a, "select a from t where a = 1")  # hit
        assert not with_results(a, "select a from t where s = 'x'")  # kind drift
        assert not with_results(a, "select a from t where a = 2", divergent)  # verify
        assert cache.stats()["literal_sensitive_templates"] == 1
        assert not with_results(a, "select a from t where a = 1")  # sensitive
        assert not with_results(b, "select b from t where b = 1")  # refused
        assert cache.stats()["admission_refused"] == 1


class TestKeptResultsLifetime:
    def test_a_replaced_column_array_is_read_again(self):
        """Replacing a column's array without ``load_table`` keeps the
        catalog epoch; the kept result notices the array it read is gone."""
        db = _tiny_db()
        first = db.execute_prepared(_GROUPED)
        assert db.execute_prepared(_GROUPED).stats.recycled == 1
        table = db.table("t")
        table.columns["b"] = table.columns["b"] * 10
        replaced = db.execute_prepared(_GROUPED)
        assert replaced.stats.recycled == 0
        assert repr(replaced.rows) == repr(db.execute(_GROUPED).rows) != repr(first.rows)
        assert db.execute_prepared(_GROUPED).stats.recycled == 1

    def test_kept_results_die_with_their_entry(self):
        for drop in ("load_table", "evict", "invalidate_all"):
            db = _tiny_db(PlanCache(capacity=1))
            db.execute_prepared(_GROUPED)
            refs = [weakref.ref(kept.frame) for kept in _kept(db)]
            assert refs, drop
            roots = _roots(db)
            assert len(roots) == 1, drop
            refs += [weakref.ref(array) for array in roots[0].arrays]
            del roots
            if drop == "load_table":
                db.load_table(Table(name="u", dtypes={"c": "int"}, columns={"c": np.arange(3)}))
                # the stale entry is replaced on its next lookup
                assert db.execute_prepared(_GROUPED).stats.recycled == 0
            elif drop == "evict":
                db.execute_prepared(_BY_A % 1)
                assert db.plan_cache.stats()["evicted"] == 1
            else:
                db.plan_cache.invalidate_all()
            gc.collect()
            assert all(ref() is None for ref in refs), drop


def test_two_threads_on_one_template_match_the_oracle():
    """Two threads share one ``Database`` and one template under a 1 µs
    switch interval: concurrent first fills and shared kept frames give
    every query the oracle's outcome."""
    stream = _q21_instances(8) * 2
    oracle = _fresh(_tpch_source())
    want = [_outcome(oracle.execute, sql) for sql in stream]
    db = _fresh(_tpch_source())
    got: dict[int, list] = {}
    errors: list[BaseException] = []

    def worker(n: int) -> None:
        try:
            got[n] = [_outcome(db.execute_prepared, sql) for sql in stream]
        except BaseException as exc:  # noqa: BLE001 - collected
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert got[0] == want and got[1] == want
    assert db.plan_cache.stats()["recycled"] > 0


class TestKeptRootsPerBinding:
    """Every binding an entry serves keeps its root result (at most
    ``RESULTS_PER_ENTRY``, least recently used evicted first), so a
    repeated binding is served whole whichever text planned the entry."""

    @staticmethod
    def _past_verification(db: Database) -> None:
        for value in range(VERIFY_BINDINGS):
            db.execute_prepared(_BY_A % (100 + value))

    def test_a_repeated_rebound_binding_takes_its_root(self):
        db, oracle = _tiny_db(), _tiny_db()
        self._past_verification(db)
        sql = _BY_A % 2
        first, again = db.execute_prepared(sql), db.execute_prepared(sql)
        assert (first.stats.recycled, again.stats.recycled) == (0, 1)
        assert _outcome(lambda _: again, sql) == _outcome(oracle.execute, sql)

    def test_equal_values_of_other_types_keep_apart(self):
        """``2 == 2.0``: keyed by value alone, the float binding would be
        served the int binding's rows."""
        db, oracle = _tiny_db(), _tiny_db()
        texts = ["select 2 * a as x from t where b > 0", "select 2.0 * a as x from t where b > 0"]
        for sql in texts * 3:
            assert _outcome(db.execute_prepared, sql) == _outcome(oracle.execute, sql), sql
        assert db.plan_cache.stats()["recycled"] > 0

    def test_the_least_recently_used_root_goes_first(self):
        db = _tiny_db()
        self._past_verification(db)
        for value in range(RESULTS_PER_ENTRY + 1):
            db.execute_prepared(_BY_A % value)
        assert len(_roots(db)) == RESULTS_PER_ENTRY  # binding 0 is gone
        assert db.execute_prepared(_BY_A % 0).stats.recycled == 0
        # that evicted binding 1; binding 2 is now touched and outlives 3
        assert db.execute_prepared(_BY_A % 2).stats.recycled == 1
        assert db.execute_prepared(_BY_A % 50).stats.recycled == 0
        assert db.execute_prepared(_BY_A % 2).stats.recycled == 1
        assert db.execute_prepared(_BY_A % 3).stats.recycled == 0
        assert len(_roots(db)) == RESULTS_PER_ENTRY

    def test_a_replaced_array_read_through_a_kept_subtree_is_read_again(self):
        """The literal-free scan of ``u`` is kept on the entry and taken,
        not run, by later bindings; their roots still read ``u``."""

        def two_tables() -> Database:
            db = _tiny_db()
            db.load_table(
                Table(
                    name="u",
                    dtypes={"c": "int", "d": "int"},
                    columns={"c": np.array([1, 2, 3, 5]), "d": np.array([0, 2, 9, 1])},
                )
            )
            return db

        sql = "select t.a, t.b, u.d from t, u where t.a = u.c and u.c >= u.d and t.b > %d"
        db, oracle = two_tables(), two_tables()
        for value in range(VERIFY_BINDINGS + 2):
            db.execute_prepared(sql % value)
        first = db.execute_prepared(sql % 1)
        assert first.stats.recycled == 1
        u = db.table("u")
        u.columns["d"] = u.columns["d"] - 1
        oracle.table("u").columns["d"] = u.columns["d"]
        replaced = db.execute_prepared(sql % 1)
        assert replaced.stats.recycled == 0
        assert _outcome(lambda _: replaced, sql % 1) == _outcome(oracle.execute, sql % 1)
        assert repr(replaced.rows) != repr(first.rows)

    def test_two_threads_on_repeated_bindings_match_the_oracle(self):
        """Two threads share one ``Database`` under a 1 µs switch
        interval, each replaying the same bindings three times: kept
        roots stored and served concurrently give the oracle's outcome."""
        pool = generate_tpch_workload(instances_per_template=4, seed=31)
        n = 4
        stream = [pool[(t - 1) * n + c] for c in range(n) for t in (3, 5, 10, 18)] * 3
        oracle = _fresh(_tpch_source())
        want = [_outcome(oracle.execute, sql) for sql in stream]
        db = _fresh(_tpch_source())
        got: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                got[k] = [_outcome(db.execute_prepared, sql) for sql in stream]
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert got[0] == want and got[1] == want
        assert _roots(db)
