"""Prepared execution: the template plan cache and its guards.

Unit tests pin the :class:`~repro.minidb.plancache.PlanCache` protocol
— LRU eviction, recipe lifetime, the frequency doorkeeper,
catalog-epoch invalidation, the literal-sensitivity bail-out,
kind-mismatch and rebind-unsafe bypasses — and hypothesis properties
pin the headline contract: prepared execution is byte-identical to
per-query planning (rows, columns, costs, plan shapes, and failures)
for every generated query, hot or cold cache, and under eviction
pressure at tiny capacities.
The parse-free path (:class:`~repro.sql.params.FastBindingRecipe`) is
pinned against the parser, and the backend adapter against
``Database.execute``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_property_based import number, simple_select, string_literal

from repro.backends import MiniDBBackend
from repro.errors import ParseError, SQLError
from repro.minidb import engine, materialize_log_tables, plancache
from repro.minidb.datagen import generate_tpch_database
from repro.minidb.engine import Database, template_keys
from repro.minidb.indexes import Index, IndexConfig
from repro.minidb.plancache import VERIFY_BINDINGS, PlanCache, plan_shape
from repro.minidb.storage import Table
from repro.sql import params
from repro.sql.normalizer import (
    reset_fingerprint_caches,
    template_fingerprint,
    template_fingerprint_ids,
)
from repro.sql.params import build_fast_recipe, extract_parameters
from repro.sql.parser import parse_select
from repro.workloads import (
    SnowSimConfig,
    generate_snowsim_workload,
    generate_tpch_workload,
)


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


# fourteen distinct templates over ``_tiny_db``'s table, each used once
_ONE_OFFS = [
    f"select {cols} from t where {col} > 1"
    for cols in ("a", "b", "s", "a, s", "b, s", "s, a", "s, b")
    for col in ("a", "b")
]


class TestPlanCacheProtocol:
    def test_verification_then_hits(self):
        """A template becomes a cache hit once ``VERIFY_BINDINGS``
        distinct bindings have planned to the same shape."""
        db = _tiny_db()
        for i in range(10):
            db.execute_prepared(f"select a from t where a = {i}")
        stats = db.plan_cache.stats()
        # 3 verification plannings (the base binding plus two more),
        # then every later distinct binding re-binds the cached plan
        assert stats["misses"] == 3
        assert stats["hits"] == 7
        assert stats["literal_sensitive_templates"] == 0

    def test_exact_repeat_binding_hits_immediately(self):
        db = _tiny_db()
        db.execute_prepared("select a from t where a = 1")
        db.execute_prepared("select a from t where a = 1")
        stats = db.plan_cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_rows_identical_to_unprepared(self):
        db = _tiny_db()
        queries = [
            "select a, b from t where a > 1 and s = 'x'",
            "select a, b from t where a > 3 and s = 'y'",
            "select s, sum(b) from t group by s order by s",
            "select a from t where a in (1, 3, 5) limit 2",
        ] * 3
        for sql in queries:
            want = db.execute(sql)
            got = db.execute_prepared(sql)
            assert got.columns == want.columns
            assert got.rows == want.rows
            assert got.n_rows == want.n_rows
            assert plan_shape(got.plan) == plan_shape(want.plan)

    def test_lru_eviction_is_bounded(self):
        db = _tiny_db(PlanCache(capacity=2))
        db.execute_prepared("select a from t where a = 1")
        db.execute_prepared("select b from t where b = 1")
        db.execute_prepared("select s from t where a = 1")
        stats = db.plan_cache.stats()
        assert stats["size"] == 2
        assert stats["evicted"] == 1
        # the evicted template plans fresh again (a miss, not an error)
        db.execute_prepared("select a from t where a = 2")
        assert db.plan_cache.stats()["misses"] == 4

    def test_load_table_invalidates_by_epoch(self):
        db = _tiny_db()
        sql = "select a from t where a = %d"
        for i in range(5):
            db.execute_prepared(sql % i)
        assert db.plan_cache.stats()["hits"] == 2
        epoch = db.catalog_epoch
        db.load_table(
            Table(name="u", dtypes={"c": "int"}, columns={"c": np.arange(4)})
        )
        assert db.catalog_epoch == epoch + 1
        # the stale entry is dropped on its next lookup and replanned
        result = db.execute_prepared(sql % 99)
        assert result.n_rows == 0
        stats = db.plan_cache.stats()
        assert stats["invalidated"] == 1
        assert stats["misses"] == 4  # 3 verification + 1 re-plan

    def test_literal_sensitive_template_bails_out_forever(self):
        """Shape divergence during verification marks the template
        literal-sensitive: every later binding plans fresh."""
        db = _tiny_db()
        cache = PlanCache()
        planner = db._planner(None)
        # the second verification planning "chooses" a structurally
        # different plan (a literal-dependent optimizer would): an
        # extra Sort node the template's base shape does not have
        divergent = planner.plan(parse_select("select a from t where a = 0 order by a"))

        key = ("fp", None, (None,))
        for i, value in enumerate((1, 2, 3, 4)):
            stmt = parse_select(f"select a from t where a = {value}")
            binding = extract_parameters(stmt)
            fresh = divergent if i == 1 else planner.plan(stmt)
            cache.fetch(key, 0, stmt, binding, lambda plan=fresh: plan)

        stats = cache.stats()
        assert stats["literal_sensitive_templates"] == 1
        assert stats["literal_sensitive_skips"] == 2
        assert stats["misses"] == 4
        assert stats["hits"] == 0  # never served a possibly-wrong plan

    def test_kind_mismatch_plans_fresh(self):
        cache = PlanCache()
        db = _tiny_db()
        planner = db._planner(None)
        key = ("fp", None, (None,))
        for sql in ("select a from t where s = 'x'", "select a from t where a = 1"):
            stmt = parse_select(sql)
            binding = extract_parameters(stmt)
            cache.fetch(key, 0, stmt, binding, lambda: planner.plan(stmt))
        stats = cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_rebind_unsafe_templates_bypass_cache(self):
        db = _tiny_db()
        # the bare literal is an unaliased select item: its value is the
        # output column name, so the template must not be re-bound
        for i in range(3):
            result = db.execute_prepared(f"select {i}, a from t where a = 1")
            assert result.columns[0] == str(i)
        stats = db.plan_cache.stats()
        assert stats["uncacheable"] == 3
        assert stats["size"] == 0

    def test_subquery_interior_literals_rebind(self):
        # scalar-subquery bodies are consumed positionally, so an
        # unaliased literal item inside them is still rebind-safe and
        # the interior literal must be re-bound through the subplan
        db = _tiny_db()
        template = (
            "select count(*) as n from t "
            "where a > (select {f} * avg(a) from t)"
        )
        for factor in ("0.5", "1.0", "2.0", "0.5", "2.0"):
            sql = template.format(f=factor)
            want = db.execute(sql)
            got = db.execute_prepared(sql)
            assert got.rows == want.rows
            assert got.columns == want.columns
        stats = db.plan_cache.stats()
        assert stats["uncacheable"] == 0
        assert stats["size"] == 1
        assert stats["hits"] >= 1

    def test_equal_number_of_another_type_is_rebound(self):
        """``2 == 2.0``, yet the two literals compute and render apart: a
        re-bind must not keep the cached one in place of the other."""
        db = _tiny_db()
        for sql in (
            "select a, 2 as k from t where a > 1",
            "select a, 2.0 as k from t where a > 1",
            "select a, 2 as k from t where a > 1",
        ):
            assert repr(db.execute_prepared(sql).rows) == repr(db.execute(sql).rows), sql
        assert db.plan_cache.stats()["fast_hits"] == 2

    def test_warm_tpch_run_is_parse_free(self):
        """Every TPC-H template gets a parse-free recipe — Q16, Q17 and
        Q19 carry a ``#`` inside a string literal — so once the templates
        are verified, every hit is a fast hit."""
        db = generate_tpch_database(exec_scale=0.0005, virtual_scale=0.0005, seed=42)
        pool = generate_tpch_workload(instances_per_template=4, seed=13)
        for sql in pool:
            db.execute_prepared(sql)
        before = db.plan_cache.stats()
        for sql in pool:
            db.execute_prepared(sql)
        after = db.plan_cache.stats()
        hits = after["hits"] - before["hits"]
        assert hits > 0
        assert after["fast_hits"] - before["fast_hits"] == hits

    def test_distinct_limits_key_separately(self):
        db = _tiny_db()
        a = db.execute_prepared("select a from t order by a limit 2")
        b = db.execute_prepared("select a from t order by a limit 4")
        assert a.n_rows == 2 and b.n_rows == 4
        assert db.plan_cache.stats()["size"] == 2

    def test_hot_template_keeps_its_recipe_under_one_off_churn(self, monkeypatch):
        """A template's recipe lives as long as its cached plan: more
        than ``2 × capacity`` one-off templates passing through must not
        send a hot, verified template back to the parser."""
        db = _tiny_db(PlanCache(capacity=2))
        hot = "select a, b from t where a = {}"
        for i in range(VERIFY_BINDINGS):
            db.execute_prepared(hot.format(i))  # clears verification
        parsed = _counting_parses(monkeypatch)
        for i, sql in enumerate(_ONE_OFFS):
            db.execute_prepared(sql)
            db.execute_prepared(hot.format(10 + i))
        parsed.clear()
        for i in range(6):
            db.execute_prepared(hot.format(100 + i))
        assert parsed == []
        # every hot query after verification was a parse-free hit
        assert db.plan_cache.stats()["fast_hits"] == len(_ONE_OFFS) + 6

    def test_doorkeeper_refuses_one_shots_when_full(self):
        """Full cache: a template seen less often than the LRU victim's
        is planned and served but not cached; the head stays hot."""
        db = _tiny_db(PlanCache(capacity=1))
        for i in range(5):
            db.execute_prepared(f"select a from t where a = {i}")
        one_shot = db.execute_prepared("select b from t where b = 20")
        assert one_shot.rows == db.execute("select b from t where b = 20").rows
        stats = db.plan_cache.stats()
        assert (stats["size"], stats["evicted"], stats["admission_refused"]) == (1, 0, 1)
        db.execute_prepared("select a from t where a = 9")
        assert db.plan_cache.stats()["fast_hits"] == stats["fast_hits"] + 1

    def test_doorkeeper_counts_age(self):
        """Counts halve every ``10 × capacity`` recorded accesses, so a
        template that went quiet is displaced sooner than its raw count
        says: with capacity 1, eight accesses of A and then B — B's
        second access is the tenth, halving A to 4 and B to 1; B is
        admitted (ties admit) on its fifth access, not its eighth."""
        db = _tiny_db(PlanCache(capacity=1))
        for i in range(8):
            db.execute_prepared(f"select a from t where a = {i}")
        for n in range(1, 6):
            db.execute_prepared(f"select b from t where b = {n}")
            stats = db.plan_cache.stats()
            assert stats["admission_refused"] == min(n, 4), n
        assert stats["evicted"] == 1

    def test_concurrent_churn_keeps_bound_and_counters(self):
        """More threads than cores, a short switch interval, hot and
        one-off templates through a tiny cache: every query is exactly
        one hit or one miss (a lost counter update breaks the sum), the
        plans stay within capacity, and every row is right."""
        import sys
        import threading

        db = _tiny_db(PlanCache(capacity=3))
        hot = [f"select a, b from t where a = {i}" for i in range(5)]
        want = {sql: db.execute(sql).rows for sql in hot + _ONE_OFFS}
        per_thread, n_threads = 80, 6
        errors: list[BaseException] = []

        def worker(offset):
            try:
                for i in range(per_thread):
                    sql = hot[i % 5] if i % 2 else _ONE_OFFS[(offset + i) % len(_ONE_OFFS)]
                    assert db.execute_prepared(sql).rows == want[sql], sql
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        stats = db.plan_cache.stats()
        assert stats["hits"] + stats["misses"] == per_thread * n_threads
        plans = sum(len(r.plans) for r in db.plan_cache._templates.values())
        assert stats["size"] == plans <= 3
        assert stats["fast_hits"] > 0 and stats["evicted"] > 0

    def test_stats_shape(self):
        stats = PlanCache(capacity=7).stats()
        for field in (
            "size",
            "capacity",
            "hits",
            "fast_hits",
            "misses",
            "hit_rate",
            "invalidated",
            "evicted",
            "admission_refused",
            "uncacheable",
            "literal_sensitive_templates",
            "literal_sensitive_skips",
            "recycled",
        ):
            assert field in stats
        assert stats["capacity"] == 7 and stats["hit_rate"] == 0.0

    def test_epoch_invalidation_under_concurrent_ddl(self):
        """DDL racing prepared execution: readers hammering one cached
        template while a writer keeps bumping the catalog epoch (each
        ``load_table`` of a fresh table invalidates the hot entry on
        its next lookup) must never see an error or a wrong row — the
        stale plan is dropped and replanned transparently — and the
        epoch guard visibly invalidates along the way."""
        import threading

        db = _tiny_db()
        ddl_rounds = 40
        want = ((1,), (2,), (3,), (4,), (5,))
        errors: list[BaseException] = []
        reads = {"n": 0}
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    result = db.execute_prepared("select a from t where a >= 1")
                    assert tuple(result.rows) == want
                    reads["n"] += 1  # benign race: only needs to be > 0
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    return

        def writer():
            try:
                for v in range(ddl_rounds):
                    db.load_table(
                        Table(
                            name=f"ddl_{v}",
                            dtypes={"c": "int"},
                            columns={"c": np.arange(2)},
                        )
                    )
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                stop.set()

        readers = [threading.Thread(target=reader) for _ in range(3)]
        ddl = threading.Thread(target=writer)
        for t in readers:
            t.start()
        ddl.start()
        ddl.join(30.0)
        stop.set()
        for t in readers:
            t.join(30.0)
        assert not errors, errors
        assert reads["n"] > 0
        assert db.catalog_epoch >= ddl_rounds
        # one more DDL bump, then a cold lookup: the guard must drop
        # the stale entry deterministically (the concurrent phase above
        # may or may not have caught a hit mid-invalidation)
        db.load_table(
            Table(name="ddl_last", dtypes={"c": "int"}, columns={"c": np.arange(2)})
        )
        assert tuple(db.execute_prepared("select a from t where a >= 1").rows) == want
        assert db.plan_cache.stats()["invalidated"] > 0


# -- one guard chain: try_fast hits exactly where fetch does -------------------

_GUARDED = "select a, b from t where a > {} and s = '{}'"


class TestOneGuardChain:
    def test_try_fast_hits_exactly_where_fetch_does(self):
        """One template through every verdict of the guard chain. At each
        step ``try_fast`` and then ``fetch`` are asked for the same text:
        ``try_fast`` serves exactly when ``fetch`` counts a hit, and the
        two plans are equal in shape and in every re-bound literal."""
        db = _tiny_db()
        planner = db._planner(None)
        cache = PlanCache()
        fp = template_fingerprint(_GUARDED.format(1, "x"))
        counters = ("hits", "misses", "size", "invalidated", "literal_sensitive_templates",
                    "literal_sensitive_skips")

        def ask(sql, epoch=0, plan_fresh=None):
            stmt = parse_select(sql)
            binding = extract_parameters(stmt)
            before = cache.stats()
            fast = cache.try_fast(fp, None, epoch, sql)
            asked = cache.stats()
            plan, _ = cache.fetch(
                (fp, None, binding.limits),
                epoch,
                stmt,
                binding,
                plan_fresh or (lambda: planner.plan(stmt)),
                sql=sql,
            )
            after = cache.stats()
            hit = after["hits"] - asked["hits"] == 1
            assert (fast is not None) == hit, sql
            assert asked["hits"] - before["hits"] == int(hit), sql
            if hit:
                fast, _ = fast
                assert plan_shape(fast) == plan_shape(plan)
                assert repr(fast) == repr(plan)  # every literal, value and type
            return tuple(after[c] - asked[c] for c in counters)

        #                hits misses size inval sensitive skips
        miss, hit = (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)
        assert ask(_GUARDED.format(1, "x")) == (0, 1, 1, 0, 0, 0)  # cold
        for i in range(1, VERIFY_BINDINGS):
            assert ask(_GUARDED.format(1 + i, "y")) == miss  # verification window
        assert ask(_GUARDED.format(1, "x")) == hit  # a repeated binding
        assert ask(_GUARDED.format(9, "z")) == hit  # past the window
        # a kind drift: the fingerprint pins every literal's kind, so a
        # differently-kinded text can only meet this template's plans
        # under a borrowed key (a DATE and an extra literal here)
        drift = "select a, b from t where a > 1 and s = date '2020-01-01' and b > 0"
        assert ask(drift) == miss
        # a stale catalog epoch: re-planned in place, verification restarts
        assert ask(_GUARDED.format(9, "z"), epoch=1) == (0, 1, 0, 1, 0, 0)
        assert ask(_GUARDED.format(9, "z"), epoch=1) == hit
        # a literal-sensitive mark: a verification planning that diverges
        divergent = planner.plan(parse_select(_GUARDED.format(0, "q") + " order by a"))
        assert ask(_GUARDED.format(3, "w"), 1, lambda: divergent) == (0, 1, 0, 0, 1, 0)
        assert ask(_GUARDED.format(9, "z"), epoch=1) == (0, 1, 0, 0, 0, 1)
        assert cache.stats()["fast_hits"] == 3


# -- exact-text hits: a repeated text is served by its own entry --------------

# no recipe: the type's numbers are literal tokens but no binding slots
_NO_RECIPE = "select a from t where cast(b as decimal(10, 2)) > {}"


def _key(sql: str):
    """The template key ``Database.execute_prepared`` files ``sql`` under."""
    ids, fps, _, _ = template_fingerprint_ids([sql])
    return template_keys(ids, fps)[0]


def _entry_of(cache: PlanCache, sql: str):
    """The entry of ``cache`` planned from the text ``sql``."""
    record = cache._templates[(_key(sql), None)]
    (entry,) = [entry for entry in record.plans.values() if entry.sql == sql]
    return entry


def _ask_fast(db: Database, sql: str):
    return db.plan_cache.try_fast(_key(sql), None, db.catalog_epoch, sql)


def _counting_parses(monkeypatch) -> list[str]:
    parsed: list[str] = []

    def counting_parse(sql):
        parsed.append(sql)
        return parse_select(sql)

    monkeypatch.setattr(engine, "parse_select", counting_parse)
    return parsed


class TestExactTextHit:
    def test_serves_the_entry_plan_without_scanning(self, monkeypatch):
        db = _tiny_db()
        sql = _GUARDED.format(1, "x")
        first = db.execute_prepared(sql)
        entry = _entry_of(db.plan_cache, sql)
        # the recipe route would re-bind the text to this very plan
        recipe = db.plan_cache._templates[(_key(sql), None)].recipe
        assert entry.rebinder.rebind(recipe.extract(sql).slots) is entry.plan

        def refuse(text):
            raise AssertionError(f"scanned {text!r}")

        monkeypatch.setattr(params, "scan", refuse)
        parsed = _counting_parses(monkeypatch)
        plan, recycling = _ask_fast(db, sql)
        assert plan is entry.plan and recycling is entry.own
        again = db.execute_prepared(sql)
        assert again.plan is entry.plan and parsed == []
        assert (again.rows, again.actual_cost) == (first.rows, first.actual_cost)

    @pytest.mark.parametrize(
        "event", ["catalog_epoch", "literal_sensitive", "invalidate_all", "eviction"]
    )
    def test_nothing_served_after(self, event):
        db = _tiny_db(PlanCache(capacity=1))
        cache = db.plan_cache
        sql = _GUARDED.format(1, "x")
        want = db.execute_prepared(sql).rows
        assert _ask_fast(db, sql) is not None
        if event == "catalog_epoch":
            db.load_table(
                Table(name="u", dtypes={"c": "int"}, columns={"c": np.arange(4)})
            )
        elif event == "literal_sensitive":
            # a verification planning whose shape diverges marks the template
            planner = db._planner(None)
            other = _GUARDED.format(2, "y")
            stmt = parse_select(other)
            binding = extract_parameters(stmt)
            divergent = planner.plan(parse_select(other + " order by a"))
            cache.fetch(
                (_key(other), None, binding.limits),
                db.catalog_epoch,
                stmt,
                binding,
                lambda: divergent,
                sql=other,
            )
            assert cache.stats()["literal_sensitive_templates"] == 1
        elif event == "invalidate_all":
            cache.invalidate_all()
        else:
            # the doorkeeper admits a newcomer seen as often as the victim
            for i in range(2):
                db.execute_prepared(f"select b from t where b = {i}")
            assert cache.stats()["evicted"] == 1
        before = cache.stats()
        assert _ask_fast(db, sql) is None
        assert cache.stats() == before
        assert db.execute_prepared(sql).rows == want

    def test_template_without_recipe_is_parse_free_on_its_planned_text(
        self, monkeypatch
    ):
        db = _tiny_db()
        planned, other = _NO_RECIPE.format(1), _NO_RECIPE.format(2)
        db.execute_prepared(planned)
        assert db.plan_cache._templates[(_key(planned), None)].recipe is None
        parsed = _counting_parses(monkeypatch)
        for _ in range(3):
            db.execute_prepared(planned)
        assert parsed == []
        stats = db.plan_cache.stats()
        assert (stats["hits"], stats["fast_hits"], stats["misses"]) == (3, 3, 1)
        db.execute_prepared(other)
        assert parsed == [other]

    def test_hits_unchanged_and_fast_hits_only_grow(self, monkeypatch):
        """The same stream with and without exact-text service: equal
        outcomes and counters, except ``fast_hits``, which may only grow."""
        rng = np.random.default_rng(7)
        groups = _template_groups()
        picked = [groups[i] for i in rng.choice(len(groups), size=24, replace=False)]
        picked.append([_NO_RECIPE.format(i) for i in range(1, 4)])
        stream = []
        for step in range(300):
            if step == 150:
                stream.append(("load", None, None))
            group = picked[int(rng.integers(len(picked)))]
            # the first instance most of the time: many exact repeats
            sql = group[0] if rng.random() < 0.6 else group[int(rng.integers(len(group)))]
            stream.append(("query", sql, None))
        counters = ("hits", "misses", "evicted", "admission_refused", "invalidated")

        def replay():
            db = Database(plan_cache=PlanCache(capacity=8))
            for table in [*_mixed_tables(), _tiny_db().table("t")]:
                db.load_table(table)
            trace = []
            for op, sql, _ in stream:
                if op == "load":
                    db.load_table(
                        Table(name="ddl", dtypes={"c": "int"}, columns={"c": np.arange(2)})
                    )
                    continue
                trace.append(_observe(db.execute_prepared, sql))
            return trace, db.plan_cache.stats()

        trace, stats = replay()

        class TextlessEntry(plancache._Entry):
            __slots__ = ()

            def __init__(self, plan, binding, epoch, sql):
                super().__init__(plan, binding, epoch, None)

        monkeypatch.setattr(plancache, "_Entry", TextlessEntry)
        textless_trace, textless = replay()
        assert trace == textless_trace
        assert {k: stats[k] for k in counters} == {k: textless[k] for k in counters}
        assert {k: v for k, v in stats.items() if k != "fast_hits"} == {
            k: v for k, v in textless.items() if k != "fast_hits"
        }
        # only the template without a recipe gains: its planned text
        assert stats["fast_hits"] > textless["fast_hits"]


# -- property: prepared == unprepared ----------------------------------------

_TPCH_DB = None
_TPCH_POOL = None


def _tpch():
    global _TPCH_DB, _TPCH_POOL
    if _TPCH_DB is None:
        _TPCH_DB = generate_tpch_database(
            exec_scale=0.0005, virtual_scale=0.0005, seed=42
        )
        _TPCH_POOL = generate_tpch_workload(instances_per_template=2, seed=13)
    return _TPCH_DB, _TPCH_POOL


def _observe(run, sql):
    """One execution attempt, folded to a comparable outcome."""
    try:
        result = run(sql)
    except Exception as exc:  # noqa: BLE001 - failures must match too
        return ("error", type(exc).__name__)
    return (
        "ok",
        result.columns,
        # repr, not the tuples themselves: TPC-H aggregates over empty
        # groups yield nan, and (nan,) != (nan,) under tuple equality
        repr(result.rows),
        result.n_rows,
        repr(result.actual_cost),  # the type counts too: float vs np.float64
        plan_shape(result.plan),
    )


@st.composite
def query_stream(draw):
    """Generated SELECTs (mostly unknown tables — both paths must fail
    identically) mixed with executable TPC-H instances, with repeats so
    the prepared path exercises hot-cache re-binding."""
    _, pool = _tpch()
    base = draw(
        st.lists(
            st.one_of(simple_select(), st.sampled_from(pool)),
            min_size=1,
            max_size=8,
        )
    )
    dup = draw(st.integers(min_value=1, max_value=2))
    return draw(st.permutations(base * dup))


class TestPreparedEquivalence:
    @given(query_stream())
    @settings(max_examples=30, deadline=None)
    def test_prepared_matches_unprepared(self, queries):
        db, _ = _tpch()
        for sql in queries:
            want = _observe(db.execute, sql)
            got = _observe(db.execute_prepared, sql)
            assert got == want, sql


# -- a re-bound plan keeps its identity relations -----------------------------


def _scans(plan):
    if type(plan).__name__ == "ScanNode":
        yield plan
    for child in plan.children():
        yield from _scans(child)


class TestPreparedIndexSeek:
    def test_seek_plan_matches_unprepared_past_verification(self):
        """A scan's seek predicate is also one of its predicates; the
        executor tells them apart by identity, so a re-bound plan must
        keep them one object or the seek predicate is evaluated — and
        charged — twice. Checked on both routes to a re-bind: the
        parse-free ``try_fast`` route and parse + ``fetch``."""
        db, _ = _tpch()
        cfg = IndexConfig([Index("orders", ("o_orderkey",))])
        fast = (
            "select o_orderkey, o_totalprice from orders "
            "where o_orderkey = {n} and o_totalprice > 10"
        )
        # a CAST type's precision and scale are number tokens no binding
        # slot reads, so the recipe cannot align: no recipe, and every
        # hit of this template re-binds through parse + fetch
        parsed = (
            "select o_orderkey from orders where o_orderkey = {n} "
            "and cast(o_totalprice as decimal(12, 2)) > 10"
        )

        def recipe(sql):
            return build_fast_recipe(sql, extract_parameters(parse_select(sql)))

        assert recipe(fast.format(n=1)) is not None
        assert recipe(parsed.format(n=1)) is None

        bindings = VERIFY_BINDINGS + 5
        for template in (fast, parsed):
            hits = db.plan_cache.stats()["hits"]
            for n in range(1, bindings + 1):
                sql = template.format(n=n)
                want = db.execute(sql, cfg)
                assert any(s.seek_predicate is not None for s in _scans(want.plan))
                got = db.execute_prepared(sql, cfg)
                assert (got.rows, got.actual_cost, plan_shape(got.plan)) == (
                    want.rows,
                    want.actual_cost,
                    plan_shape(want.plan),
                ), sql
            # the comparison above ran on re-bound plans, not fresh ones
            served = db.plan_cache.stats()["hits"] - hits
            assert served == bindings - VERIFY_BINDINGS


# -- property: the parse-free recipe agrees with the parser -------------------

# few templates x many instances: a narrow tenant profile gives SnowSim
# a bounded template population instead of one-off queries
_SNOW_CONFIG = SnowSimConfig(
    account_profile=((73881, 8), (18487, 6), (5471, 4)),
    tables_per_account=(3, 5),
    total_queries=300,
    seed=5,
)


def _snow_queries() -> list[str]:
    return [r.query for r in generate_snowsim_workload(_SNOW_CONFIG)]


def _parsed_binding(sql):
    try:
        return extract_parameters(parse_select(sql))
    except ParseError:
        return None


def _check_recipe_agrees_with_parser(queries) -> int:
    """For each template in ``queries``: a recipe built from its first
    parseable instance extracts, from every same-fingerprint text,
    either nothing or exactly the parser's binding: values with their
    types, ``kinds`` and ``limits``."""
    groups: dict[str, list[str]] = {}
    for sql in queries:
        groups.setdefault(template_fingerprint(sql), []).append(sql)
    recipes = 0
    for members in groups.values():
        base = _parsed_binding(members[0])
        if base is None:
            continue
        recipe = build_fast_recipe(members[0], base)
        if recipe is None:
            continue
        recipes += 1
        for sql in members:
            extracted = recipe.extract(sql)
            if extracted is None:
                continue
            want = _parsed_binding(sql)
            assert want is not None, sql
            assert extracted.kinds == want.kinds, sql
            assert extracted.limits == want.limits, sql
            assert extracted.rebind_safe == want.rebind_safe, sql
            assert [(type(s.value), s.value, s.kind) for s in extracted.slots] == [
                (type(s.value), s.value, s.kind) for s in want.slots
            ], sql
    return recipes


_NUMBER_TOKEN = re.compile(r"(?<![\w.'])\d+(?![\w.'])")
_STRING_TOKEN = re.compile(r"'[^']*'")


@st.composite
def same_template_selects(draw):
    """A generated SELECT plus re-drawn-literal variants of it."""
    base = draw(simple_select())
    variants = [base]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        sql = _NUMBER_TOKEN.sub(lambda m: str(draw(number)), base)
        sql = _STRING_TOKEN.sub(lambda m: f"'{draw(string_literal)}'", sql)
        variants.append(sql)
    return variants


class TestFastRecipeAgreesWithParser:
    def test_tpch_pool(self):
        pool = generate_tpch_workload(instances_per_template=4, seed=13)
        assert _check_recipe_agrees_with_parser(pool) > 0

    def test_snowsim_sample(self):
        assert _check_recipe_agrees_with_parser(_snow_queries()) > 0

    @given(same_template_selects())
    @settings(max_examples=60, deadline=None)
    def test_generated_selects(self, variants):
        _check_recipe_agrees_with_parser(variants)


# -- the backend adapter against the unprepared oracle ------------------------
# (timer-free twins of the retired benchmarks/test_bench_dispatch.py)


def _tenant_streams():
    snow = _snow_queries()
    return {
        "snow": (materialize_log_tables(snow, rows_per_table=8), snow),
        "tpch": (
            generate_tpch_database(exec_scale=0.0005, virtual_scale=0.0005, seed=42),
            generate_tpch_workload(instances_per_template=4, seed=11),
        ),
    }


def _oracle(db: Database, sql: str) -> tuple:
    try:
        result = db.execute(sql)
    except Exception:  # noqa: BLE001 - a failing query must fail prepared too
        return (False, 0, 0.0, None)
    return (True, result.n_rows, result.actual_cost, repr(result.rows))


class TestBackendMatchesUnpreparedOracle:
    def test_templated_outcomes_match_database_execute_cold_and_warm(self):
        for name, (db, queries) in _tenant_streams().items():
            want = [_oracle(db, sql) for sql in queries]
            assert any(w[0] for w in want)
            ids, _, _, _ = template_fingerprint_ids(queries)
            backend = MiniDBBackend(f"DB({name})", db)
            for temperature in ("cold", "warm"):
                result = backend.execute_templated(queries, ids)
                got = [
                    (
                        o.ok,
                        o.n_rows,
                        o.cost_units,
                        repr(o.result.rows) if o.ok else None,
                    )
                    for o in result.outcomes
                ]
                assert got == want, (name, temperature)
                assert all(bool(o.error) != o.ok for o in result.outcomes)

    def test_few_template_stream_hits_once_warm(self):
        for name, (db, queries) in _tenant_streams().items():
            backend = MiniDBBackend(f"DB({name})", db)
            backend.execute(queries)  # verification + recipes happen here
            cold = db.plan_cache.stats()
            backend.execute(queries)
            warm = db.plan_cache.stats()
            hits = warm["hits"] - cold["hits"]
            misses = warm["misses"] - cold["misses"]
            assert hits / (hits + misses) > 0.9, (name, cold, warm)


class TestOneKeyPerTemplate:
    def test_backend_and_database_file_a_text_under_one_key(self):
        db = _tiny_db()
        sql = _GUARDED.format(1, "x")
        MiniDBBackend("DB", db).execute([sql])
        db.execute_prepared(sql)
        stats = db.plan_cache.stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_a_reset_never_serves_another_templates_plan(self):
        """Interned ids outlive ``reset_fingerprint_caches``: a template
        interned after a reset cannot meet a plan cached under an id
        handed out before it."""
        db = generate_tpch_database(exec_scale=0.0005, virtual_scale=0.0005, seed=42)
        backend = MiniDBBackend("DB", db)
        reset_fingerprint_caches()
        backend.execute(
            [f"SELECT COUNT(*) FROM orders WHERE o_totalprice > {v}" for v in range(5)]
        )
        reset_fingerprint_caches()
        sql = "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 5"
        (outcome,) = backend.execute([sql]).outcomes
        assert outcome.ok and outcome.result.rows == db.execute(sql).rows


# -- differential under eviction pressure -------------------------------------

_SEEK_CONFIG = IndexConfig([Index("orders", ("o_orderkey",))])
_MIXED_TABLES = None


def _mixed_tables() -> list[Table]:
    """TPC-H and narrow-profile SnowSim tables side by side."""
    global _MIXED_TABLES
    if _MIXED_TABLES is None:
        tpch, _ = _tpch()
        snow = materialize_log_tables(_snow_queries(), rows_per_table=8)
        assert not set(tpch.tables) & set(snow.tables)
        _MIXED_TABLES = [*tpch.tables.values(), *snow.tables.values()]
    return _MIXED_TABLES


_TEMPLATE_GROUPS = None


def _template_groups() -> list[list[str]]:
    """SnowSim and TPC-H instances grouped by template fingerprint."""
    global _TEMPLATE_GROUPS
    if _TEMPLATE_GROUPS is None:
        groups: dict[str, list[str]] = {}
        pool = generate_tpch_workload(instances_per_template=4, seed=13)
        for sql in [*_snow_queries(), *pool]:
            groups.setdefault(template_fingerprint(sql), []).append(sql)
        _TEMPLATE_GROUPS = list(groups.values())
    return _TEMPLATE_GROUPS


@st.composite
def pressure_stream(draw):
    """A few templates — SnowSim, TPC-H and generated — each drawn many
    times with varying literals into a stream, so some turn hot while
    others stay one-shots, with ``load_table`` calls (catalog epoch
    bumps) between."""
    templates = draw(
        st.lists(st.sampled_from(_template_groups()), min_size=2, max_size=6)
    ) + draw(st.lists(same_template_selects(), max_size=2))
    query = st.tuples(
        st.just("query"),
        st.sampled_from(templates).flatmap(st.sampled_from),
        st.sampled_from((None, _SEEK_CONFIG)),
    )
    queries = draw(st.lists(query, min_size=20, max_size=60))
    loads = draw(st.sets(st.sampled_from(range(len(queries))), max_size=len(queries) // 8))
    stream = []
    for i, step in enumerate(queries):
        if i in loads:
            stream.append(("load", None, None))
        stream.append(step)
    return stream


def _check_cache_invariants(db: Database, sql, config, recipes: dict) -> None:
    """After one query: plans within capacity, no empty record, a proven
    recipe kept for as long as its template stays cached, and the
    query's own cached plan (if any) from the current catalog epoch."""
    cache = db.plan_cache
    templates = cache._templates
    stats = cache.stats()
    assert stats["size"] == sum(len(r.plans) for r in templates.values())
    assert stats["size"] <= stats["capacity"]
    for key in [k for k in recipes if k not in templates]:
        del recipes[key]
    for key, record in templates.items():
        assert record.plans, key
        if key in recipes:
            assert record.recipe is recipes[key], key
        elif record.recipe is not None:
            recipes[key] = record.recipe
    try:
        limits = extract_parameters(parse_select(sql)).limits
    except SQLError:
        return
    record = templates.get((_key(sql), config))
    entry = None if record is None else record.plans.get(limits)
    assert entry is None or entry.epoch == db.catalog_epoch, sql


def _replay(stream, capacity: int, oracle: bool) -> list[tuple]:
    """Run ``stream`` through a fresh ``PlanCache(capacity)``; with
    ``oracle``, hold every query to ``Database.execute`` and check the
    cache invariants. Returns the counters after every query."""
    db = Database(plan_cache=PlanCache(capacity=capacity))
    for table in _mixed_tables():
        db.load_table(table)
    recipes: dict = {}
    trace = []
    for step, (op, arg, flag) in enumerate(stream):
        if op == "load":
            db.load_table(
                Table(name=f"ddl_{step}", dtypes={"c": "int"}, columns={"c": np.arange(2)})
            )
            continue
        sql, config = arg, flag
        got = _observe(lambda s: db.execute_prepared(s, config), sql)
        if oracle:
            assert got == _observe(lambda s: db.execute(s, config), sql), sql
            _check_cache_invariants(db, sql, config, recipes)
        stats = db.plan_cache.stats()
        trace.append(
            tuple(
                stats[name]
                for name in (
                    "hits",
                    "fast_hits",
                    "misses",
                    "evicted",
                    "admission_refused",
                    "invalidated",
                )
            )
        )
    return trace


class TestPreparedUnderEvictionPressure:
    @given(pressure_stream())
    @settings(max_examples=30, deadline=None)
    def test_prepared_matches_oracle_and_replays(self, stream):
        for capacity in (1, 2, 8):
            trace = _replay(stream, capacity, oracle=True)
            # admission and eviction are a pure function of the stream
            assert _replay(stream, capacity, oracle=False) == trace
