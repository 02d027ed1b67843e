"""Database facade: parse → plan → execute with cost accounting.

``execute`` returns both the result rows and the two cost numbers the
experiments compare: the optimizer's estimate and the executor's
true-count cost. The harness converts cost units to seconds with a
single calibration constant (see ``repro.experiments.config``).

``execute_prepared`` hands the serving plan-cache entry's recycled
results and the binding's key to the executor, so a cached plan's
literal-free subtrees run once per entry and a repeated binding is
served its kept root result (see :mod:`repro.minidb.executor`);
``execute`` never recycles and stays the oracle prepared execution is
checked against. Both routes share each table's key indexes
(``Table.key_index``): they depend on the data, not on the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.minidb.catalog import Catalog
from repro.minidb.executor import ExecutionStats, Executor, Recycling
from repro.minidb.indexes import IndexConfig
from repro.minidb.optimizer import CostModel
from repro.minidb.plancache import PlanCache
from repro.minidb.planner import Planner, PlanNode
from repro.minidb.storage import Table, days_to_date
from repro.sql.normalizer import template_fingerprint_ids
from repro.sql.params import extract_parameters
from repro.sql.parser import parse_select


@dataclass
class QueryResult:
    """Result of one executed query."""

    columns: list[str]
    rows: list[tuple]
    est_cost: float
    actual_cost: float
    est_rows: float
    n_rows: int
    plan: PlanNode
    stats: ExecutionStats = field(repr=False, default=None)  # type: ignore[assignment]


def template_keys(ids, fingerprints) -> list:
    """Plan-cache template keys for fingerprinted queries, the one rule
    for every route into :meth:`Database.execute_prepared`: the interned
    fingerprint id, or the fingerprint string when the intern table had
    no slot (id ``-1``)."""
    return [int(i) if i >= 0 else fp for i, fp in zip(ids, fingerprints)]


class Database:
    """Materialized tables + catalog + optimizer/executor stack."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        cost_model: CostModel | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.catalog = catalog or Catalog()
        self.cost_model = cost_model or CostModel()
        self._tables: dict[str, Table] = {}
        self._planners: dict[IndexConfig | None, Planner] = {}
        # explicit None-check: an empty PlanCache is falsy (len == 0)
        self._plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._catalog_epoch = 0

    # -- data loading -------------------------------------------------------------

    def load_table(self, table: Table) -> None:
        """Register a materialized table and compute its statistics.

        Bumps the catalog epoch: prepared plans compiled against the
        old catalog are invalidated on their next cache lookup, and the
        table's text columns are encoded, and its key indexes built,
        afresh when next needed.
        """
        table.drop_derived()
        self._tables[table.name] = table
        self.catalog.add_table(table.metadata())
        self._catalog_epoch += 1
        self._planners.clear()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ExecutionError(f"table {name} is not loaded") from None

    @property
    def tables(self) -> dict[str, Table]:
        return dict(self._tables)

    @property
    def catalog_epoch(self) -> int:
        """Monotone counter bumped on every ``load_table``."""
        return self._catalog_epoch

    @property
    def plan_cache(self) -> PlanCache:
        return self._plan_cache

    # -- planning and execution -------------------------------------------------------

    def _planner(self, config: IndexConfig | None) -> Planner:
        """One planner per index config — the planner is stateless over
        a live catalog reference, so it is shared across queries (and
        threads) instead of rebuilt per query."""
        planner = self._planners.get(config)
        if planner is None:
            planner = Planner(self.catalog, config, self.cost_model)
            self._planners[config] = planner
        return planner

    def plan(self, sql: str, config: IndexConfig | None = None) -> PlanNode:
        """What-if planning: produce the plan the optimizer would choose
        under ``config`` without executing anything."""
        stmt = parse_select(sql)
        return self._planner(config).plan(stmt)

    def estimate_cost(self, sql: str, config: IndexConfig | None = None) -> float:
        """Optimizer-estimated cost of ``sql`` under ``config``."""
        return self.plan(sql, config).est_cost

    def execute(
        self, sql: str, config: IndexConfig | None = None
    ) -> QueryResult:
        """Plan under ``config``, execute, and report both cost views.

        The unprepared route: every call parses and plans from scratch.
        It is the oracle prepared execution is checked against.
        """
        return self._finish(self.plan(sql, config))

    def execute_prepared(
        self,
        sql: str,
        config: IndexConfig | None = None,
        fingerprint_key: object | None = None,
    ) -> QueryResult:
        """Like :meth:`execute`, planning through the template plan cache.

        Queries sharing a template (same fingerprint, index config and
        LIMIT values) reuse one cached plan with fresh literals
        re-bound, subject to the catalog-epoch and literal-sensitivity
        guards in :class:`~repro.minidb.plancache.PlanCache`.
        ``fingerprint_key`` is an optional precomputed template key (see
        :func:`template_keys`) so batch callers don't re-fingerprint;
        without one the same rule resolves it, so a text gets one key
        whichever route it takes. Rows and costs are bit-identical to
        ``execute``. The serving entry's recycled results go to the
        executor: subtrees no literal reaches run once per cached plan,
        and a binding the entry served before takes its kept root.
        """
        return self._finish(*self._prepared_plan(sql, config, fingerprint_key))

    def _prepared_plan(
        self,
        sql: str,
        config: IndexConfig | None,
        fingerprint_key: object | None,
    ) -> tuple[PlanNode, Recycling | None]:
        """Plan ``sql`` through the cache, parsing only when needed; the
        plan comes with its cache entry's recycled results, if any.

        Hits are served by
        :meth:`~repro.minidb.plancache.PlanCache.try_fast` without a
        parse: a text a cached plan was made from brings that plan's own
        binding, any other text of a verified template has its binding
        extracted straight from the text. Everything else parses (from
        the same scan's tokens) and goes through
        :meth:`PlanCache.fetch`. Both meet the same guard chain with the
        same binding for the same text.
        """
        if fingerprint_key is None:
            ids, fps, _, _ = template_fingerprint_ids([sql])
            (fingerprint_key,) = template_keys(ids, fps)
        served = self._plan_cache.try_fast(
            fingerprint_key, config, self._catalog_epoch, sql
        )
        if served is not None:
            return served
        stmt = parse_select(sql)
        binding = extract_parameters(stmt)
        planner = self._planner(config)
        if not binding.rebind_safe:
            self._plan_cache.note_uncacheable()
            return planner.plan(stmt), None
        return self._plan_cache.fetch(
            (fingerprint_key, config, binding.limits),
            self._catalog_epoch,
            stmt,
            binding,
            lambda: planner.plan(stmt),
            sql=sql,
        )

    def _finish(
        self, plan: PlanNode, recycling: Recycling | None = None
    ) -> QueryResult:
        executor = Executor(self._tables, self.catalog, self.cost_model, recycling)
        frame, stats = executor.run(plan)
        if stats.recycled:
            self._plan_cache.note_recycled(stats.recycled)
        columns = list(frame.columns)
        rows = _frame_rows(frame)
        return QueryResult(
            columns=columns,
            rows=rows,
            est_cost=plan.est_cost,
            actual_cost=stats.cost_units,
            est_rows=plan.est_rows,
            n_rows=frame.n_rows,
            plan=plan,
            stats=stats,
        )

    def explain(self, sql: str, config: IndexConfig | None = None) -> str:
        """Human-readable plan description."""
        return self.plan(sql, config).describe()


def _frame_rows(frame) -> list[tuple]:
    """Materialize a frame as python tuples: dates become date objects,
    codes become their text, and an invalid (outer-join) value is None."""
    arrays = []
    for key in frame.columns:
        values = frame.decoded(key)
        if frame.dtypes.get(key) == "date":
            column = [days_to_date(v) for v in values]
        elif values.dtype.kind in ("U", "S"):
            column = [str(v) for v in values]
        elif values.dtype.kind == "f":
            column = [float(v) for v in values]
        else:
            column = [int(v) for v in values]
        valid = frame.valid.get(key)
        if valid is not None and not valid.all():
            column = [v if ok else None for v, ok in zip(column, valid.tolist())]
        arrays.append(column)
    return list(zip(*arrays)) if arrays else []
