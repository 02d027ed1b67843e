"""MiniDB adapter: labeled batches actually execute somewhere.

Wraps a :class:`repro.minidb.engine.Database` behind the
:class:`~repro.backends.base.Backend` protocol. By default per-query
failures (parse errors, unknown tables — routine in multi-tenant
traffic where not every tenant's schema lives on every backend) are
captured as failed outcomes so one bad query cannot poison its batch;
``strict=True`` turns the first failure into a raised
:class:`~repro.errors.BackendError` instead.

Execution is *prepared*: queries plan through the database's template
plan cache (:class:`~repro.minidb.plancache.PlanCache`), keyed by the
interned template ids the dispatch path hands to
:meth:`execute_templated` — or resolved here through the process-wide
fingerprint memo when a caller only has text. Rows are byte-identical
to unprepared execution (``Database.execute``, the oracle the tests
compare against).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.backends.base import Backend, BatchResult, QueryOutcome
from repro.errors import BackendError
from repro.minidb.engine import Database, template_keys
from repro.minidb.indexes import IndexConfig
from repro.runtime.metrics import Counters
from repro.sql.normalizer import template_fingerprint_ids


class MiniDBBackend(Backend):
    """A named minidb instance the router can dispatch to."""

    def __init__(
        self,
        name: str,
        database: Database,
        config: IndexConfig | None = None,
        strict: bool = False,
    ) -> None:
        super().__init__(name)
        self.database = database
        self.config = config
        self.strict = strict
        self._counters = Counters(("executed", "failed"))

    def execute(self, queries: Sequence[str]) -> BatchResult:
        return self.execute_templated(queries, None)

    def execute_templated(
        self, queries: Sequence[str], template_ids: Sequence[int] | None = None
    ) -> BatchResult:
        """Execute per query; a fault becomes a failed outcome, or — in
        strict mode — aborts the batch with a :class:`BackendError`
        that names the offending query's index and template key (and
        carries them as ``query_index`` / ``template_key``) so
        operators can attribute the fault without replaying the batch.
        """
        queries = list(queries)
        keys = self._template_keys(queries, template_ids)
        outcomes: list[QueryOutcome] = []
        for i, (sql, key) in enumerate(zip(queries, keys)):
            start = time.perf_counter()
            try:
                result = self.database.execute_prepared(
                    sql, self.config, fingerprint_key=key
                )
            except Exception as exc:  # noqa: BLE001 - engine faults become outcomes
                if self.strict:
                    error = BackendError(
                        f"backend {self.name!r} failed executing a strict "
                        f"batch of {len(queries)} at query {i} "
                        f"(template {key!r}): {exc}"
                    )
                    error.query_index = i
                    error.template_key = key
                    raise error from exc
                outcomes.append(
                    QueryOutcome(
                        query=sql,
                        ok=False,
                        latency_seconds=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            outcomes.append(
                QueryOutcome(
                    query=sql,
                    ok=True,
                    n_rows=result.n_rows,
                    cost_units=result.actual_cost,
                    latency_seconds=time.perf_counter() - start,
                    result=result,
                )
            )
        ok = sum(1 for o in outcomes if o.ok)
        self._counters.add(executed=ok, failed=len(outcomes) - ok)
        return BatchResult(backend=self.name, outcomes=tuple(outcomes))

    def _template_keys(
        self, queries: list[str], template_ids: Sequence[int] | None
    ) -> list[object]:
        """Plan-cache keys aligned with ``queries``.

        Dispatch-supplied interned ids are used as-is; negative ids
        (batch-local intern overflow — meaningless across batches)
        become ``None`` so the engine resolves the key itself.
        Text-only calls resolve ids and fingerprints in one vectorized
        probe of the process-wide memo, under the engine's one key rule
        (:func:`~repro.minidb.engine.template_keys`).
        """
        if template_ids is not None:
            return [int(i) if i >= 0 else None for i in template_ids]
        ids, fps, _, _ = template_fingerprint_ids(queries)
        return template_keys(ids, fps)

    def snapshot(self) -> dict:
        return {
            **super().snapshot(),
            "tables": sorted(self.database.tables),
            **self._counters.snapshot(),
            "plan_cache": self.database.plan_cache.stats(),
        }
