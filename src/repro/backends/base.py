"""Backend abstraction: the ``DB(X)`` boxes at the bottom of Figure 1.

Querc sits *in front of* the databases it manages: the ``query(X, t)``
arrows land on concrete backends, and the labels Querc predicts decide
which one. A :class:`Backend` is anything that can execute a batch of
SQL texts and report what happened per query; the router only ever
talks to this interface, which is what keeps the workload-management
layer database-agnostic.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import BackendError


@dataclass(frozen=True)
class QueryOutcome:
    """What happened to one query on one backend.

    ``error`` is empty on success; ``result`` carries the engine's
    native result object when the backend exposes one (e.g. the
    minidb :class:`~repro.minidb.engine.QueryResult`), so callers can
    reach rows without another round trip.
    """

    query: str
    ok: bool
    n_rows: int = 0
    cost_units: float = 0.0
    latency_seconds: float = 0.0
    error: str = ""
    result: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BatchResult:
    """One backend's view of one executed batch."""

    backend: str
    outcomes: tuple[QueryOutcome, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed_count(self) -> int:
        return len(self.outcomes) - self.ok_count

    @property
    def rows_returned(self) -> int:
        return sum(o.n_rows for o in self.outcomes)

    @property
    def cost_units(self) -> float:
        return sum(o.cost_units for o in self.outcomes)

    @property
    def latency_seconds(self) -> float:
        return sum(o.latency_seconds for o in self.outcomes)

    def results(self) -> list:
        """Native result objects of the successful queries, in order."""
        return [o.result for o in self.outcomes if o.ok]


def rebadge(result: BatchResult, name: str) -> BatchResult:
    """Re-attribute a :class:`BatchResult` to ``name``.

    Wrapper backends (latency proxies, say) delegate to an
    inner backend but are registered under their own binding; outcomes
    must carry the wrapper's name so reports and per-backend counters
    attribute them to the binding that dispatched, not the engine that
    answered. No-op when the names already match.
    """
    if result.backend == name:
        return result
    return BatchResult(backend=name, outcomes=result.outcomes)


class Backend(abc.ABC):
    """A database that admitted batches execute on.

    Implementations must be safe to call from the router's dispatch
    path; per-query failures should be captured as failed
    :class:`QueryOutcome`\\ s rather than raised, unless the backend is
    configured strict.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise BackendError("backend name must be non-empty")
        self.name = name

    @abc.abstractmethod
    def execute(self, queries: Sequence[str]) -> BatchResult:
        """Execute a batch of SQL texts, one outcome per query."""

    def execute_templated(
        self, queries: Sequence[str], template_ids: Sequence[int] | None = None
    ) -> BatchResult:
        """Execute a batch whose template identity is already known.

        ``template_ids`` aligns with ``queries``: interned
        template-fingerprint ids from the labeling pipeline (negative
        ids are batch-local overflow and carry no cross-batch
        meaning). Backends with a prepared-execution path (e.g.
        :class:`~repro.backends.minidb_backend.MiniDBBackend`) use the
        ids to key their plan cache; the default implementation — and
        any text-only backend — just ignores them and falls back to
        :meth:`execute`.
        """
        return self.execute(queries)

    def load_hint(self) -> dict:
        """Static cost prior for the load-aware routing policies.

        Returned keys seed a backend's
        :class:`~repro.backends.policy.CandidateView` before any
        execution has been observed — ``per_query_seconds`` is the
        expected per-query latency (e.g. a proxy's configured delay, a
        catalog's published service time). An empty dict (the default)
        means no prior: policies treat the backend optimistically and
        let the first dispatched batches price it.
        """
        return {}

    def snapshot(self) -> dict:
        """Engine-level state for dashboards; counters live in the
        router's per-backend ledger, not here."""
        return {"name": self.name, "kind": type(self).__name__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class NullBackend(Backend):
    """Accepts every query and executes nothing.

    The zero-cost stand-in for a database Querc labels but does not
    manage — useful as a spill/fallback target and in tests. Keeps the
    last ``KEEP_LAST`` accepted texts so tests can observe arrival order.
    """

    KEEP_LAST = 256

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._lock = threading.Lock()
        self._accepted = 0
        self._tail: list[str] = []

    def execute(self, queries: Sequence[str]) -> BatchResult:
        with self._lock:
            self._accepted += len(queries)
            self._tail.extend(queries)
            del self._tail[: -self.KEEP_LAST]
        outcomes = tuple(QueryOutcome(query=q, ok=True) for q in queries)
        return BatchResult(backend=self.name, outcomes=outcomes)

    @property
    def accepted(self) -> int:
        with self._lock:
            return self._accepted

    def recent(self) -> list[str]:
        with self._lock:
            return list(self._tail)

    def snapshot(self) -> dict:
        return {**super().snapshot(), "accepted": self.accepted}
