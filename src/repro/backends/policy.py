"""Load-aware routing policies: placement as feedback control.

The paper's loop ends at "send ``query(X, t)`` to ``DB(X)``" — the
backend for a query is a pure function of its predicted label. WiSeDB
and Tempo both show that a workload manager has to go further: the
*right* backend depends on what the backends are doing right now, not
just on what class the query belongs to. BRAD's learned router makes
the same move for HTAP engines — a policy produces a *preference
order* over candidate engines, and the dispatcher takes the first one
that can actually accept the work.

This module is that layer for Querc:

* :class:`LoadSignal` — one backend's recent load, as the router
  observes it: an EWMA of per-query execute latency and an EWMA of the
  fraction of offered work the admission gate turned away. The live
  in-flight depth and pending-queue depth come from the
  :class:`~repro.backends.admission.AdmissionController` and the
  binding's spill queue; together they form a :class:`CandidateView`.
* :class:`RoutingPolicy` — ranks the candidate backends for one
  predicted label, given each candidate's :class:`CandidateView`. The
  :class:`~repro.backends.router.BatchRouter` re-ranks once per
  (label, batch), so placement tracks load at batch granularity while
  staying cheap on the hot path.
* Three concrete policies: :class:`LeastLoadedPolicy` (min
  in-flight + queued depth), :class:`LatencyEwmaPolicy` (min observed
  per-query latency, optimistic about unmeasured backends), and
  :class:`CostBudgetPolicy` (spend per-backend cost budgets before
  overflowing onto expensive engines). The original fixed
  label→backend table is no policy at all: the router's static chain.

A policy that returns an empty ranking *abstains*: the router falls
back to the static route table / default backend, so installing a
policy can only ever refine the old behavior, never strand a label.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import BackendError


class LoadSignal:
    """EWMA view of one backend's observed latency and admission churn.

    The router feeds it from the dispatch path: every admission
    decision becomes ``observe_admission(offered, admitted)`` and every
    completed ``execute`` call becomes ``observe_execution(queries,
    seconds)``. Policies read the smoothed values through
    :meth:`snapshot` (or a :class:`CandidateView`). Thread-safe — many
    dispatch threads feed one signal.
    """

    def __init__(self, smoothing: float = 0.3) -> None:
        if not 0 < smoothing <= 1:
            raise BackendError("smoothing must be in (0, 1]")
        self.smoothing = float(smoothing)
        self._lock = threading.Lock()
        self._latency_ewma: float | None = None  # seconds per query
        self._rejection_ewma = 0.0  # fraction of offered work turned away
        self._executions = 0
        self._admissions = 0

    def observe_execution(self, queries: int, seconds: float) -> None:
        """Record one executed group's per-query cost."""
        if queries <= 0 or seconds < 0:
            return
        per_query = seconds / queries
        with self._lock:
            self._executions += 1
            if self._latency_ewma is None:
                self._latency_ewma = per_query
            else:
                self._latency_ewma += self.smoothing * (
                    per_query - self._latency_ewma
                )

    def observe_admission(self, offered: int, admitted: int) -> None:
        """Record one gate decision: ``offered`` units, ``admitted`` in."""
        if offered <= 0:
            return
        turned_away = min(1.0, max(0.0, 1.0 - admitted / offered))
        with self._lock:
            self._admissions += 1
            self._rejection_ewma += self.smoothing * (
                turned_away - self._rejection_ewma
            )

    @property
    def latency_ewma(self) -> float | None:
        """Smoothed per-query execute seconds (None until observed)."""
        with self._lock:
            return self._latency_ewma

    @property
    def rejection_ewma(self) -> float:
        """Smoothed fraction of offered work the gate turned away."""
        with self._lock:
            return self._rejection_ewma

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "latency_ewma_seconds": self._latency_ewma,
                "rejection_ewma": self._rejection_ewma,
                "executions": self._executions,
                "admissions": self._admissions,
            }


@dataclass(frozen=True)
class CandidateView:
    """One candidate backend's load, as a policy sees it.

    ``latency_ewma`` is the observed per-query execute latency (falls
    back to the backend's :meth:`~repro.backends.base.Backend.load_hint`
    prior, None when neither exists); ``rejection_rate`` the smoothed
    fraction of offered work the gate turned away; ``in_flight`` /
    ``headroom`` the live admission-gate state (headroom is the free
    fraction of the in-flight bound, None when unbounded); ``pending``
    the spill queue's depth; ``cost_units`` the cumulative execution
    cost charged to this backend so far; ``breaker`` the backend's
    circuit-breaker state (``"closed"`` when no breaker is configured)
    — the load-aware policies rank open-circuit backends last.
    """

    name: str
    latency_ewma: float | None = None
    rejection_rate: float = 0.0
    in_flight: int = 0
    headroom: float | None = None
    pending: int = 0
    cost_units: float = 0.0
    breaker: str = "closed"

    @property
    def depth(self) -> int:
        """Work already committed to this backend (in-flight + parked)."""
        return self.in_flight + self.pending

    @property
    def breaker_open(self) -> bool:
        """True when the backend's circuit is open (dispatch would
        short-circuit to failover). Half-open counts as available: the
        probe has to come from somewhere."""
        return self.breaker == "open"

    def as_dict(self) -> dict:
        return {
            "latency_ewma_seconds": self.latency_ewma,
            "rejection_rate": self.rejection_rate,
            "in_flight": self.in_flight,
            "headroom": self.headroom,
            "pending": self.pending,
            "cost_units": self.cost_units,
            "breaker": self.breaker,
        }


class RoutingPolicy(abc.ABC):
    """Rank candidate backends for one predicted label.

    ``rank`` receives the label value, one :class:`CandidateView` per
    candidate backend, and the static route table's answer for the
    label (``mapped``, None when the table has no entry). It returns a
    preference order of backend names — the router dispatches the
    group to the first name it recognizes. Returning an empty list
    abstains; the router then falls back to static resolution.

    Implementations must be deterministic (ties broken by name) and
    cheap: ``rank`` runs once per (label, batch) on the dispatch path.
    """

    name = "policy"

    @abc.abstractmethod
    def rank(
        self,
        label: object,
        candidates: Sequence[CandidateView],
        mapped: str | None = None,
    ) -> list[str]:
        """Preference order over candidate backend names."""

    def snapshot(self) -> dict:
        """Policy configuration, for ``stats()["routing"]``."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class LeastLoadedPolicy(RoutingPolicy):
    """Prefer the backend with the least committed work.

    Ranks by in-flight depth plus parked spill-queue depth (the work a
    new arrival would wait behind), breaking ties by rejection rate and
    then name. The classic join-the-shortest-queue stance: it needs no
    latency history, so it adapts instantly to imbalance the moment a
    gate's in-flight count diverges. Open-circuit backends rank last
    regardless of depth — an empty queue on a dead backend is not
    headroom.
    """

    name = "least_loaded"

    def rank(
        self,
        label: object,
        candidates: Sequence[CandidateView],
        mapped: str | None = None,
    ) -> list[str]:
        return [
            v.name
            for v in sorted(
                candidates,
                key=lambda v: (v.breaker_open, v.depth, v.rejection_rate, v.name),
            )
        ]


class LatencyEwmaPolicy(RoutingPolicy):
    """Prefer the backend with the lowest observed per-query latency.

    The feedback loop WiSeDB argues for: placement follows measured
    backend cost, not the predicted class alone. Unmeasured backends
    rank as their :meth:`~repro.backends.base.Backend.load_hint` prior
    when one exists, else optimistically at zero — a cold backend gets
    explored immediately and its first batches price it honestly.
    ``rejection_weight`` inflates a backend's effective latency by its
    smoothed rejection rate, so a fast-but-saturated gate loses to a
    slightly slower open one. Open-circuit backends rank last however
    fast they once were.
    """

    name = "latency_ewma"

    def __init__(self, rejection_weight: float = 1.0) -> None:
        if rejection_weight < 0:
            raise BackendError("rejection_weight must be non-negative")
        self.rejection_weight = float(rejection_weight)

    def _effective(self, view: CandidateView) -> float:
        latency = view.latency_ewma if view.latency_ewma is not None else 0.0
        return latency * (1.0 + self.rejection_weight * view.rejection_rate)

    def rank(
        self,
        label: object,
        candidates: Sequence[CandidateView],
        mapped: str | None = None,
    ) -> list[str]:
        return [
            v.name
            for v in sorted(
                candidates, key=lambda v: (v.breaker_open, self._effective(v), v.name)
            )
        ]

    def snapshot(self) -> dict:
        return {**super().snapshot(), "rejection_weight": self.rejection_weight}


class CostBudgetPolicy(RoutingPolicy):
    """Spend per-backend cost budgets before overflowing to the rest.

    ``budgets`` maps backend names to a cost-unit allowance (the
    cumulative ``cost_units`` the backend's counters may reach).
    Backends under budget rank first — among them by remaining-budget
    fraction (the fullest wallet first), then name; exhausted and
    unbudgeted backends follow, ranked by latency; open-circuit
    backends last of all (an unspent budget on a dead backend buys
    nothing). Tempo's stance: the manager owns a spend plan, and load
    shifts off an engine when its plan is consumed, not when it
    finally saturates.
    """

    name = "cost_budget"

    def __init__(self, budgets: Mapping[str, float]) -> None:
        if not budgets:
            raise BackendError("cost budgets must be non-empty")
        for backend, budget in budgets.items():
            if budget <= 0:
                raise BackendError(
                    f"budget for {backend!r} must be positive, got {budget}"
                )
        self.budgets = dict(budgets)

    def rank(
        self,
        label: object,
        candidates: Sequence[CandidateView],
        mapped: str | None = None,
    ) -> list[str]:
        def key(view: CandidateView):
            budget = self.budgets.get(view.name)
            if budget is not None and view.cost_units < budget:
                remaining = 1.0 - view.cost_units / budget
                return (view.breaker_open, 0, -remaining, view.name)
            latency = view.latency_ewma if view.latency_ewma is not None else 0.0
            return (view.breaker_open, 1, latency, view.name)

        return [v.name for v in sorted(candidates, key=key)]

    def snapshot(self) -> dict:
        return {**super().snapshot(), "budgets": dict(self.budgets)}
