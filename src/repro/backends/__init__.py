"""Backend routing layer: the databases behind the ``query(X, t)`` arrows.

``repro.backends`` turns predicted labels into placement decisions:

* :class:`Backend` / :class:`MiniDBBackend` — execute a batch of SQL
  texts and report per-query outcomes;
* :class:`AdmissionController` — bounded in-flight slots plus a token
  bucket in front of each backend;
* :class:`BackendRegistry` / :class:`BatchRouter` — group a labeled
  batch by its predicted route label, admit what each backend's gate
  allows, and spill the rest (reject / queue / fallback);
* :class:`RoutingPolicy` and friends (:mod:`repro.backends.policy`) —
  load-aware placement: re-rank a label's candidate backends per batch
  against their live :class:`LoadSignal` (EWMA latency, admission
  rejection rate, in-flight and queue depth) instead of following the
  static route table;
* :class:`RetryPolicy` / :class:`CircuitBreaker`
  (:mod:`repro.backends.resilience`) — fault tolerance on the dispatch
  path: bounded retries with deterministic backoff, per-backend
  circuit breaking, and candidate failover.
"""

from repro.backends.admission import AdmissionController, TokenBucket
from repro.backends.base import Backend, BatchResult, NullBackend, QueryOutcome
from repro.backends.latency import LatencyProxyBackend
from repro.backends.minidb_backend import MiniDBBackend
from repro.backends.policy import (
    CandidateView,
    CostBudgetPolicy,
    LatencyEwmaPolicy,
    LeastLoadedPolicy,
    LoadSignal,
    RoutingPolicy,
)
from repro.backends.resilience import BreakerState, CircuitBreaker, RetryPolicy
from repro.backends.router import (
    BackendBinding,
    BackendCounters,
    BackendRegistry,
    BatchRouter,
    DispatchReport,
    RouteDecision,
    SpillPolicy,
)

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "Backend",
    "BatchResult",
    "NullBackend",
    "QueryOutcome",
    "LatencyProxyBackend",
    "MiniDBBackend",
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
    "CandidateView",
    "CostBudgetPolicy",
    "LatencyEwmaPolicy",
    "LeastLoadedPolicy",
    "LoadSignal",
    "RoutingPolicy",
    "BackendBinding",
    "BackendCounters",
    "BackendRegistry",
    "BatchRouter",
    "DispatchReport",
    "RouteDecision",
    "SpillPolicy",
]
