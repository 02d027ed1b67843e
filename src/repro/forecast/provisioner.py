"""PredictiveProvisioner: the closed loop around the planner.

Owns the per-tenant forecasters, samples the live deployment into a
current :class:`~repro.forecast.blueprint.Blueprint`, runs the
:class:`~repro.forecast.planner.ProvisioningPlanner` on a fixed
planning interval, and — when ``auto_apply`` is on — enacts the diff
through the live resize hooks this PR added:
``StagedExecutor.resize``, ``AdmissionController.resize``, and
``BatchRouter.set_candidates``. With ``auto_apply`` off it is a pure
advisor: the diff lands in ``snapshot()`` (and therefore the
service's ``stats()["forecast"]``) and nothing moves.

The provisioner is wired into :class:`~repro.core.service.QuercService`
via ``set_provisioner``: the staged executor's dispatch-feedback hook
calls :meth:`observe_result` + :meth:`tick` after every completed
batch, so planning rides the serving path's own cadence — no timers,
no background threads, and on an injected clock the whole loop is
deterministic.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from collections.abc import Callable

from repro.errors import ServiceError
from repro.forecast.blueprint import AdmissionPlan, Blueprint, BlueprintDiff
from repro.forecast.forecaster import ArrivalRateForecaster, TemplateMixForecaster
from repro.forecast.planner import ProvisioningPlanner

DEFAULT_STAGE_COST = 1e-3  # s/query per stage until a lane measures one


class PredictiveProvisioner:
    """Forecast per-tenant load and (optionally) re-provision for it.

    ``interval_seconds`` — minimum time between plans; ``window_seconds``
    — the arrival forecasters' bucket width (defaults to the planning
    interval, so each plan sees roughly one fresh bucket per tenant);
    ``route_label`` — the label whose mix drives candidate planning;
    ``auto_apply`` — enact non-noop diffs, or only publish them.
    """

    def __init__(
        self,
        planner: ProvisioningPlanner | None = None,
        interval_seconds: float = 1.0,
        window_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        auto_apply: bool = True,
        route_label: str = "cluster",
    ) -> None:
        if interval_seconds <= 0:
            raise ServiceError("interval_seconds must be positive")
        self.planner = planner or ProvisioningPlanner()
        self.interval_seconds = float(interval_seconds)
        self.window_seconds = float(
            window_seconds if window_seconds is not None else interval_seconds
        )
        self._clock = clock
        self.auto_apply = bool(auto_apply)
        self.route_label = route_label
        self._lock = threading.Lock()
        self._rates: dict[str, ArrivalRateForecaster] = {}
        self._mix = TemplateMixForecaster()
        self._executor = None
        self._registry = None
        self._router = None
        self._last_plan_at: float | None = None
        self._last_diff: BlueprintDiff | None = None
        self._plans = 0
        self._applies = 0
        self._apply_errors = 0

    # -- wiring --------------------------------------------------------------------

    def bind(self, executor=None, registry=None, router=None) -> None:
        """Attach the live objects plans read from and applies act on.

        The service calls this from ``create_staged_executor``; any
        argument left ``None`` keeps its current binding, so a new
        executor generation rebinds without losing the registry.
        """
        with self._lock:
            if executor is not None:
                self._executor = executor
            if registry is not None:
                self._registry = registry
            if router is not None:
                self._router = router

    # -- observation ---------------------------------------------------------------

    def observe(
        self,
        application: str,
        count: int,
        mix_counts=None,
        now: float | None = None,
    ) -> None:
        """Record ``count`` served queries for one tenant (and their
        route-label mix, when given)."""
        now = self._clock() if now is None else float(now)
        with self._lock:
            forecaster = self._rates.get(application)
            if forecaster is None:
                forecaster = self._rates[application] = ArrivalRateForecaster(
                    window_seconds=self.window_seconds, clock=self._clock
                )
            forecaster.observe(count, now=now)
            if mix_counts:
                self._mix.observe(mix_counts)

    def observe_result(self, application: str, result) -> None:
        """Feed one staged ``(labeled, report)`` completion into the
        forecasters — the dispatch-feedback flavor of :meth:`observe`."""
        labeled, _report = result
        counts = Counter(
            message.label(self.route_label) for message in labeled
        )
        counts.pop(None, None)
        self.observe(application, len(labeled), mix_counts=counts or None)

    # -- planning ------------------------------------------------------------------

    def _stage_costs(self, executor) -> tuple[float, float]:
        label_cost = dispatch_cost = DEFAULT_STAGE_COST
        if executor is None:
            return label_cost, dispatch_cost
        lanes = executor.stats()["lanes"]
        queries = sum(lane["labeled_queries"] for lane in lanes.values())
        if queries > 0:
            label_seconds = sum(lane["label_seconds"] for lane in lanes.values())
            dispatch_seconds = sum(
                lane["dispatch_seconds"] for lane in lanes.values()
            )
            if label_seconds > 0:
                label_cost = label_seconds / queries
            if dispatch_seconds > 0:
                dispatch_cost = dispatch_seconds / queries
        return label_cost, dispatch_cost

    def _current_blueprint(self, executor, registry, router) -> Blueprint:
        label_workers = executor.label_workers if executor is not None else 0
        dispatch_workers = (
            executor.dispatch_workers if executor is not None else 0
        )
        admission: dict = {}
        if registry is not None:
            for name in registry.names():
                gate = registry.get(name).admission
                snap = gate.snapshot()
                admission[name] = AdmissionPlan(
                    max_in_flight=snap["max_in_flight"],
                    rate=snap["rate"],
                    burst=snap["burst"],
                )
        candidates: dict = {}
        if router is not None:
            candidates = router.candidate_sets()
        return Blueprint(
            label_workers=label_workers,
            dispatch_workers=dispatch_workers,
            admission=admission,
            candidates=candidates,
        )

    def _backend_weights(self, mix: dict, registry, router) -> dict | None:
        """Each backend's share of the forecast traffic.

        A label's share goes to its explicit candidates (split evenly
        — the load-aware policy does the fine placement), else to its
        static route, else evenly across the fleet.
        """
        if registry is None:
            return None
        names = registry.names()
        if not names or not mix:
            return None
        routes = router.routes() if router is not None else {}
        candidate_sets = router.candidate_sets() if router is not None else {}
        weights: dict[str, float] = dict.fromkeys(names, 0.0)
        for label, share in mix.items():
            targets = candidate_sets.get(label)
            if not targets:
                mapped = routes.get(label)
                targets = (mapped,) if mapped in weights else tuple(names)
            live = [name for name in targets if name in weights]
            if not live:
                live = names
            for name in live:
                weights[name] += share / len(live)
        return weights

    def plan(self, now: float | None = None) -> BlueprintDiff:
        """Run the planner once against the bound deployment."""
        now = self._clock() if now is None else float(now)
        with self._lock:
            executor = self._executor
            registry = self._registry
            router = self._router
            predicted_qps = sum(
                forecaster.forecast(now=now)
                for forecaster in self._rates.values()
            )
            mix = self._mix.mix()
        label_cost, dispatch_cost = self._stage_costs(executor)
        current = self._current_blueprint(executor, registry, router)
        window = executor.pool_window(reset=True) if executor is not None else None
        diff = self.planner.plan(
            predicted_qps=predicted_qps,
            label_cost=label_cost,
            dispatch_cost=dispatch_cost,
            current=current,
            mix=mix,
            backend_weights=self._backend_weights(mix, registry, router),
            window=window,
            all_backends=registry.names() if registry is not None else None,
            now=now,
        )
        with self._lock:
            self._plans += 1
            self._last_diff = diff
            self._last_plan_at = now
        return diff

    def maybe_plan(self, now: float | None = None) -> BlueprintDiff | None:
        """Plan if a full interval has elapsed since the last plan."""
        now = self._clock() if now is None else float(now)
        with self._lock:
            due = (
                self._last_plan_at is None
                or now - self._last_plan_at >= self.interval_seconds
            )
        if not due:
            return None
        return self.plan(now=now)

    def tick(self, now: float | None = None) -> BlueprintDiff | None:
        """One loop step: plan when due, apply when configured to."""
        diff = self.maybe_plan(now=now)
        if diff is not None and self.auto_apply and not diff.is_noop:
            self.apply(diff)
        return diff

    # -- application ---------------------------------------------------------------

    def apply(self, diff: BlueprintDiff) -> dict:
        """Enact a diff through the live resize hooks.

        Best-effort per target: one gate refusing a knob (or a closed
        executor) is counted in ``apply_errors`` and does not abort the
        rest of the plan — the next interval replans from the actual
        state anyway.
        """
        with self._lock:
            executor = self._executor
            registry = self._registry
            router = self._router
        applied = {"pool": False, "admission": [], "candidates": []}
        errors = 0
        rec = diff.recommended
        cur = diff.current
        if executor is not None and (
            rec.label_workers != cur.label_workers
            or rec.dispatch_workers != cur.dispatch_workers
        ):
            try:
                executor.resize(
                    label_workers=rec.label_workers,
                    dispatch_workers=rec.dispatch_workers,
                )
                applied["pool"] = True
            except Exception:  # noqa: BLE001 - replanned next interval
                errors += 1
        if registry is not None:
            for name, plan in rec.admission.items():
                if cur.admission.get(name) == plan:
                    continue
                try:
                    registry.get(name).admission.resize(
                        max_in_flight=plan.max_in_flight,
                        rate=plan.rate,
                        burst=plan.burst,
                    )
                    applied["admission"].append(name)
                except Exception:  # noqa: BLE001 - replanned next interval
                    errors += 1
        if router is not None:
            cur_cands = {str(k): tuple(v) for k, v in cur.candidates.items()}
            for label, names in rec.candidates.items():
                if cur_cands.get(str(label)) == tuple(names):
                    continue
                try:
                    router.set_candidates(label, names)
                    applied["candidates"].append(str(label))
                except Exception:  # noqa: BLE001 - replanned next interval
                    errors += 1
        with self._lock:
            self._applies += 1
            self._apply_errors += errors
        return applied

    # -- introspection -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The audit view ``stats()["forecast"]`` publishes."""
        with self._lock:
            return {
                "planner": self.planner.snapshot(),
                "interval_seconds": self.interval_seconds,
                "auto_apply": self.auto_apply,
                "plans": self._plans,
                "applies": self._applies,
                "apply_errors": self._apply_errors,
                "tenants": {
                    name: forecaster.snapshot()
                    for name, forecaster in sorted(self._rates.items())
                },
                "mix": self._mix.snapshot(),
                "last_diff": (
                    self._last_diff.to_dict() if self._last_diff else None
                ),
            }
