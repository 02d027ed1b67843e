"""Workload forecasting and predictive provisioning.

Everything below this package in the stack is *reactive*: EWMA load
signals re-rank candidates after latency has already moved. The paper's
premise — query streams are dominated by a stable template
distribution — makes workloads *predictable*, and WiSeDB and Tempo
both show that learning arrival-rate/mix trajectories and provisioning
ahead of the spike beats reacting to it.

Three layers, smallest first:

* :mod:`~repro.forecast.forecaster` — online estimators on injectable
  clocks: Holt level+trend smoothing (:class:`HoltForecaster`),
  bucketed per-tenant arrivals/sec (:class:`ArrivalRateForecaster`),
  and an EWMA categorical mix (:class:`TemplateMixForecaster`);
* :mod:`~repro.forecast.blueprint` — the *provisioning blueprint* data
  model: a :class:`Blueprint` names worker counts, per-backend
  admission knobs, and per-label candidate sets; a
  :class:`BlueprintDiff` pairs current vs recommended and itemizes the
  changes, so every resizing decision is auditable;
* :mod:`~repro.forecast.planner` / :mod:`~repro.forecast.provisioner`
  — the :class:`ProvisioningPlanner` turns forecasts + measured stage
  costs into a blueprint diff; the :class:`PredictiveProvisioner`
  owns the per-tenant forecasters, runs the planner on a fixed
  interval, and (optionally) applies the diff live through
  ``StagedExecutor.resize`` and ``AdmissionController.resize``.

Nothing here reads wall time behind your back: every clock is
injectable, so forecasts, plans, and the benchmark harness are fully
deterministic.
"""

from repro.forecast.blueprint import AdmissionPlan, Blueprint, BlueprintDiff
from repro.forecast.forecaster import (
    ArrivalRateForecaster,
    HoltForecaster,
    TemplateMixForecaster,
)
from repro.forecast.planner import ProvisioningPlanner
from repro.forecast.provisioner import PredictiveProvisioner

__all__ = [
    "AdmissionPlan",
    "ArrivalRateForecaster",
    "Blueprint",
    "BlueprintDiff",
    "HoltForecaster",
    "PredictiveProvisioner",
    "ProvisioningPlanner",
    "TemplateMixForecaster",
]
