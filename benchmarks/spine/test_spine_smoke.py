"""Smoke test of the ``spine`` benchmark, collected by tier-1.

Runs every workload at under 1 % of its size, untraced and traced, in this
process. No wall-clock assertions: it checks that the benchmark still fits
the program (every patched entry point exists), that every metric named in
``BENCHMARK.json`` is emitted with a finite value, that outputs verify
against the serial library path, and that inputs are a function of the seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
import spine_runner
import spine_trace
import spine_workloads

CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
SMOKE = {"seed": 13, "seconds": 0.05}


def test_contract_names_match_the_code():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in spine_workloads.WORKLOADS.values()
    ]
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(spine_runner.END_TO_END)
    assert [m["name"] for m in CONTRACT["per_layer"]] == spine_runner.per_layer_names()
    assert len(CONTRACT["per_layer"]) <= 128


def test_every_patched_entry_point_exists():
    # a rename in src/ must fail here, not silently vanish from the trace
    for owner, attribute, layer, method in spine_trace.patch_points():
        target = getattr(owner, attribute)
        assert callable(target if method is None else getattr(target, method))
        assert layer in spine_trace.LAYERS


def test_inputs_are_a_function_of_the_seed():
    # SnowSim stream and send schedule; the TPC-H arrival order is covered by
    # wire_tpch_hot's two runs below agreeing on their result digest
    def generated(seed):
        inputs = spine_workloads.build_inputs("wire_mixed_open", seed, SMOKE["seconds"])
        return inputs.batches, inputs.due, inputs.train

    assert generated(13) == generated(13)
    assert generated(13) != generated(14)


@pytest.mark.parametrize("name", list(spine_workloads.WORKLOADS))
def test_workload_runs_untraced_and_traced(name):
    untraced = spine_runner.run_once(name, **SMOKE)
    traced = spine_runner.run_once(name, trace=True, **SMOKE)
    traced["per_layer"]["trace.overhead_share"] = spine_trace.overhead_share(
        untraced["closed_qps"], traced["closed_qps"]
    )

    for run in (untraced, traced):
        assert run["correct"], "outputs differ from QuercService.process_routed"
        assert run["samples"]["oracle_batches"] > 0
        assert run["attempted"] > 0 and run["failed"] == 0
    assert untraced["result_digest"] == traced["result_digest"]
    for metric in CONTRACT["end_to_end"]:
        value = untraced["end_to_end"][metric["name"]]
        assert math.isfinite(value) and value > 0, metric["name"]
    for metric in CONTRACT["per_layer"]:
        for run in (untraced, traced):
            assert math.isfinite(run["per_layer"][metric["name"]]), metric["name"]

    layers = traced["per_layer"]
    on_the_wire = spine_workloads.WORKLOADS[name].wire
    for layer in spine_trace.LAYERS:
        if layer.startswith("server."):
            assert (layers[f"{layer}.calls"] > 0) == on_the_wire, layer
    # the thread layer is found by the thread's name
    assert (layers["server.session.cpu_us_per_query"] > 0) == on_the_wire
    assert layers["minidb.executor.calls"] == traced["samples"]["queries"]
    assert 0.0 < layers["trace.coverage"] <= 1.0
    # the traced run left no wrapper behind
    for owner, attribute, _, _ in spine_trace.patch_points():
        assert not hasattr(getattr(owner, attribute), "__wrapped__")
