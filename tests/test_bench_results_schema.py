"""Benchmark result records stay machine-readable in tier-1.

Runs the same checks as ``tools/check_bench_results.py`` (which CI
invokes right after the benchmark steps) so a bench that drifts off
the shared BENCH_*.json schema fails the ordinary test run too, and
exercises the validator itself against known-bad records.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_results", REPO_ROOT / "tools" / "check_bench_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_bench_records_validate():
    checker = _load_checker()
    assert checker.check_results() == []


def test_every_known_benchmark_has_a_record():
    # the records are committed artifacts; a bench that stops writing
    # its JSON (or renames it) should be a visible change, not a silent
    # hole in the perf trajectory
    results = REPO_ROOT / "benchmarks" / "results"
    for name in ("forecast",):
        assert (results / f"BENCH_{name}.json").is_file(), (
            f"BENCH_{name}.json missing from benchmarks/results"
        )


def test_validator_rejects_malformed_records():
    checker = _load_checker()
    valid = {
        "name": "x",
        "config": {"queries": 1},
        "speedup": 1.5,
        "qps": {"serial": 10.0, "staged": 15.0},
    }
    assert checker.validate_record(valid, "ok") == []
    bad_cases = [
        [],  # not an object
        {**valid, "name": ""},  # empty name
        {k: v for k, v in valid.items() if k != "config"},  # missing config
        {**valid, "config": {}},  # empty config
        {**valid, "speedup": 0},  # non-positive speedup
        {**valid, "speedup": float("nan")},  # non-finite speedup
        {**valid, "speedup": True},  # bool is not a measurement
        {**valid, "qps": {}},  # no throughput at all
        {**valid, "qps": {"serial": "fast"}},  # non-numeric throughput
    ]
    for bad in bad_cases:
        assert checker.validate_record(bad, "bad") != [], bad


def test_validator_flags_unreadable_json(tmp_path):
    checker = _load_checker()
    (tmp_path / "BENCH_broken.json").write_text("{not json", encoding="utf-8")
    problems = checker.check_results(tmp_path)
    assert len(problems) == 1
    assert "unreadable JSON" in problems[0]
