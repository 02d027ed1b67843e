#!/usr/bin/env python3
"""Benchmark-results health: every BENCH_*.json matches the schema.

The CI benchmarks step uploads ``benchmarks/results/BENCH_*.json`` as
the machine-readable perf trajectory; dashboards and the advisory
speedup gates consume them. This checker keeps the records honest: a
bench that drifts away from the shared shape (or writes a truncated /
non-JSON file on a crashed run) fails fast instead of silently
producing an artifact nothing can read.

Schema (extra fields are welcome — these are the floor):

* ``name``    — non-empty string identifying the benchmark;
* ``config``  — non-empty object with the run's shape (queries,
  batch sizes, thread budgets, ...);
* ``speedup`` — the headline ratio, a finite number > 0;
* ``qps``     — an object mapping each measured path to a finite
  throughput number > 0 (at least one entry); the logical-time benches
  report goodput per logical second, so their records never drift.

Run from anywhere::

    python tools/check_bench_results.py

Exit status 0 when every record validates (or none exist yet), 1 with
one line per problem otherwise. CI runs this right after the benchmark
steps; ``tests/test_bench_results_schema.py`` runs the same checks in
tier-1 against the committed records.

When ``REPRO_BENCH_MIN_RESILIENCE_GOODPUT`` is set and a
``BENCH_resilience.json`` record exists, its headline goodput ratio is
compared against the floor as an *advisory* check: a shortfall prints
a warning but never fails the run (the benchmark itself enforces the
gate when it executes — this is the post-hoc reminder for runs that
only validated committed records).
``REPRO_BENCH_MIN_FORECAST_P95_GAIN`` works the same way against
``BENCH_forecast.json``'s predictive-vs-static p95 ratio.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def _is_positive_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def validate_record(record, label: str) -> list[str]:
    """Problems with one parsed BENCH record (empty list = valid)."""
    problems = []
    if not isinstance(record, dict):
        return [f"{label}: top level must be a JSON object"]
    name = record.get("name")
    if not isinstance(name, str) or not name.strip():
        problems.append(f"{label}: 'name' must be a non-empty string")
    config = record.get("config")
    if not isinstance(config, dict) or not config:
        problems.append(f"{label}: 'config' must be a non-empty object")
    if not _is_positive_number(record.get("speedup")):
        problems.append(f"{label}: 'speedup' must be a finite number > 0")
    qps = record.get("qps")
    if not isinstance(qps, dict) or not qps:
        problems.append(f"{label}: 'qps' must be a non-empty object")
    else:
        for key, value in qps.items():
            if not _is_positive_number(value):
                problems.append(
                    f"{label}: qps[{key!r}] must be a finite number > 0"
                )
    return problems


def check_results(results_dir: Path = RESULTS_DIR) -> list[str]:
    """Validate every BENCH_*.json under ``results_dir``."""
    problems = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        label = str(path.relative_to(REPO_ROOT)) if path.is_relative_to(
            REPO_ROOT
        ) else str(path)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{label}: unreadable JSON ({exc})")
            continue
        problems.extend(validate_record(record, label))
    return problems


def advisory_resilience_goodput(results_dir: Path = RESULTS_DIR) -> list[str]:
    """Advisory warnings (never failures) for the resilience record.

    Compares ``BENCH_resilience.json``'s ``speedup`` (the resilient /
    raw goodput ratio under the chaos schedule) against
    ``REPRO_BENCH_MIN_RESILIENCE_GOODPUT`` when both exist.
    """
    floor_text = os.environ.get("REPRO_BENCH_MIN_RESILIENCE_GOODPUT", "")
    if not floor_text:
        return []
    try:
        floor = float(floor_text)
    except ValueError:
        return [
            "advisory: REPRO_BENCH_MIN_RESILIENCE_GOODPUT="
            f"{floor_text!r} is not a number; skipping the goodput check"
        ]
    path = results_dir / "BENCH_resilience.json"
    if not path.is_file():
        return []
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []  # the schema check already reports unreadable records
    ratio = record.get("speedup")
    if _is_positive_number(ratio) and ratio < floor:
        return [
            f"advisory: resilience goodput ratio {ratio:.2f} is below the "
            f"REPRO_BENCH_MIN_RESILIENCE_GOODPUT floor of {floor:.2f}"
        ]
    return []


def advisory_forecast_p95_gain(results_dir: Path = RESULTS_DIR) -> list[str]:
    """Advisory warnings (never failures) for the forecast record.

    Compares ``BENCH_forecast.json``'s ``speedup`` (the static /
    predictive p95 latency ratio under the ramp+spike schedule)
    against ``REPRO_BENCH_MIN_FORECAST_P95_GAIN`` when both exist.
    """
    floor_text = os.environ.get("REPRO_BENCH_MIN_FORECAST_P95_GAIN", "")
    if not floor_text:
        return []
    try:
        floor = float(floor_text)
    except ValueError:
        return [
            "advisory: REPRO_BENCH_MIN_FORECAST_P95_GAIN="
            f"{floor_text!r} is not a number; skipping the p95-gain check"
        ]
    path = results_dir / "BENCH_forecast.json"
    if not path.is_file():
        return []
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []  # the schema check already reports unreadable records
    ratio = record.get("speedup")
    if _is_positive_number(ratio) and ratio < floor:
        return [
            f"advisory: forecast p95 gain {ratio:.2f}x is below the "
            f"REPRO_BENCH_MIN_FORECAST_P95_GAIN floor of {floor:.2f}x"
        ]
    return []


def main() -> int:
    problems = check_results()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    for warning in advisory_resilience_goodput():
        print(warning, file=sys.stderr)
    for warning in advisory_forecast_p95_gain():
        print(warning, file=sys.stderr)
    n = len(list(RESULTS_DIR.glob("BENCH_*.json"))) if RESULTS_DIR.is_dir() else 0
    print(f"bench results ok ({n} BENCH_*.json record(s) validated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
