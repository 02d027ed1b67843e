#!/usr/bin/env python3
"""Compare two ``spine`` result sets under the bounds in ``BENCHMARK.json``.

    python3 benchmarks/spine/compare.py A.json B.json

``A`` is the parent, ``B`` the change; each is a file written by
``run.py --repeat K``. Every (workload, end-to-end metric) pair gets its own
row with each side's median and quartiles. ``B`` regresses a pair when its
median is worse than ``A``'s by more than the metric's bound. A pair whose
own runs on either side spread wider than the bound is reported as
unresolved, not as unchanged. Exits 1 on any regression, and when a set lacks
a workload: an incomplete set does not compare as ok.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(path: str) -> dict[str, dict[str, list[float]]]:
    values: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        metrics = values.setdefault(run["workload"], {})
        for name, value in run["end_to_end"].items():
            metrics.setdefault(name, []).append(value)
    return values


def compare(a_path: str, b_path: str) -> int:
    contract = json.loads(CONTRACT.read_text())
    a, b = by_workload(a_path), by_workload(b_path)
    regressions = missing = 0
    print(
        f"{'workload':<24}{'metric':<18}{'A q1/median/q3':>32}"
        f"{'B q1/median/q3':>32}{'change':>9}{'bound':>7}  verdict"
    )
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in a or workload not in b:
            lacking = " and ".join(s for s, v in (("A", a), ("B", b)) if workload not in v)
            print(f"{workload:<24}missing from {lacking}")
            missing += 1
            continue
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a_q1, a_med, a_q3 = summarize(a[workload][name])
            b_q1, b_med, b_q3 = summarize(b[workload][name])
            change = (b_med - a_med) / a_med
            worse = -change if metric["better"] == "higher" else change
            if max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(
                f"{workload:<24}{name:<18}"
                f"{f'{a_q1:.4g} / {a_med:.4g} / {a_q3:.4g}':>32}"
                f"{f'{b_q1:.4g} / {b_med:.4g} / {b_q3:.4g}':>32}"
                f"{change:>+9.1%}{bound:>7.0%}  {verdict}"
            )
    print(f"{regressions} regression(s), {missing} workload(s) missing")
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
