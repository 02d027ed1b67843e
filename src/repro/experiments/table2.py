"""Table 2: per-account user-prediction accuracy for the top accounts.

The paper's analysis of Table 1's modest global user accuracy: most
accounts exceed 95%, but the largest accounts have many users running
*identical* query text ("69% of the 74000 queries in an account had
more than one user label"), making users nearly indistinguishable and
dragging the weighted average down.

We report, per account: #queries, #users, CV accuracy, and the fraction
of query texts issued by more than one user — the diagnostic the paper
cites.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.apps.security import SecurityAuditor
from repro.experiments import common
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.reporting import PaperComparison, render_table
from repro.workloads.snowflake_sim import PAPER_SHARED_ACCOUNTS


@dataclass
class AccountRow:
    account: str
    n_queries: int
    n_users: int
    accuracy: float
    multi_user_text_fraction: float  # queries whose exact text spans >1 user


@dataclass
class Table2Result:
    rows: list[AccountRow]
    overall_user_accuracy: float
    comparison: PaperComparison | None = None

    def render(self) -> str:
        table_rows = [
            [
                row.account,
                row.n_queries,
                row.n_users,
                f"{row.accuracy:.1%}",
                f"{row.multi_user_text_fraction:.0%}",
            ]
            for row in self.rows
        ]
        out = render_table(
            ["account", "#queries", "#users", "accuracy", "shared-text queries"],
            table_rows,
            title="Table 2 — per-account user prediction accuracy",
        )
        out += f"\n(overall user accuracy: {self.overall_user_accuracy:.1%})"
        if self.comparison is not None:
            out += "\n\n" + self.comparison.render()
        return out


def run(scale: ExperimentScale | str | None = None) -> Table2Result:
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)

    labeled = common.snowsim_records(scale, "labeled")
    embedder = common.pretrained_embedder(scale, "lstm")
    auditor = SecurityAuditor(embedder, n_trees=scale.forest_trees, seed=scale.seed)

    by_account = defaultdict(list)
    for record in labeled:
        by_account[record.account].append(record)

    rows: list[AccountRow] = []
    weighted_hits = 0.0
    for account, records in by_account.items():
        users = {r.user for r in records}
        if len(users) < 2 or len(records) < max(20, scale.cv_folds):
            continue
        folds = min(scale.cv_folds, min(Counter(r.user for r in records).values()) + 1)
        folds = max(2, folds)
        scores = auditor.cross_validate(records, "user", n_folds=folds)
        accuracy = float(np.mean(scores))
        weighted_hits += accuracy * len(records)

        text_users: dict[str, set] = defaultdict(set)
        for r in records:
            text_users[r.query].add(r.user)
        multi = sum(
            1 for r in records if len(text_users[r.query]) > 1
        ) / len(records)
        rows.append(
            AccountRow(
                account=account,
                n_queries=len(records),
                n_users=len(users),
                accuracy=accuracy,
                multi_user_text_fraction=multi,
            )
        )

    rows.sort(key=lambda r: -r.n_queries)
    total = sum(r.n_queries for r in rows)
    result = Table2Result(
        rows=rows,
        overall_user_accuracy=weighted_hits / max(1, total),
    )
    result.comparison = _compare(result)
    return result


def _compare(result: Table2Result) -> PaperComparison:
    comparison = PaperComparison("Table 2")
    shared_names = {f"acct{i:02d}" for i in PAPER_SHARED_ACCOUNTS}
    shared = [r for r in result.rows if r.account in shared_names]
    exclusive = [r for r in result.rows if r.account not in shared_names]

    majority_high = (
        sum(1 for r in exclusive if r.accuracy > 0.8) >= len(exclusive) * 0.5
        if exclusive
        else False
    )
    comparison.add(
        "majority of (non-shared) accounts have high user accuracy",
        "> 95% accuracy for a majority of accounts",
        f"{sum(1 for r in exclusive if r.accuracy > 0.8)}/{len(exclusive)} "
        "exclusive accounts above 80%",
        majority_high,
    )

    if shared and exclusive:
        shared_mean = float(np.mean([r.accuracy for r in shared]))
        excl_mean = float(np.mean([r.accuracy for r in exclusive]))
        comparison.add(
            "shared-query accounts score far lower",
            "49.3% / 37.4% for the two biggest accounts",
            f"shared mean {shared_mean:.1%} vs exclusive mean {excl_mean:.1%}",
            shared_mean < excl_mean - 0.2,
        )
        top_share = sum(r.n_queries for r in shared) / max(
            1, sum(r.n_queries for r in result.rows)
        )
        comparison.add(
            "shared accounts dominate the query volume",
            "two accounts cover ~65% of all queries",
            f"{top_share:.0%} of labeled queries",
            top_share >= 0.4,
        )
        multi = float(np.mean([r.multi_user_text_fraction for r in shared]))
        comparison.add(
            "shared accounts issue identical texts across users",
            "69% of queries in the biggest account had >1 user label",
            f"mean {multi:.0%} of shared-account queries span >1 user",
            multi >= 0.5,
        )
    return comparison


def main() -> None:  # pragma: no cover - manual entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
