"""Table 1: account & user labeling accuracy, Doc2Vec vs LSTM autoencoder.

Protocol from §5.2: embedders pre-trained on a large unlabeled corpus
(the paper's 500k Snowflake queries → SnowSim 'pretrain'); classifiers
(randomized decision trees) trained on a separate labeled corpus (200k
→ SnowSim 'labeled'); numbers are 10-fold cross-validation accuracy.

Paper numbers:            account   user
    Doc2Vec                78.8%    39.0%
    LSTMAutoencoder        99.1%    55.4%

Shape to reproduce: LSTM beats Doc2Vec on both tasks; account labeling
is near-perfect for the LSTM (schema vocabulary separates accounts);
user labeling is much harder (shared-query accounts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.security import SecurityAuditor
from repro.experiments import common
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.reporting import PaperComparison, render_table

PAPER_NUMBERS = {
    ("Doc2Vec", "account"): 0.788,
    ("Doc2Vec", "user"): 0.390,
    ("LSTMAutoencoder", "account"): 0.991,
    ("LSTMAutoencoder", "user"): 0.554,
}


@dataclass
class Table1Result:
    accuracies: dict[tuple[str, str], float]  # (method, task) -> accuracy
    n_pretrain: int
    n_labeled: int
    comparison: PaperComparison | None = None

    def render(self) -> str:
        rows = []
        for method in ("Doc2Vec", "LSTMAutoencoder"):
            rows.append(
                [
                    method,
                    f"{self.accuracies[(method, 'account')]:.1%}",
                    f"{self.accuracies[(method, 'user')]:.1%}",
                    f"{PAPER_NUMBERS[(method, 'account')]:.1%}",
                    f"{PAPER_NUMBERS[(method, 'user')]:.1%}",
                ]
            )
        out = render_table(
            ["method", "account (ours)", "user (ours)", "account (paper)", "user (paper)"],
            rows,
            title="Table 1 — query labeling accuracy (10-fold CV)",
        )
        if self.comparison is not None:
            out += "\n\n" + self.comparison.render()
        return out


def run(scale: ExperimentScale | str | None = None) -> Table1Result:
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)

    pretrain = [r.query for r in common.snowsim_records(scale, "pretrain")]
    labeled = common.snowsim_records(scale, "labeled")

    embedders = {
        "Doc2Vec": common.pretrained_embedder(scale, "doc2vec"),
        "LSTMAutoencoder": common.pretrained_embedder(scale, "lstm"),
    }

    accuracies: dict[tuple[str, str], float] = {}
    for method, embedder in embedders.items():
        auditor = SecurityAuditor(
            embedder, n_trees=scale.forest_trees, seed=scale.seed
        )
        for task in ("account", "user"):
            scores = auditor.cross_validate(labeled, task, n_folds=scale.cv_folds)
            accuracies[(method, task)] = float(np.mean(scores))

    result = Table1Result(
        accuracies=accuracies,
        n_pretrain=len(pretrain),
        n_labeled=len(labeled),
    )
    result.comparison = _compare(result)
    return result


def _compare(result: Table1Result) -> PaperComparison:
    comparison = PaperComparison("Table 1")
    acc = result.accuracies
    comparison.add(
        "LSTM beats Doc2Vec on account labeling",
        "99.1% vs 78.8%",
        f"{acc[('LSTMAutoencoder', 'account')]:.1%} vs {acc[('Doc2Vec', 'account')]:.1%}",
        acc[("LSTMAutoencoder", "account")] > acc[("Doc2Vec", "account")],
    )
    comparison.add(
        "LSTM beats Doc2Vec on user labeling",
        "55.4% vs 39.0%",
        f"{acc[('LSTMAutoencoder', 'user')]:.1%} vs {acc[('Doc2Vec', 'user')]:.1%}",
        acc[("LSTMAutoencoder", "user")] > acc[("Doc2Vec", "user")],
    )
    comparison.add(
        "LSTM account labeling near-perfect",
        "99.1%",
        f"{acc[('LSTMAutoencoder', 'account')]:.1%}",
        acc[("LSTMAutoencoder", "account")] >= 0.9,
    )
    comparison.add(
        "user labeling much harder than account labeling",
        "55.4% vs 99.1% for the LSTM",
        f"{acc[('LSTMAutoencoder', 'user')]:.1%} vs "
        f"{acc[('LSTMAutoencoder', 'account')]:.1%}",
        acc[("LSTMAutoencoder", "user")]
        < acc[("LSTMAutoencoder", "account")] - 0.15,
    )
    return comparison


def main() -> None:  # pragma: no cover - manual entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
