"""Table 1 bench: account/user labeling accuracy, Doc2Vec vs LSTM AE.

The timed section is one labeler cross-validation over pre-computed
LSTM embeddings — the per-cell work of the table.
"""

from repro.apps.security import SecurityAuditor
from repro.experiments import common


def test_table1_labeling_accuracy(benchmark, table1_result, scale, report):
    labeled = common.snowsim_records(scale, "labeled")
    embedder = common.pretrained_embedder(scale, "doc2vec")
    auditor = SecurityAuditor(embedder, n_trees=scale.forest_trees, seed=0)

    def one_cv_cell():
        return auditor.cross_validate(labeled[:1500], "account", n_folds=3).mean()

    benchmark.pedantic(one_cv_cell, rounds=1, iterations=1)

    result = table1_result
    report("table1", result.render())

    assert result.comparison is not None
    assert result.comparison.all_hold, "a Table 1 paper claim failed"

    # the paper's orderings, independent of absolute numbers
    acc = result.accuracies
    assert acc[("LSTMAutoencoder", "account")] > acc[("Doc2Vec", "account")]
    assert acc[("LSTMAutoencoder", "user")] > acc[("Doc2Vec", "user")]
    assert acc[("LSTMAutoencoder", "account")] > acc[("LSTMAutoencoder", "user")]
    assert acc[("Doc2Vec", "account")] > acc[("Doc2Vec", "user")]
