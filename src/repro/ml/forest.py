"""Randomized decision forest — the paper's §5.2 labeler.

An ensemble of extremely-randomized trees (see :mod:`repro.ml.tree`)
with optional bootstrap resampling, soft-voted. The public surface
mirrors the usual fit/predict/predict_proba trio so it can drop into a
:class:`repro.core.labeler.ClassifierLabeler`.

At the end of ``fit`` the trees' node tables are laid end to end into
one :class:`~repro.ml.tree.NodeTable` with one root per tree (child ids
shifted, leaves still pointing at themselves), and prediction is that
table's level-synchronous descent: at most one numpy step per level of
the deepest tree, whatever the number of trees or nodes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LabelingError
from repro.ml.tree import DecisionTreeClassifier, NodeTable


class RandomizedForestClassifier:
    """Soft-voting ensemble of randomized trees."""

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        n_thresholds: int = 4,
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_trees < 1:
            raise LabelingError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.n_thresholds = n_thresholds
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: list[DecisionTreeClassifier] = []
        self.n_classes_ = 0
        self.n_features_ = 0
        self.table_: NodeTable | None = None

    def fit(
        self, features: np.ndarray, labels: np.ndarray
    ) -> "RandomizedForestClassifier":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(features) != len(labels) or len(labels) == 0:
            raise LabelingError("features/labels must be non-empty and aligned")
        self.n_classes_ = int(labels.max()) + 1
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        n = len(labels)
        for t in range(self.n_trees):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                x_t, y_t = features[idx], labels[idx]
            else:
                x_t, y_t = features, labels
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                n_thresholds=self.n_thresholds,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(x_t, y_t, n_classes=self.n_classes_)
            self.trees_.append(tree)
        self.table_ = NodeTable.concat([tree.table_ for tree in self.trees_])
        self.n_features_ = self.table_.n_features
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.table_ is None:
            raise LabelingError("predict called before fit")
        return self.table_.predict_proba(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean accuracy on the given data."""
        predictions = self.predict(features)
        return float(np.mean(predictions == np.asarray(labels)))
