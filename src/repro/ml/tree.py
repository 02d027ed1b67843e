"""CART-style decision tree with extremely-randomized split search.

This is the building block of the paper's "randomized decision trees"
labeler. Split search follows the Extra-Trees recipe (Geurts et al.):
at each node, draw ``max_features`` candidate features and one uniform
random threshold per feature, then keep the candidate with the best
Gini reduction. Randomized thresholds vectorize beautifully in numpy
and regularize exactly like the original.

A fitted tree is a table, not an object graph: :class:`NodeTable` holds
parallel arrays indexed by node id in preorder (root first, then the
whole left subtree, then the right). A leaf's ``left`` and ``right``
both point at the leaf itself, so prediction needs no leaf test: it
steps every row at most ``depth`` times and a row that has arrived
stays put. ``x <= threshold`` goes left; NaN compares false and goes
right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LabelingError


@dataclass(frozen=True, slots=True)
class NodeTable:
    """Read-only node arrays of one tree, or of a forest's trees laid
    end to end (``roots`` then has one entry per tree)."""

    feature: np.ndarray  # (n_nodes,) split column; 0 at leaves
    threshold: np.ndarray  # (n_nodes,)
    left: np.ndarray  # (n_nodes,) child for x <= threshold; itself at leaves
    right: np.ndarray  # (n_nodes,) child otherwise; itself at leaves
    value: np.ndarray  # (n_nodes, n_classes) class distribution of the node
    roots: np.ndarray  # (n_trees,)
    depth: int  # deepest leaf over all trees (root = 0)
    n_features: int

    def __post_init__(self) -> None:
        # built eagerly at fit and shared by serving threads
        for array in (
            self.feature, self.threshold, self.left, self.right,
            self.value, self.roots,
        ):
            array.setflags(write=False)

    @classmethod
    def concat(cls, tables: "list[NodeTable]") -> "NodeTable":
        """One table for many trees: child and root ids shift by the
        number of nodes laid down before each tree."""
        offsets = np.cumsum([0] + [len(t.feature) for t in tables[:-1]])
        return cls(
            feature=np.concatenate([t.feature for t in tables]),
            threshold=np.concatenate([t.threshold for t in tables]),
            left=np.concatenate([t.left + o for t, o in zip(tables, offsets)]),
            right=np.concatenate([t.right + o for t, o in zip(tables, offsets)]),
            value=np.concatenate([t.value for t in tables]),
            roots=np.concatenate([t.roots + o for t, o in zip(tables, offsets)]),
            depth=max(t.depth for t in tables),
            n_features=tables[0].n_features,
        )

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Mean leaf distribution over the trees, all trees and rows
        descending together one level per numpy step."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise LabelingError(
                f"expected an (n, {self.n_features}) feature matrix, "
                f"got shape {features.shape}"
            )
        rows = np.arange(len(features))
        node = np.repeat(self.roots[:, None], len(features), axis=1)
        for _ in range(self.depth):
            go_left = features[rows, self.feature[node]] <= self.threshold[node]
            child = np.where(go_left, self.left[node], self.right[node])
            if (child == node).all():  # every row is at a leaf
                break
            node = child
        # summed in tree order: float addition is not associative, and
        # argmax ties must keep resolving the way they always have
        probs = np.zeros((len(features), self.value.shape[1]))
        for leaves in node:
            probs += self.value[leaves]
        return probs / len(self.roots)


class DecisionTreeClassifier:
    """Single randomized tree over dense float features.

    Parameters
    ----------
    max_depth:
        Depth cap; None grows until purity or ``min_samples_split``.
    max_features:
        Candidate features per split. None → sqrt(n_features).
    n_thresholds:
        Random thresholds drawn per candidate feature.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        n_thresholds: int = 4,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.n_thresholds = max(1, n_thresholds)
        self.seed = seed
        self.n_classes_ = 0
        self.n_features_ = 0
        self.table_: NodeTable | None = None

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        n_classes: int | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree. ``labels`` must be int codes in [0, n_classes)."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or len(features) != len(labels):
            raise LabelingError("features must be (n, d) matching labels")
        if len(labels) == 0:
            raise LabelingError("cannot fit a tree on zero samples")
        self.n_classes_ = int(n_classes if n_classes else labels.max() + 1)
        self.n_features_ = features.shape[1]
        rng = np.random.default_rng(self.seed)
        nodes: list[tuple] = []
        depth = self._grow(features, labels, depth=0, rng=rng, nodes=nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self.table_ = NodeTable(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value, dtype=np.float64),
            roots=np.zeros(1, dtype=np.intp),
            depth=depth,
            n_features=self.n_features_,
        )
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-class probability from the reached leaf's counts."""
        if self.table_ is None:
            raise LabelingError("predict called before fit")
        return self.table_.predict_proba(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def depth(self) -> int:
        """Actual depth of the grown tree (root = 0)."""
        if self.table_ is None:
            raise LabelingError("depth() called before fit")
        return self.table_.depth

    # -- growth ------------------------------------------------------------------

    def _grow(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        nodes: list[tuple],
    ) -> int:
        """Append this subtree's ``(feature, threshold, left, right,
        value)`` rows to ``nodes`` in preorder; returns its depth."""
        counts = np.bincount(labels, minlength=self.n_classes_).astype(np.float64)
        n = len(labels)
        me = len(nodes)
        split = None
        if not (
            n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == n  # pure
        ):
            split = self._best_random_split(features, labels, counts, rng)
        if split is None:
            nodes.append((0, 0.0, me, me, counts / n))
            return 0
        feature, threshold, mask = split
        nodes.append(())  # claims id ``me``; children are numbered after it
        below_left = self._grow(features[mask], labels[mask], depth + 1, rng, nodes)
        right, mask = len(nodes), ~mask
        below_right = self._grow(features[mask], labels[mask], depth + 1, rng, nodes)
        nodes[me] = (feature, threshold, me + 1, right, counts / n)
        return 1 + max(below_left, below_right)

    def _best_random_split(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        parent_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float, np.ndarray] | None:
        n, d = features.shape
        k = self.max_features or max(1, int(np.sqrt(d)))
        candidates = rng.choice(d, size=min(k, d), replace=False)

        lows = features[:, candidates].min(axis=0)
        highs = features[:, candidates].max(axis=0)
        usable = highs > lows
        if not usable.any():
            return None
        candidates = candidates[usable]
        lows, highs = lows[usable], highs[usable]

        # thresholds: (features, n_thresholds) uniform in (low, high)
        thresholds = lows[:, None] + rng.random((len(candidates), self.n_thresholds)) * (
            highs - lows
        )[:, None]

        parent_gini = _gini(parent_counts, n)
        best_gain = 1e-12
        best: tuple[int, float, np.ndarray] | None = None
        for ci, feature in enumerate(candidates):
            column = features[:, feature]
            for threshold in thresholds[ci]:
                mask = column <= threshold
                n_left = int(mask.sum())
                if (
                    n_left < self.min_samples_leaf
                    or n - n_left < self.min_samples_leaf
                ):
                    continue
                left_counts = np.bincount(
                    labels[mask], minlength=self.n_classes_
                ).astype(np.float64)
                right_counts = parent_counts - left_counts
                gain = parent_gini - (
                    n_left / n * _gini(left_counts, n_left)
                    + (n - n_left) / n * _gini(right_counts, n - n_left)
                )
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), mask)
        return best


def _gini(counts: np.ndarray, n: int) -> float:
    if n <= 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.dot(p, p))
