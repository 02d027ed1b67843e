"""The flat-array forest kernel against the recursive walk it replaced.

``repro.ml.tree.NodeTable`` evaluates every tree and row level by level
over flat arrays. The node-by-node recursive walk it replaced survives
here, as the oracle: ``predict_proba`` must equal it bit for bit, not
just closely — argmax ties between classes resolve by float equality.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import LabeledQuery, QueryClassifier
from repro.core.labeler import ClassifierLabeler
from repro.embedding import BagOfTokensEmbedder
from repro.errors import LabelingError
from repro.ml.forest import RandomizedForestClassifier
from repro.ml.preprocess import LabelEncoder
from repro.ml.tree import DecisionTreeClassifier
from repro.runtime import InferencePipeline


def oracle_tree_proba(tree: DecisionTreeClassifier, features) -> np.ndarray:
    """The pre-kernel walk: recurse node by node, one boolean mask per
    split, write the leaf's distribution into the rows that reach it."""
    table = tree.table_
    features = np.asarray(features, dtype=np.float64)
    out = np.zeros((len(features), tree.n_classes_))

    def route(node: int, idx: np.ndarray) -> None:
        if table.left[node] == node:
            out[idx] = table.value[node]
            return
        mask = features[idx, table.feature[node]] <= table.threshold[node]
        if mask.any():
            route(table.left[node], idx[mask])
        if (~mask).any():
            route(table.right[node], idx[~mask])

    route(0, np.arange(len(features)))
    return out


def oracle_forest_proba(forest: RandomizedForestClassifier, features) -> np.ndarray:
    probs = np.zeros((len(features), forest.n_classes_))
    for tree in forest.trees_:
        probs += oracle_tree_proba(tree, features)
    return probs / len(forest.trees_)


def _data(seed: int, n: int = 120, d: int = 6, n_classes: int = 4):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    if seed % 2:  # coarse values: tied thresholds, duplicate rows
        features = np.round(features)
    return features, rng.integers(0, n_classes, n)


def _probe(seed: int, n: int, d: int = 6) -> np.ndarray:
    return np.random.default_rng(1000 + seed).standard_normal((n, d))


class TestMatchesRecursiveOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_depth", [None, 0, 1, 8])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forest(self, seed, max_depth, bootstrap):
        features, labels = _data(seed)
        forest = RandomizedForestClassifier(
            n_trees=5, max_depth=max_depth, bootstrap=bootstrap, seed=seed
        ).fit(features, labels)
        for n in (0, 1, 256):
            probe = _probe(seed, n)
            got = forest.predict_proba(probe)
            assert got.shape == (n, forest.n_classes_)
            assert np.array_equal(got, oracle_forest_proba(forest, probe))

    @pytest.mark.parametrize("max_depth", [None, 0, 3])
    def test_tree_with_more_classes_than_seen(self, max_depth):
        features, labels = _data(2)
        tree = DecisionTreeClassifier(max_depth=max_depth, seed=5).fit(
            features, labels, n_classes=7
        )
        for n in (0, 1, 256):
            probe = _probe(2, n)
            got = tree.predict_proba(probe)
            assert got.shape == (n, 7)
            assert np.array_equal(got, oracle_tree_proba(tree, probe))

    def test_stump_is_the_class_prior(self):
        features, labels = _data(0)
        tree = DecisionTreeClassifier(max_depth=0, seed=0).fit(features, labels)
        assert tree.depth() == 0 and len(tree.table_.feature) == 1
        prior = np.bincount(labels, minlength=4) / len(labels)
        assert np.array_equal(tree.predict_proba(_probe(0, 3)), np.tile(prior, (3, 1)))

    def test_nan_goes_right_and_infinities_route(self):
        features, labels = _data(3)
        forest = RandomizedForestClassifier(n_trees=6, seed=3).fit(features, labels)
        probe = _probe(3, 64)
        probe[::3, :] = np.nan
        probe[1::7, 2] = np.inf
        probe[2::7, 4] = -np.inf
        assert np.array_equal(
            forest.predict_proba(probe), oracle_forest_proba(forest, probe)
        )
        # NaN fails ``x <= t`` at every split: always the right child
        tree = forest.trees_[0]
        node = 0
        while tree.table_.right[node] != node:
            node = tree.table_.right[node]
        all_nan = np.full((1, 6), np.nan)
        assert np.array_equal(
            tree.predict_proba(all_nan), tree.table_.value[node][None, :]
        )

    def test_float32_and_non_contiguous_input(self):
        features, labels = _data(1)
        forest = RandomizedForestClassifier(n_trees=4, max_depth=6, seed=1).fit(
            features, labels
        )
        probe = _probe(1, 40)
        as32 = probe.astype(np.float32)
        assert np.array_equal(
            forest.predict_proba(as32),
            oracle_forest_proba(forest, as32.astype(np.float64)),
        )
        wide = np.random.default_rng(9).standard_normal((80, 12))
        strided = wide[::2, ::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(
            forest.predict_proba(strided),
            forest.predict_proba(np.ascontiguousarray(strided)),
        )
        assert np.array_equal(
            forest.predict_proba(strided), oracle_forest_proba(forest, strided)
        )

    def test_forest_table_is_the_trees_laid_end_to_end(self):
        features, labels = _data(0)
        forest = RandomizedForestClassifier(n_trees=3, max_depth=4, seed=0).fit(
            features, labels
        )
        sizes = [len(t.table_.feature) for t in forest.trees_]
        table = forest.table_
        assert len(table.feature) == sum(sizes)
        assert table.roots.tolist() == [0, sizes[0], sizes[0] + sizes[1]]
        assert table.depth == max(t.depth() for t in forest.trees_)
        leaves = table.left == np.arange(len(table.left))
        assert np.array_equal(leaves, table.right == np.arange(len(table.right)))
        # preorder: an internal node's left child is the next row
        assert np.array_equal(
            table.left[~leaves], np.flatnonzero(~leaves) + 1
        )


# computed at the parent commit (the recursive ``_Node`` implementation)
# for exactly this data and these seeds: flattening must not change how
# growth consumes the RNG
GOLDEN_FOREST = [
    [0.5, 0.25, 0.0, 0.25],
    [0.0, 0.0, 0.75, 0.25],
    [0.06666666666666667, 0.18333333333333332, 0.25, 0.5],
    [0.5666666666666667, 0.43333333333333335, 0.0, 0.0],
    [0.39387254901960783, 0.6061274509803921, 0.0, 0.0],
    [0.75, 0.25, 0.0, 0.0],
]
GOLDEN_TREE_CLASSES = [0, 0, 3, 1, 0, 0]


def test_golden_values_from_the_parent_commit():
    rng = np.random.default_rng(7)
    features = rng.standard_normal((60, 5))
    labels = (features[:, 0] + features[:, 1] * features[:, 2] > 0).astype(
        int
    ) + 2 * (features[:, 3] > 0.5)
    probe = np.random.default_rng(8).standard_normal((6, 5))
    forest = RandomizedForestClassifier(n_trees=4, max_depth=5, seed=11).fit(
        features, labels
    )
    assert np.array_equal(forest.predict_proba(probe), np.array(GOLDEN_FOREST))
    assert [t.depth() for t in forest.trees_] == [5, 5, 5, 5]
    tree = DecisionTreeClassifier(seed=3).fit(features, labels)
    assert tree.depth() == 9
    assert tree.predict(probe).tolist() == GOLDEN_TREE_CLASSES


def test_tables_are_read_only_and_safe_to_share_between_threads():
    features, labels = _data(2, n=200)
    forest = RandomizedForestClassifier(n_trees=8, max_depth=8, seed=2).fit(
        features, labels
    )
    for table in [forest.table_] + [t.table_ for t in forest.trees_]:
        for name in ("feature", "threshold", "left", "right", "value", "roots"):
            assert not getattr(table, name).flags.writeable, name
    with pytest.raises(ValueError):
        forest.table_.threshold[0] = 0.0

    probes = [_probe(i, 64) for i in range(4)]
    expected = [forest.predict_proba(p) for p in probes]
    results: list = [None] * 4

    def work(i: int) -> None:
        ok = True
        for _ in range(50):
            ok = ok and np.array_equal(forest.predict_proba(probes[i]), expected[i])
        results[i] = ok

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 4


class TestWidthCheck:
    @pytest.fixture()
    def fitted(self):
        features, labels = _data(0)
        return [
            DecisionTreeClassifier(max_depth=4, seed=0).fit(features, labels),
            RandomizedForestClassifier(n_trees=3, max_depth=4, seed=0).fit(
                features, labels
            ),
        ]

    def test_records_width_at_fit(self, fitted):
        assert [e.n_features_ for e in fitted] == [6, 6]

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((3, 5)),  # too few columns
            np.zeros((3, 7)),  # extra columns were silently accepted
            np.zeros(6),  # one row passed as 1-D
            np.zeros((2, 3, 6)),
            np.zeros((0, 5)),
        ],
        ids=["narrow", "wide", "1d", "3d", "empty-narrow"],
    )
    def test_wrong_shape_raises_labeling_error(self, fitted, bad):
        for estimator in fitted:
            with pytest.raises(LabelingError, match=r"\(n, 6\)"):
                estimator.predict_proba(bad)
            with pytest.raises(LabelingError):
                estimator.predict(bad)

    def test_zero_rows_of_the_right_width(self, fitted):
        for estimator in fitted:
            assert estimator.predict_proba(np.zeros((0, 6))).shape == (0, 4)
            assert estimator.predict(np.zeros((0, 6))).shape == (0,)


class TestTupleLabelsStaySingleCells:
    LABELS = [("east", 1), ("west", 2), ("east", 2)]

    def test_inverse_transform(self):
        encoder = LabelEncoder().fit(self.LABELS)
        codes = encoder.transform(self.LABELS[::-1] + self.LABELS)
        decoded = encoder.inverse_transform(codes)
        assert isinstance(decoded, list)
        assert decoded == self.LABELS[::-1] + self.LABELS
        assert all(isinstance(v, tuple) for v in decoded)
        assert encoder.inverse_transform(np.zeros(0, dtype=np.int64)) == []

    def test_same_width_list_labels_are_not_unpacked(self):
        # two classes of equal length: the shape np.asarray would turn
        # into a 2-D array
        encoder = LabelEncoder().fit([("a", "b"), ("c", "d")])
        assert encoder.inverse_transform(np.array([1, 0, 1])) == [
            ("c", "d"),
            ("a", "b"),
            ("c", "d"),
        ]

    def test_pipeline_fill(self, small_corpus):
        embedder = BagOfTokensEmbedder(dimension=8, min_count=1, seed=3).fit(
            small_corpus
        )
        labels = [self.LABELS[i % 3] for i in range(len(small_corpus))]
        labeler = ClassifierLabeler(
            RandomizedForestClassifier(n_trees=3, max_depth=6, seed=0)
        ).fit(embedder.transform(small_corpus), labels)
        classifier = QueryClassifier("placement", embedder, labeler)
        queries = small_corpus[:10] + small_corpus[:5]
        want = classifier.predict(queries)
        assert isinstance(want, list) and set(map(type, want)) == {tuple}

        batch = InferencePipeline().run_columnar(
            [LabeledQuery.make(q) for q in queries], [classifier]
        )
        template_values = batch.columns["placement"]
        assert template_values.dtype == object
        assert template_values.ndim == 1
        assert len(template_values) < len(queries)  # deduplicated
        got = [m.label("placement") for m in batch.to_messages()]
        assert got == want
        assert all(isinstance(v, tuple) for v in got)


def _python_calls(fn) -> int:
    """Python-level function calls made while ``fn`` runs (numpy's C
    functions and in-place operators raise ``c_call`` or nothing)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_python_call_count_does_not_depend_on_forest_size():
    """The perf guard, without a timer: prediction is a fixed number of
    Python calls however many trees and nodes there are. A per-tree or
    per-node Python function call would make the counts differ."""
    features, labels = _data(0, n=400)
    probe = _probe(0, 16)
    depth = 6
    counts = {}
    for n_trees in (8, 64):
        forest = RandomizedForestClassifier(
            n_trees=n_trees, max_depth=depth, seed=0
        ).fit(features, labels)
        assert forest.table_.depth == depth
        counts[n_trees] = _python_calls(lambda: forest.predict_proba(probe))
    assert len(forest.table_.feature) > 1000
    assert counts[8] == counts[64]
    # a handful of fixed calls, plus numpy's own Python shims (the
    # ``where`` dispatcher, ``ndarray.all``) once per level
    assert counts[8] <= 6 + 2 * depth
