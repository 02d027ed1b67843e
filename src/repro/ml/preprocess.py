"""Preprocessing helpers: label encoding, scaling, splitting."""

from __future__ import annotations

import numpy as np

from repro.errors import LabelingError


class LabelEncoder:
    """Map arbitrary hashable labels to contiguous int codes."""

    def __init__(self) -> None:
        self.classes_: list = []
        self._index: dict = {}
        self._class_cells = np.empty(0, dtype=object)

    def fit(self, labels) -> "LabelEncoder":
        self.classes_ = sorted(set(labels), key=str)
        self._index = {c: i for i, c in enumerate(self.classes_)}
        if not self.classes_:
            raise LabelingError("cannot fit LabelEncoder on no labels")
        # fromiter keeps a tuple-valued class one cell; asarray would
        # unpack it into a row
        self._class_cells = np.fromiter(
            self.classes_, dtype=object, count=len(self.classes_)
        )
        return self

    def transform(self, labels) -> np.ndarray:
        try:
            return np.asarray([self._index[label] for label in labels], dtype=np.int64)
        except KeyError as exc:
            raise LabelingError(f"unseen label: {exc.args[0]!r}") from exc

    def fit_transform(self, labels) -> np.ndarray:
        return self.fit(labels).transform(labels)

    def inverse_transform(self, codes: np.ndarray) -> list:
        return self._class_cells[np.asarray(codes, dtype=np.intp)].tolist()


class StandardScaler:
    """Zero-mean / unit-variance scaling; constant columns pass through."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "StandardScaler":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or len(features) == 0:
            raise LabelingError("StandardScaler expects a non-empty 2-D array")
        self.mean_ = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise LabelingError("StandardScaler.transform called before fit")
        return (np.asarray(features, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)


def train_test_split(
    features: np.ndarray,
    labels: np.ndarray,
    test_fraction: float = 0.25,
    seed: int = 0,
    stratify: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle-split into train/test, stratified by default."""
    features = np.asarray(features)
    labels = np.asarray(labels)
    if not 0.0 < test_fraction < 1.0:
        raise LabelingError("test_fraction must be in (0, 1)")
    if len(features) != len(labels) or len(labels) < 2:
        raise LabelingError("need at least 2 aligned samples to split")
    rng = np.random.default_rng(seed)
    n = len(labels)
    test_mask = np.zeros(n, dtype=bool)
    if stratify:
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            rng.shuffle(members)
            n_test = max(1, int(round(len(members) * test_fraction)))
            if n_test >= len(members):  # keep at least one in train
                n_test = len(members) - 1
            test_mask[members[:n_test]] = True
    else:
        order = rng.permutation(n)
        test_mask[order[: max(1, int(round(n * test_fraction)))]] = True
    if not test_mask.any() or test_mask.all():
        raise LabelingError("split produced an empty train or test set")
    return (
        features[~test_mask],
        features[test_mask],
        labels[~test_mask],
        labels[test_mask],
    )
