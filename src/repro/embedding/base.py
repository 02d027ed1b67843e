"""Common interface for query embedders.

Every embedder maps raw query text to a fixed-size float vector. The
base class owns tokenization (via the dialect-tolerant normalizer) and
the fitted-state bookkeeping, so subclasses implement only
``_fit_tokenized`` and ``_transform_tokenized``.

Tokenization is one scheme for every embedder: the literal-folded
token stream that :func:`repro.sql.normalizer.template_fingerprint`
digests. Equal fingerprints therefore mean equal embedder input, which
is what lets the runtime key its caches and batch dedup on one
template axis. A subclass that defines ``tokenize`` is a ``TypeError``
at class creation.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.errors import EmbeddingError, NotFittedError
from repro.sql.normalizer import safe_token_stream


class QueryEmbedder(abc.ABC):
    """Maps SQL text to dense vectors; the 'embedder' half of a classifier.

    Subclasses implement the two ``*_tokenized`` hooks. ``fit`` /
    ``transform`` / ``fit_transform`` are the public API used by Querc
    and by every application.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "tokenize" in vars(cls):
            raise TypeError(f"{cls.__name__} may not override tokenize")

    def __init__(self, dimension: int, seed: int = 0) -> None:
        if dimension <= 0:
            raise EmbeddingError("dimension must be positive")
        self._dimension = int(dimension)
        self._seed = int(seed)
        self._fitted = False
        self._fit_generation = 0

    # -- public API ------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Size of the produced vectors."""
        return self._dimension

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def fit_generation(self) -> int:
        """Bumped on every (re)fit; embedding caches key on it so a
        refit embedder can never serve vectors from an earlier fit."""
        return self._fit_generation

    def fit(self, corpus: Sequence[str]) -> "QueryEmbedder":
        """Train the representation model on raw query texts."""
        if len(corpus) == 0:
            raise EmbeddingError("cannot fit an embedder on an empty corpus")
        self._fit_tokenized([self.tokenize(q) for q in corpus])
        self._fitted = True
        self._fit_generation += 1
        return self

    def transform(self, queries: Sequence[str]) -> np.ndarray:
        """Embed raw query texts; returns shape (len(queries), dimension)."""
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__}.transform called before fit"
            )
        if len(queries) == 0:
            return np.zeros((0, self._dimension), dtype=np.float64)
        out = self._transform_tokenized([self.tokenize(q) for q in queries])
        if out.shape != (len(queries), self._dimension):
            raise EmbeddingError(
                f"embedder produced shape {out.shape}, expected "
                f"({len(queries)}, {self._dimension})"
            )
        return out

    def fit_transform(self, corpus: Sequence[str]) -> np.ndarray:
        self.fit(corpus)
        return self.transform(corpus)

    def embed(self, query: str) -> np.ndarray:
        """Embed a single query; returns shape (dimension,)."""
        return self.transform([query])[0]

    @staticmethod
    def tokenize(query: str) -> list[str]:
        """Token sequence fed to the model (literals folded).

        Lexically broken queries degrade to whitespace tokens rather
        than raising: Querc must embed anything the log contains. The
        same stream is what template fingerprints digest, so it is not
        overridable.
        """
        return safe_token_stream(query)

    def validate_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Vectors-in entry point: check precomputed embeddings fit this
        embedder's output space so labelers can consume them directly.

        Returns the array as float64 of shape (n, dimension); raises
        :class:`EmbeddingError` on a shape mismatch.
        """
        out = np.asarray(vectors, dtype=np.float64)
        if out.ndim != 2 or out.shape[1] != self._dimension:
            raise EmbeddingError(
                f"precomputed vectors have shape {out.shape}, expected "
                f"(n, {self._dimension})"
            )
        return out

    # -- subclass hooks ----------------------------------------------------------

    @abc.abstractmethod
    def _fit_tokenized(self, corpus: list[list[str]]) -> None:
        """Train on the tokenized corpus."""

    @abc.abstractmethod
    def _transform_tokenized(self, queries: list[list[str]]) -> np.ndarray:
        """Embed tokenized queries; must return (n, dimension) float64."""
