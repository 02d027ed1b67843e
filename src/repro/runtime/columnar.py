"""Array-native batch representation for the inference hot path.

LearnedWMP's observation — production workloads collapse onto a small
template distribution — means a labeled batch is tiny *per template*:
a 1,000-query batch usually carries a few dozen distinct templates.
The columnar form exploits that. A :class:`ColumnarBatch` carries the
batch's one template axis — the interned fingerprint id per query and
one ``inverse`` from rows to distinct templates — and one array per
label column at **template** granularity (the predicted value per
distinct template). The pipeline predicts once per template, the
router partitions by array instead of grouping message objects, and
per-query :class:`~repro.core.labeled_query.LabeledQuery` copies are
materialized exactly once, at the :meth:`ColumnarBatch.to_messages`
boundary — or per-row on demand (:meth:`ColumnarBatch.label_at`,
:meth:`ColumnarBatch.message_at`) for the rare spill paths.

The batch flows pipeline → Qworker → router → backend without
rebuilding Python objects between stages; ``to_messages()`` caches its
result, so sinks, windows and the public API share one materialization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # avoid an import cycle with repro.core
    from repro.core.labeled_query import LabeledQuery


class ColumnarBatch:
    """A labeled batch as arrays; messages only at the boundary.

    Holds the original (pre-labeling) messages and their query texts;
    the pipeline attaches the template axis (``fingerprint_ids``, and
    ``inverse`` when it predicts) and ``columns``, which maps each
    label name to its per-template values: row ``i``'s label is
    ``columns[name][inverse[i]]``. Supports ``len`` and truthiness like
    the message list it replaces.
    """

    __slots__ = (
        "messages",
        "queries",
        "fingerprint_ids",
        "inverse",
        "columns",
        "_materialized",
    )

    def __init__(
        self,
        messages: "Sequence[LabeledQuery]",
        queries: list[str] | None = None,
    ) -> None:
        self.messages = list(messages)
        self.queries = (
            queries if queries is not None else [m.query for m in self.messages]
        )
        # per-query interned template-fingerprint ids (int64, negative
        # = batch-local overflow id), attached by the pipeline so
        # dispatch can hand templates to prepared-execution backends
        self.fingerprint_ids: np.ndarray | None = None
        # per-query index into every label column's template values
        self.inverse: np.ndarray | None = None
        self.columns: dict[str, np.ndarray] = {}
        self._materialized: "list[LabeledQuery] | None" = None

    def __len__(self) -> int:
        return len(self.messages)

    def select(self, indices: np.ndarray) -> "ColumnarSlice":
        """A zero-copy view of a subset of rows (router partitions)."""
        return ColumnarSlice(self, np.asarray(indices, dtype=np.intp))

    def label_at(self, i: int, name: str, default=None):
        """Row ``i``'s value for one label, no message built: the
        predicted column's value, else the label the message arrived
        with."""
        values = self.columns.get(name)
        if values is not None:
            return values[self.inverse[i]]
        return self.messages[i].label(name, default)

    def message_at(self, i: int) -> "LabeledQuery":
        """One fully-labeled message, materialized on demand."""
        if self._materialized is not None:
            return self._materialized[i]
        if not self.columns:
            return self.messages[i]
        return self.messages[i].with_labels(
            **{name: self.label_at(i, name) for name in self.columns}
        )

    def to_messages(self) -> "list[LabeledQuery]":
        """The labeled batch as per-query messages (cached).

        One ``with_labels`` per message — the single object-
        materialization point of the whole hot path. Every label column
        is scattered with one fancy index before the per-message loop.
        """
        if self._materialized is None:
            if not self.columns:
                self._materialized = list(self.messages)
            else:
                scattered = [
                    (name, values[self.inverse])
                    for name, values in self.columns.items()
                ]
                self._materialized = [
                    message.with_labels(
                        **{name: values[i] for name, values in scattered}
                    )
                    for i, message in enumerate(self.messages)
                ]
        return self._materialized


class ColumnarSlice:
    """A row subset of a :class:`ColumnarBatch` — the router's currency.

    Every dispatch group, admitted head, overflow tail and parked queue
    segment is one of these: ``len`` and slicing split a group without
    copying, ``queries()`` / ``fingerprint_ids()`` read straight from
    the batch's arrays for execution, and ``label_at`` reads one row's
    label. Iterating (or integer-indexing) a slice is the only thing
    that materializes per-row messages, and the router does that in
    exactly one place: merging parked segments of different batches.
    """

    __slots__ = ("batch", "indices")

    def __init__(self, batch: ColumnarBatch, indices: np.ndarray) -> None:
        self.batch = batch
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return ColumnarSlice(self.batch, self.indices[item])
        return self.batch.message_at(int(self.indices[item]))

    def __iter__(self) -> "Iterator[LabeledQuery]":
        batch = self.batch
        for i in self.indices:
            yield batch.message_at(int(i))

    def queries(self) -> list[str]:
        texts = self.batch.queries
        return [texts[i] for i in self.indices]

    def label_at(self, i: int, name: str, default=None):
        """Row ``i``'s value for one label (see
        :meth:`ColumnarBatch.label_at`). The router's failover/breaker
        paths use this to learn a doomed group's route label without
        breaching the ``to_messages()`` boundary."""
        return self.batch.label_at(int(self.indices[i]), name, default)

    def fingerprint_ids(self) -> np.ndarray | None:
        """This slice's interned template ids (None when the batch has
        none, e.g. batches built outside the pipeline)."""
        ids = self.batch.fingerprint_ids
        return None if ids is None else ids[self.indices]
