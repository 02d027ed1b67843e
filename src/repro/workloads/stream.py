"""Batched query streams — the ``query(X, t)`` arrows in Figure 1.

A :class:`QueryStream` replays a list of log records as timed batches,
which is how Qworkers consume work in the Querc architecture;
:func:`interleave_streams` merges several applications' streams into
the multi-tenant arrival order the service actually sees.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.workloads.logs import QueryLogRecord


@dataclass(frozen=True, slots=True)
class StreamBatch:
    """One batch of queries for one application at one time step."""

    application: str
    time_step: int
    records: tuple[QueryLogRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def queries(self) -> list[str]:
        """Raw query texts, in batch order — what the runtime pipeline
        fingerprints and embeds."""
        return [record.query for record in self.records]


class QueryStream:
    """Replays records for one application in fixed-size batches."""

    def __init__(
        self,
        application: str,
        records: list[QueryLogRecord],
        batch_size: int = 32,
    ) -> None:
        if batch_size < 1:
            raise WorkloadError("batch_size must be >= 1")
        self.application = application
        self._records = list(records)
        self.batch_size = batch_size

    def __len__(self) -> int:
        return len(self._records)

    def batches(self) -> Iterator[StreamBatch]:
        """Yield consecutive :class:`StreamBatch` objects."""
        for step, start in enumerate(range(0, len(self._records), self.batch_size)):
            yield StreamBatch(
                application=self.application,
                time_step=step,
                records=tuple(self._records[start : start + self.batch_size]),
            )


def interleave_streams(streams: Sequence[QueryStream]) -> Iterator[StreamBatch]:
    """Round-robin merge of per-application streams by time step.

    At each time step ``t`` every stream that still has work yields its
    batch, in the order the streams were given — the arrival pattern a
    multi-tenant ``QuercService`` (and the router's admission gates)
    must absorb. Streams of different lengths simply drop out as they
    exhaust. Invalid input raises eagerly, at the call site.
    """
    names = [s.application for s in streams]
    if len(set(names)) != len(names):
        raise WorkloadError("streams must belong to distinct applications")
    return _interleave(list(streams))


def _interleave(streams: list[QueryStream]) -> Iterator[StreamBatch]:
    live = [s.batches() for s in streams]
    while live:
        still_live = []
        for it in live:
            batch = next(it, None)
            if batch is not None:
                still_live.append(it)
                yield batch
        live = still_live

