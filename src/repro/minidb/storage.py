"""Column-oriented storage: one numpy array per column.

Dates are stored as int32 days since 1970-01-01 so comparisons and
EXTRACT are plain arithmetic. Strings are numpy unicode arrays in
``Table.columns``; the executor reads them through ``Table.encoded``:
``int32`` codes into the column's sorted dictionary of distinct values,
built on the first scan that reads the column and kept on the table, so
every ``Database`` that loaded it shares one encoding.

A table also keeps one :class:`KeyIndex` per join-key tuple
(``Table.key_index``): the rows in key order and where each key's run
starts, so a join whose build side is the whole table looks its probe
keys up instead of encoding and sorting the table's key columns on every
query. Encodings and key indexes are both kept while the arrays they
were built from are the table's columns, and ``Database.load_table``
drops both (``Table.drop_derived``).
"""

from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CatalogError, ExecutionError
from repro.minidb.catalog import ColumnMeta, TableMeta, compute_column_stats

_EPOCH = _dt.date(1970, 1, 1)

MAX_KEY_SPAN = 1 << 62  # composite key spans beyond this could wrap int64


def date_to_days(value: str | _dt.date) -> int:
    """ISO date string or date → days since epoch."""
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value[:10])
    return (value - _EPOCH).days


def days_to_date(days: int) -> _dt.date:
    return _EPOCH + _dt.timedelta(days=int(days))


def days_to_year(days: np.ndarray) -> np.ndarray:
    """Vectorized EXTRACT(YEAR FROM date-in-days)."""
    dates = days.astype("timedelta64[D]") + np.datetime64("1970-01-01")
    return dates.astype("datetime64[Y]").astype(np.int64) + 1970


def days_to_month(days: np.ndarray) -> np.ndarray:
    """Vectorized EXTRACT(MONTH FROM date-in-days)."""
    dates = days.astype("timedelta64[D]") + np.datetime64("1970-01-01")
    months = dates.astype("datetime64[M]").astype(np.int64)
    return months % 12 + 1


@dataclass
class Table:
    """Materialized table: aligned numpy columns."""

    name: str
    dtypes: dict[str, str]  # column -> "int" | "float" | "str" | "date"
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    # column -> (the array it encodes, codes, sorted dictionary)
    _encodings: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # key columns -> (the arrays it indexes, KeyIndex or None: no index)
    _key_indexes: dict[tuple, tuple[tuple, KeyIndex | None]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _encoding_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged columns in table {self.name}")

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(f"unknown column {self.name}.{name}") from None

    def encoded(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, dictionary)`` of a text column: ``dictionary`` is its
        sorted distinct values and ``dictionary[codes]`` the column.

        Built once and kept while ``columns[name]`` is the same array, so
        replacing a column's array re-encodes it. Concurrent first reads
        build it once and all get the same pair.
        """
        values = self.column(name)
        entry = self._encodings.get(name)
        if entry is None or entry[0] is not values:
            with self._encoding_lock:
                entry = self._encodings.get(name)
                if entry is None or entry[0] is not values:
                    dictionary, codes = np.unique(values, return_inverse=True)
                    entry = (values, codes.astype(np.int32), dictionary)
                    self._encodings[name] = entry
        return entry[1], entry[2]

    def scanned(self, name: str) -> tuple[np.ndarray, np.ndarray | None]:
        """Column ``name`` as a scan emits it: a text column as its codes
        and dictionary (``encoded``), any other as stored, with None."""
        values = self.column(name)
        if values.dtype.kind == "U" and self.dtypes[name] == "str":
            return self.encoded(name)
        return values, None

    def key_index(self, columns: tuple[str, ...]) -> KeyIndex | None:
        """The :class:`KeyIndex` of the key tuple ``columns``: every row
        is a build row, and a text column is indexed by its codes
        (``encoded``), so only a probe holding codes into the same
        dictionary may look it up. None when the keys' composite span
        does not fit ``int64``.

        Built once and kept while every column holds the array it was
        built from (``encoded``'s rule); concurrent first reads build it
        once.
        """
        arrays = tuple([self.column(c) for c in columns])
        entry = self._key_indexes.get(columns)
        if entry is None or not _same(entry[0], arrays):
            keys = [self.scanned(c)[0] for c in columns]
            with self._encoding_lock:
                entry = self._key_indexes.get(columns)
                if entry is None or not _same(entry[0], arrays):
                    entry = (arrays, KeyIndex.build(keys))
                    self._key_indexes[columns] = entry
        return entry[1]

    def drop_derived(self) -> None:
        """Forget every encoding and key index; the next scan or join
        that needs one builds it afresh."""
        with self._encoding_lock:
            self._encodings.clear()
            self._key_indexes.clear()

    def metadata(self) -> TableMeta:
        """Compute full statistics for the catalog."""
        meta = TableMeta(name=self.name, row_count=self.n_rows)
        for col, dtype in self.dtypes.items():
            meta.columns[col] = compute_column_stats(col, dtype, self.columns[col])
        return meta


def _same(built: tuple, arrays: tuple) -> bool:
    return all(a is b for a, b in zip(built, arrays))


class KeyIndex:
    """A build side's rows grouped by key, for equi-joins to probe.

    Keys are integer-like columns (ints, bools, day-count dates,
    dictionary codes). Each is read as ``value - low`` over the build's
    own ``[low, high]`` and the columns are combined in mixed radix, so
    a probe value outside the build's range matches nothing and needs no
    code. ``order`` lists the build rows in key order, rows ascending
    within a key. When the composite span is at most ``4 * rows + 1024``
    (a build made for one join also counts the probe's rows, as the
    joint encoding does) ``bounds[code]`` and ``bounds[code + 1]``
    delimit each key's run in ``order`` (counting, no search); wider
    keys keep their ``keys`` sorted and probe them with
    ``searchsorted``.
    """

    __slots__ = ("lows", "highs", "spans", "order", "bounds", "keys")

    def __init__(self, lows, highs, spans, order, bounds, keys) -> None:
        self.lows, self.highs, self.spans = lows, highs, spans
        self.order, self.bounds, self.keys = order, bounds, keys

    @classmethod
    def build(cls, columns: list[np.ndarray], probe_rows: int = 0) -> KeyIndex | None:
        """Index aligned integer-like key columns for a probe of
        ``probe_rows`` rows (0 for a table's index, which any probe may
        use); None when their composite span does not fit ``int64``."""
        rows = len(columns[0])
        lows, highs, spans = [], [], []
        total = 1
        for column in columns:
            low = int(column.min()) if rows else 0
            high = int(column.max()) if rows else -1
            span = max(high - low + 1, 1)  # an empty build still has code 0
            lows.append(low)
            highs.append(high)
            spans.append(span)
            total *= span
        if total > MAX_KEY_SPAN:
            return None
        codes = _composite(columns, lows, spans)
        if total <= 4 * (rows + probe_rows) + 1024:
            counts = np.bincount(codes, minlength=total)
            bounds = np.zeros(total + 1, dtype=np.int32)
            np.cumsum(counts, out=bounds[1:])
            order, keys = stable_order(codes, total), None
        else:
            order = np.argsort(codes, kind="stable")
            bounds, keys = None, codes[order]
        return cls(lows, highs, spans, order.astype(np.int32), bounds, keys)

    @property
    def nbytes(self) -> int:
        """Bytes held by the index's arrays."""
        held = self.bounds if self.keys is None else self.keys
        return self.order.nbytes + held.nbytes

    def runs(self, columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Per probe row (``columns`` aligned with the build's keys): where
        its key's run starts in ``order`` and how many build rows it
        holds (0: no match)."""
        columns = [np.asarray(column, dtype=np.int64) for column in columns]
        hit = None
        for column, low, high in zip(columns, self.lows, self.highs):
            inside = (column >= low) & (column <= high)
            hit = inside if hit is None else hit & inside
        codes = _composite(
            [np.where(hit, column, low) for column, low in zip(columns, self.lows)],
            self.lows,
            self.spans,
        )
        if self.bounds is not None:
            starts = self.bounds[codes]
            ends = self.bounds[codes + 1]
        else:
            starts = np.searchsorted(self.keys, codes, side="left")
            ends = np.searchsorted(self.keys, codes, side="right")
        return starts, np.where(hit, ends - starts, 0)

    def pairs(self, columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """All matching ``(probe_idx, build_idx)`` pairs, probe-major,
        build rows ascending within a probe row."""
        starts, counts = self.runs(columns)
        probe_idx = np.repeat(np.arange(len(counts)), counts)
        if len(probe_idx) == 0:
            return probe_idx, probe_idx
        # position in ``order`` = run start + rank within the probe's run
        shift = starts - (np.cumsum(counts) - counts)
        build_idx = self.order[np.repeat(shift, counts) + np.arange(len(probe_idx))]
        return probe_idx, build_idx


def _composite(
    columns: list[np.ndarray], lows: list[int], spans: list[int]
) -> np.ndarray:
    """Mixed-radix ``int64`` codes of in-range key columns."""
    codes = None
    for column, low, span in zip(columns, lows, spans):
        digit = np.subtract(column, low, dtype=np.int64)
        codes = digit if codes is None else codes * span + digit
    return codes


def stable_order(codes: np.ndarray, size: int) -> np.ndarray:
    """Stable ascending order of codes in ``[0, size)``, 16 bits at a time
    from the low end: numpy radix-sorts 16-bit keys, and dense codes
    rarely need a second pass."""
    order = np.argsort(codes.astype(np.uint16), kind="stable")
    shift = 16
    while (size - 1) >> shift > 0:
        digit = (codes >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def make_column(dtype: str, values) -> np.ndarray:
    """Coerce python values into the storage dtype for ``dtype``."""
    if dtype == "int":
        return np.asarray(values, dtype=np.int64)
    if dtype == "float":
        return np.asarray(values, dtype=np.float64)
    if dtype == "date":
        if len(values) and isinstance(values[0], (str, _dt.date)):
            values = [date_to_days(v) for v in values]
        return np.asarray(values, dtype=np.int32)
    if dtype == "str":
        return np.asarray(values, dtype=np.str_)
    raise CatalogError(f"unsupported dtype {dtype!r}")
