"""Column-oriented storage: one numpy array per column.

Dates are stored as int32 days since 1970-01-01 so comparisons and
EXTRACT are plain arithmetic. Strings are numpy unicode arrays in
``Table.columns``; the executor reads them through ``Table.encoded``:
``int32`` codes into the column's sorted dictionary of distinct values,
built on the first scan that reads the column and kept on the table, so
every ``Database`` that loaded it shares one encoding.
"""

from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CatalogError, ExecutionError
from repro.minidb.catalog import ColumnMeta, TableMeta, compute_column_stats

_EPOCH = _dt.date(1970, 1, 1)


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

    def drop_encodings(self) -> None:
        """Forget every encoding; the next scan of a column re-encodes it."""
        with self._encoding_lock:
            self._encodings.clear()

    def metadata(self) -> TableMeta:
        """Compute full statistics for the catalog."""
        meta = TableMeta(name=self.name, row_count=self.n_rows)
        for col, dtype in self.dtypes.items():
            meta.columns[col] = compute_column_stats(col, dtype, self.columns[col])
        return meta


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
