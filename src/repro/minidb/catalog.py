"""Schema metadata and statistics for the cost model.

Statistics are computed from the materialized data but row counts can
be scaled by ``virtual_row_multiplier``: experiments materialize a
small database (fast to execute) while costing it as if it were TPC-H
scale factor 1, exactly like a simulator clocking a scaled-down trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CatalogError

HISTOGRAM_BUCKETS = 32


@dataclass
class ColumnMeta:
    """Statistics for one column.

    ``histogram`` holds equi-width bucket counts over [min, max] for
    numeric/date columns; strings carry only NDV.
    """

    name: str
    dtype: str  # "int" | "float" | "str" | "date"
    n_distinct: int = 0
    min_value: float | None = None
    max_value: float | None = None
    histogram: np.ndarray | None = None

    def range_selectivity(self, low: float | None, high: float | None) -> float:
        """Estimated fraction of rows with value in [low, high]."""
        if self.min_value is None or self.max_value is None:
            return 0.3  # no stats: conventional guess
        lo = self.min_value if low is None else max(low, self.min_value)
        hi = self.max_value if high is None else min(high, self.max_value)
        if hi < lo:
            return 0.0
        if self.histogram is not None and self.max_value > self.min_value:
            counts = self.histogram.tolist()
            n = len(counts)
            width = (self.max_value - self.min_value) / n
            total = sum(counts)
            if total > 0 and width > 0:
                first = (lo - self.min_value) / width
                last = (hi - self.min_value) / width
                if not first < last:  # a point, or a NaN bound: no overlap
                    return 0.0
                # only the buckets around [first, last] can overlap it;
                # the terms and their order are those of a walk over all
                mass = 0.0
                for b in range(max(0, int(first) - 1), min(n, int(last) + 2)):
                    overlap = min(last, b + 1) - max(first, b)
                    if overlap > 0:
                        mass += counts[b] * min(1.0, overlap)
                return float(min(1.0, max(0.0, mass / total)))
        span = self.max_value - self.min_value
        if span <= 0:
            return 1.0
        return float(np.clip((hi - lo) / span, 0.0, 1.0))

    def equality_selectivity(self) -> float:
        """1 / NDV with a floor, the textbook estimate."""
        return 1.0 / max(1, self.n_distinct)


@dataclass
class TableMeta:
    """One table's schema plus cardinality."""

    name: str
    columns: dict[str, ColumnMeta] = field(default_factory=dict)
    row_count: int = 0

    @property
    def row_width(self) -> int:
        """Approximate bytes per row, used for index sizing."""
        widths = {"int": 8, "float": 8, "date": 4, "str": 24}
        return sum(widths[c.dtype] for c in self.columns.values()) or 8

    def column(self, name: str) -> ColumnMeta:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(f"unknown column {self.name}.{name}") from None


class Catalog:
    """All table metadata plus the virtual scaling knob."""

    def __init__(self, virtual_row_multiplier: float = 1.0) -> None:
        if virtual_row_multiplier <= 0:
            raise CatalogError("virtual_row_multiplier must be positive")
        self.virtual_row_multiplier = virtual_row_multiplier
        self._tables: dict[str, TableMeta] = {}

    def add_table(self, meta: TableMeta) -> None:
        if meta.name in self._tables:
            raise CatalogError(f"table {meta.name} already exists")
        self._tables[meta.name] = meta

    def table(self, name: str) -> TableMeta:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def scaled_rows(self, name: str) -> float:
        """Row count as seen by the cost model (virtual scale applied)."""
        return self.table(name).row_count * self.virtual_row_multiplier

    def total_data_bytes(self) -> float:
        """Virtual total size of the database, for advisor storage budgets."""
        return sum(
            self.scaled_rows(name) * self._tables[name].row_width
            for name in self._tables
        )

    def which_table(self, column: str, candidates: list[str] | None = None) -> str:
        """Find the unique table (optionally among ``candidates``) owning
        ``column``; raises when missing or ambiguous."""
        names = candidates if candidates is not None else self.table_names()
        owners = [n for n in names if column in self._tables[n].columns]
        if not owners:
            raise CatalogError(f"no table has column {column}")
        if len(owners) > 1:
            raise CatalogError(f"column {column} is ambiguous across {owners}")
        return owners[0]


def compute_column_stats(name: str, dtype: str, values: np.ndarray) -> ColumnMeta:
    """Build :class:`ColumnMeta` from materialized values."""
    meta = ColumnMeta(name=name, dtype=dtype)
    if len(values) == 0:
        return meta
    if dtype == "str":
        meta.n_distinct = len(np.unique(values))
        return meta
    numeric = values.astype(np.float64)
    meta.n_distinct = len(np.unique(numeric))
    meta.min_value = float(numeric.min())
    meta.max_value = float(numeric.max())
    if meta.max_value > meta.min_value:
        meta.histogram, _ = np.histogram(
            numeric, bins=HISTOGRAM_BUCKETS, range=(meta.min_value, meta.max_value)
        )
    return meta
