"""Unit tests for storage, catalog, and statistics."""

import datetime

import numpy as np
import pytest

from repro.errors import CatalogError
from repro.minidb.catalog import Catalog, TableMeta, compute_column_stats
from repro.minidb.storage import (
    Table,
    date_to_days,
    days_to_date,
    days_to_month,
    days_to_year,
    make_column,
)


class TestDates:
    def test_roundtrip(self):
        for iso in ("1970-01-01", "1992-06-15", "1998-08-02"):
            assert days_to_date(date_to_days(iso)).isoformat() == iso

    def test_accepts_date_objects(self):
        assert date_to_days(datetime.date(1970, 1, 2)) == 1

    def test_vectorized_year_month(self):
        days = np.array([date_to_days("1994-03-17"), date_to_days("1998-12-31")])
        assert days_to_year(days).tolist() == [1994, 1998]
        assert days_to_month(days).tolist() == [3, 12]


class TestTable:
    def test_ragged_columns_rejected(self):
        with pytest.raises(Exception):
            Table(
                name="t",
                dtypes={"a": "int", "b": "int"},
                columns={"a": np.zeros(3), "b": np.zeros(2)},
            )

    def test_unknown_column_raises(self):
        table = Table(name="t", dtypes={"a": "int"}, columns={"a": np.zeros(2)})
        with pytest.raises(CatalogError):
            table.column("zzz")

    def test_make_column_coerces_dates(self):
        col = make_column("date", ["1970-01-03", "1970-01-01"])
        assert col.tolist() == [2, 0]

    def test_make_column_rejects_bad_dtype(self):
        with pytest.raises(CatalogError):
            make_column("uuid", [1])

    def test_metadata_stats(self):
        table = Table(
            name="t",
            dtypes={"a": "int", "s": "str"},
            columns={
                "a": np.array([1, 2, 2, 9]),
                "s": np.array(["x", "y", "x", "z"]),
            },
        )
        meta = table.metadata()
        assert meta.row_count == 4
        assert meta.columns["a"].n_distinct == 3
        assert meta.columns["a"].min_value == 1
        assert meta.columns["a"].max_value == 9
        assert meta.columns["s"].n_distinct == 3


class TestColumnStats:
    def test_range_selectivity_full_range(self):
        stats = compute_column_stats("a", "int", np.arange(100))
        assert stats.range_selectivity(None, None) == pytest.approx(1.0, abs=0.05)

    def test_range_selectivity_half(self):
        stats = compute_column_stats("a", "int", np.arange(100))
        assert stats.range_selectivity(None, 49) == pytest.approx(0.5, abs=0.1)

    def test_range_selectivity_outside(self):
        stats = compute_column_stats("a", "int", np.arange(100))
        assert stats.range_selectivity(1000, None) == 0.0

    def test_equality_selectivity(self):
        stats = compute_column_stats("a", "int", np.array([1, 1, 2, 3]))
        assert stats.equality_selectivity() == pytest.approx(1 / 3)

    def test_skewed_histogram_better_than_uniform(self):
        # 90% of mass at the low end: histogram should notice
        values = np.concatenate([np.zeros(900), np.linspace(0, 100, 100)])
        stats = compute_column_stats("a", "float", values)
        assert stats.range_selectivity(None, 5.0) > 0.8


def _range_selectivity_walk(meta, low, high) -> float:
    """The reference: every histogram bucket visited, in numpy scalars."""
    if meta.min_value is None or meta.max_value is None:
        return 0.3
    lo = meta.min_value if low is None else max(low, meta.min_value)
    hi = meta.max_value if high is None else min(high, meta.max_value)
    if hi < lo:
        return 0.0
    if meta.histogram is not None and meta.max_value > meta.min_value:
        width = (meta.max_value - meta.min_value) / len(meta.histogram)
        total = meta.histogram.sum()
        if total > 0 and width > 0:
            first = (lo - meta.min_value) / width
            last = (hi - meta.min_value) / width
            mass = 0.0
            for b in range(len(meta.histogram)):
                overlap = min(last, b + 1) - max(first, b)
                if overlap > 0:
                    mass += meta.histogram[b] * min(1.0, overlap)
            return float(np.clip(mass / total, 0.0, 1.0))
    span = meta.max_value - meta.min_value
    if span <= 0:
        return 1.0
    return float(np.clip((hi - lo) / span, 0.0, 1.0))


class TestRangeSelectivityBits:
    def test_matches_the_full_walk_bit_for_bit(self):
        rng = np.random.default_rng(20)
        checked = 0
        for trial in range(200):
            n = int(rng.choice([1, 2, 6, 50, 1000]))
            shape = trial % 4
            if shape == 0:
                values = rng.integers(-50, 50, n)
            elif shape == 1:
                values = rng.exponential(30.0, n)
            elif shape == 2:
                values = np.concatenate([np.zeros(n), rng.uniform(0, 1e6, 3)])
            else:
                values = rng.normal(0.0, 1e-3, n)
            meta = compute_column_stats("c", "float", values)
            if trial % 5 == 0 and meta.histogram is not None:
                # sparse buckets: most overlapping buckets are empty
                meta.histogram = meta.histogram * (rng.random(32) < 0.3)
            lo, hi = float(values.min()), float(values.max())
            points = [
                None,
                lo,
                hi,
                lo - 1,
                hi + 1,
                int(np.floor(lo)),
                int(np.ceil(hi)),
                float("nan"),
                np.float64(rng.uniform(lo, hi) if hi > lo else lo),
                *rng.uniform(lo - 0.1 * abs(lo) - 1, hi + 0.1 * abs(hi) + 1, 6).tolist(),
            ]
            for low in points:
                for high in points:
                    got = meta.range_selectivity(low, high)
                    want = _range_selectivity_walk(meta, low, high)
                    assert type(got) is float
                    assert got.hex() == want.hex(), (trial, low, high)
                    checked += 1
        assert checked > 25_000

    def test_without_stats(self):
        meta = compute_column_stats("c", "float", np.array([]))
        assert meta.range_selectivity(1, 2) == _range_selectivity_walk(meta, 1, 2)


class TestCatalog:
    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.add_table(TableMeta(name="t"))
        with pytest.raises(CatalogError):
            catalog.add_table(TableMeta(name="t"))

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("ghost")

    def test_virtual_multiplier_scales_rows(self):
        catalog = Catalog(virtual_row_multiplier=100.0)
        catalog.add_table(TableMeta(name="t", row_count=10))
        assert catalog.scaled_rows("t") == 1000.0

    def test_bad_multiplier_rejected(self):
        with pytest.raises(CatalogError):
            Catalog(virtual_row_multiplier=0.0)

    def test_which_table_resolution(self, tpch_db):
        catalog = tpch_db.catalog
        assert catalog.which_table("l_orderkey") == "lineitem"
        with pytest.raises(CatalogError):
            catalog.which_table("no_such_col")


class TestTextEncoding:
    """``Table.encoded``: codes into the sorted dictionary, built once per
    column array and shared by every ``Database`` that loaded the table."""

    @staticmethod
    def _table(values):
        return Table(name="t", dtypes={"s": "str"}, columns={"s": np.array(values)})

    def test_codes_index_the_sorted_dictionary(self):
        codes, dictionary = self._table(["b", "", "é", "b", "ab\n"]).encoded("s")
        assert dictionary.tolist() == ["", "ab\n", "b", "é"]
        assert codes.dtype == np.int32
        assert dictionary[codes].tolist() == ["b", "", "é", "b", "ab\n"]

    def test_built_once_per_column_array(self):
        table = self._table(["x", "y", "x"])
        codes, dictionary = table.encoded("s")
        assert table.encoded("s")[1] is dictionary
        table.columns["s"] = np.array(["z", "x"])  # a new array re-encodes
        codes, dictionary = table.encoded("s")
        assert (codes.tolist(), dictionary.tolist()) == ([1, 0], ["x", "z"])

    def test_reloading_re_encodes(self):
        from repro.minidb import Database

        table = self._table(["x", "y", "x"])
        Database().load_table(table)
        before = table.encoded("s")[1]
        table.columns["s"][0] = "w"  # changed in place: same array object
        Database().load_table(table)
        codes, dictionary = table.encoded("s")
        assert dictionary is not before
        assert dictionary[codes].tolist() == ["w", "y", "x"]

    def test_databases_sharing_a_table_share_its_encoding(self):
        from repro.minidb import Database

        table = self._table(["x", "y", "x"])
        first, second = Database(), Database()
        first.load_table(table)
        second.load_table(table)
        sql = "select s, count(*) from t where s <> 'y' group by s"
        assert first.execute(sql).rows == [("x", 2.0)]
        dictionary = table.encoded("s")[1]
        assert second.execute(sql).rows == [("x", 2.0)]
        assert table.encoded("s")[1] is dictionary

    def test_concurrent_first_scans_agree(self):
        import sys
        import threading

        from repro.minidb import Database

        rng = np.random.default_rng(4)
        table = self._table(rng.choice(["a", "bb", "ccc", "é", ""], 50_000))
        db = Database()
        db.load_table(table)
        sql = "select s, count(*) from t where s >= 'b' group by s order by s"
        barrier = threading.Barrier(6, timeout=30)
        seen = []

        def scan():
            barrier.wait()
            _, dictionary = table.encoded("s")  # the first read, racing
            seen.append((db.execute(sql).rows, dictionary))

        threads = [threading.Thread(target=scan) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 6
        assert len({repr(rows) for rows, _ in seen}) == 1
        # one build, not one per racing thread
        assert all(dictionary is seen[0][1] for _, dictionary in seen)
        assert [s for s, _ in seen[0][0]] == ["bb", "ccc", "é"]


class TestKeyIndexLifetime:
    """``Table.key_index``: built once per key tuple and column arrays,
    rebuilt for a replaced array, dropped by ``load_table``."""

    @staticmethod
    def _table():
        return Table(
            name="t",
            dtypes={"k": "int", "s": "str"},
            columns={"k": np.array([3, 1, 3, 2]), "s": np.array(["x", "y", "x", "z"])},
        )

    def test_built_once_per_key_tuple(self):
        table = self._table()
        index = table.key_index(("k",))
        assert table.key_index(("k",)) is index
        assert table.key_index(("k", "s")) is not index
        assert index.order.tolist() == [1, 3, 0, 2]  # rows in key order

    def test_replacing_a_column_array_rebuilds_it(self):
        table = self._table()
        index = table.key_index(("k", "s"))
        table.columns["s"] = np.array(["y", "y", "x", "z"])
        rebuilt = table.key_index(("k", "s"))
        assert rebuilt is not index
        assert table.key_index(("k", "s")) is rebuilt
        assert table.key_index(("k",)) is table.key_index(("k",))

    def test_load_table_drops_it(self):
        from repro.minidb import Database

        table = self._table()
        Database().load_table(table)
        index = table.key_index(("k",))
        table.columns["k"][0] = 7  # changed in place: same array object
        Database().load_table(table)
        rebuilt = table.key_index(("k",))
        assert rebuilt is not index
        # one 3 is left, and the 7 the old index never saw is found
        assert rebuilt.runs([np.array([7, 3])])[1].tolist() == [1, 1]
