"""Integration: all 22 TPC-H templates plan and execute on the engine."""

import numpy as np
import pytest

from repro.minidb import Catalog, Database, Index, IndexConfig
from repro.workloads.tpch import TPCH_TEMPLATE_IDS, tpch_query


@pytest.mark.parametrize("template_id", TPCH_TEMPLATE_IDS)
def test_template_executes(tpch_db, template_id):
    sql = tpch_query(template_id, seed=3)
    result = tpch_db.execute(sql)
    assert result.actual_cost > 0
    assert result.n_rows >= 0


@pytest.mark.parametrize("template_id", [1, 3, 4, 6, 12, 14, 18])
def test_template_results_index_invariant(tpch_db, template_id):
    """Indexes change costs, never results."""
    sql = tpch_query(template_id, seed=5)
    config = IndexConfig(
        [
            Index("lineitem", ("l_orderkey",)),
            Index("lineitem", ("l_shipdate", "l_discount", "l_extendedprice",
                               "l_orderkey", "l_quantity")),
            Index("orders", ("o_orderkey",)),
            Index("orders", ("o_orderdate", "o_custkey", "o_orderkey")),
        ]
    )
    plain = tpch_db.execute(sql)
    indexed = tpch_db.execute(sql, config)
    assert plain.columns == indexed.columns
    assert plain.rows == indexed.rows


def test_q1_aggregate_identity(tpch_db):
    """Q1's avg columns must equal sum/count per group."""
    sql = tpch_query(1, seed=9)
    result = tpch_db.execute(sql)
    cols = {c: i for i, c in enumerate(result.columns)}
    for row in result.rows:
        assert row[cols["avg_qty"]] == pytest.approx(
            row[cols["sum_qty"]] / row[cols["count_order"]]
        )


def test_q18_limit_respected(tpch_db):
    result = tpch_db.execute(tpch_query(18, seed=2))
    assert result.n_rows <= 100


def test_workload_is_template_major():
    from repro.workloads import generate_tpch_workload
    from repro.sql.normalizer import templatize

    workload = generate_tpch_workload(instances_per_template=3, seed=0)
    assert len(workload) == 66
    # instances of the same template are contiguous
    templates = [templatize(q) for q in workload]
    for t in range(22):
        block = templates[t * 3 : (t + 1) * 3]
        assert len(set(block)) == 1


def _fresh(db: Database) -> Database:
    """A new ``Database`` over ``db``'s tables: its own plan cache, so no
    result kept by one side of a differential is served to the other."""
    copy = Database(
        catalog=Catalog(db.catalog.virtual_row_multiplier), cost_model=db.cost_model
    )
    for table in db.tables.values():
        copy.load_table(table)
    return copy


@pytest.mark.parametrize("template_id", TPCH_TEMPLATE_IDS)
def test_dense_kernels_change_nothing_observable(tpch_db, monkeypatch, template_id):
    """Every template, three seeds, prepared and unprepared: the shipped
    dense-code kernels against the sort-based ones they replaced.
    Compared as ``repr``: value types count, and a NaN equals itself."""
    import minidb_sort_oracle as oracle
    from repro.minidb import executor

    def observe():
        db = _fresh(tpch_db)
        seen = []
        for seed in (3, 11, 29):
            sql = tpch_query(template_id, seed=seed)
            for run in (db.execute, db.execute_prepared):
                result = run(sql)
                seen.append(
                    repr((result.rows, result.actual_cost, result.stats.rows_scanned))
                )
        return seen

    shipped = observe()
    monkeypatch.setattr(executor, "_join_index", _sort_join_index)
    monkeypatch.setattr(executor, "_group_codes", oracle.group_codes)
    assert observe() == shipped


class _SortIndex:
    """The sort-based stand-in for a ``KeyIndex``: the build's codes in
    stable ``argsort`` order, and two ``searchsorted`` per probe."""

    def __init__(self, build_codes):
        self.build_codes = build_codes
        self.order = np.argsort(build_codes, kind="stable")

    def runs(self, probe):
        ordered = self.build_codes[self.order]
        starts = np.searchsorted(ordered, probe[0], side="left")
        return starts, np.searchsorted(ordered, probe[0], side="right") - starts

    def pairs(self, probe):
        import minidb_sort_oracle as oracle

        return oracle.equi_match(probe[0], self.build_codes)


def _sort_join_index(probe, probe_keys, build, build_keys, scan=None):
    """``executor._join_index`` as the sort-based oracle: every key by
    value, jointly ranked (``np.unique``) over both sides; no table
    index, no dictionary codes."""
    import minidb_sort_oracle as oracle

    probe_codes, build_codes = oracle.composite_codes(
        [probe.decoded(k) for k in probe_keys], [build.decoded(k) for k in build_keys]
    )
    return _SortIndex(build_codes), [probe_codes]


def _text_scan_frame(table, binding, columns):
    """A scan as it was before dictionary codes: every column as stored."""
    from repro.minidb.expressions import Frame

    frame = Frame(n_rows=table.n_rows)
    for col in columns:
        frame.columns[f"{binding}.{col}"] = table.column(col)
        frame.dtypes[f"{binding}.{col}"] = table.dtypes[col]
    return frame


def _observed(db, queries):
    """rows, actual_cost and rows_scanned of every query, prepared and
    unprepared, on a fresh copy of ``db``; a query that fails contributes
    its exception instead. Compared as ``repr``: a NaN in a row must
    equal itself."""
    db = _fresh(db)
    seen = []
    for sql in queries:
        for run in (db.execute, db.execute_prepared):
            try:
                result = run(sql)
            except Exception as exc:  # noqa: BLE001 - failures must match too
                seen.append(("raised", type(exc).__name__, str(exc)))
            else:
                seen.append(
                    repr((result.rows, result.actual_cost, result.stats.rows_scanned))
                )
    return seen


@pytest.mark.parametrize("template_id", TPCH_TEMPLATE_IDS)
def test_coded_strings_change_nothing_observable(tpch_db, monkeypatch, template_id):
    """Every template, three seeds, prepared and unprepared: text columns
    as dictionary codes against the same plans over plain text."""
    from repro.minidb import executor

    queries = [tpch_query(template_id, seed=seed) for seed in (3, 11, 29)]
    coded = _observed(tpch_db, queries)
    monkeypatch.setattr(executor, "_scan_frame", _text_scan_frame)
    assert _observed(tpch_db, queries) == coded


def test_coded_strings_change_nothing_observable_on_snowsim(
    snowsim_records, monkeypatch
):
    """A SnowSim stream on 6-row tables, failures (text compared with a
    number) included with their exception type and message."""
    from repro.minidb import executor, materialize_log_tables

    queries = [r.query for r in snowsim_records]
    db = materialize_log_tables(queries, rows_per_table=6)
    table = next(t for t in db.tables.values() if "str" in t.dtypes.values())
    text = [c for c, dtype in table.dtypes.items() if dtype == "str"]
    assert executor._scan_frame(table, "x", text).dicts  # the shipped scan codes
    coded = _observed(db, queries)
    assert any(seen[0] == "raised" for seen in coded)
    monkeypatch.setattr(executor, "_scan_frame", _text_scan_frame)
    assert _observed(db, queries) == coded
