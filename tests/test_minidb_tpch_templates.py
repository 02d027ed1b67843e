"""Integration: all 22 TPC-H templates plan and execute on the engine."""

import pytest

from repro.minidb import Index, IndexConfig
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


@pytest.mark.parametrize("template_id", TPCH_TEMPLATE_IDS)
def test_dense_kernels_change_nothing_observable(tpch_db, monkeypatch, template_id):
    """Every template, three seeds, prepared and unprepared: the shipped
    dense-code kernels against the sort-based ones they replaced."""
    import minidb_sort_oracle as oracle
    from repro.minidb import executor

    def observe():
        seen = []
        for seed in (3, 11, 29):
            sql = tpch_query(template_id, seed=seed)
            for run in (tpch_db.execute, tpch_db.execute_prepared):
                result = run(sql)
                seen.append(
                    (result.rows, result.actual_cost, result.stats.rows_scanned)
                )
        return seen

    shipped = observe()
    monkeypatch.setattr(executor, "_composite_codes", oracle.composite_codes)
    monkeypatch.setattr(executor, "_equi_match", oracle.equi_match)
    monkeypatch.setattr(executor, "_group_codes", oracle.group_codes)
    assert observe() == shipped
