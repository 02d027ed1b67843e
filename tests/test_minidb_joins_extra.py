"""Extra join-path coverage: multi-key joins, semi-join residuals,
cross joins, self-joins, and INLJ/hash equivalence under every path."""

import numpy as np
import pytest

from repro.minidb import Database, Index, IndexConfig
from repro.minidb.storage import Table


class TestMultiKeyJoins:
    def test_two_column_equi_join_q9_style(self, tpch_db):
        """partsupp joins lineitem on BOTH ps_partkey and ps_suppkey."""
        result = tpch_db.execute(
            "select count(*) from lineitem, partsupp "
            "where ps_partkey = l_partkey and ps_suppkey = l_suppkey"
        )
        li = tpch_db.table("lineitem").columns
        ps = tpch_db.table("partsupp").columns
        pairs = set(zip(ps["ps_partkey"].tolist(), ps["ps_suppkey"].tolist()))
        expected = sum(
            1
            for pk, sk in zip(li["l_partkey"].tolist(), li["l_suppkey"].tolist())
            if (pk, sk) in pairs
        )
        assert result.rows[0][0] == expected

    def test_self_join_with_alias(self, tpch_db):
        result = tpch_db.execute(
            "select count(*) from nation n1, nation n2 "
            "where n1.n_regionkey = n2.n_regionkey and n1.n_nationkey < n2.n_nationkey"
        )
        nat = tpch_db.table("nation").columns
        expected = sum(
            1
            for i in range(25)
            for j in range(25)
            if nat["n_regionkey"][i] == nat["n_regionkey"][j]
            and nat["n_nationkey"][i] < nat["n_nationkey"][j]
        )
        assert result.rows[0][0] == expected


class TestSemiJoinResiduals:
    def test_exists_with_inequality_residual_q21_style(self, tpch_db):
        """EXISTS correlated on orderkey with a <> residual on suppkey."""
        result = tpch_db.execute(
            "select count(*) from lineitem l1 where exists ("
            "select * from lineitem l2 where l2.l_orderkey = l1.l_orderkey "
            "and l2.l_suppkey <> l1.l_suppkey)"
        )
        li = tpch_db.table("lineitem").columns
        keys = li["l_orderkey"].tolist()
        supps = li["l_suppkey"].tolist()
        by_order: dict[int, set[int]] = {}
        for k, s in zip(keys, supps):
            by_order.setdefault(k, set()).add(s)
        expected = sum(
            1
            for k, s in zip(keys, supps)
            if len(by_order[k] - {s}) > 0
        )
        assert result.rows[0][0] == expected

    def test_exists_and_not_exists_partition(self, tpch_db):
        base = "select count(*) from customer where {} (select * from orders where o_custkey = c_custkey and o_totalprice > 300000)"
        total = tpch_db.execute("select count(*) from customer").rows[0][0]
        has = tpch_db.execute(base.format("exists")).rows[0][0]
        hasnt = tpch_db.execute(base.format("not exists")).rows[0][0]
        assert has + hasnt == total


@pytest.fixture(scope="module")
def keyed_db():
    """Two small tables joinable on an integer key (dense codes, no sort)
    or on its string twin (the ``np.unique`` route)."""
    a_id = np.array([1, 2, 3, 4, 5, 6])
    b_id = np.array([1, 1, 2, 4, 4, 4, 9])
    db = Database()
    db.load_table(
        Table(
            "a",
            {"id": "int", "name": "str", "v": "float"},
            {
                "id": a_id,
                "name": np.array([f"n{i}" for i in a_id]),
                "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            },
        )
    )
    db.load_table(
        Table(
            "b",
            {"oid": "int", "oname": "str", "w": "float"},
            {
                "oid": b_id,
                "oname": np.array([f"n{i}" for i in b_id]),
                "w": np.array([0.5, 3.0, 9.0, 1.0, 5.0, 2.0, 7.0]),
            },
        )
    )
    return db


@pytest.mark.parametrize("key", ["id = oid", "name = oname"], ids=["int", "str"])
class TestResidualsOnBothKeyRoutes:
    """``a.v`` is 1..6 by id; b holds (1: .5, 3), (2: 9), (4: 1, 5, 2), (9: 7)."""

    def test_left_join_with_residual(self, keyed_db, key):
        result = keyed_db.execute(
            f"select id, count(oid) as n, sum(w) as total from a "
            f"left outer join b on {key} and w > v group by id order by id"
        )
        assert [(i, n) for i, n, _ in result.rows] == [
            (1, 1), (2, 1), (3, 0), (4, 1), (5, 0), (6, 0)
        ]
        assert [t for _, n, t in result.rows if n] == [3.0, 9.0, 5.0]

    def test_not_exists_with_residual_q21_shape(self, keyed_db, key):
        sql = "select id from a where {} (select * from b where " + key + " and w > v) order by id"
        assert keyed_db.execute(sql.format("not exists")).rows == [(3,), (5,), (6,)]
        assert keyed_db.execute(sql.format("exists")).rows == [(1,), (2,), (4,)]

    def test_agg_compare_with_no_inner_rows(self, keyed_db, key):
        sql = "select id from a where v < (select max(w) from b where " + key + "{}) order by id"
        assert keyed_db.execute(sql.format(" and w > 100")).rows == []
        assert keyed_db.execute(sql.format("")).rows == [(1,), (2,), (4,)]


class TestLeftJoinNulls:
    """An unmatched LEFT JOIN row reads NULL (None) in every right-side
    column, text or number; the text columns travel as dictionary codes
    up to the null tail."""

    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        db.load_table(
            Table(
                "t",
                {"id": "int", "s": "str"},
                {"id": np.array([0, 1, 2]), "s": np.array(["a", "b", "c"])},
            )
        )
        db.load_table(
            Table(
                "w",
                {"name": "str", "v": "int"},
                {"name": np.array(["b", "c", "c"]), "v": np.array([1, 9, 2])},
            )
        )
        return db

    def test_unmatched_row_reads_none(self, db):
        rows = db.execute(
            "select t.id, w.name, w.v from t left join w "
            "on t.s = w.name and w.v < 5"
        ).rows
        assert rows == [(1, "b", 1), (2, "c", 2), (0, None, None)]

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("d.name > 'b'", [(2, "c")]),
            ("d.name = 'b' or d.name is null", [(1, "b"), (0, None)]),
            ("d.name in ('a', 'c')", [(2, "c")]),
            ("d.name like 'b%'", [(1, "b")]),
        ],
    )
    def test_predicate_above_the_null_tail(self, db, where, expected):
        # the derived table's filter runs over the joined rows, tail included
        sql = (
            "select d.id, d.name from (select t.id, w.name from t left join w "
            "on t.s = w.name and w.v < 5) as d where " + where
        )
        assert db.execute(sql).rows == expected

    def test_no_tail_keeps_the_codes(self, db):
        # every row matches: no tail, so the filter compares codes
        sql = (
            "select d.id, d.name from (select t.id, w.name from t left join w "
            "on t.s = w.name where t.id > 0) as d where d.name >= 'c'"
        )
        assert db.execute(sql).rows == [(2, "c"), (2, "c")]


class TestOrderByIsExact:
    @pytest.mark.parametrize("stored, direction", [
        ([2**53 + 1, 2**53], ""),
        ([2**53, 2**53 + 1], " desc"),
    ])
    def test_int64_above_float_precision(self, stored, direction):
        # float64 cannot tell these two apart, and a tie keeps the stored
        # (here: wrong) order; ranks must not go through it
        db = Database()
        db.load_table(Table("t", {"k": "int"}, {"k": np.array(stored)}))
        rows = db.execute(f"select k from t order by k{direction}").rows
        assert [k for (k,) in rows] == stored[::-1]


class TestCrossJoin:
    def test_cross_join_cardinality(self, tpch_db):
        result = tpch_db.execute(
            "select count(*) from region, nation"
        )
        assert result.rows[0][0] == 5 * 25


class TestJoinAlgorithmEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            IndexConfig(),
            IndexConfig([Index("lineitem", ("l_orderkey",))]),
            IndexConfig([Index("lineitem", ("l_orderkey", "l_extendedprice",
                                            "l_discount", "l_shipdate"))]),
            IndexConfig([Index("orders", ("o_orderkey",)),
                         Index("lineitem", ("l_orderkey",))]),
        ],
        ids=["none", "narrow", "covering", "both-sides"],
    )
    def test_q3_style_join_same_results(self, tpch_db, config):
        sql = (
            "select o_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev "
            "from orders, lineitem "
            "where o_orderkey = l_orderkey and o_orderdate < date '1994-01-01' "
            "and l_shipdate > date '1994-01-01' "
            "group by o_orderkey order by rev desc limit 7"
        )
        baseline = tpch_db.execute(sql, IndexConfig())
        other = tpch_db.execute(sql, config)
        assert [r[0] for r in baseline.rows] == [r[0] for r in other.rows]
        for a, b in zip(baseline.rows, other.rows):
            assert a[1] == pytest.approx(b[1])
