"""MiniDB against stdlib ``sqlite3`` on the string half of SQL.

An independent oracle: the same two tables are loaded into MiniDB and
into an in-memory sqlite database, and every query must return the same
rows — as a multiset, or in order where the query orders totally.
``PRAGMA case_sensitive_like=ON`` makes sqlite's LIKE compare exactly,
as MiniDB's does; sqlite's BINARY collation orders text by UTF-8 bytes,
which is code-point order, as numpy and Python order it.

The values are chosen to break string kernels: the empty string, a
trailing newline, non-ASCII text, LIKE metacharacters inside the data,
and the prefix chain ``ab`` / ``abb`` / ``abc``.

Left out, with the reason:

* ``ORDER BY`` a column that is not selected — a planner restriction:
  MiniDB sorts the projected frame, so the key must be an output column.
* Grouping by, or comparing with ``<``/``<>``/``NOT LIKE``, a right-side
  column of a LEFT JOIN, in ``ON`` or in ``WHERE`` — MiniDB has no
  three-valued logic: an unmatched row's text is ``''`` (and a number
  0) inside the engine and NULL only in the result rows. ``IS [NOT]
  NULL`` in ``WHERE`` is covered: it reads the join's output.
* ``UPPER``/``LOWER`` — sqlite folds ASCII only.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import numpy as np
import pytest

from repro.minidb import Database
from repro.minidb.storage import Table

_POOL = [
    "", "a", "ab", "abb", "abc", "b", "ba", "ab\n", "a b", "A",
    "é", "éa", "日本", "zz%", "x_y",
]


def _tables() -> list[Table]:
    rng = np.random.default_rng(2019)
    t = Table(
        "t",
        {"id": "int", "s": "str", "g": "str", "n": "int"},
        {
            "id": np.arange(60),
            "s": np.array(rng.permutation(_POOL * 4).tolist()),
            "g": np.array(rng.choice(["", "g1", "g2", "é"], 60).tolist()),
            "n": rng.integers(0, 10, 60),
        },
    )
    u = Table(
        "u",
        {"k": "str", "tag": "str", "m": "int"},
        {
            "k": np.array(rng.choice(_POOL + ["abcd", "q"], 20).tolist()),
            "tag": np.array(rng.choice(["red", "blue", "日"], 20).tolist()),
            "m": np.arange(20),
        },
    )
    return [t, u]


@pytest.fixture(scope="module")
def engines():
    tables = _tables()
    db = Database()
    lite = sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like=ON")
    for table in tables:
        db.load_table(table)
        names = list(table.dtypes)
        kinds = {"int": "INTEGER", "str": "TEXT"}
        lite.execute(
            f"CREATE TABLE {table.name} "
            f"({', '.join(f'{c} {kinds[table.dtypes[c]]}' for c in names)})"
        )
        rows = zip(*(table.columns[c].tolist() for c in names))
        lite.executemany(
            f"INSERT INTO {table.name} VALUES ({', '.join('?' * len(names))})", rows
        )
    yield db, lite
    lite.close()


# rows compared as a multiset
UNORDERED = [
    # comparisons with a literal, either side, present or absent
    "select id from t where s = 'ab'",
    "select id from t where s <> 'ab'",
    "select id from t where s < 'abb'",
    "select id from t where s <= 'abb'",
    "select id from t where s > 'ab'",
    "select id from t where s >= 'b'",
    "select id from t where s = 'zzz'",
    "select id from t where s > 'abbb'",
    "select id from t where s <= ''",
    "select id from t where s = 'ab\n'",
    "select id from t where s < 'é'",
    "select id from t where 'abc' > s",
    "select id from t where 'abb' <= s and s < 'b'",
    # two columns: distinct dictionaries, and one shared through a self-join
    "select id from t where s = g",
    "select id from t where s < g",
    "select a.id as x, b.id as y from t a, t b where a.s = b.s and a.g < b.g",
    "select a.id as x, b.id as y from t a, t b where a.n = b.n and a.s >= b.s",
    # LIKE
    "select id from t where s like 'ab%'",
    "select id from t where s like '%b'",
    "select id from t where s like 'a_'",
    "select id from t where s like '%\n'",
    "select id from t where s like '%é%'",
    "select id from t where s like ''",
    "select id from t where s like 'x_y'",
    "select id from t where s like 'zz%'",
    "select id from t where s not like 'a%'",
    # IN
    "select id from t where s in ('ab', 'zzz', '')",
    "select id from t where s not in ('ab', 'b', 'é')",
    "select id from t where g in ('g1') and s in ('a', 'abc')",
    # grouping, COUNT(DISTINCT), DISTINCT
    "select s, count(*), sum(n) from t group by s",
    "select g, s, count(*) from t group by g, s",
    "select count(distinct s) from t",
    "select g, count(distinct s) from t group by g",
    "select distinct s from t",
    "select distinct g, s from t",
    "select s, count(*) as c from t where n > 3 group by s having count(*) > 1",
    # string-keyed joins
    "select t.id, u.tag from t, u where t.s = u.k",
    "select u.tag, count(*) from t, u where t.s = u.k and t.g = 'g1' group by u.tag",
    # subqueries
    "select id from t where s in (select k from u where m > 5)",
    "select id from t where s not in (select k from u where m < 12)",
    "select id from t where exists (select * from u where u.k = t.s and u.m > 4)",
    "select id from t where not exists (select * from u where u.k = t.s)",
    "select id from t where s >= (select k from u where m = 7)",
    "select id from t where n > (select avg(m) from u where u.k = t.s)",
    # LEFT JOIN: unmatched right-side columns are NULL
    "select t.id, u.tag from t left join u on t.s = u.k",
    "select t.id, u.k, u.m from t left join u on t.s = u.k and u.m < 10",
    "select t.id, count(u.k) from t left join u on t.s = u.k group by t.id",
    # ... and a WHERE on the right side filters the join's output
    "select count(*) from t left join u on t.s = u.k where u.k is null",
    "select count(*) from t left join u on t.s = u.k where u.k is not null",
    # SUBSTRING and ||
    "select id, substring(s, 1, 2) from t",
    "select id from t where substring(s, 2, 1) = 'b'",
    "select substring(s, 1, 1), count(*) from t group by substring(s, 1, 1)",
    "select id, s || g from t where g <> ''",
]

# rows compared in order: every ORDER BY here is total
ORDERED = [
    "select id, s from t order by s desc, id",
    "select id, s, g from t order by g, s desc, id",
    "select s, count(*) as c from t group by s order by s desc",
    "select distinct g from t order by g desc",
    "select id, s from t where s like 'a%' order by s, id limit 5",
    "select t.id, u.tag from t, u where t.s = u.k order by u.tag desc, t.id",
]


def _normal(rows):
    """Numbers compared as floats: MiniDB's aggregates are floats."""
    return [
        tuple(float(v) if isinstance(v, (int, float)) else v for v in row)
        for row in rows
    ]


@pytest.mark.parametrize("sql", UNORDERED)
def test_same_rows_as_sqlite(engines, sql):
    db, lite = engines
    want = _normal(lite.execute(sql).fetchall())
    got = _normal(db.execute(sql).rows)
    assert Counter(got) == Counter(want)


@pytest.mark.parametrize("sql", ORDERED)
def test_same_order_as_sqlite(engines, sql):
    db, lite = engines
    want = _normal(lite.execute(sql).fetchall())
    assert _normal(db.execute(sql).rows) == want


def test_the_data_is_not_degenerate(engines):
    db, lite = engines
    # every kind of awkward value is present, and the joins match something
    stored = set(db.table("t").columns["s"].tolist())
    assert {"", "ab\n", "é", "ab", "abb", "abc"} <= stored
    assert lite.execute("select count(*) from t, u where t.s = u.k").fetchone()[0] > 0
    unmatched = "select count(*) from t left join u on t.s = u.k where u.k is null"
    assert lite.execute(unmatched).fetchone()[0] > 0
