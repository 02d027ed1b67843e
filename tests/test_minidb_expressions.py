"""Unit tests for vectorized expression evaluation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.minidb.expressions import Frame, evaluate, rewrite_aggregates
from repro.minidb.storage import date_to_days
from repro.sql import ast
from repro.sql.parser import parse_select


def where_of(sql_condition: str):
    return parse_select(f"select 1 from t where {sql_condition}").where


def item_of(sql_expr: str):
    return parse_select(f"select {sql_expr} from t").items[0].expr


@pytest.fixture()
def frame():
    return Frame(
        columns={
            "t.a": np.array([1.0, 2.0, 3.0, 4.0]),
            "t.b": np.array([10.0, 20.0, 30.0, 40.0]),
            "t.s": np.array(["foo", "bar", "foobar", "baz"]),
            "t.d": np.array(
                [
                    date_to_days("1994-01-01"),
                    date_to_days("1994-06-15"),
                    date_to_days("1995-01-01"),
                    date_to_days("1996-01-01"),
                ]
            ),
        },
        dtypes={"t.a": "float", "t.b": "float", "t.s": "str", "t.d": "date"},
        n_rows=4,
    )


class TestArithmetic:
    def test_basic_ops(self, frame):
        assert evaluate(item_of("a + b"), frame).tolist() == [11, 22, 33, 44]
        assert evaluate(item_of("b / a"), frame).tolist() == [10, 10, 10, 10]
        assert evaluate(item_of("a * (1 - 0.5)"), frame).tolist() == [0.5, 1, 1.5, 2]

    def test_division_by_zero_is_nan(self):
        f = Frame(columns={"t.x": np.array([1.0])}, dtypes={"t.x": "float"}, n_rows=1)
        out = evaluate(item_of("x / 0"), f)
        assert np.isnan(out[0])

    def test_unary_minus(self, frame):
        assert evaluate(item_of("-a"), frame).tolist() == [-1, -2, -3, -4]


class TestComparisons:
    def test_numeric(self, frame):
        assert evaluate(where_of("a >= 3"), frame).tolist() == [False, False, True, True]

    def test_string_equality(self, frame):
        assert evaluate(where_of("s = 'bar'"), frame).tolist() == [False, True, False, False]

    def test_date_literal_against_date_column(self, frame):
        mask = evaluate(where_of("d < date '1995-01-01'"), frame)
        assert mask.tolist() == [True, True, False, False]

    def test_iso_string_against_date_column(self, frame):
        mask = evaluate(where_of("d >= '1994-06-15'"), frame)
        assert mask.tolist() == [False, True, True, True]

    def test_between(self, frame):
        mask = evaluate(where_of("a between 2 and 3"), frame)
        assert mask.tolist() == [False, True, True, False]

    def test_in_list(self, frame):
        mask = evaluate(where_of("a in (1, 4)"), frame)
        assert mask.tolist() == [True, False, False, True]

    def test_not_in_list(self, frame):
        mask = evaluate(where_of("a not in (1, 4)"), frame)
        assert mask.tolist() == [False, True, True, False]


class TestLike:
    def test_prefix(self, frame):
        assert evaluate(where_of("s like 'foo%'"), frame).tolist() == [
            True, False, True, False,
        ]

    def test_contains(self, frame):
        assert evaluate(where_of("s like '%oba%'"), frame).tolist() == [
            False, False, True, False,
        ]

    def test_underscore(self, frame):
        assert evaluate(where_of("s like 'ba_'"), frame).tolist() == [
            False, True, False, True,
        ]

    def test_regex_metachars_escaped(self):
        f = Frame(
            columns={"t.s": np.array(["a.b", "axb"])},
            dtypes={"t.s": "str"},
            n_rows=2,
        )
        assert evaluate(where_of("s like 'a.b'"), f).tolist() == [True, False]


    def test_tail_may_not_overlap_head(self):
        f = Frame(columns={"t.s": np.array(["ab", "abb", "abab"])}, n_rows=3)
        assert evaluate(where_of("s like 'ab%b'"), f).tolist() == [
            False, True, True,
        ]

    def test_trailing_newline_is_part_of_the_value(self):
        # `$` in the former per-row regex also matched before a final "\n"
        f = Frame(columns={"t.s": np.array(["ab\n", "ab"])}, n_rows=2)
        like = ast.Like(ast.Column("s"), ast.Literal("ab", "string"))
        assert evaluate(like, f).tolist() == [False, True]
        like = ast.Like(ast.Column("s"), ast.Literal("a_", "string"))
        assert evaluate(like, f).tolist() == [False, True]

    def test_non_string_input_is_cast(self):
        f = Frame(columns={"t.n": np.array([10, 21, 110])}, n_rows=3)
        assert evaluate(where_of("n like '1%0'"), f).tolist() == [
            True, False, True,
        ]

    def test_empty_frame(self):
        f = Frame(columns={"t.s": np.array([], dtype=np.str_)}, n_rows=0)
        for pattern in ("a", "a%", "%a%b", "a_"):
            like = ast.Like(ast.Column("s"), ast.Literal(pattern, "string"))
            assert evaluate(like, f).tolist() == []

    # regex metacharacters, a newline, and nothing else to collide on
    _TEXT = st.text(alphabet="ab.*\\\n", max_size=4)

    @settings(max_examples=500, deadline=None)
    @given(
        pieces=st.lists(_TEXT, min_size=1, max_size=4),
        wildcard=st.sampled_from(["%", "%", "%%", "_"]),
        values=st.lists(_TEXT.map(lambda t: t * 2) | _TEXT, max_size=8),
        negated=st.booleans(),
    )
    def test_matches_the_per_row_regex(self, pieces, wildcard, values, negated):
        """Empty pieces give leading/trailing/doubled ``%``; one piece is
        plain equality; ``_`` keeps the regex path honest."""
        pattern = wildcard.join(pieces)
        regex = re.compile(
            "".join(
                ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                for ch in pattern
            ),
            re.DOTALL,
        )
        f = Frame(
            columns={"t.s": np.array(values, dtype=np.str_)}, n_rows=len(values)
        )
        like = ast.Like(ast.Column("s"), ast.Literal(pattern, "string"), negated)
        expected = [(regex.fullmatch(v) is not None) != negated for v in values]
        assert evaluate(like, f).tolist() == expected


class TestLogic:
    def test_and_or_not(self, frame):
        mask = evaluate(where_of("a > 1 and not (b >= 40 or s = 'bar')"), frame)
        assert mask.tolist() == [False, False, True, False]


class TestCaseAndFunctions:
    def test_case_when(self, frame):
        out = evaluate(
            item_of("case when a > 2 then 1 else 0 end"), frame
        )
        assert out.tolist() == [0, 0, 1, 1]

    def test_case_first_match_wins(self, frame):
        out = evaluate(
            item_of("case when a > 1 then 10 when a > 2 then 20 else 0 end"),
            frame,
        )
        assert out.tolist() == [0, 10, 10, 10]

    def test_extract_year(self, frame):
        out = evaluate(item_of("extract(year from d)"), frame)
        assert out.tolist() == [1994, 1994, 1995, 1996]

    def test_substring(self, frame):
        out = evaluate(item_of("substring(s, 1, 2)"), frame)
        assert out.tolist() == ["fo", "ba", "fo", "ba"]

    def test_aggregate_outside_aggregate_node_raises(self, frame):
        with pytest.raises(ExecutionError):
            evaluate(item_of("sum(a)"), frame)


class TestResolution:
    def test_unqualified_resolution(self, frame):
        mask = evaluate(where_of("a = 1"), frame)
        assert mask.tolist() == [True, False, False, False]

    def test_unknown_column_raises(self, frame):
        with pytest.raises(ExecutionError):
            evaluate(where_of("ghost = 1"), frame)

    def test_ambiguous_column_raises(self):
        f = Frame(
            columns={"x.a": np.zeros(1), "y.a": np.zeros(1)},
            dtypes={},
            n_rows=1,
        )
        with pytest.raises(ExecutionError):
            evaluate(where_of("a = 0"), f)


class TestRewriteAggregates:
    def test_rewrites_to_synthetic_columns(self):
        stmt = parse_select("select sum(a) / count(*) from t")
        expr = stmt.items[0].expr
        from repro.minidb.expressions import collect_aggregates

        calls = []
        collect_aggregates(expr, calls)
        mapping = {c: f"__agg{i}" for i, c in enumerate(calls)}
        rewritten = rewrite_aggregates(expr, mapping)
        f = Frame(
            columns={"__agg0": np.array([10.0]), "__agg1": np.array([5.0])},
            dtypes={},
            n_rows=1,
        )
        assert evaluate(rewritten, f).tolist() == [2.0]


class TestCodedStrings:
    """A text column held as codes into its sorted dictionary answers
    every predicate exactly as the same column held as text."""

    # the empty string, a trailing newline, non-ASCII, a prefix chain,
    # and LIKE's metacharacters as data
    _WORDS = ["", "a", "ab", "abb", "abc", "b", "ab\n", "é", "日本", "a%", "a_b"]
    _WORD = st.sampled_from(_WORDS) | st.text("ab\né", max_size=3)
    _VALUES = st.lists(_WORD, max_size=8)
    # literals, present in the data or not
    _LITERALS = st.sampled_from(["aa", "abbb", "c", "\n", "ä"]) | _WORD

    @staticmethod
    def _frames(columns: dict[str, list[str]], shared: bool):
        """The same columns as text, and as codes: one dictionary for all
        of them when ``shared``, else one each."""
        text = {f"t.{k}": np.array(v, dtype=np.str_) for k, v in columns.items()}
        n = len(next(iter(text.values())))
        union = np.unique(np.concatenate(list(text.values())))
        codes, dicts = {}, {}
        for key, values in text.items():
            dictionary = union if shared else np.unique(values)
            codes[key] = np.searchsorted(dictionary, values).astype(np.int32)
            dicts[key] = dictionary
        dtypes = {key: "str" for key in text}
        return (
            Frame(columns=text, dtypes=dtypes, n_rows=n),
            Frame(columns=codes, dtypes=dict(dtypes), n_rows=n, dicts=dicts),
        )

    def _agree(self, expr, columns, shared=True):
        text, coded = self._frames(columns, shared)
        assert evaluate(expr, coded).tolist() == evaluate(expr, text).tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        values=_VALUES,
        literal=_LITERALS,
        op=st.sampled_from(["=", "<>", "<", ">", "<=", ">="]),
        literal_left=st.booleans(),
    )
    def test_comparison_with_a_literal(self, values, literal, op, literal_left):
        sides = [ast.Column("s"), ast.Literal(literal, "string")]
        if literal_left:
            sides.reverse()
        self._agree(ast.BinaryOp(op, *sides), {"s": values})

    @settings(max_examples=200, deadline=None)
    @given(
        values=_VALUES,
        items=st.lists(_LITERALS, min_size=1, max_size=4),
        negated=st.booleans(),
    )
    def test_in_list(self, values, items, negated):
        expr = ast.InList(
            ast.Column("s"), tuple(ast.Literal(i, "string") for i in items), negated
        )
        self._agree(expr, {"s": values})

    def test_in_numbers_reads_the_rows(self):
        # text IN numbers: np.isin answers by input size (loop vs sort),
        # so it must see the 80 rows, not the 3-entry dictionary
        items = tuple(ast.Literal(i, "number") for i in range(1, 13))
        expr = ast.InList(ast.Column("s"), items)
        self._agree(expr, {"s": ["1", "b", "1", "c"] * 20})

    @settings(max_examples=300, deadline=None)
    @given(
        values=_VALUES,
        pieces=st.lists(
            st.sampled_from(["", "a", "b", "ab", "\n", "é"]), min_size=1, max_size=3
        ),
        wildcard=st.sampled_from(["%", "_", "%_"]),
        negated=st.booleans(),
    )
    def test_like(self, values, pieces, wildcard, negated):
        pattern = ast.Literal(wildcard.join(pieces), "string")
        self._agree(ast.Like(ast.Column("s"), pattern, negated), {"s": values})

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(_LITERALS, _LITERALS), max_size=8),
        op=st.sampled_from(["=", "<>", "<", ">", "<=", ">="]),
        shared=st.booleans(),
    )
    def test_column_against_column(self, rows, op, shared):
        """Shared dictionary: codes compare directly; distinct: decoded."""
        left = [a for a, _ in rows]
        right = [b for _, b in rows]
        expr = ast.BinaryOp(op, ast.Column("s"), ast.Column("r"))
        self._agree(expr, {"s": left, "r": right}, shared)

    def test_column_read_decodes(self):
        text, coded = self._frames({"s": ["b", "a", "b", ""]}, shared=False)
        assert coded.columns["t.s"].tolist() == [2, 1, 2, 0]
        assert evaluate(ast.Column("s"), coded).tolist() == ["b", "a", "b", ""]
        upper = ast.FunctionCall("UPPER", (ast.Column("s"),))
        assert evaluate(upper, coded).tolist() == ["B", "A", "B", ""]
        assert coded.take(np.array([3, 0])).decoded("t.s").tolist() == ["", "b"]
