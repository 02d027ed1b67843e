"""Unit tests for the SELECT parser, its number rules, and its token
front (the scanner) against the character lexer oracle."""

import ast as pyast
import sqlite3
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings

import sql_lexer_oracle as oracle
from test_property_based import simple_select

from repro.errors import LexerError, ParseError
from repro.sql import ast, parser
from repro.sql.lexer import tokenize
from repro.sql.params import build_fast_recipe, extract_parameters
from repro.sql.parser import parse_select
from repro.sql.tokens import TokenType
from repro.workloads import (
    SnowSimConfig,
    generate_snowsim_workload,
    generate_tpch_workload,
)


class TestProjection:
    def test_simple_items_and_aliases(self):
        stmt = parse_select("select a, b as bee, c cee from t")
        assert [i.output_name for i in stmt.items] == ["a", "bee", "cee"]

    def test_star(self):
        stmt = parse_select("select * from t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_qualified_star(self):
        stmt = parse_select("select t.* from t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[0].expr.table == "t"

    def test_distinct(self):
        assert parse_select("select distinct a from t").distinct
        assert not parse_select("select a from t").distinct

    def test_expression_item(self):
        stmt = parse_select("select a * (1 - b) as x from t")
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.BinaryOp) and expr.op == "*"


class TestAggregates:
    def test_count_star(self):
        stmt = parse_select("select count(*) from t")
        call = stmt.items[0].expr
        assert isinstance(call, ast.FunctionCall) and call.star

    def test_count_distinct(self):
        stmt = parse_select("select count(distinct a) from t")
        call = stmt.items[0].expr
        assert call.distinct

    def test_nested_arithmetic_inside_agg(self):
        stmt = parse_select("select sum(a * (1 - b)) from t")
        assert ast.contains_aggregate(stmt.items[0].expr)


class TestFromClause:
    def test_comma_joins(self):
        stmt = parse_select("select 1 from a, b, c")
        assert len(stmt.relations) == 3

    def test_alias_with_and_without_as(self):
        stmt = parse_select("select 1 from orders as o, lineitem l")
        assert stmt.relations[0].alias == "o"
        assert stmt.relations[1].alias == "l"

    def test_explicit_join_on(self):
        stmt = parse_select("select 1 from a join b on a.x = b.y")
        join = stmt.relations[0]
        assert isinstance(join, ast.Join) and join.kind == "INNER"
        assert isinstance(join.condition, ast.BinaryOp)

    def test_left_outer_join(self):
        stmt = parse_select("select 1 from a left outer join b on a.x = b.y")
        assert stmt.relations[0].kind == "LEFT"

    def test_derived_table(self):
        stmt = parse_select("select 1 from (select a from t) as sub")
        rel = stmt.relations[0]
        assert isinstance(rel, ast.SubqueryRef) and rel.alias == "sub"

    def test_schema_qualified_table_keeps_last_component(self):
        stmt = parse_select("select 1 from warehouse.public.orders")
        assert stmt.relations[0].name == "orders"

    def test_using_clause(self):
        stmt = parse_select("select 1 from a join b using (k)")
        join = stmt.relations[0]
        assert isinstance(join.condition, ast.BinaryOp)
        assert join.condition.op == "="


class TestPredicates:
    def test_precedence_or_lower_than_and(self):
        stmt = parse_select("select 1 from t where a = 1 or b = 2 and c = 3")
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_between(self):
        stmt = parse_select("select 1 from t where a between 1 and 5")
        assert isinstance(stmt.where, ast.Between)

    def test_not_between(self):
        stmt = parse_select("select 1 from t where a not between 1 and 5")
        assert stmt.where.negated

    def test_like_and_not_like(self):
        assert isinstance(
            parse_select("select 1 from t where s like 'x%'").where, ast.Like
        )
        assert parse_select("select 1 from t where s not like 'x%'").where.negated

    def test_in_list(self):
        stmt = parse_select("select 1 from t where a in (1, 2, 3)")
        assert isinstance(stmt.where, ast.InList)
        assert len(stmt.where.items) == 3

    def test_in_subquery(self):
        stmt = parse_select("select 1 from t where a in (select b from u)")
        assert isinstance(stmt.where, ast.InSubquery)

    def test_not_in_subquery(self):
        stmt = parse_select("select 1 from t where a not in (select b from u)")
        assert stmt.where.negated

    def test_exists(self):
        stmt = parse_select(
            "select 1 from t where exists (select * from u where u.x = t.x)"
        )
        assert isinstance(stmt.where, ast.Exists)

    def test_not_exists_wrapped_in_not(self):
        stmt = parse_select("select 1 from t where not exists (select 1 from u)")
        assert isinstance(stmt.where, ast.UnaryOp)
        assert isinstance(stmt.where.operand, ast.Exists)

    def test_is_null_and_is_not_null(self):
        assert isinstance(
            parse_select("select 1 from t where a is null").where, ast.IsNull
        )
        assert parse_select("select 1 from t where a is not null").where.negated

    def test_scalar_subquery_comparison(self):
        stmt = parse_select(
            "select 1 from t where a > (select avg(a) from t)"
        )
        assert isinstance(stmt.where.right, ast.ScalarSubquery)


class TestClauses:
    def test_group_by_and_having(self):
        stmt = parse_select(
            "select a, count(*) from t group by a having count(*) > 5"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_directions(self):
        stmt = parse_select("select a, b from t order by a desc, b asc, a")
        assert [o.ascending for o in stmt.order_by] == [False, True, True]

    def test_limit(self):
        assert parse_select("select 1 from t limit 7").limit == 7

    def test_top(self):
        assert parse_select("select top 3 a from t").limit == 3

    def test_fetch_first(self):
        assert parse_select("select a from t fetch first 9 rows only").limit == 9

    def test_trailing_semicolon_ok(self):
        parse_select("select 1 from t;")


class TestSpecialExpressions:
    def test_case_when(self):
        stmt = parse_select(
            "select case when a > 1 then 'big' else 'small' end from t"
        )
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.CaseExpr)
        assert expr.default is not None

    def test_case_without_else(self):
        stmt = parse_select("select case when a = 1 then 2 end from t")
        assert stmt.items[0].expr.default is None

    def test_date_literal(self):
        stmt = parse_select("select 1 from t where d >= date '1994-01-01'")
        lit = stmt.where.right
        assert isinstance(lit, ast.Literal) and lit.kind == "date"

    def test_interval_folds_to_days(self):
        stmt = parse_select("select interval '3' month from t")
        lit = stmt.items[0].expr
        assert isinstance(lit, ast.Literal)
        assert lit.value == 90

    def test_extract(self):
        stmt = parse_select("select extract(year from d) from t")
        call = stmt.items[0].expr
        assert call.name == "EXTRACT_YEAR"

    def test_cast(self):
        stmt = parse_select("select cast(a as decimal(12, 2)) from t")
        assert stmt.items[0].expr.name == "CAST_DECIMAL"

    def test_unary_minus(self):
        stmt = parse_select("select -a from t")
        assert isinstance(stmt.items[0].expr, ast.UnaryOp)


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "update t set a = 1",
            "select from t",
            "select a from t where",
            "select a from t group a",
            "select case end from t",
            "select a from t extra garbage",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_select(bad)


class TestReferencedTables:
    def test_collects_tables_through_subqueries(self):
        stmt = parse_select(
            "select 1 from a where x in (select y from b) "
            "and exists (select 1 from c where c.z = a.z)"
        )
        assert set(stmt.referenced_tables()) == {"a", "b", "c"}

    def test_derived_tables_counted(self):
        stmt = parse_select("select 1 from (select * from inner_t) d")
        assert stmt.referenced_tables() == ["inner_t"]


class TestNumberLiterals:
    """Number tokens follow sqlite3, and a malformed one is a ParseError."""

    def test_leading_zeros_are_the_decimal_integer(self):
        stmt = parse_select("SELECT a FROM t WHERE a = 012")
        literal = stmt.where.right
        assert literal == ast.Literal(12, "number")
        assert type(literal.value) is int
        with sqlite3.connect(":memory:") as lite:
            assert lite.execute("SELECT 012, 007").fetchone() == (12, 7)
        assert parse_select("select 007").items[0].expr.value == 7

    def test_hex_numbers_are_their_value(self):
        assert parse_select("select a from t limit 0x10").limit == 16
        assert parse_select("select top 0X1f a from t").limit == 31
        # an 'e' among the hex digits is not an exponent
        assert parse_select("select 0x1e").items[0].expr == ast.Literal(30, "number")

    def test_decimal_limit_still_truncates_through_a_float(self):
        assert parse_select("select a from t limit 2.7").limit == 2
        assert parse_select("select a from t limit 1e2").limit == 100

    @pytest.mark.parametrize(
        "bad",
        [
            "select 0x",
            "select a from t where a = 0x",
            "select a from t limit 0x",
            "select a from t limit 1e400",
            "select a from t where d > interval 'soon' day",
            "select cast(a as decimal(0x, 2)) from t",
        ],
    )
    def test_malformed_numbers_raise_parse_error(self, bad):
        with pytest.raises(ParseError):
            parse_select(bad)

    def test_recipe_reads_numbers_like_the_parser(self):
        base = "select a from t where a = 012 and b > 0x1e order by a limit 0x10"
        recipe = build_fast_recipe(base, extract_parameters(parse_select(base)))
        assert recipe is not None
        for sql in (base, "select a from t where a = 0009 and b > 0XFF order by a limit 0x2"):
            want = extract_parameters(parse_select(sql))
            got = recipe.extract(sql)
            assert got.limits == want.limits
            assert [(type(v), v) for v in got.values] == [
                (type(v), v) for v in want.values
            ]
        # a text the parser refuses is no binding for the recipe either
        assert recipe.extract("select a from t where a = 0x and b > 1 order by a limit 2") is None


# -- one parser, its scanner against the oracle lexer -----------------------


def _parser_corpus() -> list[str]:
    """The SQL texts the tests of this module parse."""
    tree = pyast.parse(Path(__file__).read_text())
    return [
        node.value
        for node in pyast.walk(tree)
        if isinstance(node, pyast.Constant)
        and isinstance(node.value, str)
        and node.value.lower().startswith("select")
    ]


# lexical forms the generators do not emit
_DIALECT_TEXTS = [
    'select "My Col", `b` from "T" where "select" = 1 and `from` <> 2',
    "SeLeCt a FrOm s.t WHERE a != 0x1F -- trailing\n and b || 'x' = ?",
    "select top 3 a from t where b = :name or c = $1 or d = %s",
    "select a from t where b between .5 and 1.e3 fetch first 007 rows only",
    "select a::int, b->>'k' from t where c = 'it''s'",
    "select [my col], \"a\"\"b\", `c``d` from t # trailing comment",
    "select /* hint */ naïve, 日付 from t where s = 'ünïcödé' -- done",
]


@lru_cache(maxsize=1)
def _corpus() -> tuple[str, ...]:
    from test_minidb_sqlite_strings import ORDERED, UNORDERED

    texts = []
    for seed in (41, 7):
        config = SnowSimConfig(total_queries=3000, seed=seed)
        texts += [record.query for record in generate_snowsim_workload(config)]
    texts += generate_tpch_workload(instances_per_template=1, seed=5)
    texts += UNORDERED + ORDERED + _parser_corpus() + _DIALECT_TEXTS
    return tuple(dict.fromkeys(texts))


# the parser's kind for each oracle token type
_ORACLE_KIND = {
    TokenType.KEYWORD: parser._KEYWORD,
    TokenType.IDENTIFIER: parser._IDENT,
    TokenType.NUMBER: parser._NUMBER,
    TokenType.STRING: parser._STRING,
    TokenType.OPERATOR: parser._OPERATOR,
    TokenType.PUNCTUATION: parser._PUNCT,
    TokenType.PARAMETER: parser._PARAMETER,
    TokenType.EOF: parser._EOF,
}


def _check_fronts(sql: str) -> None:
    """The scanner reads ``sql`` exactly like the oracle lexer: equal
    tokens (positions included) and equal parser tokens, which parse to
    an AST or a ParseError; or, where the oracle raises, a LexerError
    with the same message and position."""
    try:
        want = oracle.tokenize(sql)
    except LexerError as exc:
        with pytest.raises(LexerError) as got:
            parser._scanned(sql)
        assert (str(got.value), got.value.position) == (str(exc), exc.position), sql
        return
    assert tokenize(sql) == want, sql
    scanned = parser._scanned(sql)
    assert scanned == [(_ORACLE_KIND[t.type], t.value) for t in want], sql
    try:
        parser._parse(scanned)
    except ParseError:
        pass


class TestOneParserTwoFronts:
    def test_corpus_parses_alike_from_both_fronts(self):
        texts = _corpus()
        assert len(texts) > 1500
        for sql in texts:
            _check_fronts(sql)

    def test_truncated_texts_raise_parse_error_on_both_fronts(self):
        texts = generate_tpch_workload(instances_per_template=1, seed=5)
        texts += _parser_corpus() + list(_corpus()[:200])
        for sql in texts:
            cuts = [i for i, ch in enumerate(sql) if ch in " (),"]
            for i in cuts:
                _check_fronts(sql[:i])
                _check_fronts(sql[:i] + sql[i + 1 :])

    def test_lexer_only_texts_parse(self):
        # constructs the regex scanner once left to the lexer
        for sql in (
            "select [my col] from t",
            "select a from t # trailing comment",
            "select a /* block */ from t",
            'select "a""b" from t',
        ):
            _check_fronts(sql)
            parse_select(sql)

    @given(simple_select())
    @settings(max_examples=80, deadline=None)
    def test_generated_selects(self, sql):
        _check_fronts(sql)
