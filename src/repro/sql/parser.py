"""Recursive-descent parser for the SELECT grammar.

Covers the union of constructs used by the TPC-H templates and the
SnowSim workload: joins (comma and explicit), subqueries (IN / EXISTS /
scalar / derived tables), CASE, BETWEEN, LIKE, IS NULL, aggregates,
GROUP BY / HAVING / ORDER BY / LIMIT / TOP, DATE and INTERVAL literals,
and EXTRACT. Operator precedence follows standard SQL:

    OR < AND < NOT < comparison < additive < multiplicative < unary

The parser reads one token form: ``(kind, text)`` pairs closed by an
``(EOF, "")`` sentinel, rendered from the one scan
(:func:`~repro.sql.lexer.scan`, the single regex pass fingerprints
are made of): each word becomes a keyword (upper-cased) or an
identifier, and a quoted identifier loses its delimiters. Each
precedence level reads the current token once and compares the pair
as a whole.

Number tokens follow sqlite3: a decimal integer may carry leading zeros
(``012`` is 12), ``0x`` introduces a hex integer, and a token no rule
reads (a bare ``0x``) raises :class:`~repro.errors.ParseError`, as does
any other malformed input the scanner accepts.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import (
    NUMBER,
    OPERATOR,
    PARAMETER,
    PUNCTUATION,
    QUOTED,
    STRING,
    WORD,
    scan,
)
from repro.sql.tokens import KEYWORDS

# The parser's token kinds: the scanner's categories, with a word that
# is a keyword split off, and EOF closing every token list.
_EOF, _KEYWORD = 0, 9
_STRING, _PARAMETER, _NUMBER = STRING, PARAMETER, NUMBER
_IDENT, _OPERATOR, _PUNCT = WORD, OPERATOR, PUNCTUATION
_END = (_EOF, "")

_KIND_NAME = {
    _EOF: "eof",
    _KEYWORD: "keyword",
    _IDENT: "identifier",
    _NUMBER: "number",
    _STRING: "string",
    _OPERATOR: "operator",
    _PUNCT: "punctuation",
    _PARAMETER: "parameter",
}

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", ">", "<=", ">="})
_NEGATABLE = frozenset({"IN", "BETWEEN", "LIKE", "ILIKE"})
_INTERVAL_DAYS = {"DAY": 1, "WEEK": 7, "MONTH": 30, "YEAR": 365}

# tokens the expression levels compare against whole
_OR, _AND, _NOT = (_KEYWORD, "OR"), (_KEYWORD, "AND"), (_KEYWORD, "NOT")
_SELECT, _EXISTS = (_KEYWORD, "SELECT"), (_KEYWORD, "EXISTS")
_OPEN, _CLOSE, _COMMA = (_PUNCT, "("), (_PUNCT, ")"), (_PUNCT, ",")
_STAR = (_OPERATOR, "*")


def parse_select(sql: str) -> ast.SelectStatement:
    """Parse ``sql`` (a single SELECT statement) into an AST.

    Raises
    ------
    ParseError
        When the text is not a supported SELECT statement.
    LexerError
        When the text is not lexically valid SQL.
    """
    return _parse(_scanned(sql))


def _scanned(sql: str) -> list[tuple[int, str]]:
    """The parser's tokens: :func:`~repro.sql.lexer.scan` of ``sql``."""
    tokens: list[tuple[int, str]] = []
    append = tokens.append
    for token in scan(sql):
        kind = token[0]
        if kind == _IDENT:
            upper = token[1].upper()
            if upper in KEYWORDS:
                token = (_KEYWORD, upper)
        elif kind == QUOTED:
            token = (_IDENT, token[1][1:-1])
        append(token)
    append(_END)
    return tokens


def _parse(tokens: list[tuple[int, str]]) -> ast.SelectStatement:
    parser = _Parser(tokens)
    stmt = parser.parse_statement()
    parser.expect_end()
    return stmt


def number_value(text: str) -> int | float:
    """The value of a number token: a hex or decimal integer (leading
    zeros allowed, as in sqlite3), else a float.

    Raises ParseError for a token no rule reads (a bare ``0x``).
    """
    try:
        if text[:2] in ("0x", "0X"):
            return int(text[2:], 16)
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError:
        raise ParseError(f"malformed number {text!r}") from None


def limit_value(text: str) -> int:
    """The integer a ``LIMIT``/``TOP``/``FETCH`` number token stands for:
    a hex integer is its value, a decimal one is truncated through a
    float (``LIMIT 2.5`` is 2)."""
    try:
        if text[:2] in ("0x", "0X"):
            return int(text[2:], 16)
        return int(float(text))
    except (ValueError, OverflowError):
        raise ParseError(f"malformed row count {text!r}") from None


def _describe(token: tuple[int, str]) -> str:
    return f"{_KIND_NAME[token[0]]}:{token[1]}"


class _Parser:
    """Cursor over ``(kind, text)`` tokens with one token of lookahead."""

    __slots__ = ("_tokens", "_pos")

    def __init__(self, tokens: list[tuple[int, str]]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers ----------------------------------------------------

    def advance(self) -> tuple[int, str]:
        token = self._tokens[self._pos]
        if token[0] != _EOF:
            self._pos += 1
        return token

    def accept(self, token: tuple[int, str]) -> bool:
        if self._tokens[self._pos] == token:
            self._pos += 1
            return True
        return False

    def accept_keyword(self, name: str) -> bool:
        token = self._tokens[self._pos]
        if token[1] == name and token[0] == _KEYWORD:
            self._pos += 1
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            got = _describe(self._tokens[self._pos])
            raise ParseError(f"expected {name}, got {got}", self._pos)

    def expect_punct(self, value: str) -> None:
        if not self.accept((_PUNCT, value)):
            got = _describe(self._tokens[self._pos])
            raise ParseError(f"expected {value!r}, got {got}", self._pos)

    def expect_end(self) -> None:
        self.accept((_PUNCT, ";"))
        token = self._tokens[self._pos]
        if token[0] != _EOF:
            raise ParseError(f"trailing input: {_describe(token)}", self._pos)

    # -- statement ----------------------------------------------------------

    def parse_statement(self) -> ast.SelectStatement:
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        else:
            self.accept_keyword("ALL")

        limit: int | None = None
        if self.accept_keyword("TOP"):  # SQL Server dialect
            limit = self._parse_int_literal()

        items = [self._parse_select_item()]
        while self.accept(_COMMA):
            items.append(self._parse_select_item())

        relations: list[ast.Relation] = []
        if self.accept_keyword("FROM"):
            relations.append(self._parse_joined_relation())
            while self.accept(_COMMA):
                relations.append(self._parse_joined_relation())

        where = self.parse_expression() if self.accept_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.accept(_COMMA):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self.accept_keyword("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept(_COMMA):
                order_by.append(self._parse_order_item())

        if self.accept_keyword("LIMIT"):
            limit = self._parse_int_literal()
        elif self.accept_keyword("FETCH"):  # FETCH FIRST n ROWS ONLY
            self.accept_keyword("FIRST")
            self.accept_keyword("NEXT")
            limit = self._parse_int_literal()
            self.accept_keyword("ROWS")
            self.accept_keyword("ROW")
            self.accept_keyword("ONLY")

        return ast.SelectStatement(
            items=tuple(items),
            relations=tuple(relations),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _parse_int_literal(self) -> int:
        token = self._tokens[self._pos]
        if token[0] != _NUMBER:
            raise ParseError(f"expected integer, got {_describe(token)}", self._pos)
        self._pos += 1
        return limit_value(token[1])

    def _parse_select_item(self) -> ast.SelectItem:
        if self.accept(_STAR):
            return ast.SelectItem(ast.Star())
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._tokens[self._pos][0] == _IDENT:
            alias = self.advance()[1]
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        if self.accept_keyword("NULLS"):
            if not (self.accept_keyword("FIRST") or self.accept_keyword("LAST")):
                raise ParseError("expected FIRST or LAST after NULLS", self._pos)
        return ast.OrderItem(expr, ascending)

    def _expect_identifier(self) -> str:
        kind, text = self._tokens[self._pos]
        if kind != _IDENT:
            got = _describe((kind, text))
            raise ParseError(f"expected identifier, got {got}", self._pos)
        self._pos += 1
        return text

    # -- relations ----------------------------------------------------------

    def _parse_joined_relation(self) -> ast.Relation:
        rel = self._parse_primary_relation()
        while True:
            kind = self._peek_join_kind()
            if kind is None:
                return rel
            right = self._parse_primary_relation()
            condition = None
            if self.accept_keyword("ON"):
                condition = self.parse_expression()
            elif self.accept_keyword("USING"):
                self.expect_punct("(")
                cols = [self._expect_identifier()]
                while self.accept(_COMMA):
                    cols.append(self._expect_identifier())
                self.expect_punct(")")
                condition = _using_condition(rel, right, cols)
            rel = ast.Join(kind=kind, left=rel, right=right, condition=condition)

    def _peek_join_kind(self) -> str | None:
        kind, text = self._tokens[self._pos]
        if kind != _KEYWORD:
            return None
        if text == "CROSS" or text == "INNER":
            self._pos += 1
            self.expect_keyword("JOIN")
            return text
        if text == "LEFT" or text == "RIGHT" or text == "FULL":
            self._pos += 1
            self.accept_keyword("OUTER")
            self.expect_keyword("JOIN")
            return text
        if text == "JOIN":
            self._pos += 1
            return "INNER"
        return None

    def _parse_primary_relation(self) -> ast.Relation:
        if self.accept(_OPEN):
            if self._tokens[self._pos] == _SELECT:
                sub = self.parse_statement()
                self.expect_punct(")")
                self.accept_keyword("AS")
                alias = self._expect_identifier()
                return ast.SubqueryRef(sub, alias)
            rel = self._parse_joined_relation()
            self.expect_punct(")")
            return rel
        name = self._expect_identifier()
        # schema-qualified name: keep the last component
        while self.accept((_PUNCT, ".")):
            name = self._expect_identifier()
        alias = None
        if self.accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._tokens[self._pos][0] == _IDENT:
            alias = self.advance()[1]
        return ast.TableRef(name, alias)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        expr = self._parse_and()
        while self._tokens[self._pos] == _OR:
            self._pos += 1
            expr = ast.BinaryOp("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> ast.Expr:
        expr = self._parse_not()
        while self._tokens[self._pos] == _AND:
            self._pos += 1
            expr = ast.BinaryOp("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> ast.Expr:
        if self._tokens[self._pos] == _NOT:
            self._pos += 1
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        tokens = self._tokens
        if tokens[self._pos] == _EXISTS:
            self._pos += 1
            self.expect_punct("(")
            sub = self.parse_statement()
            self.expect_punct(")")
            return ast.Exists(sub)

        expr = self._parse_additive()
        kind, text = tokens[self._pos]
        if kind == _OPERATOR:
            if text not in _COMPARISON_OPS:
                return expr
            self._pos += 1
            op = "<>" if text == "!=" else text
            return ast.BinaryOp(op, expr, self._parse_additive())
        if kind != _KEYWORD:
            return expr

        negated = False
        if text == "NOT":
            next_kind, next_text = tokens[self._pos + 1]
            if next_kind == _KEYWORD and next_text in _NEGATABLE:
                self._pos += 1
                negated = True
                text = next_text
        if text == "IN":
            self._pos += 1
            return self._parse_in_tail(expr, negated)
        if text == "BETWEEN":
            self._pos += 1
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(expr, low, high, negated)
        if text == "LIKE" or text == "ILIKE":
            self._pos += 1
            pattern = self._parse_additive()
            return ast.Like(expr, pattern, negated)
        if text == "IS":
            self._pos += 1
            is_negated = self.accept(_NOT)
            self.expect_keyword("NULL")
            return ast.IsNull(expr, is_negated)
        return expr

    def _parse_in_tail(self, expr: ast.Expr, negated: bool) -> ast.Expr:
        self.expect_punct("(")
        if self._tokens[self._pos] == _SELECT:
            sub = self.parse_statement()
            self.expect_punct(")")
            return ast.InSubquery(expr, sub, negated)
        items = [self.parse_expression()]
        while self.accept(_COMMA):
            items.append(self.parse_expression())
        self.expect_punct(")")
        return ast.InList(expr, tuple(items), negated)

    def _parse_additive(self) -> ast.Expr:
        expr = self._parse_multiplicative()
        tokens = self._tokens
        while True:
            kind, text = tokens[self._pos]
            if kind == _OPERATOR and (text == "+" or text == "-" or text == "||"):
                self._pos += 1
                expr = ast.BinaryOp(text, expr, self._parse_multiplicative())
            else:
                return expr

    def _parse_multiplicative(self) -> ast.Expr:
        expr = self._parse_unary()
        tokens = self._tokens
        while True:
            kind, text = tokens[self._pos]
            if kind == _OPERATOR and (text == "*" or text == "/" or text == "%"):
                self._pos += 1
                expr = ast.BinaryOp(text, expr, self._parse_unary())
            else:
                return expr

    def _parse_unary(self) -> ast.Expr:
        kind, text = self._tokens[self._pos]
        if kind == _OPERATOR and (text == "-" or text == "+"):
            self._pos += 1
            return ast.UnaryOp(text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        kind, text = self._tokens[self._pos]
        if kind == _IDENT:
            return self._parse_identifier_expr()
        if kind == _NUMBER:
            self._pos += 1
            return ast.Literal(number_value(text), "number")
        if kind == _STRING:
            self._pos += 1
            return ast.Literal(_unquote(text), "string")
        if kind == _PARAMETER:
            self._pos += 1
            return ast.Literal(text, "string")
        if kind == _KEYWORD:
            expr = self._parse_keyword_primary(text)
            if expr is not None:
                return expr
        elif kind == _PUNCT and text == "(":
            self._pos += 1
            if self._tokens[self._pos] == _SELECT:
                sub = self.parse_statement()
                self.expect_punct(")")
                return ast.ScalarSubquery(sub)
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {_describe((kind, text))}", self._pos)

    def _parse_keyword_primary(self, word: str) -> ast.Expr | None:
        """A primary opened by the keyword ``word`` under the cursor, or
        None when no primary starts with it."""
        if word == "NULL":
            self._pos += 1
            return ast.Literal(None, "null")
        if word == "TRUE":
            self._pos += 1
            return ast.Literal(True, "bool")
        if word == "FALSE":
            self._pos += 1
            return ast.Literal(False, "bool")

        if word == "DATE" or word == "TIMESTAMP" or word == "TIME":
            kind, text = self._tokens[self._pos + 1]
            if kind != _STRING:
                return None
            self._pos += 2
            return ast.Literal(_unquote(text)[:10], "date")

        if word == "INTERVAL":
            return self._parse_interval()

        if word == "CASE":
            return self._parse_case()

        if word == "CAST":
            self._pos += 1
            self.expect_punct("(")
            inner = self.parse_expression()
            self.expect_keyword("AS")
            type_name = self._parse_type_name()
            self.expect_punct(")")
            return ast.FunctionCall("CAST_" + type_name, (inner,))

        if word == "EXTRACT":
            self._pos += 1
            self.expect_punct("(")
            field = self.advance()[1].upper()
            self.expect_keyword("FROM")
            inner = self.parse_expression()
            self.expect_punct(")")
            return ast.FunctionCall("EXTRACT_" + field, (inner,))

        if word in ast.AGGREGATE_FUNCTIONS:
            self._pos += 1
            return self._parse_call(word)
        return None

    def _parse_identifier_expr(self) -> ast.Expr:
        name = self._expect_identifier()
        # function call?
        if self._tokens[self._pos] == _OPEN:
            return self._parse_call(name.upper())
        if self.accept((_PUNCT, ".")):
            if self.accept(_STAR):
                return ast.Star(table=name)
            col = self._expect_identifier()
            # schema.table.column → keep last two components
            while self.accept((_PUNCT, ".")):
                name, col = col, self._expect_identifier()
            return ast.Column(col.lower(), name.lower())
        return ast.Column(name.lower())

    def _parse_call(self, name: str) -> ast.Expr:
        """Parse the argument list of a call whose name is already consumed."""
        self.expect_punct("(")
        if self.accept(_STAR):
            self.expect_punct(")")
            return ast.FunctionCall(name, (), star=True)
        distinct = self.accept_keyword("DISTINCT")
        args: list[ast.Expr] = []
        if self._tokens[self._pos] != _CLOSE:
            args.append(self.parse_expression())
            while self.accept(_COMMA):
                args.append(self.parse_expression())
        self.expect_punct(")")
        return ast.FunctionCall(name, tuple(args), distinct=distinct)

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expression()
            self.expect_keyword("THEN")
            value = self.parse_expression()
            whens.append((cond, value))
        if not whens:
            raise ParseError("CASE requires at least one WHEN", self._pos)
        default = self.parse_expression() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return ast.CaseExpr(tuple(whens), default)

    def _parse_interval(self) -> ast.Expr:
        """Parse ``INTERVAL '3' MONTH`` into a day-count literal.

        The engine stores dates as days, so intervals fold to an
        approximate day count (exact for DAY, conventional 30/365
        for MONTH/YEAR — the TPC-H templates only add intervals to
        date literals, which the workload generator pre-computes, so
        this path exists for ad-hoc queries).
        """
        self.expect_keyword("INTERVAL")
        kind, text = self._tokens[self._pos]
        if kind != _STRING and kind != _NUMBER:
            raise ParseError("expected interval amount", self._pos)
        try:
            amount = float(_unquote(text) if kind == _STRING else text)
        except ValueError:
            raise ParseError(f"malformed interval amount {text}", self._pos) from None
        self._pos += 1
        unit = self.advance()[1].upper()
        if unit not in _INTERVAL_DAYS:
            raise ParseError(f"unsupported interval unit {unit}", self._pos)
        return ast.Literal(amount * _INTERVAL_DAYS[unit], "number")

    def _parse_type_name(self) -> str:
        name = self.advance()[1].upper()
        if self.accept(_OPEN):
            self._parse_int_literal()
            if self.accept(_COMMA):
                self._parse_int_literal()
            self.expect_punct(")")
        return name


def _unquote(text: str) -> str:
    """Strip surrounding quotes and undo doubled-quote escapes."""
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"`":
        quote = text[0]
        return text[1:-1].replace(quote * 2, quote)
    return text


def _using_condition(
    left: ast.Relation, right: ast.Relation, columns: list[str]
) -> ast.Expr:
    """Build the equality condition implied by ``USING (c1, c2, ...)``."""
    left_name = left.binding if isinstance(left, (ast.TableRef, ast.SubqueryRef)) else None
    right_name = (
        right.binding if isinstance(right, (ast.TableRef, ast.SubqueryRef)) else None
    )
    condition: ast.Expr | None = None
    for col in columns:
        eq = ast.BinaryOp(
            "=",
            ast.Column(col.lower(), left_name),
            ast.Column(col.lower(), right_name),
        )
        condition = eq if condition is None else ast.BinaryOp("AND", condition, eq)
    assert condition is not None
    return condition
