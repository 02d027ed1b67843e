"""Unit tests for the dialect-tolerant SQL scanner, and the scanner
against the character lexer oracle (``sql_lexer_oracle``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sql_lexer_oracle as oracle

from repro.errors import LexerError
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType


def kinds(sql):
    return [t.type for t in tokenize(sql)[:-1]]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select from where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        assert values("MyTable")[0] == "MyTable"
        assert kinds("MyTable") == [TokenType.IDENTIFIER]

    def test_eof_token_is_last(self):
        tokens = tokenize("select 1")
        assert tokens[-1].type is TokenType.EOF

    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_positions_recorded(self):
        tokens = tokenize("a = 1")
        assert tokens[0].position == 0
        assert tokens[1].position == 2
        assert tokens[2].position == 4


class TestLiterals:
    def test_string_literal(self):
        tokens = tokenize("select 'hello world'")
        assert tokens[1].type is TokenType.STRING
        assert tokens[1].value == "'hello world'"

    def test_string_with_doubled_quote_escape(self):
        tokens = tokenize("select 'it''s'")
        assert tokens[1].value == "'it''s'"
        assert tokens[2].type is TokenType.EOF

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize("select 'oops")

    def test_integer_float_exponent_hex(self):
        assert values("1 2.5 .5 1e-4 0x1F") == ["1", "2.5", ".5", "1e-4", "0x1F"]
        assert all(k is TokenType.NUMBER for k in kinds("1 2.5 .5 1e-4 0x1F"))

    def test_number_followed_by_dot_access_not_confused(self):
        # 1.2.3 would be weird SQL; ensure 'a.1' style doesn't crash
        tokens = tokenize("t1.col2")
        assert tokens[0].value == "t1"
        assert tokens[1].value == "."
        assert tokens[2].value == "col2"


class TestQuotedIdentifiers:
    def test_double_quoted(self):
        tokens = tokenize('select "My Col" from t')
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[1].value == "My Col"

    def test_backtick_quoted(self):
        tokens = tokenize("select `weird name` from t")
        assert tokens[1].value == "weird name"

    def test_bracket_quoted(self):
        tokens = tokenize("select [Order Details] from t")
        assert tokens[1].value == "Order Details"

    def test_unterminated_bracket_raises(self):
        with pytest.raises(LexerError):
            tokenize("select [oops from t")


class TestComments:
    def test_line_comment_skipped(self):
        assert values("select 1 -- comment\n , 2") == ["SELECT", "1", ",", "2"]

    def test_hash_comment_skipped(self):
        assert values("select 1 # note\n") == ["SELECT", "1"]

    def test_block_comment_skipped(self):
        assert values("select /* hi */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("select /* oops")


class TestParameters:
    @pytest.mark.parametrize(
        "marker", ["?", "$1", ":name", "%s"], ids=["qmark", "dollar", "colon", "pct"]
    )
    def test_parameter_markers(self, marker):
        tokens = tokenize(f"select * from t where id = {marker}")
        assert any(t.type is TokenType.PARAMETER for t in tokens)

    def test_colon_without_name_is_operator(self):
        # a bare '::' is the cast operator, not a parameter
        tokens = tokenize("select a::int")
        assert any(t.value == "::" for t in tokens)


class TestOperators:
    def test_multichar_operators(self):
        for op in ("<>", "!=", ">=", "<=", "||", "::"):
            assert op in values(f"a {op} b")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("select \x01")
        assert excinfo.value.position >= 0


def _outcome(lex, sql):
    """``lex(sql)``'s tokens, or its LexerError's message and position."""
    try:
        return lex(sql)
    except LexerError as exc:
        return ("LexerError", str(exc), exc.position)


# pieces of every dialect's lexical conventions, and their edges
_DIALECT_PIECES = [
    "'", "''", '"', '""', "`", "``", "[", "]",
    "--", "#", "/*", "*/", "/", "*", "\n", " ", "\t",
    "?", "$1", "$", ":p", ":", "::", "%s", "%",
    "a", "x1", "_", "select", "FROM", "1", "07", ".5", ".", "0x1F", "0x", "e", "1e-4",
    "-", "->>", "+", "(", ")", ",", ";", "<", ">", "=", "!", "|", "{",
    "é", "ß", "ſ", "日", "Ω", "\u00a0", "\u2028",
]


class TestScannerMatchesOracle:
    """The scanner's tokens and errors equal the character lexer's."""

    def test_every_bmp_code_point_in_three_contexts(self):
        unexpected = []
        for code in range(0x10000):
            ch = chr(code)
            if ch.isnumeric() and not ch.isdecimal():
                continue  # the one intended difference, pinned below
            for sql in (ch, f"a{ch}1", f"select {ch}x from t"):
                if _outcome(tokenize, sql) != _outcome(oracle.tokenize, sql):
                    unexpected.append(sql)
        assert unexpected == []

    @pytest.mark.parametrize("ch", ["²", "½", "Ⅻ"])
    def test_numeric_characters_that_are_not_digits_are_word_characters(self, ch):
        # the one intended difference: Python's \w reads every numeric
        # character as a word character, \d only decimal digits; the
        # oracle starts a number at an isdigit() character (²) and
        # rejects the other numeric ones (½, Ⅻ)
        assert _outcome(tokenize, ch) == [
            Token(TokenType.IDENTIFIER, ch, 0),
            Token(TokenType.EOF, "", 1),
        ]
        if ch.isdigit():
            assert oracle.tokenize(ch)[0].type is TokenType.NUMBER
        else:
            assert _outcome(oracle.tokenize, ch) == (
                "LexerError",
                f"unexpected character {ch!r} (at position 0)",
                0,
            )

    @given(st.lists(st.sampled_from(_DIALECT_PIECES), max_size=14).map("".join))
    @settings(max_examples=2000, deadline=None)
    def test_dialect_alphabet_fuzz(self, sql):
        assert _outcome(tokenize, sql) == _outcome(oracle.tokenize, sql)

    @pytest.mark.parametrize(
        "sql, message, position",
        [
            ("select 'oops", "unterminated ' literal", 7),
            ('select "a""', 'unterminated " literal', 7),
            ("select `a", "unterminated ` literal", 7),
            ("select [oops from t", "unterminated bracket identifier", 7),
            ("select /* oops", "unterminated block comment", 7),
            ("select a ! b", "unexpected character '!'", 9),
        ],
    )
    def test_errors_name_the_oracle_message_and_position(self, sql, message, position):
        with pytest.raises(LexerError) as excinfo:
            tokenize(sql)
        assert str(excinfo.value) == f"{message} (at position {position})"
        assert excinfo.value.position == position
        assert _outcome(oracle.tokenize, sql) == (
            "LexerError",
            str(excinfo.value),
            position,
        )
