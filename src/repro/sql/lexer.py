"""The dialect-tolerant SQL scanner.

Querc ingests workloads from many engines (the paper names Snowflake,
BigQuery, Redshift, SQL Server), so the scanner accepts the union of
their lexical conventions — single/double/backtick/bracket quoting with
doubled-quote escapes, ``--`` and ``#`` and ``/* */`` comments,
``?``/``:name``/``$1``/``%s`` parameter markers, identifiers in any
script — and never guesses dialect up front.

:func:`scan` is the only tokenizer: one compiled regex, one match per
token, giving ``(category, lexeme)`` pairs. Every reader renders that
one form: :func:`tokenize` (:class:`~repro.sql.tokens.Token` objects
with positions), the normalizer's streams and fingerprints, the
parser's ``(kind, text)`` tokens and the prepared path's
:class:`~repro.sql.params.FastBindingRecipe`.
"""

from __future__ import annotations

import re

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, Token, TokenType

# Whitespace and comments (``--`` and ``#`` to the end of the line,
# ``/* … */`` to the first ``*/``, non-nesting), skipped between tokens.
_SKIPPED = r"(?:\s|--[^\n]*|\#[^\n]*|/\*[\s\S]*?\*/)*"
_LEADING = re.compile(_SKIPPED)

# One match per token, with the skipped text after it: one alternative
# per lexical category, so exactly one group matches and ``lastindex``
# is the category. Earlier alternatives win where two could start at
# the same character (``$1`` is a parameter, ``%s`` not an operator,
# ``.5`` a number). A token is never read out of a comment: it is
# skipped text wherever a token could start, so a ``/`` that opens an
# unterminated one is left unclaimed. A quote closes only when it is
# not doubled (``(?!')``), so no match ends inside an escape. Character
# classes are Python's Unicode ones: ``\s`` is ``str.isspace``, ``\d``
# a decimal digit, and a word starts with any ``\w`` but a digit. The
# final group takes whatever no category claims (a character outside
# every dialect, an opening quote, bracket or ``/*`` whose mate is
# missing) together with the rest of the text, so the matches cover the
# text without gaps and only the last can be unclaimed.
_TOKEN = re.compile(
    r"""
    (?:
      ('[^']*(?:''[^']*)*'(?!'))                    # 1 string literal
    | (\?|\$\d+|%s|:[^\W\d]\w*)                     # 2 parameter marker
    | (0[xX][\da-fA-F]*
       |(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)       # 3 number
    | ([^\W\d][\w$]*)                               # 4 keyword / identifier
    | (->>|->|<>|!=|>=|<=|\|\||::
       |[-+*%<>=^&|~]|/(?!\*))                      # 5 operator
    | ([(),.;\]{}])                                 # 6 punctuation
    | ("[^"]*(?:""[^"]*)*"(?!")
       |`[^`]*(?:``[^`]*)*`(?!`)
       |\[[^\]]*\])                                 # 7 quoted identifier
    | ([\s\S]+)                                     # 8 unclaimed rest
    )
    """
    + _SKIPPED,
    re.VERBOSE,
)

# Categories of a :func:`scan` entry, numbered like the groups of
# ``_TOKEN``. Literals come first, so ``kind <= NUMBER`` tests for one.
STRING, PARAMETER, NUMBER, WORD, OPERATOR, PUNCTUATION, QUOTED = range(1, 8)
_UNCLAIMED = 8

_TOKEN_TYPE = {
    STRING: TokenType.STRING,
    PARAMETER: TokenType.PARAMETER,
    NUMBER: TokenType.NUMBER,
    OPERATOR: TokenType.OPERATOR,
    PUNCTUATION: TokenType.PUNCTUATION,
}


def scan(sql: str) -> list[tuple[int, str]]:
    """``(category, lexeme)`` for every token of ``sql``.

    Categories are the module's ``STRING`` … ``QUOTED`` constants. A
    word is one category whether or not it is a keyword, and a quoted
    identifier keeps its delimiters in the lexeme.

    Raises
    ------
    LexerError
        On an unterminated string, quoted identifier or block comment,
        or a character outside every supported dialect.
    """
    tokens = [
        (kind := m.lastindex, m[kind])
        for m in _TOKEN.finditer(sql, _LEADING.match(sql).end())
    ]
    if tokens and tokens[-1][0] == _UNCLAIMED:
        raise _unclaimed(sql, len(sql) - len(tokens[-1][1]))
    return tokens


def tokenize(sql: str) -> list[Token]:
    """:func:`scan` as :class:`~repro.sql.tokens.Token` objects with
    positions, closed by an EOF token.

    Keywords are upper-cased; a quoted identifier loses its delimiters.
    Raises :class:`~repro.errors.LexerError` where :func:`scan` does.
    """
    tokens: list[Token] = []
    for m in _TOKEN.finditer(sql, _LEADING.match(sql).end()):
        kind = m.lastindex
        text = m[kind]
        if kind == WORD:
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, m.start()))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, text, m.start()))
        elif kind == QUOTED:
            tokens.append(Token(TokenType.IDENTIFIER, text[1:-1], m.start()))
        elif kind == _UNCLAIMED:
            raise _unclaimed(sql, m.start())
        else:
            tokens.append(Token(_TOKEN_TYPE[kind], text, m.start()))
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens


def _unclaimed(sql: str, i: int) -> LexerError:
    """The error for text no category claims, starting at ``i``."""
    ch = sql[i]
    if ch in "'\"`":
        return LexerError(f"unterminated {ch} literal", i)
    if ch == "[":
        return LexerError("unterminated bracket identifier", i)
    if sql.startswith("/*", i):
        return LexerError("unterminated block comment", i)
    return LexerError(f"unexpected character {ch!r}", i)
