"""The character-at-a-time SQL lexer: the reference the scanner is
checked against.

``repro.sql.lexer.scan`` tokenizes every query with one compiled regex.
This module is the lexer it replaced, kept as an independent oracle:
it walks the text one character at a time and dispatches on
``str.isspace``/``isdigit``/``isalpha``/``isalnum`` and on its own
operator tables, so a scanner regex that claims too much or too little
shows up as a token or ``LexerError`` difference (see
``tests/test_sql_lexer.py`` and ``tests/test_sql_parser.py``). The one
intended difference: characters that are numeric but not decimal
digits (``²``, ``½``, ``Ⅻ``) — this lexer starts a number at an
``isdigit`` character and rejects the rest, the scanner reads all of
them as word characters, as Python's Unicode ``\\w`` class does.

It accepts the union of the dialects' lexical conventions —
single/double/backtick/bracket quoting, ``--`` and ``/* */`` and ``#``
comments, ``?``/``:name``/``$1``/``%s`` parameter markers — and never
guesses dialect up front.
"""

from __future__ import annotations

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, Token, TokenType

# Multi-character operators must be matched before single-character ones.
MULTI_CHAR_OPERATORS = ("<>", "!=", ">=", "<=", "||", "::", "->>", "->")
SINGLE_CHAR_OPERATORS = frozenset("+-*/%<>=^&|~")
PUNCTUATION_CHARS = frozenset("(),.;[]{}")

# the normalizer's placeholders for folded literals
_FOLDED = {
    TokenType.NUMBER: "<NUM>",
    TokenType.STRING: "<STR>",
    TokenType.PARAMETER: "<PARAM>",
}


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list of :class:`Token`, comments skipped.

    Raises
    ------
    LexerError
        On unterminated strings or comments, or characters outside every
        supported dialect.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]

        if ch.isspace():
            i += 1
            continue

        # -- line comment
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            end = n if end == -1 else end
            i = end
            continue

        # # line comment (MySQL / BigQuery legacy)
        if ch == "#":
            end = sql.find("\n", i)
            end = n if end == -1 else end
            i = end
            continue

        # /* block comment */ (non-nesting, like most dialects)
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated block comment", i)
            i = end + 2
            continue

        # string literal with '' escaping
        if ch == "'":
            value, i = _scan_quoted(sql, i, "'")
            tokens.append(Token(TokenType.STRING, value, i - len(value)))
            continue

        # quoted identifiers: "ident", `ident`, [ident]
        if ch == '"' or ch == "`":
            value, i = _scan_quoted(sql, i, ch)
            tokens.append(Token(TokenType.IDENTIFIER, value[1:-1], i - len(value)))
            continue
        if ch == "[":
            end = sql.find("]", i + 1)
            if end == -1:
                raise LexerError("unterminated bracket identifier", i)
            tokens.append(Token(TokenType.IDENTIFIER, sql[i + 1 : end], i))
            i = end + 1
            continue

        # parameter markers
        if ch == "?":
            tokens.append(Token(TokenType.PARAMETER, "?", i))
            i += 1
            continue
        if ch == "$" and i + 1 < n and sql[i + 1].isdigit():
            j = i + 1
            while j < n and sql[j].isdigit():
                j += 1
            tokens.append(Token(TokenType.PARAMETER, sql[i:j], i))
            i = j
            continue
        if ch == ":" and i + 1 < n and (sql[i + 1].isalpha() or sql[i + 1] == "_"):
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            tokens.append(Token(TokenType.PARAMETER, sql[i:j], i))
            i = j
            continue
        if ch == "%" and i + 1 < n and sql[i + 1] == "s":
            tokens.append(Token(TokenType.PARAMETER, "%s", i))
            i += 2
            continue

        # numbers: 12, 12.5, .5, 1e-4, 0x1F
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _scan_number(sql, i)
            tokens.append(Token(TokenType.NUMBER, value, i - len(value)))
            continue

        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] in "_$"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, i))
            i = j
            continue

        # multi-char then single-char operators
        matched = False
        for op in MULTI_CHAR_OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, ch, i))
            i += 1
            continue
        if ch in PUNCTUATION_CHARS:
            tokens.append(Token(TokenType.PUNCTUATION, ch, i))
            i += 1
            continue

        raise LexerError(f"unexpected character {ch!r}", i)

    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _scan_quoted(sql: str, start: int, quote: str) -> tuple[str, int]:
    """Scan a quoted region starting at ``start``.

    Returns the full quoted text (including quotes) and the index just
    past the closing quote. Doubled quotes escape themselves, matching
    SQL convention.
    """
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:  # escaped quote
                i += 2
                continue
            return sql[start : i + 1], i + 1
        i += 1
    raise LexerError(f"unterminated {quote} literal", start)


def _scan_number(sql: str, start: int) -> tuple[str, int]:
    """Scan a numeric literal; supports decimals, exponents and hex."""
    i = start
    n = len(sql)
    if sql.startswith("0x", i) or sql.startswith("0X", i):
        i += 2
        while i < n and (sql[i].isdigit() or sql[i].lower() in "abcdef"):
            i += 1
        return sql[start:i], i
    seen_dot = False
    while i < n and (sql[i].isdigit() or (sql[i] == "." and not seen_dot)):
        if sql[i] == ".":
            seen_dot = True
        i += 1
    if i < n and sql[i] in "eE":
        j = i + 1
        if j < n and sql[j] in "+-":
            j += 1
        if j < n and sql[j].isdigit():
            while j < n and sql[j].isdigit():
                j += 1
            i = j
    return sql[start:i], i


def token_stream(sql: str) -> list[str]:
    """The literal-folded embedder stream of :func:`tokenize`'s tokens:
    keywords upper-cased, identifiers lower-cased, literals folded (the
    normalizer's rendering when it read this lexer)."""
    out = []
    for tok in tokenize(sql)[:-1]:
        if tok.type in _FOLDED:
            out.append(_FOLDED[tok.type])
        elif tok.type is TokenType.IDENTIFIER:
            out.append(tok.value.lower())
        else:
            out.append(tok.value)
    return out
