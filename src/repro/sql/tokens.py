"""Token definitions for the dialect-tolerant SQL scanner."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenType(enum.Enum):
    """Lexical category of a SQL token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"  # ?, :name, $1, %s — dialect parameter markers
    EOF = "eof"


# Keywords cover the union of common dialects; the scanner upper-cases
# matches so downstream code compares against these exact strings.
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET TOP DISTINCT ALL
    AS ON USING JOIN INNER LEFT RIGHT FULL OUTER CROSS NATURAL
    UNION INTERSECT EXCEPT MINUS
    AND OR NOT IN EXISTS BETWEEN LIKE ILIKE IS NULL ESCAPE
    CASE WHEN THEN ELSE END
    INSERT INTO VALUES UPDATE SET DELETE MERGE
    CREATE TABLE VIEW INDEX DROP ALTER TRUNCATE
    WITH RECURSIVE
    ASC DESC NULLS FIRST LAST
    CAST EXTRACT INTERVAL DATE TIME TIMESTAMP YEAR MONTH DAY
    COUNT SUM AVG MIN MAX
    TRUE FALSE UNKNOWN
    OVER PARTITION ROWS RANGE PRECEDING FOLLOWING CURRENT ROW UNBOUNDED
    FETCH NEXT ONLY QUALIFY SAMPLE TABLESAMPLE LATERAL PIVOT UNPIVOT
    GRANT REVOKE TO
    """.split()
)


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexical token.

    ``value`` preserves the source spelling except for keywords, which
    are upper-cased so dialect casing differences disappear early.
    """

    type: TokenType
    value: str
    position: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}:{self.value}"
