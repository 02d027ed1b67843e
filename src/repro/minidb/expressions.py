"""Vectorized evaluation of AST expressions over column frames.

A :class:`Frame` is the executor's intermediate result: qualified
column name → numpy array, plus dtype tags, (for outer joins) validity
masks and (for text columns read from a table) dictionaries. A column
with a dictionary holds ``int32`` codes into it; ``evaluate`` of a bare
column decodes, and comparisons with a string literal or a column of the
same dictionary, ``IN`` and ``LIKE`` answer on the codes instead.
Aggregates are *not* evaluated here — the executor computes them and
binds the results as synthetic columns, then re-evaluates the
surrounding expression (see ``rewrite_aggregates``).
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.sql import ast
from repro.minidb.storage import date_to_days, days_to_month, days_to_year

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


@dataclass
class Frame:
    """Columnar intermediate result."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)
    dtypes: dict[str, str] = field(default_factory=dict)
    valid: dict[str, np.ndarray] = field(default_factory=dict)
    n_rows: int = 0
    # key -> sorted dictionary; that column holds int32 codes into it
    dicts: dict[str, np.ndarray] = field(default_factory=dict)

    def resolve(self, column: ast.Column) -> str:
        """Map a (qualified or bare) column reference to a frame key."""
        if column.table is not None:
            key = f"{column.table}.{column.name}"
            if key in self.columns:
                return key
            raise ExecutionError(f"unknown column {key}")
        suffix = f".{column.name}"
        matches = [k for k in self.columns if k.endswith(suffix) or k == column.name]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ExecutionError(f"unknown column {column.name}")
        raise ExecutionError(f"ambiguous column {column.name}: {sorted(matches)}")

    def take(self, row_idx: np.ndarray) -> "Frame":
        """Row-subset this frame (gather)."""
        return Frame(
            columns={k: v[row_idx] for k, v in self.columns.items()},
            dtypes=dict(self.dtypes),
            valid={k: v[row_idx] for k, v in self.valid.items()},
            n_rows=len(row_idx),
            dicts=dict(self.dicts),
        )

    def mask(self, keep: np.ndarray) -> "Frame":
        """Row-subset by boolean mask; the frame itself when every row
        survives (no operator writes to an input frame)."""
        rows = np.flatnonzero(keep)
        if len(rows) == self.n_rows:
            return self
        return self.take(rows)

    def dtype_of(self, key: str) -> str:
        return self.dtypes.get(key, "float")

    def decoded(self, key: str) -> np.ndarray:
        """Column ``key``'s values: codes are looked up in their dictionary."""
        dictionary = self.dicts.get(key)
        values = self.columns[key]
        return values if dictionary is None else dictionary[values]

    def adopt(
        self, key: str, source: "Frame", source_key: str, rows: np.ndarray | None = None
    ) -> None:
        """Add ``source``'s column ``source_key`` as ``key`` — values, dtype,
        validity and dictionary — gathering ``rows`` when given."""
        values = source.columns[source_key]
        self.columns[key] = values if rows is None else values[rows]
        self.dtypes[key] = source.dtype_of(source_key)
        valid = source.valid.get(source_key)
        if valid is not None:
            self.valid[key] = valid if rows is None else valid[rows]
        dictionary = source.dicts.get(source_key)
        if dictionary is not None:
            self.dicts[key] = dictionary


def evaluate_coded(
    expr: ast.Expr, frame: Frame
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(values, None)`` for ``expr``, or ``(codes, dictionary)`` when it
    is a coded column — for consumers that need equality or order only."""
    if isinstance(expr, ast.Column):
        key = frame.resolve(expr)
        return frame.columns[key], frame.dicts.get(key)
    return evaluate(expr, frame), None


def evaluate(expr: ast.Expr, frame: Frame) -> np.ndarray:
    """Evaluate ``expr`` over every row of ``frame``.

    Returns an array of length ``frame.n_rows`` (scalars broadcast).
    Subquery nodes must have been planned away before evaluation.
    """
    if isinstance(expr, ast.Column):
        return frame.decoded(frame.resolve(expr))

    if isinstance(expr, ast.Literal):
        return _literal_array(expr, frame.n_rows)

    if isinstance(expr, ast.UnaryOp):
        operand = evaluate(expr.operand, frame)
        if expr.op == "NOT":
            return ~operand.astype(bool)
        if expr.op == "-":
            return -operand
        return +operand

    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, frame)

    if isinstance(expr, ast.Between):
        value = evaluate(expr.expr, frame)
        low = _coerce_literal_side(expr.low, expr.expr, frame)
        high = _coerce_literal_side(expr.high, expr.expr, frame)
        result = (value >= low) & (value <= high)
        return ~result if expr.negated else result

    if isinstance(expr, ast.Like):
        return _evaluate_like(expr, frame)

    if isinstance(expr, ast.IsNull):
        return _evaluate_is_null(expr, frame)

    if isinstance(expr, ast.InList):
        items = np.asarray(
            [_coerce_literal_side(item, expr.expr, frame) for item in expr.items]
        )
        if items.dtype.kind == "U":
            result = _per_value(
                expr.expr, frame, lambda values: np.isin(values, items)
            )
        else:
            # text against numbers: np.isin's answer depends on the input
            # size, so it must see the rows, not the dictionary
            result = np.isin(evaluate(expr.expr, frame), items)
        return ~result if expr.negated else result

    if isinstance(expr, ast.CaseExpr):
        return _evaluate_case(expr, frame)

    if isinstance(expr, ast.FunctionCall):
        return _evaluate_function(expr, frame)

    raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _literal_array(lit: ast.Literal, n_rows: int) -> np.ndarray:
    if lit.kind == "date":
        return np.full(n_rows, date_to_days(str(lit.value)), dtype=np.int64)
    if lit.kind == "null":
        return np.full(n_rows, np.nan)
    if lit.kind == "bool":
        return np.full(n_rows, bool(lit.value))
    if lit.kind == "string":
        # no explicit dtype: np.str_ without a length would clip to <U1
        return np.full(n_rows, str(lit.value))
    value = lit.value
    return np.full(n_rows, value, dtype=np.float64 if isinstance(value, float) else np.int64)


def _literal_scalar_for(lit: ast.Literal, other: ast.Expr, frame: Frame):
    """Convert a literal to the representation of the other side.

    Date columns store day counts, so ISO strings and DATE literals
    compared against them become integers.
    """
    if isinstance(other, ast.Column):
        dtype = frame.dtype_of(frame.resolve(other))
        if dtype == "date" and lit.kind in ("date", "string"):
            text = str(lit.value)
            if _ISO_DATE.match(text[:10]):
                return date_to_days(text)
    if lit.kind == "date":
        return date_to_days(str(lit.value))
    return lit.value


def _coerce_literal_side(side: ast.Expr, other: ast.Expr, frame: Frame):
    """Evaluate ``side``; literals get dtype-aware coercion against ``other``."""
    if isinstance(side, ast.Literal):
        return _literal_scalar_for(side, other, frame)
    return evaluate(side, frame)


# applied to numbers and codes; text comparisons keep numpy's operators
COMPARISONS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _coded_key(expr: ast.Expr, frame: Frame) -> str | None:
    """The frame key of ``expr`` when it is a column holding codes."""
    if frame.dicts and isinstance(expr, ast.Column):
        key = frame.resolve(expr)
        if key in frame.dicts:
            return key
    return None


def _coded_comparison(
    op: str, left: ast.Expr, right: ast.Expr, frame: Frame
) -> np.ndarray | None:
    """``left op right`` answered on codes, or None when it needs values.

    Codes order like their text, so two columns of one dictionary compare
    code to code, and a string literal becomes one position in the sorted
    dictionary: ``=``/``<>`` test the code found there, the four order
    operators a range of codes below or above it.
    """
    left_key = _coded_key(left, frame)
    right_key = _coded_key(right, frame)
    if left_key is not None and right_key is not None:
        if frame.dicts[left_key] is not frame.dicts[right_key]:
            return None
        return COMPARISONS[op](frame.columns[left_key], frame.columns[right_key])
    if left_key is None:
        if right_key is None:
            return None
        left, right, op, left_key = right, left, _FLIPPED[op], right_key
    if not (isinstance(right, ast.Literal) and right.kind == "string"):
        return None
    dictionary, codes = frame.dicts[left_key], frame.columns[left_key]
    value = right.value
    if op in ("<=", ">"):
        at = bisect.bisect_right(dictionary, value)  # entries <= value
    else:
        at = bisect.bisect_left(dictionary, value)  # entries < value
    if op in ("<", "<="):
        return codes < at
    if op in (">", ">="):
        return codes >= at
    if at == len(dictionary) or dictionary[at] != value:
        return np.full(len(codes), op == "<>")
    return codes == at if op == "=" else codes != at


def _evaluate_binary(expr: ast.BinaryOp, frame: Frame) -> np.ndarray:
    op = expr.op
    if op == "AND":
        return evaluate(expr.left, frame).astype(bool) & evaluate(
            expr.right, frame
        ).astype(bool)
    if op == "OR":
        return evaluate(expr.left, frame).astype(bool) | evaluate(
            expr.right, frame
        ).astype(bool)

    if op in COMPARISONS:
        coded = _coded_comparison(op, expr.left, expr.right, frame)
        if coded is not None:
            return coded
        left = _coerce_literal_side(expr.left, expr.right, frame)
        right = _coerce_literal_side(expr.right, expr.left, frame)
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        return left >= right

    left = evaluate(expr.left, frame)
    right = evaluate(expr.right, frame)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        right = np.where(right == 0, np.nan, right)
        return left / right
    if op == "%":
        return np.mod(left, right)
    if op == "||":
        return np.char.add(left.astype(np.str_), right.astype(np.str_))
    raise ExecutionError(f"unsupported operator {op}")


def _per_value(expr: ast.Expr, frame: Frame, answer) -> np.ndarray:
    """``answer(values of expr)``, an elementwise test; over a coded column
    it runs once on the dictionary and each row takes its entry's answer."""
    values, dictionary = evaluate_coded(expr, frame)
    if dictionary is None:
        return answer(values)
    return answer(dictionary)[values]


def _evaluate_like(expr: ast.Like, frame: Frame) -> np.ndarray:
    if not isinstance(expr.pattern, ast.Literal):
        raise ExecutionError("LIKE pattern must be a literal")
    pattern = str(expr.pattern.value)
    result = _per_value(expr.expr, frame, lambda values: _like(values, pattern))
    return ~result if expr.negated else result


def _like(values: np.ndarray, pattern: str) -> np.ndarray:
    values = values.astype(np.str_, copy=False)
    if "_" in pattern:
        regex = _like_regex(pattern)
        return np.fromiter(
            (regex.fullmatch(v) is not None for v in values),
            dtype=bool,
            count=len(values),
        )
    return _like_pieces(values, pattern.split("%"))


def _like_pieces(values: np.ndarray, pieces: list[str]) -> np.ndarray:
    """LIKE with no ``_``: literal pieces between ``%``s, leftmost-first."""
    head, tail = pieces[0], pieces[-1]
    if len(pieces) == 1:
        return values == head
    result = np.char.startswith(values, head)
    position = np.full(len(values), len(head))
    for piece in pieces[1:-1]:
        if piece:
            found = np.char.find(values, piece, position)
            result &= found >= 0
            position = found + len(piece)
    if tail:
        # the tail may not overlap what the earlier pieces consumed
        result &= np.char.endswith(values, tail)
        result &= np.char.str_len(values) - len(tail) >= position
    return result


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def _evaluate_is_null(expr: ast.IsNull, frame: Frame) -> np.ndarray:
    if isinstance(expr.expr, ast.Column):
        key = frame.resolve(expr.expr)
        validity = frame.valid.get(key)
        if validity is not None:
            return validity if expr.negated else ~validity
        is_null = np.zeros(frame.n_rows, dtype=bool)
    else:
        values = evaluate(expr.expr, frame)
        is_null = (
            np.isnan(values) if values.dtype.kind == "f"
            else np.zeros(frame.n_rows, dtype=bool)
        )
    return ~is_null if expr.negated else is_null


def _evaluate_case(expr: ast.CaseExpr, frame: Frame) -> np.ndarray:
    result: np.ndarray | None = None
    decided = np.zeros(frame.n_rows, dtype=bool)
    for cond, value in expr.whens:
        mask = evaluate(cond, frame).astype(bool) & ~decided
        branch = np.broadcast_to(
            np.asarray(evaluate(value, frame)), (frame.n_rows,)
        )
        if result is None:
            result = np.zeros(frame.n_rows, dtype=np.asarray(branch).dtype)
        result = np.where(mask, branch, result)
        decided |= mask
    if expr.default is not None and result is not None:
        default = np.broadcast_to(
            np.asarray(evaluate(expr.default, frame)), (frame.n_rows,)
        )
        result = np.where(decided, result, default)
    assert result is not None
    return result


def _evaluate_function(expr: ast.FunctionCall, frame: Frame) -> np.ndarray:
    name = expr.name
    if ast.is_aggregate_call(expr):
        raise ExecutionError(
            f"aggregate {name} must be computed by the aggregate operator"
        )
    if name == "EXTRACT_YEAR" or name == "YEAR":
        return days_to_year(evaluate(expr.args[0], frame))
    if name == "EXTRACT_MONTH" or name == "MONTH":
        return days_to_month(evaluate(expr.args[0], frame))
    if name == "SUBSTRING" or name == "SUBSTR":
        values = evaluate(expr.args[0], frame).astype(np.str_)
        start = int(_const(expr.args[1])) - 1
        length = int(_const(expr.args[2])) if len(expr.args) > 2 else None
        stop = None if length is None else start + length
        return np.asarray([v[start:stop] for v in values], dtype=np.str_)
    if name in ("CAST_INT", "CAST_INTEGER", "CAST_BIGINT"):
        return evaluate(expr.args[0], frame).astype(np.int64)
    if name in ("CAST_FLOAT", "CAST_DOUBLE", "CAST_DECIMAL", "CAST_NUMERIC"):
        return evaluate(expr.args[0], frame).astype(np.float64)
    if name in ("CAST_VARCHAR", "CAST_CHAR", "CAST_TEXT"):
        return evaluate(expr.args[0], frame).astype(np.str_)
    if name == "COALESCE":
        result = evaluate(expr.args[0], frame).astype(np.float64)
        for arg in expr.args[1:]:
            fallback = evaluate(arg, frame)
            result = np.where(np.isnan(result), fallback, result)
        return result
    if name == "ABS":
        return np.abs(evaluate(expr.args[0], frame))
    if name == "ROUND":
        digits = int(_const(expr.args[1])) if len(expr.args) > 1 else 0
        return np.round(evaluate(expr.args[0], frame), digits)
    if name in ("UPPER", "LOWER"):
        values = evaluate(expr.args[0], frame).astype(np.str_)
        return np.char.upper(values) if name == "UPPER" else np.char.lower(values)
    raise ExecutionError(f"unsupported function {name}")


def _const(expr: ast.Expr):
    if not isinstance(expr, ast.Literal):
        raise ExecutionError("expected a literal argument")
    return expr.value


# ---------------------------------------------------------------------------
# aggregate rewriting
# ---------------------------------------------------------------------------


def collect_aggregates(expr: ast.Expr, out: list[ast.FunctionCall]) -> None:
    """Append every aggregate call in ``expr`` to ``out`` (deduplicated)."""
    if ast.is_aggregate_call(expr):
        assert isinstance(expr, ast.FunctionCall)
        if expr not in out:
            out.append(expr)
        return
    for child in ast.iter_children(expr):
        collect_aggregates(child, out)


def rewrite_aggregates(
    expr: ast.Expr, mapping: dict[ast.FunctionCall, str]
) -> ast.Expr:
    """Replace aggregate calls with references to synthetic columns."""
    if ast.is_aggregate_call(expr):
        assert isinstance(expr, ast.FunctionCall)
        return ast.Column(mapping[expr])
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            rewrite_aggregates(expr.left, mapping),
            rewrite_aggregates(expr.right, mapping),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, rewrite_aggregates(expr.operand, mapping))
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(rewrite_aggregates(a, mapping) for a in expr.args),
            expr.distinct,
            expr.star,
        )
    if isinstance(expr, ast.CaseExpr):
        return ast.CaseExpr(
            tuple(
                (rewrite_aggregates(c, mapping), rewrite_aggregates(v, mapping))
                for c, v in expr.whens
            ),
            None
            if expr.default is None
            else rewrite_aggregates(expr.default, mapping),
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            rewrite_aggregates(expr.expr, mapping),
            rewrite_aggregates(expr.low, mapping),
            rewrite_aggregates(expr.high, mapping),
            expr.negated,
        )
    return expr
