"""Classical syntactic feature engineering (the baseline Querc replaces).

This is the Chaudhuri-et-al.-style feature extractor the paper argues
against: hand-picked structural signals (join structure, GROUP BY
columns, predicate counts, table/column identities) assembled into a
sparse numeric vector. It exists so benchmarks can compare learned
embeddings against specialized feature engineering on the same tasks,
and it doubles as the distance basis for the K-medoids summarization
baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.normalizer import safe_token_stream
from repro.sql.parser import parse_select


@dataclass(frozen=True, slots=True)
class QueryStructure:
    """Structural summary of one parsed query."""

    tables: tuple[str, ...]
    join_edges: tuple[tuple[str, str], ...]
    selection_columns: tuple[str, ...]
    group_by_columns: tuple[str, ...]
    order_by_columns: tuple[str, ...]
    aggregates: tuple[str, ...]
    predicate_count: int
    subquery_count: int
    has_having: bool
    limit: int | None


def extract_structure(sql: str) -> QueryStructure:
    """Parse ``sql`` and pull out the classical structural signals.

    Raises :class:`ParseError` when the statement is outside the SELECT
    grammar; callers that must survive arbitrary logs should catch it
    and fall back to token counts (see :class:`SyntacticFeatureExtractor`).
    """
    stmt = parse_select(sql)
    tables: list[str] = []
    join_edges: list[tuple[str, str]] = []
    selection_columns: list[str] = []
    group_by_columns: list[str] = []
    order_by_columns: list[str] = []
    aggregates: list[str] = []
    counters = {"predicates": 0, "subqueries": 0}

    def visit_relation(rel: ast.Relation) -> None:
        if isinstance(rel, ast.TableRef):
            tables.append(rel.name.lower())
        elif isinstance(rel, ast.SubqueryRef):
            counters["subqueries"] += 1
            visit_stmt(rel.subquery)
        else:
            visit_relation(rel.left)
            visit_relation(rel.right)
            if rel.condition is not None:
                _collect_join_edges(rel.condition, join_edges)
                visit_expr(rel.condition)

    def visit_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("=", "<", ">", "<=", ">=", "<>"):
                counters["predicates"] += 1
            visit_expr(expr.left)
            visit_expr(expr.right)
            return
        if isinstance(expr, (ast.Between, ast.Like, ast.IsNull, ast.InList)):
            counters["predicates"] += 1
        if isinstance(expr, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            counters["subqueries"] += 1
            visit_stmt(expr.subquery)
            if isinstance(expr, ast.InSubquery):
                visit_expr(expr.expr)
            return
        if ast.is_aggregate_call(expr):
            aggregates.append(expr.name)
        for child in ast.iter_children(expr):
            visit_expr(child)

    def visit_stmt(stmt: ast.SelectStatement) -> None:
        for rel in stmt.relations:
            visit_relation(rel)
        for item in stmt.items:
            visit_expr(item.expr)
            for col in ast.iter_columns(item.expr):
                selection_columns.append(col.name)
        if stmt.where is not None:
            _collect_join_edges(stmt.where, join_edges)
            visit_expr(stmt.where)
        for expr in stmt.group_by:
            for col in ast.iter_columns(expr):
                group_by_columns.append(col.name)
        if stmt.having is not None:
            visit_expr(stmt.having)
        for order in stmt.order_by:
            for col in ast.iter_columns(order.expr):
                order_by_columns.append(col.name)

    visit_stmt(stmt)
    return QueryStructure(
        tables=tuple(tables),
        join_edges=tuple(sorted(set(join_edges))),
        selection_columns=tuple(selection_columns),
        group_by_columns=tuple(group_by_columns),
        order_by_columns=tuple(order_by_columns),
        aggregates=tuple(aggregates),
        predicate_count=counters["predicates"],
        subquery_count=counters["subqueries"],
        has_having=stmt.having is not None,
        limit=stmt.limit,
    )


def _collect_join_edges(
    expr: ast.Expr, out: list[tuple[str, str]]
) -> None:
    """Collect column=column equality predicates as join edges."""
    if isinstance(expr, ast.BinaryOp):
        if (
            expr.op == "="
            and isinstance(expr.left, ast.Column)
            and isinstance(expr.right, ast.Column)
        ):
            a, b = sorted((expr.left.name, expr.right.name))
            out.append((a, b))
            return
        if expr.op in ("AND", "OR"):
            _collect_join_edges(expr.left, out)
            _collect_join_edges(expr.right, out)


@dataclass
class SyntacticFeatureExtractor:
    """Fixed-length feature vectors from classical structural signals.

    ``fit`` scans a corpus to build vocabularies of tables, columns and
    join edges; ``transform`` produces, per query, scalar structure
    counts concatenated with one-hot membership indicators. Unparseable
    queries degrade gracefully to token-level counts, which is exactly
    the brittleness the paper attributes to specialized pipelines.
    """

    max_tables: int = 64
    max_columns: int = 256
    max_joins: int = 128
    _table_index: dict[str, int] = field(default_factory=dict, repr=False)
    _column_index: dict[str, int] = field(default_factory=dict, repr=False)
    _join_index: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    _fitted: bool = False

    SCALAR_FEATURES = 10

    def fit(self, queries: list[str]) -> "SyntacticFeatureExtractor":
        """Build the table/column/join vocabularies from ``queries``."""
        table_counts: Counter[str] = Counter()
        column_counts: Counter[str] = Counter()
        join_counts: Counter[tuple[str, str]] = Counter()
        for sql in queries:
            structure = self._safe_structure(sql)
            if structure is None:
                continue
            table_counts.update(structure.tables)
            column_counts.update(structure.selection_columns)
            column_counts.update(structure.group_by_columns)
            join_counts.update(structure.join_edges)
        self._table_index = _top_index(table_counts, self.max_tables)
        self._column_index = _top_index(column_counts, self.max_columns)
        self._join_index = _top_index(join_counts, self.max_joins)
        self._fitted = True
        return self

    @property
    def dimension(self) -> int:
        """Length of the produced feature vectors."""
        return (
            self.SCALAR_FEATURES
            + len(self._table_index)
            + len(self._column_index)
            + len(self._join_index)
        )

    def transform(self, queries: list[str]) -> np.ndarray:
        """Vectorize ``queries``; shape (len(queries), dimension)."""
        if not self._fitted:
            raise RuntimeError("SyntacticFeatureExtractor.fit must be called first")
        out = np.zeros((len(queries), self.dimension), dtype=np.float64)
        for row, sql in enumerate(queries):
            out[row] = self._transform_one(sql)
        return out

    def fit_transform(self, queries: list[str]) -> np.ndarray:
        return self.fit(queries).transform(queries)

    def _transform_one(self, sql: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        structure = self._safe_structure(sql)
        tokens = safe_token_stream(sql)
        if structure is None:
            # brittle-parser fallback: only token counts available
            vec[0] = len(tokens)
            return vec
        vec[0] = len(tokens)
        vec[1] = len(structure.tables)
        vec[2] = len(structure.join_edges)
        vec[3] = len(structure.selection_columns)
        vec[4] = len(structure.group_by_columns)
        vec[5] = len(structure.order_by_columns)
        vec[6] = len(structure.aggregates)
        vec[7] = structure.predicate_count
        vec[8] = structure.subquery_count
        vec[9] = 1.0 if structure.has_having else 0.0
        base = self.SCALAR_FEATURES
        for table in structure.tables:
            idx = self._table_index.get(table)
            if idx is not None:
                vec[base + idx] = 1.0
        base += len(self._table_index)
        for column in structure.selection_columns + structure.group_by_columns:
            idx = self._column_index.get(column)
            if idx is not None:
                vec[base + idx] = 1.0
        base += len(self._column_index)
        for edge in structure.join_edges:
            idx = self._join_index.get(edge)
            if idx is not None:
                vec[base + idx] = 1.0
        return vec

    @staticmethod
    def _safe_structure(sql: str) -> QueryStructure | None:
        try:
            return extract_structure(sql)
        except Exception:  # noqa: BLE001 - brittle parsers fail on odd dialects
            return None


def _top_index(counts: Counter, limit: int) -> dict:
    """Index the ``limit`` most common keys, ties broken lexically."""
    most_common = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[:limit]
    return {key: i for i, (key, _) in enumerate(most_common)}
