"""Plan execution over the column store, with true-cost accounting.

Every operator really runs (vectorized numpy), and as it runs it
re-applies the optimizer's :class:`CostModel` formulas to the *observed*
row counts (scaled by the catalog's virtual row multiplier). The gap
between a plan's ``est_cost`` and the executor's ``actual_cost`` is
exactly the misestimation the Figure 4 experiment visualises.

Text travels as integers. A scan emits each ``str`` column as ``int32``
codes into the table's sorted dictionary (``Table.encoded``), and
projection, aggregation, derived tables and joins carry the codes with
their dictionary. Text appears again only where it must: in the result
rows, in functions that make new text, in the null tail of a LEFT JOIN,
in scalar and ``IN`` subquery results, and in key pairs whose sides do
not share a dictionary.

Key handling has one encoder and one matcher. ``_dense_codes`` turns key
columns into dense non-negative order-preserving ``int64`` codes
(``value - min`` for integer-like columns, dictionary codes included,
``np.unique`` otherwise), and joins, semi-joins, grouping and sorting
address count tables with them.

A cached plan computes its literal-free work once. A plan served from a
plan-cache entry shares the entry's own nodes wherever no literal
beneath them changed (``PlanRebinder``), and such a node yields the same
frame on every run while the column arrays it read are unchanged. The
entry therefore owns a :class:`RecycledResults`: the first run of the
topmost shared node keeps its frame, the exact sequence of cost charges
and the rows-scanned count it produced, and later runs replay the
charges with the same ``+=`` and take the frame instead of executing the
subtree. Joins and unfiltered scans are not kept (see
:class:`RecycledResults`); nothing below a kept node is. Operators never
write to an input frame, so a kept frame may serve any query on any
thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ExecutionError
from repro.minidb.catalog import Catalog
from repro.minidb.expressions import COMPARISONS, Frame, evaluate, evaluate_coded
from repro.minidb.optimizer import CostModel
from repro.minidb import planner as P
from repro.minidb.storage import Table
from repro.sql import ast


@dataclass
class ExecutionStats:
    """Side-band counters accumulated during execution."""

    cost_units: float = 0.0
    rows_scanned: int = 0
    rows_output: int = 0
    recycled: int = 0  # kept subtree results taken instead of executing


class _ChargeLog:
    """Stands in for ``ExecutionStats.cost_units`` while a subtree runs to
    be kept: each ``cost_units += charge`` appends the charge. Replaying
    the charges with the same ``+=`` in the same order gives the running
    sum bit for bit and of the same type (a ``np.float64`` charge makes
    the sum one)."""

    __slots__ = ("charges",)

    def __init__(self) -> None:
        self.charges: list = []

    def __iadd__(self, charge):
        self.charges.append(charge)
        return self


class _Kept(NamedTuple):
    frame: Frame
    charges: tuple
    rows_scanned: int
    read: tuple  # (table, column, the array read) for every column read


# Never kept, by measurement: join outputs fan out and hold a gathered
# copy of every input column (Q9 4.6 MB, Q19 3.8 MB, Q7 2.1 MB per TPC-H
# ``Database`` at exec scale 0.01). Keeping them as well took
# ``wire_tpch_hot`` CPU per query down 26–31 % instead of 23–27 %, but
# peak memory up 12 % (129 → 144 MB) instead of about 1 %.
_NOT_KEPT = (P.HashJoinNode, P.IndexNLJoinNode)


class RecycledResults:
    """Kept results of one cached plan's literal-free subtrees.

    Owned by the plan-cache entry holding ``plan`` and dropped with it.
    ``nodes`` holds the ids of the plan's nodes worth keeping: all but
    joins and unfiltered scans (a view of a table: nothing to save). A
    join's inputs are still kept. Concurrent first runs of a node store
    equal results; the last store wins. The plan is held so its nodes'
    ids stay theirs.
    """

    __slots__ = ("plan", "nodes", "kept")

    def __init__(self, plan: P.PlanNode) -> None:
        self.plan = plan
        nodes = set()
        stack = [plan]
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if not (
                isinstance(node, _NOT_KEPT)
                or (isinstance(node, P.ScanNode) and not node.predicates)
            ):
                nodes.add(id(node))
        self.nodes = frozenset(nodes)
        self.kept: dict[int, _Kept] = {}


class Executor:
    """Executes a physical plan against materialized tables.

    With ``recycled`` (the serving plan-cache entry's results), the
    topmost node of the plan that belongs to the entry's plan and is
    worth keeping is taken from there, or run once and kept.
    """

    def __init__(
        self,
        tables: dict[str, Table],
        catalog: Catalog,
        cost_model: CostModel | None = None,
        recycled: RecycledResults | None = None,
    ) -> None:
        self._tables = tables
        self._catalog = catalog
        self._cost = cost_model or CostModel()
        self._mult = catalog.virtual_row_multiplier
        self._recycled = recycled
        self._read: list | None = None  # columns read by a subtree being kept

    def run(self, plan: P.PlanNode) -> tuple[Frame, ExecutionStats]:
        """Execute ``plan``; returns the result frame and cost counters."""
        stats = ExecutionStats()
        frame = self._exec(plan, stats)
        stats.rows_output = frame.n_rows
        return frame, stats

    # -- dispatch ---------------------------------------------------------------

    def _exec(self, node: P.PlanNode, stats: ExecutionStats) -> Frame:
        handler = _HANDLERS.get(type(node))
        if handler is None:
            raise ExecutionError(f"no executor for node {type(node).__name__}")
        if self._recycled is not None and id(node) in self._recycled.nodes:
            return self._recycle(node, handler, stats)
        return handler(self, node, stats)

    # -- recycling -----------------------------------------------------------------

    def _recycle(self, node: P.PlanNode, handler, stats: ExecutionStats) -> Frame:
        """``node``'s kept result, its charges replayed onto ``stats``;
        when none is kept, or a column it read holds another array now,
        run the subtree once — consulting and keeping nothing below —
        and keep its result."""
        recycled = self._recycled
        kept = recycled.kept.get(id(node))
        if kept is not None and self._unchanged(kept.read):
            stats.recycled += 1
        else:
            log = ExecutionStats(cost_units=_ChargeLog())
            self._recycled, self._read = None, []
            try:
                frame = handler(self, node, log)
                read = tuple(self._read)
            finally:
                self._recycled, self._read = recycled, None
            kept = _Kept(frame, tuple(log.cost_units.charges), log.rows_scanned, read)
            recycled.kept[id(node)] = kept
        for charge in kept.charges:
            stats.cost_units += charge
        stats.rows_scanned += kept.rows_scanned
        return kept.frame

    def _unchanged(self, read: tuple) -> bool:
        """Does every column a kept result read still hold the array it
        read? (``Table.encoded``'s rule: replacing a column's array
        without ``load_table`` is allowed.)"""
        tables = self._tables
        for name, column, values in read:
            table = tables.get(name)
            if table is None or table.columns.get(column) is not values:
                return False
        return True

    def _note_read(self, name: str, table: Table, columns: tuple[str, ...]) -> None:
        """While a subtree runs to be kept, record the arrays a scan is
        about to read. A scan of no columns still reads its row count
        off the table's first column."""
        if self._read is not None:
            for column in columns or tuple(table.columns)[:1]:
                self._read.append((name, column, table.columns.get(column)))

    # -- scans -------------------------------------------------------------------

    def _exec_scan(self, node: P.ScanNode, stats: ExecutionStats) -> Frame:
        table = self._tables[node.table]
        self._note_read(node.table, table, node.columns)
        n = table.n_rows
        stats.rows_scanned += n
        frame = _scan_frame(table, node.binding, node.columns)

        virtual_n = n * self._mult
        if node.index is not None and node.seek_predicate is not None:
            seek_mask = evaluate(node.seek_predicate, frame).astype(bool)
            matched = int(seek_mask.sum())
            stats.cost_units += self._cost.index_seek(
                matched * self._mult, node.covering
            )
            frame = frame.mask(seek_mask)
            rest = [p for p in node.predicates if p is not node.seek_predicate]
            if rest and frame.n_rows:
                mask = np.ones(frame.n_rows, dtype=bool)
                for pred in rest:
                    mask &= evaluate(pred, frame).astype(bool)
                stats.cost_units += (
                    frame.n_rows * self._mult * self._cost.filter_eval * len(rest)
                )
                frame = frame.mask(mask)
            return frame

        stats.cost_units += self._cost.scan(virtual_n, node.covering)
        if node.predicates and n:
            mask = np.ones(n, dtype=bool)
            for pred in node.predicates:
                mask &= evaluate(pred, frame).astype(bool)
            stats.cost_units += virtual_n * self._cost.filter_eval * len(
                node.predicates
            )
            frame = frame.mask(mask)
        return frame

    def _exec_derived(self, node: P.DerivedNode, stats: ExecutionStats) -> Frame:
        child = self._exec(node.child, stats)
        out = Frame(n_rows=child.n_rows)
        for name in node.output_names:
            out.adopt(f"{node.alias}.{name}", child, name)
        return out

    # -- filters -----------------------------------------------------------------

    def _exec_filter(self, node: P.FilterNode, stats: ExecutionStats) -> Frame:
        frame = self._exec(node.child, stats)
        predicate = self._resolve_scalars(node.predicate, node.scalar_subplans, stats)
        if frame.n_rows == 0:
            return frame
        mask = evaluate(predicate, frame).astype(bool)
        stats.cost_units += frame.n_rows * self._mult * self._cost.filter_eval
        return frame.mask(mask)

    def _resolve_scalars(
        self,
        expr: ast.Expr,
        subplans: dict[int, P.PlanNode],
        stats: ExecutionStats,
    ) -> ast.Expr:
        """Replace uncorrelated scalar subqueries with literal results."""
        if not subplans:
            return expr

        cache: dict[int, ast.Literal] = {}

        def value_of(e: ast.ScalarSubquery) -> ast.Literal:
            if id(e) not in cache:
                plan = subplans[id(e)]
                frame = self._exec(plan, stats)
                names = getattr(plan, "output_names", list(frame.columns))
                if frame.n_rows != 1 or not names:
                    raise ExecutionError(
                        "scalar subquery must produce exactly one row"
                    )
                value = frame.decoded(names[0])[0]
                kind = "string" if isinstance(value, str) else "number"
                cache[id(e)] = ast.Literal(
                    value if isinstance(value, str) else float(value), kind
                )
            return cache[id(e)]

        def rewrite(e: ast.Expr) -> ast.Expr:
            if isinstance(e, ast.ScalarSubquery):
                return value_of(e)
            if isinstance(e, ast.BinaryOp):
                return ast.BinaryOp(e.op, rewrite(e.left), rewrite(e.right))
            if isinstance(e, ast.UnaryOp):
                return ast.UnaryOp(e.op, rewrite(e.operand))
            if isinstance(e, ast.Between):
                return ast.Between(
                    rewrite(e.expr), rewrite(e.low), rewrite(e.high), e.negated
                )
            if isinstance(e, ast.FunctionCall):
                return ast.FunctionCall(
                    e.name, tuple(rewrite(a) for a in e.args), e.distinct, e.star
                )
            return e

        return rewrite(expr)

    def _exec_in_filter(
        self, node: P.SubqueryInFilterNode, stats: ExecutionStats
    ) -> Frame:
        frame = self._exec(node.child, stats)
        sub = self._exec(node.subplan, stats)
        names = getattr(node.subplan, "output_names", list(sub.columns))
        values = sub.decoded(names[0]) if names else np.zeros(0)
        if frame.n_rows == 0:
            return frame
        probe = evaluate(node.expr, frame)
        mask = np.isin(probe, values)
        if node.negated:
            mask = ~mask
        stats.cost_units += frame.n_rows * self._mult * self._cost.filter_eval
        return frame.mask(mask)

    # -- joins -------------------------------------------------------------------

    def _exec_hash_join(self, node: P.HashJoinNode, stats: ExecutionStats) -> Frame:
        left = self._exec(node.left, stats)
        right = self._exec(node.right, stats)

        if not node.left_keys:  # cross join
            n_left, n_right = left.n_rows, right.n_rows
            left_idx = np.repeat(np.arange(n_left), n_right)
            right_idx = np.tile(np.arange(n_right), n_left)
        else:
            left_codes, right_codes = _key_codes(
                left,
                [left.resolve(k) for k in node.left_keys],
                right,
                [right.resolve(k) for k in node.right_keys],
            )
            left_idx, right_idx = _equi_match(left_codes, right_codes)

        out = _combine(left, right, left_idx, right_idx)
        stats.cost_units += self._cost.hash_join(
            min(left.n_rows, right.n_rows) * self._mult,
            max(left.n_rows, right.n_rows) * self._mult,
            len(left_idx) * self._mult,
        )

        if node.residual is not None and out.n_rows:
            mask = evaluate(node.residual, out).astype(bool)
            stats.cost_units += out.n_rows * self._mult * self._cost.filter_eval
            out = out.mask(mask)
            left_idx = left_idx[mask]

        if node.join_type == "left":
            matched = np.zeros(left.n_rows, dtype=bool)
            matched[left_idx] = True
            out = _append_unmatched(out, left, right, ~matched)
        return out

    def _exec_inl_join(self, node: P.IndexNLJoinNode, stats: ExecutionStats) -> Frame:
        outer = self._exec(node.outer, stats)
        table = self._tables[node.inner_table]
        self._note_read(node.inner_table, table, node.inner_columns)
        inner = _scan_frame(table, node.inner_binding, node.inner_columns)

        outer_codes, inner_codes = _key_codes(
            outer,
            [outer.resolve(k) for k in node.outer_keys],
            inner,
            [inner.resolve(k) for k in node.inner_keys],
        )
        outer_idx, inner_idx = _equi_match(outer_codes, inner_codes)
        matched_pairs = len(outer_idx)

        # each outer row pays a B-tree descent; each matched row pays a
        # row fetch — random (expensive) unless the index covers
        stats.cost_units += self._cost.inl_join(
            outer.n_rows * self._mult, matched_pairs * self._mult, node.covering
        )

        out = _combine(outer, inner, outer_idx, inner_idx)
        if node.inner_filters and out.n_rows:
            mask = np.ones(out.n_rows, dtype=bool)
            for pred in node.inner_filters:
                mask &= evaluate(pred, out).astype(bool)
            stats.cost_units += (
                out.n_rows * self._mult * self._cost.filter_eval
                * len(node.inner_filters)
            )
            out = out.mask(mask)
        if node.residual is not None and out.n_rows:
            mask = evaluate(node.residual, out).astype(bool)
            stats.cost_units += out.n_rows * self._mult * self._cost.filter_eval
            out = out.mask(mask)
        return out

    def _exec_semi_join(self, node: P.SemiJoinNode, stats: ExecutionStats) -> Frame:
        child = self._exec(node.child, stats)
        inner = self._exec(node.inner, stats)
        stats.cost_units += (
            child.n_rows * self._mult * self._cost.hash_probe
            + inner.n_rows * self._mult * self._cost.hash_build
        )
        if child.n_rows == 0:
            return child

        child_codes, inner_codes = _key_codes(
            child,
            [child.resolve(k) for k in node.outer_keys],
            inner,
            list(node.inner_keys),
        )
        if node.residual is None:
            has_match = _count_table(child_codes, inner_codes)[child_codes] > 0
        else:
            outer_idx, inner_idx = _equi_match(child_codes, inner_codes)
            pair = child.take(outer_idx)
            for out_name, key in node.inner_rename.items():
                pair.adopt(key, inner, out_name, inner_idx)
            ok = (
                evaluate(node.residual, pair).astype(bool)
                if pair.n_rows
                else np.zeros(0, dtype=bool)
            )
            stats.cost_units += pair.n_rows * self._mult * self._cost.filter_eval
            has_match = np.zeros(child.n_rows, dtype=bool)
            has_match[outer_idx[ok]] = True
        if node.negated:
            has_match = ~has_match
        return child.mask(has_match)

    def _exec_agg_compare(self, node: P.AggCompareNode, stats: ExecutionStats) -> Frame:
        child = self._exec(node.child, stats)
        inner = self._exec(node.inner, stats)
        stats.cost_units += child.n_rows * self._mult * self._cost.hash_probe
        if child.n_rows == 0:
            return child

        child_codes, inner_codes = _key_codes(
            child,
            [child.resolve(k) for k in node.outer_keys],
            inner,
            list(node.inner_key_names),
        )
        # each outer row compares against the first inner row with its key
        table = _count_table(child_codes, inner_codes)
        order, starts = _build_runs(table, inner_codes)
        found = table[child_codes] > 0
        mapped = np.zeros(child.n_rows, dtype=np.float64)
        mapped[found] = inner.columns[node.value_name][
            order[starts[child_codes[found]]]
        ]

        outer_vals = evaluate(node.outer_expr, child)
        mask = found & COMPARISONS[node.op](outer_vals.astype(np.float64), mapped)
        return child.mask(mask)

    # -- aggregation -----------------------------------------------------------------

    def _exec_aggregate(self, node: P.AggregateNode, stats: ExecutionStats) -> Frame:
        frame = self._exec(node.child, stats)
        stats.cost_units += self._cost.aggregate(frame.n_rows * self._mult)

        group_arrays = [
            (name, *evaluate_coded(expr, frame), _expr_dtype(expr, frame))
            for name, expr in node.group_exprs
        ]

        if not group_arrays:
            out = Frame(n_rows=1)
            for spec in node.aggregates:
                out.columns[spec.name] = np.asarray(
                    [_global_aggregate(spec.call, frame)]
                )
                out.dtypes[spec.name] = "float"
            return self._apply_having(node, out, stats)

        if frame.n_rows == 0:
            first_of_group = np.zeros(0, dtype=np.intp)
        else:
            order, starts = _group_runs(
                _group_codes([values for _, values, _, _ in group_arrays])
            )
            first_of_group = order[starts]
        out = Frame(n_rows=len(first_of_group))
        for name, values, dictionary, dtype in group_arrays:
            out.columns[name] = values[first_of_group]
            out.dtypes[name] = dtype
            if dictionary is not None:
                out.dicts[name] = dictionary
        if frame.n_rows == 0:
            for spec in node.aggregates:
                out.columns[spec.name] = np.zeros(0)
                out.dtypes[spec.name] = "float"
            return self._apply_having(node, out, stats)

        n_groups = len(starts)
        counts = np.diff(np.append(starts, frame.n_rows))
        group_of_sorted = np.repeat(np.arange(n_groups), counts)
        for spec in node.aggregates:
            out.columns[spec.name] = _grouped_aggregate(
                spec.call, frame, order, starts, counts, group_of_sorted
            )
            out.dtypes[spec.name] = "float"
        return self._apply_having(node, out, stats)

    def _apply_having(
        self, node: P.AggregateNode, out: Frame, stats: ExecutionStats
    ) -> Frame:
        if node.having is None or out.n_rows == 0:
            return out
        having = self._resolve_scalars(node.having, node.scalar_subplans, stats)
        mask = evaluate(having, out).astype(bool)
        stats.cost_units += out.n_rows * self._mult * self._cost.filter_eval
        return out.mask(mask)

    # -- projection / ordering ----------------------------------------------------------

    def _exec_project(self, node: P.ProjectNode, stats: ExecutionStats) -> Frame:
        frame = self._exec(node.child, stats)
        stats.cost_units += frame.n_rows * self._mult * self._cost.output_row
        out = Frame(n_rows=frame.n_rows)
        for name, expr in node.items:
            if isinstance(expr, ast.Column):
                out.adopt(name, frame, frame.resolve(expr))
                continue
            values = evaluate(expr, frame)
            if np.isscalar(values) or getattr(values, "ndim", 1) == 0:
                values = np.full(frame.n_rows, values)
            out.columns[name] = values
            out.dtypes[name] = _expr_dtype(expr, frame)
        return out

    def _exec_distinct(self, node: P.DistinctNode, stats: ExecutionStats) -> Frame:
        frame = self._exec(node.child, stats)
        stats.cost_units += self._cost.aggregate(frame.n_rows * self._mult)
        if frame.n_rows == 0:
            return frame
        order, starts = _group_runs(_group_codes(list(frame.columns.values())))
        return frame.take(np.sort(order[starts]))

    def _exec_sort(self, node: P.SortNode, stats: ExecutionStats) -> Frame:
        frame = self._exec(node.child, stats)
        stats.cost_units += self._cost.sort(frame.n_rows * self._mult)
        if frame.n_rows == 0:
            return frame
        keys = []
        for name, ascending in reversed(node.keys):
            values = frame.columns[name]
            if values.dtype.kind != "f":
                # exact ranks: float64 would tie distinct int64 above 2**53
                values = _group_codes([values])
            keys.append(values if ascending else -values)
        order = np.lexsort(keys)
        return frame.take(order)

    def _exec_limit(self, node: P.LimitNode, stats: ExecutionStats) -> Frame:
        frame = self._exec(node.child, stats)
        if frame.n_rows <= node.limit:
            return frame
        return frame.take(np.arange(node.limit))

    def _exec_projected_single(
        self, node: P.ProjectedSingle, stats: ExecutionStats
    ) -> Frame:
        return self._exec(node.child, stats)


# ---------------------------------------------------------------------------
# joining / grouping helpers
# ---------------------------------------------------------------------------


_MAX_SPAN = 1 << 62


def _dense_codes(sides: list[list[np.ndarray]]) -> list[np.ndarray]:
    """The one key encoder: aligned key columns -> dense ``int64`` codes.

    ``sides`` is one list of columns (grouping, sorting) or two aligned
    lists (both inputs of a join), encoded jointly: each column is
    encoded over the concatenation of its sides. Codes are non-negative,
    equal exactly when the key tuples are equal, ordered like the tuples,
    and span at most ``4 * rows + 1024`` values, so the tables the
    matcher indexes with them stay proportional to the rows in hand. A
    running code is re-ranked through ``np.unique`` before a further
    column would push its span past 2**62 (``int64`` would wrap), and at
    the end when it outgrew the allowance.
    """
    sizes = [len(side[0]) for side in sides]
    allowance = 4 * sum(sizes) + 1024
    codes, span = None, 1
    for parts in zip(*sides):
        column, column_span = _column_codes(
            np.asarray(parts[0]) if len(parts) == 1 else np.concatenate(parts),
            allowance,
        )
        if codes is None:
            codes, span = column, column_span
            continue
        if span * column_span > _MAX_SPAN:
            codes, span = _rank(codes)
        codes = codes * column_span + column
        span *= column_span
    if span > allowance:
        codes, span = _rank(codes)
    if len(sides) == 1:
        return [codes]
    return [codes[: sizes[0]], codes[sizes[0] :]]


def _column_codes(values: np.ndarray, allowance: int) -> tuple[np.ndarray, int]:
    """One key column as codes in ``[0, span)``."""
    if len(values) and values.dtype.kind in "bi":
        # integers, bools and day-count dates rank themselves: no sort
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= allowance:
            return np.subtract(values, low, dtype=np.int64), span
    return _rank(values)


def _rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Sort-based ranks, for keys that are not small dense integers."""
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse, max(len(uniq), 1)


def _composite_codes(
    left_keys: list[np.ndarray], right_keys: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode aligned multi-column join keys of both sides as dense codes."""
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ExecutionError("mismatched join key lists")
    left_codes, right_codes = _dense_codes([left_keys, right_keys])
    return left_codes, right_codes


def _key_codes(
    left: Frame, left_keys: list[str], right: Frame, right_keys: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes of two frames' aligned key columns. A key pair whose
    sides hold codes into one dictionary matches on those codes; any
    other pair matches on values."""
    left_columns, right_columns = [], []
    for left_key, right_key in zip(left_keys, right_keys):
        dictionary = left.dicts.get(left_key)
        if dictionary is not None and dictionary is right.dicts.get(right_key):
            left_columns.append(left.columns[left_key])
            right_columns.append(right.columns[right_key])
        else:
            left_columns.append(left.decoded(left_key))
            right_columns.append(right.decoded(right_key))
    return _composite_codes(left_columns, right_columns)


def _scan_frame(table: Table, binding: str, columns: tuple[str, ...]) -> Frame:
    """A base table's columns under ``binding``; text columns as codes
    into the table's dictionary."""
    frame = Frame(n_rows=table.n_rows)
    for col in columns:
        key = f"{binding}.{col}"
        values = table.column(col)
        frame.dtypes[key] = table.dtypes[col]
        if values.dtype.kind == "U" and frame.dtypes[key] == "str":
            frame.columns[key], frame.dicts[key] = table.encoded(col)
        else:
            frame.columns[key] = values
    return frame


def _group_codes(arrays: list[np.ndarray]) -> np.ndarray:
    """Encode one frame's multi-column keys as dense codes."""
    return _dense_codes([arrays])[0]


def _stable_order(codes: np.ndarray, size: int) -> np.ndarray:
    """Stable ascending order of codes in ``[0, size)``, 16 bits at a time
    from the low end: numpy radix-sorts 16-bit keys, and dense codes
    rarely need a second pass."""
    order = np.argsort(codes.astype(np.uint16), kind="stable")
    shift = 16
    while (size - 1) >> shift > 0:
        digit = (codes >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _group_runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: rows in stable code order and where each
    distinct code's run starts in it; ``order[starts]`` is the first
    occurrence of every code."""
    order = _stable_order(codes, int(codes.max(initial=0)) + 1)
    sorted_codes = codes[order]
    boundaries = np.empty(len(codes), dtype=bool)
    boundaries[:1] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundaries[1:])
    return order, np.flatnonzero(boundaries)


def _count_table(probe_codes: np.ndarray, build_codes: np.ndarray) -> np.ndarray:
    """Build rows per code, indexable by every code of either side."""
    return np.bincount(
        build_codes, minlength=int(probe_codes.max(initial=0)) + 1
    )


def _build_runs(
    table: np.ndarray, build_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The build rows in stable code order, and per code where its run
    starts in that order: counting replaces the search."""
    return _stable_order(build_codes, len(table)), np.cumsum(table) - table


def _equi_match(
    probe_codes: np.ndarray, build_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All matching (probe_idx, build_idx) pairs for equal dense codes,
    probe-major, build rows in ascending row index."""
    table = _count_table(probe_codes, build_codes)
    counts = table[probe_codes]
    probe_idx = np.repeat(np.arange(len(probe_codes)), counts)
    if len(probe_idx) == 0:
        return probe_idx, probe_idx
    order, starts = _build_runs(table, build_codes)
    # position in the build order = run start + rank within the probe's run
    shift = starts[probe_codes] - (np.cumsum(counts) - counts)
    build_idx = order[np.repeat(shift, counts) + np.arange(len(probe_idx))]
    return probe_idx, build_idx


def _combine(
    left: Frame, right: Frame, left_idx: np.ndarray, right_idx: np.ndarray
) -> Frame:
    out = Frame(n_rows=len(left_idx))
    for key in left.columns:
        out.adopt(key, left, key, left_idx)
    for key in right.columns:
        out.adopt(key, right, key, right_idx)
    return out


def _append_unmatched(
    joined: Frame, left: Frame, right: Frame, unmatched: np.ndarray
) -> Frame:
    """LEFT JOIN tail: unmatched left rows with invalid right columns.
    Right columns are decoded: the tail's filler is not in a dictionary."""
    n_extra = int(unmatched.sum())
    if n_extra == 0:
        return joined
    out = Frame(n_rows=joined.n_rows + n_extra)
    idx = np.flatnonzero(unmatched)
    for key, values in left.columns.items():
        out.columns[key] = np.concatenate([joined.columns[key], values[idx]])
        out.dtypes[key] = left.dtypes.get(key, "float")
        if key in left.dicts:
            out.dicts[key] = left.dicts[key]
        if key in joined.valid:
            tail = (
                left.valid[key][idx]
                if key in left.valid
                else np.ones(n_extra, dtype=bool)
            )
            out.valid[key] = np.concatenate([joined.valid[key], tail])
    for key in right.columns:
        head = joined.decoded(key)
        out.columns[key] = np.concatenate([head, _null_fill(head, n_extra)])
        out.dtypes[key] = right.dtypes.get(key, "float")
        existing = joined.valid.get(key, np.ones(joined.n_rows, dtype=bool))
        out.valid[key] = np.concatenate(
            [existing, np.zeros(n_extra, dtype=bool)]
        )
    return out


def _null_fill(values: np.ndarray, n: int) -> np.ndarray:
    if values.dtype.kind in ("U", "S"):
        return np.full(n, "", dtype=values.dtype)
    if values.dtype.kind == "f":
        return np.full(n, np.nan, dtype=values.dtype)
    return np.zeros(n, dtype=values.dtype)


def _agg_input(call: ast.FunctionCall, frame: Frame) -> np.ndarray:
    if call.star:
        return np.ones(frame.n_rows)
    if call.name == "COUNT":  # counts need equality only: codes will do
        return np.asarray(evaluate_coded(call.args[0], frame)[0])
    return np.asarray(evaluate(call.args[0], frame))


def _count_valid_mask(call: ast.FunctionCall, frame: Frame) -> np.ndarray | None:
    """Validity mask for COUNT(col) over outer-join output."""
    if call.star or not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Column):
        key = frame.resolve(arg)
        return frame.valid.get(key)
    return None


def _global_aggregate(call: ast.FunctionCall, frame: Frame) -> float:
    if frame.n_rows == 0:
        return 0.0 if call.name == "COUNT" else float("nan")
    if call.name == "COUNT":
        if call.star:
            return float(frame.n_rows)
        valid = _count_valid_mask(call, frame)
        values = _agg_input(call, frame)
        if call.distinct:
            if valid is not None:
                values = values[valid]
            return float(np.count_nonzero(np.bincount(_group_codes([values]))))
        return float(valid.sum()) if valid is not None else float(len(values))
    values = _agg_input(call, frame).astype(np.float64)
    if call.name == "SUM":
        return float(values.sum())
    if call.name == "AVG":
        return float(values.mean())
    if call.name == "MIN":
        return float(values.min())
    if call.name == "MAX":
        return float(values.max())
    raise ExecutionError(f"unsupported aggregate {call.name}")


def _grouped_aggregate(
    call: ast.FunctionCall,
    frame: Frame,
    order: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    group_of_sorted: np.ndarray,
) -> np.ndarray:
    n_groups = len(starts)
    if call.name == "COUNT" and call.star:
        return counts.astype(np.float64)

    values = _agg_input(call, frame)
    sorted_values = values[order]

    if call.name == "COUNT":
        valid = _count_valid_mask(call, frame)
        if call.distinct:
            pair_order, pair_starts = _group_runs(
                _group_codes([group_of_sorted, sorted_values])
            )
            first_idx = pair_order[pair_starts]
            groups_of_uniques = group_of_sorted[first_idx]
            if valid is not None:
                groups_of_uniques = groups_of_uniques[valid[order][first_idx]]
            return np.bincount(groups_of_uniques, minlength=n_groups).astype(
                np.float64
            )
        if valid is not None:
            valid_sorted = valid[order].astype(np.float64)
            return np.add.reduceat(valid_sorted, starts)
        return counts.astype(np.float64)

    numeric = sorted_values.astype(np.float64)
    if call.name == "SUM":
        return np.add.reduceat(numeric, starts)
    if call.name == "AVG":
        return np.add.reduceat(numeric, starts) / counts
    if call.name == "MIN":
        return np.minimum.reduceat(numeric, starts)
    if call.name == "MAX":
        return np.maximum.reduceat(numeric, starts)
    raise ExecutionError(f"unsupported aggregate {call.name}")


def _expr_dtype(expr: ast.Expr, frame: Frame) -> str:
    if isinstance(expr, ast.Column):
        try:
            return frame.dtype_of(frame.resolve(expr))
        except ExecutionError:
            return "float"
    if isinstance(expr, ast.Literal):
        return {"number": "float", "string": "str", "date": "date"}.get(
            expr.kind, "float"
        )
    if isinstance(expr, ast.FunctionCall) and expr.name.startswith("EXTRACT"):
        return "int"
    if isinstance(expr, ast.FunctionCall) and expr.name in ("SUBSTRING", "SUBSTR"):
        return "str"
    return "float"


_HANDLERS = {
    P.ScanNode: Executor._exec_scan,
    P.DerivedNode: Executor._exec_derived,
    P.FilterNode: Executor._exec_filter,
    P.SubqueryInFilterNode: Executor._exec_in_filter,
    P.HashJoinNode: Executor._exec_hash_join,
    P.IndexNLJoinNode: Executor._exec_inl_join,
    P.SemiJoinNode: Executor._exec_semi_join,
    P.AggCompareNode: Executor._exec_agg_compare,
    P.AggregateNode: Executor._exec_aggregate,
    P.ProjectNode: Executor._exec_project,
    P.DistinctNode: Executor._exec_distinct,
    P.SortNode: Executor._exec_sort,
    P.LimitNode: Executor._exec_limit,
    P.ProjectedSingle: Executor._exec_projected_single,
}
