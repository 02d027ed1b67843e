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

Key handling has one encoder and one matcher. ``_dense_codes`` turns
grouping and sorting keys into dense non-negative order-preserving
``int64`` codes (``value - min`` for integer-like columns, dictionary
codes included, ``np.unique`` otherwise). Every equi-join, semi-join and
correlated-aggregate match probes a :class:`~repro.minidb.storage.KeyIndex`
over its build side (``_join_index``): a base table scanned whole, as the
build side of a hash join or the inner side of an index nested-loop
join, is probed through the index the table keeps per key tuple
(``Table.key_index``), so its keys are encoded and sorted once, not per
query; any other build side is indexed for the call.

A cached plan computes once whatever its inputs cannot change. A plan
served from a plan-cache entry shares the entry's own nodes wherever no
literal beneath them changed (``PlanRebinder``), and such a node yields
the same frame on every run while the column arrays it read are
unchanged. The entry therefore owns a :class:`RecycledResults`: the
first run of the topmost shared node keeps its frame, the exact sequence
of cost charges and the rows-scanned count it produced, and later runs
replay the charges with the same ``+=`` and take the frame instead of
executing the subtree. Joins and unfiltered scans are not kept (see
:class:`RecycledResults`); nothing below a kept node is. The entry also
keeps the root result of every binding it serves (up to
``plancache.RESULTS_PER_ENTRY``), so a repeated binding is served whole,
with its final cost and rows scanned. Operators never write to an input
frame, so a kept frame may serve any query on any thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, NamedTuple

import numpy as np

from repro.errors import ExecutionError
from repro.minidb.catalog import Catalog
from repro.minidb.expressions import COMPARISONS, Frame, evaluate, evaluate_coded
from repro.minidb.optimizer import CostModel
from repro.minidb import planner as P
from repro.minidb.storage import MAX_KEY_SPAN, KeyIndex, Table, stable_order
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


class _Layout(NamedTuple):
    """What every kept root of one entry shares: the frame's column keys,
    dtypes and dictionaries, and the arrays the plan read."""

    keys: tuple
    dtypes: dict
    dicts: dict
    read: tuple


class _Root(NamedTuple):
    """One binding's root result: the frame's arrays in ``layout.keys``
    order, its validity masks, and the final cost sum and rows scanned
    (a root's sum starts at 0.0, so one value replays it exactly)."""

    arrays: tuple
    valid: tuple  # (key, mask) pairs
    n_rows: int
    cost: float
    rows_scanned: int
    layout: _Layout


# Never kept, by measurement: join outputs fan out and hold a gathered
# copy of every input column (Q9 4.6 MB, Q19 3.8 MB, Q7 2.1 MB per TPC-H
# ``Database`` at exec scale 0.01). Keeping them as well took
# ``wire_tpch_hot`` CPU per query down 26–31 % instead of 23–27 %, but
# peak memory up 12 % (129 → 144 MB) instead of about 1 %.
_NOT_KEPT = (P.HashJoinNode, P.IndexNLJoinNode)


class RecycledResults:
    """Kept results of one cached plan: its literal-free subtrees, and
    the root result of each binding it served.

    Owned by the plan-cache entry holding ``plan`` and dropped with it.
    ``nodes`` holds the ids of the plan's nodes worth keeping: all but
    joins and unfiltered scans (a view of a table: nothing to save). A
    join's inputs are still kept. Concurrent first runs of a node store
    equal results; the last store wins. The plan is held so its nodes'
    ids stay theirs.

    ``roots`` maps a binding (see :class:`Recycling`) to its root result,
    at most ``limit`` of them, least recently used first. Every binding
    of the entry runs a plan of one shape, so its roots share one
    ``_Layout`` while the arrays they read are unchanged.
    """

    __slots__ = ("plan", "nodes", "kept", "limit", "roots", "layout", "_lock")

    def __init__(self, plan: P.PlanNode, limit: int) -> None:
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
        self.limit = limit
        self.roots: OrderedDict[Hashable, _Root] = OrderedDict()
        self.layout: _Layout | None = None
        self._lock = threading.Lock()

    def take_root(
        self, key: Hashable, tables: dict[str, Table], stats: ExecutionStats
    ) -> Frame | None:
        """The kept root result of binding ``key`` with its cost and rows
        scanned set on ``stats``; None when none is kept or a column it
        read holds another array now."""
        with self._lock:
            root = self.roots.get(key)
            if root is None:
                return None
            self.roots.move_to_end(key)
        layout = root.layout
        if not _unchanged(tables, layout.read):
            return None
        stats.cost_units = root.cost
        stats.rows_scanned = root.rows_scanned
        stats.recycled = 1
        return Frame(
            columns=dict(zip(layout.keys, root.arrays)),
            dtypes=dict(layout.dtypes),
            valid=dict(root.valid),
            n_rows=root.n_rows,
            dicts=dict(layout.dicts),
        )

    def keep_root(
        self, key: Hashable, frame: Frame, stats: ExecutionStats, read: tuple
    ) -> None:
        """Keep binding ``key``'s root result, evicting the least recently
        used one past ``limit``."""
        keys = tuple(frame.columns)
        layout = self.layout
        if layout is None or not _same_layout(layout, keys, frame, read):
            layout = _Layout(keys, dict(frame.dtypes), dict(frame.dicts), read)
            self.layout = layout
        root = _Root(
            tuple(frame.columns.values()),
            tuple(frame.valid.items()),
            frame.n_rows,
            stats.cost_units,
            stats.rows_scanned,
            layout,
        )
        with self._lock:
            self.roots[key] = root
            self.roots.move_to_end(key)
            if len(self.roots) > self.limit:
                self.roots.popitem(last=False)


def _same_layout(layout: _Layout, keys: tuple, frame: Frame, read: tuple) -> bool:
    """May a root of ``frame`` (which read ``read``) share ``layout``?"""
    return (
        layout.keys == keys
        and layout.dtypes == frame.dtypes
        and layout.dicts.keys() == frame.dicts.keys()
        and all(layout.dicts[k] is d for k, d in frame.dicts.items())
        and len(layout.read) == len(read)
        and all(
            a[0] == b[0] and a[1] == b[1] and a[2] is b[2]
            for a, b in zip(layout.read, read)
        )
    )


def _unchanged(tables: dict[str, Table], read: tuple) -> bool:
    """Does every column a kept result read still hold the array it read?
    (``Table.encoded``'s rule: replacing a column's array without
    ``load_table`` is allowed.)"""
    for name, column, values in read:
        table = tables.get(name)
        if table is None or table.columns.get(column) is not values:
            return False
    return True


class Recycling(NamedTuple):
    """What a plan-cache entry hands one execution: its kept results, and
    the served binding's key — its literal values *with their types*
    (``2 == 2.0``, but they compute apart)."""

    results: RecycledResults
    key: Hashable


class Executor:
    """Executes a physical plan against materialized tables.

    With ``recycling`` (from the serving plan-cache entry), a binding's
    kept root result is served whole; otherwise the plan runs, the
    topmost node of it that belongs to the entry's plan and is worth
    keeping is taken from the entry or run once and kept, and the root
    result is kept for the binding.
    """

    def __init__(
        self,
        tables: dict[str, Table],
        catalog: Catalog,
        cost_model: CostModel | None = None,
        recycling: Recycling | None = None,
    ) -> None:
        self._tables = tables
        self._catalog = catalog
        self._cost = cost_model or CostModel()
        self._mult = catalog.virtual_row_multiplier
        self._recycling = recycling
        self._recycled = None if recycling is None else recycling.results
        self._read: list | None = None  # columns read by a run being kept

    def run(self, plan: P.PlanNode) -> tuple[Frame, ExecutionStats]:
        """Execute ``plan``; returns the result frame and cost counters."""
        stats = ExecutionStats()
        recycling = self._recycling
        if recycling is None:
            frame = self._exec(plan, stats)
        else:
            results, key = recycling
            frame = results.take_root(key, self._tables, stats)
            if frame is None:
                self._read = []
                try:
                    frame = self._exec(plan, stats)
                    results.keep_root(key, frame, stats, tuple(self._read))
                finally:
                    self._read = None
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
        and keep its result. A run being kept around it reads what the
        kept result read."""
        recycled, outer = self._recycled, self._read
        kept = recycled.kept.get(id(node))
        if kept is not None and _unchanged(self._tables, kept.read):
            stats.recycled += 1
        else:
            log = ExecutionStats(cost_units=_ChargeLog())
            self._recycled, self._read = None, []
            try:
                frame = handler(self, node, log)
                read = tuple(self._read)
            finally:
                self._recycled, self._read = recycled, outer
            kept = _Kept(frame, tuple(log.cost_units.charges), log.rows_scanned, read)
            recycled.kept[id(node)] = kept
        if outer is not None:
            outer.extend(kept.read)
        for charge in kept.charges:
            stats.cost_units += charge
        stats.rows_scanned += kept.rows_scanned
        return kept.frame

    def _note_read(self, name: str, table: Table, columns: tuple[str, ...]) -> None:
        """While a run is being kept, record the arrays a scan is about to
        read. A scan of no columns still reads its row count off the
        table's first column."""
        if self._read is not None:
            for column in columns or tuple(table.columns)[:1]:
                self._read.append((name, column, table.columns.get(column)))

    def _whole_table(self, node: P.PlanNode) -> tuple[Table, str] | None:
        """``(table, binding)`` when ``node`` scans a table whole, row for
        row; None for any other node."""
        if isinstance(node, P.ScanNode) and not node.predicates:
            return self._tables[node.table], node.binding
        return None

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
            index, probe = _join_index(
                left,
                [left.resolve(k) for k in node.left_keys],
                right,
                [right.resolve(k) for k in node.right_keys],
                self._whole_table(node.right),
            )
            left_idx, right_idx = index.pairs(probe)

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

        index, probe = _join_index(
            outer,
            [outer.resolve(k) for k in node.outer_keys],
            inner,
            [inner.resolve(k) for k in node.inner_keys],
            (table, node.inner_binding),
        )
        outer_idx, inner_idx = index.pairs(probe)
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

        index, probe = _join_index(
            child,
            [child.resolve(k) for k in node.outer_keys],
            inner,
            list(node.inner_keys),
        )
        if node.residual is None:
            has_match = index.runs(probe)[1] > 0
        else:
            outer_idx, inner_idx = index.pairs(probe)
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

        index, probe = _join_index(
            child,
            [child.resolve(k) for k in node.outer_keys],
            inner,
            list(node.inner_key_names),
        )
        # each outer row compares against the first inner row with its key
        starts, counts = index.runs(probe)
        found = counts > 0
        mapped = np.zeros(child.n_rows, dtype=np.float64)
        mapped[found] = inner.columns[node.value_name][index.order[starts[found]]]

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
        if span * column_span > MAX_KEY_SPAN:
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


def _join_index(
    probe: Frame,
    probe_keys: list[str],
    build: Frame,
    build_keys: list[str],
    scan: tuple[Table, str] | None = None,
) -> tuple[KeyIndex, list[np.ndarray]]:
    """The index an equi-join probes, and the probe's key columns for it.

    A key pair whose sides hold codes into one dictionary matches on the
    codes. When every pair is integer-like, the build's own key columns
    are indexed: the table's ``key_index`` when ``scan`` says ``build``
    is a whole scan of a table under a binding, built for this call
    otherwise. Any other pair compares in the two sides' common
    dtype: every key is then encoded jointly over both sides and the
    build's codes are indexed for this call.
    """
    probe_columns, build_columns = [], []
    integral = True
    for probe_key, build_key in zip(probe_keys, build_keys):
        dictionary = probe.dicts.get(probe_key)
        if dictionary is not None and dictionary is build.dicts.get(build_key):
            probe_columns.append(probe.columns[probe_key])
            build_columns.append(build.columns[build_key])
            continue
        probe_values = probe.decoded(probe_key)
        build_values = build.decoded(build_key)
        integral = (
            integral
            and probe_values.dtype.kind in "bi"
            and build_values.dtype.kind in "bi"
        )
        probe_columns.append(probe_values)
        build_columns.append(build_values)
    index = None
    if integral and probe_columns:
        if scan is not None:
            table, binding = scan
            columns = tuple([key[len(binding) + 1 :] for key in build_keys])
            index = table.key_index(columns)
        else:
            index = KeyIndex.build(build_columns, probe.n_rows)
    if index is None:
        probe_codes, build_codes = _composite_codes(probe_columns, build_columns)
        index = KeyIndex.build([build_codes], probe.n_rows)
        probe_columns = [probe_codes]
    return index, probe_columns


def _scan_frame(table: Table, binding: str, columns: tuple[str, ...]) -> Frame:
    """A base table's columns under ``binding``; text columns as codes
    into the table's dictionary."""
    frame = Frame(n_rows=table.n_rows)
    for col in columns:
        key = f"{binding}.{col}"
        frame.columns[key], dictionary = table.scanned(col)
        frame.dtypes[key] = table.dtypes[col]
        if dictionary is not None:
            frame.dicts[key] = dictionary
    return frame


def _group_codes(arrays: list[np.ndarray]) -> np.ndarray:
    """Encode one frame's multi-column keys as dense codes."""
    return _dense_codes([arrays])[0]


def _group_runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: rows in stable code order and where each
    distinct code's run starts in it; ``order[starts]`` is the first
    occurrence of every code."""
    order = stable_order(codes, int(codes.max(initial=0)) + 1)
    sorted_codes = codes[order]
    boundaries = np.empty(len(codes), dtype=bool)
    boundaries[:1] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundaries[1:])
    return order, np.flatnonzero(boundaries)


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
