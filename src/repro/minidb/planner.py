"""Query planner: AST → annotated physical plan.

The planner qualifies every column reference with its binding, splits
the WHERE clause into join edges / local filters / subquery predicates,
chooses access paths (sequential scan vs. index seek) and join
algorithms (hash vs. index nested loop) by estimated cost, orders joins
greedily by estimated output cardinality, and decorrelates the three
subquery shapes TPC-H needs:

* uncorrelated ``IN (subquery)``  → :class:`SubqueryInFilterNode`
* correlated ``EXISTS``           → :class:`SemiJoinNode`
* correlated scalar aggregate     → :class:`AggCompareNode`

Every node carries ``est_rows``/``est_cost`` (the optimizer's view) so
the executor can later report the same formulas over *true* counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import PlanningError
from repro.minidb.catalog import Catalog
from repro.minidb.indexes import Index, IndexConfig
from repro.minidb.optimizer import (
    CostModel,
    HAVING_SELECTIVITY,
    SEMIJOIN_IN_SELECTIVITY,
    SelectivityEstimator,
)
from repro.sql import ast

# ---------------------------------------------------------------------------
# plan nodes
# ---------------------------------------------------------------------------


@dataclass
class PlanNode:
    est_rows: float = 0.0
    est_cost: float = 0.0  # cumulative, includes children

    def children(self) -> list["PlanNode"]:
        """Child plans in field order, scalar subplans included."""
        out: list[PlanNode] = []
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value.values() if isinstance(value, dict) else (value,):
                if isinstance(v, PlanNode):
                    out.append(v)
        return out

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        head = (
            f"{pad}{type(self).__name__}"
            f" [rows≈{self.est_rows:.0f} cost≈{self.est_cost:.0f}]"
        )
        lines = [head]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


@dataclass
class ScanNode(PlanNode):
    table: str = ""
    binding: str = ""
    columns: tuple[str, ...] = ()
    predicates: tuple[ast.Expr, ...] = ()
    index: Index | None = None
    seek_predicate: ast.Expr | None = None
    covering: bool = False


@dataclass
class DerivedNode(PlanNode):
    """A planned subquery exposed under an alias (derived table)."""

    child: PlanNode | None = None
    alias: str = ""
    output_names: tuple[str, ...] = ()


@dataclass
class FilterNode(PlanNode):
    child: PlanNode | None = None
    predicate: ast.Expr | None = None
    # plans for uncorrelated scalar subqueries inside the predicate
    scalar_subplans: dict[int, PlanNode] = field(default_factory=dict)


@dataclass
class SubqueryInFilterNode(PlanNode):
    """Uncorrelated ``expr IN (subquery)`` (TPC-H Q18's shape)."""

    child: PlanNode | None = None
    expr: ast.Expr | None = None
    subplan: PlanNode | None = None
    negated: bool = False


@dataclass
class HashJoinNode(PlanNode):
    join_type: str = "inner"  # "inner" | "left"
    left: PlanNode | None = None
    right: PlanNode | None = None
    left_keys: tuple[ast.Column, ...] = ()
    right_keys: tuple[ast.Column, ...] = ()
    residual: ast.Expr | None = None


@dataclass
class IndexNLJoinNode(PlanNode):
    """Index nested-loop join probing a base-table index per outer row."""

    outer: PlanNode | None = None
    inner_table: str = ""
    inner_binding: str = ""
    inner_columns: tuple[str, ...] = ()
    inner_filters: tuple[ast.Expr, ...] = ()
    index: Index | None = None
    covering: bool = False
    outer_keys: tuple[ast.Column, ...] = ()
    inner_keys: tuple[ast.Column, ...] = ()
    residual: ast.Expr | None = None


@dataclass
class SemiJoinNode(PlanNode):
    """(NOT) EXISTS decorrelated into a (anti-)semi-join with residual."""

    child: PlanNode | None = None
    inner: PlanNode | None = None
    outer_keys: tuple[ast.Column, ...] = ()
    inner_keys: tuple[str, ...] = ()  # column keys in the inner output frame
    residual: ast.Expr | None = None  # evaluated over outer ⊕ inner pair frame
    negated: bool = False
    # inner output name -> qualified key the residual expects (l2__x -> l2.x)
    inner_rename: dict[str, str] = field(default_factory=dict)


@dataclass
class AggCompareNode(PlanNode):
    """Correlated scalar-aggregate subquery decorrelated to group+map.

    ``inner`` is already grouped by the correlation keys and exposes the
    aggregate under ``value_name``; rows of ``child`` survive when
    ``outer_expr  op  mapped_value`` holds (missing key → drop).
    """

    child: PlanNode | None = None
    inner: PlanNode | None = None
    outer_keys: tuple[ast.Column, ...] = ()
    inner_key_names: tuple[str, ...] = ()
    value_name: str = "__value"
    op: str = "="
    outer_expr: ast.Expr | None = None


@dataclass
class AggregateSpec:
    """One aggregate computation: synthetic name + call."""

    name: str
    call: ast.FunctionCall


@dataclass
class AggregateNode(PlanNode):
    child: PlanNode | None = None
    group_exprs: tuple[tuple[str, ast.Expr], ...] = ()  # (output name, expr)
    aggregates: tuple[AggregateSpec, ...] = ()
    having: ast.Expr | None = None  # aggregates rewritten to synthetic cols
    scalar_subplans: dict[int, PlanNode] = field(default_factory=dict)


@dataclass
class ProjectNode(PlanNode):
    child: PlanNode | None = None
    items: tuple[tuple[str, ast.Expr], ...] = ()  # (output name, expr)


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode | None = None


@dataclass
class SortNode(PlanNode):
    child: PlanNode | None = None
    keys: tuple[tuple[str, bool], ...] = ()  # (output column, ascending)


@dataclass
class LimitNode(PlanNode):
    child: PlanNode | None = None
    limit: int = 0


@dataclass
class ProjectedSingle(PlanNode):
    """Wrapper exposing a subplan's output names to executor helpers."""

    child: PlanNode | None = None
    output_names: tuple[str, ...] = ()


def _projected(child: PlanNode, names: list[str]) -> ProjectedSingle:
    return ProjectedSingle(
        est_rows=child.est_rows,
        est_cost=child.est_cost,
        child=child,
        output_names=tuple(names),
    )


# ---------------------------------------------------------------------------
# scopes
# ---------------------------------------------------------------------------


@dataclass
class _Binding:
    """One FROM-clause relation in scope."""

    binding: str
    table: str | None  # None for derived tables
    columns: set[str]
    derived: PlanNode | None = None


class _Scope:
    """Column-name resolution across bindings, with outer-scope chaining."""

    def __init__(self, bindings: list[_Binding], outer: "_Scope | None" = None):
        self.bindings = {b.binding: b for b in bindings}
        self.outer = outer

    def resolve(self, column: ast.Column) -> tuple[str, bool]:
        """Return (binding, is_outer); raises when unknown/ambiguous."""
        if column.table is not None:
            if column.table in self.bindings:
                return column.table, False
            if self.outer is not None:
                binding, _ = self.outer.resolve(column)
                return binding, True
            raise PlanningError(f"unknown relation {column.table}")
        owners = [
            name for name, b in self.bindings.items() if column.name in b.columns
        ]
        if len(owners) == 1:
            return owners[0], False
        if len(owners) > 1:
            raise PlanningError(f"ambiguous column {column.name}: {owners}")
        if self.outer is not None:
            binding, _ = self.outer.resolve(column)
            return binding, True
        raise PlanningError(f"unknown column {column.name}")


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


class Planner:
    """Plans one statement against a catalog + index configuration."""

    def __init__(
        self,
        catalog: Catalog,
        config: IndexConfig | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self._catalog = catalog
        self._config = config or IndexConfig()
        self._cost = cost_model or CostModel()
        self._estimator = SelectivityEstimator(catalog)
        self._counter = 0

    def plan(self, stmt: ast.SelectStatement) -> PlanNode:
        """Produce the physical plan for ``stmt``."""
        node, _ = self._plan_select(stmt, outer_scope=None)
        return node

    # -- statement planning -------------------------------------------------

    def _plan_select(
        self, stmt: ast.SelectStatement, outer_scope: _Scope | None
    ) -> tuple[PlanNode, list[str]]:
        bindings, on_conjuncts, left_specs = self._collect_bindings(
            stmt, outer_scope
        )
        scope = _Scope(bindings, outer_scope)

        conjuncts = _split_and(stmt.where)
        join_edges: dict[frozenset[str], list[tuple[ast.Column, ast.Column]]] = {}
        local_filters: dict[str, list[ast.Expr]] = {b.binding: [] for b in bindings}
        pending: list[tuple[frozenset[str], str, object]] = []
        # a LEFT JOIN's right side: a predicate reading it must see the
        # join's output (unmatched rows included), not filter below it
        nullable = frozenset(right for _, right, _ in left_specs)

        for conjunct in conjuncts + on_conjuncts:
            self._classify_conjunct(
                conjunct, scope, join_edges, local_filters, pending, nullable
            )

        used_columns = self._collect_used_columns(
            stmt, scope, on_conjuncts, left_specs
        )

        access: dict[str, PlanNode] = {}
        for b in bindings:
            access[b.binding] = self._access_path(
                b, local_filters[b.binding], used_columns.get(b.binding, set())
            )

        # attach single-binding pending predicates before joining
        attached: set[int] = set()
        for i, (needed, kind, payload) in enumerate(pending):
            if len(needed) == 1 and not needed & nullable:
                binding = next(iter(needed))
                access[binding] = self._attach_pending(
                    access[binding], kind, payload, scope
                )
                attached.add(i)
        pending = [p for i, p in enumerate(pending) if i not in attached]

        node = self._order_joins(access, join_edges, pending, scope, left_specs)

        node, output_names = self._plan_projection(node, stmt, scope)
        return node, output_names

    # -- FROM clause -----------------------------------------------------------

    def _collect_bindings(
        self, stmt: ast.SelectStatement, outer_scope: _Scope | None
    ) -> tuple[
        list[_Binding],
        list[ast.Expr],
        list[tuple[str, str, ast.Expr | None]],
    ]:
        """FROM clause → (bindings, inner-join ON conjuncts, LEFT specs)."""
        bindings: list[_Binding] = []
        on_conjuncts: list[ast.Expr] = []
        left_specs: list[tuple[str, str, ast.Expr | None]] = []

        def visit(rel: ast.Relation) -> None:
            if isinstance(rel, ast.TableRef):
                table = self._catalog.table(rel.name)
                bindings.append(
                    _Binding(rel.binding, rel.name, set(table.columns))
                )
                return
            if isinstance(rel, ast.SubqueryRef):
                sub_plan, names = self._plan_select(rel.subquery, outer_scope)
                derived = DerivedNode(
                    child=sub_plan,
                    alias=rel.alias,
                    output_names=tuple(names),
                    est_rows=sub_plan.est_rows,
                    est_cost=sub_plan.est_cost,
                )
                bindings.append(
                    _Binding(rel.alias, None, set(names), derived=derived)
                )
                return
            if isinstance(rel, ast.Join):
                visit(rel.left)
                right_before = len(bindings)
                visit(rel.right)
                if rel.kind in ("INNER", "CROSS"):
                    if rel.condition is not None:
                        on_conjuncts.extend(_split_and(rel.condition))
                elif rel.kind == "LEFT":
                    right_binding = bindings[right_before].binding
                    left_binding = bindings[right_before - 1].binding
                    left_specs.append((left_binding, right_binding, rel.condition))
                else:
                    raise PlanningError(f"unsupported join kind {rel.kind}")
                return
            raise PlanningError(f"unsupported relation {rel!r}")

        for rel in stmt.relations:
            visit(rel)
        return bindings, on_conjuncts, left_specs

    # -- predicate classification -------------------------------------------------

    def _classify_conjunct(
        self,
        conjunct: ast.Expr,
        scope: _Scope,
        join_edges: dict[frozenset[str], list[tuple[ast.Column, ast.Column]]],
        local_filters: dict[str, list[ast.Expr]],
        pending: list[tuple[frozenset[str], str, object]],
        nullable: frozenset[str],
    ) -> None:
        """File one WHERE or inner-join ON conjunct: as a join edge, a
        scan filter of one binding, or a pending predicate attached once
        every binding it needs is joined. One that reads a ``nullable``
        binding (a LEFT JOIN's right side) is never an edge or a scan
        filter: it waits for that join."""
        # join edge: col = col across two bindings
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.Column)
            and isinstance(conjunct.right, ast.Column)
        ):
            lb, l_outer = scope.resolve(conjunct.left)
            rb, r_outer = scope.resolve(conjunct.right)
            if not l_outer and not r_outer and lb != rb and not {lb, rb} & nullable:
                left = ast.Column(conjunct.left.name, lb)
                right = ast.Column(conjunct.right.name, rb)
                join_edges.setdefault(frozenset((lb, rb)), []).append((left, right))
                return

        # NOT EXISTS / NOT IN arrive as UnaryOp(NOT, ...); unwrap them
        negate = False
        inner = conjunct
        while isinstance(inner, ast.UnaryOp) and inner.op == "NOT":
            negate = not negate
            inner = inner.operand

        if isinstance(inner, ast.InSubquery):
            qualified = self._qualify(inner.expr, scope)
            refs = _referenced_bindings(qualified, scope)
            pending.append((frozenset(refs), "in_subquery",
                            (qualified, inner.subquery, inner.negated ^ negate)))
            return

        if isinstance(inner, ast.Exists):
            info = self._analyze_correlation(inner.subquery, scope)
            pending.append(
                (frozenset(info["outer_bindings"]) or self._any_binding(scope),
                 "exists", (info, inner.negated ^ negate))
            )
            return

        scalar_cmp = _match_scalar_compare(conjunct)
        if scalar_cmp is not None:
            outer_expr, op, subquery = scalar_cmp
            info = self._analyze_correlation(subquery, scope)
            if info["correlated"]:
                qualified = self._qualify(outer_expr, scope)
                refs = set(_referenced_bindings(qualified, scope))
                refs |= set(info["outer_bindings"])
                pending.append(
                    (frozenset(refs), "agg_compare", (qualified, op, info))
                )
                return
            # uncorrelated scalar subquery: fall through as a pending
            # filter so its subplan gets planned (the executor resolves
            # it by running the subplan once).

        qualified = self._qualify(conjunct, scope)
        refs = _referenced_bindings(qualified, scope)
        if _contains_scalar_subquery(qualified):
            target = refs or {next(iter(scope.bindings))}
            pending.append((frozenset(target), "filter", qualified))
        elif len(refs) == 1 and not refs & nullable:
            local_filters[next(iter(refs))].append(qualified)
        else:
            pending.append((frozenset(refs), "filter", qualified))

    def _any_binding(self, scope: _Scope) -> frozenset[str]:
        return frozenset([next(iter(scope.bindings))])

    # -- correlation analysis ---------------------------------------------------

    def _analyze_correlation(
        self, subquery: ast.SelectStatement, outer_scope: _Scope
    ) -> dict:
        """Split a subquery's WHERE into local and correlation conjuncts.

        Correlation conjuncts must be equality or comparison between an
        inner column and an outer column; anything else stays residual
        (evaluated over matched pairs).
        """
        inner_bindings = self._peek_bindings(subquery)
        inner_scope = _Scope(inner_bindings, outer_scope)
        eq_pairs: list[tuple[ast.Column, ast.Column]] = []  # (outer, inner)
        residual: list[ast.Expr] = []
        local: list[ast.Expr] = []
        outer_bindings: set[str] = set()

        for conjunct in _split_and(subquery.where):
            qualified = self._qualify(conjunct, inner_scope)
            inner_refs, outer_refs = _split_refs(qualified, inner_scope)
            if not outer_refs:
                local.append(conjunct)
                continue
            outer_bindings |= outer_refs
            pair = _match_eq_columns(qualified)
            if pair is not None:
                a, b = pair
                a_outer = a.table not in inner_scope.bindings
                b_outer = b.table not in inner_scope.bindings
                if a_outer != b_outer:
                    outer_col, inner_col = (a, b) if a_outer else (b, a)
                    eq_pairs.append((outer_col, inner_col))
                    continue
            residual.append(qualified)

        return {
            "correlated": bool(outer_bindings),
            "subquery": subquery,
            "local": local,
            "eq_pairs": eq_pairs,
            "residual": residual,
            "outer_bindings": sorted(outer_bindings),
        }

    def _peek_bindings(self, stmt: ast.SelectStatement) -> list[_Binding]:
        """Bindings of a subquery without planning it (for scoping)."""
        bindings: list[_Binding] = []

        def visit(rel: ast.Relation) -> None:
            if isinstance(rel, ast.TableRef):
                table = self._catalog.table(rel.name)
                bindings.append(_Binding(rel.binding, rel.name, set(table.columns)))
            elif isinstance(rel, ast.SubqueryRef):
                names = {item.output_name for item in rel.subquery.items}
                bindings.append(_Binding(rel.alias, None, names))
            else:
                visit(rel.left)
                visit(rel.right)

        for rel in stmt.relations:
            visit(rel)
        return bindings

    # -- qualification -----------------------------------------------------------

    def _qualify(self, expr: ast.Expr, scope: _Scope) -> ast.Expr:
        """Rewrite every column reference to carry its binding."""
        if isinstance(expr, ast.Column):
            binding, _ = scope.resolve(expr)
            return ast.Column(expr.name, binding)
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op, self._qualify(expr.left, scope), self._qualify(expr.right, scope)
            )
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, self._qualify(expr.operand, scope))
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(
                expr.name,
                tuple(self._qualify(a, scope) for a in expr.args),
                expr.distinct,
                expr.star,
            )
        if isinstance(expr, ast.CaseExpr):
            return ast.CaseExpr(
                tuple(
                    (self._qualify(c, scope), self._qualify(v, scope))
                    for c, v in expr.whens
                ),
                None if expr.default is None else self._qualify(expr.default, scope),
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                self._qualify(expr.expr, scope),
                tuple(self._qualify(i, scope) for i in expr.items),
                expr.negated,
            )
        if isinstance(expr, ast.Between):
            return ast.Between(
                self._qualify(expr.expr, scope),
                self._qualify(expr.low, scope),
                self._qualify(expr.high, scope),
                expr.negated,
            )
        if isinstance(expr, ast.Like):
            return ast.Like(
                self._qualify(expr.expr, scope), expr.pattern, expr.negated
            )
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(self._qualify(expr.expr, scope), expr.negated)
        return expr  # literals, subqueries (handled separately)

    def _collect_used_columns(
        self,
        stmt: ast.SelectStatement,
        scope: _Scope,
        on_conjuncts: list[ast.Expr] | None = None,
        left_specs: list[tuple[str, str, ast.Expr | None]] | None = None,
    ) -> dict[str, set[str]]:
        """Per-binding referenced columns, for scan pruning and covering."""
        used: dict[str, set[str]] = {}

        def note(expr: ast.Expr) -> None:
            if isinstance(expr, ast.Column):
                try:
                    binding, is_outer = scope.resolve(expr)
                except PlanningError:
                    return
                if not is_outer:
                    used.setdefault(binding, set()).add(expr.name)
                return
            if isinstance(expr, ast.Star):
                for name, b in scope.bindings.items():
                    if expr.table is None or expr.table == name:
                        used.setdefault(name, set()).update(b.columns)
                return
            if isinstance(expr, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                if isinstance(expr, ast.InSubquery):
                    note(expr.expr)
                # correlation columns referenced inside the subquery
                # that resolve in *this* scope must be loaded here
                note_subquery(expr.subquery)
                return
            for child in ast.iter_children(expr):
                note(child)

        def note_subquery(sub: ast.SelectStatement) -> None:
            for clause in (sub.where, sub.having):
                if clause is not None:
                    for col in ast.iter_columns(clause):
                        note(col)
            for item in sub.items:
                if not isinstance(item.expr, ast.Star):
                    for col in ast.iter_columns(item.expr):
                        note(col)

        for item in stmt.items:
            note(item.expr)
        for clause in (stmt.where, stmt.having):
            if clause is not None:
                note(clause)
        for expr in stmt.group_by:
            note(expr)
        for order in stmt.order_by:
            note(order.expr)
        # join/filter columns already covered by WHERE traversal; also ON
        for conjunct in on_conjuncts or []:
            note(conjunct)
        for _, _, cond in left_specs or []:
            if cond is not None:
                note(cond)
        for b in scope.bindings.values():
            used.setdefault(b.binding, set())
            if not used[b.binding]:
                used[b.binding] = {next(iter(b.columns))} if b.columns else set()
        return used

    # -- access paths ------------------------------------------------------------

    def _access_path(
        self, binding: _Binding, filters: list[ast.Expr], needed: set[str]
    ) -> PlanNode:
        if binding.derived is not None:
            node = binding.derived
            if filters:
                sel = 0.5 ** len(filters)
                node = FilterNode(
                    child=node,
                    predicate=_and_all(filters),
                    est_rows=max(1.0, node.est_rows * sel),
                    est_cost=node.est_cost
                    + node.est_rows * self._cost.filter_eval,
                )
            return node

        assert binding.table is not None
        table_meta = self._catalog.table(binding.table)
        base_rows = self._catalog.scaled_rows(binding.table)
        total_sel = 1.0
        for f in filters:
            total_sel *= self._estimator.predicate_selectivity(f, table_meta)
        out_rows = max(1.0, base_rows * total_sel)

        columns = tuple(sorted(needed | _filter_columns(filters)))

        best: ScanNode | None = None
        # option: sequential scan
        seq_cost = self._cost.scan(base_rows) + base_rows * self._cost.filter_eval * len(
            filters
        )
        best = ScanNode(
            est_rows=out_rows,
            est_cost=seq_cost,
            table=binding.table,
            binding=binding.binding,
            columns=columns,
            predicates=tuple(filters),
        )
        # option: index seek (leading-column predicate) or covering scan
        for index in self._config.for_table(binding.table):
            covering = index.covers(set(columns))
            seek = _seekable_filter(filters, index.key_column)
            if seek is not None:
                seek_sel = self._estimator.predicate_selectivity(seek, table_meta)
                matched = max(1.0, base_rows * seek_sel)
                cost = self._cost.index_seek(matched, covering)
                cost += matched * self._cost.filter_eval * (len(filters) - 1)
                if cost < best.est_cost:
                    best = ScanNode(
                        est_rows=out_rows,
                        est_cost=cost,
                        table=binding.table,
                        binding=binding.binding,
                        columns=columns,
                        predicates=tuple(filters),
                        index=index,
                        seek_predicate=seek,
                        covering=covering,
                    )
            elif covering:
                # index-only full scan: narrower rows, same result
                cost = self._cost.scan(base_rows, covering_index=True)
                cost += base_rows * self._cost.filter_eval * len(filters)
                if cost < best.est_cost:
                    best = ScanNode(
                        est_rows=out_rows,
                        est_cost=cost,
                        table=binding.table,
                        binding=binding.binding,
                        columns=columns,
                        predicates=tuple(filters),
                        index=index,
                        seek_predicate=None,
                        covering=True,
                    )
        return best

    # -- pending predicate attachment ------------------------------------------------

    def _attach_pending(
        self, node: PlanNode, kind: str, payload, scope: _Scope
    ) -> PlanNode:
        if kind == "filter":
            predicate = payload
            subplans = self._plan_scalar_subqueries(predicate, scope)
            sel = 0.33
            return FilterNode(
                child=node,
                predicate=predicate,
                scalar_subplans=subplans,
                est_rows=max(1.0, node.est_rows * sel),
                est_cost=node.est_cost
                + node.est_rows * self._cost.filter_eval
                + sum(p.est_cost for p in subplans.values()),
            )
        if kind == "in_subquery":
            expr, subquery, negated = payload
            subplan, names = self._plan_select(subquery, outer_scope=None)
            sel = 0.9 if negated else SEMIJOIN_IN_SELECTIVITY
            return SubqueryInFilterNode(
                child=node,
                expr=expr,
                subplan=_projected(subplan, names),
                negated=negated,
                est_rows=max(1.0, node.est_rows * sel),
                est_cost=node.est_cost
                + subplan.est_cost
                + node.est_rows * self._cost.filter_eval,
            )
        if kind == "exists":
            info, negated = payload
            return self._build_semi_join(node, info, negated, scope)
        if kind == "agg_compare":
            outer_expr, op, info = payload
            return self._build_agg_compare(node, outer_expr, op, info, scope)
        raise PlanningError(f"unknown pending predicate kind {kind}")

    def _plan_scalar_subqueries(
        self, expr: ast.Expr, scope: _Scope
    ) -> dict[int, PlanNode]:
        """Plan every (uncorrelated) scalar subquery inside ``expr``."""
        subplans: dict[int, PlanNode] = {}

        def walk(e: ast.Expr) -> None:
            if isinstance(e, ast.ScalarSubquery):
                plan, names = self._plan_select(e.subquery, outer_scope=None)
                subplans[id(e)] = _projected(plan, names)
                return
            for child in ast.iter_children(e):
                walk(child)

        walk(expr)
        return subplans

    def _build_semi_join(
        self, node: PlanNode, info: dict, negated: bool, scope: _Scope
    ) -> PlanNode:
        sub = info["subquery"]
        inner_scope_bindings = self._peek_bindings(sub)
        inner_scope = _Scope(inner_scope_bindings, scope)
        eq_pairs = info["eq_pairs"]
        if not eq_pairs:
            raise PlanningError("EXISTS without equality correlation")

        inner_cols = [p[1] for p in eq_pairs]
        residual = _and_all(info["residual"]) if info["residual"] else None
        needed_inner = {f"{c.table}.{c.name}" for c in inner_cols}
        if residual is not None:
            for col in ast.iter_columns(residual):
                if col.table in inner_scope.bindings:
                    needed_inner.add(f"{col.table}.{col.name}")

        inner_items = tuple(
            ast.SelectItem(ast.Column(key.split(".")[1], key.split(".")[0]),
                           alias=key.replace(".", "__"))
            for key in sorted(needed_inner)
        )
        inner_stmt = ast.SelectStatement(
            items=inner_items,
            relations=sub.relations,
            where=_and_all(info["local"]),
        )
        inner_plan, inner_names = self._plan_select(inner_stmt, outer_scope=None)
        key_names = tuple(
            f"{c.table}.{c.name}".replace(".", "__") for c in inner_cols
        )
        rename = {key.replace(".", "__"): key for key in sorted(needed_inner)}
        sel = 0.1 if negated else 0.5
        return SemiJoinNode(
            child=node,
            inner=_projected(inner_plan, inner_names),
            outer_keys=tuple(p[0] for p in eq_pairs),
            inner_keys=key_names,
            residual=residual,
            negated=negated,
            inner_rename=rename,
            est_rows=max(1.0, node.est_rows * sel),
            est_cost=node.est_cost
            + inner_plan.est_cost
            + node.est_rows * self._cost.hash_probe
            + inner_plan.est_rows * self._cost.hash_build,
        )

    def _build_agg_compare(
        self, node: PlanNode, outer_expr: ast.Expr, op: str, info: dict, scope: _Scope
    ) -> PlanNode:
        sub = info["subquery"]
        if len(sub.items) != 1:
            raise PlanningError("scalar subquery must select exactly one item")
        eq_pairs = info["eq_pairs"]
        if not eq_pairs or info["residual"]:
            raise PlanningError(
                "correlated scalar subquery needs pure equality correlation"
            )
        value_expr = sub.items[0].expr
        group_items = tuple(
            ast.SelectItem(
                ast.Column(inner.name, inner.table),
                alias=f"__key{i}",
            )
            for i, (_, inner) in enumerate(eq_pairs)
        )
        inner_stmt = ast.SelectStatement(
            items=group_items + (ast.SelectItem(value_expr, alias="__value"),),
            relations=sub.relations,
            where=_and_all(info["local"]),
            group_by=tuple(
                ast.Column(inner.name, inner.table) for _, inner in eq_pairs
            ),
        )
        inner_plan, inner_names = self._plan_select(inner_stmt, outer_scope=None)
        return AggCompareNode(
            child=node,
            inner=_projected(inner_plan, inner_names),
            outer_keys=tuple(outer for outer, _ in eq_pairs),
            inner_key_names=tuple(f"__key{i}" for i in range(len(eq_pairs))),
            value_name="__value",
            op=op,
            outer_expr=outer_expr,
            est_rows=max(1.0, node.est_rows * 0.3),
            est_cost=node.est_cost
            + inner_plan.est_cost
            + node.est_rows * self._cost.hash_probe,
        )

    # -- join ordering -----------------------------------------------------------

    def _order_joins(
        self,
        access: dict[str, PlanNode],
        join_edges: dict[frozenset[str], list[tuple[ast.Column, ast.Column]]],
        pending: list[tuple[frozenset[str], str, object]],
        scope: _Scope,
        left_spec_list: list[tuple[str, str, ast.Expr | None]],
    ) -> PlanNode:
        left_specs = {
            right: (left, cond) for left, right, cond in left_spec_list
        }
        remaining = dict(access)
        if len(remaining) == 1:
            only = next(iter(remaining.values()))
            return self._attach_ready(only, set(remaining), pending, scope)

        # start with the cheapest (smallest) non-left-join relation
        start_candidates = [b for b in remaining if b not in left_specs]
        start = min(
            start_candidates or list(remaining),
            key=lambda b: remaining[b].est_rows,
        )
        current = remaining.pop(start)
        bound: set[str] = {start}
        current = self._attach_ready_partial(current, bound, pending, scope)

        while remaining:
            connected = []
            for binding in remaining:
                if binding in left_specs and left_specs[binding][0] not in bound:
                    continue  # left joins wait for their left side
                keys = self._edges_between(bound, binding, join_edges)
                if keys or binding in left_specs:
                    connected.append((binding, keys))
            if not connected:
                # cross join fallback: smallest remaining
                binding = min(remaining, key=lambda b: remaining[b].est_rows)
                connected = [(binding, [])]

            best_choice = None
            for binding, keys in connected:
                join_type = "left" if binding in left_specs else "inner"
                cond = left_specs.get(binding, (None, None))[1]
                candidate = self._best_join(
                    current, remaining[binding], binding, keys, join_type, cond, scope
                )
                if best_choice is None or candidate.est_rows < best_choice[1].est_rows:
                    best_choice = (binding, candidate)
            assert best_choice is not None
            binding, current = best_choice
            remaining.pop(binding)
            bound.add(binding)
            current = self._attach_ready_partial(current, bound, pending, scope)

        return self._attach_ready(current, bound, pending, scope)

    def _edges_between(
        self,
        bound: set[str],
        binding: str,
        join_edges: dict[frozenset[str], list[tuple[ast.Column, ast.Column]]],
    ) -> list[tuple[ast.Column, ast.Column]]:
        """All equality keys connecting ``binding`` to the bound set.

        Returned pairs are oriented (bound side, new side).
        """
        keys: list[tuple[ast.Column, ast.Column]] = []
        for pair, edges in join_edges.items():
            if binding not in pair:
                continue
            other = next(iter(pair - {binding}))
            if other not in bound:
                continue
            for left, right in edges:
                if left.table == binding:
                    keys.append((right, left))
                else:
                    keys.append((left, right))
        return keys

    def _best_join(
        self,
        left: PlanNode,
        right: PlanNode,
        right_binding: str,
        keys: list[tuple[ast.Column, ast.Column]],
        join_type: str,
        left_cond: ast.Expr | None,
        scope: _Scope,
    ) -> PlanNode:
        # LEFT JOIN: ON condition splits into keys + right-local filters
        residual = None
        if join_type == "left" and left_cond is not None:
            lj_keys, right_filters, lj_residual = self._split_on_condition(
                left_cond, right_binding, scope
            )
            keys = keys + lj_keys
            for f in right_filters:
                right = FilterNode(
                    child=right,
                    predicate=f,
                    est_rows=max(1.0, right.est_rows * 0.5),
                    est_cost=right.est_cost + right.est_rows * self._cost.filter_eval,
                )
            residual = lj_residual

        if not keys:
            out_rows = max(1.0, left.est_rows * right.est_rows)
            cost = left.est_cost + right.est_cost + self._cost.hash_join(
                right.est_rows, left.est_rows, out_rows
            )
            return HashJoinNode(
                est_rows=out_rows,
                est_cost=cost,
                join_type=join_type,
                left=left,
                right=right,
                left_keys=(),
                right_keys=(),
                residual=residual,
            )

        left_keys = tuple(k[0] for k in keys)
        right_keys = tuple(k[1] for k in keys)
        ndv_left = self._key_ndv(left_keys[0], left.est_rows, scope)
        ndv_right = self._key_ndv(right_keys[0], right.est_rows, scope)
        out_rows = self._estimator.join_cardinality(
            left.est_rows, right.est_rows, ndv_left, ndv_right
        )
        if join_type == "left":
            out_rows = max(out_rows, left.est_rows)

        hash_cost = left.est_cost + right.est_cost + self._cost.hash_join(
            min(left.est_rows, right.est_rows),
            max(left.est_rows, right.est_rows),
            out_rows,
        )
        best: PlanNode = HashJoinNode(
            est_rows=out_rows,
            est_cost=hash_cost,
            join_type=join_type,
            left=left,
            right=right,
            left_keys=left_keys,
            right_keys=right_keys,
            residual=residual,
        )

        # INLJ option: right is a base scan (no seek committed) with an
        # index keyed on the join column
        if (
            join_type == "inner"
            and isinstance(right, ScanNode)
            and right.seek_predicate is None
            and len(keys) >= 1
        ):
            for index in self._config.for_table(right.table):
                key_matches = [
                    (lk, rk)
                    for lk, rk in keys
                    if rk.name == index.key_column
                ]
                if not key_matches:
                    continue
                covering = index.covers(
                    set(right.columns) | _filter_columns(list(right.predicates))
                )
                matched = out_rows
                inl_cost = (
                    left.est_cost
                    + self._cost.inl_join(left.est_rows, matched, covering)
                    + matched * self._cost.filter_eval * len(right.predicates)
                )
                if inl_cost < best.est_cost:
                    best = IndexNLJoinNode(
                        est_rows=out_rows,
                        est_cost=inl_cost,
                        outer=left,
                        inner_table=right.table,
                        inner_binding=right.binding,
                        inner_columns=right.columns,
                        inner_filters=right.predicates,
                        index=index,
                        covering=covering,
                        outer_keys=left_keys,
                        inner_keys=right_keys,
                        residual=residual,
                    )
        return best

    def _split_on_condition(
        self, cond: ast.Expr, right_binding: str, scope: _Scope
    ) -> tuple[
        list[tuple[ast.Column, ast.Column]], list[ast.Expr], ast.Expr | None
    ]:
        keys: list[tuple[ast.Column, ast.Column]] = []
        right_local: list[ast.Expr] = []
        residual: list[ast.Expr] = []
        for conjunct in _split_and(cond):
            qualified = self._qualify(conjunct, scope)
            pair = _match_eq_columns(qualified)
            if pair is not None and {pair[0].table, pair[1].table} != {right_binding}:
                a, b = pair
                if a.table == right_binding:
                    keys.append((b, a))
                    continue
                if b.table == right_binding:
                    keys.append((a, b))
                    continue
            refs = _referenced_bindings(qualified, scope)
            if refs == {right_binding}:
                right_local.append(qualified)
            else:
                residual.append(qualified)
        return keys, right_local, _and_all(residual) if residual else None

    def _key_ndv(self, key: ast.Column, rows: float, scope: _Scope) -> float:
        binding = scope.bindings.get(key.table or "")
        if binding is not None and binding.table is not None:
            meta = self._catalog.table(binding.table)
            if key.name in meta.columns:
                ndv = meta.columns[key.name].n_distinct
                return max(1.0, ndv * self._catalog.virtual_row_multiplier)
        return max(1.0, rows)

    def _attach_ready_partial(
        self,
        node: PlanNode,
        bound: set[str],
        pending: list[tuple[frozenset[str], str, object]],
        scope: _Scope,
    ) -> PlanNode:
        for i in range(len(pending) - 1, -1, -1):
            needed, kind, payload = pending[i]
            if needed <= bound:
                node = self._attach_pending(node, kind, payload, scope)
                pending.pop(i)
        return node

    def _attach_ready(
        self,
        node: PlanNode,
        bound: set[str],
        pending: list[tuple[frozenset[str], str, object]],
        scope: _Scope,
    ) -> PlanNode:
        node = self._attach_ready_partial(node, bound, pending, scope)
        if pending:
            raise PlanningError(
                f"unattachable predicates over bindings: "
                f"{[sorted(p[0]) for p in pending]}"
            )
        return node

    # -- projection / aggregation / ordering ------------------------------------------

    def _plan_projection(
        self, node: PlanNode, stmt: ast.SelectStatement, scope: _Scope
    ) -> tuple[PlanNode, list[str]]:
        from repro.minidb.expressions import collect_aggregates, rewrite_aggregates

        qualified_items = [
            (item.output_name, self._qualify_allowing_star(item.expr, scope))
            for item in stmt.items
        ]
        group_exprs = [self._qualify(g, scope) for g in stmt.group_by]
        having = stmt.having

        agg_calls: list[ast.FunctionCall] = []
        for _, expr in qualified_items:
            if not isinstance(expr, ast.Star):
                collect_aggregates(expr, agg_calls)
        if having is not None:
            having = self._qualify_no_subquery(having, scope)
            collect_aggregates(having, agg_calls)

        needs_aggregate = bool(group_exprs) or bool(agg_calls)
        if needs_aggregate:
            mapping = {call: f"__agg{i}" for i, call in enumerate(agg_calls)}
            group_named = tuple(
                (f"__grp{i}", expr) for i, expr in enumerate(group_exprs)
            )
            having_rewritten = (
                rewrite_aggregates(having, mapping) if having is not None else None
            )
            scalar_subplans = (
                self._plan_scalar_subqueries(having, scope)
                if having is not None
                else {}
            )
            n_groups = max(1.0, min(node.est_rows, node.est_rows ** 0.75))
            if not group_exprs:
                n_groups = 1.0
            est_rows = n_groups * (
                HAVING_SELECTIVITY if having is not None else 1.0
            )
            agg_node = AggregateNode(
                child=node,
                group_exprs=group_named,
                aggregates=tuple(
                    AggregateSpec(mapping[c], c) for c in agg_calls
                ),
                having=having_rewritten,
                scalar_subplans=scalar_subplans,
                est_rows=max(1.0, est_rows),
                est_cost=node.est_cost
                + self._cost.aggregate(node.est_rows)
                + sum(p.est_cost for p in scalar_subplans.values()),
            )
            node = agg_node
            # projection items now reference synthetic agg/group columns
            group_lookup = {str(expr): name for name, expr in group_named}
            items: list[tuple[str, ast.Expr]] = []
            for name, expr in qualified_items:
                rewritten = rewrite_aggregates(expr, mapping)
                rewritten = _replace_group_refs(rewritten, group_lookup)
                items.append((name, rewritten))
        else:
            items = []
            for name, expr in qualified_items:
                if isinstance(expr, ast.Star):
                    for binding_name, b in scope.bindings.items():
                        for col in sorted(b.columns):
                            items.append((col, ast.Column(col, binding_name)))
                else:
                    items.append((name, expr))

        project = ProjectNode(
            child=node,
            items=tuple(items),
            est_rows=node.est_rows,
            est_cost=node.est_cost + node.est_rows * self._cost.output_row,
        )
        node = project
        output_names = [name for name, _ in items]

        if stmt.distinct:
            node = DistinctNode(
                child=node,
                est_rows=max(1.0, node.est_rows * 0.5),
                est_cost=node.est_cost + self._cost.aggregate(node.est_rows),
            )

        if stmt.order_by:
            keys: list[tuple[str, bool]] = []
            for order in stmt.order_by:
                name = self._order_key_name(order.expr, output_names, scope, stmt)
                keys.append((name, order.ascending))
            node = SortNode(
                child=node,
                keys=tuple(keys),
                est_rows=node.est_rows,
                est_cost=node.est_cost + self._cost.sort(node.est_rows),
            )

        if stmt.limit is not None:
            node = LimitNode(
                child=node,
                limit=stmt.limit,
                est_rows=min(float(stmt.limit), node.est_rows),
                est_cost=node.est_cost,
            )
        return node, output_names

    def _qualify_allowing_star(self, expr: ast.Expr, scope: _Scope) -> ast.Expr:
        if isinstance(expr, ast.Star):
            return expr
        return self._qualify_no_subquery(expr, scope)

    def _qualify_no_subquery(self, expr: ast.Expr, scope: _Scope) -> ast.Expr:
        """Qualify, leaving embedded scalar subqueries untouched."""
        if isinstance(expr, ast.ScalarSubquery):
            return expr
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op,
                self._qualify_no_subquery(expr.left, scope),
                self._qualify_no_subquery(expr.right, scope),
            )
        return self._qualify(expr, scope)

    def _order_key_name(
        self,
        expr: ast.Expr,
        output_names: list[str],
        scope: _Scope,
        stmt: ast.SelectStatement,
    ) -> str:
        if isinstance(expr, ast.Column) and expr.table is None:
            if expr.name in output_names:
                return expr.name
        if isinstance(expr, ast.Column):
            # select-list column referenced by (possibly qualified) name
            for name, item in zip(output_names, stmt.items):
                if (
                    isinstance(item.expr, ast.Column)
                    and item.expr.name == expr.name
                ):
                    return name
            if expr.name in output_names:
                return expr.name
        # expression: match by text against select items
        text = str(expr)
        for name, item in zip(output_names, stmt.items):
            if str(item.expr) == text:
                return name
        raise PlanningError(f"ORDER BY expression {text} not in select list")


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _split_and(expr: ast.Expr | None) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _and_all(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    if not conjuncts:
        return None
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = ast.BinaryOp("AND", out, c)
    return out


def _match_eq_columns(expr: ast.Expr) -> tuple[ast.Column, ast.Column] | None:
    if (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ast.Column)
        and isinstance(expr.right, ast.Column)
    ):
        return expr.left, expr.right
    return None


def _match_scalar_compare(
    expr: ast.Expr,
) -> tuple[ast.Expr, str, ast.SelectStatement] | None:
    """Match ``outer_expr OP (scalar subquery)`` (either side)."""
    if not isinstance(expr, ast.BinaryOp):
        return None
    if expr.op not in ("=", "<", ">", "<=", ">=", "<>"):
        return None
    if isinstance(expr.right, ast.ScalarSubquery):
        return expr.left, expr.op, expr.right.subquery
    if isinstance(expr.left, ast.ScalarSubquery):
        from repro.minidb.optimizer import _flip_op

        return expr.right, _flip_op(expr.op), expr.left.subquery
    return None


def _contains_scalar_subquery(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.ScalarSubquery):
        return True
    return any(_contains_scalar_subquery(c) for c in ast.iter_children(expr))


def _referenced_bindings(expr: ast.Expr, scope: _Scope) -> set[str]:
    refs: set[str] = set()
    for col in ast.iter_columns(expr):
        if col.table is not None and col.table in scope.bindings:
            refs.add(col.table)
    return refs


def _split_refs(expr: ast.Expr, inner_scope: _Scope) -> tuple[set[str], set[str]]:
    """Partition referenced bindings into (inner, outer)."""
    inner: set[str] = set()
    outer: set[str] = set()
    for col in ast.iter_columns(expr):
        if col.table is None:
            continue
        if col.table in inner_scope.bindings:
            inner.add(col.table)
        else:
            outer.add(col.table)
    return inner, outer


def _filter_columns(filters: list[ast.Expr] | tuple[ast.Expr, ...]) -> set[str]:
    cols: set[str] = set()
    for f in filters:
        for col in ast.iter_columns(f):
            cols.add(col.name)
    return cols


def _seekable_filter(filters: list[ast.Expr], key_column: str) -> ast.Expr | None:
    """First filter usable as an index seek on ``key_column``."""
    for f in filters:
        if isinstance(f, ast.BinaryOp) and f.op in ("=", "<", ">", "<=", ">="):
            if isinstance(f.left, ast.Column) and f.left.name == key_column:
                if not isinstance(f.right, ast.Column):
                    return f
            if isinstance(f.right, ast.Column) and f.right.name == key_column:
                if not isinstance(f.left, ast.Column):
                    return f
        if isinstance(f, ast.Between) and isinstance(f.expr, ast.Column):
            if f.expr.name == key_column and not f.negated:
                return f
        if isinstance(f, ast.InList) and isinstance(f.expr, ast.Column):
            if f.expr.name == key_column and not f.negated:
                return f
    return None


def _replace_group_refs(
    expr: ast.Expr, group_lookup: dict[str, str]
) -> ast.Expr:
    """Rewrite group-by expressions to their synthetic output columns."""
    text = str(expr)
    if text in group_lookup:
        return ast.Column(group_lookup[text])
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            _replace_group_refs(expr.left, group_lookup),
            _replace_group_refs(expr.right, group_lookup),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _replace_group_refs(expr.operand, group_lookup))
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(_replace_group_refs(a, group_lookup) for a in expr.args),
            expr.distinct,
            expr.star,
        )
    if isinstance(expr, ast.CaseExpr):
        return ast.CaseExpr(
            tuple(
                (
                    _replace_group_refs(c, group_lookup),
                    _replace_group_refs(v, group_lookup),
                )
                for c, v in expr.whens
            ),
            None
            if expr.default is None
            else _replace_group_refs(expr.default, group_lookup),
        )
    return expr
