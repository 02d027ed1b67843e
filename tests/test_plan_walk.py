"""The plan path's structural walk covers every node and expression kind.

``repro.minidb.plancache`` re-binds and renders plans with one walk over
dataclass fields, tuples and dict values instead of a visitor per node
kind. These tests enumerate every :class:`~repro.minidb.planner.PlanNode`
subclass and every ``repro.sql.ast`` expression class *from the modules
themselves*, build an instance of each from its type hints with a
distinct literal slot in every expression-typed position, and check the
walk's three promises on it — so a node kind added later is covered the
day it is declared, or fails here if the walk cannot reach its fields.

The dataclass-generated ``repr`` (which renders every field, literals
included) is the independent witness of what a re-bound plan contains.
"""

from __future__ import annotations

import types
import typing
from dataclasses import fields, replace

import pytest

from repro.minidb import planner as P
from repro.minidb.indexes import Index
from repro.minidb.plancache import PlanRebinder, plan_shape
from repro.sql import ast

ESTIMATES = ("est_rows", "est_cost")
# kept by identity, interior untouched: the executor keys subplans on id()
OPAQUE = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


PLAN_NODES = sorted(
    (c for c in _subclasses(P.PlanNode) if c.__module__ == P.__name__),
    key=lambda c: c.__name__,
)
EXPRESSIONS = [
    c for c in typing.get_args(ast.Expr) if c is not ast.Literal and c not in OPAQUE
]


class _Builder:
    """Builds a value of an annotated type; every expression-typed
    position gets a fresh, distinctly-valued literal slot."""

    def __init__(self, alternate: bool = False) -> None:
        self.slots: list[ast.Literal] = []
        self.alternate = alternate  # a structurally different value per type

    def literal(self) -> ast.Literal:
        slot = ast.Literal(7000 + len(self.slots), "number")
        self.slots.append(slot)
        return slot

    def instance(self, cls, **overrides):
        hints = typing.get_type_hints(cls)
        values = {
            f.name: self.build(hints[f.name])
            for f in fields(cls)
            if f.name not in ESTIMATES and f.name not in overrides
        }
        return cls(**values, **overrides)

    def build(self, tp):
        alt = self.alternate
        origin = typing.get_origin(tp)
        if origin in (typing.Union, types.UnionType):
            args = [a for a in typing.get_args(tp) if a is not type(None)]
            if ast.Literal in args:  # ast.Expr, optional or not
                slot = self.literal()
                return ast.UnaryOp("-", slot) if alt else slot
            return self.build(args[0])
        if origin is tuple:
            args = typing.get_args(tp)
            if args[-1] is Ellipsis:
                return tuple(self.build(args[0]) for _ in range(3 if alt else 2))
            return tuple(self.build(a) for a in args)
        if origin is dict:
            key_type, value_type = typing.get_args(tp)
            key = 11 if key_type is int else "k"
            return {key: self.build(value_type)}
        if tp is P.PlanNode:
            return P.ScanNode(
                table="u" if alt else "t", predicates=(self.literal(),)
            )
        if tp is P.AggregateSpec:
            return P.AggregateSpec("agg", self.build(ast.FunctionCall))
        if tp is ast.FunctionCall:
            return ast.FunctionCall("MAX" if alt else "SUM", (self.literal(),))
        if tp is ast.Column:
            return ast.Column("d" if alt else "c", "t")
        if tp is Index:
            return Index("t", ("d",) if alt else ("c",))
        if tp is str:
            return "other" if alt else "name"
        if tp is bool:
            return alt
        if tp is int:
            return 4 if alt else 3
        raise AssertionError(f"no builder for {tp!r}: teach this test the new type")


def _as_plan(obj) -> P.PlanNode:
    return obj if isinstance(obj, P.PlanNode) else P.FilterNode(predicate=obj)


def _template(slots) -> ast.SelectStatement:
    """A statement whose literal-slot walk yields exactly ``slots``."""
    items = tuple(ast.SelectItem(s, alias=f"c{i}") for i, s in enumerate(slots))
    return ast.SelectStatement(items=items, relations=())


def _fresh(slots) -> tuple[ast.Literal, ...]:
    return tuple(ast.Literal(s.value + 1000, s.kind) for s in slots)


@pytest.mark.parametrize("cls", PLAN_NODES + EXPRESSIONS, ids=lambda c: c.__name__)
class TestWalkCoversEveryKind:
    def test_rebind_substitutes_every_slot(self, cls):
        builder = _Builder()
        plan = _as_plan(builder.instance(cls))
        rebinder = PlanRebinder(_template(builder.slots), plan)
        assert rebinder.arity == len(builder.slots)

        rebound = rebinder.rebind(_fresh(builder.slots))
        rendered = repr(rebound)
        for slot in builder.slots:
            assert f"value={slot.value}," not in rendered
            assert f"value={slot.value + 1000}," in rendered
        assert plan_shape(rebound) == plan_shape(plan)
        # the cached plan itself is never written to
        assert all(f"value={s.value}," in repr(plan) for s in builder.slots)

    def test_rebind_shares_untouched_subtrees(self, cls):
        builder = _Builder()
        node = builder.instance(cls)
        plan = _as_plan(node)
        rebinder = PlanRebinder(_template(builder.slots), plan)
        assert rebinder.rebind(tuple(builder.slots)) is plan

        for k, slot in enumerate(builder.slots):
            slots = list(builder.slots)
            slots[k] = ast.Literal(slot.value + 1000, slot.kind)
            rebound = rebinder.rebind(tuple(slots))
            if not isinstance(node, P.PlanNode):
                rebound = rebound.predicate
            for f in fields(cls):
                old = getattr(node, f.name)
                if f"value={slot.value}," not in repr(old):
                    assert getattr(rebound, f.name) is old, f.name

    def test_shape_sees_every_field_but_the_estimates(self, cls):
        base = _as_plan(_Builder().instance(cls))
        for f in fields(cls):
            if f.name in ESTIMATES:
                changed = replace(_Builder().instance(cls), **{f.name: 123.0})
                assert plan_shape(_as_plan(changed)) == plan_shape(base), f.name
                continue
            other = _Builder(alternate=True).build(typing.get_type_hints(cls)[f.name])
            changed = _Builder().instance(cls, **{f.name: other})
            assert plan_shape(_as_plan(changed)) != plan_shape(base), f.name


def test_every_kind_is_enumerated():
    # the parametrization above is only as good as its enumeration
    assert {c.__name__ for c in PLAN_NODES} >= {
        "ScanNode", "FilterNode", "AggregateNode", "ProjectedSingle"
    }
    assert set(EXPRESSIONS) | set(OPAQUE) | {ast.Literal} == set(
        typing.get_args(ast.Expr)
    )


@pytest.mark.parametrize("cls", OPAQUE, ids=lambda c: c.__name__)
def test_subquery_expressions_survive_a_rebind_by_identity(cls):
    """The executor resolves ``scalar_subplans`` through ``id()`` of the
    subquery expression, so a re-bind must neither copy such a node nor
    reach into the raw statement it holds — the statement's literals
    were compiled into the subplan, and re-bind there."""
    inside, compiled, beside = (ast.Literal(v, "number") for v in (1, 2, 3))
    raw = ast.SelectStatement(items=(ast.SelectItem(inside, "x"),), relations=())
    kwargs = {"subquery": raw}
    if cls is ast.InSubquery:
        kwargs["expr"] = ast.Column("c", "t")
    sub = cls(**kwargs)
    plan = P.FilterNode(
        predicate=ast.BinaryOp("AND", ast.BinaryOp("=", ast.Column("c", "t"), beside), sub),
        scalar_subplans={id(sub): P.ScanNode(table="t", predicates=(compiled,))},
    )
    rebinder = PlanRebinder(_template((inside, compiled, beside)), plan)
    rebound = rebinder.rebind(_fresh((inside, compiled, beside)))

    assert rebound.predicate.right is sub
    assert sub.subquery is raw and raw.items[0].expr is inside
    assert rebound.predicate.left.right.value == 1003
    assert rebound.scalar_subplans[id(sub)].predicates[0].value == 1002
    assert plan_shape(rebound) == plan_shape(plan)


def test_unknown_future_node_kind_is_rebound_not_skipped():
    """A node kind the cache has never heard of still re-binds: the walk
    reads its fields instead of falling through a per-kind dispatch."""
    from dataclasses import dataclass

    @dataclass
    class WindowNode(P.PlanNode):
        child: P.PlanNode | None = None
        frame: tuple[tuple[str, ast.Expr], ...] = ()

    slot = ast.Literal(5, "number")
    plan = WindowNode(frame=(("preceding", slot),))
    rebound = PlanRebinder(_template((slot,)), plan).rebind(
        (ast.Literal(9, "number"),)
    )
    assert rebound.frame[0][1].value == 9
    assert plan_shape(rebound) == plan_shape(plan)
    assert plan_shape(replace(plan, frame=(("following", slot),))) != plan_shape(plan)


@pytest.mark.parametrize(
    "value",
    ["plain", "it's", 'say "hi"', "both ' and \"", "back\\slash'", "", 12, 1.5e-7, 10**20],
    ids=repr,
)
def test_shape_folds_a_literal_however_it_renders(value):
    """Expressions are rendered by their own ``__str__`` (a literal as
    the ``repr`` of its value) and folded afterwards, so every quoting
    and number form ``repr`` can produce has to fold to the same mark."""

    def plan(v):
        predicate = ast.BinaryOp(
            "AND",
            ast.BinaryOp("=", ast.Column("c", "t"), ast.Literal(v, "string")),
            ast.IsNull(ast.Column("d2", "t")),
        )
        return P.ProjectNode(
            child=P.FilterNode(predicate=predicate),
            items=((str(ast.Literal(v, "string")), ast.Column("c", "t")),),
        )

    assert plan_shape(plan(value)) == plan_shape(plan("reference"))
    assert "t.d2" in plan_shape(plan(value))  # word-adjacent digits survive
