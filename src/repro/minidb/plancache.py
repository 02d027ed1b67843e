"""Template-keyed plan cache for prepared execution.

Queries that share a template fingerprint parse to identically-shaped
ASTs, and the planner preserves literal *instances* from the AST into
plan predicates (``Planner._qualify`` returns literal leaves
unchanged). Those two facts make prepared execution possible without a
separate template IR: cache the plan built for a template's first
binding, remember which literal instances inside it correspond to
which binding slot, and serve later queries by substituting their
freshly-parsed literals into a structurally-shared copy of the cached
plan. That copy, and the ``plan_shape`` signature the guards below
compare, are both made by one structural walk over dataclass fields,
tuples and dict values (:func:`_parts` is the only code here that
knows how a plan is laid out), so a plan-node kind or expression field
added to the planner is re-bound and rendered without a change here.
Planning (join enumeration, index selection, selectivity
estimation) is paid once per template instead of once per query — and
once a template has cleared verification, even *parsing* is skipped:
the binding is extracted straight from the query text by the
template's :class:`~repro.sql.params.FastBindingRecipe` (one pass of
the normalizer's fast scanner) and re-bound into the cached plan, so a
hot template pays only extraction, re-binding and execution. Both
routes hand the cache the same :class:`~repro.sql.params.ParameterBinding`
and meet the same guard chain (``PlanCache._guard``): ``fetch`` acts
on every verdict, ``try_fast`` serves only a hit.

Soundness guards, in order of application:

* **Structural key.** ``LIMIT`` folds to a plain int at parse time
  (not a literal slot), so the cache key includes the statement's
  limits tuple alongside the fingerprint and index config — plans are
  never re-bound across different limits.
* **Catalog epoch.** Every entry records the database's catalog epoch
  at plan time; ``Database.load_table`` bumps the epoch, so plans
  built against an older catalog are invalidated on next lookup.
* **Rebind-unsafe templates** (literals in GROUP BY/ORDER BY or in
  unaliased select items, where the planner resolves by rendered text
  — see :func:`repro.sql.params.extract_parameters`) bypass the cache
  entirely. Scalar/IN/EXISTS subquery bodies are exempt from the
  unaliased-item rule: their output is consumed positionally, so the
  rendered names are wiring labels that stay consistent under
  rebinding (and ``plan_shape`` folds literal values inside them).
* **Literal-sensitivity.** Selectivity estimates read literal values,
  so the *chosen plan shape* can genuinely depend on the binding. The
  first ``VERIFY_BINDINGS`` distinct bindings of each template are
  planned fresh and their shapes compared against the cached plan's;
  any divergence marks the template literal-sensitive and it falls
  back to per-query planning forever. Rows stay byte-identical either
  way — the guard protects plan *quality* from silently regressing.
* **Kind drift**, checked between the literal-sensitive mark and the
  verification window: a binding whose literal kinds differ from the
  cached plan's (a date where the template had a plain string) is
  planned fresh, never re-bound.

The cache keeps one record per template ``(fingerprint_key, config)``:
the template's recipe (or the proven "no recipe") and its plans, one
per LIMIT tuple. Records live in one LRU; ``capacity`` bounds the
plans across them, an eviction takes the least recently used record's
oldest plan, and a record — recipe included — goes with its last
plan, so a hot template never loses its recipe while its plan stays
cached. A frequency doorkeeper (TinyLFU-style) stands in front of that
LRU: it keeps an aged access count per template key (every ``fetch``
and every ``try_fast`` hit counts; all counts halve after every
``10 × capacity`` recorded accesses), and when the cache is full a new
plan replaces the LRU victim only if its template has been seen at
least as often as the victim's. Ties admit, so a stream of strangers
behaves as plain LRU; a refused newcomer is planned and served as
usual, just not cached — one-shot templates cannot evict the head.
Everything sits behind one lock; planning happens under it, which
serializes concurrent misses for the same template (a feature: no
duplicate planning work) and keeps the guard bookkeeping race-free.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Hashable, get_args

from repro.sql import ast
from repro.sql.params import FastBindingRecipe, ParameterBinding, build_fast_recipe

from repro.minidb.planner import PlanNode

__all__ = ["PlanCache", "PlanRebinder", "VERIFY_BINDINGS", "plan_shape"]

# Distinct bindings of a template planned fresh and shape-compared
# with its cached plan before the plan is re-bound for new bindings.
VERIFY_BINDINGS = 3


# ---------------------------------------------------------------------------
# the structural walk
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    """Constructor-order field names of a dataclass, () for a leaf type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else ()


def _parts(obj) -> tuple:
    """What ``obj`` holds: tuple items, dict values, dataclass fields
    (plan nodes, ``AggregateSpec``, ``Index``, ``sql.ast`` expressions);
    nothing for a leaf. The one place that knows how a plan is laid out
    — re-binding and ``plan_shape`` both read plans through it."""
    if isinstance(obj, tuple):
        return obj
    if isinstance(obj, dict):
        return tuple(obj.values())
    return tuple([getattr(obj, name) for name in _field_names(type(obj))])


def _with_parts(obj, parts: list):
    """A copy of ``obj`` holding ``parts`` instead (dict keys are kept)."""
    if isinstance(obj, tuple):
        return tuple(parts)
    if isinstance(obj, dict):
        return dict(zip(obj, parts))
    return type(obj)(*parts)


# ---------------------------------------------------------------------------
# plan-shape signature
# ---------------------------------------------------------------------------

# What ``Literal.__str__`` (``repr`` of the value) can put into a
# rendered expression: a number, or a string in either quoting. Plan
# nodes also carry rendered expressions as wiring labels (projection
# item names, subquery output names, sort-key names), and an unaliased
# literal item inside a subquery — legal to re-bind, see
# ``repro.sql.params._rebind_safe`` — bakes the literal's value into
# those labels. The labels stay internally consistent under rebinding
# (producer and consumer both keep the plan-time string), so one fold
# serves labels and expressions alike. Word-adjacent digits (col2,
# __agg0, log_12) are left alone. (A quote character in an identifier
# would misalign the fold; the shape only feeds the advisory
# literal-sensitivity guard, rows never depend on it.)
_RENDERED_LITERAL = re.compile(
    r"(?<![\w.])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])"
    r"|'(?:[^'\\]|\\.)*'"
    r'|"(?:[^"\\]|\\.)*"'
)
_TEXTUAL = frozenset((str, *get_args(ast.Expr)))  # rendered by their own __str__
_ESTIMATES = ("est_rows", "est_cost")  # the optimizer's view, not plan structure


def plan_shape(plan: PlanNode) -> str:
    """Structural signature of a plan with literal values folded.

    Renders every field of every node except the optimizer's
    estimates, expressions through their own ``__str__``, so two plans
    share a shape iff they make the same choices — node kinds, scan
    tables/indexes/covering, join strategies and keys, predicate
    structure — regardless of the literal constants embedded in them.
    This is what the literal-sensitivity guard compares across
    bindings.
    """
    out: list[str] = []
    _render(plan, out)
    return "".join(out)


def _render(obj, out: list[str]) -> None:
    kind = type(obj)
    if kind in _TEXTUAL:
        text = str(obj)
        # a bare identifier (most labels) cannot hold a rendered literal
        if not text.isidentifier():
            text = _RENDERED_LITERAL.sub("?", text)
        out.append(text)
        return
    names = _field_names(kind)
    if names or kind is tuple or kind is dict:
        out.append(kind.__name__)
        out.append("(")
        for name, part in zip(names or repeat(""), _parts(obj)):
            if name not in _ESTIMATES:
                _render(part, out)
                out.append(",")
        out.append(")")
    else:
        out.append(repr(obj))  # None, bools, ints (LIMIT)


# ---------------------------------------------------------------------------
# plan re-binding
# ---------------------------------------------------------------------------

# Subquery expression nodes are opaque to a re-bind: the executor keys
# subplans on ``id()`` of them, so they must come through by identity,
# and the raw subquery statement inside them was compiled into a
# subplan whose literals re-bind through the plan side.
_OPAQUE = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)


class PlanRebinder:
    """Substitutes a fresh query's literals into a cached template plan.

    Built from the literal slots of the statement the plan was compiled
    from (its :class:`~repro.sql.params.ParameterBinding`'s ``slots``,
    in walk order): each slot instance gets its ordinal, and — because
    the planner carried those instances into the plan by identity —
    rewriting the plan by instance identity re-binds exactly the
    template's slots.

    The first re-bind walks the plan once and keeps, for every
    container (node, expression, tuple, dict) that lies on a path from
    the root to a slot, which of its parts lead on; re-binds visit only
    those and share everything else with the cached plan. (Most
    long-tail templates are planned once and never re-bound, so the
    walk waits for the first re-bind.) Within one re-bind a container
    reachable twice (a scan's seek predicate is also one of its
    predicates) maps to one new instance, so identity relations inside
    the plan survive.
    """

    __slots__ = ("_plan", "_base_slots", "_root")

    def __init__(self, slots: tuple[ast.Literal, ...], plan: PlanNode) -> None:
        self._base_slots = slots
        self._plan = plan
        self._root = _UNMARKED

    @property
    def arity(self) -> int:
        return len(self._base_slots)

    def rebind(self, slots: tuple[ast.Literal, ...]) -> PlanNode:
        """Plan with the template's i-th literal replaced by ``slots[i]``."""
        if len(slots) != len(self._base_slots):
            raise ValueError(
                f"arity mismatch: plan has {len(self._base_slots)} slots,"
                f" got {len(slots)}"
            )
        # an equal literal keeps the cached instance, so paths to
        # slots whose value did not change stay shared as well
        bound = [
            old if new == old else new
            for old, new in zip(self._base_slots, slots)
        ]
        if all(new is old for new, old in zip(bound, self._base_slots)):
            return self._plan
        if self._root is _UNMARKED:
            ordinals = {id(s): i for i, s in enumerate(self._base_slots)}
            self._root = _mark(self._plan, ordinals, {})
        if self._root is None:  # no slot made it into the plan
            return self._plan
        return _rebind(self._root, bound, {})


_UNMARKED = object()


def _mark(obj, ordinals: dict[int, int], seen: dict[int, object]):
    """The re-bind path through ``obj``: a slot's ordinal; for a
    container with slots beneath it ``(obj, parts, [(position, path of
    that part), ...])``; None when no slot lies beneath."""
    key = id(obj)
    if key in ordinals:
        return ordinals[key]
    if key in seen:
        return seen[key]
    below = []
    parts = () if isinstance(obj, _OPAQUE) else _parts(obj)
    for position, part in enumerate(parts):
        part_path = _mark(part, ordinals, seen)
        if part_path is not None:
            below.append((position, part_path))
    seen[key] = path = (obj, parts, below) if below else None
    return path


def _rebind(path, bound: list[ast.Literal], done: dict[int, object]):
    if type(path) is int:
        return bound[path]
    obj, parts, below = path
    new = done.get(id(obj))
    if new is None:
        fresh = None
        for position, part_path in below:
            part = _rebind(part_path, bound, done)
            if part is not parts[position]:
                if fresh is None:
                    fresh = list(parts)
                fresh[position] = part
        done[id(obj)] = new = obj if fresh is None else _with_parts(obj, fresh)
    return new


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class _Entry:
    __slots__ = ("plan", "rebinder", "kinds", "epoch", "seen", "literal_sensitive")

    def __init__(self, plan: PlanNode, binding: ParameterBinding, epoch: int) -> None:
        self.plan = plan
        self.rebinder = PlanRebinder(binding.slots, plan)
        self.kinds = binding.kinds
        self.epoch = epoch
        self.seen: set[tuple] = {binding.values}  # distinct shape-verified bindings
        self.literal_sensitive = False


class _Template:
    """Everything cached for one template: its parse-free recipe (None
    when the template must take the parse path) and its plans, one per
    LIMIT tuple, oldest first."""

    __slots__ = ("recipe", "plans")

    def __init__(self, recipe: FastBindingRecipe | None) -> None:
        self.recipe = recipe
        self.plans: dict[tuple, _Entry] = {}


# Where the guard chain stops a binding, in the order the guards apply.
_COLD, _STALE, _SENSITIVE, _DRIFT, _VERIFY, _HIT = range(6)


class PlanCache:
    """Bounded, thread-safe cache of prepared template plans.

    ``fetch`` is the whole protocol: callers hand it the cache key,
    the current catalog epoch, the query's extracted binding and a
    ``plan_fresh`` thunk; it returns a plan — cached, re-bound, or
    freshly planned — applying the invalidation, literal-sensitivity
    and admission rules documented in the module docstring.
    ``try_fast`` is its parse-free front: the same guard chain
    (:meth:`_guard`), serving only a hit.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        # (fingerprint_key, config) -> _Template, least recently used
        # first; ``_size`` counts the plans across them
        self._templates: OrderedDict[Hashable, _Template] = OrderedDict()
        self._size = 0
        # the doorkeeper: aged access count per template key
        self._counts: dict[Hashable, int] = {}
        self._recorded = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._fast_hits = 0
        self._misses = 0
        self._invalidated = 0
        self._evicted = 0
        self._refused = 0
        self._uncacheable = 0
        self._sensitive_templates = 0
        self._sensitive_skips = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def note_uncacheable(self) -> None:
        """Record a query that bypassed the cache (rebind-unsafe)."""
        with self._lock:
            self._uncacheable += 1

    def _guard(
        self,
        record: _Template | None,
        limits: tuple,
        epoch: int,
        binding: ParameterBinding,
    ) -> tuple[int, _Entry | None]:
        """Where the guard chain stops ``binding``, and the cached entry
        it was checked against (None when there is none). The caller
        holds the lock; nothing is changed here."""
        entry = None if record is None else record.plans.get(limits)
        if entry is None:
            return _COLD, None
        if entry.epoch != epoch:
            return _STALE, entry  # planned against an older catalog
        if entry.literal_sensitive:
            return _SENSITIVE, entry
        if binding.kinds != entry.kinds:
            # same fingerprint, different literal kinds (e.g. a date vs
            # a plain string) — don't risk a kind-confused rebind
            return _DRIFT, entry
        if len(entry.seen) < VERIFY_BINDINGS and binding.values not in entry.seen:
            return _VERIFY, entry  # still verifying: plan fresh, compare shapes
        return _HIT, entry

    def fetch(
        self,
        key: Hashable,
        epoch: int,
        stmt: ast.SelectStatement,
        binding: ParameterBinding,
        plan_fresh: Callable[[], PlanNode],
        sql: str | None = None,
    ) -> PlanNode:
        """Return a plan for ``stmt``, consulting/maintaining the cache.

        ``key`` must be ``(fingerprint_key, config, limits)`` and
        ``binding`` must be ``extract_parameters(stmt)``: its slots are
        the literal instances ``plan_fresh`` plans ``stmt`` with. When
        ``sql`` is given, the template's parse-free extraction recipe
        is derived from it when the template's record is created, so
        later texts can take :meth:`try_fast`.
        """
        template_key, limits = key[:2], key[2]
        with self._lock:
            self._count(template_key)
            record = self._templates.get(template_key)
            if record is not None:
                self._templates.move_to_end(template_key)
            verdict, entry = self._guard(record, limits, epoch, binding)
            if verdict == _HIT:
                self._hits += 1
                return entry.rebinder.rebind(binding.slots)

            plan = plan_fresh()
            self._misses += 1
            if verdict == _COLD:
                if not self._admit(template_key):
                    self._refused += 1
                    return plan
                if record is None:
                    record = self._templates[template_key] = _Template(
                        None if sql is None else build_fast_recipe(sql, binding)
                    )
                self._size += 1
                record.plans[limits] = _Entry(plan, binding, epoch)
                if self._size > self._capacity:
                    self._evict_one()
            elif verdict == _STALE:
                self._invalidated += 1
                record.plans[limits] = _Entry(plan, binding, epoch)
            elif verdict == _SENSITIVE:
                self._sensitive_skips += 1
            elif verdict == _VERIFY:
                if plan_shape(plan) != plan_shape(entry.plan):
                    entry.literal_sensitive = True
                    self._sensitive_templates += 1
                else:
                    entry.seen.add(binding.values)
            return plan

    def try_fast(
        self,
        fingerprint_key: Hashable,
        config: Hashable,
        epoch: int,
        sql: str,
    ) -> PlanNode | None:
        """Serve a verified template without parsing ``sql`` at all.

        Extracts the binding straight from the text via the template's
        :class:`~repro.sql.params.FastBindingRecipe` and puts it
        through the same guard chain as :meth:`fetch`. Returns the
        re-bound plan exactly where ``fetch`` would count a hit, and
        None otherwise — no recipe, odd text, or any other verdict —
        in which case the caller must take the ordinary parse +
        :meth:`fetch` path. Misses and verification bookkeeping happen
        there, never here.
        """
        template_key = (fingerprint_key, config)
        with self._lock:
            record = self._templates.get(template_key)
        recipe = None if record is None else record.recipe
        if recipe is None:
            return None
        binding = recipe.extract(sql)
        if binding is None:
            return None
        with self._lock:
            # the record may have been evicted since the first lookup
            record = self._templates.get(template_key)
            verdict, entry = self._guard(record, binding.limits, epoch, binding)
            if verdict != _HIT:
                return None
            self._templates.move_to_end(template_key)
            self._count(template_key)
            self._hits += 1
            self._fast_hits += 1
            return entry.rebinder.rebind(binding.slots)

    # -- the LRU and its doorkeeper (callers hold the lock) ---------------------

    def _count(self, template_key: Hashable) -> None:
        """Record one access of ``template_key``. Every ``10 × capacity``
        recorded accesses all counts halve and zeros are dropped, so old
        traffic fades and the table holds about that many keys."""
        counts = self._counts
        counts[template_key] = counts.get(template_key, 0) + 1
        self._recorded += 1
        if self._recorded >= 10 * self._capacity:
            self._recorded = 0
            self._counts = {k: c >> 1 for k, c in counts.items() if c > 1}

    def _admit(self, template_key: Hashable) -> bool:
        """May a new plan of ``template_key`` take a slot? Always while
        there is room; when full, only if the template has been seen at
        least as often as the LRU victim's (ties admit)."""
        if self._size < self._capacity:
            return True
        victim = next(iter(self._templates))
        counts = self._counts
        return counts.get(template_key, 0) >= counts.get(victim, 0)

    def _evict_one(self) -> None:
        """Drop the LRU record's oldest plan, and the record (recipe
        included) with its last plan."""
        victim_key, victim = next(iter(self._templates.items()))
        del victim.plans[next(iter(victim.plans))]
        self._size -= 1
        self._evicted += 1
        if not victim.plans:
            del self._templates[victim_key]

    def invalidate_all(self) -> int:
        """Drop every plan (e.g. after a manual catalog rewrite)."""
        with self._lock:
            n = self._size
            self._templates.clear()
            self._size = 0
            self._invalidated += n
            return n

    def stats(self) -> dict:
        with self._lock:
            total = self._hits + self._misses
            return {
                "size": self._size,
                "capacity": self._capacity,
                "hits": self._hits,
                "fast_hits": self._fast_hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "invalidated": self._invalidated,
                "evicted": self._evicted,
                "admission_refused": self._refused,
                "uncacheable": self._uncacheable,
                "literal_sensitive_templates": self._sensitive_templates,
                "literal_sensitive_skips": self._sensitive_skips,
            }
