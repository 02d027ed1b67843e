"""Parameter extraction: split a parsed SELECT into template + bindings.

The normalizer already folds literals when fingerprinting, so every
query whose text differs only in constants shares one template
fingerprint. This module is the AST-level counterpart: it walks a
parsed :class:`~repro.sql.ast.SelectStatement` once, in a deterministic
order, and separates the *template* (the literal-free structure) from
the *binding* (the ordered literal slots and the LIMIT values). Two
queries with the same template fingerprint parse to identically-shaped
ASTs, so their walks visit corresponding literal slots in the same
order — which is what lets prepared execution plan a template once and
re-bind fresh literals per query. The re-binding itself happens on the
*plan*, by literal identity (see :mod:`repro.minidb.plancache`); this
module only extracts a :class:`ParameterBinding`, from a parsed
statement or — for verified templates — straight from the text through
the normalizer's fast scanner (:class:`FastBindingRecipe`). Both routes
produce the same binding for the same text.

Three statement features need care:

* ``LIMIT``/``TOP``/``FETCH`` fold to plain ints at parse time (they
  are not :class:`~repro.sql.ast.Literal` nodes), so they are reported
  separately as the *structural* part of a binding — plan caches key
  on them rather than re-binding them.
* ``GROUP BY``/``ORDER BY`` expressions resolve against the select
  list *by text* during planning, so a literal there can change plan
  wiring, not just predicate constants. Templates containing one are
  flagged unsafe for re-binding.
* Subquery statements are walked in place, because their literals end
  up inside the template's subplans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sql import ast
from repro.sql.normalizer import (
    FAST_NUMBER,
    FAST_PARAMETER,
    FAST_STRING,
    FAST_WORD,
    fast_tokens,
)


@dataclass(frozen=True, slots=True)
class ParameterBinding:
    """One query's literals, split from its template.

    ``slots`` are :class:`~repro.sql.ast.Literal` node instances in
    walk order (their ``.value``/``.kind`` are the binding values);
    ``kinds`` is the per-slot kind signature two bindings must share to
    be re-bindable against each other; ``limits`` is the tuple of
    LIMIT values, one per statement in walk order (outer statement
    first) — structural, not re-bindable; ``rebind_safe`` is False
    when the statement puts literals where planning resolves by text
    (GROUP BY / ORDER BY), which makes positional re-binding unsound.
    """

    slots: tuple[ast.Literal, ...]
    kinds: tuple[str, ...]
    limits: tuple[int | None, ...]
    rebind_safe: bool

    @property
    def values(self) -> tuple:
        """The literal values in slot order (hashable)."""
        return tuple([slot.value for slot in self.slots])


def extract_parameters(stmt: ast.SelectStatement) -> ParameterBinding:
    """Split ``stmt`` into its ordered literal bindings + signature.

    The statement itself *is* the template — slots are returned as the
    live node instances (the planner preserves literal identity into
    plan predicates, which is what :class:`~repro.minidb.plancache`
    relies on to re-bind cached plans). The slot order is a fixed
    pre-order traversal (select items, FROM relations incl. subqueries,
    WHERE, GROUP BY, HAVING, ORDER BY), so same-shaped statements yield
    corresponding slots at the same positions.
    """
    slots: list[ast.Literal] = []
    limits: list[int | None] = []
    _walk_stmt(stmt, slots, limits)
    return ParameterBinding(
        slots=tuple(slots),
        kinds=tuple([slot.kind for slot in slots]),
        limits=tuple(limits),
        rebind_safe=_rebind_safe(stmt),
    )


# ---------------------------------------------------------------------------
# walk (extraction order)
# ---------------------------------------------------------------------------


def _walk_stmt(stmt: ast.SelectStatement, slots: list, limits: list) -> None:
    limits.append(stmt.limit)
    for item in stmt.items:
        _walk_expr(item.expr, slots, limits)
    for rel in stmt.relations:
        _walk_rel(rel, slots, limits)
    if stmt.where is not None:
        _walk_expr(stmt.where, slots, limits)
    for expr in stmt.group_by:
        _walk_expr(expr, slots, limits)
    if stmt.having is not None:
        _walk_expr(stmt.having, slots, limits)
    for order in stmt.order_by:
        _walk_expr(order.expr, slots, limits)


def _walk_rel(rel: ast.Relation, slots: list, limits: list) -> None:
    if isinstance(rel, ast.SubqueryRef):
        _walk_stmt(rel.subquery, slots, limits)
    elif isinstance(rel, ast.Join):
        _walk_rel(rel.left, slots, limits)
        _walk_rel(rel.right, slots, limits)
        if rel.condition is not None:
            _walk_expr(rel.condition, slots, limits)


def _walk_expr(expr: ast.Expr, slots: list, limits: list) -> None:
    if isinstance(expr, ast.Literal):
        slots.append(expr)
    elif isinstance(expr, ast.InSubquery):
        _walk_expr(expr.expr, slots, limits)
        _walk_stmt(expr.subquery, slots, limits)
    elif isinstance(expr, (ast.Exists, ast.ScalarSubquery)):
        _walk_stmt(expr.subquery, slots, limits)
    else:
        for child in ast.iter_children(expr):
            _walk_expr(child, slots, limits)


def _has_literal(expr: ast.Expr) -> bool:
    """Literal anywhere in ``expr``, subquery interiors included."""
    found: list[ast.Literal] = []
    _walk_expr(expr, found, [])
    return bool(found)


def _rebind_safe(
    stmt: ast.SelectStatement, *, positional_output: bool = False
) -> bool:
    """False when a literal appears where planning resolves by text.

    GROUP BY / ORDER BY expressions are matched against the select
    list by rendered text, and an unaliased select item's output name
    is ``str(expr)`` — in both cases a literal's *value* leaks into
    plan wiring or result column names, so positional re-binding would
    change them.

    ``positional_output`` marks statements whose output columns are
    consumed positionally and never by a name visible outside the
    statement — scalar/IN/EXISTS subquery bodies (the executor reads
    their single output through the subplan's own ``output_names``,
    which stays internally consistent under rebinding). For those the
    unaliased-item name guard is unnecessary; the GROUP BY / ORDER BY
    text-matching guards still apply because they wire *within* the
    statement at plan time.
    """
    for expr in stmt.group_by:
        if _has_literal(expr):
            return False
    for order in stmt.order_by:
        if _has_literal(order.expr):
            return False
    for item in stmt.items:
        if (
            not positional_output
            and item.alias is None
            and _has_shallow_literal(item.expr)
        ):
            return False
        if not _subqueries_safe(item.expr):
            return False
    for rel in stmt.relations:
        if not _rel_safe(rel):
            return False
    for clause in (stmt.where, stmt.having):
        if clause is not None and not _subqueries_safe(clause):
            return False
    return True


def _rel_safe(rel: ast.Relation) -> bool:
    # FROM-subquery columns ARE referenced by name from the enclosing
    # scope, so their select-item names must stay literal-free.
    if isinstance(rel, ast.SubqueryRef):
        return _rebind_safe(rel.subquery)
    if isinstance(rel, ast.Join):
        ok = _rel_safe(rel.left) and _rel_safe(rel.right)
        if ok and rel.condition is not None:
            ok = _subqueries_safe(rel.condition)
        return ok
    return True


def _has_shallow_literal(expr: ast.Expr) -> bool:
    """Literal anywhere in ``expr`` excluding subquery interiors (which
    render as ``<subquery>`` and never leak values into names)."""
    if isinstance(expr, ast.Literal):
        return True
    return any(_has_shallow_literal(c) for c in ast.iter_children(expr))


def _subqueries_safe(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
        if not _rebind_safe(expr.subquery, positional_output=True):
            return False
        if isinstance(expr, ast.InSubquery):
            return _subqueries_safe(expr.expr)
        return True
    return all(_subqueries_safe(child) for child in ast.iter_children(expr))


# ---------------------------------------------------------------------------
# parse-free binding extraction (the prepared hot path)
# ---------------------------------------------------------------------------

# mirrors Parser._parse_interval
_INTERVAL_DAYS = {"day": 1, "week": 7, "month": 30, "year": 365}

_CONST, _NUM, _STR, _RAW, _DATE, _INTERVAL = range(6)


def _unquote_str(text: str) -> str:
    """Undo a single-quoted lexeme (mirrors the parser's ``_unquote``)."""
    return text[1:-1].replace("''", "'")


def _literal_tokens(sql: str) -> list[tuple[int, str]] | None:
    """The literal tokens of ``sql`` from the fast scanner, or None."""
    tokens = fast_tokens(sql)
    if tokens is None:
        return None
    return [token for token in tokens if token[0] <= FAST_NUMBER]


class FastBindingRecipe:
    """Extract a template's binding from raw text, without parsing.

    Two texts with equal template fingerprints tokenize identically
    except for literal lexemes, so the correspondence between a
    template's lexical literal tokens and its AST binding slots (plus
    which token carries a variable ``LIMIT``) is a property of the
    *template*, computed once from one parsed instance and replayed on
    every later text by one pass of the normalizer's fast scanner. Each
    per-slot step mirrors the parser's value transform exactly (number
    int/float/hex rules, string unescaping, ``DATE`` truncation,
    ``INTERVAL`` unit multiplication), and :func:`build_fast_recipe`
    verifies the whole recipe round-trips the base text before it is
    ever used — any template the strict alignment cannot prove (extra
    structural number tokens, multiple LIMITs, bound parameters in odd
    positions) simply gets no recipe and keeps parsing per query.

    :meth:`extract` returns the :class:`ParameterBinding` that
    ``extract_parameters(parse_select(sql))`` would for the same text,
    with fresh literal slots, or ``None`` when this text must take the
    parse path.
    """

    __slots__ = ("steps", "kinds", "n_tokens", "limits", "limit_token", "limit_pos")

    def __init__(self, steps, kinds, n_tokens, limits, limit_token, limit_pos):
        self.steps = steps  # (op, literal-token index, arg) per slot
        self.kinds = kinds
        self.n_tokens = n_tokens  # literal tokens in the template's text
        self.limits = limits  # base limits tuple; one position may vary
        self.limit_token = limit_token  # literal-token index of the LIMIT
        self.limit_pos = limit_pos  # its position in the limits tuple

    def extract(self, sql: str) -> ParameterBinding | None:
        tokens = _literal_tokens(sql)
        if tokens is None or len(tokens) != self.n_tokens:
            return None
        slots = []
        append = slots.append
        try:
            for (op, i, arg), kind in zip(self.steps, self.kinds):
                if op == _CONST:
                    value = arg
                else:
                    category, text = tokens[i]
                    if op == _NUM:
                        value = (
                            float(text)
                            if ("." in text or "e" in text.lower())
                            else int(text, 0)
                        )
                    elif op == _STR:
                        value = _unquote_str(text)
                    elif op == _RAW:
                        value = text
                    elif op == _DATE:
                        value = _unquote_str(text)[:10]
                    else:  # _INTERVAL
                        base = _unquote_str(text) if category == FAST_STRING else text
                        value = float(base) * arg
                append(ast.Literal(value, kind))
            limits = self.limits
            if self.limit_token is not None:
                bound = int(float(tokens[self.limit_token][1]))
                limits = (
                    limits[: self.limit_pos]
                    + (bound,)
                    + limits[self.limit_pos + 1 :]
                )
        except (ValueError, OverflowError):
            return None
        # only a rebind-safe template gets a recipe
        return ParameterBinding(tuple(slots), self.kinds, limits, rebind_safe=True)


def build_fast_recipe(sql: str, binding: ParameterBinding) -> FastBindingRecipe | None:
    """Derive a :class:`FastBindingRecipe` from one parsed instance.

    ``binding`` must be ``extract_parameters`` of ``sql``'s parse.
    Returns None when the template cannot be proven safe for parse-free
    extraction — the caller should then keep parsing per query.
    """
    tokens = _literal_context(sql) if binding.rebind_safe else None
    if tokens is None:
        return None
    limit_tokens = [
        i
        for i, (category, _, prev_word, _) in enumerate(tokens)
        if category == FAST_NUMBER and prev_word == "limit"
    ]
    bound_limits = [
        (pos, value) for pos, value in enumerate(binding.limits) if value is not None
    ]
    if len(limit_tokens) != len(bound_limits) or len(bound_limits) > 1:
        return None
    limit_token = limit_pos = None
    if bound_limits:
        limit_token = limit_tokens[0]
        limit_pos = bound_limits[0][0]
    skip = set(limit_tokens)

    steps = []
    j = 0
    for slot, kind in zip(binding.slots, binding.kinds):
        if kind in ("null", "bool"):
            steps.append((_CONST, None, slot.value))
            continue
        while j < len(tokens) and j in skip:
            j += 1
        if j >= len(tokens):
            return None
        step = _slot_step(tokens[j], j, kind)
        if step is None:
            return None
        steps.append(step)
        j += 1
    # strict alignment: every leftover literal token must be the LIMIT
    for k in range(j, len(tokens)):
        if k not in skip:
            return None

    recipe = FastBindingRecipe(
        steps=tuple(steps),
        kinds=binding.kinds,
        n_tokens=len(tokens),
        limits=binding.limits,
        limit_token=limit_token,
        limit_pos=limit_pos,
    )
    # the proof: the recipe must round-trip the very text it came from,
    # value- and type-exactly (int vs float vs bool matter downstream)
    got = recipe.extract(sql)
    if got is None or _typed(got) != _typed(binding):
        return None
    return recipe


def _typed(binding: ParameterBinding) -> tuple:
    """What two bindings of one text must share: kinds, limits, and
    every value with its type."""
    return (
        binding.kinds,
        binding.limits,
        [(type(value), value) for value in binding.values],
    )


def _literal_context(
    sql: str,
) -> list[tuple[int, str, str | None, str | None]] | None:
    """``(category, text, prev_word, next_word)`` per literal token.

    ``prev_word``/``next_word`` are the lowercased bare-word tokens
    *immediately* adjacent (None when the neighbor is not a word) —
    enough context to recognize ``DATE '...'``, ``INTERVAL '...' DAY``
    and ``LIMIT n`` without parsing.
    """
    tokens = fast_tokens(sql)
    if tokens is None:
        return None

    def word(i: int) -> str | None:
        if 0 <= i < len(tokens) and tokens[i][0] == FAST_WORD:
            return tokens[i][1].lower()
        return None

    return [
        (category, text, word(i - 1), word(i + 1))
        for i, (category, text) in enumerate(tokens)
        if category <= FAST_NUMBER
    ]


def _slot_step(token, index: int, kind: str):
    """The extraction step binding ``token`` to a slot of ``kind``."""
    category, _, prev_word, next_word = token
    if kind == "number":
        if prev_word == "interval":
            mult = _INTERVAL_DAYS.get(next_word or "")
            if mult is None or category == FAST_PARAMETER:
                return None
            return (_INTERVAL, index, mult)
        if category != FAST_NUMBER:
            return None
        return (_NUM, index, None)
    if kind == "date":
        if category != FAST_STRING or prev_word not in ("date", "timestamp", "time"):
            return None
        return (_DATE, index, None)
    if kind == "string":
        if category == FAST_PARAMETER:
            return (_RAW, index, None)
        if category != FAST_STRING:
            return None
        return (_STR, index, None)
    return None
