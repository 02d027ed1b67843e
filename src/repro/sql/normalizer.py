"""Canonicalisation and templatization of query text.

Two representations are produced from raw SQL:

* :func:`normalize` — canonical single-spaced text with keywords
  upper-cased; used when comparing or deduplicating queries.
* :func:`templatize` — like normalize but with literals folded to
  placeholder tokens (``<NUM>``, ``<STR>``); two executions of the same
  prepared statement with different parameters templatize identically.
* :func:`token_stream` — the token sequence fed to embedders. Literals
  are folded there too: the paper's embedders learn structure and
  schema vocabulary, not constants.
* :func:`template_fingerprint` — a compact digest of the folded token
  stream; two queries with the same fingerprint are guaranteed to feed
  identical token sequences to every embedder, which is what makes the
  runtime layer's embedding cache and batch deduplication sound.

Because fingerprinting sits on the inference hot path (it runs once
per query per batch), this module also owns two process-wide tables:

* a bounded LRU :class:`FingerprintMemo` from raw SQL text to its
  template fingerprint — repeated texts (prepared statements, retried
  queries) skip tokenization entirely;
* a capped :class:`FingerprintInterner` from fingerprint strings to
  dense integer ids, so batch dedup and the runtime's vectorized
  embedding cache can work on contiguous int arrays instead of string
  dict lookups. When the table is full, new fingerprints get id ``-1``
  ("no slot") and callers fall back to per-batch, uncached handling —
  a long-tailed stream can degrade throughput but never memory.

The common case additionally bypasses the character-at-a-time lexer:
one fast scanner, :func:`fast_tokens`, splits plain ASCII SQL into
categorized lexemes with a single compiled regex, and bails (returns
None) whenever it sees a construct it does not model (block comments,
doubled-quote escapes, non-ASCII), so the fast path is an
optimization, never a semantic fork. It has two readers, each with its
own rendering: the literal-folded stream fingerprints are made of, and
the literal lexemes a prepared template's
:class:`~repro.sql.params.FastBindingRecipe` binds from.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.sql.lexer import tokenize
from repro.sql.tokens import KEYWORDS, Token, TokenType

NUM_PLACEHOLDER = "<NUM>"
STR_PLACEHOLDER = "<STR>"
PARAM_PLACEHOLDER = "<PARAM>"


def normalize(sql: str) -> str:
    """Return canonical single-spaced text with upper-cased keywords."""
    return " ".join(_render(tok, fold_literals=False) for tok in tokenize(sql)[:-1])


def templatize(sql: str) -> str:
    """Return normalized text with literals replaced by placeholders."""
    return " ".join(_render(tok, fold_literals=True) for tok in tokenize(sql)[:-1])


def token_stream(sql: str, fold_literals: bool = True) -> list[str]:
    """Return the token sequence used as embedder input.

    Identifiers are lower-cased so schema vocabulary is case-insensitive
    across dialects; keywords are upper-cased; literals fold to
    placeholders unless ``fold_literals`` is False.
    """
    return [_render(tok, fold_literals) for tok in tokenize(sql)[:-1]]


def safe_token_stream(sql: str, fold_literals: bool = True) -> list[str]:
    """Like :func:`token_stream`, but total: lexically broken queries
    degrade to whitespace tokens rather than raising. Querc must embed
    (and fingerprint) anything the log contains, garbage included.

    On the common fold-literals path, plain ASCII SQL is scanned by one
    compiled regex instead of the character-at-a-time lexer; anything
    the regex does not fully account for falls back to the lexer, so
    both paths produce identical streams.
    """
    if fold_literals:
        fast = _fast_folded_stream(sql)
        if fast is not None:
            return fast
    try:
        return token_stream(sql, fold_literals=fold_literals)
    except Exception:  # noqa: BLE001 - logs contain garbage; stay total
        return sql.split()


def fingerprint_token_stream(tokens: list[str]) -> str:
    """Digest of one token sequence (the primitive under
    :func:`template_fingerprint` and ``QueryEmbedder.fingerprint``)."""
    joined = "\x1f".join(tokens)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()


def _render(tok: Token, fold_literals: bool) -> str:
    if tok.type is TokenType.NUMBER:
        return NUM_PLACEHOLDER if fold_literals else tok.value
    if tok.type is TokenType.STRING:
        return STR_PLACEHOLDER if fold_literals else tok.value
    if tok.type is TokenType.PARAMETER:
        return PARAM_PLACEHOLDER if fold_literals else tok.value
    if tok.type is TokenType.IDENTIFIER:
        return tok.value.lower()
    return tok.value


# -- the fast scanner ----------------------------------------------------------

# Constructs the fast scanner does not model. Their mere *presence*
# anywhere in the text (even inside a string literal) routes the query
# to the full lexer — cheaper than proving the occurrence is benign.
# ``""``/```` `` ```` are doubled-quote escapes inside quoted
# identifiers: the single-regex scanner cannot pair them soundly, so
# they bail even though simple quoted identifiers are handled below.
_SLOW_CONSTRUCTS = re.compile(r"/\*|\"\"|``|[#\[]")

# Whitespace and ``--`` line comments, skipped between tokens.
_SKIPPED = r"(?:\s|--[^\n]*)*"
_LEADING = re.compile(_SKIPPED)

# One match per token, with the skipped text after it: one alternative
# per lexical category, ordered exactly like the lexer's dispatch —
# strings, parameter markers, numbers, words, multi- before single-char
# operators, punctuation — so exactly one group matches and
# ``lastindex`` is the category. A token is never read out of ``--``:
# it is skipped text wherever a token could start. Quoted identifiers
# come last among the categories, since nothing else can claim a quote
# character. The final group takes whatever no category claims (an
# unclaimed character, a quote whose mate sits past a newline or is
# missing) together with the rest of the text, so the matches cover
# the text without gaps and only the last can be unclaimed.
_FAST_TOKEN = re.compile(
    r"""
    (?:
      ('[^']*(?:''[^']*)*')                         # 1 string literal
    | (\?|\$\d+|%s|:[A-Za-z_][A-Za-z0-9_]*)         # 2 parameter marker
    | (0[xX][0-9a-fA-F]*
       |(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)       # 3 number
    | ([A-Za-z_][A-Za-z0-9_$]*)                     # 4 keyword / identifier
    | (->>|->|<>|!=|>=|<=|\|\||::|[-+*/%<>=^&|~])   # 5 operator
    | ([(),.;\]{}])                                 # 6 punctuation
    | ("[^"\n]*"|`[^`\n]*`)                         # 7 quoted identifier
    | ([\s\S]+)                                     # 8 unclaimed rest
    )
    """
    + _SKIPPED,
    re.VERBOSE,
)

# Categories of a :func:`fast_tokens` entry. Literals come first, so
# ``kind <= FAST_NUMBER`` tests for one.
FAST_STRING, FAST_PARAMETER, FAST_NUMBER, FAST_WORD = 1, 2, 3, 4
_QUOTED, _UNCLAIMED = 7, 8
_FOLDED = {
    FAST_STRING: STR_PLACEHOLDER,
    FAST_PARAMETER: PARAM_PLACEHOLDER,
    FAST_NUMBER: NUM_PLACEHOLDER,
}


def fast_tokens(sql: str) -> list[tuple[int, str]] | None:
    """``(category, lexeme)`` for every token of ``sql``, or None.

    Categories are the ``FAST_*`` constants (and operator, punctuation
    and quoted-identifier codes nobody needs by name). None means "not
    eligible" — non-ASCII, a construct the regex does not model, or a
    character outside every category — and the caller must use the
    full lexer or the parser instead.
    """
    if not sql.isascii() or _SLOW_CONSTRUCTS.search(sql) is not None:
        return None
    tokens = [
        (kind := m.lastindex, m[kind])
        for m in _FAST_TOKEN.finditer(sql, _LEADING.match(sql).end())
    ]
    if tokens and tokens[-1][0] == _UNCLAIMED:
        return None  # the full lexer decides
    return tokens


def _fast_folded_stream(sql: str) -> list[str] | None:
    """The literal-folded rendering of :func:`fast_tokens`, or None.

    A non-None result is byte-identical to
    ``token_stream(sql, fold_literals=True)``.
    """
    tokens = fast_tokens(sql)
    if tokens is None:
        return None
    out: list[str] = []
    append = out.append
    for kind, text in tokens:
        if kind == FAST_WORD:
            upper = text.upper()
            append(upper if upper in KEYWORDS else text.lower())
        elif kind == _QUOTED:
            # identifier rendering: the quoted text minus its delimiters,
            # lowercased without a keyword check — same as the lexer
            append(text[1:-1].lower())
        else:
            append(_FOLDED.get(kind, text))
    return out


# -- fingerprint memo and interning table ------------------------------------


class FingerprintInterner:
    """Process-wide map from fingerprint strings to dense int ids.

    Ids are assigned first-come in ``[0, capacity)`` and never reused
    or evicted, so an id is a stable row index for the lifetime of the
    process — exactly what the runtime's vectorized embedding cache
    keys its matrix rows on. When the table is full, :meth:`intern_many`
    gives ``-1`` ("no slot") and counts the overflow; callers treat
    such fingerprints as uncacheable and fall back to per-batch
    handling, so a long tail of one-off templates costs throughput,
    never unbounded memory.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = int(capacity)
        self.overflow = 0  # intern attempts refused because the table was full
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()

    def intern_many(self, fingerprints: Sequence[str]) -> np.ndarray:
        """Ids for a batch of fingerprints under one lock acquisition
        (``-1`` for a new fingerprint once the table is full)."""
        ids = np.empty(len(fingerprints), dtype=np.int64)
        with self._lock:
            table = self._ids
            for i, fingerprint in enumerate(fingerprints):
                fid = table.get(fingerprint)
                if fid is None:
                    if len(table) >= self.capacity:
                        self.overflow += 1
                        fid = -1
                    else:
                        fid = table[fingerprint] = len(table)
                ids[i] = fid
        return ids

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    def clear(self) -> None:
        with self._lock:
            self._ids.clear()
            self.overflow = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._ids),
                "capacity": self.capacity,
                "overflow": self.overflow,
            }


class FingerprintMemo:
    """Bounded LRU memo from raw SQL text to (fingerprint, intern id).

    Exact-text repeats (prepared statements, retried queries, template
    streams) skip tokenization and hashing entirely. Entries carry the
    interned id alongside the fingerprint so a memo hit resolves both
    in one dict probe. The memo is LRU-bounded: a long-tailed stream
    recycles slots instead of growing without limit.
    """

    def __init__(
        self,
        capacity: int = 32768,
        interner: FingerprintInterner | None = None,
    ) -> None:
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._interner = interner if interner is not None else FingerprintInterner()
        self._entries: OrderedDict[str, tuple[str, int]] = OrderedDict()
        self._lock = threading.Lock()

    def fingerprint_ids(
        self, queries: Sequence[str]
    ) -> tuple[np.ndarray, list[str], int, int]:
        """Batch lookup: ``(ids, fingerprints, memo_hits, memo_misses)``.

        ``ids[i] == -1`` means the fingerprint holds no intern slot
        (table full): it is still a valid fingerprint, just uncacheable
        by id. All hits resolve under one lock acquisition; misses are
        tokenized outside the lock (duplicate texts within the batch
        are computed once) and inserted under a second.
        """
        n = len(queries)
        ids = np.empty(n, dtype=np.int64)
        fps: list[str] = [""] * n
        missed: list[int] = []
        with self._lock:
            entries = self._entries
            for i, sql in enumerate(queries):
                entry = entries.get(sql)
                if entry is None:
                    missed.append(i)
                else:
                    fps[i], ids[i] = entry
                    entries.move_to_end(sql)
            self.hits += n - len(missed)
            self.misses += len(missed)
        if missed:
            computed: dict[str, str] = {}
            for i in missed:
                sql = queries[i]
                fp = computed.get(sql)
                if fp is None:
                    fp = computed[sql] = fingerprint_token_stream(
                        safe_token_stream(sql, fold_literals=True)
                    )
                fps[i] = fp
            distinct = list(dict.fromkeys(fps[i] for i in missed))
            fid_of = dict(
                zip(distinct, self._interner.intern_many(distinct).tolist())
            )
            with self._lock:
                entries = self._entries
                for i in missed:
                    sql = queries[i]
                    fp = fps[i]
                    fid = fid_of[fp]
                    ids[i] = fid
                    entries[sql] = (fp, fid)
                    entries.move_to_end(sql)
                while len(entries) > self.capacity:
                    entries.popitem(last=False)
        return ids, fps, n - len(missed), len(missed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        with self._lock:
            hits = self.hits
            misses = self.misses
            size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }


# One memo + interner pair per process: fingerprints are a pure
# function of the text, so every pipeline/service shares them.
_INTERNER = FingerprintInterner()
_MEMO = FingerprintMemo(interner=_INTERNER)


def template_fingerprint(sql: str) -> str:
    """Digest identifying the query's literal-folded template.

    Built from :func:`safe_token_stream` — exactly the sequence
    embedders consume — so equal fingerprints imply equal embedder
    input. Used as the dedup/cache key on the inference hot path, and
    memoized process-wide by exact text (see :class:`FingerprintMemo`);
    the batch path with one query.
    """
    return _MEMO.fingerprint_ids([sql])[1][0]


def template_fingerprints(queries: Sequence[str]) -> list[str]:
    """Batch :func:`template_fingerprint` through the process memo."""
    return _MEMO.fingerprint_ids(list(queries))[1]


def template_fingerprint_ids(
    queries: Sequence[str],
) -> tuple[np.ndarray, list[str], int, int]:
    """Batch fingerprints as dense intern ids — the columnar hot path.

    Returns ``(ids, fingerprints, memo_hits, memo_misses)``; see
    :meth:`FingerprintMemo.fingerprint_ids` for the ``-1`` convention.
    """
    return _MEMO.fingerprint_ids(list(queries))


def intern_fingerprints(fingerprints: Sequence[str]) -> np.ndarray:
    """Dense ids for already-computed fingerprints (custom embedder
    tokenizations); ``-1`` marks fingerprints without an intern slot."""
    return _INTERNER.intern_many(list(fingerprints))


def fingerprint_cache_stats() -> dict:
    """Occupancy and hit counters of the process-wide tables."""
    return {"memo": _MEMO.stats(), "interner": _INTERNER.stats()}


def reset_fingerprint_caches() -> None:
    """Drop the process-wide memo and intern table (tests/benchmarks).

    Interned ids are invalidated by this, so any
    :class:`~repro.runtime.cache.EmbeddingCache` holding id-keyed
    matrix rows must be dropped with it.
    """
    _MEMO.clear()
    _INTERNER.clear()
