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

Every representation is one rendering of one scan
(:func:`repro.sql.lexer.scan`, a single compiled regex): keywords
upper-cased, identifiers lower-cased, literals kept or folded.

Because fingerprinting sits on the inference hot path (it runs once
per query per batch), this module also owns two process-wide tables:

* a bounded LRU :class:`FingerprintMemo` from raw SQL text to its
  template fingerprint — repeated texts (prepared statements, retried
  queries) skip tokenization entirely;
* a capped :class:`FingerprintInterner` from fingerprint strings to
  dense integer ids, so batch dedup and the runtime's vectorized
  embedding cache can work on contiguous int arrays instead of string
  dict lookups. An id names one template for the life of the process,
  across :func:`reset_fingerprint_caches` too, so caches keyed by id
  never need dropping with the tables. When the table is full, new
  fingerprints get id ``-1`` ("no slot") and callers fall back to
  per-batch, uncached handling — a long-tailed stream can degrade
  throughput but never memory.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.errors import LexerError
from repro.sql.lexer import NUMBER, PARAMETER, QUOTED, STRING, WORD, scan
from repro.sql.tokens import KEYWORDS

NUM_PLACEHOLDER = "<NUM>"
STR_PLACEHOLDER = "<STR>"
PARAM_PLACEHOLDER = "<PARAM>"
_FOLDED = {
    STRING: STR_PLACEHOLDER,
    PARAMETER: PARAM_PLACEHOLDER,
    NUMBER: NUM_PLACEHOLDER,
}


def normalize(sql: str) -> str:
    """Return canonical single-spaced text with upper-cased keywords."""
    return " ".join(_rendered(scan(sql), fold_literals=False))


def templatize(sql: str) -> str:
    """Return normalized text with literals replaced by placeholders."""
    return " ".join(_rendered(scan(sql), fold_literals=True))


def token_stream(sql: str, fold_literals: bool = True) -> list[str]:
    """Return the token sequence used as embedder input.

    Identifiers are lower-cased so schema vocabulary is case-insensitive
    across dialects; keywords are upper-cased; literals fold to
    placeholders unless ``fold_literals`` is False.
    """
    return _rendered(scan(sql), fold_literals)


def safe_token_stream(sql: str) -> list[str]:
    """Like :func:`token_stream` (literals folded), but total: lexically
    broken queries degrade to whitespace tokens rather than raising.
    Querc must embed (and fingerprint) anything the log contains,
    garbage included."""
    try:
        return token_stream(sql)
    except LexerError:
        return sql.split()


def fingerprint_token_stream(tokens: list[str]) -> str:
    """Digest of one token sequence (the primitive under
    :func:`template_fingerprint`)."""
    joined = "\x1f".join(tokens)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()


def _rendered(tokens: list[tuple[int, str]], fold_literals: bool) -> list[str]:
    """The one rendering of a scan: a word is its keyword upper-cased or
    its identifier lower-cased, a quoted identifier is lower-cased
    without its delimiters, and literals fold to placeholders when
    ``fold_literals`` is set."""
    folded = _FOLDED if fold_literals else {}
    out: list[str] = []
    append = out.append
    for kind, text in tokens:
        if kind == WORD:
            upper = text.upper()
            append(upper if upper in KEYWORDS else text.lower())
        elif kind == QUOTED:
            append(text[1:-1].lower())
        else:
            append(folded.get(kind, text))
    return out


# -- fingerprint memo and interning table ------------------------------------


class FingerprintInterner:
    """Process-wide map from fingerprint strings to dense int ids.

    Ids are assigned first-come from a counter that :meth:`clear` does
    not rewind, so an id names one fingerprint for the lifetime of the
    process — a stable row index for the runtime's vectorized embedding
    cache and a stable plan-cache key, even across a reset. ``capacity``
    bounds the live entries. When the table is full, :meth:`intern_many`
    gives ``-1`` ("no slot") and counts the overflow; callers treat
    such fingerprints as uncacheable and fall back to per-batch
    handling, so a long tail of one-off templates costs throughput,
    never unbounded memory.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = int(capacity)
        self.overflow = 0  # intern attempts refused because the table was full
        self._ids: dict[str, int] = {}
        self._next_id = 0
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
                        fid = table[fingerprint] = self._next_id
                        self._next_id += 1
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
                        safe_token_stream(sql)
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


def template_fingerprint_ids(
    queries: Sequence[str],
) -> tuple[np.ndarray, list[str], int, int]:
    """Batch fingerprints as dense intern ids — the columnar hot path.

    Returns ``(ids, fingerprints, memo_hits, memo_misses)``; see
    :meth:`FingerprintMemo.fingerprint_ids` for the ``-1`` convention.
    """
    return _MEMO.fingerprint_ids(list(queries))


def fingerprint_cache_stats() -> dict:
    """Occupancy and hit counters of the process-wide tables."""
    return {"memo": _MEMO.stats(), "interner": _INTERNER.stats()}


def reset_fingerprint_caches() -> None:
    """Drop the process-wide memo and intern table (tests/benchmarks).

    Ids already handed out are never handed out again: a template
    interned after the reset gets a fresh id, so an
    :class:`~repro.runtime.cache.EmbeddingCache` lane or a plan cache
    keyed by an old id misses instead of serving another template.
    """
    _MEMO.clear()
    _INTERNER.clear()
