"""Unit tests for normalization, templatization and the fingerprint
memo/intern tables behind the columnar hot path."""

import numpy as np

from repro.sql.normalizer import (
    NUM_PLACEHOLDER,
    PARAM_PLACEHOLDER,
    STR_PLACEHOLDER,
    FingerprintInterner,
    FingerprintMemo,
    _fast_folded_stream,
    fingerprint_cache_stats,
    normalize,
    reset_fingerprint_caches,
    safe_token_stream,
    template_fingerprint,
    template_fingerprint_ids,
    templatize,
    token_stream,
)


class TestNormalize:
    def test_collapses_whitespace(self):
        assert normalize("select  1\n\t,2") == "SELECT 1 , 2"

    def test_uppercases_keywords_only(self):
        out = normalize("select MyCol from MyTable")
        assert out == "SELECT mycol FROM mytable"

    def test_idempotent(self):
        q = "select a, b from t where a > 10 and b = 'x'"
        assert normalize(normalize(q)) == normalize(q)

    def test_case_variants_normalize_identically(self):
        assert normalize("SELECT A FROM T") == normalize("select a from t")


class TestTemplatize:
    def test_numbers_fold(self):
        assert NUM_PLACEHOLDER in templatize("select * from t where a = 42")
        assert "42" not in templatize("select * from t where a = 42")

    def test_strings_fold(self):
        out = templatize("select * from t where s = 'secret'")
        assert STR_PLACEHOLDER in out
        assert "secret" not in out

    def test_parameters_fold(self):
        out = templatize("select * from t where id = :uid")
        assert PARAM_PLACEHOLDER in out

    def test_same_template_different_literals_equal(self):
        a = templatize("select * from t where a = 1 and s = 'x'")
        b = templatize("select * from t where a = 999 and s = 'yyy'")
        assert a == b

    def test_different_templates_differ(self):
        a = templatize("select * from t where a = 1")
        b = templatize("select * from u where a = 1")
        assert a != b


class TestTokenStream:
    def test_fold_literals_default(self):
        tokens = token_stream("select 42, 'x' from t")
        assert NUM_PLACEHOLDER in tokens
        assert STR_PLACEHOLDER in tokens

    def test_unfolded_keeps_literals(self):
        tokens = token_stream("select 42 from t", fold_literals=False)
        assert "42" in tokens

    def test_identifiers_lowercased(self):
        tokens = token_stream("select MyCol from T")
        assert "mycol" in tokens
        assert "t" in tokens

    def test_punctuation_preserved(self):
        tokens = token_stream("select a, b from t")
        assert "," in tokens


class TestFastFoldedScanner:
    CASES = [
        "SELECT a FROM t WHERE x = 5 AND s = 'u''1'",
        "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) "
        "from lineitem where l_shipdate <= '1998-09-02' group by l_orderkey",
        "select * from t where name like '%promo%' and id = $1",
        "update t set a = a || 'x', b = 0x1F, c = 1.5e-3 where d <> :param",
        "select a->>'k', b::int from t where c != ? and d >= %s",
        "select a from t -- trailing comment",
        "select a from t where x = 1 -- no newline at eof",
        "select a, -- mid\n b from t",
        'select "Quoted Col" from t',
        "select `col` from t",
        'select "WHERE" from "My Table" where x = 1',
        "select 'he said \"hi\"' from t",
    ]

    def test_matches_slow_lexer(self):
        for sql in self.CASES:
            fast = _fast_folded_stream(sql)
            assert fast is not None, sql
            assert fast == token_stream(sql, fold_literals=True), sql

    def test_bails_to_none_on_slow_constructs(self):
        # block comments, doubled-quote escapes and non-ASCII need the
        # full lexer; unterminated quotes leave a gap and bail too
        for sql in (
            "select /* hint */ a from t",
            'select "a""b" from t',
            "select `a``b` from t",
            "select a from t where s = 'naïve'",
            'select "broken from t',
            'select "multi\nline" from t',
        ):
            assert _fast_folded_stream(sql) is None, sql

    def test_safe_token_stream_agrees_either_way(self):
        for sql in self.CASES + ["select a from t -- c", "broken ' quote"]:
            try:
                want = token_stream(sql, fold_literals=True)
            except Exception:  # noqa: BLE001 - safe path degrades to split
                want = sql.split()
            assert safe_token_stream(sql, fold_literals=True) == want, sql


class TestFingerprintMemo:
    def test_exact_text_repeats_hit(self):
        memo = FingerprintMemo(capacity=8, interner=FingerprintInterner())
        _, (fp1,), _, _ = memo.fingerprint_ids(["select a from t where x = 1"])
        _, (fp2,), _, _ = memo.fingerprint_ids(["select a from t where x = 1"])
        assert fp1 == fp2
        stats = memo.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_bounded_lru_eviction(self):
        memo = FingerprintMemo(capacity=2, interner=FingerprintInterner())
        for i in range(3):
            memo.fingerprint_ids([f"select {chr(97 + i)} from t"])
        assert len(memo) == 2  # oldest text evicted, never unbounded
        memo.fingerprint_ids(["select a from t"])  # evicted: recomputes
        assert memo.stats()["misses"] == 4

    def test_fingerprint_ids_share_ids_per_template(self):
        interner = FingerprintInterner()
        memo = FingerprintMemo(capacity=8, interner=interner)
        ids, fps, hits, misses = memo.fingerprint_ids(
            [
                "select a from t where x = 1",
                "select a from t where x = 999",  # same template
                "select a from t where x = 1",  # exact repeat
                "select b from u",
            ]
        )
        assert ids[0] == ids[1] == ids[2] != ids[3]
        assert fps[0] == fps[1] == fps[2]
        # all four probed a cold memo (the repeat is only computed
        # once, but counted at probe time); a second pass all hits
        assert (hits, misses) == (0, 4)
        _, _, hits2, misses2 = memo.fingerprint_ids(
            ["select a from t where x = 1", "select b from u"]
        )
        assert (hits2, misses2) == (2, 0)
        assert len(interner) == 2

    def test_matches_template_fingerprint(self):
        memo = FingerprintMemo(capacity=4, interner=FingerprintInterner())
        q = "select a from t where x = 42"
        assert memo.fingerprint_ids([q])[1] == [template_fingerprint(q)]


class TestFingerprintInterner:
    def test_overflow_returns_minus_one(self):
        interner = FingerprintInterner(capacity=1)
        ids = interner.intern_many(["fp-a", "fp-a", "fp-b"])
        assert list(ids) == [0, 0, -1]  # table full: fp-b gets no slot
        stats = interner.stats()
        assert stats["size"] == 1 and stats["overflow"] == 1

    def test_ids_are_stable(self):
        interner = FingerprintInterner(capacity=8)
        first = interner.intern_many(["x", "y"])
        again = interner.intern_many(["y", "x"])
        assert list(first) == [0, 1]
        assert list(again) == [1, 0]
        assert isinstance(first, np.ndarray) and first.dtype == np.int64


class TestProcessWideTables:
    def test_template_fingerprint_ids_and_reset(self):
        reset_fingerprint_caches()
        ids, fps, _, _ = template_fingerprint_ids(
            ["select a from t where x = 1", "select a from t where x = 2"]
        )
        assert ids[0] == ids[1]
        assert fps[0] == template_fingerprint("select a from t where x = 3")
        stats = fingerprint_cache_stats()
        assert stats["interner"]["size"] >= 1
        assert stats["memo"]["size"] >= 1
        reset_fingerprint_caches()
        stats = fingerprint_cache_stats()
        assert stats["interner"]["size"] == 0
        assert stats["memo"]["size"] == 0
