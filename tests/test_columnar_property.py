"""Property-based equivalence of the columnar hot path (hypothesis).

The columnar pipeline (interned fingerprint ids, ``np.unique`` dedup,
template-granularity predict + scatter, deferred ``to_messages()``)
must be byte-identical to the per-message object path for every batch
shape: random SnowSim/TPC-H mixes, duplicate-heavy batches, all-unique
batches, and classifier sets spanning multiple embedders. These
properties pin that contract with generated inputs, reusing the fixed
``identifier``/``simple_select`` strategies from
``test_property_based``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sql_lexer_oracle as oracle
from test_property_based import simple_select

from repro.core import LabeledQuery, QueryClassifier
from repro.core.labeler import ClassifierLabeler
from repro.embedding import BagOfTokensEmbedder
from repro.ml.forest import RandomizedForestClassifier
from repro.runtime import InferencePipeline
from repro.sql.normalizer import (
    fingerprint_token_stream,
    safe_token_stream,
    template_fingerprint,
    token_stream,
)
from repro.workloads import (
    SnowSimConfig,
    generate_snowsim_workload,
    generate_tpch_workload,
)


class QuantizedEmbedder:
    """Rounds vectors to 9 decimals so exact-equivalence assertions are
    immune to BLAS batch-shape rounding jitter (~1e-16): the legacy and
    columnar paths transform different batch shapes."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def transform(self, queries):
        return np.round(self.inner.transform(queries), 9)

    def __getattr__(self, name):
        return getattr(self.inner, name)


_SUBSTRATE = None


def _substrate():
    """Lazily build one fitted multi-embedder classifier set, shared by
    every generated example (hypothesis runs outside fixture scope)."""
    global _SUBSTRATE
    if _SUBSTRATE is None:
        tpch = generate_tpch_workload(instances_per_template=2, seed=7)
        snow = [
            r.query
            for r in generate_snowsim_workload(
                SnowSimConfig(total_queries=200, seed=5)
            )
        ]
        corpus = tpch + snow
        embedder_a = QuantizedEmbedder(
            BagOfTokensEmbedder(dimension=16, min_count=1, seed=3).fit(corpus)
        )
        embedder_b = QuantizedEmbedder(
            BagOfTokensEmbedder(dimension=8, min_count=1, seed=11).fit(corpus)
        )
        train = corpus[:120]
        classifiers = []
        for i, (name, embedder) in enumerate(
            [("route", embedder_a), ("resource", embedder_a), ("tier", embedder_b)]
        ):
            fps = [template_fingerprint(q) for q in train]
            labels = [(int(fp[:8], 16) + i) % 4 for fp in fps]
            labeler = ClassifierLabeler(
                RandomizedForestClassifier(n_trees=3, max_depth=6, seed=i)
            )
            labeler.fit(embedder.transform(train), labels)
            classifiers.append(QueryClassifier(name, embedder, labeler))
        _SUBSTRATE = {"pool": corpus, "classifiers": classifiers}
    return _SUBSTRATE


@st.composite
def query_batch(draw):
    """A labeled-batch's worth of queries: generated SELECTs mixed with
    real TPC-H/SnowSim texts, optionally duplicated (template streams
    repeat) and reshuffled. ``dup == 1`` with distinct draws covers the
    all-unique shape; ``dup > 1`` the duplicate-heavy one."""
    pool = _substrate()["pool"]
    base = draw(
        st.lists(
            st.one_of(simple_select(), st.sampled_from(pool)),
            min_size=1,
            max_size=12,
        )
    )
    dup = draw(st.integers(min_value=1, max_value=3))
    return draw(st.permutations(base * dup))


class TestColumnarEquivalence:
    @given(query_batch())
    @settings(max_examples=40, deadline=None)
    def test_columnar_labels_match_object_path(self, queries):
        classifiers = _substrate()["classifiers"]
        messages = [LabeledQuery.make(q) for q in queries]

        legacy = list(messages)
        for classifier in classifiers:
            legacy = classifier.label_batch(legacy)

        piped = (
            InferencePipeline().run_columnar(list(messages), classifiers).to_messages()
        )

        assert len(piped) == len(legacy) == len(queries)
        for want, got in zip(legacy, piped):
            assert got.query == want.query
            for classifier in classifiers:
                name = classifier.label_name
                assert got.label(name) == want.label(name)

    @given(query_batch())
    @settings(max_examples=20, deadline=None)
    def test_row_views_agree_with_materialization(self, queries):
        """``message_at``/``select`` (the router's spill views) and the
        cached ``to_messages()`` must agree row for row."""
        classifiers = _substrate()["classifiers"]
        columnar = InferencePipeline().run_columnar(
            [LabeledQuery.make(q) for q in queries], classifiers
        )
        per_row = [columnar.message_at(i) for i in range(len(columnar))]
        sliced = list(columnar.select(np.arange(len(columnar))))
        materialized = columnar.to_messages()
        for a, b, c in zip(per_row, sliced, materialized):
            assert a.query == b.query == c.query
            for classifier in classifiers:
                name = classifier.label_name
                assert a.label(name) == b.label(name) == c.label(name)


class TestFingerprintProperties:
    @given(simple_select())
    @settings(max_examples=100)
    def test_fast_scanner_never_diverges_from_lexer(self, sql):
        want = oracle.token_stream(sql)
        assert token_stream(sql) == want
        assert safe_token_stream(sql) == want

    @given(simple_select())
    @settings(max_examples=60)
    def test_memoized_fingerprint_matches_direct_computation(self, sql):
        direct = fingerprint_token_stream(
            safe_token_stream(sql)
        )
        assert template_fingerprint(sql) == direct
        assert template_fingerprint(sql) == direct  # memo hit: same answer
