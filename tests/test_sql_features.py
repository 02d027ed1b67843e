"""Unit tests for classical syntactic feature extraction (the baseline)."""

import numpy as np
import pytest

from repro.sql.features import (
    QueryStructure,
    SyntacticFeatureExtractor,
    extract_structure,
)


class TestExtractStructure:
    def test_tables_and_joins(self):
        s = extract_structure(
            "select a from orders, lineitem where o_orderkey = l_orderkey"
        )
        assert s.tables == ("orders", "lineitem")
        assert s.join_edges == (("l_orderkey", "o_orderkey"),)

    def test_group_by_and_aggregates(self):
        s = extract_structure(
            "select a, sum(b), count(*) from t group by a having sum(b) > 1"
        )
        assert s.group_by_columns == ("a",)
        assert "SUM" in s.aggregates and "COUNT" in s.aggregates
        assert s.has_having

    def test_predicate_count(self):
        s = extract_structure(
            "select 1 from t where a > 1 and b = 2 and c like 'x%'"
        )
        assert s.predicate_count == 3

    def test_subquery_count(self):
        s = extract_structure(
            "select 1 from t where a in (select b from u) "
            "and exists (select 1 from v where v.x = t.x)"
        )
        assert s.subquery_count == 2

    def test_limit_captured(self):
        assert extract_structure("select a from t limit 5").limit == 5

    def test_order_by_columns(self):
        s = extract_structure("select a, b from t order by b desc, a")
        assert s.order_by_columns == ("b", "a")


class TestSyntacticFeatureExtractor:
    @pytest.fixture()
    def corpus(self):
        return [
            "select a from orders where o_orderkey = 1",
            "select b from lineitem where l_orderkey = 2",
            "select a, sum(x) from orders, lineitem "
            "where o_orderkey = l_orderkey group by a",
        ] * 3

    def test_fit_transform_shape(self, corpus):
        extractor = SyntacticFeatureExtractor()
        matrix = extractor.fit_transform(corpus)
        assert matrix.shape == (len(corpus), extractor.dimension)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SyntacticFeatureExtractor().transform(["select 1 from t"])

    def test_same_query_same_vector(self, corpus):
        extractor = SyntacticFeatureExtractor().fit(corpus)
        a = extractor.transform([corpus[0]])
        b = extractor.transform([corpus[0]])
        assert np.array_equal(a, b)

    def test_structurally_different_queries_differ(self, corpus):
        extractor = SyntacticFeatureExtractor().fit(corpus)
        vecs = extractor.transform([corpus[0], corpus[2]])
        assert not np.array_equal(vecs[0], vecs[1])

    def test_unparseable_query_degrades_gracefully(self, corpus):
        extractor = SyntacticFeatureExtractor().fit(corpus)
        vec = extractor.transform(["CREATE INDEX foo ON bar (baz)"])
        assert vec.shape == (1, extractor.dimension)
        # only the token-count scalar is populated
        assert vec[0, 0] > 0
        assert np.count_nonzero(vec[0, 1:]) == 0

    def test_lexically_broken_query_degrades_gracefully(self, corpus):
        broken = "select a from t where b = 'oops"
        extractor = SyntacticFeatureExtractor().fit(corpus + [broken])
        vec = extractor.transform([broken])
        # the token count of the whitespace fallback, nothing else
        assert vec[0, 0] == len(broken.split())
        assert np.count_nonzero(vec[0, 1:]) == 0

    def test_vocab_capping(self):
        queries = [f"select c{i} from t{i}" for i in range(100)]
        extractor = SyntacticFeatureExtractor(max_tables=10, max_columns=10)
        extractor.fit(queries)
        assert len(extractor._table_index) <= 10
        assert len(extractor._column_index) <= 10
