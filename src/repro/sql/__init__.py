"""Dialect-tolerant SQL substrate.

The Querc design depends only on query *text*, so this package provides
the minimal, robust machinery needed by the rest of the system:

* :mod:`repro.sql.lexer` — a tokenizer that survives heterogeneous SQL
  dialects (different quoting, parameter markers, comments).
* :mod:`repro.sql.normalizer` — canonicalisation and templatization of
  query text (literal folding, whitespace), used both by embedders and
  by the workload generators.
* :mod:`repro.sql.parser` — a SELECT-grammar parser producing the AST
  consumed by the minidb engine and by the classical feature baseline.
* :mod:`repro.sql.features` — Chaudhuri-style syntactic feature
  engineering, the baseline the paper argues learned embeddings replace.
"""

from repro.sql.tokens import Token, TokenType
from repro.sql.lexer import tokenize
from repro.sql.normalizer import normalize, templatize, token_stream
from repro.sql.parser import parse_select
from repro.sql.params import (
    FastBindingRecipe,
    ParameterBinding,
    build_fast_recipe,
    extract_parameters,
)
from repro.sql.features import SyntacticFeatureExtractor

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "normalize",
    "templatize",
    "token_stream",
    "parse_select",
    "FastBindingRecipe",
    "ParameterBinding",
    "build_fast_recipe",
    "extract_parameters",
    "SyntacticFeatureExtractor",
]
