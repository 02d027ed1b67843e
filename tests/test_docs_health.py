"""Docs stay healthy in tier-1: links resolve, indexes are complete,
cited names exist.

Runs the same checks as ``tools/check_doc_links.py`` (which CI invokes
as the docs-health step) so a broken internal link or an unindexed
example fails the ordinary test run too, not just CI. The examples
that print ``stats()`` counters are run, not only compiled.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_exist_and_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for doc in ("docs/architecture.md", "docs/api.md", "docs/examples.md"):
        assert (REPO_ROOT / doc).is_file(), f"{doc} missing"
        assert doc in readme, f"README does not link {doc}"


def test_internal_markdown_links_resolve():
    checker = _load_checker()
    assert checker.check_links() == []


def test_examples_index_is_complete():
    checker = _load_checker()
    assert checker.check_examples_index() == []


def test_documented_names_exist():
    checker = _load_checker()
    assert checker.check_documented_names() == []


def test_a_deleted_class_left_documented_is_caught(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "api.md").write_text(
        "`ColumnarBatch.label_at`, `repro.runtime.LabelColumn`, `TPC-H`, `ValueError`"
    )
    (docs / "architecture.md").write_text("`np.unique` and `SELECT`")
    module = tmp_path / "src" / "repro"
    module.mkdir(parents=True)
    (module / "columnar.py").write_text("class ColumnarBatch:\n    pass\n")
    checker = _load_checker()
    assert checker.check_documented_names(tmp_path) == [
        "docs/api.md: `repro.runtime.LabelColumn` names undefined LabelColumn"
    ]


def test_documented_dotted_paths_resolve():
    checker = _load_checker()
    assert checker.check_dotted_paths() == []


def test_a_stale_dotted_path_is_caught(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "api.md").write_text(
        "`repro.sql`, `repro.sql.lexer.scan`, `repro.sql.lexer.WORD`, "
        "`repro.sql.normalizer.fast_tokens`, `repro.sql.Token`, "
        "`repro.sql.nowhere`"
    )
    (docs / "architecture.md").write_text("`repro.sql.normalizer.normalize(sql)`")
    package = tmp_path / "src" / "repro" / "sql"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.sql.tokens import Token\n")
    (package / "lexer.py").write_text(
        "STRING, WORD = 1, 4\n\ndef scan(sql):\n    return []\n"
    )
    (package / "normalizer.py").write_text("def normalize(sql):\n    return sql\n")
    checker = _load_checker()
    assert checker.check_dotted_paths(tmp_path) == [
        "docs/api.md: `repro.sql.normalizer.fast_tokens` does not resolve",
        "docs/api.md: `repro.sql.nowhere` does not resolve",
    ]


def test_examples_compile():
    import compileall

    assert compileall.compile_dir(
        str(REPO_ROOT / "examples"), quiet=2, force=True
    )


@pytest.mark.parametrize(
    "example", ["fault_tolerant_serving.py", "network_serving.py"]
)
def test_counter_printing_examples_run(example):
    """The examples that print ``stats()`` counters run to completion —
    a vanished key is a ``KeyError`` here, which compiling cannot see."""
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / example)],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
