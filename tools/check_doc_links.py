#!/usr/bin/env python3
"""Docs health: internal links resolve, the examples index is complete,
and the names the reference docs cite exist.

Scans the repo's markdown surfaces (README.md, ROADMAP.md, PAPER*.md,
CHANGES.md, and everything under docs/) for relative markdown links
and verifies each target exists on disk. External links (http/https/
mailto) and pure in-page anchors are skipped; a relative link's
``#anchor`` suffix is stripped before the existence check. Also
verifies that ``docs/examples.md`` indexes every ``examples/*.py``,
and that every backticked span of ``docs/api.md`` and
``docs/architecture.md`` that opens with a CamelCase name (optionally
behind a ``repro.`` module path) names a class, function or constant
some ``src/repro`` module defines — so a deleted class cannot stay
documented — and that every backticked dotted path ``repro.…`` in
them resolves statically: its module file exists under ``src/``, and
a trailing name is a ``def``, class, assignment or import in it.

Run from anywhere::

    python tools/check_doc_links.py

Exit status 0 when healthy, 1 with one line per problem otherwise.
CI runs this as the docs-health step; ``tests/test_docs_health.py``
runs the same checks in tier-1.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# [text](target) — target captured up to the closing paren (markdown
# in this repo doesn't use nested parens or <...> link targets)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")

# `Name...` or `repro.module.Name...`: the CamelCase head of a code span
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_CITED_NAME = re.compile(r"(?:repro(?:\.[a-z_]\w*)*\.)?([A-Z]\w*)")
_REFERENCE_DOCS = ("docs/api.md", "docs/architecture.md")
# `repro.module.name...`: a dotted path at the head of a code span
_DOTTED_PATH = re.compile(r"repro(?:\.\w+)+")


def markdown_files(root: Path = REPO_ROOT) -> list[Path]:
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def check_links(root: Path = REPO_ROOT) -> list[str]:
    """Every relative markdown link must resolve to an existing path."""
    problems = []
    for path in markdown_files(root):
        text = path.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link -> {target}"
                )
    return problems


def check_examples_index(root: Path = REPO_ROOT) -> list[str]:
    """docs/examples.md must mention every examples/*.py exactly."""
    index = root / "docs" / "examples.md"
    examples_dir = root / "examples"
    if not index.is_file():
        return [f"missing {index.relative_to(root)}"]
    text = index.read_text(encoding="utf-8")
    problems = []
    for example in sorted(examples_dir.glob("*.py")):
        if example.name not in text:
            problems.append(
                f"docs/examples.md: missing index entry for "
                f"examples/{example.name}"
            )
    return problems


def defined_names(root: Path = REPO_ROOT) -> set[str]:
    """Every class, function and assigned name in ``src/repro``."""
    names: set[str] = set()
    for path in (root / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def check_documented_names(root: Path = REPO_ROOT) -> list[str]:
    """Every CamelCase name a reference doc cites is defined in ``repro``
    (names without a lowercase letter, like ``TPC`` or ``SELECT``, and
    builtins are not API names)."""
    defined = defined_names(root)
    problems = []
    for doc in _REFERENCE_DOCS:
        text = (root / doc).read_text(encoding="utf-8")
        for span in _CODE_SPAN.findall(text):
            cited = _CITED_NAME.match(span)
            if cited is None:
                continue
            name = cited.group(1)
            if (
                name not in defined
                and not name.isupper()
                and not hasattr(builtins, name)
            ):
                problems.append(f"{doc}: `{span}` names undefined {name}")
    return problems


def check_dotted_paths(root: Path = REPO_ROOT) -> list[str]:
    """Every ``repro.…`` path a reference doc cites resolves: the
    longest prefix naming a module or package under ``src/`` exists,
    and the path's last name, if it goes past that module, is bound in
    its file."""
    problems = []
    for doc in _REFERENCE_DOCS:
        text = (root / doc).read_text(encoding="utf-8")
        for span in _CODE_SPAN.findall(text):
            path = _DOTTED_PATH.match(span)
            if path is not None and not _resolves(root, path.group().split(".")):
                problems.append(f"{doc}: `{span}` does not resolve")
    return problems


def _resolves(root: Path, parts: list[str]) -> bool:
    for end in range(len(parts), 0, -1):
        base = root / "src" / Path(*parts[:end])
        for module in (base.with_suffix(".py"), base / "__init__.py"):
            if module.is_file():
                return end == len(parts) or parts[-1] in _bound_names(module)
    return False


def _bound_names(module: Path) -> set[str]:
    """Names a ``def``, class, assignment or import binds in ``module``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    return names


def main() -> int:
    problems = (
        check_links()
        + check_examples_index()
        + check_documented_names()
        + check_dotted_paths()
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    n_files = len(markdown_files())
    print(f"docs healthy: {n_files} markdown files, all internal links resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
