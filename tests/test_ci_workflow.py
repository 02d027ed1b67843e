"""The CI workflow stays single-sourced and free of perf gates.

A stray copy of the workflow outside ``.github/workflows/`` (e.g. a
``tools/ci.yml`` left behind by a refactor) silently drifts from the
one CI actually runs; this guard keeps ``.github/workflows/`` the only
home. It also pins that the workflow carries no ``REPRO_BENCH_*``
gate — the serving path is measured by ``benchmarks/spine`` and the
logical-time scenarios are plain tests with constant floors — and
references only benchmark files that exist, so a renamed bench can't
leave CI pointing at nothing.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOWS = REPO_ROOT / ".github" / "workflows"

_SKIP_DIRS = {".git", ".github", "__pycache__", ".pytest_cache", ".hypothesis"}


def _stray_workflow_files() -> list[Path]:
    """Workflow-looking YAML files outside .github/workflows."""
    strays = []
    for path in REPO_ROOT.rglob("*.yml"):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        # a GitHub Actions workflow declares jobs and an `on:` trigger
        if re.search(r"^jobs:", text, re.M) and re.search(r"^on:", text, re.M):
            strays.append(path)
    return strays


def test_workflows_live_only_under_dot_github():
    strays = _stray_workflow_files()
    assert not strays, (
        "workflow copies outside .github/workflows drift from CI: "
        f"{[str(p.relative_to(REPO_ROOT)) for p in strays]}"
    )


def test_ci_workflow_exists_and_carries_the_perf_gates():
    ci = WORKFLOWS / "ci.yml"
    assert ci.is_file()
    text = ci.read_text(encoding="utf-8")
    # no gate left: the wall-clock serving benches are retired behind
    # benchmarks/spine, and the two logical-time scenarios moved into
    # tests/ with their floors as constants
    assert set(re.findall(r"REPRO_BENCH_\w+", text)) == set()


def test_ci_workflow_references_only_existing_benchmarks():
    text = (WORKFLOWS / "ci.yml").read_text(encoding="utf-8")
    for ref in re.findall(r"benchmarks/test_bench_\w+\.py", text):
        assert (REPO_ROOT / ref).is_file(), f"ci.yml references missing {ref}"


def test_every_job_that_runs_pytest_installs_the_test_extra():
    # tier-1 modules import hypothesis at module level, so a job that
    # installs a hand-picked package list dies at collection; the
    # `test` extra in pyproject.toml is the one list of test deps
    text = (WORKFLOWS / "ci.yml").read_text(encoding="utf-8")
    jobs = re.split(r"^  (?=[\w-]+:\n)", text.split("\njobs:\n", 1)[1], flags=re.M)
    runners = [job for job in jobs if "python -m pytest" in job]
    assert runners
    for job in runners:
        assert 'python -m pip install -e ".[test]"' in job, job.splitlines()[0]
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M)
    assert extra and '"hypothesis"' in extra.group(1) and '"pytest"' in extra.group(1)


def test_tier1_matrix_covers_both_numpy_majors():
    # MiniDB's kernels rely on numpy's 16-bit radix sort, on an
    # array-valued `start` in np.char.find, and on np.unique(return_inverse=
    # True) over `<U` arrays (a 1-D inverse into a dictionary in
    # code-point order, the order a string literal is bisected in);
    # pyproject.toml pins no numpy, so one tier-1 row installs the 1.x
    # major next to the default
    text = (WORKFLOWS / "ci.yml").read_text(encoding="utf-8")
    tier1 = text.split("\n  tier1:\n", 1)[1].split("\n  docs-health:\n", 1)[0]
    assert re.search(
        r'include:\n(?:\s*#.*\n)*\s*- python-version: "3\.10"\n\s*numpy: "numpy<2"', tier1
    )
    assert 'pip install -e ".[test]" "${{ matrix.numpy }}"' in tier1
    src = (REPO_ROOT / "src" / "repro" / "minidb").glob("*.py")
    assert not [p.name for p in src if "np.strings." in p.read_text(encoding="utf-8")]


def test_docs_health_runs_the_network_serving_example():
    # the example drives the sync and async clients against a live
    # server, so it runs from an installed package, not only compiles
    text = (WORKFLOWS / "ci.yml").read_text(encoding="utf-8")
    docs = text.split("\n  docs-health:\n", 1)[1]
    assert "python -m pip install -e ." in docs
    assert "python examples/network_serving.py" in docs
    assert (REPO_ROOT / "examples" / "network_serving.py").is_file()


def test_docs_health_runs_the_concurrent_serving_example():
    # two tenants through process_routed_concurrent's stage pool, from
    # an installed package
    text = (WORKFLOWS / "ci.yml").read_text(encoding="utf-8")
    docs = text.split("\n  docs-health:\n", 1)[1]
    assert "python -m pip install -e ." in docs
    assert "python examples/concurrent_serving.py" in docs
    assert (REPO_ROOT / "examples" / "concurrent_serving.py").is_file()
