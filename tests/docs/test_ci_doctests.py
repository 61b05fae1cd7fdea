"""The CI docs job runs the examples of every module that has one.

Its ``--doctest-modules`` step lists files by hand, and a module with a
``>>>`` example outside that list is never checked; this test keeps the
list equal to the modules under ``src/repro`` that contain ``>>>``.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _doctest_step_files() -> set[str]:
    text = CI_WORKFLOW.read_text(encoding="utf-8")
    step = text.split("--doctest-modules", 1)[1].split("- name:", 1)[0]
    return set(re.findall(r"src/repro/\S+\.py", step))


def test_ci_doctest_list_is_every_module_with_an_example():
    with_examples = {
        path.relative_to(REPO_ROOT).as_posix()
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        if ">>>" in path.read_text(encoding="utf-8")
    }
    listed = _doctest_step_files()
    assert listed == with_examples, {
        "unlisted": sorted(with_examples - listed),
        "without examples": sorted(listed - with_examples),
    }
