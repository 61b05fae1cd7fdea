"""ARCHITECTURE's experiment index names exactly the registry's entries.

The index is the one hand-kept list of experiments; the CLI and the
report render from ``EXPERIMENT_REGISTRY``.  This test keeps the two
equal, so an entry cannot be added, renamed or removed on one side only.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.experiments import EXPERIMENT_REGISTRY

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"


def _index_names() -> list[str]:
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("\n## Experiment index\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)


def test_index_names_every_registry_entry_once():
    names = _index_names()
    assert len(names) == len(set(names)), names
    assert set(names) == set(EXPERIMENT_REGISTRY), {
        "not in the registry": sorted(set(names) - set(EXPERIMENT_REGISTRY)),
        "not in the index": sorted(set(EXPERIMENT_REGISTRY) - set(names)),
    }
