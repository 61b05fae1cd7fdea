"""Every module-level import in ``src/repro`` is used by its module.

A name a module imports but never reads is dead weight: it costs import
time when its module is the only user, and it keeps deleted code
looking alive.  Package ``__init__`` files are exempt (they exist to
re-export), and so are ``from __future__`` imports and imports under
``if TYPE_CHECKING:``.  A non-package module may re-export a name by
listing it in ``__all__``.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _imported_names(body):
    """Names bound by the imports in ``body``, outside ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name
        elif isinstance(node, ast.If):
            test = node.test
            if getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING":
                continue
            yield from _imported_names(node.body)
            yield from _imported_names(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _imported_names(block)
            for handler in node.handlers:
                yield from _imported_names(handler.body)


def _used_names(tree):
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                for sub in ast.walk(ast.parse(ann.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        used.add(sub.id)
    return used


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Module-level imported names ``source`` neither reads nor exports."""
    tree = ast.parse(source)
    seen = _used_names(tree) | _exported_names(tree)
    return sorted(set(_imported_names(tree.body)) - seen)


def test_checker_finds_what_it_should():
    source = """\
from __future__ import annotations
import os
import os.path
import numpy as np
from typing import TYPE_CHECKING
from dataclasses import dataclass, field
from a.b import c as d, e
if TYPE_CHECKING:
    from x import Y
try:
    import tomllib
except ImportError:
    import tomli as tomllib
__all__ = ["e"]
def f(v: "dataclass") -> None:
    import sys
    return np.zeros(1)
"""
    assert unused_imports(source) == ["d", "field", "os", "tomllib"]


def test_no_module_imports_a_name_it_never_uses():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders
