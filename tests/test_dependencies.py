"""The package imports from its declared runtime dependencies alone."""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: ``[project] dependencies`` in pyproject.toml (tomli only below 3.11).
DECLARED = {"numpy", "tomli"}

#: Package exports load lazily, so importing the entry points runs few
#: modules; the probe imports every module under ``src/repro`` instead.
_PROBE = """\
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names) - {"repro"})))
"""


def test_imports_only_declared_dependencies():
    """Importing every module loads no undeclared third-party module.

    A fresh interpreter snapshots ``sys.modules``, imports every module
    of the package, and lists the top-level modules the imports added
    that are neither stdlib nor ``repro`` itself: what
    ``pip install -e .`` must provide.
    Whatever else happens to be installed, an import of it shows up here.
    """
    # Import the package under test, not whichever copy is installed.
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    third_party = set(proc.stdout.split())
    assert third_party <= DECLARED, sorted(third_party - DECLARED)
