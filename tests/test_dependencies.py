"""The package imports from its declared runtime dependencies alone."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_imports_without_scipy():
    """scipy is not a declared dependency, so no import path may need it.

    A fresh interpreter maps ``scipy`` to ``None`` in ``sys.modules``,
    which makes any ``import scipy`` raise ``ModuleNotFoundError`` even
    where scipy is installed.
    """
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import repro, repro.cli, repro.analysis"
    )
    # Import the package under test, not whichever copy is installed.
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
