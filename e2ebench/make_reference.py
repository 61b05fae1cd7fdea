"""Regenerate ``reference.json``: every workload's outputs at seed 0.

Run from the root of a source checkout, only when a change is meant to
alter results (and say so where the change is described)::

    python3 e2ebench/make_reference.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402

SEED = 0


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    reference = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "worker.py"),
                "--workload",
                name,
                "--seed",
                str(SEED),
                "--launch",
                repr(time.monotonic()),
            ],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        reference[name] = {str(SEED): report["outputs"]}
        print(name, report["outputs"])
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
