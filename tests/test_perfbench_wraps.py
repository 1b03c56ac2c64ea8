"""The names perfbench's traced server wraps still exist where it wraps them.

``perfbench/traced_serve.py`` replaces the served path's layer calls by name
(six of them through ``StateBackend``'s own class ``__dict__``), so a rename
or a method moved off its class body would otherwise fail only the CI
perfbench job.  The test imports ``perfbench/`` and never edits it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_serve_installs_every_wrapper():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    completed = subprocess.run(
        [sys.executable, "-c", "import traced_serve; traced_serve.install()"],
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
