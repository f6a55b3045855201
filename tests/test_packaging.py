"""The package metadata in ``setup.py`` names the package and its version."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_reports_name_and_version():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["repro", "1.0.0"]
