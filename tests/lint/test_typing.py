"""The typecheck lane, as a test — skipped when mypy is absent.

The container image does not ship mypy; CI's typecheck job installs
the pinned ``.[typecheck]`` extra and this test then runs the same
command line the job does, so local runs with the extra installed and
CI agree on what "typed" means.
"""

import pathlib
import subprocess
import sys

import pytest

pytest.importorskip("mypy")

REPO = pathlib.Path(__file__).resolve().parents[2]
PACKAGES = ["repro.lint", "repro.obs", "repro.sanitize"]


def test_strict_packages_typecheck():
    command = [sys.executable, "-m", "mypy"]
    for package in PACKAGES:
        command += ["-p", package]
    proc = subprocess.run(command, cwd=REPO, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
