"""Run mypy under the committed configuration, when mypy is installed.

The strict sections of ``[tool.mypy]`` in ``pyproject.toml`` cover
``repro.frames``, ``repro.core``, ``repro.exploration``, ``repro.obs``,
``repro.streaming``, ``repro.serving`` and ``repro.storage``; CI installs the ``typecheck`` extra so this
gate always runs there.  Locally the test skips if mypy is absent (the
library itself depends only on numpy).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mypy")

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_mypy_passes_committed_config() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
