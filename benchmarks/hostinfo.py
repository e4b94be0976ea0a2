"""The host and commit a benchmark result was measured on.

The standalone benchmark scripts put :func:`host_record` into their JSON
as ``host``, so a committed figure says which Python, NumPy, CPU count,
kernel tier and git commit produced it.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.core.kernels import kernel_tier

REPO_ROOT = Path(__file__).resolve().parents[1]


def git_sha() -> str:
    """HEAD's commit, suffixed ``-dirty`` when tracked files differ from
    it; ``unknown`` outside a git checkout."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def host_record() -> dict:
    """Python, NumPy, CPU count, kernel tier and git commit."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "kernel_tier": kernel_tier(),
        "git_sha": git_sha(),
    }
