"""What importing the package loads.

SciPy serves one ablation reference
(:class:`~repro.core.centralized.CentralizedDriftPlusPenaltyPolicy`),
which imports it when it decides; every simulator, suite worker and the
CLI start without it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = (
    "repro.core",
    "repro.sim.simulator",
    "repro.sim.events",
    "repro.federation",
    "repro.chaos",
    "repro.experiments.common",
    "repro.cli",
)


def test_package_imports_without_scipy():
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in MODULES)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
