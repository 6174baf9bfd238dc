"""Quick self-check of the benchmark: a few ops of every workload, traced and
untraced.  Run from the repository root with

    python -m pytest -q perfbench
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_self_check_emits_declared_metrics_without_failures():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--self-check"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
