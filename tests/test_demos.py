"""The demos run to completion.

Demo 04 is left out: it takes about 7 s and covers only `analysis`, which
the classification tests exercise directly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_geometric_discovery.py", "02_pattern_polling.py", "03_synthetic_benchmark.py"]
)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
