"""The quick demos run to completion with RuntimeWarnings as errors.

Demos 03 and 05 run the whole fleet pipeline (about 15 s each) and stay
out; the three below take a few seconds together and write no files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hbprog

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo", ["01_crack_growth_models", "02_samplers", "04_battery_model_selection"]
)
def test_demo_runs(demo, tmp_path):
    src = str(Path(hbprog.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
