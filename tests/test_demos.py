"""The quick demos run to completion with RuntimeWarnings as errors, and
README's Library tour imports.

Demos 03 and 05 run the whole fleet pipeline (about 15 s each) and stay
out; the three below take a few seconds together and write no files.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hbprog

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


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


def test_readme_library_tour_imports():
    """The ``python`` blocks of README's "Library tour" section run, so a
    public name cannot leave the package while the README still shows it."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("\n## Library tour\n") :]
    tour = tour[: tour.index("\n## ", 1)]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
