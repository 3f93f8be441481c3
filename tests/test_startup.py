"""Start-up: importing the CLI loads no scipy module, and each command loads
the scipy modules its own path runs, when it first runs them.

``predict`` and ``rul`` never call scipy, so they start without it. The
mode search calls ``scipy.optimize`` through two module-level wrappers in
``hierarchy``, which perfbench's tracer patches by name, and ``_map_jobs``
imports ``scipy.optimize`` before it forks, so the workers inherit it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hbprog
import hbprog.hierarchy as hierarchy
from hbprog.io import save_sample_set
from hbprog.samplers import SampleSet, TargetSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(hbprog.__file__).resolve().parent.parent)

#: the statement a fresh interpreter runs to list its loaded scipy modules
LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(code: str, cwd=None) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter importing this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_package_and_cli_imports_load_no_scipy():
    run_fresh(
        "import sys\n"
        "import hbprog\n"
        f"assert not {LOADED_SCIPY}, {LOADED_SCIPY}\n"
        "import hbprog.cli\n"
        f"assert not {LOADED_SCIPY}, {LOADED_SCIPY}\n"
    )


def test_predict_and_rul_run_without_scipy(tmp_path):
    (tmp_path / "B1.csv").write_text("cycle,value\n1,1.9\n2,1.89\n")
    (tmp_path / "B1.meta.json").write_text(
        json.dumps({"unit_id": "B1", "family": "batt-double", "units": "Ahr"})
    )
    (tmp_path / "run.json").write_text(json.dumps({
        "family": "batt-double",
        "seed": 5,
        "datasets": {"historical": ["B1.csv"], "current": "B1.csv"},
        "prognosis": {"threshold": 1.4, "horizon": 3000.0},
    }))
    rng = np.random.default_rng(3)
    theta = np.exp(rng.normal(0.0, 0.3, (50, 4)))
    rows = np.column_stack([theta, np.full(50, 0.01)])
    labels = ("theta1", "theta2", "theta3", "theta4", "sigma")
    save_sample_set(SampleSet(rows, labels, {"t_c": 2.0}), tmp_path / "current_posterior")
    run_fresh(
        "import sys\n"
        "from hbprog.cli import main\n"
        "for command in ('predict', 'rul'):\n"
        "    assert main([command, '--config', 'run.json', '--out', '.']) == 0, command\n"
        f"assert not {LOADED_SCIPY}, {LOADED_SCIPY}\n",
        cwd=tmp_path,
    )
    assert (tmp_path / "trajectory.bands.csv").exists() and (tmp_path / "rul.json").exists()
    assert not (tmp_path / "error.json").exists()


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    # perfbench's tracer module, imported from its directory as-is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    before = (hierarchy.minimize, hierarchy.differential_evolution)
    inst = tracing.Instrumentation(tracing.Tracer())
    with inst:
        patched = list(inst._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        assert hierarchy.minimize.__wrapped__ is before[0]
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    assert (hierarchy.minimize, hierarchy.differential_evolution) == before


def _box_target() -> TargetSpec:
    """A 2-d Gaussian log-target on a finite box, mode at (0.3, -0.2)."""
    def log_target(x):
        return -0.5 * float(((x - np.array([0.3, -0.2])) ** 2).sum())

    return TargetSpec(2, log_target, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("name", ["differential_evolution", "minimize"])
def test_mode_search_calls_the_module_level_names(monkeypatch, name):
    """A replacement of ``hierarchy.<name>`` is what ``_find_init`` (DE, with
    its polish) and ``_polish_inits`` call: the module globals are the
    call path."""
    original = getattr(hierarchy, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(hierarchy, name, recording)
    target = _box_target()
    if name == "differential_evolution":
        x = hierarchy._find_init(target, np.random.default_rng(0), np.zeros(2))
    else:
        _, x = hierarchy._polish_inits(target, [np.zeros(2)], (-np.inf, None))
    assert calls == [name]
    np.testing.assert_allclose(x, [0.3, -0.2], atol=1e-4)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="_map_jobs forks its workers")
def test_forked_workers_inherit_scipy_optimize():
    """Each job sees ``scipy.optimize`` loaded at its entry, imported once
    in the parent before the fork, although the parent never called it."""
    proc = run_fresh(
        "import os, sys\n"
        "import hbprog.hierarchy as hierarchy\n"
        "hierarchy._available_cpus = lambda: 2\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "job = lambda i: (os.getpid(), 'scipy.optimize' in sys.modules)\n"
        "print([(pid != os.getpid(), loaded) for pid, loaded in hierarchy._map_jobs(job, range(4))])\n"
    )
    assert proc.stdout.strip() == str([(True, True)] * 4)
