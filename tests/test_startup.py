"""Start-up: importing the CLI loads no scipy module, and each command loads
the scipy modules its own path runs, when it first runs them.

The normal CDF and quantile are the package's own, so ``synth``,
``predict`` and ``rul`` never load scipy. The mode search
(``hierarchy.differential_evolution``, in-house) polishes its best point
with ``scipy.optimize.minimize`` through the module-level wrapper
``hierarchy.minimize``; perfbench's tracer patches both names. The callers
whose jobs search for a mode import ``scipy.optimize`` before ``_map_jobs``
forks, so their workers inherit it; ``model-select`` and ``fit-historical
--sampler tmcmc`` run TMCMC only and load no scipy module at all.
"""

import json
import os
import re
import shutil
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
@pytest.mark.parametrize(
    "patch, call",
    [
        ("hierarchy.stage1_infer = job\n"
         "hierarchy.stage2_infer = lambda *args: SimpleNamespace(log_evidence=None)\n",
         "hierarchy.fit_historical(units, None, None).stage1"),
        ("hierarchy.update_current = job\n", "hierarchy.update_many(units, None, None, None)"),
    ],
    ids=["fit_historical", "update_many"],
)
def test_mode_search_jobs_start_with_scipy_optimize(patch, call):
    """The stage-1 jobs of ``fit_historical`` and the updates of
    ``update_many`` search for a mode, so each job (here replaced by one
    that reports its process and whether ``scipy.optimize`` is loaded) sees
    it loaded at its entry in a forked worker: imported once in the parent
    before the fork, although the parent never calls it."""
    proc = run_fresh(
        "import os, sys\n"
        "from types import SimpleNamespace\n"
        "import hbprog.hierarchy as hierarchy\n"
        "hierarchy._available_cpus = lambda: 2\n"
        "parent = os.getpid()\n"
        "job = lambda *args: (os.getpid() != parent, 'scipy.optimize' in sys.modules)\n"
        + patch
        + "units = [hierarchy.Dataset(f'B{i}', [1, 2], [1.9, 1.8], 'batt-single') for i in range(4)]\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        f"print(list({call}))\n"
    )
    assert proc.stdout.strip() == str([(True, True)] * 4)


def _box(n: int) -> dict:
    return {"lower": [0.05] * n + [1e-4], "upper": [1.8] * n + [0.4]}


def _hyper_box(n: int) -> dict:
    return {"mu_theta": [[0.0, 1.8]] * n, "sd_theta": [[0.0, 0.4]] * n,
            "mu_sigma": [0.0, 0.4], "sd_sigma": [0.0, 0.2]}


BATT_NOMINALS = [1.92, -0.02, -0.003, -0.05]

#: a tiny battery run that every command accepts: two historical units and
#: a current one of six cycles each, 30 draws per sampler, and the two
#: battery families as model-selection candidates
TINY_BATTERY = {
    "family": "batt-double",
    "seed": 5,
    "sigma_trunc": 0.4,
    "nominals": BATT_NOMINALS,
    "stage1_bounds": _box(4),
    "hyper_bounds": _hyper_box(4),
    "sampler": {"kind": "slice", "n_samples": 30},
    "datasets": {"historical": ["data/B1.csv", "data/B2.csv"], "current": "data/B3.csv"},
    "prognosis": {"threshold": 1.4, "horizon": 3000.0},
    "literature_prior": {
        "means": BATT_NOMINALS, "sds": [0.2, 0.004, 0.0006, 0.01], "sigma_bounds": [0.001, 0.2],
    },
    "synthetic": {
        "family": "batt-double",
        "psi": {"mu0": [1.0] * 4, "sd0": [0.03] * 4, "mu_sigma": 0.015, "sd_sigma": 0.005},
        "n_units": 3,
        "unit_prefix": "B",
        "cycles": [1, 11, 21, 31, 41, 51],
        "threshold": 1.4,
        "nominals": BATT_NOMINALS,
    },
    "candidates": [
        {"family": "batt-single", "nominals": [2.0, -1.0, -100.0],
         "stage1_bounds": _box(3), "hyper_bounds": _hyper_box(3)},
        {"family": "batt-double", "nominals": BATT_NOMINALS,
         "stage1_bounds": _box(4), "hyper_bounds": _hyper_box(4)},
    ],
}


@pytest.fixture(scope="module")
def battery_run(tmp_path_factory):
    """A directory holding the tiny battery config, its fleet, and the hyper
    and current-unit posteriors that ``fit-current``, ``predict`` and
    ``rul`` read."""
    from hbprog.cli import main

    root = tmp_path_factory.mktemp("startup")
    (root / "run.json").write_text(json.dumps(TINY_BATTERY))
    config = str(root / "run.json")
    assert main(["synth", "--config", config, "--out", str(root / "data")]) == 0
    for command in ("fit-historical", "fit-current"):
        assert main([command, "--config", config, "--out", str(root)]) == 0, command
    return root


def _readme_scipy_table() -> dict[str, set[str]]:
    """README's Start-up table: command -> the scipy modules it loads."""
    section = (ROOT / "README.md").read_text().split("### Start-up", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            modules = set(re.findall(r"`(scipy\.[\w.]+)`", cells[2]))
            for command in re.findall(r"`([\w-]+)`", cells[1]):
                table[command] = modules
    return table


COMMANDS = ("synth", "fit-historical", "fit-current", "predict", "rul", "model-select", "compare-prior")


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_the_scipy_modules_readme_lists(battery_run, tmp_path, command):
    """Run in a fresh interpreter on one CPU, so all of its work stays in
    one process, each command loads exactly the scipy modules README's
    Start-up table lists for it, among the modules the table names, and a
    command listed with none loads no scipy module at all."""
    table = _readme_scipy_table()
    named = sorted(set().union(*table.values()))
    shutil.copytree(battery_run, tmp_path, dirs_exist_ok=True)
    out = "data" if command == "synth" else "."
    proc = run_fresh(
        "import sys\n"
        "import hbprog.hierarchy as hierarchy\n"
        "from hbprog.cli import main\n"
        "hierarchy._available_cpus = lambda: 1\n"
        f"assert main([{command!r}, '--config', 'run.json', '--out', {out!r}]) == 0\n"
        f"print(sorted(m for m in {named!r} if m in sys.modules), 'scipy' in sys.modules)\n",
        cwd=tmp_path,
    )
    expected = sorted(table[command])
    assert proc.stdout.splitlines()[-1] == f"{expected} {bool(expected)}"


def test_tmcmc_fit_historical_runs_without_scipy_optimize(battery_run, tmp_path):
    """``fit-historical --sampler tmcmc`` in a fresh interpreter on one
    CPU searches for no mode and evaluates the population densities with
    the package's own normal CDF: it loads no scipy module."""
    shutil.copytree(battery_run / "data", tmp_path / "data")
    (tmp_path / "run.json").write_text(json.dumps(TINY_BATTERY))
    proc = run_fresh(
        "import sys\n"
        "import hbprog.hierarchy as hierarchy\n"
        "from hbprog.cli import main\n"
        "hierarchy._available_cpus = lambda: 1\n"
        "argv = ['fit-historical', '--config', 'run.json', '--out', '.', '--sampler', 'tmcmc']\n"
        "assert main(argv) == 0\n"
        f"print({LOADED_SCIPY})\n",
        cwd=tmp_path,
    )
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
    assert "log-evidence" in proc.stdout


@pytest.mark.skipif(not hasattr(os, "fork"), reason="_map_jobs forks its workers")
def test_model_select_fans_out_without_scipy_optimize(battery_run, tmp_path):
    """``model-select`` on the tiny two-candidate fleet, fanned out to two
    workers: neither the parent nor a worker, at the end of its stage 2,
    holds any scipy module."""
    shutil.copytree(battery_run / "data", tmp_path / "data")
    (tmp_path / "run.json").write_text(json.dumps(TINY_BATTERY))
    proc = run_fresh(
        "import json, os, sys\n"
        "import hbprog.hierarchy as hierarchy\n"
        "from hbprog.cli import main\n"
        "hierarchy._available_cpus = lambda: 2\n"
        "stage2_infer = hierarchy.stage2_infer\n"
        "def recording(*args, **kwargs):\n"
        "    out = stage2_infer(*args, **kwargs)\n"
        "    with open(f'worker-{os.getpid()}.json', 'w') as f:\n"
        f"        json.dump({LOADED_SCIPY}, f)\n"
        "    return out\n"
        "hierarchy.stage2_infer = recording\n"
        "assert main(['model-select', '--config', 'run.json', '--out', '.']) == 0\n"
        f"print(os.getpid(), {LOADED_SCIPY})\n",
        cwd=tmp_path,
    )
    parent, parent_scipy = proc.stdout.splitlines()[-1].split(" ", 1)
    assert parent_scipy == "[]"
    workers = sorted(tmp_path.glob("worker-*.json"))
    assert len(workers) == 2 and f"worker-{parent}.json" not in [w.name for w in workers]
    for path in workers:
        assert json.loads(path.read_text()) == [], path.name
    assert json.loads((tmp_path / "model_select.json").read_text())["ranking"][0]["error"] is None
