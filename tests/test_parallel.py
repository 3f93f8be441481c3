"""Stage-1 jobs and model-selection candidates run in forked worker
processes: the outputs must not depend on the worker count, errors must
cross the process boundary as the serial run raises them, and commands that
never fan out must not load the process-pool modules.

The worker count is forced through ``hierarchy._available_cpus``, so these
tests fan out on a one-CPU machine too.
"""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hbprog
import hbprog.hierarchy as hierarchy
from hbprog.cli import UsageError
from hbprog.hierarchy import (
    Candidate,
    build_model,
    fit_historical,
    model_select,
    update_current,
    update_many,
)
from hbprog.io import DataFormatError, SyntheticSpec, generate_synthetic
from hbprog.models import NoFailureError
from hbprog.samplers import SampleSet, SamplerConfig, SamplerError
from hbprog.targets import HyperParameters, HyperPriorBounds

from conftest import CRACK_BOUNDS


def with_workers(monkeypatch, n):
    monkeypatch.setattr(hierarchy, "_available_cpus", lambda: n)


def assert_same_set(a: SampleSet, b: SampleSet):
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.labels == b.labels
    assert a.provenance == b.provenance
    assert (a.log_evidence, a.log_evidence_se) == (b.log_evidence, b.log_evidence_se)


@pytest.mark.parametrize(
    "exc",
    [
        NoFailureError("no finite failure time"),
        SamplerError("step-out overrun"),
        DataFormatError("bad column"),
        UsageError("missing --out"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_public_exceptions_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args


def test_fit_historical_independent_of_worker_count(crack_fleet, monkeypatch):
    fleet, _ = crack_fleet
    cfg = SamplerConfig(n_samples=300, seed=17)
    runs = []
    for n in (1, 2):
        with_workers(monkeypatch, n)
        runs.append(
            fit_historical(fleet[:3], CRACK_BOUNDS, HyperPriorBounds.crack_default(),
                           config=cfg, stage1_thin=150)
        )
    serial, forked = runs
    assert len(forked.stage1) == 3
    for a, b in zip(serial.stage1, forked.stage1):
        assert_same_set(a, b)
        assert not b.samples.flags.writeable  # rebuilt read-only after the trip back
    assert_same_set(serial.hyper, forked.hyper)
    assert (serial.log_evidence, serial.fingerprint) == (forked.log_evidence, forked.fingerprint)


def test_update_many_matches_serial_loop(crack_fleet, current_unit, monkeypatch):
    """Current-unit updates at several cutoffs (one with no data, which
    draws from the mixture prior) equal the serial ``update_current`` loop
    byte for byte, with one worker and with two."""
    fleet, _ = crack_fleet
    hyper = fit_historical(
        fleet[:3], CRACK_BOUNDS, HyperPriorBounds.crack_default(),
        config=SamplerConfig(n_samples=200, seed=3), stage1_thin=100,
    ).hyper
    unit, _ = current_unit
    model = build_model(unit)
    datasets = [unit.truncate(t_c) for t_c in (15000.0, 30000.0, 45000.0)] + [None]
    cfg = SamplerConfig(n_samples=150, seed=8)
    serial = [update_current(ds, hyper, model, cfg, hyper_subsample=60) for ds in datasets]
    for n in (1, 2):
        with_workers(monkeypatch, n)
        runs = update_many(datasets, hyper, model, cfg, hyper_subsample=60)
        assert len(runs) == len(serial)
        for a, b in zip(serial, runs):
            assert_same_set(a, b)


def _battery_fleet(seed):
    psi = HyperParameters(
        mu0=[1.0] * 4, sd0=[0.03] * 4, mu_sigma=0.015, sd_sigma=0.005, sigma_trunc=0.4
    )
    spec = SyntheticSpec(
        family="batt-double", psi=psi, n_units=3, cycles=np.arange(1, 81, 4), threshold=1.4
    )
    return generate_synthetic(spec, seed=seed)[0]


def test_model_select_independent_of_worker_count(monkeypatch, const_family):
    """TMCMC candidates, one of a family registered only in this process,
    which reaches the workers by fork, not by pickling."""
    fleet = _battery_fleet(31)
    candidates = [
        Candidate(
            "batt-double",
            (np.array([0.05] * 4 + [1e-4]), np.array([1.8] * 4 + [0.4])),
            HyperPriorBounds.battery_default(4),
        ),
        Candidate(
            "batt-const",
            (np.array([0.05, 1e-4]), np.array([1.8, 0.4])),
            HyperPriorBounds.battery_default(1),
        ),
    ]
    cfg = SamplerConfig(n_samples=300, seed=0)
    runs = []
    for n in (1, 2):
        with_workers(monkeypatch, n)
        runs.append(model_select(fleet, candidates, cfg, stage1_thin=100))
    serial, forked = runs
    assert [r["name"] for r in forked] == ["batt-double", "batt-const"]
    for a, b in zip(serial, forked):
        assert b["error"] is None
        assert {k: v for k, v in a.items() if k != "result"} == {
            k: v for k, v in b.items() if k != "result"
        }
        for s1, s2 in zip(a["result"].stage1, b["result"].stage1):
            assert_same_set(s1, s2)
        assert_same_set(a["result"].hyper, b["result"].hyper)
        assert a["result"].log_evidence == b["result"].log_evidence


@pytest.mark.parametrize(
    "make_error",
    [lambda unit: SamplerError(f"{unit}: degenerate weights")],
    ids=["SamplerError"],
)
def test_first_failing_job_in_input_order_reraises(crack_fleet, monkeypatch, make_error):
    """Jobs 1 and 2 both fail, job 2 first in time; either worker count
    raises job 1's error, with its type and message."""
    fleet, _ = crack_fleet
    units = [ds.unit_id for ds in fleet[:4]]

    def stage1_infer(ds, model, bounds, config):
        if ds.unit_id == units[1]:
            time.sleep(0.3)
            raise make_error(ds.unit_id)
        if ds.unit_id == units[2]:
            raise SamplerError(f"{ds.unit_id}: later job")
        return SampleSet(np.ones((2, 3)), ("theta1", "theta2", "sigma"))

    monkeypatch.setattr(hierarchy, "stage1_infer", stage1_infer)
    raised = []
    for n in (1, 2):
        with_workers(monkeypatch, n)
        with pytest.raises(Exception) as info:
            fit_historical(fleet[:4], CRACK_BOUNDS, HyperPriorBounds.crack_default(),
                           config=SamplerConfig(n_samples=50, seed=3))
        raised.append((type(info.value), str(info.value)))
    want = make_error(units[1])
    assert raised == [(type(want), str(want))] * 2


def test_jobs_keep_input_order_and_nested_maps_run_serially(monkeypatch):
    with_workers(monkeypatch, 2)

    def job(x):
        return x, os.getpid(), hierarchy._map_jobs(lambda y: (y, os.getpid()), range(3))

    out = hierarchy._map_jobs(job, range(5))
    assert [x for x, _, _ in out] == list(range(5))
    for _, pid, inner in out:
        assert pid != os.getpid()
        assert inner == [(y, pid) for y in range(3)]


def test_cli_import_loads_no_process_pool():
    """``concurrent.futures`` itself comes in with numpy's testing module;
    the process-pool parts must wait for a command that fans out."""
    src = str(Path(hbprog.__file__).resolve().parent.parent)
    code = (
        "import hbprog.cli, sys; "
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
