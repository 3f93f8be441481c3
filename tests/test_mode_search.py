"""The mode search's differential evolution. scipy's
``differential_evolution`` in the settings the search uses is the oracle:
the in-house search must return its ``x`` bytes, ``fun`` and ``nfev``."""

import math

import numpy as np
import pytest
from scipy import optimize

import hbprog.hierarchy as hierarchy
from hbprog.hierarchy import build_model, stage1_infer, stage2_infer
from hbprog.samplers import SampleSet, SamplerConfig
from hbprog.targets import HyperPriorBounds

from conftest import CRACK_BOUNDS

SEEDS = [0, 7, 123456789, 2**31 - 2]


def assert_matches_scipy(objective, bounds, seed):
    ours = hierarchy.differential_evolution(objective, bounds, seed=seed)
    ref = optimize.differential_evolution(
        objective, bounds, seed=seed, maxiter=60, popsize=12, tol=1e-10, polish=True
    )
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.fun == ref.fun
    assert ours.nfev == ref.nfev
    return ours


class _Captured(Exception):
    pass


def captured_search(monkeypatch, run):
    """``(objective, bounds)`` of the first mode search that ``run()`` starts."""
    seen = {}

    def capture(objective, bounds, seed):
        seen.update(objective=objective, bounds=bounds)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(hierarchy, "differential_evolution", capture)
        with pytest.raises(_Captured):
            run()
    return seen["objective"], seen["bounds"]


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_crack_stage1_target(monkeypatch, crack_fleet, seed):
    fleet, _ = crack_fleet
    ds = fleet[0]
    objective, bounds = captured_search(
        monkeypatch,
        lambda: stage1_infer(ds, build_model(ds), CRACK_BOUNDS, SamplerConfig(n_samples=20)),
    )
    assert len(bounds) == 3
    assert_matches_scipy(objective, bounds, seed)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_stage2_target_in_six_dimensions(monkeypatch, seed):
    rng = np.random.default_rng(5)
    centre = np.array([1.02, 1.07, 0.05])
    sets = [
        SampleSet(centre + 0.02 * rng.standard_normal((40, 3)), ("theta1", "theta2", "sigma"))
        for _ in range(3)
    ]
    objective, bounds = captured_search(
        monkeypatch,
        lambda: stage2_infer(
            sets, HyperPriorBounds.crack_default(), "diag", SamplerConfig(n_samples=20)
        ),
    )
    assert len(bounds) == 6
    assert_matches_scipy(objective, bounds, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_minus_infinity_regions(seed):
    """Outside a wedge the log-target is -inf, which the search sees as an
    energy of 1e15; the best point lies on the wedge's edge."""

    def objective(x):
        if x[0] + x[1] > 1.0:
            return 1e15
        return float(((x - 0.7) ** 2).sum())

    ours = assert_matches_scipy(objective, [(0.0, 1.0), (-1.0, 1.0), (0.5, 2.0)], seed)
    assert ours.fun < 0.2


@pytest.mark.parametrize("seed", SEEDS)
def test_trials_that_leave_the_unit_box(monkeypatch, seed):
    """The minimum sits in a corner, so mutants leave the box and are
    redrawn: a redraw is a uniform call of fewer than ``d`` numbers."""
    sizes = []

    class Counting(np.random.RandomState):
        def random_sample(self, size=None):
            sizes.append(size)
            return super().random_sample(size)

    def objective(x):
        return float(np.sum((x - np.array([-2.0, 3.0, 0.0, 10.0])) ** 2))

    bounds = [(-2.0, 2.0), (-3.0, 3.0), (0.0, 1.0), (5.0, 10.0)]
    with monkeypatch.context() as m:
        m.setattr(np.random, "RandomState", Counting)
        hierarchy.differential_evolution(objective, bounds, seed=seed)
    assert any(s < 4 for s in sizes)
    assert_matches_scipy(objective, bounds, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_dimensional_box(seed):
    def objective(x):
        return float((x[0] - 0.2) ** 2 + math.sin(5.0 * x[0]))

    assert_matches_scipy(objective, [(-1.0, 2.0)], seed)


def test_bounds_must_be_finite_and_increasing():
    for bounds in ([(0.0, 1.0), (1.0, 1.0)], [(0.0, np.inf)], [(1.0, 0.0)]):
        with pytest.raises(ValueError, match="low < high"):
            hierarchy.differential_evolution(lambda x: 0.0, bounds, seed=0)
