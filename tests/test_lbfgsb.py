"""The mode searches' L-BFGS-B polish. scipy's ``minimize(method="L-BFGS-B")``
is the oracle: ``hierarchy.minimize`` must return its ``x`` bytes, ``fun``,
``nfev`` and ``success``.

scipy is imported inside the checks, not with this module, so that a fresh
interpreter can import the problems here and load the compiled module
through the package before ``scipy.optimize`` (see the load-order test).
"""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hbprog
import hbprog.hierarchy as hierarchy
import hbprog.lbfgsb as lbfgsb
from hbprog.samplers import SampleSet, SamplerConfig
from hbprog.targets import HyperParameters

SRC = str(Path(hbprog.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)

#: seeds per problem shape: the eight shapes below cover 280 problems
N_SEEDS = 35


def assert_matches_scipy(fun, x0, bounds, options=None):
    from scipy import optimize

    ours = hierarchy.minimize(fun, x0, method="L-BFGS-B", bounds=bounds, options=options)
    ref = optimize.minimize(fun, x0, method="L-BFGS-B", bounds=bounds, options=options)
    assert ours.x.tobytes() == ref.x.tobytes(), (ours.x, ref.x)
    assert ours.fun == ref.fun
    assert ours.nfev == ref.nfev
    assert ours.success == ref.success
    return ours


def _objective(rng: np.random.Generator, d: int):
    """A seeded smooth objective in ``d`` dimensions: a rotated quadratic,
    the same with a cosine ripple, or Rosenbrock's valley."""
    centre = rng.normal(0.0, 1.5, d)
    a = rng.normal(0.0, 1.0, (d, d))
    hessian = a @ a.T + 0.1 * np.eye(d)
    kind = int(rng.integers(3))

    def objective(x):
        z = x - centre
        value = 0.5 * z @ hessian @ z
        if kind == 1:
            value += np.cos(3.0 * x).sum()
        elif kind == 2:
            value = ((1.0 - x[:-1]) ** 2 + 100.0 * (x[1:] - x[:-1] ** 2) ** 2).sum() + z[-1] ** 2
        return float(value)

    return objective


def _box(rng: np.random.Generator, d: int) -> list:
    lo = rng.normal(-1.0, 1.0, d)
    return list(zip(lo, lo + rng.uniform(0.05, 3.0, d)))


def _de_polish(seed):
    """DE's polish: a finite box, a start inside it, the default maxiter."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    bounds = _box(rng, d)
    x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
    return _objective(rng, d), x0, bounds, None


def _polish_inits(seed):
    """``_polish_inits``: unbounded theta coordinates, sigma in (0,
    sigma_trunc), at most 200 iterations."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    sigma_trunc = float(rng.uniform(0.1, 1.0))
    x0 = np.append(rng.normal(0.0, 2.0, d - 1), rng.uniform(0.0, sigma_trunc))
    return _objective(rng, d), x0, [(None, None)] * (d - 1) + [(0.0, sigma_trunc)], {"maxiter": 200}


def _start_on_bound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    bounds = _box(rng, d)
    x0 = np.array([rng.choice([lo, hi, 0.5 * (lo + hi)]) for lo, hi in bounds])
    return _objective(rng, d), x0, bounds, None


def _start_outside(seed):
    """The start is clipped into the box before the first evaluation."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    bounds = _box(rng, d)
    x0 = np.array([rng.choice([lo - 1.0, hi + 1.0]) for lo, hi in bounds])
    return _objective(rng, d), x0, bounds, None


def _half_bounded(seed):
    """Each side of each coordinate bounded or not."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    bounds = [
        (lo if rng.random() < 0.5 else None, hi if rng.random() < 0.5 else None)
        for lo, hi in _box(rng, d)
    ]
    return _objective(rng, d), rng.normal(0.0, 2.0, d), bounds, {"maxiter": 200}


def _capped(seed):
    """The search's own objective, ``_negated``, of a log-target that is
    -inf past a plane through the box: 1e15 on part of it."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    bounds = _box(rng, d)
    inner = _objective(rng, d)
    cut = float(rng.uniform(bounds[0][0], bounds[0][1]))

    def log_target(x):
        return -math.inf if x[0] > cut else -inner(x)

    x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
    return hierarchy._negated(log_target), x0, bounds, None


def _narrow_box(seed):
    """Some coordinates in a box narrower than the 1e-8 step, which is
    shortened to the distance to the far bound."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    bounds = [
        (lo, lo + rng.uniform(1e-9, 5e-9)) if rng.random() < 0.5 else (lo, hi)
        for lo, hi in _box(rng, d)
    ]
    x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
    return _objective(rng, d), x0, bounds, None


def _huge_coordinates(seed):
    """Coordinates near 1e9, where x + 1e-8 rounds back to x and the step
    falls back to sqrt(eps) * |x|."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    inner = _objective(rng, d)
    scale = 1e9

    def objective(x):
        return scale * scale * inner(x / scale)

    bounds = [(lo * scale, hi * scale) for lo, hi in _box(rng, d)]
    x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
    return objective, x0, bounds if rng.random() < 0.5 else None, None


SHAPES = {
    "de-polish": _de_polish,
    "polish-inits": _polish_inits,
    "start-on-bound": _start_on_bound,
    "start-outside": _start_outside,
    "half-bounded": _half_bounded,
    "capped": _capped,
    "narrow-box": _narrow_box,
    "huge-coordinates": _huge_coordinates,
}


@pytest.mark.parametrize("shape", SHAPES)
def test_matches_scipy(shape):
    for seed in range(N_SEEDS):
        fun, x0, bounds, options = SHAPES[shape](seed)
        assert_matches_scipy(fun, x0, bounds, options)


def test_capped_objective_reaches_the_cap():
    """At least some capped runs evaluate the objective at the 1e15 cap,
    so ``test_matches_scipy[capped]`` takes finite differences across it."""
    capped = 0
    for seed in range(N_SEEDS):
        fun, x0, bounds, options = _capped(seed)
        values = []
        hierarchy.minimize(lambda x: values.append(fun(x)) or values[-1], x0, bounds=bounds)
        capped += 1e15 in values
    assert capped >= N_SEEDS // 4


def _rosenbrock(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def test_stops_at_maxiter():
    """Rosenbrock's valley from near (-1.2, 1) takes dozens of iterations:
    a budget of 3 stops the run unconverged, as scipy's does."""
    bounds = [(-2.0, 2.0), (None, None)]
    for seed in range(10):
        x0 = np.array([-1.2, 1.0]) + 0.01 * np.random.default_rng(seed).standard_normal(2)
        assert not assert_matches_scipy(_rosenbrock, x0, bounds, {"maxiter": 3}).success
        assert hierarchy.minimize(_rosenbrock, x0, bounds=bounds).success


def _stage1_fit(unit):
    bounds = (np.array([0.6, 0.8, 1e-3]), np.array([1.6, 1.3, 0.2]))
    hierarchy.stage1_infer(unit, hierarchy.build_model(unit), bounds, SamplerConfig(n_samples=20, seed=3))


def _current_update(unit):
    rng = np.random.default_rng(8)
    rows = np.array([1.0, 1.05, 0.08, 0.08, 0.02, 0.03]) * (1.0 + 0.05 * rng.random((60, 6)))
    hyper = SampleSet(
        rows, HyperParameters.labels(2, False), {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2}
    )
    hierarchy.update_current(
        unit.truncate(40000), hyper, hierarchy.build_model(unit), SamplerConfig(n_samples=20, seed=3)
    )


@pytest.mark.parametrize("fit, polishes", [(_stage1_fit, 1), (_current_update, 3)],
                         ids=["stage1", "current"])
def test_polish_calls_of_a_crack_fit(monkeypatch, current_unit, fit, polishes):
    """Every polish a crack fit runs, DE's on the stage-1 box or
    ``_polish_inits``' from the current unit's best mixture draws, matches
    scipy on the same objective and start."""
    calls = []
    original = hierarchy.minimize

    def recording(fun, x0, **kwargs):
        calls.append((fun, np.array(x0), kwargs))
        return original(fun, x0, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(hierarchy, "minimize", recording)
        fit(current_unit[0])
    assert len(calls) == polishes
    for fun, x0, kwargs in calls:
        assert_matches_scipy(fun, x0, kwargs["bounds"], kwargs.get("options"))


def test_rejects_what_it_does_not_replay():
    with pytest.raises(ValueError, match="below its upper"):
        hierarchy.minimize(lambda x: 0.0, [0.5, 0.5], bounds=[(0.0, 1.0), (0.5, 0.5)])
    with pytest.raises(ValueError, match="only L-BFGS-B"):
        hierarchy.minimize(lambda x: 0.0, [0.5], method="BFGS")
    with pytest.raises(TypeError, match="ftol"):
        hierarchy.minimize(lambda x: 0.0, [0.5], options={"ftol": 1e-3})


def _no_scipy(monkeypatch):
    monkeypatch.delitem(sys.modules, lbfgsb._EXTENSION, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)


def _old_signature(monkeypatch):
    def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave, maxls):
        raise AssertionError("not reached")

    monkeypatch.setattr(lbfgsb, "_load_extension", lambda: SimpleNamespace(setulb=setulb))


@pytest.mark.parametrize(
    "breakage, problem",
    [(_no_scipy, "scipy is not installed"), (_old_signature, "setulb rejected the call")],
    ids=["missing", "rejected"],
)
def test_an_unusable_extension_fails_naming_the_scipy_version(monkeypatch, breakage, problem):
    """A missing compiled module, or a setulb that takes other arguments,
    fails on first use, naming the installed scipy; nothing falls back."""
    import scipy

    breakage(monkeypatch)
    with pytest.raises(RuntimeError, match=problem) as err:
        hierarchy.minimize(lambda x: float(x @ x), [0.5], bounds=[(0.0, 1.0)])
    assert f"installed scipy {scipy.__version__}" in str(err.value)
    assert "scipy 1.17" in str(err.value)


@pytest.mark.parametrize("first", ["package", "scipy.optimize"])
def test_load_orders(first):
    """In a fresh interpreter, the package's loader and ``scipy.optimize``
    share one compiled module whichever loads it first, and the results
    match scipy's either way."""
    code = (
        "import sys\n"
        "import test_lbfgsb as t\n"
        "import hbprog.lbfgsb as lbfgsb\n"
        f"if {first!r} == 'package':\n"
        "    t.hierarchy.minimize(lambda x: float(x @ x), [0.5], bounds=[(0.0, 1.0)])\n"
        "    loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "    assert loaded == [lbfgsb._EXTENSION], loaded\n"
        "import scipy.optimize\n"
        "from scipy.optimize import _lbfgsb\n"
        "for shape in t.SHAPES.values():\n"
        "    for seed in range(5):\n"
        "        t.assert_matches_scipy(*shape(seed))\n"
        "assert sys.modules[lbfgsb._EXTENSION] is _lbfgsb\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([TESTS, SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
