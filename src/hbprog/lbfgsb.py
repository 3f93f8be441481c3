"""Bounded quasi-Newton minimisation: L-BFGS-B (Byrd, Lu, Nocedal & Zhu
1995, SIAM J. Sci. Comput. 16:1190) driven around scipy's compiled
``setulb``.

:func:`minimize` replays scipy 1.17's ``minimize(fun, x0,
method="L-BFGS-B", bounds=bounds, options={"maxiter": maxiter})`` step for
step, so it returns scipy's ``x`` bytes, ``fun``, ``nfev`` and ``success``
(``tests/test_lbfgsb.py`` checks this against scipy):

* the ``_minimize_lbfgsb`` loop: 10 corrections, ftol 2.2204460492503131e-09,
  gtol 1e-5, at most 20 line-search steps and 15000 evaluations, the
  iteration and evaluation stops, and ``x0`` clipped into the bounds;
* ``ScalarFunction``'s forward-difference gradient: absolute step 1e-8,
  sqrt(eps) * max(1, |x|) where that step rounds away, the step flipped or
  shortened to stay inside the bounds, and the objective and gradient cached
  at the last point, which ``nfev`` does not count twice.

The compiled module is loaded from its file on first use, without running
the ``scipy.optimize`` package (about 40 MB of RSS and 0.3 s per process);
it is reused when that package is already loaded.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_EXTENSION = "scipy.optimize._lbfgsb"

_MAXCOR = 10
_FTOL = 2.2204460492503131e-09
_GTOL = 1e-5
_MAXLS = 20
_MAXFUN = 15000
_MAXITER = 15000
_STEP = 1e-8
_SQRT_EPS = np.finfo(np.float64).eps ** 0.5

# setulb's task codes (task[0]) and this loop's stop reasons (task[1])
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


@dataclass(frozen=True)
class MinimizeResult:
    """The final point ``x``, its objective ``fun``, the objective calls
    ``nfev`` (gradient differences included) and whether L-BFGS-B reported
    convergence (``success``)."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


def _incompatible(problem: str) -> RuntimeError:
    import importlib.metadata  # only on failure: it loads about 2 MB of modules

    try:
        version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        version = "(not installed)"
    return RuntimeError(
        f"L-BFGS-B needs the compiled setulb of scipy 1.17 ({_EXTENSION}); "
        f"installed scipy {version}: {problem}"
    )


def _load_extension():
    """scipy's compiled L-BFGS-B module: the loaded one if ``scipy.optimize``
    or an earlier call loaded it, else loaded from its file and registered
    under its name, so that a later ``import scipy.optimize`` reuses it."""
    module = sys.modules.get(_EXTENSION)
    if module is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None or not spec.submodule_search_locations:
            raise ImportError("scipy is not installed")
        folder = Path(spec.submodule_search_locations[0]) / "optimize"
        paths = [folder / f"_lbfgsb{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((str(p) for p in paths if p.is_file()), None)
        if path is None:
            raise ImportError(f"no compiled _lbfgsb module in {folder}")
        loader = importlib.machinery.ExtensionFileLoader(_EXTENSION, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_EXTENSION, path, loader=loader)
        )
        loader.exec_module(module)
        sys.modules[_EXTENSION] = module
    return module


def minimize(fun, x0, method: str = "L-BFGS-B", bounds=None, options=None) -> MinimizeResult:
    """Minimise ``fun`` from ``x0`` by L-BFGS-B within ``bounds``, a
    ``(low, high)`` pair per coordinate with ``None`` for no bound; see the
    module docstring. ``options`` may set ``maxiter`` (default 15000).
    Coordinates with ``low == high``, which scipy drops from the search, are
    not supported."""
    if method != "L-BFGS-B":
        raise ValueError(f"only L-BFGS-B is implemented, not {method!r}")
    options = dict(options or {})
    maxiter = options.pop("maxiter", _MAXITER)
    if options:
        raise TypeError(f"unknown L-BFGS-B options {sorted(options)}")
    try:
        setulb = _load_extension().setulb
    except (ImportError, OSError, AttributeError) as exc:
        raise _incompatible(str(exc)) from exc
    x = np.atleast_1d(np.asarray(x0, dtype=float)).ravel()
    n = x.size
    bounds = [(None, None)] * n if bounds is None else list(bounds)
    if len(bounds) != n:
        raise ValueError("length of x0 != length of bounds")
    lower = np.array([-np.inf if lo is None else float(lo) for lo, _ in bounds])
    upper = np.array([np.inf if hi is None else float(hi) for _, hi in bounds])
    if np.any(lower >= upper):
        raise ValueError("every lower bound must be below its upper bound")
    x = np.clip(x, lower, upper)
    # setulb's bound kinds: 0 none, 1 lower, 2 both, 3 upper
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    nbd = np.where(has_lower, np.where(has_upper, 2, 1), np.where(has_upper, 3, 0)).astype(np.int32)
    low_bnd = np.where(has_lower, lower, 0.0)
    upper_bnd = np.where(has_upper, upper, 0.0)

    nfev = 0
    cache_x = cache_f = cache_g = None

    def fun_and_grad(at: np.ndarray):
        """``fun`` and its forward-difference gradient at ``at``, as scipy's
        ``ScalarFunction`` and ``approx_derivative(method="2-point")``
        compute them."""
        nonlocal nfev, cache_x, cache_f, cache_g
        if cache_x is not None and np.array_equal(at, cache_x):
            return cache_f, cache_g
        point = at.copy()
        f = fun(point.copy())
        step = np.where((point + _STEP) - point == 0.0,
                        _SQRT_EPS * ((point >= 0) * 2.0 - 1.0) * np.maximum(1.0, np.abs(point)),
                        _STEP)
        # a step that would leave the box goes the other way, or, where the
        # box is narrower than the step, to the farther bound
        below, above = point - lower, upper - point
        ahead = point + step
        fits = np.abs(step) <= np.maximum(below, above)
        step[((ahead < lower) | (ahead > upper)) & fits] *= -1
        step = np.where(fits, step, np.where(above >= below, above, -below))
        shifted = []
        for i in range(n):
            xi = point.copy()
            xi[i] = point[i] + step[i]
            shifted.append(fun(xi))
        g = (np.array(shifted, dtype=float) - f) / ((point + step) - point)
        nfev += 1 + n
        cache_x, cache_f, cache_g = point, f, g
        return f, g

    fun_and_grad(x)  # scipy evaluates x0 up front; setulb's first request hits the cache
    f, g = np.array(0.0), np.zeros(n)
    m = _MAXCOR
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = _FTOL / np.finfo(float).eps
    n_iterations = 0
    while True:
        g = g.astype(np.float64)  # setulb's own copy; the cache keeps its g
        try:
            setulb(m, x, low_bnd, upper_bnd, nbd, f, g, factr, _GTOL, wa, iwa, task,
                   lsave, isave, dsave, _MAXLS, ln_task)
        except (TypeError, ValueError) as exc:
            raise _incompatible(f"setulb rejected the call: {exc}") from exc
        if task[0] == _FG:
            f, g = fun_and_grad(x)
        elif task[0] == _NEW_X:
            n_iterations += 1
            if n_iterations >= maxiter:
                task[:] = _STOP, _STOP_MAXITER
            elif nfev > _MAXFUN:
                task[:] = _STOP, _STOP_MAXFUN
        else:
            break
    return MinimizeResult(x, f, nfev, bool(task[0] == _CONVERGENCE))
