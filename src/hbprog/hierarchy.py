"""Two-stage hierarchical workflow.

Stage 1 samples each historical dataset's parameters under a uniform prior;
stage 2 samples the hyperparameters from the Monte-Carlo marginal likelihood
built on those draws. The hyper samples then act as a mixture prior when
updating the current unit. A classical single-level update (Gaussian priors
on the physical parameters) and evidence-ranked model selection complete the
module.

Every sampling stage is its support test, prior and likelihood plus one call
of the private runner :func:`_run_stage`, which builds the target, picks the
start and the sampler, and records the stage. The runner runs the mode
search and the sampler under one ``ignore_float_errors``: numpy's divide,
overflow and invalid errors are ignored once per stage, not once or twice per
log-target evaluation.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from hbprog.models import (
    FAMILIES,
    CrackGeometry,
    DegradationModel,
    LoadingSpec,
    ParisCrackModel,
    ignore_float_errors,
)
from hbprog.samplers import (
    SampleSet,
    SamplerConfig,
    SamplerError,
    TargetSpec,
    TemperedTarget,
    config_fingerprint,
    slice_sample,
    subseed,
    tmcmc,
)
from hbprog.targets import (
    LOG_TWO_PI,
    HyperParameters,
    HyperPriorBounds,
    _decode_hyper_meta,
    _mixture_kernel,
    _stage2_target,
    _stage2_target_batch,
    dataset_loglik,
    dataset_loglik_batch,
    trunc_normal_logpdf,
    trunc_normal_ppf,
)

# seed-derivation tags for the pipeline's independent RNG streams
_TAG_STAGE1, _TAG_STAGE2, _TAG_CURRENT, _TAG_SELECT, _TAG_CLASSICAL = 1, 2, 3, 4, 5

# length of the whitening pilot run, as a fraction of the final run (at least 100 draws)
_PILOT_FRACTION = 0.25


# scipy.optimize, the only scipy module the package uses, is imported on the
# first call of ``minimize``, so commands that never search for a mode
# (predict, rul, synth, any TMCMC fit) run without scipy.
# The mode search's differential evolution below is this module's own; only
# the quasi-Newton polish is scipy's. Both stay module-level names because
# the initialisation looks them up here at call time, which is where a
# tracer or a test patches them.


def _import_optimize():
    """``scipy.optimize``, imported on its first use rather than with the
    package.

    Cyclic garbage collection is paused for the import: loading scipy
    allocates tens of thousands of long-lived objects and no garbage, and
    the collections those allocations set off cost each command that loads
    it about 10 ms.
    """
    if "scipy.optimize" not in sys.modules:
        enabled = gc.isenabled()
        gc.disable()
        try:
            import scipy.optimize  # noqa: F401
        finally:
            if enabled:
                gc.enable()
    return sys.modules["scipy.optimize"]


def minimize(*args, **kwargs):
    """:func:`scipy.optimize.minimize`, imported on the first call."""
    return _import_optimize().minimize(*args, **kwargs)


# Differential evolution (Storn & Price 1997, J. Global Optim. 11:341) in
# the one configuration the mode search uses: best1bin, a mutation scale
# dithered in [0.5, 1) once per generation, crossover 0.7, a Latin-hypercube
# start of 12 members per dimension, at most 60 generations, a stop when the
# population energies' sd falls to 1e-10 of their mean, immediate updating,
# and an L-BFGS-B polish. These are constants, not options: changing any of
# them moves every chain started from the search.
_DE_POPSIZE = 12
_DE_MAXITER = 60
_DE_TOL = 1e-10
_DE_DITHER = (0.5, 1.0)
_DE_CROSSOVER = 0.7


@dataclass(frozen=True)
class ModeSearchResult:
    """Best point ``x`` and objective ``fun`` of a mode search; ``nfev``
    counts the objective calls of the population, the trials and the
    polish."""

    x: np.ndarray
    fun: float
    nfev: int


def differential_evolution(
    objective: Callable[[np.ndarray], float], bounds, seed: int
) -> ModeSearchResult:
    """Minimise ``objective`` over the box ``bounds`` (a sequence of finite
    ``(low, high)`` pairs with ``low < high``) by differential evolution,
    then polish the best member with L-BFGS-B through :func:`minimize`.

    This is scipy 1.17's ``differential_evolution(objective, bounds,
    seed=seed, maxiter=60, popsize=12, tol=1e-10, polish=True)`` step for
    step: the same draws from ``np.random.RandomState(seed)`` in the same
    order, so the same ``x`` bytes, ``fun`` and ``nfev``. Each trial is
    built in Python floats, whose add, subtract and multiply round as
    numpy's element-wise ones do, at well under half of scipy's per-trial
    overhead. Two calls are cheaper forms of scipy's with the same stream:
    ``random_sample(k)`` for ``uniform(size=k)`` (both return the next ``k``
    doubles unchanged) and ``randint(d, dtype=np.int32)`` for ``randint(d)``
    (both reject masked 32-bit words until one is below ``d``).
    """
    lo, hi = np.array(bounds, dtype=float).T
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
        raise ValueError("bounds must be finite (low, high) pairs with low < high")
    d = lo.size
    n = _DE_POPSIZE * d
    rs = np.random.RandomState(seed)
    centre, width = 0.5 * (lo + hi), np.fabs(lo - hi)

    # Latin hypercube on the unit box: one draw per stratum and column, the
    # strata then permuted column by column
    strata = (1.0 / n) * rs.uniform(size=(n, d)) + np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
    unit = np.empty_like(strata)
    for j in range(d):
        unit[:, j] = strata[rs.permutation(range(n)), j]
    energies = [float(objective(row)) for row in centre + (unit - 0.5) * width]
    nfev = n
    pop = unit.tolist()

    def promote_best() -> None:
        best = min(range(n), key=energies.__getitem__)
        pop[0], pop[best] = pop[best], pop[0]
        energies[0], energies[best] = energies[best], energies[0]

    promote_best()
    centre_l, width_l = centre.tolist(), width.tolist()
    dims = range(d)
    order = np.arange(n)  # shuffled in place for every trial, never reset
    for _ in range(_DE_MAXITER):
        scale = rs.uniform(*_DE_DITHER)
        for c in range(n):
            fill = int(rs.randint(d, dtype=np.int32))
            rs.shuffle(order)
            r0, r1, r2 = order[:3].tolist()
            if r0 == c:
                r0, r1 = r1, r2
            elif r1 == c:
                r1 = r2
            cross = rs.random_sample(d).tolist()
            best, a, b, current = pop[0], pop[r0], pop[r1], pop[c]
            trial = [
                best[j] + scale * (a[j] - b[j])
                if cross[j] < _DE_CROSSOVER or j == fill
                else current[j]
                for j in dims
            ]
            outside = [j for j in dims if trial[j] > 1.0 or trial[j] < 0.0]
            if outside:
                for j, u in zip(outside, rs.random_sample(len(outside)).tolist()):
                    trial[j] = u
            energy = float(
                objective(np.array([centre_l[j] + (trial[j] - 0.5) * width_l[j] for j in dims]))
            )
            nfev += 1
            if energy <= energies[c]:
                pop[c], energies[c] = trial, energy
                if energy <= energies[0]:
                    promote_best()
        # numpy's pairwise sums, as scipy computes the stopping rule
        e = np.array(energies)
        if not np.isinf(e).any() and np.std(e) <= _DE_TOL * np.abs(np.mean(e)):
            break

    x, fun = centre + (np.array(pop[0]) - 0.5) * width, energies[0]
    res = minimize(objective, x.copy(), method="L-BFGS-B", bounds=list(zip(lo, hi)))
    nfev += res.nfev
    if res.fun < fun and res.success and np.all(res.x <= hi) and np.all(lo <= res.x):
        x, fun = res.x, float(res.fun)
    return ModeSearchResult(x, fun, nfev)


@dataclass(frozen=True)
class Dataset:
    """One unit's degradation series plus the physics metadata needed to
    evaluate its model: strictly increasing cycle indices, positive finite
    measured values (mm or Ahr), the model family, and loading/geometry or
    threshold information."""

    unit_id: str
    cycles: np.ndarray
    values: np.ndarray
    family: str
    units: str = ""
    loading: LoadingSpec | None = None
    geometry: CrackGeometry | None = None
    threshold: float | None = None
    nominals: tuple | None = None
    note: str | None = None  # free-form protocol note (e.g. discharge regime)

    def __post_init__(self):
        cycles = np.asarray(self.cycles, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if cycles.ndim != 1 or values.shape != cycles.shape:
            raise ValueError("cycles and values must be 1-d arrays of equal length")
        if cycles.size and np.any(np.diff(cycles) <= 0):
            raise ValueError("cycles must be strictly increasing")
        if cycles.size and np.any(cycles < 0):
            raise ValueError("cycles must be >= 0")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("values must be finite and positive")
        cycles.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "values", values)
        if self.nominals is not None:
            object.__setattr__(self, "nominals", tuple(float(v) for v in self.nominals))

        cycles_f = cycles.astype(float)
        cycles_f.setflags(write=False)
        object.__setattr__(self, "cycles_float", cycles_f)
        # the lognormal likelihood's data-only terms, fixed for the dataset
        log_values = np.log(values)
        log_values.setflags(write=False)
        object.__setattr__(self, "log_values", log_values)
        object.__setattr__(
            self, "lognormal_const", float(-log_values.sum() - 0.5 * values.size * LOG_TWO_PI)
        )

    def __len__(self) -> int:
        return self.cycles.size

    def truncate(self, t_c: float) -> "Dataset":
        """Copy keeping only measurements at cycles <= t_c."""
        keep = self.cycles <= t_c
        return replace(self, cycles=self.cycles[keep], values=self.values[keep])


@dataclass
class HierarchyResult:
    """Bundle produced by the full historical fit: per-dataset stage-1
    sample sets and the hyper-posterior sample set. A TMCMC fit also
    carries the family's log-evidence, its standard error and the summed
    data part of it (see :func:`fit_historical`)."""

    stage1: tuple[SampleSet, ...]
    hyper: SampleSet
    log_evidence: float | None
    fingerprint: str
    log_evidence_se: float | None = None
    data_log_evidence: float | None = None

    def __post_init__(self):
        self.stage1 = tuple(self.stage1)


def build_model(dataset: Dataset, family: str | None = None, nominals=None) -> DegradationModel:
    """Construct the degradation model a dataset's metadata describes.

    ``family``/``nominals`` override the dataset's own (used when fitting a
    candidate family to data generated under another). The dataset's
    nominals apply only to its own family; another family without
    ``nominals`` takes its defaults.
    """
    family = family or dataset.family
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    if nominals is None and family == dataset.family:
        nominals = dataset.nominals
    if family == "paris":
        if dataset.geometry is None or dataset.loading is None:
            raise ValueError(f"dataset {dataset.unit_id!r} lacks crack geometry/loading metadata")
        if nominals is None:
            return ParisCrackModel(dataset.geometry, dataset.loading)
        return ParisCrackModel(dataset.geometry, dataset.loading, tuple(nominals))
    cls = FAMILIES[family]
    return cls(tuple(nominals)) if nominals else cls()


def _negated(log_target: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
    """The mode searches' objective, -log_target, with -inf mapped to a
    large finite value (DE takes the sd of its population's objectives)."""

    def objective(x: np.ndarray) -> float:
        lp = log_target(x)
        return -lp if lp > -math.inf else 1e15

    return objective


def _polish_inits(target: TargetSpec, starts: list[np.ndarray], best_pair):
    """Local optimization from several starts; returns the overall best
    point. Degradation posteriors sit on thin ridges whose basin a random
    probe essentially never hits, so the probes are polished with a bounded
    quasi-Newton search before any chain is started."""
    best_lp, best_x = best_pair
    opt_bounds = [
        (None if not math.isfinite(l) else l, None if not math.isfinite(h) else h)
        for l, h in zip(target.lower, target.upper)
    ]
    objective = _negated(target.log_target)
    for x0 in starts:
        res = minimize(objective, x0, method="L-BFGS-B", bounds=opt_bounds, options={"maxiter": 200})
        lp = float(target.log_target(res.x))
        if math.isfinite(lp) and lp > best_lp:
            best_lp, best_x = lp, np.array(res.x)
    return best_lp, best_x


def _find_init(target: TargetSpec, rng: np.random.Generator, first_guess: np.ndarray) -> np.ndarray:
    """Mode-seeking initialization over a finite box.

    Degradation log-targets span millions of nats across the support (model
    curves are exponentially sensitive to their parameters) and concentrate
    on thin ridges whose basin local search from random probes essentially
    never finds; a slice chain started off the ridge settles into a local
    mode hundreds of nats below the global one. A seeded global search
    (this module's :func:`differential_evolution`) followed by a
    quasi-Newton polish (scipy's L-BFGS-B through :func:`minimize`) starts
    every chain at the dominant mode deterministically.
    """
    best_x = np.array(first_guess, dtype=float)
    best_lp = float(target.log_target(best_x))
    lo, hi = target.lower, target.upper
    if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
        if np.all(lo == hi):
            return np.array(lo)
        free = lo < hi
        log_target = target.log_target
        if not free.all():

            def log_target(xf: np.ndarray) -> float:
                x = np.array(lo)
                x[free] = xf
                return target.log_target(x)

        result = differential_evolution(
            _negated(log_target), list(zip(lo[free], hi[free])), seed=int(rng.integers(0, 2**31 - 1))
        )
        x = np.array(lo)
        x[free] = result.x
        lp = float(target.log_target(x))
        if lp > best_lp:
            best_lp, best_x = lp, x
    if not math.isfinite(best_lp):
        raise SamplerError(
            "no finite log-target point found at the first guess or by the global search"
        )
    return best_x


def _slice_whitened(target: TargetSpec, init: np.ndarray, config: SamplerConfig) -> SampleSet:
    """Slice sampling with a pilot-estimated affine whitening.

    Degradation likelihoods concentrate on thin, strongly correlated ridges
    (the growth-exponent / rate-constant tradeoff), along which plain
    coordinate-wise updates crawl. A short pilot run estimates the local
    covariance; the final run applies coordinate-wise slice sampling in the
    whitened coordinates u = L^-1 (x - center) and maps the draws back. The
    support box is enforced inside the transformed target, and everything
    stays deterministic in the configured seed. ``n_evals`` in the
    provenance counts the log-target calls of both runs.
    """
    n_pilot = max(100, int(_PILOT_FRACTION * config.n_samples))
    pilot = slice_sample(target, init, config.replace(n_samples=n_pilot, seed=subseed(config.seed, 0x9107)))
    cov = np.atleast_2d(np.cov(pilot.samples, rowvar=False))
    scale = np.maximum(np.diag(cov), 1e-20)
    cov = cov + np.diag(1e-9 * scale + 1e-30)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.diag(np.sqrt(scale))
    center = pilot.samples.mean(axis=0)

    def log_target_w(u: np.ndarray) -> float:
        return target.log_target(center + chol @ u)

    target_w = TargetSpec(target.dim, log_target_w, labels=target.labels, name=f"{target.name}:whitened")
    init_w = np.linalg.solve(chol, pilot.samples[-1] - center)
    out_w = slice_sample(target_w, init_w, config.replace(slice_width=2.0))
    provenance = dict(out_w.provenance, sampler="slice+whitened", pilot_draws=n_pilot)
    provenance["n_evals"] += pilot.provenance["n_evals"]
    return SampleSet(center + out_w.samples @ chol.T, target.labels, provenance)


def _in_box(lower: np.ndarray, upper: np.ndarray) -> Callable[[list], bool]:
    """Membership test of a point, given as a list of floats, in the box
    [lower, upper]. Plain floats keep the scalar log-targets cheap; a NaN
    coordinate counts as inside, as with array comparisons."""
    lower_l, upper_l = lower.tolist(), upper.tolist()

    def inside(xl: list) -> bool:
        for v, lo_v, hi_v in zip(xl, lower_l, upper_l):
            if v < lo_v or v > hi_v:
                return False
        return True

    return inside


def _stage1_box(dataset: Dataset, model: DegradationModel, bounds, sampler: str):
    """The checked ``(lower, upper)`` arrays of a stage-1 uniform prior box
    over (theta..., sigma) for ``sampler``, and their labels."""
    if len(dataset) == 0:
        raise ValueError("stage-1 inference requires a nonempty dataset")
    lower = np.asarray(bounds[0], dtype=float)
    upper = np.asarray(bounds[1], dtype=float)
    labels = model.theta_labels + ("sigma",)
    if lower.shape != (len(labels),) or upper.shape != (len(labels),):
        raise ValueError(f"bounds must cover {len(labels)} components (theta..., sigma)")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("stage-1 bounds must be finite")
    # a Metropolis move never leaves a zero-width component (slice pins it)
    if sampler == "tmcmc":
        for name, lo, hi in zip(labels, lower, upper):
            if not lo < hi:
                raise ValueError(f"TMCMC needs lower < upper; stage-1 bound {name!r} is [{lo:g}, {hi:g}]")
    return lower, upper, labels


def _tmcmc_on_box(
    lower: np.ndarray, upper: np.ndarray, loglik: Callable, labels: tuple, name: str,
    config: SamplerConfig,
) -> SampleSet:
    """TMCMC from the uniform prior on the box [lower, upper], whose
    log-density inside is -sum(log(upper - lower)), to the posterior under
    the batch log-likelihood ``loglik``. The returned set carries the
    evidence of that update."""
    log_density = float(-np.sum(np.log(upper - lower)))

    def sample_prior(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(lower, upper, size=(n, len(lower)))

    def prior_logpdf(x: np.ndarray) -> np.ndarray:
        outside = np.any((x < lower) | (x > upper), axis=1)
        return np.where(outside, -np.inf, log_density)

    return tmcmc(TemperedTarget(len(lower), sample_prior, prior_logpdf, loglik, labels, name), config)


def _run_stage(
    name: str, labels: tuple, lower: np.ndarray, upper: np.ndarray, density: Callable,
    config: SamplerConfig, de_seed: int | None = None, window: tuple | None = None,
    draws: np.ndarray | None = None, **provenance,
) -> SampleSet:
    """Sample the stage ``name`` (``stage`` or ``stage:unit_id``; the
    provenance records both parts, then ``provenance``) over the support
    [lower, upper].

    Without ``de_seed`` or ``draws``, TMCMC runs from the uniform prior on
    the support under the batch log-likelihood ``density`` (stage 1 with at
    least 8 moves, see :func:`_stage1_tmcmc`). Otherwise ``density`` is the
    scalar log-target and a slice chain, whitened except for stage 2 and a
    fully pinned box, starts at the mode :func:`_find_init` finds from
    ``de_seed`` over ``window`` (``(lower, upper, first_guess)``, by default
    the support from its centre), or at the best of the rows ``draws`` once
    :func:`_polish_inits` has polished the top three. The search and the
    sampler run under one :func:`~hbprog.models.ignore_float_errors`.
    """
    stage, has_unit, unit_id = name.partition(":")
    with ignore_float_errors():
        if de_seed is None and draws is None:
            if stage == "stage1":
                config = config.replace(tmcmc_moves=max(config.tmcmc_moves, 8))
            out = _tmcmc_on_box(lower, upper, density, labels, name, config)
        else:
            target = TargetSpec(len(labels), density, lower, upper, labels, name=name)
            if draws is None:
                lo, hi, guess = window or (lower, upper, 0.5 * (lower + upper))
                search = replace(target, lower=lo, upper=hi)
                init = _find_init(search, np.random.default_rng(de_seed), guess)
            else:
                scored = sorted(((density(x), x) for x in draws), key=lambda t: t[0], reverse=True)
                best, init = _polish_inits(target, [row for _, row in scored[:3]], scored[0])
                if not math.isfinite(best):
                    raise SamplerError("no finite log-target point found among mixture-prior draws")
            if stage == "stage2" or np.all(lower == upper):
                out = slice_sample(target, init, config)
            else:
                out = _slice_whitened(target, init, config)
    out.provenance["stage"] = stage
    if has_unit:
        out.provenance["unit_id"] = unit_id
    out.provenance.update(provenance)
    return out


def stage1_infer(
    dataset: Dataset,
    model: DegradationModel,
    bounds: tuple[Sequence[float], Sequence[float]],
    config: SamplerConfig,
) -> SampleSet:
    """Per-dataset posterior over (theta..., sigma) under a uniform prior on
    the given box: mode-search initialization, pilot run, then whitened
    slice sampling."""
    lower, upper, labels = _stage1_box(dataset, model, bounds, "slice")
    inside = _in_box(lower, upper)

    def log_target(x: np.ndarray) -> float:
        xl = x.tolist()
        if not inside(xl):
            return -math.inf
        return dataset_loglik(model, dataset, x[:-1], xl[-1])

    return _run_stage(
        f"stage1:{dataset.unit_id}", labels, lower, upper, log_target, config,
        de_seed=subseed(config.seed, _TAG_STAGE1, 0xF17), family=model.family,
    )


def _stage1_tmcmc(
    dataset: Dataset, model: DegradationModel, bounds, config: SamplerConfig
) -> SampleSet:
    """Stage-1 posterior via TMCMC over the uniform box, which also yields
    the dataset's marginal likelihood under that prior.

    Runs with a generous move count per tempering stage: degradation
    posteriors ride thin correlated ridges, and particle diversity there
    directly controls the variance of the evidence estimate (measured
    several-nat swings at 3 moves vs ~1 nat at 8).
    """
    lower, upper, labels = _stage1_box(dataset, model, bounds, "tmcmc")

    def loglik(x: np.ndarray) -> np.ndarray:
        return dataset_loglik_batch(model, dataset, x[:, :-1], x[:, -1])

    return _run_stage(
        f"stage1:{dataset.unit_id}", labels, lower, upper, loglik, config, family=model.family
    )


def _check_choices(case: str, sampler: str) -> None:
    if case not in ("diag", "corr"):
        raise ValueError("case must be 'diag' or 'corr'")
    if sampler not in ("slice", "tmcmc"):
        raise ValueError("sampler must be 'slice' or 'tmcmc'")


def stage2_infer(
    stage1: Sequence[SampleSet],
    bounds: HyperPriorBounds,
    case: str = "diag",
    config: SamplerConfig | None = None,
    sampler: str = "slice",
    sigma_trunc: float = 0.2,
) -> SampleSet:
    """Hyper-posterior sampling from the stage-1 sample sets.

    ``case`` is ``"diag"`` (independent components) or ``"corr"`` (adds the
    correlation coefficient between the first two components). With
    ``sampler="tmcmc"`` the returned set carries the hyper-level
    log-evidence estimate.
    """
    if not stage1:
        raise ValueError("at least one stage-1 sample set is required")
    _check_choices(case, sampler)
    config = config or SamplerConfig()
    correlated = case == "corr"
    make_target = _stage2_target if sampler == "slice" else _stage2_target_batch
    loglik, n_theta = make_target(stage1, bounds, correlated, sigma_trunc)
    lower = bounds.lower(correlated)
    upper = bounds.upper(correlated)
    labels = HyperParameters.labels(n_theta, correlated)
    seed = subseed(config.seed, _TAG_STAGE2)
    density, de_seed = loglik, None
    if sampler == "slice":
        log_prior_const = bounds.log_prior_const(correlated)
        inside = _in_box(lower, upper)

        def log_target(vec: np.ndarray) -> float:
            if not inside(vec.tolist()):
                return -math.inf
            return log_prior_const + loglik(vec)

        density, de_seed = log_target, subseed(seed, 0x1417)
    return _run_stage(
        "stage2", labels, lower, upper, density, config.replace(seed=seed), de_seed=de_seed,
        n_theta=n_theta, correlated=correlated, sigma_trunc=float(sigma_trunc),
        n_datasets=len(stage1),
    )


def _unit_labels(n_theta: int) -> tuple[str, ...]:
    """``theta1..thetaK, sigma``, the labels of a unit's draws under the
    mixture prior."""
    return tuple(f"theta{j + 1}" for j in range(n_theta)) + ("sigma",)


def sample_mixture_prior(hyper: SampleSet, n: int, seed: int) -> SampleSet:
    """Ancestral draws from the hyper-averaged mixture prior: pick a hyper
    sample uniformly, then draw theta from its population Gaussian and sigma
    from its truncated block."""
    n_theta, correlated, sigma_trunc = _decode_hyper_meta(hyper)
    rng = np.random.default_rng(seed)
    mat = hyper.samples
    idx = rng.integers(0, mat.shape[0], size=n)
    mu = mat[idx, :n_theta]
    sd = mat[idx, n_theta + 1 : 2 * n_theta + 1]
    z = rng.standard_normal((n, n_theta))
    if correlated:
        rho = mat[idx, -1]
        z1 = z[:, 0]
        z2 = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
        z = np.column_stack([z1, z2])
    theta = mu + sd * z
    mu_s = mat[idx, n_theta]
    sd_s = mat[idx, 2 * n_theta + 1]
    sigma = trunc_normal_ppf(rng.uniform(size=n), mu_s, sd_s, 0.0, sigma_trunc)
    return SampleSet(
        np.column_stack([theta, sigma]),
        _unit_labels(n_theta),
        {
            "sampler": "ancestral-mixture",
            "seed": seed,
            "n_theta": n_theta,
            "correlated": correlated,
            "sigma_trunc": sigma_trunc,
        },
    )


def update_current(
    current: Dataset | None,
    hyper: SampleSet,
    model: DegradationModel,
    config: SamplerConfig,
    hyper_subsample: int | None = None,
) -> SampleSet:
    """Posterior of the current unit's parameters under the mixture prior.

    With no current data the draws come straight from the mixture prior by
    ancestral sampling. ``hyper_subsample`` caps the number of mixture
    components for speed (uniform thinning of the hyper set).
    """
    n_theta, correlated, sigma_trunc = _decode_hyper_meta(hyper)
    if current is not None and len(current) and current.family != model.family:
        raise ValueError(
            f"model/likelihood family mismatch: dataset {current.family!r} vs model {model.family!r}"
        )
    if n_theta != model.n_theta:
        raise ValueError("hyper-sample dimension does not match the model family")
    hyper_mat = hyper.samples
    # built on every hyper sample, so a malformed set raises in either branch
    mixture = _mixture_kernel(hyper_mat, n_theta, correlated, sigma_trunc)
    seed = subseed(config.seed, _TAG_CURRENT)
    if current is None or len(current) == 0:
        return sample_mixture_prior(hyper, config.n_samples, seed)

    if hyper_subsample is not None and hyper_subsample < hyper_mat.shape[0]:
        thinned = hyper_mat[:: hyper_mat.shape[0] // hyper_subsample][:hyper_subsample]
        mixture = _mixture_kernel(thinned, n_theta, correlated, sigma_trunc)

    def log_target(x: np.ndarray) -> float:
        sigma = float(x[-1])
        if not 0.0 < sigma < sigma_trunc:
            return -math.inf
        prior = mixture(x)
        if prior == -math.inf:
            return -math.inf
        return prior + dataset_loglik(model, current, x[:-1], sigma)

    lower = np.concatenate([np.full(n_theta, -np.inf), [0.0]])
    upper = np.concatenate([np.full(n_theta, np.inf), [sigma_trunc]])
    draws = sample_mixture_prior(hyper, 200, subseed(seed, 0x5EED)).samples
    return _run_stage(
        f"current:{current.unit_id}", _unit_labels(n_theta), lower, upper, log_target,
        config.replace(seed=seed), draws=draws, n_theta=n_theta, correlated=correlated,
        sigma_trunc=sigma_trunc,
    )


@dataclass(frozen=True)
class ClassicalPrior:
    """Independent Gaussian priors on the physical model parameters, plus a
    prior for the error scale: uniform over ``sigma_bounds`` by default, or
    truncated Gaussian when ``sigma_mu``/``sigma_sd`` are given."""

    means: tuple[float, ...]
    sds: tuple[float, ...]
    sigma_bounds: tuple[float, float] = (0.0, 0.2)
    sigma_mu: float | None = None
    sigma_sd: float | None = None

    def __post_init__(self):
        if len(self.means) != len(self.sds):
            raise ValueError("means and sds must have equal length")
        if any(not s > 0 for s in self.sds):
            raise ValueError("prior standard deviations must be > 0")
        if not 0 <= self.sigma_bounds[0] < self.sigma_bounds[1]:
            raise ValueError("sigma_bounds must be an increasing pair with lower >= 0")
        if (self.sigma_mu is None) != (self.sigma_sd is None):
            raise ValueError("sigma_mu and sigma_sd must be given together")


def classical_update(
    current: Dataset,
    prior: ClassicalPrior,
    model: DegradationModel,
    config: SamplerConfig,
) -> SampleSet:
    """Single-level Bayesian update (no hierarchy) under Gaussian priors on
    the physical parameters; supports literature-based priors. Sampling runs
    in the dimensionless parameterization via the exact linear rescaling of
    the Gaussians."""
    if len(prior.means) != model.n_theta:
        raise ValueError("prior dimension does not match the model family")
    n_mu, n_sd = model.normalize_gaussian(prior.means, prior.sds)
    s_lo, s_hi = prior.sigma_bounds

    def log_target(x: np.ndarray) -> float:
        sigma = float(x[-1])
        if not s_lo < sigma < s_hi:
            return -math.inf
        lp = float(np.sum(-0.5 * ((x[:-1] - n_mu) / n_sd) ** 2))
        if prior.sigma_mu is not None:
            lp += float(trunc_normal_logpdf(sigma, prior.sigma_mu, prior.sigma_sd, s_lo, s_hi))
        return lp + dataset_loglik(model, current, x[:-1], sigma)

    lower = np.concatenate([np.full(model.n_theta, -np.inf), [s_lo]])
    upper = np.concatenate([np.full(model.n_theta, np.inf), [s_hi]])
    # Mode finding runs over a windowed box: the prior's +-8 sd range clipped
    # to the family's plausible dimensionless range. An effectively flat
    # prior (huge sds) would otherwise hide the likelihood ridge in an
    # astronomically larger search volume; the window only steers the
    # search, the sampled target is the full posterior.
    wide_lo, wide_hi = n_mu - 8 * n_sd, n_mu + 8 * n_sd
    theta_lo = np.maximum(wide_lo, np.asarray(model.plausible_lo, dtype=float))
    theta_hi = np.minimum(wide_hi, np.asarray(model.plausible_hi, dtype=float))
    bad = theta_lo >= theta_hi
    theta_lo, theta_hi = np.where(bad, wide_lo, theta_lo), np.where(bad, wide_hi, theta_hi)
    window = (
        np.concatenate([theta_lo, [s_lo]]),
        np.concatenate([theta_hi, [s_hi]]),
        np.concatenate([n_mu.clip(theta_lo, theta_hi), [0.5 * (s_lo + s_hi)]]),
    )
    seed = subseed(config.seed, _TAG_CLASSICAL)
    return _run_stage(
        f"classical:{current.unit_id}", model.theta_labels + ("sigma",), lower, upper, log_target,
        config.replace(seed=seed), de_seed=subseed(seed, 0x1417), window=window,
    )


# (fn, items) of the pool this process was forked to serve; None outside one
_WORKER_JOBS: tuple | None = None


def _available_cpus() -> int:
    """CPUs this process may run on, or 1 where forked workers are not an
    option: no CPU affinity or fork on the platform, or other threads
    running (forking a threaded process can copy a lock another thread
    holds)."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


def _init_worker(fn, items) -> None:
    global _WORKER_JOBS
    _WORKER_JOBS = (fn, items)


def _run_job(i: int):
    fn, items = _WORKER_JOBS
    return fn(items[i])


def _map_jobs(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]`` in input order, computed in up to
    :func:`_available_cpus` forked worker processes, at most one per item.

    The jobs reach the workers through fork, so ``fn`` may be a closure;
    only results are pickled. Every job must seed its own randomness, so
    the results do not depend on the worker count. A job that raises stops
    the run, and the first failing job in input order re-raises its
    exception, as the serial loop would. With one worker, and inside a
    worker (no nested pools), the jobs run serially in this process.
    """
    items = list(items)
    workers = 1 if _WORKER_JOBS is not None else min(len(items), _available_cpus())
    if workers <= 1:
        return [fn(x) for x in items]
    # imported here so commands that never fan out do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn, items),
    )
    try:
        futures = [pool.submit(_run_job, i) for i in range(len(items))]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def update_many(
    datasets: Sequence[Dataset | None],
    hyper: SampleSet,
    model: DegradationModel,
    config: SamplerConfig,
    hyper_subsample: int | None = None,
) -> list[SampleSet]:
    """:func:`update_current` for each dataset (say, one unit truncated at
    successive cutoffs) under the same hyper set, model and sampler config,
    returned in input order. The updates are independent and each seeds
    itself from ``config``, so they run in worker processes (see
    :func:`_map_jobs`) with the serial loop's bytes."""
    # each update polishes its starts: imported once here, not once per
    # forked worker (see minimize above)
    _import_optimize()
    return _map_jobs(
        lambda ds: update_current(ds, hyper, model, config, hyper_subsample), datasets
    )


def _forward_stage1(stage1_sets: Sequence[SampleSet], stage1_thin: int | None) -> list:
    """Stage-1 sets as forwarded to stage 2: each thinned to about
    ``stage1_thin`` draws when it holds more."""
    if stage1_thin is None:
        return list(stage1_sets)
    return [
        ss.thin(max(1, ss.n // stage1_thin)) if ss.n > stage1_thin else ss for ss in stage1_sets
    ]


def fit_historical(
    datasets: Sequence[Dataset],
    stage1_bounds,
    hyper_bounds: HyperPriorBounds,
    case: str = "diag",
    config: SamplerConfig | None = None,
    sampler: str = "slice",
    sigma_trunc: float = 0.2,
    family: str | None = None,
    nominals=None,
    stage1_thin: int | None = None,
) -> HierarchyResult:
    """Run the complete historical workflow: independent stage-1 jobs (one
    derived seed each, so results do not depend on execution order; they run
    in worker processes, see :func:`_map_jobs`), then the stage-2
    hyper-posterior, both by ``sampler``. ``stage1_thin`` caps the
    per-dataset samples forwarded to stage 2.

    With ``sampler="tmcmc"`` the result carries the full hierarchical
    evidence

        log p(data | family) = sum_i [log Z_i + log V_i] + log Z_hyper,

    its data part (the sum) and its standard error (from the runs' summed
    variances). Z_i is the dataset evidence under the normalized uniform
    prior, V_i the prior box volume (so Z_i * V_i integrates the bare
    likelihood) and Z_hyper the evidence of the pooled hyper target. The
    pooled target drops the Z_i * V_i factors as constants in the
    hyperparameters, but they differ across families, and ranking on
    Z_hyper alone systematically favors lower-dimensional families
    regardless of fit.
    """
    if not datasets:
        raise ValueError("at least one historical dataset is required")
    _check_choices(case, sampler)
    config = config or SamplerConfig()

    def stage1_job(job: tuple[int, Dataset]) -> SampleSet:
        i, ds = job
        job_cfg = config.replace(seed=subseed(config.seed, _TAG_STAGE1, i))
        infer = _stage1_tmcmc if sampler == "tmcmc" else stage1_infer
        return infer(ds, build_model(ds, family, nominals), stage1_bounds, job_cfg)

    if sampler != "tmcmc":
        # each slice stage-1 job polishes its mode search: imported once
        # here, not once per forked worker (see minimize above); TMCMC
        # searches for no mode and never loads it
        _import_optimize()
    stage1_sets = _map_jobs(stage1_job, enumerate(datasets))
    hyper = stage2_infer(
        _forward_stage1(stage1_sets, stage1_thin), hyper_bounds, case, config, sampler, sigma_trunc
    )
    log_ev = log_ev_se = data_log_ev = None
    if sampler == "tmcmc":
        lower = np.asarray(stage1_bounds[0], dtype=float)
        upper = np.asarray(stage1_bounds[1], dtype=float)
        log_volume = float(np.sum(np.log(upper - lower)))
        data_log_ev = data_var = 0.0
        for ss in stage1_sets:
            data_log_ev += ss.log_evidence + log_volume
            data_var += ss.log_evidence_se**2
        log_ev = data_log_ev + hyper.log_evidence
        log_ev_se = float(math.sqrt(data_var + hyper.log_evidence_se**2))
    return HierarchyResult(
        tuple(stage1_sets), hyper, log_ev, config_fingerprint(config), log_ev_se, data_log_ev
    )


@dataclass(frozen=True)
class Candidate:
    """One model family entered into evidence-based selection."""

    family: str
    stage1_bounds: tuple
    hyper_bounds: HyperPriorBounds
    nominals: tuple | None = None
    sigma_trunc: float = 0.4
    name: str | None = None

    @property
    def label(self) -> str:
        return self.name or self.family


def model_select(
    datasets: Sequence[Dataset],
    candidates: Sequence[Candidate],
    config: SamplerConfig | None = None,
    case: str = "diag",
    stage1_thin: int | None = None,
) -> list[dict]:
    """Rank candidate families by model evidence.

    Each candidate runs :func:`fit_historical` by TMCMC under its own
    derived seed, and the ranking key is the full hierarchical evidence
    that fit reports. The hyper-level and data parts are reported per
    candidate beside it.

    A failing candidate is marked failed and ranked last; the ranking
    proceeds over the rest. The candidates run in worker processes (see
    :func:`_map_jobs`). TMCMC searches for no mode, and the population
    densities are the package's own, so neither the parent nor a job loads
    any scipy module.
    """
    if len(candidates) < 2:
        raise ValueError("model selection requires at least two candidates")
    config = config or SamplerConfig()

    def candidate_job(job: tuple[int, Candidate]) -> dict:
        j, cand = job
        cand_cfg = config.replace(seed=subseed(config.seed, _TAG_SELECT, j))
        record = {
            "name": cand.label,
            "family": cand.family,
            "log_evidence": None,
            "log_evidence_se": None,
            "hyper_log_evidence": None,
            "data_log_evidence": None,
            "error": None,
            "result": None,
        }
        try:
            result = fit_historical(
                datasets, cand.stage1_bounds, cand.hyper_bounds, case, cand_cfg, "tmcmc",
                cand.sigma_trunc, cand.family, cand.nominals, stage1_thin,
            )
        except (SamplerError, ValueError, ArithmeticError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        record.update(
            log_evidence=result.log_evidence,
            log_evidence_se=result.log_evidence_se,
            hyper_log_evidence=result.hyper.log_evidence,
            data_log_evidence=result.data_log_evidence,
            result=result,
        )
        return record

    records = _map_jobs(candidate_job, enumerate(candidates))
    records.sort(
        key=lambda r: (-math.inf if r["log_evidence"] is None else r["log_evidence"]),
        reverse=True,
    )
    return records
