"""Two-stage hierarchical workflow.

Stage 1 samples each historical dataset's parameters under a uniform prior;
stage 2 samples the hyperparameters from the Monte-Carlo marginal likelihood
built on those draws. The hyper samples then act as a mixture prior when
updating the current unit. A classical single-level update (Gaussian priors
on the physical parameters) and evidence-ranked model selection complete the
module.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import differential_evolution, minimize

from hbprog.models import (
    BatteryDoubleModel,
    BatterySingleModel,
    CrackGeometry,
    DegradationModel,
    LoadingSpec,
    ParisCrackModel,
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
        return Dataset(
            self.unit_id,
            self.cycles[keep].copy(),
            self.values[keep].copy(),
            self.family,
            self.units,
            self.loading,
            self.geometry,
            self.threshold,
            self.nominals,
            self.note,
        )


@dataclass
class HierarchyResult:
    """Bundle produced by the full historical fit: per-dataset stage-1
    sample sets, the hyper-posterior sample set, and (for TMCMC stage 2) the
    model log-evidence."""

    stage1: tuple[SampleSet, ...]
    hyper: SampleSet
    log_evidence: float | None
    fingerprint: str

    def __post_init__(self):
        self.stage1 = tuple(self.stage1)


def build_model(dataset: Dataset, family: str | None = None, nominals=None) -> DegradationModel:
    """Construct the degradation model a dataset's metadata describes.

    ``family``/``nominals`` override the dataset's own (used when fitting a
    candidate family to data generated under another).
    """
    family = family or dataset.family
    nominals = nominals if nominals is not None else dataset.nominals
    if family == "paris":
        if dataset.geometry is None or dataset.loading is None:
            raise ValueError(f"dataset {dataset.unit_id!r} lacks crack geometry/loading metadata")
        if nominals is None:
            return ParisCrackModel(dataset.geometry, dataset.loading)
        return ParisCrackModel(dataset.geometry, dataset.loading, tuple(nominals))
    if family == "batt-single":
        return BatterySingleModel(tuple(nominals)) if nominals else BatterySingleModel()
    if family == "batt-double":
        return BatteryDoubleModel(tuple(nominals)) if nominals else BatteryDoubleModel()
    raise ValueError(f"unknown model family {family!r}")


def _polish_inits(target: TargetSpec, starts: list[np.ndarray], best_pair):
    """Local optimization from several starts; returns the overall best
    point. Degradation posteriors sit on thin ridges whose basin a random
    probe essentially never hits, so the probes are polished with a bounded
    quasi-Newton search before any chain is started."""
    best_lp, best_x = best_pair
    lo, hi = target.lower, target.upper
    opt_bounds = [
        (None if not math.isfinite(l) else l, None if not math.isfinite(h) else h)
        for l, h in zip(lo, hi)
    ]
    def objective(x: np.ndarray) -> float:
        lp = target.log_target(x)
        return -lp if lp > -math.inf else 1e15

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
    (differential evolution) followed by a quasi-Newton polish starts every
    chain at the dominant mode deterministically.
    """
    best_x = np.array(first_guess, dtype=float)
    best_lp = float(target.log_target(best_x))
    lo, hi = target.lower, target.upper
    if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
        if np.all(lo == hi):
            return np.array(lo)
        free = lo < hi

        def objective(xf: np.ndarray) -> float:
            x = np.array(lo)
            x[free] = xf
            lp = target.log_target(x)
            # -inf maps to a large finite value (DE squares objectives internally)
            return -lp if lp > -math.inf else 1e15

        result = differential_evolution(
            objective,
            bounds=list(zip(lo[free], hi[free])),
            seed=int(rng.integers(0, 2**31 - 1)),
            maxiter=60,
            popsize=12,
            tol=1e-10,
            polish=True,
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


def _slice_whitened(
    target: TargetSpec, init: np.ndarray, config: SamplerConfig, pilot_fraction: float = 0.25
) -> SampleSet:
    """Slice sampling with a pilot-estimated affine whitening.

    Degradation likelihoods concentrate on thin, strongly correlated ridges
    (the growth-exponent / rate-constant tradeoff), along which plain
    coordinate-wise updates crawl. A short pilot run estimates the local
    covariance; the final run applies coordinate-wise slice sampling in the
    whitened coordinates u = L^-1 (x - center) and maps the draws back. The
    support box is enforced inside the transformed target, and everything
    stays deterministic in the configured seed.
    """
    n_pilot = max(100, int(pilot_fraction * config.n_samples))
    pilot = slice_sample(target, init, config.replace(n_samples=n_pilot, seed=subseed(config.seed, 0x9107)))
    cov = np.cov(pilot.samples, rowvar=False)
    cov = np.atleast_2d(cov)
    scale = np.maximum(np.diag(cov), 1e-20)
    cov = cov + np.diag(1e-9 * scale + 1e-30)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.diag(np.sqrt(scale))
    center = pilot.samples.mean(axis=0)

    def log_target_w(u: np.ndarray) -> float:
        return target.log_target(center + chol @ u)

    target_w = TargetSpec(
        target.dim, log_target_w, labels=target.labels, name=target.name + ":whitened"
    )
    best = pilot.samples[-1]
    init_w = np.linalg.solve(chol, best - center)
    # log-flat directions (the error scale against a loose bound) can keep a
    # low slice level alive for hundreds of whitened widths; the expansion
    # budget must comfortably cover that
    out_w = slice_sample(
        target_w, init_w, config.replace(slice_width=2.0, max_step_out=5000)
    )
    samples = center + out_w.samples @ chol.T
    provenance = dict(out_w.provenance)
    provenance.update(sampler="slice+whitened", pilot_draws=n_pilot)
    return SampleSet(samples, target.labels, provenance)


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


def stage1_infer(
    dataset: Dataset,
    model: DegradationModel,
    bounds: tuple[Sequence[float], Sequence[float]],
    config: SamplerConfig,
) -> SampleSet:
    """Per-dataset posterior over (theta..., sigma) under a uniform prior on
    the given box: best-of-probes initialization, pilot run, then whitened
    slice sampling."""
    if len(dataset) == 0:
        raise ValueError("stage-1 inference requires a nonempty dataset")
    lower = np.asarray(bounds[0], dtype=float)
    upper = np.asarray(bounds[1], dtype=float)
    dim = model.n_theta + 1
    if lower.shape != (dim,) or upper.shape != (dim,):
        raise ValueError(f"bounds must cover {dim} components (theta..., sigma)")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("stage-1 bounds must be finite")
    inside = _in_box(lower, upper)

    def log_target(x: np.ndarray) -> float:
        xl = x.tolist()
        if not inside(xl):
            return -math.inf
        return dataset_loglik(model, dataset, x[:-1], xl[-1])

    labels = model.theta_labels + ("sigma",)
    target = TargetSpec(dim, log_target, lower, upper, labels, name=f"stage1:{dataset.unit_id}")
    rng = np.random.default_rng(subseed(config.seed, _TAG_STAGE1, 0xF17))
    init = _find_init(target, rng, 0.5 * (lower + upper))
    if np.all(lower == upper):
        out = slice_sample(target, init, config)
    else:
        out = _slice_whitened(target, init, config)
    out.provenance.update(unit_id=dataset.unit_id, family=model.family, stage="stage1")
    return out


def _box_logpdf_batch(lower: np.ndarray, upper: np.ndarray, log_const: float):
    """Uniform log-density on a box, for a batch of points ``[n, d]``."""

    def logpdf(x: np.ndarray) -> np.ndarray:
        outside = np.any((x < lower) | (x > upper), axis=1)
        return np.where(outside, -np.inf, log_const)

    return logpdf


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
    if case not in ("diag", "corr"):
        raise ValueError("case must be 'diag' or 'corr'")
    config = config or SamplerConfig()
    correlated = case == "corr"
    if sampler not in ("slice", "tmcmc"):
        raise ValueError("sampler must be 'slice' or 'tmcmc'")
    make_target = _stage2_target if sampler == "slice" else _stage2_target_batch
    loglik, n_theta = make_target(stage1, bounds, correlated, sigma_trunc)
    lower = bounds.lower(correlated)
    upper = bounds.upper(correlated)
    labels = HyperParameters.labels(n_theta, correlated)
    log_prior_const = bounds.log_prior_const(correlated)
    seed = subseed(config.seed, _TAG_STAGE2)

    if sampler == "slice":
        inside = _in_box(lower, upper)

        def log_target(vec: np.ndarray) -> float:
            if not inside(vec.tolist()):
                return -math.inf
            return log_prior_const + loglik(vec)

        target = TargetSpec(len(lower), log_target, lower, upper, labels, name="stage2")
        rng = np.random.default_rng(subseed(seed, 0x1417))
        init = _find_init(target, rng, 0.5 * (lower + upper))
        out = slice_sample(target, init, config.replace(seed=seed))
    else:

        def sample_prior(rng: np.random.Generator, n: int) -> np.ndarray:
            return rng.uniform(lower, upper, size=(n, len(lower)))

        prior_logpdf = _box_logpdf_batch(lower, upper, log_prior_const)
        tempered = TemperedTarget(
            len(lower), sample_prior, prior_logpdf, loglik, labels, name="stage2", vectorized=True
        )
        out = tmcmc(tempered, config.replace(seed=seed))

    out.provenance.update(
        stage="stage2",
        n_theta=n_theta,
        correlated=correlated,
        sigma_trunc=float(sigma_trunc),
        n_datasets=len(stage1),
    )
    return out


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
    labels = tuple(f"theta{j + 1}" for j in range(n_theta)) + ("sigma",)
    out = np.column_stack([theta, sigma])
    return SampleSet(
        out,
        labels,
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
    if hyper.n == 0:
        raise ValueError("hyper sample set must be nonempty")
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
    labels = tuple(f"theta{j + 1}" for j in range(n_theta)) + ("sigma",)
    target = TargetSpec(
        n_theta + 1, log_target, lower, upper, labels, name=f"current:{current.unit_id}"
    )
    draws = sample_mixture_prior(hyper, 200, subseed(seed, 0x5EED))
    scored = sorted(
        ((log_target(row), row) for row in draws.samples), key=lambda t: t[0], reverse=True
    )
    best, init = _polish_inits(target, [row for _, row in scored[:3]], scored[0])
    if not math.isfinite(best):
        raise SamplerError("no finite log-target point found among mixture-prior draws")
    out = _slice_whitened(target, init, config.replace(seed=seed))
    out.provenance.update(
        stage="current", unit_id=current.unit_id, n_theta=n_theta,
        correlated=correlated, sigma_trunc=sigma_trunc,
    )
    return out


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
        if not self.sigma_bounds[0] < self.sigma_bounds[1]:
            raise ValueError("sigma_bounds must be an increasing pair")
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
            lp += float(
                trunc_normal_logpdf(sigma, prior.sigma_mu, prior.sigma_sd, s_lo, s_hi)
            )
        return lp + dataset_loglik(model, current, x[:-1], sigma)

    dim = model.n_theta + 1
    lower = np.concatenate([np.full(model.n_theta, -np.inf), [s_lo]])
    upper = np.concatenate([np.full(model.n_theta, np.inf), [s_hi]])
    labels = model.theta_labels + ("sigma",)
    target = TargetSpec(dim, log_target, lower, upper, labels, name=f"classical:{current.unit_id}")
    # Mode finding runs over a windowed box: the prior's +-8 sd range clipped
    # to the family's plausible dimensionless range. An effectively flat
    # prior (huge sds) would otherwise hide the likelihood ridge in an
    # astronomically larger search volume; the window only steers the
    # search, the sampled target is the full posterior.
    p_lo = np.asarray(model.plausible_lo, dtype=float)
    p_hi = np.asarray(model.plausible_hi, dtype=float)
    theta_lo = np.maximum(n_mu - 8 * n_sd, p_lo)
    theta_hi = np.minimum(n_mu + 8 * n_sd, p_hi)
    bad = theta_lo >= theta_hi
    theta_lo[bad] = (n_mu - 8 * n_sd)[bad]
    theta_hi[bad] = (n_mu + 8 * n_sd)[bad]
    search_lo = np.concatenate([theta_lo, [s_lo]])
    search_hi = np.concatenate([theta_hi, [s_hi]])
    search_target = TargetSpec(dim, log_target, search_lo, search_hi, labels)
    seed = subseed(config.seed, _TAG_CLASSICAL)
    rng = np.random.default_rng(subseed(seed, 0x1417))
    guess = np.concatenate([n_mu.clip(theta_lo, theta_hi), [0.5 * (s_lo + s_hi)]])
    init = _find_init(search_target, rng, guess)
    out = _slice_whitened(target, init, config.replace(seed=seed))
    out.provenance.update(stage="classical", unit_id=current.unit_id)
    return out


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
    hyper-posterior. ``stage1_thin`` caps the per-dataset samples forwarded
    to stage 2."""
    if not datasets:
        raise ValueError("at least one historical dataset is required")
    config = config or SamplerConfig()

    def stage1_job(job: tuple[int, Dataset]) -> SampleSet:
        i, ds = job
        job_cfg = config.replace(seed=subseed(config.seed, _TAG_STAGE1, i))
        return stage1_infer(ds, build_model(ds, family, nominals), stage1_bounds, job_cfg)

    stage1_sets = _map_jobs(stage1_job, enumerate(datasets))
    hyper = stage2_infer(
        _forward_stage1(stage1_sets, stage1_thin), hyper_bounds, case, config, sampler, sigma_trunc
    )
    return HierarchyResult(
        stage1=tuple(stage1_sets),
        hyper=hyper,
        log_evidence=hyper.log_evidence,
        fingerprint=config_fingerprint(config),
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
    model_factory: Callable[[Dataset], DegradationModel] | None = None

    @property
    def label(self) -> str:
        return self.name or self.family


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
    config = config.replace(tmcmc_moves=max(config.tmcmc_moves, 8))
    lower = np.asarray(bounds[0], dtype=float)
    upper = np.asarray(bounds[1], dtype=float)
    log_prior_const = float(-np.sum(np.log(upper - lower)))

    def sample_prior(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(lower, upper, size=(n, len(lower)))

    def loglik(x: np.ndarray) -> np.ndarray:
        return dataset_loglik_batch(model, dataset, x[:, :-1], x[:, -1])

    labels = model.theta_labels + ("sigma",)
    tempered = TemperedTarget(
        len(lower),
        sample_prior,
        _box_logpdf_batch(lower, upper, log_prior_const),
        loglik,
        labels,
        name=f"stage1:{dataset.unit_id}",
        vectorized=True,
    )
    out = tmcmc(tempered, config)
    out.provenance.update(unit_id=dataset.unit_id, family=model.family, stage="stage1")
    return out


def model_select(
    datasets: Sequence[Dataset],
    candidates: Sequence[Candidate],
    config: SamplerConfig | None = None,
    case: str = "diag",
    stage1_thin: int | None = None,
    rank_by: str = "total",
) -> list[dict]:
    """Rank candidate families by model evidence.

    Each candidate runs the full pipeline under its own derived seed:
    stage 1 per dataset via TMCMC (yielding the per-dataset marginal
    likelihood of the uniform-prior update) and stage 2 via TMCMC (yielding
    the hyper-level evidence of the pooled target). The default ranking key
    is the full hierarchical evidence

        log p(data | family) = sum_i [log Z_i + log V_i] + log Z_hyper,

    where Z_i is the dataset evidence under the normalized uniform prior,
    V_i the prior box volume (so Z_i * V_i integrates the bare likelihood)
    and Z_hyper the evidence of the pooled hyper target. The pooled target
    drops the Z_i * V_i factors as constants in the hyperparameters, but
    they differ across candidate families, and ranking on Z_hyper alone
    systematically favors lower-dimensional families regardless of fit;
    ``rank_by="hyper"`` switches to that pooled-target-only ranking when
    wanted.

    A failing candidate is marked failed and ranked last; the ranking
    proceeds over the rest. The candidates run in worker processes (see
    :func:`_map_jobs`).
    """
    if len(candidates) < 2:
        raise ValueError("model selection requires at least two candidates")
    if rank_by not in ("total", "hyper"):
        raise ValueError("rank_by must be 'total' or 'hyper'")
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
            lower = np.asarray(cand.stage1_bounds[0], dtype=float)
            upper = np.asarray(cand.stage1_bounds[1], dtype=float)
            log_volume = float(np.sum(np.log(upper - lower)))
            stage1_sets = []
            data_log_ev = 0.0
            data_var = 0.0
            for i, ds in enumerate(datasets):
                model = (
                    cand.model_factory(ds)
                    if cand.model_factory is not None
                    else build_model(ds, cand.family, cand.nominals)
                )
                job_cfg = cand_cfg.replace(seed=subseed(cand_cfg.seed, _TAG_STAGE1, i))
                ss = _stage1_tmcmc(ds, model, cand.stage1_bounds, job_cfg)
                data_log_ev += ss.log_evidence + log_volume
                data_var += ss.log_evidence_se**2
                stage1_sets.append(ss)
            hyper = stage2_infer(
                _forward_stage1(stage1_sets, stage1_thin),
                cand.hyper_bounds, case, cand_cfg, "tmcmc", cand.sigma_trunc,
            )
            total = data_log_ev + hyper.log_evidence
            record["log_evidence"] = total if rank_by == "total" else hyper.log_evidence
            record["log_evidence_se"] = float(
                math.sqrt(data_var + hyper.log_evidence_se**2)
            )
            record["hyper_log_evidence"] = hyper.log_evidence
            record["data_log_evidence"] = data_log_ev
            record["result"] = HierarchyResult(
                tuple(stage1_sets), hyper, total, config_fingerprint(cand_cfg)
            )
        except (SamplerError, ValueError, ArithmeticError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    records = _map_jobs(candidate_job, enumerate(candidates))
    records.sort(
        key=lambda r: (-math.inf if r["log_evidence"] is None else r["log_evidence"]),
        reverse=True,
    )
    return records
