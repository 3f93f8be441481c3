"""General-purpose samplers over unnormalized log-targets.

Two algorithms: coordinate-wise slice sampling with step-out and shrinkage,
and transitional MCMC (staged likelihood tempering with resampling and
Metropolis moves) which additionally estimates the log-evidence of the
prior/likelihood pair. Both are deterministic given the configured seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np


class SamplerError(RuntimeError):
    """Raised when a sampler cannot make progress (bad initialization,
    step-out overrun, degenerate tempering weights)."""


def config_fingerprint(obj) -> str:
    """Stable sha256 hex digest of a dataclass or plain dict of settings."""
    if hasattr(obj, "__dataclass_fields__"):
        obj = asdict(obj)

    def default(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (np.integer, np.floating)):
            return v.item()
        return repr(v)

    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def subseed(seed: int, *tags: int) -> int:
    """Deterministic child seed for a tagged sub-task of a master seed."""
    ss = np.random.SeedSequence([int(seed), *[int(t) for t in tags]])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TargetSpec:
    """An unnormalized log-density over a box (possibly unbounded) support.

    ``log_target`` maps a point to a float; it must return -inf outside the
    support and never NaN.
    """

    dim: int
    log_target: Callable[[np.ndarray], float]
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    labels: tuple[str, ...] | None = None
    name: str = "target"

    def __post_init__(self):
        lower = np.full(self.dim, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        upper = np.full(self.dim, np.inf) if self.upper is None else np.asarray(self.upper, float)
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError("bounds must have shape (dim,)")
        if np.any(lower > upper):
            raise ValueError("lower bounds must not exceed upper bounds")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        labels = self.labels or tuple(f"x{j}" for j in range(self.dim))
        if len(labels) != self.dim:
            raise ValueError("labels length must equal dim")
        object.__setattr__(self, "labels", tuple(labels))


@dataclass(frozen=True)
class TemperedTarget:
    """Prior-sampler / log-likelihood pair consumed by :func:`tmcmc`.

    The prior log-density and the log-likelihood map a batch ``[n, dim]``
    to ``[n]``, so the sampler evaluates a whole particle population per
    call. -inf marks an impossible point, and a NaN log-likelihood rejects a
    proposal.
    """

    dim: int
    sample_prior: Callable[[np.random.Generator, int], np.ndarray]
    prior_logpdf: Callable[[np.ndarray], np.ndarray]
    log_likelihood: Callable[[np.ndarray], np.ndarray]
    labels: tuple[str, ...] | None = None
    name: str = "tempered"


# step-out and shrinkage tries per slice update, and the TMCMC proposal
# scale on the weighted particle covariance (Ching & Chen 2007's beta). The
# step-out budget only decides when a runaway expansion raises; log-flat
# directions (the error scale against a loose bound) can keep a low slice
# level alive for hundreds of whitened widths, and it covers that
_MAX_STEP_OUT = 5000
_MAX_SHRINK = 200
_TMCMC_PROPOSAL_SCALE = 0.2


@dataclass(frozen=True)
class SamplerConfig:
    """Settings shared by both samplers.

    ``slice_width`` is one initial slice width for every dimension; by
    default bounded dimensions use a tenth of their range and unbounded ones
    use 1.0. TMCMC runs ``n_samples`` particles per stage, picks each
    tempering step so the incremental weights' coefficient of variation is
    ``tmcmc_target_cov`` and makes ``tmcmc_moves`` Metropolis sweeps.
    """

    n_samples: int = 5000
    burn_in: float = 0.2
    thinning: int = 1
    seed: int = 0
    slice_width: float | None = None
    tmcmc_target_cov: float = 1.0
    tmcmc_moves: int = 3

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.burn_in < 1:
            raise ValueError("burn_in fraction must be in [0, 1)")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        # a zero or negative target takes 1e-12 tempering steps, NaN one step
        # to beta = 1, and a zero width never moves a slice chain
        if not (math.isfinite(self.tmcmc_target_cov) and self.tmcmc_target_cov > 0):
            raise ValueError("tmcmc_target_cov must be finite and > 0")
        if self.tmcmc_moves < 0:
            raise ValueError("tmcmc_moves must be >= 0")
        if self.slice_width is not None and not (
            math.isfinite(self.slice_width) and self.slice_width > 0
        ):
            raise ValueError("slice_width must be finite and > 0 when set")

    def replace(self, **kw) -> "SamplerConfig":
        data = asdict(self)
        data.update(kw)
        return SamplerConfig(**data)


@dataclass
class SampleSet:
    """Draws of a parameter vector, with labels and provenance.

    The sample matrix is frozen (read-only) on construction; rows must be
    finite. ``log_evidence`` is attached by TMCMC runs.
    """

    samples: np.ndarray
    labels: tuple[str, ...]
    provenance: dict = field(default_factory=dict)
    log_evidence: float | None = None
    log_evidence_se: float | None = None

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.samples, dtype=float))
        if mat.ndim != 2:
            raise ValueError("samples must be a 2-d matrix (n_draws x dim)")
        if not np.all(np.isfinite(mat)):
            raise ValueError("all sample rows must be finite")
        mat.setflags(write=False)
        self.samples = mat
        self.labels = tuple(self.labels)
        if len(self.labels) != mat.shape[1]:
            raise ValueError("labels length must equal sample dimension")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def column(self, label: str) -> np.ndarray:
        return self.samples[:, self.labels.index(label)]

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def sd(self) -> np.ndarray:
        return self.samples.std(axis=0, ddof=1)

    def cov(self) -> np.ndarray:
        return np.cov(self.samples, rowvar=False)

    def quantile(self, q) -> np.ndarray:
        return np.quantile(self.samples, q, axis=0)

    def thin(self, step: int) -> "SampleSet":
        return SampleSet(
            self.samples[::step].copy(),
            self.labels,
            dict(self.provenance, thinned_by=step),
            self.log_evidence,
            self.log_evidence_se,
        )

    def __reduce__(self):
        # rebuilt through the constructor, so a set sent back from a worker
        # process is validated and read-only like the one the worker built
        return (
            SampleSet,
            (self.samples, self.labels, self.provenance, self.log_evidence, self.log_evidence_se),
        )


def _resolve_widths(target: TargetSpec, config: SamplerConfig) -> np.ndarray:
    if config.slice_width is not None:
        w = np.full(target.dim, float(config.slice_width))
    else:
        span = target.upper - target.lower
        w = np.where(np.isfinite(span), span / 10.0, 1.0)
    if np.any(w < 0):
        raise ValueError("slice widths must be nonnegative")
    return w


def slice_sample(target: TargetSpec, init, config: SamplerConfig) -> SampleSet:
    """Coordinate-wise slice sampling with step-out and shrinkage.

    Returns ``config.n_samples`` post-burn-in (and post-thinning) draws.
    The initial point must have finite log-target. Dimensions whose lower
    and upper bounds coincide are pinned at that value. ``n_evals`` in the
    provenance counts the log-target calls, the initial point's included.
    """
    rng = np.random.default_rng(config.seed)
    x = np.array(init, dtype=float)
    if x.shape != (target.dim,):
        raise ValueError("init must have shape (dim,)")
    if np.any(x < target.lower) or np.any(x > target.upper):
        raise SamplerError("initial point outside the support box")
    lp = float(target.log_target(x))
    if not math.isfinite(lp):
        raise SamplerError("initial point has non-finite log-target")

    # plain floats: the coordinate loop reads them once per step
    widths = _resolve_widths(target, config).tolist()
    pinned = (target.lower == target.upper).tolist()
    lo, hi = target.lower.tolist(), target.upper.tolist()

    keep_every = config.thinning
    n_keep = config.n_samples
    n_iters = n_keep * keep_every
    n_burn = math.ceil(config.burn_in / (1.0 - config.burn_in) * n_iters)
    out = np.empty((n_keep, target.dim))
    kept = 0
    log_target = target.log_target
    n_evals = 1

    def f(d: int, v: float) -> float:
        """The log-target at x with coordinate d set to v."""
        nonlocal n_evals
        n_evals += 1
        xd = x[d]
        x[d] = v
        val = float(log_target(x))
        x[d] = xd
        return val

    for it in range(n_burn + n_iters):
        for d in range(target.dim):
            if pinned[d]:
                continue
            logy = lp - rng.exponential()
            u = rng.uniform()
            left = x[d] - widths[d] * u
            right = left + widths[d]
            left = max(left, lo[d])
            right = min(right, hi[d])

            steps = 0
            while left > lo[d] and f(d, left) > logy:
                left = max(left - widths[d], lo[d])
                steps += 1
                if steps > _MAX_STEP_OUT:
                    raise SamplerError(
                        f"slice step-out exceeded {_MAX_STEP_OUT} steps "
                        f"expanding left on dim {d} (width={widths[d]:g}, level={logy:g})"
                    )
            steps = 0
            while right < hi[d] and f(d, right) > logy:
                right = min(right + widths[d], hi[d])
                steps += 1
                if steps > _MAX_STEP_OUT:
                    raise SamplerError(
                        f"slice step-out exceeded {_MAX_STEP_OUT} steps "
                        f"expanding right on dim {d} (width={widths[d]:g}, level={logy:g})"
                    )

            for _ in range(_MAX_SHRINK):
                prop = rng.uniform(left, right)
                lp_prop = f(d, prop)
                if lp_prop > logy:
                    x[d] = prop
                    lp = lp_prop
                    break
                if prop < x[d]:
                    left = prop
                else:
                    right = prop
            else:
                raise SamplerError(
                    f"slice shrinkage failed after {_MAX_SHRINK} tries on dim {d}"
                )
        if it >= n_burn and (it - n_burn) % keep_every == keep_every - 1:
            out[kept] = x
            kept += 1

    provenance = {
        "sampler": "slice",
        "target": target.name,
        "seed": config.seed,
        "config_hash": config_fingerprint(config),
        "n_evals": n_evals,
    }
    return SampleSet(out, target.labels, provenance)


def _choose_dbeta(loglik: np.ndarray, beta: float, target_cov: float) -> float:
    """Largest tempering increment whose incremental-weight coefficient of
    variation does not exceed the target (bisection; full remaining step if
    even that stays below the target)."""
    remaining = 1.0 - beta
    centred = loglik - np.max(loglik[np.isfinite(loglik)])
    size = centred.size

    def cov(db: float) -> float:
        # the operations of ``w.std() / w.mean()``, with the mean summed once
        w = np.exp(db * centred)
        m = np.add.reduce(w) / size
        if m == 0:
            return math.inf
        dev = w - m
        np.square(dev, out=dev)
        return float(math.sqrt(np.add.reduce(dev) / size) / m)

    if cov(remaining) <= target_cov:
        return remaining
    lo_db, hi_db = 0.0, remaining
    for _ in range(80):
        mid = 0.5 * (lo_db + hi_db)
        # from a midpoint equal to an end on (lo_db, or hi_db over the
        # target) the remaining steps repeat themselves and keep lo_db
        if mid == lo_db:
            break
        if cov(mid) > target_cov:
            if mid == hi_db:
                break
            hi_db = mid
        else:
            lo_db = mid
    db = max(lo_db, remaining * 1e-12)
    return db


def _batched(fn: Callable, what: str) -> Callable[[np.ndarray], np.ndarray]:
    """The batch log-density ``fn`` with its result checked to be one
    float per row."""

    def batch(x: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(x), dtype=float)
        if out.shape != (x.shape[0],):
            raise SamplerError(f"{what} returned shape {out.shape} for {x.shape[0]} rows")
        return out

    return batch


def tmcmc(target: TemperedTarget, config: SamplerConfig) -> SampleSet:
    """Transitional MCMC over a staged tempering of likelihood^beta.

    Runs stages 0 = beta_0 < ... < beta_J = 1 with each increment chosen so
    the coefficient of variation of the incremental weights matches
    ``tmcmc_target_cov``. Each stage multinomially resamples particles by
    weight and applies ``tmcmc_moves`` Metropolis steps with a Gaussian
    proposal scaled from the weighted particle covariance. The log-evidence
    is the sum over stages of the log mean incremental weight; a rough
    standard error accumulates the per-stage weight variances.

    The prior draws, the resampled particles and each Metropolis sweep are
    evaluated as one batch; the likelihood only sees proposals with a
    finite prior. ``n_loglik_rows`` in the provenance counts the likelihood
    rows evaluated.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_samples
    dim = target.dim
    prior_logpdf = _batched(target.prior_logpdf, "prior log-density")
    log_likelihood = _batched(target.log_likelihood, "log-likelihood")

    particles = np.asarray(target.sample_prior(rng, n), dtype=float)
    if particles.shape != (n, dim):
        raise SamplerError(f"prior sampler returned shape {particles.shape}, wanted {(n, dim)}")
    loglik = log_likelihood(particles)
    n_loglik_rows = n
    if np.any(np.isnan(loglik)):
        raise SamplerError("log-likelihood returned NaN on a prior draw")
    if not np.any(np.isfinite(loglik)):
        raise SamplerError("tempering collapse: likelihood is -inf on every prior draw")

    beta = 0.0
    betas = [0.0]
    log_z = 0.0
    var_acc = 0.0

    while beta < 1.0:
        dbeta = _choose_dbeta(loglik, beta, config.tmcmc_target_cov)
        if dbeta <= 0:
            raise SamplerError("internal error: non-increasing tempering exponent")
        w_log = dbeta * loglik
        shift = np.max(w_log[np.isfinite(w_log)])
        w = np.exp(w_log - shift)
        mean_w = w.mean()
        log_z += shift + math.log(mean_w)
        weights = w / w.sum()
        ess = 1.0 / np.sum(weights**2)
        if ess < 2.0:
            raise SamplerError(
                f"tempering collapse: effective sample size {ess:.2f} < 2 at beta={beta:g}"
            )
        var_acc += float(np.var(w) / (n * mean_w**2))
        beta = 1.0 if 1.0 - (beta + dbeta) < 1e-12 else beta + dbeta
        betas.append(beta)

        mu = weights @ particles
        centered = particles - mu
        cov_w = (weights[:, None] * centered).T @ centered
        prop_cov = _TMCMC_PROPOSAL_SCALE**2 * cov_w
        prop_cov[np.diag_indices(dim)] += 1e-12
        chol = np.linalg.cholesky(prop_cov)

        idx = rng.choice(n, size=n, p=weights)
        particles = particles[idx].copy()
        loglik = loglik[idx].copy()
        log_prior = prior_logpdf(particles)

        for _ in range(config.tmcmc_moves):
            steps = rng.standard_normal((n, dim)) @ chol.T
            log_u = np.log(rng.uniform(size=n))
            props = particles + steps
            lp_prop = prior_logpdf(props)
            # NaN marks "not evaluated"; it fails the acceptance test below
            ll_prop = np.full(n, np.nan)
            live = np.flatnonzero(lp_prop != -np.inf)
            if live.size:
                ll_prop[live] = log_likelihood(props[live])
                n_loglik_rows += live.size
            with np.errstate(invalid="ignore"):
                log_alpha = (lp_prop + beta * ll_prop) - (log_prior + beta * loglik)
            accept = log_u < log_alpha
            particles[accept] = props[accept]
            loglik[accept] = ll_prop[accept]
            log_prior[accept] = lp_prop[accept]

    labels = target.labels or tuple(f"x{j}" for j in range(dim))
    provenance = {
        "sampler": "tmcmc",
        "target": target.name,
        "seed": config.seed,
        "config_hash": config_fingerprint(config),
        "beta_schedule": [float(b) for b in betas],
        "n_stages": len(betas) - 1,
        "n_loglik_rows": n_loglik_rows,
    }
    return SampleSet(
        particles,
        labels,
        provenance,
        log_evidence=float(log_z),
        log_evidence_se=float(math.sqrt(var_acc)),
    )
