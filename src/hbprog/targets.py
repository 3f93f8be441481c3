"""Log-density building blocks for the two-stage inference.

Contains the measurement likelihoods (lognormal for crack lengths, Gaussian
for capacities), the Gaussian population prior over dimensionless parameters
with a truncated-Gaussian block for the error scale, the uniform hyper-prior
box, and the two composite unnormalized log-targets: the hyper-posterior
given stage-1 sample sets and the current-unit posterior under the
hyper-sample mixture prior.

The population density has one kernel per sampling shape (stage-1 rows x hyper
vectors, one row x a fixed hyper set); the public densities are views of them.

All functions return -inf (never NaN) for out-of-support input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

LOG_TWO_PI = math.log(2.0 * math.pi)


def logsumexp(a) -> float:
    """Shift-stable log of the summed exponentials of a 1-d array.

    Kept local (rather than scipy's) because the samplers call it millions
    of times on short vectors and the array-API dispatch overhead dominates
    at that size. Satisfies logsumexp(x + c) = logsumexp(x) + c to float
    tolerance and maps all -inf input to -inf without NaN.
    """
    a = np.asarray(a, dtype=float)
    m = a.max() if a.size else -math.inf
    if not math.isfinite(m):
        return float(m)
    return float(m + math.log(np.exp(a - m).sum()))


def segment_logsumexp(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray | None = None
) -> np.ndarray:
    """logsumexp over contiguous segments along the last axis of an array.

    ``starts`` holds each segment's first index (starts[0] == 0). Segments
    whose entries are all -inf yield -inf. ``counts`` (segment lengths) may
    be passed to avoid recomputation in hot loops. A 2-d input is treated
    as one row of segments per leading index.
    """
    smax = np.maximum.reduceat(values, starts, axis=-1)
    finite = np.isfinite(smax)
    if counts is None:
        counts = np.diff(np.append(starts, values.shape[-1]))
    all_finite = np.count_nonzero(finite) == finite.size
    safe = smax if all_finite else np.where(finite, smax, 0.0)
    shifted = np.exp(values - np.repeat(safe, counts, axis=-1))
    sums = np.add.reduceat(shifted, starts, axis=-1)
    if all_finite:
        # every segment holds its maximum, so each sum is >= 1
        return np.log(sums) + smax
    with np.errstate(divide="ignore"):
        return np.where(finite, np.log(sums) + safe, smax)


def lognormal_loglik(y, pred, sigma):
    """Log-density of observed value(s) under the lognormal error model.

    The distribution is parameterized so its mean equals the model
    prediction: zeta^2 = ln(1 + (sigma/pred)^2), eta = ln(pred) - zeta^2 / 2.
    ``y`` and ``pred`` broadcast; summing over a series gives the dataset
    log-likelihood under independence across cycles.
    """
    y = np.asarray(y, dtype=float)
    pred_arr = np.asarray(pred, dtype=float)
    if np.any(y <= 0):
        raise ValueError("lognormal likelihood requires observed values > 0")
    if np.any(pred_arr <= 0):
        raise ValueError("lognormal likelihood requires predictions > 0")
    if not sigma > 0:
        raise ValueError("error scale sigma must be > 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta2 = np.log1p((sigma / pred_arr) ** 2)
        eta = np.log(pred_arr) - 0.5 * zeta2
        out = (
            -np.log(y)
            - 0.5 * LOG_TWO_PI
            - 0.5 * np.log(zeta2)
            - (np.log(y) - eta) ** 2 / (2.0 * zeta2)
        )
    out = np.where(np.isnan(out), -np.inf, out)
    return float(out) if np.ndim(out) == 0 else out


def gaussian_loglik(y, pred, sigma):
    """Log-density of observed value(s) under additive Gaussian error."""
    if not sigma > 0:
        raise ValueError("error scale sigma must be > 0")
    y = np.asarray(y, dtype=float)
    pred_arr = np.asarray(pred, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -0.5 * (LOG_TWO_PI + 2.0 * math.log(sigma)) - (y - pred_arr) ** 2 / (
            2.0 * sigma**2
        )
    out = np.where(np.isnan(out), -np.inf, out)
    return float(out) if np.ndim(out) == 0 else out


def trunc_normal_logpdf(x, mu, sd, lo, hi):
    """Log-density of a Gaussian(mu, sd) truncated to (lo, hi), including the
    normalization constant."""
    if not sd > 0:
        raise ValueError("truncated normal requires sd > 0")
    x = np.asarray(x, dtype=float)
    z = ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
    if not z > 0:
        return np.full(x.shape, -np.inf) if x.ndim else -math.inf
    core = -0.5 * LOG_TWO_PI - math.log(sd) - (x - mu) ** 2 / (2.0 * sd**2) - math.log(z)
    out = np.where((x > lo) & (x < hi), core, -np.inf)
    return float(out) if np.ndim(out) == 0 else out


def trunc_normal_ppf(q, mu, sd, lo, hi):
    """Quantile function of the truncated Gaussian; used for ancestral draws."""
    a = ndtr((lo - mu) / sd)
    b = ndtr((hi - mu) / sd)
    return mu + sd * ndtri(a + np.asarray(q, dtype=float) * (b - a))


@dataclass(frozen=True)
class ParameterVector:
    """One unit's parameters: dimensionless model parameters plus the
    prediction-error scale in measurement units (mm or Ahr)."""

    theta: np.ndarray
    sigma: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1:
            raise ValueError("theta must be one-dimensional")
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")

    @property
    def dim(self) -> int:
        return self.theta.size + 1

    def as_row(self) -> np.ndarray:
        return np.concatenate([self.theta, [self.sigma]])


@dataclass(frozen=True)
class HyperParameters:
    """Population distribution parameters: Gaussian mean/sd per model
    parameter, optional correlation between the first two components, and a
    (mu, sd) pair for the error scale whose Gaussian is truncated to
    (0, sigma_trunc)."""

    mu0: np.ndarray
    sd0: np.ndarray
    mu_sigma: float
    sd_sigma: float
    rho: float | None = None
    sigma_trunc: float = 0.2

    def __post_init__(self):
        mu0 = np.asarray(self.mu0, dtype=float)
        sd0 = np.asarray(self.sd0, dtype=float)
        for arr in (mu0, sd0):
            arr.setflags(write=False)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "sd0", sd0)
        if mu0.shape != sd0.shape or mu0.ndim != 1:
            raise ValueError("mu0 and sd0 must be 1-d arrays of equal length")
        if np.any(sd0 <= 0):
            raise ValueError("population standard deviations must be > 0")
        if self.rho is not None:
            if mu0.size != 2:
                raise ValueError("a correlation coefficient requires exactly 2 components")
            if not abs(self.rho) < 1:
                raise ValueError("|rho| must be < 1 for a positive-definite covariance")
        if self.mu_sigma < 0:
            raise ValueError("mu_sigma must be >= 0")
        if not self.sd_sigma > 0:
            raise ValueError("sd_sigma must be > 0")
        if not self.sigma_trunc > 0:
            raise ValueError("sigma_trunc must be > 0")

    @property
    def n_theta(self) -> int:
        return self.mu0.size

    @property
    def correlated(self) -> bool:
        return self.rho is not None

    def to_vector(self) -> np.ndarray:
        vec = np.concatenate([self.mu0, [self.mu_sigma], self.sd0, [self.sd_sigma]])
        if self.correlated:
            vec = np.concatenate([vec, [self.rho]])
        return vec

    @staticmethod
    def labels(n_theta: int, correlated: bool) -> tuple[str, ...]:
        names = [f"mu_theta{j + 1}" for j in range(n_theta)]
        names.append("mu_sigma")
        names += [f"sd_theta{j + 1}" for j in range(n_theta)]
        names.append("sd_sigma")
        if correlated:
            names.append("rho")
        return tuple(names)

    @classmethod
    def from_vector(
        cls, vec, n_theta: int, correlated: bool, sigma_trunc: float
    ) -> "HyperParameters":
        vec = np.asarray(vec, dtype=float)
        expected = 2 * n_theta + 2 + (1 if correlated else 0)
        if vec.size != expected:
            raise ValueError(f"hyper vector must have length {expected}, got {vec.size}")
        return cls(
            mu0=vec[:n_theta],
            sd0=vec[n_theta + 1 : 2 * n_theta + 1],
            mu_sigma=float(vec[n_theta]),
            sd_sigma=float(vec[2 * n_theta + 1]),
            rho=float(vec[-1]) if correlated else None,
            sigma_trunc=sigma_trunc,
        )


@dataclass(frozen=True)
class HyperPriorBounds:
    """Independent uniform bounds per hyperparameter, in the vector order
    (mu_theta..., mu_sigma, sd_theta..., sd_sigma[, rho])."""

    mu_theta: tuple[tuple[float, float], ...]
    sd_theta: tuple[tuple[float, float], ...]
    mu_sigma: tuple[float, float]
    sd_sigma: tuple[float, float]
    rho: tuple[float, float] | None = None

    def __post_init__(self):
        if len(self.mu_theta) != len(self.sd_theta):
            raise ValueError("mu_theta and sd_theta must have equal length")
        for lo, hi in (*self.mu_theta, *self.sd_theta, self.mu_sigma, self.sd_sigma) + (
            (self.rho,) if self.rho is not None else ()
        ):
            if not lo < hi:
                raise ValueError("each bound must satisfy lower < upper")

    @property
    def n_theta(self) -> int:
        return len(self.mu_theta)

    def pairs(self, correlated: bool) -> list[tuple[float, float]]:
        out = list(self.mu_theta) + [self.mu_sigma] + list(self.sd_theta) + [self.sd_sigma]
        if correlated:
            if self.rho is None:
                raise ValueError("correlated case requires rho bounds")
            out.append(self.rho)
        return out

    def lower(self, correlated: bool) -> np.ndarray:
        return np.array([p[0] for p in self.pairs(correlated)])

    def upper(self, correlated: bool) -> np.ndarray:
        return np.array([p[1] for p in self.pairs(correlated)])

    def contains(self, vec: np.ndarray, correlated: bool) -> bool:
        vec = np.asarray(vec, dtype=float)
        return bool(
            np.all(vec >= self.lower(correlated)) and np.all(vec <= self.upper(correlated))
        )

    def log_prior_const(self, correlated: bool) -> float:
        widths = self.upper(correlated) - self.lower(correlated)
        return float(-np.sum(np.log(widths)))

    @classmethod
    def crack_default(cls, correlated: bool = False) -> "HyperPriorBounds":
        """Default box for the two-parameter crack family."""
        return cls(
            mu_theta=((0.8, 1.4), (0.9, 1.4)),
            sd_theta=((0.0, 0.3), (0.0, 0.1)),
            mu_sigma=(0.0, 0.4),
            sd_sigma=(0.0, 0.2),
            rho=(-1.0, 1.0) if correlated else None,
        )

    @classmethod
    def battery_default(cls, n_theta: int) -> "HyperPriorBounds":
        """Default box for battery families: means on (0, 1.8), population
        spreads on (0, 0.4); error-scale block mirrors those ranges."""
        return cls(
            mu_theta=tuple((0.0, 1.8) for _ in range(n_theta)),
            sd_theta=tuple((0.0, 0.4) for _ in range(n_theta)),
            mu_sigma=(0.0, 0.4),
            sd_sigma=(0.0, 0.2),
        )


#: cap on stacked stage-1 rows x hyper vectors evaluated at once by the
#: stage-2 target, which bounds its scratch memory
STAGE2_CHUNK_ROWS = 4096


def _stage2_target_batch(stage1: Sequence, bounds, correlated, sigma_trunc):
    """Log-likelihood of hyper vectors given stacked stage-1 samples.

    Maps hyper vectors ``[p, d]`` to log-likelihoods ``[p]``. ``stage1``
    holds sample sets or plain ``[n, k + 1]`` matrices. All datasets' rows
    are stacked into one matrix; blocks of hyper vectors are evaluated
    against all of it at once, at most ``STAGE2_CHUNK_ROWS`` stacked rows x
    vectors per block. Stage-1 sigma draws outside the truncation range
    contribute -inf rows regardless of the hyper vector, so that mask is
    precomputed once.
    """
    mats = [np.asarray(getattr(ss, "samples", ss), dtype=float) for ss in stage1]
    dims = {m.shape[1] for m in mats}
    if len(dims) != 1:
        raise ValueError("stage-1 sample sets have mismatched dimensions")
    n_theta = dims.pop() - 1
    if bounds.n_theta != n_theta:
        raise ValueError("hyper-prior bounds do not match the stage-1 parameter dimension")
    if correlated and n_theta != 2:
        raise ValueError("the correlated case is only defined for 2-parameter families")
    stacked = np.vstack(mats)
    counts = np.array([m.shape[0] for m in mats])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    log_counts = np.log(counts.astype(float))
    sigma_col = stacked[:, -1]
    sigma_ok = (sigma_col > 0.0) & (sigma_col < sigma_trunc)
    # added to every row: -inf on draws outside the truncation range
    sigma_mask = None if sigma_ok.all() else np.where(sigma_ok, 0.0, -np.inf)
    base_const = -0.5 * (n_theta + 1) * math.log(2.0 * math.pi)
    block = max(1, STAGE2_CHUNK_ROWS // stacked.shape[0])
    # components on the leading axis keep numpy's inner loops over the long
    # row axis
    stacked_t = np.ascontiguousarray(stacked.T)

    def loglik(vecs: np.ndarray) -> np.ndarray:
        vecs = np.asarray(vecs, dtype=float)
        mu = vecs[:, : n_theta + 1]
        sd = vecs[:, n_theta + 1 : 2 * n_theta + 2]
        mu_s, sd_s = mu[:, -1], sd[:, -1]
        out = np.empty(vecs.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            z_trunc = ndtr((sigma_trunc - mu_s) / sd_s) - ndtr(-mu_s / sd_s)
            # vectors with sd <= 0, |rho| >= 1 or no truncation mass get
            # -inf. A call with no valid vector stops here; otherwise all
            # are evaluated, so no vector's value depends on which others
            # share its call
            ok = (sd > 0).all(axis=1) & (z_trunc > 0)
            if correlated:
                rho = vecs[:, -1]
                ok &= np.abs(rho) < 1
            n_ok = np.count_nonzero(ok)  # cheaper than ok.any() on a few vectors
            if not n_ok:
                out.fill(-np.inf)
                return out
            offset = base_const - np.log(sd).sum(axis=1) - np.log(z_trunc)
            if correlated:
                one_m_rho2 = 1.0 - rho**2
                offset -= 0.5 * np.log(one_m_rho2)
            for lo in range(0, vecs.shape[0], block):
                b = slice(lo, lo + block)
                # in-place steps keep the block's scratch at one [block, d, rows] array
                z = stacked_t - mu[b, :, None]
                z /= sd[b, :, None]
                if correlated:
                    r = rho[b, None]
                    quad = (
                        z[:, 0] ** 2 - 2.0 * r * z[:, 0] * z[:, 1] + z[:, 1] ** 2
                    ) / one_m_rho2[b, None] + z[:, 2] ** 2
                else:
                    quad = np.square(z, out=z).sum(axis=1)
                del z  # release the scratch before the segment sums allocate theirs
                rows = offset[b, None] - 0.5 * quad
                if sigma_mask is not None:
                    rows += sigma_mask
                out[b] = (segment_logsumexp(rows, starts, counts) - log_counts).sum(axis=1)
        if n_ok < ok.size:
            out[~ok] = -np.inf
        return out

    return loglik, n_theta


def _stage2_target(stage1: Sequence, bounds, correlated, sigma_trunc):
    """:func:`_stage2_target_batch` for one hyper vector ``[d] -> float``,
    the form the slice sampler calls."""
    batch, n_theta = _stage2_target_batch(stage1, bounds, correlated, sigma_trunc)
    return (lambda vec: float(batch(vec[None])[0])), n_theta


class HyperRowError(ValueError):
    """A hyper sample outside the population family: an sd not > 0, no sigma
    mass in (0, sigma_trunc) or |rho| >= 1. Stage 2 never draws one."""


def _mixture_kernel(hyper_mat: np.ndarray, n_theta: int, correlated: bool, sigma_trunc: float):
    """Precompiled mixture-prior log-density over fixed hyper samples.

    Everything that does not depend on the evaluated parameter vector (sd
    logs, truncation constants, reciprocal scales) is computed once, at
    build time, which also raises :class:`HyperRowError` for the first bad
    row. The returned closure maps a ``(theta..., sigma)`` row, sigma
    unchecked, to ``logsumexp_s hier(row | psi_s) - log N_s`` in a few
    array passes.
    """
    mu = hyper_mat[:, :n_theta]
    sd = hyper_mat[:, n_theta + 1 : 2 * n_theta + 1]
    mu_s = hyper_mat[:, n_theta]
    sd_s = hyper_mat[:, 2 * n_theta + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sd = 1.0 / sd
        inv_sd_s = 1.0 / sd_s
        zden = ndtr((sigma_trunc - mu_s) * inv_sd_s) - ndtr(-mu_s * inv_sd_s)
    ok = (sd > 0).all(axis=1) & (sd_s > 0) & (zden > 0)
    if correlated:
        rho = hyper_mat[:, -1]
        ok &= np.abs(rho) < 1
    if not ok.all():
        i = int(np.argmin(ok))
        raise HyperRowError(
            f"hyper sample {i} (0-based) {hyper_mat[i].tolist()} needs every sd > 0, "
            f"sigma mass in (0, {sigma_trunc:g}) and |rho| < 1"
        )
    const = (
        -0.5 * (n_theta + 1) * math.log(2.0 * math.pi)
        - np.log(sd).sum(axis=1)
        - np.log(sd_s)
        - np.log(zden)
    )
    if correlated:
        const = const - 0.5 * np.log1p(-(rho**2))
        inv_one_m_rho2 = 1.0 / (1.0 - rho**2)
    log_ns = math.log(hyper_mat.shape[0])

    def logpdf(x: np.ndarray) -> float:
        z = (x[:n_theta] - mu) * inv_sd
        if correlated:
            quad = (z[:, 0] ** 2 - 2.0 * rho * z[:, 0] * z[:, 1] + z[:, 1] ** 2) * inv_one_m_rho2
        else:
            quad = (z * z).sum(axis=1)
        zs = (x[n_theta] - mu_s) * inv_sd_s
        rows = const - 0.5 * (quad + zs * zs)
        return logsumexp(rows) - log_ns

    return logpdf


def _mixture_view(pv: ParameterVector, hyper_mat, n_theta, correlated, sigma_trunc) -> float:
    """:func:`_mixture_kernel` at one parameter vector: -inf for sigma
    outside (0, sigma_trunc), and for a point where the density is NaN."""
    mixture = _mixture_kernel(hyper_mat, n_theta, correlated, sigma_trunc)
    if not 0.0 < pv.sigma < sigma_trunc:
        return -math.inf
    value = mixture(pv.as_row())
    return -math.inf if math.isnan(value) else value


def hier_prior_logpdf(pv: ParameterVector, psi: HyperParameters) -> float:
    """Log-density of one unit's parameters under the population
    distribution: Gaussian over the dimensionless parameters plus the
    truncated-Gaussian error-scale block. Returns -inf when sigma falls
    outside (0, sigma_trunc); a psi with no sigma mass there raises
    :class:`HyperRowError`."""
    if pv.theta.size != psi.n_theta:
        raise ValueError("parameter/hyperparameter dimension mismatch")
    return _mixture_view(pv, psi.to_vector()[None], psi.n_theta, psi.correlated, psi.sigma_trunc)


def hyper_posterior_logtarget(psi: HyperParameters, stage1, bounds: HyperPriorBounds) -> float:
    """Unnormalized log-posterior of the hyperparameters given stage-1
    sample sets (one per historical dataset).

    Equals ``log p(psi) + sum_i [logsumexp_k hier(row_ik | psi) - log n_i]``
    with the uniform hyper-prior box ``bounds``; -inf outside the box.
    """
    mats = [np.asarray(getattr(ss, "samples", ss), dtype=float) for ss in stage1]
    if not mats:
        raise ValueError("at least one stage-1 sample set is required")
    for mat in mats:
        if mat.ndim != 2 or mat.shape[0] == 0:
            raise ValueError("each stage-1 sample set must be a nonempty matrix")
        if mat.shape[1] != psi.n_theta + 1:
            raise ValueError("stage-1 sample dimension does not match hyperparameters")
    vec = psi.to_vector()
    if not bounds.contains(vec, psi.correlated):
        return -math.inf
    loglik, _ = _stage2_target(mats, bounds, psi.correlated, psi.sigma_trunc)
    return bounds.log_prior_const(psi.correlated) + loglik(vec)


def _decode_hyper_meta(hyper_samples) -> tuple[int, bool, float]:
    prov = getattr(hyper_samples, "provenance", None) or {}
    try:
        return int(prov["n_theta"]), bool(prov["correlated"]), float(prov["sigma_trunc"])
    except KeyError as exc:
        raise ValueError(f"hyper sample set lacks population metadata {exc} in its provenance") from exc


def mixture_prior_logpdf(pv: ParameterVector, hyper_samples) -> float:
    """Log-density of the hyper-averaged prior for a new unit: an
    equal-weight mixture of population Gaussians over the hyper samples,
    ``logsumexp_s hier(pv | psi_s) - log N_s``. A hyper sample the density
    is not defined for raises :class:`HyperRowError`."""
    mat = np.asarray(hyper_samples.samples, dtype=float)
    if mat.shape[0] == 0:
        raise ValueError("hyper sample set must be nonempty")
    n_theta, correlated, sigma_trunc = _decode_hyper_meta(hyper_samples)
    if pv.theta.size != n_theta:
        raise ValueError("parameter/hyper-sample dimension mismatch")
    return _mixture_view(pv, mat, n_theta, correlated, sigma_trunc)


def dataset_loglik(model, dataset, theta: np.ndarray, sigma: float) -> float:
    """Dataset log-likelihood: sum of per-point log-densities of the model
    curve under the family's error model. Returns -inf when the curve is
    undefined at an observed cycle (e.g. the crack diverged) or sigma is out
    of range.

    This sits in every sampler's innermost loop, so the per-point densities
    are inlined rather than routed through the validating public functions,
    and the curve is not scanned for bad values: a non-finite or (lognormal)
    non-positive prediction makes the summed total NaN or -inf, which is
    returned as -inf. ``log y`` and the data-only constant come from the
    :class:`~hbprog.hierarchy.Dataset`.
    """
    if not (sigma > 0 and math.isfinite(sigma)):
        return -math.inf
    preds = model.predict(theta, dataset.cycles_float)
    if model.likelihood == "lognormal":
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            zeta2 = np.log1p((sigma / preds) ** 2)
            dev = dataset.log_values - np.log(preds) + 0.5 * zeta2
            total = float(
                dataset.lognormal_const
                - 0.5 * np.log(zeta2).sum()
                - (dev**2 / (2.0 * zeta2)).sum()
            )
    elif model.likelihood == "gaussian":
        try:
            two_var = 2.0 * sigma**2
        except OverflowError:
            # sigma above ~1.3e154: the variance is +inf, as in the batch
            # form. (sigma * sigma would not raise, but it differs from
            # libm's pow in the last bit for about 1 sigma in 1,250.)
            two_var = math.inf
        if two_var == 0.0:
            # sigma**2 underflowed: the total would be -inf, or NaN on a
            # perfect fit, and numpy would warn of a division by zero
            return -math.inf
        r = dataset.values - preds
        total = float(-0.5 * r.size * (LOG_TWO_PI + 2.0 * math.log(sigma)) - (r @ r) / two_var)
    else:
        raise ValueError(f"unknown likelihood family {model.likelihood!r}")
    return total if not math.isnan(total) else -math.inf


def dataset_loglik_batch(model, dataset, theta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """:func:`dataset_loglik` for every row of ``theta`` ([n, k]) with its
    error scale ``sigma`` ([n]), through one ``model.predict_batch`` call.

    Rows whose curve is non-finite (or, for the lognormal family,
    non-positive) at an observed cycle, or whose sigma is out of range, get
    -inf. Each row equals the scalar function up to rounding.
    """
    theta = np.asarray(theta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = np.full(sigma.shape, -np.inf)
    good = np.flatnonzero((sigma > 0) & np.isfinite(sigma))
    if not good.size:
        return out
    preds = model.predict_batch(theta[good], dataset.cycles_float)
    ok = np.isfinite(preds).all(axis=1)
    if model.likelihood == "lognormal":
        ok &= (preds > 0).all(axis=1)
    elif model.likelihood != "gaussian":
        raise ValueError(f"unknown likelihood family {model.likelihood!r}")
    rows = good
    if not ok.all():
        rows, preds = good[ok], preds[ok]
    sig = sigma[rows]
    if model.likelihood == "lognormal":
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            zeta2 = np.log1p((sig[:, None] / preds) ** 2)
            dev = dataset.log_values - np.log(preds) + 0.5 * zeta2
            total = (
                dataset.lognormal_const
                - 0.5 * np.log(zeta2).sum(axis=1)
                - (dev**2 / (2.0 * zeta2)).sum(axis=1)
            )
    else:
        # residuals overwrite the scratch curves
        r = np.subtract(dataset.values, preds, out=preds)
        rr = np.einsum("ij,ij->i", r, r)
        # a sigma whose square underflows divides by zero: -inf, or NaN on a
        # perfect fit, which is set to -inf below
        with np.errstate(divide="ignore", invalid="ignore"):
            total = -0.5 * r.shape[1] * (LOG_TWO_PI + 2.0 * np.log(sig)) - rr / (2.0 * sig**2)
    out[rows] = np.where(np.isnan(total), -np.inf, total)
    return out


def current_posterior_logtarget(
    pv: ParameterVector, current, hyper_samples, model
) -> float:
    """Unnormalized log-posterior of the current unit's parameters: data
    log-likelihood plus the mixture-prior log-density. ``current`` may be
    None or empty, in which case the target reduces to the mixture prior
    (prior-predictive mode)."""
    prior = mixture_prior_logpdf(pv, hyper_samples)
    if prior == -math.inf:
        return -math.inf
    if current is None or len(current.cycles) == 0:
        return prior
    return dataset_loglik(model, current, pv.theta, pv.sigma) + prior
