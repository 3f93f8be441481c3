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

The standard normal CDF and quantile (:func:`ndtr`, :func:`ndtri`) are
Cephes' and return scipy's bytes, so no scipy module is loaded here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hbprog.models import FLOAT_ERRORS_IGNORED, ignore_float_errors

LOG_TWO_PI = math.log(2.0 * math.pi)


# The standard normal CDF and quantile: Moshier's Cephes rational
# approximations (Methods and Programs for Mathematical Functions, 1989,
# after Cody 1969, Math. Comp. 23:631), as scipy's ndtr and ndtri evaluate
# them. Both keep Cephes' coefficient tables, branch limits and Horner
# order, with every * and + rounded on its own, so they return scipy's
# bytes (tests/test_normal.py checks them against it). exp and log are
# libm's, per element through ``math``: numpy's SIMD ``np.exp`` and ``np.log``
# differ from libm in the last bit for some arguments.

_SQRT1_2 = 0.70710678118654752440
#: log(DBL_MAX): exp(-z^2) of a larger z^2 underflows
_MAXLOG = 7.09782712893383996732e2

# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8, exp(-x^2) R(x) / S(x) from
# 8. Every denominator table (Q, S, U and ndtri's) leaves out its leading
# coefficient, 1 (Cephes' p1evl)
_NDTR_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_NDTR_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_NDTR_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_NDTR_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) on |x| < 1
_NDTR_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_NDTR_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)

_S2PI = 2.50662827463100050242e0
#: exp(-2): ndtri's central interval is (exp(-2), 1 - exp(-2))
_EXPM2 = 0.13533528323661269189

# ndtri: y + y w P0(w) / Q0(w), w = (y - 1/2)^2, on the central interval
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# the tails, in r = 1 / sqrt(-2 log y): P1 / Q1 for sqrt(-2 log y) < 8,
# P2 / Q2 from 8
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes' ``polevl``: the polynomial with coefficients ``coef``
    (highest power first) at ``x``, by Horner's rule."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes' ``p1evl``: :func:`_polevl` with an implied leading
    coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (``math.exp``, ``math.log``) applied to each element of a 1-d
    array."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _ndtr_float(a: float) -> float:
    """:func:`ndtr` of one Python float, with the Horner steps written out:
    a few hundred nanoseconds, where the array form costs tens of
    microseconds at this size."""
    x = a * _SQRT1_2
    z = -x if x < 0.0 else x
    if z < 1.0:
        t0, t1, t2, t3, t4 = _NDTR_T
        u0, u1, u2, u3, u4 = _NDTR_U
        w = x * x
        erf = (
            x
            * ((((t0 * w + t1) * w + t2) * w + t3) * w + t4)
            / (((((w + u0) * w + u1) * w + u2) * w + u3) * w + u4)
        )
        if z < _SQRT1_2:
            return 0.5 + 0.5 * erf
        # erfc(z) = 1 - erf(z), and erf(z) = |erf(x)|
        y = 0.5 * (1.0 - (-erf if erf < 0.0 else erf))
    else:
        w = z * z
        if w <= _MAXLOG:
            if z < 8.0:
                p0, p1, p2, p3, p4, p5, p6, p7, p8 = _NDTR_P
                q0, q1, q2, q3, q4, q5, q6, q7 = _NDTR_Q
                p = (((((((p0 * z + p1) * z + p2) * z + p3) * z + p4) * z + p5) * z + p6) * z + p7) * z + p8
                q = (((((((z + q0) * z + q1) * z + q2) * z + q3) * z + q4) * z + q5) * z + q6) * z + q7
            else:
                r0, r1, r2, r3, r4, r5 = _NDTR_R
                s0, s1, s2, s3, s4, s5 = _NDTR_S
                p = ((((r0 * z + r1) * z + r2) * z + r3) * z + r4) * z + r5
                q = (((((z + s0) * z + s1) * z + s2) * z + s3) * z + s4) * z + s5
            y = 0.5 * (math.exp(-w) * p / q)
        elif z != z:
            return math.nan
        else:
            y = 0.0
    return 1.0 - y if x > 0.0 else y


def _ndtr_array(a: np.ndarray) -> np.ndarray:
    """:func:`ndtr` of a 1-d array, evaluating only the branches present."""
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.zeros(x.shape)  # 0.5 erfc(|x|); stays 0 where exp(-x^2) underflows
    low = np.flatnonzero(z < 1.0)
    if low.size:
        v = x[low]
        w = v * v
        erf = v * _polevl(w, _NDTR_T) / _p1evl(w, _NDTR_U)
        # erfc(|x|) = 1 - erf(|x|), and erf(|x|) = |erf(x)|
        y[low] = 0.5 * (1.0 - np.abs(erf))
    # |x| >= 64 underflows for certain, and leaving it out keeps x^2 finite
    for lo, hi, p, q in ((1.0, 8.0, _NDTR_P, _NDTR_Q), (8.0, 64.0, _NDTR_R, _NDTR_S)):
        tail = np.flatnonzero((z >= lo) & (z < hi))
        if tail.size:
            v = z[tail]
            w = v * v
            keep = w <= _MAXLOG
            if not keep.all():
                tail, v, w = tail[keep], v[keep], w[keep]
            y[tail] = 0.5 * (_libm(math.exp, -w) * _polevl(v, p) / _p1evl(v, q))
    out = np.where(x > 0, 1.0 - y, y)
    if low.size:
        near = z[low] < _SQRT1_2
        out[low[near]] = 0.5 + 0.5 * erf[near]
    nan = np.isnan(z)
    if nan.any():
        out[nan] = np.nan
    return out


def ndtr(a):
    """Standard normal CDF, with the bytes of scipy's ``ndtr``.

    A Python float gives a float; an array gives an array of its shape
    (a numpy scalar for 0-d input). NaN gives NaN, -inf 0 and +inf 1.
    """
    if isinstance(a, float):
        return _ndtr_float(float(a))
    a = np.asarray(a, dtype=float)
    return _ndtr_array(a.reshape(-1)).reshape(a.shape)[()]


def ndtri(y0):
    """Standard normal quantile, the inverse of :func:`ndtr`, with the bytes
    of scipy's ``ndtri`` (a NaN's payload aside).

    Maps 0 to -inf and 1 to +inf; input outside [0, 1], or NaN, gives NaN.
    Returns an array of the input's shape (a numpy scalar for 0-d input).
    """
    y0 = np.asarray(y0, dtype=float)
    shape = y0.shape
    y0 = y0.reshape(-1)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    inside = (y0 > 0.0) & (y0 < 1.0)
    # the upper tail is reflected onto the lower one and keeps its sign
    upper = y0 > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - y0, y0)
    central = inside & (y > _EXPM2)
    if central.any():
        # as in Cephes, the sign is not flipped here, reflected or not
        v = y[central] - 0.5
        w = v * v
        out[central] = (v + v * (w * _polevl(w, _NDTRI_P0) / _p1evl(w, _NDTRI_Q0))) * _S2PI
    tail = np.flatnonzero(inside & ~central)
    if tail.size:
        s = np.sqrt(-2.0 * _libm(math.log, y[tail]))
        x0 = s - _libm(math.log, s) / s
        r = 1.0 / s
        near = s < 8.0
        x1 = np.empty(s.shape)
        for sel, p, q in ((near, _NDTRI_P1, _NDTRI_Q1), (~near, _NDTRI_P2, _NDTRI_Q2)):
            if sel.any():
                u = r[sel]
                x1[sel] = u * _polevl(u, p) / _p1evl(u, q)
        x = x0 - x1
        out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(shape)[()]

def logsumexp(a) -> float:
    """Shift-stable log of the summed exponentials of a 1-d array.

    Kept local (rather than scipy's) because the samplers call it millions
    of times on short vectors and the array-API dispatch overhead dominates
    at that size. Satisfies logsumexp(x + c) = logsumexp(x) + c to float
    tolerance and maps all -inf input to -inf without NaN.
    """
    a = np.asarray(a, dtype=float)
    m = np.maximum.reduce(a) if a.size else -math.inf
    if not math.isfinite(m):
        return float(m)
    return float(m + math.log(np.add.reduce(np.exp(a - m))))


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
    # an all -inf segment sums to 0, whose log divides by zero
    if FLOAT_ERRORS_IGNORED.get():
        return np.where(finite, np.log(sums) + safe, smax)
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
    normalization constant.

    A mean below ``lo`` takes the mass in the upper-tail form
    Phi(-alpha) - Phi(-beta): far below, Phi(beta) - Phi(alpha) is 1 - 1.
    """
    if not sd > 0:
        raise ValueError("truncated normal requires sd > 0")
    x = np.asarray(x, dtype=float)
    if mu < lo:
        z = ndtr((mu - lo) / sd) - ndtr((mu - hi) / sd)
    else:
        z = ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
    if not z > 0:
        return np.full(x.shape, -np.inf) if x.ndim else -math.inf
    core = -0.5 * LOG_TWO_PI - math.log(sd) - (x - mu) ** 2 / (2.0 * sd**2) - math.log(z)
    out = np.where((x > lo) & (x < hi), core, -np.inf)
    return float(out) if np.ndim(out) == 0 else out


def trunc_normal_ppf(q, mu, sd, lo, hi):
    """Quantile function of the truncated Gaussian; used for ancestral draws.

    ``q``, ``mu`` and ``sd`` broadcast. An element whose mean is below
    ``lo`` is drawn in the upper tail, x = mu - sd Phi^-1(Phi(-alpha) -
    q (Phi(-alpha) - Phi(-beta))), as :func:`trunc_normal_logpdf` takes
    its mass.
    """
    q = np.asarray(q, dtype=float)
    a = ndtr((lo - mu) / sd)
    b = ndtr((hi - mu) / sd)
    x = mu + sd * ndtri(a + q * (b - a))
    below = np.asarray(mu < lo)
    if below.any():
        sa = ndtr((mu - lo) / sd)
        sb = ndtr((mu - hi) / sd)
        x = np.where(below, mu - sd * ndtri(sa - q * (sa - sb)), x)[()]
    return x


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
#: stage-2 target, which bounds its scratch memory (about 0.7 MB for five
#: components). On battery-select's model-select, stage 2 took 0.121 s per
#: input set at 4096, 0.108 at 8192, 0.104 at 16384 and 32768, and 0.115
#: at 65536 (2 vCPU, one BLAS thread).
STAGE2_CHUNK_ROWS = 16384

#: a population sd below this takes the stage-2 row pass's overflow guard.
#: Above it, z = (x - mu) / sd stays under 1e145 for |x - mu| < 1e5, far
#: beyond any stage-1 draw's distance from a hyper mean, so no square or
#: quadratic form overflows; below it z can reach +inf.
_TINY_SD = 1e-140


def _stage2_rows(stage1: Sequence, bounds, correlated, sigma_trunc):
    """The stage-2 row pass over stacked stage-1 samples, shared by the
    batch and one-vector forms of the target.

    ``stage1`` holds sample sets or plain ``[n, k + 1]`` matrices. All
    datasets' rows are stacked into one matrix, once. Stage-1 sigma draws
    outside the truncation range contribute -inf rows regardless of the
    hyper vector, so that mask is precomputed too.

    Returns ``(row_pass, n_theta, base_const, n_rows)``. ``row_pass(mu, sd,
    rho, offset, tiny=False)`` maps a block of b hyper vectors to their
    pooled log-likelihoods ``[b]``: ``mu`` and ``sd`` are ``[b, n_theta + 1]``,
    ``rho`` is a ``[b, 1]`` column (None in the diagonal case) and
    ``offset``, the per-vector log normalising constant, is a ``[b, 1]``
    column or a float. Every vector must be valid (sd > 0, sigma mass
    > 0, |rho| < 1); the callers screen the others out. ``tiny`` says
    that a vector in the block has an sd below ``_TINY_SD``, so its z may
    overflow, and the caller ignores that overflow. An infinite z makes the
    correlated quadratic form ``inf - inf`` (or ``inf * 0``), a NaN whose
    value is +inf; such a pass reads it as +inf, so the row gets -inf, as in
    the diagonal case.
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
    # components on the leading axis keep numpy's inner loops over the long
    # row axis
    stacked_t = np.ascontiguousarray(stacked.T)

    def row_pass(mu, sd, rho, offset, tiny=False) -> np.ndarray:
        # in-place steps keep the block's scratch at one [b, d, rows] array
        z = stacked_t - mu[:, :, None]
        z /= sd[:, :, None]
        if correlated:
            quad = (
                z[:, 0] ** 2 - 2.0 * rho * z[:, 0] * z[:, 1] + z[:, 1] ** 2
            ) / (1.0 - rho**2) + z[:, 2] ** 2
            if tiny:
                quad[np.isnan(quad) & np.isinf(z).any(axis=1)] = np.inf
        else:
            quad = np.add.reduce(np.square(z, out=z), axis=1)
        del z  # release the scratch before the segment sums allocate theirs
        rows = offset - 0.5 * quad
        if sigma_mask is not None:
            rows += sigma_mask
        return np.add.reduce(segment_logsumexp(rows, starts, counts) - log_counts, axis=1)

    return row_pass, n_theta, base_const, stacked.shape[0]


def _stage2_target_batch(stage1: Sequence, bounds, correlated, sigma_trunc):
    """Log-likelihood of hyper vectors given stacked stage-1 samples.

    Maps hyper vectors ``[p, d]`` to log-likelihoods ``[p]``, in blocks of
    at most ``STAGE2_CHUNK_ROWS`` stacked rows x vectors through the row
    pass of :func:`_stage2_rows`.
    """
    row_pass, n_theta, base_const, n_rows = _stage2_rows(stage1, bounds, correlated, sigma_trunc)
    block = max(1, STAGE2_CHUNK_ROWS // n_rows)

    def loglik(vecs: np.ndarray) -> np.ndarray:
        vecs = np.asarray(vecs, dtype=float)
        mu = vecs[:, : n_theta + 1]
        sd = vecs[:, n_theta + 1 : 2 * n_theta + 2]
        mu_s, sd_s = mu[:, -1], sd[:, -1]
        p = vecs.shape[0]
        out = np.empty(p)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # both CDF arguments of every vector in one call
            cdf = ndtr(np.concatenate([(sigma_trunc - mu_s) / sd_s, -mu_s / sd_s]))
            z_trunc = cdf[:p] - cdf[p:]
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
                offset -= 0.5 * np.log(1.0 - rho**2)
            tiny = correlated and np.count_nonzero(sd < _TINY_SD) > 0
            for lo in range(0, p, block):
                b = slice(lo, lo + block)
                r = rho[b, None] if correlated else None
                out[b] = row_pass(mu[b], sd[b], r, offset[b, None], tiny)
        if n_ok < ok.size:
            out[~ok] = -np.inf
        return out

    return loglik, n_theta


def _stage2_target(stage1: Sequence, bounds, correlated, sigma_trunc):
    """:func:`_stage2_target_batch` for one hyper vector ``[d] -> float``,
    the form the slice sampler calls, with the same result bytes.

    An invalid vector returns -inf before any array work; a valid one gets
    its constants in plain floats and one row pass over ``[1, ·]`` views of
    the vector, with no ``np.errstate``. Four choices keep the batch
    form's bits: logs go through ``np.log`` (``math.log`` differs in the
    last bit for some inputs), the sd logs are summed by numpy's
    add-reduce, ``z_trunc`` comes from :func:`ndtr`, whose float and
    array forms agree to the bit, and ``1 - rho^2`` is ``1.0 - rho * rho``
    (numpy squares an array, where Python's float ``**`` calls libm's
    ``pow``). ``z_trunc`` and its log are kept for the last (mu_sigma,
    sd_sigma) pair: a slice step along any other coordinate reuses them.
    Only a vector with an sd below ``_TINY_SD``, which the sd scan finds,
    can overflow z; outside :func:`~hbprog.models.ignore_float_errors` (the
    sampling stages run under one) its row pass runs under an
    ``np.errstate`` that ignores the overflow, as the batch form does.
    """
    row_pass, n_theta, base_const, _ = _stage2_rows(stage1, bounds, correlated, sigma_trunc)
    k = n_theta + 1
    # (mu_sigma, sd_sigma) -> log z_trunc, None where z_trunc is not > 0
    memo_key, memo_log_z = None, None

    def loglik(vec: np.ndarray) -> float:
        nonlocal memo_key, memo_log_z
        v = vec.tolist()
        sd = v[k : 2 * k]
        for s in sd:
            if not s > 0:
                return -math.inf
        key = (v[n_theta], sd[-1])
        if key != memo_key:
            mu_s, sd_s = key
            z_trunc = _ndtr_float((sigma_trunc - mu_s) / sd_s) - _ndtr_float(-mu_s / sd_s)
            memo_key, memo_log_z = key, float(np.log(z_trunc)) if z_trunc > 0 else None
        if memo_log_z is None:
            return -math.inf
        rho = None
        if correlated:
            r = v[-1]
            if not abs(r) < 1:
                return -math.inf
            rho = vec[None, -1:]
        # the batch form's add-reduce over the same k contiguous floats
        # (Python's sum() of floats is compensated from 3.12 on)
        offset = base_const - float(np.add.reduce(np.log(vec[k : 2 * k]))) - memo_log_z
        if correlated:
            offset -= 0.5 * float(np.log(1.0 - r * r))
        block = (vec[None, :k], vec[None, k : 2 * k], rho, offset)
        tiny = min(sd) < _TINY_SD
        if tiny and not FLOAT_ERRORS_IGNORED.get():
            with np.errstate(over="ignore", invalid="ignore"):
                return float(row_pass(*block, True)[0])
        return float(row_pass(*block, tiny)[0])

    return loglik, n_theta


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
            quad = np.add.reduce(z * z, axis=1)
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
    """``(n_theta, correlated, sigma_trunc)`` of a hyper sample set, read
    from its provenance. The set must hold at least one row, and a mean and
    a spread per parameter and for sigma (plus rho when correlated) in each:
    a ValueError says which fails."""
    prov = getattr(hyper_samples, "provenance", None) or {}
    try:
        n_theta, correlated = int(prov["n_theta"]), bool(prov["correlated"])
        sigma_trunc = float(prov["sigma_trunc"])
    except KeyError as exc:
        raise ValueError(f"hyper sample set lacks population metadata {exc} in its provenance") from exc
    n, dim = np.shape(hyper_samples.samples)
    if n == 0:
        raise ValueError("hyper sample set must be nonempty")
    columns = len(HyperParameters.labels(n_theta, correlated))
    if dim != columns:
        raise ValueError(
            f"fields 'provenance.n_theta' and 'provenance.correlated' describe {columns} "
            f"columns, but the set has {dim}"
        )
    return n_theta, correlated, sigma_trunc


def mixture_prior_logpdf(pv: ParameterVector, hyper_samples) -> float:
    """Log-density of the hyper-averaged prior for a new unit: an
    equal-weight mixture of population Gaussians over the hyper samples,
    ``logsumexp_s hier(pv | psi_s) - log N_s``. A hyper sample the density
    is not defined for raises :class:`HyperRowError`."""
    n_theta, correlated, sigma_trunc = _decode_hyper_meta(hyper_samples)
    if pv.theta.size != n_theta:
        raise ValueError("parameter/hyper-sample dimension mismatch")
    mat = np.asarray(hyper_samples.samples, dtype=float)
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

    It warns of nothing. Inside :func:`~hbprog.models.ignore_float_errors`,
    which every sampling stage runs under, it and the model's curve open no
    ``np.errstate``; called on its own it enters one, for both.
    """
    if not FLOAT_ERRORS_IGNORED.get():
        with ignore_float_errors():
            return dataset_loglik(model, dataset, theta, sigma)
    if not (sigma > 0 and math.isfinite(sigma)):
        return -math.inf
    preds = model.predict(theta, dataset.cycles_float)
    if model.likelihood == "lognormal":
        zeta2 = np.log1p((sigma / preds) ** 2)
        dev = dataset.log_values - np.log(preds) + 0.5 * zeta2
        total = float(
            dataset.lognormal_const
            - 0.5 * np.add.reduce(np.log(zeta2))
            - np.add.reduce(dev**2 / (2.0 * zeta2))
        )
    elif model.likelihood == "gaussian":
        try:
            two_var = 2.0 * sigma**2
        except OverflowError:
            # sigma above ~1.3e154: the variance is +inf, as in the batch
            # form. (sigma * sigma would not raise, but it differs from
            # libm's pow in the last bit for about 1 sigma in 1,250.)
            two_var = math.inf
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
