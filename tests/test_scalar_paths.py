"""The scalar log-target paths the slice sampler and DE initialisation call
(Paris ``predict``, ``dataset_loglik``, the one-vector stage-2 target, the
segment and mixture log-sum-exps), and the Paris inversion ``rul`` calls per
draw, must give the same bits as a plain reference of the arithmetic they
replace: cached constants and cheaper checks may not move a single draw.

The references below evaluate the same numpy/math operations in the same
order, but recompute every constant per call and scan the curve for bad
values explicitly. Comparisons are on the bytes of the results, not within
a tolerance.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import hbprog.hierarchy as hierarchy
from hbprog.hierarchy import (
    ClassicalPrior,
    Dataset,
    _mixture_kernel,
    _stage2_target,
    _stage2_target_batch,
    build_model,
)
from hbprog.models import (
    PARIS_M_TOL,
    BatteryDoubleModel,
    CrackDivergedError,
    CrackGeometry,
    CrackParams,
    LoadingSpec,
    NoFailureError,
    ParisCrackModel,
    _log_ds,
    _profile_raw,
    crack_length,
    cycles_to_failure,
)
from hbprog.samplers import SampleSet, SamplerConfig, TargetSpec, subseed
from hbprog.targets import (
    LOG_TWO_PI,
    HyperParameters,
    HyperPriorBounds,
    dataset_loglik,
    dataset_loglik_batch,
    gaussian_loglik,
    logsumexp,
    segment_logsumexp,
)

from conftest import CRACK_BOUNDS

TWO_BLOCK = LoadingSpec("two-block", delta_sigma1=70.0, n1=3.0, delta_sigma2=45.0, n2=5.0)
CONSTANT = LoadingSpec("constant", delta_sigma=60.0)


def ref_profile(m, log_c, a0, n0, log_ds, n):
    dn = n - n0
    with np.errstate(over="ignore"):
        if abs(m - 2.0) < PARIS_M_TOL:
            rate = math.exp(log_c + 2.0 * log_ds)
            return a0 * np.exp(rate * dn)
        e = 1.0 - m / 2.0
        log_scale = log_c + m * log_ds - e * math.log(a0)
        try:
            scale = e * math.exp(log_scale)
        except OverflowError:
            scale = e * math.inf
        if math.isfinite(scale):
            r = scale * dn
        else:
            with np.errstate(invalid="ignore"):
                r = np.where(dn == 0.0, 0.0, scale * dn)
        base = 1.0 + r
        if base.min() > 0.0:
            return a0 * np.exp(np.log1p(r) / e)
        diverged = base <= 0.0
        return np.where(
            diverged, np.inf, a0 * np.exp(np.log1p(np.where(diverged, 0.0, r)) / e)
        )


def ref_predict(model, theta, cycles):
    n = np.atleast_1d(np.asarray(cycles, dtype=float))
    t1, t2 = float(theta[0]), float(theta[1])
    if not (t1 > 0 and math.isfinite(t1) and math.isfinite(t2)):
        return np.full(n.shape, np.inf)
    m = t1 * model.m0
    geo = model.geometry
    return ref_profile(m, t2 * model.log_c0, geo.a0, geo.n0, _log_ds(model.loading, m), n)


def ref_loglik(model, dataset, theta, sigma):
    if not sigma > 0 or not np.isfinite(sigma):
        return -math.inf
    cycles = dataset.cycles.astype(float)
    if isinstance(model, ParisCrackModel):
        preds = ref_predict(model, theta, cycles)
    else:
        preds = model.predict(theta, cycles)
    if not np.isfinite(preds).all():
        return -math.inf
    y = dataset.values
    n = y.size
    if model.likelihood == "lognormal":
        if np.any(preds <= 0):
            return -math.inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            zeta2 = np.log1p((sigma / preds) ** 2)
            log_y = np.log(y)
            dev = log_y - np.log(preds) + 0.5 * zeta2
            total = float(
                -log_y.sum()
                - 0.5 * n * LOG_TWO_PI
                - 0.5 * np.log(zeta2).sum()
                - (dev**2 / (2.0 * zeta2)).sum()
            )
    else:
        r = y - preds
        total = float(
            -0.5 * n * (LOG_TWO_PI + 2.0 * math.log(sigma)) - (r @ r) / (2.0 * sigma**2)
        )
    return total if not math.isnan(total) else -math.inf


def ref_segment_logsumexp(values, starts, counts):
    smax = np.maximum.reduceat(values, starts, axis=-1)
    finite = np.isfinite(smax)
    safe = np.where(finite, smax, 0.0)
    shifted = np.exp(values - np.repeat(safe, counts, axis=-1))
    sums = np.add.reduceat(shifted, starts, axis=-1)
    with np.errstate(divide="ignore"):
        return np.where(finite, np.log(sums) + safe, smax)


def ref_logsumexp(a):
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + math.log(np.exp(a - m).sum()))


def ref_stage2(stacked, counts, n_theta, correlated, sigma_trunc, vec):
    """The pooled stage-2 log-likelihood of one hyper vector."""
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sigma_col = stacked[:, -1]
    sigma_ok = (sigma_col > 0.0) & (sigma_col < sigma_trunc)
    mu = vec[None, : n_theta + 1]
    sd = vec[None, n_theta + 1 : 2 * n_theta + 2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z_trunc = ndtr((sigma_trunc - mu[:, -1]) / sd[:, -1]) - ndtr(-mu[:, -1] / sd[:, -1])
        offset = (
            -0.5 * (n_theta + 1) * math.log(2.0 * math.pi)
            - np.log(sd).sum(axis=1)
            - np.log(z_trunc)
        )
        z = np.ascontiguousarray(stacked.T) - mu[:, :, None]
        z /= sd[:, :, None]
        if correlated:
            rho = vec[None, -1]
            one_m_rho2 = 1.0 - rho**2
            offset -= 0.5 * np.log(one_m_rho2)
            quad = (
                z[:, 0] ** 2 - 2.0 * rho[:, None] * z[:, 0] * z[:, 1] + z[:, 1] ** 2
            ) / one_m_rho2[:, None] + z[:, 2] ** 2
            # a positive-definite form with an infinite coordinate is +inf,
            # where the sum above gives inf - inf or inf * 0
            quad = np.where(np.isnan(quad) & np.isinf(z).any(axis=1), np.inf, quad)
        else:
            quad = np.square(z, out=z).sum(axis=1)
        rows = offset[:, None] - 0.5 * quad
        if not sigma_ok.all():
            rows += np.where(sigma_ok, 0.0, -np.inf)
        out = (
            ref_segment_logsumexp(rows, starts, counts) - np.log(counts.astype(float))
        ).sum(axis=1)
    ok = (sd > 0).all(axis=1) & (z_trunc > 0)
    if correlated:
        ok &= np.abs(rho) < 1
    return float(np.where(ok, out, -np.inf)[0])


def ref_mixture(hyper_mat, n_theta, correlated, sigma_trunc, x):
    """The mixture-prior log-density of one (theta..., sigma) row, every
    constant recomputed per call."""
    mu = hyper_mat[:, :n_theta]
    sd = hyper_mat[:, n_theta + 1 : 2 * n_theta + 1]
    mu_s = hyper_mat[:, n_theta]
    sd_s = hyper_mat[:, 2 * n_theta + 1]
    inv_sd_s = 1.0 / sd_s
    zden = ndtr((sigma_trunc - mu_s) * inv_sd_s) - ndtr(-mu_s * inv_sd_s)
    const = (
        -0.5 * (n_theta + 1) * math.log(2.0 * math.pi)
        - np.log(sd).sum(axis=1)
        - np.log(sd_s)
        - np.log(zden)
    )
    z = (x[:n_theta] - mu) * (1.0 / sd)
    if correlated:
        rho = hyper_mat[:, -1]
        const = const - 0.5 * np.log1p(-(rho**2))
        quad = (z[:, 0] ** 2 - 2.0 * rho * z[:, 0] * z[:, 1] + z[:, 1] ** 2) * (1.0 / (1.0 - rho**2))
    else:
        quad = (z * z).sum(axis=1)
    zs = (x[n_theta] - mu_s) * inv_sd_s
    return ref_logsumexp(const - 0.5 * (quad + zs * zs)) - math.log(hyper_mat.shape[0])


def same(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def _models():
    """Paris models over both loadings, n0 = 0 and n0 = 5000 (the series
    starts below n0, so the first cycles have negative dn), a0 = 1 and 2.5."""
    out = []
    for loading in (CONSTANT, TWO_BLOCK):
        for geo in (CrackGeometry(1.0, 0.0, 25.0), CrackGeometry(2.5, 5000.0, 25.0)):
            out.append(ParisCrackModel(geo, loading))
    return out


MODELS = _models()
MODEL_IDS = ["const-n0", "const-n5000", "twoblock-n0", "twoblock-n5000"]
CYCLES = np.linspace(0, 24000, 13).astype(np.int64)

THETAS = [
    (1.0, 1.05),  # m = 2 exactly: the exponential band
    (1.0 + 2e-8, 1.0),  # inside the band
    (1.0 + 1e-7, 1.0),  # just outside it
    (1.0 - 1e-7, 1.0),
    (0.7, 1.0),  # m < 2
    (1.2, 1.05),  # m > 2
    (1.6, 0.8),  # m > 2, fast growth: diverges inside the series
    (2.5, 0.5),  # diverges almost at once
    (0.3, 0.2),  # m < 2 with a large rate
    (1.1, -40.0),  # rate overflows
    (0.0, 1.0),
    (-0.5, 1.0),
    (math.nan, 1.0),
    (1.0, math.nan),
    (1.0, math.inf),
    (math.inf, 1.0),
]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_paris_predict_matches_reference(model):
    cycles = np.concatenate([CYCLES, [0.0, 3000.5, 1e6]])
    for theta in THETAS:
        want = ref_predict(model, np.array(theta), cycles)
        assert same(model.predict(np.array(theta), cycles), want), theta


def test_paris_cases_reach_every_branch():
    """The theta list above hits the band, a divergence inside the observed
    cycles, and the negative-dn prefix of n0 > 0."""
    model = MODELS[0]
    band = ref_predict(model, np.array((1.0 + 2e-8, 1.0)), CYCLES)
    assert np.all(np.isfinite(band))
    diverged = ref_predict(model, np.array((1.6, 0.8)), CYCLES)
    assert np.isfinite(diverged[0]) and np.isinf(diverged[-1])
    late = MODELS[1]
    below_n0 = ref_predict(late, np.array((0.7, 1.0)), CYCLES)
    assert below_n0[0] < late.geometry.a0 < below_n0[-1]


def ref_m_log_c(model, theta):
    """Physical (m, log C) of ``theta`` under the model's nominals, or
    ValueError where the parameter record rejects it."""
    t1, t2 = float(theta[0]), float(theta[1])
    if not (t1 > 0 and math.isfinite(t1)):
        raise ValueError("theta1 must be positive and finite")
    m, log_c = t1 * model.m0, t2 * model.log_c0
    if not (math.isfinite(m) and math.isfinite(log_c)):
        raise ValueError("recovered m and log C must be finite")
    return m, log_c


def ref_cycles_to_failure(model, theta, a_f=None):
    """The Paris inversion as a free function over the parameter record,
    every constant recomputed per call."""
    m, log_c = ref_m_log_c(model, theta)
    geo = model.geometry
    log_ds = _log_ds(model.loading, m)
    af = geo.a_f if a_f is None else float(a_f)
    if af < geo.a0:
        raise ValueError("critical length below initial length")
    if af == geo.a0:
        return float(geo.n0)
    band = abs(m - 2.0) < PARIS_M_TOL
    try:
        rate = math.exp(log_c + (2.0 if band else m) * log_ds)
    except OverflowError:
        return float(geo.n0)
    if band:
        if rate == 0.0:
            raise NoFailureError("zero rate")
        return geo.n0 + math.log(af / geo.a0) / rate
    if rate == 0.0:
        raise NoFailureError("zero rate")
    e = 1.0 - m / 2.0
    num = math.exp(e * math.log(geo.a0)) * math.expm1(e * math.log(af / geo.a0))
    return geo.n0 + num / (e * rate)


def ref_crack_length(model, theta, n_cycles):
    """Crack length as a free function over the parameter record: the
    cycle check, the profile and the divergence report."""
    geo = model.geometry
    scalar = np.ndim(n_cycles) == 0
    n = np.atleast_1d(np.asarray(n_cycles, dtype=float))
    if np.any(n < geo.n0):
        raise ValueError("requested cycles must be >= geometry.n0")
    m, log_c = ref_m_log_c(model, theta)
    a = _profile_raw(m, log_c, geo.a0, math.log(geo.a0), geo.n0, _log_ds(model.loading, m), n)
    bad = ~np.isfinite(a)
    if np.any(bad):
        raise CrackDivergedError(float(np.min(n[bad])))
    return float(a[0]) if scalar else a


def view_cycles_to_failure(model, theta, a_f):
    params = CrackParams(*theta, model.m0, model.log_c0)
    return cycles_to_failure(params, model.geometry, model.loading, a_f)


def view_crack_length(model, theta, n):
    params = CrackParams(*theta, model.m0, model.log_c0)
    return crack_length(params, model.geometry, model.loading, n)


def outcome(f, *args):
    """The bytes of ``f(*args)``, or the type (and diverged cycle) of the
    error it raises."""
    try:
        return np.asarray(f(*args), dtype=float).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), getattr(exc, "cycle", None)


INVERSION_THETAS = [
    (1.0, 1.05),  # m = 2 exactly
    (1.0 + 2e-8, 1.0),  # inside the band
    (1.0 + 4.99e-8, 0.9),  # |m - 2| just under PARIS_M_TOL
    (1.0 + 5.01e-8, 0.9),  # just over it
    (1.0 - 5e-8, 1.0),  # the lower edge
    (1.0 + 1e-7, 1.0),
    (1.0 - 1e-7, 1.0),
    (0.7, 1.0),
    (1.2, 1.05),
    (1.6, 0.8),
    (0.3, 0.2),
    (1.0, -40.0),  # the rate overflows, in the band
    (0.5, -40.0),  # and out of it
    (1.2, 45.0),  # the rate underflows to zero
    (1.0, 45.0),
    (0.0, 1.0),
    (-0.5, 1.0),
    (math.nan, 1.0),
    (1.0, math.nan),
    (math.inf, 1.0),
    (1.0, 1e308),  # log C overflows
]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_paris_inversion_matches_reference(model):
    """``ParisCrackModel.cycles_to_failure`` and the ``cycles_to_failure``
    and ``crack_length`` views give the free functions' bytes, or raise the
    same error, for every branch of the inversion and critical lengths at
    the default, at a0, between a0 and a_f, and below a0."""
    geo = model.geometry
    a_fs = [None, geo.a0, 0.5 * (geo.a0 + geo.a_f), 0.5 * geo.a0]
    cycles = [geo.n0, CYCLES[CYCLES >= geo.n0].astype(float), 12000.0, geo.n0 - 1.0]
    kinds = set()
    for theta in INVERSION_THETAS:
        for a_f in a_fs:
            want = outcome(ref_cycles_to_failure, model, theta, a_f)
            assert outcome(model.cycles_to_failure, np.array(theta), a_f) == want, (theta, a_f)
            assert outcome(view_cycles_to_failure, model, theta, a_f) == want, (theta, a_f)
            kinds.add(want[0] if isinstance(want, tuple) else float)
        for n in cycles:
            want = outcome(ref_crack_length, model, theta, n)
            assert outcome(view_crack_length, model, theta, n) == want, (theta, n)
            kinds.add(want[0] if isinstance(want, tuple) else float)
    assert kinds == {float, ValueError, NoFailureError, CrackDivergedError}


def _crack_dataset(model, theta=(1.0, 1.05), noise=0.04):
    curve = ref_predict(model, np.array(theta), CYCLES.astype(float))
    rng = np.random.default_rng(4)
    values = curve * np.exp(noise * rng.standard_normal(curve.size))
    return Dataset("X", CYCLES, values, "paris", loading=model.loading, geometry=model.geometry)


SIGMAS = [0.05, 1e-3, 0.2, 0.0, -0.1, math.inf, math.nan, 1e-300]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_lognormal_loglik_matches_reference(model):
    data = _crack_dataset(model)
    for theta in THETAS:
        for sigma in SIGMAS:
            want = ref_loglik(model, data, np.array(theta), sigma)
            got = dataset_loglik(model, data, np.array(theta), sigma)
            assert same(got, want), (theta, sigma)
            assert not math.isnan(got)


def test_lognormal_loglik_bad_curves_are_minus_inf():
    """Diverged, zero and negative predictions give -inf without a scan of
    the curve: each makes the summed total NaN or -inf."""
    model = MODELS[0]
    data = _crack_dataset(model)
    assert dataset_loglik(model, data, np.array((1.6, 0.8)), 0.05) == -math.inf

    class Fixed(ParisCrackModel):
        def __init__(self, curve):
            super().__init__(model.geometry, model.loading)
            self.curve = curve

        def predict(self, theta, cycles):
            return self.curve.copy()

    base = ref_predict(model, np.array((1.0, 1.05)), CYCLES)
    for bad in (np.inf, -np.inf, np.nan, 0.0, -0.0, -1.0):
        for where in (0, 6, -1):
            curve = base.copy()
            curve[where] = bad
            assert dataset_loglik(Fixed(curve), data, np.zeros(2), 0.05) == -math.inf


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # sigma**2 underflows
def test_gaussian_loglik_matches_reference():
    model = BatteryDoubleModel()
    k = np.arange(1, 80, 2)
    theta0 = np.array([1.0, 1.0, 1.0, 1.0])
    values = model.predict(theta0, k) + 0.01 * np.random.default_rng(2).standard_normal(k.size)
    data = Dataset("B", k, values, "batt-double")
    for theta in ([1.0, 1.0, 1.0, 1.0], [0.9, 1.2, 0.8, 1.1], [-1.0, 1.0, 0.0, 1.0],
                  [1.0, math.nan, 1.0, 1.0], [1e200, -1e5, 1.0, 1.0]):
        for sigma in SIGMAS:
            want = ref_loglik(model, data, np.array(theta), sigma)
            got = dataset_loglik(model, data, np.array(theta), sigma)
            assert same(got, want), (theta, sigma)


def test_gaussian_loglik_tiny_sigma_is_silent():
    """A sigma whose square underflows gives -inf without a numpy warning,
    off the curve (x / 0) and on it (0 / 0), in the scalar, batch and public
    forms."""
    model = BatteryDoubleModel()
    k = np.arange(1, 80, 2)
    theta = np.array([1.0, 1.0, 1.0, 1.0])
    curve = model.predict(theta, k)
    for values in (curve + 0.01, curve):
        data = Dataset("B", k, values, "batt-double")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dataset_loglik(model, data, theta, 1e-300) == -math.inf
            got = dataset_loglik_batch(model, data, theta[None], np.array([1e-300]))
            assert got.tolist() == [-math.inf]
            assert np.all(gaussian_loglik(values, curve, 1e-300) == -math.inf)


def test_gaussian_loglik_huge_sigma_is_finite_and_silent():
    """A sigma whose square overflows gives the finite total of an infinite
    variance, as the batch form does, without raising or warning; sigmas
    whose square is finite keep the bits of ``2 * sigma**2``."""
    model = BatteryDoubleModel()
    k = np.arange(1, 39, 2)
    theta = np.array([1.0, 1.0, 1.0, 1.0])
    values = model.predict(theta, k) + 0.01
    data = Dataset("B", k, values, "batt-double")
    with np.errstate(over="ignore"):
        batch = dataset_loglik_batch(model, data, np.tile(theta, (2, 1)), np.array([1e200, 2e154]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma, want in zip((1e200, 2e154), batch):
            got = dataset_loglik(model, data, theta, sigma)
            assert got == -0.5 * k.size * (LOG_TWO_PI + 2.0 * math.log(sigma))
            assert same(got, want)
        assert round(dataset_loglik(model, data, theta, 1e200), 2) == -8767.28
        # a sigma at which libm's pow(sigma, 2) and sigma * sigma differ
        sigma = 0.42672114373024106
        assert sigma**2 != sigma * sigma
        assert same(dataset_loglik(model, data, theta, sigma), ref_loglik(model, data, theta, sigma))


def test_segment_logsumexp_matches_reference():
    rng = np.random.default_rng(8)
    counts = np.array([5, 1, 7, 3])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    values = rng.normal(scale=30.0, size=(4, counts.sum()))
    values[1, :5] = -np.inf  # one all -inf segment
    values[2, 6] = -np.inf  # one -inf entry in a finite segment
    values[3, 12] = np.nan
    for rows in (values[:1], values[:2], values, values[2:3]):
        assert same(segment_logsumexp(rows, starts, counts), ref_segment_logsumexp(rows, starts, counts))
    for a in (values[0], np.full(4, -np.inf), np.array([np.inf, 1.0]), values[3]):
        assert same(logsumexp(a), ref_logsumexp(a))


def _stage2_forms(rng, correlated):
    """The one-vector and batch stage-2 forms over three stage-1 sets, one
    holding a sigma draw outside the truncation range, and a check that
    both give the bytes of :func:`ref_stage2` at a vector."""
    mats = [
        np.column_stack([rng.normal(1, 0.05, n), rng.normal(1.05, 0.01, n), rng.uniform(0.03, 0.12, n)])
        for n in (40, 25, 40)
    ]
    mats[1][3, -1] = 0.25  # a sigma draw outside the truncation range
    sets = [SampleSet(m, ("theta1", "theta2", "sigma")) for m in mats]
    bounds = HyperPriorBounds.crack_default(correlated)
    loglik, n_theta = _stage2_target(sets, bounds, correlated, 0.2)
    batch, _ = _stage2_target_batch(sets, bounds, correlated, 0.2)
    stacked = np.vstack(mats)
    counts = np.array([m.shape[0] for m in mats])

    def check(vec):
        vec = np.array(vec, dtype=float)
        want = ref_stage2(stacked, counts, n_theta, correlated, 0.2, vec)
        assert same(loglik(vec), want), vec
        assert same(batch(vec[None])[0], want), vec

    return check, bounds


@pytest.mark.parametrize("correlated", [False, True], ids=["diag", "corr"])
def test_stage2_one_vector_matches_reference(correlated):
    rng = np.random.default_rng(12)
    check, _ = _stage2_forms(rng, correlated)
    base = [1.0, 1.05, 0.08, 0.05, 0.01, 0.03] + ([0.3] if correlated else [])
    vecs = [base]
    for _ in range(20):
        vecs.append(list(np.array(base) * rng.uniform(0.5, 1.5, len(base))))
    bad = [(3, 0.0), (4, -0.01), (5, 0.0), (2, 5.0)]  # sd = 0, sd < 0, sd_sigma = 0, no mass
    if correlated:
        bad += [(6, 1.0), (6, -1.0), (6, 1.5)]
    bad += [(j, math.nan) for j in range(len(base))]
    for j, value in bad:
        v = list(base)
        v[j] = value
        vecs.append(v)
    for vec in vecs:
        check(vec)
    for vec in _bit_trap_vectors(base, correlated):
        check(vec)
    # z overflows at a tiny sd; the reference ignores that
    for j in (3, 4, 5):
        for value in (5e-324, -5e-324):
            v = list(base)
            v[j] = value
            check(v)


@pytest.mark.parametrize("correlated", [False, True], ids=["diag", "corr"])
def test_stage2_tiny_sd_is_minus_inf_without_warning(correlated):
    """A hyper vector inside the crack box (whose sd bounds start at 0) with
    one sd at 5e-324, 1e-200 or 1e-160 puts every stage-1 row at an
    overflowing z: both stage-2 forms return -inf for it, never NaN, and
    warn of nothing. In a batch beside it, a regular vector keeps the
    bytes it has alone."""
    rng = np.random.default_rng(12)
    sets = [np.column_stack([rng.normal(1, 0.05, n), rng.normal(1.05, 0.01, n),
                             rng.uniform(0.03, 0.12, n)]) for n in (40, 25, 40)]
    bounds = HyperPriorBounds.crack_default(correlated)
    loglik, _ = _stage2_target(sets, bounds, correlated, 0.2)
    batch, _ = _stage2_target_batch(sets, bounds, correlated, 0.2)
    base = np.array([1.0, 1.05, 0.08, 0.05, 0.01, 0.03] + ([0.3] if correlated else []))
    alone = batch(base[None])[0]
    assert math.isfinite(alone)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (3, 4, 5):
            for value in (5e-324, 1e-200, 1e-160):
                vec = base.copy()
                vec[j] = value
                assert bounds.contains(vec, correlated)
                assert loglik(vec) == -math.inf, (j, value)
                got = batch(np.stack([vec, base]))
                assert got[0] == -math.inf, (j, value)
                assert same(got[1], alone)


def _mass(mu_s, sd_s):
    return float(ndtr((0.2 - mu_s) / sd_s) - ndtr(-mu_s / sd_s))


def _plain_offset(vec, log, square):
    """The log normalising constant of a crack hyper vector in plain floats,
    with the logs taken by ``log`` and rho^2 by ``square``."""
    sd = vec[3:6]
    log_sd = [log(s) for s in sd]
    offset = -1.5 * math.log(2.0 * math.pi) - ((log_sd[0] + log_sd[1]) + log_sd[2])
    offset -= log(_mass(vec[2], sd[2]))
    if len(vec) == 7:
        offset -= 0.5 * log(1.0 - square(vec[6]))
    return offset


def _bit_trap_vectors(base, correlated, per_trap=4):
    """Variants of ``base`` whose log normalising constant moves when a
    plain-float shortcut replaces the one-vector form's arithmetic:
    ``math.log`` for ``np.log`` at an sd or at the truncation mass of a
    (mu_sigma, sd_sigma) pair, or (corr) Python's ``rho ** 2`` for
    ``rho * rho``. Such values exist only where the two differ in the last
    bit, which may be nowhere on another platform."""
    rng = np.random.default_rng(17)

    def np_log(x):
        return float(np.log(x))

    def logs_differ(x):
        return math.log(x) != np_log(x)

    def traps(values, differs, make_vec, log, square):
        """Vectors from the values at which the two forms differ and the
        difference reaches the constant."""
        out = []
        for value in values:
            if differs(value):
                vec = make_vec(value)
                if _plain_offset(vec, log, square) != _plain_offset(vec, np_log, lambda r: r * r):
                    out.append(vec)
                    if len(out) == per_trap:
                        break
        return out

    vecs = traps(rng.uniform(0.005, 0.1, 200_000).tolist(), logs_differ,
                 lambda sd: base[:3] + [sd] + base[4:], math.log, lambda r: r * r)
    # unit sd_thetas and sd_sigma near exp(-1.5 log 2 pi) cancel the rest of
    # the constant, so its last bit is that of log z_trunc
    pairs = zip(rng.uniform(0.02, 0.18, 20_000).tolist(), rng.uniform(0.063, 0.064, 20_000).tolist())
    vecs += traps(pairs, lambda pair: logs_differ(_mass(*pair)),
                  lambda pair: base[:2] + [pair[0], 1.0, 1.0, pair[1]] + base[6:],
                  math.log, lambda r: r * r)
    if correlated:
        # |rho| near 1: log(1 - rho^2) is large and sensitive to the last bit of rho^2
        vecs += traps((rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 0.999, 20_000)).tolist(),
                      lambda r: r**2 != r * r, lambda r: base[:6] + [r], np_log, lambda r: r**2)
    return vecs


def _hyper_vectors(correlated):
    """Hyper vectors drawn inside the crack hyper box and up to one box
    width outside it on either side, per coordinate."""
    bounds = HyperPriorBounds.crack_default(correlated)
    coords = [
        st.floats(lo - (hi - lo), hi + (hi - lo), allow_nan=False)
        for lo, hi in bounds.pairs(correlated)
    ]
    return st.tuples(*coords)


STAGE2_FORMS = {c: _stage2_forms(np.random.default_rng(13), c)[0] for c in (False, True)}


@pytest.mark.parametrize("correlated", [False, True], ids=["diag", "corr"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_stage2_one_vector_matches_reference_drawn(correlated, data):
    STAGE2_FORMS[correlated](data.draw(_hyper_vectors(correlated)))


def test_stage2_one_vector_wide_family_matches_batch():
    """A vector of 8 sds, which numpy's add-reduce sums pairwise rather
    than left to right, keeps the batch form's bytes in the one-vector
    form."""
    rng = np.random.default_rng(14)
    n_theta = 7
    sets = [np.column_stack([rng.normal(1, 0.05, (30, n_theta)), rng.uniform(0.03, 0.3, 30)])
            for _ in range(2)]
    bounds = HyperPriorBounds.battery_default(n_theta)
    loglik, _ = _stage2_target(sets, bounds, False, 0.4)
    batch, _ = _stage2_target_batch(sets, bounds, False, 0.4)
    for _ in range(50):
        vec = rng.uniform(bounds.lower(False), bounds.upper(False))
        assert same(loglik(vec), batch(vec[None])[0])


@pytest.mark.parametrize(
    "n_theta, correlated, n_comp",
    [(2, False, 1), (2, False, 400), (2, True, 1), (2, True, 400), (3, False, 400),
     (4, False, 1), (4, False, 400)],
)
def test_mixture_kernel_matches_reference(n_theta, correlated, n_comp):
    rng = np.random.default_rng(100 * n_theta + n_comp + correlated)
    cols = [rng.normal(1.0, 0.1, (n_comp, n_theta)), rng.uniform(0.0, 0.15, (n_comp, 1)),
            rng.uniform(0.01, 0.3, (n_comp, n_theta)), rng.uniform(0.005, 0.1, (n_comp, 1))]
    if correlated:
        cols.append(rng.uniform(-0.95, 0.95, (n_comp, 1)))
    hyper_mat = np.hstack(cols)
    hyper_mat[0, n_theta + 1] = 1e-9  # tiny sd: z reaches ~1e8
    hyper_mat[-1, 2 * n_theta + 1] = 1e-6  # tiny sd_sigma
    kern = _mixture_kernel(hyper_mat, n_theta, correlated, 0.2)
    points = [np.append(rng.normal(1.0, 0.15, n_theta), s) for s in rng.uniform(0.0, 0.2, 40)]
    for sigma in (5e-324, 1e-12, np.nextafter(0.2, 0.0), 0.2 - 1e-12):
        points.append(np.append(hyper_mat[-1, :n_theta], sigma))
    points.append(np.append(np.full(n_theta, 40.0), 0.1))  # far out in every component
    points.append(np.append(hyper_mat[0, :n_theta], hyper_mat[-1, n_theta]))  # on both tiny sds
    for x in points:
        assert same(kern(x), ref_mixture(hyper_mat, n_theta, correlated, 0.2, x)), x


def test_whitened_slice_draws_match_reference_target(crack_fleet, monkeypatch):
    """A short whitened slice run through the stage-1 target of
    ``stage1_infer`` and one through the reference target draw the same
    bytes."""
    data = crack_fleet[0][0]
    model = build_model(data)
    lower, upper = CRACK_BOUNDS
    captured = {}
    run = hierarchy._slice_whitened
    monkeypatch.setattr(
        hierarchy, "_slice_whitened",
        lambda target, init, config: captured.update(target=target, init=init) or run(target, init, config),
    )
    config = SamplerConfig(n_samples=60, seed=5)
    got = hierarchy.stage1_infer(data, model, CRACK_BOUNDS, config)

    def ref_target(x):
        if np.any(x < lower) or np.any(x > upper):
            return -math.inf
        return ref_loglik(model, data, x[:-1], float(x[-1]))

    target = TargetSpec(3, ref_target, lower, upper, captured["target"].labels, name="stage1:ref")
    want = run(target, captured["init"], config)
    assert got.samples.tobytes() == want.samples.tobytes()


def _capture_whitened(monkeypatch):
    """``_slice_whitened`` patched to record the start it is called with,
    and the unpatched function."""
    captured = {}
    run = hierarchy._slice_whitened
    monkeypatch.setattr(
        hierarchy, "_slice_whitened",
        lambda target, init, config: captured.update(init=init) or run(target, init, config),
    )
    return captured, run


def _hyper_set(correlated, n=40):
    """A small hyper sample set around the crack population, with the
    population metadata ``update_current`` reads."""
    rng = np.random.default_rng(31 + correlated)
    cols = [rng.normal(1.0, 0.02, n), rng.normal(1.05, 0.005, n), rng.uniform(0.06, 0.1, n),
            rng.uniform(0.05, 0.1, n), rng.uniform(0.01, 0.03, n), rng.uniform(0.02, 0.04, n)]
    if correlated:
        cols.append(rng.uniform(-0.5, 0.5, n))
    meta = {"n_theta": 2, "correlated": correlated, "sigma_trunc": 0.2}
    return SampleSet(np.column_stack(cols), HyperParameters.labels(2, correlated), meta)


@pytest.mark.parametrize("correlated", [False, True], ids=["diag", "corr"])
def test_current_draws_match_reference_target(crack_fleet, monkeypatch, correlated):
    """A short whitened slice run through the target of ``update_current``
    and one through the reference mixture prior and likelihood draw the
    same bytes."""
    data = crack_fleet[0][5].truncate(16000)
    model = build_model(data)
    hyper = _hyper_set(correlated)
    captured, run = _capture_whitened(monkeypatch)
    got = hierarchy.update_current(data, hyper, model, SamplerConfig(n_samples=60, seed=7))

    def ref_target(x):
        sigma = float(x[-1])
        if not 0.0 < sigma < 0.2:
            return -math.inf
        prior = ref_mixture(hyper.samples, 2, correlated, 0.2, x)
        if prior == -math.inf:
            return -math.inf
        return prior + ref_loglik(model, data, x[:-1], sigma)

    lower, upper = np.array([-np.inf, -np.inf, 0.0]), np.array([np.inf, np.inf, 0.2])
    target = TargetSpec(3, ref_target, lower, upper, ("theta1", "theta2", "sigma"), name="current:ref")
    config = SamplerConfig(n_samples=60, seed=subseed(7, hierarchy._TAG_CURRENT))
    want = run(target, captured["init"], config)
    assert got.samples.tobytes() == want.samples.tobytes()


def test_classical_draws_match_reference_target(crack_fleet, monkeypatch):
    """A short whitened slice run through the target of
    ``classical_update`` and one through the reference Gaussian prior and
    likelihood draw the same bytes."""
    data = crack_fleet[0][5].truncate(16000)
    model = build_model(data)
    prior = ClassicalPrior(means=(2.1, -19.2), sds=(0.1, 0.1), sigma_bounds=(1e-3, 0.2))
    captured, run = _capture_whitened(monkeypatch)
    got = hierarchy.classical_update(data, prior, model, SamplerConfig(n_samples=60, seed=8))
    n_mu, n_sd = model.normalize_gaussian(prior.means, prior.sds)

    def ref_target(x):
        sigma = float(x[-1])
        if not 1e-3 < sigma < 0.2:
            return -math.inf
        lp = float(np.sum(-0.5 * ((x[:-1] - n_mu) / n_sd) ** 2))
        return lp + ref_loglik(model, data, x[:-1], sigma)

    lower, upper = np.array([-np.inf, -np.inf, 1e-3]), np.array([np.inf, np.inf, 0.2])
    target = TargetSpec(3, ref_target, lower, upper, ("theta1", "theta2", "sigma"), name="classical:ref")
    config = SamplerConfig(n_samples=60, seed=subseed(8, hierarchy._TAG_CLASSICAL))
    want = run(target, captured["init"], config)
    assert got.samples.tobytes() == want.samples.tobytes()


def _stage1_sets(rng):
    return [
        SampleSet(np.column_stack([rng.normal(1, 0.05, n), rng.normal(1.05, 0.01, n),
                                   rng.uniform(0.03, 0.12, n)]), ("theta1", "theta2", "sigma"))
        for n in (30, 45, 30)
    ]


@pytest.mark.parametrize("correlated", [False, True], ids=["diag", "corr"])
def test_stage2_slice_draws_match_reference_target(correlated, monkeypatch):
    """A short stage-2 slice run through the target of ``stage2_infer`` and
    one through the reference target draw the same bytes with the same
    number of log-target calls."""
    sets = _stage1_sets(np.random.default_rng(15))
    bounds = HyperPriorBounds.crack_default(correlated)
    captured = {}
    run = hierarchy.slice_sample
    monkeypatch.setattr(
        hierarchy, "slice_sample",
        lambda target, init, config: captured.update(target=target, init=init, config=config)
        or run(target, init, config),
    )
    case = "corr" if correlated else "diag"
    got = hierarchy.stage2_infer(sets, bounds, case, SamplerConfig(n_samples=40, seed=4))
    stacked = np.vstack([ss.samples for ss in sets])
    counts = np.array([ss.n for ss in sets])
    lower, upper = bounds.lower(correlated), bounds.upper(correlated)
    const = bounds.log_prior_const(correlated)

    def ref_target(vec):
        if np.any(vec < lower) or np.any(vec > upper):
            return -math.inf
        return const + ref_stage2(stacked, counts, 2, correlated, 0.2, vec)

    labels = captured["target"].labels
    target = TargetSpec(lower.size, ref_target, lower, upper, labels, name="stage2:ref")
    want = run(target, captured["init"], captured["config"])
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.provenance["n_evals"] == want.provenance["n_evals"] > 0


def test_stage2_one_vector_form_keeps_draws_and_counts(monkeypatch):
    """``stage2_infer`` draws the same samples with the same ``n_evals``
    whether the slice target is the one-vector form or the batch kernel
    called through ``vec[None]``."""
    sets = _stage1_sets(np.random.default_rng(16))
    bounds = HyperPriorBounds.crack_default()
    config = SamplerConfig(n_samples=40, seed=6)
    got = hierarchy.stage2_infer(sets, bounds, "diag", config)

    def through_batch(*args):
        batch, n_theta = _stage2_target_batch(*args)
        return (lambda vec: float(batch(vec[None])[0])), n_theta

    monkeypatch.setattr(hierarchy, "_stage2_target", through_batch)
    want = hierarchy.stage2_infer(sets, bounds, "diag", config)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.provenance == want.provenance


def test_box_checks_reject_each_coordinate(crack_fleet, monkeypatch):
    """The stage-1 and stage-2 slice targets return -inf as soon as any one
    coordinate leaves the prior box, and a finite value inside it. The
    current-unit and classical targets leave theta unbounded and keep sigma
    in an open interval: -inf on either bound, finite one ulp inside. For
    those two the likelihood is replaced by 0, so that only the support
    test decides (any likelihood is -inf at sigma = 5e-324)."""

    class Captured(Exception):
        pass

    targets = []

    def capture(target, rng, first_guess):
        targets.append(target)
        raise Captured

    find_init = hierarchy._find_init
    monkeypatch.setattr(hierarchy, "_find_init", capture)
    data = crack_fleet[0][0]
    config = SamplerConfig(n_samples=10, seed=1)
    with pytest.raises(Captured):
        hierarchy.stage1_infer(data, build_model(data), CRACK_BOUNDS, config)
    rng = np.random.default_rng(3)
    sets = [
        SampleSet(np.column_stack([rng.normal(1, 0.05, 30), rng.normal(1.05, 0.01, 30),
                                   rng.uniform(0.03, 0.12, 30)]), ("theta1", "theta2", "sigma"))
        for _ in range(3)
    ]
    with pytest.raises(Captured):
        hierarchy.stage2_infer(sets, HyperPriorBounds.crack_default(), "diag", config)
    # the targets that are sampled, after their starts are found
    monkeypatch.setattr(hierarchy, "_find_init", find_init)
    monkeypatch.setattr(hierarchy, "_slice_whitened", capture)
    monkeypatch.setattr(hierarchy, "dataset_loglik", lambda model, data, theta, sigma: 0.0)
    model = build_model(data)
    with pytest.raises(Captured):
        hierarchy.update_current(data, _hyper_set(False), model, config)
    prior = ClassicalPrior(means=(2.0, -19.5), sds=(0.2, 0.4), sigma_bounds=(1e-3, 0.15))
    with pytest.raises(Captured):
        hierarchy.classical_update(data, prior, model, config)
    assert [t.name.split(":")[0] for t in targets] == ["stage1", "stage2", "current", "classical"]
    for target, (s_lo, s_hi) in zip(targets[2:], [(0.0, 0.2), prior.sigma_bounds]):
        assert np.all(target.lower[:-1] == -np.inf) and np.all(target.upper[:-1] == np.inf)
        assert (target.lower[-1], target.upper[-1]) == (s_lo, s_hi)
        for theta in ([1.0, 1.05], [-1e3, 1e3], [1e3, -1e3]):
            for sigma, finite in ((s_lo, False), (np.nextafter(s_lo, 1.0), True),
                                  (np.nextafter(s_hi, 0.0), True), (s_hi, False)):
                lp = target.log_target(np.array([*theta, sigma]))
                assert math.isfinite(lp) == finite and lp != math.inf, (target.name, theta, sigma)
    for target in targets[:2]:
        mid = 0.5 * (target.lower + target.upper)
        assert math.isfinite(target.log_target(mid))
        for j in range(target.dim):
            for value in (target.lower[j] - 1e-9, target.upper[j] + 1e-9):
                x = mid.copy()
                x[j] = value
                assert target.log_target(x) == -math.inf, (target.name, j, value)
