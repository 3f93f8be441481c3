"""The scalar log-target paths the slice sampler and DE initialisation call
(Paris ``predict``, ``dataset_loglik``, the one-vector stage-2 target, the
segment and mixture log-sum-exps) must give the same bits as a plain
reference of the arithmetic they replace: cached constants and cheaper
checks may not move a single draw.

The references below evaluate the same numpy/math operations in the same
order, but recompute every constant per call and scan the curve for bad
values explicitly. Comparisons are on the bytes of the results, not within
a tolerance.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

import hbprog.hierarchy as hierarchy
from hbprog.hierarchy import Dataset, _stage2_target, build_model
from hbprog.models import (
    PARIS_M_TOL,
    BatteryDoubleModel,
    CrackGeometry,
    LoadingSpec,
    ParisCrackModel,
    _log_ds,
)
from hbprog.samplers import SampleSet, SamplerConfig, TargetSpec
from hbprog.targets import (
    LOG_TWO_PI,
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
    with np.errstate(divide="ignore", invalid="ignore"):
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


@pytest.mark.parametrize("correlated", [False, True], ids=["diag", "corr"])
def test_stage2_one_vector_matches_reference(correlated):
    rng = np.random.default_rng(12)
    mats = [
        np.column_stack([rng.normal(1, 0.05, n), rng.normal(1.05, 0.01, n), rng.uniform(0.03, 0.12, n)])
        for n in (40, 25, 40)
    ]
    mats[1][3, -1] = 0.25  # a sigma draw outside the truncation range
    sets = [SampleSet(m, ("theta1", "theta2", "sigma")) for m in mats]
    bounds = HyperPriorBounds.crack_default(correlated)
    loglik, n_theta = _stage2_target(sets, bounds, correlated, 0.2)
    stacked = np.vstack(mats)
    counts = np.array([m.shape[0] for m in mats])
    base = [1.0, 1.05, 0.08, 0.05, 0.01, 0.03] + ([0.3] if correlated else [])
    vecs = [base]
    for _ in range(20):
        vecs.append(list(np.array(base) * rng.uniform(0.5, 1.5, len(base))))
    bad = [(3, 0.0), (4, -0.01), (5, 0.0), (2, 5.0)]  # sd = 0, sd < 0, sd_sigma = 0, no mass
    if correlated:
        bad += [(6, 1.0), (6, -1.0), (6, 1.5)]
    for j, value in bad:
        v = list(base)
        v[j] = value
        vecs.append(v)
    for vec in vecs:
        vec = np.array(vec)
        assert same(loglik(vec), ref_stage2(stacked, counts, n_theta, correlated, 0.2, vec)), vec


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


def test_box_checks_reject_each_coordinate(crack_fleet, monkeypatch):
    """The stage-1 and stage-2 slice targets return -inf as soon as any one
    coordinate leaves the prior box, and a finite value inside it."""

    class Captured(Exception):
        pass

    targets = []

    def capture(target, rng, first_guess):
        targets.append(target)
        raise Captured

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
    assert [t.name.split(":")[0] for t in targets] == ["stage1", "stage2"]
    for target in targets:
        mid = 0.5 * (target.lower + target.upper)
        assert math.isfinite(target.log_target(mid))
        for j in range(target.dim):
            for value in (target.lower[j] - 1e-9, target.upper[j] + 1e-9):
                x = mid.copy()
                x[j] = value
                assert target.log_target(x) == -math.inf, (target.name, j, value)
