"""Log-density building blocks against quadrature and brute-force oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import norm

from hbprog import hierarchy
from hbprog.hierarchy import _mixture_kernel, _stage2_target, stage2_infer, update_current
from hbprog.models import (
    BatteryDoubleModel,
    BatterySingleModel,
    ParisCrackModel,
    ignore_float_errors,
)
from hbprog.samplers import SampleSet, SamplerConfig, subseed
from hbprog.targets import (
    HyperParameters,
    HyperPriorBounds,
    HyperRowError,
    _decode_hyper_meta,
    dataset_loglik,
    gaussian_loglik,
    lognormal_loglik,
    logsumexp,
    segment_logsumexp,
    trunc_normal_logpdf,
)

from conftest import (
    CONST_LOADING,
    GEOMETRY,
    make_dataset,
    population_logpdf_oracle,
    stage2_loglik_oracle,
)


class _Captured(Exception):
    pass


def stage_target(stage, *args, **kwargs):
    """The log-target that ``stage``, a sampling stage of
    :mod:`hbprog.hierarchy`, hands to the stage runner; nothing is sampled."""

    def run_stage(name, labels, lower, upper, density, config, **kw):
        raise _Captured(density)

    with mock.patch.object(hierarchy, "_run_stage", run_stage), pytest.raises(_Captured) as info:
        stage(*args, **kwargs)
    return info.value.args[0]


def population_logpdf(psi, theta, sigma):
    """The population density of one unit under ``psi``: the mixture
    kernel over the one-row hyper set."""
    kernel = _mixture_kernel(psi.to_vector()[None], psi.n_theta, psi.correlated, psi.sigma_trunc)
    return kernel(np.array([*theta, sigma]))


def mixture_logpdf(hyper, theta, sigma):
    """The mixture prior of ``update_current`` over the hyper set."""
    return _mixture_kernel(hyper.samples, *_decode_hyper_meta(hyper))(np.array([*theta, sigma]))


def brute_hier_density(theta, sigma, psi):
    """Direct density computation from explicit matrix algebra and the
    plain normal CDF, independent of the vectorized kernels."""
    d = len(theta)
    if psi.correlated:
        s1, s2 = psi.sd0
        cov = np.array([[s1**2, psi.rho * s1 * s2], [psi.rho * s1 * s2, s2**2]])
        diff = np.asarray(theta) - psi.mu0
        det = np.linalg.det(cov)
        quad_form = diff @ np.linalg.inv(cov) @ diff
        theta_pdf = math.exp(-0.5 * quad_form) / math.sqrt((2 * math.pi) ** d * det)
    else:
        theta_pdf = np.prod(norm.pdf(theta, psi.mu0, psi.sd0))
    z = norm.cdf(psi.sigma_trunc, psi.mu_sigma, psi.sd_sigma) - norm.cdf(
        0.0, psi.mu_sigma, psi.sd_sigma
    )
    sigma_pdf = norm.pdf(sigma, psi.mu_sigma, psi.sd_sigma) / z if 0 < sigma < psi.sigma_trunc else 0.0
    return theta_pdf * sigma_pdf


class TestLognormal:
    def test_implied_mean_identity(self):
        # eta is defined so the distribution mean equals the prediction
        pred, sigma = 20.0, 1.0
        zeta2 = math.log1p((sigma / pred) ** 2)
        eta = math.log(pred) - zeta2 / 2
        assert math.exp(eta + zeta2 / 2) == pytest.approx(pred, rel=1e-14)

    def test_density_normalizes(self):
        total, err = quad(lambda y: math.exp(lognormal_loglik(y, 20.0, 1.0)), 1e-9, 200.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mean_by_quadrature(self):
        mean, _ = quad(lambda y: y * math.exp(lognormal_loglik(y, 20.0, 1.0)), 1e-9, 400.0)
        assert mean == pytest.approx(20.0, abs=1e-6)

    def test_density_grows_as_noise_vanishes(self):
        pred = 10.0
        vals = [lognormal_loglik(pred, pred, pred * ratio) for ratio in (0.05, 0.01, 0.001)]
        assert math.isfinite(vals[0])
        assert vals[0] < vals[1] < vals[2]

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            lognormal_loglik(-1.0, 5.0, 0.1)
        with pytest.raises(ValueError):
            lognormal_loglik(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            lognormal_loglik(1.0, 5.0, 0.0)

    def test_elementwise_sum_is_series_loglik(self):
        y = np.array([1.1, 2.2, 3.0])
        pred = np.array([1.0, 2.0, 3.1])
        total = lognormal_loglik(y, pred, 0.2).sum()
        by_hand = sum(lognormal_loglik(float(a), float(b), 0.2) for a, b in zip(y, pred))
        assert total == pytest.approx(by_hand, rel=1e-12)


class TestGaussian:
    def test_zero_residual(self):
        assert gaussian_loglik(3.0, 3.0, 0.5) == pytest.approx(
            -0.5 * math.log(2 * math.pi * 0.25), rel=1e-12
        )

    def test_unit_residual_frozen_value(self):
        assert gaussian_loglik(1.0, 0.0, 1.0) == pytest.approx(-1.4189385332046727, rel=1e-12)

    def test_density_normalizes(self):
        total, _ = quad(lambda y: math.exp(gaussian_loglik(y, 1.4, 0.05)), 0.6, 2.2)
        assert total == pytest.approx(1.0, abs=1e-6)

    @given(r=st.floats(0, 50), sigma=st.floats(0.01, 10))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, r, sigma):
        left = gaussian_loglik(2.0 + r, 2.0, sigma)
        right = gaussian_loglik(2.0 - r, 2.0, sigma)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_loglik(1.0, 1.0, 0.0)


class TestLogSumExpHelpers:
    @given(
        vals=st.lists(st.floats(-500, 500), min_size=1, max_size=30),
        shift=st.floats(-300, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_identity(self, vals, shift):
        x = np.array(vals)
        assert logsumexp(x + shift) == pytest.approx(logsumexp(x) + shift, abs=1e-12)

    def test_all_neg_inf(self):
        assert logsumexp(np.array([-math.inf, -math.inf])) == -math.inf

    def test_segment_version_matches_per_segment(self):
        vals = np.array([0.0, 1.0, -2.0, 5.0, -math.inf, -math.inf, 3.0])
        starts = np.array([0, 3, 4, 6])
        got = segment_logsumexp(vals, starts)
        want = [logsumexp(vals[0:3]), logsumexp(vals[3:4]), logsumexp(vals[4:6]), logsumexp(vals[6:])]
        np.testing.assert_allclose(got, want)
        assert got[2] == -math.inf


class TestHierPrior:
    PSI = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)

    def test_diagonal_factorizes(self):
        got = population_logpdf(self.PSI, [0.94, 1.01], 0.06)
        want = (
            norm.logpdf(0.94, 1.0, 0.1)
            + norm.logpdf(1.01, 1.05, 0.03)
            + trunc_normal_logpdf(0.06, 0.08, 0.04, 0.0, 0.2)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_standardized_mode(self):
        psi = HyperParameters(mu0=[0.3, -0.7], sd0=[1.0, 1.0], mu_sigma=0.1, sd_sigma=0.05)
        theta_part = population_logpdf(psi, [0.3, -0.7], 0.1) - trunc_normal_logpdf(
            0.1, 0.1, 0.05, 0.0, 0.2
        )
        assert theta_part == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    def test_correlated_vs_matrix_algebra_oracle(self):
        psi = HyperParameters(
            mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04, rho=0.6
        )
        want = math.log(brute_hier_density([1.13, 1.02], 0.11, psi))
        assert population_logpdf(psi, [1.13, 1.02], 0.11) == pytest.approx(want, rel=1e-10)
        # the pooled stage-2 target of that one draw
        loglik, _ = _stage2_target(
            [np.array([[1.13, 1.02, 0.11]])], HyperPriorBounds.crack_default(True), True, 0.2
        )
        assert loglik(psi.to_vector()) == pytest.approx(want, rel=1e-10)

    def test_sigma_outside_truncation_rejected(self):
        """A sigma of 0.25, outside (0, 0.2), has no density in the pooled
        stage-2 target or in the current unit's target."""
        loglik, _ = _stage2_target(
            [np.array([[1.0, 1.05, 0.25]])], HyperPriorBounds.crack_default(), False, 0.2
        )
        assert loglik(self.PSI.to_vector()) == -math.inf
        hyper = SampleSet(
            self.PSI.to_vector()[None],
            HyperParameters.labels(2, False),
            {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
        )
        target = stage_target(
            update_current, make_dataset([1000, 2000], [1.05, 1.12]), hyper,
            ParisCrackModel(GEOMETRY, CONST_LOADING), SamplerConfig(n_samples=10, seed=0),
        )
        assert target(np.array([1.0, 1.05, 0.25])) == -math.inf
        assert math.isfinite(target(np.array([1.0, 1.05, 0.15])))

    def test_psi_without_sigma_mass_rejected(self):
        psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=5.0, sd_sigma=0.03)
        with pytest.raises(HyperRowError, match="sigma mass"):
            population_logpdf(psi, [1.0, 1.05], 0.1)
        loglik, _ = _stage2_target(
            [np.array([[1.0, 1.05, 0.1]])], HyperPriorBounds.crack_default(), False, 0.2
        )
        assert loglik(psi.to_vector()) == -math.inf

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            HyperParameters(mu0=[1.0, 1.0], sd0=[0.1, 0.1], mu_sigma=0.1, sd_sigma=0.1, rho=1.0)

    def test_truncated_normal_normalizes(self):
        total, _ = quad(lambda x: math.exp(trunc_normal_logpdf(x, 0.08, 0.04, 0.0, 0.2)), 0, 0.2)
        assert total == pytest.approx(1.0, abs=1e-9)


def _sample_set(rows, n_theta=2, correlated=False, sigma_trunc=0.2):
    rows = np.asarray(rows, dtype=float)
    labels = tuple(f"theta{j+1}" for j in range(rows.shape[1] - 1)) + ("sigma",)
    return SampleSet(
        rows,
        labels,
        {"n_theta": n_theta, "correlated": correlated, "sigma_trunc": sigma_trunc},
    )


class TestHyperPosterior:
    """The log-target of the slice-sampled ``stage2_infer``: the box check,
    the box's log constant and the one-vector stage-2 kernel."""

    BOUNDS = HyperPriorBounds.crack_default()
    PSI = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)

    def target(self, sets, bounds=BOUNDS, case="diag"):
        return stage_target(stage2_infer, sets, bounds, case, SamplerConfig(n_samples=10, seed=0))

    def test_single_sample_degeneracy(self):
        row = np.array([[0.97, 1.06, 0.05]])
        got = self.target([_sample_set(row)])(self.PSI.to_vector())
        want = self.BOUNDS.log_prior_const(False) + population_logpdf(self.PSI, row[0, :2], row[0, 2])
        assert got == pytest.approx(want, rel=1e-12)

    def test_brute_force_toy_case(self):
        rng = np.random.default_rng(5)
        set_a = 1.0 + 0.05 * rng.standard_normal((3, 3))
        set_b = 1.0 + 0.05 * rng.standard_normal((5, 3))
        for mat in (set_a, set_b):
            mat[:, 2] = np.abs(mat[:, 2]) * 0.1
        got = self.target([_sample_set(set_a), _sample_set(set_b)])(self.PSI.to_vector())
        # naive exp-then-average-then-log with the matrix-algebra density
        want = self.BOUNDS.log_prior_const(False)
        for mat in (set_a, set_b):
            dens = [brute_hier_density(r[:2], r[2], self.PSI) for r in mat]
            want += math.log(sum(dens) / len(dens))
        assert got == pytest.approx(want, abs=1e-10)

    def test_duplication_invariance(self):
        rows = np.array([[0.95, 1.04, 0.06], [1.08, 1.02, 0.09]])
        vec = self.PSI.to_vector()
        once = self.target([_sample_set(rows)])(vec)
        twice = self.target([_sample_set(np.vstack([rows, rows]))])(vec)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        rows = np.column_stack(
            [1 + 0.1 * rng.standard_normal(6), 1 + 0.02 * rng.standard_normal(6),
             0.05 + 0.01 * rng.random(6)]
        )
        vec = self.PSI.to_vector()
        a = self.target([_sample_set(rows)])(vec)
        b = self.target([_sample_set(rows[::-1].copy())])(vec)
        assert a == b

    def test_out_of_bounds_psi(self):
        psi = HyperParameters(mu0=[2.5, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
        rows = np.array([[0.95, 1.04, 0.06]])
        assert self.target([_sample_set(rows)])(psi.to_vector()) == -math.inf

    def test_empty_set_rejected(self):
        cfg = SamplerConfig(n_samples=10, seed=0)
        for sets in ([], [_sample_set(np.empty((0, 3)))]):
            for sampler in ("slice", "tmcmc"):
                with pytest.raises(ValueError, match="nonempty matrix"):
                    stage2_infer(sets, self.BOUNDS, config=cfg, sampler=sampler)


    def test_stage2_closure_matches_scipy_oracle(self):
        """The one-vector stage-2 kernel plus the box's log constant agrees
        with the scipy.stats population density, pooled by hand."""
        rng = np.random.default_rng(3)
        sets = []
        for n in (4, 7):
            rows = np.column_stack(
                [1 + 0.1 * rng.standard_normal(n), 1 + 0.02 * rng.standard_normal(n),
                 0.02 + 0.15 * rng.random(n)]
            )
            sets.append(_sample_set(rows))
        vec = self.PSI.to_vector()
        got = self.target(sets)(vec)
        want = self.BOUNDS.log_prior_const(False) + stage2_loglik_oracle(
            [ss.samples for ss in sets], vec, 2, False, 0.2
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_stage2_closure_matches_scipy_oracle_correlated(self):
        rng = np.random.default_rng(4)
        rows = np.column_stack(
            [1 + 0.1 * rng.standard_normal(5), 1 + 0.02 * rng.standard_normal(5),
             0.02 + 0.15 * rng.random(5)]
        )
        bounds = HyperPriorBounds.crack_default(correlated=True)
        psi = HyperParameters(
            mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04, rho=-0.4
        )
        got = self.target([_sample_set(rows, correlated=True)], bounds, "corr")(psi.to_vector())
        want = bounds.log_prior_const(True) + stage2_loglik_oracle(
            [rows], psi.to_vector(), 2, True, 0.2
        )
        assert got == pytest.approx(want, rel=1e-12)


class TestMixturePrior:
    def _hyper_set(self, rows, correlated=False):
        rows = np.asarray(rows, dtype=float)
        labels = HyperParameters.labels(2, correlated)
        return SampleSet(
            rows, labels, {"n_theta": 2, "correlated": correlated, "sigma_trunc": 0.2}
        )

    def test_single_component_reduction(self):
        psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
        hyper = self._hyper_set([psi.to_vector()])
        want = math.log(brute_hier_density([0.9, 1.07], 0.05, psi))
        assert mixture_logpdf(hyper, [0.9, 1.07], 0.05) == pytest.approx(want, rel=1e-12)

    def test_repeated_components_match_single(self):
        psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
        hyper1 = self._hyper_set([psi.to_vector()])
        hyper5 = self._hyper_set([psi.to_vector()] * 5)
        assert mixture_logpdf(hyper5, [1.1, 1.0], 0.12) == pytest.approx(
            mixture_logpdf(hyper1, [1.1, 1.0], 0.12), rel=1e-12
        )

    def test_three_component_brute_force(self):
        psis = [
            HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04),
            HyperParameters(mu0=[0.9, 1.00], sd0=[0.2, 0.05], mu_sigma=0.05, sd_sigma=0.02),
            HyperParameters(mu0=[1.2, 1.10], sd0=[0.05, 0.01], mu_sigma=0.12, sd_sigma=0.06),
        ]
        hyper = self._hyper_set([p.to_vector() for p in psis])
        want = math.log(np.mean([brute_hier_density([1.02, 1.04], 0.07, p) for p in psis]))
        assert mixture_logpdf(hyper, [1.02, 1.04], 0.07) == pytest.approx(want, abs=1e-10)

    def test_fast_kernel_matches_scipy_oracle(self):
        rng = np.random.default_rng(12)
        rows = np.column_stack(
            [
                1 + 0.1 * rng.standard_normal(8),
                1 + 0.05 * rng.standard_normal(8),
                0.02 + 0.2 * rng.random(8),
                0.01 + 0.1 * rng.random(8),
                0.01 + 0.05 * rng.random(8),
                0.01 + 0.04 * rng.random(8),
            ]
        )
        hyper = self._hyper_set(rows)
        for theta, sigma in (([0.95, 1.01], 0.05), ([1.3, 0.8], 0.19)):
            comps = [population_logpdf_oracle([*theta, sigma], v, 2, False, 0.2)[0] for v in rows]
            want = scipy_logsumexp(comps) - math.log(len(rows))
            assert mixture_logpdf(hyper, theta, sigma) == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        hyper = self._hyper_set(np.empty((0, 6)))
        with pytest.raises(ValueError):
            mixture_logpdf(hyper, [1.0, 1.0], 0.1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        rows = np.column_stack(
            [1 + 0.1 * rng.standard_normal(5), 1 + 0.05 * rng.standard_normal(5),
             0.05 + 0.1 * rng.random(5), 0.05 + 0.1 * rng.random(5),
             0.02 + 0.05 * rng.random(5), 0.01 + 0.05 * rng.random(5)]
        )
        a = mixture_logpdf(self._hyper_set(rows), [1.0, 1.0], 0.08)
        b = mixture_logpdf(self._hyper_set(rows[::-1].copy()), [1.0, 1.0], 0.08)
        assert a == pytest.approx(b, rel=1e-14)


class TestCurrentPosterior:
    """The log-target of ``update_current``: the mixture prior plus
    ``dataset_loglik``."""

    MODEL = ParisCrackModel(GEOMETRY, CONST_LOADING)
    CONFIG = SamplerConfig(n_samples=10, seed=0)

    def _hyper_set(self):
        psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
        return SampleSet(
            np.vstack([psi.to_vector(), psi.to_vector() * 1.01]),
            HyperParameters.labels(2, False),
            {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
        )

    def test_compositional_toy_case(self):
        hyper = self._hyper_set()
        data = make_dataset([1000, 2000], [1.05, 1.12])
        target = stage_target(update_current, data, hyper, self.MODEL, self.CONFIG)
        theta, sigma = np.array([1.0, 1.05]), 0.05
        psis = [HyperParameters(r[:2], r[3:5], r[2], r[5]) for r in hyper.samples]
        prior = math.log(np.mean([brute_hier_density(theta, sigma, p) for p in psis]))
        want = dataset_loglik(self.MODEL, data, theta, sigma) + prior
        assert target(np.array([*theta, sigma])) == pytest.approx(want, rel=1e-12)

    def test_zero_data_recovers_prior(self):
        """No current data, or an empty series, gives the mixture prior's
        ancestral draws."""
        hyper = self._hyper_set()
        want = hierarchy.sample_mixture_prior(
            hyper, self.CONFIG.n_samples, subseed(self.CONFIG.seed, hierarchy._TAG_CURRENT)
        )
        empty = make_dataset([], [])
        for data in (None, empty):
            got = update_current(data, hyper, self.MODEL, self.CONFIG)
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.provenance["sampler"] == "ancestral-mixture"

    def test_model_divergence_rejected(self):
        hyper = self._hyper_set()
        data = make_dataset([1000, 50000], [1.05, 20.0])
        target = stage_target(update_current, data, hyper, self.MODEL, self.CONFIG)
        # m = 3 diverges before 5e4
        assert target(np.array([1.5, 1.0, 0.05])) == -math.inf

    def test_empty_mixture_rejected(self):
        bad = SampleSet(
            np.empty((0, 6)),
            HyperParameters.labels(2, False),
            {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
        )
        with pytest.raises(ValueError):
            update_current(None, bad, self.MODEL, self.CONFIG)


class TestNoNaNs:
    @given(
        theta1=st.floats(-3, 3, allow_nan=False),
        theta2=st.floats(-3, 3, allow_nan=False),
        sigma=st.floats(1e-6, 0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_targets_never_nan(self, theta1, theta2, sigma):
        psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
        hyper = SampleSet(
            np.vstack([psi.to_vector()]),
            HyperParameters.labels(2, False),
            {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
        )
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        data = make_dataset([0, 8000, 16000], [1.0, 1.4, 2.1])
        target = stage_target(update_current, data, hyper, model, SamplerConfig(n_samples=10))
        val = target(np.array([theta1, theta2, sigma]))
        assert not math.isnan(val)
        assert not math.isnan(dataset_loglik(model, data, np.array([theta1, theta2]), sigma))

    def test_battery_dataset_loglik_matches_public(self):
        model = BatterySingleModel()
        data = make_dataset(
            [1, 10, 20], [1.99, 1.95, 1.90], family="batt-single", loading=None, geometry=None
        )
        theta = np.array([1.0, 1.0, 1.0])
        preds = model.predict(theta, data.cycles_float)
        want = float(np.sum(gaussian_loglik(data.values, preds, 0.02)))
        assert dataset_loglik(model, data, theta, 0.02) == pytest.approx(want, rel=1e-12)

    def test_crack_dataset_loglik_matches_public(self):
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        data = make_dataset([0, 8000, 16000], [1.0, 1.4, 2.1])
        theta = np.array([1.0, 1.05])
        preds = model.predict(theta, data.cycles_float)
        want = float(np.sum(lognormal_loglik(data.values, preds, 0.05)))
        assert dataset_loglik(model, data, theta, 0.05) == pytest.approx(want, rel=1e-12)


class TestFloatErrorState:
    @pytest.mark.parametrize("family", ["paris", "batt-single", "batt-double"])
    def test_dataset_loglik_error_states(self, errstate_entries, family):
        """Each family's scalar log-likelihood enters one ``np.errstate``
        called on its own (two before the sampling stages shared theirs) and
        none inside :func:`ignore_float_errors`, with the same bytes."""
        if family == "paris":
            model = ParisCrackModel(GEOMETRY, CONST_LOADING)
            data = make_dataset([0, 8000, 16000], [1.0, 1.4, 2.1])
            theta = np.array([1.0, 1.05])
        else:
            model = BatterySingleModel() if family == "batt-single" else BatteryDoubleModel()
            data = make_dataset(
                [1, 10, 20], [1.99, 1.95, 1.90], family=family, loading=None, geometry=None
            )
            theta = np.ones(model.n_theta)
        alone = dataset_loglik(model, data, theta, 0.05)
        assert errstate_entries.entries == 1
        with ignore_float_errors():
            errstate_entries.entries = 0
            inside = [dataset_loglik(model, data, theta * s, 0.05) for s in (1.0, 0.5, -1.0)]
            assert errstate_entries.entries == 0
        assert math.isfinite(alone) and inside[0] == alone and inside[2] == -math.inf
