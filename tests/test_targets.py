"""Log-density building blocks against quadrature and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import norm

from hbprog.hierarchy import _mixture_kernel, _stage2_target
from hbprog.models import BatterySingleModel, ParisCrackModel
from hbprog.samplers import SampleSet
from hbprog.targets import (
    HyperParameters,
    HyperPriorBounds,
    ParameterVector,
    current_posterior_logtarget,
    dataset_loglik,
    gaussian_loglik,
    hier_prior_logpdf,
    hyper_posterior_logtarget,
    lognormal_loglik,
    logsumexp,
    mixture_prior_logpdf,
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
        pv = ParameterVector(np.array([0.94, 1.01]), 0.06)
        got = hier_prior_logpdf(pv, self.PSI)
        want = (
            norm.logpdf(0.94, 1.0, 0.1)
            + norm.logpdf(1.01, 1.05, 0.03)
            + trunc_normal_logpdf(0.06, 0.08, 0.04, 0.0, 0.2)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_standardized_mode(self):
        psi = HyperParameters(mu0=[0.3, -0.7], sd0=[1.0, 1.0], mu_sigma=0.1, sd_sigma=0.05)
        pv = ParameterVector(np.array([0.3, -0.7]), 0.1)
        theta_part = hier_prior_logpdf(pv, psi) - trunc_normal_logpdf(0.1, 0.1, 0.05, 0.0, 0.2)
        assert theta_part == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    def test_correlated_vs_matrix_algebra_oracle(self):
        psi = HyperParameters(
            mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04, rho=0.6
        )
        pv = ParameterVector(np.array([1.13, 1.02]), 0.11)
        want = math.log(brute_hier_density(pv.theta, pv.sigma, psi))
        assert hier_prior_logpdf(pv, psi) == pytest.approx(want, rel=1e-10)

    def test_sigma_outside_truncation_rejected(self):
        pv = ParameterVector(np.array([1.0, 1.05]), 0.25)
        assert hier_prior_logpdf(pv, self.PSI) == -math.inf

    def test_psi_without_sigma_mass_rejected(self):
        psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=5.0, sd_sigma=0.03)
        pv = ParameterVector(np.array([1.0, 1.05]), 0.1)
        with pytest.raises(ValueError, match="sigma mass"):
            hier_prior_logpdf(pv, psi)

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
    BOUNDS = HyperPriorBounds.crack_default()
    PSI = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)

    def test_single_sample_degeneracy(self):
        row = np.array([[0.97, 1.06, 0.05]])
        got = hyper_posterior_logtarget(self.PSI, [_sample_set(row)], self.BOUNDS)
        pv = ParameterVector(row[0, :2], row[0, 2])
        want = self.BOUNDS.log_prior_const(False) + hier_prior_logpdf(pv, self.PSI)
        assert got == pytest.approx(want, rel=1e-12)

    def test_brute_force_toy_case(self):
        rng = np.random.default_rng(5)
        set_a = 1.0 + 0.05 * rng.standard_normal((3, 3))
        set_b = 1.0 + 0.05 * rng.standard_normal((5, 3))
        for mat in (set_a, set_b):
            mat[:, 2] = np.abs(mat[:, 2]) * 0.1
        sets = [_sample_set(set_a), _sample_set(set_b)]
        got = hyper_posterior_logtarget(self.PSI, sets, self.BOUNDS)
        # naive exp-then-average-then-log with the matrix-algebra density
        want = self.BOUNDS.log_prior_const(False)
        for mat in (set_a, set_b):
            dens = [brute_hier_density(r[:2], r[2], self.PSI) for r in mat]
            want += math.log(sum(dens) / len(dens))
        assert got == pytest.approx(want, abs=1e-10)

    def test_duplication_invariance(self):
        rows = np.array([[0.95, 1.04, 0.06], [1.08, 1.02, 0.09]])
        once = hyper_posterior_logtarget(self.PSI, [_sample_set(rows)], self.BOUNDS)
        twice = hyper_posterior_logtarget(
            self.PSI, [_sample_set(np.vstack([rows, rows]))], self.BOUNDS
        )
        assert twice == pytest.approx(once, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        rows = np.column_stack(
            [1 + 0.1 * rng.standard_normal(6), 1 + 0.02 * rng.standard_normal(6),
             0.05 + 0.01 * rng.random(6)]
        )
        a = hyper_posterior_logtarget(self.PSI, [_sample_set(rows)], self.BOUNDS)
        b = hyper_posterior_logtarget(self.PSI, [_sample_set(rows[::-1].copy())], self.BOUNDS)
        assert a == b

    def test_out_of_bounds_psi(self):
        psi = HyperParameters(mu0=[2.5, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
        rows = np.array([[0.95, 1.04, 0.06]])
        assert hyper_posterior_logtarget(psi, [_sample_set(rows)], self.BOUNDS) == -math.inf

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            hyper_posterior_logtarget(self.PSI, [], self.BOUNDS)
        with pytest.raises(ValueError):
            hyper_posterior_logtarget(
                self.PSI, [_sample_set(np.empty((0, 3)))], self.BOUNDS
            )

    def test_stage2_closure_matches_public_op(self):
        """The fused sampling kernel must agree with the public target."""
        rng = np.random.default_rng(3)
        sets = []
        for n in (4, 7):
            rows = np.column_stack(
                [1 + 0.1 * rng.standard_normal(n), 1 + 0.02 * rng.standard_normal(n),
                 0.02 + 0.15 * rng.random(n)]
            )
            sets.append(_sample_set(rows))
        loglik, _ = _stage2_target(sets, self.BOUNDS, False, 0.2)
        vec = self.PSI.to_vector()
        got = self.BOUNDS.log_prior_const(False) + loglik(vec)
        want = self.BOUNDS.log_prior_const(False) + stage2_loglik_oracle(
            [ss.samples for ss in sets], vec, 2, False, 0.2
        )
        assert got == pytest.approx(want, rel=1e-12)
        assert hyper_posterior_logtarget(self.PSI, sets, self.BOUNDS) == got

    def test_stage2_closure_matches_public_op_correlated(self):
        rng = np.random.default_rng(4)
        rows = np.column_stack(
            [1 + 0.1 * rng.standard_normal(5), 1 + 0.02 * rng.standard_normal(5),
             0.02 + 0.15 * rng.random(5)]
        )
        bounds = HyperPriorBounds.crack_default(correlated=True)
        psi = HyperParameters(
            mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04, rho=-0.4
        )
        sets = [_sample_set(rows, correlated=True)]
        loglik, _ = _stage2_target(sets, bounds, True, 0.2)
        got = bounds.log_prior_const(True) + loglik(psi.to_vector())
        want = bounds.log_prior_const(True) + stage2_loglik_oracle(
            [rows], psi.to_vector(), 2, True, 0.2
        )
        assert got == pytest.approx(want, rel=1e-12)
        assert hyper_posterior_logtarget(psi, sets, bounds) == got


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
        pv = ParameterVector(np.array([0.9, 1.07]), 0.05)
        assert mixture_prior_logpdf(pv, hyper) == pytest.approx(
            hier_prior_logpdf(pv, psi), rel=1e-12
        )

    def test_repeated_components_match_single(self):
        psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
        hyper1 = self._hyper_set([psi.to_vector()])
        hyper5 = self._hyper_set([psi.to_vector()] * 5)
        pv = ParameterVector(np.array([1.1, 1.0]), 0.12)
        assert mixture_prior_logpdf(pv, hyper5) == pytest.approx(
            mixture_prior_logpdf(pv, hyper1), rel=1e-12
        )

    def test_three_component_brute_force(self):
        psis = [
            HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04),
            HyperParameters(mu0=[0.9, 1.00], sd0=[0.2, 0.05], mu_sigma=0.05, sd_sigma=0.02),
            HyperParameters(mu0=[1.2, 1.10], sd0=[0.05, 0.01], mu_sigma=0.12, sd_sigma=0.06),
        ]
        hyper = self._hyper_set([p.to_vector() for p in psis])
        pv = ParameterVector(np.array([1.02, 1.04]), 0.07)
        want = math.log(np.mean([brute_hier_density(pv.theta, pv.sigma, p) for p in psis]))
        assert mixture_prior_logpdf(pv, hyper) == pytest.approx(want, abs=1e-10)

    def test_fast_kernel_matches_public_op(self):
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
        kern = _mixture_kernel(rows, 2, False, 0.2)
        for pv in (
            ParameterVector(np.array([0.95, 1.01]), 0.05),
            ParameterVector(np.array([1.3, 0.8]), 0.19),
        ):
            comps = [population_logpdf_oracle(pv.as_row(), v, 2, False, 0.2)[0] for v in rows]
            want = scipy_logsumexp(comps) - math.log(len(rows))
            assert kern(pv.as_row()) == pytest.approx(want, rel=1e-12)
            assert mixture_prior_logpdf(pv, hyper) == kern(pv.as_row())

    def test_empty_rejected(self):
        hyper = self._hyper_set(np.empty((0, 6)))
        with pytest.raises(ValueError):
            mixture_prior_logpdf(ParameterVector(np.array([1.0, 1.0]), 0.1), hyper)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        rows = np.column_stack(
            [1 + 0.1 * rng.standard_normal(5), 1 + 0.05 * rng.standard_normal(5),
             0.05 + 0.1 * rng.random(5), 0.05 + 0.1 * rng.random(5),
             0.02 + 0.05 * rng.random(5), 0.01 + 0.05 * rng.random(5)]
        )
        pv = ParameterVector(np.array([1.0, 1.0]), 0.08)
        a = mixture_prior_logpdf(pv, self._hyper_set(rows))
        b = mixture_prior_logpdf(pv, self._hyper_set(rows[::-1].copy()))
        assert a == pytest.approx(b, rel=1e-14)


class TestCurrentPosterior:
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
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        pv = ParameterVector(np.array([1.0, 1.05]), 0.05)
        want = dataset_loglik(model, data, pv.theta, pv.sigma) + mixture_prior_logpdf(pv, hyper)
        got = current_posterior_logtarget(pv, data, hyper, model)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_data_recovers_prior(self):
        hyper = self._hyper_set()
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        pv = ParameterVector(np.array([0.93, 1.08]), 0.11)
        assert current_posterior_logtarget(pv, None, hyper, model) == pytest.approx(
            mixture_prior_logpdf(pv, hyper), rel=1e-12
        )

    def test_model_divergence_rejected(self):
        hyper = self._hyper_set()
        data = make_dataset([1000, 50000], [1.05, 20.0])
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        pv = ParameterVector(np.array([1.5, 1.0]), 0.05)  # m = 3 diverges before 5e4
        assert current_posterior_logtarget(pv, data, hyper, model) == -math.inf

    def test_empty_mixture_rejected(self):
        bad = SampleSet(
            np.empty((0, 6)),
            HyperParameters.labels(2, False),
            {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
        )
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        pv = ParameterVector(np.array([1.0, 1.0]), 0.1)
        with pytest.raises(ValueError):
            current_posterior_logtarget(pv, None, bad, model)


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
        pv = ParameterVector(np.array([theta1, theta2]), sigma)
        val = current_posterior_logtarget(pv, data, hyper, model)
        assert not math.isnan(val)
        assert dataset_loglik(model, data, pv.theta, pv.sigma) is not None

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
