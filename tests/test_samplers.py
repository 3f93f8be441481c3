"""Slice sampler and TMCMC against analytic and distributional oracles."""

import math

import numpy as np
import pytest
from scipy.stats import kstest, norm

from hbprog.samplers import (
    _choose_dbeta,
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

CONJUGATE_LOG_EVIDENCE = -1.5155121234846454  # log N(y=1 | 0, 2), frozen analytic value


def std_normal_target(dim=1):
    return TargetSpec(dim, lambda x: -0.5 * float(x @ x), name="std-normal")


def conjugate_target():
    """Prior mu ~ N(0,1), one observation y = 1 with y | mu ~ N(mu, 1)."""

    def sample_prior(rng, n):
        return rng.standard_normal((n, 1))

    def prior_logpdf(x):
        return -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2 * math.pi)

    def loglik(x):
        return -0.5 * (1.0 - x[:, 0]) ** 2 - 0.5 * math.log(2 * math.pi)

    return TemperedTarget(1, sample_prior, prior_logpdf, loglik, ("mu",), "conjugate")


class TestSliceSampler:
    def test_standard_normal_moments(self):
        out = slice_sample(std_normal_target(), np.zeros(1), SamplerConfig(n_samples=5000, seed=11))
        assert abs(out.samples.mean()) < 4 / math.sqrt(5000)
        assert abs(out.samples.var() - 1.0) < 0.1

    def test_uniform_flat_target_ks(self):
        target = TargetSpec(
            1, lambda x: 0.0, lower=np.array([0.0]), upper=np.array([1.0]), name="unit-flat"
        )
        out = slice_sample(target, np.array([0.5]), SamplerConfig(n_samples=4000, seed=3))
        stat, pvalue = kstest(out.samples[:, 0], "uniform")
        assert pvalue > 0.01

    def test_determinism(self):
        cfg = SamplerConfig(n_samples=500, seed=42)
        a = slice_sample(std_normal_target(2), np.zeros(2), cfg)
        b = slice_sample(std_normal_target(2), np.zeros(2), cfg)
        assert np.array_equal(a.samples, b.samples)
        assert a.provenance == b.provenance

    def test_n_evals_counts_every_log_target_call(self):
        calls = []

        def log_target(x):
            calls.append(1)
            return -0.5 * float(x @ x)

        target = TargetSpec(2, log_target, name="counted")
        out = slice_sample(target, np.zeros(2), SamplerConfig(n_samples=50, seed=8))
        assert out.provenance["n_evals"] == len(calls) > 1

    def test_init_outside_support_rejected(self):
        target = TargetSpec(
            1, lambda x: 0.0, lower=np.array([0.0]), upper=np.array([1.0])
        )
        with pytest.raises(SamplerError):
            slice_sample(target, np.array([2.0]), SamplerConfig(n_samples=10, seed=0))

    def test_non_finite_init_rejected(self):
        target = TargetSpec(1, lambda x: -math.inf)
        with pytest.raises(SamplerError, match="non-finite"):
            slice_sample(target, np.zeros(1), SamplerConfig(n_samples=10, seed=0))

    def test_step_out_overrun_diagnostics(self):
        # monotone unbounded log-target: the right edge never falls below the level
        target = TargetSpec(1, lambda x: float(x[0]), name="improper")
        with pytest.raises(SamplerError, match="step-out exceeded"):
            slice_sample(target, np.zeros(1), SamplerConfig(n_samples=10, seed=0))

    def test_pinned_dimension_stays_fixed(self):
        target = TargetSpec(
            2,
            lambda x: -0.5 * float(x[1]) ** 2,
            lower=np.array([3.0, -np.inf]),
            upper=np.array([3.0, np.inf]),
        )
        out = slice_sample(target, np.array([3.0, 0.0]), SamplerConfig(n_samples=200, seed=1))
        assert np.all(out.samples[:, 0] == 3.0)
        assert out.samples[:, 1].std() > 0.5

    def test_correlated_gaussian_recovery(self):
        rho = 0.8

        def logp(x):
            q = (x[0] ** 2 - 2 * rho * x[0] * x[1] + x[1] ** 2) / (1 - rho**2)
            return -0.5 * float(q)

        out = slice_sample(
            TargetSpec(2, logp, name="rho-gauss"),
            np.zeros(2),
            SamplerConfig(n_samples=5000, seed=7, thinning=2),
        )
        got_rho = np.corrcoef(out.samples.T)[0, 1]
        assert abs(got_rho - rho) < 0.05

    def test_tv_distance_decreases_with_n(self):
        """Empirical histogram approaches the target as draws accumulate."""
        edges = np.linspace(-4, 4, 33)
        truth = np.diff(norm.cdf(edges))

        def tv(n, seed):
            out = slice_sample(std_normal_target(), np.zeros(1), SamplerConfig(n_samples=n, seed=seed))
            counts, _ = np.histogram(out.samples[:, 0], bins=edges)
            emp = counts / counts.sum()
            return 0.5 * np.abs(emp - truth).sum()

        assert tv(10000, 5) < tv(1000, 5)

    def test_thinning_and_burn_in_counts(self):
        out = slice_sample(
            std_normal_target(), np.zeros(1), SamplerConfig(n_samples=123, seed=0, thinning=3)
        )
        assert out.n == 123


class TestSampleSet:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[1.0, np.inf]]), ("a", "b"))
        with pytest.raises(ValueError):
            SampleSet(np.ones((3, 2)), ("a",))
        ss = SampleSet(np.ones((3, 2)), ("a", "b"))
        with pytest.raises(ValueError):
            ss.samples[0, 0] = 2.0  # frozen matrix

    def test_helpers(self):
        ss = SampleSet(np.array([[1.0, 10.0], [3.0, 30.0]]), ("a", "b"))
        assert ss.n == 2 and ss.dim == 2
        np.testing.assert_allclose(ss.column("b"), [10.0, 30.0])
        np.testing.assert_allclose(ss.mean(), [2.0, 20.0])
        thinned = ss.thin(2)
        assert thinned.n == 1


class TestTMCMC:
    def test_flat_likelihood_evidence_zero(self):
        target = TemperedTarget(
            1,
            lambda rng, n: rng.standard_normal((n, 1)),
            lambda x: -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2 * math.pi),
            lambda x: np.zeros(len(x)),
            ("x",),
            "flat",
        )
        out = tmcmc(target, SamplerConfig(n_samples=2000, seed=0))
        assert out.log_evidence == pytest.approx(0.0, abs=1e-10)
        stat, pvalue = kstest(out.samples[:, 0], "norm")
        assert pvalue > 0.01

    def test_conjugate_evidence_over_seeds(self):
        estimates = [
            tmcmc(conjugate_target(), SamplerConfig(n_samples=1000, seed=s)).log_evidence
            for s in range(5)
        ]
        assert np.mean(estimates) == pytest.approx(CONJUGATE_LOG_EVIDENCE, abs=0.05)

    def test_conjugate_posterior_mean(self):
        out = tmcmc(conjugate_target(), SamplerConfig(n_samples=2000, seed=1))
        # analytic posterior N(0.5, 1/2); allow 3 standard errors with a
        # conservative effective sample size of n/10
        se = math.sqrt(0.5) / math.sqrt(2000 / 10)
        assert abs(out.samples.mean() - 0.5) < 3 * se

    def test_determinism(self):
        cfg = SamplerConfig(n_samples=500, seed=9)
        a = tmcmc(conjugate_target(), cfg)
        b = tmcmc(conjugate_target(), cfg)
        assert np.array_equal(a.samples, b.samples)
        assert a.log_evidence == b.log_evidence

    def test_beta_schedule_strictly_increasing_to_one(self):
        def sharp_loglik(x):
            return -50.0 * (x[:, 0] - 1.0) ** 2

        target = TemperedTarget(
            1,
            lambda rng, n: rng.standard_normal((n, 1)),
            lambda x: -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2 * math.pi),
            sharp_loglik,
            ("x",),
            "sharp",
        )
        out = tmcmc(target, SamplerConfig(n_samples=800, seed=2))
        betas = out.provenance["beta_schedule"]
        assert len(betas) >= 3  # actually tempered in stages
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert betas[0] == 0.0 and betas[-1] == 1.0

    def test_evidence_shift_invariance(self):
        shift = 7.25

        def shifted():
            base = conjugate_target()
            return TemperedTarget(
                1,
                base.sample_prior,
                base.prior_logpdf,
                lambda x: base.log_likelihood(x) + shift,
                base.labels,
                "shifted",
            )

        cfg = SamplerConfig(n_samples=800, seed=4)
        plain = tmcmc(conjugate_target(), cfg)
        moved = tmcmc(shifted(), cfg)
        assert moved.log_evidence == pytest.approx(plain.log_evidence + shift, abs=1e-9)
        assert np.array_equal(moved.samples, plain.samples)

    def test_tempering_collapse_detected(self):
        def spike_loglik(x):
            return np.where(x[:, 0] > 2.8, 0.0, -np.inf)

        target = TemperedTarget(
            1,
            lambda rng, n: rng.standard_normal((n, 1)),
            lambda x: -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2 * math.pi),
            spike_loglik,
            ("x",),
            "spike",
        )
        # seed 0 gives exactly one prior draw above the spike threshold, so a
        # single particle carries all incremental weight
        with pytest.raises(SamplerError, match="collapse"):
            tmcmc(target, SamplerConfig(n_samples=400, seed=0))

    def test_all_rejected_prior_draws(self):
        target = TemperedTarget(
            1,
            lambda rng, n: rng.standard_normal((n, 1)),
            lambda x: np.zeros(len(x)),
            lambda x: np.full(len(x), -np.inf),
            ("x",),
            "impossible",
        )
        with pytest.raises(SamplerError):
            tmcmc(target, SamplerConfig(n_samples=100, seed=0))


def reference_dbeta(loglik, beta, target_cov):
    """Reference copy of the tempering step as first written: the CoV from
    ``ndarray.std`` and ``mean`` and all 80 bisection steps."""
    remaining = 1.0 - beta
    shift = np.max(loglik[np.isfinite(loglik)])

    def cov(db):
        w = np.exp(db * (loglik - shift))
        m = w.mean()
        if m == 0:
            return math.inf
        return float(w.std() / m)

    if cov(remaining) <= target_cov:
        return remaining
    lo_db, hi_db = 0.0, remaining
    for _ in range(80):
        mid = 0.5 * (lo_db + hi_db)
        if cov(mid) > target_cov:
            hi_db = mid
        else:
            lo_db = mid
    return max(lo_db, remaining * 1e-12)


class TestChooseDbeta:
    @pytest.mark.parametrize("target_cov", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.0, 0.37, 0.999, 1.0 - 1e-9, 1.0 - 2**-52])
    def test_matches_reference_bit_for_bit(self, beta, target_cov):
        """Log-likelihood scales from 1e-2 to 1e6, with and without -inf
        entries: the same increment, to the last bit, as the reference."""
        rng = np.random.default_rng(int(1e6 * beta) + int(10 * target_cov))
        for scale in 10.0 ** np.arange(-2, 7):
            for n in (2, 7, 200, 1000):
                loglik = scale * rng.standard_normal(n) - 50.0
                if n > 2:
                    loglik[rng.random(n) < 0.25] = -np.inf
                    loglik[0] = scale
                got = _choose_dbeta(loglik, beta, target_cov)
                want = reference_dbeta(loglik, beta, target_cov)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestUtilities:
    def test_fingerprint_stability(self):
        a = config_fingerprint(SamplerConfig(seed=1))
        b = config_fingerprint(SamplerConfig(seed=1))
        c = config_fingerprint(SamplerConfig(seed=2))
        assert a == b != c

    def test_subseed_deterministic_and_tagged(self):
        assert subseed(7, 1, 2) == subseed(7, 1, 2)
        assert subseed(7, 1, 2) != subseed(7, 2, 1)
