import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm, truncnorm

from hbprog.hierarchy import Dataset
from hbprog.models import CrackGeometry, DegradationModel, LoadingSpec
from hbprog.targets import HyperParameters
from hbprog.io import SyntheticSpec, generate_synthetic

CONST_LOADING = LoadingSpec("constant", delta_sigma=60.0)
GEOMETRY = CrackGeometry(a0=1.0, n0=0.0, a_f=25.0)


class ConstantCapacity(DegradationModel):
    """Dummy battery family: capacity never changes. Used as the known-bad
    rival in model-recovery checks."""

    family = "batt-const"
    likelihood = "gaussian"
    n_theta = 1
    theta_labels = ("theta1",)
    nominal_scales = (2.0,)

    def admissible(self, theta):
        return bool(np.isfinite(theta[0]) and theta[0] > 0)

    def predict(self, theta, cycles):
        k = np.atleast_1d(np.asarray(cycles, dtype=float))
        if not self.admissible(theta):
            return np.full(k.shape, np.inf)
        return np.full(k.shape, 2.0 * float(theta[0]))

CRACK_PSI = HyperParameters(
    mu0=[1.0, 1.05], sd0=[0.08, 0.02], mu_sigma=0.08, sd_sigma=0.03, sigma_trunc=0.2
)
CRACK_BOUNDS = (np.array([0.6, 0.8, 1e-3]), np.array([1.6, 1.3, 0.2]))


@pytest.fixture(scope="session")
def crack_fleet():
    """Six-unit synthetic crack fleet with ground truth."""
    spec = SyntheticSpec(
        family="paris",
        psi=CRACK_PSI,
        n_units=6,
        cycles=np.linspace(0, 24000, 13).astype(int),
        loading=CONST_LOADING,
        geometry=GEOMETRY,
    )
    return generate_synthetic(spec, seed=21)


@pytest.fixture(scope="session")
def current_unit():
    """One synthetic current unit observed over most of its life."""
    spec = SyntheticSpec(
        family="paris",
        psi=CRACK_PSI,
        n_units=1,
        cycles=np.linspace(0, 80000, 81).astype(int),
        loading=CONST_LOADING,
        geometry=GEOMETRY,
        unit_prefix="C",
    )
    datasets, truth = generate_synthetic(spec, seed=202)
    return datasets[0], truth["units"][0]


def make_dataset(cycles, values, family="paris", **kw):
    defaults = dict(
        unit_id="U1",
        units="mm" if family == "paris" else "Ahr",
        loading=CONST_LOADING if family == "paris" else None,
        geometry=GEOMETRY if family == "paris" else None,
    )
    defaults.update(kw)
    return Dataset(
        unit_id=defaults.pop("unit_id"),
        cycles=np.asarray(cycles),
        values=np.asarray(values, dtype=float),
        family=family,
        **defaults,
    )


def population_logpdf_oracle(rows, vec, n_theta, correlated, sigma_trunc):
    """scipy.stats log-density of ``(theta..., sigma)`` rows under one hyper
    vector, independent of the package's kernels: the correlated pair as
    theta1 times theta2 given theta1, sigma by ``truncnorm``. A vector
    with an sd <= 0, |rho| >= 1 or no sigma mass in (0, sigma_trunc), and
    a sigma outside that range, give -inf."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    mu, mu_s = vec[:n_theta], vec[n_theta]
    sd, sd_s = vec[n_theta + 1 : 2 * n_theta + 1], vec[2 * n_theta + 1]
    rho = vec[-1] if correlated else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = norm.cdf(sigma_trunc, mu_s, sd_s) - norm.cdf(0.0, mu_s, sd_s)
    if not (np.all(sd > 0) and sd_s > 0 and abs(rho) < 1 and mass > 0):
        return np.full(rows.shape[0], -np.inf)
    theta, sigma = rows[:, :n_theta], rows[:, -1]
    if correlated:
        cond_mu = mu[1] + rho * sd[1] * (theta[:, 0] - mu[0]) / sd[0]
        theta_part = norm.logpdf(theta[:, 0], mu[0], sd[0]) + norm.logpdf(
            theta[:, 1], cond_mu, sd[1] * np.sqrt(1.0 - rho**2)
        )
    else:
        theta_part = norm.logpdf(theta, mu, sd).sum(axis=1)
    a, b = -mu_s / sd_s, (sigma_trunc - mu_s) / sd_s
    inside = (sigma > 0) & (sigma < sigma_trunc)
    sigma_part = np.where(inside, truncnorm.logpdf(sigma, a, b, loc=mu_s, scale=sd_s), -np.inf)
    return theta_part + sigma_part


def stage2_loglik_oracle(mats, vec, n_theta, correlated, sigma_trunc):
    """The pooled stage-2 log-likelihood of one hyper vector from
    :func:`population_logpdf_oracle`: ``sum_i logsumexp_k - log n_i``."""
    return sum(
        logsumexp(population_logpdf_oracle(m, vec, n_theta, correlated, sigma_trunc))
        - np.log(len(m))
        for m in mats
    )
