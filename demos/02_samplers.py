"""Samplers on known targets: slice calibration and TMCMC evidence.

The coordinate-wise slice sampler recovers the moments of a correlated
Gaussian, and transitional MCMC reproduces the analytic evidence of a
conjugate Gaussian model while returning posterior draws.
"""

import math

import numpy as np
from scipy.stats import norm

from hbprog.samplers import SamplerConfig, TargetSpec, TemperedTarget, slice_sample, tmcmc

print("== slice sampler on a correlated 2-D Gaussian (rho = 0.8) ==")
rho = 0.8


def log_density(x):
    q = (x[0] ** 2 - 2 * rho * x[0] * x[1] + x[1] ** 2) / (1 - rho**2)
    return -0.5 * float(q)


out = slice_sample(
    TargetSpec(2, log_density, labels=("x1", "x2"), name="demo-gauss"),
    np.zeros(2),
    SamplerConfig(n_samples=5000, thinning=2, seed=7),
)
print(f"  means      {out.mean().round(4)}   (truth 0, 0)")
print(f"  sds        {out.sd().round(4)}   (truth 1, 1)")
print(f"  correlation {np.corrcoef(out.samples.T)[0, 1]:.4f}  (truth {rho})")

print("\n== TMCMC on the conjugate model mu ~ N(0,1), y=1 | mu ~ N(mu,1) ==")
target = TemperedTarget(
    dim=1,
    sample_prior=lambda rng, n: rng.standard_normal((n, 1)),
    prior_logpdf=lambda x: -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2 * math.pi),
    log_likelihood=lambda x: -0.5 * (1.0 - x[:, 0]) ** 2 - 0.5 * math.log(2 * math.pi),
    labels=("mu",),
    name="conjugate",
)
truth = norm.logpdf(1.0, loc=0.0, scale=math.sqrt(2.0))
estimates = []
for seed in range(10):
    run = tmcmc(target, SamplerConfig(n_samples=1000, seed=seed))
    estimates.append(run.log_evidence)
print(f"  analytic log evidence  {truth:.4f}")
print(f"  TMCMC mean over seeds  {np.mean(estimates):.4f} (spread {np.std(estimates):.4f})")
print(f"  posterior mean (truth 0.5): {run.samples.mean():.4f}")
print(f"  tempering schedule of the last run: {np.round(run.provenance['beta_schedule'], 3)}")
