"""Sequential RUL tracking as monitoring data accumulates.

Re-runs the current-unit update at advancing cutoffs and prints how the 95%
RUL interval narrows onto the true remaining life, mirroring the
cycle-by-cycle updating picture of fleet-informed prognosis.
"""

import numpy as np

from hbprog.hierarchy import build_model, fit_historical, update_many
from hbprog.io import SyntheticSpec, generate_synthetic
from hbprog.models import CrackGeometry, LoadingSpec
from hbprog.prognosis import PrognosisConfig, rul_distribution
from hbprog.samplers import SamplerConfig
from hbprog.targets import HyperParameters, HyperPriorBounds

psi_star = HyperParameters(
    mu0=[1.0, 1.05], sd0=[0.08, 0.02], mu_sigma=0.08, sd_sigma=0.03, sigma_trunc=0.2
)
loading = LoadingSpec("constant", delta_sigma=60.0)
geometry = CrackGeometry(a0=1.0, n0=0.0, a_f=25.0)

fleet, _ = generate_synthetic(
    SyntheticSpec(
        family="paris", psi=psi_star, n_units=6,
        cycles=np.linspace(0, 24000, 13).astype(int),
        loading=loading, geometry=geometry,
    ),
    seed=21,
)
bounds = (np.array([0.6, 0.8, 1e-3]), np.array([1.6, 1.3, 0.2]))
hyper = fit_historical(
    fleet, bounds, HyperPriorBounds.crack_default(),
    config=SamplerConfig(n_samples=600, seed=4), stage1_thin=300,
).hyper

current_all, truth = generate_synthetic(
    SyntheticSpec(
        family="paris", psi=psi_star, n_units=1,
        cycles=np.linspace(0, 80000, 81).astype(int),
        loading=loading, geometry=geometry, unit_prefix="C",
    ),
    seed=202,
)
unit = current_all[0]
model = build_model(unit)
eol_true = truth["units"][0]["eol"]
print(f"current unit: true end of life {eol_true:.0f} cycles\n")
print(f"{'t_c':>8s} {'points':>7s} {'true RUL':>9s} {'95% RUL interval':>22s}  hit")

# the updates at each cutoff are independent, so they run in worker processes
cutoffs = np.linspace(0.15, 0.9, 9) * eol_true
posteriors = update_many(
    [unit.truncate(t_c) for t_c in cutoffs], hyper, model,
    SamplerConfig(n_samples=700, seed=8), hyper_subsample=300,
)
for t_c, posterior in zip(cutoffs, posteriors):
    cfg = PrognosisConfig(threshold=25.0, t_c=float(t_c), horizon=600000)
    rul = rul_distribution(posterior, model, cfg)
    lo, hi = rul.summary["interval"]
    true_rul = eol_true - t_c
    hit = "yes" if lo <= true_rul <= hi else "no"
    print(f"{t_c:8.0f} {len(unit.truncate(t_c)):7d} {true_rul:9.0f} "
          f"[{lo:9.0f}, {hi:9.0f}]  {hit}")

print("\nintervals narrow as data accumulate; the truth should sit inside")
print("the band for most of the run, and reliably so over the final half")
