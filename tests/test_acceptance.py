"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 10 needs externally supplied NASA exports (see README)
and is skipped when the HBPROG_NASA_DIR environment variable is unset.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.stats import norm

from hbprog.hierarchy import (
    Candidate,
    build_model,
    fit_historical,
    model_select,
    update_current,
    update_many,
)
from hbprog.io import SyntheticSpec, generate_synthetic, load_dataset
from hbprog.models import CrackGeometry, CrackParams, LoadingSpec, crack_length, cycles_to_failure
from hbprog.prognosis import PrognosisConfig, predict_trajectory, rul_distribution
from hbprog.samplers import SampleSet, SamplerConfig, TargetSpec, TemperedTarget, slice_sample, tmcmc
from hbprog.targets import (
    HyperParameters,
    HyperPriorBounds,
    ParameterVector,
    gaussian_loglik,
    hyper_posterior_logtarget,
    lognormal_loglik,
    mixture_prior_logpdf,
)

from conftest import CONST_LOADING, CRACK_BOUNDS, CRACK_PSI, GEOMETRY


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def crack_hyper(crack_fleet):
    """Hyper posterior fitted once on the shared synthetic fleet."""
    fleet, _ = crack_fleet
    return fit_historical(
        fleet,
        CRACK_BOUNDS,
        HyperPriorBounds.crack_default(),
        config=SamplerConfig(n_samples=600, seed=4),
        stage1_thin=300,
    ).hyper


@pytest.fixture(scope="module")
def tracking_run(crack_hyper, current_unit):
    """Sequential updates at advancing cutoffs, shared by criteria 7 and 9."""
    unit, truth = current_unit
    model = build_model(unit)
    eol_true = truth["eol"]
    cutoffs = np.linspace(0.10, 0.92, 22) * eol_true
    probe_cycle = 52000.0  # future for every cutoff, inside the unit's life
    # the updates are independent, so they run in worker processes with the
    # serial loop's bytes (tests/test_parallel.py)
    posteriors = update_many(
        [unit.truncate(t_c) for t_c in cutoffs],
        crack_hyper,
        model,
        SamplerConfig(n_samples=1200, thinning=2, seed=8),
        hyper_subsample=400,
    )
    records = []
    for t_c, posterior in zip(cutoffs, posteriors):
        cfg = PrognosisConfig(threshold=25.0, t_c=float(t_c), horizon=600000)
        rul = rul_distribution(posterior, model, cfg)
        bands = predict_trajectory(posterior, model, np.array([probe_cycle]), cfg)
        records.append(
            {
                "t_c": float(t_c),
                "interval": rul.summary["interval"],
                "posterior": posterior,
                "half_width": 0.5 * float(bands.bands[-1][0] - bands.bands[0][0]),
            }
        )
    return {"records": records, "eol_true": eol_true, "model": model}


def test_criterion_1_slice_calibration():
    rho = 0.8

    def log_density(x):
        q = (x[0] ** 2 - 2 * rho * x[0] * x[1] + x[1] ** 2) / (1 - rho**2)
        return -0.5 * float(q)

    n = 5000
    start = time.perf_counter()
    out = slice_sample(
        TargetSpec(2, log_density, name="acceptance-gauss"),
        np.zeros(2),
        SamplerConfig(n_samples=n, thinning=2, seed=7),
    )
    elapsed = time.perf_counter() - start
    mean_err = np.abs(out.mean()).max()
    corr_err = abs(np.corrcoef(out.samples.T)[0, 1] - rho)
    tol = 4.0 / math.sqrt(n)
    ok = mean_err < tol and corr_err < 0.05 and elapsed < 5.0
    report(
        1,
        ok,
        f"means off by {mean_err:.4f} (tol {tol:.4f}), corr off by {corr_err:.4f} "
        f"(tol 0.05), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_tmcmc_conjugate_evidence():
    target = TemperedTarget(
        dim=1,
        sample_prior=lambda rng, n: rng.standard_normal((n, 1)),
        prior_logpdf=lambda x: -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2 * math.pi),
        log_likelihood=lambda x: -0.5 * (1.0 - x[:, 0]) ** 2 - 0.5 * math.log(2 * math.pi),
        name="acceptance-conjugate",
    )
    analytic = norm.logpdf(1.0, loc=0.0, scale=math.sqrt(2.0))
    start = time.perf_counter()
    estimates = [
        tmcmc(target, SamplerConfig(n_samples=1000, seed=s)).log_evidence for s in range(10)
    ]
    elapsed = time.perf_counter() - start
    err = abs(float(np.mean(estimates)) - analytic)
    ok = err < 0.05 and elapsed < 30.0
    report(
        2,
        ok,
        f"analytic {analytic:.4f}, mean estimate {np.mean(estimates):.4f} over 10 seeds "
        f"(|err| {err:.4f}, tol 0.05), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_paris_vs_ode_oracle():
    def ode_length(m, log_c, dn):
        c = math.exp(log_c)

        def rate(_, a):
            return c * (60.0 * math.sqrt(math.pi * a[0])) ** m

        return float(solve_ivp(rate, (0.0, dn), [1.0], rtol=1e-11, atol=1e-13).y[0, -1])

    rng = np.random.default_rng(2024)
    worst_sweep = 0.0
    worst_round = 0.0
    n_draws = 0
    while n_draws < 100:
        theta1 = rng.uniform(0.55, 1.55)
        theta2 = rng.uniform(0.95, 1.12)
        params = CrackParams(theta1, theta2)
        if abs(params.m - 2.0) < 1e-6:
            continue
        n_draws += 1
        nf = cycles_to_failure(params, GEOMETRY, CONST_LOADING)
        dn = rng.uniform(0.2, 0.9) * nf
        closed = crack_length(params, GEOMETRY, CONST_LOADING, dn)
        want = ode_length(params.m, params.log_c, dn)
        worst_sweep = max(worst_sweep, abs(closed - want) / want)
        back = crack_length(params, GEOMETRY, CONST_LOADING, nf)
        worst_round = max(worst_round, abs(back - 25.0) / 25.0)
    # inside the m ~ 2 band the implementation is the exponential branch;
    # check it against the ODE oracle at m = 2 and band-edge parameters
    band_worst = 0.0
    for theta1 in (1.0, 1.0 + 4e-8, 1.0 - 4e-8):
        params = CrackParams(theta1, 1.0)
        dn = 20000.0
        closed = crack_length(params, GEOMETRY, CONST_LOADING, dn)
        want = ode_length(params.m, params.log_c, dn)
        band_worst = max(band_worst, abs(closed - want) / want)
        nf = cycles_to_failure(params, GEOMETRY, CONST_LOADING)
        worst_round = max(
            worst_round, abs(crack_length(params, GEOMETRY, CONST_LOADING, nf) - 25.0) / 25.0
        )
    ok = worst_sweep <= 1e-6 and band_worst <= 1e-6 and worst_round <= 1e-9
    report(
        3,
        ok,
        f"closed form vs ODE: worst rel err {worst_sweep:.2e} over 100 draws (tol 1e-6), "
        f"m~2 band {band_worst:.2e} (tol 1e-6), round-trip {worst_round:.2e} (tol 1e-9)",
    )


def test_criterion_4_density_correctness():
    total_ln, _ = quad(lambda y: math.exp(lognormal_loglik(y, 20.0, 1.0)), 1e-9, 200.0)
    total_g, _ = quad(lambda y: math.exp(gaussian_loglik(y, 1.4, 0.05)), 0.6, 2.2)
    pred, sigma = 20.0, 1.0
    zeta2 = math.log1p((sigma / pred) ** 2)
    eta = math.log(pred) - zeta2 / 2
    implied_mean = math.exp(eta + zeta2 / 2)
    ok = (
        abs(total_ln - 1.0) < 1e-6
        and abs(total_g - 1.0) < 1e-6
        and implied_mean == pytest.approx(pred, rel=1e-14)
    )
    report(
        4,
        ok,
        f"lognormal integrates to {total_ln:.8f}, gaussian to {total_g:.8f} (tol 1e-6); "
        f"implied mean {implied_mean!r} vs prediction {pred!r}",
    )


def test_criterion_5_mixture_and_hyper_brute_force():
    def brute_density(theta, sigma, psi):
        theta_pdf = float(np.prod(norm.pdf(theta, psi.mu0, psi.sd0)))
        z = norm.cdf(psi.sigma_trunc, psi.mu_sigma, psi.sd_sigma) - norm.cdf(
            0.0, psi.mu_sigma, psi.sd_sigma
        )
        return theta_pdf * norm.pdf(sigma, psi.mu_sigma, psi.sd_sigma) / z

    psi = HyperParameters(mu0=[1.0, 1.05], sd0=[0.1, 0.03], mu_sigma=0.08, sd_sigma=0.04)
    bounds = HyperPriorBounds.crack_default()
    rng = np.random.default_rng(123)
    sets = []
    for n_k in (3, 5, 4):
        rows = np.column_stack(
            [
                1 + 0.08 * rng.standard_normal(n_k),
                1 + 0.02 * rng.standard_normal(n_k),
                0.03 + 0.1 * rng.random(n_k),
            ]
        )
        sets.append(
            SampleSet(rows, ("theta1", "theta2", "sigma"),
                      {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2})
        )
    got = hyper_posterior_logtarget(psi, sets, bounds)
    want = bounds.log_prior_const(False)
    for ss in sets:
        dens = [brute_density(r[:2], r[2], psi) for r in ss.samples]
        want += math.log(sum(dens) / len(dens))
    hyper_err = abs(got - want)

    psis = [
        psi,
        HyperParameters(mu0=[0.9, 1.0], sd0=[0.2, 0.05], mu_sigma=0.05, sd_sigma=0.02),
        HyperParameters(mu0=[1.2, 1.1], sd0=[0.05, 0.01], mu_sigma=0.12, sd_sigma=0.06),
    ]
    hyper_set = SampleSet(
        np.vstack([p.to_vector() for p in psis]),
        HyperParameters.labels(2, False),
        {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
    )
    pv = ParameterVector(np.array([1.02, 1.04]), 0.07)
    got_mix = mixture_prior_logpdf(pv, hyper_set)
    want_mix = math.log(np.mean([brute_density(pv.theta, pv.sigma, p) for p in psis]))
    mix_err = abs(got_mix - want_mix)
    ok = hyper_err < 1e-10 and mix_err < 1e-10
    report(
        5,
        ok,
        f"pooled target off by {hyper_err:.2e}, mixture prior off by {mix_err:.2e} (tol 1e-10)",
    )


def test_criterion_6_simulation_based_calibration():
    reps = 20
    covered = np.zeros(2, dtype=int)
    slowest = 0.0
    for rep in range(reps):
        start = time.perf_counter()
        spec = SyntheticSpec(
            family="paris",
            psi=CRACK_PSI,
            n_units=6,
            cycles=np.linspace(0, 24000, 13).astype(int),
            loading=CONST_LOADING,
            geometry=GEOMETRY,
        )
        fleet, _ = generate_synthetic(spec, seed=1000 + rep)
        result = fit_historical(
            fleet,
            CRACK_BOUNDS,
            HyperPriorBounds.crack_default(),
            config=SamplerConfig(n_samples=500, seed=rep),
            stage1_thin=250,
        )
        for j, (label, true_value) in enumerate(
            [("mu_theta1", 1.0), ("mu_theta2", 1.05)]
        ):
            lo, hi = np.quantile(result.hyper.column(label), [0.025, 0.975])
            covered[j] += lo <= true_value <= hi
        slowest = max(slowest, time.perf_counter() - start)
    ok = bool(np.all(covered >= 15)) and slowest < 120.0
    report(
        6,
        ok,
        f"95% CI coverage of true population means over {reps} replications: "
        f"mu_theta1 {covered[0]}/{reps}, mu_theta2 {covered[1]}/{reps} (need >= 15); "
        f"slowest replication {slowest:.1f}s (budget 120s)",
    )


def test_criterion_7_posterior_contraction(crack_hyper, current_unit, tracking_run):
    unit, _ = current_unit
    model = tracking_run["model"]
    prior_pred = update_current(
        None, crack_hyper, model, SamplerConfig(n_samples=1500, seed=6)
    )
    posterior_50 = update_current(
        unit.truncate(50000),
        crack_hyper,
        model,
        SamplerConfig(n_samples=900, thinning=2, seed=9),
        hyper_subsample=400,
    )
    n_points = len(unit.truncate(50000))
    assert n_points >= 50
    trace_prior = float(np.trace(prior_pred.cov()))
    trace_post = float(np.trace(posterior_50.cov()))
    half_widths = np.array([r["half_width"] for r in tracking_run["records"]])
    violations = int(np.sum(np.diff(half_widths) > 0))
    allowed = math.floor(0.05 * (half_widths.size - 1))
    ok = trace_post < 0.5 * trace_prior and violations <= allowed
    report(
        7,
        ok,
        f"posterior trace after {n_points} points {trace_post:.6f} vs prior-predictive "
        f"{trace_prior:.5f} ({trace_post / trace_prior:.1%}, need < 50%); band half-width "
        f"violations {violations}/{half_widths.size - 1} (allowed {allowed})",
    )


def test_criterion_8_model_selection_recovery():
    nominals = (1.92, -0.02, -0.003, -0.05)
    psi_star = HyperParameters(
        mu0=[1.0] * 4, sd0=[0.03] * 4, mu_sigma=0.015, sd_sigma=0.005, sigma_trunc=0.4
    )
    single_bounds = (np.array([0.05] * 3 + [1e-4]), np.array([1.8] * 3 + [0.4]))
    double_bounds = (np.array([0.05] * 4 + [1e-4]), np.array([1.8] * 4 + [0.4]))
    candidates = [
        Candidate(
            "batt-single", single_bounds, HyperPriorBounds.battery_default(3),
            nominals=(2.0, -1.0, -100.0), sigma_trunc=0.4,
        ),
        Candidate(
            "batt-double", double_bounds, HyperPriorBounds.battery_default(4),
            nominals=nominals, sigma_trunc=0.4,
        ),
    ]
    reps = 20
    wins = 0
    for rep in range(reps):
        spec = SyntheticSpec(
            family="batt-double", psi=psi_star, n_units=3,
            cycles=np.arange(1, 81, 2), nominals=nominals, threshold=1.4,
        )
        fleet, _ = generate_synthetic(spec, seed=900 + rep)
        records = model_select(
            fleet, candidates, SamplerConfig(n_samples=500, seed=rep), stage1_thin=150
        )
        wins += records[0]["family"] == "batt-double"
    ok = wins >= 18
    report(
        8,
        ok,
        f"double-exponential generating data: true family ranked first in "
        f"{wins}/{reps} replications (need >= 18)",
    )


def test_criterion_9_rul_tracking(tracking_run):
    records = tracking_run["records"]
    eol_true = tracking_run["eol_true"]
    hits = []
    widths = []
    fractions = []
    for rec in records:
        lo, hi = rec["interval"]
        true_rul = eol_true - rec["t_c"]
        hits.append(lo <= true_rul <= hi)
        widths.append(hi - lo)
        fractions.append(rec["t_c"] / eol_true)
    hits = np.array(hits)
    widths = np.array(widths)
    final_half = np.array(fractions) >= 0.5
    coverage = hits[final_half].mean()
    third = widths.size // 3
    early, late = widths[:third].mean(), widths[-third:].mean()
    ok = coverage >= 0.90 and late < early
    report(
        9,
        ok,
        f"true EOL inside 95% RUL interval in {hits[final_half].sum()}"
        f"/{final_half.sum()} final-half steps ({coverage:.0%}, need >= 90%); "
        f"mean interval width first third {early:.0f} vs final third {late:.0f}",
    )


NASA_DIR = os.environ.get("HBPROG_NASA_DIR")


@pytest.mark.skipif(
    NASA_DIR is None,
    reason="set HBPROG_NASA_DIR to a directory of NASA exports (see README) to run",
)
def test_criterion_10_nasa_reproduction():
    """Reproduction recipe for the published crack and battery results.

    Expects ``T1.csv`` .. ``T8.csv`` plus sidecars (crack lengths, mm) and
    ``B0005.csv``/``B0006.csv``/``B0007.csv``/``B0018.csv`` plus sidecars
    (capacities, Ahr) under HBPROG_NASA_DIR, in the documented dataset
    format.
    """
    root = Path(NASA_DIR)
    historical = [load_dataset(root / f"T{i}.csv") for i in range(1, 7)]
    current = load_dataset(root / "T7.csv")
    result = fit_historical(
        historical,
        CRACK_BOUNDS,
        HyperPriorBounds.crack_default(),
        config=SamplerConfig(n_samples=5000, seed=1),
    )
    cutoff = float(current.cycles[len(current) // 2])
    posterior = update_current(
        current.truncate(cutoff),
        result.hyper,
        build_model(current),
        SamplerConfig(n_samples=5000, seed=2),
    )
    # published posterior means with current data from T7 (diagonal case):
    # theta1 = 0.90 (S.D. 0.05), theta2 = 1.03 (S.D. 0.004), sigma = 0.09
    mean = posterior.mean()
    ok_crack = abs(mean[0] - 0.90) <= 2 * 0.05 and abs(mean[1] - 1.03) <= 2 * 0.004

    batteries = [load_dataset(root / f"B000{i}.csv") for i in (5, 6, 7)]
    candidates = [
        Candidate(
            "batt-single",
            (np.array([0.05] * 3 + [1e-4]), np.array([1.8] * 3 + [0.4])),
            HyperPriorBounds.battery_default(3),
            nominals=(2.0, -1.0, -100.0),
            sigma_trunc=0.4,
        ),
        Candidate(
            "batt-double",
            (np.array([0.05] * 4 + [1e-4]), np.array([1.8] * 4 + [0.4])),
            HyperPriorBounds.battery_default(4),
            nominals=(1.92, -0.02, -0.003, -0.05),
            sigma_trunc=0.4,
        ),
    ]
    records = model_select(batteries, candidates, SamplerConfig(n_samples=2000, seed=3))
    ok_batt = records[0]["family"] == "batt-double"
    report(
        10,
        ok_crack and ok_batt,
        f"T7 posterior means {mean[:2].round(3)} vs published (0.90, 1.03); "
        f"battery ranking winner {records[0]['family']} (published: double > single)",
    )
