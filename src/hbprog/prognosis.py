"""Trajectory bands, end-of-life search and the RUL distribution.

Posterior parameter samples are pushed through the degradation model to get
per-cycle quantile bands, per-sample end-of-life times (algebraic inversion
for crack growth, a chunked integer first-crossing scan over all samples at
once for battery capacity) and the remaining-useful-life distribution
RUL = t_EOL - t_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hbprog.models import DegradationModel, NoFailureError, ParisCrackModel
from hbprog.samplers import SampleSet

#: Curve values (live draws x cycles) that one chunk of the battery
#: first-crossing scan evaluates: 2^17 doubles, 1 MB per scratch array
#: whatever the horizon, while at most ``SCAN_CHUNK // 16`` draws are live;
#: with more, a chunk is 16 cycles wide.
SCAN_CHUNK = 1 << 17


def quantile_levels(values) -> tuple[float, ...]:
    """Band quantile levels as floats; they must be sorted and inside (0, 1)."""
    q = tuple(float(v) for v in values)
    if any(not 0 < v < 1 for v in q) or list(q) != sorted(q):
        raise ValueError("quantiles must be sorted and inside (0, 1)")
    return q


@dataclass(frozen=True)
class PrognosisConfig:
    """Threshold-crossing setup.

    For crack growth the threshold is a critical length the crack crosses
    upward; for batteries it is a capacity floor crossed downward. ``t_c``
    is the current cycle, ``horizon`` the last cycle searched; samples whose
    trajectory never crosses by the horizon are censored.
    """

    threshold: float
    t_c: float
    horizon: float
    quantiles: tuple[float, ...] = (0.025, 0.5, 0.975)
    include_observation_noise: bool = False

    def __post_init__(self):
        if not self.horizon > self.t_c:
            raise ValueError("horizon must exceed the current cycle t_c")
        object.__setattr__(self, "quantiles", quantile_levels(self.quantiles))


@dataclass
class PrognosisResult:
    """Prediction artifacts: trajectory quantile bands over a cycle grid
    and/or end-of-life and RUL samples with their summary statistics.

    RUL is derived per sample as ``t_eol - t_c`` and never recomputed
    independently; censored samples carry the horizon lower bound and are
    flagged."""

    config: PrognosisConfig
    grid: np.ndarray | None = None
    bands: np.ndarray | None = None  # shape (len(quantiles), len(grid))
    t_eol: np.ndarray | None = None
    rul: np.ndarray | None = None
    censored: np.ndarray | None = None
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


def predict_trajectory(
    samples: SampleSet,
    model: DegradationModel,
    grid,
    cfg: PrognosisConfig,
    seed: int = 0,
) -> PrognosisResult:
    """Per-cycle quantile bands of the predicted degradation.

    Every posterior sample contributes one deterministic curve, all from one
    :meth:`~hbprog.models.DegradationModel.predict_batch` call; a sample
    whose crack solution diverges holds +inf from the divergence cycle on
    (threshold-crossed) and shapes the upper quantiles accordingly. With
    ``include_observation_noise`` each curve is perturbed by the family's
    error model using that sample's sigma.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a nonempty strictly increasing 1-d array")
    if samples.n == 0:
        raise ValueError("at least one posterior sample is required")
    rows = samples.samples
    curves = model.predict_batch(rows[:, :-1], grid)
    if cfg.include_observation_noise:
        _perturb(curves, rows[:, -1], model.likelihood, np.random.default_rng(seed))
    # order-statistic quantiles stay well defined when diverged samples put
    # +inf into a column (linear interpolation would produce NaN there)
    bands = np.quantile(curves, cfg.quantiles, axis=0, method="inverted_cdf")
    return PrognosisResult(
        config=cfg,
        grid=grid,
        bands=bands,
        provenance={"n_samples": samples.n, "family": model.family, "seed": seed},
    )


def _perturb(curves: np.ndarray, sigma: np.ndarray, likelihood: str, rng) -> None:
    """Add observation noise to the finite entries of ``curves`` in place,
    row ``i`` with ``sigma[i]``. The normals are drawn in one call in
    row-major order, the stream a row-by-row loop would draw."""
    finite = np.isfinite(curves)
    sd = np.broadcast_to(sigma[:, None], curves.shape)[finite]
    z = rng.standard_normal(sd.size)
    p = curves[finite]
    if likelihood == "gaussian":
        curves[finite] = p + sd * z
        return
    # lognormal with mean equal to the prediction
    zeta2 = np.log1p((sd / p) ** 2)
    eta = np.log(p) - 0.5 * zeta2
    curves[finite] = np.exp(eta + np.sqrt(zeta2) * z)


def _first_crossing(
    theta: np.ndarray, model: DegradationModel, cfg: PrognosisConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """First integer cycle in (t_c, horizon] at or below the capacity floor,
    for every row of ``theta``, by a chunked forward scan.

    Each chunk is one ``predict_batch`` call over the rows still live (not
    yet crossed), ``max(16, SCAN_CHUNK // live)`` cycles wide; a row leaves
    at its first crossing and the scan stops once none is live. Returns
    ``(t_eol, censored, n_points)``: censored rows (no crossing, NaN or +inf
    curves) hold the horizon, and ``n_points`` counts the curve values
    evaluated. There is no bisection: a double exponential need not be
    monotone, and the first crossing in scan order is the end of life.
    """
    n = theta.shape[0]
    t_eol = np.full(n, float(cfg.horizon))
    censored = np.ones(n, dtype=bool)
    k, last = max(int(math.floor(cfg.t_c)) + 1, 1), int(math.floor(cfg.horizon))
    live = np.arange(n)
    n_points = 0
    while live.size and k <= last:
        width = min(max(16, SCAN_CHUNK // live.size), last - k + 1)
        cycles = np.arange(k, k + width, dtype=float)
        below = model.predict_batch(theta[live], cycles) <= cfg.threshold
        n_points += below.size
        hit = below.any(axis=1)
        crossed = live[hit]
        t_eol[crossed] = cycles[below[hit].argmax(axis=1)]
        censored[crossed] = False
        live = live[~hit]
        k += width
    return t_eol, censored, n_points


def end_of_life(row, model: DegradationModel, cfg: PrognosisConfig) -> tuple[float, bool]:
    """End-of-life cycle for one parameter sample, or a censored marker.

    Crack growth inverts the closed form algebraically (already at or past
    the threshold at t_c gives t_EOL = t_c). Battery capacity is scanned on
    the integer cycle grid from t_c to the horizon for the first cycle at or
    below the floor (the one-row case of the scan :func:`rul_distribution`
    runs); capacities are per-cycle measurements, so integer resolution is
    the data's own granularity. Returns ``(t_eol, censored)`` with
    ``t_eol = horizon`` as the lower bound when censored.
    """
    row = np.asarray(row, dtype=float)
    theta = row[: model.n_theta]
    if isinstance(model, ParisCrackModel):
        if cfg.threshold < model.geometry.a0:
            # crossed before the crack was first observed
            return float(cfg.t_c), False
        try:
            nf = model.cycles_to_failure(theta, a_f=cfg.threshold)
        except NoFailureError:
            return float(cfg.horizon), True
        if nf <= cfg.t_c:
            return float(cfg.t_c), False
        if nf > cfg.horizon:
            return float(cfg.horizon), True
        return float(nf), False
    t_eol, censored, _ = _first_crossing(theta[None], model, cfg)
    return float(t_eol[0]), bool(censored[0])


def rul_distribution(
    samples: SampleSet, model: DegradationModel, cfg: PrognosisConfig
) -> PrognosisResult:
    """Remaining-useful-life distribution over all posterior samples.

    Crack growth maps :func:`end_of_life` over the sample set; battery
    capacity runs one first-crossing scan over all samples at once, and the
    provenance records ``n_curve_points``, the capacity values it evaluated.
    RUL is exactly ``t_eol - t_c`` per sample. Censored samples enter the
    summary at their ``horizon - t_c`` lower bound; the summary records the
    censored fraction and flags the result uninformative when every sample
    is censored.
    """
    if samples.n == 0:
        raise ValueError("at least one posterior sample is required")
    provenance = {"n_samples": samples.n, "family": model.family}
    if isinstance(model, ParisCrackModel):
        t_eol = np.empty(samples.n)
        censored = np.zeros(samples.n, dtype=bool)
        for i, row in enumerate(samples.samples):
            t_eol[i], censored[i] = end_of_life(row, model, cfg)
    else:
        theta = samples.samples[:, : model.n_theta]
        t_eol, censored, provenance["n_curve_points"] = _first_crossing(theta, model, cfg)
    rul = t_eol - cfg.t_c
    frac = float(censored.mean())
    summary = {
        "mean": float(rul.mean()),
        "median": float(np.median(rul)),
        "interval": [float(v) for v in np.quantile(rul, [cfg.quantiles[0], cfg.quantiles[-1]])],
        "censored_fraction": frac,
        "informative": frac < 1.0,
    }
    if frac == 1.0:
        summary["note"] = "no informative RUL within horizon"
    return PrognosisResult(
        config=cfg,
        t_eol=t_eol,
        rul=rul,
        censored=censored,
        summary=summary,
        provenance=provenance,
    )
