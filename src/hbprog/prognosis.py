"""Trajectory bands, end-of-life search and the RUL distribution.

Posterior parameter samples are pushed through the degradation model to get
per-cycle quantile bands, per-sample end-of-life times (algebraic inversion
for crack growth, a galloping integer first-crossing scan over all samples
at once for battery capacity) and the remaining-useful-life distribution
RUL = t_EOL - t_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hbprog.models import DegradationModel, NoFailureError, ParisCrackModel
from hbprog.samplers import SampleSet

#: Largest prognosis horizon, 2^53 cycles: the scans count cycles in int64
#: and report them as floats, which hold every integer only up to 2^53.
MAX_HORIZON = 2.0**53

#: Most curve values one round of the battery first-crossing scan
#: evaluates: 2^17 doubles, 1 MB per scratch array whatever the horizon,
#: while at most ``SCAN_CHUNK // SCAN_SPAN`` draws are evaluated in the
#: round; with more, each gets a ``SCAN_SPAN``-cycle window.
SCAN_CHUNK = 1 << 17

#: Cycles in a draw's first certified span and first evaluated window in the
#: battery scan; a certificate is never tried on fewer.
SCAN_SPAN = 16

#: Relative slack of the certified skip-ahead in the battery scan. The scan
#: skips a draw's span [k0, k1] when its family bound (value Q(k0),
#: slope bound S, term magnitude M; see
#: :meth:`~hbprog.models.DegradationModel.scan_bound`) gives
#: ``Q(k0) - (k1 - k0) * S * (1 + eta) - eta * M > floor``. In exact
#: arithmetic Q(k) >= Q(k0) - (k - k0) * S on the span, so only rounding
#: separates the bound from the values ``predict_batch`` would compute. Each
#: exponential's argument is rounded once (relative error 2^-53, amplified
#: by exp to at most |x| * 2^-53 < 1e-13 for any finite nonzero result,
#: |x| < 746), exp itself is accurate to a few units in the last place, and
#: each multiply and add rounds once more (2^-53 of a partial sum, which M
#: bounds; exponentials below the normal range enter S and M at the
#: smallest normal double, which covers exp's absolute error there). Both
#: the computed Q(k0) and every computed Q(k) are therefore
#: within about 1e-12 * M of the exact curve, and the computed S and the
#: bound's own three roundings are within about 1e-15 of theirs; eta = 1e-9
#: covers all of them a thousandfold while costing a margin of a billionth
#: of the capacity. NaN and +-inf values, slopes or magnitudes compare false
#: and never certify.
SCAN_ETA = 1e-9


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
    trajectory never crosses by the horizon are censored. The horizon is at
    most :data:`MAX_HORIZON`.
    """

    threshold: float
    t_c: float
    horizon: float
    quantiles: tuple[float, ...] = (0.025, 0.5, 0.975)
    include_observation_noise: bool = False

    def __post_init__(self):
        if not self.horizon > self.t_c:
            raise ValueError("horizon must exceed the current cycle t_c")
        if not self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must be at most 2^53 = {MAX_HORIZON:.0f} cycles")
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
    return PrognosisResult(
        config=cfg,
        grid=grid,
        bands=_quantile_bands(curves, cfg.quantiles),
        provenance={"n_samples": samples.n, "family": model.family, "seed": seed},
    )


def _quantile_bands(curves: np.ndarray, quantiles) -> np.ndarray:
    """``np.quantile(curves, quantiles, axis=0, method="inverted_cdf")``
    from one column sort, done in place on ``curves``. That method returns
    an order statistic whose rank depends only on the number of rows and
    the level, so every column's bands are the same rows of the sorted
    curves. Order statistics stay well defined when diverged samples put
    +inf into a column (linear interpolation would give NaN there); a
    column holding NaN, which the sort puts last, gets NaN bands as in
    ``np.quantile``."""
    ranks = np.quantile(np.arange(curves.shape[0]), quantiles, method="inverted_cdf")
    curves.sort(axis=0)
    bands = curves[ranks]
    bands[:, np.isnan(curves[-1])] = np.nan
    return bands


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


def _certified(theta: np.ndarray, model: DegradationModel, k0, k1, floor):
    """Rows of ``theta`` whose curve provably stays strictly above ``floor``
    at every cycle in [k0, k1] (the rule at :data:`SCAN_ETA`), or None when
    the family has no bound. ``k0`` and ``k1`` are cycles shared by every
    row or per-row ``[n]`` arrays."""
    k0, k1 = np.asarray(k0, dtype=float), np.asarray(k1, dtype=float)
    bound = model.scan_bound(theta, k0, k1)
    if bound is None:
        return None
    value, slope, magnitude = bound
    # an overflowing slope term is +inf, so its row is not certified
    with np.errstate(over="ignore", invalid="ignore"):
        return value - (k1 - k0) * slope * (1.0 + SCAN_ETA) - SCAN_ETA * magnitude > floor


def _first_crossing(
    theta: np.ndarray, model: DegradationModel, cfg: PrognosisConfig
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """First integer cycle in (t_c, horizon] at or below the capacity floor,
    for every row of ``theta``, by a galloping forward scan.

    Each live row (not yet crossed) has a frontier, its first cycle not yet
    cleared, a certificate span and an evaluation window, both starting at
    :data:`SCAN_SPAN` cycles. A round makes one
    :meth:`~hbprog.models.DegradationModel.scan_bound` call over every live
    row's span from its frontier (clipped to the horizon):

    - a certified row (rule at :data:`SCAN_ETA`) moves past its span, and
      the span doubles;
    - an uncertified row whose span is wider than ``SCAN_SPAN`` has it
      quartered (to no less) and retries in the next round;
    - an uncertified row at ``SCAN_SPAN`` is evaluated, in one
      ``predict_batch`` call with per-row cycles for all of them, on its
      evaluation window, cut to ``SCAN_CHUNK // rows`` cycles but never
      below ``SCAN_SPAN``. It leaves at its first cycle at or below the
      floor; otherwise it moves past the window, and the window doubles.

    A family without a bound evaluates every live row each round, on windows
    that double the same way. Certified cells cannot be crossings and
    evaluated windows are searched in cycle order, so every result is that
    of evaluating each row at every cycle.

    Returns ``(t_eol, censored, n_points, n_evaluated)``: censored rows (no
    crossing, NaN or +inf curves) hold the horizon, ``n_points`` counts the
    cells from t_c + 1 through each row's end of life (the horizon when
    censored) and ``n_evaluated`` the curve values the scan computed. There
    is no bisection: a double exponential need not be monotone, and the
    first crossing in cycle order is the end of life.
    """
    n = theta.shape[0]
    t_eol = np.full(n, float(cfg.horizon))
    censored = np.ones(n, dtype=bool)
    first, last = max(int(math.floor(cfg.t_c)) + 1, 1), int(math.floor(cfg.horizon))
    front = np.full(n, first)
    span = np.full(n, SCAN_SPAN)
    window = np.full(n, SCAN_SPAN)
    live = np.arange(n) if first <= last else np.arange(0)
    n_evaluated = 0
    while live.size:
        k0 = front[live]
        k1 = np.minimum(k0 + span[live] - 1, last)
        safe = _certified(theta[live], model, k0, k1, cfg.threshold)
        if safe is None:
            todo = live
        else:
            done = live[safe]
            front[done] = k1[safe] + 1
            span[done] *= 2
            failed = live[~safe]
            short = span[failed] == SCAN_SPAN
            todo, wide = failed[short], failed[~short]
            span[wide] = np.maximum(span[wide] // 4, SCAN_SPAN)
        if todo.size:
            start = front[todo]
            width = np.minimum(window[todo], max(SCAN_SPAN, SCAN_CHUNK // todo.size))
            width = np.minimum(width, last - start + 1)
            # a row's window short of the widest repeats its last cycle,
            # which cannot move its first crossing
            steps = np.minimum(np.arange(width.max()), width[:, None] - 1)
            cycles = (start[:, None] + steps).astype(float)
            below = model.predict_batch(theta[todo], cycles) <= cfg.threshold
            n_evaluated += below.size
            hit = below.any(axis=1)
            crossed = todo[hit]
            t_eol[crossed] = cycles[hit, below[hit].argmax(axis=1)]
            censored[crossed] = False
            front[todo] = start + width
            window[todo] = np.minimum(2 * window[todo], SCAN_CHUNK)
        live = live[censored[live] & (front[live] <= last)]
    ends = np.where(censored, last, t_eol)
    n_points = int(np.maximum(ends - first + 1, 0).sum())
    return t_eol, censored, n_points, n_evaluated


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
    t_eol, censored, _, _ = _first_crossing(theta[None], model, cfg)
    return float(t_eol[0]), bool(censored[0])


def rul_distribution(
    samples: SampleSet, model: DegradationModel, cfg: PrognosisConfig
) -> PrognosisResult:
    """Remaining-useful-life distribution over all posterior samples.

    Crack growth maps :func:`end_of_life` over the sample set; battery
    capacity runs one first-crossing scan over all samples at once, and the
    provenance records ``n_curve_points``, the cells (draws x cycles) from
    t_c + 1 through each draw's end of life (the horizon when censored),
    and ``n_curve_evaluated``, the capacity values the scan computed; the
    rest were certified above the floor.
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
        t_eol, censored, n_points, n_evaluated = _first_crossing(theta, model, cfg)
        provenance.update(n_curve_points=n_points, n_curve_evaluated=n_evaluated)
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
