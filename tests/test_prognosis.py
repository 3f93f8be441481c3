"""Trajectory bands, end-of-life search and RUL distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbprog import prognosis
from hbprog.models import (
    BatteryDoubleModel,
    BatterySingleModel,
    ParisCrackModel,
)
from hbprog.prognosis import (
    PrognosisConfig,
    end_of_life,
    predict_trajectory,
    rul_distribution,
)
from hbprog.samplers import SampleSet

from conftest import CONST_LOADING, GEOMETRY, ConstantCapacity

CRACK_MODEL = ParisCrackModel(GEOMETRY, CONST_LOADING)
BATT_MODEL = BatteryDoubleModel()
BATT_SINGLE = BatterySingleModel()
BATTERIES = pytest.mark.parametrize(
    "model", [BATT_SINGLE, BATT_MODEL], ids=["batt-single", "batt-double"]
)
#: capacity floor of the scan tests, in Ahr
FLOOR = 1.5
#: batt-double curve that falls through the floor near cycle 13, bottoms out
#: near cycle 79 and climbs back above it near cycle 124
DIP = [1.0, 1.0, -1.0, -1.0]


def singleton(theta, sigma=0.05):
    row = np.concatenate([np.asarray(theta, dtype=float), [sigma]])
    labels = tuple(f"theta{j+1}" for j in range(len(theta))) + ("sigma",)
    return SampleSet(row[None, :], labels)


class TestPrognosisConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PrognosisConfig(threshold=25.0, t_c=100.0, horizon=50.0)
        with pytest.raises(ValueError):
            PrognosisConfig(threshold=25.0, t_c=0.0, horizon=10.0, quantiles=(0.9, 0.1))
        with pytest.raises(ValueError):
            PrognosisConfig(threshold=25.0, t_c=0.0, horizon=10.0, quantiles=(0.0, 0.5))
        with pytest.raises(ValueError):
            PrognosisConfig(threshold=1.4, t_c=0.0, horizon=2.0**53 + 2)
        assert PrognosisConfig(threshold=1.4, t_c=0.0, horizon=2.0**53).horizon == 2.0**53


class TestPredictTrajectory:
    def test_singleton_bands_collapse_to_curve(self):
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e5)
        grid = np.linspace(0, 2e4, 11)
        ss = singleton([1.0, 1.05])
        res = predict_trajectory(ss, CRACK_MODEL, grid, cfg)
        curve = CRACK_MODEL.predict(np.array([1.0, 1.05]), grid)
        for band in res.bands:
            np.testing.assert_array_equal(band, curve)

    def test_median_band_monotone_for_growing_crack(self, crack_fleet):
        fleet, truth = crack_fleet
        rows = np.array([[u["theta"][0], u["theta"][1], u["sigma"]] for u in truth["units"]])
        ss = SampleSet(rows, ("theta1", "theta2", "sigma"))
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e5)
        grid = np.linspace(0, 3e4, 16)
        res = predict_trajectory(ss, CRACK_MODEL, grid, cfg)
        median = res.bands[1]
        assert np.all(np.diff(median) >= -1e-12)

    def test_band_levels_ordered_at_every_cycle(self, crack_fleet):
        fleet, truth = crack_fleet
        rows = np.array([[u["theta"][0], u["theta"][1], u["sigma"]] for u in truth["units"]])
        ss = SampleSet(rows, ("theta1", "theta2", "sigma"))
        cfg = PrognosisConfig(
            threshold=25.0, t_c=0.0, horizon=1e5, quantiles=(0.05, 0.25, 0.5, 0.75, 0.95)
        )
        res = predict_trajectory(ss, CRACK_MODEL, grid=np.linspace(0, 2.4e4, 13), cfg=cfg)
        assert np.all(np.diff(res.bands, axis=0) >= -1e-12)

    def test_synthetic_coverage_with_noise(self):
        """~95% of fresh noisy observations fall inside the 95% band built
        from the true parameters with observation noise on."""
        theta_star, sigma_star = np.array([1.0, 1.05]), 0.08
        grid = np.linspace(1000, 30000, 400)
        cfg = PrognosisConfig(
            threshold=25.0, t_c=0.0, horizon=1e5, include_observation_noise=True
        )
        ss = SampleSet(
            np.tile(np.concatenate([theta_star, [sigma_star]]), (800, 1)),
            ("theta1", "theta2", "sigma"),
        )
        res = predict_trajectory(ss, CRACK_MODEL, grid, cfg, seed=1)
        curve = CRACK_MODEL.predict(theta_star, grid)
        rng = np.random.default_rng(7)
        zeta2 = np.log1p((sigma_star / curve) ** 2)
        fresh = np.exp(np.log(curve) - zeta2 / 2 + np.sqrt(zeta2) * rng.standard_normal(grid.size))
        inside = np.mean((fresh >= res.bands[0]) & (fresh <= res.bands[-1]))
        # binomial tolerance: 0.95 +- 4 * sqrt(0.95 * 0.05 / 400)
        assert abs(inside - 0.95) < 4 * math.sqrt(0.95 * 0.05 / 400)

    @pytest.mark.parametrize("n", [1, 2, 7, 2000])
    def test_bands_are_inverted_cdf_quantiles(self, n):
        """The bands from one column sort equal ``np.quantile``'s
        inverted-CDF ones, with ties, +inf and NaN in the columns."""
        rng = np.random.default_rng(n)
        curves = rng.lognormal(0.0, 1.0, (n, 7))
        curves[:, 1] = 2.5
        curves[:, 2] = rng.integers(0, 3, n)
        curves[rng.random(n) < 0.3, 3] = np.inf
        curves[0, 3] = np.inf
        curves[:, 4] = np.inf
        curves[n // 2, 5] = np.nan
        curves[0, 6] = np.inf
        curves[-1, 6] = np.nan
        levels = (0.025, 0.1, 0.5, 0.9, 0.975)
        bands = prognosis._quantile_bands(curves.copy(), levels)
        np.testing.assert_array_equal(
            bands, np.quantile(curves, levels, axis=0, method="inverted_cdf")
        )
        assert np.isnan(bands[:, 5:]).all()

    def test_diverged_sample_counts_toward_upper_band(self):
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e6)
        rows = np.array([[1.0, 1.05, 0.05], [1.5, 1.0, 0.05]])  # second diverges early
        ss = SampleSet(rows, ("theta1", "theta2", "sigma"))
        res = predict_trajectory(ss, CRACK_MODEL, np.array([0.0, 1e3, 5e4]), cfg)
        assert np.isinf(res.bands[-1][-1])
        assert np.isfinite(res.bands[0]).all()

    @pytest.mark.parametrize("family", ["batt-double", "paris"])
    def test_noise_stream_matches_per_row_loop(self, family):
        """With observation noise the bands are byte-identical to a loop that
        perturbs one curve at a time from the same generator."""
        rng = np.random.default_rng(3)
        if family == "paris":
            model, grid = CRACK_MODEL, np.linspace(0.0, 3e4, 40)
            rows = np.column_stack([rng.normal(1.0, 0.1, 60), rng.normal(1.05, 0.02, 60)])
            rows[0] = [1.5, 1.0]  # diverges inside the grid: +inf entries stay
        else:
            model, grid = BATT_MODEL, np.arange(1.0, 400.0, 7.0)
            rows = rng.normal(1.0, 0.05, (60, 4))
            rows[0, 0] = -1.0  # inadmissible: a row of +inf
        ss = sample_set(rows, sigma=rng.uniform(0.01, 0.1, 60))
        cfg = PrognosisConfig(
            threshold=25.0, t_c=0.0, horizon=1e5, include_observation_noise=True
        )
        got = predict_trajectory(ss, model, grid, cfg, seed=11).bands
        loop = np.random.default_rng(11)
        curves = []
        for row in ss.samples:
            pred = model.predict_batch(row[None, :-1], grid)[0]
            finite = np.isfinite(pred)
            p, sigma = pred[finite], row[-1]
            z = loop.standard_normal(p.size)
            if model.likelihood == "gaussian":
                pred[finite] = p + sigma * z
            else:
                zeta2 = np.log1p((sigma / p) ** 2)
                pred[finite] = np.exp(np.log(p) - 0.5 * zeta2 + np.sqrt(zeta2) * z)
            curves.append(pred)
        want = np.quantile(np.array(curves), cfg.quantiles, axis=0, method="inverted_cdf")
        assert not np.isfinite(np.array(curves)).all()
        assert got.tobytes() == want.tobytes()

    def test_grid_validation(self):
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e5)
        with pytest.raises(ValueError):
            predict_trajectory(singleton([1.0, 1.05]), CRACK_MODEL, [5.0, 5.0], cfg)


class TestEndOfLife:
    def test_crack_at_threshold_now(self):
        theta = np.array([1.0, 1.05])
        t_c = 12000.0
        a_now = float(CRACK_MODEL.predict(theta, [t_c])[0])
        cfg = PrognosisConfig(threshold=a_now, t_c=t_c, horizon=1e6)
        t_eol, censored = end_of_life(np.concatenate([theta, [0.05]]), CRACK_MODEL, cfg)
        assert not censored
        assert t_eol == pytest.approx(t_c, abs=1e-6)

    def test_crack_matches_bisection_within_half_cycle(self):
        theta = np.array([1.1, 1.04])
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e7)
        t_eol, censored = end_of_life(np.array([*theta, 0.05]), CRACK_MODEL, cfg)
        assert not censored
        lo, hi = 0.0, 1e7
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(CRACK_MODEL.predict(theta, [mid])[0]) < 25.0:
                lo = mid
            else:
                hi = mid
        assert abs(t_eol - 0.5 * (lo + hi)) < 0.5

    def test_battery_crossing_matches_dense_scan(self):
        theta = np.ones(4)
        cfg = PrognosisConfig(threshold=1.4, t_c=0.0, horizon=500.0)
        t_eol, censored = end_of_life(np.array([*theta, 0.01]), BATT_MODEL, cfg)
        assert not censored
        dense = np.arange(1, 501)
        # the nominal curve 1.92 e^{-0.02k} - 0.003 e^{-0.05k}, written out
        q = 1.92 * np.exp(-0.02 * dense) - 0.003 * np.exp(-0.05 * dense)
        brute = dense[np.argmax(q <= 1.4)]
        assert abs(t_eol - brute) <= 1.0

    def test_flat_capacity_censored(self):
        cfg = PrognosisConfig(threshold=1.4, t_c=0.0, horizon=300.0)
        theta = np.array([1.0, 0.0, 1.0, 0.0])  # zero decay rates
        t_eol, censored = end_of_life(np.array([*theta, 0.01]), BATT_MODEL, cfg)
        assert censored
        assert t_eol == 300.0

    def test_crack_censored_beyond_horizon(self):
        theta = np.array([0.8, 1.1])  # slow growth
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e4)
        t_eol, censored = end_of_life(np.array([*theta, 0.05]), CRACK_MODEL, cfg)
        assert censored


def capacity(model, theta, k):
    """Capacity at one integer cycle through ``math.exp``, +inf where the
    parameters are inadmissible."""
    if not model.admissible(np.asarray(theta, dtype=float)):
        return math.inf
    p = [t * n for t, n in zip(theta, model.nominals)]
    if model.family == "batt-single":
        return p[0] + p[1] * math.exp(p[2] / k)
    return p[0] * math.exp(p[1] * k) + p[2] * math.exp(p[3] * k)


def per_cycle_eol(model, theta, cfg):
    """First integer cycle in (t_c, horizon] at or below the floor, one
    cycle at a time."""
    for k in range(max(math.floor(cfg.t_c) + 1, 1), math.floor(cfg.horizon) + 1):
        if capacity(model, theta, k) <= cfg.threshold:
            return float(k), False
    return float(cfg.horizon), True


def crossing_row(model, cycle):
    """Parameters of a falling curve that is above FLOOR up to ``cycle - 1``
    and at or below it from ``cycle`` on (it crosses at ``cycle - 0.5``)."""
    x = cycle - 0.5
    if model.family == "batt-single":
        # 2 - exp(-100 theta3 / k) reaches 1.5 at k = 100 theta3 / ln 2
        return [1.0, 1.0, x * math.log(2.0) / 100.0]
    # 1.92 exp(-0.02 theta2 k) reaches 1.5 at k = ln(1.92 / 1.5) / (0.02 theta2)
    return [1.0, math.log(1.92 / FLOOR) / (0.02 * x), 0.0, 1.0]


def sample_set(rows, sigma=0.01):
    rows = np.asarray(rows, dtype=float)
    labels = tuple(f"theta{j + 1}" for j in range(rows.shape[1])) + ("sigma",)
    return SampleSet(np.column_stack([rows, np.broadcast_to(sigma, len(rows))]), labels)


class TestFirstCrossingScan:
    """The batched battery scan against a per-cycle ``math.exp`` loop."""

    @BATTERIES
    @pytest.mark.parametrize(
        "t_c, horizon", [(0.0, 400.0), (100.0, 400.0), (100.5, 400.0), (150.0, 400.7)]
    )
    def test_matches_per_cycle_loop(self, monkeypatch, model, t_c, horizon):
        # windows held at 16 cycles while more than 4 draws are evaluated
        monkeypatch.setattr(prognosis, "SCAN_CHUNK", 64)
        first, last = math.floor(t_c) + 1, math.floor(horizon)
        # the ends of the doubling spans 16, 32 and 64 from t_c + 1
        edges = [first + 16 * (2**j - 1) + d for j in (1, 2, 3) for d in (-2, -1, 0, 1)]
        cycles = [first - 30, first, first + 1, *edges, last - 1, last, last + 1, last + 50]
        rows = [crossing_row(model, c) for c in cycles if c >= 1]
        n = model.n_theta
        inadmissible = [[-1.0] + [1.0] * (n - 1), [0.0] + [1.0] * (n - 1)]
        rows += inadmissible
        if model.family == "batt-double":
            rows.append(DIP)
        cfg = PrognosisConfig(threshold=FLOOR, t_c=t_c, horizon=horizon)
        res = rul_distribution(sample_set(rows), model, cfg)
        want = [per_cycle_eol(model, row, cfg) for row in rows]
        assert res.t_eol.tolist() == [w[0] for w in want]
        assert res.censored.tolist() == [w[1] for w in want]
        assert [end_of_life([*row, 0.01], model, cfg) for row in rows] == want
        # the cases the rows stand for: crossings at t_c + 1, at the chunk
        # edges and at the horizon; beyond it and inadmissible ones censored
        by_cycle = dict(zip([c for c in cycles if c >= 1], res.t_eol))
        assert by_cycle[first] == first and by_cycle[first + 1] == first + 1
        assert all(by_cycle[c] == c for c in edges)
        assert by_cycle[last] == last and by_cycle[last - 1] == last - 1
        assert by_cycle[last + 1] == horizon and by_cycle[last + 50] == horizon
        assert res.censored[len(by_cycle):][: len(inadmissible)].all()
        ends = [last if censored else t_eol for t_eol, censored in want]
        assert res.provenance["n_curve_points"] == sum(end - first + 1 for end in ends)

    def test_first_crossing_of_a_curve_that_recovers(self):
        """The dip row crosses the floor, climbs back above it and stays
        there: the end of life is the first crossing, and a scan that starts
        after the recovery censors the draw."""
        dense = [capacity(BATT_MODEL, DIP, k) for k in range(1, 401)]
        below = [k for k, q in zip(range(1, 401), dense) if q <= FLOOR]
        assert below == list(range(below[0], below[-1] + 1)) and 1 < below[0] < below[-1] < 400
        early = PrognosisConfig(threshold=FLOOR, t_c=0.0, horizon=400.0)
        assert end_of_life([*DIP, 0.01], BATT_MODEL, early) == (float(below[0]), False)
        late = PrognosisConfig(threshold=FLOOR, t_c=float(below[-1]), horizon=400.0)
        assert end_of_life([*DIP, 0.01], BATT_MODEL, late) == (400.0, True)

    @BATTERIES
    def test_empty_cycle_range_is_censored(self, model):
        cfg = PrognosisConfig(threshold=FLOOR, t_c=10.2, horizon=10.9)
        res = rul_distribution(sample_set([crossing_row(model, 5)] * 2), model, cfg)
        assert res.censored.all() and res.t_eol.tolist() == [10.9, 10.9]
        assert res.provenance["n_curve_points"] == 0

    def test_scan_stops_at_the_crossing_chunk(self, monkeypatch):
        """The cells counted end at the crossing, whatever the per-round cap."""
        cfg = PrognosisConfig(threshold=FLOOR, t_c=0.0, horizon=500.0)
        ss = sample_set([crossing_row(BATT_MODEL, 145)])
        assert rul_distribution(ss, BATT_MODEL, cfg).provenance["n_curve_points"] == 145
        monkeypatch.setattr(prognosis, "SCAN_CHUNK", 16)
        res = rul_distribution(ss, BATT_MODEL, cfg)
        assert res.t_eol.tolist() == [145.0]
        assert res.provenance["n_curve_points"] == 145


def full_scan(theta, model, cfg):
    """Reference first-crossing scan: every row evaluated at every cycle of
    (t_c, horizon] in one ``predict_batch`` call. Returns
    ``(t_eol, censored, n_points)``, with ``n_points`` the cells from
    t_c + 1 through each row's end of life (the horizon when censored)."""
    cycles = scan_range(cfg)
    t_eol = np.full(theta.shape[0], float(cfg.horizon))
    if not cycles.size:
        return t_eol, np.ones(theta.shape[0], dtype=bool), 0
    below = model.predict_batch(theta, cycles) <= cfg.threshold
    hit = below.any(axis=1)
    first = below.argmax(axis=1)
    t_eol[hit] = cycles[first[hit]]
    return t_eol, ~hit, int(np.where(hit, first + 1, cycles.size).sum())


#: parameter rows that stress the bound, per family: mixed signs, zeros,
#: NaN and +-inf, inadmissible rows, near-flat curves whose values move by
#: single ulps, and terms whose slope grows across a chunk
EDGE_ROWS = {
    "batt-single": [
        [1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0],
        [-1.0, -1.0, -1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
        [math.nan, 1.0, 1.0], [1.0, math.inf, 1.0], [1.0, 1.0, -math.inf],
        [1.0, 1e-16, 1.0], [1.0, 1.0, 1e-14], [0.75, 1e-3, -1e-15], [1.0, 0.3, -0.2],
        [0.0, 4.0, -7.0],  # e^700 at k = 1: the slope bound times the width overflows
    ],
    "batt-double": [
        DIP, [1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, -1.0],
        [1.0, 0.0, 1.0, -1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0],
        [-1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [math.nan, 1.0, 1.0, 1.0],
        [1.0, math.inf, 1.0, 1.0], [1.0, -math.inf, 1.0, 1.0], [math.inf, 1.0, 1.0, 1.0],
        [1.0, 5e-17, 0.0, 0.0], [1.0, 1e-15, 1.0, 1e-14], [0.8, -2e-16, 1.0, 3e-16],
    ],
}

#: relative offsets of a floor placed at a curve's own value
NEAR = [0.0, 1e-12, -1e-12]

coordinate = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-60.0, 60.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-18.0, -8.0)),
)


def theta_rows(n_theta, max_rows=8):
    row = st.lists(coordinate, min_size=n_theta, max_size=n_theta)
    return st.lists(row, min_size=1, max_size=max_rows).map(lambda r: np.array(r, dtype=float))


def scan_range(cfg):
    first, last = max(math.floor(cfg.t_c) + 1, 1), math.floor(cfg.horizon)
    return np.arange(first, last + 1, dtype=float)


def near_floors(model, row, cfg):
    """Floors at and within 1e-12 (relative) of the row's minimum over the
    scan range, and of its value at a few cycles of it."""
    cycles = scan_range(cfg)
    curve = model.predict_batch(np.asarray(row, dtype=float)[None], cycles)[0]
    picks = [curve.min(), curve[0], curve[len(curve) // 3], curve[-1]]
    return [v * (1.0 + r) for v in picks if math.isfinite(v) for r in NEAR]


def assert_matches_full_scan(theta, model, cfg):
    t_eol, censored, n_points, n_evaluated = prognosis._first_crossing(theta, model, cfg)
    want = full_scan(theta, model, cfg)
    assert t_eol.tobytes() == want[0].tobytes()
    assert censored.tobytes() == want[1].tobytes()
    assert n_points == want[2]
    assert n_evaluated >= 0


class TestCertifiedScan:
    """The scan skips chunks the family bound certifies above the floor;
    its results must be those of the full scan, bit for bit."""

    @BATTERIES
    @pytest.mark.parametrize("chunk", [16, 64])
    @pytest.mark.parametrize("t_c, horizon", [(0.0, 400.0), (100.5, 400.7)])
    def test_edge_rows_match_full_scan(self, monkeypatch, model, chunk, t_c, horizon):
        monkeypatch.setattr(prognosis, "SCAN_CHUNK", chunk)
        rows = np.array(EDGE_ROWS[model.family])
        cfg = PrognosisConfig(threshold=FLOOR, t_c=t_c, horizon=horizon)
        assert_matches_full_scan(rows, model, cfg)
        for row in rows:
            for floor in near_floors(model, row, cfg):
                cfg = PrognosisConfig(threshold=floor, t_c=t_c, horizon=horizon)
                assert_matches_full_scan(row[None], model, cfg)
                assert_matches_full_scan(rows, model, cfg)

    @BATTERIES
    @pytest.mark.parametrize("chunk", [16, 64, prognosis.SCAN_CHUNK])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_drawn_rows_match_full_scan(self, model, chunk, data):
        theta = data.draw(theta_rows(model.n_theta))
        t_c = data.draw(st.floats(0.0, 300.0))
        horizon = t_c + data.draw(st.floats(0.5, 400.0))
        cfg = PrognosisConfig(threshold=FLOOR, t_c=t_c, horizon=horizon)
        near = near_floors(model, theta[0], cfg) if scan_range(cfg).size else []
        floor = data.draw(st.sampled_from(near) | st.floats(-2.0, 4.0) if near else st.floats(-2.0, 4.0))
        cfg = PrognosisConfig(threshold=floor, t_c=t_c, horizon=horizon)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prognosis, "SCAN_CHUNK", chunk)
            assert_matches_full_scan(theta, model, cfg)

    @BATTERIES
    @given(data=st.data(), rel=st.sampled_from(NEAR))
    @settings(max_examples=200, deadline=None)
    def test_certified_chunk_stays_above_floor(self, model, data, rel):
        """Direct soundness over per-row spans up to 5,000 cycles: with each
        row's floor at (or within 1e-12 of) its own minimum over its span,
        a certified row has a ``predict_batch`` value above the floor at
        every integer cycle of it."""
        theta = data.draw(theta_rows(model.n_theta, max_rows=16))
        n = theta.shape[0]
        k0 = np.array(data.draw(st.lists(st.integers(1, 3000), min_size=n, max_size=n)))
        widths = st.integers(1, 300) | st.integers(1, 5000)
        width = np.array(data.draw(st.lists(widths, min_size=n, max_size=n)))
        curves = [
            model.predict_batch(row[None], np.arange(k, k + w, dtype=float))[0]
            for row, k, w in zip(theta, k0, width)
        ]
        with np.errstate(invalid="ignore"):
            floor = np.array([c.min() for c in curves]) * (1.0 + rel)
        safe = prognosis._certified(theta, model, k0, k0 + width - 1, floor)
        for curve, f, certified in zip(curves, floor, safe):
            assert not certified or np.all(curve > f)

    @BATTERIES
    @pytest.mark.parametrize("k0, width", [(1, 16), (30, 16), (200, 64), (1, 1)])
    def test_edge_rows_certified_only_above_their_minimum(self, model, k0, width):
        rows = np.array(EDGE_ROWS[model.family])
        curves = model.predict_batch(rows, np.arange(k0, k0 + width, dtype=float))
        for rel in NEAR:
            with np.errstate(invalid="ignore"):
                floor = curves.min(axis=1) * (1.0 + rel)
            safe = prognosis._certified(rows, model, k0, k0 + width - 1, floor)
            assert np.all(curves[safe] > floor[safe, None])

    def test_flat_curve_certified_whole_range(self):
        """A constant curve well above the floor is never evaluated; the
        scan still counts every cell it covered."""
        cfg = PrognosisConfig(threshold=FLOOR, t_c=0.0, horizon=300.0)
        res = rul_distribution(sample_set([[1.0, 0.0, 1.0, 0.0]]), BATT_MODEL, cfg)
        assert res.censored.tolist() == [True]
        assert res.provenance["n_curve_points"] == 300
        assert res.provenance["n_curve_evaluated"] == 0

    def test_only_the_crossing_chunk_is_evaluated(self, monkeypatch):
        """A gently falling curve: the spans before the crossing at cycle
        145 are certified, and one 16-cycle window is evaluated."""
        monkeypatch.setattr(prognosis, "SCAN_CHUNK", 16)
        cfg = PrognosisConfig(threshold=FLOOR, t_c=0.0, horizon=500.0)
        res = rul_distribution(sample_set([crossing_row(BATT_MODEL, 145)]), BATT_MODEL, cfg)
        assert res.t_eol.tolist() == [145.0]
        assert res.provenance["n_curve_points"] == 145
        assert res.provenance["n_curve_evaluated"] == 16

    def test_base_model_certifies_nothing(self):
        model = ConstantCapacity()
        rows = np.array([[1.0], [0.5], [-1.0]])
        assert prognosis._certified(rows, model, 1, 16, FLOOR) is None
        cfg = PrognosisConfig(threshold=1.2, t_c=0.0, horizon=50.0)
        res = rul_distribution(sample_set(rows), model, cfg)
        assert res.t_eol.tolist() == [50.0, 1.0, 50.0]
        assert res.provenance["n_curve_points"] == 50 + 1 + 50
        # windows of 16, 32 and the last 2 cycles, over 3, 2 and 2 rows
        assert res.provenance["n_curve_evaluated"] == 3 * 16 + 2 * 32 + 2 * 2


class CountingCalls:
    """A model's ``predict_batch`` and ``scan_bound`` with their calls counted."""

    def __init__(self, monkeypatch, model):
        self.predict = self.bound = 0
        predict, bound = model.predict_batch, model.scan_bound

        def counted_predict(*args):
            self.predict += 1
            return predict(*args)

        def counted_bound(*args):
            self.bound += 1
            return bound(*args)

        monkeypatch.setattr(model, "predict_batch", counted_predict)
        monkeypatch.setattr(model, "scan_bound", counted_bound)


def rounds_needed(n_cycles, width):
    """Rounds that windows doubling from 16 cycles, capped at ``width``,
    take to cover ``n_cycles``."""
    rounds, span = 0, 16
    while n_cycles > 0:
        n_cycles -= min(span, width)
        span, rounds = 2 * span, rounds + 1
    return rounds


class TestGallopingScan:
    """Per-row spans and windows that double: the results of the per-cycle
    loop, in few rounds."""

    @BATTERIES
    @pytest.mark.parametrize("cycle", [3000, 3001, 16 * (2**7 - 1), 16 * (2**7 - 1) + 1])
    def test_crossing_after_a_long_certified_span(self, model, cycle):
        """A row certified over thousands of cycles still stops at its own
        first crossing, beside rows that cross early and late."""
        cfg = PrognosisConfig(threshold=FLOOR, t_c=0.0, horizon=5000.0)
        rows = [crossing_row(model, c) for c in (cycle, 2, 17, 4999, 5000)]
        res = rul_distribution(sample_set(rows), model, cfg)
        want = [per_cycle_eol(model, row, cfg) for row in rows]
        assert res.t_eol.tolist() == [w[0] for w in want] == [cycle, 2, 17, 4999, 5000]
        assert_matches_full_scan(np.array(rows), model, cfg)
        # a 16-cycle window or two per row, at its crossing
        assert res.provenance["n_curve_evaluated"] <= 2 * 16 * len(rows)

    @BATTERIES
    @pytest.mark.parametrize("t_c, horizon", [(0.0, 2000.0), (37.5, 1500.2)])
    def test_crossings_at_the_range_ends(self, model, t_c, horizon):
        cfg = PrognosisConfig(threshold=FLOOR, t_c=t_c, horizon=horizon)
        first, last = math.floor(t_c) + 1, math.floor(horizon)
        rows = np.array([crossing_row(model, c) for c in (first, first + 1, last - 1, last, last + 1)])
        assert_matches_full_scan(rows, model, cfg)
        t_eol, censored = prognosis._first_crossing(rows, model, cfg)[:2]
        assert t_eol.tolist() == [first, first + 1, last - 1, last, horizon]
        assert censored.tolist() == [False] * 4 + [True]
        for row, want in zip(rows, zip(t_eol, censored)):
            assert end_of_life([*row, 0.01], model, cfg) == want

    def test_dip_rows(self):
        """The dip row beside copies that start scanning inside and after
        its dip."""
        for t_c in (0.0, 40.0, 90.0, 130.0):
            cfg = PrognosisConfig(threshold=FLOOR, t_c=t_c, horizon=3000.0)
            rows = np.array([DIP, DIP, crossing_row(BATT_MODEL, 2500)])
            assert_matches_full_scan(rows, BATT_MODEL, cfg)
            assert end_of_life([*DIP, 0.01], BATT_MODEL, cfg) == per_cycle_eol(BATT_MODEL, DIP, cfg)

    @BATTERIES
    def test_uncertifiable_rows_gallop(self, monkeypatch, model):
        """NaN and inadmissible rows are never certified: their evaluated
        windows double, so 2,000 of them cover 5,000 cycles in no more
        rounds than 65-cycle windows need, and one alone in the 9 rounds of
        windows doubling from 16 cycles."""
        cfg = PrognosisConfig(threshold=FLOOR, t_c=0.0, horizon=5000.0)
        n = model.n_theta
        bad = np.array([[math.nan] * n, [-1.0] + [1.0] * (n - 1), [1.0, math.inf] + [1.0] * (n - 2)])
        rows = np.concatenate([np.tile(bad, (667, 1))[:2000], [crossing_row(model, 700)]])
        counts = CountingCalls(monkeypatch, model)
        prognosis._first_crossing(rows, model, cfg)
        assert counts.predict <= rounds_needed(5000, prognosis.SCAN_CHUNK // len(rows))
        assert_matches_full_scan(rows, model, cfg)
        for row in bad:
            counts.predict = 0
            assert end_of_life([*row, 0.01], model, cfg) == (5000.0, True)
            assert counts.predict <= rounds_needed(5000, prognosis.SCAN_CHUNK)

    def test_long_scan_of_drawn_rows_matches(self):
        """2,000 slowly fading rows over 28,000 cycles, as a posterior
        gives them: the per-cycle results in a few dozen rounds."""
        model = BatteryDoubleModel((1.92, -3e-5, -0.003, -0.05))
        rng = np.random.default_rng(7)
        n = 2000
        theta = np.column_stack([
            rng.normal(1.0, 0.01, n), np.exp(rng.normal(0.0, 0.6, n)),
            rng.normal(1.0, 0.05, n), rng.normal(1.0, 0.05, n),
        ])
        cfg = PrognosisConfig(threshold=1.4, t_c=2000.0, horizon=30000.0)
        with pytest.MonkeyPatch.context() as mp:
            counts = CountingCalls(mp, model)
            t_eol, censored, n_points, n_evaluated = prognosis._first_crossing(theta, model, cfg)
        assert 0 < censored.sum() < n
        for i in rng.choice(n, 12, replace=False):
            assert (t_eol[i], censored[i]) == per_cycle_eol(model, theta[i], cfg)
        assert counts.bound <= 64
        assert n_evaluated < 0.01 * n_points

    def test_constant_capacity_takes_few_rounds(self, monkeypatch):
        """A family without a bound evaluates doubling windows, at most
        ``SCAN_CHUNK`` values a round: one row covers 5,000 cycles in 9
        rounds, and 2,000 rows never crawl 16 cycles at a time."""
        model = ConstantCapacity()
        cfg = PrognosisConfig(threshold=1.2, t_c=0.0, horizon=5000.0)
        counts = CountingCalls(monkeypatch, model)
        assert end_of_life([1.0, 0.01], model, cfg) == (5000.0, True)
        assert counts.predict == rounds_needed(5000, prognosis.SCAN_CHUNK) == 9
        counts.predict = 0
        rows = np.where(np.arange(2000) % 2, 1.0, 0.5)[:, None]
        res = rul_distribution(sample_set(rows), model, cfg)
        assert res.t_eol.tolist() == [1.0, 5000.0] * 1000
        # 16 cycles over 2,000 rows, then 32, 64, 128 and 131-cycle windows
        # over the 1,000 that did not cross
        assert prognosis.SCAN_CHUNK // 1000 == 131
        assert counts.predict == 1 + 3 + math.ceil((5000 - 16 - 32 - 64 - 128) / 131)
        assert res.provenance["n_curve_evaluated"] <= counts.predict * prognosis.SCAN_CHUNK


class TestRulDistribution:
    def test_singleton_point_mass(self):
        theta = np.array([1.0, 1.05])
        t_c = 5000.0
        cfg = PrognosisConfig(threshold=25.0, t_c=t_c, horizon=1e6)
        res = rul_distribution(singleton(theta), CRACK_MODEL, cfg)
        nf = CRACK_MODEL.cycles_to_failure(theta)
        assert res.rul.shape == (1,)
        assert res.rul[0] == pytest.approx(nf - t_c, rel=1e-12)
        assert res.summary["mean"] == res.summary["median"] == res.rul[0]

    def test_overflowing_growth_rate_fails_at_tc(self):
        """A draw whose growth rate overflows ``math.exp`` (at m = 2 and
        away from it) has failed by t_c, where ``predict`` turns +inf
        at once: t_eol = t_c, not censored."""
        rows = np.array([[1.0, -40.0, 0.05], [0.5, -40.0, 0.05]])
        for theta in rows[:, :2]:
            assert CRACK_MODEL.cycles_to_failure(theta) == GEOMETRY.n0
            assert CRACK_MODEL.predict(theta, [0.0, 1.0]).tolist() == [1.0, math.inf]
        cfg = PrognosisConfig(threshold=25.0, t_c=5000.0, horizon=1e6)
        res = rul_distribution(SampleSet(rows, ("theta1", "theta2", "sigma")), CRACK_MODEL, cfg)
        assert res.t_eol.tolist() == [5000.0, 5000.0]
        assert res.censored.tolist() == [False, False]

    def test_rul_is_exactly_eol_minus_tc(self, crack_fleet):
        _, truth = crack_fleet
        rows = np.array([[u["theta"][0], u["theta"][1], u["sigma"]] for u in truth["units"]])
        ss = SampleSet(rows, ("theta1", "theta2", "sigma"))
        cfg = PrognosisConfig(threshold=25.0, t_c=7000.0, horizon=1e7)
        res = rul_distribution(ss, CRACK_MODEL, cfg)
        np.testing.assert_array_equal(res.rul, res.t_eol - 7000.0)

    def test_stochastic_ordering_under_faster_degradation(self):
        rng = np.random.default_rng(4)
        base_theta2 = 1.0 + 0.01 * rng.standard_normal(40)
        slow = np.column_stack([np.full(40, 0.95), base_theta2, np.full(40, 0.05)])
        # higher theta2 means more negative log C, so lower C: shift the
        # other way for faster growth
        fast = slow.copy()
        fast[:, 1] -= 0.05  # raises C by a factor e^(0.93)
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e8)
        labels = ("theta1", "theta2", "sigma")
        rul_slow = np.sort(rul_distribution(SampleSet(slow, labels), CRACK_MODEL, cfg).rul)
        rul_fast = np.sort(rul_distribution(SampleSet(fast, labels), CRACK_MODEL, cfg).rul)
        assert np.all(rul_fast <= rul_slow)

    def test_full_censoring_flagged(self):
        theta = np.array([1.0, 0.0, 1.0, 0.0])
        cfg = PrognosisConfig(threshold=1.4, t_c=0.0, horizon=200.0)
        ss = SampleSet(np.array([[*theta, 0.01]] * 3), ("theta1", "theta2", "theta3", "theta4", "sigma"))
        res = rul_distribution(ss, BATT_MODEL, cfg)
        assert res.summary["censored_fraction"] == 1.0
        assert not res.summary["informative"]
        assert res.summary["note"] == "no informative RUL within horizon"
        np.testing.assert_array_equal(res.rul, 200.0)

    def test_mixed_censoring_interval(self):
        rows = np.array([[1.0, 1.05, 0.05], [0.8, 1.1, 0.05]])  # second never crosses by horizon
        ss = SampleSet(rows, ("theta1", "theta2", "sigma"))
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e5)
        res = rul_distribution(ss, CRACK_MODEL, cfg)
        assert res.censored.tolist() == [False, True]
        assert res.summary["censored_fraction"] == 0.5
        assert res.rul[1] == 1e5  # lower bound at horizon - t_c
