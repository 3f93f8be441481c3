"""Batched log-target paths pinned to their scalar versions.

The batch forms use numpy's vectorized exp and log, which may differ from
the scalar paths in the last bit; the Paris curves raise that rounding to
the power 1 / (1 - m/2), so they get a wider tolerance. Non-finite entries
must match exactly.
"""

import numpy as np
import pytest

from hbprog.hierarchy import _stage2_target, _stage2_target_batch
from hbprog.models import (
    BatteryDoubleModel,
    BatterySingleModel,
    CrackGeometry,
    DegradationModel,
    LoadingSpec,
    ParisCrackModel,
)
from hbprog.samplers import SampleSet, SamplerConfig, SamplerError, TemperedTarget, tmcmc
from hbprog.targets import (
    HyperPriorBounds,
    dataset_loglik,
    dataset_loglik_batch,
)

from conftest import ConstantCapacity, make_dataset, stage2_loglik_oracle

GEO = CrackGeometry(a0=1.0, n0=0.0, a_f=25.0)
CONST = LoadingSpec("constant", delta_sigma=60.0)
TWO_BLOCK = LoadingSpec("two-block", delta_sigma1=50.0, n1=60.0, delta_sigma2=90.0, n2=40.0)
CRACK_GRID = np.linspace(0.0, 24000.0, 13)
BATT_GRID = np.arange(1.0, 80.0, 2.0)
EPS = np.finfo(float).eps
#: relative tolerances: battery curves and likelihoods, Paris curves
BATT_RTOL = 16 * EPS
PARIS_RTOL = 1e-12


def assert_matches(got, want, rtol, atol=0.0):
    """Equal non-finite entries, finite ones within ``rtol`` (and ``atol``)."""
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    np.testing.assert_allclose(got[finite], want[finite], rtol=rtol, atol=atol)


def crack_rows(rng, n=200):
    """Random crack parameters plus the edge rows: m = 2 exactly and
    |m - 2| of 8e-8 and 1.2e-7, fast growth that diverges inside the grid, an infinite growth
    rate, and inadmissible or non-finite rows."""
    theta = np.column_stack([rng.uniform(0.3, 2.5, n), rng.uniform(0.5, 1.6, n)])
    edge = [
        [1.0, 1.05],
        [1.0 + 4e-8, 1.05],
        [1.0 - 4e-8, 0.9],
        [1.0 + 6e-8, 1.05],
        [1.2, 1.02],  # diverges inside the grid
        [3.0, 0.3],  # diverges right after the first cycle
        [100.0, 1.0],  # the growth rate overflows to an infinite scale
        [-0.2, 1.0],
        [0.0, 1.0],
        [np.nan, 1.0],
        [1.2, np.inf],
    ]
    return np.vstack([edge, theta])


def battery_rows(rng, dim, n=200):
    theta = rng.uniform(-0.5, 3.0, (n, dim))
    theta[0, 1] = np.nan
    theta[1, 0] = -1.0
    theta[2, -1] = np.inf
    theta[3] = 1.0
    return theta


def stacked_predict(model, theta, cycles):
    with np.errstate(all="ignore"):
        return np.array([model.predict(row, cycles) for row in theta])


def rowwise_loglik(model, data, theta, sigma):
    with np.errstate(all="ignore"):
        return np.array([dataset_loglik(model, data, t, s) for t, s in zip(theta, sigma)])


class TestPredictBatch:
    @pytest.mark.parametrize("loading", [CONST, TWO_BLOCK], ids=["constant", "two-block"])
    def test_paris_matches_stacked_predict(self, loading):
        model = ParisCrackModel(GEO, loading)
        theta = crack_rows(np.random.default_rng(1))
        want = stacked_predict(model, theta, CRACK_GRID)
        got = model.predict_batch(theta, CRACK_GRID)
        assert_matches(got, want, PARIS_RTOL)
        # the edge rows really exercise divergence and the inf rows
        assert np.isinf(want[4, -1]) and np.isfinite(want[4, 4])
        assert np.isinf(want[5, 1:]).all() and np.isinf(want[6, 1:]).all()
        assert want[6, 0] == GEO.a0 and np.isinf(want[7:11]).all()

    @pytest.mark.parametrize(
        "model", [BatterySingleModel(), BatteryDoubleModel()], ids=["batt-single", "batt-double"]
    )
    def test_battery_matches_stacked_predict(self, model):
        theta = battery_rows(np.random.default_rng(2), model.n_theta)
        want = stacked_predict(model, theta, BATT_GRID)
        got = model.predict_batch(theta, BATT_GRID)
        assert_matches(got, want, BATT_RTOL)
        assert np.isinf(want[:3]).all()

    @pytest.mark.parametrize("n1, n2", [(1.0, 2.0), (5.0, 5.0), (0.3, 0.9)])
    def test_paris_tiny_exponent_two_block(self, n1, n2):
        """At theta1 = 1e-300 the power mean's log, rounded to about 1e-16,
        divided by m overflows exp; the curve only needs it times m again,
        so both paths return the same finite curve."""
        loading = LoadingSpec("two-block", delta_sigma1=50.0, n1=n1, delta_sigma2=90.0, n2=n2)
        model = ParisCrackModel(GEO, loading)
        theta = np.array([[1e-300, 1.0]])
        want = model.predict_batch(theta, [0.0, 1000.0])
        assert np.isfinite(want).all() and want[0, 1] > want[0, 0] == GEO.a0
        assert_matches(model.predict(theta[0], [0.0, 1000.0])[None], want, PARIS_RTOL)

    @pytest.mark.parametrize("mode", ["two-block", "constant"])
    def test_paris_exponent_overflow_is_one_inf_row(self, mode):
        """theta1 * m0 overflows at theta1 = 1e308: that row alone is +inf,
        in both paths, and the other rows are unaffected."""
        if mode == "two-block":
            loading = LoadingSpec("two-block", delta_sigma1=50.0, n1=1.0, delta_sigma2=90.0, n2=2.0)
        else:
            loading = LoadingSpec("constant", delta_sigma=60.0)
        model = ParisCrackModel(GEO, loading)
        theta = np.array([[1e308, 1.0], [1.0, 1.0]])
        cycles = [0.0, 1000.0]
        got = model.predict_batch(theta, cycles)
        assert np.isposinf(got[0]).all() and np.isfinite(got[1]).all()
        assert np.isposinf(model.predict(theta[0], cycles)).all()
        assert_matches(model.predict(theta[1], cycles)[None], got[1:], PARIS_RTOL)
        assert not model.admissible(theta[0]) and model.admissible(theta[1])

    def test_paris_band_rate_overflow(self):
        """At m = 2 a rate that overflows exp gives a0 at n0 and
        +inf after it (0 before it), in both paths, instead of raising."""
        geo = CrackGeometry(a0=1.0, n0=100.0, a_f=25.0)
        model = ParisCrackModel(geo, LoadingSpec("constant", delta_sigma=60.0))
        theta = np.array([1.0, -40.0])
        want = np.array([[0.0, 1.0, np.inf]])
        assert np.array_equal(model.predict(theta, [0.0, 100.0, 1000.0])[None], want)
        assert np.array_equal(model.predict_batch(theta[None], [0.0, 100.0, 1000.0]), want)

    def test_default_stacks_predict(self):
        model = ConstantCapacity()
        theta = np.array([[1.0], [0.5], [-1.0], [np.nan]])
        got = model.predict_batch(theta, BATT_GRID)
        assert np.array_equal(got, stacked_predict(model, theta, BATT_GRID))
        assert DegradationModel.predict_batch is type(model).predict_batch

    def test_battery_domain_checked(self):
        with pytest.raises(ValueError):
            BatterySingleModel().predict_batch(np.ones((2, 3)), [0.0, 1.0])


class TestDatasetLoglikBatch:
    def _sigma(self, rng, n):
        sigma = rng.uniform(-0.05, 0.3, n)
        sigma[:4] = [0.0, -0.1, np.nan, np.inf]
        return sigma

    @pytest.mark.parametrize("loading", [CONST, TWO_BLOCK], ids=["constant", "two-block"])
    def test_lognormal_matches_scalar(self, loading):
        rng = np.random.default_rng(3)
        model = ParisCrackModel(GEO, loading)
        data = make_dataset(CRACK_GRID.astype(int), np.linspace(1.0, 20.0, 13), loading=loading)
        theta = crack_rows(rng)
        sigma = self._sigma(rng, len(theta))
        want = rowwise_loglik(model, data, theta, sigma)
        got = dataset_loglik_batch(model, data, theta, sigma)
        assert_matches(got, want, PARIS_RTOL)
        assert np.isneginf(want[:11]).all() and np.isfinite(want).sum() > 50

    @pytest.mark.parametrize(
        "model", [BatterySingleModel(), BatteryDoubleModel()], ids=["batt-single", "batt-double"]
    )
    def test_gaussian_matches_scalar(self, model):
        rng = np.random.default_rng(4)
        data = make_dataset(
            BATT_GRID.astype(int), np.linspace(2.0, 1.5, BATT_GRID.size),
            family=model.family, loading=None, geometry=None,
        )
        theta = battery_rows(rng, model.n_theta, n=400)
        sigma = self._sigma(rng, len(theta))
        want = rowwise_loglik(model, data, theta, sigma)
        got = dataset_loglik_batch(model, data, theta, sigma)
        assert_matches(got, want, BATT_RTOL)
        assert np.isneginf(want[:4]).all() and np.isfinite(want).sum() > 100

    def test_all_rows_rejected(self):
        model = BatterySingleModel()
        data = make_dataset([1, 2], [2.0, 1.9], family="batt-single", loading=None, geometry=None)
        got = dataset_loglik_batch(model, data, np.ones((3, 3)), np.array([0.0, -1.0, np.nan]))
        assert np.isneginf(got).all()


def _stage1_sets(rng, n_theta=2):
    sets = []
    for n in (40, 75, 31):
        theta = 1 + 0.05 * rng.standard_normal((n, n_theta))
        sigma = rng.uniform(-0.02, 0.25, n)  # some rows fall outside (0, 0.2)
        labels = tuple(f"theta{j + 1}" for j in range(n_theta)) + ("sigma",)
        sets.append(SampleSet(np.column_stack([theta, sigma]), labels))
    return sets


class TestStage2Batch:
    @pytest.mark.parametrize(
        "n_theta, correlated", [(2, False), (2, True), (4, False)], ids=["diag", "corr", "diag-4"]
    )
    def test_matches_public_target(self, n_theta, correlated):
        rng = np.random.default_rng(5)
        sets = _stage1_sets(rng, n_theta)
        bounds = (
            HyperPriorBounds.crack_default(correlated)
            if n_theta == 2
            else HyperPriorBounds.battery_default(n_theta)
        )
        batch, got_n_theta = _stage2_target_batch(sets, bounds, correlated, 0.2)
        assert got_n_theta == n_theta
        lo, hi = bounds.lower(correlated), bounds.upper(correlated)
        vecs = rng.uniform(lo, hi, (300, lo.size))
        vecs[5, : n_theta + 1] = 1.0
        vecs[5, n_theta] = 0.08
        vecs[5, n_theta + 1 : 2 * n_theta + 2] = 0.05
        got = batch(vecs)
        mats = [ss.samples for ss in sets]
        want = np.array([stage2_loglik_oracle(mats, v, n_theta, correlated, 0.2) for v in vecs])
        # sums of terms of either sign: near-zero totals need an absolute bound
        assert_matches(got, want, 1e-12, atol=1e-12)
        assert np.isfinite(want[5]) and np.isfinite(want).sum() > 30
        # the slice sampler's scalar form is the same target
        scalar, _ = _stage2_target(sets, bounds, correlated, 0.2)
        assert [scalar(v) for v in vecs[:20]] == got[:20].tolist()

    @pytest.mark.parametrize("correlated", [False, True], ids=["diag", "corr"])
    def test_invalid_hyper_vectors(self, correlated):
        rng = np.random.default_rng(7)
        sets = _stage1_sets(rng)
        bounds = HyperPriorBounds.crack_default(correlated)
        batch, _ = _stage2_target_batch(sets, bounds, correlated, 0.2)
        good = 0.5 * (bounds.lower(correlated) + bounds.upper(correlated))
        vecs = np.tile(good, (6, 1))
        vecs[0, 3] = 0.0  # sd <= 0
        vecs[1, 4] = -0.01
        vecs[2, 5] = 0.0  # sd_sigma <= 0
        vecs[3, 2], vecs[3, 5] = -5.0, 1e-3  # no mass in (0, sigma_trunc)
        if correlated:
            vecs[4, -1] = 1.0  # |rho| >= 1
            vecs[5, -1] = -1.3
        got = batch(vecs)
        bad = 6 if correlated else 4
        assert np.isneginf(got[:bad]).all() and np.isfinite(got[bad:]).all()

    def test_blocks_respect_the_row_cap(self, monkeypatch):
        import hbprog.targets as targets

        rng = np.random.default_rng(6)
        sets = _stage1_sets(rng)
        bounds = HyperPriorBounds.crack_default()
        vecs = rng.uniform(bounds.lower(False), bounds.upper(False), (50, 6))
        whole, _ = _stage2_target_batch(sets, bounds, False, 0.2)
        monkeypatch.setattr(targets, "STAGE2_CHUNK_ROWS", 1)  # one vector per block
        single, _ = _stage2_target_batch(sets, bounds, False, 0.2)
        assert np.array_equal(whole(vecs), single(vecs))


class TestTMCMCBatch:
    def test_loglik_rows_counted(self):
        rows = []

        def loglik(x):
            rows.append(len(x))
            return -0.5 * (1.0 - x[:, 0]) ** 2

        def box(x):
            return np.where(np.abs(x[:, 0]) <= 1.0, 0.0, -np.inf)

        target = TemperedTarget(1, lambda rng, n: rng.uniform(-1.0, 1.0, (n, 1)), box, loglik)
        out = tmcmc(target, SamplerConfig(n_samples=300, seed=1))
        assert out.provenance["n_loglik_rows"] == sum(rows)
        # proposals outside the box never reach the likelihood
        sweeps = out.provenance["n_stages"] * SamplerConfig().tmcmc_moves
        assert sum(rows) < 300 * (1 + sweeps) and len(rows) <= 1 + sweeps

    def test_wrong_batch_shape_rejected(self):
        target = TemperedTarget(
            1, lambda rng, n: rng.standard_normal((n, 1)), lambda x: np.zeros(len(x)),
            lambda x: 0.0,
        )
        with pytest.raises(SamplerError, match="shape"):
            tmcmc(target, SamplerConfig(n_samples=50, seed=0))
