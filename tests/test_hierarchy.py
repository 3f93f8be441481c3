"""Two-stage workflow: per-dataset inference, hyper-posterior pooling,
current-unit updating, the classical baseline and model selection."""

import dataclasses
import math

import numpy as np
import pytest

import hbprog.hierarchy as hierarchy
from hbprog.hierarchy import (
    Candidate,
    ClassicalPrior,
    Dataset,
    build_model,
    classical_update,
    fit_historical,
    model_select,
    sample_mixture_prior,
    stage1_infer,
    stage2_infer,
    update_current,
)
from hbprog.io import SyntheticSpec, generate_synthetic
from hbprog.models import BatteryDoubleModel, DegradationModel, ParisCrackModel
from hbprog.samplers import SampleSet, SamplerConfig, SamplerError, subseed
from hbprog.targets import HyperParameters, HyperPriorBounds, ParameterVector, mixture_prior_logpdf

from conftest import (
    CONST_LOADING,
    CRACK_BOUNDS,
    CRACK_PSI,
    GEOMETRY,
    make_dataset,
)


class LinearModel(DegradationModel):
    """Toy straight-line family y = theta1 * t with Gaussian errors, for
    which the flat-prior posterior mean has a least-squares closed form."""

    family = "linear-toy"
    likelihood = "gaussian"
    n_theta = 1
    theta_labels = ("theta1",)
    nominal_scales = (1.0,)

    def admissible(self, theta):
        return bool(np.isfinite(theta[0]))

    def predict(self, theta, cycles):
        t = np.atleast_1d(np.asarray(cycles, dtype=float))
        return float(theta[0]) * t


class TestStage1:
    def test_linear_toy_matches_least_squares(self):
        rng = np.random.default_rng(0)
        t = np.arange(1, 21, dtype=float)
        y = 0.7 * t + 0.4 * rng.standard_normal(t.size)
        data = make_dataset(t.astype(int), y, family="linear-toy", loading=None, geometry=None)
        model = LinearModel()
        bounds = (np.array([0.0, 1e-3]), np.array([2.0, 2.0]))
        out = stage1_infer(data, model, bounds, SamplerConfig(n_samples=2000, seed=1))
        wls = float(t @ y / (t @ t))
        draws = out.column("theta1")
        se = draws.std() / math.sqrt(draws.size / 10)
        assert abs(draws.mean() - wls) < 3 * se

    def test_zero_noise_concentration(self):
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        theta_star = np.array([1.05, 1.06])
        sparse = np.linspace(0, 24000, 9).astype(int)
        dense = np.linspace(0, 24000, 33).astype(int)
        sds = {}
        for name, grid in (("sparse", sparse), ("dense", dense)):
            values = model.predict(theta_star, grid.astype(float))
            data = make_dataset(grid, values)
            out = stage1_infer(data, model, CRACK_BOUNDS, SamplerConfig(n_samples=1200, seed=3))
            sds[name] = out.column("theta1").std()
        assert sds["sparse"] / sds["dense"] >= 2.0

    def test_collapsed_bounds_point_mass(self):
        data = make_dataset([0, 8000], [1.0, 1.4])
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        point = np.array([1.0, 1.05, 0.05])
        out = stage1_infer(data, model, (point, point), SamplerConfig(n_samples=50, seed=0))
        assert np.all(out.samples == point)

    def test_pinned_sigma_searches_the_free_coordinates(self, monkeypatch):
        """With sigma's bounds equal, the mode search runs over the free
        coordinates only and the whitened chain keeps sigma at its bound
        while the parameters move."""
        searched = []
        search = hierarchy.differential_evolution

        def recorded(objective, bounds, seed):
            searched.append(len(bounds))
            return search(objective, bounds, seed)

        monkeypatch.setattr(hierarchy, "differential_evolution", recorded)
        data = make_dataset([0, 4000, 8000, 12000], [1.0, 1.12, 1.27, 1.45])
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        lower, upper = CRACK_BOUNDS[0].copy(), CRACK_BOUNDS[1].copy()
        lower[-1] = upper[-1] = 0.05
        out = stage1_infer(data, model, (lower, upper), SamplerConfig(n_samples=60, seed=2))
        assert searched == [2]
        assert out.provenance["sampler"] == "slice+whitened"
        assert np.all(out.column("sigma") == 0.05)
        assert np.all(out.samples[:, :2].std(axis=0) > 0)
        assert np.all((out.samples[:, :2] >= lower[:2]) & (out.samples[:, :2] <= upper[:2]))

    def test_n_evals_counts_pilot_and_final_runs(self, monkeypatch):
        """The whitened run's ``n_evals`` is the log-target calls of its
        pilot and final slice runs; initialisation calls are not counted."""
        runs = []
        run = hierarchy.slice_sample

        def counted(target, init, config):
            calls = []

            def log_target(x):
                calls.append(1)
                return target.log_target(x)

            out = run(dataclasses.replace(target, log_target=log_target), init, config)
            runs.append(len(calls))
            return out

        monkeypatch.setattr(hierarchy, "slice_sample", counted)
        data = make_dataset([0, 4000, 8000, 12000], [1.0, 1.12, 1.27, 1.45])
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        out = stage1_infer(data, model, CRACK_BOUNDS, SamplerConfig(n_samples=60, seed=2))
        assert len(runs) == 2
        assert out.provenance["n_evals"] == sum(runs)

    def test_empty_dataset_rejected(self):
        data = make_dataset([], [])
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        with pytest.raises(ValueError):
            stage1_infer(data, model, CRACK_BOUNDS, SamplerConfig(n_samples=10, seed=0))

    def test_recovers_truth_on_long_series(self, current_unit):
        unit, truth = current_unit
        model = build_model(unit)
        out = stage1_infer(unit, model, CRACK_BOUNDS, SamplerConfig(n_samples=800, seed=5))
        for j, label in enumerate(("theta1", "theta2")):
            lo, hi = np.quantile(out.column(label), [0.005, 0.995])
            assert lo - 0.01 <= truth["theta"][j] <= hi + 0.01


class TestStage2:
    def _stage1_sets(self, rows_list):
        labels = ("theta1", "theta2", "sigma")
        return [
            SampleSet(np.asarray(r, dtype=float), labels, {"unit_id": f"U{i}"})
            for i, r in enumerate(rows_list)
        ]

    def test_degenerate_fleet_concentrates(self):
        # one dataset of identical draws pins the population means near theta*
        theta_star = np.array([1.02, 1.07, 0.05])
        rows = np.tile(theta_star, (400, 1))
        out = stage2_infer(
            self._stage1_sets([rows]),
            HyperPriorBounds.crack_default(),
            "diag",
            SamplerConfig(n_samples=600, seed=2),
        )
        assert abs(out.column("mu_theta1").mean() - 1.02) < 0.05
        assert abs(out.column("mu_theta2").mean() - 1.07) < 0.03
        # several near-degenerate datasets additionally squeeze the
        # population spreads toward the bottom of their boxes (one dataset
        # leaves them flat, since the mean integrates the single kernel to a
        # constant; exactly coincident rows would make the spread posterior
        # improper at zero)
        rng = np.random.default_rng(0)
        jittered = [rows + 1e-3 * rng.standard_normal(rows.shape) for _ in range(3)]
        out3 = stage2_infer(
            self._stage1_sets(jittered),
            HyperPriorBounds.crack_default(),
            "diag",
            SamplerConfig(n_samples=600, seed=2),
        )
        assert np.median(out3.column("sd_theta1")) < 0.3 * 0.3
        assert np.median(out3.column("sd_theta2")) < 0.3 * 0.1

    def test_dimension_mismatch_rejected(self):
        a = SampleSet(np.ones((5, 3)), ("theta1", "theta2", "sigma"))
        b = SampleSet(np.ones((5, 4)), ("theta1", "theta2", "theta3", "sigma"))
        with pytest.raises(ValueError, match="mismatch"):
            stage2_infer([a, b], HyperPriorBounds.crack_default(), "diag", SamplerConfig(seed=0))

    def test_correlated_case_needs_two_components(self):
        a = SampleSet(np.ones((5, 4)), ("theta1", "theta2", "theta3", "sigma"))
        with pytest.raises(ValueError, match="correlated"):
            stage2_infer(
                [a], HyperPriorBounds.battery_default(3), "corr", SamplerConfig(seed=0)
            )

    def test_correlated_case_runs_and_labels_rho(self, crack_fleet):
        fleet, _ = crack_fleet
        res = fit_historical(
            fleet[:3],
            CRACK_BOUNDS,
            HyperPriorBounds.crack_default(correlated=True),
            case="corr",
            config=SamplerConfig(n_samples=300, seed=7),
            stage1_thin=150,
        )
        assert "rho" in res.hyper.labels
        rho = res.hyper.column("rho")
        assert np.all(np.abs(rho) < 1)

    def test_dataset_permutation_leaves_target_invariant(self, crack_fleet):
        """Permutation symmetry of the pooled target, checked through the
        sampler path by fitting permuted stage-1 sets with a fixed seed."""
        fleet, _ = crack_fleet
        cfg = SamplerConfig(n_samples=300, seed=11)
        sets = [
            stage1_infer(ds, build_model(ds), CRACK_BOUNDS, cfg.replace(seed=100 + i))
            for i, ds in enumerate(fleet[:3])
        ]
        fwd = stage2_infer(sets, HyperPriorBounds.crack_default(), "diag", cfg)
        rev = stage2_infer(sets[::-1], HyperPriorBounds.crack_default(), "diag", cfg)
        np.testing.assert_array_equal(fwd.samples, rev.samples)


@pytest.fixture(scope="module")
def hyper(crack_fleet):
    fleet, _ = crack_fleet
    res = fit_historical(
        fleet,
        CRACK_BOUNDS,
        HyperPriorBounds.crack_default(),
        config=SamplerConfig(n_samples=500, seed=4),
        stage1_thin=250,
    )
    return res.hyper


class TestUpdateCurrent:

    def test_prior_predictive_matches_ancestral_mean(self, hyper, current_unit):
        unit, _ = current_unit
        model = build_model(unit)
        draws = update_current(None, hyper, model, SamplerConfig(n_samples=4000, seed=5))
        reference = sample_mixture_prior(hyper, 20000, seed=99)
        for label in draws.labels:
            a, b = draws.column(label), reference.column(label)
            se = math.sqrt(a.var() / a.size + b.var() / b.size)
            assert abs(a.mean() - b.mean()) < 3 * se + 1e-12

    def test_posterior_contracts_against_prior(self, hyper, current_unit):
        unit, _ = current_unit
        model = build_model(unit)
        prior = update_current(None, hyper, model, SamplerConfig(n_samples=1500, seed=6))
        post = update_current(
            unit.truncate(40000), hyper, model, SamplerConfig(n_samples=800, seed=6),
            hyper_subsample=250,
        )
        assert np.all(post.sd() < prior.sd())

    def test_family_mismatch_rejected(self, hyper):
        data = make_dataset(
            [1, 5], [1.9, 1.8], family="batt-single", loading=None, geometry=None
        )
        with pytest.raises(ValueError, match="mismatch"):
            update_current(data, hyper, BatteryDoubleModel(), SamplerConfig(seed=0))

    def test_metadata_required(self, current_unit):
        unit, _ = current_unit
        bare = SampleSet(np.ones((5, 3)), ("theta1", "theta2", "sigma"))
        with pytest.raises(ValueError, match="metadata"):
            update_current(unit, bare, build_model(unit), SamplerConfig(seed=0))

    @pytest.mark.parametrize(
        "correlated, column, value",
        [(False, 3, -0.01), (False, 5, 0.0), (False, 2, 5.0), (True, 6, 1.0)],
        ids=["sd_theta-negative", "sd_sigma-zero", "no-truncation-mass", "rho-one"],
    )
    @pytest.mark.parametrize("with_data", [True, False], ids=["data", "no-data"])
    def test_malformed_hyper_sample_rejected(self, current_unit, correlated, column, value, with_data):
        """A hyper sample the population density is not defined for raises,
        naming its row, in both branches, even where thinning drops it."""
        unit, _ = current_unit
        good = [1.0, 1.05, 0.08, 0.08, 0.02, 0.03] + ([0.3] if correlated else [])
        rows = np.tile(good, (50, 1))
        rows[17, column] = value
        hyper = SampleSet(
            rows,
            HyperParameters.labels(2, correlated),
            {"n_theta": 2, "correlated": correlated, "sigma_trunc": 0.2},
        )
        with pytest.raises(ValueError, match=r"hyper sample 17 \(0-based\)"):
            update_current(
                unit if with_data else None, hyper, build_model(unit), SamplerConfig(seed=0),
                hyper_subsample=10,
            )

    @pytest.mark.parametrize(
        "rows, match",
        [
            (np.ones((4, 5)), "describe 6 columns, but the set has 5"),
            (np.ones((4, 7)), "describe 6 columns, but the set has 7"),
            (np.ones((0, 6)), "nonempty"),
        ],
        ids=["column-short", "column-extra", "no-rows"],
    )
    def test_hyper_set_shape_checked(self, current_unit, rows, match):
        """A hyper set whose columns are not those its provenance describes
        (a mean and a spread per parameter and for sigma), or that holds no
        row, raises a ValueError in each reader of the set, instead of an
        IndexError or a silently ignored column."""
        unit, _ = current_unit
        labels = tuple(f"c{j}" for j in range(rows.shape[1]))
        bad = SampleSet(rows, labels, {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2})
        pv = ParameterVector(np.ones(2), 0.05)
        with pytest.raises(ValueError, match=match):
            sample_mixture_prior(bad, 10, seed=0)
        with pytest.raises(ValueError, match=match):
            mixture_prior_logpdf(pv, bad)
        for data in (unit, None):
            with pytest.raises(ValueError, match=match):
                update_current(data, bad, build_model(unit), SamplerConfig(n_samples=10, seed=0))


class TestClassical:
    def _short_unit(self):
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        grid = np.linspace(0, 20000, 11).astype(int)
        rng = np.random.default_rng(3)
        curve = model.predict(np.array([1.02, 1.06]), grid.astype(float))
        values = curve * np.exp(0.03 * rng.standard_normal(grid.size))
        return make_dataset(grid, values)

    def _long_unit(self):
        # enough low-noise data that the posterior ridge sits well inside
        # any reasonable support, making the flat-prior comparison sharp
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        grid = np.linspace(0, 32000, 33).astype(int)
        rng = np.random.default_rng(5)
        curve = model.predict(np.array([1.02, 1.06]), grid.astype(float))
        values = curve * np.exp(0.02 * rng.standard_normal(grid.size))
        return make_dataset(grid, values)

    def test_wide_prior_matches_flat_stage1(self):
        data = self._long_unit()
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        wide = ClassicalPrior(
            means=(2.0, -18.6), sds=(1e6, 1e6), sigma_bounds=(1e-3, 0.2)
        )
        classical = classical_update(data, wide, model, SamplerConfig(n_samples=1500, seed=8))
        flat_bounds = (np.array([0.3, 0.7, 1e-3]), np.array([2.5, 1.6, 0.2]))
        flat = stage1_infer(data, model, flat_bounds, SamplerConfig(n_samples=1500, seed=9))
        for label in ("theta1", "theta2"):
            a, b = classical.column(label), flat.column(label)
            se = math.sqrt(a.var() / (a.size / 10) + b.var() / (b.size / 10))
            assert abs(a.mean() - b.mean()) < 3 * se

    def test_zero_width_prior_pins_posterior(self):
        data = self._short_unit()
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        # pinned values must keep the crack finite over the observed cycles
        prior = ClassicalPrior(means=(2.0, -19.5), sds=(1e-7, 1e-7), sigma_bounds=(1e-3, 0.2))
        out = classical_update(data, prior, model, SamplerConfig(n_samples=400, seed=10))
        assert out.column("theta1").mean() == pytest.approx(2.0 / 2.0, abs=1e-4)
        assert out.column("theta2").mean() == pytest.approx(-19.5 / -18.6, abs=1e-4)

    def test_literature_prior_values_pass_through(self):
        prior = ClassicalPrior(means=(2.89, -10.78), sds=(0.29, 0.17))
        assert prior.means == (2.89, -10.78)
        assert prior.sds == (0.29, 0.17)
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        n_mu, n_sd = model.normalize_gaussian(prior.means, prior.sds)
        np.testing.assert_allclose(n_mu, [1.445, 0.5795698924731183])
        np.testing.assert_allclose(n_sd, [0.145, 0.17 / 18.6])

    def test_mixture_fallback_equivalence(self):
        """With zero hyper-uncertainty the mixture prior is one Gaussian, so
        the hierarchical update and the classical update must agree."""
        psi = HyperParameters(
            mu0=[1.02, 1.05], sd0=[0.06, 0.02], mu_sigma=0.06, sd_sigma=0.02
        )
        hyper = SampleSet(
            np.tile(psi.to_vector(), (50, 1)),
            HyperParameters.labels(2, False),
            {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
        )
        data = self._short_unit()
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        hier = update_current(data, hyper, model, SamplerConfig(n_samples=1500, seed=11))
        equivalent = ClassicalPrior(
            means=(1.02 * 2.0, 1.05 * -18.6),
            sds=(0.06 * 2.0, 0.02 * 18.6),
            sigma_bounds=(0.0, 0.2),
            sigma_mu=0.06,
            sigma_sd=0.02,
        )
        classical = classical_update(data, equivalent, model, SamplerConfig(n_samples=1500, seed=12))
        for label in ("theta1", "theta2", "sigma"):
            a, b = hier.column(label), classical.column(label)
            se = math.sqrt(a.var() / (a.size / 10) + b.var() / (b.size / 10))
            assert abs(a.mean() - b.mean()) < 3 * se + 1e-9


class TestModelSelect:
    def _battery_fleet(self, seed):
        from hbprog.io import SyntheticSpec, generate_synthetic

        psi = HyperParameters(
            mu0=[1.0] * 4, sd0=[0.03] * 4, mu_sigma=0.015, sd_sigma=0.005, sigma_trunc=0.4
        )
        spec = SyntheticSpec(
            family="batt-double", psi=psi, n_units=3, cycles=np.arange(1, 81, 4),
            threshold=1.4,
        )
        from hbprog.io import generate_synthetic as gen

        return gen(spec, seed=seed)[0]

    def _candidates(self):
        d_b = (np.array([0.05] * 4 + [1e-4]), np.array([1.8] * 4 + [0.4]))
        c_b = (np.array([0.05, 1e-4]), np.array([1.8, 0.4]))
        return [
            Candidate(
                "batt-double", d_b, HyperPriorBounds.battery_default(4), sigma_trunc=0.4
            ),
            Candidate(
                "batt-const",
                c_b,
                HyperPriorBounds.battery_default(1),
                sigma_trunc=0.4,
            ),
        ]

    def test_true_family_beats_constant_dummy(self, const_family):
        fleet = self._battery_fleet(31)
        records = model_select(
            fleet, self._candidates(), SamplerConfig(n_samples=400, seed=0), stage1_thin=150
        )
        assert records[0]["family"] == "batt-double"
        assert records[0]["log_evidence"] > records[1]["log_evidence"]

    def test_candidate_record_is_a_tmcmc_fit_historical(self):
        """Each candidate's record holds what ``fit_historical`` by TMCMC
        returns at the candidate's derived seed: the same stage-1 and hyper
        bytes, evidence, standard error and data evidence. Records are
        matched by name, as ``model_select`` sorts them."""
        fleet = self._battery_fleet(31)
        cfg = SamplerConfig(n_samples=300, seed=4)
        single_b = (np.array([0.05] * 3 + [1e-4]), np.array([1.8] * 3 + [0.4]))
        cands = [
            Candidate("batt-single", single_b, HyperPriorBounds.battery_default(3), name="one"),
            self._candidates()[0],
        ]
        records = {r["name"]: r for r in model_select(fleet, cands, cfg, stage1_thin=100)}
        for j, cand in enumerate(cands):
            fit = fit_historical(
                fleet, cand.stage1_bounds, cand.hyper_bounds,
                config=cfg.replace(seed=subseed(cfg.seed, hierarchy._TAG_SELECT, j)),
                sampler="tmcmc", sigma_trunc=cand.sigma_trunc, family=cand.family,
                nominals=cand.nominals, stage1_thin=100,
            )
            record = records[cand.label]
            assert record["error"] is None
            for a, b in zip(fit.stage1, record["result"].stage1, strict=True):
                assert a.samples.tobytes() == b.samples.tobytes()
                assert (a.log_evidence, a.log_evidence_se) == (b.log_evidence, b.log_evidence_se)
            assert fit.hyper.samples.tobytes() == record["result"].hyper.samples.tobytes()
            assert fit.log_evidence_se is not None
            assert (
                fit.log_evidence, fit.log_evidence_se, fit.data_log_evidence,
                fit.hyper.log_evidence, fit.fingerprint,
            ) == (
                record["log_evidence"], record["log_evidence_se"], record["data_log_evidence"],
                record["hyper_log_evidence"], record["result"].fingerprint,
            )

    def test_duplicate_candidates_agree(self, crack_fleet):
        fleet, _ = crack_fleet
        c_b = (np.array([0.6, 0.8, 1e-3]), np.array([1.6, 1.3, 0.2]))
        twin = [
            Candidate("paris", c_b, HyperPriorBounds.crack_default(),
                      sigma_trunc=0.2, name="copy-a"),
            Candidate("paris", c_b, HyperPriorBounds.crack_default(),
                      sigma_trunc=0.2, name="copy-b"),
        ]
        records = model_select(
            fleet[:4],
            twin,
            SamplerConfig(n_samples=1200, tmcmc_target_cov=0.5, seed=1),
        )
        # duplicates agree within Monte Carlo error: the hyper-level values
        # are tight (measured spread well under half a nat at these sizes),
        # while the stage-1 marginal-likelihood estimates on the thin crack
        # ridge carry ~1-2 nats even with the boosted per-stage move count
        hyper_evs = [r["hyper_log_evidence"] for r in records]
        assert abs(hyper_evs[0] - hyper_evs[1]) < 1.0
        evs = [r["log_evidence"] for r in records]
        assert abs(evs[0] - evs[1]) < 3.0

    def test_failed_candidate_ranks_last(self):
        fleet = self._battery_fleet(33)
        cands = self._candidates()
        broken = Candidate(
            "batt-double",
            (np.array([0.05] * 4 + [1e-4]), np.array([1.8] * 4 + [0.4])),
            HyperPriorBounds.battery_default(3),  # wrong hyper dimension
            sigma_trunc=0.4,
            name="broken",
        )
        records = model_select(
            fleet, [cands[0], broken], SamplerConfig(n_samples=300, seed=2), stage1_thin=100
        )
        assert records[-1]["name"] == "broken"
        assert records[-1]["error"] is not None
        assert records[0]["log_evidence"] is not None

    def test_too_few_candidates_rejected(self):
        with pytest.raises(ValueError):
            model_select([], [self._candidates()[0]], SamplerConfig(seed=0))


class TestFitHistoricalInputs:
    """Inputs ``fit_historical`` rejects before any stage-1 work. The jobs
    run in this process, so the fixture sees every likelihood row and every
    ``stage1_infer`` call."""

    BOX = (np.array([0.05] * 4 + [1e-4]), np.array([1.8] * 4 + [0.4]))

    @pytest.fixture
    def fleet(self):
        psi = HyperParameters(
            mu0=[1.0] * 4, sd0=[0.03] * 4, mu_sigma=0.015, sd_sigma=0.005, sigma_trunc=0.4
        )
        spec = SyntheticSpec(
            family="batt-double", psi=psi, n_units=3, cycles=np.arange(1, 81, 4), threshold=1.4
        )
        return generate_synthetic(spec, seed=31)[0]

    @pytest.fixture
    def counts(self, monkeypatch):
        monkeypatch.setattr(hierarchy, "_available_cpus", lambda: 1)
        counts = {"rows": 0, "stage1_infer": 0}
        batch, infer = hierarchy.dataset_loglik_batch, hierarchy.stage1_infer

        def dataset_loglik_batch(model, dataset, theta, sigma):
            counts["rows"] += len(theta)
            return batch(model, dataset, theta, sigma)

        def stage1_infer(*args):
            counts["stage1_infer"] += 1
            return infer(*args)

        monkeypatch.setattr(hierarchy, "dataset_loglik_batch", dataset_loglik_batch)
        monkeypatch.setattr(hierarchy, "stage1_infer", stage1_infer)
        return counts

    def _fit(self, fleet, box, **kw):
        return fit_historical(
            fleet, box, HyperPriorBounds.battery_default(4),
            config=SamplerConfig(n_samples=100, seed=0), **kw,
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lo, hi, fleet: ((lo[:-1], hi[:-1]), fleet), "must cover 5 components"),
            (lambda lo, hi, fleet: ((lo, np.r_[hi[:-1], np.inf]), fleet), "must be finite"),
            (lambda lo, hi, fleet: ((lo, hi), [fleet[0].truncate(0)] + fleet[1:]), "nonempty"),
            (lambda lo, hi, fleet: ((lo, np.r_[hi[:1], lo[1], hi[2:]]), fleet), "'theta2' is [0.05, 0.05]"),
        ],
        ids=["wrong-length", "infinite-bound", "empty-dataset", "collapsed-dimension"],
    )
    def test_tmcmc_box_rejected_before_any_likelihood_row(self, fleet, counts, edit, message):
        box, datasets = edit(*self.BOX, fleet)
        with pytest.raises(ValueError) as info:
            self._fit(datasets, box, sampler="tmcmc", family="batt-double")
        assert message in str(info.value)
        assert counts["rows"] == 0

    @pytest.mark.parametrize(
        "kw", [{"sampler": "TMCMC"}, {"case": "full"}], ids=["sampler", "case"]
    )
    def test_bad_choice_rejected_before_stage1(self, fleet, counts, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            self._fit(fleet, self.BOX, **kw)
        assert counts["stage1_infer"] == 0


def _crack_hyper(mu_theta1=1.0):
    """A 40-draw diagonal crack hyper set around ``CRACK_PSI``, with the
    population mean of theta1 at ``mu_theta1``."""
    rng = np.random.default_rng(9)
    centre = np.array([mu_theta1, 1.05, 0.08, 0.08, 0.02, 0.03])
    return SampleSet(
        centre * (1.0 + 0.01 * rng.standard_normal((40, 6))),
        HyperParameters.labels(2, False),
        {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2},
    )


class TestFloatErrorState:
    """A sampling stage enters one numpy error state for its whole search
    and chain, not one per log-target evaluation, and leaves the caller's
    state as it found it, on return and on a raised SamplerError."""

    #: a caller's error state unlike numpy's default
    OUTER = dict(divide="raise", over="raise", invalid="raise", under="ignore")

    def _entries(self, counting, run) -> int:
        """``np.errstate`` entries made by ``run()``, which must leave the
        caller's error state unchanged."""
        with np.errstate(**self.OUTER):
            before = np.geterr()
            counting.entries = 0
            run()
            assert np.geterr() == before
        return counting.entries

    def test_entries_do_not_grow_with_the_chain(self, errstate_entries, crack_fleet):
        fleet, _ = crack_fleet
        unit, hyper = fleet[0], _crack_hyper()
        model = build_model(unit)
        counts = {}
        for n in (50, 100):
            cfg = SamplerConfig(n_samples=n, seed=3)
            counts["stage1", n] = self._entries(
                errstate_entries, lambda: stage1_infer(unit, model, CRACK_BOUNDS, cfg)
            )
            counts["current", n] = self._entries(
                errstate_entries, lambda: update_current(unit, hyper, model, cfg)
            )
        assert counts["stage1", 50] == counts["stage1", 100]
        assert counts["current", 50] == counts["current", 100]

    def test_state_restored_on_sampler_error(self, crack_fleet):
        fleet, _ = crack_fleet
        unit = fleet[0]
        model = build_model(unit)
        cfg = SamplerConfig(n_samples=50, seed=3)
        # theta1 <= 0 everywhere in the box: no curve, so no finite point
        no_curve = (np.array([-1.0, 0.8, 1e-3]), np.array([-0.5, 1.3, 0.2]))
        # every mixture-prior draw has theta1 near -1
        far_hyper = _crack_hyper(mu_theta1=-1.0)
        for run in (
            lambda: stage1_infer(unit, model, no_curve, cfg),
            lambda: update_current(unit, far_hyper, model, cfg),
        ):
            with np.errstate(**self.OUTER):
                before = np.geterr()
                with pytest.raises(SamplerError, match="no finite log-target point"):
                    run()
                assert np.geterr() == before


class TestDeterminismAndData:
    def test_pipeline_bit_reproducible(self, crack_fleet):
        fleet, _ = crack_fleet
        cfg = SamplerConfig(n_samples=300, seed=17)
        a = fit_historical(fleet[:3], CRACK_BOUNDS, HyperPriorBounds.crack_default(),
                           config=cfg, stage1_thin=150)
        b = fit_historical(fleet[:3], CRACK_BOUNDS, HyperPriorBounds.crack_default(),
                           config=cfg, stage1_thin=150)
        np.testing.assert_array_equal(a.hyper.samples, b.hyper.samples)
        for s1, s2 in zip(a.stage1, b.stage1):
            np.testing.assert_array_equal(s1.samples, s2.samples)
        assert a.fingerprint == b.fingerprint

    def test_dataset_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_dataset([0, 100, 100], [1.0, 1.1, 1.2])
        with pytest.raises(ValueError, match="finite and positive"):
            make_dataset([0, 100], [1.0, -0.5])
        with pytest.raises(ValueError):
            make_dataset([0, 100], [1.0])

    def test_truncate_keeps_metadata(self):
        data = make_dataset([0, 100, 200, 300], [1.0, 1.1, 1.2, 1.3], threshold=25.0)
        cut = data.truncate(150)
        assert len(cut) == 2
        assert cut.geometry == data.geometry
        assert cut.threshold == 25.0

    def test_build_model_needs_crack_metadata(self):
        data = make_dataset([1, 2], [1.9, 1.8], family="batt-single", loading=None, geometry=None)
        model = build_model(data)
        assert model.family == "batt-single"
        bad = Dataset("X", np.array([0, 1]), np.array([1.0, 1.1]), "paris")
        with pytest.raises(ValueError, match="geometry"):
            build_model(bad)
