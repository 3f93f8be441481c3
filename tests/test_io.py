"""File formats, round trips, synthetic generation and run configuration."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hbprog import io
from hbprog.hierarchy import ClassicalPrior, Dataset
from hbprog.io import (
    DataFormatError,
    RunConfig,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_prognosis,
    load_sample_set,
    save_dataset,
    save_prognosis,
    save_sample_set,
)
from hbprog.models import BatteryDoubleModel, CrackGeometry, LoadingSpec, ParisCrackModel
from hbprog.prognosis import PrognosisConfig, rul_distribution
from hbprog.samplers import SampleSet, SamplerConfig, config_fingerprint
from hbprog.targets import HyperParameters, HyperPriorBounds

from conftest import CONST_LOADING, CRACK_PSI, GEOMETRY, make_dataset


def write_dataset_files(tmp_path, rows, meta=None, name="unit.csv"):
    csv_path = tmp_path / name
    csv_path.write_text("cycle,value\n" + "".join(f"{c},{v}\n" for c, v in rows))
    base_meta = {
        "unit_id": "T1",
        "family": "paris",
        "units": "mm",
        "geometry": {"a0": 1.0, "n0": 0.0, "a_f": 25.0},
        "loading": {"mode": "constant", "delta_sigma": 60.0},
    }
    if meta is not None:
        base_meta = meta
    (tmp_path / "unit.meta.json").write_text(json.dumps(base_meta))
    return csv_path


class TestLoadDataset:
    def test_minimal_two_rows(self, tmp_path):
        path = write_dataset_files(tmp_path, [(0, 1.0), (100, 1.2)])
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.unit_id == "T1"
        assert ds.loading.delta_sigma == 60.0
        assert ds.geometry.a_f == 25.0

    def test_duplicate_cycle_reports_line(self, tmp_path):
        path = write_dataset_files(tmp_path, [(0, 1.0), (100, 1.2), (100, 1.3)])
        with pytest.raises(DataFormatError, match=r":4: duplicate"):
            load_dataset(path)

    def test_decreasing_cycle_reports_line(self, tmp_path):
        path = write_dataset_files(tmp_path, [(0, 1.0), (200, 1.2), (100, 1.3)])
        with pytest.raises(DataFormatError, match=r":4: decreasing"):
            load_dataset(path)

    def test_missing_metadata_field_named(self, tmp_path):
        path = write_dataset_files(
            tmp_path,
            [(0, 1.0), (100, 1.2)],
            meta={"unit_id": "T1", "family": "paris", "units": "mm",
                  "loading": {"mode": "constant", "delta_sigma": 60.0}},
        )
        with pytest.raises(DataFormatError, match="geometry"):
            load_dataset(path)

    def test_missing_sidecar(self, tmp_path):
        csv_path = tmp_path / "solo.csv"
        csv_path.write_text("cycle,value\n0,1.0\n")
        with pytest.raises(DataFormatError, match="sidecar"):
            load_dataset(csv_path)

    def test_bad_header(self, tmp_path):
        path = write_dataset_files(tmp_path, [(0, 1.0)])
        path.write_text("time,value\n0,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(path)

    def test_battery_export_roundtrip_bit_identical(self, tmp_path):
        ds = make_dataset(
            np.arange(1, 40), 1.9 - 0.01 * np.arange(1, 40) + 1e-4,
            family="batt-double", loading=None, geometry=None,
            threshold=1.4, nominals=(1.92, -0.02, -0.003, -0.05),
        )
        first = tmp_path / "b5.csv"
        save_dataset(ds, first)
        loaded = load_dataset(first)
        second = tmp_path / "b5_again.csv"
        save_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        meta1 = (tmp_path / "b5.meta.json").read_text()
        meta2 = (tmp_path / "b5_again.meta.json").read_text()
        assert json.loads(meta1) == json.loads(meta2)
        np.testing.assert_array_equal(loaded.values, ds.values)
        assert loaded.nominals == ds.nominals

    def test_crack_roundtrip_preserves_everything(self, tmp_path):
        ds = make_dataset([0, 500, 1200], [1.0, 1.05, 1.13], threshold=25.0)
        save_dataset(ds, tmp_path / "t1.csv")
        back = load_dataset(tmp_path / "t1.csv")
        assert back.geometry == ds.geometry
        assert back.loading == ds.loading
        np.testing.assert_array_equal(back.cycles, ds.cycles)
        np.testing.assert_array_equal(back.values, ds.values)


    @pytest.mark.parametrize(
        "loading, keys",
        [
            (CONST_LOADING, {"mode", "delta_sigma"}),
            (LoadingSpec("two-block", delta_sigma1=50.0, n1=60.0, delta_sigma2=90.0, n2=40.0),
             {"mode", "delta_sigma1", "n1", "delta_sigma2", "n2"}),
        ],
        ids=["constant", "two-block"],
    )
    def test_crack_sidecar_roundtrip_bit_identical(self, tmp_path, loading, keys):
        ds = make_dataset([0, 500, 1200], [1.0, 1.05, 1.13], loading=loading, threshold=25.0)
        save_dataset(ds, tmp_path / "a.csv")
        save_dataset(load_dataset(tmp_path / "a.csv"), tmp_path / "b.csv")
        for suffix in (".csv", ".meta.json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
        # a sidecar names only the fields of its loading mode
        assert set(json.loads((tmp_path / "a.meta.json").read_text())["loading"]) == keys


    def test_int_valued_loading_and_geometry_save_as_they_load(self, tmp_path):
        """Numeric loading and geometry fields given as ints are stored as
        floats, so the first save already matches a save of the loaded
        dataset."""
        loading = LoadingSpec("two-block", delta_sigma1=50, n1=60, delta_sigma2=90, n2=40)
        geometry = CrackGeometry(a0=1, n0=0, a_f=25)
        assert loading.n1 == 60.0 and type(loading.n1) is float
        assert type(geometry.a0) is float and type(geometry.n0) is float
        ds = make_dataset([0, 500, 1200], [1.0, 1.05, 1.13], loading=loading, geometry=geometry)
        save_dataset(ds, tmp_path / "a.csv")
        save_dataset(load_dataset(tmp_path / "a.csv"), tmp_path / "b.csv")
        for suffix in (".csv", ".meta.json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


class TestSampleSetPersistence:
    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        ss = SampleSet(
            rng.standard_normal((50, 3)) * np.array([1.0, 1e-7, 1e5]),
            ("theta1", "theta2", "sigma"),
            {"seed": 7, "stage": "stage1", "unit_id": "T1"},
            log_evidence=-3.25,
            log_evidence_se=0.04,
        )
        save_sample_set(ss, tmp_path / "s1")
        back = load_sample_set(tmp_path / "s1")
        np.testing.assert_array_equal(back.samples, ss.samples)
        assert back.labels == ss.labels
        assert back.log_evidence == ss.log_evidence
        assert back.provenance["unit_id"] == "T1"
        save_sample_set(back, tmp_path / "s2")
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    def test_missing_artifact_pair(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_sample_set(tmp_path / "nope")

    @pytest.mark.parametrize(
        "csv_row, manifest, match",
        [
            ("1.0,inf", None, r"s\.csv:3: values must be finite"),
            ("1.0,x", None, r"s\.csv:3: could not convert"),
            ("1.0,2.0,3.0", None, r"s\.csv:3: expected 2 values, got 3"),
            (None, "{not json", r"s\.json: invalid JSON"),
            (None, "[1, 2]", r"s\.json: document must be an object"),
            (None, '{"provenance": 3}', r"s\.json: field 'provenance'"),
        ],
        ids=["inf", "text", "ragged", "invalid-json", "manifest-list", "provenance-number"],
    )
    def test_malformed_file_is_named(self, tmp_path, csv_row, manifest, match):
        save_sample_set(SampleSet(np.ones((3, 2)), ("a", "b")), tmp_path / "s")
        if csv_row is not None:
            lines = (tmp_path / "s.csv").read_text().splitlines()
            lines[2] = csv_row
            (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        if manifest is not None:
            (tmp_path / "s.json").write_text(manifest)
        with pytest.raises(DataFormatError, match=match):
            load_sample_set(tmp_path / "s")

    def test_table_tokens_parse_as_float_does(self, tmp_path):
        """The one-call parse reads every token as ``float()`` would, and a
        token it refuses is named by line as the row-by-row parse names it."""
        tokens = ["1.5", " 2.5 ", "1_0", "infinity", "-Infinity", "nan", "١٢", "1e5", ".5",
                  "5.", "+3", "1e400", "-1e-400", "\u20021.0", "4.9e-324", "1\t"]
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + "".join(f"{t},{i}\n" for i, t in enumerate(tokens)))
        _, table, lines = io._read_table(path, finite=False)
        want = np.array([float(t) for t in tokens])
        assert table[:, 0].tobytes() == want.tobytes()
        assert lines == list(range(2, len(tokens) + 2))
        for bad in ["0x10", "1d5", "1__0", "_1", "True", "nan(1)", ""]:
            path.write_text(f"a,b\n1,2\n\n{bad},3\n")
            with pytest.raises(DataFormatError) as exc:
                io._read_table(path, finite=False)
            try:
                float(bad)
            except ValueError as err:
                assert str(exc.value) == f"{path}:4: {err}"

    def test_no_stray_temp_files(self, tmp_path):
        ss = SampleSet(np.ones((3, 2)), ("a", "b"))
        save_sample_set(ss, tmp_path / "clean")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestPrognosisPersistence:
    def test_roundtrip_lossless(self, tmp_path):
        ss = SampleSet(
            np.array([[1.0, 1.05, 0.05], [1.02, 1.04, 0.06]]),
            ("theta1", "theta2", "sigma"),
        )
        from hbprog.models import ParisCrackModel

        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        cfg = PrognosisConfig(threshold=25.0, t_c=5000.0, horizon=1e6)
        res = rul_distribution(ss, model, cfg)
        save_prognosis(res, tmp_path / "rul")
        back = load_prognosis(tmp_path / "rul")
        np.testing.assert_array_equal(back.rul, res.rul)
        np.testing.assert_array_equal(back.t_eol, res.t_eol)
        np.testing.assert_array_equal(back.censored, res.censored)
        assert back.summary == pytest.approx(res.summary)
        assert back.config == res.config
        save_prognosis(back, tmp_path / "rul2")
        assert (tmp_path / "rul.rul.csv").read_bytes() == (tmp_path / "rul2.rul.csv").read_bytes()
        assert (tmp_path / "rul.json").read_bytes() == (tmp_path / "rul2.json").read_bytes()

    def test_bands_roundtrip(self, tmp_path):
        from hbprog.models import ParisCrackModel
        from hbprog.prognosis import predict_trajectory

        ss = SampleSet(np.array([[1.0, 1.05, 0.05]]), ("theta1", "theta2", "sigma"))
        model = ParisCrackModel(GEOMETRY, CONST_LOADING)
        cfg = PrognosisConfig(threshold=25.0, t_c=0.0, horizon=1e5)
        res = predict_trajectory(ss, model, np.linspace(0, 2e4, 9), cfg)
        save_prognosis(res, tmp_path / "bands")
        back = load_prognosis(tmp_path / "bands")
        np.testing.assert_array_equal(back.grid, res.grid)
        np.testing.assert_array_equal(back.bands, res.bands)
        save_prognosis(back, tmp_path / "again")
        for suffix in (".bands.csv", ".json"):
            assert (tmp_path / f"bands{suffix}").read_bytes() == (
                tmp_path / f"again{suffix}"
            ).read_bytes()


class TestGenerateSynthetic:
    def _spec(self, noise_scale=1.0):
        return SyntheticSpec(
            family="paris",
            psi=CRACK_PSI,
            n_units=3,
            cycles=np.linspace(0, 20000, 9).astype(int),
            noise_scale=noise_scale,
            loading=CONST_LOADING,
            geometry=GEOMETRY,
        )

    @pytest.mark.parametrize("cycles", [[], [-5, 0, 5], [0, 5, 5]], ids=["empty", "negative", "repeated"])
    def test_bad_cycle_grid_rejected(self, cycles):
        with pytest.raises(ValueError, match="cycles"):
            SyntheticSpec("paris", CRACK_PSI, 3, cycles, loading=CONST_LOADING, geometry=GEOMETRY)

    def test_noiseless_matches_curve(self):
        datasets, truth = generate_synthetic(self._spec(noise_scale=0.0), seed=5)
        from hbprog.hierarchy import build_model

        for ds, unit in zip(datasets, truth["units"]):
            model = build_model(ds)
            curve = model.predict(np.array(unit["theta"]), ds.cycles_float)
            np.testing.assert_array_equal(ds.values, curve)

    def test_fixed_seed_reproducible(self):
        a, truth_a = generate_synthetic(self._spec(), seed=9)
        b, truth_b = generate_synthetic(self._spec(), seed=9)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.values, db.values)
        assert truth_a == truth_b

    def test_truth_record_well_formed(self):
        datasets, truth = generate_synthetic(self._spec(), seed=5)
        assert truth["family"] == "paris"
        assert len(truth["units"]) == 3
        for unit in truth["units"]:
            assert len(unit["theta"]) == 2
            assert unit["sigma"] > 0
            assert unit["eol"] is None or unit["eol"] > 0

    def test_error_inside_the_model_propagates(self, monkeypatch):
        """A programming error in the crack inversion (here a TypeError)
        reaches the caller; it does not read as a unit that never fails."""

        def broken(model, theta, a_f=None):
            raise TypeError("broken inversion")

        monkeypatch.setattr(ParisCrackModel, "cycles_to_failure", broken)
        with pytest.raises(TypeError, match="broken inversion"):
            generate_synthetic(self._spec(), seed=5)

    def test_battery_generation(self):
        psi = HyperParameters(
            mu0=[1.0] * 4, sd0=[0.02] * 4, mu_sigma=0.01, sd_sigma=0.004, sigma_trunc=0.4
        )
        spec = SyntheticSpec(
            family="batt-double", psi=psi, n_units=2, cycles=np.arange(1, 31),
            threshold=1.4,
        )
        datasets, truth = generate_synthetic(spec, seed=1)
        assert all(ds.family == "batt-double" for ds in datasets)
        assert all(np.all(ds.values > 0) for ds in datasets)

    def test_crack_series_truncated_at_threshold(self):
        psi = HyperParameters(
            mu0=[1.25, 1.0], sd0=[0.01, 0.005], mu_sigma=0.02, sd_sigma=0.01,
            sigma_trunc=0.2,
        )
        spec = SyntheticSpec(
            family="paris", psi=psi, n_units=1,
            cycles=np.linspace(0, 60000, 61).astype(int),
            loading=CONST_LOADING, geometry=GEOMETRY,
        )
        datasets, truth = generate_synthetic(spec, seed=3)
        assert len(datasets[0]) < 61  # fast-growing unit stops at a_f
        assert len(datasets[0]) >= spec.min_points


class TestRunConfig:
    def _config_dict(self):
        return {
            "family": "paris",
            "seed": 11,
            "sigma_trunc": 0.2,
            "stage1_bounds": {"lower": [0.6, 0.8, 1e-3], "upper": [1.6, 1.3, 0.2]},
            "hyper_bounds": {
                "mu_theta": [[0.8, 1.4], [0.9, 1.4]],
                "sd_theta": [[0.0, 0.3], [0.0, 0.1]],
                "mu_sigma": [0.0, 0.4],
                "sd_sigma": [0.0, 0.2],
            },
            "sampler": {"n_samples": 500, "kind": "slice"},
            "prognosis": {"threshold": 25.0, "horizon": 200000.0},
            "datasets": {"historical": ["a.csv"], "current": "b.csv"},
        }

    def test_parse_and_fingerprint(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self._config_dict()))
        cfg = RunConfig.from_file(path)
        assert cfg.family == "paris"
        assert cfg.seed == 11
        assert cfg.sampler_config().n_samples == 500
        assert cfg.hyper_bounds().n_theta == 2
        lo, hi = cfg.stage1_bounds()
        assert lo[0] == 0.6 and hi[-1] == 0.2
        assert cfg.prognosis_config(1000.0).t_c == 1000.0
        assert cfg.fingerprint() == config_fingerprint(self._config_dict())

    def test_fingerprint_changes_with_content(self):
        a = config_fingerprint(self._config_dict())
        other = self._config_dict()
        other["seed"] = 12
        assert a != config_fingerprint(other)

    def test_bad_likelihood_pairing(self):
        """The likelihood follows from the family, so a ``likelihood`` key,
        matching the family or not, is an unknown field."""
        for likelihood in ("gaussian", "lognormal"):
            with pytest.raises(DataFormatError, match="unknown field 'likelihood'"):
                RunConfig({"family": "paris", "likelihood": likelihood})

    def test_paths_resolve_relative_to_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self._config_dict()))
        cfg = RunConfig.from_file(path)
        assert cfg.historical_paths()[0] == tmp_path / "a.csv"
        assert cfg.current_path() == tmp_path / "b.csv"

    def test_flags_override_their_fields(self, tmp_path):
        raw = self._config_dict()
        raw["sampler"]["seed"] = 5
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        plain = RunConfig.from_file(path)
        assert plain.sampler_config().seed == 5
        cfg = RunConfig.from_file(
            path, seed=9, family="paris", case="corr", cutoff=1200.0, sampler="tmcmc", samples=40
        )
        assert (cfg.seed, cfg.case, cfg.cutoff, cfg.sampler_kind) == (9, "corr", 1200.0, "tmcmc")
        assert cfg.sampler_config().seed == 9
        assert cfg.sampler_config().n_samples == 40
        assert cfg.fingerprint() != plain.fingerprint()

    def test_unknown_top_level_field_rejected(self):
        raw = self._config_dict()
        raw["stage1_bound"] = raw["stage1_bounds"]  # a misspelt section
        with pytest.raises(DataFormatError, match="unknown field 'stage1_bound'"):
            RunConfig(raw)
        assert RunConfig({"family": "paris"}).family == "paris"

    def test_missing_fields_reported(self):
        cfg = RunConfig({"family": "paris"})
        with pytest.raises(DataFormatError, match="stage1_bounds"):
            cfg.stage1_bounds()
        with pytest.raises(DataFormatError, match="hyper_bounds"):
            cfg.hyper_bounds()
        with pytest.raises(DataFormatError, match="historical"):
            cfg.historical_paths()

    def test_synthetic_spec_section(self):
        raw = self._config_dict()
        raw["synthetic"] = {
            "psi": {"mu0": [1.0, 1.05], "sd0": [0.08, 0.02], "mu_sigma": 0.08,
                    "sd_sigma": 0.03},
            "n_units": 4,
            "cycles": {"start": 0, "stop": 24000, "num": 13},
            "loading": {"mode": "constant", "delta_sigma": 60.0},
            "geometry": {"a0": 1.0, "n0": 0.0, "a_f": 25.0},
        }
        spec = RunConfig(raw).synthetic_spec()
        assert spec.n_units == 4
        assert spec.cycles.size == 13
        assert spec.psi.sigma_trunc == 0.2

    def test_collapsed_stage1_box_rejected_only_under_tmcmc(self):
        """The slice sampler pins a component with lower == upper; TMCMC
        cannot move it, so its box must be open in every entry."""
        raw = self._config_dict()
        raw["stage1_bounds"]["upper"][1] = raw["stage1_bounds"]["lower"][1]
        lo, hi = RunConfig(raw).stage1_bounds()
        assert lo[1] == hi[1]
        raw["sampler"]["kind"] = "tmcmc"
        with pytest.raises(DataFormatError, match="'stage1_bounds': entry 1 has lower == upper"):
            RunConfig(raw).stage1_bounds()

    def test_family_dependent_fields_wait_for_the_family(self):
        """Without ``family`` the fields read against it are checked once
        :meth:`RunConfig.set_family` fixes it, and ``sigma_trunc`` defaults
        to that family's truncation."""
        raw = self._config_dict()
        del raw["family"], raw["sigma_trunc"]
        raw["nominals"] = [2.0, -18.6, 1.0]
        cfg = RunConfig(raw)
        with pytest.raises(DataFormatError, match="missing field 'family'"):
            cfg.stage1_bounds()
        with pytest.raises(DataFormatError, match="'nominals' must have 2 entries, got 3"):
            cfg.set_family("paris")
        cfg.set_family("batt-single")
        assert cfg.sigma_trunc == 0.4 and cfg.nominals == (2.0, -18.6, 1.0)
        del raw["nominals"]
        cfg = RunConfig(raw)
        cfg.set_family("paris")
        assert cfg.sigma_trunc == 0.2 and cfg.nominals is None

    def test_readme_example_reads(self, tmp_path):
        """README's run-config example loads, and every section reader
        accepts it."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("### Run configuration")[1].split("```json\n")[1].split("```")[0]
        cfg = RunConfig(json.loads(example), tmp_path)
        assert cfg.sampler_config().n_samples == 5000
        assert len(cfg.historical_paths()) == 6 and cfg.current_path() == tmp_path / "data/T7.csv"
        assert cfg.stage1_bounds()[0].size == 3
        assert cfg.hyper_bounds().rho == (-1.0, 1.0)
        assert [c.name for c in cfg.candidates()] == ["paris", "paris-wide"]
        assert cfg.literature_prior().means == (2.89, -10.78)
        assert cfg.prognosis_grid() is None
        assert cfg.prognosis_config(16000.0).horizon == 300000.0
        assert cfg.synthetic_spec().unit_prefix == "T"


class TestSchemas:
    @pytest.mark.parametrize(
        "schema, cls, differ",
        [
            (io.SAMPLER, SamplerConfig, {"kind"}),
            (io.LOADING, LoadingSpec, set()),
            (io.GEOMETRY, CrackGeometry, set()),
            (io.HYPER_BOUNDS, HyperPriorBounds, set()),
            (io.LITERATURE_PRIOR, ClassicalPrior, set()),
            (io.PSI, HyperParameters, set()),
            (io.PROGNOSIS_MANIFEST["config"], PrognosisConfig, set()),
            (io.SIDECAR, Dataset, {"cycles", "values"}),
        ],
        ids=["sampler", "loading", "geometry", "hyper_bounds", "literature_prior", "psi",
             "prognosis", "sidecar"],
    )
    def test_schema_reads_every_field(self, schema, cls, differ):
        """Each schema names every field of the class it builds (a new
        field left unreadable fails here); ``differ`` lists the keys that
        only one of them has."""
        assert set(schema) ^ {f.name for f in fields(cls)} == differ

    @pytest.mark.parametrize("family", ["paris", "batt-double"])
    def test_sidecar_schema_is_what_save_dataset_writes(self, tmp_path, family):
        ds = make_dataset([1, 500], [1.2, 1.1], family=family, threshold=1.0)
        save_dataset(ds, tmp_path / "a.csv")
        written = set(json.loads((tmp_path / "a.meta.json").read_text()))
        sections = {"geometry", "loading"} if family != "paris" else set()
        assert written == set(io.SIDECAR) - sections
