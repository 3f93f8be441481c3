"""Command-line surface: artifact flow, exit codes, reproducibility."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbprog.cli import main
from hbprog.io import load_sample_set, save_sample_set
from hbprog.samplers import SampleSet

BASE_CONFIG = {
    "family": "paris",
    "seed": 77,
    "sigma_trunc": 0.2,
    "case": "diag",
    "stage1_bounds": {"lower": [0.6, 0.8, 1e-3], "upper": [1.6, 1.3, 0.2]},
    "hyper_bounds": {
        "mu_theta": [[0.8, 1.4], [0.9, 1.4]],
        "sd_theta": [[0.0, 0.3], [0.0, 0.1]],
        "mu_sigma": [0.0, 0.4],
        "sd_sigma": [0.0, 0.2],
    },
    "sampler": {"n_samples": 250, "kind": "slice"},
    "stage1_thin": 150,
    "hyper_subsample": 150,
    "prognosis": {"threshold": 25.0, "horizon": 300000.0},
    "synthetic": {
        "psi": {
            "mu0": [1.0, 1.05],
            "sd0": [0.08, 0.02],
            "mu_sigma": 0.08,
            "sd_sigma": 0.03,
        },
        "n_units": 4,
        "cycles": {"start": 0, "stop": 24000, "num": 13},
        "loading": {"mode": "constant", "delta_sigma": 60.0},
        "geometry": {"a0": 1.0, "n0": 0.0, "a_f": 25.0},
    },
    "datasets": {
        "historical": ["data/S1.csv", "data/S2.csv", "data/S3.csv"],
        "current": "data/S4.csv",
    },
    "literature_prior": {
        "means": [2.89, -10.78],
        "sds": [0.29, 0.17],
        "sigma_bounds": [0.001, 0.2],
    },
}

#: a model-selection candidate with the base config's prior boxes
BASE_CANDIDATE = {
    "family": "paris",
    "stage1_bounds": BASE_CONFIG["stage1_bounds"],
    "hyper_bounds": BASE_CONFIG["hyper_bounds"],
}

#: a parametrized config value that deletes its key
MISSING = object()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config plus a generated fleet, shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps(BASE_CONFIG, indent=2))
    data_dir = root / "data"
    code = main(["synth", "--config", str(config), "--out", str(data_dir)])
    assert code == 0
    return root, config


class TestPipeline:
    def test_synth_artifacts(self, workspace):
        root, _ = workspace
        files = sorted(p.name for p in (root / "data").iterdir())
        assert "S1.csv" in files and "S4.meta.json" in files and "truth.json" in files
        truth = json.loads((root / "data" / "truth.json").read_text())
        assert len(truth["units"]) == 4
        assert "config_fingerprint" in truth

    def test_fit_historical_then_current_then_rul(self, workspace, capsys):
        root, config = workspace
        out = root / "fit"
        assert main(["fit-historical", "--config", str(config), "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.count("\n") == 0 and "hyper" in line
        assert (out / "hyper.csv").exists() and (out / "hyper.json").exists()
        assert (out / "stage1_S1.csv").exists()
        # sample values stay out of stdout
        hyper = load_sample_set(out / "hyper")
        assert str(hyper.samples[0, 0]) not in line

        assert main(
            ["fit-current", "--config", str(config), "--out", str(out), "--cutoff", "16000"]
        ) == 0
        line = capsys.readouterr().out.strip()
        assert "t_c=16000" in line
        posterior = load_sample_set(out / "current_posterior")
        assert posterior.provenance["t_c"] == 16000.0

        assert main(["predict", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        bands = (out / "trajectory.bands.csv").read_text().splitlines()
        assert bands[0] == "cycle,q0.025,q0.5,q0.975"
        assert len(bands) > 10

        assert main(["rul", "--config", str(config), "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert "censored" in line
        summary = json.loads((out / "rul.json").read_text())
        assert summary["summary"]["mean"] > 0
        assert summary["provenance"]["run_fingerprint"]

    def test_rerun_bit_identical(self, workspace):
        root, config = workspace
        out_a, out_b = root / "rep_a", root / "rep_b"
        for out in (out_a, out_b):
            assert main(["fit-historical", "--config", str(config), "--out", str(out)]) == 0
        assert (out_a / "hyper.csv").read_bytes() == (out_b / "hyper.csv").read_bytes()
        assert (out_a / "hyper.json").read_bytes() == (out_b / "hyper.json").read_bytes()

    def test_compare_prior(self, workspace, capsys):
        root, config = workspace
        out = root / "lit"
        assert main(
            ["compare-prior", "--config", str(config), "--out", str(out), "--cutoff", "16000"]
        ) == 0
        capsys.readouterr()
        post = load_sample_set(out / "classical_posterior")
        assert post.provenance["prior"] == "literature"
        assert post.n == 250

    def test_rul_on_persisted_singleton(self, workspace, capsys):
        root, config = workspace
        out = root / "singleton"
        out.mkdir()
        ss = SampleSet(
            np.array([[1.0, 1.05, 0.05]]),
            ("theta1", "theta2", "sigma"),
            {"t_c": 10000.0},
        )
        save_sample_set(ss, out / "current_posterior")
        assert main(["rul", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "rul.rul.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        summary = json.loads((out / "rul.json").read_text())
        assert summary["summary"]["mean"] == summary["summary"]["median"]


class TestModelSelectCommand:
    def test_duplicate_candidates_close(self, tmp_path, capsys):
        config_dict = dict(BASE_CONFIG)
        config_dict["sampler"] = {"n_samples": 600, "kind": "slice", "tmcmc_target_cov": 0.5}
        config_dict["candidates"] = [
            {
                "name": "copy-a",
                "family": "paris",
                "stage1_bounds": config_dict["stage1_bounds"],
                "hyper_bounds": config_dict["hyper_bounds"],
                "sigma_trunc": 0.2,
            },
            {
                "name": "copy-b",
                "family": "paris",
                "stage1_bounds": config_dict["stage1_bounds"],
                "hyper_bounds": config_dict["hyper_bounds"],
                "sigma_trunc": 0.2,
            },
        ]
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        assert main(["model-select", "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        table = json.loads((tmp_path / "model_select.json").read_text())["ranking"]
        assert {r["name"] for r in table} == {"copy-a", "copy-b"}
        evs = [r["log_evidence"] for r in table]
        assert abs(evs[0] - evs[1]) < 3.0
        hyper_evs = [r["hyper_log_evidence"] for r in table]
        assert abs(hyper_evs[0] - hyper_evs[1]) < 1.0
        assert (tmp_path / "model_select.csv").exists()


    def test_every_candidate_failing_is_numerical_failure(self, tmp_path, capsys):
        """Two candidates whose sigma box [1e-300, 2e-300] collapses the
        tempering: the ranking is still written, and the run exits 3 with
        an error record naming the first candidate's error."""
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        box = {"lower": [0.6, 0.8, 1e-300], "upper": [1.6, 1.3, 2e-300]}
        config_dict["candidates"] = [
            {**BASE_CANDIDATE, "name": name, "stage1_bounds": box} for name in ("first", "second")
        ]
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        assert main(["model-select", "--config", str(config), "--out", str(tmp_path)]) == 3
        table = json.loads((tmp_path / "model_select.json").read_text())["ranking"]
        assert [r["name"] for r in table] == ["first", "second"]
        assert all(r["log_evidence"] is None and r["error"] for r in table)
        assert (tmp_path / "model_select.csv").exists()
        record = json.loads((tmp_path / "error.json").read_text())
        assert record["error"] == "RuntimeError"
        assert record["message"].endswith(f"first: {table[0]['error']}")
        assert table[0]["error"].startswith("SamplerError: ")
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == record

    def test_collapsed_candidate_box_is_data_error(self, tmp_path, capsys):
        """Model selection samples every candidate by TMCMC, which cannot
        move a component whose bounds coincide: the config is rejected
        before any data is read."""
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        box = {"lower": [0.6, 0.8, 1e-3], "upper": [1.6, 0.8, 0.2]}
        config_dict["candidates"] = [BASE_CANDIDATE, {**BASE_CANDIDATE, "stage1_bounds": box}]
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main(["model-select", "--config", str(config), "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert "'candidates[1].stage1_bounds'" in record["message"]
        assert json.loads((tmp_path / "error.json").read_text()) == record
        assert not (tmp_path / "model_select.json").exists()


def _drop_upper(bounds):
    del bounds["upper"]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["rul"]) == 1
        capsys.readouterr()

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        code = main(["rul", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert (tmp_path / "error.json").exists()

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        config_dict = dict(BASE_CONFIG)
        config_dict["datasets"] = {"historical": ["bad.csv"], "current": "bad.csv"}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        bad = tmp_path / "bad.csv"
        bad.write_text("cycle,value\n0,1.0\n0,1.1\n")
        (tmp_path / "bad.meta.json").write_text(
            json.dumps({"unit_id": "B", "family": "paris", "units": "mm",
                        "geometry": {"a0": 1.0, "n0": 0, "a_f": 25.0},
                        "loading": {"mode": "constant", "delta_sigma": 60.0}})
        )
        assert main(["fit-historical", "--config", str(config), "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["fit-historical", "fit-current", "compare-prior",
                                         "model-select"])
    def test_family_outside_the_data_domain_is_data_error(self, tmp_path, capsys, command):
        """The single-exponential battery family is defined from cycle 1;
        fitted to a crack fleet whose cycles start at 0 (as the family of
        the run or of a model-selection candidate) it exits 2 before any
        sampling, naming the dataset file and the family."""
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        battery = dict(
            family="batt-single",
            sigma_trunc=0.4,
            stage1_bounds={"lower": [0.05] * 3 + [1e-4], "upper": [1.8] * 3 + [0.4]},
            hyper_bounds={"mu_theta": [[0.0, 1.8]] * 3, "sd_theta": [[0.0, 0.4]] * 3,
                          "mu_sigma": [0.0, 0.4], "sd_sigma": [0.0, 0.2]},
        )
        if command == "model-select":
            config_dict["candidates"] = [BASE_CANDIDATE, battery]
        else:
            config_dict.update(battery)
            config_dict["literature_prior"] = {"means": [1.0] * 3, "sds": [0.1] * 3,
                                               "sigma_bounds": [0.001, 0.4]}
        config.write_text(json.dumps(config_dict))
        labels = ("mu_theta1", "mu_theta2", "mu_theta3", "mu_sigma",
                  "sd_theta1", "sd_theta2", "sd_theta3", "sd_sigma")
        prov = {"n_theta": 3, "correlated": False, "sigma_trunc": 0.4}
        rows = np.tile([1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 0.05], (4, 1))
        save_sample_set(SampleSet(rows, labels, prov), tmp_path / "hyper")
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        first = "S1.csv" if command in ("fit-historical", "model-select") else "S4.csv"
        assert str(tmp_path / "data" / first) in record["message"]
        assert "'batt-single'" in record["message"]

    @pytest.mark.parametrize("command", ["fit-historical", "fit-current", "compare-prior",
                                         "predict", "rul", "model-select"])
    def test_unit_of_another_family_is_data_error(self, tmp_path, capsys, command):
        """A battery unit under a crack run has no geometry or loading: the
        command that reads it exits 2, naming its sidecar."""
        config_dict = json.loads(json.dumps({**BASE_CONFIG, "candidates": [BASE_CANDIDATE] * 2}))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        (tmp_path / "data" / "B1.csv").write_text("cycle,value\n1,1.9\n2,1.89\n")
        (tmp_path / "data" / "B1.meta.json").write_text(
            json.dumps({"unit_id": "B1", "family": "batt-double", "units": "Ahr"})
        )
        config_dict["datasets"] = {"historical": ["data/S1.csv", "data/B1.csv"],
                                   "current": "data/B1.csv"}
        config.write_text(json.dumps(config_dict))
        prov = {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2}
        labels = ("mu_theta1", "mu_theta2", "mu_sigma", "sd_theta1", "sd_theta2", "sd_sigma")
        rows = np.tile([1.0, 1.05, 0.08, 0.08, 0.02, 0.03], (4, 1))
        save_sample_set(SampleSet(rows, labels, prov), tmp_path / "hyper")
        ss = SampleSet(np.array([[1.0, 1.05, 0.05]]), ("theta1", "theta2", "sigma"), {"t_c": 2.0})
        save_sample_set(ss, tmp_path / "current_posterior")
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert record["message"].startswith(f"{tmp_path / 'data' / 'B1.meta.json'}: ")
        assert "'geometry'" in record["message"] and "'batt-double'" in record["message"]
        assert json.loads((tmp_path / "error.json").read_text()) == record

    def test_empty_dataset(self, tmp_path, capsys):
        """A header-only dataset file: a historical one exits 2 naming the
        file, a current one is fitted from the prior up to ``--cutoff``
        (exit 0) and forecast from that posterior's t_c, and without
        ``--cutoff`` or such a posterior it exits 2 naming the file. No
        command prints a traceback."""
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        data = tmp_path / "data"
        (data / "E.csv").write_text((data / "S4.csv").read_text().splitlines()[0] + "\n")
        (data / "E.meta.json").write_text((data / "S4.meta.json").read_text())
        labels = ("mu_theta1", "mu_theta2", "mu_sigma", "sd_theta1", "sd_theta2", "sd_sigma")
        prov = {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2}
        rows = np.tile([1.0, 1.05, 0.08, 0.08, 0.02, 0.03], (4, 1))
        save_sample_set(SampleSet(rows, labels, prov), tmp_path / "hyper")
        config_dict["sampler"] = {"n_samples": 50, "kind": "slice"}
        config_dict["candidates"] = [BASE_CANDIDATE] * 2
        config_dict["datasets"] = {"historical": ["data/S1.csv", "data/E.csv"],
                                   "current": "data/E.csv"}
        config.write_text(json.dumps(config_dict))
        capsys.readouterr()
        run = ["--config", str(config), "--out", str(tmp_path)]
        for command in ("fit-historical", "model-select"):
            assert main([command, *run]) == 2
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert record["error"] == "DataFormatError"
            assert record["message"].startswith(f"{data / 'E.csv'}: ")
        assert main(["fit-current", *run, "--cutoff", "5000"]) == 0
        assert load_sample_set(tmp_path / "current_posterior").provenance["n_data"] == 0
        assert main(["rul", *run]) == 0
        assert main(["fit-current", *run]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert str(data / "E.csv") in record["message"]

    def test_unknown_config_field_is_data_error(self, tmp_path, capsys):
        """A misspelt key at the top level or in any section exits 2 in the
        command that reads the section, naming the dotted key."""
        cases = [
            ("fit-historical", "n_samples", ["n_samples"]),
            ("fit-historical", "sampler.n_sample", ["sampler", "n_sample"]),
            ("fit-historical", "datasets.histrical", ["datasets", "histrical"]),
            ("fit-historical", "stage1_bounds.lowr", ["stage1_bounds", "lowr"]),
            ("fit-historical", "hyper_bounds.mu_thta", ["hyper_bounds", "mu_thta"]),
            ("model-select", "candidates[1].sigma_trunk", ["candidates", 1, "sigma_trunk"]),
            ("model-select", "candidates[0].stage1_bounds.uper",
             ["candidates", 0, "stage1_bounds", "uper"]),
            ("model-select", "candidates[1].hyper_bounds.rh0",
             ["candidates", 1, "hyper_bounds", "rh0"]),
            ("compare-prior", "literature_prior.sigma_bound", ["literature_prior", "sigma_bound"]),
            ("rul", "prognosis.include_observation_nois",
             ["prognosis", "include_observation_nois"]),
            ("predict", "prognosis.grid.nm", ["prognosis", "grid", "nm"]),
            ("synth", "synthetic.noise_scal", ["synthetic", "noise_scal"]),
            ("synth", "synthetic.psi.rh0", ["synthetic", "psi", "rh0"]),
            ("synth", "synthetic.cycles.nun", ["synthetic", "cycles", "nun"]),
            ("synth", "synthetic.loading.delta_sigm", ["synthetic", "loading", "delta_sigm"]),
            ("synth", "synthetic.geometry.af", ["synthetic", "geometry", "af"]),
        ]
        for i, (command, field, path) in enumerate(cases):
            root = tmp_path / str(i)
            config_dict = json.loads(json.dumps({**BASE_CONFIG, "candidates": [BASE_CANDIDATE] * 2}))
            config_dict["prognosis"]["grid"] = {"start": 0, "stop": 9e4, "num": 5}
            config = root / "run.json"
            root.mkdir()
            config.write_text(json.dumps(config_dict))
            # the prognosis section is read after the posterior and its data
            assert main(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
            ss = SampleSet(np.array([[1.0, 1.05, 0.05]]), ("theta1", "theta2", "sigma"),
                           {"t_c": 10000.0})
            save_sample_set(ss, root / "current_posterior")
            node = config_dict
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = True
            config.write_text(json.dumps(config_dict))
            capsys.readouterr()
            assert main([command, "--config", str(config), "--out", str(root)]) == 2, field
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert record == {"error": "DataFormatError", "message": f"config: unknown field '{field}'"}

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        """Bounds that force divergence before every observed cycle leave no
        finite log-target point, a numerical failure."""
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        config_dict["stage1_bounds"] = {"lower": [1.0, -3.0, 1e-3], "upper": [1.6, -2.0, 0.2]}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        code = main(["fit-historical", "--config", str(config), "--out", str(tmp_path)])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "SamplerError"

    def test_malformed_hyper_file_is_data_error(self, tmp_path, capsys):
        """A hyper sample the population density is not defined for (here
        sd_sigma = 0) exits 2, naming the file and the row."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps(BASE_CONFIG))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        rows = np.tile([1.0, 1.05, 0.08, 0.08, 0.02, 0.03], (4, 1))
        rows[2, 5] = 0.0
        labels = ("mu_theta1", "mu_theta2", "mu_sigma", "sd_theta1", "sd_theta2", "sd_sigma")
        prov = {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2}
        save_sample_set(SampleSet(rows, labels, prov), tmp_path / "hyper")
        capsys.readouterr()
        assert main(["fit-current", "--config", str(config), "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert str(tmp_path / "hyper.csv") in record["message"]
        assert "hyper sample 2 (0-based)" in record["message"]
        assert json.loads((tmp_path / "error.json").read_text()) == record

    @pytest.mark.parametrize(
        "sampler, field",
        [
            ({"n_samples": "abc"}, "sampler.n_samples"),
            ({"bogus": 1}, "sampler.bogus"),
            ({"seed": -1}, "sampler.seed"),
            ({"max_shrink": 0}, "sampler.max_shrink"),
            ({"max_step_out": -5}, "sampler.max_step_out"),
            ({"tmcmc_target_cov": float("nan")}, "sampler.tmcmc_target_cov"),
            ({"slice_width": float("inf")}, "sampler.slice_width"),
        ],
        ids=["wrong-type", "unknown-key", "negative-seed", "no-shrink", "negative-step-out",
             "nan-target-cov", "infinite-width"],
    )
    def test_bad_sampler_section_is_data_error(self, tmp_path, capsys, sampler, field):
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        config_dict["sampler"] = sampler
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        code = main(["fit-historical", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert field in record["message"]
        assert json.loads((tmp_path / "error.json").read_text()) == record

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("rul", "prognosis", "horizon", "x"),
            ("rul", "prognosis", "threshold", "x"),
            ("rul", "prognosis", "horizon", 5000.0),  # before t_c = 10000
            ("rul", "prognosis", "horizon", 1e20),  # cycles past 2^53 are not exact
            ("predict", "prognosis", "horizon", 2.0**53 + 2),
            ("predict", "prognosis", "quantiles", [0.975, 0.5, 0.025]),
            ("synth", "synthetic.loading", "delta_sigma", "x"),
            ("synth", "synthetic.geometry", "a0", "x"),
            ("rul", "prognosis", "include_observation_noise", "no"),
            ("predict", "prognosis", "include_observation_noise", 1),
            ("synth", "synthetic.psi", "mu0", "abc"),
            ("synth", "synthetic", "n_units", "six"),
            ("synth", "synthetic", "noise_scale", "x"),
            ("synth", "synthetic", "cycles", [0, 100, "a"]),
            ("synth", "synthetic.cycles", "num", "x"),
            ("synth", "synthetic", "psi", MISSING),
            ("synth", "synthetic.cycles", "stop", MISSING),
        ],
        ids=["horizon-type", "threshold-type", "horizon-before-t_c", "horizon-huge-rul",
             "horizon-huge-predict", "unsorted-quantiles",
             "delta_sigma-type", "a0-type", "noise-flag-string", "noise-flag-number",
             "psi-mu0-type", "n_units-type", "noise_scale-type", "cycles-entry-type",
             "cycles-num-type", "psi-missing", "cycles-stop-missing"],
    )
    def test_bad_config_field_is_data_error(self, tmp_path, capsys, command, section, key, value):
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        node = config_dict
        for part in section.split("."):
            node = node[part]
        if value is MISSING:
            del node[key]
        else:
            node[key] = value
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        ss = SampleSet(np.array([[1.0, 1.05, 0.05]]), ("theta1", "theta2", "sigma"), {"t_c": 10000.0})
        save_sample_set(ss, tmp_path / "current_posterior")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == (
            2 if command == "synth" else 0
        )
        if command != "synth":
            capsys.readouterr()
            assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert f"'{section}.{key}'" in record["message"]
        out = tmp_path / "data" if command == "synth" else tmp_path
        assert json.loads((out / "error.json").read_text()) == record

    @pytest.mark.parametrize(
        "command, path, edit, field",
        [
            ("fit-historical", ["stage1_bounds"], lambda b: b.update(lower="abc"),
             "stage1_bounds.lower"),
            ("fit-historical", ["stage1_bounds"], lambda b: b.update(lower=[0.6, 0.8]),
             "stage1_bounds.lower"),
            ("fit-historical", ["stage1_bounds"], _drop_upper, "stage1_bounds.upper"),
            ("fit-historical", ["stage1_bounds"], lambda b: b.update(lower=[1.7, 0.8, 1e-3]),
             "stage1_bounds"),
            ("fit-historical", ["hyper_bounds"], lambda b: b.update(mu_sigma=[0.4]),
             "hyper_bounds.mu_sigma"),
            ("fit-historical", ["hyper_bounds"], lambda b: b.update(mu_theta=[[0.8, 1.4]]),
             "hyper_bounds.mu_theta"),
            ("model-select", ["candidates", 1, "stage1_bounds"], lambda b: b.update(lower="abc"),
             "candidates[1].stage1_bounds.lower"),
            ("model-select", ["candidates", 0, "stage1_bounds"], _drop_upper,
             "candidates[0].stage1_bounds.upper"),
            ("model-select", ["candidates", 1, "hyper_bounds"],
             lambda b: b.update(sd_sigma="x"), "candidates[1].hyper_bounds.sd_sigma"),
        ],
        ids=["lower-string", "lower-short", "upper-missing", "lower-above-upper", "hyper-pair-short",
             "hyper-mu_theta-short", "candidate-lower-string", "candidate-upper-missing",
             "candidate-hyper-string"],
    )
    def test_bad_bounds_are_data_errors(self, tmp_path, capsys, command, path, edit, field):
        """Malformed prior boxes exit 2 before any sampling, naming the
        dotted field, instead of failing later as a numerical error."""
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        config_dict["candidates"] = [
            {"family": "paris", "stage1_bounds": config_dict["stage1_bounds"],
             "hyper_bounds": config_dict["hyper_bounds"]}
            for _ in range(2)
        ]
        config_dict = json.loads(json.dumps(config_dict))
        node = config_dict
        for part in path:
            node = node[part]
        edit(node)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        code = main([command, "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert f"'{field}'" in record["message"]
        assert json.loads((tmp_path / "error.json").read_text()) == record

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("fit-current", "hyper_subsample", "x"),
            ("fit-historical", "stage1_thin", "x"),
            ("model-select", "stage1_thin", 0),
            ("fit-current", "nominals", [2.0]),
            ("fit-historical", "seed", "x"),
            ("fit-historical", "sigma_trunc", "x"),
            ("fit-current", "cutoff", "x"),
            ("fit-historical", "case", "foo"),
            ("fit-historical", "family", "foo"),
            ("fit-current", "datasets", ["data/S1.csv"]),
        ],
        ids=["hyper_subsample-string", "stage1_thin-string", "stage1_thin-zero",
             "nominals-short", "seed-string", "sigma_trunc-string", "cutoff-string",
             "case-unknown", "family-unknown", "datasets-list"],
    )
    def test_bad_run_field_is_data_error(self, tmp_path, capsys, command, key, value):
        """Malformed top-level run fields exit 2 when the config loads,
        naming the field, before any data is read or sampled."""
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        config_dict[key] = value
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert f"'{key}'" in record["message"]
        assert json.loads((out / "error.json").read_text()) == record
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize(
        "command, path, value, field",
        [
            ("compare-prior", ["literature_prior", "sigma_bounds"], "x",
             "literature_prior.sigma_bounds"),
            ("compare-prior", ["literature_prior", "sigma_bounds"], [-1.0, 0.2],
             "literature_prior"),
            ("compare-prior", ["literature_prior", "means"], "abc", "literature_prior.means"),
            ("compare-prior", ["literature_prior", "sds"], [0.29], "literature_prior.sds"),
            ("predict", ["prognosis", "grid"], {"start": 0, "stop": 9e4, "num": "x"},
             "prognosis.grid.num"),
            ("predict", ["prognosis", "grid"], {"start": 0, "stop": 9e4, "num": 0},
             "prognosis.grid.num"),
            ("predict", ["prognosis", "grid"], {"start": 0, "num": 5}, "prognosis.grid.stop"),
            ("fit-historical", ["case"], "corr", "hyper_bounds.rho"),
            ("model-select", ["candidates", 0, "sigma_trunc"], "x", "candidates[0].sigma_trunc"),
            ("model-select", ["candidates"], [BASE_CANDIDATE], "candidates"),
            ("fit-historical", ["datasets", "historical"], "data/S1.csv", "datasets.historical"),
            ("synth", ["synthetic", "loading"], {"mode": "constant", "delta_sigma": 60, "n1": 5},
             "synthetic.loading.n1"),
            ("synth", ["synthetic", "loading"],
             {"mode": "two-block", "delta_sigma1": 60, "n1": 5, "delta_sigma2": 80, "n2": 5,
              "delta_sigma": 60}, "synthetic.loading.delta_sigma"),
        ],
        ids=["sigma_bounds-string", "sigma_bounds-negative", "means-string", "sds-short",
             "grid-num-string", "grid-num-zero", "grid-stop-missing", "corr-without-rho",
             "candidate-sigma_trunc-string", "one-candidate", "historical-string",
             "constant-loading-n1", "two-block-loading-delta_sigma"],
    )
    def test_config_error_names_the_field(self, tmp_path, capsys, command, path, value, field):
        """Each malformed field exits 2 naming its dotted path, without a
        traceback and before any dataset is read (there is none here)."""
        config_dict = json.loads(json.dumps({**BASE_CONFIG, "candidates": [BASE_CANDIDATE] * 2}))
        node = config_dict
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_dict))
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert f"'{field}'" in record["message"]
        assert json.loads((tmp_path / "error.json").read_text()) == record

    @pytest.mark.parametrize(
        "command, stem, row, line",
        [
            ("fit-current", "hyper", "nan,1.05,0.08,0.08,0.02,0.03", 3),
            ("fit-current", "hyper", "abc,1.05,0.08,0.08,0.02,0.03", 3),
            ("rul", "current_posterior", "1.0,nan,0.05", 2),
            ("predict", "current_posterior", "1.0,abc,0.05", 2),
            ("rul", "current_posterior", "1.0,1.05", 2),
        ],
        ids=["hyper-nan", "hyper-abc", "posterior-nan", "posterior-abc", "posterior-ragged"],
    )
    def test_malformed_sample_set_is_data_error(self, workspace, tmp_path, capsys, command, stem,
                                                row, line):
        """A non-finite, non-numeric or ragged sample row exits 2 naming the
        file and its 1-based line."""
        _, config = workspace
        rows = [[1.0, 1.05, 0.08, 0.08, 0.02, 0.03]] * 2 if stem == "hyper" else [[1.0, 1.05, 0.05]]
        labels = (
            ("mu_theta1", "mu_theta2", "mu_sigma", "sd_theta1", "sd_theta2", "sd_sigma")
            if stem == "hyper" else ("theta1", "theta2", "sigma")
        )
        prov = {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2, "t_c": 10000.0}
        save_sample_set(SampleSet(np.array(rows), labels, prov), tmp_path / stem)
        csv = tmp_path / f"{stem}.csv"
        lines = csv.read_text().splitlines()
        lines[line - 1] = row
        csv.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert f"{csv}:{line}:" in record["message"]

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m.update(thresold=1.4), "thresold"),
            (lambda m: m.update(nominals=[1.0]), "nominals"),
            (lambda m: m.update(nominals=[1.0, 1.0, 1.0]), "nominals"),
            (lambda m: m["loading"].update(delta_sigma="60"), "loading.delta_sigma"),
            (lambda m: m["geometry"].update(a0=True), "geometry.a0"),
            (lambda m: m["geometry"].update(a_f=float("inf")), "geometry.a_f"),
            (lambda m: m.update(unit_id={"a": 1}), "unit_id"),
            (lambda m: m.update(units={"a": 1}), "units"),
            (lambda m: m.update(threshold="x"), "threshold"),
            (lambda m: m["loading"].update(n1=5), "loading.n1"),
        ],
        ids=["misspelt-key", "nominals-short", "nominals-long", "number-as-string",
             "boolean-as-number", "infinite-number", "unit_id-object", "units-object",
             "threshold-string", "other-mode-loading-field"],
    )
    def test_bad_sidecar_field_is_data_error(self, workspace, tmp_path, capsys, edit, field):
        """A malformed field of the current unit's sidecar exits 2, with an
        error record that names the sidecar (once) and the dotted field."""
        root, _ = workspace
        for suffix in (".csv", ".meta.json"):
            (tmp_path / f"S4{suffix}").write_text((root / "data" / f"S4{suffix}").read_text())
        meta_path = tmp_path / "S4.meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**BASE_CONFIG, "datasets": {"current": "S4.csv"}}))
        ss = SampleSet(np.array([[1.0, 1.05, 0.05]]), ("theta1", "theta2", "sigma"), {"t_c": 10000.0})
        save_sample_set(ss, tmp_path / "current_posterior")
        assert main(["rul", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert record["message"].startswith(f"{meta_path}: ")
        assert f"'{field}'" in record["message"]
        assert json.loads((tmp_path / "error.json").read_text()) == record

    @pytest.mark.parametrize(
        "command, stem, edit, field",
        [
            ("fit-current", "hyper", lambda p: p.update(correlated="no"), "correlated"),
            ("fit-current", "hyper", lambda p: p.update(n_theta="two"), "n_theta"),
            ("fit-current", "hyper", lambda p: p.update(sigma_trunc="x"), "sigma_trunc"),
            ("fit-current", "hyper", lambda p: p.pop("sigma_trunc"), "sigma_trunc"),
            ("fit-current", "hyper", lambda p: p.update(n_theta=3), "n_theta"),
            ("fit-current", "hyper", lambda p: p.update(correlated=True), "correlated"),
            ("rul", "current_posterior", lambda p: p.update(t_c=None), "t_c"),
            ("rul", "current_posterior", lambda p: p.update(t_c="x"), "t_c"),
        ],
        ids=["correlated-string", "n_theta-string", "sigma_trunc-string", "sigma_trunc-missing",
             "n_theta-not-the-family", "correlated-without-rho", "t_c-null", "t_c-string"],
    )
    def test_bad_manifest_field_is_data_error(self, workspace, tmp_path, capsys, command, stem,
                                              edit, field):
        """The provenance fields the pipeline reads back from a sample set
        (a hyper set's population metadata, a posterior's t_c) are checked
        before any sampling: a malformed one, or metadata that does not
        describe the family or the set's columns, exits 2 naming the
        manifest and the field."""
        _, config = workspace
        if stem == "hyper":
            labels = ("mu_theta1", "mu_theta2", "mu_sigma", "sd_theta1", "sd_theta2", "sd_sigma")
            rows = np.tile([1.0, 1.05, 0.08, 0.08, 0.02, 0.03], (4, 1))
            prov = {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2}
        else:
            labels, rows = ("theta1", "theta2", "sigma"), np.array([[1.0, 1.05, 0.05]])
            prov = {"t_c": 10000.0}
        edit(prov)
        save_sample_set(SampleSet(rows, labels, prov), tmp_path / stem)
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert record["message"].startswith(f"{tmp_path / stem}.json: ")
        assert f"'provenance.{field}'" in record["message"]
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".csv"] == [f"{stem}.csv"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "hbprog" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["predict", "rul"])
    def test_posterior_without_t_c_forecasts_from_the_current_data(self, workspace, tmp_path,
                                                                   capsys, command):
        """A posterior whose provenance records no ``t_c`` is forecast from
        the current unit's last observed cycle."""
        root, config = workspace
        ss = SampleSet(np.array([[1.0, 1.05, 0.05]]), ("theta1", "theta2", "sigma"), {})
        save_sample_set(ss, tmp_path / "current_posterior")
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        last = int((root / "data" / "S4.csv").read_text().splitlines()[-1].split(",")[0])
        stem = "trajectory" if command == "predict" else "rul"
        assert json.loads((tmp_path / f"{stem}.json").read_text())["config"]["t_c"] == last


#: a run config without ``family`` over the battery fleet of
#: ``battery_workspace``: the fitted family is the one its sidecars name
BATTERY_CONFIG = {
    "seed": 5,
    "datasets": {"historical": ["data/B1.csv", "data/B2.csv"], "current": "data/B3.csv"},
    "stage1_bounds": {"lower": [0.05] * 4 + [1e-4], "upper": [1.8] * 4 + [0.4]},
    "hyper_bounds": {"mu_theta": [[0.0, 1.8]] * 4, "sd_theta": [[0.0, 0.4]] * 4,
                     "mu_sigma": [0.0, 0.4], "sd_sigma": [0.0, 0.2]},
    "sampler": {"kind": "tmcmc", "n_samples": 100},
    "literature_prior": {"means": [1.92, -0.02, -0.003, -0.05], "sds": [0.1] * 4,
                         "sigma_bounds": [0.001, 0.4]},
}


@pytest.fixture(scope="module")
def battery_workspace(tmp_path_factory):
    """A three-unit double-exponential fleet whose sidecars name
    ``batt-double``."""
    root = tmp_path_factory.mktemp("battery")
    config = root / "synth.json"
    config.write_text(json.dumps({"synthetic": {
        "family": "batt-double",
        "psi": {"mu0": [1.0] * 4, "sd0": [0.03] * 4, "mu_sigma": 0.015, "sd_sigma": 0.005},
        "n_units": 3, "unit_prefix": "B", "cycles": list(range(1, 81, 2)), "threshold": 1.4,
        "nominals": [1.92, -0.02, -0.003, -0.05],
    }}))
    assert main(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
    return root


class TestFittedFamily:
    """A config without ``family`` fits the family its datasets' sidecars
    name, and every field read against the family is checked against that
    one before any sampling."""

    @staticmethod
    def _run(root: Path, out: Path, command: str, config_dict: dict, capsys) -> dict | None:
        config = out / "run.json"
        out.mkdir()
        config.write_text(json.dumps(config_dict))
        capsys.readouterr()
        code = main([command, "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 0:
            return None
        assert code == 2, err
        return json.loads(err.strip().splitlines()[-1])

    @pytest.mark.parametrize(
        "command, key, value, field",
        [
            ("fit-historical", "nominals", [1.92, -0.02, -0.003], "nominals"),
            ("compare-prior", "nominals", [1.92, -0.02, -0.003], "nominals"),
            ("fit-historical", "stage1_bounds",
             {"lower": [0.05] * 3 + [1e-4], "upper": [1.8] * 3 + [0.4]}, "stage1_bounds.lower"),
            ("fit-historical", "hyper_bounds",
             {"mu_theta": [[0.0, 1.8]] * 3, "sd_theta": [[0.0, 0.4]] * 3,
              "mu_sigma": [0.0, 0.4], "sd_sigma": [0.0, 0.2]}, "hyper_bounds.mu_theta"),
            ("compare-prior", "literature_prior",
             {"means": [1.0] * 3, "sds": [0.1] * 3}, "literature_prior.means"),
        ],
        ids=["nominals-short", "nominals-short-current", "stage1-box-short", "hyper-box-short",
             "literature-prior-short"],
    )
    def test_field_checked_against_the_sidecars_family(self, battery_workspace, tmp_path, capsys,
                                                       command, key, value, field):
        root = battery_workspace
        config_dict = {**BATTERY_CONFIG, key: value}
        config_dict["datasets"] = {k: (
            [str(root / p) for p in v] if isinstance(v, list) else str(root / v)
        ) for k, v in BATTERY_CONFIG["datasets"].items()}
        record = self._run(root, tmp_path / "out", command, config_dict, capsys)
        assert record["error"] == "DataFormatError"
        assert record["message"].startswith(f"config: field '{field}'")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["error.json", "run.json"]

    def test_sidecars_naming_two_families_is_data_error(self, battery_workspace, tmp_path, capsys):
        root = battery_workspace
        (tmp_path / "T1.csv").write_text("cycle,value\n0,1.0\n500,1.1\n")
        (tmp_path / "T1.meta.json").write_text(json.dumps(
            {"unit_id": "T1", "family": "paris", "units": "mm",
             "geometry": {"a0": 1.0, "n0": 0, "a_f": 25.0},
             "loading": {"mode": "constant", "delta_sigma": 60.0}}))
        config_dict = {**BATTERY_CONFIG, "datasets": {"historical": [
            str(root / "data" / "B1.csv"), str(root / "data" / "B2.csv"), str(tmp_path / "T1.csv"),
        ]}}
        record = self._run(root, tmp_path / "out", "fit-historical", config_dict, capsys)
        assert record["error"] == "DataFormatError"
        assert record["message"].startswith(f"{tmp_path / 'T1.meta.json'}: family 'paris'")
        assert "'batt-double'" in record["message"]

    def test_sigma_trunc_default_follows_the_family(self, workspace, tmp_path, capsys):
        """A crack fit whose config names neither the family nor
        ``sigma_trunc`` truncates the population sigma at 0.2, as a
        ``family: paris`` config does."""
        root, _ = workspace
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        del config_dict["family"], config_dict["sigma_trunc"]
        config_dict["sampler"] = {"n_samples": 30, "kind": "slice"}
        config_dict["datasets"]["historical"] = [str(root / "data" / "S1.csv"),
                                                 str(root / "data" / "S2.csv")]
        assert self._run(root, tmp_path / "out", "fit-historical", config_dict, capsys) is None
        hyper = load_sample_set(tmp_path / "out" / "hyper")
        assert hyper.provenance["sigma_trunc"] == 0.2


class TestFlags:
    def test_flags_enter_the_fingerprint(self, workspace, tmp_path, capsys):
        """Each override flag changes the run fingerprint, and repeating an
        argv writes the same bytes."""
        _, config = workspace
        ss = SampleSet(np.array([[1.0, 1.05, 0.05]]), ("theta1", "theta2", "sigma"), {"t_c": 10000.0})
        flags = [[], ["--cutoff", "12000"], ["--case", "corr"], ["--sampler", "tmcmc"],
                 ["--samples", "7"], ["--cutoff", "12000"]]
        outs = [tmp_path / str(i) for i in range(len(flags))]
        for out, extra in zip(outs, flags):
            out.mkdir()
            save_sample_set(ss, out / "current_posterior")
            assert main(["rul", "--config", str(config), "--out", str(out), *extra]) == 0
        capsys.readouterr()
        prints = [json.loads((o / "rul.json").read_text())["provenance"]["run_fingerprint"]
                  for o in outs]
        assert len(set(prints[:5])) == 5
        for name in ("rul.json", "rul.rul.csv"):
            assert (outs[1] / name).read_bytes() == (outs[5] / name).read_bytes()


#: the fuzzed config: the base config with tiny sampler settings and two
#: model-selection candidates
FUZZ_CONFIG = {
    **BASE_CONFIG,
    "sampler": {"n_samples": 20, "kind": "slice"},
    "candidates": [BASE_CANDIDATE, BASE_CANDIDATE],
}

#: the command run for a mutation under each top-level field; the fields
#: checked when any config loads go through `rul`, the cheapest command
FUZZ_COMMANDS = {
    "synthetic": "synth",
    "literature_prior": "compare-prior",
    "prognosis": "predict",
    "candidates": "model-select",
    "stage1_bounds": "fit-historical",
    "hyper_bounds": "fit-historical",
    "stage1_thin": "fit-historical",
    "hyper_subsample": "fit-current",
    "datasets": "fit-current",
}


def _config_paths(node, prefix=()):
    """The path of every field of a JSON document: object keys and list
    entries, at every depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from _config_paths(value, (*prefix, key))


def _wrong_type(value):
    """A JSON value of another type than ``value``."""
    if isinstance(value, str):
        return 7
    if isinstance(value, dict):
        return ["x"]
    return "x"


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A synthetic fleet, a hyper sample set and a current posterior that
    every fuzzed command can run on."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "run.json"
    config.write_text(json.dumps(FUZZ_CONFIG))
    assert main(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
    labels = ("mu_theta1", "mu_theta2", "mu_sigma", "sd_theta1", "sd_theta2", "sd_sigma")
    prov = {"n_theta": 2, "correlated": False, "sigma_trunc": 0.2}
    hyper = np.tile([1.0, 1.05, 0.08, 0.08, 0.02, 0.03], (4, 1))
    save_sample_set(SampleSet(hyper, labels, prov), root / "hyper")
    posterior = np.array([[1.0, 1.05, 0.05]])
    save_sample_set(SampleSet(posterior, labels[:2] + ("sigma",), {"t_c": 10000.0}),
                    root / "current_posterior")
    return root


class TestConfigFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        path=st.sampled_from(list(_config_paths(FUZZ_CONFIG))),
        mutation=st.sampled_from(["wrong-type", "null", "missing"]),
    )
    def test_mutated_field_never_crashes(self, fuzz_workspace, path, mutation):
        """One field of the config set to a wrong type, null or deleted:
        the command that reads it exits 0 or 2, never 1 or 3, and prints no
        traceback."""
        root = fuzz_workspace
        config_dict = copy.deepcopy(FUZZ_CONFIG)
        node = config_dict
        for part in path[:-1]:
            node = node[part]
        if mutation == "missing":
            del node[path[-1]]
        else:
            node[path[-1]] = None if mutation == "null" else _wrong_type(node[path[-1]])
        out = Path(tempfile.mkdtemp(dir=root))
        config = out.with_suffix(".json")
        config.write_text(json.dumps(config_dict))
        command = FUZZ_COMMANDS.get(path[0], "rul")
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "fit-current":
            argv += ["--hyper", str(root / "hyper")]
        if command in ("predict", "rul"):
            argv += ["--posterior", str(root / "current_posterior")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (path, mutation, err.getvalue())
        assert "Traceback" not in err.getvalue()


#: a data file of the fuzz workspace, and the command that reads it
FUZZ_DATA_COMMANDS = {
    "S4.csv": "rul",
    "S4.meta.json": "rul",
    "hyper.json": "fit-current",
    "current_posterior.json": "rul",
}


class TestDataFileFuzz:
    """One data file that a command reads (the current unit's CSV or
    sidecar, the hyper set's or the posterior's manifest) mutated once: the
    command exits 0 or 2, never 1 or 3, prints no traceback, and its error
    record names the mutated file."""

    @staticmethod
    def _run(root: Path, name: str, mutate) -> int:
        out = Path(tempfile.mkdtemp(dir=root))
        for path in [root / "data" / "S4.csv", root / "data" / "S4.meta.json"] + [
            root / f"{stem}{suffix}"
            for stem in ("hyper", "current_posterior") for suffix in (".csv", ".json")
        ]:
            (out / path.name).write_bytes(path.read_bytes())
        mutate(out / name)
        config = out / "run.json"
        config.write_text(json.dumps({**FUZZ_CONFIG, "datasets": {"current": "S4.csv"}}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([FUZZ_DATA_COMMANDS[name], "--config", str(config), "--out", str(out)])
        assert code in (0, 2), (name, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert name in json.loads((out / "error.json").read_text())["message"]
        return code

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["S4.meta.json", "hyper.json", "current_posterior.json"]),
        mutation=st.sampled_from(["wrong-type", "null", "missing", "nan", "inf", "extra-key"]),
        data=st.data(),
    )
    def test_mutated_json_field_never_crashes(self, fuzz_workspace, name, mutation, data):
        def mutate(path):
            doc = json.loads(path.read_text())
            field = data.draw(st.sampled_from(list(_config_paths(doc))))
            node = doc
            for part in field[:-1]:
                node = node[part]
            if mutation == "missing":
                del node[field[-1]]
            elif mutation == "extra-key" and isinstance(node, list):
                node.append(1.0)
            elif mutation == "extra-key":
                node["extra"] = 1.0
            else:
                values = {"null": None, "nan": float("nan"), "inf": float("inf")}
                node[field[-1]] = values.get(mutation) if mutation in values else _wrong_type(
                    node[field[-1]])
            path.write_text(json.dumps(doc))

        self._run(fuzz_workspace, name, mutate)

    @settings(max_examples=20, deadline=None)
    @given(
        mutation=st.sampled_from(["duplicate", "decreasing", "empty", "ragged", "nan"]),
        row=st.integers(1, 2),
    )
    def test_mutated_dataset_rows_never_crash(self, fuzz_workspace, mutation, row):
        def mutate(path):
            lines = path.read_text().splitlines()
            if mutation == "duplicate":
                lines.insert(row, lines[row])
            elif mutation == "decreasing":
                lines[row], lines[row + 1] = lines[row + 1], lines[row]
            elif mutation == "ragged":
                lines[row] += ",1.0"
            elif mutation == "nan":
                lines[row] = lines[row].split(",")[0] + ",nan"
            else:
                lines = []
            path.write_text("".join(f"{line}\n" for line in lines))

        assert self._run(fuzz_workspace, "S4.csv", mutate) == 2
