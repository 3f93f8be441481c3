"""Command-line surface: artifact flow, exit codes, reproducibility."""

import json

import numpy as np
import pytest

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

    @pytest.mark.parametrize(
        "sampler, field",
        [({"n_samples": "abc"}, "sampler.n_samples"), ({"bogus": 1}, "sampler.bogus")],
        ids=["wrong-type", "unknown-key"],
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
            ("predict", "prognosis", "quantiles", [0.975, 0.5, 0.025]),
            ("synth", "synthetic.loading", "delta_sigma", "x"),
            ("synth", "synthetic.geometry", "a0", "x"),
        ],
        ids=["horizon-type", "threshold-type", "horizon-before-t_c", "unsorted-quantiles",
             "delta_sigma-type", "a0-type"],
    )
    def test_bad_config_field_is_data_error(self, tmp_path, capsys, command, section, key, value):
        config_dict = json.loads(json.dumps(BASE_CONFIG))
        node = config_dict
        for part in section.split("."):
            node = node[part]
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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "hbprog" in capsys.readouterr().out
