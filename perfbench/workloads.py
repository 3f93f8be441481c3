"""The benchmark's workloads: input generation, CLI command sequences,
output checks and sampling-quality figures.

Each workload draws ``n_sets`` independent input sets from the benchmark
seed, so one run averages over several fleets instead of timing a single
draw of the data. Inputs are written as the CLI consumes them (a JSON run
configuration plus dataset CSVs and sidecars, or a saved sample set); the
timed part only ever calls ``hbprog.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hbprog.cli import main as cli_main
from hbprog.hierarchy import Dataset
from hbprog.io import save_dataset, save_sample_set
from hbprog.samplers import SampleSet

from ess import ess

BATT_DOUBLE_NOMINALS = [1.92, -0.02, -0.003, -0.05]

@dataclass(frozen=True)
class InputSet:
    """One generated input set: its directory, config and per-set extras."""

    index: int
    seed: int
    root: Path
    config: Path
    extra: dict


def set_seed(seed: int, workload_tag: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, workload_tag, index]).generate_state(1)[0])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}")


def _synth_sets(workload, root: Path, seed: int) -> list[InputSet]:
    """One directory per input set: the run config and a ``synth`` fleet."""
    sets = []
    for k in range(workload.n_sets):
        s = set_seed(seed, workload.tag, k)
        d = root / f"set{k}"
        d.mkdir(parents=True)
        config = d / "run.json"
        _write_json(config, workload.config(s))
        _cli(["synth", "--config", str(config), "--out", str(d / "data")])
        sets.append(InputSet(k, s, d, config, {}))
    return sets


def _read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _header(path: Path) -> list[str]:
    with path.open() as fh:
        return fh.readline().strip().split(",")


def _check_bands(out: Path, stem: str, t_c: float) -> list[str]:
    path = out / f"{stem}.bands.csv"
    if _header(path) != ["cycle", "q0.025", "q0.5", "q0.975"]:
        return [f"{path.name}: unexpected header"]
    table = _read_matrix(path)
    problems = []
    if np.isnan(table).any():
        problems.append(f"{path.name}: NaN in the bands")
    if table[0, 0] < t_c or np.any(np.diff(table[:, 0]) <= 0):
        problems.append(f"{path.name}: grid does not rise from t_c")
    with np.errstate(invalid="ignore"):  # inf - inf where diverged draws fill a band
        unordered = np.any(np.diff(table[:, 1:], axis=1) < 0)
    if unordered:
        problems.append(f"{path.name}: bands not ordered across quantiles")
    return problems


def _check_rul(out: Path, stem: str) -> tuple[list[str], np.ndarray, dict]:
    manifest = json.loads((out / f"{stem}.json").read_text())
    cfg = manifest["config"]
    t_c, horizon = float(cfg["t_c"]), float(cfg["horizon"])
    table = _read_matrix(out / f"{stem}.rul.csv")
    t_eol, rul, censored = table[:, 0], table[:, 1], table[:, 2].astype(bool)
    problems = []
    if np.any(rul != t_eol - t_c):
        problems.append("rul != t_eol - t_c for some draw")
    if np.any(t_eol < t_c) or np.any(t_eol > horizon):
        problems.append("t_eol outside [t_c, horizon]")
    if np.any(t_eol[censored] != horizon):
        problems.append("censored draw not at the horizon")
    if manifest["summary"]["censored_fraction"] != float(censored.mean()):
        problems.append("censored fraction disagrees with the draws")
    return problems, table, cfg


def _min_ess(path: Path) -> float:
    return float(ess(_read_matrix(path)).min())


class CrackPipeline:
    """README-shaped Paris-law fleet: fit-historical, fit-current, predict, rul."""

    name = "crack-pipeline"
    tag = 1
    n_sets = 3
    n_samples = 200

    def prepare(self, root: Path, seed: int) -> list[InputSet]:
        sets = _synth_sets(self, root, seed)
        for inp in sets:
            cycles = _read_matrix(inp.root / "data" / "T7.csv")[:, 0]
            # mid-point of the current unit's observed series
            inp.extra["cutoff"] = int(cycles[len(cycles) // 2])
        return sets

    def config(self, seed: int) -> dict:
        return {
            "family": "paris",
            "seed": seed,
            "sigma_trunc": 0.2,
            "case": "diag",
            "nominals": [2.0, -18.6],
            "datasets": {
                "historical": [f"data/T{i}.csv" for i in range(1, 7)],
                "current": "data/T7.csv",
            },
            "cutoff": None,
            "stage1_bounds": {"lower": [0.6, 0.8, 0.001], "upper": [1.6, 1.3, 0.2]},
            "hyper_bounds": {
                "mu_theta": [[0.8, 1.4], [0.9, 1.4]],
                "sd_theta": [[0.0, 0.3], [0.0, 0.1]],
                "mu_sigma": [0.0, 0.4],
                "sd_sigma": [0.0, 0.2],
                "rho": [-1.0, 1.0],
            },
            "sampler": {"kind": "slice", "n_samples": self.n_samples, "burn_in": 0.2, "thinning": 1},
            "stage1_thin": 100,
            "hyper_subsample": 100,
            "prognosis": {
                "threshold": 25.0,
                "horizon": 300000,
                "quantiles": [0.025, 0.5, 0.975],
                "include_observation_noise": False,
            },
            "synthetic": {
                "psi": {"mu0": [1.0, 1.05], "sd0": [0.08, 0.02], "mu_sigma": 0.08, "sd_sigma": 0.03},
                "n_units": 7,
                "unit_prefix": "T",
                "cycles": {"start": 0, "stop": 24000, "num": 13},
                "noise_scale": 1.0,
                "loading": {"mode": "constant", "delta_sigma": 60.0},
                "geometry": {"a0": 1.0, "n0": 0.0, "a_f": 25.0},
            },
        }

    def argvs(self, inp: InputSet, out: Path) -> list[tuple[str, list[str]]]:
        base = ["--config", str(inp.config), "--out", str(out)]
        return [
            ("fit-historical", ["fit-historical", *base]),
            ("fit-current", ["fit-current", *base, "--cutoff", str(inp.extra["cutoff"])]),
            ("predict", ["predict", *base]),
            ("rul", ["rul", *base]),
        ]

    def check(self, inp: InputSet, out: Path) -> dict[str, list[str]]:
        cfg = json.loads(inp.config.read_text())
        lo = np.array(cfg["stage1_bounds"]["lower"])
        hi = np.array(cfg["stage1_bounds"]["upper"])
        hb = cfg["hyper_bounds"]
        pairs = hb["mu_theta"] + [hb["mu_sigma"]] + hb["sd_theta"] + [hb["sd_sigma"]]
        hlo, hhi = np.array(pairs).T
        fit = []
        for i in range(1, 7):
            draws = _read_matrix(out / f"stage1_T{i}.csv")
            if draws.shape != (self.n_samples, 3) or np.any(draws < lo) or np.any(draws > hi):
                fit.append(f"stage1_T{i}: draws missing or outside the prior box")
        hyper = _read_matrix(out / "hyper.csv")
        if hyper.shape != (self.n_samples, 6) or np.any(hyper < hlo) or np.any(hyper > hhi):
            fit.append("hyper: draws missing or outside the hyper-prior box")
        current = []
        post = _read_matrix(out / "current_posterior.csv")
        manifest = json.loads((out / "current_posterior.json").read_text())
        if post.shape != (self.n_samples, 3) or not np.all((post[:, 2] > 0) & (post[:, 2] < 0.2)):
            current.append("current posterior: draws missing or sigma outside (0, 0.2)")
        if manifest["provenance"].get("t_c") != float(inp.extra["cutoff"]):
            current.append("current posterior: t_c not recorded")
        rul, _, _ = _check_rul(out, "rul")
        return {
            "fit-historical": fit,
            "fit-current": current,
            "predict": _check_bands(out, "trajectory", float(inp.extra["cutoff"])),
            "rul": rul,
        }

    def quality(self, inp: InputSet, out: Path, times: dict[str, float]) -> dict[str, float]:
        fleet = min(
            [_min_ess(out / f"stage1_T{i}.csv") for i in range(1, 7)] + [_min_ess(out / "hyper.csv")]
        )
        current = _min_ess(out / "current_posterior.csv")
        fleet_fit = times["fit-historical"]
        update = times["fit-current"] + times["predict"] + times["rul"]
        return {
            "fleet_fit_s": fleet_fit,
            "inspection_update_s": update,
            "fleet_min_ess": fleet,
            "current_min_ess": current,
            "fleet_ess_per_s": fleet / fleet_fit,
            "current_ess_per_s": current / times["fit-current"],
        }


BATTERY_CANDIDATES = [
    {
        "name": "batt-single",
        "family": "batt-single",
        "nominals": [2.0, -1.0, -100.0],
        "stage1_bounds": {"lower": [0.05] * 3 + [1e-4], "upper": [1.8] * 3 + [0.4]},
        "hyper_bounds": {
            "mu_theta": [[0.0, 1.8]] * 3,
            "sd_theta": [[0.0, 0.4]] * 3,
            "mu_sigma": [0.0, 0.4],
            "sd_sigma": [0.0, 0.2],
        },
        "sigma_trunc": 0.4,
    },
    {
        "name": "batt-double",
        "family": "batt-double",
        "nominals": BATT_DOUBLE_NOMINALS,
        "stage1_bounds": {"lower": [0.05] * 4 + [1e-4], "upper": [1.8] * 4 + [0.4]},
        "hyper_bounds": {
            "mu_theta": [[0.0, 1.8]] * 4,
            "sd_theta": [[0.0, 0.4]] * 4,
            "mu_sigma": [0.0, 0.4],
            "sd_sigma": [0.0, 0.2],
        },
        "sigma_trunc": 0.4,
    },
]


class BatterySelect:
    """model-select between batt-single and batt-double on a synthetic
    double-exponential fleet shaped like demo 04 (3 units x 40 cycles)."""

    name = "battery-select"
    tag = 2
    n_sets = 2
    n_samples = 400

    def prepare(self, root: Path, seed: int) -> list[InputSet]:
        return _synth_sets(self, root, seed)

    def config(self, seed: int) -> dict:
        return {
            "family": "batt-double",
            "seed": seed,
            "sigma_trunc": 0.4,
            "case": "diag",
            "nominals": BATT_DOUBLE_NOMINALS,
            "datasets": {"historical": [f"data/B{i}.csv" for i in range(1, 4)]},
            "sampler": {"kind": "tmcmc", "n_samples": self.n_samples},
            "stage1_thin": 200,
            "candidates": BATTERY_CANDIDATES,
            "synthetic": {
                "family": "batt-double",
                "psi": {"mu0": [1.0] * 4, "sd0": [0.03] * 4, "mu_sigma": 0.015, "sd_sigma": 0.005},
                "n_units": 3,
                "unit_prefix": "B",
                "cycles": list(range(1, 81, 2)),
                "threshold": 1.4,
                "nominals": BATT_DOUBLE_NOMINALS,
            },
        }

    def argvs(self, inp: InputSet, out: Path) -> list[tuple[str, list[str]]]:
        return [("model-select", ["model-select", "--config", str(inp.config), "--out", str(out)])]

    def _ranking(self, out: Path) -> list[dict]:
        return json.loads((out / "model_select.json").read_text())["ranking"]

    def check(self, inp: InputSet, out: Path) -> dict[str, list[str]]:
        problems = []
        ranking = self._ranking(out)
        if sorted(r["name"] for r in ranking) != ["batt-double", "batt-single"]:
            problems.append("ranking does not list both candidates")
        for r in ranking:
            if r["error"] is not None:
                problems.append(f"{r['name']}: {r['error']}")
                continue
            values = [r[k] for k in ("log_evidence", "log_evidence_se", "data_log_evidence", "hyper_log_evidence")]
            if not all(isinstance(v, float) and math.isfinite(v) for v in values):
                problems.append(f"{r['name']}: non-finite evidence or standard error")
            elif r["log_evidence"] != r["data_log_evidence"] + r["hyper_log_evidence"]:
                problems.append(f"{r['name']}: log_evidence != data + hyper parts")
        return {"model-select": problems}

    def quality(self, inp: InputSet, out: Path, times: dict[str, float]) -> dict[str, float]:
        ranking = self._ranking(out)
        se = max(r["log_evidence_se"] for r in ranking)
        names = [r["name"] for r in ranking]
        return {
            "model_select_s": times["model-select"],
            "evidence_se": se,
            # the generating family's rank; a miss is recorded, not failed
            "true_family_rank": float(names.index("batt-double") + 1),
        }


class BatteryPrognosis:
    """predict and rul on a saved batt-double posterior whose draws cross
    the capacity floor over thousands of cycles, some beyond the horizon."""

    name = "battery-prognosis"
    tag = 3
    n_sets = 3
    n_draws = 2000
    t_c = 2000
    horizon = 30000
    threshold = 1.4
    # slow fade: theta2 = 1 crosses the 1.4 Ahr floor near cycle 10,500
    nominals = [1.92, -3e-5, -0.003, -0.05]
    n_scan_checks = 16

    def prepare(self, root: Path, seed: int) -> list[InputSet]:
        sets = []
        for k in range(self.n_sets):
            s = set_seed(seed, self.tag, k)
            d = root / f"set{k}"
            d.mkdir(parents=True)
            rng = np.random.default_rng(s)
            theta = np.column_stack(
                [
                    rng.normal(1.0, 0.01, self.n_draws),
                    np.exp(rng.normal(0.0, 0.6, self.n_draws)),
                    rng.normal(1.0, 0.05, self.n_draws),
                    rng.normal(1.0, 0.05, self.n_draws),
                    np.abs(rng.normal(0.01, 0.002, self.n_draws)),
                ]
            )
            labels = ("theta1", "theta2", "theta3", "theta4", "sigma")
            save_sample_set(SampleSet(theta, labels, {"t_c": float(self.t_c)}), d / "posterior")
            cycles = np.arange(1, self.t_c + 1, 100)
            q = self._capacity(np.median(theta, axis=0), cycles.astype(float))
            values = q + 0.01 * rng.standard_normal(cycles.size)
            current = Dataset(
                "C1", cycles, values, "batt-double", "Ahr", threshold=self.threshold,
                nominals=tuple(self.nominals),
            )
            save_dataset(current, d / "C1.csv")
            config = d / "run.json"
            _write_json(config, self.config(s))
            sets.append(InputSet(k, s, d, config, {"theta": theta}))
        return sets

    def config(self, seed: int) -> dict:
        return {
            "family": "batt-double",
            "seed": seed,
            "sigma_trunc": 0.4,
            "nominals": self.nominals,
            "datasets": {"current": "C1.csv"},
            "prognosis": {
                "threshold": self.threshold,
                "horizon": self.horizon,
                "quantiles": [0.025, 0.5, 0.975],
                "include_observation_noise": False,
            },
        }

    def _capacity(self, row, k):
        a, b, c, d = (float(row[j]) * self.nominals[j] for j in range(4))
        return a * np.exp(b * k) + c * np.exp(d * k)

    def argvs(self, inp: InputSet, out: Path) -> list[tuple[str, list[str]]]:
        base = ["--config", str(inp.config), "--out", str(out), "--posterior", str(inp.root / "posterior")]
        return [("predict", ["predict", *base]), ("rul", ["rul", *base])]

    def brute_force_eol(self, row) -> tuple[float, bool]:
        """First integer cycle in (t_c, horizon] at or below the floor,
        scanned one cycle at a time."""
        a, b, c, d = (float(row[j]) * self.nominals[j] for j in range(4))
        for k in range(self.t_c + 1, self.horizon + 1):
            if a * math.exp(b * k) + c * math.exp(d * k) <= self.threshold:
                return float(k), False
        return float(self.horizon), True

    def check(self, inp: InputSet, out: Path) -> dict[str, list[str]]:
        rul, table, _ = _check_rul(out, "rul")
        theta = inp.extra["theta"]
        rng = np.random.default_rng(inp.seed)
        for i in rng.choice(theta.shape[0], self.n_scan_checks, replace=False):
            t_eol, censored = self.brute_force_eol(theta[i])
            if (table[i, 0], bool(table[i, 2])) != (t_eol, censored):
                rul.append(f"draw {i}: t_eol {table[i, 0]} vs brute-force scan {t_eol}")
        return {"predict": _check_bands(out, "trajectory", float(self.t_c)), "rul": rul}

    def quality(self, inp: InputSet, out: Path, times: dict[str, float]) -> dict[str, float]:
        censored = _read_matrix(out / "rul.rul.csv")[:, 2]
        prognosis = times["predict"] + times["rul"]
        return {
            "prognosis_s": prognosis,
            "censored_frac": float(censored.mean()),
        }


WORKLOADS = {w.name: w for w in (CrackPipeline(), BatterySelect(), BatteryPrognosis())}
