"""Dataset ingestion, artifact persistence, synthetic-fleet generation and
run configuration.

File conventions (all diff-able text):

* a dataset is ``<stem>.csv`` with header ``cycle,value`` plus a sidecar
  ``<stem>.meta.json`` carrying unit id, family, units, nominals and the
  crack geometry/loading or battery threshold;
* a sample set is ``<stem>.csv`` (header = component labels) plus
  ``<stem>.json`` with provenance, seeds, config hash, code version and the
  optional log-evidence;
* a prognosis is ``<stem>.bands.csv`` / ``<stem>.rul.csv`` plus
  ``<stem>.json`` with the summary and configuration.

Floats are written with ``repr`` so every save -> load -> save round trip is
byte-identical; writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from hbprog import __version__
from hbprog.hierarchy import Dataset, build_model
from hbprog.models import CrackGeometry, LoadingSpec
from hbprog.prognosis import PrognosisConfig, PrognosisResult, end_of_life, quantile_levels
from hbprog.samplers import SampleSet, SamplerConfig, config_fingerprint, subseed
from hbprog.targets import HyperParameters, HyperPriorBounds, trunc_normal_ppf


class DataFormatError(ValueError):
    """A data or metadata file does not match the documented schema."""


def _fmt(v: float) -> str:
    return repr(float(v))


def atomic_write(path: Path | str, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


_REQUIRED = object()


def _field(doc: dict, key: str, where: str, convert=None, default=_REQUIRED):
    """The value at the dotted ``key`` of a JSON document ``where``, passed
    through ``convert``. A missing field without a default, or a value that
    ``convert`` rejects with TypeError or ValueError, is a
    :class:`DataFormatError` naming the field."""
    cur = doc
    for part in key.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if default is not _REQUIRED:
                return default
            raise DataFormatError(f"{where}: missing field {key!r}")
        cur = cur[part]
    if convert is None:
        return cur
    try:
        return convert(cur)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def _loading(doc: dict, key: str, where: str) -> LoadingSpec:
    """The :class:`LoadingSpec` at ``key`` of a dataset sidecar or config."""
    mode = _field(doc, f"{key}.mode", where)
    names = ("delta_sigma",) if mode == "constant" else ("delta_sigma1", "n1", "delta_sigma2", "n2")
    values = {k: _field(doc, f"{key}.{k}", where, float) for k in names}
    try:
        return LoadingSpec(mode, **values)
    except ValueError as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def _geometry(doc: dict, key: str, where: str) -> CrackGeometry:
    """The :class:`CrackGeometry` at ``key`` of a dataset sidecar or config."""
    values = [_field(doc, f"{key}.{k}", where, float) for k in ("a0", "n0", "a_f")]
    try:
        return CrackGeometry(*values)
    except ValueError as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def load_dataset(path: Path | str) -> Dataset:
    """Read a ``cycle,value`` CSV and its ``<stem>.meta.json`` sidecar."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such dataset file")
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise DataFormatError(f"{meta_path}: missing metadata sidecar")
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "cycle,value":
        raise DataFormatError(f"{path}:1: expected header 'cycle,value'")
    cycles, values = [], []
    prev = None
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{ln}: expected two comma-separated fields")
        try:
            c = int(parts[0])
            v = float(parts[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{ln}: unparseable row ({exc})") from None
        if prev is not None and c <= prev:
            kind = "duplicate" if c == prev else "decreasing"
            raise DataFormatError(f"{path}:{ln}: {kind} cycle index {c}")
        prev = c
        cycles.append(c)
        values.append(v)

    meta = json.loads(meta_path.read_text())
    where = str(meta_path)
    family = _field(meta, "family", where)
    unit_id = _field(meta, "unit_id", where)
    units = _field(meta, "units", where)
    loading = geometry = None
    if family == "paris":
        geometry = _geometry(meta, "geometry", where)
        loading = _loading(meta, "loading", where)
    try:
        return Dataset(
            unit_id=str(unit_id),
            cycles=np.array(cycles, dtype=np.int64),
            values=np.array(values, dtype=float),
            family=str(family),
            units=str(units),
            loading=loading,
            geometry=geometry,
            threshold=float(meta["threshold"]) if meta.get("threshold") is not None else None,
            nominals=tuple(meta["nominals"]) if meta.get("nominals") is not None else None,
            note=meta.get("note"),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_dataset(dataset: Dataset, path: Path | str) -> Path:
    """Write the CSV body and metadata sidecar for a dataset."""
    path = Path(path)
    rows = [f"{int(c)},{_fmt(v)}" for c, v in zip(dataset.cycles, dataset.values)]
    atomic_write(path, "\n".join(["cycle,value", *rows]) + "\n")
    meta = {
        "unit_id": dataset.unit_id,
        "family": dataset.family,
        "units": dataset.units,
        "threshold": dataset.threshold,
        "nominals": list(dataset.nominals) if dataset.nominals is not None else None,
        "note": dataset.note,
    }
    if dataset.geometry is not None:
        meta["geometry"] = {
            "a0": dataset.geometry.a0,
            "n0": dataset.geometry.n0,
            "a_f": dataset.geometry.a_f,
        }
    if dataset.loading is not None:
        ld = {"mode": dataset.loading.mode}
        if dataset.loading.mode == "constant":
            ld["delta_sigma"] = dataset.loading.delta_sigma
        else:
            ld.update(
                delta_sigma1=dataset.loading.delta_sigma1,
                n1=dataset.loading.n1,
                delta_sigma2=dataset.loading.delta_sigma2,
                n2=dataset.loading.n2,
            )
        meta["loading"] = ld
    atomic_write(_meta_path(path), _dump_json(meta))
    return path


def save_sample_set(ss: SampleSet, stem: Path | str) -> Path:
    """Persist a sample set as ``<stem>.csv`` + ``<stem>.json``."""
    stem = Path(stem)
    header = ",".join(ss.labels)
    rows = [",".join(_fmt(v) for v in row) for row in ss.samples]
    atomic_write(stem.with_suffix(".csv"), "\n".join([header, *rows]) + "\n")
    manifest = {
        "labels": list(ss.labels),
        "provenance": _jsonable(ss.provenance),
        "log_evidence": ss.log_evidence,
        "log_evidence_se": ss.log_evidence_se,
        "n": ss.n,
        "version": __version__,
    }
    atomic_write(stem.with_suffix(".json"), _dump_json(manifest))
    return stem.with_suffix(".csv")


def load_sample_set(stem: Path | str) -> SampleSet:
    stem = Path(stem)
    csv_path = stem.with_suffix(".csv")
    json_path = stem.with_suffix(".json")
    if not csv_path.exists() or not json_path.exists():
        raise DataFormatError(f"{stem}: missing sample-set artifact pair")
    lines = csv_path.read_text().splitlines()
    labels = tuple(lines[0].split(","))
    data = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:] if line.strip()],
        dtype=float,
    ).reshape(-1, len(labels))
    manifest = json.loads(json_path.read_text())
    return SampleSet(
        data,
        labels,
        dict(manifest.get("provenance", {})),
        manifest.get("log_evidence"),
        manifest.get("log_evidence_se"),
    )


def save_prognosis(res: PrognosisResult, stem: Path | str) -> list[Path]:
    """Persist a prognosis: plot-ready band table, RUL sample table and a
    JSON summary. Only the parts the result holds are written."""
    stem = Path(stem)
    written = []
    if res.grid is not None:
        header = "cycle," + ",".join(f"q{q}" for q in res.config.quantiles)
        rows = [
            ",".join([_fmt(c)] + [_fmt(res.bands[j, i]) for j in range(len(res.config.quantiles))])
            for i, c in enumerate(res.grid)
        ]
        p = stem.parent / (stem.name + ".bands.csv")
        atomic_write(p, "\n".join([header, *rows]) + "\n")
        written.append(p)
    if res.rul is not None:
        rows = [
            f"{_fmt(e)},{_fmt(r)},{int(c)}"
            for e, r, c in zip(res.t_eol, res.rul, res.censored)
        ]
        p = stem.parent / (stem.name + ".rul.csv")
        atomic_write(p, "\n".join(["t_eol,rul,censored", *rows]) + "\n")
        written.append(p)
    manifest = {
        "config": {
            "threshold": res.config.threshold,
            "t_c": res.config.t_c,
            "horizon": res.config.horizon,
            "quantiles": list(res.config.quantiles),
            "include_observation_noise": res.config.include_observation_noise,
        },
        "summary": _jsonable(res.summary),
        "provenance": _jsonable(res.provenance),
        "version": __version__,
    }
    p = stem.parent / (stem.name + ".json")
    atomic_write(p, _dump_json(manifest))
    written.append(p)
    return written


def load_prognosis(stem: Path | str) -> PrognosisResult:
    stem = Path(stem)
    manifest = json.loads((stem.parent / (stem.name + ".json")).read_text())
    cfgd = manifest["config"]
    cfg = PrognosisConfig(
        threshold=cfgd["threshold"],
        t_c=cfgd["t_c"],
        horizon=cfgd["horizon"],
        quantiles=tuple(cfgd["quantiles"]),
        include_observation_noise=cfgd["include_observation_noise"],
    )
    grid = bands = t_eol = rul = censored = None
    bands_path = stem.parent / (stem.name + ".bands.csv")
    if bands_path.exists():
        lines = bands_path.read_text().splitlines()
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        grid = table[:, 0]
        bands = table[:, 1:].T
    rul_path = stem.parent / (stem.name + ".rul.csv")
    if rul_path.exists():
        lines = rul_path.read_text().splitlines()
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        t_eol = table[:, 0]
        rul = table[:, 1]
        censored = table[:, 2].astype(bool)
    return PrognosisResult(
        config=cfg,
        grid=grid,
        bands=bands,
        t_eol=t_eol,
        rul=rul,
        censored=censored,
        summary=dict(manifest.get("summary", {})),
        provenance=dict(manifest.get("provenance", {})),
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings for a synthetic fleet: the true population
    distribution, number of units, shared measurement grid, a noise-scale
    multiplier on the drawn per-unit error scales (0 gives noiseless data)
    and the physics metadata each unit carries."""

    family: str
    psi: HyperParameters
    n_units: int
    cycles: np.ndarray
    noise_scale: float = 1.0
    loading: LoadingSpec | None = None
    geometry: CrackGeometry | None = None
    threshold: float | None = None
    nominals: tuple | None = None
    unit_prefix: str = "S"
    min_points: int = 3

    def __post_init__(self):
        cycles = np.asarray(self.cycles, dtype=np.int64)
        cycles.setflags(write=False)
        object.__setattr__(self, "cycles", cycles)
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.family == "paris" and (self.loading is None or self.geometry is None):
            raise ValueError("crack fleets require loading and geometry metadata")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[list[Dataset], dict]:
    """Draw a fleet from the population distribution and simulate noisy
    measurement series plus a ground-truth record for test harnesses.

    Per unit: theta from the population Gaussian, sigma from the truncated
    block (scaled by ``noise_scale``), the model curve on the shared grid,
    then family-appropriate measurement noise. Crack series are truncated at
    their latent threshold crossing, mirroring run-to-failure campaigns that
    stop once the critical length is reached. Draws violating model
    admissibility (divergence or fewer than ``min_points`` surviving grid
    points) are retried a bounded number of times.
    """
    psi = spec.psi
    datasets: list[Dataset] = []
    truth_units = []
    for i in range(spec.n_units):
        rng = np.random.default_rng(subseed(seed, 4, i))
        unit_id = f"{spec.unit_prefix}{i + 1}"
        probe = Dataset(
            unit_id, spec.cycles, np.ones_like(spec.cycles, dtype=float),
            spec.family, "mm" if spec.family == "paris" else "Ahr",
            spec.loading, spec.geometry, spec.threshold, spec.nominals,
        )
        model = build_model(probe)
        cap = None
        if spec.family == "paris":
            cap = spec.threshold if spec.threshold is not None else spec.geometry.a_f
        for attempt in range(100):
            z = rng.standard_normal(psi.n_theta)
            if psi.correlated:
                z = np.array([z[0], psi.rho * z[0] + math.sqrt(1 - psi.rho**2) * z[1]])
            theta = psi.mu0 + psi.sd0 * z
            sigma = float(
                trunc_normal_ppf(rng.uniform(), psi.mu_sigma, psi.sd_sigma, 0.0, psi.sigma_trunc)
            )
            sigma_eff = sigma * spec.noise_scale
            curve = model.predict(theta, spec.cycles.astype(float))
            keep = np.isfinite(curve) & (curve > 0)
            if cap is not None:
                keep &= curve <= cap
            if int(keep.sum()) < spec.min_points or not model.admissible(theta):
                continue
            cycles_i = spec.cycles[keep]
            values = _add_noise(curve[keep], sigma_eff, model.likelihood, rng)
            if np.all(np.isfinite(values)) and np.all(values > 0):
                break
        else:
            raise RuntimeError(f"unit {unit_id}: no admissible parameter draw in 100 tries")
        datasets.append(
            Dataset(
                unit_id, cycles_i, values, spec.family,
                "mm" if spec.family == "paris" else "Ahr",
                spec.loading, spec.geometry, spec.threshold, spec.nominals,
            )
        )
        truth_units.append(
            {
                "unit_id": unit_id,
                "theta": [float(v) for v in theta],
                "sigma": sigma,
                "sigma_effective": sigma_eff,
                "eol": _true_eol(model, theta, spec),
            }
        )
    truth = {
        "seed": seed,
        "family": spec.family,
        "psi": {
            "mu0": [float(v) for v in psi.mu0],
            "sd0": [float(v) for v in psi.sd0],
            "mu_sigma": psi.mu_sigma,
            "sd_sigma": psi.sd_sigma,
            "rho": psi.rho,
            "sigma_trunc": psi.sigma_trunc,
        },
        "noise_scale": spec.noise_scale,
        "units": truth_units,
    }
    return datasets, truth


def _add_noise(curve: np.ndarray, sigma: float, likelihood: str, rng) -> np.ndarray:
    if sigma == 0.0:
        return curve.copy()
    if likelihood == "gaussian":
        return curve + sigma * rng.standard_normal(curve.size)
    zeta2 = np.log1p((sigma / curve) ** 2)
    eta = np.log(curve) - 0.5 * zeta2
    return np.exp(eta + np.sqrt(zeta2) * rng.standard_normal(curve.size))


def _true_eol(model, theta, spec: SyntheticSpec) -> float | None:
    threshold = spec.threshold
    if spec.family == "paris":
        threshold = threshold if threshold is not None else spec.geometry.a_f
        try:
            return float(model.cycles_to_failure(theta, a_f=threshold))
        except Exception:
            return None
    if threshold is None:
        return None
    # first crossing in cycles 1 .. 20 * (last observed cycle) + 99
    horizon = 20 * int(spec.cycles[-1]) + 99
    t_eol, censored = end_of_life(theta, model, PrognosisConfig(threshold, 0.0, horizon))
    return None if censored else t_eol


def _json_fits(value, hint) -> bool:
    """Whether a JSON value fits a :class:`SamplerConfig` field type: ints
    for ``int``, any number for ``float``, a nonempty list of numbers for
    ``tuple``, null for ``None``."""
    if isinstance(hint, types.UnionType):
        return any(_json_fits(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is tuple:
        return isinstance(value, list) and bool(value) and all(_json_fits(v, float) for v in value)
    if isinstance(value, bool):
        return False
    if hint is int:
        return isinstance(value, int)
    if hint is float:
        return isinstance(value, (int, float))
    raise TypeError(f"no JSON form for the field type {hint!r}")


class RunConfig:
    """Parsed run configuration for the command-line pipeline.

    Wraps the JSON document; dataset paths resolve relative to the config
    file location. The fingerprint covers the whole document plus any CLI
    overrides, and is embedded in every artifact the run writes.
    """

    def __init__(self, raw: dict, base_dir: Path | None = None):
        self.raw = raw
        self.base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
        fam = raw.get("family")
        lik = raw.get("likelihood")
        if fam and lik:
            expected = "lognormal" if fam == "paris" else "gaussian"
            if lik != expected:
                raise DataFormatError(
                    f"family {fam!r} pairs with the {expected} likelihood, not {lik!r}"
                )
        self._sampler_section()

    @classmethod
    def from_file(cls, path: Path | str) -> "RunConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise DataFormatError(f"{path}: no such config file") from None
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from None
        return cls(raw, path.parent)

    def fingerprint(self) -> str:
        return config_fingerprint(self.raw)

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    @property
    def family(self) -> str:
        fam = self.raw.get("family")
        if fam is None:
            raise DataFormatError("config: missing field 'family'")
        return fam

    @property
    def sigma_trunc(self) -> float:
        default = 0.2 if self.raw.get("family") == "paris" else 0.4
        return float(self.raw.get("sigma_trunc", default))

    @property
    def case(self) -> str:
        return self.raw.get("case", "diag")

    def _sampler_section(self) -> dict:
        """The ``sampler`` section, with every key and value type checked."""
        section = self.raw.get("sampler", {})
        if not isinstance(section, dict):
            raise DataFormatError("config: field 'sampler' must be an object")
        hints = typing.get_type_hints(SamplerConfig)
        declared = {f.name: f.type for f in fields(SamplerConfig)}
        for key, value in section.items():
            if key == "kind":
                if value not in ("slice", "tmcmc"):
                    raise DataFormatError(
                        f"config: field 'sampler.kind' must be 'slice' or 'tmcmc', got {value!r}"
                    )
            elif key not in declared:
                raise DataFormatError(f"config: unknown field 'sampler.{key}'")
            elif not _json_fits(value, hints[key]):
                raise DataFormatError(
                    f"config: field 'sampler.{key}' must be of type {declared[key]}, got {value!r}"
                )
        return dict(section)

    def sampler_config(self, **overrides) -> SamplerConfig:
        section = self._sampler_section()
        section.pop("kind", None)
        section.update({k: v for k, v in overrides.items() if v is not None})
        section.setdefault("seed", self.seed)
        try:
            return SamplerConfig(**section)
        except ValueError as exc:
            raise DataFormatError(f"config: sampler: {exc}") from None

    @property
    def sampler_kind(self) -> str:
        return self._sampler_section().get("kind", "slice")

    def stage1_bounds(self, section: dict | None = None):
        sec = section if section is not None else self.raw.get("stage1_bounds")
        if sec is None:
            raise DataFormatError("config: missing field 'stage1_bounds'")
        return (np.asarray(sec["lower"], float), np.asarray(sec["upper"], float))

    def hyper_bounds(self, section: dict | None = None) -> HyperPriorBounds:
        sec = section if section is not None else self.raw.get("hyper_bounds")
        if sec is None:
            raise DataFormatError("config: missing field 'hyper_bounds'")
        return HyperPriorBounds(
            mu_theta=tuple(tuple(p) for p in sec["mu_theta"]),
            sd_theta=tuple(tuple(p) for p in sec["sd_theta"]),
            mu_sigma=tuple(sec["mu_sigma"]),
            sd_sigma=tuple(sec["sd_sigma"]),
            rho=tuple(sec["rho"]) if sec.get("rho") is not None else None,
        )

    def historical_paths(self) -> list[Path]:
        ds = self.raw.get("datasets", {})
        hist = ds.get("historical")
        if not hist:
            raise DataFormatError("config: missing field 'datasets.historical'")
        return [self.resolve(p) for p in hist]

    def current_path(self) -> Path:
        ds = self.raw.get("datasets", {})
        cur = ds.get("current")
        if not cur:
            raise DataFormatError("config: missing field 'datasets.current'")
        return self.resolve(cur)

    def prognosis_config(self, t_c: float) -> PrognosisConfig:
        t_c = float(t_c)
        horizon = _field(self.raw, "prognosis.horizon", "config", float)
        if not horizon > t_c:
            raise DataFormatError(
                f"config: field 'prognosis.horizon': {horizon:g} must exceed the current cycle {t_c:g}"
            )
        return PrognosisConfig(
            threshold=_field(self.raw, "prognosis.threshold", "config", float),
            t_c=t_c,
            horizon=horizon,
            quantiles=_field(
                self.raw, "prognosis.quantiles", "config", quantile_levels, (0.025, 0.5, 0.975)
            ),
            include_observation_noise=bool(
                _field(self.raw, "prognosis.include_observation_noise", "config", default=False)
            ),
        )

    def synthetic_spec(self) -> SyntheticSpec:
        sec = self.raw.get("synthetic")
        if sec is None:
            raise DataFormatError("config: missing field 'synthetic'")
        psi_sec = sec["psi"]
        psi = HyperParameters(
            mu0=np.asarray(psi_sec["mu0"], float),
            sd0=np.asarray(psi_sec["sd0"], float),
            mu_sigma=float(psi_sec["mu_sigma"]),
            sd_sigma=float(psi_sec["sd_sigma"]),
            rho=psi_sec.get("rho"),
            sigma_trunc=float(psi_sec.get("sigma_trunc", self.sigma_trunc)),
        )
        family = sec.get("family", self.raw.get("family"))
        loading = geometry = None
        if sec.get("loading") is not None:
            loading = _loading(self.raw, "synthetic.loading", "config")
        if sec.get("geometry") is not None:
            geometry = _geometry(self.raw, "synthetic.geometry", "config")
        cyc = sec["cycles"]
        if isinstance(cyc, dict):
            cycles = np.linspace(cyc["start"], cyc["stop"], cyc["num"]).astype(np.int64)
        else:
            cycles = np.asarray(cyc, dtype=np.int64)
        return SyntheticSpec(
            family=family,
            psi=psi,
            n_units=int(sec["n_units"]),
            cycles=cycles,
            noise_scale=float(sec.get("noise_scale", 1.0)),
            loading=loading,
            geometry=geometry,
            threshold=sec.get("threshold"),
            nominals=tuple(sec["nominals"]) if sec.get("nominals") else None,
            unit_prefix=sec.get("unit_prefix", "S"),
        )
