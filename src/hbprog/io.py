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
from hbprog.hierarchy import Candidate, Dataset, build_model
from hbprog.models import (
    BatteryDoubleModel,
    BatterySingleModel,
    CrackGeometry,
    LoadingSpec,
    ParisCrackModel,
)
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
    through ``convert``. A part of the key may index a list, as in
    ``candidates[0].family``. A missing field without a default, or a value
    that ``convert`` rejects with TypeError or ValueError, is a
    :class:`DataFormatError` naming the field (or its first missing part)."""
    cur = doc
    parts = key.split(".")
    for depth, part in enumerate(parts, 1):
        name, bracket, index = part.partition("[")
        found = isinstance(cur, dict) and name in cur
        if found:
            cur = cur[name]
            if bracket:
                i = int(index.rstrip("]"))
                found = isinstance(cur, list) and 0 <= i < len(cur)
                cur = cur[i] if found else None
        if not found:
            if default is not _REQUIRED:
                return default
            raise DataFormatError(f"{where}: missing field {'.'.join(parts[:depth])!r}")
    if convert is None:
        return cur
    try:
        return convert(cur)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def _json_bool(value) -> bool:
    """A JSON boolean; anything else (a string such as "no", a number,
    null) is rejected rather than cast."""
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _numbers(value) -> list[float]:
    """A JSON list of finite numbers (booleans are not numbers here)."""
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise TypeError(f"must be a list of numbers, got {value!r}")
    if not all(math.isfinite(v) for v in value):
        raise ValueError(f"must hold finite numbers, got {value!r}")
    return [float(v) for v in value]


def _number(value) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"must be a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _number(value)
    if not value > 0:
        raise ValueError(f"must be > 0, got {value!r}")
    return value


def _integer(value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"must be >= {low}, got {value}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _seed(value) -> int:
    return _integer(value, 0)


def _count(value) -> int:
    return _integer(value, 1)


def _optional(convert):
    """``convert`` that also passes JSON null through as None."""
    return lambda value: None if value is None else convert(value)


def _pair(value) -> tuple[float, float]:
    """A ``[lower, upper]`` bound pair."""
    pair = _numbers(value)
    if len(pair) != 2:
        raise ValueError(f"must be a [lower, upper] pair, got {value!r}")
    return pair[0], pair[1]


def _pairs(value) -> tuple[tuple[float, float], ...]:
    """A list of ``[lower, upper]`` bound pairs."""
    if not isinstance(value, list):
        raise TypeError(f"must be a list of [lower, upper] pairs, got {value!r}")
    return tuple(_pair(v) for v in value)


def _optional_pair(value) -> tuple[float, float] | None:
    return None if value is None else _pair(value)


#: parameters per model family, for checking bound lengths in the config
_N_THETA = {
    cls.family: cls.n_theta for cls in (ParisCrackModel, BatterySingleModel, BatteryDoubleModel)
}


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
        # type- and range-check the top-level run fields before any sampling
        for name in ("seed", "sigma_trunc", "cutoff", "nominals", "stage1_thin", "hyper_subsample"):
            getattr(self, name)

    @classmethod
    def from_file(cls, path: Path | str, **overrides) -> "RunConfig":
        """The config at ``path``, with the top-level fields in
        ``overrides`` (command-line flags; None leaves a field alone)
        replaced before it is checked."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise DataFormatError(f"{path}: no such config file") from None
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise DataFormatError(f"{path}: the config must be a JSON object")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls(raw, path.parent)

    def fingerprint(self) -> str:
        return config_fingerprint(self.raw)

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def seed(self) -> int:
        return _field(self.raw, "seed", "config", _seed, 0)

    @property
    def family(self) -> str:
        fam = self.raw.get("family")
        if fam is None:
            raise DataFormatError("config: missing field 'family'")
        return fam

    @property
    def sigma_trunc(self) -> float:
        default = 0.2 if self.raw.get("family") == "paris" else 0.4
        return _field(self.raw, "sigma_trunc", "config", _positive, default)

    @property
    def cutoff(self) -> float | None:
        """The current-data cutoff cycle t_c, or None for all the data."""
        return _field(self.raw, "cutoff", "config", _optional(_number), None)

    @property
    def nominals(self) -> list[float] | None:
        """Nominal-value overrides, one per parameter of the config's
        family, or None for the dataset's own."""
        nominals = _field(self.raw, "nominals", "config", _optional(_numbers), None)
        family = self.raw.get("family")
        n_theta = _N_THETA.get(family) if isinstance(family, str) else None
        if nominals is not None and n_theta is not None and len(nominals) != n_theta:
            raise DataFormatError(
                f"config: field 'nominals' must have {n_theta} entries, got {len(nominals)}"
            )
        return nominals

    @property
    def stage1_thin(self) -> int | None:
        return _field(self.raw, "stage1_thin", "config", _optional(_count), None)

    @property
    def hyper_subsample(self) -> int | None:
        return _field(self.raw, "hyper_subsample", "config", _optional(_count), None)

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

    def stage1_bounds(self, key: str = "stage1_bounds", family: str | None = None):
        """The ``(lower, upper)`` arrays of the stage-1 prior box at ``key``.
        With a known ``family`` (the config's own by default) each must hold
        one entry per model parameter plus one for sigma."""
        lower, upper = (
            np.asarray(_field(self.raw, f"{key}.{side}", "config", _numbers))
            for side in ("lower", "upper")
        )
        n_theta = _N_THETA.get(family or self.raw.get("family"))
        dim = lower.size if n_theta is None else n_theta + 1
        for side, arr in (("lower", lower), ("upper", upper)):
            if arr.size != dim:
                raise DataFormatError(
                    f"config: field '{key}.{side}' must have {dim} entries "
                    f"(theta..., sigma), got {arr.size}"
                )
        if np.any(lower > upper):
            raise DataFormatError(f"config: field {key!r}: lower exceeds upper")
        return lower, upper

    def hyper_bounds(
        self, key: str = "hyper_bounds", family: str | None = None
    ) -> HyperPriorBounds:
        """The uniform hyper-prior box at ``key``; with a known ``family`` it
        must bound one mean and one spread per model parameter."""
        mu_theta, sd_theta = (
            _field(self.raw, f"{key}.{name}", "config", _pairs) for name in ("mu_theta", "sd_theta")
        )
        n_theta = _N_THETA.get(family or self.raw.get("family"))
        if n_theta is not None and len(mu_theta) != n_theta:
            raise DataFormatError(
                f"config: field '{key}.mu_theta' must have {n_theta} pairs, got {len(mu_theta)}"
            )
        try:
            return HyperPriorBounds(
                mu_theta=mu_theta,
                sd_theta=sd_theta,
                mu_sigma=_field(self.raw, f"{key}.mu_sigma", "config", _pair),
                sd_sigma=_field(self.raw, f"{key}.sd_sigma", "config", _pair),
                rho=_field(self.raw, f"{key}.rho", "config", _optional_pair, None),
            )
        except ValueError as exc:
            raise DataFormatError(f"config: field {key!r}: {exc}") from None

    def candidates(self) -> list[Candidate]:
        """The ``candidates`` section for model selection, one
        :class:`~hbprog.hierarchy.Candidate` per entry."""
        sections = self.raw.get("candidates")
        if not sections:
            raise DataFormatError("config: missing field 'candidates'")
        out = []
        for i, sec in enumerate(sections):
            key = f"candidates[{i}]"
            family = _field(self.raw, f"{key}.family", "config")
            out.append(
                Candidate(
                    family=family,
                    stage1_bounds=self.stage1_bounds(f"{key}.stage1_bounds", family),
                    hyper_bounds=self.hyper_bounds(f"{key}.hyper_bounds", family),
                    nominals=tuple(sec["nominals"]) if sec.get("nominals") else None,
                    sigma_trunc=float(sec.get("sigma_trunc", self.sigma_trunc)),
                    name=sec.get("name"),
                )
            )
        return out

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
            include_observation_noise=_field(
                self.raw, "prognosis.include_observation_noise", "config", _json_bool, False
            ),
        )

    def synthetic_spec(self) -> SyntheticSpec:
        sec = self.raw.get("synthetic")
        if sec is None:
            raise DataFormatError("config: missing field 'synthetic'")

        def field(key, convert, default=_REQUIRED):
            return _field(self.raw, f"synthetic.{key}", "config", convert, default)

        mu0, sd0 = (np.asarray(field(f"psi.{k}", _numbers)) for k in ("mu0", "sd0"))
        mu_sigma, sd_sigma = (field(f"psi.{k}", _number) for k in ("mu_sigma", "sd_sigma"))
        rho = field("psi.rho", _optional(_number), None)
        sigma_trunc = field("psi.sigma_trunc", _positive, self.sigma_trunc)
        try:
            psi = HyperParameters(mu0, sd0, mu_sigma, sd_sigma, rho, sigma_trunc)
        except ValueError as exc:
            raise DataFormatError(f"config: field 'synthetic.psi': {exc}") from None
        family = sec.get("family", self.raw.get("family"))
        loading = geometry = None
        if sec.get("loading") is not None:
            loading = _loading(self.raw, "synthetic.loading", "config")
        if sec.get("geometry") is not None:
            geometry = _geometry(self.raw, "synthetic.geometry", "config")
        if isinstance(field("cycles", None), dict):
            start, stop = (field(f"cycles.{k}", _number) for k in ("start", "stop"))
            cycles = np.linspace(start, stop, field("cycles.num", _count)).astype(np.int64)
        else:
            cycles = np.asarray(field("cycles", _numbers), dtype=np.int64)
        nominals = field("nominals", _optional(_numbers), None)
        spec = dict(
            family=family,
            psi=psi,
            n_units=field("n_units", _count),
            cycles=cycles,
            noise_scale=field("noise_scale", _number, 1.0),
            loading=loading,
            geometry=geometry,
            threshold=field("threshold", _optional(_number), None),
            nominals=tuple(nominals) if nominals else None,
            unit_prefix=field("unit_prefix", _text, "S"),
        )
        try:
            return SyntheticSpec(**spec)
        except ValueError as exc:
            raise DataFormatError(f"config: field 'synthetic': {exc}") from None
